"""Cell-run benchmark: one workload, one process, a closed loop of one
cell-run at a time.

    python3 bench/run.py --workload dist_k3 --seed 0 --seconds 60 --trace 0

Run from the repository root. It measures set-up (``import`` plus the
first ``load_csv``, in fresh interpreters), then spends ``--seconds`` on
distinct cell-runs, each run twice in a row (the second time traced with
``--trace 1``). It checks every record, and prints the end-to-end metrics (``--trace 0``) or the
per-layer metrics of the traced repeats (``--trace 1``). The last line of
standard output is one JSON object: ``{"correct", "attempted", "failed",
"metrics"}``.

At bench scale every first record of a cell must equal the committed
reference record of its master seed under ``bench/references/``, minus
``wall_time``; the master seeds come from a pool that all have one
(``cells.POOL``), so any integer ``--seed`` works. ``--scale desk`` runs the acceptance
sweeps' own configuration (full dataset, population 200, 30 generations)
instead, and at seed 0 compares the record with the committed acceptance
record of the same cell.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from cells import (  # noqa: E402
    DATASET, LABEL_COLUMN, ROOT, SCALES, WORKLOADS, Cell,
    check_cache, check_reference, check_repeat, dataset_for,
    load_references, master_seed, run_cell,
)

SRC = ROOT / "src"
WORK = HERE / "_work"
RESULTS = HERE / "results"
# set-up is measured this many times before the cell-runs and as many after
SETUP_REPS = 3

SETUP_CHILD = """\
import sys, time
sys.path.insert(0, sys.argv[1])
t = time.perf_counter()
import gpdr
from gpdr.dataset import load_csv
from gpdr.experiment import ExperimentConfig, run_experiment
load_csv(sys.argv[2], label_column=sys.argv[3])
print(time.perf_counter() - t)
"""


def measure_setup(reps: int = SETUP_REPS) -> list[float]:
    """Seconds for ``import gpdr`` plus the first ``load_csv``, each in a
    fresh interpreter so the import is really paid."""
    out = []
    for _ in range(reps):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(SRC), str(DATASET),
             LABEL_COLUMN],
            capture_output=True, text=True, timeout=120,
        )
        if done.returncode != 0:
            raise SystemExit(f"set-up failed:\n{done.stderr}")
        out.append(float(done.stdout.strip().splitlines()[-1]))
    return out


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _mean(xs):
    return statistics.fmean(xs) if xs else 0.0


def run_loop(workload, scale, seed, seconds, tracer, work):
    """Cell-runs within ``seconds``, each followed at once by a repeat of
    itself, traced when ``tracer`` is given, until the next pair would
    end past ``seconds``. A repeat whose record differs from its first run
    fails, and so does a first run whose record differs from its committed
    reference. Returns the (first, repeat) pairs and the number of first
    runs compared with a reference record."""
    from spans import ROOT as ROOT_SPAN

    dataset = dataset_for(workload, scale, work)
    store = load_references(workload) if scale == "bench" else None

    def traced_call(run_experiment, cfg):
        index = tracer.open(ROOT_SPAN)
        try:
            run_experiment(cfg)
        finally:
            tracer.close(index)

    start = time.perf_counter()
    pairs = []
    compared = 0
    while True:
        i = len(pairs)
        cell = run_cell(workload, scale, dataset, master_seed(seed, i),
                        work / "out")
        if scale == "bench":
            check_reference(workload, cell, store)
            compared += 1
        elif seed == 0 and i == 0:
            check_cache(workload, cell)
            compared += 1
        if tracer is None:
            again = run_cell(workload, scale, dataset, cell.master_seed,
                             work / "out")
        else:
            tracer.cell = i
            with tracer:
                again = run_cell(workload, scale, dataset, cell.master_seed,
                                 work / "out", on_call=traced_call)
        check_repeat(cell, again)
        pairs.append((cell, again))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(pairs) > seconds:
            return pairs, compared


def end_to_end(pairs, setup):
    return {
        "cell_s": (_median([c.wall_s for pair in pairs for c in pair]), "s"),
        "setup_s": (_median(setup), "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(pairs, tracer):
    from spans import cell_layers, self_time_table, split_cells

    groups = split_cells(tracer.spans)
    traced = [(i, b) for i, (_, b) in enumerate(pairs)]
    rows = []
    tables = []
    remainders = []
    for cell_id, cell in traced:
        spans = groups.get(cell_id, [])
        rows.append(cell_layers(spans, tracer.counts[cell_id]))
        table = self_time_table(spans)
        tables.append(table)
        remainders.append(cell.wall_s - sum(table.values()))
    names = list(rows[0]) if rows else []
    metrics = {n: _mean([r[n] for r in rows]) for n in names}
    # results, so that a change which moves them shows beside its timings
    records = [c.record for _, c in traced if not c.failed]
    for key in ("balanced_accuracy", "reconstruction_error"):
        metrics["quality." + key] = _mean([r[key] for r in records])
    untraced_wall = _mean([a.wall_s for a, _ in pairs])
    traced_wall = _mean([c.wall_s for _, c in traced])
    metrics["trace.cell_s"] = traced_wall
    metrics["trace.unaccounted_s"] = _mean(remainders)
    metrics["trace.overhead"] = (
        traced_wall / untraced_wall - 1.0 if untraced_wall else 0.0)
    layer_names = sorted({k for t in tables for k in t})
    self_means = {k: _mean([t.get(k, 0.0) for t in tables])
                  for k in layer_names}
    return metrics, self_means


def _unit(name: str) -> str:
    if name.endswith(("_s", "_s_per_latent")):
        return "s"
    if name.endswith(("_share", "_ratio", ".overhead", "_accuracy")):
        return "ratio"
    if name.endswith("_error"):
        return "mse"
    return "count"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=60.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=SCALES, default="bench")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    if not (SRC / "gpdr").is_dir() or not DATASET.is_file():
        print(f"error: {SRC / 'gpdr'} or {DATASET} is missing; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2

    load_before = os.getloadavg()
    setup = measure_setup()
    sys.path.insert(0, str(SRC))
    import gpdr

    if Path(gpdr.__file__).resolve().parent != (SRC / "gpdr").resolve():
        print(f"error: imported gpdr from {gpdr.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from spans import Tracer
    from stamp import stamp

    workload = WORKLOADS[args.workload]
    work = WORK / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.trace else None
    try:
        pairs, compared = run_loop(workload, args.scale, args.seed,
                                   args.seconds, tracer, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setup += measure_setup()
    cells = [c for pair in pairs for c in pair]
    attempted = len(cells)
    failures = [c for c in cells if c.failed]

    info = {
        "workload": workload.name, "method": workload.method,
        "k": workload.k, "scale": args.scale, "seed": args.seed,
        "seconds": args.seconds,
        "stamp": stamp(ROOT),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "setup_samples_s": setup,
        "compared_with_reference": compared,
        "cells": [
            {"master_seed": c.master_seed, "wall_s": c.wall_s,
             "cpu_s": c.cpu_s, "failed": list(c.problems)}
            for c in cells
        ],
    }
    print(f"workload {workload.name} ({workload.method}, k={workload.k}, "
          f"{args.scale} scale), seed {args.seed}: {attempted} cell-runs, "
          f"{len(failures)} failed ({len(failures) / attempted:.1%}), "
          f"{compared} compared with a reference record")
    for c in failures:
        print(f"  failed: master seed {c.master_seed}: "
              + "; ".join(c.problems))
    first = cells[0].record
    if first is not None:
        print(f"  record of master seed {cells[0].master_seed}: balanced "
              f"accuracy {first['balanced_accuracy']!r}, reconstruction "
              f"error {first['reconstruction_error']!r}")

    if args.trace:
        metrics, self_means = per_layer(pairs, tracer)
        info["untraced"] = tracer.untraced
        if tracer.untraced:
            print("untraced (name absent): " + ", ".join(tracer.untraced))
        print(f"self time per layer, mean of {len(pairs)} traced cell-runs:")
        cell_s = metrics["trace.cell_s"]
        for name, t in sorted(self_means.items(), key=lambda kv: -kv[1]):
            print(f"  {name:<32} {t:9.4f} s  {t / cell_s:6.1%}")
        print(f"  {'sum':<32} {sum(self_means.values()):9.4f} s  "
              f"traced cell_s {cell_s:.4f} s, unaccounted "
              f"{metrics['trace.unaccounted_s']:.6f} s")
        RESULTS.mkdir(exist_ok=True)
        spans_path = RESULTS / f"spans-{workload.name}-seed{args.seed}.jsonl"
        with open(spans_path, "w") as f:
            for s in tracer.spans:
                f.write(json.dumps([s.name, s.start, s.end, s.parent,
                                    s.cell]) + "\n")
        out = {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()}
    else:
        metrics = end_to_end(pairs, setup)
        for name, (value, unit) in metrics.items():
            print(f"  {name:<22} {value:12.4f} {unit}")
        out = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    print("info " + json.dumps(info))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": out,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
