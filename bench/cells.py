"""Workloads, one cell-run through the public sweep API, and the
correctness gate applied to every record a cell-run writes.

A cell-run is what ``gpdr run`` does for one (method, k, run) cell: an
``ExperimentConfig`` with one method, one k and ``runs=1``, passed to
``run_experiment`` with a fresh output directory. The benchmark depends
on nothing else in the program, so refactors behind that API need no
benchmark edit.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DATASET = ROOT / "data" / "segmentation.csv"
ACCEPTANCE_CACHE = ROOT / "tests" / "_acceptance_cache"
# committed bench-scale reference records, one file per workload
REFERENCES = HERE / "references"
LABEL_COLUMN = "target"
MASTER_SEED = 1
BATCH_SIZE = 100
# the master seeds cells are drawn from: 1 .. POOL. Every one has a
# committed reference record, so every first record of a cell is compared
# with one. Cell j of a run with workload seed s (any integer) uses master
# seed 1 + (s + j) mod POOL, so seed 0, cell 0 is master seed 1, the
# acceptance sweeps' own. run_experiment runs runs 0..runs-1, so a cell
# cannot be "run s" alone; the master seed varies instead.
POOL = 64


@dataclass(frozen=True)
class Workload:
    name: str
    method: str
    k: int
    # bench scale: GP budget, decoder epochs, the DR-train share of the
    # rows, and every row_step-th row of the bundled CSV (its rows are
    # grouped by class, so this subsample is stratified)
    population: int
    generations: int
    decoder_epochs: int
    dr_fraction: float
    row_step: int
    # acceptance cache holding this cell at desk scale
    cache: str
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "dist_k3", "mt_dist_euclidean", 3,
            population=60, generations=10, decoder_epochs=200,
            dr_fraction=0.7, row_step=10, cache="c7",
            why="continuous 3-D latent: the forest and decoders dominate; "
                "no rank kernel",
        ),
        Workload(
            "amt_k2", "amt_gp", 2,
            population=60, generations=10, decoder_epochs=200,
            dr_fraction=0.7, row_step=10, cache="c8",
            why="batch scoring and variation dominate; degenerate latent "
                "leaves the forest idle",
        ),
        Workload(
            "rank_geo_k2", "mt_rank_geodesic", 2,
            population=8, generations=5, decoder_epochs=200,
            dr_fraction=0.818, row_step=6, cache="c8",
            why="only workload with geodesic targets and full-split rank "
                "re-scoring, which dominates it",
        ),
    )
}

SCALES = ("bench", "desk")


def dataset_for(workload: Workload, scale: str, work_dir: Path) -> Path:
    """The CSV a workload reads: the bundled file at desk scale, a
    row-subsample of it written under ``work_dir`` at bench scale."""
    if scale == "desk":
        return DATASET
    lines = DATASET.read_text().splitlines(keepends=True)
    path = work_dir / f"segmentation_every{workload.row_step}.csv"
    if not path.exists():
        path.write_text("".join([lines[0]] + lines[1::workload.row_step]))
    return path


def experiment_config(workload: Workload, scale: str, dataset: Path,
                      master_seed: int, out_dir: Path):
    from gpdr.experiment import ExperimentConfig

    cfg = ExperimentConfig(
        dataset_path=str(dataset),
        label_column=LABEL_COLUMN,
        k_list=[workload.k],
        methods=[workload.method],
        master_seed=master_seed,
        output_dir=str(out_dir),
    )
    if scale == "desk":
        cfg.apply_desk_scale()
    else:
        cfg.population = workload.population
        cfg.generations = workload.generations
        cfg.decoder_epochs = workload.decoder_epochs
        cfg.dr_fraction = workload.dr_fraction
    cfg.batch_size = BATCH_SIZE
    cfg.runs = 1
    return cfg


def master_seed(seed: int, j: int) -> int:
    return MASTER_SEED + (seed + j) % POOL


@dataclass
class Cell:
    """One attempted cell-run."""

    master_seed: int
    wall_s: float
    cpu_s: float
    record_name: Optional[str] = None
    record: Optional[dict] = None
    canonical: Optional[bytes] = None  # record file minus wall_time
    problems: tuple = ()

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def canonical_record(text: str) -> bytes:
    """A record file with ``wall_time`` removed: header line as written,
    record re-serialized with sorted keys (floats round-trip exactly)."""
    header, body = text.splitlines()[:2]
    record = json.loads(body)
    record.pop("wall_time", None)
    return (header + "\n" + json.dumps(record, sort_keys=True) + "\n").encode()


def record_problems(record: dict) -> list[str]:
    """Failures visible in one record: an error entry or a non-finite
    metric."""
    if "error" in record:
        return [f"error record: {record['error']}"]
    out = []
    for key in ("balanced_accuracy", "reconstruction_error"):
        v = record.get(key)
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            out.append(f"non-finite {key}: {v!r}")
    for key in ("fold_accuracies", "fold_errors"):
        vals = record.get(key) or []
        if not vals or not all(
            isinstance(v, (int, float)) and math.isfinite(v) for v in vals
        ):
            out.append(f"non-finite or missing {key}")
    return out


def run_cell(workload: Workload, scale: str, dataset: Path, master: int,
             out_dir: Path, on_call=None) -> Cell:
    """One cell-run into a fresh ``out_dir``; never raises for a failure of
    the program, which is recorded in ``Cell.problems`` instead.

    ``on_call`` wraps the ``run_experiment`` call (the tracer's root span).
    """
    from gpdr.experiment import run_experiment

    if out_dir.exists():
        shutil.rmtree(out_dir)
    cfg = experiment_config(workload, scale, dataset, master, out_dir)
    t0 = time.perf_counter()
    c0 = time.process_time()
    try:
        if on_call is None:
            run_experiment(cfg)
        else:
            on_call(run_experiment, cfg)
    except Exception as e:  # a raising cell-run is a counted failure
        wall = time.perf_counter() - t0
        return Cell(master, wall, time.process_time() - c0,
                    problems=(f"raised {type(e).__name__}: {e}",))
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    files = sorted((out_dir / "records").glob("*.jsonl"))
    if len(files) != 1:
        return Cell(master, wall, cpu,
                    problems=(f"expected one record file, found {len(files)}",))
    text = files[0].read_text()
    record = json.loads(text.splitlines()[1])
    shutil.rmtree(out_dir)
    return Cell(master, wall, cpu, record_name=files[0].name, record=record,
                canonical=canonical_record(text),
                problems=tuple(record_problems(record)))


def check_repeat(first: Cell, repeat: Cell):
    """Marks ``repeat`` failed unless it wrote the same record as ``first``
    minus wall_time."""
    if first.failed or repeat.failed:
        return
    if repeat.canonical != first.canonical:
        repeat.problems += (
            f"record differs from a repeat of master seed {first.master_seed}",
        )


# record fields kept beside the digest, so a mismatch says what moved
REFERENCE_FIELDS = ("balanced_accuracy", "reconstruction_error",
                    "train_fitness")


def reference_entry(cell: Cell) -> dict:
    """What the reference store keeps of a record: the digest of its
    canonical form, plus the results a mismatch is read from."""
    return {
        "sha256": hashlib.sha256(cell.canonical).hexdigest(),
        **{key: cell.record.get(key) for key in REFERENCE_FIELDS},
    }


def reference_config(workload: Workload) -> dict:
    """The workload settings a reference store was made with."""
    config = asdict(workload)
    config.pop("why")
    config.pop("cache")
    config["batch_size"] = BATCH_SIZE
    return config


def load_references(workload: Workload, directory: Path = REFERENCES):
    """A workload's reference store, ``{"config", "records": {master seed:
    entry}}``, or None when there is none."""
    path = directory / f"{workload.name}.json"
    if not path.exists():
        return None
    return json.loads(path.read_text())


def check_reference(workload: Workload, cell: Cell, store):
    """Bench scale: marks ``cell`` failed unless its record equals the
    committed reference record of its master seed, minus wall_time."""
    if cell.failed:
        return
    path = f"bench/references/{workload.name}.json"
    want = None
    if store is not None and store["config"] == reference_config(workload):
        want = store["records"].get(str(cell.master_seed))
    if want is None:
        cell.problems += (
            f"{path} is missing, lacks master seed {cell.master_seed} or "
            "was made for another workload configuration; make it with "
            "bench/references.py",
        )
        return
    got = reference_entry(cell)
    if got["sha256"] != want["sha256"]:
        changed = [f"{k} {want[k]!r} -> {got[k]!r}"
                   for k in REFERENCE_FIELDS if got[k] != want[k]]
        cell.problems += (
            f"record differs from the reference of master seed "
            f"{cell.master_seed}" + (": " + ", ".join(changed)
                                     if changed else ""),
        )


def check_cache(workload: Workload, cell: Cell):
    """Desk scale only: the record must equal the committed acceptance
    record of the same cell, minus wall_time. The cache is only read."""
    if cell.failed:
        return
    path = ACCEPTANCE_CACHE / workload.cache / "records" / cell.record_name
    if not path.exists():
        cell.problems += (f"no acceptance record {path.relative_to(ROOT)}",)
    elif canonical_record(path.read_text()) != cell.canonical:
        cell.problems += (
            f"record differs from {path.relative_to(ROOT)}",
        )
