"""Run the workloads of BENCHMARK.json (each in its own process) and print
their metrics, or compare two stored result sets.

    python3 bench/suite.py --seeds 0 1 2 --out bench/results/base.json
    python3 bench/suite.py --trace --seeds 0
    python3 bench/suite.py --compare bench/results/base.json new.json

Comparison rule, per workload and end-to-end metric: the new median may
be worse than the base median by at most the metric's ``bound`` from
``BENCHMARK.json``; where the base's own quartile spread exceeds the
bound, the metric is reported as unresolved rather than unchanged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from cells import WORKLOADS  # noqa: E402

RUN_TIMEOUT_S = 900


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(int(trace))],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(
            f"{workload} seed {seed} exited {done.returncode}:\n"
            f"{done.stderr}")
    info = next((json.loads(l[5:]) for l in lines if l.startswith("info ")),
                {})
    for line in lines[:-1]:
        if not line.startswith("info "):
            print(line)
    return {"workload": workload, "seed": seed, "trace": trace,
            "result": json.loads(lines[-1]), "info": info}


def _quartile_spread(values: list[float]) -> float:
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med)


def summarize(runs: list[dict]) -> dict:
    """{workload: {metric: {"values", "median", "spread", "unit"}},
    plus "failed"/"attempted" per workload}."""
    out: dict = {}
    for r in runs:
        w = out.setdefault(r["workload"], {"attempted": 0, "failed": 0,
                                           "metrics": {}})
        w["attempted"] += r["result"]["attempted"]
        w["failed"] += r["result"]["failed"]
        for name, m in r["result"]["metrics"].items():
            entry = w["metrics"].setdefault(
                name, {"values": [], "unit": m["unit"]})
            entry["values"].append(m["value"])
    for w in out.values():
        for entry in w["metrics"].values():
            entry["median"] = statistics.median(entry["values"])
            entry["spread"] = _quartile_spread(entry["values"])
    return out


def compare(base: dict, new: dict, bench: dict) -> list[dict]:
    """One row per (workload, end-to-end metric) present in both
    summaries. ``verdict`` is ok, regressed, unresolved or failed."""
    rows = []
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        sign = 1.0 if metric["better"] == "lower" else -1.0
        for workload in sorted(set(base) & set(new)):
            a = base[workload]["metrics"].get(name)
            b = new[workload]["metrics"].get(name)
            if a is None or b is None:
                continue
            worse = sign * (b["median"] - a["median"]) / abs(a["median"])
            every_run_better = (
                max(b["values"]) < min(a["values"]) if sign > 0
                else min(b["values"]) > max(a["values"])
            )
            if new[workload]["failed"] > base[workload]["failed"]:
                verdict = "failed"
            elif worse > bound:
                verdict = "regressed"
            elif a["spread"] > bound and not every_run_better:
                verdict = "unresolved"
            else:
                verdict = "ok"
            rows.append({"workload": workload, "metric": name,
                         "base": a["median"], "new": b["median"],
                         "worse_by": worse, "bound": bound,
                         "base_spread": a["spread"], "verdict": verdict})
    return rows


def print_summary(summary: dict):
    for workload, w in summary.items():
        share = w["failed"] / w["attempted"] if w["attempted"] else 0.0
        print(f"== {workload}: {w['attempted']} cell-runs, {w['failed']} "
              f"failed ({share:.1%})")
        for name, m in w["metrics"].items():
            print(f"  {name:<36} {m['median']:14.6g} {m['unit']:<6} "
                  f"(median of {len(m['values'])}, quartile spread "
                  f"{m['spread']:.1%})")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", nargs="+", choices=sorted(WORKLOADS),
                   help="default: the workloads in BENCHMARK.json")
    p.add_argument("--seeds", nargs="+", type=int, default=[0])
    p.add_argument("--seconds", type=float, default=None,
                   help="default: run_seconds from BENCHMARK.json")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--out", type=Path, default=None)
    p.add_argument("--compare", nargs=2, type=Path, metavar=("BASE", "NEW"))
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())

    if args.compare:
        base, new = (summarize(json.loads(f.read_text())["runs"])
                     for f in args.compare)
        rows = compare(base, new, bench)
        for r in rows:
            print(f"{r['workload']:<12} {r['metric']:<22} {r['base']:12.6g} "
                  f"-> {r['new']:12.6g}  worse by {r['worse_by']:+7.1%} "
                  f"(bound {r['bound']:.0%}, base spread "
                  f"{r['base_spread']:.1%})  {r['verdict']}")
        return 1 if any(r["verdict"] in ("regressed", "failed")
                        for r in rows) else 0

    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    runs = [run_one(w, s, seconds, args.trace)
            for w in workloads for s in args.seeds]
    summary = summarize(runs)
    print_summary(summary)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({"runs": runs, "summary": summary},
                                       indent=1) + "\n")
        print(f"wrote {args.out}")
    return 1 if any(w["failed"] for w in summary.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
