"""Make the committed bench-scale reference records that ``run.py`` checks
the first record of each cell against.

    python3 bench/references.py                      # every workload
    python3 bench/references.py --workloads amt_k2

For each workload it runs the cells of every master seed a run draws
from (1-64, ``cells.POOL``) at bench scale and writes
``bench/references/<workload>.json``: the workload's settings and, per
master seed, the sha256 of the record minus ``wall_time`` with its
balanced accuracy, reconstruction error and train fitness. Run it from
the repository root whenever results change on purpose, together with
``tests/_acceptance_cache``, or after changing a workload's bench-scale
settings. A failed cell-run stops it without writing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from cells import (  # noqa: E402
    POOL, REFERENCES, ROOT, WORKLOADS, dataset_for, master_seed,
    reference_config, reference_entry, run_cell,
)

def make_store(workload, work: Path) -> dict:
    dataset = dataset_for(workload, "bench", work)
    records = {}
    for seed in range(POOL):
        cell = run_cell(workload, "bench", dataset, master_seed(seed, 0),
                        work / "out")
        if cell.failed:
            raise SystemExit(f"{workload.name} seed {seed}: "
                             + "; ".join(cell.problems))
        records[str(cell.master_seed)] = reference_entry(cell)
        print(f"{workload.name} seed {seed}: {cell.wall_s:.2f} s",
              flush=True)
    return {"config": reference_config(workload), "records": records}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", nargs="+", choices=sorted(WORKLOADS),
                   default=list(WORKLOADS))
    args = p.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    work = HERE / "_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    REFERENCES.mkdir(exist_ok=True)
    try:
        for name in args.workloads:
            store = make_store(WORKLOADS[name], work)
            path = REFERENCES / f"{name}.json"
            path.write_text(json.dumps(store, indent=1, sort_keys=True)
                            + "\n")
            print(f"wrote {path.relative_to(ROOT)}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
