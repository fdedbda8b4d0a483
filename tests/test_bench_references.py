"""Bench-scale cells of the gated benchmark workloads, each required to
write the record committed for its master seed in ``bench/references``.

The references fix the records byte for byte (minus ``wall_time``), so a
change that alters any record of these workloads fails here as it does in
``bench/run.py``. The subsample CSV and the records go under a temporary
directory; nothing is written under ``bench/``.
"""

from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.mark.parametrize("name", ["dist_k3", "rank_geo_k2"])
def test_bench_cells_match_references(name, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import cells

    workload = cells.WORKLOADS[name]
    dataset = cells.dataset_for(workload, "bench", tmp_path)
    store = cells.load_references(workload)
    problems = []
    for master in (1, 2, 3):
        cell = cells.run_cell(workload, "bench", dataset, master,
                              tmp_path / "out")
        cells.check_reference(workload, cell, store)
        problems += [f"master seed {master}: {p}" for p in cell.problems]
    assert not problems, "\n".join(problems)
