import json

import numpy as np
import pytest
from click.testing import CliRunner

from gpdr.cli import main
from gpdr.experiment import (
    ExperimentConfig,
    ExperimentError,
    ResultStore,
    derive_seed,
    export_expressions,
    read_record,
    run_experiment,
    run_single,
    summarize,
    write_record,
)
from gpdr.dataset import load_csv


@pytest.fixture(scope="module")
def toy_csv(tmp_path_factory):
    """Tiny labeled dataset: 3 classes separated along 2 of 4 features."""
    rng = np.random.default_rng(0)
    path = tmp_path_factory.mktemp("data") / "toy.csv"
    rows = ["a,b,c,d,label"]
    for i in range(90):
        c = i % 3
        x = rng.normal(size=4) * 0.4
        x[0] += 3.0 * c
        x[1] -= 2.0 * c
        rows.append(",".join(f"{v:.6f}" for v in x) + f",class{c}")
    path.write_text("\n".join(rows) + "\n")
    return str(path)


def _tiny_config(toy_csv, out_dir, methods=("pca",), runs=2):
    return ExperimentConfig(
        dataset_path=toy_csv,
        label_column="label",
        k_list=[2],
        methods=list(methods),
        runs=runs,
        master_seed=3,
        output_dir=str(out_dir),
        population=30,
        generations=3,
        batch_size=25,
        n_neighbors=5,
        teacher_epochs=20,
        decoder_epochs=10,
    )


def test_config_validation(toy_csv):
    with pytest.raises(ExperimentError):
        ExperimentConfig(dataset_path=toy_csv, methods=["nope"])
    with pytest.raises(ExperimentError):
        ExperimentConfig(dataset_path=toy_csv, runs=0)
    with pytest.raises(ExperimentError, match="batch_size"):
        ExperimentConfig(dataset_path=toy_csv, batch_size=0)
    bad = [("decoder_epochs", 0), ("decoder_epochs", 2.5),
           ("decoder_epochs", -1), ("teacher_epochs", 0),
           ("teacher_epochs", 1.5), ("generations", 0), ("generations", 2.0),
           ("population", 0), ("population", 1), ("population", 10.5),
           ("n_neighbors", 0), ("workers", 0), ("workers", True),
           ("batch_size", 4.5), ("dr_fraction", 0.0), ("dr_fraction", 1.0),
           ("dr_fraction", -0.5), ("dr_fraction", 1.5),
           ("dr_fraction", float("nan")), ("dr_fraction", "half"),
           ("runs", 1.5), ("k_list", [2.5]), ("k_list", [2, 0])]
    for name, value in bad:
        message = "k must" if name == "k_list" else name
        with pytest.raises(ExperimentError, match=message):
            ExperimentConfig(dataset_path=toy_csv, **{name: value})
    # the least accepted values
    ExperimentConfig(dataset_path=toy_csv, decoder_epochs=1,
                     teacher_epochs=1, generations=1, population=2,
                     n_neighbors=1, workers=1, dr_fraction=0.01)
    ExperimentConfig(dataset_path=toy_csv, population=np.int64(5),
                     dr_fraction=0.99)
    cfg = ExperimentConfig(dataset_path=toy_csv)
    cfg.apply_desk_scale()
    assert (cfg.population, cfg.generations, cfg.runs, cfg.batch_size) == \
        (200, 30, 10, 100)


def test_config_from_yaml(toy_csv, tmp_path):
    y = tmp_path / "cfg.yaml"
    y.write_text(
        f"dataset_path: {toy_csv}\nlabel_column: label\nruns: 4\n"
        "methods: [pca, mt_teacher]\nk_list: [2]\n"
    )
    cfg = ExperimentConfig.from_yaml(y)
    assert cfg.runs == 4
    assert list(cfg.methods) == ["pca", "mt_teacher"]


def test_config_from_yaml_rejects_unknown_keys(toy_csv, tmp_path):
    y = tmp_path / "cfg.yaml"
    y.write_text(f"dataset_path: {toy_csv}\nruns: 2\npopulaton: 50\n"
                 "seed: 3\n")
    with pytest.raises(ExperimentError, match="populaton, seed"):
        ExperimentConfig.from_yaml(y)
    result = CliRunner().invoke(main, ["run", "--config", str(y)])
    # a clean exit 1 with a message, not an uncaught TypeError
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "error:" in result.output and "populaton" in result.output


def test_cli_run_rejects_nonpositive_batch_size(toy_csv, tmp_path):
    r = CliRunner().invoke(main, [
        "run", "--dataset", toy_csv, "--label-column", "label",
        "--method", "pca", "--k", "2", "--runs", "1",
        "--output-dir", str(tmp_path / "results"), "--batch-size", "0",
    ])
    assert r.exit_code == 1
    assert isinstance(r.exception, SystemExit)
    assert "error:" in r.output and "batch_size" in r.output


@pytest.mark.parametrize("key, value", [("decoder_epochs", "0"),
                                        ("teacher_epochs", "0"),
                                        ("population", "0"),
                                        ("decoder_epochs", "2.5"),
                                        ("n_neighbors", "0")])
def test_cli_run_rejects_bad_budgets_before_any_record(toy_csv, tmp_path,
                                                       key, value):
    y = tmp_path / "cfg.yaml"
    out = tmp_path / "results"
    y.write_text(f"dataset_path: {toy_csv}\nlabel_column: label\nruns: 1\n"
                 f"methods: [mt_teacher, mt_rank_geodesic]\nk_list: [2]\n"
                 f"output_dir: {out}\n{key}: {value}\n")
    r = CliRunner().invoke(main, ["run", "--config", str(y)])
    assert r.exit_code == 1
    assert isinstance(r.exception, SystemExit)
    assert "error:" in r.output and key in r.output
    assert not out.exists() or not any(out.rglob("*.jsonl"))


def test_cli_run_rejects_bad_population_flag(toy_csv, tmp_path):
    out = tmp_path / "results"
    r = CliRunner().invoke(main, [
        "run", "--dataset", toy_csv, "--label-column", "label",
        "--method", "mt_teacher", "--k", "2", "--runs", "1",
        "--output-dir", str(out), "--population", "1",
    ])
    assert r.exit_code == 1
    assert "error:" in r.output and "population" in r.output
    assert not out.exists() or not any(out.rglob("*.jsonl"))


def test_derive_seed_is_stable_and_distinct():
    s = derive_seed(1, "pca", 2, 0)
    assert s == derive_seed(1, "pca", 2, 0)
    others = {derive_seed(1, m, k, r)
              for m in ("pca", "isomap", "mt_teacher")
              for k in (2, 3) for r in (0, 1)}
    assert len(others) == 12


def test_record_round_trip(tmp_path):
    rec = {"method": "pca", "k": 2, "run": 0, "balanced_accuracy": 0.5}
    path = tmp_path / "records" / "r.jsonl"
    write_record(path, rec)
    assert read_record(path) == rec
    with open(path) as f:
        header = json.loads(f.readline())
    assert header["format"] == "gpdr-run-record"
    bad = tmp_path / "records" / "bad.jsonl"
    for header in ('{"format": "other"}',
                   '{"format": "gpdr-run-record", "version": 99}'):
        bad.write_text(header + '\n{}\n')
        with pytest.raises(ExperimentError):
            read_record(bad)


def test_run_single_produces_complete_record(toy_csv, tmp_path):
    data = load_csv(toy_csv, label_column="label")
    cfg = _tiny_config(toy_csv, tmp_path)
    rec = run_single(data, "mt_teacher", 2, 0, cfg)
    assert rec["method"] == "mt_teacher" and rec["k"] == 2
    assert 0.0 <= rec["balanced_accuracy"] <= 1.0
    assert rec["reconstruction_error"] >= 0.0
    assert len(rec["expressions"]) == 2
    assert len(rec["fitness_history"]) == cfg.generations
    assert rec["train_fitness"] is not None
    assert "mean" in rec["standardizer"]
    json.dumps(rec)  # records must be JSON-serializable


def test_run_experiment_resumes(toy_csv, tmp_path):
    cfg = _tiny_config(toy_csv, tmp_path / "out", methods=("pca", "mt_teacher"))
    store = run_experiment(cfg)
    assert len(store.records) == 4
    first = {(r["method"], r["run"]): r["balanced_accuracy"]
             for r in store.records}
    # a second invocation skips every existing record file
    calls = []
    store2 = run_experiment(cfg, progress=lambda i, n: calls.append((i, n)))
    assert calls == []  # nothing left to do
    second = {(r["method"], r["run"]): r["balanced_accuracy"]
              for r in store2.records}
    assert first == second


def test_store_cell_and_missing(toy_csv, tmp_path):
    cfg = _tiny_config(toy_csv, tmp_path / "out")
    store = run_experiment(cfg)
    cell = store.cell("pca", 2)
    assert [r["run"] for r in cell] == [0, 1]
    with pytest.raises(ExperimentError):
        store.cell("isomap", 2)


def test_summarize_and_export(toy_csv, tmp_path):
    cfg = _tiny_config(toy_csv, tmp_path / "out",
                       methods=("pca", "mt_teacher"), runs=3)
    store = run_experiment(cfg)
    text = summarize(store)
    assert "balanced_accuracy" in text and "reconstruction_error" in text
    assert "pca" in text and "mt_teacher" in text
    assert "[best]" in text

    exprs = export_expressions(store, "mt_teacher", 2, "best_reconstruction")
    assert exprs.splitlines()[0].startswith("X~0 = ")
    exprs2 = export_expressions(store, "mt_teacher", 2, "best_accuracy")
    assert exprs2.splitlines()[0].startswith("X~0 = ")
    with pytest.raises(ExperimentError):
        export_expressions(store, "pca", 2)  # no expression form


def test_failed_runs_are_recorded_not_raised(toy_csv, tmp_path):
    cfg = _tiny_config(toy_csv, tmp_path / "out", methods=("isomap",), runs=1)
    cfg.n_neighbors = 200  # more neighbors than training rows: must fail
    store = run_experiment(cfg)
    assert len(store.records) == 1
    assert "error" in store.records[0]
    # summarize tolerates cells with zero successful runs
    assert summarize(store) == ""


def test_cli_validate_data(toy_csv):
    r = CliRunner().invoke(main, ["validate-data", toy_csv,
                                  "--label-column", "label"])
    assert r.exit_code == 0
    assert "n=90 p=4 classes=3" in r.output
    r = CliRunner().invoke(main, ["validate-data", "/nonexistent.csv"])
    assert r.exit_code == 1
    assert "error:" in r.output


def test_cli_run_and_summarize(toy_csv, tmp_path):
    out = str(tmp_path / "results")
    r = CliRunner().invoke(main, [
        "run", "--dataset", toy_csv, "--label-column", "label",
        "--method", "pca", "--method", "mt_teacher", "--k", "2",
        "--runs", "2", "--master-seed", "3", "--output-dir", out,
        "--population", "30", "--generations", "3", "--batch-size", "25",
    ])
    assert r.exit_code == 0, r.output
    assert "4 records" in r.output

    r = CliRunner().invoke(main, ["summarize", out])
    assert r.exit_code == 0
    assert "mt_teacher" in r.output

    r = CliRunner().invoke(main, [
        "export-expr", out, "--method", "mt_teacher", "--k", "2",
    ])
    assert r.exit_code == 0
    assert r.output.startswith("X~0 = ")

    r = CliRunner().invoke(main, [
        "export-expr", out, "--method", "pca", "--k", "2",
    ])
    assert r.exit_code == 1


def test_cli_run_requires_dataset_or_config():
    r = CliRunner().invoke(main, ["run"])
    assert r.exit_code != 0


def test_cli_config_file_with_overrides(toy_csv, tmp_path):
    y = tmp_path / "cfg.yaml"
    out = str(tmp_path / "res")
    y.write_text(
        f"dataset_path: {toy_csv}\nlabel_column: label\n"
        f"methods: [pca]\nk_list: [2]\nruns: 5\noutput_dir: {out}\n"
    )
    r = CliRunner().invoke(main, ["run", "--config", str(y), "--runs", "1"])
    assert r.exit_code == 0, r.output
    assert "1 records" in r.output
