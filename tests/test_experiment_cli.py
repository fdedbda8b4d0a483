import json
import re
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from gpdr.cli import main
from gpdr import evolution, experiment
from gpdr.evaluation import EvaluationResult
from gpdr.evolution import RunResult
from gpdr.experiment import (
    METHODS,
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
from gpdr.gp_core import AutoencoderMultiTree, MultiTree, Tree, op, variable


SEGMENTATION = Path(__file__).resolve().parents[1] / "data" / "segmentation.csv"


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


def _tiny_config(toy_csv, out_dir, monkeypatch, methods=("pca",), runs=2):
    # the fixed settings, shortened: a 5-neighbour graph, 20 teacher
    # epochs, and batches of 25 of the 45 DR-train rows
    monkeypatch.setattr(experiment, "N_NEIGHBORS", 5)
    monkeypatch.setattr(experiment, "TEACHER_EPOCHS", 20)
    monkeypatch.setattr(evolution, "BATCH_SIZE", 25)
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
        decoder_epochs=10,
    )


def test_config_validation(toy_csv):
    with pytest.raises(ExperimentError):
        ExperimentConfig(dataset_path=toy_csv, methods=["nope"])
    with pytest.raises(ExperimentError):
        ExperimentConfig(dataset_path=toy_csv, runs=0)
    # the batch size is the constant evolution.BATCH_SIZE
    with pytest.raises(TypeError, match="batch_size"):
        ExperimentConfig(dataset_path=toy_csv, batch_size=100)
    bad = [("decoder_epochs", 0), ("decoder_epochs", 2.5),
           ("decoder_epochs", -1), ("generations", 0), ("generations", 2.0),
           ("population", 0), ("population", 1), ("population", 10.5),
           ("workers", 0), ("workers", True),
           ("dr_fraction", 0.0), ("dr_fraction", 1.0),
           ("dr_fraction", -0.5), ("dr_fraction", 1.5),
           ("dr_fraction", float("nan")), ("dr_fraction", "half"),
           ("runs", 1.5), ("k_list", [2.5]), ("k_list", [2, 0]),
           ("k_list", 2), ("k_list", "23"), ("k_list", []),
           ("methods", "pca"), ("methods", None), ("methods", []),
           ("master_seed", -1), ("master_seed", 1.5), ("master_seed", "1"),
           ("master_seed", True)]
    for name, value in bad:
        message = "k must" if value in ([2.5], [2, 0]) else name
        with pytest.raises(ExperimentError, match=message):
            ExperimentConfig(dataset_path=toy_csv, **{name: value})
    # the least accepted values
    ExperimentConfig(dataset_path=toy_csv, decoder_epochs=1,
                     generations=1, population=2, workers=1,
                     dr_fraction=0.01, master_seed=0)
    ExperimentConfig(dataset_path=toy_csv, population=np.int64(5),
                     dr_fraction=0.99, master_seed=np.int64(2**40))
    cfg = ExperimentConfig(dataset_path=toy_csv)
    cfg.apply_desk_scale()
    assert (cfg.population, cfg.generations, cfg.runs) == (200, 30, 10)


def test_config_rejects_repeated_methods_and_k(toy_csv):
    for name, value in (("methods", ["pca", "pca"]),
                        ("methods", ["pca", "isomap", "pca"]),
                        ("k_list", [2, 2]), ("k_list", [2, np.int64(2)])):
        with pytest.raises(ExperimentError, match=f"{name} has repeated"):
            ExperimentConfig(dataset_path=toy_csv, **{name: value})
    ExperimentConfig(dataset_path=toy_csv, methods=["pca", "isomap"],
                     k_list=[2, 3])


def test_cli_run_rejects_repeated_methods_before_any_record(toy_csv,
                                                            tmp_path):
    out = tmp_path / "results"
    r = CliRunner().invoke(main, [
        "run", "--dataset", toy_csv, "--label-column", "label",
        "--method", "pca", "--method", "pca", "--k", "2", "--k", "2",
        "--runs", "1", "--output-dir", str(out),
    ])
    assert r.exit_code == 1
    assert isinstance(r.exception, SystemExit)
    assert "error:" in r.output and "repeated entries" in r.output
    assert not out.exists() or not any(out.rglob("*.jsonl"))


def test_config_from_yaml(toy_csv, tmp_path):
    y = tmp_path / "cfg.yaml"
    y.write_text(
        f"dataset_path: {toy_csv}\nlabel_column: label\nruns: 4\n"
        "methods: [pca, mt_teacher]\nk_list: [2]\n"
    )
    cfg = ExperimentConfig.from_yaml(y)
    assert cfg.runs == 4
    assert list(cfg.methods) == ["pca", "mt_teacher"]


@pytest.mark.parametrize("value", ["yes", "no", "true", "1.5", "[label]"])
def test_config_rejects_a_label_column_that_is_no_name_or_index(
        toy_csv, tmp_path, value):
    """YAML reads `yes` as True, which once made column 1 the label; a
    label column is a name or a 0-based index."""
    y = tmp_path / "cfg.yaml"
    out = tmp_path / "results"
    y.write_text(f"dataset_path: {toy_csv}\nlabel_column: {value}\n"
                 f"runs: 1\nmethods: [pca]\nk_list: [2]\n"
                 f"output_dir: {out}\n")
    with pytest.raises(ExperimentError, match="label_column"):
        ExperimentConfig.from_yaml(y)
    r = CliRunner().invoke(main, ["run", "--config", str(y)])
    assert r.exit_code == 1
    assert isinstance(r.exception, SystemExit)
    assert "error:" in r.output and "label_column" in r.output
    assert not out.exists()
    # a name, or an index as YAML reads it, stays a label column
    for good in ("label", "4"):
        y.write_text(f"dataset_path: {toy_csv}\nlabel_column: {good}\n")
        assert ExperimentConfig.from_yaml(y).label_column in ("label", 4)


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
    for text in ("k_list: 2\n", "methods: pca\n"):
        y.write_text(f"dataset_path: {toy_csv}\n{text}")
        result = CliRunner().invoke(main, ["run", "--config", str(y)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "error:" in result.output and "nonempty list" in result.output
    for text in ("42\n", "hello\n", "[runs, 2]\n"):
        y.write_text(text)
        result = CliRunner().invoke(main, ["run", "--config", str(y)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "not a mapping" in result.output


def test_cli_desk_scale_keeps_the_budget_flags_given(toy_csv, tmp_path,
                                                     monkeypatch):
    seen = []

    def fake_run(cfg, progress):
        seen.append(cfg)
        return ResultStore(cfg.output_dir)

    monkeypatch.setattr("gpdr.cli.run_experiment", fake_run)
    y = tmp_path / "cfg.yaml"
    y.write_text(f"dataset_path: {toy_csv}\npopulation: 500\nruns: 7\n")
    base = ["run", "--dataset", toy_csv, "--output-dir", str(tmp_path / "r")]
    cases = [
        (base + ["--desk-scale"], (200, 30, 10)),
        (base + ["--desk-scale", "--runs", "2", "--population", "50",
                 "--generations", "4"], (50, 4, 2)),
        (base + ["--runs", "2"], (1000, 100, 2)),
        # the preset outranks the file's keys, as any flag does
        (["run", "--config", str(y), "--desk-scale", "--generations", "3"],
         (200, 3, 10)),
    ]
    for args, budget in cases:
        r = CliRunner().invoke(main, args)
        assert r.exit_code == 0, r.output
        cfg = seen.pop()
        assert (cfg.population, cfg.generations, cfg.runs) == budget, args


def test_cli_run_has_no_batch_size_option(toy_csv, tmp_path):
    out = tmp_path / "results"
    r = CliRunner().invoke(main, [
        "run", "--dataset", toy_csv, "--label-column", "label",
        "--method", "pca", "--k", "2", "--runs", "1",
        "--output-dir", str(out), "--batch-size", "100",
    ])
    assert r.exit_code == 2
    # click words it "No such option: --batch-size" or "No such option
    # '--batch-size'", by version
    assert re.search(r"No such option\W+--batch-size", r.output)
    assert not out.exists()
    help_text = CliRunner().invoke(main, ["run", "--help"]).output
    assert "--batch-size" not in help_text and "b=100" not in help_text


@pytest.mark.parametrize("key, value", [("decoder_epochs", "0"),
                                        ("population", "0"),
                                        ("n_neighbors", "0"),
                                        ("variance_fraction", "99"),
                                        ("teacher_epochs", "0"),
                                        ("decoder_epochs", "2.5"),
                                        ("master_seed", "-1")])
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


@pytest.mark.parametrize("key, value", [("n_neighbors", "10"),
                                        ("variance_fraction", "0.99"),
                                        ("teacher_epochs", "500"),
                                        ("batch_size", "100")])
def test_fixed_settings_are_unknown_config_keys(toy_csv, tmp_path, key,
                                                value):
    """The settings that became constants are rejected by name, even at
    the constant's own value."""
    y = tmp_path / "cfg.yaml"
    out = tmp_path / "results"
    y.write_text(f"dataset_path: {toy_csv}\nlabel_column: label\nruns: 1\n"
                 f"methods: [pca]\nk_list: [2]\noutput_dir: {out}\n"
                 f"{key}: {value}\n")
    with pytest.raises(ExperimentError,
                       match=f"unknown config keys: {key}$"):
        ExperimentConfig.from_yaml(y)
    r = CliRunner().invoke(main, ["run", "--config", str(y)])
    assert r.exit_code == 1
    assert isinstance(r.exception, SystemExit)
    assert f"error: {y}: unknown config keys: {key}\n" in r.output
    assert not out.exists()


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
    rec = {"method": "pca", "k": 2, "run": 0, "balanced_accuracy": 0.5,
           "reconstruction_error": 1.5, "expressions": []}
    path = tmp_path / "records" / "r.jsonl"
    write_record(path, rec)
    assert read_record(path) == rec
    with open(path) as f:
        header = json.loads(f.readline())
    assert header["format"] == "gpdr-run-record"
    bad = tmp_path / "records" / "bad.jsonl"
    for text in ('{"format": "other"}\n{}\n',
                 '{"format": "gpdr-run-record", "version": 99}\n{}\n',
                 'not json\n{}\n', '', '[1]\n{}\n',
                 '{"format": "gpdr-run-record", "version": 1}\n{"k": \n'):
        bad.write_text(text)
        with pytest.raises(ExperimentError, match=re.escape(str(bad))):
            read_record(bad)


V1 = '{"format": "gpdr-run-record", "version": 1}\n'


@pytest.mark.parametrize("text, message", [
    ('{"format": "gpdr-run-record", "version": 2}\n{}\n',
     "record version 2, expected 1"),
    ("not json\n", "not JSON"),
    (V1 + "{}\n", "record lacks method, k, run, balanced_accuracy, "
                  "reconstruction_error, expressions"),
    (V1 + "[1]\n", "record body is not a JSON object"),
    (V1 + '{"method": "pca", "k": 2, "run": 0, "balanced_accuracy": 0.5}\n',
     "record lacks reconstruction_error, expressions"),
    # the keys are there, but summarize cannot sort or average by them
    (V1 + '{"method": "nope", "k": 2, "run": 0, "balanced_accuracy": 0.5, '
          '"reconstruction_error": 1.5, "expressions": []}\n',
     "record has unusable method='nope'"),
    (V1 + '{"method": "pca", "k": 2, "run": 0, "balanced_accuracy": null, '
          '"reconstruction_error": 1.5, "expressions": []}\n',
     "record has unusable balanced_accuracy=None"),
    (V1 + '{"method": "pca", "k": true, "run": "0", "error": "boom"}\n',
     "record has unusable k=True, run='0'"),
], ids=["version_2", "not_json", "empty_body", "list_body", "no_results",
        "unknown_method", "null_metric", "bad_counts"])
def test_cli_readers_report_an_unreadable_record(tmp_path, text, message):
    path = tmp_path / "records" / "pca_k2_run000.jsonl"
    path.parent.mkdir()
    path.write_text(text)
    for args in (["summarize", str(tmp_path)],
                 ["export-expr", str(tmp_path), "--method", "pca",
                  "--k", "2"]):
        r = CliRunner().invoke(main, args)
        # a clean exit 1 with a message, not a traceback
        assert r.exit_code == 1, args
        assert isinstance(r.exception, SystemExit)
        assert f"error: {path}: {message}" in r.output


@pytest.mark.parametrize("method", METHODS)
def test_run_single_produces_complete_record(toy_csv, tmp_path, method,
                                             monkeypatch):
    data = load_csv(toy_csv, label_column="label")
    cfg = _tiny_config(toy_csv, tmp_path, monkeypatch)
    rec = run_single(data, method, 2, 0, cfg)
    assert rec["method"] == method and rec["k"] == 2
    assert 0.0 <= rec["balanced_accuracy"] <= 1.0
    assert rec["reconstruction_error"] >= 0.0
    assert len(rec["fold_accuracies"]) == len(rec["fold_errors"]) == 10
    if method in ("pca", "isomap"):
        assert rec["expressions"] == [] and rec["fitness_history"] == []
        assert rec["train_fitness"] is None
    else:
        lines = [line.split(" = ", 1)[0] for line in rec["expressions"]]
        want = ["X~0", "X~1"]
        if method == "amt_gp":
            want += [f"Xrec~{j}"
                     for j in range(rec["pca_components_retained"])]
        assert lines == want
        assert len(rec["fitness_history"]) == cfg.generations
        assert rec["train_fitness"] is not None
    assert "mean" in rec["standardizer"]
    json.dumps(rec)  # records must be JSON-serializable


def test_run_single_embeds_heldout_rows_with_the_encoder(
        toy_csv, tmp_path, monkeypatch):
    """A multi-tree embeds the held-out rows itself; an autoencoder embeds
    them with its encoder only, never its reconstruction."""
    data = load_csv(toy_csv, label_column="label")
    cfg = _tiny_config(toy_csv, tmp_path, monkeypatch)
    enc = MultiTree((Tree(variable(0), 4), Tree(variable(2), 4)))
    dec = MultiTree((Tree(op("*", variable(0), variable(1)), 2),))
    real_outputs = experiment.genome_outputs
    seen = {}

    def outputs_spy(genomes, rows):
        seen["genomes"], seen["rows"] = genomes, rows
        return real_outputs(genomes, rows)

    def evaluate_spy(latent, *args, **kwargs):
        seen["latent"] = latent
        return EvaluationResult(0.5, 1.0, [0.5], [1.0])

    monkeypatch.setattr(experiment, "genome_outputs", outputs_spy)
    monkeypatch.setattr(experiment, "evaluate", evaluate_spy)
    for method, genome in (("mt_dist_euclidean", enc),
                           ("amt_gp", AutoencoderMultiTree(enc, dec))):
        monkeypatch.setattr(
            experiment, "evolve",
            lambda spec, gp_cfg: RunResult(genome, 0.0, [0.0], []))
        seen.clear()
        run_single(data, method, 2, 0, cfg)
        [genome] = seen["genomes"]
        assert genome is enc
        assert seen["rows"].shape == (45, 4)  # the held-out half
        assert np.array_equal(seen["latent"], seen["rows"][:, [0, 2]])


def test_run_experiment_resumes(toy_csv, tmp_path, monkeypatch):
    cfg = _tiny_config(toy_csv, tmp_path / "out", monkeypatch,
                       methods=("pca", "mt_teacher"))
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


def test_store_cell_and_missing(toy_csv, tmp_path, monkeypatch):
    cfg = _tiny_config(toy_csv, tmp_path / "out", monkeypatch)
    store = run_experiment(cfg)
    cell = store.cell("pca", 2)
    assert [r["run"] for r in cell] == [0, 1]
    with pytest.raises(ExperimentError):
        store.cell("isomap", 2)


def test_summarize_and_export(toy_csv, tmp_path, monkeypatch):
    cfg = _tiny_config(toy_csv, tmp_path / "out", monkeypatch,
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


def test_failed_runs_are_recorded_not_raised(toy_csv, tmp_path,
                                            monkeypatch):
    cfg = _tiny_config(toy_csv, tmp_path / "out", monkeypatch,
                       methods=("isomap",), runs=1)
    # more neighbors than training rows: must fail
    monkeypatch.setattr(experiment, "N_NEIGHBORS", 200)
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


def test_cli_validate_data_takes_a_label_column_index():
    csv = str(SEGMENTATION)
    by_name = CliRunner().invoke(main, ["validate-data", csv,
                                        "--label-column", "target"])
    by_index = CliRunner().invoke(main, ["validate-data", csv,
                                         "--label-column", "19"])
    assert by_index.exit_code == 0, by_index.output
    assert "classes=7" in by_index.output
    assert by_index.output == by_name.output


def test_cli_run_and_summarize(toy_csv, tmp_path, monkeypatch):
    monkeypatch.setattr(evolution, "BATCH_SIZE", 25)
    out = str(tmp_path / "results")
    r = CliRunner().invoke(main, [
        "run", "--dataset", toy_csv, "--label-column", "label",
        "--method", "pca", "--method", "mt_teacher", "--k", "2",
        "--runs", "2", "--master-seed", "3", "--output-dir", out,
        "--population", "30", "--generations", "3",
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


@pytest.mark.parametrize("text", ["", "runs: 1\n"],
                         ids=["empty", "no_dataset"])
def test_cli_config_without_dataset_path(toy_csv, tmp_path, text):
    y = tmp_path / "cfg.yaml"
    out = tmp_path / "res"
    y.write_text(text)
    r = CliRunner().invoke(main, ["run", "--config", str(y),
                                  "--output-dir", str(out)])
    # a clean exit 1 with a message, not an uncaught TypeError
    assert r.exit_code == 1
    assert isinstance(r.exception, SystemExit)
    assert "error:" in r.output and "dataset_path" in r.output
    assert not out.exists()
    # --dataset supplies the missing key, as any flag overrides the file
    r = CliRunner().invoke(main, [
        "run", "--config", str(y), "--dataset", toy_csv,
        "--label-column", "label", "--method", "pca", "--k", "2",
        "--runs", "1", "--output-dir", str(out)])
    assert r.exit_code == 0, r.output
    assert "1 records" in r.output


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
