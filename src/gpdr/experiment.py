"""Experiment orchestration: the (method x k x run) sweep, per-run record
files, summary tables with significance stars, and expression export.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .baselines import isomap_fit, pca_fit, pca_target
from .dataset import Dataset, load_csv, split, standardize
from .evaluation import evaluate, mann_whitney_u, significance_stars
from .evolution import GpRunConfig, RunResult, evolve
from .fitness import FitnessSpec
from .gp_core import genome_outputs
from .neural import latent as mlp_latent, train_autoencoder

RECORD_FORMAT = "gpdr-run-record"
RECORD_VERSION = 1

_GP_OBJECTIVE = {
    "mt_dist_euclidean": ("dist", "euclidean"),
    "mt_dist_geodesic": ("dist", "geodesic"),
    "mt_rank_euclidean": ("rank", "euclidean"),
    "mt_rank_geodesic": ("rank", "geodesic"),
    "mt_teacher": ("teacher", None),
    "amt_gp": ("gp_autoencoder", None),
}

# derive_seed reads a method's position here: reordering re-seeds every run
METHODS = ("pca", "isomap") + tuple(_GP_OBJECTIVE)


# the fixed settings of every cell-run: the neighbours of each point in the
# kNN graph (isomap and the geodesic targets), the share of the variance the
# PCA target space keeps, and the training epochs of the teacher autoencoder
N_NEIGHBORS = 10
VARIANCE_FRACTION = 0.99
TEACHER_EPOCHS = 500

# the reduced budget of acceptance-style runs (``gpdr run --desk-scale``)
DESK_SCALE = {"population": 200, "generations": 30, "runs": 10}


class ExperimentError(ValueError):
    pass


def _is_count(value, least: int) -> bool:
    return (isinstance(value, (int, np.integer))
            and not isinstance(value, bool) and value >= least)


@dataclass
class ExperimentConfig:
    dataset_path: str
    label_column: Union[str, int, None] = None  # a name or a 0-based index
    k_list: Sequence[int] = (2, 3)
    methods: Sequence[str] = METHODS
    runs: int = 30
    master_seed: int = 1
    output_dir: str = "results"
    dr_fraction: float = 0.5
    population: int = 1000
    generations: int = 100
    decoder_epochs: int = 500
    workers: int = 1

    def __post_init__(self):
        for name in ("methods", "k_list"):
            value = getattr(self, name)
            # a bare string or number is a config slip, not a list of one
            if not isinstance(value, (list, tuple)) or not value:
                raise ExperimentError(
                    f"{name} must be a nonempty list, got {value!r}")
        for m in self.methods:
            if m not in METHODS:
                raise ExperimentError(f"unknown method {m!r}")
        if not all(_is_count(k, 1) for k in self.k_list):
            raise ExperimentError(
                f"k must be integers >= 1, got {list(self.k_list)!r}")
        for name in ("methods", "k_list"):
            value = list(getattr(self, name))
            # each (method, k, run) job writes one record file
            if len(set(value)) != len(value):
                raise ExperimentError(
                    f"{name} has repeated entries: {value!r}")
        for name, least in (("runs", 1), ("master_seed", 0),
                            ("decoder_epochs", 1), ("generations", 1),
                            ("population", 2), ("workers", 1)):
            value = getattr(self, name)
            if not _is_count(value, least):
                raise ExperimentError(
                    f"{name} must be an integer >= {least}, got {value!r}")
        # YAML reads `label_column: yes` as True, which names no column
        if type(self.label_column) not in (str, int, type(None)):
            raise ExperimentError("label_column must be a column name or a "
                                  f"0-based index, got {self.label_column!r}")
        if (not isinstance(self.dr_fraction, (int, float))
                or not 0 < self.dr_fraction < 1):
            raise ExperimentError(
                f"dr_fraction must lie in (0, 1), got {self.dr_fraction!r}")

    def apply_desk_scale(self):
        """Reduced-budget preset for acceptance-style runs."""
        for name, value in DESK_SCALE.items():
            setattr(self, name, value)

    @classmethod
    def from_yaml(cls, path, **overrides) -> "ExperimentConfig":
        """The config of a YAML file, with each ``overrides`` value that is
        not None in place of the file's key."""
        import yaml

        try:
            with open(path) as f:
                raw = yaml.safe_load(f) or {}
        except (yaml.YAMLError, UnicodeDecodeError) as e:
            raise ExperimentError(f"{path}: not a YAML config: {e}") from e
        if not isinstance(raw, dict):
            raise ExperimentError(f"{path}: not a mapping of config keys")
        unknown = sorted(set(raw) - {fld.name for fld in fields(cls)})
        if unknown:
            raise ExperimentError(
                f"{path}: unknown config keys: {', '.join(unknown)}"
            )
        raw.update((k, v) for k, v in overrides.items() if v is not None)
        if raw.get("dataset_path") is None:
            raise ExperimentError(f"{path}: no dataset_path given")
        return cls(**raw)


def derive_seed(master_seed: int, method: str, k: int, run: int) -> int:
    ss = np.random.SeedSequence(
        [master_seed, METHODS.index(method), k, run]
    )
    return int(ss.generate_state(1, dtype=np.uint64)[0] % (2**62))


def _record_path(out_dir: Path, method: str, k: int, run: int) -> Path:
    return out_dir / "records" / f"{method}_k{k}_run{run:03d}.jsonl"


def run_single(
    data: Dataset, method: str, k: int, run: int, cfg: ExperimentConfig
) -> dict:
    """One cell-run of the sweep: split, standardize, PCA target, fit the
    DR model, evaluate on the held-out split."""
    seed = derive_seed(cfg.master_seed, method, k, run)
    t0 = time.perf_counter()

    train, held = split(data.labels, cfg.dr_fraction, seed)
    train_X, scaler = standardize(data.features[train])
    target = pca_target(train_X, VARIANCE_FRACTION)
    train_target = target.transform(train_X)

    held_X = scaler.transform(data.features[held])
    held_target = target.transform(held_X)
    held_labels = data.labels[held]

    expressions: list[str] = []
    gp_result: Optional[RunResult] = None
    if method == "pca":
        latent = pca_fit(train_X, k).transform(held_X)
    elif method == "isomap":
        latent = isomap_fit(train_X, k, N_NEIGHBORS).transform(held_X)
    else:
        objective, metric = _GP_OBJECTIVE[method]
        teacher_latent = None
        if objective == "teacher":
            teacher = train_autoencoder(train_target, k, TEACHER_EPOCHS, seed)
            teacher_latent = mlp_latent(teacher, train_target)
        spec = FitnessSpec(
            objective=objective,
            inputs=train_X,
            target=train_target,
            metric=metric,
            teacher_latent=teacher_latent,
            n_neighbors=N_NEIGHBORS,
        )
        gp_cfg = GpRunConfig(population=cfg.population,
                             generations=cfg.generations, k=k, seed=seed)
        gp_result = evolve(spec, gp_cfg)
        expressions = gp_result.expressions
        genome = gp_result.best_genome
        # the autoencoder's latent is its encoder's output
        if objective == "gp_autoencoder":
            genome = genome.encoder
        (latent,) = genome_outputs([genome], held_X)

    ev = evaluate(latent, held_labels, held_target, seed=seed,
                  decoder_epochs=cfg.decoder_epochs)

    return {
        "method": method,
        "k": k,
        "run": run,
        "seed": seed,
        "balanced_accuracy": ev.balanced_accuracy,
        "reconstruction_error": ev.reconstruction_error,
        "fold_accuracies": ev.fold_accuracies,
        "fold_errors": ev.fold_errors,
        "expressions": expressions,
        "train_fitness": None if gp_result is None else gp_result.best_fitness,
        "fitness_history": [] if gp_result is None else gp_result.history,
        "standardizer": scaler.to_dict(),
        "pca_components_retained": target.k,
        "wall_time": time.perf_counter() - t0,
    }


def write_record(path: Path, record: dict):
    path.parent.mkdir(parents=True, exist_ok=True)
    header = {"format": RECORD_FORMAT, "version": RECORD_VERSION}
    tmp = path.with_suffix(".tmp")
    with open(tmp, "w") as f:
        f.write(json.dumps(header) + "\n")
        f.write(json.dumps(record, sort_keys=True) + "\n")
    tmp.replace(path)


_RESULT_KEYS = ("balanced_accuracy", "reconstruction_error", "expressions")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def read_record(path: Path) -> dict:
    with open(path) as f:
        try:
            header = json.loads(f.readline())
            if (not isinstance(header, dict)
                    or header.get("format") != RECORD_FORMAT):
                raise ExperimentError(f"{path}: not a run record")
            if header.get("version") != RECORD_VERSION:
                raise ExperimentError(
                    f"{path}: record version {header.get('version')!r}, "
                    f"expected {RECORD_VERSION}"
                )
            record = json.loads(f.readline())
        except json.JSONDecodeError as e:
            raise ExperimentError(f"{path}: not JSON: {e}") from e
        except UnicodeDecodeError as e:
            raise ExperimentError(f"{path}: not text: {e}") from e
    if not isinstance(record, dict):
        raise ExperimentError(f"{path}: record body is not a JSON object")
    # the keys the readers index; a failed run's record holds its error
    # instead of its results
    outcome = ("error",) if "error" in record else _RESULT_KEYS
    missing = [key for key in ("method", "k", "run") + outcome
               if key not in record]
    if missing:
        raise ExperimentError(f"{path}: record lacks {', '.join(missing)}")
    # and the values they sort, group and average by
    checks = {"method": record["method"] in METHODS,
              "k": _is_count(record["k"], 1),
              "run": _is_count(record["run"], 0)}
    if "error" not in record:
        for key in METRICS:
            checks[key] = _is_number(record[key])
    unusable = [f"{key}={record[key]!r}" for key, ok in checks.items()
                if not ok]
    if unusable:
        raise ExperimentError(f"{path}: record has unusable "
                              f"{', '.join(unusable)}")
    return record


@dataclass
class ResultStore:
    directory: Path
    records: list[dict] = field(default_factory=list)

    @classmethod
    def load(cls, directory) -> "ResultStore":
        directory = Path(directory)
        records = []
        rec_dir = directory / "records"
        if rec_dir.is_dir():
            for p in sorted(rec_dir.glob("*.jsonl")):
                records.append(read_record(p))
        return cls(directory=directory, records=records)

    def cell(self, method: str, k: int) -> list[dict]:
        out = [r for r in self.records if r["method"] == method and r["k"] == k]
        if not out:
            raise ExperimentError(f"no records for method={method}, k={k}")
        return sorted(out, key=lambda r: r["run"])


def run_experiment(cfg: ExperimentConfig, progress=None) -> ResultStore:
    """Execute the sweep. Existing record files are skipped, so an
    interrupted sweep resumes to the identical final store."""
    data = load_csv(cfg.dataset_path, label_column=cfg.label_column)
    if data.labels is None:
        raise ExperimentError("experiment requires a labeled dataset")
    out_dir = Path(cfg.output_dir)
    jobs = [
        (method, k, run)
        for method in cfg.methods
        for k in cfg.k_list
        for run in range(cfg.runs)
        if not _record_path(out_dir, method, k, run).exists()
    ]

    args = [(data, method, k, run, cfg, out_dir) for method, k, run in jobs]
    if cfg.workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            for i, _ in enumerate(pool.map(_job_worker, args)):
                if progress:
                    progress(i + 1, len(jobs))
    else:
        for i, a in enumerate(args):
            _job_worker(a)
            if progress:
                progress(i + 1, len(jobs))
    return ResultStore.load(out_dir)


def _job_worker(packed):
    """One sweep job; failures are recorded, never raised, so a bad run
    cannot take the sweep down."""
    data, method, k, run, cfg, out_dir = packed
    try:
        rec = run_single(data, method, k, run, cfg)
    except Exception as e:
        rec = {
            "method": method, "k": k, "run": run,
            "seed": derive_seed(cfg.master_seed, method, k, run),
            "error": f"{type(e).__name__}: {e}",
        }
    write_record(_record_path(out_dir, method, k, run), rec)
    return rec


METRICS = {
    "balanced_accuracy": "maximize",
    "reconstruction_error": "minimize",
}
# a method whose U-test p-value against the best is at least this is
# marked [best] too: not significantly different
TIE_ALPHA = 0.1


def summarize(store: ResultStore) -> str:
    """Per metric and k: mean +/- std per method, significance stars from
    the U test against the best method, bold markers on the best and on
    methods not significantly different from it."""
    methods = sorted(
        {r["method"] for r in store.records},
        key=lambda m: METHODS.index(m),
    )
    ks = sorted({r["k"] for r in store.records})
    lines = []
    for metric, sense in METRICS.items():
        for k in ks:
            samples = {}
            skipped = {}
            for m in methods:
                cell = [r for r in store.records
                        if r["method"] == m and r["k"] == k]
                vals = [r[metric] for r in cell if "error" not in r]
                failed = len(cell) - len(vals)
                if vals:
                    samples[m] = np.array(vals)
                    if failed:
                        skipped[m] = failed
            if not samples:
                continue
            means = {m: v.mean() for m, v in samples.items()}
            stds = {m: v.std(ddof=1) if v.size > 1 else 0.0
                    for m, v in samples.items()}
            better = max if sense == "maximize" else min
            best_mean = better(means.values())
            tied = [m for m in samples if means[m] == best_mean]
            best = min(tied, key=lambda m: stds[m])
            lines.append(f"== {metric} ({sense}), k={k} ==")
            for m in methods:
                if m not in samples:
                    continue
                if m == best:
                    p = 1.0
                elif min(samples[best].size, samples[m].size) < 3:
                    p = float("nan")  # too few runs for the U test
                else:
                    _, p = mann_whitney_u(samples[best], samples[m])
                stars = "" if m == best else significance_stars(p)
                bold = "[best]" if (m == best or p >= TIE_ALPHA) else ""
                note = f" ({skipped[m]} failed runs excluded)" if m in skipped else ""
                lines.append(
                    f"  {m:<20} {means[m]:.2f} +/- {stds[m]:.2f} "
                    f"{stars:<3} {bold}{note}"
                )
            lines.append("")
    return "\n".join(lines)


def export_expressions(
    store: ResultStore, method: str, k: int,
    criterion: str = "best_reconstruction",
) -> str:
    """The selected run's latent-dimension expressions, one per line."""
    cell = [r for r in store.cell(method, k) if "error" not in r]
    if not cell:
        raise ExperimentError(f"no successful runs for {method}, k={k}")
    if criterion == "best_reconstruction":
        rec = min(cell, key=lambda r: r["reconstruction_error"])
    elif criterion == "best_accuracy":
        rec = max(cell, key=lambda r: r["balanced_accuracy"])
    else:
        raise ExperimentError(f"unknown criterion {criterion!r}")
    if not rec["expressions"]:
        raise ExperimentError(f"method {method} has no expression form")
    return "\n".join(rec["expressions"])
