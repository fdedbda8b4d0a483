"""Experiment orchestration: the (method x k x run) sweep, per-run record
files, summary tables with significance stars, and expression export.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .baselines import DrModel, isomap_fit, pca_fit
from .dataset import Dataset, load_csv, pca_target, split, standardize
from .evaluation import evaluate, mann_whitney_u, significance_stars
from .evolution import GpRunConfig, RunResult, evolve
from .fitness import HYPERBOLIC, FitnessSpec
from .neural import TrainConfig, latent as mlp_latent, train_autoencoder

RECORD_FORMAT = "gpdr-run-record"
RECORD_VERSION = 1

METHODS = (
    "pca",
    "isomap",
    "mt_dist_euclidean",
    "mt_dist_geodesic",
    "mt_rank_euclidean",
    "mt_rank_geodesic",
    "mt_teacher",
    "amt_gp",
)

_GP_OBJECTIVE = {
    "mt_dist_euclidean": ("dist", "euclidean"),
    "mt_dist_geodesic": ("dist", "geodesic"),
    "mt_rank_euclidean": ("rank", "euclidean"),
    "mt_rank_geodesic": ("rank", "geodesic"),
    "mt_teacher": ("teacher", None),
    "amt_gp": ("gp_autoencoder", None),
}


class ExperimentError(ValueError):
    pass


def _is_count(value, least: int) -> bool:
    return (isinstance(value, (int, np.integer))
            and not isinstance(value, bool) and value >= least)


@dataclass
class ExperimentConfig:
    dataset_path: str
    label_column: Optional[str] = None
    k_list: Sequence[int] = (2, 3)
    methods: Sequence[str] = METHODS
    runs: int = 30
    master_seed: int = 1
    output_dir: str = "results"
    dr_fraction: float = 0.5
    n_neighbors: int = 10
    population: int = 1000
    generations: int = 100
    batch_size: int = 100
    variance_fraction: float = 0.99
    teacher_epochs: int = 500
    decoder_epochs: int = 500
    workers: int = 1

    def __post_init__(self):
        if not self.methods:
            raise ExperimentError("methods must be nonempty")
        for m in self.methods:
            if m not in METHODS:
                raise ExperimentError(f"unknown method {m!r}")
        if not all(_is_count(k, 1) for k in self.k_list):
            raise ExperimentError(
                f"k must be integers >= 1, got {list(self.k_list)!r}")
        for name, least in (("runs", 1), ("batch_size", 1),
                            ("decoder_epochs", 1), ("teacher_epochs", 1),
                            ("generations", 1), ("population", 2),
                            ("n_neighbors", 1), ("workers", 1)):
            value = getattr(self, name)
            if not _is_count(value, least):
                raise ExperimentError(
                    f"{name} must be an integer >= {least}, got {value!r}")
        if (not isinstance(self.dr_fraction, (int, float))
                or not 0 < self.dr_fraction < 1):
            raise ExperimentError(
                f"dr_fraction must lie in (0, 1), got {self.dr_fraction!r}")

    def apply_desk_scale(self):
        """Reduced-budget preset for acceptance-style runs."""
        self.population = 200
        self.generations = 30
        self.runs = 10
        self.batch_size = 100

    @classmethod
    def from_yaml(cls, path) -> "ExperimentConfig":
        import yaml

        with open(path) as f:
            raw = yaml.safe_load(f) or {}
        unknown = sorted(set(raw) - {fld.name for fld in fields(cls)})
        if unknown:
            raise ExperimentError(
                f"{path}: unknown config keys: {', '.join(unknown)}"
            )
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

    plan = split(data, cfg.dr_fraction, seed)
    train_raw = Dataset(
        features=data.features[plan.dr_train_indices],
        labels=None if data.labels is None
        else data.labels[plan.dr_train_indices],
        feature_names=list(data.feature_names),
        class_count=data.class_count,
    )
    train_std, scaler = standardize(train_raw)
    target = pca_target(train_std, cfg.variance_fraction)

    held_X = scaler.transform(data.features[plan.dr_heldout_indices])
    held_target = target.project(held_X)
    held_labels = data.labels[plan.dr_heldout_indices]

    expressions: list[str] = []
    gp_result: Optional[RunResult] = None
    if method == "pca":
        model = DrModel(kind="pca", k=k, model=pca_fit(train_std.features, k))
    elif method == "isomap":
        model = DrModel(
            kind="isomap", k=k,
            model=isomap_fit(train_std.features, k, cfg.n_neighbors),
        )
    else:
        objective, metric = _GP_OBJECTIVE[method]
        teacher_latent = None
        if objective == "teacher":
            teacher = train_autoencoder(
                target.transformed, k,
                TrainConfig(epochs=cfg.teacher_epochs, seed=seed),
            )
            teacher_latent = mlp_latent(teacher, target.transformed)
        spec = FitnessSpec(
            objective=objective,
            inputs=train_std.features,
            target=target.transformed,
            metric=metric,
            teacher_latent=teacher_latent,
            weight_scheme=HYPERBOLIC,
            n_neighbors=cfg.n_neighbors,
        )
        gp_cfg = GpRunConfig(
            population=cfg.population,
            generations=cfg.generations,
            k=k,
            batch_size=cfg.batch_size,
            seed=seed,
            representation="autoencoder" if objective == "gp_autoencoder"
            else "multi_tree",
        )
        gp_result = evolve(spec, gp_cfg)
        expressions = gp_result.expressions
        kind = "gp_auto" if objective == "gp_autoencoder" else "gp"
        model = DrModel(kind=kind, k=k, genome=gp_result.best_genome)

    ev = evaluate(
        model, held_X, held_labels, held_target, seed=seed,
        decoder_cfg=TrainConfig(epochs=cfg.decoder_epochs, seed=seed),
    )

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
        "pca_components_retained": target.components_retained,
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


def read_record(path: Path) -> dict:
    with open(path) as f:
        header = json.loads(f.readline())
        if header.get("format") != RECORD_FORMAT:
            raise ExperimentError(f"{path}: not a run record")
        if header.get("version") != RECORD_VERSION:
            raise ExperimentError(
                f"{path}: record version {header.get('version')!r}, "
                f"expected {RECORD_VERSION}"
            )
        return json.loads(f.readline())


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


def summarize(store: ResultStore, alpha: float = 0.1) -> str:
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
                bold = "[best]" if (m == best or p >= alpha) else ""
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
