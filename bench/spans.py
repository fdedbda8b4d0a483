"""Span tracing of one cell-run, from outside the program.

The tracer replaces public gpdr functions at the call sites where the
calling module looks them up (``gpdr.evolution.score``,
``gpdr.evaluation.rf_fit``, ...) with wrappers that record a span and
counts, and puts the originals back on exit. Nothing under ``src/``
changes. A name that no longer exists (a later refactor deleted or moved
it) is reported as untraced instead of failing the benchmark, and the
tracer never reads private program state.

Spans are kept in memory, one ``Span`` per call, and written out by the
caller when the run ends. A span's self time is its duration minus the
durations of its direct children; the root span of a cell-run is
``experiment``, opened by the benchmark around ``run_experiment``, so the
self times of all spans of a cell add up to the cell's traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter

import numpy as np

ROOT = "experiment"
# benchmark bookkeeping done inside a cell (counting, tie scans)
BOOKKEEPING = "trace.bookkeeping"


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    cell: int

    @property
    def duration(self) -> float:
        return self.end - self.start


# -- counters: (function, counts of the cell, args, kwargs, result) -> None


def _bound(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _count_rf_fit(fn, counts, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    counts["forest.rf_fit_rows"] += len(a["X"]) * a["trees"]


def _count_decoder(fn, counts, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    rows = len(a["latent_data"])
    cfg = a["cfg"]
    counts["neural.sgd_steps"] += cfg.epochs * math.ceil(rows / cfg.batch_size)


def _count_score(fn, counts, args, kwargs, result):
    import gpdr.fitness

    if result == getattr(gpdr.fitness, "WORST_FITNESS", math.inf):
        counts["fitness.worst_scores"] += 1


def _trees(genome) -> list:
    if hasattr(genome, "encoder"):
        return list(genome.encoder.trees) + list(genome.decoder.trees)
    return list(genome.trees)


def _count_nodes(fn, counts, args, kwargs, result):
    from gpdr.gp_core import node_count

    genome, X = args[0], args[1]
    nodes = sum(node_count(t) for t in _trees(genome))
    counts["gp_core.nodes_evaluated"] += nodes * len(X)


def _count_latents(fn, counts, args, kwargs, result):
    counts["fitness.rank_latents"] += len(_bound(fn, args, kwargs)["latents"])


def _count_offspring(fn, counts, args, kwargs, result):
    counts["variation.offspring"] += len(result)


def tie_pairs(D: np.ndarray) -> int:
    """Tied adjacent pairs in the sorted off-diagonal rows of a distance
    matrix: the pairs a rank kernel must treat as ties on the target side."""
    n = D.shape[0]
    R = D[~np.eye(n, dtype=bool)].reshape(n, n - 1)
    R = np.sort(R, axis=1)
    return int(np.count_nonzero(R[:, 1:] == R[:, :-1]))


def _count_ties(fn, counts, args, kwargs, result):
    counts["distances.target_tie_groups"] += tie_pairs(np.asarray(result))


# (module, attribute looked up there, span name, counter)
CALL_SITES = (
    ("gpdr.experiment", "load_csv", "dataset.load_csv", None),
    ("gpdr.experiment", "split", "dataset.prepare", None),
    ("gpdr.experiment", "standardize", "dataset.prepare", None),
    ("gpdr.experiment", "pca_target", "dataset.prepare", None),
    ("gpdr.experiment", "evolve", "evolution.evolve", None),
    ("gpdr.experiment", "evaluate", "evaluation.evaluate", None),
    ("gpdr.evolution", "ramped_half_and_half", "gp_core.init", None),
    ("gpdr.evolution", "ramped_autoencoders", "gp_core.init", None),
    ("gpdr.evolution", "prepare_batch", "fitness.prepare_batch", None),
    ("gpdr.evolution", "score", "fitness.score", _count_score),
    ("gpdr.evolution", "next_generation", "variation.next_generation",
     _count_offspring),
    ("gpdr.evolution", "encode", "gp_core.encode", _count_nodes),
    ("gpdr.evolution", "autoencode", "gp_core.encode", _count_nodes),
    ("gpdr.evolution", "rank_fitness_many", "fitness.rank_full",
     _count_latents),
    ("gpdr.evolution", "sammon_stress", "fitness.sammon_full", None),
    ("gpdr.evolution", "gp_autoencoder_fitness", "fitness.recon_full", None),
    ("gpdr.evolution", "pairwise_euclidean", "distances.pairwise_euclidean",
     None),
    ("gpdr.fitness", "encode", "gp_core.encode", _count_nodes),
    ("gpdr.fitness", "autoencode", "gp_core.encode", _count_nodes),
    ("gpdr.fitness", "pairwise_euclidean", "distances.pairwise_euclidean",
     None),
    ("gpdr.fitness", "geodesic", "distances.geodesic", _count_ties),
    ("gpdr.baselines", "DrModel.transform", "evaluation.transform", None),
    ("gpdr.baselines", "encode", "gp_core.encode", _count_nodes),
    ("gpdr.evaluation", "rf_fit", "forest.rf_fit", _count_rf_fit),
    ("gpdr.evaluation", "rf_predict", "forest.rf_predict", None),
    ("gpdr.evaluation", "train_decoder", "neural.train_decoder",
     _count_decoder),
)

# objective kernels scored once per distinct full-split output
FULL_SPLIT_KERNELS = ("fitness.sammon_full", "fitness.recon_full")


def _resolve(module: str, attr: str):
    """(owner, name, function) for a call site, or None when it is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    fn = vars(owner).get(name) if owner is not None else None
    return (owner, name, fn) if callable(fn) else None


class Tracer:
    """Context manager: wraps the call sites on entry, restores them on
    exit. Spans and counts accumulate across every cell-run traced."""

    def __init__(self, call_sites=CALL_SITES):
        self.call_sites = call_sites
        self.spans: list = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.untraced: list[str] = []
        self.cell = -1
        self._stack: list[int] = []
        self._saved: list = []

    def __enter__(self):
        self.untraced = []
        for module, attr, name, counter in self.call_sites:
            site = _resolve(module, attr)
            if site is None:
                self.untraced.append(f"{module}.{attr}")
                continue
            owner, key, original = site
            self._saved.append((owner, key, original))
            setattr(owner, key, self._wrap(original, name, counter))
        return self

    def __exit__(self, *exc):
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved = []
        return False

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, perf_counter(), math.nan, parent,
                               self.cell))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int):
        self._stack.pop()
        s = self.spans[index]
        self.spans[index] = Span(s.name, s.start, perf_counter(), s.parent,
                                 s.cell)

    def _wrap(self, fn, name, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            tracer.counts[tracer.cell][name + ".calls"] += 1
            if counter is not None:
                book = tracer.open(BOOKKEEPING)
                try:
                    counter(fn, tracer.counts[tracer.cell], args, kwargs,
                            result)
                except Exception:  # a changed signature must not fail the run
                    label = f"{name} counts"
                    if label not in tracer.untraced:
                        tracer.untraced.append(label)
                finally:
                    tracer.close(book)
            return result

        return traced


def self_times(spans: list) -> list[float]:
    """Per span: duration minus the durations of its direct children."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.duration
    return own


def cell_layers(spans: list, counts: Counter) -> dict[str, float]:
    """Per-layer metrics of one traced cell-run from its spans and counts.

    ``spans`` must hold exactly the spans of that cell, with parent
    indices relative to this list.
    """
    self_total = Counter(self_time_table(spans))
    total = Counter()
    for s in spans:
        # outermost span of each name only, so recursion is not counted twice
        p = s.parent
        while p >= 0 and spans[p].name != s.name:
            p = spans[p].parent
        if p < 0:
            total[s.name] += s.duration
    calls = lambda name: counts[name + ".calls"]

    evolves = [i for i, s in enumerate(spans) if s.name == "evolution.evolve"]
    rescore = 0.0
    candidates = 0
    distinct = counts["fitness.rank_latents"]
    for e in evolves:
        kids = [s for s in spans if s.parent == e]
        gens = [s.end for s in kids if s.name == "variation.next_generation"]
        rescore += spans[e].end - (max(gens) if gens else spans[e].start)
        candidates += sum(1 for s in kids if s.name == "gp_core.encode")
        distinct += sum(1 for s in kids if s.name in FULL_SPLIT_KERNELS)

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "forest.rf_fit_s": total["forest.rf_fit"],
        "forest.rf_predict_s": total["forest.rf_predict"],
        "forest.rf_fit_calls": calls("forest.rf_fit"),
        "forest.rf_fit_rows": counts["forest.rf_fit_rows"],
        "neural.train_decoder_s": total["neural.train_decoder"],
        "neural.decoders": calls("neural.train_decoder"),
        "neural.sgd_steps": counts["neural.sgd_steps"],
        "fitness.score_s": total["fitness.score"],
        "fitness.score_self_s": self_total["fitness.score"],
        "fitness.score_calls": calls("fitness.score"),
        "fitness.worst_share": ratio(counts["fitness.worst_scores"],
                                     calls("fitness.score")),
        "gp_core.encode_s": total["gp_core.encode"],
        "gp_core.encode_calls": calls("gp_core.encode"),
        "gp_core.nodes_evaluated": counts["gp_core.nodes_evaluated"],
        "gp_core.init_s": total["gp_core.init"],
        "variation.next_generation_s": total["variation.next_generation"],
        "variation.offspring": counts["variation.offspring"],
        "fitness.prepare_batch_s": total["fitness.prepare_batch"],
        "fitness.rank_full_s": total["fitness.rank_full"],
        "fitness.rank_latents": counts["fitness.rank_latents"],
        "fitness.rank_s_per_latent": ratio(total["fitness.rank_full"],
                                           counts["fitness.rank_latents"]),
        "fitness.sammon_full_s": total["fitness.sammon_full"],
        "distances.target_tie_groups": counts["distances.target_tie_groups"],
        "distances.geodesic_s": total["distances.geodesic"],
        "distances.pairwise_euclidean_s":
            total["distances.pairwise_euclidean"],
        "distances.pairwise_euclidean_calls":
            calls("distances.pairwise_euclidean"),
        "evolution.evolve_s": total["evolution.evolve"],
        "evolution.evolve_self_s": self_total["evolution.evolve"],
        "evolution.rescore_s": rescore,
        "evolution.candidates": candidates,
        "evolution.distinct_ratio": ratio(distinct, candidates),
        "evaluation.evaluate_s": total["evaluation.evaluate"],
        "evaluation.evaluate_self_s": self_total["evaluation.evaluate"],
        "evaluation.transform_s": total["evaluation.transform"],
        "dataset.load_csv_s": total["dataset.load_csv"],
        "dataset.prepare_s": total["dataset.prepare"],
        "experiment.self_s": self_total[ROOT],
        "trace.bookkeeping_s": self_total[BOOKKEEPING],
    }


def self_time_table(spans: list) -> dict[str, float]:
    """Total self time per span name; sums to the root spans' duration."""
    out = Counter()
    for s, t in zip(spans, self_times(spans)):
        out[s.name] += t
    return dict(out)


def split_cells(spans: list) -> dict[int, list]:
    """Spans grouped by cell, parent indices rebased to each group."""
    groups: dict[int, list] = defaultdict(list)
    local: dict[int, int] = {}
    for i, s in enumerate(spans):
        g = groups[s.cell]
        local[i] = len(g)
        parent = local[s.parent] if s.parent >= 0 else -1
        g.append(Span(s.name, s.start, s.end, parent, s.cell))
    return dict(groups)
