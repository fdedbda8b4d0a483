"""The generational loop: sample a mini-batch, score the population,
produce the next generation, and keep an archive of batch-best genomes for
the final full-split re-scoring.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np

from .dataset import BatchSampler
from .fitness import (
    BatchContext,
    FitnessSpec,
    check_form,
    linear_scaling,
    score_output,
)
from .gp_core import (
    AutoencoderMultiTree,
    export_lines,
    genome_outputs,
    ramped_autoencoders,
    ramped_half_and_half,
)
from .variation import next_generation

log = logging.getLogger(__name__)

# the rows of each generation's mini-batch; the whole split when it is
# smaller
BATCH_SIZE = 100


def _full_split_fitness(candidates, spec: FitnessSpec) -> list[float]:
    """Fitness of every candidate on the whole DR-train split.

    The objectives depend on the genome only through its output on the
    split, so candidates with identical outputs (converged populations are
    full of them) are scored once. This matters most for the rank
    objective, whose full-split evaluation is O(n^2 log n) per distinct
    output.
    """
    t0 = time.perf_counter()
    check_form(candidates, spec)
    ctx = BatchContext(spec)
    by_output: dict = {}
    fits = []
    for out in genome_outputs(candidates, ctx.X):
        key = out.tobytes()
        if key not in by_output:
            by_output[key] = score_output(spec, ctx, out)
        fits.append(by_output[key])
    log.debug(
        "full-split re-scoring: %d candidates, %d distinct outputs, %.3f s",
        len(candidates), len(by_output), time.perf_counter() - t0,
    )
    return fits


@dataclass
class GpRunConfig:
    """The run budget; the objective fixes the genome form."""

    population: int = 1000
    generations: int = 100
    k: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.population < 2 or self.generations < 1:
            raise ValueError("population >= 2 and generations >= 1 required")


@dataclass
class RunResult:
    best_genome: object
    best_fitness: float            # re-evaluated on the full DR-train split
    history: list[float]           # per-generation best-of-batch fitness
    expressions: list[str]


def evolve(spec: FitnessSpec, cfg: GpRunConfig, audit_hook=None) -> RunResult:
    """Run ``cfg.generations`` of score-all -> next_generation on fresh
    mini-batches of ``BATCH_SIZE`` rows; the winner is the best full-split
    fitness over the final population plus the archive of per-generation
    batch-best genomes.
    ``audit_hook(gen, pop, fits)``, if given, sees every scored generation.
    """
    rng = np.random.default_rng(cfg.seed)
    n = spec.inputs.shape[0]
    p = spec.inputs.shape[1]
    if spec.objective == "rank" and min(BATCH_SIZE, n) < 3:
        # a batch of 2 rows has no pair weight: every genome would score NaN
        raise ValueError(
            f"objective 'rank' needs batches of at least 3 rows, got "
            f"{min(BATCH_SIZE, n)}"
        )

    if spec.objective == "gp_autoencoder":
        pop = ramped_autoencoders(
            cfg.population, p, cfg.k, spec.target.shape[1], rng
        )
    else:
        pop = ramped_half_and_half(cfg.population, p, cfg.k, rng)

    sampler = BatchSampler(batch_size=BATCH_SIZE, seed=int(rng.integers(2**63)))
    history: list[float] = []
    archive: list = []

    for gen in range(cfg.generations):
        batch = sampler.next_batch(n)
        ctx = BatchContext(spec, batch)
        fits = [score_output(spec, ctx, out)
                for out in genome_outputs(pop, ctx.X)]
        # released before the next generation's context or the full-split
        # re-scoring is built, so two are never held at once
        del ctx
        best_idx = int(np.argmin(fits))
        history.append(fits[best_idx])
        archive.append(pop[best_idx])
        if audit_hook is not None:
            audit_hook(gen, pop, fits)
        pop = next_generation(pop, fits, rng)

    # final winner: full DR-train re-scoring of archive + final population
    candidates = archive + pop
    full_fits = _full_split_fitness(candidates, spec)
    winner_idx = int(np.argmin(full_fits))
    winner = candidates[winner_idx]

    if isinstance(winner, AutoencoderMultiTree):
        # the decoder lines carry the linear scaling fitted on the whole
        # split, so evaluating them reproduces the full-split fitness
        (recon,) = genome_outputs([winner], spec.inputs)
        fit = linear_scaling(spec.target, recon)
        expressions = export_lines(winner.encoder)
        expressions += [
            line.replace("X~", "Xrec~", 1)
            for line in export_lines(winner.decoder, scaling=(fit.a, fit.b))
        ]
    else:
        expressions = export_lines(winner)

    return RunResult(
        best_genome=winner,
        best_fitness=float(full_fits[winner_idx]),
        history=history,
        expressions=expressions,
    )
