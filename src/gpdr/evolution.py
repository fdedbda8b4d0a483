"""The generational loop: sample a mini-batch, score the population,
produce the next generation, and keep an archive of batch-best genomes for
the final full-split re-scoring.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fitness import BatchContext, FitnessSpec, linear_scaling
from .gp_core import (
    AutoencoderMultiTree,
    export_lines,
    genome_outputs,
    ramped_autoencoders,
    ramped_half_and_half,
)
from .variation import next_generation

# the rows of each generation's mini-batch; the whole split when it is
# smaller
BATCH_SIZE = 100


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


def evolve(spec: FitnessSpec, cfg: GpRunConfig) -> RunResult:
    """Run ``cfg.generations`` of score-all -> next_generation on fresh
    mini-batches of ``BATCH_SIZE`` rows; the winner is the best full-split
    fitness over the final population plus the archive of per-generation
    batch-best genomes.
    """
    rng = np.random.default_rng(cfg.seed)
    n, p = spec.inputs.shape

    if spec.objective == "gp_autoencoder":
        pop = ramped_autoencoders(
            cfg.population, p, cfg.k, spec.target.shape[1], rng
        )
    else:
        pop = ramped_half_and_half(cfg.population, p, cfg.k, rng)

    batches = np.random.default_rng(int(rng.integers(2**63)))
    history: list[float] = []
    archive: list = []

    for _ in range(cfg.generations):
        rows = (np.arange(n) if BATCH_SIZE >= n else np.sort(
            batches.choice(n, size=BATCH_SIZE, replace=False)))
        # freed at the end of the statement, before the next context or
        # the full-split one is built, so two are never held at once
        fits = BatchContext(spec, rows).score(pop)
        best_idx = int(np.argmin(fits))
        history.append(fits[best_idx])
        archive.append(pop[best_idx])
        pop = next_generation(pop, fits, rng)

    # final winner: full DR-train re-scoring of archive + final population
    candidates = archive + pop
    full_fits = BatchContext(spec).score(candidates)
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
