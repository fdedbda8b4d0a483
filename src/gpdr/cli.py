"""Command-line entry points: run a sweep, summarize stored results,
export expressions, or dry-run dataset ingestion.
"""

from __future__ import annotations

import sys

import click

from .dataset import IngestionError, load_csv
from .experiment import (
    DESK_SCALE,
    METHODS,
    ExperimentConfig,
    ExperimentError,
    ResultStore,
    export_expressions,
    run_experiment,
    summarize,
)

LABEL_HELP = "The label column: a header name, or a 0-based column index."


@click.group()
def main():
    """Symbolic-expression dimensionality reduction experiments."""


def _build_config(config, overrides) -> ExperimentConfig:
    if config:
        return ExperimentConfig.from_yaml(config, **overrides)
    if overrides.get("dataset_path") is None:
        raise click.UsageError("either --config or --dataset is required")
    return ExperimentConfig(
        **{k: v for k, v in overrides.items() if v is not None})


@main.command()
@click.option("--config", type=click.Path(exists=True), default=None,
              help="YAML config; flags below override its keys.")
@click.option("--dataset", "dataset_path", type=click.Path(exists=True))
@click.option("--label-column", default=None, help=LABEL_HELP)
@click.option("--method", "methods", multiple=True,
              type=click.Choice(METHODS))
@click.option("--k", "k_list", multiple=True, type=int)
@click.option("--runs", type=int, default=None)
@click.option("--master-seed", type=int, default=None)
@click.option("--output-dir", type=click.Path(), default=None)
@click.option("--population", type=int, default=None)
@click.option("--generations", type=int, default=None)
@click.option("--workers", type=int, default=None)
@click.option("--desk-scale", is_flag=True,
              help="Reduced budget: P=200, G=30, 10 runs; the budget "
                   "flags given override it.")
def run(config, desk_scale, methods, k_list, **flags):
    """Run the (method x k x run) sweep and persist one record per run."""
    overrides = dict(flags)
    if methods:
        overrides["methods"] = list(methods)
    if k_list:
        overrides["k_list"] = list(k_list)
    if desk_scale:
        for name, value in DESK_SCALE.items():
            if overrides[name] is None:
                overrides[name] = value
    try:
        cfg = _build_config(config, overrides)
        store = run_experiment(
            cfg,
            progress=lambda i, n: click.echo(f"run {i}/{n} done", err=True),
        )
    except (ExperimentError, IngestionError) as e:
        click.echo(f"error: {e}", err=True)
        sys.exit(1)
    failed = sum(1 for r in store.records if "error" in r)
    click.echo(f"{len(store.records)} records in {cfg.output_dir}"
               + (f" ({failed} failed)" if failed else ""))


@main.command("summarize")
@click.argument("results_dir", type=click.Path(exists=True))
def summarize_cmd(results_dir):
    """Print mean +/- std tables with significance stars."""
    try:
        store = ResultStore.load(results_dir)
        if not store.records:
            raise ExperimentError("no records found")
    except ExperimentError as e:
        click.echo(f"error: {e}", err=True)
        sys.exit(1)
    click.echo(summarize(store))


@main.command("export-expr")
@click.argument("results_dir", type=click.Path(exists=True))
@click.option("--method", required=True, type=click.Choice(METHODS))
@click.option("--k", required=True, type=int)
@click.option("--criterion", default="best_reconstruction",
              type=click.Choice(["best_reconstruction", "best_accuracy"]))
def export_expr(results_dir, method, k, criterion):
    """Print the selected run's latent-dimension expressions."""
    try:
        store = ResultStore.load(results_dir)
        click.echo(export_expressions(store, method, k, criterion))
    except ExperimentError as e:
        click.echo(f"error: {e}", err=True)
        sys.exit(1)


@main.command("validate-data")
@click.argument("path", type=click.Path())
@click.option("--label-column", default=None, help=LABEL_HELP)
def validate_data(path, label_column):
    """Ingestion dry run: parse the CSV and report its shape."""
    try:
        d = load_csv(path, label_column=label_column)
    except IngestionError as e:
        click.echo(f"error: {e}", err=True)
        sys.exit(1)
    click.echo(
        f"n={d.n} p={d.p} classes={d.class_count} "
        f"features={list(d.feature_names)[:8]}{'...' if d.p > 8 else ''}"
    )


if __name__ == "__main__":
    main()
