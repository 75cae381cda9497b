"""Command-line entry points for the experiment pipeline."""

from __future__ import annotations

import sys

import click

from .errors import NoisesiftError
from .pipeline import STAGES, run_pipeline


@click.group()
def main() -> None:
    """Synthesize hard/noisy datasets, train with tracing, and score
    label-noise partition methods."""


@main.command()
@click.option("--config", "config_path", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="JSON config file")
@click.option("--out", "out_dir", type=click.Path(file_okay=False),
              default=None, help="run directory (default under $NOISESIFT_OUT)")
@click.option("--seed", type=int, default=None,
              help="override the config seed")
@click.option("--force", is_flag=True, help="re-run completed stages")
@click.option("--stage", type=click.Choice(STAGES), default=None,
              help="run a single stage instead of the whole pipeline")
def run(config_path, out_dir, seed, force, stage):
    """Run the full pipeline (gen, train, metrics, partition, eval, report)."""
    try:
        run_dir = run_pipeline(config_path, out_dir, seed=seed, force=force, stage=stage)
    except NoisesiftError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    click.echo(run_dir)


if __name__ == "__main__":
    main()
