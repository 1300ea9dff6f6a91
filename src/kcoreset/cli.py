"""Command-line interface.

Four subcommands: ``construct`` (single-machine coresets), ``distributed``
(multi-node protocols plus their communication trace), ``evaluate`` (score a
saved coreset against a dataset on one problem) and ``benchmark`` (full
sweep from a JSON config).

Exit codes: 0 success, 1 runtime failure (e.g. a requested guarantee is not
reachable), 2 invalid input or arguments.
"""

from __future__ import annotations

import functools
import json
import os
import sys

import click

from . import __version__
from .coreset import load_coreset
from .data import (
    ShardSpec,
    load_dataset,
    normalize_features,
    partition_dataset,
    with_svm_labels,
)
from .distributed import DEFAULT_CENTERS, DEFAULT_Z, drcc
from .errors import KcoresetError, ValidationError
from .harness import construct_coreset, evaluate_coreset, run_benchmark
from .problems import PROBLEM_NAMES, make_problem

CONSTRUCT_ALGOS = ("rcc", "rcc-fixed", "uniform", "sensitivity", "farthest")
DISTRIBUTED_ALGOS = ("drcc", "cdcc")


def _handle_errors(func):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        try:
            return func(*args, **kwargs)
        except ValidationError as exc:
            raise click.UsageError(str(exc))
        except KcoresetError as exc:
            raise click.ClickException(str(exc))
    return wrapper


def _check_out_dir(ctx, param, value):
    """Reject an output path whose directory does not exist, before any work."""
    if value and not os.path.isdir(os.path.dirname(value) or "."):
        raise click.BadParameter(f"directory {os.path.dirname(value)!r} does not exist")
    return value


def _load(path, weight_column, label_column, normalize):
    pointset = load_dataset(path, weight_column=weight_column, label_column=label_column)
    if normalize:
        pointset = normalize_features(pointset)
    return pointset


def _echo_json(payload) -> None:
    click.echo(json.dumps(payload, indent=2, sort_keys=True, default=str))


@click.group()
@click.version_option(version=__version__, prog_name="kcoreset")
def main() -> None:
    """Robust coresets for clustering-style machine-learning costs."""


@main.command()
@click.argument("dataset", type=click.Path(exists=True, dir_okay=False))
@click.option("--algo", type=click.Choice(CONSTRUCT_ALGOS), default="rcc-fixed",
              show_default=True, help="Construction to run.")
@click.option("--size", "-m", type=int, default=None,
              help="Coreset size (required for every algo except rcc).")
@click.option("--eps", type=float, default=None,
              help="Error guarantee for the adaptive construction (rcc only).")
@click.option("--rho", type=float, default=1.0, show_default=True,
              help="Lipschitz constant used when certifying the error bound.")
@click.option("--z", type=click.IntRange(1, 2), default=2, show_default=True,
              help="Cost exponent: 2 for squared distances, 1 for plain distances.")
@click.option("--k", type=int, default=None,
              help="Cluster count for the sensitivity baseline's bicriteria step.")
@click.option("--seed", type=int, default=0, show_default=True,
              help="Sampling seed of uniform, sensitivity and farthest; "
                   "rcc and rcc-fixed draw no randomness.")
@click.option("--out", required=True, type=click.Path(), callback=_check_out_dir,
              help="Output prefix; writes <out>.csv and <out>.json.")
@click.option("--weight-column", default="weight", show_default=True)
@click.option("--label-column", default=None)
@click.option("--normalize/--no-normalize", default=True, show_default=True,
              help="Min-max scale features to [0, 1] before constructing.")
@click.option("--positive-label", default=None,
              help="Remap the label column to +/-1 before constructing "
                   "(for coresets meant for margin classification).")
@_handle_errors
def construct(dataset, algo, size, eps, rho, z, k, seed, out, weight_column,
              label_column, normalize, positive_label):
    """Build a coreset of DATASET and save it under the --out prefix."""
    pointset = _load(dataset, weight_column, label_column, normalize)
    if positive_label is not None:
        pointset = with_svm_labels(pointset, positive_label)
    if algo == "rcc" and eps is None:
        raise ValidationError("--eps is required for --algo rcc")
    if algo != "rcc" and size is None:
        raise ValidationError(f"--size is required for --algo {algo}")
    spec = {"kind": algo.replace("-", "_"), "eps": eps, "rho": rho, "z": z, "k": k}
    coreset = construct_coreset(spec, pointset, size, seed)
    coreset.save(out)
    _echo_json({
        "algorithm": algo,
        "input_points": pointset.size,
        "coreset_points": coreset.size,
        "total_weight": coreset.total_weight,
        "eps_bound": coreset.eps_bound,
        "files": [f"{out}.csv", f"{out}.json"],
    })


@main.command()
@click.argument("dataset", type=click.Path(exists=True, dir_okay=False))
@click.option("--algo", type=click.Choice(DISTRIBUTED_ALGOS), default="drcc",
              show_default=True)
@click.option("--nodes", "-n", type=int, required=True, help="Number of nodes.")
@click.option("--budget", "-N", "budget", type=int, required=True,
              help="Total point budget shared by all nodes.")
@click.option("--k", "-K", "--ladder", "centers", type=int, default=None,
              help="Per-node center count: the most drcc may pick, the exact count for "
                   "cdcc [default: {drcc} for drcc, {cdcc} for cdcc].".format_map(DEFAULT_CENTERS))
@click.option("--z", type=click.IntRange(1, 2), default=None,
              help="Cost exponent [default: {drcc} for drcc, {cdcc} for cdcc].".format_map(DEFAULT_Z))
@click.option("--scheme", type=click.Choice(("uniform", "specialized", "hybrid")),
              default="uniform", show_default=True,
              help="How the dataset is spread over nodes.")
@click.option("--n0", type=int, default=None,
              help="Specialized node count for the hybrid scheme.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", required=True, type=click.Path(), callback=_check_out_dir,
              help="Output prefix; writes <out>.csv, <out>.json, <out>.trace.json.")
@click.option("--weight-column", default="weight", show_default=True)
@click.option("--label-column", default=None)
@click.option("--normalize/--no-normalize", default=True, show_default=True)
@_handle_errors
def distributed(dataset, algo, nodes, budget, centers, z, scheme, n0, seed, out,
                weight_column, label_column, normalize):
    """Run a multi-node construction over DATASET and save coreset + trace."""
    pointset = _load(dataset, weight_column, label_column, normalize)
    spec = ShardSpec(scheme=scheme, n=nodes, n0=n0, seed=seed)
    shards = partition_dataset(pointset, spec)
    if centers is None:
        centers = DEFAULT_CENTERS[algo]
    if z is None:
        z = DEFAULT_Z[algo]
    coreset, trace = drcc(shards, budget, K=centers, z=z, seed=seed,
                          k_fixed=centers if algo == "cdcc" else None)
    coreset.save(out)
    trace_path = f"{out}.trace.json"
    with open(trace_path, "w") as fh:
        json.dump(trace.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    _echo_json({
        "algorithm": algo,
        "nodes": nodes,
        "budget": budget,
        "coreset_points": coreset.size,
        "total_weight": coreset.total_weight,
        "overhead_scalars": trace.overhead_scalars,
        "payload_scalars": trace.payload_scalars,
        "files": [f"{out}.csv", f"{out}.json", trace_path],
    })


@main.command()
@click.argument("dataset", type=click.Path(exists=True, dir_okay=False))
@click.argument("coreset", type=click.Path())
@click.option("--problem", type=click.Choice(PROBLEM_NAMES), required=True)
@click.option("--k", type=int, default=2, show_default=True,
              help="Number of centers (kmeans / kmedian).")
@click.option("--l", "l", type=int, default=2, show_default=True,
              help="Subspace dimension (pca).")
@click.option("--positive-label", default=None,
              help="Class treated as +1 (svm).")
@click.option("--out", type=click.Path(dir_okay=False), default=None, callback=_check_out_dir,
              help="Write the JSON report here instead of stdout.")
@click.option("--weight-column", default="weight", show_default=True)
@click.option("--label-column", default=None)
@click.option("--normalize/--no-normalize", default=True, show_default=True)
@_handle_errors
def evaluate(dataset, coreset, problem, k, l, positive_label, out,
             weight_column, label_column, normalize):
    """Train on a saved CORESET, report its quality against DATASET."""
    pointset = _load(dataset, weight_column, label_column, normalize)
    if problem == "svm":
        if positive_label is None:
            raise ValidationError("--positive-label is required for --problem svm")
        pointset = with_svm_labels(pointset, positive_label)
    spec = make_problem(problem, k=k, l=l, positive_label=positive_label)
    loaded = load_coreset(coreset)
    report = evaluate_coreset(pointset, loaded, spec)
    report = {"problem": problem, "dataset_points": pointset.size, **report}
    if out:
        with open(out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        click.echo(f"wrote {out}")
    else:
        _echo_json(report)


@main.command()
@click.argument("config", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", required=True, type=click.Path(file_okay=False),
              help="Directory for runs.csv, summary.json, cdf.csv, timings.csv.")
@_handle_errors
def benchmark(config, out):
    """Run the evaluation sweep described by a JSON CONFIG file."""
    with open(config) as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"config is not valid JSON: {exc}")
    records, _summary = run_benchmark(cfg, out_dir=out)
    failed = sum(1 for r in records if r.error is not None)
    click.echo(f"{len(records)} records ({failed} failed) -> {out}")
    if failed:
        sys.exit(1)


if __name__ == "__main__":
    main()
