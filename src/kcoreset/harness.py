"""Evaluation harness: how good is a coreset as a stand-in for its dataset?

Two metrics, both computed per (dataset, coreset, problem) triple:

  * normalized cost: cost(P, model trained on the coreset) divided by
    cost(P, model trained on P itself); 1.0 means the coreset gives away
    nothing.  For svm the headline metric is test accuracy instead.
  * relative error: |cost(P, x) - cost(coreset, x)| / cost(P, x) at the
    coreset-trained model x -- how honestly the coreset reports the cost
    it was optimized against.

``run_benchmark`` sweeps dataset x algorithm x size x problem cells for R
seeded runs each, serially and through ``evaluate_coreset`` alone, and
writes runs.csv / summary.json / cdf.csv (plus wall times in timings.csv,
kept separate so result files are bit-reproducible).  A run's seed reaches
its construction only: evaluation draws no randomness, so a seed-free
coreset scores the same under every seed.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from .baselines import farthest_point, sensitivity_sample, uniform_sample
from .coreset import Coreset, rcc, rcc_fixed_size
from .data import (
    ShardSpec,
    WeightedPointSet,
    load_dataset,
    normalize_features,
    partition_dataset,
    split_train_test,
    synthetic_blobs,
    synthetic_uniform,
    with_svm_labels,
)
from .distributed import DEFAULT_CENTERS, DEFAULT_Z, drcc
from .errors import ValidationError
from .problems import MLProblem, make_problem, problem_cost, solve_problem, svm_accuracy

CDF_GRID_POINTS = 200
# A pca cost is a share of the data's second moment sum_p w_p ||p||^2, its
# cost with no components.  Below this share it is the projection's rounding
# noise (4e-32 of it on 30 identical points), and it scores as exactly 0.
PCA_COST_FLOOR = 1e-12

# the outcome fields of a cell's record, as a failed cell fills them
_FAILED_FIELDS = {
    "metric": "error", "value": math.nan, "relative_error": math.nan,
    "coreset_points": 0, "clamped": False, "eps_bound": None,
}


@dataclass
class EvalRecord:
    dataset: str
    algorithm: str
    problem: str
    size: str
    run: int
    seed: int
    metric: str
    value: float
    relative_error: float
    coreset_points: int
    clamped: bool
    eps_bound: float | None
    error: str | None
    wall_time: float

    ROW_FIELDS = (
        "dataset", "algorithm", "problem", "size", "run", "seed", "metric",
        "value", "relative_error", "coreset_points", "clamped", "eps_bound",
        "error",
    )

    def to_row(self) -> list:
        data = asdict(self)
        return [_csv_cell(data[name]) for name in self.ROW_FIELDS]


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return repr(float(value))  # plain-float repr even for numpy scalars
    return str(value)


def evaluate_coreset(
    pointset: WeightedPointSet,
    coreset: Coreset,
    problem: MLProblem,
    full_model=None,
    full_cost: float | None = None,
    held_out: WeightedPointSet | None = None,
) -> dict:
    """Train on the coreset, score against the full dataset.

    svm accuracy is measured on ``held_out`` (by default the scored dataset
    itself); every other cost is measured on ``pointset``.  Negative coreset
    weights (distributed residuals) are clamped for the solver but kept
    as-is when reading the coreset's own cost estimate.  Returns a dict with
    the headline metric, the relative estimation error, and bookkeeping
    flags.  A k-center model trained on a coreset of fewer than k points
    has one center per point.  A pca cost below PCA_COST_FLOOR times the
    data's second moment counts as 0.  A cost of 0 against a reference cost
    of 0 is exact (normalized cost 1, relative error 0); any other cost over
    0 scores inf.
    """
    usable, clamped = coreset.nonnegative_pointset()
    fit = problem
    if problem.params.get("k", 0) > usable.size:
        # a coreset of fewer points than k: every point is a center
        fit = replace(problem, params={**problem.params, "k": usable.size})
    model = solve_problem(fit, usable)
    floor = 0.0
    if problem.name == "pca":
        floor = PCA_COST_FLOOR * float(pointset.weights @ (pointset.points**2).sum(axis=1))

    def denoised(cost):
        return 0.0 if abs(cost) < floor else cost

    cost_full = denoised(problem_cost(problem, pointset, model))
    cost_core = denoised(problem_cost(problem, coreset, model))
    gap = abs(cost_full - cost_core)
    rel_error = gap / cost_full if cost_full > 0 else (math.inf if gap else 0.0)

    if problem.name == "svm":
        value = svm_accuracy(pointset if held_out is None else held_out, model)
        metric = "accuracy"
    else:
        if full_model is None or full_cost is None:
            full_model = solve_problem(problem, pointset)
            full_cost = problem_cost(problem, pointset, full_model)
        full_cost = denoised(full_cost)
        value = cost_full / full_cost if full_cost > 0 else (math.inf if cost_full else 1.0)
        metric = "normalized_cost"
    return {
        "metric": metric,
        "value": float(value),
        "relative_error": float(rel_error),
        "cost_full": float(cost_full),
        "cost_coreset": float(cost_core),
        "clamped": clamped,
        "coreset_points": coreset.size,
        "eps_bound": coreset.eps_bound,
    }


def quantile_grid(values, grid_points: int = CDF_GRID_POINTS):
    """Empirical quantiles on an evenly spaced probability grid in [0, 1]."""
    levels = np.linspace(0.0, 1.0, grid_points)
    if len(values) == 0:
        return levels, np.full(grid_points, np.nan)
    return levels, np.quantile(np.asarray(values, dtype=float), levels)


# ---------------------------------------------------------------------------
# benchmark configuration


_SYNTH_KINDS = ("blobs", "uniform")
# the constructions that take a coreset size
_SIZED_KINDS = ("rcc_fixed", "uniform", "sensitivity", "farthest", "drcc", "cdcc")


def _load_config_dataset(entry: dict) -> WeightedPointSet:
    name = entry.get("name", "<unnamed>")
    if "path" in entry:
        pointset = load_dataset(
            entry["path"],
            weight_column=entry.get("weight_column", "weight"),
            label_column=entry.get("label_column"),
        )
        if entry.get("normalize", True):
            pointset = normalize_features(pointset)
        return pointset
    spec = entry.get("synthetic")
    if not spec:
        raise ValidationError(f"dataset {name!r} needs either 'path' or 'synthetic'")
    kind = spec.get("kind")
    if kind == "blobs":
        return synthetic_blobs(
            n=spec.get("n", 150),
            num_features=spec.get("features", 4),
            num_labels=spec.get("labels", 3),
            spread=spec.get("spread", 0.08),
            seed=spec.get("seed", 0),
        )
    if kind == "uniform":
        return synthetic_uniform(
            n=spec.get("n", 1000),
            dim=spec.get("dim", 3),
            low=spec.get("low", 0.0),
            high=spec.get("high", 1.0),
            seed=spec.get("seed", 0),
        )
    raise ValidationError(f"dataset {name!r}: unknown synthetic kind {kind!r}; "
                          f"choose from {_SYNTH_KINDS}")


def _make_problem_from_entry(entry: dict) -> MLProblem:
    return make_problem(
        entry["name"],
        k=entry.get("k", 2),
        l=entry.get("l", 2),
        delta=entry.get("delta"),
        positive_label=entry.get("positive_label"),
    )


def _kind(algorithm: dict):
    return algorithm.get("kind", algorithm.get("name"))


def construct_coreset(
    algorithm: dict,
    pointset: WeightedPointSet,
    size: int | None,
    seed: int,
) -> Coreset:
    """Build a coreset according to an algorithm spec dict.

    ``kind`` selects the construction; every kind but ``rcc`` needs a
    ``size``.  ``rcc`` and ``rcc_fixed`` draw no randomness and ignore
    ``seed``.  Distributed kinds re-partition the dataset with a seed
    derived from ``seed``, so every run sees a fresh random distribution of
    the data over nodes.  Their per-node center count is read from ``K`` or
    ``k``; it and ``z`` default to the protocol's DEFAULT_CENTERS and
    DEFAULT_Z.  Every other kind defaults to z = 2.
    """
    kind = _kind(algorithm)
    z = int(algorithm.get("z", DEFAULT_Z.get(kind, 2)))
    rho = float(algorithm.get("rho", 1.0))
    if kind == "rcc":
        return rcc(pointset, eps=float(algorithm["eps"]), rho=rho, z=z)
    if kind in _SIZED_KINDS:
        if size is None:
            raise ValidationError(f"algorithm kind {kind!r} needs a coreset size: set 'sizes'")
        size = int(size)
    if kind == "rcc_fixed":
        return rcc_fixed_size(pointset, size, z=z, rho=rho)
    if kind == "uniform":
        return uniform_sample(pointset, size, seed=seed)
    if kind == "sensitivity":
        return sensitivity_sample(pointset, size, k=algorithm.get("k"), seed=seed)
    if kind == "farthest":
        return farthest_point(pointset, size, seed=seed)
    if kind in ("drcc", "cdcc"):
        if "K" in algorithm and "k" in algorithm:
            raise ValidationError("'K' and 'k' name the same per-node center count; set one")
        centers = int(algorithm.get("K", algorithm.get("k", DEFAULT_CENTERS[kind])))
        rng = np.random.default_rng(seed)
        spec = ShardSpec(
            scheme=algorithm.get("scheme", "uniform"),
            n=int(algorithm["nodes"]),
            n0=algorithm.get("n0"),
            seed=int(rng.integers(2**63)),
        )
        shards = partition_dataset(pointset, spec)
        proto_seed = int(rng.integers(2**63))
        coreset, _ = drcc(
            shards, size, K=centers, z=z, seed=proto_seed,
            k_fixed=centers if kind == "cdcc" else None,
        )
        return coreset
    raise ValidationError(f"unknown algorithm kind {kind!r}")


def run_benchmark(config: dict, out_dir: str | None = None):
    """Sweep dataset x algorithm x size x problem cells for R runs each.

    Tasks run one after another.  Every cell is one :func:`evaluate_coreset`
    call on inputs chosen by its problem: svm cells relabel the dataset,
    split it into train and test parts and build their coreset on the train
    part; all other cells of a task share one coreset of the whole dataset.
    Each svm split is made once per (dataset, problem), and the full-data
    models once per (dataset, problem), so all tasks on a dataset or a
    train part work on one point set object.  That object keeps its
    clustering runs: the first task that clusters a set pays for the runs
    that every later construction and problem on it shares.  Any
    exception raised in a cell fails that cell's record only.

    Returns (records, summary); when out_dir is given also writes runs.csv,
    summary.json, cdf.csv and timings.csv there.
    """
    if not isinstance(config, dict):
        raise ValidationError("config must be a JSON object")
    master_seed = int(config.get("seed", 0))
    runs = int(config.get("runs", 1))
    if runs < 1:
        raise ValidationError("runs must be >= 1")
    if not config.get("datasets"):
        raise ValidationError("config needs a non-empty 'datasets' list")
    if not config.get("algorithms"):
        raise ValidationError("config needs a non-empty 'algorithms' list")
    if not config.get("problems"):
        raise ValidationError("config needs a non-empty 'problems' list")
    sizes = config.get("sizes", [None])

    names = [entry.get("name", f"dataset{i}") for i, entry in enumerate(config["datasets"])]
    if len(set(names)) != len(names):
        raise ValidationError(f"dataset names must be unique, got {names}")
    datasets = [
        (name, _load_config_dataset(entry)) for name, entry in zip(names, config["datasets"])
    ]
    problems = [
        (entry.get("name"), _make_problem_from_entry(entry), entry)
        for entry in config["problems"]
    ]

    # full-dataset solutions by (dataset index, problem index), shared across cells
    full_cache: dict = {}

    def full_solution(pointset, problem, di, pi):
        if (di, pi) not in full_cache:
            model = solve_problem(problem, pointset)
            full_cache[di, pi] = (model, problem_cost(problem, pointset, model))
        return full_cache[di, pi]

    # svm (train, test) parts by (dataset index, problem index), shared across cells
    svm_splits: dict = {}

    def svm_split(pointset, problem, entry, di, pi):
        if (di, pi) not in svm_splits:
            svm_splits[di, pi] = _svm_train_test(pointset, problem, entry)
        return svm_splits[di, pi]

    def run_task(di, ds_name, pointset, ai, algorithm, si, size, run):
        algo_name = algorithm.get("name", algorithm.get("kind", f"algo{ai}"))
        seed = _derived_seed(master_seed, (di, ai, si, run))
        records = []
        started = time.perf_counter()
        shared = None  # coreset of the whole dataset, or the error building it raised
        if any(problem.name != "svm" for _, problem, _ in problems):
            try:
                shared = construct_coreset(algorithm, pointset, size, seed)
            except Exception as exc:
                shared = exc
        for pi, (p_name, problem, entry) in enumerate(problems):
            try:
                if problem.name == "svm":
                    scored, held_out = svm_split(pointset, problem, entry, di, pi)
                    coreset = construct_coreset(algorithm, scored, size, seed)
                    full_model = full_cost = None  # accuracy needs no full-data model
                elif isinstance(shared, Exception):
                    raise shared
                else:
                    scored, held_out, coreset = pointset, None, shared
                    full_model, full_cost = full_solution(pointset, problem, di, pi)
                outcome = evaluate_coreset(
                    scored, coreset, problem,
                    full_model=full_model, full_cost=full_cost, held_out=held_out,
                )
                fields = {name: outcome[name] for name in _FAILED_FIELDS}
                fields["error"] = None
            except Exception as exc:
                fields = dict(_FAILED_FIELDS, error=f"{type(exc).__name__}: {exc}")
            records.append(EvalRecord(
                dataset=ds_name, algorithm=algo_name, problem=p_name or problem.name,
                size=_size_label(size), run=run, seed=seed, wall_time=0.0, **fields,
            ))
        total = time.perf_counter() - started
        for record in records:
            record.wall_time = total / max(len(records), 1)
        return records

    records = [
        record
        for di, (ds_name, pointset) in enumerate(datasets)
        for ai, algorithm in enumerate(config["algorithms"])
        for si, size in enumerate(sizes)
        for run in range(runs)
        for record in run_task(di, ds_name, pointset, ai, algorithm, si, size, run)
    ]
    records.sort(key=lambda r: (r.dataset, r.algorithm, r.problem, str(r.size), r.run))

    summary = _summarize(records)
    if out_dir:
        _write_outputs(records, summary, out_dir)
    return records, summary


def _derived_seed(master: int, key: tuple) -> int:
    seq = np.random.SeedSequence(master, spawn_key=tuple(int(v) for v in key))
    return int(seq.generate_state(1)[0])


def _size_label(size) -> str:
    return "auto" if size is None else str(size)


def _svm_train_test(pointset, problem, entry):
    """Relabel a dataset for svm and split it into train and test parts."""
    positive = problem.params["positive_label"]
    if positive is None:
        raise ValidationError("svm problem entries need 'positive_label'")
    relabeled = with_svm_labels(pointset, positive)
    return split_train_test(relabeled, entry.get("train_fraction", 0.8))


def _stat(fn, values) -> float | None:
    """``fn(values)`` as a float; None where there are no values or it is not finite."""
    if not len(values):
        return None
    value = float(fn(values))
    return value if math.isfinite(value) else None


def _summarize(records: list) -> dict:
    cells: dict = {}
    for r in records:
        key = (r.dataset, r.algorithm, r.problem, r.size)
        cells.setdefault(key, []).append(r)
    summary: dict = {}
    for (ds, algo, problem, size), group in sorted(cells.items()):
        good = [r for r in group if r.error is None]
        values = np.array([r.value for r in good])
        rels = np.array([r.relative_error for r in good if math.isfinite(r.relative_error)])
        node = summary.setdefault(ds, {}).setdefault(algo, {}).setdefault(problem, {})
        node[size] = {
            "runs": len(group),
            "failed": len(group) - len(good),
            "metric": good[0].metric if good else "error",
            "mean": _stat(np.mean, values),
            "std": _stat(np.std, values),
            "median": _stat(np.median, values),
            "mean_relative_error": _stat(np.mean, rels),
            "max_relative_error": _stat(np.max, rels),
            "mean_coreset_points": _stat(np.mean, [r.coreset_points for r in good]),
        }
    return summary


def _write_outputs(records: list, summary: dict, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "runs.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(EvalRecord.ROW_FIELDS)
        for r in records:
            writer.writerow(r.to_row())
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    with open(os.path.join(out_dir, "cdf.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["dataset", "algorithm", "problem", "size", "grid_index", "level", "value"]
        )
        cells: dict = {}
        for r in records:
            if r.error is None and math.isfinite(r.value):
                cells.setdefault((r.dataset, r.algorithm, r.problem, r.size), []).append(r.value)
        # every cell shares the grid: its index and level columns are formatted once
        grid = [f"{i},{level!r}," for i, level in enumerate(quantile_grid([])[0].tolist())]
        for key in sorted(cells):
            row = io.StringIO()
            csv.writer(row).writerow(key)
            prefix = row.getvalue()[: -len("\r\n")] + ","
            quantiles = quantile_grid(cells[key])[1].tolist()
            fh.write("".join(f"{prefix}{level}{q!r}\r\n" for level, q in zip(grid, quantiles)))
    with open(os.path.join(out_dir, "timings.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["dataset", "algorithm", "problem", "size", "run", "wall_time"])
        for r in records:
            writer.writerow(
                [r.dataset, r.algorithm, r.problem, r.size, r.run, repr(r.wall_time)]
            )
