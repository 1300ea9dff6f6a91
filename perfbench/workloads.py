"""The benchmark's three workloads: inputs, the timed op, and its checks.

Every workload is a closed loop: one op after another from one process,
each op on fresh inputs drawn from ``(seed, op index)``.  ``run`` is the
only timed part; input generation and the checks run outside the timer.
``check`` returns the names of the checks an op failed and collects the
quality samples that ``quality`` summarises.

Why these workloads (see README.md for the layer map):

* construct-z1: the paper's central construction, dominated by Weiszfeld
  1-median solves, so it shows changes to the clustering engine most.
* distributed-z1: many small clustering runs (k <= 5 on 333-1000 points)
  plus the distributed ladder, allocation and sampling; per-call overhead
  shows here.  Each op runs one dataset on equal shards and another on
  1000/1000/333x6 shards, so every op holds both schemes and op times have
  one mode, not two.
* sweep: one evaluation sweep over a CSV read from disk, with results
  written to disk; harness, problems and baselines do their work here, and
  the thread pool runs with as many workers as there are cores.
"""

from __future__ import annotations

import csv
import math
import os
import shutil
import tempfile

import numpy as np
from scipy.spatial.distance import cdist

import kcoreset as kc

# A realised error may exceed the certificate by float rounding only.
CHECK_RTOL = 1e-9
# Query centers are part of the measuring instrument, not of the inputs: the
# same for every seed, so that rel_error.p50 varies only with the inputs.
NUM_QUERIES = 64
QUERY_SEED = 20190415
# Inputs come from default_rng([seed, tag, index]); run.py uses tag 0 for
# measured ops and 1 for set-up warm-ups.
CSV_TAG = 3


def p50(values) -> float:
    return float(np.median(values)) if len(values) else math.nan


def shifted_costs(points, weights, queries):
    """+1-shifted 1-median (weighted sum) and enclosing-ball (max) costs per query."""
    d = 1.0 + cdist(points, queries)
    return weights @ d, d.max(axis=0)


class ConstructZ1:
    """rcc_fixed_size(ps, 16, z=1) with certification on uniform 5-d data."""

    name = "construct-z1"
    k = 16
    dim = 5

    def __init__(self, seed: int, smoke: bool, workdir: str):
        self.seed = seed
        self.n = 200 if smoke else 2000
        self.queries = np.random.default_rng(QUERY_SEED).uniform(-0.25, 1.25, (NUM_QUERIES, self.dim))
        self.eps_bounds, self.rel_errors = [], []

    def prepare(self) -> None:
        pass

    def make_input(self, tag: int, i: int):
        data_seed = int(np.random.default_rng([self.seed, tag, i]).integers(2**63))
        return kc.synthetic_uniform(self.n, self.dim, 0.0, 1.0, seed=data_seed), i

    def run(self, inp):
        ps, i = inp
        return kc.rcc_fixed_size(ps, self.k, z=1, seed=i)

    def check(self, inp, coreset) -> list:
        ps, _ = inp
        failed = []
        if coreset.size > self.k:
            failed.append("coreset_size_le_k")
        if abs(coreset.total_weight - ps.total_weight) > CHECK_RTOL * ps.total_weight:
            failed.append("total_weight_preserved")
        full_sum, full_max = shifted_costs(ps.points, ps.weights, self.queries)
        core_sum, core_max = shifted_costs(coreset.points, coreset.weights, self.queries)
        eps = coreset.eps_bound
        if np.any(np.abs(core_sum - full_sum) > eps * full_sum * (1 + CHECK_RTOL)):
            failed.append("eps_bound_dominates_sum_cost")
        if np.any(np.abs(core_max - full_max) > eps * full_max * (1 + CHECK_RTOL)):
            failed.append("eps_bound_dominates_max_cost")
        self.eps_bounds.append(eps)
        self.rel_errors.extend(np.abs(core_sum - full_sum) / full_sum)
        return failed

    def quality(self) -> dict:
        return {
            "eps_bound.p50": (p50(self.eps_bounds), "fraction"),
            "rel_error.p50": (p50(self.rel_errors), "fraction"),
        }


class DistributedZ1:
    """partition_dataset + drcc(N=80, K=5, z=1) over 8 shards, twice: uniform and hybrid shards."""

    name = "distributed-z1"
    nodes = 8
    N = 80
    K = 5
    features = 4
    labels = 4

    def __init__(self, seed: int, smoke: bool, workdir: str):
        self.seed = seed
        self.n = 400 if smoke else 4000
        rng = np.random.default_rng(QUERY_SEED)
        tau = math.ceil(math.sqrt(self.features))  # label spacing of the encoding
        self.queries = np.hstack([
            rng.uniform(-0.25, 1.25, (NUM_QUERIES, self.features)),
            rng.uniform(0.0, (self.labels - 1) * tau, (NUM_QUERIES, 1)),
        ])
        self.rel_errors, self.comm = [], []

    def prepare(self) -> None:
        pass

    def make_input(self, tag: int, i: int):
        """Two cases: one dataset on uniform shards, another on hybrid shards."""
        seeds = np.random.default_rng([self.seed, tag, i]).integers(2**63, size=(2, 3))
        schemes = ({"scheme": "uniform"}, {"scheme": "hybrid", "n0": 2})
        return [
            (kc.synthetic_blobs(self.n, self.features, self.labels, seed=int(data_seed)),
             kc.ShardSpec(n=self.nodes, seed=int(shard_seed), **scheme),
             int(proto_seed))
            for (data_seed, shard_seed, proto_seed), scheme in zip(seeds, schemes)
        ]

    def run(self, inp):
        return [kc.drcc(kc.partition_dataset(ps, spec), N=self.N, K=self.K, z=1, seed=proto_seed)
                for ps, spec, proto_seed in inp]

    def check(self, inp, outs) -> list:
        failed = []
        for (ps, spec, _), (coreset, trace) in zip(inp, outs):
            failed.extend(f"{spec.scheme}: {name}" for name in self.check_case(ps, coreset, trace))
        return failed

    def check_case(self, ps, coreset, trace) -> list:
        failed = []
        if abs(coreset.total_weight - ps.total_weight) > CHECK_RTOL * ps.total_weight:
            failed.append("total_weight_conserved")
        if trace.overhead_scalars != self.K * self.nodes + 3 * self.nodes:
            failed.append("overhead_scalars_eq_Kn_plus_3n")
        if coreset.size > self.N:
            failed.append("coreset_size_le_N")
        full_sum, _ = shifted_costs(ps.points, ps.weights, self.queries)
        core_sum, _ = shifted_costs(coreset.points, coreset.weights, self.queries)
        self.rel_errors.extend(np.abs(core_sum - full_sum) / full_sum)
        self.comm.append(trace.overhead_scalars + trace.payload_scalars)
        return failed

    def quality(self) -> dict:
        return {
            "rel_error.p50": (p50(self.rel_errors), "fraction"),
            "comm_scalars.p50": (p50(self.comm), "scalars"),
        }


OUTPUT_FILES = ("runs.csv", "summary.json", "cdf.csv")


class Sweep:
    """One run_benchmark call over a labelled-blobs CSV, 50 records per op."""

    name = "sweep"
    expected_records = 5 * 2 * 5  # algorithms x sizes x problems

    def __init__(self, seed: int, smoke: bool, workdir: str):
        self.seed = seed
        self.n = 150 if smoke else 2000
        # one CSV per op for as many ops as a run holds, so that a run
        # averages over datasets as it does over master seeds
        self.csv_pool = 1 if smoke else 24
        self.workdir = workdir
        self.workers = len(os.sched_getaffinity(0))
        self.out_dir = None
        self.records = []

    def csv_path(self, j: int) -> str:
        return os.path.join(self.workdir, f"blobs-{j}.csv")

    def prepare(self) -> None:
        """Write the pool of labelled CSV datasets the ops read."""
        for j in range(self.csv_pool):
            data_seed = int(np.random.default_rng([self.seed, CSV_TAG, j]).integers(2**63))
            ps = kc.synthetic_blobs(self.n, 4, 3, seed=data_seed)
            enc = ps.encoding
            with open(self.csv_path(j), "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["f0", "f1", "f2", "f3", "label"])
                for p in ps.points:
                    label = enc.labels[int(round(p[-1] / enc.tau))]
                    writer.writerow([repr(float(v)) for v in p[:-1]] + [label])

    def config(self, path: str, master_seed: int, workers: int) -> dict:
        return {
            "seed": master_seed,
            "runs": 1,
            "workers": workers,
            "datasets": [{"name": "blobs", "path": path}],
            "algorithms": [
                {"name": "rcc_fixed", "kind": "rcc_fixed", "z": 2},
                {"kind": "uniform"},
                {"kind": "sensitivity"},
                {"kind": "farthest"},
                {"kind": "cdcc", "nodes": 4, "k": 2},
            ],
            "sizes": [20, 40],
            "problems": [
                {"name": "meb"},
                {"name": "kmeans", "k": 3},
                {"name": "kmedian", "k": 3},
                {"name": "pca", "l": 2},
                {"name": "svm", "positive_label": "class0"},
            ],
        }

    def make_input(self, tag: int, i: int):
        master_seed = int(np.random.default_rng([self.seed, tag, i]).integers(2**31))
        if self.out_dir:
            shutil.rmtree(self.out_dir)  # the previous op's results, already checked
        self.out_dir = tempfile.mkdtemp(prefix="sweep-", dir=self.workdir)
        return self.config(self.csv_path(i % self.csv_pool), master_seed, self.workers), self.out_dir

    def run(self, inp):
        config, out_dir = inp
        records, _ = kc.run_benchmark(config, out_dir=out_dir)
        return records

    def check(self, inp, records) -> list:
        _, out_dir = inp
        failed = []
        if len(records) != self.expected_records:
            failed.append("record_count")
        for name in OUTPUT_FILES:
            path = os.path.join(out_dir, name)
            if not os.path.isfile(path) or os.path.getsize(path) == 0:
                failed.append(f"wrote_{name}")
        self.records.extend(records)
        return failed

    def same_output_at_one_worker(self, inp) -> list:
        """Rerun an op's config with one worker; the result files must be byte-identical."""
        config, out_dir = inp
        serial_dir = tempfile.mkdtemp(prefix="sweep1-", dir=self.workdir)
        kc.run_benchmark(dict(config, workers=1), out_dir=serial_dir)
        failed = []
        for name in OUTPUT_FILES:
            with open(os.path.join(out_dir, name), "rb") as a, open(os.path.join(serial_dir, name), "rb") as b:
                if a.read() != b.read():
                    failed.append(f"{name}_identical_at_1_worker")
        shutil.rmtree(serial_dir)
        return failed

    def failed_records(self) -> list:
        return [r for r in self.records if r.error is not None]

    def quality(self) -> dict:
        good = [r for r in self.records if r.error is None]
        return {
            "eps_bound.p50": (p50([r.eps_bound for r in good if r.algorithm == "rcc_fixed" and r.eps_bound is not None]), "fraction"),
            "rel_error.p50": (p50([r.relative_error for r in good if math.isfinite(r.relative_error)]), "fraction"),
            "normalized_cost.p50": (p50([r.value for r in good if r.metric == "normalized_cost"]), "ratio"),
            "accuracy.p50": (p50([r.value for r in good if r.metric == "accuracy"]), "fraction"),
            "failed_ratio.records": (len(self.failed_records()) / max(len(self.records), 1), "fraction"),
        }


WORKLOADS = {w.name: w for w in (ConstructZ1, DistributedZ1, Sweep)}
