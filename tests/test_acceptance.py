"""Release gate: end-to-end statistical and structural guarantees.

Each test below is one acceptance criterion, checked at its stated
tolerance and (where stated) within a wall-clock budget.  Every test
prints a single ``ACCEPTANCE <nn> <label>: PASS`` / ``FAIL`` line so a
plain ``pytest -v tests/test_acceptance.py`` run reads as a checklist.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from kcoreset import (
    ShardSpec,
    WeightedPointSet,
    brute_force_optimal,
    cdcc,
    clustering_cost,
    compute_delta,
    drcc,
    evaluate_coreset,
    farthest_point,
    k_clustering,
    k_clustering_doubled,
    lipschitz_rho,
    make_problem,
    node_local_centers,
    node_sample,
    one_center,
    partition_dataset,
    problem_cost,
    rcc_fixed_size,
    server_allocate,
    solve_problem,
    synthetic_blobs,
    synthetic_uniform,
    uniform_sample,
)


@contextmanager
def criterion(number: int, label: str):
    """Emit exactly one checklist line for an acceptance criterion."""
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {label}: FAIL")
        raise
    print(f"ACCEPTANCE {number:02d} {label}: PASS")


def random_weighted_set(rng, n, dim, w_lo=0.5, w_hi=3.0):
    points = rng.normal(0.0, 2.0, size=(n, dim))
    weights = rng.uniform(w_lo, w_hi, size=n)
    return WeightedPointSet(points, weights)


# ---------------------------------------------------------------------------
# 01: the certified bound dominates the realized error, run after run


def test_01_certificate_dominates_realized_meb_error():
    """150x5 labeled data, 20-center coresets: relative MEB error <= bound.

    100 Monte Carlo constructions (50 data sets, one per run, times two cost
    exponents); the construction draws no randomness, so each run draws its
    own data.  The certificate must win every single time, within 2 minutes.
    """
    with criterion(1, "certificate dominates realized error"):
        started = time.perf_counter()
        meb = make_problem("meb")
        worst_margin = math.inf
        for run in range(50):
            ps = synthetic_blobs(150, num_features=4, num_labels=3, seed=run)
            assert ps.dim == 5 and ps.size == 150
            full_model = solve_problem(meb, ps)
            full_cost = problem_cost(meb, ps, full_model)
            for z in (1, 2):
                coreset = rcc_fixed_size(ps, 20, z=z, rho=1.0)
                bound = coreset.certificate.eps_maxdist
                out = evaluate_coreset(
                    ps, coreset, meb, full_model=full_model, full_cost=full_cost,
                )
                assert out["relative_error"] <= bound + 1e-12, (z, run)
                worst_margin = min(worst_margin, bound - out["relative_error"])
        elapsed = time.perf_counter() - started
        assert elapsed < 120.0, f"budget exceeded: {elapsed:.1f}s"
        print(f"  100 runs, smallest bound-minus-error margin {worst_margin:.4g}, "
              f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 02: the coreset definition's two-sided inequalities under random models


def test_02_two_sided_guarantee_for_random_models():
    """20 random weighted sets x 200 random models x 2 cost shapes.

    Per-point costs are shifted by +1 so the relative guarantee applies;
    sum aggregation (weighted) and max aggregation (weight-free) must both
    sit inside [(1-eps), (1+eps)] x full cost for every single pair, and
    the unshifted costs must respect the additive bounds.  Tolerance 1e-9,
    budget 5 minutes.
    """
    with criterion(2, "two-sided guarantee under random models"):
        started = time.perf_counter()
        tol = 1e-9
        checked = 0
        rng = np.random.default_rng(20)
        for i in range(20):
            ps = random_weighted_set(rng, 200, 3, w_lo=0.5, w_hi=2.5)
            coreset = rcc_fixed_size(ps, 20, z=2, rho=1.0)
            eps = coreset.certificate.eps_maxdist
            w, u = ps.weights, coreset.weights
            total = w.sum()
            lo = ps.points.min(axis=0) - 0.5
            hi = ps.points.max(axis=0) + 0.5

            single = rng.uniform(lo, hi, size=(200, 3))
            triple = rng.uniform(lo, hi, size=(200, 3, 3)).reshape(-1, 3)
            for d_full, d_core in (
                (cdist(ps.points, single), cdist(coreset.points, single)),
                (
                    cdist(ps.points, triple).reshape(200, 200, 3).min(axis=2),
                    cdist(coreset.points, triple).reshape(-1, 200, 3).min(axis=2),
                ),
            ):
                sum_full = (w[:, None] * (d_full + 1.0)).sum(axis=0)
                sum_core = (u[:, None] * (d_core + 1.0)).sum(axis=0)
                assert np.all((1 - eps) * sum_full - tol <= sum_core)
                assert np.all(sum_core <= (1 + eps) * sum_full + tol)

                max_full = d_full.max(axis=0) + 1.0
                max_core = d_core.max(axis=0) + 1.0
                assert np.all((1 - eps) * max_full - tol <= max_core)
                assert np.all(max_core <= (1 + eps) * max_full + tol)

                raw_sum_gap = np.abs(
                    (w[:, None] * d_full).sum(axis=0) - (u[:, None] * d_core).sum(axis=0)
                )
                assert np.all(raw_sum_gap <= eps * total + tol)
                raw_max_gap = np.abs(d_full.max(axis=0) - d_core.max(axis=0))
                assert np.all(raw_max_gap <= eps + tol)
                checked += 200
        elapsed = time.perf_counter() - started
        assert elapsed < 300.0, f"budget exceeded: {elapsed:.1f}s"
        print(f"  {checked} (set, model) pairs, zero violations, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 03: structural guarantees of the recursive initialization


def test_03_initialization_structural_guarantees():
    """Converged runs satisfy the three structural inequalities.

    (a) every returned center is its own cluster's 1-center optimum,
    (b) the doubled run never costs more than the per-cluster splits,
    (c) the 2-center run never costs more than {1-center, most expensive
    point}.  100 random instances, tolerance 1e-9 (z=2) / 1e-6 (z=1).
    """
    with criterion(3, "initialization structural guarantees"):
        rng = np.random.default_rng(3)
        for i in range(100):
            z = 2 if i % 2 == 0 else 1
            tol = 1e-9 if z == 2 else 1e-6
            n = int(rng.integers(20, 201))
            k = int(rng.integers(1, 6))
            ps = random_weighted_set(rng, n, int(rng.integers(2, 5)))
            run = k_clustering_doubled(ps, k, z=z)

            for ci in range(run.base.k):
                idx = run.base.cluster_indices(ci)
                if idx.size == 0:
                    continue
                cluster = ps.subset(idx)
                fresh, _ = one_center(cluster, z, tol=1e-10)
                movement = float(np.linalg.norm(fresh - run.base.centers[ci]))
                assert movement <= tol, (i, ci, movement)

            assert run.doubled.cost <= run.split_costs.sum() + tol, i

            mu, _ = one_center(ps, z, tol=1e-10)
            d = np.linalg.norm(ps.points - mu, axis=1)
            worst = ps.points[int(np.argmax(ps.weights * d**z))]
            seeded_cost = clustering_cost(ps, np.vstack([mu, worst]), z=z)
            two = k_clustering(ps, 2, z=z)
            assert two.cost <= seeded_cost + tol, i
        print("  100 instances, all three inequalities hold")


# ---------------------------------------------------------------------------
# 04: engine vs exhaustive optimum, and the optimal-partition bounds


def test_04_engine_vs_exhaustive_and_partition_bounds():
    """200 tiny instances against the exhaustive-search optimum.

    The engine never reports a cost below the true optimum (within 1e-9).
    On the optimal k-partition itself: every cluster's 1-vs-2-center gap is
    at most the whole set's k-vs-2k gap, and every point sits within
    (cluster gap / w_min)^(1/z) of its cluster's 1-center.  Budget 2 min.
    """
    with criterion(4, "engine matches exhaustive search + partition bounds"):
        started = time.perf_counter()
        rng = np.random.default_rng(4)
        for i in range(200):
            z = 1 if i % 4 == 3 else 2
            k = 2 if (i % 8) < 4 else 3
            # exhaustive search is exponential in n, and far steeper for
            # z=1 where every subset needs an iterative 1-median solve
            n = 5 + (i % 5) if z == 2 else 5 + ((i // 4) % 4)
            ps = random_weighted_set(rng, n, int(rng.integers(2, 4)))

            big = brute_force_optimal(ps, min(2 * k, n), z=z)
            opt_k = float(big.costs_by_size[k - 1])
            opt_2k = float(big.costs_by_size[min(2 * k, n) - 1])
            engine = k_clustering(ps, k, z=z)
            assert engine.cost >= opt_k - 1e-9, i

            whole_gap = max(opt_k - opt_2k, 0.0)
            for part in brute_force_optimal(ps, k, z=z).parts:
                sub = ps.subset(np.asarray(part, dtype=int))
                sub_bf = brute_force_optimal(sub, min(2, sub.size), z=z)
                opt1 = float(sub_bf.costs_by_size[0])
                opt2 = float(sub_bf.costs_by_size[-1])
                cluster_gap = max(opt1 - opt2, 0.0)
                assert cluster_gap <= whole_gap + 1e-9, i

                mu, _ = one_center(sub, z, tol=1e-10)
                reach = (cluster_gap / ps.w_min) ** (1.0 / z)
                dists = np.linalg.norm(sub.points - mu, axis=1)
                assert np.all(dists <= reach + 1e-9), i
        elapsed = time.perf_counter() - started
        assert elapsed < 120.0, f"budget exceeded: {elapsed:.1f}s"
        print(f"  200 instances, zero violations, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 05: the distributed protocol conserves weight and estimates without bias


def fixed_protocol_instance(K: int):
    ps = synthetic_uniform(500, 3, 0.0, 10.0, seed=11)
    shards = partition_dataset(ps, ShardSpec(scheme="uniform", n=3, seed=5))
    ladders = node_local_centers(shards, K=K, z=1)
    costs = [[run.cost for run in runs] for runs in ladders]
    model = np.random.default_rng(99).uniform(0.0, 10.0, size=(3, 3))
    point_costs = [
        cdist(shard.points, model).min(axis=1) for shard in shards
    ]
    true_cost = sum(
        float((shard.weights * costs).sum())
        for shard, costs in zip(shards, point_costs)
    )
    return ps, shards, ladders, costs, model, point_costs, true_cost


def protocol_estimate(shards, ladders, model, config, run_seed):
    """One allocate-and-sample round; returns (estimate, conserved)."""
    estimate = 0.0
    conserved = True
    for j, (shard, ladder) in enumerate(zip(shards, ladders)):
        local = node_sample(
            shard, ladder[config.k_alloc[j] - 1], config.t_alloc[j], config.c_over_t,
            seed=run_seed * 131 + j,
        )
        conserved &= (
            abs(local.total_weight - shard.total_weight)
            <= 1e-9 * shard.total_weight
        )
        if local.sample_points.shape[0]:
            estimate += float(
                (local.sample_weights * cdist(local.sample_points, model).min(axis=1)).sum()
            )
        estimate += float(
            (local.center_weights * cdist(local.center_points, model).min(axis=1)).sum()
        )
    return estimate, conserved


def test_05_distributed_conservation_and_unbiasedness():
    """1000 protocol rounds on a 500-point, 3-node instance.

    Every round conserves total weight to 1e-9 relative; the mean of the
    coreset's cost estimate for a fixed 3-center model lands within 4
    standard errors of the true cost.  Budget 3 minutes.
    """
    with criterion(5, "distributed conservation + unbiasedness"):
        started = time.perf_counter()
        _, shards, ladders, costs, model, _, true_cost = fixed_protocol_instance(K=5)
        estimates = []
        for run in range(1000):
            config = server_allocate(costs, N=25, seed=run)
            estimate, conserved = protocol_estimate(shards, ladders, model, config, run)
            assert conserved, run
            estimates.append(estimate)
        estimates = np.array(estimates)
        se = estimates.std(ddof=1) / math.sqrt(estimates.size)
        gap = abs(estimates.mean() - true_cost)
        assert gap <= 4.0 * se, (estimates.mean(), true_cost, se)
        elapsed = time.perf_counter() - started
        assert elapsed < 180.0, f"budget exceeded: {elapsed:.1f}s"
        print(f"  mean gap {gap:.4g} <= 4 x SE {se:.4g}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 06: pinning the allocator reduces one protocol to the other exactly


def test_06_fixed_allocation_reduction_is_bit_exact():
    """With every node pinned to k centers the two protocols coincide."""
    with criterion(6, "fixed-allocation reduction bit-exact"):
        ps = synthetic_uniform(90, 3, 0.0, 1.0, seed=6)  # unit weights
        shards = partition_dataset(ps, ShardSpec(scheme="uniform", n=3, seed=2))
        via_pin, _ = drcc(shards, N=24, K=2, z=2, seed=9, k_fixed=2)
        direct = cdcc(shards, N=24, k=2, z=2, seed=9)
        assert np.array_equal(via_pin.points, direct.points)
        assert np.array_equal(via_pin.weights, direct.weights)
        assert via_pin.provenance == direct.provenance
        print("  identical points, weights and provenance")


# ---------------------------------------------------------------------------
# 07: sampling error shrinks like one over the square root of the budget


def test_07_error_scales_with_inverse_sqrt_budget():
    """Std of the cost estimate vs sample count: log-log slope near -1/2.

    200 rounds at t in {50, 100, 200, 400} with one center per node; the
    fitted slope must lie in [-0.65, -0.35].
    """
    with criterion(7, "error scales like 1/sqrt(sample count)"):
        _, shards, ladders, costs, model, _, _ = fixed_protocol_instance(K=1)
        sample_counts = [50, 100, 200, 400]
        spreads = []
        for t in sample_counts:
            estimates = []
            for run in range(200):
                config = server_allocate(costs, N=t + 3, seed=run, k_fixed=1)
                assert config.t == t
                estimate, conserved = protocol_estimate(
                    shards, ladders, model, config, 7000 + run
                )
                assert conserved
                estimates.append(estimate)
            spreads.append(np.std(estimates, ddof=1))
        slope = np.polyfit(np.log(sample_counts), np.log(spreads), 1)[0]
        assert -0.65 <= slope <= -0.35, (slope, spreads)
        print(f"  fitted slope {slope:.3f} in [-0.65, -0.35]")


# ---------------------------------------------------------------------------
# 08: the diameter helper reproduces the five reference values


def test_08_diameter_reference_values():
    """compute_delta matches the published table to +/- 0.05."""
    with criterion(8, "diameter reference values"):
        table = [
            ((5, 3), 4.5),
            ((19, 4), 13.4),
            ((17, 10), 36.2),
            ((401, 10), 181.1),
            ((562, 6), 120.8),
        ]
        for (dim, labels), expected in table:
            got = compute_delta(dim, labels)
            assert abs(got - expected) <= 0.05, ((dim, labels), got, expected)
        print("  5/5 values within 0.05")


# ---------------------------------------------------------------------------
# 09: per-point smoothness constants hold over random triples


def test_09_lipschitz_bounds_never_violated():
    """10^4 random (p, q, model) triples per problem, zero violations.

    Points live in the normalized labeled sample space ([0,1]^4 features,
    one label coordinate in {0, 2, 4}); models are sampled from the same
    space (centers) or as random orthonormal frames (subspaces).
    """
    with criterion(9, "per-point smoothness constants"):
        rng = np.random.default_rng(9)
        n = 10_000
        delta = compute_delta(5, 3)

        def space_points(m):
            features = rng.uniform(0.0, 1.0, size=(m, 4))
            labels = rng.integers(0, 3, size=(m, 1)) * 2.0
            return np.hstack([features, labels])

        p, q = space_points(n), space_points(n)
        dpq = np.linalg.norm(p - q, axis=1)
        slack = 1e-9
        violations = {}

        center = space_points(n)
        fp = np.linalg.norm(p - center, axis=1)
        fq = np.linalg.norm(q - center, axis=1)
        rho = lipschitz_rho("meb")
        violations["meb"] = int(np.sum(np.abs(fp - fq) > rho * dpq + slack))

        centers = space_points(2 * n).reshape(n, 2, 5)
        dp = np.linalg.norm(p[:, None, :] - centers, axis=2).min(axis=1)
        dq = np.linalg.norm(q[:, None, :] - centers, axis=2).min(axis=1)
        rho = lipschitz_rho("kmedian")
        violations["kmedian"] = int(np.sum(np.abs(dp - dq) > rho * dpq + slack))
        rho = lipschitz_rho("kmeans", delta=delta)
        violations["kmeans"] = int(np.sum(np.abs(dp**2 - dq**2) > rho * dpq + slack))

        frames, _ = np.linalg.qr(rng.normal(size=(n, 5, 2)))
        res_p = (p**2).sum(axis=1) - (np.einsum("nd,ndl->nl", p, frames) ** 2).sum(axis=1)
        res_q = (q**2).sum(axis=1) - (np.einsum("nd,ndl->nl", q, frames) ** 2).sum(axis=1)
        rho = lipschitz_rho("pca", delta=delta, l=2)
        violations["pca"] = int(np.sum(np.abs(res_p - res_q) > rho * dpq + slack))

        assert violations == {"meb": 0, "kmedian": 0, "kmeans": 0, "pca": 0}
        print(f"  4 x {n} triples, zero violations")


# ---------------------------------------------------------------------------
# 10: quality ordering against the baselines on raw (unnormalized) data


def test_10_quality_ordering_on_uniform_cube():
    """4000 raw points in [1, 50]^3, size-8 coresets, 100 seeded baseline runs.

    The seed-free clustering-center coreset must beat uniform sampling on
    the mean normalized enclosing-ball cost and beat farthest-point
    selection on the mean normalized 2-means cost.  Budget 5 minutes.
    """
    with criterion(10, "quality ordering vs baselines"):
        started = time.perf_counter()
        ps = synthetic_uniform(4000, 3, 1.0, 50.0, seed=42)
        problems = {
            "meb": make_problem("meb"),
            "kmeans": make_problem("kmeans", k=2),
        }
        full = {}
        for name, problem in problems.items():
            model = solve_problem(problem, ps)
            full[name] = problem_cost(problem, ps, model)

        def score(coreset, problem_name):
            problem = problems[problem_name]
            trained = solve_problem(problem, coreset.to_pointset())
            return problem_cost(problem, ps, trained) / full[problem_name]

        # the clustering coreset draws no randomness, so it is built and
        # scored once; the baselines are averaged over 100 seeded runs
        coreset = rcc_fixed_size(ps, 8, z=2)
        mean = {("rcc", name): score(coreset, name) for name in problems}
        sums = {("uniform", "meb"): 0.0, ("farthest", "kmeans"): 0.0}
        for run in range(100):
            sums[("uniform", "meb")] += score(uniform_sample(ps, 8, seed=run), "meb")
            sums[("farthest", "kmeans")] += score(farthest_point(ps, 8, seed=run), "kmeans")
        mean.update({key: value / 100.0 for key, value in sums.items()})
        assert mean[("rcc", "meb")] <= mean[("uniform", "meb")], mean
        assert mean[("rcc", "kmeans")] <= mean[("farthest", "kmeans")], mean
        elapsed = time.perf_counter() - started
        assert elapsed < 300.0, f"budget exceeded: {elapsed:.1f}s"
        print(
            f"  meb {mean[('rcc', 'meb')]:.4f} <= {mean[('uniform', 'meb')]:.4f}, "
            f"kmeans {mean[('rcc', 'kmeans')]:.4f} <= "
            f"{mean[('farthest', 'kmeans')]:.4f}, {elapsed:.1f}s"
        )


# ---------------------------------------------------------------------------
# 11: the protocol's bookkeeping traffic is exactly K*n + 3n scalars


def test_11_communication_overhead_formula_exact():
    """Trace overhead (excluding coreset payload) is K*n + 3n, always."""
    with criterion(11, "communication overhead K*n + 3n"):
        ps = synthetic_uniform(240, 3, 0.0, 1.0, seed=7)
        for n, K in ((2, 1), (3, 4), (4, 2), (5, 5)):
            shards = partition_dataset(ps, ShardSpec(scheme="uniform", n=n, seed=n))
            _, trace = drcc(shards, N=n * K + 12, K=K, z=1, seed=n)
            assert trace.overhead_scalars == K * n + 3 * n, (n, K)

        labeled = synthetic_blobs(120, num_features=3, num_labels=3, seed=1)
        shards = partition_dataset(labeled, ShardSpec(scheme="specialized", n=3))
        _, trace = drcc(shards, N=20, K=4, z=2, seed=0)
        assert trace.overhead_scalars == 4 * 3 + 3 * 3

        _, trace = drcc(shards, N=20, K=2, z=2, seed=0, k_fixed=2)
        assert trace.overhead_scalars == 2 * 3 + 3 * 3
        print("  6 protocol configurations, formula exact")
