"""Tests for the k-clustering engine against independent oracles.

The oracles in tests/oracles.py take deliberately different routes
(partition enumeration, derivative-free optimization) so agreement is
meaningful.  A handful of oracle outputs are frozen as constants for one
fixed instance to pin the expected scale.
"""

import numpy as np
import pytest
from scipy.spatial.distance import cdist
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kcoreset import clustering
from kcoreset import (
    ClusteringResult,
    ValidationError,
    WeightedPointSet,
    add_costliest_point,
    brute_force_optimal,
    clustering_cost,
    k_clustering,
    k_clustering_doubled,
    normalize_features,
    one_center,
    synthetic_blobs,
    synthetic_uniform,
)
from oracles import (
    exhaustive_clustering,
    one_center_oracle,
    random_instance,
)
import reference_weiszfeld

# Oracle outputs for random_instance(7, n_range=(7,7), dim_range=(3,3)),
# computed once by the reference implementations and frozen.
FROZEN_SEED7_OPT_K2_Z2 = 14.136126122729557
FROZEN_SEED7_OPT_K2_Z1 = 11.252554932461612
FROZEN_SEED7_MEDIAN_COST = 18.419575644815467


def as_set(points, weights=None):
    points = np.asarray(points, dtype=float)
    if weights is None:
        weights = np.ones(len(points))
    return WeightedPointSet(points, np.asarray(weights, dtype=float))


def fresh_copy(ps):
    """The same data in a new point set, which shares no clustering run with ``ps``."""
    return WeightedPointSet(ps.points.copy(), ps.weights.copy())


def assert_same_run(a, b):
    assert np.array_equal(a.centers, b.centers)
    assert np.array_equal(a.assignment, b.assignment)
    assert np.array_equal(a.distances, b.distances)
    assert (a.cost, a.z, a.iterations, a.converged) == (b.cost, b.z, b.iterations, b.converged)
    assert a.cost_history == b.cost_history


def pull_at(points, weights, y):
    """sum_p w_p (p - y) / ||p - y||, the descent direction of the 1-median cost at y."""
    d = np.linalg.norm(points - y, axis=1)
    return ((points - y) * (weights / d)[:, None]).sum(axis=0)


def seed7_instance():
    return random_instance(7, n_range=(7, 7), dim_range=(3, 3))


class TestCost:
    def test_matches_direct_formula(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(15, 3))
        w = rng.uniform(0.5, 2.0, 15)
        centers = rng.normal(size=(4, 3))
        ps = as_set(pts, w)
        for z in (1, 2):
            expected = sum(
                wi * min(np.linalg.norm(p - c) for c in centers) ** z
                for p, wi in zip(pts, w)
            )
            assert clustering_cost(ps, centers, z) == pytest.approx(expected, rel=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            clustering_cost(as_set([[0.0, 0.0]]), np.zeros((1, 3)))

    def test_bad_z_rejected(self):
        with pytest.raises(ValidationError):
            clustering_cost(as_set([[0.0]]), np.zeros((1, 1)), z=3)
        with pytest.raises(ValidationError):
            one_center(as_set([[0.0]]), 3)

    def test_assignment_ties_take_lowest_index(self):
        points = np.array([[0.0, 0.0]])
        centers = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        assert clustering._trivial_result(points, np.ones(1), centers, 2).assignment[0] == 0


class TestOneCenter:
    def test_one_mean_is_weighted_average(self):
        rng = np.random.default_rng(11)
        pts = rng.normal(size=(12, 4))
        w = rng.uniform(0.1, 5.0, 12)
        center, cost = one_center(as_set(pts, w), 2)
        assert np.allclose(center, w @ pts / w.sum())
        assert cost == pytest.approx(float(w @ ((pts - center) ** 2).sum(axis=1)))

    def test_one_median_matches_frozen_oracle_cost(self):
        pts, w = seed7_instance()
        _, cost = one_center(as_set(pts, w), 1)
        assert cost == pytest.approx(FROZEN_SEED7_MEDIAN_COST, abs=1e-7)

    @pytest.mark.parametrize("seed", range(12))
    def test_median_cost_never_beats_nor_trails_oracle(self, seed):
        pts, w = random_instance(seed, n_range=(3, 10), dim_range=(1, 4))
        center = one_center(as_set(pts, w), 1)[0]
        cost = float(w @ np.linalg.norm(pts - center, axis=1))
        _, oracle_cost = one_center_oracle(pts, w, 1)
        # the objective is convex: neither route may see a lower value than
        # the other beyond solver tolerance
        assert cost <= oracle_cost + 1e-7
        assert cost >= oracle_cost - 1e-7

    def test_median_of_collinear_points_is_middle(self):
        pts = np.array([[0.0], [1.0], [10.0]])
        center = one_center(as_set(pts, np.ones(3)), 1)[0]
        assert center[0] == pytest.approx(1.0, abs=1e-6)

    def test_heavy_point_pins_the_median(self):
        # one point outweighs the combined pull of all others
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
        w = np.array([10.0, 1.0, 1.0, 1.0])
        center = one_center(as_set(pts, w), 1)[0]
        assert np.allclose(center, [0.0, 0.0], atol=1e-9)

    def test_flat_two_group_median_converges_fast(self, monkeypatch):
        # two tight groups 2 apart along the last coordinate, as the label
        # encoding puts them: the cost is flat along the line between them,
        # where Weiszfeld crawls (304 steps from the mean) but Newton does not
        rng = np.random.default_rng(0)
        pts = rng.normal(0.0, 0.05, size=(98, 4))
        pts[50:, -1] += 2.0
        w = np.ones(98)
        monkeypatch.setattr(clustering, "WEISZFELD_MAX_ITER", 100)
        center = one_center(as_set(pts, w), 1)[0]
        assert np.linalg.norm(pull_at(pts, w, center)) <= clustering.DEFAULT_MEDIAN_TOL

    def test_vertex_optimum_is_returned_exactly(self):
        # the heavy point outweighs the pull of the other two by 1e-3 only,
        # so Weiszfeld creeps towards it; Kuhn's test stops on it.  Plain
        # Weiszfeld stops after 5000 steps at (0.004, 0), at cost 2.0099793
        pts = np.array([[0.0, 0.0], [1.0, 0.1], [1.0, -0.1]])
        w = np.array([2.0 * np.cos(np.arctan(0.1)) + 1e-3, 1.0, 1.0])
        center = one_center(as_set(pts, w), 1)[0]
        assert np.array_equal(center, [0.0, 0.0])
        assert w @ np.linalg.norm(pts - center, axis=1) < 2.0099793

    def test_median_of_single_point(self):
        assert np.array_equal(
            one_center(as_set(np.array([[3.0, 4.0]]), np.array([2.0])), 1)[0],
            [3.0, 4.0],
        )

    def test_median_of_two_points_lies_on_segment(self):
        pts = np.array([[0.0, 0.0], [2.0, 0.0]])
        center = one_center(as_set(pts, np.array([1.0, 1.0])), 1)[0]
        cost = float(np.linalg.norm(pts - center, axis=1).sum())
        assert cost == pytest.approx(2.0, abs=1e-8)


class TestEngine:
    def test_k_equals_n_returns_points_at_zero_cost(self):
        pts, w = seed7_instance()
        res = k_clustering(as_set(pts, w), 7)
        assert res.cost == 0.0
        assert np.array_equal(res.centers, pts)

    def test_k_one_matches_one_center(self):
        pts, w = seed7_instance()
        ps = as_set(pts, w)
        res2 = k_clustering(ps, 1, z=2)
        assert res2.cost == pytest.approx(one_center(ps, 2)[1])
        res1 = k_clustering(ps, 1, z=1)
        assert res1.cost == pytest.approx(one_center(ps, 1)[1], abs=1e-9)

    @pytest.mark.parametrize("k", [4, 5])
    def test_deterministic_at_odd_and_even_k(self, k):
        # the engine draws no randomness: the data alone fixes every run,
        # also in a recursion that shares nothing with the first one
        ps = as_set(*random_instance(21, n_range=(40, 40)))
        a = k_clustering(ps, k)
        b = k_clustering(fresh_copy(ps), k)
        assert np.array_equal(a.centers, b.centers)
        assert np.array_equal(a.assignment, b.assignment)
        assert a.cost == b.cost

    @pytest.mark.parametrize("z", [1, 2])
    @pytest.mark.parametrize("seed", range(12))
    def test_odd_k_finds_every_blob(self, z, seed):
        # the extra center of k = 3 goes to the costliest point, never to a
        # random point in a blob that the k = 2 split already covers
        ps = normalize_features(synthetic_blobs(2000, 4, 3, seed=seed))
        labels = np.rint(ps.label_values() / ps.encoding.tau).astype(int)
        run = k_clustering(ps, 3, z)
        majority = [np.bincount(run.assignment[labels == label], minlength=3).argmax()
                    for label in range(3)]
        assert sorted(majority) == [0, 1, 2]

    @pytest.mark.parametrize("z", [1, 2])
    @pytest.mark.parametrize("seed", range(8))
    def test_cost_history_never_increases(self, z, seed):
        ps = as_set(*random_instance(seed, n_range=(15, 40)))
        res = k_clustering(ps, 5, z=z)
        history = np.array(res.cost_history)
        assert np.all(np.diff(history) <= 1e-9 * (1.0 + history[0]))

    @pytest.mark.parametrize("z", [1, 2])
    def test_never_beats_exhaustive_optimum(self, z):
        for seed in range(6):
            pts, w = random_instance(100 + seed, n_range=(5, 7), dim_range=(2, 3))
            ps = as_set(pts, w)
            k = 2 + seed % 2
            res = k_clustering(ps, k, z=z)
            opt, _ = exhaustive_clustering(pts, w, k, z)
            assert res.cost >= opt - 1e-7 * (1.0 + opt)

    def test_centers_are_one_center_optimal_for_their_clusters(self):
        for seed in range(6):
            ps = as_set(*random_instance(200 + seed, n_range=(20, 50)))
            for z in (1, 2):
                res = k_clustering(ps, 4, z=z)
                assert res.converged
                tol = 1e-9 if z == 2 else 1e-6
                for i in range(res.k):
                    idx = res.cluster_indices(i)
                    if idx.size == 0:
                        continue
                    part = ps.subset(idx)
                    best = one_center(part, z)[1]
                    got = clustering_cost(part, res.centers[i], z)
                    assert got <= best + tol * (1.0 + best)

    def test_identical_points_cost_zero_any_k(self):
        pts = np.tile([[1.5, -2.0]], (6, 1))
        ps = as_set(pts)
        for k in (1, 2, 3):
            assert k_clustering(ps, k).cost == 0.0

    def test_duplicate_heavy_points_still_converge(self):
        pts = np.array([[0.0, 0.0]] * 3 + [[5.0, 5.0]] * 3 + [[9.0, 0.0]])
        res = k_clustering(as_set(pts), 3)
        assert res.cost == pytest.approx(0.0, abs=1e-18)

    def test_invalid_k_rejected(self):
        ps = as_set([[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(ValidationError):
            k_clustering(ps, 0)
        with pytest.raises(ValidationError):
            k_clustering(ps, 3)

    @pytest.mark.parametrize("z", [1, 2])
    def test_add_costliest_point_grows_run_without_raising_cost(self, z):
        ps = as_set(*random_instance(31, n_range=(25, 25)))
        run = k_clustering(ps, 3, z=z)
        grown = add_costliest_point(ps, run)
        assert grown.k == run.k + 1
        assert grown.cost <= run.cost + 1e-9 * (1.0 + run.cost)

        # one point per center, and three coinciding points per center
        for reps in (1, 3):
            on_centers = as_set([[0.0, 0.0]] * reps + [[3.0, 1.0]] * reps)
            run = k_clustering(on_centers, 2, z=z)
            grown = add_costliest_point(on_centers, run)
            assert (grown.k, grown.cost, grown.iterations) == (3, 0.0, 0)
            assert np.array_equal(grown.centers[2], run.centers[0])

    def test_heavy_point_and_interior_median_in_one_run(self):
        # z=1 recenters both clusters in one Weiszfeld pass: one cluster's
        # median is its heavy data point (coinciding-point test), the
        # other's lies between its points (gradient test)
        heavy = [[10.3, -7.1], [11.3, -7.1], [10.3, -6.1], [9.3, -8.1]]
        light = [[0.0, 0.0], [2.0, 0.1], [0.7, 1.9]]
        ps = as_set(heavy + light, [10.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
        res = k_clustering(ps, 2, z=1)
        assert res.converged
        a, b = res.assignment[0], res.assignment[4]
        assert np.array_equal(res.assignment, [a] * 4 + [b] * 3)
        assert np.array_equal(res.centers[a], heavy[0])
        diff = res.centers[b] - np.array(light)
        grad = (diff / np.linalg.norm(diff, axis=1)[:, None]).sum(axis=0)
        assert np.linalg.norm(grad) <= 1e-8  # one_center's default tolerance

    def test_coinciding_points_cost_exactly_zero(self):
        # the 1-median of a cluster of coinciding points is that point, not
        # a Weiszfeld iterate an ULP away from it
        ps = as_set([[0.0, 0.0]] * 3 + [[3.0, 1.0]] * 3)
        res = k_clustering(ps, 2, z=1)
        assert res.cost == 0.0
        assert {tuple(c) for c in res.centers} == {(0.0, 0.0), (3.0, 1.0)}


@st.composite
def clustered_sets(draw):
    """Small weighted sets on an integer grid, so points often coincide,
    plus one far point that ends up alone in its cluster."""
    dim = draw(st.integers(1, 3))
    coords = st.lists(st.integers(-4, 4), min_size=dim, max_size=dim)
    base = draw(st.lists(coords, min_size=3, max_size=8))
    repeats = draw(st.lists(st.integers(0, len(base) - 1), max_size=3))
    points = np.array(base + [base[i] for i in repeats] + [[100] * dim], dtype=float)
    weights = draw(st.lists(st.floats(0.5, 3.0), min_size=len(points), max_size=len(points)))
    return points, np.array(weights)


@pytest.mark.parametrize("z", [1, 2])
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=clustered_sets(), k=st.integers(2, 4))
def test_every_cluster_center_is_its_one_center(z, data, k):
    pts, w = data
    res = k_clustering(as_set(pts, w), k, z=z)
    assert res.converged
    assert np.sum(res.assignment == res.assignment[-1]) == 1
    tol = 1e-9 if z == 2 else 1e-7
    for i in range(res.k):
        idx = res.cluster_indices(i)
        if idx.size == 0:
            continue
        got = float(w[idx] @ np.linalg.norm(pts[idx] - res.centers[i], axis=1) ** z)
        _, best = one_center_oracle(pts[idx], w[idx], z)
        assert abs(got - best) <= tol * (1.0 + best)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=clustered_sets(), exponent=st.floats(-12.0, 6.0))
@example(data=(np.array([[0.0, 0.0], [0.0, 0.0], [10.0, 0.0], [0.0, 1.0]]), np.ones(4)),
         exponent=-9.0)
def test_one_median_cost_scales_with_the_weights(data, exponent):
    # Weiszfeld's stopping tests scale with a light set's weight, so its
    # median is where a heavy copy's is, not its starting mean
    pts, w = data
    scale = 10.0 ** exponent
    cost = k_clustering(as_set(pts, w), 1, z=1).cost
    scaled = k_clustering(as_set(pts, scale * w), 1, z=1).cost / scale
    assert scaled == pytest.approx(cost, rel=1e-6)


def split_cost_at_z1(part, one):
    """A cluster's z=1 split cost: the z=1 cost of a 2-means run from its
    seeds {its center in ``one``, its 1-center run, and its first costliest
    row by w*d}, or the seeds' z=1 cost where that is lower."""
    scores = part.weights * one.distances
    if scores.max() == 0.0:
        return 0.0
    seeds = np.vstack([one.centers, part.points[np.argmax(scores)]])
    pair = clustering._lloyd(part.points, part.weights, seeds, 2).centers
    return min(clustering_cost(part, pair, 1), clustering_cost(part, seeds, 1))


def split_bound(ps, run):
    """Each cluster of ``run.base`` on ``ps``: its cost and its costliest
    point's, and the slack that rounding may add to a cost."""
    base = run.base
    scores = ps.weights * base.distances**base.z
    cost = np.bincount(base.assignment, scores, minlength=base.k)
    top = np.zeros(base.k)
    np.maximum.at(top, base.assignment, scores)
    return cost, top, (1e-9 if base.z == 2 else 1e-6) * (1.0 + base.cost)


@pytest.mark.parametrize("scale", [1e6, 2.0**20])
def test_heavy_weights_take_the_passes_and_cost_of_unit_weights(scale):
    # Weiszfeld's stop tests scale with a segment's mean row weight, so a
    # run on much heavier rows stops where the unit-weight run does
    u = synthetic_uniform(2000, 5, 0.0, 1.0, seed=3)
    unit = k_clustering(u, 8, z=1)
    heavy = k_clustering(WeightedPointSet(u.points, scale * u.weights), 8, z=1)
    assert heavy.iterations == unit.iterations
    assert heavy.cost / scale == pytest.approx(unit.cost, rel=1e-9)
    if scale == 2.0**20:  # a power of two scales every rounding exactly
        assert np.array_equal(heavy.centers, unit.centers)
        assert heavy.cost == scale * unit.cost


class TestDoubledRun:
    """Runs and their 2k-center continuations.

    A point set keeps the runs made on it, so a monkeypatched engine
    constant (LLOYD_MAX_ITER, WEISZFELD_*) takes effect only on point sets
    built after the patch; every test here builds its own.
    """

    @pytest.mark.parametrize("z", [1, 2])
    @pytest.mark.parametrize("seed", range(10))
    def test_gap_nonnegative_and_split_sandwich(self, z, seed):
        # the gap certificate needs more than the sandwich: each split costs
        # at most its cluster less its costliest point, so gap >= that point
        ps = as_set(*random_instance(300 + seed, n_range=(12, 60)))
        k = 1 + seed % 4
        run = k_clustering_doubled(ps, k, z=z)
        cost, top, slack = split_bound(ps, run)
        assert run.doubled.cost <= run.split_costs.sum() + slack
        assert run.split_costs.sum() <= run.base.cost + slack
        assert np.all(run.split_costs <= cost - top + slack)
        assert run.gap >= top.max() - slack

    def test_matches_plain_run_of_double_size(self):
        ps = as_set(*random_instance(41, n_range=(30, 30)))
        for k, z, seed in [(3, 2, 5), (2, 1, 9), (5, 2, 1)]:
            run = k_clustering_doubled(ps, k, z=z)
            plain = k_clustering(fresh_copy(ps), 2 * k, z=z)
            assert np.array_equal(run.doubled.centers, plain.centers)
            assert run.doubled.cost == plain.cost

    def test_doubling_past_n_returns_all_points(self):
        ps = as_set(*random_instance(55, n_range=(9, 9)))
        run = k_clustering_doubled(ps, 5, z=2)
        assert run.doubled.cost == 0.0
        assert run.doubled.k == ps.size

    @pytest.mark.parametrize("z", [1, 2])
    def test_split_costs_match_growing_each_clusters_one_center_run(self, z):
        # reference: add_costliest_point on the 1-center run of each cluster
        # at its center in the base run, a 2-means run at z=1 (see
        # split_cost_at_z1); an empty cluster's split costs 0
        rng = np.random.default_rng(17)
        grids = [
            as_set(rng.integers(0, side, size=(40, 2)), rng.integers(1, 4, size=40))
            for side in (2, 3, 3)
        ]
        sets = grids + [synthetic_blobs(120, 3, 3, seed=s) for s in (0, 1)]
        # dim 9: numpy sums 8 or more squared differences pairwise, cdist does not
        sets.append(synthetic_uniform(120, 9, 0.0, 1.0, seed=2))
        seen_empty = seen_zero = 0
        for ps in sets:
            for k in (2, 3, 5, 8):
                run = k_clustering_doubled(ps, k, z=z)
                base = run.base
                for i in range(base.k):
                    idx = base.cluster_indices(i)
                    if idx.size == 0:
                        seen_empty += 1
                        assert run.split_costs[i] == 0.0
                        continue
                    part = WeightedPointSet(ps.points[idx], ps.weights[idx])
                    center = base.centers[i : i + 1]
                    one = ClusteringResult(
                        centers=center, assignment=np.zeros(idx.size, dtype=np.intp),
                        distances=cdist(part.points, center)[:, 0],
                        cost=clustering_cost(part, center, z), z=z,
                        iterations=0, converged=True,
                    )
                    if z == 2:
                        expected = add_costliest_point(part, one).cost
                        assert run.split_costs[i] == expected
                    else:
                        expected = split_cost_at_z1(part, one)
                        assert run.split_costs[i] == pytest.approx(expected, rel=1e-12)
                    seen_zero += expected == 0.0
        assert seen_empty and seen_zero

    @pytest.mark.parametrize("max_iter", [1, 2])
    @pytest.mark.parametrize("z", [1, 2])
    def test_split_costs_match_under_a_pass_cap(self, monkeypatch, z, max_iter):
        # all splits of a level share one Lloyd call, yet each stops on its
        # own convergence or its own pass cap, as its one-problem run does
        monkeypatch.setattr(clustering, "LLOYD_MAX_ITER", max_iter)
        self.test_split_costs_match_growing_each_clusters_one_center_run(z)

    def test_a_split_costlier_than_its_seeds_keeps_the_seeds(self):
        # the median sits on the heavy row at 0; 2-means splits off the
        # costliest row at -1 and pulls the other center to the mean 1/3 of
        # the rows at 0 and 1, which costs more at z=1 than the seeds, and
        # even more than the median alone
        ps = as_set([[-1.0], [0.0]] + [[1.0]] * 50, [1.01, 100.0] + [1.0] * 50)
        run = k_clustering_doubled(ps, 1, z=1)
        assert np.array_equal(run.base.centers, [[0.0]])
        seeds = np.array([[0.0], [-1.0]])
        pair = clustering._lloyd(ps.points, ps.weights, seeds, 2).centers
        assert clustering_cost(ps, pair, 1) > run.base.cost
        assert run.split_costs[0] == clustering_cost(ps, seeds, 1) == 50.0
        init, split_costs = clustering._recursion_of(ps, 1)._split(1)[0]
        assert np.array_equal(init, seeds)
        assert split_costs is run.split_costs
        assert run.doubled.cost <= run.split_costs.sum()

    def test_a_z1_split_level_makes_no_weiszfeld_call(self, monkeypatch):
        calls = []

        def counting_weiszfeld(*args):
            calls.append(args)
            return weiszfeld(*args)

        weiszfeld = clustering._weiszfeld
        monkeypatch.setattr(clustering, "_weiszfeld", counting_weiszfeld)
        ps = synthetic_blobs(300, 3, 4, seed=3)
        bases = [k_clustering(ps, 4, z=1)]
        assert calls  # the patch reaches the z=1 rungs
        calls.clear()
        (init, split_costs), = clustering._split_init([(ps.points, ps.weights)], bases)
        assert not calls
        assert init.shape == (8, ps.dim) and 0.0 < split_costs.sum() < bases[0].cost


@st.composite
def split_sets(draw):
    """Two weighted sets for one split level: grid rows that often coincide,
    a block of identical rows far off (a zero-cost cluster) and one row
    farther off (a one-row cluster), with weights from 1e-3 to 1e3."""
    dim = draw(st.integers(1, 3))
    sets = []
    for _ in range(2):
        coords = st.lists(st.integers(-3, 3), min_size=dim, max_size=dim)
        base = draw(st.lists(coords, min_size=2, max_size=10))
        repeats = draw(st.lists(st.integers(0, len(base) - 1), max_size=4))
        block = [[-50] * dim] * draw(st.integers(0, 3))
        rows = base + [base[i] for i in repeats] + block + [[100] * dim]
        exponents = draw(st.lists(st.floats(-3.0, 3.0), min_size=len(rows), max_size=len(rows)))
        sets.append(as_set(rows, 10.0 ** np.array(exponents)))
    return sets


@pytest.mark.parametrize("z", [1, 2])
@settings(max_examples=30, deadline=None, derandomize=True)
@given(sets=split_sets(), k=st.integers(1, 4))
def test_split_sandwich_and_multi_set_split_equals_solo(z, sets, k):
    together = clustering._Recursion(sets, z)
    for ps, run, split in zip(sets, together.doubled(k), together._split(k)):
        slack = (1e-9 if z == 2 else 1e-6) * (1.0 + run.base.cost)
        assert run.doubled.cost <= run.split_costs.sum() + slack
        assert run.split_costs.sum() <= run.base.cost + slack
        cost, top, _ = split_bound(ps, run)
        assert np.all(run.split_costs <= cost - top + slack)
        alone = clustering._Recursion([fresh_copy(ps)], z)
        (init, split_costs), = alone._split(k)
        assert np.array_equal(split[0], init)
        assert np.array_equal(split[1], split_costs)


class TestSharedRuns:
    """Runs kept with their point set: every caller on the same set shares them.

    A monkeypatched engine constant (LLOYD_MAX_ITER, WEISZFELD_*) takes
    effect only on point sets built after the patch.
    """

    # (function, k, z) calls on one set; z = 1 and z = 2 share the set
    CALLS = [
        (k_clustering, 5, 2), (k_clustering_doubled, 3, 1), (k_clustering, 4, 1),
        (k_clustering_doubled, 2, 2), (k_clustering, 6, 2), (k_clustering, 3, 1),
        (k_clustering_doubled, 5, 2), (k_clustering, 1, 1), (k_clustering_doubled, 1, 2),
    ]

    @pytest.mark.parametrize("order", [
        range(9), range(8, -1, -1), [4, 0, 7, 2, 6, 1, 8, 3, 5],
    ], ids=["forward", "backward", "shuffled"])
    def test_interleaved_calls_match_fresh_sets(self, order):
        ps = as_set(*random_instance(61, n_range=(40, 40)))
        for i in order:
            fn, k, z = self.CALLS[i]
            got, alone = fn(ps, k, z), fn(fresh_copy(ps), k, z)
            if fn is k_clustering:
                assert_same_run(got, alone)
            else:
                assert_same_run(got.base, alone.base)
                assert_same_run(got.doubled, alone.doubled)
                assert np.array_equal(got.split_costs, alone.split_costs)

    def test_a_run_is_solved_once_and_shared(self):
        ps = as_set(*random_instance(62, n_range=(30, 30)))
        run = k_clustering(ps, 4, z=1)
        assert k_clustering(ps, 4, z=1) is run
        assert k_clustering_doubled(ps, 2, z=1).doubled is run
        assert k_clustering(ps, 4, z=2) is not run

    def test_shared_runs_are_read_only(self):
        ps = as_set(*random_instance(63, n_range=(20, 20)))
        run = k_clustering(ps, 3)
        with pytest.raises(ValueError):
            run.centers[0, 0] = 1.0
        with pytest.raises(ValueError):
            run.assignment[0] = 1
        with pytest.raises(ValueError):
            run.distances[0] = 1.0
        with pytest.raises(ValueError):
            k_clustering_doubled(ps, 2).split_costs[0] = 0.0
        # the points themselves cost 0 at k = |P|, and are a copy of them
        everything = k_clustering(ps, ps.size)
        with pytest.raises(ValueError):
            everything.centers[0, 0] = 1.0
        assert not np.shares_memory(everything.centers, ps.points)

    def test_a_set_keeps_its_own_read_only_arrays(self):
        points, weights = random_instance(66, n_range=(50, 50))
        original = points.copy(), weights.copy()
        ps = WeightedPointSet(points, weights)
        run = k_clustering(ps, 3)
        points += 10.0
        weights *= 2.0
        assert np.array_equal(ps.points, original[0])
        assert np.array_equal(ps.weights, original[1])
        assert k_clustering(ps, 3) is run
        assert_same_run(run, k_clustering(WeightedPointSet(*original), 3))
        with pytest.raises(ValueError):
            ps.points[0, 0] = 1.0
        with pytest.raises(ValueError):
            ps.weights[0] = 1.0

    def test_patched_constant_reaches_only_sets_built_after_it(self, monkeypatch):
        ps = as_set(*random_instance(64, n_range=(60, 60)))
        before = k_clustering(ps, 4, z=1)
        assert before.iterations > 1
        monkeypatch.setattr(clustering, "LLOYD_MAX_ITER", 1)
        assert k_clustering(ps, 4, z=1) is before
        assert k_clustering(fresh_copy(ps), 4, z=1).iterations == 1


def assert_distances_at_assignment(points, run):
    """``run.distances`` is, bit for bit, cdist to its centers read at its assignment."""
    expected = cdist(points, run.centers)[np.arange(points.shape[0]), run.assignment]
    assert np.array_equal(run.distances, expected)


class TestDistances:
    @pytest.mark.parametrize("z", [1, 2])
    def test_every_kind_of_run_keeps_its_distances(self, z):
        ps = as_set(synthetic_uniform(60, 3, 0.0, 1.0, seed=5).points)
        # k = 1, even and odd k, and k = |P|
        for k in (1, 4, 5, ps.size):
            assert_distances_at_assignment(ps.points, k_clustering(ps, k, z))
        # a multi-set rung: one Lloyd call for the larger sets, the points
        # themselves for the set smaller than k
        sets = [ps, synthetic_blobs(40, 2, 3, seed=1), as_set(np.eye(3))]
        for k in (1, 5):
            for pointset, run in zip(sets, clustering._Recursion(sets, z).run(k)):
                assert_distances_at_assignment(pointset.points, run)
        # add_costliest_point: a Lloyd run from the costliest point, and the
        # zero-cost run when every point sits on its center
        grown = add_costliest_point(ps, k_clustering(ps, 3, z))
        assert grown.k == 4 and grown.iterations > 0
        assert_distances_at_assignment(ps.points, grown)
        twins = as_set([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
        flat = add_costliest_point(twins, k_clustering(twins, 2, z))
        assert flat.k == 3 and flat.iterations == 0
        assert_distances_at_assignment(twins.points, flat)
        assert not flat.distances.any()


class TestLloydProblems:
    @pytest.mark.parametrize("z", [1, 2])
    def test_empty_center_restarts_at_its_own_problems_costliest_row(self, monkeypatch, z):
        # problem 0's second center starts far from its rows, so it is empty
        # after the first assignment; problem 1's rows cost far more, so the
        # costliest row overall is not in problem 0
        points = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 0.0],
                           [100.0, 0.0], [110.0, 0.0], [200.0, 0.0]])
        weights = np.ones(6)
        init = np.array([[[0.0, 0.0], [1e6, 1e6]],
                         [[100.0, 0.0], [110.0, 0.0]]])
        starts = np.array([0, 3])
        monkeypatch.setattr(clustering, "LLOYD_MAX_ITER", 1)
        runs = clustering._lloyd_problems(points, weights, starts, init, z)
        assert np.array_equal(runs[0].centers[1], points[2])
        assert np.array_equal(runs[0].assignment, [0, 0, 1])
        for run, rows, centers in zip(runs, (slice(0, 3), slice(3, 6)), init):
            alone = clustering._lloyd(points[rows], weights[rows], centers, z)
            assert np.array_equal(run.centers, alone.centers)
            assert np.array_equal(run.assignment, alone.assignment)
            assert run.cost_history == alone.cost_history

    def test_radix_regroup_matches_each_problem_alone(self):
        # 150 two-center problems make 300 (problem, center) keys, so each
        # pass regroups the rows by a uint16 key; problems of different
        # sizes finish on different passes and drop their rows
        rng = np.random.default_rng(20)
        sizes = rng.integers(3, 40, 150)
        points = rng.uniform(size=(sizes.sum(), 3))
        weights = rng.uniform(0.5, 2.0, sizes.sum())
        starts = np.cumsum(sizes) - sizes
        init = np.stack([points[[s, s + 1]] for s in starts])
        assert np.min_scalar_type(init.shape[0] * 2 - 1) == np.uint16
        runs = clustering._lloyd_problems(points, weights, starts, init, 1)
        assert len({run.iterations for run in runs}) > 1
        for run, s, size, centers in zip(runs, starts, sizes, init):
            rows = slice(s, s + size)
            alone = clustering._lloyd(points[rows], weights[rows], centers, 1)
            assert np.array_equal(run.centers, alone.centers)
            assert np.array_equal(run.assignment, alone.assignment)
            assert np.array_equal(run.distances, alone.distances)
            assert run.cost_history == alone.cost_history
            assert (run.iterations, run.converged) == (alone.iterations, alone.converged)

    def test_one_row_segments_return_their_row(self):
        # one z=1 call mixes one-row segments, which are their own medians,
        # with multi-row ones, each solved as in its own one-segment call
        rng = np.random.default_rng(6)
        sizes = np.array([1, 7, 1, 1, 12, 3, 1])
        points = rng.normal(0.0, 10.0, size=(sizes.sum(), 4))
        weights = rng.uniform(0.5, 2.0, sizes.sum())
        starts = np.cumsum(sizes) - sizes
        got = clustering._segment_centers(points.T.copy(), weights, starts, 1)
        for center, s, size in zip(got, starts, sizes):
            rows = slice(s, s + size)
            alone = clustering._segment_centers(points[rows].T.copy(), weights[rows],
                                                np.zeros(1, dtype=np.intp), 1)
            assert np.array_equal(center, alone[0])
            if size == 1:
                assert np.array_equal(center, points[s])
        # a capped Lloyd pass, from centers away from the rows, at any scale:
        # the first step lands within ULPs of the row, and the second pins it
        one_row = starts[sizes == 1]
        for scale in (1e-6, 1.0, 1e6):
            cols = (scale * points).T.copy()
            init = scale * rng.normal(0.0, 10.0, size=(sizes.size, 4))
            got = clustering._segment_centers(cols, weights, starts, 1, init=init,
                                              max_steps=clustering.WEISZFELD_CAPPED_STEPS)
            assert np.array_equal(got[sizes == 1], cols[:, one_row].T)

    def test_capped_weiszfeld_returns_its_last_update(self):
        # segment 0 takes one plain Weiszfeld step, segment 1 three, from
        # the weighted means; no iterate lands on a data point
        rng = np.random.default_rng(3)
        points, weights = rng.uniform(size=(50, 3)), rng.uniform(0.5, 2.0, 50)
        starts = np.array([0, 20])
        got = clustering._segment_centers(points.T.copy(), weights, starts, 1,
                                          max_steps=np.array([1, 3]))
        for s, (rows, steps) in enumerate(((slice(0, 20), 1), (slice(20, 50), 3))):
            pts, w = points[rows], weights[rows]
            y = w @ pts / w.sum()
            for _ in range(steps):
                inv = w / np.linalg.norm(pts - y, axis=1)
                y = inv @ pts / inv.sum()
            np.testing.assert_allclose(got[s], y, rtol=1e-12)

    def test_solver_returns_its_last_update_at_the_step_limit(self, monkeypatch):
        # a segment solving to tolerance stops at WEISZFELD_MAX_ITER steps
        # with its last update, like a capped one
        rng = np.random.default_rng(4)
        pts, w = rng.uniform(size=(20, 3)), rng.uniform(0.5, 2.0, 20)
        monkeypatch.setattr(clustering, "WEISZFELD_MAX_ITER", 2)
        y = w @ pts / w.sum()
        for _ in range(2):
            inv = w / np.linalg.norm(pts - y, axis=1)
            y = inv @ pts / inv.sum()
        np.testing.assert_allclose(one_center(as_set(pts, w), 1)[0], y, rtol=1e-12)

    @staticmethod
    def assert_one_medians(points, weights, clusters, centers):
        for i, center in enumerate(centers):
            members = clusters == i
            _, best = one_center(as_set(points[members], weights[members]), 1, tol=1e-10)
            cost = weights[members] @ np.linalg.norm(points[members] - center, axis=1)
            assert cost == pytest.approx(best, rel=1e-9)

    @staticmethod
    def uniform_run_input(seed):
        rng = np.random.default_rng(seed)
        points = rng.uniform(size=(600, 5))
        return points, rng.uniform(0.5, 2.0, 600), points[rng.choice(600, 8, replace=False)]

    @pytest.mark.parametrize("seed", range(4))
    def test_last_pass_before_the_cap_solves_to_tolerance(self, monkeypatch, seed):
        # a run stopped by the pass cap while its assignment still moves
        # returns 1-medians of the clusters of its last pass, solved to tolerance
        monkeypatch.setattr(clustering, "LLOYD_MAX_ITER", 1)
        points, weights, init = self.uniform_run_input(seed)
        run = clustering._lloyd(points, weights, init, 1)
        clusters = clustering._trivial_result(points, weights, init, 1).assignment
        self.assert_one_medians(points, weights, clusters, run.centers)

    @pytest.mark.parametrize("seed", range(4))
    def test_converged_run_solves_its_clusters_to_tolerance(self, seed):
        # a capped pass that leaves the assignment unchanged is not the end:
        # the run converges only on an exact pass
        points, weights, init = self.uniform_run_input(seed)
        run = clustering._lloyd(points, weights, init, 1)
        assert run.converged
        self.assert_one_medians(points, weights, run.assignment, run.centers)

    @pytest.mark.parametrize("kind", ["uniform", "grid", "line"])
    @pytest.mark.parametrize("k", [7, 16, 32])
    def test_cost_history_never_increases_at_scale(self, kind, k):
        # large clusters take capped passes for many rounds; duplicate-heavy
        # grid points put Weiszfeld iterates on data points; duplicate-heavy
        # points on a line in 3-d make every Newton system singular
        for seed in range(4):
            rng = np.random.default_rng([seed, k])
            if kind == "uniform":
                ps = as_set(rng.uniform(size=(2000, 5)))
            elif kind == "grid":
                ps = as_set(rng.integers(0, 4, size=(400, 3)), rng.integers(1, 6, 400))
            else:
                t = rng.integers(0, 40, 400)[:, None]
                ps = as_set(np.array([0.3, -1.0, 2.0]) + t * np.array([1.0, 2.0, 2.0]) / 3.0,
                            rng.integers(1, 6, 400))
            history = np.array(k_clustering(ps, k, z=1).cost_history)
            assert np.all(np.diff(history) <= 1e-12 * history[:-1])


class TestLongSolves:
    """Segments still solving after WEISZFELD_PLAIN_STEPS Weiszfeld steps."""

    @staticmethod
    def segment_costs(points, weights, starts, centers):
        sizes = np.diff(np.append(starts, len(points)))
        d = np.linalg.norm(points - np.repeat(centers, sizes, axis=0), axis=1)
        return np.add.reduceat(weights * d, starts)

    def test_each_segment_stops_on_its_own_vertex(self):
        # segments 0-2 have a vertex optimum that Weiszfeld only creeps
        # towards from the mean; segments 3 and 4 start on their optimal
        # vertex, a duplicated row, and may take only two steps; segment 5
        # is the flat two-group set, whose optimum is no row
        w_tip = 2.0 * np.cos(np.arctan(0.1)) + 1e-3
        tip = np.array([[0.0, 0.0], [1.0, 0.1], [1.0, -0.1]])
        rng = np.random.default_rng(0)
        flat = rng.normal(0.0, 0.05, size=(98, 2))
        flat[50:, -1] += 2.0
        segments = [
            (tip, [w_tip, 1.0, 1.0]),
            (np.array([5.0, 5.0]) + tip[:, ::-1], [w_tip, 1.0, 1.0]),
            (np.array([-3.0, 1.0]) + 2.0 * tip[[1, 0, 2]], [1.0, w_tip, 1.0]),
            (np.array([[2.0, 2.0], [2.0, 2.0], [3.0, 2.0], [2.0, 3.0]]), [1.0] * 4),
            (np.array([[-1.0, 0.0], [-1.0, 0.0], [-1.0, 1.0], [0.0, 0.0]]), [1.0] * 4),
            (flat, [1.0] * 98),
        ]
        points = np.vstack([p for p, _ in segments])
        weights = np.concatenate([w for _, w in segments])
        sizes = np.array([len(p) for p, _ in segments])
        starts = np.cumsum(sizes) - sizes
        init = clustering._segment_means(points.T.copy(), weights, starts)
        init[3], init[4] = points[starts[3]], points[starts[4]]
        steps = np.array([clustering.WEISZFELD_MAX_ITER] * 3 + [2, 2, clustering.WEISZFELD_MAX_ITER])
        got = clustering._segment_centers(points.T.copy(), weights, starts, 1, init=init,
                                          max_steps=steps)
        for s, row in enumerate((0, 0, 1, 0, 0)):
            assert np.array_equal(got[s], segments[s][0][row]), s
        assert np.linalg.norm(pull_at(flat, np.ones(98), got[5])) <= clustering.DEFAULT_MEDIAN_TOL

    @pytest.mark.parametrize("plain_steps", [0, 30])
    def test_degenerate_segments(self, monkeypatch, plain_steps):
        # singular or near-singular Newton systems, also from the first step;
        # each segment is solved within 10 steps of the first Newton step
        monkeypatch.setattr(clustering, "WEISZFELD_PLAIN_STEPS", plain_steps)
        monkeypatch.setattr(clustering, "WEISZFELD_MAX_ITER", plain_steps + 10)
        line = lambda t: np.array([0.3, -1.0, 2.0]) + np.outer(t, [1.0, 2.0, 2.0]) / 3.0
        segments = [
            # collinear in 3-d: the weighted median of the line, t = 4
            (line([0.0, 1.0, 1.5, 4.0, 7.0]), [1.0, 1.0, 1.0, 1.0, 2.5], None),
            # even split: every t in [1, 2] is optimal; start off the interval
            (line([0.0, 1.0, 2.0, 3.0]), [1.0] * 4, line([0.25])[0]),
            # two points: the whole segment between them is optimal
            (line([0.0, 1.0]), [1.0, 1.0], line([1.5])[0]),
            # two points: the heavier one is optimal; start on the other
            (line([0.0, 1.0]), [1.0, 1.001], line([0.0])[0]),
            # the row at t = 1 is optimal but for 1e-3: plain Weiszfeld from
            # it crawls towards t = 2 by a factor 1.001 a step
            (line([0.0, 1.0, 2.0, 3.0]), [1.0, 1.0, 1.0, 1.001], line([1.0])[0]),
            # duplicate rows: the optimum is on the fourfold row
            (np.array([[1.0, 1.0, 1.0]] * 4 + [[2.0, 1.0, 1.0], [1.0, 3.0, 1.0]]), [1.0] * 6, None),
            # duplicate rows around an interior optimum
            (np.repeat(np.eye(3), 2, axis=0), [1.0] * 6, None),
        ]
        points = np.vstack([p for p, _, _ in segments])
        weights = np.concatenate([w for _, w, _ in segments])
        sizes = np.array([len(p) for p, _, _ in segments])
        starts = np.cumsum(sizes) - sizes
        init = clustering._segment_means(points.T.copy(), weights, starts)
        for s, (_, _, start) in enumerate(segments):
            if start is not None:
                init[s] = start
        got = clustering._segment_centers(points.T.copy(), weights, starts, 1, init=init.copy())
        assert np.isfinite(got).all()
        costs = self.segment_costs(points, weights, starts, got)
        assert np.all(costs <= self.segment_costs(points, weights, starts, init))
        best = self.segment_costs(points, weights, starts, np.array([
            line([4.0])[0], line([1.5])[0], line([0.5])[0], line([1.0])[0], line([2.0])[0],
            [1.0, 1.0, 1.0], np.full(3, 1.0 / 3.0),
        ]))
        np.testing.assert_allclose(costs, best, rtol=1e-9)


@st.composite
def solver_cases(draw):
    """Random segment sets for the Weiszfeld solver: one-row segments, heavy
    and light segments, rows duplicated at the init, per-segment or shared
    step limits, and inits that are already a solve's answer."""
    dim = draw(st.integers(1, 4))
    sizes = np.array(draw(st.lists(st.integers(1, 9), min_size=1, max_size=6)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    offset, spread = draw(st.sampled_from([0.0, 1e6])), draw(st.sampled_from([1e-3, 1.0, 1e3]))
    points = offset + spread * rng.normal(size=(sizes.sum(), dim))
    segment_weight = draw(st.lists(st.sampled_from([1e-3, 1.0, 1e3]), min_size=sizes.size,
                                   max_size=sizes.size))
    weights = rng.uniform(0.5, 2.0, sizes.sum()) * np.repeat(segment_weight, sizes)
    starts = np.cumsum(sizes) - sizes
    init = clustering._segment_means(points.T.copy(), weights, starts)
    for s in draw(st.sets(st.integers(0, sizes.size - 1))):
        if sizes[s] > 1:  # start on a row that a second row duplicates
            points[starts[s] + 1] = points[starts[s]]
            init[s] = points[starts[s]]
    limits = [1, 2, 3, clustering.WEISZFELD_MAX_ITER]
    warm = draw(st.booleans())  # solve to tolerance from plain Weiszfeld's answer
    if warm or draw(st.booleans()):
        max_steps = clustering.WEISZFELD_MAX_ITER if warm else draw(st.sampled_from(limits))
    else:
        max_steps = np.array(draw(st.lists(st.sampled_from(limits), min_size=sizes.size,
                                           max_size=sizes.size)))
    return points.T.copy(), weights, starts, sizes, init, max_steps, warm


@pytest.mark.parametrize("plain_steps", [0, 2, 30])
@settings(max_examples=80, deadline=None, derandomize=True)
@given(case=solver_cases())
# the init is already a fixed point, with a pull above tol: the reference
# stops on step 1 and returns the init, -0.0 included, where step 1 would
# have turned it into 0.0
@example(case=(np.array([[1e6 - 1e-4, 1e6 + 1e-4, 1e6 + 5], [-0.0, -0.0, -0.0]]),
               np.array([1.0, 1.0, 2e-8]), np.array([0]), np.array([3]),
               np.array([[1e6, -0.0]]), 3, False))
def test_solver_matches_the_reference_bit_for_bit(plain_steps, case):
    # the solver returns, bit for bit, what the reference copy in
    # reference_weiszfeld returns.  A warm case starts every segment where plain Weiszfeld
    # steps stopped, often because a step left the iterate unchanged; from
    # there a Newton step may still move, unless the unchanged test runs first
    cols, weights, starts, sizes, init, max_steps, warm = case
    scale = np.abs(cols).max(axis=0)
    tol, limit = clustering.DEFAULT_MEDIAN_TOL, clustering.WEISZFELD_MAX_ITER
    with pytest.MonkeyPatch.context() as patch:
        if warm:
            patch.setattr(reference_weiszfeld, "WEISZFELD_PLAIN_STEPS", limit)
            init = reference_weiszfeld._weiszfeld(cols, weights, starts, init, tol, limit, scale)
        for module in (clustering, reference_weiszfeld):
            patch.setattr(module, "WEISZFELD_PLAIN_STEPS", plain_steps)
        want = reference_weiszfeld._weiszfeld(cols, weights, starts, init, tol, max_steps, scale)
        for handed in (None, sizes):
            got = clustering._segment_centers(cols, weights, starts, 1, init=init,
                                              max_steps=max_steps, scale=scale, sizes=handed)
            assert got.tobytes() == want.tobytes()  # np.array_equal takes -0.0 for 0.0


@st.composite
def assignment_problems(draw):
    """Problems of unequal size on a small grid, each with c centers drawn
    from a few grid points (so centers repeat and rows tie many ways), some
    of them marked empty."""
    c = draw(st.sampled_from([1, 2, 5, 16]))
    dim = draw(st.integers(1, 3))
    sizes = draw(st.lists(st.integers(1, 40), min_size=2, max_size=4))
    n, m = sum(sizes), len(sizes) * c
    grid = st.lists(st.integers(-3, 3), min_size=dim, max_size=dim)
    points = np.array(draw(st.lists(grid, min_size=n, max_size=n)), dtype=float)
    weights = np.array(draw(st.lists(st.floats(0.5, 3.0), min_size=n, max_size=n)))
    pool = draw(st.lists(grid, min_size=1, max_size=3))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=m, max_size=m))
    centers = np.array([pool[i] for i in picks], dtype=float).reshape(len(sizes), c, dim)
    filled = np.array(draw(st.lists(st.booleans(), min_size=m, max_size=m))).reshape(-1, c)
    return points, weights, centers, np.array(sizes), filled


def restarted_centers(points, weights, centers, empty, z):
    """Each center in ``empty``, in turn, moved to the costliest row unless that raises the cost."""
    centers = centers.copy()
    cost = weights @ cdist(points, centers).min(axis=1) ** z
    for i in empty:
        scores = weights * cdist(points, centers).min(axis=1) ** z
        if scores.max() <= 0:
            break
        moved = centers.copy()
        moved[i] = points[np.argmax(scores)]
        moved_cost = weights @ cdist(points, moved).min(axis=1) ** z
        if moved_cost <= cost:
            centers, cost = moved, moved_cost
    return centers


def one_dim_case(blocks, centers, filled):
    points = np.concatenate([np.array(b, dtype=float) for b in blocks])[:, None]
    return (points, np.ones(points.shape[0]), np.array(centers, dtype=float)[..., None],
            np.array([len(b) for b in blocks]), np.array(filled))


@pytest.mark.parametrize("z", [1, 2])
@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=assignment_problems())
# problem 0's empty center 1 moves to the costliest row 10: the restart is kept
@example(case=one_dim_case([[0, 1, 10], [2, 3]], [[0, 100], [2, 2]],
                           [[True, False], [True, True]]))
# center 1 serves three rows, and moving it to row 10 would raise the cost
# from 5 to 15: the restart is rejected
@example(case=one_dim_case([[7, 8], [0, 0, 0, 10]], [[7, 7], [5, 0]],
                           [[True, True], [True, False]]))
def test_one_reduction_matches_min_then_argmin(z, case):
    # the cost, assignment and distances read off one center-major min and
    # its first-index pass are, bit for bit, a fresh row-major min, argmin
    # and gather over the distances to the returned centers, and those of
    # one-problem calls; every empty center restarts where that does not
    # raise its problem's cost
    points, weights, centers, sizes, filled = case
    moved = centers.copy()
    costs, assign, near = clustering._cost_and_assignment(points, weights, moved, sizes, z,
                                                          filled)
    assert assign.dtype == np.intp
    ends = np.cumsum(sizes)
    for p, (s, e) in enumerate(zip(ends - sizes, ends)):
        dist = cdist(points[s:e], moved[p])
        assert costs[p] == float(weights[s:e] @ dist.min(axis=1) ** z)
        assert np.array_equal(assign[s:e], dist.argmin(axis=1))
        assert np.array_equal(near[s:e], dist[np.arange(e - s), assign[s:e]])
        assert np.array_equal(moved[p], restarted_centers(points[s:e], weights[s:e], centers[p],
                                                          np.flatnonzero(~filled[p]), z))
        alone = centers[p : p + 1].copy()
        cost, alone_assign, alone_near = clustering._cost_and_assignment(
            points[s:e], weights[s:e], alone, sizes[p : p + 1], z, filled[p : p + 1]
        )
        assert costs[p] == cost[0]
        assert np.array_equal(assign[s:e], alone_assign)
        assert np.array_equal(near[s:e], alone_near)
        assert np.array_equal(moved[p], alone[0])


def test_lloyd_scale_follows_its_rows():
    # one z=1 call over two problems of three centers.  Problem 0, near the
    # origin, converges first, so its rows are dropped while problem 1 still
    # iterates.  Problem 1 lists its rows near the origin before its cluster
    # near 1e8, which sorts first; that cluster's median is its heavy point,
    # whose weight outweighs the pull of the others (|(2, 1)| = 2.24 < 2.5)
    # only narrowly, so Weiszfeld creeps onto it and stops on it only where
    # the vertex test scales with the rows' own magnitude
    near = np.array([[0.0, 0.0], [0.5, 0.2], [9.0, 9.0], [9.2, 8.7], [-9.0, 9.0]])
    p0 = np.array([1e8, 1e8])
    far = p0 + np.array([[0.0, 0.0], [3.0, 0.0], [5.0, 0.0], [0.0, 2.0]])
    # rows 0..11 on a line, from centers at 0 and 1: the split point moves
    # for several passes
    mixed = np.vstack([np.c_[np.arange(12.0), np.zeros(12)], far])
    points = np.vstack([near, mixed])
    weights = np.r_[np.ones(17), 2.5, np.ones(3)]
    init = np.array([[[0.25, 0.1], [9.1, 8.85], [-9.0, 9.0]],
                     [p0 + 1.0, mixed[0], mixed[1]]])
    starts = np.array([0, 5])
    runs = clustering._lloyd_problems(points, weights, starts, init, 1)
    assert runs[0].iterations < runs[1].iterations
    for run, rows, centers in zip(runs, (slice(0, 5), slice(5, 21)), init):
        alone = clustering._lloyd(points[rows], weights[rows], centers, 1)
        assert np.array_equal(run.centers, alone.centers)
        assert np.array_equal(run.assignment, alone.assignment)
        assert run.cost_history == alone.cost_history
    assert np.array_equal(runs[1].assignment[12:], [0] * 4)
    assert np.array_equal(runs[1].centers[0], p0)


class TestBruteForce:
    def test_frozen_oracle_values(self):
        pts, w = seed7_instance()
        ps = as_set(pts, w)
        assert brute_force_optimal(ps, 2, z=2).cost == pytest.approx(
            FROZEN_SEED7_OPT_K2_Z2, rel=1e-10
        )
        assert brute_force_optimal(ps, 2, z=1).cost == pytest.approx(
            FROZEN_SEED7_OPT_K2_Z1, abs=1e-6
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_agrees_with_partition_enumeration_z2(self, seed):
        pts, w = random_instance(seed, n_range=(4, 8), dim_range=(1, 3))
        ps = as_set(pts, w)
        k = 1 + seed % 3
        got = brute_force_optimal(ps, k, z=2)
        expected, _ = exhaustive_clustering(pts, w, k, 2)
        assert got.cost == pytest.approx(expected, rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_agrees_with_partition_enumeration_z1(self, seed):
        pts, w = random_instance(50 + seed, n_range=(4, 6), dim_range=(2, 2))
        ps = as_set(pts, w)
        got = brute_force_optimal(ps, 2, z=1)
        expected, _ = exhaustive_clustering(pts, w, 2, 1)
        assert got.cost == pytest.approx(expected, abs=1e-6)

    @pytest.mark.parametrize("k", [2, 3])
    def test_agrees_with_partition_enumeration_z1_with_duplicates(self, k):
        pts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [3.0, 2.0], [3.0, 2.0], [0.5, 3.0]])
        w = np.array([1.0, 2.0, 1.5, 0.5, 0.5, 1.0])
        got = brute_force_optimal(as_set(pts, w), k, z=1)
        expected, _ = exhaustive_clustering(pts, w, k, 1)
        assert got.cost == pytest.approx(expected, abs=1e-6)

    def test_costs_by_size_non_increasing_and_consistent(self):
        pts, w = seed7_instance()
        ps = as_set(pts, w)
        res = brute_force_optimal(ps, 4, z=2)
        assert np.all(np.diff(res.costs_by_size) <= 1e-12)
        assert res.costs_by_size[-1] == pytest.approx(res.cost)
        assert res.costs_by_size[0] == pytest.approx(one_center(ps, 2)[1])

    def test_partition_reconstructs_cost(self):
        pts, w = seed7_instance()
        ps = as_set(pts, w)
        res = brute_force_optimal(ps, 3, z=2)
        total = 0.0
        for part in res.parts:
            sub = ps.subset(np.array(part))
            total += one_center(sub, 2)[1]
        assert total == pytest.approx(res.cost, rel=1e-12)

    def test_refuses_large_instances(self):
        ps = as_set(np.zeros((13, 2)))
        with pytest.raises(ValidationError):
            brute_force_optimal(ps, 2)
