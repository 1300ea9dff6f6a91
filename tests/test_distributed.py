"""Tests for the multi-node construction: ladders, allocation, sampling."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from kcoreset import clustering
from kcoreset import (
    ShardSpec,
    ValidationError,
    WeightedPointSet,
    add_costliest_point,
    cdcc,
    clustering_cost,
    drcc,
    k_clustering,
    node_local_centers,
    node_sample,
    partition_dataset,
    server_allocate,
    synthetic_uniform,
)
from kcoreset.clustering import _trivial_result
from oracles import greedy_allocation_oracle


def random_set(seed, n=60, d=3):
    rng = np.random.default_rng(seed)
    return WeightedPointSet(
        rng.uniform(0.0, 1.0, size=(n, d)), rng.uniform(0.5, 2.0, n)
    )


def centers_run(shard, centers, z):
    """The run that assigns every shard point to its nearest center."""
    return _trivial_result(shard.points, shard.weights, centers, z)


def make_shards(seed, n_points=150, nodes=3):
    ps = synthetic_uniform(n_points, 3, 0.0, 1.0, seed=seed)
    return partition_dataset(ps, ShardSpec("uniform", nodes, seed=seed)), ps


class TestLocalLadder:
    @pytest.mark.parametrize("z", [1, 2])
    @pytest.mark.parametrize("seed", range(6))
    def test_costs_never_increase_with_k(self, z, seed):
        shard = random_set(seed)
        costs = [run.cost for run in node_local_centers([shard], 8, z=z)[0]]
        assert len(costs) == 8
        assert np.all(np.diff(costs) <= 1e-9 * (1.0 + costs[0]))

    def test_clamped_when_budget_exceeds_shard(self):
        shard = random_set(1, n=5)
        ladder = node_local_centers([shard], 9)[0]
        assert len(ladder) == 5
        assert ladder[-1].cost == 0.0

    def test_each_rung_has_matching_center_count(self):
        shard = random_set(2)
        ladder = node_local_centers([shard], 5)[0]
        assert [run.k for run in ladder] == [1, 2, 3, 4, 5]

    def test_deterministic(self):
        shard = random_set(3)
        a = [run.cost for run in node_local_centers([shard], 4)[0]]
        b = [run.cost for run in node_local_centers([shard], 4)[0]]
        assert a == b

    def test_invalid_budget(self):
        with pytest.raises(ValidationError):
            node_local_centers([random_set(4)], 0)

    @pytest.mark.parametrize("z", [1, 2])
    def test_rungs_match_independent_runs(self, z):
        # K = 9 covers the power-of-two runs 1, 2, 4, 8 and the odd and
        # other even runs 3, 5, 6, 7, 9
        for seed in range(3):
            shard = random_set(40 + seed)
            assert_same_ladder(node_local_centers([shard], 9, z=z)[0],
                               ladder_of_independent_runs(shard, 9, z))
        # one call over shards of unequal size: a clamped one and one whose
        # duplicates leave zero-cost clusters that keep their center twice
        shards = mixed_shards()
        ladders = node_local_centers(shards, 9, z=z)
        assert [len(ladder) for ladder in ladders] == [9, 5, 9, 9]
        for shard, ladder in zip(shards, ladders):
            assert_same_ladder(ladder, ladder_of_independent_runs(shard, min(9, shard.size), z))

    @pytest.mark.parametrize("z", [1, 2])
    def test_ladder_is_the_same_alone_and_in_any_batch(self, z):
        shards = mixed_shards()
        alone = [node_local_centers([shard], 9, z=z)[0] for shard in shards]
        for batch in ([0, 1], [3, 2, 1, 0], [2, 2, 0], [1, 3]):
            ladders = node_local_centers([shards[j] for j in batch], 9, z=z)
            for j, ladder in zip(batch, ladders):
                assert_same_ladder(ladder, alone[j])
                # measured on its own shard, not on a neighbour in the batch
                for run in ladder:
                    assert run.cost == pytest.approx(clustering_cost(shards[j], run.centers, z=z))

    def test_no_shards_no_ladders(self):
        assert node_local_centers([], 3) == []


def mixed_shards():
    """Shards of unequal size: 60 random points, 5 points, a duplicate-heavy grid, 23 points.

    The grid is 40 points on 9 locations of a plane, so the 4-center run
    has clusters at zero cost, which keep their center twice in the split.
    """
    grid = np.zeros((40, 3))
    grid[:, :2] = np.random.default_rng(7).integers(0, 3, size=(40, 2))
    return [
        random_set(50),
        random_set(51, n=5),
        WeightedPointSet(grid, np.random.default_rng(8).uniform(0.5, 2.0, 40)),
        random_set(52, n=23),
    ]


def ladder_of_independent_runs(shard, K, z):
    """The node ladder from one k_clustering call per rung, nothing shared."""
    runs = []
    for k in range(1, K + 1):
        cand = k_clustering(shard, k, z=z)
        if runs and cand.cost > runs[-1].cost:
            alt = add_costliest_point(shard, runs[-1])
            if alt.cost < cand.cost:
                cand = alt
        runs.append(cand)
    return runs


def assert_same_ladder(ladder, runs):
    assert len(ladder) == len(runs)
    for got, want in zip(ladder, runs):
        assert np.array_equal(got.centers, want.centers)
        assert np.array_equal(got.assignment, want.assignment)
        assert (got.cost, got.iterations, got.converged) == (want.cost, want.iterations, want.converged)
        assert got.cost_history == want.cost_history


class TestServerAllocate:
    def test_fixed_counts_pin_every_node(self):
        ladders = [[9.0, 4.0, 1.0]] * 3
        config = server_allocate(ladders, N=12, seed=0, k_fixed=2)
        assert config.k_alloc == (2, 2, 2)
        assert config.t == 6
        assert sum(config.t_alloc) == 6
        assert config.total_cost == pytest.approx(12.0)
        assert config.c_over_t == pytest.approx(2.0)

    def test_fixed_counts_validated(self):
        ladders = [[9.0, 4.0]] * 3
        with pytest.raises(ValidationError):
            server_allocate(ladders, N=12, k_fixed=3)  # ladder too short
        with pytest.raises(ValidationError):
            server_allocate(ladders, N=6, k_fixed=2)  # no sample slot left
        # an empty ladder cannot host the floor, greedy or fixed
        empty = [[], [3.0, 1.0]]
        for k_fixed in (None, 1):
            with pytest.raises(ValidationError):
                server_allocate(empty, N=10, k_fixed=k_fixed)

    def test_greedy_improves_on_all_ones(self):
        rng = np.random.default_rng(5)
        rows = np.sort(rng.uniform(1.0, 30.0, size=(4, 6)), axis=1)[:, ::-1]
        N = 16
        config = server_allocate(rows, N=N, seed=1)

        def objective(alloc):
            chosen = sum(rows[j][alloc[j] - 1] for j in range(4))
            return chosen / np.sqrt(N - sum(alloc))

        assert objective(config.k_alloc) <= objective([1, 1, 1, 1]) + 1e-12
        assert sum(config.k_alloc) <= N - 1
        assert config.t == N - sum(config.k_alloc)
        assert sum(config.t_alloc) == config.t

    def test_gives_more_centers_to_expensive_nodes(self):
        # node 0 is costly and improves a lot from more centers
        ladders = [
            [100.0, 10.0, 1.0, 0.1],
            [0.5, 0.4, 0.3, 0.2],
        ]
        config = server_allocate(ladders, N=8, seed=0)
        assert config.k_alloc[0] > config.k_alloc[1]

    def test_ties_go_to_the_lowest_node_id(self):
        # the budget leaves room for one step, and both nodes offer the same drop
        ladders = [[8.0, 1.0], [8.0, 1.0]]
        config = server_allocate(ladders, N=4, seed=0)
        assert config.k_alloc == (2, 1)

    def test_zero_costs_draw_no_samples(self):
        ladders = [[0.0, 0.0], [0.0, 0.0]]
        config = server_allocate(ladders, N=8, seed=0)
        assert config.total_cost == 0.0
        assert sum(config.t_alloc) == 0
        assert config.c_over_t == 0.0

    def test_budget_too_small(self):
        ladders = [[1.0]] * 4
        with pytest.raises(ValidationError):
            server_allocate(ladders, N=4, seed=0)
        with pytest.raises(ValidationError):
            server_allocate([], N=4)

    def test_multinomial_deterministic_in_seed(self):
        ladders = [[5.0, 2.0], [3.0, 1.0]]
        a = server_allocate(ladders, N=10, seed=4)
        b = server_allocate(ladders, N=10, seed=4)
        assert a == b


@st.composite
def allocation_inputs(draw):
    """Non-increasing integer cost ladders with ties, a budget, and k_fixed unset or a pin.

    Integer costs keep every sum exact, so the cost-drop rule and the
    oracle's from-scratch scores rank the steps alike.  With costs whose
    sums round (3.7 - 2.59 against 22.2 - 21.09) either rule can break a
    tie of exact values by its own rounding.
    """
    n = draw(st.integers(1, 9))
    ladders = [
        sorted(draw(st.lists(st.integers(0, 8), min_size=1, max_size=6)), reverse=True)
        for _ in range(n)
    ]
    k_fixed = draw(st.none() | st.integers(1, min(len(ladder) for ladder in ladders)))
    floor = 1 if k_fixed is None else k_fixed
    N = draw(st.integers(n * floor + 1, n * floor + 1 + sum(len(ladder) for ladder in ladders)))
    return [[float(c) for c in ladder] for ladder in ladders], N, k_fixed


@settings(max_examples=300, deadline=None, derandomize=True)
@given(inputs=allocation_inputs())
@example(inputs=([[0.0, 0.0], [0.0]], 5, None))  # zero cost: no step lowers it
def test_server_allocate_matches_the_from_scratch_oracle(inputs):
    ladders, N, k_fixed = inputs
    config = server_allocate(ladders, N, k_fixed=k_fixed)
    assert config.k_alloc == greedy_allocation_oracle(ladders, N, k_fixed)
    assert config.t == N - sum(config.k_alloc)


class TestNodeSample:
    @pytest.mark.parametrize("z", [1, 2])
    def test_ladder_runs_hold_the_nearest_center_assignment(self, z):
        # node_sample reads a ladder run's assignment and distances as they
        # are: bit for bit those of a fresh nearest-center pass
        shards, _ = make_shards(21, n_points=300, nodes=3)
        for shard, ladder in zip(shards, node_local_centers(shards, 6, z=z)):
            for run in ladder:
                fresh = centers_run(shard, run.centers, z)
                assert np.array_equal(run.assignment, fresh.assignment)
                assert np.array_equal(run.distances, fresh.distances)

    def test_conserves_shard_weight(self):
        shard = random_set(7)
        centers = shard.points[:3]
        local = node_sample(
            shard, centers_run(shard, centers, 1), t_j=12, c_over_t=0.8, seed=2
        )
        assert local.total_weight == pytest.approx(shard.total_weight, rel=1e-12)

    def test_sample_points_come_from_the_shard(self):
        shard = random_set(8)
        local = node_sample(
            shard, centers_run(shard, shard.points[:2], 2), t_j=9, c_over_t=1.0, seed=0
        )
        for p in local.sample_points:
            assert any((p == q).all() for q in shard.points)
        assert len(np.unique(local.sample_points, axis=0)) == len(local.sample_points)

    def test_zero_draws_leave_full_cell_weights(self):
        shard = random_set(9)
        centers = shard.points[:2]
        local = node_sample(
            shard, centers_run(shard, centers, 1), t_j=0, c_over_t=0.0, seed=0
        )
        assert local.sample_points.shape == (0, shard.dim)
        assign = cdist(shard.points, centers).argmin(axis=1)
        for i in range(2):
            assert local.center_weights[i] == pytest.approx(
                shard.weights[assign == i].sum()
            )

    def test_residuals_can_go_negative_but_totals_hold(self):
        # a huge weight normalizer drains far more than the cells hold
        shard = random_set(10, n=10)
        local = node_sample(
            shard, centers_run(shard, shard.points[:1], 1), t_j=8, c_over_t=50.0, seed=1
        )
        assert local.center_weights.min() < 0
        assert local.total_weight == pytest.approx(shard.total_weight, rel=1e-12)

    def test_expensive_points_sampled_more(self):
        # point far from the center must be drawn much more often than one
        # sitting next to it
        pts = np.vstack([[0.0, 0.0], [0.1, 0.0], [5.0, 0.0]])
        shard = WeightedPointSet(pts, np.ones(3))
        counts = np.zeros(3)
        for s in range(300):
            local = node_sample(
                shard, centers_run(shard, pts[:1], 1), t_j=1, c_over_t=1.0, seed=s
            )
            if local.sample_points.shape[0]:
                row = np.flatnonzero((pts == local.sample_points[0]).all(axis=1))[0]
                counts[row] += 1
        assert counts[2] > 10 * counts[1]
        assert counts[0] == 0  # zero distance, zero sampling mass


class TestDrcc:
    def test_conserves_total_weight_and_respects_budget(self):
        shards, full = make_shards(0)
        coreset, _ = drcc(shards, N=20, K=4, z=1, seed=3)
        assert coreset.total_weight == pytest.approx(full.total_weight, rel=1e-9)
        assert coreset.size <= 20
        assert coreset.provenance["algorithm"] == "drcc"
        assert sum(coreset.provenance["k_alloc"]) + coreset.provenance["t"] == 20

    def test_deterministic(self):
        shards, _ = make_shards(1)
        a, _ = drcc(shards, N=18, K=3, seed=9)
        b, _ = drcc(shards, N=18, K=3, seed=9)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.weights, b.weights)
        c, _ = drcc(shards, N=18, K=3, seed=10)
        assert not np.array_equal(a.points, c.points)

    def test_z2_variant_runs(self):
        shards, full = make_shards(2)
        coreset, _ = drcc(shards, N=15, K=3, z=2, seed=0)
        assert coreset.total_weight == pytest.approx(full.total_weight, rel=1e-9)

    def test_overhead_is_ladder_plus_three_scalars_per_node(self):
        shards, _ = make_shards(3, nodes=4)
        _, trace = drcc(shards, N=16, K=5, seed=0)
        assert trace.overhead_scalars == 5 * 4 + 3 * 4
        assert trace.payload_scalars > 0
        d = trace.to_dict()
        assert d["overhead_scalars"] == 5 * 4 + 3 * 4
        assert all(
            m["payload"] == (m["kind"] == "coreset") for m in d["messages"]
        )

    def test_matches_cdcc_bit_for_bit(self):
        shards, _ = make_shards(4)
        via_drcc, _ = drcc(shards, N=17, K=3, z=2, seed=21, k_fixed=3)
        via_cdcc = cdcc(shards, N=17, k=3, z=2, seed=21)
        assert np.array_equal(via_drcc.points, via_cdcc.points)
        assert np.array_equal(via_drcc.weights, via_cdcc.weights)
        assert via_drcc.provenance == via_cdcc.provenance
        assert via_cdcc.provenance["algorithm"] == "cdcc"

    def test_trace_notes_each_ladder_clamped_to_its_shard(self):
        _, trace = drcc(mixed_shards(), N=40, K=6, z=1, seed=0)
        assert [m.scalars for m in trace.messages if m.kind == "cost_ladder"] == [6, 5, 6, 6]
        assert [n for n in trace.notes if "clamped" in n] == ["node 1: ladder clamped to shard size 5"]

    def test_validations(self):
        shards, _ = make_shards(5)
        with pytest.raises(ValidationError):
            drcc([], N=10, K=2)
        with pytest.raises(ValidationError):
            drcc(shards, N=0, K=2)
        with pytest.raises(ValidationError):
            drcc(shards, N=3, K=2)  # 3 nodes need at least 4 slots

    def test_budget_rejected_before_any_node_clusters(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a node clustered before the budget was checked")

        monkeypatch.setattr("kcoreset.distributed.node_local_centers", refuse)
        shards, _ = make_shards(5)
        with pytest.raises(ValidationError):
            drcc(shards, N=len(shards), K=2)
        with pytest.raises(ValidationError):
            drcc(shards, N=2 * len(shards), K=2, k_fixed=2)
        with pytest.raises(ValidationError):
            drcc(shards, N=80, K=2, k_fixed=3)  # ladders of 2 cannot hold 3 centers
        two_points = WeightedPointSet(shards[0].points[:2], shards[0].weights[:2])
        with pytest.raises(ValidationError):
            drcc([two_points] + shards[1:], N=80, K=3, k_fixed=3)

    def test_engine_calls_do_not_grow_with_the_node_count(self, monkeypatch):
        # each split level and each rung is one call over every node's shard
        calls = {}
        lloyd_problems = clustering._lloyd_problems

        def counting_lloyd_problems(*args):
            calls[nodes] += 1
            return lloyd_problems(*args)

        def refuse(*args, **kwargs):
            raise AssertionError("the ladder fallback ran; pick inputs where it does not")

        monkeypatch.setattr(clustering, "_lloyd_problems", counting_lloyd_problems)
        monkeypatch.setattr("kcoreset.distributed.add_costliest_point", refuse)
        for nodes in (3, 8):
            calls[nodes] = 0
            shards, _ = make_shards(7, n_points=800, nodes=nodes)
            drcc(shards, N=40, K=5, z=1, seed=0)
        assert calls[3] > 0
        assert calls[3] == calls[8]

    def test_unbiased_sum_cost_estimate_over_protocol_randomness(self):
        # ladders are fixed; allocation + sampling redrawn each run
        shards, full = make_shards(6, n_points=120)
        ladders = node_local_centers(shards, 3, z=1)
        costs = [[run.cost for run in runs] for runs in ladders]
        anchors = np.array([[0.3, 0.8, 0.2], [0.7, 0.1, 0.9]])
        truth = float(full.weights @ cdist(full.points, anchors).min(axis=1))
        estimates = []
        for r in range(600):
            config = server_allocate(costs, N=15, seed=r)
            est = 0.0
            for j, shard in enumerate(shards):
                run = ladders[j][config.k_alloc[j] - 1]
                local = node_sample(
                    shard, run, config.t_alloc[j], config.c_over_t,
                    seed=1000 + 7 * r + j,
                )
                pts = np.vstack([local.sample_points, local.center_points])
                wts = np.concatenate([local.sample_weights, local.center_weights])
                est += float(wts @ cdist(pts, anchors).min(axis=1))
            estimates.append(est)
        estimates = np.array(estimates)
        se = estimates.std(ddof=1) / np.sqrt(len(estimates))
        assert abs(estimates.mean() - truth) <= 4 * se
