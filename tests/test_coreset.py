"""Tests for coreset construction, error certification, and persistence."""

import dataclasses
import gc
import json
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from kcoreset import (
    Coreset,
    EpsCertificate,
    ThresholdNotReachedError,
    ValidationError,
    WeightedPointSet,
    certify_eps,
    coreset_from_run,
    k_clustering,
    k_clustering_doubled,
    load_coreset,
    normalize_features,
    rcc,
    rcc_fixed_size,
    sensitivity_sample,
    synthetic_blobs,
)
from kcoreset import clustering
from kcoreset.clustering import _lloyd_problems as lloyd_problems
from kcoreset.clustering import _split_init as split_init
from oracles import random_instance


def as_set(points, weights=None):
    points = np.asarray(points, dtype=float)
    if weights is None:
        weights = np.ones(len(points))
    return WeightedPointSet(points, np.asarray(weights, dtype=float))


def fresh_copy(ps):
    """The same data in a new point set, which shares no clustering run with ``ps``."""
    return WeightedPointSet(ps.points.copy(), ps.weights.copy())


def assert_same_coreset(a, b):
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.weights, b.weights)
    assert a.provenance == b.provenance
    assert a.eps_bound == b.eps_bound
    assert a.certificate == b.certificate


def spread_set(seed, n=80, d=3):
    rng = np.random.default_rng(seed)
    return as_set(rng.uniform(0.0, 1.0, size=(n, d)), rng.uniform(0.5, 2.0, n))


def clustered_set(seed, n=80, blobs=4, spread=0.01, d=3):
    """Tight blobs: small coresets reach small gap certificates here."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.1, 0.9, size=(blobs, d))
    pts = centers[rng.integers(0, blobs, n)] + spread * rng.standard_normal((n, d))
    return as_set(pts, rng.uniform(0.5, 2.0, n))


class TestCertify:
    def test_formulas_recomputed_by_hand(self):
        ps = spread_set(1)
        run = k_clustering_doubled(ps, 4, z=2)
        cert = certify_eps(ps, run, rho=1.5)
        gap = max(run.base.cost - run.doubled.cost, 0.0)
        assert cert.gap == pytest.approx(gap)
        assert cert.eps_gap == pytest.approx(1.5 * (gap / ps.w_min) ** 0.5)
        dists = cdist(ps.points, run.base.centers).min(axis=1)
        assert cert.max_center_dist == pytest.approx(dists.max())
        assert cert.eps_maxdist == pytest.approx(1.5 * dists.max())
        assert cert.eps_mean == pytest.approx(1.5 * (ps.weights @ dists) / ps.total_weight)
        assert cert.k == 4 and cert.z == 2

    @pytest.mark.parametrize("z", [1, 2])
    def test_run_alone_certifies_all_but_the_gap(self, z):
        # the k-center run carries everything but the 2k-center comparison
        ps = spread_set(3)
        doubled = k_clustering_doubled(ps, 5, z=z)
        alone = certify_eps(ps, k_clustering(ps, 5, z=z), rho=2.5)
        assert alone.eps_gap is None and alone.gap is None
        assert alone == dataclasses.replace(
            certify_eps(ps, doubled, rho=2.5), eps_gap=None, gap=None
        )
        assert alone.eps_mean <= alone.eps_maxdist

    def test_scales_linearly_in_rho(self):
        ps = spread_set(2)
        run = k_clustering_doubled(ps, 3, z=1)
        one = certify_eps(ps, run, rho=1.0)
        five = certify_eps(ps, run, rho=5.0)
        assert five.eps_gap == pytest.approx(5.0 * one.eps_gap)
        assert five.eps_maxdist == pytest.approx(5.0 * one.eps_maxdist)
        assert five.eps_mean == pytest.approx(5.0 * one.eps_mean)

    @pytest.mark.parametrize("z", [1, 2])
    @pytest.mark.parametrize("seed", range(8))
    def test_maxdist_bound_implied_by_gap_bound(self, z, seed):
        # the realized max distance never exceeds what the gap certifies,
        # so the gap bound is always the weaker (safe) one
        ps = spread_set(40 + seed, n=60)
        run = k_clustering_doubled(ps, 1 + seed % 5, z=z)
        cert = certify_eps(ps, run)
        slack = 1e-9 if z == 2 else 1e-5
        assert cert.eps_maxdist <= cert.eps_gap + slack

    def test_bad_rho_rejected(self):
        ps = spread_set(4, n=10)
        run = k_clustering_doubled(ps, 2)
        for rho in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ValidationError):
                certify_eps(ps, run, rho=rho)

    def test_absolute_conversions(self):
        cert = EpsCertificate(
            eps_gap=0.4, eps_maxdist=0.1, eps_mean=0.04, rho=2.0, z=2, k=3,
            gap=1.0, max_center_dist=0.05, w_min=1.0,
        )
        assert cert.absolute(50.0, "sum") == pytest.approx(2.0)
        assert cert.absolute(50.0, "max") == pytest.approx(0.1)
        with pytest.raises(ValidationError):
            cert.absolute(50.0, "median")


class TestCoresetFromRun:
    def test_weights_are_cluster_weight_sums(self):
        ps = spread_set(5, n=40)
        run = k_clustering(ps, 4)
        coreset = coreset_from_run(ps, run)
        for i, c in enumerate(coreset.points):
            row = np.flatnonzero((run.centers == c).all(axis=1))[0]
            expected = ps.weights[run.assignment == row].sum()
            assert coreset.weights[i] == pytest.approx(expected)
        assert coreset.total_weight == pytest.approx(ps.total_weight)

    def test_empty_clusters_dropped(self):
        # duplicated points make extra centers useless; their clusters are
        # empty and must not appear in the coreset
        pts = np.array([[0.0, 0.0]] * 5 + [[4.0, 4.0]] * 5)
        ps = as_set(pts)
        run = k_clustering(ps, 4)
        coreset = coreset_from_run(ps, run)
        assert coreset.size <= 2
        assert coreset.total_weight == pytest.approx(10.0)
        assert np.all(coreset.weights > 0)


class TestFixedSize:
    def test_returns_exactly_k_points_on_spread_data(self):
        ps = spread_set(6)
        coreset = rcc_fixed_size(ps, 10, z=2)
        assert coreset.size == 10
        assert coreset.total_weight == pytest.approx(ps.total_weight)
        assert coreset.eps_bound == pytest.approx(coreset.certificate.eps_maxdist)
        assert coreset.provenance["algorithm"] == "rcc_fixed"

    def test_certificate_runs_no_doubled_clustering(self, monkeypatch):
        ps = spread_set(7)

        def refuse(*args, **kwargs):
            raise AssertionError("the certificate reads the k-center run alone")

        monkeypatch.setattr("kcoreset.clustering._Recursion.doubled", refuse)
        coreset = rcc_fixed_size(ps, 5, z=1)
        run = k_clustering(ps, 5, z=1)
        assert coreset.eps_bound == coreset.certificate.eps_maxdist == run.distances.max()
        assert coreset.certificate.eps_gap is None and coreset.certificate.gap is None

    def test_rho_scales_bound(self):
        ps = spread_set(8)
        a = rcc_fixed_size(ps, 6, rho=1.0)
        b = rcc_fixed_size(ps, 6, rho=3.0)
        assert b.eps_bound == pytest.approx(3.0 * a.eps_bound)
        assert np.array_equal(a.points, b.points)

    def test_invalid_k(self):
        ps = spread_set(9, n=5)
        with pytest.raises(ValidationError):
            rcc_fixed_size(ps, 0)
        with pytest.raises(ValidationError):
            rcc_fixed_size(ps, 6)


class TestAdaptive:
    def test_meets_the_gap_threshold(self):
        ps = clustered_set(10)
        eps = 0.3
        coreset = rcc(ps, eps=eps, z=2)
        cert = coreset.certificate
        assert cert.gap <= ps.w_min * eps**2 + 1e-12
        assert coreset.eps_bound == eps
        assert coreset.provenance["algorithm"] == "rcc"
        assert coreset.provenance["sizes_tried"] == sorted(coreset.provenance["sizes_tried"])

    def test_tighter_target_never_gives_larger_gap(self):
        ps = clustered_set(11)
        loose = rcc(ps, eps=0.3, z=2)
        tight = rcc(ps, eps=0.1, z=2)
        assert tight.certificate.gap <= ps.w_min * 0.1**2 + 1e-12
        assert loose.certificate.gap <= ps.w_min * 0.3**2 + 1e-12
        assert tight.size >= loose.size

    def test_deterministic(self):
        ps = clustered_set(12)
        a = rcc(ps, eps=0.3)
        b = rcc(fresh_copy(ps), eps=0.3)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.weights, b.weights)

    def test_unreachable_target_raises_with_diagnostics(self):
        ps = spread_set(13, n=40)
        with pytest.raises(ThresholdNotReachedError) as err:
            rcc(ps, eps=1e-6, z=2, k_max=8)
        assert err.value.best_gap > 0
        assert 1 <= err.value.best_k <= 8

    def test_k_max_respected(self):
        ps = clustered_set(14, blobs=2, spread=0.005)
        coreset = rcc(ps, eps=0.3, z=2, k_max=4)
        assert coreset.size <= 4

    def test_z1_threshold_uses_first_power(self):
        ps = clustered_set(15, spread=0.001)
        eps = 0.5
        coreset = rcc(ps, eps=eps, z=1)
        assert coreset.certificate.gap <= ps.w_min * eps + 1e-12

    def test_solves_each_center_count_once(self, monkeypatch):
        # one recursion serves the whole search: no k-center run is solved twice
        solved, splitting = Counter(), []

        def counting_lloyd_problems(points, weights, starts, init_centers, z):
            if not splitting:  # k-center runs, not the 2-center runs of a split
                for centers in init_centers:
                    solved[len(centers)] += 1
            return lloyd_problems(points, weights, starts, init_centers, z)

        def marked_split_init(pointsets, bases):
            splitting.append(True)
            try:
                return split_init(pointsets, bases)
            finally:
                splitting.pop()

        monkeypatch.setattr(clustering, "_lloyd_problems", counting_lloyd_problems)
        monkeypatch.setattr(clustering, "_split_init", marked_split_init)
        ps = normalize_features(synthetic_blobs(600, 4, 3, seed=1))
        with pytest.raises(ThresholdNotReachedError):
            rcc(ps, eps=0.5, z=2)
        assert len(solved) > 1
        assert max(solved.values()) == 1, solved

    @pytest.mark.parametrize("z, eps", [(2, 0.3), (1, 0.5)])
    def test_equals_fixed_size_at_the_chosen_k(self, z, eps):
        ps = clustered_set(17, spread=0.001)
        adaptive = rcc(ps, eps=eps, z=z, rho=2.0)
        fixed = rcc_fixed_size(fresh_copy(ps), adaptive.certificate.k, z=z, rho=2.0)
        assert np.array_equal(adaptive.points, fixed.points)
        assert np.array_equal(adaptive.weights, fixed.weights)
        # only the adaptive search makes the 2k-center run that eps_gap needs
        assert fixed.certificate.eps_gap is None and adaptive.certificate.eps_gap is not None
        assert dataclasses.replace(adaptive.certificate, eps_gap=None, gap=None) == fixed.certificate

    def test_invalid_inputs(self):
        ps = spread_set(16, n=10)
        with pytest.raises(ValidationError):
            rcc(ps, eps=0.0)
        with pytest.raises(ValidationError):
            rcc(ps, eps=0.5, rho=np.inf)


class TestSharedRuns:
    """Constructions on one point set share its clustering runs."""

    # (construction, its arguments) on one set; z = 1 and z = 2 share the set
    CALLS = [
        (rcc_fixed_size, dict(k=6, z=2)), (rcc, dict(eps=0.3, z=2)),
        (sensitivity_sample, dict(m=12, seed=3)), (rcc_fixed_size, dict(k=4, z=1)),
        (rcc, dict(eps=0.5, z=1)), (sensitivity_sample, dict(m=8, k=3, seed=1)),
        (rcc_fixed_size, dict(k=5, z=1)), (rcc_fixed_size, dict(k=3, z=2)),
    ]

    @pytest.mark.parametrize("order", [
        range(8), range(7, -1, -1), [5, 2, 7, 0, 4, 1, 6, 3],
    ], ids=["forward", "backward", "shuffled"])
    def test_interleaved_calls_match_fresh_sets(self, order):
        ps = clustered_set(17, spread=0.001)
        for i in order:
            build, kwargs = self.CALLS[i]
            assert_same_coreset(build(ps, **kwargs), build(fresh_copy(ps), **kwargs))

    def test_point_set_freed_without_the_cycle_collector(self):
        # the runs a set keeps do not refer back to it, so dropping the last
        # reference frees the set and its runs at once
        ps = spread_set(19)
        alive = weakref.ref(ps)
        gc.disable()
        try:
            coreset = rcc_fixed_size(ps, 6, z=1)
            del ps
            assert alive() is None
        finally:
            gc.enable()
        assert coreset.size == 6


class TestGuaranteeOnModels:
    """Spot-check of the headline inequality on random query models.

    Models are shifted so every per-point cost is at least 1, the regime the
    relative guarantee is stated for.  The full-scale version runs in the
    acceptance suite.
    """

    @pytest.mark.parametrize("z", [1, 2])
    def test_sum_and_max_costs_stay_in_band(self, z):
        rng = np.random.default_rng(17)
        ps = spread_set(17, n=70)
        coreset = rcc_fixed_size(ps, 12, z=z)
        eps = coreset.certificate.eps_maxdist
        for _ in range(30):
            centers = rng.uniform(0.0, 1.0, size=(3, ps.dim))
            centers[:, 0] += 2.0  # every point is at distance >= 1
            dp = cdist(ps.points, centers).min(axis=1)
            ds = cdist(coreset.points, centers).min(axis=1)
            # k-median style sum cost
            cp = float(ps.weights @ dp)
            cs = float(coreset.weights @ ds)
            assert (1 - eps) * cp - 1e-9 <= cs <= (1 + eps) * cp + 1e-9
            # ball style max cost
            mp, ms = float(cdist(ps.points, centers[:1]).max()), float(
                cdist(coreset.points, centers[:1]).max()
            )
            assert (1 - eps) * mp - 1e-9 <= ms <= (1 + eps) * mp + 1e-9


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 60),
    dim=st.integers(1, 4),
    distinct=st.integers(1, 60),
    scale=st.floats(1e-3, 1e3),
    z=st.sampled_from([1, 2]),
    rho=st.floats(0.1, 10.0),
    k_share=st.floats(0.0, 1.0),
)
def test_eps_mean_bounds_every_lipschitz_sum_cost(seed, n, dim, distinct, scale, z, rho, k_share):
    # per-point costs rho * (distance to the nearest anchor, or to a
    # hyperplane) + 1 are rho-Lipschitz with floor 1; summed over the points,
    # the coreset's relative error never exceeds eps_mean
    rng = np.random.default_rng(seed)
    pool = scale * rng.standard_normal((min(distinct, n), dim))
    ps = as_set(pool[rng.integers(0, pool.shape[0], n)], rng.uniform(0.1, 5.0, n))
    k = 1 + int(k_share * (n - 1))
    coreset = rcc_fixed_size(ps, k, z=z, rho=rho)
    eps = coreset.certificate.eps_mean
    assert eps <= coreset.certificate.eps_maxdist * (1 + 1e-12)
    for _ in range(8):
        anchors = scale * rng.standard_normal((int(rng.integers(1, 4)), dim))
        normal = rng.standard_normal(dim)
        normal /= np.linalg.norm(normal)
        offset = scale * rng.standard_normal()
        for cost in (
            lambda pts: rho * cdist(pts, anchors).min(axis=1) + 1.0,
            lambda pts: rho * np.abs(pts @ normal - offset) + 1.0,
        ):
            full = float(ps.weights @ cost(ps.points))
            core = float(coreset.weights @ cost(coreset.points))
            # the last term covers rounding in the two sums where eps_mean is 0
            assert abs(core - full) <= eps * full * (1 + 1e-9) + 1e-12 * full


class TestPersistence:
    @pytest.mark.parametrize("adaptive", [False, True], ids=["rcc_fixed_size", "rcc"])
    def test_certificate_round_trip(self, tmp_path, adaptive):
        # eps_gap and gap are JSON null where no 2k-center run was made
        ps = clustered_set(17, spread=0.001)
        coreset = rcc(ps, eps=0.3, z=2) if adaptive else rcc_fixed_size(ps, 6, z=2)
        prefix = str(tmp_path / "core")
        _, json_path = coreset.save(prefix)
        with open(json_path) as fh:
            saved = json.load(fh)["certificate"]
        assert (saved["eps_gap"] is None, saved["gap"] is None) == (not adaptive, not adaptive)
        back = load_coreset(prefix).certificate
        assert back == coreset.certificate
        assert back.eps_mean == coreset.certificate.eps_mean
        assert isinstance(back.eps_gap, float) == adaptive

    def test_round_trip_exact(self, tmp_path):
        ps = spread_set(18)
        coreset = rcc_fixed_size(ps, 7, z=1, rho=2.0)
        prefix = str(tmp_path / "core")
        coreset.save(prefix)
        back = load_coreset(prefix)
        assert np.array_equal(back.points, coreset.points)
        assert np.array_equal(back.weights, coreset.weights)
        assert back.eps_bound == coreset.eps_bound
        assert back.certificate == coreset.certificate
        assert back.provenance["algorithm"] == "rcc_fixed"

    def test_certificate_without_eps_mean_rejected(self, tmp_path):
        # a certificate saved before eps_mean existed cannot be completed
        # without the data, so loading it fails with the file's name
        prefix = str(tmp_path / "old")
        _, json_path = rcc_fixed_size(spread_set(20, n=20), 3).save(prefix)
        with open(json_path) as fh:
            meta = json.load(fh)
        del meta["certificate"]["eps_mean"]
        with open(json_path, "w") as fh:
            json.dump(meta, fh)
        with pytest.raises(ValidationError, match="old.json"):
            load_coreset(prefix)

    def test_load_accepts_csv_suffix(self, tmp_path):
        ps = spread_set(19, n=20)
        coreset = rcc_fixed_size(ps, 3)
        prefix = str(tmp_path / "core")
        coreset.save(prefix)
        back = load_coreset(prefix + ".csv")
        assert np.array_equal(back.points, coreset.points)

    def test_single_point_coreset_round_trip(self, tmp_path):
        coreset = Coreset(np.array([[1.0, 2.0]]), np.array([5.0]), {"algorithm": "manual"})
        prefix = str(tmp_path / "one")
        coreset.save(prefix)
        back = load_coreset(prefix)
        assert back.points.shape == (1, 2)
        assert back.weights[0] == 5.0

    def test_csv_only_load_gets_empty_metadata(self, tmp_path):
        path = tmp_path / "bare.csv"
        path.write_text("x0,x1,weight\n1.0,2.0,3.0\n4.0,5.0,6.0\n")
        back = load_coreset(str(path))
        assert back.provenance == {}
        assert back.certificate is None
        assert np.array_equal(back.weights, [3.0, 6.0])

    def test_negative_weight_round_trip(self, tmp_path):
        coreset = Coreset(np.eye(3), np.array([4.0, -1.5, 2.0]), {"algorithm": "drcc"})
        prefix = str(tmp_path / "residual")
        coreset.save(prefix)
        back = load_coreset(prefix)
        assert np.array_equal(back.points, coreset.points)
        assert np.array_equal(back.weights, coreset.weights)

    def test_malformed_cell_names_file_and_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x0,x1,weight\n1.0,2.0,3.0\nabc,5.0,\n")
        with pytest.raises(ValidationError, match=r"bad\.csv:3"):
            load_coreset(str(path))
        # a skipped blank row still counts as a line of the file
        path = tmp_path / "blank.csv"
        path.write_text("x0,x1,weight\n1.0,2.0,3.0\n\nabc,5.0,1.0\n")
        with pytest.raises(ValidationError, match=r"blank\.csv:4:"):
            load_coreset(str(path))


class TestNegativeWeights:
    def test_all_positive_is_a_no_op(self):
        coreset = Coreset(np.eye(3), np.array([1.0, 2.0, 3.0]), {})
        ps, changed = coreset.nonnegative_pointset()
        assert not changed
        assert np.array_equal(ps.weights, coreset.weights)

    def test_clamp_preserves_total_weight(self):
        coreset = Coreset(np.eye(3), np.array([4.0, -1.0, 2.0]), {})
        ps, changed = coreset.nonnegative_pointset()
        assert changed
        assert ps.size == 2
        assert ps.total_weight == pytest.approx(5.0)
        # kept points keep their relative proportions
        assert ps.weights[0] / ps.weights[1] == pytest.approx(2.0)

    def test_no_positive_weight_rejected(self):
        coreset = Coreset(np.eye(2), np.array([-1.0, -2.0]), {})
        with pytest.raises(ValidationError):
            coreset.nonnegative_pointset()

    def test_nonpositive_total_weight_rejected(self):
        # clamping cannot preserve a total of -1 (or 0), so no silent rescale
        for weights in ([2.0, -3.0], [2.0, -2.0]):
            coreset = Coreset(np.eye(2), np.array(weights), {})
            with pytest.raises(ValidationError, match="total weight"):
                coreset.nonnegative_pointset()

    def test_weight_shape_checked(self):
        with pytest.raises(ValidationError):
            Coreset(np.eye(3), np.array([1.0, 2.0]), {})
