"""Tests for the sampling and greedy baseline constructions."""

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from kcoreset import (
    ValidationError,
    WeightedPointSet,
    farthest_point,
    normalize_features,
    sensitivity_sample,
    synthetic_blobs,
    uniform_sample,
)


def as_set(points, weights=None):
    points = np.asarray(points, dtype=float)
    if weights is None:
        weights = np.ones(len(points))
    return WeightedPointSet(points, np.asarray(weights, dtype=float))


def random_set(seed, n=50, d=3):
    rng = np.random.default_rng(seed)
    return as_set(rng.uniform(0.0, 1.0, size=(n, d)), rng.uniform(0.5, 3.0, n))


def fixed_sum_cost(subject, anchors):
    """Weighted nearest-anchor distance sum; any Coreset or pointset works."""
    d = cdist(subject.points, anchors).min(axis=1)
    return float(subject.weights @ d)


ANCHORS = np.array([[0.2, 0.9, 0.1], [0.8, 0.2, 0.7]])


class TestUniform:
    def test_total_weight_exact_and_points_from_data(self):
        ps = random_set(0)
        coreset = uniform_sample(ps, 12, seed=1)
        assert coreset.total_weight == pytest.approx(ps.total_weight, rel=1e-12)
        assert coreset.size <= 12
        for p in coreset.points:
            assert any((p == q).all() for q in ps.points)

    def test_weights_are_multiples_of_share(self):
        ps = random_set(1, n=8)
        m = 30
        coreset = uniform_sample(ps, m, seed=2)
        share = ps.total_weight / m
        multiples = coreset.weights / share
        assert np.allclose(multiples, np.round(multiples))
        assert coreset.size < m  # 30 draws from 8 points must collide

    def test_deterministic(self):
        ps = random_set(2)
        a = uniform_sample(ps, 10, seed=7)
        b = uniform_sample(ps, 10, seed=7)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.weights, b.weights)

    def test_heavy_points_drawn_more_often(self):
        # one point holds 90% of the weight; it must dominate the draws
        pts = np.vstack([np.zeros(3), np.eye(3)])
        ps = as_set(pts, [27.0, 1.0, 1.0, 1.0])
        coreset = uniform_sample(ps, 200, seed=3)
        zero_row = np.flatnonzero((coreset.points == 0).all(axis=1))[0]
        assert coreset.weights[zero_row] > 0.7 * ps.total_weight

    def test_unbiased_sum_cost_estimate(self):
        ps = random_set(3, n=30)
        truth = fixed_sum_cost(ps, ANCHORS)
        estimates = np.array([
            fixed_sum_cost(uniform_sample(ps, 10, seed=s), ANCHORS)
            for s in range(1500)
        ])
        se = estimates.std(ddof=1) / np.sqrt(len(estimates))
        assert abs(estimates.mean() - truth) <= 4 * se

    def test_size_validated(self):
        with pytest.raises(ValidationError):
            uniform_sample(random_set(4), 0)


class TestSensitivity:
    def test_points_from_data_and_determinism(self):
        ps = random_set(5)
        a = sensitivity_sample(ps, 14, seed=4)
        b = sensitivity_sample(ps, 14, seed=4)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.weights, b.weights)
        assert a.size <= 14
        for p in a.points:
            assert any((p == q).all() for q in ps.points)
        assert a.provenance["k"] == 7  # default m // 2

    def test_explicit_k_recorded(self):
        ps = random_set(6)
        coreset = sensitivity_sample(ps, 10, k=3, seed=0)
        assert coreset.provenance["k"] == 3

    def test_unbiased_sum_cost_estimate(self):
        ps = random_set(7, n=30)
        truth = fixed_sum_cost(ps, ANCHORS)
        estimates = np.array([
            fixed_sum_cost(sensitivity_sample(ps, 10, seed=s), ANCHORS)
            for s in range(1500)
        ])
        se = estimates.std(ddof=1) / np.sqrt(len(estimates))
        assert abs(estimates.mean() - truth) <= 4 * se

    def test_total_weight_unbiased_but_not_exact(self):
        ps = random_set(8, n=30)
        totals = np.array([
            sensitivity_sample(ps, 10, seed=s).total_weight for s in range(1500)
        ])
        assert totals.std() > 0  # varies run to run ...
        se = totals.std(ddof=1) / np.sqrt(len(totals))
        assert abs(totals.mean() - ps.total_weight) <= 4 * se  # ... around the truth

    def test_coincident_points_degrade_to_uniform(self):
        # a clustering cost of zero would divide by zero in the score;
        # the construction must fall back to weight-proportional sampling,
        # whose inverse-probability weights make the total weight exact
        pts = np.tile([[1.0, 2.0]], (6, 1))
        ps = as_set(pts, np.arange(1.0, 7.0))
        coreset = sensitivity_sample(ps, 4, k=6, seed=0)
        assert coreset.size <= 4
        assert np.all(coreset.points == [1.0, 2.0])
        assert coreset.total_weight == pytest.approx(ps.total_weight)

    def test_size_validated(self):
        with pytest.raises(ValidationError):
            sensitivity_sample(random_set(9), 0)


class TestFarthestPoint:
    def test_total_weight_and_equal_shares(self):
        ps = random_set(10)
        coreset = farthest_point(ps, 8, seed=0)
        assert coreset.total_weight == pytest.approx(ps.total_weight, rel=1e-12)
        share = ps.total_weight / 8
        multiples = coreset.weights / share
        assert np.allclose(multiples, np.round(multiples))

    def test_deterministic(self):
        ps = random_set(11)
        a = farthest_point(ps, 6, seed=5)
        b = farthest_point(ps, 6, seed=5)
        assert np.array_equal(a.points, b.points)

    def test_catches_an_outlier(self):
        rng = np.random.default_rng(12)
        pts = rng.uniform(0.0, 1.0, size=(40, 2))
        pts[17] = [50.0, 50.0]
        ps = as_set(pts)
        coreset = farthest_point(ps, 4, seed=0)
        assert any((p == [50.0, 50.0]).all() for p in coreset.points)

    def test_covers_better_than_its_size_suggests(self):
        # every data point should be reasonably close to some selected point
        ps = random_set(13, n=200)
        coreset = farthest_point(ps, 12, seed=1)
        gaps = cdist(ps.points, coreset.points).min(axis=1)
        # the selected points form a spread net, not a clump
        sel_spread = cdist(coreset.points, coreset.points)
        np.fill_diagonal(sel_spread, np.inf)
        assert sel_spread.min() > gaps.max() / 4

    def test_m_distinct_points_whenever_the_data_has_them(self):
        blobs = normalize_features(synthetic_blobs(300, 4, 3, seed=0))
        for m in (5, 20, 40):
            assert farthest_point(blobs, m, seed=0).size == m
        # 9 distinct grid points under many duplicates
        grid = as_set(np.random.default_rng(3).integers(0, 3, size=(60, 2)))
        coreset = farthest_point(grid, 9, seed=2)
        assert len(np.unique(coreset.points, axis=0)) == 9

    def test_size_validated(self):
        with pytest.raises(ValidationError):
            farthest_point(random_set(14), 0)
