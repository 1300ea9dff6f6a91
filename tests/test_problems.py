"""Tests for the downstream problem solvers and cost functions.

The enclosing-ball solver is checked against a dual quadratic program --
an independent solution route, compared on cost values.  The subspace
solver and its oracle both decompose the second-moment matrix, but they
read a cost off it differently: the test measures the residuals of the
projection onto the solver's eigenvectors, and the oracle sums the
eigenvalues the subspace leaves out.
"""

import math
import warnings

import numpy as np
import pytest

from kcoreset import (
    ValidationError,
    WeightedPointSet,
    compute_delta,
    k_clustering,
    lipschitz_rho,
    make_problem,
    meb_solve,
    pca_solve,
    problem_cost,
    solve_problem,
    svm_accuracy,
    svm_train,
    synthetic_blobs,
    synthetic_uniform,
    with_svm_labels,
)
from kcoreset.problems import CentersModel, MebModel, SvmModel
from oracles import meb_radius_oracle, pca_cost_oracle, random_instance

# frozen reference values for random_instance(7, n_range=(7,7), dim_range=(3,3))
FROZEN_SEED7_MEB_RADIUS = 2.0643380057204483
FROZEN_SEED7_PCA_L2_COST = 3.656601761054538


def as_set(points, weights=None):
    points = np.asarray(points, dtype=float)
    if weights is None:
        weights = np.ones(len(points))
    return WeightedPointSet(points, np.asarray(weights, dtype=float))


class TestMeb:
    def test_frozen_dual_radius(self):
        pts, w = random_instance(7, n_range=(7, 7), dim_range=(3, 3))
        model = meb_solve(as_set(pts, w), tol=1e-3)
        assert model.radius >= FROZEN_SEED7_MEB_RADIUS - 1e-9
        assert model.radius <= (1 + 2e-3) * FROZEN_SEED7_MEB_RADIUS

    @pytest.mark.parametrize("seed", range(15))
    def test_near_optimal_and_enclosing(self, seed):
        pts, w = random_instance(seed, n_range=(5, 40), dim_range=(2, 5))
        ps = as_set(pts, w)
        model = meb_solve(ps, tol=1e-3)
        optimal = meb_radius_oracle(pts)
        # the realized radius encloses everything by construction ...
        d = np.linalg.norm(pts - model.center, axis=1)
        assert d.max() <= model.radius + 1e-12
        # ... so it can only be optimal or larger, and not much larger
        assert model.radius >= optimal - 1e-7
        assert model.radius <= (1 + 2e-3) * optimal + 1e-9

    def test_weights_do_not_move_the_ball(self):
        pts, _ = random_instance(3, n_range=(12, 12))
        a = meb_solve(as_set(pts, np.ones(12)))
        b = meb_solve(as_set(pts, np.linspace(1, 9, 12)))
        assert np.array_equal(a.center, b.center)

    def test_single_and_coincident_points(self):
        assert meb_solve(as_set([[2.0, 3.0]])).radius == 0.0
        model = meb_solve(as_set([[1.0, 1.0]] * 4))
        assert model.radius == 0.0
        assert np.allclose(model.center, [1.0, 1.0])

    def test_two_points_ball_is_midpoint(self):
        model = meb_solve(as_set([[0.0, 0.0], [2.0, 0.0]]), tol=1e-4)
        assert np.allclose(model.center, [1.0, 0.0], atol=2e-3)
        assert model.radius == pytest.approx(1.0, abs=2e-3)


class TestPca:
    def test_frozen_eigendecomposition_cost(self):
        pts, w = random_instance(7, n_range=(7, 7), dim_range=(3, 3))
        ps = as_set(pts, w)
        problem = make_problem("pca", l=2)
        model = pca_solve(ps, 2)
        assert problem_cost(problem, ps, model) == pytest.approx(
            FROZEN_SEED7_PCA_L2_COST, rel=1e-6
        )

    @pytest.mark.parametrize("seed", [*range(10), "near_isotropic"])
    def test_matches_eigendecomposition(self, seed):
        if seed == "near_isotropic":
            # uniform on a centered cube: the eigenvalues all but tie
            ps = synthetic_uniform(2000, 5, -1.0, 1.0, seed=11)
            pts, w, l = ps.points, ps.weights, 2
        else:
            pts, w = random_instance(seed, n_range=(8, 30), dim_range=(3, 6))
            ps = as_set(pts, w)
            l = 1 + seed % 3
            if l >= pts.shape[1]:
                l = pts.shape[1] - 1
        model = pca_solve(ps, l)
        problem = make_problem("pca", l=l)
        got = problem_cost(problem, ps, model)
        expected = pca_cost_oracle(pts, w, l)
        assert got == pytest.approx(expected, rel=1e-6, abs=1e-9)

    def test_frame_is_orthonormal(self):
        pts, w = random_instance(4, n_range=(20, 20), dim_range=(5, 5))
        model = pca_solve(as_set(pts, w), 3)
        assert np.allclose(model.frame.T @ model.frame, np.eye(3), atol=1e-9)

    @pytest.mark.parametrize("l", [1, 3])
    def test_points_at_the_origin_get_an_orthonormal_frame(self, l):
        # a zero second-moment matrix has every unit vector as an eigenvector
        ps = as_set(np.zeros((4, 3)))
        model = pca_solve(ps, l)
        assert np.allclose(model.frame.T @ model.frame, np.eye(l), atol=1e-12)
        assert problem_cost(make_problem("pca", l=l), ps, model) == 0.0

    def test_full_rank_subspace_has_zero_cost(self):
        pts, w = random_instance(5, n_range=(10, 10), dim_range=(3, 3))
        ps = as_set(pts, w)
        model = pca_solve(ps, 3)
        assert problem_cost(make_problem("pca", l=3), ps, model) == pytest.approx(
            0.0, abs=1e-8
        )

    def test_invalid_l(self):
        ps = as_set(np.eye(3))
        with pytest.raises(ValidationError):
            pca_solve(ps, 0)
        with pytest.raises(ValidationError):
            pca_solve(ps, 4)


class TestSvm:
    def separable_set(self, seed=0, n=60):
        rng = np.random.default_rng(seed)
        pos = rng.normal([2.0, 2.0], 0.3, size=(n // 2, 2))
        neg = rng.normal([-2.0, -2.0], 0.3, size=(n // 2, 2))
        pts = np.hstack([
            np.vstack([pos, neg]),
            np.concatenate([np.ones(n // 2), -np.ones(n // 2)])[:, None],
        ])
        return as_set(pts)

    def test_separates_separable_data(self):
        ps = self.separable_set()
        model = svm_train(ps)
        assert svm_accuracy(ps, model) == 1.0

    def test_beats_the_zero_model_on_hinge_cost(self):
        ps = self.separable_set(seed=1)
        problem = make_problem("svm", positive_label="p")
        trained = problem_cost(problem, ps, svm_train(ps))
        zero = problem_cost(problem, ps, SvmModel(coef=np.zeros(2), offset=0.0))
        assert trained < zero

    def test_fractional_labels_accepted(self):
        # averaged coreset points carry class-mixture multipliers in [-1, 1]
        pts = np.array([[1.0, 1.0, 0.6], [-1.0, -1.0, -0.8], [0.5, 0.2, 0.1]])
        model = svm_train(as_set(pts))
        assert np.all(np.isfinite(model.coef))

    def test_out_of_range_labels_rejected(self):
        pts = np.array([[1.0, 1.0, 2.0], [-1.0, -1.0, -2.0]])
        with pytest.raises(ValidationError, match="remap"):
            svm_train(as_set(pts))

    def test_single_class_warns_and_returns_trivial_model(self):
        pts = np.array([[1.0, 2.0, 1.0], [3.0, 4.0, 1.0]])
        with pytest.warns(UserWarning, match="single class"):
            model = svm_train(as_set(pts))
        assert np.array_equal(model.coef, [0.0, 0.0])
        assert model.offset == 1.0
        assert svm_accuracy(as_set(pts), model) == 1.0

    def test_accuracy_weighted(self):
        pts = np.array([[1.0, 0.0, 1.0], [-1.0, 0.0, 1.0]])
        ps = as_set(pts, [3.0, 1.0])
        model = SvmModel(coef=np.array([1.0, 0.0]), offset=0.0)
        # predicts +1 for the heavy point, -1 for the light one (wrong)
        assert svm_accuracy(ps, model) == pytest.approx(0.75)

    def test_relabeled_blobs_train_well(self):
        blobs = synthetic_blobs(90, 4, 3, spread=0.03, seed=5)
        ps = with_svm_labels(blobs, "class0")
        model = svm_train(ps)
        assert svm_accuracy(ps, model) >= 0.9


class TestLipschitz:
    def test_constants(self):
        assert lipschitz_rho("meb") == 1.0
        assert lipschitz_rho("kmedian") == 1.0
        assert lipschitz_rho("kmeans", delta=3.0) == 6.0
        assert lipschitz_rho("pca", delta=3.0, l=2) == 18.0
        assert lipschitz_rho("svm") == math.inf

    def test_missing_delta_rejected(self):
        with pytest.raises(ValidationError):
            lipschitz_rho("kmeans")
        with pytest.raises(ValidationError):
            lipschitz_rho("pca", delta=1.0)
        with pytest.raises(ValidationError):
            lipschitz_rho("nope")

    def test_make_problem_fills_rho_when_delta_known(self):
        delta = compute_delta(5, 3)
        problem = make_problem("kmeans", k=2, delta=delta)
        assert problem.rho == pytest.approx(2 * delta)
        assert make_problem("kmeans", k=2).rho is None
        assert make_problem("meb").aggregation == "max"
        assert make_problem("kmedian").aggregation == "sum"
        with pytest.raises(ValidationError):
            make_problem("nope")


class TestCostsByHand:
    def test_meb_cost_is_max_distance(self):
        ps = as_set([[0.0, 0.0], [3.0, 4.0]], [5.0, 0.1])
        model = MebModel(center=np.zeros(2), radius=0.0)
        assert problem_cost(make_problem("meb"), ps, model) == 5.0

    def test_center_costs(self):
        ps = as_set([[0.0], [2.0], [10.0]], [1.0, 2.0, 3.0])
        model = CentersModel(centers=np.array([[0.0], [9.0]]))
        kmeans = problem_cost(make_problem("kmeans", k=2), ps, model)
        kmedian = problem_cost(make_problem("kmedian", k=2), ps, model)
        assert kmeans == pytest.approx(1 * 0 + 2 * 4 + 3 * 1)
        assert kmedian == pytest.approx(1 * 0 + 2 * 2 + 3 * 1)

    def test_pca_cost_by_hand(self):
        ps = as_set([[1.0, 1.0]], [2.0])
        frame = np.array([[1.0], [0.0]])  # project onto the x-axis
        from kcoreset.problems import PcaModel

        cost = problem_cost(make_problem("pca", l=1), ps, PcaModel(frame=frame))
        assert cost == pytest.approx(2.0)  # residual (0,1) squared, weight 2

    def test_svm_hinge_by_hand(self):
        pts = np.array([[2.0, 0.0, 1.0], [0.5, 0.0, -1.0]])
        ps = as_set(pts, [1.0, 4.0])
        model = SvmModel(coef=np.array([1.0, 0.0]), offset=0.0)
        # margins y*(x.v): +2 (loss 0) and -1*0.5 = -0.5 (loss 1.5)
        expected = 1.0 * 0.0 + 4.0 * 1.5
        assert problem_cost(make_problem("svm"), ps, model) == pytest.approx(expected)


class TestSolveDispatch:
    def test_centers_dispatch_matches_engine(self):
        pts, w = random_instance(9, n_range=(25, 25))
        ps = as_set(pts, w)
        model = solve_problem(make_problem("kmedian", k=3), ps)
        run = k_clustering(ps, 3, z=1)
        assert np.array_equal(model.centers, run.centers)

    def test_too_many_centers_rejected(self):
        ps = as_set(np.eye(3))
        with pytest.raises(ValidationError):
            solve_problem(make_problem("kmeans", k=4), ps)

    def test_meb_dispatch(self):
        pts, w = random_instance(10, n_range=(15, 15))
        ps = as_set(pts, w)
        model = solve_problem(make_problem("meb"), ps)
        assert model.radius > 0

    def test_svm_dispatch(self):
        pts = np.array([[1.0, 1.0], [-1.0, -1.0]])
        labeled = np.hstack([pts, [[1.0], [-1.0]]])
        model = solve_problem(make_problem("svm"), as_set(labeled))
        assert model.coef.shape == (2,)
