"""Downstream machine-learning problems used to exercise coresets.

Each problem defines a per-point cost aggregated over a weighted point set
either as a weighted sum or a max, plus a deterministic solver: none of
them reads a seed (pca takes one eigendecomposition).  The key quantity for
coreset guarantees is the Lipschitz constant rho of the per-point cost in
the point argument: replacing a point by its cluster center changes the
cost by at most rho times the distance moved.

  problem     per-point cost                        aggregation   rho
  meb         dist(p, x)                            max           1
  kmedian     min_i dist(p, x_i)                    sum           1
  kmeans      min_i dist(p, x_i)^2                  sum           2*delta
  pca         dist(p, proj_x(p))^2                  sum           2*delta*(l+1)
  svm         hinge: max(0, 1 - p_d (x.p_f + b))    sum           unbounded

delta is the diameter bound of the normalized sample space (see
data.compute_delta).  The hinge cost has no finite rho, which makes svm the
stress case: certificates do not apply to it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .clustering import clustering_cost, k_clustering
from .data import WeightedPointSet
from .errors import ValidationError

PROBLEM_NAMES = ("meb", "kmeans", "kmedian", "pca", "svm")
CLUSTER_Z = {"kmeans": 2, "kmedian": 1}  # distance exponent of each clustering cost
SVM_LAM = 1e-4
SVM_EPOCHS = 200


@dataclass(frozen=True)
class MLProblem:
    name: str
    aggregation: str
    rho: float | None  # None when the data diameter needed for it is unknown
    params: dict


@dataclass
class MebModel:
    center: np.ndarray
    radius: float


@dataclass
class CentersModel:
    centers: np.ndarray


@dataclass
class PcaModel:
    frame: np.ndarray  # (d, l), orthonormal columns


@dataclass
class SvmModel:
    coef: np.ndarray
    offset: float


def lipschitz_rho(name: str, delta: float | None = None, l: int | None = None) -> float:
    """Lipschitz constant of a problem's per-point cost in the point argument."""
    if name == "meb" or name == "kmedian":
        return 1.0
    if name == "kmeans":
        if delta is None:
            raise ValidationError("kmeans rho needs the sample-space diameter delta")
        return 2.0 * delta
    if name == "pca":
        if delta is None or l is None:
            raise ValidationError("pca rho needs delta and the number of components l")
        return 2.0 * delta * (l + 1)
    if name == "svm":
        return math.inf
    raise ValidationError(f"unknown problem {name!r}; choose from {PROBLEM_NAMES}")


def make_problem(
    name: str,
    k: int = 2,
    l: int = 2,
    delta: float | None = None,
    positive_label: str | None = None,
) -> MLProblem:
    """Build an MLProblem; kmeans and pca leave rho None without delta."""
    needs_delta = name in ("kmeans", "pca")
    rho = None if needs_delta and delta is None else lipschitz_rho(name, delta=delta, l=l)
    params = {"meb": {}, "kmedian": {"k": k}, "kmeans": {"k": k}, "pca": {"l": l},
              "svm": {"positive_label": positive_label}}[name]
    return MLProblem(name, "max" if name == "meb" else "sum", rho, params)


def meb_solve(pointset: WeightedPointSet, tol: float = 1e-3) -> MebModel:
    """Minimum enclosing ball, (1+tol)-approximate.

    Frank-Wolfe iteration on the ball-center: repeatedly shift the center
    1/(t+1) of the way toward the farthest point.  The mixing weights give
    a lower bound on the optimal radius, so the loop can stop as soon as
    max-distance <= (1+tol) * lower bound; the iteration cap is the
    worst-case ceil(1/tol^2) schedule.  Weights play no role in a max cost.
    """
    points = pointset.points
    n = points.shape[0]
    if n == 1:
        return MebModel(center=points[0].copy(), radius=0.0)
    max_iter = int(math.ceil(1.0 / tol**2))
    sq = (points**2).sum(axis=1)
    a = int(np.argmax(((points - points[0]) ** 2).sum(axis=1)))
    b = int(np.argmax(((points - points[a]) ** 2).sum(axis=1)))
    if a == b:  # every point coincides with points[a]
        return MebModel(center=points[a].copy(), radius=0.0)
    lam = np.zeros(n)
    lam[a] = lam[b] = 0.5
    center = lam @ points
    for t in range(1, max_iter + 1):
        d2 = ((points - center) ** 2).sum(axis=1)
        far = int(np.argmax(d2))
        r2_upper = d2[far]
        lower = max(float(lam @ sq - center @ center), 0.0)
        if r2_upper <= (1.0 + tol) ** 2 * lower:
            break
        gamma = 1.0 / (t + 1)
        lam *= 1.0 - gamma
        lam[far] += gamma
        center = (1.0 - gamma) * center + gamma * points[far]
    radius = float(np.sqrt(((points - center) ** 2).sum(axis=1).max()))
    return MebModel(center=center, radius=radius)


def pca_solve(pointset: WeightedPointSet, l: int) -> PcaModel:
    """Top-l subspace of the weighted second-moment matrix (no centering).

    One symmetric eigendecomposition of the d x d matrix sum_p w_p p p^T;
    the frame is its eigenvectors of the l largest eigenvalues, largest
    first.  Exact up to rounding, and draws no randomness.
    """
    d = pointset.dim
    if not 1 <= l <= d:
        raise ValidationError(f"l must be in [1, {d}], got {l}")
    pts, w = pointset.points, pointset.weights
    _, vectors = np.linalg.eigh((pts * w[:, None]).T @ pts)  # ascending eigenvalues
    return PcaModel(frame=vectors[:, ::-1][:, :l])


def svm_train(pointset: WeightedPointSet) -> SvmModel:
    """Linear binary classifier by full-batch subgradient descent on the hinge loss.

    The last coordinate of each point is the margin multiplier (nominally
    +/-1; fractional values from averaged coreset points are fine).  Runs
    SVM_EPOCHS steps of size 1/(SVM_LAM*t), projects onto the ball of
    radius 1/sqrt(SVM_LAM), and returns the average of the iterates.
    Deterministic.
    """
    features = pointset.points[:, :-1]
    y = pointset.points[:, -1]
    if np.abs(y).max() > 1.0 + 1e-9:
        raise ValidationError(
            "label coordinate must lie in [-1, 1] for svm training; "
            "remap labels first (data.with_svm_labels)"
        )
    if np.all(y >= 0) or np.all(y <= 0):
        warnings.warn("svm training data contains a single class", stacklevel=2)
        sign = 1.0 if np.all(y >= 0) else -1.0
        return SvmModel(coef=np.zeros(features.shape[1]), offset=sign)
    design = np.hstack([features, np.ones((pointset.size, 1))])
    wn = pointset.weights / pointset.total_weight
    v = np.zeros(design.shape[1])
    avg = np.zeros_like(v)
    cap = 1.0 / math.sqrt(SVM_LAM)
    for t in range(1, SVM_EPOCHS + 1):
        margins = y * (design @ v)
        active = margins < 1.0
        grad = SVM_LAM * v - (wn[active] * y[active]) @ design[active]
        v = v - grad / (SVM_LAM * t)
        norm = np.linalg.norm(v)
        if norm > cap:
            v = v * (cap / norm)
        avg += v
    avg /= SVM_EPOCHS
    return SvmModel(coef=avg[:-1], offset=float(avg[-1]))


def problem_cost(problem: MLProblem, data, model) -> float:
    """Aggregate cost of a model on a weighted point set (or coreset)."""
    points, weights = data.points, data.weights
    if problem.name == "meb":
        per_point = np.linalg.norm(points - model.center, axis=1)
        return float(per_point.max())
    if problem.name in CLUSTER_Z:
        return clustering_cost(data, model.centers, CLUSTER_Z[problem.name])
    if problem.name == "pca":
        frame = model.frame
        residual = points - (points @ frame) @ frame.T
        return float(weights @ (residual**2).sum(axis=1))
    if problem.name == "svm":
        y = points[:, -1]
        margins = y * (points[:, :-1] @ model.coef + model.offset)
        return float(weights @ np.maximum(0.0, 1.0 - margins))
    raise ValidationError(f"unknown problem {problem.name!r}")


def solve_problem(problem: MLProblem, pointset: WeightedPointSet):
    """Train the problem's model on a weighted point set; every solver is deterministic."""
    if problem.name == "meb":
        return meb_solve(pointset)
    if problem.name in CLUSTER_Z:
        run = k_clustering(pointset, problem.params["k"], z=CLUSTER_Z[problem.name])
        return CentersModel(centers=run.centers)
    if problem.name == "pca":
        return pca_solve(pointset, problem.params["l"])
    if problem.name == "svm":
        return svm_train(pointset)
    raise ValidationError(f"unknown problem {problem.name!r}")


def svm_accuracy(pointset: WeightedPointSet, model: SvmModel) -> float:
    """Weight-averaged classification accuracy; the label is the last coordinate."""
    y = np.where(pointset.points[:, -1] > 0, 1.0, -1.0)
    scores = pointset.points[:, :-1] @ model.coef + model.offset
    predicted = np.where(scores >= 0, 1.0, -1.0)
    return float(pointset.weights @ (predicted == y) / pointset.total_weight)
