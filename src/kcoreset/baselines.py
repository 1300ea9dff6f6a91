"""Baseline coreset constructions to compare the center-based ones against.

The two sampling constructions give unbiased estimates of any weighted sum
cost; uniform and farthest-point selection preserve the total weight
exactly, sensitivity sampling preserves it in expectation.
"""

from __future__ import annotations

import numpy as np

from .clustering import k_clustering
from .coreset import Coreset
from .data import WeightedPointSet
from .errors import ValidationError


def _collapse(indices: np.ndarray, per_draw_weight: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Merge repeated draws of the same point, summing their weights."""
    unique, inverse = np.unique(indices, return_inverse=True)
    weights = np.zeros(unique.size)
    np.add.at(weights, inverse, per_draw_weight)
    return unique, weights


def uniform_sample(pointset: WeightedPointSet, m: int, seed: int = 0) -> Coreset:
    """m i.i.d. weight-proportional draws, each carrying total_weight / m.

    Repeated draws of the same point are collapsed by weight summation, so
    the returned coreset can have fewer than m distinct points.
    """
    if m < 1:
        raise ValidationError("coreset size must be >= 1")
    rng = np.random.default_rng(seed)
    probs = pointset.weights / pointset.total_weight
    draws = rng.choice(pointset.size, size=m, p=probs)
    idx, w = _collapse(draws, np.full(m, pointset.total_weight / m))
    return Coreset(
        pointset.points[idx], w,
        provenance={"algorithm": "uniform", "m": m, "seed": seed},
    )


def sensitivity_sample(
    pointset: WeightedPointSet,
    m: int,
    k: int | None = None,
    seed: int = 0,
) -> Coreset:
    """Importance sampling by an upper bound on per-point cost influence.

    A k-means bicriteria clustering supplies, for each point, the score
    w_p * dist(p, b_p)^2 / c(P, B) + w_p / (weight of p's cell); sampling
    is proportional to the score and draws get inverse-probability weights,
    which keeps sum-cost estimates unbiased.  If the clustering cost is zero
    (all points sit on their centers), scores degrade to plain weights and
    the construction reduces to uniform sampling.
    """
    if m < 1:
        raise ValidationError("coreset size must be >= 1")
    rng = np.random.default_rng(seed)
    if k is None:
        k = max(1, min(pointset.size, m // 2))
    k = min(k, pointset.size)
    bundle = k_clustering(pointset, k, z=2)
    contrib = pointset.weights * bundle.distances**2
    total = contrib.sum()
    cell_weight = np.bincount(bundle.assignment, weights=pointset.weights, minlength=bundle.k)
    if total > 0:
        scores = contrib / total + pointset.weights / cell_weight[bundle.assignment]
    else:
        scores = pointset.weights.copy()
    probs = scores / scores.sum()
    draws = rng.choice(pointset.size, size=m, p=probs)
    per_draw = pointset.weights[draws] / (m * probs[draws])
    idx, w = _collapse(draws, per_draw)
    return Coreset(
        pointset.points[idx], w,
        provenance={"algorithm": "sensitivity", "m": m, "k": int(k), "seed": seed},
    )


def farthest_point(pointset: WeightedPointSet, m: int, seed: int = 0) -> Coreset:
    """Farthest-first traversal (Gonzalez 1985; good for enclosing-ball queries).

    Starts at the point farthest from a randomly chosen one, then repeatedly
    adds the point farthest from everything selected so far, so m distinct
    points come back whenever the data holds m distinct points.  Selected
    points share the total weight equally.
    """
    if m < 1:
        raise ValidationError("coreset size must be >= 1")
    rng = np.random.default_rng(seed)
    points = pointset.points
    start = int(rng.integers(pointset.size))
    selected = [int(np.argmax(np.linalg.norm(points - points[start], axis=1)))]
    nearest = np.linalg.norm(points - points[selected[0]], axis=1)  # to the nearest selected
    for _ in range(1, m):
        selected.append(int(np.argmax(nearest)))
        np.minimum(nearest, np.linalg.norm(points - points[selected[-1]], axis=1), out=nearest)
    idx, w = _collapse(np.array(selected), np.full(m, pointset.total_weight / m))
    return Coreset(
        pointset.points[idx], w,
        provenance={"algorithm": "farthest_point", "m": m, "seed": seed},
    )
