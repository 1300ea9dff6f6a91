"""Weighted k-clustering engine.

The cost of a center set Q on a weighted point set is
``sum_p w_p * (min_{q in Q} ||p - q||)^z`` with z = 2 (k-means) or
z = 1 (k-median).  The solver is Lloyd iteration over weighted 1-center
steps.  Initialization is recursive: a 2m-center run starts from the union
of per-cluster 2-center solutions of an m-center run, and every 2-center
run starts from the cluster's own 1-center plus its most expensive point.
This ordering makes the reported costs satisfy, by construction,

  * each returned center is a (near-)optimal 1-center of its cluster,
  * cost(P, 2k centers) <= sum of the per-cluster 2-center costs,
  * cost(P, 2 centers) <= cost of {1-center of P, most expensive point},

which is what the coreset size search and the error certificates rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.distance import cdist

from .data import WeightedPointSet
from .errors import ValidationError

LLOYD_MAX_ITER = 300
DEFAULT_MEDIAN_TOL = 1e-8
WEISZFELD_MAX_ITER = 5000
BRUTE_FORCE_MEDIAN_TOL = 1e-11


def _validate_z(z: int) -> None:
    if z not in (1, 2):
        raise ValidationError(f"z must be 1 (k-median) or 2 (k-means), got {z}")


def assign_to_centers(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Index of the nearest center per point; ties go to the lowest index."""
    return np.argmin(cdist(points, np.atleast_2d(centers)), axis=1)


def _cost_arrays(points, weights, centers, z) -> float:
    d = cdist(points, np.atleast_2d(centers)).min(axis=1)
    return float(weights @ d**z)


def clustering_cost(pointset: WeightedPointSet, centers: np.ndarray, z: int = 2) -> float:
    """Weighted z-power distance cost of a center set on a point set."""
    _validate_z(z)
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    if centers.shape[1] != pointset.dim:
        raise ValidationError(
            f"centers have dim {centers.shape[1]}, points have dim {pointset.dim}"
        )
    return _cost_arrays(pointset.points, pointset.weights, centers, z)


def weighted_geometric_median(
    points: np.ndarray,
    weights: np.ndarray,
    tol: float = DEFAULT_MEDIAN_TOL,
    init: np.ndarray | None = None,
) -> np.ndarray:
    """Weighted geometric median by damped Weiszfeld iteration.

    Starts from the weighted mean (or ``init``) and stops when the gradient
    of sum_p w_p*||p - y|| has norm <= tol, or, if the iterate coincides
    with a data point, when that point satisfies the local optimality test
    (pull of the remaining points no larger than the point's own weight);
    the data point itself is then returned.
    """
    points = np.asarray(points, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if points.shape[0] == 1:
        return points[0].copy()
    y = np.average(points, axis=0, weights=weights) if init is None else np.array(init, dtype=float)
    scale = 1.0 + float(np.abs(points).max())
    for _ in range(WEISZFELD_MAX_ITER):
        diff = points - y
        dist = np.linalg.norm(diff, axis=1)
        near = dist <= 1e-14 * scale
        if near.any():
            # the iterate sits on a data point: stop on that point, not on
            # the iterate, which can be an ULP away from it
            here = points[np.argmax(near)].copy()
            far = ~near
            if not far.any():
                return here  # every point coincides with the iterate
            w_here = weights[near].sum()
            inv = weights[far] / dist[far]
            pull_vec = inv @ diff[far]
            pull = np.linalg.norm(pull_vec)
            if pull <= w_here + tol:
                return here
            t_map = (inv @ points[far]) / inv.sum()
            beta = min(1.0, w_here / pull)
            y_new = (1.0 - beta) * t_map + beta * y
        else:
            inv = weights / dist
            grad = -(inv @ diff)
            if np.linalg.norm(grad) <= tol:
                return y
            y_new = (inv @ points) / inv.sum()
        if np.array_equal(y_new, y):
            return y
        y = y_new
    return y


def _one_center(points, weights, z, median_tol=DEFAULT_MEDIAN_TOL, init=None):
    """Optimal (z=2) or near-optimal (z=1) single center with its cost."""
    if z == 2:
        center = np.average(points, axis=0, weights=weights)
    else:
        center = weighted_geometric_median(points, weights, tol=median_tol, init=init)
    return center, _cost_arrays(points, weights, center[None, :], z)


def one_mean(pointset: WeightedPointSet) -> tuple[np.ndarray, float]:
    """Weighted mean and its squared-distance cost (optimal 1-center, z=2)."""
    return _one_center(pointset.points, pointset.weights, 2)


def one_median(pointset: WeightedPointSet, tol: float = DEFAULT_MEDIAN_TOL) -> tuple[np.ndarray, float]:
    """Weighted geometric median and its distance cost (1-center, z=1)."""
    return _one_center(pointset.points, pointset.weights, 1, median_tol=tol)


@dataclass
class ClusteringResult:
    """Output of a k-clustering run.

    ``assignment[p]`` is the row of ``centers`` point p belongs to;
    ``cost_history`` holds the cost after initialization and after each
    recenter pass, and is non-increasing.
    """

    centers: np.ndarray
    assignment: np.ndarray
    cost: float
    z: int
    iterations: int
    converged: bool
    cost_history: list = field(default_factory=list)

    @property
    def k(self) -> int:
        return self.centers.shape[0]

    def cluster_indices(self, i: int) -> np.ndarray:
        return np.flatnonzero(self.assignment == i)


def _lloyd(points, weights, init_centers, z) -> ClusteringResult:
    centers = np.atleast_2d(np.array(init_centers, dtype=float))
    k = centers.shape[0]
    history = [_cost_arrays(points, weights, centers, z)]
    assign = assign_to_centers(points, centers)
    converged = False
    iterations = 0
    for iterations in range(1, LLOYD_MAX_ITER + 1):
        for i in range(k):
            idx = np.flatnonzero(assign == i)
            if idx.size:
                centers[i], _ = _one_center(points[idx], weights[idx], z, init=centers[i])
        cost_now = _cost_arrays(points, weights, centers, z)
        empties = np.setdiff1d(np.arange(k), assign)
        for i in empties:
            # an unused center restarts at the currently most expensive point,
            # unless that would not lower the cost
            d = cdist(points, centers).min(axis=1)
            scores = weights * d**z
            j = int(np.argmax(scores))
            if scores[j] <= 0:
                break
            old = centers[i].copy()
            centers[i] = points[j]
            moved_cost = _cost_arrays(points, weights, centers, z)
            if moved_cost > cost_now:
                centers[i] = old
            else:
                cost_now = moved_cost
        history.append(cost_now)
        new_assign = assign_to_centers(points, centers)
        if np.array_equal(new_assign, assign):
            converged = True
            break
        assign = new_assign
    return ClusteringResult(
        centers=centers,
        assignment=assign,
        cost=history[-1],
        z=z,
        iterations=iterations,
        converged=converged,
        cost_history=history,
    )


def _trivial_result(points, weights, centers, z) -> ClusteringResult:
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    assign = assign_to_centers(points, centers)
    cost = _cost_arrays(points, weights, centers, z)
    return ClusteringResult(
        centers=centers, assignment=assign, cost=cost, z=z,
        iterations=0, converged=True, cost_history=[cost],
    )


def _single_center(points, weights, z) -> ClusteringResult:
    center, cost = _one_center(points, weights, z)
    return ClusteringResult(
        centers=center[None, :], assignment=np.zeros(points.shape[0], dtype=np.int64),
        cost=cost, z=z, iterations=0, converged=True, cost_history=[cost],
    )


def _add_costliest(points, weights, run: ClusteringResult) -> ClusteringResult:
    # array form of add_costliest_point: the split recursion calls it per
    # cluster without building a validated point set for each one
    d = np.linalg.norm(points - run.centers[run.assignment], axis=1)
    scores = weights * d**run.z
    j = int(np.argmax(scores))
    if scores[j] <= 0:
        return _trivial_result(points, weights, np.vstack([run.centers, run.centers[0]]), run.z)
    return _lloyd(points, weights, np.vstack([run.centers, points[j]]), run.z)


def add_costliest_point(pointset: WeightedPointSet, run: ClusteringResult) -> ClusteringResult:
    """Lloyd iteration from ``run``'s centers plus its most expensive point.

    The added point maximizes w_p * ||p - assigned center||^z.  When every
    point already sits on its center, the result is the zero-cost run with
    ``run.centers[0]`` duplicated and no iterations.
    """
    return _add_costliest(pointset.points, pointset.weights, run)


class _Recursion:
    """The k/2 -> k recursion on one weighted point set, for one call.

    Only odd k draw from the rng, so the run for a power-of-two k, and the
    2-center split of its clusters, are fixed by (points, weights, z).
    Each is computed once here and shared by every k solved through this
    object; runs that draw from the rng are never kept.
    """

    def __init__(self, pointset: WeightedPointSet, z: int):
        _validate_z(z)
        self.pointset, self.z = pointset, z
        self._runs = {}    # power-of-two k -> k-center run
        self._splits = {}  # power-of-two k -> 2k-center init split from that run

    def run(self, k: int, rng) -> ClusteringResult:
        if k in self._runs:
            return self._runs[k]
        points, weights, z = self.pointset.points, self.pointset.weights, self.z
        n = points.shape[0]
        if k >= n:
            run = _trivial_result(points, weights, points.copy(), z)
        elif k == 1:
            run = _single_center(points, weights, z)
        else:
            init = self._split(k // 2, rng)
            if k % 2 == 1:
                init = np.vstack([init, points[rng.integers(n)]])
            run = _lloyd(points, weights, init, z)
        if _is_power_of_two(k):
            self._runs[k] = run
        return run

    def _split(self, k: int, rng) -> np.ndarray:
        if k in self._splits:
            return self._splits[k]
        base = self.run(k, rng)
        split = _split_init(self.pointset.points, self.pointset.weights, base)[0]
        if _is_power_of_two(k):
            self._splits[k] = split
        return split


def _is_power_of_two(k: int) -> bool:
    return k & (k - 1) == 0


def _split_init(points, weights, base: ClusteringResult):
    """2-center solutions of every cluster of ``base``; returns (centers, costs).

    Each cluster's 2-center run is seeded with {its 1-center, its most
    expensive point}.
    """
    init, split_costs = [], []
    for i in range(base.k):
        idx = base.cluster_indices(i)
        if idx.size == 0:
            init.append(np.vstack([base.centers[i], base.centers[i]]))
            split_costs.append(0.0)
            continue
        pts, wts = points[idx], weights[idx]
        sub = _add_costliest(pts, wts, _single_center(pts, wts, base.z))
        init.append(sub.centers)
        split_costs.append(sub.cost)
    return np.vstack(init), np.array(split_costs)


def k_clustering(
    pointset: WeightedPointSet, k: int, z: int = 2, seed: int = 0
) -> ClusteringResult:
    """Cluster a weighted point set around k centers.

    Args:
        pointset: the data.
        k: number of centers, 1 <= k <= |P|; k == |P| returns the points
            themselves at cost 0.
        z: cost exponent, 2 for k-means, 1 for k-median.
        seed: controls the random extra center used for odd k.

    Returns:
        ClusteringResult whose centers are 1-center optimal for their own
        clusters (to solver tolerance), with per-point assignment, final
        cost, and the cost trace of the run.
    """
    if not 1 <= k <= pointset.size:
        raise ValidationError(f"k must be in [1, {pointset.size}], got {k}")
    return _Recursion(pointset, z).run(k, np.random.default_rng(seed))


@dataclass
class DoubledRun:
    """A k-center run plus the 2k-center run initialized from it.

    ``split_costs[i]`` is the 2-center cost of cluster i of ``base``; by
    construction ``doubled.cost <= split_costs.sum() <= base.cost``.
    """

    base: ClusteringResult
    doubled: ClusteringResult
    split_costs: np.ndarray

    @property
    def gap(self) -> float:
        return self.base.cost - self.doubled.cost


def extend_to_doubled(pointset: WeightedPointSet, base: ClusteringResult) -> DoubledRun:
    """Continue a k-center run into the 2k-center run seeded from its clusters."""
    points, weights = pointset.points, pointset.weights
    init, split_costs = _split_init(points, weights, base)
    if 2 * base.k >= pointset.size:
        doubled = _trivial_result(points, weights, points.copy(), base.z)
    else:
        doubled = _lloyd(points, weights, init, base.z)
    return DoubledRun(base=base, doubled=doubled, split_costs=split_costs)


def k_clustering_doubled(
    pointset: WeightedPointSet, k: int, z: int = 2, seed: int = 0
) -> DoubledRun:
    """Run k-clustering and the 2k-clustering seeded from its clusters.

    Matches k_clustering(pointset, 2*k, ...) exactly for the same seed while
    also exposing the intermediate k-center run and per-cluster 2-center
    costs needed by the size search and the error certificate.
    """
    return extend_to_doubled(pointset, k_clustering(pointset, k, z=z, seed=seed))


@dataclass
class BruteForceResult:
    """Exhaustive-search optimum for small instances.

    ``costs_by_size[j-1]`` is the optimal cost using at most j centers;
    ``parts`` is the optimal partition for the requested k (possibly fewer
    parts if duplicates make extra centers useless).
    """

    cost: float
    centers: np.ndarray
    parts: list
    costs_by_size: np.ndarray


def brute_force_optimal(pointset: WeightedPointSet, k: int, z: int = 2) -> BruteForceResult:
    """Exact optimal k-clustering by dynamic programming over subsets.

    Enumerates every partition of the points into at most k parts (the part
    containing the lowest-index point is canonical), scoring each part by
    its optimal 1-center cost.  Limited to |P| <= 12.
    """
    _validate_z(z)
    n = pointset.size
    if n > 12:
        raise ValidationError("exhaustive search is limited to 12 points")
    if not 1 <= k <= n:
        raise ValidationError(f"k must be in [1, {n}], got {k}")
    points, weights = pointset.points, pointset.weights
    full = (1 << n) - 1
    index_cache = [np.flatnonzero([(mask >> i) & 1 for i in range(n)]) for mask in range(full + 1)]
    one_cost = [0.0] * (full + 1)
    one_ctr = [None] * (full + 1)
    for mask in range(1, full + 1):
        idx = index_cache[mask]
        center, cost = _one_center(points[idx], weights[idx], z, BRUTE_FORCE_MEDIAN_TOL)
        one_cost[mask] = cost
        one_ctr[mask] = center

    best_prev = list(one_cost)  # at most 1 part
    best_prev[0] = 0.0
    parent = {1: None}
    tables = {1: list(best_prev)}
    for j in range(2, k + 1):
        best_j = [np.inf] * (full + 1)
        best_j[0] = 0.0
        parent_j = [0] * (full + 1)
        for mask in range(1, full + 1):
            low = mask & -mask
            rest = mask ^ low
            sub = rest
            best_val, best_part = np.inf, low
            while True:
                part = sub | low
                cand = one_cost[part] + best_prev[mask ^ part]
                if cand < best_val:
                    best_val, best_part = cand, part
                if sub == 0:
                    break
                sub = (sub - 1) & rest
            best_j[mask] = best_val
            parent_j[mask] = best_part
        parent[j] = parent_j
        tables[j] = list(best_j)
        best_prev = best_j

    costs_by_size = np.array([tables[j][full] for j in range(1, k + 1)])
    # walk the parent pointers to recover the optimal partition for size k
    parts, part_masks = [], []
    mask, j = full, k
    while mask:
        if j == 1 or parent[j] is None:
            part = mask
        else:
            part = parent[j][mask]
        parts.append(index_cache[part])
        part_masks.append(part)
        mask ^= part
        j = max(j - 1, 1)
    centers = np.vstack([one_ctr[m] for m in part_masks])
    return BruteForceResult(
        cost=float(costs_by_size[k - 1]),
        centers=centers,
        parts=parts,
        costs_by_size=costs_by_size,
    )
