"""Independent reference implementations used to validate the package.

Everything here deliberately takes a different route than the library code:
set-partition enumeration instead of the subset-mask dynamic program,
derivative-free optimization instead of fixed-point iterations, a dual
quadratic program instead of the primal ball iteration, and a sum of
eigenvalues instead of the residuals of a projection onto eigenvectors.
Slow is fine; these only run on small instances.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import minimize


def set_partitions(items, k):
    """Yield every partition of ``items`` into exactly k non-empty blocks."""
    items = list(items)
    n = len(items)
    if k < 1 or k > n:
        return
    if k == 1:
        yield [items]
        return
    if k == n:
        yield [[x] for x in items]
        return
    head, rest = items[0], items[1:]
    # head joins an existing block of a (k)-partition of the rest ...
    for part in set_partitions(rest, k):
        for i in range(len(part)):
            yield part[:i] + [[head] + part[i]] + part[i + 1:]
    # ... or forms its own block next to a (k-1)-partition of the rest
    for part in set_partitions(rest, k - 1):
        yield [[head]] + part


def one_center_oracle(points, weights, z):
    """Best single center for a weighted group, via generic optimization.

    z=2 has the closed-form weighted mean.  For z=1 the objective is convex
    but non-smooth at data points, so Powell is restarted from the mean and
    from every data point and the cheapest result wins.
    """
    points = np.asarray(points, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if z == 2:
        center = weights @ points / weights.sum()
        cost = float(weights @ ((points - center) ** 2).sum(axis=1))
        return center, cost

    def objective(x):
        return float(weights @ np.sqrt(((points - x) ** 2).sum(axis=1)))

    starts = [weights @ points / weights.sum()] + [p for p in points]
    best_center, best_cost = None, np.inf
    for start in starts:
        res = minimize(objective, start, method="Powell",
                       options={"xtol": 1e-12, "ftol": 1e-14, "maxiter": 20000})
        if res.fun < best_cost:
            best_cost, best_center = float(res.fun), np.asarray(res.x, dtype=float)
    return best_center, best_cost


def exhaustive_clustering(points, weights, k, z):
    """Globally optimal k-clustering cost by enumerating all partitions."""
    n = len(points)
    k = min(k, n)
    part_cost: dict = {}

    def cost_of(part):
        key = tuple(sorted(part))
        if key not in part_cost:
            idx = np.array(key)
            part_cost[key] = one_center_oracle(points[idx], weights[idx], z)[1]
        return part_cost[key]

    best_cost, best_parts = np.inf, None
    for parts in set_partitions(range(n), k):
        cost = 0.0
        for part in parts:
            cost += cost_of(part)
            if cost >= best_cost:
                break
        if cost < best_cost:
            best_cost, best_parts = cost, parts
    return best_cost, best_parts


def meb_radius_oracle(points):
    """Optimal minimum-enclosing-ball radius via the dual quadratic program.

    maximize  lam . |p|^2 - |P^T lam|^2   over the probability simplex;
    the optimum equals the squared optimal radius.
    """
    points = np.asarray(points, dtype=float)
    n = len(points)
    sq = (points**2).sum(axis=1)
    gram = points @ points.T

    def neg_dual(lam):
        return -(lam @ sq - lam @ gram @ lam)

    def neg_dual_grad(lam):
        return -(sq - 2.0 * gram @ lam)

    lam0 = np.full(n, 1.0 / n)
    res = minimize(
        neg_dual, lam0, jac=neg_dual_grad, method="SLSQP",
        bounds=[(0.0, 1.0)] * n,
        constraints=[{"type": "eq", "fun": lambda lam: lam.sum() - 1.0,
                      "jac": lambda lam: np.ones_like(lam)}],
        options={"maxiter": 1000, "ftol": 1e-14},
    )
    return float(np.sqrt(max(-res.fun, 0.0)))


def pca_cost_oracle(points, weights, l):
    """Optimal sum of weighted squared residuals onto an l-dim subspace.

    Equals the sum of the d-l smallest eigenvalues of the weighted second
    moment matrix.
    """
    points = np.asarray(points, dtype=float)
    weights = np.asarray(weights, dtype=float)
    moment = (points * weights[:, None]).T @ points
    eigenvalues = np.linalg.eigvalsh(moment)
    d = points.shape[1]
    keep = max(d - l, 0)
    return float(eigenvalues[:keep].sum())


def random_instance(seed, n_range=(5, 12), dim_range=(1, 4), weighted=True):
    """A small random weighted point set as raw arrays."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(n_range[0], n_range[1] + 1))
    d = int(rng.integers(dim_range[0], dim_range[1] + 1))
    points = rng.uniform(-2.0, 2.0, size=(n, d))
    weights = rng.uniform(0.5, 3.0, size=n) if weighted else np.ones(n)
    return points, weights


def greedy_allocation_oracle(ladders, N, k_fixed=None):
    """The server's per-node center counts, every candidate step scored from scratch.

    Every node starts at its floor (k_fixed, else 1).  While a sample slot
    stays free, each one-center step below a node's cap (k_fixed, else its
    ladder length) is scored as the full sum of the chosen costs over
    sqrt(N - sum of center counts); the lowest score is taken, ties to the
    lowest node, if it is lower than the current allocation's score.
    """
    floor = 1 if k_fixed is None else k_fixed
    caps = [len(ladder) if k_fixed is None else k_fixed for ladder in ladders]
    alloc = [floor] * len(ladders)

    def score(counts):
        return sum(ladder[k - 1] for ladder, k in zip(ladders, counts)) / np.sqrt(N - sum(counts))

    while sum(alloc) < N - 1:
        steps = [alloc[:j] + [alloc[j] + 1] + alloc[j + 1:]
                 for j in range(len(alloc)) if alloc[j] < caps[j]]
        best = min(steps, key=score, default=None)
        if best is None or not score(best) < score(alloc):
            break
        alloc = best
    return tuple(alloc)
