"""Weighted k-clustering engine.

The cost of a center set Q on a weighted point set is
``sum_p w_p * (min_{q in Q} ||p - q||)^z`` with z = 2 (k-means) or
z = 1 (k-median).  The solver is Lloyd iteration over weighted 1-center
steps, run on many independent problems at once: each problem is a
contiguous row segment with its own centers.  Each Lloyd pass works on
whole arrays and reads each of them once: one cdist per problem, from its
centers to its rows, writes one center-major (centers x rows) distance
array, and one minimum over the centers of all problems at once gives
each row's nearest distance, hence the costs and the restart of empty
centers; the first center at that distance is the new assignment.  The
rows sorted by (problem, cluster) make every cluster one contiguous
segment, so all clusters of all problems are recentered at once.  The
recenter reads the rows coordinate-major, a (dim, n) array that
a Lloyd call builds once; each pass regroups it with one ``take`` in the
order of a stable sort of the (problem, cluster) key, cast to the smallest
unsigned type that holds it, so that up to 65,536 keys the sort is a
radix sort.  The clusters are recentered z=2 by segmented weighted sums,
z=1 by one Weiszfeld solver that advances every segment's iterate
together; the pass hands it each cluster's row count and each row's scale
for its vertex test, measured once per Lloyd call.  A solver step sums
every segment's pull terms and inverse distances with one reduceat, and
runs each of its stop tests only where that test can fire.  While a z=1
problem's assignment still moves, its pass is capped: at most
WEISZFELD_CAPPED_STEPS Weiszfeld steps per cluster from the previous
center, which never raise the cost.  The pass after an unchanged
assignment, and pass LLOYD_MAX_ITER, are exact: they solve every median
to tolerance.  A median still unsolved after WEISZFELD_PLAIN_STEPS
Weiszfeld steps takes Newton steps, each kept only if it does not raise
the cost; where one is rejected, the Weiszfeld step is taken and Kuhn's
test may stop the solve on the nearest data point.  A problem has
converged when an exact pass leaves its assignment unchanged.
A problem stops on its own, and its rows drop out.  A single problem is
the plain k-center run.  The segment solver is also the only 1-center
code: ``one_center`` is its one-segment call, and ``brute_force_optimal``
solves all subsets in one call; both solve to tolerance.  A run keeps
each row's distance to its center, as its last pass measured it, so no
caller measures it again.

Initialization is recursive and draws no randomness: a 2m-center run
starts from the union of per-cluster 2-center solutions of an m-center run,
and a (2m+1)-center run adds the costliest point against those 2m centers.
Every run on one point set comes from that set's recursion, which the set
keeps for as long as it lives: k_clustering, k_clustering_doubled and the
coreset constructions on the same set and z share its runs, so each is
solved once, and the shared runs are read-only.  One recursion can also
carry many point sets (the shards of a distributed run): each of its
levels is then one solver call over all of them.
The split scores every point once against its center in the m-center run
(that cluster's 1-center, once the run has converged), sorts the points by
cluster once, and solves every cluster's 2-center run from {its center, its
most expensive point} as one problem of a single Lloyd call; a cluster that
is empty or already at cost 0 keeps its center twice.  This ordering makes
the reported costs satisfy, by construction,

  * each returned center is a (near-)optimal 1-center of its cluster,
  * cost(P, 2k centers) <= sum of the per-cluster 2-center costs,
  * cost(P, 2 centers) <= cost of {1-center of P, most expensive point},

which is what the adaptive coreset size search and its gap certificate
rely on.
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
# Weiszfeld steps per cluster in a Lloyd pass whose assignment is still moving
WEISZFELD_CAPPED_STEPS = 3
# plain Weiszfeld steps before a segment solving to tolerance tries Newton steps
WEISZFELD_PLAIN_STEPS = 30
BRUTE_FORCE_MEDIAN_TOL = 1e-11


def _validate_z(z: int) -> None:
    if z not in (1, 2):
        raise ValidationError(f"z must be 1 (k-median) or 2 (k-means), got {z}")


def clustering_cost(pointset: WeightedPointSet, centers: np.ndarray, z: int = 2) -> float:
    """Weighted z-power distance cost of a center set on a point set."""
    _validate_z(z)
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    if centers.shape[1] != pointset.dim:
        raise ValidationError(
            f"centers have dim {centers.shape[1]}, points have dim {pointset.dim}"
        )
    return _trivial_result(pointset.points, pointset.weights, centers, z).cost


def one_center(pointset: WeightedPointSet, z: int, tol: float = DEFAULT_MEDIAN_TOL) -> tuple[np.ndarray, float]:
    """Optimal 1-center of a weighted point set and its cost.

    z=2 gives the weighted mean; z=1 the weighted geometric median, solved
    from the mean by the Weiszfeld solver of every Lloyd pass to gradient
    tolerance ``tol`` (z=1 only), or returned as the data point where
    Kuhn's test stops it.
    """
    _validate_z(z)
    points, weights = pointset.points, pointset.weights
    center = _segment_centers(points.T.copy(), weights, np.zeros(1, dtype=np.intp), z, tol)
    return center[0], _trivial_result(points, weights, center, z).cost


def _segment_centers(cols, weights, starts, z, tol=DEFAULT_MEDIAN_TOL, init=None,
                     max_steps=WEISZFELD_MAX_ITER, scale=None, sizes=None):
    """1-centers, one per row, of the contiguous row segments that begin at ``starts``.

    The rows are given coordinate-major: ``cols`` is (dim, n), row p its
    column p.  Segment s is rows starts[s] up to starts[s+1] (the last one
    runs to the end); every segment must be non-empty.  z=2 gives the
    weighted means; z=1 gives Weiszfeld medians started from ``init`` or
    the means, after at most ``max_steps`` steps (one count, or one per
    segment).  ``scale`` is each row's largest absolute coordinate, which
    sets how close an iterate must come to a row to sit on it, and
    ``sizes`` each segment's row count; a Lloyd call has both at hand, any
    other caller leaves them to be computed here.
    """
    if z == 2:
        return _segment_means(cols, weights, starts)
    if init is None:
        init = _segment_means(cols, weights, starts)
    if scale is None:
        scale = np.abs(cols).max(axis=0)
    if sizes is None:
        sizes = np.diff(np.append(starts, cols.shape[1]))
    return _weiszfeld(cols, weights, starts, sizes, init, tol, max_steps, scale)


def _segment_means(cols, weights, starts):
    """Weighted means of the segments of ``cols`` (dim, n), one per row."""
    sums = np.add.reduceat(cols * weights, starts, axis=1)
    return (sums / np.add.reduceat(weights, starts)).T


def _weiszfeld(cols, weights, starts, sizes, init, tol, max_steps, scale):
    """Weiszfeld iteration on every segment at once.

    A segment stops when its rows' pull, the gradient of sum_p w_p*||p - y||,
    has norm <= ``tol``, when a step leaves its iterate unchanged, or when
    its iterate sits on a row where Kuhn's test holds: the pull of the
    other rows is at most the row's weight (+ ``tol``); it then returns the
    row.  Else it returns its iterate right after its ``max_steps``-th
    update (at most WEISZFELD_MAX_ITER).  No step raises a segment's cost,
    so a capped segment is no worse than its ``init``.  ``cols`` is only
    read; a finished segment's rows are dropped, so the segments still
    iterating do not pay for it, and the solve ends when the last segment
    finishes.  An iterate sits on a row within 1e-14 * (1 + the segment's
    largest ``scale``), the rows' largest absolute coordinates: a one-row
    segment's first step lands there, and its second stops on the row.

    A step writes each row's pull terms w (p - y) / d, d its distance to the
    iterate, above its w / d in one (dim + 1, n) buffer and sums both per
    segment with one reduceat.  The gradient test runs every step; rows on
    an iterate are sought only once some d is within 1e-14 * (1 + the
    largest ``scale``), and step limits compared from the first step that
    reaches one.  The unchanged-iterate test runs on step 1, which may turn
    a -0.0 of the init into 0.0, and from step min(WEISZFELD_CAPPED_STEPS,
    WEISZFELD_PLAIN_STEPS) on: in between, a plain step from an unchanged
    iterate repeats itself bit for bit.

    The first WEISZFELD_PLAIN_STEPS steps are plain Weiszfeld steps, so
    capped passes and short solves never see what follows.  After them, a
    segment that no row sits on, with steps left before its limit, takes a
    Newton step instead: it solves H s = the pull of its rows, with
    H = sum_p w/d (I - u u^T), u the unit vector from the iterate to p and
    d its length, plus a ridge of 1e-12 * sum_p w/d that keeps H positive
    definite on collinear rows.  The step is no longer than the farthest
    row, since the optimum lies in the rows' hull, nor than twice the
    segment's last Newton step.  The next distance pass, which the segment
    takes anyway, checks the step: it is kept if the cost did not rise.
    Otherwise the segment takes the Weiszfeld step it passed up instead,
    its next Newton step is at most half as long, and Kuhn's test runs at
    the row nearest that Weiszfeld step: where it holds, the segment stops
    on the row.
    Both tests scale ``tol`` by the segment's weight where it is below 1,
    so scaling a light segment's weights does not move its median.
    """
    dim = cols.shape[0]
    near_any, near_seg, seg_starts = 1e-14 * (1.0 + scale.max()), None, starts
    pts, y = cols, np.array(init, dtype=float).T
    out = np.empty_like(y.T)
    live = np.arange(sizes.size)  # row of ``out`` of each segment still iterating
    limit = np.minimum(max_steps, WEISZFELD_MAX_ITER)
    first_cap, first_same = limit.min(), min(WEISZFELD_CAPPED_STEPS, WEISZFELD_PLAIN_STEPS)
    tol = tol * np.minimum(1.0, np.add.reduceat(weights, starts))
    buf = np.empty((dim + 1, pts.shape[1]))  # per row: the pull terms over w / d
    # once Newton steps start: each segment's cost before the Newton step it
    # took (inf where it took none), the Weiszfeld step it passed up, and
    # the longest Newton step it may take next
    before = passed_up = reach = None
    for step in range(1, WEISZFELD_MAX_ITER + 1):
        newton = step > WEISZFELD_PLAIN_STEPS
        diff = buf[:dim]
        np.subtract(pts, y.repeat(sizes, axis=1), out=diff)
        dist = np.sqrt(np.einsum("ij,ij->j", diff, diff))
        if newton:
            w_dist = weights * dist
            cost = np.add.reduceat(w_dist, starts)
        on = dist.min() <= near_any
        if near_seg is None and (on or newton):
            near_seg = 1e-14 * (1.0 + np.maximum.reduceat(scale, seg_starts))
        if on:
            near = dist <= np.repeat(near_seg[live], sizes)
            on = near.any()
            dist[near] = np.inf  # a point on the iterate does not pull
        np.divide(weights, dist, out=buf[dim])
        diff *= buf[dim]
        sums = np.add.reduceat(buf, starts, axis=1)
        pull_vec, inv_sum = sums[:dim], sums[dim]
        pull = np.sqrt(np.einsum("ij,ij->j", pull_vec, pull_vec))
        stop = pull <= tol  # the gradient test
        if on:
            # the iterate sits on a data point: stop on that point, not on
            # the iterate, which can be an ULP away from it, when the pull of
            # the other points does not exceed its weight; else damp the step
            seg = np.repeat(np.arange(live.size), sizes)
            first = np.flatnonzero(near)
            first = first[np.r_[True, seg[first[1:]] != seg[first[:-1]]]]
            hit = seg[first]
            w_here = np.add.reduceat(np.where(near, weights, 0.0), starts)[hit]
            pinned = pull[hit] <= w_here + tol[hit]
            stop[hit] = pinned
            y[:, hit[pinned]] = pts[:, first[pinned]]
            inv_sum[hit[pinned]] = np.inf  # no step, also where no point pulls
            moving = hit[~pinned]
            pull_vec[:, moving] *= 1.0 - np.minimum(1.0, w_here[~pinned] / pull[moving])
        y_new = y + pull_vec / inv_sum
        if step == 1 or step >= first_same:  # step 1 may turn an init's -0.0 into 0.0
            stop |= (y_new == y).all(axis=0)
        if newton:
            if before is None:
                before, reach = np.full((2, live.size), np.inf)
                passed_up = np.empty_like(y)
            back = np.flatnonzero(cost > before)  # their Newton step raised the cost
            y_new[:, back] = passed_up[:, back]
            reach[back] /= 4.0  # half the rejected step's length
            if back.size:
                vertex, pinned = _nearest_row_test(pts, weights, np.repeat(near_seg[live], sizes),
                                                   sizes, back, y_new[:, back], tol[back])
                stop[back] = pinned
                y[:, back[pinned]] = vertex[:, pinned]
            take = ~stop & (cost <= before) & (step < limit)
            if on:
                take[hit] = False
            before[:] = np.inf
            if take.any():
                take, cand, length = _newton_steps(
                    diff, w_dist, dist, inv_sum, pull_vec, y, sizes, take, reach
                )
                before[take] = cost[take]
                reach[take] = 2.0 * length
                passed_up[:, take] = y_new[:, take]
                y_new[:, take] = cand
        done = stop | (limit == step) if step >= first_cap else stop
        if done.any():
            # a stopped segment returns its iterate, a capped one its update
            y_new[:, stop] = y[:, stop]
            out[live[done]] = y_new[:, done].T
            if done.all():
                break
            keep = ~done
            rows = np.repeat(keep, sizes)
            pts, weights = pts.compress(rows, axis=1), weights[rows]
            sizes, live, tol = sizes[keep], live[keep], tol[keep]
            limit = limit[keep] if limit.ndim else limit
            y_new = y_new[:, keep]
            starts = np.cumsum(sizes) - sizes
            buf = np.empty((dim + 1, pts.shape[1]))
            if before is not None:
                before, passed_up, reach = before[keep], passed_up[:, keep], reach[keep]
        y = y_new
    return out


def _newton_steps(pull_terms, w_dist, dist, inv_sum, pull_vec, y, sizes, take, reach):
    """Newton candidates of the segments in the mask ``take``; see _weiszfeld.

    Per row, ``pull_terms`` holds w (p - y) / d, ``w_dist`` w d and
    ``dist`` d; per segment, ``inv_sum`` is the sum of w / d, ``pull_vec``
    the sum of the terms and ``reach`` the longest step allowed.  No row
    of these segments sits on its iterate.  Returns the segments whose
    candidate differs from their iterate, those candidates, and the
    lengths of their steps.
    """
    rows = np.repeat(take, sizes)
    terms = pull_terms[:, rows]
    take, sizes = np.flatnonzero(take), sizes[take]
    starts = np.cumsum(sizes) - sizes
    # w/d u u^T = (w (p - y) / d) (w (p - y) / d)^T / (w d)
    hess = np.add.reduceat(terms[:, None] * (terms / w_dist[rows])[None], starts, axis=2).T
    hess *= -1.0
    diag = np.arange(y.shape[0])
    hess[:, diag, diag] += (1.0 + 1e-12) * inv_sum[take, None]  # H plus its ridge
    step = np.linalg.solve(hess, pull_vec[:, take].T[..., None])[..., 0].T
    length = np.sqrt(np.einsum("ij,ij->j", step, step))
    bound = np.minimum(reach[take], np.maximum.reduceat(dist[rows], starts))
    step *= np.minimum(1.0, bound / length)
    cand = y[:, take] + step
    moves = (cand != y[:, take]).any(axis=0)
    return take[moves], cand[:, moves], np.minimum(length, bound)[moves]


def _nearest_row_test(pts, weights, near_dist, sizes, segs, y, tol):
    """Kuhn's test at the row nearest ``y`` in each segment of the list ``segs``.

    Column i of ``y`` is a point of segment segs[i].  Returns each of these
    segments' row nearest its point (the first one on ties) and whether it
    is optimal: the pull of the segment's other rows there is at most the
    weight of the rows on it, + tol[i].
    """
    rows = np.repeat(np.isin(np.arange(sizes.size), segs), sizes)
    pts, weights, near_dist, sizes = pts[:, rows], weights[rows], near_dist[rows], sizes[segs]
    starts = np.cumsum(sizes) - sizes
    diff = np.repeat(y, sizes, axis=1)
    np.subtract(pts, diff, out=diff)
    gap = np.einsum("ij,ij->j", diff, diff)
    vertex = pts[:, np.lexsort((gap, np.repeat(np.arange(sizes.size), sizes)))[starts]]
    diff = np.repeat(vertex, sizes, axis=1)
    np.subtract(pts, diff, out=diff)
    gap = np.sqrt(np.einsum("ij,ij->j", diff, diff))
    on = gap <= near_dist
    gap[on] = np.inf
    w_here = np.add.reduceat(np.where(on, weights, 0.0), starts)
    diff *= weights / gap
    pull_vec = np.add.reduceat(diff, starts, axis=1)
    return vertex, np.sqrt(np.einsum("ij,ij->j", pull_vec, pull_vec)) <= w_here + tol


@dataclass
class ClusteringResult:
    """Output of a k-clustering run.

    ``assignment[p]`` is the row of ``centers`` point p belongs to and
    ``distances[p]`` its distance to that center, read off the distance
    pass that made the assignment; ``cost_history`` holds the cost after
    initialization and after each recenter pass, and is non-increasing.
    """

    centers: np.ndarray
    assignment: np.ndarray
    distances: np.ndarray
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


def _cost_and_assignment(points, weights, centers, sizes, z, filled=None):
    """Per-problem costs, nearest-center assignment and its distances from one distance array.

    The rows are consecutive problems: problem p is the next sizes[p] rows,
    with its own centers[p] (``centers`` has shape (problems, c, dim)).  The
    distance array is center-major, (c, rows): one cdist per problem
    measures its own centers against its rows, so a row's assignment
    indexes them.  All problems are reduced at once: the minimum over the
    centers is each row's distance to its nearest center and gives the
    cost, and the assignment is the first center at that distance, so ties
    go to the lowest index.  Where ``filled[p, i]`` is False, center i of
    problem p first restarts in place at that problem's currently most
    expensive row, unless that would raise the problem's cost; only a
    problem whose centers moved is assigned again.
    """
    if len(sizes) == 1:
        bounds = [(0, points.shape[0])]
        dist = cdist(centers[0], points)
    else:
        ends = np.cumsum(sizes)
        bounds = list(zip(ends - sizes, ends))
        dist = np.empty((centers.shape[1], points.shape[0]))
        for p, (s, e) in enumerate(bounds):
            dist[:, s:e] = cdist(centers[p], points[s:e])
    near = np.minimum.reduce(dist, axis=0)
    assign = _first_nearest(dist, near)
    if filled is not None and filled.all():
        filled = None  # no center to restart
    costs = []
    for p, (s, e) in enumerate(bounds):
        cost = float(weights[s:e] @ (near[s:e] if z == 1 else near[s:e]**z))
        if filled is not None and not filled[p].all():
            cost, moved = _restart(points[s:e], weights[s:e], dist[:, s:e], near[s:e], cost,
                                   centers[p], np.flatnonzero(~filled[p]), z)
            if moved:
                assign[s:e] = _first_nearest(dist[:, s:e], near[s:e])
        costs.append(cost)
    return costs, assign, near


def _first_nearest(dist, near):
    """Per row, the first center whose entry of ``dist`` (centers x rows) equals ``near``."""
    assign = np.full(dist.shape[1], dist.shape[0] - 1, dtype=np.intp)
    # downward, so that the lowest index is written last and wins ties
    for j in range(dist.shape[0] - 2, -1, -1):
        np.putmask(assign, dist[j] == near, j)
    return assign


def _restart(points, weights, dist, nearest, cost, centers, empty, z):
    """Move each center in ``empty`` to the costliest row, unless the cost rises.

    ``nearest`` holds each row's smallest entry of ``dist`` (centers x
    rows).  ``dist``, ``nearest`` and ``centers`` are updated in place;
    returns the cost after the moves and whether any center moved.
    """
    moved_any = False
    for i in empty:
        scores = weights * nearest**z
        j = int(np.argmax(scores))
        if scores[j] <= 0:
            break
        old = dist[i].copy()
        dist[i] = cdist(points[j : j + 1], points)[0]
        moved = dist.min(axis=0)
        moved_cost = float(weights @ moved**z)
        if moved_cost > cost:
            dist[i] = old
        else:
            centers[i] = points[j]
            nearest[:] = moved
            cost, moved_any = moved_cost, True
    return cost, moved_any


def _lloyd(points, weights, init_centers, z) -> ClusteringResult:
    """Lloyd iteration from ``init_centers``: one problem of _lloyd_problems."""
    centers = np.atleast_2d(np.array(init_centers, dtype=float))
    return _lloyd_problems(points, weights, np.zeros(1, dtype=np.intp), centers[None], z)[0]


def _lloyd_problems(points, weights, starts, init_centers, z) -> list:
    """Lloyd iteration on many independent problems at once; one result each.

    Problem p is the non-empty row segment that begins at starts[p] (the
    last one runs to the end), clustered around its own c centers
    ``init_centers[p]``.  A pass recenters every (problem, center) cluster
    in one _segment_centers call, restarts each problem's empty centers at
    that problem's own costliest row, and assigns each row to the nearest
    center of its own problem.

    For z=1 a pass is capped or exact.  A capped pass takes at most
    WEISZFELD_CAPPED_STEPS Weiszfeld steps per cluster, since the next
    pass moves points again anyway.  A pass is exact, solving each median
    to tolerance, when the previous pass left its problem's assignment
    unchanged, and at pass LLOYD_MAX_ITER.  Every z=2 pass is exact.  No
    pass raises a problem's cost.  A problem has converged when an exact
    pass leaves its assignment unchanged.  It stops then or after
    LLOYD_MAX_ITER passes, so its last pass is always exact; a finished
    problem's rows are dropped.
    """
    centers = np.array(init_centers, dtype=float)
    n_problems, c, dim = centers.shape
    sizes = np.diff(np.append(starts, points.shape[0]))
    # the rows coordinate-major, as the recenter reads them, and Weiszfeld's
    # per-row scale, taken once: the rows never change
    cols = points.T.copy()
    scale = np.abs(cols).max(axis=0) if z == 1 else None
    live = np.arange(n_problems)  # the input problem of each entry of ``centers``
    unchanged = np.zeros(n_problems, dtype=bool)  # the last pass kept the assignment
    costs, assign, near = _cost_and_assignment(points, weights, centers, sizes, z)
    histories = [[cost] for cost in costs]
    results = [None] * n_problems
    starts, offset = np.cumsum(sizes) - sizes, np.repeat(live * c, sizes)
    for iterations in range(1, LLOYD_MAX_ITER + 1):
        exact = unchanged | (z == 2) | (iterations == LLOYD_MAX_ITER)
        # recenter every cluster at once: rows sorted by (problem, center)
        # make each one segment; the stable sort of a key of at most 16 bits
        # is a radix sort
        key = assign + offset
        order = np.argsort(key.astype(np.min_scalar_type(live.size * c - 1)), kind="stable")
        counts = np.bincount(key, minlength=live.size * c)
        filled = counts > 0
        flat = centers.reshape(-1, dim)
        sizes_in = counts[filled]  # the rows of each cluster that has any
        steps = np.where(exact, WEISZFELD_MAX_ITER, WEISZFELD_CAPPED_STEPS)
        steps = steps[0] if live.size == 1 else np.repeat(steps, c)[filled]
        flat[filled] = _segment_centers(
            cols.take(order, axis=1), weights.take(order), np.cumsum(sizes_in) - sizes_in,
            z, init=flat[filled], max_steps=steps,
            scale=None if scale is None else scale.take(order), sizes=sizes_in,
        )
        costs, new_assign, near = _cost_and_assignment(
            points, weights, centers, sizes, z, filled.reshape(-1, c)
        )
        for p, cost in zip(live, costs):
            histories[p].append(cost)
        unchanged = ~np.logical_or.reduceat(new_assign != assign, starts)
        converged = unchanged & exact
        assign = new_assign
        done = converged | (iterations == LLOYD_MAX_ITER)
        if not done.any():
            continue
        for i in np.flatnonzero(done):
            p, rows = live[i], slice(starts[i], starts[i] + sizes[i])
            results[p] = ClusteringResult(
                centers=centers[i], assignment=assign[rows], distances=near[rows],
                cost=costs[i], z=z, iterations=iterations, converged=bool(converged[i]),
                cost_history=histories[p],
            )
        if done.all():
            break
        keep = ~done
        rows = np.repeat(keep, sizes)
        points, weights, assign = points[rows], weights[rows], assign[rows]
        cols = cols.compress(rows, axis=1)
        if scale is not None:
            scale = scale[rows]
        centers, sizes, live, unchanged = centers[keep], sizes[keep], live[keep], unchanged[keep]
        starts, offset = np.cumsum(sizes) - sizes, np.repeat(np.arange(live.size) * c, sizes)
    return results


def _trivial_result(points, weights, centers, z) -> ClusteringResult:
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    costs, assign, near = _cost_and_assignment(points, weights, centers[None], [points.shape[0]], z)
    return ClusteringResult(
        centers=centers, assignment=assign, distances=near, cost=costs[0], z=z,
        iterations=0, converged=True, cost_history=costs,
    )


def add_costliest_point(pointset: WeightedPointSet, run: ClusteringResult) -> ClusteringResult:
    """Lloyd iteration from ``run``'s centers plus its most expensive point.

    The added point maximizes w_p * ||p - assigned center||^z, read off
    ``run.distances``.  When every point already sits on its center, the
    result is the zero-cost run with ``run.centers[0]`` duplicated and no
    iterations.
    """
    points, weights = pointset.points, pointset.weights
    scores = weights * run.distances**run.z
    j = int(np.argmax(scores))
    if scores[j] <= 0:
        return _trivial_result(points, weights, np.vstack([run.centers, run.centers[0]]), run.z)
    return _lloyd(points, weights, np.vstack([run.centers, points[j]]), run.z)


class _Recursion:
    """The k/2 -> k recursion on weighted point sets: where every run is made.

    The sets share one dimension and are solved together, level by level:
    the 1-center runs of all sets are one _segment_centers call, a split
    level is one _lloyd_problems call over the clusters of all sets, and a
    k-center rung is one _lloyd_problems call with one problem per set.
    Every set's runs are bit for bit those of a recursion on that set
    alone.  A single set is the plain case: its runs are element 0, and
    the recursion lives with its set (see _recursion_of).

    The engine draws no randomness: every run, and the 2-center split of its
    clusters, is fixed by (points, weights, z).  Each is computed once here
    and shared by every k solved through this object, so one recursion
    serves a k-center run, its 2k-center continuation, a whole search over
    k and a ladder of runs.  The runs it returns are shared, so their
    centers, assignments, distances and split costs are read-only.  An odd
    k takes the 2*(k//2) split centers plus the costliest point against
    them, argmax w_p * min_q ||p - q||^z, the first one on ties.

    It keeps each set's points and weights, never the set itself, so a
    set that holds its recursion forms no reference cycle with it.
    """

    def __init__(self, pointsets: list, z: int):
        _validate_z(z)
        self.sets, self.z = [(ps.points, ps.weights) for ps in pointsets], z
        self.largest = max((ps.size for ps in pointsets), default=0)
        self._runs = {}    # k -> every set's min(k, |P|)-center run
        # k -> every set's split of its k-center run: (2k-center init, per-cluster 2-center costs)
        self._splits = {}

    def run(self, k: int) -> list:
        """Every set's min(k, |P|)-center run, 1 <= k <= the largest |P|.

        A set's |P|-center run is its points at cost 0.
        """
        if k in self._runs:
            return self._runs[k]
        if not 1 <= k <= self.largest:
            raise ValidationError(f"k must be in [1, {self.largest}], got {k}")
        runs = [
            None if points.shape[0] > k else _trivial_result(points, weights, points.copy(), self.z)
            for points, weights in self.sets
        ]
        todo = [s for s, run in enumerate(runs) if run is None]
        if todo:
            # the sets still to solve, one after another
            sets = [self.sets[s] for s in todo]
            sizes = np.array([points.shape[0] for points, _ in sets])
            points = np.vstack([points for points, _ in sets])
            weights = np.concatenate([weights for _, weights in sets])
            starts = np.cumsum(sizes) - sizes
            if k == 1:
                centers = _segment_centers(points.T.copy(), weights, starts, self.z)
                solved = [
                    _trivial_result(p, w, centers[i : i + 1], self.z)
                    for i, (p, w) in enumerate(sets)
                ]
            else:
                splits = self._split(k // 2)
                init = [splits[s][0] for s in todo]
                if k % 2 == 1:
                    for i, (p, w) in enumerate(sets):
                        scores = w * cdist(init[i], p).min(axis=0) ** self.z
                        init[i] = np.vstack([init[i], p[np.argmax(scores)]])
                solved = _lloyd_problems(points, weights, starts, np.stack(init), self.z)
            for s, run in zip(todo, solved):
                runs[s] = run
        for run in runs:
            for shared in (run.centers, run.assignment, run.distances):
                shared.flags.writeable = False
        self._runs[k] = runs
        return runs

    def doubled(self, k: int) -> list:
        """Every set's k-center run and min(2k, |P|)-center run seeded from its clusters."""
        bases = self.run(k)
        twice = self.run(min(2 * k, self.largest))
        return [
            DoubledRun(base, doubled, split[1])
            for base, doubled, split in zip(bases, twice, self._split(k))
        ]

    def _split(self, k: int) -> list:
        if k not in self._splits:
            splits = _split_init(self.sets, self.run(k))
            for _, split_costs in splits:
                split_costs.flags.writeable = False
            self._splits[k] = splits
        return self._splits[k]


def _recursion_of(pointset: WeightedPointSet, z: int) -> _Recursion:
    """The one recursion that makes every run on ``pointset`` alone at exponent z.

    It is kept on the set and lives exactly as long as the set, so every
    k-center run, doubled run and size search on the same set, whichever
    caller asks, solves each run once.
    """
    recursion = pointset._recursions.get(z)
    if recursion is None:
        recursion = pointset._recursions[z] = _Recursion([pointset], z)
    return recursion


def _split_init(sets, bases) -> list:
    """2-center solutions of every cluster of each run; one (centers, costs) pair per run.

    ``bases[i]`` is a run on the set whose (points, weights) are
    ``sets[i]``.  Each cluster's 2-center run is seeded with {its center in
    the base run, its most expensive point}:
    add_costliest_point on the cluster's 1-center run, whose center is the
    one in the base run (a converged run's center already is its cluster's
    1-center, so it is not solved again).  The sets' rows are stacked and
    sorted by cluster, stably, so each cluster of each set is one segment in
    index order, and the runs of all of them are one _lloyd_problems call;
    an empty or zero-cost cluster keeps its center twice at cost 0.
    """
    ks = np.array([base.k for base in bases])
    offsets = np.cumsum(ks) - ks  # each run's first cluster among all runs' clusters
    n_clusters, z = int(ks.sum()), bases[0].z
    assignment = np.concatenate([base.assignment + off for base, off in zip(bases, offsets)])
    centers = np.vstack([base.centers for base in bases])
    order = np.argsort(assignment.astype(np.min_scalar_type(n_clusters - 1)), kind="stable")
    points = np.vstack([points for points, _ in sets]).take(order, axis=0)
    weights = np.concatenate([weights for _, weights in sets]).take(order)
    scores = weights * np.concatenate([base.distances for base in bases])[order] ** z
    counts = np.bincount(assignment, minlength=n_clusters)
    init, split_costs = np.repeat(centers, 2, axis=0), np.zeros(n_clusters)
    # each cluster's costliest point, the first one on ties
    filled = counts > 0
    starts = (np.cumsum(counts) - counts)[filled]
    top = np.zeros(n_clusters)
    top[filled] = np.maximum.reduceat(scores, starts)
    split = top > 0
    n = scores.size
    first = np.where(scores == np.repeat(top, counts), np.arange(n), n)
    costliest = np.minimum.reduceat(first, starts)[split[filled]]
    if split.any():
        rows = np.repeat(split, counts)
        sizes = counts[split]
        seeds = np.stack([centers[split], points[costliest]], axis=1)
        runs = _lloyd_problems(points[rows], weights[rows], np.cumsum(sizes) - sizes, seeds, z)
        init.reshape(n_clusters, 2, -1)[split] = [run.centers for run in runs]
        split_costs[split] = [run.cost for run in runs]
    return list(zip(np.split(init, 2 * offsets[1:]), np.split(split_costs, offsets[1:])))


def k_clustering(pointset: WeightedPointSet, k: int, z: int = 2) -> ClusteringResult:
    """Cluster a weighted point set around k centers.

    The run draws no randomness: it is fixed by the points, weights, k and
    z.  An odd k seeds its extra center at the costliest point against the
    split centers of the (k//2)-center run.

    Args:
        pointset: the data.
        k: number of centers, 1 <= k <= |P|; k == |P| returns the points
            themselves at cost 0.
        z: cost exponent, 2 for k-means, 1 for k-median.

    Returns:
        ClusteringResult whose centers are 1-center optimal for their own
        clusters (to solver tolerance), with per-point assignment, final
        cost, and the cost trace of the run.  The result is shared: the
        run is kept with ``pointset`` and every later call on the same set
        that needs it, through any function of this package, returns the
        same object.  Its ``centers``, ``assignment`` and ``distances`` are
        read-only.
    """
    return _recursion_of(pointset, z).run(k)[0]


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


def k_clustering_doubled(pointset: WeightedPointSet, k: int, z: int = 2) -> DoubledRun:
    """Run k-clustering and the 2k-clustering seeded from its clusters.

    Both runs come from one recursion, so the 2k-center run is
    k_clustering(pointset, min(2*k, |P|), z) exactly, and the k-center run
    and the per-cluster 2-center costs that the adaptive size search and
    its gap certificate need are exposed with it.  Both runs are shared and
    read-only, as k_clustering's are.
    """
    return _recursion_of(pointset, z).doubled(k)[0]


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
    full = (1 << n) - 1
    # every non-empty subset is one segment: its members, in index order
    member = ((np.arange(1, full + 1)[:, None] >> np.arange(n)) & 1).astype(bool)
    subset, index = np.nonzero(member)
    sizes = member.sum(axis=1)
    starts = np.cumsum(sizes) - sizes
    points, weights = pointset.points[index], pointset.weights[index]
    one_ctr = _segment_centers(points.T.copy(), weights, starts, z, BRUTE_FORCE_MEDIAN_TOL)
    dist = np.linalg.norm(points - one_ctr[subset], axis=1)
    one_cost = [0.0] + np.add.reduceat(weights * dist**z, starts).tolist()

    best_prev = one_cost  # at most 1 part
    parent = {}
    costs_by_size = [one_cost[full]]
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
        costs_by_size.append(best_j[full])
        best_prev = best_j

    costs_by_size = np.array(costs_by_size)
    # walk the parent pointers to recover the optimal partition for size k
    parts, part_masks = [], []
    mask, j = full, k
    while mask:
        part = mask if j == 1 else parent[j][mask]
        parts.append(np.flatnonzero(member[part - 1]))
        part_masks.append(part)
        mask ^= part
        j = max(j - 1, 1)
    centers = one_ctr[np.array(part_masks) - 1]
    return BruteForceResult(
        cost=float(costs_by_size[k - 1]),
        centers=centers,
        parts=parts,
        costs_by_size=costs_by_size,
    )
