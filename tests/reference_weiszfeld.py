"""The Weiszfeld solver as it stood before its steps were trimmed, kept as a bit reference.

``_weiszfeld``, ``_newton_steps`` and ``_nearest_row_test`` below are the
solver of ``kcoreset.clustering`` verbatim, from before each step was cut to
one ``reduceat`` and its stop tests were made to run only where they can
fire.  They are not an independent oracle: they carry the same method and
the same rounding, so a test may compare the library's solver against them
bit for bit, which shows that the trimmed solver returns what the old one
did, not that either is right.  The module constants they read are copied
from ``kcoreset.clustering`` at import, so a test that monkeypatches one
there must patch it here too.
"""

import numpy as np

from kcoreset import clustering

WEISZFELD_MAX_ITER = clustering.WEISZFELD_MAX_ITER
WEISZFELD_PLAIN_STEPS = clustering.WEISZFELD_PLAIN_STEPS


def _weiszfeld(cols, weights, starts, init, tol, max_steps, scale):
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
    sizes = np.diff(np.append(starts, cols.shape[1]))
    near_dist = np.repeat(1e-14 * (1.0 + np.maximum.reduceat(scale, starts)), sizes)
    pts, y = cols, np.array(init, dtype=float).T
    out = np.empty_like(y.T)
    live = np.arange(sizes.size)  # row of ``out`` of each segment still iterating
    limit = np.minimum(np.broadcast_to(max_steps, sizes.shape), WEISZFELD_MAX_ITER)
    tol = tol * np.minimum(1.0, np.add.reduceat(weights, starts))
    # once Newton steps start: each segment's cost before the Newton step it
    # took (inf where it took none), the Weiszfeld step it passed up, and
    # the longest Newton step it may take next
    before = passed_up = reach = None
    for step in range(1, WEISZFELD_MAX_ITER + 1):
        newton = step > WEISZFELD_PLAIN_STEPS
        diff = np.repeat(y, sizes, axis=1)
        np.subtract(pts, diff, out=diff)
        dist = np.sqrt(np.einsum("ij,ij->j", diff, diff))
        if newton:
            w_dist = weights * dist
            cost = np.add.reduceat(w_dist, starts)
        near = dist <= near_dist
        dist[near] = np.inf  # a point on the iterate does not pull
        inv = weights / dist
        inv_sum = np.add.reduceat(inv, starts)
        diff *= inv
        pull_vec = np.add.reduceat(diff, starts, axis=1)
        pull = np.sqrt(np.einsum("ij,ij->j", pull_vec, pull_vec))
        stop = pull <= tol  # the gradient test
        if near.any():
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
        stop |= (y_new == y).all(axis=0)
        if newton:
            if before is None:
                before, reach = np.full((2, live.size), np.inf)
                passed_up = np.empty_like(y)
            back = np.flatnonzero(cost > before)  # their Newton step raised the cost
            y_new[:, back] = passed_up[:, back]
            reach[back] /= 4.0  # half the rejected step's length
            if back.size:
                vertex, pinned = _nearest_row_test(
                    pts, weights, near_dist, sizes, back, y_new[:, back], tol[back]
                )
                stop[back] = pinned
                y[:, back[pinned]] = vertex[:, pinned]
            take = ~stop & (cost <= before) & (step < limit)
            if near.any():
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
        capped = ~stop & (limit == step)
        if stop.any() or capped.any():
            out[live[stop]] = y[:, stop].T
            out[live[capped]] = y_new[:, capped].T
            keep = ~(stop | capped)
            if not keep.any():
                break
            rows = np.repeat(keep, sizes)
            pts, weights, near_dist = pts.compress(rows, axis=1), weights[rows], near_dist[rows]
            sizes, live, limit, tol = sizes[keep], live[keep], limit[keep], tol[keep]
            y_new = y_new[:, keep]
            starts = np.cumsum(sizes) - sizes
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
