"""Coresets built from k-clustering centers, with certified error bounds.

A coreset is a small weighted point set D standing in for a large one P:
for every query model x, cost(D, x) should stay within a factor (1 +/- eps)
of cost(P, x).  Using cluster centers weighted by their cluster's total
weight achieves this for every cost function that is rho-Lipschitz in the
point argument: moving point p to its center c_p changes its cost by at
most rho * d_p, with d_p = ||p - c_p||.  With a per-point cost of at least
1, cost(P, x) >= W, the total weight, so the achieved eps is certified
from the clustering run itself in three ways:

  * from the realized partition: eps_maxdist = rho * max_p d_p, valid for
    every cost, summed over the points or their maximum (meb);
  * from the same distances on average: eps_mean = rho * sum_p w_p d_p / W,
    valid for every cost summed over the points, and usually about half of
    eps_maxdist;
  * from the cost gap between the k-center and 2k-center runs:
    eps_gap = rho * (gap / w_min)^(1/z), valid for any data the same run
    could have produced.  Only the adaptive construction, whose size search
    makes the 2k-center runs anyway, reports it.

The first two read only the k-center run's point-to-center distances.
The adaptive construction grows k until the gap certificate meets a target.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass

import numpy as np

from .clustering import ClusteringResult, DoubledRun, _recursion_of
from .data import WeightedPointSet, load_points_and_weights, save_pointset
from .errors import ThresholdNotReachedError, ValidationError


@dataclass(frozen=True)
class EpsCertificate:
    """Certified coreset error for a rho-Lipschitz cost function.

    eps_maxdist derives from the realized maximum point-to-center distance
    and holds for summed and max costs alike; eps_mean from the
    weight-averaged distance, and holds for summed costs only; eps_gap from
    the k-vs-2k cost gap.  eps_gap and gap are None unless the certificate
    was read from a k-center run together with its 2k-center continuation.
    """

    eps_gap: float | None
    eps_maxdist: float
    eps_mean: float
    rho: float
    z: int
    k: int
    gap: float | None
    max_center_dist: float
    w_min: float

    def absolute(self, total_weight: float, aggregation: str = "sum") -> float:
        """Additive error bound for cost functions without the >=1 floor."""
        if aggregation == "sum":
            return self.eps_mean * total_weight
        if aggregation == "max":
            return self.eps_maxdist
        raise ValidationError(f"unknown aggregation {aggregation!r}")


@dataclass
class Coreset:
    """Weighted summary of a dataset.

    Weights are allowed to be negative (the distributed construction assigns
    residual weights to local centers, which can dip below zero); use
    ``to_pointset`` / ``nonnegative_pointset`` before handing the coreset to
    a solver that needs proper weights.
    """

    points: np.ndarray
    weights: np.ndarray
    provenance: dict
    eps_bound: float | None = None
    certificate: EpsCertificate | None = None

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.shape != (self.points.shape[0],):
            raise ValidationError("coreset weights do not match points")

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def total_weight(self) -> float:
        return float(self.weights.sum())

    def to_pointset(self) -> WeightedPointSet:
        return WeightedPointSet(self.points, self.weights)

    def nonnegative_pointset(self) -> tuple[WeightedPointSet, bool]:
        """Clamp negative weights to zero, rescaling to preserve total weight.

        Returns the usable point set and a flag saying whether clamping
        actually changed anything.  A total weight <= 0 cannot be preserved
        and raises ValidationError.
        """
        if np.all(self.weights > 0):
            return WeightedPointSet(self.points, self.weights), False
        total = self.total_weight
        if not total > 0:
            raise ValidationError(f"coreset total weight {total:.6g} is not positive")
        keep = self.weights > 0
        kept = self.weights[keep]
        return WeightedPointSet(self.points[keep], kept * (total / kept.sum())), True

    def save(self, prefix: str) -> tuple[str, str]:
        """Write ``<prefix>.csv`` (points + weights) and ``<prefix>.json`` (metadata)."""
        csv_path, json_path = prefix + ".csv", prefix + ".json"
        save_pointset(self, csv_path)
        meta = {
            "provenance": self.provenance,
            "eps_bound": self.eps_bound,
            "certificate": asdict(self.certificate) if self.certificate else None,
            "size": self.size,
            "total_weight": self.total_weight,
        }
        with open(json_path, "w") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return csv_path, json_path


def load_coreset(path: str) -> Coreset:
    """Load a coreset saved by :meth:`Coreset.save` (pass the prefix or the .csv)."""
    prefix = path[:-4] if path.endswith(".csv") else path
    csv_path, json_path = prefix + ".csv", prefix + ".json"
    if not os.path.exists(csv_path):
        raise ValidationError(f"coreset file {csv_path!r} does not exist")
    points, weights = load_points_and_weights(csv_path)
    provenance, eps_bound, certificate = {}, None, None
    if os.path.exists(json_path):
        with open(json_path) as fh:
            meta = json.load(fh)
        provenance = meta.get("provenance", {})
        eps_bound = meta.get("eps_bound")
        if meta.get("certificate"):
            try:
                certificate = EpsCertificate(**meta["certificate"])
            except TypeError as exc:  # missing or unknown fields, e.g. no eps_mean
                raise ValidationError(
                    f"{json_path!r} holds a certificate in another format: {exc}"
                ) from None
    return Coreset(points, weights, provenance, eps_bound, certificate)


def certify_eps(
    pointset: WeightedPointSet, run: ClusteringResult | DoubledRun, rho: float = 1.0
) -> EpsCertificate:
    """Certify the coreset error of the centers of a k-center run.

    ``run`` is the k-center run on ``pointset``, or a DoubledRun (as
    ``k_clustering_doubled`` returns it) whose ``base`` is that run; no
    clustering is run here.  eps_maxdist and eps_mean are read from the
    run's point-to-center distances; eps_gap and gap need the 2k-center
    run, so they are None unless ``run`` is a DoubledRun.

    Every bound scales linearly in rho, so a certificate computed at rho=1
    can be rescaled to any cost function's Lipschitz constant.
    """
    if rho <= 0 or not math.isfinite(rho):
        raise ValidationError("rho must be positive and finite")
    w_min = pointset.w_min
    base, gap, eps_gap = run, None, None
    if isinstance(run, DoubledRun):
        base, gap = run.base, max(run.gap, 0.0)
        eps_gap = rho * (gap / w_min) ** (1.0 / base.z)
    maxdist = float(base.distances.max())
    return EpsCertificate(
        eps_gap=eps_gap,
        eps_maxdist=rho * maxdist,
        eps_mean=rho * float(pointset.weights @ base.distances) / pointset.total_weight,
        rho=rho,
        z=base.z,
        k=base.k,
        gap=gap,
        max_center_dist=maxdist,
        w_min=w_min,
    )


def coreset_from_run(
    pointset: WeightedPointSet,
    result: ClusteringResult,
    provenance: dict | None = None,
) -> Coreset:
    """Cluster centers weighted by their cluster's total weight.

    Centers of empty clusters are dropped; the total weight of the coreset
    equals the total weight of the input exactly.
    """
    weights = np.bincount(
        result.assignment, weights=pointset.weights, minlength=result.k
    )
    keep = np.flatnonzero(weights > 0)
    info = {"algorithm": "centers", "k": int(result.k), "z": int(result.z)}
    info.update(provenance or {})
    return Coreset(result.centers[keep], weights[keep], info)


def rcc_fixed_size(
    pointset: WeightedPointSet,
    k: int,
    z: int = 2,
    seed: int = 0,
    rho: float = 1.0,
) -> Coreset:
    """Robust coreset of exactly k cluster centers.

    The construction draws no randomness, so ``seed`` is ignored; the
    keyword stays only so that existing callers keep working.  The point
    set's recursion makes the k-center run, and nothing else: the
    certificate is read from that run's point-to-center distances, and the
    coreset's eps_bound is its max-distance bound, which holds for summed
    and max costs alike (the certificate's eps_mean is the tighter bound
    for summed costs).  Runs already made on the same set, by any earlier
    call, are reused.
    """
    run = _recursion_of(pointset, z).run(k)[0]
    coreset = coreset_from_run(pointset, run, provenance={"algorithm": "rcc_fixed", "rho": rho})
    coreset.certificate = certify_eps(pointset, run, rho=rho)
    coreset.eps_bound = coreset.certificate.eps_maxdist
    return coreset


def rcc(
    pointset: WeightedPointSet,
    eps: float,
    rho: float = 1.0,
    z: int = 2,
    k_max: int | None = None,
) -> Coreset:
    """Adaptively sized robust coreset meeting a target error bound.

    Grows the number of centers k until the k-vs-2k cost gap drops below
    w_min * (eps/rho)^z, which certifies that every rho-Lipschitz cost
    function (with per-point cost >= 1) sees at most a (1 +/- eps) relative
    error.  The search doubles k and then binary-refines to the smallest
    passing size on that lattice.  All its sizes come from the point
    set's one recursion, so every run that two sizes share, or that an
    earlier call on the same set made, is solved once.  It draws no
    randomness: the result is fixed by the data, eps, rho, z and k_max.

    Raises ThresholdNotReachedError when no k up to k_max passes; the error
    carries the best gap seen.
    """
    if eps <= 0:
        raise ValidationError("eps must be positive")
    if rho <= 0 or not math.isfinite(rho):
        raise ValidationError("rho must be positive and finite for the adaptive search")
    if k_max is None:
        k_max = max(1, pointset.size // 2)
    k_max = min(k_max, pointset.size)
    threshold = pointset.w_min * (eps / rho) ** z

    recursion = _recursion_of(pointset, z)
    tried = []  # in the order first tried, so a tie in min() goes to the earliest

    def gap_at(k: int) -> float:
        if k not in tried:
            tried.append(k)
        return max(recursion.doubled(k)[0].gap, 0.0)

    # double until the gap certificate passes, then binary-refine downwards;
    # every size tried is in ``tried`` (a k_max <= 0 fails in gap_at)
    lo, passing = 0, None
    k = 1
    while k <= k_max:
        if gap_at(k) <= threshold:
            passing = k
            break
        lo = k
        k *= 2
    if passing is None and k_max not in tried:
        if gap_at(k_max) <= threshold:
            passing = k_max
    if passing is None:
        best_k = min(tried, key=gap_at)
        raise ThresholdNotReachedError(
            f"no size up to {k_max} meets the eps={eps} target "
            f"(best gap {gap_at(best_k):.6g} at k={best_k}, need <= {threshold:.6g})",
            best_gap=gap_at(best_k),
            best_k=best_k,
        )
    while passing - lo > 1:
        mid = (lo + passing) // 2
        if gap_at(mid) <= threshold:
            passing = mid
        else:
            lo = mid

    chosen = recursion.doubled(passing)[0]
    coreset = coreset_from_run(
        pointset, chosen.base,
        provenance={
            "algorithm": "rcc",
            "eps": eps,
            "rho": rho,
            "sizes_tried": sorted(tried),
        },
    )
    coreset.certificate = certify_eps(pointset, chosen, rho=rho)
    coreset.eps_bound = eps
    return coreset
