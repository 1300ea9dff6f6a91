"""Distributed coreset construction over partitioned data.

Each node summarizes its shard by cluster centers; a coordinating server
splits a global size budget N between per-node center counts and a pool of
t random samples, allocating both by the nodes' reported clustering costs.
Sampled points carry inverse-probability weights and each center carries
the residual weight of its own cell, so the total weight of the combined
coreset equals the total weight of the data exactly, and weighted sum-cost
estimates are unbiased over the sampling randomness.

Communication is deliberately tiny: each node uploads its K-entry cost
ladder (K*n scalars in total), the server answers with three scalars per
node (center count, sample count, weight normalizer), and only then do the
coreset points themselves travel.  A ProtocolTrace records every message so
the overhead can be audited.

The nodes are simulated in one process.  Their ladders are built
together, one engine call per ladder rung (and per split level) across all
nodes, so the number of engine calls does not grow with the node count.
A node's ladder is bit for bit the one it would build alone, so this
changes no protocol message: the ProtocolTrace is the same as with one
clustering call per node.

The two protocols differ in one per-node center count: drcc lets the
server pick up to K centers per node, and ``cdcc`` pins every node to k.
cdcc runs the very same pipeline and greedy allocator with every node's
floor and cap set to k, so the allocator has no increment left to make.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .baselines import _collapse
from .clustering import ClusteringResult, _Recursion, add_costliest_point
from .coreset import Coreset
from .data import WeightedPointSet
from .errors import ValidationError

# per-node center count and cost exponent of a protocol named without them
DEFAULT_CENTERS = {"drcc": 5, "cdcc": 2}
DEFAULT_Z = {"drcc": 1, "cdcc": 2}


@dataclass
class LocalLadder:
    """A node's clustering runs for every candidate center count 1..K."""

    runs: list
    clamped: bool = False

    @property
    def costs(self) -> np.ndarray:
        return np.array([run.cost for run in self.runs])


@dataclass(frozen=True)
class NodeReport:
    """The scalars a node actually uploads: its clustering cost ladder."""

    node_id: int
    local_costs: np.ndarray


@dataclass(frozen=True)
class ServerConfig:
    """The server's reply: per-node center counts, sample counts, and C/t."""

    k_alloc: tuple
    t_alloc: tuple
    c_over_t: float
    t: int
    total_cost: float


@dataclass
class LocalCoreset:
    """A node's contribution: weighted samples plus residual-weighted centers."""

    sample_points: np.ndarray
    sample_weights: np.ndarray
    center_points: np.ndarray
    center_weights: np.ndarray

    @property
    def total_weight(self) -> float:
        return float(self.sample_weights.sum() + self.center_weights.sum())


@dataclass(frozen=True)
class Message:
    sender: str
    receiver: str
    kind: str
    scalars: int
    payload: bool = False


@dataclass
class ProtocolTrace:
    messages: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def record(self, sender, receiver, kind, scalars, payload=False):
        self.messages.append(Message(sender, receiver, kind, int(scalars), payload))

    @property
    def overhead_scalars(self) -> int:
        return sum(m.scalars for m in self.messages if not m.payload)

    @property
    def payload_scalars(self) -> int:
        return sum(m.scalars for m in self.messages if m.payload)

    def to_dict(self) -> dict:
        return {
            "messages": [asdict(m) for m in self.messages],
            "overhead_scalars": self.overhead_scalars,
            "payload_scalars": self.payload_scalars,
            "notes": list(self.notes),
        }


def node_local_centers(shards: list, K: int, z: int = 1) -> list:
    """Cluster every shard for every center count k = 1..K; one LocalLadder per shard.

    A shard's K is clamped to its size when necessary.  Its k-center
    candidate equals ``k_clustering(shard, k, z)``; all candidates of all
    shards come from one k/2 -> k recursion, which solves a rung for every
    shard in one engine call, so every run on which a larger k builds is
    computed once per shard, and no state passes between shards.  The
    reported costs are non-increasing in k: whenever the k-center run costs
    more than the (k-1)-center run, :func:`add_costliest_point` grows the
    previous run by its most expensive point and the cheaper of the two
    results is kept.
    """
    if K < 1:
        raise ValidationError("K must be >= 1")
    ladders = [LocalLadder(runs=[], clamped=K > shard.size) for shard in shards]
    recursion = _Recursion(shards, z)
    for k in range(1, min(K, max((shard.size for shard in shards), default=0)) + 1):
        for shard, ladder, cand in zip(shards, ladders, recursion.run(k)):
            if k > shard.size:
                continue  # this ladder stopped at its shard's size
            runs = ladder.runs
            if runs and cand.cost > runs[-1].cost:
                alt = add_costliest_point(shard, runs[-1])
                if alt.cost < cand.cost:
                    cand = alt
            runs.append(cand)
    return ladders


def _center_floor(N: int, ladder_lengths: list, k_fixed: int | None) -> int:
    """Each node's least center count, with every allocation precondition.

    Raises unless there is a node, the floor (k_fixed, else 1) is >= 1,
    n * floor <= N - 1, and every node's ladder holds the floor.
    """
    n = len(ladder_lengths)
    if n < 1:
        raise ValidationError("need at least one node")
    floor = 1 if k_fixed is None else k_fixed
    if floor < 1 or n * floor > N - 1:
        raise ValidationError(
            f"budget N={N} must exceed {n} nodes x {floor} centers, with >= 1 center per node"
        )
    if any(floor > length for length in ladder_lengths):
        raise ValidationError(f"K and every shard size must be >= {floor}, the per-node floor")
    return floor


def server_allocate(
    reports: list,
    N: int,
    seed: int = 0,
    k_fixed: int | None = None,
) -> ServerConfig:
    """Split the size budget into per-node center counts and sample counts.

    Starts every node at its floor and greedily applies the single
    increment that most reduces (sum of chosen local costs) / sqrt(N - sum
    of center counts), up to each node's cap and keeping at least one
    sample slot free; ties go to the lowest node id.  The remaining t slots
    are assigned to nodes by one multinomial draw proportional to the
    chosen local costs.  The floor is 1 and the cap is the node's ladder
    length; ``k_fixed`` sets both to k_fixed, so every node keeps exactly
    k_fixed centers.  :func:`_center_floor` checks the inputs.
    """
    costs = [np.asarray(r.local_costs, dtype=float) for r in reports]
    n = len(costs)
    floor = _center_floor(N, [c.size for c in costs], k_fixed)
    caps = [c.size if k_fixed is None else k_fixed for c in costs]
    k_alloc = [floor] * n

    def objective(chosen):
        total_k = sum(chosen)
        return sum(c[j - 1] for c, j in zip(costs, chosen)) / np.sqrt(N - total_k)

    current = objective(k_alloc)
    while sum(k_alloc) < N - 1:
        best_j, best_val = None, current
        for j in range(n):
            if k_alloc[j] >= caps[j]:
                continue
            k_alloc[j] += 1
            val = objective(k_alloc)
            k_alloc[j] -= 1
            if val < best_val:
                best_j, best_val = j, val
        if best_j is None:
            break
        k_alloc[best_j] += 1
        current = best_val

    chosen_costs = np.array([c[j - 1] for c, j in zip(costs, k_alloc)])
    C = float(chosen_costs.sum())
    t = N - sum(k_alloc)
    rng = np.random.default_rng(seed)
    if C > 0:
        t_alloc = rng.multinomial(t, chosen_costs / C)
    else:
        t_alloc = np.zeros(n, dtype=int)
    c_over_t = C / t if t > 0 else 0.0
    return ServerConfig(
        k_alloc=tuple(int(v) for v in k_alloc),
        t_alloc=tuple(int(v) for v in t_alloc),
        c_over_t=c_over_t,
        t=int(t),
        total_cost=C,
    )


def node_sample(
    shard: WeightedPointSet,
    run: ClusteringResult,
    t_j: int,
    c_over_t: float,
    z: int = 1,
    seed: int = 0,
) -> LocalCoreset:
    """Draw a node's sample points and compute residual center weights.

    ``run`` is a clustering run on ``shard``, such as a rung of its ladder.
    Its assignment and point-to-center distances are read as they are, so
    each point must be assigned to its nearest center, as in every run the
    clustering engine returns.  Each of the t_j draws picks point p with probability
    proportional to m_p = w_p * dist(p, its center)^z and carries weight
    (C/t) * w_p / m_p; duplicate draws are collapsed by weight summation.
    Every center then carries its cell's total weight minus the weight of
    the samples drawn from that cell, which makes the node's contribution
    conserve its shard's weight exactly (residuals can be negative).
    """
    centers, assign = run.centers, run.assignment
    m_p = shard.weights * run.distances**z
    local_cost = float(m_p.sum())
    cell_weight = np.bincount(assign, weights=shard.weights, minlength=centers.shape[0])

    if t_j > 0 and local_cost > 0:
        rng = np.random.default_rng(seed)
        draws = rng.choice(shard.size, size=t_j, p=m_p / local_cost)
        unique, sample_weights = _collapse(draws, c_over_t * shard.weights[draws] / m_p[draws])
        sample_points = shard.points[unique]
        drained = np.zeros(centers.shape[0])
        np.add.at(drained, assign[unique], sample_weights)
    else:
        sample_points = np.empty((0, shard.dim))
        sample_weights = np.empty(0)
        drained = np.zeros(centers.shape[0])

    center_weights = cell_weight - drained
    return LocalCoreset(
        sample_points=sample_points,
        sample_weights=sample_weights,
        center_points=centers.copy(),
        center_weights=center_weights,
    )


def drcc(
    shards: list,
    N: int,
    K: int,
    z: int = DEFAULT_Z["drcc"],
    seed: int = 0,
    k_fixed: int | None = None,
) -> tuple[Coreset, ProtocolTrace]:
    """Run the full distributed construction and return coreset plus trace.

    Args:
        shards: per-node WeightedPointSet list.
        N: global coreset size budget (centers plus samples).
        K: largest per-node center count; a node's ladder has min(K, size) runs.
        z: clustering cost exponent used node-side.
        seed: master seed; the server's sample split and each node's
            sampling consume independent streams derived from it (node
            clustering draws no randomness).
        k_fixed: the fixed-allocation variant: the allocator's per-node
            floor and cap are both k_fixed, so every node keeps exactly
            k_fixed centers.  :func:`_center_floor` checks the budget and
            the ladder lengths before any node clusters.
    """
    n = len(shards)
    _center_floor(N, [min(K, shard.size) for shard in shards], k_fixed)
    # one stream per node's sampling, then one for the server
    *sample_seeds, server_seed = [
        int(c.generate_state(1)[0]) for c in np.random.SeedSequence(seed).spawn(n + 1)
    ]

    trace = ProtocolTrace()
    ladders = node_local_centers(shards, K, z=z)
    reports = []
    for j, (shard, ladder) in enumerate(zip(shards, ladders)):
        if ladder.clamped:
            trace.notes.append(f"node {j}: ladder clamped to shard size {shard.size}")
        reports.append(NodeReport(node_id=j, local_costs=ladder.costs))
        trace.record(f"node{j}", "server", "cost_ladder", scalars=len(ladder.costs))

    config = server_allocate(reports, N, seed=server_seed, k_fixed=k_fixed)
    if config.total_cost == 0:
        trace.notes.append("all reported costs are zero; no samples drawn")
    for j in range(n):
        trace.record("server", f"node{j}", "allocation", scalars=3)

    points, weights = [], []
    for j, shard in enumerate(shards):
        run = ladders[j].runs[config.k_alloc[j] - 1]
        local = node_sample(
            shard,
            run,
            config.t_alloc[j],
            config.c_over_t,
            z=z,
            seed=sample_seeds[j],
        )
        # only exact-zero residuals drop out (e.g. a center whose cell is empty)
        keep = local.center_weights != 0
        pts = np.vstack([local.sample_points, local.center_points[keep]])
        wts = np.concatenate([local.sample_weights, local.center_weights[keep]])
        points.append(pts)
        weights.append(wts)
        trace.record(
            f"node{j}", "server", "coreset",
            scalars=pts.shape[0] * (shard.dim + 1), payload=True,
        )

    coreset = Coreset(
        np.vstack(points),
        np.concatenate(weights),
        provenance={
            "algorithm": "cdcc" if k_fixed is not None else "drcc",
            "N": int(N),
            "K": int(K),
            "z": int(z),
            "seed": int(seed),
            "k_alloc": list(config.k_alloc),
            "t_alloc": list(config.t_alloc),
            "t": config.t,
        },
    )
    return coreset, trace


def cdcc(shards: list, N: int, k: int, z: int = DEFAULT_Z["cdcc"], seed: int = 0) -> Coreset:
    """Fixed-allocation distributed coreset: every node keeps k centers.

    This is :func:`drcc` with ``K=k, k_fixed=k``: the ladder stops at k and
    the allocator's floor and cap are both k, so for matching arguments the
    two produce identical coresets.
    """
    coreset, _ = drcc(shards, N, K=k, z=z, seed=seed, k_fixed=k)
    return coreset
