"""Span tracing of kcoreset's public functions from outside the library.

``Tracer.install()`` replaces every public function of the layer modules
with a timing wrapper in every kcoreset namespace that refers to it, so a
call is traced wherever its caller looks the name up: ``harness`` calling
``load_dataset``, ``clustering`` calling its own
``weighted_geometric_median``, or the benchmark calling
``kcoreset.rcc_fixed_size``.  ``uninstall()`` puts the originals back.
Methods and private helpers are not wrapped; their time counts towards the
public function that calls them.

Each span records its name, layer, start, end, parent span, op id and
thread.  Parents come from a per-thread stack.  A thread whose stack is
empty (a worker of ``run_benchmark``'s thread pool) takes as parent the
innermost open span of the thread that started the op, which is the
``run_benchmark`` call that owns the pool.
"""

from __future__ import annotations

import csv
import functools
import inspect
import itertools
import sys
import threading
import time
from dataclasses import dataclass, field

LAYERS = ("data", "clustering", "coreset", "distributed", "baselines", "problems", "harness")

# Public functions that return clustering runs, whose iteration counts and
# convergence flags are read from the result.
CLUSTERING_RESULT_FNS = {"k_clustering", "lloyd_from", "k_clustering_doubled", "extend_to_doubled"}


@dataclass
class Span:
    sid: int
    parent: int | None
    op: int
    thread: int
    name: str
    layer: str
    start: float
    end: float
    info: dict = field(default_factory=dict)


def _span_info(name, args, kwargs, result) -> dict:
    """Counts read from a call's arguments or result, for the spans that carry one."""
    if name == "solve_problem":
        problem = args[0] if args else kwargs["problem"]
        return {"problem": problem.name}
    if result is None:  # the call raised
        return {}
    if name == "drcc":
        trace = result[1]
        return {"overhead_scalars": trace.overhead_scalars, "payload_scalars": trace.payload_scalars}
    if name == "run_benchmark":
        records = result[0]
        return {"records": len(records), "failed_records": sum(r.error is not None for r in records)}
    if name in CLUSTERING_RESULT_FNS:
        runs = [result.base, result.doubled] if hasattr(result, "doubled") else [result]
        return {
            "lloyd_iters": sum(r.iterations for r in runs),
            "unconverged": sum(not r.converged for r in runs),
        }
    return {}


class Tracer:
    """Collects spans in memory; ``summary()`` turns them into per-layer metrics."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._op_stack: list = []
        self._patches: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin_op(self, op: int) -> None:
        """Mark the calling thread as the one that runs op ``op``."""
        self.op = op
        self._op_stack = self._stack()

    def _wrap(self, fn, layer: str):
        name = fn.__name__
        wants_cpu = name == "run_benchmark"
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = tracer._op_stack[-1] if tracer._op_stack else None
            sid = next(tracer._ids)
            cpu0 = time.process_time() if wants_cpu else 0.0
            span = Span(sid, parent, tracer.op, threading.get_ident(), name, layer, time.perf_counter(), 0.0)
            stack.append(sid)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span.end = time.perf_counter()
                stack.pop()
                span.info = _span_info(name, args, kwargs, result)
                if wants_cpu:
                    span.info["cpu_s"] = time.process_time() - cpu0
                tracer.spans.append(span)

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "kcoreset" or n.startswith("kcoreset.")]
        wrappers = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                layer = value.__module__.rpartition(".")[2]
                if not value.__module__.startswith("kcoreset.") or layer not in LAYERS:
                    continue
                if value not in wrappers:
                    wrappers[value] = self._wrap(value, layer)
                self._patches.append((module, attr, value))
                setattr(module, attr, wrappers[value])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches = []

    def write_spans(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["span", "parent", "op", "thread", "name", "layer", "start", "end"])
            for s in self.spans:
                writer.writerow([s.sid, "" if s.parent is None else s.parent, s.op, s.thread,
                                 s.name, s.layer, repr(s.start), repr(s.end)])

    def summary(self, ops: int) -> dict:
        """Per-layer metrics per traced op: busy time, self time, calls and counters.

        A layer's entry spans are its spans whose parent belongs to another
        layer (or to the benchmark).  ``<layer>.s`` sums the entry spans with
        no ancestor in the same layer; ``<layer>.self_s`` sums over all entry
        spans their duration minus the union of the intervals covered by the
        first spans of other layers beneath them.  Spans of the two pool
        threads of ``sweep`` overlap in time, so these sums are thread time
        and can exceed wall time.
        """
        by_id = {s.sid: s for s in self.spans}
        children: dict = {}
        for s in self.spans:
            children.setdefault(s.parent, []).append(s)

        def is_entry(s):
            parent = by_id.get(s.parent)
            return parent is None or parent.layer != s.layer

        def has_same_layer_ancestor(s):
            parent = by_id.get(s.parent)
            while parent is not None:
                if parent.layer == s.layer:
                    return True
                parent = by_id.get(parent.parent)
            return False

        def self_time(s):
            covered, todo = [], list(children.get(s.sid, []))
            while todo:
                c = todo.pop()
                if c.layer == s.layer:
                    todo.extend(children.get(c.sid, []))
                else:
                    covered.append((max(c.start, s.start), min(c.end, s.end)))
            busy, reach = 0.0, s.start
            for lo, hi in sorted(covered):
                lo = max(lo, reach)
                if hi > lo:
                    busy += hi - lo
                    reach = hi
            return (s.end - s.start) - busy

        per_op = 1.0 / max(ops, 1)
        out: dict = {}
        for layer in LAYERS:
            entries = [s for s in self.spans if s.layer == layer and is_entry(s)]
            top = [s for s in entries if not has_same_layer_ancestor(s)]
            out[f"{layer}.s"] = sum(s.end - s.start for s in top) * per_op
            out[f"{layer}.self_s"] = sum(self_time(s) for s in entries) * per_op
            out[f"{layer}.calls"] = len(top) * per_op

        def named(*names):
            return [s for s in self.spans if s.name in names]

        def total(spans):
            return sum(s.end - s.start for s in spans) * per_op

        def info(spans, key):
            return [s.info[key] for s in spans if key in s.info]

        def mean(values):
            return sum(values) / len(values) if values else 0.0

        weiszfeld = named("weighted_geometric_median")
        assign = named("assign_to_centers")
        runs = [s for s in self.spans if s.layer == "clustering" and is_entry(s)]
        out.update({
            "clustering.weiszfeld_s": total(weiszfeld),
            "clustering.weiszfeld_calls": len(weiszfeld) * per_op,
            "clustering.assign_s": total(assign),
            "clustering.assign_calls": len(assign) * per_op,
            "clustering.lloyd_iters": sum(info(runs, "lloyd_iters")) * per_op,
            "clustering.unconverged": sum(info(runs, "unconverged")) * per_op,
            "clustering.doubling_s": total(named("extend_to_doubled")),
            "coreset.certify_s": total(named("certify_eps")),
        })

        ladders, drccs = named("node_local_centers"), named("drcc")
        imbalances = []
        for d in drccs:
            times = [s.end - s.start for s in ladders if s.parent == d.sid]
            if times and sum(times) > 0:
                imbalances.append(max(times) / mean(times))
        out.update({
            "distributed.ladder_s": total(ladders),
            "distributed.ladder_imbalance": mean(imbalances),
            "distributed.allocate_s": total(named("server_allocate")),
            "distributed.sample_s": total(named("node_sample")),
            "distributed.overhead_scalars": mean(info(drccs, "overhead_scalars")),
            "distributed.payload_scalars": mean(info(drccs, "payload_scalars")),
        })

        loads, partitions = named("load_dataset"), named("partition_dataset")
        out.update({
            "data.load_s": total(loads),
            "data.load_calls": len(loads) * per_op,
            "data.partition_s": total(partitions),
            "data.partition_calls": len(partitions) * per_op,
        })

        solves = named("solve_problem")
        costs = named("problem_cost")
        for problem in ("meb", "kmeans", "kmedian", "pca", "svm"):
            out[f"problems.solve_s.{problem}"] = total([s for s in solves if s.info["problem"] == problem])
        out.update({
            "problems.solve_calls": len(solves) * per_op,
            "problems.cost_s": total(costs),
            "problems.cost_calls": len(costs) * per_op,
        })

        constructs = named("construct_coreset")
        sweeps = named("run_benchmark")
        sweep_wall = sum(s.end - s.start for s in sweeps)
        out.update({
            "harness.construct_s": total(constructs),
            "harness.construct_calls": len(constructs) * per_op,
            "harness.evaluate_s": total(named("evaluate_coreset")),
            "harness.records": sum(info(sweeps, "records")) * per_op,
            "harness.failed_records": sum(info(sweeps, "failed_records")) * per_op,
            "harness.cpu_per_wall": sum(info(sweeps, "cpu_s")) / sweep_wall if sweep_wall else 0.0,
        })
        return out
