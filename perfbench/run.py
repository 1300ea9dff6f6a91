"""kcoreset benchmark: one workload, measured for a fixed time, outputs checked.

    python3 perfbench/run.py --workload construct-z1 --seed 1 --seconds 30 --trace 0

Run from the repository root; the library is imported from ``src/``.
With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` ops run in pairs on the same
input, one untraced and one traced, and it carries the per-layer metrics
of the traced ops plus the tracing overhead.  The lines above it list every
metric with its unit and the op count, the workload's quality metrics, any
failed check by name, and the machine block.  Full results (and, when
traced, every span) go to ``.perfbench-results/``.

``--smoke`` shrinks inputs and set-up so a run takes seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".perfbench-results"
SETUP_REPS = 3
TAIL_PERCENTILES = (99, 95, 90, 75, 50)
TAIL_MIN_BEYOND = 10

OP_TAG, SETUP_TAG = 0, 1


def tail(times: list) -> tuple[float, int, int]:
    """Highest of TAIL_PERCENTILES with at least TAIL_MIN_BEYOND ops beyond it.

    With fewer than 2 * TAIL_MIN_BEYOND ops no percentile above the median
    qualifies, and the median is reported.  Returns (value, percentile, ops beyond).
    """
    import numpy as np

    for pct in TAIL_PERCENTILES:
        value = float(np.percentile(times, pct))
        beyond = sum(t > value for t in times)
        if beyond >= TAIL_MIN_BEYOND or pct == TAIL_PERCENTILES[-1]:
            return value, pct, beyond


def peak_rss_mb() -> float:
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else ref
    return ref


def machine_block(seed: int, import_s: float) -> dict:
    import numpy as np
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "seed": seed,
        "git_commit": git_commit(),
        "import_s": import_s,
    }


def import_in_fresh_interpreter() -> None:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", "import kcoreset"], env=env, check=True, cwd=ROOT)


class Run:
    """One benchmark run: set-up, the timed loop and the per-op checks."""

    def __init__(self, workload, warm):
        self.w = workload
        self.warm = warm
        self.failed_checks: list = []
        self.attempted = 0
        self.failed = 0

    def record(self, where: str, names: list) -> None:
        for name in names:
            self.failed_checks.append(f"{where}: {name}")
            print(f"CHECK FAILED {self.w.name} {where}: {name}", file=sys.stderr)

    def timed_op(self, inp, where: str, count: bool = True, workload=None) -> float:
        """Run one op; check it unless it raised.  Returns its wall time."""
        w = workload or self.w
        started = time.perf_counter()
        try:
            out = w.run(inp)
        except Exception as exc:  # an op that raises counts as failed; the loop goes on
            elapsed = time.perf_counter() - started
            traceback.print_exc()
            self.record(where, [f"raised {type(exc).__name__}: {exc}"])
            if count:
                self.attempted += 1
                self.failed += 1
            return elapsed
        elapsed = time.perf_counter() - started
        failed = w.check(inp, out)
        self.record(where, failed)
        if count:
            self.attempted += 1
            self.failed += bool(failed)
        return elapsed

    def setup(self, reps: int) -> list:
        """Import, input generation, CSV writes and a warm-up op, ``reps`` times.

        The warm-up op runs the same code on the small inputs of ``--smoke``:
        it finishes lazy imports and first-call work without making set-up
        time a second copy of the op time.
        """
        times = []
        for rep in range(reps):
            started = time.perf_counter()
            import_in_fresh_interpreter()
            self.w.prepare()
            self.warm.prepare()
            inp = self.warm.make_input(SETUP_TAG, rep)
            self.timed_op(inp, f"setup {rep}", count=False, workload=self.warm)
            times.append(time.perf_counter() - started)
            if rep == 0 and hasattr(self.warm, "same_output_at_one_worker"):
                self.record("setup 0", self.warm.same_output_at_one_worker(inp))
        return times

    def measure(self, seconds: float) -> list:
        times, i = [], 0
        deadline = time.perf_counter() + seconds
        while i == 0 or time.perf_counter() < deadline:
            times.append(self.timed_op(self.w.make_input(OP_TAG, i), f"op {i}"))
            i += 1
        return times

    def measure_traced(self, seconds: float, tracer) -> tuple[list, list]:
        """Pairs of ops on one input, one untraced and one traced, alternating which goes first."""
        plain, traced, i = [], [], 0
        deadline = time.perf_counter() + seconds
        while i == 0 or time.perf_counter() < deadline:
            for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
                inp = self.w.make_input(OP_TAG, i)
                if not with_trace:
                    plain.append(self.timed_op(inp, f"op {i} untraced"))
                    continue
                tracer.begin_op(i)
                tracer.install()
                try:
                    traced.append(self.timed_op(inp, f"op {i} traced"))
                finally:
                    tracer.uninstall()
            i += 1
        return plain, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs and one set-up, for a seconds-long check")
    args = parser.parse_args(argv)

    # One BLAS thread, set before numpy loads: the sweep's pool already uses every core.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    # run_benchmark prefers this variable over the config's "workers" key.
    os.environ.pop("COReset_WORKERS", None)
    if not (SRC / "kcoreset" / "__init__.py").is_file():
        print(f"error: kcoreset sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    started = time.perf_counter()
    import kcoreset  # noqa: F401  (timed here; the workloads import it too)
    import_s = time.perf_counter() - started
    from workloads import WORKLOADS
    from tracer import Tracer

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    RESULTS.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RESULTS)
    try:
        workload = WORKLOADS[args.workload](args.seed, args.smoke, workdir)
        os.mkdir(os.path.join(workdir, "warm"))
        warm = WORKLOADS[args.workload](args.seed, True, os.path.join(workdir, "warm"))
        run = Run(workload, warm)
        setup_times = run.setup(1 if args.smoke else SETUP_REPS)
        if args.trace:
            tracer = Tracer()
            plain, times = run.measure_traced(args.seconds, tracer)
        else:
            times = run.measure(args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = len(times)
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "machine": machine_block(args.seed, import_s),
        "ops": ops,
        "setup_times_s": setup_times,
        "op_times_s": times,
        "failed_checks": run.failed_checks,
    }
    if args.trace:
        values = tracer.summary(ops)
        plain_rate, traced_rate = len(plain) / sum(plain), ops / sum(times)
        values["trace.untraced_ops_per_s"] = plain_rate
        values["trace.traced_ops_per_s"] = traced_rate
        values["trace.overhead"] = plain_rate / traced_rate - 1.0
        stem = RESULTS / f"{args.workload}-seed{args.seed}-trace"
        tracer.write_spans(f"{stem}-spans.csv")
    else:
        tail_value, tail_pct, tail_beyond = tail(times)
        report["tail"] = {"percentile": tail_pct, "ops_beyond": tail_beyond}
        quality = workload.quality()
        values = {
            "setup_s": statistics.median(setup_times),
            "ops_per_s": ops / sum(times),
            "op_s.p50": statistics.median(times),
            "op_s.tail": tail_value,
            "peak_rss_mb": peak_rss_mb(),
        }
        quality["failed_ratio"] = (run.failed / run.attempted, "fraction")
        report["workload_metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in quality.items()}
        stem = RESULTS / f"{args.workload}-seed{args.seed}"
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    report["metrics"] = {name: {"value": v, "unit": units[name]} for name, v in values.items()}

    for name, entry in list(report["metrics"].items()) + list(report.get("workload_metrics", {}).items()):
        print(f"{args.workload:15s} {name:32s} {entry['value']:.6g} {entry['unit']}  (ops={ops})")
    if not args.trace:
        print(f"{args.workload:15s} op_s.tail is p{tail_pct}, {tail_beyond} of {ops} ops beyond it")
    if hasattr(workload, "failed_records"):
        for r in workload.failed_records():
            print(f"{args.workload:15s} failed record {r.algorithm} x {r.problem} size {r.size}: {r.error}")
    print("machine " + json.dumps(report["machine"], sort_keys=True))
    with open(f"{stem}.json", "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")

    print(json.dumps({
        "correct": not run.failed_checks,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
