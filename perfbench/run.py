"""renewinv benchmark: one closed-loop client, seeded inputs, checked outputs.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ruin-fine --seed 1 --seconds 20 --trace 0

One process runs one op at a time on the workload's inputs until the ops
have taken ``--seconds`` of time, then finishes the current pass over the
inputs; every output is checked outside the timed region.  A fixed
reference loop runs between ops, and op latencies are reported in units of
its adjacent timings, so that the speed swings of a shared host cancel.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics from a run split into an untraced and a traced half.
Each metric is printed on its own line with its unit and sample count; the
last line is one JSON object with keys correct, attempted, failed, metrics.
The exit code is 0 only when every check passed.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy is imported: the benchmark is a single
# client, and BLAS threads would only compete with it for the cores.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from pathlib import Path

import numpy as np

from spans import CALL_COUNTERS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 11
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10

END_TO_END_UNITS = {
    "op_p50_ref": "ref",
    "op_tail_ref": "ref",
    "ops_per_kref": "1/kref",
    "op_ok_frac": "1",
    "peak_rss_mb": "MB",
    "sup_err": "1",
    "bound_coeff": "1",
    "setup_s": "s",
}
LAYER_SELF = ("specfun", "transforms", "compound", "inversion", "ruin", "bounds", "cli", "bench")
PER_LAYER_UNITS = {
    **{f"{layer}.self_s": "s" for layer in LAYER_SELF},
    "specfun.calls": "count",
    "specfun.negbin_terms": "count",
    "specfun.incgamma_calls": "count",
    "transforms.weight_terms": "count",
    "transforms.scalar_evals": "count",
    "compound.calls": "count",
    "compound.panjer_madds": "count",
    "compound.severity_pts": "count",
    "compound.useful_frac": "1",
    "inversion.lattice_pts": "count",
    "bounds.calls": "count",
    "cli.bytes_out": "B",
    "check_s": "s",
    "traced_op_s": "s",
    "untraced_ops_per_s": "1/s",
    "traced_ops_per_s": "1/s",
}


def interpreter_loop() -> float:
    """Pure interpreter work: 8000 float operations in a Python loop."""
    total = 0.0
    for i in range(8000):
        total += math.sqrt(i)
    return total


_REF_F = np.linspace(1.0, 0.0, 401) / 200.0


def array_call_loop() -> np.ndarray:
    """A Panjer-like recursion: 400 short numpy calls from a Python loop."""
    g = np.zeros(401)
    g[0] = 0.3
    for k in range(1, 401):
        g[k] = 0.9 * float(np.dot(_REF_F[1 : k + 1], g[k - 1 :: -1]))
    return g


# Reference loops: 0.5 ms ("interpreter") and 1.5 ms ("mixed") on an idle
# 2-vCPU Xeon.  They use nothing from renewinv, so no change to the package
# moves them; only the speed of the machine does.  Each workload names the
# one whose speed tracked its ops best on a loaded host (perfbench/README.md).
REFERENCES = {
    "interpreter": (interpreter_loop,),
    "mixed": (interpreter_loop, array_call_loop),
}


def time_reference(name: str) -> int:
    loops = REFERENCES[name]
    start = time.perf_counter_ns()
    for loop in loops:
        loop()
    return time.perf_counter_ns() - start


def _import_package():
    """Put the checkout's own ``src`` first on the path, or stop."""
    if not (SRC / "renewinv" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'renewinv'} is missing; run from the root of a full checkout")
    sys.path.insert(0, str(SRC))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    import renewinv

    if Path(renewinv.__file__).resolve().parent != SRC / "renewinv":
        sys.exit(f"error: imported renewinv from {renewinv.__file__}, not from {SRC}")


def tail_percentile(latencies: list[float], cap: float) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it).

    The highest ladder percentile, at most ``cap``, with at least ten
    samples beyond it.  The cap keeps the reported percentile fixed when a
    faster commit completes more ops.  With too few samples the lowest
    ladder step is returned and the caller flags it.
    """
    samples = np.asarray(latencies, dtype=float)
    for pct in TAIL_LADDER:
        if pct > cap:
            continue
        value = float(np.percentile(samples, pct))
        beyond = int(np.count_nonzero(samples > value))
        if beyond >= TAIL_MIN_BEYOND or pct == TAIL_LADDER[-1]:
            return pct, value, beyond
    raise ValueError("empty ladder")


def machine_meta(args) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "clients": 1,
        "loop": "closed",
    }


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def measure_setup(workload: str, seed: int) -> list[float]:
    """Wall seconds for fresh interpreters to import renewinv and build the inputs.

    One unmeasured start first fills the bytecode cache of a new checkout.
    The wait has no timeout: with one, ``Popen.wait`` polls in steps of up
    to 50 ms, and the measured times land on that grid.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", workload,
           "--seed", str(seed)]
    times = []
    for i in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL) as proc:
            code = proc.wait()
        elapsed = time.perf_counter() - start
        if code != 0:
            raise RuntimeError(f"set-up run {cmd} exited with {code}")
        if i:
            times.append(elapsed)
    return times


def failure_text(exc: BaseException) -> str:
    """One-line description of an exception raised by an op."""
    last = traceback.extract_tb(exc.__traceback__)[-1:]
    where = f" at {Path(last[0].filename).name}:{last[0].lineno}" if last else ""
    return f"{type(exc).__name__}: {exc}{where}"


class Run:
    """Runs a workload's ops in a closed loop and accumulates what the metrics need."""

    def __init__(self, workload, cases, checker):
        self.workload = workload
        self.cases = cases
        self.checker = checker
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, tuple[int, int]] = {}  # problem -> (first op, ops)
        self.check_ns = 0
        self.self_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.traced_ops = 0
        self.traced_ns = 0
        self._verdicts: dict[tuple, list[str]] = {}

    def one(self, case, tracer=None) -> tuple[int, bool]:
        """Run and check one op; return (op nanoseconds, passed)."""
        if tracer is not None:
            tracer.begin_op(self.attempted)
        start = time.perf_counter_ns()
        try:
            result, error = self.workload.op(case), None
        except Exception as exc:  # a failed op is counted and listed, never dropped
            result, error = None, exc
        finally:
            elapsed = time.perf_counter_ns() - start
            trace = tracer.end_op() if tracer is not None else None
        op_id = self.attempted
        self.attempted += 1

        check_start = time.perf_counter_ns()
        if error is not None:
            problems = [failure_text(error)]
        else:
            # The package is deterministic, so an output bitwise equal to one
            # already checked for this input shares that check's verdict.
            key = (case.name, self.workload.fingerprint(result))
            if key not in self._verdicts:
                self._verdicts[key] = self.workload.check(case, result, self.checker)
            problems = list(self._verdicts[key])
        if trace is not None:
            problems += self._account(trace, result if error is None else None)
        self.check_ns += time.perf_counter_ns() - check_start
        self.failed += bool(problems)
        for problem in problems:
            key = f"input={case.describe()}: {problem}"
            first, count = self.failures.get(key, (op_id, 0))
            self.failures[key] = (first, count + 1)
        return elapsed, not problems

    def _account(self, trace, result) -> list[str]:
        self.traced_ops += 1
        self.traced_ns += trace.op_ns
        self.self_ns.update(trace.self_ns)
        self.calls.update(trace.calls)
        self.counts.update(trace.counts)
        if result is not None:
            self.counts["cli.bytes_out"] += self.workload.output_bytes(result)
        total = sum(trace.self_ns.values())
        if total != trace.op_ns:
            return [f"layer self times sum to {total} ns, traced op took {trace.op_ns} ns"]
        return []

    def loop(self, seconds: float, tracer=None) -> tuple[list[int], list[float], int]:
        """Closed loop over the inputs until the ops have taken ``seconds``,
        then to the end of the current pass over the inputs.

        Whole passes keep every input's share of the sample fixed, so the
        statistics do not move with which inputs a cut-off pass reached.
        The reference loop is timed before the first op and after each op,
        outside the timed region.  Returns per-op latencies in nanoseconds,
        the same latencies in units of the mean of the two reference
        timings around each op, and the number of ops that passed their
        checks.
        """
        budget = int(seconds * 1e9)
        latencies, relative, passed, spent, i = [], [], 0, 0, 0
        ref_before = time_reference(self.workload.reference)
        while spent < budget or i % len(self.cases):
            elapsed, ok = self.one(self.cases[i % len(self.cases)], tracer)
            ref_after = time_reference(self.workload.reference)
            latencies.append(elapsed)
            relative.append(2.0 * elapsed / (ref_before + ref_after))
            ref_before = ref_after
            passed += ok
            spent += elapsed
            i += 1
        return latencies, relative, passed


def tail_note(pct: float, beyond: int) -> str:
    return f"pct=p{pct:g} beyond={beyond}" + ("" if beyond >= TAIL_MIN_BEYOND else " under-sampled")


def wall_clock(latencies, passed, tail_cap) -> dict:
    """The same statistics in wall time, printed for reference: on a shared
    host they move with the machine's load as much as with the program."""
    pct, tail_ns, beyond = tail_percentile(latencies, tail_cap)
    n = len(latencies)
    return {
        "op_p50_ms": (statistics.median(latencies) / 1e6, "ms", n, ""),
        "op_tail_ms": (tail_ns / 1e6, "ms", n, tail_note(pct, beyond)),
        "ops_per_s": (passed / (sum(latencies) / 1e9), "1/s", n, ""),
    }


def end_to_end(run, relative, passed, setup, tail_cap) -> dict:
    pct, tail, beyond = tail_percentile(relative, tail_cap)
    n = len(relative)
    fail_frac = run.failed / run.attempted
    return {
        "op_p50_ref": (statistics.median(relative), n, ""),
        "op_tail_ref": (tail, n, tail_note(pct, beyond)),
        "ops_per_kref": (1000.0 * passed / math.fsum(relative), n, ""),
        "op_ok_frac": (1.0 - fail_frac, run.attempted, f"op_fail_frac={fail_frac!r}"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1, ""),
        "sup_err": (max(run.checker.sup_errs), len(run.checker.sup_errs), "exponential model"),
        "bound_coeff": (run.checker.bound_coeff(), 3, "table models"),
        "setup_s": (statistics.median(setup), len(setup), ""),
    }


def per_layer(run, untraced, traced) -> dict:
    ops = max(run.traced_ops, 1)
    out = {}
    for layer in LAYER_SELF:
        out[f"{layer}.self_s"] = run.self_ns[layer] / 1e9 / ops
    for layer in ("specfun", "compound", "bounds"):
        out[f"{layer}.calls"] = sum(n for name, n in run.calls.items()
                                    if name.startswith(layer + ".")) / ops
    for metric, names in CALL_COUNTERS.items():
        out[metric] = sum(run.calls[name] for name in names) / ops
    for metric in ("specfun.negbin_terms", "transforms.weight_terms", "compound.panjer_madds",
                   "compound.severity_pts", "inversion.lattice_pts", "cli.bytes_out"):
        out[metric] = run.counts[metric] / ops
    pts = run.counts["compound.severity_pts"]
    out["compound.useful_frac"] = run.counts["compound.points_out"] / pts if pts else 0.0
    out["check_s"] = run.check_ns / 1e9 / max(run.attempted, 1)
    out["traced_op_s"] = run.traced_ns / 1e9 / ops
    for metric, (latencies, _, passed) in (("untraced_ops_per_s", untraced), ("traced_ops_per_s", traced)):
        out[metric] = passed / (sum(latencies) / 1e9)
    samples = {"check_s": run.attempted, "untraced_ops_per_s": len(untraced[0])}
    return {name: (value, samples.get(name, run.traced_ops), "") for name, value in out.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _import_package()
    from workloads import Checker, TABLE_NAMES, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    if args.setup_only:
        with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as workdir:
            workload.build(args.seed, Path(workdir))
        return 0

    meta = machine_meta(args)
    setup = measure_setup(args.workload, args.seed) if not args.trace else []
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as workdir:
        cases = workload.build(args.seed, Path(workdir))
        run = Run(workload, cases, Checker())
        # Warm-up, untimed but checked: each table model once, which also
        # gives the accuracy metrics their inputs however short the run.
        for case in cases:
            if case.name in TABLE_NAMES:
                run.one(case)
        if args.trace:
            untraced = run.loop(args.seconds / 2)
            tracer = Tracer()
            tracer.install()
            try:
                traced = run.loop(args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            metrics = per_layer(run, untraced, traced)
            units = PER_LAYER_UNITS
            wall = {}
        else:
            latencies, relative, passed = run.loop(args.seconds)
            metrics = end_to_end(run, relative, passed, setup, workload.tail_pct)
            units = END_TO_END_UNITS
            wall = wall_clock(latencies, passed, workload.tail_pct)

    print("meta " + json.dumps(meta, sort_keys=True))
    for name, (value, n, note) in metrics.items():
        print(f"{args.workload} {name} {value!r} {units[name]} n={n}" + (f" {note}" if note else ""))
    for name, (value, unit, n, note) in wall.items():
        print(f"wall {args.workload} {name} {value!r} {unit} n={n}" + (f" {note}" if note else ""))
    for problem, (first, count) in run.failures.items():
        print(f"FAIL {args.workload} ops={count} first_op={first} {problem}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, (value, _, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
