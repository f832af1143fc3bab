"""One workload process: set up, measure, check, report one JSON line.

Started by ``run.py``, which fixes the thread environment and passes the
monotonic time at which it started this process, so ``setup_s`` covers
interpreter start, ``import wavedof``, input generation and a warm-up
call on a tiny instance of the workload.
"""

import argparse
import itertools
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import tracing  # noqa: E402  (needs SRC on the path)
import wavedof  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

REFERENCE_EVERY_S = 1.0   # workload seconds per reference-loop sample


def environment() -> dict:
    import ctypes
    import glob
    import platform

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "*openblas*")):
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": threads,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "WAVEDOF_THREADS": os.environ.get("WAVEDOF_THREADS")}


def _error() -> str:
    return traceback.format_exc(limit=2).strip().splitlines()[-1]


def iterate(workload, inp, tracer=None, k=None) -> tuple:
    """Time one iteration, then check it: (seconds, digest, error or None)."""
    if tracer:
        tracer.iteration = k
    t = time.perf_counter()
    try:
        out, err = workload.run(inp), None
    except Exception:
        out, err = None, _error()
    seconds = time.perf_counter() - t
    if tracer:
        tracer.iteration = None
    digest = None
    if err is None:
        try:
            digest, err = workload.check(inp, out)
        except Exception:
            err = "check raised " + _error()
    return seconds, digest, err


def reference(data) -> float:
    """Seconds for a fixed loop of Python arithmetic and numpy exponentials.

    It is the same work on every commit and runs between the iterations,
    so it slows and speeds up with the shared machine, whose speed drifts
    by 20-40% over minutes. ``iter_rel_p50`` divides that drift out.
    """
    t = time.perf_counter()
    s = 0.0
    for i in range(1, 200_000):
        s += math.ceil(i * 0.37) + math.sqrt(i)
    for _ in range(40):
        np.exp(1j * data).sum()
    return time.perf_counter() - t


def measure(workload, budget: float, stop_at: float, tracer=None, warm=True) -> dict:
    """Run whole cycles of iterations while the next should end within ``budget`` s.

    With ``warm``, the first input first runs once untimed: full size and
    checked, it fills caches, the allocator and the BLAS pool. At least
    one cycle is timed, from the first input on, so every run of a seed
    times the same inputs in the same order. Before every timed
    iteration the reference loop runs once per REFERENCE_EVERY_S of the
    previous iteration (at least once), and once more after the last, so
    it samples the machine's speed evenly over the run. Near
    ``stop_at``, the monotonic time by which the run must be done, it
    stops between iterations rather than be killed.
    """
    res = {"times": [], "refs": [], "failures": [], "digests": []}  # failures: [k or "warm", reason]
    times, spent = res["times"], []   # spent: the warm iteration too
    data = np.random.default_rng(0).standard_normal(50_000)  # < 1 MB: no effect on peak RSS
    start = time.perf_counter()
    if warm:
        seconds, _, err = iterate(workload, workload.cycle(0)[0])
        spent.append(seconds)
        if err:
            res["failures"].append(["warm", err])

    def late() -> bool:
        return bool(times) and time.monotonic() + max(spent) > stop_at

    timed_from = time.perf_counter()
    for c in itertools.count():
        now = time.perf_counter()
        if c and (now - start + (now - timed_from) / c > budget or late()):
            break
        for inp in workload.cycle(c):
            if late():
                break
            repeat = round(spent[-1] / REFERENCE_EVERY_S) if spent else 1
            res["refs"] += [reference(data) for _ in range(max(1, repeat))]
            seconds, digest, err = iterate(workload, inp, tracer, len(times))
            if err:
                res["failures"].append([len(times), err])
            spent.append(seconds)
            times.append(seconds)
            res["digests"].append(digest)
    res["refs"].append(reference(data))
    res["attempted"] = len(spent)
    return res


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--stop-at", type=float, default=float("inf"))
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()
    if os.path.dirname(os.path.abspath(wavedof.__file__)) != os.path.join(SRC, "wavedof"):
        print(f"wavedof imported from {wavedof.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workdir = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    os.makedirs(workdir)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        workload.cycle(0)
        workload.warmup()
        result = {"setup_s": time.monotonic() - args.t0}
        if not args.setup_only:
            result["env"] = environment()
            if args.trace:
                result.update(traced(workload, args.seconds, args.stop_at))
            else:
                result.update(measure(workload, args.seconds, args.stop_at))
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another workload process still uses it
    print(json.dumps(result))
    return 0


def traced(workload, seconds: float, stop_at: float) -> dict:
    """Untraced, traced and memory passes; each must give the same outputs.

    The untraced and traced passes split the time budget; the untraced
    pass's warm iteration warms the other two. The memory pass runs one
    cycle, and only when the workload reaches a span whose peak is
    recorded.
    """
    modules = {"wavedof": wavedof, "specfun": wavedof.specfun,
               "bounds": wavedof.bounds, "modes": wavedof.modes,
               "rankcheck": wavedof.rankcheck, "cli": wavedof.cli}

    def traced_pass(memory: bool, budget: float):
        tracer = tracing.Tracer(modules, memory)
        tracer.install()
        try:
            return tracer, measure(workload, budget, stop_at, tracer, warm=False)
        finally:
            tracer.uninstall()

    plain = measure(workload, seconds / 2, stop_at)
    timing, res = traced_pass(False, seconds / 2)
    if any(s[tracing.NAME] in tracing.PEAK_SPANS for s in timing.spans):
        mem, mres = traced_pass(True, 0)
    else:
        mem, mres = tracing.Tracer(modules), {"times": [], "failures": [],
                                              "digests": [], "attempted": 0}
    failures = [[k, "untraced: " + why] for k, why in plain["failures"]]
    for tag, r in (("traced", res), ("memory pass", mres)):
        failed = {k for k, _ in r["failures"]}
        failures += [[k, f"{tag}: {why}"] for k, why in r["failures"]]
        failures += [[k, f"{tag} output differs from untraced"]
                     for k, (a, b) in enumerate(zip(plain["digests"], r["digests"]))
                     if a != b and k not in failed]
    layers = tracing.layer_metrics(timing, len(res["times"]), mem, len(mres["times"]))
    layers["trace_overhead_s"] = {
        "value": statistics.median(res["times"]) - statistics.median(plain["times"]),
        "unit": "s"}
    return {"times": res["times"], "refs": res["refs"], "digests": res["digests"],
            "failures": failures,
            "layers": layers,
            "attempted": plain["attempted"] + res["attempted"] + mres["attempted"]}


if __name__ == "__main__":
    sys.exit(main())
