"""wavedof benchmark: one command, three workloads, end-to-end and per-layer metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload verify2d --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload verify3d --seed 1 --seconds 40 --trace 1
    python3 perfbench/run.py --steady 5 --workload all --seed 1 --seconds 40

A single run prints a table of every end-to-end metric (or, with
``--trace 1``, every per-layer metric), the environment, and as its last
line one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
``--steady N`` runs seeds seed..seed+N-1 for each named workload, prints
median and quartiles per metric, and re-runs the first seed to check that
every output repeats exactly. See perfbench/README.md.

This process imports neither numpy nor wavedof. It starts every workload
process with the BLAS and sweep thread counts fixed, so parent and change
commits run with identical settings.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("verify2d", "verify3d", "expand")
PROBES = 4            # setup-only processes before and again after the measured one
DEADLINE_S = 170.0    # a run must end within 180 s
STOP_MARGIN_S = 10.0  # time left after the last iteration for checks and output
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "WAVEDOF_THREADS": "1",
              "PYTHONHASHSEED": "0"}


class BenchError(RuntimeError):
    pass


def spawn(workload, seed, seconds, trace, deadline, setup_only=False) -> dict:
    """Run one workload process that must end by ``deadline`` (monotonic)."""
    env = {**os.environ, **THREAD_ENV}
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace),
           "--stop-at", repr(deadline - STOP_MARGIN_S)]
    if setup_only:
        cmd.append("--setup-only")
    timeout = max(1.0, deadline - time.monotonic())
    cmd += ["--t0", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} process exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload} process exited {proc.returncode}:\n"
                         + proc.stderr.strip()[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def single_run(workload, seed, seconds, trace) -> dict:
    """One driver-facing run: setup probes around the measured process.

    ``setup_s`` is the least of the setup times of the probes and the
    measured process. Other load on the machine only ever slows a
    start-up, never speeds it up, so the least of starts spread over the
    run is the steadiest estimate of the set-up work.
    """
    deadline = time.monotonic() + DEADLINE_S

    def probes():
        return [spawn(workload, seed, seconds, 0, deadline, setup_only=True)["setup_s"]
                for _ in range(0 if trace else PROBES)]

    setups = probes()
    res = spawn(workload, seed, seconds, trace, deadline)
    setups += [res["setup_s"]] + probes()
    times = res["times"]
    attempted = res["attempted"]
    failed = len(res["failures"])
    if trace:
        metrics = res["layers"]
    else:
        metrics = {
            "setup_s": {"value": min(setups), "unit": "s"},
            "iter_rel_p50": {"value": statistics.median(times)
                             / statistics.median(res["refs"]), "unit": "ref"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    extra = {"iter_s_p50": {"value": statistics.median(times), "unit": "s"},
             "ref_s_p50": {"value": statistics.median(res["refs"]), "unit": "s"},
             "iterations": {"value": len(times), "unit": "count"},
             "fail_frac": {"value": failed / attempted, "unit": "ratio"}}
    return {"workload": workload, "seed": seed, "trace": trace,
            "metrics": metrics, "extra": extra, "env": res["env"],
            "failures": res["failures"], "digests": res["digests"],
            "result": {"correct": failed == 0, "attempted": attempted,
                       "failed": failed, "metrics": metrics}}


def print_run(run) -> None:
    print(f"workload {run['workload']}  seed {run['seed']}  trace {run['trace']}")
    print("env " + json.dumps(run["env"]))
    for name, m in {**run["metrics"], **run["extra"]}.items():
        print(f"  {name:40s} {m['value']:<14.6g} {m['unit']}")
    for k, why in run["failures"][:10]:
        print(f"  FAILED iteration {k}: {why}")
    print("outputs " + " ".join(d or "-" for d in run["digests"]))


def bounds() -> dict:
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            return {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    except (OSError, KeyError, ValueError):
        return {}


def steady(workloads, first_seed, n, seconds, trace) -> bool:
    """Run n seeds per workload; report quartiles and same-seed repeatability."""
    ok = True
    summary = {}
    limit = bounds()
    for wl in workloads:
        runs = []
        for seed in range(first_seed, first_seed + n):
            run = single_run(wl, seed, seconds, trace)
            print_run(run)
            runs.append(run)
        again = single_run(wl, first_seed, seconds, trace)
        a, b = runs[0]["digests"], again["digests"]
        common = min(len(a), len(b))
        same = common > 0 and a[:common] == b[:common]
        failed = sum(r["result"]["failed"] for r in runs + [again])
        ok = ok and same and failed == 0
        print(f"== {wl}: {n} seeds, same-seed outputs repeat: {same} "
              f"({common} iterations compared), failed iterations: {failed}")
        print(f"  {'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}")
        summary[wl] = {}
        for name, m in {**runs[0]["metrics"], **runs[0]["extra"]}.items():
            vals = [{**r["metrics"], **r["extra"]}[name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else None
            bound = limit.get(name)
            summary[wl][name] = {"median": med, "q1": q1, "q3": q3,
                                 "spread": spread, "values": vals}
            print(f"  {name:40s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread if spread is not None else float('nan'):8.3f} {bound if bound is not None else '':>6}")
    print(json.dumps({"steady": summary, "ok": ok}))
    return ok


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   help=f"one of {', '.join(WORKLOADS)}; with --steady also "
                        "a comma list or 'all'")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steady", type=int, default=0, metavar="N",
                   help="run N seeds per workload and report quartiles")
    args = p.parse_args()
    names = WORKLOADS if args.workload == "all" else tuple(args.workload.split(","))
    unknown = [w for w in names if w not in WORKLOADS]
    if unknown or (len(names) > 1 and not args.steady):
        p.error(f"unknown or too many workloads: {args.workload}")
    if args.steady == 1:
        p.error("--steady needs at least 2 seeds for quartiles")
    if not os.path.isfile(os.path.join(ROOT, "src", "wavedof", "__init__.py")):
        print(f"no wavedof sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        if args.steady:
            return 0 if steady(names, args.seed, args.steady, args.seconds,
                               args.trace) else 1
        run = single_run(names[0], args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print_run(run)
    print(json.dumps(run["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
