"""spadkit benchmark: time from stream file to result files, per workload.

    python3 perfbench/run.py --workload flood_calibrate --seed 1 \\
        --seconds 20 --trace 0

Run from the root of a source checkout: the benchmark imports spadkit from
``src/`` of that checkout and refuses to run without it.  A run starts one
workload iteration at a time, each in a fresh process (workload.py) with
the numpy thread pools pinned to one thread, until ``--seconds`` have
passed.  An iteration derives its inputs from (seed, iteration), times
set-up (interpreter start, ``import spadkit``, writing the config), the
simulation and the analysis, and checks the results against simulator
truth.  Each time is reported as the median over iterations, in seconds
at the reference speed (reference.py explains why); raw seconds are in
the provenance line.

The last stdout line is the result: ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json, ``--trace 1`` the per-layer ones from spans around
spadkit's public functions (tracing.py).  Workloads, gates and sizes are
in scenarios.py; the held-out seed and the layer map are in spec.json.
Scratch files go to ``.perfbench_work/`` and are removed; each run leaves
its samples (and, traced, its spans) in ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("flood_calibrate", "hotpixel_ctscan", "bunching_report",
             "tdc_lut")
# A run must end within 180 s; no iteration may push it past this.
RUN_LIMIT_S = 170.0
BENCH_THREADS = "1"


class RunFailed(Exception):
    pass


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=None,
                   help="input seed (default: spec.json default_seed)")
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time (default: BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: inputs of a fraction of a second, for the "
                        "benchmark's own tests; never for measurements")
    return p.parse_args(argv)


def _load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, HERE])
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = BENCH_THREADS
    return env


def _src_digest() -> str:
    """sha256 over src/spadkit/*.py, so a result names the code it ran."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "spadkit")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _git_sha() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _iteration(args, it: int, env: dict, work: str,
               timeout: float) -> tuple[float, dict]:
    """Run one iteration process; (set-up seconds, its result line)."""
    cmd = [sys.executable, os.path.join(HERE, "workload.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--iteration", str(it), "--trace", str(args.trace),
           "--size", args.size, "--work", work]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE)
    # Reads and the final wait block in the kernel.  subprocess's own
    # timeout polls, which on a 2-vCPU machine disturbs the process being
    # timed; a timer kills an overrunning process instead.
    killer = threading.Timer(max(timeout, 1.0), proc.kill)
    killer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        killer.cancel()
        proc.stdout.close()
    if proc.returncode != 0 or not ready or not rest:
        raise RunFailed(f"iteration {it} exited {proc.returncode}")
    return setup_s, json.loads(rest.decode().splitlines()[-1])


def _quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        v = values[0] if values else None
        return {"n": len(values), "median": v}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": med, "q1": q1, "q3": q3,
            "min": min(values), "max": max(values)}


def _scaled(iters: list[dict], phase: str) -> float:
    return statistics.median(it["scaled"][phase] for it in iters)


def _end_to_end(iters: list[dict]) -> dict:
    return {
        "analyze_s": (_scaled(iters, "analyze_s"), "s"),
        "simulate_s": (_scaled(iters, "simulate_s"), "s"),
        "peak_rss_mb": (statistics.median(it["peak_rss_mb"] for it in iters),
                        "MB"),
        "setup_s": (statistics.median(it["setup_raw_s"] * it["scale"]
                                      for it in iters), "s"),
    }


def _per_layer(iters: list[dict], declared: list[dict]) -> dict:
    out = {}
    for metric in declared:
        name = metric["name"]
        if name == "timestream.read_peak_rss_mb":
            value = iters[0]["read_peak_rss_mb"]
        elif name == "bench.trace_overhead_s":
            value = (_scaled(iters, "traced_analyze_s")
                     - _scaled(iters, "analyze_s"))
        else:
            value = statistics.median(it["layers"][name] for it in iters)
        out[name] = (value, metric["unit"])
    return out


def _measure(args, env, work) -> list[dict]:
    started = time.perf_counter()
    deadline = started + args.seconds
    iters = []
    while not iters or time.perf_counter() < deadline:
        it_work = os.path.join(work, f"it{len(iters)}")
        try:
            setup_s, result = _iteration(
                args, len(iters), env, it_work,
                RUN_LIMIT_S - (time.perf_counter() - started))
        finally:
            shutil.rmtree(it_work, ignore_errors=True)
        result["setup_raw_s"] = setup_s
        iters.append(result)
    return iters


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "spadkit", "__init__.py")):
        print(f"perfbench: no spadkit sources under {SRC}; run from a "
              "spadkit checkout", file=sys.stderr)
        return 2
    spec = _load(os.path.join(HERE, "spec.json"))
    bench = _load(os.path.join(ROOT, "BENCHMARK.json"))
    if args.seed is None:
        args.seed = spec["default_seed"]
    if args.seconds is None:
        args.seconds = bench["run_seconds"]

    work = os.path.join(ROOT, ".perfbench_work",
                        f"{args.workload}-{os.getpid()}")
    try:
        iters = _measure(args, _child_env(), work)
    except RunFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run's work dir is still there
    complete = [it for it in iters if not it["failed"]]
    if not complete:
        print(f"perfbench: no iteration completed: {iters[0]['failures']}",
              file=sys.stderr)
        return 1

    metrics = (_per_layer(complete, bench["per_layer"]) if args.trace
               else _end_to_end(complete))
    raw_names = sorted({k for it in complete for k in it["raw"]})
    provenance = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "seconds": args.seconds, "trace": args.trace,
        "held_out_seed": spec["held_out_seed"],
        "git_sha": _git_sha(), "src_sha256": _src_digest(),
        "python": platform.python_version(), "numpy": iters[0]["numpy"],
        "nproc": os.cpu_count(), "blas_threads": BENCH_THREADS,
        "input": iters[0].get("input"),
        "iterations": len(iters), "complete_iterations": len(complete),
        "raw_s": {k: _quartiles([it["raw"][k] for it in complete])
                  for k in raw_names},
        "setup_raw_s": _quartiles([it["setup_raw_s"] for it in iters]),
        "kernel_s": _quartiles([k for it in iters for k in it["kernel_s"]]),
        "failures": [f for it in iters for f in it["failures"]][:20],
    }
    outdir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(outdir, exist_ok=True)
    stem = os.path.join(
        outdir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump({"provenance": provenance,
                   "iterations": [{k: v for k, v in it.items()
                                   if k != "spans"} for it in iters]}, fh)
    if args.trace:
        with open(stem + "-spans.json", "w") as fh:
            json.dump([it.get("spans") for it in iters], fh)

    print(json.dumps({"provenance": provenance}))
    print(json.dumps({
        "correct": all(not it["failed"] for it in iters),
        "attempted": sum(it["attempted"] for it in iters),
        "failed": sum(it["failed"] for it in iters),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
