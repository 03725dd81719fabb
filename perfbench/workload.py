"""One iteration of a workload in a fresh process; started by run.py.

    workload.py --workload W --seed N --iteration K --trace T --work DIR
    workload.py --read-rss FILE

Every spadkit CLI call is a fresh process for its user, so each iteration
is one too: the timings include a cold heap, and nothing one iteration
leaves in the allocator speeds up the next.

Protocol on stdout (everything else the process prints goes to stderr):
a ``{"ready": true}`` line once spadkit is imported and the config is
written (the parent times set-up up to that line), then one JSON line with
the iteration's samples.  A phase's clock stops after every operation
while the reference kernel (reference.py) runs, and each piece is scaled
by the kernel runs on either side of it; the kernel's own time is never
counted.  With ``--trace 1`` the analysis runs twice on the same file,
plain and traced (alternating which goes first with the iteration), and
the simulation is traced too.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time

from reference import NOMINAL_S, Kernel


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _parse(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--iteration", type=int, default=0)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--size", default="full")
    p.add_argument("--work")
    p.add_argument("--read-rss")
    return p.parse_args(argv)


def _read_rss(path: str) -> int:
    import spadkit
    spadkit.PhotonStream.read(path)
    print(json.dumps({"peak_rss_mb": _peak_rss_mb()}))
    return 0


def _lone_read_rss(path: str) -> float:
    """Peak RSS of a process that does nothing but read ``path``."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--read-rss", path],
        stdout=subprocess.PIPE, check=True, timeout=120)
    return float(json.loads(proc.stdout.decode().splitlines()[-1])
                 ["peak_rss_mb"])


class PhaseClock:
    """Times a phase in pieces split at its operations.

    Each piece is scaled by the mean of the reference-kernel runs right
    before and after it, so drift inside a long phase is followed too.
    """

    def __init__(self, kernel):
        self.kernel = kernel
        self.kernel_s = [kernel()]

    def time(self, fn, ops) -> tuple[float, float]:
        """(raw seconds, seconds at the kernel's nominal speed) of fn()."""
        self.raw = self.scaled = 0.0
        ops.split = self.split
        self._t0 = time.perf_counter()
        try:
            fn()
        finally:
            ops.split = None
        self.split()
        return self.raw, self.scaled

    def split(self) -> None:
        piece = time.perf_counter() - self._t0
        before = self.kernel_s[-1]
        self.kernel_s.append(self.kernel())
        self.raw += piece
        self.scaled += piece * NOMINAL_S / (0.5 * (before + self.kernel_s[-1]))
        self._t0 = time.perf_counter()


def _iteration(args, emit) -> dict:
    import numpy as np

    import scenarios
    import tracing

    workload = scenarios.WORKLOADS[args.workload](args.size)
    run = workload.prepare(_fresh(os.path.join(args.work, "in")), args.seed,
                           args.iteration)
    emit({"ready": True})

    clock = PhaseClock(Kernel())
    ops = scenarios.Ops()
    tracer = tracing.Tracer() if args.trace else None
    raw: dict[str, float] = {}
    scaled: dict[str, float] = {}
    out: dict = {"numpy": np.__version__}

    def timed(name, fn):
        raw[name], scaled[name] = clock.time(fn, ops)

    def traced(fn):
        def call():
            tracer.install()
            try:
                with tracer.span("bench.phase"):
                    fn()
            finally:
                tracer.uninstall()
        return call

    def simulate():
        workload.simulate(ops, run)

    def analyze():
        workload.analyze(ops, run, _fresh(os.path.join(args.work, "out")))

    @traced
    def traced_analyze():
        workload.analyze(ops, run,
                         _fresh(os.path.join(args.work, "out_traced")))

    try:
        timed("simulate_s", traced(simulate) if tracer else simulate)
        if args.iteration == 0:
            out["input"] = scenarios.input_size(run["stream"])
            if tracer:
                out["read_peak_rss_mb"] = _lone_read_rss(run["stream"])
        if tracer is None:
            timed("analyze_s", analyze)
        else:
            order = [("analyze_s", analyze),
                     ("traced_analyze_s", traced_analyze)]
            if args.iteration % 2:
                order.reverse()
            for name, fn in order:
                timed(name, fn)
        out["peak_rss_mb"] = _peak_rss_mb()
        try:
            workload.check(ops, run, os.path.join(args.work, "out"))
        except scenarios.OpFailed:
            raise
        except Exception as exc:
            ops.attempted += 1
            ops.fail(f"check raised {type(exc).__name__}: {exc}")
    except scenarios.OpFailed:
        pass

    # Set-up and span times get the iteration's mean scale.
    scale = NOMINAL_S / (sum(clock.kernel_s) / len(clock.kernel_s))
    out.update(attempted=ops.attempted, failed=ops.failed,
               failures=ops.failures, raw=raw, scaled=scaled,
               kernel_s=clock.kernel_s, scale=scale)
    if tracer and not ops.failed:
        spans = tracer.take()
        out["layers"] = tracing.layer_metrics(spans, scale)
        out["spans"] = [s.to_json_dict() for s in spans]
    return out


def _fresh(path: str) -> str:
    os.makedirs(path)
    return path


def main(argv=None) -> int:
    args = _parse(argv)
    if args.read_rss:
        return _read_rss(args.read_rss)
    # Keep stdout for the protocol; anything else printed goes to stderr.
    proto = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)

    def emit(doc):
        proto.write(json.dumps(doc) + "\n")
        proto.flush()

    emit(_iteration(args, emit))
    return 0


if __name__ == "__main__":
    sys.exit(main())
