"""The four benchmark workloads: inputs from a seed, timed ops, gates.

An iteration of a workload runs four steps.  ``prepare`` derives the
iteration's inputs from (seed, iteration) and writes the config file;
``simulate`` makes the seeded run and writes it to disk (what a Monte
Carlo study waits for); ``analyze`` goes from that file to the result
files (what someone with a real acquisition waits for); ``check`` compares
the result files with simulator truth using the acceptance tests'
statistics.  Every CLI call, API call and check is one operation, and the
`Ops` recorder counts the ones that fail.

Public functions are looked up through the ``spadkit`` package at call
time, so a tracer installed on the package sees the benchmark's own API
calls as well as the CLI's.

The full sizes are the acceptance scenarios scaled to a few seconds per
iteration with their per-cycle shape kept (records per cycle, pixels
loaded, pairs histogrammed).  Where a shorter run would starve a gate of
counts, the signal is raised instead of the bound: `flood_calibrate` uses
24 % nearest-neighbour cross-talk over 25 s, which puts ~1440 counts in
each adjacent-pair peak (acceptance 1: ~720 with 0.5 % over 600 s).  The
delay error is a random walk over 255 pairs whose RMS has a long tail;
at ~720 counts one seed in a few hundred passes 50 ps, at ~1440 the RMS
averages 12 ps and 50 ps is a one-in-a-million event.  The tiny sizes
exist only for the benchmark's own tests.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import traceback
import xml.etree.ElementTree as ET

import numpy as np

import spadkit
import spadkit.cli
from spadkit.coincidence import DeltaHistogram
from spadkit.crosstalk import CtCurve
from spadkit.simulator import BeamSpec, DcrProfile, SimConfig

DOCUMENTED_EXIT_CODES = (0, 1, 2, 3)


class OpFailed(Exception):
    """An operation failed; the rest of the iteration's chain is skipped."""


class Ops:
    """Counts operations attempted and failed over a whole run.

    ``split``, when set, is called after every CLI or API operation that
    succeeds; the phase clock uses it to time each operation separately.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.split = None

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)
        print(f"perfbench: failed: {what}", file=sys.stderr)
        raise OpFailed(what)

    def cli(self, argv: list[str]) -> None:
        """One `spadkit` subcommand through `spadkit.cli.main`; every
        subcommand the workloads run must succeed (exit 0)."""
        self.attempted += 1
        try:
            code = spadkit.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            traceback.print_exc()
            self.fail(f"{argv[0]}: traceback")
        if code not in DOCUMENTED_EXIT_CODES:
            self.fail(f"{argv[0]}: undocumented exit code {code}")
        if code != 0:
            self.fail(f"{argv[0]}: exit {code}, expected 0")
        if self.split:
            self.split()

    def api(self, func, *args, **kwargs):
        """One public-API call; any exception is a failed operation."""
        self.attempted += 1
        try:
            result = func(*args, **kwargs)
        except Exception:
            traceback.print_exc()
            self.fail(f"{getattr(func, '__qualname__', func)}: traceback")
        if self.split:
            self.split()
        return result

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        """One gate against simulator truth."""
        self.attempted += 1
        if not ok:
            self.fail(f"check {name}: {detail}")


def _write_json(path: str, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh)


def _is_xml(path: str) -> bool:
    try:
        ET.parse(path)
    except ET.ParseError:
        return False
    return True


def _sim_seed(seed: int, iteration: int) -> int:
    return (seed * 1_000_003 + iteration) % (1 << 63)


def _rng(seed: int, iteration: int) -> np.random.Generator:
    return np.random.default_rng([seed, iteration])


# Chance that a correct program trips one statistical check in one
# iteration.  A benchmark campaign evaluates every check hundreds of
# times, so the acceptance tests' 3-sigma bounds (0.27 % per comparison,
# safe there only because their seeds are pinned) would fire by chance.
GATE_ALPHA = 1e-6


def _two_sided_tail(x: float, dof: int | None) -> float:
    """P(|X| > x) for a standard normal, or Student t with ``dof``."""
    if dof is None:
        return math.erfc(x / math.sqrt(2.0))
    c = math.exp(math.lgamma((dof + 1) / 2) - math.lgamma(dof / 2)) \
        / math.sqrt(dof * math.pi)
    # Simpson on u in (0, 1] after substituting t = x / u.
    steps = 2000
    total = 0.0
    for k in range(1, steps + 1):
        u = k / steps
        f = c * (1.0 + (x / u) ** 2 / dof) ** (-(dof + 1) / 2) * x / u**2
        total += f * (1 if k == steps else 4 if k % 2 else 2)
    return 2.0 * total / (3.0 * steps)


@functools.lru_cache(maxsize=None)  # a few (n, dof) pairs per process
def pull_bound(n: int, dof: int | None = None) -> float:
    """|pull| that any of n pulls exceeds with probability GATE_ALPHA
    (Bonferroni); ``dof`` when each pull's error is itself estimated."""
    lo, hi = 0.0, 1000.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if _two_sided_tail(mid, dof) > GATE_ALPHA / n:
            lo = mid
        else:
            hi = mid
    return hi


class Workload:
    name = ""
    SIZES: dict[str, dict] = {}

    def __init__(self, size: str):
        if size not in self.SIZES:
            raise ValueError(f"unknown size {size!r}")
        self.p = self.SIZES[size]

    def prepare(self, work: str, seed: int, it: int) -> dict:
        """Inputs and truth of one iteration; writes the config it needs."""
        raise NotImplementedError

    def simulate(self, ops: Ops, run: dict) -> None:
        """Generate the run and write it to ``run["stream"]``."""
        ops.cli(["simulate", "--config", run["config"],
                 "--out", run["stream"]])

    def analyze(self, ops: Ops, run: dict, out: str) -> None:
        raise NotImplementedError

    def check(self, ops: Ops, run: dict, out: str) -> None:
        raise NotImplementedError

    def _sim_run(self, work: str, config: SimConfig, stem: str, **truth):
        path = os.path.join(work, "sim.json")
        _write_json(path, config.to_json_dict())
        return {"config": path, "stream": os.path.join(work, stem + ".spk1"),
                **truth}


# ---------------------------------------------------------------------------
# 1. flood_calibrate: acceptance 1, sparse cycles, 510 pair fits

class FloodCalibrate(Workload):
    name = "flood_calibrate"
    SIZES = {
        "full": dict(num_pixels=256, duration_s=25.0, dark_cps=120.0,
                     ct=0.24),
        "tiny": dict(num_pixels=32, duration_s=2.0, dark_cps=2000.0,
                     ct=0.05),
    }
    RMS_BOUND_PS = 50.0
    RESIDUAL_BOUND_PS = 50.0

    def prepare(self, work, seed, it):
        p = self.p
        delays = _rng(seed, it).uniform(-5000.0, 5000.0, p["num_pixels"])
        config = SimConfig(
            sensor=spadkit.SensorConfig(num_pixels=p["num_pixels"]),
            seed=_sim_seed(seed, it), duration_s=p["duration_s"],
            dcr=DcrProfile(base_cps=p["dark_cps"]),
            ct_profile=((1, p["ct"]),), delays_ps=tuple(delays))
        return self._sim_run(work, config, "flood",
                             truth=delays - delays.mean())

    def analyze(self, ops, run, out):
        delays = os.path.join(out, "delays.json")
        ops.cli(["calibrate", "--in", run["stream"], "--out", delays])
        # Acceptance-1 closure through the API: correct, then re-measure.
        stream = ops.api(spadkit.PhotonStream.read, run["stream"])
        vec = ops.api(spadkit.DelayVector.load, delays)
        corrected = ops.api(spadkit.apply_delays, stream, vec)
        del stream
        refit = ops.api(spadkit.measure_offsets, corrected)
        _write_json(os.path.join(out, "residuals.json"),
                    [m.to_json_dict() for m in refit])

    def check(self, ops, run, out):
        vec = spadkit.DelayVector.load(os.path.join(out, "delays.json"))
        ops.check("calibration not degraded", not vec.degraded,
                  f"gaps {list(vec.gap_pixels)[:5]}")
        rms = float(np.sqrt(np.mean((vec.delays_ps - run["truth"]) ** 2)))
        ops.check("delay rms", rms <= self.RMS_BOUND_PS,
                  f"{rms:.1f} ps > {self.RMS_BOUND_PS} ps")
        with open(os.path.join(out, "residuals.json")) as fh:
            refit = json.load(fh)
        ops.check("residual pairs valid", all(m["valid"] for m in refit))
        worst = max(abs(m["off_ps"]) for m in refit)
        ops.check("residual offsets", worst <= self.RESIDUAL_BOUND_PS,
                  f"{worst:.1f} ps > {self.RESIDUAL_BOUND_PS} ps")


# ---------------------------------------------------------------------------
# 2. hotpixel_ctscan: acceptance 3, 8 dense pixels against sparse neighbours

CT_PROFILE = {1: 1.2e-3, 2: 3.0e-4, 3: 5.5e-4, 4: 2.0e-4, 5: 1.3e-4,
              6: 1.0e-4, 7: 1.0e-4, 8: 1.0e-4, 9: 1.0e-4, 10: 1.0e-4,
              11: 1.0e-4}


class HotpixelCtscan(Workload):
    name = "hotpixel_ctscan"
    SIZES = {
        "full": dict(num_pixels=256, duration_s=4.0, hot_cps=25_000.0,
                     dark_cps=60.0, d_max=11, spacing=30),
        "tiny": dict(num_pixels=128, duration_s=1.0, hot_cps=25_000.0,
                     dark_cps=60.0, d_max=3, spacing=11),
    }
    N_HOT = 8

    def prepare(self, work, seed, it):
        p = self.p
        # Hot pixels sit d_max + 2 apart or more, so the +-d_max
        # neighbourhoods never overlap and every scanned pair sees one
        # cross-talk source.
        jitter = _rng(seed, it).integers(-2, 3, self.N_HOT)
        hot = [int(p["d_max"] + 3 + k * p["spacing"] + j)
               for k, j in enumerate(jitter)]
        profile = {d: v for d, v in CT_PROFILE.items() if d <= p["d_max"]}
        config = SimConfig(
            sensor=spadkit.SensorConfig(num_pixels=p["num_pixels"]),
            seed=_sim_seed(seed, it), duration_s=p["duration_s"],
            dcr=DcrProfile(base_cps=p["dark_cps"],
                           overrides=tuple((h, p["hot_cps"]) for h in hot)),
            ct_profile=tuple(sorted(profile.items())))
        return self._sim_run(work, config, "hot", hot=hot, profile=profile)

    def analyze(self, ops, run, out):
        ops.cli(["dcr", "--in", run["stream"], "--subsets", "4",
                 "--out", os.path.join(out, "rates.json")])
        ops.cli(["ct-scan", "--in", run["stream"],
                 "--dmax", str(self.p["d_max"]), "--nhot", str(self.N_HOT),
                 "--svg", os.path.join(out, "ct.svg"),
                 "--out", os.path.join(out, "ct.json")])

    def check(self, ops, run, out):
        with open(os.path.join(out, "rates.json")) as fh:
            rates = json.load(fh)
        found = sorted(p for p, _rate in rates["hot_pixels"])
        ops.check("hot-pixel set", found == run["hot"],
                  f"found {found}, injected {run['hot']}")
        ops.check("rate subsets", len(rates.get("subsets", [])) == 4)
        curve = CtCurve.load(os.path.join(out, "ct.json"))
        profile = run["profile"]
        for d, p_true in profile.items():
            point = curve.point(d)
            pull = (point.probability - p_true) / point.stderr
            # The stderr comes from the scatter of n_pairs estimates, so
            # the pull is Student-t distributed, not normal.
            bound = pull_bound(len(profile), dof=point.n_pairs - 1)
            ops.check(f"cross-talk pull d={d}", abs(pull) <= bound,
                      f"|pull| {abs(pull):.2f} > {bound:.2f}")
        ops.check("cross-talk svg", _is_xml(os.path.join(out, "ct.svg")))


# ---------------------------------------------------------------------------
# 3. bunching_report: acceptance 5, one dense pair, two-peak fit

class BunchingReport(Workload):
    name = "bunching_report"
    SIZES = {
        "full": dict(duration_s=6.0),
        "tiny": dict(duration_s=2.0),
    }
    PAIR = (100, 103)
    BEAM_CPS = 150_000.0
    FIBER_PS = 5000.0

    def prepare(self, work, seed, it):
        a, b = self.PAIR
        config = SimConfig(
            seed=_sim_seed(seed, it), duration_s=self.p["duration_s"],
            dcr=DcrProfile(base_cps=20.0),
            beams=(BeamSpec(pixel=a, rate_cps=self.BEAM_CPS),
                   BeamSpec(pixel=b, rate_cps=self.BEAM_CPS)),
            pair_fraction=0.1, fiber_delay_ps=self.FIBER_PS,
            ct_profile=((3, 6.0e-4), (5, 2.5e-4), (7, 1.0e-4)))
        return self._sim_run(work, config, "beams")

    def analyze(self, ops, run, out):
        a, b = self.PAIR
        ops.cli(["report", "--in", run["stream"], "--pair", f"{a},{b}",
                 "--hint", str(self.FIBER_PS),
                 "--out", os.path.join(out, "report")])

    def check(self, ops, run, out):
        report = os.path.join(out, "report")
        with open(os.path.join(report, "fit.json")) as fh:
            fit = json.load(fh)
        sep, err = fit["separation_ps"], fit["separation_err_ps"]
        ops.check("peak separation",
                  abs(sep - self.FIBER_PS) <= pull_bound(1) * err,
                  f"{sep:.1f} +- {err:.1f} ps vs {self.FIBER_PS} ps")
        ops.check("both peaks significant",
                  fit["near_peak"]["significant"]
                  and fit["far_peak"]["significant"])
        DeltaHistogram.load(os.path.join(report, "histogram.json"))
        ops.check("report svg", _is_xml(os.path.join(report, "report.svg")))


# ---------------------------------------------------------------------------
# 4. tdc_lut: raw-code container, code-density calibration, --lut chain

class TdcLutWorkload(Workload):
    name = "tdc_lut"
    SIZES = {
        "full": dict(num_pixels=256, counts=12_000, n_cycles=1000),
        "tiny": dict(num_pixels=8, counts=12_000, n_cycles=100),
    }

    def prepare(self, work, seed, it):
        p = self.p
        sensor = spadkit.SensorConfig(num_pixels=p["num_pixels"])
        bins = sensor.tdc_bins_per_clock
        # Acceptance 9's width profile with a seeded phase per pixel.
        phase = _rng(seed, it).uniform(0.0, 2 * np.pi, (p["num_pixels"], 2))
        k = np.arange(bins)
        widths = (1.0 + 0.35 * np.sin(2 * np.pi * k / bins + phase[:, :1])
                  + 0.15 * np.cos(6 * np.pi * k / bins + phase[:, 1:]))
        widths *= sensor.clock_period_ps / widths.sum(axis=1, keepdims=True)
        return {"stream": os.path.join(work, "codes.spk1"), "sensor": sensor,
                "widths": widths, "seed": _sim_seed(seed, it)}

    def simulate(self, ops, run):
        stream = ops.api(spadkit.simulate_code_density, run["sensor"],
                         run["widths"], self.p["counts"], run["seed"],
                         n_cycles=self.p["n_cycles"])
        ops.api(stream.write, run["stream"])

    def analyze(self, ops, run, out):
        stream = ops.api(spadkit.PhotonStream.read, run["stream"])
        lut = ops.api(spadkit.build_lut, stream)
        del stream
        lut_path = os.path.join(out, "lut.json")
        ops.api(lut.save, lut_path)
        ops.cli(["coincidence", "--in", run["stream"], "--lut", lut_path,
                 "--pair", "0,1", "--out", os.path.join(out, "hist.json")])

    def check(self, ops, run, out):
        lut = spadkit.TdcLut.load(os.path.join(out, "lut.json"),
                                  run["sensor"])
        ops.check("no unusable pixel", not lut.unusable,
                  f"unusable {sorted(lut.unusable)[:10]}")
        clock = run["sensor"].clock_period_ps
        p_true = run["widths"] / clock
        sigma = clock * np.sqrt(p_true * (1 - p_true) / self.p["counts"])
        pulls = (lut.widths - run["widths"]) / sigma
        bound = pull_bound(pulls.size)
        worst = float(np.abs(pulls).max())
        ops.check("lut width pulls", worst <= bound,
                  f"worst |pull| {worst:.2f} > {bound:.2f}")
        hist = DeltaHistogram.load(os.path.join(out, "hist.json"))
        ops.check("lut coincidence pairs", hist.total_pairs > 0)


WORKLOADS = {w.name: w for w in (FloodCalibrate, HotpixelCtscan,
                                 BunchingReport, TdcLutWorkload)}


def input_size(path: str) -> dict:
    """Records, serialized cycles and bytes of a stream file."""
    stream = spadkit.PhotonStream.read(path)
    cycles = int(np.count_nonzero(np.diff(stream.cycle_index)) + 1) \
        if stream.n_records else 0
    return {"records": stream.n_records, "serialized_cycles": cycles,
            "total_cycles": stream.total_cycles,
            "file_bytes": os.path.getsize(path)}
