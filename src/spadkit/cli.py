"""Command-line interface: the analysis pipeline as subcommands.

Every run writes a manifest JSON next to its primary output with the
resolved parameters, input/output paths, tool version, wall time and
peak resident memory, so any result can be traced back to the exact
invocation.  Outputs are deterministic given the same inputs; the
manifest is the only file that differs between identical reruns.

Exit codes: 0 success, 1 usage error, 2 malformed or insufficient data,
3 degraded result (outputs still written, e.g. calibration with gaps or a
TDC LUT with unusable pixels).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import os
import sys
import time

import numpy as np

try:
    import resource
except ImportError:  # not on Windows
    resource = None

from . import __version__
from .coincidence import (DEFAULT_WINDOW_PS, DeltaHistogram, build_histogram,
                          normalize_histogram)
from .crosstalk import DEFAULT_D_MAX, DEFAULT_N_HOT, ct_scan
from .documents import read_json, write_json
from .errors import CalibrationError, DataError, FitError, StreamFormatError
from .offsets import (DelayVector, apply_delays, invalid_fraction,
                      measure_offsets, solve_delays)
from .peakfit import fit_gaussian, fit_two_peaks
from .rates import DEFAULT_HOT_THRESHOLD_CPS, compute_rates
from .simulator import SimConfig, simulate
from .svg import ct_curve_svg, histogram_svg
from .tdc import TdcLut, _check_lut, apply_lut, build_lut
from .timestream import PhotonStream

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_DEGRADED = 3

_ERRORS = (DataError, StreamFormatError, CalibrationError, FitError)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage problems; the contract here is 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _manifest(args, outputs, t0, seed=None) -> None:
    """Write the run's record next to its primary output."""
    skip = {"func", "command", "log_level"}
    config = {k: v for k, v in vars(args).items() if k not in skip}
    primary = outputs[0]
    path = os.path.join(primary, "manifest.json") if os.path.isdir(primary) \
        else primary + ".manifest.json"
    write_json(path, {
        "schema_version": 1, "kind": "run_manifest",
        "subcommand": args.command, "config": config,
        "inputs": [config[k] for k in ("config", "in", "delays", "lut")
                   if config.get(k)],
        "outputs": outputs, "version": __version__,
        "wall_time_s": round(time.monotonic() - t0, 3), "seed": seed,
        "peak_rss_mb": _peak_rss_mb(),
    }, indent=2, sort_keys=True)


def _peak_rss_mb() -> float | None:
    """The process's peak resident set size so far in MiB, or None where
    the platform has no ``resource`` module."""
    if resource is None:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss counts bytes on macOS and KiB on Linux
    return round(peak / (1 << 20 if sys.platform == "darwin" else 1 << 10), 1)


def _pair(text: str) -> tuple[int, int]:
    try:
        a, b = (int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected 'A,B' pixel pair, got {text!r}") from None
    if a >= b:
        raise argparse.ArgumentTypeError(
            f"pair must be ordered A < B, got {text!r}")
    return a, b


def _positive(kind):
    """Argument type: a finite ``kind`` (int or float) above zero."""
    def parse(text: str):
        value = kind(text)  # argparse reports a ValueError as usage error
        if not 0 < value < float("inf"):
            raise argparse.ArgumentTypeError(
                f"must be finite and > 0, got {text!r}")
        return value

    parse.__name__ = kind.__name__  # names the type in argparse's message
    return parse


def _read_stream(path: str, lut_path: str | None = None,
                 delays_path: str | None = None,
                 pair: tuple[int, int] | None = None) -> PhotonStream:
    """The stream at ``path`` with the run's calibrations applied: raw
    codes converted by the LUT at ``lut_path``, then times corrected by
    the delays at ``delays_path``.  A ``pair`` must lie on the sensor;
    with a ``pair`` and a calibration, the whole stream is checked against
    the LUT but only the pair's records are calibrated and returned."""
    stream = PhotonStream.read(path)
    n_pixels = stream.sensor.num_pixels
    if pair is not None and not (pair[0] >= 0 and pair[1] < n_pixels):
        raise DataError(f"pair {pair[0]},{pair[1]} is outside the stream's "
                        f"pixels 0..{n_pixels - 1}")
    lut = None if lut_path is None else TdcLut.load(lut_path, stream.sensor)
    if pair is not None and (lut is not None or delays_path is not None):
        if lut is not None:
            _check_lut(stream, lut)
        n_read = stream.n_records
        stream = stream.take(np.flatnonzero(
            (stream.pixel == pair[0]) | (stream.pixel == pair[1])))
        if lut is not None:
            logger.info("apply_lut: converted %d of %d records "
                        "(pixels %d, %d)", stream.n_records, n_read, *pair)
    if lut is not None:
        stream = apply_lut(stream, lut)
    if delays_path is not None:
        delays = DelayVector.load(delays_path)
        if len(delays) != n_pixels:
            raise DataError(f"{delays_path} holds {len(delays)} delays but "
                            f"the stream has {n_pixels} pixels")
        stream = apply_delays(stream, delays)
    return stream


@contextlib.contextmanager
def _fitting(what: str):
    """A histogram grid the peak model cannot use (too few bins for its
    parameters, from --window and --bin) is bad input: a DataError."""
    try:
        yield
    except ValueError as exc:
        raise DataError(f"cannot fit {what}: {exc}") from None


# ---------------------------------------------------------------------------
# subcommands

def _cmd_simulate(args) -> int:
    t0 = time.monotonic()
    doc = read_json(args.config)
    if args.seed is not None:
        doc["seed"] = args.seed
    config = SimConfig.from_json_dict(doc)
    stream, truth = simulate(config)
    stream.write(args.out)
    outputs = [args.out]
    if args.truth is not None:
        write_json(args.truth, truth.to_json_dict())
        outputs.append(args.truth)
    _manifest(args, outputs, t0, seed=config.seed)
    return EXIT_OK


def _cmd_dcr(args) -> int:
    t0 = time.monotonic()
    stream = _read_stream(getattr(args, "in"))
    report = compute_rates(stream, hot_threshold_cps=args.hot_threshold,
                           n_subsets=args.subsets)
    write_json(args.out, report.to_json_dict())
    _manifest(args, [args.out], t0)
    return EXIT_OK


def _cmd_coincidence(args) -> int:
    t0 = time.monotonic()
    stream = _read_stream(getattr(args, "in"), args.lut, args.delays,
                          args.pair)
    hist = build_histogram(stream, args.pair, args.window, args.bin)
    try:
        hist = normalize_histogram(hist)
    except DataError:
        pass  # too sparse to normalize; counts alone are still useful
    hist.save(args.out)
    _manifest(args, [args.out], t0)
    return EXIT_OK


def _cmd_fit(args) -> int:
    t0 = time.monotonic()
    hist = DeltaHistogram.load(getattr(args, "in"))
    with _fitting(getattr(args, "in")):
        fit = fit_two_peaks(hist, separation_hint_ps=args.hint) \
            if args.two_peaks else fit_gaussian(hist)
    write_json(args.out, fit.to_json_dict())
    outputs = [args.out]
    if args.svg is not None:
        with open(args.svg, "w") as fh:
            fh.write(histogram_svg(hist, fit))
        outputs.append(args.svg)
    _manifest(args, outputs, t0)
    return EXIT_OK


def _cmd_ct_scan(args) -> int:
    t0 = time.monotonic()
    stream = _read_stream(getattr(args, "in"), args.lut, args.delays)
    report = compute_rates(stream, hot_threshold_cps=args.hot_threshold)
    with _fitting(f"the pair histograms of {getattr(args, 'in')}"):
        curve = ct_scan(stream, report, d_max=args.dmax, n_hot=args.nhot,
                        window_ps=args.window)
    curve.save(args.out)
    outputs = [args.out]
    if args.svg is not None:
        with open(args.svg, "w") as fh:
            fh.write(ct_curve_svg(curve))
        outputs.append(args.svg)
    _manifest(args, outputs, t0)
    return EXIT_OK


def _cmd_calibrate(args) -> int:
    t0 = time.monotonic()
    stream = _read_stream(getattr(args, "in"), args.lut)
    with _fitting(f"the pair histograms of {getattr(args, 'in')}"):
        measurements = measure_offsets(stream, window_ps=args.window)
    logger.info("calibrate: %d of %d adjacent pairs invalid (fraction %.3f)",
                sum(not m.valid for m in measurements), len(measurements),
                invalid_fraction(measurements))
    vec = solve_delays(measurements,
                       num_pixels=stream.sensor.num_pixels)
    vec.save(args.out)
    _manifest(args, [args.out], t0)
    return EXIT_DEGRADED if vec.degraded else EXIT_OK


def _cmd_tdc_cal(args) -> int:
    t0 = time.monotonic()
    stream = _read_stream(getattr(args, "in"))
    lut = build_lut(stream)
    logger.info("tdc-cal: %d records, %d of %d pixels unusable",
                stream.n_records, len(lut.unusable), stream.sensor.num_pixels)
    lut.save(args.out)
    _manifest(args, [args.out], t0)
    return EXIT_DEGRADED if lut.unusable else EXIT_OK


def _cmd_report(args) -> int:
    t0 = time.monotonic()
    stream = _read_stream(getattr(args, "in"), args.lut, args.delays,
                          args.pair)
    hist = build_histogram(stream, args.pair, args.window, args.bin)
    try:
        hist = normalize_histogram(hist)
    except DataError:
        pass
    with _fitting(f"the {args.pair[0]},{args.pair[1]} histogram of "
                  f"{getattr(args, 'in')}"):
        fit = fit_two_peaks(hist, separation_hint_ps=args.hint)

    os.makedirs(args.out, exist_ok=True)
    hist_path = os.path.join(args.out, "histogram.json")
    fit_path = os.path.join(args.out, "fit.json")
    svg_path = os.path.join(args.out, "report.svg")
    hist.save(hist_path)
    write_json(fit_path, fit.to_json_dict())
    with open(svg_path, "w") as fh:
        fh.write(histogram_svg(
            hist, fit, title=f"pixels {args.pair[0]},{args.pair[1]}"))
    _manifest(args, [args.out, hist_path, fit_path, svg_path], t0)
    return EXIT_OK


# ---------------------------------------------------------------------------
# wiring

_PAIR_LUT_HELP = ("TDC LUT for raw-code input: the whole stream is checked "
                  "against it, only the pair's records are converted")
_ALL_LUT_HELP = "TDC LUT for raw-code input: every record is converted"


def build_parser() -> _Parser:
    parser = _Parser(prog="spadkit",
                     description="SPAD array timestamp analysis toolkit")
    parser.add_argument("--log-level", default="warning",
                        choices=["debug", "info", "warning", "error"])
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("simulate", help="generate a stream from a config")
    p.add_argument("--config", required=True, help="SimConfig JSON")
    p.add_argument("--seed", type=int, default=None,
                   help="override the config's seed")
    p.add_argument("--out", required=True)
    p.add_argument("--truth", default=None,
                   help="also write the ground-truth sidecar JSON")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("dcr", help="dark count rates and hot pixels")
    p.add_argument("--in", required=True)
    p.add_argument("--subsets", type=_positive(int), default=None,
                   help="also report per-subset rates for drift checks")
    p.add_argument("--hot-threshold", type=_positive(float),
                   default=DEFAULT_HOT_THRESHOLD_CPS)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_dcr)

    p = sub.add_parser("coincidence", help="two-pixel dt histogram")
    p.add_argument("--in", required=True)
    p.add_argument("--pair", required=True, type=_pair, metavar="A,B")
    p.add_argument("--window", type=_positive(float),
                   default=DEFAULT_WINDOW_PS)
    p.add_argument("--bin", type=_positive(float), default=None,
                   help="bin width in ps (default: 3 TDC bins)")
    p.add_argument("--delays", default=None, help="delay JSON to correct by")
    p.add_argument("--lut", default=None, help=_PAIR_LUT_HELP)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_coincidence)

    p = sub.add_parser("fit", help="Gaussian peak fit on a histogram JSON")
    p.add_argument("--in", required=True)
    p.add_argument("--two-peaks", action="store_true")
    p.add_argument("--hint", type=_positive(float), default=5000.0,
                   help="expected peak separation for --two-peaks")
    p.add_argument("--svg", default=None, help="write data+model overlay")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("ct-scan", help="cross-talk probability vs distance")
    p.add_argument("--in", required=True)
    p.add_argument("--dmax", type=_positive(int), default=DEFAULT_D_MAX)
    p.add_argument("--nhot", type=_positive(int), default=DEFAULT_N_HOT)
    p.add_argument("--hot-threshold", type=_positive(float),
                   default=DEFAULT_HOT_THRESHOLD_CPS)
    p.add_argument("--window", type=_positive(float),
                   default=DEFAULT_WINDOW_PS)
    p.add_argument("--delays", default=None)
    p.add_argument("--lut", default=None, help=_ALL_LUT_HELP)
    p.add_argument("--svg", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_ct_scan)

    p = sub.add_parser("calibrate",
                       help="per-pixel delays from neighbor cross-talk")
    p.add_argument("--in", required=True)
    p.add_argument("--window", type=_positive(float),
                   default=DEFAULT_WINDOW_PS)
    p.add_argument("--lut", default=None, help=_ALL_LUT_HELP)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("tdc-cal",
                       help="TDC look-up table from a raw-code stream "
                            "under uniform light (code density)")
    p.add_argument("--in", required=True)
    p.add_argument("--out", required=True, help="LUT JSON for --lut")
    p.set_defaults(func=_cmd_tdc_cal)

    p = sub.add_parser("report",
                       help="two-peak fit report (JSON + SVG) for a pair")
    p.add_argument("--in", required=True)
    p.add_argument("--pair", required=True, type=_pair, metavar="A,B")
    p.add_argument("--delays", default=None)
    p.add_argument("--hint", type=_positive(float), default=5000.0)
    p.add_argument("--window", type=_positive(float),
                   default=DEFAULT_WINDOW_PS)
    p.add_argument("--bin", type=_positive(float), default=None)
    p.add_argument("--lut", default=None, help=_PAIR_LUT_HELP)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=getattr(logging, args.log_level.upper()))
    try:
        # numpy's floating-point warnings are no part of a command's
        # output, and on stderr they would precede its one JSON error
        # line; ignoring them changes no computed value
        with np.errstate(all="ignore"):
            return args.func(args)
    except _ERRORS as exc:
        print(json.dumps({"error": str(exc),
                          "type": type(exc).__name__}), file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(json.dumps({"error": str(exc), "type": "OSError"}),
              file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
