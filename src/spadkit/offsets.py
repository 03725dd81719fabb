"""Per-pixel timing delay calibration from adjacent-pixel cross-talk peaks.

Routing differences put every pixel's timestamps a fixed delay d_p off a
common reference, up to several ns.  A cross-talk pair fires from one
avalanche, so both pixels see the same instant and the coincidence peak
between neighbors i and j = i + 1 sits at the pure delay difference

    off_{i,j} = d_i - d_j

(the ps-scale photon flight time between SPADs is neglected).  Measuring
all 255 adjacent peaks gives a bidiagonal chain of equations; pinning
the mean delay to zero removes the free global shift and makes the
solution unique.  Forward substitution solves the chain exactly in one
O(n) pass, so no general linear solver is involved.

Each pair's peak is placed, on its row of the scan's count cube
(``coincidence._pair_counts``), by the cross-talk peak front end that
``ct_scan`` shares (``peakfit._box_peaks``): the ~100 ps box filter that
holds the most counts of the pair's whole +-25 ns row.  Only a cut of
+-``CUT_HALF_PS`` around that bin is fitted.  The cuts share one grid of
offsets from their first bin and go straight to one batched solver run;
each fitted center is then moved back by its cut's place.  A cut near an
edge is moved inside the row rather than shortened, and a cut of fewer
counts than the model's four parameters is not fitted.

A pair is valid only when three tests pass:

1. the cut's fit finds a significant peak with a finite center error;
2. its sigma is at most ``MAX_SIGMA_PS``, a fifth of the cut's
   half-width, so that the cut holds the peak's tails and background on
   both sides: a broad peak is refused, never truncated into a
   measurement;
3. the window of +- 3 fitted sigmas around the fitted center holds net
   counts of at least three Poisson errors above the background of the
   whole histogram, the mean count per bin beyond +- 10 sigmas
   (``peakfit._window_counts``, the test ``ct_scan`` places its windows
   by).  A cut's own background is too short to tell a fluctuation
   from a peak: on peakless histograms the cut fits alone take more
   pairs for valid than fits of the whole histogram did.

Pairs without a valid measurement (dead pixel, not enough light) leave a
gap: the chain continues with an assumed zero offset there, the pair is
recorded in ``gap_pixels``, and the result is flagged degraded when more
than 20% of the pairs fell out.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from .coincidence import DEFAULT_WINDOW_PS, _grid, _pair_counts
from .documents import (Document, as_bool, as_count, as_float, as_key,
                        as_list, as_object, decode_fields, field_dict)
from .errors import CalibrationError, DataError, FitError
from .peakfit import (_box_peaks, _clears_noise, _cumulative,
                      _single_peak_fits, _window_counts)
from .rates import _median
from .timestream import PhotonStream, record_order

logger = logging.getLogger(__name__)

SCHEMA_VERSION = 1

# More than this fraction of invalid adjacent pairs marks the resulting
# calibration as degraded.
MAX_INVALID_FRACTION = 0.2

# mean(d) = 0 is exact by construction; allow only float round-off.
MEAN_TOL_PS = 1e-9

# Half-width of the cut around each pair's placed peak that its fit sees.
# The adjacent cross-talk peak has a sigma of about 63 ps: two 40 ps
# detection jitters, the half-normal cross-talk delay and the TDC bins.
# +-700 ps is about 11 of those sigmas, which leaves the fit a background
# on both sides of the peak.
CUT_HALF_PS = 700.0

# A fitted sigma above this could belong to a peak the cut truncated, so
# it makes the pair invalid.
MAX_SIGMA_PS = CUT_HALF_PS / 5

# Fewer counts than the single-peak model's parameters: a cut not fitted.
_MIN_CUT_COUNTS = 4


@dataclass(frozen=True)
class OffsetMeasurement:
    """Fitted peak position for one adjacent pair (i, i + 1).

    ``off_ps`` follows the dt = t_i - t_j convention, i.e. it estimates
    d_i - d_{i+1} directly.  Invalid measurements carry nan/inf values.
    """

    pixel_low: int
    pixel_high: int
    off_ps: float
    sigma_ps: float
    valid: bool

    def __post_init__(self):
        if self.pixel_high != self.pixel_low + 1:
            raise ValueError("measurements are defined on adjacent pairs")

    def to_json_dict(self) -> dict:
        return field_dict(self)

    @classmethod
    def from_json_dict(cls, doc: dict) -> "OffsetMeasurement":
        return decode_fields(cls, doc, off_ps=_measured, sigma_ps=_measured)


def _measured(value) -> float:
    # write_json stores the nan/inf of an invalid measurement as null.
    return math.nan if value is None else as_float(value)


@dataclass(frozen=True, eq=False)
class DelayVector(Document):
    """Per-pixel delays, mean-zero by construction."""

    delays_ps: np.ndarray
    provenance: tuple[OffsetMeasurement, ...] = ()
    gap_pixels: tuple[tuple[int, int], ...] = ()
    degraded: bool = False

    NOUN = "delay"

    def __post_init__(self):
        d = np.asarray(self.delays_ps, dtype=np.float64)
        object.__setattr__(self, "delays_ps", d)
        if d.ndim != 1 or len(d) < 2:
            raise ValueError("need delays for at least two pixels")
        if not np.isfinite(d).all():
            raise ValueError("delays must be finite")
        if abs(d.mean()) > MEAN_TOL_PS:
            raise ValueError("delay vector must have zero mean")

    @classmethod
    def centered(cls, delays_ps, **kw) -> "DelayVector":
        d = np.asarray(delays_ps, dtype=np.float64)
        return cls(d - d.mean(), **kw)

    def __len__(self) -> int:
        return len(self.delays_ps)

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "delay_vector",
            "delays_ps": {str(i): float(v)
                          for i, v in enumerate(self.delays_ps)},
            "gap_pixels": [list(g) for g in self.gap_pixels],
            "degraded": self.degraded,
            "provenance": [m.to_json_dict() for m in self.provenance],
        }

    @classmethod
    def _decode(cls, doc: dict) -> "DelayVector":
        raw = as_object(doc["delays_ps"])
        pixels = sorted(as_key(k) for k in raw)
        if pixels != list(range(len(pixels))):
            raise DataError("delay keys must cover 0..n-1 exactly")
        d = np.array([as_float(raw[str(p)]) for p in pixels])
        return cls(
            delays_ps=d,
            provenance=tuple(OffsetMeasurement.from_json_dict(m)
                             for m in as_list(doc.get("provenance", []))),
            gap_pixels=tuple((as_count(a), as_count(b))
                             for a, b in as_list(doc.get("gap_pixels", []))),
            degraded=as_bool(doc.get("degraded", False)))


def measure_offsets(stream: PhotonStream,
                    window_ps: float = DEFAULT_WINDOW_PS,
                    ) -> list[OffsetMeasurement]:
    """Measure the cross-talk peak of every adjacent pixel pair.

    Expects uniform weak illumination (ambient light works) so that
    every pixel fires and neighbor cross-talk produces a peak.  Each
    pair's histogram over +- ``window_ps`` is counted, its peak placed by
    the box filter, and a cut of +- ``CUT_HALF_PS`` around it fitted; the
    module docstring gives the three tests a valid pair passes.  Returns
    one measurement per pair; pairs that fail a test come back flagged
    invalid rather than raising.
    """
    bin_width = stream.sensor.mean_bin_width_ps
    pairs = [(i, i + 1) for i in range(stream.sensor.num_pixels - 1)]
    # distinct ascending pairs: row k is pair k; _measure frees the cube
    return _measure(pairs, _pair_counts(stream, pairs, window_ps,
                                        bin_width)[0], window_ps, bin_width)


def _measure(pairs, counts, window_ps: float,
             bin_width_ps: float) -> list[OffsetMeasurement]:
    """The measurements of the adjacent pairs ``pairs`` from their rows of
    ``counts``, each over +- ``window_ps`` in bins of ``bin_width_ps``.
    The counts go once their cumulative counts are made."""
    n = counts.shape[1]
    x = _grid(window_ps, bin_width_ps, n)[1]
    cum = _cumulative(counts)
    del counts
    width = min(2 * math.ceil(CUT_HALF_PS / bin_width_ps) + 1, n)
    start = np.clip(_box_peaks(cum, bin_width_ps) - width // 2, 0, n - width)
    cuts = np.diff(np.take_along_axis(
        cum, start[:, None] + np.arange(width + 1), axis=1), axis=1)
    # Half the cut's span less a part in 1e12 once kept n_bins from adding
    # a bin; n_bins no longer sees the cut, but the fits' bits depend on it.
    cut_x = _grid(0.5 * width * bin_width_ps * (1 - 1e-12), bin_width_ps,
                  width)[1]
    fits = [FitError("cut holds fewer counts than the model has "
                     "parameters", reason="too_few_counts")] * len(pairs)
    rows = np.flatnonzero(cuts.sum(axis=1) >= _MIN_CUT_COUNTS)
    y = cuts[rows].astype(np.float64)
    del cuts
    for i, fit in zip(rows, _single_peak_fits(cut_x, y)):
        fits[i] = fit
    del y

    fitted = np.array([not isinstance(fit, FitError) and fit.significant
                       and math.isfinite(fit.center_err_ps) for fit in fits])
    sigmas = np.array([fit.sigma_ps if ok else bin_width_ps
                       for fit, ok in zip(fits, fitted)])
    centers = np.array([fit.center_ps if ok else 0.0
                        for fit, ok in zip(fits, fitted)])
    centers += x[start] - cut_x[0]
    narrow = sigmas <= MAX_SIGMA_PS
    clear = _clears_noise(*_window_counts(cum, x, centers, sigmas)[2:])
    valid = fitted & narrow & clear

    reasons = Counter(fit.reason if isinstance(fit, FitError)
                      else fit.stop_reason for fit in fits)
    out = []
    for k, ((a, b), fit) in enumerate(zip(pairs, fits)):
        # Histogram dt runs t_{i+1} - t_i; the offset convention is
        # t_i - t_{i+1}, hence the sign flip.
        out.append(OffsetMeasurement(
            pixel_low=a, pixel_high=b,
            off_ps=-float(centers[k]) if valid[k] else math.nan,
            sigma_ps=fit.center_err_ps if valid[k] else math.inf,
            valid=bool(valid[k])))
    # A batched run takes as many passes as its longest fit iterates.
    iterations = [fit.n_iterations for fit in fits]
    chi2_dof = [fit.chi2 / fit.dof for fit in fits
                if not isinstance(fit, FitError)]
    logger.info("measure_offsets: %d adjacent pairs, cut +-%d bins, fit "
                "stop reasons %s, chi2/dof median %.3g max %.3g, %d solver "
                "iterations in %d batched passes; refused %d by the fit, %d "
                "by the width guard, %d by the sideband test", len(out),
                width // 2, dict(reasons.most_common()),
                float(_median(np.array(chi2_dof))) if chi2_dof else math.nan,
                max(chi2_dof, default=math.nan), sum(iterations),
                max(iterations), int((~fitted).sum()),
                int((fitted & ~narrow).sum()),
                int((fitted & narrow & ~clear).sum()))
    return out


def invalid_fraction(measurements) -> float:
    if not measurements:
        return 1.0
    return sum(not m.valid for m in measurements) / len(measurements)


def solve_delays(measurements, num_pixels: int | None = None) -> DelayVector:
    """Solve the adjacent-pair chain for per-pixel delays.

    d_{i+1} = d_i - off_{i,i+1} segment by segment, then one global
    shift pins mean(d) to zero.  Invalid or missing pairs join their
    segments with an assumed zero offset and show up in ``gap_pixels``.
    """
    by_low: dict[int, OffsetMeasurement] = {}
    for m in measurements:
        if m.pixel_low in by_low:
            raise ValueError(f"duplicate measurement for pair "
                             f"({m.pixel_low}, {m.pixel_high})")
        by_low[m.pixel_low] = m

    if num_pixels is None:
        if not by_low:
            raise CalibrationError("no measurements to solve from")
        num_pixels = max(by_low) + 2
    if num_pixels < 2:
        raise ValueError("need at least two pixels")

    valid = [m for m in by_low.values() if m.valid]
    if not valid:
        raise CalibrationError("no valid offset measurements; cannot "
                               "calibrate delays")

    d = np.zeros(num_pixels)
    gaps = []
    for i in range(num_pixels - 1):
        m = by_low.get(i)
        if m is not None and m.valid:
            d[i + 1] = d[i] - m.off_ps
        else:
            d[i + 1] = d[i]
            gaps.append((i, i + 1))
    d -= d.mean()

    n_pairs = num_pixels - 1
    return DelayVector(
        delays_ps=d,
        provenance=tuple(sorted(valid, key=lambda m: m.pixel_low)),
        gap_pixels=tuple(gaps),
        degraded=len(gaps) > MAX_INVALID_FRACTION * n_pairs)


def apply_delays(stream: PhotonStream, delays) -> PhotonStream:
    """Subtract per-pixel delays from every record and re-sort.

    This is how a delay calibration enters a stream; the analyses take
    the corrected stream.  Corrected times may leave [0, cycle_period);
    such records are kept rather than wrapped or dropped, so counting
    statistics survive the correction, and the stream can no longer be
    validated or written.
    """
    vec = delays.delays_ps if isinstance(delays, DelayVector) \
        else np.asarray(delays, dtype=np.float64)
    if stream.n_records == 0:
        return stream
    if int(stream.pixel.max()) >= len(vec):
        raise DataError(f"delay vector covers {len(vec)} pixels but the "
                        f"stream uses pixel {int(stream.pixel.max())}")

    time = stream.time_ps - vec[stream.pixel]
    order = record_order(stream.cycle_index, time, stream.pixel)
    return replace(stream, time_ps=time).take(order)
