"""Cross-talk probability versus pixel separation, using hot pixels as
built-in light sources.

A hot pixel avalanches at kilohertz rates with no light at all, and every
avalanche can trigger a neighbor through optical cross-talk.  Against any
nearby pixel this produces a sharp coincidence peak, and

    P_ct = (peak counts above background) / (source counts)

is estimated by counting, against one peak shape per scan, on count
rows of the scan's cube (``coincidence._pair_counts``):

1. Each pair's counts are read source -> target (dt = t_target -
   t_source), so every cross-talk peak leans the same way.
2. The shape: each nearest-neighbor (d = 1) row's peak is placed by the
   cross-talk peak front end in ``peakfit`` (``_box_peaks``, a ~100 ps
   box filter, which ``measure_offsets`` places its peaks with too), the
   rows are shifted onto one bin and summed, and one Gaussian fit on the
   sum (``peakfit._single_peak_fits``) gives sigma and the fitted center's
   offset from the bin that a Gaussian matched filter of that sigma picks
   on the sum (the cross-talk peak is asymmetric).  The share of the sum's net
   counts that lies within +- 3 sigma of its center is the window share.
3. Each pair's center is the argmax, over the whole window, of its counts
   correlated with a Gaussian of that sigma, plus the offset.  Pairs need
   not share a center, so a scan without a delay calibration measures as
   well as one with it.
4. The gross counts in center +- 3 sigma, minus a sideband background
   (the mean count per bin beyond +- 10 sigma, times the window's bins),
   divided by the window share and by the source counts
   (``peakfit._window_counts``).  The window alone keeps about 99.7 % of
   the asymmetric peak, so without the share every distance would read
   about 0.3 % low.

A pair whose net count is below three times its Poisson error instead
counts a fixed window at dt = 0 of +- 3 ``FALLBACK_SIGMA_PS``:
integrating around the largest fluctuation of a peakless histogram would
bias every null pair positive.  Such estimates carry a 3 sigma upper
limit and may be negative, so that an ensemble of no-cross-talk pairs
averages to zero.  When the pooled fit fails or finds no significant
peak, every pair of the scan takes that window, and the curve records
the fallback.

``ct_scan`` aggregates both directions for the strongest hot pixels into
a probability-versus-distance curve, one point per pixel separation; the
curve document also holds the shape and every pair's estimate.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .coincidence import DEFAULT_WINDOW_PS, _grid, _pair_counts
from .documents import (Document, as_bool, as_count, as_float, as_list,
                        decode_fields, field_dict)
from .errors import DataError, FitError
from .peakfit import (PEAK_WINDOW_SIGMAS, SIDEBAND_SIGMAS,
                      SIGNIFICANCE_SIGMAS, _box_peaks, _clears_noise,
                      _count_variance, _cumulative, _single_peak_fits,
                      _window_counts)
from .rates import RateReport
from .timestream import PhotonStream

logger = logging.getLogger(__name__)

# 2: the curve document holds the pooled shape and every pair's estimate.
SCHEMA_VERSION = 2

# Sources below this many counts give probability errors worse than
# ~1e-4 absolute; refuse rather than report mush.
MIN_SOURCE_COUNTS = 10_000

# Effective sigma for the dt = 0 window when a pair has no significant
# peak.  Generous against TDC jitter (~40 ps rms per pixel) so a real but
# statistically weak peak is still fully covered.
FALLBACK_SIGMA_PS = 100.0

# The Gaussian matched filter reaches this many sigmas either side.
FILTER_SIGMAS = 4.0

# Pairs are counted in blocks of this many, so the matched filter's
# transforms stay about 1 MB per block however many pairs a scan holds.
BLOCK_PAIRS = 16

# How a pair's counting window was placed.
PLACEMENTS = ("matched_filter", "null_window")

DEFAULT_D_MAX = 20
DEFAULT_N_HOT = 8


def _optional_float(value) -> float | None:
    return None if value is None else as_float(value)


def _placement(value) -> str:
    if value not in PLACEMENTS:
        raise ValueError(f"placement must be one of {PLACEMENTS}, "
                         f"got {value!r}")
    return value


@dataclass(frozen=True)
class CtEstimate:
    """Cross-talk probability for one (source, target) pixel pair.

    ``probability`` is ``net / n_source``, where ``net`` is ``gross``
    (the counts in the window around ``center_ps``, in the histogram's
    dt = t_b - t_a with a < b) minus ``bg_per_bin`` times the window's
    bins, divided, for a window at the pair's peak, by the scan shape's
    ``window_share``.  ``placement`` says where the window sat: at the
    pair's matched-filter peak, or at dt = 0 ("null_window") when the
    pair has no significant peak; then the probability can come out
    negative and ``upper_limit`` (3 sigma) is set.
    """

    source: int
    target: int
    probability: float
    error: float
    n_source: int
    significant: bool
    upper_limit: float | None = None
    gross: int = 0
    net: float = 0.0
    bg_per_bin: float = 0.0
    center_ps: float = 0.0
    placement: str = "null_window"

    @property
    def distance(self) -> int:
        return abs(self.target - self.source)

    def to_json_dict(self) -> dict:
        return field_dict(self)

    @classmethod
    def from_json_dict(cls, doc: dict) -> "CtEstimate":
        return decode_fields(
            cls, doc, source=as_count, target=as_count, n_source=as_count,
            gross=as_count, upper_limit=_optional_float,
            placement=_placement)


@dataclass(frozen=True)
class CtShape:
    """The one peak shape of a scan, from the fit of its pooled
    nearest-neighbor histograms.

    ``offset_ps`` is the fitted center minus the center of the bin that
    the Gaussian matched filter picks on the pooled histogram;
    ``chi2_dof`` is None when the fit failed.  ``window_share`` is the
    part of the pooled histogram's net counts that falls inside +- 3
    sigma of its fitted center; each placed pair's net count is divided
    by it, so that a window cut short of the peak's tails does not read
    low.  A document written without it loads with 1.0, which is how its
    pairs were counted.  ``fallback`` is set when the fit failed or found
    no significant peak: every pair of the scan then counts the dt = 0
    window of ``FALLBACK_SIGMA_PS``, which ``sigma_ps`` holds, and
    ``window_share`` is 1.0.
    """

    sigma_ps: float
    offset_ps: float
    chi2_dof: float | None
    n_iterations: int
    stop_reason: str
    n_pooled: int
    fallback: bool
    window_share: float = 1.0

    def to_json_dict(self) -> dict:
        return field_dict(self)

    @classmethod
    def from_json_dict(cls, doc: dict) -> "CtShape":
        return decode_fields(cls, doc, chi2_dof=_optional_float,
                             n_iterations=as_count, n_pooled=as_count)


@dataclass(frozen=True)
class CtPoint:
    """One distance on the cross-talk curve: mean over contributing pairs."""

    distance: int
    probability: float
    stderr: float
    n_pairs: int
    upper_limit: bool

    def __post_init__(self):
        if self.distance < 1:
            raise ValueError("distance must be a positive pixel separation")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must lie in [0, 1]")


@dataclass(frozen=True)
class CtCurve(Document):
    """Cross-talk probability versus pixel separation.

    ``pairs`` records every (hot pixel, neighbor) pair that entered the
    average, in scan order, and ``estimates`` their estimates in the same
    order; ``shape`` is the scan's peak shape.  A schema-1 document loads
    with no estimates and no shape; a schema-2 document whose estimates
    are not one per pair, in the order of ``pairs``, does not load.
    """

    points: tuple[CtPoint, ...]
    pairs: tuple[tuple[int, int], ...]
    window_ps: float
    estimates: tuple[CtEstimate, ...] = ()
    shape: CtShape | None = None

    NOUN = "curve"

    def point(self, distance: int) -> CtPoint:
        for p in self.points:
            if p.distance == distance:
                return p
        raise KeyError(f"no curve point at distance {distance}")

    @property
    def distances(self) -> np.ndarray:
        return np.array([p.distance for p in self.points], dtype=np.int64)

    @property
    def probabilities(self) -> np.ndarray:
        return np.array([p.probability for p in self.points])

    @property
    def stderrs(self) -> np.ndarray:
        return np.array([p.stderr for p in self.points])

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "ct_curve",
            "window_ps": self.window_ps,
            "points": [
                {"distance": p.distance, "mean": p.probability,
                 "stderr": p.stderr, "n_pairs": p.n_pairs,
                 "upper_limit": p.upper_limit}
                for p in self.points
            ],
            "pairs": [list(pair) for pair in self.pairs],
            "shape": (self.shape.to_json_dict()
                      if self.shape is not None else None),
            "estimates": [e.to_json_dict() for e in self.estimates],
        }

    @classmethod
    def _decode(cls, doc: dict) -> "CtCurve":
        points = tuple(
            CtPoint(distance=as_count(p["distance"]),
                    probability=as_float(p["mean"]),
                    stderr=as_float(p["stderr"]),
                    n_pairs=as_count(p["n_pairs"]),
                    upper_limit=as_bool(p["upper_limit"]))
            for p in doc["points"])
        pairs = tuple((as_count(s), as_count(t)) for s, t in doc["pairs"])
        version = doc.get("schema_version", 1)
        if version == 1:
            estimates, shape = (), None
        elif version == 2:
            estimates = tuple(CtEstimate.from_json_dict(e)
                              for e in as_list(doc["estimates"]))
            # none (a curve without them, as schema 1 loads), or one per
            # pair in the order of the pairs
            if estimates and \
                    [(e.source, e.target) for e in estimates] != list(pairs):
                raise ValueError("estimates do not match pairs")
            shape = (CtShape.from_json_dict(doc["shape"])
                     if doc["shape"] is not None else None)
        else:
            raise ValueError(f"unknown schema_version {version!r}")
        return cls(points=points, pairs=pairs,
                   window_ps=as_float(doc["window_ps"]),
                   estimates=estimates, shape=shape)


# ---------------------------------------------------------------------------
# the estimator

def _turned(pairs) -> np.ndarray:
    """Which pairs read source -> target against their histogram's
    dt = t_b - t_a: those whose target lies below the source."""
    return np.array([target < source for source, target in pairs])


def _oriented(rows, turned) -> np.ndarray:
    """The counts ``rows`` read source -> target: turned rows reversed."""
    return np.where(turned[:, None], rows[:, ::-1], rows)


def _gauss_peaks(rows, sigma_bins: float) -> np.ndarray:
    """Per row, the bin where the counts correlate best with a Gaussian of
    ``sigma_bins``; bins outside the window count as empty."""
    n = rows.shape[1]
    half = min(math.ceil(FILTER_SIGMAS * sigma_bins), n)
    taps = np.exp(-0.5 * (np.arange(-half, half + 1) / sigma_bins) ** 2)
    size = 1 << (n + 2 * half - 1).bit_length()
    spectrum = np.fft.rfft(rows, size, axis=1) * np.fft.rfft(taps, size)
    corr = np.fft.irfft(spectrum, size, axis=1)[:, half:half + n]
    # On a fixed grid, so transform round-off cannot split equal sums.
    return np.argmax(np.round(corr, 6), axis=1)


def _pooled_shape(counts, pairs, x, bin_width_ps: float) -> CtShape:
    """The peak shape of the rows ``counts`` of ``pairs`` on the centers
    ``x``: their peaks shifted onto one bin, summed and fitted once."""
    n = len(x)
    rows = _oriented(counts, _turned(pairs))
    peaks = _box_peaks(_cumulative(rows), bin_width_ps)
    # Roll every peak onto the middle bin; the flat background wraps.
    shifted = (np.arange(n) + (peaks - n // 2)[:, None]) % n
    pooled = np.take_along_axis(rows, shifted, axis=1).sum(axis=0)
    fit = _single_peak_fits(x, pooled[None].astype(np.float64))[0]
    failed = isinstance(fit, FitError)
    if failed or not fit.significant:
        return CtShape(
            sigma_ps=FALLBACK_SIGMA_PS, offset_ps=0.0,
            chi2_dof=None if failed else fit.chi2 / fit.dof,
            n_iterations=fit.n_iterations,
            stop_reason=fit.reason if failed else fit.stop_reason,
            n_pooled=len(rows), fallback=True)
    peak = _gauss_peaks(pooled[None], fit.sigma_ps / bin_width_ps)[0]
    # The sidebands hold no net count, so the whole histogram's net count
    # is the peak's.
    _gross, bg, in_window, _var = _window_counts(
        _cumulative(pooled[None]), x, np.array([fit.center_ps]),
        np.array([fit.sigma_ps]))
    return CtShape(
        sigma_ps=fit.sigma_ps, offset_ps=fit.center_ps - float(x[peak]),
        chi2_dof=fit.chi2 / fit.dof, n_iterations=fit.n_iterations,
        stop_reason=fit.stop_reason, n_pooled=len(rows), fallback=False,
        window_share=float(in_window[0] / (pooled.sum() - bg[0] * n)))


def _estimates(cube, rows, pairs, n_sources, shape: CtShape, x,
               bin_width_ps: float) -> list[CtEstimate]:
    """Every pair's estimate against ``shape``, ``pairs[k]`` from row
    ``rows[k]`` of ``cube``: the window at its matched-filter peak, or at
    dt = 0 where that holds no significant net count (every pair, when the
    shape is a fallback).  The rows are gathered and counted in blocks of
    ``BLOCK_PAIRS``, which bounds the scratch."""
    return [estimate for k in range(0, len(pairs), BLOCK_PAIRS)
            for estimate in _block_estimates(
                cube[rows[k:k + BLOCK_PAIRS]], pairs[k:k + BLOCK_PAIRS],
                n_sources[k:k + BLOCK_PAIRS], shape, x, bin_width_ps)]


def _block_estimates(counts, pairs, n_sources, shape, x,
                     bin_width_ps) -> list[CtEstimate]:
    n = len(x)
    cum = _cumulative(counts)
    placed = np.zeros(len(counts), dtype=bool)
    centers = np.zeros(len(counts))
    if not shape.fallback:
        turned = _turned(pairs)
        peaks = _gauss_peaks(_oriented(counts, turned),
                             shape.sigma_ps / bin_width_ps)
        found = np.where(turned, x[n - 1 - peaks] - shape.offset_ps,
                         x[peaks] + shape.offset_ps)
        placed = _clears_noise(*_window_counts(
            cum, x, found, np.full(len(counts), shape.sigma_ps))[2:])
        centers = np.where(placed, found, 0.0)
    gross, bg, net, var = _window_counts(
        cum, x, centers, np.where(placed, shape.sigma_ps, FALLBACK_SIGMA_PS),
        np.where(placed, shape.window_share, 1.0))
    error = np.sqrt(_count_variance(var))
    out = []
    for k, (source, target) in enumerate(pairs):
        n_source = int(n_sources[k])
        err = float(error[k]) / n_source
        significant = bool(placed[k])
        out.append(CtEstimate(
            source=source, target=target,
            probability=float(net[k]) / n_source, error=err,
            n_source=n_source, significant=significant,
            upper_limit=None if significant else SIGNIFICANCE_SIGMAS * err,
            gross=int(gross[k]), net=float(net[k]), bg_per_bin=float(bg[k]),
            center_ps=float(centers[k]),
            placement=PLACEMENTS[0] if significant else PLACEMENTS[1]))
    return out


def ct_scan(stream: PhotonStream, rate_report: RateReport,
            d_max: int = DEFAULT_D_MAX, n_hot: int = DEFAULT_N_HOT,
            window_ps: float = DEFAULT_WINDOW_PS) -> CtCurve:
    """Probability-versus-distance curve from the strongest hot pixels.

    Takes the top ``n_hot`` hot pixels of ``rate_report`` as sources and
    pairs each with its neighbors at 1..d_max on both sides, clipped at
    the sensor edges.  Hot pixels without enough counts for a meaningful
    estimate are dropped; the scan fails only when none remain.  A delay
    calibration is applied to ``stream`` beforehand (``apply_delays``),
    if at all: each pair's peak is found where it lies.
    """
    if d_max < 1:
        raise ValueError("d_max must be at least 1")
    if n_hot < 1:
        raise ValueError("n_hot must be at least 1")
    if not rate_report.hot_pixels:
        raise DataError("rate report contains no hot pixels to scan from")

    counts = stream.counts_per_pixel()
    sources = [pixel for pixel, _rate in rate_report.hot_pixels[:n_hot]]
    usable = [p for p in sources if counts[p] >= MIN_SOURCE_COUNTS]
    if not usable:
        raise DataError(
            f"none of the {len(sources)} hot pixels reaches "
            f"{MIN_SOURCE_COUNTS} counts")

    num_pixels = stream.sensor.num_pixels
    bin_width = stream.sensor.mean_bin_width_ps
    pairs = [(h, target) for h in usable for d in range(1, d_max + 1)
             for target in (h - d, h + d) if 0 <= target < num_pixels]
    # Nearby hot pixels share pairs: a shared pair has one row of the cube.
    cube, rows = _pair_counts(stream, [(min(h, target), max(h, target))
                                       for h, target in pairs],
                              window_ps, bin_width)
    x = _grid(window_ps, bin_width, cube.shape[1])[1]
    # Every source has a nearest neighbor, the strongest partner it has.
    nearest = [k for k, (h, target) in enumerate(pairs)
               if abs(target - h) == 1]
    shape = _pooled_shape(cube[rows[nearest]], [pairs[k] for k in nearest],
                          x, bin_width)
    estimates = _estimates(cube, rows, pairs, [counts[h] for h, _ in pairs],
                           shape, x, bin_width)
    del cube

    n_placed = sum(e.significant for e in estimates)
    if shape.fallback:
        logger.warning(
            "ct_scan: the pooled fit of %d nearest-neighbor pairs found no "
            "significant peak (stop reason %s); every pair counts a "
            "+-%g ps window at dt = 0", shape.n_pooled, shape.stop_reason,
            PEAK_WINDOW_SIGMAS * FALLBACK_SIGMA_PS)
    logger.info(
        "ct_scan: %d pairs; pooled fit of %d pairs: sigma %.1f ps, offset "
        "%.1f ps, chi2/dof %s, %d iterations, stop reason %s, window "
        "share %.4f; %d matched_filter and %d null_window pairs",
        len(pairs), shape.n_pooled, shape.sigma_ps, shape.offset_ps,
        "n/a" if shape.chi2_dof is None else f"{shape.chi2_dof:.3g}",
        shape.n_iterations, shape.stop_reason, shape.window_share,
        n_placed, len(pairs) - n_placed)

    per_distance: dict[int, list[CtEstimate]] = {
        d: [] for d in range(1, d_max + 1)}
    for est in estimates:
        per_distance[est.distance].append(est)
    points = []
    for d in range(1, d_max + 1):
        ests = per_distance[d]
        if not ests:
            continue  # tiny sensor: no valid neighbor anywhere at this d
        probs = np.array([e.probability for e in ests])
        n = len(ests)
        if n > 1:
            scatter = float(np.std(probs, ddof=1)) / math.sqrt(n)
            # Never report less than the Poisson error of the mean; the
            # scatter of a handful of pairs can understate it by chance.
            floor = math.sqrt(float(np.mean([e.error**2 for e in ests])) / n)
            stderr = max(scatter, floor)
        else:
            stderr = ests[0].error
        points.append(CtPoint(
            distance=d,
            probability=float(np.clip(probs.mean(), 0.0, 1.0)),
            stderr=stderr,
            n_pairs=n,
            upper_limit=all(not e.significant for e in ests)))

    return CtCurve(points=tuple(points), pairs=tuple(pairs),
                   window_ps=float(window_ps), estimates=tuple(estimates),
                   shape=shape)
