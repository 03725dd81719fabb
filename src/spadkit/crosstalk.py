"""Cross-talk probability versus pixel separation, using hot pixels as
built-in light sources.

A hot pixel avalanches at kilohertz rates with no light at all, and every
avalanche can trigger a neighbor through optical cross-talk.  Against any
nearby pixel this produces a sharp coincidence peak, and

    P_ct = (peak counts above background) / (source counts)

estimated from a Gaussian fit: counts are summed over the fitted center
+- 3 sigma and the fitted flat level times the bin count is subtracted.
When no significant peak is found, the same integral runs over a fixed
window around dt = 0 instead of the fitted center; integrating around
the largest fluctuation of a peakless histogram would bias every null
pair positive.  Such estimates carry a 3 sigma upper limit and may be
negative, so that an ensemble of no-cross-talk pairs averages to zero.

``ct_scan`` aggregates both directions for the strongest hot pixels into
a probability-versus-distance curve, one point per pixel separation.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .coincidence import DEFAULT_WINDOW_PS, DeltaHistogram, pair_histograms
from .documents import Document, as_bool, as_count, as_float
from .errors import DataError, FitError
from .peakfit import SIGNIFICANCE_SIGMAS, fit_gaussians
from .rates import RateReport
from .timestream import PhotonStream

logger = logging.getLogger(__name__)

SCHEMA_VERSION = 1

# Sources below this many counts give probability errors worse than
# ~1e-4 absolute; refuse rather than report mush.
MIN_SOURCE_COUNTS = 10_000

# Half-width of the integration window is this many fitted sigmas.
PEAK_WINDOW_SIGMAS = 3.0

# Effective sigma for the dt = 0 window when there is no usable fit.
# Generous against TDC jitter (~40 ps rms per pixel) so a real but
# statistically weak peak is still fully covered.
FALLBACK_SIGMA_PS = 100.0

DEFAULT_D_MAX = 20
DEFAULT_N_HOT = 8


@dataclass(frozen=True)
class CtEstimate:
    """Cross-talk probability for one (source, target) pixel pair.

    ``probability`` is the background-subtracted window integral divided
    by the source counts; without a significant peak it can come out
    negative and ``upper_limit`` (3 sigma) is set.  ``stop_reason`` says
    why the peak fit stopped (``GaussianFit.stop_reason`` or
    ``FitError.reason``; "empty_histogram" when there was nothing to fit).
    """

    source: int
    target: int
    probability: float
    error: float
    n_source: int
    significant: bool
    upper_limit: float | None = None
    stop_reason: str | None = None

    @property
    def distance(self) -> int:
        return abs(self.target - self.source)


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
    average, in scan order.
    """

    points: tuple[CtPoint, ...]
    pairs: tuple[tuple[int, int], ...]
    window_ps: float

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
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "CtCurve":
        try:
            points = tuple(
                CtPoint(distance=as_count(p["distance"]),
                        probability=as_float(p["mean"]),
                        stderr=as_float(p["stderr"]),
                        n_pairs=as_count(p["n_pairs"]),
                        upper_limit=as_bool(p["upper_limit"]))
                for p in doc["points"])
            pairs = tuple((as_count(s), as_count(t)) for s, t in doc["pairs"])
            return cls(points=points, pairs=pairs,
                       window_ps=as_float(doc["window_ps"]))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DataError(f"malformed curve document: {exc}") from None


def _estimate_from_histogram(hist: DeltaHistogram, source: int, target: int,
                             n_source: int) -> CtEstimate:
    """The estimate of one pair on its own, as ``ct_scan`` makes it."""
    if n_source < MIN_SOURCE_COUNTS:
        raise DataError(
            f"source pixel {source} has {n_source} counts; "
            f"need at least {MIN_SOURCE_COUNTS}")
    fit = fit_gaussians([hist])[0] if hist.counts.any() else None
    return _estimate(hist, fit, source, target, n_source)


def _estimate(hist: DeltaHistogram, fit, source: int, target: int,
              n_source: int) -> CtEstimate:
    """The estimate from ``hist`` and its peak fit (a GaussianFit or the
    FitError that ended it), or from no fit for an empty histogram."""
    counts = hist.counts
    if fit is None:
        err = 1.0 / n_source
        return CtEstimate(source=source, target=target, probability=0.0,
                          error=err, n_source=n_source, significant=False,
                          upper_limit=SIGNIFICANCE_SIGMAS * err,
                          stop_reason="empty_histogram")

    significant = False
    mu = 0.0
    sigma = FALLBACK_SIGMA_PS
    if isinstance(fit, FitError):
        bg, reason = float(np.median(counts)), fit.reason
    else:
        bg, reason = fit.bg, fit.stop_reason
        if fit.significant:
            significant = True
            mu, sigma = fit.center_ps, fit.sigma_ps

    centers = hist.bin_centers
    sel = np.abs(centers - mu) <= PEAK_WINDOW_SIGMAS * sigma
    if not sel.any():
        sel[np.argmin(np.abs(centers - mu))] = True
    gross = int(counts[sel].sum())
    net = gross - bg * int(sel.sum())

    prob = net / n_source
    err = math.sqrt(max(gross, 1)) / n_source
    return CtEstimate(
        source=source, target=target, probability=float(prob),
        error=float(err), n_source=n_source, significant=significant,
        upper_limit=None if significant else SIGNIFICANCE_SIGMAS * err,
        stop_reason=reason)


def ct_scan(stream: PhotonStream, rate_report: RateReport,
            d_max: int = DEFAULT_D_MAX, n_hot: int = DEFAULT_N_HOT,
            window_ps: float = DEFAULT_WINDOW_PS) -> CtCurve:
    """Probability-versus-distance curve from the strongest hot pixels.

    Takes the top ``n_hot`` hot pixels of ``rate_report`` as sources and
    pairs each with its neighbors at 1..d_max on both sides, clipped at
    the sensor edges.  Hot pixels without enough counts for a meaningful
    estimate are dropped; the scan fails only when none remain.  A delay
    calibration is applied to ``stream`` beforehand (``apply_delays``).
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
    hists = pair_histograms(stream, [(min(h, target), max(h, target))
                                     for h, target in pairs],
                            window_ps, bin_width)
    # One batched fit for every histogram with counts; an empty one has
    # no peak to fit.
    has_counts = [hist.counts.any() for hist in hists]
    fits = fit_gaussians(hist for hist, full in zip(hists, has_counts)
                         if full)
    remaining = iter(fits)
    per_distance: dict[int, list[CtEstimate]] = {
        d: [] for d in range(1, d_max + 1)}
    for (h, target), hist, full in zip(pairs, hists, has_counts):
        fit = next(remaining) if full else None
        per_distance[abs(target - h)].append(
            _estimate(hist, fit, h, target, int(counts[h])))

    reasons = Counter(e.stop_reason for ests in per_distance.values()
                      for e in ests)
    # A batched run takes as many passes as its longest fit iterates.
    iterations = [fit.n_iterations for fit in fits]
    logger.info("ct_scan: %d pairs, fit stop reasons %s, %d solver "
                "iterations in %d batched passes", len(pairs),
                dict(reasons.most_common()), sum(iterations),
                max(iterations, default=0))

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
                   window_ps=float(window_ps))
