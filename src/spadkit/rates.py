"""Per-pixel count-rate statistics and time-slicing of photon streams.

The headline statistic is the median rate over all pixels: a handful of
hot pixels can sit orders of magnitude above the bulk and would dominate
a mean.  Hot pixels (rate at or above a configurable threshold, 1 kHz by
default) are reported separately, sorted by rate.

``split_subsets`` cuts a stream into contiguous spans of equal cycle
count so that slow drifts (temperature, ambient light) show up as a
trend across per-subset reports; ``compute_rates`` counts those spans in
one pass over the stream, without cutting it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError
from .timestream import PhotonStream, _pieces

SCHEMA_VERSION = 1

DEFAULT_HOT_THRESHOLD_CPS = 1000.0


@dataclass(frozen=True)
class RateReport:
    """Count rates for one stream (or one slice of it).

    ``rates_cps`` has one entry per pixel; ``hot_pixels`` lists
    ``(pixel, rate)`` for every pixel at or above ``hot_threshold_cps``,
    highest rate first.  ``subset_reports`` is only populated when the
    report was built with time slicing.
    """

    rates_cps: np.ndarray
    median_rate_cps: float
    hot_pixels: tuple[tuple[int, float], ...]
    duration_s: float
    hot_threshold_cps: float
    subset_reports: tuple[tuple[str, "RateReport"], ...] = ()

    def to_json_dict(self) -> dict:
        out = {
            "schema_version": SCHEMA_VERSION,
            "duration_s": self.duration_s,
            "hot_threshold_cps": self.hot_threshold_cps,
            "median_rate_cps": self.median_rate_cps,
            "hot_pixels": [[pix, rate] for pix, rate in self.hot_pixels],
            "rates_cps": [float(r) for r in self.rates_cps],
        }
        if self.subset_reports:
            out["subsets"] = [
                {"label": label, **report.to_json_dict()}
                for label, report in self.subset_reports
            ]
        return out


def compute_rates(stream: PhotonStream, *,
                  duration_s: float | None = None,
                  hot_threshold_cps: float = DEFAULT_HOT_THRESHOLD_CPS,
                  n_subsets: int | None = None) -> RateReport:
    """Per-pixel rates, median rate, and hot-pixel list for a stream.

    The wall duration is taken from ``duration_s`` when given, otherwise
    from the stream's cycle count times the cycle period.  With
    ``n_subsets`` the stream is split into that many equal spans and a
    sub-report attached for each; an explicit ``duration_s`` is divided
    across the spans in proportion to their cycle counts.
    """
    total_s = _resolve_duration(stream, duration_s)
    if n_subsets is None:
        return _rates_for(stream.counts_per_pixel(), total_s,
                          hot_threshold_cps)

    bounds = _span_bounds(stream.total_cycles, n_subsets)
    counts = _span_counts(stream, bounds)
    report = _rates_for(counts.sum(axis=0), total_s, hot_threshold_cps)
    n_pix = stream.sensor.num_pixels
    labeled = []
    for k in range(n_subsets):
        cycles = bounds[k + 1] - bounds[k]
        if duration_s is None:
            sub_s = replace(stream, total_cycles=cycles).duration_s
        else:
            sub_s = duration_s * cycles / stream.total_cycles
        # a span's counts end at its own largest pixel, as the bincount
        # of its records in ``counts_per_pixel`` does
        row = counts[k]
        row = row[:max(n_pix, len(np.trim_zeros(row, "b")))]
        labeled.append((f"subset {k}",
                        _rates_for(row, sub_s, hot_threshold_cps)))
    return replace(report, subset_reports=tuple(labeled))


def split_subsets(stream: PhotonStream, n: int) -> list[PhotonStream]:
    """Cut a stream into ``n`` contiguous spans of near-equal cycle count.

    Span ``k`` covers cycle indices ``[k*C//n, (k+1)*C//n)`` of the
    ``C = stream.total_cycles`` acquisition, so spans are disjoint,
    order-preserving, and differ in size by at most one cycle.  Each
    subset is re-based to start at cycle 0 and reports its own span as
    ``total_cycles``, making it a standalone stream whose duration is the
    span length.
    """
    bounds = _span_bounds(stream.total_cycles, n)
    out = []
    for k in range(n):
        lo, hi = bounds[k], bounds[k + 1]
        sub = stream.take((stream.cycle_index >= lo)
                          & (stream.cycle_index < hi))
        out.append(replace(sub, cycle_index=sub.cycle_index - np.uint64(lo),
                           total_cycles=hi - lo))
    return out


def _span_bounds(total: int, n: int) -> list[int]:
    """The ``n + 1`` cycle bounds of ``split_subsets``' spans."""
    if n <= 0:
        raise ValueError(f"subset count must be positive, got {n}")
    if n > total:
        raise DataError(
            f"cannot split {total} cycles into {n} subsets")
    return [(k * total) // n for k in range(n + 1)]


def _span_counts(stream: PhotonStream, bounds: list[int]) -> np.ndarray:
    """Per-pixel counts of the records in each span ``[bounds[k],
    bounds[k + 1])`` of cycles, and of those from the last bound on: a row
    each, a column per pixel up to the largest.

    Counted piece by piece, in any cycle order: a piece whose cycles lie
    in one span adds its pixels' ``bincount`` to that span's row; any
    other finds each record's span from its cycle and counts span x
    pixel."""
    width = max(stream.sensor.num_pixels, int(stream.pixel.max(initial=0)) + 1)
    ends = np.array(bounds[1:], dtype=np.uint64)
    counts = np.zeros((len(bounds), width), dtype=np.intp)
    for lo, hi in _pieces(stream.n_records):
        cyc = stream.cycle_index[lo:hi].astype(np.uint64, copy=False)
        pix = stream.pixel[lo:hi]
        first, last = np.searchsorted(ends, [cyc.min(), cyc.max()],
                                      side="right")
        if first == last:
            counts[first] += np.bincount(pix, minlength=width)
            continue
        span = np.searchsorted(ends, cyc, side="right")
        span *= width
        span += pix
        counts += np.bincount(span, minlength=counts.size).reshape(
            counts.shape)
    return counts


def _resolve_duration(stream: PhotonStream, duration_s: float | None) -> float:
    if duration_s is None:
        duration_s = stream.duration_s
        if duration_s <= 0:
            raise DataError(
                "stream carries no cycles; pass an explicit duration_s")
    elif duration_s <= 0:
        raise DataError(f"duration must be positive, got {duration_s}")
    return float(duration_s)


def _rates_for(counts: np.ndarray, duration_s: float,
               hot_threshold_cps: float) -> RateReport:
    rates = counts / duration_s
    hot_idx = np.flatnonzero(rates >= hot_threshold_cps)
    hot = sorted(((int(p), float(rates[p])) for p in hot_idx),
                 key=lambda pr: (-pr[1], pr[0]))
    return RateReport(
        rates_cps=rates,
        median_rate_cps=float(_median(rates)),
        hot_pixels=tuple(hot),
        duration_s=duration_s,
        hot_threshold_cps=float(hot_threshold_cps),
    )


def _median(values: np.ndarray):
    """``np.median(values, axis=-1)`` bit for bit, for non-empty rows (a
    1-D array is one row).

    ``np.median`` checks float input for NaN through a helper that imports
    ``numpy.ma``, 5 to 7 ms on a process's first call.  This is its
    partition and mean, with the NaN test made directly: the partition puts
    a NaN last, and then the median is that NaN.
    """
    n = values.shape[-1]
    half = n // 2
    part = np.partition(values, [half - 1, half, -1], axis=-1)
    last = part[..., -1]
    mean = np.mean(part[..., half - 1 + n % 2:half + 1], axis=-1)
    return np.where(np.isnan(last), last, mean)[()]
