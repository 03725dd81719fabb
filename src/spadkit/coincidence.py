"""Time-difference coincidence histograms between two pixels.

For an ordered pixel pair (a, b) with a < b, every cross pair of records
inside the same acquisition cycle contributes one time difference

    dt = time_b - time_a

and differences with |dt| <= window land in a fixed-width histogram.
Pairs never span cycle boundaries.  A delay calibration is applied to
the stream beforehand (``offsets.apply_delays``).  Normalizing by the
median bin count turns the histogram into a correlation estimate whose
background sits at 1 and whose peaks read directly as contrast above
background.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .documents import Document, as_count, as_float, as_list
from .errors import DataError
from .timestream import PhotonStream, SensorConfig

DEFAULT_WINDOW_PS = 25_000.0

SCHEMA_VERSION = 1

# Keep any single pairing expansion below ~64M entries.
_PAIR_CHUNK = 1 << 26


@dataclass(frozen=True)
class DeltaHistogram(Document):
    """Coincidence histogram for one ordered pixel pair.

    ``counts[i]`` covers dt in [edge_i, edge_{i+1}); the final bin also
    accepts dt == +window.  ``normalized`` and ``median_count`` are set by
    ``normalize_histogram``.
    """

    pixel_a: int
    pixel_b: int
    window_ps: float
    bin_width_ps: float
    counts: np.ndarray
    total_pairs: int
    normalized: np.ndarray | None = None
    median_count: float | None = None

    def __post_init__(self):
        if self.pixel_a >= self.pixel_b:
            raise ValueError("pair must be ordered pixel_a < pixel_b")
        if self.window_ps <= 0 or self.bin_width_ps <= 0:
            raise ValueError("window and bin width must be positive")
        n = n_bins(self.window_ps, self.bin_width_ps)
        if len(self.counts) != n:
            raise ValueError(f"expected {n} bins, got {len(self.counts)}")

    @property
    def bin_edges(self) -> np.ndarray:
        n = len(self.counts)
        return -self.window_ps + self.bin_width_ps * np.arange(n + 1)

    @property
    def bin_centers(self) -> np.ndarray:
        edges = self.bin_edges
        return 0.5 * (edges[:-1] + edges[1:])

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "kind": "delta_histogram",
            "pixel_a": self.pixel_a,
            "pixel_b": self.pixel_b,
            "window_ps": self.window_ps,
            "bin_width_ps": self.bin_width_ps,
            "total_pairs": self.total_pairs,
            "counts": self.counts.tolist(),
        }
        if self.normalized is not None:
            doc["normalized"] = self.normalized.tolist()
            doc["median_count"] = self.median_count
        return doc

    @classmethod
    def from_json_dict(cls, doc: dict) -> "DeltaHistogram":
        try:
            normalized = doc.get("normalized")
            return cls(
                pixel_a=as_count(doc["pixel_a"]),
                pixel_b=as_count(doc["pixel_b"]),
                window_ps=as_float(doc["window_ps"]),
                bin_width_ps=as_float(doc["bin_width_ps"]),
                counts=np.array([as_count(c) for c in as_list(doc["counts"])],
                                dtype=np.int64),
                total_pairs=as_count(doc["total_pairs"]),
                normalized=(np.asarray(normalized, dtype=np.float64)
                            if normalized is not None else None),
                median_count=(as_float(doc["median_count"])
                              if normalized is not None else None),
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DataError(f"malformed histogram document: {exc}") from None


def n_bins(window_ps: float, bin_width_ps: float) -> int:
    return int(np.ceil(2.0 * window_ps / bin_width_ps))


def default_bin_width_ps(source: PhotonStream | PixelIndex) -> float:
    """Three mean TDC bins of ``source.sensor``: fine enough for ~100 ps
    peaks, coarse enough to keep background bins populated."""
    return 3.0 * source.sensor.mean_bin_width_ps


def _pair_counts(cyc_a, t_a, cyc_b, t_b, window_ps, bin_width_ps):
    """Bin dt = t_b - t_a over same-cycle cross pairs.

    Both record sets must be sorted by cycle.  Returns (counts, total
    pairs inside the window).  The walk runs over the smaller set, whose
    cycles are searched in the larger one, so a hot pixel paired with a
    sparse neighbour costs about the neighbour's record count; the counts
    do not depend on which side is walked.
    """
    nb = n_bins(window_ps, bin_width_ps)
    counts = np.zeros(nb, dtype=np.int64)
    total = 0
    swap = len(cyc_b) < len(cyc_a)
    walk, other = (cyc_b, cyc_a) if swap else (cyc_a, cyc_b)
    if len(walk) and len(other):
        lo = np.searchsorted(other, walk, side="left")
        hi = np.searchsorted(other, walk, side="right")
        reps = hi - lo
        # Expand in bounded chunks so a pathological stream cannot blow
        # up memory; each chunk is a contiguous run of walked records.
        csum = np.concatenate(([0], np.cumsum(reps)))
        start = 0
        while start < len(walk):
            stop = int(np.searchsorted(csum, csum[start] + _PAIR_CHUNK,
                                       side="right")) - 1
            stop = max(stop, start + 1)
            stop = min(stop, len(walk))
            r = reps[start:stop]
            n_pairs = int(r.sum())
            if n_pairs:
                walk_idx = np.repeat(np.arange(start, stop), r)
                offsets = np.arange(n_pairs) - np.repeat(
                    csum[start:stop] - csum[start], r)
                other_idx = np.repeat(lo[start:stop], r) + offsets
                a_idx, b_idx = (other_idx, walk_idx) if swap \
                    else (walk_idx, other_idx)
                dt = t_b[b_idx] - t_a[a_idx]
                inside = np.abs(dt) <= window_ps
                if inside.any():
                    idx = ((dt[inside] + window_ps) / bin_width_ps).astype(np.int64)
                    np.clip(idx, 0, nb - 1, out=idx)  # dt == +window lands in last bin
                    counts += np.bincount(idx, minlength=nb)
                    total += int(inside.sum())
            start = stop
    return counts, total


def _histogram(source, records_for, pair: tuple[int, int], window_ps: float,
               bin_width_ps: float | None) -> DeltaHistogram:
    """Body of ``build_histogram`` and ``PixelIndex.histogram``, which
    differ only in ``source`` (the stream or the index; both carry the
    sensor) and ``records_for(pixel)``: that pixel's cycle-sorted
    (cycle_index, time_ps)."""
    sensor = source.sensor
    a, b = pair
    if a == b:
        raise ValueError("pair pixels must differ")
    if a > b:
        raise ValueError("pair must be ordered pixel_a < pixel_b")
    if not (0 <= a < sensor.num_pixels and 0 <= b < sensor.num_pixels):
        raise ValueError(f"pair {pair} outside 0..{sensor.num_pixels - 1}")
    if bin_width_ps is None:
        bin_width_ps = default_bin_width_ps(source)
    if window_ps <= 0 or bin_width_ps <= 0:
        raise ValueError("window and bin width must be positive")

    cyc_a, t_a = records_for(a)
    cyc_b, t_b = records_for(b)
    counts, total = _pair_counts(cyc_a, t_a, cyc_b, t_b, window_ps,
                                 bin_width_ps)
    return DeltaHistogram(pixel_a=a, pixel_b=b, window_ps=float(window_ps),
                          bin_width_ps=float(bin_width_ps), counts=counts,
                          total_pairs=total)


def build_histogram(stream: PhotonStream, pair: tuple[int, int],
                    window_ps: float = DEFAULT_WINDOW_PS,
                    bin_width_ps: float | None = None) -> DeltaHistogram:
    """Histogram dt = t_b - t_a over all same-cycle cross pairs."""
    def records_for(pixel):
        # Stream order is cycle-major, so the masked records stay sorted
        # by cycle.
        mask = stream.pixel == pixel
        return stream.cycle_index[mask], stream.time_ps[mask]

    return _histogram(stream, records_for, pair, window_ps, bin_width_ps)


class PixelIndex:
    """Per-pixel view of a stream for building many pair histograms.

    Groups the records by pixel once (a stable sort, so each slice keeps
    the stream's cycle order) and then serves individual pairs without
    rescanning the full stream.  A crosstalk scan touches hundreds of
    pairs; against the index each costs only the pairing itself.
    """

    def __init__(self, sensor: SensorConfig, cycles: np.ndarray,
                 times: np.ndarray, bounds: np.ndarray):
        self.sensor = sensor
        self._cycles = cycles
        self._times = times
        self._bounds = bounds

    @classmethod
    def from_stream(cls, stream: PhotonStream) -> "PixelIndex":
        order = np.argsort(stream.pixel, kind="stable")
        pixels = stream.pixel[order]
        bounds = np.searchsorted(
            pixels, np.arange(stream.sensor.num_pixels + 1))
        return cls(stream.sensor, stream.cycle_index[order],
                   stream.time_ps[order], bounds)

    @property
    def counts_per_pixel(self) -> np.ndarray:
        return np.diff(self._bounds)

    def records_for(self, pixel: int) -> tuple[np.ndarray, np.ndarray]:
        """(cycle_index, time_ps) slices for one pixel, cycle-sorted."""
        if not (0 <= pixel < self.sensor.num_pixels):
            raise ValueError(f"pixel {pixel} outside sensor")
        lo, hi = self._bounds[pixel], self._bounds[pixel + 1]
        return self._cycles[lo:hi], self._times[lo:hi]

    def histogram(self, pair: tuple[int, int],
                  window_ps: float = DEFAULT_WINDOW_PS,
                  bin_width_ps: float | None = None) -> DeltaHistogram:
        """Same contract as ``build_histogram``, served from the index."""
        return _histogram(self, self.records_for, pair, window_ps,
                          bin_width_ps)


def normalize_histogram(hist: DeltaHistogram) -> DeltaHistogram:
    """Divide by the median bin count so flat background sits at 1."""
    if not hist.counts.any():
        raise DataError("cannot normalize an all-zero histogram")
    median = float(np.median(hist.counts))
    if median <= 0:
        raise DataError(
            "median bin count is zero; too few coincidences to normalize")
    return replace(hist, normalized=hist.counts / median, median_count=median)
