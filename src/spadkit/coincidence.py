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

One body counts every pair: ``_pair_counts`` fills an ``(n_unique_pairs,
n_bins)`` count cube for a whole scan in one pass, on the one grid of
``_grid``.  The calibrations take that cube as it is; ``pair_histograms``
wraps it into histograms, and ``build_histogram`` is a one-pair call.  The
pass walks the stream in chunks of about ``_RECORD_CHUNK`` records cut at
cycle boundaries, so counts add exactly across chunks.  It relies on the
stream's order: records sorted by (cycle, time), as every reader,
simulator and correction leaves them.  So in pass k = 1, 2, ... record i
meets record i + k, and a record leaves the walk once i + k is in another
cycle or more than a window later, since every later partner is further
away.  Only the records of requested pixels start a walk, and a surviving
pair whose pixels form a requested pair adds its dt to that pair's row of
the cube.  A chunk is walked in place, unless it holds fewer requested
records than records that share their cycle with the next one: then the
walk runs on a copy of its requested records (``_count_chunk``).  A stream
with any record out of (cycle, time) order, requested or not (a NaN time
included), raises ``DataError`` instead of losing pairs: the check covers
every record, so which streams pass depends neither on where the chunks
are cut nor on the pairs asked.

The cost is a few passes over every record (the order check, the pixel
lookup, the gap to the next record), plus the in-window pairs that start
at a requested record.  A flood of sparse cycles walks a few passes, one
dense pair a handful more.  A scan over a stream of thousands of records
per cycle walks every in-window pair of them (3.07M records in cycles of
about 3,100, a whole-sensor adjacent scan: 58.8M pairs, about a second on
a 2-vCPU VM).  Memory beyond the cube is a few arrays of one chunk's
length, whatever the stream's length: under six times one chunk's record
columns where every record pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .documents import Document, as_count, as_float, as_list
from .errors import DataError
from .timestream import PhotonStream, SensorConfig

DEFAULT_WINDOW_PS = 25_000.0

SCHEMA_VERSION = 1

# Stream records walked per chunk of a pair count; chunks end on cycle
# boundaries, so counts add exactly across chunks.  Chunks of 2^18 left
# flood's heap fragmented enough to raise its peak RSS by 7 %.
_RECORD_CHUNK = 1 << 16
_UNORDERED = "stream records are not in (cycle, time) order"
# Most bins a pair histogram may have: 2^24 bins of 1 ps still span a
# whole 4 us cycle.  A --window over --bin ratio beyond it is refused
# before the count cube is allocated.
MAX_BINS = 1 << 24


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

    NOUN = "histogram"

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
        return _grid(self.window_ps, self.bin_width_ps, len(self.counts))[0]

    @property
    def bin_centers(self) -> np.ndarray:
        return _grid(self.window_ps, self.bin_width_ps, len(self.counts))[1]

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
    def _decode(cls, doc: dict) -> "DeltaHistogram":
        counts = np.array([as_count(c) for c in as_list(doc["counts"])],
                          dtype=np.int64)
        normalized = median = None
        if doc.get("normalized") is not None:
            # the fit weights and scales by these: a list as long as the
            # counts, and the median of the counts, so at most the largest
            normalized = np.array([as_float(v) for v in
                                   as_list(doc["normalized"])],
                                  dtype=np.float64)
            if len(normalized) != len(counts):
                raise ValueError(f"{len(normalized)} normalized values "
                                 f"for {len(counts)} counts")
            median = as_float(doc["median_count"])
            if not 0 < median <= counts.max(initial=0):
                raise ValueError(f"median_count {median} is not in "
                                 "(0, largest count]")
        return cls(
            pixel_a=as_count(doc["pixel_a"]),
            pixel_b=as_count(doc["pixel_b"]),
            window_ps=as_float(doc["window_ps"]),
            bin_width_ps=as_float(doc["bin_width_ps"]),
            counts=counts,
            total_pairs=as_count(doc["total_pairs"]),
            normalized=normalized,
            median_count=median,
        )


def n_bins(window_ps: float, bin_width_ps: float) -> int:
    return int(np.ceil(2.0 * window_ps / bin_width_ps))


def _grid(window_ps, bin_width_ps, n) -> tuple[np.ndarray, np.ndarray]:
    """(edges, centers) of ``n`` bins of ``bin_width_ps`` from -window."""
    edges = -window_ps + bin_width_ps * np.arange(n + 1)
    return edges, 0.5 * (edges[:-1] + edges[1:])


def default_bin_width_ps(source: PhotonStream | PixelIndex) -> float:
    """Three mean TDC bins of ``source.sensor``: fine enough for ~100 ps
    peaks, coarse enough to keep background bins populated."""
    return 3.0 * source.sensor.mean_bin_width_ps


def pair_histograms(stream: PhotonStream, pairs,
                    window_ps: float = DEFAULT_WINDOW_PS,
                    bin_width_ps: float | None = None) -> list[DeltaHistogram]:
    """One histogram per pair of ``pairs``, all counted in one pass.

    Each histogram has the contract of ``build_histogram``.  The counts
    sit in one ``(n_unique_pairs, n_bins)`` array (``_pair_counts``); a
    pair requested twice gets two histograms over the same row.
    """
    if bin_width_ps is None:
        bin_width_ps = default_bin_width_ps(stream)
    pairs = list(pairs)
    cube, rows = _pair_counts(stream, pairs, window_ps, bin_width_ps)
    return [DeltaHistogram(pixel_a=a, pixel_b=b, window_ps=float(window_ps),
                           bin_width_ps=float(bin_width_ps),
                           counts=cube[row], total_pairs=int(cube[row].sum()))
            for (a, b), row in zip(pairs, rows)]


def _pair_counts(stream: PhotonStream, pairs, window_ps: float,
                 bin_width_ps: float) -> tuple[np.ndarray, np.ndarray]:
    """The counts of the ordered pixel pairs ``pairs`` in one pass (the
    module docstring gives the walk): an ``(n_unique_pairs, n_bins)`` cube
    over +- ``window_ps`` in bins of ``bin_width_ps``, its rows in the
    ascending order of the distinct pairs, and per pair its row.  A grid of
    more than ``MAX_BINS`` bins raises ``DataError`` before anything is
    allocated."""
    n_pix = stream.sensor.num_pixels
    for pair in pairs:
        a, b = pair
        if a == b:
            raise ValueError("pair pixels must differ")
        if a > b:
            raise ValueError("pair must be ordered pixel_a < pixel_b")
        if not (0 <= a < n_pix and 0 <= b < n_pix):
            raise ValueError(f"pair {pair} outside 0..{n_pix - 1}")
    if window_ps <= 0 or bin_width_ps <= 0:
        raise ValueError("window and bin width must be positive")
    if not 2.0 * window_ps / bin_width_ps <= MAX_BINS:
        raise DataError(f"a +-{window_ps:g} ps window in {bin_width_ps:g} ps "
                        f"bins needs over {MAX_BINS} bins")

    codes = np.array([int(a) * n_pix + int(b) for a, b in pairs],
                     dtype=np.int64)
    codes, rows = np.unique(codes, return_inverse=True)
    cube = np.zeros((len(codes), n_bins(window_ps, bin_width_ps)),
                    dtype=np.int64)
    if not len(codes):
        return cube, rows.reshape(-1)
    lows, highs = np.divmod(codes, n_pix)
    top = int(stream.pixel.max(initial=0))
    wanted = np.zeros(max(n_pix, top + 1), bool)
    wanted[lows] = wanted[highs] = True
    if wanted[:top + 1].all():
        wanted = None  # pairs over every pixel up to the largest
    # row_at[base[low] + high - low] is the row of pair (low, high), or -1:
    # one line per low pixel and one column per distance up to the largest
    # is a table lookup instead of a search per candidate.  Pixels that
    # are no pair's low pixel read the last, empty line, and a last column
    # of -1 takes every distance beyond the largest.
    low_pixels, low_rank = np.unique(lows, return_inverse=True)
    width = int((highs - lows).max()) + 2
    base = np.full(n_pix, len(low_pixels) * width, dtype=np.intp)
    base[low_pixels] = np.arange(len(low_pixels)) * width
    row_at = np.full((len(low_pixels) + 1) * width, -1, dtype=np.intp)
    row_at[low_rank.reshape(-1) * width + highs - lows] = np.arange(
        len(codes))
    lookup = (base, row_at, width - 1)
    cycles = stream.cycle_index
    n = len(cycles)
    start = 0
    while start < n:
        stop = start + _RECORD_CHUNK
        if stop < n:
            # back to where the cycle of record ``stop`` begins; searched
            # within the chunk, so an unordered stream still moves on
            back = int(np.searchsorted(cycles[start:stop], cycles[stop]))
            stop = start + back if back else start + int(np.searchsorted(
                cycles[start:], cycles[start], side="right"))
        chunk = slice(start, stop)
        _count_chunk(cycles[chunk], stream.time_ps[chunk],
                     stream.pixel[chunk], wanted, lookup, cube, window_ps,
                     bin_width_ps)
        start = stop
    return cube, rows.reshape(-1)


def _count_chunk(cyc, t, pix, wanted, lookup, cube, window_ps,
                 bin_width_ps) -> None:
    """``_pair_counts`` on one chunk of whole cycles; ``wanted[p]`` is
    whether pixel ``p`` is in a requested pair, or None for every pixel.

    The order check covers every record of the chunk.  A chunk with fewer
    requested records than records that share their cycle with the next
    one has dense cycles of which the pairs want a part (one pair of a
    TDC stream of 3,100 records per cycle): there a walk over a copy of
    the requested records costs less than meeting every unrequested
    partner.  Any other chunk is walked in place, where a partner of an
    unrequested pixel falls out at ``_add_pairs``' lookup: a copy would
    cost more than the walk saves.
    """
    same = cyc[1:] == cyc[:-1]
    rising = t[1:] >= t[:-1]
    if not (cyc[1:] >= cyc[:-1]).all() or (same & ~rising).any():
        raise DataError(_UNORDERED)
    if wanted is not None:
        # every pixel indexes ``wanted``; "clip" skips take's bounds
        # check, which costs as much as the gather
        keep = np.take(wanted, pix, mode="clip")
        if np.count_nonzero(keep) < np.count_nonzero(same):
            kept = np.flatnonzero(keep)
            cyc, t, pix = cyc[kept], t[kept], pix[kept]
            same = cyc[1:] == cyc[:-1]
        else:
            same &= keep[:-1]
    _walk(cyc, t, pix, same, lookup, cube, window_ps, bin_width_ps)


def _walk(cyc, t, pix, starts, lookup, cube, window_ps,
          bin_width_ps) -> None:
    """Count the pairs of records in (cycle, time) order that start at a
    record i with ``starts[i]`` set, which only a record sharing its cycle
    with record i + 1 may have.

    In pass k record i meets record i + k.  A record leaves the walk once
    i + k is in another cycle or more than a window later, because every
    later record is further away."""
    gap = t[1:] - t[:-1]
    # integer gathers: a boolean index of a float column costs several
    # times as much
    i = np.flatnonzero(starts & (gap <= window_ps))
    gap = gap[i]
    k = 1
    while len(i):
        _add_pairs(pix[i], pix[i + k], gap, lookup, cube, window_ps,
                   bin_width_ps)
        k += 1
        i = i[:np.searchsorted(i, len(t) - k)]
        j = i + k
        gap = t[j]
        gap -= t[i]
        near = np.flatnonzero((cyc[j] == cyc[i]) & (gap <= window_ps))
        i, gap = i[near], gap[near]


def _add_pairs(p_i, p_j, gap, lookup, cube, window_ps, bin_width_ps):
    """Add the record pairs of pixels ``p_i``, ``p_j`` that form a pair
    of ``cube`` to its row: ``gap`` is t_j - t_i, in the window, and
    ``lookup`` is (base, row_at, its last column) of ``_pair_counts``."""
    base, row_at, far = lookup
    d = np.subtract(p_j, p_i, dtype=np.intp)
    np.abs(d, out=d)
    np.minimum(d, far, out=d)
    d += base[np.minimum(p_i, p_j)]
    row = np.take(row_at, d, out=d)
    hit = np.flatnonzero(row >= 0)
    # dt = t_high - t_low: where the lower pixel comes second, the exact
    # negation of t_j - t_i
    dt = gap[hit]
    np.negative(dt, out=dt, where=p_i[hit] > p_j[hit])
    dt += window_ps
    dt /= bin_width_ps
    nb = cube.shape[1]
    idx = dt.astype(np.int64)
    np.minimum(idx, nb - 1, out=idx)  # dt == +window: the last bin
    row = row[hit]
    row *= nb
    idx += row
    # Unlike a bincount, this allocates nothing the size of the cube,
    # which fragmented the heap as much as larger chunks did.
    np.add.at(cube.reshape(-1), idx, 1)


def build_histogram(stream: PhotonStream, pair: tuple[int, int],
                    window_ps: float = DEFAULT_WINDOW_PS,
                    bin_width_ps: float | None = None) -> DeltaHistogram:
    """Histogram dt = t_b - t_a over all same-cycle cross pairs."""
    return pair_histograms(stream, [pair], window_ps, bin_width_ps)[0]


class PixelIndex:
    """Handle on a stream that serves pair histograms and per-pixel
    records; ``histogram`` is a one-pair ``pair_histograms``."""

    def __init__(self, stream: PhotonStream):
        self.sensor = stream.sensor
        self._stream = stream

    @classmethod
    def from_stream(cls, stream: PhotonStream) -> "PixelIndex":
        return cls(stream)

    @property
    def counts_per_pixel(self) -> np.ndarray:
        return self._stream.counts_per_pixel()

    def records_for(self, pixel: int) -> tuple[np.ndarray, np.ndarray]:
        """(cycle_index, time_ps) of one pixel's records, cycle-sorted."""
        if not (0 <= pixel < self.sensor.num_pixels):
            raise ValueError(f"pixel {pixel} outside sensor")
        mask = self._stream.pixel == pixel
        return self._stream.cycle_index[mask], self._stream.time_ps[mask]

    def histogram(self, pair: tuple[int, int],
                  window_ps: float = DEFAULT_WINDOW_PS,
                  bin_width_ps: float | None = None) -> DeltaHistogram:
        """Same contract as ``build_histogram``."""
        return pair_histograms(self._stream, [pair], window_ps,
                               bin_width_ps)[0]


def normalize_histogram(hist: DeltaHistogram) -> DeltaHistogram:
    """Divide by the median bin count so flat background sits at 1."""
    if not hist.counts.any():
        raise DataError("cannot normalize an all-zero histogram")
    median = float(np.median(hist.counts))
    if median <= 0:
        raise DataError(
            "median bin count is zero; too few coincidences to normalize")
    return replace(hist, normalized=hist.counts / median, median_count=median)
