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

One body counts every pair histogram: ``pair_histograms`` fills an
``(n_unique_pairs, n_bins)`` count cube for a whole scan in one pass, and
``build_histogram`` is a one-pair call.  The pass walks the stream in
chunks of about ``_RECORD_CHUNK`` records cut at cycle boundaries, so
counts add exactly across chunks.  In each chunk the records of the
requested pixels are grouped by a (dense cycle id, pixel) key, partner
groups up to the largest pair distance are found among the next keys,
and their record pairs are added to the cube in blocks of at most
``_PAIR_CHUNK`` pairs.  Memory stays bounded by the cube, one chunk and
one block, whatever the stream's length.
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
# Stream records walked per chunk of a pair count; chunks end on cycle
# boundaries, so counts add exactly across chunks.  Chunks of 2^18 left
# flood's heap fragmented enough to raise its peak RSS by 7 %.
_RECORD_CHUNK = 1 << 16
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
            counts = np.array([as_count(c) for c in as_list(doc["counts"])],
                              dtype=np.int64)
            normalized = median = None
            if doc.get("normalized") is not None:
                # the fit weights and scales by these: a list as long as
                # the counts, and a positive median
                normalized = np.array([as_float(v) for v in
                                       as_list(doc["normalized"])],
                                      dtype=np.float64)
                if len(normalized) != len(counts):
                    raise ValueError(f"{len(normalized)} normalized values "
                                     f"for {len(counts)} counts")
                median = as_float(doc["median_count"])
                if median <= 0:
                    raise ValueError(f"median_count {median} is not positive")
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
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DataError(f"malformed histogram document: {exc}") from None


def n_bins(window_ps: float, bin_width_ps: float) -> int:
    return int(np.ceil(2.0 * window_ps / bin_width_ps))


def default_bin_width_ps(source: PhotonStream | PixelIndex) -> float:
    """Three mean TDC bins of ``source.sensor``: fine enough for ~100 ps
    peaks, coarse enough to keep background bins populated."""
    return 3.0 * source.sensor.mean_bin_width_ps


def pair_histograms(stream: PhotonStream, pairs,
                    window_ps: float = DEFAULT_WINDOW_PS,
                    bin_width_ps: float | None = None) -> list[DeltaHistogram]:
    """One histogram per pair of ``pairs``, all counted in one pass.

    Each histogram has the contract of ``build_histogram``.  The counts
    sit in one ``(n_unique_pairs, n_bins)`` array; a pair requested twice
    gets two histograms over the same row.  A grid of more than
    ``MAX_BINS`` bins raises ``DataError`` before anything is allocated.
    """
    sensor = stream.sensor
    pairs = list(pairs)
    for pair in pairs:
        a, b = pair
        if a == b:
            raise ValueError("pair pixels must differ")
        if a > b:
            raise ValueError("pair must be ordered pixel_a < pixel_b")
        if not (0 <= a < sensor.num_pixels and 0 <= b < sensor.num_pixels):
            raise ValueError(f"pair {pair} outside 0..{sensor.num_pixels - 1}")
    if bin_width_ps is None:
        bin_width_ps = default_bin_width_ps(stream)
    if window_ps <= 0 or bin_width_ps <= 0:
        raise ValueError("window and bin width must be positive")
    if not 2.0 * window_ps / bin_width_ps <= MAX_BINS:
        raise DataError(f"a +-{window_ps:g} ps window in {bin_width_ps:g} ps "
                        f"bins needs over {MAX_BINS} bins")

    codes = np.array([int(a) * sensor.num_pixels + int(b) for a, b in pairs],
                     dtype=np.int64)
    codes, rows = np.unique(codes, return_inverse=True)
    cube = np.zeros((len(codes), n_bins(window_ps, bin_width_ps)),
                    dtype=np.int64)
    if len(codes):
        _count_pairs(stream, codes, cube, window_ps, bin_width_ps)
    return [DeltaHistogram(pixel_a=a, pixel_b=b, window_ps=float(window_ps),
                           bin_width_ps=float(bin_width_ps),
                           counts=cube[row], total_pairs=int(cube[row].sum()))
            for (a, b), row in zip(pairs, rows.reshape(-1))]


def _count_pairs(stream, codes, cube, window_ps, bin_width_ps) -> None:
    """Add each same-cycle record pair of the pixel pairs ``codes`` (sorted
    ``a * P + b``) with |dt| <= window to its row of ``cube``.

    The stream is walked in chunks of about ``_RECORD_CHUNK`` records cut
    at cycle boundaries (a cycle larger than that is one chunk), so counts
    add exactly across chunks and memory beyond the cube stays bounded by
    one chunk plus ``_PAIR_CHUNK`` expanded pairs.
    """
    n_pix = stream.sensor.num_pixels
    lows, highs = np.divmod(codes, n_pix)
    wanted = np.zeros(max(n_pix, int(stream.pixel.max(initial=0)) + 1), bool)
    wanted[lows] = wanted[highs] = True
    # row_at[rank[low], high - low] is the row of pair (low, high), or -1;
    # pixels that are no pair's low pixel rank on the last, empty line.
    # One line per low pixel and one column per distance up to the
    # largest: a table lookup instead of a search per candidate.
    low_pixels, low_rank = np.unique(lows, return_inverse=True)
    rank = np.full(n_pix, len(low_pixels))
    rank[low_pixels] = np.arange(len(low_pixels))
    row_at = np.full((len(low_pixels) + 1, int((highs - lows).max()) + 1), -1)
    row_at[low_rank.reshape(-1), highs - lows] = np.arange(len(codes))
    cycles = stream.cycle_index
    start = 0
    while start < len(cycles):
        stop = start + _RECORD_CHUNK
        if stop < len(cycles):
            stop = int(np.searchsorted(cycles, cycles[stop], side="left"))
            if stop <= start:
                stop = int(np.searchsorted(cycles, cycles[start],
                                           side="right"))
        chunk = slice(start, stop)
        keep = wanted[stream.pixel[chunk]]
        cyc, t, pix = (stream.cycle_index[chunk], stream.time_ps[chunk],
                       stream.pixel[chunk])
        if not keep.all():
            cyc, t, pix = cyc[keep], t[keep], pix[keep]
        if len(cyc):
            _count_chunk(cyc, t, pix, rank, row_at, cube, window_ps,
                         bin_width_ps)
        start = stop


def _count_chunk(cyc, t, pix, rank, row_at, cube, window_ps,
                 bin_width_ps) -> None:
    """``_count_pairs`` on one chunk of whole cycles, sorted by cycle."""
    # Only records that share their cycle can pair.
    first = np.empty(len(cyc) + 1, dtype=bool)
    first[0] = first[-1] = True
    np.not_equal(cyc[1:], cyc[:-1], out=first[1:-1])
    shared = np.flatnonzero(~(first[:-1] & first[1:]))
    if not len(shared):
        return
    # Group by (cycle, pixel) with one key: a dense cycle id cannot
    # overflow, and with a stride of 2P keys of different cycles lie more
    # than P - 1 apart, so only keys of one cycle are a pair distance apart.
    stride = 2 * len(rank)
    key = np.cumsum(first[shared], dtype=np.int64)
    key *= stride
    key += pix[shared]
    order = np.argsort(key, kind="stable")
    key = key[order]
    order = shared[order]  # sorted position -> record of the chunk
    new_run = np.empty(len(key), dtype=bool)
    new_run[0] = True
    np.not_equal(key[1:], key[:-1], out=new_run[1:])
    run_start = np.flatnonzero(new_run)
    run_key = key[run_start]
    run_start = np.append(run_start, len(key))

    # Partner runs j = 1, 2, ... ahead: keys increase along the runs, so a
    # run whose gap exceeds the largest pair distance at j does so beyond.
    d_max = row_at.shape[1] - 1
    lows, highs, rows = [], [], []
    cand = np.flatnonzero(np.diff(run_key) <= d_max)
    j = 1
    while len(cand):
        row = row_at[rank[run_key[cand] % stride],
                     run_key[cand + j] - run_key[cand]]
        hit = row >= 0
        lows.append(cand[hit])
        highs.append(cand[hit] + j)
        rows.append(row[hit])
        j += 1
        cand = cand[cand + j < len(run_key)]
        cand = cand[run_key[cand + j] - run_key[cand] <= d_max]
    if not lows:
        return
    low, high = np.concatenate(lows), np.concatenate(highs)
    len_low = run_start[low + 1] - run_start[low]
    len_high = run_start[high + 1] - run_start[high]

    # One unit per record of the lower pixel's run; its partners are the
    # whole higher run.  Expand units in blocks of at most _PAIR_CHUNK
    # record pairs (one unit may exceed it alone).
    unit_a = _ranges(run_start[low], len_low)
    unit_b = np.repeat(run_start[high], len_low)
    unit_len = np.repeat(len_high, len_low)
    unit_row = np.repeat(np.concatenate(rows), len_low)
    nb = cube.shape[1]
    flat = cube.reshape(-1)
    csum = np.concatenate(([0], np.cumsum(unit_len)))
    begin = 0
    while begin < len(unit_a):
        end = int(np.searchsorted(csum, csum[begin] + _PAIR_CHUNK,
                                  side="right")) - 1
        block = slice(begin, min(max(end, begin + 1), len(unit_a)))
        n = unit_len[block]
        a_idx = order[np.repeat(unit_a[block], n)]
        b_idx = order[_ranges(unit_b[block], n)]
        dt = t[b_idx] - t[a_idx]
        inside = np.abs(dt) <= window_ps
        idx = ((dt[inside] + window_ps) / bin_width_ps).astype(np.int64)
        np.clip(idx, 0, nb - 1, out=idx)  # dt == +window lands in last bin
        idx += np.repeat(unit_row[block], n)[inside] * nb
        # Unlike a bincount, this allocates nothing the size of the cube,
        # which fragmented the heap as much as larger chunks did.
        np.add.at(flat, idx, 1)
        begin = block.stop


def _ranges(starts, lengths):
    """Concatenated ``arange(s, s + n)`` for each (s, n)."""
    ends = np.cumsum(lengths)
    return np.arange(ends[-1] if len(ends) else 0) + np.repeat(
        starts - (ends - lengths), lengths)


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
