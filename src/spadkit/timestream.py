"""Photon timestamp streams: types and binary format.

A stream is a sequence of acquisition cycles, each holding the photon
records detected during one gating window.  Two representations coexist:

* record model -- ``AcquisitionCycle`` / ``TimestampRecord`` objects,
  convenient for small streams and for the streaming reader;
* columnar model -- ``PhotonStream``, parallel numpy arrays over all
  records, used by every analysis routine (millions of records).

Binary container (extension ``.spk1``, all fields little-endian):

    magic            4 bytes  b"SPK1"
    version          u16      1: per-cycle records, 2: columnar slabs
    num_pixels       u16
    cycle_period_ps  u64
    tdc_bins         u16      per clock period
    clock_period_ps  u32
    metadata_count   u16      then per entry: key_len u16, key (utf-8),
                              val_len u16, val (utf-8)
    cycle_count      u64      0xFFFF_FFFF_FFFF_FFFF while streaming

Version 1 payload, per cycle:
      cycle_index    u64      strictly increasing, gaps allowed
      record_count   u32
      per record:
        pixel        u16
        time_ps      u64      within [0, cycle_period_ps)
        flags        u8       bit 0: raw TDC code follows; others reserved
        raw_code     u32      only when flags bit 0 is set

Version 2 payload, per slab of whole cycles (column after column):
      n_cycles       u64      at least 1
      n_records      u64      the sum of the slab's record counts
      flags          u8       bit 0: raw column follows; others reserved;
                              the same in every slab of a file
      cycle_index    u64[n_cycles]   strictly increasing across slabs
      record_count   u32[n_cycles]
      pixel          u16[n_records]
      time_ps        u64[n_records]
      raw_code       u32[n_records]  only when flags bit 0 is set

Records inside a cycle are sorted by (time_ps, pixel); the readers reject
unsorted input rather than silently reordering it.  Empty cycles need not
be serialized -- the acquisition length in cycles travels in the
``total_cycles`` metadata key, the plain decimal of a u64, when it
differs from the serialized count.
Each writer writes its own version, whatever ``StreamHeader.version``
holds: ``PhotonStream.write`` version 2, ``write_stream`` version 1.
Builds of spadkit that predate version 2 cannot read files written by
``PhotonStream.write``.

Two readers, ``read_stream`` (one slab of whole cycles at a time; a v1
slab holds about ``_PIECE`` records) and ``PhotonStream.read`` (the whole
stream), take their slabs from ``_iter_slabs``, so both raise the same
error, with its byte offset and, where known, cycle index, for any defect.
The version chooses only the byte decoder: for v1 a walk over the flag
bytes and one gather per slab, for v2 the slab's columns as they lie in
the file.  One checker, ``_check_slab``, holds every rule on a slab's
contents and runs each rule in pieces of ``_PIECE`` entries.  The v2 slab
layout follows the record batches of Apache Arrow's IPC format, and like
Arrow's readers, ``PhotonStream.read`` reads the slabs of a seekable v2
source straight into the stream's preallocated columns.

What a read holds besides what it returns:

* ``PhotonStream.read`` of a seekable v2 source: a few arrays of
  ``_PIECE`` entries (the columns are sized by one pass over the slab
  headers, then each slab's columns are read into their place);
* ``PhotonStream.read`` of a pipe or of a v1 file: each slab's bytes (v2)
  or gathered records (v1) and its converted columns, then one
  ``np.concatenate`` of them;
* ``read_stream``: one slab's bytes or records and its cycle column.
"""

from __future__ import annotations

import io
import struct
import sys
from array import array
from dataclasses import dataclass, field, replace
from itertools import islice
from typing import (BinaryIO, Callable, Iterable, Iterator, Mapping,
                    NamedTuple, Sequence)

import numpy as np

from .errors import StreamFormatError

MAGIC = b"SPK1"
FORMAT_VERSION = 2          # columnar slabs, written by PhotonStream.write
RECORD_FORMAT_VERSION = 1   # per-cycle records, written by write_stream
STREAMING_CYCLE_COUNT = 0xFFFF_FFFF_FFFF_FFFF

_HEADER = struct.Struct("<4sHHQHI")          # magic .. clock_period_ps
_U16 = struct.Struct("<H")
_U64 = struct.Struct("<Q")
_CYCLE_HEADER = struct.Struct("<QI")          # cycle_index, record_count
_SLAB_HEADER = struct.Struct("<QQB")          # n_cycles, n_records, flags
_REC_PLAIN = struct.Struct("<HQB")
_REC_RAW = struct.Struct("<HQBI")

_FLAG_RAW = 0x01

# Records per slab in the writer: the slab layout, and so the file's bytes,
# depend on it.  The writer converts each slab column in pieces of
# ``_PIECE`` records, so the slab size does not bound its memory.
_IO_CHUNK = 1 << 22
# Largest single read: a corrupt slab header may claim any size, so a
# slab body from a source that cannot seek is read in pieces of at most
# this many bytes.  From a seekable one, a slab is read only once the
# source is known to hold it.
_READ_CHUNK = 1 << 26


# ---------------------------------------------------------------------------
# core types

@dataclass(frozen=True)
class SensorConfig:
    """Geometry and timing constants of one linear SPAD half-array."""

    num_pixels: int = 256
    cycle_period_ps: int = 4_000_000
    tdc_bins_per_clock: int = 140
    clock_period_ps: int = 2500

    def __post_init__(self):
        if self.num_pixels < 2:
            raise ValueError("need at least two pixels")
        if self.tdc_bins_per_clock < 1 or self.clock_period_ps < 1:
            raise ValueError("TDC geometry must be positive")
        if self.cycle_period_ps <= self.clock_period_ps:
            raise ValueError("cycle period must exceed one clock period")
        for name, bits in (("num_pixels", 16), ("tdc_bins_per_clock", 16),
                           ("clock_period_ps", 32), ("cycle_period_ps", 64)):
            if getattr(self, name) >> bits:  # the SPK1 header's field width
                raise ValueError(f"{name} exceeds its {bits}-bit header field")

    @property
    def mean_bin_width_ps(self) -> float:
        # Derived, so width * bins == clock period holds exactly.
        return self.clock_period_ps / self.tdc_bins_per_clock


@dataclass(frozen=True)
class TimestampRecord:
    """One detection: pixel index and intra-cycle time in integer ps."""

    pixel: int
    time_ps: int
    raw_code: int | None = None


@dataclass(frozen=True)
class AcquisitionCycle:
    cycle_index: int
    records: tuple[TimestampRecord, ...]


@dataclass(frozen=True)
class StreamHeader:
    """File header fields.  ``version`` is the format of the file a header
    was read from; each writer writes its own version regardless."""

    sensor: SensorConfig
    version: int = FORMAT_VERSION
    metadata: Mapping[str, str] = field(default_factory=dict)

    def with_metadata(self, **entries: str) -> "StreamHeader":
        merged = dict(self.metadata)
        merged.update(entries)
        return replace(self, metadata=merged)


# ---------------------------------------------------------------------------
# columnar stream

# Records per piece in passes over whole columns (record_order and
# sort_records, validate, the writer, the readers' checker, the
# simulators, the counts of rates and build_lut): a pass holds a few
# arrays of this length at a time, never one per record.
_PIECE = 1 << 16


def _pieces(stop: int, start: int = 0) -> list[tuple[int, int]]:
    return [(lo, min(lo + _PIECE, stop)) for lo in range(start, stop, _PIECE)]


def _bincount(pieces: Iterable[np.ndarray], minlength: int) -> np.ndarray:
    """``np.bincount`` of the pieces' values together, summed from each
    piece's own: a whole-column count without a whole-column index."""
    counts = np.zeros(minlength, dtype=np.intp)
    for values in pieces:
        part = np.bincount(values, minlength=len(counts))
        part[:len(counts)] += counts
        counts = part
    return counts


def _whole(values: np.ndarray) -> bool:
    """Is every value a whole number?  Decided in pieces."""
    return values.dtype.kind != "f" or all(
        (np.floor(values[lo:hi]) == values[lo:hi]).all()
        for lo, hi in _pieces(len(values)))


class _Key(NamedTuple):
    """The packed sort key of ``sort_records``, with its field layout."""

    words: np.ndarray    # uint64 per record
    cmin: object         # the cycle field holds cycle - cmin
    tmin: object         # the time field holds time - tmin
    pix_bits: int
    time_bits: int
    cycle_bits: int


def _key_columns(cyc: np.ndarray, t: np.ndarray, pix: np.ndarray) -> bool:
    """Two records or more, in columns of one length and of dtypes a key
    can hold."""
    n = len(pix)
    return n >= 2 and len(cyc) == n and len(t) == n \
        and cyc.dtype.kind in "ui" and pix.dtype.kind in "ui" \
        and t.dtype.kind in "uif"


def _record_key(cyc: np.ndarray, t: np.ndarray,
                pix: np.ndarray) -> _Key | None:
    """The packed key of ``sort_records``, or None where only
    ``np.lexsort`` sorts the records: fewer than two, columns of unequal
    lengths or of other dtypes, a negative pixel, a time that is NaN or
    not whole, a span of times of 2**53 or more, or a key over 64 bits.

    Every check runs before any word is written.  The words are packed
    piece by piece into the cycle column's own buffer when that is a
    writable ``uint64`` array, which is then overwritten, and into a new
    ``uint64`` array otherwise."""
    if not _key_columns(cyc, t, pix):
        return None
    n = len(pix)
    tmin, tmax = t.min(), t.max()
    if pix.min() < 0 or np.isnan(tmin):
        return None
    if t.dtype.kind == "f" and not (tmax - tmin < 2.0 ** 53 and _whole(t)):
        return None
    pix_bits = int(pix.max()).bit_length()
    time_bits = (int(tmax) - int(tmin)).bit_length()
    cmin = cyc.min()
    cycle_bits = (int(cyc.max()) - int(cmin)).bit_length()
    if cycle_bits + time_bits + pix_bits > 64:
        return None

    words = cyc if cyc.dtype == np.uint64 and cyc.flags.writeable \
        else np.empty(n, dtype=np.uint64)
    field = np.empty(min(n, _PIECE), dtype=np.uint64)
    for lo, hi in _pieces(n):
        part, low = words[lo:hi], field[:hi - lo]
        np.subtract(cyc[lo:hi], cmin, out=part, dtype=np.uint64,
                    casting="unsafe")
        # a shift of 64 (no cycle bits) is of zeros, which it keeps
        part <<= np.uint64(time_bits + pix_bits)
        # in float64, or for integers modulo 2**64: every difference fits,
        # where the column's own dtype may overflow or round
        np.subtract(t[lo:hi], tmin, out=low, casting="unsafe",
                    dtype=np.float64 if t.dtype.kind == "f" else np.int64)
        low <<= np.uint64(pix_bits)
        np.bitwise_or(low, pix[lo:hi], out=low, dtype=np.uint64,
                      casting="unsafe")
        part |= low
    return _Key(words, cmin, tmin, pix_bits, time_bits, cycle_bits)


def _repair_ties(order: np.ndarray, values: np.ndarray,
                 same: np.ndarray | None, *keys: np.ndarray) -> np.ndarray:
    """Put back each run of ties of the sort ``order`` in ``np.lexsort``
    order of ``keys`` (the last the primary), index order among equals,
    and return ``order``.

    Sorted position i ties with i + 1 where ``values`` of the two records
    are equal and, given ``same``, ``same[i]`` holds.  The runs are found
    piece by piece; only the records in them are sorted again.  The tied
    positions are taken from a mask, not from ``np.union1d``, whose
    ``np.unique`` imports ``numpy.ma``."""
    first = []
    for lo, hi in _pieces(len(order) - 1):
        ordered = values[order[lo:hi + 1]]
        tie = ordered[1:] == ordered[:-1]
        if same is not None:
            tie &= same[lo:hi]
        first.append(lo + np.flatnonzero(tie))
    first = np.concatenate(first)
    if first.size:
        tied = np.zeros(len(order), dtype=bool)
        tied[first] = True
        tied[first + 1] = True
        tied = np.flatnonzero(tied)
        picked = order[tied]
        order[tied] = picked[np.lexsort(
            (picked,) + tuple(key[picked] for key in keys))]
    return order


def _key_order(words: np.ndarray) -> np.ndarray:
    """The permutation that sorts the key ``words``, ties in index order.

    A quicksort and a repair of the few ties: a stable ``argsort`` of the
    key (timsort) takes two to four times as long on the simulators'
    unordered records, and ``np.lexsort`` about five times."""
    return _repair_ties(np.argsort(words), words, None, words)


def _same_cycle(cyc: np.ndarray) -> np.ndarray | None:
    """Per adjacent pair of records: the same cycle?  None unless the
    cycles never decrease, which is checked piece by piece, so cycles out
    of order cost about one piece."""
    same = np.empty(len(cyc) - 1, dtype=bool)
    for lo, hi in _pieces(len(same)):
        a, b = cyc[lo:hi], cyc[lo + 1:hi + 1]
        if (b < a).any():
            return None
        np.equal(a, b, out=same[lo:hi])
    return same


def _order_in_cycles(t: np.ndarray, pix: np.ndarray,
                     same: np.ndarray) -> np.ndarray | None:
    """``record_order`` of records whose cycles never decrease (``same``
    from ``_same_cycle``): only records that share a cycle move, and only
    inside it.  None where the whole stream is sorted instead: a NaN time
    in a cycle of two.  Uses up ``same``."""
    n = len(pix)
    # a record in a cycle of three or more is, or is next to, a record of
    # the same cycle as both its neighbours
    middle = same[:-1] & same[1:]  # record i + 1's neighbours share its cycle
    long = np.zeros(n, dtype=bool)
    long[1:-1] = middle
    long[:-2] |= middle
    long[2:] |= middle
    del middle
    if long.all():  # dense cycles: no lone record, no cycle of two
        return _order_long_cycles(t, pix, same)
    rows = np.flatnonzero(long)
    # consecutive records of longer cycles share one exactly where the
    # first shares its cycle with the next record
    shared = same[rows[:-1]]

    # cycles of exactly two: records i and i + 1, swapped where (time,
    # pixel) of i + 1 is the smaller; equal ones keep index order
    same &= ~long[:-1]
    del long
    first = np.flatnonzero(same)
    del same
    ta, tb = t[first], t[first + 1]
    if t.dtype.kind == "f" and (np.isnan(ta).any() or np.isnan(tb).any()):
        return None
    pa, pb = pix[first], pix[first + 1]
    first = first[(tb < ta) | ((tb == ta) & (pb < pa))]
    del ta, tb, pa, pb
    order = np.arange(n, dtype=np.intp)
    order[first] = first + 1
    order[first + 1] = first
    del first

    # longer cycles: each record goes to a place of its own cycle
    if len(rows):
        order[rows] = rows[_order_long_cycles(t[rows], pix[rows], shared)]
    return order


def _order_long_cycles(t: np.ndarray, pix: np.ndarray,
                       same: np.ndarray) -> np.ndarray:
    """``record_order`` of records whose cycles never decrease, where
    ``same[i]`` tells whether records i and i + 1 share a cycle.

    One stable ``argsort`` of a complex key orders the records by (cycle,
    time): its real part is the cycle's rank, a count of cycle changes
    (exact in float64, where a cycle index of 2**53 or more is not), its
    imaginary part the time.  Each run of equal keys is then put in (time,
    pixel) order, stably, which also separates integer times that float64
    rounds to one value.  A NaN sorts after every other complex value,
    whatever the real part, so records with a NaN time take
    ``np.lexsort``."""
    key = np.empty(len(t), dtype=np.complex128)
    key.real[0] = 0.0
    np.cumsum(~same, out=key.real[1:], dtype=np.float64)
    rank = key.real
    if t.dtype.kind == "f" and np.isnan(t.min()):
        return np.lexsort((pix, t, rank))
    key.imag = t
    order = np.argsort(key, kind="stable")
    # Sorted position i ties with i + 1 where both have one time in
    # float64 and one rank: the ranks keep their places, so that is where
    # records i and i + 1 share a cycle.
    times = t if t.dtype.kind == "f" else key.imag
    return _repair_ties(order, times, same, pix, t, rank)


def _field(words: np.ndarray, low: int, bits: int) -> np.ndarray:
    """The ``bits``-bit field of ``words`` that starts at bit ``low``."""
    if not bits:
        return np.zeros(len(words), dtype=np.uint64)
    field = words >> np.uint64(low)
    if low + bits < 64:
        field &= np.uint64((1 << bits) - 1)
    return field


def _add_min(field: np.ndarray, low, out: np.ndarray) -> None:
    """``out = field + low``: a key field decoded to its column's values.
    Integers add modulo 2**64, as their fields were taken."""
    if out.dtype.kind == "f":
        np.add(field, low, out=out)
    else:
        field += np.uint64(int(low) % (1 << 64))
        np.copyto(out, field, casting="unsafe")


def record_order(cycle_index: np.ndarray, time_ps: np.ndarray,
                 pixel: np.ndarray) -> np.ndarray:
    """Permutation that puts records in stream order: (cycle, time, pixel).

    The result is exactly ``np.lexsort((pixel, time_ps, cycle_index))``,
    the order of ties included.  The cycle column chooses how: a stream
    whose cycle column never decreases -- what ``apply_delays`` and
    ``apply_lut`` pass, since a ``PhotonStream``'s columns are cycle-major
    and a correction moves no record to another cycle -- is ordered only
    where records share a cycle.  The check runs piece by piece and stops
    at the first piece out of order; such a stream, and one with a NaN
    time in a cycle of two, takes ``np.lexsort`` itself: at 1.14M records
    out of cycle order, 0.38-0.44 s on one core, where a packed key like
    ``sort_records``' took about 50 ms.  Every package caller passes a
    ``PhotonStream``'s columns, which are in cycle order.  Otherwise:

    * a record alone in its cycle keeps its place;
    * a cycle of exactly two records is ordered by one vectorised
      compare-and-swap on (time, pixel); equal ones, ``-0.0`` and ``0.0``
      among them, keep index order;
    * the records of cycles of three or more -- every record, in dense
      cycles such as a TDC code-density run's -- take one stable
      ``argsort`` of a complex128 key: its real part is the cycle's rank
      among those cycles, a count of cycle changes (exact in float64,
      where an index of 2**53 or more is not), its imaginary part the
      time.  Each run of equal keys, ``-0.0`` and ``0.0`` alike, is then
      put in (time, pixel) order by ``np.lexsort``, which keeps index
      order among equal pixels and separates integer times that float64
      rounds to one value.  The records keep to their cycles' places;
    * a NaN time in a cycle of three or more sends those cycles' records
      to ``np.lexsort`` (numpy sorts a NaN imaginary part after every
      other value, whatever the real part).

    Its memory besides the result: boolean masks, one byte per record
    each; for cycles of three or more, the complex key (16 bytes per
    record in them) and its ``argsort``, and, unless they are every
    record, their time and pixel columns.
    """
    cyc, t, pix = np.asarray(cycle_index), np.asarray(time_ps), np.asarray(pixel)
    same = _same_cycle(cyc) if _key_columns(cyc, t, pix) else None
    if same is not None:
        order = _order_in_cycles(t, pix, same)
        if order is not None:
            return order
    return np.lexsort((pix, t, cyc))


def sort_records(columns: dict[str, np.ndarray]) -> None:
    """Put the record columns of ``columns`` in stream order, in place:
    each becomes ``column[record_order(cycle_index, time_ps, pixel)]``,
    with the key columns named as the stream's.

    The records are sorted by one ``uint64`` key per record, as wide as
    its fields need:

        key = cycle << (time_bits + pixel_bits) | time << pixel_bits | pixel

    * cycle: ``cycle - min``, which also holds indices of 2**63 and more;
    * time: ``time - min``, taken in float64 (or modulo 2**64 for
      integers); every time is a whole number and the span ``max - min``
      is below 2**53, so float64 holds every difference exactly;
    * pixel: the pixel index, in the low bits.

    Each field keeps the order of its column, so key order is stream
    order, and the key holds every bit of the three key columns.  The key
    is built in the cycle column's buffer (``_record_key``), and the words
    are put in order one of two ways:

    * no other column: the words are sorted in place (``ndarray.sort``,
      with SIMD kernels on numpy 2).  Records with equal keys are equal
      in all three columns, so their order among themselves cannot show;
    * other columns (``raw_code``, lineage): the key is quicksorted and
      its runs of equal keys put back in index order (``_key_order``);
      the words and each other column are gathered by that permutation.

    Either way the three key columns are then decoded from the sorted
    words, piece by piece, into the time and pixel arrays and, last, in
    place of the words, into the cycles.  A decoded time of zero is
    ``+0.0``, also where the column held ``-0.0``.  Where there is no key
    -- a time that is NaN or not whole, a span of times of 2**53 or more,
    a key over 64 bits, a negative pixel, fewer than two records or
    columns a key cannot hold -- every column is gathered through
    ``np.lexsort``'s permutation instead.

    With a key, the time and pixel arrays are overwritten, and so is the
    cycle array when it is a writable ``uint64`` array: its buffer becomes
    the new cycle column (a copy, when that is not ``uint64``).  Memory
    besides the columns, with no other column: pieces of ``_PIECE``
    records, and no key column; with other columns, the permutation and
    the gathered words (8 bytes per record each), and one other column
    while it is gathered.
    """
    keys = ("cycle_index", "time_ps", "pixel")
    cyc, t, pix = (columns[name] for name in keys)
    key = _record_key(cyc, t, pix)
    if key is None:
        order = np.lexsort((pix, t, cyc))
        del cyc, t, pix  # so that each old column is freed in turn
        for name in columns:
            columns[name] = columns[name][order]
        return

    cycle_dtype = cyc.dtype
    del cyc
    others = [name for name in columns if name not in keys]
    if others:
        order = _key_order(key.words)
        key = key._replace(words=key.words[order])
        columns["cycle_index"] = key.words  # frees the unsorted words
        for name in others:
            columns[name] = columns[name][order]
        del order
    else:
        key.words.sort()
    words = columns["cycle_index"] = key.words
    for lo, hi in _pieces(len(words)):
        part = words[lo:hi]
        pix[lo:hi] = _field(part, 0, key.pix_bits)
        _add_min(_field(part, key.pix_bits, key.time_bits), key.tmin,
                 t[lo:hi])
    # the cycles, decoded in place of the words
    if key.cycle_bits:
        words >>= np.uint64(key.pix_bits + key.time_bits)
    else:
        words.fill(0)
    _add_min(words, key.cmin, words)
    if cycle_dtype != words.dtype:
        columns["cycle_index"] = words.astype(cycle_dtype)


@dataclass
class PhotonStream:
    """All records of a stream as parallel arrays, cycle-major order.

    Arrays are sorted lexicographically by (cycle_index, time_ps, pixel).
    ``time_ps`` is float64 so delay-corrected streams keep sub-ps values;
    freshly read or simulated streams hold integer-valued times.  A delay
    correction can push times outside [0, cycle_period); such a stream is
    an analysis artifact that ``validate`` and ``write`` refuse.  ``take``
    is the only way to derive a stream (corrected, re-sorted, sliced) and
    the one place that lists the record columns.
    """

    header: StreamHeader
    cycle_index: np.ndarray
    pixel: np.ndarray
    time_ps: np.ndarray
    raw_code: np.ndarray | None = None
    total_cycles: int = 0

    # -- construction ------------------------------------------------------

    def __post_init__(self):
        n = len(self.cycle_index)
        if len(self.pixel) != n or len(self.time_ps) != n:
            raise ValueError("column lengths differ")
        if self.raw_code is not None and len(self.raw_code) != n:
            raise ValueError("column lengths differ")
        if self.total_cycles == 0 and n:
            self.total_cycles = int(self.cycle_index[-1]) + 1

    @property
    def sensor(self) -> SensorConfig:
        return self.header.sensor

    @property
    def n_records(self) -> int:
        return len(self.pixel)

    @property
    def duration_s(self) -> float:
        return self.total_cycles * self.sensor.cycle_period_ps * 1e-12

    def counts_per_pixel(self) -> np.ndarray:
        return _bincount((self.pixel[lo:hi]
                          for lo, hi in _pieces(self.n_records)),
                         self.sensor.num_pixels)

    def validate(self) -> None:
        """Check the stream invariants; raise StreamFormatError on violation.

        The record checks run in pieces of ``_PIECE`` records (the order
        check with one record of overlap), so they hold no per-record
        array."""
        sensor = self.sensor
        n, t = self.n_records, self.time_ps
        if n == 0:
            return
        if self.pixel.min() < 0 or self.pixel.max() >= sensor.num_pixels:
            raise StreamFormatError("pixel index out of range")
        if not all(((t[lo:hi] >= 0) & (t[lo:hi] < sensor.cycle_period_ps)).all()
                   for lo, hi in _pieces(n)):
            raise StreamFormatError("record time outside cycle")
        if not all(_lex_ordered(self.cycle_index[lo:hi + 1], t[lo:hi + 1],
                                self.pixel[lo:hi + 1]).all()
                   for lo, hi in _pieces(n - 1)):
            raise StreamFormatError("records not sorted by (cycle, time, pixel)")
        if self.total_cycles <= int(self.cycle_index[-1]):
            raise StreamFormatError("total_cycles smaller than last cycle index")

    def take(self, index) -> "PhotonStream":
        """The records picked by a boolean mask or an index permutation.

        Header and ``total_cycles`` carry over unchanged.
        """
        return replace(self, cycle_index=self.cycle_index[index],
                       pixel=self.pixel[index], time_ps=self.time_ps[index],
                       raw_code=None if self.raw_code is None
                       else self.raw_code[index])

    @classmethod
    def from_cycles(cls, header: StreamHeader,
                    cycles: Iterable[AcquisitionCycle],
                    total_cycles: int | None = None) -> "PhotonStream":
        """Columns of record-model cycles; ``total_cycles`` is raised to
        one past the last cycle given, empty or not."""
        cyc, pix, t, raw = [], [], [], []
        any_raw = False
        last = -1
        for c in cycles:
            last = c.cycle_index
            for r in c.records:
                cyc.append(c.cycle_index)
                pix.append(r.pixel)
                t.append(r.time_ps)
                raw.append(0 if r.raw_code is None else r.raw_code)
                any_raw = any_raw or r.raw_code is not None
        stream = cls(
            header=header,
            cycle_index=np.asarray(cyc, dtype=np.uint64),
            pixel=np.asarray(pix, dtype=np.uint16),
            time_ps=np.asarray(t, dtype=np.float64),
            raw_code=np.asarray(raw, dtype=np.uint32) if any_raw else None,
            total_cycles=max(total_cycles or 0, last + 1),
        )
        stream.validate()
        return stream

    # -- binary I/O --------------------------------------------------------

    def write(self, sink: BinaryIO | str) -> int:
        """Serialize as format version 2, one slab of whole cycles at a
        time.  Returns bytes written.

        Times are rounded to integer ps first.  Before touching ``sink``
        (a path is not even opened), refuses a stream whose rounded times
        the readers would reject, such as a delay-corrected one with
        records outside the cycle, and a header the format cannot hold.

        Memory besides the stream: one boundary per cycle, a per-record
        flag while the cycles are found, and pieces of ``_PIECE`` records;
        a rounded copy of the times only when some time is not whole.
        """
        # Times are rounded again, piece by piece, where serialized.
        if _whole(self.time_ps):
            self.validate()
        else:
            replace(self, time_ps=np.rint(self.time_ps)).validate()
        header = self.header
        # The in-memory count is authoritative; an inherited metadata entry
        # (e.g. on a slice of a stream read from disk) must not survive.
        if self.total_cycles and \
                header.metadata.get("total_cycles") != str(self.total_cycles):
            header = header.with_metadata(total_cycles=str(self.total_cycles))
        starts, stops = _run_edges(self.cycle_index)
        head = _header_bytes(header, FORMAT_VERSION, cycle_count=len(starts))
        if isinstance(sink, str):
            with open(sink, "wb") as fh:
                return self._write_valid(fh, head, starts, stops)
        return self._write_valid(sink, head, starts, stops)

    def _write_valid(self, sink: BinaryIO, head: bytes, starts: np.ndarray,
                     stops: np.ndarray) -> int:
        sink.write(head)
        written = len(head)
        flags = 0 if self.raw_code is None else _FLAG_RAW
        for r0, r1 in _slab_runs(starts, _IO_CHUNK):
            lo, hi = int(starts[r0]), int(stops[r1 - 1])
            slab_head = _SLAB_HEADER.pack(r1 - r0, hi - lo, flags)
            sink.write(slab_head)
            written += len(slab_head)
            for values, dtype in self._slab_pieces(starts, stops, r0, r1):
                piece = np.ascontiguousarray(values, dtype=dtype)
                sink.write(piece.data)
                written += piece.nbytes
        return written

    def _slab_pieces(self, starts: np.ndarray, stops: np.ndarray, r0: int,
                     r1: int) -> Iterator[tuple[np.ndarray, str]]:
        """The columns of the slab of cycle runs [r0, r1) in file order,
        each in pieces of at most ``_PIECE`` entries, with their file
        dtypes."""
        lo, hi = int(starts[r0]), int(stops[r1 - 1])
        for a, b in _pieces(r1, r0):
            yield self.cycle_index[starts[a:b]], "<u8"
        for a, b in _pieces(r1, r0):
            yield stops[a:b] - starts[a:b], "<u4"
        for a, b in _pieces(hi, lo):
            yield self.pixel[a:b], "<u2"
        for a, b in _pieces(hi, lo):
            yield np.rint(self.time_ps[a:b]), "<u8"
        if self.raw_code is not None:
            for a, b in _pieces(hi, lo):
                yield self.raw_code[a:b], "<u4"

    @classmethod
    def read(cls, source: BinaryIO | str) -> "PhotonStream":
        """Read a whole binary stream into columnar form.

        Unlike ``read_stream`` this holds the whole stream at once; use the
        streaming reader when memory must stay bounded by one slab.  When
        any record of a v1 file has a raw code, those without read as 0.

        What the read holds besides the columns it returns:

        * a seekable v2 source (a path, an open file, ``io.BytesIO``): a
          few arrays of ``_PIECE`` entries.  One pass over the slab headers
          sizes the columns, which are allocated once; each slab's columns
          are read into their place, its times as u64 in the float64
          column's memory, and checked there; once every slab has passed,
          the times are converted to float64 in place, piece by piece.
        * a pipe or any source that cannot seek, and every v1 file: each
          slab's bytes (v2) or gathered records (v1) with its converted
          columns, then one ``np.concatenate`` of the slabs' columns.
        """
        if isinstance(source, str):
            with open(source, "rb") as fh:
                return cls.read(fh)
        header, cycle_count, offset = _read_header(source)
        into = _Columns.sized(source, header, offset)
        if into is not None:
            for _ in _iter_slabs(source, header, cycle_count, offset, into):
                pass
            return cls(header=header, cycle_index=into.cycle,
                       pixel=into.pixel, time_ps=into.float_times(),
                       raw_code=into.raw,
                       total_cycles=_total_cycles(header, into.last_index))
        parts, last_index = [], -1
        for slab in _iter_slabs(source, header, cycle_count, offset):
            # Copies, so no column keeps the slab's bytes alive; np.array
            # drops a v1 slab's mask (its masked codes are 0).
            parts.append((slab.cycle, slab.pixel.copy(),
                          slab.time.astype(np.float64),
                          None if slab.raw is None else np.array(slab.raw)))
            last_index = int(slab.index[-1])
        if not parts:
            parts = [(np.empty(0, np.uint64), np.empty(0, np.uint16),
                      np.empty(0, np.float64), None)]
        if any(part[3] is not None for part in parts):  # 0 for the others
            parts = [(*part[:3], np.zeros(len(part[1]), np.uint32)
                      if part[3] is None else part[3]) for part in parts]
        cycle_rep, pixel, time_ps, raw_code = (
            column[0] if len(column) == 1 or column[0] is None
            else np.concatenate(column) for column in zip(*parts))
        return cls(header=header, cycle_index=cycle_rep, pixel=pixel,
                   time_ps=time_ps, raw_code=raw_code,
                   total_cycles=_total_cycles(header, last_index))


# ---------------------------------------------------------------------------
# record-model I/O

def write_stream(header: StreamHeader, cycles: Sequence[AcquisitionCycle],
                 sink: BinaryIO, *, cycle_count: int | None = None) -> int:
    """Serialize record-model cycles as format version 1.  Returns bytes
    written.

    ``cycle_count`` defaults to ``len(cycles)``; pass
    ``STREAMING_CYCLE_COUNT`` when the count is unknown up front.
    """
    if cycle_count is None:
        cycle_count = len(cycles) if hasattr(cycles, "__len__") else STREAMING_CYCLE_COUNT
    head = _header_bytes(header, RECORD_FORMAT_VERSION,
                         cycle_count=cycle_count)
    sink.write(head)
    written = len(head)
    sensor = header.sensor
    prev_index = -1
    for cycle in cycles:
        if cycle.cycle_index <= prev_index:
            raise StreamFormatError("cycle index not strictly increasing",
                                    cycle_index=cycle.cycle_index)
        prev_index = cycle.cycle_index
        written += _write_cycle(sink, cycle, sensor)
    return written


def read_stream(source: BinaryIO) -> tuple[StreamHeader, Iterator[AcquisitionCycle]]:
    """Open a binary stream for incremental reading.

    Returns the parsed header and a generator of cycles, decoded one slab
    at a time (v1: about ``_PIECE`` records, or one larger cycle; v2: as
    written), which bounds the memory.  A v1 record written without a raw
    code has ``raw_code=None``.  Structural violations raise
    ``StreamFormatError`` -- arbitrary bytes never crash the parser.
    """
    header, cycle_count, offset = _read_header(source)
    return header, _slab_cycles(
        _iter_slabs(source, header, cycle_count, offset))


def _read_header(source: BinaryIO) -> tuple[StreamHeader, int, int]:
    """(header, cycle_count, offset of the payload) of a binary stream."""
    head = _read_exact(source, _HEADER.size, "header")
    magic, version, num_pixels, cycle_period, tdc_bins, clock = \
        _HEADER.unpack(head)
    if magic != MAGIC:
        raise StreamFormatError("not a SPK1 stream (bad magic)")
    if version not in (RECORD_FORMAT_VERSION, FORMAT_VERSION):
        raise StreamFormatError(f"unsupported format version {version}")
    try:
        sensor = SensorConfig(num_pixels=num_pixels,
                              cycle_period_ps=cycle_period,
                              tdc_bins_per_clock=tdc_bins,
                              clock_period_ps=clock)
    except ValueError as exc:
        raise StreamFormatError(f"invalid sensor header: {exc}") from None

    (meta_count,) = _U16.unpack(_read_exact(source, 2, "metadata count"))
    offset = _HEADER.size + _U16.size + _U64.size   # up to the payload
    metadata = {}
    for _ in range(meta_count):
        key = _read_length_prefixed(source, "metadata key")
        val = _read_length_prefixed(source, "metadata value")
        metadata[key.decode("utf-8", errors="replace")] = \
            val.decode("utf-8", errors="replace")
        offset += 2 * _U16.size + len(key) + len(val)
    if "total_cycles" in metadata:
        _check_total_cycles(metadata["total_cycles"])
    (cycle_count,) = _U64.unpack(_read_exact(source, 8, "cycle count"))

    header = StreamHeader(sensor=sensor, version=version, metadata=metadata)
    return header, cycle_count, offset


class _Slab(NamedTuple):
    """The columns of a slab of whole cycles; in v2, views of its bytes or
    of the whole-stream columns (``_Columns.take``)."""

    index: np.ndarray          # u64 per cycle
    count: np.ndarray          # u32 per cycle
    pixel: np.ndarray          # u16 per record
    time: np.ndarray           # u64 per record
    raw: np.ndarray | None     # u32 per record, when the slab has raw codes;
    #                            a v1 slab masks (as 0) records without one
    cycle: np.ndarray | None = None   # u64 per record, made by the checker


@dataclass
class _Columns:
    """The record columns of a whole seekable v2 stream, allocated once and
    filled slab by slab by ``_v2_slabs``.  ``time`` holds each record's
    u64 until ``float_times`` converts it."""

    cycle: np.ndarray            # u64
    pixel: np.ndarray            # u16
    time: np.ndarray             # float64
    raw: np.ndarray | None       # u32, when the slabs have raw codes
    end: int                     # the offset at which the source ends
    filled: int = 0              # records placed so far
    last_index: int = -1         # the last cycle index placed

    @classmethod
    def sized(cls, source: BinaryIO, header: StreamHeader,
              offset: int) -> "_Columns | None":
        """Empty columns for the records of a v2 ``source`` whose payload
        starts at ``offset``, or None where ``source`` cannot seek or
        ``readinto``, or the machine is big-endian (columns are read as
        they lie in the file).  One pass over the slab headers, seeking
        over the bodies, sums the records; it stops at the first header
        ``_v2_slabs`` will refuse, a slab cut short included, so no more
        is allocated than the source holds."""
        if header.version != FORMAT_VERSION or sys.byteorder != "little" \
                or not hasattr(source, "readinto"):
            return None
        try:
            if not source.seekable():
                return None
            start = source.tell()
            end = offset + source.seek(0, io.SEEK_END) - start
        except (AttributeError, OSError, ValueError):
            return None
        n, flags, at = 0, None, offset
        try:
            while at < end:
                source.seek(start + at - offset)
                _, n_records, flags, size = _slab_header(
                    source.read(_SLAB_HEADER.size), at, flags, end)
                n += n_records
                at += _SLAB_HEADER.size + size
        except StreamFormatError:
            pass  # _v2_slabs raises it when it reaches this slab
        source.seek(start)
        return cls(np.empty(n, np.uint64), np.empty(n, np.uint16),
                   np.empty(n, np.float64),
                   np.empty(n, np.uint32) if flags else None, end)

    def take(self, source: BinaryIO, n_cycles: int, n_records: int,
             raw: bool, offset: int
             ) -> tuple[_Slab, Callable[[], None]]:
        """The slab whose body ``source`` reads next, and its fill step.

        The index, counts and pixels are read at once: while the index and
        counts are checked, they wait in the slab's part of the cycle and
        time columns.  Once the index passes, the checker builds the cycle
        column there, in place of the index, and calls the fill step, which
        reads the times and raw codes into their columns."""
        lo, hi = self.filled, self.filled + n_records
        if hi > len(self.pixel):  # the source changed after it was sized
            raise StreamFormatError("stream changed while it was read",
                                    offset=offset)
        self.filled = hi
        cycle, time = self.cycle[lo:hi], self.time[lo:hi].view(np.uint64)
        if n_cycles <= n_records:
            index, count = cycle[:n_cycles], time.view(np.uint32)[:n_cycles]
        else:  # cycles without records, which no writer makes
            index = np.empty(n_cycles, np.uint64)
            count = np.empty(n_cycles, np.uint32)
        pixel = self.pixel[lo:hi]
        codes = self.raw[lo:hi] if raw else None
        for column in (index, count, pixel):
            _read_into(source, column, offset)
        self.last_index = int(index[-1])

        def fill() -> None:
            _read_into(source, time, offset)
            if codes is not None:
                _read_into(source, codes, offset)

        return _Slab(index, count, pixel, time, codes, cycle), fill

    def float_times(self) -> np.ndarray:
        """The time column, converted from u64 in place, piece by piece."""
        bits = self.time.view(np.uint64)
        for lo, hi in _pieces(len(bits)):
            self.time[lo:hi] = bits[lo:hi]
        return self.time


def _iter_slabs(source: BinaryIO, header: StreamHeader, cycle_count: int,
                offset: int, into: _Columns | None = None) -> Iterator[_Slab]:
    """The checked slabs of the payload from byte ``offset``; the version
    chooses only the decoder, which yields ``(slab, where, fill, fault,
    end)``: ``where`` and ``fill`` for ``_check_slab``, a fault of its
    layout that ends the payload (raised once the slab passes the
    checker), the byte offset after it.  With ``into``, a v2 decoder puts
    the slabs' columns in those whole-stream columns."""
    slabs = _v1_slabs(source, offset) \
        if header.version == RECORD_FORMAT_VERSION \
        else _v2_slabs(source, offset, into)
    prev_index, seen = -1, 0
    for slab, where, fill, fault, offset in slabs:
        if len(slab.index):
            # read before the check, whose cycle column may overwrite the index
            last, seen = int(slab.index[-1]), seen + len(slab.index)
            slab = _check_slab(slab, where, header.sensor, prev_index, fill)
            prev_index = last
        if fault is not None:
            raise fault
        yield slab
    if cycle_count != STREAMING_CYCLE_COUNT and seen != cycle_count:
        raise StreamFormatError(
            f"header promises {cycle_count} cycles, found {seen}",
            offset=offset)


def _check_slab(slab: _Slab, where: Mapping[str, Sequence[int]],
                sensor: SensorConfig, prev_index: int,
                fill: Callable[[], None] | None = None) -> _Slab:
    """``slab`` with its cycle column, checked in this order: cycle indices
    strictly increase (from ``prev_index``, or -1), pixels and times lie in
    range, and each cycle's records are sorted by (time, pixel).  The first
    entry that breaks the first broken rule is reported, at the byte offset
    ``where[column][k]`` of entry ``k`` of its column.

    Each rule runs over pieces of ``_PIECE`` entries, the order rule with
    one record of overlap, so the check holds no per-record array.  Once
    the index passes, ``_fill_cycles`` builds the cycle column, into
    ``slab.cycle`` where the decoder gives one (``_Columns.take``, whose
    ``fill()`` then reads the rest of the slab), else into a new array."""
    index, pixel, time = slab.index, slab.pixel, slab.time

    def check(n, ok, column, cycles, message, first=0):
        # ``ok(lo, hi)``: the rule on entries first + [lo, hi) of n
        for lo, hi in _pieces(n):
            good = ok(lo, hi)
            if not good.all():
                k = first + lo + int(np.argmin(good))
                raise StreamFormatError(
                    message(k), cycle_index=int(cycles[k]),
                    offset=int(where[column][k]))

    def increasing(lo, hi):  # entry 0 follows ``prev_index``
        good = np.empty(hi - lo, dtype=bool)
        good[0] = int(index[lo]) > (int(index[lo - 1]) if lo else prev_index)
        np.greater(index[lo + 1:hi], index[lo:hi - 1], out=good[1:])
        return good

    check(len(index), increasing, "index", index,
          lambda k: "cycle index not strictly increasing")
    cycle = _fill_cycles(index, slab.count, np.empty(len(pixel), np.uint64)
                         if slab.cycle is None else slab.cycle)
    if fill:
        fill()
    period = np.uint64(sensor.cycle_period_ps)
    check(len(pixel), lambda lo, hi: pixel[lo:hi] < sensor.num_pixels,
          "pixel", cycle,
          lambda k: f"corrupt record (pixel {pixel[k]} out of range)")
    check(len(time), lambda lo, hi: time[lo:hi] < period, "time", cycle,
          lambda k: f"corrupt record (time {time[k]} outside cycle)")
    # A record out of (time, pixel) order is the second of its pair.
    check(len(pixel) - 1, lambda lo, hi: _lex_ordered(
        cycle[lo:hi + 1], time[lo:hi + 1], pixel[lo:hi + 1]), "time", cycle,
          lambda k: "records not sorted by (time, pixel)", first=1)
    return slab._replace(cycle=cycle)


def _fill_cycles(index: np.ndarray, count: np.ndarray,
                 out: np.ndarray) -> np.ndarray:
    """``out[:] = np.repeat(index, count)``, and ``out``, made in pieces of
    ``_PIECE`` cycles.  The fill depends on a piece's density:

    * two or more records per cycle: ``np.repeat`` over runs of whole
      cycles of at most ``_PIECE`` records, and a slice fill for a run of
      one cycle (a cycle of more than ``_PIECE`` records is such a run);
    * sparser: a prefix sum, where the piece's records are zeroed, its
      first cycle's index and the steps to each next index are put at each
      cycle's first record, and ``np.cumsum`` runs in place.

    The runs cost about as much as the sum at two records a cycle, less
    from three on, and a quarter of it at 3,100 (a TDC calibration's
    cycles); below two the sum is cheaper.

    ``index`` may be the head of ``out``: cycles without records are
    dropped into a copy first, so the records of cycle k start at or after
    entry k, and pieces and runs are placed from the last back."""
    if not count.all():
        kept = count > 0
        index, count = index[kept], count[kept]
    end = len(out)
    for a, b in reversed(_pieces(len(index))):
        n = count[a:b]
        bounds = np.zeros(b - a + 1, np.int64)
        np.cumsum(n, dtype=np.int64, out=bounds[1:])
        begin = end - int(bounds[-1])
        if bounds[-1] >= 2 * (b - a):
            r1 = b - a
            while r1:
                r0 = min(r1 - 1, int(np.searchsorted(
                    bounds, bounds[r1] - _PIECE)))
                lo, hi = begin + int(bounds[r0]), begin + int(bounds[r1])
                out[lo:hi] = index[a + r0] if r1 - r0 == 1 \
                    else np.repeat(index[a + r0:a + r1], n[r0:r1])
                r1 = r0
        else:
            values = index[a:b].copy()
            piece = out[begin:end]
            piece[:] = 0
            piece[bounds[1:-1]] = np.diff(values)
            piece[0] = values[0]
            np.cumsum(piece, out=piece)
        end = begin
    return out


# A v1 record's bytes and the 4 after: ``raw`` is its code if flag bit 0.
_V1_RECORD = np.dtype({"names": ["pixel", "time", "flags", "raw"],
                       "formats": ["<u2", "<u8", "u1", "<u4"],
                       "offsets": [0, 2, 10, 11], "itemsize": 15})


def _v1_slabs(source: BinaryIO, offset: int) -> Iterator[tuple]:
    """The v1 payload from byte ``offset`` as slabs of whole cycles, at most
    ``_PIECE`` records each (a larger cycle gets a slab of its own): a walk
    over the flag bytes keeps the offsets of cycle headers and records, and
    one gather reads the records.  A stream cut short or reserved flag bits
    end the walk, and the slab so far (its last cycle cut) brings the fault."""
    buf = bytearray()   # the bytes read from ``offset`` on
    step = (_REC_PLAIN.size, _REC_RAW.size)   # by the raw flag

    def fill(need: int) -> int:  # the last offset a raw record fits at
        while len(buf) < need and (more := source.read(
                max(need - len(buf), _PIECE * _REC_RAW.size))):
            buf.extend(more)
        return len(buf) - _REC_RAW.size

    while True:
        heads, index, count, starts = map(array, "qQIq")
        append, fault, p, last = starts.append, None, 0, fill(0)
        while len(starts) < _PIECE and len(index) < _PIECE:
            if p > last:  # the stream may end inside this cycle header
                last = fill(p + _REC_RAW.size)
                if len(buf) < p + _CYCLE_HEADER.size:
                    if p < len(buf):
                        fault = _cut_short("a cycle header", offset=offset + p)
                    break
            i, c = _CYCLE_HEADER.unpack_from(buf, p)
            if starts and len(starts) + c > _PIECE:
                break
            heads.append(p)
            index.append(i)
            count.append(c)
            q = p + _CYCLE_HEADER.size
            for n in range(c):
                if q > last:  # the stream may end inside this record
                    last = fill(q + _REC_RAW.size)
                    cut = "a record" if q + _REC_PLAIN.size > len(buf) else \
                        "a raw code" if q > last and buf[q + 10] & _FLAG_RAW \
                        else None
                    if cut:
                        fault = _cut_short(cut, cycle_index=i, offset=offset + q)
                        break
                flags = buf[q + 10]
                if flags & ~_FLAG_RAW:
                    fault = StreamFormatError(
                        f"corrupt record (reserved flag bits 0x{flags:02x})",
                        cycle_index=i, offset=offset + q)
                    break
                append(q)
                q += step[flags]
            if fault is not None:
                count[-1] = n
                break
            p = q

        if not index and fault is None:
            return
        at = np.frombuffer(starts, np.int64)
        rows = np.lib.stride_tricks.sliding_window_view(np.frombuffer(
            bytes(buf) + bytes(_REC_RAW.size), np.uint8), _REC_RAW.size)[at]
        rows = rows.view(_V1_RECORD)[:, 0]
        flags = rows["flags"]
        raw = None if not flags.any() else rows["raw"] if flags.all() \
            else np.ma.masked_array(np.where(flags, rows["raw"], 0),
                                    mask=flags == 0)
        at = at + offset
        yield (_Slab(np.frombuffer(index, np.uint64),
                     np.frombuffer(count, np.uint32), rows["pixel"],
                     rows["time"], raw),
               {"index": np.frombuffer(heads, np.int64) + offset,
                "pixel": at, "time": at}, None, fault, offset + p)
        del buf[:p]  # no fault came: ``_iter_slabs`` raises one
        offset += p


def _v2_slabs(source: BinaryIO, offset: int,
              into: _Columns | None = None) -> Iterator[tuple]:
    """The v2 payload from byte ``offset``, one slab at a time;
    ``_slab_header`` checks each slab header.  Without ``into``, a slab's
    columns are views of its body, read into one ``bytes``; with ``into``
    (a seekable source), they are slices of its whole-stream columns, read
    by ``into.take`` once the source is known to hold the slab."""
    first_flags, end = None, None if into is None else into.end
    while head := source.read(_SLAB_HEADER.size):
        n_cycles, n_records, flags, size = _slab_header(head, offset,
                                                        first_flags, end)
        first_flags = flags
        # u64 + u32 per cycle; u16 + u64 (+ u32 raw) per record
        pixel_at, time_at = 12 * n_cycles, 12 * n_cycles + 2 * n_records
        raw_at = time_at + 8 * n_records
        if into is None:
            body = _read_upto(source, size)
            if len(body) < size:
                raise _cut_short("a slab", offset=offset)
            slab, fill = _Slab(
                np.frombuffer(body, "<u8", n_cycles),
                np.frombuffer(body, "<u4", n_cycles, 8 * n_cycles),
                np.frombuffer(body, "<u2", n_records, pixel_at),
                np.frombuffer(body, "<u8", n_records, time_at),
                np.frombuffer(body, "<u4", n_records, raw_at)
                if flags else None), None
        else:
            slab, fill = into.take(source, n_cycles, n_records, flags, offset)
        if (held := int(slab.count.sum(dtype=np.uint64))) != n_records:
            raise StreamFormatError(
                f"slab header promises {n_records} records, its cycles hold "
                f"{held}", offset=offset)
        at = offset + _SLAB_HEADER.size          # where the body starts
        offset = at + size
        yield (slab, {"index": range(at, at + pixel_at, 8),
                      "pixel": range(at + pixel_at, at + time_at, 2),
                      "time": range(at + time_at, at + raw_at, 8)},
               fill, None, offset)


def _slab_header(head: bytes, offset: int, first_flags: int | None,
                 end: int | None) -> tuple[int, int, int, int]:
    """(n_cycles, n_records, flags, body size) of the v2 slab header
    ``head``, read at ``offset``, where each of its defects is reported.
    With ``end``, the offset at which the source ends, a body that runs
    past it is cut short here, before any of it is read."""
    if len(head) < _SLAB_HEADER.size:
        raise _cut_short("a slab header", offset=offset)
    n_cycles, n_records, flags = _SLAB_HEADER.unpack(head)
    if flags & ~_FLAG_RAW:
        raise StreamFormatError(
            f"corrupt slab (reserved flag bits 0x{flags:02x})", offset=offset)
    if first_flags not in (None, flags):
        raise StreamFormatError("slab raw flag differs from the first "
                                "slab's", offset=offset)
    if n_cycles == 0:
        raise StreamFormatError("slab holds no cycles", offset=offset)
    size = 12 * n_cycles + (14 if flags else 10) * n_records
    if end is not None and offset + _SLAB_HEADER.size + size > end:
        raise _cut_short("a slab", offset=offset)
    return n_cycles, n_records, flags, size


def _cut_short(what: str, **where) -> StreamFormatError:
    return StreamFormatError(f"unexpected end of stream while reading {what}",
                             **where)


def _slab_cycles(slabs: Iterable[_Slab]) -> Iterator[AcquisitionCycle]:
    """The record model of decoded slabs, one cycle at a time.  The columns
    become Python values for whole cycles of about 4,096 records at once:
    a ``tolist`` per cycle costs more, and of a whole slab more memory."""
    for slab in slabs:
        stops = np.cumsum(slab.count, dtype=np.int64)
        starts = stops - slab.count
        for r0, r1 in _slab_runs(starts, _PIECE >> 4):
            lo, hi = int(starts[r0]), int(stops[r1 - 1])
            records = map(TimestampRecord, slab.pixel[lo:hi].tolist(),
                          slab.time[lo:hi].tolist(), [None] * (hi - lo)
                          if slab.raw is None else slab.raw[lo:hi].tolist())
            for index, n in zip(slab.index[r0:r1].tolist(),
                                slab.count[r0:r1].tolist()):
                yield AcquisitionCycle(index, tuple(islice(records, n)))


# ---------------------------------------------------------------------------
# shared helpers

def _header_bytes(header: StreamHeader, version: int, *,
                  cycle_count: int) -> bytes:
    """The serialized header; refuses one the readers would reject."""
    sensor = header.sensor
    out = [_HEADER.pack(MAGIC, version, sensor.num_pixels,
                        sensor.cycle_period_ps, sensor.tdc_bins_per_clock,
                        sensor.clock_period_ps)]
    out.append(_U16.pack(len(header.metadata)))
    for key, val in header.metadata.items():
        if key == "total_cycles":
            _check_total_cycles(str(val))
        kb, vb = key.encode(), str(val).encode()
        if len(kb) > 0xFFFF or len(vb) > 0xFFFF:
            raise ValueError("metadata entry longer than 65535 bytes")
        out.append(_U16.pack(len(kb)) + kb + _U16.pack(len(vb)) + vb)
    out.append(_U64.pack(cycle_count))
    return b"".join(out)


def _write_cycle(sink: BinaryIO, cycle: AcquisitionCycle,
                 sensor: SensorConfig) -> int:
    prev_key = (-1, -1)
    body = []
    for rec in cycle.records:
        if not 0 <= rec.pixel < sensor.num_pixels:
            raise StreamFormatError(f"pixel {rec.pixel} out of range",
                                    cycle_index=cycle.cycle_index)
        if not 0 <= rec.time_ps < sensor.cycle_period_ps:
            raise StreamFormatError(f"time {rec.time_ps} outside cycle",
                                    cycle_index=cycle.cycle_index)
        key = (rec.time_ps, rec.pixel)
        if key < prev_key:
            raise StreamFormatError("records not sorted by (time, pixel)",
                                    cycle_index=cycle.cycle_index)
        prev_key = key
        if rec.raw_code is None:
            body.append(_REC_PLAIN.pack(rec.pixel, rec.time_ps, 0))
        else:
            body.append(_REC_RAW.pack(rec.pixel, rec.time_ps, _FLAG_RAW,
                                      rec.raw_code))
    blob = _CYCLE_HEADER.pack(cycle.cycle_index, len(cycle.records)) + b"".join(body)
    sink.write(blob)
    return len(blob)


def _read_exact(source: BinaryIO, n: int, what: str) -> bytes:
    data = source.read(n)
    if len(data) != n:
        raise _cut_short(what)
    return data


def _read_length_prefixed(source: BinaryIO, what: str) -> bytes:
    (n,) = _U16.unpack(_read_exact(source, 2, what + " length"))
    return _read_exact(source, n, what)


def _read_into(source: BinaryIO, out: np.ndarray, offset: int) -> None:
    """Fill ``out`` with the next bytes of ``source``, as they lie there;
    a source that ends first cuts the slab at ``offset`` short."""
    view = memoryview(out).cast("B")
    while view.nbytes:
        n = source.readinto(view)
        if not n:
            raise _cut_short("a slab", offset=offset)
        view = view[n:]


def _read_upto(source: BinaryIO, n: int) -> bytes:
    """``n`` bytes, or fewer at the end of the stream, read in pieces so
    that a size claimed by corrupt bytes allocates nothing up front."""
    parts = []
    while n > 0:
        data = source.read(min(n, _READ_CHUNK))
        if not data:
            break
        parts.append(data)
        n -= len(data)
    return b"".join(parts)


def _lex_ordered(*keys: np.ndarray) -> np.ndarray:
    """Per adjacent pair of rows: lexicographically nondecreasing?

    ``keys`` run from most to least significant.  Each key is compared in
    its own dtype: a difference wraps on unsigned columns, and a cast of
    uint64 indices to int64 turns those from 2**63 on negative.
    """
    ok = None
    for key in reversed(keys):
        a, b = key[:-1], key[1:]
        ok = (a <= b) if ok is None else (a < b) | ((a == b) & ok)
    return ok


def _run_edges(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(starts, stops) of equal-value runs in a sorted array: two views of
    one array of run boundaries."""
    n = len(values)
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    change = values[1:] != values[:-1]
    bounds = np.empty(int(np.count_nonzero(change)) + 2, dtype=np.int64)
    bounds[0], bounds[-1] = 0, n
    at = 1
    for lo, hi in _pieces(n - 1):
        edges = np.flatnonzero(change[lo:hi])
        edges += lo + 1
        bounds[at:at + len(edges)] = edges
        at += len(edges)
    return bounds[:-1], bounds[1:]


def _slab_runs(starts: np.ndarray, chunk: int) -> Iterator[tuple[int, int]]:
    """Yield [r0, r1) groups of whole runs covering about ``chunk`` items.

    ``starts`` holds each run's first item ordinal; a single run larger than
    ``chunk`` gets a slab of its own.
    """
    n_runs = len(starts)
    r0 = 0
    while r0 < n_runs:
        r1 = int(np.searchsorted(starts, int(starts[r0]) + chunk, side="left"))
        r1 = min(max(r1, r0 + 1), n_runs)
        yield r0, r1
        r0 = r1


def _check_total_cycles(value: str) -> None:
    """Refuse a ``total_cycles`` metadata entry that is not the plain
    decimal of an integer in [0, 2**64): the acquisition length, and every
    rate over it, comes from this entry."""
    try:
        ok = str(int(value)) == value and 0 <= int(value) < 1 << 64
    except ValueError:
        ok = False
    if not ok:
        raise StreamFormatError(
            f"metadata total_cycles {value!r} is not a cycle count")


def _total_cycles(header: StreamHeader, last_index: int) -> int:
    return max(int(header.metadata.get("total_cycles", 0)), last_index + 1)
