"""Stream container: round trips, validation, parser totality."""

from __future__ import annotations

import dataclasses
import io
import os
import pathlib
import re
import struct
import subprocess
import sys
import tempfile
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (column_bytes, random_cycles, random_header,
                      stream_bytes, traced_peak, with_metadata_entry)
from spadkit import (
    AcquisitionCycle,
    PhotonStream,
    SensorConfig,
    StreamFormatError,
    StreamHeader,
    TimestampRecord,
    read_stream,
    write_stream,
)
from spadkit import timestream
from spadkit.timestream import STREAMING_CYCLE_COUNT

SENSOR = SensorConfig()
HEADER = StreamHeader(SENSOR)


def roundtrip(cycles, header=HEADER):
    data = stream_bytes(header, cycles)
    h, it = read_stream(io.BytesIO(data))
    return data, h, list(it)


def read_via_stream(data):
    """The streaming reader's cycles as columns; the acquisition spans the
    last serialized cycle or the ``total_cycles`` metadata, the longer."""
    h, it = read_stream(io.BytesIO(data))
    return PhotonStream.from_cycles(h, list(it),
                                    timestream._total_cycles(h, -1))


def assert_same_stream(got, want):
    assert got.header == want.header
    for name in ("cycle_index", "pixel", "time_ps", "raw_code"):
        g, w = getattr(got, name), getattr(want, name)
        if w is None:
            assert g is None, name
        else:
            assert g.dtype == w.dtype and np.array_equal(g, w), name
    assert got.total_cycles == want.total_cycles


def assert_same_columns(got, want):
    assert_same_stream(got, dataclasses.replace(want, header=got.header))


def read_outcome(read, data):
    """``read(data)``, or the fields of the format error it raises."""
    try:
        return read(data)
    except StreamFormatError as exc:
        return (str(exc), exc.cycle_index, exc.offset)


def assert_readers_agree(data):
    want = read_outcome(read_via_stream, data)
    got = read_outcome(lambda b: PhotonStream.read(io.BytesIO(b)), data)
    if isinstance(want, PhotonStream):
        assert isinstance(got, PhotonStream), got
        assert_same_stream(got, want)
    else:
        assert got == want


# ---------------------------------------------------------------------------
# basic round trips

def test_empty_stream_roundtrip():
    data, h, back = roundtrip([])
    assert back == []
    assert h.sensor == SENSOR
    # header only: no cycle blocks follow
    assert len(data) == 22 + 2 + 8


def test_single_record_roundtrip():
    cycles = [AcquisitionCycle(0, (TimestampRecord(17, 123456),))]
    _, _, back = roundtrip(cycles)
    assert back == cycles


def test_raw_code_roundtrip():
    cycles = [AcquisitionCycle(2, (TimestampRecord(1, 10, raw_code=139),))]
    _, _, back = roundtrip(cycles)
    assert back[0].records[0].raw_code == 139


def test_metadata_roundtrip():
    header = StreamHeader(SENSOR, metadata={"operator": "x", "note": "run 7"})
    _, h, _ = roundtrip([], header=header)
    assert dict(h.metadata) == {"operator": "x", "note": "run 7"}


def test_empty_cycles_preserved():
    cycles = [AcquisitionCycle(0, ()), AcquisitionCycle(9, ())]
    _, _, back = roundtrip(cycles)
    assert [c.cycle_index for c in back] == [0, 9]


def test_from_cycles_counts_trailing_empty_cycle():
    cycles = [AcquisitionCycle(0, (TimestampRecord(3, 100),)),
              AcquisitionCycle(9, ())]
    assert PhotonStream.from_cycles(HEADER, cycles).total_cycles == 10


@pytest.mark.parametrize("field, limit", [
    ("num_pixels", 1 << 16), ("tdc_bins_per_clock", 1 << 16),
    ("clock_period_ps", 1 << 32), ("cycle_period_ps", 1 << 64)])
def test_sensor_refuses_what_the_header_cannot_store(field, limit):
    base = dict(cycle_period_ps=1 << 40)
    with pytest.raises(ValueError, match=field):
        SensorConfig(**{**base, field: limit})
    largest = SensorConfig(**{**base, field: limit - 1})
    _, h, _ = roundtrip([], header=StreamHeader(largest))
    assert h.sensor == largest


def test_rewrite_is_bit_identical():
    rng = np.random.default_rng(7)
    cycles = random_cycles(rng, SENSOR, max_cycles=20, max_records=10)
    data = stream_bytes(HEADER, cycles)
    h, it = read_stream(io.BytesIO(data))
    again = stream_bytes(h, list(it))
    assert again == data


# ---------------------------------------------------------------------------
# structural rejection

def test_bad_magic():
    data = b"NOPE" + bytes(40)
    with pytest.raises(StreamFormatError, match="magic"):
        read_stream(io.BytesIO(data))


def test_unknown_version_rejected():
    data = bytearray(stream_bytes(HEADER, []))
    data[4] = 99
    with pytest.raises(StreamFormatError, match="version"):
        read_stream(io.BytesIO(bytes(data)))


def test_truncated_mid_cycle_names_cycle():
    cycles = [AcquisitionCycle(0, (TimestampRecord(1, 5), TimestampRecord(2, 6)))]
    data = stream_bytes(HEADER, cycles)
    h, it = read_stream(io.BytesIO(data[:-4]))
    with pytest.raises(StreamFormatError, match="cycle 0"):
        list(it)


def test_truncated_stream_same_error_from_both_readers():
    cycles = [AcquisitionCycle(0, (TimestampRecord(1, 5), TimestampRecord(2, 6))),
              AcquisitionCycle(3, (TimestampRecord(4, 7, raw_code=9),
                                   TimestampRecord(5, 8)))]
    data = stream_bytes(HEADER, cycles)
    # 32-byte header, 12-byte cycle header, 11-byte plain records: stop
    # 7 bytes into cycle 0's second record
    cut = data[:32 + 12 + 11 + 7]
    with pytest.raises(StreamFormatError) as streamed:
        list(read_stream(io.BytesIO(cut))[1])
    with pytest.raises(StreamFormatError) as columnar:
        PhotonStream.read(io.BytesIO(cut))
    for exc in (streamed.value, columnar.value):
        assert (exc.cycle_index, exc.offset) == (0, 32 + 12 + 11)
    for n in range(32, len(data)):
        assert_readers_agree(data[:n])


def test_cycle_count_mismatch():
    data = bytearray(stream_bytes(HEADER, [AcquisitionCycle(0, ())]))
    # cycle_count u64 lives right before the first cycle block
    struct.pack_into("<Q", data, 24, 5)
    h, it = read_stream(io.BytesIO(bytes(data)))
    with pytest.raises(StreamFormatError, match="promises 5"):
        list(it)


def test_streaming_sentinel_accepts_any_count():
    buf = io.BytesIO()
    write_stream(HEADER, [AcquisitionCycle(3, ())], buf,
                 cycle_count=STREAMING_CYCLE_COUNT)
    buf.seek(0)
    _, it = read_stream(buf)
    assert len(list(it)) == 1


def test_nonincreasing_cycle_index_rejected():
    buf = io.BytesIO()
    with pytest.raises(StreamFormatError, match="strictly increasing"):
        write_stream(HEADER, [AcquisitionCycle(4, ()), AcquisitionCycle(4, ())], buf)
    # and on read, with hand-built bytes
    good = stream_bytes(HEADER, [AcquisitionCycle(0, ()), AcquisitionCycle(1, ())])
    bad = bytearray(good)
    struct.pack_into("<Q", bad, len(good) - 12, 0)  # second cycle index -> 0
    _, it = read_stream(io.BytesIO(bytes(bad)))
    with pytest.raises(StreamFormatError, match="strictly increasing"):
        list(it)


def test_unsorted_records_rejected_not_reordered():
    # bytes for two records out of (time, pixel) order
    body = stream_bytes(HEADER, [AcquisitionCycle(
        0, (TimestampRecord(0, 100), TimestampRecord(0, 200)))])
    swapped = bytearray(body)
    rec0 = swapped[44:55]
    swapped[44:55] = swapped[55:66]
    swapped[55:66] = rec0
    _, it = read_stream(io.BytesIO(bytes(swapped)))
    with pytest.raises(StreamFormatError, match="sorted"):
        list(it)
    with pytest.raises(StreamFormatError, match="sorted"):
        PhotonStream.read(io.BytesIO(bytes(swapped)))


def test_tie_broken_by_pixel_is_accepted():
    cycles = [AcquisitionCycle(0, (TimestampRecord(3, 50), TimestampRecord(9, 50)))]
    _, _, back = roundtrip(cycles)
    assert back == cycles


def test_out_of_range_record_rejected():
    for rec in (TimestampRecord(SENSOR.num_pixels, 5),
                TimestampRecord(0, SENSOR.cycle_period_ps)):
        buf = io.BytesIO()
        with pytest.raises(StreamFormatError):
            write_stream(HEADER, [AcquisitionCycle(0, (rec,))], buf)


def test_reserved_flag_bits_rejected():
    data = bytearray(stream_bytes(
        HEADER, [AcquisitionCycle(0, (TimestampRecord(1, 5),))]))
    data[-1] = 0x82  # flags byte of the only record
    with pytest.raises(StreamFormatError, match="flag"):
        list(read_stream(io.BytesIO(bytes(data)))[1])
    with pytest.raises(StreamFormatError, match="flag"):
        PhotonStream.read(io.BytesIO(bytes(data)))


BAD_TOTALS = ["abc", "", "+10", " 10", "10 ", "010", "-0", "-1", "1_0",
              "10.0", "\u0661\u0660", str(2**64)]


@pytest.mark.parametrize("version", [1, 2])
@pytest.mark.parametrize("value", BAD_TOTALS)
def test_malformed_total_cycles_same_error_from_both_readers(version, value):
    # one cycle at index 9: a fallback to the cycle span would read 10
    cycles = [AcquisitionCycle(9, (TimestampRecord(3, 100),))]
    data = stream_bytes(HEADER, cycles) if version == 1 else \
        columnar_bytes(PhotonStream.from_cycles(HEADER, cycles))
    data = with_metadata_entry(data, "total_cycles", value)
    assert version_of(data) == version
    for read in (lambda b: list(read_stream(io.BytesIO(b))[1]),
                 lambda b: PhotonStream.read(io.BytesIO(b))):
        with pytest.raises(StreamFormatError,
                           match=re.escape(f"total_cycles {value!r} is not")):
            read(data)
    assert_readers_agree(data)


@pytest.mark.parametrize("value, total", [("0", 10), ("10", 10), ("42", 42),
                                          (str(2**64 - 1), 2**64 - 1)])
def test_plain_decimal_total_cycles_accepted(value, total):
    data = with_metadata_entry(
        stream_bytes(HEADER, [AcquisitionCycle(9, (TimestampRecord(3, 100),))]),
        "total_cycles", value)
    assert PhotonStream.read(io.BytesIO(data)).total_cycles == total
    assert_readers_agree(data)


@pytest.mark.parametrize("value", BAD_TOTALS)
def test_writers_refuse_malformed_total_cycles(value):
    header = StreamHeader(SENSOR, metadata={"total_cycles": value})
    empty = PhotonStream(header, cycle_index=np.empty(0, np.uint64),
                         pixel=np.empty(0, np.uint16), time_ps=np.empty(0))
    for write in (lambda sink: write_stream(header, [AcquisitionCycle(9, ())],
                                            sink),
                  empty.write):
        sink = io.BytesIO()
        with pytest.raises(StreamFormatError,
                           match=re.escape(f"total_cycles {value!r} is not")):
            write(sink)
        assert sink.getvalue() == b""
    # a stream's own cycle count replaces the entry it inherited
    stream = PhotonStream.from_cycles(
        header, [AcquisitionCycle(9, (TimestampRecord(3, 100),))])
    back = PhotonStream.read(io.BytesIO(columnar_bytes(stream)))
    assert back.header.metadata["total_cycles"] == "10"


# ---------------------------------------------------------------------------
# columnar model

def test_columnar_read_matches_record_read():
    rng = np.random.default_rng(21)
    cycles = [c for c in random_cycles(rng, SENSOR, max_cycles=30) if c.records]
    data = stream_bytes(HEADER, cycles)
    ps = PhotonStream.read(io.BytesIO(data))
    assert ps.header.version == 1
    assert_same_columns(ps, PhotonStream.from_cycles(HEADER, cycles))
    assert ps.n_records == sum(len(c.records) for c in cycles)


def test_columnar_write_read_roundtrip():
    rng = np.random.default_rng(22)
    cycles = [c for c in random_cycles(rng, SENSOR, max_cycles=30, raw=True)
              if c.records]
    ps = PhotonStream.from_cycles(HEADER, cycles)
    buf = io.BytesIO()
    ps.write(buf)
    buf.seek(0)
    ps2 = PhotonStream.read(buf)
    assert_same_columns(ps2, ps)
    buf2 = io.BytesIO()
    ps2.write(buf2)
    assert buf2.getvalue() == buf.getvalue()


def test_columnar_validate_rejects_unsorted():
    ps = PhotonStream(
        HEADER,
        cycle_index=np.array([0, 0], dtype=np.uint64),
        pixel=np.array([1, 1], dtype=np.uint16),
        time_ps=np.array([200.0, 100.0]),
    )
    with pytest.raises(StreamFormatError, match="sorted"):
        ps.validate()
    # (cycle, time) tie broken by a decreasing pixel
    ps = PhotonStream(
        HEADER,
        cycle_index=np.array([0, 0], dtype=np.uint64),
        pixel=np.array([9, 3], dtype=np.uint16),
        time_ps=np.array([50.0, 50.0]),
    )
    with pytest.raises(StreamFormatError, match="sorted"):
        ps.validate()


@pytest.mark.parametrize("piece", [1, 2, 3])
def test_validate_checks_across_its_pieces(piece):
    # every adjacent pair of records is checked, also where a piece ends,
    # and every record's window, also in the last piece
    n = 7
    ordered = PhotonStream(
        HEADER, cycle_index=np.arange(n, dtype=np.uint64),
        pixel=np.zeros(n, dtype=np.uint16), time_ps=np.full(n, 100.0))
    with mock.patch.object(timestream, "_PIECE", piece):
        ordered.validate()
        for k in range(n - 1):
            swapped = np.arange(n, dtype=np.uint64)
            swapped[[k, k + 1]] = k + 1, k
            with pytest.raises(StreamFormatError, match="sorted"):
                dataclasses.replace(ordered, cycle_index=swapped).validate()
        for k in range(n):
            late = ordered.time_ps.copy()
            late[k] = SENSOR.cycle_period_ps
            with pytest.raises(StreamFormatError, match="outside cycle"):
                dataclasses.replace(ordered, time_ps=late).validate()


def test_cycle_index_beyond_2_63_roundtrip():
    index = 2**63 + 5
    cycles = [AcquisitionCycle(0, (TimestampRecord(3, 10),)),
              AcquisitionCycle(index, (TimestampRecord(2, 40),
                                       TimestampRecord(1, 70)))]
    ps = PhotonStream.from_cycles(HEADER, cycles)
    buf = io.BytesIO()
    ps.write(buf)
    back = PhotonStream.read(io.BytesIO(buf.getvalue()))
    assert_same_columns(back, ps)
    assert back.total_cycles == index + 1
    assert list(read_stream(io.BytesIO(buf.getvalue()))[1]) == cycles


def test_out_of_window_stream_refuses_serialization():
    # What a delay correction leaves: sorted, but a time before the cycle.
    ps = PhotonStream(
        HEADER,
        cycle_index=np.array([0, 0], dtype=np.uint64),
        pixel=np.array([1, 0], dtype=np.uint16),
        time_ps=np.array([-40.0, 100.0]),
    )
    np.testing.assert_array_equal(
        np.lexsort((ps.pixel, ps.time_ps, ps.cycle_index)), [0, 1])
    with pytest.raises(StreamFormatError, match="outside cycle"):
        ps.validate()
    sink = io.BytesIO()
    with pytest.raises(StreamFormatError, match="outside cycle"):
        ps.write(sink)
    assert sink.getvalue() == b""


def test_refused_write_leaves_an_existing_file_unchanged(tmp_path):
    path = tmp_path / "s.spk1"
    path.write_bytes(b"previous run")
    one = dict(cycle_index=np.array([0], dtype=np.uint64),
               pixel=np.array([1], dtype=np.uint16),
               time_ps=np.array([100.0]))
    empty = dict(cycle_index=np.empty(0, dtype=np.uint64),
                 pixel=np.empty(0, dtype=np.uint16),
                 time_ps=np.empty(0))
    for header, columns, error in (
            (HEADER.with_metadata(note="x" * 0x10000), one, ValueError),
            # an empty stream keeps its header's total_cycles entry
            (HEADER.with_metadata(total_cycles="-1"), empty,
             StreamFormatError),
            (HEADER, {**one, "time_ps": np.array([-40.0])},
             StreamFormatError)):
        with pytest.raises(error):
            PhotonStream(header, **columns).write(str(path))
        assert path.read_bytes() == b"previous run"


def test_write_refuses_what_the_readers_reject():
    def stream_with(**columns):
        base = dict(cycle_index=np.array([0, 0], dtype=np.uint64),
                    pixel=np.array([1, 2], dtype=np.uint16),
                    time_ps=np.array([100.0, 200.0]))
        return PhotonStream(HEADER, **{**base, **columns})

    too_high = np.array([1, SENSOR.num_pixels], dtype=np.uint16)
    # Times are written rounded to integer ps, so the rounded times must
    # be valid: the last case rounds up to the cycle period, the last but
    # one to a (time, pixel) tie in the wrong pixel order.
    period = SENSOR.cycle_period_ps
    for bad in (stream_with(time_ps=np.array([-5.0, 200.0])),
                stream_with(pixel=too_high),
                stream_with(time_ps=np.array([200.0, 100.0])),  # unsorted
                stream_with(pixel=np.array([5, 3], dtype=np.uint16),
                            time_ps=np.array([10.4, 10.5])),
                stream_with(time_ps=np.array([100.0, period - 0.4]))):
        sink = io.BytesIO()
        with pytest.raises(StreamFormatError):
            bad.write(sink)
        assert sink.getvalue() == b""


# ---------------------------------------------------------------------------
# format version 2: columnar slabs

def columnar_bytes(stream, slab_records=None):
    """``stream.write`` output, cut into slabs of about ``slab_records``."""
    buf = io.BytesIO()
    with mock.patch.object(timestream, "_IO_CHUNK",
                           slab_records or timestream._IO_CHUNK):
        stream.write(buf)
    return buf.getvalue()


def payload_offset(data):
    return timestream._read_header(io.BytesIO(data))[2]


def version_of(data):
    return struct.unpack_from("<H", data, 4)[0]


def nonempty_stream(seed, raw):
    cycles = random_cycles(np.random.default_rng(seed), SENSOR,
                           max_cycles=12, raw=raw)
    stream = PhotonStream.from_cycles(HEADER, cycles)
    assert stream.n_records > 4
    return stream


@pytest.mark.parametrize("raw", [False, True])
@pytest.mark.parametrize("slab_records", [2, None])
def test_columnar_write_is_version_2_read_by_both_readers(raw, slab_records):
    stream = nonempty_stream(31, raw)
    data = columnar_bytes(stream, slab_records)
    assert version_of(data) == 2
    back = PhotonStream.read(io.BytesIO(data))
    assert back.header.version == 2
    assert_same_columns(back, stream)
    assert_readers_agree(data)
    for n in range(len(data)):
        assert_readers_agree(data[:n])


def test_each_writer_writes_its_own_version():
    stream = nonempty_stream(32, raw=True)
    v2 = columnar_bytes(stream)
    header, cycles = read_stream(io.BytesIO(v2))
    cycles = list(cycles)
    # a header read from a v2 file still gives a v1 file here
    v1 = stream_bytes(header, cycles)
    assert (header.version, version_of(v1)) == (2, 1)
    assert list(read_stream(io.BytesIO(v1))[1]) == cycles
    back = PhotonStream.read(io.BytesIO(v1))
    assert_same_columns(back, stream)
    assert_readers_agree(v1)
    # and a v1 header gives a v2 file, the same bytes as before
    assert back.header.version == 1
    assert columnar_bytes(back) == v2


def test_unknown_version_rejected_by_both_readers():
    data = bytearray(columnar_bytes(nonempty_stream(33, raw=False)))
    struct.pack_into("<H", data, 4, 3)
    for read in (lambda b: read_stream(io.BytesIO(b)),
                 lambda b: PhotonStream.read(io.BytesIO(b))):
        with pytest.raises(StreamFormatError, match="version 3"):
            read(bytes(data))


def test_slabs_must_agree_on_the_raw_flag():
    def one_slab(index, raw_code):
        cycle = AcquisitionCycle(index, (TimestampRecord(2, 7, raw_code),))
        return columnar_bytes(
            PhotonStream.from_cycles(HEADER, [cycle], total_cycles=9))

    start = payload_offset(one_slab(0, None))
    for first, second in ((None, 3), (3, None)):
        a, b = one_slab(0, first), one_slab(4, second)
        data = bytearray(a + b[start:])
        struct.pack_into("<Q", data, start - 8, 2)  # cycle count
        with pytest.raises(StreamFormatError, match="raw flag") as exc:
            PhotonStream.read(io.BytesIO(bytes(data)))
        assert exc.value.offset == len(a)
        assert_readers_agree(bytes(data))


def put(fmt, at, value):
    def mutate(data, start):
        struct.pack_into(fmt, data, start + at, value)
    return mutate


# Three cycles in two slabs: cycle 0 holds records (1, 5 ps) and (2, 6 ps),
# cycles 3 and 8 one record each.  Offsets count from the payload: slab 1
# header at 0, its index at 17, counts 25, pixels 29, times 33; slab 2
# header at 49, indices 66, counts 82, pixels 90, times 94, end at 110.
SLAB_DEFECTS = [
    ("reserved flags", put("<B", 16, 0x82), "reserved flag bits 0x82",
     None, 0),
    ("no cycles", put("<Q", 0, 0), "no cycles", None, 0),
    ("record count", put("<Q", 8, 1), "promises 1 records", None, 0),
    ("index across slabs", put("<Q", 66, 0), "strictly increasing", 0, 66),
    ("index within slab", put("<Q", 74, 3), "strictly increasing", 3, 74),
    ("pixel", put("<H", 92, SENSOR.num_pixels), "pixel 256", 8, 92),
    ("time", put("<Q", 94, SENSOR.cycle_period_ps), "outside cycle", 3, 94),
    ("order", put("<Q", 41, 4), "not sorted", 0, 41),
    ("cycle count", put("<Q", -8, 5), "promises 5 cycles, found 3", None, 110),
]


@pytest.mark.parametrize("mutate, match, cycle, at",
                         [case[1:] for case in SLAB_DEFECTS],
                         ids=[case[0] for case in SLAB_DEFECTS])
def test_slab_defects_same_error_from_both_readers(mutate, match, cycle, at):
    stream = PhotonStream.from_cycles(HEADER, [
        AcquisitionCycle(0, (TimestampRecord(1, 5), TimestampRecord(2, 6))),
        AcquisitionCycle(3, (TimestampRecord(4, 7),)),
        AcquisitionCycle(8, (TimestampRecord(5, 9),))])
    good = columnar_bytes(stream, slab_records=2)
    start = payload_offset(good)
    assert len(good) == start + 110
    data = bytearray(good)
    mutate(data, start)
    with pytest.raises(StreamFormatError, match=match) as exc:
        PhotonStream.read(io.BytesIO(bytes(data)))
    assert (exc.value.cycle_index, exc.value.offset) == (cycle, start + at)
    assert_readers_agree(bytes(data))


def mixed_cycles():
    """Cycles of 1, 3, 1 and 2 records; the first two have no raw codes,
    the third has one, and the last mixes a plain and a raw record."""
    rec = TimestampRecord
    return [AcquisitionCycle(0, (rec(1, 5),)),
            AcquisitionCycle(2, (rec(1, 5), rec(3, 5), rec(0, 9))),
            AcquisitionCycle(5, (rec(7, 2, raw_code=17),)),
            AcquisitionCycle(6, (rec(2, 4), rec(2, 8, raw_code=0)))]


@pytest.mark.parametrize("piece", [1, 2, 3, timestream._PIECE])
def test_v1_mixed_raw_and_plain_round_trip_bit_for_bit(piece):
    data = stream_bytes(HEADER, mixed_cycles())
    with mock.patch.object(timestream, "_PIECE", piece):
        header, cycles = read_stream(io.BytesIO(data))
        cycles = list(cycles)
        assert cycles == mixed_cycles()
        assert stream_bytes(header, cycles) == data
        assert_readers_agree(data)


def test_v1_slabs_of_whole_cycles_with_codes_only_in_a_later_slab():
    # slabs of at most 2 records, or one larger cycle: the first two have
    # no raw codes, the last mixes a plain and a raw record
    cycles = mixed_cycles()
    data = stream_bytes(HEADER, cycles)
    with mock.patch.object(timestream, "_PIECE", 2):
        header, _, offset = timestream._read_header(io.BytesIO(data))
        source = io.BytesIO(data[offset:])
        slabs = list(timestream._iter_slabs(source, header, len(cycles), 0))
        back = PhotonStream.read(io.BytesIO(data))
    assert [slab.count.tolist() for slab in slabs] == [[1], [3], [1], [2]]
    assert [slab.raw is None for slab in slabs] == [True, True, False, False]
    want = PhotonStream.from_cycles(HEADER, cycles)
    assert_same_columns(back, want)
    assert back.raw_code.tolist() == [0, 0, 0, 0, 17, 0, 0]


def cut(n):
    def mutate(data, start):
        del data[len(data) - n:]
    return mutate


# The cycles of SLAB_DEFECTS as v1, all plain.  Offsets count from the
# payload: cycle headers at 0, 34 and 57, records at 12, 23, 46 and 69
# (pixel at +0, time at +2, flags at +10), the end at 80.
V1_DOUBLE_DEFECTS = [
    # each rule runs over the whole slab in turn: a pixel out of range
    # comes before an earlier time out of range or an unsorted record
    ("pixel over time", [put("<Q", 25, SENSOR.cycle_period_ps),
                         put("<H", 69, SENSOR.num_pixels)], "pixel 256", 8, 69),
    ("index over order", [put("<Q", 25, 4), put("<Q", 57, 3)],
     "strictly increasing", 3, 57),
    # the records before a layout fault pass the checker first ...
    ("pixel, then cut", [put("<H", 12, SENSOR.num_pixels), cut(3)],
     "pixel 256", 0, 12),
    ("pixel, then flags", [put("<H", 12, SENSOR.num_pixels),
                           put("<B", 56, 0x82)], "pixel 256", 0, 12),
    # ... and the records after one are never read
    ("flags, then pixel", [put("<B", 56, 0x82),
                           put("<H", 69, SENSOR.num_pixels)],
     "reserved flag bits 0x82", 3, 46),
]


@pytest.mark.parametrize("mutations, match, cycle, at",
                         [case[1:] for case in V1_DOUBLE_DEFECTS],
                         ids=[case[0] for case in V1_DOUBLE_DEFECTS])
def test_v1_double_defects_same_error_from_both_readers(mutations, match,
                                                        cycle, at):
    good = stream_bytes(HEADER, [
        AcquisitionCycle(0, (TimestampRecord(1, 5), TimestampRecord(2, 6))),
        AcquisitionCycle(3, (TimestampRecord(4, 7),)),
        AcquisitionCycle(8, (TimestampRecord(5, 9),))])
    start = payload_offset(good)
    assert len(good) == start + 80
    data = bytearray(good)
    for mutate in mutations:
        mutate(data, start)
    with pytest.raises(StreamFormatError, match=match) as exc:
        list(read_stream(io.BytesIO(bytes(data)))[1])
    assert (exc.value.cycle_index, exc.value.offset) == (cycle, start + at)
    assert_readers_agree(bytes(data))


class Pipe:
    """A source that reads like a pipe: it cannot seek."""

    def __init__(self, data: bytes):
        self._data = io.BytesIO(data)

    def read(self, n: int = -1) -> bytes:
        return self._data.read(n)

    def seekable(self) -> bool:
        return False


def read_from_each_source(data, tmp_dir):
    """``PhotonStream.read`` of ``data`` from a file path, ``io.BytesIO``
    (both seekable) and a ``Pipe``, or the fields of the error each
    raises."""
    path = os.path.join(tmp_dir, "s.spk1")
    with open(path, "wb") as fh:
        fh.write(data)
    return [read_outcome(PhotonStream.read, source)
            for source in (path, io.BytesIO(data), Pipe(data))]


# The cycles of SLAB_DEFECTS in one slab.  Offsets count from the payload:
# slab header at 0, indices at 17, counts 41, pixels 53 (record k's at
# 53 + 2k), times 61 (record k's at 61 + 8k), the end at 93.
V2_DOUBLE_DEFECTS = [
    # each rule runs over the whole slab, piece after piece, in turn
    ("pixel over time", [put("<Q", 69, SENSOR.cycle_period_ps),
                         put("<H", 59, SENSOR.num_pixels)], "pixel 256", 8, 59),
    ("index over order", [put("<Q", 69, 4), put("<Q", 33, 3)],
     "strictly increasing", 3, 33),
    ("time over order", [put("<Q", 69, 4),
                         put("<Q", 85, SENSOR.cycle_period_ps)],
     "outside cycle", 8, 85),
    # the first offending entry, whichever piece holds the other
    ("first of two pixels", [put("<H", 59, SENSOR.num_pixels),
                             put("<H", 55, SENSOR.num_pixels + 1)],
     "pixel 257", 0, 55),
    ("first of two indices", [put("<Q", 33, 0), put("<Q", 25, 0)],
     "strictly increasing", 0, 25),
    # the slab's layout comes before its contents
    ("counts, then pixel", [put("<H", 53, SENSOR.num_pixels),
                            put("<I", 41, 3)],
     "promises 4 records, its cycles hold 5", None, 0),
    ("pixel, then cut", [put("<H", 53, SENSOR.num_pixels), cut(3)],
     "end of stream while reading a slab", None, 0),
]


@pytest.mark.parametrize("piece", [1, 2])
@pytest.mark.parametrize("mutations, match, cycle, at",
                         [case[1:] for case in V2_DOUBLE_DEFECTS],
                         ids=[case[0] for case in V2_DOUBLE_DEFECTS])
def test_v2_double_defects_same_error_from_every_source(
        mutations, match, cycle, at, piece, tmp_path):
    stream = PhotonStream.from_cycles(HEADER, [
        AcquisitionCycle(0, (TimestampRecord(1, 5), TimestampRecord(2, 6))),
        AcquisitionCycle(3, (TimestampRecord(4, 7),)),
        AcquisitionCycle(8, (TimestampRecord(5, 9),))])
    good = columnar_bytes(stream)
    start = payload_offset(good)
    assert len(good) == start + 93
    data = bytearray(good)
    for mutate in mutations:
        mutate(data, start)
    with mock.patch.object(timestream, "_PIECE", piece):
        outcomes = read_from_each_source(bytes(data), tmp_path)
        assert_readers_agree(bytes(data))
    message, got_cycle, got_at = outcomes[0]
    assert re.search(match, message)
    assert (got_cycle, got_at) == (cycle, start + at)
    assert outcomes == [outcomes[0]] * 3


def dense_stream(n_cycles, per_cycle, raw):
    """Cycles 2, 5, 8, ... of ``per_cycle`` records each, times 10 ps
    apart from 5 ps and pixels cycling over eight, raw codes if ``raw``."""
    k = np.arange(n_cycles * per_cycle)
    index = 2 + 3 * np.arange(n_cycles, dtype=np.uint64)
    return PhotonStream(HEADER, np.repeat(index, per_cycle),
                        (k % 8).astype(np.uint16),
                        (5 + 10 * (k % per_cycle)).astype(np.float64),
                        (k % 140).astype(np.uint32) if raw else None)


# Cycles 2, 5 and 8 of six records each in one slab: record k is record
# k % 6 of cycle k // 6.  Offsets count from the payload: slab header at
# 0, indices at 17, counts 41, pixels 53 (record k's at 53 + 2k), times 89
# (record k's at 89 + 8k), the end at 233.
DENSE_DEFECTS = [
    ("index", put("<Q", 25, 1), "strictly increasing", 1, 25),
    ("pixel", put("<H", 69, SENSOR.num_pixels), "pixel 256", 5, 69),
    ("time", put("<Q", 201, SENSOR.cycle_period_ps), "outside cycle", 8,
     201),
    ("order", put("<Q", 145, 0), "not sorted", 5, 145),
]


@pytest.mark.parametrize("piece", [2, 4, 16, timestream._PIECE])
@pytest.mark.parametrize("mutate, match, cycle, at",
                         [case[1:] for case in DENSE_DEFECTS],
                         ids=[case[0] for case in DENSE_DEFECTS])
def test_dense_slab_defects_same_error_from_every_source(
        mutate, match, cycle, at, piece, tmp_path):
    # six records a cycle: the cycle column is filled by runs, and for a
    # piece of 2 or 4 by a slice per cycle
    good = columnar_bytes(dense_stream(3, 6, raw=False))
    start = payload_offset(good)
    assert len(good) == start + 233
    data = bytearray(good)
    mutate(data, start)
    with mock.patch.object(timestream, "_PIECE", piece):
        outcomes = read_from_each_source(bytes(data), tmp_path)
        assert_readers_agree(bytes(data))
    message, got_cycle, got_at = outcomes[0]
    assert re.search(match, message)
    assert (got_cycle, got_at) == (cycle, start + at)
    assert outcomes == [outcomes[0]] * 3


@pytest.mark.parametrize("piece", [1000, timestream._PIECE])
def test_dense_cycles_read_alike_from_every_source_and_as_v1(piece,
                                                             tmp_path):
    # 40 cycles of 3,100 raw records, the TDC calibration's shape, in
    # slabs of about 20,000 records; with a piece of 1,000 records every
    # cycle is larger than a piece
    stream = dense_stream(40, 3100, raw=True)
    v2 = columnar_bytes(stream, slab_records=20_000)
    header, cycles = read_stream(io.BytesIO(v2))
    v1 = stream_bytes(header, list(cycles))
    with mock.patch.object(timestream, "_PIECE", piece):
        for data in (v2, v1):
            for got in read_from_each_source(data, tmp_path):
                assert_same_columns(got, stream)


@pytest.mark.parametrize("slab, claim", [(0, 2**33), (0, 2**61), (1, 3),
                                         (1, 2**40)])
def test_slab_claiming_more_records_than_the_file_holds(slab, claim,
                                                        tmp_path):
    # the two slabs of SLAB_DEFECTS; each header's n_records at +8
    good = columnar_bytes(PhotonStream.from_cycles(HEADER, [
        AcquisitionCycle(0, (TimestampRecord(1, 5), TimestampRecord(2, 6))),
        AcquisitionCycle(3, (TimestampRecord(4, 7),)),
        AcquisitionCycle(8, (TimestampRecord(5, 9),))]), slab_records=2)
    start = payload_offset(good)
    at = start + (0, 49)[slab]
    data = bytearray(good)
    struct.pack_into("<Q", data, at + 8, claim)
    outcomes, peak = traced_peak(
        lambda: read_from_each_source(bytes(data), tmp_path))
    message, cycle, offset = outcomes[0]
    assert "unexpected end of stream while reading a slab" in message
    assert (cycle, offset) == (None, at)
    assert outcomes == [outcomes[0]] * 3
    assert_readers_agree(bytes(data))
    assert peak < 1 << 20  # nothing is allocated for the claim


def test_read_from_a_pipe_equals_the_read_from_a_file(tmp_path):
    stream = nonempty_stream(31, raw=True)
    data = columnar_bytes(stream, slab_records=3)
    path = tmp_path / "s.spk1"
    path.write_bytes(data)
    read, write = os.pipe()
    writer = threading.Thread(target=lambda: (os.write(write, data),
                                              os.close(write)))
    writer.start()
    with os.fdopen(read, "rb") as pipe:
        assert not pipe.seekable()
        piped = PhotonStream.read(pipe)
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert_same_stream(piped, PhotonStream.read(str(path)))
    assert_same_columns(piped, stream)


def v2_bytes(slabs):
    """A v2 file of hand-made plain slabs, each (indices, counts, pixels,
    times), which may hold cycles without records."""
    data = bytearray(columnar_bytes(PhotonStream.from_cycles(HEADER, [])))
    struct.pack_into("<Q", data, len(data) - 8,
                     sum(len(slab[0]) for slab in slabs))  # cycle count
    for index, count, pixel, time in slabs:
        data += struct.pack("<QQB", len(index), len(pixel), 0)
        for values, dtype in zip((index, count, pixel, time),
                                 ("<u8", "<u4", "<u2", "<u8")):
            data += np.array(values, dtype).tobytes()
    return bytes(data)


@pytest.mark.parametrize("piece", [1, timestream._PIECE])
def test_cycles_without_records_read_from_every_source(piece, tmp_path):
    # a slab that opens with an empty cycle, so cycle 5's records start
    # on cycle 2's index entry; then one with more cycles than records,
    # whose index and counts cannot wait in the columns
    data = v2_bytes([([0, 2, 5], [0, 1, 3], [3, 1, 2, 2], [10, 5, 9, 12]),
                     ([6, 7, 9], [0, 1, 0], [4], [8])])
    want = read_via_stream(data)
    assert want.cycle_index.tolist() == [2, 5, 5, 5, 7]
    assert want.total_cycles == 10
    with mock.patch.object(timestream, "_PIECE", piece):
        for got in read_from_each_source(data, tmp_path):
            assert_same_stream(got, want)


@pytest.mark.parametrize("piece", [1, 2, 3, timestream._PIECE])
def test_v1_cycles_without_records_read_as_their_cycles(piece, tmp_path):
    # Empty cycles first, between and last, in v1 slabs of 1 to 3 records
    # or one: each slab's cycle column is built by _fill_cycles.
    rec = TimestampRecord
    cycles = [AcquisitionCycle(0, ()),
              AcquisitionCycle(1, (rec(1, 5), rec(2, 5))),
              AcquisitionCycle(3, ()), AcquisitionCycle(4, ()),
              AcquisitionCycle(7, (rec(0, 9),)),
              AcquisitionCycle(8, (rec(3, 1), rec(1, 2), rec(2, 4))),
              AcquisitionCycle(11, ())]
    data = stream_bytes(HEADER, cycles)
    want = PhotonStream.from_cycles(HEADER, cycles)
    assert want.cycle_index.tolist() == [1, 1, 7, 8, 8, 8]
    with mock.patch.object(timestream, "_PIECE", piece):
        for got in read_from_each_source(data, tmp_path):
            assert_same_columns(got, want)


def sized_stream(n, records_per_cycle, raw, seed):
    """``n`` random records, about ``records_per_cycle`` to a cycle."""
    rng = np.random.default_rng(seed)
    cycle = np.sort(rng.integers(0, int(n / records_per_cycle) + 1, n))
    time = rng.integers(0, SENSOR.cycle_period_ps, n).astype(np.float64)
    pixel = rng.integers(0, SENSOR.num_pixels, n).astype(np.uint16)
    order = timestream.record_order(cycle, time, pixel)
    return PhotonStream(HEADER, cycle[order].astype(np.uint64), pixel[order],
                        time[order], rng.integers(0, 140, n, dtype=np.uint32)
                        if raw else None)


@pytest.mark.parametrize("records_per_cycle, raw", [(1.1, False),
                                                    (3000, True)])
@pytest.mark.parametrize("slab_records", [None, 50_000])
def test_read_holds_the_columns_and_a_few_pieces(records_per_cycle, raw,
                                                 slab_records, tmp_path):
    # flood-shaped (about one record a cycle) and TDC-shaped (dense raw
    # cycles) files of several pieces, in one slab and in six
    stream = sized_stream(300_000, records_per_cycle, raw, seed=35)
    path = tmp_path / "s.spk1"
    path.write_bytes(columnar_bytes(stream, slab_records))
    back, peak = traced_peak(lambda: PhotonStream.read(str(path)))
    assert_same_columns(back, stream)
    # measured 5.0 pieces of u64 (one slab, flood-shaped) besides the
    # columns; the whole-slab read held about twice the columns
    assert peak - column_bytes(back) <= 8 * 8 * timestream._PIECE


# ---------------------------------------------------------------------------
# properties

@st.composite
def cycles_strategy(draw):
    sensor = SENSOR
    n_cycles = draw(st.integers(0, 6))
    cycles = []
    index = -1
    for _ in range(n_cycles):
        index += draw(st.integers(1, 4))
        n = draw(st.integers(0, 5))
        keys = sorted(
            draw(st.tuples(st.integers(0, sensor.cycle_period_ps - 1),
                           st.integers(0, sensor.num_pixels - 1)))
            for _ in range(n))
        # plain, raw, or both kinds of record inside one cycle
        kinds = draw(st.sampled_from([(False,), (True,), (False, True)]))
        recs = tuple(
            TimestampRecord(p, t, draw(st.integers(0, 139))
                            if draw(st.sampled_from(kinds)) else None)
            for t, p in keys)
        cycles.append(AcquisitionCycle(index, recs))
    return cycles


@settings(max_examples=200, deadline=None)
@given(cycles_strategy())
def test_property_roundtrip_bit_identical(cycles):
    data = stream_bytes(HEADER, cycles)
    h, it = read_stream(io.BytesIO(data))
    back = list(it)
    assert back == cycles
    assert stream_bytes(h, back) == data
    assert_same_stream(PhotonStream.read(io.BytesIO(data)),
                       read_via_stream(data))


@settings(max_examples=150, deadline=None)
@given(cycles_strategy(), st.sampled_from([1, 3, None]))
def test_property_columnar_roundtrip_bit_identical(cycles, slab_records):
    stream = PhotonStream.from_cycles(HEADER, cycles)
    data = columnar_bytes(stream, slab_records)
    back = PhotonStream.read(io.BytesIO(data))
    assert_same_columns(back, stream)
    assert_readers_agree(data)
    assert columnar_bytes(back, slab_records) == data


@settings(max_examples=100, deadline=None)
@given(cycles_strategy(), st.booleans(), st.sampled_from([1, 3, None]),
       st.sampled_from([1, 3, timestream._PIECE]))
def test_property_read_equal_from_every_source(cycles, v1, slab_records,
                                               piece):
    """Version 1 and 2, plain and raw (or both, in v1), one slab and many:
    a file path, ``io.BytesIO`` and a pipe give the same columns, those
    of the record-model reader, with the same dtypes."""
    stream = PhotonStream.from_cycles(HEADER, cycles)
    data = stream_bytes(HEADER, cycles) if v1 \
        else columnar_bytes(stream, slab_records)
    want = read_via_stream(data)
    with mock.patch.object(timestream, "_PIECE", piece), \
            tempfile.TemporaryDirectory() as tmp:
        for got in read_from_each_source(data, tmp):
            assert_same_stream(got, want)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 2**40), st.integers(0, 6)),
                max_size=40),
       st.integers(0, 2**62), st.booleans(),
       st.sampled_from([1, 2, 3, timestream._PIECE]))
@example([(1, 2), (3, timestream._PIECE + 5), (1, 0), (2, 1)], 7, True,
         timestream._PIECE)
@example([(1, 0), (1, 0), (1, 3)], 0, True, 2)
def test_property_fill_cycles_equals_repeat(cycles, first, aliased, piece):
    """The cycle column built from (index, count) is ``np.repeat``'s, with
    cycles without records, cycles larger than a piece, and the index
    held at the head of the column it fills, as a slab read puts it."""
    index = first + np.cumsum([step for step, _ in cycles], dtype=np.uint64)
    count = np.array([n for _, n in cycles], dtype=np.uint32)
    want = np.repeat(index, count)
    out = np.full(len(want), 0xDEAD, dtype=np.uint64)
    if aliased and len(index) <= len(out):
        out[:len(index)] = index
        index = out[:len(index)]
    with mock.patch.object(timestream, "_PIECE", piece):
        timestream._fill_cycles(index, count, out)
    np.testing.assert_array_equal(out, want)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["empty", "single", "dense",
                                           "large"]), st.integers(0, 99)),
                max_size=30),
       st.sampled_from([2, 3, 4, 8]), st.booleans())
@example([("dense", 0)] * 5 + [("large", 99), ("single", 0), ("dense", 1)],
         4, True)
def test_property_fill_cycles_mixes_dense_and_sparse_pieces(cycles, piece,
                                                             aliased):
    """Pieces of two or more records a cycle (filled by runs, a cycle of
    more than ``_PIECE`` records by a slice) and sparser ones (a prefix
    sum) give ``np.repeat``'s column, with the index at the head of it."""
    sizes = {"empty": (0, 0), "single": (1, 1), "dense": (2, piece),
             "large": (piece + 1, 3 * piece)}
    count = np.array([sizes[kind][0] + r % (sizes[kind][1] - sizes[kind][0]
                                             + 1) for kind, r in cycles],
                     dtype=np.uint32)
    index = np.cumsum(np.arange(1, len(count) + 1), dtype=np.uint64) + 2**60
    want = np.repeat(index, count)
    out = np.full(len(want), 0xDEAD, dtype=np.uint64)
    if aliased and len(index) <= len(out):
        out[:len(index)] = index
        index = out[:len(index)]
    with mock.patch.object(timestream, "_PIECE", piece):
        assert timestream._fill_cycles(index, count, out) is out
    np.testing.assert_array_equal(out, want)


@settings(max_examples=150, deadline=None)
@given(st.binary(max_size=600))
def test_property_parser_total_on_garbage(blob):
    for parse in (lambda b: list(read_stream(io.BytesIO(b))[1]),
                  lambda b: PhotonStream.read(io.BytesIO(b))):
        try:
            parse(blob)
        except StreamFormatError:
            pass  # structured rejection is the only acceptable failure


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_property_parser_total_on_mutations(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    cycles = random_cycles(rng, SENSOR, raw=bool(rng.integers(0, 2)))
    blob = bytearray(stream_bytes(random_header(rng, SENSOR), cycles))
    for _ in range(data.draw(st.integers(1, 4))):
        pos = data.draw(st.integers(0, max(0, len(blob) - 1)))
        blob[pos] = data.draw(st.integers(0, 255))
    cut = data.draw(st.integers(0, len(blob)))
    for candidate in (bytes(blob), bytes(blob[:cut])):
        # only StreamFormatError may escape, and both readers agree on it
        assert_readers_agree(candidate)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_property_columnar_parser_total_on_mutations(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    cycles = random_cycles(rng, SENSOR, raw=bool(rng.integers(0, 2)))
    stream = PhotonStream.from_cycles(random_header(rng, SENSOR), cycles)
    blob = bytearray(columnar_bytes(stream,
                                    data.draw(st.sampled_from([1, 3, None]))))
    for _ in range(data.draw(st.integers(1, 4))):
        pos = data.draw(st.integers(0, max(0, len(blob) - 1)))
        blob[pos] = data.draw(st.integers(0, 255))
    cut = data.draw(st.integers(0, len(blob)))
    for candidate in (bytes(blob), bytes(blob[:cut])):
        assert_readers_agree(candidate)


# ---------------------------------------------------------------------------
# record_order: one packed key, the permutation of np.lexsort

@st.composite
def order_columns(draw):
    """Columns that reach each branch of ``record_order`` and of
    ``sort_records``: cycles out of order (``record_order``'s
    ``np.lexsort``), in order, or in order in runs of one, two and more
    records (the shapes a correction leaves) or only of three and more
    (dense cycles), near 2**63 and 2**64 or spread over 2**40 and more;
    whole times that a packed key holds, and sub-ps, infinite and NaN
    times and whole ones whose span reaches 2**53, which it does not;
    negative and signed-zero times, times pushed out of the cycle, and
    integer times that float64 rounds to one value; pixels up to 65535;
    few distinct values, so exact ties are common, also across pixels."""
    n = draw(st.integers(0, 40))
    base = draw(st.sampled_from([0, 2**63, 2**64 - 64]))
    stride = draw(st.sampled_from([1, 7, 2**40, 2**57]))
    shape = draw(st.sampled_from(["unordered", "ordered", "runs", "dense"]))
    if shape == "runs":
        lengths = draw(st.lists(st.sampled_from([1, 2, 3, 5]),
                                min_size=n, max_size=n))
        steps = np.repeat(np.arange(n), lengths)[:n].tolist()
    elif shape == "dense":
        lengths = draw(st.lists(st.sampled_from([3, 4, 5, 9]), max_size=8))
        steps = np.repeat(np.arange(len(lengths)), lengths).tolist()
        n = len(steps)
    else:
        steps = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    cycles = [min(base + stride * s, 2**64 - 1) for s in steps]
    if shape == "ordered":
        cycles.sort()
    times = st.sampled_from([0.0, -0.0, 1.0, 3.0, -2.0, 2_500.0, 3_999_999.0])
    dtype = np.float64
    if draw(st.booleans()):  # sub-ps, as after a delay or LUT correction
        times = times | st.sampled_from([0.25, -0.5, 17.125, 1e-3, 2.0**53,
                                         np.nan, np.inf, -np.inf])
    if draw(st.booleans()):  # outside [0, period), as delays leave them
        times = times | st.sampled_from([-4_999.75, -0.25, 4_000_000.0,
                                         4_003_999.5])
    if draw(st.booleans()):  # spans of 2**53 - 1, 2**53 and 2**53 + 1
        times = times | st.sampled_from([-1.5 * 2.0**52, 2.0**51 - 1,
                                         2.0**51, 2.0**51 + 1])
    if draw(st.booleans()):  # integers, some one value in float64
        times, dtype = st.sampled_from([0, 1, -3, 2_500, 2**60, 2**60 + 1,
                                        2**60 + 2, -2**60 - 1]), np.int64
    top = draw(st.sampled_from([0, 1, 3, 255, 65535]))
    pixels = st.sampled_from(sorted({0, top // 2, top}))
    return (np.array(cycles, dtype=np.uint64),
            np.array(draw(st.lists(times, min_size=n, max_size=n)),
                     dtype=dtype),
            np.array(draw(st.lists(pixels, min_size=n, max_size=n)),
                     dtype=np.uint16))


@settings(max_examples=600, deadline=None)
@given(order_columns(), st.sampled_from([1, 2, 3, timestream._PIECE]))
# each time is below 2**53 in size, but 2**51 + 1 - min rounds to 2**53 =
# 2**51 - min in float64: time - min would tie the first and last records
@example((np.zeros(3, dtype=np.uint64),
          np.array([2.0**51 + 1, -1.5 * 2.0**52, 2.0**51]),
          np.array([0, 0, 1], dtype=np.uint16)), timestream._PIECE)
# cycles in order: one of two whose zeros tie, then one of three
@example((np.array([2**64 - 3, 2**64 - 3, 2**64 - 2] + [2**64 - 1] * 3,
                   dtype=np.uint64),
          np.array([0.0, -0.0, 7.5, 4_000_000.0, -0.0, 0.0]),
          np.array([1, 1, 0, 0, 1, 0], dtype=np.uint16)), 2)
# dense cycles next to each other above 2**53, which float64 would merge;
# signed zeros and infinities tie across pixels, a NaN sorts last in its
# cycle only
@example((np.repeat(np.array([2**60, 2**60 + 1, 2**60 + 2], dtype=np.uint64),
                    [4, 3, 3]),
          np.array([np.inf, 0.0, -0.0, -np.inf, 5.0, -np.inf, -np.inf,
                    np.nan, 0.0, -0.0]),
          np.array([0, 1, 0, 1, 2, 1, 0, 0, 1, 0], dtype=np.uint16)), 2)
# integer times that float64 rounds to one value, in a cycle of three
@example((np.array([3, 3, 3, 4], dtype=np.uint64),
          np.array([2**60 + 2, 2**60 + 1, 2**60, 0], dtype=np.int64),
          np.array([0, 1, 2, 0], dtype=np.uint16)), timestream._PIECE)
def test_property_record_order_is_lexsort(columns, piece):
    # small pieces put piece boundaries inside runs of equal values
    cycle, time, pixel = columns
    with mock.patch.object(timestream, "_PIECE", piece):
        got = timestream.record_order(cycle, time, pixel)
    want = np.lexsort((pixel, time, cycle))
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def _unique_columns(n, cycle_span):
    rng = np.random.default_rng(5)
    cycle = rng.permutation(np.linspace(0, cycle_span, n, dtype=np.uint64))
    time = rng.permutation(n).astype(np.float64)
    pixel = rng.integers(0, 65536, n).astype(np.uint16)
    return cycle, time, pixel


@pytest.mark.parametrize("cycle, time, pixel", [
    # 30000 - -30000 overflows int16: the difference is taken in int64
    ([0, 1], np.array([30000, -30000], np.int16), [0, 0]),
    # 4 - -2**24 and 3 - -2**24 round to one float32, not to one float64
    ([0, 0, 0], np.array([-2.0**24, 4.0, 3.0], np.float32), [0, 0, 1]),
])
def test_key_takes_narrow_time_differences_exactly(cycle, time, pixel):
    cycle, pixel = np.array(cycle, np.uint64), np.array(pixel, np.uint16)
    want = np.lexsort((pixel, time, cycle))
    assert np.array_equal(timestream.record_order(cycle, time, pixel), want)
    columns = {"cycle_index": cycle.copy(), "time_ps": time.copy(),
               "pixel": pixel.copy()}
    timestream.sort_records(columns)
    assert columns["time_ps"].dtype == time.dtype
    assert np.array_equal(columns["time_ps"], time[want])
    assert np.array_equal(columns["cycle_index"], cycle[want])


def _spied_record_order(cycle, time, pixel):
    """``record_order``'s result and its calls of ``np.argsort`` and
    ``np.lexsort``, which tell its three paths apart."""
    with mock.patch("numpy.argsort", wraps=np.argsort) as argsort, \
            mock.patch("numpy.lexsort", wraps=np.lexsort) as lexsort:
        got = timestream.record_order(cycle, time, pixel)
    return got, argsort.call_count, lexsort.call_count


def _cycle_runs(lengths, rng):
    """Cycles in order, one per entry of ``lengths``, with gaps between
    them; sub-ps and signed-zero times and two pixels, so ties are
    common."""
    cycle = np.repeat(np.cumsum(rng.integers(1, 4, len(lengths))), lengths)
    n = len(cycle)
    return (cycle.astype(np.uint64),
            rng.choice([-0.0, 0.0, 0.25, 1.5, -2.75, 4_000_000.5], n),
            rng.integers(0, 2, n).astype(np.uint16))


def test_record_order_swaps_cycles_of_two_without_a_sort():
    # lone records and cycles of two over several pieces, sub-ps times
    # among them: one compare-and-swap, and neither argsort nor lexsort
    rng = np.random.default_rng(9)
    columns = _cycle_runs(rng.choice([1, 2], 2 * timestream._PIECE), rng)
    got, argsorts, lexsorts = _spied_record_order(*columns)
    assert np.array_equal(got, np.lexsort(columns[::-1]))
    assert got.dtype == np.intp
    assert (argsorts, lexsorts) == (0, 0)


def _spied_complex_keys(cycle, time, pixel):
    """``record_order``'s result, the complex keys it sorted with their
    sort kind, and whether it built a packed key."""
    argsort, sorted_keys = np.argsort, []

    def spy(a, *args, **kwargs):
        if a.dtype == np.complex128:
            sorted_keys.append((a.copy(), kwargs.get("kind")))
        return argsort(a, *args, **kwargs)

    with mock.patch("numpy.argsort", spy), \
            mock.patch.object(timestream, "_record_key",
                              wraps=timestream._record_key) as record_key:
        got = timestream.record_order(cycle, time, pixel)
    assert np.array_equal(got, np.lexsort((pixel, time, cycle)))
    return got, sorted_keys, record_key.called


def test_record_order_sorts_longer_cycles_by_one_complex_key():
    # only the records of cycles of three or more are sorted, by one
    # stable argsort of (each cycle's rank among them, time)
    rng = np.random.default_rng(11)
    lengths = rng.choice([1, 2, 3, 4, 9], 5000)
    cycle, time, pixel = _cycle_runs(lengths, rng)
    _, sorted_keys, keyed = _spied_complex_keys(cycle, time, pixel)
    long = np.repeat(lengths >= 3, lengths)
    assert not keyed and len(sorted_keys) == 1
    key, kind = sorted_keys[0]
    assert kind == "stable"
    assert np.array_equal(key.real, np.repeat(
        np.arange(np.sum(lengths >= 3)), lengths[lengths >= 3]))
    assert np.array_equal(key.imag, time[long])


def test_record_order_sorts_dense_cycles_by_one_complex_key():
    # every record in a cycle of three or more: the whole stream takes one
    # complex argsort, and its ties one lexsort, with no packed key
    rng = np.random.default_rng(10)
    lengths = rng.integers(3, 3000, 100)
    columns = _cycle_runs(lengths, rng)
    _, sorted_keys, keyed = _spied_complex_keys(*columns)
    assert not keyed and len(sorted_keys) == 1
    key, kind = sorted_keys[0]
    assert kind == "stable"
    assert np.array_equal(key.real, np.repeat(np.arange(100), lengths))
    assert np.array_equal(key.imag, columns[1])
    assert _spied_record_order(*columns)[1:] == (1, 1)


def test_record_order_ranks_cycles_beyond_2_53():
    # 2**60 + k is one float64 for k = 0, 1, 2: the cycle index would put
    # records of three cycles in one run of time order
    cycle = np.repeat(np.arange(2**60, 2**60 + 3, dtype=np.uint64), 4)
    time = np.array([9.0, 1.0, 5.0, 3.0] * 3)[::-1].copy()
    pixel = np.zeros(12, dtype=np.uint16)
    _, sorted_keys, keyed = _spied_complex_keys(cycle, time, pixel)
    assert not keyed
    assert np.array_equal(sorted_keys[0][0].real, np.repeat([0, 1, 2], 4))


def test_record_order_sends_a_nan_in_a_longer_cycle_to_lexsort():
    # a NaN imaginary part sorts after every complex value, whatever the
    # real part: the cycles' records take np.lexsort, not the complex key
    rng = np.random.default_rng(13)
    lengths = rng.choice([1, 3, 4], 300)
    cycle, time, pixel = _cycle_runs(lengths, rng)
    time[np.flatnonzero(np.repeat(lengths >= 3, lengths))[5]] = np.nan
    _, sorted_keys, keyed = _spied_complex_keys(cycle, time, pixel)
    assert not keyed and not sorted_keys
    assert _spied_record_order(cycle, time, pixel)[1:] == (0, 1)


@pytest.mark.parametrize("nan", [False, True])
def test_record_order_lexsorts_cycles_out_of_order(nan):
    # cycles of one and two, two of them swapped in the last piece, or in
    # order with a NaN time in a cycle of two: one np.lexsort of the three
    # columns, and no packed key
    rng = np.random.default_rng(12)
    cycle, time, pixel = _cycle_runs(
        rng.choice([1, 2], 2 * timestream._PIECE), rng)
    if nan:
        time[np.flatnonzero(cycle[1:] == cycle[:-1])[-1]] = np.nan
    else:
        cycle[[-3, -1]] = cycle[[-1, -3]]
    with mock.patch.object(timestream, "_record_key",
                           wraps=timestream._record_key) as record_key:
        got, argsorts, lexsorts = _spied_record_order(cycle, time, pixel)
    assert np.array_equal(got, np.lexsort((pixel, time, cycle)))
    assert (argsorts, lexsorts) == (0, 1)
    assert not record_key.called


# ---------------------------------------------------------------------------
# sort_records: the columns decoded from the sorted key, or gathered

@st.composite
def sort_columns(draw):
    """``order_columns``, with times sometimes as int64 or int16 (when
    whole and in range), and with zero, one or two other columns: the
    record index, which shows the order among ties, and a uint8 tag."""
    cycle, time, pixel = draw(order_columns())
    whole = np.isfinite(time).all() and (np.floor(time) == time).all()
    kind = draw(st.sampled_from(["f8", "i8", "i2"]))
    if whole and kind == "i8" or whole and kind == "i2" and (
            np.abs(time) < 2**15).all():
        time = time.astype(kind)
    columns = {"cycle_index": cycle, "time_ps": time, "pixel": pixel}
    n = len(pixel)
    others = draw(st.integers(0, 2))
    if others >= 1:
        columns["index"] = np.arange(n, dtype=np.int64)
    if others == 2:
        columns["tag"] = (np.arange(n) % 7).astype(np.uint8)
    return columns


def _check_sort_records(columns, piece=None):
    """``sort_records`` of a copy of ``columns``, checked: every column in
    ``np.lexsort`` order.  Returns the sorted columns and the calls of
    ``np.argsort`` and ``np.lexsort`` that the sort made, which tell its
    word path (none) from its fallbacks."""
    want = np.lexsort((columns["pixel"], columns["time_ps"],
                       columns["cycle_index"]))
    got = {name: column.copy() for name, column in columns.items()}
    with mock.patch.object(timestream, "_PIECE", piece or timestream._PIECE), \
            mock.patch("numpy.argsort", wraps=np.argsort) as argsort, \
            mock.patch("numpy.lexsort", wraps=np.lexsort) as lexsort:
        timestream.sort_records(got)
    assert list(got) == list(columns)
    for name, column in columns.items():
        assert got[name].dtype == column.dtype, name
        assert np.array_equal(got[name], column[want], equal_nan=True), name
    return got, argsort.call_count, lexsort.call_count


@settings(max_examples=600, deadline=None)
@given(sort_columns(), st.sampled_from([1, 2, 3, timestream._PIECE]))
@example({"cycle_index": np.array([5, 5, 5, 5], dtype=np.uint64),
          "time_ps": np.array([0.0, -0.0, 0.0, -0.0]),
          "pixel": np.array([1, 0, 1, 0], dtype=np.uint16),
          "index": np.arange(4)}, timestream._PIECE)
def test_property_sort_records_is_a_lexsort_gather(columns, piece):
    _check_sort_records(columns, piece)


@pytest.mark.parametrize("n", [0, 1])
def test_sort_records_of_no_record_and_of_one(n):
    got, _, _ = _check_sort_records({
        "cycle_index": np.full(n, 2**64 - 1, dtype=np.uint64),
        "time_ps": np.full(n, -0.0), "pixel": np.full(n, 7, np.uint16),
        "raw_code": np.full(n, 3, np.uint32)})
    assert all(len(column) == n for column in got.values())


@pytest.mark.parametrize("cycle_span, others, calls", [
    # 28 + 10 + 16 key bits and 10 index bits: 64, the word path
    (2**28 - 1, True, (0, 0)),
    # 29 + 10 + 16 + 10: 65, a quicksort of the key and a gather
    (2**28, True, (1, 0)),
    # no other column needs no index: 55 bits, the word path
    (2**28, False, (0, 0)),
    # 38 + 10 + 16 key bits: 64, the word path
    (2**38 - 1, False, (0, 0)),
    # 39 + 10 + 16: 65, np.lexsort and a gather
    (2**38, False, (0, 1)),
])
def test_sort_records_decodes_keys_up_to_64_bits(cycle_span, others, calls):
    cycle, time, pixel = _unique_columns(1000, cycle_span)
    columns = {"cycle_index": cycle, "time_ps": time, "pixel": pixel}
    if others:
        columns["raw_code"] = np.arange(1000, dtype=np.uint32)
    assert _check_sort_records(columns)[1:] == calls


@pytest.mark.parametrize("others, index_bits", [(False, 0), (True, 10)])
def test_sort_records_puts_the_index_in_the_key_only_for_other_columns(
        others, index_bits):
    # 21 + 10 + 16 key bits leave room for the 10 index bits, which only
    # another column needs
    cycle, time, pixel = _unique_columns(1000, 2**20)
    columns = {"cycle_index": cycle, "time_ps": time, "pixel": pixel}
    if others:
        columns["raw_code"] = np.arange(1000, dtype=np.uint32)
    record_key, keys = timestream._record_key, []

    def spy(*args, **kwargs):
        keys.append(record_key(*args, **kwargs))
        return keys[-1]

    with mock.patch.object(timestream, "_record_key", spy):
        assert _check_sort_records(columns)[1:] == (0, 0)
    assert [key.index_bits for key in keys] == [index_bits]


def test_sort_records_keeps_ties_in_index_order_and_zeros_positive():
    # runs of ~10^4 equal keys over several pieces, zeros of both signs
    rng = np.random.default_rng(8)
    n = 3 * timestream._PIECE
    columns = {"cycle_index": rng.integers(0, 3, n).astype(np.uint64),
               "time_ps": rng.choice([-0.0, 0.0, 1.0], n),
               "pixel": rng.integers(0, 2, n).astype(np.uint16),
               "raw_code": np.arange(n, dtype=np.uint32)}
    got, argsorts, lexsorts = _check_sort_records(columns)
    assert (argsorts, lexsorts) == (0, 0)
    # the decoded zeros are +0.0; the written bytes cannot tell
    assert not np.signbit(got["time_ps"]).any()


@pytest.mark.parametrize("time, calls", [
    (np.array([3.5, 1.0, 2.0, 1.0]), (0, 1)),  # fractional: np.lexsort
    (np.array([3.0, np.nan, 2.0, 1.0]), (0, 1)),  # NaN: np.lexsort
])
def test_sort_records_gathers_times_it_cannot_decode(time, calls):
    columns = {"cycle_index": np.array([1, 0, 1, 0], dtype=np.uint64),
               "time_ps": time, "pixel": np.array([0, 1, 1, 0], np.uint16)}
    assert _check_sort_records(columns)[1:] == calls


def test_sort_records_repairs_ties_in_a_large_run():
    # runs of ~1.6 * 10^4 equal keys across several pieces, on unordered
    # cycles spread over 2**41, pixels 0 and 65535 and a lineage column:
    # 42 + 1 + 16 key bits and 18 index bits are 77, so the key is
    # quicksorted, the repair restores each run's index order and the
    # columns are gathered
    rng = np.random.default_rng(8)
    n = 3 * timestream._PIECE
    columns = {"cycle_index": rng.integers(0, 3, n).astype(np.uint64)
               << np.uint64(40),
               "time_ps": rng.integers(0, 2, n).astype(np.float64),
               "pixel": (rng.integers(0, 2, n) * 65535).astype(np.uint16),
               "origin": np.arange(n, dtype=np.int64)}
    with mock.patch.object(timestream, "_key_order",
                           wraps=timestream._key_order) as key_order:
        _, argsorts, lexsorts = _check_sort_records(columns)
    assert key_order.call_count == 1
    assert (argsorts, lexsorts) == (1, 1)


@pytest.mark.skipif(np.lib.NumpyVersion(np.__version__) < "2.0.0",
                    reason="numpy 1.x imports numpy.ma with numpy itself")
def test_sort_records_repair_never_imports_numpy_ma():
    # np.union1d's np.unique imports numpy.ma on numpy 2.4, several ms of
    # a lineage simulation's process.  52 + 1 key bits and 13 index bits
    # are 66: the tie repair runs, on runs of ~830 equal keys.
    script = (
        "import sys\n"
        "import numpy as np\n"
        "from spadkit import timestream\n"
        "i = np.arange(5000)\n"
        "cycle = (i % 3).astype(np.uint64) << np.uint64(50)\n"
        "columns = {'cycle_index': cycle,\n"
        "           'time_ps': (i // 3 % 2).astype(np.float64),\n"
        "           'pixel': np.zeros(5000, np.uint16), 'origin': i}\n"
        "assert 'numpy.ma' not in sys.modules\n"
        "timestream.sort_records(columns)\n"
        "assert (columns['origin'][:3] == [0, 6, 12]).all()\n"
        "print('numpy.ma' in sys.modules)\n")
    src = pathlib.Path(timestream.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]
