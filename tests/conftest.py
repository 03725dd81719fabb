"""Shared helpers: deterministic random stream generation and mutation."""

from __future__ import annotations

import io
import struct
import tracemalloc

import numpy as np
import pytest

from spadkit import (
    AcquisitionCycle,
    SensorConfig,
    StreamHeader,
    TimestampRecord,
    write_stream,
)
from spadkit import peakfit, timestream


def random_cycles(rng: np.random.Generator, sensor: SensorConfig,
                  max_cycles: int = 8, max_records: int = 6,
                  raw: bool = False) -> list[AcquisitionCycle]:
    """Random but invariant-respecting cycles (sorted records, growing index)."""
    cycles = []
    index = -1
    for _ in range(int(rng.integers(0, max_cycles + 1))):
        index += int(rng.integers(1, 5))
        n = int(rng.integers(0, max_records + 1))
        recs = sorted(
            ((int(rng.integers(0, sensor.cycle_period_ps)),
              int(rng.integers(0, sensor.num_pixels))) for _ in range(n)))
        records = tuple(
            TimestampRecord(
                pixel=p, time_ps=t,
                raw_code=int(rng.integers(0, sensor.tdc_bins_per_clock)) if raw else None)
            for t, p in recs)
        cycles.append(AcquisitionCycle(index, records))
    return cycles


def random_header(rng: np.random.Generator, sensor: SensorConfig) -> StreamHeader:
    meta = {}
    for k in range(int(rng.integers(0, 3))):
        meta[f"key{k}"] = "".join(
            chr(int(c)) for c in rng.integers(32, 127, size=rng.integers(0, 12)))
    return StreamHeader(sensor=sensor, metadata=meta)


def stream_bytes(header: StreamHeader, cycles: list[AcquisitionCycle]) -> bytes:
    buf = io.BytesIO()
    write_stream(header, cycles, buf)
    return buf.getvalue()


def with_metadata_entry(data: bytes, key: str, value: str) -> bytes:
    """The stream ``data`` with its metadata replaced by the one entry
    ``key``: ``value``.  The writers refuse some entries the readers must
    also reject, so tests put those in the bytes this way."""
    payload = timestream._read_header(io.BytesIO(data))[2]
    entry = b"".join(struct.pack("<H", len(b)) + b
                     for b in (key.encode(), value.encode()))
    # the 22-byte fixed header, the u16 entry count, the entries, then
    # the u64 cycle count
    return data[:22] + struct.pack("<H", 1) + entry + data[payload - 8:]


def traced_peak(run):
    """(result of run(), peak bytes that tracemalloc saw during it)."""
    if tracemalloc.is_tracing():
        pytest.skip("tracemalloc is already tracing")
    tracemalloc.start()
    try:
        result = run()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def column_bytes(stream) -> int:
    """Bytes of a stream's record columns."""
    return sum(column.nbytes for column in (
        stream.cycle_index, stream.pixel, stream.time_ps, stream.raw_code)
        if column is not None)


def gathered_boxes(cum, bin_width_ps):
    """The box sums of ``_box_peaks`` from two gathers of the whole cube,
    ``cum[:, hi]`` and ``cum[:, lo]``: the form its slices must equal."""
    half = round(0.5 * peakfit.COARSE_BOX_PS / bin_width_ps)
    n = cum.shape[1] - 1
    lo = np.clip(np.arange(n) - half, 0, n)
    hi = np.clip(np.arange(n) + half + 1, 0, n)
    return cum[:, hi] - cum[:, lo]
