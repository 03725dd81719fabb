"""Code-density calibration: width recovery, midpoint conversion, flagging."""

from __future__ import annotations

import dataclasses
import io
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from scipy import stats

from spadkit import (CalibrationError, DataError, PhotonStream, SensorConfig,
                     StreamFormatError, StreamHeader, timestream)
from spadkit.offsets import apply_delays
from spadkit.simulator import simulate_code_density
from spadkit.tdc import (MIN_COUNTS_PER_PIXEL, TdcLut, _check_lut, apply_lut,
                         build_lut)

from conftest import traced_peak

SENSOR = SensorConfig()
CLOCK = SENSOR.clock_period_ps
BINS = SENSOR.tdc_bins_per_clock


def raw_stream(pixel_codes: dict[int, np.ndarray],
               rng: np.random.Generator | None = None) -> PhotonStream:
    """Assemble a raw stream from per-pixel code arrays (coarse bases random)."""
    rng = rng or np.random.default_rng(0)
    pix, codes = [], []
    for p, cs in pixel_codes.items():
        pix.append(np.full(len(cs), p, dtype=np.uint16))
        codes.append(np.asarray(cs, dtype=np.uint32))
    pix = np.concatenate(pix)
    codes = np.concatenate(codes)
    n = len(pix)
    cyc = rng.integers(0, 997, size=n).astype(np.uint64)
    base = rng.integers(0, SENSOR.cycle_period_ps // CLOCK, size=n) * CLOCK
    order = np.lexsort((pix, base.astype(np.float64), cyc))
    return PhotonStream(
        header=StreamHeader(SENSOR),
        cycle_index=cyc[order], pixel=pix[order],
        time_ps=base[order].astype(np.float64), raw_code=codes[order])


def smooth_profile() -> np.ndarray:
    c = np.arange(BINS)
    shape = 1.0 + 0.35 * np.sin(2 * np.pi * c / BINS) + 0.12 * np.cos(6 * np.pi * c / BINS)
    return CLOCK * shape / shape.sum()


# ---------------------------------------------------------------------------

def test_uniform_counts_give_mean_bin_width():
    codes = np.repeat(np.arange(BINS, dtype=np.uint32), 100)  # 14000 per pixel
    lut = build_lut(raw_stream({3: codes, 200: codes}))
    assert 3 not in lut.unusable and 200 not in lut.unusable
    np.testing.assert_allclose(lut.widths[3], CLOCK / BINS, rtol=1e-12)
    assert lut.widths[3][0] == pytest.approx(17.857142857142858)
    # sum-to-clock invariant, well inside the 1e-6 relative tolerance
    assert abs(lut.widths[3].sum() - CLOCK) / CLOCK < 1e-12


@pytest.mark.parametrize("piece", [1, 7, 1000, timestream._PIECE])
def test_lut_counts_add_across_pieces(piece):
    # the (pixel, code) counts are summed from pieces of any length; the
    # oracle counts the whole stream at once
    rng = np.random.default_rng(5)
    stream = raw_stream({p: rng.integers(0, BINS, 3000) for p in (0, 3, 255)},
                        rng=rng)
    counts = np.bincount(stream.pixel.astype(np.intp) * BINS
                         + stream.raw_code, minlength=SENSOR.num_pixels * BINS)
    counts = counts.reshape(SENSOR.num_pixels, BINS)
    totals = counts.sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        widths = CLOCK * counts / totals[:, None]
    widths[totals == 0] = 0.0
    with mock.patch.object(timestream, "_PIECE", piece):
        lut = build_lut(stream)
    assert lut.widths.tobytes() == widths.tobytes()
    assert lut.unusable == frozenset(np.flatnonzero(
        (totals < MIN_COUNTS_PER_PIXEL) | (counts == 0).any(axis=1)).tolist())


def test_lut_counts_hold_no_index_per_record():
    # no whole-stream (pixel, code) index: 8 bytes per record as intp
    n = 2_000_000
    rng = np.random.default_rng(6)
    stream = PhotonStream(
        header=StreamHeader(SENSOR),
        cycle_index=np.zeros(n, dtype=np.uint64),
        pixel=rng.integers(0, SENSOR.num_pixels, n).astype(np.uint16),
        time_ps=np.zeros(n),
        raw_code=rng.integers(0, BINS, n).astype(np.uint32))
    _lut, peak = traced_peak(lambda: build_lut(stream))
    assert peak < 2 * n


def test_apply_midpoint_convention_and_monotonicity():
    codes = np.repeat(np.arange(BINS, dtype=np.uint32), 100)
    lut = build_lut(raw_stream({3: codes}))
    probe = PhotonStream(
        header=StreamHeader(SENSOR),
        cycle_index=np.zeros(BINS, dtype=np.uint64),
        pixel=np.full(BINS, 3, dtype=np.uint16),
        time_ps=np.full(BINS, 10 * CLOCK, dtype=np.float64),
        raw_code=np.arange(BINS, dtype=np.uint32))
    out = apply_lut(probe, lut)
    assert out.raw_code is None
    times = np.sort(out.time_ps)  # probe order is by code already, but be safe
    assert times[0] == pytest.approx(10 * CLOCK + 8.928571428571429)
    assert (np.diff(times) > 0).all()  # code a < b -> strictly later time
    out.validate()


def test_known_profile_recovery_within_3sigma_multinomial():
    # Independent oracle: multinomial standard error per code,
    # sigma = clock * sqrt(p (1 - p) / N).
    truth = smooth_profile()
    p = truth / CLOCK
    n_events = 300_000
    rng = np.random.default_rng(11)
    codes = rng.choice(BINS, size=n_events, p=p).astype(np.uint32)
    lut = build_lut(raw_stream({7: codes}, rng=rng))
    sigma = CLOCK * np.sqrt(p * (1 - p) / n_events)
    z = (lut.widths[7] - truth) / sigma
    assert np.abs(z).max() <= 3.0


def test_converted_times_flat_by_chi2():
    # Calibrate on one run, test flatness of an independent run at the
    # 0.1 percent level.  Counts are classified into the calibrated bins
    # (density test); expected share of bin c is width_c / clock.
    truth = smooth_profile()
    p = truth / CLOCK
    rng = np.random.default_rng(3)
    lut = build_lut(raw_stream(
        {5: rng.choice(BINS, size=2_000_000, p=p).astype(np.uint32)}, rng=rng))

    n_test = 500_000
    probe_codes = rng.choice(BINS, size=n_test, p=p).astype(np.uint32)
    out = apply_lut(raw_stream({5: probe_codes}, rng=rng), lut)
    fine = np.mod(out.time_ps, CLOCK)
    edges = np.concatenate((lut.offsets[5], [CLOCK]))
    counts, _ = np.histogram(fine, bins=edges)
    expected = n_test * lut.widths[5] / CLOCK
    chi2 = ((counts - expected) ** 2 / expected).sum()
    assert chi2 < stats.chi2.isf(0.001, BINS - 1)


def test_starved_pixel_flagged_and_refuses_conversion():
    rng = np.random.default_rng(1)
    few = rng.integers(0, BINS, size=9_999).astype(np.uint32)
    plenty = np.repeat(np.arange(BINS, dtype=np.uint32), 100)
    stream = raw_stream({4: few, 9: plenty})
    lut = build_lut(stream)
    assert 4 in lut.unusable and 9 not in lut.unusable
    with pytest.raises(CalibrationError, match="pixels: 4"):
        apply_lut(stream, lut)
    # a stream touching only calibrated pixels converts fine
    apply_lut(raw_stream({9: plenty}), lut)


def test_degenerate_single_code_pixel_flagged():
    codes = np.full(20_000, 77, dtype=np.uint32)  # plenty of counts, one code
    lut = build_lut(raw_stream({12: codes}))
    assert 12 in lut.unusable


def test_code_out_of_range_is_data_error():
    bad = np.array([0, 1, BINS], dtype=np.uint32)
    with pytest.raises(DataError, match="out of range"):
        build_lut(raw_stream({3: bad}))


def test_stream_without_codes_is_data_error():
    plenty = np.repeat(np.arange(BINS, dtype=np.uint32), 100)
    stream = raw_stream({3: plenty})
    lut = build_lut(stream)
    calibrated = apply_lut(stream, lut)
    with pytest.raises(DataError, match="no raw"):
        build_lut(calibrated)
    with pytest.raises(DataError, match="no raw"):
        apply_lut(calibrated, lut)


def test_json_roundtrip_and_fingerprint_check():
    rng = np.random.default_rng(2)
    codes = rng.choice(BINS, size=50_000,
                       p=smooth_profile() / CLOCK).astype(np.uint32)
    lut = build_lut(raw_stream({0: codes, 255: codes}))
    doc = lut.to_json_dict()
    back = TdcLut.from_json_dict(doc)
    np.testing.assert_array_equal(back.widths, lut.widths)
    assert back.unusable == lut.unusable
    other = SensorConfig(num_pixels=64)
    with pytest.raises(CalibrationError, match="fingerprint"):
        TdcLut.from_json_dict(doc, sensor=other)
    # documents the constructor refuses are calibration errors too
    fractional = {**doc["sensor"], "num_pixels": doc["sensor"]["num_pixels"]
                  + 0.5}
    for bad in ({"unusable_pixels": [999]}, {"unusable_pixels": [-1]},
                {"unusable_pixels": [0.5]}, {"sensor": fractional},
                {"widths_ps": {**doc["widths_ps"], "0": [1.0] * BINS}}):
        with pytest.raises(CalibrationError):
            TdcLut.from_json_dict({**doc, **bad})


@pytest.mark.parametrize("field, value", [("num_pixels", 64),
                                          ("tdc_bins_per_clock", 100),
                                          ("clock_period_ps", 2600)])
def test_apply_refuses_a_lut_of_another_sensor(field, value):
    # apply_lut's own check: the CLI's TdcLut.load refuses such a LUT first
    plenty = np.repeat(np.arange(BINS, dtype=np.uint32), 100)
    stream = raw_stream({3: plenty})
    other = SensorConfig(**{field: value})
    lut = TdcLut(other, np.full((other.num_pixels, other.tdc_bins_per_clock),
                                other.mean_bin_width_ps))
    with pytest.raises(CalibrationError, match="fingerprint"):
        apply_lut(stream, lut)


def test_check_without_unusable_pixels_keeps_every_other_refusal():
    # a LUT that marks no pixel unusable blocks no record, so the check
    # skips its pass over the pixels, and only that
    plenty = np.repeat(np.arange(BINS, dtype=np.uint32), 100)
    stream = raw_stream({3: plenty, 200: plenty})
    lut = TdcLut(SENSOR, np.full((SENSOR.num_pixels, BINS), CLOCK / BINS))
    _check_lut(stream, lut)
    other = SensorConfig(num_pixels=64)
    with pytest.raises(CalibrationError, match="fingerprint"):
        _check_lut(stream, TdcLut(other, np.full((64, BINS), CLOCK / BINS)))
    with pytest.raises(DataError, match="no raw TDC codes"):
        _check_lut(dataclasses.replace(stream, raw_code=None), lut)
    codes = stream.raw_code.copy()
    codes[7] = BINS
    with pytest.raises(DataError, match=f"raw code {BINS} out of range"):
        _check_lut(dataclasses.replace(stream, raw_code=codes), lut)


def test_check_with_an_unusable_pixel_refuses_only_its_records():
    plenty = np.repeat(np.arange(BINS, dtype=np.uint32), 100)
    lut = TdcLut(SENSOR, np.full((SENSOR.num_pixels, BINS), CLOCK / BINS),
                 unusable=frozenset({200}))
    _check_lut(raw_stream({3: plenty}), lut)
    with pytest.raises(CalibrationError,
                       match="uncalibrated pixels: 200$"):
        _check_lut(raw_stream({3: plenty, 200: plenty[:1]}), lut)


def test_lut_rows_are_checked_before_the_table_is_allocated():
    # A LUT of about 100 bytes that declares 65535 x 65535 widths would
    # have asked for 32 GiB: the rows are checked first, so the table is
    # no larger than the widths the document holds.
    huge = {"sensor": {"num_pixels": 65535, "tdc_bins_per_clock": 65535,
                       "clock_period_ps": 2500}, "widths_ps": {}}
    short_row = {**huge, "widths_ps": {"0": [1.0]}}
    tracemalloc.start()
    try:
        with pytest.raises(CalibrationError,
                           match="malformed LUT document: 0 rows for 65535"):
            TdcLut.from_json_dict(huge)
        with pytest.raises(CalibrationError,
                           match="^malformed LUT row for pixel '0'$"):
            TdcLut.from_json_dict(short_row)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # every pixel needs its row, an unusable one too
    doc = TdcLut(SensorConfig(num_pixels=2, tdc_bins_per_clock=2),
                 np.full((2, 2), 1250.0), unusable=frozenset({1}))
    doc = doc.to_json_dict()
    TdcLut.from_json_dict(doc)
    del doc["widths_ps"]["1"]
    with pytest.raises(CalibrationError, match="1 rows for 2 pixels"):
        TdcLut.from_json_dict(doc)


def test_lut_constructor_rejects_bad_usable_rows():
    widths = np.full((SENSOR.num_pixels, BINS), CLOCK / BINS)
    widths[5, 3] = 0.0
    with pytest.raises(ValueError, match="non-positive"):
        TdcLut(sensor=SENSOR, widths=widths)
    # same row is fine once pixel 5 is declared unusable
    TdcLut(sensor=SENSOR, widths=widths, unusable=frozenset({5}))


def out_of_window(stream):
    return (stream.time_ps < 0) | (stream.time_ps >= SENSOR.cycle_period_ps)


def test_apply_keeps_out_of_window_records():
    widths = np.full(BINS, CLOCK / BINS)
    stream = simulate_code_density(SENSOR, widths, 200, seed=3)
    delays = np.where(np.arange(SENSOR.num_pixels) % 2, 3000.0, -3000.0)
    shifted = apply_delays(stream, delays)
    assert out_of_window(shifted).any()
    lut = TdcLut(SENSOR, np.tile(widths, (SENSOR.num_pixels, 1)))
    out = apply_lut(shifted, lut)
    assert out.n_records == shifted.n_records
    assert out_of_window(out).sum() == out_of_window(shifted).sum()
    order = np.lexsort((out.pixel, out.time_ps, out.cycle_index))
    np.testing.assert_array_equal(order, np.arange(out.n_records))  # sorted
    for refused in (out.validate, lambda: out.write(io.BytesIO())):
        with pytest.raises(StreamFormatError, match="outside cycle"):
            refused()
