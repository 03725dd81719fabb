import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spadkit import DataError, PhotonStream, SensorConfig, StreamHeader
from spadkit.rates import (RateReport, _median, _rates_for,
                           _resolve_duration, compute_rates, split_subsets)

from conftest import random_cycles


def make_stream(counts_per_pixel, total_cycles, sensor=None, seed=0):
    """Distribute the requested per-pixel counts over random cycles/times."""
    sensor = sensor or SensorConfig()
    rng = np.random.default_rng(seed)
    pixels = np.repeat(np.arange(len(counts_per_pixel), dtype=np.uint16),
                       counts_per_pixel)
    n = len(pixels)
    cyc = rng.integers(0, total_cycles, size=n).astype(np.uint64)
    t = rng.uniform(0, sensor.cycle_period_ps, size=n)
    order = np.lexsort((pixels, t, cyc))
    return PhotonStream(
        header=StreamHeader(sensor=sensor),
        cycle_index=cyc[order], pixel=pixels[order], time_ps=t[order],
        raw_code=None, total_cycles=total_cycles)


def test_single_hot_pixel_and_zero_median():
    counts = np.zeros(256, dtype=int)
    counts[7] = 5000
    stream = make_stream(counts, total_cycles=100)
    report = compute_rates(stream, duration_s=5.0)
    assert report.hot_pixels == ((7, 1000.0),)
    assert report.median_rate_cps == 0.0
    assert report.rates_cps[7] == 1000.0
    assert report.duration_s == 5.0


def test_threshold_is_inclusive_and_sorted_descending():
    counts = np.zeros(256, dtype=int)
    counts[3] = 1000   # exactly at threshold
    counts[9] = 4000
    counts[5] = 4000   # tie with pixel 9, lower index first
    counts[100] = 999  # just below
    stream = make_stream(counts, total_cycles=50)
    report = compute_rates(stream, duration_s=1.0)
    assert report.hot_pixels == ((5, 4000.0), (9, 4000.0), (3, 1000.0))


def test_median_recovers_poisson_rate():
    # Median of 256 pixel-rate estimates at a common rate r lands within
    # 3 sigma of r even for the single-pixel sigma sqrt(r/T).
    rng = np.random.default_rng(42)
    rate, duration = 107.0, 2.0
    sensor = SensorConfig()
    total_cycles = int(duration / (sensor.cycle_period_ps * 1e-12))
    counts = rng.poisson(rate * duration, size=256)
    stream = make_stream(counts, total_cycles, sensor=sensor, seed=1)
    report = compute_rates(stream)
    assert report.duration_s == pytest.approx(duration)
    sigma = np.sqrt(rate / duration)
    assert abs(report.median_rate_cps - rate) <= 3 * sigma


def test_explicit_duration_wins_over_cycle_count():
    counts = np.full(4, 10)
    stream = make_stream(counts, total_cycles=1000,
                         sensor=SensorConfig(num_pixels=4))
    report = compute_rates(stream, duration_s=2.0)
    assert report.rates_cps == pytest.approx(np.full(4, 5.0))


def test_zero_duration_is_error():
    sensor = SensorConfig(num_pixels=4)
    empty = PhotonStream(
        header=StreamHeader(sensor=sensor),
        cycle_index=np.array([], dtype=np.uint64),
        pixel=np.array([], dtype=np.uint16),
        time_ps=np.array([], dtype=np.float64),
        raw_code=None, total_cycles=0)
    with pytest.raises(DataError, match="duration"):
        compute_rates(empty)
    with pytest.raises(DataError, match="positive"):
        compute_rates(empty, duration_s=-1.0)
    assert compute_rates(empty, duration_s=3.0).median_rate_cps == 0.0


def test_split_counts_conserved_and_spans_disjoint():
    rng = np.random.default_rng(7)
    sensor = SensorConfig(num_pixels=16)
    header = StreamHeader(sensor=sensor)
    cycles = random_cycles(rng, sensor, max_cycles=40, max_records=300)
    assert cycles, "seed must produce a non-empty stream"
    stream = PhotonStream.from_cycles(header, cycles)
    for n in (1, 2, 3, 7, stream.total_cycles):
        subs = split_subsets(stream, n)
        assert len(subs) == n
        spans = [s.total_cycles for s in subs]
        assert sum(spans) == stream.total_cycles
        assert max(spans) - min(spans) <= 1
        assert sum(s.n_records for s in subs) == stream.n_records
        # order-preserving concatenation reproduces the original records
        pix = np.concatenate([s.pixel for s in subs])
        t = np.concatenate([s.time_ps for s in subs])
        np.testing.assert_array_equal(pix, stream.pixel)
        np.testing.assert_array_equal(t, stream.time_ps)
        for s in subs:
            s.validate()
            if s.n_records:
                assert int(s.cycle_index.max()) < s.total_cycles


def test_split_identity_and_one_cycle_each():
    rng = np.random.default_rng(11)
    sensor = SensorConfig(num_pixels=8)
    cycles = random_cycles(rng, sensor, max_cycles=12, max_records=80)
    assert cycles, "seed must produce a non-empty stream"
    stream = PhotonStream.from_cycles(StreamHeader(sensor=sensor), cycles)
    (only,) = split_subsets(stream, 1)
    np.testing.assert_array_equal(only.cycle_index, stream.cycle_index)
    np.testing.assert_array_equal(only.pixel, stream.pixel)
    assert only.total_cycles == stream.total_cycles

    subs = split_subsets(stream, stream.total_cycles)
    assert all(s.total_cycles == 1 for s in subs)
    assert all((s.cycle_index == 0).all() for s in subs)


def test_split_rejects_bad_counts():
    stream = make_stream(np.full(4, 3), total_cycles=5,
                         sensor=SensorConfig(num_pixels=4))
    with pytest.raises(DataError, match="split"):
        split_subsets(stream, 6)
    with pytest.raises(ValueError, match="positive"):
        split_subsets(stream, 0)


def test_split_subset_serializes_with_own_cycle_count():
    # A subset of a stream read from disk must not inherit the parent's
    # total_cycles metadata on write.
    import io

    stream = make_stream(np.full(4, 50), total_cycles=20,
                         sensor=SensorConfig(num_pixels=4))
    buf = io.BytesIO()
    stream.write(buf)
    buf.seek(0)
    reread = PhotonStream.read(buf)
    assert reread.header.metadata["total_cycles"] == "20"

    sub = split_subsets(reread, 2)[1]
    buf = io.BytesIO()
    sub.write(buf)
    buf.seek(0)
    back = PhotonStream.read(buf)
    assert back.total_cycles == 10
    assert back.header.metadata["total_cycles"] == "10"


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 29), st.integers(0, 7)),
                max_size=60),
       st.booleans(), st.integers(1, 30), st.integers(1, 8),
       st.none() | st.sampled_from([0.5, 3.0, 1e-3]))
def test_property_subset_rates_equal_split_subsets(recs, in_order, total, n,
                                                   duration):
    # The one-pass span count against the reports of split_subsets'
    # streams, on cycle columns in any order, with records past
    # total_cycles (in no span) and pixels past the sensor's 4 (each
    # subset's rates end at its own largest pixel, as its bincount does).
    if in_order:
        recs = sorted(recs)
    stream = PhotonStream(
        StreamHeader(SensorConfig(num_pixels=4)),
        np.array([c for c, _ in recs], np.uint64),
        np.array([p for _, p in recs], np.uint16), np.zeros(len(recs)),
        total_cycles=total)
    threshold = 2000.0
    if n > total:
        with pytest.raises(DataError, match="split"):
            compute_rates(stream, duration_s=duration, n_subsets=n,
                          hot_threshold_cps=threshold)
        return
    report = compute_rates(stream, duration_s=duration, n_subsets=n,
                           hot_threshold_cps=threshold)
    total_s = _resolve_duration(stream, duration)
    want = [("", _rates_for(stream.counts_per_pixel(), total_s, threshold))]
    for k, sub in enumerate(split_subsets(stream, n)):
        sub_s = (_resolve_duration(sub, None) if duration is None
                 else duration * sub.total_cycles / stream.total_cycles)
        want.append((f"subset {k}",
                     _rates_for(sub.counts_per_pixel(), sub_s, threshold)))
    got = [("", report), *report.subset_reports]
    assert [label for label, _ in got] == [label for label, _ in want]
    for (_, g), (_, w) in zip(got, want):
        assert g.rates_cps.dtype == w.rates_cps.dtype
        np.testing.assert_array_equal(g.rates_cps, w.rates_cps)
        assert (g.median_rate_cps, g.hot_pixels, g.duration_s) == \
            (w.median_rate_cps, w.hot_pixels, w.duration_s)


def test_median_invariant_under_pixel_permutation():
    rng = np.random.default_rng(5)
    sensor = SensorConfig(num_pixels=32)
    counts = rng.poisson(40, size=32)
    stream = make_stream(counts, total_cycles=64, sensor=sensor)
    perm = rng.permutation(32).astype(np.uint16)
    shuffled_pix = perm[stream.pixel]
    order = np.lexsort((shuffled_pix, stream.time_ps, stream.cycle_index))
    shuffled = PhotonStream(
        header=stream.header,
        cycle_index=stream.cycle_index[order],
        pixel=shuffled_pix[order],
        time_ps=stream.time_ps[order],
        raw_code=None, total_cycles=stream.total_cycles)
    a = compute_rates(stream, duration_s=1.0)
    b = compute_rates(shuffled, duration_s=1.0)
    assert a.median_rate_cps == b.median_rate_cps


def test_hot_set_invariant_under_retiming():
    rng = np.random.default_rng(17)
    sensor = SensorConfig(num_pixels=16)
    counts = rng.integers(0, 3000, size=16)
    a = make_stream(counts, total_cycles=10, sensor=sensor, seed=2)
    b = make_stream(counts, total_cycles=10, sensor=sensor, seed=99)
    ra = compute_rates(a, duration_s=1.0)
    rb = compute_rates(b, duration_s=1.0)
    assert ra.hot_pixels == rb.hot_pixels


def test_subset_medians_track_a_ramp():
    # Deterministic drift: every pixel fires k+1 times per cycle in span k.
    sensor = SensorConfig(num_pixels=8)
    n_spans, span = 6, 10
    cyc, pix, t = [], [], []
    for c in range(n_spans * span):
        per = c // span + 1
        for rep in range(per):
            for p in range(8):
                cyc.append(c)
                pix.append(p)
                t.append(100.0 * rep + p)
    order = np.lexsort((pix, t, cyc))
    stream = PhotonStream(
        header=StreamHeader(sensor=sensor),
        cycle_index=np.array(cyc, dtype=np.uint64)[order],
        pixel=np.array(pix, dtype=np.uint16)[order],
        time_ps=np.array(t, dtype=np.float64)[order],
        raw_code=None, total_cycles=n_spans * span)
    report = compute_rates(stream, n_subsets=n_spans)
    medians = [r.median_rate_cps for _, r in report.subset_reports]
    assert len(medians) == n_spans
    assert all(m2 > m1 for m1, m2 in zip(medians, medians[1:]))
    total_sub = sum(r.duration_s for _, r in report.subset_reports)
    assert total_sub == pytest.approx(report.duration_s)


def test_explicit_duration_split_proportionally():
    stream = make_stream(np.full(4, 30), total_cycles=9,
                         sensor=SensorConfig(num_pixels=4))
    report = compute_rates(stream, duration_s=18.0, n_subsets=2)
    durations = [r.duration_s for _, r in report.subset_reports]
    assert durations == [pytest.approx(8.0), pytest.approx(10.0)]


def test_report_json_shape():
    counts = np.zeros(4, dtype=int)
    counts[2] = 12
    stream = make_stream(counts, total_cycles=6,
                         sensor=SensorConfig(num_pixels=4))
    report = compute_rates(stream, duration_s=2.0, n_subsets=2,
                           hot_threshold_cps=5.0)
    d = report.to_json_dict()
    assert d["schema_version"] == 1
    assert d["hot_pixels"] == [[2, 6.0]]
    assert len(d["rates_cps"]) == 4
    assert [s["label"] for s in d["subsets"]] == ["subset 0", "subset 1"]
    assert all("schema_version" in s for s in d["subsets"])


@pytest.mark.parametrize("dtype", [np.int64, np.uint16, np.float64])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 10, 935])
def test_median_is_np_median_bit_for_bit(dtype, n):
    rng = np.random.default_rng(n)
    values = (rng.normal(size=n) * 1000).astype(dtype)
    for row in (values, np.concatenate(
            [np.full(n // 2, values[-1]), values[n // 2:]])):  # ties
        got, want = _median(row), np.median(row)
        assert type(got) is type(want) and got == want
    if values.dtype.kind == "f":
        values[n // 2] = np.nan
        got, want = _median(values), np.median(values)
        assert type(got) is type(want) and np.isnan(got)
