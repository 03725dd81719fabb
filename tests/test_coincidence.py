"""Coincidence histograms against a brute-force pairing oracle."""

from __future__ import annotations

import importlib.util
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spadkit import DataError, PhotonStream, SensorConfig, StreamHeader
from spadkit import coincidence
from spadkit.offsets import apply_delays
from conftest import column_bytes, traced_peak
from spadkit.coincidence import (
    DeltaHistogram,
    PixelIndex,
    build_histogram,
    default_bin_width_ps,
    n_bins,
    normalize_histogram,
    pair_histograms,
)

SENSOR = SensorConfig()
HEADER = StreamHeader(SENSOR)


def stream_from(records: list[tuple[int, int, float]]) -> PhotonStream:
    """records: (cycle, pixel, time_ps), any order."""
    if not records:
        return PhotonStream(HEADER, np.empty(0, np.uint64),
                            np.empty(0, np.uint16), np.empty(0, np.float64))
    arr = sorted(records)
    cyc = np.array([r[0] for r in arr], dtype=np.uint64)
    pix = np.array([r[1] for r in arr], dtype=np.uint16)
    t = np.array([r[2] for r in arr], dtype=np.float64)
    order = np.lexsort((pix, t, cyc))
    return PhotonStream(HEADER, cyc[order], pix[order], t[order])


def brute_force_counts(records, a, b, window, bin_width, delays=None):
    """Pure-python reference pairing, independent of the implementation."""
    nb = n_bins(window, bin_width)
    counts = np.zeros(nb, dtype=np.int64)
    da = delays[a] if delays is not None else 0.0
    db = delays[b] if delays is not None else 0.0
    for ca, pa, ta in records:
        if pa != a:
            continue
        for cb, pb, tb in records:
            if pb != b or cb != ca:
                continue
            dt = (tb - db) - (ta - da)
            if abs(dt) <= window:
                idx = min(int((dt + window) // bin_width), nb - 1)
                counts[idx] += 1
    return counts


# ---------------------------------------------------------------------------

def test_single_pair_lands_in_expected_bin():
    s = stream_from([(0, 10, 1000.0), (0, 20, 1300.0)])
    h = build_histogram(s, (10, 20), window_ps=500.0, bin_width_ps=100.0)
    # dt = +300 -> bin floor((300+500)/100) = 8
    expected = np.zeros(10, dtype=np.int64)
    expected[8] = 1
    np.testing.assert_array_equal(h.counts, expected)
    assert h.total_pairs == 1


def test_pairs_do_not_cross_cycles():
    s = stream_from([(0, 10, 1000.0), (1, 20, 1300.0)])
    h = build_histogram(s, (10, 20), window_ps=500.0, bin_width_ps=100.0)
    assert h.total_pairs == 0
    assert not h.counts.any()


def test_window_edges_inclusive():
    s = stream_from([(0, 1, 1000.0), (0, 2, 1500.0),
                     (1, 1, 1500.0), (1, 2, 1000.0)])
    h = build_histogram(s, (1, 2), window_ps=500.0, bin_width_ps=100.0)
    assert h.total_pairs == 2  # dt = +500 and -500 both inside
    assert h.counts[0] == 1 and h.counts[-1] == 1


def test_window_edges_inclusive_from_either_side():
    # The walk meets pixel 1 before pixel 2 in time or after it; both
    # orders must keep dt = t_b - t_a and both closed window edges.
    for dense, sparse in ((1, 2), (2, 1)):
        recs = [(0, dense, t) for t in (1000.0, 1200.0, 1300.0, 2000.0)]
        recs.append((0, sparse, 1500.0))
        h = build_histogram(stream_from(recs), (1, 2), window_ps=500.0,
                            bin_width_ps=100.0)
        np.testing.assert_array_equal(
            h.counts, brute_force_counts(recs, 1, 2, 500.0, 100.0))
        assert h.total_pairs == 4
        assert h.counts[0] == 1 and h.counts[-1] == 1


def test_all_cross_pairs_counted():
    # 3 a-records and 2 b-records in one cycle -> 6 pairs
    recs = [(0, 5, 100.0 * k) for k in range(3)] + [(0, 6, 50.0 + 100.0 * k) for k in range(2)]
    h = build_histogram(stream_from(recs), (5, 6), window_ps=1000.0, bin_width_ps=50.0)
    assert h.total_pairs == 6


def test_uninvolved_pixels_do_not_matter():
    base = [(0, 3, 500.0), (0, 9, 700.0)]
    noise = [(0, 4, 100.0), (0, 100, 650.0), (1, 3, 10.0)]
    h1 = build_histogram(stream_from(base), (3, 9), 1000.0, 100.0)
    h2 = build_histogram(stream_from(base + noise), (3, 9), 1000.0, 100.0)
    np.testing.assert_array_equal(h1.counts, h2.counts)


def test_delay_correction_shifts_differences():
    s = stream_from([(0, 1, 1000.0), (0, 2, 1000.0)])
    delays = np.zeros(SENSOR.num_pixels)
    delays[2] = 250.0  # pixel 2 reports late by 250 ps
    h = build_histogram(apply_delays(s, delays), (1, 2), window_ps=500.0,
                        bin_width_ps=100.0)
    # corrected dt = (1000-250) - 1000 = -250 -> bin 2
    assert h.counts[2] == 1 and h.total_pairs == 1


def test_pair_validation():
    s = stream_from([(0, 1, 10.0)])
    with pytest.raises(ValueError, match="differ"):
        build_histogram(s, (1, 1))
    with pytest.raises(ValueError, match="ordered"):
        build_histogram(s, (2, 1))
    with pytest.raises(ValueError, match="outside"):
        build_histogram(s, (1, SENSOR.num_pixels))


def test_bin_count_is_ceiling():
    assert n_bins(25_000.0, 53.571428571428573) == 934
    assert n_bins(500.0, 100.0) == 10
    assert n_bins(500.0, 300.0) == 4  # 1000/300 -> ceil(3.33)


def test_bin_count_over_the_limit_is_refused():
    # a +-2**23 ps window in bins just under 1 ps needs one bin too many
    s = stream_from([(0, 1, 10.0), (0, 2, 20.0)])
    width = 2.0 ** 24 / (coincidence.MAX_BINS + 1)
    with pytest.raises(DataError, match=f"over {coincidence.MAX_BINS} bins"):
        pair_histograms(s, [(1, 2)], 2.0 ** 23, width)


def test_default_bin_width_is_three_tdc_bins():
    s = stream_from([(0, 1, 10.0)])
    assert default_bin_width_ps(s) == pytest.approx(3 * 2500 / 140)


# ---------------------------------------------------------------------------
# normalization

def test_normalize_flat_plus_delta():
    counts = np.full(10, 40, dtype=np.int64)
    counts[7] = 400
    h = DeltaHistogram(1, 2, 500.0, 100.0, counts, int(counts.sum()))
    n = normalize_histogram(h)
    assert n.median_count == 40
    assert n.normalized[0] == pytest.approx(1.0)
    assert n.normalized[7] == pytest.approx(10.0)
    # original histogram is untouched
    assert h.normalized is None


def test_normalize_all_zero_is_error():
    h = DeltaHistogram(1, 2, 500.0, 100.0, np.zeros(10, dtype=np.int64), 0)
    with pytest.raises(DataError, match="all-zero"):
        normalize_histogram(h)


def test_normalize_zero_median_is_error():
    counts = np.zeros(11, dtype=np.int64)
    counts[5] = 100  # a lone spike: median stays 0
    h = DeltaHistogram(1, 2, 550.0, 100.0, counts, 100)
    with pytest.raises(DataError, match="median"):
        normalize_histogram(h)


def test_json_roundtrip():
    counts = np.arange(10, dtype=np.int64)
    h = normalize_histogram(
        DeltaHistogram(1, 2, 500.0, 100.0, counts, int(counts.sum())))
    back = DeltaHistogram.from_json_dict(h.to_json_dict())
    np.testing.assert_array_equal(back.counts, h.counts)
    np.testing.assert_allclose(back.normalized, h.normalized)
    assert back.median_count == h.median_count
    doc = h.to_json_dict()
    del doc["median_count"]  # normalized counts need their median
    with pytest.raises(DataError, match="median_count"):
        DeltaHistogram.from_json_dict(doc)


# ---------------------------------------------------------------------------
# properties

@st.composite
def record_sets(draw):
    n = draw(st.integers(0, 40))
    recs = [
        (draw(st.integers(0, 4)), draw(st.integers(0, 5)),
         float(draw(st.integers(0, 4000))))
        for _ in range(n)
    ]
    return recs


def delay_vectors():
    """Integer per-pixel delays (exact float arithmetic), some of which
    push records of 0..4000 ps below zero or past the cycle period."""
    period = SENSOR.cycle_period_ps
    shift = st.sampled_from([0, 37, -250, 1200, 4001, -period, 1 - period])
    return st.lists(shift, min_size=6, max_size=6).map(
        lambda d: np.array(d + [0] * (SENSOR.num_pixels - 6), np.float64))


@settings(max_examples=120, deadline=None)
@given(record_sets(), st.integers(0, 4), st.integers(1, 5),
       st.none() | delay_vectors())
def test_property_matches_brute_force(recs, a, db, delays):
    # With delays, the oracle subtracts them per pair; the stream gets them
    # once from apply_delays, which keeps records that leave the cycle.
    b = a + db
    window, bw = 1500.0, 130.0
    s = stream_from(recs)
    if delays is not None:
        s = apply_delays(s, delays)
    h = build_histogram(s, (a, b), window, bw)
    np.testing.assert_array_equal(
        h.counts, brute_force_counts(recs, a, b, window, bw, delays))
    assert h.total_pairs == h.counts.sum()


@st.composite
def lopsided_record_sets(draw):
    """Many records on one of pixels 1 and 2, a few on the other (either
    way round), some of those few exactly +-window from a dense record."""
    dense, sparse = draw(st.sampled_from([(1, 2), (2, 1)]))
    n_cycles = draw(st.integers(1, 3))
    recs = [(draw(st.integers(0, n_cycles - 1)), dense,
             float(draw(st.integers(1500, 4000))))
            for _ in range(draw(st.integers(5, 40)))]
    for _ in range(draw(st.integers(0, 4))):
        cycle, _pixel, t = draw(st.sampled_from(recs))
        shift = draw(st.sampled_from([-1500.0, 1500.0, 0.0, 130.0, 1501.0]))
        recs.append((cycle, sparse, t + shift))
    return recs + draw(record_sets())


@settings(max_examples=150, deadline=None)
@given(lopsided_record_sets(), st.sampled_from([1, 2, 3, 1 << 16]))
def test_property_lopsided_pairs_match_brute_force(recs, chunk):
    # Small chunks end the walk at the edges of the dense cycles.
    window, bw = 1500.0, 130.0
    s = stream_from(recs)
    expected = brute_force_counts(recs, 1, 2, window, bw)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(coincidence, "_RECORD_CHUNK", chunk)
        for h in (build_histogram(s, (1, 2), window, bw),
                  PixelIndex.from_stream(s).histogram((1, 2), window, bw)):
            np.testing.assert_array_equal(h.counts, expected)
            assert h.total_pairs == expected.sum()


@settings(max_examples=80, deadline=None)
@given(record_sets())
def test_property_swapping_roles_mirrors_histogram(recs):
    # Relabel pixels 1 <-> 2: dt flips sign, so counts reverse exactly
    # when no dt sits on a bin edge; shifting one pixel's integer times
    # by half a picosecond keeps every difference off the edges.
    recs = [(c, p, t + (0.5 if p == 2 else 0.0)) for c, p, t in recs]
    swapped = [(c, {1: 2, 2: 1}.get(p, p), t) for c, p, t in recs]
    h = build_histogram(stream_from(recs), (1, 2), 1500.0, 100.0)
    m = build_histogram(stream_from(swapped), (1, 2), 1500.0, 100.0)
    np.testing.assert_array_equal(m.counts, h.counts[::-1])


@settings(max_examples=60, deadline=None)
@given(record_sets(), st.integers(-3000, 3000))
def test_property_gauge_invariance(recs, shift):
    # Integer-valued delays + integer common shift: exact float arithmetic,
    # so the histogram must be bit-identical.
    delays = np.arange(SENSOR.num_pixels, dtype=np.float64) * 7.0
    s = stream_from(recs)
    h1 = build_histogram(apply_delays(s, delays), (0, 3), 1500.0, 100.0)
    h2 = build_histogram(apply_delays(s, delays + float(shift)), (0, 3),
                         1500.0, 100.0)
    np.testing.assert_array_equal(h1.counts, h2.counts)


@settings(max_examples=60, deadline=None)
@given(record_sets(), st.permutations(range(5)))
def test_property_cycle_relabeling_invariance(recs, perm):
    # Relabeling cycle indices (order-preserving on content of each cycle)
    # must not change the histogram: pairing is purely intra-cycle.
    relabeled = [(perm[c], p, t) for c, p, t in recs]
    h1 = build_histogram(stream_from(recs), (0, 1), 1500.0, 100.0)
    h2 = build_histogram(stream_from(relabeled), (0, 1), 1500.0, 100.0)
    np.testing.assert_array_equal(np.sort(h1.counts), np.sort(h2.counts))
    assert h1.total_pairs == h2.total_pairs
    np.testing.assert_array_equal(h1.counts, h2.counts)


# ---------------------------------------------------------------------------
# PixelIndex

@settings(max_examples=60, deadline=None)
@given(record_sets(), st.integers(0, 4), st.integers(1, 5))
def test_property_index_matches_build_histogram(recs, a, db):
    b = a + db
    s = stream_from(recs)
    delays = np.linspace(-50.0, 50.0, SENSOR.num_pixels)
    for stream in (s, apply_delays(s, delays)):
        h = build_histogram(stream, (a, b), 1500.0, 130.0)
        g = PixelIndex.from_stream(stream).histogram((a, b), 1500.0, 130.0)
        np.testing.assert_array_equal(g.counts, h.counts)
        assert g.total_pairs == h.total_pairs
        assert (g.pixel_a, g.pixel_b, g.window_ps, g.bin_width_ps) == \
            (h.pixel_a, h.pixel_b, h.window_ps, h.bin_width_ps)


def test_index_counts_and_slices():
    recs = [(0, 3, 10.0), (0, 3, 20.0), (1, 3, 5.0), (0, 1, 7.0)]
    idx = PixelIndex.from_stream(stream_from(recs))
    counts = idx.counts_per_pixel
    assert counts[3] == 3 and counts[1] == 1 and counts.sum() == 4
    cyc, t = idx.records_for(3)
    assert list(cyc) == [0, 0, 1]
    assert list(t) == [10.0, 20.0, 5.0]
    with pytest.raises(ValueError):
        idx.records_for(SENSOR.num_pixels)


def test_index_validates_pairs_like_build_histogram():
    idx = PixelIndex.from_stream(stream_from([(0, 1, 10.0)]))
    with pytest.raises(ValueError):
        idx.histogram((2, 2))
    with pytest.raises(ValueError):
        idx.histogram((3, 1))


# ---------------------------------------------------------------------------
# pair_histograms: one pass for the pairs of a scan

# Cycle indices near both ends of uint64, with gaps above 2**63.  On 256
# pixels, 2**55 + 1 and 1 times any stride of 512 agree modulo 2**64, so a
# key built from raw cycle indices would pair records across them.
CYCLES = [0, 1, 2, 2**55 + 1, 2**63 + 5, 2**64 - 3, 2**64 - 2, 2**64 - 1]


@st.composite
def scan_record_sets(draw):
    """Records around one dense pixel and the pairs of a scan over its
    neighbours at 1..D on both sides, with some pairs requested twice.

    The dense pixel fires several times per cycle (runs of one pixel in
    one cycle) and is the lower pixel of some pairs and the higher of
    others; a few sparse records sit exactly +-window from dense ones."""
    d_max = draw(st.integers(1, 4))
    hot = draw(st.integers(0, 2 * d_max))
    cycles = draw(st.lists(st.sampled_from(CYCLES), min_size=1, max_size=4,
                           unique=True))
    cycle = st.sampled_from(cycles)
    recs = [(draw(cycle), hot, float(draw(st.integers(1500, 4000))))
            for _ in range(draw(st.integers(0, 30)))]
    near = st.integers(max(hot - d_max - 1, 0), hot + d_max + 1)
    for _ in range(draw(st.integers(0, 15))):
        recs.append((draw(cycle), draw(near),
                     float(draw(st.integers(0, 4000)))))
    for _ in range(draw(st.integers(0, 4)) if recs else 0):
        cyc, _pixel, t = draw(st.sampled_from(recs))
        shift = draw(st.sampled_from([-1500.0, 1500.0, 0.0, 1501.0]))
        recs.append((cyc, draw(near), t + shift))
    pairs = [(min(hot, target), max(hot, target))
             for d in range(1, d_max + 1) for target in (hot - d, hot + d)
             if target >= 0]
    pairs += draw(st.lists(st.sampled_from(pairs), max_size=3))
    return recs, draw(st.permutations(pairs))


@settings(max_examples=150, deadline=None)
@given(scan_record_sets(), st.sampled_from([1, 2, 3, 5, 1 << 16]))
def test_property_pair_histograms_match_brute_force(scan, record_chunk):
    # Small chunks put cycles larger than a chunk and pairs on both sides
    # of chunk edges.
    recs, pairs = scan
    window, bw = 1500.0, 130.0
    s = stream_from(recs)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(coincidence, "_RECORD_CHUNK", record_chunk)
        hists = pair_histograms(s, pairs, window, bw)
    assert len(hists) == len(pairs)
    for pair, h in zip(pairs, hists):
        expected = brute_force_counts(recs, *pair, window, bw)
        assert (h.pixel_a, h.pixel_b) == pair
        np.testing.assert_array_equal(h.counts, expected)
        assert h.total_pairs == expected.sum()
        single = build_histogram(s, pair, window, bw)
        np.testing.assert_array_equal(single.counts, h.counts)
        assert single.total_pairs == h.total_pairs


@settings(max_examples=60, deadline=None)
@given(scan_record_sets())
def test_property_pair_counts_give_each_pair_its_row(scan):
    # The calibrations read the cube itself: each requested pair's row
    # holds its counts, a repeated pair shares its row, and distinct pairs
    # in ascending order have the rows 0, 1, ... in their order.
    recs, pairs = scan
    window, bw = 1500.0, 130.0
    s = stream_from(recs)
    cube, rows = coincidence._pair_counts(s, pairs, window, bw)
    distinct = sorted(set(pairs))
    assert cube.shape == (len(distinct), n_bins(window, bw))
    assert [distinct[row] for row in rows] == pairs
    for pair, row in zip(pairs, rows):
        np.testing.assert_array_equal(
            cube[row], brute_force_counts(recs, *pair, window, bw))
    again, ascending = coincidence._pair_counts(s, distinct, window, bw)
    assert ascending.tolist() == list(range(len(distinct)))
    np.testing.assert_array_equal(again, cube)


def time_ordered_stream(records, ties) -> PhotonStream:
    """records: (cycle, pixel, time_ps), put in (cycle, time) order with
    equal (cycle, time) records in the order of the permutation ``ties``:
    the walk needs no pixel order, so either pixel of a dt = 0 pair may
    come first."""
    order = sorted(ties, key=lambda k: records[k][0::2])
    cyc, pix, t = (np.array([records[k][f] for k in order], dtype=dtype)
                   for f, dtype in ((0, np.uint64), (1, np.uint16),
                                    (2, np.float64)))
    return PhotonStream(HEADER, cyc, pix, t)


@st.composite
def walk_record_sets(draw):
    """Up to 40 records of pixels 1 to 3 and unwanted 0, 4 and 9 in a few
    cycles, packed into a span of 0 (every dt = 0), one window (every
    record of a cycle pairs, many passes) or two windows.  Times are
    whole picoseconds around ``t0`` and some sit exactly +-window from
    another record of their cycle, with other records between them."""
    window = 1500
    t0 = draw(st.sampled_from([1000, 2**40]))
    span = draw(st.sampled_from([0, window, 2 * window]))
    n_cycles = draw(st.integers(1, 3))
    pixel = st.sampled_from([1, 2, 3, 0, 4, 9])
    recs = [(draw(st.integers(0, n_cycles - 1)), draw(pixel),
             float(t0 + draw(st.integers(0, span))))
            for _ in range(draw(st.integers(0, 40)))]
    for _ in range(draw(st.integers(0, 6)) if recs else 0):
        cycle, _pixel, t = draw(st.sampled_from(recs))
        shift = draw(st.sampled_from([-window, window, 0]))
        recs.append((cycle, draw(pixel), t + shift))
    return recs, draw(st.permutations(range(len(recs))))


@settings(max_examples=200, deadline=None)
@given(walk_record_sets(), st.sampled_from([1, 3, 1 << 16]))
def test_property_walk_matches_brute_force(walk, chunk):
    recs, ties = walk
    pairs = [(1, 2), (1, 3), (2, 3)]
    window, bw = 1500.0, 130.0
    with pytest.MonkeyPatch.context() as m:
        m.setattr(coincidence, "_RECORD_CHUNK", chunk)
        hists = pair_histograms(time_ordered_stream(recs, ties), pairs,
                                window, bw)
    for pair, h in zip(pairs, hists):
        np.testing.assert_array_equal(
            h.counts, brute_force_counts(recs, *pair, window, bw))


@pytest.mark.parametrize("cycles, times", [
    ([1, 2, 1], [10.0, 20.0, 30.0]),     # cycles out of order
    ([1, 1, 1], [10.0, 30.0, 20.0]),     # times out of order in a cycle
    ([1, 1, 2], [10.0, np.nan, 20.0]),   # a NaN time is in no order
    ([1, 2, 3, 2], [10.0] * 4),          # one record out of order, last
], ids=["cycles", "times", "nan", "last"])
@pytest.mark.parametrize("chunk", [1, 2, 1 << 16])
def test_out_of_order_streams_are_refused(cycles, times, chunk):
    # API streams are not checked when made: a pair count on records out
    # of (cycle, time) order raises rather than losing pairs.
    n = len(cycles)
    s = PhotonStream(HEADER, np.array(cycles, np.uint64),
                     np.array([1, 2] * n, np.uint16)[:n],
                     np.array(times, np.float64))
    with pytest.MonkeyPatch.context() as m:
        m.setattr(coincidence, "_RECORD_CHUNK", chunk)
        with pytest.raises(DataError, match=r"\(cycle, time\) order"):
            pair_histograms(s, [(1, 2)], 1000.0, 100.0)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1,
                max_size=9), st.integers(1, 4))
def test_property_cycle_order_is_checked_whatever_the_chunks(recs, chunk):
    # Any cycle column, unrequested pixels 0 and 3 included: a count is
    # refused exactly when the column decreases somewhere.
    cyc = np.array([c for c, _ in recs], np.uint64)
    s = PhotonStream(HEADER, cyc, np.array([p for _, p in recs], np.uint16),
                     np.zeros(len(recs)))
    with pytest.MonkeyPatch.context() as m:
        m.setattr(coincidence, "_RECORD_CHUNK", chunk)
        if (cyc[1:] >= cyc[:-1]).all():
            pair_histograms(s, [(1, 2)], 1000.0, 100.0)
        else:
            with pytest.raises(DataError, match="order"):
                pair_histograms(s, [(1, 2)], 1000.0, 100.0)


@pytest.mark.parametrize("chunk", [1, 2, 1 << 16])
def test_every_record_needs_cycle_order_but_only_kept_ones_time_order(
        chunk):
    # Pixel 5 is requested by no pair.  Its times out of order within a
    # cycle do not matter; its cycle out of order is refused at every
    # chunk size, so the answer never depends on where chunks are cut.
    s = PhotonStream(HEADER, np.array([3, 3, 3, 3], np.uint64),
                     np.array([1, 5, 5, 2], np.uint16),
                     np.array([10.0, 90.0, 5.0, 40.0]))
    bad = PhotonStream(HEADER, np.array([3, 3, 2, 3], np.uint64),
                       s.pixel, s.time_ps)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(coincidence, "_RECORD_CHUNK", chunk)
        h, = pair_histograms(s, [(1, 2)], 1000.0, 100.0)
        assert h.total_pairs == 1 and h.counts[10] == 1
        with pytest.raises(DataError, match="order"):
            pair_histograms(bad, [(1, 2)], 1000.0, 100.0)


def test_pair_count_scratch_is_a_few_chunks():
    # A long stream of dense cycles on 16 pixels, every record in the
    # window of every other of its cycle: the walk's arrays beyond the
    # cube stay a small multiple of one chunk's record columns.
    rng = np.random.default_rng(5)
    per_cycle = 40
    n = per_cycle * 3200
    cyc = np.repeat(np.arange(n // per_cycle, dtype=np.uint64), per_cycle)
    t = np.sort(rng.integers(0, 1000, (n // per_cycle, per_cycle)),
                axis=1).reshape(-1).astype(np.float64)
    s = PhotonStream(HEADER, cyc, rng.integers(0, 16, n).astype(np.uint16),
                     t)
    pairs = [(a, b) for a in range(16) for b in range(a + 1, 16)]
    chunk = 1 << 12
    with pytest.MonkeyPatch.context() as m:
        m.setattr(coincidence, "_RECORD_CHUNK", chunk)
        hists, peak = traced_peak(
            lambda: pair_histograms(s, pairs, 25_000.0, 500.0))
    cube = len(pairs) * len(hists[0].counts) * 8
    assert sum(h.total_pairs for h in hists) > n * 10
    assert peak - cube < 6 * chunk * column_bytes(s) / n


def test_duplicate_pairs_read_one_row():
    recs = [(0, 1, 100.0), (0, 2, 400.0), (0, 2, 900.0), (3, 1, 50.0),
            (3, 2, 20.0), (3, 3, 70.0)]
    s = stream_from(recs)
    hists = pair_histograms(s, [(1, 2), (2, 3), (1, 2)], 1000.0, 100.0)
    first, _, again = hists
    np.testing.assert_array_equal(first.counts,
                                  brute_force_counts(recs, 1, 2, 1000.0, 100.0))
    np.testing.assert_array_equal(again.counts, first.counts)
    assert first.total_pairs == again.total_pairs == 3


def test_cycle_larger_than_a_chunk_stays_whole():
    # Six records of one cycle between single-record cycles, walked in
    # chunks of two records: the cycle is not split.
    recs = [(0, 4, 10.0)] + [(5, 4 + k % 2, 100.0 * k) for k in range(6)] \
        + [(9, 5, 30.0)]
    with pytest.MonkeyPatch.context() as m:
        m.setattr(coincidence, "_RECORD_CHUNK", 2)
        h, = pair_histograms(stream_from(recs), [(4, 5)], 1000.0, 100.0)
    np.testing.assert_array_equal(h.counts,
                                  brute_force_counts(recs, 4, 5, 1000.0, 100.0))
    assert h.total_pairs == 9


def test_cycle_indices_never_alias():
    recs = [(1, 1, 100.0), (2**55 + 1, 2, 300.0), (2**63 + 1, 1, 50.0),
            (2**64 - 1, 1, 10.0), (2**64 - 1, 2, 20.0)]
    h, = pair_histograms(stream_from(recs), [(1, 2)], 1000.0, 100.0)
    assert h.total_pairs == 1 and h.counts[10] == 1


def test_empty_stream_and_pairs_without_records():
    for recs in ([], [(0, 7, 10.0), (0, 9, 20.0)]):
        hists = pair_histograms(stream_from(recs), [(0, 1), (3, 5)],
                                500.0, 100.0)
        assert [(h.pixel_a, h.pixel_b) for h in hists] == [(0, 1), (3, 5)]
        for h in hists:
            assert h.total_pairs == 0 and not h.counts.any()
            assert len(h.counts) == 10
    assert pair_histograms(stream_from([]), [], 500.0, 100.0) == []


def test_pair_histograms_validate_every_pair():
    s = stream_from([(0, 1, 10.0)])
    with pytest.raises(ValueError, match="differ"):
        pair_histograms(s, [(0, 1), (2, 2)])
    with pytest.raises(ValueError, match="ordered"):
        pair_histograms(s, [(0, 1), (3, 1)])
    with pytest.raises(ValueError, match="outside"):
        pair_histograms(s, [(0, SENSOR.num_pixels)])
    with pytest.raises(ValueError, match="positive"):
        pair_histograms(s, [(0, 1)], window_ps=0.0)


def test_perfbench_tracer_still_wraps_the_histogram_entry_points():
    # perfbench's --trace 1 wraps PixelIndex.from_stream, PixelIndex.
    # histogram and build_histogram by name and counts pairs through
    # PixelIndex.records_for; a rename here must fail this test.
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" \
        / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    import spadkit.cli  # noqa: F401  (the tracer wraps cli.main too)

    recs = [(0, 1, 100.0), (0, 2, 400.0), (0, 2, 900.0), (2, 1, 50.0)]
    s = stream_from(recs)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        index = coincidence.PixelIndex.from_stream(s)
        by_index = index.histogram((1, 2), 1000.0, 100.0)
        by_stream = coincidence.build_histogram(s, (1, 2), 1000.0, 100.0)
    finally:
        tracer.uninstall()
    assert coincidence.build_histogram is build_histogram
    np.testing.assert_array_equal(by_index.counts, by_stream.counts)
    spans = tracer.take()
    names = [span.name for span in spans]
    assert "spadkit.coincidence.PixelIndex.from_stream" in names
    histogram_spans = [span for span in spans
                       if span.key == "coincidence.histogram"]
    assert len(histogram_spans) == 2
    for span in histogram_spans:
        assert span.counts == {"pairs_in_window": 2, "pairs_expanded": 2}
    layers = tracing.layer_metrics(spans, 1.0)
    assert layers["coincidence.histogram_calls"] == 2
    assert layers["coincidence.pairs_in_window"] == 4
