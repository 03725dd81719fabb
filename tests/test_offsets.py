"""Delay calibration: exact solver oracle plus simulator round trips."""

from __future__ import annotations

import io
import json
import logging
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import column_bytes, traced_peak
from spadkit import (CalibrationError, DataError, FitError, PhotonStream,
                     SensorConfig, StreamFormatError, offsets, peakfit)
from spadkit.coincidence import (DEFAULT_WINDOW_PS, DeltaHistogram,
                                 build_histogram, pair_histograms)
from spadkit.offsets import (
    DelayVector,
    OffsetMeasurement,
    apply_delays,
    invalid_fraction,
    measure_offsets,
    solve_delays,
)
from spadkit.peakfit import fit_gaussian, fit_gaussians
from spadkit.simulator import DcrProfile, SimConfig, simulate


def measurements_from(offs, valid=None):
    if valid is None:
        valid = [True] * len(offs)
    return [OffsetMeasurement(i, i + 1, off if ok else float("nan"),
                              1.0 if ok else float("inf"), ok)
            for i, (off, ok) in enumerate(zip(offs, valid))]


def dense_solution(offs):
    """Direct solve of the chain + mean-zero constraint as a full matrix."""
    n = len(offs) + 1
    a = np.zeros((n, n))
    b = np.zeros(n)
    for k, off in enumerate(offs):
        a[k, k] = 1.0
        a[k, k + 1] = -1.0
        b[k] = off
    a[n - 1, :] = 1.0
    return np.linalg.solve(a, b)


@pytest.fixture(scope="module")
def calibrated_scenario():
    rng = np.random.default_rng(42)
    delays = rng.uniform(-5000.0, 5000.0, SensorConfig().num_pixels)
    # 0.012 neighbor CT on 20k counts/pixel puts ~3 ps on each step, so
    # the accumulated random walk stays well under the 50 ps RMS bound
    # even for an unlucky seed (bridge RMS has ~90% spread).
    config = SimConfig(
        seed=99,
        duration_s=20.0,
        dcr=DcrProfile(base_cps=1000.0),
        ct_profile=((1, 0.012),),
        delays_ps=tuple(delays),
    )
    stream, _truth = simulate(config)
    return stream, delays - delays.mean()


# ---------------------------------------------------------------------------
# solver

def test_forward_substitution_satisfies_every_equation():
    offs = [100.0, -50.0, 20.0]
    vec = solve_delays(measurements_from(offs))
    d = vec.delays_ps
    assert len(d) == 4
    for i, off in enumerate(offs):
        assert d[i] - d[i + 1] == pytest.approx(off, abs=1e-9)
    assert abs(d.mean()) <= 1e-9
    # residual against the explicit matrix form
    n = len(d)
    a = np.zeros((n, n))
    b = np.zeros(n)
    for k, off in enumerate(offs):
        a[k, k], a[k, k + 1], b[k] = 1.0, -1.0, off
    a[n - 1, :] = 1.0
    assert np.max(np.abs(a @ d - b)) < 1e-9


def test_zero_offsets_give_zero_delays():
    vec = solve_delays(measurements_from([0.0] * 7))
    np.testing.assert_allclose(vec.delays_ps, 0.0, atol=1e-12)
    assert vec.gap_pixels == ()
    assert not vec.degraded


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 16).flatmap(
    lambda n: st.lists(st.floats(-1e4, 1e4), min_size=n - 1, max_size=n - 1)))
def test_property_matches_dense_solver(offs):
    vec = solve_delays(measurements_from(offs))
    np.testing.assert_allclose(vec.delays_ps, dense_solution(offs), atol=1e-9)


def test_gaps_join_segments_with_zero_offset():
    offs = [10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0]
    valid = [True] * 9
    valid[3] = valid[6] = False
    vec = solve_delays(measurements_from(offs, valid))
    d = vec.delays_ps
    assert vec.gap_pixels == ((3, 4), (6, 7))
    assert d[3] == pytest.approx(d[4], abs=1e-9)
    assert d[6] == pytest.approx(d[7], abs=1e-9)
    for i, off in enumerate(offs):
        if valid[i]:
            assert d[i] - d[i + 1] == pytest.approx(off, abs=1e-9)
    assert vec.degraded  # 2 of 9 pairs > 20%


def test_missing_pairs_are_gaps_too():
    ms = [OffsetMeasurement(0, 1, 5.0, 1.0, True),
          OffsetMeasurement(3, 4, -5.0, 1.0, True)]
    vec = solve_delays(ms)
    assert vec.gap_pixels == ((1, 2), (2, 3))
    assert len(vec) == 5
    assert vec.provenance == (ms[0], ms[1])


def test_no_valid_measurements_is_an_error():
    with pytest.raises(CalibrationError):
        solve_delays(measurements_from([1.0, 2.0], valid=[False, False]))
    with pytest.raises(CalibrationError):
        solve_delays([])


def test_duplicate_and_non_adjacent_rejected():
    m = OffsetMeasurement(2, 3, 1.0, 0.1, True)
    with pytest.raises(ValueError):
        solve_delays([m, m])
    with pytest.raises(ValueError):
        OffsetMeasurement(2, 4, 1.0, 0.1, True)


def test_delay_vector_must_be_mean_zero():
    with pytest.raises(ValueError):
        DelayVector(np.array([1.0, 2.0, 3.0]))
    vec = DelayVector.centered(np.array([1.0, 2.0, 3.0]))
    assert abs(vec.delays_ps.mean()) <= 1e-9


def test_delay_vector_must_be_finite():
    # nan slips past a mean check: abs(nan) > tol is False
    for bad in ([np.nan, 0.0, 0.0], [np.inf, -np.inf, 0.0]):
        with pytest.raises(ValueError, match="finite"):
            DelayVector(np.array(bad))
    with pytest.raises(DataError):
        DelayVector.from_json_dict(
            {"delays_ps": {"0": float("nan"), "1": 0.0}})


def test_invalid_measurement_survives_a_strict_file(tmp_path):
    invalid = OffsetMeasurement(1, 2, float("nan"), float("inf"), False)
    vec = DelayVector(np.array([1.0, -1.0, 0.0]), provenance=(invalid,))
    path = tmp_path / "delays.json"
    vec.save(str(path))
    doc = json.loads(path.read_text(), parse_constant=pytest.fail)
    assert doc["provenance"][0]["off_ps"] is None
    back = DelayVector.load(str(path)).provenance[0]
    assert (back.pixel_low, back.valid) == (1, False)
    assert np.isnan(back.off_ps) and np.isnan(back.sigma_ps)


def test_delay_vector_json_roundtrip(tmp_path):
    vec = solve_delays(measurements_from([100.0, -50.0, 20.0]))
    path = tmp_path / "delays.json"
    vec.save(str(path))
    back = DelayVector.load(str(path))
    np.testing.assert_array_equal(back.delays_ps, vec.delays_ps)
    assert back.gap_pixels == vec.gap_pixels
    assert back.provenance == vec.provenance
    assert back.degraded == vec.degraded
    with pytest.raises(DataError):
        DelayVector.from_json_dict({"delays_ps": {"0": 1.0, "2": -1.0}})


# ---------------------------------------------------------------------------
# measurement on simulated streams

def test_measure_recovers_injected_offsets(calibrated_scenario):
    stream, truth = calibrated_scenario
    ms = measure_offsets(stream)
    assert len(ms) == len(truth) - 1
    assert invalid_fraction(ms) == 0.0
    pulls = np.array([(m.off_ps - (truth[m.pixel_low] - truth[m.pixel_high]))
                      / m.sigma_ps for m in ms])
    assert np.mean(np.abs(pulls) <= 3.0) >= 0.97
    assert np.max(np.abs(pulls)) <= 5.0

    vec = solve_delays(ms)
    rms = float(np.sqrt(np.mean((vec.delays_ps - truth) ** 2)))
    assert rms <= 50.0
    assert not vec.degraded


def test_correction_closes_the_loop(calibrated_scenario):
    stream, truth = calibrated_scenario
    vec = solve_delays(measure_offsets(stream))
    corrected = apply_delays(stream, vec)

    # peaks must land within +-50 ps of dt = 0 after correction
    redo = measure_offsets(corrected)
    offs = np.array([m.off_ps for m in redo if m.valid])
    assert len(offs) == len(redo)
    assert np.max(np.abs(offs)) <= 50.0

    # running the calibration again finds only residuals
    again = solve_delays(redo)
    rms = float(np.sqrt(np.mean(again.delays_ps ** 2)))
    assert rms <= 50.0


def test_stacked_covariances_equal_per_fit_on_the_flood_fits(
        calibrated_scenario, monkeypatch):
    # The normal matrices of the 510 cut fits of a flood calibration and
    # its closure, as the solver hands them to the stacked covariance.
    stream, _truth = calibrated_scenario
    normals = []
    stacked = peakfit._covariances

    def capture(batch):
        normals.extend(batch.copy())
        return stacked(batch)

    monkeypatch.setattr(peakfit, "_covariances", capture)
    vec = solve_delays(measure_offsets(stream))
    measure_offsets(apply_delays(stream, vec))
    normals = np.array(normals)
    assert len(normals) == 2 * (len(vec) - 1)
    np.testing.assert_array_equal(
        stacked(normals),
        [peakfit._gauss_newton_covariance(n) for n in normals])


def test_pair_only_correction_matches_whole_stream(calibrated_scenario):
    # The command line corrects only the pair's records when it has one.
    stream, _truth = calibrated_scenario
    vec = solve_delays(measure_offsets(stream))
    corrected = apply_delays(stream, vec)
    for pair in ((5, 6), (100, 101), (200, 201)):
        picked = apply_delays(stream.take(np.isin(stream.pixel, pair)), vec)
        whole = build_histogram(corrected, pair, 20_000.0, 50.0)
        on_pair = build_histogram(picked, pair, 20_000.0, 50.0)
        np.testing.assert_array_equal(on_pair.counts, whole.counts)
        assert on_pair.total_pairs == whole.total_pairs > 0


def test_dead_pixel_invalidates_its_two_pairs(calibrated_scenario):
    stream, _truth = calibrated_scenario
    keep = stream.pixel != 77
    filtered = PhotonStream(
        header=stream.header,
        cycle_index=stream.cycle_index[keep],
        pixel=stream.pixel[keep],
        time_ps=stream.time_ps[keep],
        total_cycles=stream.total_cycles)
    ms = measure_offsets(filtered)
    bad = {(m.pixel_low, m.pixel_high) for m in ms if not m.valid}
    assert bad == {(76, 77), (77, 78)}
    vec = solve_delays(ms)
    assert vec.gap_pixels == ((76, 77), (77, 78))
    assert not vec.degraded


def test_batched_fits_measure_what_single_fits_measure(monkeypatch, caplog):
    # A small seeded flood with one dead pixel and a dim stretch, so the
    # batch holds fits that converge, fail and meet empty histograms.  The
    # reference fits each cut alone, as a histogram of the cut's grid.
    rng = np.random.default_rng(31)
    config = SimConfig(
        sensor=SensorConfig(num_pixels=48), seed=31, duration_s=4.0,
        dcr=DcrProfile(base_cps=800.0,
                       overrides=tuple((p, 5.0) for p in range(30, 36))),
        ct_profile=((1, 0.02),),
        delays_ps=tuple(rng.uniform(-3000.0, 3000.0, 48)))
    stream, _truth = simulate(config)
    stream = stream.take(stream.pixel != 12)
    bin_width = stream.sensor.mean_bin_width_ps
    alone = []

    def fit_one_by_one(x, y, weights=None):
        cut = DeltaHistogram(0, 1, 0.5 * len(x) * bin_width * (1 - 1e-12),
                             bin_width, np.zeros(len(x), dtype=np.int64), 0)
        assert np.array_equal(x, cut.bin_centers)
        # the core's own weights, which fit_gaussian gives each cut too
        assert weights is None
        assert (y.sum(axis=1) >= offsets._MIN_CUT_COUNTS).all()
        for row in y:
            counts = row.astype(np.int64)
            try:
                alone.append(fit_gaussian(replace(
                    cut, counts=counts, total_pairs=int(counts.sum()))))
            except FitError as exc:
                alone.append(exc)
        return alone

    caplog.set_level(logging.INFO, logger="spadkit.offsets")
    batched = measure_offsets(stream)
    monkeypatch.setattr(offsets, "_single_peak_fits", fit_one_by_one)
    one_by_one = measure_offsets(stream)
    assert repr(batched) == repr(one_by_one)
    first, second = (r.getMessage() for r in caplog.records)
    assert first == second
    assert "too_few_counts" in first and 0 < invalid_fraction(batched) < 1
    # the line reports the median and largest chi2/dof of the cut fits
    chi2_dof = [f.chi2 / f.dof for f in alone if not isinstance(f, FitError)]
    assert caplog.records[0].args[3:5] == (np.median(chi2_dof),
                                           max(chi2_dof))


def test_dark_only_stream_has_no_valid_pairs():
    config = SimConfig(seed=5, duration_s=5.0,
                       dcr=DcrProfile(base_cps=500.0))
    stream, _truth = simulate(config)
    ms = measure_offsets(stream)
    assert invalid_fraction(ms) == 1.0
    with pytest.raises(CalibrationError):
        solve_delays(ms)


def test_cuts_of_too_few_counts_run_no_solver_pass(caplog):
    # 2 s of 100 cps dark counts: no cut holds four counts, so none is
    # fitted (one fit of a single count used to run all 200 passes).
    stream, _truth = simulate(SimConfig(seed=21, duration_s=2.0,
                                        dcr=DcrProfile(base_cps=100.0)))
    caplog.set_level(logging.INFO, logger="spadkit.offsets")
    assert invalid_fraction(measure_offsets(stream)) == 1.0
    (record,) = caplog.records
    assert record.args[2] == {"too_few_counts": 255}
    assert record.args[5:7] == (0, 0)  # solver iterations, batched passes


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.integers(0, 223), max_size=3), min_size=1,
                max_size=6))
def test_property_cuts_of_under_four_counts_are_never_valid(bins):
    # Rows of 0 to 3 counts, fitted anyway with the threshold at 0: no
    # pair comes out valid, so leaving such cuts unfitted changes no
    # valid pair.
    counts = np.zeros((len(bins), 224), dtype=np.int64)
    for row, at in zip(counts, bins):
        np.add.at(row, at, 1)
    pairs = [(k, k + 1) for k in range(len(bins))]
    bin_width = SensorConfig().mean_bin_width_ps
    window = 112 * bin_width
    skipped = offsets._measure(pairs, counts, window, bin_width)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(offsets, "_MIN_CUT_COUNTS", 0)
        fitted = offsets._measure(pairs, counts, window, bin_width)
    assert not any(meas.valid for meas in fitted)
    assert repr(fitted) == repr(skipped)


def test_cube_path_measures_what_the_histograms_measure():
    # The tiny flood of the benchmark: the pairs' rows of the count cube
    # against the histogram objects of the same pairs, stacked.
    delays = np.random.default_rng(4).uniform(-5000.0, 5000.0, 32)
    stream, _truth = simulate(SimConfig(
        sensor=SensorConfig(num_pixels=32), seed=4, duration_s=2.0,
        dcr=DcrProfile(base_cps=2000.0), ct_profile=((1, 0.05),),
        delays_ps=tuple(delays)))
    pairs = [(i, i + 1) for i in range(31)]
    for s in (stream, apply_delays(stream, solve_delays(
            measure_offsets(stream)))):
        hists = pair_histograms(s, pairs, DEFAULT_WINDOW_PS,
                                s.sensor.mean_bin_width_ps)
        reference = offsets._measure(
            pairs, np.stack([h.counts for h in hists]), hists[0].window_ps,
            hists[0].bin_width_ps)
        got = measure_offsets(s)
        assert sum(m.valid for m in got) > 20
        assert repr(got) == repr(reference)


def _full_window_measurements(hists):
    """What measure_offsets measured before it cut: one fit of each whole
    histogram, valid when significant with a finite center error."""
    return [OffsetMeasurement(i, i + 1, -fit.center_ps, fit.center_err_ps,
                              True)
            if not isinstance(fit, FitError) and fit.significant
            and math.isfinite(fit.center_err_ps)
            else OffsetMeasurement(i, i + 1, math.nan, math.inf, False)
            for i, fit in enumerate(fit_gaussians(hists))]


@pytest.mark.parametrize("level", [1.0, 5.0, 20.0])
def test_peakless_pairs_are_no_more_often_valid_than_full_fits(level):
    # Poisson-flat histograms over the whole +-25 ns window.  The cut's
    # fit alone takes more of them for peaks than a fit of the whole
    # histogram does (at these seeds: 20 against 12 at 5 counts per bin,
    # 33 against 23 at 20); the sideband test takes them back.
    bin_width = SensorConfig().mean_bin_width_ps
    rows = np.random.default_rng(int(level * 1000)).poisson(level, (256, 2800))
    hists = [DeltaHistogram(pixel_a=k, pixel_b=k + 1,
                            window_ps=DEFAULT_WINDOW_PS,
                            bin_width_ps=bin_width, counts=row,
                            total_pairs=int(row.sum()))
             for k, row in enumerate(rows)]
    full = sum(m.valid for m in _full_window_measurements(hists))
    cut = offsets._measure([(k, k + 1) for k in range(len(rows))], rows,
                           DEFAULT_WINDOW_PS, bin_width)
    assert sum(m.valid for m in cut) <= full


def test_broad_peak_is_refused_not_truncated(caplog):
    # A 300 ps peak overflows the +-700 ps cut, whose fit then comes out
    # wider than a fifth of it; the 63 ps peak beside it is measured.
    bin_width = SensorConfig().mean_bin_width_ps
    x = -DEFAULT_WINDOW_PS + bin_width * (np.arange(2800) + 0.5)
    rng = np.random.default_rng(3)
    rows = np.stack([rng.poisson(2.0 + 400.0 * np.exp(
        -0.5 * ((x - 1234.0) / sigma) ** 2)) for sigma in (63.0, 300.0)])
    caplog.set_level(logging.INFO, logger="spadkit.offsets")
    narrow, broad = offsets._measure([(0, 1), (1, 2)], rows,
                                     DEFAULT_WINDOW_PS, bin_width)
    assert narrow.valid and abs(narrow.off_ps + 1234.0) <= 5 * narrow.sigma_ps
    assert not broad.valid
    (record,) = caplog.records
    assert record.args[-3:] == (0, 1, 0)


def test_cut_fits_calibrate_as_well_as_full_window_fits():
    # The benchmark's tiny flood (32 pixels, 2 s of 2000 cps, 5 %
    # nearest-neighbor cross-talk, +-5 ns delays) over 24 seeds.
    cut, full = [], []
    for seed in range(24):
        delays = np.random.default_rng(seed).uniform(-5000.0, 5000.0, 32)
        stream, _truth = simulate(SimConfig(
            sensor=SensorConfig(num_pixels=32), seed=seed, duration_s=2.0,
            dcr=DcrProfile(base_cps=2000.0), ct_profile=((1, 0.05),),
            delays_ps=tuple(delays)))
        hists = pair_histograms(stream, [(i, i + 1) for i in range(31)],
                                DEFAULT_WINDOW_PS,
                                stream.sensor.mean_bin_width_ps)
        for ms, errors in ((measure_offsets(stream), cut),
                           (_full_window_measurements(hists), full)):
            vec = solve_delays(ms)
            errors.append(np.sqrt(np.mean(
                (vec.delays_ps - (delays - delays.mean())) ** 2)))
    cut = np.array(cut)
    stderr = cut.std(ddof=1) / np.sqrt(len(cut))
    assert cut.mean() - np.mean(full) <= stderr, (cut.mean(), np.mean(full))


def test_gauge_constant_injected_shift_is_removed():
    rng = np.random.default_rng(17)
    base = rng.uniform(-2000.0, 2000.0, SensorConfig().num_pixels)
    vecs = []
    for shift in (0.0, 750.0):
        config = SimConfig(
            seed=33, duration_s=6.0,
            dcr=DcrProfile(base_cps=600.0),
            ct_profile=((1, 0.005),),
            delays_ps=tuple(base + shift))
        stream, _ = simulate(config)
        vecs.append(solve_delays(measure_offsets(stream)).delays_ps)
    rms = float(np.sqrt(np.mean((vecs[0] - vecs[1]) ** 2)))
    assert rms <= 15.0


# ---------------------------------------------------------------------------
# applying corrections

def test_apply_zero_delays_is_identity(calibrated_scenario):
    stream, _truth = calibrated_scenario
    out = apply_delays(stream, np.zeros(SensorConfig().num_pixels))
    np.testing.assert_array_equal(out.time_ps, stream.time_ps)
    np.testing.assert_array_equal(out.pixel, stream.pixel)
    np.testing.assert_array_equal(out.cycle_index, stream.cycle_index)
    out.validate()


def test_apply_delays_holds_the_columns_plus_bounded_scratch(
        calibrated_scenario):
    # fractional delays on a stream of cycles of one, two and more records:
    # the re-sort's masks and shared-cycle arrays stay below the peak of
    # ``take``, which builds the corrected columns beside the permutation
    stream, _truth = calibrated_scenario
    sizes = np.unique(np.unique(stream.cycle_index, return_counts=True)[1])
    assert sizes[0] == 1 and sizes[1] == 2 and sizes[-1] >= 3
    delays = np.random.default_rng(6).uniform(-5000.0, 5000.0,
                                              SensorConfig().num_pixels)
    out, peak = traced_peak(lambda: apply_delays(stream, delays))
    assert out.n_records == stream.n_records
    assert peak <= 1.9 * column_bytes(stream)  # measured 1.89x


def test_apply_keeps_records_leaving_the_cycle():
    sensor = SensorConfig()
    header_stream, _ = simulate(SimConfig(seed=1, duration_s=0.001,
                                          dcr=DcrProfile(base_cps=0.0)))
    header = header_stream.header
    stream = PhotonStream(
        header=header,
        cycle_index=np.array([0, 0], dtype=np.uint64),
        pixel=np.array([3, 4], dtype=np.uint16),
        time_ps=np.array([100.0, 2000.0]),
        total_cycles=1)
    delays = np.zeros(sensor.num_pixels)
    delays[3] = 500.0  # pushes the first record to -400 ps
    out = apply_delays(stream, delays)
    assert out.n_records == 2
    assert out.time_ps[out.pixel == 3] == -400.0
    assert out.time_ps[out.pixel == 4] == 2000.0
    assert list(out.pixel) == [3, 4]  # still sorted by (cycle, time, pixel)
    with pytest.raises(StreamFormatError, match="outside cycle"):
        out.validate()
    with pytest.raises(StreamFormatError, match="outside cycle"):
        out.write(io.BytesIO())


def test_apply_requires_full_coverage(calibrated_scenario):
    stream, _truth = calibrated_scenario
    with pytest.raises(DataError, match="covers"):
        apply_delays(stream, np.zeros(10))
