"""Cross-talk estimation against simulated truth and analytic counting."""

from __future__ import annotations

import json
import logging
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from conftest import gathered_boxes
from spadkit import (DataError, FitError, SensorConfig, coincidence,
                     crosstalk, offsets, peakfit)
from spadkit.coincidence import (DEFAULT_WINDOW_PS, build_histogram,
                                 pair_histograms)
from spadkit.crosstalk import (
    FALLBACK_SIGMA_PS,
    MIN_SOURCE_COUNTS,
    PEAK_WINDOW_SIGMAS,
    SIDEBAND_SIGMAS,
    CtCurve,
    CtEstimate,
    CtPoint,
    CtShape,
    ct_scan,
)
from spadkit.offsets import apply_delays
from spadkit.rates import compute_rates
from spadkit.simulator import DcrProfile, SimConfig, simulate


def sim_stream(*, overrides, base_cps=100.0, ct=(), duration_s=2.0, seed=7,
               delays=None):
    config = SimConfig(
        seed=seed,
        duration_s=duration_s,
        dcr=DcrProfile(base_cps=base_cps, overrides=tuple(overrides)),
        ct_profile=tuple(ct),
        delays_ps=delays,
    )
    stream, _truth = simulate(config)
    return stream


def estimate_alone(hist, source, target, n_source):
    """The estimate of one pair on its own: a scan of one pair, whose
    shape comes from the fit of its own histogram's counts."""
    pair, counts = [(source, target)], hist.counts[None]
    x, bin_width = hist.bin_centers, hist.bin_width_ps
    shape = crosstalk._pooled_shape(counts, pair, x, bin_width)
    return crosstalk._estimates(counts, [0], pair, [n_source], shape, x,
                                bin_width)[0]


def estimate(stream, source, target):
    """The cross-talk estimate of one pair from its whole-stream histogram,
    at one TDC bin per histogram bin."""
    hist = build_histogram(stream, (min(source, target), max(source, target)),
                           DEFAULT_WINDOW_PS, stream.sensor.mean_bin_width_ps)
    n_source = int(np.count_nonzero(stream.pixel == source))
    return estimate_alone(hist, source, target, n_source)


def test_recovers_injected_neighbor_probability():
    p_ct = 0.0012
    stream = sim_stream(overrides=[(100, 5e5)], ct=[(1, p_ct)])
    for target in (99, 101):
        est = estimate(stream, 100, target)
        assert est.significant
        assert est.upper_limit is None
        assert abs(est.probability - p_ct) <= 3 * est.error
        assert est.n_source >= MIN_SOURCE_COUNTS
        assert est.distance == 1


def test_null_pair_consistent_with_zero():
    stream = sim_stream(overrides=[(10, 1.2e4), (12, 1.2e4)], base_cps=0.0)
    est = estimate(stream, 10, 12)
    assert not est.significant
    assert abs(est.probability) <= 3 * est.error
    assert est.upper_limit == pytest.approx(3 * est.error)


def test_zero_count_target_gives_upper_limit():
    stream = sim_stream(overrides=[(30, 1e5)], base_cps=0.0)
    est = estimate(stream, 30, 31)
    n = est.n_source
    assert est.probability == 0.0
    assert est.error == pytest.approx(1.0 / n)
    assert est.upper_limit == pytest.approx(3.0 / n)
    assert not est.significant


def test_source_count_floor():
    stream = sim_stream(overrides=[(40, 3e4)], base_cps=0.0, duration_s=0.1)
    report = compute_rates(stream)
    assert [p for p, _rate in report.hot_pixels] == [40]
    assert stream.counts_per_pixel()[40] < MIN_SOURCE_COUNTS
    with pytest.raises(DataError, match="counts"):
        ct_scan(stream, report, d_max=1, n_hot=1)


def test_error_scales_as_inverse_sqrt_time():
    kw = dict(overrides=[(60, 2e5)], ct=[(1, 0.001)], seed=11)
    e1 = estimate(sim_stream(duration_s=1.0, **kw), 60, 61).error
    e2 = estimate(sim_stream(duration_s=2.0, **kw), 60, 61).error
    ratio = e2 / e1
    assert abs(ratio - 2 ** -0.5) <= 0.2 * 2 ** -0.5


def test_gauge_invariance_under_constant_delay_shift():
    delays = tuple(float(7 * k % 900) for k in range(256))
    stream = sim_stream(overrides=[(80, 2e5)], ct=[(1, 0.001)],
                        duration_s=1.0, delays=delays)
    v = np.array(delays)
    a = estimate(apply_delays(stream, v), 80, 81)
    b = estimate(apply_delays(stream, v + 137.0), 80, 81)
    assert a.probability == b.probability
    assert a.error == b.error
    assert a.significant == b.significant


def test_scan_recovers_distance_profile():
    profile = {1: 0.0012, 3: 0.0004}
    stream = sim_stream(overrides=[(50, 3e5), (180, 3e5)], base_cps=50.0,
                        ct=sorted(profile.items()))
    report = compute_rates(stream)
    curve = ct_scan(stream, report, d_max=4, n_hot=8)
    assert [p.distance for p in curve.points] == [1, 2, 3, 4]
    for point in curve.points:
        injected = profile.get(point.distance, 0.0)
        assert abs(point.probability - injected) <= 3 * point.stderr
        assert point.n_pairs == 4  # two interior hot pixels, both sides
    assert curve.point(1).probability > curve.point(3).probability
    assert not curve.point(1).upper_limit
    # every source appears with both neighbors at every distance
    assert len(curve.pairs) == 2 * 2 * 4


def test_scan_pair_counting_matches_boundary_formula():
    num = SensorConfig().num_pixels
    hot = [0, 128, num - 1]
    stream = sim_stream(overrides=[(h, 2e5) for h in hot], base_cps=0.0,
                        duration_s=0.5)
    report = compute_rates(stream)
    d_max = 20
    curve = ct_scan(stream, report, d_max=d_max, n_hot=8)
    for point in curve.points:
        d = point.distance
        expected = sum((h - d >= 0) + (h + d < num) for h in hot)
        assert point.n_pairs == expected
    edge_targets = [t for s, t in curve.pairs if s == 0]
    assert edge_targets == list(range(1, d_max + 1))  # leftward all clipped


def test_calibrations_place_peaks_as_the_gathered_boxes(monkeypatch):
    # the box filter's slices against its gather form, on the rows that
    # measure_offsets and ct_scan hand it
    shapes, box_peaks = [], peakfit._box_peaks

    def spy(cum, bin_width_ps):
        got = box_peaks(cum, bin_width_ps)
        assert np.array_equal(got, np.argmax(gathered_boxes(cum, bin_width_ps),
                                             axis=1))
        shapes.append(cum.shape)
        return got

    monkeypatch.setattr(offsets, "_box_peaks", spy)
    monkeypatch.setattr(crosstalk, "_box_peaks", spy)
    stream = sim_stream(overrides=[(40, 2e5), (41, 2e5)], base_cps=1000.0,
                        ct=((1, 0.05),), duration_s=0.5)
    offsets.measure_offsets(stream)
    ct_scan(stream, compute_rates(stream), d_max=3, n_hot=2)
    # every adjacent pair; the two hot pixels' nearest-neighbour rows,
    # which make the pooled shape
    num = SensorConfig().num_pixels
    assert [rows for rows, _ in shapes] == [num - 1, 4]


def test_scan_null_curve_consistent_with_zero():
    stream = sim_stream(overrides=[(70, 2e5), (200, 2e5)], base_cps=80.0,
                        duration_s=1.0)
    curve = ct_scan(stream, compute_rates(stream), d_max=6, n_hot=8)
    for point in curve.points:
        assert 0.0 <= point.probability <= 1.0
        assert point.probability <= 3 * point.stderr
        assert point.upper_limit


def reference_shape(hists, pairs) -> CtShape:
    """The pooled shape as it was made from histogram objects: their
    counts stacked and turned source -> target, rolled onto one bin,
    summed into a histogram and fitted by ``fit_gaussians``."""
    x, bin_width = hists[0].bin_centers, hists[0].bin_width_ps
    n = len(x)
    rows = np.stack([h.counts for h in hists])
    turned = np.array([t < s for s, t in pairs])
    rows = np.where(turned[:, None], rows[:, ::-1], rows)
    peaks = peakfit._box_peaks(peakfit._cumulative(rows), bin_width)
    shifted = (np.arange(n) + (peaks - n // 2)[:, None]) % n
    pooled = np.take_along_axis(rows, shifted, axis=1).sum(axis=0)
    fit = peakfit.fit_gaussians([replace(hists[0], counts=pooled,
                                         total_pairs=int(pooled.sum()))])[0]
    if isinstance(fit, FitError) or not fit.significant:
        failed = isinstance(fit, FitError)
        return CtShape(FALLBACK_SIGMA_PS, 0.0,
                       None if failed else fit.chi2 / fit.dof,
                       fit.n_iterations,
                       fit.reason if failed else fit.stop_reason,
                       len(hists), True)
    peak = crosstalk._gauss_peaks(pooled[None], fit.sigma_ps / bin_width)[0]
    _gross, bg, net, _var = peakfit._window_counts(
        peakfit._cumulative(pooled[None]), x, np.array([fit.center_ps]),
        np.array([fit.sigma_ps]))
    return CtShape(fit.sigma_ps, fit.center_ps - float(x[peak]),
                   fit.chi2 / fit.dof, fit.n_iterations, fit.stop_reason,
                   len(hists), False,
                   float(net[0] / (pooled.sum() - bg[0] * n)))


def reference_scan(stream, pairs):
    """The shape and estimates of the (source, target) ``pairs`` made
    through one ``DeltaHistogram`` per pair, each pair estimated on its
    own histogram."""
    hists = pair_histograms(stream, [(min(s, t), max(s, t)) for s, t in pairs],
                            DEFAULT_WINDOW_PS, stream.sensor.mean_bin_width_ps)
    nearest = [k for k, (s, t) in enumerate(pairs) if abs(t - s) == 1]
    shape = reference_shape([hists[k] for k in nearest],
                            [pairs[k] for k in nearest])
    counts = stream.counts_per_pixel()
    return shape, [crosstalk._block_estimates(
        h.counts[None], [pair], [counts[pair[0]]], shape, h.bin_centers,
        h.bin_width_ps)[0] for pair, h in zip(pairs, hists)]


def neighbouring_hot_pixels(seed):
    """Hot pixels 3 apart, so a scan over d <= 5 asks for some pairs twice,
    once from each source, one of them turned."""
    return sim_stream(overrides=[(40, 2e5), (43, 1.5e5), (120, 1e5)],
                      base_cps=50.0, ct=[(1, 0.002), (3, 0.0005)],
                      duration_s=1.0, seed=seed)


@pytest.mark.parametrize("seed", [3, 4])
def test_scan_from_the_cube_equals_the_histogram_reference(seed):
    stream = neighbouring_hot_pixels(seed)
    curve = ct_scan(stream, compute_rates(stream), d_max=5, n_hot=3)
    asked = Counter((min(s, t), max(s, t)) for s, t in curve.pairs)
    assert asked[(40, 43)] == 2 and (40, 43) in curve.pairs
    assert len(curve.pairs) > crosstalk.BLOCK_PAIRS
    shape, estimates = reference_scan(stream, list(curve.pairs))
    assert curve.shape == shape and not shape.fallback
    assert list(curve.estimates) == estimates


@pytest.mark.parametrize("seed", range(4))
def test_random_pair_sets_from_the_cube_equal_the_reference(seed):
    # Any (source, target) pairs, repeated and turned ones among them,
    # gathered from the cube across block boundaries.
    stream = neighbouring_hot_pixels(3)
    rng = np.random.default_rng(seed)
    sources = rng.choice([40, 43, 120], 40)
    targets = sources + rng.choice([-5, -3, -1, 1, 2, 3, 4], 40)
    pairs = [(int(s), int(t)) for s, t in zip(sources, targets)]
    pairs += [(40, 41), (43, 42)]
    bin_width = stream.sensor.mean_bin_width_ps
    cube, rows = coincidence._pair_counts(
        stream, [(min(s, t), max(s, t)) for s, t in pairs], DEFAULT_WINDOW_PS,
        bin_width)
    x = coincidence._grid(DEFAULT_WINDOW_PS, bin_width, cube.shape[1])[1]
    nearest = [k for k, (s, t) in enumerate(pairs) if abs(t - s) == 1]
    shape = crosstalk._pooled_shape(cube[rows[nearest]],
                                    [pairs[k] for k in nearest], x, bin_width)
    counts = stream.counts_per_pixel()
    estimates = crosstalk._estimates(cube, rows, pairs,
                                     [counts[s] for s, _ in pairs], shape, x,
                                     bin_width)
    assert (shape, estimates) == reference_scan(stream, pairs)


def test_scan_estimates_equal_the_counting_estimator(caplog):
    # Hot pixels over almost no dark counts: the scan meets significant
    # peaks, peakless pairs and empty histograms.
    stream = sim_stream(overrides=[(40, 2e5), (47, 1.5e5), (200, 1e5)],
                        base_cps=5.0, ct=[(1, 0.002), (2, 0.0005)],
                        duration_s=1.0, seed=12)
    caplog.set_level(logging.INFO, logger="spadkit.crosstalk")
    curve = ct_scan(stream, compute_rates(stream), d_max=8, n_hot=3)
    shape = curve.shape
    assert not shape.fallback and shape.n_pooled == 6
    assert len(curve.estimates) == len(curve.pairs)
    counts = stream.counts_per_pixel()
    hists = pair_histograms(
        stream, [(min(s, t), max(s, t)) for s, t in curve.pairs],
        DEFAULT_WINDOW_PS, stream.sensor.mean_bin_width_ps)
    for (s, t), hist, est in zip(curve.pairs, hists, curve.estimates):
        assert (est.source, est.target) == (s, t)
        assert crosstalk._estimates(
            hist.counts[None], [0], [(s, t)], [counts[s]], shape,
            hist.bin_centers, hist.bin_width_ps) == [est]
        # the window and the sideband, straight from their definitions
        sigma = shape.sigma_ps if est.significant else FALLBACK_SIGMA_PS
        dist = np.abs(hist.bin_centers - est.center_ps)
        window = dist <= PEAK_WINDOW_SIGMAS * sigma
        side = dist > SIDEBAND_SIGMAS * sigma
        assert est.gross == hist.counts[window].sum()
        assert est.bg_per_bin == pytest.approx(hist.counts[side].mean())
        # a window at the pair's peak stands for the whole peak
        share = shape.window_share if est.significant else 1.0
        assert est.net == pytest.approx(
            (est.gross - est.bg_per_bin * window.sum()) / share)
        assert est.probability == pytest.approx(est.net / counts[s])
        if est.placement == "null_window":
            assert est.center_ps == 0.0 and not est.significant
            assert est.upper_limit == pytest.approx(3 * est.error)
        else:
            assert est.net >= 3 * est.error * counts[s]
            assert est.upper_limit is None
    placements = Counter(e.placement for e in curve.estimates)
    assert placements["matched_filter"] > 0
    assert any(not hist.counts.any() for hist in hists)
    (record,) = caplog.records
    assert record.levelno == logging.INFO
    assert record.args[-3:] == (shape.window_share,
                                placements["matched_filter"],
                                placements["null_window"])
    assert f"window share {shape.window_share:.4f};" in record.getMessage()


def test_scan_calls_the_solver_once(monkeypatch):
    stream = sim_stream(overrides=[(50, 3e5), (180, 3e5)], base_cps=50.0,
                        ct=[(1, 0.0012), (3, 0.0004)])
    calls = []

    def counted(x, y, *args, **kwargs):
        calls.append(len(y))
        return levmar(x, y, *args, **kwargs)

    levmar = peakfit._levmar
    monkeypatch.setattr(peakfit, "_levmar", counted)
    curve = ct_scan(stream, compute_rates(stream), d_max=6, n_hot=8)
    assert calls == [1]  # one fit, of the pooled histogram
    assert not curve.shape.fallback
    assert curve.shape.n_iterations > 0


# Acceptance 3's profile, whose far half (d = 5..11) is weak cross-talk
# of 1e-4 to 1.3e-4.
FAR_PROFILE = {1: 1.2e-3, 2: 3.0e-4, 3: 5.5e-4, 4: 2.0e-4, 5: 1.3e-4,
               6: 1.0e-4, 7: 1.0e-4, 8: 1.0e-4, 9: 1.0e-4, 10: 1.0e-4,
               11: 1.0e-4}
# Acceptance 3's hot pixels.
HOT = (15, 45, 75, 105, 135, 165, 195, 225)


@pytest.mark.parametrize("delay_ps", [0.0, 5000.0],
                         ids=["no_delays", "5ns_delays"])
def test_weak_far_cross_talk_is_unbiased(delay_ps):
    # Acceptance 3's hot pixels over 30 seeds, 20 s each.  Injected
    # delays of up to +-5 ns stay in the stream (no --delays), so every
    # pair's peak sits somewhere else.  The relative error of the curve,
    # averaged over d = 5..11 per seed, must average to zero within two
    # standard errors over the seeds.
    errors = []
    for seed in range(300, 330):
        delays = tuple(np.random.default_rng(seed).uniform(
            -delay_ps, delay_ps, 256)) if delay_ps else None
        config = SimConfig(
            seed=seed, duration_s=20.0,
            dcr=DcrProfile(base_cps=60.0,
                           overrides=tuple((p, 25_000.0) for p in HOT)),
            ct_profile=tuple(sorted(FAR_PROFILE.items())), delays_ps=delays)
        stream, _truth = simulate(config)
        curve = ct_scan(stream, compute_rates(stream), d_max=11, n_hot=8)
        errors.append(np.mean([curve.point(d).probability / FAR_PROFILE[d]
                               - 1.0 for d in range(5, 12)]))
    errors = np.array(errors)
    stderr = errors.std(ddof=1) / np.sqrt(len(errors))
    assert abs(errors.mean()) <= 2 * stderr, (
        f"mean relative error {errors.mean():+.2%} +- {stderr:.2%}")


def test_nearest_neighbor_cross_talk_is_unbiased():
    # The +-3 sigma window alone keeps about 99.7 % of the asymmetric
    # peak: at these seeds d = 1 read -0.34 % +- 0.28 % before the window
    # share corrected it.
    errors = []
    for seed in range(300, 312):
        config = SimConfig(
            seed=seed, duration_s=20.0,
            dcr=DcrProfile(base_cps=60.0,
                           overrides=tuple((p, 25_000.0) for p in HOT)),
            ct_profile=tuple(sorted(FAR_PROFILE.items())),
            delays_ps=tuple(np.random.default_rng(seed).uniform(
                -5000.0, 5000.0, 256)))
        stream, _truth = simulate(config)
        curve = ct_scan(stream, compute_rates(stream), d_max=1, n_hot=8)
        assert 0.99 < curve.shape.window_share < 1.0
        errors.append(curve.point(1).probability / FAR_PROFILE[1] - 1.0)
    stderr = np.std(errors, ddof=1) / np.sqrt(len(errors))
    assert abs(np.mean(errors)) <= stderr, (
        f"mean relative error {np.mean(errors):+.2%} +- {stderr:.2%}")


def test_narrow_window_takes_its_background_outside_the_peak():
    # A +-500 ps window has no bin beyond 10 sigma of the peak, so the
    # background comes from the bins outside +-3 sigma.
    stream = sim_stream(overrides=[(100, 5e5)], base_cps=2e4,
                        ct=[(1, 0.0012)], duration_s=1.0)
    hist = build_histogram(stream, (100, 101), 500.0,
                           stream.sensor.mean_bin_width_ps)
    n_source = int(np.count_nonzero(stream.pixel == 100))
    est = estimate_alone(hist, 100, 101, n_source)
    sigma = crosstalk._pooled_shape(hist.counts[None], [(100, 101)],
                                    hist.bin_centers,
                                    hist.bin_width_ps).sigma_ps
    assert est.significant
    dist = np.abs(hist.bin_centers - est.center_ps)
    assert not (dist > SIDEBAND_SIGMAS * sigma).any()
    window = dist <= PEAK_WINDOW_SIGMAS * sigma
    assert 0 < window.sum() < len(hist.counts)
    assert est.bg_per_bin > 0
    assert est.gross == hist.counts[window].sum()
    assert est.bg_per_bin == pytest.approx(hist.counts[~window].mean())
    assert abs(est.probability - 0.0012) <= 3 * est.error


def test_peakless_scan_falls_back_to_the_null_window(caplog):
    # No cross-talk and hardly any dark counts: the pooled nearest
    # neighbors hold no significant peak.
    stream = sim_stream(overrides=[(70, 2e5), (200, 2e5)], base_cps=80.0,
                        duration_s=1.0)
    caplog.set_level(logging.INFO, logger="spadkit.crosstalk")
    curve = ct_scan(stream, compute_rates(stream), d_max=3, n_hot=8)
    assert curve.shape.fallback
    assert curve.shape.sigma_ps == FALLBACK_SIGMA_PS
    assert curve.shape.offset_ps == 0.0
    assert all(e.placement == "null_window" and e.center_ps == 0.0
               for e in curve.estimates)
    assert [r.levelno for r in caplog.records] == [logging.WARNING,
                                                   logging.INFO]
    assert "no significant peak" in caplog.records[0].getMessage()
    doc = curve.to_json_dict()
    assert doc["shape"]["fallback"] is True
    assert CtCurve.from_json_dict(doc) == curve


def test_scan_requires_hot_pixels_and_valid_args():
    stream = sim_stream(overrides=[(90, 2e5)], base_cps=10.0, duration_s=0.2)
    report = compute_rates(stream)
    quiet = compute_rates(stream, hot_threshold_cps=1e9)
    with pytest.raises(DataError, match="no hot pixels"):
        ct_scan(stream, quiet)
    with pytest.raises(ValueError):
        ct_scan(stream, report, d_max=0)
    with pytest.raises(ValueError):
        ct_scan(stream, report, n_hot=0)


def test_scan_skips_starved_sources():
    # Pixel 90 is hot by rate but the acquisition is too short for the
    # count floor, so the scan has nothing usable.
    stream = sim_stream(overrides=[(90, 2e4)], base_cps=0.0, duration_s=0.1)
    report = compute_rates(stream, hot_threshold_cps=1e3)
    assert report.hot_pixels
    with pytest.raises(DataError, match="reaches"):
        ct_scan(stream, report)


def test_single_edge_source_only_right_neighbors():
    stream = sim_stream(overrides=[(0, 2e5)], base_cps=20.0,
                        ct=[(1, 0.0012)], duration_s=1.0)
    curve = ct_scan(stream, compute_rates(stream), d_max=3, n_hot=8)
    assert all(p.n_pairs == 1 for p in curve.points)
    assert curve.pairs == ((0, 1), (0, 2), (0, 3))
    p1 = curve.point(1)
    assert abs(p1.probability - 0.0012) <= 3 * p1.stderr


def test_curve_json_roundtrip(tmp_path):
    curve = CtCurve(
        points=(CtPoint(1, 1.2e-3, 3e-5, 14, False),
                CtPoint(2, 0.0, 1e-6, 14, True)),
        pairs=((5, 6), (5, 4), (9, 10)),
        window_ps=25_000.0)
    path = tmp_path / "curve.json"
    curve.save(str(path))
    back = CtCurve.load(str(path))
    assert back == curve
    with pytest.raises(DataError):
        CtCurve.from_json_dict({"points": "nope"})
    # integers must be JSON integers, counts not negative
    doc = curve.to_json_dict()
    point = doc["points"][0]
    for bad in ({"points": [{**point, "distance": 1.5}]},
                {"points": [{**point, "n_pairs": -1}]},
                {"points": [{**point, "upper_limit": "false"}]},
                {"pairs": [[5.5, 6]]},
                # floats must be JSON numbers
                {"points": [{**point, "mean": "1.2e-3"}]},
                {"points": [{**point, "stderr": True}]},
                {"window_ps": "25000"}):
        with pytest.raises(DataError):
            CtCurve.from_json_dict({**doc, **bad})


def test_curve_documents_carry_the_shape_and_every_estimate(tmp_path):
    shape = CtShape(sigma_ps=58.2, offset_ps=3.1, chi2_dof=1.04,
                    n_iterations=7, stop_reason="chi2_stall", n_pooled=2,
                    fallback=False)
    estimates = (
        CtEstimate(source=5, target=6, probability=1.2e-3, error=3e-5,
                   n_source=10**6, significant=True, gross=1201,
                   net=1200.0, bg_per_bin=0.04, center_ps=22.5,
                   placement="matched_filter"),
        CtEstimate(source=5, target=4, probability=-1e-6, error=1e-6,
                   n_source=10**6, significant=False, upper_limit=3e-6,
                   gross=0, net=-1.0, bg_per_bin=0.03, center_ps=0.0,
                   placement="null_window"))
    curve = CtCurve(points=(CtPoint(1, 6e-4, 6e-4, 2, False),),
                    pairs=((5, 6), (5, 4)), window_ps=25_000.0,
                    estimates=estimates, shape=shape)
    path = tmp_path / "curve.json"
    curve.save(str(path))
    doc = json.loads(path.read_text())
    assert doc["schema_version"] == 2
    assert doc["shape"]["sigma_ps"] == 58.2
    assert [e["placement"] for e in doc["estimates"]] == [
        "matched_filter", "null_window"]
    assert CtCurve.load(str(path)) == curve
    # a failed pooled fit has no chi2/dof
    failed = replace(shape, chi2_dof=None, fallback=True)
    assert CtCurve.from_json_dict(
        replace(curve, shape=failed).to_json_dict()).shape == failed
    # schema 1 held the points and pairs only
    old = {key: doc[key] for key in ("kind", "window_ps", "points", "pairs")}
    for version in ({"schema_version": 1}, {}):
        back = CtCurve.from_json_dict({**old, **version})
        assert back == replace(curve, estimates=(), shape=None)
    estimate, other = doc["estimates"]
    for bad in ({"schema_version": 3},
                {"estimates": None},
                {"estimates": [{**estimate, "gross": 1.5}, other]},
                {"estimates": [{**estimate, "gross": -1}, other]},
                {"estimates": [{**estimate, "placement": "fit"}, other]},
                {"estimates": [{**estimate, "net": "1200"}, other]},
                {"estimates": [{**estimate, "upper_limit": "none"}, other]},
                {"estimates": [{**estimate, "stop_reason": "chi2_stall"},
                               other]},
                {"shape": {**doc["shape"], "fallback": "false"}},
                {"shape": {**doc["shape"], "n_iterations": -2}}):
        with pytest.raises(DataError):
            CtCurve.from_json_dict({**doc, **bad})
    del doc["shape"]
    with pytest.raises(DataError):
        CtCurve.from_json_dict(doc)


def _three_pair_document():
    estimates = tuple(
        CtEstimate(source=s, target=t, probability=1e-3, error=1e-4,
                   n_source=10**5, significant=True, gross=101, net=100.0,
                   bg_per_bin=0.01, center_ps=20.0,
                   placement="matched_filter")
        for s, t in ((5, 6), (5, 4), (9, 10)))
    curve = CtCurve(points=(CtPoint(1, 1e-3, 1e-4, 3, False),),
                    pairs=tuple((e.source, e.target) for e in estimates),
                    window_ps=25_000.0, estimates=estimates)
    doc = curve.to_json_dict()
    assert CtCurve.from_json_dict(doc) == curve
    return doc


def test_curve_document_with_fewer_estimates_than_pairs_is_refused():
    doc = _three_pair_document()
    with pytest.raises(DataError, match="estimates do not match pairs"):
        CtCurve.from_json_dict({**doc, "estimates": doc["estimates"][:1]})


def test_curve_document_with_estimates_out_of_pair_order_is_refused():
    doc = _three_pair_document()
    with pytest.raises(DataError, match="estimates do not match pairs"):
        CtCurve.from_json_dict({**doc, "estimates": doc["estimates"][::-1]})
    # the same pairs in the estimates' order load
    assert CtCurve.from_json_dict(
        {**doc, "estimates": doc["estimates"][::-1],
         "pairs": doc["pairs"][::-1]}).pairs == ((9, 10), (5, 4), (5, 6))


def test_point_validation():
    with pytest.raises(ValueError):
        CtPoint(0, 0.1, 0.01, 1, False)
    with pytest.raises(ValueError):
        CtPoint(1, 1.5, 0.01, 1, False)
    with pytest.raises(ValueError):
        CtPoint(1, -0.1, 0.01, 1, False)


def test_estimate_distance_property():
    est = CtEstimate(source=10, target=7, probability=0.0, error=1e-6,
                     n_source=10**6, significant=False, upper_limit=3e-6)
    assert est.distance == 3
