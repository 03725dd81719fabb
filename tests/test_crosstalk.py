"""Cross-talk estimation against simulated truth and analytic counting."""

from __future__ import annotations

import logging

import numpy as np
import pytest

from spadkit import DataError, FitError, SensorConfig, crosstalk
from spadkit.coincidence import DEFAULT_WINDOW_PS, build_histogram
from spadkit.crosstalk import (
    MIN_SOURCE_COUNTS,
    CtCurve,
    CtEstimate,
    CtPoint,
    _estimate_from_histogram,
    ct_scan,
)
from spadkit.offsets import apply_delays
from spadkit.peakfit import fit_gaussian
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


def estimate(stream, source, target):
    """The cross-talk estimate of one pair from its whole-stream histogram,
    at one TDC bin per histogram bin."""
    hist = build_histogram(stream, (min(source, target), max(source, target)),
                           DEFAULT_WINDOW_PS, stream.sensor.mean_bin_width_ps)
    n_source = int(np.count_nonzero(stream.pixel == source))
    return _estimate_from_histogram(hist, source, target, n_source)


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
    with pytest.raises(DataError, match="counts"):
        estimate(stream, 40, 41)


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


def test_scan_null_curve_consistent_with_zero():
    stream = sim_stream(overrides=[(70, 2e5), (200, 2e5)], base_cps=80.0,
                        duration_s=1.0)
    curve = ct_scan(stream, compute_rates(stream), d_max=6, n_hot=8)
    for point in curve.points:
        assert 0.0 <= point.probability <= 1.0
        assert point.probability <= 3 * point.stderr
        assert point.upper_limit


def test_batched_scan_equals_one_fit_per_pair(monkeypatch, caplog):
    # Hot pixels over almost no dark counts: the scan meets significant
    # peaks, peakless pairs, failing fits and empty histograms.
    stream = sim_stream(overrides=[(40, 2e5), (47, 1.5e5), (200, 1e5)],
                        base_cps=5.0, ct=[(1, 0.002), (2, 0.0005)],
                        duration_s=1.0, seed=12)
    report = compute_rates(stream)
    caplog.set_level(logging.INFO, logger="spadkit.crosstalk")
    batched = ct_scan(stream, report, d_max=8, n_hot=3)

    def one_by_one(hists):
        out = []
        for hist in hists:
            try:
                out.append(fit_gaussian(hist))
            except FitError as exc:
                out.append(exc)
        return out

    monkeypatch.setattr(crosstalk, "fit_gaussians", one_by_one)
    single = ct_scan(stream, report, d_max=8, n_hot=3)
    assert batched.to_json_dict() == single.to_json_dict()
    first, second = (r.getMessage() for r in caplog.records)
    assert first == second
    assert "empty_histogram" in first


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
