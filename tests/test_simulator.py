import hashlib
import io
from unittest import mock

import numpy as np
import pytest

from conftest import column_bytes, traced_peak
from spadkit import DataError, SensorConfig
from spadkit.coincidence import build_histogram
from spadkit.peakfit import fit_gaussian
from spadkit.rates import compute_rates
from spadkit import simulator, timestream
from spadkit.documents import field_dict
from spadkit.simulator import (
    ORIGIN_BEAM_SINGLE,
    ORIGIN_CT,
    ORIGIN_DARK,
    ORIGIN_PAIR_A,
    ORIGIN_PAIR_B,
    BeamSpec,
    DcrProfile,
    SimConfig,
    simulate,
    simulate_code_density,
    theoretical_contrast,
)
from spadkit.tdc import build_lut


def small_sensor(num_pixels=16, cycle_us=4):
    return SensorConfig(num_pixels=num_pixels,
                        cycle_period_ps=cycle_us * 1_000_000)


def stream_bytes(stream) -> bytes:
    buf = io.BytesIO()
    stream.write(buf)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# theoretical contrast

def test_contrast_factor_known_mixes():
    assert theoretical_contrast([("a", 1.0)]) == 1.0
    assert theoretical_contrast([("a", 0.5), ("b", 0.5)]) == pytest.approx(0.5)
    four = [("l1p1", 0.25), ("l1p2", 0.25), ("l2p1", 0.25), ("l2p2", 0.25)]
    assert theoretical_contrast(four) == pytest.approx(0.25)


def test_contrast_factor_matches_pair_enumeration():
    rng = np.random.default_rng(0)
    for _ in range(50):
        k = int(rng.integers(1, 6))
        w = rng.dirichlet(np.ones(k))
        mix = [(f"c{i}", float(w[i])) for i in range(k)]
        # oracle: enumerate ordered pairs of classes, count same-class mass
        same = sum(w[i] * w[j] for i in range(k) for j in range(k) if i == j)
        assert theoretical_contrast(mix) == pytest.approx(same, rel=1e-12)


def test_contrast_factor_merges_duplicate_labels():
    assert theoretical_contrast([("a", 0.5), ("a", 0.5)]) == 1.0


def test_contrast_factor_rejects_bad_mixes():
    with pytest.raises(ValueError, match="empty"):
        theoretical_contrast([])
    with pytest.raises(ValueError, match="sum"):
        theoretical_contrast([("a", 0.4)])
    with pytest.raises(ValueError, match=">= 0"):
        theoretical_contrast([("a", -0.5), ("b", 1.5)])


# ---------------------------------------------------------------------------
# basics

def test_all_rates_zero_gives_empty_stream():
    config = SimConfig(sensor=small_sensor(), seed=1, duration_s=0.01)
    stream, truth = simulate(config)
    assert stream.n_records == 0
    assert stream.total_cycles == config.total_cycles
    assert truth.n_dark == truth.n_ct == truth.n_dropped == 0
    stream.validate()


def test_byte_determinism_and_seed_sensitivity():
    config = SimConfig(sensor=small_sensor(), seed=123, duration_s=0.05,
                       dcr=DcrProfile(base_cps=5000.0),
                       beams=(BeamSpec(pixel=3, rate_cps=20000.0),),
                       ct_profile=((1, 0.01),))
    a = stream_bytes(simulate(config)[0])
    b = stream_bytes(simulate(config)[0])
    assert a == b
    import dataclasses
    c = stream_bytes(simulate(dataclasses.replace(config, seed=124))[0])
    assert a != c


def test_lineage_toggle_keeps_stream_identical():
    import dataclasses
    config = SimConfig(sensor=small_sensor(), seed=7, duration_s=0.02,
                       dcr=DcrProfile(base_cps=10000.0),
                       ct_profile=((1, 0.02),))
    bare, t0 = simulate(config)
    tagged, t1 = simulate(dataclasses.replace(config, include_lineage=True))
    assert stream_bytes(bare) == stream_bytes(tagged)
    assert t0.origin is None
    assert t1.origin is not None and len(t1.origin) == tagged.n_records


def test_count_conservation_with_all_mechanisms():
    config = SimConfig(
        sensor=small_sensor(), seed=42, duration_s=0.05,
        dcr=DcrProfile(base_cps=3000.0, overrides=((2, 50000.0),)),
        beams=(BeamSpec(pixel=5, rate_cps=30000.0),
               BeamSpec(pixel=9, rate_cps=25000.0)),
        pair_fraction=0.4, correlation_sigma_ps=100.0,
        fiber_delay_ps=5000.0,
        ct_profile=((1, 0.01), (2, 0.003)),
        delays_ps=tuple(float(x) for x in range(16)),
        include_lineage=True,
    )
    stream, truth = simulate(config)
    stream.validate()
    expected = (truth.n_dark + truth.n_beam_singles
                + 2 * truth.n_pair_attempts + truth.n_ct - truth.n_dropped)
    assert stream.n_records == expected
    # lineage totals agree with the aggregate counters
    kept = np.bincount(truth.origin, minlength=5)
    assert kept.sum() == stream.n_records
    assert kept[ORIGIN_DARK] <= truth.n_dark
    assert kept[ORIGIN_CT] <= truth.n_ct
    assert (kept[ORIGIN_PAIR_A] + kept[ORIGIN_PAIR_B]
            + kept[ORIGIN_BEAM_SINGLE] + kept[ORIGIN_DARK] + kept[ORIGIN_CT]
            == stream.n_records)


def test_dark_rates_recovered():
    hot = ((3, 2000.0), (11, 1500.0))
    config = SimConfig(sensor=small_sensor(), seed=5, duration_s=3.0,
                       dcr=DcrProfile(base_cps=107.0, overrides=hot))
    stream, _ = simulate(config)
    report = compute_rates(stream)
    assert [p for p, _ in report.hot_pixels] == [3, 11]
    sigma = np.sqrt(107.0 / 3.0)
    assert abs(report.median_rate_cps - 107.0) <= 3 * sigma
    for pixel, rate in hot:
        assert abs(report.rates_cps[pixel] - rate) <= 3 * np.sqrt(rate / 3.0)


def test_total_darks_poissonian():
    config = SimConfig(sensor=small_sensor(), seed=8, duration_s=1.0,
                       dcr=DcrProfile(base_cps=1000.0))
    stream, truth = simulate(config)
    lam = 16 * 1000.0 * 1.0
    assert abs(truth.n_dark - lam) <= 4 * np.sqrt(lam)
    assert stream.n_records == truth.n_dark - truth.n_dropped


def test_drifting_dcr_shows_in_subsets():
    config = SimConfig(sensor=small_sensor(), seed=9, duration_s=2.0,
                       dcr=DcrProfile(base_cps=3000.0, drift_scale=2.0))
    stream, _ = simulate(config)
    report = compute_rates(stream, n_subsets=4)
    medians = [r.median_rate_cps for _, r in report.subset_reports]
    assert all(m2 > m1 for m1, m2 in zip(medians, medians[1:]))
    # overall mean rate should sit near base * (1 + scale) / 2
    mean_rate = stream.n_records / 16 / 2.0
    assert mean_rate == pytest.approx(3000.0 * 1.5, rel=0.05)


def test_unphysical_rate_refused():
    config = SimConfig(sensor=small_sensor(), seed=1, duration_s=0.01,
                       dcr=DcrProfile(base_cps=2e8))
    with pytest.raises(DataError, match="records/cycle"):
        simulate(config)


def test_config_validation_errors():
    sensor = small_sensor()
    with pytest.raises(ValueError, match="two beams"):
        SimConfig(sensor=sensor, beams=(BeamSpec(0, 100.0),),
                  pair_fraction=0.5).validated()
    with pytest.raises(ValueError, match="distance"):
        SimConfig(sensor=sensor, ct_profile=((0, 0.1),)).validated()
    with pytest.raises(ValueError, match="probability"):
        SimConfig(sensor=sensor, ct_profile=((1, 1.5),)).validated()
    with pytest.raises(ValueError, match="per pixel"):
        SimConfig(sensor=sensor, delays_ps=(1.0, 2.0)).validated()
    with pytest.raises(ValueError, match="duration"):
        SimConfig(sensor=sensor, duration_s=1e-9).total_cycles
    with pytest.raises(ValueError, match="out of range"):
        SimConfig(sensor=sensor, beams=(BeamSpec(99, 10.0),)).validated()
    with pytest.raises(ValueError, match="drift_scale 1e\\+308 overflows"):
        SimConfig(sensor=sensor, dcr=DcrProfile(drift_scale=1e308)).validated()
    with pytest.raises(ValueError, match="duplicate pixel"):
        SimConfig(sensor=sensor, dcr=DcrProfile(
            overrides=((3, 900.0), (3, 5.0)))).validated()


@pytest.mark.parametrize("duration_s, cycles", [
    (0.6 * 4e-6, 1), (1.0, 250_000), ((2**64 - 2**12) * 4e-6, 2**64 - 2**12),
    (0.4 * 4e-6, None), (1e-300, None), (2**64 * 4e-6, None),
    (2.0**70, None), (1e308, None)])
def test_cycle_count_is_a_stream_cycle_count(duration_s, cycles):
    # 1 to 2**64 - 1 cycles, the range of a stream's total_cycles
    config = SimConfig(sensor=small_sensor(), duration_s=duration_s)
    if cycles is not None:
        assert config.validated().total_cycles == cycles
        return
    with pytest.raises(ValueError, match="not 1 to 2\\*\\*64 - 1"):
        config.validated()
    with pytest.raises(DataError, match="malformed config document"):
        SimConfig.from_json_dict({"sensor": {"num_pixels": 16},
                                  "duration_s": duration_s})


def test_negative_zero_sigma_is_zero():
    # numpy's normal refuses a scale of -0.0, so the config reads it as 0.0
    fields = ("correlation_sigma_ps", "ct_jitter_sigma_ps", "jitter_sigma_ps")
    beams = (BeamSpec(pixel=2, rate_cps=2e5), BeamSpec(pixel=9, rate_cps=2e5))
    config = SimConfig(sensor=small_sensor(), seed=4, duration_s=0.02,
                       beams=beams, pair_fraction=0.5,
                       ct_profile=((1, 0.05),))
    zero = SimConfig(**{**field_dict(config), **{f: 0.0 for f in fields}})
    signed = SimConfig.from_json_dict(
        {**config.to_json_dict(), **{f: -0.0 for f in fields}})
    assert all(str(getattr(signed, f)) == "0.0" for f in fields)
    assert stream_bytes(simulate(signed)[0]) == \
        stream_bytes(simulate(zero)[0])


def test_json_round_trip():
    config = SimConfig(
        sensor=small_sensor(), seed=77, duration_s=0.5,
        dcr=DcrProfile(base_cps=107.0, overrides=((1, 2000.0),),
                       drift_scale=1.2),
        beams=(BeamSpec(pixel=2, rate_cps=5000.0,
                        mix=(("h", 0.5), ("v", 0.5))),
               BeamSpec(pixel=7, rate_cps=4000.0,
                        mix=(("h", 0.5), ("v", 0.5)))),
        pair_fraction=0.3, correlation_sigma_ps=120.0,
        fiber_delay_ps=5000.0, ct_profile=((1, 0.0012), (3, 0.0002)),
        delays_ps=tuple(np.linspace(-100, 100, 16)),
    )
    back = SimConfig.from_json_dict(config.to_json_dict())
    assert back == config


def test_json_accepts_mapping_form():
    # Hand-written configs use JSON objects where to_json_dict emits
    # pair lists; both must parse to the same config.
    doc = {
        "sensor": {"num_pixels": 16},
        "dcr": {"base_cps": 100.0, "overrides": {"3": 900.0}},
        "beams": [{"pixel": 2, "rate_cps": 5000.0,
                   "mix": {"h": 0.5, "v": 0.5}}],
        "ct_profile": {"1": 0.001},
    }
    config = SimConfig.from_json_dict(doc)
    assert config.dcr.overrides == ((3, 900.0),)
    assert config.beams[0].mix == (("h", 0.5), ("v", 0.5))
    assert config.ct_profile == ((1, 0.001),)


# ---------------------------------------------------------------------------
# physics

def test_bunched_pairs_peak_at_fiber_delay():
    config = SimConfig(
        sensor=small_sensor(), seed=21, duration_s=10.0,
        beams=(BeamSpec(pixel=4, rate_cps=2000.0),
               BeamSpec(pixel=12, rate_cps=2000.0)),
        pair_fraction=0.5, correlation_sigma_ps=100.0,
        fiber_delay_ps=5000.0,
    )
    stream, truth = simulate(config)
    assert truth.n_pair_bunched == truth.n_pair_attempts  # single class
    hist = build_histogram(stream, (4, 12), window_ps=25000.0)
    fit = fit_gaussian(hist)
    assert fit.significant
    # peak spread: correlation sigma plus two detections' jitter
    expected_sigma = np.sqrt(100.0**2 + 2 * 40.0**2)
    assert abs(fit.center_ps - 5000.0) <= 3 * fit.center_err_ps + 1.0
    assert fit.sigma_ps == pytest.approx(expected_sigma, rel=0.15)


def test_matched_fraction_follows_mix():
    mix4 = tuple((f"c{i}", 0.25) for i in range(4))
    config = SimConfig(
        sensor=small_sensor(), seed=22, duration_s=5.0,
        beams=(BeamSpec(pixel=1, rate_cps=4000.0, mix=mix4),
               BeamSpec(pixel=2, rate_cps=4000.0, mix=mix4)),
        pair_fraction=1.0,
    )
    _, truth = simulate(config)
    n, frac = truth.n_pair_attempts, 0.25
    assert n > 1000
    sigma = np.sqrt(frac * (1 - frac) / n)
    assert abs(truth.n_pair_bunched / n - frac) <= 3 * sigma


def test_exact_delays_without_jitter():
    # All randomness off except arrival times: pair separation must equal
    # fiber delay plus the injected delay difference, up to rounding.
    delays = [0.0] * 16
    delays[4], delays[12] = 300.0, -200.0
    config = SimConfig(
        sensor=small_sensor(), seed=23, duration_s=1.0,
        beams=(BeamSpec(pixel=4, rate_cps=500.0),
               BeamSpec(pixel=12, rate_cps=500.0)),
        pair_fraction=1.0, correlation_sigma_ps=0.0,
        fiber_delay_ps=5000.0, jitter_sigma_ps=0.0,
        delays_ps=tuple(delays), include_lineage=True,
    )
    stream, truth = simulate(config)
    a_mask = truth.origin == ORIGIN_PAIR_A
    b_mask = truth.origin == ORIGIN_PAIR_B
    cyc_a = stream.cycle_index[a_mask]
    cyc_b = stream.cycle_index[b_mask]
    # unambiguous pairing: cycles holding exactly one attempt on each arm
    vals_a, n_a = np.unique(cyc_a, return_counts=True)
    vals_b, n_b = np.unique(cyc_b, return_counts=True)
    solo = np.intersect1d(vals_a[n_a == 1], vals_b[n_b == 1])
    t_a = stream.time_ps[a_mask][np.isin(cyc_a, solo)]
    t_b = stream.time_ps[b_mask][np.isin(cyc_b, solo)]
    dt = t_b - t_a
    expected = 5000.0 + delays[12] - delays[4]
    assert len(dt) > 100
    assert np.abs(dt - expected).max() <= 1.0


def test_ct_spawn_rate_and_boundary():
    # interior source: both directions; edge source: one direction
    interior = SimConfig(sensor=small_sensor(), seed=31, duration_s=1.0,
                         beams=(BeamSpec(pixel=8, rate_cps=50000.0),),
                         ct_profile=((1, 0.02),))
    _, t_int = simulate(interior)
    n_src = t_int.n_beam_singles + t_int.n_dark
    p_eff = t_int.n_ct / n_src
    assert abs(p_eff - 0.04) <= 3 * np.sqrt(0.04 / n_src)

    edge = SimConfig(sensor=small_sensor(), seed=32, duration_s=1.0,
                     beams=(BeamSpec(pixel=0, rate_cps=50000.0),),
                     ct_profile=((1, 0.02),))
    _, t_edge = simulate(edge)
    n_src = t_edge.n_beam_singles
    p_eff = t_edge.n_ct / n_src
    assert abs(p_eff - 0.02) <= 3 * np.sqrt(0.02 / n_src)


def test_ct_strictly_follows_source():
    config = SimConfig(sensor=small_sensor(), seed=33, duration_s=0.5,
                       beams=(BeamSpec(pixel=8, rate_cps=20000.0),),
                       ct_profile=((1, 0.05),), jitter_sigma_ps=0.0,
                       include_lineage=True)
    stream, truth = simulate(config)
    # with zero detection jitter every CT record sits at or after some
    # source record in the same cycle (|half-normal| spawn offset)
    ct = truth.origin == ORIGIN_CT
    src = ~ct
    for k in np.flatnonzero(ct)[:200]:
        cycle = stream.cycle_index[k]
        mates = src & (stream.cycle_index == cycle)
        assert (stream.time_ps[mates] <= stream.time_ps[k] + 1.0).any()


def test_fiber_delay_near_cycle_end_drops_records():
    period_ps = 4_000_000
    config = SimConfig(
        sensor=small_sensor(), seed=34, duration_s=0.5,
        beams=(BeamSpec(pixel=1, rate_cps=2000.0),
               BeamSpec(pixel=2, rate_cps=2000.0)),
        pair_fraction=1.0, fiber_delay_ps=period_ps * 0.9,
    )
    stream, truth = simulate(config)
    assert truth.n_dropped > 0
    expected = (truth.n_dark + truth.n_beam_singles
                + 2 * truth.n_pair_attempts + truth.n_ct - truth.n_dropped)
    assert stream.n_records == expected
    # roughly 90% of arm-b photons fall off the cycle end
    assert truth.n_dropped == pytest.approx(0.9 * truth.n_pair_attempts,
                                            rel=0.1)


def test_multiple_blocks_still_deterministic_and_sorted(monkeypatch):
    import spadkit.simulator as sim

    monkeypatch.setattr(sim, "_BLOCK_TARGET_RECORDS", 512)
    config = SimConfig(sensor=small_sensor(), seed=55, duration_s=0.2,
                       dcr=DcrProfile(base_cps=20000.0),
                       ct_profile=((2, 0.01),))
    a, truth = sim.simulate(config)
    a.validate()
    b, _ = sim.simulate(config)
    assert stream_bytes(a) == stream_bytes(b)
    assert a.n_records > 10_000


# ---------------------------------------------------------------------------
# code-density helper

def test_code_density_stream_recovers_widths():
    sensor = SensorConfig(num_pixels=4)
    bins = sensor.tdc_bins_per_clock
    rng = np.random.default_rng(3)
    widths = rng.uniform(0.6, 1.4, size=bins)
    widths *= sensor.clock_period_ps / widths.sum()
    stream = simulate_code_density(sensor, widths, 40_000, seed=6)
    stream.validate()
    lut = build_lut(stream)
    n = 40_000
    p = widths / sensor.clock_period_ps
    sigma = sensor.clock_period_ps * np.sqrt(p * (1 - p) / n)
    for pixel in range(4):
        assert (np.abs(lut.widths[pixel] - widths) <= 3 * sigma + 1e-9).all()


def test_code_density_respects_geometry():
    sensor = SensorConfig(num_pixels=2)
    flat = np.full(sensor.tdc_bins_per_clock, sensor.mean_bin_width_ps)
    stream = simulate_code_density(sensor, flat, (100, 50), seed=1)
    counts = stream.counts_per_pixel()
    assert counts.tolist() == [100, 50]
    assert stream.raw_code.max() < sensor.tdc_bins_per_clock
    assert stream.time_ps.max() < sensor.cycle_period_ps
    with pytest.raises(ValueError, match="shape"):
        simulate_code_density(sensor, flat[:-1], 10, seed=1)


@pytest.mark.parametrize("width, n_cycles, message", [
    (-50.0, 1, "widths"), (np.nan, 1, "widths"), (np.inf, 1, "widths"),
    (2500 / 140, 0, "n_cycles"),
])
def test_code_density_refuses_bad_widths_and_cycles(width, n_cycles, message):
    sensor = SensorConfig(num_pixels=2)
    widths = np.full(sensor.tdc_bins_per_clock, sensor.mean_bin_width_ps)
    widths[3] = width
    with pytest.raises(ValueError, match=message):
        simulate_code_density(sensor, widths, 10, seed=1, n_cycles=n_cycles)


def _cum_cases():
    rng = np.random.default_rng(17)
    clock = 2500.0
    uneven = rng.uniform(0.0, 2.0, 140)
    uneven[[0, 5, 6, 7, 139]] = 0.0  # zero-width bins, a run of them too
    uneven *= clock / uneven.sum()
    return {
        "zero-width bins": np.cumsum(uneven),
        "widths short of the clock": np.cumsum(uneven * 0.8),
        "widths past the clock": np.cumsum(uneven * 1.2),
        "narrow bins in one cell": np.cumsum(np.r_[np.full(100, 0.01),
                                                   np.full(40, 62.475)]),
        # a time just below a cell edge can land in that cell, where the
        # table's code already counts a bin edge on the cell edge
        "bins on the cell edges": np.arange(1, simulator._CODE_CELLS + 1)
        * (clock / simulator._CODE_CELLS),
        "one bin": np.array([clock]),
        "all zero": np.zeros(140),
    }


@pytest.mark.parametrize("case", list(_cum_cases()))
def test_code_draw_is_searchsorted(case):
    # the oracle: np.searchsorted(cum, fine, side="right"), on fine times
    # at and beside every bin edge and table cell edge, 0.0 and the last
    # float below the clock
    cum, clock = _cum_cases()[case], 2500.0
    cells = np.arange(simulator._CODE_CELLS + 1) * (clock /
                                                    simulator._CODE_CELLS)
    edges = np.concatenate([cum, cells])
    fine = np.concatenate([
        edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
        [0.0, np.nextafter(clock, 0)],
        np.random.default_rng(2).uniform(0.0, clock, 20_000)])
    fine = fine[(fine >= 0.0) & (fine < clock)]
    assert np.array_equal(simulator._draw_codes(cum, fine, clock),
                          np.searchsorted(cum, fine, side="right"))


def test_code_density_on_a_one_bin_sensor():
    sensor = SensorConfig(num_pixels=2, tdc_bins_per_clock=1)
    stream = simulate_code_density(sensor, [sensor.clock_period_ps], 500,
                                   seed=2, n_cycles=5)
    assert stream.raw_code.tolist() == [0] * 1000


def _code_density_oracle(sensor, widths, counts, seed, n_cycles):
    """``simulate_code_density``'s columns from the same draws in the same
    order, times taken first, put in stream order by ``np.lexsort``."""
    clock = float(sensor.clock_period_ps)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    counts = np.broadcast_to(counts, (sensor.num_pixels,))
    widths = np.broadcast_to(widths, (sensor.num_pixels,
                                      sensor.tdc_bins_per_clock))
    pix = np.repeat(np.arange(sensor.num_pixels, dtype=np.uint16), counts)
    codes = np.concatenate([
        np.searchsorted(np.cumsum(widths[p]), rng.uniform(0.0, clock, n),
                        side="right") for p, n in enumerate(counts)])
    codes = np.minimum(codes, sensor.tdc_bins_per_clock - 1).astype(np.uint32)
    cycles = rng.integers(0, n_cycles, len(pix)).astype(np.uint64)
    slots = rng.integers(0, sensor.cycle_period_ps // sensor.clock_period_ps,
                         len(pix))
    times = np.rint(slots * clock + codes * sensor.mean_bin_width_ps)
    order = np.lexsort((pix, times, cycles))
    return {"cycle_index": cycles[order], "pixel": pix[order],
            "time_ps": times[order], "raw_code": codes[order]}


def _uneven_widths(sensor, seed=12):
    widths = np.random.default_rng(seed).uniform(
        0.2, 1.8, sensor.tdc_bins_per_clock)
    return widths * (sensor.clock_period_ps / widths.sum())


# (sensor, counts per pixel, n_cycles, sorted as packed words?)
CODE_DENSITY_CASES = {
    "default sensor": (SensorConfig(), 100, 50, True),
    "2 pixels": (SensorConfig(num_pixels=2), (700, 300), 20, True),
    "one bin": (SensorConfig(num_pixels=2, tdc_bins_per_clock=1), 500, 5,
                True),
    "zero-count pixels": (SensorConfig(num_pixels=4), (0, 300, 0, 50), 9,
                          True),
    "one cycle": (SensorConfig(num_pixels=4), 200, 1, True),
    "no record": (SensorConfig(num_pixels=4), 0, 10, True),
    "one record": (SensorConfig(num_pixels=4), (0, 1, 0, 0), 10, True),
    # mean bin widths of exactly 2 ps and of 2500 / 1251 ps
    "2 ps bins": (SensorConfig(num_pixels=3, tdc_bins_per_clock=1250), 400,
                  9, True),
    "bins under 2 ps": (SensorConfig(num_pixels=3, tdc_bins_per_clock=1251),
                        400, 9, False),
    # 2 pixel + 8 code + 11 slot + 50 cycle bits
    "fields over 64 bits": (SensorConfig(num_pixels=4), 300, 2**50, False),
}


@pytest.mark.parametrize("case", list(CODE_DENSITY_CASES))
def test_code_density_is_its_draws_in_lexsort_order(case):
    sensor, counts, n_cycles, packed = CODE_DENSITY_CASES[case]
    widths = _uneven_widths(sensor)
    with mock.patch.object(simulator, "sort_records",
                           wraps=simulator.sort_records) as sort_records:
        stream = simulate_code_density(sensor, widths, counts, seed=9,
                                       n_cycles=n_cycles)
    assert sort_records.call_count == (0 if packed else 1)
    want = _code_density_oracle(sensor, widths, counts, 9, n_cycles)
    for name, column in want.items():
        got = getattr(stream, name)
        assert got.dtype == column.dtype, name
        assert got.tobytes() == column.tobytes(), name
    stream.validate()


@pytest.mark.parametrize("case", [case for case, (*_, packed)
                                  in CODE_DENSITY_CASES.items() if packed])
def test_code_time_increases_over_every_slot_and_code(case):
    # the packed words sort as the stream only where (slot, code) order is
    # time order: every position of the cycle, in that order, is later
    # than the one before
    sensor = CODE_DENSITY_CASES[case][0]
    n_slots = sensor.cycle_period_ps // sensor.clock_period_ps
    slots, codes = np.divmod(
        np.arange(n_slots * sensor.tdc_bins_per_clock, dtype=np.uint64),
        np.uint64(sensor.tdc_bins_per_clock))
    times = np.empty(len(slots))
    simulator._code_times(slots, codes, float(sensor.clock_period_ps),
                          sensor.mean_bin_width_ps, times)
    assert (np.diff(times) > 0).all()
    assert times[-1] < sensor.cycle_period_ps


# sha256 of the written bytes of small simulated streams: the simulators'
# byte contract (same config and seed, same stream), pinned across changes
# to their draws and sorts
def test_code_density_stream_bytes_are_pinned():
    sensor = SensorConfig(num_pixels=4)
    widths = np.random.default_rng(12).uniform(
        0.2, 1.8, (4, sensor.tdc_bins_per_clock))
    widths[:, 7] = 0.0
    widths *= sensor.clock_period_ps / widths.sum(axis=1, keepdims=True)
    stream = simulate_code_density(sensor, widths, (3000, 0, 500, 2000),
                                   seed=11, n_cycles=50)
    assert stream.n_records == 5500
    assert hashlib.sha256(stream_bytes(stream)).hexdigest() == \
        "b9028aed56e703dd48085fade64bdb58f3b806c9a9f5893283a5e9398f7b6f0c"


def test_simulate_stream_bytes_are_pinned():
    config = SimConfig(
        sensor=small_sensor(), seed=21, duration_s=0.05,
        dcr=DcrProfile(base_cps=2000.0),
        beams=(BeamSpec(pixel=3, rate_cps=20000.0),
               BeamSpec(pixel=9, rate_cps=20000.0)),
        pair_fraction=0.2, fiber_delay_ps=3000.0,
        ct_profile=((1, 0.02), (2, 0.005)),
        delays_ps=tuple(float(d) for d in np.linspace(-700.5, 900.25, 16)))
    stream, _truth = simulate(config)
    assert stream.n_records == 3805
    assert hashlib.sha256(stream_bytes(stream)).hexdigest() == \
        "0e8e99768f4be2c7a3a4c7c5e0a9106de90bcc6a3d193d03b30fa5e9c9dff61d"


@pytest.mark.parametrize("piece", [None, 97])
def test_drops_without_delays_are_pinned(monkeypatch, piece):
    # one-class mixes, no delays_ps, and a fiber delay that pushes most
    # arm-b photons off the cycle end; in pieces of 97 records, the jitter
    # draws and the drop test give the same stream
    if piece is not None:
        monkeypatch.setattr(timestream, "_PIECE", piece)
    config = SimConfig(
        sensor=small_sensor(), seed=23, duration_s=0.05,
        dcr=DcrProfile(base_cps=2000.0),
        beams=(BeamSpec(pixel=4, rate_cps=20000.0),
               BeamSpec(pixel=11, rate_cps=20000.0)),
        pair_fraction=0.3, fiber_delay_ps=3_990_000.0,
        ct_profile=((1, 0.02), (2, 0.005)))
    stream, truth = simulate(config)
    assert (stream.n_records, truth.n_dropped) == (3419, 308)
    assert hashlib.sha256(stream_bytes(stream)).hexdigest() == \
        "1c5c9a528e339f9a8905088479a6fb2d5e1ea3c0c7b81eccdd7eb571929cc36b"


def test_two_class_lineage_over_blocks_is_pinned(monkeypatch):
    # two-class mixes, delays, drops and five blocks: the stream and its
    # lineage arrays
    monkeypatch.setattr(simulator, "_BLOCK_TARGET_RECORDS", 1500)
    config = SimConfig(
        sensor=small_sensor(), seed=62, duration_s=0.1,
        dcr=DcrProfile(base_cps=1500.0),
        beams=(BeamSpec(pixel=2, rate_cps=20000.0,
                        mix=(("a", 0.3), ("b", 0.7))),
               BeamSpec(pixel=6, rate_cps=20000.0,
                        mix=(("b", 0.6), ("a", 0.4)))),
        pair_fraction=0.5, fiber_delay_ps=3_800_000.0,
        ct_profile=((1, 0.02), (3, 0.01)),
        delays_ps=tuple(float(d) for d in np.linspace(-300.0, 250.5, 16)),
        include_lineage=True)
    stream, truth = simulate(config)
    assert (truth.n_blocks, stream.n_records, truth.n_dropped) == \
        (5, 5703, 1010)
    assert truth.origin.dtype == np.uint8
    assert truth.class_id.dtype == np.int16
    assert [hashlib.sha256(data).hexdigest() for data in (
        stream_bytes(stream), truth.origin.tobytes(),
        truth.class_id.tobytes())] == [
        "1832a3d5a1f8eec7301421aead869c54dd94102fa917d5e85ac2afab38ffd5ba",
        "e27ae8d143c4106c89741c946df2c45d8a0fe59bb58442330251d2fe8f9efc66",
        "9a17d3006130a8681da4036c8f845929a355d1d51b45cc0fec94c20518bccc86"]


@pytest.mark.parametrize("mix", [(("b", 1.0),), (("b", 0.3), ("b", 0.7))])
@pytest.mark.parametrize("n", [0, 1, 1000])
def test_one_class_mix_draws_as_the_general_mix(mix, n):
    # a mix of one class gives its id without a search, and, read or not,
    # draws what a mix of two classes draws
    label_index = {"a": 0, "b": 1}
    rng_ref = np.random.default_rng(14)
    general = simulator._draw_classes(rng_ref, (("a", 0.5), ("b", 0.5)),
                                      label_index, n)
    assert general.shape == (n,)
    for read in (True, False):
        rng = np.random.default_rng(14)
        ids = simulator._draw_classes(rng, mix, label_index, n, read=read)
        assert rng.bit_generator.state == rng_ref.bit_generator.state
        if read:
            assert ids.dtype == np.int16 and ids == 1
        else:
            assert ids is None


def test_lineage_drops_on_the_permutation_path():
    # 18 cycle + 22 time + 8 pixel bits and a record index of 17 bits: 65
    # bits, so the lineage run sorts through _key_order's permutation,
    # while the bare run decodes its columns from the key.  Arm-b photons
    # fall off the cycle end on both.
    import dataclasses

    config = SimConfig(
        seed=19, duration_s=1.0, dcr=DcrProfile(base_cps=250.0),
        beams=(BeamSpec(pixel=100, rate_cps=20000.0),
               BeamSpec(pixel=103, rate_cps=20000.0)),
        pair_fraction=0.5, fiber_delay_ps=3_600_000.0,
        ct_profile=((1, 0.01),))
    with mock.patch.object(timestream, "_key_order",
                           wraps=timestream._key_order) as permutation:
        tagged, truth = simulate(dataclasses.replace(config,
                                                     include_lineage=True))
        assert permutation.call_count == 1
        bare, bare_truth = simulate(config)
        assert permutation.call_count == 1
    assert (tagged.n_records, truth.n_dropped, bare_truth.n_dropped) == \
        (96857, 9023, 9023)
    assert stream_bytes(tagged) == stream_bytes(bare)
    assert [hashlib.sha256(data).hexdigest() for data in (
        stream_bytes(bare), truth.origin.tobytes(),
        truth.class_id.tobytes())] == [
        "49ea3eb4ad9bff760b610bf109728698eb8e572d080d1ab0a130a29cbb47dd12",
        "e97d9d0e9b55017bea2900e8de27ba67bcfef670142a056c353aefc2b3ec38ff",
        "b2810558fcb301a6122526b27107ead0b0909726ef0faeaa4854c53b839e1d6e"]


# ---------------------------------------------------------------------------
# lineage over several blocks, and memory

def test_lineage_over_blocks_with_drops(monkeypatch):
    import dataclasses

    period_ps = 4_000_000
    mix = (("a", 0.5), ("b", 0.5))
    config = SimConfig(
        sensor=small_sensor(), seed=61, duration_s=0.2,
        dcr=DcrProfile(base_cps=2000.0),
        beams=(BeamSpec(pixel=1, rate_cps=20000.0, mix=mix),
               BeamSpec(pixel=2, rate_cps=20000.0, mix=mix)),
        pair_fraction=0.5, fiber_delay_ps=period_ps * 0.9,
        ct_profile=((1, 0.02), (3, 0.01)))
    monkeypatch.setattr(simulator, "_BLOCK_TARGET_RECORDS", 2000)
    blocks = []
    generate = simulator._generate_block

    def counted(*args):
        blocks.append(args)
        return generate(*args)

    monkeypatch.setattr(simulator, "_generate_block", counted)
    bare, t0 = simulate(config)
    tagged, t1 = simulate(dataclasses.replace(config, include_lineage=True))
    assert len(blocks) >= 4  # two runs of at least two blocks each

    assert stream_bytes(bare) == stream_bytes(tagged)
    counters = ("n_dark", "n_beam_singles", "n_pair_attempts",
                "n_pair_bunched", "n_ct", "n_dropped")
    assert [getattr(t0, c) for c in counters] == \
        [getattr(t1, c) for c in counters]
    assert t0.origin is None and t0.class_id is None
    assert t1.n_dropped > 0
    assert len(t1.origin) == len(t1.class_id) == tagged.n_records

    # each origin keeps at most what was made of it, and the records that
    # went missing are the dropped ones
    kept = np.bincount(t1.origin, minlength=len(simulator.ORIGIN_NAMES))
    made = np.array([t1.n_dark, t1.n_beam_singles, t1.n_pair_attempts,
                     t1.n_pair_attempts, t1.n_ct])
    assert (kept <= made).all()
    assert (made - kept).sum() == t1.n_dropped
    # the fiber delay pushes most arm-b photons off the cycle end
    assert made[ORIGIN_PAIR_B] - kept[ORIGIN_PAIR_B] > 0.8 * t1.n_pair_attempts
    # classes: none for dark counts and cross-talk, a mix class otherwise
    classless = np.isin(t1.origin, (ORIGIN_DARK, ORIGIN_CT))
    assert (t1.class_id[classless] == -1).all()
    assert np.isin(t1.class_id[~classless], (0, 1)).all()


@pytest.mark.parametrize("direction", [1, -1, 3, -3, 15, -15, 16, -16, 40])
@pytest.mark.parametrize("prob", [0.0, 0.3, 1.0])
def test_ct_sources_are_picks_among_records_with_a_target(direction, prob):
    # the reference: the picks index the positions whose target pixel
    # pixel + direction lies on the 16-pixel sensor, with the same draws
    pix = np.random.default_rng(9).integers(0, 16, 5000).astype(np.uint16)
    target = pix.astype(np.int64) + direction
    valid = np.flatnonzero((target >= 0) & (target < 16))
    rng_ref, rng = np.random.default_rng(3), np.random.default_rng(3)
    expected = valid[simulator._bernoulli_indices(rng_ref, len(valid), prob)]
    got = simulator._ct_sources(rng, pix, direction, 16, prob)
    assert np.array_equal(got, expected)
    assert rng.bit_generator.state == rng_ref.bit_generator.state


def _unclipped_bernoulli_indices(rng, n, p):
    """The geometric-gap walk without the clip: its int64 sum wraps for p
    below about 1e-18."""
    chunks, pos = [], -1
    expect = n * p
    size = int(expect + 6.0 * np.sqrt(expect) + 16)
    while pos < n - 1:
        idx = pos + np.cumsum(rng.geometric(p, size))
        chunks.append(idx)
        pos = int(idx[-1])
    idx = np.concatenate(chunks)
    return idx[idx < n]


@pytest.mark.parametrize("n", [1, 17, 100_000])
@pytest.mark.parametrize("prob", [0.5, 1e-3, 1e-7, 1e-17])
def test_clipped_gaps_keep_every_pick_and_draw(n, prob):
    rng_ref, rng = np.random.default_rng(5), np.random.default_rng(5)
    expected = _unclipped_bernoulli_indices(rng_ref, n, prob)
    assert np.array_equal(simulator._bernoulli_indices(rng, n, prob),
                          expected)
    assert rng.bit_generator.state == rng_ref.bit_generator.state


@pytest.mark.parametrize("prob", [1e-19, 1e-300])
def test_tiny_probability_ends(prob):
    # the gaps are 2**63 - 1 here; unclipped, their sum wrapped negative
    # and the walk never ended
    rng = np.random.default_rng(1)
    assert len(simulator._bernoulli_indices(rng, 10**6, prob)) == 0
    config = SimConfig(sensor=small_sensor(), seed=2, duration_s=0.01,
                       dcr=DcrProfile(base_cps=1e4), ct_profile=((1, prob),))
    assert simulate(config)[1].n_ct == 0


class _NullSink:
    def write(self, data) -> int:
        return memoryview(data).nbytes


def test_simulate_and_write_hold_one_stream_plus_scratch():
    # one block of two beams with pairs, cross-talk and delays: the
    # columns are built in place, so the peak stays near one stream
    config = SimConfig(
        sensor=small_sensor(num_pixels=32), seed=8, duration_s=1.0,
        dcr=DcrProfile(base_cps=200.0),
        beams=(BeamSpec(pixel=10, rate_cps=150_000.0),
               BeamSpec(pixel=13, rate_cps=150_000.0)),
        pair_fraction=0.1, fiber_delay_ps=5000.0,
        ct_profile=((1, 0.01), (3, 0.005)),
        delays_ps=tuple(np.linspace(-900.0, 900.0, 32)))

    def run():
        stream, _truth = simulate(config)
        stream.write(_NullSink())
        return stream

    stream, peak = traced_peak(run)
    assert stream.n_records > 250_000
    assert peak <= 1.8 * column_bytes(stream)  # measured 1.63x


def test_code_density_holds_one_stream_plus_scratch():
    sensor = SensorConfig(num_pixels=16)
    widths = np.full(sensor.tdc_bins_per_clock, sensor.mean_bin_width_ps)
    stream, peak = traced_peak(lambda: simulate_code_density(
        sensor, widths, 20_000, seed=5, n_cycles=100))
    assert stream.n_records == 320_000
    assert peak <= 1.7 * column_bytes(stream)  # measured 1.45x


def test_simulators_sort_without_a_permutation():
    # the packed words are sorted and the columns decoded from them: no
    # permutation, no argsort and no lexsort in either simulator.  The
    # beam block's key (18 cycle + 22 time + 8 pixel bits) and its record
    # index (17 bits) need 65 bits, so the columns are all it can sort.
    config = SimConfig(
        seed=4, duration_s=1.0, dcr=DcrProfile(base_cps=250.0),
        beams=(BeamSpec(pixel=100, rate_cps=10_000.0),
               BeamSpec(pixel=103, rate_cps=10_000.0)),
        pair_fraction=0.2, ct_profile=((1, 0.02),),
        delays_ps=tuple(np.linspace(-700.5, 900.25, 256)))
    sensor = SensorConfig(num_pixels=4)
    widths = np.full(sensor.tdc_bins_per_clock, sensor.mean_bin_width_ps)
    with mock.patch("numpy.argsort", wraps=np.argsort) as argsort, \
            mock.patch("numpy.lexsort", wraps=np.lexsort) as lexsort, \
            mock.patch.object(timestream, "_key_order",
                              wraps=timestream._key_order) as permutation:
        stream, _truth = simulate(config)
        codes = simulate_code_density(sensor, widths, 3000, seed=3,
                                      n_cycles=40)
    assert (argsort.call_count, lexsort.call_count,
            permutation.call_count) == (0, 0, 0)
    assert 2**16 < stream.n_records < 2**17
    assert codes.n_records == 12_000
    stream.validate()
    codes.validate()
