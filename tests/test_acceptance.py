"""End-to-end acceptance checks against simulator ground truth.

Each test stands for one release gate: it builds a full scenario through the
public API, checks the recovered quantities against the injected truth at
fixed tolerances, and prints a one-line PASS summary with the measured
numbers (visible with ``pytest -s``).  Scenario sizes are chosen so that
every statistical comparison has at least a few sigma of headroom at the
pinned seeds while staying inside the stated runtime budgets.
"""

from __future__ import annotations

import io
import time

import numpy as np
from scipy.stats import chi2 as chi2_dist, norm

from spadkit import (
    PhotonStream,
    SensorConfig,
    StreamHeader,
    StreamFormatError,
    apply_delays,
    apply_lut,
    build_histogram,
    build_lut,
    compute_rates,
    ct_scan,
    fit_gaussian,
    fit_two_peaks,
    measure_offsets,
    read_stream,
    solve_delays,
)
from spadkit.coincidence import DeltaHistogram
from spadkit.offsets import OffsetMeasurement
from spadkit.peakfit import gauss_jacobian, gauss_model
from spadkit.simulator import BeamSpec, DcrProfile, SimConfig, simulate, \
    simulate_code_density


def _rms(x: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.square(x))))


# ---------------------------------------------------------------------------
# 1. offset calibration round trip

def test_offset_calibration_round_trip():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    delays = rng.uniform(-5000.0, 5000.0, size=256)
    truth = delays - delays.mean()

    # 10 minutes of ambient light; 0.5% nearest-neighbor cross-talk puts
    # ~720 counts in every adjacent-pair peak, a ~2 ps center error per
    # step.  The accumulated random walk over 255 steps then stays well
    # below the 50 ps bound even for an unlucky seed.
    config = SimConfig(
        seed=11,
        duration_s=600.0,
        dcr=DcrProfile(base_cps=120.0),
        ct_profile=((1, 0.005),),
        delays_ps=delays,
    )
    stream, _ = simulate(config)

    measured = measure_offsets(stream)
    solved = solve_delays(measured, num_pixels=256)
    assert not solved.degraded
    rms = _rms(solved.delays_ps - truth)
    assert rms <= 50.0, f"delay recovery rms {rms:.1f} ps exceeds 50 ps"

    corrected = apply_delays(stream, solved)
    del stream
    refit = measure_offsets(corrected)
    assert all(m.valid for m in refit)
    worst = max(abs(m.off_ps) for m in refit)
    assert worst <= 50.0, f"residual peak offset {worst:.1f} ps exceeds 50 ps"

    elapsed = time.perf_counter() - t0
    assert elapsed <= 60.0, f"round trip took {elapsed:.1f} s (budget 60 s)"
    print(f"acceptance 1 offset round trip: PASS "
          f"rms={rms:.1f}ps worst_refit={worst:.1f}ps t={elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. chain solver versus dense reference

def _dense_reference(offs: np.ndarray) -> np.ndarray:
    # Full-matrix statement of the same system: one row per adjacent pair,
    # plus a final all-ones row pinning the mean to zero.
    n = len(offs) + 1
    a = np.zeros((n, n))
    b = np.zeros(n)
    for k, off in enumerate(offs):
        a[k, k] = 1.0
        a[k, k + 1] = -1.0
        b[k] = off
    a[n - 1, :] = 1.0
    return np.linalg.solve(a, b)


def test_delay_solver_matches_dense_solve():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for n in range(2, 17):
        offs = rng.normal(0.0, 2000.0, size=n - 1)
        ms = [OffsetMeasurement(i, i + 1, float(offs[i]), 5.0, True)
              for i in range(n - 1)]
        vec = solve_delays(ms, num_pixels=n)
        ref = _dense_reference(offs)
        err = float(np.abs(vec.delays_ps - ref).max())
        worst = max(worst, err)
        assert err <= 1e-9, f"n={n}: solver deviates from dense solve by {err:g}"
        assert abs(float(vec.delays_ps.mean())) <= 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"acceptance 2 chain solver: PASS max_dev={worst:.2e}ps "
          f"t={elapsed * 1e3:.0f}ms")


# ---------------------------------------------------------------------------
# 3. cross-talk curve recovery from hot pixels

CT_PROFILE = {1: 1.2e-3, 2: 3.0e-4, 3: 5.5e-4, 4: 2.0e-4, 5: 1.3e-4,
              6: 1.0e-4, 7: 1.0e-4, 8: 1.0e-4, 9: 1.0e-4, 10: 1.0e-4,
              11: 1.0e-4}


def test_crosstalk_curve_recovery():
    t0 = time.perf_counter()
    hot = [15, 45, 75, 105, 135, 165, 195, 225]
    config = SimConfig(
        seed=33,
        duration_s=50.0,
        dcr=DcrProfile(base_cps=60.0,
                       overrides=tuple((p, 25_000.0) for p in hot)),
        ct_profile=tuple(sorted(CT_PROFILE.items())),
    )
    stream, _ = simulate(config)
    report = compute_rates(stream)
    assert len(report.hot_pixels) == len(hot)

    curve = ct_scan(stream, report, d_max=11, n_hot=8)
    pulls = {}
    for d, p_true in CT_PROFILE.items():
        point = curve.point(d)
        pull = (point.probability - p_true) / point.stderr
        pulls[d] = pull
        assert abs(pull) <= 3.0, (
            f"d={d}: measured {point.probability:.2e} +- {point.stderr:.1e} "
            f"vs injected {p_true:.2e} (pull {pull:.1f})")
    # The shape itself: strong nearest-neighbor value, a local bump one
    # pixel past the dip, and a flat tail.
    probs = {d: curve.point(d).probability for d in CT_PROFILE}
    assert probs[1] > probs[2] and probs[3] > probs[2] and probs[3] > probs[4]

    elapsed = time.perf_counter() - t0
    assert elapsed <= 120.0
    worst = max(abs(p) for p in pulls.values())
    print(f"acceptance 3 cross-talk curve: PASS worst_pull={worst:.2f} "
          f"t={elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4. contrast mixing law

def _bunching_contrast(mix) -> tuple[float, float]:
    """Fitted coincidence-peak contrast and its total error for one mix."""
    config = SimConfig(
        seed=44,
        duration_s=15.0,
        dcr=DcrProfile(base_cps=20.0),
        beams=(BeamSpec(pixel=60, rate_cps=1.5e5, mix=mix),
               BeamSpec(pixel=65, rate_cps=1.5e5, mix=mix)),
        pair_fraction=0.25,
    )
    stream, truth = simulate(config)
    hist = build_histogram(stream, (60, 65))
    fit = fit_gaussian(hist)
    assert fit.significant
    # The fitted contrast tracks the realized matched-class fraction, so
    # the comparison against the ideal mixing ratio carries the binomial
    # fluctuation of the class draw on top of the fit error.
    attempts = truth.n_pair_attempts
    bunched = truth.n_pair_bunched
    q = bunched / attempts
    sigma_gen = fit.contrast * np.sqrt((1.0 - q) / bunched)
    return fit.contrast, float(np.hypot(fit.contrast_err, sigma_gen))


def test_contrast_mixing_law():
    t0 = time.perf_counter()
    one = (("a", 1.0),)
    two = (("a", 0.5), ("b", 0.5))
    four = (("a", 0.25), ("b", 0.25), ("c", 0.25), ("d", 0.25))
    c1, s1 = _bunching_contrast(one)
    c2, s2 = _bunching_contrast(two)
    c4, s4 = _bunching_contrast(four)

    checks = []
    for c, s, want in ((c2, s2, 0.5), (c4, s4, 0.25)):
        ratio = c / c1
        sigma = ratio * np.hypot(s / c, s1 / c1)
        pull = (ratio - want) / sigma
        checks.append((want, ratio, pull))
        assert abs(pull) <= 3.0, (
            f"contrast ratio {ratio:.4f} vs {want} (pull {pull:.1f})")

    elapsed = time.perf_counter() - t0
    assert elapsed <= 120.0
    detail = " ".join(f"{w}:{r:.3f}({p:+.1f})" for w, r, p in checks)
    print(f"acceptance 4 contrast mixing: PASS {detail} t={elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 5. cross-talk versus bunching at increasing separation

def test_crosstalk_and_bunching_separation_behavior():
    t0 = time.perf_counter()
    ct_by_distance = {3: 6.0e-4, 5: 2.5e-4, 7: 1.0e-4}
    near_contrast, far_contrast, far_sigma, separations = [], [], [], []
    for sep in (3, 5, 7):
        config = SimConfig(
            seed=50 + sep,
            duration_s=15.0,
            dcr=DcrProfile(base_cps=20.0),
            beams=(BeamSpec(pixel=100, rate_cps=1.5e5),
                   BeamSpec(pixel=100 + sep, rate_cps=1.5e5)),
            pair_fraction=0.1,
            fiber_delay_ps=5000.0,
            ct_profile=tuple(sorted(ct_by_distance.items())),
        )
        stream, truth = simulate(config)
        hist = build_histogram(stream, (100, 100 + sep))
        fit = fit_two_peaks(hist, separation_hint_ps=5000.0)

        near_contrast.append(fit.near.contrast)
        far_contrast.append(fit.far.contrast)
        bunched = truth.n_pair_bunched
        far_sigma.append(float(np.hypot(fit.far.contrast_err,
                                        fit.far.contrast / np.sqrt(bunched))))
        separations.append((fit.separation_ps, fit.separation_err_ps))

    # Cross-talk feeds the near peak: its contrast must fall with distance.
    assert near_contrast[0] > near_contrast[1] > near_contrast[2], (
        f"near-peak contrast not decreasing: {near_contrast}")
    # The bunching peak does not care about pixel separation.
    for i in range(3):
        for j in range(i + 1, 3):
            diff = abs(far_contrast[i] - far_contrast[j])
            bound = 3.0 * float(np.hypot(far_sigma[i], far_sigma[j]))
            assert diff <= bound, (
                f"far-peak contrast differs between runs: {far_contrast} "
                f"(|d|={diff:.1f}, 3 sigma={bound:.1f})")
    # The delay line separates the peaks by exactly 5 ns.
    for sep_ps, sep_err in separations:
        assert abs(sep_ps - 5000.0) <= 3.0 * sep_err, (
            f"fitted separation {sep_ps:.1f} +- {sep_err:.1f} ps vs 5000 ps")

    elapsed = time.perf_counter() - t0
    near = "/".join(f"{c:.0f}" for c in near_contrast)
    far = "/".join(f"{c:.0f}" for c in far_contrast)
    print(f"acceptance 5 separation behavior: PASS near={near} far={far} "
          f"sep={separations[1][0]:.1f}ps t={elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 6. dark rate census

def test_dark_rate_census():
    t0 = time.perf_counter()
    hot_rates = {8: 1500.0, 31: 2200.0, 54: 3100.0, 77: 4500.0, 100: 6200.0,
                 123: 8400.0, 146: 11_000.0, 169: 15_000.0, 192: 21_000.0,
                 215: 29_000.0, 238: 40_000.0}
    duration = 30.0
    config = SimConfig(
        seed=66,
        duration_s=duration,
        dcr=DcrProfile(base_cps=107.0, overrides=tuple(hot_rates.items())),
    )
    stream, _ = simulate(config)
    report = compute_rates(stream)

    assert sorted(p for p, _ in report.hot_pixels) == sorted(hot_rates)
    # The report's median runs over the full array, so the 11 hot pixels
    # push it to a slightly higher quantile of the 245 dark estimates:
    # position 128 of 245, not their true median.  Each dark estimate
    # carries sqrt(107/T) of Poisson noise; expectation and spread of that
    # order statistic follow from the usual quantile asymptotics.
    sigma_pixel = np.sqrt(107.0 / duration)
    n_dark = 256 - len(hot_rates)
    q = (256 // 2) / n_dark
    z = norm.ppf(q)
    expected_median = 107.0 + z * sigma_pixel
    sigma_median = np.sqrt(q * (1 - q) / n_dark) / norm.pdf(z) * sigma_pixel
    pull = (report.median_rate_cps - expected_median) / sigma_median
    assert abs(pull) <= 3.0, (
        f"median {report.median_rate_cps:.2f} cps vs expected "
        f"{expected_median:.2f} (pull {pull:.1f})")

    elapsed = time.perf_counter() - t0
    print(f"acceptance 6 rate census: PASS median={report.median_rate_cps:.2f}cps "
          f"hot={len(report.hot_pixels)} t={elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 7. fit coverage and analytic Jacobian

def test_gaussian_fit_coverage():
    t0 = time.perf_counter()
    edges = np.arange(-1600.0, 1600.0 + 1.0, 20.0)
    centers = 0.5 * (edges[:-1] + edges[1:])
    root = np.random.default_rng(777)
    covered = 0
    n_trials = 1000
    for _ in range(n_trials):
        rng = np.random.default_rng(root.integers(0, 2**63))
        truth = np.array([
            2000.0,                        # background per bin
            rng.uniform(300.0, 4000.0),    # amplitude
            rng.uniform(-400.0, 400.0),    # center
            rng.uniform(50.0, 150.0),      # width
        ])
        counts = rng.poisson(gauss_model(centers, truth))
        hist = DeltaHistogram(0, 1, 1600.0, 20.0, counts, int(counts.sum()))
        fit = fit_gaussian(hist)
        if abs(fit.center_ps - truth[2]) <= 3.0 * fit.center_err_ps:
            covered += 1
    fraction = covered / n_trials
    assert fraction >= 0.99, f"3 sigma coverage only {fraction:.3f}"
    elapsed = time.perf_counter() - t0
    print(f"acceptance 7a fit coverage: PASS {covered}/{n_trials} "
          f"t={elapsed:.1f}s")


def test_analytic_jacobians_match_finite_differences():
    x = np.linspace(-1500.0, 1500.0, 301)
    rng = np.random.default_rng(888)
    worst = 0.0
    for _ in range(10):
        p_gauss = np.array([rng.uniform(5, 50), rng.uniform(100, 2000),
                            rng.uniform(-500, 500), rng.uniform(40, 200)])
        p_two = np.concatenate([p_gauss, [rng.uniform(100, 2000),
                                          rng.uniform(-500, 500),
                                          rng.uniform(40, 200)]])
        for model, jac, params in ((gauss_model, gauss_jacobian, p_gauss),
                                   (gauss_model, gauss_jacobian, p_two)):
            analytic = jac(x, params)
            fd = np.empty_like(analytic)
            for k in range(len(params)):
                h = 1e-6 * max(1.0, abs(params[k]))
                hi = params.copy()
                lo = params.copy()
                hi[k] += h
                lo[k] -= h
                fd[:, k] = (model(x, hi) - model(x, lo)) / (2.0 * h)
            scale = np.abs(analytic).max()
            rel = float(np.abs(analytic - fd).max() / scale)
            worst = max(worst, rel)
            assert rel <= 1e-6, f"Jacobian deviates by {rel:.2e} relative"
    print(f"acceptance 7b Jacobian check: PASS worst={worst:.1e}")


# ---------------------------------------------------------------------------
# 8. container round trip and fuzzing

def _random_stream(rng: np.random.Generator) -> PhotonStream:
    num_pixels = int(rng.integers(2, 300))
    period = int(rng.choice([100_000, 2_500_000, 4_000_000]))
    sensor = SensorConfig(num_pixels=num_pixels, cycle_period_ps=period)
    n = int(rng.integers(0, 120))
    cyc = np.sort(rng.integers(0, 400, size=n).astype(np.uint64))
    t = rng.integers(0, period, size=n).astype(np.float64)
    pix = rng.integers(0, num_pixels, size=n).astype(np.uint16)
    order = np.lexsort((pix, t, cyc))
    metadata = {"note": "fuzz seed"} if rng.random() < 0.3 else {}
    raw = None
    if rng.random() < 0.5:
        raw = rng.integers(0, 140, size=n).astype(np.uint32)
    total = int(cyc.max()) + 1 + int(rng.integers(0, 5)) if n else 3
    stream = PhotonStream(
        header=StreamHeader(sensor=sensor, metadata=metadata),
        cycle_index=cyc[order], pixel=pix[order], time_ps=t[order],
        raw_code=raw[order] if raw is not None else None,
        total_cycles=total)
    stream.validate()
    return stream


def _must_parse_or_reject(blob: bytes) -> str:
    """Feed both readers; anything but success or a format error fails."""
    outcome = "ok"
    for parse in (lambda b: PhotonStream.read(io.BytesIO(b)),
                  lambda b: [list(read_stream(io.BytesIO(b))[1])]):
        try:
            parse(blob)
        except StreamFormatError:
            outcome = "rejected"
    return outcome


def test_container_round_trip_and_fuzz():
    t0 = time.perf_counter()
    rng = np.random.default_rng(8001)
    for _ in range(1000):
        stream = _random_stream(rng)
        sink = io.BytesIO()
        stream.write(sink)
        first = sink.getvalue()
        back = PhotonStream.read(io.BytesIO(first))
        sink2 = io.BytesIO()
        back.write(sink2)
        assert sink2.getvalue() == first, "serialization is not bit-stable"
        assert np.array_equal(back.pixel, stream.pixel)
        assert np.array_equal(back.cycle_index, stream.cycle_index)
        assert np.array_equal(back.time_ps, np.rint(stream.time_ps))

    # Fuzzing: mutations, truncations, and garbage must either parse or
    # raise the structured format error; any other exception is a bug.
    base_plain = io.BytesIO()
    _random_stream(np.random.default_rng(42)).write(base_plain)
    base = bytearray(base_plain.getvalue())
    outcomes = {"ok": 0, "rejected": 0}
    for _ in range(400):
        mutated = bytearray(base)
        for _ in range(int(rng.integers(1, 4))):
            mutated[int(rng.integers(0, len(mutated)))] = int(rng.integers(0, 256))
        outcomes[_must_parse_or_reject(bytes(mutated))] += 1
    for _ in range(200):
        cut = int(rng.integers(0, len(base)))
        outcomes[_must_parse_or_reject(bytes(base[:cut]))] += 1
    for _ in range(100):
        blob = rng.integers(0, 256, size=int(rng.integers(0, 400))) \
            .astype(np.uint8).tobytes()
        outcomes[_must_parse_or_reject(blob)] += 1

    elapsed = time.perf_counter() - t0
    print(f"acceptance 8 container robustness: PASS roundtrips=1000 "
          f"fuzz={outcomes} t={elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 9. TDC width calibration

def test_tdc_calibration_recovery():
    t0 = time.perf_counter()
    # Two pixels (the sensor minimum); the statistics-heavy checks read
    # pixel 0, pixel 1 just has enough counts to calibrate.
    sensor = SensorConfig(num_pixels=2)
    n_bins = sensor.tdc_bins_per_clock
    k = np.arange(n_bins)
    widths_true = 1.0 + 0.35 * np.sin(2 * np.pi * k / n_bins) \
        + 0.15 * np.cos(6 * np.pi * k / n_bins)
    widths_true *= sensor.clock_period_ps / widths_true.sum()

    n_cal = 6_000_000
    n_check = 600_000
    cal = simulate_code_density(sensor, widths_true, [n_cal, 20_000], seed=3)
    lut = build_lut(cal)
    assert not lut.unusable

    # Width recovery against the exact multinomial error of the estimator.
    p_true = widths_true / sensor.clock_period_ps
    sigma_w = sensor.clock_period_ps * np.sqrt(p_true * (1 - p_true) / n_cal)
    pulls = (lut.widths[0] - widths_true) / sigma_w
    worst = float(np.abs(pulls).max())
    assert worst <= 3.0, f"width estimate off by {worst:.1f} sigma"

    # Flatness on an independent stream: converted times are discrete at
    # the corrected bin midpoints, so the chi-squared cells are the
    # corrected bins themselves, each expected to hold a share of counts
    # proportional to its width.  The (1 + n2/n1) factor is the usual
    # two-sample correction for comparing against an estimated profile.
    check = simulate_code_density(sensor, widths_true, [n_check, 20_000],
                                  seed=4)
    converted = apply_lut(check, lut)
    mask = converted.pixel == 0
    fine = np.mod(converted.time_ps[mask], float(sensor.clock_period_ps))
    cell_edges = np.concatenate(([0.0], np.cumsum(lut.widths[0])))
    cells = np.searchsorted(cell_edges, fine, side="right") - 1
    observed = np.bincount(cells, minlength=n_bins)
    expected = int(mask.sum()) * lut.widths[0] / sensor.clock_period_ps
    chi2 = float(np.sum((observed - expected) ** 2 / expected))
    chi2 /= 1.0 + n_check / n_cal
    dof = n_bins - 1
    limit = float(chi2_dist.ppf(0.999, dof))
    assert chi2 <= limit, (
        f"converted-time histogram not flat: chi2 {chi2:.1f} > {limit:.1f} "
        f"at 0.1% significance ({dof} dof)")

    elapsed = time.perf_counter() - t0
    print(f"acceptance 9 TDC calibration: PASS worst_pull={worst:.2f} "
          f"chi2={chi2:.0f}/{dof} t={elapsed:.1f}s")
