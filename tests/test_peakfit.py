"""Peak fitting: exact recovery, error propagation, significance logic."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import gathered_boxes, traced_peak
from spadkit import DataError, FitError, peakfit
from spadkit.coincidence import DeltaHistogram, normalize_histogram
from spadkit.peakfit import (
    GaussianFit,
    fit_gaussian,
    fit_peak,
    fit_two_peaks,
    gauss_jacobian,
    gauss_model,
    _contrast_and_error,
)

X = np.linspace(-10_000, 10_000, 201)


def hist_from_counts(counts, window=10_050.0, bin_width=100.0):
    # 201 bins of 100 ps spanning [-10050, 10050): centers match X
    return DeltaHistogram(0, 1, window, bin_width,
                          np.asarray(counts, dtype=np.int64),
                          int(np.sum(counts)))


# ---------------------------------------------------------------------------
# exact and noiseless behavior

def test_noiseless_recovery_to_1e6_relative():
    truth = np.array([40.0, 250.0, 1234.0, 371.0])
    y = gauss_model(X, truth)
    fit = fit_peak(X, y, weights=np.ones_like(X))
    got = np.array([fit.bg, fit.amplitude, fit.center_ps, fit.sigma_ps])
    np.testing.assert_allclose(got, truth, rtol=1e-6)
    assert fit.chi2 < 1e-12


def test_flat_histogram_is_no_significant_peak_not_error():
    fit = fit_gaussian(hist_from_counts(np.full(201, 37)))
    assert isinstance(fit, GaussianFit)
    assert not fit.significant
    assert fit.amplitude == 0.0
    assert fit.bg == pytest.approx(37.0)


def test_all_zero_histogram_is_fit_error():
    with pytest.raises(FitError, match="empty"):
        fit_gaussian(hist_from_counts(np.zeros(201)))


def test_too_few_bins_rejected():
    with pytest.raises(ValueError, match="10 bins"):
        fit_peak(np.arange(5), np.arange(5.0))


def test_center_bounds_respected():
    truth = np.array([40.0, 250.0, 1200.0, 300.0])
    rng = np.random.default_rng(0)
    y = rng.poisson(gauss_model(X, truth)).astype(float)
    fit = fit_peak(X, y, center_bounds=(1000.0, 1400.0))
    assert 1000.0 <= fit.center_ps <= 1400.0


# ---------------------------------------------------------------------------
# jacobians against central finite differences

def _check_jacobian(model, jacobian, params, rtol=1e-6):
    x = X
    jac = jacobian(x, params)
    for i in range(len(params)):
        h = 1e-6 * max(abs(params[i]), 1.0)
        up = params.copy()
        down = params.copy()
        up[i] += h
        down[i] -= h
        fd = (model(x, up) - model(x, down)) / (2 * h)
        scale = np.abs(jac[:, i]).max() + 1e-12
        np.testing.assert_allclose(jac[:, i] / scale, fd / scale,
                                   rtol=rtol, atol=rtol)


def test_gauss_jacobian_matches_finite_differences():
    _check_jacobian(gauss_model, gauss_jacobian,
                    np.array([12.0, 80.0, -950.0, 420.0]))


def test_two_gauss_jacobian_matches_finite_differences():
    _check_jacobian(gauss_model, gauss_jacobian,
                    np.array([5.0, 60.0, -120.0, 210.0, 35.0, 4900.0, 330.0]))


# ---------------------------------------------------------------------------
# invariances

def test_scale_invariance_raw_vs_normalized():
    rng = np.random.default_rng(1)
    counts = rng.poisson(gauss_model(X, np.array([60.0, 300.0, 500.0, 400.0])))
    h = hist_from_counts(counts)
    raw = fit_gaussian(h)
    norm = fit_gaussian(normalize_histogram(h))
    median = float(np.median(counts))
    assert norm.bg == pytest.approx(raw.bg / median, rel=1e-6)
    assert norm.amplitude == pytest.approx(raw.amplitude / median, rel=1e-6)
    assert norm.center_ps == pytest.approx(raw.center_ps, abs=1e-3)
    assert norm.sigma_ps == pytest.approx(raw.sigma_ps, rel=1e-6)
    # contrast is unit-free, so it must agree exactly up to solver noise
    assert norm.contrast == pytest.approx(raw.contrast, rel=1e-6)
    assert norm.chi2 == pytest.approx(raw.chi2, rel=1e-6)


def test_shift_equivariance():
    rng = np.random.default_rng(2)
    y = rng.poisson(gauss_model(X, np.array([50.0, 200.0, 0.0, 350.0]))).astype(float)
    f0 = fit_peak(X, y)
    f1 = fit_peak(X + 7000.0, y)
    assert f1.center_ps - f0.center_ps == pytest.approx(7000.0, abs=1e-3)
    assert f1.sigma_ps == pytest.approx(f0.sigma_ps, rel=1e-9)
    assert f1.amplitude == pytest.approx(f0.amplitude, rel=1e-9)


# ---------------------------------------------------------------------------
# statistics

def test_poisson_pull_coverage_and_chi2_band():
    # High-count regime: weighting by observed counts biases a fitted flat
    # level low by about one count, so keep that well under the bg error.
    truth = np.array([2000.0, 8000.0, 300.0, 400.0])
    model = gauss_model(X, truth)
    rng = np.random.default_rng(3)
    n_ok = 0
    trials = 300
    for _ in range(trials):
        fit = fit_peak(X, rng.poisson(model).astype(float))
        got = np.array([fit.bg, fit.amplitude, fit.center_ps, fit.sigma_ps])
        errs = np.array([fit.bg_err, fit.amplitude_err,
                         fit.center_err_ps, fit.sigma_err_ps])
        if (np.abs(got - truth) <= 3.0 * errs).all():
            n_ok += 1
        assert 0.5 <= fit.chi2 / fit.dof <= 2.0
    assert n_ok / trials >= 0.97


def test_contrast_error_against_sampled_propagation():
    # Independent oracle: push a 2x2 Gaussian parameter cloud through A/bg
    # and compare the sample spread with the analytic first-order error.
    amp, bg = 30.0, 100.0
    cov = np.zeros((4, 4))
    cov[0, 0] = 4.0      # var(bg)
    cov[1, 1] = 9.0      # var(A)
    cov[0, 1] = cov[1, 0] = -2.5
    contrast, err = _contrast_and_error(amp, bg, cov, 1, 0)
    assert contrast == pytest.approx(0.3)
    rng = np.random.default_rng(4)
    samples = rng.multivariate_normal([bg, amp],
                                      [[4.0, -2.5], [-2.5, 9.0]], size=200_000)
    sampled = np.std(samples[:, 1] / samples[:, 0])
    assert err == pytest.approx(sampled, rel=0.02)


def test_insignificant_peak_flagged():
    rng = np.random.default_rng(5)
    y = rng.poisson(np.full(201, 100.0)).astype(float)
    fit = fit_peak(X, y)
    assert not fit.significant
    # and a strong peak is significant
    strong = rng.poisson(gauss_model(X, np.array([100.0, 400.0, 0.0, 500.0])))
    assert fit_peak(X, strong.astype(float)).significant


# ---------------------------------------------------------------------------
# two peaks

def two_peak_counts(rng, bg=80.0, a1=500.0, mu1=0.0, s1=150.0,
                    a2=250.0, mu2=5000.0, s2=150.0):
    p = np.array([bg, a1, mu1, s1, a2, mu2, s2])
    return rng.poisson(gauss_model(X, p))


def test_two_peak_recovery_and_labels():
    rng = np.random.default_rng(6)
    h = hist_from_counts(two_peak_counts(rng))
    fit = fit_two_peaks(h, separation_hint_ps=5000.0)
    assert fit.near.center_ps == pytest.approx(0.0, abs=50.0)
    assert fit.far.center_ps == pytest.approx(5000.0, abs=50.0)
    assert fit.separation_ps == pytest.approx(5000.0, abs=60.0)
    assert fit.near.significant and fit.far.significant
    assert fit.near.amplitude == pytest.approx(500.0, rel=0.1)
    assert fit.far.amplitude == pytest.approx(250.0, rel=0.1)
    assert 0.5 <= fit.chi2 / fit.dof <= 2.0


def test_two_peak_negative_far_side():
    rng = np.random.default_rng(7)
    h = hist_from_counts(two_peak_counts(rng, mu2=-4800.0))
    fit = fit_two_peaks(h, separation_hint_ps=4800.0)
    assert fit.far.center_ps == pytest.approx(-4800.0, abs=60.0)
    assert fit.separation_ps == pytest.approx(-4800.0, abs=80.0)


def test_single_peak_with_hint_flags_second_amplitude():
    rng = np.random.default_rng(8)
    counts = rng.poisson(gauss_model(X, np.array([80.0, 500.0, 0.0, 150.0])))
    fit = fit_two_peaks(hist_from_counts(counts), separation_hint_ps=5000.0)
    assert fit.near.significant
    assert not fit.far.significant


def test_merged_peaks_error():
    # Two clearly double-humped peaks whose separation (900 ps) is still
    # below twice the summed widths (1200 ps).
    rng = np.random.default_rng(9)
    h = hist_from_counts(two_peak_counts(rng, mu1=-450.0, mu2=450.0,
                                         s1=300.0, s2=300.0,
                                         a1=800.0, a2=700.0))
    with pytest.raises(FitError, match="merged"):
        fit_two_peaks(h, separation_hint_ps=900.0)


def test_two_peaks_flat_is_error():
    with pytest.raises(FitError, match="flat"):
        fit_two_peaks(hist_from_counts(np.full(201, 10)), separation_hint_ps=500.0)


def test_bad_hint_rejected():
    with pytest.raises(ValueError, match="hint"):
        fit_two_peaks(hist_from_counts(np.full(201, 10)), separation_hint_ps=-5.0)


# ---------------------------------------------------------------------------
# one model for one or more peaks

def test_model_adds_one_gaussian_per_triple():
    p = np.array([5.0, 60.0, -120.0, 210.0, 35.0, 4900.0, 330.0])
    second = np.array([0.0, *p[4:]])
    np.testing.assert_allclose(gauss_model(X, p),
                               gauss_model(X, p[:4]) + gauss_model(X, second),
                               rtol=1e-12)
    assert gauss_jacobian(X, p).shape == (len(X), 7)
    np.testing.assert_array_equal(gauss_jacobian(X, p)[:, :4],
                                  gauss_jacobian(X, p[:4]))


def test_fits_evaluate_their_own_model():
    rng = np.random.default_rng(10)
    one = fit_gaussian(hist_from_counts(
        rng.poisson(gauss_model(X, np.array([60.0, 300.0, 500.0, 400.0])))))
    np.testing.assert_array_equal(
        one.model(X),
        gauss_model(X, np.array([one.bg, one.amplitude, one.center_ps,
                                 one.sigma_ps])))
    two = fit_two_peaks(hist_from_counts(two_peak_counts(rng)),
                        separation_hint_ps=5000.0)
    near, far = two.near, two.far
    np.testing.assert_array_equal(
        two.model(X),
        gauss_model(X, np.array([two.bg, near.amplitude, near.center_ps,
                                 near.sigma_ps, far.amplitude, far.center_ps,
                                 far.sigma_ps])))
    flat = fit_gaussian(hist_from_counts(np.full(201, 37)))
    np.testing.assert_array_equal(flat.model(X), np.full(len(X), 37.0))


def test_fit_documents_name_their_kind():
    rng = np.random.default_rng(11)
    h = hist_from_counts(two_peak_counts(rng))
    one = fit_gaussian(h).to_json_dict()
    two = fit_two_peaks(h, separation_hint_ps=5000.0).to_json_dict()
    assert (one["schema_version"], one["kind"]) == (1, "gaussian_fit")
    assert (two["schema_version"], two["kind"]) == (1, "two_peak_fit")
    assert "kind" not in two["near_peak"] and "kind" not in two["far_peak"]


# ---------------------------------------------------------------------------
# stop reasons

def test_stop_reasons_name_how_each_fit_ended():
    noiseless = fit_peak(X, gauss_model(X, np.array([40.0, 250.0, 1234.0,
                                                      371.0])))
    assert noiseless.stop_reason == "relative_step"
    # here the last step passes both tests; the relative step is named
    rounded = fit_peak(X, np.round(gauss_model(
        X, np.array([40.0, 250.0, 1234.0, 371.0]))))
    assert rounded.stop_reason == "relative_step"
    rng = np.random.default_rng(12)
    noisy = rng.poisson(gauss_model(X, np.array([60.0, 300.0, 500.0, 400.0])))
    assert fit_peak(X, noisy.astype(float)).stop_reason == "chi2_stall"
    assert fit_gaussian(hist_from_counts(np.full(201, 37))).stop_reason \
        == "flat_data"
    # a peak collapsed onto one bin never settles
    spike = np.where(X == 0.0, 2.0, 1.0)
    endings = {"max_iterations": (fit_peak, (X, spike)),
               "non_finite_seed": (fit_peak, (X, np.where(X == 0.0, np.nan,
                                                          spike))),
               "empty_histogram": (fit_gaussian,
                                   (hist_from_counts(np.zeros(201)),)),
               "flat_data": (fit_two_peaks,
                             (hist_from_counts(np.full(201, 10)), 500.0))}
    for reason, (func, args) in endings.items():
        with pytest.raises(FitError) as info:
            func(*args)
        assert info.value.reason == reason


def test_fit_documents_carry_the_stop_reason():
    rng = np.random.default_rng(13)
    h = hist_from_counts(two_peak_counts(rng))
    for fit in (fit_gaussian(h), fit_two_peaks(h, separation_hint_ps=5000.0)):
        doc = fit.to_json_dict()
        keys = list(doc)
        assert keys[keys.index("n_iterations") + 1] == "stop_reason"
        assert doc["stop_reason"] == fit.stop_reason
        assert fit.stop_reason in CONVERGED


def _loop_seed(x, y):
    """The seed rule one row at a time, walking the FWHM bin by bin: the
    reference for the row-wise ``_single_peak_seeds``."""
    order = np.argsort(x, kind="stable")
    x, y = x[order], y[order]
    bg = float(np.median(y))
    peak = int(np.argmax(y))
    amp = float(y[peak] - bg)
    spacing = float(x[1] - x[0]) if len(x) > 1 else 1.0
    if amp <= 0:
        return np.array([bg, amp, float(x[peak]), spacing])
    half = bg + 0.5 * amp
    i = j = peak
    while i > 0 and y[i - 1] >= half:
        i -= 1
    while j < len(y) - 1 and y[j + 1] >= half:
        j += 1
    fwhm = float(x[j] - x[i]) + spacing
    return np.array([bg, amp, float(x[peak]),
                     max(fwhm / 2.355, spacing / 2.355, 1e-9)])


def _seed_rows(x, y):
    return peakfit._single_peak_seeds(x, y, np.argsort(x, kind="stable"))


def test_seed_and_fit_do_not_depend_on_point_order():
    # 60 seeded single peaks on 201 bins, fitted in order and permuted:
    # the seed reads x in ascending order, so both fits start from the
    # same point and end at the same center (or both fail).
    bin_width = X[1] - X[0]
    for seed in range(60):
        rng = np.random.default_rng(seed)
        truth = np.array([rng.uniform(2, 60), rng.uniform(20, 600),
                          rng.uniform(-8000, 8000),
                          10 ** rng.uniform(1.5, 3.2)])
        y = rng.poisson(gauss_model(X, truth)).astype(float)
        perm = rng.permutation(len(X))
        np.testing.assert_array_equal(_seed_rows(X[perm], y[perm][None]),
                                      _seed_rows(X, y[None]))
        in_order, permuted = (_outcome(fit_peak, (X, y), {}),
                              _outcome(fit_peak, (X[perm], y[perm]), {}))
        failed = isinstance(in_order, FitError)
        assert failed == isinstance(permuted, FitError), seed
        if not failed:
            assert abs(permuted.center_ps - in_order.center_ps) \
                <= 1e-3 * bin_width, seed


def _seed_corpus():
    """Rows on the 201-bin grid ``X`` for the seed oracle: seeded peaks,
    rows without a peak above the median (amp <= 0), peaks in the first or
    last bin and runs that reach an edge, ties for the maximum, NaN and
    infinite bins, and a peak only one bin wide."""
    rows = []
    for seed in range(60):
        rng = np.random.default_rng(seed)
        truth = np.array([rng.uniform(2, 60), rng.uniform(20, 600),
                          rng.uniform(-8000, 8000),
                          10 ** rng.uniform(1.5, 3.2)])
        rows.append(rng.poisson(gauss_model(X, truth)).astype(float))
    n = len(X)
    rows.append(np.full(n, 7.0))
    rows.append(np.where(np.arange(n) % 3 == 0, 2.0, 9.0))   # max == median
    rows.append(np.where(np.arange(n) < 5, 0.0, 4.0))
    for at in (0, n - 1):
        for reach in (1, 4, n // 2):
            row = np.full(n, 3.0)
            row[slice(0, reach) if at == 0 else slice(n - reach, n)] = 50.0
            row[at] = 80.0
            rows.append(row)
    ties = np.full(n, 1.0)
    ties[[40, 41, 42, 150, 151]] = 30.0
    rows.append(ties)
    spike = np.full(n, 2.0)
    spike[77] = 500.0
    rows.append(spike)
    for bad in (np.nan, np.inf, -np.inf):
        row = rows[0].copy()
        row[100] = bad
        rows.append(row)
        row = rows[0].copy()
        row[int(np.argmax(row)) + 1] = bad   # inside the half-maximum run
        rows.append(row)
    return np.array(rows)


@pytest.mark.parametrize("order", ["ascending", "descending", "permuted"])
def test_row_wise_seeds_equal_the_loop_seed(order):
    y = _seed_corpus()
    perm = {"ascending": np.arange(len(X)),
            "descending": np.arange(len(X))[::-1],
            "permuted": np.random.default_rng(4).permutation(len(X))}[order]
    with np.errstate(all="ignore"):
        got = _seed_rows(X[perm], y[:, perm])
        want = np.array([_loop_seed(X[perm], row[perm]) for row in y])
    np.testing.assert_array_equal(got, want)
    assert (want[:, 1] <= 0).sum() >= 3
    assert {X[0], X[-1]} <= set(want[:, 2])


def test_flat_fit_reads_the_grid_in_ascending_order():
    y = np.full(len(X), 37.0)
    want = fit_peak(X, y)
    for x_ in (X[::-1], np.random.default_rng(5).permutation(X)):
        got = fit_peak(x_, y)
        assert (got.center_ps, got.sigma_ps) == (want.center_ps, want.sigma_ps)
    assert want.sigma_ps == X[1] - X[0] and want.center_ps == 0.0


# ---------------------------------------------------------------------------
# bit identity with the full-length evaluation
#
# The reference below evaluates every peak on every bin, three times per
# accepted step, and rebuilds the normal matrix for the covariance: the
# solver as a plain loop over one fit.  Every fit must agree with it bit
# for bit.

def _full_model(x, params):
    y = params[0]
    for i in range(1, len(params), 3):
        amp, mu, sigma = params[i:i + 3]
        z = (x - mu) / sigma
        y = y + amp * np.exp(-0.5 * z * z)
    return y


def _full_jacobian(x, params):
    jac = np.empty((len(x), len(params)))
    jac[:, 0] = 1.0
    for i in range(1, len(params), 3):
        amp, mu, sigma = params[i:i + 3]
        z = (x - mu) / sigma
        e = np.exp(-0.5 * z * z)
        jac[:, i] = e
        jac[:, i + 1] = amp * e * z / sigma
        jac[:, i + 2] = amp * e * z * z / sigma
    return jac


def _full_covariance(jac, weights):
    normal = jac.T @ (jac * weights[:, None])
    vals, vecs = np.linalg.eigh(normal)
    tol = max(vals.max(), 0.0) * 1e-12
    good = vals > tol
    inv_vals = np.zeros_like(vals)
    inv_vals[good] = 1.0 / vals[good]
    cov = (vecs * inv_vals) @ vecs.T
    if not good.all():
        null_weight = (vecs[:, ~good] ** 2).sum(axis=1)
        dead = null_weight > 1e-12
        cov[dead, :] = np.inf
        cov[:, dead] = np.inf
        np.fill_diagonal(cov, np.where(dead, np.inf, np.diag(cov)))
    return cov


def _full_levmar(x, y, weights, p0, *, lower, upper):
    """(params, covariance, chi2, iterations, None); the reference has no
    stop reasons."""
    p = np.clip(np.array(p0, dtype=np.float64), lower, upper)

    def chi2_of(params):
        r = y - _full_model(x, params)
        return float(np.sum(weights * r * r))

    chi2 = chi2_of(p)
    if not np.isfinite(chi2):
        raise FitError("seed parameters give non-finite chi^2", last_estimate=p)
    lam = peakfit.LAMBDA_START
    normal = grad = None
    converged = False
    it = 0
    while it < peakfit.MAX_ITERATIONS:
        it += 1
        if normal is None:
            jac = _full_jacobian(x, p)
            r = y - _full_model(x, p)
            jw = jac * weights[:, None]
            normal = jac.T @ jw
            grad = jw.T @ r
        damp = np.diag(normal).copy()
        floor = 1e-12 * max(damp.max(), 1.0)
        damp[damp < floor] = floor
        try:
            step = np.linalg.solve(normal + lam * np.diag(damp), grad)
        except np.linalg.LinAlgError:
            lam *= 10.0
            if lam > peakfit.LAMBDA_MAX:
                raise FitError("normal equations singular", last_estimate=p,
                               n_iterations=it)
            continue
        p_new = np.clip(p + step, lower, upper)
        chi2_new = chi2_of(p_new)
        if np.isfinite(chi2_new) and chi2_new <= chi2:
            moved = np.abs(p_new - p) / np.maximum(np.abs(p_new), 1e-30)
            gain = chi2 - chi2_new
            stalled = gain <= peakfit.REL_CHI2_TOL * max(chi2, 1e-300)
            p, chi2 = p_new, chi2_new
            normal = grad = None
            lam = max(lam / 10.0, 1e-12)
            if moved.max() < peakfit.REL_STEP_TOL or stalled:
                converged = True
                break
        else:
            lam *= 10.0
            if lam > peakfit.LAMBDA_MAX:
                predicted = abs(float(grad @ step))
                if predicted <= 1e-10 * max(chi2, 1e-300):
                    converged = True
                    break
                raise FitError("fit stalled before converging",
                               last_estimate=p, n_iterations=it)
    if not converged:
        raise FitError(
            f"fit did not converge in {peakfit.MAX_ITERATIONS} iterations",
            last_estimate=p, n_iterations=it)
    return p, _full_covariance(_full_jacobian(x, p), weights), chi2, it, None


def _full_levmar_each(x, y, weights, p0, *, lower, upper):
    """The reference in the solver's batched form: one ``_full_levmar``
    per row, its FitError returned, not raised."""
    return [_outcome(_full_levmar, (x, *row[:3]),
                     dict(lower=row[3], upper=row[4]))
            for row in zip(y, weights, p0, lower, upper)]


CONVERGED = {"relative_step", "chi2_stall", "predicted_decrease"}
SOLVER_FAILED = {"max_iterations", "stalled", "singular", "non_finite_seed"}


def _fit_cases():
    """About 200 seeded fits (function, args, kwargs): one and two peaks,
    grids of 201 to 2800 bins in any order, weights (some negative, -0.0
    or infinite), center bounds, normalized histograms, collapsed peaks
    that fail, non-finite data and merged peaks."""
    rng = np.random.default_rng(2468)
    cases = []
    for k in range(196):
        n = (201, 934, 2800)[k % 3]
        bw = 50_000.0 / n
        window = n * bw / 2
        x = -window + bw * (np.arange(n) + 0.5)
        two = k % 4 == 3
        truth = [rng.choice([0.0, 0.4, 3.0, 60.0]), rng.uniform(5, 600),
                 rng.uniform(-8000, 8000), 10 ** rng.uniform(0.3, 3.2)]
        if two:
            truth += [rng.uniform(0, 400), truth[2] + rng.uniform(-9000, 9000),
                      10 ** rng.uniform(0.8, 3.0)]
        counts = rng.poisson(_full_model(x, np.array(truth))).astype(np.int64)
        if k % 4 in (1, 2, 3):
            hist = DeltaHistogram(0, 1, window, bw, counts, int(counts.sum()))
            if k % 4 == 2 or (two and k % 8 == 7):
                try:
                    hist = normalize_histogram(hist)
                except DataError:
                    pass
            if two:
                cases.append((fit_two_peaks, (hist, rng.uniform(300, 9000)),
                              {}))
            else:
                cases.append((fit_gaussian, (hist,), {}))
            continue
        y = counts.astype(np.float64)
        kwargs = {}
        if rng.random() < 0.4:
            kwargs["weights"] = 10 ** rng.uniform(-2, 2, n)
        if rng.random() < 0.3:
            kwargs["center_bounds"] = tuple(
                sorted(truth[2] + rng.uniform(-1500, 1500, 2)))
        order = (slice(None), slice(None, None, -1),
                 rng.permutation(n))[int(rng.integers(3))]
        if "weights" in kwargs:
            kwargs["weights"] = kwargs["weights"][order]
        cases.append((fit_peak, (x[order], y[order]), kwargs))
    noisy = np.random.default_rng(1).poisson(
        _full_model(X, np.array([30.0, 200.0, 0.0, 300.0]))).astype(float)
    for bad in (np.nan, np.inf, -np.inf):
        cases.append((fit_peak, (X, np.where(X == 0.0, bad, noisy)), {}))
    cases.append((fit_peak, (X, noisy), {"weights": np.full(len(X), 1e306)}))
    # weights for which 0.0 * w is not +0.0 (J * W then needs every bin)
    for odd in (-1.0, -0.0, np.inf):
        cases.append((fit_peak, (X, noisy),
                      {"weights": np.where(X < -6000.0, odd, 1.0)}))
    merged = np.random.default_rng(9).poisson(_full_model(X, np.array(
        [80.0, 800.0, -450.0, 300.0, 700.0, 450.0, 300.0])))
    cases.append((fit_two_peaks, (hist_from_counts(merged), 900.0), {}))
    return cases


def _outcome(func, args, kwargs):
    try:
        return func(*args, **kwargs)
    except FitError as exc:
        return exc


def _params(fit):
    if isinstance(fit, GaussianFit):
        return np.array([fit.bg, fit.amplitude, fit.center_ps, fit.sigma_ps])
    return np.array([fit.bg, *fit.near._params, *fit.far._params])


@pytest.fixture(scope="module")
def reference_outcomes():
    """Every case of ``_fit_cases`` through the full-length reference."""
    with pytest.MonkeyPatch.context() as m, np.errstate(all="ignore"):
        m.setattr(peakfit, "_levmar", _full_levmar_each)
        m.setattr(peakfit, "gauss_model", _full_model)
        return [_outcome(*case) for case in _fit_cases()]


def _assert_matches_reference(new, ref):
    """Each outcome equals the reference's bit for bit; returns the stop
    reasons seen."""
    seen = set()
    for got, want in zip(new, ref, strict=True):
        if isinstance(want, FitError):
            assert isinstance(got, FitError)
            assert str(got) == str(want)
            assert got.n_iterations == want.n_iterations
            if want.last_estimate is None:
                assert got.last_estimate is None
            else:
                assert np.array_equal(got.last_estimate, want.last_estimate,
                                      equal_nan=True)
            seen.add(got.reason)
            continue
        assert not isinstance(got, FitError), str(got)
        assert np.array_equal(_params(got), _params(want))
        assert np.array_equal(got.covariance, want.covariance, equal_nan=True)
        assert got.chi2 == want.chi2
        assert got.n_iterations == want.n_iterations
        got_doc, want_doc = got.to_json_dict(), want.to_json_dict()
        assert got_doc.pop("stop_reason") in CONVERGED | {"flat_data"}
        assert want_doc.pop("stop_reason") is None
        assert repr(got_doc) == repr(want_doc)
        seen.add(got.stop_reason)
    return seen


def test_fits_are_bit_identical_to_full_length_evaluation(reference_outcomes):
    with np.errstate(all="ignore"):
        new = [_outcome(*case) for case in _fit_cases()]
    seen = _assert_matches_reference(new, reference_outcomes)
    # the corpus reaches the solver's common endings on both sides
    assert {"relative_step", "chi2_stall", "max_iterations",
            "non_finite_seed", "merged_peaks"} <= seen


def _batch_row(func, args, kwargs):
    """(kind, x, y, weights, extra) of one case, as its fit function hands
    it to the batched core: extra is the center box or the hint."""
    if func is fit_peak:
        x, y = args
        weights = kwargs.get("weights", 1.0 / np.maximum(y, 1.0))
        box = kwargs.get("center_bounds", (-np.inf, np.inf))
        return "one", x, y, weights, box
    x, y, weights = peakfit._fit_arrays(args[0])
    if func is fit_gaussian:
        return "one", x, y, weights, (-np.inf, np.inf)
    return "two", x, y, weights, args[1]


@pytest.mark.parametrize("block", [peakfit.BLOCK_BINS // 2800, 4, "all"])
def test_batches_on_one_grid_equal_the_reference(monkeypatch,
                                                 reference_outcomes, block):
    # The cases grouped by model and grid, each group fitted as one batch,
    # so fits of every ending share the solver's passes and blocks: blocks
    # of the default budget of bins, blocks of 4 fits (many of them), or
    # one block holding every fit of the group.
    cases = _fit_cases()
    groups = {}
    for k, case in enumerate(cases):
        kind, x, *_ = row = _batch_row(*case)
        groups.setdefault((kind, x.tobytes()), []).append((k, row))
    new = [None] * len(cases)
    with np.errstate(all="ignore"):
        for (kind, _grid), members in groups.items():
            ks, rows = zip(*members)
            x = rows[0][1]
            if block != peakfit.BLOCK_BINS // 2800:
                fits = len(members) if block == "all" else block
                monkeypatch.setattr(peakfit, "BLOCK_BINS", fits * len(x))
            y = np.array([row[2] for row in rows])
            weights = np.array([row[3] for row in rows])
            extra = [row[4] for row in rows]
            fits = peakfit._single_peak_fits(x, y, weights, extra) \
                if kind == "one" else peakfit._two_peak_fits(x, y, weights,
                                                             extra)
            for k, fit in zip(ks, fits):
                new[k] = fit
        solo = [_outcome(*case) for case in cases]
    assert max(len(m) for m in groups.values()) > 4
    seen = _assert_matches_reference(new, reference_outcomes)
    assert {"relative_step", "chi2_stall", "max_iterations",
            "non_finite_seed", "merged_peaks"} <= seen
    # the reference names no reasons: the solo fits do
    for got, alone in zip(new, solo):
        assert type(got) is type(alone)
        assert (got.reason == alone.reason if isinstance(got, FitError)
                else got.stop_reason == alone.stop_reason)


def test_the_core_weighs_by_the_one_count_variance_rule(monkeypatch):
    # Without weights the batched core fits 1 / max(count, 1), which
    # fit_peak, offsets' cuts and the pooled cross-talk fit rely on, and a
    # histogram's weights come from the same variance.
    x = np.arange(60.0)
    rng = np.random.default_rng(8)
    y = rng.poisson(3.0 + 40.0 * np.exp(-0.5 * ((x - 30.0) / 3.0) ** 2),
                    (3, 60)).astype(np.float64)
    y[2, :] = 0.0
    y[2, 29:32] = [2.0, 0.5, 3.0]
    rule = 1.0 / np.maximum(y, 1.0)
    seen = []
    levmar = peakfit._levmar

    def spy(x, y, weights, *args, **kwargs):
        seen.append(weights)
        return levmar(x, y, weights, *args, **kwargs)

    monkeypatch.setattr(peakfit, "_levmar", spy)
    defaulted = peakfit._single_peak_fits(x, y)
    assert np.array_equal(seen[0], rule)
    assert repr(defaulted) == repr(peakfit._single_peak_fits(x, y, rule))
    assert repr(fit_peak(x, y[0])) == repr(fit_peak(x, y[0],
                                                    weights=rule[0]))
    counts = y[0].astype(np.int64)
    hist = DeltaHistogram(0, 1, 30.0, 1.0, counts, int(counts.sum()))
    assert np.array_equal(peakfit._fit_arrays(hist)[2], rule[0])
    normed = normalize_histogram(hist)
    assert np.array_equal(peakfit._fit_arrays(normed)[2],
                          normed.median_count ** 2 / np.maximum(y[0], 1.0))


def test_fit_gaussians_equals_fit_gaussian_per_histogram():
    rng = np.random.default_rng(14)
    hists = [hist_from_counts(rng.poisson(gauss_model(X, np.array(
        [rng.uniform(1, 50), rng.uniform(0, 300), rng.uniform(-3000, 3000),
         rng.uniform(30, 800)])))) for _ in range(40)]
    hists += [hist_from_counts(np.zeros(201)), hist_from_counts(np.full(201, 4)),
              normalize_histogram(hists[0])]
    batch = peakfit.fit_gaussians(hists)
    for hist, got in zip(hists, batch, strict=True):
        want = _outcome(fit_gaussian, (hist,), {})
        assert type(got) is type(want)
        if isinstance(want, FitError):
            assert (str(got), got.reason) == (str(want), want.reason)
        else:
            assert np.array_equal(got.covariance, want.covariance)
            assert got.to_json_dict() == want.to_json_dict()
    assert peakfit.fit_gaussians([]) == []
    other = DeltaHistogram(0, 1, 5_025.0, 50.0, np.ones(201, dtype=np.int64),
                           201)
    with pytest.raises(ValueError, match="one grid"):
        peakfit.fit_gaussians([hists[0], other])


HUGE_AMPLITUDE_STEP = np.array([0.0, 1e300, 0.0, 0.0])


@pytest.mark.parametrize("solve, reason", [
    # no downhill step, and the gradient is exactly zero
    ("huge_amplitude_step_at_optimum", "predicted_decrease"),
    # no downhill step away from the optimum
    ("huge_amplitude_step", "stalled"),
    ("raise", "singular"),
])
def test_rare_solver_endings_match_full_length_evaluation(monkeypatch, solve,
                                                          reason):
    # Natural fits almost never end in these branches, so the linear solve
    # is replaced, identically for both solvers: the reference solves one
    # 2-D system, the batched solver a stack of one.
    truth = np.array([30.0, 200.0, 0.0, 300.0])
    y = gauss_model(X, truth)
    if solve != "huge_amplitude_step_at_optimum":
        y = np.random.default_rng(3).poisson(y).astype(float)

    def patched(a, b):
        if solve == "raise":
            raise np.linalg.LinAlgError("singular matrix")
        step = HUGE_AMPLITUDE_STEP
        return step if b.ndim == 1 else np.broadcast_to(
            step[:, None], b.shape).copy()

    monkeypatch.setattr(np.linalg, "solve", patched)
    args = (X, y, np.ones_like(X), truth)
    bounds = dict(lower=np.full(4, -np.inf), upper=np.full(4, np.inf))
    with np.errstate(all="ignore"):
        got, = peakfit._levmar(*(a[None] if a is not X else a for a in args),
                               **{k: v[None] for k, v in bounds.items()})
        want = _outcome(_full_levmar, args, bounds)
    if reason in CONVERGED:
        assert got[4] == reason
        for a, b in zip(got[:4], want[:4]):
            assert np.array_equal(a, b)
    else:
        assert got.reason == reason
        assert str(got) == str(want)
        assert got.n_iterations == want.n_iterations
        assert np.array_equal(got.last_estimate, want.last_estimate)


def test_rare_endings_in_a_batch_leave_their_neighbors_alone(monkeypatch):
    # One batch: three fits that converge, and three that end singular,
    # stalled and with a non-finite seed.  A stacked solve raises for the
    # whole stack when one system is singular; the fits around it must
    # still come out as they do alone.  The solve is replaced: a system
    # whose (background, amplitude) entry, sum(w * exp(-z^2 / 2)), is
    # below 1e-150 (weights of 1e-200) is singular, one above 1e150
    # (weights of 1e160) gets a huge amplitude step; every other system is
    # solved as before.
    real_solve = np.linalg.solve

    def patched(a, b):
        marker = np.abs(a[..., 0, 1])
        if (marker < 1e-150).any():
            raise np.linalg.LinAlgError("singular matrix")
        x = real_solve(a, b)
        if b.ndim == 1:
            return HUGE_AMPLITUDE_STEP if marker > 1e150 else x
        x[marker > 1e150] = HUGE_AMPLITUDE_STEP[:, None]
        return x

    monkeypatch.setattr(np.linalg, "solve", patched)
    rng = np.random.default_rng(15)
    y = rng.poisson(gauss_model(X, np.array([30.0, 200.0, 0.0, 300.0])),
                    size=(6, len(X))).astype(float)
    weights = 1.0 / np.maximum(y, 1.0)
    weights[1] = 1e-200
    weights[3] = 1e160
    y[4, 100] = np.nan
    with np.errstate(all="ignore"):
        batch = peakfit._single_peak_fits(X, y, weights)
        alone = [_outcome(fit_peak, (X, y_k), {"weights": w_k})
                 for y_k, w_k in zip(y, weights)]
    assert [getattr(f, "reason", None) for f in batch] == [
        None, "singular", None, "stalled", "non_finite_seed", None]
    for got, want in zip(batch, alone):
        assert type(got) is type(want)
        if isinstance(want, FitError):
            assert (str(got), got.reason, got.n_iterations) \
                == (str(want), want.reason, want.n_iterations)
            assert np.array_equal(got.last_estimate, want.last_estimate,
                                  equal_nan=True)
            continue
        assert got.stop_reason in CONVERGED
        assert np.array_equal(_params(got), _params(want))
        assert np.array_equal(got.covariance, want.covariance)
        assert (got.chi2, got.n_iterations, got.stop_reason) \
            == (want.chi2, want.n_iterations, want.stop_reason)


def _assert_levmar_matches_reference(x, y, p0):
    """One batch through ``_levmar`` equals the full-length reference per
    fit, bit for bit."""
    weights = 1.0 / np.maximum(y, 1.0)
    bounds = dict(lower=np.full_like(p0, -np.inf),
                  upper=np.full_like(p0, np.inf))
    got = peakfit._levmar(x, y, weights, p0, **bounds)
    want = _full_levmar_each(x, y, weights, p0, **bounds)
    for (params, cov, chi2, iterations, reason), ref in zip(got, want,
                                                           strict=True):
        assert not isinstance(ref, FitError) and reason in CONVERGED
        assert np.array_equal(params, ref[0])
        assert np.array_equal(cov, ref[1], equal_nan=True)
        assert (chi2, iterations) == (ref[2], ref[3])


def test_two_peak_fits_in_blocks_of_one_match_the_reference(monkeypatch):
    # Two-peak fits, one per block.  The second peak of the first fit is
    # 60 ps wide, that of the second 12 ps; the third fit's second peak
    # starts 100 ps wide and narrows to 12 ps.
    x = np.linspace(-1000.0, 1000.0, 201)
    monkeypatch.setattr(peakfit, "BLOCK_BINS", len(x))
    truth = np.array([[5.0, 200.0, -300.0, 15.0, 150.0, 0.0, 60.0],
                      [5.0, 200.0, -300.0, 15.0, 150.0, 400.0, 12.0],
                      [5.0, 200.0, -300.0, 15.0, 150.0, 350.0, 12.0]])
    rng = np.random.default_rng(31)
    y = np.array([rng.poisson(_full_model(x, p)) for p in truth],
                 dtype=np.float64)
    p0 = truth * [1.0, 0.75, 0.97, 1.0, 0.8, 1.0, 1.0] + [0, 0, 0, 0, 0, 5, 0]
    p0[2, 6] = 100.0
    _assert_levmar_matches_reference(x, y, p0)


def test_a_peak_wider_than_the_grid_matches_the_reference_in_any_order():
    # A peak that is non-zero on every bin, on the grid and on the same
    # grid permuted.
    rng = np.random.default_rng(32)
    truth = np.array([5.0, 200.0, 40.0, 300.0])
    p0 = np.tile([4.0, 150.0, 90.0, 400.0], (2, 1))
    for x in (X, rng.permutation(X)):
        y = rng.poisson(_full_model(x, truth),
                        size=(2, len(x))).astype(np.float64)
        _assert_levmar_matches_reference(x, y, p0)


TDC_BIN_PS = 2500 / 140  # the default sensor's bin: a box of 7 bins


@pytest.mark.parametrize("n_rows, n_bins, bin_width", [
    (4, 1, TDC_BIN_PS),      # grids narrower than the box
    (4, 3, TDC_BIN_PS),
    (2, 7, TDC_BIN_PS),      # exactly one box wide
    (4, 8, TDC_BIN_PS),
    (3, 40, 100.0),          # half = round(0.5) = 0: one bin per box
    (3, 40, 200.0),
    (3, 40, 5.0),            # a box of 21 bins
    (255, 2800, TDC_BIN_PS),  # measure_offsets' rows of a whole window
    (1, 2800, TDC_BIN_PS),    # a single row
])
def test_box_peaks_equal_the_gathered_boxes(n_rows, n_bins, bin_width):
    rng = np.random.default_rng(n_rows * n_bins)
    counts = rng.poisson(0.5, (n_rows, n_bins))
    counts[0] = 0  # every box ties
    tied = n_rows > 2 and n_bins > 1
    if tied:  # a flat row: every whole box ties
        counts[1] = 1
    cum = peakfit._cumulative(counts)
    boxes = gathered_boxes(cum, bin_width)
    got = peakfit._box_peaks(cum, bin_width)
    # the first of the tied boxes wins
    assert np.array_equal(got, np.argmax(boxes, axis=1))
    assert got[0] == 0
    if tied:
        assert np.count_nonzero(boxes[1] == boxes[1].max()) > 1


def test_stacked_covariances_take_the_per_fit_path_when_rank_deficient():
    # Normal matrices of Jacobians with a dead column, two equal columns,
    # no weight at all and a direction below the eigenvalue cut, stacked
    # between full-rank ones: each comes out as it does alone, the
    # unconstrained directions infinite.
    rng = np.random.default_rng(21)
    jacs = [rng.normal(size=(81, 4)) for _ in range(6)]
    jacs[1][:, 2] = 0.0
    jacs[2][:, 3] = jacs[2][:, 1]
    jacs[3][:] = 0.0
    jacs[4][:, 0] *= 1e-9
    normals = np.array([j.T @ j for j in jacs])
    got = peakfit._covariances(normals)
    for k, normal in enumerate(normals):
        np.testing.assert_array_equal(
            got[k], peakfit._gauss_newton_covariance(normal))
    assert [bool(np.isinf(c).any()) for c in got] == [
        False, True, True, True, True, False]


def test_fit_gaussians_memory_is_that_of_a_solver_block():
    # 255 histograms of 2,800 bins, as a full-window scan fits them: the
    # peak is the data and weights of every fit, the two Jacobian blocks
    # and the trial arrays of a block (21.6 MB with numpy 2.4.6).  Seeds
    # taken over every row at once add copies of the data and break the
    # bound.
    n, fits = 2800, 255
    x = -25_000.0 + 50_000.0 / n * (np.arange(n) + 0.5)
    rng = np.random.default_rng(8)
    hists = [DeltaHistogram(k, k + 1, 25_000.0, 50_000.0 / n, row,
                            int(row.sum()))
             for k, row in enumerate(rng.poisson(gauss_model(x, np.array(
                 [3.0, 200.0, rng.uniform(-5000, 5000), 63.0])), (fits, n)))]
    peakfit.fit_gaussians(hists[:2])
    result, peak = traced_peak(lambda: peakfit.fit_gaussians(hists))
    assert len(result) == fits
    block = peakfit.BLOCK_BINS // n * n * 8
    data = fits * n * 8
    assert peak <= 2 * data + 2 * 4 * block + 8 * block, peak / 1e6


EVALUATOR_GRIDS = {
    "ascending": X,
    "descending": X[::-1],
    "unsorted": np.random.default_rng(12).permutation(X),
    "with duplicates": np.sort(np.concatenate([X, X[::7]])),
    "with nan": np.where(X == 500.0, np.nan, X),
}
EVALUATOR_PARAMS = {
    "one peak": [12.0, 80.0, -950.0, 420.0],
    "two peaks": [5.0, 60.0, -120.0, 210.0, -35.0, 4900.0, 330.0],
    "center outside the grid": [3.0, 50.0, 1e6, 200.0],
    "center on the edge": [3.0, 50.0, -10_000.0, 150.0],
    "negative sigma": [3.0, 50.0, 700.0, -150.0],
    "sigma below one bin": [3.0, 50.0, 700.0, 1e-9],
    "tiny sigma": [3.0, 50.0, 700.0, 1e-300],
    "subnormal sigma": [3.0, 50.0, 700.0, 5e-324],
    "zero sigma": [3.0, 50.0, 700.0, 0.0],
    "huge sigma": [3.0, 50.0, 700.0, 1e300],
    "overflowing reach": [3.0, 50.0, 700.0, 1e308],
    "negative amplitude": [3.0, -50.0, 700.0, 150.0],
    "nan amplitude": [3.0, np.nan, 700.0, 150.0],
    "inf amplitude": [3.0, np.inf, 700.0, 150.0],
    "nan center": [3.0, 50.0, np.nan, 150.0],
    "inf center": [3.0, 50.0, -np.inf, 150.0],
    "nan sigma": [3.0, 50.0, 700.0, np.nan],
    "inf sigma": [3.0, 50.0, 700.0, np.inf],
    "nan background": [np.nan, 50.0, 700.0, 150.0],
}


@pytest.mark.parametrize("grid", EVALUATOR_GRIDS)
@pytest.mark.parametrize("params", EVALUATOR_PARAMS)
def test_evaluator_equals_full_length_evaluation(grid, params):
    x = EVALUATOR_GRIDS[grid]
    p = np.array(EVALUATOR_PARAMS[params])
    with np.errstate(all="ignore"):
        np.testing.assert_array_equal(gauss_model(x, p), _full_model(x, p))
        np.testing.assert_array_equal(gauss_jacobian(x, p),
                                      _full_jacobian(x, p))
