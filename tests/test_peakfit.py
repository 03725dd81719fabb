"""Peak fitting: exact recovery, error propagation, significance logic."""

from __future__ import annotations

import numpy as np
import pytest

from spadkit import DataError, FitError
from spadkit.coincidence import DeltaHistogram, normalize_histogram
from spadkit.peakfit import (
    GaussianFit,
    fit_gaussian,
    fit_peak,
    fit_two_peaks,
    gauss_jacobian,
    gauss_model,
    two_gauss_jacobian,
    two_gauss_model,
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
    _check_jacobian(two_gauss_model, two_gauss_jacobian,
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
    return rng.poisson(two_gauss_model(X, p))


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
