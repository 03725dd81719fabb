"""Gaussian peak fitting on coincidence histograms.

One model serves every fit: a flat background plus N Gaussian peaks,

    f(dt) = bg + sum_k A_k * exp(-(dt - mu_k)^2 / (2 sigma_k^2))

with the parameter vector laid out as (bg, A1, mu1, s1, A2, mu2, s2, ...).
``fit_peak``/``fit_gaussian`` fit N = 1 (one peak per adjacent-pixel
cross-talk histogram), ``fit_two_peaks`` fits N = 2 (cross-talk and
bunching peaks on one histogram).  Only this module knows the layout: a
fit result evaluates itself (``model``) and names itself (the ``kind`` in
``to_json_dict``).

The solver is a damped Gauss-Newton iteration (Levenberg-Marquardt
flavor): the normal equations get a multiplicative damping term that
grows tenfold whenever a step fails to reduce chi^2 and shrinks tenfold
on success.  Residuals carry Poisson weights 1 / max(count, 1) in raw
count units; normalized histograms rescale the same weights.  No external
optimizer is involved, so results are deterministic across platforms.

Each trial parameter vector is evaluated once: the accepted trial's
residual and per-peak exp(-z^2 / 2) then give the Jacobian, and the last
normal matrix gives the covariance.  A peak is evaluated only on its
support, |x - mu| <= 40 |sigma|; beyond |z| ~ 38.6 the exponential is
exactly 0.0 in float64, so the full-length model and Jacobian (the
Jacobian kept in its (n, p) layout) equal an evaluation over every bin,
bit for bit.

Every fit says why it stopped (``stop_reason`` on the result, ``reason``
on ``FitError``).  The solver converges on "relative_step" (no parameter
moved by more than 1e-8 of itself), "chi2_stall" (chi^2 gained less than
1e-10 of itself) or "predicted_decrease" (no downhill step left, and the
step predicted a negligible decrease); it fails on "max_iterations",
"stalled" (no downhill step left elsewhere), "singular" (normal equations
unsolvable at any damping) or "non_finite_seed".  Around the solver,
exactly flat data gives "flat_data" (no peak, or a FitError for two
peaks), an all-zero histogram "empty_histogram", and two peaks closer
than their widths allow "merged_peaks".

Peak significance is a property of the result, not an error: a fitted
contrast smaller than three times its own uncertainty yields a regular
fit object with ``significant == False``.  When the background itself is
consistent with zero the contrast ratio carries no information (its
uncertainty diverges), so the decision falls back to the amplitude
against its own error.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .coincidence import DeltaHistogram
from .errors import FitError

MAX_ITERATIONS = 200
REL_STEP_TOL = 1e-8
REL_CHI2_TOL = 1e-10
LAMBDA_START = 1e-3
LAMBDA_MAX = 1e12
SIGNIFICANCE_SIGMAS = 3.0
# A peak is evaluated where |x - mu| <= SUPPORT_SIGMAS * |sigma|.
SUPPORT_SIGMAS = 40.0

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# model

class _Gaussians:
    """The model's peaks on one grid ``x``, each evaluated on its support.

    exp(-z^2 / 2) underflows to exactly 0.0 in float64 beyond |z| ~ 38.6,
    so a peak is evaluated only where |x - mu| <= 40 |sigma| and the
    full-length model and Jacobian hold exact zeros everywhere else: the
    same numbers as an evaluation over every point.  One stable
    ``argsort`` of ``x`` makes each support one run of the sorted grid,
    whatever order ``x`` comes in.  A peak with a non-finite amplitude, or
    whose z is not finite at an end of the grid (a non-finite center or
    width, sigma == 0, overflow, a NaN in ``x``), is evaluated everywhere.
    """

    def __init__(self, x):
        x = np.asarray(x)
        self.n = len(x)
        self.order = np.argsort(x, kind="stable")
        self.sorted = x[self.order]
        self.ends = (float(self.sorted[0]), float(self.sorted[-1])) \
            if self.n else (0.0, 0.0)

    def _support(self, amp, mu, sigma) -> tuple[int, int]:
        amp, mu, sigma = float(amp), float(mu), float(sigma)
        first, last = self.ends
        if not (math.isfinite(amp) and sigma != 0.0
                and math.isfinite((first - mu) / sigma)
                and math.isfinite((last - mu) / sigma)):
            return 0, self.n
        reach = SUPPORT_SIGMAS * abs(sigma)
        return (int(np.searchsorted(self.sorted, mu - reach, side="left")),
                int(np.searchsorted(self.sorted, mu + reach, side="right")))

    def peaks(self, params) -> list:
        """``(where, z, exp(-z^2 / 2))`` of each peak on its support."""
        out = []
        for i in range(1, len(params), 3):
            amp, mu, sigma = params[i:i + 3]
            lo, hi = self._support(amp, mu, sigma)
            z = (self.sorted[lo:hi] - mu) / sigma
            out.append((self.order[lo:hi], z, np.exp(-0.5 * z * z)))
        return out

    def model(self, params, peaks) -> np.ndarray:
        y = np.full(self.n, params[0])
        for amp, (where, _z, e) in zip(params[1::3], peaks):
            y[where] += amp * e
        return y

    def jacobian(self, params, peaks) -> np.ndarray:
        """d model / d params, shape (n, len(params)), without any ``exp``."""
        jac = np.zeros((self.n, len(params)))
        jac[:, 0] = 1.0
        for i, (where, z, e) in zip(range(1, len(params), 3), peaks):
            amp, sigma = params[i], params[i + 2]
            aez = amp * e * z
            jac[where, i] = e
            jac[where, i + 1] = aez / sigma
            jac[where, i + 2] = aez * z / sigma
        return jac


def gauss_model(x: np.ndarray, params: np.ndarray) -> np.ndarray:
    """Flat background plus one Gaussian per (amp, mu, sigma) triple."""
    params = np.asarray(params, dtype=np.float64)
    g = _Gaussians(x)
    return g.model(params, g.peaks(params))


def gauss_jacobian(x: np.ndarray, params: np.ndarray) -> np.ndarray:
    """Analytic d model / d params, shape (n, len(params))."""
    params = np.asarray(params, dtype=np.float64)
    g = _Gaussians(x)
    return g.jacobian(params, g.peaks(params))


# ---------------------------------------------------------------------------
# results

@dataclass(frozen=True)
class PeakComponent:
    """One fitted Gaussian: its parameter triple, errors and contrast."""

    amplitude: float
    center_ps: float
    sigma_ps: float
    amplitude_err: float
    center_err_ps: float
    sigma_err_ps: float
    contrast: float
    contrast_err: float
    significant: bool

    @property
    def _params(self) -> tuple[float, float, float]:
        return self.amplitude, self.center_ps, self.sigma_ps

    def to_json_dict(self) -> dict:
        return {
            "amplitude": self.amplitude, "amplitude_err": self.amplitude_err,
            "center_ps": self.center_ps, "center_err_ps": self.center_err_ps,
            "sigma_ps": self.sigma_ps, "sigma_err_ps": self.sigma_err_ps,
            "contrast": self.contrast, "contrast_err": self.contrast_err,
            "significant": self.significant,
        }


@dataclass(frozen=True, kw_only=True)
class GaussianFit(PeakComponent):
    """Single-peak fit: the peak plus background and fit statistics."""

    bg: float
    bg_err: float
    chi2: float
    dof: int
    n_iterations: int
    stop_reason: str
    covariance: np.ndarray

    def model(self, x: np.ndarray) -> np.ndarray:
        return gauss_model(x, np.array([self.bg, *self._params]))

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION, "kind": "gaussian_fit",
            "bg": self.bg, "bg_err": self.bg_err,
            **super().to_json_dict(),
            "chi2": self.chi2, "dof": self.dof,
            "n_iterations": self.n_iterations,
            "stop_reason": self.stop_reason,
        }


@dataclass(frozen=True)
class TwoPeakFit:
    """Joint two-Gaussian fit with shared background.

    ``near`` is the component whose center sits closer to dt = 0 (the
    cross-talk peak in a combined scan); ``far`` is the other one.
    """

    bg: float
    bg_err: float
    near: PeakComponent
    far: PeakComponent
    separation_ps: float
    separation_err_ps: float
    chi2: float
    dof: int
    n_iterations: int
    stop_reason: str
    covariance: np.ndarray

    def model(self, x: np.ndarray) -> np.ndarray:
        return gauss_model(
            x, np.array([self.bg, *self.near._params, *self.far._params]))

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION, "kind": "two_peak_fit",
            "bg": self.bg, "bg_err": self.bg_err,
            "near_peak": self.near.to_json_dict(),
            "far_peak": self.far.to_json_dict(),
            "separation_ps": self.separation_ps,
            "separation_err_ps": self.separation_err_ps,
            "chi2": self.chi2, "dof": self.dof,
            "n_iterations": self.n_iterations,
            "stop_reason": self.stop_reason,
        }


# ---------------------------------------------------------------------------
# solver

def _levmar(x, y, weights, p0, *, lower, upper):
    """Damped Gauss-Newton least squares with box projection.

    Returns (params, covariance, chi2, iterations, stop reason).  Raises
    FitError on non-convergence, carrying the last iterate and the reason.
    Each trial evaluates the peaks once; an accepted trial's residual and
    peak values then give the Jacobian without another ``exp``.
    """
    p = np.array(p0, dtype=np.float64)
    p = np.clip(p, lower, upper)
    gaussians = _Gaussians(x)
    # J * weights[:, None] would broadcast along J's rows of 4 or 7
    # columns, one short inner loop per bin; a full (n, p) copy of the
    # weights makes J * W one flat multiply (about a tenth of the fit time).
    w_cols = np.repeat(weights[:, None], len(p), axis=1)

    def trial(params):
        peaks = gaussians.peaks(params)
        r = y - gaussians.model(params, peaks)
        return float(np.sum(weights * r * r)), r, peaks

    def failed(message, reason):
        return FitError(message, last_estimate=p, reason=reason)

    chi2, r, peaks = trial(p)
    if not np.isfinite(chi2):
        raise failed("seed parameters give non-finite chi^2", "non_finite_seed")

    lam = LAMBDA_START
    normal = grad = None
    reason = None
    it = 0
    while it < MAX_ITERATIONS:
        it += 1
        if normal is None:
            normal, grad = _normal_equations(
                gaussians.jacobian(p, peaks), w_cols, r)
        damp = np.diag(normal).copy()
        floor = 1e-12 * max(damp.max(), 1.0)
        damp[damp < floor] = floor
        try:
            step = np.linalg.solve(normal + lam * np.diag(damp), grad)
        except np.linalg.LinAlgError:
            lam *= 10.0
            if lam > LAMBDA_MAX:
                raise failed("normal equations singular", "singular")
            continue
        p_new = np.clip(p + step, lower, upper)
        chi2_new, r_new, peaks_new = trial(p_new)
        if math.isfinite(chi2_new) and chi2_new <= chi2:
            moved = np.abs(p_new - p) / np.maximum(np.abs(p_new), 1e-30)
            gain = chi2 - chi2_new
            stalled = gain <= REL_CHI2_TOL * max(chi2, 1e-300)
            p, chi2, r, peaks = p_new, chi2_new, r_new, peaks_new
            normal = grad = None
            lam = max(lam / 10.0, 1e-12)
            # The relative-step test alone cannot fire for a parameter
            # heading to zero, so a negligible chi^2 gain also counts as
            # converged.
            if moved.max() < REL_STEP_TOL:
                reason = "relative_step"
            elif stalled:
                reason = "chi2_stall"
            if reason is not None:
                break
        else:
            lam *= 10.0
            if lam > LAMBDA_MAX:
                # No downhill step left.  At a genuine optimum the
                # predicted decrease is negligible; anything else is a
                # real failure.
                predicted = abs(float(grad @ step))
                if predicted <= 1e-10 * max(chi2, 1e-300):
                    reason = "predicted_decrease"
                    break
                raise failed("fit stalled before converging", "stalled")

    if reason is None:
        raise failed(f"fit did not converge in {MAX_ITERATIONS} iterations",
                     "max_iterations")

    if normal is None:
        normal, _ = _normal_equations(gaussians.jacobian(p, peaks), w_cols, r)
    return p, _gauss_newton_covariance(normal), chi2, it, reason


def _normal_equations(jac, w_cols, r):
    """J^T W J and J^T W r, both full length in J's (n, p) layout;
    ``w_cols`` holds the weights once per column of J."""
    jw = jac * w_cols
    return jac.T @ jw, jw.T @ r


def _gauss_newton_covariance(normal):
    """(J^T W J)^-1 via eigendecomposition; unconstrained directions get
    infinite variance instead of crashing on a singular matrix."""
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


def _is_significant(amp, amp_err, bg, bg_err, contrast, contrast_err) -> bool:
    """Peak-detection decision.

    With a resolved background (bg at least three sigma above zero) the
    criterion is contrast >= 3 x its propagated uncertainty.  An
    unresolved background inflates that uncertainty without bound even
    for overwhelming peaks, so the decision then rests on the amplitude
    alone.
    """
    resolved = bg > 0 and np.isfinite(bg_err) \
        and bg >= SIGNIFICANCE_SIGMAS * bg_err
    if resolved and np.isfinite(contrast) and np.isfinite(contrast_err):
        return bool(contrast >= SIGNIFICANCE_SIGMAS * contrast_err)
    return bool(np.isfinite(amp_err) and amp_err > 0
                and amp >= SIGNIFICANCE_SIGMAS * amp_err)


def _contrast_and_error(amp, bg, cov, i_amp, i_bg):
    """A/bg with first-order error propagation including cov(A, bg)."""
    if bg <= 0 or not np.isfinite(bg):
        return np.nan, np.inf
    contrast = amp / bg
    va = cov[i_amp, i_amp]
    vb = cov[i_bg, i_bg]
    cab = cov[i_amp, i_bg]
    if not (np.isfinite(va) and np.isfinite(vb) and np.isfinite(cab)):
        return contrast, np.inf
    var = va / bg**2 + amp**2 * vb / bg**4 - 2.0 * amp * cab / bg**3
    return contrast, float(np.sqrt(max(var, 0.0)))


def _component(p, cov, errs, i) -> PeakComponent:
    """The peak whose (amplitude, center, sigma) sit at ``p[i:i + 3]``;
    ``p[0]`` is the shared background."""
    amp, bg = p[i], p[0]
    contrast, contrast_err = _contrast_and_error(amp, bg, cov, i, 0)
    return PeakComponent(
        amplitude=float(amp), center_ps=float(p[i + 1]),
        sigma_ps=float(abs(p[i + 2])), amplitude_err=float(errs[i]),
        center_err_ps=float(errs[i + 1]), sigma_err_ps=float(errs[i + 2]),
        contrast=float(contrast), contrast_err=float(contrast_err),
        significant=_is_significant(amp, errs[i], bg, errs[0],
                                    contrast, contrast_err))


# ---------------------------------------------------------------------------
# data extraction and seeding

def _fit_arrays(hist: DeltaHistogram):
    """(x, y, weights) in the units the histogram carries.

    Raw counts get Poisson weights 1/max(count, 1); a normalized histogram
    scales both data and weights by the stored median, which leaves the
    chi^2 of any model/data pair unchanged.
    """
    x = hist.bin_centers
    counts = hist.counts.astype(np.float64)
    var_raw = np.maximum(counts, 1.0)
    if hist.normalized is not None:
        y = hist.normalized.astype(np.float64)
        weights = hist.median_count**2 / var_raw
    else:
        y = counts
        weights = 1.0 / var_raw
    return x, y, weights


def _single_peak_seed(x, y):
    """(bg, amp, mu, sigma) seed, the same for any order of the points:
    the argmax tie-break and the FWHM walk run in x's stable ascending
    order."""
    order = np.argsort(x, kind="stable")
    x, y = x[order], y[order]
    bg = float(np.median(y))
    peak = int(np.argmax(y))
    amp = float(y[peak] - bg)
    mu = float(x[peak])
    sigma = _fwhm_sigma(x, y, bg, amp, peak)
    return np.array([bg, amp, mu, sigma])


def _fwhm_sigma(x, y, bg, amp, peak):
    """Sigma seed from the full width at half maximum of the contiguous
    run around the peak bin (stray bins elsewhere must not widen it).
    ``x`` must ascend."""
    spacing = float(x[1] - x[0]) if len(x) > 1 else 1.0
    if amp <= 0:
        return spacing
    half = bg + 0.5 * amp
    i = j = peak
    while i > 0 and y[i - 1] >= half:
        i -= 1
    while j < len(y) - 1 and y[j + 1] >= half:
        j += 1
    fwhm = float(x[j] - x[i]) + spacing
    return max(fwhm / 2.355, spacing / 2.355, 1e-9)


# ---------------------------------------------------------------------------
# public API

def fit_gaussian(hist: DeltaHistogram) -> GaussianFit:
    """Fit one Gaussian peak on a flat background."""
    x, y, weights = _fit_arrays(hist)
    return fit_peak(x, y, weights=weights)


def fit_peak(x, y, *, weights=None,
             center_bounds: tuple[float, float] | None = None) -> GaussianFit:
    """Core single-peak fit on plain arrays (histogram-free entry point).

    ``center_bounds`` boxes the peak position, which stabilizes fits when
    the expected location is known.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if len(x) < 10:
        raise ValueError("need at least 10 bins to fit a peak")
    if weights is None:
        weights = 1.0 / np.maximum(y, 1.0)
    weights = np.asarray(weights, dtype=np.float64)

    if np.ptp(y) == 0.0:
        return _flat_result(x, y, weights)

    p0 = _single_peak_seed(x, y)
    lower = np.array([-np.inf, -np.inf, -np.inf, 1e-9])
    upper = np.full(4, np.inf)
    if center_bounds is not None:
        lower[2], upper[2] = center_bounds
        p0[2] = np.clip(p0[2], lower[2], upper[2])

    p, cov, chi2, it, reason = _levmar(x, y, weights, p0,
                                       lower=lower, upper=upper)
    errs = np.sqrt(np.maximum(np.diag(cov), 0.0))
    return GaussianFit(
        **asdict(_component(p, cov, errs, 1)),
        bg=float(p[0]), bg_err=float(errs[0]), chi2=float(chi2),
        dof=len(x) - 4, n_iterations=it, stop_reason=reason, covariance=cov)


def _flat_result(x, y, weights):
    """Exactly flat data: no peak by construction, never an error.  The
    spacing and the center come from x in ascending order."""
    bg = float(y[0])
    if bg <= 0.0:
        raise FitError("histogram is empty; nothing to fit",
                       reason="empty_histogram")
    x = np.sort(x)
    spacing = float(x[1] - x[0])
    bg_err = float(1.0 / np.sqrt(weights.sum()))
    cov = np.full((4, 4), np.inf)
    cov[0, 0] = bg_err**2
    cov[1, 1] = bg_err**2
    cov[0, 1] = cov[1, 0] = 0.0
    return GaussianFit(
        bg=bg, amplitude=0.0, center_ps=float(x[len(x) // 2]),
        sigma_ps=spacing, bg_err=bg_err, amplitude_err=bg_err,
        center_err_ps=np.inf, sigma_err_ps=np.inf,
        contrast=0.0, contrast_err=bg_err / bg, significant=False,
        chi2=0.0, dof=len(x) - 4, n_iterations=0, stop_reason="flat_data",
        covariance=cov)


def fit_two_peaks(hist: DeltaHistogram,
                  separation_hint_ps: float) -> TwoPeakFit:
    """Joint fit of two Gaussians with a shared flat background.

    ``separation_hint_ps`` seeds the search for the second peak at the
    expected distance from the dominant one (for example the optical
    fiber delay between detection arms).  Peaks closer than twice the sum
    of their widths cannot be labeled reliably and raise ``FitError``
    ("merged peaks"); a second amplitude consistent with zero is returned
    flagged, not raised.
    """
    if separation_hint_ps <= 0:
        raise ValueError("separation hint must be positive")
    x, y, weights = _fit_arrays(hist)
    if len(x) < 14:
        raise ValueError("need at least 14 bins to fit two peaks")
    if np.ptp(y) == 0.0:
        raise FitError("histogram is flat; no peaks to fit",
                       reason="flat_data")

    bg0, a1, mu1, s1 = _single_peak_seed(x, y)
    resid = y - gauss_model(x, np.array([bg0, a1, mu1, s1]))
    mu2, a2 = _second_peak_seed(x, resid, mu1, separation_hint_ps)
    p0 = np.array([bg0, a1, mu1, s1, max(a2, 0.05 * a1), mu2, s1])

    lower = np.array([-np.inf, -np.inf, -np.inf, 1e-9, -np.inf, -np.inf, 1e-9])
    upper = np.full(7, np.inf)
    # Box the second center near the hinted side: without any real second
    # peak the (mu2, sigma2) directions are flat and an unbounded center
    # wanders instead of converging.
    side = 1.0 if mu2 >= mu1 else -1.0
    target = mu1 + side * separation_hint_ps
    lower[5] = target - 0.6 * separation_hint_ps
    upper[5] = target + 0.6 * separation_hint_ps
    p, cov, chi2, it, reason = _levmar(x, y, weights, p0,
                                       lower=lower, upper=upper)

    errs = np.sqrt(np.maximum(np.diag(cov), 0.0))
    (near, i_near), (far, i_far) = sorted(
        ((_component(p, cov, errs, i), i) for i in (1, 4)),
        key=lambda ci: abs(ci[0].center_ps))

    if near.significant and far.significant:
        gap = abs(far.center_ps - near.center_ps)
        if gap <= 2.0 * (near.sigma_ps + far.sigma_ps):
            raise FitError("merged peaks: separation below resolvability bound",
                           last_estimate=p, reason="merged_peaks")

    cells = (cov[i_near + 1, i_near + 1], cov[i_far + 1, i_far + 1],
             cov[i_near + 1, i_far + 1])
    if all(np.isfinite(c) for c in cells):
        var_sep = cells[0] + cells[1] - 2.0 * cells[2]
        sep_err = float(np.sqrt(max(var_sep, 0.0)))
    else:
        sep_err = np.inf
    return TwoPeakFit(
        bg=float(p[0]), bg_err=float(errs[0]), near=near, far=far,
        separation_ps=float(far.center_ps - near.center_ps),
        separation_err_ps=sep_err,
        chi2=float(chi2), dof=len(x) - 7, n_iterations=it,
        stop_reason=reason, covariance=cov)


def _second_peak_seed(x, resid, mu1, hint):
    """Look for the second peak near mu1 +- hint, wider side wins."""
    best_mu, best_amp = mu1 + hint, 0.0
    for sign in (+1.0, -1.0):
        target = mu1 + sign * hint
        window = np.abs(x - target) <= 0.5 * hint
        if not window.any():
            continue
        k = int(np.argmax(np.where(window, resid, -np.inf)))
        if resid[k] > best_amp:
            best_mu, best_amp = float(x[k]), float(resid[k])
    return best_mu, best_amp
