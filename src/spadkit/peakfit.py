"""Gaussian peak fitting on coincidence histograms.

One model serves every fit: a flat background plus N Gaussian peaks,

    f(dt) = bg + sum_k A_k * exp(-(dt - mu_k)^2 / (2 sigma_k^2))

with the parameter vector laid out as (bg, A1, mu1, s1, A2, mu2, s2, ...).
``fit_peak``/``fit_gaussian`` fit N = 1 (one peak per adjacent-pixel
cross-talk histogram), ``fit_two_peaks`` fits N = 2 (cross-talk and
bunching peaks on one histogram).  Only this module knows the layout: a
fit result evaluates itself (``model``) and names itself (the ``kind`` in
``to_json_dict``).

There is one solver, and it is batched: it fits B histograms that share a
grid together, stacking their residuals, Jacobians and normal equations,
while each fit keeps its own damping, accept/reject decisions, iteration
count and ending.  The calibrations hand their count arrays to the batched
core, ``_single_peak_fits`` (``measure_offsets`` its pairs' cuts,
``ct_scan`` its pooled shape); ``fit_gaussians`` fits a list of histograms,
and the single-histogram functions are batches of one.  A fit comes out bit
for bit the same alone or in any batch: the stacked ``matmul``, ``solve``
and ``eigh`` calls and row sums make the same floating-point operations per
fit as their 2-D forms (``einsum`` would not).  The fits run in blocks
sized by bins, at most ``BLOCK_BINS`` (fits times bins per fit), so a
block's (fits, n, P) Jacobian stays a few MB: 32 fits of 2,800 bins, or all
255 cuts of 81 bins of a delay calibration in one block.  A fit whose
linear system is singular fails alone.  The work per fit outside the
stacked calls is done for all fits at once too: the seeds (median, peak and
half-maximum width) row-wise, and the covariances of all converged fits in
one stacked ``eigh`` and ``matmul`` once the last fit has ended.

Both cross-talk calibrations find their peaks through one front end that
fits nothing: ``_box_peaks`` places each histogram's peak with a box
filter, and ``_window_counts`` counts a +- 3 sigma window against the
background of the sidebands beyond +- 10 sigma.

The solver is a damped Gauss-Newton iteration (Levenberg-Marquardt
flavor): the normal equations get a multiplicative damping term that
grows tenfold whenever a step fails to reduce chi^2 and shrinks tenfold
on success.  Residuals carry Poisson weights 1 / max(count, 1) in raw
count units (``_count_variance``); normalized histograms rescale the same
weights.  No external optimizer is involved, so results are deterministic
across platforms.

Each trial parameter vector is evaluated once: the accepted trial's
residual and per-peak exp(-z^2 / 2) then give the Jacobian, and the last
normal matrix gives the covariance.  Every peak is evaluated on every
bin, with the operations of the plain per-fit evaluation in its order,
and the Jacobian is kept in its (n, p) layout, so a fit's model,
Jacobian and normal equations are those of that evaluation, bit for bit.

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

from dataclasses import dataclass

import numpy as np

from .coincidence import DeltaHistogram
from .documents import field_dict
from .errors import FitError
from .rates import _median

MAX_ITERATIONS = 200
REL_STEP_TOL = 1e-8
REL_CHI2_TOL = 1e-10
LAMBDA_START = 1e-3
LAMBDA_MAX = 1e12
SIGNIFICANCE_SIGMAS = 3.0
# The solver runs its fits in blocks of at most this many bins (fits times
# bins per fit), so a block's (fits, n) peak values and (fits, n, P)
# Jacobian stay a few MB however many fits a scan holds.
BLOCK_BINS = 32 * 2800

# Width of the box filter that places a cross-talk peak before any fit
# knows its sigma.
COARSE_BOX_PS = 100.0
# Half-width of a counting window is this many sigmas.
PEAK_WINDOW_SIGMAS = 3.0
# The background per bin is the mean count beyond this many sigmas from
# the center.
SIDEBAND_SIGMAS = 10.0

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# model

class _Gaussians:
    """The model's peaks on one grid ``x`` for a batch of parameter rows,
    shape (B, P), each peak evaluated on every point of the grid.

    This is the full-length evaluation, operation for operation, so it
    holds for a grid in any order and for any parameters: a non-finite
    center or width, sigma == 0 or a NaN in ``x`` give the numbers that
    evaluation gives.  Each step is one numpy call for the whole batch.
    """

    def __init__(self, x):
        self.x = np.asarray(x)
        self.n = len(self.x)

    def peaks(self, params) -> list:
        """``(z, exp(-z^2 / 2))`` of each peak, each of shape (B, n)."""
        out = []
        for i in range(1, params.shape[1], 3):
            z = (self.x - params[:, i + 1, None]) / params[:, i + 2, None]
            out.append((z, np.exp(-0.5 * z * z)))
        return out

    def model(self, params, peaks) -> np.ndarray:
        """Shape (B, n): the background plus each peak in turn."""
        y = params[:, :1]
        for amp, (_z, e) in zip(params[:, 1::3].T, peaks):
            y = y + amp[:, None] * e
        return y

    def jacobian(self, params, peaks) -> np.ndarray:
        """d model / d params, shape (B, n, P), without any ``exp``."""
        jac = np.empty((len(params), self.n, params.shape[1]))
        jac[:, :, 0] = 1.0
        for i, (z, e) in zip(range(1, params.shape[1], 3), peaks):
            amp, sigma = params[:, i, None], params[:, i + 2, None]
            aez = amp * e * z
            jac[:, :, i] = e
            jac[:, :, i + 1] = aez / sigma
            jac[:, :, i + 2] = aez * z / sigma
        return jac


def _take_rows(peaks, keep):
    """The peaks of the rows where ``keep`` is True."""
    return [(z[keep], e[keep]) for z, e in peaks]


def gauss_model(x: np.ndarray, params: np.ndarray) -> np.ndarray:
    """Flat background plus one Gaussian per (amp, mu, sigma) triple."""
    params = np.asarray(params, dtype=np.float64)[None]
    g = _Gaussians(x)
    return g.model(params, g.peaks(params))[0]


def gauss_jacobian(x: np.ndarray, params: np.ndarray) -> np.ndarray:
    """Analytic d model / d params, shape (n, len(params))."""
    params = np.asarray(params, dtype=np.float64)[None]
    g = _Gaussians(x)
    return g.jacobian(params, g.peaks(params))[0]


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

def _levmar(x, y, weights, p0, *, lower, upper) -> list:
    """Damped Gauss-Newton least squares with box projection, for a batch
    of fits on one grid ``x``.

    ``y`` and ``weights`` have shape (B, n); ``p0``, ``lower`` and
    ``upper`` shape (B, P).  Returns one entry per fit: (params,
    covariance, chi2, iterations, stop reason), or the FitError that ended
    it, carrying the last iterate and the reason.

    Every fit keeps its own damping, steps and ending, and comes out bit
    for bit as it would alone: a pass runs one iteration of every fit
    still active, in blocks of at most ``BLOCK_BINS`` bins.  A fit's
    trial evaluates its peaks once; an accepted trial's residual and peak
    values then give its Jacobian and normal equations without another
    ``exp``.  Once every fit has ended, the converged fits' last normal
    matrices give their covariances in one stacked call.
    """
    gaussians = _Gaussians(x)
    p = np.clip(np.array(p0, dtype=np.float64), lower, upper)
    n_fits, n_par = p.shape
    block = _block_fits(gaussians.n)
    chi2 = np.empty(n_fits)
    normal = np.empty((n_fits, n_par, n_par))
    grad = np.empty((n_fits, n_par))
    lam = np.full(n_fits, LAMBDA_START)
    # Each pass is one iteration of every fit still active, so a fit's
    # iteration count is the pass it ended in.
    passes = 0
    out: list = [None] * n_fits
    done = np.zeros(n_fits, dtype=bool)

    def trial(rows, params):
        """chi^2 of each row, the row's weights and residuals, and the
        peaks behind them."""
        peaks = gaussians.peaks(params)
        r = y[rows] - gaussians.model(params, peaks)
        w = weights[rows]
        wrr = w * r
        wrr *= r
        return np.add.reduce(wrr, axis=1), w, r, peaks

    def store_normal(rows, params, w, r, peaks):
        """The normal equations of ``rows`` at ``params``."""
        jac = gaussians.jacobian(params, peaks)
        jw = jac * w[:, :, None]
        # Stacked matmuls make the same BLAS products per fit as the 2-D
        # jac.T @ jw and jw.T @ r, full length in J's (n, p) layout.
        normal[rows] = np.matmul(jac.transpose(0, 2, 1), jw)
        grad[rows] = np.matmul(jw.transpose(0, 2, 1), r[:, :, None])[:, :, 0]

    def fail(i, message, reason):
        out[i] = FitError(message, last_estimate=p[i].copy(), reason=reason,
                          n_iterations=passes)
        done[i] = True

    converged = []

    def converge(i, reason):
        # the covariance comes once every fit has ended
        out[i] = (p[i].copy(), None, float(chi2[i]), passes, reason)
        converged.append(i)
        done[i] = True

    for start in range(0, n_fits, block):
        rows = np.arange(start, min(start + block, n_fits))
        chi2[rows], w, r, peaks = trial(rows, p[rows])
        finite = np.isfinite(chi2[rows])
        if not finite.all():
            for i in rows[~finite]:
                fail(i, "seed parameters give non-finite chi^2",
                     "non_finite_seed")
            w, r = w[finite], r[finite]
            rows, peaks = rows[finite], _take_rows(peaks, finite)
        store_normal(rows, p[rows], w, r, peaks)
    active = np.flatnonzero(~done)

    while active.size:
        passes += 1
        steps, solved = _damped_steps(normal[active], grad[active],
                                      lam[active])
        todo = active
        if not solved.all():
            unsolved = active[~solved]
            lam[unsolved] *= 10.0
            for i in unsolved[lam[unsolved] > LAMBDA_MAX]:
                fail(i, "normal equations singular", "singular")
            todo, steps = active[solved], steps[solved]

        for start in range(0, len(todo), block):
            rows = todo[start:start + block]
            step = steps[start:start + block]
            p_new = np.clip(p[rows] + step, lower[rows], upper[rows])
            chi2_new, w, r, peaks = trial(rows, p_new)
            chi2_old = chi2[rows]
            accepted = np.isfinite(chi2_new) & (chi2_new <= chi2_old)
            if not accepted.all():
                down = np.flatnonzero(~accepted)
                lam[rows[down]] *= 10.0
                for k in down[lam[rows[down]] > LAMBDA_MAX]:
                    # No downhill step left.  At a genuine optimum the
                    # predicted decrease is negligible; anything else is
                    # a real failure.
                    i = rows[k]
                    predicted = abs(float(grad[i] @ step[k]))
                    if predicted <= 1e-10 * max(chi2[i], 1e-300):
                        converge(i, "predicted_decrease")
                    else:
                        fail(i, "fit stalled before converging", "stalled")
                if not accepted.any():
                    continue
                rows, p_new, chi2_new, chi2_old = (
                    rows[accepted], p_new[accepted], chi2_new[accepted],
                    chi2_old[accepted])
                w, r, peaks = w[accepted], r[accepted], _take_rows(peaks,
                                                                   accepted)
            store_normal(rows, p_new, w, r, peaks)
            moved = np.abs(p_new - p[rows]) \
                / np.maximum(np.abs(p_new), 1e-30)
            stalled = chi2_old - chi2_new \
                <= REL_CHI2_TOL * np.maximum(chi2_old, 1e-300)
            p[rows], chi2[rows] = p_new, chi2_new
            lam[rows] = np.maximum(lam[rows] / 10.0, 1e-12)
            # The relative-step test alone cannot fire for a parameter
            # heading to zero, so a negligible chi^2 gain also counts as
            # converged.
            small_step = np.maximum.reduce(moved, axis=1) < REL_STEP_TOL
            if small_step.any() or stalled.any():
                for i in rows[small_step]:
                    converge(i, "relative_step")
                for i in rows[stalled & ~small_step]:
                    converge(i, "chi2_stall")

        if passes == MAX_ITERATIONS:
            for i in active[~done[active]]:
                fail(i, f"fit did not converge in {MAX_ITERATIONS} "
                        "iterations", "max_iterations")
        active = active[~done[active]]
    if converged:
        for i, cov in zip(converged, _covariances(normal[converged])):
            out[i] = (out[i][0], cov, *out[i][2:])
    return out


def _block_fits(n_bins) -> int:
    """How many fits of ``n_bins`` bins a block of ``BLOCK_BINS`` holds."""
    return max(BLOCK_BINS // max(n_bins, 1), 1)


def _damped_steps(normal, grad, lam):
    """Solve (N + lam diag(damp)) step = grad for every fit.  Returns the
    steps and which fits have one: a singular system fails only its own
    fit, not the stacked solve of the others."""
    diagonal = np.arange(normal.shape[1])
    damp = normal[:, diagonal, diagonal]
    floor = 1e-12 * np.maximum(np.maximum.reduce(damp, axis=1), 1.0)
    # N + lam diag(damp): lam * 0.0 adds +0.0 off the diagonal
    system = normal + 0.0
    system[:, diagonal, diagonal] += lam[:, None] * np.maximum(
        damp, floor[:, None])
    solved = np.ones(len(lam), dtype=bool)
    try:
        return np.linalg.solve(system, grad[:, :, None])[:, :, 0], solved
    except np.linalg.LinAlgError:
        steps = np.zeros_like(grad)
        for i in range(len(lam)):
            try:
                steps[i] = np.linalg.solve(system[i], grad[i])
            except np.linalg.LinAlgError:
                solved[i] = False
        return steps, solved


def _covariances(normals):
    """``_gauss_newton_covariance`` of each of the stacked normal matrices,
    bit for bit: one stacked ``eigh`` and ``matmul`` make the same
    operations per matrix as their 2-D forms.  A rank-deficient matrix
    takes the per-matrix path, which marks its unconstrained directions
    infinite."""
    vals, vecs = np.linalg.eigh(normals)
    tol = np.maximum(np.maximum.reduce(vals, axis=1), 0.0) * 1e-12
    good = vals > tol[:, None]
    inv_vals = np.zeros_like(vals)
    inv_vals[good] = 1.0 / vals[good]
    covs = np.matmul(vecs * inv_vals[:, None, :], vecs.transpose(0, 2, 1))
    for k in np.flatnonzero(~good.all(axis=1)):
        covs[k] = _gauss_newton_covariance(normals[k])
    return covs


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

def _count_variance(counts):
    """The one count-variance rule: a count's Poisson variance, at least 1."""
    return np.maximum(counts, 1.0)


def _fit_arrays(hist: DeltaHistogram):
    """(x, y, weights) in the units the histogram carries.

    Raw counts get Poisson weights 1/var (``_count_variance``); a
    normalized histogram scales both data and weights by the stored
    median, which leaves the chi^2 of any model/data pair unchanged.
    """
    x = hist.bin_centers
    counts = hist.counts.astype(np.float64)
    var = _count_variance(counts)
    if hist.normalized is not None:
        return x, hist.normalized.astype(np.float64), \
            hist.median_count**2 / var
    return x, counts, 1.0 / var


def _single_peak_seeds(x, y, order):
    """The (bg, amp, mu, sigma) seed of each row of ``y`` on the grid
    ``x``, shape (B, 4), the same for any order of the points: the argmax
    tie-break and the FWHM walk run in x's stable ascending ``order``.

    bg is the row's median and the peak its largest bin.  Sigma comes from
    the full width at half maximum of the contiguous run of bins at or
    above half maximum around the peak bin (stray bins elsewhere must not
    widen it; a NaN ends the run), or is one bin spacing without a peak
    above the median.  The rows go in blocks of ``BLOCK_BINS`` bins, as
    the solver's do."""
    n = len(x)
    block = _block_fits(n)
    x = x[order]
    spacing = float(x[1] - x[0]) if n > 1 else 1.0
    at = np.arange(n)
    out = np.empty((len(y), 4))
    for start in range(0, len(y), block):
        rows = y[start:start + block]
        bg = _median(rows)
        rows = rows[:, order]
        peak = np.argmax(rows, axis=1)
        amp = np.take_along_axis(rows, peak[:, None], axis=1)[:, 0] - bg
        ends = ~(rows >= (bg + 0.5 * amp)[:, None])
        # the run's first bin follows the last end left of the peak, its
        # last bin precedes the first end right of it
        left = ends & (at < peak[:, None])
        first = np.where(left.any(axis=1),
                         n - np.argmax(left[:, ::-1], axis=1), 0)
        right = ends & (at > peak[:, None])
        last = np.where(right.any(axis=1), np.argmax(right, axis=1) - 1,
                        n - 1)
        # max(fwhm / 2.355, spacing / 2.355, 1e-9) as Python's max takes it
        sigma = (x[last] - x[first] + spacing) / 2.355
        for floor in (spacing / 2.355, 1e-9):
            sigma = np.where(floor > sigma, floor, sigma)
        out[start:start + block] = np.stack(
            [bg, amp, x[peak], np.where(amp <= 0, spacing, sigma)], axis=1)
    return out


# ---------------------------------------------------------------------------
# the cross-talk peak front end: placing and counting without a fit
#
# ``ct_scan`` and ``measure_offsets`` find their peaks with these: a box
# filter places each histogram's peak, and a window of +- 3 sigma around
# it is counted against the mean count per bin of the sidebands beyond
# +- 10 sigma.

def _cumulative(rows) -> np.ndarray:
    """Per row, ``cum[j] - cum[i]`` is the count of bins i..j-1."""
    cum = np.zeros((len(rows), rows.shape[1] + 1), dtype=np.int64)
    np.cumsum(rows, axis=1, out=cum[:, 1:])
    return cum


def _box_peaks(cum, bin_width_ps: float) -> np.ndarray:
    """Per row of the cumulative counts ``cum``, the bin whose box of
    about ``COARSE_BOX_PS`` centered on it holds the most counts."""
    half = round(0.5 * COARSE_BOX_PS / bin_width_ps)
    n = cum.shape[1] - 1
    # the box of bin j is cum[:, hi] - cum[:, lo] with hi = min(j + half +
    # 1, n) and lo = max(j - half, 0): each a slice, then one edge column
    boxes = np.empty((len(cum), n), dtype=cum.dtype)
    inner = max(n - half, 0)
    boxes[:, :inner] = cum[:, half + 1:half + 1 + inner]
    boxes[:, inner:] = cum[:, n:]
    edge = min(half, n)
    boxes[:, :edge] -= cum[:, :1]
    boxes[:, edge:] -= cum[:, :n - edge]
    return np.argmax(boxes, axis=1)


def _window_counts(cum, x, centers, sigmas, share=1.0):
    """Per row of the cumulative counts ``cum`` on the bin centers ``x``:
    the gross counts in ``centers`` +- 3 ``sigmas`` (at least the nearest
    bin), the sideband background per bin, and the net counts and their
    variance.  The sideband is every bin beyond +- 10 sigma, or, when
    there is none, every bin outside the window.  The net counts are
    those above the background divided by ``share``, the part of a peak
    that the window holds, so that they stand for the whole peak."""
    n = len(x)
    reach = PEAK_WINDOW_SIGMAS * sigmas
    lo = np.searchsorted(x, centers - reach, side="left")
    hi = np.searchsorted(x, centers + reach, side="right")
    nearest = np.clip(np.rint((centers - x[0]) / (x[1] - x[0])), 0, n - 1)
    empty = hi <= lo
    lo = np.where(empty, nearest.astype(np.intp), lo)
    hi = np.where(empty, lo + 1, hi)
    left = np.searchsorted(x, centers - SIDEBAND_SIGMAS * sigmas, side="left")
    right = np.searchsorted(x, centers + SIDEBAND_SIGMAS * sigmas,
                            side="right")
    no_side = left + (n - right) == 0
    left = np.where(no_side, lo, left)
    right = np.where(no_side, hi, right)

    def at(i):
        return np.take_along_axis(cum, i[:, None], axis=1)[:, 0]

    gross = at(hi) - at(lo)
    n_window = hi - lo
    n_side = np.maximum(left + (n - right), 1)
    bg = (at(left) + cum[:, -1] - at(right)) / n_side
    net = (gross - bg * n_window) / share
    return gross, bg, net, (gross + n_window**2 * bg / n_side) / share**2


def _clears_noise(net, var) -> np.ndarray:
    """Which net counts reach ``SIGNIFICANCE_SIGMAS`` of their Poisson
    error (at least one count)."""
    return net >= SIGNIFICANCE_SIGMAS * np.sqrt(_count_variance(var))


# ---------------------------------------------------------------------------
# public API

def fit_gaussian(hist: DeltaHistogram) -> GaussianFit:
    """Fit one Gaussian peak on a flat background."""
    return _raised(fit_gaussians([hist])[0])


def fit_gaussians(hists) -> list:
    """Fit one Gaussian peak on a flat background to each histogram, all
    in one batched solver run.

    The histograms share one grid (the same window and bin width), as the
    pairs of one scan do.  Returns, in order, each histogram's
    ``GaussianFit`` or the ``FitError`` that ended its fit: bit for bit
    what ``fit_gaussian`` returns or raises for that histogram alone.
    """
    hists = list(hists)
    if not hists:
        return []
    x = hists[0].bin_centers
    y = np.empty((len(hists), len(x)))
    weights = np.empty_like(y)
    for k, hist in enumerate(hists):
        x_k, y_k, weights_k = _fit_arrays(hist)
        if not np.array_equal(x_k, x):
            raise ValueError("histograms fitted together must share one grid")
        y[k], weights[k] = y_k, weights_k
    # Histograms that only the caller's iterator held go before the solve.
    del hists, hist
    return _single_peak_fits(x, y, weights)


def fit_peak(x, y, *, weights=None,
             center_bounds: tuple[float, float] | None = None) -> GaussianFit:
    """Core single-peak fit on plain arrays (histogram-free entry point).

    ``center_bounds`` boxes the peak position, which stabilizes fits when
    the expected location is known.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)[None]
    return _raised(_single_peak_fits(x, y[None], weights, center_bounds)[0])


def _raised(fit):
    if isinstance(fit, FitError):
        raise fit
    return fit


def _single_peak_fits(x, y, weights=None, center_bounds=None) -> list:
    """Single-peak fits of the rows of ``y`` (weights alike, by default
    Poisson weights) on the grid ``x``, in one solver run: per row a
    ``GaussianFit`` or the ``FitError`` that ended it.
    ``center_bounds`` is one (lo, hi) box for the peak position, or one
    per row."""
    if len(x) < 10:
        raise ValueError(
            f"need at least 10 bins to fit a peak, got {len(x)}")
    if weights is None:
        weights = 1.0 / _count_variance(y)
    out: list = [None] * len(y)
    flat = np.ptp(y, axis=1) == 0.0
    for i in np.flatnonzero(flat):
        out[i] = _flat_result(x, y[i], weights[i])
    rows = np.flatnonzero(~flat)
    if flat.any():
        y, weights = y[rows], weights[rows]

    p0 = _single_peak_seeds(x, y, np.argsort(x, kind="stable"))
    lower = np.tile([-np.inf, -np.inf, -np.inf, 1e-9], (len(rows), 1))
    upper = np.full((len(rows), 4), np.inf)
    if center_bounds is not None:
        bounds = np.broadcast_to(np.asarray(center_bounds, dtype=np.float64),
                                 (len(out), 2))
        lower[:, 2], upper[:, 2] = bounds[rows].T
        p0[:, 2] = np.clip(p0[:, 2], lower[:, 2], upper[:, 2])

    for i, solution in zip(rows, _levmar(x, y, weights, p0,
                                         lower=lower, upper=upper)):
        out[i] = solution if isinstance(solution, FitError) \
            else _gaussian_fit(solution, len(x))
    return out


def _gaussian_fit(solution, n_bins) -> GaussianFit:
    p, cov, chi2, it, reason = solution
    errs = np.sqrt(np.maximum(np.diag(cov), 0.0))
    return GaussianFit(
        **field_dict(_component(p, cov, errs, 1)),
        bg=float(p[0]), bg_err=float(errs[0]), chi2=float(chi2),
        dof=n_bins - 4, n_iterations=it, stop_reason=reason, covariance=cov)


def _flat_result(x, y, weights):
    """Exactly flat data: no peak by construction, never an error, unless
    it is all zero (then the FitError).  The spacing and the center come
    from x in ascending order."""
    bg = float(y[0])
    if bg <= 0.0:
        return FitError("histogram is empty; nothing to fit",
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
    return _raised(_two_peak_fits(x, y[None], weights[None],
                                  [separation_hint_ps])[0])


def _two_peak_fits(x, y, weights, hints) -> list:
    """Two-peak fits of the rows of ``y`` (weights alike) on the grid
    ``x``, each with its separation hint, in one solver run: per row a
    ``TwoPeakFit`` or the ``FitError`` that ended it."""
    if len(x) < 14:
        raise ValueError(
            f"need at least 14 bins to fit two peaks, got {len(x)}")
    out: list = [None] * len(y)
    flat = np.ptp(y, axis=1) == 0.0
    for i in np.flatnonzero(flat):
        out[i] = FitError("histogram is flat; no peaks to fit",
                          reason="flat_data")
    rows = np.flatnonzero(~flat)

    p0 = np.empty((len(rows), 7))
    lower = np.tile([-np.inf, -np.inf, -np.inf, 1e-9, -np.inf, -np.inf, 1e-9],
                    (len(rows), 1))
    upper = np.full((len(rows), 7), np.inf)
    seeds = _single_peak_seeds(x, y[rows], np.argsort(x, kind="stable"))
    for k, (i, (bg0, a1, mu1, s1)) in enumerate(zip(rows, seeds)):
        hint = hints[i]
        resid = y[i] - gauss_model(x, np.array([bg0, a1, mu1, s1]))
        mu2, a2 = _second_peak_seed(x, resid, mu1, hint)
        p0[k] = [bg0, a1, mu1, s1, max(a2, 0.05 * a1), mu2, s1]
        # Box the second center near the hinted side: without any real
        # second peak the (mu2, sigma2) directions are flat and an
        # unbounded center wanders instead of converging.
        side = 1.0 if mu2 >= mu1 else -1.0
        target = mu1 + side * hint
        lower[k, 5] = target - 0.6 * hint
        upper[k, 5] = target + 0.6 * hint

    for i, solution in zip(rows, _levmar(x, y[rows], weights[rows], p0,
                                         lower=lower, upper=upper)):
        out[i] = solution if isinstance(solution, FitError) \
            else _two_peak_fit(solution, len(x))
    return out


def _two_peak_fit(solution, n_bins):
    """The TwoPeakFit of a solver solution, or the merged-peaks
    FitError."""
    p, cov, chi2, it, reason = solution
    errs = np.sqrt(np.maximum(np.diag(cov), 0.0))
    (near, i_near), (far, i_far) = sorted(
        ((_component(p, cov, errs, i), i) for i in (1, 4)),
        key=lambda ci: abs(ci[0].center_ps))

    if near.significant and far.significant:
        gap = abs(far.center_ps - near.center_ps)
        if gap <= 2.0 * (near.sigma_ps + far.sigma_ps):
            return FitError(
                "merged peaks: separation below resolvability bound",
                last_estimate=p, reason="merged_peaks", n_iterations=it)

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
        chi2=float(chi2), dof=n_bins - 7, n_iterations=it,
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
