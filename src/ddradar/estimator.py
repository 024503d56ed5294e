"""Coarse threshold detection and fractional refinement.

Detection lists every surface cell above the threshold, thinned by
non-maximum suppression over one main-lobe extent so each target yields a
single hit.  The surface is then grown to cover that same lobe half-extent
of lags around every detection, ``params.lobe_half_extents[0]``, whichever
method refines.  Refinement recovers the sub-cell offsets by one of the
rows of ``REFINERS``: least-squares fitting the separable sinc lobe model
to the magnitude patch around the peak (``sinc2d``), closed-form parabolic
interpolation of the two 3-point stencils through the peak (``quadratic``),
or leaving the offsets at zero (``baseline``).

The sinc fit eliminates the amplitude in closed form: for fixed offsets the
optimal gain is alpha = max(0, sum(y m) / sum(m^2)), leaving a 2-variable
bounded quasi-Newton descent over [-1/2, 1/2]^2 seeded with the quadratic
estimate.  It runs on the exact gradient via the envelope theorem: the gain
is optimal at every offset, so only the model's own derivative enters, and
the separable model gives that from per-axis sinc factors and their
derivatives.  When the seed is already first-order stationary the descent is
skipped: on a target sitting exactly on the grid the magnitude patch is
centro-symmetric, the origin is a stationary point of the fit, and walking
downhill from it would only chase the small code-dependent mismatch between
the real surface and the lobe model.  The patch is normalized by its peak
before fitting, so rescaling the surface scales the fitted amplitude and
leaves the recovered offsets unchanged up to solver round-off.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .ambiguity import (
    AmbiguitySurface,
    discrete_ambiguity,
    extend_surface,
    lobe_factors,
)
from .config import RadarParams
from .waveform import ComplexSignal

DEFAULT_THRESHOLD = 0.5
_FIT_BOUNDS = ((-0.5, 0.5), (-0.5, 0.5))
# The sinc2d solver's settings; sweep sidecars and the --version config hash
# read them from here.  ``stationary_tol`` decides both the seed skip and
# ``Estimate.converged``.
SOLVER = {
    "kind": "l-bfgs-b",
    "jac": "analytic",
    "ftol": 1e-14,
    "gtol": 1e-12,
    "maxiter": 200,
    "stationary_tol": 1e-3,
}


@dataclass(frozen=True)
class Detection:
    """A coarse peak: integer lag, signed Doppler bin, normalized magnitude."""

    l_hat: int
    k_hat: int
    peak_mag: float


@dataclass(frozen=True)
class Estimate:
    """A refined detection with fractional offsets and fitted amplitude."""

    detection: Detection
    eps_t: float
    eps_f: float
    alpha: float
    method: str
    delay_est: float  # (l_hat + eps_t) * T_s, seconds
    doppler_est: float  # (k_hat + eps_f) * delta_f, Hz
    converged: bool = True
    degenerate: bool = False

    @property
    def delay_cells(self) -> float:
        return self.detection.l_hat + self.eps_t

    @property
    def doppler_cells(self) -> float:
        return self.detection.k_hat + self.eps_f


def _make_estimate(
    det: Detection,
    eps_t: float,
    eps_f: float,
    alpha: float,
    method: str,
    params: RadarParams,
    converged: bool = True,
    degenerate: bool = False,
) -> Estimate:
    eps_t = min(0.5, max(-0.5, float(eps_t)))
    eps_f = min(0.5, max(-0.5, float(eps_f)))
    return Estimate(
        detection=det,
        eps_t=eps_t,
        eps_f=eps_f,
        alpha=max(0.0, float(alpha)),
        method=method,
        delay_est=(det.l_hat + eps_t) * params.T_s,
        doppler_est=(det.k_hat + eps_f) * params.delta_f,
        converged=converged,
        degenerate=degenerate,
    )


def coarse_detect(
    surface: AmbiguitySurface, theta: float, params: RadarParams
) -> list[Detection]:
    """All cells with |A| > theta, one survivor per main lobe.

    Suppression covers a (floor(M/N_f), floor(N/N_t)) half-extent
    neighborhood, circular along the Doppler axis.  Returns detections in
    descending magnitude order; an empty list means nothing crossed theta.
    """
    if not theta > 0:
        raise ValueError(f"threshold must be positive, got {theta}")
    mag = np.abs(surface.values)
    rows, cols = np.nonzero(mag > theta)
    if rows.size == 0:
        return []
    order = np.argsort(mag[rows, cols])[::-1]
    rows, cols = rows[order], cols[order]
    r_ell, r_k = params.lobe_half_extents
    nbins = surface.n_bins
    kept: list[tuple[int, int, float]] = []
    for row, col in zip(rows, cols):
        suppressed = False
        for krow, kcol, _ in kept:
            d_k = abs(col - kcol)
            d_k = min(d_k, nbins - d_k)
            if abs(row - krow) <= r_ell and d_k <= r_k:
                suppressed = True
                break
        if not suppressed:
            kept.append((row, col, float(mag[row, col])))
    return [
        Detection(int(surface.ell_min + row), int(surface.signed_bin(col)), peak)
        for row, col, peak in kept
    ]


def _stencil_offset(minus: float, center: float, plus: float) -> tuple[float, bool]:
    """Parabolic peak offset from three magnitudes; (0, True) when degenerate."""
    denom = 4.0 * center - 2.0 * plus - 2.0 * minus
    if denom <= 0.0:
        return 0.0, True
    return (plus - minus) / denom, False


def refine_quadratic(surface: AmbiguitySurface, det: Detection) -> Estimate:
    """Closed-form fractional offsets from the five-point stencil at the peak."""
    if not (surface.contains_lag(det.l_hat - 1) and surface.contains_lag(det.l_hat + 1)):
        raise ValueError(
            f"stencil lags {det.l_hat}+-1 outside surface "
            f"[{surface.ell_min}, {surface.ell_max}]"
        )
    values = surface.values
    row = det.l_hat - surface.ell_min
    col = det.k_hat % surface.n_bins
    col_lo = (col - 1) % surface.n_bins
    col_hi = (col + 1) % surface.n_bins
    center = abs(values[row, col])
    eps_t, degen_t = _stencil_offset(
        abs(values[row - 1, col]), center, abs(values[row + 1, col])
    )
    eps_f, degen_f = _stencil_offset(
        abs(values[row, col_lo]), center, abs(values[row, col_hi])
    )
    return _make_estimate(
        det,
        eps_t,
        eps_f,
        center,
        "quadratic",
        surface.params,
        degenerate=degen_t or degen_f,
    )


def _fit_patch(
    surface: AmbiguitySurface, det: Detection
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Magnitude patch and its (lag, bin) offsets around a detection."""
    r_ell, r_k = surface.params.lobe_half_extents
    ell_off = np.array(
        [
            d
            for d in range(-r_ell, r_ell + 1)
            if surface.contains_lag(det.l_hat + d)
        ]
    )
    k_off = np.arange(-r_k, r_k + 1)
    rows = (det.l_hat + ell_off) - surface.ell_min
    cols = (det.k_hat + k_off) % surface.n_bins
    patch = np.abs(surface.values[np.ix_(rows, cols)])
    return patch, ell_off, k_off


def _sinc_fit(
    x: np.ndarray,
    y: np.ndarray,
    ell_off: np.ndarray,
    k_off: np.ndarray,
    params: RadarParams,
) -> tuple[float, np.ndarray, float]:
    """Residual of the lobe fit at offsets x, its exact gradient, and the gain.

    The gain g = max(0, <y, m> / <m, m>) is optimal for every x, so by the
    envelope theorem the gradient is -2 g <y - g m, dm/dx>, with
    dm/dx_0 = -da b^T and dm/dx_1 = -a db^T from the separable factors.
    """
    a, da, b, db = lobe_factors(ell_off - x[0], k_off - x[1], params)
    m = a[:, None] * b[None, :]
    gain = max(0.0, float(np.sum(y * m) / np.sum(m * m)))
    res = y - gain * m
    grad = 2.0 * gain * np.array([da @ res @ b, a @ res @ db])
    return float(np.sum(res**2)), grad, gain


def refine_sinc2d(
    surface: AmbiguitySurface, det: Detection, params: RadarParams
) -> Estimate:
    """Least-squares fit of the sinc lobe model over the main-lobe patch."""
    patch, ell_off, k_off = _fit_patch(surface, det)
    peak = float(patch.max())
    y = patch / peak

    def fit(x):
        return _sinc_fit(x, y, ell_off, k_off, params)

    try:
        quad = refine_quadratic(surface, det)
        x0 = np.array([quad.eps_t, quad.eps_f])
    except ValueError:  # stencil clipped at the surface edge
        x0 = np.zeros(2)

    seed_fit = fit(x0)
    if np.max(np.abs(seed_fit[1])) <= SOLVER["stationary_tol"]:
        best = x0  # seed already stationary
    else:
        result = minimize(
            lambda x: fit(x)[:2],
            x0,
            method="L-BFGS-B",
            jac=True,
            bounds=_FIT_BOUNDS,
            options={k: SOLVER[k] for k in ("ftol", "gtol", "maxiter")},
        )
        best = np.asarray(result.x)
    # never worse than the seed or than leaving the offsets at zero
    candidates = [(np.zeros(2), fit(np.zeros(2))), (x0, seed_fit), (best, fit(best))]
    eps, (_, grad, gain) = min(candidates, key=lambda c: c[1][0])
    return _make_estimate(
        det,
        eps[0],
        eps[1],
        gain * peak,
        "sinc2d",
        params,
        converged=_stationary(eps, grad),
    )


def _stationary(x: np.ndarray, grad: np.ndarray) -> bool:
    """First-order stationary in the fit box: the gradient within
    ``SOLVER["stationary_tol"]``, components pinned at a bound they push against
    zeroed.  Not the solver's exit code, which calls a line search stalled
    at the objective's round-off floor "ABNORMAL"."""
    lo, hi = np.array(_FIT_BOUNDS).T
    pinned = ((x <= lo) & (grad > 0)) | ((x >= hi) & (grad < 0))
    return bool(np.max(np.abs(np.where(pinned, 0.0, grad))) <= SOLVER["stationary_tol"])


# Every refinement method by name, each called as (surface, det, params);
# baseline keeps the coarse cell, with the peak magnitude as amplitude.
REFINERS = {
    "sinc2d": refine_sinc2d,
    "quadratic": lambda surface, det, params: refine_quadratic(surface, det),
    "baseline": lambda surface, det, params: _make_estimate(
        det, 0.0, 0.0, det.peak_mag, "baseline", params
    ),
}


def refiner(method: str):
    """The ``REFINERS`` row for ``method``; ValueError for an unknown name."""
    try:
        return REFINERS[method]
    except KeyError:
        raise ValueError(
            f"unknown method {method!r}; expected one of {tuple(REFINERS)}"
        ) from None


def extend_around(
    surface: AmbiguitySurface,
    r: ComplexSignal,
    s: ComplexSignal,
    detections: list[Detection],
) -> AmbiguitySurface:
    """Grow the surface to the lobe half-extent of lags around every
    detection, the most any refinement reads, clipped to +-(NM-1)."""
    params = surface.params
    ext, max_lag = params.lobe_half_extents[0], params.frame_len - 1
    lo = max(min(d.l_hat for d in detections) - ext, -max_lag)
    hi = min(max(d.l_hat for d in detections) + ext, max_lag)
    return extend_surface(surface, r, s, lo, hi)


def estimate(
    r: ComplexSignal,
    s: ComplexSignal,
    theta: float,
    method: str,
    params: RadarParams,
    lag_window: tuple[int, int] | None = None,
) -> list[Estimate]:
    """Full pipeline: ambiguity surface, threshold detection, refinement.

    The surface is normalized by the replica energy so ``theta`` is read
    against a unit-peak auto-ambiguity.  The lag window defaults to the
    detectability window; it is then grown to the lobe half-extent around
    the detections, so no refinement reads past its edge.
    """
    refine = refiner(method)
    window = params.lag_window if lag_window is None else lag_window
    surface = discrete_ambiguity(r, s, window, params, norm=s.energy)
    detections = coarse_detect(surface, theta, params)
    if not detections:
        return []
    surface = extend_around(surface, r, s, detections)
    return [refine(surface, det, params) for det in detections]
