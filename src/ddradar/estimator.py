"""Coarse threshold detection and fractional refinement.

The coarse stage, ``coarse_stage``, bounds every lag of the window with
``lag_peak_bounds``, then trims each end of the span of lags that bound
passes with the Doppler-grid bound of ``grid_peak_bounds``, walking inward
until a lag passes both (``_trim_ends``); the live lags run from the first
to the last lag that passes both bounds, and no other lag has a cell above
the threshold.  At 30 dB the l1 bound passes about 97 of the 769 lags of
the detectability window and the grid bound 2 or 3 of those.
Detection lists every cell of the live lags above the threshold, thinned by
non-maximum suppression over one main-lobe extent so each target yields a
single hit; the hits, their order and the detections are those of the
full-window surface.  Suppression walks the hits once in descending
magnitude and paints each kept hit's lobe into one boolean mask of the
surface, so it costs one pass over the hits plus one painted lobe per kept
hit.  Every detection lies on a live lag, so the one
surface, on the live lags widened by the lobe half-extent
(``refine_window``), holds every lag any refinement reads; detection and
every refiner read |A| from its one cached ``magnitude``.  Refinement
recovers the sub-cell offsets by one of the rows of ``REFINERS``:
least-squares fitting the separable sinc lobe model to the magnitude patch
around the peak (``sinc2d``), closed-form parabolic interpolation of the
two 3-point stencils through the peak (``quadratic``), or leaving the
offsets at zero (``baseline``).  Each row returns the bare ``_outcome``
(eps_t, eps_f, alpha, converged, degenerate), offsets in cells of T_s and
delta_f, clamped by the rule ``Estimate`` applies too; ``estimate`` writes
each detection and its outcome into one NumPy row of ``Estimates``, and
``refine_quadratic`` and ``refine_sinc2d`` build an ``Estimate``.  At the
surface's edge every row reads the lags it holds: a stencil reaching past
them leaves its axis degenerate (offset 0), as a flat one does; only a
detection off the surface raises ValueError.

The sinc fit eliminates the amplitude in closed form: for fixed offsets the
optimal gain is alpha = max(0, sum(y m) / sum(m^2)), leaving a 2-variable
bounded quasi-Newton descent over [-1/2, 1/2]^2 seeded with the quadratic
estimate.  It runs on the exact gradient via the envelope theorem: the gain
is optimal at every offset, so only the model's own derivative enters, and
the separable model gives that from per-axis sinc factors and their
derivatives.  Each objective call evaluates both axes' factors in one
``_abs_sinc`` call over the patch's concatenated offsets (``_lobe_axes``),
bit for bit the per-axis ``lobe_factors``, and a fit runs the objective
once per distinct offset: its memo serves the solver's call at the seed,
any point the line search asks for again, and the final candidates.  The
solver is scipy's public L-BFGS-B entry, ``fmin_l_bfgs_b``, with the
``SOLVER`` settings.  When the seed is already first-order stationary in
the fit box (the rule of ``Estimate.converged``) the descent is skipped: on
a target sitting exactly on the grid the magnitude patch is
centro-symmetric, the origin is a stationary point of the fit, and walking
downhill from it would only chase the small code-dependent mismatch between
the real surface and the lobe model.  The patch is normalized by its peak
before fitting, so rescaling the surface scales the fitted amplitude and
leaves the recovered offsets unchanged up to solver round-off.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .ambiguity import (
    AmbiguitySurface,
    _abs_sinc,
    check_norm,
    discrete_ambiguity,
    grid_peak_bounds,
    lag_peak_bounds,
)
from .config import RadarParams
from .waveform import ComplexSignal

DEFAULT_THRESHOLD = 0.5
# The coarse stage drops a lag only when one of its two bounds, raised by
# this margin times the lag's l1 bound B, is still at most theta * norm.  A
# computed cell can exceed the exact |A| by the FFT's worst-case rounding,
# of order log2(NM) eps times the row's l1 norm, which is B itself: about
# 1e-14 relative at the paper's NM = 1024.  The Doppler-grid bound's
# products and its 384-point mixed-radix FFT round at order log2(G) eps
# times B, below that.  The margin lies far above
# that and the few eps of the bounds' own sums and of the 1/norm scaling,
# so a dropped lag has no computed cell above theta.
SCREEN_MARGIN = 1e-9
# The lags the coarse stage's grid screen first tries at each end of the
# span that passes the l1 screen (``_trim_ends``).  A span of up to twice
# this, such as a 17-lag tracking gate, is screened in one call: at the
# paper geometry each call costs a fixed part of about 15 us, about five
# screened lags at about 2.7 us each, and at 4 or 8 a 17-lag span takes two
# calls and costs more than its trimmed rows save.
FIRST_CHUNK = 9
# A quadratic stencil is flat, and its axis degenerate, when its curvature
# 4c - 2(m + p) is at most this fraction of its center magnitude c.  Each
# magnitude carries the FFT's rounding, of order log2(NM) eps times the
# row's l1 norm, at most |r| / |s| on the normalized surface (see
# SCREEN_MARGIN).  A detected peak has c > theta, so at the paper's
# NM = 1024 with |r| <= 10 |s| and theta >= 0.25 that rounding, and the
# curvature of a stencil flat up to it, stays below about 1e-13 of c.  The
# tolerance lies far above that and far below the curvature of any lobe a
# benchmark frame fits (at least 1.6e-3 of c).
FLAT_STENCIL_TOL = 1e-9
_CELL_BOX = (-0.5, 0.5)  # every offset is clamped to it; the sinc fit searches it
_FIT_BOUNDS = (_CELL_BOX, _CELL_BOX)
# The sinc2d solver's settings; sweep sidecars and the --version config hash
# read them from here, and ``_sinc2d`` hands them to scipy's
# ``fmin_l_bfgs_b``.  ``stationary_tol`` decides both the seed skip and
# ``Estimate.converged``, by the one rule ``_stationary``.
SOLVER = {
    "kind": "l-bfgs-b",
    "jac": "analytic",
    "ftol": 1e-14,
    "gtol": 1e-12,
    "maxiter": 200,
    "stationary_tol": 1e-3,
}


@dataclass(frozen=True, slots=True)
class Detection:
    """A coarse peak: integer lag, signed Doppler bin, normalized magnitude."""

    l_hat: int
    k_hat: int
    peak_mag: float


@dataclass(frozen=True, slots=True)
class Estimate:
    """A refined detection: offsets in cells clamped to [-1/2, 1/2], gain >= 0.

    A NaN offset or gain, the mark of a failed refinement, is kept as NaN.
    ``degenerate``: a ``quadratic`` stencil was flat or clipped by the surface.
    """

    detection: Detection
    eps_t: float
    eps_f: float
    alpha: float
    method: str
    converged: bool = True
    degenerate: bool = False

    def __post_init__(self):
        eps_t, eps_f, alpha, _, _ = _outcome(self.eps_t, self.eps_f, self.alpha)
        object.__setattr__(self, "eps_t", eps_t)
        object.__setattr__(self, "eps_f", eps_f)
        object.__setattr__(self, "alpha", alpha)

    @property
    def delay_cells(self) -> float:
        return self.detection.l_hat + self.eps_t

    @property
    def doppler_cells(self) -> float:
        return self.detection.k_hat + self.eps_f


def _outcome(eps_t: float, eps_f: float, alpha: float, converged=True, degenerate=False) -> tuple:
    """A refinement's outcome: offsets clamped to [-1/2, 1/2], gain to >= 0."""
    # The value goes first: max and min keep their first argument when no
    # comparison holds, so a NaN passes through both unclamped.
    lo, hi = _CELL_BOX
    eps_t, eps_f = min(max(float(eps_t), lo), hi), min(max(float(eps_f), lo), hi)
    return eps_t, eps_f, max(float(alpha), 0.0), converged, degenerate


def _as_estimate(det: Detection, method: str, outcome: tuple) -> Estimate:
    eps_t, eps_f, alpha, converged, degenerate = outcome
    return Estimate(det, eps_t, eps_f, alpha, method, converged, degenerate)


# One packed row per estimate: the detection, then its outcome.
ESTIMATE_ROW = np.dtype(
    [
        ("l_hat", np.int64),
        ("k_hat", np.int64),
        ("peak_mag", np.float64),
        ("eps_t", np.float64),
        ("eps_f", np.float64),
        ("alpha", np.float64),
        ("converged", np.bool_),
        ("degenerate", np.bool_),
    ]
)


class Estimates(Sequence):
    """One frame's estimates of one method: an ``ESTIMATE_ROW`` each, in
    detection order.

    Indexing and iteration rebuild each ``Estimate`` field for field, with
    Python ints, floats and bools; a slice is an ``Estimates``.  It equals
    any sequence of equal ``Estimate``s, so an empty frame ``== []``.  A
    packed row retains 50 B where an ``Estimate`` with its ``Detection``
    retains about 250 B.
    """

    __slots__ = ("method", "rows")

    def __init__(self, method: str, rows: np.ndarray):
        self.method, self.rows = method, rows

    def _unpack(self, row: tuple) -> Estimate:
        return _as_estimate(Detection(*row[:3]), self.method, row[3:])

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Estimates(self.method, self.rows[i])
        return self._unpack(self.rows[i].item())

    def __iter__(self):
        return map(self._unpack, self.rows.tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence) or isinstance(other, (str, bytes)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __repr__(self) -> str:
        return f"Estimates({self.method!r}, {list(self)!r})"


def coarse_detect(
    surface: AmbiguitySurface, theta: float, params: RadarParams
) -> list[Detection]:
    """All cells with |A| > theta, one survivor per main lobe.

    Suppression covers a (floor(M/N_f), floor(N/N_t)) half-extent
    neighborhood, clipped to the surface's lags and circular along the
    Doppler axis.  The hits are walked once in descending magnitude: a hit
    on a cell no kept hit's lobe covers is kept, and its lobe is painted
    into a boolean mask of the surface, every bin of its lags when the
    Doppler extent spans the row.  So the cost is one pass over the hits
    plus one painted lobe per kept hit, and a hit is kept exactly when it
    lies in no earlier survivor's neighborhood.  Returns detections in that
    order; an empty list means nothing crossed theta.
    """
    _check_threshold(theta)
    mag = surface.magnitude.ravel()
    nbins = surface.n_bins
    # Row-major flat indices, the order the 2-D np.nonzero gives, found
    # without its per-axis index pass over the whole mask.
    flat = np.flatnonzero(mag > theta)
    if flat.size == 0:
        return []
    peaks = mag[flat]
    order = np.argsort(peaks)[::-1]
    r_ell, r_k = params.lobe_half_extents
    blocked = np.zeros(surface.values.shape, dtype=bool)
    blocked_flat = blocked.ravel()  # a view: a flat hit index reads the painted lobes
    kept: list[tuple[int, int, float]] = []
    for idx, peak in zip(flat[order].tolist(), peaks[order].tolist()):
        if blocked_flat[idx]:
            continue
        row, col = divmod(idx, nbins)
        kept.append((row, col, peak))
        # Bins col - r_k .. col + r_k modulo nbins: the in-range part, then
        # the part wrapped round either end.  When 2 r_k + 1 >= nbins the
        # two parts meet and cover the whole row.
        lobe = blocked[max(row - r_ell, 0) : row + r_ell + 1]
        lobe[:, max(col - r_k, 0) : col + r_k + 1] = True
        if col < r_k:
            lobe[:, col - r_k :] = True
        elif col + r_k >= nbins:
            lobe[:, : col + r_k + 1 - nbins] = True
    # the lag ell_min + row and surface.signed_bin(col), computed inline per kept hit
    ell_min, half = int(surface.ell_min), nbins // 2
    return [
        Detection(ell_min + row, col - nbins if col > half else col, peak)
        for row, col, peak in kept
    ]


def _check_threshold(theta: float) -> None:
    if not theta > 0:
        raise ValueError(f"threshold must be positive, got {theta}")


def refine_window(lag_window: tuple[int, int], params: RadarParams) -> tuple[int, int]:
    """``lag_window`` widened by the lobe half-extent of lags, the most any
    refinement reads around a detection, clipped to +-(NM-1); at a clipped
    end the refiners read only the lags it holds (module docstring)."""
    ext, max_lag = params.lobe_half_extents[0], params.frame_len - 1
    return max(lag_window[0] - ext, -max_lag), min(lag_window[1] + ext, max_lag)


def coarse_stage(
    r: ComplexSignal,
    s: ComplexSignal,
    theta: float,
    params: RadarParams,
    lag_window: tuple[int, int],
) -> tuple[AmbiguitySurface | None, list[Detection]]:
    """The surface normalized by ``s.energy`` around the live lags of the
    window, and the ``coarse_detect`` detections on the live lags.

    A lag passes the l1 screen unless its ``lag_peak_bounds`` bound B
    satisfies B (1 + SCREEN_MARGIN) <= theta * norm, and the grid screen
    unless its ``grid_peak_bounds`` bound D satisfies
    D + SCREEN_MARGIN * B <= theta * norm; a NaN bound passes.  A lag is
    live when it passes both, and no other lag has a cell above theta.
    The grid screen runs only from the two ends of the span of lags that
    pass the l1 screen inward, by ``_trim_ends``, until a live lag stops
    each end.  Detection reads the first to the last live lag only, so the
    hits, their order and the detections equal those of the full-window
    surface.  The surface spans those lags widened by ``refine_window``, so
    it holds every lag a refinement of a detection reads.  Every input
    check of ``discrete_ambiguity`` and ``coarse_detect`` runs before the
    screen.  Returns (None, []) when no lag is live.
    """
    bounds = lag_peak_bounds(r, s, lag_window, params)
    norm = s.energy
    check_norm(norm)
    _check_threshold(theta)
    level = theta * norm
    passed = np.flatnonzero(~(bounds * (1.0 + SCREEN_MARGIN) <= level))
    if passed.size == 0:
        return None, []
    ell0 = lag_window[0]
    span = ell0 + int(passed[0]), ell0 + int(passed[-1])
    grid = grid_peak_bounds(r, s, span, params)

    def live(*ranges: tuple[int, int]) -> np.ndarray:
        b = np.concatenate([bounds[lo - ell0 : hi - ell0 + 1] for lo, hi in ranges])
        d = grid(*ranges)
        return ~(b * (1.0 + SCREEN_MARGIN) <= level) & ~(d + SCREEN_MARGIN * b <= level)

    trimmed = _trim_ends(*span, live)
    if trimmed is None:
        return None, []
    surface = discrete_ambiguity(r, s, refine_window(trimmed, params), params, norm=norm)
    return surface, coarse_detect(surface.rows(*trimmed), theta, params)


def _trim_ends(lo: int, hi: int, live) -> tuple[int, int] | None:
    """The first and last lag of [lo, hi] that ``live`` passes; None when none does.

    ``live(*ranges)`` takes inclusive lag ranges and returns a boolean per
    lag of the ranges, in order.  The walk screens a chunk of lags at each
    unresolved end, both in one call, starting at ``FIRST_CHUNK`` lags and
    doubling while a chunk holds no live lag; once the two chunks would
    meet, it screens the rest in one call.  So it screens at most twice the
    lags it trims plus ``FIRST_CHUNK`` at each end.
    """
    chunk, low, high = FIRST_CHUNK, False, False
    while not (low and high):
        if not (low or high) and hi - lo + 1 <= 2 * chunk:
            hits = np.flatnonzero(live((lo, hi)))
            return (lo + int(hits[0]), lo + int(hits[-1])) if hits.size else None
        ranges = []
        if not low:
            ranges.append((lo, min(lo + chunk - 1, hi)))
        if not high:
            ranges.append((max(hi - chunk + 1, lo), hi))
        passed = live(*ranges)
        if not low:
            size = ranges[0][1] - lo + 1
            hits = np.flatnonzero(passed[:size])
            low = hits.size > 0
            lo += int(hits[0]) if low else size
            passed = passed[size:]
        if not high:
            hits = np.flatnonzero(passed)
            high = hits.size > 0
            hi = ranges[-1][0] + int(hits[-1]) if high else ranges[-1][0] - 1
        chunk *= 2
    return lo, hi


def _stencil_offset(minus: float, center: float, plus: float) -> tuple[float, bool]:
    """Parabolic peak offset from three magnitudes; (0, True) when the
    stencil is flat (``FLAT_STENCIL_TOL``) or curves up."""
    denom = 4.0 * center - 2.0 * plus - 2.0 * minus
    if denom <= FLAT_STENCIL_TOL * center:
        return 0.0, True
    return (plus - minus) / denom, False


def refine_quadratic(surface: AmbiguitySurface, det: Detection) -> Estimate:
    """Closed-form fractional offsets from the five-point stencil at the peak;
    a stencil flat or clipped by the surface leaves its axis degenerate."""
    return _as_estimate(det, "quadratic", _quadratic(surface, det))


def _quadratic(surface: AmbiguitySurface, det: Detection) -> tuple:
    """The outcome of ``refine_quadratic``."""
    if not surface.contains_lag(det.l_hat):
        raise ValueError(f"detection lag {det.l_hat} outside [{surface.ell_min}, {surface.ell_max}]")
    mag = surface.magnitude
    n_rows, n_bins = mag.shape
    row, col = det.l_hat - surface.ell_min, det.k_hat % n_bins
    # Python floats: the same IEEE operations as on numpy scalars, without them
    center = mag.item(row, col)
    if 0 < row < n_rows - 1:
        eps_t, degen_t = _stencil_offset(mag.item(row - 1, col), center, mag.item(row + 1, col))
    else:
        eps_t, degen_t = 0.0, True
    eps_f, degen_f = _stencil_offset(
        mag.item(row, (col - 1) % n_bins), center, mag.item(row, (col + 1) % n_bins)
    )
    return _outcome(eps_t, eps_f, center, degenerate=degen_t or degen_f)


def _fit_patch(
    surface: AmbiguitySurface, det: Detection, params: RadarParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Magnitude patch and its (lag, bin) offsets around a detection."""
    r_ell, r_k = params.lobe_half_extents
    # the lags within r_ell of the detection that the surface holds
    lo, hi = max(-r_ell, surface.ell_min - det.l_hat), min(r_ell, surface.ell_max - det.l_hat)
    ell_off = np.arange(lo, hi + 1)
    k_off = np.arange(-r_k, r_k + 1)
    rows = (det.l_hat + ell_off) - surface.ell_min
    cols = (det.k_hat + k_off) % surface.n_bins
    patch = surface.magnitude[np.ix_(rows, cols)]
    return patch, ell_off, k_off


def _lobe_axes(ell_off: np.ndarray, k_off: np.ndarray, params: RadarParams) -> tuple:
    """The patch's two axes as one: the lag then the bin offsets as floats,
    each element's sinc numerator (N_f or N_t) and denominator (M or N), and
    the two axis sizes, so ``_sinc_fit`` evaluates the two factors of
    ``lobe_factors`` in one ``_abs_sinc`` call."""
    sizes = (ell_off.size, k_off.size)
    offsets = np.concatenate([ell_off, k_off]).astype(float)
    num = np.repeat([float(params.N_f), float(params.N_t)], sizes)
    den = np.repeat([float(params.M), float(params.N)], sizes)
    return offsets, num, den, sizes


def _sinc_fit(x: np.ndarray, y: np.ndarray, axes: tuple) -> tuple[float, np.ndarray, float]:
    """Residual of the lobe fit at offsets x, its exact gradient, and the gain.

    ``axes`` is the patch's ``_lobe_axes``.  Every element of the one
    ``_abs_sinc`` call goes through the IEEE operations the per-axis
    ``lobe_factors`` call gives it, so the factors are theirs bit for bit.
    The gain g = max(0, <y, m> / <m, m>) is optimal for every x, so by the
    envelope theorem the gradient is -2 g <y - g m, dm/dx>, with
    dm/dx_0 = -da b^T and dm/dx_1 = -a db^T from the separable factors.
    """
    offsets, num, den, sizes = axes
    f, df = _abs_sinc(offsets - np.repeat(x, sizes), num, den)
    n = sizes[0]
    a, b, da, db = f[:n], f[n:], df[:n], df[n:]
    m = a[:, None] * b[None, :]
    gain = max(0.0, float(np.sum(y * m) / np.sum(m * m)))
    res = y - gain * m
    grad = 2.0 * gain * np.array([da @ res @ b, a @ res @ db])
    return float(np.sum(res**2)), grad, gain


def refine_sinc2d(
    surface: AmbiguitySurface, det: Detection, params: RadarParams
) -> Estimate:
    """Least-squares fit of the sinc lobe model over the main-lobe patch,
    seeded with ``refine_quadratic``."""
    return _as_estimate(det, "sinc2d", _sinc2d(surface, det, params))


def _sinc2d(surface: AmbiguitySurface, det: Detection, params: RadarParams) -> tuple:
    """The outcome of ``refine_sinc2d``."""
    x0 = np.array(_quadratic(surface, det)[:2])
    patch, ell_off, k_off = _fit_patch(surface, det, params)
    peak = float(patch.max())
    y = patch / peak
    axes = _lobe_axes(ell_off, k_off, params)
    memo: dict[bytes, tuple] = {}

    def fit(x):
        # once per distinct x: the solver's first call is at the seed, its
        # line search may ask for a point again, and the candidates below
        # revisit the point it returns
        key = x.tobytes()
        if key not in memo:
            memo[key] = _sinc_fit(x, y, axes)
        return memo[key]

    seed_fit = fit(x0)
    if _stationary(x0, seed_fit[1]):
        best = x0  # seed already stationary
    else:
        from scipy.optimize import fmin_l_bfgs_b  # loaded by refiner("sinc2d")
        # fmin_l_bfgs_b hands ftol = factr * eps on to the solver; eps is a
        # power of two, so both scalings are exact and SOLVER["ftol"] arrives
        best = fmin_l_bfgs_b(
            lambda x: fit(x)[:2],
            x0,
            bounds=_FIT_BOUNDS,
            factr=SOLVER["ftol"] / np.finfo(float).eps,
            pgtol=SOLVER["gtol"],
            maxiter=SOLVER["maxiter"],
        )[0]
    # never worse than the seed or than leaving the offsets at zero
    candidates = [(np.zeros(2), fit(np.zeros(2))), (x0, seed_fit), (best, fit(best))]
    eps, (_, grad, gain) = min(candidates, key=lambda c: c[1][0])
    return _outcome(eps[0], eps[1], gain * peak, converged=_stationary(eps, grad))


def _stationary(x: np.ndarray, grad: np.ndarray) -> bool:
    """First-order stationary in the fit box: the gradient within
    ``SOLVER["stationary_tol"]``, components pinned at a bound they push against
    zeroed.  Not the solver's exit code, which calls a line search stalled
    at the objective's round-off floor "ABNORMAL"."""
    tol = SOLVER["stationary_tol"]
    return all(
        abs(g) <= tol or (xi <= lo and g > 0) or (xi >= hi and g < 0)
        for xi, g, (lo, hi) in zip(x, grad, _FIT_BOUNDS)
    )


# Every refinement method by name, each called as (surface, det, params) for
# an ``_outcome``; baseline keeps the coarse cell, the peak as amplitude.
REFINERS = {
    "sinc2d": _sinc2d,
    "quadratic": lambda surface, det, params: _quadratic(surface, det),
    "baseline": lambda surface, det, params: _outcome(0.0, 0.0, det.peak_mag),
}


def refiner(method: str):
    """The ``REFINERS`` row for ``method``; ValueError for an unknown name.
    Looking up ``sinc2d`` imports scipy's solver, before any timed refinement;
    a run that fits no sinc never loads scipy.  A ``sinc2d`` fit hands its
    objective straight to ``fmin_l_bfgs_b``; each call evaluates the lobe
    once for both axes, and a memo runs it once per distinct offset."""
    if method not in REFINERS:
        raise ValueError(f"unknown method {method!r}; expected one of {tuple(REFINERS)}")
    if method == "sinc2d":
        import scipy.optimize  # noqa: F401
    return REFINERS[method]


def estimate(
    r: ComplexSignal,
    s: ComplexSignal,
    theta: float,
    method: str,
    params: RadarParams,
    lag_window: tuple[int, int] | None = None,
) -> Estimates:
    """Full pipeline: screened ambiguity surface, threshold detection,
    refinement, one ``Estimates`` row per detection in detection order.

    The surface is normalized by the replica energy so ``theta`` is read
    against a unit-peak auto-ambiguity.  The lag window defaults to the
    detectability window; ``coarse_stage`` computes the one surface, on
    the live lags widened by the lobe half-extent, so no refinement reads
    past its edge.
    """
    refine = refiner(method)
    window = params.lag_window if lag_window is None else lag_window
    surface, detections = coarse_stage(r, s, theta, params, window)
    rows = [(d.l_hat, d.k_hat, d.peak_mag, *refine(surface, d, params)) for d in detections]
    return Estimates(method, np.array(rows, dtype=ESTIMATE_ROW))
