"""Cross-ambiguity surfaces and the separable sinc lobe model.

The discrete surface

    A[ell, k] = sum_j r[j] s*[j - ell] e^{-2 pi i k j / (N M)}

is computed for the whole lag window at once: the shifted replica rows are
one strided view into a zero-padded conjugate replica (shifted indices
outside the frame read zero), multiplied by the echo into a single
(n_lags, N M) array, transformed by one batched FFT in place, and, when a
normalization constant is given, scaled by its reciprocal in place.  A
positive true Doppler lands in a low positive bin; bins above N M / 2 are
read as negative frequencies.  Every |A| the receiver reads is
``AmbiguitySurface.magnitude``, computed once and shared by ``rows``.
Outside their own tests, ``AmbiguitySurface.normalized`` and ``extend_surface``
serve only the benchmark's traced mirror; ROADMAP item 1 deletes them.

No cell of lag ell can exceed B[ell] = sum_j |r[j]| |s[j - ell]|, the l1
norm of that lag's product row (triangle inequality).  ``lag_peak_bounds``
computes B for a window as one real correlation over the replica's nonzero
support, so a caller can skip every lag whose bound cannot reach its
threshold before paying for the FFT.

Near its peak the auto-ambiguity of a well-chosen code follows the
separable model |sinc(N_f ell / M)| * |sinc(N_t k / N)|; the conformance
screen takes the auto-ambiguity of the radiated pulse train, the signal the
transmitter sends, sampled on the train's ``radiated_span`` (every other
sample of the replica is zero), measures its worst deviation from that
model along the two lobe axis cuts, at a fixed OVERSAMPLE points per cell,
and accepts the code when it stays within the fixed CONFORMANCE_DELTA.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .codes import CodeMatrix
from .config import RadarParams
from .waveform import ComplexSignal, evaluate_transmitted, radiated_span

CONFORMANCE_DELTA = 0.05
OVERSAMPLE = 8


@dataclass(frozen=True)
class AmbiguitySurface:
    """Complex ambiguity values on [ell_min..ell_max] x all N M Doppler bins."""

    values: np.ndarray  # shape (n_lags, N*M)
    ell_min: int
    params: RadarParams  # only extend_surface reads it; the receiver passes params itself
    norm: float | None = None  # A_ss[0,0] when the surface has been normalized

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.complex128)
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def ell_max(self) -> int:
        return self.ell_min + self.values.shape[0] - 1

    @property
    def n_bins(self) -> int:
        return self.values.shape[1]

    def contains_lag(self, ell: int) -> bool:
        return self.ell_min <= ell <= self.ell_max

    @functools.cached_property
    def magnitude(self) -> np.ndarray:
        """|A| = np.abs(values), computed on first read, read-only."""
        mag = np.abs(self.values)
        mag.setflags(write=False)
        return mag

    def rows(self, ell_lo: int, ell_hi: int) -> "AmbiguitySurface":
        """Lags [ell_lo, ell_hi] as a surface sharing their ``values`` and ``magnitude`` rows."""
        if not (self.contains_lag(ell_lo) and self.contains_lag(ell_hi) and ell_lo <= ell_hi):
            raise ValueError(f"lags [{ell_lo}, {ell_hi}] outside [{self.ell_min}, {self.ell_max}]")
        start, stop = ell_lo - self.ell_min, ell_hi - self.ell_min + 1
        sub = AmbiguitySurface(self.values[start:stop], ell_lo, self.params, norm=self.norm)
        sub.__dict__["magnitude"] = self.magnitude[start:stop]
        return sub

    def normalized(self, a0: float) -> "AmbiguitySurface":
        """Scale by A_ss[0,0] = signal energy; only tests and perfbench's mirror call it."""
        check_norm(a0)
        return AmbiguitySurface(self.values / a0, self.ell_min, self.params, norm=a0)

    def signed_bin(self, col: int) -> int:
        """Map a column index to the signed Doppler bin."""
        return col - self.n_bins if col > self.n_bins // 2 else col


def check_norm(a0: float) -> None:
    """Raise ValueError unless a normalization constant is positive and finite."""
    if not 0 < a0 < np.inf:
        raise ValueError(f"normalization constant must be positive and finite, got {a0}")


def _check_window(
    r: ComplexSignal, s: ComplexSignal, lag_window: tuple[int, int], params: RadarParams
) -> None:
    """Raise ValueError for signals off the frame length or a lag window that
    is empty or reaches past +-(NM-1)."""
    n = params.frame_len
    if len(r) != n or len(s) != n:
        raise ValueError(
            f"signals must have frame length {n}, got {len(r)} and {len(s)}"
        )
    ell_min, ell_max = lag_window
    if ell_max < ell_min:
        raise ValueError(f"empty lag window {lag_window}")
    if ell_min < -(n - 1) or ell_max > n - 1:
        raise ValueError(f"lag window {lag_window} outside [-(NM-1), NM-1]")


def _lagged_products(
    r: np.ndarray, s: np.ndarray, ell_min: int, ell_max: int
) -> np.ndarray:
    """Rows p_ell[j] = r[j] s*[j - ell], out-of-range shifts treated as zero.

    Row ell of the shifted replica is pad[n-1-ell : 2n-1-ell], so the whole
    window is a reversed slice of the sliding-window view, taken without a
    copy; the only allocation is the product itself.
    """
    n = r.shape[0]
    pad = np.zeros(3 * n - 2, dtype=np.complex128)
    pad[n - 1 : 2 * n - 1] = np.conj(s)
    shifted = sliding_window_view(pad, n)[n - 1 - ell_max : n - ell_min][::-1]
    return r * shifted


def discrete_ambiguity(
    r: ComplexSignal,
    s: ComplexSignal,
    lag_window: tuple[int, int],
    params: RadarParams,
    norm: float | None = None,
) -> AmbiguitySurface:
    """FFT-based cross-ambiguity over an inclusive window of integer lags.

    With ``norm`` (A_ss[0,0], the replica energy) the float64 view is scaled
    by ``1.0 / norm`` in place.  numpy divides a complex array by a real
    scalar as ``(a + b*0) * (1/norm)`` and ``(b - a*0) * (1/norm)``, so every
    value equals ``values / norm``, every |A| bit for bit, and only an exactly
    zero part can flip sign.  The receiver computes every surface by this one
    call, and so do the tests outside the contract tests of ``normalized``.
    """
    _check_window(r, s, lag_window, params)
    if norm is not None:
        check_norm(norm)
    ell_min, ell_max = lag_window
    products = _lagged_products(r.samples, s.samples, ell_min, ell_max)
    values = np.fft.fft(products, axis=1, out=products)
    if norm is not None:
        # Equal to values / norm: numpy's complex-by-real division scales
        # each part by 1/norm, and the float view skips its complex loop.
        values.view(np.float64)[...] *= 1.0 / norm
    return AmbiguitySurface(values, ell_min, params, norm=norm)


def lag_peak_bounds(
    r: ComplexSignal,
    s: ComplexSignal,
    lag_window: tuple[int, int],
    params: RadarParams,
) -> np.ndarray:
    """B[ell] = sum_j |r[j]| |s[j - ell]| for each lag of an inclusive window.

    No cell of lag ell of the unnormalized surface exceeds B[ell], and a
    single-impulse echo attains it.  The sum runs over the replica's nonzero
    support, found from ``s`` itself, so the paper's replica costs its 160
    samples a lag and a dense one the whole frame; |r| is read only over
    the span the window's lags reach, as zero outside the frame.  Takes the
    signal and window checks of :func:`discrete_ambiguity`.
    """
    _check_window(r, s, lag_window, params)
    ell_min, ell_max = lag_window
    s_abs = np.abs(s.samples)
    support = np.flatnonzero(s_abs)
    if support.size == 0:
        return np.zeros(ell_max - ell_min + 1)
    first, last = int(support[0]), int(support[-1])
    # lag ell reads r[first + ell .. last + ell]
    lo, hi = first + ell_min, last + ell_max + 1
    span = np.zeros(hi - lo)
    a, b = max(lo, 0), min(hi, len(r))
    if a < b:
        span[a - lo : b - lo] = np.abs(r.samples[a:b])
    return np.correlate(span, s_abs[first : last + 1], "valid")


def extend_surface(
    surface: AmbiguitySurface,
    r: ComplexSignal,
    s: ComplexSignal,
    ell_lo: int,
    ell_hi: int,
) -> AmbiguitySurface:
    """Grow to [ell_lo, ell_hi] by the missing lags; only a test and perfbench's mirror call it."""
    lo = min(ell_lo, surface.ell_min)
    hi = max(ell_hi, surface.ell_max)
    if lo == surface.ell_min and hi == surface.ell_max:
        return surface
    blocks = []
    if lo < surface.ell_min:
        window = (lo, surface.ell_min - 1)
        blocks.append(discrete_ambiguity(r, s, window, surface.params, norm=surface.norm).values)
    blocks.append(surface.values)
    if hi > surface.ell_max:
        window = (surface.ell_max + 1, hi)
        blocks.append(discrete_ambiguity(r, s, window, surface.params, norm=surface.norm).values)
    return AmbiguitySurface(np.concatenate(blocks), lo, surface.params, norm=surface.norm)


def _abs_sinc(z, num: int, den: int) -> tuple[np.ndarray, np.ndarray]:
    """|sinc(num z / den)| and its derivative in z.

    On the grid w = num z / den in Z the derivative is taken as 0: at w = 0
    the lobe is smooth and flat, and at a null sign(0) = 0 gives the
    subgradient a central difference sees at that symmetric kink.
    """
    z = np.asarray(z, dtype=float)
    w = num * z / den
    s = np.sinc(w)
    on_grid = w == np.rint(w)
    slope = np.where(
        on_grid, 0.0, np.sign(s) * (np.cos(np.pi * w) - s) / np.where(on_grid, 1.0, z)
    )
    return np.abs(s), slope


def lobe_factors(ell, k, params: RadarParams) -> tuple[np.ndarray, ...]:
    """Per-axis factors of the sinc lobe model and their derivatives.

    Returns ``(a, da, b, db)`` with a = |sinc(N_f ell / M)|, da = da/dell,
    b = |sinc(N_t k / N)|, db = db/dk, for a delay offset ``ell`` in lags
    (units of T_s) and a Doppler offset ``k`` in bins (units of delta_f);
    the model is ``a * b``.  The sinc fit reads the factors and derivatives
    from here.
    """
    a, da = _abs_sinc(ell, params.N_f, params.M)
    b, db = _abs_sinc(k, params.N_t, params.N)
    return a, da, b, db


def sinc_model(ell, k, params: RadarParams):
    """Separable main-lobe model |sinc(N_f ell / M)| |sinc(N_t k / N)|.

    ``ell`` and ``k`` broadcast against each other.  Normalized so the
    origin evaluates to 1; intended validity is |ell| <= M/N_f,
    |k| <= N/N_t.
    """
    a, _, b, _ = lobe_factors(ell, k, params)
    return a * b


def sinc_conformance(code: CodeMatrix, params: RadarParams) -> tuple[float, bool]:
    """Score a code by its worst deviation from the sinc lobe model.

    Evaluates |A_ss| / |A_ss(0, 0)|, the normalized auto-ambiguity of the
    radiated pulse train, along the two main-lobe axis cuts, |ell| <= M/N_f
    lags at k = 0 and |k| <= N/N_t bins at ell = 0, with ``OVERSAMPLE``
    points per lag/bin, and returns (max deviation from the model over both
    cuts, deviation <= ``CONFORMANCE_DELTA``).  The cuts are where a skewed
    code betrays itself; the model says nothing useful about the lobe's
    corner regions, where every code carries ~0.1 of residual energy.

    The replica x is zero outside ``radiated_span``, so the sums run over
    the span's samples j only: one grid y[ell, j] = y(j - ell) from
    ``evaluate_transmitted`` gives the lag cut sum_j x[j] y*[ell, j], its
    ell = 0 row is x, and the Doppler cut is the DFT of |x|^2,
    sum_j |x[j]|^2 e^{-2 pi i k j / (N M)}.  Like the surface, both cuts are
    in samples and bins, so T_c does not enter.
    """
    n_ell = int(round(OVERSAMPLE * params.M / params.N_f))
    n_k = int(round(OVERSAMPLE * params.N / params.N_t))
    ell_grid = np.arange(-n_ell, n_ell + 1) / OVERSAMPLE  # lags
    k_grid = np.arange(-n_k, n_k + 1) / OVERSAMPLE  # bins
    span = radiated_span(params)
    j = np.arange(span.start, span.stop)
    shifted = j[None, :] - ell_grid[:, None]  # (n_ell, span)
    y = evaluate_transmitted(code, params, shifted.ravel()).reshape(shifted.shape)
    x = y[n_ell]  # ell = 0: the replica on its span
    tau_cut = np.conj(y) @ x
    nu_cut = np.exp(-2j * np.pi * (np.outer(k_grid, j) / params.frame_len)) @ (x * np.conj(x))
    a0 = abs(nu_cut[n_k])
    dev_tau = np.max(np.abs(np.abs(tau_cut) / a0 - sinc_model(ell_grid, 0.0, params)))
    dev_nu = np.max(np.abs(np.abs(nu_cut) / a0 - sinc_model(0.0, k_grid, params)))
    score = float(max(dev_tau, dev_nu))
    return score, score <= CONFORMANCE_DELTA


def write_surface(path: str | Path, surface: AmbiguitySurface) -> None:
    """Dump a surface as CSV rows ``ell,k,re,im,abs`` (k signed, abs = ``magnitude``)."""
    with open(path, "w") as fh:
        fh.write("ell,k,re,im,abs\n")
        for row, ell in enumerate(range(surface.ell_min, surface.ell_max + 1)):
            for col in range(surface.n_bins):
                v = surface.values[row, col]
                fh.write(
                    f"{ell},{surface.signed_bin(col)},{float(v.real)!r},"
                    f"{float(v.imag)!r},{float(surface.magnitude[row, col])!r}\n"
                )
