"""Cross-ambiguity surfaces and the separable sinc lobe model.

The discrete surface

    A[ell, k] = sum_j r[j] s*[j - ell] e^{-2 pi i k j / (N M)}

is computed for the whole lag window at once into a single zeroed
(n_lags, N M) array of products r[j] s*[j - ell].  The replica is nonzero
on one support band [first, last] (the paper's 160 of 1024 samples), so
each lag's row is nonzero only on its band [ell + first, ell + last], and
only the band's products are computed, for every lag through one diagonal
strided view of the array, from one zero-padded span of the echo (samples
outside the frame read zero).  The part of a band that crosses a frame end
multiplies those zeros into cells the full row leaves zero too.  A
one-sample replica is widened to a two-sample band with a zero sample of
s, so no band runs numpy's strided one-element multiply.  Each product is
the one the full row computes, by the same multiply, so only an exactly
zero part can flip sign.  The array is transformed by one batched FFT in
place and, when a normalization constant is given, scaled by its
reciprocal in place.  A positive true Doppler lands in a low positive bin;
bins above N M / 2 are read as negative frequencies.  Every |A| the
receiver reads is ``AmbiguitySurface.magnitude``, computed once and shared
by ``rows``.
Outside their own tests, ``AmbiguitySurface.normalized`` and ``extend_surface``
serve only the benchmark's traced mirror; ROADMAP item 1 deletes them.

Two bounds let a caller skip every lag whose cells cannot reach its
threshold before paying for the FFT.  No cell of lag ell can exceed
B[ell] = sum_j |r[j]| |s[j - ell]|, the l1 norm of that lag's product row
(triangle inequality); ``lag_peak_bounds`` computes B for a window as one
real correlation over the replica's nonzero support.  B ignores the
Doppler phase, so it passes every lag where |r| and |s| overlap.  The
Doppler-grid bound D[ell] of ``grid_peak_bounds`` does not: it is the
maximum of a G-point DFT of the lag's band of W products (G = 384 for the
paper's W = 160) over cos(pi (W - 1) / (2 G)), which by the van der
Corput-Schaake inequality no cell exceeds, and it costs one G-point FFT a
lag where the surface pays an N M-point one.

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
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .codes import CodeMatrix
from .config import RadarParams
from .waveform import ComplexSignal, evaluate_transmitted, radiated_span

CONFORMANCE_DELTA = 0.05
OVERSAMPLE = 8


@dataclass(frozen=True, eq=False)
class AmbiguitySurface:
    """Complex ambiguity values on [ell_min..ell_max] x all N M Doppler bins,
    read-only; pickles and copies rebuild through the constructor."""

    values: np.ndarray  # shape (n_lags, N*M)
    ell_min: int
    params: RadarParams  # only extend_surface reads it; the receiver passes params itself
    norm: float | None = None  # A_ss[0,0] when the surface has been normalized

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.complex128)
        if arr.ndim != 2:
            raise ValueError(f"surface values must be 2-D (lags, bins), got shape {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def __reduce__(self):
        return type(self), (self.values, self.ell_min, self.params, self.norm)

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


def _echo_band(
    r: ComplexSignal, s: ComplexSignal, ell_min: int, ell_max: int, widen: bool = False
) -> tuple[int, int, np.ndarray]:
    """The replica's support band [first, last] and the echo span its lags read.

    ``s`` is nonzero on [first, last] only, its cached ``support``; an
    all-zero replica takes the band [0, 0], whose products are all zero.
    With ``widen`` a one-sample band takes one zero sample of ``s`` beside
    it, the next one or, at the frame's last sample, the previous one.
    span[i] = r[ell_min + first + i] over ell_max - ell_min + last - first + 1
    samples, zero outside the frame, so lag ell reads r[ell + first ..
    ell + last] as span[ell - ell_min : ell - ell_min + last - first + 1].
    """
    first, last = s.support
    if widen and first == last:
        if last < len(s) - 1:
            last += 1
        else:
            first -= 1
    lo, hi = ell_min + first, ell_max + last + 1
    span = np.zeros(hi - lo, dtype=np.complex128)
    a, b = max(lo, 0), min(hi, len(r))
    if a < b:
        span[a - lo : b - lo] = r.samples[a:b]
    return first, last, span


def _windows(span: np.ndarray, n_lags: int, width: int) -> np.ndarray:
    """The (n_lags, width) view whose row i is span[i : i + width]; numpy
    raises ValueError if it would reach past the span."""
    return np.ndarray((n_lags, width), span.dtype, span, 0, span.strides * 2)


def _doppler_grid(width: int) -> int:
    """G of the Doppler-grid bound for a band of W samples: the smallest
    3-smooth 2^a 3^b >= 2.4 (W - 1), whose factor 1 / cos(pi (W-1) / (2 G))
    is at most 1 / cos(pi / 4.8), about 1.26."""
    need = max(-(-12 * (width - 1) // 5), 1)  # ceil(2.4 (W - 1)), at least 1
    # each 3^b, b <= log2(need) (3^b >= need by then), times the least 2^a reaching need
    return min(3**b << (-(-need // 3**b) - 1).bit_length() for b in range(need.bit_length()))


def _lagged_products(
    r: ComplexSignal, s: ComplexSignal, ell_min: int, ell_max: int
) -> np.ndarray:
    """Rows p_ell[j] = r[j] s*[j - ell], out-of-range shifts treated as zero.

    With the replica nonzero on [first, last] only, row ell is nonzero only
    on its band j = ell + u, u in [first, last].  Every lag gets
    r[ell + u] s*[u], read from the zero-padded echo span of ``_echo_band``,
    written through one diagonal strided view of a zeroed flat buffer whose
    contiguous middle is the (n_lags, n) result.  The part of a band that
    crosses a frame end is a product with the span's zeros; it lands in the
    buffer's margin before the first row or after the last, or in a
    neighbouring row outside that row's band, on cells the full row leaves
    zero too, since a band of W <= n samples spills at most n - 1 cells.
    A one-sample band is widened to two, since a band of one sample would
    run numpy's strided complex-multiply loop, which can round differently
    from the contiguous loop of a full row.
    """
    n = len(r)
    n_lags = ell_max - ell_min + 1
    first, last, span = _echo_band(r, s, ell_min, ell_max, widen=True)
    width = last - first + 1
    front = max(0, -(ell_min + first))
    back = max(0, ell_max + last - (n - 1))
    flat = np.zeros(front + n_lags * n + back, dtype=np.complex128)
    # lag ell's band starts at row ell - ell_min, column ell + first; numpy
    # raises ValueError if the view would reach past the buffer
    size = flat.itemsize
    band = np.ndarray(
        (n_lags, width), flat.dtype, flat, (front + ell_min + first) * size, ((n + 1) * size, size)
    )
    np.multiply(_windows(span, n_lags, width), np.conj(s.samples[first : last + 1]), out=band)
    return flat[front : front + n_lags * n].reshape(n_lags, n)


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
    zero part can flip sign; the same holds for the support band's products,
    one path for every lag, against the full-row product (module docstring).  The receiver
    computes every surface by this one call, and so do the tests outside
    the contract tests of ``normalized``.
    """
    _check_window(r, s, lag_window, params)
    if norm is not None:
        check_norm(norm)
    ell_min, ell_max = lag_window
    products = _lagged_products(r, s, ell_min, ell_max)
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
    support, ``s.support``, so the paper's replica costs its 160
    samples a lag and a dense one the whole frame; |r| is read only over
    the span the window's lags reach, as zero outside the frame.  Takes the
    signal and window checks of :func:`discrete_ambiguity`.
    """
    _check_window(r, s, lag_window, params)
    first, last, span = _echo_band(r, s, *lag_window)
    return np.correlate(np.abs(span), np.abs(s.samples[first : last + 1]), "valid")


def grid_peak_bounds(
    r: ComplexSignal,
    s: ComplexSignal,
    lag_window: tuple[int, int],
    params: RadarParams,
) -> Callable[..., np.ndarray]:
    """The Doppler-grid bound D[ell] on max_k |A[ell, k]|, as a function of lag ranges.

    With the replica nonzero on [first, last] only, W = last - first + 1,
    row ell of the surface is p[u] = r[ell + first + u] s*[first + u],
    u < W, shifted by ell + first samples (r is zero outside the frame).
    So |A[ell, k]| = |P(2 pi k / NM)| with P(x) = sum_u p[u] e^{-i u x}.
    The function Q(y) = e^{i (W-1) y} P(2 y) is a trigonometric polynomial
    of degree W - 1.  Let |Q| peak at y0 with value m, and let phi be the
    argument of Q(y0).  T(y) = Re(e^{-i phi} Q(y)) is real, of the same
    degree, peaks at y0 with value m and stays within [-m, m].  The van der
    Corput-Schaake inequality (Bernstein's, sharpened),
    T'^2 + (W-1)^2 T^2 <= (W-1)^2 m^2, then gives
    T(y0 + t) >= m cos((W-1) t) for |(W-1) t| <= pi.  Some point
    y_j = pi j / G lies within pi / (2 G) of y0, so for G > W - 1, where
    that cosine stays positive, |P(2 y_j)| = |Q(y_j)| >= T(y_j) >=
    m cos(pi (W-1) / (2 G)), and since max |Q| = max |P|,
    max_x |P| <= max_j |P(2 pi j / G)| / cos(pi (W-1) / (2 G)).  The
    P(2 pi j / G) are the G-point DFT of p zero-padded to G.  G is the
    smallest 3-smooth 2^a 3^b >= 2.4 (W - 1) (``_doppler_grid``), so the
    factor is at most 1 / cos(pi / 4.8) = 1.26: 384 and
    1 / cos(159 pi / 768) = 1.26 for the paper's W = 160, and 2592 for a
    dense replica at NM = 1024.  The paper's code peaks at 0.335 of the
    origin off its main lobe, far enough under the default threshold 0.5
    that the looser factor still proves its sidelobe lags dead; a
    320-point grid (factor 1.41) does not.

    A computed cell exceeds D[ell] by at most the rounding of the products
    and of the two FFTs (the grid's mixed-radix one included), of order
    log2(G) eps times the row's l1 norm, the ``lag_peak_bounds`` bound
    B[ell]; the coarse stage's ``SCREEN_MARGIN * B[ell]`` lies far above
    it (see SCREEN_MARGIN).

    Returns ``bounds(*ranges)``: D of every lag of the given inclusive
    ranges inside ``lag_window``, concatenated in order, from one batched
    FFT of the ranges' band products written into a zeroed (lags, G)
    array.  The zero-padded echo the bands read is built once, by this
    call.  Takes the signal and window checks of :func:`discrete_ambiguity`.
    """
    _check_window(r, s, lag_window, params)
    ell_min, ell_max = lag_window
    first, last, span = _echo_band(r, s, ell_min, ell_max)
    width = last - first + 1
    grid = _doppler_grid(width)
    scale = 1.0 / np.cos(np.pi * (width - 1) / (2 * grid))
    s_conj = np.conj(s.samples[first : last + 1])
    windows = _windows(span, ell_max - ell_min + 1, width)

    def bounds(*ranges: tuple[int, int]) -> np.ndarray:
        sizes = [hi - lo + 1 for lo, hi in ranges]
        spectra = np.zeros((sum(sizes), grid), dtype=np.complex128)
        row = 0
        for (lo, hi), size in zip(ranges, sizes):
            np.multiply(
                windows[lo - ell_min : hi - ell_min + 1], s_conj,
                out=spectra[row : row + size, :width],
            )
            row += size
        np.fft.fft(spectra, axis=1, out=spectra)
        return np.abs(spectra).max(axis=1) * scale

    return bounds


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
    the model is ``a * b``.  The sinc fit evaluates the same ``_abs_sinc``
    on both axes in one call, element for element these factors.
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
