import cmath
import copy
import pickle

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from ddradar import (
    ChannelTruth,
    CodeMatrix,
    RadarParams,
    add_noise,
    apply_receive_gating,
    discrete_ambiguity,
    evaluate_transmitted,
    make_params,
    random_code,
    reference_bad_code,
    reference_good_code,
    sinc_conformance,
    sinc_model,
    synthesize_discrete,
)
from ddradar.ambiguity import (
    CONFORMANCE_DELTA,
    OVERSAMPLE,
    AmbiguitySurface,
    _abs_sinc,
    _lagged_products,
    extend_surface,
    peak_bounds,
    write_surface,
)
from ddradar.estimator import SCREEN_MARGIN
from ddradar.waveform import ComplexSignal

from frames import echo


def direct_ambiguity(r, s, ells, n):
    """Defining double sum of the surface; quadratic cost, no FFT."""
    out = np.zeros((len(ells), n), dtype=complex)
    for i, ell in enumerate(ells):
        for k in range(n):
            acc = 0j
            for j in range(n):
                jj = j - ell
                if 0 <= jj < n:
                    acc += r[j] * np.conj(s[jj]) * cmath.exp(-2j * cmath.pi * k * j / n)
            out[i, k] = acc
    return out


def continuous_ambiguity(
    x_samples: ComplexSignal,
    y_code: CodeMatrix,
    lags: np.ndarray,
    bins: np.ndarray,
    params: RadarParams,
) -> np.ndarray:
    """Full-frame ambiguity between a sampled signal and a radiated one.

    A(ell, k) = sum_j x[j] y*(j - ell) e^{-2 pi i k j / (N M)} at fractional
    lags ell (samples) and bins k, where y is the radiated pulse train of
    ``y_code`` (``evaluate_transmitted``), over a grid of shape
    (len(lags), len(bins)).  On integer grid points this is the discrete
    surface, up to round-off.
    """
    n = params.frame_len
    if len(x_samples) != n:
        raise ValueError(f"x must have frame length {n}, got {len(x_samples)}")
    j = np.arange(n)
    shifted = j[None, :] - lags[:, None]  # (n_lags, NM)
    y = evaluate_transmitted(y_code, params, shifted.ravel()).reshape(shifted.shape)
    weighted = x_samples.samples[None, :] * np.conj(y)  # (n_lags, NM)
    doppler = np.exp(-2j * np.pi * (np.outer(j, bins) / n))  # (NM, n_bins)
    return weighted @ doppler


def test_zero_lag_zero_bin_is_energy(p_default, s_paper):
    surf = discrete_ambiguity(s_paper, s_paper, (0, 0), p_default)
    assert surf.values[0, 0] == pytest.approx(s_paper.energy, rel=1e-12)


def test_integer_channel_peak_location(p_default, good_code, s_paper):
    truth = ChannelTruth(200, 3)
    r = echo(good_code, p_default, [truth])
    surf = discrete_ambiguity(r, s_paper, p_default.lag_window, p_default)
    row, col = np.unravel_index(np.argmax(np.abs(surf.values)), surf.values.shape)
    assert surf.ell_min + row == 200
    assert surf.signed_bin(col) == 3


def test_fft_path_matches_direct_sum():
    p = make_params(4, 4, 1, 2, 1.0)
    n = p.frame_len
    rng = np.random.default_rng(7)
    r = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    s = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    ells = np.arange(-5, 9)
    surf = discrete_ambiguity(ComplexSignal(r), ComplexSignal(s), (-5, 8), p)
    oracle = direct_ambiguity(r, s, ells, n)
    assert np.max(np.abs(surf.values - oracle)) <= 1e-9


@pytest.mark.parametrize(
    "window",
    [(-15, 15), (-15, -15), (15, 15), (-15, -1), (-9, -3)],
    ids=["full", "first-lag", "last-lag", "negative-to-edge", "negative-interior"],
)
def test_edge_windows_match_direct_sum(window):
    # the strided view's slice bounds at and near both ends of the lag range
    p = make_params(4, 4, 1, 2, 1.0)
    n = p.frame_len
    rng = np.random.default_rng(11)
    r = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    s = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    surf = discrete_ambiguity(ComplexSignal(r), ComplexSignal(s), window, p)
    oracle = direct_ambiguity(r, s, np.arange(window[0], window[1] + 1), n)
    assert surf.values.shape == oracle.shape
    assert np.max(np.abs(surf.values - oracle)) <= 1e-9


def full_row_products(r, s, ell_min, ell_max):
    """Every lag's product over the whole frame, zeros included (oracle of
    the band): row ell is r times the conjugate replica shifted by ell."""
    n = r.shape[0]
    pad = np.zeros(3 * n - 2, dtype=np.complex128)
    pad[n - 1 : 2 * n - 1] = np.conj(s)
    return r * sliding_window_view(pad, n)[n - 1 - ell_max : n - ell_min][::-1]


def assert_band_matches_full_rows(r, s, window, p, norm):
    full = full_row_products(r, s, *window)
    assert np.array_equal(_lagged_products(ComplexSignal(r), ComplexSignal(s), *window), full)
    surf = discrete_ambiguity(ComplexSignal(r), ComplexSignal(s), window, p, norm=norm)
    expected = np.fft.fft(full, axis=1) / norm
    assert np.array_equal(surf.values, expected)
    assert np.array_equal(surf.magnitude, np.abs(expected))


def _band_replica(kind, p, rng):
    n = p.frame_len
    if kind == "code":
        return synthesize_discrete(random_code(p, seed=3), p).samples
    s = np.zeros(n, dtype=complex)
    if kind == "one-sample":
        s[5] = 0.3 - 1.1j
    elif kind == "one-sample-at-end":
        s[n - 1] = 0.3 - 1.1j  # widened by the sample before it
    elif kind == "two-sample":
        s[9:11] = [1.0 + 0.5j, -0.7j]
    elif kind == "last-sample":
        s[n - 7 :] = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    elif kind == "dense":
        s = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return s


@pytest.mark.parametrize(
    "geometry, kind",
    [
        ((16, 8, 2, 4), "code"),
        ((8, 4, 2, 2), "code"),
        ((8, 4, 2, 2), "one-sample"),
        ((8, 4, 2, 2), "one-sample-at-end"),
        ((8, 4, 2, 2), "zero"),
        ((8, 4, 2, 2), "last-sample"),
        ((8, 4, 2, 2), "two-sample"),
        ((8, 4, 2, 2), "dense"),
    ],
    ids=["16x8x2x4", "8x4x2x2", "one-sample", "one-sample-at-end", "zero-replica", "last-sample",
         "two-sample", "dense"],
)
def test_band_products_match_full_rows(geometry, kind):
    # bit for bit against the full-row product: the window at +-(NM-1), every
    # single-lag window, all-negative windows and windows with lags whose
    # band crosses a frame end; a one-sample replica is the band numpy's
    # strided multiply loop would round differently unless widened to two
    # samples (on the frame's last sample, by the one before it), and a
    # dense one (W = NM) spills at every lag but 0
    p = make_params(*geometry, 1.0)
    n = p.frame_len
    rng = np.random.default_rng(29)
    r = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    s = _band_replica(kind, p, rng)
    norm = float(np.sum(np.abs(s) ** 2)) or 1.0
    windows = [(-(n - 1), n - 1), (-(n - 1), -1), (-9, -3), (3, n // 2), (-4, n - 3)]
    windows += [(ell, ell) for ell in range(-(n - 1), n)]
    for window in windows:
        assert_band_matches_full_rows(r, s, window, p, norm)


@pytest.mark.parametrize(
    "window", [(126, 898), (246, 346), (-1023, 1023), (-200, 40)],
    ids=["clutter", "mc30-sized", "whole", "low-end"],
)
def test_band_products_match_full_rows_at_paper_geometry(p_default, good_code, s_paper, window):
    # a -10 dB clutter frame on the refine window of the detectability window,
    # on a screened window of about the rows a 30 dB frame keeps, and on two
    # windows with lags whose band crosses a frame end: the whole +-(NM-1)
    # window and one across the low end
    r = echo(good_code, p_default, [ChannelTruth(400.3, 1.8)], -10.0, seed=17)
    assert_band_matches_full_rows(r.samples, s_paper.samples, window, p_default, s_paper.energy)


def test_noise_only_surface_power_matches_its_expectation(p_default, s_paper):
    # On gated noise-only frames E|A[ell, k]|^2 of the normalized surface is
    # sigma^2 sum_j |s[j - ell]|^2 1[L <= j < NM] / E_s^2 in every bin, with
    # sigma^2 = E_s / (NM 10^{snr/10}); the mean over the detectability
    # window, frame by frame, must average to it within the frames' spread.
    n, window = p_default.frame_len, p_default.lag_window
    s, energy = s_paper.samples, s_paper.energy
    received = np.arange(p_default.L, n)  # the samples j the gate keeps
    gated_energy = np.array([
        sum(abs(s[j - ell]) ** 2 for j in received if 0 <= j - ell < n)
        for ell in range(window[0], window[1] + 1)
    ])
    quiet = ComplexSignal(np.zeros(n, dtype=complex))
    for snr_db, base_seed in ((-10.0, 100), (20.0, 200)):
        sigma2 = energy / (n * 10 ** (snr_db / 10.0))
        expected = sigma2 * np.mean(gated_energy) / energy**2
        ratios = []
        for seed in range(base_seed, base_seed + 20):
            r = apply_receive_gating(add_noise(quiet, snr_db, seed, p_default, energy), p_default)
            surf = discrete_ambiguity(r, s_paper, window, p_default, norm=energy)
            ratios.append(np.mean(surf.magnitude**2) / expected)
        mean, stderr = np.mean(ratios), np.std(ratios, ddof=1) / np.sqrt(len(ratios))
        assert abs(mean - 1.0) <= 4 * stderr, f"{snr_db} dB: ratio {mean:.4f} +- {stderr:.4f}"


def test_norm_argument_matches_normalized(p_default, good_code, s_paper):
    # the in-place reciprocal scaling against normalized()'s complex division:
    # equal values and bit-identical magnitudes
    truth = ChannelTruth(300.1, 1.2)
    r = echo(good_code, p_default, [truth])
    n = p_default.frame_len
    rng = np.random.default_rng(23)
    s_random = ComplexSignal(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    windows = [p_default.lag_window, (-(n - 1), -1), (-40, 25)]
    for s in (s_paper, s_random):
        for window in windows:
            direct = discrete_ambiguity(r, s, window, p_default, norm=s.energy)
            staged = discrete_ambiguity(r, s, window, p_default).normalized(s.energy)
            assert np.array_equal(direct.values, staged.values)
            assert np.array_equal(
                np.abs(direct.values).view(np.uint64), np.abs(staged.values).view(np.uint64)
            )
            assert direct.norm == staged.norm == s.energy
    assert discrete_ambiguity(r, s_paper, windows[0], p_default).norm is None


@pytest.mark.parametrize("norm", [0.0, -1.0, np.nan, np.inf])
def test_norm_argument_must_be_positive(p_default, s_paper, norm):
    with pytest.raises(ValueError, match="must be positive"):
        discrete_ambiguity(s_paper, s_paper, (0, 1), p_default, norm=norm)
    surf = discrete_ambiguity(s_paper, s_paper, (0, 1), p_default)
    with pytest.raises(ValueError, match="must be positive"):
        surf.normalized(norm)


def test_surface_validation(p_default, s_paper):
    with pytest.raises(ValueError, match="empty lag window"):
        discrete_ambiguity(s_paper, s_paper, (5, 4), p_default)
    with pytest.raises(ValueError, match="frame length"):
        discrete_ambiguity(ComplexSignal(np.ones(4)), s_paper, (0, 1), p_default)
    with pytest.raises(ValueError, match="outside"):
        discrete_ambiguity(s_paper, s_paper, (0, p_default.frame_len), p_default)


def test_signed_bin_wrapping(p_default, s_paper):
    surf = discrete_ambiguity(s_paper, s_paper, (0, 0), p_default)
    n = surf.n_bins
    assert surf.signed_bin(n - 1) == -1
    assert surf.signed_bin(1) == 1
    for col in (1, 5, n // 2, n // 2 + 1, n - 5, n - 1):
        assert surf.values[0, surf.signed_bin(col) % n] == surf.values[0, col]


def test_continuous_auto_origin_is_energy(p_default, good_code, s_paper):
    a00 = continuous_ambiguity(s_paper, good_code, np.zeros(1), np.zeros(1), p_default)[0, 0]
    assert abs(a00 - s_paper.energy) <= 1e-12 * s_paper.energy


def test_continuous_matches_discrete_on_grid(p_default, good_code, s_paper):
    truth = ChannelTruth(300.25, 2.25)
    r = echo(good_code, p_default, [truth])
    surf = discrete_ambiguity(r, s_paper, (290, 310), p_default)
    peak = np.max(np.abs(surf.values))
    rng = np.random.default_rng(0)
    for _ in range(10):
        ell = int(rng.integers(290, 311))
        k = int(rng.integers(-20, 21))
        cont = continuous_ambiguity(r, good_code, np.array([ell]), np.array([k]), p_default)[0, 0]
        disc = surf.values[ell - surf.ell_min, k % surf.n_bins]
        assert abs(cont - disc) <= 1e-12 * peak


def test_tau_axis_matches_sinc_lobe(p_square, good_code):
    # half-sample cut of the auto-ambiguity vs the lobe model
    s = synthesize_discrete(good_code, p_square)
    lags = np.array([0.5, 0.0])
    a, a0 = continuous_ambiguity(s, good_code, lags, np.zeros(1), p_square)[:, 0]
    model = abs(np.sinc(0.5 * p_square.N_f / p_square.M))
    assert abs(a) / abs(a0) == pytest.approx(model, rel=0.02)


def test_sinc_model_values(p_default):
    assert sinc_model(0.0, 0.0, p_default) == 1.0
    assert sinc_model(2.0, 0.0, p_default) == pytest.approx(0.0, abs=1e-15)
    assert sinc_model(1.0, 4.0, p_default) == pytest.approx((2 / np.pi) ** 2, rel=1e-12)


def test_sinc_model_broadcasts(p_default):
    ell = np.linspace(-2.0, 2.0, 9)
    k = np.linspace(-8.0, 8.0, 13)
    grid = sinc_model(ell[:, None], k[None, :], p_default)
    assert grid.shape == (9, 13)
    for i, j in np.ndindex(grid.shape):
        assert grid[i, j] == sinc_model(ell[i], k[j], p_default)


def test_sinc_model_nulls(p_default):
    assert p_default.lobe_half_extents == (2, 8)
    for mult in (1, 2, 3):
        assert sinc_model(mult * p_default.M / p_default.N_f, 0.3, p_default) == pytest.approx(0.0, abs=1e-12)
        assert sinc_model(0.7, mult * p_default.N / p_default.N_t, p_default) == pytest.approx(0.0, abs=1e-12)


def reference_abs_sinc(z, num, den):
    """``_abs_sinc`` written on ``np.sinc``: the bit-for-bit oracle of its
    inlined sinc and shared pi w."""
    z = np.asarray(z, dtype=float)
    w = num * z / den
    s = np.sinc(w)
    on_grid = w == np.rint(w)
    slope = np.where(
        on_grid, 0.0, np.sign(s) * (np.cos(np.pi * w) - s) / np.where(on_grid, 1.0, z)
    )
    return np.abs(s), slope


@pytest.mark.parametrize(
    "geometry",
    # (N, M, N_t, N_f): the paper's, and three more; at (20, 6, 4, 4)
    # N_f / M = 2/3, so num z / den rounds
    [(64, 16, 8, 8), (16, 8, 4, 4), (30, 12, 5, 6), (20, 6, 4, 4)],
    ids=lambda g: "x".join(map(str, g)),
)
def test_abs_sinc_equals_np_sinc_form_bit_for_bit(geometry):
    n, m, n_t, n_f = geometry
    rng = np.random.default_rng(17)
    j = np.arange(-40.0, 41.0)
    for num, den in ((n_f, m), (n_t, n)):
        cell = den / num  # one lobe-null spacing in z
        z = np.concatenate([
            [0.0, -0.0],
            j * cell,  # the grid: the origin and every null out to 40 lobes
            (j + 0.5) * cell,  # half cells
            rng.uniform(-3 * cell, 3 * cell, 2000),
            rng.uniform(-1e6, 1e6, 500),
            [1e6, -1e6],
        ])
        want = reference_abs_sinc(z, num, den)
        # sinc_model passes the integers, the sinc fit one float per element
        for args in ((num, den), (np.full(z.size, float(num)), np.full(z.size, float(den)))):
            got = _abs_sinc(z, *args)
            assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
        for zi in (0.0, -0.0, cell, 0.5 * cell, float(z[-3])):  # scalars, as sinc_model takes them
            got, want_i = _abs_sinc(zi, num, den), reference_abs_sinc(zi, num, den)
            assert [(type(g), g.tobytes()) for g in got] == [(type(w), w.tobytes()) for w in want_i]


def direct_bounds(r, s, ells, n):
    """Defining sum of the per-lag bound, sum_j |r[j]| |s[j - ell]|."""
    return np.array(
        [sum(abs(r[j]) * abs(s[j - ell]) for j in range(n) if 0 <= j - ell < n) for ell in ells]
    )


def assert_bounds_hold(r, s, window, p):
    """Every row's peak |A| under its bound, with the coarse stage's margin."""
    bounds = peak_bounds(r, s, window, p)[0]
    peaks = np.max(np.abs(discrete_ambiguity(r, s, window, p).values), axis=1)
    assert bounds.shape == peaks.shape == (window[1] - window[0] + 1,)
    assert np.all(peaks <= bounds * (1 + SCREEN_MARGIN))
    return bounds, peaks


@pytest.mark.parametrize("trim", [(0, 0), (3, 5)], ids=["dense", "zero-edged"])
def test_lag_bounds_on_dense_signals_over_every_lag(trim):
    # dense random signals, the whole +-(NM-1) range; "zero-edged" zeroes the
    # replica's first 3 and last 5 samples, so the support is found from s
    p = make_params(4, 4, 1, 2, 1.0)
    n = p.frame_len
    rng = np.random.default_rng(5)
    r = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    s = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    s[: trim[0]] = 0
    s[n - trim[1] :] = 0
    window = (-(n - 1), n - 1)
    bounds, _ = assert_bounds_hold(ComplexSignal(r), ComplexSignal(s), window, p)
    oracle = direct_bounds(r, s, range(window[0], window[1] + 1), n)
    assert np.allclose(bounds, oracle, rtol=1e-12, atol=0)
    for sub in [(-(n - 1), -(n - 1)), (n - 1, n - 1), (-4, 9)]:
        part = peak_bounds(ComplexSignal(r), ComplexSignal(s), sub, p)[0]
        assert np.array_equal(part, bounds[sub[0] + n - 1 : sub[1] + n])


def test_lag_bounds_attained_by_a_single_impulse(p_default, s_paper):
    # |A[ell, k]| = |r[j0]| |s[j0 - ell]| = B[ell] in every bin
    n = p_default.frame_len
    for j0 in (0, 500, n - 1):
        r = np.zeros(n, dtype=complex)
        r[j0] = 0.3 - 0.4j
        bounds, peaks = assert_bounds_hold(
            ComplexSignal(r), s_paper, (-(n - 1), n - 1), p_default
        )
        assert np.allclose(peaks, bounds, rtol=1e-12, atol=0)
        assert np.count_nonzero(bounds) == 160  # the replica's support


@pytest.mark.parametrize(
    "window",
    [(-1023, 1023), (-1023, -900), (900, 1023), (-1023, -1023), (1023, 1023), (128, 896)],
    ids=["full", "low-edge", "high-edge", "first-lag", "last-lag", "detectability"],
)
def test_lag_bounds_on_paper_replica_at_frame_edges(p_default, good_code, s_paper, window):
    truth = ChannelTruth(300.25, 1.75)
    r = echo(good_code, p_default, [truth], 10.0, seed=3)
    bounds, _ = assert_bounds_hold(r, s_paper, window, p_default)
    assert np.all(np.isfinite(bounds)) and np.all(bounds >= 0)


def grid_of(s):
    """The grid bound's G, the smallest 2^a 3^b >= 2.4 (W - 1) for the
    support width W of replica samples ``s``, and its factor
    1 / cos(pi (W-1) / (2 G))."""
    nonzero = np.flatnonzero(s)
    width = int(nonzero[-1] - nonzero[0] + 1)
    grid = min(
        2**a * 3**b for a in range(16) for b in range(10) if 5 * 2**a * 3**b >= 12 * (width - 1)
    )
    return grid, 1.0 / np.cos(np.pi * (width - 1) / (2 * grid))


def direct_grid_bounds(r, s, ells):
    """factor * max_j |sum_u p_ell[u] e^{-2 pi i j u / G}| for each lag, G and
    factor from ``grid_of``, with p_ell[u] = r[ell + first + u] s*[first + u]
    over the support band [first, first + W) of ``s``, r zero outside the
    frame; a direct sum, no FFT."""
    n = len(r)
    nonzero = np.flatnonzero(s)
    first, width = nonzero[0], nonzero[-1] - nonzero[0] + 1
    grid, factor = grid_of(s)
    u = np.arange(width)
    dft = np.exp(-2j * np.pi * np.outer(u, np.arange(grid)) / grid)  # (W, G)
    out = []
    for ell in ells:
        j = ell + first + u
        inside = (0 <= j) & (j < n)
        p = np.zeros(width, dtype=complex)
        p[inside] = r[j[inside]] * np.conj(s[first + u[inside]])
        out.append(factor * np.max(np.abs(p @ dft)))
    return np.array(out)


def assert_grid_bounds_hold(r, s, window, p):
    """Every row's peak |A| under its grid bound plus the coarse stage's
    slack SCREEN_MARGIN * B, and the bound equal to its direct sum
    ``direct_grid_bounds`` to 1e-12 relative, at every geometry."""
    r, s = ComplexSignal(r), ComplexSignal(s)
    l1, grid = peak_bounds(r, s, window, p)
    slack = SCREEN_MARGIN * l1
    bounds = grid(window)
    peaks = np.max(np.abs(discrete_ambiguity(r, s, window, p).values), axis=1)
    assert bounds.shape == peaks.shape == (window[1] - window[0] + 1,)
    assert np.all(peaks <= bounds + slack)
    oracle = direct_grid_bounds(r.samples, s.samples, range(window[0], window[1] + 1))
    assert np.allclose(bounds, oracle, rtol=1e-12, atol=0)
    return bounds, peaks


@pytest.mark.parametrize("snr_db", [30.0, -10.0])
def test_grid_bounds_on_paper_frames(p_default, good_code, s_paper, snr_db):
    # every lag of +-(NM-1): bands inside the frame and bands crossing either end
    n = p_default.frame_len
    r = echo(good_code, p_default, [ChannelTruth(400.3, 1.8)], snr_db, seed=17)
    assert_grid_bounds_hold(r.samples, s_paper.samples, (-(n - 1), n - 1), p_default)


@pytest.mark.parametrize("offset", [0.5, 1.0, 0.25])
def test_grid_bounds_on_a_tone_between_grid_frequencies(p_default, s_paper, offset):
    # A flat 160-sample replica against a tone: every lag's product is the
    # tone, so |A| peaks at its frequency with 160.  Half a bin of the
    # 384-point grid off a grid frequency is the grid's worst case for a
    # tone (the grid reads 1/1.075 of the peak), here on bin 100 of the
    # surface; a tone on a grid frequency is read exactly; a quarter bin
    # off lies on neither grid.
    n = p_default.frame_len
    nonzero = np.flatnonzero(s_paper.samples)
    s = np.zeros(n, dtype=complex)
    s[nonzero[0] : nonzero[-1] + 1] = 1.0
    grid, factor = grid_of(s)
    assert (grid, factor) == (384, 1.0 / np.cos(159 * np.pi / 768))
    j = np.arange(n)
    r = np.exp(2j * np.pi * (37 + offset) * j / 384)
    bounds, peaks = assert_grid_bounds_hold(r, s, (-(n - 1), n - 1), p_default)
    inside = slice(n - 1 - nonzero[0], 2 * n - 1 - nonzero[-1] - 1)  # bands inside the frame
    if offset == 0.5:  # on a bin of the surface
        assert np.allclose(peaks[inside], 160.0, rtol=1e-12)
        # the grid alone misses the peak: the 1/cos factor is needed
        assert np.all(bounds[inside] / factor < peaks[inside] / 1.07)
    if offset == 1.0:  # on a grid frequency: the grid reads the peak itself
        assert np.allclose(bounds[inside] / factor, 160.0, rtol=1e-12)


def test_grid_bounds_attain_a_single_impulse(p_default, s_paper):
    # |A[ell, k]| = |r[j0]| |s[j0 - ell]| in every bin: the grid reads it exactly
    n = p_default.frame_len
    for j0 in (0, 500, n - 1):
        r = np.zeros(n, dtype=complex)
        r[j0] = 0.3 - 0.4j
        bounds, peaks = assert_grid_bounds_hold(r, s_paper.samples, (-(n - 1), n - 1), p_default)
        assert np.allclose(bounds, peaks * grid_of(s_paper.samples)[1], rtol=1e-12, atol=0)


@pytest.mark.parametrize(
    "kind", ["one-sample", "one-sample-at-end", "two-sample", "two-spread", "dense", "code"]
)
def test_grid_bounds_on_small_replicas_over_every_lag(kind):
    # W = 1 (G = 1, factor 1), at sample 5 and on the frame's last sample,
    # W = 2 (G = 3), two samples with zeros between, a dense replica
    # (W = NM = 32, G = 81, an odd grid) and a code's replica, all lags
    p = make_params(8, 4, 2, 2, 1.0)
    n = p.frame_len
    rng = np.random.default_rng(31)
    r = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    s = np.zeros(n, dtype=complex)
    if kind == "one-sample":
        s[5] = 0.3 - 1.1j
    elif kind == "one-sample-at-end":
        s[n - 1] = 0.3 - 1.1j
    elif kind == "two-sample":
        s[9:11] = [1.0 + 0.5j, -0.7j]
    elif kind == "two-spread":
        s[[2, n - 3]] = [1.0, 0.4 + 0.4j]
    elif kind == "dense":
        s = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    else:
        s = synthesize_discrete(random_code(p, seed=3), p).samples
    assert_grid_bounds_hold(r, s, (-(n - 1), n - 1), p)


def test_grid_bounds_of_several_ranges_match_one_window(p_default, good_code, s_paper):
    # one call for several ranges returns each lag's bound of the one-window
    # call, bit for bit, in range order; and bounds built over a sub-window
    # (the span the l1 screen passes, one lag at either end of the window)
    # give each of its lags the B and D of the whole-window call, bit for bit
    r = echo(good_code, p_default, [ChannelTruth(300.25, 1.75)], 10.0, seed=3)
    window = (-40, 1023)
    l1, bounds = peak_bounds(r, s_paper, window, p_default)
    whole = bounds(window)
    for ranges in [((-40, -40),), ((1023, 1023), (-40, -38)), ((0, 7), (290, 310), (1000, 1023))]:
        want = np.concatenate([whole[lo + 40 : hi + 41] for lo, hi in ranges])
        assert np.array_equal(bounds(*ranges), want)
    passed = np.flatnonzero(~(l1 * (1.0 + SCREEN_MARGIN) <= 0.5 * s_paper.energy))
    span = (window[0] + int(passed[0]), window[0] + int(passed[-1]))
    assert window[0] < span[0] < span[1] < window[1]
    for lo, hi in [span, (-40, -40), (1023, 1023)]:
        sub_l1, sub_bounds = peak_bounds(r, s_paper, (lo, hi), p_default)
        assert np.array_equal(sub_l1, l1[lo + 40 : hi + 41])
        assert np.array_equal(sub_bounds((lo, hi)), whole[lo + 40 : hi + 41])


def test_lag_bounds_zero_replica_and_checks(p_default, s_paper):
    zero = ComplexSignal(np.zeros(p_default.frame_len))
    assert np.array_equal(peak_bounds(s_paper, zero, (-3, 4), p_default)[0], np.zeros(8))
    with pytest.raises(ValueError, match="empty lag window"):
        peak_bounds(s_paper, s_paper, (5, 4), p_default)
    with pytest.raises(ValueError, match="outside"):
        peak_bounds(s_paper, s_paper, (0, p_default.frame_len), p_default)
    with pytest.raises(ValueError, match="frame length"):
        peak_bounds(ComplexSignal(np.ones(4)), s_paper, (0, 1), p_default)


def test_grid_bounds_zero_replica_and_checks(p_default, s_paper):
    zero = ComplexSignal(np.zeros(p_default.frame_len))
    bounds = peak_bounds(s_paper, zero, (-3, 4), p_default)[1]
    assert np.array_equal(bounds((-3, 4)), np.zeros(8))
    assert np.array_equal(bounds((-3, -3), (0, 4)), np.zeros(6))
    with pytest.raises(ValueError, match="outside"):
        peak_bounds(s_paper, s_paper, (-p_default.frame_len, 0), p_default)


def test_conformance_separates_reference_codes(p_default, good_code, bad_code):
    score_good, ok_good = sinc_conformance(good_code, p_default)
    score_bad, ok_bad = sinc_conformance(bad_code, p_default)
    assert ok_good and score_good < 0.05
    assert not ok_bad and score_bad > 0.05
    # the screen computes in samples and bins: the same scores at any T_c
    for t_c in (1e-6, 3e-7, 0.1, 7.3):
        p = make_params(64, 16, 8, 8, t_c)
        assert sinc_conformance(good_code, p) == (score_good, ok_good), t_c
        assert sinc_conformance(bad_code, p) == (score_bad, ok_bad), t_c


def test_conformance_smoke_single_slot_code():
    # tiny code: score is reported but the model has no accuracy claim here
    p = make_params(4, 4, 1, 2, 1.0)
    code = CodeMatrix(np.array([[1, -1]]))
    score, _ = sinc_conformance(code, p)
    assert np.isfinite(score) and score >= 0


def full_frame_conformance(code, p):
    """The conformance score from the full-frame ``continuous_ambiguity`` cuts."""
    s = synthesize_discrete(code, p)
    n_ell = int(round(OVERSAMPLE * p.M / p.N_f))
    n_k = int(round(OVERSAMPLE * p.N / p.N_t))
    ell_grid = np.arange(-n_ell, n_ell + 1) / OVERSAMPLE
    k_grid = np.arange(-n_k, n_k + 1) / OVERSAMPLE
    tau_cut = continuous_ambiguity(s, code, ell_grid, np.zeros(1), p)[:, 0]
    nu_cut = continuous_ambiguity(s, code, np.zeros(1), k_grid, p)[0]
    a0 = abs(nu_cut[n_k])
    dev_tau = np.max(np.abs(np.abs(tau_cut) / a0 - sinc_model(ell_grid, 0.0, p)))
    dev_nu = np.max(np.abs(np.abs(nu_cut) / a0 - sinc_model(0.0, k_grid, p)))
    return float(max(dev_tau, dev_nu))


CONFORMANCE_GEOMETRIES = [(64, 16, 8, 8), (64, 64, 8, 8), (16, 8, 2, 4), (32, 4, 4, 2), (4, 4, 1, 2)]
REFERENCE_CODES = {"good": reference_good_code, "bad": reference_bad_code}


@pytest.mark.parametrize(
    "geometry,code_key",
    [(g, seed) for g in CONFORMANCE_GEOMETRIES for seed in range(6)]
    + [(g, key) for g in CONFORMANCE_GEOMETRIES[:2] for key in REFERENCE_CODES],
    ids=lambda v: "x".join(map(str, v)) if isinstance(v, tuple) else str(v),
)
def test_span_conformance_matches_full_frame_oracle(geometry, code_key):
    # the screen sums over radiated_span only; the oracle over the whole frame
    p = make_params(*geometry, 1.0)
    code = REFERENCE_CODES[code_key]() if code_key in REFERENCE_CODES else random_code(p, code_key)
    score, ok = sinc_conformance(code, p)
    oracle = full_frame_conformance(code, p)
    assert abs(score - oracle) <= 1e-12 * oracle
    assert ok == (oracle <= CONFORMANCE_DELTA)


def test_extend_surface_matches_direct(p_default, good_code, s_paper):
    truth = ChannelTruth(300.1, 1.2)
    r = echo(good_code, p_default, [truth])
    base = discrete_ambiguity(r, s_paper, (295, 305), p_default)
    grown = extend_surface(base, r, s_paper, 290, 312)
    direct = discrete_ambiguity(r, s_paper, (290, 312), p_default)
    assert grown.ell_min == 290 and grown.ell_max == 312
    assert np.array_equal(grown.values, direct.values)
    normalized = base.normalized(s_paper.energy)
    grown_norm = extend_surface(normalized, r, s_paper, 290, 312)
    assert np.array_equal(grown_norm.values, direct.normalized(s_paper.energy).values)


@pytest.mark.parametrize(
    "clone", [lambda x: pickle.loads(pickle.dumps(x)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
def test_records_rebuild_through_their_constructors(p_default, good_code, s_paper, clone):
    # a round trip returns a checked record with equal, read-only arrays;
    # the surface recomputes its magnitude
    surface = discrete_ambiguity(s_paper, s_paper, (-2, 2), p_default, norm=s_paper.energy)
    surface.magnitude  # cached before the round trip
    for record, field in ((good_code, "entries"), (s_paper, "samples"), (surface, "values")):
        twin = clone(record)
        assert type(twin) is type(record) and twin is not record
        array = getattr(twin, field)
        assert np.array_equal(array, getattr(record, field)) and not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = 7
    # the last twin is the surface's
    assert (twin.ell_min, twin.params, twin.norm) == (-2, p_default, s_paper.energy)
    assert "magnitude" not in twin.__dict__
    assert np.array_equal(twin.magnitude, surface.magnitude)
    assert not twin.magnitude.flags.writeable
    # the constructor's checks run: a code forged past them does not come back
    forged = object.__new__(CodeMatrix)
    object.__setattr__(forged, "entries", np.array([[1, 7]]))
    with pytest.raises(ValueError, match="must all be"):
        clone(forged)


def test_surface_rejects_values_that_are_not_2d(p_default):
    with pytest.raises(ValueError, match="surface values must be 2-D"):
        AmbiguitySurface(np.zeros(5), 0, p_default)


def test_rows_share_the_surface_magnitude(p_default, good_code, s_paper):
    truth = ChannelTruth(300.1, 1.2)
    r = echo(good_code, p_default, [truth])
    surf = discrete_ambiguity(r, s_paper, (290, 312), p_default, norm=s_paper.energy)
    assert np.array_equal(surf.magnitude, np.abs(surf.values))
    assert surf.magnitude is surf.magnitude  # computed once
    assert not surf.magnitude.flags.writeable
    sub = surf.rows(295, 300)
    assert (sub.ell_min, sub.ell_max, sub.norm) == (295, 300, surf.norm)
    assert np.shares_memory(sub.values, surf.values)
    assert np.shares_memory(sub.magnitude, surf.magnitude)
    assert np.array_equal(sub.values, surf.values[5:11])
    assert np.array_equal(sub.magnitude, surf.magnitude[5:11])
    for lo, hi in [(289, 300), (300, 313), (301, 300)]:
        with pytest.raises(ValueError):
            surf.rows(lo, hi)


def test_surface_csv_format(tmp_path, p_default, s_paper):
    surf = discrete_ambiguity(s_paper, s_paper, (0, 1), p_default)
    path = tmp_path / "surf.csv"
    write_surface(path, surf)
    lines = path.read_text().splitlines()
    assert lines[0] == "ell,k,re,im,abs"
    assert len(lines) == 1 + 2 * p_default.frame_len
    ell, k, re, im, mag = lines[1].split(",")
    assert (int(ell), int(k)) == (0, 0)
    assert float(re) == pytest.approx(s_paper.energy, rel=1e-12)
    assert float(mag) == pytest.approx(s_paper.energy, rel=1e-12)
