import itertools
import math

import numpy as np
import pytest

from ddradar import (
    ChannelTruth,
    add_noise,
    apply_channel,
    apply_receive_gating,
    make_params,
    random_code,
    synthesize_discrete,
)
from ddradar.waveform import ComplexSignal, evaluate_transmitted, radiated_span


def dense_channel(code, params, truth):
    """Full-frame oracle: alpha s(j - delay) e^{2 pi i doppler j / (N M)} at
    every sample j, multiplied in apply_channel's order (numpy's complex
    products can round differently when their operands are swapped)."""
    j = np.arange(params.frame_len)
    echo = evaluate_transmitted(code, params, j - truth.delay)
    return truth.alpha * echo * np.exp(2j * np.pi * truth.doppler * j / params.frame_len)


def h_matrix(truth, params, n_rows, n_cols):
    """Ideal-sinc interpolation channel matrix H of shape (n_rows, n_cols).

    It models DA conversion -> delay/Doppler -> AD conversion with ideal sinc
    filters, an oracle independent of the sampled pulse train.  In cells,
    with d the delay in samples and nu = doppler / (N M) the Doppler in
    cycles per sample,
    H[i, j] = b e^{i pi nu (d + i + j)} sinc(b (d + j - i)),
    b = max(0, 1 - |nu|), with the normalized sinc(x) = sin(pi x)/(pi x).
    """
    nu = truth.doppler / params.frame_len
    b = max(0.0, 1.0 - abs(nu))
    if b == 0.0:
        return np.zeros((n_rows, n_cols), dtype=np.complex128)
    i = np.arange(n_rows)[:, None]
    j = np.arange(n_cols)[None, :]
    phase = np.exp(1j * np.pi * nu * (truth.delay + i + j))
    lobe = np.sinc(b * (truth.delay + j - i))
    return b * phase * lobe


def h_matrix_received(signal, truth, params):
    """Oracle received frame r[i] = sum_{j<L} H[i, j] s[j] (no noise)."""
    H = h_matrix(truth, params, params.frame_len, params.L)
    return ComplexSignal(truth.alpha * (H @ signal.samples[: params.L]))


def test_decomposition_fractions_bounded():
    # delay in [128, 896] T_s, Doppler in [-512, 512] delta_f: the range ends
    # and half-cell ties, then 200 seeded draws
    edges = itertools.product((128.0, 128.5, 511.5, 896.0), (-512.0, -0.5, 0.0, 3.5, 512.0))
    draws = np.random.default_rng(0).uniform((128.0, -512.0), (896.0, 512.0), (200, 2))
    for delay, doppler in itertools.chain(edges, draws):
        truth = ChannelTruth(delay, doppler)
        assert abs(truth.eps_t) <= 0.5 and abs(truth.eps_f) <= 0.5
        assert truth.l_d + truth.eps_t == delay and truth.k_D + truth.eps_f == doppler


def test_decomposition_ties_round_half_even():
    t1 = ChannelTruth(200.5, -3.5)
    assert (t1.l_d, t1.k_D) == (200, -4)  # 200.5 rounds to the even integer
    t2 = ChannelTruth(201.5, 2.5)
    assert (t2.l_d, t2.k_D) == (202, 2)


@pytest.mark.parametrize("alpha", [complex("nan"), complex(1, math.inf), math.inf])
def test_truth_rejects_a_non_finite_gain(alpha):
    with pytest.raises(ValueError, match="alpha must be finite"):
        ChannelTruth(300.0, 1.0, alpha=alpha)


def test_integer_shift_is_exact(good_code):
    # every lag of the window, bit for bit, whatever T_c labels the cells
    for t_c in (1.0, 1e-6, 3e-7, 0.1):
        p = make_params(64, 16, 8, 8, t_c)
        s = synthesize_discrete(good_code, p).samples
        n = p.frame_len
        lo, hi = p.lag_window
        for l_d in range(lo, hi + 1):
            r = apply_channel(good_code, p, ChannelTruth(l_d, 0))
            shifted = np.zeros(n, dtype=complex)
            shifted[l_d:] = s[: n - l_d]
            assert np.array_equal(r.samples, shifted), (t_c, l_d)


def test_zero_attenuation_gives_zero_signal(p_default, good_code):
    truth = ChannelTruth(300.2, 3.7, alpha=0.0)
    r = apply_channel(good_code, p_default, truth)
    assert np.all(r.samples == 0)


def test_delay_window_enforced(p_default, good_code):
    low = ChannelTruth((p_default.N_t - 1) * p_default.M, 0)
    with pytest.raises(ValueError, match="outside detectability window"):
        apply_channel(good_code, p_default, low)


def test_doppler_preserves_magnitudes(p_default, good_code):
    base = ChannelTruth(300.3, 0)
    shifted = ChannelTruth(300.3, 7.45)
    r0 = apply_channel(good_code, p_default, base)
    r1 = apply_channel(good_code, p_default, shifted)
    assert np.allclose(np.abs(r0.samples), np.abs(r1.samples), atol=1e-12)


def test_integer_channel_correlation_peak(p_default, good_code, s_paper):
    l_d = 345
    truth = ChannelTruth(l_d, 0)
    r = apply_channel(good_code, p_default, truth)
    corr = np.abs(np.correlate(r.samples, s_paper.samples, mode="full"))
    assert int(np.argmax(corr)) - (p_default.frame_len - 1) == l_d


@pytest.mark.parametrize(
    "geometry, delay, expected",
    [
        ((64, 16, 8, 8, 1.0), 0.0, (0, 161)),  # support [0, 160) plus a guard
        ((64, 16, 8, 8, 1.0), 300.25, (300, 462)),  # j in [301, 460] plus guards
        ((64, 16, 8, 8, 1.0), 896.0, (895, 1024)),  # clipped at the frame end
        ((32, 4, 4, 2, 3.7), 100.5, (100, 126)),  # j in [101, 124] plus guards
    ],
)
def test_radiated_span(geometry, delay, expected):
    p = make_params(*geometry)
    span = radiated_span(p, delay)
    assert (span.start, span.stop) == expected


def _span_cases():
    """(geometry, delay in samples) at both window edges and on both sides of
    an integer sample, for the paper geometry and five others.  At M = 12
    with T_c = 1e-6, the window's first lag 36 times T_s rounds below
    N_t T_c, so a window test in seconds rejects a target on that edge."""
    for geometry in [
        (64, 16, 8, 8, 1.0),
        (64, 16, 8, 8, 1e-6),
        (16, 8, 2, 4, 1.0),
        (32, 4, 4, 2, 3.7),
        (64, 64, 8, 8, 1.0),
        (16, 12, 3, 2, 1e-6),
    ]:
        N, M, N_t = geometry[:3]
        lo, hi = N_t * M, (N - N_t) * M  # the window edges in samples
        k = (lo + hi) // 2
        for delay in [lo, hi, hi - 0.5, k - 1e-12, k + 1e-12, k - 0.5, k + 0.5]:
            yield geometry, delay


@pytest.mark.parametrize("geometry, delay", list(_span_cases()))
def test_channel_on_span_matches_full_frame(geometry, delay):
    p = make_params(*geometry)
    code = random_code(p, 5)
    for alpha, doppler in [(1.0 + 0j, 0.0), (0.6 - 1.3j, 3.37), (-0.2 + 0.9j, -7.5)]:
        truth = ChannelTruth(delay, doppler, alpha)
        r = apply_channel(code, p, truth).samples
        assert np.array_equal(r.view(np.float64), dense_channel(code, p, truth).view(np.float64))


def test_h_matrix_identity_at_origin(p_default):
    truth = ChannelTruth(0, 0)
    H = h_matrix(truth, p_default, 6, 6)
    assert np.allclose(H, np.eye(6), atol=1e-12)


def test_h_matrix_vanishes_beyond_nyquist(p_default):
    truth = ChannelTruth(0, p_default.frame_len)  # nu = 1 cycle per sample
    assert np.all(h_matrix(truth, p_default, 4, 4) == 0)


def test_h_matrix_half_sample_delay_values(p_default):
    # no Doppler, half-sample delay: H[i, j] = sinc(0.5 + (j - i)), real-valued
    truth = ChannelTruth(0.5, 0)
    H = h_matrix(truth, p_default, 5, 5)
    assert np.max(np.abs(H.imag)) == 0
    for i in range(5):
        for j in range(5):
            assert H[i, j].real == pytest.approx(np.sinc(0.5 + (j - i)), abs=1e-12)
    assert H[1, 1].real == pytest.approx(2 / math.pi, rel=1e-12)
    assert H[2, 1].real == pytest.approx(2 / math.pi, rel=1e-12)
    assert H[1, 2].real == pytest.approx(-2 / (3 * math.pi), rel=1e-12)


def test_h_matrix_oracle_agrees_with_direct_channel(p_default, good_code, s_paper):
    for l_d, eps_t, k_D, eps_f in [(300, 0.3, 0, 0.0), (300, 0.3, 5, 0.2)]:
        truth = ChannelTruth(l_d + eps_t, k_D + eps_f)
        direct = apply_channel(good_code, p_default, truth)
        oracle = h_matrix_received(s_paper, truth, p_default)
        rel = np.sum(np.abs(direct.samples - oracle.samples) ** 2) / np.sum(
            np.abs(direct.samples) ** 2
        )
        assert rel <= 1e-3


def test_noiseless_flag_returns_input(p_default, s_paper):
    out = add_noise(s_paper, math.inf, seed=1, params=p_default, ref_energy=s_paper.energy)
    assert out is s_paper


def test_noise_variance_calibration(p_default):
    zero = ComplexSignal(np.zeros(p_default.frame_len))
    ref_energy = 4.0
    snr_db = 10.0
    sigma2 = ref_energy / (p_default.frame_len * 10.0)
    samples = []
    for seed in range(1000):  # 1000 frames ~ 1e6 samples
        noisy = add_noise(zero, snr_db, seed, p_default, ref_energy)
        samples.append(noisy.samples)
    var = np.mean(np.abs(np.concatenate(samples)) ** 2)
    assert var == pytest.approx(sigma2, rel=0.01)


def test_noise_sigma_formula_at_30db(p_default):
    # sigma^2 = E / (1024 * 1000) for the (64, 16) geometry at 30 dB
    e = 4.0
    zero = ComplexSignal(np.zeros(p_default.frame_len))
    rng_out = add_noise(zero, 30.0, 7, p_default, e)
    expected_sigma2 = e / (1024 * 1000)
    var = np.mean(np.abs(rng_out.samples) ** 2)
    assert var == pytest.approx(expected_sigma2, rel=0.1)


def test_measured_snr_matches_request(p_default, good_code, s_paper):
    truth = ChannelTruth(300.25, 1.75)
    clean = apply_channel(good_code, p_default, truth)
    snr_db = 15.0
    noise_energy = 0.0
    frames = 100
    for seed in range(frames):
        noisy = add_noise(clean, snr_db, seed, p_default, s_paper.energy)
        noise_energy += np.sum(np.abs(noisy.samples - clean.samples) ** 2)
    sigma2_hat = noise_energy / (frames * p_default.frame_len)
    measured_db = 10 * math.log10(s_paper.energy / (p_default.frame_len * sigma2_hat))
    assert abs(measured_db - snr_db) <= 0.1


def test_noise_reproducible_and_seed_sensitive(p_default, s_paper):
    a = add_noise(s_paper, 20.0, 5, p_default, s_paper.energy)
    b = add_noise(s_paper, 20.0, 5, p_default, s_paper.energy)
    c = add_noise(s_paper, 20.0, 6, p_default, s_paper.energy)
    assert np.array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, c.samples)


def test_add_noise_rejects_bad_reference(p_default, s_paper):
    # the check names ref_energy, not the valid snr_db, and runs before the
    # snr_db = inf shortcut
    for ref_energy in (0.0, math.nan, math.inf, -math.inf):
        for snr_db in (30.0, math.inf):
            with pytest.raises(ValueError, match="^ref_energy must be positive and finite, got"):
                add_noise(s_paper, snr_db, 1, p_default, ref_energy)


@pytest.mark.parametrize("snr_db", [math.nan, -math.inf, 4000, -4000])
def test_add_noise_rejects_nan_and_minus_inf_snr(p_default, s_paper, snr_db):
    with pytest.raises(ValueError, match="snr_db must be a number or \\+inf"):
        add_noise(s_paper, snr_db, 1, p_default, s_paper.energy)


def test_gating_zeroes_transmit_window(p_default):
    ones = ComplexSignal(np.ones(p_default.frame_len))
    gated = apply_receive_gating(ones, p_default)
    assert np.all(gated.samples[:160] == 0)
    assert np.all(gated.samples[160:] == 1)


def test_gating_idempotent(p_default, s_paper):
    once = apply_receive_gating(s_paper, p_default)
    twice = apply_receive_gating(once, p_default)
    assert np.array_equal(once.samples, twice.samples)
