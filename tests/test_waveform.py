import cmath
import hashlib
import math
import pickle

import numpy as np
import pytest

from ddradar import (
    CodeMatrix,
    ComplexSignal,
    gaussian_pulse,
    make_params,
    random_code,
    synthesize_discrete,
)
from ddradar.waveform import evaluate_transmitted, read_signal, write_signal

# Energy of the reference good code at (64, 16, 8, 8), frozen from a
# term-by-term evaluation of the synthesis sum (see brute_synthesize below).
GOLDEN_ENERGY = 3.8418676225757564
# SHA-256 of the same replica's complex128 samples, by numpy's SIMD kernel
# family (conftest's simd_target); every benchmark digest rests on these
# bits, so a synthesis change that moves any of them shows here.
GOLDEN_REPLICA_SHA256 = {
    "X86_V4": "5b040b9f5a75aa0436b0d02c96581d68f66a2ba91ffa747a4907203bd4c8cb86",
    "X86_V3": "d0889db56dee357a9cac47d6cd9d7ec6795f2d8d265b091a7526aa7378f7abd3",
}


def brute_synthesize(code, params, times=None):
    """Term-by-term synthesis oracle at sample times ``times``, fractions
    allowed (default: the frame's samples 0..NM-1); no vectorization, no
    FFTs.  Slot n radiates on its window [n M, (n + 3) M) of samples."""
    out = []
    for t in range(params.frame_len) if times is None else times:
        acc = 0j
        for n in range(params.N_t):
            off = t - n * params.M
            if 0 <= off < 3 * params.M:
                g = 2**0.25 * math.exp(-math.pi * (off / params.M - 1.5) ** 2)
                for col in range(params.N_f):
                    m = col - params.N_f // 2
                    acc += code.entries[n, col] * g * cmath.exp(2j * cmath.pi * m * t / params.M)
        out.append(acc / params.M)
    return np.array(out)


def evaluate_continuous(code, params, t):
    """The untruncated analytic signal at the sample times ``t`` (1-D):
    every slot's Gaussian over all t, scaled by 1/M.  The smooth oracle the
    radiated train differs from only by the truncated tails."""
    t = np.asarray(t, dtype=float)
    pulses = gaussian_pulse(t[None, :] / params.M - np.arange(params.N_t)[:, None] - 1.5)
    phases = np.exp(2j * np.pi * np.outer(code.m_values, t) / params.M)
    return np.einsum("nm,nt,mt->t", code.entries.astype(float), pulses, phases) / params.M


def test_gaussian_pulse_values():
    assert gaussian_pulse(0.0) == pytest.approx(2**0.25, rel=1e-12)
    assert gaussian_pulse(1.0) == pytest.approx(2**0.25 * math.exp(-math.pi), rel=1e-12)
    assert gaussian_pulse(1.0) == pytest.approx(0.05139, abs=5e-6)


def test_gaussian_pulse_even():
    # zero, the smallest subnormal, irrational and half-integer points, and
    # a grid out to 50, where the pulse underflows to zero
    t = np.concatenate([[0.0, 5e-324, 1e-300, math.pi / 7, 0.5, 1.5], np.linspace(-50, 50, 2001)])
    assert np.array_equal(gaussian_pulse(t), gaussian_pulse(-t))


def test_support_ends_at_gate_boundary(p_default, good_code):
    s = synthesize_discrete(good_code, p_default)
    peak = np.max(np.abs(s.samples))
    assert np.all(np.abs(s.samples[p_default.L :]) < 1e-6 * peak)
    # causal 3M-sample pulse window: support is exactly [0, L)
    assert np.all(s.samples[p_default.L :] == 0)
    assert np.abs(s.samples[: p_default.L]).max() > 0


def test_energy_localization(p_default, good_code):
    s = synthesize_discrete(good_code, p_default)
    tail = float(np.sum(np.abs(s.samples[p_default.L :]) ** 2))
    assert tail < 1e-10 * s.energy


def test_single_slot_analytic_values():
    # N_t=1, N_f=2 code [+1,+1]: s[j] = g[j] (1 + e^{-2 pi i j / M}) / M
    p = make_params(4, 4, 1, 2, 1.0)
    code = CodeMatrix(np.array([[1, 1]]))
    s = synthesize_discrete(code, p)
    for j in range(p.frame_len):
        if 0 <= j < 3 * p.M:
            g = 2**0.25 * math.exp(-math.pi * (j / p.M - 1.5) ** 2)
        else:
            g = 0.0
        expected = g * (1 + cmath.exp(-2j * cmath.pi * j / p.M)) / p.M
        assert s.samples[j] == pytest.approx(expected, abs=1e-15)
    # slot peak sits 1.5 M samples into the frame
    assert abs(s.samples[6]) == pytest.approx(2 * 2**0.25 / p.M * abs(
        (1 + cmath.exp(-2j * cmath.pi * 6 / p.M)) / 2), rel=1e-12)


def test_golden_energy_and_brute_force(p_default, good_code, s_paper):
    assert s_paper.energy == pytest.approx(GOLDEN_ENERGY, rel=1e-12)
    p_small = make_params(8, 4, 2, 2, 1.0)
    code = random_code(p_small, seed=3)
    oracle = brute_synthesize(code, p_small)
    produced = synthesize_discrete(code, p_small).samples
    assert np.max(np.abs(oracle - produced)) <= 1e-14


def test_energy_is_computed_once_and_pickles(s_paper):
    # cached on first read, like AmbiguitySurface.magnitude; a pickle round
    # trip rebuilds the signal, which computes the same value again
    assert s_paper.energy is s_paper.energy
    copy = pickle.loads(pickle.dumps(s_paper))
    assert copy.energy == s_paper.energy
    assert np.array_equal(copy.samples, s_paper.samples)


def test_support_is_computed_once_and_pickles(s_paper):
    # the first and last nonzero sample, cached on first read like energy; a
    # pickle round trip rebuilds the signal, which finds the same band
    nonzero = np.flatnonzero(s_paper.samples)
    assert s_paper.support == (nonzero[0], nonzero[-1])
    assert s_paper.support is s_paper.support
    assert pickle.loads(pickle.dumps(s_paper)).support == s_paper.support
    for samples, support in [
        (np.zeros(8), (0, 0)),  # all-zero: the band [0, 0], whose products are zero
        (np.eye(8)[0], (0, 0)),
        (np.eye(8)[7], (7, 7)),
        ([0, 1j, 0, 2, 0], (1, 3)),
    ]:
        assert ComplexSignal(samples).support == support


def test_replica_bits_are_pinned(s_paper, good_code, simd_target):
    assert s_paper.samples.dtype == np.complex128
    assert simd_target in GOLDEN_REPLICA_SHA256, f"no replica SHA-256 measured under {simd_target}"
    digest = hashlib.sha256(s_paper.samples.tobytes()).hexdigest()
    assert digest == GOLDEN_REPLICA_SHA256[simd_target]
    # T_c only labels samples in seconds: the same bits at any T_c
    for t_c in (1e-6, 3e-7, 0.1, 7.3):
        s = synthesize_discrete(good_code, make_params(64, 16, 8, 8, t_c))
        assert s.samples.tobytes() == s_paper.samples.tobytes(), t_c


@pytest.mark.parametrize(
    "geometry", [(64, 16, 8, 8, 1.0), (64, 16, 8, 8, 1e-6), (32, 4, 4, 2, 3.7), (8, 4, 2, 2, 1.0)]
)
def test_replica_on_span_matches_full_frame(geometry):
    p = make_params(*geometry)
    code = random_code(p, 11)
    dense = evaluate_transmitted(code, p, np.arange(p.frame_len))
    assert synthesize_discrete(code, p).samples.tobytes() == dense.tobytes()


@pytest.mark.parametrize(
    "geometry", [(64, 16, 8, 8, 1.0), (16, 12, 3, 2, 1e-6), (32, 4, 4, 2, 3.7)]
)
def test_transmitted_matches_brute_force_at_fractional_times(geometry):
    # t in samples: seeded fractional times over the train's support and
    # past it, and each slot window's two edges n M and (n + 3) M, +-1e-9
    p = make_params(*geometry)
    code = random_code(p, 17)
    edges = [(n + d) * p.M + s for n in range(p.N_t) for d in (0, 3) for s in (-1e-9, 1e-9)]
    draws = np.random.default_rng(8).uniform(-p.M, p.L + p.M, 200)
    t = np.concatenate([edges, draws])
    oracle = brute_synthesize(code, p, t)
    got = evaluate_transmitted(code, p, t)
    assert np.max(np.abs(got - oracle)) <= 1e-12 * np.max(np.abs(oracle))


def test_discrete_continuous_consistency(p_default, good_code, s_paper):
    t = np.arange(p_default.frame_len)
    cont = evaluate_continuous(good_code, p_default, t)
    # the stored replica lacks only the truncated Gaussian tails
    rel_energy = np.sum(np.abs(cont - s_paper.samples) ** 2) / s_paper.energy
    assert rel_energy <= 1e-5
    rng = np.random.default_rng(42)
    peak = np.max(np.abs(s_paper.samples))
    for j in rng.integers(0, p_default.frame_len, size=32):
        assert abs(cont[j] - s_paper.samples[j]) <= 1e-3 * peak


def test_transmitted_matches_replica_exactly(p_default, good_code, s_paper):
    t = np.arange(p_default.frame_len)
    tx = evaluate_transmitted(good_code, p_default, t)
    assert np.array_equal(tx, s_paper.samples)


def test_continuous_decay(p_default, good_code, s_paper):
    peak = np.max(np.abs(s_paper.samples))
    reach = (p_default.N_t + 6) * p_default.M  # 5.5 slots past the last pulse peak
    t = np.array([reach, reach + 3.7 * p_default.M, -reach])
    assert np.all(np.abs(evaluate_continuous(good_code, p_default, t)) < 1e-10 * peak)


def test_continuous_linearity_in_code(p_default):
    x = random_code(p_default, seed=31)
    y = random_code(p_default, seed=32)
    t = np.linspace(-1.0, p_default.N_t + 2.0, 17) * p_default.M
    sx = evaluate_continuous(x, p_default, t)
    sy = evaluate_continuous(y, p_default, t)
    # oracle: the double sum evaluated with summed coefficients
    combo = np.zeros_like(sx)
    for n in range(p_default.N_t):
        g = gaussian_pulse(t / p_default.M - n - 1.5)
        for col in range(p_default.N_f):
            m = col - p_default.N_f // 2
            coeff = x.entries[n, col] + y.entries[n, col]
            combo += coeff * g * np.exp(2j * np.pi * m * t / p_default.M)
    combo /= p_default.M
    assert np.allclose(sx + sy, combo, atol=1e-12)


def test_negated_code_negates_samples(p_default, good_code, s_paper):
    neg = CodeMatrix(-good_code.entries)
    s_neg = synthesize_discrete(neg, p_default)
    assert np.array_equal(s_neg.samples, -s_paper.samples)


def test_signal_csv_round_trip(tmp_path, s_paper):
    path = tmp_path / "s.csv"
    write_signal(path, s_paper)
    assert np.array_equal(read_signal(path).samples, s_paper.samples)


def test_signal_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("re,im\n0.0,0.0\n")
    with pytest.raises(ValueError, match="header"):
        read_signal(path)


@pytest.mark.parametrize(
    "rows, message",
    [
        ("0,1.0,0.0\n-1,2.0,0.0\n", "index -1 out of range"),
        ("0,1.0,0.0\n2,2.0,0.0\n", "index 2 out of range"),
        ("0,1.0,0.0\n1,2.0,0.0\n3,3.0,0.0\n", "3 rows need indices 0..2"),
        ("1,1.0,0.0\n1,2.0,0.0\n", "duplicate index 1"),
        ("0,nan,0.0\n1,2.0,0.0\n", "non-finite"),
        ("0,1.0,0.0\n1,2.0,-inf\n", "non-finite"),
        ("0,1.0,0.0\n1;2.0;0.0\n", "expected 'index,re,im'"),
    ],
    ids=["negative", "out-of-range", "missing", "duplicate", "nan", "inf", "malformed"],
)
def test_signal_csv_rejects_bad_rows(tmp_path, rows, message):
    path = tmp_path / "x.csv"
    path.write_text("index,re,im\n" + rows)
    with pytest.raises(ValueError, match=message) as exc:
        read_signal(path)
    assert "\n" not in str(exc.value)


def test_signal_csv_accepts_any_row_order(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("index,re,im\n1,2.0,0.5\n0,1.0,-0.5\n")
    assert np.array_equal(read_signal(path).samples, [1.0 - 0.5j, 2.0 + 0.5j])


def test_dimension_mismatch_rejected(p_default):
    small = CodeMatrix(np.array([[1, 1]]))
    with pytest.raises(ValueError, match="params expect"):
        synthesize_discrete(small, p_default)
    with pytest.raises(ValueError, match="signal must be 1-D"):
        ComplexSignal(np.zeros((2, 3), dtype=complex))
