"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The Monte Carlo
reproduction (criteria 4-6) shares one K=1000 run through a module fixture.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from ddradar import (
    BenchConfig,
    ChannelTruth,
    Detection,
    discrete_ambiguity,
    estimate,
    make_params,
    random_code,
    reference_bad_code,
    reference_good_code,
    refine_quadratic,
    refine_sinc2d,
    sinc_conformance,
    sinc_model,
    synthesize_discrete,
)
from ddradar.ambiguity import AmbiguitySurface
from ddradar.bench import run_trial, run_trials, summarize
from ddradar.waveform import ComplexSignal

from frames import echo

REFERENCE_RMSE = {
    "sinc2d": (0.0061, 0.0676),
    "quadratic": (0.0198, 0.1342),
}
RMSE_BAND = 3.0  # criterion 4 accepts an RMSE within this factor of its reference
BENCH_SEED = 42
BENCH_TRIALS = 1000


def report(criterion: int, text: str) -> None:
    print(f"\nACCEPTANCE {criterion} PASS: {text}")


@pytest.fixture(scope="module")
def rmse_run():
    p = make_params(64, 16, 8, 8, 1.0)
    cfg = BenchConfig(
        params=p,
        code=reference_good_code(),
        snr_db_list=(30.0,),
        trials=BENCH_TRIALS,
        seed=BENCH_SEED,
    )
    start = time.perf_counter()
    records = run_trials(cfg, 30.0)
    elapsed = time.perf_counter() - start
    reports = {m: summarize(records, m) for m in cfg.methods}
    return reports, elapsed


def test_criterion_1_fft_matches_direct_sum():
    """Surface via FFT equals the defining double sum, 20 random instances."""
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    geometries = [(4, 4, 1, 2), (8, 4, 2, 2), (16, 8, 2, 4), (8, 8, 2, 4), (16, 16, 2, 4)]
    for trial in range(20):
        n_, m_, nt, nf = geometries[trial % len(geometries)]
        p = make_params(n_, m_, nt, nf, 1.0)
        nm = p.frame_len
        assert nm <= 256
        r = rng.standard_normal(nm) + 1j * rng.standard_normal(nm)
        s = rng.standard_normal(nm) + 1j * rng.standard_normal(nm)
        lo = int(rng.integers(-(nm - 1), nm - 1))
        hi = int(rng.integers(lo, nm))
        surf = discrete_ambiguity(ComplexSignal(r), ComplexSignal(s), (lo, hi), p)
        # direct evaluation of the defining sum: explicit DFT matrix, no FFT
        j = np.arange(nm)
        dft = np.exp(-2j * np.pi * np.outer(j, j) / nm)
        pad = np.zeros(3 * nm - 2, dtype=complex)
        pad[nm - 1 : 2 * nm - 1] = np.conj(s)
        lagged = np.stack([r * pad[j - ell + nm - 1] for ell in range(lo, hi + 1)])
        oracle = lagged @ dft
        assert np.max(np.abs(surf.values - oracle)) <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(1, f"FFT path == direct sum to 1e-9 on 20 instances ({elapsed:.1f} s)")


def test_criterion_2_code_screening_dichotomy():
    """Reference good code passes, rejected code fails, at delta = 0.05."""
    start = time.perf_counter()
    p = make_params(64, 64, 8, 8, 1.0)
    score_good, ok_good = sinc_conformance(reference_good_code(), p)
    score_bad, ok_bad = sinc_conformance(reference_bad_code(), p)
    assert ok_good, f"good code should pass, scored {score_good:.4f}"
    assert not ok_bad, f"bad code should fail, scored {score_bad:.4f}"
    assert score_good < 0.05 < score_bad
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(
        2,
        f"good code {score_good:.4f} < 0.05 < bad code {score_bad:.4f} "
        f"({elapsed:.1f} s)",
    )


def test_criterion_3_noiseless_integer_exactness():
    """Integer truths recovered exactly with |eps_hat| <= 0.01, both methods.

    Geometry (60, 20, 8, 8) keeps the fitting-grid edges strictly inside the
    lobe model's first nulls (M/N_f = 2.5, N/N_t = 7.5), so the sinc fit of a
    centro-symmetric patch stays at the origin instead of chasing the
    code-dependent null-ring residue that exists when the grid edge and the
    nulls coincide.
    """
    start = time.perf_counter()
    p = make_params(60, 20, 8, 8, 1.0)
    code = reference_good_code()
    s = synthesize_discrete(code, p)
    lo, hi = p.lag_window
    lags = np.linspace(lo + 3, hi - 3, 5).astype(int)
    bins = [-7, -3, 0, 3, 7]
    worst = 0.0
    for l_d in lags:
        for k_D in bins:
            truth = ChannelTruth(int(l_d), int(k_D))
            r = echo(code, p, [truth])
            for method in ("sinc2d", "quadratic"):
                ests = estimate(r, s, 0.5, method, p)
                assert len(ests) == 1
                est = ests[0]
                assert (est.detection.l_hat, est.detection.k_hat) == (l_d, k_D)
                assert abs(est.eps_t) <= 0.01 and abs(est.eps_f) <= 0.01
                worst = max(worst, abs(est.eps_t), abs(est.eps_f))
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(
        3,
        f"5x5 integer grid exact for both methods, worst |eps| = {worst:.4f} "
        f"({elapsed:.1f} s)",
    )


def test_criterion_4_rmse_reproduction(rmse_run):
    """30 dB RMSEs within 3x of the reference values, orderings preserved."""
    reports, elapsed = rmse_run
    assert elapsed < 600.0
    for method, (ref_delay, ref_doppler) in REFERENCE_RMSE.items():
        rep = reports[method]
        assert ref_delay / RMSE_BAND <= rep.rmse_delay <= ref_delay * RMSE_BAND, (
            f"{method} delay RMSE {rep.rmse_delay:.4f} outside {RMSE_BAND:g}x of {ref_delay}"
        )
        assert ref_doppler / RMSE_BAND <= rep.rmse_doppler <= ref_doppler * RMSE_BAND, (
            f"{method} Doppler RMSE {rep.rmse_doppler:.4f} outside {RMSE_BAND:g}x of {ref_doppler}"
        )
    sinc, quad = reports["sinc2d"], reports["quadratic"]
    assert sinc.rmse_delay < quad.rmse_delay
    assert sinc.rmse_doppler < quad.rmse_doppler
    assert sinc.rmse_delay < sinc.rmse_doppler
    assert quad.rmse_delay < quad.rmse_doppler
    report(
        4,
        f"K={BENCH_TRIALS} @30dB: sinc2d {sinc.rmse_delay:.4f}/{sinc.rmse_doppler:.4f}, "
        f"quadratic {quad.rmse_delay:.4f}/{quad.rmse_doppler:.4f} "
        f"(reference 0.0061/0.0676, 0.0198/0.1342; {elapsed:.1f} s)",
    )


def test_criterion_5_baseline_sanity(rmse_run):
    """No-refinement RMSE equals the uniform-fraction std 1/sqrt(12)."""
    reports, _ = rmse_run
    base = reports["baseline"]
    target = 1 / math.sqrt(12)
    assert abs(base.rmse_delay - target) <= 0.03
    assert abs(base.rmse_doppler - target) <= 0.03
    report(
        5,
        f"baseline RMSE {base.rmse_delay:.4f}/{base.rmse_doppler:.4f} "
        f"vs 1/sqrt(12) = {target:.4f}",
    )


def test_criterion_6_relative_stage_cost(rmse_run):
    """Quadratic refinement >= 100x faster than the sinc fit and than coarse."""
    reports, _ = rmse_run
    coarse_ms = reports["sinc2d"].mean_coarse_ms
    sinc_ms = reports["sinc2d"].mean_refine_ms
    quad_ms = reports["quadratic"].mean_refine_ms
    assert sinc_ms >= 100.0 * quad_ms, (
        f"sinc2d {sinc_ms:.3f} ms vs quadratic {quad_ms:.5f} ms "
        f"(ratio {sinc_ms / quad_ms:.0f}x)"
    )
    assert quad_ms < coarse_ms
    report(
        6,
        f"coarse {coarse_ms:.2f} ms, sinc2d {sinc_ms:.3f} ms, quadratic "
        f"{quad_ms:.5f} ms (ratio {sinc_ms / quad_ms:.0f}x)",
    )


def _random_junk_surface(rng, p, n_lags=5):
    mags = rng.random((n_lags, p.frame_len))
    phases = np.exp(2j * np.pi * rng.random((n_lags, p.frame_len)))
    return AmbiguitySurface(mags * phases, 300, p)


def test_criterion_7_property_suites():
    """Randomized property checks, >= 100 cases each."""
    start = time.perf_counter()
    rng = np.random.default_rng(7)

    # Cauchy-Schwarz peak bound on auto-ambiguity surfaces
    p_small = make_params(8, 4, 2, 2, 1.0)
    for seed in range(100):
        s = synthesize_discrete(random_code(p_small, seed), p_small)
        surf = discrete_ambiguity(
            s, s, (-(p_small.frame_len - 1), p_small.frame_len - 1), p_small
        )
        assert np.max(np.abs(surf.values)) <= s.energy * (1 + 1e-12)

    # sinc model symmetry and separability
    p_default = make_params(64, 16, 8, 8, 1.0)
    for _ in range(150):
        ell = float(rng.uniform(-3, 3))
        k = float(rng.uniform(-10, 10))
        v = sinc_model(ell, k, p_default)
        assert 0.0 <= v <= 1.0
        assert abs(v - sinc_model(-ell, k, p_default)) <= 1e-14
        assert abs(v - sinc_model(ell, -k, p_default)) <= 1e-14
        assert abs(v - sinc_model(ell, 0.0, p_default) * sinc_model(0.0, k, p_default)) <= 1e-13

    # quadratic interpolation exact on parabolas
    n = p_default.frame_len
    for _ in range(150):
        a = float(rng.uniform(0.05, 4.0))
        eps = float(rng.uniform(-0.499, 0.499))
        c = a * (1 + abs(eps)) ** 2 + float(rng.uniform(0.01, 2.0))
        values = np.zeros((3, n), dtype=complex)
        for i, dl in enumerate((-1, 0, 1)):
            values[i, 0] = -a * (dl - eps) ** 2 + c
        values[1, 1] = values[1, n - 1] = 0.1
        surf = AmbiguitySurface(values, 299, p_default)
        est = refine_quadratic(surf, Detection(300, 0, 1.0))
        assert abs(est.eps_t - eps) <= 1e-12

    # fractional estimates clamped to [-1/2, 1/2], both methods
    for _ in range(100):
        surf = _random_junk_surface(rng, p_default)
        det = Detection(301, int(rng.integers(-8, 9)), 1.0)
        for est in (refine_quadratic(surf, det), refine_sinc2d(surf, det, p_default)):
            assert -0.5 <= est.eps_t <= 0.5
            assert -0.5 <= est.eps_f <= 0.5
            assert est.alpha >= 0.0

    # variable-projection scale invariance of the sinc fit on channel surfaces
    code = reference_good_code()
    s = synthesize_discrete(code, p_default)
    for case in range(10):
        truth = ChannelTruth(
            int(rng.integers(200, 800)) + float(rng.uniform(-0.45, 0.45)),
            int(rng.integers(-8, 9)) + float(rng.uniform(-0.45, 0.45)),
        )
        r = echo(code, p_default, [truth], 25.0, seed=case)
        surf = discrete_ambiguity(r, s, (truth.l_d - 2, truth.l_d + 2), p_default, norm=s.energy)
        det = Detection(truth.l_d, truth.k_D, 1.0)
        base = refine_sinc2d(surf, det, p_default)
        for _ in range(10):
            gamma = float(10.0 ** rng.uniform(-4, 4))
            scaled = AmbiguitySurface(surf.values * gamma, surf.ell_min, p_default)
            est = refine_sinc2d(scaled, det, p_default)
            assert est.eps_t == pytest.approx(base.eps_t, abs=1e-7)
            assert est.eps_f == pytest.approx(base.eps_f, abs=1e-7)
            assert est.alpha == pytest.approx(gamma * base.alpha, rel=1e-9)

    # trial determinism (100 randomized trials): a sweep's trials repeat
    # field for field, timings aside, and any trial re-run alone by its
    # seed gives the record the sweep made
    def untimed(rec):
        outcomes = {m: dataclasses.replace(o, refine_ms=0.0) for m, o in rec.outcomes.items()}
        return dataclasses.replace(rec, coarse_ms=0.0, outcomes=outcomes)

    p_tiny = make_params(16, 8, 2, 4, 1.0)
    cfg = BenchConfig(
        params=p_tiny, code=random_code(p_tiny, 1), snr_db_list=(20.0,), trials=100, seed=5
    )
    rec1 = [untimed(rec) for rec in run_trials(cfg, 20.0)]
    rec2 = [untimed(rec) for rec in run_trials(cfg, 20.0)]
    assert len(rec1) == 100 and rec1 == rec2
    for i in range(0, 100, 9):  # 12 trials, the sweep's first and last among them
        assert untimed(run_trial(cfg, 20.0, cfg.seed + i)) == rec1[i], i

    elapsed = time.perf_counter() - start
    report(7, f"peak bound, model symmetry, parabola exactness, clamping, "
              f"scale invariance, trial determinism ({elapsed:.1f} s)")
