import dataclasses
import itertools
import math
import os
import pickle
import re
import struct
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
from scipy.optimize import fmin_l_bfgs_b, minimize

from ddradar import (
    ChannelTruth,
    ComplexSignal,
    Detection,
    Estimate,
    Estimates,
    coarse_detect,
    discrete_ambiguity,
    estimate,
    make_params,
    random_code,
    refine_quadratic,
    refine_sinc2d,
    synthesize_discrete,
)
from ddradar import ambiguity, bench, estimator
from ddradar.ambiguity import (
    AmbiguitySurface,
    _abs_sinc,
    peak_bounds,
    sinc_model,
    write_surface,
)
from ddradar.bench import BenchConfig
from ddradar.estimator import (
    _FIT_BOUNDS,
    DETECTION_ROW,
    ESTIMATE_ROW,
    FLAT_STENCIL_TOL,
    FIRST_CHUNK,
    REFINERS,
    SCREEN_MARGIN,
    SOLVER,
    _fit_patch,
    _lobe_axes,
    _sinc_fit,
    _trim_ends,
    refine_window,
)

from frames import echo


# Each method's public refiner: the Estimate its REFINERS row's outcome gives.
PUBLIC_REFINERS = {
    "sinc2d": refine_sinc2d,
    "quadratic": lambda surface, det, params: refine_quadratic(surface, det),
    "baseline": lambda surface, det, params: Estimate(det, 0.0, 0.0, det.peak_mag, "baseline"),
}


def make_channel_surface(code, params, truth, snr_db=None, seed=0, window=None):
    """The surface of one target's echo, built as the receiver builds it."""
    s = synthesize_discrete(code, params)
    r = echo(code, params, [truth], snr_db, seed)
    return discrete_ambiguity(r, s, window or params.lag_window, params, norm=s.energy)


def synthetic_model_surface(params, l0, k0, eps_t, eps_f, alpha):
    """Surface whose magnitudes follow the lobe model exactly (fit oracle)."""
    r_ell, r_k = params.lobe_half_extents
    n = params.frame_len
    values = np.zeros((2 * r_ell + 1, n), dtype=complex)
    for i, dl in enumerate(range(-r_ell, r_ell + 1)):
        for dk in range(-r_k, r_k + 1):
            values[i, (k0 + dk) % n] = alpha * sinc_model(dl - eps_t, dk - eps_f, params)
    return AmbiguitySurface(values, l0 - r_ell, params)


def fit_residual(surface, det, params, eps_t, eps_f):
    """Objective of the sinc fit, recomputed independently of the estimator."""
    y, ell_off, k_off = _fit_patch(surface, det, params)
    y = y / y.max()
    m = sinc_model(ell_off[:, None] - eps_t, k_off[None, :] - eps_f, params)
    alpha = max(0.0, float(np.sum(y * m) / np.sum(m * m)))
    return float(np.sum((y - alpha * m) ** 2))


def central_difference(fun, x, h=1e-6):
    """Gradient oracle: symmetric differences along each coordinate."""
    return np.array([(fun(x + e) - fun(x - e)) / (2.0 * h) for e in h * np.eye(x.size)])


def test_coarse_detect_single_target(p_default, good_code):
    truth = ChannelTruth(200, 3)
    surf = make_channel_surface(good_code, p_default, truth)
    dets = coarse_detect(surf, 0.5, p_default)
    assert len(dets) == 1
    assert (dets[0].l_hat, dets[0].k_hat) == (200, 3)
    assert dets[0].peak_mag > 0.9


def test_coarse_detect_pure_noise_is_empty(p_default, good_code):
    truth = ChannelTruth(300, 0, alpha=0.0)  # alpha = 0
    surf = make_channel_surface(good_code, p_default, truth, snr_db=0.0, seed=99)
    assert coarse_detect(surf, 0.9, p_default) == []


def test_coarse_detect_two_separated_targets(p_default, good_code, s_paper):
    t1 = ChannelTruth(250, -6)
    t2 = ChannelTruth(600, 5, alpha=0.8)
    both = echo(good_code, p_default, [t1, t2])
    surf = discrete_ambiguity(both, s_paper, p_default.lag_window, p_default, norm=s_paper.energy)
    dets = coarse_detect(surf, 0.5, p_default)
    assert len(dets) == 2
    assert (dets[0].l_hat, dets[0].k_hat) == (250, -6)
    assert (dets[1].l_hat, dets[1].k_hat) == (600, 5)
    assert dets[0].peak_mag >= dets[1].peak_mag


def test_coarse_detect_suppresses_main_lobe(p_default, good_code):
    # several main-lobe cells cross theta = 0.5 but must collapse to one hit
    truth = ChannelTruth(400.4, 2.4)
    surf = make_channel_surface(good_code, p_default, truth)
    crossings = int(np.sum(np.abs(surf.values) > 0.5))
    assert crossings > 3
    dets = coarse_detect(surf, 0.5, p_default)
    assert len(dets) == 1


def test_coarse_detect_rejects_bad_threshold(p_default, good_code, s_paper):
    surf = discrete_ambiguity(s_paper, s_paper, (0, 4), p_default)
    with pytest.raises(ValueError, match="threshold"):
        coarse_detect(surf, 0.0, p_default)


def test_coarse_detect_rejects_nan_threshold(p_default, s_paper):
    surf = discrete_ambiguity(s_paper, s_paper, (0, 4), p_default)
    with pytest.raises(ValueError, match="threshold must be positive, got nan"):
        coarse_detect(surf, float("nan"), p_default)


def reference_coarse_detect(surface, theta, params):
    """Threshold + greedy suppression by the 2-D np.nonzero scan (hit-order oracle)."""
    mag = np.abs(surface.values)
    rows, cols = np.nonzero(mag > theta)
    if rows.size == 0:
        return []
    order = np.argsort(mag[rows, cols])[::-1]
    rows, cols = rows[order], cols[order]
    r_ell, r_k = params.lobe_half_extents
    nbins = surface.n_bins
    kept = []
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


def test_coarse_detect_matches_nonzero_oracle_on_clutter(p_default, good_code, s_paper):
    # -10 dB frames at theta = 0.28: hundreds of hits, tens of survivors
    cfg = BenchConfig(params=p_default, code=good_code)
    kept = 0
    for i in range(20):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([42, i])))
        truth = bench.draw_truth(cfg, rng)
        r = echo(good_code, p_default, [truth], -10.0, seed=int(rng.integers(2**32)))
        surf = discrete_ambiguity(r, s_paper, p_default.lag_window, p_default, norm=s_paper.energy)
        dets = coarse_detect(surf, 0.28, p_default)
        assert dets == reference_coarse_detect(surf, 0.28, p_default)
        kept += len(dets)
    assert kept > 20 * 10


def test_coarse_detect_matches_nonzero_oracle_on_ties(p_default):
    # equal magnitudes on many rows: the kept list depends on the hit order
    n = p_default.frame_len
    values = np.zeros((40, n), dtype=complex)
    rng = np.random.default_rng(3)
    rows = rng.integers(0, 40, size=120)
    cols = rng.integers(0, 3 * p_default.N, size=120)
    values[rows, cols] = 0.75 * np.array([1, -1, 1j, -1j])[rng.integers(0, 4, size=120)]
    values[rows[::5], cols[::5]] = 0.9
    surf = AmbiguitySurface(values, -5, p_default)
    for level in (0.75, 0.9):
        tied_rows = np.nonzero(np.abs(surf.values) == level)[0]
        assert np.unique(tied_rows).size > 5
    dets = coarse_detect(surf, 0.5, p_default)
    assert dets == reference_coarse_detect(surf, 0.5, p_default)
    assert 1 < len(dets) < np.count_nonzero(surf.values)


# id: (geometry, lags, the rows and the columns hits land on, hits a surface)
MASK_EDGE_HITS = {
    # the first and last 12 Doppler bins: lobes wrap circularly
    "doppler-wrap": ((64, 16, 8, 8), 30, None, [*range(12), *range(-12, 0)], 80),
    # the first and last two lags: lobes are clipped by the surface
    "lag-clip": ((64, 16, 8, 8), 30, [0, 1, -2, -1], range(500, 540), 60),
    # lobe_half_extents (1, 4) on 8 bins: one lobe covers the whole row
    "whole-row": ((4, 2, 1, 2), 12, None, None, 40),
}


@pytest.mark.parametrize("case", list(MASK_EDGE_HITS))
def test_coarse_detect_matches_oracle_at_the_mask_edges(case):
    # random hits, half of them tied, where the painted lobes wrap or clip
    geometry, n_lags, rows, cols, n_hits = MASK_EDGE_HITS[case]
    p = make_params(*geometry)
    nbins = p.frame_len
    if case == "whole-row":
        assert p.lobe_half_extents == (1, 4) and nbins == 8
    rows = np.arange(n_lags) if rows is None else np.array(rows) % n_lags
    cols = np.arange(nbins) if cols is None else np.array(cols) % nbins
    rng = np.random.default_rng(11)
    kept = 0
    for _ in range(120):
        values = np.zeros((n_lags, nbins), dtype=complex)
        tied = rng.choice([0.6, 0.75, 0.9], n_hits)
        mags = np.where(rng.random(n_hits) < 0.5, tied, rng.uniform(0.5, 1.0, n_hits))
        phases = np.array([1, -1, 1j, -1j])[rng.integers(0, 4, n_hits)]
        values[rng.choice(rows, n_hits), rng.choice(cols, n_hits)] = mags * phases
        surf = AmbiguitySurface(values, -3, p)
        dets = coarse_detect(surf, 0.55, p)
        assert dets == reference_coarse_detect(surf, 0.55, p)
        kept += len(dets)
    assert 120 < kept < 120 * n_hits // 2


def test_low_theta_clutter_frame_takes_one_pass(p_default, good_code, s_paper):
    # thousands of hits and survivors: suppression walks the hits once, so
    # the frame takes well under a second, where checking each hit against
    # every survivor costs O(hits x kept)
    truth = bench.draw_truth(BenchConfig(p_default, good_code), np.random.default_rng(42))
    r = echo(good_code, p_default, [truth], -10.0, seed=42)
    start = time.perf_counter()
    estimates = estimate(r, s_paper, 0.15, "quadratic", p_default)
    elapsed = time.perf_counter() - start
    assert len(estimates) > 1000
    assert elapsed < 5.0, f"{len(estimates)} estimates in {elapsed:.1f} s"


def test_quadratic_symmetric_stencil(p_default):
    surf = synthetic_model_surface(p_default, 300, 0, 0.0, 0.0, 1.0)
    est = refine_quadratic(surf, Detection(300, 0, 1.0))
    assert est.eps_t == 0.0 and est.eps_f == 0.0
    assert not est.degenerate


def test_quadratic_worked_example(p_default):
    # stencil (0.2, 1.0, 0.6) -> 0.4 / 2.4 = 1/6
    n = p_default.frame_len
    values = np.zeros((3, n), dtype=complex)
    values[:, 0] = [0.2, 1.0, 0.6]
    values[1, 1] = values[1, n - 1] = 0.5
    surf = AmbiguitySurface(values, 299, p_default)
    est = refine_quadratic(surf, Detection(300, 0, 1.0))
    assert est.eps_t == pytest.approx(1 / 6, rel=1e-12)
    assert est.eps_f == 0.0
    assert est.alpha == pytest.approx(1.0)


def test_quadratic_exact_on_parabolas(p_default):
    # curvature a in [0.01, 5], headroom c_extra in [0.01, 3], offset eps in
    # [-0.499, 0.499]: every corner with eps = 0 too, then 200 seeded draws
    corners = itertools.product((0.01, 5.0), (0.01, 3.0), (-0.499, 0.0, 0.499))
    draws = np.random.default_rng(2).uniform((0.01, 0.01, -0.499), (5.0, 3.0, 0.499), (200, 3))
    n = p_default.frame_len
    for a, c_extra, eps in itertools.chain(corners, draws):
        c = a * (1 + abs(eps)) ** 2 + c_extra  # keep all stencil values positive
        values = np.zeros((3, n), dtype=complex)
        for i, dl in enumerate((-1, 0, 1)):
            values[i, 0] = -a * (dl - eps) ** 2 + c
        values[1, 1] = values[1, n - 1] = max(0.0, -a * (1 - 0) ** 2 + c - 1e-3)
        est = refine_quadratic(AmbiguitySurface(values, 299, p_default), Detection(300, 0, 1.0))
        assert est.eps_t == pytest.approx(eps, abs=1e-12)


def test_quadratic_degenerate_stencil_flagged(p_default):
    n = p_default.frame_len
    values = np.zeros((3, n), dtype=complex)
    values[:, 0] = [1.0, 1.0, 1.0]  # flat: denominator 0
    values[1, 1] = values[1, n - 1] = 0.2
    surf = AmbiguitySurface(values, 299, p_default)
    est = refine_quadratic(surf, Detection(300, 0, 1.0))
    assert est.eps_t == 0.0
    assert est.degenerate


def test_quadratic_stencil_clipped_by_the_surface_is_degenerate(p_default):
    # on the surface's first or last lag the lag stencil reaches past it: that
    # axis is degenerate, as a flat stencil is, and the Doppler axis still
    # fits; every row of this surface has the same Doppler profile
    surf = synthetic_model_surface(p_default, 300, 0, 0.3, -0.2, 1.0)
    inner = refine_quadratic(surf, Detection(300, 0, 1.0))
    assert not inner.degenerate and inner.eps_f != 0.0
    for ell in (surf.ell_min, surf.ell_max):
        est = refine_quadratic(surf, Detection(ell, 0, 1.0))
        assert est.eps_t == 0.0 and est.degenerate
        assert est.eps_f == pytest.approx(inner.eps_f, rel=1e-12)
        assert np.isfinite(refine_sinc2d(surf, Detection(ell, 0, 1.0), p_default).eps_t)
    for ell in (surf.ell_min - 1, surf.ell_max + 1):
        for refine in (
            REFINERS["quadratic"], REFINERS["sinc2d"], PUBLIC_REFINERS["quadratic"], refine_sinc2d
        ):
            with pytest.raises(ValueError, match=rf"^detection lag {ell} outside \[298, 302\]$"):
                refine(surf, Detection(ell, 0, 1.0), p_default)


def test_sinc_fit_recovers_planted_model(p_default):
    surf = synthetic_model_surface(p_default, 300, 5, 0.3, -0.2, 1.0)
    est = refine_sinc2d(surf, Detection(300, 5, 1.0), p_default)
    assert est.eps_t == pytest.approx(0.3, abs=1e-6)
    assert est.eps_f == pytest.approx(-0.2, abs=1e-6)
    assert est.alpha == pytest.approx(1.0, abs=1e-6)
    assert est.converged


def test_sinc_fit_noiseless_fractional_channel(p_default, good_code):
    truth = ChannelTruth(300.25, 2.25)
    surf = make_channel_surface(
        good_code, p_default, truth, window=(296, 304)
    )
    est = refine_sinc2d(surf, Detection(300, 2, 1.0), p_default)
    assert abs(est.eps_t - 0.25) <= 0.02
    assert abs(est.eps_f - 0.25) <= 0.07


def test_sinc_fit_scale_invariance(p_default, good_code):
    truth = ChannelTruth(419.7, 4.15)
    surf = make_channel_surface(
        good_code, p_default, truth, snr_db=25.0, seed=3, window=(416, 424)
    )
    det = Detection(420, 4, 1.0)
    base = refine_sinc2d(surf, det, p_default)
    for gamma in (1e-3, 7.3, 1e4):
        scaled = AmbiguitySurface(surf.values * gamma, surf.ell_min, p_default)
        est = refine_sinc2d(scaled, det, p_default)
        # identical up to solver round-off in the peak-normalized patch
        assert est.eps_t == pytest.approx(base.eps_t, abs=1e-7)
        assert est.eps_f == pytest.approx(base.eps_f, abs=1e-7)
        assert est.alpha == pytest.approx(gamma * base.alpha, rel=1e-9)


def test_sinc_fit_monotone_vs_zero_offsets(p_default, good_code):
    for seed in range(5):
        truth = ChannelTruth(350 + 10 * seed + 0.37, -3 - 0.22)
        surf = make_channel_surface(
            good_code, p_default, truth, snr_db=10.0, seed=seed,
            window=(truth.l_d - 4, truth.l_d + 4),
        )
        det = Detection(truth.l_d, truth.k_D, 1.0)
        est = refine_sinc2d(surf, det, p_default)
        res = fit_residual(surf, det, p_default, est.eps_t, est.eps_f)
        res_zero = fit_residual(surf, det, p_default, 0.0, 0.0)
        assert res <= res_zero + 1e-12


def test_estimates_are_clamped(p_default, good_code):
    rng = np.random.default_rng(11)
    n = p_default.frame_len
    for _ in range(20):
        values = rng.random((5, n)) * np.exp(2j * np.pi * rng.random((5, n)))
        surf = AmbiguitySurface(values, 298, p_default)
        det = Detection(300, int(rng.integers(-8, 9)), 1.0)
        for est in (
            refine_quadratic(surf, det),
            refine_sinc2d(surf, det, p_default),
        ):
            assert -0.5 <= est.eps_t <= 0.5
            assert -0.5 <= est.eps_f <= 0.5
            assert est.alpha >= 0.0
    det = Detection(300, 2, 1.0)
    est = Estimate(det, np.float64(0.75), -3, -0.2, "sinc2d")
    assert (est.eps_t, est.eps_f, est.alpha) == (0.5, -0.5, 0.0)
    assert all(type(v) is float for v in (est.eps_t, est.eps_f, est.alpha))
    assert (est.delay_cells, est.doppler_cells) == (300.5, 1.5)


def test_estimate_keeps_nan_from_failed_refinement():
    est = Estimate(Detection(1, 2, 0.5), math.nan, math.nan, math.nan, "sinc2d")
    assert all(math.isnan(v) for v in (est.eps_t, est.eps_f, est.alpha))
    est = Estimate(Detection(1, 2, 0.5), math.nan, 0.7, -math.inf, "sinc2d")
    assert math.isnan(est.eps_t) and (est.eps_f, est.alpha) == (0.5, 0.0)


def test_records_are_frozen_slotted_and_pickle_equal():
    det = Detection(300, -2, 0.75)
    est = Estimate(det, 0.25, -0.125, 1.5, "quadratic", degenerate=True)
    for record, field in ((det, "l_hat"), (est, "eps_t")):
        assert not hasattr(record, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, field, 1)
        copy = pickle.loads(pickle.dumps(record))
        assert copy == record and hash(copy) == hash(record)


def test_end_to_end_integer_truth_small_bias(good_code):
    # fit-grid edges strictly inside the lobe nulls at this geometry
    p = make_params(60, 20, 8, 8, 1.0)
    s = synthesize_discrete(good_code, p)
    truth = ChannelTruth(600, 3)
    r = echo(good_code, p, [truth])
    for method in ("sinc2d", "quadratic"):
        ests = estimate(r, s, 0.5, method, p)
        assert len(ests) == 1
        est = ests[0]
        assert (est.detection.l_hat, est.detection.k_hat) == (600, 3)
        assert abs(est.eps_t) <= 0.01
        assert abs(est.eps_f) <= 0.01


def test_end_to_end_integer_truth_paper_geometry(p_default, good_code, s_paper):
    # at (64, 16) the fit grid edge rides the model nulls: the quadratic
    # stays exact while the sinc fit carries the code's mismatch floor
    truth = ChannelTruth(200, 3)
    r = echo(good_code, p_default, [truth])
    quad = estimate(r, s_paper, 0.5, "quadratic", p_default)[0]
    assert abs(quad.eps_t) <= 1e-4 and abs(quad.eps_f) <= 1e-4
    sinc = estimate(r, s_paper, 0.5, "sinc2d", p_default)[0]
    assert abs(sinc.eps_t) <= 0.05 and abs(sinc.eps_f) <= 0.05


def test_end_to_end_fractional(p_default, good_code, s_paper):
    truth = ChannelTruth(300.25, 2.25)
    r = echo(good_code, p_default, [truth])
    est = estimate(r, s_paper, 0.5, "sinc2d", p_default)[0]
    assert abs(est.delay_cells - 300.25) <= 0.02
    assert abs(est.doppler_cells - 2.25) <= 0.07


def test_end_to_end_empty_detection(p_default, good_code, s_paper):
    truth = ChannelTruth(300, 0, alpha=0.0)
    r = echo(good_code, p_default, [truth])
    assert estimate(r, s_paper, 0.5, "sinc2d", p_default) == []


def test_end_to_end_window_edge_detection(p_default, good_code, s_paper):
    # a detection at the lag-window edge refines on lags outside the window
    l_edge = p_default.lag_window[0]
    truth = ChannelTruth(l_edge, 0)
    r = echo(good_code, p_default, [truth])
    for method in ("sinc2d", "quadratic"):
        ests = estimate(r, s_paper, 0.5, method, p_default)
        assert ests and ests[0].detection.l_hat == l_edge


@pytest.mark.parametrize("end", ["last", "first"])
def test_estimate_at_the_frame_end_lag(p_default, s_paper, end):
    # lag +-(NM-1) holds one product r[j] s*[j -+ (NM-1)], so every refiner
    # reads a surface clipped at the frame: the quadratic lag axis is
    # degenerate and the sinc patch keeps the lags inside the frame.  The
    # last lag pairs the echo's last sample with the replica's first; the
    # first lag needs a replica dense up to the frame's last sample.
    n = p_default.frame_len
    if end == "last":
        r, s, ell = ComplexSignal(np.eye(n)[n - 1]), s_paper, n - 1
    else:
        rng = np.random.default_rng(23)
        dense = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
        r, s, ell = ComplexSignal(dense[0]), ComplexSignal(dense[1]), -(n - 1)
    product = abs(r.samples[max(ell, 0)] * s.samples[max(-ell, 0)])
    theta = 0.5 * product / s.energy
    for method in REFINERS:
        want = reference_estimate(r, s, theta, method, p_default, lag_window=(ell, ell))
        assert want and all(est.detection.l_hat == ell for est in want)
        assert estimate(r, s, theta, method, p_default, lag_window=(ell, ell)) == want
        if method == "quadratic":
            # the row is one product per cell, flat in Doppler up to rounding
            assert all(est.eps_t == 0.0 and est.degenerate for est in want)
            assert all(est.eps_f == 0.0 for est in want)


def test_estimate_rejects_unknown_method(p_default, s_paper, monkeypatch):
    def no_surface(*args, **kwargs):
        raise AssertionError("surface computed before the method was looked up")

    monkeypatch.setattr(estimator, "discrete_ambiguity", no_surface)
    with pytest.raises(ValueError, match="unknown method 'cubic'"):
        estimate(s_paper, s_paper, 0.5, "cubic", p_default)


def test_estimate_baseline_leaves_offsets_at_zero(p_default, good_code, s_paper):
    truth = ChannelTruth(300.25, 2.25)
    r = echo(good_code, p_default, [truth])
    (est,) = estimate(r, s_paper, 0.5, "baseline", p_default)
    assert (est.detection.l_hat, est.detection.k_hat) == (300, 2)
    assert (est.eps_t, est.eps_f) == (0.0, 0.0)
    assert est.alpha == est.detection.peak_mag
    assert est.method == "baseline"


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


@pytest.mark.parametrize("method", list(REFINERS))
def test_estimates_rebuild_the_refiners_estimates(p_default, good_code, s_paper, method):
    r = echo(good_code, p_default, [ChannelTruth(400.3, 1.8)], -10.0, seed=5)
    theta = 0.4
    estimates = estimate(r, s_paper, theta, method, p_default)
    surface, found = estimator.coarse_stage(r, s_paper, theta, p_default, p_default.lag_window)
    assert found.dtype == DETECTION_ROW
    detections = [Detection(*d) for d in found.tolist()]
    assert isinstance(estimates, Estimates) and estimates.method == method
    assert len(estimates) == len(detections) > 3
    refine = estimator.refiner(method)
    for i, det in enumerate(detections):
        # the row holds the detection and the REFINERS row's outcome as it
        # came, and rebuilds the public refiner's Estimate bit for bit
        row, outcome = estimates.rows[i].item(), refine(surface, det, p_default)
        assert row[:3] == (det.l_hat, det.k_hat, det.peak_mag)
        assert [_bits(v) for v in row[3:6]] == [_bits(v) for v in outcome[:3]]
        assert row[6:] == outcome[3:]
        want, got = PUBLIC_REFINERS[method](surface, det, p_default), estimates[i]
        assert got == want
        fields = ("eps_t", "eps_f", "alpha")
        assert [_bits(getattr(got, f)) for f in fields] == [_bits(getattr(want, f)) for f in fields]
        assert _bits(got.detection.peak_mag) == _bits(det.peak_mag)
        assert type(got.converged) is bool and type(got.degenerate) is bool
        assert type(got.detection.l_hat) is int and type(got.detection.k_hat) is int
    assert list(estimates) == [estimates[i] for i in range(len(estimates))]


def test_estimates_keep_a_nan_offset(p_default, good_code, s_paper, monkeypatch):
    def failed(surface, det, params):
        return estimator._outcome(math.nan, 0.25, math.nan, converged=False)

    monkeypatch.setitem(estimator.REFINERS, "baseline", failed)
    r = echo(good_code, p_default, [ChannelTruth(300.25, 2.25)])
    (est,) = estimate(r, s_paper, 0.5, "baseline", p_default)
    assert math.isnan(est.eps_t) and math.isnan(est.alpha) and est.eps_f == 0.25
    assert est.converged is False and est.degenerate is False


def test_refiner_outcomes_pack_to_the_fields_of_estimate(p_default, good_code, s_paper, monkeypatch):
    # one clamp rule: a REFINERS row's outcome packs to exactly the fields
    # Estimate(...) gives for the same raw values, NaN and signed zero included
    raw = [
        (0.7, -0.9, 1.25, True, False),
        (math.nan, 0.25, 0.5, False, False),
        (0.125, math.nan, -2.0, True, True),
        (-0.0, 0.5, -0.0, False, True),
        (np.float64(-3.0), 3, -math.inf, True, False),
    ]
    fed = itertools.cycle(raw)

    def refine(surface, det, params):
        return estimator._outcome(*next(fed))

    monkeypatch.setitem(estimator.REFINERS, "baseline", refine)
    r = echo(good_code, p_default, [ChannelTruth(400.3, 1.8)], -10.0, seed=5)
    got = estimate(r, s_paper, 0.4, "baseline", p_default)
    assert len(got) > len(raw)
    for est, (eps_t, eps_f, alpha, converged, degenerate) in zip(got, itertools.cycle(raw)):
        want = Estimate(est.detection, eps_t, eps_f, alpha, "baseline", converged, degenerate)
        fields = ("eps_t", "eps_f", "alpha")
        assert [_bits(getattr(est, f)) for f in fields] == [_bits(getattr(want, f)) for f in fields]
        assert (est.converged, est.degenerate) == (converged, degenerate)
    assert (got[0].eps_t, got[0].eps_f) == (0.5, -0.5)
    assert math.isnan(got[1].eps_t) and got[2].alpha == 0.0


@pytest.mark.parametrize("method", list(REFINERS))
def test_estimate_builds_no_estimate_per_detection(p_default, good_code, s_paper, method, monkeypatch):
    # estimate writes each outcome straight into its row; only reading the
    # rows back builds an Estimate
    built = []
    post_init = Estimate.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Estimate, "__post_init__", counted)
    r = echo(good_code, p_default, [ChannelTruth(400.3, 1.8)], -10.0, seed=17)
    estimates = estimate(r, s_paper, 0.28, method, p_default)
    assert len(estimates) > 10 and built == []
    assert len(list(estimates)) == len(built)


def per_detection_rows(surface, detections):
    """The packed rows of the per-detection ``_quadratic`` (oracle of the
    frame form, ``_quadratic_rows``)."""
    rows = [(*d, *estimator._quadratic(surface, Detection(*d))) for d in detections.tolist()]
    return np.array(rows, dtype=ESTIMATE_ROW)


def flat_at_tolerance():
    """A center c and neighbour p with 4c - 2p - 2c == FLAT_STENCIL_TOL * c
    exactly: c in [1, 2) whose tolerance is a multiple of ulp(2c) = 2**-51,
    so every step of the denominator is exact."""
    t = round(FLAT_STENCIL_TOL * 2**51) * 2.0**-51
    for k in range(-64, 65):
        c = t / FLAT_STENCIL_TOL + k * 2.0**-52
        if FLAT_STENCIL_TOL * c == t:
            return c, c - t / 2
    raise AssertionError("no center in reach has an exact tolerance")


# Geometries of the frame-form oracle: the paper's and an odd N*M (45 bins).
QUADRATIC_GEOMETRIES = {"paper": (64, 16, 8, 8), "odd": (9, 5, 3, 2)}


@pytest.mark.parametrize("geometry", list(QUADRATIC_GEOMETRIES))
def test_quadratic_rows_match_the_per_detection_form(geometry):
    # on a surface of random magnitudes, stencils planted in every branch of
    # _quadratic: the surface's first and last lag (a clipped lag axis),
    # Doppler columns 0 and NM - 1 (a wrapped stencil), flat exactly at the
    # tolerance, curving one ulp of 2c more than it (a fit), curving up, and
    # a neighbour above the center (an offset clamped to +-1/2)
    p = make_params(*QUADRATIC_GEOMETRIES[geometry], 1.0)
    n_rows, n = 12, p.frame_len
    values = np.random.default_rng(3).uniform(0.05, 0.5, (n_rows, n)).astype(complex)
    c, flat_p = flat_at_tolerance()
    # (row, col, lag stencil, Doppler stencil), each stencil (minus, center, plus)
    planted = [
        (0, 3, None, (0.3, 1.0, 0.6)),
        (n_rows - 1, 7, None, (0.6, 1.0, 0.3)),
        (2, 0, (0.2, 1.0, 0.6), (0.7, 1.0, 0.4)),
        (4, n - 1, (0.5, 1.0, 0.1), (0.4, 1.0, 0.9)),
        (6, 10, (c, c, flat_p), (c, c, flat_p - 2.0**-52)),
        (8, 14, (1.2, 1.0, 1.1), (0.2, 1.0, 0.3)),
        (10, 18, (0.1, 1.0, 1.2), (1.3, 1.0, 0.2)),
    ]
    for row, col, lag, doppler in planted:
        if lag is not None:
            values[row - 1 : row + 2, col] = lag
        values[row, [(col - 1) % n, col, (col + 1) % n]] = doppler
    surf = AmbiguitySurface(values, 100, p)
    detections = np.array(
        [(100 + row, surf.signed_bin(col), abs(values[row, col])) for row, col, *_ in planted],
        dtype=DETECTION_ROW,
    )
    got, want = estimator._quadratic_rows(surf, detections), per_detection_rows(surf, detections)
    assert got.dtype == ESTIMATE_ROW and got.tobytes() == want.tobytes()
    # the planted branches are taken: clipped, flat at the tolerance, curved
    # up and clamped; a stencil one ulp past the tolerance fits
    assert 4.0 * c - 2.0 * flat_p - 2.0 * c == FLAT_STENCIL_TOL * c
    assert got["degenerate"].tolist() == [True, True, False, False, True, True, False]
    assert (got["eps_t"][[0, 1, 4, 5]] == 0.0).all()
    assert got["eps_f"][4] == -0.5  # fitted, about -1/2 on a near-flat stencil
    assert (got["eps_t"][6], got["eps_f"][6]) == (0.5, -0.5)
    assert not np.isin(got["eps_f"][[0, 1, 2, 3]], (0.0, 0.5, -0.5)).any()
    empty = estimator._quadratic_rows(None, np.empty(0, DETECTION_ROW))
    assert empty.dtype == ESTIMATE_ROW and empty.size == 0


# Frames of the clutter benchmark by seed: its first three, and the first
# that holds a degenerate stencil (about 1 detection in 17,000 is).
CLUTTER_FRAMES = {42: (0, 1, 2, 59), 7919: (0, 1, 2, 43)}


@pytest.mark.parametrize("seed", list(CLUTTER_FRAMES))
def test_quadratic_rows_match_the_per_detection_form_on_clutter(p_default, good_code, s_paper, seed):
    # -10 dB frames at theta 0.28 as the clutter benchmark draws them:
    # hundreds of detections a frame, which reach the clamp and, rarely, a
    # flat or up-curving stencil
    cfg = BenchConfig(params=p_default, code=good_code)
    clamped = degenerate = 0
    for i in CLUTTER_FRAMES[seed]:
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, 1, i])))
        truth = bench.draw_truth(cfg, rng)
        r = echo(good_code, p_default, [truth], -10.0, seed=int(rng.integers(2**32)))
        rows = estimate(r, s_paper, 0.28, "quadratic", p_default).rows
        surface, detections = estimator.coarse_stage(r, s_paper, 0.28, p_default, p_default.lag_window)
        assert len(rows) > 150
        assert rows.tobytes() == per_detection_rows(surface, detections).tobytes()
        clamped += int(np.sum(np.abs(rows["eps_t"]) == 0.5) + np.sum(np.abs(rows["eps_f"]) == 0.5))
        degenerate += int(rows["degenerate"].sum())
    assert clamped > 0 and degenerate > 0


def test_kept_detections_fit_the_lobe_packing_bound(p_default, good_code, s_paper):
    # kept hits lie outside each other's lobes, so the (r_ell + 1) x (r_k + 1)
    # boxes anchored at them are disjoint, within the (n_rows + r_ell) x NM
    # cells they reach when 2 r_k + 1 < NM.  A -10 dB clutter frame at
    # theta 0.05 keeps about two thirds of that bound
    r_ell, r_k = p_default.lobe_half_extents
    lo, hi = p_default.lag_window
    nm = p_default.frame_len
    assert 2 * r_k + 1 < nm
    bound = (hi - lo + 1 + r_ell) * nm // ((r_ell + 1) * (r_k + 1))
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([42, 1, 0])))
    truth = bench.draw_truth(BenchConfig(params=p_default, code=good_code), rng)
    r = echo(good_code, p_default, [truth], -10.0, seed=int(rng.integers(2**32)))
    kept = len(estimate(r, s_paper, 0.05, "quadratic", p_default))
    assert bound // 2 < kept <= bound, f"{kept} detections, bound {bound}"


def test_estimate_refines_quadratic_with_no_detection_per_kept_hit(
    p_default, good_code, s_paper, monkeypatch
):
    # a quadratic frame is refined in one pass: no Detection is built and no
    # per-detection refiner runs, while the REFINERS row still serves a
    # single detection
    built, refined = [], []
    init = Detection.__init__

    def counted_init(self, *args):
        built.append(args)
        init(self, *args)

    def counted(*args):
        refined.append(args)
        raise AssertionError("per-detection quadratic called")

    monkeypatch.setattr(Detection, "__init__", counted_init)
    monkeypatch.setattr(estimator, "_quadratic", counted)
    monkeypatch.setitem(estimator.REFINERS, "quadratic", counted)
    r = echo(good_code, p_default, [ChannelTruth(400.3, 1.8)], -10.0, seed=17)
    estimates = estimate(r, s_paper, 0.28, "quadratic", p_default)
    assert len(estimates) > 10 and built == [] and refined == []


def test_estimates_empty_frame_and_slices(p_default, good_code, s_paper):
    empty = estimate(ComplexSignal(np.zeros(p_default.frame_len)), s_paper, 0.5, "quadratic", p_default)
    assert not empty and empty == [] and list(empty) == [] and empty.method == "quadratic"
    r = echo(good_code, p_default, [ChannelTruth(400.3, 1.8)], -10.0, seed=17)
    estimates = estimate(r, s_paper, 0.28, "quadratic", p_default)
    as_list = list(estimates)
    assert len(as_list) > 10
    for part in (slice(None), slice(2, 7), slice(None, None, -3), slice(5, 2)):
        sliced = estimates[part]
        assert isinstance(sliced, Estimates) and sliced.method == "quadratic"
        assert sliced == as_list[part] and list(sliced) == as_list[part]
    assert estimates[-1] == as_list[-1]
    assert estimates != as_list[:-1] and estimates != as_list[::-1]
    # a non-sequence and a string are not compared: == falls back to identity
    for other in (as_list[0], 3, "quadratic"):
        assert estimates.__eq__(other) is NotImplemented and estimates != other
    assert repr(estimates[:2]) == f"Estimates('quadratic', {as_list[:2]!r})"
    with pytest.raises(IndexError):
        estimates[len(estimates)]


def test_estimates_retain_few_bytes_per_estimate(p_default, good_code, s_paper):
    # an Estimate with its Detection retains about 250 B; a packed row 50 B
    cfg = BenchConfig(params=p_default, code=good_code)
    frames = []
    for i in range(10):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([42, i])))
        truth = bench.draw_truth(cfg, rng)
        frames.append(echo(good_code, p_default, [truth], -10.0, seed=int(rng.integers(2**32))))
    estimate(frames[0], s_paper, 0.28, "quadratic", p_default)  # lazy set-up outside the count
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = [estimate(r, s_paper, 0.28, "quadratic", p_default) for r in frames]
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    n = sum(map(len, kept))
    assert n > 10 * 100
    assert retained / n <= 96, f"{retained / n:.0f} B per estimate"


def reference_estimate(r, s, theta, method, params, lag_window=None):
    """``estimate`` with no lag screen (oracle): detection on one surface
    over the whole window, refinement on one surface over that window
    widened by the lobe half-extent of lags, clipped to +-(NM-1), by each
    method's public refiner."""
    refine = PUBLIC_REFINERS[method]
    lo, hi = params.lag_window if lag_window is None else lag_window
    detected = discrete_ambiguity(r, s, (lo, hi), params, norm=s.energy)
    detections = coarse_detect(detected, theta, params)
    if not detections:
        return []
    ext, max_lag = params.lobe_half_extents[0], params.frame_len - 1
    wide = (max(lo - ext, -max_lag), min(hi + ext, max_lag))
    surface = discrete_ambiguity(r, s, wide, params, norm=s.energy)
    return [refine(surface, det, params) for det in detections]


SCREEN_FRAMES = {
    # id: ((delay, doppler) per target, SNR in dB, theta, lag window)
    "30dB": ([(400.3, 1.8)], 30.0, 0.5, None),
    "0dB": ([(400.3, 1.8)], 0.0, 0.5, None),
    "-10dB": ([(400.3, 1.8)], -10.0, 0.28, None),
    "noiseless": ([(400.3, 1.8)], None, 0.5, None),
    "two-far-targets": ([(149.9, 1.4), (850.2, -3.3)], 30.0, 0.5, None),
    "window-edge": ([(128.0, 0.1)], 30.0, 0.5, None),
    "track-gate": ([(500.2, -1.7)], 20.0, 0.5, (495, 511)),
    "gate-edge": ([(500.2, -1.7)], 20.0, 0.5, (500, 516)),
}


@pytest.mark.parametrize("frame", list(SCREEN_FRAMES))
def test_screened_estimate_matches_full_window(p_default, good_code, s_paper, frame):
    targets, snr_db, theta, window = SCREEN_FRAMES[frame]
    truths = [ChannelTruth(*t) for t in targets]
    r = echo(good_code, p_default, truths, snr_db, seed=17)
    for method in ("sinc2d", "quadratic"):
        want = reference_estimate(r, s_paper, theta, method, p_default, lag_window=window)
        assert want, "the frame must detect something"
        assert estimate(r, s_paper, theta, method, p_default, lag_window=window) == want
    surface, detections = estimator.coarse_stage(
        r, s_paper, theta, p_default, window or p_default.lag_window
    )
    # the one surface holds every lag a refinement of a detection reads
    ext, max_lag = p_default.M // p_default.N_f, p_default.frame_len - 1
    for l_hat in detections["l_hat"].tolist():
        assert surface.contains_lag(max(l_hat - ext, -max_lag))
        assert surface.contains_lag(min(l_hat + ext, max_lag))
    if frame in ("30dB", "noiseless", "window-edge"):
        assert surface.values.shape[0] < 200  # of 769 lags: the screen does trim
    if frame == "30dB":
        # the grid screen trims the span the l1 screen leaves (about 97 lags)
        # to the few lags near the target
        assert surface.values.shape[0] <= 16


def screened_span(r, s, theta, params, window):
    """First and last lag of ``window`` that pass both bounds, by one screen
    of the whole window (oracle of ``coarse_stage``'s walk); None when no
    lag passes."""
    level = theta * s.energy
    l1, bounds = peak_bounds(r, s, window, params)
    grid = bounds(window)
    live = np.flatnonzero(
        ~(l1 * (1.0 + SCREEN_MARGIN) <= level) & ~(grid + SCREEN_MARGIN * l1 <= level)
    )
    if live.size == 0:
        return None
    return window[0] + int(live[0]), window[0] + int(live[-1])


def assert_span_matches_one_shot_screen(r, s, theta, params, window):
    surface, detections = estimator.coarse_stage(r, s, theta, params, window)
    want = screened_span(r, s, theta, params, window)
    if want is None:
        assert surface is None and detections.dtype == DETECTION_ROW and detections.size == 0
    else:
        assert (surface.ell_min, surface.ell_max) == refine_window(want, params)
    return want


def test_coarse_stage_span_matches_one_shot_screen(p_default, good_code, s_paper):
    # windows of 1 to 40 lags with the live lags at the low end, the high
    # end, in the middle and absent, the full window and the detectability
    # window, on a 30 dB frame; the detectability window of a -10 dB frame,
    # where every lag is live; two far targets, whose span holds both
    r = echo(good_code, p_default, [ChannelTruth(400.3, 1.8)], 30.0, seed=17)
    lo, hi = screened_span(r, s_paper, 0.5, p_default, p_default.lag_window)
    assert hi - lo <= 4
    mid = (lo + hi) // 2
    for n in range(1, 41):
        for start in (lo, hi - n + 1, mid - n // 2, hi + 200):
            assert_span_matches_one_shot_screen(r, s_paper, 0.5, p_default, (start, start + n - 1))
    assert assert_span_matches_one_shot_screen(r, s_paper, 0.5, p_default, (hi + 1, hi + 40)) is None
    n = p_default.frame_len
    for window in [(-(n - 1), n - 1), p_default.lag_window]:
        assert assert_span_matches_one_shot_screen(r, s_paper, 0.5, p_default, window) == (lo, hi)
    clutter = echo(good_code, p_default, [ChannelTruth(400.3, 1.8)], -10.0, seed=17)
    span = assert_span_matches_one_shot_screen(clutter, s_paper, 0.28, p_default, p_default.lag_window)
    assert span[1] - span[0] > 700
    both = echo(good_code, p_default, [ChannelTruth(149.9, 1.4), ChannelTruth(850.2, -3.3)])
    span = assert_span_matches_one_shot_screen(both, s_paper, 0.5, p_default, p_default.lag_window)
    assert span[0] <= 150 and span[1] >= 850


def test_coarse_stage_checks_and_pads_the_echo_once_for_both_screens(
    p_default, good_code, s_paper, monkeypatch
):
    # the l1 and grid screens share one window check and one zero-padded
    # echo span; the surface of the live lags takes one more of each
    calls = {"_check_window": 0, "_echo_band": 0}

    def spy(name):
        real = getattr(ambiguity, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return counted

    for name in calls:
        monkeypatch.setattr(ambiguity, name, spy(name))
    r = echo(good_code, p_default, [ChannelTruth(400.3, 1.8)], 30.0, seed=17)
    surface, detections = estimator.coarse_stage(r, s_paper, 0.5, p_default, p_default.lag_window)
    assert surface is not None and detections.size > 0
    assert calls == {"_check_window": 2, "_echo_band": 2}


@pytest.mark.parametrize("n", [1, 2, 3, 8, 17, 18, 19, 40, 97, 769])
def test_trim_ends_finds_the_first_and_last_live_lag(n):
    # every mask, or a sample of them, of n lags: the walk returns the first
    # and last live lag, screens only lags of the span, and screens at most
    # twice the lags it trims plus one first chunk at each end
    rng = np.random.default_rng(n)
    masks = [np.zeros(n, bool), np.ones(n, bool)]
    masks += [np.eye(n, dtype=bool)[i] for i in range(n)] if n <= 97 else []
    masks += [rng.random(n) < q for q in (0.01, 0.05, 0.3) for _ in range(20)]
    base = -7
    for mask in masks:
        screened = []

        def live(*ranges):
            for lo, hi in ranges:
                assert base <= lo <= hi < base + n
                screened.extend(range(lo, hi + 1))
            return np.concatenate([mask[lo - base : hi - base + 1] for lo, hi in ranges])

        hits = np.flatnonzero(mask)
        want = (base + int(hits[0]), base + int(hits[-1])) if hits.size else None
        assert _trim_ends(base, base + n - 1, live) == want
        trimmed = n - (hits[-1] - hits[0] + 1 if hits.size else 0)
        assert len(screened) <= 2 * trimmed + 2 * FIRST_CHUNK


# Two echoes further apart than the replica support (N_t + 2) M, plus two
# guard samples for the fractional delay and the lobe half-extent M // N_f,
# never meet in a product row read near either target (ROADMAP item 8).
@pytest.mark.parametrize("method", ["sinc2d", "quadratic"])
def test_far_targets_refine_as_each_alone(p_default, good_code, s_paper, method):
    # each single-target estimate appears bit for bit among the two-target
    # frame's (rows between the targets may add detections); at a gap where
    # the echoes overlap by a few samples the estimates move
    gap = (p_default.N_t + 2) * p_default.M + 2 + p_default.M // p_default.N_f
    assert gap == 164
    first = ChannelTruth(300.3, 1.8)

    def estimates(*truths):
        return list(estimate(echo(good_code, p_default, truths), s_paper, 0.5, method, p_default))

    for separation, apart in [(gap + 0.5, True), (gap + 60.7, True), (gap - 6.0, False)]:
        second = ChannelTruth(first.delay + separation, -3.3)
        both = estimates(first, second)
        alone = estimates(first) + estimates(second)
        assert len(alone) == 2
        assert all(est in both for est in alone) == apart


@pytest.mark.parametrize("seed", range(3))
def test_one_magnitude_for_detection_refinement_and_dump(
    p_default, good_code, s_paper, tmp_path, seed
):
    # |A| has one definition, np.abs of the surface's values: a quadratic
    # estimate's gain is its detection's peak, and the surface dump's abs
    # column is that array, bit for bit.  Numpy's scalar abs differs from
    # it by one ulp on about a third of the cells of a -10 dB frame.
    truth = bench.draw_truth(BenchConfig(p_default, good_code), np.random.default_rng(seed))
    r = echo(good_code, p_default, [truth], -10.0, seed=seed)
    estimates = estimate(r, s_paper, 0.28, "quadratic", p_default)
    assert len(estimates) > 10
    for est in estimates:
        assert est.alpha == est.detection.peak_mag
    l_hat = estimates[0].detection.l_hat
    surf = discrete_ambiguity(r, s_paper, (l_hat - 1, l_hat + 1), p_default)
    path = tmp_path / "surf.csv"
    write_surface(path, surf)
    dumped = [float(line.rsplit(",", 1)[1]) for line in path.read_text().splitlines()[1:]]
    assert np.array_equal(np.array(dumped), np.abs(surf.values).ravel())


def test_screened_estimate_at_theta_equal_to_a_cell_magnitude(p_default, good_code, s_paper):
    # theta exactly at a computed |A| and one ulp either side: the cell
    # flips between hit and miss, and the screen must not move with it
    truth = ChannelTruth(400.3, 1.8)
    r = echo(good_code, p_default, [truth], 30.0, seed=17)
    full = discrete_ambiguity(r, s_paper, p_default.lag_window, p_default, norm=s_paper.energy)
    mag = np.abs(full.values)
    rows = np.flatnonzero(mag.max(axis=1) > 0.25)
    cells = [mag.max(), mag[rows[0]].max(), mag[rows[-1]].max()]
    for value in cells:
        for theta in (np.nextafter(value, 0.0), value, np.nextafter(value, np.inf)):
            for method in ("sinc2d", "quadratic"):
                want = reference_estimate(r, s_paper, float(theta), method, p_default)
                assert estimate(r, s_paper, float(theta), method, p_default) == want
    assert estimate(r, s_paper, float(cells[0]), "quadratic", p_default) == []
    assert len(estimate(r, s_paper, float(np.nextafter(cells[0], 0.0)), "quadratic", p_default)) == 1


# The screened receiver off the paper geometry: seeded cases of random
# geometry, code, targets, SNR, threshold and lag window.  Each case in
# four draws its geometry free, then with an odd N*M, with N_f = M and with
# N_t = N / 2.
RECEIVER_CASES = 150
GEOMETRY_FEATURES = ("free", "odd NM", "N_f = M", "N_t = N/2")
RECEIVER_SNRS_DB = (None, 30.0, 10.0, 0.0, -10.0)
# Most windows aim at a target: round its lag (or both targets' lags), or one
# lag at or beside it; the others reach -(NM-1), NM-1 or both, are the
# detectability window, or lie anywhere in +-(NM-1).
WINDOW_KINDS = {"target": 0.55, "one-lag": 0.15, "edge": 0.15, "detectability": 0.1, "anywhere": 0.05}


def random_geometry(rng, feature):
    """A geometry of N, M <= 16 with ``feature``.  A free N_t keeps
    N >= 2 N_t + 2 where N allows it, so some delays of the window leave
    the echo mostly clear of the receive gate."""
    # N >= N_t + 3, or the receive gate (N_t + 2) M covers the whole frame:
    # odd N = 3 and N_t = N/2 at N = 4 are clamped up, with the same draws
    if feature == "odd NM":
        n, m = (2 * int(v) + 1 for v in rng.integers(1, 8, 2))
        n = max(n, 5)
    else:
        n, m = int(rng.integers(4, 17)), int(rng.integers(2, 17))
    if feature == "N_t = N/2":
        n = max(n + n % 2, 6)
        n_t = n // 2
    else:
        n_t = int(rng.integers(1, max(1, (n - 2) // 2) + 1))
    if feature == "N_f = M":
        m += m % 2
        n_f = m
    else:
        n_f = 2 * int(rng.integers(1, m // 2 + 1))
    return make_params(n, m, n_t, n_f, 1.0)


def random_receiver_case(rng, feature):
    """Geometry, code seed, noise seed, one or two targets, SNR and lag window."""
    p = random_geometry(rng, feature)
    nm = p.frame_len
    lo, hi = p.lag_window
    # the delays whose echo, (N_t + 2) M samples, loses at most M samples to
    # the receive gate or the frame end, where the window holds any
    first, last = max(lo, p.L - p.M), min(hi, nm - p.L + p.M)
    first, last = (first, last) if first <= last else (lo, hi)
    truths = []
    for _ in range(2 if rng.random() < 0.25 else 1):
        delay = float(rng.integers(first, last + 1))
        if rng.random() < 0.5:
            delay = min(max(delay + rng.uniform(-0.5, 0.5), lo), hi)
        amplitude = rng.uniform(0.5, 1.0) if truths else 1.0
        gain = complex(amplitude * np.exp(2j * np.pi * rng.random()))
        truths.append(ChannelTruth(delay, float(rng.uniform(-p.N, p.N)), gain))
    snr_db = RECEIVER_SNRS_DB[int(rng.integers(len(RECEIVER_SNRS_DB)))]
    kind = str(rng.choice(list(WINDOW_KINDS), p=list(WINDOW_KINDS.values())))
    lags = [t.l_d for t in truths]
    reach = p.lobe_half_extents[0] + 2
    if kind == "target":
        window = (min(lags) - int(rng.integers(reach + 1)), max(lags) + int(rng.integers(reach + 1)))
    elif kind == "one-lag":
        ell = int(rng.choice([lags[0] - 1, lags[0], lags[0] + 1, -(nm - 1), nm - 1]))
        window = (ell, ell)
    elif kind == "edge":
        width = int(rng.integers(nm))
        window = [(-(nm - 1), width - (nm - 1)), (nm - 1 - width, nm - 1), (-(nm - 1), nm - 1)][
            int(rng.integers(3))
        ]
    elif kind == "detectability":
        window = p.lag_window
    else:
        start = int(rng.integers(-(nm - 1), nm))
        window = (start, start + int(rng.integers(2 * reach)))
    window = (max(window[0], -(nm - 1)), min(window[1], nm - 1))
    return p, int(rng.integers(2**32)), int(rng.integers(2**32)), truths, snr_db, window


def random_threshold(rng, magnitude, p, snr_db):
    """Half the time a cell's magnitude or the float just below it, the cell
    one at or above the floor or the window's peak; else uniform from the
    floor up to 0.9.  The floor is 0.2 or, in noise, three times the rms of
    a noise-only cell (its mean power 1 / (NM 10^{snr/10}), as in
    ``bench.expected_noise_hits``), so a noisy frame keeps few hits."""
    floor = 0.2 if snr_db is None else max(0.2, 3.0 / math.sqrt(p.frame_len * 10 ** (snr_db / 10)))
    if rng.random() < 0.5:
        cells = magnitude[magnitude >= floor]
        value = float(rng.choice(cells)) if cells.size and rng.random() < 0.5 else float(magnitude.max())
        if value > 0:
            return value if rng.random() < 0.5 else float(np.nextafter(value, 0.0))
    return float(rng.uniform(floor, max(floor, 0.9)))


def test_screened_receiver_matches_full_window_off_the_paper_geometry():
    # coarse_stage's detections are _suppress's on the full-window surface,
    # and estimate's quadratic and sinc2d rows the per-detection REFINERS
    # rows on the refine_window surface, byte for byte, in every case
    rng = np.random.default_rng(2026)
    detected, covered = 0, set()
    for i in range(RECEIVER_CASES):
        p, code_seed, noise_seed, truths, snr_db, window = random_receiver_case(
            rng, GEOMETRY_FEATURES[i % len(GEOMETRY_FEATURES)]
        )
        code = random_code(p, code_seed)
        s = synthesize_discrete(code, p)
        r = echo(code, p, truths, snr_db, seed=noise_seed)
        full = discrete_ambiguity(r, s, window, p, norm=s.energy)
        theta = random_threshold(rng, full.magnitude, p, snr_db)
        case = (
            f"case {i}: (N, M, N_t, N_f) = {(p.N, p.M, p.N_t, p.N_f)}, code seed {code_seed}, "
            f"noise seed {noise_seed}, truths {truths}, SNR {snr_db} dB, theta {theta!r}, "
            f"window {window}"
        )
        want = estimator._suppress(full, theta, p)
        assert estimator.coarse_stage(r, s, theta, p, window)[1].tobytes() == want.tobytes(), case
        wide = discrete_ambiguity(r, s, refine_window(window, p), p, norm=s.energy)
        for method in ("quadratic", "sinc2d"):
            rows = [(*d, *REFINERS[method](wide, Detection(*d), p)) for d in want.tolist()]
            got = estimate(r, s, theta, method, p, lag_window=window).rows
            assert got.tobytes() == np.array(rows, dtype=ESTIMATE_ROW).tobytes(), f"{method} {case}"
        detected += want.size > 0
        lo, hi = window
        covered.update(
            label
            for label, hit in [
                ("one lag", lo == hi),
                ("-(NM-1)", lo == 1 - p.frame_len),
                ("NM-1", hi == p.frame_len - 1),
                ("two targets", len(truths) == 2 and all(lo <= t.l_d <= hi for t in truths)),
            ]
            if hit
        )
    assert detected > RECEIVER_CASES // 2
    assert covered == {"one lag", "-(NM-1)", "NM-1", "two targets"}


# Malformed inputs to the coarse stage, each a change to a call on an
# all-zero echo of frame length n.
BAD_COARSE_INPUTS = {
    "theta-0": lambda zero, n: {"theta": 0.0},
    "theta-negative": lambda zero, n: {"theta": -1.0},
    "theta-nan": lambda zero, n: {"theta": float("nan")},
    "window-high": lambda zero, n: {"lag_window": (0, n)},
    "window-low": lambda zero, n: {"lag_window": (-n, 3)},
    "window-empty": lambda zero, n: {"lag_window": (5, 4)},
    "lengths": lambda zero, n: {"r": ComplexSignal(np.zeros(n + 1))},
    "zero-replica": lambda zero, n: {"s": zero},
}


@pytest.mark.parametrize("case", list(BAD_COARSE_INPUTS))
def test_estimate_checks_inputs_before_the_screen(p_default, s_paper, case):
    # an all-zero echo leaves no lag live, so only the checks can raise
    n = p_default.frame_len
    zero = ComplexSignal(np.zeros(n))
    assert estimate(zero, s_paper, 0.5, "quadratic", p_default) == []
    surface, detections = estimator.coarse_stage(zero, s_paper, 0.5, p_default, p_default.lag_window)
    assert surface is None and detections.dtype == DETECTION_ROW and detections.size == 0
    call = {"r": zero, "s": s_paper, "theta": 0.5, "lag_window": None}
    call.update(BAD_COARSE_INPUTS[case](zero, n))
    args = (call["r"], call["s"], call["theta"], "quadratic", p_default)
    with pytest.raises(ValueError) as want:
        reference_estimate(*args, lag_window=call["lag_window"])
    with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
        estimate(*args, lag_window=call["lag_window"])


def reference_sinc_fit(x, y, ell_off, k_off, params):
    """The sinc fit's objective per axis, one ``_abs_sinc`` call per axis:
    the bit-for-bit oracle of ``_sinc_fit``'s one lobe evaluation."""
    a, da = _abs_sinc(ell_off - x[0], params.N_f, params.M)
    b, db = _abs_sinc(k_off - x[1], params.N_t, params.N)
    m = a[:, None] * b[None, :]
    gain = max(0.0, float(np.sum(y * m) / np.sum(m * m)))
    res = y - gain * m
    grad = 2.0 * gain * np.array([da @ res @ b, a @ res @ db])
    return float(np.sum(res**2)), grad, gain


def _channel_patch(p_default, good_code, window):
    """The peak-normalized patch of a 15 dB echo at (300.31, 1.73) on a
    surface over ``window``, and its offsets."""
    truth = ChannelTruth(300.31, 1.73)
    surf = make_channel_surface(
        good_code, p_default, truth, snr_db=15.0, seed=2, window=window
    )
    y, ell_off, k_off = _fit_patch(surf, Detection(300, 2, 1.0), p_default)
    return y / y.max(), ell_off, k_off


def _full_axes(params):
    r_ell, r_k = params.lobe_half_extents
    return np.arange(-r_ell, r_ell + 1), np.arange(-r_k, r_k + 1)


# (surface window, patch lags) of each channel patch the oracle test reads
ORACLE_PATCHES = {
    "random": ((296, 304), 5),
    "clipped_4": ((299, 304), 4),
    "clipped_3": ((296, 300), 3),
}


def _oracle_case(case, p_default, good_code):
    """(params, patch, lag offsets, bin offsets, the offsets x to evaluate at)."""
    rng = np.random.default_rng(11)
    if case == "origin_nulls":  # the patch edges ell = +-2, k = +-8 are lobe nulls
        ell_off, k_off = _full_axes(p_default)
        return p_default, rng.random((ell_off.size, k_off.size)), ell_off, k_off, [np.zeros(2)]
    if case == "gain_clipped":  # <y, m> < 0
        ell_off, k_off = _full_axes(p_default)
        y = -sinc_model(ell_off[:, None] - 0.1, k_off[None, :] + 0.2, p_default)
        return p_default, y, ell_off, k_off, [np.array([0.2, -0.3])]
    if case == "off_geometry":  # (20, 6, 4, 4): N_f / M = 2/3 rounds; a 3 x 11 patch
        params = make_params(20, 6, 4, 4)
        ell_off, k_off = _full_axes(params)
        y = rng.random((ell_off.size, k_off.size))
        return params, y, ell_off, k_off, rng.uniform(-0.5, 0.5, size=(50, 2))
    # a full patch, and patches the surface's edge clips to 4 and to 3 lags;
    # 50 random offsets on each
    window, lags = ORACLE_PATCHES[case]
    y, ell_off, k_off = _channel_patch(p_default, good_code, window)
    assert ell_off.size == lags
    return p_default, y, ell_off, k_off, rng.uniform(-0.5, 0.5, size=(50, 2))


@pytest.mark.parametrize("case", ["origin_nulls", "gain_clipped", *ORACLE_PATCHES, "off_geometry"])
def test_sinc_fit_equals_per_axis_oracle_bit_for_bit(p_default, good_code, case):
    params, y, ell_off, k_off, xs = _oracle_case(case, p_default, good_code)
    axes = _lobe_axes(ell_off, k_off, params)
    for x in xs:
        f, grad, gain = _sinc_fit(x, y, axes)
        f0, grad0, gain0 = reference_sinc_fit(x, y, ell_off, k_off, params)
        assert f == f0 and gain == gain0
        assert grad.tolist() == grad0.tolist()


def reference_sinc2d(surface, det, params):
    """``_sinc2d`` with ``reference_sinc_fit`` as its objective, no memo, and
    the same solver call (the whole-fit oracle); also whether the solver ran."""
    x0 = np.array(estimator._quadratic(surface, det)[:2])
    patch, ell_off, k_off = _fit_patch(surface, det, params)
    peak = float(patch.max())
    y = patch / peak

    def fit(x):
        return reference_sinc_fit(x, y, ell_off, k_off, params)

    seed_fit = fit(x0)
    solved = not estimator._stationary(x0, seed_fit[1])
    best = x0
    if solved:
        best = fmin_l_bfgs_b(
            lambda x: fit(x)[:2],
            x0,
            bounds=_FIT_BOUNDS,
            factr=SOLVER["ftol"] / np.finfo(float).eps,
            pgtol=SOLVER["gtol"],
            maxiter=SOLVER["maxiter"],
        )[0]
    candidates = [(np.zeros(2), fit(np.zeros(2))), (x0, seed_fit), (best, fit(best))]
    eps, (_, grad, gain) = min(candidates, key=lambda c: c[1][0])
    outcome = estimator._outcome(
        eps[0], eps[1], gain * peak, converged=estimator._stationary(eps, grad)
    )
    return outcome, solved


def test_sinc2d_equals_the_reference_fit_on_track_frames(p_default, good_code, s_paper):
    # 20 dB frames in a 17-lag gate shifted by up to 6 lags, drawn as the
    # track benchmark draws them at seed 42
    cfg = BenchConfig(params=p_default, code=good_code)
    fits = solved = 0
    for i in range(40):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([42, 2, i])))
        truth = bench.draw_truth(cfg, rng)
        r = echo(good_code, p_default, [truth], 20.0, seed=int(rng.integers(2**32)))
        u = int(rng.integers(-6, 7))
        window = (truth.l_d - 8 + u, truth.l_d + 8 + u)
        surface, detections = estimator.coarse_stage(r, s_paper, 0.5, p_default, window)
        for row in detections.tolist():
            det = Detection(*row)
            want, ran = reference_sinc2d(surface, det, p_default)
            assert repr(REFINERS["sinc2d"](surface, det, p_default)) == repr(want)
            fits, solved = fits + 1, solved + ran
    assert fits == solved == 40  # one detection a frame, and every fit runs the solver


def _check_gradient(y, axes, x, tol=1e-7):
    f, grad, gain = _sinc_fit(x, y, axes)
    oracle = central_difference(lambda z: _sinc_fit(z, y, axes)[0], x)
    assert grad == pytest.approx(oracle, abs=tol)
    return f, grad, gain


@pytest.mark.parametrize(
    "window,ell_off",
    [((296, 304), [-2, -1, 0, 1, 2]), ((299, 304), [-1, 0, 1, 2])],  # full, edge-clipped
)
def test_sinc_fit_gradient_matches_central_difference(p_default, good_code, window, ell_off):
    rng = np.random.default_rng(5)
    y, offsets, k_off = _channel_patch(p_default, good_code, window)
    assert list(offsets) == ell_off
    axes = _lobe_axes(offsets, k_off, p_default)
    for x in rng.uniform(-0.5, 0.5, size=(50, 2)):
        _, _, gain = _check_gradient(y, axes, x)
        assert gain > 0.0


def test_sinc_fit_gradient_at_origin_with_nulls_on_patch_edge(p_default):
    # at the paper geometry the patch edges ell = +-2, k = +-8 are lobe nulls;
    # at x = 0 the gradient takes sign(0) = 0 there, as a central difference
    # does; the lobe's asymmetry about the kink costs the quotient O(h)
    rng = np.random.default_rng(9)
    ell_off, k_off = _full_axes(p_default)
    axes = _lobe_axes(ell_off, k_off, p_default)
    for _ in range(20):
        y = rng.random((ell_off.size, k_off.size))
        _, grad, _ = _check_gradient(y, axes, np.zeros(2), tol=1e-5)
        assert np.any(np.abs(grad) > 1e-3)


def test_sinc_fit_gradient_zero_when_gain_clips(p_default):
    ell_off, k_off = np.arange(-2, 3), np.arange(-8, 9)
    y = -sinc_model(ell_off[:, None] - 0.1, k_off[None, :] + 0.2, p_default)  # <y, m> < 0
    axes = _lobe_axes(ell_off, k_off, p_default)
    f, grad, gain = _check_gradient(y, axes, np.array([0.2, -0.3]))
    assert gain == 0.0
    assert np.array_equal(grad, np.zeros(2))
    assert f == pytest.approx(float(np.sum(y**2)), rel=1e-15)


@pytest.mark.parametrize("seed", range(6))
def test_sinc_fit_matches_finite_difference_solver(p_default, good_code, seed):
    """The analytic-gradient fit reaches the optimum scipy finds with its own
    finite differences on the same objective, bounds and tolerances."""
    rng = np.random.default_rng(100 + seed)
    l_d, k_d = 300 + 7 * seed, int(rng.integers(-20, 21))
    eps_t, eps_f = rng.uniform(-0.45, 0.45, size=2)
    truth = ChannelTruth(l_d + eps_t, k_d + eps_f)
    surf = make_channel_surface(
        good_code, p_default, truth, snr_db=float(rng.uniform(10, 30)), seed=seed,
        window=(l_d - 4, l_d + 4),
    )
    det = Detection(l_d, k_d, 1.0)
    est = refine_sinc2d(surf, det, p_default)
    quad = refine_quadratic(surf, det)
    oracle = minimize(
        lambda x: fit_residual(surf, det, p_default, x[0], x[1]),
        np.array([quad.eps_t, quad.eps_f]),
        method="L-BFGS-B",
        bounds=_FIT_BOUNDS,
        options={k: SOLVER[k] for k in ("ftol", "gtol", "maxiter")},
    )
    assert est.converged and oracle.success
    assert est.eps_t == pytest.approx(oracle.x[0], abs=1e-7)
    assert est.eps_f == pytest.approx(oracle.x[1], abs=1e-7)


def _spy_solver(monkeypatch):
    """Record, for every solver call refine_sinc2d makes, its keyword
    arguments, the offsets it asks the objective for, and its (x, f, info)."""
    calls = []

    def spy(func, x0, **kwargs):
        asked = []

        def recorded(x):
            asked.append(x.tobytes())
            return func(x)

        calls.append((kwargs, asked, fmin_l_bfgs_b(recorded, x0, **kwargs)))
        return calls[-1][2]

    monkeypatch.setattr(scipy.optimize, "fmin_l_bfgs_b", spy)
    return calls


def test_sinc_fit_hands_the_solver_settings_to_fmin_l_bfgs_b(p_default, good_code, monkeypatch):
    # fmin_l_bfgs_b runs the solver on ftol = factr * eps, so factr carries
    # SOLVER["ftol"] exactly; every other setting is its default
    surf = make_channel_surface(
        good_code, p_default, ChannelTruth(300.31, 1.73), snr_db=15.0, seed=2, window=(296, 304)
    )
    calls = _spy_solver(monkeypatch)
    refine_sinc2d(surf, Detection(300, 2, 1.0), p_default)
    ((kwargs, _, _),) = calls
    assert set(kwargs) == {"bounds", "factr", "pgtol", "maxiter"}
    assert kwargs["factr"] * np.finfo(float).eps == SOLVER["ftol"]
    assert kwargs["pgtol"] == SOLVER["gtol"]
    assert kwargs["maxiter"] == SOLVER["maxiter"]
    assert kwargs["bounds"] == _FIT_BOUNDS


@pytest.mark.parametrize("seed", range(4))
def test_sinc_fit_evaluates_each_distinct_offset_once(p_default, good_code, seed, monkeypatch):
    # the solver's first call is at the seed, which the fit has evaluated,
    # its line search may ask for one offset again, and the candidates
    # revisit the point it returns: the objective runs once for each
    # distinct offset the solver asks for, plus the zero-offset candidate.
    # At seed 3 the line search stalls (ABNORMAL) and asks 39 times for 27
    # offsets.
    rng = np.random.default_rng(300 + seed)
    l_d, k_d = 300, int(rng.integers(-20, 21))
    truth = ChannelTruth(l_d + rng.uniform(-0.45, 0.45), k_d + rng.uniform(-0.45, 0.45))
    surf = make_channel_surface(
        good_code, p_default, truth, snr_db=20.0, seed=seed, window=(l_d - 4, l_d + 4)
    )
    evaluated = []

    def counting(x, y, axes):
        evaluated.append(x.tobytes())
        return _sinc_fit(x, y, axes)

    monkeypatch.setattr(estimator, "_sinc_fit", counting)
    calls = _spy_solver(monkeypatch)
    refine_sinc2d(surf, Detection(l_d, k_d, 1.0), p_default)
    ((_, asked, (_, _, info)),) = calls
    assert len(asked) == info["funcalls"] and asked[0] == evaluated[0]
    assert len(evaluated) == len(set(evaluated))
    assert set(evaluated) == set(asked) | {np.zeros(2).tobytes()}
    assert len(evaluated) == len(set(asked)) + 1


def test_sinc_fit_abnormal_exit_at_stationary_point_is_converged(
    p_default, good_code, monkeypatch
):
    # the line search stalls at the objective's round-off floor: scipy flags
    # the exit, yet the returned point is first-order stationary.  Such exits
    # hang on the last bits of the patch, so the case is one of several found
    # by scanning random 20 dB fits at lag 303.
    truth = ChannelTruth(303.3820420846474, -8.08294855352595)
    surf = make_channel_surface(
        good_code, p_default, truth, snr_db=20.0, seed=196, window=(299, 307)
    )
    calls = _spy_solver(monkeypatch)
    est = refine_sinc2d(surf, Detection(303, -8, 1.0), p_default)
    ((_, _, (_, _, info)),) = calls
    assert info["warnflag"] != 0 and "ABNORMAL" in info["task"]
    assert np.max(np.abs(info["grad"])) < 1e-6
    assert est.converged


def test_sinc_fit_stopped_by_maxiter_is_not_converged(p_default, good_code, monkeypatch):
    truth = ChannelTruth(300.31, 1.73)
    surf = make_channel_surface(
        good_code, p_default, truth, snr_db=15.0, seed=2, window=(296, 304)
    )
    det = Detection(300, 2, 1.0)
    assert refine_sinc2d(surf, det, p_default).converged
    monkeypatch.setitem(SOLVER, "maxiter", 1)
    calls = _spy_solver(monkeypatch)
    est = refine_sinc2d(surf, det, p_default)
    ((_, _, (_, _, info)),) = calls
    assert "ITERATIONS REACHED LIMIT" in info["task"]
    assert not est.converged


def test_sinc_fit_seed_pinned_at_bound_skips_solver(p_default, monkeypatch):
    # the lobe peaks 0.7 cells past the detection, so the quadratic seed is
    # clamped to eps_t = 0.5 and the fit pushes against that bound; eps_f = 0
    # is exactly stationary.  The seed skip and Estimate.converged read the
    # same projected-gradient rule, so no solver call is made.
    surf = synthetic_model_surface(p_default, 300, 3, 0.7, 0.0, 1.0)
    det = Detection(300, 3, 1.0)
    assert refine_quadratic(surf, det).eps_t == 0.5
    calls = _spy_solver(monkeypatch)
    est = refine_sinc2d(surf, det, p_default)
    assert calls == []
    assert (est.eps_t, est.eps_f) == (0.5, 0.0)
    assert est.converged


_SCIPY_PROBE = """
import sys
import ddradar as dd
from ddradar.estimator import refiner
p = dd.make_params(64, 16, 8, 8)
code = dd.reference_good_code()
truth = dd.ChannelTruth(300.25, 2.25)
r = dd.apply_receive_gating(dd.apply_channel(code, p, truth), p)
assert dd.estimate(r, dd.synthesize_discrete(code, p), 0.5, "quadratic", p)
print("scipy" in sys.modules)
refiner("sinc2d")
print("scipy" in sys.modules)
"""


def run_fresh(code: str) -> str:
    """Stdout of ``code`` run in a fresh interpreter with ``src`` on the path."""
    src = str(Path(estimator.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True, timeout=120, env=env,
    ).stdout


def test_scipy_loads_only_with_the_sinc2d_refiner():
    """A fresh interpreter that runs a quadratic ``estimate`` never imports
    scipy; looking up the sinc2d refiner does."""
    assert run_fresh(_SCIPY_PROBE).split() == ["False", "True"]


def test_readme_library_quick_start_runs():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    code = re.search(r"## Library quick start\n\n```python\n(.*?)```", readme, re.S).group(1)
    (line,) = run_fresh(code).splitlines()
    assert line.startswith("300 2 ")
