import dataclasses
import hashlib
import json
import math
import os
import platform
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import scipy

import ddradar
from ddradar import (
    BenchConfig,
    ChannelTruth,
    Detection,
    ParameterError,
    add_noise,
    apply_channel,
    apply_receive_gating,
    coarse_detect,
    discrete_ambiguity,
    estimate,
    make_params,
    random_code,
    reference_good_code,
    sinc_conformance,
    synthesize_discrete,
)
from ddradar import bench
from ddradar.ambiguity import AmbiguitySurface
from ddradar.bench import (
    MethodOutcome,
    TrialRecord,
    code_digest,
    draw_truth,
    expected_noise_hits,
    run_trial,
    run_trials,
    sidecar_metadata,
    summarize,
    sweep,
    write_reports_csv,
    write_sidecar,
)
from ddradar.codes import code_text, reference_bad_code, write_code
from ddradar.estimator import REFINERS, SOLVER, refiner

SMALL = make_params(16, 8, 2, 4, 1.0)
PAPER = make_params(64, 16, 8, 8, 1.0)


def small_cfg(**kw):
    defaults = dict(
        params=SMALL,
        code=random_code(SMALL, seed=1),
        snr_db_list=(30.0,),
        trials=16,
        seed=100,
    )
    defaults.update(kw)
    return BenchConfig(**defaults)


def test_run_trial_deterministic():
    cfg = small_cfg()
    a = run_trial(cfg, 30.0, 555)
    b = run_trial(cfg, 30.0, 555)
    assert a.l_d == b.l_d and a.eps_t == b.eps_t
    for method in cfg.methods:
        assert a.outcomes[method].err_delay == b.outcomes[method].err_delay
        assert a.outcomes[method].err_doppler == b.outcomes[method].err_doppler


def test_truth_draw_ranges():
    cfg = small_cfg()
    rng = np.random.Generator(np.random.Philox(1))
    lo, hi = SMALL.lag_window
    for _ in range(200):
        truth = draw_truth(cfg, rng)
        assert lo < truth.l_d < hi
        assert abs(truth.k_D) <= SMALL.N // SMALL.N_t
        assert abs(truth.eps_t) <= 0.5 and abs(truth.eps_f) <= 0.5
        assert truth.in_window(SMALL)


def test_noiseless_trial_accuracy(p_default, good_code):
    cfg = BenchConfig(
        params=p_default, code=good_code, snr_db_list=(math.inf,), trials=1, seed=0
    )
    rec = run_trial(cfg, math.inf, 42)
    out = rec.outcomes["sinc2d"]
    assert abs(out.err_delay) <= 0.02
    assert abs(out.err_doppler) <= 0.07


def test_run_trial_synthesizes_the_replica_once(monkeypatch):
    calls, synthesize = [], bench.synthesize_discrete

    def counting(code, params):
        calls.append(code)
        return synthesize(code, params)

    monkeypatch.setattr(bench, "synthesize_discrete", counting)
    cfg = small_cfg()
    for trial_seed in range(5):
        run_trial(cfg, 30.0, trial_seed)
    assert len(calls) == 1
    assert np.array_equal(cfg.replica.samples, synthesize(cfg.code, cfg.params).samples)


def untimed(rec):
    """A trial record with its stage timings, ``coarse_ms`` and every
    ``refine_ms``, zeroed."""
    outcomes = {m: dataclasses.replace(o, refine_ms=0.0) for m, o in rec.outcomes.items()}
    return dataclasses.replace(rec, coarse_ms=0.0, outcomes=outcomes)


def unscreened(rec):
    """``untimed(rec)`` with ``surface_lags`` at its default, as the
    full-window reference, which builds no screened surface, records it."""
    return dataclasses.replace(untimed(rec), surface_lags=0)


def test_trial_records_do_not_depend_on_t_c():
    # T_c only labels cells in seconds and Hz: the same targets, noise and
    # estimates at every T_c.  Records compare by repr, so a NaN error
    # equals itself.
    def records(t_c):
        cfg = BenchConfig(
            params=make_params(64, 16, 8, 8, t_c), code=reference_good_code(), trials=100, seed=42
        )
        return [repr(untimed(rec)) for snr_db in (30.0, 0.0) for rec in run_trials(cfg, snr_db)]

    reference = records(1.0)
    for t_c in (1e-6, 3e-7, 0.1):
        assert records(t_c) == reference, t_c


def test_records_compare_and_hash_by_identity():
    # arrays have no single truth value, so records holding them compare by
    # identity; a config compares its fields, its code by identity
    builders = {
        "code": reference_good_code,
        "signal": lambda: synthesize_discrete(reference_good_code(), PAPER),
        "surface": lambda: AmbiguitySurface(np.ones((2, 4)), 0, SMALL),
        "config": lambda: BenchConfig(params=PAPER, code=reference_good_code()),
    }
    for name, build in builders.items():
        a, b = build(), build()
        assert a == a and a != b, name
        assert len({a, b, a}) == 2, name
    cfg = small_cfg()
    assert dataclasses.replace(cfg) == cfg and hash(dataclasses.replace(cfg)) == hash(cfg)


def test_sweep_report_grid():
    cfg = small_cfg(trials=4, snr_db_list=(0.0, 10.0, 20.0, 30.0))
    reports = sweep(cfg)
    assert len(reports) == 12  # 4 SNRs x 3 methods
    keys = [(rep.snr_db, rep.method) for rep in reports]
    assert keys == sorted(keys)
    for rep in reports:
        assert rep.trials == 4
        assert rep.rmse_delay >= 0 and rep.rmse_doppler >= 0


@pytest.mark.parametrize(
    "kw, message",
    [
        (dict(snr_db_list=()), "nonempty"),
        (dict(trials=0), "'trials' must be at least 1, got 0"),
        (dict(trials=-5), "'trials' must be at least 1, got -5"),
    ],
    ids=["empty-snr", "zero-trials", "negative-trials"],
)
def test_sweep_rejects_empty_snr_list(kw, message):
    with pytest.raises(ValueError, match=message):
        sweep(small_cfg(**kw))


@pytest.mark.parametrize(
    "kw, message",
    [
        (dict(trials=0), "sweep setting 'trials' must be at least 1, got 0"),
        (dict(seed=-1), "sweep setting 'seed' must be at least 0, got -1"),
        (dict(params=make_params(6, 4, 3, 2, 1.0)), "window [12, 12] has no interior lag"),
    ],
    ids=["zero-trials", "negative-seed", "no-interior-lag"],
)
def test_bench_config_checks_its_settings(kw, message):
    # the one check load_sweep runs, made when the config is built, so no
    # sweep returns no records for trials=0, or fails inside numpy on a
    # negative seed or an empty draw range
    with pytest.raises(ParameterError, match=re.escape(message)):
        small_cfg(**kw)


def test_baseline_rmse_near_uniform_std(p_default, good_code):
    cfg = BenchConfig(
        params=p_default, code=good_code, snr_db_list=(30.0,), trials=100, seed=7
    )
    records = run_trials(cfg, 30.0)
    rep = summarize(records, "baseline")
    assert rep.rmse_delay == pytest.approx(1 / math.sqrt(12), abs=0.05)


def test_reports_csv_format(tmp_path):
    cfg = small_cfg(trials=3)
    reports = sweep(cfg)
    path = tmp_path / "out.csv"
    write_reports_csv(path, reports)
    lines = path.read_text().splitlines()
    assert lines[0] == (
        "snr_db,method,rmse_delay,rmse_doppler,miss_rate,trials,"
        "mean_coarse_ms,mean_refine_ms,mean_surface_lags"
    )
    assert len(lines) == 1 + len(reports)
    fields = lines[1].split(",")
    assert fields[1] in cfg.methods
    float(fields[2]), float(fields[3])  # parse cleanly
    # each float written as its repr, so it reads back to the same bits
    for line, rep in zip(lines[1:], reports):
        assert line.split(",") == [
            repr(v) if isinstance(v, float) else str(v) for v in dataclasses.astuple(rep)
        ]


def test_reports_csv_writes_numpy_snrs_as_numbers(tmp_path):
    # a library caller may pass NumPy floats; the CSV holds plain numbers
    snr = np.float64(20.0)
    reports = sweep(small_cfg(trials=3, snr_db_list=(snr,)))
    assert all(type(rep.snr_db) is np.float64 for rep in reports)
    path = tmp_path / "out.csv"
    write_reports_csv(path, reports)
    rows = path.read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["20.0"] * len(reports)


def test_sidecar_metadata(tmp_path):
    cfg = small_cfg()
    path = tmp_path / "out.csv.meta.json"
    write_sidecar(path, cfg)
    meta = json.loads(path.read_text())
    assert meta["seed"] == cfg.seed
    assert meta["params"] == {"N": 16, "M": 8, "N_t": 2, "N_f": 4, "T_c": 1.0}
    assert meta["code_sha256"] == code_digest(cfg.code)
    assert meta["conformance_score"] == sinc_conformance(cfg.code, cfg.params)[0]
    assert meta["optimizer"] == SOLVER
    assert meta["optimizer"]["maxiter"] == 200
    assert sidecar_metadata(cfg)["trials"] == cfg.trials


def test_sidecar_ends_in_an_environment_block(tmp_path, simd_target):
    # the keys written before the block keep their order; the block names
    # what made the numbers, within which their bits hold
    cfg = small_cfg()
    path = tmp_path / "out.csv.meta.json"
    write_sidecar(path, cfg)
    meta = json.loads(path.read_text())
    assert list(meta) == [
        "seed", "code_sha256", "params", "theta", "trials", "snr_db_list",
        "methods", "optimizer", "conformance_score", "expected_noise_hits",
        "environment",
    ]
    assert meta["environment"] == {
        "ddradar": ddradar.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "simd_target": simd_target,
    }


def test_sidecar_records_expected_noise_hits(tmp_path):
    # one value per SNR in snr_db_list order: n_cells exp(-theta^2 NM 10^{snr/10})
    cfg = small_cfg(snr_db_list=(-10.0, 0.0, 30.0), theta=0.28)
    path = tmp_path / "out.csv.meta.json"
    write_sidecar(path, cfg)
    hits = json.loads(path.read_text())["expected_noise_hits"]
    (lo, hi), n = cfg.params.lag_window, cfg.params.frame_len
    want = [(hi - lo + 1) * n * math.exp(-0.28**2 * n * 10 ** (snr / 10)) for snr in cfg.snr_db_list]
    assert hits == pytest.approx(want, rel=1e-12, abs=0)
    # the paper geometry's 769-lag window at -10 dB and clutter's theta
    assert expected_noise_hits(PAPER, 0.28, -10.0) == pytest.approx(
        256.83, abs=0.005
    )
    assert expected_noise_hits(cfg.params, 0.28, math.inf) == 0.0


def test_sidecar_is_strict_json_with_infinite_settings(tmp_path):
    # a noiseless SNR and theta = inf are written as "inf", which float() reads back
    cfg = small_cfg(snr_db_list=(math.inf, 30.0), theta=math.inf)
    path = tmp_path / "out.csv.meta.json"
    write_sidecar(path, cfg)

    def reject(constant):
        raise ValueError(f"{constant} is not JSON (RFC 8259)")

    meta = json.loads(path.read_text(), parse_constant=reject)
    assert meta["snr_db_list"] == ["inf", 30.0]
    assert meta["theta"] == "inf"
    assert tuple(map(float, meta["snr_db_list"])) == cfg.snr_db_list
    assert meta["conformance_score"] == sinc_conformance(cfg.code, cfg.params)[0]


@pytest.mark.parametrize(
    "code", [random_code(SMALL, seed=1), reference_good_code(), reference_bad_code()]
)
def test_code_digest_is_sha256_of_code_file(tmp_path, code):
    path = tmp_path / "code.txt"
    write_code(path, code)
    assert path.read_text() == code_text(code)
    expected = hashlib.sha256(path.read_bytes()).hexdigest()
    # each config at its own code's geometry, as load_sweep requires
    params = SMALL if (code.n_t, code.n_f) == (SMALL.N_t, SMALL.N_f) else PAPER
    assert sidecar_metadata(small_cfg(params=params, code=code))["code_sha256"] == expected


def test_summary_stage_costs():
    cfg = small_cfg(trials=8)
    records = run_trials(cfg, 30.0)
    sinc2d = summarize(records, "sinc2d")
    quadratic = summarize(records, "quadratic")
    coarse_ms = sinc2d.mean_coarse_ms
    assert coarse_ms > 0 and sinc2d.mean_refine_ms > 0 and quadratic.mean_refine_ms > 0
    assert quadratic.mean_refine_ms < coarse_ms
    # sinc fit costs the same order as the surface computation, never more
    assert sinc2d.mean_refine_ms < 20 * coarse_ms


def test_miss_counting(monkeypatch):
    # at -40 dB noise crosses the threshold in hundreds of cells and the
    # strongest is not the target's: a wrong-cell miss, flagged and still
    # scored (test_run_trial_fallback_matches_full_window_reference covers
    # the below-threshold fallback)
    found, coarse_stage = [], bench.coarse_stage

    def spy(*args):
        surface, detections = coarse_stage(*args)
        found.append(detections)
        return surface, detections

    monkeypatch.setattr(bench, "coarse_stage", spy)
    cfg = small_cfg(trials=2)
    rec = run_trial(cfg, -40.0, 9)
    [detections] = found
    assert len(detections) > 0
    det = Detection(*detections[0].item())
    assert (det.l_hat, det.k_hat) != (rec.l_d, rec.k_D)
    for out in rec.outcomes.values():
        assert out.miss and (out.l_hat, out.k_hat) == (det.l_hat, det.k_hat)
    assert np.isfinite(rec.outcomes["baseline"].err_delay)


@pytest.mark.parametrize("method", list(REFINERS))
def test_run_trial_agrees_with_estimate(p_default, good_code, method, monkeypatch):
    """run_trial refines the strongest detection exactly as estimate does."""
    frames, coarse_stage = [], bench.coarse_stage

    def spy(r, s, *args):
        frames.append((r, s))
        return coarse_stage(r, s, *args)

    monkeypatch.setattr(bench, "coarse_stage", spy)
    cfg = BenchConfig(params=p_default, code=good_code)
    for trial_seed in range(40, 45):
        out = run_trial(cfg, 30.0, trial_seed).outcomes[method]
        r, s = frames[-1]
        est = estimate(r, s, cfg.theta, method, p_default)[0]
        assert (out.l_hat, out.k_hat, out.eps_t, out.eps_f) == (
            est.detection.l_hat, est.detection.k_hat, est.eps_t, est.eps_f
        )


def reference_run_trial(cfg, snr_db, trial_seed):
    """``run_trial`` with no lag screen (oracle): one surface over the whole
    window widened by the lobe half-extent of lags, clipped to +-(NM-1),
    detection, or the argmax fallback, on the window's rows of it, and
    refinement on all of it."""
    p = cfg.params
    refiners = [(method, refiner(method)) for method in cfg.methods]
    truth_rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([trial_seed, 0])))
    noise_seed = int(np.random.SeedSequence([trial_seed, 1]).generate_state(1)[0])
    truth = draw_truth(cfg, truth_rng)
    s = cfg.replica
    r = apply_channel(cfg.code, p, truth)
    r = add_noise(r, snr_db, noise_seed, p, ref_energy=s.energy)
    r = apply_receive_gating(r, p)
    (lo, hi), ext, max_lag = p.lag_window, p.lobe_half_extents[0], p.frame_len - 1
    wide = (max(lo - ext, -max_lag), min(hi + ext, max_lag))
    surface = discrete_ambiguity(r, s, wide, p, norm=s.energy)
    detected = surface.rows(lo, hi)
    detections = coarse_detect(detected, cfg.theta, p)
    if detections:
        det, undetected = detections[0], False
    else:
        mag = np.abs(detected.values)
        row, col = np.unravel_index(np.argmax(mag), mag.shape)
        det = Detection(lo + int(row), detected.signed_bin(int(col)), float(mag[row, col]))
        undetected = True
    miss = undetected or det.l_hat != truth.l_d or det.k_hat != truth.k_D
    outcomes = {}
    for method, refine in refiners:
        eps_t, eps_f, *_ = refine(surface, det, p)
        outcomes[method] = MethodOutcome(
            method, det.l_hat, det.k_hat, eps_t, eps_f,
            (det.l_hat + eps_t) - truth.delay, (det.k_hat + eps_f) - truth.doppler, miss, 0.0,
        )
    return TrialRecord(
        trial_seed, snr_db, truth.l_d, truth.eps_t, truth.k_D, truth.eps_f, 0.0, outcomes
    )


@pytest.mark.parametrize("snr_db", [30.0, 0.0])
def test_run_trial_matches_full_window_reference(snr_db):
    cfg = BenchConfig(params=PAPER, code=reference_good_code(), seed=42)
    lags = []
    for trial_seed in range(42, 242):
        rec = run_trial(cfg, snr_db, trial_seed)
        assert unscreened(rec) == reference_run_trial(cfg, snr_db, trial_seed)
        lags.append(rec.surface_lags)
    if snr_db == 30.0:
        # the two screens leave a few live lags widened by 2 on each side,
        # where the l1 screen alone left about 97 of the 769
        assert np.mean(np.array(lags) <= 8) >= 0.95


@pytest.mark.parametrize("l_d,eps_t", [(128, 0.0), (128, 0.3), (896, -0.2), (896, 0.0)])
@pytest.mark.parametrize("snr_db", [30.0, 0.0])
def test_run_trial_matches_full_window_reference_at_the_window_edge(
    monkeypatch, snr_db, l_d, eps_t
):
    # a target on the window's first or last lag is refined on lags past the
    # window, so the surface must reach the whole lobe half-extent beyond it
    # (the uniform draw keeps l_d off those lags)
    draw = draw_truth

    def placed(cfg, rng):
        truth = draw(cfg, rng)
        return ChannelTruth(l_d + eps_t, truth.doppler)

    monkeypatch.setattr(bench, "draw_truth", placed)
    monkeypatch.setitem(globals(), "draw_truth", placed)
    cfg = BenchConfig(params=PAPER, code=reference_good_code(), seed=42)
    assert PAPER.lag_window == (128, 896)
    for trial_seed in range(42, 52):
        rec = run_trial(cfg, snr_db, trial_seed)
        assert (rec.l_d, rec.l_d + rec.eps_t) == (l_d, l_d + eps_t)
        assert unscreened(rec) == reference_run_trial(cfg, snr_db, trial_seed)


def test_run_trial_fallback_matches_full_window_reference():
    # theta = 2 leaves no cell, and at 30 dB no lag, above the threshold
    cfg = BenchConfig(params=PAPER, code=reference_good_code(), theta=2.0, seed=42)
    for trial_seed in range(42, 47):
        rec = run_trial(cfg, 30.0, trial_seed)
        assert all(out.miss for out in rec.outcomes.values())
        assert unscreened(rec) == reference_run_trial(cfg, 30.0, trial_seed)
        assert rec.surface_lags == 769 + 4  # the whole window, widened


def test_run_trial_fallback_is_timed_as_coarse(monkeypatch):
    # coarse_ms covers the fallback's surface, its |A| pass and the argmax:
    # an argmax made 50 ms slower shows in it
    argmax = np.argmax

    def slow_argmax(*args, **kwargs):
        time.sleep(0.05)
        return argmax(*args, **kwargs)

    monkeypatch.setattr(np, "argmax", slow_argmax)
    cfg = BenchConfig(params=PAPER, code=reference_good_code(), theta=2.0, seed=42)
    rec = run_trial(cfg, 30.0, 42)
    assert all(out.miss for out in rec.outcomes.values())
    assert rec.coarse_ms >= 50.0


def test_run_trial_fallback_ignores_a_trimmed_surface(monkeypatch):
    # live lags with no cell above theta: the argmax must still search the
    # full window, not the coarse stage's trimmed surface
    def one_lag_stage(r, s, theta, params, lag_window):
        window = (lag_window[0], lag_window[0])
        return discrete_ambiguity(r, s, window, params, norm=s.energy), []

    monkeypatch.setattr(bench, "coarse_stage", one_lag_stage)
    cfg = BenchConfig(params=PAPER, code=reference_good_code(), theta=2.0, seed=42)
    for trial_seed in range(42, 45):
        rec = run_trial(cfg, 30.0, trial_seed)
        assert unscreened(rec) == reference_run_trial(cfg, 30.0, trial_seed)


# Noiseless RMSEs at the paper geometry, 200 trials from seed 42: with no
# noise every per-trial offset is deterministic, so the sweep pins each
# method's bias floor tightly.  A tighter check beside acceptance
# criterion 4's factor-of-3 band, not a replacement for it.  Keyed by
# numpy's SIMD kernel family (conftest's simd_target): the replica's last
# bits differ by family, and flat sinc2d fits move by up to about 1e-8.
NOISELESS_GOLDEN = {
    "X86_V4": {
        "sinc2d": (0.009160575915814106, 0.026109631152884855),
        "quadratic": (0.01909164359619977, 0.05435034657111698),
        "baseline": (0.29284732738890695, 0.2863284075590715),
    },
    "X86_V3": {
        "sinc2d": (0.009160575907723002, 0.026109631100832024),
        "quadratic": (0.01909164359619977, 0.054350346571117085),
        "baseline": (0.29284732738890695, 0.2863284075590715),
    },
}


def test_noiseless_sweep_golden(simd_target):
    assert simd_target in NOISELESS_GOLDEN, f"no noiseless RMSEs measured under {simd_target}"
    golden = NOISELESS_GOLDEN[simd_target]
    cfg = BenchConfig(
        params=make_params(64, 16, 8, 8, 1.0),
        code=reference_good_code(),
        snr_db_list=(math.inf,),
        trials=200,
        seed=42,
    )
    reports = {rep.method: rep for rep in sweep(cfg)}
    assert set(reports) == set(golden)
    for method, (rmse_delay, rmse_doppler) in golden.items():
        rep = reports[method]
        assert rep.rmse_delay == pytest.approx(rmse_delay, rel=1e-9, abs=0)
        assert rep.rmse_doppler == pytest.approx(rmse_doppler, rel=1e-9, abs=0)
        assert rep.miss_rate == pytest.approx(0.035, rel=1e-9, abs=0)


def _simd_target_in_fresh_process(disabled: str | None) -> str:
    """``simd_target()`` in a fresh interpreter, with ``NPY_DISABLE_CPU_FEATURES``
    set to ``disabled`` or unset."""
    src = str(Path(bench.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
    env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    if disabled is not None:
        env["NPY_DISABLE_CPU_FEATURES"] = disabled
    code = "from ddradar.bench import simd_target; print(simd_target())"
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120,
        env=env,
    ).stdout.strip()


def test_simd_target_reads_the_avx2_level_kernels_when_avx512_is_disabled():
    # the variable CI's AVX2-level step sets; its feature names are numpy 2.3+'s.
    # Disabling X86_V3 as well leaves numpy's baseline kernels.
    from numpy._core._multiarray_umath import __cpu_features__ as features

    if "X86_V4" not in features:
        pytest.skip("this numpy names no X86_V4 feature to disable (numpy before 2.3)")
    if _simd_target_in_fresh_process(None) != "X86_V4":
        pytest.skip("numpy dispatches to no AVX-512 kernels on this host")
    assert _simd_target_in_fresh_process("AVX512_SPR AVX512_ICL X86_V4") == "X86_V3"
    assert _simd_target_in_fresh_process("AVX512_SPR AVX512_ICL X86_V4 X86_V3") == "baseline"
