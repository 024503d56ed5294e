import hashlib
import json
import math

import numpy as np
import pytest

from ddradar import BenchConfig, estimate, make_params, random_code, reference_good_code
from ddradar import bench
from ddradar.bench import (
    code_digest,
    draw_truth,
    run_trial,
    run_trials,
    sidecar_metadata,
    summarize,
    sweep,
    write_reports_csv,
    write_sidecar,
)
from ddradar.codes import code_text, reference_bad_code, write_code
from ddradar.estimator import REFINERS, SOLVER

SMALL = make_params(16, 8, 2, 4, 1.0)


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


def test_worker_counts_agree():
    cfg1 = small_cfg(trials=12, workers=1)
    cfg2 = small_cfg(trials=12, workers=3)
    rec1 = run_trials(cfg1, 30.0)
    rec2 = run_trials(cfg2, 30.0)
    for a, b in zip(rec1, rec2):
        assert a.trial_seed == b.trial_seed
        for method in cfg1.methods:
            assert a.outcomes[method].err_delay == b.outcomes[method].err_delay
            assert a.outcomes[method].err_doppler == b.outcomes[method].err_doppler


def test_sweep_report_grid():
    cfg = small_cfg(
        trials=4, snr_db_list=(0.0, 10.0, 20.0, 30.0), methods=("sinc2d", "quadratic")
    )
    reports = sweep(cfg)
    assert len(reports) == 8
    keys = [(rep.snr_db, rep.method) for rep in reports]
    assert keys == sorted(keys)
    for rep in reports:
        assert rep.trials == 4
        assert rep.rmse_delay >= 0 and rep.rmse_doppler >= 0


@pytest.mark.parametrize(
    "kw, message",
    [
        (dict(snr_db_list=()), "nonempty"),
        (dict(trials=0), "trials must be at least 1, got 0"),
        (dict(trials=-5), "trials must be at least 1, got -5"),
    ],
    ids=["empty-snr", "zero-trials", "negative-trials"],
)
def test_sweep_rejects_empty_snr_list(kw, message):
    with pytest.raises(ValueError, match=message):
        sweep(small_cfg(**kw))


def test_baseline_rmse_near_uniform_std(p_default, good_code):
    cfg = BenchConfig(
        params=p_default, code=good_code, snr_db_list=(30.0,), trials=100, seed=7
    )
    records = run_trials(cfg, 30.0)
    rep = summarize(records, 30.0, "baseline")
    assert rep.rmse_delay == pytest.approx(1 / math.sqrt(12), abs=0.05)


def test_reports_csv_format(tmp_path):
    cfg = small_cfg(trials=3)
    reports = sweep(cfg)
    path = tmp_path / "out.csv"
    write_reports_csv(path, reports)
    lines = path.read_text().splitlines()
    assert lines[0] == (
        "snr_db,method,rmse_delay,rmse_doppler,miss_rate,trials,"
        "mean_coarse_ms,mean_refine_ms"
    )
    assert len(lines) == 1 + len(reports)
    fields = lines[1].split(",")
    assert fields[1] in cfg.methods
    float(fields[2]), float(fields[3])  # parse cleanly


def test_sidecar_metadata(tmp_path):
    cfg = small_cfg()
    path = tmp_path / "out.csv.meta.json"
    write_sidecar(path, cfg, conformance_score=0.02)
    meta = json.loads(path.read_text())
    assert meta["seed"] == cfg.seed
    assert meta["params"] == {"N": 16, "M": 8, "N_t": 2, "N_f": 4, "T_c": 1.0}
    assert meta["code_sha256"] == code_digest(cfg.code)
    assert meta["conformance_score"] == 0.02
    assert meta["optimizer"] == SOLVER
    assert meta["optimizer"]["maxiter"] == 200
    assert sidecar_metadata(cfg)["trials"] == cfg.trials


@pytest.mark.parametrize(
    "code", [random_code(SMALL, seed=1), reference_good_code(), reference_bad_code()]
)
def test_code_digest_is_sha256_of_code_file(tmp_path, code):
    path = tmp_path / "code.txt"
    write_code(path, code)
    assert path.read_text() == code_text(code)
    expected = hashlib.sha256(path.read_bytes()).hexdigest()
    assert sidecar_metadata(small_cfg(code=code))["code_sha256"] == expected


def test_summary_stage_costs():
    cfg = small_cfg(trials=8)
    records = run_trials(cfg, 30.0)
    sinc2d = summarize(records, 30.0, "sinc2d")
    quadratic = summarize(records, 30.0, "quadratic")
    coarse_ms = sinc2d.mean_coarse_ms
    assert coarse_ms > 0 and sinc2d.mean_refine_ms > 0 and quadratic.mean_refine_ms > 0
    assert quadratic.mean_refine_ms < coarse_ms
    # sinc fit costs the same order as the surface computation, never more
    assert sinc2d.mean_refine_ms < 20 * coarse_ms


def test_miss_counting():
    # alpha = 0 forces the below-threshold fallback: flagged and still scored
    cfg = small_cfg(trials=2)
    rec = run_trial(cfg, -40.0, 9)
    assert all(out.miss for out in rec.outcomes.values())
    assert np.isfinite(rec.outcomes["baseline"].err_delay)


@pytest.mark.parametrize("method", list(REFINERS))
def test_run_trial_agrees_with_estimate(p_default, good_code, method, monkeypatch):
    """run_trial refines the strongest detection exactly as estimate does."""
    frames, extend_around = [], bench.extend_around

    def spy(surface, r, s, detections):
        frames.append((r, s))
        return extend_around(surface, r, s, detections)

    monkeypatch.setattr(bench, "extend_around", spy)
    cfg = BenchConfig(params=p_default, code=good_code, methods=(method,))
    for trial_seed in range(40, 45):
        out = run_trial(cfg, 30.0, trial_seed).outcomes[method]
        r, s = frames[-1]
        est = estimate(r, s, cfg.theta, method, p_default)[0]
        assert (out.l_hat, out.k_hat, out.eps_t, out.eps_f) == (
            est.detection.l_hat, est.detection.k_hat, est.eps_t, est.eps_f
        )


# Noiseless RMSEs at the paper geometry, 200 trials from seed 42: with no
# noise every per-trial offset is deterministic, so the sweep pins each
# method's bias floor tightly.  A tighter check beside acceptance
# criterion 4's factor-of-3 band, not a replacement for it.
NOISELESS_GOLDEN = {
    "sinc2d": (0.009160575914790994, 0.02610963101070486),
    "quadratic": (0.01909164359619977, 0.05435034657111708),
    "baseline": (0.29284732738890695, 0.2863284075590715),
}


def test_noiseless_sweep_golden():
    cfg = BenchConfig(
        params=make_params(64, 16, 8, 8, 1.0),
        code=reference_good_code(),
        snr_db_list=(math.inf,),
        trials=200,
        seed=42,
    )
    reports = {rep.method: rep for rep in sweep(cfg)}
    assert set(reports) == set(NOISELESS_GOLDEN)
    for method, (rmse_delay, rmse_doppler) in NOISELESS_GOLDEN.items():
        rep = reports[method]
        assert rep.rmse_delay == pytest.approx(rmse_delay, rel=1e-9, abs=0)
        assert rep.rmse_doppler == pytest.approx(rmse_doppler, rel=1e-9, abs=0)
        assert rep.miss_rate == pytest.approx(0.035, rel=1e-9, abs=0)
