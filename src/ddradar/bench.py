"""Monte Carlo RMSE benchmark and stage timing.

Each trial draws a random in-window target, synthesizes the noisy gated
frame, and runs every refinement method on the same frame.  Trials are
keyed by ``seed + trial_index`` and all randomness flows through Philox
streams derived from that key, so a sweep is reproducible sample-for-sample
regardless of the worker count.

Errors are accounted in grid cells: delay error (l_hat + eps_hat) - t_d/T_s
and the Doppler analogue.  A trial whose coarse stage finds nothing above
the threshold falls back to the global surface argmax and is flagged as a
miss, as is a trial whose coarse cell is not the true cell; missed trials
still contribute their actual error, so the RMSE is unconditioned, and the
miss rate is reported alongside.
"""

from __future__ import annotations

import functools
import hashlib
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .ambiguity import discrete_ambiguity
from .channel import ChannelTruth, add_noise, apply_channel, apply_receive_gating
from .codes import CodeMatrix, code_text, random_code, read_code, reference_good_code
from .config import RadarParams, load_params, read_config
from .estimator import (
    DEFAULT_THRESHOLD,
    REFINERS,
    SOLVER,
    Detection,
    coarse_detect,
    extend_around,
    refiner,
)
from .waveform import synthesize_discrete

BASELINE = "baseline"  # coarse cell only, fractional offsets left at zero
DEFAULT_METHODS = tuple(REFINERS)


@dataclass(frozen=True)
class BenchConfig:
    params: RadarParams
    code: CodeMatrix
    snr_db_list: tuple[float, ...] = (30.0,)
    trials: int = 1000
    theta: float = DEFAULT_THRESHOLD
    seed: int = 0
    workers: int = 1
    methods: tuple[str, ...] = DEFAULT_METHODS


def load_sweep(path: str | Path, workers: int | None = None, seed: int | None = None) -> BenchConfig:
    """Read a sweep config file into a BenchConfig; geometry resolves by
    ``load_params``.  ``code_file`` reads a code, ``code_seed`` draws one,
    and neither means the reference good code.  Other keys default to
    BenchConfig's; non-None ``workers`` and ``seed`` override the file.
    """
    raw = read_config(path)
    params = load_params(path)
    if "code_file" in raw:
        code = read_code(raw["code_file"], params)
    elif "code_seed" in raw:
        code = random_code(params, raw["code_seed"])
    else:
        code = reference_good_code()
        code.require_match(params)
    kwargs = {k: raw[k] for k in ("trials", "theta", "seed", "workers") if k in raw}
    if "snr_db" in raw:
        kwargs["snr_db_list"] = tuple(raw["snr_db"])
    kwargs.update({k: v for k, v in (("workers", workers), ("seed", seed)) if v is not None})
    return BenchConfig(params=params, code=code, **kwargs)


@dataclass(frozen=True)
class MethodOutcome:
    method: str
    l_hat: int
    k_hat: int
    eps_t: float
    eps_f: float
    err_delay: float  # cells of T_s
    err_doppler: float  # cells of delta_f
    miss: bool
    refine_ms: float


@dataclass(frozen=True)
class TrialRecord:
    trial_seed: int
    snr_db: float
    l_d: int
    eps_t: float
    k_D: int
    eps_f: float
    coarse_ms: float
    outcomes: dict[str, MethodOutcome] = field(default_factory=dict)


@dataclass(frozen=True)
class RmseReport:
    snr_db: float
    method: str
    rmse_delay: float
    rmse_doppler: float
    miss_rate: float
    trials: int
    mean_coarse_ms: float
    mean_refine_ms: float


def draw_truth(cfg: BenchConfig, rng: np.random.Generator) -> ChannelTruth:
    """Uniform target draw: interior integer cells, fractions in [-1/2, 1/2]."""
    p = cfg.params
    lo, hi = p.lag_window
    l_d = int(rng.integers(lo + 1, hi))  # interior so any fraction stays in-window
    k_max = p.N // p.N_t
    k_D = int(rng.integers(-k_max, k_max + 1))
    eps_t = float(rng.uniform(-0.5, 0.5))
    eps_f = float(rng.uniform(-0.5, 0.5))
    return ChannelTruth.from_grid(l_d, eps_t, k_D, eps_f, 1.0 + 0j, p)


def run_trial(cfg: BenchConfig, snr_db: float, trial_seed: int) -> TrialRecord:
    """One Monte Carlo trial; pure function of (cfg, snr_db, trial_seed)."""
    p = cfg.params
    refiners = [(method, refiner(method)) for method in cfg.methods]
    truth_rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([trial_seed, 0])))
    noise_seed = int(np.random.SeedSequence([trial_seed, 1]).generate_state(1)[0])

    truth = draw_truth(cfg, truth_rng)
    s = synthesize_discrete(cfg.code, p)
    r = apply_channel(cfg.code, p, truth)
    r = add_noise(r, snr_db, noise_seed, p, ref_energy=s.energy)
    r = apply_receive_gating(r, p)

    t0 = time.perf_counter_ns()
    surface = discrete_ambiguity(r, s, p.lag_window, p, norm=s.energy)
    detections = coarse_detect(surface, cfg.theta, p)
    coarse_ms = (time.perf_counter_ns() - t0) / 1e6

    if detections:
        det = detections[0]
        undetected = False
    else:
        row, col = np.unravel_index(np.argmax(np.abs(surface.values)), surface.values.shape)
        det = Detection(
            surface.ell_min + int(row),
            surface.signed_bin(int(col)),
            float(np.abs(surface.values[row, col])),
        )
        undetected = True

    surface = extend_around(surface, r, s, [det])

    true_delay = truth.l_d + truth.eps_t
    true_doppler = truth.k_D + truth.eps_f
    miss = undetected or det.l_hat != truth.l_d or det.k_hat != truth.k_D

    outcomes = {}
    for method, refine in refiners:
        t0 = time.perf_counter_ns()
        est = refine(surface, det, p)
        refine_ms = (time.perf_counter_ns() - t0) / 1e6
        outcomes[method] = MethodOutcome(
            method=method,
            l_hat=det.l_hat,
            k_hat=det.k_hat,
            eps_t=est.eps_t,
            eps_f=est.eps_f,
            err_delay=est.delay_cells - true_delay,
            err_doppler=est.doppler_cells - true_doppler,
            miss=miss,
            refine_ms=refine_ms,
        )

    return TrialRecord(
        trial_seed=trial_seed,
        snr_db=snr_db,
        l_d=truth.l_d,
        eps_t=truth.eps_t,
        k_D=truth.k_D,
        eps_f=truth.eps_f,
        coarse_ms=coarse_ms,
        outcomes=outcomes,
    )


def run_trials(cfg: BenchConfig, snr_db: float) -> list[TrialRecord]:
    """All trials at one SNR, in trial order, optionally on worker processes."""
    trial = functools.partial(run_trial, cfg, snr_db)
    seeds = range(cfg.seed, cfg.seed + cfg.trials)
    if cfg.workers <= 1:
        return list(map(trial, seeds))
    with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
        return list(pool.map(trial, seeds, chunksize=max(1, cfg.trials // (4 * cfg.workers))))


def summarize(records: list[TrialRecord], snr_db: float, method: str) -> RmseReport:
    """Reduce trial records (in trial order) to one report row."""
    err_d = np.array([rec.outcomes[method].err_delay for rec in records])
    err_f = np.array([rec.outcomes[method].err_doppler for rec in records])
    misses = np.array([rec.outcomes[method].miss for rec in records])
    return RmseReport(
        snr_db=snr_db,
        method=method,
        rmse_delay=float(np.sqrt(np.mean(err_d**2))),
        rmse_doppler=float(np.sqrt(np.mean(err_f**2))),
        miss_rate=float(np.mean(misses)),
        trials=len(records),
        mean_coarse_ms=float(np.mean([rec.coarse_ms for rec in records])),
        mean_refine_ms=float(np.mean([rec.outcomes[method].refine_ms for rec in records])),
    )


def sweep(cfg: BenchConfig) -> list[RmseReport]:
    """One report per (snr_db, method), ordered by (snr_db, method)."""
    if not cfg.snr_db_list:
        raise ValueError("snr_db_list must be nonempty")
    if cfg.trials < 1:
        raise ValueError(f"trials must be at least 1, got {cfg.trials}")
    reports = []
    for snr_db in cfg.snr_db_list:
        records = run_trials(cfg, snr_db)
        for method in cfg.methods:
            reports.append(summarize(records, snr_db, method))
    reports.sort(key=lambda rep: (rep.snr_db, rep.method))
    return reports


def write_reports_csv(path: str | Path, reports: list[RmseReport]) -> None:
    with open(path, "w") as fh:
        fh.write(
            "snr_db,method,rmse_delay,rmse_doppler,miss_rate,trials,"
            "mean_coarse_ms,mean_refine_ms\n"
        )
        for rep in reports:
            fh.write(
                f"{rep.snr_db!r},{rep.method},{rep.rmse_delay!r},{rep.rmse_doppler!r},"
                f"{rep.miss_rate!r},{rep.trials},{rep.mean_coarse_ms!r},{rep.mean_refine_ms!r}\n"
            )


def code_digest(code: CodeMatrix) -> str:
    """SHA-256 of the file ``write_code`` writes for this code."""
    return hashlib.sha256(code_text(code).encode()).hexdigest()


def sidecar_metadata(cfg: BenchConfig, conformance_score: float | None = None) -> dict:
    """Reproducibility block written next to every sweep CSV."""
    meta = {
        "seed": cfg.seed,
        "code_sha256": code_digest(cfg.code),
        "params": asdict(cfg.params),
        "theta": cfg.theta,
        "trials": cfg.trials,
        "snr_db_list": list(cfg.snr_db_list),
        "methods": list(cfg.methods),
        "workers": cfg.workers,
        "optimizer": dict(SOLVER),
    }
    if conformance_score is not None:
        meta["conformance_score"] = conformance_score
    return meta


def write_sidecar(path: str | Path, cfg: BenchConfig, conformance_score: float | None = None) -> None:
    Path(path).write_text(json.dumps(sidecar_metadata(cfg, conformance_score), indent=2) + "\n")
