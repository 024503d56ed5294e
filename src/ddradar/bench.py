"""Monte Carlo RMSE benchmark and stage timing.

Each trial draws a random in-window target, synthesizes the noisy gated
frame, and runs every refinement method on the same frame.  Trials are
keyed by ``seed + trial_index`` and all randomness flows through Philox
streams derived from that key, so a sweep is reproducible sample for
sample and any trial can be re-run alone.

Errors are accounted in grid cells: delay error (l_hat + eps_hat) - delay,
both in samples, and the Doppler analogue in bins.  The coarse stage is the
estimator's ``coarse_stage``: one surface on the span of lags whose two
bounds can both reach the threshold, widened by ``refine_window`` to every
lag a refinement reads.  A trial that detects nothing computes that widened
surface for the whole window, falls back to the argmax over the window's
lags and is flagged as a miss, as is a trial whose coarse cell is not the
true cell; missed trials still contribute their actual error, so the RMSE
is unconditioned, and the miss rate is reported alongside.  A trial's
``coarse_ms`` times the screens, the surface, detection and, in a trial
that detects nothing, the fallback's surface, its |A| pass and the argmax.
A trial's ``surface_lags`` counts the rows of the surface its refiners
read: the screened span widened by ``refine_window`` (about 7 at 30 dB), or
the widened whole window after a fallback.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import math
import platform
import time
from dataclasses import asdict, astuple, dataclass, field, fields
from pathlib import Path
from typing import ClassVar

import numpy as np

from .ambiguity import discrete_ambiguity, sinc_conformance
from .channel import ChannelTruth, add_noise, apply_channel, apply_receive_gating
from .codes import CodeMatrix, code_text, random_code, read_code, reference_good_code
from .config import DEFAULT_GEOMETRY, ParameterError, RadarParams, load_params, read_config
from .estimator import (
    DEFAULT_THRESHOLD,
    REFINERS,
    SOLVER,
    Detection,
    coarse_stage,
    refine_window,
    refiner,
)
from .waveform import ComplexSignal, synthesize_discrete

BASELINE = "baseline"  # coarse cell only, fractional offsets left at zero


@dataclass(frozen=True)
class BenchConfig:
    params: RadarParams
    code: CodeMatrix
    snr_db_list: tuple[float, ...] = (30.0,)
    trials: int = 1000
    theta: float = DEFAULT_THRESHOLD
    seed: int = 0
    methods: ClassVar[tuple[str, ...]] = tuple(REFINERS)  # every trial runs every refiner

    def __post_init__(self):
        # the check load_sweep makes, so a config built in Python gets it too
        _check_settings(self.params, vars(self))

    @functools.cached_property
    def replica(self) -> ComplexSignal:
        """The transmitted replica s, synthesized once per config."""
        return synthesize_discrete(self.code, self.params)


# The least value each integer sweep setting may take.
_SWEEP_MINIMUM = {"trials": 1, "seed": 0, "code_seed": 0}


def _check_settings(params: RadarParams, settings: dict) -> None:
    """ParameterError naming the key for a ``_SWEEP_MINIMUM`` setting of
    ``settings`` below its least value, or for a detectability window with
    no interior lag for ``draw_truth`` to place a target on."""
    for key, least in _SWEEP_MINIMUM.items():
        if key in settings and settings[key] < least:
            raise ParameterError(
                f"sweep setting {key!r} must be at least {least}, got {settings[key]}"
            )
    ell_min, ell_max = params.lag_window
    if ell_max - ell_min < 2:
        raise ParameterError(
            f"detectability window [{ell_min}, {ell_max}] has no interior lag for a sweep "
            "target: a sweep needs ell_max - ell_min >= 2"
        )


def load_sweep(path: str | Path, seed: int | None = None) -> BenchConfig:
    """Read a sweep config file into a BenchConfig; geometry resolves by
    ``load_params``.  ``code_file`` reads a code (a relative path from the
    config file's own directory), ``code_seed`` draws one, neither means
    the reference good code, and both raise ParameterError.
    Other keys default to BenchConfig's; a non-None ``seed`` overrides the
    file's.  A ``trials`` below 1, a negative ``seed`` / ``code_seed``, from
    the file or the override, or a window with no interior lag raises
    ParameterError by ``_check_settings``, the check ``BenchConfig`` makes,
    before the code is read or drawn.
    """
    raw = read_config(path)
    if seed is not None:
        raw["seed"] = seed
    params = load_params(overrides={k: raw.get(k) for k in DEFAULT_GEOMETRY})
    _check_settings(params, raw)
    if "code_file" in raw and "code_seed" in raw:
        raise ParameterError("sweep config names two codes: give code_file or code_seed, not both")
    if "code_file" in raw:
        code = read_code(Path(path).parent / raw["code_file"], params)
    elif "code_seed" in raw:
        code = random_code(params, raw["code_seed"])
    else:
        code = reference_good_code()
        code.require_match(params)
    kwargs = {k: raw[k] for k in ("trials", "theta", "seed") if k in raw}
    if "snr_db" in raw:
        kwargs["snr_db_list"] = tuple(raw["snr_db"])
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
    surface_lags: int = 0  # rows of the surface the refiners read


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
    mean_surface_lags: float


def draw_truth(cfg: BenchConfig, rng: np.random.Generator) -> ChannelTruth:
    """Uniform target draw: interior integer cells, fractions in [-1/2, 1/2]."""
    p = cfg.params
    lo, hi = p.lag_window
    l_d = int(rng.integers(lo + 1, hi))  # interior so any fraction stays in-window
    k_max = p.N // p.N_t
    k_D = int(rng.integers(-k_max, k_max + 1))
    eps_t = float(rng.uniform(-0.5, 0.5))
    eps_f = float(rng.uniform(-0.5, 0.5))
    return ChannelTruth(l_d + eps_t, k_D + eps_f)


def run_trial(cfg: BenchConfig, snr_db: float, trial_seed: int) -> TrialRecord:
    """One Monte Carlo trial; pure function of (cfg, snr_db, trial_seed)."""
    p = cfg.params
    refiners = [(method, refiner(method)) for method in cfg.methods]
    truth_rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([trial_seed, 0])))
    noise_seed = int(np.random.SeedSequence([trial_seed, 1]).generate_state(1)[0])

    truth = draw_truth(cfg, truth_rng)
    s = cfg.replica
    r = apply_channel(cfg.code, p, truth)
    r = add_noise(r, snr_db, noise_seed, p, ref_energy=s.energy)
    r = apply_receive_gating(r, p)

    t0 = time.perf_counter_ns()
    surface, detections = coarse_stage(r, s, cfg.theta, p, p.lag_window)
    undetected = not len(detections)
    if undetected:
        surface = discrete_ambiguity(r, s, refine_window(p.lag_window, p), p, norm=s.energy)
        mag = surface.rows(*p.lag_window).magnitude  # the window's rows only
        row, col = np.unravel_index(np.argmax(mag), mag.shape)
        det = Detection(
            p.lag_window[0] + int(row), surface.signed_bin(int(col)), float(mag[row, col])
        )
    else:
        det = Detection(*detections[0].item())
    coarse_ms = (time.perf_counter_ns() - t0) / 1e6

    miss = undetected or det.l_hat != truth.l_d or det.k_hat != truth.k_D

    outcomes = {}
    for method, refine in refiners:
        t0 = time.perf_counter_ns()
        eps_t, eps_f, *_ = refine(surface, det, p)
        refine_ms = (time.perf_counter_ns() - t0) / 1e6
        outcomes[method] = MethodOutcome(
            method=method,
            l_hat=det.l_hat,
            k_hat=det.k_hat,
            eps_t=eps_t,
            eps_f=eps_f,
            err_delay=(det.l_hat + eps_t) - truth.delay,
            err_doppler=(det.k_hat + eps_f) - truth.doppler,
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
        surface_lags=surface.values.shape[0],
    )


def run_trials(cfg: BenchConfig, snr_db: float) -> list[TrialRecord]:
    """All trials at one SNR, in trial order."""
    return [run_trial(cfg, snr_db, seed) for seed in range(cfg.seed, cfg.seed + cfg.trials)]


def summarize(records: list[TrialRecord], method: str) -> RmseReport:
    """Reduce trial records (in trial order) at one SNR to one report row."""
    err_d = np.array([rec.outcomes[method].err_delay for rec in records])
    err_f = np.array([rec.outcomes[method].err_doppler for rec in records])
    misses = np.array([rec.outcomes[method].miss for rec in records])
    return RmseReport(
        snr_db=records[0].snr_db,
        method=method,
        rmse_delay=float(np.sqrt(np.mean(err_d**2))),
        rmse_doppler=float(np.sqrt(np.mean(err_f**2))),
        miss_rate=float(np.mean(misses)),
        trials=len(records),
        mean_coarse_ms=float(np.mean([rec.coarse_ms for rec in records])),
        mean_refine_ms=float(np.mean([rec.outcomes[method].refine_ms for rec in records])),
        mean_surface_lags=float(np.mean([rec.surface_lags for rec in records])),
    )


def sweep(cfg: BenchConfig) -> list[RmseReport]:
    """One report per (snr_db, method), ordered by (snr_db, method)."""
    if not cfg.snr_db_list:
        raise ValueError("snr_db_list must be nonempty")
    reports = []
    for snr_db in cfg.snr_db_list:
        records = run_trials(cfg, snr_db)
        for method in cfg.methods:
            reports.append(summarize(records, method))
    reports.sort(key=lambda rep: (rep.snr_db, rep.method))
    return reports


def write_reports_csv(path: str | Path, reports: list[RmseReport]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(f.name for f in fields(RmseReport))
        writer.writerows(astuple(rep) for rep in reports)


def simd_target() -> str:
    """The family of numpy's SIMD kernels this process runs: "X86_V4" where
    numpy dispatches to AVX-512, "X86_V3" for the AVX2-level kernels (numpy
    before 2.4 names them AVX2 and FMA3), else "baseline".  Bit pins and
    output digests hold within one family, since numpy's vectorized exp /
    sin / cos round their last bits differently by family.  Read from
    numpy's private ``__cpu_features__``, which ``NPY_DISABLE_CPU_FEATURES``
    edits at import."""
    from numpy._core._multiarray_umath import __cpu_features__ as features

    if features.get("X86_V4") or features.get("AVX512_SKX"):
        return "X86_V4"
    if features.get("X86_V3", features.get("AVX2") and features.get("FMA3")):
        return "X86_V3"
    return "baseline"


def code_digest(code: CodeMatrix) -> str:
    """SHA-256 of the file ``write_code`` writes for this code."""
    return hashlib.sha256(code_text(code).encode()).hexdigest()


def expected_noise_hits(params: RadarParams, theta: float, snr_db: float) -> float:
    """Cells of a noise-only frame's lag window expected above ``theta``:
    n_cells exp(-theta^2 NM 10^{snr_db/10}), n_cells the window's lags times
    NM.  A noise-only cell of the normalized surface has mean power
    1 / (NM 10^{snr_db/10}) under ``add_noise``'s SNR convention, and this
    is its Rayleigh tail above theta.  Neighbouring cells are correlated, so
    a frame's hits scatter about it (about 277 measured against 257 at
    -10 dB and theta 0.28)."""
    lo, hi = params.lag_window
    n = params.frame_len
    with np.errstate(over="ignore"):
        return float((hi - lo + 1) * n * np.exp(-(theta**2) * n * np.power(10.0, snr_db / 10)))


def sidecar_metadata(cfg: BenchConfig) -> dict:
    """Reproducibility block next to every sweep CSV, with the code's
    conformance score and the ``expected_noise_hits`` of each SNR, in
    ``snr_db_list`` order, ending in the ``environment`` that made its numbers:
    the package, python, numpy and scipy versions and numpy's kernel family
    (``simd_target``), within which its bits hold."""
    import scipy

    from . import __version__

    return {
        "seed": cfg.seed,
        "code_sha256": code_digest(cfg.code),
        "params": asdict(cfg.params),
        "theta": cfg.theta,
        "trials": cfg.trials,
        "snr_db_list": list(cfg.snr_db_list),
        "methods": list(cfg.methods),
        "optimizer": dict(SOLVER),
        "conformance_score": sinc_conformance(cfg.code, cfg.params)[0],
        "expected_noise_hits": [
            expected_noise_hits(cfg.params, cfg.theta, snr) for snr in cfg.snr_db_list
        ],
        "environment": {
            "ddradar": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "simd_target": simd_target(),
        },
    }


def _json_value(value):
    """``value`` with each non-finite float as the string ``float()`` reads
    back (``"inf"``), which strict JSON (RFC 8259) can carry."""
    if isinstance(value, dict):
        return {key: _json_value(v) for key, v in value.items()}
    if isinstance(value, list):
        return [_json_value(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    return value


def write_sidecar(path: str | Path, cfg: BenchConfig) -> None:
    text = json.dumps(_json_value(sidecar_metadata(cfg)), indent=2, allow_nan=False)
    Path(path).write_text(text + "\n")
