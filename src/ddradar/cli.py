"""Command-line front end: every pipeline stage as a subcommand.

All numeric I/O is in normalized units (delays in T_s, Dopplers in delta_f);
``estimate`` additionally reports seconds and Hz for the geometry's T_c.
Data goes to files or stdout, diagnostics to stderr.  Exit codes: 0
success, 1 usage error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys


from . import __version__
from .ambiguity import (
    DEFAULT_CONFORMANCE_DELTA,
    DEFAULT_OVERSAMPLE,
    discrete_ambiguity,
    sinc_conformance,
    write_surface,
)
from .bench import load_sweep, sweep, write_reports_csv, write_sidecar
from .channel import ChannelTruth, add_noise, apply_channel, apply_receive_gating
from .codes import random_code, read_code, write_code
from .config import DEFAULT_GEOMETRY, ParameterError, load_params
from .estimator import DEFAULT_THRESHOLD, REFINERS, SOLVER, estimate
from .waveform import read_signal, synthesize_discrete, write_signal


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _config_hash() -> str:
    frozen = {
        "geometry": DEFAULT_GEOMETRY,
        "theta": DEFAULT_THRESHOLD,
        "delta": DEFAULT_CONFORMANCE_DELTA,
        "oversample": DEFAULT_OVERSAMPLE,
        "optimizer": SOLVER,
    }
    return hashlib.sha256(json.dumps(frozen, sort_keys=True).encode()).hexdigest()[:12]


def _add_params_args(sub: argparse.ArgumentParser) -> None:
    grp = sub.add_argument_group("geometry")
    grp.add_argument("--params-config", metavar="FILE", help="key = value file with N, M, N_t, N_f, T_c")
    for key, default in DEFAULT_GEOMETRY.items():
        grp.add_argument(f"--{key}", type=type(default))


def _resolve_params(args):
    return load_params(args.params_config, {k: getattr(args, k) for k in DEFAULT_GEOMETRY})


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    seed = int.from_bytes(os.urandom(4), "big")
    print(f"seed={seed} (drawn at random; pass --seed to reproduce)", file=sys.stderr)
    return seed


def _parse_snr(text: str) -> float:
    if text.strip().lower() in ("inf", "+inf", "infinity", "noiseless"):
        return math.inf
    return float(text)


def build_parser() -> _Parser:
    parser = _Parser(prog="ddradar", description=__doc__)
    parser.add_argument(
        "--version",
        action="version",
        version=f"ddradar {__version__} (config {_config_hash()})",
    )
    subs = parser.add_subparsers(dest="command", metavar="COMMAND")

    sub = subs.add_parser("gen-code", help="draw a random +/-1 code matrix")
    _add_params_args(sub)
    sub.add_argument("--seed", type=int)
    sub.add_argument("--out", required=True)

    sub = subs.add_parser("show-code", help="print a code matrix")
    sub.add_argument("--in", dest="infile", required=True)

    sub = subs.add_parser("check-code", help="screen a code against the sinc lobe model")
    _add_params_args(sub)
    sub.add_argument("--code", required=True)
    sub.add_argument("--delta", type=float, default=DEFAULT_CONFORMANCE_DELTA)
    sub.add_argument("--oversample", type=int, default=DEFAULT_OVERSAMPLE)

    sub = subs.add_parser("synth", help="synthesize the transmitted signal")
    _add_params_args(sub)
    sub.add_argument("--code", required=True)
    sub.add_argument("--out", required=True)

    sub = subs.add_parser("simulate", help="pass the signal through a noisy channel")
    _add_params_args(sub)
    sub.add_argument("--code", required=True)
    sub.add_argument("--delay", type=float, required=True, help="true delay in T_s units")
    sub.add_argument("--doppler", type=float, required=True, help="true Doppler in delta_f units")
    sub.add_argument("--snr-db", type=_parse_snr, default=math.inf, help="SNR in dB, or 'inf'")
    sub.add_argument("--seed", type=int)
    sub.add_argument("--no-gate", action="store_true", help="skip receive gating")
    sub.add_argument("--out", required=True)

    sub = subs.add_parser("ambiguity", help="dump a cross-ambiguity surface")
    _add_params_args(sub)
    sub.add_argument("--r", dest="r_file", required=True)
    sub.add_argument("--s", dest="s_file", required=True)
    sub.add_argument("--lmin", type=int, required=True)
    sub.add_argument("--lmax", type=int, required=True)
    sub.add_argument("--out", required=True)

    sub = subs.add_parser("estimate", help="detect and refine delay/Doppler")
    _add_params_args(sub)
    sub.add_argument("--r", dest="r_file", required=True)
    sub.add_argument("--s", dest="s_file", required=True)
    sub.add_argument("--method", choices=tuple(REFINERS), default="sinc2d")
    sub.add_argument("--theta", type=float, default=DEFAULT_THRESHOLD)
    sub.add_argument("--json", action="store_true", help="one JSON object per detection")

    sub = subs.add_parser("sweep", help="Monte Carlo RMSE sweep over SNR")
    sub.add_argument("--config", required=True, help="key = value bench config file")
    sub.add_argument("--out", required=True)
    sub.add_argument("--workers", type=int, default=None)
    sub.add_argument("--seed", type=int, default=None)

    return parser


def _cmd_gen_code(args) -> int:
    params = _resolve_params(args)
    seed = _resolve_seed(args)
    code = random_code(params, seed)
    write_code(args.out, code)
    print(f"wrote {params.N_t}x{params.N_f} code (seed {seed}) to {args.out}", file=sys.stderr)
    return 0


def _cmd_show_code(args) -> int:
    code = read_code(args.infile)
    for row in code.entries:
        print(" ".join(f"{v:+d}" for v in row))
    return 0


def _cmd_check_code(args) -> int:
    params = _resolve_params(args)
    code = read_code(args.code, params)
    score, ok = sinc_conformance(code, params, oversample=args.oversample, delta=args.delta)
    print(f"score={score:.6f} delta={args.delta} {'PASS' if ok else 'FAIL'}")
    return 0


def _cmd_synth(args) -> int:
    params = _resolve_params(args)
    code = read_code(args.code, params)
    write_signal(args.out, synthesize_discrete(code, params))
    return 0


def _cmd_simulate(args) -> int:
    params = _resolve_params(args)
    code = read_code(args.code, params)
    seed = _resolve_seed(args)
    truth = ChannelTruth.from_delay_doppler(
        args.delay * params.T_s, args.doppler * params.delta_f, 1.0 + 0j, params
    )
    s = synthesize_discrete(code, params)
    r = apply_channel(code, params, truth)
    r = add_noise(r, args.snr_db, seed, params, ref_energy=s.energy)
    if not args.no_gate:
        r = apply_receive_gating(r, params)
    write_signal(args.out, r)
    return 0


def _cmd_ambiguity(args) -> int:
    params = _resolve_params(args)
    r = read_signal(args.r_file, params.T_s)
    s = read_signal(args.s_file, params.T_s)
    write_surface(args.out, discrete_ambiguity(r, s, (args.lmin, args.lmax), params))
    return 0


def _cmd_estimate(args) -> int:
    params = _resolve_params(args)
    r = read_signal(args.r_file, params.T_s)
    s = read_signal(args.s_file, params.T_s)
    results = estimate(r, s, args.theta, args.method, params)
    for est in results:
        rec = {
            "l_hat": est.detection.l_hat,
            "k_hat": est.detection.k_hat,
            "eps_t": est.eps_t,
            "eps_f": est.eps_f,
            "alpha": est.alpha,
            "delay_Ts": est.delay_cells,
            "doppler_df": est.doppler_cells,
            "converged": est.converged,
            "delay_s": est.delay_est,
            "doppler_hz": est.doppler_est,
        }
        if args.json:
            print(json.dumps(rec))
        else:
            print(
                f"detection l={rec['l_hat']} k={rec['k_hat']}: "
                f"delay={rec['delay_Ts']:.4f} T_s, doppler={rec['doppler_df']:.4f} df, "
                f"alpha={rec['alpha']:.4f}, {rec['delay_s']:.6e} s / {rec['doppler_hz']:.6e} Hz"
            )
    if not results:
        print("no detections above threshold", file=sys.stderr)
    return 0


def _cmd_sweep(args) -> int:
    cfg = load_sweep(args.config, args.workers, args.seed)
    score, _ = sinc_conformance(cfg.code, cfg.params)
    reports = sweep(cfg)
    write_reports_csv(args.out, reports)
    write_sidecar(args.out + ".meta.json", cfg, conformance_score=score)
    print(f"wrote {len(reports)} report rows to {args.out}", file=sys.stderr)
    return 0


_COMMANDS = {
    "gen-code": _cmd_gen_code,
    "show-code": _cmd_show_code,
    "check-code": _cmd_check_code,
    "synth": _cmd_synth,
    "simulate": _cmd_simulate,
    "ambiguity": _cmd_ambiguity,
    "estimate": _cmd_estimate,
    "sweep": _cmd_sweep,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except SystemExit:
        raise
    except (OSError, ValueError, ParameterError) as exc:
        print(f"ddradar {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
