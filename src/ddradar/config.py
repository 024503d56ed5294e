"""Radar frame geometry and derived time/frequency units.

All delays downstream are expressed in units of the sampling interval T_s
and all Dopplers in units of the frequency bin width delta_f.  With the
default T_c = 1.0 every quantity is dimensionless; pass a physical T_c to
work in seconds/Hz.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path


class ParameterError(ValueError):
    """A radar geometry parameter violates its constraints."""


@dataclass(frozen=True)
class RadarParams:
    """Frame geometry: N pulse intervals of M samples each, with an
    occupied block of N_t time slots by N_f subcarriers.

    Derived units:
        F_c       subcarrier spacing, 1/T_c
        T_s       sampling interval, T_c/M
        delta_f   Doppler bin width, F_c/N
        frame_len total samples per frame, N*M
        L         receive-gate boundary, (N_t+2)*M samples
    """

    N: int
    M: int
    N_t: int
    N_f: int
    T_c: float = 1.0

    def __post_init__(self):
        for name in ("N", "M", "N_t", "N_f"):
            v = getattr(self, name)
            if not isinstance(v, int) or v <= 0:
                raise ParameterError(f"{name} must be a positive integer, got {v!r}")
        if not 0 < self.T_c < math.inf:
            raise ParameterError(f"T_c must be positive and finite, got {self.T_c!r}")
        if self.N_f % 2 != 0:
            raise ParameterError(
                f"N_f must be even (subcarriers span -N_f/2..N_f/2-1), got {self.N_f}"
            )
        if self.N_t > self.N:
            raise ParameterError(f"N_t={self.N_t} exceeds N={self.N}")
        if self.N_f > self.M:
            raise ParameterError(f"N_f={self.N_f} exceeds M={self.M}")
        if self.L > self.frame_len:
            raise ParameterError(
                f"receive gate L=(N_t+2)*M={self.L} exceeds frame_len={self.frame_len}; "
                f"geometry leaves no room to listen for echoes"
            )

    @property
    def F_c(self) -> float:
        return 1.0 / self.T_c

    @property
    def T_s(self) -> float:
        return self.T_c / self.M

    @property
    def delta_f(self) -> float:
        return self.F_c / self.N

    @property
    def frame_len(self) -> int:
        return self.N * self.M

    @property
    def L(self) -> int:
        return (self.N_t + 2) * self.M

    @property
    def lag_window(self) -> tuple[int, int]:
        """Detectability window for the integer delay lag, inclusive."""
        return (self.N_t * self.M, (self.N - self.N_t) * self.M)

    @property
    def lobe_half_extents(self) -> tuple[int, int]:
        """Main-lobe half extents (floor(M/N_f) lags, floor(N/N_t) bins).

        Suppression, the sinc fit patch and the surface extension around a
        detection all read this one neighborhood.
        """
        return (self.M // self.N_f, self.N // self.N_t)


def make_params(N: int, M: int, N_t: int, N_f: int, T_c: float = 1.0) -> RadarParams:
    """Validate and build a RadarParams. Raises ParameterError on violations."""
    return RadarParams(N=N, M=M, N_t=N_t, N_f=N_f, T_c=T_c)


DEFAULT_GEOMETRY = {"N": 64, "M": 16, "N_t": 8, "N_f": 8, "T_c": 1.0}

_PARAM_KEYS = {"N": int, "M": int, "N_t": int, "N_f": int, "T_c": float}
_SWEEP_KEYS = {"trials": int, "theta": float, "seed": int, "workers": int}
# One key set for both readers, so a single file can serve as the params
# config and the sweep config; any other key is a typo and is rejected.
CONFIG_KEYS = frozenset(
    [*_PARAM_KEYS, *_SWEEP_KEYS, "snr_db", "code_file", "code_seed"]
)


def parse_config_text(text: str, allowed: frozenset[str] | None = None) -> dict:
    """Parse a flat ``key = value`` config file (a TOML subset).

    Supports integers, floats, quoted strings, and flat lists of numbers.
    Lines starting with ``#`` and blank lines are ignored.  With ``allowed``,
    a key outside it raises ParameterError naming the key and its line.
    """
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParameterError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.split("#", 1)[0].strip()
        if not key or not value:
            raise ParameterError(f"config line {lineno}: empty key or value in {raw!r}")
        if allowed is not None and key not in allowed:
            raise ParameterError(
                f"config line {lineno}: unknown key {key!r}; expected one of {sorted(allowed)}"
            )
        out[key] = _parse_value(value, lineno)
    return out


def _typed(key: str, value, typ):
    """Cast a config value to its key's type; an integer key takes only an
    integer, never a float it would truncate or a boolean."""
    if typ is int and (not isinstance(value, int) or isinstance(value, bool)):
        raise ParameterError(f"config key {key!r} must be an integer, got {value!r}")
    return typ(value)


def _parse_value(value: str, lineno: int):
    if value.startswith("[") and value.endswith("]"):
        inner = value[1:-1].strip()
        if not inner:
            return []
        return [_parse_scalar(tok.strip(), lineno) for tok in inner.split(",")]
    return _parse_scalar(value, lineno)


def _parse_scalar(tok: str, lineno: int):
    if len(tok) >= 2 and tok[0] == tok[-1] and tok[0] in "\"'":
        return tok[1:-1]
    if tok.lower() in ("true", "false"):
        return tok.lower() == "true"
    try:
        return int(tok)
    except ValueError:
        pass
    try:
        return float(tok)
    except ValueError:
        raise ParameterError(f"config line {lineno}: cannot parse value {tok!r}") from None


def load_params(path: str | Path, overrides: dict | None = None) -> RadarParams:
    """Read geometry keys (N, M, N_t, N_f, T_c) from a config file.

    ``overrides`` entries with non-None values take precedence over the file.
    Sweep keys are accepted and ignored; any other key raises ParameterError.
    """
    raw = parse_config_text(Path(path).read_text(), CONFIG_KEYS)
    kwargs = {}
    for key, typ in _PARAM_KEYS.items():
        if key in raw:
            kwargs[key] = _typed(key, raw[key], typ)
    if overrides:
        for key, val in overrides.items():
            if key in _PARAM_KEYS and val is not None:
                kwargs[key] = _PARAM_KEYS[key](val)
    missing = [k for k in ("N", "M", "N_t", "N_f") if k not in kwargs]
    if missing:
        raise ParameterError(f"config {path}: missing required keys {missing}")
    return make_params(**kwargs)


def load_sweep(path: str | Path, workers: int | None = None, seed: int | None = None):
    """Read a Monte Carlo sweep config into a ``bench.BenchConfig``.

    Geometry keys default to DEFAULT_GEOMETRY.  ``code_file`` reads a code,
    ``code_seed`` draws a random one, and neither means the reference good
    code.  ``snr_db`` is a number or a list; ``trials``, ``theta``, ``seed``
    and ``workers`` default to BenchConfig's.  Non-None ``workers`` and
    ``seed`` take precedence over the file.  Any other key raises
    ParameterError.
    """
    # bench and codes import this module, so they are imported here
    from .bench import BenchConfig
    from .codes import random_code, read_code, reference_good_code

    raw = parse_config_text(Path(path).read_text(), CONFIG_KEYS)
    geometry = dict(DEFAULT_GEOMETRY)
    geometry.update({k: _typed(k, raw[k], typ) for k, typ in _PARAM_KEYS.items() if k in raw})
    params = make_params(**geometry)
    if "code_file" in raw:
        code = read_code(raw["code_file"], params)
    elif "code_seed" in raw:
        code = random_code(params, _typed("code_seed", raw["code_seed"], int))
    else:
        code = reference_good_code()
        code.require_match(params)
    kwargs = {k: _typed(k, raw[k], typ) for k, typ in _SWEEP_KEYS.items() if k in raw}
    if "snr_db" in raw:
        snr = raw["snr_db"]
        kwargs["snr_db_list"] = tuple(float(v) for v in (snr if isinstance(snr, list) else [snr]))
    if workers is not None:
        kwargs["workers"] = workers
    if seed is not None:
        kwargs["seed"] = seed
    return BenchConfig(params=params, code=code, **kwargs)
