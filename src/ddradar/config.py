"""Radar frame geometry and derived time/frequency units.

All delays downstream are expressed in units of the sampling interval T_s
and all Dopplers in units of the frequency bin width delta_f.  With the
default T_c = 1.0 every quantity is dimensionless; pass a physical T_c to
work in seconds/Hz.

Settings files are flat ``key = value`` files read by ``read_config``, one
type per key (``CONFIG_KEYS``); ``load_params`` is the one rule that turns
defaults, a file and flag overrides into a RadarParams.
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

# Every config key and its type.  One key set serves the params config and
# the sweep config, so one file can serve both; any other key is a typo.
# ``list`` is a number or a bracketed list of numbers, read as floats.
CONFIG_KEYS = {
    **{key: type(default) for key, default in DEFAULT_GEOMETRY.items()},
    "trials": int,
    "theta": float,
    "seed": int,
    "workers": int,
    "snr_db": list,
    "code_seed": int,
    "code_file": str,
}
_TYPE_NAMES = {int: "an integer", float: "a number", list: "a number or a list of numbers",
               str: "a quoted string"}


def read_config(path: str | Path) -> dict:
    """Read a flat ``key = value`` config file (a TOML subset), each value
    parsed as its key's type in CONFIG_KEYS; ``#`` starts a comment.

    An unknown key, a repeated key or a value that is not of its key's type
    raises ParameterError naming the key and its line.
    """
    out: dict = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = (part.strip() for part in line.partition("="))
        if not eq or not key or not value:
            raise ParameterError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        if key not in CONFIG_KEYS:
            raise ParameterError(
                f"config line {lineno}: unknown key {key!r}; expected one of {sorted(CONFIG_KEYS)}"
            )
        if key in out:
            raise ParameterError(f"config line {lineno}: repeated key {key!r}")
        typ = CONFIG_KEYS[key]
        try:
            out[key] = _parse(value, typ)
        except ValueError:
            raise ParameterError(
                f"config line {lineno}: config key {key!r} must be {_TYPE_NAMES[typ]}, got {value!r}"
            ) from None
    return out


def _parse(value: str, typ: type):
    """``value`` as ``typ``; ValueError when it is not one.  int() and
    float() reject booleans and quoted strings."""
    if typ is str:
        if len(value) < 2 or value[0] != value[-1] or value[0] not in "\"'":
            raise ValueError(value)
        return value[1:-1]
    if typ is list:
        items = value[1:-1].split(",") if value[:1] == "[" and value[-1:] == "]" else [value]
        return [float(item) for item in items]
    return typ(value)


def load_params(path: str | Path | None = None, overrides: dict | None = None) -> RadarParams:
    """The frame geometry: DEFAULT_GEOMETRY, then the geometry keys of the
    config file at ``path``, then the non-None ``overrides``.  Flags, params
    files and sweep files all resolve geometry by this one rule.
    """
    geometry = dict(DEFAULT_GEOMETRY)
    if path is not None:
        raw = read_config(path)
        geometry.update({k: raw[k] for k in DEFAULT_GEOMETRY if k in raw})
    geometry.update({k: v for k, v in (overrides or {}).items() if v is not None})
    return make_params(**geometry)
