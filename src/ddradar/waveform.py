"""Transmit-signal synthesis from a chip code.

The discrete synthesis places a Gaussian pulse in each occupied time slot
and modulates it across the occupied subcarriers:

    s[j] = (1/M) sum_n sum_m X[n, m] g[j - n M] e^{+2 pi i m j / M}

The sampled prototype g[j] is the 3M-sample causal window of the Gaussian,
g[j] = g((j - 1.5 M) T_s / T_c) for 0 <= j < 3M and zero elsewhere, so slot
n occupies samples [n M, n M + 3 M) and the whole pulse train occupies
exactly [0, (N_t + 2) M) -- the receive-gate boundary L.  The continuous
evaluator computes the same double sum analytically with the untruncated
Gaussian and the same 1/M normalization, so the two paths agree
sample-for-sample up to the truncated tails; it serves as the oracle for
the channel model.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .codes import CodeMatrix
from .config import RadarParams

PULSE_CENTER_SLOTS = 1.5  # sampled pulse peaks 1.5 M samples into its window
PULSE_SPAN_SLOTS = 3  # sampled pulse support is [0, 3 M)


@dataclass(frozen=True)
class ComplexSignal:
    """A frame of complex baseband samples taken every ``sample_period`` s."""

    samples: np.ndarray
    sample_period: float

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=np.complex128)
        if arr.ndim != 1:
            raise ValueError(f"signal must be 1-D, got shape {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)

    def __len__(self) -> int:
        return self.samples.shape[0]

    @property
    def energy(self) -> float:
        return float(np.sum(np.abs(self.samples) ** 2))


def gaussian_pulse(t):
    """Unit-energy Gaussian prototype 2**(1/4) * exp(-pi t**2)."""
    return 2 ** 0.25 * np.exp(-np.pi * np.asarray(t, dtype=float) ** 2)


def _sampled_pulse(offsets: np.ndarray, params: RadarParams) -> np.ndarray:
    """Causal sampled prototype g[j], zero outside [0, 3 M)."""
    g = gaussian_pulse(offsets / params.M - PULSE_CENTER_SLOTS)
    keep = (offsets >= 0) & (offsets < PULSE_SPAN_SLOTS * params.M)
    return np.where(keep, g, 0.0)


def synthesize_discrete(code: CodeMatrix, params: RadarParams) -> ComplexSignal:
    """Build the frame_len-sample transmitted signal for a code."""
    code.require_match(params)
    j = np.arange(params.frame_len)
    slots = np.arange(params.N_t) * params.M
    pulses = _sampled_pulse(j[None, :] - slots[:, None], params)  # (N_t, NM)
    phases = np.exp(2j * np.pi * np.outer(code.m_values, j) / params.M)  # (N_f, NM)
    s = np.einsum("nm,nj,mj->j", code.entries.astype(float), pulses, phases)
    return ComplexSignal(s / params.M, params.T_s)


def _continuous_sum(code: CodeMatrix, params: RadarParams, t, truncated: bool):
    code.require_match(params)
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    slots_t = (
        t_arr[None, :] / params.T_c - np.arange(params.N_t)[:, None] - PULSE_CENTER_SLOTS
    )
    pulses = gaussian_pulse(slots_t)  # (N_t, T)
    if truncated:
        # window [0, 3 T_c) per slot, matching the sampled prototype exactly
        inside = (slots_t >= -PULSE_CENTER_SLOTS) & (slots_t < PULSE_CENTER_SLOTS)
        pulses = np.where(inside, pulses, 0.0)
    phases = np.exp(
        2j * np.pi * np.outer(code.m_values, t_arr) * params.F_c
    )  # (N_f, T)
    s = np.einsum("nm,nt,mt->t", code.entries.astype(float), pulses, phases) / params.M
    if np.isscalar(t) or np.asarray(t).ndim == 0:
        return complex(s[0])
    return s


def evaluate_continuous(code: CodeMatrix, params: RadarParams, t):
    """Evaluate the analytic transmitted signal at time(s) ``t`` (seconds).

    Accepts a scalar or an array; returns a matching complex result.  Uses the
    untruncated Gaussian, scaled by 1/M to match :func:`synthesize_discrete`;
    serves as the smooth diagnostic oracle for the other code paths.
    """
    return _continuous_sum(code, params, t, truncated=False)


def evaluate_transmitted(code: CodeMatrix, params: RadarParams, t):
    """Like :func:`evaluate_continuous` but with the per-slot 3 T_c pulse
    window actually radiated by the transmitter, so sampling at t = j T_s
    reproduces the stored replica exactly."""
    return _continuous_sum(code, params, t, truncated=True)


def write_signal(path: str | Path, signal: ComplexSignal) -> None:
    """Dump samples as CSV rows ``index,re,im``."""
    with open(path, "w") as fh:
        fh.write("index,re,im\n")
        for i, v in enumerate(signal.samples):
            fh.write(f"{i},{float(v.real)!r},{float(v.imag)!r}\n")


def read_signal(path: str | Path, sample_period: float) -> ComplexSignal:
    """Read a ``index,re,im`` CSV written by :func:`write_signal`.

    The n data rows must carry each index 0..n-1 exactly once, in any order,
    with finite values; anything else raises a one-line ``ValueError``.
    """
    rows = Path(path).read_text().splitlines()
    if not rows or rows[0].strip() != "index,re,im":
        raise ValueError(f"{path}: expected header 'index,re,im'")
    n = len(rows) - 1
    samples = np.zeros(n, dtype=np.complex128)
    seen = np.zeros(n, dtype=bool)
    for lineno, line in enumerate(rows[1:], start=2):
        try:
            idx_text, re, im = line.split(",")
            idx, value = int(idx_text), complex(float(re), float(im))
        except ValueError:
            raise ValueError(f"{path}:{lineno}: expected 'index,re,im', got {line!r}") from None
        if not 0 <= idx < n:
            raise ValueError(
                f"{path}:{lineno}: index {idx} out of range; {n} rows need indices 0..{n - 1}"
            )
        if seen[idx]:
            raise ValueError(f"{path}:{lineno}: duplicate index {idx}")
        if not cmath.isfinite(value):
            raise ValueError(f"{path}:{lineno}: non-finite sample {line!r}")
        seen[idx] = True
        samples[idx] = value
    return ComplexSignal(samples, sample_period)
