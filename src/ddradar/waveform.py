"""Transmit-signal synthesis from a chip code.

The transmitter places a Gaussian pulse in each occupied time slot and
modulates it across the occupied subcarriers.  With t in samples (units of
T_s), so that one slot is M samples,

    s(t) = (1/M) sum_n sum_m X[n, m] g(t / M - n - 1.5) e^{+2 pi i m t / M}

Each slot's pulse is radiated only over its 3 M-sample window
[n M, (n + 3) M), so the whole pulse train occupies exactly [0, (N_t + 2) M)
-- the receive-gate boundary L.  This radiated train is the package's one
signal model: ``evaluate_transmitted`` computes it, the stored replica
samples it at t = j, the channel samples it at the delayed times j - delay,
and the conformance screen reads its auto-ambiguity.  No sample depends on
the pulse interval T_c, which only labels samples in seconds.  The oracles
live in the tests: for the replica, the term-by-term ``brute_synthesize``
and the untruncated analytic signal; for the screen,
``continuous_ambiguity``, a full-frame evaluator.

Outside its support the radiated train is exactly zero, so a frame is
evaluated only on ``radiated_span``: for a train delayed by ``delay``
samples, the samples j with j - delay in [0, L), plus one guard sample on
each side, clipped to the frame (at most 162 of 1024 samples at the paper
geometry).  The replica (delay 0) and the echo both read this one rule, and
so does the conformance screen, which samples its shifted trains on the
replica's span, where alone the replica is nonzero.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .codes import CodeMatrix
from .config import RadarParams

PULSE_CENTER_SLOTS = 1.5  # each pulse peaks 1.5 slots (1.5 M samples) into its 3-slot window


@dataclass(frozen=True, eq=False)
class ComplexSignal:
    """A frame of complex baseband samples, sample j taken at t = j (units of T_s),
    read-only; pickles and copies rebuild through the constructor."""

    samples: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=np.complex128)
        if arr.ndim != 1:
            raise ValueError(f"signal must be 1-D, got shape {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)

    def __reduce__(self):
        return type(self), (self.samples,)

    def __len__(self) -> int:
        return self.samples.shape[0]

    @functools.cached_property
    def energy(self) -> float:
        """sum |s|^2, computed on first read."""
        return float(np.sum(np.abs(self.samples) ** 2))

    @functools.cached_property
    def support(self) -> tuple[int, int]:
        """The first and last nonzero sample, (0, 0) when there is none;
        computed on first read."""
        nonzero = np.flatnonzero(self.samples)
        return (int(nonzero[0]), int(nonzero[-1])) if nonzero.size else (0, 0)


def gaussian_pulse(t):
    """Unit-energy Gaussian prototype 2**(1/4) * exp(-pi t**2)."""
    return 2 ** 0.25 * np.exp(-np.pi * np.asarray(t, dtype=float) ** 2)


def radiated_span(params: RadarParams, delay: float = 0.0) -> slice:
    """The frame samples j a pulse train delayed by ``delay`` samples can reach.

    These are the j with j - delay in the train's support [0, L), L the
    receive-gate boundary (N_t + 2) M, widened by one guard sample on each
    side, because the window test runs on rounded times, and clipped to the
    frame.  Every sample outside the span is exactly zero.
    """
    start = math.ceil(delay) - 1
    stop = start + params.L + 2
    return slice(max(start, 0), min(stop, params.frame_len))


def synthesize_discrete(code: CodeMatrix, params: RadarParams) -> ComplexSignal:
    """Build the frame_len-sample replica: the radiated signal at t = j."""
    span = radiated_span(params)
    s = np.zeros(params.frame_len, dtype=np.complex128)
    s[span] = evaluate_transmitted(code, params, np.arange(span.start, span.stop))
    return ComplexSignal(s)


def evaluate_transmitted(code: CodeMatrix, params: RadarParams, t: np.ndarray) -> np.ndarray:
    """Evaluate the radiated pulse train at the times ``t`` (1-D, in samples).

    ``t`` counts sampling intervals T_s, fractions allowed, and T_c does not
    enter.  Each slot's Gaussian is windowed to its 3M-sample window and the
    sum is scaled by 1/M; sampled at t = j it is the stored replica.
    """
    code.require_match(params)
    t = np.asarray(t, dtype=float)
    slots_t = t[None, :] / params.M - np.arange(params.N_t)[:, None] - PULSE_CENTER_SLOTS
    inside = (slots_t >= -PULSE_CENTER_SLOTS) & (slots_t < PULSE_CENTER_SLOTS)
    pulses = np.where(inside, gaussian_pulse(slots_t), 0.0)  # (N_t, T)
    phases = np.exp(2j * np.pi * np.outer(code.m_values, t) / params.M)  # (N_f, T)
    return np.einsum("nm,nt,mt->t", code.entries.astype(float), pulses, phases) / params.M


def write_signal(path: str | Path, signal: ComplexSignal) -> None:
    """Dump samples as CSV rows ``index,re,im``."""
    with open(path, "w") as fh:
        fh.write("index,re,im\n")
        for i, v in enumerate(signal.samples):
            fh.write(f"{i},{float(v.real)!r},{float(v.imag)!r}\n")


def read_signal(path: str | Path) -> ComplexSignal:
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
    return ComplexSignal(samples)
