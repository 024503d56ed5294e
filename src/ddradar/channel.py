"""Single-target channel: fractional delay, Doppler shift, attenuation, noise.

A target is a delay in samples (cells of T_s) and a Doppler in bins (cells
of delta_f), and the main path computes in those cells:

    r[j] = alpha * s(j - delay) * e^{+2 pi i doppler j / (N M)},

with s the windowed pulse train the transmitter actually radiates, so an
integer-sample delay is an exact shift of the stored replica, whatever the
pulse interval T_c that labels the cells in seconds and Hz.  The
pulse train and the Doppler factor are evaluated only on the echo's
``waveform.radiated_span`` (the samples j with j - delay in [0, L),
L = (N_t + 2) M, plus one guard sample each side); every other sample of
the frame is zero, as the full-frame evaluation gives.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .codes import CodeMatrix
from .config import RadarParams
from .waveform import ComplexSignal, evaluate_transmitted, radiated_span


@dataclass(frozen=True)
class ChannelTruth:
    """Ground truth: delay in cells of T_s, Doppler in cells of delta_f,
    complex gain alpha.

    The grid decomposition delay = l_d + eps_t, doppler = k_D + eps_f
    rounds to the nearest cell, ties to even, so |eps_t|, |eps_f| <= 1/2;
    the subtraction is exact, so l_d + eps_t == delay.
    """

    delay: float
    doppler: float
    alpha: complex = 1.0

    def __post_init__(self):
        for name in ("delay", "doppler", "alpha"):
            if not cmath.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {name}={getattr(self, name)}")

    @property
    def l_d(self) -> int:
        return round(self.delay)

    @property
    def eps_t(self) -> float:
        return self.delay - self.l_d

    @property
    def k_D(self) -> int:
        return round(self.doppler)

    @property
    def eps_f(self) -> float:
        return self.doppler - self.k_D

    def in_window(self, params: RadarParams) -> bool:
        """True when the delay falls in the monostatic detectability window."""
        lo, hi = params.lag_window
        return lo <= self.delay <= hi


def apply_channel(
    code: CodeMatrix, params: RadarParams, truth: ChannelTruth
) -> ComplexSignal:
    """Noiseless received frame for a single target."""
    if not truth.in_window(params):
        raise ValueError(
            f"delay {truth.delay} T_s outside detectability window {list(params.lag_window)}"
        )
    span = radiated_span(params, truth.delay)
    j = np.arange(span.start, span.stop)
    echo = evaluate_transmitted(code, params, j - truth.delay)
    r = np.zeros(params.frame_len, dtype=np.complex128)
    r[span] = truth.alpha * echo * np.exp(2j * np.pi * truth.doppler * j / params.frame_len)
    return ComplexSignal(r)


def add_noise(
    signal: ComplexSignal,
    snr_db: float,
    seed: int,
    params: RadarParams,
    ref_energy: float,
) -> ComplexSignal:
    """Add circular complex white Gaussian noise calibrated against a reference.

    The per-sample noise variance is sigma^2 = ref_energy / (N M 10^{snr/10}),
    so the frame SNR sum|s|^2 / (N M sigma^2) equals the request.  ``ref_energy``
    is the energy of the clean transmitted pulse.  ``snr_db = inf`` returns the
    input unchanged; any other SNR whose sigma^2 is not finite and positive
    (NaN, ``-inf``, or a finite value far outside any physical range) is
    rejected.  Noise is drawn from a Philox stream keyed by ``seed``.
    """
    if not 0 < ref_energy < math.inf:
        raise ValueError(f"ref_energy must be positive and finite, got {ref_energy}")
    if snr_db == math.inf:
        return signal
    try:
        sigma2 = ref_energy / (params.frame_len * 10 ** (snr_db / 10.0))
    except (OverflowError, ZeroDivisionError):  # 10^{snr/10} overflows or underflows to 0
        sigma2 = math.nan
    if not 0 < sigma2 < math.inf:
        raise ValueError(
            f"snr_db must be a number or +inf giving a finite positive noise variance, "
            f"got {snr_db}"
        )
    rng = np.random.Generator(np.random.Philox(seed))
    scale = math.sqrt(sigma2 / 2.0)
    noise = scale * (
        rng.standard_normal(params.frame_len) + 1j * rng.standard_normal(params.frame_len)
    )
    return ComplexSignal(signal.samples + noise)


def apply_receive_gating(signal: ComplexSignal, params: RadarParams) -> ComplexSignal:
    """Zero the samples recorded while the transmitter was still firing (j < L)."""
    gated = signal.samples.copy()
    gated[: params.L] = 0.0
    return ComplexSignal(gated)
