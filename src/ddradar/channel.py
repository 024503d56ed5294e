"""Single-target channel: fractional delay, Doppler shift, attenuation, noise.

The main path samples the analytic transmitted pulse train directly,

    r[j] = alpha * s(j T_s - t_d) * e^{+2 pi i f_D j T_s},

with s the windowed pulse train the transmitter actually radiates, so an
integer-sample delay reduces to an exact shift of the stored replica.  The
pulse train and the Doppler factor are evaluated only on the echo's
``waveform.radiated_span`` (the samples j with j T_s - t_d in
[0, (N_t + 2) T_c), plus one guard sample each side); every other sample
of the frame is zero, as the full-frame evaluation gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codes import CodeMatrix
from .config import RadarParams
from .waveform import ComplexSignal, evaluate_transmitted, radiated_span


@dataclass(frozen=True)
class ChannelTruth:
    """Ground-truth delay t_d (s), Doppler f_D (Hz), complex gain alpha,
    plus the grid decomposition t_d = (l_d + eps_t) T_s, f_D = (k_D + eps_f) delta_f.

    Rounding to the nearest grid cell breaks ties toward even integers, so
    |eps_t|, |eps_f| <= 1/2 always.
    """

    t_d: float
    f_D: float
    alpha: complex
    l_d: int
    eps_t: float
    k_D: int
    eps_f: float

    def __post_init__(self):
        if not abs(self.eps_t) <= 0.5 + 1e-12 or not abs(self.eps_f) <= 0.5 + 1e-12:
            raise ValueError(
                f"fractional parts must lie in [-1/2, 1/2], got "
                f"eps_t={self.eps_t}, eps_f={self.eps_f}"
            )

    @classmethod
    def from_delay_doppler(
        cls, t_d: float, f_D: float, alpha: complex, params: RadarParams
    ) -> "ChannelTruth":
        if not (math.isfinite(t_d) and math.isfinite(f_D)):
            raise ValueError(f"delay and Doppler must be finite, got t_d={t_d}, f_D={f_D}")
        l_d = int(np.rint(t_d / params.T_s))  # round-half-even
        k_D = int(np.rint(f_D / params.delta_f))
        return cls(
            t_d=t_d,
            f_D=f_D,
            alpha=alpha,
            l_d=l_d,
            eps_t=t_d / params.T_s - l_d,
            k_D=k_D,
            eps_f=f_D / params.delta_f - k_D,
        )

    @classmethod
    def from_grid(
        cls,
        l_d: int,
        eps_t: float,
        k_D: int,
        eps_f: float,
        alpha: complex,
        params: RadarParams,
    ) -> "ChannelTruth":
        return cls(
            t_d=(l_d + eps_t) * params.T_s,
            f_D=(k_D + eps_f) * params.delta_f,
            alpha=alpha,
            l_d=l_d,
            eps_t=eps_t,
            k_D=k_D,
            eps_f=eps_f,
        )

    def in_window(self, params: RadarParams) -> bool:
        """True when the delay falls in the monostatic detectability window."""
        return params.N_t * params.T_c <= self.t_d <= (params.N - params.N_t) * params.T_c


def apply_channel(
    code: CodeMatrix, params: RadarParams, truth: ChannelTruth
) -> ComplexSignal:
    """Noiseless received frame for a single target."""
    if not truth.in_window(params):
        raise ValueError(
            f"delay t_d={truth.t_d} outside detectability window "
            f"[{params.N_t * params.T_c}, {(params.N - params.N_t) * params.T_c}]"
        )
    span = radiated_span(params, truth.t_d)
    t = np.arange(span.start, span.stop) * params.T_s
    echo = evaluate_transmitted(code, params, t - truth.t_d)
    r = np.zeros(params.frame_len, dtype=np.complex128)
    r[span] = truth.alpha * echo * np.exp(2j * np.pi * truth.f_D * t)
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
