"""Fractional delay-Doppler estimation for pulsed radar with
time-frequency coded Gaussian pulses."""

from .ambiguity import (
    AmbiguitySurface,
    discrete_ambiguity,
    sinc_conformance,
    sinc_model,
)
from .bench import BenchConfig, RmseReport, TrialRecord, run_trial, sweep
from .channel import (
    ChannelTruth,
    add_noise,
    apply_channel,
    apply_receive_gating,
)
from .codes import (
    CodeMatrix,
    random_code,
    read_code,
    reference_bad_code,
    reference_good_code,
    write_code,
)
from .config import ParameterError, RadarParams, load_params, make_params
from .estimator import (
    Detection,
    Estimate,
    Estimates,
    coarse_detect,
    estimate,
    refine_quadratic,
    refine_sinc2d,
)
from .waveform import (
    ComplexSignal,
    evaluate_transmitted,
    gaussian_pulse,
    synthesize_discrete,
)

__version__ = "0.1.0"

__all__ = [
    "AmbiguitySurface",
    "BenchConfig",
    "ChannelTruth",
    "CodeMatrix",
    "ComplexSignal",
    "Detection",
    "Estimate",
    "Estimates",
    "ParameterError",
    "RadarParams",
    "RmseReport",
    "TrialRecord",
    "add_noise",
    "apply_channel",
    "apply_receive_gating",
    "coarse_detect",
    "discrete_ambiguity",
    "estimate",
    "evaluate_transmitted",
    "gaussian_pulse",
    "load_params",
    "make_params",
    "random_code",
    "read_code",
    "reference_bad_code",
    "reference_good_code",
    "refine_quadratic",
    "refine_sinc2d",
    "run_trial",
    "sinc_conformance",
    "sinc_model",
    "sweep",
    "synthesize_discrete",
    "write_code",
]
