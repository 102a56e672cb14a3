"""linecancel: modeling, estimation, and cancellation of line-synchronous
secular-frequency noise in trapped-ion motional-coherence experiments."""

from .estimator import (
    FitResult,
    SlopeFit,
    fit_amplitude,
    fit_gaussian_envelope,
    fit_phase,
    fit_phase_slope,
    shot_noise_sigma,
)
from .model_core import (
    CPSequence,
    HeatingModel,
    ModulationParams,
    RamseyTrace,
    analytic_signal,
    bessel_j0,
    filter_F,
    filter_F_general,
    signed_filter,
    toggling_value,
)
from .phase_oracle import accumulated_phase, accumulated_phase_grid, phase_averaged_signal
from .phasor_cancel import CancelSolution, Phasor, TrialRecord, predict_residual, setpoint_scale, solve_phasor
from .quantum_sim import (
    SequenceSpec,
    cached_heating_envelope,
    heating_envelope,
    phase_averaged_sequence,
    product_model_check,
    run_sequence,
)
from .simlab import LabTruth, SimLab, coherence_time, monitor_trace, reference_truth

__version__ = "0.1.0"

__all__ = [
    "CPSequence",
    "CancelSolution",
    "FitResult",
    "HeatingModel",
    "LabTruth",
    "ModulationParams",
    "Phasor",
    "RamseyTrace",
    "SequenceSpec",
    "SimLab",
    "SlopeFit",
    "TrialRecord",
    "accumulated_phase",
    "accumulated_phase_grid",
    "analytic_signal",
    "bessel_j0",
    "cached_heating_envelope",
    "coherence_time",
    "filter_F",
    "filter_F_general",
    "fit_amplitude",
    "fit_gaussian_envelope",
    "fit_phase",
    "fit_phase_slope",
    "heating_envelope",
    "monitor_trace",
    "reference_truth",
    "phase_averaged_sequence",
    "phase_averaged_signal",
    "predict_residual",
    "product_model_check",
    "run_sequence",
    "setpoint_scale",
    "shot_noise_sigma",
    "signed_filter",
    "solve_phasor",
    "toggling_value",
    "__version__",
]
