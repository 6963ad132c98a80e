"""Parametric-amplifier simulation and two-mode Gaussian state tomography.

The pipeline in one line: a flux-pumped amplifier model turns a pump setting
into a gain profile; a mirrored filter pair picks the signal/idler sidebands
and yields a two-mode squeezed Gaussian state; a noisy two-channel receiver
samples complex records from it; and the tomography stage walks the records
back to a covariance matrix, squeezing parameters, and Wigner marginals.
"""

from .config import ExperimentConfig, default_config, load_config, save_config
from .detection import (
    DetectionConfig,
    FilterSpec,
    RecordBatch,
    design_filter,
    measure,
    output_two_mode_state,
    predicted_r,
)
from .device import (
    DEFAULT_DEVICE,
    DEFAULT_PUMP,
    DeviceParams,
    GainProfile,
    PumpConfig,
    fit_psd,
    gain,
    gain_profile,
    psd,
    reflection,
    resonance_frequency,
)
from .errors import ConfigError, NumericsError, PipelineError
from .gaussian import (
    GaussianState,
    is_physical,
    tms_theory_covariance,
    vacuum_state,
    wigner,
    witness,
)
from .tomography import (
    EstimationResult,
    TomographyResult,
    estimate_state,
    fit_squeezing,
    reconstruct,
    wigner_marginals,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ConfigError",
    "DEFAULT_DEVICE",
    "DEFAULT_PUMP",
    "DetectionConfig",
    "DeviceParams",
    "EstimationResult",
    "ExperimentConfig",
    "FilterSpec",
    "GainProfile",
    "GaussianState",
    "NumericsError",
    "PipelineError",
    "PumpConfig",
    "RecordBatch",
    "TomographyResult",
    "default_config",
    "design_filter",
    "estimate_state",
    "fit_psd",
    "fit_squeezing",
    "gain",
    "gain_profile",
    "is_physical",
    "load_config",
    "measure",
    "output_two_mode_state",
    "predicted_r",
    "psd",
    "reconstruct",
    "reflection",
    "resonance_frequency",
    "save_config",
    "tms_theory_covariance",
    "vacuum_state",
    "wigner",
    "wigner_marginals",
    "witness",
]
