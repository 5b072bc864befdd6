"""tmsvfisher: two-mode squeezed vacuum interferometry on a truncated Fock
space, photon-number-resolving detector tomography, and Fisher-information
analysis of phase estimation against the shot-noise limit."""

__version__ = "0.1.0"

from .errors import ConfigError, IdentifiabilityError, NonConvergenceError
from .fock import FockCutoff
from .optics import InterferometerConfig, LossModel, SqueezingParams
from .detectors import (
    ProbeSet,
    click_povm_from,
    coherent_probe_matrix,
    efficiency_povm,
    ideal_pnr_povm,
    tomography_mle,
)
from .metrology import (
    max_cfi_over_phase,
    pnr_click_ratio,
    quantum_fisher_mixed,
    quantum_fisher_pure,
    sub_snl_fraction,
    sweep_fisher,
)
from .inference import bootstrap_ci, fit_model, simulate_counts

__all__ = [
    "__version__",
    "ConfigError",
    "IdentifiabilityError",
    "NonConvergenceError",
    "FockCutoff",
    "SqueezingParams",
    "LossModel",
    "InterferometerConfig",
    "ProbeSet",
    "ideal_pnr_povm",
    "efficiency_povm",
    "click_povm_from",
    "coherent_probe_matrix",
    "tomography_mle",
    "quantum_fisher_pure",
    "quantum_fisher_mixed",
    "sweep_fisher",
    "sub_snl_fraction",
    "max_cfi_over_phase",
    "pnr_click_ratio",
    "simulate_counts",
    "fit_model",
    "bootstrap_ci",
]
