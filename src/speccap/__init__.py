"""Capacity bounds for single photons encoded in their spectral profile.

A photon carries one letter of an alphabet of spectral amplitudes through a
channel with frequency-dependent loss.  This package computes the resulting
Gram-matrix data, Holevo and post-selected capacity bounds, erasure-channel
bounds, and the exact symmetric two-letter capacity, plus a CLI for
parameter sweeps and plots.
"""

from .errors import (
    ComputationError,
    ConvergenceError,
    PsdViolationError,
    ValidationError,
)
from .numerics import (
    clamp_spectrum,
    hermitian_eigenvalues,
)
from .spectral import (
    FlatResponse,
    GaussianAmplitude,
    GaussianPeakResponse,
    TabulatedAmplitude,
    TabulatedResponse,
    load_tabulated_amplitude,
    load_tabulated_response,
    make_gaussian_basis,
    modulated_overlap,
    survival_probability,
)
from .channel import EncodingEnsemble, GramData, compute_gram, output_spectrum
from .capacity import (
    CapacityReport,
    ErasureBounds,
    binary_capacity,
    binary_entropy,
    erasure_bounds,
    holevo_bound,
    optimal_alphabet_size,
    optimize_priors,
    two_state_exact,
    two_state_max,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityReport",
    "ComputationError",
    "ConvergenceError",
    "EncodingEnsemble",
    "ErasureBounds",
    "FlatResponse",
    "GaussianAmplitude",
    "GaussianPeakResponse",
    "GramData",
    "PsdViolationError",
    "TabulatedAmplitude",
    "TabulatedResponse",
    "ValidationError",
    "binary_capacity",
    "binary_entropy",
    "clamp_spectrum",
    "compute_gram",
    "erasure_bounds",
    "hermitian_eigenvalues",
    "holevo_bound",
    "load_tabulated_amplitude",
    "load_tabulated_response",
    "make_gaussian_basis",
    "modulated_overlap",
    "optimal_alphabet_size",
    "optimize_priors",
    "output_spectrum",
    "survival_probability",
    "two_state_exact",
    "two_state_max",
]
