"""Nearest-neighbor Fourier-transform compiler and dense Hamiltonian-
engineering simulator with two benchmark experiments (flat Chern bands and a
1+1D spacetime crystal) plus their gate-noise robustness studies."""

__version__ = "0.1.0"

from .circuit import (
    CircuitSequence,
    GateSpec,
    build_generic_qqft,
    build_radix2_qqft,
    depth_formula,
    dft_matrix,
    sequence_from_json,
    sequence_to_json,
    sequence_to_unitary,
)
from .engine import NoiseModel, apply_noisy_sequence
from .protocol import (
    MomentumModel,
    SpectrumResult,
    build_protocol_unitary,
    estimate_runtime,
    extract_spectrum,
)

__all__ = [
    "__version__",
    "CircuitSequence",
    "GateSpec",
    "MomentumModel",
    "NoiseModel",
    "SpectrumResult",
    "apply_noisy_sequence",
    "build_generic_qqft",
    "build_protocol_unitary",
    "build_radix2_qqft",
    "depth_formula",
    "dft_matrix",
    "estimate_runtime",
    "extract_spectrum",
    "sequence_from_json",
    "sequence_to_json",
    "sequence_to_unitary",
]
