"""Cat-state and squeezed-state generation for a SQUID charge qubit in a microwave cavity.

Closed-form branch evolutions, a brute-force Fock-space propagator to check
them against, projective charge measurement with post-selection, and the
device-level sweeps and feasibility arithmetic.
"""

from .analytic import (
    Branch,
    BranchDecomposition,
    CoherentLabel,
    DisentangledFactors,
    cat_normalization,
    cat_state,
    coherent_overlap,
    complex_rabi,
    disentangle,
    evolve_coherent,
    evolve_vacuum,
    flux_pi_pulse,
    materialize,
    materialize_label,
    materialize_labels,
    squeezed_evolution,
)
from .errors import (
    ConfigError,
    DimensionError,
    NonFiniteError,
    NullOutcomeError,
    TruncationError,
)
from .experiments import (
    FeasibilityReport,
    SweepRow,
    feasibility_report,
    fig1_sweep,
    rabi_frequency,
    sweep_rows_to_csv,
    verify_analytic_numeric,
)
from .hilbert import (
    CavityState,
    JointState,
    Propagator,
    coherent_fock,
    fidelity,
    joint_state,
    min_quadrature_variance,
    propagate,
    required_fock_dim,
    wigner,
    wigner_maps,
)
from .measurement import MeasurementRecord, measure_qubit, parity_spectrum
from .model import Coupling, DeviceParams, coupling_xi, hamiltonian, validity_margin

__version__ = "0.1.0"

__all__ = [
    "Branch",
    "BranchDecomposition",
    "CavityState",
    "CoherentLabel",
    "ConfigError",
    "Coupling",
    "DeviceParams",
    "DimensionError",
    "DisentangledFactors",
    "FeasibilityReport",
    "JointState",
    "MeasurementRecord",
    "NonFiniteError",
    "NullOutcomeError",
    "Propagator",
    "SweepRow",
    "TruncationError",
    "cat_normalization",
    "cat_state",
    "coherent_fock",
    "coherent_overlap",
    "complex_rabi",
    "coupling_xi",
    "disentangle",
    "evolve_coherent",
    "evolve_vacuum",
    "feasibility_report",
    "fidelity",
    "fig1_sweep",
    "flux_pi_pulse",
    "hamiltonian",
    "joint_state",
    "materialize",
    "materialize_label",
    "materialize_labels",
    "measure_qubit",
    "min_quadrature_variance",
    "parity_spectrum",
    "propagate",
    "rabi_frequency",
    "required_fock_dim",
    "squeezed_evolution",
    "sweep_rows_to_csv",
    "validity_margin",
    "verify_analytic_numeric",
    "wigner",
    "wigner_maps",
]
