"""Pinned physical constants (SI) and the numerical contracts used across the package.

Physical values are fixed rather than imported from scipy so that outputs are
bit-reproducible; every tolerance and truncation bound is defined here, once.
"""

FLUX_QUANTUM = 2.067833848e-15
"""Magnetic flux quantum h/2e in Wb."""

VACUUM_PERMITTIVITY = 8.8541878128e-12
"""Vacuum permittivity in F/m."""

SPEED_OF_LIGHT = 2.99792458e8
"""Speed of light in m/s."""

HBAR = 1.054571817e-34
"""Reduced Planck constant in J*s."""

ELEMENTARY_CHARGE = 1.602176634e-19
"""Elementary charge in C (also the eV -> J conversion factor)."""

# The numerical contracts, each with the reason for its value.
NORM_TOL = 1e-10  # slack on |amplitudes|^2 = 1 of a valid state: the truncation contract's size
TRUNCATION_TOL = 1e-10  # weight past a truncation or in its top 4 levels: 100x under the 1e-8 gate
LABEL_TAIL_TOL = 1e-12  # coherent tail at the policy's derived start, 100x inside TRUNCATION_TOL
BRANCH_NORM_TOL = 1e-8  # norm^2 slack of a materialized decomposition beyond 4x leakage: rounding
COUPLING_RTOL = 1e-12  # relative slack of |xi| against pi*eta_abs/Phi0: rounding of the conversion
SETTING_TOL = 1e-12  # slack on n_g and phi_c_ratio at a closed form's operating point: rounding
WIGNER_TRIM_TOL = 2.0**-55  # summed |rho| a Wigner map may leave out: eps/8, under its rounding
ZERO_PROBABILITY_THRESHOLD = 1e-14  # an outcome less likely has no post-state: unit-norm rounding
DEFAULT_FOCK_DIM = 64  # the policy's smallest start: holds |alpha| <= 5 within TRUNCATION_TOL
MAX_FOCK_DIM = 512  # largest truncation the policy or a configuration may use: bounds a run's cost
MAX_WIGNER_POINTS = 401  # points per axis of a cat Wigner map: the example's 2 maps take 64 MiB
MAX_CAVITY_PHASE = 2.0**52  # bound on omega |t| (rad): past it no phase e^(-i omega t) is resolved


def ev_to_rate(energy_ev: float) -> float:
    """Convert an energy in eV to an angular frequency E/hbar in rad/s."""
    return energy_ev * ELEMENTARY_CHARGE / HBAR
