"""Device description, field-qubit coupling, and Hamiltonian builders.

The device is a SQUID-based charge qubit sitting in a single-mode microwave
cavity.  The flux threading the SQUID has a classical part (set by
``phi_c_ratio``) and a quantized part whose strength is the dimensionless
coupling ``xi``.  Three Hamiltonian levels are available: the full operator
cosine, its first-order expansion (linear field coupling), and the
second-order expansion (quadratic, squeezing-type coupling).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields

import numpy as np
from scipy.linalg import eigh

from .constants import (
    ELEMENTARY_CHARGE,
    FLUX_QUANTUM,
    HBAR,
    SPEED_OF_LIGHT,
    VACUUM_PERMITTIVITY,
    ev_to_rate,
)
from .errors import DimensionError
from .hilbert import FockOperator, make_ladder_ops

__all__ = [
    "CAVITY_KINDS",
    "HAMILTONIAN_ORDERS",
    "DeviceParams",
    "Coupling",
    "coupling_xi",
    "validity_margin",
    "require_setting",
    "hamiltonian",
]

CAVITY_KINDS = {"full": 1.0, "half": 0.5, "quarter": 0.25}
HAMILTONIAN_ORDERS = ("cosine", "first", "second")

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

VALIDITY_WARN_LEVEL = 0.1
SETTING_TOL = 1e-12


@dataclass(frozen=True)
class DeviceParams:
    """Physical knobs of the qubit-cavity device.

    Energies in eV, lengths in meters.  ``omega`` overrides the cavity
    angular frequency; by default it is derived as 2*pi*c/wavelength.
    ``z0`` is the qubit position along the cavity axis (default: cavity
    midpoint).  ``Q`` is the cavity quality factor, needed only for
    lifetime estimates.  Every numeric field must be finite.
    """

    E_J: float
    E_ch: float
    n_g: float = 0.5
    phi_c_ratio: float = 0.5
    wavelength: float = 1e-3
    cavity_kind: str = "full"
    squid_area: float = 100e-12
    z0: float | None = None
    Q: float | None = None
    omega: float | None = None

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            if field.name != "cavity_kind" and value is not None and not math.isfinite(value):
                raise ValueError(f"{field.name} must be finite, got {value!r}")
        if self.E_J <= 0 or self.E_ch <= 0:
            raise ValueError("E_J and E_ch must be positive")
        if self.wavelength <= 0 or self.squid_area <= 0:
            raise ValueError("wavelength and squid_area must be positive")
        if self.cavity_kind not in CAVITY_KINDS:
            raise ValueError(
                f"cavity_kind must be one of {sorted(CAVITY_KINDS)}, got {self.cavity_kind!r}"
            )
        if self.z0 is not None and not 0.0 <= self.z0 <= self.cavity_length:
            raise ValueError(
                f"z0 must lie in [0, {self.cavity_length!r}], got {self.z0!r}"
            )
        if self.Q is not None and self.Q <= 0:
            raise ValueError("Q must be positive when given")
        if self.E_J >= self.E_ch:
            warnings.warn(
                f"charge regime expects E_J < E_ch, got E_J={self.E_J!r} >= E_ch={self.E_ch!r}",
                stacklevel=2,
            )

    @property
    def cavity_length(self) -> float:
        return self.wavelength * CAVITY_KINDS[self.cavity_kind]

    @property
    def z0_eff(self) -> float:
        return self.cavity_length / 2.0 if self.z0 is None else self.z0

    @property
    def omega_cavity(self) -> float:
        """Cavity angular frequency in rad/s."""
        if self.omega is not None:
            return self.omega
        return 2.0 * math.pi * SPEED_OF_LIGHT / self.wavelength

    @property
    def ej_rate(self) -> float:
        """Josephson energy as an angular frequency E_J/hbar in rad/s."""
        return ev_to_rate(self.E_J)

    @property
    def ech_rate(self) -> float:
        """Charging energy as an angular frequency E_ch/hbar in rad/s."""
        return ev_to_rate(self.E_ch)

    @property
    def ez_rate(self) -> float:
        """Gate-charge detuning -2 E_ch (1 - 2 n_g) as an angular frequency."""
        return -2.0 * self.ech_rate * (1.0 - 2.0 * self.n_g)


@dataclass(frozen=True)
class Coupling:
    """Quantized-flux coupling: |eta_abs| in Wb, xi = pi*eta/Phi0 dimensionless."""

    eta_abs: float
    xi: complex

    def __post_init__(self):
        if self.eta_abs < 0:
            raise ValueError("eta_abs must be >= 0")
        expected = math.pi * self.eta_abs / FLUX_QUANTUM
        if abs(abs(self.xi) - expected) > 1e-12 * max(expected, 1e-300):
            raise ValueError(
                f"|xi| must equal pi*eta_abs/Phi0 = {expected!r}, got {abs(self.xi)!r}"
            )

    @classmethod
    def from_xi(cls, xi: complex) -> "Coupling":
        """Build a coupling directly from the dimensionless flux."""
        return cls(eta_abs=abs(xi) * FLUX_QUANTUM / math.pi, xi=complex(xi))

    def validity_margin(self, n_max: int) -> float:
        """Expansion-control parameter |xi| sqrt(n_max + 1)."""
        if n_max < 0:
            raise ValueError("n_max must be >= 0")
        return abs(self.xi) * math.sqrt(n_max + 1.0)


def coupling_xi(params: DeviceParams, phase: float = 0.0) -> Coupling:
    """Coupling from the device geometry, standing-wave mode, and V = L^3.

    eta = S * sqrt(hbar*omega / (eps0 * V * c^2)) * |cos(k z0)| with
    k = 2*pi/wavelength; the cavity volume is the cube of its length.
    ``phase`` sets the (otherwise zero) phase of xi.
    """
    length = params.cavity_length
    volume = length**3
    omega = params.omega_cavity
    k = 2.0 * math.pi / params.wavelength
    mode = abs(math.cos(k * params.z0_eff))
    eta = params.squid_area * math.sqrt(
        HBAR * omega / (VACUUM_PERMITTIVITY * volume * SPEED_OF_LIGHT**2)
    ) * mode
    xi_abs = math.pi * eta / FLUX_QUANTUM
    return Coupling(eta_abs=eta, xi=xi_abs * complex(math.cos(phase), math.sin(phase)))


def validity_margin(coupling: Coupling, n_max: int) -> float:
    """Expansion margin pi*|eta|*sqrt(n_max+1)/Phi0; warns when >= 0.1."""
    value = coupling.validity_margin(n_max)
    if value >= VALIDITY_WARN_LEVEL:
        warnings.warn(
            f"expansion margin {value:.3g} >= {VALIDITY_WARN_LEVEL}; "
            "the truncated expansion is unreliable at this photon number",
            stacklevel=2,
        )
    return value


def require_setting(params: DeviceParams, phi_c_ratio: float, context: str) -> None:
    """Raise ValueError unless n_g = 1/2 and the classical flux ratio is ``phi_c_ratio``."""
    for name, wanted in (("n_g", 0.5), ("phi_c_ratio", phi_c_ratio)):
        value = getattr(params, name)
        if abs(value - wanted) > SETTING_TOL:
            raise ValueError(f"{context} requires {name} = {wanted!r}, got {value!r}")


def hamiltonian(params: DeviceParams, coupling: Coupling, order: str, dim: int) -> FockOperator:
    """Joint-space Hamiltonian (angular-frequency units) at the given expansion order.

    order='cosine' builds the full operator cosine of the total flux via an
    eigendecomposition of its hermitian argument; order='first' keeps the
    linear field coupling; order='second' additionally keeps the quadratic
    (squeezing) terms and is defined at phi_c_ratio = 0, n_g = 1/2.
    """
    if order not in HAMILTONIAN_ORDERS:
        raise ValueError(f"order must be one of {HAMILTONIAN_ORDERS}, got {order!r}")
    if dim < 2:
        raise DimensionError(f"Fock truncation must be >= 2, got {dim}")

    a_op, adag_op = make_ladder_ops(dim)
    a = a_op.matrix
    adag = adag_op.matrix
    n_mat = adag @ a
    eye_f = np.eye(dim, dtype=complex)
    eye_q = np.eye(2, dtype=complex)

    omega = params.omega_cavity
    ej = params.ej_rate
    xi = coupling.xi
    flux_angle = math.pi * params.phi_c_ratio

    h = omega * np.kron(eye_q, n_mat) + params.ez_rate * np.kron(SIGMA_Z, eye_f)

    if order == "cosine":
        argument = flux_angle * eye_f + xi * a + np.conj(xi) * adag
        evals, evecs = eigh(argument)
        cos_mat = (evecs * np.cos(evals)) @ evecs.conj().T
        h -= ej * np.kron(SIGMA_X, cos_mat)
    elif order == "first":
        linear = xi * a + np.conj(xi) * adag
        h -= ej * math.cos(flux_angle) * np.kron(SIGMA_X, eye_f)
        h += ej * math.sin(flux_angle) * np.kron(SIGMA_X, linear)
    else:
        require_setting(params, 0.0, "order='second'")
        quad = (xi**2 / 2.0) * (a @ a) + (np.conj(xi) ** 2 / 2.0) * (adag @ adag)
        xi2 = abs(xi) ** 2
        h -= ej * xi2 * np.kron(SIGMA_X, n_mat)
        h -= ej * (1.0 + xi2 / 2.0) * np.kron(SIGMA_X, eye_f)
        h -= ej * np.kron(SIGMA_X, quad)

    return FockOperator(h, hamiltonian=True)
