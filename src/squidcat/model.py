"""Device description, field-qubit coupling, and Hamiltonian builders.

The device is a SQUID-based charge qubit sitting in a single-mode microwave
cavity.  The flux threading the SQUID has a classical part (set by
``phi_c_ratio``) and a quantized part whose strength is the dimensionless
coupling ``xi``.  Three Hamiltonian levels are available: the full operator
cosine, its first-order expansion (linear field coupling), and the
second-order expansion (quadratic, squeezing-type coupling).  All three are
built at the charge degeneracy n_g = 1/2, where they commute with sigma_x,
in the sigma_x-sector form of ``hilbert.SectorHamiltonian``: banded for the
expansions, one dense real block per sector for the cosine.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .constants import (
    COUPLING_RTOL,
    ELEMENTARY_CHARGE,
    FLUX_QUANTUM,
    HBAR,
    SETTING_TOL,
    SPEED_OF_LIGHT,
    VACUUM_PERMITTIVITY,
    VALIDITY_WARN_LEVEL,
    ev_to_rate,
)
from .errors import DimensionError
from .hilbert import SectorHamiltonian

__all__ = [
    "CAVITY_KINDS",
    "HAMILTONIAN_ORDERS",
    "DeviceParams",
    "Coupling",
    "coupling_xi",
    "validity_margin",
    "require_setting",
    "FluxPulse",
    "flux_pulse",
    "hamiltonian",
]

CAVITY_KINDS = {"full": 1.0, "half": 0.5, "quarter": 0.25}
HAMILTONIAN_ORDERS = ("cosine", "first", "second")


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


@dataclass(frozen=True)
class Coupling:
    """Quantized-flux coupling: |eta_abs| in Wb, xi = pi*eta/Phi0 dimensionless."""

    eta_abs: float
    xi: complex

    def __post_init__(self):
        if self.eta_abs < 0:
            raise ValueError("eta_abs must be >= 0")
        expected = math.pi * self.eta_abs / FLUX_QUANTUM
        if abs(abs(self.xi) - expected) > COUPLING_RTOL * max(expected, 1e-300):
            raise ValueError(
                f"|xi| must equal pi*eta_abs/Phi0 = {expected!r}, got {abs(self.xi)!r}"
            )

    @classmethod
    def from_xi(cls, xi: complex) -> "Coupling":
        """Build a coupling directly from the dimensionless flux."""
        return cls(eta_abs=abs(xi) * FLUX_QUANTUM / math.pi, xi=complex(xi))


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
    """Expansion margin |xi| sqrt(n_max + 1) = pi*|eta|*sqrt(n_max+1)/Phi0; warns when >= 0.1."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    value = abs(coupling.xi) * math.sqrt(n_max + 1.0)
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


class FluxPulse(NamedTuple):
    """The flux pulse: its duration in s, the cavity's turn omega * duration, and the qubit gate."""

    duration: float
    angle: float
    rotation: np.ndarray


def flux_pulse(params: DeviceParams) -> FluxPulse:
    """The pulse of duration hbar*pi/(4 E_J) at one flux quantum, which rotates the qubit about x.

    With the classical flux at one flux quantum the field-qubit coupling is
    off and the generator is omega n + E_J sigma_x, so the pulse is exactly
    exp(-i angle n) (x) exp(-i (pi/4) sigma_x): ``rotation`` is that qubit
    gate in the (g, e) basis, a Bloch rotation by pi/2.
    """
    duration = math.pi / (4.0 * params.ej_rate)
    cos_half, mix = math.cos(math.pi / 4.0), -1j * math.sin(math.pi / 4.0)
    rotation = np.array([[cos_half, mix], [mix, cos_half]])
    rotation.setflags(write=False)
    return FluxPulse(duration, params.omega_cavity * duration, rotation)


def _flux_sin_cos(phi_c_ratio: float) -> tuple[float, float]:
    """sin and cos of pi * phi_c_ratio, exactly 0 or +-1 where 2 * phi_c_ratio is an integer
    (math.sin(math.pi) is 1.2e-16): the flux pulse then has no coupling band."""
    if (2.0 * phi_c_ratio).is_integer():
        quarter = int(2.0 * phi_c_ratio) % 4  # pi * phi_c_ratio = quarter * pi/2 (mod 2 pi)
        return ((0.0, 1.0), (1.0, 0.0), (0.0, -1.0), (-1.0, 0.0))[quarter]
    angle = math.pi * phi_c_ratio
    return math.sin(angle), math.cos(angle)


def hamiltonian(
    params: DeviceParams, coupling: Coupling, order: str, dim: int
) -> SectorHamiltonian:
    """Joint-space Hamiltonian (angular-frequency units) at the given expansion order.

    Every order is omega n + sigma_x B with B = -E_J cos(pi phi_c + xi a + xi^* adag)
    or its expansion: order='cosine' keeps the full operator cosine,
    order='first' the linear field coupling, and order='second' the
    quadratic (squeezing) terms, at phi_c_ratio = 0.  Each is defined at
    n_g = 1/2, where it commutes with sigma_x, and is returned as a
    ``SectorHamiltonian`` gauged real by G = diag(e^(-i n arg xi)):

    - first order: B is one band coupling n to n+-1, built in O(N);
    - second order: B is one band coupling n to n+-2, built in O(N);
    - cosine: the gauged argument pi phi_c + |xi| (a + adag) is real
      tridiagonal, so ``eigh_tridiagonal`` gives it as V Lambda V^T and
      B = -E_J V cos(Lambda) V^T is one dense real symmetric block.
    """
    if order not in HAMILTONIAN_ORDERS:
        raise ValueError(f"order must be one of {HAMILTONIAN_ORDERS}, got {order!r}")
    if dim < 2:
        raise DimensionError(f"Fock truncation must be >= 2, got {dim}")
    # every order needs n_g = 1/2; only the second order also fixes the flux
    require_setting(params, 0.0 if order == "second" else params.phi_c_ratio, f"order={order!r}")

    omega = params.omega_cavity
    ej = params.ej_rate
    xi_abs = abs(coupling.xi)
    flux_angle = math.pi * params.phi_c_ratio
    levels = np.arange(dim, dtype=float)
    cavity, phase = omega * levels, cmath.phase(coupling.xi)

    if order == "cosine":
        # imported here so that only a diagonalization loads scipy
        from scipy.linalg import eigh_tridiagonal

        evals, evecs = eigh_tridiagonal(np.zeros(dim), xi_abs * np.sqrt(levels[1:]))
        coupling_block = (evecs * (-ej * np.cos(flux_angle + evals))) @ evecs.T
        return SectorHamiltonian(cavity, coupling_block, phase)
    if order == "first":
        # B = -E_J cos(phi) + E_J sin(phi) |xi| (a + adag)
        sin_phi, cos_phi = _flux_sin_cos(params.phi_c_ratio)
        diagonal = np.full(dim, -ej * cos_phi)
        band = ej * sin_phi * xi_abs * np.sqrt(levels[1:])
        stride = 1
    else:
        # B = -E_J (|xi|^2 n + 1 + |xi|^2/2 + |xi|^2 (a^2 + adag^2)/2)
        xi2 = xi_abs**2
        diagonal = -ej * xi2 * levels - ej * (1.0 + xi2 / 2.0)
        band = -ej * (xi2 / 2.0) * np.sqrt(levels[2:] * levels[1:-1])
        stride = 2
    return SectorHamiltonian(cavity, diagonal, phase, band, stride)
