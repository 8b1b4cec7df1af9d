import cmath
import math

import numpy as np
import pytest

from squidcat.analytic import CoherentLabel, auto_fock_dim
from squidcat.constants import ELEMENTARY_CHARGE, HBAR, SPEED_OF_LIGHT
from squidcat.hilbert import _log_factorials, required_fock_dim
from squidcat.model import Coupling, DeviceParams


def make_physical_device(lam=1e-3, ratio=4.0, **overrides):
    """Device at the standard sweep convention: omega = 4 E_ch / hbar, E_J = E_ch/ratio."""
    omega = 2.0 * np.pi * SPEED_OF_LIGHT / lam
    ech_ev = HBAR * omega / (4.0 * ELEMENTARY_CHARGE)
    kwargs = dict(
        E_J=ech_ev / ratio,
        E_ch=ech_ev,
        n_g=0.5,
        phi_c_ratio=0.5,
        wavelength=lam,
        cavity_kind="full",
        squid_area=100e-12,
    )
    kwargs.update(overrides)
    return DeviceParams(**kwargs)


def make_strong_device(omega=1e10, ej_over_omega=50.0, **overrides):
    """Synthetic device with a large drive, for tests that need sizable cats.

    The closed forms for the linear coupling are exact at any coupling, so a
    large xi*E_J/(hbar*omega) gives branch displacements of order one while
    keeping the math exact.
    """
    ej_rate = ej_over_omega * omega
    ej_ev = ej_rate * HBAR / ELEMENTARY_CHARGE
    kwargs = dict(
        E_J=ej_ev,
        E_ch=4.0 * ej_ev,
        n_g=0.5,
        phi_c_ratio=0.5,
        wavelength=0.01,
        cavity_kind="full",
        squid_area=100e-12,
        omega=omega,
    )
    kwargs.update(overrides)
    return DeviceParams(**kwargs)


def ladder(dim):
    """Dense annihilation and creation matrices on the first ``dim`` Fock levels."""
    a = np.diag(np.sqrt(np.arange(1.0, dim)), 1).astype(complex)
    return a, a.conj().T


def injected_pair_overlap(kappa, alpha_prime, omega_tau):
    """The paper's closed form <alpha_+|alpha_-> for real kappa and real alpha':
    exp(-4 kappa^2 (1 - cos w tau) + 2i kappa alpha' sin w tau)."""
    return cmath.exp(
        -4.0 * kappa**2 * (1.0 - math.cos(omega_tau))
        + 2j * kappa * alpha_prime * math.sin(omega_tau)
    )


def squeeze_degrees(params, coupling, t):
    """Exact squeeze degrees asinh(|lam sin(w t)|/w) of the sigma_x = +1 and -1 branches.

    The sector s has Omega_s = omega - s |xi|^2 E_J, |lam| = |xi|^2 E_J and
    w_s = sqrt(Omega_s^2 - |lam|^2); both sectors must be stable.
    """
    lam = params.ej_rate * abs(coupling.xi) ** 2
    degrees = []
    for s in (1, -1):
        w = np.sqrt((params.omega_cavity - s * lam) ** 2 - lam**2)
        degrees.append(np.arcsinh(lam * abs(np.sin(w * t)) / w))
    return degrees


def coherent_wigner(alpha, beta):
    """Closed-form Wigner map (2/pi) exp(-2|beta - alpha|^2) of a coherent state."""
    return (2.0 / np.pi) * np.exp(-2.0 * np.abs(beta - alpha) ** 2)


def cat_wigner(alpha, sign, beta):
    """Closed-form Wigner map of the normalized cat |alpha> + sign |-alpha>."""
    interference = (4.0 / np.pi) * np.exp(-2.0 * np.abs(beta) ** 2) * np.cos(
        4.0 * np.imag(np.conj(alpha) * beta)
    )
    numerator = coherent_wigner(alpha, beta) + coherent_wigner(-alpha, beta) + sign * interference
    return numerator / (2.0 + sign * 2.0 * np.exp(-2.0 * abs(alpha) ** 2))


@pytest.fixture
def physical_device():
    return make_physical_device()


@pytest.fixture
def strong_device():
    return make_strong_device()


@pytest.fixture
def strong_coupling():
    # kappa = |xi| * E_J/(hbar*omega) = 0.01 * 50 = 0.5
    return Coupling.from_xi(0.01)


def policy_start(labels) -> int:
    """The first truncation ``auto_fock_dim`` tries for ``labels``, seen by its hook."""
    tried = []

    def propagated(dim):
        tried.append(dim)
        return []

    auto_fock_dim(labels, propagated=propagated)
    return tried[0]


def start_over_every_centre(labels) -> int:
    """The start as the max over every label's own tail requirement."""
    centres = [label.alpha if isinstance(label, CoherentLabel) else label.gamma for label in labels]
    return max([64] + [required_fock_dim(c, 1e-12) for c in centres])


def coherent_reference(alpha, dim):
    """Coherent amplitudes on ``dim`` levels formed one state at a time, renormalized."""
    if alpha == 0:
        v = np.zeros(dim, dtype=complex)
        v[0] = 1.0
        return v
    ns = np.arange(dim)
    logmag = -abs(alpha) ** 2 / 2.0 + ns * math.log(abs(alpha)) - 0.5 * _log_factorials(dim)
    v = np.exp(logmag + 1j * np.angle(alpha) * ns)
    return v / np.linalg.norm(v)


def yuen_reference(label, dim):
    """Yuen's recurrence for one squeezed label, step by step in Python complex arithmetic.

    Returns the renormalized amplitudes and the leakage |1 - norm^2| of the
    unrenormalized ones; the amplitudes are carried in units of e^log_scale
    and rescaled by 2^500 when one exceeds it.
    """
    gamma = complex(label.gamma)
    r = abs(label.squeeze)
    spin = cmath.exp(1j * cmath.phase(label.squeeze))
    turn = cmath.exp(1j * label.rotation)
    mu = math.cosh(r) * turn
    nu = -math.sinh(r) * spin / turn
    log_vacuum = (
        -abs(gamma) ** 2 / 2.0
        - spin.conjugate() * math.tanh(r) * gamma**2 / 2.0
        - math.log(math.cosh(r)) / 2.0
    )
    rescale = 2.0**500
    log_scale = log_vacuum.real
    amps, prev = [cmath.exp(1j * log_vacuum.imag)], 0.0
    roots = np.sqrt(np.arange(dim)).tolist()
    for n in range(dim - 1):
        amp = (gamma * amps[n] - nu * roots[n] * prev) / (mu * roots[n + 1])
        prev = amps[n]
        amps.append(amp)
        if abs(amp) > rescale:
            amps = [a / rescale for a in amps]
            prev /= rescale
            log_scale += math.log(rescale)
    v = np.array(amps)
    sum2 = float(np.vdot(v, v).real)
    return v / math.sqrt(sum2), abs(1.0 - math.exp(2.0 * log_scale + math.log(sum2)))
