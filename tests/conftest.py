import numpy as np
import pytest

from squidcat.constants import ELEMENTARY_CHARGE, HBAR, SPEED_OF_LIGHT
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
