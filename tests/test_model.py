import math
import warnings

import numpy as np
import pytest
from scipy.linalg import eigh

from squidcat.constants import FLUX_QUANTUM
from squidcat.errors import DimensionError
from squidcat.hilbert import SectorHamiltonian
from squidcat.model import (
    Coupling,
    DeviceParams,
    coupling_xi,
    flux_pulse,
    hamiltonian,
    validity_margin,
)

from conftest import ladder, make_physical_device, make_strong_device


# ---------------------------------------------------------------- coupling

def test_coupling_bound_short_wavelength():
    params = make_physical_device(lam=1e-3)
    xi_abs = abs(coupling_xi(params).xi)
    assert abs(xi_abs - 7.38e-5) <= 0.05 * 7.38e-5


def test_coupling_bound_long_wavelength():
    params = make_physical_device(lam=0.15)
    xi_abs = abs(coupling_xi(params).xi)
    assert abs(xi_abs - 3.28e-9) <= 0.05 * 3.28e-9


def test_coupling_vanishes_at_mode_node():
    # z0 = L/4 in a full-wavelength cavity sits at cos(k z0) = cos(pi/2) = 0.
    params = make_physical_device(lam=1e-3, z0=0.25e-3)
    assert abs(coupling_xi(params).xi) <= 1e-20


def test_coupling_phase_is_configurable():
    params = make_physical_device()
    c = coupling_xi(params, phase=0.7)
    assert abs(np.angle(c.xi) - 0.7) <= 1e-12
    assert abs(abs(c.xi) - abs(coupling_xi(params).xi)) <= 1e-18


def test_coupling_monotone_decreasing_in_wavelength():
    lams = np.logspace(math.log10(1e-3), math.log10(0.15), 50)
    xis = [abs(coupling_xi(make_physical_device(lam=lam)).xi) for lam in lams]
    assert all(a > b for a, b in zip(xis, xis[1:]))


def test_coupling_invariant_links_eta_and_xi():
    c = Coupling.from_xi(7.38e-5)
    assert abs(abs(c.xi) - math.pi * c.eta_abs / FLUX_QUANTUM) <= 1e-18
    with pytest.raises(ValueError):
        Coupling(eta_abs=1e-20, xi=1.0)


# ---------------------------------------------------------------- validity margin

def test_validity_margin_values():
    c = Coupling.from_xi(7.38e-5)
    assert validity_margin(c, 0) == pytest.approx(7.38e-5, rel=1e-12)
    assert validity_margin(c, 3) == pytest.approx(1.476e-4, rel=1e-12)
    assert validity_margin(Coupling.from_xi(0.0), 100) == 0.0


def test_validity_margin_warns_when_large():
    c = Coupling.from_xi(0.2)
    with pytest.warns(UserWarning):
        validity_margin(c, 0)


# ---------------------------------------------------------------- device params

def test_device_charge_regime_warning():
    with pytest.warns(UserWarning):
        make_physical_device(E_J=1e-3, E_ch=1e-4)


def test_device_rejects_bad_geometry():
    with pytest.raises(ValueError):
        make_physical_device(cavity_kind="eighth")
    with pytest.raises(ValueError):
        make_physical_device(z0=2e-3)  # beyond the cavity length


def test_device_rejects_nan_energy_and_infinite_wavelength():
    with pytest.raises(ValueError, match="E_J"):
        DeviceParams(E_J=float("nan"), E_ch=1.0)
    with pytest.raises(ValueError, match="wavelength"):
        DeviceParams(E_J=1.0, E_ch=4.0, wavelength=float("inf"))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize(
    "field", ["E_J", "E_ch", "n_g", "phi_c_ratio", "wavelength", "squid_area", "z0", "Q", "omega"]
)
def test_device_rejects_non_finite_fields(field, value):
    with pytest.raises(ValueError, match=field):
        make_physical_device(**{field: value})


# ---------------------------------------------------------------- hamiltonian builders

def _coupling_block(h, dim):
    """Off-diagonal (g,e) block, which carries every sigma_x term."""
    return h.matrix[:dim, dim:]


def test_hamiltonian_orders_are_hermitian():
    params = make_physical_device()
    c = coupling_xi(params)
    for order, p in (
        ("cosine", params),
        ("first", params),
        ("second", make_physical_device(phi_c_ratio=0.0)),
    ):
        h = hamiltonian(p, c, order, 16)
        scale = np.abs(h.matrix).max()
        assert np.abs(h.matrix - h.matrix.conj().T).max() <= 1e-12 * scale


def test_first_order_coupling_off_at_zero_flux():
    params = make_physical_device(phi_c_ratio=0.0)
    c = coupling_xi(params)
    dim = 12
    h = hamiltonian(params, c, "first", dim)
    block = _coupling_block(h, dim)
    # pure -E_J identity: no field dependence, so H commutes with the number operator
    assert np.allclose(block, -params.ej_rate * np.eye(dim), atol=1e-3 * params.ej_rate * 1e-9)
    n_joint = np.kron(np.eye(2), np.diag(np.arange(dim, dtype=complex)))
    comm = h.matrix @ n_joint - n_joint @ h.matrix
    assert np.abs(comm).max() <= 1e-9 * np.abs(h.matrix).max()


def test_first_order_coupling_weight_at_half_flux():
    params = make_physical_device(phi_c_ratio=0.5)
    c = coupling_xi(params)
    dim = 12
    h = hamiltonian(params, c, "first", dim)
    a, adag = ladder(dim)
    expected = params.ej_rate * (c.xi * a + np.conj(c.xi) * adag)
    assert np.allclose(_coupling_block(h, dim), expected, atol=1e-16 * params.ej_rate)


@pytest.mark.parametrize(
    "phi_c_ratio,diagonal,band", [(0.0, -1.0, 0.0), (0.5, 0.0, 1.0), (1.0, 1.0, 0.0), (1.5, 0.0, -1.0)]
)
def test_first_order_flux_factors_are_exact_at_half_integers(phi_c_ratio, diagonal, band):
    # cos and sin of pi phi_c are exactly 0 or +-1 there, not 6e-17 or 1.2e-16
    params = make_strong_device(phi_c_ratio=phi_c_ratio)
    c = Coupling.from_xi(0.01)
    h = hamiltonian(params, c, "first", 8)
    assert np.array_equal(h.coupling, np.full(8, diagonal * params.ej_rate))
    assert np.array_equal(h.band, band * params.ej_rate * 0.01 * np.sqrt(np.arange(1.0, 8.0)))


_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])


def _kron_hamiltonian(params, coupling, order, dim):
    """The joint first- or second-order Hamiltonian built densely from Kronecker products."""
    a, adag = ladder(dim)
    ej, xi, phi = params.ej_rate, coupling.xi, math.pi * params.phi_c_ratio
    h = params.omega_cavity * np.kron(np.eye(2), adag @ a)
    if order == "first":
        b = -ej * math.cos(phi) * np.eye(dim) + ej * math.sin(phi) * (xi * a + np.conj(xi) * adag)
    else:
        xi2 = abs(xi) ** 2
        quad = (xi**2 / 2.0) * (a @ a) + (np.conj(xi) ** 2 / 2.0) * (adag @ adag)
        b = -ej * (xi2 * (adag @ a) + (1.0 + xi2 / 2.0) * np.eye(dim) + quad)
    return h + np.kron(_SIGMA_X, b)


def _dense_cosine_hamiltonian(params, coupling, dim):
    """omega n - E_J sigma_x cos(pi phi_c + xi a + xi^* adag), the cosine by dense eigh."""
    a, adag = ladder(dim)
    argument = math.pi * params.phi_c_ratio * np.eye(dim) + coupling.xi * a
    argument += np.conj(coupling.xi) * adag
    evals, evecs = eigh(argument)
    cosine = (evecs * np.cos(evals)) @ evecs.conj().T
    h = params.omega_cavity * np.kron(np.eye(2), adag @ a)
    return h - params.ej_rate * np.kron(_SIGMA_X, cosine)


@pytest.mark.parametrize(
    "order, overrides, route",
    [
        ("first", {}, SectorHamiltonian),
        ("first", {"phi_c_ratio": 1.0}, SectorHamiltonian),
        ("second", {"phi_c_ratio": 0.0}, SectorHamiltonian),
    ],
)
def test_hamiltonian_matches_kronecker_build(order, overrides, route):
    params = make_strong_device(**overrides)
    coupling = Coupling.from_xi(0.05 * np.exp(2.2j))
    dim = 24
    h = hamiltonian(params, coupling, order, dim)
    assert type(h) is route and h.dim == 2 * dim
    reference = _kron_hamiltonian(params, coupling, order, dim)
    assert np.abs(h.matrix - reference).max() <= 1e-14 * np.abs(reference).max()


def test_cosine_order_stays_dense():
    # one dense real coupling block per sigma_x sector, not bands
    params = make_physical_device()
    h = hamiltonian(params, coupling_xi(params), "cosine", 8)
    assert type(h) is SectorHamiltonian and h.band is None and h.coupling.shape == (8, 8)


@pytest.mark.parametrize("dim", [16, 64])
@pytest.mark.parametrize("phi_c_ratio", [0.0, 0.3, 0.5, 1.0])
def test_cosine_matches_dense_build(phi_c_ratio, dim):
    params = make_strong_device(phi_c_ratio=phi_c_ratio)
    coupling = Coupling.from_xi(0.05 * np.exp(2.2j))
    h = hamiltonian(params, coupling, "cosine", dim)
    assert h.dim == 2 * dim
    reference = _dense_cosine_hamiltonian(params, coupling, dim)
    assert np.abs(h.matrix - reference).max() <= 1e-13 * np.abs(reference).max()


def test_every_order_requires_charge_degeneracy():
    params = make_physical_device(n_g=0.3, phi_c_ratio=0.0)
    for order in ("cosine", "first", "second"):
        with pytest.raises(ValueError, match=f"order='{order}' requires n_g = 0.5, got 0.3"):
            hamiltonian(params, coupling_xi(params), order, 8)


def test_second_order_preconditions():
    params = make_physical_device(phi_c_ratio=0.5)
    c = coupling_xi(params)
    with pytest.raises(ValueError):
        hamiltonian(params, c, "second", 8)
    with pytest.raises(ValueError):
        hamiltonian(make_physical_device(phi_c_ratio=0.0, n_g=0.3), c, "second", 8)


def test_hamiltonian_rejects_tiny_truncation():
    params = make_physical_device(phi_c_ratio=0.0)
    for order in ("cosine", "first", "second"):
        with pytest.raises(DimensionError):
            hamiltonian(params, coupling_xi(params), order, 1)


def test_unknown_order_rejected():
    params = make_physical_device()
    with pytest.raises(ValueError):
        hamiltonian(params, coupling_xi(params), "third", 8)


def test_cosine_vs_first_order_difference_scale():
    params = make_physical_device(phi_c_ratio=0.0)
    dim = 32
    c = Coupling.from_xi(7e-5)
    h_cos = hamiltonian(params, c, "cosine", dim)
    h_first = hamiltonian(params, c, "first", dim)
    deviation = np.linalg.norm(h_cos.matrix - h_first.matrix, 2)
    assert deviation <= 3.0 * abs(c.xi) ** 2 * dim * params.ej_rate
    assert deviation > 0.0


def test_cosine_vs_first_order_quadratic_scaling():
    params = make_physical_device(phi_c_ratio=0.0)
    dim = 32
    xis = [1e-5, 2e-5, 4e-5]
    deviations = []
    for xi_abs in xis:
        c = Coupling.from_xi(xi_abs)
        diff = (
            hamiltonian(params, c, "cosine", dim).matrix
            - hamiltonian(params, c, "first", dim).matrix
        )
        deviations.append(np.linalg.norm(diff, 2))
    slope = np.polyfit(np.log(xis), np.log(deviations), 1)[0]
    assert abs(slope - 2.0) <= 0.2


# ---------------------------------------------------------------- flux pulse

def test_flux_pulse_is_a_quarter_turn_of_the_josephson_phase():
    params = make_strong_device()
    pulse = flux_pulse(params)
    assert params.ej_rate * pulse.duration == pytest.approx(math.pi / 4.0, rel=1e-15)
    assert pulse.angle == params.omega_cavity * pulse.duration
    # exp(-i (pi/4) sigma_x), the generator's qubit part E_J sigma_x over that duration
    sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]])
    expected = math.cos(math.pi / 4.0) * np.eye(2) - 1j * math.sin(math.pi / 4.0) * sigma_x
    assert np.abs(pulse.rotation - expected).max() <= 1e-16
    assert np.abs(pulse.rotation @ pulse.rotation.conj().T - np.eye(2)).max() <= 1e-15
