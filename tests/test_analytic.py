import cmath
import dataclasses
import decimal
import itertools
import json
import math
import re

import numpy as np
import pytest
from scipy.linalg import expm

from squidcat.analytic import (
    Branch,
    CoherentLabel,
    auto_fock_dim,
    branch_decomposition_to_dict,
    coherent_overlap,
    disentangle,
    evolve_coherent,
    evolve_vacuum,
    flux_pi_pulse,
    materialize,
    materialize_label,
    materialize_labels,
    squeezed_evolution,
    superposition_norm2,
)
from squidcat.errors import NormalizationError, TruncationError
from squidcat.hilbert import (
    QUBIT_AMPLITUDES,
    Propagator,
    coherent_fock,
    fidelity,
    joint_state,
    min_quadrature_variance,
    required_fock_dim,
)
from squidcat.model import Coupling, coupling_xi, hamiltonian

from conftest import (
    coherent_reference,
    injected_pair_overlap,
    ladder,
    make_physical_device,
    make_strong_device,
    one_time,
    policy_start,
    sectors_from_dict,
    squeeze_degrees,
    start_over_every_centre,
    yuen_reference,
)


# ---------------------------------------------------------------- disentangling

def test_disentangle_pure_rotation():
    out = disentangle(0.3 + 0.1j, 0.0, 0.4 - 0.2j, 0.0)
    assert out.f1 == 0.0 and out.f3 == 0.0 and out.f4 == 0.0
    assert out.f2 == (0.4 - 0.2j) * (0.3 + 0.1j)


def test_disentangle_half_turn_value():
    out = disentangle(math.pi, 0.0, 1j, 1.0)
    assert abs(out.f1 - 2j) <= 1e-14
    assert abs(out.f2 - 1j * math.pi) <= 1e-14


def test_disentangle_series_limit():
    out = disentangle(1e-9, 0.7, 0.5, -0.3)
    assert abs(out.f1 - (-0.3) * 1e-9) <= 1e-18
    assert abs(out.f3 - 0.7 * 1e-9) <= 1e-18
    assert abs(out.f4 - 0.7 * (-0.3) * 1e-18 / 2.0) <= 1e-27
    zero_rotation = disentangle(0.2, 0.5, 0.0, 0.4)
    assert zero_rotation.f2 == 0.0
    assert abs(zero_rotation.f4 - 0.5 * 0.4 * 0.04 / 2.0) <= 1e-16


@pytest.mark.parametrize("scale", [0.9999999e-6, 1.0000001e-6, 0.2499999, 0.2500001])
def test_disentangle_accurate_through_switchovers(scale):
    # Straddle the cancellation-prone 1e-6 magnitude and the internal series
    # switchover; every factor matches a 50-digit oracle to 1e-10 relative.
    import mpmath

    mpmath.mp.dps = 50
    theta = 1.0
    beta1, beta3 = 0.31 - 0.12j, -0.45 + 0.22j
    beta2 = scale * cmath.exp(0.4j)
    got = disentangle(theta, beta1, beta2, beta3)

    z = mpmath.mpc(beta2) * theta
    growth = (mpmath.exp(z) - 1) / mpmath.mpc(beta2)
    expected = {
        "f1": mpmath.mpc(beta3) * growth,
        "f2": z,
        "f3": mpmath.mpc(beta1) * growth,
        "f4": mpmath.mpc(beta1) * beta3 * (mpmath.exp(z) - z - 1) / (mpmath.mpc(beta2) ** 2),
    }
    for name, oracle in expected.items():
        value = getattr(got, name)
        error = abs(complex(oracle - value))
        assert error <= 1e-10 * abs(complex(oracle))


def test_disentangle_product_form_matches_matrix_exponential():
    rng = np.random.default_rng(11)
    dim = 48
    a, adag = ladder(dim)
    n_mat = adag @ a
    for _ in range(10):
        theta, b1, b2, b3 = (
            rng.uniform(0.0, 0.5) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
            for _ in range(4)
        )
        direct = expm(theta * (b1 * a + b2 * n_mat + b3 * adag))[:, 0]
        f = disentangle(theta, b1, b2, b3)
        product = cmath.exp(f.f4) * (
            expm(f.f1 * adag) @ (np.exp(f.f2 * np.arange(dim)) * expm(f.f3 * a)[:, 0])
        )
        overlap = abs(np.vdot(direct, product)) ** 2
        overlap /= float(np.vdot(direct, direct).real * np.vdot(product, product).real)
        assert overlap >= 1.0 - 1e-9


# ---------------------------------------------------------------- vacuum evolution

def test_evolve_vacuum_zero_time_is_vacuum(strong_device, strong_coupling):
    state = evolve_vacuum(strong_device, strong_coupling, 0.0)
    for branch in state.branches():
        assert branch.label.alpha == 0.0
    psi = materialize(state, 16)
    assert fidelity(psi, joint_state("g", coherent_fock(0.0, 16))) >= 1.0 - 1e-12


def test_evolve_vacuum_half_period_displacement(strong_device, strong_coupling):
    tau = math.pi / strong_device.omega_cavity
    state = evolve_vacuum(strong_device, strong_coupling, tau)
    kappa = np.conj(strong_coupling.xi) * strong_device.ej_rate / strong_device.omega_cavity
    alphas = sorted({b.label.alpha for b in state.branches()}, key=lambda z: z.real)
    assert abs(alphas[0] - (-2.0) * kappa) <= 1e-12
    assert abs(alphas[1] - 2.0 * kappa) <= 1e-12


def test_evolve_vacuum_full_period_disentangles(strong_device, strong_coupling):
    tau = 2.0 * math.pi / strong_device.omega_cavity
    state = evolve_vacuum(strong_device, strong_coupling, tau)
    assert all(abs(b.label.alpha) <= 1e-12 for b in state.branches())
    psi = materialize(state, 16)
    assert fidelity(psi, joint_state("g", coherent_fock(0.0, 16))) >= 1.0 - 1e-10


def test_evolve_vacuum_requires_preparation_setting(strong_coupling):
    with pytest.raises(ValueError):
        evolve_vacuum(make_strong_device(phi_c_ratio=0.0), strong_coupling, 1.0)
    with pytest.raises(ValueError):
        evolve_vacuum(make_strong_device(n_g=0.3), strong_coupling, 1.0)


def test_dropped_phase_record_value(strong_device, strong_coupling):
    tau = 0.7 * math.pi / strong_device.omega_cavity
    state = evolve_vacuum(strong_device, strong_coupling, tau)
    match = re.fullmatch(r"exp\(1j\*(.+)\)", branch_decomposition_to_dict(state)["dropped_global_phase"])
    assert match is not None
    kappa = np.conj(strong_coupling.xi) * strong_device.ej_rate / strong_device.omega_cavity
    omega_tau = strong_device.omega_cavity * tau
    expected = abs(kappa) ** 2 * (omega_tau - math.sin(omega_tau))
    assert float(match.group(1)) == pytest.approx(expected, rel=1e-15)


@pytest.mark.parametrize(
    "closed_form",
    [
        lambda p, c, t: evolve_vacuum(p, c, t),
        lambda p, c, t: evolve_coherent(p, c, 0.5, t),
        lambda p, c, t: squeezed_evolution(dataclasses.replace(p, phi_c_ratio=0.0), c, 0.5, t),
    ],
    ids=["vacuum", "coherent", "squeezed"],
)
def test_closed_forms_refuse_a_time_past_the_phase_bound(strong_device, strong_coupling, closed_form):
    # at omega = 1e10 rad/s the bound omega |t| < 2^52 rad is t = 4.5e5 s
    bound = 2.0**52 / strong_device.omega_cavity
    for t in (1e300, -1e300, bound * (1.0 + 1e-12), -bound * (1.0 + 1e-12)):
        with pytest.raises(ValueError, match=rf"time must keep omega \|t\| below 2\^52 rad, .*, got {re.escape(repr(t))} "):
            closed_form(strong_device, strong_coupling, t)
    for t in (bound * (1.0 - 1e-12), -bound * (1.0 - 1e-12)):
        assert closed_form(strong_device, strong_coupling, t).branches()


# ---------------------------------------------------------------- coherent injection

def test_injection_without_field_matches_vacuum_branches(strong_device, strong_coupling):
    tau = 1.3 / strong_device.omega_cavity
    vac = evolve_vacuum(strong_device, strong_coupling, tau)
    inj = evolve_coherent(strong_device, strong_coupling, 0.0, tau)
    assert len(vac.branches()) == len(inj.branches())
    for bv, bi in zip(vac.branches(), inj.branches()):
        assert bv.qubit == bi.qubit
        assert abs(bv.weight - bi.weight) <= 1e-12
        assert abs(bv.label.alpha - bi.label.alpha) <= 1e-12
        assert abs(bv.label.phase - bi.label.phase) <= 1e-12


def test_injection_full_period_returns_product_state(strong_device, strong_coupling):
    alpha_prime = 1.1 - 0.3j
    tau = 2.0 * math.pi / strong_device.omega_cavity
    state = evolve_coherent(strong_device, strong_coupling, alpha_prime, tau)
    for branch in state.branches():
        assert abs(branch.label.alpha - alpha_prime) <= 1e-10
        assert abs(branch.label.phase) <= 1e-10
    psi = materialize(state)
    assert fidelity(psi, joint_state("g", coherent_fock(alpha_prime, psi.fock_dim))) >= 1.0 - 1e-10


def test_injection_against_propagation_oracle(strong_device, strong_coupling):
    # real injected amplitude, real drive scale, quarter period
    tau = 0.5 * math.pi / strong_device.omega_cavity
    dim = 48
    analytic = materialize(evolve_coherent(strong_device, strong_coupling, 1.0, tau), dim)
    h = hamiltonian(strong_device, strong_coupling, "first", dim)
    numeric = Propagator(h)(joint_state("g", coherent_fock(1.0, dim)), tau)
    assert fidelity(analytic, numeric) >= 1.0 - 1e-8


# ---------------------------------------------------------------- overlaps

def test_coherent_overlap_basics():
    assert abs(coherent_overlap(0.8 + 0.1j, 0.8 + 0.1j) - 1.0) <= 1e-14
    alpha = 1.4 - 0.6j
    expected = math.exp(-2.0 * abs(alpha) ** 2)
    assert abs(coherent_overlap(alpha, -alpha) - expected) <= 1e-14


def test_label_overlap_matches_the_fock_sum():
    # every pair of squeezed, rotated and displaced labels, unstable-sector ones
    # (|xi| = 0.1, omega = 1.5|lam|) included, against the materialized rows
    labels = [
        CoherentLabel(alpha, squeeze=r * cmath.exp(0.7j * k), rotation=rotation)
        for k, (alpha, r, rotation) in enumerate(
            itertools.product((0.0, 1.5 - 2.0j, 3.9j), (0.0, 0.4, 1.1), (0.0, 2.5, -17.0))
        )
    ]
    labels += _sector_labels(1.5)[:4]
    rows = materialize_labels(labels, 512)[0]
    fock_sums = rows.conj() @ rows.T
    closed = np.array([[coherent_overlap(x, y) for y in labels] for x in labels])
    assert np.abs(closed - fock_sums).max() <= 1e-12


def test_injected_pair_overlap_matches_general_form():
    value = injected_pair_overlap(0.5, 1.0, math.pi / 2.0)
    rot = cmath.exp(-1j * math.pi / 2.0)
    alpha_plus = 1.0 * rot + 0.5 * (rot - 1.0)
    alpha_minus = 1.0 * rot - 0.5 * (rot - 1.0)
    assert abs(value - coherent_overlap(alpha_plus, alpha_minus)) <= 1e-12


def test_injected_pair_overlap_random_identity():
    rng = np.random.default_rng(5)
    for _ in range(25):
        kappa = rng.uniform(0.0, 1.0)
        alpha_prime = rng.uniform(-2.0, 2.0)
        omega_tau = rng.uniform(0.0, 4.0 * math.pi)
        rot = cmath.exp(-1j * omega_tau)
        general = coherent_overlap(
            alpha_prime * rot + kappa * (rot - 1.0), alpha_prime * rot - kappa * (rot - 1.0)
        )
        closed = injected_pair_overlap(kappa, alpha_prime, omega_tau)
        assert abs(closed - general) <= 1e-12 * max(1.0, abs(general))


# ---------------------------------------------------------------- cat normalization

def _cat_constant(alpha, sign):
    """1/sqrt of the Gram sum of |alpha> + sign |-alpha>, as measurement forms every constant."""
    return 1.0 / math.sqrt(superposition_norm2(((1.0, alpha), (sign, -alpha))))


def test_cat_normalization_even_at_zero():
    assert _cat_constant(0.0, 1.0) == pytest.approx(0.5, abs=1e-15)
    rows = materialize_labels([CoherentLabel(0.0), CoherentLabel(-0.0)], 64)[0]
    assert abs(_cat_constant(0.0, 1.0) * (rows[0] + rows[1])[0] - 1.0) <= 1e-12


def test_cat_normalization_fock_sum_oracle():
    for alpha, sign in ((2.0, 1.0), (1.0, -1.0)):
        plus = coherent_fock(alpha, 64).amplitudes
        minus = coherent_fock(-alpha, 64).amplitudes
        norm = np.linalg.norm(plus + sign * minus)
        assert _cat_constant(alpha, sign) == pytest.approx(1.0 / norm, rel=1e-10)


def test_cat_normalization_odd_null_state():
    # exactly zero, so measurement refuses the outcome as null
    assert superposition_norm2(((1.0, 0.0), (-1.0, -0.0))) == 0.0


def _odd_cat_norm2(radius):
    """2 - 2 e^(-2 radius^2), evaluated in 40-digit decimal arithmetic."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        r2 = decimal.Decimal(radius) ** 2
        return float(2 - 2 * (-2 * r2).exp())


_SMALL_RADII = [1e-9, 3e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3]


@pytest.mark.parametrize("radius", _SMALL_RADII)
def test_odd_cat_normalization_keeps_precision_at_small_alpha(radius):
    alpha = radius * cmath.exp(0.4j)
    exact = 1.0 / math.sqrt(_odd_cat_norm2(abs(alpha)))
    assert abs(_cat_constant(alpha, -1.0) - exact) <= 1e-14 * exact


@pytest.mark.parametrize("radius", _SMALL_RADII)
def test_superposition_norm_keeps_precision_at_small_alpha(radius):
    alpha = radius * cmath.exp(-1.1j)
    exact = _odd_cat_norm2(abs(alpha)) / 4.0
    weights = (0.5 * cmath.exp(0.3j), -0.5 * cmath.exp(0.3j))
    norm2 = superposition_norm2(zip(weights, (alpha, -alpha)))
    assert abs(norm2 - exact) <= 1e-14 * exact


def test_superposition_norm_matches_the_gram_sum():
    rng = np.random.default_rng(3)
    for _ in range(20):
        coeffs = rng.normal(size=4) + 1j * rng.normal(size=4)
        alphas = rng.normal(size=4) + 1j * rng.normal(size=4)
        gram = sum(
            (np.conj(cj) * ck * coherent_overlap(aj, ak)).real
            for cj, aj in zip(coeffs, alphas)
            for ck, ak in zip(coeffs, alphas)
        )
        assert abs(superposition_norm2(zip(coeffs, alphas)) - gram) <= 1e-13 * gram


def test_cat_parity_structure():
    plus, minus = materialize_labels([CoherentLabel(1.7), CoherentLabel(-1.7)], 64)[0]
    assert np.abs((plus + minus)[1::2]).max() < 1e-10
    assert np.abs((plus - minus)[0::2]).max() < 1e-10


# ---------------------------------------------------------------- flux pulse

def _effective_coefficients(state):
    """Map (qubit, alpha) -> weight * exp(i*phase) summed over branches."""
    out = {}
    for branch in state.branches():
        key = (branch.qubit, complex(round(branch.label.alpha.real, 9), round(branch.label.alpha.imag, 9)))
        out[key] = out.get(key, 0.0) + branch.coefficient
    return out


def test_flux_pulse_shifts_branch_phase(strong_device, strong_coupling):
    # One pulse is equivalent to shifting the branch phase phi by -pi/4 in
    # the injection decomposition, with the cavity labels freely rotated.
    tau = 0.9 * math.pi / strong_device.omega_cavity
    alpha_prime = 1.0
    before = evolve_coherent(strong_device, strong_coupling, alpha_prime, tau)
    after = flux_pi_pulse(before, strong_device)

    omega = strong_device.omega_cavity
    kappa = np.conj(strong_coupling.xi) * strong_device.ej_rate / omega
    rot_tau = cmath.exp(-1j * omega * tau)
    alpha_plus = alpha_prime * rot_tau + kappa * (rot_tau - 1.0)
    alpha_minus = alpha_prime * rot_tau - kappa * (rot_tau - 1.0)
    phi = (kappa * np.conj(alpha_prime) * (1.0 - cmath.exp(1j * omega * tau))).imag

    t_pulse = math.pi / (4.0 * strong_device.ej_rate)
    pulse_rot = cmath.exp(-1j * omega * t_pulse)
    phi_shifted = phi - math.pi / 4.0

    def key(qubit, alpha):
        return (qubit, complex(round(alpha.real, 9), round(alpha.imag, 9)))

    expected = {
        key("g", alpha_plus * pulse_rot): 0.5 * cmath.exp(1j * phi_shifted),
        key("g", alpha_minus * pulse_rot): 0.5 * cmath.exp(-1j * phi_shifted),
        key("e", alpha_plus * pulse_rot): 0.5 * cmath.exp(1j * phi_shifted),
        key("e", alpha_minus * pulse_rot): -0.5 * cmath.exp(-1j * phi_shifted),
    }
    got = _effective_coefficients(after)
    assert set(got) == set(expected)
    for k, value in expected.items():
        assert abs(got[k] - value) <= 1e-10


def test_flux_pulse_twice_swaps_charge_branches(strong_device, strong_coupling):
    tau = 0.7 * math.pi / strong_device.omega_cavity
    before = evolve_coherent(strong_device, strong_coupling, 0.8, tau)
    double = flux_pi_pulse(flux_pi_pulse(before, strong_device), strong_device)

    t_pulse = math.pi / (4.0 * strong_device.ej_rate)
    rot = cmath.exp(-2j * strong_device.omega_cavity * t_pulse)
    swapped = one_time(
        before.weights[::-1],
        [CoherentLabel(label.alpha * rot, label.phase) for label in before.sectors.take((slice(None), 0))],
    )
    assert fidelity(materialize(double, 48), materialize(swapped, 48)) >= 1.0 - 1e-12


def test_flux_pulse_against_propagation_oracle(strong_device, strong_coupling):
    import dataclasses

    tau = 0.6 * math.pi / strong_device.omega_cavity
    dim = 48
    before = evolve_coherent(strong_device, strong_coupling, 1.0, tau)
    after = flux_pi_pulse(before, strong_device)

    pulse_device = dataclasses.replace(strong_device, phi_c_ratio=1.0)
    h_pulse = hamiltonian(pulse_device, strong_coupling, "first", dim)
    t_pulse = math.pi / (4.0 * strong_device.ej_rate)
    numeric = Propagator(h_pulse)(materialize(before, dim), t_pulse)
    assert fidelity(materialize(after, dim), numeric) >= 1.0 - 1e-8


@pytest.mark.parametrize("xi", [0.02, 0.09])
def test_flux_pulse_on_squeezed_branches_against_propagation(xi):
    # at phi_c = 1 the pulse is exp(-i omega t n) (x) exp(-i E_J t sigma_x) exactly,
    # so the rotated squeezed labels match propagation phase for phase
    device = make_strong_device(phi_c_ratio=0.0)
    coupling = Coupling.from_xi(xi)
    dim = 128
    h_pulse = hamiltonian(dataclasses.replace(device, phi_c_ratio=1.0), coupling, "first", dim)
    t_pulse = math.pi / (4.0 * device.ej_rate)
    for omega_t in (0.7, 2.3):
        before = squeezed_evolution(device, coupling, 0.8 + 0.3j, omega_t / device.omega_cavity)
        after = flux_pi_pulse(before, device)
        assert all(label.squeezed for label in after.labels())
        numeric = Propagator(h_pulse)(materialize(before, dim), t_pulse)
        overlap = np.vdot(materialize(after, dim).amplitudes, numeric.amplitudes)
        assert abs(overlap - 1.0) <= 1e-12


def test_flux_pulse_input_validation(strong_device):
    # a squeezed label is accepted: only its rotation moves, by omega t_pulse
    label = CoherentLabel(0.3, 0.2, squeeze=0.1j, rotation=0.4)
    after = flux_pi_pulse(one_time([[1.0, 0.0], [0.0, 0.0]], [label, label]), strong_device)
    angle = strong_device.omega_cavity * math.pi / (4.0 * strong_device.ej_rate)
    assert {branch.label for branch in after.branches()} == {dataclasses.replace(label, rotation=0.4 + angle)}


@pytest.mark.parametrize("qubit", ["+", "-", "x"])
def test_branch_is_a_charge_state(qubit):
    with pytest.raises(ValueError, match="qubit must be 'g' or 'e'"):
        Branch(qubit, 1.0, CoherentLabel(0.3))


# ---------------------------------------------------------------- squeezed evolution

def test_squeezed_evolution_zero_time(physical_device):
    params = make_physical_device(phi_c_ratio=0.0)
    c = coupling_xi(params)
    state = squeezed_evolution(params, c, 0.5, 0.0)
    for branch in state.branches():
        assert branch.label.squeeze == 0.0
        assert branch.label.phase == 0.0
    psi = materialize(state, 24)
    assert fidelity(psi, joint_state("g", coherent_fock(0.5, 24))) >= 1.0 - 1e-12


def test_squeeze_degree_invariant(physical_device):
    params = make_physical_device(phi_c_ratio=0.0)
    c = coupling_xi(params)
    # 1.25 periods: sin(w t) is near 1, so the degree is well conditioned
    t = 2.5 * math.pi / params.omega_cavity
    state = squeezed_evolution(params, c, 0.0, t)
    for label, degree in zip(state.labels(), squeeze_degrees(params, c, t)):
        assert abs(label.squeeze) == pytest.approx(degree, rel=1e-12)


def test_squeezed_label_variance_law():
    for r in (0.1, 0.4):
        label = CoherentLabel(0.0, squeeze=r * cmath.exp(0.3j), rotation=1.1)
        state = materialize_label(label, 96)
        assert min_quadrature_variance(state) == pytest.approx(0.5 * math.exp(-2.0 * r), abs=1e-6)


@pytest.mark.parametrize(
    "gamma,squeeze,rotation",
    [
        (1.2 - 0.7j, 0.4 * cmath.exp(0.9j), 2.3),
        (3.0j, 0.05 * cmath.exp(-2.0j), 41.0),
        (0.0, 0.8 * cmath.exp(0.3j), -0.6),
        (-2.5, 0.0, 7.0),
    ],
)
def test_squeezed_label_matches_dense_expm(gamma, squeeze, rotation):
    # exp(-i rotation n) S(squeeze)|gamma> by dense exponentials at twice the truncation
    dim = 96
    a, adag = ladder(2 * dim)
    generator = (squeeze * adag @ adag - np.conj(squeeze) * a @ a) / 2.0
    dense = expm(generator) @ coherent_fock(gamma, 2 * dim).amplitudes
    dense *= np.exp(-1j * rotation * np.arange(2 * dim))
    state = materialize_label(CoherentLabel(gamma, squeeze=squeeze, rotation=rotation), dim)
    assert state.leakage <= 1e-13
    assert np.abs(state.amplitudes - dense[:dim]).max() <= 1e-12


def test_squeezed_label_far_displaced():
    # c_0 = e^(-800) underflows a double: the recurrence must carry its scale
    dim = 2000
    state = materialize_label(CoherentLabel(40.0, rotation=0.3), dim)
    reference = coherent_fock(40.0 * cmath.exp(-0.3j), dim)
    assert state.leakage <= 1e-12
    assert np.abs(state.amplitudes - reference.amplitudes).max() <= 1e-12


def test_squeezed_label_too_small_for_its_displacement_raises():
    with pytest.raises(TruncationError):
        materialize_label(CoherentLabel(4.0, squeeze=0.1), 8)


def _sector_labels(omega_over_lam):
    """Squeezed labels of both sectors at four times: omega = 2|lam| makes the
    + sector critical, 1.5|lam| unstable and 50|lam| keeps both stable."""
    c = Coupling.from_xi(0.1)
    device = make_strong_device(phi_c_ratio=0.0)
    lam = abs(c.xi) ** 2 * device.ej_rate
    params = dataclasses.replace(device, omega=omega_over_lam * lam)
    with np.errstate(all="ignore"):
        decompositions = [
            squeezed_evolution(params, c, 0.8 + 0.3j, t) for t in np.linspace(0.0, 1.0 / lam, 5)[1:]
        ]
    return [label for d in decompositions for label in d.labels()]


def _check_rows(labels, dim):
    rows, leakages = materialize_labels(labels, dim)
    assert rows.shape == (len(labels), dim) and leakages.shape == (len(labels),)
    for label, row, leakage in zip(labels, rows, leakages):
        if label.squeeze == 0 and label.rotation == 0:
            # bit for bit the state built alone, so outputs built from it do not move
            assert np.array_equal(row, coherent_reference(label.alpha, dim))
            assert leakage == coherent_fock(label.alpha, dim).leakage
        else:
            reference, reference_leakage = yuen_reference(label, dim)
            assert np.abs(row - reference).max() <= 1e-12
            assert abs(leakage - reference_leakage) <= 1e-12


def test_materialize_labels_matches_the_per_label_references():
    # mixed kinds, alpha = 0, and the stable, critical and unstable sectors
    labels = [CoherentLabel(0.0), CoherentLabel(1.5 - 0.5j), CoherentLabel(0.0, rotation=0.5)]
    for omega_over_lam in (50.0, 2.0, 1.5):
        labels += _sector_labels(omega_over_lam)
    labels += [CoherentLabel(3.0j), CoherentLabel(-2.5, rotation=7.0)]
    # enough plain rows that a norm summed in another order than np.linalg.norm's shows
    radii, angles = np.linspace(0.1, 6.0, 12), np.linspace(-3.0, 3.0, 12)
    labels += [CoherentLabel(r * cmath.exp(1j * a)) for r, a in zip(radii, angles)]
    _check_rows(labels, 256)


def test_materialize_labels_rescales_each_label_on_its_own():
    # |gamma| = 19 at 512 levels: c_0 = e^-180 sits 2^260 below the peak, so that
    # row is carried rescaled, beside rows that need no rescaling
    far = CoherentLabel(19.0 * cmath.exp(0.4j), squeeze=0.2 * cmath.exp(1.1j), rotation=0.7)
    labels = [CoherentLabel(0.5, squeeze=0.3, rotation=0.1), far, CoherentLabel(2.0)]
    labels.append(CoherentLabel(1j, squeeze=0.05, rotation=-1.0))
    _check_rows(labels, 512)
    assert np.array_equal(materialize_label(far, 512).amplitudes, materialize_labels([far], 512)[0][0])


@pytest.mark.parametrize(
    "far",
    [
        CoherentLabel(9.0, squeeze=0.2, rotation=0.3),
        CoherentLabel(9.0j),
        CoherentLabel(7.0, squeeze=0.1),
        CoherentLabel(-7.0),
    ],
)
def test_materialize_labels_raises_what_the_far_label_alone_raises(far):
    # |centre|^2 = 81 reaches 64 levels; 49 leaves a tail of about 1e-2 past them
    with pytest.raises(TruncationError) as alone:
        materialize_label(far, 64)
    with pytest.raises(TruncationError) as batch:
        materialize_labels([CoherentLabel(1.0), CoherentLabel(0.5, squeeze=0.1), far, CoherentLabel(2.0)], 64)
    assert str(batch.value) == str(alone.value)
    assert batch.value.required_dim == alone.value.required_dim is not None


@pytest.mark.parametrize("omega_over_lam", [2.0, 1.5, 50.0])
def test_squeezed_evolution_exact_in_critical_and_unstable_sectors(omega_over_lam):
    # omega = 2|lam| makes the sigma_x = +1 sector critical (Omega = |lam|,
    # w = 0 exactly); omega = 1.5|lam| makes it unstable (|lam| > Omega);
    # omega = 50|lam| keeps both stable, and t = 1/|lam| is then 8 periods
    c = Coupling.from_xi(0.1)
    device = make_strong_device(phi_c_ratio=0.0)
    lam = abs(c.xi) ** 2 * device.ej_rate
    params = dataclasses.replace(device, omega=omega_over_lam * lam)
    dim = 256
    evolve = Propagator(hamiltonian(params, c, "second", dim))
    psi0 = joint_state("g", coherent_fock(0.8 + 0.3j, dim))
    for t in np.linspace(0.0, 1.0 / lam, 5)[1:]:
        analytic = materialize(squeezed_evolution(params, c, 0.8 + 0.3j, t), dim)
        # phase-sensitive: the branch phases carry the whole phase of exp(-i H t)
        overlap = np.vdot(analytic.amplitudes, evolve(psi0, t).amplitudes)
        assert abs(overlap - 1.0) <= 1e-10


def test_squeezed_evolution_against_propagation_oracle():
    params = make_physical_device(phi_c_ratio=0.0)
    c = coupling_xi(params)
    dim = 48
    h = hamiltonian(params, c, "second", dim)
    for omega_t in (0.8 * math.pi, 2.7 * math.pi):
        t = omega_t / params.omega_cavity
        analytic = materialize(squeezed_evolution(params, c, 1.0, t), dim)
        numeric = Propagator(h)(joint_state("g", coherent_fock(1.0, dim)), t)
        assert fidelity(analytic, numeric) >= 1.0 - 1e-8


def test_squeezed_evolution_preconditions():
    c = Coupling.from_xi(1e-4)
    with pytest.raises(ValueError):
        squeezed_evolution(make_physical_device(phi_c_ratio=0.5), c, 0.0, 1.0)
    with pytest.raises(ValueError):
        squeezed_evolution(make_physical_device(phi_c_ratio=0.0, n_g=0.4), c, 0.0, 1.0)


# ---------------------------------------------------------------- truncation policy

@pytest.mark.parametrize("r,expected", [(0.5, 64), (1.0, 128), (1.5, 256)])
def test_auto_fock_dim_doubles_for_squeezed_vacuum(r, expected):
    label = CoherentLabel(0.0, squeeze=r)
    assert auto_fock_dim([label])[0] == expected


def test_auto_fock_dim_raises_at_the_cap():
    label = CoherentLabel(0.0, squeeze=2.0)
    with pytest.raises(TruncationError, match="maximum truncation 512"):
        auto_fock_dim([label])


@pytest.mark.parametrize(
    "alpha,required",
    [(19.4, required_fock_dim(19.4, 1e-12)), (30.0, None), (1e200, None)],
)
def test_auto_fock_dim_start_past_the_cap_raises_before_any_state(monkeypatch, alpha, required):
    from squidcat import analytic

    def never(*args):
        raise AssertionError("a label state was built")

    monkeypatch.setattr(analytic, "materialize_labels", never)
    for label in (CoherentLabel(alpha), CoherentLabel(alpha, squeeze=0.1)):
        with pytest.raises(TruncationError, match="maximum truncation 512") as info:
            auto_fock_dim([CoherentLabel(1.0), label])
        assert info.value.required_dim == required
    with pytest.raises(TruncationError, match="start truncation 513") as info:
        auto_fock_dim([CoherentLabel(1.0)], start=513)
    assert info.value.required_dim is None


@pytest.mark.parametrize(
    "alpha", [complex(math.nan, 0.0), complex(1.0, math.inf), complex(math.nan, math.nan)]
)
def test_auto_fock_dim_names_a_non_finite_label(monkeypatch, alpha):
    from squidcat import analytic

    def never(*args):
        raise AssertionError("a label state was built")

    monkeypatch.setattr(analytic, "materialize_labels", never)
    with pytest.raises(TruncationError, match="is not finite") as info:
        auto_fock_dim([CoherentLabel(1.0), CoherentLabel(alpha)])
    assert repr(alpha) in str(info.value) and info.value.required_dim is None


def test_auto_fock_dim_explicit_start_is_not_raised():
    assert auto_fock_dim([CoherentLabel(1.0)], start=32)[0] == 32
    with pytest.raises(TruncationError):
        auto_fock_dim([CoherentLabel(4.0)], start=8)


def test_auto_fock_dim_counts_every_level_below_four():
    # a 3-level state has all its levels in the top four, so start=3 must double
    assert auto_fock_dim([CoherentLabel(0.0)], start=3)[0] == 6
    assert auto_fock_dim([CoherentLabel(1e-3), CoherentLabel(0.0, rotation=0.5)], start=3)[0] == 6


def _policy_calls(labels, start=None, edge_state=None, zero_state=None):
    """Run the policy with a hook that records each (dim, edge) it is called with and
    returns ``edge_state(dim, edge)`` above level 0, ``zero_state(dim)`` at it; by
    default both are the joint state g (x) |alpha> of the first label's alpha."""

    def coherent(dim, edge=0):
        return joint_state("g", coherent_fock(labels[0].alpha, dim)).amplitudes[:, None]

    edge_state, zero_state = edge_state or coherent, zero_state or coherent
    calls = []

    def propagated(dim, edge):
        calls.append((dim, edge))
        return edge_state(dim, edge) if edge else zero_state(dim)

    return auto_fock_dim(labels, start, propagated=propagated)[0], calls


def _reference_edge(labels, dim):
    """The highest level below which every label's own Fock row holds less than 1e-12, minus 4."""
    below = [np.cumsum(np.abs(coherent_reference(label.alpha, dim)) ** 2) for label in labels]
    return max(0, int(np.count_nonzero(np.max(below, axis=0) < 1e-12)) - 4)


def test_auto_fock_dim_passes_the_edge_of_its_label_rows():
    labels = [CoherentLabel(10.0), CoherentLabel(12.0j), CoherentLabel(11.0 - 3.0j)]
    dim, calls = _policy_calls(labels)
    ((_, edge),) = calls
    rows = [coherent_reference(label.alpha, dim) for label in labels]
    assert max(np.sum(np.abs(row[: edge + 4]) ** 2) for row in rows) < 1e-12
    # the policy's bound on the rows' sums gives the row-by-row edge here
    assert edge == _reference_edge(labels, dim) > 0
    # a label that reaches level 0, coherent or squeezed, puts the edge there
    for near in (CoherentLabel(1.0), CoherentLabel(0.0, squeeze=0.3)):
        assert _policy_calls(labels + [near])[1] == [(dim, 0)]


def _with_weight_at(level, weight):
    """A state hook whose g (x) |10> column moves ``weight`` of its population to ``level``."""

    def state(dim, edge):
        column = joint_state("g", coherent_fock(10.0, dim)).amplitudes.copy()
        column *= math.sqrt(1.0 - weight)
        column[level(dim, edge)] += math.sqrt(weight)
        return column[:, None]

    return state


def test_auto_fock_dim_retries_from_level_0_when_the_edge_is_populated():
    labels = [CoherentLabel(10.0)]
    dim, calls = _policy_calls(labels, edge_state=_with_weight_at(lambda d, edge: edge + 3, 2e-10))
    edge = calls[0][1]
    assert edge > 0 and calls == [(dim, edge), (dim, 0)]
    # at 1e-11, well inside TRUNCATION_TOL, the window stands
    assert _policy_calls(labels, edge_state=_with_weight_at(lambda d, edge: edge, 1e-11))[1] == [(dim, edge)]


def test_auto_fock_dim_retries_before_it_doubles():
    # a populated edge, then a populated top at level 0: the doubled truncation gets its own edge
    labels = [CoherentLabel(10.0)]
    populated, plain = _with_weight_at(lambda d, edge: edge, 1e-6), _with_weight_at(lambda d, edge: 0, 0.0)
    top = _with_weight_at(lambda d, edge: d - 1, 1e-6)
    first = policy_start(labels)
    dim, calls = _policy_calls(
        labels,
        edge_state=lambda d, edge: (populated if d == first else plain)(d, edge),
        zero_state=lambda d: top(d, 0),
    )
    assert [(d, edge > 0) for d, edge in calls] == [(first, True), (first, False), (2 * first, True)]
    assert dim == 2 * first


def test_auto_fock_dim_explicit_start_keeps_its_truncation_with_a_window():
    labels = [CoherentLabel(10.0), CoherentLabel(9.0 + 4.0j)]
    dim, calls = _policy_calls(labels, start=300)
    assert dim == 300 and calls == [(300, _reference_edge(labels, 300))] and calls[0][1] > 0


def test_auto_fock_dim_start_is_the_max_over_every_centre():
    rng = np.random.default_rng(5)
    for _ in range(30):
        radii = np.exp(rng.uniform(math.log(1e-3), math.log(15.0), size=rng.integers(1, 12)))
        centres = radii * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size=radii.size))
        labels = [CoherentLabel(complex(c)) for c in centres]
        labels += [CoherentLabel(complex(c), squeeze=0.05, rotation=0.3) for c in centres[::3]]
        labels.append(CoherentLabel(0.0))
        rng.shuffle(labels)
        assert policy_start(labels) == start_over_every_centre(labels)


# ---------------------------------------------------------------- materialization and serialization

def test_materialize_rejects_inconsistent_weights():
    label = CoherentLabel(0.3)
    bad = one_time([[1.0, 0.0], [1.0, 0.0]], [label, label])
    with pytest.raises(NormalizationError):
        materialize(bad, 16)


def test_materialize_rejects_label_states_of_other_labels():
    plus, minus = CoherentLabel(0.4), CoherentLabel(-0.4)
    state = one_time([[0.5, 0.5], [0.5, -0.5]], [plus, minus])
    rows, leakages = materialize_labels(state.labels() + [CoherentLabel(0.1)], 16)
    with pytest.raises(ValueError, match="do not fit 2 labels on 16 levels"):
        materialize(state, 16, (rows, leakages))
    with pytest.raises(ValueError, match="do not fit 2 labels on 16 levels"):
        materialize(state, 16, materialize_labels(state.labels(), 17))


def _branch_loop(state, rows, leakages):
    """A one-time form's joint vector and tail, one branch at a time, as a reference;
    ``rows`` are those of its ``distinct_labels``."""
    index = dict(zip(state.sectors.take((slice(None), 0)), state.distinct_labels[1][:, 0].tolist()))
    blocks = np.zeros((2, rows.shape[1]), dtype=complex)
    tail = 0.0
    for branch in state.branches():
        k = index[branch.label]
        tail += abs(branch.weight) ** 2 * float(leakages[k])
        for block, amplitude in zip(blocks, QUBIT_AMPLITUDES[branch.qubit]):
            if amplitude:
                block += (branch.coefficient * amplitude) * rows[k]
    return blocks.ravel(), tail


def test_materialize_is_the_branch_by_branch_state(strong_device, strong_coupling):
    # complex g/e weights from the pulse and by hand, both sectors in both blocks:
    # each state is the branch-by-branch sum, normalized, with its tail as leakage, to rounding
    taus = np.linspace(0.0, 2.0, 5) / strong_device.omega_cavity
    states = [
        flux_pi_pulse(evolve_coherent(strong_device, strong_coupling, 1.0 + 0.5j, t), strong_device)
        for t in taus
    ]
    plus, minus = CoherentLabel(0.4 + 0.1j, 0.3), CoherentLabel(-0.4 - 0.1j, -0.3)
    # (|g> + |e>)/sqrt(2) times 0.6 + 0.2j on plus, and (|g> - |e>)/sqrt(2) times 0.6 - 0.5j
    # plus (|g> + |e>)/sqrt(2) times -0.1 on minus
    half = QUBIT_AMPLITUDES["+"][0]
    weights = half * np.array([[0.6 + 0.2j, 0.5 - 0.5j], [0.6 + 0.2j, -0.7 + 0.5j]])
    rows, label_leakages = materialize_labels([plus, minus], 48)
    vec, _ = _branch_loop(one_time(weights, [plus, minus]), rows, label_leakages)
    states.append(one_time(weights / np.linalg.norm(vec), [plus, minus]))
    for state in states:
        label_states = materialize_labels(state.distinct_labels[0], 48)
        vec, tail = _branch_loop(state, *label_states)
        n2 = float(np.real(np.vdot(vec, vec)))
        for psi in (materialize(state, 48), materialize(state, 48, label_states)):
            assert psi.amplitudes.shape == (96,)
            assert np.abs(psi.amplitudes - vec / math.sqrt(n2)).max() <= 4.5e-16
            assert abs(psi.leakage - (tail + abs(1.0 - n2))) <= 4.5e-16


def test_materialize_rejects_nan_weights():
    label = CoherentLabel(0.3)
    bad = one_time([[math.nan, 0.0], [0.0, 0.5]], [label, label])
    with pytest.raises(NormalizationError, match="norm\\^2 = nan"):
        materialize(bad, 16)


def test_materialize_norm_invariant(strong_device, strong_coupling):
    tau = 0.4 * math.pi / strong_device.omega_cavity
    state = evolve_coherent(strong_device, strong_coupling, 1.5, tau)
    psi = materialize(state)
    assert psi.leakage <= 1e-10
    assert abs(np.linalg.norm(psi.amplitudes) - 1.0) <= 1e-12


def test_branch_decomposition_dict_round_trip(strong_device, strong_coupling):
    tau = 1.1 / strong_device.omega_cavity
    for state in (
        evolve_coherent(strong_device, strong_coupling, 0.7 + 0.2j, tau),
        squeezed_evolution(
            make_physical_device(phi_c_ratio=0.0),
            coupling_xi(make_physical_device(phi_c_ratio=0.0)),
            1.0,
            tau,
        ),
    ):
        data = branch_decomposition_to_dict(state)
        rebuilt = sectors_from_dict(data)
        assert rebuilt.branches() == state.branches() and branch_decomposition_to_dict(rebuilt) == data


def test_post_pulse_squeezed_decomposition_json_round_trip(strong_device):
    device = make_strong_device(phi_c_ratio=0.0)
    coupling = Coupling.from_xi(0.02)
    state = flux_pi_pulse(squeezed_evolution(device, coupling, 0.8 + 0.3j, 1.1 / device.omega_cavity), device)
    data = json.loads(json.dumps(branch_decomposition_to_dict(state)))
    assert {branch["label"]["kind"] for branch in data["branches"]} == {"squeezed"}
    rebuilt = sectors_from_dict(data)
    assert rebuilt.branches() == state.branches() and branch_decomposition_to_dict(rebuilt) == data
    # at t = 0 the labels are unsqueezed and unrotated, so they are written as coherent
    start = branch_decomposition_to_dict(squeezed_evolution(device, coupling, 0.8 + 0.3j, 0.0))
    assert {branch["label"]["kind"] for branch in start["branches"]} == {"coherent"}
