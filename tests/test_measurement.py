import cmath
import math

import numpy as np
import pytest

from squidcat.analytic import (
    Branch,
    BranchDecomposition,
    CoherentLabel,
    cat_state,
    coherent_overlap,
    complex_rabi,
    evolve_vacuum,
    flux_pi_pulse,
    materialize,
    materialize_label,
    squeezed_evolution,
)
from squidcat.errors import NullOutcomeError
from squidcat.hilbert import JointState, coherent_fock, fidelity, joint_state
from squidcat.measurement import (
    measure_qubit,
    measurement_record_to_dict,
    parity_spectrum,
)
from squidcat.model import Coupling

from conftest import make_strong_device


def _cat_run(strong_device, strong_coupling, omega_tau=math.pi):
    tau = omega_tau / strong_device.omega_cavity
    state = evolve_vacuum(strong_device, strong_coupling, tau)
    alpha = next(iter(state.branches)).label.alpha
    return state, alpha


# ---------------------------------------------------------------- probabilities

def test_ground_outcome_probability_closed_form(strong_device, strong_coupling):
    state, alpha = _cat_run(strong_device, strong_coupling)
    record = measure_qubit(state, "g")
    expected = (1.0 + math.exp(-2.0 * abs(alpha) ** 2)) / 2.0
    assert abs(record.probability - expected) <= 1e-10


def test_completeness_and_post_states(strong_device, strong_coupling):
    state, alpha = _cat_run(strong_device, strong_coupling)
    rec_g = measure_qubit(state, "g")
    rec_e = measure_qubit(state, "e")
    assert abs(rec_g.probability + rec_e.probability - 1.0) <= 1e-12

    dim = rec_g.post_state.fock_dim
    even = cat_state(alpha, "even", dim)
    odd = cat_state(alpha, "odd", dim)
    assert fidelity(rec_g.post_state, even) >= 1.0 - 1e-10
    assert fidelity(rec_e.post_state, odd) >= 1.0 - 1e-10


def test_measure_decomposition_reuses_a_given_joint_state(strong_device, strong_coupling, monkeypatch):
    from squidcat import measurement

    state, _ = _cat_run(strong_device, strong_coupling)
    expected = [measure_qubit(state, outcome) for outcome in ("g", "e")]
    joint = materialize(state)

    def fail(*args, **kwargs):
        raise AssertionError("the decomposition was materialized again")

    monkeypatch.setattr(measurement, "materialize", fail)
    for outcome, record in zip(("g", "e"), expected):
        reused = measure_qubit(state, outcome, joint=joint)
        assert reused.probability == record.probability
        assert np.array_equal(reused.post_state.amplitudes, record.post_state.amplitudes)
        assert reused.analytic_post == record.analytic_post


def test_zero_time_measurement(strong_device, strong_coupling):
    state, _ = _cat_run(strong_device, strong_coupling, omega_tau=0.0)
    record = measure_qubit(state, "g")
    assert record.probability == pytest.approx(1.0, abs=1e-12)
    assert fidelity(record.post_state, coherent_fock(0.0, record.post_state.fock_dim)) >= 1.0 - 1e-12
    with pytest.raises(NullOutcomeError):
        measure_qubit(state, "e")


def test_single_coherent_per_outcome_state():
    # Decomposition with one coherent state per charge outcome: each outcome
    # has probability 1/2 and post-selects a pure coherent state.
    phi = 0.37
    alpha_plus, alpha_minus = 1.2 + 0.4j, -0.9 + 0.1j
    w = 1.0 / math.sqrt(2.0)
    state = BranchDecomposition(
        (
            Branch("g", w, CoherentLabel(alpha_minus, -phi)),
            Branch("e", w, CoherentLabel(alpha_plus, phi)),
        )
    )
    rec_g = measure_qubit(state, "g")
    rec_e = measure_qubit(state, "e")
    assert rec_g.probability == pytest.approx(0.5, abs=1e-12)
    assert rec_e.probability == pytest.approx(0.5, abs=1e-12)
    dim = rec_g.post_state.fock_dim
    assert fidelity(rec_g.post_state, coherent_fock(alpha_minus, dim)) >= 1.0 - 1e-10
    assert fidelity(rec_e.post_state, coherent_fock(alpha_plus, dim)) >= 1.0 - 1e-10


def test_sigma_x_branches_collapse_with_their_charge_amplitudes():
    # |+>|a> + |->|b> over sqrt(2): g keeps (|a> + |b>)/2, e keeps (|a> - |b>)/2.
    a, b = CoherentLabel(1.5), CoherentLabel(-1.5)
    w = 1.0 / math.sqrt(2.0)
    state = BranchDecomposition((Branch("+", w, a), Branch("-", w, b)))
    for outcome, sign in (("g", 1.0), ("e", -1.0)):
        record = measure_qubit(state, outcome)
        terms = [(t.qubit, t.weight, t.label) for t in record.analytic_post.branches]
        assert terms == [(outcome, w * w, a), (outcome, sign * w * w, b)]
        assert record.probability == pytest.approx(
            0.25 * (2.0 + 2.0 * sign * coherent_overlap(a, b).real), rel=1e-12
        )


def test_joint_state_measurement_blocks():
    cavity = coherent_fock(0.8, 24)
    qubit = np.array([math.sqrt(0.3), -1j * math.sqrt(0.7)])
    psi = JointState(np.outer(qubit, cavity.amplitudes).ravel())
    rec_g = measure_qubit(psi, "g")
    rec_e = measure_qubit(psi, "e")
    assert rec_g.probability == pytest.approx(0.3, abs=1e-12)
    assert rec_e.probability == pytest.approx(0.7, abs=1e-12)
    assert fidelity(rec_g.post_state, cavity) >= 1.0 - 1e-12


def test_post_selection_idempotence(strong_device, strong_coupling):
    state, _ = _cat_run(strong_device, strong_coupling)
    for outcome in ("g", "e"):
        record = measure_qubit(state, outcome)
        retensored = joint_state(outcome, record.post_state)
        again = measure_qubit(retensored, outcome)
        assert again.probability == pytest.approx(1.0, abs=1e-12)


def test_measure_rejects_bad_outcome(strong_device, strong_coupling):
    state, _ = _cat_run(strong_device, strong_coupling)
    with pytest.raises(ValueError):
        measure_qubit(state, "x")


# ---------------------------------------------------------------- analytic post form

def test_analytic_post_normalization(strong_device, strong_coupling):
    state, alpha = _cat_run(strong_device, strong_coupling, omega_tau=0.8 * math.pi)
    record = measure_qubit(state, "g")
    post = record.analytic_post
    assert post is not None

    # the recorded constant inverts the Gram norm of the label combination
    gram = 0.0
    for bj in post.branches:
        for bk in post.branches:
            gram += (
                np.conj(bj.coefficient) * bk.coefficient * coherent_overlap(bj.label, bk.label)
            ).real
    assert post.constant == pytest.approx(1.0 / math.sqrt(gram), rel=1e-12)

    # materializing the combination reproduces the numeric post state
    dim = record.post_state.fock_dim
    vec = np.zeros(dim, dtype=complex)
    for branch in post.branches:
        vec += branch.coefficient * materialize_label(branch.label, dim).amplitudes
    vec *= post.constant
    overlap = abs(np.vdot(vec, record.post_state.amplitudes)) ** 2
    assert overlap >= 1.0 - 1e-10


def test_analytic_post_odd_constant_at_a_small_cat():
    # the --print-example cat's displacement: the Gram sum of the e outcome
    # must not cancel to 2 - 2 e^(-2|alpha|^2) in floating point
    alpha = 1.34e-5 * cmath.exp(0.7j)
    branches = [
        Branch(qubit, weight, CoherentLabel(sign * alpha))
        for qubit, weight, sign in (("g", 0.5, 1), ("g", 0.5, -1), ("e", 0.5, 1), ("e", -0.5, -1))
    ]
    record = measure_qubit(BranchDecomposition(branches), "e")
    exact = 1.0 / math.sqrt(-math.expm1(-2.0 * abs(alpha) ** 2) / 2.0)
    assert abs(record.analytic_post.constant - exact) <= 1e-14 * exact


@pytest.mark.filterwarnings("ignore:expansion margin")
@pytest.mark.parametrize("xi", [0.02, 0.09])
def test_analytic_post_constant_of_squeezed_branches(xi):
    # the Gram constant against the numeric probability of a state materialized
    # well past its tail, before and after the flux pulse
    device = make_strong_device(phi_c_ratio=0.0)
    coupling = Coupling.from_xi(xi)
    for omega_t in (0.7, 2.3):
        before = squeezed_evolution(device, coupling, 0.8 + 0.3j, omega_t / device.omega_cavity)
        for state in (before, flux_pi_pulse(before, device)):
            joint = materialize(state, 256)
            for outcome in ("g", "e"):
                record = measure_qubit(state, outcome, joint=joint)
                assert record.analytic_post.constant**-2 == pytest.approx(record.probability, rel=1e-12)


def test_analytic_post_matches_even_cat_constant(strong_device, strong_coupling):
    state, alpha = _cat_run(strong_device, strong_coupling)
    record = measure_qubit(state, "g")
    # weights are 1/2 each, so constant = 2/sqrt(2 + 2 e^(-2|alpha|^2))
    expected = 2.0 / math.sqrt(2.0 + 2.0 * math.exp(-2.0 * abs(alpha) ** 2))
    assert record.analytic_post.constant == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------- parity

def test_parity_spectrum_vacuum():
    assert parity_spectrum(coherent_fock(0.0, 16)) == (1.0, 0.0)


def test_parity_spectrum_even_cat():
    even, odd = parity_spectrum(cat_state(1.3, "even"))
    assert even >= 1.0 - 1e-10
    assert abs(even + odd - 1.0) <= 1e-12


@pytest.mark.parametrize("alpha", [1.0, math.sqrt(2.0), 2.0])
def test_parity_spectrum_coherent_closed_form(alpha):
    # Poisson parity sums: even/odd weights are e^(-mu) cosh(mu), e^(-mu) sinh(mu)
    # with mu = |alpha|^2.
    state = coherent_fock(alpha, 64)
    even, odd = parity_spectrum(state)
    mu = alpha**2
    assert even == pytest.approx(math.exp(-mu) * math.cosh(mu), abs=1e-12)
    assert odd == pytest.approx(math.exp(-mu) * math.sinh(mu), abs=1e-12)
    assert abs(even + odd - 1.0) <= 1e-12


def test_cat_parity_from_measurement(strong_device, strong_coupling):
    state, _ = _cat_run(strong_device, strong_coupling, omega_tau=1.1)
    even_weight, _ = parity_spectrum(measure_qubit(state, "g").post_state)
    _, odd_weight = parity_spectrum(measure_qubit(state, "e").post_state)
    assert even_weight >= 1.0 - 1e-10
    assert odd_weight >= 1.0 - 1e-10


# ---------------------------------------------------------------- serialization

def test_measurement_record_serialization(strong_device, strong_coupling):
    state, _ = _cat_run(strong_device, strong_coupling)
    data = measurement_record_to_dict(measure_qubit(state, "g"))
    assert data["outcome"] == "g"
    assert 0.0 < data["probability"] <= 1.0
    amplitudes = data["post_state"]["fock_amplitudes"]
    total = sum(re**2 + im**2 for re, im in amplitudes)
    assert abs(total - 1.0) <= 1e-10
    assert data["analytic_post"]["constant"] > 0.0
    assert all("label" in term for term in data["analytic_post"]["terms"])
