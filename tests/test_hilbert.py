import math

import numpy as np
import pytest
from scipy.special import gammainc, gammaln

from squidcat.analytic import cat_state, evolve_vacuum, materialize
from squidcat.errors import DimensionError, HermiticityError, TruncationError
from squidcat.hilbert import (
    CavityState,
    FockOperator,
    JointState,
    coherent_fock,
    fidelity,
    joint_state,
    make_ladder_ops,
    min_quadrature_variance,
    number_op,
    propagate,
    quadrature_covariance,
    required_fock_dim,
    top_level_weight,
    wigner,
)
from squidcat.model import coupling_xi, hamiltonian

from conftest import cat_wigner, coherent_wigner, make_strong_device


# ---------------------------------------------------------------- ladder ops

def test_ladder_smallest_truncation():
    a, adag = make_ladder_ops(2)
    expected = np.zeros((2, 2))
    expected[0, 1] = 1.0
    assert np.array_equal(a.matrix, expected)
    assert np.array_equal(adag.matrix, expected.T)


def test_number_operator_diagonal():
    a, adag = make_ladder_ops(4)
    n = adag.matrix @ a.matrix
    assert np.allclose(n, np.diag([0.0, 1.0, 2.0, 3.0]))
    assert np.allclose(number_op(4).matrix, n)


def test_commutator_truncation_artifact():
    a, adag = make_ladder_ops(16)
    comm = a.matrix @ adag.matrix - adag.matrix @ a.matrix
    expected = np.eye(16, dtype=complex)
    expected[15, 15] = -15.0
    assert np.allclose(comm, expected, atol=1e-14)


def test_ladder_rejects_tiny_dimension():
    with pytest.raises(DimensionError):
        make_ladder_ops(1)


# ---------------------------------------------------------------- operators and states

def test_hamiltonian_tag_requires_hermitian():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(HermiticityError):
        FockOperator(bad, hamiltonian=True)
    FockOperator(bad)  # untagged is fine


def test_states_require_normalization():
    with pytest.raises(ValueError):
        CavityState(np.array([1.0, 1.0], dtype=complex))
    with pytest.raises(DimensionError):
        JointState(np.array([1.0, 0.0, 0.0], dtype=complex))


def test_state_arrays_are_readonly():
    state = coherent_fock(0.5, 16)
    with pytest.raises(ValueError):
        state.amplitudes[0] = 0.0


def test_joint_state_leakage_flag():
    healthy = joint_state("g", coherent_fock(0.5, 16))
    assert healthy.is_valid()
    amp = np.zeros(8, dtype=complex)
    amp[0] = 1.0
    leaky = JointState(amp, leakage=1e-6)
    assert not leaky.is_valid()
    assert leaky.is_valid(leakage_threshold=1e-3)


# ---------------------------------------------------------------- coherent states

def test_coherent_zero_is_vacuum():
    v = coherent_fock(0.0, 8)
    assert v.amplitudes[0] == 1.0
    assert np.all(v.amplitudes[1:] == 0.0)
    assert v.leakage == 0.0


def test_coherent_mean_photon_number():
    state = coherent_fock(1.0, 32)
    n = np.arange(32)
    mean_n = float(np.sum(n * np.abs(state.amplitudes) ** 2))
    assert abs(mean_n - 1.0) <= 1e-10


def test_coherent_opposite_overlap_closed_form():
    x = coherent_fock(2.0, 48)
    y = coherent_fock(-2.0, 48)
    overlap = complex(np.vdot(x.amplitudes, y.amplitudes))
    assert abs(overlap - math.exp(-8.0)) <= 1e-12


def test_coherent_truncation_error_reports_required_dim():
    with pytest.raises(TruncationError) as err:
        coherent_fock(4.0, 8)
    assert err.value.required_dim is not None
    coherent_fock(4.0, err.value.required_dim)  # the estimate is adequate


def test_required_fock_dim_tail_contract():
    dim = required_fock_dim(2.0, 1e-10)
    state = coherent_fock(2.0, dim)
    assert state.leakage < 1e-10


def _poisson_tail_sum(dim, mu):
    """P(X >= dim) summed term by term over the tail, with no cancellation."""
    ns = np.arange(dim, dim + 2000)
    return float(np.exp(ns * math.log(mu) - mu - gammaln(ns + 1)).sum())


def test_required_fock_dim_exact_tail_at_the_boundary():
    # A boundary case: the tail at 80 levels exceeds 1e-12 by 0.1 %, less than
    # the rounding error of a `1 - sum` tail at this |alpha|.
    alpha = 5.673583395848961
    assert _poisson_tail_sum(80, alpha**2) >= 1e-12 > _poisson_tail_sum(81, alpha**2)
    assert required_fock_dim(alpha, 1e-12) == 81


def test_required_fock_dim_is_the_smallest_adequate_dim():
    for alpha in np.linspace(0.05, 20.0, 60):
        mu = alpha**2
        dim = required_fock_dim(alpha, 1e-12)
        assert gammainc(dim, mu) < 1e-12
        assert dim == 2 or gammainc(dim - 1, mu) >= 1e-12
        assert _poisson_tail_sum(dim, mu) == pytest.approx(gammainc(dim, mu), rel=1e-9)


# ---------------------------------------------------------------- propagation

def test_propagate_zero_hamiltonian_is_identity():
    h = FockOperator(np.zeros((32, 32), dtype=complex), hamiltonian=True)
    psi = joint_state("g", coherent_fock(0.7, 16))
    out = propagate(h, psi, 3.7)
    assert np.allclose(out.amplitudes, psi.amplitudes)


def test_propagate_vacuum_is_free_field_eigenstate():
    dim = 12
    n = number_op(dim).matrix
    h = FockOperator(np.kron(np.eye(2), 2.5 * n), hamiltonian=True)
    psi = joint_state("g", coherent_fock(0.0, dim))
    out = propagate(h, psi, 1.3)
    assert fidelity(out, psi) >= 1.0 - 1e-12


def test_propagate_matches_analytic_cat_evolution():
    params = make_strong_device()
    coupling_strength = 0.01
    from squidcat.model import Coupling

    coupling = Coupling.from_xi(coupling_strength)
    tau = math.pi / params.omega_cavity
    dim = 48
    h = hamiltonian(params, coupling, "first", dim)
    psi0 = joint_state("g", coherent_fock(0.0, dim))
    numeric = propagate(h, psi0, tau)
    analytic = materialize(evolve_vacuum(params, coupling, tau), dim)
    assert fidelity(analytic, numeric) >= 1.0 - 1e-8


def test_propagate_requires_hamiltonian_tag():
    h = FockOperator(np.eye(8, dtype=complex))
    psi = joint_state("g", coherent_fock(0.0, 4))
    with pytest.raises(HermiticityError):
        propagate(h, psi, 1.0)


def test_propagate_dimension_mismatch():
    h = FockOperator(np.eye(8, dtype=complex), hamiltonian=True)
    psi = joint_state("g", coherent_fock(0.0, 8))
    with pytest.raises(DimensionError):
        propagate(h, psi, 1.0)


def test_propagate_unitarity_and_composition():
    rng = np.random.default_rng(7)
    dim = 20
    for _ in range(5):
        raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = FockOperator(raw + raw.conj().T, hamiltonian=True)
        amp = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        psi = JointState(amp / np.linalg.norm(amp))
        t1, t2 = rng.uniform(0.0, 2.0, size=2)
        stepped = propagate(h, propagate(h, psi, t1), t2)
        direct = propagate(h, psi, t1 + t2)
        assert abs(np.linalg.norm(stepped.amplitudes) - 1.0) <= 1e-10
        assert fidelity(stepped, direct) >= 1.0 - 1e-9


# ---------------------------------------------------------------- fidelity

def test_fidelity_self_and_phase_invariance():
    state = coherent_fock(1.3, 32)
    assert abs(fidelity(state, state) - 1.0) <= 1e-12
    rotated = CavityState(np.exp(1j * 0.8) * state.amplitudes)
    assert abs(fidelity(state, rotated) - 1.0) <= 1e-12


def test_fidelity_coherent_pair_value():
    x = coherent_fock(1.0, 32)
    y = coherent_fock(-1.0, 32)
    assert abs(fidelity(x, y) - math.exp(-4.0)) <= 1e-12


def test_fidelity_rejects_mismatches():
    with pytest.raises(DimensionError):
        fidelity(coherent_fock(0.0, 8), coherent_fock(0.0, 16))
    with pytest.raises(DimensionError):
        fidelity(coherent_fock(0.0, 8), joint_state("g", coherent_fock(0.0, 4)))


# ---------------------------------------------------------------- Wigner

def test_wigner_vacuum_origin():
    vac = coherent_fock(0.0, 16)
    assert abs(wigner(vac, [0.0])[0] - 2.0 / math.pi) <= 1e-12


def test_wigner_cat_parity_at_origin():
    even = cat_state(2.0, "even")
    odd = cat_state(1.0, "odd")
    assert abs(wigner(even, [0.0])[0] - 2.0 / math.pi) <= 1e-10
    assert abs(wigner(odd, [0.0])[0] + 2.0 / math.pi) <= 1e-10


def test_wigner_bounded_everywhere():
    state = cat_state(1.5, "even", fock_dim=64)
    axis = np.linspace(-3.0, 3.0, 11)
    pts = (axis[:, None] + 1j * axis[None, :]).ravel()
    values = wigner(state, pts)
    assert np.all(np.abs(values) <= 2.0 / math.pi + 1e-9)


@pytest.mark.parametrize(
    "state_fn",
    [
        lambda: coherent_fock(0.0, 96),
        lambda: coherent_fock(1.0, 96),
        lambda: cat_state(1.2, "even", fock_dim=96),
    ],
)
def test_wigner_grid_normalization(state_fn):
    # Integral convention: beta = (x + i p)/sqrt(2), so the phase-space cell
    # is dx dp = 2 dRe(beta) dIm(beta) and (1/2) sum(W) dx dp -> 1.
    state = state_fn()
    axis = np.linspace(-4.0, 4.0, 41)
    step = axis[1] - axis[0]
    pts = (axis[:, None] + 1j * axis[None, :]).ravel()
    total = 0.5 * wigner(state, pts).sum() * (2.0 * step * step)
    assert abs(total - 1.0) <= 0.02


# The CLI's default map: 41 x 41 points at extent 3, values[i_im][i_re].
_AXIS = np.linspace(-3.0, 3.0, 41)
_GRID = (_AXIS[None, :] + 1j * _AXIS[:, None]).ravel()
_DIAGONAL_ALPHA = -math.sqrt(2.0) * (1.0 + 1.0j)  # |alpha| = 2 towards a grid corner


@pytest.mark.parametrize("alpha", [2.0, _DIAGONAL_ALPHA], ids=["axis", "diagonal"])
def test_wigner_coherent_closed_form_on_cli_grid(alpha):
    values = wigner(coherent_fock(alpha, 64), _GRID)
    assert np.abs(values - coherent_wigner(alpha, _GRID)).max() <= 1e-12


@pytest.mark.parametrize("kind, sign", [("even", 1.0), ("odd", -1.0)])
def test_wigner_cat_closed_form_on_cli_grid(kind, sign):
    state = cat_state(_DIAGONAL_ALPHA, kind, fock_dim=64)
    values = wigner(state, _GRID)
    assert np.abs(values - cat_wigner(_DIAGONAL_ALPHA, sign, _GRID)).max() <= 1e-12


def test_wigner_single_photon_closed_form():
    amp = np.zeros(64, dtype=complex)
    amp[1] = 1.0
    r2 = np.abs(_GRID) ** 2
    exact = (2.0 / math.pi) * (4.0 * r2 - 1.0) * np.exp(-2.0 * r2)
    assert np.abs(wigner(CavityState(amp), _GRID) - exact).max() <= 1e-12


# ---------------------------------------------------------------- diagnostics

def test_quadrature_covariance_vacuum_and_coherent():
    for alpha in (0.0, 1.2 + 0.5j):
        cov = quadrature_covariance(coherent_fock(alpha, 48))
        assert np.allclose(cov, 0.5 * np.eye(2), atol=1e-10)


def test_top_level_weight_joint_blocks():
    psi = joint_state("+", coherent_fock(1.0, 24))
    assert top_level_weight(psi) < 1e-12
    assert min_quadrature_variance(coherent_fock(0.0, 16)) == pytest.approx(0.5, abs=1e-12)
