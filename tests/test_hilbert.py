import decimal
import functools
import math

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import eigh, eigh_tridiagonal
from scipy.special import gammainc, gammaln

from squidcat.analytic import (
    CoherentLabel,
    cat_state,
    evolve_vacuum,
    materialize,
    materialize_label,
)
from squidcat.errors import DimensionError, TruncationError
from squidcat.hilbert import (
    CavityState,
    JointState,
    Propagator,
    SectorHamiltonian,
    _poisson_terms,
    _tail_width,
    coherent_fock,
    fidelity,
    joint_state,
    min_quadrature_variance,
    propagate,
    quadrature_covariance,
    required_fock_dim,
    top_level_weight,
    wigner,
    wigner_maps,
)
from squidcat.model import Coupling, coupling_xi, hamiltonian

from conftest import cat_wigner, coherent_wigner, ladder, make_strong_device


# ---------------------------------------------------------------- ladder matrices
# (the dense references of the Hamiltonian and Wigner tests are built from them)

def test_ladder_smallest_truncation():
    a, adag = ladder(2)
    expected = np.zeros((2, 2))
    expected[0, 1] = 1.0
    assert np.array_equal(a, expected)
    assert np.array_equal(adag, expected.T)


def test_number_operator_diagonal():
    a, adag = ladder(4)
    assert np.allclose(adag @ a, np.diag([0.0, 1.0, 2.0, 3.0]))


def test_commutator_truncation_artifact():
    a, adag = ladder(16)
    comm = a @ adag - adag @ a
    expected = np.eye(16, dtype=complex)
    expected[15, 15] = -15.0
    assert np.allclose(comm, expected, atol=1e-14)


# ---------------------------------------------------------------- Hamiltonians and states

def test_sector_hamiltonian_rejects_inconsistent_bands():
    with pytest.raises(DimensionError):
        SectorHamiltonian(np.arange(3.0), np.zeros(3), 0.0, np.ones(2), 2)
    with pytest.raises(DimensionError):
        SectorHamiltonian(np.arange(3.0), np.zeros((3, 2)), 0.0)


def test_states_require_normalization():
    with pytest.raises(ValueError):
        CavityState(np.array([1.0, 1.0], dtype=complex))
    with pytest.raises(DimensionError):
        JointState(np.array([1.0, 0.0, 0.0], dtype=complex))


def test_states_reject_nan_amplitudes():
    with pytest.raises(ValueError):
        CavityState(np.array([np.nan, 0.0]))
    with pytest.raises(ValueError):
        JointState(np.array([np.nan, 0.0, 0.0, 0.0]))


def test_state_arrays_are_readonly():
    state = coherent_fock(0.5, 16)
    with pytest.raises(ValueError):
        state.amplitudes[0] = 0.0


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


@pytest.mark.parametrize("alpha", [1e200, complex(1e308, 1e308), 1e150, 30.0, math.nan])
def test_coherent_tail_of_a_far_label_raises_before_any_sum(monkeypatch, alpha):
    # |alpha|^2 overflows, or is finite but past the truncation and the cap:
    # no Poisson term is summed and no truncation estimate is searched for.
    from squidcat import hilbert

    def never(*args):
        raise AssertionError("a Poisson sum ran")

    monkeypatch.setattr(hilbert, "_poisson_terms", never)
    monkeypatch.setattr(hilbert, "required_fock_dim", never)
    for build in (
        lambda: coherent_fock(alpha, 64),
        lambda: materialize_label(CoherentLabel(alpha, squeeze=0.1), 64),
    ):
        with pytest.raises(TruncationError, match="mean photon number") as err:
            build()
        assert err.value.required_dim is None


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


def _decimal_poisson_tails(mu, count):
    """P(X >= n) for n < ``count``, X ~ Poisson(mu): an exact sum in 40-digit decimals."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        m = decimal.Decimal(mu)
        terms = [(-m).exp()]
        # stop past the mode once the terms fall below 1e-60, far below 1e-20 * 1e-20
        while len(terms) < count or len(terms) <= mu or terms[-1] > decimal.Decimal("1e-60"):
            terms.append(terms[-1] * m / len(terms))
        tails, total = [], decimal.Decimal(0)
        for term in reversed(terms):
            total += term
            tails.append(total)
        return tails[::-1][:count]


@pytest.mark.parametrize("mu", [1e-3, 0.3, 1.0, 2.5, 7.3, 16.0, 40.5, 99.0, 180.0, 310.7, 460.0])
def test_poisson_tail_against_exact_decimal_sum(mu):
    # every dim from mu up (as required_fock_dim starts at ceil(mu)) whose tail is
    # at least 1e-20: alone at the width of its own mean, as required_fock_dim and
    # coherent_fock sum it, and, above mu, beside a larger mean whose width covers
    # both, as coherent_tails sums a batch
    reference = _decimal_poisson_tails(mu, math.ceil(mu + 12.0 * math.sqrt(mu) + 60.0))
    smallest = [dim for dim, exact in enumerate(reference) if exact < decimal.Decimal("1e-20")]
    assert smallest, "the reference stops before the tail falls below 1e-20"
    checked = 0
    for dim, exact in enumerate(reference[: smallest[0]]):
        if dim < mu:
            continue
        alone = _poisson_terms(np.array([mu]), dim, _tail_width(mu))[0].sum()
        error = abs(decimal.Decimal(alone) - exact) / exact
        assert error <= 2e-13, (mu, dim, float(error))
        if dim > mu:
            mus = np.array([mu, (mu + dim) / 2.0])
            mixed = _poisson_terms(mus, dim, _tail_width(mus[1])).sum(axis=1)[0]
            error = abs(decimal.Decimal(mixed) - exact) / exact
            assert error <= 2e-13, (mu, dim, float(error))
        checked += 1
    assert checked == smallest[0] - math.ceil(mu) >= 5


def _gammainc_search(alpha, tail_tol):
    """The level-by-level search with scipy's incomplete gamma function, as a reference."""
    mu = abs(alpha) ** 2
    dim = max(2, math.ceil(mu))
    while gammainc(dim, mu) >= tail_tol:
        dim += 1
    return dim


@pytest.mark.parametrize("tail_tol", [1e-10, 1e-12])
def test_required_fock_dim_matches_the_gammainc_search(tail_tol):
    rng = np.random.default_rng(2024)
    alphas = 20.0 * (1.0 - rng.random(400)) * np.exp(2j * np.pi * rng.random(400))  # |alpha| in (0, 20]
    for alpha in alphas:
        assert required_fock_dim(alpha, tail_tol) == _gammainc_search(alpha, tail_tol), alpha


def _gammaln_coherent(alpha, dim):
    ns = np.arange(dim)
    logmag = -abs(alpha) ** 2 / 2.0 + ns * math.log(abs(alpha)) - 0.5 * gammaln(ns + 1)
    v = np.exp(logmag + 1j * np.angle(alpha) * ns)
    return v / np.linalg.norm(v)


@pytest.mark.parametrize("alpha", [0.3, 1.0, 2.0 - 1.5j, 4.0j])
def test_coherent_fock_matches_the_gammaln_formula(alpha):
    error = np.abs(coherent_fock(alpha, 512).amplitudes - _gammaln_coherent(alpha, 512)).max()
    assert error <= 1e-15


@pytest.mark.parametrize("alpha", [4.0j, 10.0, 15.0 + 5.0j, 19.0])
def test_coherent_fock_magnitudes_against_exact_decimals(alpha):
    # Past |alpha| = 4 the exponent -|alpha|^2/2 + n log|alpha| - log(n!)/2 rounds
    # at the 1e-14 level whichever table of log n! is used, so the two formulas
    # are compared by their distance from the exact magnitudes, not to each other.
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        r = decimal.Decimal(abs(alpha))
        mags = [(-r * r / 2).exp()]
        for n in range(1, 512):
            mags.append(mags[-1] * r / decimal.Decimal(n).sqrt())
        norm = sum(m * m for m in mags).sqrt()
        exact = np.array([float(m / norm) for m in mags])
    error = np.abs(np.abs(coherent_fock(alpha, 512).amplitudes) - exact).max()
    reference_error = np.abs(np.abs(_gammaln_coherent(alpha, 512)) - exact).max()
    assert error <= max(1e-15, 2.0 * reference_error)


# ---------------------------------------------------------------- propagation

def test_propagate_zero_hamiltonian_is_identity():
    h = SectorHamiltonian(np.zeros(16), np.zeros((16, 16)), 0.0)
    psi = joint_state("g", coherent_fock(0.7, 16))
    out = propagate(h, psi, 3.7)
    assert np.allclose(out.amplitudes, psi.amplitudes)


def test_propagate_vacuum_is_free_field_eigenstate():
    dim = 12
    h = SectorHamiltonian(2.5 * np.arange(dim), np.zeros(dim), 0.0, np.zeros(dim - 1))
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


def test_propagate_dimension_mismatch():
    h = SectorHamiltonian(np.arange(4.0), np.ones(4), 0.0, np.ones(3))
    psi = joint_state("g", coherent_fock(0.0, 8))
    with pytest.raises(DimensionError):
        propagate(h, psi, 1.0)


def _sector_case(scenario, dim):
    """Hamiltonian and initial state of one verify scenario, with a complex xi.

    E_J = 5 hbar omega keeps |H| t small enough that eigenvalue rounding
    stays far below the 1e-12 comparison over two cavity periods.
    """
    device = functools.partial(make_strong_device, ej_over_omega=5.0)
    coupling = Coupling.from_xi(0.1 * np.exp(0.6j))
    if scenario == "squeeze":
        coupling = Coupling.from_xi(0.15 * np.exp(0.6j))
        psi0 = joint_state("g", coherent_fock(1.0 - 0.5j, dim))
        return hamiltonian(device(phi_c_ratio=0.0), coupling, "second", dim), psi0
    if scenario == "pulse":
        # at phi_c = 1 sin(pi) is taken as exactly 0: each chain is diagonal, and gets phases alone
        psi0 = materialize(evolve_vacuum(device(), coupling, 1e-10), dim)
        return hamiltonian(device(phi_c_ratio=1.0), coupling, "first", dim), psi0
    start = 0.0 if scenario == "vacuum" else 1.0 + 0.5j
    psi0 = joint_state("g", coherent_fock(start, dim))
    if scenario == "cosine":
        # the full cosine off the preparation flux: one dense block per sector
        return hamiltonian(device(phi_c_ratio=0.3), coupling, "cosine", dim), psi0
    return hamiltonian(device(), coupling, "first", dim), psi0


@pytest.mark.parametrize("scenario", ["vacuum", "coherent", "pulse", "squeeze", "cosine"])
def test_sector_propagator_matches_dense_eigh(scenario):
    dim = 40
    h, psi0 = _sector_case(scenario, dim)
    assert isinstance(h, SectorHamiltonian)
    evals, evecs = eigh(h.matrix)
    evolve = Propagator(h)
    period = 2.0 * math.pi / make_strong_device().omega_cavity
    for t in np.linspace(0.0, 2.0 * period, 7)[1:]:
        dense = evecs @ (np.exp(-1j * evals * t) * (evecs.conj().T @ psi0.amplitudes))
        assert np.abs(evolve(psi0, t).amplitudes - dense).max() <= 1e-12


@pytest.mark.parametrize("scenario", ["coherent", "squeeze"])
def test_sector_propagator_keeps_the_norm_at_512_levels(scenario):
    h, psi0 = _sector_case(scenario, 512)
    evolve = Propagator(h)
    period = 2.0 * math.pi / make_strong_device().omega_cavity
    for t in (0.3 * period, 2.0 * period):
        assert abs(np.linalg.norm(evolve(psi0, t).amplitudes) - 1.0) <= 1e-10


@pytest.mark.parametrize("scenario", ["vacuum", "coherent", "pulse", "squeeze", "cosine"])
def test_grid_call_matches_scalar_calls(scenario):
    h, psi0 = _sector_case(scenario, 40)
    evolve = Propagator(h)
    period = 2.0 * math.pi / make_strong_device().omega_cavity
    times = np.linspace(0.0, 2.0 * period, 7)
    grid = evolve(psi0.amplitudes, times)
    assert isinstance(grid, np.ndarray) and grid.shape == (80, times.size)
    for t, column in zip(times, grid.T):
        scalar = evolve(psi0, float(t))
        assert isinstance(scalar, JointState) and scalar.leakage == psi0.leakage
        assert np.abs(column - scalar.amplitudes).max() <= 1e-13
    # one state per time: the k-th column is evolved to the k-th time
    later = evolve(grid, times[::-1])
    assert later.shape == grid.shape
    for column, t, out in zip(grid.T, times[::-1], later.T):
        assert np.abs(out - evolve(JointState(column), float(t)).amplitudes).max() <= 1e-13
    assert evolve(psi0.amplitudes, np.zeros(0)).shape == (80, 0)


def _chain_reference(h, psi, t):
    """exp(-i H t) psi with every chain of both sectors diagonalized on its own."""
    n = h.cavity.size
    v = (np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)) @ psi.amplitudes.reshape(2, n)
    v = (v * h.gauge.conj()).ravel()
    for rows, main, off in h.blocks():
        evals, evecs = eigh_tridiagonal(main, off)
        v[rows] = evecs @ (np.exp(-1j * evals * t) * (evecs.T @ v[rows]))
    v = (np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)) @ (v.reshape(2, n) * h.gauge)
    return v.ravel()


@pytest.mark.parametrize("stride", [1, 2])
def test_mirrored_sector_matches_its_own_eigensolve(stride):
    rng = np.random.default_rng(11 + stride)
    for _ in range(5):
        dim = int(rng.integers(6, 40))
        h = SectorHamiltonian(
            rng.normal(size=dim) * 3.0,
            np.full(dim, rng.normal()),
            rng.uniform(0.0, 2.0 * math.pi),
            rng.normal(size=dim - stride),
            stride,
        )
        amp = rng.normal(size=2 * dim) + 1j * rng.normal(size=2 * dim)
        psi = JointState(amp / np.linalg.norm(amp))
        times = rng.uniform(0.0, 3.0, size=4)
        for t, column in zip(times, Propagator(h)(psi.amplitudes, times).T):
            assert np.abs(column - _chain_reference(h, psi, t)).max() <= 1e-12


@pytest.mark.parametrize(
    "scenario,expected",
    [("vacuum", (1, 0)), ("pulse", (0, 0)), ("squeeze", (4, 0)), ("cosine", (0, 2))],
)
def test_eigensolves_per_propagator(monkeypatch, scenario, expected):
    # first order: one eigh_tridiagonal per mirrored chain pair, and none for the
    # pulse's diagonal chains; otherwise one per block
    h, _ = _sector_case(scenario, 24)
    calls = {"eigh_tridiagonal": 0, "eigh": 0}

    def counted(name):
        original = getattr(scipy.linalg, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(scipy.linalg, name, counted(name))
    Propagator(h)
    assert (calls["eigh_tridiagonal"], calls["eigh"]) == expected


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_propagator_rejects_non_finite_times(bad):
    h, psi0 = _sector_case("vacuum", 8)
    evolve = Propagator(h)
    with pytest.raises(ValueError, match=f"finite, got {bad!r}"):
        evolve(psi0, bad)
    with pytest.raises(ValueError, match=f"finite, got {bad!r}"):
        evolve(psi0.amplitudes, np.array([0.0, 1e-12, bad]))


def test_propagator_rejects_mismatched_states_and_times():
    h, psi0 = _sector_case("vacuum", 8)
    evolve = Propagator(h)
    columns = np.repeat(psi0.amplitudes[:, None], 3, axis=1)
    with pytest.raises(ValueError, match="3 states"):
        evolve(columns, np.zeros(2))
    with pytest.raises(ValueError, match="1-D array of times"):
        evolve(columns, 0.0)
    with pytest.raises(ValueError, match="1-D array of times"):
        evolve(psi0.amplitudes, 0.0)
    with pytest.raises(ValueError, match="one time"):
        evolve(psi0, np.zeros(2))
    with pytest.raises(ValueError, match="1-D or 2-D"):
        evolve(columns[None], np.zeros(3))
    wrong = joint_state("g", coherent_fock(0.0, 9))
    with pytest.raises(DimensionError):
        evolve(columns[:-2], np.zeros(3))
    with pytest.raises(DimensionError):
        evolve(wrong, 0.0)


def _random_sector_hamiltonian(rng, dim, form):
    """A random SectorHamiltonian on ``dim`` levels, its coupling in band or dense form."""
    cavity, phase = rng.normal(size=dim), rng.uniform(0.0, 2.0 * math.pi)
    if form == "dense":
        raw = rng.normal(size=(dim, dim))
        return SectorHamiltonian(cavity, raw + raw.T, phase)
    stride = int(rng.integers(1, 3))
    return SectorHamiltonian(
        cavity, rng.normal(size=dim), phase, rng.normal(size=dim - stride), stride
    )


def test_propagate_unitarity_and_composition():
    rng = np.random.default_rng(7)
    dim = 20
    for form in ("band", "dense") * 5:
        h = _random_sector_hamiltonian(rng, dim // 2, form)
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


def test_wigner_coherent_closed_form_far_from_the_origin():
    # exp(2|beta|^2) overflows a double past |beta| = 18.8; the map must not.
    alpha = 15.0
    r = np.linspace(0.0, 25.0, 101)
    t = np.linspace(-20.0, 20.0, 81)
    pts = np.concatenate((r, -r, 1j * r, alpha + 1j * t))  # along and across alpha
    values = wigner(coherent_fock(alpha, 512), pts)
    assert np.all(np.isfinite(values))
    assert np.abs(values - coherent_wigner(alpha, pts)).max() <= 1e-12


def _displaced_parity_wigner(amp, pts, padded_dim=96):
    """(2/pi) sum_n (-1)^n |<n|D(-beta) psi>|^2, with D = expm(-beta adag + conj(beta) a)
    on ``padded_dim`` levels, independent of the Laguerre sums."""
    from scipy.linalg import expm

    a, adag = ladder(padded_dim)
    psi = np.zeros(padded_dim, dtype=complex)
    psi[: amp.size] = amp
    parity = (-1.0) ** np.arange(padded_dim)
    out = []
    for beta in pts:
        shifted = expm(-beta * adag + np.conj(beta) * a) @ psi
        out.append((2.0 / math.pi) * float(parity @ np.abs(shifted) ** 2))
    return np.array(out)


def _random_amplitudes(seed, dim=12):
    rng = np.random.default_rng(seed)
    amp = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return amp / np.linalg.norm(amp)


_ORACLE_AXIS = np.linspace(-2.5, 2.5, 6)
_ORACLE_GRID = (_ORACLE_AXIS[None, :] + 1j * _ORACLE_AXIS[:, None]).ravel()


@pytest.mark.parametrize(
    "amp",
    [_random_amplitudes(0), _random_amplitudes(1), _random_amplitudes(2), np.eye(12)[-1]],
    ids=["random0", "random1", "random2", "top-fock-level"],  # nothing to trim from |11>
)
def test_wigner_matches_displaced_parity(amp):
    values = wigner(CavityState(amp), _ORACLE_GRID)
    assert np.abs(values - _displaced_parity_wigner(amp, _ORACLE_GRID)).max() <= 1e-12


def _decaying_amplitudes(seed, dim=64, mean=4.0):
    """Random complex amplitudes under a Poisson(mean) envelope, like a coherent state's."""
    rng = np.random.default_rng(seed)
    n = np.arange(dim)
    envelope = np.exp(0.5 * (n * math.log(mean) - mean - gammaln(n + 1.0)))
    amp = envelope * (rng.normal(size=dim) + 1j * rng.normal(size=dim))
    return amp / np.linalg.norm(amp)


@pytest.mark.parametrize(
    "amp_fn, flat",
    [
        (lambda: cat_state(_DIAGONAL_ALPHA, "odd", fock_dim=64).amplitudes, False),
        (lambda: _decaying_amplitudes(4), False),
        (lambda: _random_amplitudes(5), True),  # every entry is far above the floor
    ],
    ids=["parity-cat", "poisson-decay", "flat"],
)
def test_wigner_trim_moves_the_map_by_at_most_its_bound(monkeypatch, amp_fn, flat):
    from squidcat import constants, hilbert

    state = CavityState(amp_fn())
    values = wigner(state, _GRID)
    monkeypatch.setattr(hilbert, "WIGNER_TRIM_TOL", 0.0)  # keeps every nonzero entry
    untrimmed = wigner(state, _GRID)
    if flat:
        assert np.array_equal(values, untrimmed)
    else:
        bound = (2.0 / math.pi) * constants.WIGNER_TRIM_TOL + 1e-15  # the trim's, plus rounding
        assert np.abs(values - untrimmed).max() <= bound


def test_wigner_ignores_trailing_empty_levels():
    amp = _random_amplitudes(3)
    padded = np.concatenate((amp, np.zeros(500)))
    assert np.array_equal(
        wigner(CavityState(padded), _GRID), wigner(CavityState(amp), _GRID)
    )


def test_wigner_empty_and_non_finite_points():
    state = coherent_fock(1.0, 16)
    assert wigner(state, []).shape == (0,)
    with pytest.raises(ValueError, match="finite"):
        wigner(state, [0.0, complex(1e155, 0.0)])
    with pytest.raises(ValueError, match="finite"):
        wigner(state, [np.nan])



def _trailing_zero_levels():
    amp = np.zeros(40, dtype=complex)
    amp[:12] = _random_amplitudes(6)
    return CavityState(amp)


_MAP_STATES = {
    "even-cat": lambda: cat_state(_DIAGONAL_ALPHA, "even", fock_dim=64),
    "odd-cat": lambda: cat_state(_DIAGONAL_ALPHA, "odd", fock_dim=64),
    "squeezed": lambda: materialize_label(
        CoherentLabel(0.8 - 0.3j, squeeze=0.6 * np.exp(0.4j), rotation=0.9), 96
    ),
    "fock-5": lambda: CavityState(np.eye(16)[5]),
    "trailing-zeros": _trailing_zero_levels,
    "poisson-decay": lambda: CavityState(_decaying_amplitudes(7, dim=48)),
    "flat-200": lambda: CavityState(_random_amplitudes(8, dim=200)),
}


@pytest.mark.parametrize(
    "names",
    [[name] for name in _MAP_STATES] + [list(_MAP_STATES), ["fock-5", "even-cat", "fock-5"]],
    ids=[*_MAP_STATES, "all-lengths", "repeated"],
)
def test_wigner_maps_equal_the_one_state_maps(names):
    states = [_MAP_STATES[name]() for name in names]
    for grid in (_GRID, _ORACLE_GRID, [0.0, 20.0 + 15.0j]):  # the last rescales "flat-200"
        maps = wigner_maps(states, grid)
        assert len(maps) == len(states)
        for state, values in zip(states, maps):
            assert np.array_equal(values, wigner(state, grid))


def test_wigner_maps_of_no_states_sweep_nothing(monkeypatch):
    from squidcat import hilbert

    def never(*args):
        raise AssertionError("a sweep ran")

    monkeypatch.setattr(hilbert, "_laguerre_sweep", never)
    assert wigner_maps([], _GRID) == []
    assert [m.shape for m in wigner_maps([coherent_fock(1.0, 16)] * 2, [])] == [(0,), (0,)]


# ---------------------------------------------------------------- diagnostics

def test_quadrature_covariance_vacuum_and_coherent():
    for alpha in (0.0, 1.2 + 0.5j):
        cov = quadrature_covariance(coherent_fock(alpha, 48))
        assert np.allclose(cov, 0.5 * np.eye(2), atol=1e-10)


def test_top_level_weight_of_a_state_shorter_than_the_levels():
    uniform = np.full(3, 1.0 / math.sqrt(3.0))
    assert top_level_weight(CavityState(uniform)) == pytest.approx(1.0, abs=1e-15)
    joint = JointState(np.concatenate((uniform, uniform)) / math.sqrt(2.0))
    assert top_level_weight(joint) == pytest.approx(1.0, abs=1e-15)


def test_top_level_weight_joint_blocks():
    psi = joint_state("+", coherent_fock(1.0, 24))
    assert top_level_weight(psi) < 1e-12
    assert min_quadrature_variance(coherent_fock(0.0, 16)) == pytest.approx(0.5, abs=1e-12)
