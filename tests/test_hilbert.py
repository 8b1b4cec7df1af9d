import cmath
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
    _bd0,
    _chain_eigh,
    _poisson_pmfs,
    _poisson_terms,
    _tail_width,
    coherent_amplitudes,
    coherent_fock,
    coherent_tails,
    fidelity,
    joint_state,
    min_quadrature_variance,
    quadrature_covariance,
    required_fock_dim,
    top_level_weight,
    wigner,
    wigner_maps,
)
from squidcat.model import Coupling, coupling_xi, hamiltonian

from conftest import cat_reference, cat_wigner, coherent_wigner, ladder, make_strong_device


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


def _reference_poisson_pmf(n, mu):
    """P(X = n) for X ~ Poisson(mu), one mean at a time, by Loader's form."""
    if n == 0:
        return math.exp(-mu)
    if mu == 0.0:
        return 0.0
    if n <= 15:
        stirlerr = math.lgamma(n + 1.0) - (n + 0.5) * math.log(n) + n - 0.5 * math.log(2.0 * math.pi)
    else:
        nn = float(n) * n
        stirlerr = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / nn) / nn) / nn) / nn) / n
    return math.exp(-stirlerr - _bd0(n, mu)) / math.sqrt(2.0 * math.pi * n)


@pytest.mark.parametrize("n", [0, 1, 7, 15, 16, 40, 200, 459])
def test_poisson_pmfs_match_the_per_row_form_bit_for_bit(n):
    # means near n (the series branch of bd0) and far below and above it
    mus = [0.0, 1e-9, 0.3, 0.1 * n, 0.5 * n, 0.93 * n, 0.97 * n, n, 1.04 * n, 2.0 * n + 1.0]
    assert _poisson_pmfs(n, mus) == [_reference_poisson_pmf(n, mu) for mu in mus]


def test_coherent_tails_sum_each_poisson_law_once(monkeypatch):
    # a squeezed verify's labels all share |gamma|^2; equal means are summed once, and
    # every tail is bit for bit the one of its label alone
    from squidcat import hilbert

    alphas = [3.0 * np.exp(0.7j)] * 39 + [1.5, -1.5j, 0.0, 0.0, 7.0]
    alone = [coherent_tails([alpha], 129)[0] for alpha in alphas]
    means = []
    original = hilbert._poisson_pmfs

    def recording(n, mus):
        means.append(mus)
        return original(n, mus)

    monkeypatch.setattr(hilbert, "_poisson_pmfs", recording)
    tails = coherent_tails(alphas, 129)
    assert tails.tolist() == alone
    (seen,) = means
    assert len(seen) == 4  # |gamma|^2, 1.5^2 (for 1.5 and -1.5j), 0 and 7^2


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


def _decimal_coherent(alpha, dim):
    """Coherent amplitudes on ``dim`` levels, renormalized: the recurrence
    c_n = c_(n-1) alpha/sqrt(n) in 40-digit (re, im) decimals from the exact binary alpha."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        re, im = decimal.Decimal(alpha.real), decimal.Decimal(alpha.imag)
        c_re, c_im = (-(re * re + im * im) / 2).exp(), decimal.Decimal(0)
        amps = [(c_re, c_im)]
        for n in range(1, dim):
            root = decimal.Decimal(n).sqrt()
            c_re, c_im = (c_re * re - c_im * im) / root, (c_re * im + c_im * re) / root
            amps.append((c_re, c_im))
        norm = sum(a * a + b * b for a, b in amps).sqrt()
        return np.array([complex(float(a / norm), float(b / norm)) for a, b in amps])


@pytest.mark.parametrize("dim", [64, 237, 459])
@pytest.mark.parametrize("radius", [0.5, 8.0, 18.0])
def test_coherent_amplitudes_against_exact_decimals(radius, dim):
    # One rounding per step of the recurrence; a log-domain exponent
    # -|alpha|^2/2 + n log|alpha| - log(n!)/2 would cancel terms of size ~1300
    # at 459 levels and round at the 3e-14 level at |alpha| = 18.
    alpha = radius * cmath.exp(0.7j)
    error = np.abs(coherent_amplitudes([alpha], dim)[0] - _decimal_coherent(alpha, dim)).max()
    assert error <= 1e-15


@pytest.mark.parametrize("alpha", [40.0, 40.0 * cmath.exp(0.7j)])
def test_far_coherent_row_against_exact_decimals(alpha):
    # c_0 = e^(-800) underflows a double, so the row is carried rescaled by
    # powers of two; the rows beside it take the one cumulative product
    rows = coherent_amplitudes([0.5, alpha, 18.0j], 2000)
    assert np.abs(rows[1] - _decimal_coherent(alpha, 2000)).max() <= 1e-15
    assert np.array_equal(rows[1], coherent_fock(alpha, 2000).amplitudes)
    assert np.array_equal(rows[2], coherent_fock(18.0j, 2000).amplitudes)


# ---------------------------------------------------------------- propagation

def test_propagate_zero_hamiltonian_is_identity():
    h = SectorHamiltonian(np.zeros(16), np.zeros((16, 16)), 0.0)
    psi = joint_state("g", coherent_fock(0.7, 16))
    out = Propagator(h)(psi, 3.7)
    assert np.allclose(out.amplitudes, psi.amplitudes)


def test_propagate_vacuum_is_free_field_eigenstate():
    dim = 12
    h = SectorHamiltonian(2.5 * np.arange(dim), np.zeros(dim), 0.0, np.zeros(dim - 1))
    psi = joint_state("g", coherent_fock(0.0, dim))
    out = Propagator(h)(psi, 1.3)
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
    numeric = Propagator(h)(psi0, tau)
    analytic = materialize(evolve_vacuum(params, coupling, tau), dim)
    assert fidelity(analytic, numeric) >= 1.0 - 1e-8


def test_propagate_dimension_mismatch():
    h = SectorHamiltonian(np.arange(4.0), np.ones(4), 0.0, np.ones(3))
    psi = joint_state("g", coherent_fock(0.0, 8))
    with pytest.raises(DimensionError):
        Propagator(h)(psi, 1.0)


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


def _chain_reference(h, psi, t, edge=0):
    """exp(-i H t) psi with every chain of both sectors, cut to its levels from ``edge`` up,
    diagonalized on its own; the levels below the edge come out zero."""
    n = h.cavity.size
    v = (np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)) @ psi.amplitudes.reshape(2, n)
    v = (v * h.gauge.conj()).ravel()
    out = np.zeros_like(v)
    for rows, main, off in h.blocks(edge):
        evals, evecs = eigh_tridiagonal(main, off)
        out[rows] = evecs @ (np.exp(-1j * evals * t) * (evecs.T @ v[rows]))
    out = (np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)) @ (out.reshape(2, n) * h.gauge)
    return out.ravel()


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


@pytest.mark.parametrize("shift", [0.0, 0.8])
@pytest.mark.parametrize("stride", [1, 2])
def test_cut_chains_match_their_own_eigensolves(stride, shift):
    # a cut - chain keeps the mirror rule S V, with S alternating along the cut chain,
    # whether its shift -2c is exactly zero or not, at edges of either parity
    rng = np.random.default_rng(23 + stride)
    for edge in (1, 2, 5, 8):
        dim = int(rng.integers(12, 40))
        h = SectorHamiltonian(
            rng.normal(size=dim) * 3.0, np.full(dim, shift), 0.4, rng.normal(size=dim - stride), stride
        )
        amp = rng.normal(size=2 * dim) + 1j * rng.normal(size=2 * dim)
        psi = JointState(amp / np.linalg.norm(amp))
        times = rng.uniform(0.0, 3.0, size=3)
        evolved = Propagator(h, edge=edge)(psi.amplitudes, times)
        assert not evolved.reshape(2, dim, -1)[:, :edge].any()
        for t, column in zip(times, evolved.T):
            assert np.abs(column - _chain_reference(h, psi, t, edge)).max() <= 1e-12


def _far_case(scenario, dim):
    """``_sector_case`` with the input displaced to |alpha'| = 12: every state it reaches
    over two cavity periods holds less than 1e-29 below level 20."""
    device = functools.partial(make_strong_device, ej_over_omega=5.0)
    coupling = Coupling.from_xi(0.1 * np.exp(0.6j))
    psi0 = joint_state("g", coherent_fock(12.0 * np.exp(0.4j), dim))
    if scenario == "squeeze":
        return hamiltonian(device(phi_c_ratio=0.0), Coupling.from_xi(0.15 * np.exp(0.6j)), "second", dim), psi0
    order, flux = {"coherent": ("first", 0.5), "flux": ("first", 0.3), "pulse": ("first", 1.0)}.get(
        scenario, ("cosine", 0.3)
    )
    return hamiltonian(device(phi_c_ratio=flux), coupling, order, dim), psi0


# coherent: stride-1 chains mirrored at c = 0; flux: mirrored at c != 0 (phi_c = 0.3);
# squeeze: stride-2 chains, both sectors solved; pulse: diagonal chains; cosine: dense blocks
@pytest.mark.parametrize("scenario", ["coherent", "flux", "squeeze", "pulse", "cosine"])
@pytest.mark.parametrize("edge", [20, 21])
def test_cut_propagator_matches_the_full_one_above_the_edge(scenario, edge):
    dim = 256
    h, psi0 = _far_case(scenario, dim)
    period = 2.0 * math.pi / make_strong_device().omega_cavity
    times = np.linspace(0.0, 2.0 * period, 9)
    full = Propagator(h)(psi0.amplitudes, times)
    cut = Propagator(h, edge=edge)(psi0.amplitudes, times)
    assert cut.shape == full.shape == (2 * dim, times.size)
    assert not cut.reshape(2, dim, -1)[:, :edge].any()
    assert np.abs(full.reshape(2, dim, -1)[:, : edge + 4]).max() <= 1e-14
    assert np.abs(cut - full).max() <= 1e-12


@pytest.mark.parametrize("edge", [-1, 15])
def test_propagator_rejects_an_edge_without_two_levels_above_it(edge):
    h = hamiltonian(make_strong_device(), Coupling.from_xi(0.01), "first", 16)
    with pytest.raises(ValueError, match=f"edge must be from 0 to 14, got {edge}"):
        Propagator(h, edge=edge)


def _held_arrays(obj):
    """Every ndarray reachable from ``obj``'s attributes through lists and tuples."""
    found, todo = [], list(vars(obj).values())
    while todo:
        item = todo.pop()
        if isinstance(item, np.ndarray):
            found.append(item)
        elif isinstance(item, (list, tuple)):
            todo.extend(item)
    return found


@pytest.mark.parametrize("shift", [0.0, 0.8])
@pytest.mark.parametrize("stride", [1, 2])
def test_mirrored_chains_hold_their_plus_chains_eigenvectors(monkeypatch, stride, shift):
    # the - chains take S V from the + chains' V as a sign flip in each call, so
    # every matrix the propagator holds is an eigensolve's own output, not a copy
    rng = np.random.default_rng(7 + stride)
    dim = 31
    h = SectorHamiltonian(
        rng.normal(size=dim), np.full(dim, shift), 0.9, rng.normal(size=dim - stride), stride
    )
    solved, original = [], scipy.linalg.lapack.dstevd

    def recording(*args, **kwargs):
        evals, evecs, info = original(*args, **kwargs)
        solved.append(evecs)
        return evals, evecs, info

    monkeypatch.setattr(scipy.linalg.lapack, "dstevd", recording)
    held = [a for a in _held_arrays(Propagator(h)) if a.ndim == 2]
    assert len(solved) == stride and len(held) == 2 * stride
    for k, evecs in enumerate(solved):
        assert sum(np.shares_memory(a, evecs) for a in held) == 2, k


@pytest.mark.parametrize(
    "scenario,expected",
    [("vacuum", (1, 0)), ("pulse", (0, 0)), ("squeeze", (4, 0)), ("cosine", (0, 2))],
)
def test_eigensolves_per_propagator(monkeypatch, scenario, expected):
    # first order: one dstevd chain solve per mirrored chain pair, and none for
    # the pulse's diagonal chains; otherwise one per block
    h, _ = _sector_case(scenario, 24)
    calls = {"dstevd": 0, "eigh": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for module, name in ((scipy.linalg.lapack, "dstevd"), (scipy.linalg, "eigh")):
        monkeypatch.setattr(module, name, counted(module, name))
    Propagator(h)
    assert (calls["dstevd"], calls["eigh"]) == expected


# the sizes whose chains are checked: every N up to 70, then odd and even sizes up to MAX_FOCK_DIM
_CHAIN_SIZES = [*range(2, 71), 97, 128, 129, 200, 256, 377, 459, 512]


@pytest.mark.parametrize("order,phi_c_ratio", [("first", 0.5), ("second", 0.0)])
def test_chain_eigh_is_the_stevd_driver_bit_for_bit(order, phi_c_ratio):
    # every chain of two or more levels the package builds at these settings;
    # the driver is named, so the reference does not rest on scipy's default
    device = make_strong_device(phi_c_ratio=phi_c_ratio)
    coupling = Coupling.from_xi(0.1 * np.exp(0.6j))
    solved = 0
    for dim in _CHAIN_SIZES:
        for _, main, off in hamiltonian(device, coupling, order, dim).blocks():
            if not off.size:
                continue
            evals, evecs = _chain_eigh(main, off)
            ref_evals, ref_evecs = eigh_tridiagonal(main, off, lapack_driver="stevd")
            assert evals.tobytes() == ref_evals.tobytes(), (dim, main.size)
            assert evecs.tobytes() == ref_evecs.tobytes(), (dim, main.size)
            solved += 1
    # two chains per size at first order; four at second, less the one-level
    # chains at N = 2 (four) and N = 3 (two)
    assert solved == (2 * len(_CHAIN_SIZES) if order == "first" else 4 * len(_CHAIN_SIZES) - 6)


@pytest.mark.parametrize("where", ["main", "off"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_chain_eigh_rejects_non_finite_entries(bad, where):
    chain = {"main": np.arange(5.0), "off": np.ones(4)}
    chain[where][2] = bad
    with pytest.raises(ValueError, match="array must not contain infs or NaNs"):
        _chain_eigh(chain["main"], chain["off"])


def test_chain_eigh_raises_when_the_solve_fails(monkeypatch):
    def failing(d, e):
        return np.zeros(d.size), np.zeros((d.size, d.size)), 1

    monkeypatch.setattr(scipy.linalg.lapack, "dstevd", failing)
    with pytest.raises(np.linalg.LinAlgError):
        _chain_eigh(np.arange(5.0), np.ones(4))


def _recorded_exponentials(monkeypatch, evolve, state, times):
    """evolve(state, times) and every array np.exp returned during the call."""
    tables, real_exp = [], np.exp

    def recording(*args, **kwargs):
        tables.append(real_exp(*args, **kwargs))
        return tables[-1]

    with monkeypatch.context() as patch:
        patch.setattr(np, "exp", recording)
        result = evolve(state, times)
    return result, tables


def _column_by_column(evals, times):
    return np.hstack([np.exp(-1j * np.outer(evals, [t])) for t in times])


@pytest.mark.parametrize("scenario", ["vacuum", "coherent"])
def test_mirrored_chains_share_one_phase_table(monkeypatch, scenario):
    # at the preparation flux the shift 2c is exactly 0, so the - chains have
    # the + chains' eigenvalues bit for bit and their phases are formed once
    h, psi0 = _sector_case(scenario, 40)
    assert not h.coupling.any()
    times = np.linspace(0.0, 3.0, 20)
    blocks = h.blocks()
    half = len(blocks) // 2
    spectra = [eigh_tridiagonal(main, off)[0] for _, main, off in blocks[:half]]
    spectra += [evals - 2.0 * h.coupling[0] for evals in spectra]
    _, tables = _recorded_exponentials(monkeypatch, Propagator(h), psi0.amplitudes, times)
    assert len(tables) == half and all(t.shape == (40, times.size) for t in tables)
    for k, evals in enumerate(spectra):
        assert np.array_equal(tables[k % half], _column_by_column(evals, times))


def test_pulse_forms_one_phase_column_for_every_state(monkeypatch):
    h, psi0 = _sector_case("pulse", 40)
    evolve = Propagator(h)
    columns = evolve(psi0.amplitudes, np.linspace(0.0, 3.0, 20))
    duration = 0.7
    once, tables = _recorded_exponentials(monkeypatch, evolve, columns, np.array([duration]))
    assert np.array_equal(once, evolve(columns, np.full(20, duration)))
    mains = [main for _, main, _ in h.blocks()]
    assert len(tables) == len(mains) == 2
    for table, main in zip(tables, mains):
        assert np.array_equal(table, _column_by_column(main, [duration]))


def test_unshared_spectra_get_one_phase_table_each(monkeypatch):
    # the second order shares nothing: one table per block, as before
    h, psi0 = _sector_case("squeeze", 40)
    times = np.linspace(0.0, 3.0, 20)
    _, tables = _recorded_exponentials(monkeypatch, Propagator(h), psi0.amplitudes, times)
    blocks = h.blocks()
    assert len(tables) == len(blocks) == 4
    for table, (_, main, off) in zip(tables, blocks):
        assert np.array_equal(table, _column_by_column(eigh_tridiagonal(main, off)[0], times))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_propagator_rejects_non_finite_times(bad):
    h, psi0 = _sector_case("vacuum", 8)
    evolve = Propagator(h)
    with pytest.raises(ValueError, match=f"finite, got {bad!r}"):
        evolve(psi0, bad)
    with pytest.raises(ValueError, match=f"finite, got {bad!r}"):
        evolve(psi0.amplitudes, np.array([0.0, 1e-12, bad]))


def test_propagator_rejects_a_time_past_the_phase_bound():
    # on the strong device omega = 1e10 rad/s, so omega |t| < 2^52 rad is |t| < 4.5e5 s
    params = make_strong_device()
    evolve = Propagator(hamiltonian(params, Coupling.from_xi(0.01), "first", 16))
    psi0 = joint_state("g", coherent_fock(0.0, 16))
    with pytest.raises(ValueError, match=r"time must keep omega \|t\| below 2\^52 rad, .*, got 1e\+20 "):
        evolve(psi0, 1e20)
    with pytest.raises(ValueError, match=r"time must keep omega \|t\| below 2\^52 rad, .*, got -1e\+300 "):
        evolve(psi0.amplitudes, np.array([0.0, 1e20, -1e300]))
    bound = 2.0**52 / params.omega_cavity
    assert evolve(psi0.amplitudes, np.array([0.0, -0.5 * bound])).shape == (32, 2)


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
        evolve = Propagator(h)
        stepped = evolve(evolve(psi, t1), t2)
        direct = evolve(psi, t1 + t2)
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
    even = cat_reference(2.0, "even", 64)
    odd = cat_reference(1.0, "odd", 64)
    assert abs(wigner(even, [0.0])[0] - 2.0 / math.pi) <= 1e-10
    assert abs(wigner(odd, [0.0])[0] + 2.0 / math.pi) <= 1e-10


def test_wigner_bounded_everywhere():
    state = cat_reference(1.5, "even", 64)
    axis = np.linspace(-3.0, 3.0, 11)
    pts = (axis[:, None] + 1j * axis[None, :]).ravel()
    values = wigner(state, pts)
    assert np.all(np.abs(values) <= 2.0 / math.pi + 1e-9)


@pytest.mark.parametrize(
    "state_fn",
    [
        lambda: coherent_fock(0.0, 96),
        lambda: coherent_fock(1.0, 96),
        lambda: cat_reference(1.2, "even", 96),
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


# The CLI's default map size, 41 x 41 points at extent 3, values[i_im][i_re].
# Unlike the CLI's axis (``_cli_grid``), linspace is not exactly
# antisymmetric, so these points are summed unpaired.
_AXIS = np.linspace(-3.0, 3.0, 41)
_GRID = (_AXIS[None, :] + 1j * _AXIS[:, None]).ravel()
_DIAGONAL_ALPHA = -math.sqrt(2.0) * (1.0 + 1.0j)  # |alpha| = 2 towards a grid corner


def _cli_grid(points, extent):
    """The CLI cat's grid, values[i_im][i_re]: +- pairs, but for one point."""
    if points == 1:
        axis = np.array([-extent])
    else:
        axis = extent * np.arange(1 - points, points, 2) / (points - 1)
    return (axis[:, None] * 1j + axis[None, :]).ravel()


@pytest.mark.parametrize("alpha", [2.0, _DIAGONAL_ALPHA], ids=["axis", "diagonal"])
def test_wigner_coherent_closed_form_on_cli_grid(alpha):
    values = wigner(coherent_fock(alpha, 64), _GRID)
    assert np.abs(values - coherent_wigner(alpha, _GRID)).max() <= 1e-12


@pytest.mark.parametrize("kind, sign", [("even", 1.0), ("odd", -1.0)])
def test_wigner_cat_closed_form_on_cli_grid(kind, sign):
    state = cat_reference(_DIAGONAL_ALPHA, kind, 64)
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
        (lambda: cat_reference(_DIAGONAL_ALPHA, "odd", 64).amplitudes, False),
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
    "even-cat": lambda: cat_reference(_DIAGONAL_ALPHA, "even", 64),
    "odd-cat": lambda: cat_reference(_DIAGONAL_ALPHA, "odd", 64),
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
    for grid in (_GRID, _ORACLE_GRID, _cli_grid(41, 3.0), [0.0, 20.0 + 15.0j]):  # the last rescales "flat-200"
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


def _parity_cats():
    amp = np.zeros(16, dtype=complex)
    amp[[1, 5, 9]] = [0.6, 0.48j, -0.64]  # odd photon numbers only
    return {
        "even-cat": cat_reference(_DIAGONAL_ALPHA, "even", 64),
        "odd-cat": cat_reference(_DIAGONAL_ALPHA, "odd", 64),
        "odd-fock": CavityState(amp),
    }


@pytest.mark.parametrize("points", [2, 3, 41])
def test_wigner_of_a_parity_state_is_exactly_inversion_symmetric(points):
    grid = _cli_grid(points, 3.0)
    for name, state in _parity_cats().items():
        values = wigner(state, grid).reshape(points, points)
        assert np.array_equal(values, values[::-1, ::-1]), name


@pytest.mark.parametrize("points", [1, 2, 3, 41])
@pytest.mark.parametrize("extent", [3.0, 25.0])
@pytest.mark.parametrize("dim", [10, 64, 300])
def test_wigner_on_paired_points_matches_the_unpaired_sum(dim, extent, points):
    grid = _cli_grid(points, extent)
    shuffle = np.random.default_rng(dim).permutation(grid.size)
    for seed in (0, 1):
        state = CavityState(_random_amplitudes(10 * dim + seed, dim))  # both order parities
        values = wigner(state, grid)
        assert np.all(np.isfinite(values))
        assert np.abs(values[shuffle] - wigner(state, grid[shuffle])).max() <= 4e-15


def _coherent_sum_wigner(alphas, coefficients, beta):
    """Wigner map of sum_j c_j |alpha_j> from its cross terms, sum_jk c_j conj(c_k)
    (2/pi) <alpha_k|alpha_j> exp(-2 (conj(beta) - conj(alpha_k))(beta - alpha_j))."""
    total = np.zeros(np.shape(beta), dtype=complex)
    for a_j, c_j in zip(alphas, coefficients):
        for a_k, c_k in zip(alphas, coefficients):
            overlap = cmath.exp(-0.5 * abs(a_j) ** 2 - 0.5 * abs(a_k) ** 2 + a_k.conjugate() * a_j)
            total += c_j * c_k.conjugate() * overlap * np.exp(
                -2.0 * (np.conj(beta) - a_k.conjugate()) * (beta - a_j)
            )
    return (2.0 / math.pi) * total.real


@pytest.mark.parametrize("extent", [3.0, 25.0])
@pytest.mark.parametrize(
    "alpha", [0.5, 0.8j, 1.2 * cmath.exp(0.7j), -1.6 + 0.3j, 2.0, _DIAGONAL_ALPHA]
)
def test_wigner_maps_of_cats_match_the_cross_term_closed_form(alpha, extent):
    grid = _cli_grid(41, extent)
    maps = wigner_maps([cat_reference(alpha, "even", 64), cat_reference(alpha, "odd", 64)], grid)
    overlap = math.exp(-2.0 * abs(alpha) ** 2)  # <-alpha|alpha>
    for values, sign in zip(maps, (1.0, -1.0)):
        coefficients = np.array([1.0, sign]) / math.sqrt(2.0 + 2.0 * sign * overlap)
        exact = _coherent_sum_wigner([complex(alpha), -complex(alpha)], coefficients, grid)
        assert np.abs(values - exact).max() <= 1e-14


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
