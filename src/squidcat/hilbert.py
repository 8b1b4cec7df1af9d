"""Truncated Fock-space linear algebra for a qubit-cavity system.

States live either in the cavity space alone (dimension N) or in the joint
space qubit (x) cavity (dimension 2N).  Joint amplitudes are ordered as
(qubit g, Fock 0..N-1) followed by (qubit e, Fock 0..N-1).  All energies are
stored as angular frequencies (divided by hbar), so propagation times are in
seconds.

Every Hamiltonian of the package commutes with sigma_x, and is held as its
two sigma_x sectors (``SectorHamiltonian``): after a diagonal phase gauge
each sector is real symmetric, either banded (one or two tridiagonal
chains) or one dense N x N block.  ``Propagator`` diagonalizes those
N-level blocks, never the dense 2N x 2N joint matrix.

Wigner maps are summed from the Fock-basis Wigner functions by Clenshaw
recurrence of the associated Laguerre polynomials (Johansson, Nation &
Nori, Comput. Phys. Commun. 184, 1234 (2013)): one backward sweep evaluates
every diagonal of rho, for every state of the call, at each distinct
radius |2 beta|^2, leaving out trailing levels and each diagonal's highest
entries while they sum below one rounding floor, and a Horner step in
2 beta combines each state's diagonals at the points.  Both carry base-2
exponents, so nothing overflows, and no state is displaced, so a map is
exact at any grid extent, whatever the truncation (see ``wigner_maps``;
``wigner`` is its one-state case).

Coherent states are built as rows of one array, one per displacement, in
one broadcast exp (``coherent_amplitudes``), and their truncation tails are
exact Poisson upper tails, checked for all of them in one pass and summed
over positive terms from Loader's saddle-point form of the Poisson
probability (``coherent_tails``); ``coherent_fock`` is the one-state case.
``top_level_weights`` takes the truncation check of many states in one
reduction, and a ``Propagator`` call evolves one state to one time or bare
joint amplitudes over a time grid, one column per grid time.  This module
needs only numpy unless a ``Propagator`` diagonalizes a Hamiltonian, which
imports ``scipy.linalg``.

Everything here is a pure function of its inputs; the state and Hamiltonian
types freeze their arrays after construction and are safe to share across
threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import MAX_FOCK_DIM, NORM_TOL, TRUNCATION_TOL, WIGNER_TRIM_TOL
from .errors import DimensionError, TruncationError

__all__ = [
    "SectorHamiltonian",
    "CavityState",
    "JointState",
    "QUBIT_AMPLITUDES",
    "coherent_fock",
    "coherent_tails",
    "coherent_amplitudes",
    "required_fock_dim",
    "Propagator",
    "propagate",
    "fidelity",
    "wigner",
    "wigner_maps",
    "joint_state",
    "top_level_weight",
    "top_level_weights",
    "quadrature_covariance",
    "min_quadrature_variance",
]

_SQ2 = 1.0 / math.sqrt(2.0)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_LOG_FACTORIALS = np.zeros(0)

QUBIT_AMPLITUDES = {
    "g": np.array([1.0, 0.0], dtype=complex),
    "e": np.array([0.0, 1.0], dtype=complex),
    "+": np.array([_SQ2, _SQ2], dtype=complex),
    "-": np.array([_SQ2, -_SQ2], dtype=complex),
}
_SECTOR_BASIS = np.column_stack((QUBIT_AMPLITUDES["+"], QUBIT_AMPLITUDES["-"])).real


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=complex)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class SectorHamiltonian:
    """Joint Hamiltonian I (x) diag(cavity) + sigma_x (x) G B G^dag, held by sigma_x sector.

    It commutes with sigma_x, and its sigma_x = +-1 sectors are
    H_+- = diag(cavity) +- G B G^dag on N Fock levels.  G = diag(e^(-i n phase))
    is a phase gauge and B is real symmetric, held in one of two forms:

    - bands: ``coupling`` is the diagonal of B and ``band`` couples n to
      n + ``stride``, so in the gauge each sector splits into ``stride`` real
      symmetric tridiagonal chains;
    - dense: ``coupling`` is the whole N x N block B and ``band`` is None,
      so each sector is one dense real symmetric block.

    ``matrix`` assembles the dense 2N x 2N joint operator in the (g, e)
    ordering on request.  Hermitian by construction.
    """

    cavity: np.ndarray
    coupling: np.ndarray
    phase: float
    band: np.ndarray | None = None
    stride: int = 1

    def __post_init__(self):
        for name in ("cavity", "coupling", "band"):
            if getattr(self, name) is not None:
                arr = np.array(getattr(self, name), dtype=float)
                arr.setflags(write=False)
                object.__setattr__(self, name, arr)
        n = self.cavity.size
        if self.band is None:
            shapes, wanted = (self.cavity.shape, self.coupling.shape), ((n,), (n, n))
        else:
            shapes = (self.cavity.shape, self.coupling.shape, self.band.shape)
            wanted = ((n,), (n,), (n - self.stride,))
        if n < 2 or shapes != wanted:
            raise DimensionError(f"inconsistent sector shapes {shapes} at stride {self.stride}")

    @property
    def dim(self) -> int:
        return 2 * self.cavity.size

    @property
    def gauge(self) -> np.ndarray:
        """Diagonal of G, e^(-i n phase)."""
        return np.exp(-1j * self.phase * np.arange(self.cavity.size))

    def blocks(self) -> list[tuple[slice, np.ndarray, np.ndarray | None]]:
        """(rows, main, off) of each real symmetric block of the gauged sectors.

        ``rows`` index the gauged sector vector: H_+ on rows 0..N-1, H_- on
        rows N..2N-1.  In band form each sector splits into chains of Fock
        levels n = r mod stride, with ``main`` the diagonal and ``off`` the
        off-diagonal of a tridiagonal block; in dense form ``main`` is the
        whole N x N sector and ``off`` is None.
        """
        n = self.cavity.size
        out = []
        for start, sign in ((0, 1.0), (n, -1.0)):
            if self.band is None:
                sector = sign * self.coupling
                sector[np.diag_indices(n)] += self.cavity
                out.append((slice(start, start + n), sector, None))
                continue
            diagonal = self.cavity + sign * self.coupling
            band, step = sign * self.band, self.stride
            for r in range(step):
                out.append((slice(start + r, start + n, step), diagonal[r::step], band[r::step]))
        return out

    @property
    def matrix(self) -> np.ndarray:
        """Dense joint operator [[C, G B G^dag], [G B G^dag, C]] with C = diag(cavity)."""
        if self.band is None:
            b = self.coupling
        else:
            b = np.diag(self.coupling) + np.diag(self.band, self.stride)
            b += np.diag(self.band, -self.stride)
        g = self.gauge
        coupling = b * np.outer(g, g.conj())
        cavity = np.diag(self.cavity)
        return _freeze(np.block([[cavity, coupling], [coupling, cavity]]))


@dataclass(frozen=True)
class CavityState:
    """Pure state of the cavity mode over the first ``fock_dim`` levels.

    ``leakage`` records the norm weight estimated to lie beyond the
    truncation for whatever construction produced the state.
    """

    amplitudes: np.ndarray
    leakage: float = 0.0

    def __post_init__(self):
        v = np.array(self.amplitudes, dtype=complex).ravel()
        if v.size < 2:
            raise DimensionError(f"cavity state needs at least 2 levels, got {v.size}")
        norm2 = float(np.real(np.vdot(v, v)))
        if not abs(norm2 - 1.0) <= NORM_TOL:
            raise ValueError(f"cavity state not normalized: |amplitudes|^2 = {norm2!r}")
        object.__setattr__(self, "amplitudes", _freeze(v))

    @property
    def fock_dim(self) -> int:
        return self.amplitudes.size


@dataclass(frozen=True)
class JointState:
    """Pure state of qubit (x) cavity, amplitudes ordered g-block then e-block."""

    amplitudes: np.ndarray
    leakage: float = 0.0

    def __post_init__(self):
        v = np.array(self.amplitudes, dtype=complex).ravel()
        if v.size < 4 or v.size % 2 != 0:
            raise DimensionError(f"joint state needs even length >= 4, got {v.size}")
        norm2 = float(np.real(np.vdot(v, v)))
        if not abs(norm2 - 1.0) <= NORM_TOL:
            raise ValueError(f"joint state not normalized: |amplitudes|^2 = {norm2!r}")
        object.__setattr__(self, "amplitudes", _freeze(v))

    @property
    def fock_dim(self) -> int:
        return self.amplitudes.size // 2

    def qubit_block(self, outcome: str) -> np.ndarray:
        n = self.fock_dim
        if outcome == "g":
            return self.amplitudes[:n]
        if outcome == "e":
            return self.amplitudes[n:]
        raise ValueError(f"unknown qubit outcome {outcome!r}")


def _poisson_pmf(n: int, mu: float) -> float:
    """P(X = n) for X ~ Poisson(mu) by Loader's saddle-point form, as in R's dpois.

    exp(-stirlerr(n) - bd0(n, mu)) / sqrt(2 pi n) keeps relative precision
    where exp(-mu + n log mu - log n!) loses it to cancellation (C. Loader,
    "Fast and accurate computation of binomial probabilities", 2000).
    """
    if n == 0:
        return math.exp(-mu)
    if mu == 0.0:
        return 0.0
    if n <= 15:
        # stirlerr(n) = log n! - log(sqrt(2 pi n) (n/e)^n), to a few 1e-15 absolute
        stirlerr = math.lgamma(n + 1.0) - (n + 0.5) * math.log(n) + n - _LOG_SQRT_2PI
    else:
        # Stirling's series; the next term is below 1e-16 of the first
        nn = float(n) * n
        stirlerr = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / nn) / nn) / nn) / nn) / n
    return math.exp(-stirlerr - _bd0(n, mu)) / math.sqrt(2.0 * math.pi * n)


def _bd0(x: float, m: float) -> float:
    """The deviance x log(x/m) + m - x, by its series in (x - m)/(x + m) near x = m."""
    if abs(x - m) >= 0.1 * (x + m):
        return x * math.log(x / m) + m - x
    v = (x - m) / (x + m)
    total, power, v2, j = (x - m) * v, 2.0 * x * v, v * v, 1
    while True:
        power *= v2
        step = total + power / (2 * j + 1)
        if step == total:
            return total
        total, j = step, j + 1


def _tail_width(mu: float) -> int:
    """Terms summed past the largest one: beyond them the Poisson(mu) terms
    fall below about e^-72 of it."""
    return math.ceil(12.0 * math.sqrt(mu)) + 60


def _poisson_terms(mus: np.ndarray, start: int, width: int) -> np.ndarray:
    """P(X = n) for X ~ Poisson(mu), n = start .. start + width - 1, one row per mean in ``mus``.

    Every mean is at most ``start``, so the largest term of a row is its
    first, from Loader's form; the others come from it by the ratio
    P(X = n + 1) / P(X = n) = mu / (n + 1), all rows in one cumulative
    product, so they fall away from it and none underflows before it is
    negligible.
    """
    terms = np.empty((mus.size, width))
    terms[:, 0] = [_poisson_pmf(start, mu) for mu in mus.tolist()]
    np.divide(mus[:, None], np.arange(start + 1, start + width), out=terms[:, 1:])
    return np.cumprod(terms, axis=1, out=terms)


def required_fock_dim(alpha: complex, tail_tol: float = TRUNCATION_TOL) -> int:
    """Smallest truncation whose Poisson tail beyond it is below ``tail_tol``.

    The coherent weight beyond ``dim`` levels is the Poisson upper tail
    P(X >= dim) for X ~ Poisson(|alpha|^2).  Its terms from
    ceil(|alpha|^2) up come from Loader's saddle-point form of the first
    (``_poisson_terms``), and one reverse cumulative sum gives every tail
    over positive terms, with no ``1 - sum``.  The bracket is widened only
    while the terms left out past it could reach 2^-53 of ``tail_tol``.
    The search starts at max(2, ceil(|alpha|^2)).
    """
    if not tail_tol > 0.0:
        raise ValueError(f"tail_tol must be positive, got {tail_tol!r}")
    mu = abs(alpha) ** 2
    start = max(2, math.ceil(mu))
    width = _tail_width(mu)
    while True:
        tails = np.cumsum(_poisson_terms(np.array([mu]), start, width)[0, ::-1])[::-1]
        # the terms past the last fall at least as fast as this geometric series
        left_out = tails[-1] * mu / (start + width - mu)
        if tails[-1] < tail_tol and left_out <= tail_tol * 2.0**-53:
            return start + int(np.argmax(tails < tail_tol))
        width *= 2


def coherent_tails(alphas, dim: int) -> np.ndarray:
    """Weight of each coherent state |alpha> beyond ``dim`` Fock levels, in one pass.

    That is the Poisson upper tail P(X >= dim) for X ~ Poisson(|alpha|^2).
    A mean photon number |alpha|^2 at or past ``dim`` (its tail is then
    about 1/2 or more), or too large for a double, raises TruncationError
    before any term is summed; its dimension estimate is None when
    |alpha|^2 is past MAX_FOCK_DIM.  Every other mean is below ``dim``, so
    each tail's largest term is P(X = dim), from Loader's saddle-point form,
    and one (alphas x terms) sum over positive terms gives every tail, with
    no ``1 - sum``.  A tail that reaches the 1e-10 contract raises
    TruncationError with a dimension estimate.  Either error names the
    first such alpha in order, as it would alone.
    """
    alphas = np.asarray(alphas, dtype=complex).reshape(-1)
    radii = np.hypot(alphas.real, alphas.imag)
    with np.errstate(over="ignore", invalid="ignore"):
        mus = radii * radii  # inf, not OverflowError, past the float range
    reached = ~(mus < dim)
    if reached.any():
        k = int(np.argmax(reached))
        mu = float(mus[k])
        raise TruncationError(
            f"truncation {dim} insufficient for coherent |alpha|={radii[k]:.6g}: its mean "
            f"photon number {mu:.6g} reaches the truncation",
            required_dim=required_fock_dim(complex(alphas[k])) if mu <= MAX_FOCK_DIM else None,
        )
    tails = _poisson_terms(mus, dim, _tail_width(mus.max(initial=0.0))).sum(axis=1)
    failed = tails >= TRUNCATION_TOL
    if failed.any():
        k = int(np.argmax(failed))
        need = required_fock_dim(complex(alphas[k]))
        raise TruncationError(
            f"truncation {dim} insufficient for coherent |alpha|={radii[k]:.6g} "
            f"(tail {tails[k]:.3e}); need >= {need}",
            required_dim=need,
        )
    return tails


def _log_factorials(n: int) -> np.ndarray:
    """log k! for k = 0 .. n - 1, read from one table that grows on demand."""
    global _LOG_FACTORIALS
    table = _LOG_FACTORIALS
    if table.size < n:
        table = np.array([math.lgamma(k + 1.0) for k in range(max(n, 2 * table.size))])
        table.setflags(write=False)
        _LOG_FACTORIALS = table
    return table[:n]


def coherent_amplitudes(alphas, dim: int) -> np.ndarray:
    """Coherent states on ``dim`` Fock levels, one row per displacement, in one broadcast exp.

    Row k holds exp(-|alpha_k|^2/2) alpha_k^n / sqrt(n!), renormalized after
    truncation; its truncation is not checked here (see ``coherent_tails``).
    Each row's scalars and norm are formed as for that state alone, so a
    row is bit for bit the state ``coherent_fock`` builds.
    """
    alphas = np.asarray(alphas, dtype=complex).reshape(-1)
    radii = [abs(alpha) for alpha in alphas.tolist()]
    centre = np.array([-radius**2 / 2.0 for radius in radii])[:, None]
    slope = np.array([math.log(radius) if radius else 0.0 for radius in radii])[:, None]
    ns = np.arange(dim)
    logmag = centre + ns * slope - 0.5 * _log_factorials(dim)
    rows = np.exp(logmag + 1j * (np.angle(alphas)[:, None] * ns))
    vacuum = [k for k, radius in enumerate(radii) if not radius]
    if vacuum:
        rows[vacuum] = 0.0
        rows[vacuum, 0] = 1.0
    # each row's norm as np.linalg.norm takes it, two strided dot products; as
    # a stack of (1 x N) @ (N x 1) products, each runs as that dot in one call
    real, imag = rows.real, rows.imag
    norm2 = real[:, None, :] @ real[:, :, None] + imag[:, None, :] @ imag[:, :, None]
    rows /= np.sqrt(norm2[:, 0])
    return rows


def coherent_fock(alpha: complex, dim: int) -> CavityState:
    """Coherent state with displacement ``alpha`` on ``dim`` Fock levels.

    The one-row case of ``coherent_amplitudes``: amplitudes
    exp(-|alpha|^2/2) alpha^n / sqrt(n!) are renormalized after truncation
    and the discarded weight is recorded as leakage.  Raises
    TruncationError (with a dimension estimate) when the discarded weight
    would exceed the 1e-10 contract.
    """
    if dim < 2:
        raise DimensionError(f"Fock truncation must be >= 2, got {dim}")
    tail = coherent_tails([alpha], dim)[0]
    return CavityState(coherent_amplitudes([alpha], dim)[0], leakage=float(tail))


def joint_state(qubit: str, cavity: CavityState) -> JointState:
    """Tensor a named qubit state (a key of QUBIT_AMPLITUDES) with a cavity state."""
    amplitudes = np.outer(QUBIT_AMPLITUDES[qubit], cavity.amplitudes).ravel()
    return JointState(amplitudes, leakage=cavity.leakage)


class Propagator:
    """Repeated-use evolver exp(-i H t) with the eigendecomposition done once.

    It stores one basis change W = Q (x) G, with Q the sigma_x eigenvectors
    and G the Hamiltonian's diagonal gauge, and the real symmetric blocks of
    W^dag H W, each with its eigendecomposition: a tridiagonal chain by
    ``scipy.linalg.eigh_tridiagonal`` (O(N^2) for N levels), a dense sector
    by ``scipy.linalg.eigh`` (O(N^3)).  A chain whose band is all zeros (the
    first order at the flux pulse, phi_c = 1) is diagonal: it gets no
    eigensolve, and its exp(-i H_block t) is a phase per level.

    In band form with a constant coupling diagonal c (the first order, at
    any flux) the sigma_x = -1 chains mirror the +1 chains: a chain that is
    tridiagonal (d + c, e) in the + sector is (d - c, -e) in the - sector,
    and (d - c, -e) = S (d + c, e) S - 2c exactly, with S = diag((-1)^k)
    along the chain.  So only the + chains are diagonalized; each - chain
    takes their eigenvalues minus 2c and their eigenvectors with alternate
    rows negated.  Any other coupling (second order, cosine) has both
    sectors diagonalized.

    ``propagator(state, t)`` evolves one ``JointState`` to one time.  For
    a time grid it takes bare joint amplitudes and returns them, with no
    state built: given a 1-D array of K times, a 1-D array is one state
    evolved to every time and a 2N x K array holds one state per time as
    its columns, the k-th evolved to the k-th time; either way the result
    is 2N x K.  The states are projected onto each eigenbasis once, as the
    columns of one matrix, and the phases exp(-i lambda t_k) of every time
    are applied together.  Each block's exp(-i H_block t) is applied in its
    eigenbasis, which preserves the norm to well below the 1e-10 unitarity
    contract and composes exactly over time.  A non-finite time, a time
    grid given with a ``JointState`` or a scalar time with bare amplitudes,
    or columns whose number is not the number of times, raises ValueError;
    a state of the wrong size raises DimensionError.
    """

    def __init__(self, hamiltonian: SectorHamiltonian):
        # Imported here so that only a diagonalization loads scipy
        from scipy.linalg import eigh, eigh_tridiagonal

        self.dim = hamiltonian.dim
        self._gauge = hamiltonian.gauge
        blocks = hamiltonian.blocks()
        half = len(blocks) // 2
        coupling = hamiltonian.coupling
        mirror = hamiltonian.band is not None and not (coupling != coupling[0]).any()
        self._blocks = []
        for k, (rows, main, off) in enumerate(blocks):
            if off is not None and not off.any():
                evals, evecs = main, None
            elif mirror and k >= half:
                _, evals, evecs = self._blocks[k - half]
                evals, evecs = evals - 2.0 * coupling[0], evecs * (-1.0) ** np.arange(evals.size)[:, None]
            else:
                evals, evecs = eigh(main) if off is None else eigh_tridiagonal(main, off)
            self._blocks.append((rows, evals, evecs))

    def __call__(self, state, t):
        times = np.asarray(t, dtype=float)
        bad = times[~np.isfinite(times)]
        if bad.size:
            raise ValueError(f"propagation time must be finite, got {float(bad[0])!r}")
        if isinstance(state, JointState):
            if times.ndim:
                raise ValueError(f"a JointState is evolved to one time, got shape {times.shape}")
            if self.dim != state.amplitudes.size:
                raise DimensionError(
                    f"dimension mismatch: H is {self.dim}, state is {state.amplitudes.size}"
                )
            evolved = self._evolve(state.amplitudes[:, None], times.reshape(1))
            return JointState(evolved[:, 0], leakage=state.leakage)
        if times.ndim != 1:
            raise ValueError(f"joint amplitudes need a 1-D array of times, got shape {times.shape}")
        if state.ndim not in (1, 2):
            raise ValueError(f"joint amplitudes must be 1-D or 2-D, got shape {state.shape}")
        if state.ndim == 2 and state.shape[1] != times.size:
            raise ValueError(f"{state.shape[1]} states need as many times, got {times.size}")
        if self.dim != state.shape[0]:
            raise DimensionError(f"dimension mismatch: H is {self.dim}, state is {state.shape[0]}")
        if times.size == 0:
            return np.empty((self.dim, 0), dtype=complex)
        return self._evolve(state.reshape(self.dim, -1), times)

    def _evolve(self, columns: np.ndarray, times: np.ndarray) -> np.ndarray:
        """exp(-i H t_k) on the joint columns (2N x 1 or 2N x K) for K times."""
        n = self.dim // 2
        gauge = self._gauge[:, None]
        v = (_SECTOR_BASIS.T @ columns.reshape(2, -1)).reshape(2, n, -1) * gauge.conj()
        v = v.reshape(self.dim, -1)  # + sector rows, then - sector rows
        out = np.empty((self.dim, times.size), dtype=complex)
        for rows, evals, evecs in self._blocks:
            phases = np.exp(-1j * np.outer(evals, times))
            if evecs is None:
                out[rows] = phases * v[rows]
            else:
                out[rows] = _real_matmul(evecs, phases * _real_matmul(evecs.T, v[rows]))
        out = _SECTOR_BASIS @ (out.reshape(2, n, -1) * gauge).reshape(2, -1)
        return out.reshape(self.dim, -1)


def _real_matmul(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """m @ v for a real m and a complex (n, K) v: m acts on the real and
    imaginary parts as one (n, 2K) product, which avoids copying m to complex."""
    pairs = np.ascontiguousarray(v).view(float)
    return (m @ pairs).view(complex)


def propagate(hamiltonian: SectorHamiltonian, state: JointState, t: float) -> JointState:
    """Evolve ``state`` by exp(-i H t).

    ``hamiltonian`` must act on the joint space of ``state``.  For many
    times under one Hamiltonian, build a Propagator instead.
    """
    return Propagator(hamiltonian)(state, t)


def fidelity(x: CavityState | JointState, y: CavityState | JointState) -> float:
    """Global-phase-insensitive overlap |<x|y>|^2 of two same-kind states."""
    if type(x) is not type(y):
        raise DimensionError(f"cannot compare {type(x).__name__} with {type(y).__name__}")
    if x.amplitudes.size != y.amplitudes.size:
        raise DimensionError(
            f"dimension mismatch: {x.amplitudes.size} vs {y.amplitudes.size}"
        )
    return float(abs(np.vdot(x.amplitudes, y.amplitudes)) ** 2)


def _laguerre_sweep(amps: list[np.ndarray], x: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """The Laguerre series of every diagonal of rho = |amp><amp|, for each amp, at every x.

    ``x`` holds distinct finite radii |2 beta|^2 in ascending order.

    Order L's series is f_L(x) = sum over k of c_k (-1)^k L_k^L(x) /
    sqrt(binom(k + L, k)), with c_k = rho[k, k + L], doubled for L > 0.
    Clenshaw's backward recurrence for these normalized polynomials runs
    over k once for all the states, updating the started orders of every
    state as one (orders x radii) slice with real and imaginary parts side
    by side.  No factorial is formed.

    Each state's entries left out sum to at most WIGNER_TRIM_TOL, in s + 1
    equal shares (s = amp.size).  The trailing levels J.. are cut while all
    their entries, which sum to b (2 |amp|_1 - b) with b = |amp[J:]|_1, fit
    in one share, so no entry of them is ever formed.  Order L then starts
    at the highest k whose entries |c_k'|, k' >= k, sum above one share.  An
    order left with no entry is exactly 0.  Orders never interact, so the
    orders of all the states are swept in order of descending start, which
    keeps the started ones a prefix slice.

    Each order keeps a base-2 exponent per radius.  Every ``period`` steps
    since its state's first start, the state's orders at or above 1 in size
    are scaled down by a power of two, which is exact.  Since |c_k| <= 1 and
    one step grows max(1, |b|) at most by 2 + x + max(centre), ``period``
    steps stay below 2^1000.  Every state keeps its own share, first start
    and period, so its series are bit for bit those of a sweep of it alone.
    Returns (mantissa, exponent) per state for its orders up to the highest
    one kept, with f_L(x) = mantissa * 2^exponent and max(|Re|, |Im|) of
    each mantissa in [1/2, 1); an order that is exactly zero gets the
    exponent -10^6.
    """
    blocks, starts = [], []
    for amp in amps:
        share = WIGNER_TRIM_TOL / (amp.size + 1)
        beyond = np.cumsum(np.abs(amp[::-1]))[::-1]  # beyond[j]: |amp_j'| summed over j' >= j
        s = np.count_nonzero(beyond * (2.0 * beyond[0] - beyond) > share)
        amp = amp[:s]
        window = np.lib.stride_tricks.sliding_window_view(np.concatenate((amp.conj(), np.zeros(s))), s)
        coeffs = amp[:, None] * window[:s]  # coeffs[k, L] = rho[k, k + L]
        coeffs[:, 1:] *= 2.0  # rho[k + L, k] is the conjugate: take Re at the end
        left = np.cumsum(np.abs(coeffs[::-1]), axis=0)[::-1]  # left[k, L]: |c_k'| summed over k' >= k
        start = np.count_nonzero(left > share, axis=0) - 1  # -1: order left out
        orders = np.flatnonzero(start >= 0)[-1] + 1
        blocks.append(coeffs[:, :orders])
        starts.append(start[:orders])
    counts = [start.size for start in starts]
    start = np.concatenate(starts)
    perm = np.argsort(-start, kind="stable")
    first, rows, m = start[perm[0]], start.size, x.size
    active = np.cumsum(np.bincount(start[start >= 0])[::-1])[::-1]  # active[k]: starts >= k
    owner = np.repeat(np.arange(len(amps)), counts)[perm]
    order = np.concatenate([np.arange(count) for count in counts])[perm].astype(float)
    stacked = np.zeros((first + 1, rows), dtype=complex)
    for block, offset in zip(blocks, np.cumsum([0] + counts)):
        block = block[: first + 1]
        stacked[: block.shape[0], offset : offset + block.shape[1]] = block
    coeffs = stacked.take(perm, axis=1).view(float).reshape(first + 1, rows, 2)
    n = np.arange(1.0, first + 3.0)[:, None]  # the polynomial index k + 1 of step k
    scale = 1.0 / np.sqrt((order + n) * n)
    centre = (order + 2.0 * n[:-1] - 1.0) * scale[:-1]
    minus_lower = -np.sqrt(n[:-1] * (order + n[:-1])) * scale[1:]
    rescales = {}  # step -> the states whose orders are scaled down after it
    for state, own in enumerate(starts):
        own_first = own.max()
        own_centre = centre[: own_first + 1, owner == state].max()
        period = max(1, int(1000.0 / math.log2(2.0 + x[-1] + own_centre)))
        for step in range(own_first + 1 - period, 0, -period):
            rescales.setdefault(step, []).append(state)

    b1 = np.zeros((rows, 2, m))  # b_(k+1), then b_k
    b2 = np.zeros((rows, 2, m))  # b_(k+2), overwritten by b_k
    work = np.empty((rows, 2, m))
    t = np.empty((rows, m))
    exponent = np.zeros((rows, m), dtype=int)
    shrink = None  # 2^-exponent, once an order has been scaled down
    for step in range(first, -1, -1):
        a = active[step]
        coeff = coeffs[step, :a, :, None]
        new = b2[:a]
        new *= minus_lower[step, :a, None, None]
        new += coeff if shrink is None else np.multiply(coeff, shrink[:a, None], out=work[:a])
        np.multiply(scale[step, :a, None], x, out=t[:a])
        np.subtract(centre[step, :a, None], t[:a], out=t[:a])
        new -= np.multiply(t[:a, None], b1[:a], out=work[:a])
        b1, b2 = b2, b1
        if step in rescales:
            due = np.flatnonzero(np.isin(owner[:a], rescales[step]))
            size = np.maximum(np.abs(b1[due]).max(axis=1), np.abs(b2[due]).max(axis=1))
            shift = -np.maximum(np.frexp(size)[1], 0)
            for b in (b1, b2):
                b[due] = np.ldexp(b[due], shift[:, None])
            exponent[due] -= shift
            if shrink is None:
                shrink = np.ones((rows, m))
            shrink[due] = np.ldexp(1.0, -exponent[due])
    del b2, work, t  # freed before the outputs are allocated
    inverse = np.argsort(perm)
    b1, exponent = b1[inverse], exponent[inverse]
    size = np.maximum(np.abs(b1[:, 0]), np.abs(b1[:, 1]))
    shift = np.frexp(size)[1]
    mantissa = np.empty((rows, m), dtype=complex)
    mantissa.real = np.ldexp(b1[:, 0], -shift)
    mantissa.imag = np.ldexp(b1[:, 1], -shift)
    exponent += shift
    exponent[size == 0.0] = -(10**6)
    bounds = np.cumsum(counts)[:-1]
    return list(zip(np.split(mantissa, bounds), np.split(exponent, bounds)))


def wigner_maps(states, points) -> list[np.ndarray]:
    """Wigner functions W(beta) = (2/pi) <D(beta) Pi D(beta)^dag> of states at complex points.

    Pi is the photon parity operator, so |W| <= 2/pi everywhere.  A map is
    the sum of rho_mn times the Fock-basis Wigner functions, which are
    associated Laguerre polynomials in x = |2 beta|^2 (Johansson, Nation &
    Nori, Comput. Phys. Commun. 184, 1234 (2013)), summed in two steps:

    - the radii: the Laguerre series of every diagonal of rho depend only
      on x, so one Clenshaw sweep evaluates all of them, for all the states
      at once, at each distinct x (``_laguerre_sweep``).  It leaves out
      trailing levels and the highest entries of each diagonal while the
      entries left out, rho_mn and rho_nm counted apart, sum to at most
      WIGNER_TRIM_TOL.  Each Fock cross term (2/pi) <n| D Pi D^dag |m> is at
      most 2/pi, as D Pi D^dag is unitary, so this moves a map by at most
      (2/pi) WIGNER_TRIM_TOL;
    - the points: each state's diagonals are combined Horner-style in
      2 beta.

    The grid's radii, their index per point and exp(i arg beta) are formed
    once per call.  Every sum carries base-2 exponents, and exp(-x/2) is
    applied last, so no intermediate overflows, and only negligible ones
    underflow.  No state is displaced, so each map is exact to rounding at
    any grid extent and any truncation.  Orders of different states never
    interact, so each map is bit for bit the one-state map of ``wigner``.
    Returns one flat map per state, in order; no states give [].
    Raises ValueError if |2 beta|^2 is not finite at some point.
    """
    states = list(states)
    beta = np.asarray(points, dtype=complex).ravel()
    if not states or beta.size == 0:
        return [np.zeros(0) for _ in states]
    with np.errstate(over="ignore"):
        x, radius = np.unique(np.abs(2.0 * beta) ** 2, return_inverse=True)
    if not np.isfinite(x[-1]):
        raise ValueError(f"Wigner points need a finite |2 beta|^2, got {x[-1]!r}")
    phase = np.exp(1j * np.angle(beta))
    ratio = np.empty(beta.size)  # each order's Horner operands at the points
    term = np.empty(beta.size, dtype=complex)
    maps = []
    for terms, exponent in _laguerre_sweep([state.amplitudes for state in states], x):
        s = terms.shape[0]  # f_L = terms 2^exponent

        # W = (2/pi) Re(acc_0) exp(-x/2), with acc_L = f_L + acc_(L+1) 2 beta / sqrt(L + 1)
        # held as a mantissa times 2^level[L].  level[L] is log2 of the largest
        # |f_L'| |2 beta|^(L' - L) sqrt(L! / L'!) over L' >= L, so each term of
        # the mantissa sum is at most 2.
        zabs = np.sqrt(x) / np.sqrt(np.arange(1.0, s + 1.0))[:, None]
        with np.errstate(divide="ignore"):
            log2z = np.maximum(np.log2(zabs[:-1]), -1100.0)  # zabs = 0 at beta = 0
        climb = np.zeros_like(zabs)
        np.cumsum(log2z, axis=0, out=climb[1:])
        peak = np.maximum.accumulate((exponent + climb)[::-1], axis=0)[::-1]
        level = np.rint(peak - climb).astype(int)
        for part in (terms.real, terms.imag):  # now f_L = terms 2^level
            np.ldexp(part, exponent - level, out=part)
        ratios = np.ldexp(zabs[:-1], level[1:] - level[:-1])
        acc = terms[-1, radius]
        for order in range(s - 2, -1, -1):  # "clip": the indices are in range, and it skips a copy
            acc *= ratios[order].take(radius, out=ratio, mode="clip")
            acc *= phase
            acc += terms[order].take(radius, out=term, mode="clip")
        # 2^level[0] exp(-x/2) is about the largest |f_L| |2 beta|^L / sqrt(L!) exp(-x/2),
        # the size of an order's part of W, at most 2.  It is formed as
        # 2^(level[0] - q) exp(q ln 2 - x/2), with q > 0 only where exp(-x/2)
        # alone underflows, and q at most level[0] + 2000, past which both do.
        q = np.clip(np.ceil((0.5 * x - 700.0) / math.log(2.0)), 0.0, level[0] + 2000.0)
        scale = np.ldexp(np.exp(q * math.log(2.0) - 0.5 * x), level[0] - q.astype(int))
        maps.append((2.0 / math.pi) * acc.real * scale[radius])
    return maps


def wigner(state: CavityState, points) -> np.ndarray:
    """Wigner function W(beta) = (2/pi) <D(beta) Pi D(beta)^dag> of one state at complex points.

    The one-state case of ``wigner_maps``, which describes the method and
    its bounds.  Raises ValueError if |2 beta|^2 is not finite at some point.
    """
    return wigner_maps([state], points)[0]


def top_level_weights(columns: np.ndarray, blocks: int = 1) -> np.ndarray:
    """Population in the top four Fock levels of every column, in one reduction.

    Each column of ``columns`` is one state made of ``blocks`` qubit blocks
    of N Fock levels (1 for cavity states, 2 for joint ones), and its weight
    sums the top levels of every block.  A state with at most four levels
    has all of them at the top.
    """
    n = columns.shape[0] // blocks
    top = columns.reshape(blocks, n, -1)[:, max(n - 4, 0):]
    return (np.abs(top) ** 2).sum(axis=(0, 1))


def top_level_weight(state: CavityState | JointState) -> float:
    """Population in the top four Fock levels (both qubit blocks for joint states).

    The one-state case of ``top_level_weights``.
    """
    blocks = 2 if isinstance(state, JointState) else 1
    return float(top_level_weights(state.amplitudes[:, None], blocks)[0])


def quadrature_covariance(state: CavityState) -> np.ndarray:
    """Symmetrized covariance matrix of x = (a + a^dag)/sqrt(2), p = -i(a - a^dag)/sqrt(2)."""
    v = state.amplitudes
    dim = v.size
    ns = np.arange(dim)
    av = np.zeros(dim, dtype=complex)
    av[:-1] = np.sqrt(ns[1:]) * v[1:]
    aav = np.zeros(dim, dtype=complex)
    aav[:-2] = np.sqrt(ns[2:] * (ns[2:] - 1)) * v[2:]
    m_a = complex(np.vdot(v, av))
    m_aa = complex(np.vdot(v, aav))
    m_n = float(np.real(np.vdot(av, av)))
    x_mean = math.sqrt(2.0) * m_a.real
    p_mean = math.sqrt(2.0) * m_a.imag
    var_x = m_aa.real + m_n + 0.5 - x_mean**2
    var_p = -m_aa.real + m_n + 0.5 - p_mean**2
    cov_xp = m_aa.imag - x_mean * p_mean
    return np.array([[var_x, cov_xp], [cov_xp, var_p]])


def min_quadrature_variance(state: CavityState) -> float:
    """Smallest quadrature variance over all phase-space directions (vacuum = 1/2)."""
    return float(np.linalg.eigvalsh(quadrature_covariance(state))[0])
