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
Nori, Comput. Phys. Commun. 184, 1234 (2013)): one backward sweep per state
evaluates every diagonal of rho at each distinct radius |2 beta|^2, leaving
out trailing levels and each diagonal's highest entries while they sum
below one rounding floor, and a Horner step in (2 beta)^2 per order
parity combines the diagonals at the points, on half of them when they
come in +- pairs.  Both carry base-2 exponents, so nothing
overflows, and no state is displaced, so a map is exact at any grid extent,
whatever the truncation (see ``wigner_maps``; ``wigner`` is its one-state
case).

A ``Propagator`` built with an ``edge`` propagates only the Fock levels at
or above it, as ``verify`` does for states far from the vacuum, so its
chains are shorter: ``dstevd`` takes 4.9 ms on a first-order chain of 459
levels and 2.0 ms on the 309 levels of its window from level 150 (one BLAS
thread on a 2-vCPU host).

Coherent states are rows of one array, one per displacement, built as one
cumulative product of the steps alpha/sqrt(n) (``coherent_amplitudes``).
Their truncation tails are exact Poisson upper tails, checked for all of them
in one pass and summed over positive terms from Loader's saddle-point form of
the Poisson probability (``coherent_tails``); ``coherent_fock`` is one state.
``top_level_weights`` takes the truncation check of many states in one
reduction, and a ``Propagator`` call evolves one state to one time or bare
joint amplitudes over a time grid, one column per grid time.  This module
needs only numpy unless a ``Propagator`` diagonalizes a Hamiltonian, which
imports ``scipy.linalg``: each tridiagonal chain is one direct call to
LAPACK's ``dstevd`` (``_chain_eigh``, which ``model.hamiltonian`` also uses
for the cosine), and each dense block one ``scipy.linalg.eigh`` call.

Everything here is a pure function of its inputs; the state and Hamiltonian
types freeze their arrays after construction and are safe to share across
threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import MAX_CAVITY_PHASE, MAX_FOCK_DIM, NORM_TOL, TRUNCATION_TOL, WIGNER_TRIM_TOL
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
_FAR_MU = 1380.0  # |alpha|^2 past which exp(-|alpha|^2/2) nears the smallest normal double

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

    def blocks(self, edge: int = 0) -> list[tuple[slice, np.ndarray, np.ndarray | None]]:
        """(rows, main, off) of each real symmetric block of the gauged sectors,
        cut to the Fock levels at or above ``edge``.

        ``rows`` index the gauged sector vector: H_+ on rows 0..N-1, H_- on
        rows N..2N-1.  In band form each sector splits into chains of Fock
        levels n = r mod stride, with ``main`` the diagonal and ``off`` the
        off-diagonal of a tridiagonal block; in dense form ``main`` is the
        whole sector and ``off`` is None.  A cut block is the sector's
        restriction to its levels n >= ``edge``.
        """
        n = self.cavity.size
        out = []
        for start, sign in ((0, 1.0), (n, -1.0)):
            if self.band is None:
                sector = sign * self.coupling
                sector[np.diag_indices(n)] += self.cavity
                out.append((slice(start + edge, start + n), sector[edge:, edge:], None))
                continue
            diagonal = self.cavity + sign * self.coupling
            band, step = sign * self.band, self.stride
            for r in range(step):
                first = edge + (r - edge) % step  # the chain's lowest level >= edge
                rows = slice(start + first, start + n, step)
                out.append((rows, diagonal[first::step], band[first::step]))
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


def _poisson_pmfs(n: int, mus: list[float]) -> list[float]:
    """P(X = n) for X ~ Poisson(mu), one per mean in ``mus``, by Loader's
    saddle-point form, as in R's dpois.

    exp(-stirlerr(n) - bd0(n, mu)) / sqrt(2 pi n) keeps relative precision
    where exp(-mu + n log mu - log n!) loses it to cancellation (C. Loader,
    "Fast and accurate computation of binomial probabilities", 2000).
    stirlerr(n) and sqrt(2 pi n) are formed once for every mean; each mean
    keeps its own ``_bd0`` and ``math.exp``.
    """
    if n == 0:
        return [math.exp(-mu) for mu in mus]
    if n <= 15:
        # stirlerr(n) = log n! - log(sqrt(2 pi n) (n/e)^n), to a few 1e-15 absolute
        stirlerr = math.lgamma(n + 1.0) - (n + 0.5) * math.log(n) + n - _LOG_SQRT_2PI
    else:
        # Stirling's series; the next term is below 1e-16 of the first
        nn = float(n) * n
        stirlerr = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / nn) / nn) / nn) / nn) / n
    root = math.sqrt(2.0 * math.pi * n)
    return [0.0 if mu == 0.0 else math.exp(-stirlerr - _bd0(n, mu)) / root for mu in mus]


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
    terms[:, 0] = _poisson_pmfs(start, mus.tolist())
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
    no ``1 - sum``, formed once per distinct mean (a squeezed verify's labels
    all share |gamma|^2).  A tail that reaches the 1e-10 contract raises
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
    index = {}  # each distinct mean's Poisson law is summed once
    inverse = [index.setdefault(mu, len(index)) for mu in mus.tolist()]
    means = np.fromiter(index, float, len(index))
    tails = _poisson_terms(means, dim, _tail_width(mus.max(initial=0.0))).sum(axis=1)[inverse]
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


def coherent_amplitudes(alphas, dim: int) -> np.ndarray:
    """Coherent states on ``dim`` Fock levels, one row per displacement, in one cumulative product.

    Row k is c_n = c_(n-1) alpha_k/sqrt(n) from c_0 = exp(-|alpha_k|^2/2), so
    no entry exceeds 1, renormalized after truncation; its truncation is not
    checked here (see ``coherent_tails``).  Each row's steps and norm are
    formed as for that state alone: bit for bit the state ``coherent_fock`` builds.
    """
    alphas = np.asarray(alphas, dtype=complex).reshape(-1)
    mus = alphas.real**2 + alphas.imag**2
    rows = np.empty((alphas.size, dim), dtype=complex)
    roots = np.sqrt(np.arange(1.0, dim))
    np.divide(alphas.real[:, None], roots, out=rows.real[:, 1:])
    np.divide(alphas.imag[:, None], roots, out=rows.imag[:, 1:])
    rows[:, 0] = np.exp(-mus / 2.0)
    # A row whose c_0 underflows starts from 1 (renormalizing drops the scale); each block of
    # 480/log2|alpha| levels grows it below 2^480, then an exact power of two brings it below 1.
    far = mus >= _FAR_MU
    if far.any():
        for k in np.flatnonzero(far):
            row, block = rows[k], max(1, int(960.0 / math.log2(mus[k])))
            row[0] = 1.0
            for start in range(0, dim - 1, block):
                part = row[start : start + block + 1]
                np.cumprod(part, out=part)
                row[: start + block + 1] *= math.ldexp(1.0, -max(0, math.frexp(abs(part[-1]))[1]))
        rows[~far] = np.cumprod(rows[~far], axis=1)
    else:
        np.cumprod(rows, axis=1, out=rows)
    # each row's norm as np.linalg.norm takes it, two strided dot products; as
    # a stack of (1 x N) @ (N x 1) products, each runs as that dot in one call
    real, imag = rows.real, rows.imag
    norm2 = real[:, None, :] @ real[:, :, None] + imag[:, None, :] @ imag[:, :, None]
    rows /= np.sqrt(norm2[:, 0])
    return rows


def coherent_fock(alpha: complex, dim: int) -> CavityState:
    """Coherent state with displacement ``alpha`` on ``dim`` Fock levels.

    The one-row case of ``coherent_amplitudes``: amplitudes c_n = c_(n-1)
    alpha/sqrt(n) from c_0 = exp(-|alpha|^2/2), renormalized after truncation,
    with the discarded weight recorded as leakage.  Raises TruncationError
    (with a dimension estimate) when the discarded weight would exceed the
    1e-10 contract.
    """
    if dim < 2:
        raise DimensionError(f"Fock truncation must be >= 2, got {dim}")
    tail = coherent_tails([alpha], dim)[0]
    return CavityState(coherent_amplitudes([alpha], dim)[0], leakage=float(tail))


def joint_state(qubit: str, cavity: CavityState) -> JointState:
    """Tensor a named qubit state (a key of QUBIT_AMPLITUDES) with a cavity state."""
    amplitudes = np.outer(QUBIT_AMPLITUDES[qubit], cavity.amplitudes).ravel()
    return JointState(amplitudes, leakage=cavity.leakage)


def _chain_eigh(main: np.ndarray, off: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and the eigenvectors (as columns) of the real
    symmetric tridiagonal matrix with diagonal ``main`` (two or more levels)
    and off-diagonal ``off``.

    One call to LAPACK's divide-and-conquer ``dstevd`` (Gu & Eisenstat, SIAM
    J. Matrix Anal. Appl. 16, 172 (1995)), the driver that
    ``scipy.linalg.eigh_tridiagonal`` runs by default, without that
    wrapper's argument handling (19-30 % of a solve at 32-89 levels).  The
    result is bit for bit the wrapper's with ``lapack_driver="stevd"``, and
    its two checks are kept: a non-finite entry raises ValueError and a
    failed solve raises LinAlgError.
    """
    # imported here so that only a diagonalization loads scipy
    from scipy.linalg.lapack import dstevd

    if not (np.isfinite(main).all() and np.isfinite(off).all()):
        raise ValueError("array must not contain infs or NaNs")
    evals, evecs, info = dstevd(main, off)
    if info:
        raise np.linalg.LinAlgError(f"dstevd failed with info = {info}")
    return evals, evecs


def _require_resolved_phase(omega: float, times, name: str) -> None:
    """Raise ValueError naming ``name`` and its time t unless omega |t| < MAX_CAVITY_PHASE,
    with t the time of largest |t| (or the first NaN) in ``times``, a time or an array."""
    times = np.asarray(times, dtype=float).reshape(-1)
    if not times.size:
        return
    t = float(times[np.argmax(np.abs(times))])
    phase = omega * abs(t)
    if not phase < MAX_CAVITY_PHASE:
        raise ValueError(
            f"{name} must keep omega |t| below 2^52 rad, where phases e^(-i omega t) "
            f"are still resolved, got {t!r} (omega |t| = {phase:.6g} rad)"
        )


class Propagator:
    """Repeated-use evolver exp(-i H t) with the eigendecomposition done once.

    It stores one basis change W = Q (x) G, with Q the sigma_x eigenvectors
    and G the Hamiltonian's diagonal gauge, and the real symmetric blocks of
    W^dag H W, each with its eigendecomposition: a tridiagonal chain by
    LAPACK's divide-and-conquer ``dstevd`` (``_chain_eigh``: 0.17 / 0.55 /
    1.6 / 4.9 ms at N = 64 / 129 / 237 / 459 for a first-order chain at
    |xi| E_J = 0.5 hbar omega, one BLAS thread on a 2-vCPU host), a dense
    sector by ``scipy.linalg.eigh`` (O(N^3)).  A chain whose band is all zeros (the
    first order at the flux pulse, phi_c = 1) is diagonal: it gets no
    eigensolve, and its exp(-i H_block t) is a phase per level.

    In band form with a constant coupling diagonal c (the first order, at
    any flux) the sigma_x = -1 chains mirror the +1 chains: a chain that is
    tridiagonal (d + c, e) in the + sector is (d - c, -e) in the - sector,
    and (d - c, -e) = S (d + c, e) S - 2c exactly, with S = diag((-1)^k)
    along the chain.  So only the + chains are diagonalized; each - chain
    takes their eigenvalues minus 2c, and their eigenvectors V serve it as
    S V through S applied to the vectors: a call negates alternate entries
    of the - chain's rows before V^T and again after V, which is exact, so
    no second matrix is held.  At the preparation flux c is exactly 0, so
    a - chain has its + chain's eigenvalues bit for bit, and the two share
    one phase table.  Any other coupling (second order, cosine) has both
    sectors diagonalized.

    With an ``edge`` (0 by default, at most N - 2) every block is cut to
    its Fock levels n >= edge (``SectorHamiltonian.blocks``): the evolution
    is that of H restricted to those levels, the rows of a state below the
    edge are dropped on the way in and come out zero, and results keep
    their 2N rows.  A mirrored - chain keeps its rule on the cut chain,
    with S alternating from the chain's first level kept.  The cut is
    exact where the states hold nothing near or below the edge; the
    truncation policy (``analytic.auto_fock_dim``) picks it and checks that.

    ``propagator(state, t)`` evolves one ``JointState`` to one time.  For
    a time grid it takes bare joint amplitudes and returns them, with no
    state built: given a 1-D array of K times, a 1-D array is one state
    evolved to every time and a 2N x K array holds one state per time as
    its columns, the k-th evolved to the k-th time; a 2N x K array with a
    one-element array of times has every column evolved to that time.
    Either way the result is 2N x K.  The states are projected onto each
    eigenbasis once, as the columns of one matrix, and the phases
    exp(-i lambda t_k) of every time are formed once per distinct spectrum
    and applied together.  Each block's exp(-i H_block t) is applied in its
    eigenbasis, which preserves the norm to well below the 1e-10 unitarity
    contract and composes exactly over time.  A non-finite time, a time
    grid given with a ``JointState`` or a scalar time with bare amplitudes,
    or more than one time for a different number of columns, raises
    ValueError, as does a time with omega |t| >= MAX_CAVITY_PHASE (2^52 rad,
    omega the cavity's ``cavity[1]``), where no phase e^(-i omega t) is
    resolved; a state of the wrong size raises DimensionError.
    """

    def __init__(self, hamiltonian: SectorHamiltonian, *, edge: int = 0):
        # Imported here so that only a diagonalization loads scipy
        from scipy.linalg import eigh

        if not 0 <= edge <= hamiltonian.cavity.size - 2:
            raise ValueError(f"edge must be from 0 to {hamiltonian.cavity.size - 2}, got {edge!r}")
        self.dim = hamiltonian.dim
        self._omega = float(hamiltonian.cavity[1])
        self._gauge = hamiltonian.gauge
        blocks = hamiltonian.blocks(edge)
        half = len(blocks) // 2
        coupling = hamiltonian.coupling
        mirror = hamiltonian.band is not None and not (coupling != coupling[0]).any()
        # Each distinct eigenvalue array once; a block is (rows, index of its phase
        # table, eigenvectors, flipped), and a flipped one, a mirrored - chain,
        # holds its + chain's eigenvectors.
        self._spectra = []
        self._blocks = []
        for k, (rows, main, off) in enumerate(blocks):
            flipped = False
            if off is not None and not off.any():
                evals, evecs = main, None
            elif mirror and k >= half:
                _, table, evecs, _ = self._blocks[k - half]
                flipped = True
                if coupling[0] == 0.0:  # the shift -2c is exactly zero: the + chain's table
                    self._blocks.append((rows, table, evecs, flipped))
                    continue
                evals = self._spectra[table] - 2.0 * coupling[0]
            else:
                evals, evecs = eigh(main) if off is None else _chain_eigh(main, off)
            self._spectra.append(evals)
            self._blocks.append((rows, len(self._spectra) - 1, evecs, flipped))

    def __call__(self, state, t):
        times = np.asarray(t, dtype=float)
        bad = times[~np.isfinite(times)]
        if bad.size:
            raise ValueError(f"propagation time must be finite, got {float(bad[0])!r}")
        _require_resolved_phase(self._omega, times, "time")
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
        if state.ndim == 2 and times.size not in (1, state.shape[1]):
            raise ValueError(f"{state.shape[1]} states need as many times or one, got {times.size}")
        if self.dim != state.shape[0]:
            raise DimensionError(f"dimension mismatch: H is {self.dim}, state is {state.shape[0]}")
        columns = state.reshape(self.dim, -1)
        if 0 in (times.size, columns.shape[1]):
            return np.empty((self.dim, 0), dtype=complex)
        return self._evolve(columns, times)

    def _evolve(self, columns: np.ndarray, times: np.ndarray) -> np.ndarray:
        """exp(-i H t_k) on the joint columns (2N x 1 or 2N x K) for K times,
        or on K columns for one time."""
        n = self.dim // 2
        gauge = self._gauge[:, None]
        v = (_SECTOR_BASIS.T @ columns.reshape(2, -1)).reshape(2, n, -1)
        v *= gauge.conj()
        v = v.reshape(self.dim, -1)  # + sector rows, then - sector rows
        tables = [np.exp(-1j * np.outer(evals, times)) for evals in self._spectra]
        out = np.zeros((self.dim, max(times.size, v.shape[1])), dtype=complex)
        for rows, table, evecs, flipped in self._blocks:
            phases, x = tables[table], v[rows]
            if evecs is None:
                out[rows] = phases * x
                continue
            if flipped:  # (S V)^T x = V^T (S x), term by term
                np.negative(x[1::2], out=x[1::2])
            out[rows] = _real_matmul(evecs, phases * _real_matmul(evecs.T, x))
            if flipped:  # (S V) y = S (V y)
                odd = out[rows][1::2]
                np.negative(odd, out=odd)
        sectors = out.reshape(2, n, -1)
        sectors *= gauge
        return (_SECTOR_BASIS @ out.reshape(2, -1)).reshape(self.dim, -1)


def _real_matmul(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """m @ v for a real m and a complex (n, K) v: m acts on the real and
    imaginary parts as one (n, 2K) product, which avoids copying m to complex."""
    pairs = np.ascontiguousarray(v).view(float)
    return (m @ pairs).view(complex)


def fidelity(x: CavityState | JointState, y: CavityState | JointState) -> float:
    """Global-phase-insensitive overlap |<x|y>|^2 of two same-kind states."""
    if type(x) is not type(y):
        raise DimensionError(f"cannot compare {type(x).__name__} with {type(y).__name__}")
    if x.amplitudes.size != y.amplitudes.size:
        raise DimensionError(
            f"dimension mismatch: {x.amplitudes.size} vs {y.amplitudes.size}"
        )
    return float(abs(np.vdot(x.amplitudes, y.amplitudes)) ** 2)


def _laguerre_sweep(amp: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Laguerre series of every diagonal of rho = |amp><amp| at every x.

    ``x`` holds distinct finite radii |2 beta|^2 in ascending order.

    Order L's series is f_L(x) = sum over k of c_k (-1)^k L_k^L(x) /
    sqrt(binom(k + L, k)), with c_k = rho[k, k + L], doubled for L > 0.
    Clenshaw's backward recurrence for these normalized polynomials runs
    over k once, updating the started orders as one (orders x radii) slice
    with real and imaginary parts side by side.  No factorial is formed.

    The entries left out sum to at most WIGNER_TRIM_TOL, in s + 1 equal
    shares (s = amp.size).  The trailing levels J.. are cut while all their
    entries, which sum to b (2 |amp|_1 - b) with b = |amp[J:]|_1, fit in one
    share, so no entry of them is ever formed.  Order L then starts at the
    highest k whose entries |c_k'|, k' >= k, sum above one share.  An order
    left with no entry is exactly 0.  Orders never interact, so they are
    swept in order of descending start, which keeps the started ones a
    prefix slice.

    Each order keeps a base-2 exponent per radius.  Every ``period`` steps
    since the first start, the orders at or above 1 in size are scaled down
    by a power of two, which is exact.  Since |c_k| <= 1 and one step grows
    max(1, |b|) at most by 2 + x + max(centre), ``period`` steps stay below
    2^1000.  Returns (mantissa, exponent) for the orders up to the highest
    one kept, with f_L(x) = mantissa * 2^exponent and max(|Re|, |Im|) of
    each mantissa in [1/2, 1); an order that is exactly zero gets the
    exponent -10^6.
    """
    share = WIGNER_TRIM_TOL / (amp.size + 1)
    beyond = np.cumsum(np.abs(amp[::-1]))[::-1]  # beyond[j]: |amp_j'| summed over j' >= j
    s = np.count_nonzero(beyond * (2.0 * beyond[0] - beyond) > share)
    amp = amp[:s]
    window = np.lib.stride_tricks.sliding_window_view(np.concatenate((amp.conj(), np.zeros(s))), s)
    coeffs = amp[:, None] * window[:s]  # coeffs[k, L] = rho[k, k + L]
    coeffs[:, 1:] *= 2.0  # rho[k + L, k] is the conjugate: take Re at the end
    left = np.cumsum(np.abs(coeffs[::-1]), axis=0)[::-1]  # left[k, L]: |c_k'| summed over k' >= k
    start = np.count_nonzero(left > share, axis=0) - 1  # -1: order left out
    rows = np.flatnonzero(start >= 0)[-1] + 1
    start = start[:rows]
    perm = np.argsort(-start, kind="stable")
    first, m = start[perm[0]], x.size
    active = np.cumsum(np.bincount(start[start >= 0])[::-1])[::-1]  # active[k]: starts >= k
    order = perm.astype(float)
    coeffs = coeffs[: first + 1, :rows].take(perm, axis=1).view(float).reshape(first + 1, rows, 2)
    n = np.arange(1.0, first + 3.0)[:, None]  # the polynomial index k + 1 of step k
    scale = 1.0 / np.sqrt((order + n) * n)
    centre = (order + 2.0 * n[:-1] - 1.0) * scale[:-1]
    minus_lower = -np.sqrt(n[:-1] * (order + n[:-1])) * scale[1:]
    period = max(1, int(1000.0 / math.log2(2.0 + x[-1] + centre.max())))
    rescales = range(first + 1 - period, 0, -period)  # the steps after which orders are scaled down

    b1 = np.zeros((rows, 2, m))  # b_(k+1), then b_k
    b2 = np.zeros((rows, 2, m))  # b_(k+2), overwritten by b_k
    work = np.empty((rows, 2, m))
    t = np.empty((rows, m))
    exponent = np.zeros((rows, m), dtype=int)
    shrink = None  # 2^-exponent, once the orders have been scaled down
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
            size = np.maximum(np.abs(b1[:a]).max(axis=1), np.abs(b2[:a]).max(axis=1))
            shift = -np.maximum(np.frexp(size)[1], 0)
            for b in (b1, b2):
                np.ldexp(b[:a], shift[:, None], out=b[:a])
            exponent[:a] -= shift
            shrink = np.ldexp(1.0, -exponent)
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
    return mantissa, exponent


def _parity_series(terms, exponent, parity, x, log2x, radius, turn):
    """One order parity of the Horner sum of ``wigner_maps``, at its points.

    ``terms`` and ``exponent`` hold the orders L = parity, parity + 2, ...
    of ``_laguerre_sweep``; ``terms`` is rescaled in place.  Returns
    (acc, peak, level), each per radius or point, such that the
    parity's part of sum over L of f_L (2 beta)^L / sqrt(L!) is
    acc 2^level[radius], times |2 beta| e^(i arg beta) for the odd parity;
    peak is log2 of the largest |f_L| |2 beta|^L / sqrt(L!) of the parity.
    """
    order = parity + 2.0 * np.arange(terms.shape[0] - 1)  # the orders below the highest
    pair = np.sqrt((order + 1.0) * (order + 2.0))[:, None]
    # acc_L = f_L + acc_(L+2) (2 beta)^2 / sqrt((L + 1)(L + 2)), held as a
    # mantissa times 2^level[L].  level[L] is log2 of the largest
    # |f_L'| |2 beta|^(L' - L) sqrt(L! / L'!) over L' >= L of the parity, so
    # each term of the mantissa sum is at most 2 and each ratio at most 2.
    climb = np.empty_like(exponent, dtype=float)
    climb[0] = 0.5 * log2x if parity else 0.0  # log2 |2 beta|^L / sqrt(L!)
    np.cumsum(log2x - np.log2(pair), axis=0, out=climb[1:])
    climb[1:] += climb[0]
    peak = np.maximum.accumulate((exponent + climb)[::-1], axis=0)[::-1]
    level = np.rint(peak - climb).astype(int)
    for part in (terms.real, terms.imag):  # now f_L = terms 2^level
        np.ldexp(part, exponent - level, out=part)
    ratios = np.ldexp(x / pair, level[1:] - level[:-1])
    ratio = np.empty(radius.size)
    term = np.empty(radius.size, dtype=complex)
    acc = terms[-1, radius]
    for k in range(terms.shape[0] - 2, -1, -1):  # "clip": the indices are in range, and it skips a copy
        acc *= ratios[k].take(radius, out=ratio, mode="clip")
        acc *= turn
        acc += terms[k].take(radius, out=term, mode="clip")
    return acc, peak[0], level[0]


def wigner_maps(states, points) -> list[np.ndarray]:
    """Wigner functions W(beta) = (2/pi) <D(beta) Pi D(beta)^dag> of states at complex points.

    Pi is the photon parity operator, so |W| <= 2/pi everywhere.  A map is
    the sum of rho_mn times the Fock-basis Wigner functions, which are
    associated Laguerre polynomials in x = |2 beta|^2 (Johansson, Nation &
    Nori, Comput. Phys. Commun. 184, 1234 (2013)), summed in two steps:

    - the radii: the Laguerre series of every diagonal of rho depend only
      on x, so one Clenshaw sweep per state evaluates all of them at each
      distinct x (``_laguerre_sweep``).  It leaves out trailing levels and
      the highest entries of each diagonal while the entries left out,
      rho_mn and rho_nm counted apart, sum to at most WIGNER_TRIM_TOL.
      Each Fock cross term (2/pi) <n| D Pi D^dag |m> is at most 2/pi, as
      D Pi D^dag is unitary, so this moves a map by at most
      (2/pi) WIGNER_TRIM_TOL;
    - the points: the diagonals of order L = m - n are combined
      Horner-style in (2 beta)^2, one series per order parity, E over the
      even orders and O over the odd ones (``_parity_series``), and
      W = (2/pi) Re(E + O) exp(-x/2).  A parity with no entry left, such
      as the odd one of any state of definite photon parity, is skipped.

    E is even in beta and O odd, so when the points come in +- pairs
    (``points[::-1] == -points``, as on any grid symmetric about the
    origin; a centre point is its own partner) both series are summed on
    the first half of the points only, and the mirrored half is
    (2/pi) Re(E - O) exp(-x/2).  A state of definite photon parity then
    has W(-beta) = W(beta) exactly.  Other point sets are summed point by
    point.

    The radii, their index per point, exp(2i arg beta) and the pairing are
    formed once per call and shared by the states.  Every sum carries
    base-2 exponents, the two series are brought to one power of two
    before they are added, and exp(-x/2) is applied last, so no
    intermediate overflows, and only negligible ones underflow.  No state
    is displaced, so each map is exact to rounding at any grid extent and
    any truncation.  Each map is the one-state map of ``wigner``.
    Returns one flat map per state, in order; no states give [].
    Raises ValueError if |2 beta|^2 is not finite at some point.
    """
    states = list(states)
    beta = np.asarray(points, dtype=complex).ravel()
    if not states or beta.size == 0:
        return [np.zeros(0) for _ in states]
    n = beta.size
    paired = np.array_equal(beta[::-1], -beta)
    half = (n + 1) // 2 if paired else n
    beta = beta[:half]
    with np.errstate(over="ignore"):
        x, radius = np.unique(np.abs(2.0 * beta) ** 2, return_inverse=True)
    if not np.isfinite(x[-1]):
        raise ValueError(f"Wigner points need a finite |2 beta|^2, got {x[-1]!r}")
    with np.errstate(divide="ignore"):
        log2x = np.maximum(np.log2(x), -2200.0)  # x = 0 at beta = 0
    phase = np.exp(1j * np.angle(beta))
    turn = phase * phase
    maps = []
    for state in states:
        terms, exponent = _laguerre_sweep(state.amplitudes, x)
        even, peak, even_level = _parity_series(terms[::2], exponent[::2], 0, x, log2x, radius, turn)
        has_odd = terms[1::2].any()
        if has_odd:
            odd, odd_peak, odd_level = _parity_series(
                terms[1::2], exponent[1::2], 1, x, log2x, radius, turn
            )
            peak = np.maximum(peak, odd_peak)
        # 2^level exp(-x/2) is about the largest |f_L| |2 beta|^L / sqrt(L!) exp(-x/2),
        # the size of an order's part of W, at most 2.  It is formed as
        # 2^(level - q) exp(q ln 2 - x/2), with q > 0 only where exp(-x/2)
        # alone underflows, and q at most level + 2000, past which both do.
        level = np.rint(peak).astype(int)
        q = np.clip(np.ceil((0.5 * x - 700.0) / math.log(2.0)), 0.0, level + 2000.0)
        scale = np.ldexp(np.exp(q * math.log(2.0) - 0.5 * x), level - q.astype(int))
        scale *= 2.0 / math.pi
        values = np.empty(n)
        front = even.real * np.ldexp(scale, even_level - level)[radius]
        if has_odd:  # odd_level - level <= 1 - log2 |2 beta|, so this is at most 2 scale
            odd *= phase
            odd = odd.real * (np.ldexp(np.sqrt(x), odd_level - level) * scale)[radius]
            if paired:
                values[n - half :] = (front - odd)[::-1]
            front += odd  # a centre point is beta = 0, where odd is 0
        elif paired:
            values[n - half :] = front[::-1]
        values[:half] = front
        maps.append(values)
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
