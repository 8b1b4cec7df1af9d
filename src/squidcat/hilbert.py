"""Truncated Fock-space linear algebra for a qubit-cavity system.

States live either in the cavity space alone (dimension N) or in the joint
space qubit (x) cavity (dimension 2N).  Joint amplitudes are ordered as
(qubit g, Fock 0..N-1) followed by (qubit e, Fock 0..N-1).  All energies are
stored as angular frequencies (divided by hbar), so propagation times are in
seconds.

Operators are dense (``FockOperator``), except joint Hamiltonians that
commute with sigma_x, which are held as their two sigma_x sectors
(``SectorHamiltonian``): real symmetric tridiagonal blocks after a diagonal
phase gauge, so ``Propagator`` diagonalizes N-level tridiagonal blocks
instead of the dense 2N x 2N matrix.

Wigner maps are summed from the Fock-basis Wigner functions by Clenshaw
recurrence of the associated Laguerre polynomials (Johansson, Nation &
Nori, Comput. Phys. Commun. 184, 1234 (2013)); no state is displaced, so a
map is exact at any grid extent, whatever the truncation (see ``wigner``).

Everything here is a pure function of its inputs; the state and operator
types freeze their arrays after construction and are safe to share across
threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh, eigh_tridiagonal
from scipy.special import gammainc, gammaln

from .errors import DimensionError, HermiticityError, TruncationError

__all__ = [
    "FockOperator",
    "SectorHamiltonian",
    "CavityState",
    "JointState",
    "QUBIT_AMPLITUDES",
    "make_ladder_ops",
    "number_op",
    "coherent_fock",
    "coherent_tail",
    "required_fock_dim",
    "Propagator",
    "propagate",
    "fidelity",
    "wigner",
    "joint_state",
    "top_level_weight",
    "quadrature_covariance",
    "min_quadrature_variance",
]

NORM_TOL = 1e-10
COHERENT_TAIL_TOL = 1e-10
LEAKAGE_THRESHOLD = 1e-8
HERMITICITY_RTOL = 1e-12

_SQ2 = 1.0 / math.sqrt(2.0)

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
class FockOperator:
    """Dense complex operator on the truncated cavity or joint space.

    Entries are dimensionless or in angular-frequency units.  Operators
    tagged ``hamiltonian=True`` must be hermitian within
    max|H - H^dag| <= 1e-12 * max|H|.
    """

    matrix: np.ndarray
    hamiltonian: bool = False

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionError(f"operator matrix must be square, got shape {m.shape}")
        if m.shape[0] < 2:
            raise DimensionError(f"operator dimension must be >= 2, got {m.shape[0]}")
        if self.hamiltonian:
            scale = float(np.abs(m).max())
            if scale > 0.0 and float(np.abs(m - m.conj().T).max()) > HERMITICITY_RTOL * scale:
                raise HermiticityError("operator tagged as Hamiltonian is not hermitian")
        object.__setattr__(self, "matrix", _freeze(m))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class SectorHamiltonian:
    """Joint Hamiltonian I (x) diag(cavity) + sigma_x (x) G B G^dag, held as bands.

    It commutes with sigma_x, and its sigma_x = +-1 sectors are
    H_+- = diag(cavity) +- G B G^dag on N Fock levels.  G = diag(e^(-i n phase))
    is a phase gauge and B is real symmetric: ``coupling_diagonal`` on its
    diagonal and ``coupling_band`` coupling n to n + ``stride``.  So in the
    gauge each sector splits into ``stride`` real symmetric tridiagonal
    chains (``blocks``).  ``matrix`` assembles the dense 2N x 2N joint
    operator in the (g, e) ordering on request.  Hermitian by construction,
    so always tagged as a Hamiltonian.
    """

    cavity: np.ndarray
    coupling_diagonal: np.ndarray
    coupling_band: np.ndarray
    stride: int
    phase: float

    hamiltonian = True

    def __post_init__(self):
        for name in ("cavity", "coupling_diagonal", "coupling_band"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        n = self.cavity.size
        shapes = (self.cavity.shape, self.coupling_diagonal.shape, self.coupling_band.shape)
        if n < 2 or shapes != ((n,), (n,), (n - self.stride,)):
            raise DimensionError(f"inconsistent band shapes {shapes} at stride {self.stride}")

    @property
    def dim(self) -> int:
        return 2 * self.cavity.size

    @property
    def gauge(self) -> np.ndarray:
        """Diagonal of G, e^(-i n phase)."""
        return np.exp(-1j * self.phase * np.arange(self.cavity.size))

    def blocks(self) -> list[tuple[slice, np.ndarray, np.ndarray]]:
        """(rows, diagonal, off-diagonal) of each real tridiagonal block.

        ``rows`` index the gauged sector vector: H_+ on rows 0..N-1, H_- on
        rows N..2N-1, each split into chains of Fock levels n = r mod stride.
        """
        n, step = self.cavity.size, self.stride
        out = []
        for start, sign in ((0, 1.0), (n, -1.0)):
            diagonal = self.cavity + sign * self.coupling_diagonal
            band = sign * self.coupling_band
            for r in range(step):
                out.append((slice(start + r, start + n, step), diagonal[r::step], band[r::step]))
        return out

    @property
    def matrix(self) -> np.ndarray:
        """Dense joint operator [[C, G B G^dag], [G B G^dag, C]] with C = diag(cavity)."""
        b = np.diag(self.coupling_diagonal) + np.diag(self.coupling_band, self.stride)
        b += np.diag(self.coupling_band, -self.stride)
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
        if abs(norm2 - 1.0) > NORM_TOL:
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
        if abs(norm2 - 1.0) > NORM_TOL:
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

    def is_valid(self, leakage_threshold: float = LEAKAGE_THRESHOLD) -> bool:
        return self.leakage < leakage_threshold


def make_ladder_ops(dim: int) -> tuple[FockOperator, FockOperator]:
    """Annihilation and creation operators on the first ``dim`` Fock levels."""
    if dim < 2:
        raise DimensionError(f"Fock truncation must be >= 2, got {dim}")
    a = np.zeros((dim, dim), dtype=complex)
    ns = np.arange(1, dim)
    a[ns - 1, ns] = np.sqrt(ns)
    return FockOperator(a), FockOperator(a.conj().T)


def number_op(dim: int) -> FockOperator:
    """Photon number operator a^dag a."""
    if dim < 2:
        raise DimensionError(f"Fock truncation must be >= 2, got {dim}")
    return FockOperator(np.diag(np.arange(dim, dtype=complex)), hamiltonian=True)


def required_fock_dim(alpha: complex, tail_tol: float = COHERENT_TAIL_TOL) -> int:
    """Smallest truncation whose Poisson tail beyond it is below ``tail_tol``.

    The coherent weight beyond ``dim`` levels, P(X >= dim) for
    X ~ Poisson(|alpha|^2), is the regularized incomplete gamma function
    gammainc(dim, |alpha|^2), evaluated to relative precision with no
    ``1 - sum`` cancellation.
    """
    if not tail_tol > 0.0:
        raise ValueError(f"tail_tol must be positive, got {tail_tol!r}")
    mu = abs(alpha) ** 2
    dim = max(2, math.ceil(mu))
    while gammainc(dim, mu) >= tail_tol:
        dim += 1
    return dim


def coherent_tail(alpha: complex, dim: int) -> float:
    """Weight of the coherent state |alpha> beyond ``dim`` Fock levels.

    Raises TruncationError (with a dimension estimate) when it reaches the
    1e-10 contract.
    """
    tail = float(gammainc(dim, abs(alpha) ** 2))
    if tail >= COHERENT_TAIL_TOL:
        need = required_fock_dim(alpha)
        raise TruncationError(
            f"truncation {dim} insufficient for coherent |alpha|={abs(alpha):.6g} "
            f"(tail {tail:.3e}); need >= {need}",
            required_dim=need,
        )
    return tail


def coherent_fock(alpha: complex, dim: int) -> CavityState:
    """Coherent state with displacement ``alpha`` on ``dim`` Fock levels.

    Amplitudes exp(-|alpha|^2/2) alpha^n / sqrt(n!) are renormalized after
    truncation and the discarded weight is recorded as leakage.  Raises
    TruncationError (with a dimension estimate) when the discarded weight
    would exceed the 1e-10 contract.
    """
    if dim < 2:
        raise DimensionError(f"Fock truncation must be >= 2, got {dim}")
    if alpha == 0:
        v = np.zeros(dim, dtype=complex)
        v[0] = 1.0
        return CavityState(v, leakage=0.0)
    tail = coherent_tail(alpha, dim)
    ns = np.arange(dim)
    logmag = -abs(alpha) ** 2 / 2.0 + ns * math.log(abs(alpha)) - 0.5 * gammaln(ns + 1)
    v = np.exp(logmag + 1j * np.angle(alpha) * ns)
    v /= np.linalg.norm(v)
    return CavityState(v, leakage=tail)


def joint_state(qubit: str | np.ndarray, cavity: CavityState) -> JointState:
    """Tensor a qubit state (name or 2-amplitude vector) with a cavity state."""
    q = QUBIT_AMPLITUDES[qubit] if isinstance(qubit, str) else np.asarray(qubit, dtype=complex)
    if q.size != 2:
        raise DimensionError(f"qubit amplitudes must have length 2, got {q.size}")
    return JointState(np.outer(q, cavity.amplitudes).ravel(), leakage=cavity.leakage)


class Propagator:
    """Repeated-use evolver exp(-i H t) with the eigendecomposition done once.

    It stores a basis change W = Q (x) diag(u), with a 2 x 2 qubit basis Q
    and N cavity phases u, and the diagonal blocks of W^dag H W, each with
    its eigendecomposition.  For a ``SectorHamiltonian`` Q holds the sigma_x
    eigenvectors, u is its gauge, and each sector chain is a real symmetric
    tridiagonal block (``scipy.linalg.eigh_tridiagonal``, O(N^2) for N
    levels); a dense ``FockOperator`` is one block in the identity basis
    (``scipy.linalg.eigh``, O((2N)^3)).  A call applies each block's
    exp(-i H_block t) in its eigenbasis, which preserves the norm to well
    below the 1e-10 unitarity contract and composes exactly over time.
    """

    def __init__(self, hamiltonian: FockOperator | SectorHamiltonian):
        if not hamiltonian.hamiltonian:
            raise HermiticityError("propagation requires a Hamiltonian-tagged operator")
        self.dim = hamiltonian.dim
        if isinstance(hamiltonian, SectorHamiltonian):
            self._qubit_basis, self._gauge = _SECTOR_BASIS, hamiltonian.gauge
            self._blocks = [
                (rows, *eigh_tridiagonal(diagonal, band))
                for rows, diagonal, band in hamiltonian.blocks()
            ]
        else:
            self._qubit_basis, self._gauge = np.eye(2), np.ones(self.dim // 2)
            self._blocks = [(slice(None), *eigh(hamiltonian.matrix))]

    def __call__(self, state: JointState, t: float) -> JointState:
        if self.dim != state.amplitudes.size:
            raise DimensionError(
                f"dimension mismatch: H is {self.dim}, state is {state.amplitudes.size}"
            )
        v = (self._qubit_basis.T @ state.amplitudes.reshape(2, -1)) * self._gauge.conj()
        v = v.ravel()
        for rows, evals, evecs in self._blocks:
            # E^dag v as conj(E^T conj(v)), so E is never copied
            coeffs = _matvec(evecs.T, v[rows].conj()).conj()
            v[rows] = _matvec(evecs, np.exp(-1j * evals * t) * coeffs)
        out = self._qubit_basis @ (v.reshape(2, -1) * self._gauge)
        return JointState(out.ravel(), leakage=state.leakage)


def _matvec(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """m @ v for a complex v; a real m acts on its real and imaginary parts as
    one (n, 2) product, which avoids copying m to complex."""
    if np.iscomplexobj(m):
        return m @ v
    pairs = np.ascontiguousarray(v).view(float).reshape(-1, 2)
    return (m @ pairs).ravel().view(complex)


def propagate(
    hamiltonian: FockOperator | SectorHamiltonian, state: JointState, t: float
) -> JointState:
    """Evolve ``state`` by exp(-i H t).

    ``hamiltonian`` must be tagged hermitian and act on the joint space of
    ``state``.  For many times under one Hamiltonian, build a Propagator
    instead.
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


def _laguerre_series(order: int, x: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Sum over k of coeffs[k] (-1)^k L_k^order(x) / sqrt(binom(k + order, k)) at each x.

    Clenshaw's backward recurrence for the normalized associated Laguerre
    polynomials, so no factorial is formed and none overflows at large
    ``order`` or k.  Needs at least two coefficients.
    """
    k = np.arange(coeffs.size - 1, 1, -1, dtype=float)
    scale = 1.0 / np.sqrt((order + k) * k)
    lower = np.sqrt((k - 1.0) * (order + k - 1.0)) * scale
    centre = (order + 2.0 * k - 1.0) * scale
    y0 = np.full(x.shape, coeffs[-2], dtype=complex)
    y1 = np.full(x.shape, coeffs[-1], dtype=complex)
    steps = zip(coeffs[-3::-1].tolist(), lower.tolist(), centre.tolist(), scale.tolist())
    for c, a, b, s in steps:
        y0, y1 = c - a * y1, y0 - y1 * (b - s * x)
    return y0 - y1 * ((order + 1 - x) / math.sqrt(order + 1))


def wigner(state: CavityState, points) -> np.ndarray:
    """Wigner function W(beta) = (2/pi) <D(beta) Pi D(beta)^dag> at complex points.

    Pi is the photon parity operator, so |W| <= 2/pi everywhere.  The map is
    the sum of rho_mn times the Fock-basis Wigner functions, which are
    associated Laguerre polynomials in |2 beta|^2; each diagonal of rho is
    summed by Clenshaw recurrence over all points at once, and the diagonals
    are combined Horner-style in 2 beta (Johansson, Nation & Nori,
    Comput. Phys. Commun. 184, 1234 (2013)).  No state is displaced, so the
    map is exact to rounding at any grid extent and any truncation, up to
    the points where exp(2|beta|^2) overflows a double (|beta| near 18.8)
    for a state with that many photons.
    """
    amp = state.amplitudes
    n = amp.size
    beta = np.asarray(points, dtype=complex).ravel()
    x = np.abs(2.0 * beta) ** 2
    w = np.full(beta.size, 2.0 * amp[0] * np.conj(amp[-1]))  # the corner rho[0, n - 1]
    for order in range(n - 2, -1, -1):
        rho_diag = amp[: n - order] * amp[order:].conj()  # rho[k, k + order]
        if order:
            rho_diag *= 2.0  # rho[k + order, k] is the conjugate: take Re at the end
        w = _laguerre_series(order, x, rho_diag) + w * (2.0 * beta / math.sqrt(order + 1))
    return (2.0 / math.pi) * w.real * np.exp(-0.5 * x)


def top_level_weight(state: CavityState | JointState, levels: int = 4) -> float:
    """Population in the top ``levels`` Fock levels (both qubit blocks for joint states)."""
    n = state.fock_dim
    probs = np.abs(state.amplitudes) ** 2
    if isinstance(state, JointState):
        probs = probs[:n] + probs[n:]
    return float(probs[n - levels:].sum())


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
