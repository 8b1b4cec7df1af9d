"""Closed-form evolutions of the qubit-cavity system and their state labels.

The linear-coupling Hamiltonian splits over the qubit's sigma_x eigenstates
into driven-oscillator problems, so vacuum or coherent input evolves into
qubit-entangled coherent branches with displacements and phases given in
closed form.  The quadratic Hamiltonian is a squeezing oscillator in each
sector, so coherent input evolves exactly into squeezed coherent branches,
solved from the Heisenberg equations of the mode.  A BranchDecomposition
records those branches symbolically.

``materialize_labels`` is the one materialization path: it turns a list of
labels into an (L x N) array of Fock amplitudes, checking every label's
Poisson tail in one pass, building coherent rows in one broadcast exp and
running Yuen's three-term Fock recurrence once for all squeezed labels.
``materialize_label`` is its one-row case, ``auto_fock_dim`` (the
truncation policy) calls it once per truncation tried.
``materialize_columns`` turns K decompositions into the columns of one
joint Fock-space array, with one norm check per column, for comparison
against brute-force propagation; ``materialize`` is its one-column case.

Neglected global phase factors are carried as metadata, never silently
dropped; all state comparisons are phase-insensitive.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .constants import BRANCH_NORM_TOL, DEFAULT_FOCK_DIM, LABEL_TAIL_TOL, MAX_FOCK_DIM, TRUNCATION_TOL
from .errors import DimensionError, NormalizationError, TruncationError
from .hilbert import (
    QUBIT_AMPLITUDES,
    CavityState,
    JointState,
    coherent_amplitudes,
    coherent_tails,
    required_fock_dim,
    top_level_weights,
)
from .model import Coupling, DeviceParams, require_setting, validity_margin

__all__ = [
    "CoherentLabel",
    "SqueezedLabel",
    "Branch",
    "BranchDecomposition",
    "DisentangledFactors",
    "disentangle",
    "complex_rabi",
    "evolve_vacuum",
    "evolve_coherent",
    "coherent_overlap",
    "superposition_norm2",
    "cat_normalization",
    "cat_state",
    "flux_pi_pulse",
    "squeezed_evolution",
    "materialize_labels",
    "materialize_label",
    "materialize_columns",
    "materialize",
    "auto_fock_dim",
    "branch_decomposition_to_dict",
    "branch_decomposition_from_dict",
]

_SERIES_SWITCH = 0.25
_SERIES_TERMS = 16
_AMPLITUDE_BITS = 480  # log2 bound on a carried Yuen amplitude: a sum of squares stays finite
_QUBIT_ROWS = {name: k for k, name in enumerate(QUBIT_AMPLITUDES)}  # rows of _QUBIT_TABLE
_QUBIT_TABLE = np.array(list(QUBIT_AMPLITUDES.values()))


@dataclass(frozen=True)
class CoherentLabel:
    """Coherent cavity branch: displacement ``alpha`` and accumulated phase (rad)."""

    alpha: complex
    phase: float = 0.0


@dataclass(frozen=True)
class SqueezedLabel:
    """Squeezed coherent branch.

    Materializes as exp(-i*rotation*n) S |gamma> where S is the squeeze
    exponential exp((squeeze*adag^2 - squeeze^* a^2)/2); |squeeze| is the
    squeeze degree r.  ``phase`` is the accumulated branch phase in radians.
    """

    gamma: complex
    squeeze: complex
    rotation: float
    phase: float = 0.0


@dataclass(frozen=True)
class Branch:
    """One term of an entangled decomposition: qubit basis state, weight, cavity label."""

    qubit: str
    weight: complex
    label: CoherentLabel | SqueezedLabel

    def __post_init__(self):
        if self.qubit not in QUBIT_AMPLITUDES:
            raise ValueError(f"qubit must be one of {sorted(QUBIT_AMPLITUDES)}, got {self.qubit!r}")

    @property
    def coefficient(self) -> complex:
        """Weight including the label's accumulated phase factor."""
        return self.weight * cmath.exp(1j * self.label.phase)


@dataclass(frozen=True)
class BranchDecomposition:
    """Entangled qubit-cavity state as a list of weighted analytic branches.

    ``dropped_global_phase`` is a textual record of the overall phase factor
    omitted from the branch weights.
    """

    branches: tuple[Branch, ...]
    dropped_global_phase: str = "1"

    def __post_init__(self):
        object.__setattr__(self, "branches", tuple(self.branches))

    def labels(self) -> list[CoherentLabel | SqueezedLabel]:
        seen = []
        for branch in self.branches:
            if branch.label not in seen:
                seen.append(branch.label)
        return seen


@dataclass(frozen=True)
class DisentangledFactors:
    """Coefficients of the product form exp(f1 adag) exp(f2 n) exp(f3 a) exp(f4)."""

    f1: complex
    f2: complex
    f3: complex
    f4: complex


def _expm1_over_z(z: complex) -> complex:
    """(e^z - 1)/z, series-evaluated below the cancellation region."""
    if abs(z) >= _SERIES_SWITCH:
        return (cmath.exp(z) - 1.0) / z
    total = 0.0 + 0.0j
    for k in range(_SERIES_TERMS, -1, -1):  # sum z^k/(k+1)!
        total = total * z + 1.0 / math.factorial(k + 1)
    return total


def _expm1m_over_z2(z: complex) -> complex:
    """(e^z - z - 1)/z^2, series-evaluated below the cancellation region."""
    if abs(z) >= _SERIES_SWITCH:
        return (cmath.exp(z) - z - 1.0) / (z * z)
    total = 0.0 + 0.0j
    for k in range(_SERIES_TERMS, -1, -1):  # sum z^k/(k+2)!
        total = total * z + 1.0 / math.factorial(k + 2)
    return total


def disentangle(theta: complex, beta1: complex, beta2: complex, beta3: complex) -> DisentangledFactors:
    """Factor exp[theta (beta1 a + beta2 n + beta3 adag)] into normal-ordered exponentials.

    f1 = beta3 (e^z - 1)/beta2, f2 = z, f3 = beta1 (e^z - 1)/beta2,
    f4 = beta1 beta3 (e^z - z - 1)/beta2^2 with z = beta2*theta.  The
    removable singularity at beta2 -> 0 is evaluated by series over the
    whole |z| < 0.25 region, which keeps the exact and series evaluations
    consistent to full precision across any switchover (the naive formulas
    lose about six digits to cancellation already at |z| ~ 1e-6).
    """
    theta = complex(theta)
    beta1, beta2, beta3 = complex(beta1), complex(beta2), complex(beta3)
    z = beta2 * theta
    growth = theta * _expm1_over_z(z)  # (e^z - 1)/beta2
    f4 = beta1 * beta3 * theta * theta * _expm1m_over_z2(z)
    return DisentangledFactors(f1=beta3 * growth, f2=z, f3=beta1 * growth, f4=f4)


def complex_rabi(params: DeviceParams, coupling: Coupling) -> complex:
    """Complex qubit-field drive rate xi^* E_J / hbar in rad/s."""
    return np.conj(coupling.xi) * params.ej_rate


def _kappa(params: DeviceParams, coupling: Coupling) -> complex:
    """Displacement scale of the drive: complex rabi over cavity frequency."""
    return complex_rabi(params, coupling) / params.omega_cavity


def _dropped_phase_record(kappa: complex, omega_tau: float) -> str:
    angle = abs(kappa) ** 2 * (omega_tau - math.sin(omega_tau))
    return f"exp(1j*{angle:.17g})"


def evolve_coherent(
    params: DeviceParams, coupling: Coupling, alpha_prime: complex, tau1: float
) -> BranchDecomposition:
    """Evolve an injected coherent state (x) qubit ground under the linear coupling.

    Requires the preparation setting n_g = 1/2, phi_c_ratio = 1/2.  The two
    sigma_x sectors displace the field to
    alpha_pm = alpha' e^(-i w tau) +- kappa (e^(-i w tau) - 1) and pick up
    branch phases +-phi with phi = Im[kappa conj(alpha') (1 - e^(i w tau))];
    the common phase exp(i |kappa|^2 (w tau - sin w tau)) is recorded as
    dropped.
    """
    require_setting(params, 0.5, "preparation")
    omega = params.omega_cavity
    kappa = _kappa(params, coupling)
    alpha_prime = complex(alpha_prime)
    omega_tau = omega * tau1
    rot = cmath.exp(-1j * omega_tau)
    alpha_plus = alpha_prime * rot + kappa * (rot - 1.0)
    alpha_minus = alpha_prime * rot - kappa * (rot - 1.0)
    phi = (kappa * np.conj(alpha_prime) * (1.0 - cmath.exp(1j * omega_tau))).imag
    label_plus = CoherentLabel(alpha=alpha_plus, phase=phi)
    label_minus = CoherentLabel(alpha=alpha_minus, phase=-phi)
    branches = (
        Branch("g", 0.5, label_plus),
        Branch("g", 0.5, label_minus),
        Branch("e", 0.5, label_plus),
        Branch("e", -0.5, label_minus),
    )
    return BranchDecomposition(branches, _dropped_phase_record(kappa, omega_tau))


def evolve_vacuum(params: DeviceParams, coupling: Coupling, tau: float) -> BranchDecomposition:
    """Evolve vacuum (x) qubit ground under the linear coupling.

    Special case of ``evolve_coherent`` with no injected field: an even/odd
    cat entangled with the charge states, displacement
    alpha = kappa (e^(-i w tau) - 1).
    """
    return evolve_coherent(params, coupling, 0.0, tau)


def _overlap_exponent(x: complex, y: complex) -> complex:
    """log <x|y> = -|x - y|^2/2 + i Im(conj(x) y) of the coherent states |x> and |y>."""
    distance = abs(x - y)
    return complex(-distance * distance / 2.0, (x.conjugate() * y).imag)


def coherent_overlap(
    x: CoherentLabel | complex, y: CoherentLabel | complex
) -> complex:
    """Overlap <x|y> = exp(-|x - y|^2/2 + i Im(conj(x) y)) of two coherent states."""
    ax = complex(x.alpha if isinstance(x, CoherentLabel) else x)
    ay = complex(y.alpha if isinstance(y, CoherentLabel) else y)
    return cmath.exp(_overlap_exponent(ax, ay))


def superposition_norm2(terms) -> float:
    """Squared norm of sum_j c_j |a_j> over (c_j, a_j) pairs of coherent states.

    The Gram sum sum_jk conj(c_j) c_k <a_j|a_k> is formed as
    |sum_j c_j|^2 + sum_jk conj(c_j) c_k expm1(z_jk), with z_jk = log <a_j|a_k>,
    so close displacements lose no digits to cancellation: an odd cat's
    norm is then its exact 2 - 2 e^(-2|alpha|^2) to rounding at any |alpha|.
    """
    terms = [(complex(c), complex(a)) for c, a in terms]
    total = abs(sum(c for c, _ in terms)) ** 2
    for cj, aj in terms:
        for ck, ak in terms:
            z = _overlap_exponent(aj, ak)
            total += (cj.conjugate() * ck * z * _expm1_over_z(z)).real
    return total


def cat_normalization(alpha: complex, parity: str) -> float:
    """Normalization constant 1/sqrt(2 +- 2 e^(-2|alpha|^2)) of a coherent-state cat.

    The odd norm is formed as -2 expm1(-2|alpha|^2), which keeps its
    relative precision as |alpha| -> 0.
    """
    if parity not in ("even", "odd"):
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    if parity == "even":
        return 1.0 / math.sqrt(2.0 + 2.0 * math.exp(-2.0 * abs(alpha) ** 2))
    norm2 = -2.0 * math.expm1(-2.0 * abs(alpha) ** 2)
    if norm2 == 0.0:
        raise ValueError(f"odd cat at |alpha| = {abs(alpha)!r} is the null state")
    return 1.0 / math.sqrt(norm2)


def cat_state(alpha: complex, parity: str, fock_dim: int | None = None) -> CavityState:
    """Normalized even or odd superposition of |alpha> and |-alpha>."""
    const = cat_normalization(alpha, parity)
    labels = (CoherentLabel(alpha), CoherentLabel(-alpha))
    distinct = list(dict.fromkeys(labels))  # one label at alpha = 0
    if fock_dim is None:
        rows, leakages = auto_fock_dim(distinct)[1]
    else:
        rows, leakages = materialize_labels(distinct, fock_dim)
    plus, minus = (distinct.index(label) for label in labels)
    sign = 1.0 if parity == "even" else -1.0
    v = const * (rows[plus] + sign * rows[minus])
    norm = np.linalg.norm(v)
    leakage = float(leakages[plus] + leakages[minus]) + abs(1.0 - norm**2)
    return CavityState(v / norm, leakage=leakage)


def flux_pi_pulse(
    state: BranchDecomposition, params: DeviceParams, sign: int = 1
) -> BranchDecomposition:
    """Apply the flux pulse that rotates the qubit about x by a Bloch angle pi/2.

    With the classical flux at one flux quantum the field-qubit coupling is
    off and the generator is the bare Josephson term, so the pulse of
    duration hbar*pi/(4 E_J) acts as exp(-i (pi/4) sigma_x * sign) on the
    qubit while the cavity labels rotate freely by omega * t_pulse.  On the
    sigma_x eigenbranches this shifts the accumulated branch phases by
    -sign*pi/4; it cannot change which cavity labels pair with the
    eigenbranches.
    """
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    if any(branch.qubit not in ("g", "e") for branch in state.branches):
        raise ValueError("flux pulse requires a decomposition over g/e branches")
    if any(not isinstance(branch.label, CoherentLabel) for branch in state.branches):
        raise ValueError("flux pulse supports coherent-label decompositions only")

    t_pulse = math.pi / (4.0 * params.ej_rate)
    free_rot = cmath.exp(-1j * params.omega_cavity * t_pulse)
    cos_half = math.cos(math.pi / 4.0)
    mix = -1j * sign * math.sin(math.pi / 4.0)

    grouped: dict[CoherentLabel, dict[str, complex]] = {}
    order: list[CoherentLabel] = []
    for branch in state.branches:
        if branch.label not in grouped:
            grouped[branch.label] = {"g": 0.0, "e": 0.0}
            order.append(branch.label)
        grouped[branch.label][branch.qubit] += branch.weight

    new_branches: list[Branch] = []
    for label in order:
        w_g = grouped[label]["g"]
        w_e = grouped[label]["e"]
        rotated = replace(label, alpha=label.alpha * free_rot)
        for qubit, weight in (("g", cos_half * w_g + mix * w_e), ("e", mix * w_g + cos_half * w_e)):
            if weight != 0:
                new_branches.append(Branch(qubit, weight, rotated))
    return BranchDecomposition(tuple(new_branches), state.dropped_global_phase)


def _sector_label(
    omega: float, lam: complex, shift: float, gamma: complex, t: float
) -> SqueezedLabel:
    """Exact label of exp(-i H t)|gamma> for H = omega n + (lam a^2 + lam^* adag^2)/2 + shift.

    The Heisenberg solution is U^dag a U = u a + v adag with
    u = cos(w t) - i omega sin(w t)/w and v = -i lam^* sin(w t)/w, where
    w = sqrt(omega^2 - |lam|^2) is a complex root (sin(w t)/w = t at w = 0),
    so one expression covers the oscillating, critical and unstable cases.
    U = exp(i phase) exp(-i rotation n) S(squeeze) with rotation = arg conj(u)
    and squeeze = asinh|v| e^(i(arg v + rotation)).  The phase follows from
    the su(1,1) vacuum amplitude <0|U|gamma>, which carries conj(u)^(-1/2)
    times exp(i(omega/2 - shift) t) (Truax, Phys. Rev. D 31, 1988 (1985)):
    phase = (omega t - rotation)/2 - shift t, with arg conj(u) unwrapped
    continuously in t from conj(u(0)) = 1 rather than taken as a principal value.
    """
    w = cmath.sqrt((omega - abs(lam)) * (omega + abs(lam)))
    sin_over_w = t if w == 0 else cmath.sin(w * t) / w
    u_bar = cmath.cos(w * t).conjugate() + 1j * omega * sin_over_w.conjugate()
    v = -1j * lam.conjugate() * sin_over_w
    # arg conj(u) stays within pi/2 of sign(omega) Re(w) t, so that reference unwraps it.
    principal = cmath.phase(u_bar)
    reference = math.copysign(1.0, omega) * w.real * t
    rotation = principal + 2.0 * math.pi * round((reference - principal) / (2.0 * math.pi))
    squeeze = math.asinh(abs(v)) * cmath.exp(1j * (cmath.phase(v) + rotation))
    phase = (omega * t - rotation) / 2.0 - shift * t
    return SqueezedLabel(gamma=gamma, squeeze=squeeze, rotation=rotation, phase=phase)


def squeezed_evolution(
    params: DeviceParams, coupling: Coupling, gamma: complex, t: float
) -> BranchDecomposition:
    """Evolve a coherent state (x) qubit ground under the quadratic coupling.

    Requires n_g = 1/2 and phi_c_ratio = 0.  The sigma_x = s sector
    (s = +-1) is the squeezing oscillator
    H_s = Omega_s n + (lam_s a^2 + lam_s^* adag^2)/2 + c_s with
    Omega_s = omega - s |xi|^2 E_J/hbar, lam_s = -s xi^2 E_J/hbar and
    c_s = -s E_J (1 + |xi|^2/2)/hbar.  Each sector's branch is its exact
    squeezed coherent state (``_sector_label``) at any coupling and time;
    its squeeze degree is asinh|lam_s sin(w_s t)/w_s| with
    w_s = sqrt(Omega_s^2 - |lam_s|^2), which stays below asinh(|lam_s|/w_s)
    in a stable sector and grows without bound where |lam_s| >= |Omega_s|.
    """
    require_setting(params, 0.0, "squeezed evolution")
    gamma = complex(gamma)
    t = float(t)
    photons = abs(gamma) * abs(gamma)  # inf, where abs(gamma) ** 2 would raise OverflowError
    validity_margin(coupling, math.ceil(photons) if math.isfinite(photons) else photons)

    omega = params.omega_cavity
    ej = params.ej_rate
    xi = coupling.xi
    xi2 = abs(xi) ** 2
    label_plus, label_minus = (
        _sector_label(omega - s * xi2 * ej, -s * xi**2 * ej, -s * ej * (1.0 + xi2 / 2.0), gamma, t)
        for s in (1, -1)
    )
    branches = (
        Branch("g", 0.5, label_plus),
        Branch("g", 0.5, label_minus),
        Branch("e", 0.5, label_plus),
        Branch("e", -0.5, label_minus),
    )
    return BranchDecomposition(branches)


def _squeezed_rows(labels: list[SqueezedLabel], fock_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Fock rows of squeezed labels, all at once: (L x fock_dim) amplitudes and L leakages.

    A label exp(-i rotation n) S(squeeze)|gamma> is annihilated by
    mu a + nu adag - gamma with mu = cosh(r) e^(i rotation) and
    nu = -sinh(r) e^(i(arg squeeze - rotation)), r = |squeeze|, so its Fock
    amplitudes obey mu sqrt(n+1) c_(n+1) = gamma c_n - nu sqrt(n) c_(n-1)
    (Yuen, Phys. Rev. A 13, 2226 (1976)) from the closed-form vacuum amplitude
    c_0 = exp(-|gamma|^2/2 - e^(-i arg squeeze) tanh(r) gamma^2/2)/sqrt(cosh r).
    The per-step coefficients A_n = (gamma/mu)/sqrt(n+1) and
    B_n = (nu/mu) sqrt(n/(n+1)) of c_(n+1) = A_n c_n - B_n c_(n-1) are
    formed first, as (levels x labels) arrays, so each step advances every
    label in one vector operation.  Each label carries its amplitudes in
    units of its own e^log_scale, starting from |c_0| = 1, so a
    far-displaced c_0 does not underflow: every ``period`` steps the rows
    whose last two amplitudes exceed 1 are scaled down by a power of two,
    which is exact.  One step grows those two by at most
    max(1, |A_n| + |B_n|) <= |gamma/mu| + 1, so ``period`` steps keep every
    amplitude near or below 2^_AMPLITUDE_BITS, and neither a row nor the sum
    of its squares overflows.  The weight beyond the truncation,
    1 - sum |c_n|^2, is a row's leakage.
    """
    gamma = np.array([label.gamma for label in labels], dtype=complex)
    squeeze = np.array([label.squeeze for label in labels], dtype=complex)
    r = np.abs(squeeze)
    spin = np.exp(1j * np.angle(squeeze))
    turn = np.exp(1j * np.array([label.rotation for label in labels], dtype=float))
    mu = np.cosh(r) * turn
    nu = -np.sinh(r) * spin / turn
    log_vacuum = (
        -np.abs(gamma) ** 2 / 2.0 - spin.conj() * np.tanh(r) * gamma**2 / 2.0 - np.log(np.cosh(r)) / 2.0
    )
    roots = np.sqrt(np.arange(fock_dim, dtype=float))
    a_steps = (gamma / mu) / roots[1:, None]
    b_steps = (nu / mu) * (roots[:-1] / roots[1:])[:, None]
    growth = max(1.0, float(np.abs(gamma / mu).max()) + 1.0)
    period = max(1, int(_AMPLITUDE_BITS / max(math.log2(growth), 1.0)))

    amps = np.empty((fock_dim, len(labels)), dtype=complex)
    log_scale = log_vacuum.real.copy()
    amps[0] = np.exp(1j * log_vacuum.imag)
    np.multiply(a_steps[0], amps[0], out=amps[1])  # B_0 = 0
    levels, a_list, b_list = list(amps), list(a_steps), list(b_steps)
    lower = np.empty(len(labels), dtype=complex)
    for n in range(1, fock_dim - 1):
        np.multiply(a_list[n], levels[n], out=levels[n + 1])
        np.multiply(b_list[n], levels[n - 1], out=lower)
        levels[n + 1] -= lower
        if n % period == 0:
            size = np.maximum(np.abs(levels[n]), np.abs(levels[n + 1]))
            shift = np.where(size > 1.0, np.frexp(size)[1], 0)
            amps[: n + 2] *= np.ldexp(1.0, -shift)
            log_scale += shift * math.log(2.0)
    sum2 = (amps.real**2 + amps.imag**2).sum(axis=0)
    norm2 = np.exp(2.0 * log_scale + np.log(sum2))
    return (amps / np.sqrt(sum2)).T, np.abs(1.0 - norm2)


def materialize_labels(labels, fock_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Fock rows of branch labels (phase factors not included): an (L x fock_dim) array and L leakages.

    Row k is ``labels[k]`` on ``fock_dim`` levels.  The Poisson tail of
    every label's coherent centre (alpha, or gamma for a squeezed label) is
    checked in one pass (``coherent_tails``), so a truncation too small for
    any label raises the TruncationError that label alone would raise.
    Coherent rows come from one broadcast exp (``coherent_amplitudes``) and
    carry their tail as leakage; squeezed rows come from one run of Yuen's
    recurrence for all of them (``_squeezed_rows``).
    """
    if fock_dim < 2:
        raise DimensionError(f"Fock truncation must be >= 2, got {fock_dim}")
    labels = list(labels)
    squeezed = np.array([isinstance(label, SqueezedLabel) for label in labels], dtype=bool)
    leakages = coherent_tails(
        [label.gamma if sq else label.alpha for label, sq in zip(labels, squeezed)], fock_dim
    )
    rows = np.empty((len(labels), fock_dim), dtype=complex)
    rows[~squeezed] = coherent_amplitudes(
        [label.alpha for label, sq in zip(labels, squeezed) if not sq], fock_dim
    )
    if squeezed.any():
        rows[squeezed], leakages[squeezed] = _squeezed_rows(
            [label for label, sq in zip(labels, squeezed) if sq], fock_dim
        )
    return rows, leakages


def materialize_label(label: CoherentLabel | SqueezedLabel, fock_dim: int) -> CavityState:
    """Fock-space vector of one cavity branch label: the one-row case of ``materialize_labels``."""
    rows, leakages = materialize_labels([label], fock_dim)
    return CavityState(rows[0], leakage=float(leakages[0]))


def auto_fock_dim(labels, start: int | None = None, *, propagated=None) -> tuple[int, tuple]:
    """The package's truncation policy: the Fock dimension at which no checked state leaks.

    Starts from ``start`` if given, else from the larger of DEFAULT_FOCK_DIM
    (64) and the exact coherent-tail requirement (tail below LABEL_TAIL_TOL,
    1e-12) of the farthest label: the Poisson tail P(X >= d) grows with the
    mean, so that one tail search covers every label.  It doubles up to
    MAX_FOCK_DIM (512) until the top four Fock levels of every checked state
    hold less than TRUNCATION_TOL (1e-10) of the population.  At each
    truncation tried, the distinct labels are materialized in one
    ``materialize_labels`` call, and ``propagated(dim)``, if given, returns
    further joint states (such as brute-force propagated ones) that must
    pass the same check, as the columns of one 2*dim x K array; the top
    weights of the label rows and of those columns are each one reduction.
    Returns the truncation and the label states judged there, as the
    (rows, leakages) of the distinct labels in first-seen order, for
    callers to reuse.  A start above MAX_FOCK_DIM raises TruncationError
    before any state is built, and an explicit ``start`` too small for a
    coherent label raises it too.
    """
    labels = list(dict.fromkeys(labels))
    dim = start
    if dim is None:
        centres = (label.alpha if isinstance(label, CoherentLabel) else label.gamma for label in labels)
        far = max(map(abs, centres), default=0.0)
        # A coherent tail is about 1/2 at the mean photon number: past the cap, no sum is needed.
        if far * far >= MAX_FOCK_DIM:
            raise TruncationError(
                f"a label of |displacement| {far:.6g} has its mean photon number past the "
                f"maximum truncation {MAX_FOCK_DIM}",
                required_dim=None,
            )
        dim = max(DEFAULT_FOCK_DIM, required_fock_dim(far, LABEL_TAIL_TOL))
    if dim > MAX_FOCK_DIM:
        raise TruncationError(
            f"start truncation {dim} exceeds the maximum truncation {MAX_FOCK_DIM}",
            required_dim=dim if start is None else None,
        )
    while True:
        label_states = materialize_labels(labels, dim)
        worst = top_level_weights(label_states[0].T).max(initial=0.0)
        if propagated is not None:
            columns = np.reshape(propagated(dim), (2 * dim, -1))
            worst = max(worst, top_level_weights(columns, 2).max(initial=0.0))
        if worst < TRUNCATION_TOL:
            return dim, label_states
        if dim >= MAX_FOCK_DIM:
            raise TruncationError(
                f"leakage {worst:.3e} persists at the maximum truncation {MAX_FOCK_DIM}",
                required_dim=None,
            )
        dim = min(2 * dim, MAX_FOCK_DIM)


def materialize_columns(
    decompositions, fock_dim: int, label_states: tuple | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Expand K branch decompositions into the columns of one (2*fock_dim x K) array.

    ``label_states``, if given, holds the (rows, leakages) of the distinct
    labels of all the decompositions at ``fock_dim``, in first-seen order,
    as ``auto_fock_dim`` returns them; otherwise they are materialized here.
    Every branch adds its coefficient times its qubit amplitude times its
    label's row to the qubit blocks it populates, all branches in one
    products array summed in branch order, so a column is bit for bit the
    sum a branch-by-branch loop forms.  Each column must come out normalized
    to BRANCH_NORM_TOL plus four times its truncation tail (its labels'
    leakages weighted by |weight|^2); otherwise, a NaN column included,
    NormalizationError is raised.  Returns the columns as built, their
    norm^2, and each column's leakage: its tail plus |1 - norm^2|.
    """
    index = {}  # each distinct label's row, in first-seen order
    branches = [
        (k, index.setdefault(branch.label, len(index)), branch)
        for k, d in enumerate(decompositions)
        for branch in d.branches
    ]
    column, row = (np.array([entry[i] for entry in branches], dtype=int) for i in range(2))
    rows, leakages = label_states or materialize_labels(list(index), fock_dim)
    if rows.shape != (len(index), fock_dim):
        raise ValueError(
            f"label states of shape {rows.shape} do not fit {len(index)} labels on {fock_dim} levels"
        )
    qubits = _QUBIT_TABLE[[_QUBIT_ROWS[branch.qubit] for *_, branch in branches]]
    coefficients = np.array([branch.coefficient for *_, branch in branches], dtype=complex)
    # one term per branch and qubit block it populates, in branch order; each
    # (column, block) slot sums its terms in that order, as one unbuffered add
    term, block = np.nonzero(qubits)
    products = (coefficients[term] * qubits[term, block])[:, None] * rows[row[term]]
    slots = (2 * column[term] + block)[:, None] * fock_dim + np.arange(fock_dim)
    states = np.zeros(len(decompositions) * 2 * fock_dim, dtype=complex)
    np.add.at(states, slots.ravel(), products.ravel())
    tails = np.zeros(len(decompositions))
    weights = np.array([abs(branch.weight) ** 2 for *_, branch in branches], dtype=float)
    np.add.at(tails, column, weights * leakages[row])
    states = states.reshape(len(decompositions), -1)
    norm2 = np.array([np.vdot(state, state).real for state in states])
    bad = ~(np.abs(norm2 - 1.0) <= BRANCH_NORM_TOL + 4.0 * tails)
    if bad.any():
        raise NormalizationError(
            f"branch decomposition materializes to norm^2 = {float(norm2[np.argmax(bad)])!r}; "
            "weights are inconsistent"
        )
    return states.T, norm2, tails + np.abs(1.0 - norm2)


def materialize(
    state: BranchDecomposition, fock_dim: int | None = None, label_states: tuple | None = None
) -> JointState:
    """Expand a branch decomposition into a joint Fock-space state, normalized.

    The one-column case of ``materialize_columns``.  Without ``fock_dim``
    the truncation and the label states come from ``auto_fock_dim``; with
    it, ``label_states`` may hold the (rows, leakages) of ``state.labels()``
    already materialized there, such as those the policy returned.
    """
    if fock_dim is None:
        fock_dim, label_states = auto_fock_dim(state.labels())
    columns, norm2, leakage = materialize_columns([state], fock_dim, label_states)
    return JointState(columns[:, 0] / math.sqrt(norm2[0]), leakage=float(leakage[0]))


def _label_to_dict(label: CoherentLabel | SqueezedLabel) -> dict:
    if isinstance(label, CoherentLabel):
        return {
            "kind": "coherent",
            "alpha": [label.alpha.real, label.alpha.imag],
            "phase": label.phase,
        }
    return {
        "kind": "squeezed",
        "gamma": [label.gamma.real, label.gamma.imag],
        "squeeze": [label.squeeze.real, label.squeeze.imag],
        "rotation": label.rotation,
        "phase": label.phase,
    }


def _label_from_dict(data: dict) -> CoherentLabel | SqueezedLabel:
    kind = data.get("kind")
    if kind == "coherent":
        return CoherentLabel(alpha=complex(*data["alpha"]), phase=float(data["phase"]))
    if kind == "squeezed":
        return SqueezedLabel(
            gamma=complex(*data["gamma"]),
            squeeze=complex(*data["squeeze"]),
            rotation=float(data["rotation"]),
            phase=float(data["phase"]),
        )
    raise ValueError(f"unknown label kind {kind!r}")


def branch_decomposition_to_dict(state: BranchDecomposition) -> dict:
    return {
        "branches": [
            {
                "qubit": branch.qubit,
                "weight": [branch.weight.real, branch.weight.imag],
                "label": _label_to_dict(branch.label),
            }
            for branch in state.branches
        ],
        "dropped_global_phase": state.dropped_global_phase,
    }


def branch_decomposition_from_dict(data: dict) -> BranchDecomposition:
    branches = tuple(
        Branch(
            qubit=item["qubit"],
            weight=complex(*item["weight"]),
            label=_label_from_dict(item["label"]),
        )
        for item in data["branches"]
    )
    return BranchDecomposition(branches, str(data.get("dropped_global_phase", "1")))
