"""Closed-form evolutions of the qubit-cavity system and their state labels.

The linear-coupling Hamiltonian splits over the qubit's sigma_x eigenstates
into driven-oscillator problems, so vacuum or coherent input evolves into
qubit-entangled coherent branches with displacements and phases given in
closed form.  The quadratic Hamiltonian is a squeezing oscillator in each
sector, so coherent input evolves exactly into squeezed coherent branches,
solved from the Heisenberg equations of the mode.  Every branch has one
label type, ``CoherentLabel``: exp(-i rotation n) S(squeeze)|alpha>, the
coherent state |alpha> when squeeze and rotation are zero and Yuen's
two-photon coherent state otherwise.  Any two labels overlap in closed form,
so every post-selected combination's norm is one Gram sum
(``superposition_norm2``).

Each closed form is computed once for a whole time grid, in the sigma_x-sector
form the physics has (``SectorBranches``): for each of the two sectors, arrays
of the label's alpha, phase, squeeze and rotation over the K times
(``LabelArrays``), and one constant 2 x 2 matrix of (g/e block x sector)
weights.  It is the package's one closed-form state type, at K times or at
one: ``evolve_vacuum``, ``evolve_coherent`` and ``squeezed_evolution`` are
the sector forms at the single time [t].  The flux pulse acts on that form by
turning every label and left-multiplying the weights by its qubit rotation
(``pulse_sectors``, also named ``flux_pi_pulse``).

``materialize_labels`` is the one materialization path: it turns label
arrays (or a list of labels, converted once) into an (L x N) array of Fock
amplitudes, checking every label's Poisson tail in one pass, building
unsqueezed rows by the two-term coherent recurrence in one cumulative
product and running Yuen's three-term Fock recurrence once for all the
others.  ``materialize_label`` is its one-row case, ``auto_fock_dim`` (the
truncation policy) calls it once per truncation tried.  ``materialize_sectors``
forms a sector form's K joint states as the columns of one array in one
contraction that checks every state's norm; ``materialize`` is its
normalized one-time case.

Neglected global phase factors are carried as metadata
(``SectorBranches.dropped_phase``), never silently dropped; all state
comparisons are phase-insensitive.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .constants import BRANCH_NORM_TOL, DEFAULT_FOCK_DIM, LABEL_TAIL_TOL, MAX_FOCK_DIM, TRUNCATION_TOL
from .errors import DimensionError, NormalizationError, TruncationError
from .hilbert import (
    CavityState,
    JointState,
    _require_resolved_phase,
    coherent_amplitudes,
    coherent_tails,
    required_fock_dim,
    top_level_weights,
)
from .model import (
    Coupling,
    DeviceParams,
    _cosine_terms,
    flux_pulse,
    require_setting,
)

__all__ = [
    "CoherentLabel",
    "LabelArrays",
    "Branch",
    "SectorBranches",
    "DisentangledFactors",
    "disentangle",
    "evolve_vacuum",
    "evolve_coherent",
    "coherent_overlap",
    "superposition_norm2",
    "flux_pi_pulse",
    "squeezed_evolution",
    "linear_sectors",
    "pulse_sectors",
    "squeezed_sectors",
    "materialize_labels",
    "materialize_label",
    "materialize_sectors",
    "materialize",
    "auto_fock_dim",
    "branch_decomposition_to_dict",
]

_SERIES_SWITCH = 0.25
_SERIES_TERMS = 16
_AMPLITUDE_BITS = 480  # log2 bound on a carried Yuen amplitude: a sum of squares stays finite
_PREPARED = np.array([[0.5, 0.5], [0.5, -0.5]])  # g (x) sector labels: (g/e block x sector) weights
_PREPARED.setflags(write=False)
_SECTOR_SIGNS = np.array([[1.0], [-1.0]])  # s of the sigma_x = +1 and -1 rows of a sector form


@dataclass(frozen=True)
class CoherentLabel:
    """Cavity branch label: the state exp(-i rotation n) S(squeeze)|alpha>.

    S(squeeze) = exp((squeeze adag^2 - squeeze^* a^2)/2) is the squeeze
    exponential and |squeeze| the squeeze degree r; ``phase`` is the
    accumulated branch phase in radians.  With squeeze and rotation both
    zero the label is the coherent state |alpha>.
    """

    alpha: complex
    phase: float = 0.0
    squeeze: complex = 0j
    rotation: float = 0.0

    @property
    def squeezed(self) -> bool:
        """Whether the label is squeezed or rotated, rather than the coherent state |alpha>."""
        return self.squeeze != 0 or self.rotation != 0


@dataclass(frozen=True)
class LabelArrays:
    """Cavity labels as four arrays of one shape: entry k is the label
    CoherentLabel(alpha[k], phase[k], squeeze[k], rotation[k]); iterating
    yields those labels in row-major order."""

    alpha: np.ndarray
    phase: np.ndarray
    squeeze: np.ndarray
    rotation: np.ndarray

    @classmethod
    def of(cls, labels) -> LabelArrays:
        """The label arrays of an iterable of ``CoherentLabel``s, in its order."""
        labels = list(labels)
        return cls(
            np.array([label.alpha for label in labels], dtype=complex),
            np.array([label.phase for label in labels], dtype=float),
            np.array([label.squeeze for label in labels], dtype=complex),
            np.array([label.rotation for label in labels], dtype=float),
        )

    def __len__(self) -> int:
        return self.alpha.size

    def __iter__(self):
        fields = (self.alpha, self.phase, self.squeeze, self.rotation)
        return map(CoherentLabel, *(field.reshape(-1).tolist() for field in fields))

    @property
    def squeezed(self) -> np.ndarray:
        """Which labels are squeezed or rotated, rather than coherent states |alpha>."""
        return (self.squeeze != 0) | (self.rotation != 0)

    def take(self, index) -> LabelArrays:
        """The labels at ``index`` (any numpy index, such as a boolean mask)."""
        return LabelArrays(self.alpha[index], self.phase[index], self.squeeze[index], self.rotation[index])


@dataclass(frozen=True)
class Branch:
    """One term of an entangled state: charge basis state ('g' or 'e'), weight, cavity label."""

    qubit: str
    weight: complex
    label: CoherentLabel

    def __post_init__(self):
        if self.qubit not in ("g", "e"):
            raise ValueError(f"qubit must be 'g' or 'e', got {self.qubit!r}")

    @property
    def coefficient(self) -> complex:
        """Weight including the label's accumulated phase factor."""
        return self.weight * cmath.exp(1j * self.label.phase)


@dataclass(frozen=True)
class SectorBranches:
    """Closed-form joint states at K times in sigma_x-sector form.

    ``sectors`` holds (2, K) arrays: row 0 the sigma_x = +1 sector's label at
    each time, row 1 the -1 sector's.  ``weights`` is the constant 2 x 2
    matrix of (g/e block x sector) weights, so the state at time k is
    sum_bs weights[b, s] e^(i phase[s, k]) |b> (x) |label[s, k]>.
    ``dropped_phase`` holds the angle of the common phase factor
    exp(i angle) left out of the weights at each time, or is None where no
    factor is left out.
    """

    sectors: LabelArrays
    weights: np.ndarray
    dropped_phase: np.ndarray | None = None

    def labels(self) -> list[CoherentLabel]:
        """The distinct labels of a one-time form, phase included, in sector order."""
        return list(dict.fromkeys(self.sectors.take((slice(None), 0))))

    def branches(self) -> tuple[Branch, ...]:
        """The nonzero branches of a one-time form, g block first and sector order within it."""
        labels = list(self.sectors.take((slice(None), 0)))
        return tuple(
            Branch(qubit, complex(weight), label)
            for qubit, row in zip(("g", "e"), self.weights.tolist())
            for weight, label in zip(row, labels)
            if weight != 0
        )

    @functools.cached_property
    def distinct_labels(self) -> tuple[LabelArrays, np.ndarray]:
        """The labels to materialize, and the (2, K) row of each (sector, time) label among them.

        Every +1 sector label gets a row, in time order, then every -1 sector
        label that differs from the +1 one at its time; where the two give
        the same Fock row (the input state, at t = 0) the -1 label reuses it.
        The branch phases are not compared: they are applied in the contraction.
        """
        labels = self.sectors
        same = (
            (labels.alpha[0] == labels.alpha[1])
            & (labels.squeeze[0] == labels.squeeze[1])
            & (labels.rotation[0] == labels.rotation[1])
        )
        keep = np.stack((np.ones_like(same), ~same))
        index = np.cumsum(keep.ravel()).reshape(keep.shape) - 1
        index[1, same] = index[0, same]
        return labels.take(keep), index


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


def _kappa(params: DeviceParams, coupling: Coupling) -> complex:
    """Displacement scale of the drive: the complex rate xi^* E_J / hbar over the cavity frequency."""
    return np.conj(coupling.xi) * params.ej_rate / params.omega_cavity


def linear_sectors(
    params: DeviceParams, coupling: Coupling, alpha_prime: complex, times
) -> SectorBranches:
    """Injected coherent state (x) qubit ground under the linear coupling, at every time in ``times``.

    Requires the preparation setting n_g = 1/2, phi_c_ratio = 1/2.  At time
    tau the two sigma_x sectors displace the field to
    alpha_pm = alpha' e^(-i w tau) +- kappa (e^(-i w tau) - 1) and pick up
    branch phases +-phi with phi = Im[kappa conj(alpha') (1 - e^(i w tau))];
    the common phase exp(i |kappa|^2 (w tau - sin w tau)) is left out, and
    its angle at each time is the form's ``dropped_phase``.  The qubit
    ground state is (|+> + |->)/sqrt(2), so the weights are 1/2 on
    both sectors in the g block and +-1/2 in the e block.  A time with
    w |tau| >= MAX_CAVITY_PHASE (2^52 rad), where the phases are no longer
    resolved, raises ValueError naming the time of largest |tau|.
    """
    _require_resolved_phase(params.omega_cavity, times, "time")
    require_setting(params, 0.5, "preparation")
    kappa = _kappa(params, coupling)
    alpha_prime = complex(alpha_prime)
    omega_tau = params.omega_cavity * np.asarray(times, dtype=float)
    rot = np.exp(-1j * omega_tau)
    drive = kappa * (rot - 1.0)
    phi = (kappa * alpha_prime.conjugate() * (1.0 - np.exp(1j * omega_tau))).imag
    alpha = alpha_prime * rot + _SECTOR_SIGNS * drive
    unsqueezed = np.zeros(alpha.shape, dtype=complex), np.zeros(alpha.shape)
    dropped = abs(kappa) ** 2 * np.array([wt - math.sin(wt) for wt in omega_tau.tolist()])
    return SectorBranches(LabelArrays(alpha, _SECTOR_SIGNS * phi, *unsqueezed), _PREPARED, dropped)


def evolve_coherent(
    params: DeviceParams, coupling: Coupling, alpha_prime: complex, tau1: float
) -> SectorBranches:
    """Evolve an injected coherent state (x) qubit ground under the linear coupling.

    ``linear_sectors`` at the single time ``tau1``.
    """
    return linear_sectors(params, coupling, alpha_prime, [tau1])


def evolve_vacuum(params: DeviceParams, coupling: Coupling, tau: float) -> SectorBranches:
    """Evolve vacuum (x) qubit ground under the linear coupling.

    Special case of ``evolve_coherent`` with no injected field: an even/odd
    cat entangled with the charge states, displacement
    alpha = kappa (e^(-i w tau) - 1).
    """
    return evolve_coherent(params, coupling, 0.0, tau)


def _gaussian_form(x: CoherentLabel | complex) -> tuple[complex, complex, float]:
    """Mean amplitude a, t and cosh r of a label x written as c exp(t adag^2/2 + B adag)|0>.

    With squeeze = r e^(i phi) and theta = rotation, a = e^(-i theta)(alpha cosh r
    + conj(alpha) e^(i phi) sinh r), t = e^(i(phi - 2 theta)) tanh r, B = a - t conj(a)
    and log c = -|a|^2/2 + t conj(a)^2/2 - log(cosh r)/2.  A number x stands for |x>.
    """
    label = x if isinstance(x, CoherentLabel) else CoherentLabel(x)
    r = abs(label.squeeze)
    turn = cmath.exp(-1j * label.rotation)
    spin = cmath.exp(1j * cmath.phase(label.squeeze))
    alpha = complex(label.alpha)
    a = turn * (alpha * math.cosh(r) + alpha.conjugate() * spin * math.sinh(r))
    return a, spin * turn * turn * math.tanh(r), math.cosh(r)


def _log_overlap(x: tuple, y: tuple) -> complex:
    """log <x|y> of two labels given by their ``_gaussian_form``, phases not included.

    The overlap is a Gaussian vacuum amplitude (Truax, Phys. Rev. D 31, 1988
    (1985)): conj(log c_x) + log c_y - log(d)/2 + (conj(B_x)^2 t_y
    + B_y^2 conj(t_x) + 2 conj(B_x) B_y)/(2d) with d = 1 - conj(t_x) t_y.
    It is formed as the coherent exponent -|D|^2/2 + i Im(conj(a_x) a_y),
    D = a_y - a_x, plus (u D^2 + v conj(D)^2 - 2 u v |D|^2)/(2d)
    - log(d cosh r_x cosh r_y)/2 with u = conj(t_x) and v = t_y, which is
    exactly 0 for two unsqueezed labels.
    """
    (ax, tx, cosh_x), (ay, ty, cosh_y) = x, y
    u, v = tx.conjugate(), ty
    d = 1.0 - u * v
    gap = ay - ax
    distance = abs(gap)
    spread = u * gap * gap + v * (gap * gap).conjugate() - 2.0 * u * v * distance * distance
    coherent = complex(-distance * distance / 2.0, (ax.conjugate() * ay).imag)
    return coherent + spread / (2.0 * d) - cmath.log(d * cosh_x * cosh_y) / 2.0


def coherent_overlap(x: CoherentLabel | complex, y: CoherentLabel | complex) -> complex:
    """Overlap <x|y> of two labels, phases not included; a number x stands for |x>."""
    return cmath.exp(_log_overlap(_gaussian_form(x), _gaussian_form(y)))


def superposition_norm2(terms) -> float:
    """Squared norm of sum_j c_j |x_j> over (c_j, x_j) pairs, x_j as ``coherent_overlap`` takes it.

    The Gram sum sum_jk conj(c_j) c_k <x_j|x_k> is formed as
    |sum_j c_j|^2 + sum_jk conj(c_j) c_k expm1(z_jk), with z_jk = log <x_j|x_k>,
    so close labels lose no digits to cancellation: an odd cat's
    norm is then its exact 2 - 2 e^(-2|alpha|^2) to rounding at any |alpha|.
    """
    terms = [(complex(c), _gaussian_form(x)) for c, x in terms]
    total = abs(sum(c for c, _ in terms)) ** 2
    for cj, xj in terms:
        for ck, xk in terms:
            z = _log_overlap(xj, xk)
            total += (cj.conjugate() * ck * z * _expm1_over_z(z)).real
    return total


def _turn(labels: LabelArrays, angle: float) -> LabelArrays:
    """The labels after exp(-i angle n): an unsqueezed label's alpha turns by e^(-i angle),
    any other label's rotation grows by angle."""
    squeezed = labels.squeezed
    alpha = np.where(squeezed, labels.alpha, labels.alpha * cmath.exp(-1j * angle))
    rotation = np.where(squeezed, labels.rotation + angle, labels.rotation)
    return LabelArrays(alpha, labels.phase, labels.squeeze, rotation)


def pulse_sectors(state: SectorBranches, params: DeviceParams) -> SectorBranches:
    """Apply the flux pulse (``model.flux_pulse``) to a sector form at every time.

    The pulse is exp(-i omega t_pulse n) (x) exp(-i (pi/4) sigma_x): it turns
    every label (``_turn``) and left-multiplies the (g/e block x sector)
    weights by the qubit rotation.  It commutes with sigma_x, so it shifts
    the phases of the sigma_x eigenbranches by -pi/4 and cannot change which
    cavity labels pair with them.
    """
    pulse = flux_pulse(params)
    turned = _turn(state.sectors, pulse.angle)
    return SectorBranches(turned, pulse.rotation @ state.weights, state.dropped_phase)


flux_pi_pulse = pulse_sectors  # the pulse that rotates the qubit about x by a Bloch angle pi/2


def _sector_labels(omega: float, lam: complex, shift: float, t: np.ndarray) -> tuple[np.ndarray, ...]:
    """Phase, squeeze and rotation of the exact label of exp(-i H t)|gamma> at every time in ``t``.

    H = omega n + (lam a^2 + lam^* adag^2)/2 + shift.  The Heisenberg
    solution is U^dag a U = u a + v adag with u = cos(w t) - i omega sin(w t)/w
    and v = -i lam^* sin(w t)/w, where w = sqrt(omega^2 - |lam|^2) is a
    complex root (sin(w t)/w = t at w = 0), so one expression covers the
    oscillating, critical and unstable cases.  U = exp(i phase)
    exp(-i rotation n) S(squeeze) with rotation = arg conj(u) and
    squeeze = asinh|v| e^(i(arg v + rotation)), and the label's alpha stays
    gamma.  The phase follows from the su(1,1) vacuum amplitude <0|U|gamma>,
    which carries conj(u)^(-1/2) times exp(i(omega/2 - shift) t) (Truax,
    Phys. Rev. D 31, 1988 (1985)): phase = (omega t - rotation)/2 - shift t,
    with arg conj(u) unwrapped continuously in t from conj(u(0)) = 1 rather
    than taken as a principal value.  Where an unstable sector's u and v
    overflow, the label comes out non-finite.
    """
    w = cmath.sqrt((omega - abs(lam)) * (omega + abs(lam)))
    with np.errstate(over="ignore", invalid="ignore"):
        sin_over_w = t + 0j if w == 0 else np.sin(w * t) / w
        u_bar = np.cos(w * t).conj() + 1j * omega * sin_over_w.conj()
        v = -1j * lam.conjugate() * sin_over_w
        # arg conj(u) stays within pi/2 of sign(omega) Re(w) t, so that reference unwraps it.
        principal = np.angle(u_bar)
        reference = math.copysign(1.0, omega) * w.real * t
        rotation = principal + 2.0 * math.pi * np.round((reference - principal) / (2.0 * math.pi))
        squeeze = np.arcsinh(np.abs(v)) * np.exp(1j * (np.angle(v) + rotation))
    phase = (omega * t - rotation) / 2.0 - shift * t
    return phase, squeeze, rotation


def squeezed_sectors(params: DeviceParams, coupling: Coupling, gamma: complex, times) -> SectorBranches:
    """Coherent state (x) qubit ground under the quadratic coupling, at every time in ``times``.

    Requires n_g = 1/2 and phi_c_ratio = 0.  The sigma_x = s sector
    (s = +-1) is the squeezing oscillator
    H_s = Omega_s n + (lam_s a^2 + lam_s^* adag^2)/2 + c_s of the second
    order B = b0 + b2 X^2 (``model._cosine_terms``), with
    Omega_s = omega + 2 s b2, lam_s = 2 s b2 e^(2i arg xi) and c_s = s (b0 + b2):
    at phi_c = 0, Omega_s = omega + s |xi|^2 E_J/hbar, lam_s = s xi^2 E_J/hbar
    and c_s = -s E_J (1 - |xi|^2/2)/hbar.  Each sector's branch is its exact
    squeezed coherent state (``_sector_labels``) at any coupling and time;
    its squeeze degree is asinh|lam_s sin(w_s t)/w_s| with
    w_s = sqrt(Omega_s^2 - |lam_s|^2), which stays below asinh(|lam_s|/w_s)
    in a stable sector and grows without bound where |lam_s| >= |Omega_s|:
    a time at which a label is not finite (it overflows a double there)
    raises TruncationError, since no truncation holds that state.  The
    weights are those of ``linear_sectors``, and a time past the phase
    bound raises ValueError as there.
    """
    _require_resolved_phase(params.omega_cavity, times, "time")
    require_setting(params, 0.0, "squeezed evolution")
    gamma = complex(gamma)
    t = np.asarray(times, dtype=float)
    b0, _, b2 = _cosine_terms(params, coupling)
    spin = cmath.exp(2j * cmath.phase(coupling.xi))
    omega = params.omega_cavity
    sectors = [_sector_labels(omega + 2 * s * b2, 2 * s * b2 * spin, s * (b0 + b2), t) for s in (1, -1)]
    phase, squeeze, rotation = (np.stack(field) for field in zip(*sectors))
    unbounded = ~(np.isfinite(squeeze) & np.isfinite(phase)).all(axis=0)
    if unbounded.any():
        raise TruncationError(
            f"a sector label is not finite at t = {float(t[np.argmax(unbounded)])!r}: no truncation holds it",
            required_dim=None,
        )
    return SectorBranches(LabelArrays(np.full(phase.shape, gamma), phase, squeeze, rotation), _PREPARED)


def squeezed_evolution(
    params: DeviceParams, coupling: Coupling, gamma: complex, t: float
) -> SectorBranches:
    """Evolve a coherent state (x) qubit ground under the quadratic coupling.

    ``squeezed_sectors`` at the single time ``t``.
    """
    return squeezed_sectors(params, coupling, gamma, [t])


def _squeezed_rows(labels: LabelArrays, fock_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Fock rows of squeezed or rotated labels at once: (L x fock_dim) amplitudes and L leakages.

    A label exp(-i rotation n) S(squeeze)|alpha> is annihilated by
    mu a + nu adag - alpha with mu = cosh(r) e^(i rotation) and
    nu = -sinh(r) e^(i(arg squeeze - rotation)), r = |squeeze|, so its Fock
    amplitudes obey mu sqrt(n+1) c_(n+1) = alpha c_n - nu sqrt(n) c_(n-1)
    (Yuen, Phys. Rev. A 13, 2226 (1976)) from the closed-form vacuum amplitude
    c_0 = exp(-|alpha|^2/2 - e^(-i arg squeeze) tanh(r) alpha^2/2)/sqrt(cosh r).
    The per-step coefficients A_n = (alpha/mu)/sqrt(n+1) and
    B_n = (nu/mu) sqrt(n/(n+1)) of c_(n+1) = A_n c_n - B_n c_(n-1) are
    formed first, as (levels x labels) arrays, so each step advances every
    label in one vector operation.  Each label carries its amplitudes in
    units of its own e^log_scale, starting from |c_0| = 1, so a
    far-displaced c_0 does not underflow: every ``period`` steps the rows
    whose last two amplitudes exceed 1 are scaled down by a power of two,
    which is exact.  One step grows those two by at most
    max(1, |A_n| + |B_n|) <= |alpha/mu| + 1, so ``period`` steps keep every
    amplitude near or below 2^_AMPLITUDE_BITS, and neither a row nor the sum
    of its squares overflows.  The weight beyond the truncation,
    1 - sum |c_n|^2, is a row's leakage.
    """
    alpha, squeeze = labels.alpha, labels.squeeze
    r = np.abs(squeeze)
    spin = np.exp(1j * np.angle(squeeze))
    turn = np.exp(1j * labels.rotation)
    mu = np.cosh(r) * turn
    nu = -np.sinh(r) * spin / turn
    log_vacuum = (
        -np.abs(alpha) ** 2 / 2.0 - spin.conj() * np.tanh(r) * alpha**2 / 2.0 - np.log(np.cosh(r)) / 2.0
    )
    roots = np.sqrt(np.arange(fock_dim, dtype=float))
    a_steps = (alpha / mu) / roots[1:, None]
    b_steps = (nu / mu) * (roots[:-1] / roots[1:])[:, None]
    growth = max(1.0, float(np.abs(alpha / mu).max()) + 1.0)
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

    ``labels`` is a 1-D ``LabelArrays`` or an iterable of ``CoherentLabel``s,
    converted once; row k is its k-th label on ``fock_dim`` levels.  The
    Poisson tail of every label's coherent centre ``alpha`` is checked in
    one pass (``coherent_tails``), so a truncation too small for any label
    raises the TruncationError that label alone would raise.  Unsqueezed
    rows come from one cumulative product (``coherent_amplitudes``) and carry
    their tail as leakage; squeezed or rotated rows come from one run of
    Yuen's recurrence for all of them (``_squeezed_rows``).
    """
    if fock_dim < 2:
        raise DimensionError(f"Fock truncation must be >= 2, got {fock_dim}")
    if not isinstance(labels, LabelArrays):
        labels = LabelArrays.of(labels)
    squeezed = labels.squeezed
    leakages = coherent_tails(labels.alpha, fock_dim)
    if not squeezed.any():
        return coherent_amplitudes(labels.alpha, fock_dim), leakages
    rows = np.empty((len(labels), fock_dim), dtype=complex)
    rows[~squeezed] = coherent_amplitudes(labels.alpha[~squeezed], fock_dim)
    rows[squeezed], leakages[squeezed] = _squeezed_rows(labels.take(squeezed), fock_dim)
    return rows, leakages


def materialize_label(label: CoherentLabel, fock_dim: int) -> CavityState:
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
    ``materialize_labels`` call, and ``propagated(dim, edge)``, if given,
    returns further joint states (such as brute-force propagated ones) that
    must pass the same check, as the columns of one 2*dim x K array; the top
    weights of the label rows and of those columns are each one reduction.

    ``edge`` is the lowest level the hook needs to propagate, below which
    every label row holds less than LABEL_TAIL_TOL, minus four
    (``_window_edge``).  Above level 0 every column must also hold less
    than TRUNCATION_TOL in its four levels from the edge, both qubit blocks
    counted (``_edge_weights``).  If any column does not, the same
    truncation is propagated again from level 0 before any doubling.
    ``labels`` is a 1-D ``LabelArrays``, every entry of which is judged,
    or an iterable of ``CoherentLabel``s, whose distinct labels are
    converted to one once.  Returns the truncation and the label states
    judged there, as the (rows, leakages) of those labels (for an iterable,
    the distinct ones in first-seen order), for callers to reuse.  A start
    above MAX_FOCK_DIM raises TruncationError before any state is built,
    and an explicit ``start`` too small for a coherent label raises it too.
    """
    if not isinstance(labels, LabelArrays):
        labels = LabelArrays.of(dict.fromkeys(labels))
    dim = start
    if dim is None:
        radii = np.abs(labels.alpha)
        far = float(radii.max(initial=0.0))
        if not math.isfinite(far):
            bad = complex(labels.alpha[np.argmax(~np.isfinite(radii))])
            raise TruncationError(
                f"a label of displacement {bad!r} is not finite: no truncation holds it",
                required_dim=None,
            )
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
        rows = label_states[0]
        worst = top_level_weights(rows.T).max(initial=0.0)
        if propagated is not None:
            edge = _window_edge(rows)
            columns = np.reshape(propagated(dim, edge), (2 * dim, -1))
            if edge and _edge_weights(columns, edge).max(initial=0.0) >= TRUNCATION_TOL:
                columns = np.reshape(propagated(dim, 0), (2 * dim, -1))
            worst = max(worst, top_level_weights(columns, 2).max(initial=0.0))
        if worst < TRUNCATION_TOL:
            return dim, label_states
        if dim >= MAX_FOCK_DIM:
            raise TruncationError(
                f"leakage {worst:.3e} persists at the maximum truncation {MAX_FOCK_DIM}",
                required_dim=None,
            )
        dim = min(2 * dim, MAX_FOCK_DIM)


def _window_edge(rows: np.ndarray) -> int:
    """The lowest level of the propagation window for label ``rows`` (L x N), 0 for no rows.

    It is four below the first level at which the largest weight any row
    holds at each level, summed from level 0, reaches LABEL_TAIL_TOL.  That
    sum bounds each row's own sum from level 0, so every row holds less
    than LABEL_TAIL_TOL below the level; it costs a third of those sums.
    """
    if not rows.size:
        return 0
    bound = np.cumsum((rows.real**2 + rows.imag**2).max(axis=0))  # bound[n]: levels <= n
    return max(0, int(np.count_nonzero(bound < LABEL_TAIL_TOL)) - 4)


def _edge_weights(columns: np.ndarray, edge: int) -> np.ndarray:
    """Population of the four levels from ``edge`` of each joint column (2N x K), both
    qubit blocks counted."""
    band = columns.reshape(2, columns.shape[0] // 2, -1)[:, edge : edge + 4]
    return (band.real**2 + band.imag**2).sum(axis=(0, 1))


def _checked_norms(states: np.ndarray, tails: np.ndarray) -> np.ndarray:
    """norm^2 of each row of ``states`` (K x 2N), each within BRANCH_NORM_TOL plus four times its tail of 1.

    A row off its norm, a NaN row included, raises NormalizationError.
    """
    norm2 = np.array([np.vdot(state, state).real for state in states])
    bad = ~(np.abs(norm2 - 1.0) <= BRANCH_NORM_TOL + 4.0 * tails)
    if bad.any():
        raise NormalizationError(
            f"branch decomposition materializes to norm^2 = {float(norm2[np.argmax(bad)])!r}; "
            "weights are inconsistent"
        )
    return norm2


def materialize_sectors(
    state: SectorBranches, fock_dim: int, label_states: tuple
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Expand a sector form's K times into the columns of one (2*fock_dim x K) array.

    ``label_states`` holds the (rows, leakages) of ``state.distinct_labels``
    at ``fock_dim``, as ``auto_fock_dim`` returns them.  Column k is one
    contraction of the weights and branch phases against the (2, K, N)
    label rows, sum_s weights[b, s] e^(i phase[s, k]) row[s, k] in block b.
    Each column must come out normalized to BRANCH_NORM_TOL plus four times
    its truncation tail (its labels' leakages weighted by |weight|^2);
    otherwise, a NaN column included, NormalizationError is raised.
    Returns the columns as built, their norm^2, and each column's leakage:
    its tail plus |1 - norm^2|.
    """
    rows, leakages = label_states
    index = state.distinct_labels[1]
    count = int(index.max(initial=-1)) + 1
    if rows.shape != (count, fock_dim):
        raise ValueError(f"label states of shape {rows.shape} do not fit {count} labels on {fock_dim} levels")
    factors = state.weights[:, :, None] * np.exp(1j * state.sectors.phase)  # (block, sector, time)
    states = np.einsum("bsk,skn->kbn", factors, rows[index]).reshape(index.shape[1], -1)
    tails = (np.abs(state.weights) ** 2).sum(axis=0) @ leakages[index]
    norm2 = _checked_norms(states, tails)
    return states.T, norm2, tails + np.abs(1.0 - norm2)


def materialize(
    state: SectorBranches, fock_dim: int | None = None, label_states: tuple | None = None
) -> JointState:
    """Expand a one-time sector form into a joint Fock-space state, normalized.

    Without ``fock_dim`` the truncation and the label states come from
    ``auto_fock_dim``; with it, ``label_states`` may hold the (rows,
    leakages) of ``state.distinct_labels`` already materialized there, such
    as those the policy returned, and otherwise they are materialized here.
    The state is the one column of ``materialize_sectors``, checked there,
    and its leakage is its tail plus |1 - norm^2|.
    """
    labels = state.distinct_labels[0]
    if fock_dim is None:
        fock_dim, label_states = auto_fock_dim(labels)
    label_states = label_states or materialize_labels(labels, fock_dim)
    columns, norm2, leakage = materialize_sectors(state, fock_dim, label_states)
    return JointState(columns[:, 0] / math.sqrt(norm2[0]), leakage=float(leakage[0]))


def _label_to_dict(label: CoherentLabel) -> dict:
    if not label.squeezed:
        return {"kind": "coherent", "alpha": [label.alpha.real, label.alpha.imag], "phase": label.phase}
    return {
        "kind": "squeezed",
        "gamma": [label.alpha.real, label.alpha.imag],
        "squeeze": [label.squeeze.real, label.squeeze.imag],
        "rotation": label.rotation,
        "phase": label.phase,
    }


def branch_decomposition_to_dict(state: SectorBranches) -> dict:
    """A one-time sector form's nonzero branches, and the phase factor left out of their weights."""
    dropped = "1" if state.dropped_phase is None else f"exp(1j*{state.dropped_phase[0]:.17g})"
    return {
        "branches": [
            {
                "qubit": branch.qubit,
                "weight": [branch.weight.real, branch.weight.imag],
                "label": _label_to_dict(branch.label),
            }
            for branch in state.branches()
        ],
        "dropped_global_phase": dropped,
    }
