"""Closed-form evolutions of the qubit-cavity system and their state labels.

The linear-coupling Hamiltonian splits over the qubit's sigma_x eigenstates
into driven-oscillator problems, so vacuum or coherent input evolves into
qubit-entangled coherent branches with displacements and phases given in
closed form.  The quadratic Hamiltonian analogously produces squeezed
coherent branches (valid while the accumulated squeeze stays small compared
to the inverse rotation angle).  A BranchDecomposition records those branches
symbolically; ``materialize`` turns one into a Fock-space state for
comparison against brute-force propagation.

Neglected global phase factors are carried as metadata, never silently
dropped; all state comparisons are phase-insensitive.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import expm

from .errors import NormalizationError, TruncationError
from .hilbert import (
    QUBIT_AMPLITUDES,
    CavityState,
    JointState,
    coherent_fock,
    make_ladder_ops,
    required_fock_dim,
    top_level_weight,
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
    "injected_pair_overlap",
    "cat_normalization",
    "cat_state",
    "flux_pi_pulse",
    "squeezed_evolution",
    "materialize_label",
    "materialize",
    "auto_fock_dim",
    "fitted_label_states",
    "branch_decomposition_to_dict",
    "branch_decomposition_from_dict",
]

DEFAULT_FOCK_DIM = 64
MAX_FOCK_DIM = 512
LABEL_TAIL_TOL = 1e-12
TOP_WEIGHT_TOL = 1e-10

_SERIES_SWITCH = 0.25
_SERIES_TERMS = 16


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


def coherent_overlap(
    x: CoherentLabel | complex, y: CoherentLabel | complex
) -> complex:
    """Overlap <x|y> = exp(-|x|^2/2 - |y|^2/2 + conj(x) y) of two coherent states."""
    ax = complex(x.alpha if isinstance(x, CoherentLabel) else x)
    ay = complex(y.alpha if isinstance(y, CoherentLabel) else y)
    return cmath.exp(-abs(ax) ** 2 / 2.0 - abs(ay) ** 2 / 2.0 + np.conj(ax) * ay)


def injected_pair_overlap(kappa: float, alpha_prime: float, omega_tau: float) -> complex:
    """Closed-form <alpha_+|alpha_-> for real drive scale and real injected amplitude.

    Equals exp(-4 kappa^2 (1 - cos w tau) + 2i kappa alpha' sin w tau), the
    general Gaussian overlap ``coherent_overlap`` of that pair.
    """
    kappa = float(kappa)
    alpha_prime = float(alpha_prime)
    return cmath.exp(
        -4.0 * kappa**2 * (1.0 - math.cos(omega_tau))
        + 2j * kappa * alpha_prime * math.sin(omega_tau)
    )


def cat_normalization(alpha: complex, parity: str) -> float:
    """Normalization constant 1/sqrt(2 +- 2 e^(-2|alpha|^2)) of a coherent-state cat."""
    if parity not in ("even", "odd"):
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    overlap = math.exp(-2.0 * abs(alpha) ** 2)
    if parity == "even":
        return 1.0 / math.sqrt(2.0 + 2.0 * overlap)
    if alpha == 0:
        raise ValueError("odd cat at alpha = 0 is the null state")
    return 1.0 / math.sqrt(2.0 - 2.0 * overlap)


def cat_state(alpha: complex, parity: str, fock_dim: int | None = None) -> CavityState:
    """Normalized even or odd superposition of |alpha> and |-alpha>."""
    const = cat_normalization(alpha, parity)
    if fock_dim is None:
        fock_dim = auto_fock_dim([CoherentLabel(alpha), CoherentLabel(-alpha)])
    plus = coherent_fock(alpha, fock_dim)
    minus = coherent_fock(-alpha, fock_dim)
    sign = 1.0 if parity == "even" else -1.0
    v = const * (plus.amplitudes + sign * minus.amplitudes)
    norm = np.linalg.norm(v)
    return CavityState(v / norm, leakage=plus.leakage + minus.leakage + abs(1.0 - norm**2))


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


def squeezed_evolution(
    params: DeviceParams, coupling: Coupling, gamma: complex, t: float
) -> BranchDecomposition:
    """Evolve a coherent state (x) qubit ground under the quadratic coupling.

    Requires n_g = 1/2 and phi_c_ratio = 0.  The sigma_x = +1 sector carries
    branch phase +theta*t/hbar with theta = E_J (1 + |xi|^2/2), rotation
    (omega - |xi|^2 E_J/hbar) t and squeeze parameter +i xi*^2 E_J t / hbar;
    the sigma_x = -1 sector carries the opposite signs.  The factorized form
    is accurate while |squeeze| * rotation stays small, which holds for
    physically small couplings over a few cavity periods.
    """
    require_setting(params, 0.0, "squeezed evolution")
    gamma = complex(gamma)
    validity_margin(coupling, max(0, math.ceil(abs(gamma) ** 2)))

    omega = params.omega_cavity
    ej = params.ej_rate
    xi = coupling.xi
    xi2 = abs(xi) ** 2
    theta_t = ej * (1.0 + xi2 / 2.0) * t
    squeeze = 1j * np.conj(xi) ** 2 * ej * t
    label_plus = SqueezedLabel(
        gamma=gamma, squeeze=squeeze, rotation=(omega - xi2 * ej) * t, phase=theta_t
    )
    label_minus = SqueezedLabel(
        gamma=gamma, squeeze=-squeeze, rotation=(omega + xi2 * ej) * t, phase=-theta_t
    )
    branches = (
        Branch("g", 0.5, label_plus),
        Branch("g", 0.5, label_minus),
        Branch("e", 0.5, label_plus),
        Branch("e", -0.5, label_minus),
    )
    return BranchDecomposition(branches)


def _squeeze_matrix(squeeze: complex, dim: int) -> np.ndarray:
    """Unitary exp((squeeze adag^2 - squeeze^* a^2)/2) on the truncated space."""
    a_op, adag_op = make_ladder_ops(dim)
    gen = (squeeze * (adag_op.matrix @ adag_op.matrix) - np.conj(squeeze) * (a_op.matrix @ a_op.matrix)) / 2.0
    return expm(gen)


def materialize_label(label: CoherentLabel | SqueezedLabel, fock_dim: int) -> CavityState:
    """Fock-space vector of a cavity branch label (phase factor not included)."""
    if isinstance(label, CoherentLabel):
        return coherent_fock(label.alpha, fock_dim)
    base = coherent_fock(label.gamma, fock_dim)
    v = _squeeze_matrix(label.squeeze, fock_dim) @ base.amplitudes
    v = np.exp(-1j * label.rotation * np.arange(fock_dim)) * v
    norm = np.linalg.norm(v)
    state = CavityState(v / norm, leakage=base.leakage + abs(1.0 - norm**2))
    return state


def auto_fock_dim(labels, start: int | None = None, *, propagated=None) -> int:
    """The package's truncation policy: the Fock dimension at which no checked state leaks.

    Starts from ``start`` if given, else from the larger of 64 and each
    label's exact coherent-tail requirement (tail below 1e-12), and doubles
    up to 512 until the top four Fock levels of every checked state hold less
    than 1e-10 of the population; at 512 it raises TruncationError.  At each
    truncation tried, every distinct label is materialized once, and
    ``propagated(dim, label_states)``, if given, returns further states (such
    as brute-force propagated ones) that must pass the same check; it gets
    the labels' states at that truncation so it can reuse them.  An explicit
    ``start`` too small for a coherent label raises TruncationError.
    """
    labels = list(dict.fromkeys(labels))
    dim = start
    if dim is None:
        dim = DEFAULT_FOCK_DIM
        for label in labels:
            centre = label.alpha if isinstance(label, CoherentLabel) else label.gamma
            dim = max(dim, required_fock_dim(centre, LABEL_TAIL_TOL))
    while True:
        label_states = {label: materialize_label(label, dim) for label in labels}
        checked = list(label_states.values())
        if propagated is not None:
            checked += propagated(dim, label_states)
        worst = max(map(top_level_weight, checked), default=0.0)
        if worst < TOP_WEIGHT_TOL:
            return dim
        if dim >= MAX_FOCK_DIM:
            raise TruncationError(
                f"leakage {worst:.3e} persists at the maximum truncation {MAX_FOCK_DIM}",
                required_dim=None,
            )
        dim = min(2 * dim, MAX_FOCK_DIM)


def fitted_label_states(labels, start: int | None = None, *, propagated=None) -> tuple[int, dict]:
    """``auto_fock_dim`` and the label states it materialized at the truncation it chose."""
    tried = {}

    def keep(dim, label_states):
        tried[dim] = label_states
        return [] if propagated is None else propagated(dim, label_states)

    dim = auto_fock_dim(labels, start, propagated=keep)
    return dim, tried[dim]


def materialize(
    state: BranchDecomposition, fock_dim: int | None = None, label_states: dict | None = None
) -> JointState:
    """Expand a branch decomposition into a joint Fock-space state.

    The truncation comes from ``auto_fock_dim`` unless given, and then the
    label states the policy built are reused.  ``label_states`` may hold
    labels already materialized at the given truncation.  The combined
    vector must come out normalized up to truncation effects, which are
    recorded as leakage; otherwise NormalizationError is raised.
    """
    if fock_dim is None:
        dim, label_states = fitted_label_states(state.labels())
    else:
        dim = fock_dim
    vec = np.zeros(2 * dim, dtype=complex)
    tail = 0.0
    cache = dict(label_states or {})
    for branch in state.branches:
        if branch.label not in cache:
            cache[branch.label] = materialize_label(branch.label, dim)
        cavity = cache[branch.label]
        tail += abs(branch.weight) ** 2 * cavity.leakage
        vec += branch.coefficient * np.kron(QUBIT_AMPLITUDES[branch.qubit], cavity.amplitudes)
    norm2 = float(np.real(np.vdot(vec, vec)))
    if abs(norm2 - 1.0) > 1e-8 + 4.0 * tail:
        raise NormalizationError(
            f"branch decomposition materializes to norm^2 = {norm2!r}; weights are inconsistent"
        )
    return JointState(vec / math.sqrt(norm2), leakage=tail + abs(1.0 - norm2))


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
