"""Quantitative sweeps, feasibility arithmetic, and the analytic/numeric cross-check.

The sweep reproduces how the qubit-field drive rate varies with microwave
wavelength for several charging-to-Josephson energy ratios, under the fixed
conventions omega = 4 E_ch / hbar, SQUID area 100 um^2, qubit at the cavity
midpoint, and cavity volume L^3.  ``verify_analytic_numeric`` is the master
cross-check: it materializes closed-form branch states and compares them
against brute-force propagation on a time grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .analytic import (
    auto_fock_dim,
    evolve_coherent,
    evolve_vacuum,
    flux_pi_pulse,
    materialize,
    squeezed_evolution,
)
from .constants import HBAR, SPEED_OF_LIGHT, ELEMENTARY_CHARGE
from .hilbert import Propagator, coherent_fock, fidelity, joint_state
from .model import Coupling, DeviceParams, coupling_xi, hamiltonian

__all__ = [
    "SweepRow",
    "FeasibilityReport",
    "VERIFY_SCENARIOS",
    "SWEEP_CSV_HEADER",
    "rabi_frequency",
    "fig1_sweep",
    "default_lambda_grid",
    "sweep_rows_to_csv",
    "feasibility_report",
    "verify_analytic_numeric",
]

SWEEP_CSV_HEADER = "lambda_m,cavity_kind,ratio,xi_abs,rabi_hz"
VERIFY_SCENARIOS = ("vacuum", "coherent", "pulse", "squeeze")

DEFAULT_RATIOS = (4.0, 7.0, 10.0, 15.0)
DEFAULT_KINDS = ("full", "quarter")
SWEEP_SQUID_AREA = 100e-12


@dataclass(frozen=True)
class SweepRow:
    """One sweep point: wavelength, cavity kind, E_ch/E_J ratio, coupling, drive rate."""

    lambda_m: float
    cavity_kind: str
    ratio: float
    xi_abs: float
    rabi_hz: float

    def __post_init__(self):
        if self.rabi_hz < 0:
            raise ValueError("rabi_hz must be >= 0")


@dataclass(frozen=True)
class FeasibilityReport:
    """Timescale comparison: operation time, cavity lifetime, qubit times, readout."""

    t_q: float
    t_d: float
    T1: float
    T2: float
    tau_m: float
    operation_faster_than_dephasing: bool
    readout_within_coherence: bool

    def __post_init__(self):
        for name in ("t_q", "t_d", "T1", "T2", "tau_m"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


def rabi_frequency(params: DeviceParams, coupling: Coupling) -> float:
    """Qubit-field drive rate |xi| E_J / (2 pi hbar) in Hz."""
    return abs(coupling.xi) * params.ej_rate / (2.0 * math.pi)


def default_lambda_grid(points: int = 200) -> np.ndarray:
    """Log-spaced microwave wavelengths over [0.1, 15] cm."""
    return np.logspace(math.log10(0.001), math.log10(0.15), points)


def _sweep_device(lam: float, ratio: float, kind: str) -> DeviceParams:
    omega = 2.0 * math.pi * SPEED_OF_LIGHT / lam
    ech_ev = HBAR * omega / (4.0 * ELEMENTARY_CHARGE)
    return DeviceParams(
        E_J=ech_ev / ratio,
        E_ch=ech_ev,
        n_g=0.5,
        phi_c_ratio=0.5,
        wavelength=lam,
        cavity_kind=kind,
        squid_area=SWEEP_SQUID_AREA,
    )


def fig1_sweep(lambdas=None, ratios=DEFAULT_RATIOS, kinds=DEFAULT_KINDS) -> list[SweepRow]:
    """Drive-rate sweep over wavelength for each energy ratio and cavity kind.

    Row order is fixed by the input grids (kind outermost, then ratio, then
    wavelength), independent of how the points are evaluated.
    """
    lams = default_lambda_grid() if lambdas is None else np.asarray(lambdas, dtype=float)
    if lams.size == 0:
        raise ValueError("wavelength grid must be nonempty")
    rows: list[SweepRow] = []
    for kind in kinds:
        for ratio in ratios:
            for lam in lams:
                params = _sweep_device(float(lam), float(ratio), kind)
                coupling = coupling_xi(params)
                rows.append(
                    SweepRow(
                        lambda_m=float(lam),
                        cavity_kind=kind,
                        ratio=float(ratio),
                        xi_abs=abs(coupling.xi),
                        rabi_hz=rabi_frequency(params, coupling),
                    )
                )
    return rows


def sweep_rows_to_csv(rows) -> str:
    """Deterministic CSV rendering with 17 significant digits."""
    lines = [SWEEP_CSV_HEADER]
    for row in rows:
        lines.append(
            f"{row.lambda_m:.17g},{row.cavity_kind},{row.ratio:.17g},"
            f"{row.xi_abs:.17g},{row.rabi_hz:.17g}"
        )
    return "\n".join(lines) + "\n"


def feasibility_report(
    params: DeviceParams, T1: float, T2: float, tau_m: float
) -> FeasibilityReport:
    """Compare the operation time 1/|Omega| and cavity lifetime Q/omega with qubit times."""
    if params.Q is None:
        raise ValueError("feasibility report requires the cavity quality factor Q")
    if min(T1, T2, tau_m) <= 0:
        raise ValueError("T1, T2 and tau_m must be positive")
    coupling = coupling_xi(params)
    omega_rabi = abs(coupling.xi) * params.ej_rate
    if omega_rabi == 0:
        raise ValueError("drive rate is zero; operation time is undefined")
    t_q = 1.0 / omega_rabi
    t_d = params.Q / params.omega_cavity
    return FeasibilityReport(
        t_q=t_q,
        t_d=t_d,
        T1=T1,
        T2=T2,
        tau_m=tau_m,
        operation_faster_than_dephasing=t_q < T2,
        readout_within_coherence=tau_m < min(T2, t_d),
    )


def _analytic_map(
    params: DeviceParams,
    coupling: Coupling,
    scenario: str,
    alpha_prime: complex,
    gamma: complex,
):
    """Closed-form evolution tau -> BranchDecomposition for one scenario."""
    if scenario == "vacuum":
        return lambda tau: evolve_vacuum(params, coupling, tau)
    if scenario == "coherent":
        return lambda tau: evolve_coherent(params, coupling, alpha_prime, tau)
    if scenario == "pulse":
        return lambda tau: flux_pi_pulse(
            evolve_coherent(params, coupling, alpha_prime, tau), params
        )
    if scenario == "squeeze":
        return lambda tau: squeezed_evolution(params, coupling, gamma, tau)
    raise ValueError(f"scenario must be one of {VERIFY_SCENARIOS}, got {scenario!r}")


def _numeric_map(
    params: DeviceParams,
    coupling: Coupling,
    scenario: str,
    dim: int,
    alpha_prime: complex,
    gamma: complex,
):
    """Brute-force evolution tau -> JointState for one scenario.

    The Hamiltonians do not depend on the grid time, so their
    eigendecompositions are done once here and reused across the grid.
    """
    if scenario == "squeeze":
        evolve = Propagator(hamiltonian(params, coupling, "second", dim))
        psi0 = joint_state("g", coherent_fock(gamma, dim))
        return lambda tau: evolve(psi0, tau)
    evolve = Propagator(hamiltonian(params, coupling, "first", dim))
    start = 0.0 if scenario == "vacuum" else alpha_prime
    psi0 = joint_state("g", coherent_fock(start, dim))
    if scenario != "pulse":
        return lambda tau: evolve(psi0, tau)
    pulse_params = replace(params, phi_c_ratio=1.0)
    pulse = Propagator(hamiltonian(pulse_params, coupling, "first", dim))
    t_pulse = math.pi / (4.0 * params.ej_rate)
    return lambda tau: pulse(evolve(psi0, tau), t_pulse)


def verify_analytic_numeric(
    params: DeviceParams,
    scenario: str,
    tau_grid,
    fock_dim: int | None = None,
    *,
    coupling: Coupling | None = None,
    alpha_prime: complex = 0.0,
    gamma: complex = 0.0,
) -> float:
    """Max infidelity between closed-form branches and brute-force propagation.

    Runs both paths at every grid time and returns max(1 - fidelity).  The
    truncation comes from ``auto_fock_dim``, starting at ``fock_dim`` if
    given: at each truncation tried it materializes every distinct branch
    label once and propagates the initial state to every grid time, and it
    doubles (up to 512) until neither the closed-form nor the propagated
    states populate the top Fock levels.  The fidelities use those same
    states.
    """
    tau_grid = [float(t) for t in tau_grid]
    if not tau_grid:
        raise ValueError("tau_grid must be nonempty")
    c = coupling_xi(params) if coupling is None else coupling
    analytic_at = _analytic_map(params, c, scenario, alpha_prime, gamma)
    decompositions = [analytic_at(tau) for tau in tau_grid]
    trials = {}

    def propagated(dim, label_states):
        numeric_at = _numeric_map(params, c, scenario, dim, alpha_prime, gamma)
        numeric = [numeric_at(tau) for tau in tau_grid]
        trials[dim] = label_states, numeric
        return numeric

    labels = [label for decomposition in decompositions for label in decomposition.labels()]
    dim = auto_fock_dim(labels, fock_dim, propagated=propagated)
    label_states, numeric = trials[dim]
    return max(
        1.0 - fidelity(materialize(decomposition, dim, label_states), state)
        for decomposition, state in zip(decompositions, numeric)
    )
