"""Quantitative sweeps, feasibility arithmetic, and the analytic/numeric cross-check.

The sweep reproduces how the qubit-field drive rate varies with microwave
wavelength for several charging-to-Josephson energy ratios, under the fixed
conventions omega = 4 E_ch / hbar, SQUID area 100 um^2, qubit at the cavity
midpoint, and cavity volume L^3.  ``verify_analytic_numeric`` is the master
cross-check: it computes the closed form of a target once for its whole time
grid, in the sigma_x-sector form of ``analytic.SectorBranches`` (two sectors
of label arrays over the grid and one 2 x 2 weight matrix), and compares the
joint states it gives against brute-force propagation of the same grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .analytic import (
    SectorBranches,
    auto_fock_dim,
    linear_sectors,
    materialize_sectors,
    pulse_sectors,
    squeezed_sectors,
)
from .constants import HBAR, NORM_TOL, SPEED_OF_LIGHT, ELEMENTARY_CHARGE
from .hilbert import Propagator, coherent_fock, joint_state
from .model import Coupling, DeviceParams, coupling_xi, flux_pulse, hamiltonian

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


def _closed_forms(
    params: DeviceParams,
    coupling: Coupling,
    scenario: str,
    taus: np.ndarray,
    alpha_prime: complex,
    gamma: complex,
) -> SectorBranches:
    """Closed-form evolution of one scenario over a whole grid, in sigma_x-sector form."""
    if scenario in ("vacuum", "coherent", "pulse"):
        state = linear_sectors(params, coupling, 0.0 if scenario == "vacuum" else alpha_prime, taus)
        return pulse_sectors(state, params) if scenario == "pulse" else state
    if scenario == "squeeze":
        return squeezed_sectors(params, coupling, gamma, taus)
    raise ValueError(f"scenario must be one of {VERIFY_SCENARIOS}, got {scenario!r}")


def _numeric_map(
    params: DeviceParams,
    coupling: Coupling,
    scenario: str,
    dim: int,
    alpha_prime: complex,
    gamma: complex,
):
    """Brute-force evolution of one scenario over a whole grid: taus -> (2*dim x K) array.

    The Hamiltonians do not depend on the grid time, so each one is
    diagonalized once here, and the returned function makes one
    ``Propagator`` call per Hamiltonian for the whole grid, on bare joint
    amplitudes: the initial state to every grid time, then for ``pulse``
    every evolved column through the same flux pulse.  Column k is the
    state at the k-th time.
    """
    if scenario == "squeeze":
        evolve = Propagator(hamiltonian(params, coupling, "second", dim))
        psi0 = joint_state("g", coherent_fock(gamma, dim)).amplitudes
        return lambda taus: evolve(psi0, taus)
    evolve = Propagator(hamiltonian(params, coupling, "first", dim))
    start = 0.0 if scenario == "vacuum" else alpha_prime
    psi0 = joint_state("g", coherent_fock(start, dim)).amplitudes
    if scenario != "pulse":
        return lambda taus: evolve(psi0, taus)
    pulse = Propagator(hamiltonian(replace(params, phi_c_ratio=1.0), coupling, "first", dim))
    duration = flux_pulse(params).duration
    return lambda taus: pulse(evolve(psi0, taus), np.full(len(taus), duration))


def _time_grid(tau_grid) -> np.ndarray:
    """The grid times as one float array: nonempty and finite, else ValueError naming the first bad time."""
    taus = np.array([float(t) for t in tau_grid])
    if not taus.size:
        raise ValueError("tau_grid must be nonempty")
    bad = ~np.isfinite(taus)
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError(f"tau_grid must be finite: tau_grid[{k}] = {float(taus[k])!r}")
    return taus


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

    Runs both paths at every grid time and returns max(1 - fidelity), with
    one array per grid on each side.  The grid must be nonempty and finite
    (else ValueError, before any state is computed).  The closed form is
    computed once for the whole grid as a ``SectorBranches``: per sigma_x
    sector, label arrays over the grid, and one 2 x 2 weight matrix.  The
    truncation comes from ``auto_fock_dim``, starting at ``fock_dim`` if
    given, else at the tail requirement of the farthest label: at each
    truncation tried it materializes the distinct labels as one (L x N)
    array and propagates the initial state over the whole grid with one
    ``Propagator`` call per Hamiltonian, and it doubles (up to 512) until
    neither the closed-form rows nor the propagated columns populate the top
    Fock levels.  There, ``materialize_sectors`` forms the K closed-form
    joint states as the columns of one (2N x K) matrix in one contraction
    and checks each column's norm (else NormalizationError); each propagated
    column must hold its norm to NORM_TOL (else ValueError), and every
    fidelity is one column-wise overlap between the two.
    """
    taus = _time_grid(tau_grid)
    c = coupling_xi(params) if coupling is None else coupling
    closed_form = _closed_forms(params, c, scenario, taus, alpha_prime, gamma)
    numeric = {}

    def propagated(dim):
        numeric[dim] = _numeric_map(params, c, scenario, dim, alpha_prime, gamma)(taus)
        return numeric[dim]

    dim, label_states = auto_fock_dim(closed_form.distinct_labels[0], fock_dim, propagated=propagated)
    closed, norm2, _ = materialize_sectors(closed_form, dim, label_states)
    evolved = numeric[dim]
    evolved_norm2 = (evolved.real**2 + evolved.imag**2).sum(axis=0)
    bad = ~(np.abs(evolved_norm2 - 1.0) <= NORM_TOL)
    if bad.any():
        raise ValueError(
            f"propagated state not normalized: |amplitudes|^2 = {float(evolved_norm2[np.argmax(bad)])!r}"
        )
    overlaps = np.einsum("ik,ik->k", closed.conj(), evolved)
    return float((1.0 - (overlaps.real**2 + overlaps.imag**2) / norm2).max())
