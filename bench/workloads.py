"""Seeded inputs for the three workloads.

The seed sets phases, couplings, drive scales, cavity frequencies and time
grids. It does not set the sizes that fix the cost of an operation: every
batch holds one operation per size stratum (peak displacement, cat
amplitude or squeeze amplitude), so any seed gives the same Fock truncations
and the same work. The program only ever sees the generated configs.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass

import checks

WORKLOADS = ("oracle_linear", "cat_wigner", "oracle_squeeze")

WAVELENGTH = 1e-3  # m; the device frequency below is set through "omega"
OMEGA_0 = 2.0 * math.pi * checks.SPEED_OF_LIGHT / WAVELENGTH
EJ_OVER_OMEGA = 50.0  # E_J = 50 hbar omega, E_ch = 4 E_J

# Largest |alpha| reached over the time grid, one verify per value; sets
# the truncation (about 64 to 450 levels).
COHERENT_PEAKS = (4.0, 8.0, 12.0, 16.0)
PULSE_PEAKS = (6.0, 10.0, 14.0, 18.0)
VACUUM_OPS = 3
CAT_ALPHAS = (0.5, 0.9, 1.3, 1.7)
# |alpha| = 2 along a phase-space diagonal: the state displaced to the far
# grid corner leaves the 64-level truncation, and hilbert.wigner is off the
# closed form by 1.2e-5. The input does not depend on the seed.
CAT_KNOWN_FAULT = "hilbert.wigner: the displaced state leaves the truncation"
SQUEEZE_GAMMAS = (1.0, 2.5, 4.0, 5.5, 7.0, 8.5, 10.0)
# (xi, |gamma|) beyond the range of the factorized squeezed form on the
# fixed device: analytic.squeezed_evolution neglects that the rotation and
# squeeze generators do not commute, so verify reports an infidelity above
# the 1e-8 limit (5.3e-8 and 9.8e-3). The inputs do not depend on the seed.
SQUEEZE_KNOWN_FAULTS = ((1e-4, 6.0), (1e-2, 1.0))
SQUEEZE_KNOWN_FAULT = "analytic.squeezed_evolution neglects [rotation, squeeze] != 0"


@dataclass(frozen=True)
class Op:
    """One CLI operation: its config and the fault it is known to hit, if any."""

    name: str
    config: dict
    known_fault: str | None = None


def device(omega: float, xi: float, phi_c_ratio: float) -> dict:
    """Config device block with E_J = 50 hbar omega and coupling ``xi``."""
    e_j = checks.energy_ev(EJ_OVER_OMEGA * omega)
    return {
        "E_J": e_j,
        "E_ch": 4.0 * e_j,
        "n_g": 0.5,
        "phi_c_ratio": phi_c_ratio,
        "lambda": WAVELENGTH,
        "cavity_kind": "full",
        "S": checks.squid_area_for(xi, omega, WAVELENGTH),
        "omega": omega,
    }


def injected_amplitude(peak: float, kappa: float, phase: float) -> complex:
    """Injected alpha' whose branches reach |alpha| = ``peak`` over a drive period.

    The branches are (alpha' +- kappa) - (+-kappa) e^{i w tau} up to a phase,
    so the largest |alpha| is max|alpha' +- kappa| + kappa.
    """
    c = abs(math.cos(phase))
    a = -kappa * c + math.sqrt((kappa * c) ** 2 - kappa**2 + (peak - kappa) ** 2)
    return a * cmath.exp(1j * phase)


def _output(outdir: str, index: int) -> dict:
    return {"path": f"{outdir}/op{index:02d}.json", "format": "json"}


def _oracle_linear(rng: random.Random, outdir: str) -> list[Op]:
    omega = OMEGA_0 * rng.uniform(0.9, 1.1)
    kappa = rng.uniform(0.45, 0.55)
    dev = device(omega, kappa / EJ_OVER_OMEGA, 0.5)
    period = 2.0 * math.pi / omega
    plan = [("vacuum", 0.0)] * VACUUM_OPS
    plan += [("coherent", peak) for peak in COHERENT_PEAKS]
    plan += [("pulse", peak) for peak in PULSE_PEAKS]
    ops = []
    for index, (target, peak) in enumerate(plan):
        config = {
            "scenario": "verify",
            "device": dev,
            "target": target,
            "points": 20,
            "tau_max": period * rng.uniform(1.5, 2.5),
            "output": _output(outdir, index),
        }
        if target != "vacuum":
            alpha = injected_amplitude(peak, kappa, rng.uniform(0.0, 2.0 * math.pi))
            config["alpha_prime"] = [alpha.real, alpha.imag]
        ops.append(Op(f"{target}@{peak:g}", config))
    return ops


def _cat_config(dev: dict, turn: float, outdir: str, index: int) -> dict:
    """Vacuum-input cat after the drive phase w tau = ``turn``, default Wigner grid."""
    return {"scenario": "cat", "device": dev, "tau": turn / dev["omega"], "output": _output(outdir, index)}


def _cat_wigner(rng: random.Random, outdir: str) -> list[Op]:
    omega = OMEGA_0 * rng.uniform(0.9, 1.1)
    kappa = rng.uniform(1.0, 1.1)
    dev = device(omega, kappa / EJ_OVER_OMEGA, 0.5)
    ops = []
    for index, center in enumerate(CAT_ALPHAS):
        # |alpha| = 2 kappa |sin(w tau / 2)|, reached twice per period.
        size = min(1.75, max(0.5, center + rng.uniform(-0.05, 0.05)))
        half_turn = 2.0 * math.asin(size / (2.0 * kappa))
        turn = half_turn if rng.random() < 0.5 else 2.0 * math.pi - half_turn
        ops.append(Op(f"cat@{center:g}", _cat_config(dev, turn, outdir, index)))
    # kappa = sqrt(2) and w tau = pi/2 give alpha = -sqrt(2) (1 + i).
    fixed = device(OMEGA_0, math.sqrt(2.0) / EJ_OVER_OMEGA, 0.5)
    config = _cat_config(fixed, math.pi / 2.0, outdir, len(CAT_ALPHAS))
    ops.append(Op("cat@2,diagonal", config, CAT_KNOWN_FAULT))
    return ops


def _squeeze_config(dev: dict, gamma: complex, outdir: str, index: int) -> dict:
    return {
        "scenario": "verify",
        "device": dev,
        "target": "squeeze",
        "points": 20,
        "gamma": [gamma.real, gamma.imag],
        "output": _output(outdir, index),
    }


def _oracle_squeeze(rng: random.Random, outdir: str) -> list[Op]:
    ops = []
    for index, size in enumerate(SQUEEZE_GAMMAS):
        omega = OMEGA_0 * rng.uniform(0.9, 1.1)
        # Within the factorized form's range: infidelity <= 4e-11 at |gamma| = 10.
        xi = 10.0 ** rng.uniform(-6.0, -5.0)
        gamma = size * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        config = _squeeze_config(device(omega, xi, 0.0), gamma, outdir, index)
        ops.append(Op(f"squeeze@{size:g}", config))
    for offset, (xi, size) in enumerate(SQUEEZE_KNOWN_FAULTS):
        index = len(SQUEEZE_GAMMAS) + offset
        config = _squeeze_config(device(OMEGA_0, xi, 0.0), complex(size), outdir, index)
        ops.append(Op(f"squeeze@{size:g},xi={xi:g}", config, SQUEEZE_KNOWN_FAULT))
    return ops


def build(workload: str, seed: int, outdir: str) -> list[Op]:
    """The fixed batch of operations of ``workload`` for ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "oracle_linear":
        return _oracle_linear(rng, outdir)
    if workload == "cat_wigner":
        return _cat_wigner(rng, outdir)
    if workload == "oracle_squeeze":
        return _oracle_squeeze(rng, outdir)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
