"""Closed forms and output checks, written apart from the package.

Nothing here imports squidcat: the drive scale, cat amplitudes,
probabilities and Wigner maps are computed from the device numbers in the
generated configs with the benchmark's own copy of the constants, so a
fault in the package cannot hide in its own reference values.

Each ``check_*`` function takes a parsed CLI output and its config, and
returns the error an operation fails on when it exceeds its limit (the
infidelity, or the Wigner error) with the list of every other violation.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

# CODATA 2018, the values the package pins; equal inputs keep the drive
# scale reproducible to rounding.
FLUX_QUANTUM = 2.067833848e-15
VACUUM_PERMITTIVITY = 8.8541878128e-12
SPEED_OF_LIGHT = 2.99792458e8
HBAR = 1.054571817e-34
ELEMENTARY_CHARGE = 1.602176634e-19

CAVITY_FRACTION = {"full": 1.0, "half": 0.5, "quarter": 0.25}

INFIDELITY_LIMIT = 1e-8  # the package's analytic/numeric contract
PROBABILITY_TOL = 1e-9
PARITY_TOL = 1e-12
# The CLI's Wigner maps drift from the closed form once the state displaced
# to a grid corner leaves the truncation: at 64 levels and extent 3 the
# error is up to 1.4e-6 for |alpha| <= 1.75 and 1.2e-5 at |alpha| = 2 along
# a diagonal. 5e-6 passes the first and rejects an error of 1e-5.
WIGNER_TOL = 5e-6
WIGNER_BOUND = 2.0 / math.pi


def rate(energy_ev: float) -> float:
    """Energy in eV as an angular frequency in rad/s."""
    return energy_ev * ELEMENTARY_CHARGE / HBAR


def energy_ev(rate_rad_s: float) -> float:
    """Angular frequency in rad/s as an energy in eV."""
    return rate_rad_s * HBAR / ELEMENTARY_CHARGE


def _field_per_xi(omega: float, wavelength: float, kind: str) -> float:
    """xi per unit SQUID area: pi sqrt(hbar w / (eps0 L^3 c^2)) |cos(k L/2)| / Phi0."""
    length = wavelength * CAVITY_FRACTION[kind]
    mode = abs(math.cos(2.0 * math.pi / wavelength * length / 2.0))
    field = math.sqrt(HBAR * omega / (VACUUM_PERMITTIVITY * length**3 * SPEED_OF_LIGHT**2))
    return math.pi * field * mode / FLUX_QUANTUM


def squid_area_for(xi: float, omega: float, wavelength: float, kind: str = "full") -> float:
    """SQUID area that gives coupling ``xi`` with the qubit at the cavity midpoint."""
    return xi / _field_per_xi(omega, wavelength, kind)


def coupling(device: dict) -> float:
    """Dimensionless coupling xi of a config's device (real, qubit at the midpoint)."""
    return device["S"] * _field_per_xi(device["omega"], device["lambda"], device.get("cavity_kind", "full"))


def kappa(device: dict) -> float:
    """Drive scale xi E_J / (hbar omega) of a config's device."""
    return coupling(device) * rate(device["E_J"]) / device["omega"]


def cat_alpha(device: dict, tau: float) -> complex:
    """Cat displacement alpha = kappa (exp(-i w tau) - 1) after a vacuum-input drive."""
    return kappa(device) * (cmath.exp(-1j * device["omega"] * tau) - 1.0)


def cat_probabilities(alpha: complex) -> dict:
    """Charge outcome probabilities (1 +- exp(-2|alpha|^2))/2 of the vacuum-input cat."""
    overlap = math.exp(-2.0 * abs(alpha) ** 2)
    return {"g": 0.5 * (1.0 + overlap), "e": 0.5 * (1.0 - overlap)}


def cat_wigner(alpha: complex, sign: float, beta: np.ndarray) -> np.ndarray:
    """Wigner map of the normalized cat |alpha> + sign |-alpha> at points ``beta``."""
    interference = 2.0 * np.exp(-2.0 * np.abs(beta) ** 2) * np.cos(
        4.0 * np.imag(np.conj(alpha) * beta)
    )
    numerator = (
        np.exp(-2.0 * np.abs(beta - alpha) ** 2)
        + np.exp(-2.0 * np.abs(beta + alpha) ** 2)
        + sign * interference
    )
    return (2.0 / math.pi) * numerator / (2.0 + sign * 2.0 * math.exp(-2.0 * abs(alpha) ** 2))


def check_verify(output: dict, config: dict) -> tuple[float, list[str]]:
    """Infidelity of a ``verify`` output and its violations other than the limit."""
    problems = []
    if output.get("scenario") != "verify" or output.get("target") != config["target"]:
        problems.append("verify output does not echo its scenario and target")
    if output.get("points") != config.get("points", 20):
        problems.append("verify output does not echo its grid size")
    if "tau_max" in config and output.get("tau_max") != config["tau_max"]:
        problems.append("verify output does not echo tau_max")
    infidelity = output.get("max_infidelity")
    if not isinstance(infidelity, (int, float)) or not math.isfinite(infidelity):
        problems.append(f"max_infidelity {infidelity!r} is not a finite number")
        infidelity = math.inf
    return float(infidelity), problems


def check_cat(output: dict, config: dict) -> tuple[float, list[str]]:
    """Largest Wigner error of a ``cat`` output, and its other violations."""
    alpha = cat_alpha(config["device"], config["tau"])
    expected = cat_probabilities(alpha)
    records = {r["outcome"]: r for r in output.get("measurements", [])}
    sections = {s["outcome"]: s for s in output.get("wigner", [])}
    if sorted(records) != ["e", "g"] or sorted(sections) != ["e", "g"]:
        return math.inf, [f"cat output has outcomes {sorted(records)} and maps {sorted(sections)}"]
    problems = []
    worst = 0.0
    for outcome, sign in (("g", 1.0), ("e", -1.0)):
        record = records[outcome]
        if abs(record["probability"] - expected[outcome]) > PROBABILITY_TOL:
            problems.append(
                f"P({outcome}) = {record['probability']!r}, closed form {expected[outcome]!r}"
            )
        amps = np.array(record["post_state"]["fock_amplitudes"], dtype=float)
        probs = amps[:, 0] ** 2 + amps[:, 1] ** 2
        wrong_parity = float(probs[1::2].sum() if sign > 0 else probs[0::2].sum())
        if wrong_parity > PARITY_TOL:
            problems.append(f"post-state {outcome} has {wrong_parity:.3e} of the wrong parity")
        section = sections[outcome]
        if section["points"] != 41 or section["extent"] != 3.0:
            problems.append(f"Wigner map {outcome} is not on the default 41 x 41 grid at extent 3")
        error, peak = wigner_error(section, alpha, sign)
        if peak > WIGNER_BOUND + 1e-12:
            problems.append(f"Wigner map {outcome} reaches |W| = {peak!r} > 2/pi")
        worst = max(worst, error)
    return worst, problems


def wigner_error(section: dict, alpha: complex, sign: float) -> tuple[float, float]:
    """Largest deviation from the closed-form cat map, and largest |W|."""
    axis = np.asarray(section["axis"], dtype=float)
    values = np.asarray(section["values"], dtype=float)
    beta = axis[None, :] + 1j * axis[:, None]  # values[i_im][i_re]
    exact = cat_wigner(alpha, sign, beta)
    return float(np.abs(values - exact).max()), float(np.abs(values).max())
