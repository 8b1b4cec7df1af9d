"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or on
failure) and enforces the stated runtime budget where one exists.
"""

import cmath
import math
import time

import numpy as np
import pytest
from scipy.linalg import expm

from squidcat.analytic import (
    auto_fock_dim,
    disentangle,
    evolve_vacuum,
    materialize,
    materialize_label,
    materialize_sectors,
    squeezed_evolution,
    squeezed_sectors,
)
from squidcat.constants import ELEMENTARY_CHARGE, HBAR
from squidcat.experiments import (
    default_lambda_grid,
    fig1_sweep,
    rabi_frequency,
    verify_analytic_numeric,
)
from squidcat.hilbert import Propagator, coherent_fock, joint_state, min_quadrature_variance
from squidcat.measurement import measure_qubit
from squidcat.model import Coupling, DeviceParams, coupling_xi, hamiltonian

from conftest import (
    injected_pair_overlap,
    ladder,
    make_physical_device,
    make_strong_device,
    squeeze_degrees,
)


def _report(index: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {index:02d}: {status} ({detail})", flush=True)
    assert ok, detail


def test_criterion_01_coupling_bounds():
    start = time.monotonic()
    short = abs(coupling_xi(make_physical_device(lam=1e-3)).xi)
    long = abs(coupling_xi(make_physical_device(lam=0.15)).xi)
    elapsed = time.monotonic() - start
    ok = (
        abs(short - 7.38e-5) <= 0.05 * 7.38e-5
        and abs(long - 3.28e-9) <= 0.05 * 3.28e-9
        and elapsed < 1.0
    )
    _report(1, ok, f"|xi|(0.1cm)={short:.4e}, |xi|(15cm)={long:.4e}, {elapsed:.2f}s")


def test_criterion_02_rabi_magnitudes():
    start = time.monotonic()
    results = []
    for lam, lo, hi in ((1e-3, 5e5, 5e6), (0.05, 5.0, 50.0)):
        params = make_physical_device(lam=lam, ratio=4.0)
        coupling = coupling_xi(params)
        value = rabi_frequency(params, coupling)
        oracle = abs(coupling.xi) * params.omega_cavity / (32.0 * math.pi)
        results.append((value, lo <= value <= hi and abs(value - oracle) <= 0.01 * oracle))
    elapsed = time.monotonic() - start
    ok = all(flag for _, flag in results) and elapsed < 1.0
    _report(
        2,
        ok,
        f"rabi(0.1cm)={results[0][0]:.4e} Hz, rabi(5cm)={results[1][0]:.4e} Hz, {elapsed:.2f}s",
    )


def test_criterion_03_cavity_lifetime():
    start = time.monotonic()
    values = []
    for lam, lo, hi in ((1e-3, 0.9e-3, 1.1e-3), (0.15, 0.135, 0.165)):
        params = make_physical_device(lam=lam, Q=3e8)
        lifetime = 2.0 * math.pi * params.Q / params.omega_cavity
        values.append((lifetime, lo <= lifetime <= hi))
    elapsed = time.monotonic() - start
    ok = all(flag for _, flag in values) and elapsed < 1.0
    _report(
        3,
        ok,
        f"2pi*t_d(0.1cm)={values[0][0]:.4e} s, 2pi*t_d(15cm)={values[1][0]:.4e} s, {elapsed:.2f}s",
    )


def test_criterion_04_analytic_numeric_equivalence():
    start = time.monotonic()
    strong = make_strong_device()
    strong_coupling = Coupling.from_xi(0.01)
    physical = make_physical_device()
    squeeze_device = make_physical_device(phi_c_ratio=0.0)

    def grid(params):
        return np.linspace(0.0, 4.0 * math.pi / params.omega_cavity, 20)

    dim = 64  # well inside the N <= 128 budget
    worst = {
        "vacuum": max(
            verify_analytic_numeric(strong, "vacuum", grid(strong), dim, coupling=strong_coupling),
            verify_analytic_numeric(physical, "vacuum", grid(physical), dim),
        ),
        "coherent": verify_analytic_numeric(
            strong, "coherent", grid(strong), dim, coupling=strong_coupling, alpha_prime=2.0
        ),
        "pulse": verify_analytic_numeric(
            strong, "pulse", grid(strong), dim, coupling=strong_coupling, alpha_prime=1.0
        ),
        "squeeze": verify_analytic_numeric(
            squeeze_device, "squeeze", grid(squeeze_device), dim, gamma=1.0
        ),
    }
    elapsed = time.monotonic() - start
    ok = all(value <= 1e-8 for value in worst.values()) and elapsed < 60.0
    detail = ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
    _report(4, ok, f"max infidelity: {detail}, {elapsed:.1f}s")


def test_criterion_05_disentangling_identity():
    start = time.monotonic()
    rng = np.random.default_rng(20260810)
    dim = 48
    a, adag = ladder(dim)
    n_mat = adag @ a
    levels = np.arange(dim)
    worst = 0.0
    for _ in range(100):
        theta, b1, b2, b3 = (
            rng.uniform(0.0, 0.5) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
            for _ in range(4)
        )
        direct = expm(theta * (b1 * a + b2 * n_mat + b3 * adag))[:, 0]
        f = disentangle(theta, b1, b2, b3)
        product = cmath.exp(f.f4) * (
            expm(f.f1 * adag) @ (np.exp(f.f2 * levels) * expm(f.f3 * a)[:, 0])
        )
        overlap = abs(np.vdot(direct, product)) ** 2
        overlap /= float(np.vdot(direct, direct).real * np.vdot(product, product).real)
        worst = max(worst, 1.0 - overlap)
    elapsed = time.monotonic() - start
    ok = worst <= 1e-9 and elapsed < 30.0
    _report(5, ok, f"worst 1-fidelity over 100 draws = {worst:.2e}, {elapsed:.1f}s")


def test_criterion_06_cat_structure():
    params = make_strong_device()
    coupling = Coupling.from_xi(0.01)
    tau = math.pi / params.omega_cavity
    state = evolve_vacuum(params, coupling, tau)
    alpha = state.branches()[0].label.alpha

    rec_g = measure_qubit(state, "g")
    rec_e = measure_qubit(state, "e")
    probs_g, probs_e = (np.abs(rec.post_state.amplitudes) ** 2 for rec in (rec_g, rec_e))
    even_weight, odd_weight = float(probs_g[0::2].sum()), float(probs_e[1::2].sum())

    p_formula = (1.0 + math.exp(-2.0 * abs(alpha) ** 2)) / 2.0
    completeness = abs(rec_g.probability + rec_e.probability - 1.0)
    ok = (
        even_weight >= 1.0 - 1e-10
        and odd_weight >= 1.0 - 1e-10
        and abs(rec_g.probability - p_formula) <= 1e-10
        and completeness <= 1e-12
    )
    _report(
        6,
        ok,
        f"even={even_weight:.12f}, odd={odd_weight:.12f}, "
        f"|P(g)-formula|={abs(rec_g.probability - p_formula):.2e}, "
        f"|P(g)+P(e)-1|={completeness:.2e}",
    )


def _squeeze_device(ej_rate=1e9):
    """Criterion 07's device: omega = 1e10 rad/s at phi_c = 0, E_J = ``ej_rate`` hbar."""
    return DeviceParams(
        E_J=ej_rate * HBAR / ELEMENTARY_CHARGE,
        E_ch=4.0 * ej_rate * HBAR / ELEMENTARY_CHARGE,
        n_g=0.5,
        phi_c_ratio=0.0,
        wavelength=0.01,
        omega=1e10,
    )


def test_criterion_07_squeezing_law():
    # synthetic coupling strong enough that |xi|^2 E_J t reaches 0.5 quickly,
    # but still below the expansion-warning threshold; the exact degree stays
    # below |lam|/w, as the cavity rotation undoes the squeezing each period
    xi_abs = 0.05
    ej_rate = 1e9
    params = _squeeze_device(ej_rate)
    coupling = Coupling.from_xi(xi_abs)
    worst = worst_infidelity = 0.0
    for r in (0.05, 0.1, 0.2, 0.5):
        t = r / (xi_abs**2 * ej_rate)
        state = squeezed_evolution(params, coupling, 0.0, t)
        for label, degree in zip(state.labels(), squeeze_degrees(params, coupling, t)):
            assert abs(abs(label.squeeze) - degree) <= 1e-12 * degree
            variance = min_quadrature_variance(materialize_label(label, 96))
            worst = max(worst, abs(variance - 0.5 * math.exp(-2.0 * degree)))
        infidelity = verify_analytic_numeric(params, "squeeze", [t], coupling=coupling)
        worst_infidelity = max(worst_infidelity, infidelity)
    ok = worst <= 1e-6 and worst_infidelity <= 1e-8
    _report(
        7,
        ok,
        f"worst |min variance - e^(-2r)/2| = {worst:.2e}, "
        f"worst infidelity = {worst_infidelity:.2e}",
    )


def test_criterion_08_overlap_identity():
    from squidcat.analytic import coherent_overlap

    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(100):
        kappa = rng.uniform(0.0, 1.0)
        alpha_prime = rng.uniform(-2.0, 2.0)
        omega_tau = rng.uniform(0.0, 4.0 * math.pi)
        closed = injected_pair_overlap(kappa, alpha_prime, omega_tau)
        rot = cmath.exp(-1j * omega_tau)
        general = coherent_overlap(
            alpha_prime * rot + kappa * (rot - 1.0),
            alpha_prime * rot - kappa * (rot - 1.0),
        )
        worst = max(worst, abs(closed - general))
    ok = worst <= 1e-12
    _report(8, ok, f"worst |closed - general| = {worst:.2e} over 100 triples")


def test_criterion_09_sweep_properties():
    start = time.monotonic()
    rows = fig1_sweep(default_lambda_grid(200))
    curves: dict = {}
    per_point: dict = {}
    for row in rows:
        curves.setdefault((row.cavity_kind, row.ratio), []).append(row.rabi_hz)
        per_point.setdefault((row.cavity_kind, row.lambda_m), {})[row.ratio] = row.rabi_hz

    monotone = all(
        all(a > b for a, b in zip(vals, vals[1:])) for vals in curves.values()
    )
    ordered = all(
        c[4.0] > c[7.0] > c[10.0] > c[15.0] for c in per_point.values()
    )
    full = {(r.ratio, r.lambda_m): r.rabi_hz for r in rows if r.cavity_kind == "full"}
    quarter = {(r.ratio, r.lambda_m): r.rabi_hz for r in rows if r.cavity_kind == "quarter"}
    kind_gap = all(quarter[key] > full[key] for key in full)
    elapsed = time.monotonic() - start
    ok = monotone and ordered and kind_gap and elapsed < 5.0
    _report(
        9,
        ok,
        f"monotone={monotone}, ratio-ordered={ordered}, quarter>full={kind_gap}, "
        f"{len(rows)} rows, {elapsed:.1f}s",
    )


def test_criterion_10_expansion_order_consistency():
    params = make_physical_device(phi_c_ratio=0.0)
    dim = 32
    xis = [1e-5, 2e-5, 4e-5]
    deviations = []
    for xi_abs in xis:
        c = Coupling.from_xi(xi_abs)
        diff = (
            hamiltonian(params, c, "cosine", dim).matrix
            - hamiltonian(params, c, "first", dim).matrix
        )
        deviations.append(np.linalg.norm(diff, 2))
    slope = float(np.polyfit(np.log(xis), np.log(deviations), 1)[0])
    ok = abs(slope - 2.0) <= 0.2
    _report(10, ok, f"log-log slope = {slope:.4f}")


def _infidelity(x, y):
    """1 - |<x|y>|^2 of two unit columns as |d|^2 - |d|^4/4, with d = x - e^(i arg<y|x>) y
    the phase-aligned difference, which resolves it far below the rounding of 1 - |<x|y>|^2."""
    overlap = np.vdot(y, x)
    d = x - y * (overlap / abs(overlap))
    d2 = np.vdot(d, d).real
    return d2 - d2 * d2 / 4.0


def _second_order_against_cosine(params, coupling, t):
    """1 - F of the closed form and of the second-order Propagator against the cosine's,
    from vacuum (x) g at time ``t``."""
    form = squeezed_sectors(params, coupling, 0.0, [t])
    dim, label_states = auto_fock_dim(form.distinct_labels[0])
    closed, norm2, _ = materialize_sectors(form, dim, label_states)
    psi0 = joint_state("g", coherent_fock(0.0, dim)).amplitudes
    cosine, second = (
        Propagator(hamiltonian(params, coupling, order, dim))(psi0, np.array([t]))[:, 0]
        for order in ("cosine", "second")
    )
    return _infidelity(closed[:, 0] / math.sqrt(norm2[0]), cosine), _infidelity(second, cosine)


def test_criterion_10_second_order_matches_the_cosine():
    # On criterion 07's device the squeezed closed form and the second-order
    # Propagator both match the full cosine to its fourth-order remainder.
    xi_abs, ej_rate = 0.05, 1e9
    coupling = Coupling.from_xi(xi_abs)
    worst = 0.0
    for r in (0.05, 0.1, 0.2, 0.5):
        t = r / (xi_abs**2 * ej_rate)
        worst = max(worst, *_second_order_against_cosine(_squeeze_device(ej_rate), coupling, t))
    # At fixed E_J |xi|^2 t the remainder falls as |xi|^4, 1e4 per decade of |xi|,
    # over eight decades; below |xi| ~ 5e-4 it meets the cosine's rounding, E_J eps.
    strength, t = xi_abs**2 * ej_rate, 0.5 / (xi_abs**2 * ej_rate)
    xis = (0.08, 0.008, 0.0008)
    remainders = [
        _second_order_against_cosine(_squeeze_device(strength / x**2), Coupling.from_xi(x), t)[0]
        for x in xis
    ]
    ratios = [big / small for big, small in zip(remainders, remainders[1:])]
    ok = worst <= 1e-7 and all(5e3 <= ratio <= 2e4 for ratio in ratios)
    _report(
        10,
        ok,
        f"worst 1 - F against the cosine = {worst:.2e}; remainder at |xi| = {xis}: "
        + ", ".join(f"{value:.2e}" for value in remainders),
    )
