import functools
import importlib
import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from squidcat.cli import validate_config
from squidcat.errors import NormalizationError, TruncationError
from squidcat.experiments import (
    _closed_forms,
    SWEEP_CSV_HEADER,
    default_lambda_grid,
    feasibility_report,
    fig1_sweep,
    rabi_frequency,
    sweep_rows_to_csv,
    verify_analytic_numeric,
)
from squidcat.measurement import measure_qubit
from squidcat.analytic import evolve_vacuum
from squidcat.hilbert import Propagator
from squidcat.model import Coupling, coupling_xi

from conftest import make_physical_device, make_strong_device, policy_start, start_over_every_centre


# ---------------------------------------------------------------- drive rate

def test_rabi_short_wavelength_magnitude():
    params = make_physical_device(lam=1e-3, ratio=4.0)
    value = rabi_frequency(params, coupling_xi(params))
    assert 5e5 <= value <= 5e6


def test_rabi_long_wavelength_magnitude():
    params = make_physical_device(lam=0.05, ratio=4.0)
    value = rabi_frequency(params, coupling_xi(params))
    assert 5.0 <= value <= 50.0


def test_rabi_matches_frequency_oracle():
    # with E_ch/E_J = 4 and omega = 4 E_ch/hbar: |Omega|/2pi = |xi| omega/(32 pi)
    for lam in (1e-3, 0.01, 0.05):
        params = make_physical_device(lam=lam, ratio=4.0)
        c = coupling_xi(params)
        oracle = abs(c.xi) * params.omega_cavity / (32.0 * math.pi)
        assert rabi_frequency(params, c) == pytest.approx(oracle, rel=1e-12)


def test_rabi_zero_at_zero_coupling():
    params = make_physical_device(lam=1e-3)
    assert rabi_frequency(params, Coupling.from_xi(0.0)) == 0.0
    # at a mode node the geometric coupling collapses to rounding noise
    node = make_physical_device(lam=1e-3, z0=0.25e-3)
    assert rabi_frequency(node, coupling_xi(node)) <= 1e-9


# ---------------------------------------------------------------- sweep

def test_sweep_row_count_and_header():
    rows = fig1_sweep(default_lambda_grid(10))
    assert len(rows) == 10 * 4 * 2
    csv_text = sweep_rows_to_csv(rows)
    assert csv_text.splitlines()[0] == SWEEP_CSV_HEADER


def test_sweep_monotone_in_wavelength():
    rows = fig1_sweep(default_lambda_grid(25))
    by_curve = {}
    for row in rows:
        by_curve.setdefault((row.cavity_kind, row.ratio), []).append(row.rabi_hz)
    for values in by_curve.values():
        assert all(a > b for a, b in zip(values, values[1:]))


def test_sweep_ratio_ordering():
    rows = fig1_sweep(default_lambda_grid(12))
    by_point = {}
    for row in rows:
        by_point.setdefault((row.cavity_kind, row.lambda_m), {})[row.ratio] = row.rabi_hz
    for curves in by_point.values():
        assert curves[4.0] > curves[7.0] > curves[10.0] > curves[15.0]


def test_sweep_quarter_exceeds_full():
    rows = fig1_sweep(default_lambda_grid(12))
    full = {(r.ratio, r.lambda_m): r.rabi_hz for r in rows if r.cavity_kind == "full"}
    quarter = {(r.ratio, r.lambda_m): r.rabi_hz for r in rows if r.cavity_kind == "quarter"}
    assert set(full) == set(quarter)
    for key in full:
        assert quarter[key] > full[key]
        # V = (lambda/4)^3 raises |xi| by 8, cos(pi/4) lowers it by sqrt(2)/2
        assert quarter[key] / full[key] == pytest.approx(4.0 * math.sqrt(2.0), rel=1e-9)


def test_sweep_deterministic_and_independent():
    grid = default_lambda_grid(7)
    rows = fig1_sweep(grid)
    assert sweep_rows_to_csv(rows) == sweep_rows_to_csv(fig1_sweep(grid))
    # each row equals the row computed in isolation
    single = fig1_sweep([grid[3]], ratios=(7.0,), kinds=("quarter",))[0]
    match = [
        r
        for r in rows
        if r.cavity_kind == "quarter" and r.ratio == 7.0 and r.lambda_m == grid[3]
    ]
    assert match == [single]


def test_sweep_rejects_empty_grid():
    with pytest.raises(ValueError):
        fig1_sweep([])


# ---------------------------------------------------------------- feasibility

def test_cavity_lifetime_short_wavelength():
    params = make_physical_device(lam=1e-3, Q=3e8)
    report = feasibility_report(params, T1=1e-6, T2=5e-9, tau_m=4e-9)
    assert 0.9e-3 <= 2.0 * math.pi * report.t_d <= 1.1e-3


def test_cavity_lifetime_long_wavelength():
    params = make_physical_device(lam=0.15, Q=3e8)
    report = feasibility_report(params, T1=1e-6, T2=5e-9, tau_m=4e-9)
    assert 0.135 <= 2.0 * math.pi * report.t_d <= 0.165


def test_readout_verdicts():
    params = make_physical_device(lam=1e-3, Q=3e8)
    report = feasibility_report(params, T1=1e-6, T2=5e-9, tau_m=4e-9)
    assert report.readout_within_coherence  # tau_m = 4 ns < T2 = 5 ns << t_d
    assert not report.operation_faster_than_dephasing  # 1/|Omega| ~ 0.1 us > 5 ns
    slow_readout = feasibility_report(params, T1=1e-6, T2=5e-9, tau_m=6e-9)
    assert not slow_readout.readout_within_coherence


def test_feasibility_requires_quality_factor():
    params = make_physical_device(lam=1e-3)
    with pytest.raises(ValueError):
        feasibility_report(params, T1=1e-6, T2=5e-9, tau_m=4e-9)


@pytest.mark.parametrize("times", [(math.nan, 5e-9, 4e-9), (1e-6, math.inf, 4e-9), (1e-6, 5e-9, math.nan)])
def test_feasibility_refuses_non_finite_times(times):
    params = make_physical_device(lam=1e-3, Q=3e8)
    with pytest.raises(ValueError, match="T1, T2 and tau_m must be positive and finite"):
        feasibility_report(params, *times)


# ---------------------------------------------------------------- verification harness

def _grid(params, points=8, span=4.0 * math.pi):
    return np.linspace(0.0, span / params.omega_cavity, points)


def test_verify_vacuum_physical_coupling(physical_device):
    infidelity = verify_analytic_numeric(physical_device, "vacuum", _grid(physical_device))
    assert infidelity <= 1e-8


def test_verify_strong_drive_scenarios(strong_device, strong_coupling):
    for scenario, kwargs in (
        ("vacuum", {}),
        ("coherent", {"alpha_prime": 2.0}),
        ("pulse", {"alpha_prime": 1.0}),
    ):
        infidelity = verify_analytic_numeric(
            strong_device, scenario, _grid(strong_device), coupling=strong_coupling, **kwargs
        )
        assert infidelity <= 1e-8, scenario


def test_verify_squeeze_physical_coupling():
    params = make_physical_device(phi_c_ratio=0.0)
    infidelity = verify_analytic_numeric(params, "squeeze", _grid(params), gamma=1.0)
    assert infidelity <= 1e-8


# The E_J = 50 hbar omega device of the squeezed-branch benchmark, over its
# default grid of 20 points on two cavity periods.
_squeeze_bench_device = functools.partial(make_strong_device, phi_c_ratio=0.0)


@pytest.mark.parametrize("xi,gamma", [(1e-4, 6.0), (1e-2, 1.0)])
def test_verify_squeeze_benchmark_inputs(xi, gamma):
    params = _squeeze_bench_device()
    infidelity = verify_analytic_numeric(
        params, "squeeze", _grid(params, points=20), coupling=Coupling.from_xi(xi), gamma=gamma
    )
    assert infidelity <= 1e-8


@pytest.mark.parametrize("xi", [1e-3, 3e-2])
@pytest.mark.parametrize("size", [1.0, 6.0])
def test_verify_squeeze_exact_at_strong_coupling(xi, size):
    params = _squeeze_bench_device()
    gamma = size * np.exp(0.7j)
    infidelity = verify_analytic_numeric(
        params, "squeeze", _grid(params, points=20), coupling=Coupling.from_xi(xi), gamma=gamma
    )
    assert infidelity <= 1e-8


def test_verify_squeeze_branch_phase_over_twenty_periods():
    # the branch phases wind through many turns of 2 pi; a wrong branch of
    # conj(u)^(-1/2) flips the sign of one sector's branch
    params = _squeeze_bench_device()
    grid = _grid(params, points=41, span=40.0 * math.pi)
    infidelity = verify_analytic_numeric(
        params, "squeeze", grid, coupling=Coupling.from_xi(1e-2), gamma=1.0
    )
    assert infidelity <= 1e-8


def test_verify_squeeze_unstable_sector_raises():
    # at xi = 0.1 the sigma_x = +1 sector has |lam| = Omega (w = 0), so its
    # squeezing grows without bound and leaves 512 levels within two periods
    params = _squeeze_bench_device()
    with pytest.raises(TruncationError, match="maximum truncation 512"):
        verify_analytic_numeric(
            params, "squeeze", _grid(params, points=20), coupling=Coupling.from_xi(0.1), gamma=1.0
        )


def test_verify_materializes_each_distinct_label_once(monkeypatch):
    from squidcat import analytic

    # the materializer's rows, one (label, truncation) pair each
    calls = []
    original = analytic.materialize_labels

    def counting(labels, fock_dim):
        calls.extend((label, fock_dim) for label in labels)
        return original(labels, fock_dim)

    monkeypatch.setattr(analytic, "materialize_labels", counting)
    params = make_physical_device(phi_c_ratio=0.0)
    verify_analytic_numeric(params, "squeeze", _grid(params, points=6), gamma=1.0)
    assert len(calls) == len(set(calls)) == 11  # t = 0 gives one label, later times two


def _windowed_verify(monkeypatch, scenario, alpha_prime, coupling, fock_dim=None, window=True, grid=None):
    """verify's figure and the (truncation, edge) of each brute-force propagation it ran.

    Without ``window`` every ``Propagator`` propagates all levels, from level 0,
    whatever edge the policy passes.
    """
    from squidcat import experiments

    params, calls = make_strong_device(), []
    original = experiments._numeric_map

    def recording(*args):
        calls.append((args[3], args[6]))
        return original(*args)

    monkeypatch.setattr(experiments, "_numeric_map", recording)
    if not window:
        monkeypatch.setattr(experiments, "Propagator", lambda hamiltonian, edge=0: Propagator(hamiltonian))
    grid = _grid(params, points=21) if grid is None else grid
    figure = verify_analytic_numeric(params, scenario, grid, fock_dim, coupling=coupling, alpha_prime=alpha_prime)
    monkeypatch.undo()
    return figure, calls


@pytest.mark.parametrize("scenario", ["coherent", "pulse"])
def test_verify_propagates_far_states_in_their_window(monkeypatch, strong_coupling, scenario):
    # kappa = 0.5: every branch stays within 1 of |alpha'| = 12, far from the vacuum
    alpha_prime = 12.0 * np.exp(0.3j)
    figure, calls = _windowed_verify(monkeypatch, scenario, alpha_prime, strong_coupling)
    full, full_calls = _windowed_verify(monkeypatch, scenario, alpha_prime, strong_coupling, window=False)
    (dim, edge), = calls
    assert edge > 0 and full_calls == calls
    assert figure <= 1e-8 and abs(figure - full) <= 1e-12


def test_verify_of_a_branch_through_the_vacuum_propagates_from_level_0(monkeypatch):
    # kappa = 3 and alpha' = 2 kappa: the - branch 3 e^(-i w t) + 3 is the vacuum at w t = pi,
    # a grid time, while the + branch reaches |alpha| = 12
    coupling = Coupling.from_xi(0.06)
    figure, calls = _windowed_verify(monkeypatch, "coherent", 6.0, coupling)
    assert [edge for _, edge in calls] == [0]
    assert figure == _windowed_verify(monkeypatch, "coherent", 6.0, coupling, window=False)[0]


# One grid time, w t = pi, at 400 levels, where the labels of alpha' = r i have
# |alpha|^2 = r^2 + 4 kappa^2.  kappa = 3, r = 12: the input holds about 1e-8 below the
# labels' edge, and the policy's edge check sees it reach the edge levels.  kappa = 2,
# r = 10: the input's weight below the edge is lost without reaching them, and the
# propagated states come out short of their norm.  kappa = 1, r = 10: the branches dip to
# |alpha|^2 = 82 between the grid times and come back, which only the closed form sees.
@pytest.mark.parametrize("kappa,alpha_prime", [(3.0, 12.0j), (2.0, 10.0j), (1.0, 10.0j)])
def test_verify_propagates_from_level_0_a_state_that_leaves_its_window(monkeypatch, kappa, alpha_prime):
    coupling, grid = Coupling.from_xi(kappa / 50.0), [math.pi / make_strong_device().omega_cavity]
    figure, calls = _windowed_verify(monkeypatch, "coherent", alpha_prime, coupling, 400, grid=grid)
    full, _ = _windowed_verify(monkeypatch, "coherent", alpha_prime, coupling, 400, window=False, grid=grid)
    assert [dim for dim, _ in calls] == [400, 400] and calls[0][1] > 0 and calls[1][1] == 0
    assert figure == full and figure <= 1e-8


def test_verify_at_an_explicit_truncation_keeps_it_with_a_window(monkeypatch, strong_coupling):
    figure, calls = _windowed_verify(monkeypatch, "coherent", 12.0j, strong_coupling, fock_dim=300)
    assert [dim for dim, _ in calls] == [300] and calls[0][1] > 0 and figure <= 1e-8


# each start is one doubling short of the truncation the policy settles on
@pytest.mark.parametrize(
    "scenario,start", [("vacuum", 16), ("coherent", 20), ("pulse", 20), ("squeeze", 12)]
)
def test_verify_makes_one_propagator_call_per_propagator(monkeypatch, scenario, start):
    # counted by wrapping the class, as the benchmark's tracer does
    counts = {"built": 0, "calls": 0}
    setup, apply = Propagator.__init__, Propagator.__call__

    def counting_setup(self, *args, **kwargs):
        counts["built"] += 1
        setup(self, *args, **kwargs)

    def counting_apply(self, *args):
        counts["calls"] += 1
        return apply(self, *args)

    monkeypatch.setattr(Propagator, "__init__", counting_setup)
    monkeypatch.setattr(Propagator, "__call__", counting_apply)
    params = make_strong_device(phi_c_ratio=0.0 if scenario == "squeeze" else 0.5)
    per_dim = 2 if scenario == "pulse" else 1
    for fock_dim, tried in ((None, 1), (start, 2)):
        counts.update(built=0, calls=0)
        verify_analytic_numeric(
            params, scenario, _grid(params, points=20), fock_dim,
            coupling=Coupling.from_xi(0.01), alpha_prime=0.5 - 0.25j, gamma=0.75j,
        )
        assert counts == {"built": per_dim * tried, "calls": per_dim * tried}


@pytest.mark.parametrize("workload", ["oracle_linear", "oracle_squeeze"])
@pytest.mark.parametrize("seed", [1, 2])
def test_auto_fock_dim_start_on_the_benchmark_labels(monkeypatch, tmp_path, workload, seed):
    # the start is one tail search at the farthest label: check it against
    # every label's own search on each benchmark verify
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    workloads = importlib.import_module("workloads")
    for op in workloads.build(workload, seed, str(tmp_path)):
        config = validate_config(op.config)
        params, args = config.device, config.args
        tau_max = args.get("tau_max", 4.0 * math.pi / params.omega_cavity)
        closed_form = _closed_forms(
            params,
            coupling_xi(params),
            args["target"],
            np.linspace(0.0, tau_max, args["points"]),
            complex(*args.get("alpha_prime", [0.0])),
            complex(*args.get("gamma", [0.0])),
        )
        labels = closed_form.distinct_labels[0]  # the label arrays verify passes to the policy
        assert policy_start(labels) == start_over_every_centre(labels), op.name


def test_verify_complex_coupling_phase(strong_device):
    # a complex xi must be honored end to end, not just its magnitude
    coupling = Coupling.from_xi(0.01 * np.exp(0.6j))
    grid = _grid(strong_device, points=6)
    for scenario, kwargs in (
        ("vacuum", {}),
        ("coherent", {"alpha_prime": 1.0 + 0.5j}),
        ("pulse", {"alpha_prime": 1.0}),
    ):
        infidelity = verify_analytic_numeric(
            strong_device, scenario, grid, coupling=coupling, **kwargs
        )
        assert infidelity <= 1e-8, scenario


def test_verify_squeeze_complex_coupling_phase():
    params = make_physical_device(phi_c_ratio=0.0)
    coupling = coupling_xi(params, phase=1.1)
    infidelity = verify_analytic_numeric(
        params, "squeeze", _grid(params, points=6), coupling=coupling, gamma=0.8 + 0.3j
    )
    assert infidelity <= 1e-8


def test_verify_rejects_inconsistent_branch_weights(monkeypatch, strong_device, strong_coupling):
    # one label on both qubit states with unit weights: norm^2 = 2 at every time
    from squidcat import experiments

    original = experiments._closed_forms

    def doubled(*args):
        return replace(original(*args), weights=np.array([[1.0, 0.0], [1.0, 0.0]]))

    monkeypatch.setattr(experiments, "_closed_forms", doubled)
    with pytest.raises(NormalizationError, match="norm\\^2 = 2.0"):
        verify_analytic_numeric(
            strong_device, "vacuum", _grid(strong_device, points=4), coupling=strong_coupling
        )


def test_verify_rejects_a_nan_closed_form_column(monkeypatch, strong_device, strong_coupling):
    # a NaN branch phase at one time makes that column NaN: it must not read as a NaN infidelity
    from squidcat import experiments

    original = experiments._closed_forms

    def poisoned(*args):
        state = original(*args)
        phase = state.sectors.phase.copy()
        phase[0, 0] = math.nan
        return replace(state, sectors=replace(state.sectors, phase=phase))

    monkeypatch.setattr(experiments, "_closed_forms", poisoned)
    with pytest.raises(NormalizationError, match="norm\\^2 = nan"):
        verify_analytic_numeric(
            strong_device, "vacuum", _grid(strong_device, points=4), coupling=strong_coupling
        )


@pytest.mark.parametrize("scale", [1.001, math.nan])
def test_verify_rejects_propagated_states_off_their_norm(monkeypatch, strong_device, strong_coupling, scale):
    # a propagated column of norm^2 > 1 would read as a negative infidelity, a NaN one as NaN
    from squidcat import experiments

    original = experiments._numeric_map

    def scaled(*args):
        evolve = original(*args)

        def at(taus):
            columns = evolve(taus)
            columns[:, -1] *= scale
            return columns

        return at

    monkeypatch.setattr(experiments, "_numeric_map", scaled)
    with pytest.raises(ValueError, match="propagated state not normalized"):
        verify_analytic_numeric(
            strong_device, "vacuum", _grid(strong_device, points=4), coupling=strong_coupling
        )


@pytest.mark.parametrize("scenario", ["coherent", "pulse"])
def test_numeric_map_holds_one_eigenvector_matrix_at_a_time(strong_device, strong_coupling, scenario):
    # eigh_tridiagonal alone peaks at 2.02 x 8N^2 bytes, because its stevd
    # workspace is N^2 beside the N^2 eigenvectors it returns; a second N x N
    # matrix alive at any point (a sign-flipped copy for the - chains, or the
    # preparation's eigenvectors while the pulse runs) would pass 3 x 8N^2
    from squidcat import experiments

    dim, taus = 256, _grid(strong_device, points=20)
    numeric = functools.partial(
        experiments._numeric_map, strong_device, strong_coupling, scenario, dim, 1.0 + 0.5j, 0.0
    )
    numeric()(taus)  # loads scipy and fills every cache first
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        numeric()(taus)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak <= 2.4 * 8 * dim**2, peak / (8 * dim**2)


def test_verify_rejects_unknown_scenario(strong_device):
    with pytest.raises(ValueError):
        verify_analytic_numeric(strong_device, "bogus", [0.0, 1.0])
    with pytest.raises(ValueError):
        verify_analytic_numeric(strong_device, "vacuum", [])


@pytest.mark.parametrize("scenario", ["vacuum", "squeeze"])
@pytest.mark.parametrize("far", [1e295, -1e295, 2.0**52 / 1e10 * (1.0 + 1e-12)])
def test_verify_refuses_a_time_past_the_phase_bound(monkeypatch, strong_coupling, scenario, far):
    # omega = 1e10 rad/s; the grid is refused before any state is computed
    from squidcat import experiments

    device = make_strong_device(phi_c_ratio=0.0 if scenario == "squeeze" else 0.5)
    monkeypatch.setattr(experiments, "_closed_forms", None)
    grid = np.linspace(0.0, far, 3)
    with pytest.raises(ValueError, match=r"tau_grid\[2\] must keep omega \|t\| below 2\^52 rad, .*, got "):
        verify_analytic_numeric(device, scenario, grid, coupling=strong_coupling)


def test_verify_truncation_error_for_tiny_explicit_dim(strong_device, strong_coupling):
    with pytest.raises(TruncationError):
        verify_analytic_numeric(
            strong_device,
            "coherent",
            _grid(strong_device, points=3),
            8,
            coupling=strong_coupling,
            alpha_prime=2.5,
        )


@pytest.mark.parametrize(
    "scenario,kwargs",
    [
        ("vacuum", {}),
        ("coherent", {"alpha_prime": 1.0}),
        ("pulse", {"alpha_prime": 1.0}),
        ("squeeze", {"gamma": 1.0}),
    ],
)
def test_truncation_stability_of_reported_values(
    strong_device, strong_coupling, scenario, kwargs
):
    if scenario == "squeeze":
        params = make_physical_device(phi_c_ratio=0.0)
        common = {}
    else:
        params = strong_device
        common = {"coupling": strong_coupling}
    grid = _grid(params, points=5)
    at_64 = verify_analytic_numeric(params, scenario, grid, 64, **common, **kwargs)
    at_128 = verify_analytic_numeric(params, scenario, grid, 128, **common, **kwargs)
    assert abs(at_64 - at_128) < 1e-8


def test_truncation_stability_of_probabilities(strong_device, strong_coupling):
    tau = 0.7 * math.pi / strong_device.omega_cavity
    state = evolve_vacuum(strong_device, strong_coupling, tau)
    from squidcat.analytic import materialize

    p_64 = measure_qubit(materialize(state, 64), "g").probability
    p_128 = measure_qubit(materialize(state, 128), "g").probability
    assert abs(p_64 - p_128) < 1e-8
