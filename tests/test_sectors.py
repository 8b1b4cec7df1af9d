"""The sigma_x-sector form of the closed forms over a whole time grid, as verify uses it."""

import dataclasses
import math
import re

import numpy as np
import pytest

import squidcat
from squidcat import analytic, experiments
from squidcat.analytic import (
    LabelArrays,
    auto_fock_dim,
    evolve_coherent,
    evolve_vacuum,
    flux_pi_pulse,
    linear_sectors,
    materialize,
    materialize_sectors,
    pulse_sectors,
    squeezed_evolution,
    squeezed_sectors,
)
from squidcat.errors import TruncationError
from squidcat.experiments import verify_analytic_numeric
from squidcat.model import Coupling

from conftest import make_strong_device

ALPHA_PRIME = 1.0 + 0.5j
GAMMA = 0.8 + 0.3j
TARGETS = ("vacuum", "coherent", "pulse", "squeeze")


def _device(target, **overrides):
    return make_strong_device(phi_c_ratio=0.0 if target == "squeeze" else 0.5, **overrides)


def _grid(params, points=6):
    """Two cavity periods, starting at t = 0."""
    return np.linspace(0.0, 4.0 * math.pi / params.omega_cavity, points)


def _forms(target, params, coupling, taus):
    """The grid form of ``target`` and its per-time forms."""
    if target == "squeeze":
        grid = squeezed_sectors(params, coupling, GAMMA, taus)
        return grid, [squeezed_evolution(params, coupling, GAMMA, t) for t in taus]
    if target == "vacuum":
        return linear_sectors(params, coupling, 0.0, taus), [evolve_vacuum(params, coupling, t) for t in taus]
    grid = linear_sectors(params, coupling, ALPHA_PRIME, taus)
    per_time = [evolve_coherent(params, coupling, ALPHA_PRIME, t) for t in taus]
    if target == "pulse":
        return pulse_sectors(grid, params), [flux_pi_pulse(d, params) for d in per_time]
    return grid, per_time


def _assert_same_columns(grid, per_time, tol=0.0):
    dim = auto_fock_dim([label for d in per_time for label in d.labels()])[0]
    columns, norm2, leakage = materialize_sectors(grid, dim, auto_fock_dim(grid.distinct_labels[0], dim)[1])
    states = [materialize(d, dim) for d in per_time]
    reference = np.column_stack([psi.amplitudes for psi in states])
    assert columns.shape == reference.shape == (2 * dim, len(per_time))
    assert np.abs(columns / np.sqrt(norm2) - reference).max() <= tol
    # each leakage holds |1 - norm^2|, so this also compares the norms
    assert np.abs(leakage - [psi.leakage for psi in states]).max() <= tol


@pytest.mark.parametrize("target", TARGETS)
def test_grid_columns_match_the_per_time_decompositions(target):
    # the grid starts at t = 0, where both sectors hold the input state; a per-time form
    # is the grid form at one time, so every column matches bit for bit, pulsed or not
    params = _device(target)
    coupling = Coupling.from_xi(0.01 if target != "squeeze" else 0.02)
    _assert_same_columns(*_forms(target, params, coupling, _grid(params)))


def test_per_time_pulse_is_the_grid_pulse_past_tau_zero():
    params = _device("pulse")
    coupling = Coupling.from_xi(0.01)
    for t in _grid(params)[1:]:
        grid = pulse_sectors(linear_sectors(params, coupling, ALPHA_PRIME, [t]), params)
        after = flux_pi_pulse(evolve_coherent(params, coupling, ALPHA_PRIME, t), params)
        assert after.branches() == grid.branches()


def test_vacuum_sectors_coincide_at_tau_zero_and_share_one_row():
    params = _device("vacuum")
    grid = linear_sectors(params, Coupling.from_xi(0.01), 0.0, _grid(params, points=3))
    labels, index = grid.distinct_labels
    assert grid.sectors.alpha[0, 0] == grid.sectors.alpha[1, 0] == 0.0
    assert len(labels) == 5 and index[0, 0] == index[1, 0] == 0
    assert sorted(index.ravel().tolist()) == [0, 0, 1, 2, 3, 4]


@pytest.mark.parametrize("omega_over_lam", [2.0, 1.5], ids=["critical", "unstable"])
def test_grid_columns_match_past_the_stable_range(omega_over_lam):
    # omega = 2|lam| puts the +1 sector at w = 0, 1.5|lam| past it
    coupling = Coupling.from_xi(0.1)
    device = _device("squeeze")
    lam = abs(coupling.xi) ** 2 * device.ej_rate
    params = dataclasses.replace(device, omega=omega_over_lam * lam)
    taus = np.linspace(0.0, 0.6 / lam, 4)
    grid, per_time = _forms("squeeze", params, coupling, taus)
    assert grid.sectors.squeezed[0, 1:].all()
    _assert_same_columns(grid, per_time)


def test_squeezed_label_past_the_float_range_is_a_truncation_error():
    # the unstable +1 sector's squeezing grows as e^(|w| t) and overflows within 1000 periods
    params = _device("squeeze")
    period = 2.0 * math.pi / params.omega_cavity
    with pytest.raises(TruncationError, match="not finite at t = "):
        squeezed_evolution(params, Coupling.from_xi(0.2), 1.0, 1000.0 * period)
    with pytest.raises(TruncationError, match="not finite at t = "):
        verify_analytic_numeric(
            params, "squeeze", [0.0, 1000.0 * period], coupling=Coupling.from_xi(0.2), gamma=1.0
        )


def test_sector_forms_refuse_a_time_past_the_phase_bound():
    # at omega = 1e10 rad/s the bound omega |t| < 2^52 rad is t = 4.5e5 s; the largest |t| is named
    coupling = Coupling.from_xi(0.01)
    for times, named in (([1e20], "1e+20"), ([0.0, -1e20, 1e19], "-1e+20")):
        message = rf"time must keep omega \|t\| below 2\^52 rad, .*, got {re.escape(named)} "
        with pytest.raises(ValueError, match=message):
            linear_sectors(_device("coherent"), coupling, ALPHA_PRIME, times)
        with pytest.raises(ValueError, match=message):
            squeezed_sectors(_device("squeeze"), coupling, GAMMA, times)


def test_label_arrays_round_trip_the_labels():
    labels = [analytic.CoherentLabel(0.5 - 1j, 0.25), analytic.CoherentLabel(2.0, -1.0, 0.3j, 0.7)]
    arrays = LabelArrays.of(labels)
    assert list(arrays) == labels and len(arrays) == 2
    assert arrays.squeezed.tolist() == [False, True]
    assert list(arrays.take(arrays.squeezed)) == labels[1:]


@pytest.mark.parametrize("target", TARGETS)
def test_verify_calls_no_per_time_closed_form(monkeypatch, target):
    def never(*args, **kwargs):
        raise AssertionError("a per-time closed form was called")

    for name in ("evolve_vacuum", "evolve_coherent", "flux_pi_pulse", "squeezed_evolution"):
        for module in (analytic, experiments, squidcat):
            monkeypatch.setattr(module, name, never, raising=False)
    params = _device(target)
    infidelity = verify_analytic_numeric(
        params, target, _grid(params), coupling=Coupling.from_xi(0.01), alpha_prime=ALPHA_PRIME, gamma=GAMMA
    )
    assert infidelity <= 1e-8


def _flip_minus_phase(labels):
    phase = labels.phase.copy()
    phase[1] = -phase[1]
    return dataclasses.replace(labels, phase=phase)


def _conjugate_displacement(labels):
    return dataclasses.replace(labels, alpha=labels.alpha.conj())


@pytest.mark.parametrize("mutate", [_flip_minus_phase, _conjugate_displacement])
@pytest.mark.parametrize("target", ["coherent", "pulse", "squeeze"])
def test_verify_sees_a_wrong_grid_form(monkeypatch, target, mutate):
    original = experiments._closed_forms

    def mutated(*args):
        state = original(*args)
        return dataclasses.replace(state, sectors=mutate(state.sectors))

    monkeypatch.setattr(experiments, "_closed_forms", mutated)
    params = _device(target)
    infidelity = verify_analytic_numeric(
        params, target, _grid(params), coupling=Coupling.from_xi(0.01), alpha_prime=ALPHA_PRIME, gamma=GAMMA
    )
    assert infidelity > 1e-8


@pytest.mark.parametrize(
    "grid,bad",
    [([0.0, math.nan], 1), ([math.nan, 0.0], 0), ([0.0, math.inf], 1), ([-math.inf, 0.0], 0)],
    ids=["nan-last", "nan-first", "inf-last", "minus-inf-first"],
)
@pytest.mark.parametrize("target", TARGETS)
def test_verify_rejects_non_finite_times_before_any_state(monkeypatch, target, grid, bad):
    def never(*args, **kwargs):
        raise AssertionError("a state was computed")

    monkeypatch.setattr(experiments, "_closed_forms", never)
    monkeypatch.setattr(experiments, "_numeric_map", never)
    with pytest.raises(ValueError, match=rf"tau_grid\[{bad}\] = {grid[bad]!r}"):
        verify_analytic_numeric(
            _device(target), target, grid,
            coupling=Coupling.from_xi(0.01), alpha_prime=ALPHA_PRIME, gamma=GAMMA,
        )
