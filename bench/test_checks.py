"""Tests of the benchmark's own checks, inputs and metric list; run with ``python3 -m pytest bench``.

Each check must pass an output built from the closed forms and reject the
same output perturbed by a small amount. None of this imports squidcat.
"""

from __future__ import annotations

import cmath
import json
import math
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import tracing
import workloads


def cat_config(size: float = 1.2) -> dict:
    dev = workloads.device(workloads.OMEGA_0, 1.05 / workloads.EJ_OVER_OMEGA, 0.5)
    turn = 2.0 * math.asin(size / 2.1)
    return {"scenario": "cat", "device": dev, "tau": turn / dev["omega"]}


def fock_cat(alpha: complex, sign: float, dim: int = 64) -> np.ndarray:
    n = np.arange(dim)
    log_mag = n * math.log(abs(alpha)) - 0.5 * np.array([math.lgamma(k + 1) for k in n])
    coherent = np.exp(log_mag + 1j * n * cmath.phase(alpha))
    v = coherent + sign * coherent * (-1.0) ** n
    return v / np.linalg.norm(v)


def closed_form_cat_output(config: dict) -> dict:
    alpha = checks.cat_alpha(config["device"], config["tau"])
    probabilities = checks.cat_probabilities(alpha)
    axis = np.linspace(-3.0, 3.0, 41)
    beta = axis[None, :] + 1j * axis[:, None]
    out = {"scenario": "cat", "measurements": [], "wigner": []}
    for outcome, sign in (("g", 1.0), ("e", -1.0)):
        amps = fock_cat(alpha, sign)
        out["measurements"].append(
            {
                "outcome": outcome,
                "probability": probabilities[outcome],
                "post_state": {"fock_amplitudes": [[z.real, z.imag] for z in amps]},
            }
        )
        out["wigner"].append(
            {
                "outcome": outcome,
                "extent": 3.0,
                "points": 41,
                "axis": axis.tolist(),
                "values": checks.cat_wigner(alpha, sign, beta).tolist(),
            }
        )
    return out


def test_closed_form_cat_output_passes():
    config = cat_config()
    error, problems = checks.check_cat(closed_form_cat_output(config), config)
    assert problems == []
    assert error <= 1e-15


@pytest.mark.parametrize("outcome", [0, 1])
def test_cat_check_rejects_probability_off_by_1e6(outcome):
    config = cat_config()
    output = closed_form_cat_output(config)
    output["measurements"][outcome]["probability"] += 1e-6
    _, problems = checks.check_cat(output, config)
    assert any("closed form" in p for p in problems)


@pytest.mark.parametrize("row, col", [(20, 20), (0, 40), (13, 27)])
def test_cat_check_rejects_wigner_value_off_by_1e5(row, col):
    config = cat_config()
    output = closed_form_cat_output(config)
    output["wigner"][1]["values"][row][col] -= 1e-5
    error, _ = checks.check_cat(output, config)
    assert error > checks.WIGNER_TOL


def test_cat_check_rejects_mixed_parity():
    config = cat_config()
    output = closed_form_cat_output(config)
    amps = output["measurements"][0]["post_state"]["fock_amplitudes"]
    amps[1][0] += 1e-5
    _, problems = checks.check_cat(output, config)
    assert any("wrong parity" in p for p in problems)


def test_cat_check_rejects_wigner_above_bound():
    config = cat_config()
    output = closed_form_cat_output(config)
    output["wigner"][0]["values"][20][20] = 0.7
    _, problems = checks.check_cat(output, config)
    assert any("2/pi" in p for p in problems)


def verify_output(infidelity: float) -> tuple[dict, dict]:
    config = {"target": "pulse", "points": 20, "tau_max": 1e-12}
    output = {"scenario": "verify", "target": "pulse", "points": 20, "tau_max": 1e-12,
              "max_infidelity": infidelity}
    return output, config


def test_verify_check_passes_within_limit_and_rejects_2e8():
    error, problems = checks.check_verify(*verify_output(1.5e-12))
    assert problems == [] and error <= checks.INFIDELITY_LIMIT
    error, problems = checks.check_verify(*verify_output(2e-8))
    assert problems == [] and error > checks.INFIDELITY_LIMIT


def test_verify_check_rejects_non_finite_and_wrong_echo():
    output, config = verify_output(float("nan"))
    error, problems = checks.check_verify(output, config)
    assert error > checks.INFIDELITY_LIMIT and problems
    output, config = verify_output(1e-12)
    output["target"] = "coherent"
    assert checks.check_verify(output, config)[1]


def test_cat_wigner_closed_form_is_normalized_and_parity_signed():
    alpha = 1.3 * cmath.exp(0.4j)
    axis = np.linspace(-7.0, 7.0, 561)
    beta = axis[None, :] + 1j * axis[:, None]
    step = axis[1] - axis[0]
    for sign in (1.0, -1.0):
        w = checks.cat_wigner(alpha, sign, beta)
        assert abs(w.sum() * step * step - 1.0) < 1e-9
        assert checks.cat_wigner(alpha, sign, np.array(0j)) == pytest.approx(sign * 2.0 / math.pi)


def test_drive_scale_from_device_numbers():
    for kappa in (0.5, 1.05, math.sqrt(2.0)):
        dev = workloads.device(1.7e12, kappa / workloads.EJ_OVER_OMEGA, 0.5)
        assert checks.kappa(dev) == pytest.approx(kappa, rel=1e-13)


def test_injected_amplitude_reaches_the_peak():
    kappa, peak = 0.5, 12.0
    for phase in np.linspace(0.0, 2.0 * math.pi, 9):
        a = workloads.injected_amplitude(peak, kappa, phase)
        turns = np.exp(1j * np.linspace(0.0, 2.0 * math.pi, 4001))
        reach = max(np.abs(a + kappa - kappa * turns).max(), np.abs(a - kappa + kappa * turns).max())
        assert reach == pytest.approx(peak, abs=1e-5)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_repeat_for_a_seed_and_known_faults_do_not_depend_on_it(workload):
    first = workloads.build(workload, 3, "out")
    assert first == workloads.build(workload, 3, "out")
    other = workloads.build(workload, 4, "out")
    assert [op.name for op in first] == [op.name for op in other]
    assert first != other
    for a, b in zip(first, other):
        if a.known_fault:
            assert a == b


def test_benchmark_json_lists_every_metric_the_runs_report():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == tracing.metric_names()
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "op_p50_s", "run_s", "peak_rss_mb"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS) == list(run.WORKLOADS)


def test_scaled_times_follow_the_reference_kernel():
    import worker

    ref = worker.REFERENCE_S
    assert worker.scaled([0.4, 1.0], [ref, ref, ref]) == pytest.approx([0.4, 1.0])
    # host at half speed around the first operation, at 1.5x slow around the second
    assert worker.scaled([0.8, 1.5], [2 * ref, 2 * ref, ref]) == pytest.approx([0.4, 1.0])


def test_batch_figures_take_each_operation_median_before_pooling():
    import worker

    batches = [[0.1, 1.0, 5.0], [0.3, 1.2, 5.0], [0.2, 0.8, 7.0]]
    op_p50, run_s = worker.batch_figures(batches)
    assert op_p50 == pytest.approx(1.0)
    assert run_s == pytest.approx(0.2 + 1.0 + 5.0)
