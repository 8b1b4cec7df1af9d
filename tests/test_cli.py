import builtins
import cmath
import errno
import io
import json
import math
import os
import stat
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import squidcat
from squidcat.analytic import branch_decomposition_to_dict
from squidcat.cli import (
    SCENARIOS,
    dumps17,
    example_config,
    load_config,
    main,
    run,
    validate_config,
)
from squidcat.errors import (
    ConfigError,
    DimensionError,
    NonFiniteError,
    NormalizationError,
    NullOutcomeError,
)
from squidcat.hilbert import CavityState
from squidcat.model import coupling_xi, flux_pulse

from conftest import cat_wigner, make_strong_device, sectors_from_dict


def _write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(dumps17(config), encoding="utf-8")
    return str(path)


def _base_cat_config(tmp_path, **overrides):
    config = example_config("cat")
    config.update(overrides)
    config["output"] = {"path": str(tmp_path / "cat.json"), "format": "json"}
    return config


# ---------------------------------------------------------------- config validation

@pytest.mark.parametrize("scenario", SCENARIOS)
def test_example_configs_validate(scenario):
    validate_config(example_config(scenario))


def test_unknown_key_rejected(tmp_path):
    config = _base_cat_config(tmp_path)
    config["bogus"] = 1
    with pytest.raises(ConfigError, match="bogus"):
        validate_config(config)


def test_unknown_device_key_rejected(tmp_path):
    config = _base_cat_config(tmp_path)
    config["device"]["flux_noise"] = 0.1
    with pytest.raises(ConfigError, match="flux_noise"):
        validate_config(config)


@pytest.mark.parametrize("target", ["bogus", ["vacuum"], None])
def test_unknown_verify_target_rejected_before_any_run(target):
    config = example_config("verify")
    config["target"] = target
    with pytest.raises(ConfigError, match="key 'target' must be one of"):
        validate_config(config)


def test_missing_required_key_rejected(tmp_path):
    config = _base_cat_config(tmp_path)
    del config["tau"]
    with pytest.raises(ConfigError, match="tau"):
        validate_config(config)


def test_format_scenario_mismatch_rejected(tmp_path):
    config = _base_cat_config(tmp_path)
    config["output"]["format"] = "csv"
    with pytest.raises(ConfigError, match="format"):
        validate_config(config)


def test_underscore_keys_ignored(tmp_path):
    config = _base_cat_config(tmp_path)
    config["_anything"] = "note"
    config["device"]["_hint"] = "note"
    validate_config(config)


# ---------------------------------------------------------------- scenario runs

def test_cat_zero_time_run(tmp_path):
    config = _base_cat_config(tmp_path, tau=0.0)
    out = run(load_config(_write_config(tmp_path, config)))
    data = json.loads(out.read_text())
    measurements = {m["outcome"]: m for m in data["measurements"]}
    assert measurements["g"]["probability"] == pytest.approx(1.0, abs=1e-12)
    assert measurements["e"]["probability"] == 0.0
    assert measurements["e"]["post_state"] is None
    # ground post-state is the vacuum
    amp0 = measurements["g"]["post_state"]["fock_amplitudes"][0]
    assert abs(complex(amp0[0], amp0[1])) == pytest.approx(1.0, abs=1e-10)
    # Wigner section exists only for the realized outcome
    assert [w["outcome"] for w in data["wigner"]] == ["g"]
    center = len(data["wigner"][0]["axis"]) // 2
    assert data["wigner"][0]["values"][center][center] == pytest.approx(
        2.0 / math.pi, abs=1e-6
    )


def test_cat_output_round_trip(tmp_path):
    config = _base_cat_config(tmp_path)
    config["wigner"] = {"extent": 2.0, "points": 11}
    path = _write_config(tmp_path, config)
    out = run(load_config(path))
    data = json.loads(out.read_text())

    state = sectors_from_dict(data["branches"])
    assert branch_decomposition_to_dict(state) == data["branches"]

    amplitudes = [
        complex(re, im)
        for re, im in data["measurements"][0]["post_state"]["fock_amplitudes"]
    ]
    CavityState(np.array(amplitudes))  # reloads as a normalized state

    rerun = run(load_config(path))
    assert rerun.read_bytes() == out.read_bytes()


def test_cat_run_wigner_maps_exact_on_diagonal(tmp_path):
    # kappa = xi E_J / (hbar omega) = sqrt(2) and omega tau = pi/2 give the cat
    # displacement alpha = kappa (exp(-i omega tau) - 1) = -sqrt(2) (1 + i).
    omega = 2.0 * math.pi * 3e11
    probe = make_strong_device(omega=omega)
    squid_area = probe.squid_area * (math.sqrt(2.0) / 50.0) / abs(coupling_xi(probe).xi)
    params = make_strong_device(omega=omega, squid_area=squid_area)
    config = _base_cat_config(tmp_path, tau=0.5 * math.pi / omega)
    config["device"] = {
        "E_J": params.E_J,
        "E_ch": params.E_ch,
        "lambda": params.wavelength,
        "S": params.squid_area,
        "omega": params.omega,
    }
    data = json.loads(run(load_config(_write_config(tmp_path, config))).read_text())

    alpha = -math.sqrt(2.0) * (1.0 + 1.0j)
    assert [w["outcome"] for w in data["wigner"]] == ["g", "e"]
    for section, sign in zip(data["wigner"], (1.0, -1.0)):  # g even, e odd
        assert (section["extent"], section["points"]) == (3.0, 41)
        axis = np.array(section["axis"])
        beta = axis[None, :] + 1j * axis[:, None]  # values[i_im][i_re]
        exact = cat_wigner(alpha, sign, beta)
        assert np.abs(np.array(section["values"]) - exact).max() <= 1e-12


def test_inject_run_measurement_structure(tmp_path):
    config = example_config("inject")
    config["output"] = {"path": str(tmp_path / "inject.json"), "format": "json"}
    out = run(load_config(_write_config(tmp_path, config)))
    data = json.loads(out.read_text())
    assert {m["outcome"] for m in data["measurements"]} == {"g", "e"}
    total = sum(m["probability"] for m in data["measurements"])
    assert total == pytest.approx(1.0, abs=1e-10)
    assert len(data["pre_pulse"]["branches"]) == 4
    assert len(data["post_pulse"]["branches"]) == 4


def test_inject_at_tau_zero_pulses_every_pre_pulse_branch(tmp_path):
    # at tau1 = 0 both sectors hold |alpha'>: post_pulse is the pulse of pre_pulse entry by
    # entry, and each outcome post-selects that one label, as one term of unit norm
    config = example_config("inject")
    config["tau1"] = 0.0
    config["output"] = {"path": str(tmp_path / "inject.json"), "format": "json"}
    path = _write_config(tmp_path, config)
    data = json.loads(run(load_config(path)).read_text())
    pulse = flux_pulse(load_config(path).device)
    assert len(data["pre_pulse"]["branches"]) == len(data["post_pulse"]["branches"]) == 4
    pre, post = (sectors_from_dict(data[key]) for key in ("pre_pulse", "post_pulse"))
    assert np.abs(post.weights - pulse.rotation @ pre.weights).max() <= 1e-15
    turn = cmath.exp(-1j * pulse.angle)
    for before, after in zip(pre.sectors.take((slice(None), 0)), post.sectors.take((slice(None), 0))):
        assert abs(after.alpha - before.alpha * turn) <= 1e-15 and after.phase == before.phase == 0.0
    assert data["post_pulse"]["dropped_global_phase"] == data["pre_pulse"]["dropped_global_phase"]
    for record in data["measurements"]:
        post_form = record["analytic_post"]
        (term,) = post_form["terms"]
        assert abs(post_form["constant"] * complex(*term["weight"])) == pytest.approx(1.0, abs=1e-12)
        assert complex(*term["label"]["alpha"]) == post.sectors.alpha[0, 0]


def test_squeeze_run_variance_section(tmp_path):
    config = example_config("squeeze")
    config["output"] = {"path": str(tmp_path / "squeeze.json"), "format": "json"}
    out = run(load_config(_write_config(tmp_path, config)))
    data = json.loads(out.read_text())
    assert len(data["variances"]) == 2
    for section in data["variances"]:
        assert section["min_variance"] == pytest.approx(
            section["expected_min_variance"], abs=1e-6
        )


def test_squeeze_run_picks_its_own_truncation(tmp_path, capsys):
    # |gamma| = 9 needs about 145 Fock levels, beyond any fixed default.
    config = example_config("squeeze")
    config["gamma"] = [9.0, 0.0]
    config["output"] = {"path": str(tmp_path / "squeeze.json"), "format": "json"}
    assert main(["--config", _write_config(tmp_path, config)]) == 0
    capsys.readouterr()
    data = json.loads((tmp_path / "squeeze.json").read_text())
    assert len(data["variances"]) == 2
    for section in data["variances"]:
        assert section["min_variance"] == pytest.approx(
            section["expected_min_variance"], abs=1e-6
        )


def test_squeeze_run_reuses_the_policy_label_states(tmp_path, monkeypatch):
    from squidcat import analytic

    # the materializer's rows, one (label, truncation) pair each
    calls = []
    original = analytic.materialize_labels

    def counting(labels, fock_dim):
        calls.extend((label, fock_dim) for label in labels)
        return original(labels, fock_dim)

    monkeypatch.setattr(analytic, "materialize_labels", counting)
    config = example_config("squeeze")
    config["output"] = {"path": str(tmp_path / "squeeze.json"), "format": "json"}
    run(load_config(_write_config(tmp_path, config)))
    # the policy once, for the variances and both measured outcomes
    assert len(set(calls)) == 2 and len(calls) == 2


def test_squeeze_measures_at_its_explicit_truncation(tmp_path, monkeypatch):
    from squidcat import analytic

    calls = []
    original = analytic.materialize_labels

    def counting(labels, fock_dim):
        calls.extend((label, fock_dim) for label in labels)
        return original(labels, fock_dim)

    monkeypatch.setattr(analytic, "materialize_labels", counting)
    config = example_config("squeeze")
    config["fock_dim"] = 128
    config["output"] = {"path": str(tmp_path / "squeeze.json"), "format": "json"}
    data = json.loads(run(load_config(_write_config(tmp_path, config))).read_text())
    # the variances and both outcomes are judged at 128 levels, from one policy run
    assert len(set(calls)) == len(calls) == 2 and {dim for _, dim in calls} == {128}
    for record in data["measurements"]:
        assert len(record["post_state"]["fock_amplitudes"]) == 128


def test_squeeze_at_a_too_small_explicit_truncation_exits_3(tmp_path, capsys):
    # E_J = 50 hbar omega, |xi| = 0.09, gamma = 0, t = 1/omega: at 6 levels the
    # variance would read 0.24081 against the expected 0.23249.
    params = make_strong_device(phi_c_ratio=0.0)
    config = example_config("squeeze")
    config["device"] = {
        "E_J": params.E_J,
        "E_ch": params.E_ch,
        "phi_c_ratio": 0.0,
        "lambda": params.wavelength,
        "S": params.squid_area * 0.09 / abs(coupling_xi(params).xi),
        "omega": params.omega_cavity,
    }
    config.update(gamma=[0.0, 0.0], t=1.0 / params.omega_cavity, fock_dim=6)
    config["output"] = {"path": str(tmp_path / "squeeze.json"), "format": "json"}
    assert main(["--config", _write_config(tmp_path, config)]) == 3
    assert "fock_dim 6 too small" in capsys.readouterr().err
    assert not (tmp_path / "squeeze.json").exists()

    config["fock_dim"] = 64
    assert main(["--config", _write_config(tmp_path, config)]) == 0
    capsys.readouterr()
    for section in json.loads((tmp_path / "squeeze.json").read_text())["variances"]:
        assert section["min_variance"] == pytest.approx(section["expected_min_variance"], abs=1e-12)


_SCIPY_PROBE = """
import json, sys
from squidcat import cli

def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")

loaded = {"import": scipy_modules()}
for scenario in sys.argv[2:]:
    config = cli.example_config(scenario)
    config["output"]["path"] = f"{sys.argv[1]}/{scenario}.out"
    path = f"{sys.argv[1]}/{scenario}.json"
    with open(path, "w") as fh:
        json.dump(config, fh)
    loaded[scenario] = [cli.main(["--config", path]), scipy_modules()]
print(json.dumps(loaded))
"""


def test_only_verify_loads_scipy(tmp_path):
    # The test modules import scipy themselves, so the probe runs in a fresh interpreter.
    src = str(Path(squidcat.__file__).resolve().parents[1])
    scenarios = ["cat", "inject", "squeeze", "sweep", "feasibility", "verify"]
    result = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, str(tmp_path), *scenarios],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    loaded = json.loads(result.stdout.splitlines()[-1])  # after the paths main() prints
    assert loaded.pop("import") == []
    exit_code, modules = loaded.pop("verify")
    assert exit_code == 0 and "scipy.linalg" in modules
    assert loaded == {scenario: [0, []] for scenario in scenarios[:-1]}


def test_sweep_run_and_determinism(tmp_path):
    config = example_config("sweep")
    config["lambda_points"] = 10
    config["output"] = {"path": str(tmp_path / "sweep.csv"), "format": "csv"}
    path = _write_config(tmp_path, config)
    out = run(load_config(path))
    lines = out.read_text().splitlines()
    assert lines[0] == "lambda_m,cavity_kind,ratio,xi_abs,rabi_hz"
    assert len(lines) == 1 + 10 * 4 * 2
    assert run(load_config(path)).read_bytes() == out.read_bytes()


def test_verify_run_default_contract(tmp_path):
    config = example_config("verify")
    config["points"] = 20
    config["output"] = {"path": str(tmp_path / "verify.json"), "format": "json"}
    out = run(load_config(_write_config(tmp_path, config)))
    data = json.loads(out.read_text())
    assert data["max_infidelity"] <= 1e-8


def test_feasibility_run(tmp_path):
    config = example_config("feasibility")
    config["output"] = {"path": str(tmp_path / "feas.json"), "format": "json"}
    out = run(load_config(_write_config(tmp_path, config)))
    data = json.loads(out.read_text())
    assert data["readout_within_coherence"] is True
    assert data["t_d"] > 0.0


# ---------------------------------------------------------------- exit codes

def test_main_exit_codes(tmp_path, capsys):
    assert main(["--print-example", "cat"]) == 0
    capsys.readouterr()

    bad = tmp_path / "bad.json"
    bad.write_text('{"scenario": "cat", "bogus": 1}')
    assert main(["--config", str(bad)]) == 2

    missing = tmp_path / "nope.json"
    assert main(["--config", str(missing)]) == 2

    config = example_config("verify")
    config["target"] = "coherent"
    config["alpha_prime"] = [2.5, 0.0]
    config["fock_dim"] = 8  # far too small for the injected field
    config["points"] = 3
    config["output"] = {"path": str(tmp_path / "v.json"), "format": "json"}
    cfg_path = tmp_path / "verify_small.json"
    cfg_path.write_text(dumps17(config))
    assert main(["--config", str(cfg_path)]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("scenario", ["cat", "inject"])
def test_fock_dim_is_not_a_cat_or_inject_key(tmp_path, capsys, scenario):
    config = example_config(scenario)
    config["fock_dim"] = 3
    config["output"] = {"path": str(tmp_path / "out.json"), "format": "json"}
    assert main(["--config", _write_config(tmp_path, config)]) == 2
    assert "unknown key 'fock_dim'" in capsys.readouterr().err


@pytest.mark.parametrize("scenario", ["squeeze", "verify"])
@pytest.mark.parametrize("fock_dim", [0, 1, -64, 2.5, "64", True, None])
def test_fock_dim_must_be_an_integer_of_at_least_two(tmp_path, capsys, scenario, fock_dim):
    config = example_config(scenario)
    config["fock_dim"] = fock_dim
    config["output"] = {"path": str(tmp_path / "out.json"), "format": "json"}
    assert main(["--config", _write_config(tmp_path, config)]) == 2
    assert "fock_dim" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


def _scenario_config(tmp_path, scenario, **overrides):
    config = example_config(scenario)
    config.update(overrides)
    config["output"] = {"path": str(tmp_path / "out"), "format": config["output"]["format"]}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))  # json writes the literals Infinity and NaN
    return str(cfg_path)


@pytest.mark.parametrize(
    "scenario,overrides",
    [
        ("sweep", {"ratios": [0]}),
        ("sweep", {"ratios": []}),
        ("sweep", {"ratios": [4.0, float("nan")]}),
        ("sweep", {"lambda_points": None}),
        ("sweep", {"lambda_points": 2.7}),
        ("sweep", {"kinds": 5}),
        ("sweep", {"kinds": []}),
        ("sweep", {"kinds": ["cube"]}),
        ("sweep", {"kinds": [["full"]]}),
        ("cat", {"tau": None}),
        ("cat", {"tau": [1, 2]}),
        ("cat", {"tau": "1e-12"}),
        ("cat", {"tau": True}),
        ("cat", {"tau": float("inf")}),
        ("inject", {"tau1": None}),
        ("inject", {"alpha_prime": [float("inf"), 0.0]}),
        ("squeeze", {"t": None}),
        ("squeeze", {"gamma": [0.0, float("-inf")]}),
        ("feasibility", {"T1": [1]}),
        ("feasibility", {"tau_m": None}),
        ("verify", {"points": [3]}),
        ("verify", {"points": 2.5}),
        ("verify", {"points": 0}),
        ("verify", {"tau_max": {}}),
        ("verify", {"tau_max": None}),
        ("verify", {"fock_dim": 100000}),
        ("verify", {"fock_dim": 513}),
        ("verify", {"gamma": float("nan")}),
    ],
)
def test_malformed_scenario_values_rejected_before_any_state(
    tmp_path, capsys, monkeypatch, scenario, overrides
):
    from squidcat import cli

    def never(config):
        raise AssertionError("the scenario ran")

    monkeypatch.setattr(cli, "run", never)
    assert main(["--config", _scenario_config(tmp_path, scenario, **overrides)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and repr(next(iter(overrides))) in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("omega", [0, -1e12])
@pytest.mark.parametrize("scenario", ["verify", "cat"])
def test_non_positive_omega_is_one_config_error(tmp_path, capsys, scenario, omega):
    config = example_config(scenario)
    config["device"]["omega"] = omega
    config["output"]["path"] = str(tmp_path / "out")
    assert main(["--config", _write_config(tmp_path, config)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error:")
    assert "omega must be positive when given" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "scenario,key,value",
    [
        ("cat", "tau", 1e300),
        ("inject", "tau1", 1e300),
        ("squeeze", "t", 1e300),
        ("verify", "tau_max", 1e300),
        ("verify", "tau_max", 1e295),
    ],
)
def test_time_past_the_phase_bound_is_one_config_error(
    tmp_path, capsys, monkeypatch, scenario, key, value
):
    from squidcat import cli

    def never(config):
        raise AssertionError("the scenario ran")

    monkeypatch.setattr(cli, "run", never)
    assert main(["--config", _scenario_config(tmp_path, scenario, **{key: value})]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"config error: key {key!r} must keep omega |t|")
    assert repr(value) in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_phase_bound_is_two_to_the_52_radians(sign):
    config = example_config("cat")
    omega = validate_config(config).device.omega_cavity
    bound = sign * 2.0**52 / omega
    below = validate_config({**config, "tau": bound * (1.0 - 1e-12)})
    assert below.args["tau"] == bound * (1.0 - 1e-12)
    with pytest.raises(ConfigError, match="below 2\\^52 rad"):
        validate_config({**config, "tau": bound * (1.0 + 1e-12)})


@pytest.mark.parametrize(
    "scenario,key", [("feasibility", "Q"), ("verify", "omega"), ("cat", "E_J")]
)
def test_boolean_device_value_is_one_config_error(tmp_path, capsys, scenario, key):
    config = example_config(scenario)
    config["device"][key] = True
    config["output"]["path"] = str(tmp_path / "out")
    if scenario == "verify":
        config["points"] = 3
    assert main(["--config", _write_config(tmp_path, config)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error:")
    assert f"{key} must be finite and not a bool" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "scenario,overrides",
    [
        ("squeeze", {"gamma": [1e5, 0.0]}),
        ("squeeze", {"gamma": [1e200, 0.0]}),
        ("inject", {"alpha_prime": [1e200, 0.0]}),
        ("inject", {"alpha_prime": [30.0, 0.0]}),
        ("verify", {"target": "coherent", "alpha_prime": [1e200, 0.0], "points": 2}),
    ],
)
def test_fields_past_the_maximum_truncation_exit_3(
    tmp_path, capsys, monkeypatch, scenario, overrides
):
    from squidcat import analytic

    def never(*args):
        raise AssertionError("a label state was built")

    monkeypatch.setattr(analytic, "materialize_labels", never)
    assert main(["--config", _scenario_config(tmp_path, scenario, **overrides)]) == 3
    err = capsys.readouterr().err
    assert "numerical contract failure" in err and "maximum truncation 512" in err
    assert not (tmp_path / "out").exists()


def test_far_label_at_an_explicit_truncation_exits_3(tmp_path, capsys):
    overrides = {"target": "coherent", "alpha_prime": [1e200, 0.0], "fock_dim": 64}
    assert main(["--config", _scenario_config(tmp_path, "verify", **overrides)]) == 3
    err = capsys.readouterr().err
    assert "numerical contract failure" in err and "mean photon number inf" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "error",
    [
        DimensionError("dimension mismatch"),
        NullOutcomeError("outcome 'g' has probability 0"),
        NormalizationError("weights are inconsistent"),
    ],
)
def test_main_numerical_errors_exit_3(tmp_path, capsys, monkeypatch, error):
    from squidcat import cli

    def failing(config):
        raise error

    monkeypatch.setattr(cli, "run", failing)
    config = example_config("feasibility")
    config["output"] = {"path": str(tmp_path / "out.json"), "format": "json"}
    assert main(["--config", _write_config(tmp_path, config)]) == 3
    assert "numerical contract failure" in capsys.readouterr().err


def test_main_rejects_non_finite_device_parameter(tmp_path, capsys):
    config = example_config("cat")
    config["device"]["E_J"] = float("nan")
    config["output"] = {"path": str(tmp_path / "cat.json"), "format": "json"}
    cfg_path = tmp_path / "nan.json"
    cfg_path.write_text(json.dumps(config))  # json writes the literal NaN
    assert "NaN" in cfg_path.read_text()
    assert main(["--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "E_J must be finite" in err
    assert not (tmp_path / "cat.json").exists()


def test_main_non_finite_output_is_a_numerical_failure(tmp_path, capsys, monkeypatch):
    from squidcat import cli

    # No real map is non-finite any more, so a NaN map, and a map with one
    # infinite value inside a row, stand in for one.
    one_infinite = np.zeros(41 * 41)
    one_infinite[7] = -np.inf
    for bad, name in ((np.full(41 * 41, np.nan), "nan"), (one_infinite, "-inf")):
        monkeypatch.setattr(cli, "wigner_maps", lambda states, points, bad=bad: [bad] * len(states))
        config = _base_cat_config(tmp_path)
        assert main(["--config", _write_config(tmp_path, config)]) == 3
        err = capsys.readouterr().err
        assert "numerical contract failure" in err and f"non-finite float {name} " in err
        assert not (tmp_path / "cat.json").exists()


def test_cat_run_wigner_maps_exact_far_from_the_origin(tmp_path, capsys):
    # A |alpha| = 15 cat mapped out to |beta| = 20 sqrt(2), where exp(2|beta|^2)
    # overflows a double.
    config = _base_cat_config(tmp_path)
    params = validate_config(config).device
    kappa = abs(coupling_xi(params).xi) * params.ej_rate / params.omega_cavity
    config["device"]["S"] *= 7.5 / kappa
    config["tau"] = math.pi / params.omega_cavity
    config["wigner"] = {"extent": 20.0, "points": 3}
    assert main(["--config", _write_config(tmp_path, config)]) == 0
    capsys.readouterr()
    data = json.loads((tmp_path / "cat.json").read_text())

    alpha = complex(*data["measurements"][0]["analytic_post"]["terms"][0]["label"]["alpha"])
    assert abs(alpha) == pytest.approx(15.0, rel=1e-12)
    assert [w["outcome"] for w in data["wigner"]] == ["g", "e"]
    for section, sign in zip(data["wigner"], (1.0, -1.0)):  # g even, e odd
        axis = np.array(section["axis"])
        beta = axis[None, :] + 1j * axis[:, None]
        exact = cat_wigner(alpha, sign, beta)
        assert np.abs(np.array(section["values"]) - exact).max() <= 1e-12


@pytest.mark.parametrize(
    "grid",
    [
        {"points": 2.7},
        {"points": True},
        {"points": 0},
        {"points": "41"},
        {"extent": "2"},
        {"extent": True},
        {"extent": 0.0},
        {"extent": -1.0},
        {"extent": float("inf")},
        {"extent": 1e308},
        {"extent": 1e154},
        {"spacing": 0.1},
        [3.0, 41],
    ],
)
def test_wigner_grid_rejected_before_any_state_is_computed(tmp_path, capsys, monkeypatch, grid):
    from squidcat import cli

    def never(*args):
        raise AssertionError("a state was computed")

    monkeypatch.setattr(cli, "evolve_vacuum", never)
    config = _base_cat_config(tmp_path)
    config["wigner"] = grid
    cfg_path = tmp_path / "grid.json"
    cfg_path.write_text(json.dumps(config))  # json writes the literal Infinity
    assert main(["--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "wigner" in err
    assert not (tmp_path / "cat.json").exists()


def test_wigner_grid_accepts_one_point_integers_and_notes(tmp_path, capsys):
    config = _base_cat_config(tmp_path, tau=0.0)
    config["wigner"] = {"extent": 2, "points": 1, "_note": "one point at -2 - 2i"}
    assert main(["--config", _write_config(tmp_path, config)]) == 0
    capsys.readouterr()
    (section,) = json.loads((tmp_path / "cat.json").read_text())["wigner"]
    assert (section["extent"], section["points"], section["axis"]) == (2.0, 1, [-2.0])
    vacuum = (2.0 / math.pi) * math.exp(-16.0)
    assert section["values"][0][0] == pytest.approx(vacuum, rel=1e-12)


def test_wigner_grid_past_the_cap_rejected_before_any_map(tmp_path, capsys, monkeypatch):
    from squidcat import cli
    from squidcat.constants import MAX_WIGNER_POINTS

    def never(*args):
        raise AssertionError("a Wigner map was computed")

    monkeypatch.setattr(cli, "wigner_maps", never)
    config = _base_cat_config(tmp_path)
    config["wigner"] = {"extent": 3.0, "points": MAX_WIGNER_POINTS}
    validate_config(config)  # the cap itself is accepted
    config["wigner"]["points"] = MAX_WIGNER_POINTS + 1
    assert main(["--config", _write_config(tmp_path, config)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert f"'wigner.points' must be an integer from 1 to {MAX_WIGNER_POINTS}" in err
    assert not (tmp_path / "cat.json").exists()


def test_cat_with_one_possible_outcome_writes_one_map(tmp_path, capsys):
    # At tau = 0 the cavity stays in vacuum and the e outcome cannot occur.
    config = _base_cat_config(tmp_path, tau=0.0)
    assert main(["--config", _write_config(tmp_path, config)]) == 0
    capsys.readouterr()
    data = json.loads((tmp_path / "cat.json").read_text())
    assert [m["probability"] for m in data["measurements"]][1] == 0.0
    (section,) = data["wigner"]
    assert section["outcome"] == "g" and section["points"] == 41
    axis = np.array(section["axis"])
    beta = axis[None, :] + 1j * axis[:, None]
    vacuum = (2.0 / math.pi) * np.exp(-2.0 * np.abs(beta) ** 2)
    assert np.abs(np.array(section["values"]) - vacuum).max() <= 1e-15


def _wigner_grids(monkeypatch, grids):
    """(axis, points) that the cat scenario maps for each ``wigner`` block, with no state."""
    from squidcat import cli

    seen = []

    def maps(states, pts):
        seen.append(pts)
        return [np.zeros(pts.size) for _ in states]

    monkeypatch.setattr(cli, "wigner_maps", maps)
    record = SimpleNamespace(outcome="g", post_state=None)
    axes = [np.array(cli._wigner_section([record], {"wigner": g})[0]["axis"]) for g in grids]
    return list(zip(axes, seen))


@pytest.mark.parametrize("extent", [3.0, 2.0, 0.7, 20.0])
def test_wigner_axis_is_exactly_antisymmetric(monkeypatch, extent):
    grids = [{"extent": extent, "points": p} for p in range(1, 102)]
    (one, _), *rest = _wigner_grids(monkeypatch, grids)
    assert one.tolist() == [-extent]
    for axis, _ in rest:
        assert np.array_equal(axis, -axis[::-1])
        reference = np.linspace(-extent, extent, axis.size)
        assert np.abs(axis - reference).max() <= 8 * np.spacing(extent)


def test_default_wigner_grid_has_few_distinct_radii(monkeypatch):
    # linspace(-3, 3, 41) is off antisymmetry by an ulp at 21 entries: 367 radii.
    ((axis, points),) = _wigner_grids(monkeypatch, [{}])
    assert axis.size == 41 and points.size == 41 * 41
    assert np.unique(np.abs(2.0 * points) ** 2).size <= 210


def test_main_out_override(tmp_path, capsys):
    config = example_config("feasibility")
    config["output"] = {"path": str(tmp_path / "a.json"), "format": "json"}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(dumps17(config))
    override = tmp_path / "b.json"
    assert main(["--config", str(cfg_path), "--out", str(override)]) == 0
    capsys.readouterr()
    assert override.exists()
    assert not (tmp_path / "a.json").exists()


# ---------------------------------------------------------------- output file

def _verify_spy(monkeypatch):
    """Calls of the verify scenario, recorded through a spy that still runs it."""
    from squidcat import cli

    calls, real = [], cli._run_verify

    def spy(config):
        calls.append(config)
        return real(config)

    monkeypatch.setattr(cli, "_run_verify", spy)
    return calls


def _quick_verify_config(tmp_path, out):
    config = example_config("verify")
    config["points"] = 2
    config["output"] = {"path": out, "format": "json"}
    return _write_config(tmp_path, config)


def _assert_one_line_config_error(capsys, what):
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and "Traceback" not in captured.err, captured.err
    assert lines[0].startswith(f"config error: cannot write output {what!r}"), lines[0]


@pytest.mark.parametrize("case", ["empty", "directory", "under a file"])
def test_unwritable_output_rejected_before_any_state(tmp_path, capsys, monkeypatch, case):
    calls = _verify_spy(monkeypatch)
    (tmp_path / "dir").mkdir()
    (tmp_path / "file").write_text("kept")
    out = {
        "empty": "",
        "directory": str(tmp_path / "dir"),
        "under a file": str(tmp_path / "file" / "sub" / "out.json"),
    }[case]
    assert main(["--config", _quick_verify_config(tmp_path, out)]) == 2
    _assert_one_line_config_error(capsys, out)
    assert calls == []
    assert (tmp_path / "file").read_text() == "kept" and (tmp_path / "dir").is_dir()
    # --out takes the same checks, an empty one included
    good = _quick_verify_config(tmp_path, str(tmp_path / "good.json"))
    assert main(["--config", good, "--out", out]) == 2
    _assert_one_line_config_error(capsys, out)
    assert calls == [] and not (tmp_path / "good.json").exists()


@pytest.mark.parametrize("path", [None, 3, ["out.json"]], ids=["null", "number", "list"])
def test_non_string_output_path_rejected_before_any_state(tmp_path, capsys, monkeypatch, path):
    calls = _verify_spy(monkeypatch)
    config = _quick_verify_config(tmp_path, path)
    monkeypatch.chdir(tmp_path)
    assert main(["--config", config]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == "" and len(lines) == 1 and "Traceback" not in captured.err, captured.err
    assert lines[0] == f"config error: key 'output' must have a string 'path', got {path!r}"
    assert calls == [] and os.listdir(tmp_path) == ["config.json"]


def test_read_only_output_is_a_config_error_and_stays(tmp_path, capsys, monkeypatch):
    out = tmp_path / "ro.json"
    out.write_text("old")
    out.chmod(0o444)
    if os.access(out, os.W_OK):  # a privileged user may write it: refuse as the kernel would
        real_open = os.open

        def refusing(path, flags, *args, **kwargs):
            if Path(path) == out and flags & (os.O_WRONLY | os.O_RDWR):
                raise PermissionError(13, "Permission denied", str(path))
            return real_open(path, flags, *args, **kwargs)

        monkeypatch.setattr(os, "open", refusing)
    assert main(["--config", _quick_verify_config(tmp_path, str(out))]) == 2
    _assert_one_line_config_error(capsys, str(out))
    assert out.read_text() == "old"


@pytest.mark.parametrize("code", [errno.ENOSPC, errno.EIO])
def test_output_io_error_is_not_a_config_error(tmp_path, capsys, monkeypatch, code):
    out = tmp_path / "out.json"
    out.write_text("old")

    def failing(fd, data):
        raise OSError(code, os.strerror(code))

    monkeypatch.setattr(os, "write", failing)
    with pytest.raises(OSError) as info:
        main(["--config", _quick_verify_config(tmp_path, str(out))])
    assert info.value.errno == code
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("existing", [200_000, 10])
def test_overwritten_output_matches_a_fresh_write(tmp_path, capsys, existing):
    cfg = _write_config(tmp_path, _base_cat_config(tmp_path, wigner={"points": 5}))
    fresh = tmp_path / "fresh.json"
    assert main(["--config", cfg, "--out", str(fresh)]) == 0
    out = tmp_path / "old.json"
    out.write_bytes(np.random.default_rng(7).bytes(existing))
    out.chmod(0o600)
    inode = out.stat().st_ino
    assert main(["--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    assert 10 < fresh.stat().st_size < 200_000
    assert out.read_bytes() == fresh.read_bytes()
    assert out.stat().st_ino == inode and stat.S_IMODE(out.stat().st_mode) == 0o600


def test_output_to_dev_null(tmp_path, capsys):
    if not os.path.exists(os.devnull):
        pytest.skip(f"no {os.devnull}")
    assert main(["--config", _quick_verify_config(tmp_path, os.devnull)]) == 0
    assert capsys.readouterr().out == os.devnull + "\n"


@pytest.mark.parametrize("scenario", ["feasibility", "sweep"])
def test_output_is_never_opened_with_truncation(tmp_path, capsys, monkeypatch, scenario):
    # replacing a file's contents through O_TRUNC is what the in-place write avoids
    config = example_config(scenario)
    if scenario == "sweep":
        config["lambda_points"] = 3
    out = tmp_path / "out"
    out.write_text("x" * 50_000)
    config["output"]["path"] = str(out)
    cfg = _write_config(tmp_path, config)
    flags, modes = [], []
    real_os_open, real_open = os.open, io.open

    def os_open_spy(path, flag, *args, **kwargs):
        if Path(path) == out:
            flags.append(flag)
        return real_os_open(path, flag, *args, **kwargs)

    def open_spy(file, mode="r", *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and Path(file) == out:
            modes.append(mode)
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(os, "open", os_open_spy)
    monkeypatch.setattr(io, "open", open_spy)
    monkeypatch.setattr(builtins, "open", open_spy)
    assert main(["--config", cfg]) == 0
    capsys.readouterr()
    assert modes == [] and len(flags) == 1, (modes, flags)
    assert not flags[0] & os.O_TRUNC and flags[0] & os.O_CREAT
    assert out.stat().st_size < 50_000


def test_print_example_round_trips(capsys):
    assert main(["--print-example", "sweep"]) == 0
    printed = capsys.readouterr().out
    validate_config(json.loads(printed))


# ---------------------------------------------------------------- serializer

def test_dumps17_float_round_trip():
    values = [0.1, 1.0 / 3.0, 7.590624902975809e-05, 2.0 / math.pi, 1e-300]
    blob = dumps17({"values": values})
    assert json.loads(blob)["values"] == values


def test_dumps17_rejects_non_finite():
    with pytest.raises(ValueError):
        dumps17(float("inf"))


def _reference_dumps17(obj, indent: int = 0) -> str:
    """The writer formatting one float per call, kept as the byte reference."""
    pad = "  " * indent
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not math.isfinite(x):
            raise NonFiniteError(f"non-finite float {x!r} in output")
        return format(x, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray) and obj.dtype == np.float64 and obj.ndim in (1, 2):
        return _reference_dumps17(obj.tolist(), indent)  # written as the same floats in lists
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = ",\n".join("  " * (indent + 1) + _reference_dumps17(v, indent + 1) for v in obj)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            "  " * (indent + 1) + json.dumps(str(k)) + ": " + _reference_dumps17(v, indent + 1)
            for k, v in obj.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_dumps17_matches_the_reference_on_example_runs(tmp_path, capsys, monkeypatch, scenario):
    from squidcat import cli

    config = example_config(scenario)
    assert dumps17(config) == _reference_dumps17(config)
    payloads = []

    def recording(obj, indent=0):
        if indent == 0:  # the payload, not the writer's own recursion
            payloads.append(obj)
        return dumps17(obj, indent)

    monkeypatch.setattr(cli, "dumps17", recording)
    config["output"]["path"] = str(tmp_path / "out")
    assert main(["--config", _write_config(tmp_path, config)]) == 0
    capsys.readouterr()
    if scenario == "sweep":  # CSV, not written by dumps17
        assert payloads == [] and (tmp_path / "out").stat().st_size > 0
        return
    (payload,) = payloads
    if scenario == "cat":
        assert [len(w["values"]) for w in payload["wigner"]] == [41, 41]
    expected = _reference_dumps17(payload) + "\n"
    assert (tmp_path / "out").read_text(encoding="utf-8") == expected


@pytest.mark.parametrize(
    "row",
    [
        [-0.0],
        [5e-324, -5e-324],
        [1e-300, 0.1, 1.0 / 3.0],
        [1.7976931348623157e308, -1.7976931348623157e308],
        [np.float64(0.1), np.float64(-0.0), 2.5],
        [],
        (),
        (0.5, -2.0),
        [1, 2.5],
        [True, 1.0],
        [None, 1.0],
        [np.float32(0.1), 1.0],
        [[1.0, 2.0], [], [3.0]],
        # blocks of equal-length float rows
        [[0.25]],
        [[0.1, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]],
        [[1.0 / 3.0], [-0.0], [5e-324]],
        np.linspace(-2.0, 2.0, 41 * 41).reshape(41, 41).tolist(),
        np.geomspace(1e-300, 1e300, 128).reshape(64, 2).tolist(),
        ((0.5, -2.0), (1e-300, -0.0)),
        [(0.5, -2.0), [1e-300, -0.0]],
        [[np.float64(0.1), 2.5], [np.float64(-0.0), np.float64(5e-324)]],
        # not blocks: written by the recursive path
        [[1.0, 2.0], [3.0]],
        [[], []],
        [[1.0], []],
        [[1.0, 2.0], [3, 4.0]],
        [[1.0, 2.0], [3.0, True]],
        [[1.0, None], [3.0, 4.0]],
        [[1.0, 2.0], [np.float32(3.0), 4.0]],
        [[[1.0, 2.0]], [[3.0, 4.0]]],
        [[1.0, 2.0], 3.0],
        [1.0, [2.0]],
    ],
)
def test_dumps17_float_rows_match_the_reference(row):
    for obj in (row, {"row": row}, [{"row": row}]):
        assert dumps17(obj) == _reference_dumps17(obj)


@pytest.mark.parametrize(
    "row",
    [
        [math.inf],
        [1.0, math.nan, math.inf],
        (2.0, -math.inf),
        [np.float64(1.0), np.float64(math.nan)],
        [[math.nan]],
        [[1.0, 2.0], [3.0, math.inf]],
        [[1.0, 2.0, -math.inf], [math.nan, 3.0, 4.0]],  # the first in row-major order
        [[1.0, math.nan], [-math.inf, 2.0]],
        ((1.0, 2.0), (np.float64(math.inf), 0.0)),
    ],
)
def test_dumps17_float_row_rejects_non_finite(row):
    with pytest.raises(NonFiniteError) as reference:
        _reference_dumps17({"row": row})
    for obj in (row, np.array(row, dtype=float)):
        with pytest.raises(NonFiniteError) as err:
            dumps17({"row": obj})
        assert str(err.value) == str(reference.value)  # names the first non-finite item


def _inversion_symmetric(points):
    """A (points x points) map equal to its own [::-1, ::-1], as a parity cat's is."""
    half = np.random.default_rng(points).normal(size=(points, points))
    return half + half[::-1, ::-1]  # each pair adds the same two floats


@pytest.mark.parametrize(
    "array",
    [
        np.array([-0.0]),
        np.array([0.1, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, 1.0 / 3.0]),
        np.array([[0.25]]),
        np.linspace(-2.0, 2.0, 41 * 41).reshape(41, 41),
        np.geomspace(1e-300, 1e300, 128).reshape(64, 2),
        np.arange(12.0).reshape(3, 4).T,  # not C-contiguous
        np.zeros(0),
        np.zeros((2, 0)),
        # 0.0 and -0.0 are equal as values: a writer keyed on values prints one for both
        np.array([0.0, -0.0, 0.0, -0.0]),
        np.array([[-0.0, 1.5, 0.0], [0.0, 1.5, -0.0]]),
        np.array([0.1, 1.0 / 3.0, 0.1, 0.1, -2.5, 1.0 / 3.0]),
        np.full((3, 5), 1.0 / 3.0),
        _inversion_symmetric(41),
        np.array([5e-324, -5e-324, 2.225073858507201e-308, -1e-310, 5e-324, -5e-324]),
        np.linspace(-3.0, 3.0, 41)[::3],
        np.linspace(-1.0, 1.0, 80).reshape(8, 10)[::-2, 1::3],
    ],
)
def test_dumps17_float_arrays_match_their_lists(array):
    for indent in range(4):
        assert dumps17(array, indent) == dumps17(array.tolist(), indent)
        assert dumps17(array, indent) == _reference_dumps17(array.tolist(), indent)
    assert dumps17({"array": array}) == dumps17({"array": array.tolist()})
    assert dumps17({"array": array}) == _reference_dumps17({"array": array})


@pytest.mark.parametrize(
    "array",
    [
        # the first two put nan first in row-major order, an infinity first in memory or bit order
        np.array([[1.0, math.inf], [math.nan, 2.0]]).T,
        np.array([2.0, math.nan, -math.inf, math.nan, 2.0]),
        np.array([[math.nan, 1.0], [1.0, math.nan]])[:, ::-1],
        np.where(_inversion_symmetric(41) > 0.9, math.inf, _inversion_symmetric(41)),
    ],
)
def test_dumps17_array_names_its_first_non_finite_item_in_row_major_order(array):
    with pytest.raises(NonFiniteError) as reference:
        _reference_dumps17({"array": array.tolist()})
    with pytest.raises(NonFiniteError) as err:
        dumps17({"array": array})
    assert str(err.value) == str(reference.value)


@pytest.mark.parametrize(
    "array",
    [
        np.arange(3),
        np.array([True, False]),
        np.array([1.0 + 2.0j]),
        np.zeros(2, dtype=np.float32),
        np.array(1.5),
        np.zeros((2, 2, 2)),
    ],
    ids=["int", "bool", "complex", "float32", "0-d", "3-d"],
)
def test_dumps17_rejects_other_arrays(array):
    with pytest.raises(TypeError, match="ndarray"):
        dumps17({"array": array})
