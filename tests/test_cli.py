import json
import math

import numpy as np
import pytest

from squidcat.analytic import branch_decomposition_from_dict, branch_decomposition_to_dict
from squidcat.cli import (
    SCENARIOS,
    dumps17,
    example_config,
    load_config,
    main,
    run,
    validate_config,
)
from squidcat.errors import ConfigError, DimensionError, NormalizationError, NullOutcomeError
from squidcat.hilbert import CavityState
from squidcat.model import coupling_xi

from conftest import cat_wigner, make_strong_device


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

    decomposition = branch_decomposition_from_dict(data["branches"])
    assert branch_decomposition_to_dict(decomposition) == data["branches"]

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
    from squidcat import analytic, cli

    calls = []
    original = analytic.materialize_label

    def counting(label, fock_dim):
        calls.append((label, fock_dim))
        return original(label, fock_dim)

    monkeypatch.setattr(analytic, "materialize_label", counting)
    monkeypatch.setattr(cli, "materialize_label", counting)
    config = example_config("squeeze")
    config["output"] = {"path": str(tmp_path / "squeeze.json"), "format": "json"}
    run(load_config(_write_config(tmp_path, config)))
    # the policy once, for the variances and both measured outcomes
    assert len(set(calls)) == 2 and len(calls) == 2


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_main_non_finite_output_is_a_numerical_failure(tmp_path, capsys):
    # A |alpha| = 15 cat mapped out to |beta| = 20 sqrt(2), where the Wigner sum overflows.
    config = _base_cat_config(tmp_path)
    params = validate_config(config).device
    kappa = abs(coupling_xi(params).xi) * params.ej_rate / params.omega_cavity
    config["device"]["S"] *= 7.5 / kappa
    config["tau"] = math.pi / params.omega_cavity
    config["wigner"] = {"extent": 20.0, "points": 3}
    assert main(["--config", _write_config(tmp_path, config)]) == 3
    err = capsys.readouterr().err
    assert "numerical contract failure" in err and "non-finite" in err


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
