"""Batch front end: JSON run configuration in, tables/states/reports out.

One invocation runs one scenario (cat, inject, squeeze, sweep, verify or
feasibility) and writes a single output file at the configured path.  All
floating-point output is printed with 17 significant digits so emitted
states reload bit-faithfully.  The JSON writer ``dumps17`` puts one item
per line.  A float block, a row of floats or equal-length rows of them (a
Wigner map, its axis, the [re, im] pairs of a state), is checked and
formatted in one pass by one ``%`` call, with the same bytes as item by
item: ``-0`` stays ``-0`` and any NaN or infinity raises NonFiniteError
(exit 3).  The cat scenario's Wigner maps, one per possible outcome, come
from one ``wigner_maps`` call on one grid.

Exit codes: 0 success, 2 configuration error, 3 numerical-contract failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np

from .analytic import (
    BranchDecomposition,
    auto_fock_dim,
    branch_decomposition_to_dict,
    evolve_coherent,
    evolve_vacuum,
    flux_pi_pulse,
    materialize,
    squeezed_evolution,
)
from .constants import MAX_FOCK_DIM, MAX_WIGNER_POINTS
from .errors import (
    ConfigError,
    DimensionError,
    NonFiniteError,
    NormalizationError,
    NullOutcomeError,
    TruncationError,
)
from .experiments import (
    VERIFY_SCENARIOS,
    default_lambda_grid,
    feasibility_report,
    fig1_sweep,
    sweep_rows_to_csv,
    verify_analytic_numeric,
)
from .hilbert import CavityState, min_quadrature_variance, wigner_maps
from .measurement import MeasurementRecord, measure_qubit, measurement_record_to_dict
from .model import CAVITY_KINDS, DeviceParams, coupling_xi

__all__ = ["RunConfig", "load_config", "run", "main", "example_config", "dumps17"]

SCENARIOS = ("cat", "inject", "squeeze", "sweep", "verify", "feasibility")
# Exit code 3; every other ValueError is a configuration error (exit 2).
_NUMERICAL_FAILURES = (
    TruncationError,
    NonFiniteError,
    DimensionError,
    NullOutcomeError,
    NormalizationError,
)

_DEVICE_KEY_MAP = {
    "E_J": "E_J",
    "E_ch": "E_ch",
    "n_g": "n_g",
    "phi_c_ratio": "phi_c_ratio",
    "lambda": "wavelength",
    "cavity_kind": "cavity_kind",
    "S": "squid_area",
    "z0": "z0",
    "Q": "Q",
    "omega": "omega",
}
_REQUIRED_DEVICE_KEYS = ("E_J", "E_ch")

_SCENARIO_KEYS = {
    "cat": ({"tau"}, {"wigner"}),
    "inject": ({"alpha_prime", "tau1"}, set()),
    "squeeze": ({"gamma", "t"}, {"fock_dim"}),
    "sweep": (set(), {"lambda_points", "ratios", "kinds"}),
    "verify": ({"target"}, {"points", "tau_max", "alpha_prime", "gamma", "fock_dim"}),
    "feasibility": ({"T1", "T2", "tau_m"}, set()),
}


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Validated run configuration."""

    scenario: str
    device: DeviceParams | None
    args: dict
    out_path: str
    out_format: str


# Item types of a float row or block, written by dumps17 in one pass.
_FLOAT_TYPES = frozenset((float, np.float64))


def _fmt(x: float) -> str:
    if not math.isfinite(x):
        raise NonFiniteError(f"non-finite float {x!r} in output")
    return format(float(x), ".17g")


@functools.lru_cache(maxsize=64)
def _float_template(shape: tuple[int, ...], indent: int) -> str:
    """The ``%`` template of a float row (shape (columns,)) or block (rows, columns)."""
    if not shape:
        return "%.17g"
    pad = "  " * indent
    item = _float_template(shape[1:], indent + 1)
    return "[\n" + pad + "  " + (",\n" + pad + "  ").join([item] * shape[0]) + "\n" + pad + "]"


def _float_block(obj) -> tuple[tuple[int, ...], list] | None:
    """(shape, items in row-major order) of a non-empty float row, or of a
    block of equal-length non-empty float rows given as lists or tuples;
    None for anything else."""
    if isinstance(obj[0], (list, tuple)):
        shape = (len(obj), len(obj[0]))
        if not shape[1] or any(not isinstance(r, (list, tuple)) or len(r) != shape[1] for r in obj):
            return None
        items = list(itertools.chain.from_iterable(obj))
    else:
        shape, items = (len(obj),), obj
    return (shape, items) if _FLOAT_TYPES.issuperset(map(type, items)) else None


def dumps17(obj, indent: int = 0) -> str:
    """JSON rendering with every float printed at 17 significant digits.

    Containers open one item per line, indented two spaces per level.  A
    float block, a non-empty list or tuple of floats (``np.float64``
    included, bools and ints not) or of equal-length non-empty rows of
    them, such as a Wigner map or the [re, im] pairs of a state, is written
    in one pass: its item types and finiteness are checked once, in
    row-major order, and every item is formatted by one ``%`` call on a
    ``"%.17g"`` template cached by (rows, columns, indent).  A row is the
    one-row case.  The bytes are those of the recursive path, which writes
    everything else.
    """
    pad = "  " * indent
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        block = _float_block(obj)
        if block is not None:
            shape, items = block
            for bad in itertools.filterfalse(math.isfinite, items):
                _fmt(float(bad))  # raises, naming the first non-finite item
            return _float_template(shape, indent) % tuple(items)
        items = (",\n" + pad + "  ").join(dumps17(v, indent + 1) for v in obj)
        return "[\n" + pad + "  " + items + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            "  " * (indent + 1) + json.dumps(str(k)) + ": " + dumps17(v, indent + 1)
            for k, v in obj.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


def _is_real(value) -> bool:
    """A finite JSON number: an int or float, not a bool, within the float range."""
    return (
        not isinstance(value, bool)
        and isinstance(value, (int, float))
        and abs(value) <= sys.float_info.max
    )


def _is_count(value) -> bool:
    """An integer >= 1, not a bool."""
    return not isinstance(value, bool) and isinstance(value, int) and value >= 1


def _is_complex(value) -> bool:
    """A finite number or a [re, im] pair of them."""
    return _is_real(value) or (
        isinstance(value, (list, tuple)) and len(value) == 2 and all(map(_is_real, value))
    )


def _is_list_of(value, item_ok) -> bool:
    return isinstance(value, list) and bool(value) and all(map(item_ok, value))


def _as_complex(value) -> complex:
    """A validated ``_is_complex`` value as a complex number."""
    return complex(*value) if isinstance(value, (list, tuple)) else complex(value)


# Rule and its description for each scenario value, checked before any state is computed.
_VALUE_RULES = {
    **dict.fromkeys(
        ("tau", "tau1", "t", "tau_max", "T1", "T2", "tau_m"), (_is_real, "a finite number")
    ),
    "points": (_is_count, "an integer >= 1"),
    "lambda_points": (_is_count, "an integer >= 1"),
    "fock_dim": (
        lambda v: _is_count(v) and 2 <= v <= MAX_FOCK_DIM,
        f"an integer from 2 to {MAX_FOCK_DIM}",
    ),
    "ratios": (
        lambda v: _is_list_of(v, lambda r: _is_real(r) and r > 0),
        "a non-empty list of numbers > 0",
    ),
    "kinds": (
        lambda v: _is_list_of(v, lambda k: isinstance(k, str) and k in CAVITY_KINDS),
        f"a non-empty list of names from {sorted(CAVITY_KINDS)}",
    ),
    "alpha_prime": (_is_complex, "a finite number or [re, im] pair"),
    "gamma": (_is_complex, "a finite number or [re, im] pair"),
    "target": (lambda v: v in VERIFY_SCENARIOS, f"one of {VERIFY_SCENARIOS}"),
}


def _parse_device(data, context: str) -> DeviceParams:
    if not isinstance(data, dict):
        raise ConfigError(f"{context}: 'device' must be an object")
    kwargs = {}
    for key, value in data.items():
        if key.startswith("_"):
            continue
        if key not in _DEVICE_KEY_MAP:
            raise ConfigError(f"{context}: unknown device key {key!r}")
        if value is not None:
            kwargs[_DEVICE_KEY_MAP[key]] = value
    for key in _REQUIRED_DEVICE_KEYS:
        if _DEVICE_KEY_MAP[key] not in kwargs:
            raise ConfigError(f"{context}: missing required device key {key!r}")
    try:
        return DeviceParams(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{context}: invalid device parameters: {exc}") from exc


def load_config(path: str) -> RunConfig:
    """Load and validate a JSON run configuration."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    return validate_config(data)


def validate_config(data) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    scenario = data.get("scenario")
    if scenario not in SCENARIOS:
        raise ConfigError(f"key 'scenario' must be one of {SCENARIOS}, got {scenario!r}")
    required, optional = _SCENARIO_KEYS[scenario]

    base_keys = {"scenario", "device", "output"}
    for key in data:
        if key.startswith("_"):
            continue
        if key not in base_keys | required | optional:
            raise ConfigError(f"unknown key {key!r} for scenario {scenario!r}")
    for key in required:
        if key not in data:
            raise ConfigError(f"scenario {scenario!r} requires key {key!r}")

    device = None
    if scenario != "sweep":
        if "device" not in data:
            raise ConfigError(f"scenario {scenario!r} requires key 'device'")
        device = _parse_device(data["device"], f"scenario {scenario!r}")

    output = data.get("output")
    if not isinstance(output, dict) or "path" not in output or "format" not in output:
        raise ConfigError("key 'output' must be an object with 'path' and 'format'")
    for key in output:
        if key not in ("path", "format") and not key.startswith("_"):
            raise ConfigError(f"unknown output key {key!r}")
    out_format = output["format"]
    expected_format = "csv" if scenario == "sweep" else "json"
    if out_format != expected_format:
        raise ConfigError(
            f"scenario {scenario!r} emits {expected_format!r}; got format {out_format!r}"
        )

    args = {k: v for k, v in data.items() if k in required | optional}
    for key, value in args.items():
        if key in _VALUE_RULES and not _VALUE_RULES[key][0](value):
            raise ConfigError(f"key {key!r} must be {_VALUE_RULES[key][1]}, got {value!r}")
    if args.get("wigner") is not None:
        _validate_wigner_grid(args["wigner"])
    return RunConfig(
        scenario=scenario,
        device=device,
        args=args,
        out_path=str(output["path"]),
        out_format=out_format,
    )


def _validate_wigner_grid(grid) -> None:
    """Check the cat scenario's ``wigner`` block: an integer ``points`` in
    1..MAX_WIGNER_POINTS and a real ``extent`` > 0 whose grid corners
    extent (1 + i) have a finite |2 beta|^2 = 8 extent^2."""
    if not isinstance(grid, dict):
        raise ConfigError("key 'wigner' must be an object with 'extent' and 'points'")
    for key in grid:
        if key not in ("extent", "points") and not key.startswith("_"):
            raise ConfigError(f"unknown wigner key {key!r}")
    points = grid.get("points", 41)
    if not _is_count(points) or points > MAX_WIGNER_POINTS:
        raise ConfigError(
            f"key 'wigner.points' must be an integer from 1 to {MAX_WIGNER_POINTS}, got {points!r}"
        )
    extent = grid.get("extent", 3.0)
    if not _is_real(extent) or extent <= 0 or not math.isfinite(8.0 * extent * extent):
        raise ConfigError(
            f"key 'wigner.extent' must be a number > 0 with 8 extent^2 finite, got {extent!r}"
        )


def _measure_both(
    decomposition: BranchDecomposition, fitted: tuple[int, tuple] | None = None
) -> list[MeasurementRecord | None]:
    """Records of the outcomes g and e, None for an outcome that cannot occur.

    The decomposition is materialized once, at the policy truncation and
    with the label states of ``fitted`` (``auto_fock_dim`` of its labels)
    when given, and both outcomes are measured from that state.
    """
    joint = materialize(decomposition, *(fitted or ()))
    records = []
    for outcome in ("g", "e"):
        try:
            records.append(measure_qubit(decomposition, outcome, joint=joint))
        except NullOutcomeError:
            records.append(None)
    return records


def _record_dicts(records: list[MeasurementRecord | None]) -> list[dict]:
    return [
        {"outcome": outcome, "probability": 0.0, "post_state": None, "analytic_post": None}
        if record is None
        else measurement_record_to_dict(record)
        for record, outcome in zip(records, ("g", "e"))
    ]


def _wigner_section(records: list[MeasurementRecord | None], args) -> list[dict]:
    grid_cfg = args.get("wigner") or {}
    extent = float(grid_cfg.get("extent", 3.0))
    points = int(grid_cfg.get("points", 41))
    if points == 1:
        axis = np.array([-extent])
    else:  # exactly antisymmetric, unlike linspace, so the map has fewer distinct radii
        axis = extent * np.arange(1 - points, points, 2) / (points - 1)
    grid = (axis[:, None] * 1j + axis[None, :]).ravel()  # values[i_im][i_re]
    records = [record for record in records if record is not None]
    maps = wigner_maps([record.post_state for record in records], grid)
    return [
        {
            "outcome": record.outcome,
            "extent": extent,
            "points": points,
            "axis": axis.tolist(),
            "values": values.reshape(points, points).tolist(),
        }
        for record, values in zip(records, maps)
    ]


def _run_cat(config: RunConfig) -> dict:
    params = config.device
    coupling = coupling_xi(params)
    tau = float(config.args["tau"])
    decomposition = evolve_vacuum(params, coupling, tau)
    records = _measure_both(decomposition)
    return {
        "scenario": "cat",
        "tau": tau,
        "branches": branch_decomposition_to_dict(decomposition),
        "measurements": _record_dicts(records),
        "wigner": _wigner_section(records, config.args),
    }


def _run_inject(config: RunConfig) -> dict:
    params = config.device
    coupling = coupling_xi(params)
    alpha_prime = _as_complex(config.args["alpha_prime"])
    tau1 = float(config.args["tau1"])
    before = evolve_coherent(params, coupling, alpha_prime, tau1)
    after = flux_pi_pulse(before, params)
    return {
        "scenario": "inject",
        "tau1": tau1,
        "alpha_prime": [alpha_prime.real, alpha_prime.imag],
        "pre_pulse": branch_decomposition_to_dict(before),
        "post_pulse": branch_decomposition_to_dict(after),
        "measurements": _record_dicts(_measure_both(after)),
    }


def _run_squeeze(config: RunConfig) -> dict:
    params = config.device
    coupling = coupling_xi(params)
    gamma = _as_complex(config.args["gamma"])
    t = float(config.args["t"])
    decomposition = squeezed_evolution(params, coupling, gamma, t)
    fock_dim = config.args.get("fock_dim")
    labels = decomposition.labels()
    fitted = auto_fock_dim(labels, fock_dim)
    dim, (rows, _) = fitted
    if fock_dim is not None and dim != fock_dim:
        raise TruncationError(
            f"fock_dim {fock_dim} too small for the squeezed labels: the policy needs {dim}",
            required_dim=dim,
        )
    variances = []
    for label, row in zip(labels, rows):
        r = abs(label.squeeze)
        variances.append(
            {
                "squeeze": [label.squeeze.real, label.squeeze.imag],
                "degree": r,
                "min_variance": min_quadrature_variance(CavityState(row)),
                "expected_min_variance": 0.5 * math.exp(-2.0 * r),
            }
        )
    return {
        "scenario": "squeeze",
        "t": t,
        "gamma": [gamma.real, gamma.imag],
        "branches": branch_decomposition_to_dict(decomposition),
        "variances": variances,
        "measurements": _record_dicts(_measure_both(decomposition, fitted)),
    }


def _run_sweep(config: RunConfig) -> str:
    points = config.args.get("lambda_points", 200)
    ratios = config.args.get("ratios", [4.0, 7.0, 10.0, 15.0])
    kinds = config.args.get("kinds", ["full", "quarter"])
    rows = fig1_sweep(default_lambda_grid(points), tuple(ratios), tuple(kinds))
    return sweep_rows_to_csv(rows)


def _run_verify(config: RunConfig) -> dict:
    params = config.device
    target = config.args["target"]
    points = config.args.get("points", 20)
    tau_max = config.args.get("tau_max")
    if tau_max is None:
        tau_max = 4.0 * math.pi / params.omega_cavity
    grid = np.linspace(0.0, float(tau_max), points)
    max_infidelity = verify_analytic_numeric(
        params,
        target,
        grid,
        config.args.get("fock_dim"),
        alpha_prime=_as_complex(config.args.get("alpha_prime", 0.0)),
        gamma=_as_complex(config.args.get("gamma", 0.0)),
    )
    return {
        "scenario": "verify",
        "target": target,
        "points": points,
        "tau_max": float(tau_max),
        "max_infidelity": max_infidelity,
    }


def _run_feasibility(config: RunConfig) -> dict:
    report = feasibility_report(
        config.device,
        T1=float(config.args["T1"]),
        T2=float(config.args["T2"]),
        tau_m=float(config.args["tau_m"]),
    )
    out = {"scenario": "feasibility"}
    out.update(dataclasses.asdict(report))
    return out


def run(config: RunConfig) -> Path:
    """Execute a validated configuration and write its output file."""
    if config.scenario == "sweep":
        payload = _run_sweep(config)
    elif config.scenario == "cat":
        payload = _run_cat(config)
    elif config.scenario == "inject":
        payload = _run_inject(config)
    elif config.scenario == "squeeze":
        payload = _run_squeeze(config)
    elif config.scenario == "verify":
        payload = _run_verify(config)
    else:
        payload = _run_feasibility(config)

    out_path = Path(config.out_path)
    if out_path.parent != Path("."):
        out_path.parent.mkdir(parents=True, exist_ok=True)
    if config.out_format == "csv":
        out_path.write_text(payload, encoding="utf-8")
    else:
        out_path.write_text(dumps17(payload) + "\n", encoding="utf-8")
    return out_path


_EXAMPLE_DEVICE = {
    "_notes": "energies in eV, lengths in m; omega defaults to 2*pi*c/lambda",
    "E_J": 7.749012397327047e-05,
    "E_ch": 0.0003099604958930819,
    "n_g": 0.5,
    "phi_c_ratio": 0.5,
    "lambda": 0.001,
    "cavity_kind": "full",
    "S": 1e-10,
}


def example_config(scenario: str) -> dict:
    """Commented configuration template for a scenario ('_'-prefixed keys are ignored)."""
    if scenario not in SCENARIOS:
        raise ConfigError(f"no example for scenario {scenario!r}; choose from {SCENARIOS}")
    if scenario == "cat":
        return {
            "_notes": "vacuum-input cat generation: branches, both measurements, Wigner maps",
            "scenario": "cat",
            "device": dict(_EXAMPLE_DEVICE),
            "tau": 1.6678204759907604e-12,
            "wigner": {"extent": 3.0, "points": 41},
            "output": {"path": "cat_run.json", "format": "json"},
        }
    if scenario == "inject":
        return {
            "_notes": "coherent injection followed by the flux pulse",
            "scenario": "inject",
            "device": dict(_EXAMPLE_DEVICE),
            "alpha_prime": [1.0, 0.0],
            "tau1": 1.6678204759907604e-12,
            "output": {"path": "inject_run.json", "format": "json"},
        }
    if scenario == "squeeze":
        device = dict(_EXAMPLE_DEVICE)
        device["phi_c_ratio"] = 0.0
        return {
            "_notes": "squeezed-branch generation at zero classical flux",
            "scenario": "squeeze",
            "device": device,
            "gamma": [1.0, 0.0],
            "t": 1.6678204759907604e-12,
            "output": {"path": "squeeze_run.json", "format": "json"},
        }
    if scenario == "sweep":
        return {
            "_notes": "drive-rate sweep over wavelength; 200 x ratios x kinds rows; "
            "cavity volume modeled as L^3 with L the cavity length",
            "scenario": "sweep",
            "lambda_points": 200,
            "ratios": [4.0, 7.0, 10.0, 15.0],
            "kinds": ["full", "quarter"],
            "output": {"path": "sweep.csv", "format": "csv"},
        }
    if scenario == "verify":
        return {
            "_notes": "analytic vs numeric cross-check; target in vacuum|coherent|pulse|squeeze",
            "scenario": "verify",
            "device": dict(_EXAMPLE_DEVICE),
            "target": "vacuum",
            "points": 20,
            "output": {"path": "verify.json", "format": "json"},
        }
    device = dict(_EXAMPLE_DEVICE)
    device["Q"] = 3e8
    return {
        "_notes": "timescale feasibility report; times in seconds",
        "scenario": "feasibility",
        "device": device,
        "T1": 1e-6,
        "T2": 5e-9,
        "tau_m": 4e-9,
        "output": {"path": "feasibility.json", "format": "json"},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="squidcat",
        description="Cat-state and squeezed-state generation scenarios for a "
        "charge qubit coupled to a microwave cavity.",
    )
    parser.add_argument("--config", metavar="PATH", help="JSON run configuration")
    parser.add_argument(
        "--print-example",
        metavar="SCENARIO",
        help=f"print a config template for one of {', '.join(SCENARIOS)}",
    )
    parser.add_argument("--out", metavar="PATH", help="override the configured output path")
    opts = parser.parse_args(argv)

    try:
        if opts.print_example:
            print(dumps17(example_config(opts.print_example)))
            return 0
        if not opts.config:
            parser.print_usage(sys.stderr)
            print("error: --config or --print-example is required", file=sys.stderr)
            return 2
        config = load_config(opts.config)
        if opts.out:
            config = dataclasses.replace(config, out_path=opts.out)
        out_path = run(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except _NUMERICAL_FAILURES as exc:
        print(f"numerical contract failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    print(out_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
