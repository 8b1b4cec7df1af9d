"""Layer spans recorded from outside the package, and the layer sweep.

``Tracer.patch`` wraps the public functions of ``cli``, ``experiments``,
``analytic``, ``measurement``, ``model`` and ``hilbert`` that form the
layers below. The modules bind each other's names at import (for example
``from .hilbert import coherent_fock`` in ``analytic``), so a wrapper is
bound in place of the original under every module name that refers to it,
and every binding is restored on exit. ``Propagator`` is shared as a class
object, so its ``__init__`` and ``__call__`` are wrapped on the class.

A layer's self time is its span minus the spans of the wrapped calls it
makes; spans are kept in memory as per-layer totals.
"""

from __future__ import annotations

import contextlib
import math
import statistics
import time
from pathlib import Path

import numpy as np

LAYERS = (
    "cli.run",
    "experiments.verify",
    "model.hamiltonian",
    "hilbert.Propagator.setup",
    "hilbert.Propagator.apply",
    "analytic.materialize_label.squeezed",
    "analytic.materialize_label.coherent",
    "analytic.auto_fock_dim",
    "analytic.materialize",
    "analytic.closed_form",
    "measurement.measure_qubit",
    "hilbert.wigner",
    "hilbert.coherent_fock",
    "hilbert.fidelity",
    "hilbert.top_level_weight",
)
COUNTERS = (
    "cli.output_bytes",
    "experiments.verify.dim_attempts",
    "hilbert.Propagator.setup.computed_bytes",
    "analytic.auto_fock_dim.doublings",
    "hilbert.wigner.points",
)
SWEEP_DIMS = (64, 128, 256, 512)
SWEEP_LAYERS = (
    "model.hamiltonian.first",
    "model.hamiltonian.second",
    "hilbert.Propagator.setup",
    "hilbert.Propagator.apply",
    "analytic.materialize_label.coherent",
    "analytic.materialize_label.squeezed",
    "analytic.auto_fock_dim",
    "hilbert.coherent_fock",
    "measurement.measure_qubit",
    "hilbert.wigner",
)
SWEEP_REPEATS = 3
SWEEP_WIGNER_POINTS = 5  # a 5 x 5 grid keeps the N = 512 call short


def metric_names() -> list[str]:
    """Every per-layer metric the traced run reports, in report order."""
    names = [f"{layer}.{kind}" for layer in LAYERS for kind in ("calls", "self_s")]
    names += list(COUNTERS)
    names += ["trace.untraced_run_s", "trace.self_total_s", "trace.overhead_s"]
    names += [f"sweep.{layer}.N{dim}_s" for layer in SWEEP_LAYERS for dim in SWEEP_DIMS]
    return names


class _Frame:
    __slots__ = ("layer", "child", "dims")

    def __init__(self, layer: str):
        self.layer = layer
        self.child = 0.0
        self.dims: set[int] = set()


class Tracer:
    """Per-layer call counts, self times and work counters of wrapped calls."""

    def __init__(self):
        self._stack: list[_Frame] = []
        self.reset()

    def reset(self) -> None:
        self.calls = dict.fromkeys(LAYERS, 0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.counts = dict.fromkeys(COUNTERS, 0)

    def snapshot(self) -> dict:
        """The metrics of everything recorded since the last reset."""
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.self_s"] = self.self_s[layer]
        out.update(self.counts)
        return out

    def _enclosing(self, layer: str) -> _Frame | None:
        for frame in reversed(self._stack):
            if frame.layer == layer:
                return frame
        return None

    def _span(self, layer, fn, before=None, after=None):
        """Wrapper of ``fn`` that records a span of ``layer`` (a name or a function of the args)."""

        def wrapper(*args, **kwargs):
            frame = _Frame(layer(*args) if callable(layer) else layer)
            if before is not None:
                before(*args, **kwargs)
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                self.calls[frame.layer] += 1
                self.self_s[frame.layer] += elapsed - frame.child
                if self._stack:
                    self._stack[-1].child += elapsed
            if after is not None:
                after(frame, result, *args)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # Counters, each measured where its layer does the work.
    def _output_bytes(self, frame, path, *args):
        self.counts["cli.output_bytes"] += Path(path).stat().st_size

    def _dim_attempts(self, frame, result, *args):
        self.counts["experiments.verify.dim_attempts"] += len(frame.dims)

    def _doublings(self, frame, result, *args):
        self.counts["analytic.auto_fock_dim.doublings"] += max(0, len(frame.dims) - 1)

    def _note_dim(self, layer, dim):
        frame = self._enclosing(layer)
        if frame is not None:
            frame.dims.add(int(dim))

    def _hamiltonian_dim(self, params, coupling, order, dim):
        self._note_dim("experiments.verify", dim)

    def _label_dim(self, label, fock_dim):
        self._note_dim("analytic.auto_fock_dim", fock_dim)

    def _wigner_points(self, state, points):
        self.counts["hilbert.wigner.points"] += np.asarray(points).size

    def _setup_bytes(self, frame, result, propagator, hamiltonian):
        self.counts["hilbert.Propagator.setup.computed_bytes"] += 16 * hamiltonian.dim**2

    def _wrappers(self, cli, experiments, model, analytic, measurement, hilbert) -> dict:
        """Layer wrapper of each wrapped function, keyed by the original's id."""

        def label_layer(label, *args):
            kind = "coherent" if isinstance(label, analytic.CoherentLabel) else "squeezed"
            return f"analytic.materialize_label.{kind}"

        spans = [
            ("cli.run", cli.run, None, self._output_bytes),
            ("experiments.verify", experiments.verify_analytic_numeric, None, self._dim_attempts),
            ("model.hamiltonian", model.hamiltonian, self._hamiltonian_dim, None),
            (label_layer, analytic.materialize_label, self._label_dim, None),
            ("analytic.auto_fock_dim", analytic.auto_fock_dim, None, self._doublings),
            ("analytic.materialize", analytic.materialize, None, None),
            ("analytic.closed_form", analytic.evolve_vacuum, None, None),
            ("analytic.closed_form", analytic.evolve_coherent, None, None),
            ("analytic.closed_form", analytic.flux_pi_pulse, None, None),
            ("analytic.closed_form", analytic.squeezed_evolution, None, None),
            ("measurement.measure_qubit", measurement.measure_qubit, None, None),
            ("hilbert.wigner", hilbert.wigner, self._wigner_points, None),
            ("hilbert.coherent_fock", hilbert.coherent_fock, None, None),
            ("hilbert.fidelity", hilbert.fidelity, None, None),
            ("hilbert.top_level_weight", hilbert.top_level_weight, None, None),
        ]
        return {id(fn): self._span(layer, fn, before, after) for layer, fn, before, after in spans}

    @contextlib.contextmanager
    def patch(self):
        """Record spans of every layer while the block runs, then unwrap."""
        import squidcat
        from squidcat import analytic, cli, experiments, hilbert, measurement, model

        wrappers = self._wrappers(cli, experiments, model, analytic, measurement, hilbert)
        restore = []
        propagator = hilbert.Propagator
        setup, apply = propagator.__init__, propagator.__call__
        try:
            for module in (squidcat, cli, experiments, analytic, measurement, model, hilbert):
                for name, value in list(vars(module).items()):
                    wrapper = wrappers.get(id(value))
                    if wrapper is not None:
                        restore.append((module, name, value))
                        setattr(module, name, wrapper)
            propagator.__init__ = self._span("hilbert.Propagator.setup", setup, after=self._setup_bytes)
            propagator.__call__ = self._span("hilbert.Propagator.apply", apply)
            yield self
        finally:
            propagator.__init__, propagator.__call__ = setup, apply
            for module, name, value in restore:
                setattr(module, name, value)


def _median_time(fn, repeats: int = SWEEP_REPEATS) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def layer_sweep(linear_device: dict, squeeze_device: dict) -> dict:
    """Median time of each main layer at each Fock size in SWEEP_DIMS."""
    from squidcat import analytic, cli, hilbert, measurement, model

    def params(dev: dict):
        output = {"path": "unused.json", "format": "json"}
        return cli.validate_config({"scenario": "verify", "device": dev, "target": "vacuum", "output": output}).device

    linear, squeeze = params(linear_device), params(squeeze_device)
    c_linear, c_squeeze = model.coupling_xi(linear), model.coupling_xi(squeeze)
    period = 2.0 * math.pi / linear.omega_cavity
    coherent = analytic.CoherentLabel(alpha=3.0)
    squeezed = analytic.squeezed_evolution(squeeze, c_squeeze, 3.0, period).labels()[0]
    axis = np.linspace(-2.0, 2.0, SWEEP_WIGNER_POINTS)
    grid = (axis[:, None] * 1j + axis[None, :]).ravel()
    out = {}
    for dim in SWEEP_DIMS:
        h_first = model.hamiltonian(linear, c_linear, "first", dim)
        propagator = hilbert.Propagator(h_first)
        psi0 = hilbert.joint_state("g", hilbert.coherent_fock(3.0, dim))
        evolved = propagator(psi0, 0.3 * period)
        cavity = hilbert.coherent_fock(1.0, dim)
        timed = {
            "model.hamiltonian.first": lambda: model.hamiltonian(linear, c_linear, "first", dim),
            "model.hamiltonian.second": lambda: model.hamiltonian(squeeze, c_squeeze, "second", dim),
            "hilbert.Propagator.setup": lambda: hilbert.Propagator(h_first),
            "hilbert.Propagator.apply": lambda: propagator(psi0, 0.3 * period),
            "analytic.materialize_label.coherent": lambda: analytic.materialize_label(coherent, dim),
            "analytic.materialize_label.squeezed": lambda: analytic.materialize_label(squeezed, dim),
            "analytic.auto_fock_dim": lambda: analytic.auto_fock_dim([squeezed, coherent], start=dim),
            "hilbert.coherent_fock": lambda: hilbert.coherent_fock(3.0, dim),
            "measurement.measure_qubit": lambda: measurement.measure_qubit(evolved, "g"),
            "hilbert.wigner": lambda: hilbert.wigner(cavity, grid),
        }
        for layer in SWEEP_LAYERS:
            out[f"sweep.{layer}.N{dim}_s"] = _median_time(timed[layer])
    return out
