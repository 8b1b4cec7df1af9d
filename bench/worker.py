"""One workload in one fresh process: set up, run whole batches, check every output.

Started by run.py with the BLAS and OpenMP pools already pinned in its
environment. ``--setup-only`` reports as soon as the first operation is ready
(the package is imported and the configs are built), which is what run.py
times as ``setup_s``, then prints the factor that scales that time to the
reference host speed (below) and exits. Otherwise the process runs the
workload's fixed batch for ``--seconds``, always in whole batches, and
prints one JSON line with its counts, metrics and environment.

The shared host runs this process 1.0-1.5x slower for seconds to minutes at
a time, and CPU time slows with wall time, so raw seconds from two runs are
not comparable. A fixed reference kernel that does not touch squidcat is
timed before the first operation and after every operation. Each operation's
wall time is scaled by ``REFERENCE_S`` over the mean of the two kernel times
around it: the time it would have taken at the host speed where the kernel
takes ``REFERENCE_S``. The raw wall times are reported beside them.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import checks
import tracing
import workloads

# Median of reference_s() on an idle 2.1 GHz Xeon vCPU with one BLAS thread.
REFERENCE_S = 0.0075
SETUP_KERNEL_REPEATS = 5
_rng = np.random.default_rng(12345)
_REF_MATRIX = _rng.standard_normal((128, 128)) + 1j * _rng.standard_normal((128, 128))
_REF_MATRIX = _REF_MATRIX + _REF_MATRIX.conj().T
_REF_VECTOR = _rng.standard_normal(4096) + 1j * _rng.standard_normal(4096)


def reference_s() -> float:
    """Wall time of a fixed mix of the work squidcat does: a small Hermitian
    eigensolve, numpy vector arithmetic and an interpreted loop."""
    start = time.perf_counter()
    np.linalg.eigh(_REF_MATRIX)
    for _ in range(80):
        np.sum(np.abs(_REF_VECTOR * _REF_VECTOR) ** 2)
    total = 0
    for k in range(30000):
        total += k * k
    return time.perf_counter() - start


def import_cli(root: Path):
    """squidcat.cli from the checkout's ``src``, and nowhere else."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    from squidcat import cli

    if Path(cli.__file__).resolve().parent.parent != src:
        raise SystemExit(f"squidcat was imported from {cli.__file__}, not from {src}")
    return cli


def environment() -> dict:
    """Machine, library versions and the BLAS pool sizes in force."""
    import numpy
    import scipy

    pools = {}
    for line in Path("/proc/self/maps").read_text().splitlines():
        path = line.split()[-1]
        if "openblas" not in path.lower() or path in pools:
            continue
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads",
        ):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                pools[path] = getter()
                break
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "blas_pools": {Path(path).name: size for path, size in pools.items()},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": f"{blas.get('name')} {blas.get('version')}",
    }


class Batch:
    """The fixed operations of one workload, with their validated configs."""

    def __init__(self, cli, workload: str, seed: int, outdir: Path):
        outdir.mkdir(parents=True, exist_ok=True)
        self.cli = cli
        self.ops = workloads.build(workload, seed, str(outdir))
        self.configs = [cli.validate_config(op.config) for op in self.ops]
        self.failed = 0
        self.problems: list[str] = []

    def run_op(self, index: int) -> float:
        """Run one operation, check its output, and return its wall time."""
        op, config = self.ops[index], self.configs[index]
        start = time.perf_counter()
        try:
            path = self.cli.run(config)
        except Exception as exc:  # any raise is a failed operation, recorded below
            elapsed = time.perf_counter() - start
            self._fail(op, f"raised {type(exc).__name__}: {exc}")
            return elapsed
        elapsed = time.perf_counter() - start
        output = json.loads(Path(path).read_text(encoding="utf-8"))
        if op.config["scenario"] == "cat":
            error, problems = checks.check_cat(output, op.config)
            limit, what = checks.WIGNER_TOL, "Wigner error"
        else:
            error, problems = checks.check_verify(output, op.config)
            limit, what = checks.INFIDELITY_LIMIT, "max_infidelity"
        if error > limit:
            self._fail(op, f"{what} {error:.3e} > {limit:g}")
        self.problems += [f"{op.name}: {p}" for p in problems]
        return elapsed

    def _fail(self, op, reason: str) -> None:
        self.failed += 1
        if op.known_fault is None:
            self.problems.append(f"{op.name}: unexpected failure: {reason}")

    def run(self) -> tuple[list[float], list[float]]:
        """Run every operation once, in order: their wall times, and the
        reference kernel's times before the first and after each one."""
        times, refs = [], [reference_s()]
        for index in range(len(self.ops)):
            times.append(self.run_op(index))
            refs.append(reference_s())
        return times, refs


def scaled(times: list[float], refs: list[float]) -> list[float]:
    """Each wall time at the host speed where the reference kernel takes REFERENCE_S."""
    return [t * 2.0 * REFERENCE_S / (refs[i] + refs[i + 1]) for i, t in enumerate(times)]


def batch_figures(batches: list[list[float]]) -> tuple[float, float]:
    """(op_p50_s, run_s) from per-batch operation times.

    Each operation's time is its median over the batches; op_p50_s is the
    median of those over the batch's operations and run_s their sum. The
    operations differ in size, so a median over every time pooled would
    jump between sizes with the number of batches run.
    """
    per_op = [statistics.median(column) for column in zip(*batches)]
    return statistics.median(per_op), sum(per_op)


def measure(batch: Batch, seconds: float, trace: bool) -> dict:
    """Whole batches for ``seconds``: untraced, or alternately untraced and traced.

    A batch starts only if the last one would still end within ``seconds``,
    so a run takes about ``seconds``; at least one batch runs.
    """
    batch.run_op(0)  # warm-up: lazy imports and first-touch pages, not counted
    batch.failed = 0
    plain, refs, traced, layers = [], [], [], []
    tracer = tracing.Tracer() if trace else None
    start = time.perf_counter()
    last = 0.0
    while not plain or time.perf_counter() + last <= start + seconds:
        begin = time.perf_counter()
        times, kernel = batch.run()
        plain.append(times)
        refs.append(kernel)
        if tracer is not None:
            tracer.reset()
            with tracer.patch():
                traced.append(batch.run()[0])
            layers.append(tracer.snapshot())
        last = time.perf_counter() - begin
    result = {"batches": len(plain) + len(traced), "op_times": plain, "ref_times": refs}
    wall_p50, run_s = batch_figures(plain)
    if not trace:
        op_p50, scaled_run = batch_figures([scaled(t, r) for t, r in zip(plain, refs)])
        result["metrics"] = {
            "op_p50_s": op_p50,
            "run_s": scaled_run,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        result["wall"] = {
            "op_p50_s": wall_p50,
            "run_s": run_s,
            "reference_p50_s": statistics.median(r for kernel in refs for r in kernel),
        }
        return result
    # median_low keeps the counts whole; they repeat exactly from batch to batch.
    metrics = {name: statistics.median_low(run[name] for run in layers) for name in layers[0]}
    metrics["trace.untraced_run_s"] = run_s
    metrics["trace.self_total_s"] = statistics.median(
        sum(v for k, v in run.items() if k.endswith(".self_s")) for run in layers
    )
    metrics["trace.overhead_s"] = batch_figures(traced)[1] - run_s
    linear = workloads.device(workloads.OMEGA_0, 0.5 / workloads.EJ_OVER_OMEGA, 0.5)
    squeeze = workloads.device(workloads.OMEGA_0, 1e-5, 0.0)
    metrics.update(tracing.layer_sweep(linear, squeeze))
    result["metrics"] = metrics
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True, type=Path)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    opts = parser.parse_args(argv)

    cli = import_cli(opts.root)
    outdir = opts.root / "bench" / "out" / opts.workload
    batch = Batch(cli, opts.workload, opts.seed, outdir)
    if opts.setup_only:
        print("ready", flush=True)
        kernel = statistics.median(reference_s() for _ in range(SETUP_KERNEL_REPEATS))
        print(REFERENCE_S / kernel, flush=True)
        return 0
    result = measure(batch, opts.seconds, bool(opts.trace))
    result.update(
        correct=not batch.problems,
        attempted=result["batches"] * len(batch.ops),
        failed=batch.failed,
        problems=batch.problems[:20],
        env=environment(),
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
