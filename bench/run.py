"""Benchmark of squidcat's two oracles, the cat Wigner path and the squeezed branches.

Run from the root of a checkout:

    python3 bench/run.py --workload oracle_linear --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30
    python3 bench/run.py --compare before.jsonl after.jsonl

Each workload runs ``squidcat.cli.run`` on configs generated from the seed,
in a fresh process whose BLAS and OpenMP pools are pinned to one thread
before numpy loads. ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer ones; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--workload all`` runs every workload untraced and traced. ``--results``
appends each result to a JSON-lines file; ``--compare`` reads two such
files and prints, per workload and end-to-end metric, both medians, their
quartiles and whether the change exceeds the metric's bound.

This script imports nothing beyond the standard library, so the pin set
here is in force when the worker loads numpy.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("oracle_linear", "cat_wigner", "oracle_squeeze")
# Fresh interpreters per run, half before the worker and half after it, so
# that one slow spell of the shared host does not cover them all; setup_s is
# the median of their times scaled to the reference host speed.
SETUP_STARTS = 8
WORKER_TIMEOUT_S = 150.0
POOL_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def worker_env(blas_threads: int) -> dict:
    env = dict(os.environ)
    for name in POOL_VARIABLES:
        env[name] = str(blas_threads)
    env.pop("PYTHONPATH", None)  # the worker imports squidcat from ROOT/src only
    return env


def worker_command(workload: str, seed: int, *extra: str) -> list[str]:
    return [
        sys.executable,
        str(HERE / "worker.py"),
        "--root", str(ROOT),
        "--workload", workload,
        "--seed", str(seed),
        *extra,
    ]


def setup_times(workload: str, seed: int, env: dict, starts: int) -> list[tuple[float, float]]:
    """(wall time from spawning a fresh interpreter to its first operation
    being ready, the factor that scales it to the reference host speed) per start."""
    times = []
    for _ in range(starts):
        start = time.perf_counter()
        proc = subprocess.Popen(
            worker_command(workload, seed, "--setup-only"),
            env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            factor, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise BenchError(f"set-up of {workload} failed (exit {proc.returncode})")
        times.append((elapsed, float(factor)))
    return times


def run_worker(workload: str, seed: int, seconds: int, trace: int, env: dict) -> dict:
    command = worker_command(workload, seed, "--seconds", str(seconds), "--trace", str(trace))
    try:
        proc = subprocess.run(
            command, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=WORKER_TIMEOUT_S, check=False,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} did not finish within {WORKER_TIMEOUT_S:g} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} worker failed (exit {proc.returncode})")
    return json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: int, trace: int, blas_threads: int) -> dict:
    """One run of one workload: its result line and its environment record."""
    env = worker_env(blas_threads)
    starts = [] if trace else setup_times(workload, seed, env, SETUP_STARTS // 2)
    raw = run_worker(workload, seed, seconds, trace, env)
    values = dict(raw["metrics"])
    wall = dict(raw.get("wall", {}))
    if not trace:
        starts += setup_times(workload, seed, env, SETUP_STARTS - len(starts))
        values["setup_s"] = statistics.median(t * factor for t, factor in starts)
        wall["setup_s"] = statistics.median(t for t, _ in starts)
    listed = spec()["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    result = {
        "correct": raw["correct"],
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }
    return {
        "result": result,
        "wall": wall,
        "env": raw["env"],
        "problems": raw["problems"],
        "op_times": raw["op_times"],
        "ref_times": raw["ref_times"],
        "setup_times": starts,
    }


def report(workload: str, record: dict) -> None:
    result = record["result"]
    print(f"env {json.dumps(record['env'], sort_keys=True)}")
    for problem in record["problems"]:
        print(f"{workload} PROBLEM {problem}")
    for name, metric in result["metrics"].items():
        print(f"{workload} {name} {metric['value']!r} {metric['unit']}")
    for name, value in record["wall"].items():
        print(f"{workload} wall.{name} {value!r} s")
    print(
        f"{workload} attempted {result['attempted']} failed {result['failed']} "
        f"correct {str(result['correct']).lower()}"
    )


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(before_path: Path, after_path: Path) -> int:
    """Print both medians, quartiles and the verdict against each end-to-end bound."""

    def load(path: Path) -> dict:
        runs: dict = {}
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                record = json.loads(line)
                if record["trace"] == 0:
                    runs.setdefault(record["workload"], []).append(record["result"])
        return runs

    before, after = load(before_path), load(after_path)
    worse = 0
    print("workload metric unit | before q1 median q3 | after q1 median q3 | change bound verdict")
    for workload in WORKLOADS:
        if workload not in before or workload not in after:
            continue
        for metric in spec()["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            old = [r["metrics"][name]["value"] for r in before[workload]]
            new = [r["metrics"][name]["value"] for r in after[workload]]
            a, b = quartiles(old), quartiles(new)
            change = (b[1] - a[1]) / a[1]
            lower = metric["better"] == "lower"
            spread = max((q[2] - q[0]) / q[1] for q in (a, b))
            better_in_every_run = max(new) < min(old) if lower else min(new) > max(old)
            if (change if lower else -change) > bound:
                verdict = "WORSE"
                worse += 1
            elif spread > bound and not better_in_every_run:
                verdict = "unresolved (spread wider than the bound)"
            else:
                verdict = "within"
            print(
                f"{workload} {name} {metric['unit']} | {a[0]:.6g} {a[1]:.6g} {a[2]:.6g} | "
                f"{b[0]:.6g} {b[1]:.6g} {b[2]:.6g} | {change:+.2%} {bound:g} {verdict}"
            )
        shares = [sorted({r["failed"] / r["attempted"] for r in runs[workload]}) for runs in (before, after)]
        print(f"{workload} failed share | before {shares[0]} | after {shares[1]}")
    return 1 if worse else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, help="run length (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--blas-threads", type=int, default=1,
        help="BLAS/OpenMP pool size for the worker (default 1; 2 reproduces the library default here)",
    )
    parser.add_argument("--results", type=Path, help="append each result to this JSON-lines file")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("BEFORE", "AFTER"))
    opts = parser.parse_args(argv)

    if opts.compare:
        return compare(*opts.compare)
    if not (ROOT / "src" / "squidcat" / "__init__.py").is_file():
        print(f"error: no squidcat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    opts.seconds = opts.seconds or spec()["run_seconds"]
    if opts.blas_threads < 1 or opts.seconds < 1:
        parser.error("--blas-threads and --seconds must be at least 1")

    plan = [(opts.workload, opts.trace)]
    if opts.workload == "all":
        plan = [(workload, trace) for workload in WORKLOADS for trace in (0, 1)]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for workload, trace in plan:
            record = run_workload(workload, opts.seed, opts.seconds, trace, opts.blas_threads)
            report(workload, record)
            if opts.results:
                opts.results.parent.mkdir(parents=True, exist_ok=True)
                entry = {"workload": workload, "seed": opts.seed, "trace": trace,
                         "seconds": opts.seconds, "blas_threads": opts.blas_threads, **record}
                with open(opts.results, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(entry) + "\n")
            result = record["result"]
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            prefix = "" if len(plan) == 1 else f"{workload}."
            combined["metrics"].update({prefix + k: v for k, v in result["metrics"].items()})
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
