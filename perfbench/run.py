"""dualclust benchmark: seeded training runs through ``dualclust run``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is loaded from ``src/``.
Workloads are defined in ``workloads.py``; each is a closed loop with one
client: one training run at a time, each in a fresh process, on inputs
made from the seed, with BLAS pinned to BLAS_THREADS threads.

With ``--trace 0`` it times set-up in fresh processes, then repeats the
run until S seconds are up, and reports the end-to-end metrics. With
``--trace 1`` it alternates untraced and traced runs and reports the
per-layer metrics of the traced ones (see ``spans.py``).

Every run is checked: exit code 0, final ACC at or above the workload's
floor, every filled ``report.csv`` cell finite, and all artifacts
byte-identical to the first run's (same seed; traced or not). The last
line of output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is 1 when any check failed.
Details go to ``.perfbench_work/<workload>-seed<N>/result.json``.
"""

from __future__ import annotations

import os

# Pinned before numpy loads, here and (inherited) in every worker, and
# the same at every commit; 1 is at most nproc on any machine.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import hashlib
import json
import math
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import numpy as np

import spans
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# Fresh-process set-up measurements per run.
SETUP_PROBES = 5
# Artifacts compared byte for byte between runs of one seed.
ARTIFACTS = ("config.resolved.json", "report.csv", "assignments.csv", "checkpoint.bin", "metrics.json")
WORKER_TIMEOUT_S = 150

END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "pairs_per_s": "pairs/s",
    "peak_rss_mb": "MB",
    "final_acc": "1",
    "final_nmi": "1",
}


def environment(seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    git_sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
        git_sha = done.stdout.strip() or None
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "openblas": f"{blas.get('name')} {blas.get('version')}",
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def call_worker(*args: str) -> tuple[dict | None, float, str | None]:
    """Run worker.py in a fresh process: (result, wall seconds, error)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            capture_output=True,
            text=True,
            env=env,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None, time.perf_counter() - start, f"timed out after {WORKER_TIMEOUT_S} s"
    wall = time.perf_counter() - start
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return None, wall, f"worker exit {done.returncode}: {done.stderr.strip()[-500:]}"
    result = json.loads(lines[-1])
    if result.get("exit_code", 0) != 0:
        return None, wall, f"dualclust run exit {result['exit_code']}: {done.stderr.strip()[-500:]}"
    return result, wall, None


def check_artifacts(out: Path, workload, reference: dict | None) -> tuple[dict, dict, str | None]:
    """Read and check one run's artifacts: (bytes by name, metrics, error)."""
    missing = [name for name in ARTIFACTS if not (out / name).is_file()]
    if missing:
        return {}, {}, f"missing artifacts: {missing}"
    blobs = {name: (out / name).read_bytes() for name in ARTIFACTS}
    try:
        metrics = json.loads(blobs["metrics.json"])
        rows = blobs["report.csv"].decode().splitlines()
        finite = [all(math.isfinite(float(c)) for c in row.split(",") if c) for row in rows[1:]]
    except ValueError as exc:
        return blobs, {}, f"unreadable metrics.json or report.csv: {exc}"
    if not metrics.get("acc") or metrics["acc"] < workload.acc_floor:
        return blobs, metrics, f"final acc {metrics.get('acc')} below floor {workload.acc_floor}"
    if len(rows) != workload.epochs + 1:
        return blobs, metrics, f"report.csv has {len(rows) - 1} epochs, expected {workload.epochs}"
    if not all(finite):
        return blobs, metrics, f"non-finite report.csv cell in epoch {finite.index(False)}"
    if reference is not None:
        differ = [name for name in ARTIFACTS if blobs[name] != reference[name]]
        if differ:
            return blobs, metrics, f"artifacts differ from the first run of this seed: {differ}"
    return blobs, metrics, None


def tail_percentile(values: list) -> tuple[int, float] | None:
    """Highest nearest-rank percentile above the median with at least
    ten samples beyond it, as (percentile, value); None if too few."""
    n = len(values)
    rank = n - 10  # 1-based rank with ten samples above it
    if rank <= (n + 1) / 2:
        return None
    return math.floor(100 * rank / n), sorted(values)[rank - 1]


def measure(workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    config_path = work / "config.json"
    config_path.write_text(json.dumps(workload.config(seed, work), indent=2))
    out = work / "out"
    spans_path = work / "spans.json"
    deadline = time.perf_counter() + seconds
    errors, setup_s, runs, layer_runs = [], [], [], []
    attempted = 0

    # Traced mode starts untraced (the reference artifacts), then two
    # traced runs, then alternates. Untraced mode puts one set-up probe
    # before each of the first SETUP_PROBES runs, so that both metrics
    # sample the same stretch of machine time.
    reference = None
    walls = []
    while True:
        index = len(runs)
        traced = trace and (index in (1, 2) or (index > 2 and index % 2 == 0))
        minimum = 3 if trace else 2
        if index >= minimum and time.perf_counter() + statistics.median(walls) > deadline:
            break
        if not trace and index < SETUP_PROBES:
            attempted += 1
            result, _, error = call_worker("setup", str(config_path))
            if error:
                errors.append(f"setup probe {index}: {error}")
            else:
                setup_s.append(result["setup_s"])
        attempted += 1
        shutil.rmtree(out, ignore_errors=True)
        args = ["run", str(config_path), str(out)] + ([str(spans_path)] if traced else [])
        result, wall, error = call_worker(*args)
        walls.append(wall)
        record = {"traced": traced, "wall_s": wall}
        if error is None:
            record.update(result)
            blobs, metrics, error = check_artifacts(out, workload, reference)
            record["acc"], record["nmi"] = metrics.get("acc"), metrics.get("nmi")
            if reference is None and blobs:
                reference = blobs
        if error is None and traced:
            try:
                trace_data = json.loads(spans_path.read_text())
                layer_runs.append(
                    spans.layer_metrics(
                        trace_data, workload.epochs, workload.steps_per_run, workload.batch_size
                    )
                )
            except spans.TraceError as exc:
                error = f"trace check: {exc}"
        if error is not None:
            record["error"] = error
            errors.append(f"run {index}: {error}")
        runs.append(record)
    shutil.rmtree(out, ignore_errors=True)

    ok = [r for r in runs if "error" not in r]
    plain = [r for r in ok if not r["traced"]]
    metrics = {}
    if trace:
        if layer_runs:
            try:
                metrics = spans.median_metrics(layer_runs)
            except spans.TraceError as exc:
                errors.append(f"trace check: {exc}")
                attempted += 1  # the cross-run comparison is its own check
        traced_s = [r["run_s"] for r in ok if r["traced"]]
        if metrics and plain:
            untraced = statistics.median(r["run_s"] for r in plain)
            metrics["trace.overhead_pct"] = (statistics.median(traced_s) / untraced - 1.0) * 100.0
        units = spans.LAYER_METRICS
    else:
        if plain and setup_s:
            metrics = {
                "run_s": statistics.median(r["run_s"] for r in plain),
                "setup_s": statistics.median(setup_s),
                "pairs_per_s": statistics.median(workload.pairs_per_run / r["run_s"] for r in plain),
                "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
                "final_acc": statistics.median(r["acc"] for r in plain),
                "final_nmi": statistics.median(r["nmi"] for r in plain),
            }
        units = END_TO_END
    failed = len(errors)
    return {
        "correct": failed == 0 and set(metrics) == set(units),
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "units": units,
        "metrics": metrics,
        "samples": {"run_s": [r["run_s"] for r in plain], "setup_s": setup_s},
        "runs": runs,
    }


def report(name: str, seed: int, trace: bool, result: dict, env: dict) -> None:
    print(f"perfbench {name} seed={seed} trace={int(trace)} runs={len(result['runs'])}")
    print("env " + json.dumps(env, sort_keys=True))
    for error in result["errors"]:
        print(f"FAILED {error}")
    for metric, unit in result["units"].items():
        value = result["metrics"].get(metric)
        line = f"{metric:<40} {value!r:>24} {unit}"
        samples = result["samples"].get(metric)
        if samples:
            tail = tail_percentile(samples)
            line += f"  median of n={len(samples)}"
            line += f", p{tail[0]} {tail[1]!r}" if tail else ", no percentile above it has 10 samples beyond"
        print(line)
    rate = result["failed"] / result["attempted"]
    print(f"{'fail_rate':<40} {rate!r:>24} 1  ({result['failed']} of {result['attempted']} attempted)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "dualclust" / "cli.py").is_file():
        print(f"perfbench: no dualclust package under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    work = WORK / f"{workload.name}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = environment(args.seed)
    result = measure(workload, args.seed, args.seconds, bool(args.trace), work)
    report(workload.name, args.seed, bool(args.trace), result, env)
    (work / "result.json").write_text(json.dumps({"environment": env, **result}, indent=2))
    line = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": result["metrics"][name], "unit": unit}
            for name, unit in result["units"].items()
            if name in result["metrics"]
        },
    }
    print(json.dumps(line))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
