"""mglab benchmark: one workload, measured end to end or traced per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; mglab is imported from ``src/``, so
nothing needs installing. The workload runs in its own single-threaded
worker process (``worker.py``) that drives ``mglab.cli.main`` in-process.

Set-up is everything before the first timed op: interpreter start,
``import mglab``, writing input files and one untimed warm-up op. It is
repeated SETUP_REPEATS times, each in a fresh process, and ``setup_s`` is
the median; the last of those processes then measures for S seconds.

Output: a header of ``#`` lines (commit, versions, CPU count, seed, a
digest of the first ops' stdout, tail percentile, failures), one line per
metric with its unit, and as the last line one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0``
reports the end-to-end metrics of BENCHMARK.json, ``--trace 1`` its
per-layer metrics plus the tracing overhead. Exit code 0 means a result was
printed (read ``correct`` for its checks); anything else means none was.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 5
# Every run must end well inside the three minutes a run is allowed.
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # One thread: no BLAS pool may compete with the measured loop.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _start(argv: list[str], deadline: float) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait until ``deadline`` for its ``ready``:
    (process, set-up seconds)."""
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), *argv],
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, env=_worker_env(), text=True,
    )
    readable, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - perf_counter()))
    line = proc.stdout.readline() if readable else ""
    elapsed = perf_counter() - start
    if line != "ready\n":
        _stop(proc)
        raise BenchError(f"worker set-up failed (exit code {proc.returncode})")
    return proc, elapsed


def _wait(proc: subprocess.Popen, deadline: float) -> str:
    """Wait for a worker to exit by ``deadline``; return its remaining stdout."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        _stop(proc)
        raise BenchError("worker ran past the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker failed (exit code {proc.returncode})")
    return out


def _stop(proc: subprocess.Popen) -> None:
    proc.kill()
    proc.communicate()


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def remove_work_dir(work_dir: Path) -> None:
    """Delete a worker's scratch directory, and WORK once it is empty."""
    shutil.rmtree(work_dir, ignore_errors=True)
    if WORK.is_dir() and not any(WORK.iterdir()):
        WORK.rmdir()


def measure(
    workload: str, seed: int, seconds: float, trace: bool,
    tiny: bool = False, setup_repeats: int = SETUP_REPEATS,
) -> dict:
    """Set up ``workload`` ``setup_repeats`` times and measure it once;
    returns the worker's result with ``setup_s`` and the set-up samples
    added. ``tiny`` shrinks the workload for smoke tests."""
    if not (SRC / "mglab" / "__init__.py").is_file():
        raise BenchError(f"no mglab sources under {SRC}; run from a source checkout")
    deadline = perf_counter() + DEADLINE_S
    work_dir = WORK / str(os.getpid())
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
            "--trace", str(int(trace)), "--work-dir", str(work_dir)] + (["--tiny"] if tiny else [])
    setups = []
    try:
        for repeat in range(setup_repeats):
            last = repeat == setup_repeats - 1
            proc, elapsed = _start(argv if last else argv + ["--setup-only"], deadline)
            setups.append(elapsed)
            out = _wait(proc, deadline)
    finally:
        remove_work_dir(work_dir)
    if not out.strip():
        raise BenchError("worker printed no result")
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = statistics.median(setups)
    result["setup_samples"] = setups
    return result


def metrics_of(result: dict, trace: bool) -> dict[str, dict]:
    """The metrics the final JSON line carries, as name -> {value, unit}."""
    if trace:
        return {name: {"value": v, "unit": unit} for name, (v, unit) in result["layers"].items()}
    return {
        "work_per_s": {"value": result["work_per_s"], "unit": "1/s"},
        "op_p50_s": {"value": result["op_p50_s"], "unit": "s"},
        "op_tail_s": {"value": result["op_tail_s"], "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        "setup_s": {"value": result["setup_s"], "unit": "s"},
    }


def report(workload: str, seed: int, seconds: float, trace: bool, result: dict) -> list[str]:
    """Header lines, one line per metric, and the final JSON line."""
    attempted, failed = result["attempted"], result["failed"]
    lines = [
        f"# mglab benchmark: workload={workload} seed={seed} seconds={seconds:g} trace={int(trace)}",
        f"# commit={_git_commit()} python={result['python']} numpy={result['numpy']} nproc={os.cpu_count()}",
        "# loop: closed, one client, single-threaded worker; no layer waits on another, so no wait time",
        f"# stdout_sha256 of the first ops (information, not a gate): {result['stdout_sha256']}",
        f"# work_per_s counts {result['work_unit']}; untraced ops timed: {result['ops']}",
        f"# op_tail_s is p{result['tail_percentile']:.2f} of {result['ops']} ops, "
        f"{result['tail_beyond']} beyond it",
        "# setup_s samples: " + " ".join(f"{s:.4f}" for s in result["setup_samples"]),
        f"# fail_frac = {failed}/{attempted} = {failed / attempted:.6g}",
    ]
    if result["first_error"]:
        lines.append(f"# first failure: {result['first_error']}")
    if trace:
        lines.append(f"# traced ops: {result['traced_ops']}; per-layer values are per traced op")
    metrics = metrics_of(result, trace)
    lines += [f"{name} {m['value']!r} {m['unit']}" for name, m in metrics.items()]
    lines.append(json.dumps(
        {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(report(args.workload, args.seed, args.seconds, bool(args.trace), result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
