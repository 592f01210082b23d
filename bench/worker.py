"""One benchmark workload in one single-threaded process.

Started by ``run.py``. It sets up (imports mglab, writes the workload's
input files and runs one untimed warm-up op, which fills mglab's lazy
tables), prints ``ready``, and with ``--setup-only`` stops there. Otherwise
it runs ops in a closed loop, each starting when the previous one returned,
for ``--seconds`` seconds, and prints one JSON line of results. With
``--trace 1`` the first half of that time runs untraced and the second half
traced, which gives both the per-layer numbers and the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import resource
import statistics
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from mglab import cli

import workloads
from tracing import Tracer

# An op's stdout enters the run's digest when the op is among the first few.
DIGEST_OPS = 3
# op_tail_s is the latency with this many slower ops beyond it.
TAIL_BEYOND = 10


@dataclass
class Phase:
    """Timings of the ops run in one stretch of the closed loop."""

    latencies: list[float] = field(default_factory=list)
    work: int = 0
    work_s: float = 0.0

    def work_per_s(self) -> float:
        return self.work / self.work_s if self.work_s > 0 else 0.0

    def p50(self) -> float:
        return statistics.median(self.latencies)


@dataclass
class Run:
    """Everything a run accumulates across its phases."""

    wl: workloads.Workload
    seed: int
    next_op: int = 0
    attempted: int = 0
    failed: int = 0
    first_error: str = ""
    summaries: list = field(default_factory=list)
    digest_parts: list[str] = field(default_factory=list)

    def fail(self, index: int, why: str) -> None:
        self.failed += 1
        if not self.first_error:
            self.first_error = f"op {index}: {why}"


def run_call(argv: list[str]) -> tuple[float, object, str]:
    """One in-process CLI call: (seconds, exit code or error, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        try:
            rc = cli.main(argv)
        except (Exception, SystemExit) as exc:  # argparse exits on bad argv
            rc = f"{type(exc).__name__}: {exc}"
        elapsed = perf_counter() - start
    if rc != 0 and err.getvalue():
        rc = f"{rc}: {err.getvalue().strip()}"
    return elapsed, rc, out.getvalue()


def run_calls(run: Run, index: int) -> tuple[float, float, list[str], str]:
    """Run op ``index``'s calls in order, stopping at the first failure:
    (latency, work-call time, stdouts, error or "")."""
    latency = work_s = 0.0
    outputs = []
    for position, argv in enumerate(run.wl.calls(workloads.op_seed(run.seed, index))):
        elapsed, rc, stdout = run_call(argv)
        latency += elapsed
        if position in run.wl.work_calls:
            work_s += elapsed
        outputs.append(stdout)
        if rc != 0:
            return latency, work_s, outputs, f"{argv[0]} exited with {rc}"
    return latency, work_s, outputs, ""


def run_op(run: Run, phase: Phase, corrupt: bool = False) -> None:
    """Run, time and check the next op."""
    index = run.next_op
    latency, work_s, outputs, error = run_calls(run, index)
    run.next_op += 1
    run.attempted += 1
    if index < DIGEST_OPS:
        run.digest_parts.extend(outputs)
    if corrupt:
        outputs = [text[: len(text) // 2] for text in outputs]
    work = 0
    if not error:
        try:
            work, summary = run.wl.check(outputs)
            run.summaries.append(summary)
        except (workloads.CheckError, ValueError, KeyError, IndexError, TypeError) as exc:
            error = f"output check failed: {exc}"
    if error:
        run.fail(index, error)
    phase.latencies.append(latency)
    phase.work += work
    phase.work_s += work_s


def measure(run: Run, seconds: float, corrupt: frozenset[int] = frozenset()) -> Phase:
    """Closed loop for ``seconds``; ops whose index is in ``corrupt`` have
    their output mangled before the check (smoke tests only)."""
    phase = Phase()
    start = perf_counter()
    while perf_counter() - start < seconds:
        run_op(run, phase, corrupt=run.next_op in corrupt)
    return phase


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(latency, percentile, samples beyond) at the highest percentile that
    keeps TAIL_BEYOND samples beyond it; the maximum if there are too few."""
    xs = sorted(latencies)
    if len(xs) <= TAIL_BEYOND:
        return xs[-1], 100.0, 0
    rank = len(xs) - TAIL_BEYOND
    return xs[rank - 1], 100.0 * rank / len(xs), TAIL_BEYOND


def finish(run: Run, phases: list[Phase]) -> dict:
    """Apply the pooled check and summarise the run as a JSON-able dict."""
    if run.failed < run.attempted and not run.wl.pooled_ok(run.summaries):
        run.first_error = run.first_error or "pooled check failed; every op counts as failed"
        run.failed = run.attempted
    untraced = phases[0]
    latency, percentile, beyond = tail(untraced.latencies)
    return {
        "attempted": run.attempted,
        "failed": run.failed,
        "first_error": run.first_error,
        "stdout_sha256": hashlib.sha256("".join(run.digest_parts).encode()).hexdigest(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": len(untraced.latencies),
        "work_unit": run.wl.work_unit,
        "work_per_s": untraced.work_per_s(),
        "op_p50_s": untraced.p50(),
        "op_tail_s": latency,
        "tail_percentile": percentile,
        "tail_beyond": beyond,
    }


def run_workload(
    wl: workloads.Workload, seed: int, seconds: float, trace: bool,
    corrupt: frozenset[int] = frozenset(),
) -> dict:
    """Measure a set-up workload; see the module docstring."""
    run = Run(wl, seed)
    if not trace:
        return finish(run, [measure(run, seconds, corrupt)])
    untraced = measure(run, seconds / 2, corrupt)
    tracer = Tracer()
    with tracer.installed():
        traced = measure(run, seconds / 2, corrupt)
    result = finish(run, [untraced, traced])
    states = traced.work if wl.work_unit == "states" else 0
    layers = tracer.per_op(max(1, len(traced.latencies)), states)
    # Tracing overhead: share of untraced throughput lost, share of
    # untraced median latency added.
    rate = untraced.work_per_s()
    layers["trace.work_per_s_gap"] = (1.0 - traced.work_per_s() / rate if rate > 0 else 0.0, "ratio")
    layers["trace.op_p50_gap"] = (traced.p50() / untraced.p50() - 1.0, "ratio")
    result["layers"] = layers
    result["traced_ops"] = len(traced.latencies)
    return result


def set_up(name: str, seed: int, work_dir: Path, tiny: bool) -> workloads.Workload:
    """Write inputs and run the untimed warm-up op."""
    wl = workloads.build(name, tiny)
    work_dir.mkdir(parents=True, exist_ok=True)
    wl.write_inputs(work_dir)
    error = run_calls(Run(wl, seed), -1)[3]
    if error:
        raise RuntimeError(f"warm-up op failed: {error}")
    return wl


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    wl = set_up(args.workload, args.seed, args.work_dir, args.tiny)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    print(json.dumps(run_workload(wl, args.seed, args.seconds, bool(args.trace))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
