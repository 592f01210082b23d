"""Smoke test of the benchmark at tiny sizes.

    python3 bench/smoke.py        (or: python3 -m pytest bench/smoke.py)

Checks that every workload runs cleanly in both modes and reports exactly
the metrics BENCHMARK.json names, with their units; that a corrupted op
output is counted as a failure; and that without mglab's sources the
benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _expected_units(trace: bool) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}


def test_every_workload_reports_every_metric():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for name in WORKLOADS:
        for trace in (False, True):
            result = run.measure(name, seed=7, seconds=0.3, trace=trace, tiny=True, setup_repeats=2)
            final = json.loads(run.report(name, 7, 0.3, trace, result)[-1])
            assert set(final) == {"correct", "attempted", "failed", "metrics"}
            assert final["correct"] and final["failed"] == 0 and final["attempted"] >= 1, (name, result)
            units = {m: v["unit"] for m, v in final["metrics"].items()}
            assert units == _expected_units(trace), (name, trace)
            if not trace:
                assert all(v["value"] > 0 for v in final["metrics"].values()), (name, final)


def test_layer_counts_match_the_paths_each_workload_takes():
    calls = {}
    for name in WORKLOADS:
        result = run.measure(name, seed=3, seconds=0.3, trace=True, tiny=True, setup_repeats=1)
        calls[name] = {m: v for m, (v, _) in result["layers"].items() if m.endswith(".calls")}
    assert calls["thinned-connect"]["generator.generate.calls"] == 0
    assert calls["thinned-connect"]["multigraph.is_connected.calls"] > 0
    for name in WORKLOADS:
        assert (calls[name]["hypergraph.uniform_hypergraph.calls"] > 0) == (name == "random-driver")
        assert calls[name]["cli.main.calls"] >= 1


def test_corrupted_output_counts_as_failure():
    work_dir = run.WORK / "smoke-corrupt"
    try:
        for name in WORKLOADS:
            wl = worker.set_up(name, 5, work_dir, tiny=True)
            result = worker.run_workload(wl, 5, 0.2, trace=False, corrupt=frozenset({0}))
            assert 1 <= result["failed"] <= result["attempted"], (name, result)
            assert result["first_error"].startswith("op 0: output check failed"), (name, result)
    finally:
        run.remove_work_dir(work_dir)


def test_without_sources_exits_nonzero_and_prints_no_result():
    bare = run.WORK / "smoke-bare"
    try:
        shutil.copytree(BENCH, bare / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, *SPEC["command"][1:], "--workload", WORKLOADS[0], "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        assert proc.returncode != 0
        assert proc.stdout == ""
    finally:
        run.remove_work_dir(bare)


if __name__ == "__main__":
    for test in [v for k, v in sorted(globals().items()) if k.startswith("test_")]:
        test()
        print(f"ok {test.__name__}")
