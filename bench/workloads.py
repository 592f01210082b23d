"""The four benchmark workloads: the CLI calls one op makes and the checks on them.

An op is a list of ``mglab.cli.main`` argv lists run in a fixed order. Its
``--seed`` is derived from the workload seed and the op index, so one
workload seed always yields the same sequence of inputs.

Every op's stdout is checked on its own: it must parse, and its values must
be consistent and possible. Monte Carlo workloads also get a pooled check at
the end of a run, against an exact reference computed in this file with the
standard library alone, so a bug in mglab's analytics cannot hide a bug in
its samplers.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from pathlib import Path

Z95 = 1.959963984540054

# Pooled Monte Carlo means must sit within this many standard errors of the
# exact value; the standard error comes from the spread of per-op means.
POOLED_SE_LIMIT = 4.0


class CheckError(Exception):
    """An op's output failed a correctness check."""


def op_seed(seed: int, index: int) -> int:
    """The ``--seed`` of op ``index`` under workload seed ``seed``."""
    digest = hashlib.sha256(f"{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def wilson(successes: int, trials: int) -> tuple[float, float]:
    """Wilson score 95% interval, written out independently of mglab."""
    phat = successes / trials
    z2 = Z95 * Z95
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2 * trials)) / denom
    half = Z95 * math.sqrt(phat * (1.0 - phat) / trials + z2 / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def _close(value: float, want: float, rel: float = 1e-9) -> bool:
    return abs(value - want) <= rel * abs(want)


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckError(what)


def _csv_rows(text: str, header: str, count: int) -> list[list[str]]:
    lines = text.splitlines()
    _require(len(lines) == count + 1, f"expected {count} CSV rows, got {len(lines) - 1}")
    _require(lines[0] == header, f"unexpected CSV header {lines[0]!r}")
    rows = [line.split(",") for line in lines[1:]]
    width = header.count(",") + 1
    _require(all(len(r) == width for r in rows), "CSV row of the wrong width")
    return rows


def _check_interval(successes: int, trials: int, estimate: float, lo: float, hi: float) -> None:
    _require(0 <= successes <= trials, f"successes {successes} outside 0..{trials}")
    _require(estimate == successes / trials, "estimate is not successes/trials")
    want_lo, want_hi = wilson(successes, trials)
    _require(abs(lo - want_lo) <= 1e-9 and abs(hi - want_hi) <= 1e-9, "Wilson interval mismatch")


class Workload:
    """One fixed workload; subclasses define its calls and checks."""

    # What ``work_per_s`` counts, and the calls whose time it is divided by.
    work_unit = "trials"
    work_calls: tuple[int, ...] = (0,)

    def write_inputs(self, work_dir: Path) -> None:
        """Write the input files the calls read; most workloads have none."""

    def calls(self, seed: int) -> list[list[str]]:
        raise NotImplementedError

    def check(self, outputs: list[str]) -> tuple[int, object]:
        """Check one op's stdouts; return (units of work done, summary)."""
        raise NotImplementedError

    def pooled_ok(self, summaries: list) -> bool:
        """Check the run's pooled summaries of the ops that passed."""
        return True


class IsolatedMonteCarlo(Workload):
    """``mc --property no-isolated`` at one p; pooled mean isolated count
    against its exact expectation."""

    HEADER = "p,successes,trials,estimate,ci_low,ci_high,mean_statistic"

    def __init__(self, model_args: list[str], n: int, p: float, trials: int, expected: float):
        self.model_args = model_args
        self.n = n
        self.p = p
        self.trials = trials
        self.expected = expected

    def calls(self, seed: int) -> list[list[str]]:
        return [
            ["mc", *self.model_args, "--n", str(self.n), "--k", "3", "--p", repr(self.p),
             "--property", "no-isolated", "--trials", str(self.trials), "--seed", str(seed)]
        ]

    def check(self, outputs: list[str]) -> tuple[int, float]:
        (row,) = _csv_rows(outputs[0], self.HEADER, 1)
        p, successes, trials = float(row[0]), int(row[1]), int(row[2])
        estimate, lo, hi, mean_isolated = (float(x) for x in row[3:])
        _require(p == self.p, f"row for p={p}, asked for {self.p}")
        _require(trials == self.trials, f"{trials} trials, asked for {self.trials}")
        _check_interval(successes, trials, estimate, lo, hi)
        # Every failed trial has at least one isolated vertex.
        _require(
            (trials - successes) / trials <= mean_isolated + 1e-12 and mean_isolated <= self.n,
            f"mean isolated count {mean_isolated} impossible with {successes}/{trials} successes",
        )
        return trials, mean_isolated

    def pooled_ok(self, summaries: list[float]) -> bool:
        if len(summaries) < 2:
            return False
        se = statistics.stdev(summaries) / math.sqrt(len(summaries))
        return abs(statistics.fmean(summaries) - self.expected) <= POOLED_SE_LIMIT * se


class ConnectivityScan(Workload):
    """``scan --property connected --scale logn2``; pooled cells must pass
    acceptance criterion 7's jump and monotonicity rules."""

    HEADER = "n,k,scale,c,p,property,trials,successes,estimate,ci_low,ci_high"
    N_LIST = (100, 200, 400)
    C_LIST = (0.2, 1.0, 3.0, 5.0)

    def __init__(self, trials: int):
        self.trials = trials

    def calls(self, seed: int) -> list[list[str]]:
        return [
            ["scan", "--property", "connected", "--scale", "logn2",
             "--c-list", ",".join(f"{c:g}" for c in self.C_LIST),
             "--n-list", ",".join(str(n) for n in self.N_LIST),
             "--k", "3", "--trials", str(self.trials), "--seed", str(seed)]
        ]

    def check(self, outputs: list[str]) -> tuple[int, list[int]]:
        cells = [(n, c) for n in self.N_LIST for c in self.C_LIST]
        rows = _csv_rows(outputs[0], self.HEADER, len(cells))
        successes = []
        for (n, c), row in zip(cells, rows):
            _require(
                (int(row[0]), int(row[1]), row[2], float(row[3]), row[5]) == (n, 3, "logn2", c, "connected"),
                f"unexpected scan cell {row[:6]}",
            )
            _require(_close(float(row[4]), c * math.log(n) / n**2, 1e-12), f"wrong p in cell {row[:5]}")
            trials, hits = int(row[6]), int(row[7])
            _require(trials == self.trials, f"{trials} trials, asked for {self.trials}")
            _check_interval(hits, trials, float(row[8]), float(row[9]), float(row[10]))
            successes.append(hits)
        return len(cells) * self.trials, successes

    def pooled_ok(self, summaries: list[list[int]]) -> bool:
        if not summaries:
            return False
        pooled = [sum(col) for col in zip(*summaries)]
        trials = len(summaries) * self.trials
        width = len(self.C_LIST)
        for row in range(len(self.N_LIST)):
            hits = pooled[row * width:(row + 1) * width]
            est = [h / trials for h in hits]
            if est[-1] - est[0] < 0.5:
                return False
            for h1, h2 in zip(hits, hits[1:]):
                if h2 < h1:
                    lo1, hi1 = wilson(h1, trials)
                    lo2, hi2 = wilson(h2, trials)
                    if not (lo1 <= hi2 and lo2 <= hi1):
                        return False
        return True


class ExactOracle(Workload):
    """Two enumeration-oracle calls and the ``triangles-u3`` exact law, each
    compared with its value at the commit that defined this benchmark."""

    # The 5-vertex, 6-triple driver used by tests/test_oracle.py.
    DRIVER = "n=5\n1 2 3\n1 4 5\n2 3 4\n2 4 5\n1 3 5\n3 4 5\n"
    CONNECTED_PROB = 0.16941015089163236
    CONNECTED_STATES = 46_656
    TRIANGLE_STATES = 1_180_980
    TRIANGLES_U3 = 514.107630256
    work_unit = "states"
    work_calls = (0, 1)

    def __init__(self):
        self.driver_path: Path | None = None
        # expected_triangles_binomial3(6, 0.5, 1): complete(6,3) drives every
        # triple; t = P(Bin(3, p/3) >= 1), per triple (1-p) t^3 + p t^2.
        t = 1.0 - (1.0 - 0.5 / 3.0) ** 3
        self.triangles = math.comb(6, 3) * (0.5 * t**3 + 0.5 * t**2)

    def write_inputs(self, work_dir: Path) -> None:
        self.driver_path = work_dir / "driver-n5.txt"
        self.driver_path.write_text(self.DRIVER)

    def calls(self, seed: int) -> list[list[str]]:
        return [
            ["oracle", "--quantity", "prob", "--predicate", "connected", "--model", "file",
             "--hypergraph-file", str(self.driver_path), "--p", "0.5", "--seed", str(seed)],
            ["oracle", "--quantity", "triangles", "--model", "complete-k", "--n", "6", "--k", "3",
             "--p", "0.5", "--seed", str(seed)],
            ["exact", "--quantity", "triangles-u3", "--n", "30", "--p", "0.3", "--m", "1000"],
        ]

    def check(self, outputs: list[str]) -> tuple[int, None]:
        prob, triangles = (json.loads(text) for text in outputs[:2])
        _require(prob["quantity"] == "prob" and triangles["quantity"] == "triangles", "wrong oracle quantity")
        _require(_close(prob["value"], self.CONNECTED_PROB), f"P(connected) = {prob['value']}")
        _require(prob["enumerated_states"] == self.CONNECTED_STATES, "connected state count changed")
        _require(abs(triangles["value"] - self.triangles) <= 1e-9, f"E[triangles] = {triangles['value']}")
        _require(triangles["enumerated_states"] == self.TRIANGLE_STATES, "triangle state count changed")
        _require(_close(float(outputs[2]), self.TRIANGLES_U3), f"triangles-u3 = {outputs[2].strip()}")
        return self.CONNECTED_STATES + self.TRIANGLE_STATES, None


def _expected_isolated_complete(n: int, k: int, p: float) -> float:
    return n * (1.0 - 2.0 * p / k) ** math.comb(n - 1, k - 1)


def _expected_isolated_uniform(n: int, k: int, p: float, m: int) -> float:
    # Hyperedges at a vertex ~ Hyp(C(n,k), C(n-1,k-1), m); each misses it
    # with probability 1 - 2p/k.
    total, at_vertex = math.comb(n, k), math.comb(n - 1, k - 1)
    miss = 1.0 - 2.0 * p / k
    return n * sum(
        math.comb(at_vertex, w) * math.comb(total - at_vertex, m - w) / math.comb(total, m) * miss**w
        for w in range(min(at_vertex, m) + 1)
    )


def build(name: str, tiny: bool = False) -> Workload:
    """The named workload; ``tiny`` shrinks per-op trial counts for smoke tests."""
    # Monte Carlo ops run about 0.2 s each, so the 10 slowest ops of a run
    # mark roughly p90; with 20 ms ops that is p99, which on a shared
    # machine mostly measures other processes.
    if name == "dense-isolated":
        return IsolatedMonteCarlo(["--model", "complete-k"], 12, 0.05, 20 if tiny else 10_000,
                                  _expected_isolated_complete(12, 3, 0.05))
    if name == "random-driver":
        return IsolatedMonteCarlo(["--model", "uniform-hk", "--m", "100"], 12, 0.1, 20 if tiny else 5000,
                                  _expected_isolated_uniform(12, 3, 0.1, 100))
    if name == "thinned-connect":
        return ConnectivityScan(5 if tiny else 50)
    if name == "exact-oracle":
        return ExactOracle()
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")


WORKLOADS = ("dense-isolated", "random-driver", "thinned-connect", "exact-oracle")
