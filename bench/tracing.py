"""Per-layer tracing by timing wrappers installed from outside mglab.

Each wrapper replaces a public name where its caller looks it up, so no
source file changes: module attributes for functions called through their
module, the importing module's own binding for names imported with
``from ... import``, and class attributes for ``Multigraph`` methods.
A layer's self time is its inclusive time minus that of the wrapped calls
made inside it. Everything runs on one thread, so no layer ever waits on
another and no wait time is recorded.

``oracle.CONNECTED`` captured ``Multigraph.is_connected`` at import, so the
oracle's own connectivity checks are not seen as ``is_connected`` calls; on
``exact-oracle`` multigraph time shows up through ``from_pairs``.

Which end-to-end metric each per-layer metric should move, and where:

===============================================  ==============================================
per-layer metric                                 end-to-end metric it should move
===============================================  ==============================================
experiments.substream.{calls,self_s}             work_per_s on dense-isolated, random-driver
experiments.run_monte_carlo.self_s               work_per_s on thinned-connect (thinned rank
                                                 draw, unranking and the trial loop)
generator.generate.{calls,self_s}                work_per_s on dense-isolated, random-driver;
                                                 no calls on thinned-connect
hypergraph.uniform_hypergraph.{calls,self_s}     work_per_s on random-driver only
multigraph.from_pairs.{calls,self_s},            work_per_s on every Monte Carlo workload and
multigraph.pairs_built                           on exact-oracle
multigraph.is_connected.{calls,self_s,           work_per_s on thinned-connect
shortcut_frac}
multigraph.count_isolated.{calls,self_s}         work_per_s on dense-isolated, random-driver
oracle.exact_property_probability.self_s,        work_per_s and op_p50_s on exact-oracle
oracle.exact_expected_triangles.self_s,
oracle.states
analytics.expected_triangles_uniform3.self_s,    op_p50_s on exact-oracle
analytics.hypergeometric.calls
cli.main.self_s (parse, format, write)           op_p50_s on every workload
===============================================  ==============================================
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

from mglab import analytics, cli, experiments, generator, oracle
from mglab.multigraph import Multigraph

# (owner, attribute, layer name); one layer may be bound in several owners.
TARGETS = (
    (experiments, "substream", "experiments.substream"),
    (experiments, "run_monte_carlo", "experiments.run_monte_carlo"),
    (generator, "generate", "generator.generate"),
    (experiments, "uniform_hypergraph", "hypergraph.uniform_hypergraph"),
    (cli, "uniform_hypergraph", "hypergraph.uniform_hypergraph"),
    (Multigraph, "from_pairs", "multigraph.from_pairs"),
    (Multigraph, "is_connected", "multigraph.is_connected"),
    (Multigraph, "count_isolated", "multigraph.count_isolated"),
    (oracle, "exact_property_probability", "oracle.exact_property_probability"),
    (oracle, "exact_expected_triangles", "oracle.exact_expected_triangles"),
    (analytics, "expected_triangles_uniform3", "analytics.expected_triangles_uniform3"),
    (analytics, "hypergeometric", "analytics.hypergeometric"),
    (cli, "main", "cli.main"),
)

LAYERS = tuple(dict.fromkeys(layer for _, _, layer in TARGETS))


class Tracer:
    """Call counts and self times of the wrapped layers, plus two counters:
    pairs held by built multigraphs, and ``is_connected`` calls answered by
    the edge-count shortcut without a search."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.pairs_built = 0
        self.connect_shortcuts = 0
        # Time spent in wrapped children, one slot per open wrapped call.
        self._child_s: list[float] = []

    def _wrap(self, layer: str, fn):
        child_s = self._child_s

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            child_s.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self.self_s[layer] += elapsed - child_s.pop()
                self.calls[layer] += 1
                if child_s:
                    child_s[-1] += elapsed
            if layer == "multigraph.from_pairs":
                self.pairs_built += len(result.edge_mult)
            elif layer == "multigraph.is_connected":
                g = args[0]
                self.connect_shortcuts += g.n > 1 and len(g.edge_mult) < g.n - 1
            return result

        return timed

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        saved = []
        try:
            for owner, attr, layer in TARGETS:
                raw = owner.__dict__[attr]
                saved.append((owner, attr, raw))
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(self._wrap(layer, raw.__func__)))
                else:
                    setattr(owner, attr, self._wrap(layer, raw))
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def per_op(self, ops: int, states: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics averaged over ``ops`` traced ops, as
        name -> (value, unit)."""
        out: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = (self.calls[layer] / ops, "count/op")
            out[f"{layer}.self_s"] = (self.self_s[layer] / ops, "s/op")
        connected = self.calls["multigraph.is_connected"]
        out["multigraph.pairs_built"] = (self.pairs_built / ops, "count/op")
        out["multigraph.is_connected.shortcut_frac"] = (
            self.connect_shortcuts / connected if connected else 0.0, "ratio")
        out["oracle.states"] = (states / ops, "count/op")
        return out
