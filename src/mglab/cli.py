"""Command-line front end.

Subcommands: generate (sample one multigraph), exact (closed-form
quantities), oracle (brute-force enumeration), mc (Monte Carlo sweep, CSV),
scan (threshold scan, CSV), couple (coupling audit). Exit codes: 0 success,
1 assertion/acceptance failure, 2 invalid configuration, 3 enumeration
budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import analytics, experiments, oracle
from .hypergraph import binomial_edge_count, check_probability, complete_uniform, uniform_hypergraph
from .multigraph import PROPERTIES, write_multigraph

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_INVALID = 2
EXIT_BUDGET = 3


def _write_text(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _cmd_generate(args) -> int:
    experiments.check_model(args)
    check_probability(args.p, "p")
    g = experiments._TrialSampler(args).sample(args.p, experiments.substream(args.seed))
    import io

    buf = io.StringIO()
    write_multigraph(g, buf)
    _write_text(buf.getvalue(), args.out)
    return EXIT_OK


def _format_value(value) -> str:
    if isinstance(value, (tuple, list, np.ndarray)):
        return " ".join(f"{float(x):.12g}" for x in value)
    return f"{float(value):.12g}"


def _cmd_exact(args) -> int:
    q = args.q if args.q is not None else 1.0
    name = args.quantity
    params: dict = {"n": args.n, "p": args.p}
    if name == "degree-law":
        params["k"] = args.k
        if args.m is not None:
            params["m"] = args.m
            value = analytics.degree_law_uniform_model(args.n, args.k, args.p, args.m).pmf
        else:
            params["q"] = q
            value = analytics.degree_law_binomial_model(args.n, args.k, args.p, q).pmf
    elif name == "pair-law":
        params["k"] = args.k
        i = args.i if args.i is not None else 1
        j = args.j if args.j is not None else 2
        params.update(i=i, j=j)
        value = analytics.pair_law_complete(args.n, args.k, i, j, args.p).pmf
    elif name == "expected-isolated":
        params["k"] = args.k
        value = analytics.expected_isolated(args.n, args.k, args.p)
    elif name == "empty-prob":
        edges = args.edge_count if args.edge_count is not None else math.comb(args.n, args.k)
        params["edge_count"] = edges
        value = analytics.empty_probability(edges, args.p)
    elif name == "triangles-b3":
        params["q"] = q
        value = analytics.expected_triangles_binomial3(args.n, args.p, q)
    elif name == "triangles-u3":
        if args.m is None:
            raise ValueError("triangles-u3 needs --m")
        params["m"] = args.m
        value = analytics.expected_triangles_uniform3(args.n, args.p, args.m)
    elif name == "triangles-c4":
        value = analytics.expected_triangles_complete4(args.n, args.p)
    elif name == "chain-row":
        value = analytics.triangle_chain_row(args.n, args.p)
    else:
        raise ValueError(f"unknown quantity {name!r}")

    if args.json:
        payload = value.tolist() if isinstance(value, np.ndarray) else value
        if isinstance(payload, tuple):
            payload = list(payload)
        print(json.dumps({"quantity": name, "params": params, "value": payload}))
    else:
        print(_format_value(value))
    return EXIT_OK


def _cmd_oracle(args) -> int:
    rng = experiments.substream(args.seed)
    experiments.check_model(args)
    if args.quantity == "pair-dist" and (args.i is None or args.j is None):
        raise ValueError("pair-dist needs --i and --j")
    m = args.m if args.model == "uniform-hk" else None
    if args.model == "binomial-hk":
        m = binomial_edge_count(args.n, args.k, args.q, rng)
    if args.model != "file":
        if args.quantity == "prob":
            oracle.predicate_by_name(args.predicate, args.i, args.j, args.n)
        oracle.check_uniform_budget(
            args.quantity, args.n, args.k, m, args.p, args.budget, (args.i, args.j)
        )
    if m is None:
        h = experiments.build_hypergraph(args, rng)
    else:
        h = uniform_hypergraph(args.n, args.k, m, rng)
    params = {"n": h.n, "p": args.p, "edges": len(h.edges)}
    if args.quantity == "prob":
        pred = oracle.predicate_by_name(args.predicate, args.i, args.j, h.n)
        params["predicate"] = pred.name
        value = oracle.exact_property_probability(h, args.p, pred, budget=args.budget)
        states = oracle.enumeration_states(h, args.p)
    elif args.quantity == "triangles":
        value = oracle.exact_expected_triangles(h, args.p, budget=args.budget)
        states = oracle.triangle_enumeration_states(h, args.p)
    elif args.quantity == "pair-dist":
        params.update(i=args.i, j=args.j)
        dist = oracle.exact_edge_count_distribution(h, args.p, (args.i, args.j), budget=args.budget)
        value = dist.pmf.tolist()
        states = math.prod(
            math.comb(len(e), 2) for e in h.edges if args.i in e and args.j in e
        )
    else:
        raise ValueError(f"unknown quantity {args.quantity!r}")
    print(
        json.dumps(
            {"quantity": args.quantity, "params": params, "value": value, "enumerated_states": states}
        )
    )
    return EXIT_OK


def _parse_p_spec(args) -> float | list[float] | dict:
    if args.scale is not None:
        if args.c_list is None:
            raise ValueError("--scale needs --c-list")
        return {"scale": args.scale, "c": [float(x) for x in args.c_list.split(",")]}
    if args.p is None:
        raise ValueError("mc needs --p or --scale/--c-list")
    values = [float(x) for x in str(args.p).split(",")]
    return values[0] if len(values) == 1 else values


def _cmd_mc(args) -> int:
    if args.config:
        with open(args.config) as f:
            cfg = experiments.ExperimentConfig.from_json(f.read())
    else:
        required = {"model": args.model, "n": args.n, "property": args.property}
        missing = [k for k, v in required.items() if v is None]
        if missing:
            raise ValueError(f"mc needs --config or inline flags; missing {missing}")
        cfg = experiments.ExperimentConfig(
            model=args.model,
            n=args.n,
            k=args.k,
            p=_parse_p_spec(args),
            property=args.property,
            trials=args.trials,
            seed=args.seed,
            q=args.q,
            m=args.m,
            hypergraph_file=args.hypergraph_file,
            i=args.i,
            j=args.j,
        )
    rows = experiments.run_monte_carlo(cfg)
    _write_text(experiments.summaries_to_csv(rows), args.out)
    return EXIT_OK


def _cmd_scan(args) -> int:
    csv_text = experiments.threshold_scan(
        property_name=args.property,
        scale=args.scale,
        c_list=[float(x) for x in args.c_list.split(",")],
        n_list=[int(x) for x in args.n_list.split(",")],
        k=args.k,
        trials=args.trials,
        seed=args.seed,
        model=args.model,
        q=args.q,
        m=args.m,
    )
    _write_text(csv_text, args.out)
    return EXIT_OK


def _cmd_couple(args) -> int:
    h = complete_uniform(args.n, args.k)
    report = experiments.coupling_check(h, args.p1, args.p2, args.trials, args.seed)
    print(report)
    return EXIT_OK if report.ok else EXIT_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mglab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model_flags(sp, default_model="complete-k"):
        sp.add_argument("--model", default=default_model, choices=experiments.MODELS)
        sp.add_argument("--n", type=int)
        sp.add_argument("--k", type=int, default=3)
        sp.add_argument("--q", type=float)
        sp.add_argument("--m", type=int)
        sp.add_argument("--hypergraph-file")
        sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("generate", help="sample one multigraph and print its serialization")
    add_model_flags(sp)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--out")
    sp.set_defaults(fn=_cmd_generate)

    sp = sub.add_parser("exact", help="closed-form quantities")
    sp.add_argument(
        "--quantity",
        required=True,
        choices=[
            "degree-law",
            "pair-law",
            "expected-isolated",
            "empty-prob",
            "triangles-b3",
            "triangles-u3",
            "triangles-c4",
            "chain-row",
        ],
    )
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k", type=int, default=3)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--q", type=float)
    sp.add_argument("--m", type=int)
    sp.add_argument("--i", type=int)
    sp.add_argument("--j", type=int)
    sp.add_argument("--edge-count", type=int)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=_cmd_exact)

    sp = sub.add_parser("oracle", help="exact enumeration quantities")
    sp.add_argument("--quantity", required=True, choices=["prob", "triangles", "pair-dist"])
    sp.add_argument("--predicate", default="has-edge")
    add_model_flags(sp)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--i", type=int)
    sp.add_argument("--j", type=int)
    sp.add_argument("--budget", type=int, default=oracle.DEFAULT_BUDGET)
    sp.set_defaults(fn=_cmd_oracle)

    sp = sub.add_parser("mc", help="Monte Carlo sweep, CSV output")
    sp.add_argument("--config")
    add_model_flags(sp, default_model=None)
    sp.add_argument("--p")
    sp.add_argument("--scale", choices=sorted(experiments.SCALE_FUNCTIONS))
    sp.add_argument("--c-list")
    sp.add_argument("--property", choices=tuple(PROPERTIES))
    sp.add_argument("--i", type=int)
    sp.add_argument("--j", type=int)
    sp.add_argument("--trials", type=int, default=10_000)
    sp.add_argument("--out")
    sp.set_defaults(fn=_cmd_mc)

    sp = sub.add_parser("scan", help="threshold scan over n and multiplier c, CSV output")
    pairless = [name for name, entry in PROPERTIES.items() if not entry.pair]
    sp.add_argument("--property", required=True, choices=pairless)
    sp.add_argument("--scale", required=True, choices=sorted(experiments.SCALE_FUNCTIONS))
    sp.add_argument("--c-list", required=True)
    sp.add_argument("--n-list", required=True)
    sp.add_argument("--k", type=int, default=3)
    sp.add_argument("--model", default="complete-k", choices=["complete-k", "binomial-hk", "uniform-hk"])
    sp.add_argument("--q", type=float)
    sp.add_argument("--m", type=int)
    sp.add_argument("--trials", type=int, default=10_000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out")
    sp.set_defaults(fn=_cmd_scan)

    sp = sub.add_parser("couple", help="coupled-generation audit; exit 1 on containment failure")
    sp.add_argument("--p1", type=float, required=True)
    sp.add_argument("--p2", type=float, required=True)
    sp.add_argument("--n", type=int, default=20)
    sp.add_argument("--k", type=int, default=3)
    sp.add_argument("--trials", type=int, default=10_000)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(fn=_cmd_couple)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except oracle.BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
