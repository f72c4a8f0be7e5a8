"""Command-line surface: closed forms, constructions, verification, oracle.

Exit codes: 0 success/verified, 2 usage or parse failure, 3 out of range,
over budget or too large to hold in memory, 4 I/O failure, 5 verification
failed or a formula refuted.  DECYCLING_NODE_BUDGET, read on every call, sets
the default oracle node budget.  `main(argv)` may be called repeatedly in one
process; it builds its argument parser once, on the first call.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time

from .bounds import _closed_form, bound_report, nabla_formula
from .certio import dumps, load, save
from .construct import build_certificate
from .errors import (
    BudgetExceededError,
    CertificateFormatError,
    ConstructionInvariantError,
    InvalidParameterError,
    NotCoveredError,
)
from .graphs import (
    FAMILY_KINDS,
    POWM,
    FamilySpec,
    Graph,
    adjacency_dump,
    realize,
    to_dot,
)
from .solver import BRANCH_AND_BOUND, ITERATIVE_DEEPENING, SolverConfig
from .solver import check_vertex_budget, min_fvs_exact
from .verify import VERIFIED, certificate_problems

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RANGE = 3
EXIT_IO = 4
EXIT_FAILED = 5


class _UsageError(Exception):
    pass


def _default_node_budget() -> int:
    raw = os.environ.get("DECYCLING_NODE_BUDGET")
    if raw is None:
        return SolverConfig().node_budget
    try:
        return int(raw)
    except ValueError:
        raise _UsageError(f"DECYCLING_NODE_BUDGET must be an integer, got {raw!r}")


def _spec_from_args(args: argparse.Namespace) -> FamilySpec:
    family, n, m = args.family, args.n, args.m
    if family == POWM:
        if m is None:
            raise _UsageError("family powm needs both n and m")
        return FamilySpec.powm(n, m)
    if m is not None:
        raise _UsageError(f"family {family} takes a single parameter n")
    return FamilySpec(family, n)


def _solver_config(args: argparse.Namespace) -> SolverConfig:
    return SolverConfig(
        vertex_budget=args.vertex_budget,
        node_budget=args.node_budget
        if args.node_budget is not None
        else _default_node_budget(),
        mode=args.mode,
    )


def _add_family_arguments(sub: argparse.ArgumentParser, optional: bool = False):
    nargs = "?" if optional else None
    sub.add_argument("family", nargs=nargs, choices=FAMILY_KINDS)
    sub.add_argument("n", nargs=nargs, type=int)
    sub.add_argument("m", nargs="?", type=int, default=None,
                     help="power exponent, only for family powm")


def _add_solver_arguments(sub: argparse.ArgumentParser):
    sub.add_argument("--node-budget", type=int, default=None,
                     help="search node limit (default from DECYCLING_NODE_BUDGET)")
    sub.add_argument("--vertex-budget", type=int, default=SolverConfig.vertex_budget)
    sub.add_argument("--mode", choices=(ITERATIVE_DEEPENING, BRANCH_AND_BOUND),
                     default=SolverConfig.mode)


def cmd_nabla(args: argparse.Namespace) -> int:
    value, note = _closed_form(_spec_from_args(args))
    print(f"{value} ({note})")
    return EXIT_OK


def cmd_construct(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    cert = build_certificate(spec)
    if args.output:
        save(cert, args.output)
        print(
            f"{spec.describe()}: cardinality={cert.cardinality} "
            f"lower_bound={cert.lower_bound} status={cert.status} -> {args.output}"
        )
    else:
        sys.stdout.write(dumps(cert))
    return EXIT_OK if cert.status == VERIFIED else EXIT_FAILED


def cmd_verify(args: argparse.Namespace) -> int:
    cert = load(args.certificate)
    # certio checked n_vertices against the family's order, so the universes agree.
    problems = certificate_problems(cert)
    if not problems:
        print(
            f"verified: {cert.family.describe()} decycled by "
            f"{cert.cardinality} vertices (lower bound {cert.lower_bound})"
        )
        return EXIT_OK
    print(f"failed: {cert.family.describe()}")
    for line in problems:
        print(f"  {line}")
    return EXIT_FAILED


def _read_edge_list(path: str, cfg: SolverConfig) -> tuple[int, list[tuple[int, int]]]:
    edges = []
    n = None
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if n is None:
                n = int(line)
                check_vertex_budget(n, cfg)
                continue
            u, v = line.split()
            edges.append((int(u), int(v)))
    if n is None:
        raise _UsageError(f"{path}: empty edge list")
    return n, edges


def _solve_family(spec: FamilySpec, cfg: SolverConfig):
    """Exact minimum of a family instance, with the closed form it refutes
    (None when the closed form agrees or does not cover the family)."""
    check_vertex_budget(spec.order, cfg)
    result = min_fvs_exact(realize(spec), cfg, spec=spec)
    try:
        expected = nabla_formula(spec)
    except NotCoveredError:
        return result, None
    return result, None if expected == result.minimum else expected


def cmd_oracle(args: argparse.Namespace) -> int:
    cfg = _solver_config(args)
    if args.edges:
        if args.family is not None:
            raise _UsageError("give either a family or --edges, not both")
        try:
            n, edges = _read_edge_list(args.edges, cfg)
        except ValueError as err:
            raise _UsageError(f"{args.edges}: {err}")
        # A parsed list with a bad vertex count or edge is out of range (exit 3).
        result, refuted = min_fvs_exact(Graph.from_edges(n, edges), cfg), None
    else:
        if args.family is None or args.n is None:
            raise _UsageError("oracle needs a family and n, or --edges PATH")
        result, refuted = _solve_family(_spec_from_args(args), cfg)
    print(f"minimum {result.minimum}")
    print(f"witness {' '.join(map(str, result.witness.sorted_members()))}")
    print(f"nodes {result.nodes_explored} elapsed {result.elapsed:.2f}s")
    if refuted is not None:
        print(f"refuted: closed form predicts {refuted}", file=sys.stderr)
        return EXIT_FAILED
    return EXIT_OK


def _parse_range(text: str) -> range:
    if ".." in text:
        lo, hi = text.split("..", 1)
        span = range(int(lo), int(hi) + 1)
        if not span:
            raise ValueError(text)
        return span
    value = int(text)
    return range(value, value + 1)


def cmd_table(args: argparse.Namespace) -> int:
    if args.family == POWM:
        raise _UsageError("table does not take family powm")
    try:
        span = _parse_range(args.range)
    except ValueError:
        raise _UsageError(f"bad range {args.range!r}, expected A..B with A <= B")
    header = ["n", "formula", "best_bound"]
    if args.oracle:
        header += ["oracle", "nodes", "seconds"]
    rows = []
    refuted = False
    for n in span:
        spec = FamilySpec(args.family, n)
        try:
            formula: int | str = nabla_formula(spec)
        except NotCoveredError:
            formula = "-"
        row = [n, formula, bound_report(spec).best]
        if args.oracle:
            start = time.perf_counter()
            result, wrong = _solve_family(spec, _solver_config(args))
            row += [result.minimum, result.nodes_explored,
                    f"{time.perf_counter() - start:.2f}"]
            refuted = refuted or wrong is not None
        rows.append(row)
    widths = [max(len(str(r[i])) for r in [header] + rows) for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(str(cell).rjust(w) for cell, w in zip(row, widths)))
    if refuted:
        print("refuted: oracle disagrees with a closed form", file=sys.stderr)
        return EXIT_FAILED
    return EXIT_OK


def cmd_export(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    graph = realize(spec)
    highlight = frozenset()
    if args.cert:
        cert = load(args.cert)
        if cert.family != spec:
            raise _UsageError(
                f"certificate is for {cert.family.describe()}, not {spec.describe()}"
            )
        highlight = cert.vertex_set.members
    text = (
        adjacency_dump(graph)
        if args.format == "adjacency"
        else to_dot(graph, highlight, torus_rows=spec.torus_rows)
    )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="decycling",
        description="Decycling sets of toroidal cycle products and cycle powers: "
        "closed forms, certified constructions, lower bounds, and an exact oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("nabla", help="print the closed-form decycling number")
    _add_family_arguments(p)

    p = sub.add_parser("construct", help="build and verify a decycling certificate")
    _add_family_arguments(p)
    p.add_argument("-o", "--output", help="write the certificate JSON here")

    p = sub.add_parser("verify", help="re-verify a certificate JSON file")
    p.add_argument("certificate")

    p = sub.add_parser("oracle", help="exact minimum decycling set by search")
    _add_family_arguments(p, optional=True)
    p.add_argument("--edges", help="edge-list file: first line n, then 'u v' lines")
    _add_solver_arguments(p)

    p = sub.add_parser("table", help="formula vs. bounds (vs. oracle) over a range")
    p.add_argument("family", choices=FAMILY_KINDS)
    p.add_argument("range", help="e.g. 4..16")
    p.add_argument("--oracle", action="store_true", help="add exact-search columns")
    _add_solver_arguments(p)

    p = sub.add_parser("export", help="DOT (or adjacency) dump, set highlighted")
    _add_family_arguments(p)
    p.add_argument("--cert", help="certificate JSON whose set gets highlighted")
    p.add_argument("--format", choices=("dot", "adjacency"), default="dot")
    p.add_argument("-o", "--output")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # Looked up per call, so the cached parser holds no handler.
        return globals()[f"cmd_{args.command}"](args)
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except CertificateFormatError as err:
        print(f"certificate error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (InvalidParameterError, NotCoveredError) as err:
        print(f"out of range: {err}", file=sys.stderr)
        return EXIT_RANGE
    except BudgetExceededError as err:
        bounds = [f"proved >= {err.proved}"] if err.proved is not None else []
        if err.best_known is not None:
            bounds.append(f"best known upper bound {err.best_known}")
        extra = f" ({', '.join(bounds)})" if bounds else ""
        print(f"budget exceeded: {err}{extra}", file=sys.stderr)
        return EXIT_RANGE
    except ConstructionInvariantError as err:
        print(f"construction failed verification: {err}", file=sys.stderr)
        return EXIT_FAILED
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return EXIT_IO
    except MemoryError:
        print("out of range: too large to hold in memory", file=sys.stderr)
        return EXIT_RANGE


if __name__ == "__main__":
    sys.exit(main())
