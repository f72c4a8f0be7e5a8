"""Digest of the exact oracle's behaviour on a fixed instance set.

Runs `min_fvs_exact` with the default configuration on

* the four oracle-family benchmark commands (C3xC13, C4xC9, C48^2, C24^3,
  each with its family spec),
* C40^3 and C30^5 with their specs,
* the tori C5xC7, C6xC6 and C8xC8 as plain graphs (no spec, no anchor),
* the 1,200 seed-1 and the 1,200 seed-2 G(40, 60) graphs of the
  oracle-random benchmark workload,

and prints the search-node total of each group and the number of cycles its
branching-cycle scans closed (calls of ``solver._close_cycle``), then one
sha256 over every (minimum, witness) in that order.  A change to the solver
that must keep its answers prints the same digest; both counts are
deterministic and show what it saved.

Run from anywhere, with no options:

    python tools/oracle_digest.py
"""

from __future__ import annotations

import hashlib
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from decycling import solver  # noqa: E402
from decycling.graphs import FamilySpec, Graph, cartesian_product, make_cycle, realize  # noqa: E402
from run import DEFAULT_SEED, HELD_OUT_SEED, SIZES, random_graph  # noqa: E402


def _family(spec: FamilySpec):
    return realize(spec), spec


def _random_graphs(seed: int):
    """The oracle-random workload's graphs for one seed, set by set."""
    cfg = SIZES["full"]["random"]
    n, m = cfg["n"], cfg["m"]
    for s in range(cfg["sets"]):
        rng = random.Random(f"{seed}:{s}")
        for _ in range(cfg["graphs"]):
            yield Graph.from_edges(n, random_graph(rng, n, m)), None


def groups():
    """(name, instances) pairs; an instance is (graph, spec or None)."""
    yield "oracle-family", [_family(FamilySpec(f, n))
                            for f, n in SIZES["full"]["families"]]
    yield "pow3 40", [_family(FamilySpec.pow3(40))]
    yield "powm 30 5", [_family(FamilySpec.powm(30, 5))]
    for r, c in ((5, 7), (6, 6), (8, 8)):
        yield f"C{r}xC{c} edges", [(cartesian_product(make_cycle(r), make_cycle(c)), None)]
    yield f"G(40,60) seed {DEFAULT_SEED}", _random_graphs(DEFAULT_SEED)
    yield f"G(40,60) seed {HELD_OUT_SEED}", _random_graphs(HELD_OUT_SEED)


def main() -> int:
    digest, closes = hashlib.sha256(), 0
    close_cycle = solver._close_cycle

    def counted(*args):
        nonlocal closes
        closes += 1
        return close_cycle(*args)

    solver._close_cycle = counted
    for name, instances in groups():
        nodes, count, start = 0, 0, time.perf_counter()
        closes = 0
        for g, spec in instances:
            result = solver.min_fvs_exact(g, spec=spec)
            digest.update(f"{result.minimum} {result.witness.sorted_members()}\n".encode())
            nodes += result.nodes_explored
            count += 1
        print(f"{name:20} {count:5} instances {nodes:8} nodes {closes:8} closes "
              f"{time.perf_counter() - start:7.2f}s", flush=True)
    print(f"sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
