"""Shared test helpers: independent brute-force oracles.

The cycle detector enumerates simple paths anchored at their smallest vertex
and the minimum-FVS oracle enumerates subsets in increasing size, so neither
shares any machinery with the union-find forest test or the search solver
they are used to check.
"""

from __future__ import annotations

import itertools
import random

from decycling.graphs import (
    FamilySpec,
    Graph,
    cartesian_product,
    make_cycle,
    make_cycle_power,
)
from decycling.verify import DecyclingCertificate, VertexSet


def _neighbor_masks(g: Graph) -> list[int]:
    return [sum(1 << u for u in g.neighbors(v)) for v in g.vertices()]


def naive_has_cycle(g: Graph, removed: frozenset[int] = frozenset()) -> bool:
    """Exhaustive simple-path enumeration: does g minus removed contain a cycle?"""
    masks = _neighbor_masks(g)
    alive = 0
    for v in g.vertices():
        if v not in removed:
            alive |= 1 << v
    anchors = alive
    while anchors:
        a = (anchors & -anchors).bit_length() - 1
        anchors &= anchors - 1
        abit = 1 << a
        allowed = (alive >> a) << a  # only vertices >= the anchor
        stack = [(a, abit)]
        while stack:
            x, seen = stack.pop()
            nbrs = masks[x] & allowed
            if x != a and nbrs & abit and seen.bit_count() >= 3:
                return True
            rest = nbrs & ~seen
            while rest:
                u = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                stack.append((u, seen | (1 << u)))
    return False


def naive_min_fvs(g: Graph) -> tuple[int, frozenset[int]]:
    """Smallest decycling set by subset enumeration in increasing size."""
    for size in range(g.n_vertices + 1):
        for combo in itertools.combinations(g.vertices(), size):
            removed = frozenset(combo)
            if not naive_has_cycle(g, removed):
                return size, removed
    raise AssertionError("unreachable: deleting everything is always acyclic")


def assert_valid_witness_cycle(g: Graph, removed, cycle) -> None:
    """Independent membership check: distinct vertices, all outside the set,
    consecutive (and wrap-around) pairs adjacent, length at least 3."""
    assert cycle is not None
    assert len(cycle) >= 3
    assert len(set(cycle)) == len(cycle)
    for v in cycle:
        assert v not in removed
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        assert g.has_edge(a, b), (a, b)


def random_certificate(rng: random.Random) -> DecyclingCertificate:
    """An arbitrary (not necessarily valid) certificate for round-trip tests."""
    kind = rng.choice(["c3xc", "c4xc", "pow2", "pow3", "powm"])
    n = rng.randint(5, 40)
    if kind == "powm":
        spec = FamilySpec.powm(n, rng.randint(1, 6))
    else:
        spec = FamilySpec(kind, n)
    order = {"c3xc": 3 * n, "c4xc": 4 * n}.get(kind, n)
    members = rng.sample(range(order), rng.randint(0, min(order, 12)))
    return DecyclingCertificate(
        family=spec,
        vertex_set=VertexSet.of(order, members),
        cardinality=len(members) if rng.random() < 0.8 else rng.randint(0, order),
        lower_bound=rng.randint(0, order),
        method=rng.choice(["oracle", "spaced-thirds", "base-plus-cylinders"]),
        status=rng.choice(["unverified", "verified", "failed"]),
    )


def residual_is_single_path(g: Graph, removed: frozenset[int]) -> bool:
    """Direct structural check that the residual graph is one simple path."""
    kept = [v for v in g.vertices() if v not in removed]
    if not kept:
        return True
    degs = []
    for v in kept:
        degs.append(sum(1 for u in g.neighbors(v) if u not in removed))
    if any(d > 2 for d in degs):
        return False
    n_edges = sum(degs) // 2
    if n_edges != len(kept) - 1:
        return False
    return not naive_has_cycle(g, removed) and degs.count(1) in (0, 2)


def naive_residual_counts(g, removed: frozenset[int]) -> tuple[int, int]:
    """(edges, components) of g minus removed, by breadth-first search over
    g.neighbors; g is anything with an order and neighbors(v)."""
    seen = set(removed)
    degree_sum = components = 0
    for start in range(g.order):
        if start in seen:
            continue
        components += 1
        seen.add(start)
        queue = [start]
        for v in queue:
            for u in g.neighbors(v):
                if u not in removed:
                    degree_sum += 1
                    if u not in seen:
                        seen.add(u)
                        queue.append(u)
    return degree_sum // 2, components


def reference_graph(spec: FamilySpec) -> Graph:
    """The family graph from the generic builders, independent of the
    family's own neighbors() and edges()."""
    if spec.torus_rows:
        return cartesian_product(make_cycle(spec.torus_rows), make_cycle(spec.n))
    return make_cycle_power(spec.n, spec.power)
