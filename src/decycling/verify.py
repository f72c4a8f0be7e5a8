"""Acyclicity checking of vertex-deleted subgraphs and certificate validation.

The forest test uses the edge-count/component identity (a graph is a forest
iff |E| = |V| - #components), which doubles as the unicyclicity test; one
union-find pass over the graph's edges counts both.  When the residual graph
is not a forest the pass has kept the first edge that closed a cycle, and a
breadth-first search through that edge finds the witness cycle near it.
Edges come in one lexicographic order for both graph types, so a Graph and
the FamilySpec it realizes yield the same witness.

Every routine here reads a graph only through its ``order``, ``edges()`` (to
count) and ``neighbors(v)`` (to find a witness), so each takes a stored
``Graph`` or a ``FamilySpec``, whose edges and neighbors are arithmetic on the
labels.  A certificate is checked against its own family without building
the graph, and its lower bound is re-derived: it may not exceed the best
computed bound or the paper's closed form.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable

from .bounds import certifiable_lower_bound
from .errors import ConstructionInvariantError, UniverseMismatchError
from .graphs import FamilySpec, Graph

UNVERIFIED = "unverified"
VERIFIED = "verified"
FAILED = "failed"


@dataclass(frozen=True)
class VertexSet:
    """A subset of the vertices of a graph with universe [0, universe_size)."""

    universe_size: int
    members: frozenset[int]

    def __post_init__(self):
        if self.universe_size < 0:
            raise UniverseMismatchError("universe_size must be nonnegative")
        for v in self.members:
            if not 0 <= v < self.universe_size:
                raise UniverseMismatchError(
                    f"member {v} outside universe [0, {self.universe_size})"
                )

    @staticmethod
    def of(universe_size: int, members: Iterable[int]) -> "VertexSet":
        return VertexSet(universe_size, frozenset(members))

    @staticmethod
    def empty(universe_size: int) -> "VertexSet":
        return VertexSet(universe_size, frozenset())

    @property
    def cardinality(self) -> int:
        return len(self.members)

    def sorted_members(self) -> list[int]:
        return sorted(self.members)

    def __contains__(self, v: int) -> bool:
        return v in self.members

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(sorted(self.members))


@dataclass(frozen=True)
class ResidualReport:
    """What is left of a graph after deleting a vertex set."""

    n_vertices_left: int
    n_edges_left: int
    n_components: int
    is_forest: bool
    witness_cycle: tuple[int, ...] | None

    @property
    def is_single_path(self) -> bool:
        """True iff the residual graph is one path (or empty)."""
        if not self.is_forest:
            return False
        if self.n_vertices_left == 0:
            return True
        return self.n_components == 1


def _check_universe(g: Graph | FamilySpec, s: VertexSet) -> None:
    if s.universe_size != g.order:
        raise UniverseMismatchError(
            f"vertex set universe {s.universe_size} != graph order {g.order}"
        )


def _find_cycle(
    g: Graph | FamilySpec, removed: frozenset[int], edge: tuple[int, int]
) -> tuple[int, ...] | None:
    """A shortest cycle of the residual graph through edge (u, v), the first
    kept edge whose ends the union-find had already joined: a breadth-first
    search from u reaches v without that edge, and the path closes through
    it.  The search expands only vertices nearer to u than v is."""
    u, v = edge
    parent = {u: u}
    frontier = [u]
    for w in frontier:
        for x in g.neighbors(w):
            if x in parent or x in removed or (w == u and x == v):
                continue
            parent[x] = w
            if x == v:
                cycle = [v]
                while w != u:
                    cycle.append(w)
                    w = parent[w]
                cycle.append(u)
                return tuple(reversed(cycle))
            frontier.append(x)
    return None


def residual(g: Graph | FamilySpec, s: VertexSet) -> ResidualReport:
    """Report on the subgraph induced by the vertices outside s: one
    path-halving union-find pass over g.edges() counts its edges and
    components and keeps the first edge that closes a cycle, from which a
    witness cycle is found only off a forest."""
    _check_universe(g, s)
    removed = s.members
    keep = bytearray(b"\x01") * g.order
    for v in removed:
        keep[v] = 0
    parent = list(range(g.order))
    n_edges = merges = 0
    closing = None
    for a, b in g.edges():
        if keep[a] and keep[b]:
            n_edges += 1
            u, v = a, b
            while parent[u] != u:
                parent[u] = u = parent[parent[u]]
            while parent[v] != v:
                parent[v] = v = parent[parent[v]]
            if u != v:  # lower end's root under the higher's: short finds in lex order
                parent[u] = v
                merges += 1
            elif closing is None:
                closing = (a, b)
    n_kept = g.order - len(removed)  # s lies inside the graph's universe
    is_forest = n_edges == merges
    witness = None if is_forest else _find_cycle(g, removed, closing)
    return ResidualReport(n_kept, n_edges, n_kept - merges, is_forest, witness)


def is_unicyclic(
    g: Graph | FamilySpec, s: VertexSet
) -> tuple[bool, tuple[int, ...] | None]:
    """Whether the residual graph is connected with exactly one cycle.

    Returns (True, the unique cycle) or (False, None).
    """
    report = residual(g, s)
    unicyclic = (
        report.n_components == 1 and report.n_edges_left == report.n_vertices_left
    )
    return (True, report.witness_cycle) if unicyclic else (False, None)


@dataclass(frozen=True)
class DecyclingCertificate:
    """A vertex set claimed to decycle one family instance.

    When status is "verified" the residual graph is a forest, the claimed
    cardinality matches the set, and lower_bound is at most the cardinality
    and at most certifiable_lower_bound(family); if additionally
    lower_bound == cardinality the certificate pins the decycling number
    exactly.
    """

    family: FamilySpec
    vertex_set: VertexSet
    cardinality: int
    lower_bound: int
    method: str
    status: str = UNVERIFIED


def _check_witness(
    g: Graph | FamilySpec, removed: frozenset[int], cycle: tuple[int, ...] | None
) -> None:
    """Refuse to show a witness that is not a cycle of the residual graph."""
    if not (
        cycle is not None
        and len(cycle) >= 3
        and len(set(cycle)) == len(cycle)
        and all(0 <= v < g.order for v in cycle)
        and removed.isdisjoint(cycle)
        and all(b in g.neighbors(a) and a in g.neighbors(b)
                for a, b in zip(cycle, cycle[1:] + cycle[:1]))
    ):
        raise ConstructionInvariantError(
            f"residual witness {cycle and cycle[:12]} is not a cycle of the graph"
        )


def certificate_problems(
    cert: DecyclingCertificate, graph: Graph | FamilySpec | None = None
) -> list[str]:
    """One line per claim of cert that does not hold, checked on the family
    without building it unless a graph is supplied; empty when all hold."""
    g = cert.family if graph is None else graph
    report = residual(g, cert.vertex_set)
    size, bound, problems = cert.cardinality, cert.lower_bound, []
    if size != cert.vertex_set.cardinality:
        problems.append(f"claimed cardinality {size} but the set has "
                        f"{cert.vertex_set.cardinality} vertices")
    if bound > size:
        problems.append(f"lower bound {bound} exceeds cardinality {size}")
    elif bound > (ceiling := certifiable_lower_bound(cert.family)):
        problems.append(f"lower bound {bound} exceeds {ceiling}, the best bound "
                        f"or closed form known for {cert.family.describe()}")
    if not report.is_forest:
        _check_witness(g, cert.vertex_set.members, report.witness_cycle)
        problems.append(f"residual cycle: {' '.join(map(str, report.witness_cycle))}")
    return problems


def verify_certificate(
    cert: DecyclingCertificate, graph: Graph | FamilySpec | None = None
) -> DecyclingCertificate:
    """Return a copy of cert with status set by certificate_problems; claim
    mismatches produce status "failed", never an exception."""
    ok = not certificate_problems(cert, graph)
    return replace(cert, status=VERIFIED if ok else FAILED)
