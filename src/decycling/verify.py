"""Acyclicity checking of vertex-deleted subgraphs and certificate validation.

The forest test uses the edge-count/component identity (a graph is a forest
iff |E| = |V| - #components), which doubles as the unicyclicity test.  When
the residual graph is not a forest an explicit witness cycle is located by a
depth-first search back edge.

Every routine here reads a graph only through its ``order`` and
``neighbors(v)``, so each takes a stored ``Graph`` or a ``FamilySpec``, whose
neighbors are arithmetic on the label.  A certificate is checked against its
own family without building the graph, and its lower bound is re-derived:
it may not exceed the best computed bound or the paper's closed form.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable

from .bounds import certifiable_lower_bound
from .errors import UniverseMismatchError

# Nothing here builds a graph; `realize` stays bound so that tests can count
# graph builds by patching it at every import site.
from .graphs import FamilySpec, Graph, realize  # noqa: F401

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


class _DisjointSets:
    __slots__ = ("parent",)

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        parent = self.parent
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


def _check_universe(g: Graph | FamilySpec, s: VertexSet) -> None:
    if s.universe_size != g.order:
        raise UniverseMismatchError(
            f"vertex set universe {s.universe_size} != graph order {g.order}"
        )


def _find_cycle(
    g: Graph | FamilySpec, removed: frozenset[int]
) -> tuple[int, ...] | None:
    """One simple cycle of the residual graph, via iterative DFS back edge."""
    n = g.order
    neighbors = g.neighbors
    parent = [-2] * n  # -2 unvisited, -1 root
    for start in range(n):
        if start in removed or parent[start] != -2:
            continue
        parent[start] = -1
        stack = [(start, iter(neighbors(start)))]
        while stack:
            v, it = stack[-1]
            advanced = False
            for u in it:
                if u in removed or u == parent[v]:
                    continue
                if parent[u] != -2:
                    # Back edge v-u; u is an ancestor of v here, since an edge
                    # into a descendant would have triggered from the other
                    # side before v's neighbor scan resumed.
                    cycle = [v]
                    w = v
                    while w != u:
                        w = parent[w]
                        cycle.append(w)
                    return tuple(reversed(cycle))
                parent[u] = v
                stack.append((u, iter(neighbors(u))))
                advanced = True
                break
            if not advanced:
                stack.pop()
    return None


def residual(g: Graph | FamilySpec, s: VertexSet) -> ResidualReport:
    """Report on the subgraph induced by the vertices outside s."""
    _check_universe(g, s)
    removed = s.members
    neighbors = g.neighbors
    n_kept = g.order - len(removed)  # s lies inside the graph's universe
    dsu = _DisjointSets(g.order)
    n_edges = 0
    n_components = n_kept
    for v in range(g.order):
        if v in removed:
            continue
        for u in neighbors(v):
            if u > v and u not in removed:
                n_edges += 1
                if dsu.union(u, v):
                    n_components -= 1
    is_forest = n_edges == n_kept - n_components
    witness = None if is_forest else _find_cycle(g, removed)
    return ResidualReport(n_kept, n_edges, n_components, is_forest, witness)


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


def verify_certificate(
    cert: DecyclingCertificate, graph: Graph | FamilySpec | None = None
) -> DecyclingCertificate:
    """Return a copy of cert with status set by re-checking every claim.

    The set is checked against the certificate's family, read through
    FamilySpec.neighbors without building it, unless a graph is supplied.
    Claim mismatches produce status "failed", never an exception.
    """
    g = cert.family if graph is None else graph
    _check_universe(g, cert.vertex_set)
    ok = (
        cert.cardinality == cert.vertex_set.cardinality
        and cert.lower_bound <= cert.cardinality
        and cert.lower_bound <= certifiable_lower_bound(cert.family)
        and residual(g, cert.vertex_set).is_forest
    )
    return replace(cert, status=VERIFIED if ok else FAILED)
