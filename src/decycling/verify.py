"""Acyclicity checking of vertex-deleted subgraphs and certificate validation.

The forest test uses the edge-count/component identity (a graph is a forest
iff |E| = |V| - #components), which doubles as the unicyclicity test.  A
family instance is counted by a memoized sweep over its columns, any other
graph by one union-find pass over its edges.  Off a forest, a union-find in
the one lexicographic edge order of both graph types stops at the first edge
that closes a cycle, and a breadth-first search through that edge finds the
witness cycle near it, the same for a Graph and the FamilySpec it realizes.
Every routine takes a stored ``Graph`` or a ``FamilySpec``, whose ``order``,
``edges()`` and ``neighbors(v)`` are arithmetic on the labels, so a
certificate is checked against its own family without building the graph.
Its lower bound is re-derived: it may not exceed the best computed bound or
the paper's closed form.
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


def _strip_shape(spec: FamilySpec):
    """(w, b, inner, forward) for a spec with n > 2b, else None: column c
    holds the w vertices r*n + c (one on a circulant) and joins columns
    c+1 .. c+b; inner lists the rows r < q joined in a column, forward the
    (r, d, q) with (r, c) ~ (q, c+d)."""
    w, n = spec.torus_rows or 1, spec.n
    b = 1 if spec.torus_rows else spec.power
    if n <= 2 * b:
        return None
    # read off column b, whose neighbours do not wrap when n > 2b
    arcs = [(r, u % n - b, u // n) for r in range(w) for u in spec.neighbors(r*n + b)]
    inner = tuple((r, q) for r, d, q in arcs if d == 0 and q > r)
    return w, b, inner, tuple(a for a in arcs if a[1] > 0)


def _strip_step(shape, state: tuple[int, ...], codes):
    """Sweep columns into the window by their keep codes (bit r set when row
    r is kept), dropping as many of its oldest.  A state labels the w*b head
    slots (columns 0 .. b-1), then the w*b window slots (the last b swept):
    -1 if deleted, else a component, numbered by first occurrence.  Returns
    (next state, edges added, merges): a cycle closes iff edges > merges."""
    w, b, inner, forward = shape
    head, labels, parent = w * b, list(state), list(range(len(state) + w * len(codes)))
    kept = b"\x01" * len(parent) + b"\x00"  # label -1, a deleted slot, reads the 0
    edges = merges = 0
    for c, code in enumerate(codes):
        new = [len(state) + c * w + r if code >> r & 1 else -1 for r in range(w)]
        old = labels[head:]
        e, m, _ = _union_find([(new[r], new[q]) for r, q in inner] + [
            (old[(b - d) * w + r], new[q]) for r, d, q in forward], kept, parent)
        edges, merges = edges + e, merges + m
        labels[head:] = old[w:] + new
    roots: dict[int, int] = {}
    for i, x in enumerate(labels):
        while x >= 0 and parent[x] != x:
            x = parent[x]
        labels[i] = x if x < 0 else roots.setdefault(x, len(roots))
    return tuple(labels), edges, merges


def _strip_close(shape, state: tuple[int, ...]) -> tuple[int, int]:
    """(edges, merges) of the wrap edges from the window into the head."""
    w, b, _, forward = shape
    return _union_find([(state[w * b + j * w + r], state[(j + d - b) * w + q])
                        for r, d, q in forward for j in range(b - d, b)],
                       b"\x01" * len(state) + b"\x00", list(range(len(state))))[:2]


def _sweep(n: int, shape, keep: bytearray) -> tuple[int, int]:
    """(edges, merges) of a strip's residual, from one code byte per column
    (w <= 8): the first b columns make the head and the window, then each
    step reads a torus column or 4 circulant labels (the last maybe fewer),
    memoized per state and keyed by its codes as one int."""
    w, b, _, _ = shape
    codes = sum(int.from_bytes(keep[r * n:(r + 1) * n], "little") << r
                for r in range(w)).to_bytes(n, "little")
    state, edges, merges = _strip_step(shape, (-1,) * (2 * w * b), codes[:b])
    state = state[w * b:] * 2  # the first b columns are both the head and the window
    rows: dict = {}  # state -> {a step's codes: (next state, its row, edges, merges)}
    row = rows[state] = {}
    step = 1 if w > 1 else 4
    end = n - (n - b) % step
    keys = memoryview(codes)[b:end].cast("B" if w > 1 else "I")
    for i, key in zip(range(b, end, step), keys):
        hit = row.get(key)
        if hit is None:
            nxt, e, m = _strip_step(shape, state, codes[i:i + step])
            hit = row[key] = (nxt, rows.setdefault(nxt, {}), e, m)
        state, row, e, m = hit
        edges += e
        merges += m
    state, e, m = _strip_step(shape, state, codes[end:])
    e2, m2 = _strip_close(shape, state)
    return edges + e + e2, merges + m + m2


def _union_find(pairs, keep, parent: list[int], stop: bool = False):
    """(edges, merges, first closing pair) of a path-halving union-find over
    the pairs with both ends kept, ending there with stop."""
    n_edges = merges = 0
    closing = None
    for a, b in pairs:
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
                if stop:
                    break
    return n_edges, merges, closing


def residual(g: Graph | FamilySpec, s: VertexSet) -> ResidualReport:
    """Report on the subgraph induced by the vertices outside s: a FamilySpec
    with n > 2b is counted by a column sweep, anything else by a union-find
    over g.edges(), which alone finds the first closing edge of a witness."""
    if s.universe_size != g.order:
        raise UniverseMismatchError(
            f"vertex set universe {s.universe_size} != graph order {g.order}")
    removed = s.members
    keep = bytearray(b"\x01") * g.order
    for v in removed:
        keep[v] = 0
    shape = _strip_shape(g) if isinstance(g, FamilySpec) else None
    if shape is None:
        n_edges, merges, closing = _union_find(g.edges(), keep, list(range(g.order)))
    else:
        n_edges, merges = _sweep(g.n, shape, keep)
        closing = None if n_edges == merges else _union_find(
            g.edges(), keep, list(range(g.order)), stop=True)[2]
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
