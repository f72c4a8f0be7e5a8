"""Graph families under study and the structural queries everything else uses.

Graphs are immutable simple undirected graphs over vertex labels
0 .. n_vertices-1, stored as sorted per-vertex neighbor tuples.  A
``FamilySpec`` is a graph too, an implicit one: it has an ``order``, computes
``neighbors(v)`` from the label and lists ``edges()`` from arithmetic runs of
labels, in the lexicographic order of the stored graph, so code that reads a
graph only through those three runs on a family instance without building it
and sees the same edge sequence.  ``realize`` builds the stored graph from
``neighbors(v)``.  The module also generates plain cycles, cartesian products
of cycles (toroidal grids, labeled row-major), and cycle powers (circulants),
the independent references the family adjacency is tested against.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Iterable, Iterator, NamedTuple

from .errors import InvalidParameterError

# Family tags accepted by FamilySpec / the CLI.
C3XC = "c3xc"  # C3 x Cn
C4XC = "c4xc"  # C4 x Cn
POW2 = "pow2"  # Cn^2
POW3 = "pow3"  # Cn^3
POWM = "powm"  # Cn^m, m arbitrary


class _Family(NamedTuple):
    min_n: int
    torus_rows: int | None  # C_rows x Cn for products
    power: int | None  # fixed exponent for Cn^power; powm takes the spec's m


# The family registry: every per-kind fact FamilySpec derives from.  Every
# kind must be a Cayley graph of Z_rows x Z_n or Z_n on these labels (so
# vertex-transitive): solver.min_fvs_exact puts vertex 0 in the set it seeks.
_REGISTRY = {
    C3XC: _Family(3, 3, None),
    C4XC: _Family(4, 4, None),
    POW2: _Family(4, None, 2),
    POW3: _Family(5, None, 3),
    POWM: _Family(3, None, None),
}
FAMILY_KINDS = tuple(_REGISTRY)


def _is_int_type(t: type) -> bool:
    """True for the types of JSON/Python integers; bools are not counts."""
    return issubclass(t, int) and not issubclass(t, bool)


def _is_int(x: object) -> bool:
    return _is_int_type(type(x))


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph with contiguous integer labels."""

    adjacency: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.adjacency)
        for v, nbrs in enumerate(self.adjacency):
            last = -1
            for u in nbrs:
                if not 0 <= u < n:
                    raise InvalidParameterError(f"neighbor {u} of {v} out of range")
                if u == v:
                    raise InvalidParameterError(f"self-loop at vertex {v}")
                if u <= last:
                    raise InvalidParameterError(f"adjacency of {v} not sorted/unique")
                last = u
                if v < u and not self.has_edge(u, v):
                    raise InvalidParameterError(f"edge {v}-{u} has no mirror entry")

    @property
    def n_vertices(self) -> int:
        return len(self.adjacency)

    @property
    def order(self) -> int:
        """Vertex count, under the name FamilySpec also answers to."""
        return len(self.adjacency)

    @cached_property
    def n_edges(self) -> int:
        return sum(len(nbrs) for nbrs in self.adjacency) // 2

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    @cached_property
    def max_degree(self) -> int:
        return max((len(nbrs) for nbrs in self.adjacency), default=0)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency[v]

    def has_edge(self, u: int, v: int) -> bool:
        nbrs = self.adjacency[u]
        i = bisect_left(nbrs, v)
        return i < len(nbrs) and nbrs[i] == v

    def vertices(self) -> range:
        return range(self.n_vertices)

    def edges(self) -> Iterator[tuple[int, int]]:
        for v, nbrs in enumerate(self.adjacency):
            for u in nbrs:
                if u > v:
                    yield (v, u)

    @staticmethod
    def from_edges(n_vertices: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph from an edge list; symmetry is implied, duplicates collapse."""
        if n_vertices < 0:
            raise InvalidParameterError("n_vertices must be nonnegative")
        nbrs: list[set[int]] = [set() for _ in range(n_vertices)]
        for u, v in edges:
            if not (0 <= u < n_vertices and 0 <= v < n_vertices):
                raise InvalidParameterError(f"edge ({u},{v}) out of range")
            if u == v:
                raise InvalidParameterError(f"self-loop at vertex {u}")
            nbrs[u].add(v)
            nbrs[v].add(u)
        return Graph(tuple(tuple(sorted(s)) for s in nbrs))


@dataclass(frozen=True)
class TorusCoord:
    """(row, col) position on an m-by-n torus; label = row * n_cols + col."""

    row: int
    col: int

    def label(self, n_cols: int) -> int:
        return self.row * n_cols + self.col


def torus_coord(label: int, n_cols: int) -> TorusCoord:
    return TorusCoord(label // n_cols, label % n_cols)


@dataclass(frozen=True)
class FamilySpec:
    """One instance of a supported graph family.

    kind is one of FAMILY_KINDS; n is the cycle length; m is the power
    exponent and only present for kind "powm".  Everything else about the
    instance (order, degree, torus rows, power) is derived from the registry.
    """

    kind: str
    n: int
    m: int | None = field(default=None)

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise InvalidParameterError(f"unknown family kind {self.kind!r}")
        if not _is_int(self.n):
            raise InvalidParameterError(f"n must be an integer, got {self.n!r}")
        min_n = _REGISTRY[self.kind].min_n
        if self.n < min_n:
            raise InvalidParameterError(
                f"family {self.kind!r} needs n >= {min_n}, got {self.n}"
            )
        if self.kind == POWM:
            if not _is_int(self.m) or self.m < 1:
                raise InvalidParameterError("powm needs a power m >= 1")
        elif self.m is not None:
            raise InvalidParameterError(f"family {self.kind!r} takes no power parameter")

    @staticmethod
    def c3xc(n: int) -> "FamilySpec":
        return FamilySpec(C3XC, n)

    @staticmethod
    def c4xc(n: int) -> "FamilySpec":
        return FamilySpec(C4XC, n)

    @staticmethod
    def pow2(n: int) -> "FamilySpec":
        return FamilySpec(POW2, n)

    @staticmethod
    def pow3(n: int) -> "FamilySpec":
        return FamilySpec(POW3, n)

    @staticmethod
    def powm(n: int, m: int) -> "FamilySpec":
        return FamilySpec(POWM, n, m)

    @property
    def power(self) -> int | None:
        """Effective power exponent for cycle-power families, else None."""
        return self.m if self.kind == POWM else _REGISTRY[self.kind].power

    @property
    def torus_rows(self) -> int | None:
        """Number of torus rows for product families, else None."""
        return _REGISTRY[self.kind].torus_rows

    @property
    def order(self) -> int:
        """Vertex count of the realized graph."""
        rows = self.torus_rows
        return rows * self.n if rows else self.n

    @property
    def degree(self) -> int:
        """Common vertex degree of the realized graph (every family is regular)."""
        if self.torus_rows:
            return 4
        return min(2 * self.power, self.n - 1)

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Sorted neighbors of vertex v (0 <= v < order), by arithmetic on its
        label; equal to realize(self).neighbors(v).

        Tori are labeled row-major; a circulant joins labels at cyclic
        distance 1 .. min(power, n // 2), the two directions meeting when the
        distance is n / 2.
        """
        n = self.n
        rows = self.torus_rows
        if rows:
            order = rows * n
            row_start = v - v % n
            return tuple(sorted((
                (v - n) % order,
                (v + n) % order,
                row_start + (v - 1) % n,
                row_start + (v + 1) % n,
            )))
        reach = min(self.power, n // 2)
        lo, hi = v - reach, v + reach
        if lo >= 0 and hi < n:  # no wrap: two runs of consecutive labels
            return (*range(lo, v), *range(v + 1, hi + 1))
        return tuple(sorted({u % n for u in range(lo, hi + 1) if u != v}))

    def edges(self) -> Iterator[tuple[int, int]]:
        """Every edge (v, u), v < u, once in lexicographic order: the sequence
        realize(self).edges() yields.  The labels fall into segments whose
        vertices share the offsets u - v of their higher neighbours (per torus
        row its first label, its inside and its last label; per circulant
        each wrap vertex and one middle run), read off the segment's first
        label, and each block of a segment is filled offset by offset."""
        n, rows = self.n, self.torus_rows
        if rows:
            cuts = [c for r in range(0, rows * n, n) for c in (r, r + 1, r + n - 1)]
        else:
            reach = min(self.power, n // 2)
            cuts = [*range(reach + 1), *range(n - reach, n)]
        cuts.append(self.order)
        return chain.from_iterable(chain.from_iterable(
            _segment_edges(a, b, [u - a for u in self.neighbors(a) if u > a])
            for a, b in zip(cuts, cuts[1:])))

    def describe(self) -> str:
        rows = self.torus_rows
        return f"C{rows} x C{self.n}" if rows else f"C{self.n}^{self.power}"


def _segment_edges(start: int, stop: int, offsets: list[int]) -> Iterator[zip]:
    """Edges (v, v + d) for v in [start, stop) and d in offsets, ascending,
    as one zip per block of labels filled by slice assignment.  The lower
    ends and the near higher ends are slices of one list of labels, so the
    pass creates few int objects."""
    k, block = len(offsets), 2048
    near = max([d for d in offsets if d < block], default=0)
    for a in range(start, stop, block):
        size = min(block, stop - a)
        labels = list(range(a, a + size + near))
        low, high = [0] * (k * size), [0] * (k * size)
        for i, d in enumerate(offsets):
            low[i::k] = labels[:size]
            high[i::k] = labels[d:d + size] if d <= near else range(a + d, a + d + size)
        yield zip(low, high)


def make_cycle(n: int) -> Graph:
    """The cycle graph on n >= 3 vertices, i adjacent to (i +- 1) mod n."""
    if n < 3:
        raise InvalidParameterError(f"cycle needs n >= 3, got {n}")
    return Graph(tuple(tuple(sorted(((i - 1) % n, (i + 1) % n))) for i in range(n)))


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Cartesian product; (u, v) maps to label u * h.n_vertices + v."""
    if g.n_vertices == 0 or h.n_vertices == 0:
        raise InvalidParameterError("cartesian product of an empty graph")
    nh = h.n_vertices
    adjacency = []
    for u in g.vertices():
        for v in h.vertices():
            row = [u * nh + w for w in h.neighbors(v)]
            row.extend(t * nh + v for t in g.neighbors(u))
            adjacency.append(tuple(sorted(row)))
    return Graph(tuple(adjacency))


def bfs_distances(g: Graph, source: int) -> list[int]:
    """BFS distances from source; unreachable vertices get -1."""
    dist = [-1] * g.n_vertices
    dist[source] = 0
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for u in g.neighbors(v):
            if dist[u] < 0:
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist


def is_connected(g: Graph) -> bool:
    if g.n_vertices == 0:
        return True
    return bfs_distances(g, 0).count(-1) == 0


def graph_power(g: Graph, k: int) -> Graph:
    """Same vertices; uv is an edge iff 1 <= dist_g(u, v) <= k.

    Cross-component distances are infinite, so components never merge.
    """
    if k < 1:
        raise InvalidParameterError(f"power exponent must be >= 1, got {k}")
    adjacency = []
    for v in g.vertices():
        dist = bfs_distances(g, v)
        adjacency.append(tuple(u for u in g.vertices() if 0 < dist[u] <= k))
    return Graph(tuple(adjacency))


def make_cycle_power(n: int, m: int) -> Graph:
    """Circulant form of the m-th power of Cn: i ~ j iff cyclic distance in [1, m]."""
    if n < 3:
        raise InvalidParameterError(f"cycle power needs n >= 3, got {n}")
    if m < 1:
        raise InvalidParameterError(f"cycle power needs m >= 1, got {m}")
    reach = min(m, n // 2)
    adjacency = []
    for i in range(n):
        nbrs = set()
        for d in range(1, reach + 1):
            nbrs.add((i + d) % n)
            nbrs.add((i - d) % n)
        adjacency.append(tuple(sorted(nbrs)))
    return Graph(tuple(adjacency))


def realize(spec: FamilySpec) -> Graph:
    """The concrete graph a FamilySpec names, with deterministic labels."""
    return Graph(tuple(map(spec.neighbors, range(spec.order))))


def adjacency_dump(g: Graph) -> str:
    """Plain-text adjacency listing, one `label: n1 n2 ...` line per vertex."""
    lines = [f"{v}: {' '.join(map(str, g.neighbors(v)))}" for v in g.vertices()]
    return "\n".join(lines) + "\n"


def to_dot(
    g: Graph,
    highlight: frozenset[int] | set[int] = frozenset(),
    torus_rows: int | None = None,
    name: str = "G",
) -> str:
    """DOT rendering with the highlighted set filled and doubly circled.

    Edges of the subgraph induced by the non-highlighted vertices are drawn
    thick; edges incident to highlighted vertices thin.  For torus layouts
    vertices carry pinned grid positions usable by neato.
    """
    lines = [f"graph {name} {{", "  node [shape=circle];"]
    n_cols = g.n_vertices // torus_rows if torus_rows else 0
    for v in g.vertices():
        attrs = []
        if torus_rows:
            attrs.append(f'pos="{v % n_cols},{v // n_cols}!"')
        if v in highlight:
            attrs.append("style=filled fillcolor=gray80 peripheries=2")
        lines.append(f"  {v} [{' '.join(attrs)}];" if attrs else f"  {v};")
    for u, v in g.edges():
        if u in highlight or v in highlight:
            lines.append(f"  {u} -- {v} [penwidth=0.5];")
        else:
            lines.append(f"  {u} -- {v} [penwidth=2.5];")
    lines.append("}")
    return "\n".join(lines) + "\n"
