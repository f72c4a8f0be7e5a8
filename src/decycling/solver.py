"""Exact minimum feedback-vertex-set search for desk-scale graphs.

Iterative deepening starts at the best known lower bound for the instance and
asks, for growing k, whether some k vertices decycle the graph.  The decision
search branches on a currently-shortest residual cycle (every decycling set
must hit every cycle) after exhaustively applying three reductions:

* vertices of degree <= 1 are deleted,
* a vertex carrying a self-loop is forced into the set,
* a degree-2 vertex is suppressed by contracting its two edges; a parallel
  edge created this way is a forced choice between its endpoints (it is the
  shortest cycle, so branching immediately picks one of the two),

and then a fourth rule that prunes the node outright:

* the cycle-rank bound (Beineke & Vandell, *Decycling graphs*, 1997): the
  cycle rank r = E - V + C of the multigraph (E counts edge multiplicities,
  C components) must fall to 0, and deleting a vertex of degree d lowers it
  by at most d - 1, so a node whose remaining k picks cannot cover r with the
  k largest values of deg - 1 among non-forbidden vertices is infeasible.
  The count needs a multigraph without self-loops; the reductions remove
  every loop, and the unreduced search never creates one.

The working representation is a multigraph (contractions create parallel
edges); witnesses always refer to original vertex labels.  Everything is
single-threaded and tie-breaks on smallest vertex label, so results are
reproducible run to run.
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from dataclasses import dataclass

from .bounds import bound_report, cycle_rank_bound, nabla_formula
from .construct import CylinderGadget, extend_with_cylinders
from .errors import (
    BudgetExceededError,
    ConstructionInvariantError,
    GadgetNotFoundError,
    InvalidParameterError,
)
from .graphs import C4XC, FamilySpec, Graph
from .verify import VERIFIED, DecyclingCertificate, VertexSet, residual

ITERATIVE_DEEPENING = "iterative-deepening"
BRANCH_AND_BOUND = "branch-and-bound"


@dataclass
class SolverConfig:
    vertex_budget: int = 64
    node_budget: int = 2_000_000
    mode: str = ITERATIVE_DEEPENING
    use_reductions: bool = True

    def __post_init__(self):
        if self.vertex_budget <= 0 or self.node_budget <= 0:
            raise InvalidParameterError("solver budgets must be positive")
        if self.mode not in (ITERATIVE_DEEPENING, BRANCH_AND_BOUND):
            raise InvalidParameterError(f"unknown solver mode {self.mode!r}")


@dataclass(frozen=True)
class SolverResult:
    minimum: int
    witness: VertexSet
    nodes_explored: int
    elapsed: float


Adj = dict[int, dict[int, int]]  # vertex -> neighbor -> edge multiplicity


def _to_multigraph(g: Graph) -> Adj:
    return {v: {u: 1 for u in g.neighbors(v)} for v in g.vertices()}


def _copy(adj: Adj) -> Adj:
    return {v: dict(nbrs) for v, nbrs in adj.items()}


def _delete(adj: Adj, v: int) -> None:
    for u in adj[v]:
        if u != v:
            del adj[u][v]
    del adj[v]


def _rank_exceeds(adj: Adj, k: int, forbidden: frozenset[int]) -> bool:
    """True when no k non-forbidden deletions can leave a forest.

    Degrees only fall as deletions go on, so the k picks lower the cycle rank
    E - V + C by at most the sum of the k largest current values of deg - 1.
    adj must carry no self-loops.
    """
    degree = {v: sum(nbrs.values()) for v, nbrs in adj.items()}
    gains = sorted(
        (d - 1 for v, d in degree.items() if d > 1 and v not in forbidden),
        reverse=True,
    )
    spare = sum(gains[:k]) - sum(degree.values()) // 2 + len(adj)
    # Prune when spare < C; components are counted only until that shows.
    seen: set[int] = set()
    for root in adj:
        if root in seen:
            continue
        spare -= 1
        if spare < 0:
            return True
        seen.add(root)
        stack = [root]
        while stack:
            for u in adj[stack.pop()]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
    return False


def greedy_decycling(g: Graph) -> VertexSet:
    """Fast valid decycling set: peel leaves, else take a max-degree vertex."""
    adj = _to_multigraph(g)
    chosen: list[int] = []
    while adj:
        low = [v for v, nbrs in adj.items() if sum(nbrs.values()) <= 1]
        if low:
            for v in low:
                _delete(adj, v)
            continue
        v = max(adj, key=lambda w: (sum(adj[w].values()), -w))
        chosen.append(v)
        _delete(adj, v)
    return VertexSet.of(g.n_vertices, chosen)


class _Search:
    def __init__(self, g: Graph, cfg: SolverConfig):
        self.graph = g
        self.cfg = cfg
        self.nodes = 0
        self.best: list[int] | None = None  # branch-and-bound incumbent

    def _tick(self) -> None:
        self.nodes += 1
        if self.nodes > self.cfg.node_budget:
            best = len(self.best) if self.best is not None else None
            raise BudgetExceededError(
                f"node budget {self.cfg.node_budget} exceeded", best_known=best
            )

    def _reduce(
        self, adj: Adj, forbidden: frozenset[int], chosen: list[int], k: int
    ) -> int | None:
        """Apply the reduction rules in place; return remaining budget or None
        when the branch is infeasible.  Forced picks land in chosen."""
        changed = True
        while changed:
            changed = False
            for v in sorted(adj):
                nbrs = adj.get(v)
                if nbrs is None:
                    continue
                if nbrs.get(v, 0):
                    # Self-loop: v lies on a cycle no other vertex can hit.
                    if v in forbidden:
                        return None
                    chosen.append(v)
                    k -= 1
                    _delete(adj, v)
                    if k < 0:
                        return None
                    changed = True
                    continue
                deg = sum(nbrs.values())
                if deg <= 1:
                    _delete(adj, v)
                    changed = True
                    continue
                if deg == 2:
                    if len(nbrs) == 1:
                        # Parallel pair v=a: the 2-cycle must lose a vertex and
                        # a covers every cycle through v.
                        (a,) = nbrs
                        if a not in forbidden:
                            chosen.append(a)
                            k -= 1
                            _delete(adj, a)
                        elif v not in forbidden:
                            chosen.append(v)
                            k -= 1
                            _delete(adj, v)
                        else:
                            return None
                        if k < 0:
                            return None
                        changed = True
                    else:
                        a, b = nbrs
                        # Suppressing v is only lossless if some endpoint could
                        # stand in for it; with both endpoints forbidden and v
                        # free, leave v for the branching step.
                        if v in forbidden or a not in forbidden or b not in forbidden:
                            _delete(adj, v)
                            adj[a][b] = adj[a].get(b, 0) + 1
                            adj[b][a] = adj[b].get(a, 0) + 1
                            changed = True
        return k

    def _find_cycle(self, adj: Adj) -> tuple[int, ...] | None:
        """A currently-shortest cycle of the multigraph, or None for forests."""
        for v in sorted(adj):
            for u in sorted(adj[v]):
                if u > v and adj[v][u] >= 2:
                    return (v, u)
        best: tuple[int, ...] | None = None
        best_len = len(adj) + 1
        for root in sorted(adj):
            if best_len == 3:
                break
            dist = {root: 0}
            parent: dict[int, int | None] = {root: None}
            queue = deque([root])
            while queue:
                v = queue.popleft()
                if 2 * dist[v] >= best_len - 1:
                    break
                for u in sorted(adj[v]):
                    if u not in dist:
                        dist[u] = dist[v] + 1
                        parent[u] = v
                        queue.append(u)
                    elif parent[v] != u:
                        cycle = self._lift(parent, dist, v, u)
                        if len(cycle) < best_len:
                            best, best_len = cycle, len(cycle)
            # exhausted this root
        return best

    @staticmethod
    def _lift(
        parent: dict[int, int | None], dist: dict[int, int], u: int, w: int
    ) -> tuple[int, ...]:
        """Close the non-tree edge u-w into a simple cycle via the BFS tree."""
        pu, pw = [u], [w]
        while dist[pu[-1]] > dist[pw[-1]]:
            pu.append(parent[pu[-1]])
        while dist[pw[-1]] > dist[pu[-1]]:
            pw.append(parent[pw[-1]])
        while pu[-1] != pw[-1]:
            pu.append(parent[pu[-1]])
            pw.append(parent[pw[-1]])
        return tuple(pu + pw[-2::-1])

    def _decide(
        self, adj: Adj, k: int, forbidden: frozenset[int]
    ) -> list[int] | None:
        """A decycling set of size <= k avoiding forbidden, or None."""
        self._tick()
        chosen: list[int] = []
        if self.cfg.use_reductions:
            budget = self._reduce(adj, forbidden, chosen, k)
            if budget is None:
                return None
            k = budget
        if not adj:
            return chosen
        if _rank_exceeds(adj, k, forbidden):
            return None
        cycle = self._find_cycle(adj)
        if cycle is None:
            return chosen
        blocked = set(forbidden)
        for v in sorted(cycle):
            if v in blocked:
                continue
            child = _copy(adj)
            _delete(child, v)
            sub = self._decide(child, k - 1, frozenset(blocked))
            if sub is not None:
                chosen.append(v)
                chosen.extend(sub)
                return chosen
            blocked.add(v)
        return None

    def decide(self, k: int) -> list[int] | None:
        return self._decide(_to_multigraph(self.graph), k, frozenset())

    def _bnb(self, adj: Adj, taken: list[int], forbidden: frozenset[int]) -> None:
        self._tick()
        room = len(self.best) - 1 - len(taken)
        if room < 0:
            return
        chosen = list(taken)
        if self.cfg.use_reductions:
            room = self._reduce(adj, forbidden, chosen, room)
            if room is None:
                return
        if not adj:
            self.best = chosen
            return
        if _rank_exceeds(adj, room, forbidden):
            return
        cycle = self._find_cycle(adj)
        if cycle is None:
            self.best = chosen
            return
        blocked = set(forbidden)
        for v in sorted(cycle):
            if v in blocked:
                continue
            child = _copy(adj)
            _delete(child, v)
            self._bnb(child, chosen + [v], frozenset(blocked))
            blocked.add(v)

    def minimize(self, incumbent: list[int]) -> list[int]:
        self.best = list(incumbent)
        self._bnb(_to_multigraph(self.graph), [], frozenset())
        return self.best


def _component_lower_bound(g: Graph) -> int:
    """Sum of per-component cycle-rank bounds; sound for any simple graph."""
    seen = [False] * g.n_vertices
    total = 0
    for start in g.vertices():
        if seen[start]:
            continue
        comp = [start]
        seen[start] = True
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for u in g.neighbors(v):
                if not seen[u]:
                    seen[u] = True
                    comp.append(u)
                    queue.append(u)
        edges = sum(g.degree(v) for v in comp) // 2
        total += cycle_rank_bound(len(comp), edges, max(g.degree(v) for v in comp))
    return total


def check_vertex_budget(order: int, cfg: SolverConfig) -> None:
    """Refuse a graph of this order when it is over cfg's vertex budget; a
    caller that knows the order before building the graph checks it first."""
    if order > cfg.vertex_budget:
        raise BudgetExceededError(
            f"graph order {order} exceeds vertex budget {cfg.vertex_budget}"
        )


def exists_fvs_of_size(
    g: Graph, k: int, cfg: SolverConfig | None = None
) -> VertexSet | None:
    """A decycling set of size <= k, or None if none exists (complete search)."""
    cfg = cfg or SolverConfig()
    if k < 0 or k > g.n_vertices:
        raise InvalidParameterError(f"k must be in [0, {g.n_vertices}], got {k}")
    check_vertex_budget(g.n_vertices, cfg)
    witness = _Search(g, cfg).decide(k)
    return None if witness is None else VertexSet.of(g.n_vertices, witness)


def min_fvs_exact(
    g: Graph, cfg: SolverConfig | None = None, spec: FamilySpec | None = None
) -> SolverResult:
    """The exact decycling number of g with one witness.

    When the instance is a known family, pass its spec so the search starts
    at the aggregated lower bound; otherwise the per-component cycle-rank
    bound seeds the deepening.  A spec whose vertices' neighbors are not
    exactly g's is rejected, since its bound need not hold for g.
    """
    cfg = cfg or SolverConfig()
    check_vertex_budget(g.n_vertices, cfg)
    if spec is not None and (
        spec.order != g.n_vertices
        or any(g.neighbors(v) != spec.neighbors(v) for v in g.vertices())
    ):
        raise InvalidParameterError("spec does not match the supplied graph")
    start = time.perf_counter()
    search = _Search(g, cfg)
    incumbent = greedy_decycling(g)
    try:
        if cfg.mode == BRANCH_AND_BOUND:
            witness = search.minimize(incumbent.sorted_members())
        else:
            lower = bound_report(spec).best if spec else _component_lower_bound(g)
            witness = None
            for k in range(lower, g.n_vertices + 1):
                witness = search.decide(k)
                if witness is not None:
                    break
            # A witness smaller than k means the seed bound overshot the true
            # minimum (the deepening already refuted every smaller k it tried);
            # push down until a refutation proves optimality.
            while witness and len(witness) < k:
                k = len(witness)
                smaller = search.decide(k - 1)
                if smaller is None:
                    break
                witness = smaller
    except BudgetExceededError as err:
        best = incumbent.cardinality if err.best_known is None else err.best_known
        raise BudgetExceededError(str(err), best_known=best) from None
    result_set = VertexSet.of(g.n_vertices, witness)
    if not residual(g, result_set).is_forest:
        raise ConstructionInvariantError("search returned a set that leaves a cycle")
    return SolverResult(
        minimum=len(witness),
        witness=result_set,
        nodes_explored=search.nodes,
        elapsed=time.perf_counter() - start,
    )


def discover_gadget(
    base_even: DecyclingCertificate, base_odd: DecyclingCertificate
) -> CylinderGadget:
    """Re-derive the two-column cylinder gadget by exhaustive enumeration.

    Tries every 3-of-8 slab pattern in lexicographic cell order, under all
    four row rotations, and returns the first whose appended copies keep the
    chained C4 x Cn certificates acyclic for every n in 6..12.
    """
    for cert, want in ((base_even, 4), (base_odd, 5)):
        if cert.status != VERIFIED:
            raise InvalidParameterError("gadget discovery needs verified base sets")
        if cert.family.kind != C4XC or cert.family.n != want:
            raise InvalidParameterError(
                f"base certificates must be for C4 x C4 and C4 x C5"
            )
    bases = {
        4: base_even.vertex_set.sorted_members(),
        5: base_odd.vertex_set.sorted_members(),
    }

    def survives(gadget: CylinderGadget) -> bool:
        for n in range(6, 13):
            base_n = 4 if n % 2 == 0 else 5
            s = extend_with_cylinders(base_n, bases[base_n], gadget, (n - base_n) // 2)
            if s.cardinality != nabla_formula(FamilySpec.c4xc(n)):
                return False
            if not residual(FamilySpec.c4xc(n), s).is_forest:
                return False
        return True

    for combo in itertools.combinations(range(8), 3):
        cells = [(i // 2, i % 2) for i in combo]
        for t in range(4):
            gadget = CylinderGadget(frozenset(((r + t) % 4, c) for r, c in cells))
            if survives(gadget):
                return gadget
    raise GadgetNotFoundError(
        "no 3-vertex two-column pattern extends the given bases"
    )
