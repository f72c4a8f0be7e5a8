"""Exact minimum feedback-vertex-set search for desk-scale graphs.

The minimum is bracketed by a lower bound lo, seeded with the best known bound,
and the smallest decycling set found.  Each step asks the decision search for
a set of at most k vertices: k = lo while no set is known (iterative deepening,
the default), else one below the set.  The greedy set is built only where it
is read: branch-and-bound starts from it, and a budget error that found no set
reports its size.  A refutation raises lo to k + 1, a success shrinks the set,
so a seed that overshot is pushed down to a refutation.  Optimality assumes
the seed is a true lower bound: the push-down recovers only when a probe
returns a set smaller than asked for.  Deepening on C12^3 seeded 3 high still
reports 7, as its first probe, at k = 9, returns a 7-set; on C4 x C4 seeded at
7, one above its minimum 6, the probe returns a 7-set and 7 is reported.

The decision search branches on a currently-shortest residual cycle (every
decycling set must hit every cycle), trying its vertices by descending
multigraph degree, so a success tends to come on the first branch.  A
parallel pair is such a cycle; otherwise a breadth-first search from each
root closes its non-tree edges with ``verify._close_cycle``, the walk that
also closes the residual witness a rejected certificate prints.  A family
graph is a Cayley graph, hence vertex-transitive: an automorphism maps a
minimum set onto one holding vertex 0.  So when min_fvs_exact is given a
family spec (and only then), asking for k >= 1 vertices deletes vertex 0 and
asks for k - 1.  Branching happens after exhaustively applying three
reductions, in this order at each vertex of a sorted scan:

* one forced pick: a cycle of length <= 2 through v (a self-loop, or a
  parallel pair v=a with v of degree 2) takes v for a loop, else a (which
  covers every cycle through v) or, with a forbidden, v,
* vertices of degree <= 1 are deleted,
* a degree-2 vertex is suppressed by contracting its two edges,

and then two rules that prune the node outright:

* the clique-packing bound: one greedy packing of vertex-disjoint cliques of
  g with at least 4 vertices (on Cn^m, m >= 3, the label windows of m + 1) is
  built per search.  Every step only deletes vertices or adds edges, so each
  clique's survivors stay a clique, which keeps at most 2 vertices; a node is
  infeasible when the sum of max(0, |Q alive| - 2) over the cliques exceeds k.
* the cycle-rank bound (Beineke & Vandell, *Decycling graphs*, 1997): the
  cycle rank r = E - V + C of the multigraph (E counts edge multiplicities,
  C components) must fall to 0, and deleting a vertex of degree d lowers it
  by at most d - 1, so a node whose remaining k picks cannot cover r with the
  k largest values of deg - 1 among non-forbidden vertices is infeasible.
  The same test refutes a child in its parent, which never builds it: child
  v forbids every sibling already blocked, so it is infeasible when deg v - 1
  plus the k - 1 largest gains of the other unblocked vertices is below r.
  The count needs a multigraph without self-loops; the reductions remove
  every loop, and the unreduced search never creates one.

Every deepening level starts from one root reduction per anchoring: with
nothing forbidden, its forced picks do not depend on k.  The working
representation is a multigraph (contractions create parallel edges);
witnesses always refer to original vertex labels.  Everything is
single-threaded and tie-breaks on smallest vertex label, so results are
reproducible run to run.  The C4 x Cn gadget search lives in construct, with
the constructions it regenerates.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .bounds import bound_report, cycle_rank_bound
# Re-exported: the gadget search lives in construct, but tests import it here.
from .construct import discover_gadget  # noqa: F401
from .errors import (
    BudgetExceededError,
    ConstructionInvariantError,
    InvalidParameterError,
)
from .graphs import FamilySpec, Graph
from .verify import VertexSet, _close_cycle, _union_find, residual

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


def _rank_test(
    adj: Adj, k: int, forbidden: frozenset[int]
) -> tuple[dict[int, int], list[int], int] | None:
    """None when no k non-forbidden deletions can leave a forest; otherwise
    (degree, gains, rank): each vertex's multigraph degree, deg - 1 of the
    non-forbidden vertices of degree > 1 in descending order, and the cycle
    rank E - V + C.

    Degrees only fall as deletions go on, so the k picks lower the rank by at
    most the sum of the k largest gains.  adj must carry no self-loops.
    """
    degree = {v: sum(nbrs.values()) for v, nbrs in adj.items()}
    gains = sorted(
        (d - 1 for v, d in degree.items() if d > 1 and v not in forbidden),
        reverse=True,
    )
    cover = sum(gains[:k])
    spare = cover - sum(degree.values()) // 2 + len(adj)
    # Prune when spare < C; components are counted only until that shows.
    seen: set[int] = set()
    for root in adj:
        if root in seen:
            continue
        spare -= 1
        if spare < 0:
            return None
        seen.add(root)
        stack = [root]
        while stack:
            for u in adj[stack.pop()]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
    return degree, gains, cover - spare


def _clique_packing(g: Graph) -> list[tuple[int, ...]]:
    """Disjoint cliques of >= 4 vertices, each grown in label order from its least."""
    adj, used, packing = g.adjacency, set(), []
    for v, nbrs in enumerate(adj):
        # The clique needs three neighbors above v; nbrs is sorted.
        if v in used or len(nbrs) < 3 or nbrs[-3] < v:
            continue
        clique, common = [v], set(nbrs)  # common: adjacent to every member
        for u in nbrs:
            if u > v and u in common and u not in used:
                clique.append(u)
                common.intersection_update(adj[u])
        if len(clique) >= 4:
            used.update(clique)
            packing.append(tuple(clique))
    return packing


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
    def __init__(self, g: Graph, cfg: SolverConfig, anchor: bool = False):
        self.graph = g
        self.cfg = cfg
        self.anchor = anchor  # g is vertex-transitive: some minimum set holds 0
        self.nodes = 0
        self.packing = _clique_packing(g)
        self._kernels: dict[bool, tuple[Adj, list[int]]] = {}  # anchored -> root

    def _tick(self) -> None:
        self.nodes += 1
        if self.nodes > self.cfg.node_budget:
            raise BudgetExceededError(f"node budget {self.cfg.node_budget} exceeded")

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
                # No rule fires at three distinct neighbours and no loop.
                if nbrs is None or (len(nbrs) > 2 and v not in nbrs):
                    continue
                deg = sum(nbrs.values())
                if v in nbrs or (deg == 2 and len(nbrs) == 1):
                    # A loop at v or a parallel pair v=a is a cycle that must
                    # lose a vertex; for a pair, a covers every cycle through v.
                    forced = (v,) if v in nbrs else (*nbrs, v)
                    pick = next((w for w in forced if w not in forbidden), None)
                    if pick is None or k <= 0:
                        return None
                    chosen.append(pick)
                    k -= 1
                    _delete(adj, pick)
                    changed = True
                elif deg <= 1:
                    _delete(adj, v)
                    changed = True
                elif deg == 2:
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
        pair = min(((v, u) for v, nbrs in adj.items() for u, c in nbrs.items()
                    if c > 1 and u > v), default=None)
        if pair is not None:
            return pair
        best: tuple[int, ...] | None = None
        best_len = len(adj) + 1
        for root in sorted(adj):
            if best_len == 3:
                break
            parent, dist = {root: root}, {root: 0}
            frontier = [root]
            for v in frontier:
                if 2 * dist[v] >= best_len - 1:
                    break
                for u in sorted(adj[v]):
                    if u not in dist:
                        dist[u] = dist[v] + 1
                        parent[u] = v
                        frontier.append(u)
                    elif parent[v] != u:
                        # u is not nearer the root: such a u closed a cycle of
                        # <= 2 * dist[v] from its own scan, so the break came first.
                        cycle = _close_cycle(parent, dist, v, u)
                        if len(cycle) < best_len:
                            best, best_len = cycle, len(cycle)
        return best

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
        return self._branch(adj, k, forbidden, chosen)

    def _branch(self, adj: Adj, k: int, forbidden: frozenset[int],
                chosen: list[int]) -> list[int] | None:
        """Finish a reduced node: prune it or branch; adj is only read."""
        if not adj:
            return chosen
        need = sum(max(0, sum(map(adj.__contains__, q)) - 2) for q in self.packing)
        ranked = None if need > k else _rank_test(adj, k, forbidden)
        if ranked is None:
            return None
        degree, gains, rank = ranked
        cycle = self._find_cycle(adj)
        if cycle is None:
            return chosen
        blocked = set(forbidden)
        for v in sorted(cycle, key=lambda w: (-degree[w], w)):
            if v in blocked:
                continue
            # gains holds v's gain and no blocked vertex's.  The child's rank
            # test fails unless v's gain plus the k - 1 largest others covers
            # the rank, so such a child is refuted here.
            gain, top = degree[v] - 1, gains[:k]
            if gain + sum(top) - max(gain, top[-1]) >= rank:
                child = _copy(adj)
                _delete(child, v)
                sub = self._decide(child, k - 1, frozenset(blocked))
                if sub is not None:
                    chosen.append(v)
                    chosen.extend(sub)
                    return chosen
            blocked.add(v)
            gains.remove(gain)
        return None

    def decide(self, k: int) -> list[int] | None:
        self._tick()
        anchored = self.anchor and k >= 1
        if anchored not in self._kernels:
            # Nothing is forbidden, so the forced picks do not depend on k.
            adj = _to_multigraph(self.graph)
            if anchored:
                _delete(adj, 0)
            forced: list[int] = []
            if self.cfg.use_reductions:
                self._reduce(adj, frozenset(), forced, len(adj))
            self._kernels[anchored] = adj, forced
        adj, forced = self._kernels[anchored]
        k -= anchored + len(forced)
        found = None if k < 0 else self._branch(adj, k, frozenset(), [*forced])
        return None if found is None else [0] * anchored + found


def _component_lower_bound(g: Graph) -> int:
    """Sum of per-component cycle-rank bounds; sound for any simple graph."""
    parent = list(range(g.n_vertices))
    _union_find(g.edges(), [True] * g.n_vertices, parent)
    tally: dict[int, tuple[int, int, int]] = {}  # root -> order, degree sum, max
    for v in g.vertices():
        root, d = v, g.degree(v)
        while parent[root] != root:
            root = parent[root]
        order, total, top = tally.get(root, (0, 0, 0))
        tally[root] = (order + 1, total + d, max(top, d))
    return sum(cycle_rank_bound(o, t // 2, top) for o, t, top in tally.values())


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
    bound seeds the search.  A spec whose vertices' neighbors are not
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
    search = _Search(g, cfg, anchor=spec is not None)
    lo = bound_report(spec).best if spec else _component_lower_bound(g)
    bnb = cfg.mode == BRANCH_AND_BOUND
    witness = greedy_decycling(g).sorted_members() if bnb else None
    try:
        # A witness below lo means the seed overshot; the probes below it push
        # down to a refutation.  An empty witness is minimal and ends the loop.
        while witness is None or 0 < len(witness) != lo:
            k = lo if witness is None else len(witness) - 1
            found = search.decide(k)
            if found is None:
                lo = k + 1
            else:
                witness = found
    except BudgetExceededError as err:
        upper = greedy_decycling(g).cardinality if witness is None else len(witness)
        best = upper if err.best_known is None else err.best_known
        raise BudgetExceededError(str(err), best_known=best, proved=lo) from None
    result_set = VertexSet.of(g.n_vertices, witness)
    if not residual(g, result_set).is_forest:
        raise ConstructionInvariantError("search returned a set that leaves a cycle")
    return SolverResult(
        minimum=len(witness),
        witness=result_set,
        nodes_explored=search.nodes,
        elapsed=time.perf_counter() - start,
    )
