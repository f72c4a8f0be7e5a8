import functools
import itertools
import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import naive_has_cycle, naive_min_fvs
from decycling import solver
from decycling.bounds import bound_report, cycle_rank_bound
from decycling.construct import CYLINDER_GADGET, decycle_c4xn, decycle_cn2, nabla_formula
from decycling.errors import (
    BudgetExceededError,
    ConstructionInvariantError,
    InvalidParameterError,
)
from decycling.graphs import (
    FamilySpec,
    Graph,
    cartesian_product,
    graph_power,
    make_cycle,
    realize,
)
from decycling.solver import (
    SolverConfig,
    _component_lower_bound,
    _Search,
    discover_gadget,
    exists_fvs_of_size,
    greedy_decycling,
    min_fvs_exact,
)
from decycling.verify import _close_cycle, residual


def test_minimum_of_complete_graph():
    k5 = graph_power(make_cycle(5), 2)
    assert min_fvs_exact(k5).minimum == 3


def test_minimum_of_c4_torus():
    spec = FamilySpec.c4xc(4)
    result = min_fvs_exact(realize(spec), spec=spec)
    assert result.minimum == 6
    assert residual(realize(spec), result.witness).is_forest


def test_minimum_of_cube_power_eleven():
    spec = FamilySpec.pow3(11)
    assert min_fvs_exact(realize(spec), spec=spec).minimum == 7


def test_exists_fvs_of_size_examples():
    c5 = make_cycle(5)
    assert exists_fvs_of_size(c5, 0) is None
    witness = exists_fvs_of_size(c5, 1)
    assert witness is not None and witness.cardinality == 1
    nine_sq = realize(FamilySpec.pow2(9))
    assert exists_fvs_of_size(nine_sq, 3) is None
    assert exists_fvs_of_size(nine_sq, 4) is not None


def test_exists_fvs_of_size_validates_k():
    with pytest.raises(InvalidParameterError):
        exists_fvs_of_size(make_cycle(5), -1)
    with pytest.raises(InvalidParameterError):
        exists_fvs_of_size(make_cycle(5), 6)


def test_agrees_with_subset_enumeration():
    instances = [
        make_cycle(7),
        graph_power(make_cycle(6), 2),
        Graph.from_edges(7, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3), (5, 6)]),
        Graph.from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]),
        Graph.from_edges(5, []),
    ]
    for g in instances:
        expected, _ = naive_min_fvs(g)
        assert min_fvs_exact(g).minimum == expected, g.adjacency


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_agrees_with_subset_enumeration_on_random_graphs(data):
    n = data.draw(st.integers(3, 8))
    pairs = list(itertools.combinations(range(n), 2))
    edges = data.draw(st.lists(st.sampled_from(pairs), max_size=2 * n, unique=True))
    g = Graph.from_edges(n, edges)
    expected, _ = naive_min_fvs(g)
    for mode in ("iterative-deepening", "branch-and-bound"):
        assert min_fvs_exact(g, SolverConfig(mode=mode)).minimum == expected


def test_agrees_with_subset_enumeration_on_the_grid():
    # every acceptance-grid instance small enough for full enumeration
    grid = [FamilySpec.c3xc(3), FamilySpec.c3xc(4)]
    grid += [FamilySpec.pow2(n) for n in range(4, 15)]
    grid += [FamilySpec.pow3(n) for n in range(5, 15)]
    for spec in grid:
        g = realize(spec)
        assert g.n_vertices <= 14
        expected, _ = naive_min_fvs(g)
        assert min_fvs_exact(g, spec=spec).minimum == expected, spec


def test_witness_is_always_a_decycling_set():
    for spec in (FamilySpec.c3xc(5), FamilySpec.c4xc(5), FamilySpec.pow3(10)):
        g = realize(spec)
        result = min_fvs_exact(g, spec=spec)
        assert residual(g, result.witness).is_forest
        assert result.witness.cardinality == result.minimum
        assert result.nodes_explored >= 1
        assert result.elapsed >= 0.0


def test_runs_are_reproducible():
    spec = FamilySpec.c4xc(5)
    g = realize(spec)
    a = min_fvs_exact(g, spec=spec)
    b = min_fvs_exact(g, spec=spec)
    assert a.minimum == b.minimum
    assert a.witness == b.witness
    assert a.nodes_explored == b.nodes_explored


def test_modes_and_reductions_agree():
    cases = [
        realize(FamilySpec.c3xc(4)),
        realize(FamilySpec.pow2(9)),
        realize(FamilySpec.pow3(8)),
        realize(FamilySpec.c4xc(4)),
        make_cycle(7),
    ]
    for g in cases:
        values = {
            min_fvs_exact(g, SolverConfig(mode=mode, use_reductions=red)).minimum
            for mode in ("iterative-deepening", "branch-and-bound")
            for red in (True, False)
        }
        assert len(values) == 1, g.adjacency


def test_node_budget_is_enforced():
    g = realize(FamilySpec.c4xc(5))
    with pytest.raises(BudgetExceededError) as info:
        min_fvs_exact(g, SolverConfig(node_budget=3), spec=FamilySpec.c4xc(5))
    assert info.value.best_known is not None


def test_vertex_budget_is_enforced():
    g = realize(FamilySpec.c4xc(20))
    with pytest.raises(BudgetExceededError):
        min_fvs_exact(g, SolverConfig(vertex_budget=64))


def test_solver_config_validation():
    with pytest.raises(InvalidParameterError):
        SolverConfig(node_budget=0)
    with pytest.raises(InvalidParameterError):
        SolverConfig(mode="guess")


def test_spec_mismatch_is_rejected():
    with pytest.raises(InvalidParameterError):
        min_fvs_exact(make_cycle(5), spec=FamilySpec.pow2(9))


def test_greedy_decycling_is_valid():
    for spec in (FamilySpec.c3xc(6), FamilySpec.c4xc(7), FamilySpec.pow3(12)):
        g = realize(spec)
        s = greedy_decycling(g)
        assert residual(g, s).is_forest
        assert s == greedy_decycling(g)


def test_exists_fvs_without_reductions():
    cfg = SolverConfig(use_reductions=False)
    nine_sq = realize(FamilySpec.pow2(9))
    assert exists_fvs_of_size(nine_sq, 3, cfg) is None
    witness = exists_fvs_of_size(nine_sq, 4, cfg)
    assert witness is not None
    assert residual(nine_sq, witness).is_forest


def test_branch_and_bound_budget_error():
    g = realize(FamilySpec.c4xc(5))
    with pytest.raises(BudgetExceededError) as info:
        min_fvs_exact(g, SolverConfig(node_budget=2, mode="branch-and-bound"))
    assert info.value.best_known is not None


def test_reduction_forces_self_loop_vertices():
    # Hand-built multigraph: a self-loop at 0 hanging off a path.
    engine = _Search(make_cycle(3), SolverConfig())
    adj = {0: {0: 1, 1: 1}, 1: {0: 1, 2: 1}, 2: {1: 1}}
    chosen = []
    left = engine._reduce(adj, frozenset(), chosen, 2)
    assert chosen == [0]
    assert left == 1
    assert not adj
    # the same loop on a forbidden vertex kills the branch
    adj = {0: {0: 1}}
    assert engine._reduce(adj, frozenset({0}), [], 2) is None


def test_reduction_forces_one_end_of_a_parallel_pair():
    # 0 has degree 2 through a double edge to 1, and 1 also carries 1-2: the
    # pair must lose a vertex, 1 covers every cycle through 0, so 1 goes first.
    engine = _Search(make_cycle(3), SolverConfig())

    def pair():
        return {0: {1: 2}, 1: {0: 2, 2: 1}, 2: {1: 1}}

    chosen = []
    assert engine._reduce(pair(), frozenset(), chosen, 1) == 0 and chosen == [1]
    chosen = []
    assert engine._reduce(pair(), frozenset({1}), chosen, 1) == 0 and chosen == [0]
    assert engine._reduce(pair(), frozenset({0, 1}), [], 1) is None
    assert engine._reduce(pair(), frozenset(), [], 0) is None


def test_reduction_collapses_cycles_through_forbidden_vertices():
    # Triangle with both of 0's neighbors forbidden: contraction of the
    # forbidden pair turns the cycle into a forced pick of 0.
    engine = _Search(make_cycle(3), SolverConfig())
    adj = {0: {1: 1, 2: 1}, 1: {0: 1, 2: 1}, 2: {0: 1, 1: 1}}
    chosen = []
    left = engine._reduce(adj, frozenset({1, 2}), chosen, 2)
    assert left == 1 and chosen == [0]
    assert not adj


def test_degree_two_suppression_skips_free_vertex_between_forbidden():
    # Two triangles 0-1-2 and 1-2-3 sharing the forbidden edge 1-2: neither
    # free degree-2 vertex may be contracted away, and both must be picked.
    g = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    engine = _Search(g, SolverConfig())
    adj = {v: {u: 1 for u in g.neighbors(v)} for v in g.vertices()}
    chosen = []
    left = engine._reduce(adj, frozenset({1, 2}), chosen, 3)
    assert left == 3 and chosen == []
    assert set(adj) == {0, 1, 2, 3}
    assert engine._decide(adj, 1, frozenset({1, 2})) is None
    adj = {v: {u: 1 for u in g.neighbors(v)} for v in g.vertices()}
    assert sorted(engine._decide(adj, 2, frozenset({1, 2}))) == [0, 3]


def test_decide_reports_unhittable_cycles():
    engine = _Search(make_cycle(3), SolverConfig())
    adj = {0: {1: 1, 2: 1}, 1: {0: 1, 2: 1}, 2: {0: 1, 1: 1}}
    assert engine._decide(adj, 3, frozenset({0, 1, 2})) is None


def test_discover_gadget_regenerates_stored_pattern():
    gadget = discover_gadget(decycle_c4xn(4), decycle_c4xn(5))
    assert gadget == CYLINDER_GADGET


def test_discover_gadget_preconditions():
    good4, good5 = decycle_c4xn(4), decycle_c4xn(5)
    from dataclasses import replace

    with pytest.raises(InvalidParameterError):
        discover_gadget(replace(good4, status="unverified"), good5)
    with pytest.raises(InvalidParameterError):
        discover_gadget(good4, decycle_c4xn(7))
    with pytest.raises(InvalidParameterError):
        discover_gadget(decycle_cn2(10), good5)


def test_spec_for_a_different_graph_of_the_same_order_is_rejected():
    # 16 vertices like C4 x C4, but its true minimum is 5; seeding the
    # deepening with the torus bound of 6 would report 6.
    pairs = list(itertools.combinations(range(16), 2))
    g = Graph.from_edges(16, random.Random(0).sample(pairs, 32))
    assert min_fvs_exact(g).minimum == 5
    with pytest.raises(InvalidParameterError):
        min_fvs_exact(g, spec=FamilySpec.c4xc(4))


def test_witness_that_leaves_a_cycle_raises(monkeypatch):
    monkeypatch.setattr(_Search, "decide", lambda self, k: [])
    with pytest.raises(ConstructionInvariantError):
        min_fvs_exact(make_cycle(5))


def test_budget_error_keeps_a_best_known_bound_of_zero(monkeypatch):
    def exhausted(self, k):
        raise BudgetExceededError("node budget exceeded", best_known=0)

    monkeypatch.setattr(_Search, "decide", exhausted)
    with pytest.raises(BudgetExceededError) as info:
        min_fvs_exact(make_cycle(5))
    assert info.value.best_known == 0


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_decide_with_forbidden_vertices_agrees_with_subset_enumeration(data):
    n = data.draw(st.integers(2, 8))
    pairs = list(itertools.combinations(range(n), 2))
    edges = data.draw(st.lists(st.sampled_from(pairs), max_size=2 * n, unique=True))
    forbidden = frozenset(data.draw(st.sets(st.integers(0, n - 1), max_size=n)))
    k = data.draw(st.integers(0, n))
    _assert_decide_agrees_with_subset_enumeration(Graph.from_edges(n, edges), forbidden, k)


def _assert_decide_agrees_with_subset_enumeration(g, forbidden, k):
    free = [v for v in g.vertices() if v not in forbidden]
    expected = any(
        not naive_has_cycle(g, frozenset(combo))
        for size in range(min(k, len(free)) + 1)
        for combo in itertools.combinations(free, size)
    )
    for use_reductions in (True, False):
        engine = _Search(g, SolverConfig(use_reductions=use_reductions))
        adj = {v: {u: 1 for u in g.neighbors(v)} for v in g.vertices()}
        found = engine._decide(adj, k, forbidden)
        assert (found is not None) == expected, (g.adjacency, sorted(forbidden), k)
        if found is not None:
            assert len(found) <= k and not forbidden & set(found)
            assert not naive_has_cycle(g, frozenset(found))


def test_oracle_confirms_formula_beyond_the_acceptance_grid():
    cfg = SolverConfig(node_budget=20_000)
    for spec in [FamilySpec.c3xc(n) for n in (14, 15, 16)] + [
        FamilySpec.c4xc(n) for n in (10, 11)
    ]:
        result = min_fvs_exact(realize(spec), cfg, spec=spec)
        assert result.minimum == nabla_formula(spec), spec


def test_branch_and_bound_stops_when_the_greedy_set_meets_the_seed_bound():
    # The greedy set of C4 x C9 has 14 vertices, the seed bound is 14: no
    # search node is needed, so a small budget suffices.
    spec = FamilySpec.c4xc(9)
    cfg = SolverConfig(mode="branch-and-bound", node_budget=1_000)
    result = min_fvs_exact(realize(spec), cfg, spec=spec)
    assert result.minimum == 14
    assert residual(spec, result.witness).is_forest


@pytest.mark.parametrize("mode", ["iterative-deepening", "branch-and-bound"])
def test_a_seed_above_the_minimum_is_pushed_down(monkeypatch, mode):
    # Seeded at 11, decide(11) on C4 x C5 returns a 9-set; only probing below
    # the witness until a refutation reaches the true minimum 8.
    import types

    import decycling.solver as solver

    real = solver.bound_report
    monkeypatch.setattr(
        solver, "bound_report", lambda spec: types.SimpleNamespace(best=real(spec).best + 3)
    )
    spec = FamilySpec.c4xc(5)
    result = min_fvs_exact(realize(spec), SolverConfig(mode=mode), spec=spec)
    assert result.minimum == 8 and result.witness.cardinality == 8


@pytest.mark.parametrize("spec, seed, probes, reported", [
    # The first probe returns a set below the seed, so the loop pushes down.
    (FamilySpec.pow3(12), 9, [(9, 7), (6, None)], 7),
    # The probe returns a set of exactly the seed's size: nothing is probed
    # below it, and a seed one above the minimum is reported as the minimum.
    (FamilySpec.c4xc(4), 7, [(7, 7)], 7),
    (FamilySpec.c4xc(6), 10, [(10, 10)], 10),
    (FamilySpec.c4xc(8), 13, [(13, 13)], 13),
])
def test_deepening_from_an_overshot_seed(monkeypatch, spec, seed, probes, reported):
    import types

    monkeypatch.setattr(solver, "bound_report", lambda spec: types.SimpleNamespace(best=seed))
    seen = []
    real = _Search.decide

    def spy(self, k):
        found = real(self, k)
        seen.append((k, None if found is None else len(found)))
        return found

    monkeypatch.setattr(_Search, "decide", spy)
    assert min_fvs_exact(realize(spec), spec=spec).minimum == reported
    assert seen == probes


def test_greedy_set_is_built_only_where_it_is_read(monkeypatch):
    calls = []
    real = solver.greedy_decycling

    def spy(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(solver, "greedy_decycling", spy)
    g = realize(FamilySpec.c4xc(5))
    assert min_fvs_exact(g).minimum == 8
    assert calls == []  # deepening that finishes never reads it
    with pytest.raises(BudgetExceededError) as info:
        min_fvs_exact(g, SolverConfig(node_budget=3))
    assert calls == [g] and info.value.best_known == real(g).cardinality
    calls.clear()
    assert min_fvs_exact(g, SolverConfig(mode="branch-and-bound")).minimum == 8
    assert calls == [g]


def _bfs_component_lower_bound(g):
    # The per-component tally by breadth-first search that the union-find
    # version replaced.
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


def test_component_lower_bound_matches_a_breadth_first_tally():
    rng = random.Random(20261018)
    graphs = [Graph.from_edges(0, []), Graph.from_edges(6, [])]
    for _ in range(300):
        n = rng.randint(1, 40)
        pairs = list(itertools.combinations(range(n), 2))
        m = rng.randint(0, min(len(pairs), 2 * n))
        graphs.append(Graph.from_edges(n, rng.sample(pairs, m)))
    for g in graphs:
        assert _component_lower_bound(g) == _bfs_component_lower_bound(g), g


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_component_lower_bound_never_exceeds_the_minimum(data):
    n = data.draw(st.integers(2, 8))
    pairs = list(itertools.combinations(range(n), 2))
    edges = data.draw(st.lists(st.sampled_from(pairs), max_size=len(pairs), unique=True))
    g = Graph.from_edges(n, edges)
    assert _component_lower_bound(g) <= naive_min_fvs(g)[0], edges


def _small_family_instances(max_order):
    specs = [FamilySpec(kind, n) for kind in ("c3xc", "c4xc", "pow2", "pow3")
             for n in range(3, max_order + 1)
             if n >= {"c3xc": 3, "c4xc": 4, "pow2": 4, "pow3": 5}[kind]]
    # Every power m >= n // 2 gives the complete graph.
    specs += [FamilySpec.powm(n, m) for n in range(3, max_order + 1)
              for m in range(1, n // 2 + 1)]
    return [spec for spec in specs if spec.order <= max_order]


def test_seed_bounds_never_exceed_the_minimum_on_small_family_instances():
    minima = {}
    for spec in _small_family_instances(14):
        g = realize(spec)
        if g.adjacency not in minima:
            minima[g.adjacency] = naive_min_fvs(g)[0]
        assert bound_report(spec).best <= minima[g.adjacency], spec


@functools.cache
def _enumerated_minimum(g):
    return naive_min_fvs(g)[0]


@pytest.mark.parametrize("mode", ["iterative-deepening", "branch-and-bound"])
def test_anchored_family_minima_agree_with_subset_enumeration(mode):
    # A spec lets the search put vertex 0 in the set, which is sound only
    # because every family graph is vertex-transitive.
    for spec in _small_family_instances(14):
        g = realize(spec)
        result = min_fvs_exact(g, SolverConfig(mode=mode), spec=spec)
        assert result.minimum == _enumerated_minimum(g), spec
        assert residual(g, result.witness).is_forest, spec
    spec = FamilySpec.c4xc(4)
    assert min_fvs_exact(realize(spec), SolverConfig(mode=mode), spec=spec).minimum == 6


def test_no_anchor_without_a_spec():
    # Vertex 0 is a pendant on the triangle 1-2-3, so no minimum set holds it.
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (1, 3)])
    for mode in ("iterative-deepening", "branch-and-bound"):
        result = min_fvs_exact(g, SolverConfig(mode=mode))
        assert result.minimum == 1 and 0 not in result.witness.members, mode


@pytest.mark.parametrize(
    "spec, most",
    [(FamilySpec.c3xc(16), 50), (FamilySpec.c4xc(12), 50), (FamilySpec.pow3(24), 1_100)],
)
def test_family_search_node_counts(spec, most):
    # Node counts are deterministic.  Branching in label order, the anchored
    # search needs 13,033 / 40,981 / 1,874 nodes here; without the anchor,
    # degree order needs 17 / 19 / 1,738.
    result = min_fvs_exact(realize(spec), spec=spec)
    assert result.minimum == nabla_formula(spec)
    assert result.nodes_explored <= most, result.nodes_explored


def _octahedron():
    # K_{2,2,2}: every vertex lies on four triangles, but no K4 exists.
    pairs = itertools.combinations(range(6), 2)
    return Graph.from_edges(6, [(u, v) for u, v in pairs if (u, v) not in ((0, 1), (2, 3), (4, 5))])


def test_clique_packing_is_the_label_windows_on_cycle_powers():
    for m in range(3, 7):
        for n in range(2 * m + 2, 41):
            windows = [tuple(range(s, min(s + m + 1, n))) for s in range(0, n, m + 1)]
            packing = solver._clique_packing(realize(FamilySpec.powm(n, m)))
            assert packing == [w for w in windows if len(w) >= 4], (n, m)
    specs = [FamilySpec.c3xc(n) for n in range(3, 17)]
    specs += [FamilySpec.c4xc(n) for n in range(4, 13)]
    specs += [FamilySpec.pow2(n) for n in range(6, 49)]
    for g in [realize(spec) for spec in specs] + [_octahedron()]:
        assert solver._clique_packing(g) == [], g.n_vertices


def _dense_graph(data, smallest):
    n = data.draw(st.integers(smallest, 9))
    pairs = list(itertools.combinations(range(n), 2))
    dropped = data.draw(st.sets(st.sampled_from(pairs), max_size=len(pairs) // 2))
    return Graph.from_edges(n, [pair for pair in pairs if pair not in dropped])


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_dense_graphs_agree_with_subset_enumeration(data):
    # At least half of all pairs are edges, so most draws hold a K4 and the
    # clique-packing prune fires; the other random tests rarely draw one.
    g = _dense_graph(data, 4)
    expected = _enumerated_minimum(g)
    for mode in ("iterative-deepening", "branch-and-bound"):
        for use_reductions in (True, False):
            cfg = SolverConfig(mode=mode, use_reductions=use_reductions)
            result = min_fvs_exact(g, cfg)
            assert result.minimum == expected, (g.adjacency, mode, use_reductions)
            assert residual(g, result.witness).is_forest


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_decide_with_forbidden_vertices_agrees_on_dense_graphs(data):
    g = _dense_graph(data, 2)
    n = g.n_vertices
    forbidden = frozenset(data.draw(st.sets(st.integers(0, n - 1), max_size=n)))
    k = data.draw(st.integers(0, n))
    _assert_decide_agrees_with_subset_enumeration(g, forbidden, k)


def test_clique_packing_prune_changes_no_answer(monkeypatch):
    # The prune only cuts infeasible subtrees and leaves the branch order
    # alone, so minimum and witness match the search without it.
    rng = random.Random(20261019)
    cases = [(realize(spec), spec) for spec in [FamilySpec.pow3(n) for n in range(5, 33)]
             + [FamilySpec.powm(n, m) for m in (3, 4, 5) for n in range(2 * m + 2, 25)]]
    for _ in range(40):
        n = rng.randint(6, 14)
        pairs = list(itertools.combinations(range(n), 2))
        cases.append((Graph.from_edges(n, rng.sample(pairs, rng.randint(len(pairs) // 2, len(pairs)))), None))
    pruned = [min_fvs_exact(g, spec=spec) for g, spec in cases]
    monkeypatch.setattr(solver, "_clique_packing", lambda g: [])
    for (g, spec), with_prune in zip(cases, pruned):
        plain = min_fvs_exact(g, spec=spec)
        assert (with_prune.minimum, with_prune.witness) == (plain.minimum, plain.witness), spec
        assert with_prune.nodes_explored <= plain.nodes_explored, spec


def test_each_search_builds_its_root_multigraph_once(monkeypatch):
    calls = []
    real = solver._to_multigraph

    def spy(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(solver, "_to_multigraph", spy)
    spec = FamilySpec.pow3(24)
    g = realize(spec)
    # Seeded at 12 with a spec (two anchored levels) and at the cycle-rank
    # bound 10 without one (four levels); the minimum is 13 either way.
    assert min_fvs_exact(g, spec=spec).minimum == 13
    assert calls == [g]
    calls.clear()
    assert _component_lower_bound(g) == 10 and min_fvs_exact(g).minimum == 13
    assert calls == [g]


def test_an_anchored_search_has_one_root_and_refutes_k_zero(monkeypatch):
    calls = []
    real = solver._to_multigraph

    def spy(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(solver, "_to_multigraph", spy)
    g = realize(FamilySpec.pow3(12))
    search = _Search(g, SolverConfig(), anchor=True)
    # Vertex 0 is the root's first forced pick, so k = 0 is refuted at once;
    # the graph has a cycle, so an unanchored probe would refute it too.
    assert search.decide(0) is None and search.nodes == 1
    found = search.decide(7)
    assert found is not None and found[0] == 0
    assert not naive_has_cycle(g, frozenset(found))
    assert calls == [g]


def test_the_root_is_reduced_once_before_any_probe():
    # Triangles 0-1-2 and 2-3-4 share 2, and 5 hangs off 0.  Suppressing 1
    # and 3 leaves the pairs 0=2 and 2=4; 2 covers both, so the root reduces
    # to nothing with 2 forced, and no probe branches.  On a family of degree
    # >= 4 no rule fires at the root, even with 0 deleted, so the node counts
    # of family searches do not show whether it was reduced.
    g = Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4), (0, 5)])
    search = _Search(g, SolverConfig())
    assert (search.root, search.forced) == ({}, [2])
    assert search.decide(0) is None and search.decide(1) == [2]
    assert search.nodes == 2


@pytest.mark.parametrize(
    "spec, minimum, most",
    [(FamilySpec.pow3(24), 13, 250), (FamilySpec.pow3(40), 21, 1_500),
     (FamilySpec.powm(30, 4), 19, 2_000)],
)
def test_clique_packing_node_counts(spec, minimum, most):
    # Without the packing prune these need 998 / 46,968 / 15,992 nodes: the
    # level one below the minimum is refuted by exhaustive search.
    result = min_fvs_exact(realize(spec), spec=spec)
    assert result.minimum == minimum == bound_report(spec).best + 1
    assert result.nodes_explored <= most, result.nodes_explored


def test_oracle_confirms_the_cube_power_plus_one_when_four_divides_n():
    # The paper's Cn^3 value is n/2 + 1 for n = 0 mod 4, one above every
    # lower bound here, so the oracle must refute n/2 by search.
    cfg = SolverConfig(node_budget=2_000)
    for n in range(8, 41, 4):
        spec = FamilySpec.pow3(n)
        result = min_fvs_exact(realize(spec), cfg, spec=spec)
        assert result.minimum == nabla_formula(spec) == bound_report(spec).best + 1 == n // 2 + 1


def test_budget_error_states_the_proved_lower_bound(monkeypatch):
    spec = FamilySpec.pow3(40)
    with pytest.raises(BudgetExceededError) as info:
        min_fvs_exact(realize(spec), SolverConfig(node_budget=100), spec=spec)
    assert (info.value.proved, info.value.best_known) == (20, 21)
    probes = []

    def refute_then_run_out(self, k):
        probes.append(k)
        if len(probes) == 1:
            return None
        raise BudgetExceededError("node budget exceeded")

    monkeypatch.setattr(_Search, "decide", refute_then_run_out)
    with pytest.raises(BudgetExceededError) as info:
        min_fvs_exact(make_cycle(5))
    assert probes == [1, 2] and info.value.proved == 2


@st.composite
def small_multigraphs(draw):
    """Loop-free multigraphs on at most 8 labels out of 0..11, as solver
    adjacency; about half of them carry parallel edges."""
    labels = sorted(draw(st.sets(st.integers(0, 11), min_size=1, max_size=8)))
    pairs = list(itertools.combinations(labels, 2))
    edges = draw(st.lists(st.sampled_from(pairs), max_size=12, unique=True)) if pairs else []
    top = 3 if draw(st.booleans()) else 1
    adj = {v: {} for v in labels}
    for u, v in edges:
        adj[u][v] = adj[v][u] = draw(st.integers(1, top))
    return adj


def _brute_force_girth(adj):
    """Length of a shortest cycle, trying vertex sequences shortest first
    (2 for a parallel pair); None on forests."""
    if any(c > 1 for nbrs in adj.values() for c in nbrs.values()):
        return 2
    for length in range(3, len(adj) + 1):
        for first, *rest in itertools.combinations(sorted(adj), length):
            for order in itertools.permutations(rest):
                walk = (first, *order, first)
                if all(b in adj[a] for a, b in zip(walk, walk[1:])):
                    return length
    return None


@settings(max_examples=300, deadline=None)
@given(small_multigraphs())
def test_the_branching_cycle_is_a_shortest_cycle(adj):
    cycle = _Search(Graph(()), SolverConfig())._find_cycle(adj)
    girth = _brute_force_girth(adj)
    if girth is None:
        assert cycle is None, adj
        return
    assert cycle is not None and len(cycle) == len(set(cycle)) == girth, (adj, cycle)
    if girth == 2:
        assert adj[cycle[0]][cycle[1]] > 1, (adj, cycle)
    else:
        assert all(b in adj[a] for a, b in zip(cycle, cycle[1:] + cycle[:1])), (adj, cycle)


# The 4-cycle 0-1-2-3 beside the triangles {4, 5, 6} and {7, 8, 9}, 7 first.
_SQUARE_BESIDE_TWO_TRIANGLES = [(7, 8), (8, 9), (7, 9), (0, 1), (1, 2), (2, 3), (0, 3),
                                (4, 5), (5, 6), (4, 6)]


def _edge_multigraph(edges):
    adj = {v: {} for edge in edges for v in edge}
    for u, v in edges:
        adj[u][v] = adj[v][u] = adj[u].get(v, 0) + 1
    return adj


@pytest.mark.parametrize("edges, cycle", [
    ([(0, 1), (1, 2), (0, 2)], (1, 0, 2)),  # scanned from 1, 2 at the same depth
    ([(0, 1), (1, 2), (2, 3), (0, 3)], (3, 0, 1, 2)),  # scanned from 3, 2 one level deeper
    ([(0, 1), (0, 2), (1, 2), (2, 3), (2, 3)], (2, 3)),  # a parallel pair first
    # Root 0 closes the 4-cycle 3-0-1-2; the triangle 3-4-5 lies among
    # higher labels, so the scan goes on until root 3 closes it.
    ([(0, 1), (1, 2), (2, 3), (0, 3), (3, 4), (3, 5), (4, 5)], (4, 3, 5)),
    # The triangle 1-4-5 has its least vertex at the next root, 1.
    ([(0, 1), (1, 2), (2, 3), (0, 3), (1, 4), (1, 5), (4, 5)], (4, 1, 5)),
    # adj meets 7 first, but the scan jumps to 4, the least triangle root.
    (_SQUARE_BESIDE_TWO_TRIANGLES, (5, 4, 6)),
])
def test_the_branching_cycle_runs_from_the_scanned_vertex(edges, cycle):
    assert _Search(Graph(()), SolverConfig())._find_cycle(_edge_multigraph(edges)) == cycle


def _closing_roots(monkeypatch, adj):
    """The branching cycle of adj, and the root of each cycle the scan closes."""
    roots = []

    def spy(parent, dist, v, u):
        roots.append(next(iter(dist)))  # dist is filled from the root
        return _close_cycle(parent, dist, v, u)

    monkeypatch.setattr(solver, "_close_cycle", spy)
    return _Search(Graph(()), SolverConfig())._find_cycle(adj), roots


def test_the_cycle_scan_ends_at_a_four_cycle_on_a_triangle_free_graph(monkeypatch):
    # C8xC8 has no triangle, so once root 0 closes a 4-cycle no later root
    # can do better.  Scanning every root closes 4 cycles from each, 256 in all.
    adj = solver._to_multigraph(cartesian_product(make_cycle(8), make_cycle(8)))
    assert _closing_roots(monkeypatch, adj) == ((8, 0, 1, 9), [0] * 4)


def test_the_cycle_scan_jumps_to_the_least_triangle_root(monkeypatch):
    # Root 0 closes the 4-cycle; roots 1, 2 and 3 could only tie it, so the
    # scan goes on at 4, the least vertex of the least triangle.
    adj = _edge_multigraph(_SQUARE_BESIDE_TWO_TRIANGLES)
    assert _closing_roots(monkeypatch, adj) == ((5, 4, 6), [0, 4])
    # Root 3 closes a tying 4-cycle before the triangle 3-4-5.
    adj = _edge_multigraph([(0, 1), (1, 2), (2, 3), (0, 3), (3, 4), (3, 5), (4, 5)])
    assert _closing_roots(monkeypatch, adj) == ((4, 3, 5), [0, 3, 3])


def _torus_edge_list(rows, cols):
    # The torus as an --edges input: a plain graph with no spec, so no anchor.
    g = cartesian_product(make_cycle(rows), make_cycle(cols))
    return Graph.from_edges(g.n_vertices, list(g.edges()))


@pytest.mark.parametrize("g, spec, minimum, most", [
    (_torus_edge_list(6, 6), None, 13, 202),
    (_torus_edge_list(8, 8), None, 22, 1_072),
    (realize(FamilySpec.pow3(40)), FamilySpec.pow3(40), 21, 971),
    (realize(FamilySpec.powm(30, 5)), FamilySpec.powm(30, 5), 21, 3_382),
], ids=["C6xC6", "C8xC8", "C40^3", "C30^5"])
def test_parent_side_rank_refutation_node_counts(g, spec, minimum, most):
    # Building every child and pruning it on arrival needs 293 / 2,366 /
    # 1,129 / 3,708 nodes.  Leaving blocked siblings' gains in the pool needs
    # 266 / 1,165 on the tori; counting v's own gain among the k - 1 largest
    # others needs 260 / 1,132.
    result = min_fvs_exact(g, spec=spec)
    assert result.minimum == minimum
    assert result.nodes_explored <= most, result.nodes_explored


def _multigraph(edges):
    adj = {}
    for u, v, count in edges:
        adj.setdefault(u, {})[v] = adj.setdefault(v, {})[u] = count
    return adj


def test_the_parent_refutes_a_child_the_rank_bound_rules_out():
    # A 4-cycle 0=1-2=3-0 with 0=1 and 2=3 doubled, 2 and 3 forbidden: every
    # degree is 3, the cycle rank is 3, and the gains (deg - 1) of 0 and 1 are
    # 2 each.  The search branches on the pair 0=1; child 0 is built and
    # refuted (1 becomes a leaf, then the pair 2=3 cannot lose a vertex).
    # Then 0 is blocked, so child 1 has gain 2 and no other gain to add,
    # below the rank: the parent refutes it without building it.
    search = _Search(Graph(()), SolverConfig())
    adj = _multigraph([(0, 1, 2), (1, 2, 1), (2, 3, 2), (3, 0, 1)])
    assert search._decide(adj, 2, frozenset({2, 3})) is None
    assert search.nodes == 2  # the root and child 0


def test_a_child_whose_gains_exactly_cover_the_rank_is_built():
    # Two triple edges 0≡1 and 2≡3: rank 6 - 4 + 2 = 4, every gain is 2, and
    # {0, 2} is a decycling set.  Each child the search takes covers the
    # rank exactly, so refuting on equality would lose the answer.
    search = _Search(Graph(()), SolverConfig())
    adj = _multigraph([(0, 1, 3), (2, 3, 3)])
    assert search._decide(adj, 2, frozenset()) == [0, 2]
    assert search.nodes == 3


def test_the_parent_refutes_a_child_a_tight_packing_rules_out():
    # The packing is {0, 1, 2, 3} and {4, 5, 6, 7}.  The node keeps all of
    # the first clique (need 2) and only 4 and 5 of the second (need 0),
    # joined by the doubled edge 4=5, with 4-0 and 5-1.  Every degree is at
    # least 3 and the rank is 10 - 6 + 1 = 5, which the two largest gains
    # 3 + 3 cover.  The search branches on the pair 4=5.
    g = Graph.from_edges(8, [*itertools.combinations(range(4), 2),
                             *itertools.combinations(range(4, 8), 2)])
    adj = _multigraph([*((u, v, 1) for u, v in itertools.combinations(range(4), 2)),
                       (4, 5, 2), (4, 0, 1), (5, 1, 1)])
    # At k = 2 the packing is tight and neither 4 nor 5 lies in a clique with
    # 3 survivors: deleting either leaves need 2 > 1, so the parent refutes
    # both children without building them.  Built, they take 2 more nodes.
    search = _Search(g, SolverConfig())
    assert search._decide(solver._copy(adj), 2, frozenset()) is None
    assert search.nodes == 1
    # At k = 3 the packing is not tight, so child 4 is built and succeeds.
    search = _Search(g, SolverConfig())
    assert search._decide(solver._copy(adj), 3, frozenset()) == [4, 0, 3]
    assert search.nodes == 3


@pytest.mark.parametrize("spec, minimum, most", [
    (FamilySpec.pow3(24), 13, 106),
    (FamilySpec.pow3(32), 17, 230),
    (FamilySpec.pow3(40), 21, 426),
    (FamilySpec.powm(30, 4), 19, 958),
    (FamilySpec.powm(30, 5), 21, 2_297),
    (FamilySpec.powm(35, 6), 26, 9_329),
], ids=["C24^3", "C32^3", "C40^3", "C30^4", "C30^5", "C35^6"])
def test_parent_side_packing_refutation_node_counts(spec, minimum, most):
    # Building every child a tight packing rules out, and pruning it on
    # arrival, needs 183 / 461 / 971 / 1,595 / 3,382 / 13,001 nodes.
    result = min_fvs_exact(realize(spec), spec=spec)
    assert result.minimum == minimum
    assert result.nodes_explored <= most, result.nodes_explored
