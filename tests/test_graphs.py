import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decycling.errors import InvalidParameterError
from decycling.graphs import (
    FAMILY_KINDS,
    FamilySpec,
    Graph,
    TorusCoord,
    adjacency_dump,
    cartesian_product,
    graph_power,
    is_connected,
    make_cycle,
    make_cycle_power,
    realize,
    to_dot,
    torus_coord,
)


def test_make_cycle_triangle():
    g = make_cycle(3)
    assert g.n_vertices == 3
    assert g.n_edges == 3
    assert all(g.degree(v) == 2 for v in g.vertices())


def test_make_cycle_square_has_no_chord():
    g = make_cycle(4)
    assert g.n_edges == 4
    assert not g.has_edge(0, 2)
    assert not g.has_edge(1, 3)


def test_make_cycle_edge_count():
    assert make_cycle(10).n_edges == 10


def test_make_cycle_rejects_small_n():
    with pytest.raises(InvalidParameterError):
        make_cycle(2)


def test_product_c3_c3():
    g = cartesian_product(make_cycle(3), make_cycle(3))
    assert g.n_vertices == 9
    assert g.n_edges == 18
    assert all(g.degree(v) == 4 for v in g.vertices())


@pytest.mark.parametrize("n", [3, 4, 6, 9])
def test_product_c3_cn_counts(n):
    g = cartesian_product(make_cycle(3), make_cycle(n))
    assert g.n_vertices == 3 * n
    assert g.n_edges == 6 * n
    assert g.max_degree == 4


def test_product_c4_c4_counts():
    g = cartesian_product(make_cycle(4), make_cycle(4))
    assert g.n_vertices == 16
    assert g.n_edges == 32


def test_product_labeling_is_row_major():
    n = 5
    g = cartesian_product(make_cycle(3), make_cycle(n))
    # (row, col) ~ (row, col +- 1) and (row +- 1, col)
    assert g.has_edge(0 * n + 0, 0 * n + 1)
    assert g.has_edge(0 * n + 0, 0 * n + (n - 1))
    assert g.has_edge(0 * n + 2, 1 * n + 2)
    assert g.has_edge(0 * n + 2, 2 * n + 2)  # rows wrap in C3
    assert not g.has_edge(0 * n + 0, 1 * n + 1)


def test_power_of_c5_is_complete():
    g = graph_power(make_cycle(5), 2)
    assert g.n_edges == 10


def test_power_one_is_identity():
    for n in (3, 5, 8):
        assert graph_power(make_cycle(n), 1) == make_cycle(n)


def test_power_c9_squared():
    g = graph_power(make_cycle(9), 2)
    assert g.n_vertices == 9
    assert g.n_edges == 18
    assert all(g.degree(v) == 4 for v in g.vertices())


def test_power_rejects_zero_exponent():
    with pytest.raises(InvalidParameterError):
        graph_power(make_cycle(5), 0)


def test_power_keeps_components_apart():
    two_triangles = Graph.from_edges(
        6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
    )
    powered = graph_power(two_triangles, 3)
    assert not powered.has_edge(0, 3)
    assert powered.has_edge(0, 1)


def test_cycle_power_complete_case():
    g = make_cycle_power(7, 3)
    assert g.n_edges == 21


def test_cycle_power_regular_case():
    g = make_cycle_power(9, 3)
    assert g.n_edges == 27
    assert all(g.degree(v) == 6 for v in g.vertices())


def test_cycle_power_matches_bfs_power():
    assert make_cycle_power(12, 2) == graph_power(make_cycle(12), 2)


def test_cycle_power_equivalence_grid():
    for n in range(3, 13):
        for m in range(1, 6):
            assert make_cycle_power(n, m) == graph_power(make_cycle(n), m), (n, m)


def test_cycle_power_rejects_bad_parameters():
    with pytest.raises(InvalidParameterError):
        make_cycle_power(2, 1)
    with pytest.raises(InvalidParameterError):
        make_cycle_power(5, 0)


def test_realize_examples():
    assert realize(FamilySpec.c3xc(5)).n_vertices == 15
    assert realize(FamilySpec.c3xc(5)).n_edges == 30
    g = realize(FamilySpec.pow3(8))
    assert g.n_vertices == 8
    assert g.n_edges == 24
    g = realize(FamilySpec.c4xc(4))
    assert g.n_vertices == 16
    assert g.n_edges == 32


def test_realize_is_deterministic():
    for spec in (FamilySpec.c3xc(6), FamilySpec.pow2(9), FamilySpec.powm(10, 4)):
        assert realize(spec) == realize(spec)


def test_family_spec_validation():
    for bad in (
        lambda: FamilySpec.c3xc(2),
        lambda: FamilySpec.c4xc(3),
        lambda: FamilySpec.pow2(3),
        lambda: FamilySpec.pow3(4),
        lambda: FamilySpec.powm(5, 0),
        lambda: FamilySpec("pow2", 5, 2),
        lambda: FamilySpec("nope", 5),
    ):
        with pytest.raises(InvalidParameterError):
            bad()
    # degenerate complete-graph cases are allowed
    assert realize(FamilySpec.powm(5, 9)).n_edges == 10


def test_torus_coord_bijection():
    n = 7
    for label in range(3 * n):
        coord = torus_coord(label, n)
        assert coord.label(n) == label
    assert TorusCoord(2, 3).label(7) == 17


def test_handshake_identity_across_families():
    specs = [
        FamilySpec.c3xc(5),
        FamilySpec.c4xc(6),
        FamilySpec.pow2(10),
        FamilySpec.pow3(9),
        FamilySpec.powm(11, 4),
    ]
    for spec in specs:
        g = realize(spec)
        assert 2 * g.n_edges == sum(g.degree(v) for v in g.vertices())
        for v in g.vertices():
            for u in g.neighbors(v):
                assert u != v
                assert g.has_edge(u, v)
        assert is_connected(g)


def test_from_edges_rejects_bad_input():
    with pytest.raises(InvalidParameterError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(InvalidParameterError):
        Graph.from_edges(3, [(0, 5)])
    g = Graph.from_edges(3, [(0, 1), (1, 0)])  # duplicates collapse
    assert g.n_edges == 1


def test_graph_validates_adjacency():
    with pytest.raises(InvalidParameterError):
        Graph(((1,), ()))  # asymmetric: 1 has no neighbors
    with pytest.raises(InvalidParameterError):
        Graph(((0,),))  # self-loop


def test_adjacency_dump_format():
    text = adjacency_dump(make_cycle(4))
    assert text.splitlines() == ["0: 1 3", "1: 0 2", "2: 1 3", "3: 0 2"]


def test_dot_export_highlights_and_weights():
    g = make_cycle(4)
    dot = to_dot(g, {0, 2})
    assert dot.count("style=filled") == 2
    assert dot.count("peripheries=2") == 2
    # every edge touches the highlighted set here, so all are thin
    assert "penwidth=0.5" in dot
    plain = to_dot(g)
    assert "style=filled" not in plain
    assert plain.count("penwidth=2.5") == 4


def test_dot_export_torus_positions():
    dot = to_dot(realize(FamilySpec.c4xc(4)), torus_rows=4)
    assert 'pos="3,3!"' in dot


@settings(max_examples=60)
@given(n=st.integers(3, 40), m=st.integers(1, 12))
def test_cycle_power_degree_property(n, m):
    g = make_cycle_power(n, m)
    if n >= 2 * m + 1:
        assert all(g.degree(v) == 2 * m for v in g.vertices())
    else:
        assert g.n_edges == n * (n - 1) // 2


@settings(max_examples=40)
@given(na=st.integers(3, 7), nb=st.integers(3, 7))
def test_product_counts_property(na, nb):
    g = cartesian_product(make_cycle(na), make_cycle(nb))
    assert g.n_vertices == na * nb
    assert g.n_edges == 2 * na * nb
    assert all(g.degree(v) == 4 for v in g.vertices())


def _every_kind_spec(n_max):
    for kind, low in (("c3xc", 3), ("c4xc", 4), ("pow2", 4), ("pow3", 5)):
        for n in range(low, n_max + 1):
            yield FamilySpec(kind, n)
    for m in range(1, 9):
        for n in range(3, n_max + 1):
            yield FamilySpec.powm(n, m)


def test_order_and_degree_match_the_realized_graph():
    for spec in _every_kind_spec(40):
        g = realize(spec)
        assert spec.order == g.n_vertices, spec
        assert all(g.degree(v) == spec.degree for v in g.vertices()), spec


def test_family_kinds_are_the_registry():
    assert FAMILY_KINDS == ("c3xc", "c4xc", "pow2", "pow3", "powm")
    assert [FamilySpec(kind, 12, 4 if kind == "powm" else None).describe()
            for kind in FAMILY_KINDS] == [
        "C3 x C12", "C4 x C12", "C12^2", "C12^3", "C12^4"
    ]


def test_order_and_degree_are_read_only():
    spec = FamilySpec.c4xc(6)
    for attr in ("order", "degree"):
        with pytest.raises(AttributeError):
            setattr(spec, attr, 1)


@pytest.mark.parametrize(
    "kind, n, m",
    [
        ("c4xc", 10.0, None),
        ("pow2", True, None),
        ("pow3", "9", None),
        ("powm", 10, True),
        ("powm", 10, 2.0),
    ],
)
def test_family_spec_rejects_non_integer_parameters(kind, n, m):
    with pytest.raises(InvalidParameterError):
        FamilySpec(kind, n, m)


def _reference_graph(spec):
    """The family graph from the generic builders, independent of neighbors()."""
    if spec.torus_rows:
        return cartesian_product(make_cycle(spec.torus_rows), make_cycle(spec.n))
    return make_cycle_power(spec.n, spec.power)


def test_family_neighbors_match_realize_and_the_reference_builders():
    for spec in _every_kind_spec(40):
        g = realize(spec)
        assert g == _reference_graph(spec), spec
        assert spec.order == g.order
        for v in g.vertices():
            assert spec.neighbors(v) == g.neighbors(v), (spec, v)

