import itertools
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_valid_witness_cycle, naive_has_cycle, naive_residual_counts
from decycling import verify
from decycling.bounds import bound_report, certifiable_lower_bound
from decycling.construct import (
    alternating_row_set,
    build_certificate,
    decycle_c4xn,
    decycle_cn3,
)
from decycling.errors import UniverseMismatchError
from decycling.graphs import (
    FamilySpec,
    Graph,
    cartesian_product,
    make_cycle,
    make_cycle_power,
    realize,
)
from decycling.verify import (
    FAILED,
    VERIFIED,
    DecyclingCertificate,
    VertexSet,
    is_unicyclic,
    residual,
    verify_certificate,
)


@st.composite
def small_graphs(draw, max_n=9):
    n = draw(st.integers(2, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), max_size=3 * n, unique=True))
    return Graph.from_edges(n, edges)


def test_residual_single_deletion_on_cycle():
    report = residual(make_cycle(5), VertexSet.of(5, [0]))
    assert report.is_forest
    assert report.n_vertices_left == 4
    assert report.n_edges_left == 3
    assert report.n_components == 1
    assert report.witness_cycle is None


def test_residual_full_torus_has_witness():
    g = realize(FamilySpec.c3xc(3))
    report = residual(g, VertexSet.empty(9))
    assert not report.is_forest
    assert_valid_witness_cycle(g, frozenset(), report.witness_cycle)


def test_residual_square_power_path():
    g = make_cycle_power(9, 2)
    report = residual(g, VertexSet.of(9, [0, 3, 6, 8]))
    assert report.is_forest
    assert report.n_vertices_left == 5
    assert report.n_edges_left == 4
    assert report.n_components == 1
    assert report.is_single_path
    # the survivors are 1-2-4-5-7 and form that path edge by edge
    for a, b in ((1, 2), (2, 4), (4, 5), (5, 7)):
        assert g.has_edge(a, b)
    assert not g.has_edge(1, 7)


def test_residual_rejects_universe_mismatch():
    with pytest.raises(UniverseMismatchError):
        residual(make_cycle(5), VertexSet.of(6, [0]))


def test_vertex_set_rejects_out_of_range():
    with pytest.raises(UniverseMismatchError):
        VertexSet.of(4, [4])


def test_is_unicyclic_plain_cycle():
    ok, cycle = is_unicyclic(make_cycle(5), VertexSet.empty(5))
    assert ok
    assert sorted(cycle) == [0, 1, 2, 3, 4]


def test_is_unicyclic_row_pattern_before_repair():
    g = realize(FamilySpec.c3xc(4))
    pattern = alternating_row_set(4)
    ok, cycle = is_unicyclic(g, pattern)
    assert ok
    assert_valid_witness_cycle(g, pattern.members, cycle)


def test_is_unicyclic_rejects_dense_graph():
    g = realize(FamilySpec.c4xc(4))
    ok, cycle = is_unicyclic(g, VertexSet.empty(16))
    assert not ok
    assert cycle is None


def test_is_unicyclic_rejects_forest():
    path = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert is_unicyclic(path, VertexSet.empty(4)) == (False, None)


def test_verify_certificate_accepts_valid_claim():
    cert = DecyclingCertificate(
        FamilySpec.pow2(10), VertexSet.of(10, [0, 3, 6, 9]), 4, 4, "test"
    )
    assert verify_certificate(cert).status == VERIFIED


def test_verify_certificate_rejects_cardinality_mismatch():
    cert = DecyclingCertificate(
        FamilySpec.pow2(10), VertexSet.of(10, [0, 3, 6, 9]), 3, 3, "test"
    )
    assert verify_certificate(cert).status == FAILED


def test_verify_certificate_cube_power_example():
    cert = DecyclingCertificate(
        FamilySpec.pow3(8), VertexSet.of(8, [0, 1, 2, 4, 6]), 5, 5, "test"
    )
    checked = verify_certificate(cert)
    assert checked.status == VERIFIED
    report = residual(realize(FamilySpec.pow3(8)), cert.vertex_set)
    assert report.is_single_path
    assert report.n_vertices_left == 3


def test_verify_certificate_rejects_bound_above_cardinality():
    cert = DecyclingCertificate(
        FamilySpec.pow2(10), VertexSet.of(10, [0, 3, 6, 9]), 4, 5, "test"
    )
    assert verify_certificate(cert).status == FAILED


def test_verify_certificate_is_idempotent_and_pure():
    cert = DecyclingCertificate(
        FamilySpec.pow2(10), VertexSet.of(10, [0, 3, 6, 9]), 4, 4, "test"
    )
    once = verify_certificate(cert)
    twice = verify_certificate(once)
    assert once == twice
    assert cert.status == "unverified"  # input untouched


def test_verify_certificate_universe_mismatch_is_an_error():
    cert = DecyclingCertificate(
        FamilySpec.pow2(10), VertexSet.of(10, [0, 3, 6, 9]), 4, 4, "test"
    )
    with pytest.raises(UniverseMismatchError):
        verify_certificate(cert, graph=make_cycle(5))


@settings(max_examples=120, deadline=None)
@given(small_graphs(), st.data())
def test_forest_test_matches_naive_enumeration(g, data):
    members = data.draw(
        st.sets(st.integers(0, g.n_vertices - 1), max_size=g.n_vertices)
    )
    s = VertexSet.of(g.n_vertices, members)
    report = residual(g, s)
    assert report.is_forest == (not naive_has_cycle(g, frozenset(members)))
    if report.is_forest:
        assert report.witness_cycle is None
    else:
        assert_valid_witness_cycle(g, frozenset(members), report.witness_cycle)
    # structural identity between the report fields
    assert report.is_forest == (
        report.n_edges_left == report.n_vertices_left - report.n_components
    )


@settings(max_examples=80, deadline=None)
@given(small_graphs(), st.data())
def test_forest_test_is_monotone_under_supersets(g, data):
    small = data.draw(st.sets(st.integers(0, g.n_vertices - 1)))
    extra = data.draw(st.sets(st.integers(0, g.n_vertices - 1)))
    s = VertexSet.of(g.n_vertices, small)
    t = VertexSet.of(g.n_vertices, small | extra)
    if residual(g, s).is_forest:
        assert residual(g, t).is_forest


@st.composite
def family_specs(draw, n_max=24):
    kind = draw(st.sampled_from(["c3xc", "c4xc", "pow2", "pow3", "powm"]))
    low = {"c4xc": 4, "pow2": 4, "pow3": 5}.get(kind, 3)
    n = draw(st.integers(low, n_max))
    return FamilySpec(kind, n, draw(st.integers(1, 6)) if kind == "powm" else None)


@settings(max_examples=150, deadline=None)
@given(family_specs(), st.data())
def test_residual_of_a_spec_equals_residual_of_its_realized_graph(spec, data):
    members = data.draw(st.sets(st.integers(0, spec.order - 1), max_size=spec.order))
    s = VertexSet.of(spec.order, members)
    assert residual(spec, s) == residual(realize(spec), s)
    assert is_unicyclic(spec, s) == is_unicyclic(realize(spec), s)


@pytest.mark.parametrize("kind", ["c3xc", "c4xc", "pow2", "pow3"])
def test_a_residual_witness_reads_few_neighbourhoods(monkeypatch, kind):
    # The witness grows from the first edge that closes a cycle, so a hole in
    # the middle of a large certificate is found without walking the graph.
    spec = FamilySpec(kind, 10_000)
    members = build_certificate(spec).vertex_set.sorted_members()
    del members[len(members) // 2]
    calls = []
    real = FamilySpec.neighbors
    monkeypatch.setattr(FamilySpec, "neighbors",
                        lambda self, v: calls.append(v) or real(self, v))
    report = residual(spec, VertexSet.of(spec.order, members))
    assert not report.is_forest and len(report.witness_cycle) <= 6
    assert len(calls) <= 100


def test_verify_certificate_reads_the_family_without_building_it():
    cert = decycle_c4xn(7)
    assert verify_certificate(cert, FamilySpec.c4xc(7)) == verify_certificate(cert)
    assert verify_certificate(cert, realize(FamilySpec.c4xc(7))) == verify_certificate(cert)
    with pytest.raises(UniverseMismatchError):
        verify_certificate(cert, FamilySpec.c4xc(8))


def test_verify_certificate_rejects_a_lower_bound_nothing_derives():
    # A superset of the C4 x C6 construction is a decycling set, but its
    # claimed bound of 12 is above the decycling number 9.
    cert = decycle_c4xn(6)
    extra = [v for v in range(24) if v not in cert.vertex_set][:3]
    padded = DecyclingCertificate(
        cert.family,
        VertexSet.of(24, cert.vertex_set.members | set(extra)),
        12,
        12,
        "test",
    )
    assert certifiable_lower_bound(cert.family) == 9
    assert verify_certificate(padded).status == FAILED
    assert verify_certificate(replace(padded, lower_bound=9)).status == VERIFIED


def test_cube_power_lower_bound_comes_from_the_closed_form():
    # Cn^3, n = 0 mod 4: the paper's n/2 + 1 is one above every computed bound.
    for n in (8, 12, 16, 100):
        spec = FamilySpec.pow3(n)
        assert bound_report(spec).best == n // 2
        assert certifiable_lower_bound(spec) == n // 2 + 1
        assert verify_certificate(decycle_cn3(n)).status == VERIFIED
    cert = decycle_cn3(12)
    assert verify_certificate(replace(cert, lower_bound=8)).status == FAILED


def test_uncovered_powers_take_the_computed_bound():
    spec = FamilySpec.powm(12, 4)
    assert certifiable_lower_bound(spec) == bound_report(spec).best == 8
    cert = DecyclingCertificate(spec, VertexSet.of(12, range(10)), 10, 8, "test")
    assert verify_certificate(cert).status == VERIFIED
    assert verify_certificate(replace(cert, lower_bound=9)).status == FAILED


@settings(max_examples=150, deadline=None)
@given(st.one_of(small_graphs(), family_specs()), st.data())
def test_residual_counts_match_a_breadth_first_count(g, data):
    members = frozenset(data.draw(st.sets(st.integers(0, g.order - 1), max_size=g.order)))
    report = residual(g, VertexSet.of(g.order, members))
    assert report.n_vertices_left == g.order - len(members)
    assert (report.n_edges_left, report.n_components) == naive_residual_counts(g, members)


@pytest.mark.parametrize("kind, m", [
    *((k, None) for k in ("c3xc", "c4xc", "pow2", "pow3")),
    *(("powm", m) for m in range(1, 7))])
def test_the_column_sweep_agrees_with_the_union_find(kind, m):
    # n just above 2b (below it residual uses the union-find), across step
    # boundaries and ending on partial last steps, and two larger n.
    b = m or {"pow2": 2, "pow3": 3}.get(kind, 1)
    rng = random.Random(f"{kind}{m}")
    for n in [*range(max(2 * b + 1, 4 if kind == "c4xc" else 3), 2 * b + 13), 257, 1000]:
        spec = FamilySpec(kind, n, m)
        g, order = realize(spec), spec.order
        sets = [(), range(order)] + [
            [v for v in range(order) if rng.random() < density]
            for density in (0.1, 0.3, 0.5, 0.6, 0.7, 0.8, 0.9)]
        if kind != "powm":
            sets.append(build_certificate(spec).vertex_set.members)
        for members in sets:
            s = VertexSet.of(order, members)
            assert residual(spec, s) == residual(g, s), (spec, sorted(s.members))


@pytest.mark.parametrize("kind", ["c3xc", "c4xc", "pow2", "pow3"])
def test_a_good_large_certificate_is_checked_without_listing_edges(monkeypatch, kind):
    spec = FamilySpec(kind, 10_000)
    cert = build_certificate(spec)

    def no_edges(self):
        raise AssertionError("FamilySpec.edges called")

    monkeypatch.setattr(FamilySpec, "edges", no_edges)
    assert verify_certificate(cert).status == VERIFIED


@pytest.mark.parametrize("kind", ["c3xc", "c4xc", "pow2", "pow3"])
def test_the_column_sweep_computes_few_distinct_steps(monkeypatch, kind):
    # Canonical state labels keep the number of distinct (state, keep bits)
    # steps small however long the strip is.
    spec = FamilySpec(kind, 10_000)
    calls = []
    real = verify._strip_step
    monkeypatch.setattr(verify, "_strip_step",
                        lambda *args: calls.append(1) or real(*args))
    rng = random.Random(7)
    for density in (0.3, 0.5, 0.7):
        calls.clear()
        s = VertexSet.of(spec.order, [v for v in range(spec.order) if rng.random() < density])
        residual(spec, s)
        assert 0 < len(calls) <= 500, (density, len(calls))


def _torus_shape(r):
    """The strip shape of C_r x Cn written out by hand: rows i and i + 1
    (and 0 and r - 1) share a column, and each row runs on to the next."""
    ring = sorted({tuple(sorted((i, (i + 1) % r))) for i in range(r)})
    return r, 1, tuple(ring), tuple((i, 1, i) for i in range(r))


@pytest.mark.parametrize("r", range(3, 9))
def test_the_column_sweep_counts_any_torus_width(r):
    rng = random.Random(r)
    for n in (3, 4, 5, 9, 40):
        g = cartesian_product(make_cycle(r), make_cycle(n))
        masks = [bytearray(b"\x01") * g.order, bytearray(g.order)] + [
            bytearray(rng.random() > density for _ in range(g.order))
            for density in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9) for _ in range(3)]
        for keep in masks:
            expected = verify._union_find(g.edges(), keep, list(range(g.order)))[:2]
            assert verify._sweep(n, _torus_shape(r), keep) == expected, (r, n, keep)


@pytest.mark.parametrize("kind", ["c3xc", "c4xc", "pow2", "pow3", "powm"])
def test_a_strip_has_its_true_width(kind):
    for m in (range(1, 7) if kind == "powm" else [None]):
        b = m or {"pow2": 2, "pow3": 3}.get(kind, 1)
        for n in range({"c4xc": 4, "pow2": 4, "pow3": 5}.get(kind, 3), 30):
            spec = FamilySpec(kind, n, m)
            shape = verify._strip_shape(spec)
            if spec.torus_rows:
                w, _, inner, forward = _torus_shape(spec.torus_rows)
                assert shape[:2] == (w, 1) and sorted(shape[2]) == list(inner)
                assert sorted(shape[3]) == list(forward)
            elif n <= 2 * b:
                assert shape is None
                continue
            assert shape[0] == (spec.torus_rows or 1), spec


@pytest.mark.parametrize("kind, steps", [("c3xc", 5), ("c4xc", 8), ("pow2", 5), ("pow3", 4)])
def test_a_construction_at_ten_thousand_takes_few_sweep_steps(monkeypatch, kind, steps):
    cert = build_certificate(FamilySpec(kind, 10_000))
    calls = []
    real = verify._strip_step
    monkeypatch.setattr(verify, "_strip_step",
                        lambda *args: calls.append(1) or real(*args))
    assert residual(cert.family, cert.vertex_set).is_forest
    assert len(calls) <= steps
