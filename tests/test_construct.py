import hashlib

import pytest

from conftest import naive_min_fvs, residual_is_single_path
from decycling import construct
from decycling.bounds import cube_count_bound
from decycling.certio import dumps
from decycling.construct import (
    C4XC4_BASE,
    C4XC5_BASE,
    CYLINDER_GADGET,
    CylinderGadget,
    alternating_row_set,
    build_certificate,
    decycle_c3xn,
    decycle_c4xn,
    decycle_cn2,
    decycle_cn3,
    extend_with_cylinders,
    nabla_formula,
)
from decycling.errors import InvalidParameterError, NotCoveredError
from decycling.graphs import FamilySpec, realize, torus_coord
from decycling.verify import VERIFIED, is_unicyclic, residual
import decycling
from decycling import solver
from decycling.bounds import certifiable_lower_bound
from decycling.construct import discover_gadget
from decycling.errors import GadgetNotFoundError
from decycling.verify import DecyclingCertificate, VertexSet, verify_certificate


def test_c3xn_smallest_case_matches_brute_force():
    cert = decycle_c3xn(3)
    assert cert.status == VERIFIED
    assert cert.cardinality == 4
    minimum, _ = naive_min_fvs(realize(FamilySpec.c3xc(3)))
    assert minimum == 4


def test_c3xn_even_case():
    cert = decycle_c3xn(4)
    assert cert.cardinality == 5
    assert cert.lower_bound == 5
    assert cert.status == VERIFIED


def test_c3xn_odd_wrap_case():
    cert = decycle_c3xn(7)
    assert cert.cardinality == 8
    assert cert.status == VERIFIED
    rows = {c: v // 7 for v in alternating_row_set(7) for c in [v % 7]}
    assert rows[5] == 1 and rows[6] == 2


def test_c3xn_row_pattern_is_independent_per_column():
    for n in range(3, 15):
        pattern = alternating_row_set(n)
        cols = sorted(v % n for v in pattern)
        assert cols == list(range(n))  # one per column triangle
        rows = {v % n: v // n for v in pattern}
        for c in range(n):
            assert rows[c] != rows[(c + 1) % n]  # consecutive picks change row


def test_c3xn_intermediate_is_unicyclic_with_counted_edges():
    for n in range(3, 13):
        g = realize(FamilySpec.c3xc(n))
        pattern = alternating_row_set(n)
        report = residual(g, pattern)
        assert report.n_vertices_left == 2 * n
        assert report.n_edges_left == 2 * n
        assert report.n_components == 1


def test_c3xn_repair_is_the_least_label_of_the_cycle_the_rows_leave():
    # The search the construction used to run is the oracle for its formula.
    for n in range(3, 301):
        base = alternating_row_set(n)
        unicyclic, cycle = is_unicyclic(FamilySpec.c3xc(n), base)
        assert unicyclic
        assert decycle_c3xn(n).vertex_set.members - base.members == {min(cycle)}, n


def test_c3xn_construction_walks_the_residual_once(monkeypatch):
    import decycling.verify as verify

    calls = []
    real = verify.residual
    monkeypatch.setattr(verify, "residual", lambda g, s: calls.append(s) or real(g, s))
    assert build_certificate(FamilySpec.c3xc(101)).status == VERIFIED
    assert len(calls) == 1


def test_c3xn_certificates_tight_over_range():
    for n in range(3, 40):
        cert = decycle_c3xn(n)
        assert cert.status == VERIFIED
        assert cert.cardinality == cert.lower_bound == n + 1


def test_c4xn_base_cases():
    even = decycle_c4xn(4)
    odd = decycle_c4xn(5)
    assert even.cardinality == 6 and even.status == VERIFIED
    assert odd.cardinality == 8 and odd.status == VERIFIED
    assert even.vertex_set.sorted_members() == list(C4XC4_BASE)
    assert odd.vertex_set.sorted_members() == list(C4XC5_BASE)


def test_c4xn_two_gadget_copies():
    cert = decycle_c4xn(8)
    assert cert.cardinality == 12
    assert cert.status == VERIFIED
    # the two appended column pairs carry the gadget pattern
    coords = {torus_coord(v, 8) for v in cert.vertex_set}
    for col0 in (4, 6):
        slab = {(c.row, c.col - col0) for c in coords if col0 <= c.col < col0 + 2}
        assert slab == set(CYLINDER_GADGET.pattern)


def test_c4xn_certificates_tight_over_range():
    for n in range(4, 41):
        cert = decycle_c4xn(n)
        assert cert.status == VERIFIED
        assert cert.cardinality == cert.lower_bound == (3 * n + 1) // 2


def test_gadget_shape():
    assert len(CYLINDER_GADGET.pattern) == 3
    assert CYLINDER_GADGET.WIDTH == 2
    assert all(0 <= r < 4 and 0 <= c < 2 for r, c in CYLINDER_GADGET.pattern)
    left, right = CYLINDER_GADGET.open_rows(0), CYLINDER_GADGET.open_rows(1)
    assert len(left) + len(right) == 5  # 8 cells minus 3 picks


def test_gadget_validation():
    with pytest.raises(InvalidParameterError):
        CylinderGadget(frozenset({(0, 0), (1, 0)}))
    with pytest.raises(InvalidParameterError):
        CylinderGadget(frozenset({(0, 0), (1, 0), (4, 1)}))


def test_extend_with_cylinders_counts():
    s = extend_with_cylinders(4, C4XC4_BASE, CYLINDER_GADGET, 3)
    assert s.universe_size == 40
    assert s.cardinality == 6 + 9


def test_c4xn_certificate_keeps_the_set_its_builder_made(monkeypatch):
    built = []

    def spy(*args):
        built.append(extend_with_cylinders(*args))
        return built[-1]

    monkeypatch.setattr(construct, "extend_with_cylinders", spy)
    for n in (4, 9, 20):
        assert decycle_c4xn(n).vertex_set is built[-1], n


def test_cn2_case_sets():
    assert decycle_cn2(9).vertex_set.sorted_members() == [0, 3, 6, 8]
    assert decycle_cn2(10).vertex_set.sorted_members() == [0, 3, 6, 9]
    assert decycle_cn2(8).vertex_set.sorted_members() == [0, 3, 6, 7]
    assert decycle_cn2(8).cardinality == 4


def test_cn2_residual_is_a_path():
    for n in range(4, 32):
        cert = decycle_cn2(n)
        assert cert.status == VERIFIED
        assert residual_is_single_path(
            realize(FamilySpec.pow2(n)), cert.vertex_set.members
        ), n


def test_cn2_complete_degenerate_rows():
    # C4^2 = K4 and C5^2 = K5; a complete graph on q vertices needs q - 2.
    assert decycle_cn2(4).cardinality == 2
    assert decycle_cn2(5).cardinality == 3


def test_cn3_case_sets_and_paths():
    cert = decycle_cn3(9)
    assert cert.vertex_set.sorted_members() == [0, 1, 2, 5, 6]
    g = realize(FamilySpec.pow3(9))
    assert sorted(set(g.vertices()) - cert.vertex_set.members) == [3, 4, 7, 8]

    cert = decycle_cn3(8)
    assert cert.vertex_set.sorted_members() == [0, 1, 2, 4, 6]

    cert = decycle_cn3(11)
    assert cert.vertex_set.sorted_members() == [0, 1, 2, 4, 5, 8, 9]


def test_cn3_residual_is_a_path():
    for n in range(5, 34):
        cert = decycle_cn3(n)
        assert cert.status == VERIFIED
        assert residual_is_single_path(
            realize(FamilySpec.pow3(n)), cert.vertex_set.members
        ), n


def test_cn3_complete_degenerate_rows():
    for n in (5, 6, 7):
        assert decycle_cn3(n).cardinality == n - 2


def test_certificates_match_formula_and_are_tight():
    specs = (
        [FamilySpec.c3xc(n) for n in range(3, 16)]
        + [FamilySpec.c4xc(n) for n in range(4, 16)]
        + [FamilySpec.pow2(n) for n in range(4, 16)]
        + [FamilySpec.pow3(n) for n in range(5, 16)]
    )
    for spec in specs:
        cert = build_certificate(spec)
        value = nabla_formula(spec)
        assert cert.cardinality == value, spec
        assert cert.lower_bound == value, spec
        assert cert.status == VERIFIED


def test_the_cube_count_is_the_c4xn_closed_form():
    for n in range(4, 401):
        assert cube_count_bound(n) == nabla_formula(FamilySpec.c4xc(n)), n


@pytest.mark.parametrize("n, digest", [
    (4, "5ddf3698dbf16ed89d8bc7884a91c2dd8128b92e6e4028a39bb0b571f7059ec8"),
    (5, "929df9adbff07adfcfcbb22fb7f7564b1bfd2cf2304c5d0b74dba4210c7700d9"),
    (6, "2e6642b6810e33384620389f6e58e77860650000267cca35e5e7d4a606f4a59c"),
    (7, "c87e7f8e35081893abedf153d539dcbd8c1d7205a72e89aaca4773a982173d22"),
    (12, "9c1c78d64087e701626bf4a2c805d9194934c9aed1916ab69fc6cf0d36a2561e"),
    (101, "7dfea38e9461b9573adcdc9599166e1ae9c2e48bf4a8ea5bb93d9cc75750ee10"),
])
def test_c4xn_certificate_files_are_pinned(n, digest):
    # The lower bound is the closed form, which equals the cube-slab count.
    text = dumps(decycle_c4xn(n))
    assert f'"lower_bound": {cube_count_bound(n)},' in text
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_constructions_are_deterministic():
    assert decycle_c3xn(9) == decycle_c3xn(9)
    assert decycle_c4xn(12) == decycle_c4xn(12)
    assert decycle_cn2(14) == decycle_cn2(14)
    assert decycle_cn3(13) == decycle_cn3(13)


def test_constructions_scale_linearly():
    big = [
        decycle_c3xn(10_000),
        decycle_c4xn(10_000),
        decycle_cn2(10_000),
        decycle_cn3(10_001),
    ]
    for cert in big:
        assert cert.status == VERIFIED
        assert cert.cardinality == nabla_formula(cert.family)


def test_nabla_formula_values():
    assert nabla_formula(FamilySpec.c3xc(12)) == 13
    assert nabla_formula(FamilySpec.pow2(11)) == 5
    assert nabla_formula(FamilySpec.pow3(7)) == 5  # also K7: 7 - 2
    assert [nabla_formula(FamilySpec.c4xc(n)) for n in (4, 5, 6)] == [6, 8, 9]


def test_nabla_formula_powm_delegation():
    assert nabla_formula(FamilySpec.powm(11, 2)) == nabla_formula(FamilySpec.pow2(11))
    assert nabla_formula(FamilySpec.powm(11, 3)) == nabla_formula(FamilySpec.pow3(11))
    with pytest.raises(NotCoveredError):
        nabla_formula(FamilySpec.powm(12, 4))
    with pytest.raises(NotCoveredError):
        nabla_formula(FamilySpec.powm(12, 1))
    with pytest.raises(NotCoveredError):
        build_certificate(FamilySpec.powm(12, 4))


def test_constructions_reject_out_of_range():
    with pytest.raises(InvalidParameterError):
        decycle_c3xn(2)
    with pytest.raises(InvalidParameterError):
        decycle_c4xn(3)
    with pytest.raises(InvalidParameterError):
        decycle_cn2(3)
    with pytest.raises(InvalidParameterError):
        decycle_cn3(4)
    with pytest.raises(InvalidParameterError):
        alternating_row_set(2)


@pytest.mark.parametrize("kind", ["c3xc", "c4xc", "pow2", "pow3"])
def test_closed_form_matches_construction_up_to_200(kind):
    low = {"c3xc": 3, "c4xc": 4, "pow2": 4, "pow3": 5}[kind]
    for n in range(low, 201):
        spec = FamilySpec(kind, n)
        assert nabla_formula(spec) == build_certificate(spec).cardinality, spec


def _cylinder_set_by_coordinates(base_n, base_labels, gadget, copies):
    # The coordinate derivation extend_with_cylinders replaced: (row, col)
    # pairs for the base and for every appended column pair, then labels.
    n = base_n + 2 * copies
    coords = {(v // base_n, v % base_n) for v in base_labels}
    for j in range(copies):
        col0 = base_n + 2 * j
        coords.update((r, col0 + lc) for r, lc in gadget.pattern)
    return frozenset(r * n + c for r, c in coords)


@pytest.mark.parametrize("gadget", [
    CYLINDER_GADGET, CylinderGadget(frozenset({(3, 0), (0, 1), (1, 1)}))])
def test_cylinder_extension_matches_the_coordinate_derivation(gadget):
    for base_n, base in ((4, C4XC4_BASE), (5, C4XC5_BASE)):
        for copies in range(151):
            s = extend_with_cylinders(base_n, base, gadget, copies)
            assert s.universe_size == 4 * (base_n + 2 * copies)
            assert s.members == _cylinder_set_by_coordinates(
                base_n, base, gadget, copies), (base_n, copies)
            assert len(s) == len(base) + 3 * copies


def test_the_gadget_search_has_one_home():
    assert solver.discover_gadget is discover_gadget
    assert decycling.discover_gadget is discover_gadget


def test_the_gadget_search_fails_when_no_pattern_keeps_the_closed_form():
    # A verified C4 x C4 set one vertex above the minimum: every extension
    # overshoots ceil(3n/2), so no slab pattern may be returned, although the
    # stored gadget still leaves a forest on every extended torus.
    spec = FamilySpec.c4xc(4)
    padded = verify_certificate(DecyclingCertificate(
        family=spec, vertex_set=VertexSet.of(16, {*C4XC4_BASE, 1}),
        cardinality=7, lower_bound=6, method="padded"))
    assert padded.status == VERIFIED
    with pytest.raises(GadgetNotFoundError):
        discover_gadget(padded, decycle_c4xn(5))


def _power_rule_set(n, m):
    # Cn^m with n = q(m + 1) + k: keep labels i(m + 1) + 1 and i(m + 1) + 2
    # for i < q, except the last of them when k = 0; delete the rest.
    q, k = divmod(n, m + 1)
    kept = [i * (m + 1) + j for i in range(q) for j in (1, 2)]
    if k == 0:
        kept.pop()
    return frozenset(range(n)).difference(kept)


def test_the_cycle_power_rule_is_the_square_construction_at_m_2():
    for n in range(5, 1001):
        assert decycle_cn2(n).vertex_set.members == _power_rule_set(n, 2), n


def test_the_cycle_power_rule_attains_the_certifiable_bound():
    # Together with the bound's proof, this pins the decycling number of
    # Cn^m for m = 2..12 and n = 2m + 1..200.
    checked = 0
    for m in range(2, 13):
        for n in range(2 * m + 1, 201):
            spec = FamilySpec.powm(n, m)
            s = VertexSet(spec.order, _power_rule_set(n, m))
            assert s.cardinality == certifiable_lower_bound(spec), (n, m)
            assert residual(spec, s).is_forest, (n, m)
            checked += 1
    assert checked == 2046
