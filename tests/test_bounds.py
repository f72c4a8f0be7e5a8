import pytest

from conftest import naive_min_fvs
from decycling.bounds import (
    _closed_form,
    beineke_vandell,
    bound_report,
    certifiable_lower_bound,
    clique_bound,
    cube_count_bound,
    k4_window_bound,
    window_bound_cycle_power,
)
from decycling.construct import nabla_formula
from decycling.errors import InvalidParameterError
from decycling.graphs import FamilySpec, Graph, make_cycle, realize
from decycling.solver import SolverConfig, min_fvs_exact


def test_beineke_vandell_on_plain_cycles():
    for n in range(3, 13):
        assert beineke_vandell(make_cycle(n)) == 1


def test_beineke_vandell_on_c3_products():
    for n in range(3, 10):
        assert beineke_vandell(realize(FamilySpec.c3xc(n))) == n + 1
    assert beineke_vandell(realize(FamilySpec.c3xc(6))) == 7  # ceil(19/3)


def test_beineke_vandell_on_square_powers():
    for n in range(6, 20):
        assert beineke_vandell(realize(FamilySpec.pow2(n))) == (n + 3) // 3
    assert beineke_vandell(realize(FamilySpec.pow2(10))) == 4


def test_beineke_vandell_on_c4_torus():
    assert beineke_vandell(realize(FamilySpec.c4xc(4))) == 6


def test_beineke_vandell_clamps_forests_to_zero():
    path = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert beineke_vandell(path) == 0
    assert beineke_vandell(Graph(())) == 0


def test_beineke_vandell_rejects_disconnected():
    g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    with pytest.raises(InvalidParameterError):
        beineke_vandell(g)


def test_cube_count_bound_values():
    assert cube_count_bound(4) == 6
    assert cube_count_bound(5) == 8
    assert cube_count_bound(10) == 15
    with pytest.raises(InvalidParameterError):
        cube_count_bound(3)


def test_window_bound_values():
    assert window_bound_cycle_power(11, 3) == 7
    assert window_bound_cycle_power(12, 3) == 6
    assert window_bound_cycle_power(9, 3) == 5
    assert window_bound_cycle_power(8, 2) == 4  # k=2: 2 + 6/3


def test_window_bound_parameter_errors():
    with pytest.raises(InvalidParameterError):
        window_bound_cycle_power(6, 3)  # complete graph, not claimed
    with pytest.raises(InvalidParameterError):
        window_bound_cycle_power(9, 1)
    with pytest.raises(InvalidParameterError):
        window_bound_cycle_power(2, 2)


def test_window_bound_matches_cube_formula_at_odd_residues():
    for n in range(7, 41):
        value = nabla_formula(FamilySpec.pow3(n))
        bound = window_bound_cycle_power(n, 3)
        if n % 4 in (1, 3):
            assert bound == value, n
        else:
            assert bound <= value, n


def test_k4_window_bound_values():
    assert k4_window_bound(9) == 5
    assert k4_window_bound(8) == 4  # one below the true value 5
    assert k4_window_bound(12) == 6
    with pytest.raises(InvalidParameterError):
        k4_window_bound(6)


def test_window_bound_dominates_the_k4_window_bound():
    # With n = 4q + k the window bound is k + 2q and the K4 bound 2q + ceil(k/2),
    # so bound_report needs only the window bound for Cn^3.
    for n in range(7, 2001):
        window = window_bound_cycle_power(n, 3)
        assert window >= k4_window_bound(n), n
        assert bound_report(FamilySpec.pow3(n)).window_bound == window, n


def test_clique_bound_detects_complete_graphs():
    assert clique_bound(realize(FamilySpec.pow3(7))) == 5
    assert clique_bound(realize(FamilySpec.pow3(8))) is None
    assert clique_bound(make_cycle(3)) == 1
    assert clique_bound(make_cycle(4)) is None


def test_bound_report_c4_product():
    report = bound_report(FamilySpec.c4xc(5))
    assert report.beineke_vandell == 7
    assert report.cube_bound == 8
    assert report.best == 8
    assert report.window_bound is None


def test_bound_report_square_power():
    report = bound_report(FamilySpec.pow2(8))
    assert report.beineke_vandell == 3
    assert report.window_bound == 4
    assert report.best == 4


def test_bound_report_c3_product():
    report = bound_report(FamilySpec.c3xc(7))
    assert report.beineke_vandell == 8
    assert report.best == 8
    assert report.cube_bound is None and report.window_bound is None


def test_bound_report_degenerate_complete_rows():
    for n, order in ((5, 5), (6, 6), (7, 7)):
        report = bound_report(FamilySpec.pow3(n))
        assert report.clique_bound == order - 2
        assert report.best == nabla_formula(FamilySpec.pow3(n))


def test_bound_report_powm_matches_pow3():
    a = bound_report(FamilySpec.pow3(11))
    b = bound_report(FamilySpec.powm(11, 3))
    assert (a.beineke_vandell, a.window_bound, a.best) == (
        b.beineke_vandell,
        b.window_bound,
        b.best,
    )


def test_bound_report_best_is_max_and_tagged():
    for spec in (
        FamilySpec.c3xc(6),
        FamilySpec.c4xc(9),
        FamilySpec.pow2(11),
        FamilySpec.pow3(12),
        FamilySpec.powm(13, 4),
    ):
        report = bound_report(spec)
        present = [
            b
            for b in (
                report.beineke_vandell,
                report.window_bound,
                report.cube_bound,
                report.clique_bound,
            )
            if b is not None
        ]
        assert report.best == max(present)
        assert all(b >= 1 for b in present)
        assert "beineke_vandell" in report.notes


def test_bounds_never_exceed_formula():
    specs = (
        [FamilySpec.c3xc(n) for n in range(3, 25)]
        + [FamilySpec.c4xc(n) for n in range(4, 25)]
        + [FamilySpec.pow2(n) for n in range(4, 40)]
        + [FamilySpec.pow3(n) for n in range(5, 40)]
    )
    for spec in specs:
        assert bound_report(spec).best <= nabla_formula(spec), spec


def test_bound_report_arithmetic_matches_the_realized_graph():
    specs = (
        [FamilySpec.c3xc(n) for n in range(3, 61)]
        + [FamilySpec.c4xc(n) for n in range(4, 61)]
        + [FamilySpec.pow2(n) for n in range(4, 61)]
        + [FamilySpec.pow3(n) for n in range(5, 61)]
        + [FamilySpec.powm(n, m) for m in range(1, 9) for n in range(3, 61)]
    )
    complete = 0
    for spec in specs:
        g = realize(spec)
        report = bound_report(spec)
        assert report.beineke_vandell == beineke_vandell(g), spec
        assert report.clique_bound == clique_bound(g), spec
        assert ("clique_bound" in report.notes) == (report.clique_bound is not None)
        complete += report.clique_bound is not None
    assert complete > 30  # the complete cases Cn^m with 2m >= n - 1 are covered


def _paper_value(kind: str, n: int) -> int:
    """The paper's decycling numbers, stated here apart from the package."""
    if kind == "c3xc":
        return n + 1
    if kind == "c4xc":
        return (3 * n + 1) // 2
    if kind == "pow2":
        return -(-(n + 1) // 3) + (n % 3 == 2)
    if n % 2 == 0:
        return (n + 2) // 2
    return (n + 1) // 2 if n % 4 == 1 else (n + 3) // 2


# The paper's case tags for n = 0, 1, 2, ... modulo the list's length.
PAPER_NOTES = {
    "c3xc": ["closed form n+1"],
    "c4xc": ["closed form ceil(3n/2)"],
    "pow2": [
        "closed form ceil((n+1)/3), n = 0 mod 3",
        "closed form ceil((n+1)/3), n = 1 mod 3",
        "closed form ceil((n+1)/3)+1, n = 2 mod 3",
    ],
    "pow3": [
        "closed form (n+2)/2, n even",
        "closed form (n+1)/2, n = 1 mod 4",
        "closed form (n+2)/2, n even",
        "closed form (n+3)/2, n = 3 mod 4",
    ],
}
LEAST_N = {"c3xc": 3, "c4xc": 4, "pow2": 4, "pow3": 5}


def _specs_up_to_500(kind: str):
    power = {"pow2": 2, "pow3": 3}.get(kind)
    for n in range(LEAST_N[kind], 501):
        yield n, FamilySpec(kind, n)
        if power is not None:
            yield n, FamilySpec.powm(n, power)


@pytest.mark.parametrize("kind", sorted(LEAST_N))
def test_nabla_formula_is_the_paper_value(kind):
    for n, spec in _specs_up_to_500(kind):
        assert nabla_formula(spec) == _paper_value(kind, n), spec


@pytest.mark.parametrize("kind", sorted(LEAST_N))
def test_each_residue_has_the_paper_note(kind):
    notes = PAPER_NOTES[kind]
    for n, spec in _specs_up_to_500(kind):
        assert _closed_form(spec) == (_paper_value(kind, n), notes[n % len(notes)]), spec


def test_the_certified_bound_is_at_most_the_brute_force_minimum():
    for m in range(2, 5):
        for n in range(2 * m + 1, 13):
            spec = FamilySpec.powm(n, m)
            assert certifiable_lower_bound(spec) <= naive_min_fvs(realize(spec))[0], spec


def test_the_certified_bound_is_the_oracle_minimum_on_cycle_powers():
    # n = q(m + 1) + k: the window bound n - 2q, plus one when k = 0.
    cfg = SolverConfig(node_budget=20_000)
    for m in range(2, 7):
        for n in range(2 * m + 1, 31):
            spec = FamilySpec.powm(n, m)
            q, k = divmod(n, m + 1)
            minimum = min_fvs_exact(realize(spec), cfg, spec=spec).minimum
            assert certifiable_lower_bound(spec) == minimum == n - 2 * q + (k == 0), spec
