"""Lower bounds on the decycling number, per instance and aggregated, and the
paper's closed forms.

Every bound takes an explicit ceiling; real-valued inequalities are turned
into integers here, never downstream.  Family-specific bounds reject
parameters outside their range of validity rather than computing nonsense.
The closed-form table `_closed_form` is the one statement of the four
decycling numbers; `certifiable_lower_bound` joins it with the computed
bounds into the largest lower bound a certificate may claim.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InvalidParameterError, NotCoveredError
from .graphs import C3XC, C4XC, POW2, POW3, POWM, FamilySpec, Graph, is_connected


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def cycle_rank_bound(order: int, size: int, max_degree: int) -> int:
    """Cycle-rank bound for a connected simple graph with the given counts:
    at least (|E| - |V| + 1) / (max degree - 1) vertices; forests clamp to 0."""
    excess = size - order + 1
    if excess <= 0:
        return 0
    # excess > 0 on a connected graph forces max degree >= 2.
    return _ceil_div(excess, max_degree - 1)


def beineke_vandell(g: Graph) -> int:
    """The cycle-rank bound of g; valid for connected simple graphs."""
    if not is_connected(g):
        raise InvalidParameterError("bound requires a connected graph")
    if g.n_vertices == 0:
        return 0
    return cycle_rank_bound(g.n_vertices, g.n_edges, g.max_degree)


def cube_count_bound(n: int) -> int:
    """ceil(3n/2), for C4 x Cn only.

    The n column-pair slabs are cubes, each needing 3 deleted vertices, and
    every vertex lies in exactly two slabs.
    """
    if n < 4:
        raise InvalidParameterError(f"cube bound needs n >= 4, got {n}")
    return _ceil_div(3 * n, 2)


def window_bound_cycle_power(n: int, m: int) -> int:
    """Residue-refined window bound for Cn^m: k + (n-k)(m-1)/(m+1), k = n mod (m+1).

    Each run of m+1 consecutive labels induces a complete graph that keeps at
    most two vertices.  Only claimed for non-complete instances (n > 2m).
    """
    if n < 3 or m < 2:
        raise InvalidParameterError(f"window bound needs n >= 3 and m >= 2, got ({n}, {m})")
    if n <= 2 * m:
        raise InvalidParameterError(
            f"window bound needs n > 2m (non-complete graph), got ({n}, {m})"
        )
    k = n % (m + 1)
    return k + (n - k) // (m + 1) * (m - 1)


def k4_window_bound(n: int) -> int:
    """ceil(n/2) for Cn^3, n >= 7: each 4-label window induces a K4 keeping <= 2."""
    if n < 7:
        raise InvalidParameterError(f"K4 window bound needs n >= 7, got {n}")
    return _ceil_div(n, 2)


def clique_bound(g: Graph) -> int | None:
    """Exact bound |V| - 2 when g is complete (any 3 survivors form a triangle)."""
    n = g.n_vertices
    if n >= 3 and g.n_edges == n * (n - 1) // 2:
        return n - 2
    return None


@dataclass
class BoundReport:
    """All lower bounds applicable to one family instance, best marked."""

    instance: FamilySpec
    beineke_vandell: int
    window_bound: int | None = None
    cube_bound: int | None = None
    clique_bound: int | None = None
    best: int = 0
    notes: dict[str, str] = field(default_factory=dict)


def bound_report(spec: FamilySpec) -> BoundReport:
    """Compute every applicable lower bound for the instance and take the max.

    Pure arithmetic: every family graph is connected and spec.degree-regular.
    """
    order, degree = spec.order, spec.degree
    report = BoundReport(
        instance=spec,
        beineke_vandell=cycle_rank_bound(order, order * degree // 2, degree),
    )
    report.notes["beineke_vandell"] = "cycle rank over (max degree - 1)"

    if spec.kind == C4XC:
        report.cube_bound = cube_count_bound(spec.n)
        report.notes["cube_bound"] = "3 per cube slab, each vertex in 2 slabs"

    m = spec.power
    if m is not None and m >= 2:
        windows: list[int] = []
        if spec.n > 2 * m:
            windows.append(window_bound_cycle_power(spec.n, m))
            report.notes["window_bound"] = f"residue window, runs of {m + 1} labels"
        if m == 3 and spec.n >= 7:
            windows.append(k4_window_bound(spec.n))
            report.notes.setdefault("window_bound", "K4 window count")
        if windows:
            report.window_bound = max(windows)

    if degree == order - 1:
        report.clique_bound = order - 2
        report.notes["clique_bound"] = "complete graph keeps at most 2 vertices"

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
    report.best = max(present)
    return report


def _closed_form(spec: FamilySpec) -> tuple[int, str]:
    """The paper's decycling number for spec, with the tag of its branch.

    This table is the one statement of the four closed forms; powm with
    m = 2 or 3 reads the square or cube rows.
    """
    if spec.kind == POWM:
        try:
            square_or_cube = FamilySpec({2: POW2, 3: POW3}.get(spec.m), spec.n)
        except InvalidParameterError:
            raise NotCoveredError(
                f"no closed-form decycling number for {spec.describe()}"
            ) from None
        return _closed_form(square_or_cube)
    n, kind = spec.n, spec.kind
    if kind == C3XC:
        return n + 1, "closed form n+1"
    if kind == C4XC:
        return (3 * n + 1) // 2, "closed form ceil(3n/2)"
    if kind == POW2:
        if n % 3 == 2:
            return (n + 3) // 3 + 1, "closed form ceil((n+1)/3)+1, n = 2 mod 3"
        return (n + 3) // 3, f"closed form ceil((n+1)/3), n = {n % 3} mod 3"
    if n % 2 == 0:
        return (n + 2) // 2, "closed form (n+2)/2, n even"
    if n % 4 == 1:
        return (n + 1) // 2, "closed form (n+1)/2, n = 1 mod 4"
    return (n + 3) // 2, "closed form (n+3)/2, n = 3 mod 4"


def nabla_formula(spec: FamilySpec) -> int:
    """The closed-form decycling number for the four covered families."""
    return _closed_form(spec)[0]


def certifiable_lower_bound(spec: FamilySpec) -> int:
    """The largest lower bound a certificate for spec may claim.

    That is the best computed bound, or the closed form where it covers spec:
    the paper proves the closed forms, and for Cn^3 with n = 0 (mod 4),
    n >= 8, its n/2 + 1 is one above every bound computed here.
    """
    best = bound_report(spec).best
    try:
        return max(best, nabla_formula(spec))
    except NotCoveredError:
        return best
