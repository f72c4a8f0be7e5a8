"""Closed forms and explicit minimum decycling sets for the four families.

The closed forms are stated once, in the bounds module's `_closed_form`
table.  Every construction is a pure function of its parameters, claims the
table's value as its cardinality, re-checks that claim and its set through
the verifier on the family's implicit graph (no graph is built), and returns
a certificate whose lower bound equals its cardinality, pinning the
decycling number exactly.

The C4 x Cn base sets and the two-column cylinder gadget were derived by
exhaustive search (see the solver module's discover_gadget, which regenerates
them) and are frozen here as canonical data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .bounds import nabla_formula
from .errors import ConstructionInvariantError, InvalidParameterError, NotCoveredError
from .graphs import C3XC, C4XC, POW2, POW3, FamilySpec
from .verify import VERIFIED, DecyclingCertificate, VertexSet, verify_certificate

# Minimum decycling sets of C4xC4 (size 6) and C4xC5 (size 8), labels row*n+col.
# Both minima were confirmed by exhausting all smaller subsets.
C4XC4_BASE = (0, 2, 5, 8, 10, 15)
C4XC5_BASE = (0, 1, 2, 5, 8, 11, 14, 18)


@dataclass(frozen=True)
class CylinderGadget:
    """A two-column slab pattern of 3 vertices, insertable into C4 x Cn sets.

    Appending the pattern as two fresh columns turns a verified C4 x Cn
    certificate into a verified C4 x C(n+2) one; the insertion is checked,
    never assumed.
    """

    pattern: frozenset[tuple[int, int]]  # (row, local column) pairs

    WIDTH = 2

    def __post_init__(self):
        if len(self.pattern) != 3:
            raise InvalidParameterError("cylinder gadget needs exactly 3 vertices")
        for r, c in self.pattern:
            if not (0 <= r < 4 and 0 <= c < self.WIDTH):
                raise InvalidParameterError(f"gadget cell ({r},{c}) out of the 4x2 slab")

    def open_rows(self, local_col: int) -> frozenset[int]:
        """Rows whose residual edge crosses the seam at the given slab side."""
        return frozenset(r for r in range(4) if (r, local_col) not in self.pattern)


# First surviving candidate of the exhaustive gadget search, in the canonical
# enumeration order used by discover_gadget.
CYLINDER_GADGET = CylinderGadget(frozenset({(0, 0), (1, 0), (2, 1)}))


def extend_with_cylinders(
    base_n: int, base_labels: Iterable[int], gadget: CylinderGadget, copies: int
) -> VertexSet:
    """Vertex set for C4 x C(base_n + 2*copies): the base columns keep their
    indices and the gadget pattern fills the appended column pairs: cell
    (r, lc) takes every other column of row r from base_n + lc on."""
    n = base_n + 2 * copies
    members = [v // base_n * n + v % base_n for v in base_labels]
    for r, lc in gadget.pattern:
        members.extend(range(r * n + base_n + lc, (r + 1) * n, 2))
    return VertexSet.of(4 * n, members)


def _certify(spec: FamilySpec, s: VertexSet, method: str) -> DecyclingCertificate:
    """Certificate claiming the closed-form cardinality for spec as both its
    size and its lower bound, checked against the set by the verifier."""
    value = nabla_formula(spec)
    cert = DecyclingCertificate(
        family=spec,
        vertex_set=s,
        cardinality=value,
        lower_bound=value,
        method=method,
    )
    cert = verify_certificate(cert)
    if cert.status != VERIFIED:
        raise ConstructionInvariantError(
            f"construction {method!r} failed verification for {spec.describe()}"
        )
    return cert


def _alternating_labels(n: int) -> list[int]:
    """C3 x Cn labels in rows 0, 1, 0, 1, ... by column; for odd n the last is row 2."""
    labels = [*range(0, n - n % 2, 2), *range(n + 1, 2 * n, 2)]
    return labels + [3 * n - 1] if n % 2 else labels


def alternating_row_set(n: int) -> VertexSet:
    """One vertex per column of C3 x Cn, rows 0,1,0,1,... (ending in 2 for odd
    n) so cyclically consecutive picks never share a row.  Deleting it leaves
    a unicyclic graph whose cycle has least label 2n for even n (all of row
    2) and n - 2 for odd n (row 0, column n - 2); decycle_c3xn adds that
    vertex."""
    if n < 3:
        raise InvalidParameterError(f"C3 x Cn needs n >= 3, got {n}")
    return VertexSet.of(3 * n, _alternating_labels(n))


def decycle_c3xn(n: int) -> DecyclingCertificate:
    """Minimum decycling set of C3 x Cn, cardinality n + 1: the alternating
    rows plus the least label of the cycle they leave, stated by arithmetic
    (2n for even n, n - 2 for odd n) and checked with the whole set."""
    spec = FamilySpec.c3xc(n)
    members = _alternating_labels(n) + [2 * n if n % 2 == 0 else n - 2]
    return _certify(spec, VertexSet.of(spec.order, members), "row-zigzag-plus-repair")


def decycle_c4xn(n: int) -> DecyclingCertificate:
    """Minimum decycling set of C4 x Cn, cardinality ceil(3n/2).

    Even n grows from the C4xC4 base, odd n from the C4xC5 base, by appending
    cylinder gadget copies."""
    spec = FamilySpec.c4xc(n)
    if n % 2 == 0:
        base_n, base = 4, C4XC4_BASE
    else:
        base_n, base = 5, C4XC5_BASE
    s = extend_with_cylinders(base_n, base, CYLINDER_GADGET, (n - base_n) // 2)
    return _certify(spec, s, "base-plus-cylinders")


def decycle_cn2(n: int) -> DecyclingCertificate:
    """Minimum decycling set of Cn^2: every third label, residue-adjusted."""
    spec = FamilySpec.pow2(n)
    r = n % 3
    if r == 0:
        members = set(range(0, n - 2, 3)) | {n - 1}
    elif r == 1:
        members = set(range(0, n, 3))
    else:
        members = set(range(0, n - 1, 3)) | {n - 1}
    return _certify(spec, VertexSet.of(spec.order, members), "spaced-thirds")


def decycle_cn3(n: int) -> DecyclingCertificate:
    """Minimum decycling set of Cn^3: the block {0,1,2} plus spaced picks."""
    spec = FamilySpec.pow3(n)
    members = {0, 1, 2}
    if n % 2 == 0:
        members.update(range(4, n - 1, 2))
    elif n % 4 == 1:
        for k in range(1, (n - 5) // 4 + 1):
            members.update((4 * k + 1, 4 * k + 2))
    else:
        for k in range(1, (n - 3) // 4 + 1):
            members.update((4 * k, 4 * k + 1))
    return _certify(spec, VertexSet.of(spec.order, members), "triple-plus-pairs")


_BUILDERS = {
    C3XC: decycle_c3xn,
    C4XC: decycle_c4xn,
    POW2: decycle_cn2,
    POW3: decycle_cn3,
}


def build_certificate(spec: FamilySpec) -> DecyclingCertificate:
    """Dispatch to the construction matching the spec's family."""
    builder = _BUILDERS.get(spec.kind)
    if builder is None:
        raise NotCoveredError(f"no construction for {spec.describe()}")
    return builder(spec.n)
