"""Decycling sets of toroidal cycle products and cycle powers.

Construct minimum decycling sets (feedback vertex sets) for C3 x Cn, C4 x Cn,
Cn^2 and Cn^3, compute lower bounds, emit machine-checkable certificates, and
validate everything against an exact search oracle at desk scale.

The names below are the documented API (see the README); everything else
stays importable from its own module.
"""

from .bounds import bound_report, nabla_formula
from .construct import (
    build_certificate,
    decycle_c3xn,
    decycle_c4xn,
    decycle_cn2,
    decycle_cn3,
    discover_gadget,
)
from .errors import DecyclingError
from .graphs import FamilySpec, Graph, realize
from .solver import SolverConfig, exists_fvs_of_size, min_fvs_exact
from .verify import DecyclingCertificate, VertexSet, is_unicyclic, residual, verify_certificate

__all__ = [
    "DecyclingCertificate",
    "DecyclingError",
    "FamilySpec",
    "Graph",
    "SolverConfig",
    "VertexSet",
    "bound_report",
    "build_certificate",
    "decycle_c3xn",
    "decycle_c4xn",
    "decycle_cn2",
    "decycle_cn3",
    "discover_gadget",
    "exists_fvs_of_size",
    "is_unicyclic",
    "min_fvs_exact",
    "nabla_formula",
    "realize",
    "residual",
    "verify_certificate",
]
