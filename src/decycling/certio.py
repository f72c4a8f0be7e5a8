"""Certificate documents: the JSON wire format read and written by the CLI.

Documents round-trip losslessly; the vertex set is stored sorted ascending.
Loading validates structure only — re-running the verifier is the caller's
job, so tampered files load fine and then fail verification.
"""

from __future__ import annotations

import json
from typing import Any

from .errors import CertificateFormatError
from .graphs import POWM, FamilySpec, _is_int, _is_int_type
from .verify import FAILED, UNVERIFIED, VERIFIED, DecyclingCertificate, VertexSet

SCHEMA_VERSION = "1"

_STATUSES = (UNVERIFIED, VERIFIED, FAILED)


def certificate_to_document(cert: DecyclingCertificate) -> dict[str, Any]:
    family: dict[str, Any] = {"kind": cert.family.kind, "n": cert.family.n}
    if cert.family.kind == POWM:
        family["m"] = cert.family.m
    doc: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "family": family,
        "n_vertices": cert.vertex_set.universe_size,
        "set": cert.vertex_set.sorted_members(),
        "cardinality": cert.cardinality,
        "lower_bound": cert.lower_bound,
        "method": cert.method,
        "status": cert.status,
    }
    rows = cert.family.torus_rows
    if rows is not None:
        doc["torus"] = {"rows": rows, "cols": cert.family.n}
    return doc


def document_to_certificate(doc: Any) -> DecyclingCertificate:
    if not isinstance(doc, dict):
        raise CertificateFormatError("certificate document must be a JSON object")
    try:
        version = doc["schema_version"]
        family = doc["family"]
        n_vertices = doc["n_vertices"]
        members = doc["set"]
        cardinality = doc["cardinality"]
        lower_bound = doc["lower_bound"]
        method = doc["method"]
        status = doc["status"]
    except (KeyError, TypeError) as err:
        raise CertificateFormatError(f"missing certificate field: {err}") from None
    if version != SCHEMA_VERSION:
        raise CertificateFormatError(f"unsupported schema version {version!r}")
    if not isinstance(family, dict) or "kind" not in family or "n" not in family:
        raise CertificateFormatError("family must carry kind and n")
    try:
        spec = FamilySpec(family["kind"], family["n"], family.get("m"))
    except Exception as err:
        raise CertificateFormatError(f"bad family: {err}") from None
    if not _is_int(n_vertices) or n_vertices != spec.order:
        raise CertificateFormatError(
            f"n_vertices {n_vertices!r} does not match {spec.describe()}"
        )
    if not isinstance(members, list) or not all(
        map(_is_int_type, set(map(type, members)))
    ):
        raise CertificateFormatError("set must be a list of integers")
    if members != sorted(set(members)):
        raise CertificateFormatError("set must be strictly ascending")
    if members and not (members[0] >= 0 and members[-1] < n_vertices):
        raise CertificateFormatError("set member out of vertex range")
    if not _is_int(cardinality) or not _is_int(lower_bound):
        raise CertificateFormatError("cardinality and lower_bound must be integers")
    if not isinstance(method, str):
        raise CertificateFormatError("method must be a string")
    if status not in _STATUSES:
        raise CertificateFormatError(f"status must be one of {_STATUSES}")
    return DecyclingCertificate(
        family=spec,
        vertex_set=VertexSet.of(n_vertices, members),
        cardinality=cardinality,
        lower_bound=lower_bound,
        method=method,
        status=status,
    )


def dumps(cert: DecyclingCertificate) -> str:
    """json.dumps(document, indent=2) plus a newline, byte for byte, with the
    set's members joined directly: an indented json.dumps runs in Python."""
    fields = []
    for key, value in certificate_to_document(cert).items():
        if key == "set" and value:
            text = "[\n    " + ",\n    ".join(map(str, value)) + "\n  ]"
        else:
            text = json.dumps(value, indent=2).replace("\n", "\n  ")
        fields.append(f'  "{key}": {text}')
    return "{\n" + ",\n".join(fields) + "\n}\n"


def loads(text: str) -> DecyclingCertificate:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise CertificateFormatError(f"invalid JSON: {err}") from None
    return document_to_certificate(doc)


def save(cert: DecyclingCertificate, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps(cert))


def load(path: str) -> DecyclingCertificate:
    with open(path, "r", encoding="utf-8") as handle:
        return loads(handle.read())
