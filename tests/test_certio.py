import json
import random

import pytest

from conftest import random_certificate
from decycling.certio import (
    certificate_to_document,
    document_to_certificate,
    dumps,
    load,
    loads,
    save,
)
from decycling.construct import build_certificate, decycle_c4xn
from decycling.errors import CertificateFormatError
from decycling.graphs import FamilySpec
from decycling.verify import DecyclingCertificate, VertexSet


def test_round_trip_hundred_randomized_certificates():
    rng = random.Random(20260810)
    for _ in range(100):
        cert = random_certificate(rng)
        assert loads(dumps(cert)) == cert


def test_document_fields_and_sorted_set():
    cert = decycle_c4xn(6)
    doc = certificate_to_document(cert)
    assert doc["schema_version"] == "1"
    assert doc["family"] == {"kind": "c4xc", "n": 6}
    assert doc["n_vertices"] == 24
    assert doc["set"] == sorted(doc["set"])
    assert doc["torus"] == {"rows": 4, "cols": 6}
    assert doc["status"] == "verified"


def test_powm_documents_carry_the_exponent():
    cert = DecyclingCertificate(
        FamilySpec.powm(9, 4), VertexSet.of(9, [1, 2]), 2, 0, "oracle"
    )
    doc = certificate_to_document(cert)
    assert doc["family"]["m"] == 4
    assert document_to_certificate(doc) == cert


def test_save_and_load(tmp_path):
    cert = decycle_c4xn(8)
    path = tmp_path / "cert.json"
    save(cert, str(path))
    assert load(str(path)) == cert


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.pop("set"),
        lambda d: d.update(schema_version="999"),
        lambda d: d.update(set=[3, 1, 2]),
        lambda d: d.update(set=[1, 1, 2]),
        lambda d: d.update(set=[10**6]),
        lambda d: d.update(n_vertices=7),
        lambda d: d.update(status="maybe"),
        lambda d: d.update(cardinality="four"),
        lambda d: d.update(family={"kind": "c4xc"}),
        lambda d: d.update(family={"kind": "c4xc", "n": 2}),
        lambda d: d.update(torus={"rows": 3, "cols": 6}),
        lambda d: d.update(torus={"rows": 4, "cols": 7}),
        lambda d: d.update(torus={"rows": 4.0, "cols": 6}),
        lambda d: d.update(torus={"rows": 4, "cols": 6.0}),
        lambda d: d.update(torus={"rows": 4, "cols": 6, "x": 0}),
        lambda d: d.update(torus=[4, 6]),
        lambda d: d.update(torus=None),
        # A circulant keeping the C4 x C6 torus, or one whose rows read null.
        lambda d: d.update(family={"kind": "pow2", "n": 6}, n_vertices=6, set=[0, 3]),
        lambda d: d.update(family={"kind": "pow2", "n": 6}, n_vertices=6, set=[0, 3],
                           torus={"rows": None, "cols": 6}),
        lambda d: d.update(family={"kind": "c3xc", "n": 5}, n_vertices=15, set=[0],
                           torus={"rows": 7.5, "cols": True}),
    ],
)
def test_malformed_documents_are_rejected(mutate):
    doc = certificate_to_document(decycle_c4xn(6))
    mutate(doc)
    with pytest.raises(CertificateFormatError):
        document_to_certificate(doc)


def test_a_document_without_its_torus_still_loads():
    cert = decycle_c4xn(6)
    doc = certificate_to_document(cert)
    del doc["torus"]
    assert document_to_certificate(doc) == cert


def test_loads_rejects_invalid_json():
    with pytest.raises(CertificateFormatError):
        loads("{not json")
    with pytest.raises(CertificateFormatError):
        loads(json.dumps([1, 2, 3]))


@pytest.mark.parametrize(
    "text",
    ['{"schema_version": ' + "9" * 5000 + "}", "[" * 100_000],
    ids=["int-digit-limit", "deep-nesting"],
)
def test_loads_maps_parser_limits_to_format_errors(text):
    with pytest.raises(CertificateFormatError, match="invalid JSON"):
        loads(text)


def test_load_rejects_text_that_is_not_utf8(tmp_path):
    path = tmp_path / "cert.json"
    path.write_bytes(b"\xff\xfe{}")
    with pytest.raises(CertificateFormatError, match="not UTF-8"):
        load(str(path))


@pytest.mark.parametrize("cert", [
    decycle_c4xn(9),
    build_certificate(FamilySpec.c3xc(11)),
    build_certificate(FamilySpec.pow2(301)),
    build_certificate(FamilySpec.pow3(10)),
    DecyclingCertificate(FamilySpec.powm(9, 4), VertexSet.of(9, [1, 2]), 2, 0, "oracle"),
    DecyclingCertificate(FamilySpec.pow2(7), VertexSet.empty(7), 0, 0, "empty"),
    DecyclingCertificate(FamilySpec.c4xc(5), VertexSet.of(20, [0]), 1, 0,
                         'x",\n  "set": [1, 2],\n  "m": {"é": []}\\'),
], ids=["c4xc", "c3xc", "pow2", "pow3", "powm", "empty-set", "json-like-method"])
def test_dumps_is_the_indented_json_of_the_document(cert):
    assert dumps(cert) == json.dumps(certificate_to_document(cert), indent=2) + "\n"
    assert loads(dumps(cert)) == cert


def test_dumps_matches_indented_json_on_random_certificates():
    rng = random.Random(20261018)
    for _ in range(100):
        cert = random_certificate(rng)
        assert dumps(cert) == json.dumps(certificate_to_document(cert), indent=2) + "\n"
