import json

import pytest

from decycling.certio import load, save
from decycling.cli import main
from decycling.construct import decycle_cn2
from decycling.verify import VertexSet
from dataclasses import replace


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_nabla_known_families(capsys):
    code, out, _ = run(capsys, "nabla", "pow3", "9")
    assert code == 0 and out.startswith("5 ")
    code, out, _ = run(capsys, "nabla", "c3xc", "3")
    assert code == 0 and out.startswith("4 ")
    code, out, _ = run(capsys, "nabla", "c4xc", "6")
    assert code == 0 and out.startswith("9 ")


def test_nabla_out_of_range_exits_3(capsys):
    code, _, err = run(capsys, "nabla", "pow2", "2")
    assert code == 3 and "n >= 4" in err
    code, _, err = run(capsys, "nabla", "powm", "12", "4")
    assert code == 3


def test_nabla_powm_delegates_to_square_and_cube(capsys):
    code, out, _ = run(capsys, "nabla", "powm", "11", "2")
    assert code == 0 and out.startswith("5 ")
    code, out, _ = run(capsys, "nabla", "powm", "11", "3")
    assert code == 0 and out.startswith("7 ")


def test_construct_powm_is_not_covered(capsys):
    code, _, err = run(capsys, "construct", "powm", "11", "4")
    assert code == 3


def test_unknown_family_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["nabla", "hexagons", "5"])
    assert info.value.code == 2


def test_powm_needs_its_exponent(capsys):
    code, _, err = run(capsys, "nabla", "powm", "12")
    assert code == 2 and "powm" in err
    code, _, err = run(capsys, "nabla", "pow2", "12", "3")
    assert code == 2


def test_construct_writes_verified_certificate(capsys, tmp_path):
    path = tmp_path / "cert.json"
    code, out, _ = run(capsys, "construct", "pow2", "10", "-o", str(path))
    assert code == 0
    assert "status=verified" in out
    cert = load(str(path))
    assert cert.vertex_set.sorted_members() == [0, 3, 6, 9]
    assert cert.status == "verified"


def test_construct_prints_document_without_output_path(capsys):
    code, out, _ = run(capsys, "construct", "pow3", "11")
    assert code == 0
    doc = json.loads(out)
    assert doc["set"] == [0, 1, 2, 4, 5, 8, 9]


def test_verify_round_trip(capsys, tmp_path):
    path = tmp_path / "cert.json"
    assert run(capsys, "construct", "c4xc", "8", "-o", str(path))[0] == 0
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    assert out.startswith("verified")


def test_verify_tampered_certificate_exits_5(capsys, tmp_path):
    cert = decycle_cn2(10)
    dropped = cert.vertex_set.sorted_members()[:-1]
    tampered = replace(
        cert,
        vertex_set=VertexSet.of(cert.vertex_set.universe_size, dropped),
        cardinality=len(dropped),
        lower_bound=len(dropped),
    )
    path = tmp_path / "bad.json"
    save(tampered, str(path))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 5
    assert "residual cycle:" in out


def test_verify_malformed_json_exits_2(capsys, tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{", encoding="utf-8")
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2 and "certificate error" in err


def test_verify_missing_file_exits_4(capsys, tmp_path):
    code, _, err = run(capsys, "verify", str(tmp_path / "nope.json"))
    assert code == 4


def test_oracle_family(capsys):
    code, out, _ = run(capsys, "oracle", "c4xc", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "minimum 8"
    assert lines[1].startswith("witness ")


def test_oracle_edge_list(capsys, tmp_path):
    path = tmp_path / "triangle.txt"
    path.write_text("3\n0 1\n1 2\n2 0\n", encoding="utf-8")
    code, out, _ = run(capsys, "oracle", "--edges", str(path))
    assert code == 0
    assert out.splitlines()[0] == "minimum 1"


def test_oracle_usage_errors(capsys, tmp_path):
    code, _, err = run(capsys, "oracle")
    assert code == 2
    path = tmp_path / "t.txt"
    path.write_text("3\n0 1\n", encoding="utf-8")
    code, _, err = run(capsys, "oracle", "c3xc", "4", "--edges", str(path))
    assert code == 2


def test_oracle_node_budget_flag(capsys):
    code, _, err = run(capsys, "oracle", "c4xc", "5", "--node-budget", "3")
    assert code == 3 and "budget exceeded" in err


def test_oracle_refutation_exits_5(capsys, monkeypatch):
    import decycling.cli as cli

    monkeypatch.setattr(cli, "nabla_formula", lambda spec: 999)
    code, out, err = run(capsys, "oracle", "pow2", "6")
    assert code == 5 and "refuted" in err
    assert out.splitlines()[0] == "minimum 3"


def test_table_rejects_powm(capsys):
    code, _, err = run(capsys, "table", "powm", "4..8")
    assert code == 2


def test_oracle_env_budget(capsys, monkeypatch):
    monkeypatch.setenv("DECYCLING_NODE_BUDGET", "3")
    code, _, err = run(capsys, "oracle", "c4xc", "5")
    assert code == 3 and "budget exceeded" in err
    monkeypatch.setenv("DECYCLING_NODE_BUDGET", "banana")
    code, _, err = run(capsys, "oracle", "c4xc", "5")
    assert code == 2


def test_table_with_oracle_columns(capsys):
    code, out, _ = run(capsys, "table", "c4xc", "4..6", "--oracle")
    assert code == 0
    rows = [line.split() for line in out.splitlines()[1:]]
    assert [(r[0], r[1], r[3]) for r in rows] == [
        ("4", "6", "6"),
        ("5", "8", "8"),
        ("6", "9", "9"),
    ]


def test_table_without_oracle(capsys):
    code, out, _ = run(capsys, "table", "pow3", "5..14")
    assert code == 0
    rows = [line.split() for line in out.splitlines()[1:]]
    gaps = {int(r[0]): int(r[1]) - int(r[2]) for r in rows}
    assert all(gap in (0, 1) for gap in gaps.values())
    assert {n for n, gap in gaps.items() if gap == 1} == {8, 12}


def test_table_bad_range(capsys):
    code, _, err = run(capsys, "table", "pow2", "4-16")
    assert code == 2


def test_export_highlights_certificate(capsys, tmp_path):
    path = tmp_path / "cert.json"
    run(capsys, "construct", "c4xc", "4", "-o", str(path))
    code, out, _ = run(capsys, "export", "c4xc", "4", "--cert", str(path))
    assert code == 0
    assert out.count("style=filled") == 6
    assert "penwidth=2.5" in out  # surviving edges drawn thick


def test_export_plain_graph(capsys):
    code, out, _ = run(capsys, "export", "pow2", "7")
    assert code == 0
    assert out.startswith("graph G {")
    assert "style=filled" not in out


def test_export_adjacency_format(capsys):
    code, out, _ = run(capsys, "export", "pow2", "5", "--format", "adjacency")
    assert code == 0
    assert out.splitlines()[0] == "0: 1 2 3 4"


def test_export_family_mismatch(capsys, tmp_path):
    path = tmp_path / "cert.json"
    run(capsys, "construct", "c4xc", "4", "-o", str(path))
    code, _, err = run(capsys, "export", "c4xc", "6", "--cert", str(path))
    assert code == 2


def test_export_writes_file(capsys, tmp_path):
    out_path = tmp_path / "graph.dot"
    code, out, _ = run(capsys, "export", "c3xc", "5", "-o", str(out_path))
    assert code == 0
    assert out_path.read_text(encoding="utf-8").startswith("graph G {")


def test_budget_error_prints_a_best_known_bound_of_zero(capsys, monkeypatch):
    import decycling.cli as cli
    from decycling.errors import BudgetExceededError

    def exhausted(*args, **kwargs):
        raise BudgetExceededError("node budget 1 exceeded", best_known=0)

    monkeypatch.setattr(cli, "min_fvs_exact", exhausted)
    code, _, err = run(capsys, "oracle", "pow2", "6")
    assert code == 3 and "best known upper bound 0" in err
