import contextlib
import io
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decycling.certio import dumps, load, save
from decycling.cli import main
from decycling.construct import decycle_c3xn, decycle_c4xn, decycle_cn2, decycle_cn3
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


@pytest.mark.parametrize(
    "argv, stdout",
    [
        (("c3xc", "7"), "8 (closed form n+1)\n"),
        (("c4xc", "7"), "11 (closed form ceil(3n/2))\n"),
        (("pow2", "9"), "4 (closed form ceil((n+1)/3), n = 0 mod 3)\n"),
        (("pow2", "10"), "4 (closed form ceil((n+1)/3), n = 1 mod 3)\n"),
        (("pow2", "11"), "5 (closed form ceil((n+1)/3)+1, n = 2 mod 3)\n"),
        (("pow3", "10"), "6 (closed form (n+2)/2, n even)\n"),
        (("pow3", "9"), "5 (closed form (n+1)/2, n = 1 mod 4)\n"),
        (("pow3", "11"), "7 (closed form (n+3)/2, n = 3 mod 4)\n"),
        (("powm", "12", "2"), "5 (closed form ceil((n+1)/3), n = 0 mod 3)\n"),
        (("powm", "11", "2"), "5 (closed form ceil((n+1)/3)+1, n = 2 mod 3)\n"),
        (("powm", "12", "3"), "7 (closed form (n+2)/2, n even)\n"),
        (("powm", "13", "3"), "7 (closed form (n+1)/2, n = 1 mod 4)\n"),
    ],
)
def test_nabla_prints_value_and_branch_tag(capsys, argv, stdout):
    code, out, err = run(capsys, "nabla", *argv)
    assert (code, out, err) == (0, stdout, "")


def _write_document(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d["family"].update(n=10.0),
        lambda d: d.update(set=[False, 3, 6, 9]),
        lambda d: d.update(cardinality=True),
        lambda d: d.update(lower_bound=4.0),
        lambda d: d.update(n_vertices=10.0),
    ],
    ids=["float-n", "bool-member", "bool-cardinality", "float-bound", "float-order"],
)
def test_verify_rejects_wrong_json_number_types(capsys, tmp_path, mutate):
    doc = json.loads(dumps(decycle_cn2(10)))
    mutate(doc)
    code, out, err = run(capsys, "verify", _write_document(tmp_path / "c.json", doc))
    assert (code, out) == (2, "")
    assert err.startswith("certificate error")


def test_verify_realizes_the_graph_once(capsys, tmp_path, monkeypatch):
    import decycling.cli as cli
    import decycling.verify as verify

    calls = []

    def counted(spec, real=cli.realize):
        calls.append(spec)
        return real(spec)

    monkeypatch.setattr(cli, "realize", counted)
    monkeypatch.setattr(verify, "realize", counted)
    doc = json.loads(dumps(decycle_cn2(10)))
    doc["set"].pop()
    doc["cardinality"] -= 1
    code, out, _ = run(capsys, "verify", _write_document(tmp_path / "c.json", doc))
    assert code == 5 and "residual cycle:" in out
    assert len(calls) == 1


_BASE_DOCUMENTS = [
    json.loads(dumps(cert))
    for cert in (decycle_c3xn(4), decycle_c4xn(6), decycle_cn2(10), decycle_cn3(11))
]
_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 50)
    | st.integers(-3, 50).map(float)
    | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["kind", "n", "m", "x"]), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def _mutated_documents(draw):
    doc = json.loads(json.dumps(draw(st.sampled_from(_BASE_DOCUMENTS))))
    for _ in range(draw(st.integers(1, 3))):
        where = draw(st.sampled_from(["top", "family", "set"]))
        if where == "top":
            owner = doc
            key = draw(st.sampled_from(sorted(doc) + ["torus"]))
        elif where == "family" and isinstance(doc.get("family"), dict):
            owner = doc["family"]
            key = draw(st.sampled_from(["kind", "n", "m"]))
        elif where == "set" and isinstance(doc.get("set"), list) and doc["set"]:
            owner = doc["set"]
            key = draw(st.integers(0, len(owner) - 1))
        else:
            continue
        op = draw(st.sampled_from(["replace", "retype", "delete"]))
        value = owner.get(key) if isinstance(owner, dict) else owner[key]
        if op == "replace":
            owner[key] = draw(_JSON_VALUES)
        elif op == "retype" and isinstance(value, int):
            # The same number under another JSON type: 10 -> 10.0 or true.
            owner[key] = draw(st.sampled_from([float(value), bool(value)]))
        elif isinstance(owner, dict):
            owner.pop(key, None)
        else:
            del owner[key]
    text = json.dumps(doc)
    if draw(st.integers(0, 9)) == 0:
        text = text[: draw(st.integers(0, len(text)))]
    return text


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "cert.json"


@settings(max_examples=300, deadline=None)
@given(text=_mutated_documents())
def test_verify_fuzzed_documents_end_in_a_documented_exit_code(fuzz_path, text):
    fuzz_path.write_text(text, encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["verify", str(fuzz_path)])
    assert code in (0, 2, 3, 4, 5)


def _count_realize_calls(monkeypatch):
    """Route every import site of realize through a counter."""
    import sys

    import decycling.graphs as graphs

    calls = []

    def counted(spec, real=graphs.realize):
        calls.append(spec)
        return real(spec)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "decycling" and hasattr(module, "realize"):
            monkeypatch.setattr(module, "realize", counted)
    return calls


def test_verified_certificate_realizes_no_graph(capsys, tmp_path, monkeypatch):
    paths = []
    for family in ("c3xc", "c4xc", "pow2", "pow3"):
        path = tmp_path / f"{family}.json"
        assert run(capsys, "construct", family, "12", "-o", str(path))[0] == 0
        paths.append(path)
    calls = _count_realize_calls(monkeypatch)
    for path in paths:
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 0 and out.startswith("verified")
    assert calls == []


def test_construct_realizes_no_graph(capsys, monkeypatch):
    calls = _count_realize_calls(monkeypatch)
    for family in ("c3xc", "c4xc", "pow2", "pow3"):
        assert run(capsys, "construct", family, "12")[0] == 0
    assert calls == []


def test_verify_rejects_a_lower_bound_above_the_decycling_number(capsys, tmp_path):
    # The C4 x C6 construction plus 3 vertices still decycles the graph, but
    # its claimed bound of 12 would pin a decycling number that is really 9.
    doc = json.loads(dumps(decycle_c4xn(6)))
    extra = [v for v in range(24) if v not in doc["set"]][:3]
    doc.update(set=sorted(doc["set"] + extra), cardinality=12, lower_bound=12)
    code, out, _ = run(capsys, "verify", _write_document(tmp_path / "c.json", doc))
    assert code == 5
    assert out == (
        "failed: C4 x C6\n"
        "  lower bound 12 exceeds 9, the best bound or closed form known for C4 x C6\n"
    )


def test_verify_accepts_the_cube_power_closed_form_bound(capsys, tmp_path):
    # C12^3: the computed best bound is 6, the paper's value 7.
    path = _write_document(tmp_path / "c.json", json.loads(dumps(decycle_cn3(12))))
    code, out, _ = run(capsys, "verify", path)
    assert (code, out) == (0, "verified: C12^3 decycled by 7 vertices (lower bound 7)\n")


def _forbid_graph_building(monkeypatch):
    """Fail fast, instead of exhausting memory, if a graph gets built."""
    import decycling.cli as cli
    from decycling.graphs import Graph

    def refuse(*args):
        raise AssertionError("a graph was built before the vertex budget check")

    monkeypatch.setattr(cli, "realize", refuse)
    monkeypatch.setattr(Graph, "from_edges", staticmethod(refuse))


def test_oracle_checks_the_vertex_budget_before_building_a_family(capsys, monkeypatch):
    _forbid_graph_building(monkeypatch)
    code, out, err = run(capsys, "oracle", "c4xc", str(10**12))
    assert (code, out) == (3, "")
    assert err == f"budget exceeded: graph order {4 * 10**12} exceeds vertex budget 64\n"


def test_oracle_checks_the_vertex_budget_before_reading_edges(capsys, tmp_path, monkeypatch):
    _forbid_graph_building(monkeypatch)
    path = tmp_path / "huge.txt"
    path.write_text(f"{10**12}\n0 1\n", encoding="utf-8")
    code, out, err = run(capsys, "oracle", "--edges", str(path), "--vertex-budget", "40")
    assert (code, out) == (3, "")
    assert err == f"budget exceeded: graph order {10**12} exceeds vertex budget 40\n"


def test_table_oracle_checks_the_vertex_budget_first(capsys, monkeypatch):
    _forbid_graph_building(monkeypatch)
    code, _, err = run(capsys, "table", "c3xc", "30..31", "--oracle")
    assert code == 3 and "graph order 90 exceeds vertex budget 64" in err


def _exit_code(argv):
    """cli.main's exit code, counting argparse's SystemExit, output discarded."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exit_:
            return exit_.code


_HUGE = str(10**12)


@st.composite
def _edge_list_files(draw):
    """Edge lists on up to 9 vertices, a third of them with one defect."""
    n = draw(st.integers(0, 9))
    lines = [str(n)]
    for _ in range(draw(st.integers(0, 2 * n))):
        u, v = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        lines.append(f"{u} {v}" if u != v else f"{u} {(v + 1) % n}  # edge")
    if draw(st.integers(0, 2)) == 0:
        defect = draw(st.sampled_from(
            ["", "#", "x", "3.0", "-1", "1 2 3", "7", "0 -1", f"0 {n}", _HUGE, f"0 {_HUGE}"]
        ))
        lines.insert(draw(st.integers(0, len(lines))), defect)
    data = "\n".join(lines).encode("utf-8")
    if draw(st.integers(0, 19)) == 0:
        data += b"\xff\xfe"
    return data


@settings(max_examples=200, deadline=None)
@given(data=_edge_list_files(), budget=st.sampled_from([[], ["--node-budget", "300"]]))
def test_oracle_fuzzed_edge_lists_end_in_a_documented_exit_code(fuzz_path, data, budget):
    fuzz_path.write_bytes(data)
    assert _exit_code(["oracle", "--edges", str(fuzz_path), *budget]) in (0, 2, 3, 4, 5)


@pytest.fixture(scope="module")
def argv_dir(tmp_path_factory):
    """A scratch directory holding one good certificate and one edge list."""
    root = tmp_path_factory.mktemp("argv")
    save(decycle_cn2(7), str(root / "good.json"))
    (root / "edges.txt").write_text("4\n0 1\n1 2\n2 3\n3 0\n", encoding="utf-8")
    return root


_FAMILIES = st.sampled_from(["c3xc", "c4xc", "pow2", "pow3", "powm", "hexagons"])
# Sizes stay small (n <= 8, so branch-and-bound is fast too) wherever a
# graph, a set or a table row gets built; the huge one only reaches nabla
# and the oracle, whose vertex budget stops it.
_SMALL_VALUES = ["-1", "0", "3", "4", "5", "6", "7", "8", "x"]
_SMALL = st.sampled_from(_SMALL_VALUES)
_ANY = st.sampled_from(_SMALL_VALUES + [_HUGE])


@st.composite
def _argvs(draw, root):
    files = st.sampled_from([str(root / name) for name in
                             ("good.json", "good.json", "edges.txt", "missing.json", ".")])
    out = st.sampled_from([str(root / "out.txt")] * 3 + [str(root)])
    command = draw(st.sampled_from(["nabla", "construct", "verify", "oracle",
                                    "table", "export", "bogus"]))
    argv = [command]
    flags = []
    if command == "verify":
        argv += [draw(files)]
    elif command == "table":
        argv += [draw(_FAMILIES),
                 draw(st.sampled_from(["3..7", "5..8", "4..6", "9..5", "6", "1..4", "x..y"]))]
    elif command == "oracle" and draw(st.integers(0, 3)) == 0:
        flags += [("--edges", files)]
    elif command != "bogus":
        family = draw(_FAMILIES)
        argv += [family, draw(_ANY if command in ("nabla", "oracle") else _SMALL)]
        if draw(st.integers(0, 7)) < (6 if family == "powm" else 1):
            argv += [draw(_SMALL)]
    flags += {
        "construct": [("-o", out)],
        "export": [("--cert", files), ("--format", st.sampled_from(["dot", "adjacency", "png"])),
                   ("-o", out)],
    }.get(command, [])
    if command in ("oracle", "table"):
        flags += [("--node-budget", st.sampled_from(["-1", "1", "300", "300", "x"])),
                  ("--vertex-budget", st.sampled_from(["0", "8", "64", "64", "x"])),
                  ("--mode", st.sampled_from(["iterative-deepening", "branch-and-bound"] * 2
                                             + ["bfs"]))]
    if command == "table":
        flags += [("--oracle", None)]
    for flag, values in flags:
        if draw(st.booleans()):
            argv += [flag] if values is None else [flag, draw(values)]
    if draw(st.integers(0, 7)) == 0:
        argv.append(draw(st.sampled_from(["--bogus", "-x", "7", "--help"])))
    return argv


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_fuzzed_argv_ends_in_a_documented_exit_code(argv_dir, data):
    argv = data.draw(_argvs(argv_dir))
    # Relative paths an odd argv might write land in the scratch directory.
    cwd = os.getcwd()
    os.chdir(argv_dir)
    try:
        code = _exit_code(argv)
    finally:
        os.chdir(cwd)
    assert code in (0, 2, 3, 4, 5), argv
