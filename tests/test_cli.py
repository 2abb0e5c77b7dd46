import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from conftest import c4_chain, complete_bipartite, desk_graph6, entry_graph, ladder, remove_edge

import raagscope
from raagscope.cli import MAX_EXTENSION, MAX_VERTICES, main
from raagscope.generate import nonisomorphic_graphs
from raagscope.graphs import (
    Graph,
    emit_edgelist,
    emit_graph6,
    graph_to_json,
    is_isomorphic,
    new_graph,
    parse_edgelist,
    parse_graph,
    parse_graph6,
    standard_graph,
)
from raagscope.ops import complement
from raagscope.prover import (DEFAULT_BUDGET, DEFAULT_COCONTRACT_DEPTH, derivation_to_json,
                              is_chordal_bipartite, prove_in_f)

C5_G6 = emit_graph6(standard_graph("cycle", 5)).decode()
P4_G6 = emit_graph6(standard_graph("path", 4)).decode()
UNKNOWN_G6 = "IypEtv?sG"  # a 10-vertex unknown


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify_exit_codes(capsys, tmp_path):
    code, out, _ = run(capsys, "classify", C5_G6)
    assert code == 1 and "has_surface_subgroup" in out
    code, out, _ = run(capsys, "classify", P4_G6)
    assert code == 0 and "no_surface_subgroup" in out
    q19 = tmp_path / "q19.el"
    q19.write_bytes(emit_edgelist(entry_graph("Q1(9)")))
    code, out, _ = run(capsys, "classify", str(q19), "--budget", "1",
                       "--cocontract-depth", "0")
    assert code == 2 and "unknown" in out
    code, _, err = run(capsys, "classify", "not-a-graph6???x")
    assert code == 64
    dangling = tmp_path / "dangling.el"
    dangling.write_text("vertices: a b\na c\n")
    code, out, err = run(capsys, "classify", str(dangling))
    assert code == 64 and out == "" and err.count("\n") == 1
    assert "edge endpoint not in vertex list" in err


def test_classify_json_report_and_verify_round_trip(capsys, tmp_path):
    code, out, _ = run(capsys, "classify", "--json", C5_G6)
    assert code == 1
    report = json.loads(out)
    assert report["schema"] == "raagscope/1"
    assert report["verdict"] == "has_surface_subgroup"
    assert report["certificate"]["certificate_type"] == "obstruction"
    assert set(report["timings"]) >= {"total", "prover", "obstruction_scan"}

    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(report["certificate"]))
    code, out, _ = run(capsys, "verify", C5_G6, str(cert))
    assert code == 0 and "valid" in out

    # the full report is accepted too
    full = tmp_path / "report.json"
    full.write_text(json.dumps(report))
    code, out, _ = run(capsys, "verify", C5_G6, str(full))
    assert code == 0

    # derivation reports round-trip the same way
    code, out, _ = run(capsys, "classify", "--json", P4_G6)
    assert code == 0
    dreport = json.loads(out)
    dcert = tmp_path / "dcert.json"
    dcert.write_text(json.dumps(dreport["certificate"]))
    code, out, _ = run(capsys, "verify", P4_G6, str(dcert))
    assert code == 0 and "valid" in out


def test_every_desk_certificate_verifies_against_its_own_echo(capsys, tmp_path):
    # a graph6 input names its vertices v1..vn by position; sorted-name order
    # would put v10 before v2, so on 10 or more vertices the echo must keep
    # the positions for an obstruction's names to resolve against it
    cert = tmp_path / "cert.json"
    certificates = 0
    for text in desk_graph6(1):
        code, out, _ = run(capsys, "classify", "--json", text)
        report = json.loads(out)
        assert parse_graph6(report["input"]["graph6"].encode()) == parse_graph6(text.encode())
        if report["certificate"] is None:
            continue
        certificates += 1
        cert.write_text(json.dumps(report["certificate"]))
        code, out, _ = run(capsys, "verify", report["input"]["graph6"], str(cert))
        assert (code, out) == (0, "valid\n"), text
    assert certificates == 145


def test_an_edgelist_echo_follows_the_sorted_names_unless_they_are_v1_to_vn(capsys, tmp_path):
    path = tmp_path / "g.el"
    for names in (["b", "a", "c", "v1"], ["v%d" % k for k in range(1, 12)]):
        edges = "".join("%s %s\n" % pair for pair in zip(names, names[1:]))
        path.write_text("vertices: %s\n%s" % (" ".join(names), edges))
        g = parse_edgelist(path.read_bytes())
        code, out, _ = run(capsys, "classify", "--json", str(path))
        report = json.loads(out)
        assert report["input"]["vertices"] == sorted(names)
        echo = report["input"]["graph6"].encode()
        if names[0] == "b":
            assert echo == emit_graph6(g)
        else:
            assert parse_graph6(echo) == g and echo == emit_graph6(g)


def test_verify_rejects_corruption_and_wrong_graph(capsys, tmp_path):
    code, out, _ = run(capsys, "classify", "--json", P4_G6)
    report = json.loads(out)
    cert = report["certificate"]

    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps(cert))
    code, out, _ = run(capsys, "verify", C5_G6, str(wrong))
    assert code == 1 and "invalid" in out

    # the first clique step's separator leaves its clique
    cert["root"]["steps"][0]["separator"] = ["v1", "v3"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cert))
    code, out, _ = run(capsys, "verify", P4_G6, str(bad))
    assert code == 1

    mal = tmp_path / "mal.json"
    mal.write_text("{not json")
    code, _, err = run(capsys, "verify", P4_G6, str(mal))
    assert code == 65

    nocert = tmp_path / "nocert.json"
    nocert.write_text(json.dumps({"hello": 1}))
    code, _, _ = run(capsys, "verify", P4_G6, str(nocert))
    assert code == 65


def test_verify_chordal_bipartite_derivation_round_trip(capsys, tmp_path):
    names = ["v%d" % i for i in range(1, 7)]
    k33 = new_graph(names, [(a, b) for a in names[:3] for b in names[3:]])
    g6 = emit_graph6(k33).decode()
    root = derivation_to_json(is_chordal_bipartite(k33))
    cert = tmp_path / "k33.json"
    cert.write_text(json.dumps({"certificate_type": "derivation", "root": root}))
    code, out, _ = run(capsys, "verify", g6, str(cert))
    assert code == 0 and out == "valid\n"

    # the last edge step trades places with the later clique step that
    # removes one of its ends, which then still has an edge out of its clique
    steps = root["steps"]
    i = max(k for k, step in enumerate(steps) if "edge" in step)
    j = next(k for k, step in enumerate(steps)
             if k > i and set(step.get("clique", ())) & set(steps[i]["edge"]))
    steps[i], steps[j] = steps[j], steps[i]
    cert.write_text(json.dumps({"certificate_type": "derivation", "root": root}))
    code, out, _ = run(capsys, "verify", g6, str(cert))
    assert code == 1 and out == "invalid\n"


def test_verify_answers_a_step_naming_an_absent_vertex_invalid(capsys, tmp_path):
    # a step that names a vertex its chain's graph lacks is an invalid
    # certificate, exit 1, not a malformed one, exit 65: in an edge step, a
    # clique and a separator of the chain of C4 with a triangle hung at v1
    g = new_graph(["v%d" % i for i in range(1, 7)],
                  [("v1", "v2"), ("v2", "v3"), ("v3", "v4"), ("v4", "v1"),
                   ("v1", "v5"), ("v5", "v6"), ("v6", "v1")])
    g6 = emit_graph6(g).decode()
    code, out, _ = run(capsys, "classify", "--json", g6)
    root = json.loads(out)["certificate"]["root"]
    assert code == 0 and root["rule"] == "ChainRule"
    cert = tmp_path / "cert.json"
    edge = next(k for k, step in enumerate(root["steps"]) if "edge" in step)
    clique = next(k for k, step in enumerate(root["steps"]) if step.get("separator"))
    for k, key in ((edge, "edge"), (clique, "clique"), (clique, "separator")):
        obj = json.loads(json.dumps(root))
        obj["steps"][k][key][0] = "v7"
        cert.write_text(json.dumps({"certificate_type": "derivation", "root": obj}))
        code, out, _ = run(capsys, "verify", g6, str(cert))
        assert (code, out) == (1, "invalid\n"), (k, key)


def test_nested_certificates_of_earlier_releases_still_verify(capsys, tmp_path):
    # classify --json reports written before chain nodes existed, one node
    # per peel step and per removed edge: a chordal graph, C4 and K3,3
    lines = (Path(__file__).parent / "data" / "nested_certificates.jsonl").read_text().splitlines()
    assert len(lines) == 3
    for line in lines:
        assert "ChainRule" not in line and '"rule": "AmalgamRule"' in line
        report = tmp_path / "report.json"
        report.write_text(line)
        g6 = json.loads(line)["input"]["graph6"]
        assert run(capsys, "verify", g6, str(report))[:2] == (0, "valid\n"), g6


def _legacy_edge_node(g, edge, child) -> dict:
    """A BisimplicialRule node as written before chain nodes existed."""
    return {"rule": "BisimplicialRule", "graph": graph_to_json(g), "edge": edge,
            "children": [derivation_to_json(prove_in_f(child))]}


def test_a_legacy_bisimplicial_node_is_checked_as_a_one_step_chain(capsys, tmp_path):
    c4 = standard_graph("cycle", 4)
    p4 = standard_graph("path", 4)
    cert = tmp_path / "cert.json"
    cases = [
        (c4, ["v1", "v2"], remove_edge(c4, ("v1", "v2")), (0, "valid\n")),
        # v2-v3 of P4 is not bisimplicial, though its child is P4 less it
        (p4, ["v2", "v3"], remove_edge(p4, ("v2", "v3")), (1, "invalid\n")),
        (c4, ["v1", "zz"], remove_edge(c4, ("v1", "v2")), (1, "invalid\n")),
        # the child removes another edge than the node names
        (c4, ["v1", "v2"], remove_edge(c4, ("v2", "v3")), (1, "invalid\n")),
    ]
    for g, edge, child, expected in cases:
        root = _legacy_edge_node(g, edge, child)
        cert.write_text(json.dumps({"certificate_type": "derivation", "root": root}))
        code, out, _ = run(capsys, "verify", emit_graph6(g).decode(), str(cert))
        assert (code, out) == expected, edge


@pytest.mark.parametrize("edge", [["v1"], ["v1", "v2", "v3"], "v1v2", [1, 2], None],
                         ids=["one name", "three names", "a string", "not names", "null"])
def test_a_legacy_bisimplicial_node_with_a_malformed_edge_exits_65(capsys, tmp_path, edge):
    # malformed as a chain's edge step of the same shape is
    c4 = standard_graph("cycle", 4)
    root = _legacy_edge_node(c4, edge, remove_edge(c4, ("v1", "v2")))
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps({"certificate_type": "derivation", "root": root}))
    code, out, err = run(capsys, "verify", emit_graph6(c4).decode(), str(cert))
    assert code == 65 and out == ""
    assert err.count("\n") == 1 and err.startswith("malformed certificate:")


def test_k23_23_reports_in_one_line_and_verifies(tmp_path):
    # its derivation removes 529 edges, yet nests two levels deep; this runs
    # in a fresh process, as the console script does
    names = ["a%d" % i for i in range(23)] + ["b%d" % i for i in range(23)]
    graph = tmp_path / "k23_23.el"
    graph.write_bytes(emit_edgelist(
        Graph(names, [(a, b) for a in names[:23] for b in names[23:]])))
    src = os.path.dirname(os.path.dirname(raagscope.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))

    def cli(*argv):
        return subprocess.run([sys.executable, "-m", "raagscope.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=120)

    proc = cli("classify", "--json", str(graph))
    assert proc.returncode == 0 and proc.stdout.count("\n") == 1 and proc.stderr == ""
    report = tmp_path / "report.json"
    report.write_text(proc.stdout)
    proc = cli("verify", str(graph), str(report))
    assert (proc.returncode, proc.stdout) == (0, "valid\n")


def test_large_bipartite_graphs_report_and_verify_in_process(capsys, tmp_path):
    # K24,24 exited 1 with a RecursionError while the search took one stack
    # frame per removed edge, and the 256-vertex ladder and C4 chain did not
    # finish; the greedy pass takes each bipartite core in one node
    for g in (complete_bipartite(24), complete_bipartite(64), ladder(128), c4_chain(85)):
        graph = tmp_path / "g.el"
        graph.write_bytes(emit_edgelist(g))
        t0 = time.perf_counter()
        code, out, err = run(capsys, "classify", "--json", str(graph))
        assert code == 0 and out.count("\n") == 1 and err == "", g.n
        report = tmp_path / "report.json"
        report.write_text(out)
        assert run(capsys, "verify", str(graph), str(report)) == (0, "valid\n", ""), g.n
        assert time.perf_counter() - t0 < 5.0, g.n


def test_exit_codes_stable_across_runs(capsys):
    for g6 in (C5_G6, P4_G6):
        runs = [run(capsys, "classify", "--json", g6) for _ in range(2)]
        assert runs[0][0] == runs[1][0]
        r0 = json.loads(runs[0][1])
        r1 = json.loads(runs[1][1])
        del r0["timings"], r1["timings"]
        assert r0 == r1


def test_ops_complement(capsys):
    code, out, _ = run(capsys, "ops", "complement", C5_G6, "--to", "graph6")
    assert code == 0
    assert out.endswith("\n") and out.count("\n") == 1
    got = parse_graph6(out.strip().encode())
    assert is_isomorphic(got, standard_graph("cycle", 5)) is not None


def test_ops_complement_twice_through_graph6_gives_the_input_back(capsys):
    # a graph6 input names its vertices v1..vn by position, and --to graph6
    # keeps those positions, so on 10 or more vertices v10 stays after v9
    for text in desk_graph6(1):
        code, out, _ = run(capsys, "ops", "complement", text, "--to", "graph6")
        assert code == 0
        code, back, _ = run(capsys, "ops", "complement", out.strip(), "--to", "graph6")
        assert (code, back) == (0, text + "\n")


def test_ops_cocontract_reaches_smaller_entry(capsys, tmp_path):
    q19 = tmp_path / "q19.el"
    q19.write_bytes(emit_edgelist(entry_graph("Q1(9)")))
    code, out, _ = run(capsys, "ops", "cocontract", str(q19), "a,b")
    assert code == 0
    got = parse_graph_from_edgelist_with_reserved(out)
    assert is_isomorphic(got, entry_graph("P1(8)")) is not None


def test_ops_cocontract_names_the_least_unknown_vertex_whatever_the_hash_seed(tmp_path):
    # the named set is a set; the error must not depend on its iteration order
    g = tmp_path / "abc.el"
    g.write_text("vertices: a b c\n")
    src = os.path.dirname(os.path.dirname(raagscope.__file__))
    for seed in range(1, 6):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run(
            [sys.executable, "-m", "raagscope.cli", "ops", "cocontract", str(g), "xx,yy"],
            capture_output=True, text=True, env=env, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            64, "", "error: unknown vertex 'xx'\n"), seed


def parse_graph_from_edgelist_with_reserved(text):
    # CLI output may contain generated "$" names, which the strict user-input
    # parser rejects; rebuild through the raw constructor
    from raagscope.graphs import Graph

    lines = [ln for ln in text.splitlines() if ln.strip()]
    names = lines[0][len("vertices:"):].split()
    edges = [tuple(ln.split()) for ln in lines[1:]]
    return Graph(names, edges)


def test_ops_extend_and_separators(capsys, tmp_path):
    p3 = tmp_path / "p3.el"
    p3.write_text("vertices: x y z\nx y\ny z\n")
    code, out, _ = run(capsys, "ops", "extend", str(p3))
    assert code == 0
    got = parse_graph_from_edgelist_with_reserved(out)
    assert got.n == 7
    code, out, _ = run(capsys, "ops", "separators", str(p3))
    assert code == 0 and "separator: {y}" in out
    code, out, _ = run(capsys, "ops", "separators", str(p3), "--json")
    data = json.loads(out)
    assert data[0]["separator"] == ["y"]


def _edge_list(names, edges) -> str:
    return "vertices: %s\n" % " ".join(names) + "".join("%s %s\n" % e for e in edges)


def test_ops_extend_refuses_an_extension_past_its_bound_while_counting(capsys, tmp_path):
    # the complete 20-partite graph with parts of size 3: 60 vertices, under
    # the vertex cap, but 3^20 maximal cliques, which are never all listed
    names = ["p%d_%d" % (i, j) for i in range(20) for j in range(3)]
    graph = tmp_path / "k3x20.el"
    graph.write_text(_edge_list(names, [(a, b) for a in names for b in names
                                        if a < b and a.split("_")[0] != b.split("_")[0]]))
    t0 = time.process_time()
    code, out, err = run(capsys, "ops", "extend", str(graph))
    assert time.process_time() - t0 < 5.0
    assert code == 64 and out == "" and err.count("\n") == 1
    assert "more than %d vertices" % MAX_EXTENSION in err


@pytest.mark.parametrize("kind, order", [("path", 766), ("cycle", 768), ("complete", 512)])
def test_ops_extend_extends_graphs_at_the_vertex_cap(capsys, tmp_path, kind, order):
    g = standard_graph(kind, MAX_VERTICES)
    graph = tmp_path / "g.el"
    graph.write_bytes(emit_edgelist(g))
    code, out, _ = run(capsys, "ops", "extend", str(graph))
    assert code == 0
    assert len(out.splitlines()[0].split()) - 1 == order


def test_ops_join(capsys, tmp_path):
    a = tmp_path / "a.el"
    a.write_text("vertices: a1 a2\n")
    b = tmp_path / "b.el"
    b.write_text("vertices: b1 b2 b3\n")
    code, out, _ = run(capsys, "ops", "join", str(a), str(b))
    assert code == 0
    got = parse_edgelist(out.encode())
    assert got.n == 5 and got.m == 6


def test_word_commands(capsys, tmp_path):
    g = tmp_path / "edge.el"
    g.write_text("vertices: a b\na b\n")
    code, out, _ = run(capsys, "word", "nf", "-g", str(g), "a b a^-1 b^-1")
    assert code == 0 and out.strip() == ""
    code, out, _ = run(capsys, "word", "trivial", "-g", str(g), "a b a^-1 b^-1")
    assert out.strip() == "true"
    code, out, _ = run(capsys, "word", "equal", "-g", str(g), "a b", "b a")
    assert out.strip() == "true"
    code, out, _ = run(capsys, "word", "clique-conj", "-g", str(g), "b a b^-1")
    assert out.strip() == "{a}"
    code, _, err = run(capsys, "word", "nf", "-g", str(g), "zz")
    assert code == 64


@pytest.mark.parametrize("op", ["nf", "trivial", "equal", "clique-conj"])
def test_word_commands_refuse_a_word_past_512_letters(capsys, tmp_path, op):
    g = tmp_path / "edge.el"
    g.write_text("vertices: a b\na b\n")
    short = "a b"
    for letters, code in ((512, 0), (513, 64)):
        word = " ".join(["a", "a^-1"] * (letters // 2) + ["b"] * (letters % 2))
        for words in ([word, short], [short, word]) if op == "equal" else ([word],):
            got, out, err = run(capsys, "word", op, "-g", str(g), *words)
            if code == 0:
                assert (got, err) == (0, "") and out.count("\n") == 1
            else:
                assert (got, out) == (64, "") and err == (
                    "error: word has 513 letters, cap is 512\n")


def test_surf_commands(capsys, tmp_path):
    edge = tmp_path / "edge.el"
    edge.write_text("vertices: a b\na b\n")
    p3 = tmp_path / "p3.el"
    p3.write_text("vertices: a b c\na b\nb c\n")

    hom = tmp_path / "hom.json"
    hom.write_text(json.dumps({
        "presentation": {"genus": 1, "boundary": 1},
        "images": {"x1": "a", "y1": "b", "d1": "b a b^-1 a^-1"},
    }))
    code, out, _ = run(capsys, "surf", "check", "-g", str(edge), str(hom))
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(capsys, "surf", "kernel", "-g", str(edge), str(hom), "--max-len", "5")
    assert out.strip() == "x1 y1 x1^-1 y1^-1"

    pants = tmp_path / "pants.json"
    pants.write_text(json.dumps({
        "presentation": {"genus": 0, "boundary": 3},
        "images": {"d1": "a", "d2": "c", "d3": "c^-1 a^-1"},
    }))
    code, out, _ = run(capsys, "surf", "relative", "-g", str(p3), str(pants))
    assert out.strip().startswith("false") and "3" in out


def test_surf_relative_refuses_a_closed_surface(capsys, tmp_path):
    # the images define a homomorphism, but a closed surface has no boundary
    # to test: one error line and exit 64, as words.is_relative_hom refuses it
    graph = tmp_path / "two.el"
    graph.write_text("vertices: a b\n")
    hom = tmp_path / "closed.json"
    hom.write_text(json.dumps({
        "presentation": {"genus": 2, "boundary": 0},
        "images": {"x1": "a", "y1": "a", "x2": "b", "y2": "b"},
    }))
    code, out, _ = run(capsys, "surf", "check", "-g", str(graph), str(hom))
    assert code == 0 and out.strip() == "true"
    code, out, err = run(capsys, "surf", "relative", "-g", str(graph), str(hom))
    assert code == 64 and out == ""
    assert "boundary" in err and err.count("\n") == 1


def test_batch_mode(capsys, tmp_path):
    feed = tmp_path / "batch.g6"
    feed.write_text("%s\n%s\n" % (C5_G6, P4_G6))
    code, out, _ = run(capsys, "classify", "--batch", str(feed))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].endswith("has_surface_subgroup")
    assert lines[1].endswith("no_surface_subgroup")


def test_batch_reports_a_bad_line_and_carries_on(capsys, tmp_path):
    feed = tmp_path / "batch.g6"
    feed.write_text("D?{\nnot-a-graph\nD~{\n")
    code, out, _ = run(capsys, "classify", "--batch", str(feed))
    assert code == 64
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert lines[0] == "D?{ no_surface_subgroup"
    assert lines[1].startswith("not-a-graph parse error:")
    assert lines[2] == "D~{ no_surface_subgroup"
    code, out, _ = run(capsys, "classify", "--batch", "--json", str(feed))
    assert code == 64
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert [r["verdict"] for r in records] == ["no_surface_subgroup", None, "no_surface_subgroup"]
    assert records[1]["input"] == {"line": 2, "text": "not-a-graph"}
    assert records[1]["error"].startswith("parse error:")
    assert "error" not in records[0] and "error" not in records[2]


def test_text_classify_builds_no_json_record(capsys, tmp_path, monkeypatch):
    # text output reads the verdict; the JSON report and the derivation's
    # JSON are built only under --json
    import raagscope.cli as cli
    import raagscope.prover as prover

    def refuse(*args, **kwargs):
        raise AssertionError("text output built a JSON record")
    for module, name in ((cli, "_report"), (cli, "derivation_to_json"),
                         (prover, "derivation_to_json")):
        monkeypatch.setattr(module, name, refuse)
    for g6, code in ((P4_G6, 0), (C5_G6, 1)):
        assert run(capsys, "classify", g6)[0] == code
    code, out, _ = run(capsys, "classify", UNKNOWN_G6, "--budget", "7", "--cocontract-depth", "1")
    assert code == 2 and out.splitlines()[1] == (
        "searched 1 prover nodes (budget 7); co-contraction depth 1")
    feed = tmp_path / "batch.g6"
    feed.write_text("%s\n%s\n%s\nnot-a-graph\n" % (P4_G6, C5_G6, UNKNOWN_G6))
    code, out, _ = run(capsys, "classify", "--batch", str(feed))
    assert code == 64 and [line.split()[1] for line in out.splitlines()] == [
        "no_surface_subgroup", "has_surface_subgroup", "unknown", "parse"]


def test_every_json_output_is_one_line(capsys, tmp_path):
    feed = tmp_path / "batch.g6"
    feed.write_text("%s\nnot-a-graph\n%s\n%s\n" % (P4_G6, C5_G6, UNKNOWN_G6))
    p3 = tmp_path / "p3.el"
    p3.write_text("vertices: x y z\nx y\ny z\n")
    for argv, records in ((["classify", "--json", P4_G6], 1),
                          (["classify", "--json", C5_G6], 1),
                          (["classify", "--json", UNKNOWN_G6], 1),
                          (["classify", "--batch", "--json", str(feed)], 4),
                          (["ops", "separators", "--json", str(p3)], 1)):
        _, out, _ = run(capsys, *argv)
        assert out.endswith("\n") and out.count("\n") == records, argv
        for line in out.splitlines():
            json.loads(line)


def test_unknown_report_states_no_parameter(capsys):
    # the budget and the depth are stated once, under parameters
    code, out, _ = run(capsys, "classify", "--json", UNKNOWN_G6)
    report = json.loads(out)
    assert code == 2 and set(report["unknown_report"]) == {
        "nodes_expanded", "budget_exhausted", "rules_attempted", "stuck"}
    assert report["parameters"]["budget"] == DEFAULT_BUDGET
    assert report["parameters"]["cocontract_depth"] == DEFAULT_COCONTRACT_DEPTH


def test_a_path_at_the_vertex_cap_reports_compactly_and_verifies(capsys, tmp_path):
    at_cap = emit_graph6(standard_graph("path", MAX_VERTICES)).decode()
    code, out, _ = run(capsys, "classify", "--json", at_cap)
    assert code == 0 and len(out) < 10 ** 6 and out.count("\n") == 1
    report = tmp_path / "report.json"
    report.write_text(out)
    assert run(capsys, "verify", at_cap, str(report))[:2] == (0, "valid\n")


def test_a_graph_past_the_vertex_cap_is_refused(capsys, tmp_path):
    # one error line and exit 64 from every subcommand that reads a graph;
    # a graph at the cap is classified
    at_cap = emit_graph6(standard_graph("path", MAX_VERTICES)).decode()
    past = tmp_path / "p257.el"
    past.write_bytes(emit_edgelist(standard_graph("path", MAX_VERTICES + 1)))
    line = "parse error: graph has %d vertices, cap is %d\n" % (MAX_VERTICES + 1, MAX_VERTICES)
    for argv in (["classify", str(past)], ["classify", "--json", str(past)],
                 ["verify", str(past), str(past)], ["ops", "complement", str(past)],
                 ["word", "nf", "-g", str(past), "v1"]):
        assert run(capsys, *argv) == (64, "", line), argv
    assert run(capsys, "classify", at_cap)[:2] == (0, "verdict: no_surface_subgroup\n"
                                                      "derivation rules: AmalgamRule, CompleteBase\n")


def test_batch_reports_a_graph_past_the_vertex_cap_and_carries_on(capsys, tmp_path):
    feed = tmp_path / "batch.g6"
    big = emit_graph6(standard_graph("path", 300)).decode()
    feed.write_text("%s\n%s\n%s\n" % (P4_G6, big, C5_G6))
    code, out, err = run(capsys, "classify", "--batch", "--json", str(feed))
    assert code == 64 and err == ""
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["verdict"] for r in records] == ["no_surface_subgroup", None,
                                               "has_surface_subgroup"]
    assert records[1]["input"] == {"line": 2, "text": big}
    assert records[1]["error"] == "parse error: graph has 300 vertices, cap is %d" % MAX_VERTICES


def test_batch_refuses_edgelist_format(capsys, tmp_path):
    # --batch reads graph6 only: each line of an edge list is a bad graph6 value
    feed = tmp_path / "p3.el"
    feed.write_text("# a path\nvertices: a b c\na b\nb c\n")
    code, out, err = run(capsys, "classify", "--batch", str(feed))
    assert code == 64 and err == ""
    assert [line.split(" parse error:")[0] for line in out.splitlines()] == [
        "vertices: a b c", "a b", "b c"]
    code, out, _ = run(capsys, "classify", "--batch", "--json", str(feed))
    assert code == 64
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["input"]["line"] for r in records] == [2, 3, 4]
    assert all(r["verdict"] is None and r["error"].startswith("parse error:") for r in records)


def test_input_decides_its_format_over_the_atlas():
    # an edge list exactly when the first line that is neither blank nor a
    # comment starts with "vertices:"; every other input is read as graph6
    for n in range(1, 8):
        for g in nonisomorphic_graphs(n):
            edgelist = emit_edgelist(g)
            for data in (emit_graph6(g), edgelist, b"# a comment\n\n" + edgelist):
                assert parse_graph(data) == g


def test_catalog_listing(capsys):
    # one row per cycle family, then the fixed entries
    code, out, _ = run(capsys, "catalog")
    rows = out.splitlines()
    assert code == 0 and [row.split()[0] for row in rows] == [
        "Cn", "coCn", "P1(8)", "Q1(9)", "Q2(10)"]
    assert "n >= 5" in rows[0] and "n >= 6" in rows[1]


# the house, the complement of P5, which the prover derives: refused as an
# entry, and the base of the malformed entries below
_HOUSE = {"name": "house(5)", "provenance": "test", "vertices": ["p", "q", "r", "s", "t"],
          "complement_edges": [["p", "q"], ["q", "r"], ["r", "s"], ["s", "t"]]}
# C5 on p..t plus the vertex u pendant at p, stored as its complement: it
# holds a hole, so the prover cannot derive it
_C5_PENDANT = {"name": "c5p(6)", "provenance": "test", "vertices": ["p", "q", "r", "s", "t", "u"],
               "complement_edges": [["p", "r"], ["p", "s"], ["q", "s"], ["q", "t"], ["r", "t"],
                                    ["q", "u"], ["r", "u"], ["s", "u"], ["t", "u"]]}


def _catalog(tmp_path, *entries):
    extra = tmp_path / "extra.json"
    extra.write_text(json.dumps(list(entries)))
    return str(extra)


def test_catalog_env_var(capsys, tmp_path, monkeypatch):
    extra = _catalog(tmp_path, {**_C5_PENDANT, "name": "envtest(6)"})
    monkeypatch.setenv("RAAGSCOPE_CATALOG", extra)
    code, out, _ = run(capsys, "catalog")
    assert code == 0 and "envtest(6)" in out
    # classify picks the env catalog up as well
    code, out, _ = run(capsys, "classify", "--json", C5_G6)
    assert json.loads(out)["parameters"]["catalog"] == extra


def _refused_at_load(capsys, extra, g6, kind):
    for flags in ([], ["--cross-check"]):
        code, out, err = run(capsys, "classify", "--catalog", extra, *flags, g6)
        assert code == 65 and out == "" and err.count("\n") == 1
        assert err.startswith("catalog error") and kind in err


def test_a_chordal_catalog_entry_is_refused_at_load(capsys, tmp_path):
    # K5 - e is chordal, and the paper puts chordal graphs in N', so it cannot
    # be an entry: the catalog is refused before K5 - e itself is classified
    extra = _catalog(tmp_path, {**_C5_PENDANT, "name": "k5e(5)",
                                "vertices": ["p", "q", "r", "s", "t"],
                                "complement_edges": [["p", "q"]]})
    _refused_at_load(capsys, extra, "D^{", "is chordal,")


def test_a_chordal_bipartite_catalog_entry_is_refused_at_load(capsys, tmp_path):
    # C4 plus a pendant vertex is chordal bipartite, so in N'; as an entry it
    # would certify El__, which contains it, although El__ is derived
    extra = _catalog(tmp_path, {
        "name": "c4p(5)", "provenance": "test", "vertices": ["a", "b", "c", "d", "e"],
        "complement_edges": [["a", "c"], ["b", "d"], ["a", "e"], ["b", "e"], ["c", "e"]]})
    _refused_at_load(capsys, extra, "El__", "is chordal bipartite")
    code, out, _ = run(capsys, "classify", "El__")
    assert code == 0 and "no_surface_subgroup" in out


def test_a_derived_catalog_entry_is_refused_at_load(capsys, tmp_path):
    # the house, the complement of P5, is neither chordal nor chordal
    # bipartite, but the prover derives it; as an entry it met itself, with
    # exit 1, and exit 70 under --cross-check
    extra = _catalog(tmp_path, _HOUSE)
    _refused_at_load(capsys, extra, "DUw", "is derived by the prover")
    code, out, _ = run(capsys, "classify", "DUw")
    assert code == 0 and "no_surface_subgroup" in out


def test_classify_rejects_nonpositive_budget(capsys):
    for budget in ("0", "-3"):
        code, out, err = run(capsys, "classify", P4_G6, "--budget", budget)
        assert code == 64
        assert out == "" and err.count("\n") == 1 and "--budget" in err


def test_classify_rejects_negative_cocontract_depth(capsys):
    code, out, err = run(capsys, "classify", P4_G6, "--cocontract-depth", "-5")
    assert code == 64
    assert out == "" and err.count("\n") == 1 and "--cocontract-depth" in err


def test_classify_depth_past_the_size_gate_adds_nothing(capsys):
    # below a 10-vertex unknown only states of at least 8 vertices can hold
    # P1(8), so the search stops at depth 2 whatever the flag asks for
    reports = []
    for depth in ("2", "1000000"):
        t0 = time.process_time()
        code, out, _ = run(capsys, "classify", "--json", UNKNOWN_G6, "--cocontract-depth", depth)
        assert code == 2 and time.process_time() - t0 < 5.0
        report = json.loads(out)
        del report["timings"]
        assert report["parameters"].pop("cocontract_depth") == int(depth)
        reports.append(report)
    assert reports[0] == reports[1]


def test_surf_kernel_rejects_negative_max_len(capsys, tmp_path):
    edge = tmp_path / "edge.el"
    edge.write_text("vertices: a b\na b\n")
    hom = tmp_path / "hom.json"
    hom.write_text(json.dumps({
        "presentation": {"genus": 1, "boundary": 1},
        "images": {"x1": "a", "y1": "b", "d1": "b a b^-1 a^-1"},
    }))
    code, out, err = run(capsys, "surf", "kernel", "-g", str(edge), str(hom), "--max-len", "-3")
    assert code == 64
    assert out == "" and err.count("\n") == 1 and "--max-len" in err
    code, out, _ = run(capsys, "surf", "kernel", "-g", str(edge), str(hom), "--max-len", "0")
    assert code == 0 and out == "none up to 0\n"


def test_surf_kernel_refuses_a_length_past_the_word_cap(capsys, tmp_path):
    # 20 letters over two free generators are about 7 * 10^9 reduced words,
    # hours of search; the count is refused before any word is tried
    edge = tmp_path / "edge.el"
    edge.write_text("vertices: a b\na b\n")
    hom = tmp_path / "hom.json"
    hom.write_text(json.dumps({
        "presentation": {"genus": 1, "boundary": 1},
        "images": {"x1": "a", "y1": "b", "d1": "b a b^-1 a^-1"},
    }))
    t0 = time.process_time()
    code, out, err = run(capsys, "surf", "kernel", "-g", str(edge), str(hom), "--max-len", "20")
    assert code == 64 and time.process_time() - t0 < 1.0
    assert out == "" and err.count("\n") == 1 and "max_len 20" in err


def test_verify_rejects_entry_larger_than_graph_without_building_it(capsys, tmp_path):
    # building C999999999 would take minutes and gigabytes; the entry is
    # refused from its name, as it cannot embed in a 5-vertex graph
    for entry in ("C999999999", "coC1000000", "C" + "9" * 5000):
        def doctor(cert):
            cert["entry"] = entry

        t0 = time.process_time()
        code, out, err = _verify_doctored(capsys, tmp_path, C5_G6, doctor)
        assert code == 1 and out == "invalid\n" and err == ""
        assert time.process_time() - t0 < 0.5


def _verify_doctored(capsys, tmp_path, g6, doctor):
    code, out, _ = run(capsys, "classify", "--json", g6)
    cert = json.loads(out)["certificate"]
    doctor(cert)
    path = tmp_path / "doctored.json"
    path.write_text(json.dumps(cert))
    return run(capsys, "verify", g6, str(path))


def test_verify_derivation_edge_with_three_names_is_malformed(capsys, tmp_path):
    def doctor(cert):
        cert["root"]["graph"]["edges"][0].append("v3")

    code, out, err = _verify_doctored(capsys, tmp_path, P4_G6, doctor)
    assert code == 65 and out == "" and "malformed certificate" in err


def test_verify_embedding_pair_with_one_name_is_malformed(capsys, tmp_path):
    def doctor(cert):
        cert["embedding"] = [["v1"]]

    code, out, err = _verify_doctored(capsys, tmp_path, C5_G6, doctor)
    assert code == 65 and out == "" and "malformed certificate" in err


def test_verify_bad_trail_steps_are_malformed(capsys, tmp_path):
    for step in ([["v1"], "v2"], ["v1", "v2", "v3"]):
        def doctor(cert):
            cert["kind"] = "CoContractionTrail"
            cert["trail"] = [step]

        code, out, err = _verify_doctored(capsys, tmp_path, C5_G6, doctor)
        assert code == 65 and out == "" and "malformed certificate" in err


def test_classify_exits_74_without_traceback_when_stdout_closes(tmp_path):
    # the 156 reports run to about 260 KB, past a pipe's buffer, so the
    # command is still writing when the reader goes away after 100 bytes
    batch = tmp_path / "six.g6"
    batch.write_bytes(b"\n".join(emit_graph6(g) for g in nonisomorphic_graphs(6)))
    src = os.path.dirname(os.path.dirname(raagscope.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.Popen(
        [sys.executable, "-m", "raagscope.cli", "classify", "--batch", "--json", str(batch)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        head = proc.stdout.read(100)
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    finally:
        proc.kill()
        proc.stderr.close()
    assert len(head) == 100
    assert code == 74
    assert b"Traceback" not in err


def test_verify_obstruction_with_a_non_string_entry_is_malformed(capsys, tmp_path):
    for entry in (None, 5, ["C5"]):
        def doctor(cert):
            cert["entry"] = entry

        code, out, err = _verify_doctored(capsys, tmp_path, C5_G6, doctor)
        assert code == 65 and out == "" and "malformed certificate" in err


def test_verify_join_without_two_parts_is_invalid(capsys, tmp_path):
    # the octahedron's derivation is a join at the root
    octahedron = "E]~o"
    for parts in ([["v1"]], [["v1"], ["v2"], ["v3"]]):
        def doctor(cert):
            assert cert["root"]["rule"] == "JoinRule"
            cert["root"]["bipartition"] = parts

        code, out, err = _verify_doctored(capsys, tmp_path, octahedron, doctor)
        assert code == 1 and out == "invalid\n" and err == ""


def test_certificate_that_is_not_utf8_is_malformed(capsys, tmp_path):
    cert = tmp_path / "latin1.json"
    cert.write_bytes('{"certificate_type": "dérivation"}'.encode("latin-1"))
    code, out, err = run(capsys, "verify", P4_G6, str(cert))
    assert code == 65 and out == ""
    assert err.count("\n") == 1 and err.startswith("malformed certificate:")


@pytest.mark.parametrize("argv", [["classify", "{graph}"], ["word", "nf", "-g", "{graph}", "a"]])
def test_edge_list_that_is_not_utf8_exits_64(capsys, tmp_path, argv):
    graph = tmp_path / "latin1.el"
    graph.write_bytes("vertices: a é\na é\n".encode("latin-1"))
    code, out, err = run(capsys, *[a.format(graph=graph) for a in argv])
    assert code == 64 and out == ""
    assert err.count("\n") == 1 and "not UTF-8" in err


def test_verify_deeply_nested_certificate_is_malformed(capsys, tmp_path):
    graph = json.dumps(graph_to_json(standard_graph("path", 4)))
    leaf = '{"rule": "CompleteBase", "graph": %s, "children": []}' % graph
    step = '{"rule": "BisimplicialRule", "graph": %s, "edge": ["v3", "v4"], "children": [' % graph
    chain = step * 600 + leaf + "]}" * 600
    cert = tmp_path / "deep.json"
    for text in ("[" * 200000, '{"certificate_type": "derivation", "root": %s}' % chain):
        cert.write_text(text)
        code, out, err = run(capsys, "verify", P4_G6, str(cert))
        assert code == 65 and out == "" and "malformed certificate" in err


@pytest.mark.parametrize("argv", [
    ["classify", "{dir}"],
    ["classify", "--batch", "{dir}"],
    ["verify", "{dir}", "{cert}"],
    ["ops", "complement", "{dir}"],
    ["word", "nf", "-g", "{dir}", "v1"],
])
def test_unreadable_input_path_exits_64_without_traceback(capsys, tmp_path, argv):
    # a directory exists but cannot be read as a file
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps({"certificate_type": "derivation"}))
    argv = [a.format(dir=tmp_path, cert=cert) for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 64 and out == ""
    assert "Traceback" not in err and err.count("\n") == 1 and "cannot read" in err


@pytest.mark.parametrize("argv", [
    ["classify", "{missing}"],
    ["classify", "--batch", "{missing}"],
])
def test_missing_input_path_exits_64_without_traceback(capsys, tmp_path, argv):
    # a path that does not exist holds "/" and ".", which no graph6 value
    # holds, so it is not parsed as one
    missing = tmp_path / "no" / "such" / "file.g6"
    argv = [a.format(missing=missing) for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 64 and out == ""
    assert "Traceback" not in err and err.count("\n") == 1
    assert "cannot read %s: No such file or directory" % missing in err


@pytest.mark.parametrize("text", [
    "not json",
    json.dumps([{**_HOUSE, "complement_edges": [["p", "q", "r"]]}]),
    json.dumps([{**_HOUSE, "complement_edges": [["p", ["q"]]]}]),
    json.dumps([{**_HOUSE, "name": 5}]),
    json.dumps([{**_HOUSE, "vertices": [1, 2, 3, 4, 5]}]),
])
@pytest.mark.parametrize("command", [["classify", C5_G6], ["verify", C5_G6, "{cert}"],
                                     ["catalog"]])
def test_malformed_catalog_exits_65_with_one_line(capsys, tmp_path, text, command):
    catalog = tmp_path / "extra.json"
    catalog.write_text(text)
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps({"certificate_type": "derivation"}))
    argv = [a.format(cert=cert) for a in command] + ["--catalog", str(catalog)]
    code, out, err = run(capsys, *argv)
    assert code == 65 and out == ""
    assert "Traceback" not in err and err.count("\n") == 1 and "catalog" in err
    if command[0] == "verify":
        assert err.startswith("catalog error")


@pytest.mark.parametrize("doc", [
    [1],
    {"presentation": {"genus": "x", "boundary": 1}, "images": {"x1": "a"}},
    {"presentation": {"genus": 0, "boundary": 1}, "images": [1]},
    {"presentation": {"genus": 0, "boundary": 1}, "images": {"d1": 1}},
    {"presentation": {"genus": 10 ** 12, "boundary": 1}, "images": {"d1": "a"}},
    # a homomorphism, but its d1 image has 600 letters, past the word cap
    {"presentation": {"genus": 1, "boundary": 1},
     "images": {"x1": "a", "y1": "b", "d1": "b a b^-1 a^-1" + " a a^-1" * 298}},
])
@pytest.mark.parametrize("op", ["check", "relative"])
def test_malformed_homomorphism_file_exits_64_with_one_line(capsys, tmp_path, doc, op):
    graph = tmp_path / "edge.el"
    graph.write_text("vertices: a b\na b\n")
    hom = tmp_path / "hom.json"
    hom.write_text(json.dumps(doc))
    code, out, err = run(capsys, "surf", op, "-g", str(graph), str(hom))
    assert code == 64 and out == ""
    assert "Traceback" not in err and err.count("\n") == 1


# one accepted command line per subcommand; the graph is C5 on v1..v5
_COMMAND_LINES = [
    ["classify", C5_G6],
    ["verify", C5_G6, "{cert}"],
    ["ops", "complement", C5_G6],
    ["ops", "join", C5_G6, "{edge}"],
    ["ops", "cocontract", C5_G6, "v1,v3"],
    ["ops", "extend", C5_G6],
    ["ops", "separators", C5_G6],
    ["word", "nf", "-g", C5_G6, "v1"],
    ["word", "trivial", "-g", C5_G6, "v1"],
    ["word", "equal", "-g", C5_G6, "v1", "v2"],
    ["word", "clique-conj", "-g", C5_G6, "v1"],
    ["surf", "check", "-g", C5_G6, "{hom}"],
    ["surf", "relative", "-g", C5_G6, "{hom}"],
    ["surf", "kernel", "-g", C5_G6, "--max-len", "2", "{hom}"],
    ["catalog"],
]

_BAD_COMMAND_LINES = (
    [[], ["bogus"]]
    + [argv + ["--bogus"] for argv in _COMMAND_LINES]
    # every subcommand but classify (its input defaults to stdin) and catalog
    # takes a positional last
    + [argv[:-1] for argv in _COMMAND_LINES[1:-1]]
    + [["classify", C5_G6, "--budget", "x"],
       ["classify", C5_G6, "--cocontract-depth", "1.5"],
       ["surf", "kernel", "-g", C5_G6, "{hom}", "--max-len", "two"],
       ["classify", C5_G6, "--catalog"],
       ["ops", "complement", C5_G6, "--to", "png"]]
)


def _command_files(capsys, tmp_path):
    code, out, _ = run(capsys, "classify", "--json", C5_G6)
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(json.loads(out)["certificate"]))
    hom = tmp_path / "hom.json"
    hom.write_text(json.dumps({"presentation": {"genus": 1, "boundary": 1},
                               "images": {"x1": "v1", "y1": "v2", "d1": "v2 v1 v2^-1 v1^-1"}}))
    edge = tmp_path / "edge.el"
    edge.write_text("vertices: a b\na b\n")
    return {"cert": cert, "hom": hom, "edge": edge}


@pytest.mark.parametrize("argv", _COMMAND_LINES, ids=" ".join)
def test_every_subcommand_accepts_its_table_line(capsys, tmp_path, argv):
    files = _command_files(capsys, tmp_path)
    code, out, err = run(capsys, *[a.format(**files) for a in argv])
    assert code in (0, 1) and out and err == ""


@pytest.mark.parametrize("argv", _BAD_COMMAND_LINES, ids=lambda argv: " ".join(argv) or "none")
def test_bad_command_line_exits_64_with_one_line(capsys, tmp_path, argv):
    # argparse's own exit code, 2, would read as "unknown" from classify
    files = _command_files(capsys, tmp_path)
    code, out, err = run(capsys, *[a.format(**files) for a in argv])
    assert code == 64 and out == ""
    assert "Traceback" not in err and err.count("\n") == 1 and "error:" in err
