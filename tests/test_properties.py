"""Property tests drawn by hypothesis (a test extra; skipped without it)."""

import contextlib
import copy
import io
import json
import random
import time
from itertools import combinations

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from raagscope.cli import main  # noqa: E402
from conftest import entry_graph, random_chordal, reference_canonical_sort  # noqa: E402
from raagscope.graphs import (  # noqa: E402
    Graph,
    GraphError,
    emit_edgelist,
    parse_graph6,
    standard_graph,
)
from raagscope.obstructions import (  # noqa: E402
    CatalogError,
    obstruction_from_json,
    obstruction_to_json,
    verify_obstruction,
)
from raagscope.prover import (  # noqa: E402
    check_derivation,
    classify,
    derivation_from_json,
    derivation_to_json,
)
from raagscope.words import _commutation, _reduce_full, normal_form  # noqa: E402


@hypothesis.settings(max_examples=80, deadline=None, derandomize=True, database=None)
@hypothesis.given(st.data())
def test_classify_status_is_invariant_under_relabelling(data):
    # the prover takes the first clique separator and the first bisimplicial
    # edge in name order, so the verdict must not depend on the names
    n = data.draw(st.integers(1, 8), label="n")
    pairs = list(combinations(range(n), 2))
    present = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    perm = data.draw(st.permutations(range(n)), label="perm")
    edges = [p for p, keep in zip(pairs, present) if keep]
    g = Graph(["v%d" % i for i in range(n)], [("v%d" % a, "v%d" % b) for a, b in edges])
    h = Graph(["w%d" % perm[i] for i in range(n)],
              [("w%d" % perm[a], "w%d" % perm[b]) for a, b in edges])
    assert classify(g).status == classify(h).status


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
@hypothesis.given(st.data())
def test_normal_form_is_reduction_then_reference_sort(data):
    n = data.draw(st.integers(1, 6), label="n")
    pairs = list(combinations(range(n), 2))
    present = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = Graph(["v%d" % i for i in range(n)],
              [("v%d" % a, "v%d" % b) for (a, b), keep in zip(pairs, present) if keep])
    w = tuple(data.draw(st.lists(st.tuples(st.sampled_from(g.vertices), st.sampled_from((1, -1))),
                                 max_size=64), label="w"))
    reduced = _reduce_full(_commutation(g), w)
    assert normal_form(g, w) == tuple(reference_canonical_sort(g, reduced))


# --- verify under mutated certificates ---------------------------------------

_KEYS = ("certificate_type", "kind", "entry", "embedding", "trail", "root", "rule",
         "graph", "vertices", "edges", "children", "separator", "edge", "bipartition",
         "cocontract_set", "steps", "clique", "bogus")
_ODD_VALUES = (None, 0, -1, 2.5, True, "", "v1", "C999999999", [], {}, [["v1"]], {"v1": 3})


def _base_certificates():
    # (graph, certificate) pairs from classify: induced and trail obstructions,
    # derivations using the amalgam, bisimplicial and (octahedron) join rules,
    # and the constructed derivation of a 14-vertex chordal graph
    k23 = Graph(["a1", "a2", "b1", "b2", "b3"],
                [(a, b) for a in ("a1", "a2") for b in ("b1", "b2", "b3")])
    graphs = [standard_graph("cycle", 5), entry_graph("Q1(9)"), entry_graph("Q2(10)"),
              standard_graph("path", 4), standard_graph("cycle", 4), k23,
              random_chordal(6, random.Random(5)), parse_graph6(b"E]~o"),
              random_chordal(14, random.Random(14))]
    out = []
    for g in graphs:
        v = classify(g)
        if v.obstruction is not None:
            cert = {"certificate_type": "obstruction", **obstruction_to_json(v.obstruction)}
        else:
            cert = {"certificate_type": "derivation", "root": derivation_to_json(v.derivation)}
        out.append((g, cert))
    return out


_BASES = _base_certificates()


def _slots(obj, path=()):
    # every (path to a container, key or index in it) of a JSON tree
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for k, v in items:
        yield path, k
        if isinstance(v, (dict, list)):
            yield from _slots(v, path + (k,))


def _strings(obj):
    if isinstance(obj, str):
        yield obj
    elif isinstance(obj, dict):
        for k, v in obj.items():
            yield k
            yield from _strings(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _strings(v)


def _mutate(data, cert):
    obj = copy.deepcopy(cert)
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        slots = list(_slots(obj))
        if not slots:
            break
        # a depth first, shallow ones the likelier (depth i of k is listed
        # k - i times), so the few top-level keys are drawn more often than
        # the many vertex names below them
        depths = sorted({len(p) for p, _ in slots})
        depth = data.draw(st.sampled_from([d for i, d in enumerate(depths)
                                           for _ in range(len(depths) - i)]), label="depth")
        path, key = data.draw(st.sampled_from([s for s in slots if len(s[0]) == depth]),
                              label="slot")
        parent = obj
        for step in path:
            parent = parent[step]
        op = data.draw(st.sampled_from(["drop", "rename", "swap", "retype", "truncate",
                                        "grow", "nest", "reorder"]), label="op")
        if op == "drop":
            del parent[key]
        elif op == "rename" and isinstance(parent, dict):
            parent[data.draw(st.sampled_from(_KEYS), label="key")] = parent.pop(key)
        elif op == "swap":
            parent[key] = data.draw(st.sampled_from(sorted(set(_strings(cert)))), label="name")
        elif op == "retype":
            parent[key] = copy.deepcopy(data.draw(st.sampled_from(_ODD_VALUES), label="value"))
        elif op == "truncate" and isinstance(parent[key], (list, str)):
            parent[key] = parent[key][:data.draw(st.integers(0, len(parent[key])), label="cut")]
        elif op == "grow" and isinstance(parent[key], list):
            # one more item: a copy of one already there, or an odd value
            extra = data.draw(st.sampled_from(parent[key] + list(_ODD_VALUES)), label="item")
            parent[key].append(copy.deepcopy(extra))
        elif op == "nest":
            # a node becomes the only child of a copy of itself; any other
            # value moves one list deeper
            value = parent[key]
            parent[key] = ({**copy.deepcopy(value), "children": [value]}
                           if isinstance(value, dict) else [value])
        elif op == "reorder" and isinstance(parent[key], list) and len(parent[key]) > 1:
            # two items trade places, such as two steps of a chain
            items = parent[key]
            i, j = data.draw(st.lists(st.integers(0, len(items) - 1), min_size=2, max_size=2,
                                      unique=True), label="pair")
            items[i], items[j] = items[j], items[i]
    return obj


def _checker_verdict(g, obj):
    # what the independent checkers say about obj, or None if it does not parse
    kind = obj.get("certificate_type") if isinstance(obj, dict) else None
    try:
        if kind == "obstruction":
            return verify_obstruction(g, obstruction_from_json(obj))
        if kind == "derivation":
            return check_derivation(derivation_from_json(obj["root"]), g)
    except (CatalogError, GraphError, KeyError):
        pass
    return None


@hypothesis.settings(max_examples=600, deadline=None, derandomize=True, database=None)
@hypothesis.given(st.data())
def test_verify_answers_mutated_certificates_with_a_documented_exit(tmp_path_factory, data):
    # exit 0 or 1 must be the checkers' verdict, anything unparseable 65; an
    # escaping exception fails the test
    g, cert = data.draw(st.sampled_from(_BASES), label="base")
    obj = _mutate(data, cert)
    root = tmp_path_factory.getbasetemp()
    (root / "g.el").write_bytes(emit_edgelist(g))
    (root / "cert.json").write_text(json.dumps(obj))
    t0 = time.process_time()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["verify", str(root / "g.el"), str(root / "cert.json")])
    assert time.process_time() - t0 < 1.0
    assert code in (0, 1, 65)
    expected = _checker_verdict(g, obj)
    if expected is not None:
        assert code == (0 if expected else 1)


_CHAINS = [(g, cert) for g, cert in _BASES
           if cert["certificate_type"] == "derivation" and cert["root"]["rule"] == "ChainRule"]


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.given(st.data())
def test_verify_answers_mutated_chain_steps_with_a_documented_exit(tmp_path_factory, data):
    # the mutations fall on the steps of a chain root alone: steps dropped,
    # reordered, renamed or of the wrong shape. A step list that no longer
    # parses exits 65; one that parses exits as the checker says, and a
    # reordering that still replays, of two steps far apart, is valid.
    assert len(_CHAINS) >= 5
    g, cert = data.draw(st.sampled_from(_CHAINS), label="base")
    obj = copy.deepcopy(cert)
    obj["root"]["steps"] = _mutate(data, cert["root"]["steps"])
    root = tmp_path_factory.getbasetemp()
    (root / "g.el").write_bytes(emit_edgelist(g))
    (root / "cert.json").write_text(json.dumps(obj))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["verify", str(root / "g.el"), str(root / "cert.json")])
    expected = _checker_verdict(g, obj)
    assert code == (65 if expected is None else 0 if expected else 1)


# --- catalogue and homomorphism files under mutation ----------------------------

# two entries the prover does not derive, so the catalogue itself loads: C5
# plus a pendant vertex, and the complement of P6
_CATALOG = [
    {"name": "c5p(6)", "provenance": "test data", "vertices": ["p", "q", "r", "s", "t", "u"],
     "complement_edges": [["p", "r"], ["p", "s"], ["q", "s"], ["q", "t"], ["r", "t"],
                          ["q", "u"], ["r", "u"], ["s", "u"], ["t", "u"]]},
    {"name": "cop6(6)", "provenance": "test data",
     "vertices": ["a", "b", "c", "d", "e", "f"],
     "complement_edges": [["a", "b"], ["b", "c"], ["c", "d"], ["d", "e"], ["e", "f"]]},
]
_HOMS = [
    {"presentation": {"genus": 1, "boundary": 1},
     "images": {"x1": "a", "y1": "b", "d1": "b a b^-1 a^-1"}},
    {"presentation": {"genus": 0, "boundary": 3},
     "images": {"d1": "a", "d2": "c", "d3": "c^-1 a^-1"}},
]


def _mutated_text(data, doc):
    # a mutated document, or now and then its JSON text cut short
    text = json.dumps(_mutate(data, doc))
    if data.draw(st.integers(0, 9), label="garble") == 0:
        text = text[:data.draw(st.integers(0, len(text)), label="cut")]
    return text


def _run_quietly(argv):
    err = io.StringIO()
    t0 = time.process_time()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue(), time.process_time() - t0


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.given(st.data())
def test_mutated_catalogs_get_a_documented_exit(tmp_path_factory, data):
    # classify, verify and catalog answer a malformed --catalog with 65 and
    # one line; an escaping exception fails the test
    root = tmp_path_factory.getbasetemp()
    (root / "extra.json").write_text(_mutated_text(data, _CATALOG))
    (root / "g.el").write_bytes(emit_edgelist(parse_graph6(b"EUzo")))
    (root / "cert.json").write_text(json.dumps(
        {"certificate_type": "obstruction", "kind": "InducedForbidden", "entry": "c5p(6)",
         "embedding": {v: "v%d" % i for i, v in enumerate("pqrstu", 1)}, "trail": []}))
    command = data.draw(st.sampled_from([
        ["classify", str(root / "g.el")],
        ["verify", str(root / "g.el"), str(root / "cert.json")],
        ["catalog"]]), label="command")
    code, err, cpu = _run_quietly(command + ["--catalog", str(root / "extra.json")])
    assert cpu < 2.0
    assert code in (0, 1, 2, 65)
    if code == 65:
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.given(st.data())
def test_mutated_homomorphism_files_get_a_documented_exit(tmp_path_factory, data):
    root = tmp_path_factory.getbasetemp()
    (root / "hom.json").write_text(_mutated_text(data, data.draw(st.sampled_from(_HOMS),
                                                                 label="base")))
    (root / "p3.el").write_text("vertices: a b c\na b\nb c\n")
    op = data.draw(st.sampled_from([["check"], ["relative"], ["kernel", "--max-len", "3"]]),
                   label="op")
    code, err, cpu = _run_quietly(["surf", op[0], "-g", str(root / "p3.el"),
                                   str(root / "hom.json")] + op[1:])
    assert cpu < 2.0
    assert code in (0, 1, 64)
    if code == 64:
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
