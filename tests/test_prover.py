import json
import random
import sys
import time
from collections import defaultdict
from dataclasses import fields
from pathlib import Path

import pytest

from conftest import (add_edge, c4_chain, complete_bipartite, desk_graph6, disjoint_union,
                      entry_graph, hooked_complete_bipartite, is_clique, is_simplicial_vertex,
                      ladder, random_bipartite, random_chordal, random_chordal_bipartite,
                      random_graph,
                      reference_check_chain, reference_is_chordal_bipartite, reference_peel,
                      remove_edge)
from raagscope.generate import nonisomorphic_graphs
from raagscope.graphs import (Graph, GraphError, canonical_key, emit_graph6, new_graph,
                              parse_graph6, standard_graph)
from raagscope.obstructions import (KIND_INDUCED, KIND_TRAIL, Obstruction, builtin_catalog,
                                    find_cocontraction_witness, find_forbidden_induced,
                                    verify_obstruction)
from raagscope.ops import (_is_bipartite, co_contract, complement, is_bisimplicial_edge,
                           is_complete, iter_clique_splits)
from raagscope.prover import (
    DEFAULT_BUDGET,
    HAS_SURFACE,
    NO_SURFACE,
    RULE_AMALGAM,
    RULE_BISIMP,
    RULE_CHAIN,
    RULE_COCONTRACT,
    RULE_COMPLETE,
    RULE_JOIN,
    UNKNOWN,
    Derivation,
    SoundnessError,
    _chain,
    _peel,
    _Search,
    check_derivation,
    classify,
    derivation_from_json,
    derivation_to_json,
    is_chordal,
    is_chordal_bipartite,
    prove_in_f,
)

P3 = new_graph(["a", "b", "c"], [("a", "b"), ("b", "c")])


def test_complete_graphs_are_leaves():
    for n in (1, 3, 7):
        g = standard_graph("complete", n)
        d = prove_in_f(g)
        assert d is not None and d.rule == RULE_COMPLETE and not d.children
        assert check_derivation(d, g)
    empty = Graph([], [])
    d = prove_in_f(empty)
    assert d is not None and d.rule == RULE_COMPLETE


def test_path_uses_amalgam_at_cut_vertex():
    # one clique step splits off {a, b} along the cut vertex b
    d = prove_in_f(P3)
    assert d.rule == RULE_CHAIN and d.steps == ((P3.mask("ab"), P3.mask("b")),)
    assert [c.rule for c in d.children] == [RULE_COMPLETE]
    assert d.rules_used() == {RULE_AMALGAM, RULE_COMPLETE}
    assert check_derivation(d, P3)


def test_c4_uses_bisimplicial_edge():
    # the first step deletes an edge; the path it leaves is peeled
    c4 = standard_graph("cycle", 4)
    d = prove_in_f(c4)
    assert d.rule == RULE_CHAIN
    edge = d.steps[0]
    assert isinstance(edge, int) and c4.has_edge(*c4.names(edge))
    assert d.rules_used() == {RULE_BISIMP, RULE_AMALGAM, RULE_COMPLETE}
    assert check_derivation(d, c4)


def test_chordal_graphs_use_only_base_and_amalgam():
    rng = random.Random(51)
    for _ in range(60):
        g = random_chordal(rng.randint(1, 8), rng)
        d = prove_in_f(g)
        assert d is not None
        assert d.rules_used() <= {RULE_COMPLETE, RULE_AMALGAM}
        assert check_derivation(d, g)


def _nodes(d):
    yield d
    for ch in d.children:
        yield from _nodes(ch)


def test_chordal_graphs_are_derived_without_canonical_labeling(monkeypatch):
    # a chordal graph is peeled down to a complete graph, one clique step
    # per split-off clique, before any memo lookup. The patch is on
    # the name the co-contraction search's IsoTable calls; the control at the
    # end shows that it is reached.
    import raagscope.graphs as graphs

    def refuse(h):
        raise AssertionError("canonical_form called")

    builtin_catalog()  # its self-test labels the fixed trio once
    monkeypatch.setattr(graphs, "canonical_form", refuse)
    rng = random.Random(71)
    for _ in range(40):
        g = random_chordal(rng.randint(10, 16), rng)
        v = classify(g)
        assert v.status == NO_SURFACE and check_derivation(v.derivation, g)
        nodes = list(_nodes(v.derivation))
        assert {d.rule for d in nodes} <= {RULE_COMPLETE, RULE_CHAIN}
        assert v.derivation.rules_used() <= {RULE_COMPLETE, RULE_AMALGAM}
        steps = [(d, step) for d in nodes if d.rule == RULE_CHAIN for step in d.steps]
        assert len(steps) <= g.n - 1
        for d, (clique, _) in steps:
            assert is_clique(g, d.conclusion.names(clique))
        for leaf in nodes:
            if leaf.rule == RULE_COMPLETE:
                assert is_clique(g, leaf.conclusion.vertices)
                assert leaf.conclusion == g.subgraph(g.mask(leaf.conclusion.vertices))
    # positive control: a 10-vertex unknown, below which the co-contraction
    # search keeps its depth-1 states in an IsoTable, and some of them share
    # degree sequences
    with pytest.raises(AssertionError, match="canonical_form called"):
        classify(parse_graph6(b"IypEtv?sG"))


def test_a_search_whose_nodes_differ_in_degree_sequence_labels_nothing(monkeypatch):
    # F]oxo is prime (no clique separator) and not chordal; its search
    # expands 6 nodes and labels none of them, the root included
    import raagscope.graphs as graphs

    def refuse(h):
        raise AssertionError("canonical_form called")

    g = parse_graph6(b"F]oxo")
    assert not isinstance(is_chordal(g), Derivation)
    assert next(iter_clique_splits(g), None) is None
    builtin_catalog()  # its self-test labels the fixed trio once
    monkeypatch.setattr(graphs, "canonical_form", refuse)
    v = classify(g)
    assert v.status == NO_SURFACE and check_derivation(v.derivation, g)
    assert RULE_BISIMP in v.derivation.rules_used()


def test_chordal_graphs_spend_no_budget():
    rng = random.Random(72)
    for n in (1, 5, 12):
        g = random_chordal(n, rng)
        v = classify(g, budget=1)
        assert v.status == NO_SURFACE and check_derivation(v.derivation, g)
    search = _Search(1)
    assert search.prove(_peel(P3)) is not None and search.memo == {} and search.nodes == 0


def test_the_prover_never_labels_a_graph(monkeypatch):
    # the memo is keyed by the graph itself, so no derivation search, root or
    # node, runs canonical labeling; depth 0 leaves out the co-contraction
    # search, the one caller of IsoTable
    import raagscope.graphs as graphs

    def refuse(h):
        raise AssertionError("canonical_form called")

    atlas = [g for n in range(1, 8) for g in nonisomorphic_graphs(n)]
    builtin_catalog()  # its self-test labels the fixed trio once
    monkeypatch.setattr(graphs, "canonical_form", refuse)
    statuses = [classify(g, cocontract_depth=0).status for g in atlas]
    assert statuses.count(NO_SURFACE) == 1051 and statuses.count(UNKNOWN) > 0


def test_the_co_contraction_search_builds_nothing_on_the_atlas(monkeypatch):
    # the size gate: below a clean root the search can hit only P1(8), so it
    # builds no state whose children would have fewer than 8 vertices, and on
    # at most 7 vertices it contracts and labels nothing; the verdicts are
    # the census golden's
    import raagscope.graphs as graphs
    import raagscope.obstructions as obstructions

    def refuse(name):
        def call(*args):
            raise AssertionError("%s called" % name)
        return call

    atlas = {n: nonisomorphic_graphs(n) for n in range(1, 8)}
    builtin_catalog()  # its self-test contracts and labels the fixed trio once
    monkeypatch.setattr(obstructions, "_step", refuse("_step"))
    monkeypatch.setattr(graphs, "canonical_form", refuse("canonical_form"))
    golden = json.loads((Path(__file__).parent / "data" / "census7.json").read_text())
    totals = {NO_SURFACE: 0, HAS_SURFACE: 0, UNKNOWN: 0}
    for n, graphs_n in atlas.items():
        statuses = [classify(g).status for g in graphs_n]
        counts = {status: statuses.count(status) for status in totals}
        if str(n) in golden:
            assert counts == golden[str(n)]["counts"]
        for status, count in counts.items():
            totals[status] += count
    assert totals == {NO_SURFACE: 1051, HAS_SURFACE: 169, UNKNOWN: 32}


def test_the_census_on_8_vertices_matches_the_golden():
    # every verdict on the 12346 graphs of 8 vertices: the counts exactly,
    # and the unknowns as isomorphism classes, each matched one to one with a
    # golden graph by networkx, which shares no code with the canonical
    # labeling that picks each class's representative; a class is compared
    # only with the golden graphs of its degree sequence
    golden = json.loads((Path(__file__).parent / "data" / "census7.json").read_text())["8"]
    statuses = [(g, classify(g).status) for g in nonisomorphic_graphs(8)]
    counts = {status: 0 for status in (NO_SURFACE, HAS_SURFACE, UNKNOWN)}
    for _, status in statuses:
        counts[status] += 1
    assert counts == golden["counts"]
    nx = pytest.importorskip("networkx")

    def degrees(h):
        return tuple(sorted(d for _, d in h.degree()))

    buckets = defaultdict(list)
    for text in golden["unknown_graph6"]:
        e = nx.from_graph6_bytes(text.encode())
        buckets[degrees(e)].append(e)
    for g, status in statuses:
        if status != UNKNOWN:
            continue
        h = nx.from_graph6_bytes(emit_graph6(g))
        bucket = buckets[degrees(h)]
        # the classes are distinct, so the first hit is the only one
        hit = next((k for k, e in enumerate(bucket) if nx.is_isomorphic(h, e)), None)
        assert hit is not None, "unknown %s is no golden class" % emit_graph6(g).decode()
        del bucket[hit]
    assert not any(buckets.values())


def test_a_chordal_bipartite_graph_is_classified_without_the_fixed_scan(monkeypatch):
    # a bipartite graph's scan ends with its hole search: no fixed entry can
    # come first, so K6,6 and a seeded chordal bipartite graph that is not
    # chordal are derived without find_induced; P1(8) is the control
    import raagscope.obstructions as obstructions

    def refuse(*args):
        raise AssertionError("find_induced called")

    builtin_catalog()
    monkeypatch.setattr(obstructions, "find_induced", refuse)
    names = ["a%d" % i for i in range(6)] + ["b%d" % i for i in range(6)]
    k6_6 = Graph(names, [(a, b) for a in names[:6] for b in names[6:]])
    rng = random.Random(30)
    seeded = random_chordal_bipartite(12, rng)
    while isinstance(is_chordal(seeded), Derivation):
        seeded = random_chordal_bipartite(12, rng)
    for g in (k6_6, seeded):
        v = classify(g)
        assert v.status == NO_SURFACE and check_derivation(v.derivation, g)
    with pytest.raises(AssertionError, match="find_induced called"):
        classify(entry_graph("P1(8)"))


def test_large_bipartite_cores_are_derived_by_one_greedy_pass():
    # K24,24 overran the recursion limit while the search took one node, and
    # one stack frame, per removed edge; the greedy pass takes a bipartite
    # core whole, so these derive in process, each in under 10 s
    for g in (complete_bipartite(24), complete_bipartite(64), ladder(128), c4_chain(85)):
        t0 = time.perf_counter()
        v = classify(g)
        assert v.status == NO_SURFACE and check_derivation(v.derivation, g), g.n
        obj = json.loads(json.dumps(derivation_to_json(v.derivation)))
        assert check_derivation(derivation_from_json(obj), g), g.n
        assert time.perf_counter() - t0 < 10.0, g.n


def test_long_runs_of_bisimplicial_removals_are_derived():
    # each of these cores is not bipartite, and the search removes one
    # bisimplicial edge per node until what is left is; the parent of the
    # explicit stack spent two Python frames per removal and overran the
    # recursion limit on all three. The hooked graphs are not joins.
    for g in (add_edge(complete_bipartite(24), ("a1", "a2")),
              hooked_complete_bipartite(24), hooked_complete_bipartite(32)):
        v = classify(g)
        assert v.status == NO_SURFACE and check_derivation(v.derivation, g), g.n
        obj = json.loads(json.dumps(derivation_to_json(v.derivation)))
        assert check_derivation(derivation_from_json(obj), g), g.n


def test_the_search_depth_does_not_grow_with_the_run_of_removals(monkeypatch):
    # the Python frame depth at each bisimplicial-edge scan stays flat over
    # the hooked K24,24's long run of removals (over 500 scans): the search
    # spends a stack entry per open core, not a frame
    import raagscope.prover as prover

    depths = []
    edges = prover._bisimplicial_edges

    def recording(rows):
        frame, depth = sys._getframe(), 0
        while frame is not None:
            frame, depth = frame.f_back, depth + 1
        depths.append(depth)
        return edges(rows)

    builtin_catalog()  # its entries are checked by a search of their own
    monkeypatch.setattr(prover, "_bisimplicial_edges", recording)
    g = hooked_complete_bipartite(24)
    assert classify(g).status == NO_SURFACE
    assert len(depths) > 400 and max(depths) - min(depths) <= 3


def test_a_bipartite_core_costs_one_node(monkeypatch):
    expanded = []
    expand = _Search._expand

    def counting(self, h):
        expanded.append(h)
        return expand(self, h)

    monkeypatch.setattr(_Search, "_expand", counting)
    g = complete_bipartite(24)
    assert classify(g).status == NO_SURFACE and expanded == [g]


def test_the_prover_derives_a_bipartite_graph_exactly_when_it_is_chordal_bipartite():
    # the pass decides F on a bipartite core; the reference searches for a
    # hole first and runs the pass only on a graph without one. Besides the
    # small draws, four dense ones of more than 600 edges: a chain graph on
    # a1..a30 and b1..b30, each ai seeing a prefix of the b's, so
    # neighbourhoods nest and it is chordal bipartite, alone and beside a
    # disjoint C6
    rng = random.Random(37)
    graphs = []
    for i in range(600):
        if i % 2:
            graphs.append(random_chordal_bipartite(rng.randint(4, 14), rng))
        else:
            graphs.append(random_bipartite(rng.randint(10, 18), rng.uniform(0.3, 0.6), rng))
    a = ["a%d" % i for i in range(1, 31)]
    b = ["b%d" % i for i in range(1, 31)]
    c6 = standard_graph("cycle", 6)
    for i in range(4):
        g = Graph(a + b, [(u, b[j]) for u in a for j in range(rng.randint(15, 30))])
        graphs.append(disjoint_union(g, c6) if i % 2 else g)
    derived = 0
    for g in graphs:
        expected = isinstance(reference_is_chordal_bipartite(g), Derivation)
        assert (prove_in_f(g) is not None) == expected, emit_graph6(g)
        derived += expected
    # the 300 chordal bipartite draws, 164 of the 300 others and the two
    # chain graphs alone
    assert derived == 300 + 164 + 2


def test_the_pruning_builds_no_derivation(monkeypatch):
    # the co-contraction search asks the prover a yes or no on each state it
    # would expand; an unknown graph, whose states the prover mostly fails,
    # must get there without assembling a derivation of any of them
    unknowns = [parse_graph6(b"IypEtv?sG")]
    unknowns += [g for g in map(parse_graph6, desk_graph6(1)) if classify(g).status == UNKNOWN]
    assert len(unknowns) == 16
    reports = [classify(g).report.to_json() for g in unknowns]

    def refuse(self, peel):
        raise AssertionError("a derivation was assembled")

    monkeypatch.setattr(_Search, "_build", refuse)
    for g, report in zip(unknowns, reports):
        v = classify(g)
        assert v.status == UNKNOWN and v.report.to_json() == report
    # positive control: a derived graph's derivation goes through _build
    with pytest.raises(AssertionError, match="assembled"):
        classify(standard_graph("path", 4))


def _random_forest(n, rng):
    names = ["v%d" % (i + 1) for i in range(n)]
    edges = [(names[rng.randrange(i)], names[i]) for i in range(1, n) if rng.random() < 0.85]
    return Graph(names, edges)


def _chordal_inputs():
    rng = random.Random(73)
    graphs = [random_chordal(rng.randint(10, 16), rng) for _ in range(40)]
    return graphs + [_random_forest(rng.randint(5, 16), rng) for _ in range(20)]


def test_every_builtin_catalog_entry_is_non_chordal():
    # the premise of classify's chordal skip: an induced subgraph of a
    # chordal graph is chordal, so no entry can embed in one
    for e in builtin_catalog():
        assert not isinstance(is_chordal(e.graph), Derivation), e.name
    for n in range(5, 17):
        for name in ("C%d" % n, "coC%d" % n):
            h = entry_graph(name)
            assert not isinstance(is_chordal(h), Derivation), name


def test_classify_on_either_side_of_the_two_byte_bit_table():
    # every row and mask of a graph on 16 vertices is below 2^16, inside
    # graphs._bits' byte-pair table; 17 vertices take its bit-at-a-time walk
    for n in (16, 17):
        cycle = standard_graph("cycle", n)
        for g, name in ((cycle, "C%d" % n), (complement(cycle), "coC%d" % n)):
            v = classify(g)
            assert v.status == HAS_SURFACE and v.obstruction.entry == name
            assert verify_obstruction(g, v.obstruction)
    k89 = new_graph(["a%d" % i for i in range(8)] + ["b%d" % j for j in range(9)],
                    [("a%d" % i, "b%d" % j) for i in range(8) for j in range(9)])
    for g in (random_chordal(17, random.Random(31)), k89):
        assert g.n == 17
        v = classify(g)
        assert v.status == NO_SURFACE and check_derivation(v.derivation, g)


def test_chordal_graphs_are_never_scanned(monkeypatch):
    import raagscope.prover as prover

    def refuse(*args, **kwargs):
        raise AssertionError("find_forbidden_induced called on a chordal graph")

    monkeypatch.setattr(prover, "find_forbidden_induced", refuse)
    for g in _chordal_inputs():
        v = classify(g)
        assert v.status == NO_SURFACE and check_derivation(v.derivation, g)


def test_classify_scans_through_the_public_name_on_the_peels_core(monkeypatch):
    import raagscope.prover as prover

    calls = []

    def recording(g, extra=(), *, core=None):
        calls.append((g, core))
        return find_forbidden_induced(g, extra, core=core)

    monkeypatch.setattr(prover, "find_forbidden_induced", recording)
    graphs = [g for n in range(5, 8) for g in nonisomorphic_graphs(n)]
    graphs += [parse_graph6(line.encode()) for line in desk_graph6(1)]
    # no scan when the core is complete, or bipartite and derived by the
    # greedy pass
    scanned = passed = 0
    for g in graphs:
        calls.clear()
        classify(g)
        core = _peel(g).core
        if is_complete(core):
            assert calls == []
        elif _is_bipartite(core.rows) and isinstance(is_chordal_bipartite(core), Derivation):
            assert calls == []
            passed += 1
        else:
            assert len(calls) == 1 and calls[0][0] is g and calls[0][1] == core
            scanned += 1
    assert scanned > 500 and passed > 150


def test_cross_check_still_scans_chordal_graphs(monkeypatch):
    import raagscope.prover as prover

    scanned = []

    def counting(g, *args, **kwargs):
        scanned.append(g)
        return find_forbidden_induced(g, *args, **kwargs)

    monkeypatch.setattr(prover, "find_forbidden_induced", counting)
    # depth 1 keeps the unpruned co-contraction search of cross_check short
    for g in _chordal_inputs():
        scanned.clear()
        v = classify(g, cross_check=True, cocontract_depth=1)
        assert v.status == NO_SURFACE and check_derivation(v.derivation, g)
        assert scanned and scanned[0] is g


# The open core: the inclusion-minimal unknowns on at most 8 vertices, each
# unknown while every one-vertex deletion is derived. A graph that contains a
# core graph can change verdict only if that core graph does, so a new rule or
# catalog entry must act on this list first.
OPEN_CORE = (
    "EUzo",
    "FCZvo", "FEh~G", "FEjvO", "FErvO", "FEzn_",
    "GQrapw", "G]ouPg", "G]qqUC", "G]quCS", "G]~vPg", "G]qvfo", "GQra`{",
    "G]qvfw", "G]qqPs", "GQrf_s", "G]otTG", "G]zvHw", "G]~vdW", "G]~v?w",
    "G]otvw", "G]ovfw", "G]~vcW", "G]o~fw",
)


def test_open_core_is_unknown_and_minimal():
    assert len(set(OPEN_CORE)) == 24
    for text in OPEN_CORE:
        g = parse_graph6(text.encode())
        assert classify(g).status == UNKNOWN, text
        full = (1 << g.n) - 1
        for v in range(g.n):
            h = g.subgraph(full & ~(1 << v))
            d = prove_in_f(h)
            assert d is not None and check_derivation(d, h), (text, v)


def test_join_rule_reachability_checker_side():
    # the checker accepts a hand-built join derivation for complete bipartite
    # graphs even though the prover prefers the bisimplicial route
    left = new_graph(["a1", "a2"], [])
    right = new_graph(["b1", "b2", "b3"], [])
    k23 = new_graph(["a1", "a2", "b1", "b2", "b3"],
                    [(a, b) for a in ("a1", "a2") for b in ("b1", "b2", "b3")])
    dl = prove_in_f(left)
    dr = prove_in_f(right)
    assert dl is not None and dr is not None
    assert dl.rules_used() <= {RULE_COMPLETE, RULE_AMALGAM}
    d = Derivation(RULE_JOIN, k23, (dl, dr),
                   bipartition=(frozenset(left.vertices), frozenset(right.vertices)))
    assert check_derivation(d, k23)


# two C4s on a-b-c-d and c-d-e-f that share the edge c-d: the amalgam of
# the two along the clique {c, d}, and the first clique split
_TWO_C4 = new_graph("abcdef", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"),
                              ("d", "e"), ("e", "f"), ("f", "c")])

# the wheel W4, hub h and rim a-b-c-d, and the C4 a-e-f-g, glued at a: no
# simplicial vertex and not bipartite, so the prover splits it at {a}, the
# wheel first; the wheel's derivation is a chain that removes the
# bisimplicial rim edge a-b and peels the fan it leaves
_W4_C4 = new_graph("abcdefgh", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"),
                               ("h", "a"), ("h", "b"), ("h", "c"), ("h", "d"),
                               ("a", "e"), ("e", "f"), ("f", "g"), ("g", "a")])


def _binary(rule, g, parts, **fields):
    """A binary node concluding g whose children derive the given graphs."""
    children = tuple(prove_in_f(h) for h in parts)
    assert all(child is not None for child in children)
    return Derivation(rule, g, children, **fields)


def test_binary_amalgam_and_join_nodes_are_refused_when_mutated():
    g = _TWO_C4
    left, right = g.subgraph(g.mask("abcd")), g.subgraph(g.mask("cdef"))
    cd = frozenset("cd")
    assert check_derivation(_binary(RULE_AMALGAM, g, (left, right), separator=cd), g)
    c6 = remove_edge(g, ("c", "d"))
    with_ae = add_edge(g, ("a", "e"))
    refused = {
        # C6 split along the non-clique {c, d}, into two paths
        "separator not a clique": (c6, (c6.subgraph(c6.mask("abcd")),
                                        c6.subgraph(c6.mask("cdef"))), cd),
        "edge across the separator": (with_ae, (left, right), cd),
        "parts do not cover": (g, (left, g.subgraph(g.mask("cde"))), cd),
        "parts meet outside the separator": (g, (left, g.subgraph(g.mask("bcdef"))), cd),
        "left rows doctored": (g, (add_edge(left, ("a", "c")), right), cd),
        "right rows doctored": (g, (left, add_edge(right, ("c", "e"))), cd),
        "absent separator name": (g, (left, right), frozenset("cdz")),
    }
    for kind, (host, parts, sep) in refused.items():
        node = _binary(RULE_AMALGAM, host, parts, separator=sep)
        assert not check_derivation(node, host), kind

    a, b = frozenset({"a1", "a2"}), frozenset({"b1", "b2", "b3"})
    k23 = new_graph(sorted(a | b), [(u, v) for u in a for v in b])
    da, db = new_graph(a, []), new_graph(b, [])
    assert check_derivation(_binary(RULE_JOIN, k23, (da, db), bipartition=(a, b)), k23)
    missing = remove_edge(k23, ("a1", "b1"))
    refused = {
        "missing cross pair": (missing, (da, db), (a, b)),
        "bipartition swapped": (k23, (da, db), (b, a)),
        "bipartition not the parts": (k23, (da, db), (a | {"b1"}, b - {"b1"})),
        "parts do not cover": (k23, (da, new_graph(["b1", "b2"], [])), (a, {"b1", "b2"})),
        "parts overlap": (k23, (k23.subgraph(k23.mask(["a1", "a2", "b1"])), db),
                          (a | {"b1"}, b)),
        "left rows doctored": (k23, (new_graph(a, [("a1", "a2")]), db), (a, b)),
        "right rows doctored": (k23, (da, new_graph(b, [("b1", "b2")])), (a, b)),
    }
    for kind, (host, parts, bipartition) in refused.items():
        node = _binary(RULE_JOIN, host, parts, bipartition=tuple(map(frozenset, bipartition)))
        assert not check_derivation(node, host), kind


def test_checking_amalgam_and_join_nodes_builds_no_graph(monkeypatch):
    import raagscope.graphs as graphs
    import raagscope.ops as ops

    a, b = frozenset({"a1", "a2"}), frozenset({"b1", "b2", "b3"})
    k23 = new_graph(sorted(a | b), [(u, v) for u in a for v in b])
    join_d = _binary(RULE_JOIN, k23, (new_graph(a, []), new_graph(b, [])), bipartition=(a, b))
    amalgam_d = prove_in_f(_W4_C4)
    assert amalgam_d.rule == RULE_AMALGAM
    cases = [(join_d, k23), (amalgam_d, _W4_C4)]

    def refuse(*args):
        raise AssertionError("the checker built a graph")

    for name in ("_init", "_from_rows", "_from_sorted"):
        monkeypatch.setattr(graphs, name, refuse)
    monkeypatch.setattr(ops, "join", refuse)
    for d, g in cases:
        assert check_derivation(d, g)


def test_checker_validates_cocontract_rule():
    c4 = standard_graph("cycle", 4)
    child = prove_in_f(c4)
    conclusion = co_contract(c4, {"v1", "v3"})
    node = Derivation(RULE_COCONTRACT, conclusion, (child,),
                      contracted=frozenset({"v1", "v3"}))
    assert check_derivation(node, conclusion)
    bad = Derivation(RULE_COCONTRACT, c4, (child,), contracted=frozenset({"v1", "v3"}))
    assert not check_derivation(bad, c4)


def test_the_checker_refuses_rule_nodes_without_their_fields():
    # a co-contraction node with no contracted set or one naming a vertex
    # its child lacks, and an amalgam node with no separator: each is
    # invalid, not an error
    c4 = standard_graph("cycle", 4)
    child = prove_in_f(c4)
    conclusion = co_contract(c4, {"v1", "v3"})
    g = _TWO_C4
    parts = (g.subgraph(g.mask("abcd")), g.subgraph(g.mask("cdef")))
    refused = [
        (Derivation(RULE_COCONTRACT, conclusion, (child,)), conclusion),
        (Derivation(RULE_COCONTRACT, conclusion, (child,), contracted=frozenset({"v1", "zz"})),
         conclusion),
        (_binary(RULE_AMALGAM, g, parts), g),
    ]
    for node, host in refused:
        assert check_derivation(node, host) is False


def test_checker_rejects_mutations():
    d = prove_in_f(P3)
    # the clique step's clique is the non-clique {a, c}
    bad = Derivation(d.rule, d.conclusion, d.children, steps=((P3.mask("ac"), P3.mask("c")),))
    assert not check_derivation(bad, P3)
    # the binary amalgam along the non-clique {a, c}
    parts = (prove_in_f(P3.subgraph(0b011)), prove_in_f(P3.subgraph(0b110)))
    assert check_derivation(Derivation(RULE_AMALGAM, P3, parts, separator=frozenset("b")), P3)
    bad = Derivation(RULE_AMALGAM, P3, parts, separator=frozenset({"a", "c"}))
    assert not check_derivation(bad, P3)
    # wrong rule tag
    bad2 = Derivation(RULE_COMPLETE, d.conclusion, d.children, steps=d.steps)
    assert not check_derivation(bad2, P3)

    c4 = standard_graph("cycle", 4)
    dc4 = prove_in_f(c4)
    edge = c4.names(dc4.steps[0])
    one_step = Derivation(RULE_CHAIN, c4, (prove_in_f(remove_edge(c4, edge)),),
                          steps=dc4.steps[:1])
    assert check_derivation(one_step, c4)
    # cite an edge that is not bisimplicial in a doctored conclusion
    fake_conclusion = add_edge(c4, ("v1", "v3"))
    bad3 = Derivation(RULE_CHAIN, fake_conclusion, one_step.children,
                      steps=(fake_conclusion.mask(("v1", "v3")),))
    assert not check_derivation(bad3, fake_conclusion)
    bad3 = Derivation(RULE_CHAIN, fake_conclusion, dc4.children,
                      steps=(fake_conclusion.mask(("v1", "v3")),) + dc4.steps[1:])
    assert not check_derivation(bad3, fake_conclusion)
    # child mismatch: remove a different edge than cited
    other_edge = next(e for e in c4.edge_pairs if e != edge)
    bad4 = Derivation(RULE_CHAIN, c4, (prove_in_f(remove_edge(c4, other_edge)),),
                      steps=dc4.steps[:1])
    assert not check_derivation(bad4, c4)
    bad4 = Derivation(RULE_CHAIN, c4, dc4.children,
                      steps=(c4.mask(other_edge),) + dc4.steps[1:])
    assert not check_derivation(bad4, c4)


def test_checker_matches_a_relabelled_tree_root_in_bounded_time():
    # the root is matched by canonical labeling; a backtracking search with
    # only a degree filter ran past 30 s on the trees of seeds 1 and 3
    t0 = time.process_time()
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        names = ["v%d" % (i + 1) for i in range(30)]
        tree = Graph(names, [(names[rng.randrange(i)], names[i]) for i in range(1, 30)])
        d = prove_in_f(tree)
        perm = list(range(30))
        rng.shuffle(perm)
        rename = {v: "u%d" % perm[i] for i, v in enumerate(names)}
        relabelled = Graph(rename.values(), [(rename[a], rename[b]) for a, b in tree.edge_pairs])
        assert d.conclusion != relabelled and check_derivation(d, relabelled)
    assert time.process_time() - t0 < 5.0


def test_checker_rejects_wrong_root():
    d = prove_in_f(P3)
    assert not check_derivation(d, standard_graph("complete", 3))


def test_checker_matches_an_equal_root_by_the_identity(monkeypatch):
    # a root equal to g (names and rows) needs no isomorphism search, yet
    # every node is still checked; a relabelled root still gets the search
    import raagscope.prover as prover

    calls = []
    search = prover.is_isomorphic

    def counting(a, b):
        calls.append((a, b))
        return search(a, b)

    monkeypatch.setattr(prover, "is_isomorphic", counting)
    c4 = standard_graph("cycle", 4)
    d = prove_in_f(c4)
    assert d.conclusion == c4 and d.rule == RULE_CHAIN
    assert check_derivation(d, c4) and calls == []
    # the chain's first step alone leaves a path, forged into a complete-graph leaf
    path = remove_edge(c4, c4.names(d.steps[0]))
    forged = Derivation(RULE_CHAIN, c4, (Derivation(RULE_COMPLETE, path),), steps=d.steps[:1])
    assert not check_derivation(forged, c4) and calls == []
    relabelled = Graph(["w1", "w2", "w3", "w4"],
                       [("w1", "w3"), ("w3", "w2"), ("w2", "w4"), ("w4", "w1")])
    assert check_derivation(d, relabelled) and len(calls) == 1


def test_prover_memoization_is_deterministic():
    g = random_chordal(7, random.Random(99))
    d1 = prove_in_f(g)
    d2 = prove_in_f(g)
    assert derivation_to_json(d1) == derivation_to_json(d2)


def test_budget_exhaustion_returns_none():
    g = entry_graph("Q1(9)")
    with pytest.raises(ValueError):
        prove_in_f(g, budget=0)
    assert prove_in_f(g, budget=1) is None


def test_classify_refuses_a_budget_below_one_whatever_the_scan_finds():
    # the scan alone decides C5, and K3 is built without a prover node;
    # both refuse
    for g in (standard_graph("cycle", 5), standard_graph("complete", 3)):
        with pytest.raises(ValueError):
            classify(g, budget=0)


def test_classify_refuses_a_negative_cocontraction_depth():
    # before any search runs, as for a budget below 1: P4 is chordal, C4 is
    # derived by the greedy pass, C5 is a scan hit and G]o~fw is unknown
    for g in (standard_graph("path", 4), standard_graph("cycle", 4),
              standard_graph("cycle", 5), parse_graph6(b"G]o~fw")):
        with pytest.raises(ValueError, match="cocontract_depth"):
            classify(g, cocontract_depth=-1)


def test_classify_searches_below_its_root_through_the_public_name(monkeypatch):
    # Q1(9) is decided neither by the scan nor by the prover, and its
    # witness is a trail; a chordal graph, one the greedy pass derives and
    # one the search of its core derives never reach the search
    import raagscope.prover as prover

    calls = []

    def recording(g, max_depth, extra=(), *, derived=None):
        calls.append(g)
        return find_cocontraction_witness(g, max_depth, extra, derived=derived)

    monkeypatch.setattr(prover, "find_cocontraction_witness", recording)
    q19 = entry_graph("Q1(9)")
    v = classify(q19)
    assert calls == [q19] and v.status == HAS_SURFACE and v.obstruction.kind == KIND_TRAIL
    for g in (standard_graph("path", 6), standard_graph("cycle", 4), _W4_C4):
        calls.clear()
        assert classify(g).status == NO_SURFACE and calls == []


def test_classify_examples():
    v = classify(standard_graph("cycle", 5))
    assert v.status == HAS_SURFACE and v.obstruction.entry == "C5"
    v = classify(standard_graph("path", 4))
    assert v.status == NO_SURFACE
    assert v.derivation.rules_used() <= {RULE_COMPLETE, RULE_AMALGAM}
    v = classify(standard_graph("cycle", 4))
    assert v.status == NO_SURFACE and RULE_BISIMP in v.derivation.rules_used()


def test_classify_unknown_on_tiny_budget():
    g = entry_graph("Q1(9)")
    v = classify(g, budget=1, cocontract_depth=0)
    assert v.status == UNKNOWN
    assert v.report is not None
    assert v.obstruction is None and v.derivation is None
    # a decomposable graph genuinely runs out of budget at 1 node: two
    # disjoint wheels W4 have no simplicial vertex, so the graph is its own
    # core, not bipartite, and its split leaves a second core for a second
    # node
    rims = ("abcd", "wxyz")
    two_w4 = new_graph(["a", "b", "c", "d", "h", "w", "x", "y", "z", "k"],
                       [(rim[i], rim[i - 1]) for rim in rims for i in range(4)]
                       + [(hub, v) for hub, rim in zip("hk", rims) for v in rim])
    v2 = classify(two_w4, budget=1, cocontract_depth=0)
    assert v2.status == UNKNOWN and v2.report.budget_exhausted
    # a peel spends no node: a 4-cycle with a pendant vertex peels to the
    # 4-cycle, a bipartite core whose one node is the greedy pass
    c4_pendant = new_graph(["a", "b", "c", "d", "e"],
                           [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("a", "e")])
    v3 = classify(c4_pendant, budget=1, cocontract_depth=0)
    assert v3.status == NO_SURFACE and check_derivation(v3.derivation, c4_pendant)


def test_classify_cross_check_mode():
    rng = random.Random(52)
    for _ in range(20):
        g = random_graph(rng.randint(3, 7), rng.random(), rng)
        v1 = classify(g)
        v2 = classify(g, cross_check=True)
        assert v1.status == v2.status


def test_pruned_cocontraction_search_returns_the_unpruned_witness():
    # classify does not expand a co-contraction state the prover derives; on
    # every graph where the scan and the prover both fail, its obstruction
    # (or its None) must be the unpruned search's. Random graphs this small
    # have no witness at depth 2, so Q1(9), Q2(10) and one-vertex extensions
    # of them supply hits, several of them after pruned states.
    graphs = [g for n in range(1, 8) for g in nonisomorphic_graphs(n)]
    rng = random.Random(61)
    names = ["v%d" % i for i in range(1, 11)]
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
    graphs += [Graph(names, rng.sample(pairs, rng.randint(9, 36))) for _ in range(60)]
    for q in (entry_graph("Q1(9)"), entry_graph("Q2(10)")):
        graphs.append(q)
        for _ in range(20):
            graphs.append(Graph(q.vertices + ("x",), q.edge_pairs
                                + tuple(("x", v) for v in q.vertices if rng.random() < 0.5)))
    checked = found = 0
    for g in graphs:
        if find_forbidden_induced(g) is not None or prove_in_f(g) is not None:
            continue
        checked += 1
        unpruned = find_cocontraction_witness(g, 2)
        found += unpruned is not None
        assert classify(g).obstruction == unpruned
    assert checked > 50 and found > 10


def test_classify_spends_one_budget_of_prover_nodes(monkeypatch):
    # the pruning of the co-contraction search draws on the nodes the root
    # derivation search left, so a classify call expands at most budget
    # prover nodes; deciding fewer states must not change the obstruction
    expanded = []
    expand = _Search._expand

    def counting(self, h):
        expanded.append(h)
        return expand(self, h)

    monkeypatch.setattr(_Search, "_expand", counting)
    graphs = [g for p in (0.4, 0.8) for s in range(40)
              for g in [random_graph(10, p, random.Random(s))]
              if find_forbidden_induced(g) is None]
    exhausted = 0
    for g in graphs:
        unpruned = find_cocontraction_witness(g, 2)
        for budget in (1, 2, 5):
            expanded.clear()
            v = classify(g, budget=budget)
            assert len(expanded) <= budget
            assert v.obstruction == unpruned
            exhausted += v.report is not None and v.report.budget_exhausted
    assert exhausted > 20


def test_classify_join_graphs():
    # joins of discrete graphs land in the derived family
    k33 = new_graph(["a1", "a2", "a3", "b1", "b2", "b3"],
                    [(a, b) for a in ("a1", "a2", "a3") for b in ("b1", "b2", "b3")])
    v = classify(k33)
    assert v.status == NO_SURFACE
    assert RULE_BISIMP in v.derivation.rules_used()


def test_derivation_json_round_trip():
    cases = [(prove_in_f(g), g)
             for g in (P3, standard_graph("cycle", 4), standard_graph("complete", 4))]
    # the hand-built K2,3 join and the C4 co-contraction, which the prover
    # never emits, carry the bipartition and cocontract_set fields
    k23 = new_graph(["a1", "a2", "b1", "b2", "b3"],
                    [(a, b) for a in ("a1", "a2") for b in ("b1", "b2", "b3")])
    join_d = Derivation(RULE_JOIN, k23,
                        (prove_in_f(new_graph(["a1", "a2"], [])),
                         prove_in_f(new_graph(["b1", "b2", "b3"], []))),
                        bipartition=(frozenset({"a1", "a2"}), frozenset({"b1", "b2", "b3"})))
    c4 = standard_graph("cycle", 4)
    contracted = co_contract(c4, {"v1", "v3"})
    cases += [(join_d, k23),
              (Derivation(RULE_COCONTRACT, contracted, (prove_in_f(c4),),
                          contracted=frozenset({"v1", "v3"})), contracted)]
    for d, g in cases:
        back = derivation_from_json(json.loads(json.dumps(derivation_to_json(d))))
        assert back == d
        assert check_derivation(back, g)


def _forge_prover(monkeypatch, fake):
    # every derivation search answers with fake
    monkeypatch.setattr(_Search, "prove", lambda self, peel: fake)


def test_soundness_guard_trips_on_forged_cache(monkeypatch):
    # a prover that answers the pentagon with a fake derivation; classify
    # must refuse to return it. The scan finds the pentagon's obstruction, so
    # only cross_check runs the prover after it.
    c5 = standard_graph("cycle", 5)
    _forge_prover(monkeypatch, Derivation(RULE_COMPLETE, standard_graph("complete", 5)))
    assert classify(c5).status == HAS_SURFACE
    with pytest.raises(SoundnessError):
        classify(c5, cross_check=True)


def test_soundness_guard_trips_on_forged_cache_without_obstruction(monkeypatch):
    # the complement of P6 has no obstruction, so the default path runs the
    # prover, which returns the forged derivation; the checker must refuse it
    g = parse_graph6(b"EUzo")
    assert classify(g).status == "unknown"
    _forge_prover(monkeypatch, Derivation(RULE_COMPLETE, standard_graph("complete", 6)))
    with pytest.raises(SoundnessError):
        classify(g)


def _forged_obstruction(kind, entry, names, trail=()):
    return Obstruction(kind, entry, tuple((v, v) for v in names), trail)


def test_soundness_guard_trips_on_a_forged_scan_obstruction(monkeypatch):
    # a scan that names C5 in P4, which has four vertices; cross_check runs
    # the scan on the chordal P4, and the checker refuses the certificate
    import raagscope.prover as prover

    forged = _forged_obstruction(KIND_INDUCED, "C5", ("v1", "v2", "v3", "v4", "v5"))
    monkeypatch.setattr(prover, "find_forbidden_induced", lambda *args, **kwargs: forged)
    with pytest.raises(SoundnessError, match="obstruction search emitted"):
        classify(standard_graph("path", 4), cross_check=True)


def test_soundness_guard_trips_on_a_forged_cocontraction_trail(monkeypatch):
    # G]o~fw is unknown, so the co-contraction search runs below it; a trail
    # through the edge v1-v3 cannot be replayed
    import raagscope.prover as prover

    g = parse_graph6(b"G]o~fw")
    assert g.has_edge("v1", "v3") and classify(g).status == UNKNOWN
    forged = _forged_obstruction(KIND_TRAIL, "P1(8)", g.vertices, (("v1", "v3"),))
    monkeypatch.setattr(prover, "find_cocontraction_witness", lambda *args, **kwargs: forged)
    with pytest.raises(SoundnessError, match="co-contraction search emitted"):
        classify(g)


def test_soundness_guard_trips_on_both_certificates(monkeypatch, capsys):
    # a forged scan hit that the checker is made to accept, on P4, which the
    # prover derives: cross_check runs both, and both verify. The CLI maps the
    # violation to exit 70 with one stderr line and no report
    import raagscope.prover as prover
    from raagscope.cli import main

    forged = _forged_obstruction(KIND_INDUCED, "C5", ("v1", "v2", "v3", "v4", "v5"))
    monkeypatch.setattr(prover, "find_forbidden_induced", lambda *args, **kwargs: forged)
    monkeypatch.setattr(prover, "verify_obstruction", lambda *args: True)
    p4 = standard_graph("path", 4)
    assert classify(p4).status == NO_SURFACE
    with pytest.raises(SoundnessError, match="both"):
        classify(p4, cross_check=True)
    assert main(["classify", "--cross-check", "Ch"]) == 70
    out = capsys.readouterr()
    assert out.out == "" and out.err.count("\n") == 1
    assert out.err.startswith("internal soundness violation")


def test_prover_handles_disconnected_graphs():
    g = Graph(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
    d = prove_in_f(g)
    assert d is not None and d.rule == RULE_CHAIN and d.steps == ((g.mask("ab"), 0),)
    assert check_derivation(d, g)


def test_amalgam_skips_right_part_when_left_part_fails():
    # a pentagon and a hexagon glued at a1: the pentagon (left part) has no
    # derivation, so the hexagon is never searched
    pentagon = [("a%d" % i, "a%d" % (i % 5 + 1)) for i in range(1, 6)]
    hexagon = [("a1", "b1"), ("b1", "b2"), ("b2", "b3"), ("b3", "b4"), ("b4", "b5"), ("b5", "a1")]
    g = Graph(["a%d" % i for i in range(1, 6)] + ["b%d" % i for i in range(1, 6)],
              pentagon + hexagon)
    split = next(iter_clique_splits(g))
    assert split.separator == frozenset({"a1"}) and split.left.vertices[-1] == "a5"
    search = _Search(DEFAULT_BUDGET)
    assert search.prove(_peel(g)) is None
    assert search.memo == {g: None, split.left: None}


def test_a_failed_clique_split_decides_the_graph():
    # the complement of P6 (rule-free, not derived) and a 4-cycle glued at
    # a0: the first split puts the complement of P6 on the left, where it
    # fails, so the graph fails there. The 4-cycle's edges b1-b2 and b2-b3
    # are bisimplicial in the whole graph, but by heredity no rule can close
    # a graph with an underived induced subgraph, so none is tried.
    cop6 = parse_graph6(b"EUzo")
    name = {v: "a%d" % i for i, v in enumerate(cop6.vertices)}
    g = Graph([name[v] for v in cop6.vertices] + ["b1", "b2", "b3"],
              [(name[u], name[v]) for u, v in cop6.edge_pairs]
              + [("a0", "b1"), ("b1", "b2"), ("b2", "b3"), ("b3", "a0")])
    split = next(iter_clique_splits(g))
    assert split.separator == frozenset({"a0"}) and split.left.n == 6
    assert is_bisimplicial_edge(g, ("b1", "b2"))
    verdict = classify(g)
    assert verdict.status == UNKNOWN
    assert verdict.report.rules_attempted == (RULE_AMALGAM,)
    assert verdict.report.nodes_expanded == 2


def test_unknown_report_names_its_stuck_graphs():
    # the complement of P6 on names whose sorted order is not the order of
    # its graph6 positions: the one failed node is the graph itself, named as
    # graph6 with the vertex names the positions follow
    cop6 = parse_graph6(b"EUzo")
    name = dict(zip(cop6.vertices, ["x5", "x3", "x1", "x6", "x2", "x4"]))
    g = Graph(name.values(), [(name[u], name[v]) for u, v in cop6.edge_pairs])
    report = classify(g).report
    assert report.nodes_expanded == 1 and len(report.stuck) == 1
    text, *names = report.stuck[0].split()
    h = parse_graph6(text.encode("ascii"))
    rename = dict(zip(h.vertices, names))
    assert Graph(names, [(rename[u], rename[v]) for u, v in h.edge_pairs]) == g
    assert report.to_json()["stuck"] == list(report.stuck)


def _peel_inputs():
    rng = random.Random(81)
    atlas = [g for n in range(1, 8) for g in nonisomorphic_graphs(n)]
    return atlas + [random_graph(rng.randint(8, 12), rng.random(), rng) for _ in range(150)]


def _has_simplicial_vertex(g):
    return any(is_simplicial_vertex(g, v) for v in g.vertices)


def test_the_peel_matches_a_scan_from_scratch_at_every_step():
    # the peel re-tests only the separator after a step; a scan of what is
    # left for its first simplicial vertex must take the same steps, and the
    # derivation built on them is one chain node of them, as masks over g's
    # positions, above the core
    rng = random.Random(83)
    graphs = [g for n in range(1, 8) for g in nonisomorphic_graphs(n)]
    graphs += [random_graph(rng.randint(8, 16), rng.random(), rng) for _ in range(300)]
    graphs += [random_chordal(rng.randint(8, 16), rng) for _ in range(100)]
    steps_taken = 0
    for g in graphs:
        peel = _peel(g)
        steps, core = reference_peel(g)
        assert list(peel.steps) == [(clique, sep) for _, clique, sep in steps], emit_graph6(g)
        assert peel.core == g.subgraph(core), emit_graph6(g)
        leaf = Derivation(RULE_COMPLETE, peel.core)
        assert peel.rest == core
        d = _chain(g, peel.steps, leaf)
        if steps:
            assert d.rule == RULE_CHAIN and d.conclusion == g and d.children == (leaf,)
            assert d.steps == tuple((clique, sep) for _, clique, sep in steps)
        else:
            assert d is leaf
        steps_taken += len(steps)
    assert steps_taken > 3000


def test_a_long_path_is_derived_and_checked_in_process():
    # the peel of a path is one chain node of 398 clique steps above an edge
    path = standard_graph("path", 400)
    v = classify(path)
    assert v.status == NO_SURFACE
    assert v.derivation.rules_used() == {RULE_AMALGAM, RULE_COMPLETE}
    assert check_derivation(v.derivation, path)
    d = v.derivation
    assert d.rule == RULE_CHAIN and len(d.steps) == 398 and d.children[0].rule == RULE_COMPLETE
    # a wrong separator at the last step fails the whole derivation
    clique, _ = d.steps[-1]
    bad = Derivation(RULE_CHAIN, path, d.children, steps=d.steps[:-1] + ((clique, 0),))
    assert not check_derivation(bad, path)


# C4 on a, b, c, d with the triangle a, e, f hung at a: the triangle is
# split off, a-b is deleted, and the path b-c-d-a is peeled to the edge c-d
# the wheel W4, hub h and rim a-b-c-d, with the triangle a-e-f: the peel
# splits the triangle off, the rim edge a-b is then bisimplicial, and the
# fan it leaves peels to the triangle c-d-h. Not bipartite, so the prover
# takes one edge and does not run the greedy pass
W4_TRIANGLE = Graph(["a", "b", "c", "d", "e", "f", "h"],
                    [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"),
                     ("h", "a"), ("h", "b"), ("h", "c"), ("h", "d"),
                     ("a", "e"), ("e", "f"), ("a", "f")])
W4_TRIANGLE_STEPS = ((("a", "e", "f"), ("a",)), ("a", "b"),
                     (("a", "d", "h"), ("d", "h")), (("b", "c", "h"), ("c", "h")))


def _masks(g, steps):
    """Named chain steps as masks over g's positions: a pair of name tuples
    is a clique step, two names an edge step; a mask passes as it is."""
    def mask(x):
        return x if isinstance(x, int) else g.mask(x)

    return tuple(mask(step) if isinstance(step, int) or isinstance(step[0], str)
                 else (mask(step[0]), mask(step[1])) for step in steps)


def _with_steps(d, steps, child=None):
    return Derivation(RULE_CHAIN, d.conclusion, (child or d.children[0],),
                      steps=_masks(d.conclusion, steps))


def test_the_chain_checker_refuses_each_broken_step():
    d = prove_in_f(W4_TRIANGLE)
    assert d.rule == RULE_CHAIN and d.steps == _masks(W4_TRIANGLE, W4_TRIANGLE_STEPS)
    assert check_derivation(d, W4_TRIANGLE)
    s0, s1, s2, s3 = W4_TRIANGLE_STEPS
    broken = {
        "no step": (),
        "a dropped clique step": (s0, s1, s2),
        "a dropped edge step": (s0, s2, s3),
        # a still has its edge to b when it goes with d
        "two swapped steps": (s0, s2, s1, s3),
        # it removes e and f as the triangle's step does; only the clique
        # test refuses {a, b, e, f}
        "K not a clique": ((("a", "b", "e", "f"), ("a", "b")), s1, s2, s3),
        "S not within K": ((("a", "e", "f"), ("a", "b")), s1, s2, s3),
        "S all of K": ((("a", "e", "f"), ("a", "e", "f")),) + W4_TRIANGLE_STEPS,
        "K - S touching the rest": ((("a", "e", "f"), ()), s1, s2, s3),
        "an absent edge": (s0, ("a", "c"), s2, s3),
        "an edge with an end already gone": (s0, ("a", "e"), s1, s2, s3),
        # a-b is bisimplicial only once the triangle at a is gone
        "an edge that is not bisimplicial": (s1, s0, s2, s3),
        # a mask with a bit past the graph's last position, as
        # derivation_from_json makes of an unknown name, and negative masks
        "a vertex outside the graph": (s0, 1 | 1 << 7, s2, s3),
        "a clique outside the graph": ((1 << 7 | 1, 1), s1, s2, s3),
        "a negative edge": (s0, -3, s2, s3),
        "a negative clique": ((-1, 1), s1, s2, s3),
        "a negative separator": ((0b110001, -1), s1, s2, s3),
    }
    for what, steps in broken.items():
        assert not check_derivation(_with_steps(d, steps), W4_TRIANGLE), what
    # the child must conclude what is left: the triangle c-d-h, not the
    # path c-d-h, nor the triangle c-d-x; and a chain of no steps is refused
    # even above a derivation of its own conclusion
    for child in (new_graph(["c", "d", "h"], [("c", "d"), ("d", "h")]),
                  new_graph(["c", "d", "x"], [("c", "d"), ("d", "x"), ("c", "x")])):
        assert not check_derivation(_with_steps(d, d.steps, prove_in_f(child)), W4_TRIANGLE)
    assert not check_derivation(_with_steps(d, (), d), W4_TRIANGLE)
    # steps on vertices already gone, and an absent edge deleted twice,
    # which would replay as no-ops if only the end graph were compared
    two_edges = new_graph(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
    d = prove_in_f(two_edges)
    ab = (("a", "b"), ())
    assert d.steps == _masks(two_edges, (ab,)) and check_derivation(d, two_edges)
    for steps in ((ab, ("a", "b")), (ab, ab, ab)):
        assert not check_derivation(_with_steps(d, steps), two_edges), steps
    # an edge step of three bits, whose lowest and highest bits are the
    # edge the chain deletes first: a-c of C4 on the cycle a-c-b-d
    c4 = new_graph(["a", "b", "c", "d"], [("a", "c"), ("c", "b"), ("b", "d"), ("d", "a")])
    d = prove_in_f(c4)
    assert d.steps[0] == c4.mask("ac") and check_derivation(d, c4)
    assert not check_derivation(_with_steps(d, (c4.mask("abc"),) + d.steps[1:]), c4)
    edgeless = new_graph(["a", "b", "c"], [])
    d = prove_in_f(edgeless)
    assert check_derivation(d, edgeless)
    assert not check_derivation(_with_steps(d, (("a", "b"), ("a", "b")) + d.steps), edgeless)
    # a step that is neither a mask nor a pair of masks
    for step in ((1, 2, 3), "ab", (("a",), ()), 1.5, None):
        assert not check_derivation(Derivation(RULE_CHAIN, edgeless, d.children,
                                               steps=(step,) + d.steps), edgeless), step
    # K - S touching rest - K, and K all of what is there, each the one
    # fault: the child is what the step would leave
    p3 = standard_graph("path", 3)
    k1 = prove_in_f(new_graph(["v3"], []))
    assert not check_derivation(Derivation(RULE_CHAIN, p3, (k1,),
                                           steps=((p3.mask(("v1", "v2")), 0),)), p3)
    k2 = standard_graph("complete", 2)
    k1 = prove_in_f(new_graph(["v1"], []))
    assert not check_derivation(Derivation(RULE_CHAIN, k2, (k1,),
                                           steps=((0b11, 0b01),)), k2)


def test_verdicts_are_monotone_under_vertex_deletion_on_the_atlas():
    # a second oracle beside the census golden: for every graph g on at most
    # 7 vertices and every vertex v, a surface subgroup of g - v is one of
    # g, and a derivation of g restricts to g - v (heredity). Only the
    # budget could break either; the golden pins counts, this pins relations
    atlas = [Graph([], [])] + [g for n in range(1, 8) for g in nonisomorphic_graphs(n)]
    status = {canonical_key(g): classify(g).status for g in atlas}
    pairs = 0
    for g in atlas:
        full = (1 << g.n) - 1
        above = status[canonical_key(g)]
        for i in range(g.n):
            below = status[canonical_key(g.subgraph(full ^ 1 << i))]
            assert below != HAS_SURFACE or above == HAS_SURFACE, (emit_graph6(g), i)
            assert above != NO_SURFACE or below == NO_SURFACE, (emit_graph6(g), i)
            pairs += 1
    assert pairs == 8475


def test_verdicts_are_monotone_under_vertex_deletion_on_8_vertices():
    # the atlas relations on every pair (g, g - v) with g on 8 vertices: each
    # g - v is looked up by canonical key among the 7-vertex classes
    below = {canonical_key(h): classify(h).status for h in nonisomorphic_graphs(7)}
    pairs = 0
    for g in nonisomorphic_graphs(8):
        above = classify(g).status
        for i in range(8):
            status = below[canonical_key(g.subgraph(0xFF ^ 1 << i))]
            assert status != HAS_SURFACE or above == HAS_SURFACE, (emit_graph6(g), i)
            assert above != NO_SURFACE or status == NO_SURFACE, (emit_graph6(g), i)
            pairs += 1
    assert pairs == 98768


def _json_nodes(obj):
    stack = [obj]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node["children"])


def test_every_chain_replays_by_name_through_its_json():
    # chains hold masks in memory and names in JSON: every derivation on the
    # atlas and on desk seed 1 replays by name, chain by chain, and comes
    # back from its JSON as an equal Derivation
    graphs = [g for n in range(1, 8) for g in nonisomorphic_graphs(n)]
    graphs += [parse_graph6(text.encode()) for text in desk_graph6(1)]
    derived = chains = 0
    for g in graphs:
        d = classify(g).derivation
        if d is None:
            continue
        derived += 1
        obj = json.loads(json.dumps(derivation_to_json(d)))
        for node in _json_nodes(obj):
            if node["rule"] == RULE_CHAIN:
                chains += 1
                assert reference_check_chain(node), emit_graph6(g)
        assert derivation_from_json(obj) == d, emit_graph6(g)
    # the atlas's 1051 derived graphs and desk seed 1's 89
    assert derived == 1051 + 89 and chains == 1231


def test_a_step_naming_a_vertex_outside_its_graph_is_invalid_not_malformed():
    # W4 and C4 glued at a: the root splits at {a} into two chains, and a
    # step of the first, the wheel's, may not name e, a vertex of the root
    # but not of its own graph, nor a vertex of no graph at all
    g = _W4_C4
    root = derivation_to_json(prove_in_f(g))
    assert root["rule"] == RULE_AMALGAM and root["children"][0]["rule"] == RULE_CHAIN
    chain = root["children"][0]
    assert "e" not in chain["graph"]["vertices"] and reference_check_chain(chain)
    for k, step in enumerate(chain["steps"]):
        for key in step:
            for name in ("e", "z"):
                obj = json.loads(json.dumps(root))
                obj["children"][0]["steps"][k][key] = [name] + step[key][1:]
                bad = derivation_from_json(obj)
                assert not reference_check_chain(obj["children"][0])
                assert not check_derivation(bad, g), (k, key, name)


def test_malformed_chain_steps_are_graph_errors():
    root = derivation_to_json(prove_in_f(W4_TRIANGLE))
    assert root["steps"][:2] == [{"clique": ["a", "e", "f"], "separator": ["a"]},
                                 {"edge": ["a", "b"]}]
    for bad in ({"edge": ["a"]}, {"edge": ["a", "b", "c"]}, {"edge": ["a", 1]},
                {"edge": "ab"}, {"clique": ["a", "e"]}, {"clique": ["a"], "separator": "a"},
                {"clique": ["a"], "separator": [], "edge": ["a", "b"]}, ["a", "b"], "ab", None):
        obj = json.loads(json.dumps(root))
        obj["steps"][1] = bad
        with pytest.raises(GraphError):
            derivation_from_json(obj)
    for bad in ({"edge": ["a", "b"]}, "ab", 3):
        with pytest.raises(GraphError):
            derivation_from_json({**root, "steps": bad})


def _depth(d):
    return 1 + max(map(_depth, d.children)) if d.children else 0


def _graphs_held(d):
    # the Graph objects reachable from d through its fields
    seen, stack, graphs = set(), [d], 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, Graph):
            graphs += 1
        elif isinstance(obj, Derivation):
            stack.extend(getattr(obj, f.name) for f in fields(obj))
        elif isinstance(obj, (tuple, list, frozenset)):
            stack.extend(obj)
    return graphs


def test_a_run_of_unary_steps_is_one_shallow_node():
    # a chain holds its top graph and its child's; no per-step graph
    names = ["a%d" % i for i in range(10)] + ["b%d" % i for i in range(10)]
    k10_10 = Graph(names, [(a, b) for a in names[:10] for b in names[10:]])
    path = standard_graph("path", 256)
    d = classify(path).derivation
    assert _depth(d) == 1 and _graphs_held(d) == 2
    for d in (classify(k10_10).derivation, is_chordal_bipartite(k10_10)):
        assert d.rule == RULE_CHAIN and _depth(d) <= 2 and _graphs_held(d) <= 2
        assert check_derivation(d, k10_10)


def _chain_steps(d):
    out = []
    stack = [d]
    while stack:
        node = stack.pop()
        if node.rule == RULE_CHAIN:
            out.append(node.steps)
        stack.extend(node.children)
    return out


def test_a_second_pass_over_a_batch_shares_the_first_pass_steps():
    # the desk batch meets more distinct shared values in one pass than a
    # 512-entry table held, so a cyclic pass evicted each before its reuse
    # and every pass kept fresh copies of all its steps
    texts = desk_graph6(1)

    def steps():
        out = []
        for text in texts:
            d = classify(parse_graph6(text.encode("ascii"))).derivation
            out += _chain_steps(d) if d is not None else []
        return out

    first, second = steps(), steps()
    assert len(first) == len(second) > 100
    assert all(a is b for a, b in zip(first, second))
    assert all(x is y for a, b in zip(first, second) for x, y in zip(a, b))


def test_the_peel_leaves_a_complete_graph_exactly_on_chordal_graphs():
    # the walk stops only at a complete graph or at one with no simplicial
    # vertex, and the first happens exactly when g is chordal
    chordal = 0
    for g in _peel_inputs():
        core = _peel(g).core
        complete = is_complete(core)
        assert complete or not _has_simplicial_vertex(core), emit_graph6(g)
        assert complete == isinstance(is_chordal(g), Derivation), emit_graph6(g)
        chordal += complete
    assert 500 < chordal < 1000


def test_a_graph_is_derived_exactly_when_its_core_is():
    # heredity: every peel step is a decisive clique split
    derived = 0
    for g in _peel_inputs():
        core = _peel(g).core
        d = prove_in_f(g)
        assert (d is None) == (prove_in_f(core) is None), emit_graph6(g)
        if d is not None:
            assert check_derivation(d, g)
            derived += core.n < g.n and not is_complete(core)
    assert derived > 50


def test_stuck_entries_name_cores():
    rng = random.Random(82)
    graphs = [g for n in range(6, 8) for g in nonisomorphic_graphs(n)]
    graphs += [random_graph(rng.randint(8, 11), rng.random(), rng) for _ in range(100)]
    entries = 0
    for g in graphs:
        report = classify(g, cocontract_depth=0).report
        for entry in report.stuck if report is not None else ():
            text, *names = entry.split()
            h = parse_graph6(text.encode("ascii"))
            assert len(names) == h.n
            # the names follow the graph6 positions, v1..vn in h, so the
            # named core emits the entry's own graph6 value
            rename = dict(zip(("v%d" % (k + 1) for k in range(h.n)), names))
            core = Graph(names, [(rename[u], rename[v]) for u, v in h.edge_pairs])
            assert emit_graph6(core).decode("ascii") == text, entry
            assert h.n and not _has_simplicial_vertex(h), entry
            entries += 1
    assert entries > 40


def test_classify_peels_its_root_once(monkeypatch):
    import raagscope.prover as prover

    peeled = []
    peel = prover._peel

    def counting(h):
        peeled.append(h)
        return peel(h)

    monkeypatch.setattr(prover, "_peel", counting)
    c4_pendant = new_graph(["a", "b", "c", "d", "e"],
                           [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("a", "e")])
    for g in (standard_graph("path", 4), c4_pendant, standard_graph("cycle", 5),
              parse_graph6(b"EUzo"), parse_graph6(b"IypEtv?sG")):
        for cross_check in (False, True):
            peeled.clear()
            classify(g, cross_check=cross_check)
            assert sum(h == g for h in peeled) == 1, (emit_graph6(g), cross_check)
