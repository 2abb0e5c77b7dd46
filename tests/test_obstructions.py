import json
import random
import re
import time
from pathlib import Path

import pytest
from conftest import (add_edge, complete_bipartite, disjoint_union, entry_graph, ladder,
                      random_bipartite, random_chordal, random_gnm, random_graph,
                      reference_cocontraction_witness,
                      reference_find_forbidden_induced, reference_induced_cycle)

from raagscope.generate import nonisomorphic_graphs
from raagscope.graphs import (Graph, GraphError, canonical_key, emit_graph6, is_isomorphic,
                              parse_graph6, standard_graph, verify_vertex_map)
from raagscope.obstructions import (
    CYCLE_FAMILIES,
    KIND_INDUCED,
    KIND_TRAIL,
    CatalogError,
    ForbiddenEntry,
    Obstruction,
    _step,
    builtin_catalog,
    find_cocontraction_witness,
    find_forbidden_induced,
    load_catalog,
    obstruction_from_json,
    obstruction_to_json,
    verify_obstruction,
)
from raagscope.ops import co_contract_edge, complement
from raagscope.prover import (HAS_SURFACE, UNKNOWN, Derivation, _peel, classify,
                              is_chordal_bipartite, prove_in_f)
from raagscope.recognize import find_induced_cycle


def test_builtin_catalog_contents():
    # the fixed trio; the cycle families are listed once, as families
    cat = builtin_catalog()
    assert [e.name for e in cat] == ["P1(8)", "Q1(9)", "Q2(10)"]
    assert all(e.provenance for e in cat)
    # coC5 is C5, which is self-complementary
    assert [family[:2] for family in CYCLE_FAMILIES] == [("Cn", 5), ("coCn", 6)]
    assert all(provenance for _, _, provenance in CYCLE_FAMILIES)


def test_scan_names_a_5_antihole_as_c5():
    for n in (5, 6, 7):
        for g in nonisomorphic_graphs(n):
            o = find_forbidden_induced(g)
            assert o is None or o.entry != "coC5"


def test_fixed_graph_shapes():
    p18 = entry_graph("P1(8)")
    assert p18.n == 8 and complement(p18).m == 12
    q19 = entry_graph("Q1(9)")
    assert q19.n == 9 and complement(q19).m == 15
    q2x = entry_graph("Q2(10)")
    assert q2x.n == 10 and complement(q2x).m == 18


def test_transcription_contraction_chain():
    q19 = entry_graph("Q1(9)")
    q2x = entry_graph("Q2(10)")
    assert is_isomorphic(co_contract_edge(q19, ("a", "b")), entry_graph("P1(8)")) is not None
    assert is_isomorphic(co_contract_edge(q2x, ("c", "d")), q19) is not None


def test_entry_graph_families_and_unknown():
    assert entry_graph("C7").m == 7
    assert entry_graph("coC8").m == 8 * 7 // 2 - 8
    with pytest.raises(CatalogError):
        entry_graph("C4")  # below the forbidden range
    with pytest.raises(CatalogError):
        entry_graph("nonsense")


def test_find_forbidden_induced_cycles():
    c5 = standard_graph("cycle", 5)
    o = find_forbidden_induced(c5)
    assert o.kind == KIND_INDUCED and o.entry == "C5"
    assert o.embedding_map() == {"v%d" % i: "v%d" % i for i in range(1, 6)}
    assert verify_obstruction(c5, o)

    c7 = standard_graph("cycle", 7)
    o = find_forbidden_induced(c7)
    assert o.entry == "C7"  # C7 has no induced C5 or C6
    assert verify_obstruction(c7, o)

    co8 = complement(standard_graph("cycle", 8))
    o = find_forbidden_induced(co8)
    assert o.entry == "coC8"
    assert verify_obstruction(co8, o)


def test_the_antihole_search_runs_through_find_induced_cycle(monkeypatch):
    # the scan has one cycle search: its antihole search is find_induced_cycle
    # on the complement of the core, from length 6 and below g's hole
    import raagscope.obstructions as obstructions
    import raagscope.recognize as recognize

    assert not [name for name, value in vars(obstructions).items()
                if name.startswith("_") and getattr(value, "__module__", None) == recognize.__name__]
    calls = []

    def recording(g, min_len, max_len=None):
        calls.append((g.n, min_len, max_len))
        return find_induced_cycle(g, min_len, max_len)

    monkeypatch.setattr(obstructions, "find_induced_cycle", recording)
    g = complement(standard_graph("cycle", 7))
    verdict = classify(g)
    assert verdict.status == HAS_SURFACE and verdict.obstruction.entry == "coC7"
    assert (7, 5, None) in calls and (7, 6, 7) in calls


def test_find_forbidden_absent_on_chordal_and_chordal_bipartite():
    rng = random.Random(41)
    for _ in range(60):
        g = random_chordal(rng.randint(1, 8), rng)
        assert find_forbidden_induced(g) is None
    checked = 0
    while checked < 30:
        g = random_bipartite(rng.randint(2, 8), rng.random(), rng)
        if isinstance(is_chordal_bipartite(g), Derivation):
            assert find_forbidden_induced(g) is None
            checked += 1


_C6_PENDANT = ForbiddenEntry(
    "c6p(7)", Graph("abcdefg", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "f"),
                                ("f", "a"), ("f", "g")]), "test data")
# the complement of P6, which the prover does not derive, plus a vertex
# pendant at an end of the path: the pendant vertex is simplicial
_COP6 = complement(Graph("pqrstu", [("p", "q"), ("q", "r"), ("r", "s"), ("s", "t"), ("t", "u")]))
_COP6_PENDANT = ForbiddenEntry(
    "cop6p(7)", Graph(_COP6.vertices + ("x",), _COP6.edge_pairs + (("p", "x"),)), "test data")


def test_the_scan_finds_the_full_scans_first_hit():
    # the bounded antihole search, the C5 return and the bipartite return
    # against a scan that runs every search in full: on the atlas, seeded
    # G(n, m) and bipartite graphs on 8-13 vertices, P1(8) with up to three
    # vertices added or beside a C6 or C7; with no extra, a bipartite extra
    # (C6 plus a pendant vertex) and a 7-vertex one with a triangle and a
    # simplicial vertex (the complement of P6 plus a pendant vertex)
    rng = random.Random(30)
    hosts = [g for n in range(5, 8) for g in nonisomorphic_graphs(n)]
    for _ in range(150):
        n = rng.randint(8, 13)
        hosts.append(random_gnm(n, rng.randint(0, n * (n - 1) // 2), rng))
    hosts += [random_bipartite(rng.randint(8, 13), rng.random(), rng) for _ in range(100)]
    p18 = entry_graph("P1(8)")
    for _ in range(30):
        extra = ["x%d" % i for i in range(rng.randint(1, 3))]
        hosts.append(Graph(p18.vertices + tuple(extra), p18.edge_pairs + tuple(
            (x, v) for x in extra for v in p18.vertices + tuple(extra)
            if x < v and rng.random() < 0.5)))
    # a hole shorter than P1(8) beside it: the hole must win
    hosts += [disjoint_union(p18, standard_graph("cycle", k)) for k in (6, 7)]
    entries = set()
    for extra in ((), (_C6_PENDANT,), (_COP6_PENDANT,)):
        for g in hosts:
            got = find_forbidden_induced(g, extra)
            assert got == reference_find_forbidden_induced(g, extra), g.edge_pairs
            entries.add(None if got is None else _CYCLE_NAME.sub(r"\1n", got.entry))
    assert entries == {None, "Cn", "coCn", "P1(8)", "cop6p(7)"}


_CYCLE_NAME = re.compile(r"^(C|coC)\d+$")


def test_classify_finds_the_whole_graph_scans_first_hit():
    # classify runs the hole and antihole searches on its peel's core and
    # the fixed entries on the whole graph: its obstruction, with no
    # co-contraction search, must be find_forbidden_induced's, on the atlas
    # and on seeded G(n, m) with pendant trees, which the peel removes
    rng = random.Random(32)
    graphs = [g for n in range(1, 8) for g in nonisomorphic_graphs(n)]
    for _ in range(150):
        n = rng.randint(6, 11)
        g = random_gnm(n, rng.randint(n, n * (n - 1) // 2), rng)
        names, edges = list(g.vertices), list(g.edge_pairs)
        for k in range(rng.randint(1, 5)):
            edges.append(("t%d" % k, rng.choice(names)))
            names.append("t%d" % k)
        graphs.append(Graph(names, edges))
    entries = set()
    for extra in ((), (_C6_PENDANT,), (_COP6_PENDANT,)):
        for g in graphs:
            got = classify(g, cocontract_depth=0, catalog=extra).obstruction
            assert got == find_forbidden_induced(g, extra), g.edge_pairs
            entries.add(None if got is None else _CYCLE_NAME.sub(r"\1n", got.entry))
    assert entries == {None, "Cn", "coCn", "cop6p(7)"}


def test_an_extra_with_a_simplicial_vertex_is_found_in_the_whole_graph():
    # H]o~fy? is the open core G]o~fw with a pendant vertex: the peel leaves
    # G]o~fw, too small to hold the graph, so as an extra it is met only by
    # scanning the fixed entries in the whole graph
    g = parse_graph6(b"H]o~fy?")
    extra = [ForbiddenEntry("g8p(9)", g, "test data")]
    assert _peel(g).core.n == 8 and classify(g).status == UNKNOWN
    for cross_check in (False, True):
        v = classify(g, catalog=extra, cross_check=cross_check)
        assert v.status == HAS_SURFACE and v.obstruction.entry == "g8p(9)"
        assert v.obstruction.kind == KIND_INDUCED and verify_obstruction(g, v.obstruction, extra)


def test_cocontraction_witness_trio():
    q19 = entry_graph("Q1(9)")
    w = find_cocontraction_witness(q19, 1)
    assert w.kind == KIND_TRAIL and w.trail == (("a", "b"),) and w.entry == "P1(8)"
    assert verify_obstruction(q19, w)

    q2x = entry_graph("Q2(10)")
    w2 = find_cocontraction_witness(q2x, 2)
    assert w2.kind == KIND_TRAIL and len(w2.trail) == 2
    assert w2.trail[0] == ("c", "d")
    assert verify_obstruction(q2x, w2)
    # depth 1 is not enough for the larger graph
    assert find_cocontraction_witness(q2x, 1) is None


def _one_vertex_extension(g, mask):
    return Graph(g.vertices + ("z",), g.edge_pairs
                 + tuple((g.vertices[i], "z") for i in range(g.n) if mask >> i & 1))


def test_rooted_state_scans_keep_the_full_scan_witness():
    # states below g are scanned only for the fixed entries, and those at the
    # last depth are not deduplicated; the scan of g followed by the search
    # below it must give the full scan's witness, entry, trail and embedding
    # alike, and verify. Hosts: seeded one-vertex extensions of Q1(9) and Q2(10),
    # whose witnesses are mostly trails, seeded 10-vertex graphs with no
    # induced obstruction, which the search explores to full depth, and the
    # 32 unknowns on at most 7 vertices of the census golden.
    rng = random.Random(17)
    golden = json.loads((Path(__file__).parent / "data" / "census7.json").read_text())
    unknowns = [parse_graph6(t.encode()) for n in ("6", "7") for t in golden[n]["unknown_graph6"]]
    assert len(unknowns) == 32
    hosts = list(unknowns)
    for name in ("Q1(9)", "Q2(10)"):
        q = entry_graph(name)
        hosts += [_one_vertex_extension(q, m) for m in rng.sample(range(1 << q.n), 61)]
    while len(hosts) < 182 + len(unknowns):
        g = random_graph(10, rng.random(), rng)
        if find_forbidden_induced(g) is None:
            hosts.append(g)
    trails = 0
    for g in hosts:
        got = find_forbidden_induced(g) or find_cocontraction_witness(g, 2)
        want = reference_cocontraction_witness(g, 2)
        assert (got is None) == (want is None)
        if got is not None:
            assert got == want and verify_obstruction(g, got)
            trails += got.kind == KIND_TRAIL
    assert trails > 50


def test_each_state_is_scanned_for_the_fixed_entries_only(monkeypatch):
    # the input is not scanned; every state below it, which holds a merged
    # vertex of its own, is scanned only for P1(8), the one fixed built-in
    # entry; Q2(10) reaches its witness at depth 2
    import raagscope.obstructions as obstructions

    full, fixed = [], []
    scan, induced = obstructions.find_forbidden_induced, obstructions.find_induced

    def recording_scan(g, extra=()):
        full.append(g)
        return scan(g, extra)

    def recording_induced(pattern, host):
        fixed.append((pattern, host))
        return induced(pattern, host)

    monkeypatch.setattr(obstructions, "find_forbidden_induced", recording_scan)
    monkeypatch.setattr(obstructions, "find_induced", recording_induced)
    q2x = entry_graph("Q2(10)")
    assert find_cocontraction_witness(q2x, 2).trail[0] == ("c", "d")
    assert full == []
    p18 = entry_graph("P1(8)")
    assert len(fixed) > 10
    for pattern, host in fixed:
        assert pattern.n == 8 and is_isomorphic(pattern, p18)
        assert 8 <= host.n < q2x.n and any(v.startswith("$co(") for v in host.vertices)


def _weakly_chordal(g):
    # conftest's brute-force reference, not the library's cycle search
    return (reference_induced_cycle(g, 5) is None
            and reference_induced_cycle(complement(g), 5) is None)


def _non_adjacent_pairs(g):
    return [(i, j) for i in range(g.n) for j in range(i + 1, g.n) if not g.rows[i] >> j & 1]


def _co_contractions(g):
    verts = g.vertices
    return [co_contract_edge(g, (verts[i], verts[j]))
            for i in range(g.n) for j in range(i + 1, g.n) if not g.rows[i] >> j & 1]


def test_the_search_step_is_co_contract_edge_on_positions():
    # the search's own step against the checker's: names and rows alike on
    # every non-adjacent pair, and again on every pair of one child, whose
    # $co(...) name sorts among the names on both sides of a second merge
    rng = random.Random(41)
    pairs = 0
    for _ in range(400):
        g = random_graph(rng.randint(2, 12), rng.random(), rng)
        children = []
        for i, j in _non_adjacent_pairs(g):
            child = _step(g, i, j)
            assert child == co_contract_edge(g, (g.vertices[i], g.vertices[j]))
            children.append(child)
        pairs += len(children)
        if children:
            h = rng.choice(children)
            for i, j in _non_adjacent_pairs(h):
                assert _step(h, i, j) == co_contract_edge(h, (h.vertices[i], h.vertices[j]))
                pairs += 1
    assert pairs > 5000


def test_the_search_step_refuses_a_fresh_name_the_graph_holds():
    g = Graph(["a", "b", "$co(a,b)"], [])
    assert g.vertices == ("$co(a,b)", "a", "b")
    with pytest.raises(GraphError, match="collision"):
        _step(g, 1, 2)
    with pytest.raises(GraphError, match="collision"):
        co_contract_edge(g, ("a", "b"))


def test_co_contractions_of_a_clean_root_hold_no_long_hole_or_antihole():
    # the lemma behind the search below a clean root: if g holds no induced
    # cycle of length >= 5 in itself or in its complement, neither does any
    # co-contraction of it, so no state at depth <= 2 holds a C>=5 or a
    # coC>=6. States are compared up to isomorphism, one check per class.
    rng = random.Random(31)
    roots = [g for n in range(1, 8) for g in nonisomorphic_graphs(n) if _weakly_chordal(g)]
    atlas_roots = len(roots)
    random_roots = 0
    while random_roots < 12:
        g = random_graph(rng.randint(9, 11), rng.uniform(0.25, 0.75), rng)
        if _weakly_chordal(g):
            roots.append(g)
            random_roots += 1
    checked = set()
    states = 0
    for g in roots:
        level = [g]
        for _ in range(2):
            below = {}
            for h in level:
                for s in _co_contractions(h):
                    below.setdefault(canonical_key(s), s)
            level = list(below.values())
            for key, s in below.items():
                if key not in checked:
                    checked.add(key)
                    states += 1
                    assert _weakly_chordal(s), emit_graph6(s)
    assert atlas_roots == 1083 and states > 1000


def test_cocontraction_depth_zero_builds_no_state(monkeypatch):
    # depth 0 is the empty search below g: g is not scanned, so even a g
    # with an induced hit or a depth-1 trail gives None, and no state is built
    import raagscope.obstructions as obstructions

    steps = []
    step = obstructions._step
    monkeypatch.setattr(obstructions, "_step", lambda *a: steps.append(a) or step(*a))
    rng = random.Random(42)
    graphs = [random_graph(rng.randint(1, 12), rng.random(), rng) for _ in range(40)]
    graphs += [standard_graph("cycle", 5), entry_graph("Q1(9)"), entry_graph("Q2(10)")]
    for g in graphs:
        assert find_cocontraction_witness(g, 0) is None
    assert steps == []
    assert find_cocontraction_witness(entry_graph("Q1(9)"), 1) is not None and steps
    with pytest.raises(ValueError, match="nonnegative"):
        find_cocontraction_witness(entry_graph("Q1(9)"), -1)


def test_the_search_skips_an_extra_larger_than_a_state(monkeypatch):
    # Q2(10) as a 10-vertex extra beside P1(8), over seeded 10-vertex hosts
    # with no induced obstruction whose states hold no entry: every 9- and
    # 8-vertex state is scanned for P1(8), misses it and is offered the
    # extra, which graphs.find_induced refuses at once. The search below g
    # must give the full scan's answer
    import raagscope.obstructions as obstructions

    extra = (ForbiddenEntry("q2copy(10)", entry_graph("Q2(10)"), "test data"),)
    offers = []
    real = obstructions.find_induced

    def recording(pattern, host):
        offers.append(pattern.n > host.n)
        return real(pattern, host)

    monkeypatch.setattr(obstructions, "find_induced", recording)
    rng = random.Random(39)
    hosts = 0
    while hosts < 12:
        g = random_graph(10, rng.random(), rng)
        if find_forbidden_induced(g, extra) is not None:
            continue
        hosts += 1
        got = find_cocontraction_witness(g, 2, extra)
        assert got is None and got == reference_cocontraction_witness(g, 2, extra)
    assert any(offers)


def test_cocontraction_absent_on_complete():
    for n in (2, 5, 8):
        assert find_cocontraction_witness(standard_graph("complete", n), 3) is None


def test_verify_rejects_corrupted_embedding():
    c5 = standard_graph("cycle", 5)
    o = find_forbidden_induced(c5)
    emb = o.embedding_map()
    emb["v1"], emb["v2"] = emb["v2"], emb["v1"]  # break adjacency structure
    bad = Obstruction(o.kind, o.entry, tuple(sorted(emb.items())), o.trail)
    assert not verify_obstruction(c5, bad)


def test_verify_rejects_wrong_graph_and_bad_trail():
    q19 = entry_graph("Q1(9)")
    w = find_cocontraction_witness(q19, 1)
    assert not verify_obstruction(standard_graph("cycle", 9), w)
    bad_trail = Obstruction(w.kind, w.entry, w.embedding, (("t1", "t2"),))
    assert not verify_obstruction(q19, bad_trail)
    # trail pair that is an edge of the graph violates the precondition
    edge_pair = q19.edge_pairs[0]
    bad_trail2 = Obstruction(w.kind, w.entry, w.embedding, (edge_pair,))
    assert not verify_obstruction(q19, bad_trail2)
    # a vertex not in the graph, a repeated vertex, and a step of three names
    for step in (("a", "zz"), ("zz", "a"), ("t1", "t1"), ("a", "b", "t1")):
        assert not verify_obstruction(q19, Obstruction(w.kind, w.entry, w.embedding, (step,)))


def test_verify_unknown_entry_raises():
    c5 = standard_graph("cycle", 5)
    o = find_forbidden_induced(c5)
    bad = Obstruction(o.kind, "madeup", o.embedding, o.trail)
    with pytest.raises(CatalogError):
        verify_obstruction(c5, bad)


def test_kind_trail_consistency():
    c5 = standard_graph("cycle", 5)
    o = find_forbidden_induced(c5)
    mismatched = Obstruction(KIND_TRAIL, o.entry, o.embedding, ())
    assert not verify_obstruction(c5, mismatched)


def test_obstruction_json_round_trip():
    q2x = entry_graph("Q2(10)")
    w = find_cocontraction_witness(q2x, 2)
    back = obstruction_from_json(json.loads(json.dumps(obstruction_to_json(w))))
    assert back == w
    assert verify_obstruction(q2x, back)


# C5 on p..t plus the vertex u pendant at p, stored as its complement
_C5_PENDANT = {"name": "c5p(6)", "provenance": "test data",
               "vertices": ["p", "q", "r", "s", "t", "u"],
               "complement_edges": [["p", "r"], ["p", "s"], ["q", "s"], ["q", "t"], ["r", "t"],
                                    ["q", "u"], ["r", "u"], ["s", "u"], ["t", "u"]]}


def test_user_catalog_load(tmp_path, monkeypatch):
    # C5 plus a pendant vertex holds a hole, so the prover cannot derive it
    path = tmp_path / "extra.json"
    path.write_text(json.dumps([_C5_PENDANT]))
    entries = load_catalog(str(path))
    assert entries[0].name == "c5p(6)" and entries[0].graph.n == 6
    host = entries[0].graph
    o = find_forbidden_induced(host, entries)
    assert o is not None
    assert verify_obstruction(host, o, entries)

    def refused(entry, match):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps([{**_C5_PENDANT, **entry}]))
        with pytest.raises(CatalogError, match=match):
            load_catalog(str(bad))

    refused({"name": "C12"}, "collides with the cycle families")
    refused({"name": "P1(8)"}, "collides with a built-in entry")
    refused({"provenance": ""}, "needs a provenance string")
    # the paper's corollaries put these in N': K5 - e is chordal, C4 plus a
    # pendant vertex is chordal bipartite, and so is C4, the one non-chordal
    # graph on at most 4 vertices
    refused({"name": "k5e(5)", "vertices": ["p", "q", "r", "s", "t"],
             "complement_edges": [["p", "q"]]}, "is chordal,")
    refused({"name": "c4p(5)", "vertices": ["a", "b", "c", "d", "e"],
             "complement_edges": [["a", "c"], ["b", "d"], ["a", "e"], ["b", "e"], ["c", "e"]]},
            "is chordal bipartite")
    refused({"name": "c4", "vertices": ["a", "b", "c", "d"],
             "complement_edges": [["a", "c"], ["b", "d"]]}, "is chordal bipartite")
    # the house, the complement of P5, is neither, with a C4 and a triangle,
    # but the prover derives it, so it lies in N' as well
    refused({"name": "house(5)", "vertices": ["p", "q", "r", "s", "t"],
             "complement_edges": [["p", "q"], ["q", "r"], ["r", "s"], ["s", "t"]]},
            "is derived by the prover")
    two = tmp_path / "two.json"
    two.write_text(json.dumps([_C5_PENDANT, _C5_PENDANT]))
    with pytest.raises(CatalogError, match="duplicate"):
        load_catalog(str(two))
    # the peel finds a path chordal with no cycle search
    with pytest.raises(CatalogError, match="is chordal,"):
        ForbiddenEntry("p2000", standard_graph("path", 2000), "test data")
    # C2000 is bipartite and has no bisimplicial edge: the greedy pass stalls
    # at once, with no cycle search, and the entry is admitted
    ForbiddenEntry("c2000", standard_graph("cycle", 2000), "test data")
    # K24,24 with one edge inside a side is not bipartite: the search removes
    # one bisimplicial edge per node, on its explicit stack, and derives it
    k2424e = add_edge(complete_bipartite(24), ("a1", "a2"))
    with pytest.raises(CatalogError, match="is derived by the prover"):
        ForbiddenEntry("k2424e", k2424e, "test data")
    # the same entry under a budget of 5 nodes runs out: a refusal, since an
    # entry the search cannot decide may lie in F
    import raagscope.prover as prover
    monkeypatch.setattr(prover, "DEFAULT_BUDGET", 5)
    with pytest.raises(CatalogError, match="too large to check"):
        ForbiddenEntry("k2424e", k2424e, "test data")


def test_a_ladder_entry_is_refused_as_chordal_bipartite_within_seconds():
    # the 256-vertex ladder has no simplicial vertex, and a cycle search
    # walks its exponentially many induced paths; the greedy pass derives it
    t0 = time.perf_counter()
    with pytest.raises(CatalogError, match="is chordal bipartite"):
        ForbiddenEntry("ladder(256)", ladder(128), "test data")
    assert time.perf_counter() - t0 < 10.0


def test_an_entry_is_admitted_exactly_when_the_prover_does_not_derive_it():
    # on the atlas graphs of 5 to 7 vertices; the three refusals name the
    # cheapest reason
    admitted = 0
    for g in (g for n in range(5, 8) for g in nonisomorphic_graphs(n)):
        derived = prove_in_f(g) is not None
        try:
            ForbiddenEntry("e", g, "test data")
        except CatalogError as exc:
            assert derived and " is " in str(exc), emit_graph6(g)
        else:
            assert not derived, emit_graph6(g)
            admitted += 1
    # the atlas's 169 graphs with a surface subgroup and its 32 unknowns
    assert admitted == 169 + 32


def test_fixed_entries_contain_required_witness_structure():
    # every catalog pattern embeds chordality violations, so chordal hosts
    # can never contain one
    for name in ("P1(8)", "Q1(9)", "Q2(10)"):
        g = entry_graph(name)
        assert find_induced_cycle(g, 4) is not None


def test_verifier_accepts_everything_the_searchers_emit():
    rng = random.Random(43)
    hits = 0
    for _ in range(1000):
        g = random_graph(rng.randint(4, 9), 0.3 + 0.4 * rng.random(), rng)
        o = find_forbidden_induced(g)
        if o is not None:
            hits += 1
            assert verify_obstruction(g, o)
            assert verify_vertex_map(entry_graph(o.entry), g, o.embedding_map())
    assert hits > 100
