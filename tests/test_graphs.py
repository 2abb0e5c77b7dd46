import random
import time

import pytest

from conftest import (brute_induced, desk_graph6, entry_graph, random_gnm, random_graph,
                      reference_bits, reference_find_induced, reference_parse_graph6,
                      reference_relabel, reference_verify_vertex_map)
from raagscope.graphs import (
    Graph,
    GraphError,
    IsoTable,
    _bits,
    _from_rows,
    _relabel,
    canonical_form,
    canonical_key,
    emit_dot,
    emit_edgelist,
    emit_graph6,
    find_induced,
    is_isomorphic,
    new_graph,
    parse_edgelist,
    parse_graph6,
    standard_graph,
    verify_vertex_map,
)
from raagscope.generate import nonisomorphic_graphs
from raagscope.ops import co_contract_edge, complement
from raagscope.prover import UNKNOWN, classify


def test_new_graph_basic():
    g = new_graph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("b", "c")])
    assert g.n == 3 and g.m == 2
    assert g.has_edge("a", "b") and g.has_edge("c", "b")
    assert not g.has_edge("a", "c")
    assert not g.has_edge("a", "zz") and not g.has_edge("zz", "a") and not g.has_edge("a", "a")
    assert g.adj("b") == frozenset({"a", "c"})
    with pytest.raises(GraphError):
        g.adj("zz")
    h = new_graph(["c", "b", "a"], [("b", "a"), ("c", "b")])
    assert g == h and hash(g) == hash(h)
    assert g != new_graph(["a", "b", "c"], [("a", "b")])
    assert g != new_graph(["a", "b", "d"], [("a", "b"), ("b", "d")])
    assert len({g, h, new_graph(["a", "b", "c"], [])}) == 2


def test_new_graph_single_vertex():
    g = new_graph(["a"], [])
    assert g.n == 1 and g.m == 0


def test_new_graph_errors():
    with pytest.raises(GraphError):
        new_graph(["a", "b"], [("a", "a")])  # loop
    with pytest.raises(GraphError):
        new_graph(["a"], [("a", "b")])  # dangling endpoint
    with pytest.raises(GraphError):
        new_graph(["a", "a"], [])  # duplicate name
    with pytest.raises(GraphError):
        new_graph(["$x"], [])  # reserved prefix
    with pytest.raises(GraphError):
        new_graph(["a b"], [])  # whitespace
    with pytest.raises(GraphError):
        new_graph([""], [])
    # an edge that is not two hashable names
    for edge in (("a",), ("a", "b", "c"), ("a", ["b"]), None):
        with pytest.raises(GraphError, match="pair of vertex names"):
            new_graph(["a", "b"], [edge])


def test_standard_graphs():
    assert standard_graph("complete", 3).m == 3
    assert standard_graph("cycle", 5).m == 5
    assert standard_graph("path", 4).m == 3
    assert standard_graph("discrete", 6).m == 0
    assert standard_graph("complete", 6).m == 15
    with pytest.raises(GraphError):
        standard_graph("cycle", 2)
    with pytest.raises(GraphError):
        standard_graph("complete", 0)


def test_isomorphic_identity_on_small_graphs():
    for n in range(1, 5):
        for g in nonisomorphic_graphs(n):
            m = is_isomorphic(g, g)
            assert m == {v: v for v in g.vertices}
            assert verify_vertex_map(g, g, m)


def test_pentagon_self_complementary():
    c5 = standard_graph("cycle", 5)
    assert is_isomorphic(c5, complement(c5)) is not None


def test_p4_self_complementary_matches_brute_force():
    p4 = standard_graph("path", 4)
    got = is_isomorphic(p4, complement(p4))
    expected = brute_induced(p4, complement(p4))
    assert got is not None and expected is not None
    assert verify_vertex_map(p4, complement(p4), got)


def test_not_isomorphic_different_edge_count():
    assert is_isomorphic(standard_graph("complete", 3), standard_graph("path", 3)) is None


def test_subgraph_and_from_rows_match_graphs_built_from_names_and_edges():
    # the references come from the validating constructor, names and an edge
    # list; names v1..v14 sort as v1, v10, .., v14, v2, .., so positions and
    # creation order differ
    rng = random.Random(21)
    for _ in range(300):
        g = random_graph(rng.randint(10, 14), rng.random(), rng)
        mask = rng.getrandbits(g.n)
        subset = {v for i, v in enumerate(g.vertices) if mask >> i & 1}
        assert g.subgraph(mask) == Graph(subset, [e for e in g.edge_pairs if set(e) <= subset])
        names = list(g.vertices)
        rng.shuffle(names)
        where = {v: i for i, v in enumerate(names)}
        rows = [0] * g.n
        for u, v in g.edge_pairs:
            rows[where[u]] |= 1 << where[v]
            rows[where[v]] |= 1 << where[u]
        assert _from_rows(tuple(names), tuple(rows)) == g


def test_find_induced_examples():
    c5 = standard_graph("cycle", 5)
    c6 = standard_graph("cycle", 6)
    assert find_induced(standard_graph("path", 4), c5) is not None
    assert find_induced(c5, c6) is None  # every 5-subset of C6 induces P5
    assert find_induced(standard_graph("complete", 3), standard_graph("cycle", 4)) is None


def test_find_induced_agrees_with_brute_force_exhaustive():
    patterns = [g for n in range(1, 5) for g in nonisomorphic_graphs(n)]
    hosts = [g for n in range(1, 6) for g in nonisomorphic_graphs(n)]
    for pat in patterns:
        for host in hosts:
            fast = find_induced(pat, host)
            slow = brute_induced(pat, host)
            assert (fast is None) == (slow is None)
            if fast is not None:
                assert verify_vertex_map(pat, host, fast)


def test_find_induced_agrees_with_brute_force_random():
    rng = random.Random(7)
    pool = [random_graph(rng.randint(2, 6), rng.random(), rng) for _ in range(40)]
    for _ in range(120):
        pat = pool[rng.randrange(len(pool))]
        host = pool[rng.randrange(len(pool))]
        fast = find_induced(pat, host)
        slow = brute_induced(pat, host)
        assert (fast is None) == (slow is None)
        if fast is not None:
            assert verify_vertex_map(pat, host, fast)


def _states_at(g, n):
    """Every graph on n vertices reached from g by complement-edge
    contractions, each contraction taken once per state and pair."""
    states = [g]
    while states[0].n > n:
        states = [co_contract_edge(h, (h.vertices[i], h.vertices[j]))
                  for h in states for i in range(h.n) for j in range(i + 1, h.n)
                  if not h.rows[i] >> j & 1]
    return states


def test_find_induced_returns_the_plain_searchs_first_embedding():
    # the candidate masks cut only branches with no completion, so the first
    # embedding, or None, is the plain depth-first search's: on the small
    # atlas, seeded pairs, P1(8) in seeded hosts, and P1(8) in every 8-vertex
    # co-contraction state below a desk unknown, where pattern and host have
    # equal size
    pairs = [(pat, host) for pat in (g for n in range(1, 5) for g in nonisomorphic_graphs(n))
             for host in (g for n in range(1, 7) for g in nonisomorphic_graphs(n))]
    rng = random.Random(32)
    for _ in range(400):
        n = rng.randint(2, 13)
        k = rng.randint(1, min(n, 8))
        pairs.append((random_gnm(k, rng.randint(0, k * (k - 1) // 2), rng),
                      random_gnm(n, rng.randint(0, n * (n - 1) // 2), rng)))
    # P1(8) in seeded G(n, m) and in P1(8) with up to five vertices added,
    # renamed at random so that its copy sits anywhere in the host's order
    p18 = entry_graph("P1(8)")
    for _ in range(150):
        n = rng.randint(8, 13)
        pairs.append((p18, random_gnm(n, rng.randint(n * (n - 1) // 4, n * (n - 1) // 2), rng)))
        names = list(p18.vertices) + ["x%d" % i for i in range(n - 8)]
        edges = list(p18.edge_pairs) + [(x, v) for i, x in enumerate(names[8:])
                                        for v in names[:8 + i] if rng.random() < 0.5]
        rename = dict(zip(names, rng.sample(["v%d" % i for i in range(n)], n)))
        pairs.append((p18, Graph(rename.values(), [(rename[u], rename[v]) for u, v in edges])))
    unknown = next(g for g in map(parse_graph6, desk_graph6(1))
                   if g.n == 10 and classify(g).status == UNKNOWN)
    states = _states_at(unknown, 8)
    pairs += [(p18, h) for h in states]
    found = 0
    for pat, host in pairs:
        got = find_induced(pat, host)
        assert got == reference_find_induced(pat, host), (pat.edge_pairs, host.edge_pairs)
        found += got is not None
    assert len(states) > 50 and 1000 < found < len(pairs) - 1000


def _mutated_maps(mapping, rng):
    """mapping, then each mutation: a repeated image, an unknown image, a
    key dropped, a key renamed, a key added, and two images swapped."""
    keys = sorted(mapping)
    a, b = rng.sample(keys, 2)
    out = [dict(mapping)]
    m = dict(mapping)
    m[a] = m[b]
    out.append(m)
    m = dict(mapping)
    m[a] = "nowhere"
    out.append(m)
    m = dict(mapping)
    del m[a]
    out.append(m)
    m = dict(mapping)
    m["nowhere"] = m.pop(a)
    out.append(m)
    out.append({**mapping, "nowhere": mapping[a]})
    m = dict(mapping)
    m[a], m[b] = m[b], m[a]
    out.append(m)
    return out


def test_verify_vertex_map_matches_the_pairwise_reference():
    # embeddings find_induced finds, or random injective maps where it finds
    # none, each checked as found and under every mutation
    rng = random.Random(30)
    answers = [0, 0]
    for _ in range(300):
        host = random_graph(rng.randint(4, 13), rng.random(), rng)
        pattern = random_graph(rng.randint(2, min(host.n, 7)), rng.random(), rng)
        found = find_induced(pattern, host)
        if found is None:
            found = dict(zip(pattern.vertices, rng.sample(host.vertices, pattern.n)))
        for mapping in _mutated_maps(found, rng):
            expected = reference_verify_vertex_map(pattern, host, mapping)
            assert verify_vertex_map(pattern, host, mapping) == expected, (pattern, host, mapping)
            answers[expected] += 1
    assert min(answers) > 100


def test_graph6_frozen_values():
    assert emit_graph6(standard_graph("complete", 1)) == b"@"
    assert emit_graph6(standard_graph("complete", 2)) == b"A_"
    assert emit_graph6(standard_graph("discrete", 2)) == b"A?"


def test_graph6_against_independent_encoder():
    # independent bit packer written from the format definition
    def encode(g):
        idx = {v: i for i, v in enumerate(g.vertices)}
        n = g.n
        bits = [0] * (n * (n - 1) // 2)
        pos = {}
        t = 0
        for j in range(1, n):
            for i in range(j):
                pos[(i, j)] = t
                t += 1
        for u, v in g.edge_pairs:
            i, j = sorted((idx[u], idx[v]))
            bits[pos[(i, j)]] = 1
        out = [n + 63]
        for k in range(0, len(bits), 6):
            chunk = bits[k:k + 6] + [0] * 6
            out.append(sum(b << (5 - i) for i, b in enumerate(chunk[:6])) + 63)
        return bytes(out)

    rng = random.Random(11)
    for _ in range(200):
        g = random_graph(rng.randint(1, 9), rng.random(), rng)
        assert emit_graph6(g) == encode(g)


def test_graph6_round_trip_random():
    rng = random.Random(5)
    for _ in range(1000):
        g = random_graph(rng.randint(1, 8), rng.random(), rng)
        back = parse_graph6(emit_graph6(g))
        assert is_isomorphic(g, back) is not None


def test_graph6_header_and_errors():
    c5 = standard_graph("cycle", 5)
    assert is_isomorphic(parse_graph6(b">>graph6<<" + emit_graph6(c5)), c5) is not None
    with pytest.raises(GraphError):
        parse_graph6(b"")
    with pytest.raises(GraphError):
        parse_graph6(b"B")  # truncated body
    with pytest.raises(GraphError):
        parse_graph6(b"A" + bytes([20]))  # byte below 63
    # 63 vertices and more take byte 126 and the order in three 6-bit bytes
    big = standard_graph("cycle", 70)
    data = emit_graph6(big)
    assert data[:4] == bytes([126, 63, 64, 69])
    assert is_isomorphic(parse_graph6(data), big) is not None
    for bad in (b"~", b"~??~", b"~~??????"):  # short, order below 63, eight-byte form
        with pytest.raises(GraphError):
            parse_graph6(bad)


def _parse_outcome(parse, data):
    try:
        g = parse(data)
    except GraphError as exc:
        return "error", str(exc)
    return g.vertices, g.rows


def test_parse_graph6_matches_the_edge_list_reference():
    # rows built straight from the bits, each graph6 vertex at its position
    # among the sorted names, give the graph the validating constructor
    # builds from the edge list: on the atlas, on orders 8 to 62, where the
    # sorted names v1, v10, ..., v2, ... first differ from graph6 order (at
    # 10 vertices), and on orders 63 to 70, which take the four-byte header
    rng = random.Random(26)
    values = [emit_graph6(g) for n in range(1, 8) for g in nonisomorphic_graphs(n)]
    for n in range(8, 71):
        values += [emit_graph6(random_graph(n, p, rng)) for p in (0.0, 0.1, 0.5, 1.0)]
    assert len(values) == 1252 + 4 * 63
    for data in values:
        expected = reference_parse_graph6(data)
        got = parse_graph6(data)
        assert got == expected and got.vertices == expected.vertices, data
        assert list(got.vertices) == sorted(got.vertices) and emit_graph6(got) == data


def test_parse_graph6_refuses_what_the_reference_refuses():
    # every header, body and trailing-bit check, with the same message
    rng = random.Random(27)
    cases = [b"", b"?", b"@", b"A_", b"A`", b"Bw", b"Bx", b"B", b"A" + bytes([20]),
             b"A" + bytes([127]), b"~", b"~??~", b"~~??????", b"~?@~", b">>graph6<<Dhc"]
    for _ in range(400):
        data = bytearray(emit_graph6(random_graph(rng.randint(1, 12), rng.random(), rng)))
        k = rng.randrange(len(data))
        data[k] = rng.choice((rng.randrange(256), data[k] ^ 1, data[k] ^ 32))
        cases.append(bytes(data[:rng.randint(1, len(data))] if rng.random() < 0.2 else data))
    errors = 0
    for data in cases:
        expected = _parse_outcome(reference_parse_graph6, data)
        assert _parse_outcome(parse_graph6, data) == expected, data
        errors += expected[0] == "error"
    assert 100 < errors < len(cases)


def test_bits_matches_the_bit_at_a_time_walk():
    # the byte table below 256, the byte-pair table below 2^16 and the loop
    # above it: every mask below 2^16, the masks on either side of 2^16, and
    # random masks up to 2^70
    for mask in range(1 << 16):
        assert list(_bits(mask)) == reference_bits(mask), mask
    for mask in ((1 << 16) - 1, 1 << 16, (1 << 16) + 1, (1 << 24) - 1):
        assert list(_bits(mask)) == reference_bits(mask), mask
    rng = random.Random(28)
    for _ in range(3000):
        mask = rng.getrandbits(rng.randint(1, 70))
        assert list(_bits(mask)) == reference_bits(mask), mask


def test_relabel_matches_the_position_map():
    rng = random.Random(29)
    for _ in range(2000):
        n = rng.randint(0, 20)
        g = random_graph(n, rng.random(), rng)
        order = rng.sample(range(n), rng.randint(0, n))
        if rng.random() < 0.5:
            order.sort()
        assert _relabel(g.rows, order) == reference_relabel(g.rows, order)


def test_edgelist_round_trip():
    g = new_graph(["x", "y", "z"], [("x", "y")])
    assert parse_edgelist(emit_edgelist(g)) == g
    parsed = parse_edgelist(b"# comment\nvertices: a b\na b\n")
    assert parsed.m == 1
    with pytest.raises(GraphError):
        parse_edgelist(b"a b\n")
    with pytest.raises(GraphError):
        parse_edgelist(b"vertices: a\na b\n")


def test_dot_output():
    g = new_graph(["a", "b"], [("a", "b")])
    text = emit_dot(g).decode()
    assert '"a" -- "b";' in text and text.startswith("graph G {")


def test_canonical_key_separates_iso_classes():
    for n in range(1, 6):
        reps = nonisomorphic_graphs(n)
        keys = {canonical_key(g) for g in reps}
        assert len(keys) == len(reps)


def test_canonical_key_invariant_under_relabeling():
    rng = random.Random(3)
    for _ in range(60):
        g = random_graph(rng.randint(1, 7), rng.random(), rng)
        names = list(g.vertices)
        shuffled = names[:]
        rng.shuffle(shuffled)
        relabel = dict(zip(names, ["w%d" % i for i in range(len(names))]))
        h = Graph([relabel[v] for v in names],
                  [(relabel[u], relabel[v]) for u, v in g.edge_pairs])
        assert canonical_key(g) == canonical_key(h)


def _relabelled(g, rng):
    names = rng.sample(range(100), g.n)
    rename = {v: "x%d" % k for v, k in zip(g.vertices, names)}
    return Graph(rename.values(), [(rename[u], rename[v]) for u, v in g.edge_pairs])


def test_iso_table_hits_exactly_on_equal_canonical_keys():
    # every class on at most 6 vertices, three relabelled copies of each, in
    # seeded orders. add must report a graph as new exactly when no graph
    # with the same canonical key was added before
    classes = [g for n in range(7) for g in nonisomorphic_graphs(n)]
    for seed in range(3):
        rng = random.Random(seed)
        pool = [_relabelled(g, rng) for g in classes for _ in range(3)]
        rng.shuffle(pool)
        table = IsoTable()
        added = set()
        for g in pool:
            key = canonical_key(g)
            assert table.add(g) == (key not in added)
            added.add(key)
        assert len(added) == len(classes)
        # every class was added, so a fresh copy of each is seen
        assert not any(table.add(_relabelled(g, rng)) for g in classes)


def test_iso_table_labels_only_graphs_that_share_a_bucket(monkeypatch):
    import raagscope.graphs as graphs

    labelled = []
    label = graphs.canonical_form

    def recording(g):
        labelled.append(g)
        return label(g)

    monkeypatch.setattr(graphs, "canonical_form", recording)
    table = IsoTable()
    c4, p4 = standard_graph("cycle", 4), standard_graph("path", 4)
    k13 = Graph(["a", "b", "c", "d"], [("a", "b"), ("a", "c"), ("a", "d")])
    assert all(table.add(g) for g in (c4, p4, k13))
    assert labelled == []
    # a second 4-cycle labels itself and the stored one, once
    assert not table.add(_relabelled(c4, random.Random(1)))
    assert len(labelled) == 2
    assert not table.add(c4)
    assert len(labelled) == 3
    # P4 and the claw K1,3 have 3 edges and unequal degree sequences
    assert len(table.buckets) == 3


def test_nonisomorphic_counts():
    assert [len(nonisomorphic_graphs(n)) for n in range(1, 8)] == [1, 2, 4, 11, 34, 156, 1044]


def _from_networkx(nx_graph, names):
    return Graph([names[v] for v in nx_graph], [(names[u], names[v]) for u, v in nx_graph.edges])


def test_canonical_key_separates_the_graph_atlas():
    nx = pytest.importorskip("networkx")
    atlas = nx.graph_atlas_g()
    assert len(atlas) == 1253
    keys = {canonical_key(_from_networkx(G, {v: "a%d" % v for v in G})) for G in atlas}
    assert len(keys) == len(atlas)


def test_canonical_key_agrees_with_networkx_isomorphism():
    # pairs on 8-16 vertices under random names: a relabelled copy, a copy
    # with one degree-preserving edge swap, or an independent draw with as many
    # edges; equal keys exactly when networkx finds the graphs isomorphic
    nx = pytest.importorskip("networkx")
    rng = random.Random(2014)
    isomorphic = 0
    for trial in range(200):
        n = rng.randint(8, 16)
        G = nx.gnp_random_graph(n, rng.uniform(0.15, 0.85), seed=rng.randrange(10**9))
        kind = ("copy", "swap", "draw")[trial % 3]
        if kind == "copy":
            H = G.copy()
        elif kind == "swap":
            H = G.copy()
            if H.number_of_edges() >= 2:
                nx.double_edge_swap(H, nswap=1, max_tries=1000, seed=rng.randrange(10**9))
        else:
            H = nx.gnm_random_graph(n, G.number_of_edges(), seed=rng.randrange(10**9))
        perm = list(H)
        rng.shuffle(perm)
        g = _from_networkx(G, {v: "g%d" % v for v in G})
        h = _from_networkx(H, {v: "h%d" % perm[v] for v in H})
        (key_g, order_g), (key_h, order_h) = canonical_form(g), canonical_form(h)
        iso = nx.is_isomorphic(G, H)
        assert (key_g == key_h) == iso
        found = is_isomorphic(g, h)
        assert (found is not None) == iso
        if iso:
            isomorphic += 1
            assert verify_vertex_map(g, h, dict(zip(order_g, order_h)))
            assert verify_vertex_map(g, h, found)
    # every copy is isomorphic; most swaps and draws are not
    assert 67 <= isomorphic < 100


def test_canonical_form_is_fast_on_symmetric_graphs():
    # graphs with large automorphism groups, where a search without orbit
    # pruning branches on every symmetric choice
    nx = pytest.importorskip("networkx")
    cases = {
        "8K2": nx.disjoint_union_all([nx.complete_graph(2)] * 8),
        "4C4": nx.disjoint_union_all([nx.cycle_graph(4)] * 4),
        "3C5": nx.disjoint_union_all([nx.cycle_graph(5)] * 3),
        "Q4": nx.hypercube_graph(4),
        "K4xK4": nx.cartesian_product(nx.complete_graph(4), nx.complete_graph(4)),
        "C16": nx.cycle_graph(16),
        "coC16": nx.complement(nx.cycle_graph(16)),
        "K16": nx.complete_graph(16),
        "E16": nx.empty_graph(16),
        # no twins here, so only orbit pruning keeps these fast
        "4Petersen": nx.disjoint_union_all([nx.petersen_graph()] * 4),
        "6C5": nx.disjoint_union_all([nx.cycle_graph(5)] * 6),
    }
    for name, G in cases.items():
        g = _from_networkx(G, {v: "x%d" % k for k, v in enumerate(G)})
        t0 = time.process_time()
        key, order = canonical_form(g)
        assert time.process_time() - t0 < 0.1, name
        assert key[0] == g.n and sorted(order) == list(g.vertices)
