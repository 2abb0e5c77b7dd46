import random

import pytest

from conftest import brute_induced
from raagscope.graphs import (
    Graph,
    GraphError,
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
from raagscope.generate import nonisomorphic_graphs, random_graph
from raagscope.ops import complement


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


def test_nonisomorphic_counts():
    assert [len(nonisomorphic_graphs(n)) for n in range(1, 7)] == [1, 2, 4, 11, 34, 156]
