import random
from itertools import combinations

import pytest
from conftest import (add_edge, connected_components, disjoint_union, induced, is_clique,
                      is_connected, is_simplicial_vertex, random_bipartite, random_chordal,
                      random_gnm, random_graph, reference_clique_splits, reference_is_clique_mask,
                      reference_mcs_m_separators, reference_validate_clique_split, remove_edge)

from raagscope.graphs import Graph, GraphError, is_isomorphic, new_graph, standard_graph
from raagscope.generate import nonisomorphic_graphs
from raagscope.ops import (
    CliqueSplit,
    _bisimplicial_edges,
    _clique_minimal_separators,
    _is_bipartite,
    _is_clique_mask,
    co_contract,
    co_contract_edge,
    complement,
    is_bisimplicial_edge,
    is_complete,
    iter_clique_splits,
    join,
    maximal_cliques,
    simplicial_extension,
)
from raagscope.prover import RULE_AMALGAM, RULE_COMPLETE, Derivation, _check_rule

P3 = new_graph(["a", "b", "c"], [("a", "b"), ("b", "c")])


def test_complement_examples():
    assert complement(P3).edge_pairs == (("a", "c"),)
    assert complement(standard_graph("complete", 5)).m == 0


def test_complement_involution():
    rng = random.Random(1)
    for _ in range(50):
        g = random_graph(rng.randint(1, 8), rng.random(), rng)
        assert complement(complement(g)) == g


def test_induced():
    c5 = standard_graph("cycle", 5)
    sub = induced(c5, ["v1", "v2", "v3", "v4"])
    assert is_isomorphic(sub, standard_graph("path", 4)) is not None
    assert induced(c5, c5.vertices) == c5
    assert is_complete(induced(standard_graph("complete", 5), ["v1", "v2", "v5"]))
    with pytest.raises(GraphError):
        induced(c5, ["nope"])


def test_join_and_union():
    k2 = join(new_graph(["a"], []), new_graph(["b"], []))
    assert k2.m == 1
    k23 = join(new_graph(["a1", "a2"], []), new_graph(["b1", "b2", "b3"], []))
    assert k23.m == 6 and k23.n == 5
    with pytest.raises(GraphError):
        join(new_graph(["a"], []), new_graph(["a"], []))
    with pytest.raises(GraphError):
        disjoint_union(new_graph(["a"], []), new_graph(["a"], []))


def test_join_union_complement_duality():
    rng = random.Random(2)
    for _ in range(30):
        g = random_graph(rng.randint(1, 5), rng.random(), rng)
        h = random_graph(rng.randint(1, 5), rng.random(), rng)
        h = Graph(["u_" + v for v in h.vertices],
                  [("u_" + a, "u_" + b) for a, b in h.edge_pairs])
        assert complement(join(g, h)) == disjoint_union(complement(g), complement(h))


def test_simplicial():
    assert is_simplicial_vertex(P3, "a")
    assert not is_simplicial_vertex(P3, "b")
    k5 = standard_graph("complete", 5)
    assert all(is_simplicial_vertex(k5, v) for v in k5.vertices)


def test_bisimplicial_exhaustive_pair_check():
    c4 = standard_graph("cycle", 4)
    c5 = standard_graph("cycle", 5)
    k3 = standard_graph("complete", 3)

    def slow(g, e):
        a, b = e
        return all(u == w or g.has_edge(u, w) for u in g.adj(a) for w in g.adj(b))

    for e in c4.edge_pairs:
        assert is_bisimplicial_edge(c4, e) and slow(c4, e)
    for e in c5.edge_pairs:
        assert not is_bisimplicial_edge(c5, e) and not slow(c5, e)
    for e in k3.edge_pairs:
        assert is_bisimplicial_edge(k3, e)
    with pytest.raises(GraphError):
        is_bisimplicial_edge(c4, ("v1", "v3"))


def test_positional_bisimplicial_order_is_the_edge_pairs_order():
    # the prover's scan on positions finds the bisimplicial edges that a
    # test by names over edge_pairs finds, in the same order
    def slow(g, e):
        a, b = e
        return all(u == w or g.has_edge(u, w) for u in g.adj(a) for w in g.adj(b))

    rng = random.Random(30)
    graphs = [g for n in range(1, 8) for g in nonisomorphic_graphs(n)]
    graphs += [random_graph(rng.randint(8, 16), rng.random(), rng) for _ in range(200)]
    found = 0
    for g in graphs:
        vs = g.vertices
        positional = [(vs[a], vs[b]) for a, b in _bisimplicial_edges(g.rows)]
        assert positional == [e for e in g.edge_pairs if slow(g, e)]
        assert positional == [e for e in g.edge_pairs if is_bisimplicial_edge(g, e)]
        found += len(positional)
    assert found > 3000


def test_maximal_cliques():
    assert maximal_cliques(P3) == [frozenset({"a", "b"}), frozenset({"b", "c"})]
    k4 = standard_graph("complete", 4)
    assert maximal_cliques(k4) == [frozenset(k4.vertices)]
    c5 = standard_graph("cycle", 5)
    cliques = maximal_cliques(c5)
    assert len(cliques) == 5 and all(len(c) == 2 for c in cliques)


def test_maximal_cliques_brute_force():
    rng = random.Random(9)
    for _ in range(40):
        g = random_graph(rng.randint(1, 7), rng.random(), rng)
        got = set(maximal_cliques(g))
        all_cliques = [frozenset(c) for k in range(1, g.n + 1)
                       for c in combinations(g.vertices, k) if is_clique(g, c)]
        expected = {c for c in all_cliques
                    if not any(c < d for d in all_cliques)}
        assert got == expected


def _amalgam_checks(g, split) -> bool:
    """The checker's verdict on the AmalgamRule node of split, whose children
    are leaves concluding its parts: _check_rule checks the node alone."""
    leaves = (Derivation(RULE_COMPLETE, split.left), Derivation(RULE_COMPLETE, split.right))
    return _check_rule(Derivation(RULE_AMALGAM, g, leaves, separator=split.separator))


def test_clique_separators_examples():
    splits = list(iter_clique_splits(P3))
    assert splits[0].separator == frozenset({"b"})
    assert splits[0].left.vertices == ("a", "b") and splits[0].right.vertices == ("b", "c")
    assert list(iter_clique_splits(standard_graph("complete", 4))) == []
    assert list(iter_clique_splits(standard_graph("cycle", 4))) == []  # no clique disconnects C4


def test_clique_separators_validate_and_disconnected():
    two = disjoint_union(standard_graph("complete", 2),
                         Graph(["z1", "z2"], [("z1", "z2")]))
    splits = list(iter_clique_splits(two))
    assert splits and splits[0].separator == frozenset()
    for s in splits:
        assert _amalgam_checks(two, s)
    rng = random.Random(4)
    for _ in range(25):
        g = random_graph(rng.randint(2, 7), rng.random(), rng)
        for s in iter_clique_splits(g):
            assert _amalgam_checks(g, s)


def test_clique_splits_are_the_enumerated_splits_along_minimal_separators():
    # MCS-M must find exactly the separators that a clique enumeration finds
    # and that leave at least two full components, in the same order, and
    # its first split must be the first of all clique splits
    graphs = [g for n in range(1, 8) for g in nonisomorphic_graphs(n)]
    rng = random.Random(21)
    for _ in range(150):
        n = rng.randint(8, 16)
        graphs.append(random_gnm(n, rng.randint(n - 1, n * (n - 1) // 4), rng))
    graphs += [random_chordal(rng.randint(5, 14), rng) for _ in range(40)]
    minimal_seen = nonminimal_seen = 0
    for g in graphs:
        every = reference_clique_splits(g)
        got = list(iter_clique_splits(g))
        assert got == reference_clique_splits(g, minimal_only=True)
        assert got[:1] == every[:1]
        minimal_seen += bool(got)
        nonminimal_seen += len(every) > len(got)
    assert minimal_seen > 500 and nonminimal_seen > 100


def test_mcs_m_label_classes_match_the_per_vertex_labels():
    # label classes kept as masks across the pass give the separators of
    # the pass that regroups per-vertex labels at every step
    rng = random.Random(31)
    graphs = [g for n in range(1, 8) for g in nonisomorphic_graphs(n)]
    graphs += [random_graph(rng.randint(8, 16), rng.random(), rng) for _ in range(300)]
    graphs += [random_chordal(rng.randint(8, 16), rng) for _ in range(100)]
    separated = 0
    for g in graphs:
        seps = _clique_minimal_separators(g.rows, g.n)
        assert seps == reference_mcs_m_separators(g.rows, g.n), g.edge_pairs
        separated += bool(seps)
    assert separated > 800


def test_validate_clique_split_rejects_bad():
    splits = list(iter_clique_splits(P3))
    good = splits[0]
    bad = CliqueSplit(good.left, good.right, frozenset({"a", "c"}))  # not a clique
    assert not _amalgam_checks(P3, bad)
    bad2 = CliqueSplit(good.left, good.left, good.separator)
    assert not _amalgam_checks(P3, bad2)


def _split_mutations(g, split, rng):
    """(kind, host, split) triples that each break one CliqueSplit invariant
    of a valid split of g, where g allows it."""
    left, right, sep = split.left, split.right, split.separator
    only_left = sorted(set(left.vertices) - sep)
    only_right = sorted(set(right.vertices) - sep)
    out = []
    drop = rng.choice(left.vertices)
    out.append(("dropped vertex", g,
                CliqueSplit(induced(left, set(left.vertices) - {drop}), right, sep)))
    if sep:
        out.append(("separator not the intersection", g,
                    CliqueSplit(left, right, sep - {rng.choice(sorted(sep))})))
    out.append(("separator not the intersection", g,
                CliqueSplit(left, right, sep | {rng.choice(only_left)})))
    # a non-clique separator that is the intersection of two induced parts
    free = [(u, v) for u, v in combinations(g.vertices, 2) if not g.has_edge(u, v)]
    if free:
        s = set(rng.choice(free))
        rest = [v for v in g.vertices if v not in s]
        cut = rng.randint(1, len(rest) - 1) if len(rest) > 1 else 0
        a, b = s | set(rest[:cut]), s | set(rest[cut:])
        out.append(("non-clique separator", g,
                    CliqueSplit(induced(g, a), induced(g, b), frozenset(s))))
    u, v = rng.choice(only_left), rng.choice(only_right)
    if not g.has_edge(u, v):
        out.append(("cross edge", add_edge(g, (u, v)), split))
    if left.n >= 2:
        e = tuple(rng.sample(left.vertices, 2))
        toggled = remove_edge(left, e) if left.has_edge(*e) else add_edge(left, e)
        out.append(("part rows differ", g, CliqueSplit(toggled, right, sep)))
    stranger = Graph(left.vertices + ("zz",), left.edge_pairs)
    out.append(("unknown vertex", g, CliqueSplit(stranger, right, sep)))
    out.append(("unknown vertex", g, CliqueSplit(left, right, sep | {"zz"})))
    out.append(("part equal to g", g,
                CliqueSplit(g, right, frozenset(right.vertices))))
    return out


def test_validate_clique_split_agrees_with_the_set_based_reference():
    rng = random.Random(33)
    graphs = [g for n in range(1, 8) for g in nonisomorphic_graphs(n)]
    for _ in range(100):
        n = rng.randint(8, 14)
        graphs.append(random_gnm(n, rng.randint(n - 1, n * (n - 1) // 3), rng))
    valid = 0
    refused: dict[str, int] = {}
    for g in graphs:
        for split in iter_clique_splits(g):
            assert _amalgam_checks(g, split)
            assert reference_validate_clique_split(g, split)
            valid += 1
            for kind, host, bad in _split_mutations(g, split, rng):
                assert not reference_validate_clique_split(host, bad), kind
                assert not _amalgam_checks(host, bad), (kind, g.edge_pairs)
                refused[kind] = refused.get(kind, 0) + 1
    assert valid > 1000
    assert len(refused) == 7 and min(refused.values()) > 200, refused


def test_simplicial_extension_path():
    ext, naming = simplicial_extension(P3)
    assert ext.n == 7
    assert naming.cliques == (frozenset({"a", "b"}), frozenset({"b", "c"}))
    # each fresh vertex joined to exactly its clique
    for (k, u), fresh in naming.names.items():
        assert ext.adj(fresh) == naming.cliques[k]
    assert induced(ext, P3.vertices) == P3


def test_simplicial_extension_triangle_and_k1():
    k3 = standard_graph("complete", 3)
    ext, naming = simplicial_extension(k3)
    assert ext.n == 6
    fresh = sorted(naming.names.values())
    assert all(ext.adj(f) == frozenset(k3.vertices) for f in fresh)
    k1ext, _ = simplicial_extension(standard_graph("complete", 1))
    assert is_isomorphic(k1ext, standard_graph("complete", 2)) is not None


def test_simplicial_extension_fresh_vertices_independent_simplicial():
    rng = random.Random(6)
    for _ in range(25):
        g = random_graph(rng.randint(1, 6), rng.random(), rng)
        ext, naming = simplicial_extension(g)
        fresh = list(naming.names.values())
        for f in fresh:
            assert is_simplicial_vertex(ext, f)
        for f1, f2 in combinations(fresh, 2):
            assert not ext.has_edge(f1, f2)
        assert induced(ext, g.vertices) == g


def test_co_contract_examples():
    d2 = new_graph(["a", "b"], [])
    got = co_contract(d2, {"a", "b"})
    assert got.n == 1 and got.m == 0
    c5 = standard_graph("cycle", 5)
    got = co_contract(c5, {"v1", "v3"})
    assert is_isomorphic(got, disjoint_union(standard_graph("complete", 2),
                                             Graph(["w1", "w2"], [("w1", "w2")]))) is not None
    # singleton set is the identity
    assert co_contract(c5, {"v1"}) == c5


def test_co_contract_errors():
    k2 = standard_graph("complete", 2)
    with pytest.raises(GraphError):
        co_contract(k2, {"v1", "v2"})  # complement of K2 is disconnected
    with pytest.raises(GraphError):
        co_contract(k2, set())
    with pytest.raises(GraphError):
        co_contract(k2, {"v1", "zz"})
    with pytest.raises(GraphError):
        co_contract_edge(k2, ("v1", "v2"))  # an edge of the graph itself


def test_co_contract_edge_link_is_link_intersection():
    rng = random.Random(8)
    done = 0
    while done < 100:
        g = random_graph(rng.randint(2, 8), rng.random(), rng)
        nonedges = [(u, v) for u, v in combinations(g.vertices, 2) if not g.has_edge(u, v)]
        if not nonedges:
            continue
        a, b = nonedges[rng.randrange(len(nonedges))]
        got = co_contract_edge(g, (a, b))
        fresh = "$co(%s,%s)" % tuple(sorted((a, b)))
        expected_link = (g.adj(a) & g.adj(b)) - {a, b}
        assert got.adj(fresh) == expected_link
        assert got == co_contract(g, {a, b})
        done += 1


def test_co_contract_edge_matches_a_graph_built_from_names_and_edges():
    # the reference keeps every edge between the other vertices and joins the
    # merged vertex to the common neighbours, as names and an edge list; names
    # starting with "!" or "#" sort before the merged "$co(...)" name and the
    # others after it, so it lands anywhere in the order
    rng = random.Random(19)
    done = 0
    while done < 200:
        n = rng.randint(10, 14)
        names = ["%s%d" % (rng.choice("!#%a"), i) for i in range(n)]
        g = Graph(names, [(names[i], names[j]) for i, j in combinations(range(n), 2)
                          if rng.random() < 0.5])
        nonedges = [(u, v) for u, v in combinations(g.vertices, 2) if not g.has_edge(u, v)]
        if not nonedges:
            continue
        a, b = nonedges[rng.randrange(len(nonedges))]
        fresh = "$co(%s,%s)" % (a, b)
        rest = [v for v in g.vertices if v not in (a, b)]
        edges = [e for e in g.edge_pairs if a not in e and b not in e]
        edges += [(fresh, w) for w in rest if g.has_edge(a, w) and g.has_edge(b, w)]
        assert co_contract_edge(g, (a, b)) == Graph(rest + [fresh], edges)
        done += 1


def test_co_contract_set_agrees_with_iterated_edge_contraction():
    # contract along a spanning tree of the complement of the induced subgraph,
    # one complement edge at a time; must agree with the set operation
    rng = random.Random(12)
    done = 0
    while done < 40:
        g = random_graph(rng.randint(3, 7), rng.random(), rng)
        size = rng.randint(2, min(4, g.n))
        members = tuple(sorted(rng.sample(list(g.vertices), size)))
        if not is_connected(complement(induced(g, members))):
            continue
        expected = co_contract(g, members)
        current = g
        blob = {members[0]}
        remaining = set(members[1:])
        blob_name = members[0]
        while remaining:
            pick = None
            for v in sorted(remaining):
                if not current.has_edge(blob_name, v):
                    pick = v
                    break
            if pick is None:  # no complement edge from blob yet; merge two others
                outside = sorted(remaining)
                pick2 = None
                for u, v in combinations(outside, 2):
                    if not current.has_edge(u, v):
                        pick2 = (u, v)
                        break
                assert pick2 is not None
                current = co_contract_edge(current, pick2)
                remaining -= set(pick2)
                remaining.add("$co(%s,%s)" % tuple(sorted(pick2)))
                continue
            current = co_contract_edge(current, (blob_name, pick))
            blob_name = "$co(%s,%s)" % tuple(sorted((blob_name, pick)))
            remaining.discard(pick)
        assert is_isomorphic(current, expected) is not None
        done += 1


def test_amalgam_extension_property():
    # a clique split of g lifts to a clique split of the simplicial extension
    # with the same separator, each side sandwiched between the original part
    # and its own extension, the new vertices independent and simplicial
    rng = random.Random(13)
    done = 0
    while done < 30:
        g = random_graph(rng.randint(3, 7), rng.random(), rng)
        splits = list(iter_clique_splits(g))
        if not splits:
            continue
        split = splits[rng.randrange(len(splits))]
        done += 1
        sep = frozenset(split.separator)
        sep_maximal_left = sep in set(maximal_cliques(split.left))
        sep_maximal_right = sep in set(maximal_cliques(split.right))

        def extended_part(part, drop_sep_vertices):
            pext, pnaming = simplicial_extension(part)
            prefix = "L" if part is split.left else "R"
            rename = {v: v for v in part.vertices}
            for (k, u), fresh in pnaming.names.items():
                rename[fresh] = "$%s%s" % (prefix, fresh)
            keep = [v for v in pext.vertices
                    if not (drop_sep_vertices
                            and any(fresh == v and pnaming.cliques[k] == sep
                                    for (k, u), fresh in pnaming.names.items()))]
            sub = induced(pext, keep)
            return Graph([rename[v] for v in sub.vertices],
                         [(rename[u], rename[v]) for u, v in sub.edge_pairs])

        if sep and sep_maximal_left:
            left_ext = extended_part(split.left, True)
            right_ext = extended_part(split.right, False)
        elif sep and sep_maximal_right:
            left_ext = extended_part(split.left, False)
            right_ext = extended_part(split.right, True)
        else:
            left_ext = extended_part(split.left, False)
            right_ext = extended_part(split.right, False)

        # sandwich and independence conditions
        for part, part_ext in ((split.left, left_ext), (split.right, right_ext)):
            assert induced(part_ext, part.vertices) == part
            new = [v for v in part_ext.vertices if v not in part.vertices]
            for v in new:
                assert is_simplicial_vertex(part_ext, v)
            for u, v in combinations(new, 2):
                assert not part_ext.has_edge(u, v)

        union = Graph(
            sorted(set(left_ext.vertices) | set(right_ext.vertices)),
            sorted(set(left_ext.edge_pairs) | set(right_ext.edge_pairs)))
        assert set(left_ext.vertices) & set(right_ext.vertices) == set(sep)
        # the union must be the simplicial extension of g up to renaming the
        # interchangeable fresh vertices: one vertex per (maximal clique K,
        # member) attached to exactly K
        assert induced(union, g.vertices) == g
        fresh_union = [v for v in union.vertices if v not in set(g.vertices)]
        from collections import Counter

        got = Counter(union.adj(f) for f in fresh_union)
        expected = Counter()
        for K in maximal_cliques(g):
            expected[K] = len(K)
        assert got == expected


def test_connected_components():
    g = disjoint_union(standard_graph("complete", 2), Graph(["z"], []))
    assert connected_components(g) == [("v1", "v2"), ("z",)]
    assert not is_connected(g)
    assert is_connected(standard_graph("cycle", 4))


def test_add_edge():
    p3 = add_edge(P3, ("a", "c"))
    assert is_complete(p3)
    with pytest.raises(GraphError):
        add_edge(P3, ("a", "b"))


def test_the_clique_kernel_matches_the_generator_reference():
    # every mask below 2^min(n, 10) on the rows of the atlas and of seeded
    # 10-13-vertex graphs, random and chordal (whose masks are often cliques)
    rng = random.Random(30)
    graphs = [g for n in range(1, 8) for g in nonisomorphic_graphs(n)]
    for n in range(10, 14):
        graphs += [random_gnm(n, rng.randint(0, n * (n - 1) // 2), rng) for _ in range(4)]
        graphs += [random_chordal(n, rng) for _ in range(4)]
    cliques = 0
    for g in graphs:
        rows = g.rows
        for mask in range(1 << min(g.n, 10)):
            expected = reference_is_clique_mask(rows, mask)
            assert _is_clique_mask(rows, mask) == expected, (g.rows, mask)
            cliques += expected
    assert cliques > 10000


def test_the_bipartite_kernel_matches_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(30)
    graphs = [g for n in range(1, 8) for g in nonisomorphic_graphs(n)]
    for _ in range(100):
        n = rng.randint(8, 16)
        graphs.append(random_bipartite(n, rng.random(), rng))
        graphs.append(random_gnm(n, rng.randint(0, 2 * n), rng))
    seen = set()
    for g in graphs:
        G = nx.Graph()
        G.add_nodes_from(g.vertices)
        G.add_edges_from(g.edge_pairs)
        expected = nx.is_bipartite(G)
        assert _is_bipartite(g.rows) == expected, g.edge_pairs
        seen.add(expected)
    assert seen == {True, False}
