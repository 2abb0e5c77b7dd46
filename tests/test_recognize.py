import random
from itertools import combinations

import pytest
from conftest import (disjoint_union, random_bipartite, random_chordal, random_graph,
                      reference_induced_cycle)

from raagscope.generate import nonisomorphic_graphs
from raagscope.graphs import new_graph, standard_graph
from raagscope.ops import complement
from raagscope.recognize import (
    ChordalCertificate,
    CycleWitness,
    EdgeEliminationOrder,
    find_induced_cycle,
    is_chordal,
    is_chordal_bipartite,
    validate_chordal_certificate,
    validate_cycle_witness,
    validate_edge_elimination,
)


def test_find_induced_cycle_examples():
    c6 = standard_graph("cycle", 6)
    got = find_induced_cycle(c6, 5)
    assert got is not None and len(got.vertices) == 6
    assert validate_cycle_witness(c6, got, 5)
    assert find_induced_cycle(c6, 7) is None
    assert find_induced_cycle(complement(c6), 5) is None
    assert find_induced_cycle(complement(standard_graph("cycle", 7)), 5) is None
    c5 = standard_graph("cycle", 5)
    got = find_induced_cycle(c5, 5)
    assert got is not None and len(got.vertices) == 5
    with pytest.raises(ValueError):
        find_induced_cycle(c5, 2)


def test_find_induced_cycle_triangle_and_shortest():
    k3 = standard_graph("complete", 3)
    got = find_induced_cycle(k3, 3)
    assert got is not None and len(got.vertices) == 3
    # C4 with a pendant triangle: shortest induced cycle of length >= 3 is 3
    g = new_graph(["a", "b", "c", "d", "e"],
                  [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("a", "e"), ("b", "e")])
    got = find_induced_cycle(g, 3)
    assert len(got.vertices) == 3
    got4 = find_induced_cycle(g, 4)
    assert len(got4.vertices) == 4


def test_find_induced_cycle_matches_iterative_deepening_oracle():
    # the one-pass search must return the oracle's cycle exactly: first by
    # length, then by start, then by ascending extensions
    graphs = [g for n in range(1, 8) for g in nonisomorphic_graphs(n)]
    rng = random.Random(8)
    graphs += [random_graph(rng.randint(8, 14), rng.uniform(0.15, 0.85), rng)
               for _ in range(300)]
    for g in graphs:
        for h in (g, complement(g)):
            for min_len in range(3, 7):
                assert find_induced_cycle(h, min_len) == reference_induced_cycle(h, min_len)


def test_is_chordal_examples():
    tree = standard_graph("path", 6)
    res = is_chordal(tree)
    assert isinstance(res, ChordalCertificate)
    assert validate_chordal_certificate(tree, res)
    c4 = standard_graph("cycle", 4)
    res = is_chordal(c4)
    assert isinstance(res, CycleWitness) and len(res.vertices) == 4
    assert validate_cycle_witness(c4, res, 4)
    kn = standard_graph("complete", 6)
    assert isinstance(is_chordal(kn), ChordalCertificate)


def test_is_chordal_agrees_with_cycle_search_all_seven_vertex_graphs():
    count = 0
    for n in range(1, 8):
        for g in nonisomorphic_graphs(n):
            count += 1
            verdict = is_chordal(g)
            has_cycle = find_induced_cycle(g, 4) is not None
            if isinstance(verdict, ChordalCertificate):
                assert not has_cycle
                assert validate_chordal_certificate(g, verdict)
            else:
                assert has_cycle
                assert validate_cycle_witness(g, verdict, 4)
                assert verdict == find_induced_cycle(g, 4)
            # chordal bipartite: no triangle and no induced cycle of length >= 5
            has_triangle = any(g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(a, c)
                               for a, b, c in combinations(g.vertices, 3))
            has_long_cycle = find_induced_cycle(g, 5) is not None
            verdict = is_chordal_bipartite(g)
            if isinstance(verdict, EdgeEliminationOrder):
                assert not has_triangle and not has_long_cycle
                assert validate_edge_elimination(g, verdict)
            else:
                assert has_triangle or has_long_cycle
                assert len(verdict.vertices) == 3 or len(verdict.vertices) >= 5
                assert validate_cycle_witness(g, verdict, 3)
    assert count == 1 + 2 + 4 + 11 + 34 + 156 + 1044


def test_random_chordal_generator_is_chordal():
    rng = random.Random(21)
    for _ in range(50):
        g = random_chordal(rng.randint(1, 8), rng)
        assert isinstance(is_chordal(g), ChordalCertificate)


def test_is_chordal_bipartite_examples():
    c4 = standard_graph("cycle", 4)
    res = is_chordal_bipartite(c4)
    assert isinstance(res, EdgeEliminationOrder) and len(res.edges) == 4
    assert validate_edge_elimination(c4, res)
    k3 = standard_graph("complete", 3)
    res = is_chordal_bipartite(k3)
    assert isinstance(res, CycleWitness) and len(res.vertices) == 3
    c6 = standard_graph("cycle", 6)
    res = is_chordal_bipartite(c6)
    assert isinstance(res, CycleWitness) and len(res.vertices) == 6


def test_chordal_bipartite_not_necessarily_chordal():
    c4 = standard_graph("cycle", 4)
    assert isinstance(is_chordal_bipartite(c4), EdgeEliminationOrder)
    assert isinstance(is_chordal(c4), CycleWitness)


def test_complete_bipartite_elimination():
    k33 = new_graph(["a1", "a2", "a3", "b1", "b2", "b3"],
                    [(a, b) for a in ("a1", "a2", "a3") for b in ("b1", "b2", "b3")])
    res = is_chordal_bipartite(k33)
    assert isinstance(res, EdgeEliminationOrder) and len(res.edges) == 9
    assert validate_edge_elimination(k33, res)


def test_bipartite_reformulation():
    # on bipartite inputs the verdict equals "no induced cycle of length >= 6"
    rng = random.Random(22)
    for _ in range(60):
        g = random_bipartite(rng.randint(2, 8), rng.random(), rng)
        verdict = is_chordal_bipartite(g)
        long_even = find_induced_cycle(g, 6)
        if isinstance(verdict, EdgeEliminationOrder):
            assert long_even is None
            assert validate_edge_elimination(g, verdict)
        else:
            assert long_even is not None


def test_disconnected_inputs():
    g = disjoint_union(standard_graph("cycle", 4),
                       new_graph(["z1", "z2"], [("z1", "z2")]))
    res = is_chordal_bipartite(g)
    assert isinstance(res, EdgeEliminationOrder)
    assert validate_edge_elimination(g, res)
    res2 = is_chordal(g)
    assert isinstance(res2, CycleWitness)


def test_validators_reject_garbage():
    c4 = standard_graph("cycle", 4)
    assert not validate_cycle_witness(c4, CycleWitness(("v1", "v2", "v3")), 3)
    assert not validate_chordal_certificate(c4, ChordalCertificate(("v1", "v2", "v3", "v4")))
    bad = EdgeEliminationOrder((("v1", "v3"),))
    assert not validate_edge_elimination(c4, bad)


def test_stuck_graphs_yield_valid_witnesses():
    rng = random.Random(23)
    graphs = [random_graph(rng.randint(4, 8), rng.random(), rng) for _ in range(80)]
    graphs += [random_graph(rng.randint(8, 16), rng.random(), rng) for _ in range(80)]
    graphs += [random_chordal(rng.randint(8, 16), rng) for _ in range(40)]
    for g in graphs:
        verdict = is_chordal(g)
        if isinstance(verdict, CycleWitness):
            assert validate_cycle_witness(g, verdict, 4)
            assert verdict == find_induced_cycle(g, 4)
        else:
            assert validate_chordal_certificate(g, verdict)
