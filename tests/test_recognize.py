import random
from dataclasses import replace
from itertools import combinations

import pytest
from conftest import (disjoint_union, induced, ladder, random_bipartite, random_chordal,
                      random_chordal_bipartite, random_graph, reference_induced_cycle,
                      reference_is_chordal_bipartite, remove_edge)

from raagscope.generate import nonisomorphic_graphs
from raagscope.graphs import new_graph, standard_graph
from raagscope.ops import complement
from raagscope.prover import (
    RULE_AMALGAM,
    RULE_CHAIN,
    Derivation,
    check_derivation,
    classify,
    is_chordal,
    is_chordal_bipartite,
)
from raagscope.recognize import CycleWitness, find_induced_cycle, validate_cycle_witness


def _derives(d, g) -> bool:
    return isinstance(d, Derivation) and d.conclusion == g and check_derivation(d, g)


def _chain_length(d: Derivation) -> int:
    """The number of edge steps (one mask each) of a chain node before its
    first clique step (a pair of masks)."""
    if d.rule != RULE_CHAIN:
        return 0
    return next((i for i, step in enumerate(d.steps) if not isinstance(step, int)), len(d.steps))


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
    assert _derives(is_chordal(tree), tree)
    c4 = standard_graph("cycle", 4)
    res = is_chordal(c4)
    assert isinstance(res, CycleWitness) and len(res.vertices) == 4
    assert validate_cycle_witness(c4, res, 4)
    kn = standard_graph("complete", 6)
    assert _derives(is_chordal(kn), kn)


def test_is_chordal_agrees_with_cycle_search_all_seven_vertex_graphs():
    count = 0
    for n in range(1, 8):
        for g in nonisomorphic_graphs(n):
            count += 1
            verdict = is_chordal(g)
            has_cycle = find_induced_cycle(g, 4) is not None
            if isinstance(verdict, Derivation):
                assert not has_cycle
                assert _derives(verdict, g)
                assert verdict == classify(g).derivation
            else:
                assert has_cycle
                assert validate_cycle_witness(g, verdict, 4)
                assert verdict == find_induced_cycle(g, 4)
            # chordal bipartite: no triangle and no induced cycle of length >= 5
            has_triangle = any(g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(a, c)
                               for a, b, c in combinations(g.vertices, 3))
            has_long_cycle = find_induced_cycle(g, 5) is not None
            verdict = is_chordal_bipartite(g)
            assert verdict == reference_is_chordal_bipartite(g)
            if isinstance(verdict, Derivation):
                assert not has_triangle and not has_long_cycle
                assert _derives(verdict, g)
                assert _chain_length(verdict) == g.m
            else:
                assert has_triangle or has_long_cycle
                assert len(verdict.vertices) == 3 or len(verdict.vertices) >= 5
                assert validate_cycle_witness(g, verdict, 3)
    assert count == 1 + 2 + 4 + 11 + 34 + 156 + 1044


def test_random_chordal_generator_is_chordal():
    rng = random.Random(21)
    for _ in range(50):
        g = random_chordal(rng.randint(1, 8), rng)
        assert _derives(is_chordal(g), g)


def test_is_chordal_bipartite_examples():
    c4 = standard_graph("cycle", 4)
    res = is_chordal_bipartite(c4)
    assert _derives(res, c4) and _chain_length(res) == 4
    k3 = standard_graph("complete", 3)
    res = is_chordal_bipartite(k3)
    assert isinstance(res, CycleWitness) and len(res.vertices) == 3
    c6 = standard_graph("cycle", 6)
    res = is_chordal_bipartite(c6)
    assert isinstance(res, CycleWitness) and len(res.vertices) == 6


def test_is_chordal_bipartite_derives_with_no_cycle_search(monkeypatch):
    # the greedy pass alone decides a bipartite graph; the ladder has
    # exponentially many induced paths for a cycle search to walk
    import raagscope.prover as prover
    import raagscope.recognize as recognize

    def refuse(*args):
        raise AssertionError("cycle search on a chordal bipartite graph")

    monkeypatch.setattr(prover, "find_induced_cycle", refuse)
    monkeypatch.setattr(recognize, "_shortest_cycle", refuse)
    rng = random.Random(36)
    graphs = [random_chordal_bipartite(rng.randint(3, 24), rng) for _ in range(200)]
    for g in graphs + [ladder(40)]:
        d = is_chordal_bipartite(g)
        assert isinstance(d, Derivation) and check_derivation(d, g)


def test_is_chordal_bipartite_matches_the_witness_first_reference():
    # half bipartite, chordal bipartite or not, and half any graph
    rng = random.Random(37)
    graphs = []
    for _ in range(750):
        graphs.append(random_bipartite(rng.randint(6, 16), 0.2 + 0.4 * rng.random(), rng))
        graphs.append(random_chordal_bipartite(rng.randint(3, 14), rng))
        graphs.append(random_graph(rng.randint(1, 11), rng.random(), rng))
        graphs.append(random_graph(rng.randint(5, 11), 0.15 + 0.3 * rng.random(), rng))
    derived = 0
    for g in graphs:
        got = is_chordal_bipartite(g)
        assert got == reference_is_chordal_bipartite(g), g.edge_pairs
        derived += isinstance(got, Derivation)
    assert 1000 < derived < 2500


def test_chordal_bipartite_not_necessarily_chordal():
    c4 = standard_graph("cycle", 4)
    assert _derives(is_chordal_bipartite(c4), c4)
    assert isinstance(is_chordal(c4), CycleWitness)


def test_complete_bipartite_elimination():
    k33 = new_graph(["a1", "a2", "a3", "b1", "b2", "b3"],
                    [(a, b) for a in ("a1", "a2", "a3") for b in ("b1", "b2", "b3")])
    res = is_chordal_bipartite(k33)
    assert _derives(res, k33) and _chain_length(res) == 9


def test_bipartite_reformulation():
    # on bipartite inputs the verdict equals "no induced cycle of length >= 6"
    rng = random.Random(22)
    for _ in range(200):
        g = random_bipartite(rng.randint(2, 16), rng.random(), rng)
        verdict = is_chordal_bipartite(g)
        long_even = find_induced_cycle(g, 6)
        if isinstance(verdict, Derivation):
            assert long_even is None
            assert _derives(verdict, g) and _chain_length(verdict) == g.m
        else:
            assert long_even is not None
            assert validate_cycle_witness(g, verdict, 6)


def test_disconnected_inputs():
    g = disjoint_union(standard_graph("cycle", 4),
                       new_graph(["z1", "z2"], [("z1", "z2")]))
    res = is_chordal_bipartite(g)
    assert _derives(res, g) and _chain_length(res) == 5
    res2 = is_chordal(g)
    assert isinstance(res2, CycleWitness)


def test_validators_reject_garbage():
    c4 = standard_graph("cycle", 4)
    assert not validate_cycle_witness(c4, CycleWitness(("v1", "v2", "v3")), 3)
    # too short to be a cycle, whatever min_len says
    p3 = standard_graph("path", 3)
    assert not validate_cycle_witness(p3, CycleWitness(("v1", "v2")), 2)
    assert not validate_cycle_witness(p3, CycleWitness(()), 0)
    assert not validate_cycle_witness(p3, CycleWitness(("v1",)), 1)
    # a one-step chain removing v2-v3 of P4, which is not bisimplicial; its
    # child is the right graph and derives. The chain's first step, made
    # v2-v3, fails the same way.
    p4 = standard_graph("path", 4)
    d = is_chordal_bipartite(p4)
    assert d.rule == RULE_CHAIN and _derives(d, p4)
    child = is_chordal_bipartite(remove_edge(p4, ("v2", "v3")))
    assert _derives(child, remove_edge(p4, ("v2", "v3")))
    one_step = Derivation(RULE_CHAIN, p4, (child,), steps=(p4.mask(("v2", "v3")),))
    assert not check_derivation(one_step, p4)
    assert not check_derivation(replace(d, steps=(p4.mask(("v2", "v3")),) + d.steps[1:]), p4)
    # an amalgam of C4 along the non-clique {v1, v3}, whose parts derive
    left = induced(c4, ["v1", "v2", "v3"])
    right = induced(c4, ["v1", "v3", "v4"])
    parts = (is_chordal(left), is_chordal(right))
    assert _derives(parts[0], left) and _derives(parts[1], right)
    bad = Derivation(RULE_AMALGAM, c4, parts, separator=frozenset({"v1", "v3"}))
    assert not check_derivation(bad, c4)


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
            assert _derives(verdict, g)


def test_is_chordal_matches_networkx_on_the_atlas():
    nx = pytest.importorskip("networkx")
    for n in range(1, 8):
        for g in nonisomorphic_graphs(n):
            h = nx.Graph()
            h.add_nodes_from(g.vertices)
            h.add_edges_from(g.edge_pairs)
            assert isinstance(is_chordal(g), Derivation) == nx.is_chordal(h)
