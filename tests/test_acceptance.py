"""Acceptance suite: one test per release criterion, one printed verdict line
each. Run with `pytest -s tests/test_acceptance.py` to see the lines.

Everything here goes through public entry points and independent validators;
expected values come from exhaustive oracles or fixed worked examples.
"""

import json
import random
import time
from contextlib import contextmanager
from dataclasses import replace
from itertools import product
from pathlib import Path

import pytest

from conftest import (entry_graph, enumerate_words, oracle_word_trivial, random_bipartite,
                      random_chordal, random_graph, remove_edge, trivial_words)
from raagscope.generate import nonisomorphic_graphs
from raagscope.graphs import emit_graph6, is_isomorphic, new_graph, standard_graph
from raagscope.obstructions import (
    KIND_INDUCED,
    KIND_TRAIL,
    Obstruction,
    builtin_catalog,
    find_cocontraction_witness,
    find_forbidden_induced,
    verify_obstruction,
)
from raagscope.ops import complement, co_contract_edge, simplicial_extension
from raagscope.prover import (
    HAS_SURFACE,
    NO_SURFACE,
    RULE_AMALGAM,
    RULE_BISIMP,
    RULE_COMPLETE,
    UNKNOWN,
    Derivation,
    check_derivation,
    classify,
    is_chordal_bipartite,
    prove_in_f,
)
from raagscope.words import (
    SurfacePresentation,
    WordError,
    format_word,
    inverse,
    is_trivial,
    kernel_search,
    parse_word,
    power_product_nontrivial,
)

_EXIT = {NO_SURFACE: 0, HAS_SURFACE: 1, UNKNOWN: 2}


@contextmanager
def criterion(num, desc):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print("\nACCEPTANCE %2d FAIL  %s" % (num, desc))
        raise
    print("\nACCEPTANCE %2d PASS  %s (%.1fs)" % (num, desc, time.perf_counter() - t0))


def test_criterion_1_cycle_obstructions():
    with criterion(1, "cycle and cycle-complement obstructions, 5 <= n <= 9, under 1 s"):
        t0 = time.perf_counter()
        for n in range(5, 10):
            for g in (standard_graph("cycle", n), complement(standard_graph("cycle", n))):
                v = classify(g)
                assert v.status == HAS_SURFACE
                assert v.obstruction is not None and v.obstruction.kind == KIND_INDUCED
                assert verify_obstruction(g, v.obstruction)
        assert time.perf_counter() - t0 < 1.0


def test_criterion_2_chordal_graphs():
    with criterion(2, "1000 random chordal graphs derive via base and amalgam only"):
        t0 = time.perf_counter()
        rng = random.Random(2024)
        for _ in range(1000):
            g = random_chordal(rng.randint(1, 8), rng)
            v = classify(g)
            assert v.status == NO_SURFACE
            assert check_derivation(v.derivation, g)
            assert v.derivation.rules_used() <= {RULE_COMPLETE, RULE_AMALGAM}
        assert time.perf_counter() - t0 < 60.0


def test_criterion_3_chordal_bipartite_graphs():
    with criterion(3, "chordal bipartite graphs derive; named ones bear the edge rule"):
        t0 = time.perf_counter()
        k23 = new_graph(["a1", "a2", "b1", "b2", "b3"],
                        [(a, b) for a in ("a1", "a2") for b in ("b1", "b2", "b3")])
        k33 = new_graph(["a1", "a2", "a3", "b1", "b2", "b3"],
                        [(a, b) for a in ("a1", "a2", "a3") for b in ("b1", "b2", "b3")])
        for g in (standard_graph("cycle", 4), k23, k33):
            v = classify(g)
            assert v.status == NO_SURFACE
            assert check_derivation(v.derivation, g)
            assert RULE_BISIMP in v.derivation.rules_used()
        rng = random.Random(2025)
        kept = 0
        while kept < 200:
            g = random_bipartite(rng.randint(2, 8), 0.2 + 0.6 * rng.random(), rng)
            if not isinstance(is_chordal_bipartite(g), Derivation):
                continue
            kept += 1
            v = classify(g)
            assert v.status == NO_SURFACE
            assert check_derivation(v.derivation, g)
            assert v.derivation.rules_used() <= {RULE_COMPLETE, RULE_AMALGAM, RULE_BISIMP}
        assert time.perf_counter() - t0 < 60.0


def test_criterion_4_cocontraction_trail_examples():
    with criterion(4, "fixed 9- and 10-vertex graphs classify via contraction trails"):
        builtin_catalog()  # transcription self-test runs at build time
        p18 = entry_graph("P1(8)")
        q19 = entry_graph("Q1(9)")
        q2x = entry_graph("Q2(10)")
        assert is_isomorphic(co_contract_edge(q19, ("a", "b")), p18) is not None
        assert is_isomorphic(co_contract_edge(q2x, ("c", "d")), q19) is not None

        v1 = classify(q19)
        assert v1.status == HAS_SURFACE
        assert v1.obstruction.kind == KIND_TRAIL and len(v1.obstruction.trail) == 1
        assert verify_obstruction(q19, v1.obstruction)

        v2 = classify(q2x)
        assert v2.status == HAS_SURFACE
        assert v2.obstruction.kind == KIND_TRAIL and len(v2.obstruction.trail) == 2
        assert verify_obstruction(q2x, v2.obstruction)


def test_criterion_5_soundness_sweep_seven_vertices():
    with criterion(5, "no 7-vertex graph gets both certificates; verdicts deterministic"):
        t0 = time.perf_counter()
        graphs = nonisomorphic_graphs(7)
        assert len(graphs) == 1044
        for g in graphs:
            d = prove_in_f(g)
            o = find_forbidden_induced(g)
            if o is None:
                o = find_cocontraction_witness(g, 2)
            d_ok = d is not None and check_derivation(d, g)
            o_ok = o is not None and verify_obstruction(g, o)
            assert d is None or d_ok, "prover emitted an invalid derivation"
            assert o is None or o_ok, "searcher emitted an invalid obstruction"
            assert not (d_ok and o_ok), "graph got both certificates"
        codes_a = [_EXIT[classify(g).status] for g in graphs]
        codes_b = [_EXIT[classify(g).status] for g in graphs]
        assert codes_a == codes_b
        # the census golden pins every verdict on 6 and 7 vertices: the counts
        # exactly, and the unknowns as isomorphism classes, each matched one to
        # one with a golden graph by networkx, which shares no code with the
        # canonical labeling that picks each class's representative
        golden = json.loads((Path(__file__).parent / "data" / "census7.json").read_text())
        six = nonisomorphic_graphs(6)
        census = {6: (six, [_EXIT[classify(g).status] for g in six]),
                  7: (graphs, codes_a)}
        nx = pytest.importorskip("networkx")
        for n, (sample, codes) in census.items():
            counts = {status: codes.count(code) for status, code in _EXIT.items()}
            assert counts == golden[str(n)]["counts"]
            unmatched = [nx.from_graph6_bytes(t.encode()) for t in golden[str(n)]["unknown_graph6"]]
            for g, c in zip(sample, codes):
                if c != _EXIT[UNKNOWN]:
                    continue
                h = nx.from_graph6_bytes(emit_graph6(g))
                hits = [k for k, e in enumerate(unmatched) if nx.is_isomorphic(h, e)]
                assert len(hits) == 1, "unknown %s is no golden class" % emit_graph6(g).decode()
                del unmatched[hits[0]]
            assert not unmatched
        assert time.perf_counter() - t0 < 600.0


def test_criterion_6_extension_of_derived_graphs_stays_clean():
    with criterion(6, "simplicial extensions of derivable graphs contain no witness"):
        rng = random.Random(2026)
        done = 0
        while done < 100:
            if rng.random() < 0.5:
                g = random_chordal(rng.randint(1, 6), rng)
            else:
                g = random_graph(rng.randint(1, 6), rng.random(), rng)
            if prove_in_f(g) is None:
                continue
            done += 1
            ext, _ = simplicial_extension(g)
            assert find_forbidden_induced(ext) is None


def test_criterion_7_word_engine_oracle():
    with criterion(7, "triviality matches the rewriting oracle, exhaustive and random"):
        t0 = time.perf_counter()
        letters2 = [("v1", 1), ("v1", -1), ("v2", 1), ("v2", -1)]
        # oracle verdicts depend only on whether the two generators commute;
        # the oracle's trivial words up to length 8, as one reverse closure
        trivial = {adjacent: trivial_words(new_graph(["v1", "v2"],
                                                     [("v1", "v2")] if adjacent else []), 8)
                   for adjacent in (False, True)}
        for n in range(1, 5):
            for g in nonisomorphic_graphs(n):
                if n == 1:
                    for w in enumerate_words([("v1", 1), ("v1", -1)], 8):
                        assert is_trivial(g, w) == (sum(s for _, s in w) == 0)
                    continue
                adjacent = g.has_edge("v1", "v2")
                for w in enumerate_words(letters2, 8):
                    assert is_trivial(g, w) == (w in trivial[adjacent])
        # random longer words on sparse graphs keep the oracle closure finite
        rng = random.Random(2027)
        done = 0
        while done < 500:
            n = rng.randint(2, 4)
            g = random_graph(n, 0.4, rng)
            if g.m > 3:
                continue
            gens = list(g.vertices)
            w = tuple((gens[rng.randrange(n)], rng.choice((1, -1)))
                      for _ in range(rng.randint(9, 14)))
            try:
                expected = oracle_word_trivial(g, w, cap=400_000)
            except RuntimeError:
                continue
            assert is_trivial(g, w) == expected
            done += 1
        assert time.perf_counter() - t0 < 300.0


def test_criterion_8_kernel_search_witnesses():
    with criterion(8, "kernel witness at exactly length 4; free control stays clean"):
        edge = new_graph(["a", "b"], [("a", "b")])
        disc = new_graph(["a", "b"], [])
        pres = SurfacePresentation(genus=1, boundary=1)
        images = {"x1": parse_word("a"), "y1": parse_word("b"),
                  "d1": inverse(parse_word("a b a^-1 b^-1"))}
        w = kernel_search(edge, pres, images, 6)
        assert format_word(w) == "x1 y1 x1^-1 y1^-1"
        assert len(w) == 4
        assert kernel_search(edge, pres, images, 3) is None  # nothing shorter
        img = parse_word("a b a^-1 b^-1")
        assert is_trivial(edge, img)
        assert kernel_search(disc, pres, images, 10) is None


def test_criterion_9_power_product_probe():
    with criterion(9, "50 free-group instances stay nontrivial for large exponents"):
        rng = random.Random(2028)
        letters = [("a", 1), ("a", -1), ("b", 1), ("b", -1)]

        def free_reduce(w):
            out = []
            for letter in w:
                if out and out[-1][0] == letter[0] and out[-1][1] == -letter[1]:
                    out.pop()
                else:
                    out.append(letter)
            return tuple(out)

        def rand_word(max_len, nonempty=False):
            while True:
                w = free_reduce(tuple(letters[rng.randrange(4)]
                                      for _ in range(rng.randint(0, max_len))))
                if w or not nonempty:
                    return w

        done = 0
        while done < 50:
            m = rng.randint(1, 3)
            us = [rand_word(3, nonempty=True) for _ in range(m)]
            bs = [rand_word(3) for _ in range(m)]
            found_n = None
            for n_base in range(0, 11):
                magnitudes = [n_base + 1, n_base + 2, n_base + 3]
                ok = True
                for combo in product(magnitudes, repeat=m):
                    for signs in product((1, -1), repeat=m):
                        ns = [c * s for c, s in zip(combo, signs)]
                        try:
                            nontrivial = power_product_nontrivial(us, bs, ns)
                        except WordError:
                            ok = None  # hypothesis violated; resample instance
                            break
                        if not nontrivial:
                            ok = False
                            break
                        # independent free-reduction check of the same product
                        word = []
                        for i in range(m):
                            word.extend(bs[i])
                            block = us[i] if ns[i] > 0 else tuple(
                                (g, -s) for g, s in reversed(us[i]))
                            word.extend(block * abs(ns[i]))
                        assert free_reduce(tuple(word)) != ()
                    if not ok or ok is None:
                        break
                if ok is None:
                    break
                if ok:
                    found_n = n_base
                    break
            if ok is None:
                continue
            assert found_n is not None and found_n <= 10
            done += 1


def _mutation_pool(rng):
    """Valid certificates paired with single-field mutations that must all be
    rejected by the checkers."""
    derivations = []
    for _ in range(25):
        g = random_chordal(rng.randint(2, 7), rng)
        derivations.append((g, prove_in_f(g)))
    for g in (standard_graph("cycle", 4),
              new_graph(["a1", "a2", "b1", "b2"],
                        [(a, b) for a in ("a1", "a2") for b in ("b1", "b2")])):
        derivations.append((g, prove_in_f(g)))
    obstructions = []
    for n in range(5, 9):
        g = standard_graph("cycle", n)
        obstructions.append((g, find_forbidden_induced(g)))
        cg = complement(standard_graph("cycle", n))
        obstructions.append((cg, find_forbidden_induced(cg)))
    q19 = entry_graph("Q1(9)")
    obstructions.append((q19, find_cocontraction_witness(q19, 1)))
    q2x = entry_graph("Q2(10)")
    obstructions.append((q2x, find_cocontraction_witness(q2x, 2)))
    return derivations, obstructions


def _mutate_derivation(d, rng):
    nodes = []

    def collect(node, path):
        nodes.append((node, path))
        for i, ch in enumerate(node.children):
            collect(ch, path + (i,))

    collect(d, ())

    def rebuild(node, path, replacement):
        if not path:
            return replacement
        kids = list(node.children)
        kids[path[0]] = rebuild(kids[path[0]], path[1:], replacement)
        return replace(node, children=tuple(kids))

    node, path = nodes[rng.randrange(len(nodes))]
    choices = []
    nonedges = [(u, v) for i, u in enumerate(node.conclusion.vertices)
                for v in node.conclusion.vertices[i + 1:]
                if not node.conclusion.has_edge(u, v)]
    if node.separator is not None and nonedges:
        pair = nonedges[rng.randrange(len(nonedges))]
        choices.append(replace(node, separator=frozenset(pair)))
    edge_steps = [k for k, step in enumerate(node.steps or ()) if isinstance(step, int)]
    if edge_steps and nonedges:
        # an edge step citing a pair that is never an edge of the replay
        k = edge_steps[rng.randrange(len(edge_steps))]
        pair = node.conclusion.mask(nonedges[rng.randrange(len(nonedges))])
        choices.append(replace(node, steps=node.steps[:k] + (pair,) + node.steps[k + 1:]))
    if node.children:
        choices.append(replace(node, children=node.children[1:]))
    if node.bipartition is not None:
        choices.append(replace(node, bipartition=(node.bipartition[1], node.bipartition[0])))
    wrong_rule = RULE_AMALGAM if node.rule == RULE_COMPLETE else RULE_COMPLETE
    choices.append(replace(node, rule=wrong_rule))
    if node.steps:
        # a chain less any one of its steps never reaches its child
        k = rng.randrange(len(node.steps))
        choices.append(replace(node, steps=node.steps[:k] + node.steps[k + 1:]))
    if node.conclusion.m:
        smaller = remove_edge(node.conclusion, node.conclusion.edge_pairs[0])
        choices.append(replace(node, conclusion=smaller))
    replacement = choices[rng.randrange(len(choices))]
    return rebuild(d, path, replacement)


def _mutate_obstruction(g, o, rng):
    emb = o.embedding_map()
    keys = sorted(emb)
    ops = []
    if len(keys) >= 2:
        def dup():
            bad = dict(emb)
            bad[keys[0]] = bad[keys[1]]  # break injectivity
            return Obstruction(o.kind, o.entry, tuple(sorted(bad.items())), o.trail)
        ops.append(dup)
    ops.append(lambda: Obstruction(o.kind, "C11" if o.entry != "C11" else "C12",
                                   o.embedding, o.trail))
    ops.append(lambda: Obstruction(
        KIND_TRAIL if o.kind == KIND_INDUCED else KIND_INDUCED,
        o.entry, o.embedding, o.trail))
    if g.edge_pairs:
        ops.append(lambda: Obstruction(KIND_TRAIL, o.entry, o.embedding,
                                       o.trail + (g.edge_pairs[0],)))
    if o.trail:
        ops.append(lambda: Obstruction(o.kind, o.entry, o.embedding, o.trail[1:]))
        ops.append(lambda: Obstruction(o.kind, o.entry, o.embedding,
                                       o.trail + (("nowhere", "nohow"),)))
    return ops[rng.randrange(len(ops))]()


def test_criterion_10_certificate_fuzzing():
    with criterion(10, "1000 single-field certificate mutations all rejected"):
        rng = random.Random(2029)
        derivations, obstructions = _mutation_pool(rng)
        rejected = 0
        while rejected < 1000:
            if rng.random() < 0.5:
                g, d = derivations[rng.randrange(len(derivations))]
                bad = _mutate_derivation(d, rng)
                if bad == d:
                    continue
                assert not check_derivation(bad, g), "mutated derivation accepted"
            else:
                g, o = obstructions[rng.randrange(len(obstructions))]
                bad = _mutate_obstruction(g, o, rng)
                if bad == o:
                    continue
                try:
                    ok = verify_obstruction(g, bad)
                except Exception:
                    ok = False
                assert not ok, "mutated obstruction accepted"
            rejected += 1
