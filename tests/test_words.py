import random
from itertools import combinations, product

import pytest

from conftest import (enumerate_words, oracle_word_trivial, reference_canonical_sort,
                      reference_cyclic_normal_form, trivial_words)
from raagscope.generate import nonisomorphic_graphs
from raagscope.graphs import new_graph
from raagscope.words import (
    SurfacePresentation,
    WordError,
    _commutation,
    _cyclic_reduce,
    MAX_KERNEL_WORDS,
    _dehn_trivial,
    _iter_reduced_words,
    _reduce_full,
    _reduced_word_count,
    are_equal,
    boundary_clique_supports,
    check_hom,
    concat,
    conjugate_into_clique,
    cyclic_normal_form,
    format_word,
    inverse,
    is_relative_hom,
    is_trivial,
    kernel_search,
    normal_form,
    parse_word,
    power,
    power_product_nontrivial,
    relator,
)

EDGE = new_graph(["a", "b"], [("a", "b")])
DISC = new_graph(["a", "b"], [])
P3 = new_graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
K3 = new_graph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])


def _gnm(n, m, seed):
    """Uniform graph on v1..vn with m edges, drawn as the words benchmark
    draws its group (seed 1 gives its 10-vertex, 18-edge graph)."""
    pairs = random.Random(seed).sample(list(combinations(range(n), 2)), m)
    return new_graph(["v%d" % (i + 1) for i in range(n)],
                     [("v%d" % (i + 1), "v%d" % (j + 1)) for i, j in pairs])


G10 = _gnm(10, 18, 1)


def test_parse_and_format():
    w = parse_word("a b^-1 a")
    assert w == (("a", 1), ("b", -1), ("a", 1))
    assert format_word(w) == "a b^-1 a"
    assert parse_word("") == ()
    with pytest.raises(WordError):
        parse_word("a^2")


def test_parse_word_shares_letters():
    rng = random.Random(40)
    tokens = [rng.choice(("a", "b", "c")) + rng.choice(("", "^-1")) for _ in range(512)]
    w = parse_word(" ".join(tokens))
    assert len({id(letter) for letter in w}) <= 6
    assert w == tuple((t[:-3], -1) if t.endswith("^-1") else (t, 1) for t in tokens)
    for bad in ("a^2", "^-1", "a^-1^-1", "a b^"):
        with pytest.raises(WordError):
            parse_word(bad)


def test_normal_form_examples():
    assert normal_form(EDGE, parse_word("a b a^-1 b^-1")) == ()
    assert format_word(normal_form(DISC, parse_word("a b b^-1 a"))) == "a a"
    assert format_word(normal_form(EDGE, parse_word("b a b^-1"))) == "a"
    with pytest.raises(WordError):
        normal_form(EDGE, parse_word("z"))


def test_trivial_and_equal_examples():
    assert not is_trivial(P3, parse_word("a c a^-1 c^-1"))
    w = parse_word("a b a c^-1")
    assert is_trivial(P3, concat(w, inverse(w)))
    assert is_trivial(K3, parse_word("a b c a^-1 b^-1 c^-1"))
    assert are_equal(EDGE, parse_word("a b"), parse_word("b a"))
    assert not are_equal(DISC, parse_word("a b"), parse_word("b a"))


def test_normal_form_idempotent_and_equal_iff_same_nf():
    rng = random.Random(31)
    letters = [(g, s) for g in ("a", "b", "c") for s in (1, -1)]
    for _ in range(300):
        g = (P3, K3, new_graph(["a", "b", "c"], []))[rng.randrange(3)]
        w = tuple(letters[rng.randrange(6)] for _ in range(rng.randint(0, 10)))
        nf = normal_form(g, w)
        assert normal_form(g, nf) == nf
        assert are_equal(g, w, nf)


def test_equality_is_congruence_spot_check():
    rng = random.Random(32)
    letters = [(g, s) for g in ("a", "b", "c") for s in (1, -1)]
    for _ in range(100):
        u = tuple(letters[rng.randrange(6)] for _ in range(rng.randint(0, 6)))
        v = tuple(letters[rng.randrange(6)] for _ in range(rng.randint(0, 6)))
        if are_equal(P3, u, v):
            assert normal_form(P3, u) == normal_form(P3, v)
            w = tuple(letters[rng.randrange(6)] for _ in range(3))
            assert are_equal(P3, concat(u, w), concat(v, w))


def test_oracle_agreement_small():
    # engine verdicts must match the rewriting-closure oracle
    letters = [("a", 1), ("a", -1), ("b", 1), ("b", -1)]
    for g in (EDGE, DISC):
        for w in enumerate_words(letters, 6):
            assert is_trivial(g, w) == oracle_word_trivial(g, w), w


def test_reverse_closure_of_trivial_words_agrees_with_the_rewriting_oracle():
    # acceptance criterion 7 takes the oracle's trivial words from the
    # reverse closure; both must name the same words, sampled uniformly and
    # from the closure itself
    rng = random.Random(15)
    letters = [("v1", 1), ("v1", -1), ("v2", 1), ("v2", -1)]
    for edges in ([], [("v1", "v2")]):
        g = new_graph(["v1", "v2"], edges)
        trivial = trivial_words(g, 8)
        for _ in range(3000):
            w = tuple(letters[rng.randrange(4)] for _ in range(rng.randint(0, 8)))
            assert (w in trivial) == oracle_word_trivial(g, w), w
        assert all(oracle_word_trivial(g, w) for w in rng.sample(sorted(trivial), 500))


def test_oracle_agreement_three_generators():
    rng = random.Random(33)
    graphs = [h for n in (3,) for h in nonisomorphic_graphs(n)]
    letters = [("v%d" % i, s) for i in (1, 2, 3) for s in (1, -1)]
    for _ in range(400):
        g = graphs[rng.randrange(len(graphs))]
        w = tuple(letters[rng.randrange(6)] for _ in range(rng.randint(0, 10)))
        assert is_trivial(g, w) == oracle_word_trivial(g, w)


def test_discrete_is_free_reduction():
    rng = random.Random(34)
    letters = [(g, s) for g in ("a", "b") for s in (1, -1)]
    for _ in range(200):
        w = tuple(letters[rng.randrange(4)] for _ in range(rng.randint(0, 12)))
        out = []
        for letter in w:
            if out and out[-1][0] == letter[0] and out[-1][1] == -letter[1]:
                out.pop()
            else:
                out.append(letter)
        assert normal_form(DISC, w) == tuple(out)


def test_complete_is_abelianization():
    rng = random.Random(35)
    letters = [(g, s) for g in ("a", "b", "c") for s in (1, -1)]
    for _ in range(300):
        w = tuple(letters[rng.randrange(6)] for _ in range(rng.randint(0, 12)))
        sums = {}
        for g, s in w:
            sums[g] = sums.get(g, 0) + s
        assert is_trivial(K3, w) == all(v == 0 for v in sums.values())


def test_normal_form_is_least_shuffle_representative():
    # brute force: the canonical form must be minimal among every word in the
    # rewriting closure of the same (reduced) length
    from collections import deque

    def closure(graph, w):
        seen = {w}
        q = deque([w])
        while q:
            cur = q.popleft()
            for i in range(len(cur) - 1):
                (g1, s1), (g2, s2) = cur[i], cur[i + 1]
                if g1 != g2 and graph.has_edge(g1, g2):
                    nw = cur[:i] + (cur[i + 1], cur[i]) + cur[i + 2:]
                    if nw not in seen:
                        seen.add(nw)
                        q.append(nw)
        return seen

    rng = random.Random(36)
    letters = [(g, s) for g in ("a", "b", "c") for s in (1, -1)]
    for _ in range(150):
        g = (P3, K3)[rng.randrange(2)]
        w = tuple(letters[rng.randrange(6)] for _ in range(rng.randint(0, 7)))
        nf = normal_form(g, w)
        shuffles = closure(g, nf)
        key = lambda u: tuple((x, 0 if s > 0 else 1) for x, s in u)
        assert key(nf) == min(key(u) for u in shuffles)


def _letters(graph):
    return [(g, s) for g in graph.vertices for s in (1, -1)]


# (graph, words, least length, greatest length). The last three are at full
# size: five words at the CLI's cap on G10, the benchmark group's shape; a
# graph on v1..v12, where "v10" sorts before "v2", so the sort must rank
# generators in name order and not by their numbers; and 70 generators,
# past the 64 bits of a machine word.
@pytest.mark.parametrize("graph, count, least, most", [
    (P3, 60, 0, 128),
    (K3, 60, 0, 128),
    (new_graph(["a", "b", "c", "d", "e"], [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")]),
     60, 0, 128),
    (new_graph(["a", "b", "c", "d"], []), 60, 0, 128),
    (G10, 60, 0, 128),
    (G10, 5, 512, 512),
    (_gnm(12, 33, 2), 60, 0, 128),
    (_gnm(70, 1200, 3), 5, 200, 200),
], ids=["P3", "K3", "P5", "discrete4", "G10", "G10-at-cap", "v1-v12", "70-generators"])
def test_normal_form_is_reduction_then_reference_sort(graph, count, least, most):
    rng = random.Random(38)
    letters = _letters(graph)
    for _ in range(count):
        w = tuple(rng.choice(letters) for _ in range(rng.randint(least, most)))
        reduced = _reduce_full(_commutation(graph), w)
        assert normal_form(graph, w) == tuple(reference_canonical_sort(graph, reduced))


def _rotation_route(graph, w):
    support = frozenset(g for g, _ in cyclic_normal_form(graph, w))
    return support if all(graph.has_edge(a, b) for a, b in combinations(support, 2)) else None


def _maximal_cliques(graph):
    vs = graph.vertices
    cliques = [frozenset(c) for k in range(1, len(vs) + 1) for c in combinations(vs, k)
               if all(graph.has_edge(a, b) for a, b in combinations(c, 2))]
    return [c for c in cliques if not any(c < d for d in cliques)]


def test_conjugate_into_clique_agrees_with_rotation_route():
    rng = random.Random(39)
    for graph in (P3, K3, DISC, G10):
        letters = _letters(graph)
        cliques = _maximal_cliques(graph)
        for _ in range(40):
            w = tuple(rng.choice(letters) for _ in range(rng.randint(0, 40)))
            assert conjugate_into_clique(graph, w) == _rotation_route(graph, w)
        for _ in range(40):
            clique = sorted(rng.choice(cliques))
            x = tuple((rng.choice(clique), rng.choice((1, -1)))
                      for _ in range(rng.randint(0, 12)))
            c = tuple(rng.choice(letters) for _ in range(rng.randint(0, 20)))
            w = concat(c, x, inverse(c))
            got = conjugate_into_clique(graph, w)
            assert got == _rotation_route(graph, w)
            assert got is not None and got <= set(clique)
    # at the CLI's cap: a 16-letter x over a clique of G10 under a
    # 248-letter conjugator
    clique = sorted(max(_maximal_cliques(G10), key=len))
    x = tuple((rng.choice(clique), 1) for _ in range(16))
    c = tuple(rng.choice(_letters(G10)) for _ in range(248))
    w = concat(c, x, inverse(c))
    assert len(w) == 512
    assert conjugate_into_clique(G10, w) == _rotation_route(G10, w) == frozenset(g for g, _ in x)


def test_cyclic_reduce_returns_a_cyclically_reduced_conjugate():
    # w = c x c^-1 on random graphs of at most 8 vertices: the result (r, conj)
    # must give back w as conj r conj^-1, and r r must be reduced, which holds
    # exactly when r is cyclically reduced
    rng = random.Random(41)
    for _ in range(300):
        n = rng.randint(1, 8)
        graph = new_graph(["v%d" % (i + 1) for i in range(n)],
                          [("v%d" % (i + 1), "v%d" % (j + 1))
                           for i, j in combinations(range(n), 2) if rng.random() < 0.5])
        commutes = _commutation(graph)
        letters = _letters(graph)
        x = tuple(rng.choice(letters) for _ in range(rng.randint(0, 12)))
        c = tuple(rng.choice(letters) for _ in range(rng.randint(0, 8)))
        w = concat(c, x, inverse(c))
        r, conj = _cyclic_reduce(commutes, w)
        assert are_equal(graph, concat(conj, r, inverse(conj)), w)
        assert len(_reduce_full(commutes, r + r)) == 2 * len(r)


def test_cyclic_normal_form_examples():
    assert format_word(cyclic_normal_form(DISC, parse_word("b a b^-1"))) == "a"
    assert cyclic_normal_form(P3, ()) == ()
    free3 = new_graph(["a", "b", "c"], [])
    assert format_word(cyclic_normal_form(free3, parse_word("c b a b^-1 c^-1"))) == "a"


def test_cyclic_normal_form_matches_the_reference():
    # byte for byte, so the form changes only on purpose: conjugates can still
    # get different forms, as the docstring's pair shows
    g = new_graph(["v1", "v2", "v3"], [("v1", "v3")])
    w = parse_word("v1 v3^-1 v1 v2 v2")
    v3 = parse_word("v3")
    for word, form in ((w, "v1 v1 v3^-1 v2 v2"),
                       (concat(v3, w, inverse(v3)), "v1 v1 v2 v2 v3^-1")):
        assert format_word(cyclic_normal_form(g, word)) == form
        assert cyclic_normal_form(g, word) == reference_cyclic_normal_form(g, word)
    rng = random.Random(42)
    for _ in range(200):
        n = rng.randint(1, 12)
        names = ["v%d" % (i + 1) for i in range(n)]
        graph = new_graph(names, [(a, b) for a, b in combinations(names, 2)
                                  if rng.random() < 0.5])
        letters = _letters(graph)
        w = tuple(rng.choice(letters) for _ in range(rng.randint(0, 40)))
        assert cyclic_normal_form(graph, w) == reference_cyclic_normal_form(graph, w)


def test_cyclic_normal_form_conjugation_invariant_length():
    rng = random.Random(37)
    letters = [(g, s) for g in ("a", "b", "c") for s in (1, -1)]
    for _ in range(100):
        g = (P3, K3, new_graph(["a", "b", "c"], []))[rng.randrange(3)]
        w = tuple(letters[rng.randrange(6)] for _ in range(rng.randint(0, 6)))
        conj = tuple(letters[rng.randrange(6)] for _ in range(rng.randint(0, 3)))
        base = cyclic_normal_form(g, w)
        moved = cyclic_normal_form(g, concat(conj, w, inverse(conj)))
        assert len(base) == len(moved)
        # brute check: some conjugator of length <= 3 carries one to the other
        if base != moved:
            found = False
            for L in range(0, 4):
                for c in product(letters, repeat=L):
                    if are_equal(g, concat(inverse(tuple(c)), base, tuple(c)), moved):
                        found = True
                        break
                if found:
                    break
            assert found


def test_conjugate_into_clique_examples():
    assert conjugate_into_clique(DISC, parse_word("b a b^-1")) == frozenset({"a"})
    assert conjugate_into_clique(P3, parse_word("a c")) is None
    assert conjugate_into_clique(EDGE, parse_word("a b")) == frozenset({"a", "b"})
    assert conjugate_into_clique(P3, ()) == frozenset()


def test_relator_and_check_hom_examples():
    closed2 = SurfacePresentation(genus=2, boundary=0)
    images = {g: () for g in closed2.generators}
    assert check_hom(P3, closed2, images)

    one_hole = SurfacePresentation(genus=1, boundary=1)
    im = {"x1": parse_word("a"), "y1": parse_word("b"),
          "d1": inverse(parse_word("a b a^-1 b^-1"))}
    assert check_hom(DISC, one_hole, im)

    pants = SurfacePresentation(genus=0, boundary=3)
    im = {"d1": parse_word("a"), "d2": parse_word("c"), "d3": parse_word("c^-1 a^-1")}
    assert check_hom(P3, pants, im)
    with pytest.raises(WordError):
        relator(pants, {"d1": ()})


def test_is_relative_hom_examples():
    pants = SurfacePresentation(genus=0, boundary=3)
    im = {"d1": parse_word("a"), "d2": parse_word("c"), "d3": parse_word("c^-1 a^-1")}
    assert not is_relative_hom(P3, pants, im)
    assert boundary_clique_supports(P3, pants, im)[2] is None

    im2 = {"d1": parse_word("a"), "d2": parse_word("a^-1"), "d3": ()}
    assert is_relative_hom(P3, pants, im2)

    one_hole = SurfacePresentation(genus=1, boundary=1)
    im3 = {"x1": parse_word("a"), "y1": parse_word("b"),
           "d1": inverse(parse_word("a b a^-1 b^-1"))}
    # boundary image b a b^-1 a^-1 ... on the edge graph the commutator dies
    assert is_relative_hom(EDGE, one_hole, im3)

    closed = SurfacePresentation(genus=2, boundary=0)
    with pytest.raises(WordError):
        is_relative_hom(P3, closed, {g: () for g in closed.generators})


def test_kernel_search_examples():
    one_hole = SurfacePresentation(genus=1, boundary=1)
    im = {"x1": parse_word("a"), "y1": parse_word("b"),
          "d1": inverse(parse_word("a b a^-1 b^-1"))}
    w = kernel_search(EDGE, one_hole, im, 6)
    assert format_word(w) == "x1 y1 x1^-1 y1^-1" and len(w) == 4
    assert kernel_search(DISC, one_hole, im, 10) is None
    im2 = {"x1": parse_word("a"), "y1": parse_word("a"), "d1": ()}
    w2 = kernel_search(DISC, one_hole, im2, 4)
    assert format_word(w2) == "x1 y1^-1"
    # image of the witness really is trivial
    img = concat(*(im[g] if s > 0 else inverse(im[g]) for g, s in w))
    assert is_trivial(EDGE, img)


def test_kernel_search_closed_surface():
    closed = SurfacePresentation(genus=2, boundary=0)
    images = {g: () for g in closed.generators}
    w = kernel_search(P3, closed, images, 2)
    assert w == (("x1", 1),)  # first nontrivial element, killed by the zero map
    not_hyp = SurfacePresentation(genus=1, boundary=0)
    with pytest.raises(WordError):
        kernel_search(P3, not_hyp, {g: () for g in not_hyp.generators}, 3)


def test_kernel_search_refuses_lengths_past_the_word_cap():
    # the count 1 + sum 2r(2r-1)^(k-1) is that of the enumeration itself
    for rank in (1, 2, 3):
        gens = ["g%d" % i for i in range(rank)]
        for max_len in range(6):
            assert _reduced_word_count(rank, max_len) == 1 + len(
                list(_iter_reduced_words(gens, max_len)))
    assert _reduced_word_count(2, 14) == 9565937 <= MAX_KERNEL_WORDS
    assert _reduced_word_count(2, 15) == _reduced_word_count(1, 10 ** 18) == MAX_KERNEL_WORDS + 1
    # the pants: three boundary generators, two of them free; no word is tried
    pants = SurfacePresentation(genus=0, boundary=3)
    im = {"d1": parse_word("a"), "d2": parse_word("b"), "d3": parse_word("b^-1 a^-1")}
    with pytest.raises(WordError, match="more than 10000000 reduced words"):
        kernel_search(DISC, pants, im, 15)


def _random_free_word(rng, gens, length):
    out = []
    while len(out) < length:
        letter = (rng.choice(gens), rng.choice((1, -1)))
        if out and out[-1] == (letter[0], -letter[1]):
            continue
        out.append(letter)
    return tuple(out)


@pytest.mark.parametrize("genus", [2, 3])
def test_dehn_algorithm_decides_closed_surface_words(genus):
    pres = SurfacePresentation(genus=genus, boundary=0)
    gens = list(pres.generators)
    rel = relator(pres, {g: ((g, 1),) for g in gens})
    variants = [rel[k:] + rel[:k] for k in range(len(rel))]
    variants += [inverse(v) for v in variants]
    for v in variants:
        assert _dehn_trivial(genus, v)
    rng = random.Random(7 + genus)
    conjugates = []
    for _ in range(60):
        u = _random_free_word(rng, gens, rng.randint(1, 6))
        conjugates.append(concat(u, rng.choice(variants), inverse(u)))
    for c in conjugates:
        assert _dehn_trivial(genus, c)
    for _ in range(60):
        assert _dehn_trivial(genus, concat(rng.choice(conjugates), rng.choice(conjugates)))
    # the abelianisation Z^2g is an independent oracle: a nonzero exponent sum
    # in some generator means the word is nontrivial in the surface group
    rejected = 0
    for _ in range(300):
        w = _random_free_word(rng, gens, rng.randint(1, 14))
        if any(sum(s for h, s in w if h == g) for g in gens):
            assert not _dehn_trivial(genus, w)
            rejected += 1
    assert rejected > 200


def test_power_product_probe():
    ab = parse_word("a b")
    a = parse_word("a")
    assert power_product_nontrivial([ab, ab], [a, a], [5, 5])
    assert power_product_nontrivial([ab], [()], [3])
    with pytest.raises(WordError):
        power_product_nontrivial([a, a], [(), a], [3, 3])
    with pytest.raises(WordError):
        power_product_nontrivial([()], [a], [2])
    with pytest.raises(WordError):
        power_product_nontrivial([a], [a], [2, 3])


def test_power_helper():
    assert power(parse_word("a b"), 2) == parse_word("a b a b")
    assert power(parse_word("a"), -2) == parse_word("a^-1 a^-1")
    assert power(parse_word("a"), 0) == ()


def test_the_library_takes_words_past_the_cli_cap():
    # the 512-letter cap is the command line's; the five word functions take
    # 600 letters on G10 and answer as the references and constructions say
    rng = random.Random(44)
    letters = _letters(G10)
    commutes = _commutation(G10)
    w = tuple(rng.choice(letters) for _ in range(600))
    assert normal_form(G10, w) == tuple(
        reference_canonical_sort(G10, _reduce_full(commutes, w)))
    u = w[:299]
    a = ((G10.vertices[0], 1),)
    assert is_trivial(G10, concat(w[:300], inverse(w[:300])))
    # a generator's exponent sum is 2, and the abelianization sees it
    assert not is_trivial(G10, concat(u, a, a, inverse(u)))
    assert are_equal(G10, w, concat(w[:300], w[300:]))
    assert not are_equal(G10, w, w[:-1])
    clique = sorted(max(_maximal_cliques(G10), key=len))
    x = tuple((rng.choice(clique), 1) for _ in range(16))
    c = tuple(rng.choice(letters) for _ in range(292))
    conj = concat(c, x, inverse(c))
    assert len(conj) == 600
    assert cyclic_normal_form(G10, conj) == reference_cyclic_normal_form(G10, conj)
    assert conjugate_into_clique(G10, conj) == frozenset(g for g, _ in x)
