"""The three workloads: seeded inputs, timed operations and their checks.

A workload's round is a fixed list of operations made from the seed; a run
repeats whole rounds.  ``decode`` is the program's share of set-up (parsing the
inputs); everything else outside the timed calls is the benchmark's own work.
"""

from __future__ import annotations

import random
import sys
from collections import Counter
from dataclasses import dataclass, field

import checks
import inputs as I
from checks import require


@dataclass
class Op:
    kind: str
    raw: float
    scaled: float | None  # None when the operation raised
    item: bool  # per-item operations make up op_p50_ms and op_p90_ms
    failed: bool = False


@dataclass
class Round:
    ops: list[Op] = field(default_factory=list)
    phases: Counter = field(default_factory=Counter)  # classify's own timings
    outputs: list = field(default_factory=list)

    def timed(self, clock, kind: str, fn, *args, item: bool = True, long: bool = False):
        """Time one operation.  One that raises is counted as failed, with no
        time, and its result is None."""
        try:
            out, raw, scaled = (clock.time_long if long else clock.time)(fn, *args)
        except Exception as exc:  # keep the run going; the failure is counted
            print("perfbench: %s raised %r" % (kind, exc), file=sys.stderr)
            self.ops.append(Op(kind, 0.0, None, item, failed=True))
            return None
        self.ops.append(Op(kind, raw, scaled, item))
        return out


def _classify_text(text: str, phases: Counter):
    from raagscope import graphs, prover

    timings: dict = {}
    verdict = prover.classify(graphs.parse_graph6(text), timings=timings)
    phases.update(timings)
    return verdict


def _adjacency(g) -> I.Adj:
    index = {v: i for i, v in enumerate(g.vertices)}
    adj: I.Adj = {i: set() for i in range(g.n)}
    for u, v in g.edge_pairs:
        adj[index[u]].add(index[v])
        adj[index[v]].add(index[u])
    return adj


def _check_verdicts(texts, verdicts) -> Counter:
    require(len(verdicts) == len(texts) and None not in verdicts, "a classify call failed")
    return Counter(checks.check_verdict(t, v) for t, v in zip(texts, verdicts))


# ---------------------------------------------------------------------------
# census7


class Census7:
    """Enumerate every graph on 7 vertices from a cold cache, then classify all
    1044 classes, each written out under a seeded relabelling, in seeded order."""

    name = "census7"
    N = 7

    def make_inputs(self, seed: int):
        return seed

    def decode(self, seed):
        return seed

    def run(self, clock, seed) -> Round:
        from raagscope import generate

        rnd = Round()
        rng = random.Random(seed)
        generate.nonisomorphic_graphs.cache_clear()
        classes = rnd.timed(clock, "enumerate", generate.nonisomorphic_graphs, self.N,
                            item=False, long=True)
        adjs = [_adjacency(g) for g in classes or ()]
        texts = [I.graph6(a, rng) for a in adjs]
        rng.shuffle(texts)
        verdicts = [rnd.timed(clock, "classify", _classify_text, t, rnd.phases) for t in texts]
        rnd.outputs = [[I.graph6(a) for a in adjs], texts, verdicts]
        return rnd

    def check(self, seed: int, rnd: Round) -> dict:
        classes, texts, verdicts = rnd.outputs
        checks.check_atlas(classes, self.N)
        counts = _check_verdicts(texts, verdicts)
        return {"verdicts": dict(sorted(counts.items()))}


# ---------------------------------------------------------------------------
# desk

# The batch's graphs are drawn once, from DESK_POOL_SEED; --seed draws each
# graph's vertex labelling and the batch order.  A few random graphs of
# middling density cost 30 times the median one, so drawing the graphs from
# --seed as well made a batch's CPU time range from 7.3 to 15.0 s over four
# seeds, while six labellings of one fixed batch stayed within 9.15 to 9.65 s.
DESK_POOL_SEED = 1
# random graphs on 10 vertices with exactly m edges: densities 0.2 to 0.8
DESK_EDGES = (9, 14, 18, 23, 27, 32, 36)
DESK_RANDOM_EACH = 12
# (vertices, how many) of the random chordal and of the chordal bipartite
# graphs; the many cheap small ones make the batch dense around its median
DESK_FAMILIES = ((10, 14), (11, 14), (12, 6))
DESK_CYCLES = (10, 11, 12, 13)


def desk_pool() -> list[I.Adj]:
    rng = random.Random(DESK_POOL_SEED)
    adjs = [I.gnm(10, m, rng) for m in DESK_EDGES for _ in range(DESK_RANDOM_EACH)]
    for n, count in DESK_FAMILIES:
        adjs += [I.chordal(n, rng) for _ in range(count)]
        adjs += [I.chordal_bipartite(n, rng) for _ in range(count)]
    for n in DESK_CYCLES:
        adjs += [I.cycle(n), I.complement(I.cycle(n))]
    return adjs


class Desk:
    """A batch of desk-scale graphs: random graphs over the whole density
    range, random chordal and chordal bipartite graphs, and C10..C13 with
    their complements, each under a seeded labelling, in seeded order."""

    name = "desk"

    def make_inputs(self, seed: int) -> list[str]:
        rng = random.Random(seed)
        texts = [I.graph6(a, rng) for a in desk_pool()]
        rng.shuffle(texts)
        return texts

    def decode(self, texts: list[str]) -> list[str]:
        from raagscope import graphs

        for t in texts:
            graphs.parse_graph6(t)
        return texts

    def run(self, clock, texts: list[str]) -> Round:
        rnd = Round()
        rnd.outputs = [rnd.timed(clock, "classify", _classify_text, t, rnd.phases)
                       for t in texts]
        return rnd

    def check(self, texts: list[str], rnd: Round) -> dict:
        counts = _check_verdicts(texts, rnd.outputs)
        return {"verdicts": dict(sorted(counts.items()))}


# ---------------------------------------------------------------------------
# words

# The group's graph is drawn once, from WORDS_GRAPH_SEED; --seed draws the
# words.  How often letters commute sets the cost of every query, so a graph
# drawn from --seed as well moved op_p50_ms by about 11% (interquartile range
# over five seeds).
WORDS_GRAPH_SEED = 1
WORDS_N = 10
WORDS_M = 18
NF_LENGTHS = (64, 96, 128, 192, 256, 384, 512)
# conjugate pairs (graph on v1..vn, word w, conjugator c) on which
# cyclic_normal_form gives w and c w c^-1 two different forms: the same three
# on every run, whatever the seed
FIXED_PAIRS = (
    (3, ((0, 2),), "v1 v3^-1 v1 v2 v2", "v3"),
    (3, ((0, 2),), "v3 v1 v2^-1 v3 v3", "v1^-1"),
    (4, ((0, 1), (1, 2), (2, 3)), "v1 v4 v2^-1 v3 v1", "v2^-1"),
)


@dataclass
class Query:
    kind: str
    graph: str  # graph6
    words: list  # texts in make_inputs, parsed words once decoded
    expect: object = None


def _cliques(adj: I.Adj) -> list[list[int]]:
    """Maximal cliques with at least two members, by brute force."""
    n = len(adj)
    out = []
    for s in range(1, 1 << n):
        members = [v for v in range(n) if s >> v & 1]
        if len(members) < 2 or any(u not in adj[v] for v in members for u in members if u < v):
            continue
        if any(all(x in adj[v] for x in members) for v in range(n) if not s >> v & 1):
            continue
        out.append(members)
    return out


class Words:
    """Queries on the group of one 10-vertex graph, each with an answer
    known from how its words were built, plus conjugate pairs for
    cyclic_normal_form."""

    name = "words"

    def make_inputs(self, seed: int) -> list[Query]:
        adj = I.gnm(WORDS_N, WORDS_M, random.Random(WORDS_GRAPH_SEED))
        group = I.graph6(adj)
        rng = random.Random(seed)
        gens = I.names(WORDS_N)
        edges = {(gens[u], gens[v]) if gens[u] < gens[v] else (gens[v], gens[u])
                 for u in adj for v in adj[u]}
        cliques = [[gens[v] for v in c] for c in _cliques(adj)]
        apart = sorted((gens[u], gens[v]) for u in range(WORDS_N)
                       for v in range(u + 1, WORDS_N) if v not in adj[u])
        queries = []

        def add(kind: str, ws: list, expect=None, graph: str = group) -> None:
            queries.append(Query(kind, graph, [I.word_text(w) for w in ws], expect))

        def word(length: int) -> tuple:
            return I.random_word(gens, length, rng)

        for length in NF_LENGTHS:
            for _ in range(10):
                w = word(length)
                pad = min(8, (512 - length) // 2)
                add("normal_form", [w, I.shuffle_equal(w, edges, length, pad, rng)])
            for k in range(6):
                u = word(length - 16)
                v = I.shuffle_equal(u, edges, length, 8, rng)
                if k % 2:
                    v += ((rng.choice(gens), rng.choice((1, -1))),)
                add("are_equal", [u, v], k % 2 == 0)
            for k in range(6):
                if k % 2 == 0:
                    u = word(length // 2 - 8)
                    w = u + I.inverse(I.shuffle_equal(u, edges, length, 4, rng))
                else:
                    w = word(length - 1)
                    g = rng.choice(gens)
                    w += ((g, 1 if I.exponent_sums(w).get(g, 0) >= 0 else -1),)
                add("is_trivial", [w], k % 2 == 0)
        # The costlier queries take their lengths from fixed schedules, so the
        # seed moves only which letters they hold.  Those answered None or
        # False cost most.  They are an eighth of all queries and all of one
        # length, so op_p90_ms falls among them, where neighbouring ranks cost
        # about the same.
        for k in range(8):
            x = I.random_word(rng.choice(cliques), 16 + 4 * k, rng)
            c = word(8 + k)
            add("conjugate_into_clique", [c + x + I.inverse(c)],
                sorted(g for g, e in I.exponent_sums(x).items() if e))
        for k in range(16):
            a, b = rng.choice(apart)
            x = ((a, 1), (b, 1)) + I.positive_word([a, b], 70, rng)
            c = word(8 + k)
            add("conjugate_into_clique", [c + x + I.inverse(c)], None)

        def relative(u: tuple, v: tuple, commute: bool) -> None:
            c = word(4 + len(u) // 2)
            p, q = c + u + I.inverse(c), c + v + I.inverse(c)
            d = q + p + I.inverse(q) + I.inverse(p)  # [x1,y1] d1 = 1
            add("is_relative_hom", [p, q, d], commute)

        for k in range(4):
            clique = rng.choice(cliques)
            relative(I.positive_word(clique, 2 + k, rng), I.positive_word(clique, 3 + k, rng), True)
        for _ in range(12):
            a, b = rng.choice(apart)
            relative(((a, 1),) * 17, ((b, 1),) * 18, False)
        for k in range(8):
            w = I.positive_word(gens, 24 + 3 * k, rng)
            add("cyclic_pair", [w, w[k + 1:] + w[:k + 1]])
        for n, pairs, w, c in FIXED_PAIRS:
            small: I.Adj = {v: set() for v in range(n)}
            for a, b in pairs:
                small[a].add(b)
                small[b].add(a)
            wt, ct = I.parse_word(w), I.parse_word(c)
            add("cyclic_pair", [wt, ct + wt + I.inverse(ct)], graph=I.graph6(small))
        return queries

    def decode(self, queries: list[Query]) -> list[Query]:
        from raagscope import graphs, words

        for g6 in {q.graph for q in queries}:
            graphs.parse_graph6(g6)
        return [Query(q.kind, q.graph, [words.parse_word(t) for t in q.words], q.expect)
                for q in queries]

    def run(self, clock, queries: list[Query]) -> Round:
        from raagscope import graphs, words

        pres = words.SurfacePresentation(1, 1)
        ops = {
            "normal_form": lambda g, w, _: words.normal_form(g, w),
            "are_equal": words.are_equal,
            "is_trivial": words.is_trivial,
            "conjugate_into_clique": words.conjugate_into_clique,
            "is_relative_hom": lambda g, *images: words.is_relative_hom(
                g, pres, dict(zip(("x1", "y1", "d1"), images))),
            "cyclic_pair": lambda g, u, v: (words.cyclic_normal_form(g, u),
                                            words.cyclic_normal_form(g, v)),
        }
        rnd = Round()
        for q in queries:
            # each query parses its graph anew, as a caller holding only the
            # graph6 text would
            fn = ops[q.kind]
            out = rnd.timed(clock, q.kind, lambda: fn(graphs.parse_graph6(q.graph), *q.words))
            if q.kind == "cyclic_pair" and out is not None and out[0] != out[1]:
                rnd.ops[-1].failed = True
            rnd.outputs.append(out)
        return rnd

    def check(self, queries: list[Query], rnd: Round) -> dict:
        from raagscope import graphs, words

        differing = 0
        for q, out, op in zip(queries, rnd.outputs, rnd.ops):
            if q.kind == "cyclic_pair":
                differing += op.failed
                continue
            require(not op.failed, "%s raised" % q.kind)
            if q.kind == "normal_form":
                g = graphs.parse_graph6(q.graph)
                require(words.normal_form(g, out) == out, "normal_form is not idempotent")
                require(words.normal_form(g, q.words[1]) == out,
                        "two equal words got different normal forms")
            elif q.kind == "conjugate_into_clique":
                want = None if q.expect is None else frozenset(q.expect)
                require(out == want, "conjugate_into_clique gave %r, expected %r" % (out, want))
            else:
                require(out == q.expect, "%s gave %r, expected %r" % (q.kind, out, q.expect))
        return {"cyclic_pairs_differing": differing}


WORKLOADS = {w.name: w for w in (Census7(), Desk(), Words())}
