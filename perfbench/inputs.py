"""Seeded inputs, made by the benchmark's own code, never by raagscope.

Graphs are adjacency dicts over 0..n-1 until they are written out as graph6
text under a seeded vertex relabelling; the program only ever sees that text.
Words are tuples of (generator, sign) letters built with known answers.
"""

from __future__ import annotations

import random
from itertools import combinations

Adj = dict[int, set[int]]


# ---------------------------------------------------------------------------
# graphs


def graph6(adj: Adj, rng: random.Random | None = None) -> str:
    """graph6 text of the graph, vertices shuffled by ``rng`` when given."""
    n = len(adj)
    perm = list(range(n))
    if rng is not None:
        rng.shuffle(perm)
    bits = []
    for j in range(1, n):
        for i in range(j):
            bits.append(1 if perm[j] in adj[perm[i]] else 0)
    bits += [0] * (-len(bits) % 6)
    body = [sum(b << (5 - k) for k, b in enumerate(bits[t:t + 6])) + 63
            for t in range(0, len(bits), 6)]
    return bytes([n + 63] + body).decode("ascii")


def decode_graph6(text: str) -> Adj:
    """The inverse of :func:`graph6`, for the benchmark's own checks."""
    data = text.encode("ascii")
    n = data[0] - 63
    bits = [(b - 63) >> (5 - k) & 1 for b in data[1:] for k in range(6)]
    adj: Adj = {v: set() for v in range(n)}
    t = 0
    for j in range(1, n):
        for i in range(j):
            if bits[t]:
                adj[i].add(j)
                adj[j].add(i)
            t += 1
    return adj


def gnm(n: int, m: int, rng: random.Random) -> Adj:
    """Uniform graph on n vertices with exactly m edges."""
    adj: Adj = {v: set() for v in range(n)}
    for i, j in rng.sample(list(combinations(range(n), 2)), m):
        adj[i].add(j)
        adj[j].add(i)
    return adj


def chordal(n: int, rng: random.Random) -> Adj:
    """Each new vertex is joined to a nonempty part of a clique made earlier,
    so it is simplicial when added and the graph stays chordal."""
    adj: Adj = {0: set()}
    cliques = [(0,)]
    for v in range(1, n):
        base = rng.choice(cliques)
        part = rng.sample(base, rng.randint(1, len(base)))
        adj[v] = set(part)
        for u in part:
            adj[u].add(v)
        cliques.append(tuple(sorted(part)) + (v,))
    return adj


def chordal_bipartite(n: int, rng: random.Random) -> Adj:
    """Edges between two sides, each added only if it is bisimplicial once
    added: every neighbour of one end is adjacent to every neighbour of the
    other.  Read backwards this is a bisimplicial edge elimination."""
    left = rng.randint(n // 3, n - n // 3)
    adj: Adj = {v: set() for v in range(n)}
    for _ in range(4 * n):
        a = rng.randrange(left)
        b = rng.randrange(left, n)
        if b in adj[a]:
            continue
        if all(y in adj[x] for x in adj[b] for y in adj[a]):
            adj[a].add(b)
            adj[b].add(a)
    return adj


def cycle(n: int) -> Adj:
    return {v: {(v - 1) % n, (v + 1) % n} for v in range(n)}


def complement(adj: Adj) -> Adj:
    return {v: {u for u in adj if u != v and u not in adj[v]} for v in adj}


# ---------------------------------------------------------------------------
# words


def names(n: int) -> list[str]:
    return ["v%d" % (i + 1) for i in range(n)]


def random_word(gens: list[str], length: int, rng: random.Random) -> tuple:
    return tuple((rng.choice(gens), rng.choice((1, -1))) for _ in range(length))


def positive_word(gens: list[str], length: int, rng: random.Random) -> tuple:
    """No letter is ever inverted, so nothing can cancel: the word is reduced
    and cyclically reduced as written."""
    return tuple((rng.choice(gens), 1) for _ in range(length))


def word_text(w: tuple) -> str:
    return " ".join(g if s > 0 else g + "^-1" for g, s in w)


def parse_word(text: str) -> tuple:
    return tuple((t[:-3], -1) if t.endswith("^-1") else (t, 1) for t in text.split())


def inverse(w: tuple) -> tuple:
    return tuple((g, -s) for g, s in reversed(w))


def exponent_sums(w: tuple) -> dict[str, int]:
    out: dict[str, int] = {}
    for g, s in w:
        out[g] = out.get(g, 0) + s
    return out


def shuffle_equal(w: tuple, edges: set[tuple[str, str]], swaps: int, pairs: int,
                  rng: random.Random) -> tuple:
    """An equal word: random swaps of adjacent commuting letters, then random
    insertions of ``x x^-1`` pairs."""
    out = list(w)
    for _ in range(swaps):
        if len(out) < 2:
            break
        i = rng.randrange(len(out) - 1)
        a, b = out[i][0], out[i + 1][0]
        if a == b or (min(a, b), max(a, b)) in edges:
            out[i], out[i + 1] = out[i + 1], out[i]
    gens = sorted({g for e in edges for g in e} | {g for g, _ in w})
    for _ in range(pairs):
        g = rng.choice(gens)
        s = rng.choice((1, -1))
        i = rng.randint(0, len(out))
        out[i:i] = [(g, s), (g, -s)]
    return tuple(out)
