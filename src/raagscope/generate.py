"""Graph samplers: random models and exhaustive small-graph enumeration."""

from __future__ import annotations

import random
from functools import lru_cache

from .graphs import Graph, _from_rows, canonical_key, standard_graph
from .ops import maximal_cliques


def random_graph(n: int, p: float, rng: random.Random) -> Graph:
    names = ["v%d" % (i + 1) for i in range(n)]
    edges = [(names[i], names[j])
             for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph(names, edges)


def random_chordal(n: int, rng: random.Random) -> Graph:
    """Iterated simplicial-vertex addition: each new vertex is glued onto a
    random subset of a random maximal clique, so every prefix is chordal."""
    g = standard_graph("complete", 1)
    for k in range(2, n + 1):
        fresh = "v%d" % k
        cliques = maximal_cliques(g)
        base = sorted(cliques[rng.randrange(len(cliques))])
        take = rng.randint(0, len(base))
        anchor = rng.sample(base, take)
        g = Graph(list(g.vertices) + [fresh],
                  list(g.edge_pairs) + [(fresh, a) for a in anchor])
    return g


def random_bipartite(n: int, p: float, rng: random.Random) -> Graph:
    names = ["v%d" % (i + 1) for i in range(n)]
    left_size = rng.randint(1, max(1, n - 1))
    left = set(names[:left_size])
    edges = [(u, v) for u in names for v in names
             if u < v and ((u in left) != (v in left)) and rng.random() < p]
    return Graph(names, edges)


@lru_cache(maxsize=None)
def nonisomorphic_graphs(n: int) -> tuple[Graph, ...]:
    """All isomorphism classes on n vertices (1, 2, 4, 11, 34, 156, 1044, ...),
    built by extending each (n-1)-vertex representative with every possible
    neighborhood and deduplicating by canonical form."""
    if n == 0:
        return (Graph([], []),)
    if n == 1:
        return (standard_graph("discrete", 1),)
    smaller = nonisomorphic_graphs(n - 1)
    fresh = "v%d" % n
    seen = {}
    for g in smaller:
        names = g.vertices + (fresh,)
        for mask in range(1 << (n - 1)):
            rows = tuple(r | (mask >> i & 1) << (n - 1) for i, r in enumerate(g.rows))
            h = _from_rows(names, rows + (mask,))
            key = canonical_key(h)
            if key not in seen:
                seen[key] = h
    return tuple(seen[k] for k in sorted(seen))
