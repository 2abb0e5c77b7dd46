"""Exhaustive enumeration of small graphs up to isomorphism."""

from __future__ import annotations

from functools import lru_cache

from .graphs import Graph, _from_rows, canonical_key


@lru_cache(maxsize=None)
def nonisomorphic_graphs(n: int) -> tuple[Graph, ...]:
    """All isomorphism classes on n vertices (1, 2, 4, 11, 34, 156, 1044, ...),
    built by extending each (n-1)-vertex representative with every possible
    neighborhood and deduplicating by canonical form."""
    if n == 0:
        return (Graph([], []),)
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
