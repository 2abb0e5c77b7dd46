"""Shared test oracles: deliberately naive, independent of the library's
search strategies."""

from __future__ import annotations

from collections import deque
from itertools import permutations

from raagscope.graphs import Graph, _bits
from raagscope.recognize import CycleWitness


def brute_induced(pattern: Graph, host: Graph):
    """All injective maps in lexicographic order; first adjacency-reflecting one."""
    pv = pattern.vertices
    for image in permutations(host.vertices, len(pv)):
        ok = True
        for i in range(len(pv)):
            for j in range(i + 1, len(pv)):
                if pattern.has_edge(pv[i], pv[j]) != host.has_edge(image[i], image[j]):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return dict(zip(pv, image))
    return None


def oracle_word_trivial(graph: Graph, word, cap: int = 2_000_000) -> bool:
    """BFS closure of the rewriting system {free cancellation, transposition
    of adjacent letters with distinct commuting generators}; trivial iff the
    empty word is reachable."""
    start = tuple(word)
    if not start:
        return True
    seen = {start}
    queue = deque([start])
    while queue:
        w = queue.popleft()
        for i in range(len(w) - 1):
            (g1, s1), (g2, s2) = w[i], w[i + 1]
            if g1 == g2 and s1 == -s2:
                nw = w[:i] + w[i + 2:]
                if not nw:
                    return True
                if nw not in seen:
                    seen.add(nw)
                    queue.append(nw)
            elif g1 != g2 and graph.has_edge(g1, g2):
                nw = w[:i] + (w[i + 1], w[i]) + w[i + 2:]
                if nw not in seen:
                    seen.add(nw)
                    queue.append(nw)
        if len(seen) > cap:
            raise RuntimeError("oracle state cap exceeded")
    return False


def enumerate_words(letters, max_len: int):
    """Every word (reduced or not) over the letter list, by length then lex."""
    from itertools import product

    for length in range(max_len + 1):
        for combo in product(letters, repeat=length):
            yield tuple(combo)


def reference_induced_cycle(g: Graph, min_len: int):
    """Shortest induced cycle of length >= min_len by iterative deepening: one
    full depth-first search per target length, starts and extensions
    ascending. The first cycle it finds is the one find_induced_cycle must
    return."""
    n = g.n
    rows = g.rows
    for target in range(min_len, n + 1):
        for start in range(n):
            later = ((1 << n) - 1) & ~((2 << start) - 1)
            found = _extend_to_target(rows, [start], 0, later, start, target)
            if found is not None:
                return CycleWitness(tuple(g.vertices[v] for v in found))
    return None


def _extend_to_target(rows, path, interior, allowed, start, target):
    # path is an induced path; interior is the mask of path[1:-1]
    k = len(path)
    last = path[-1]
    for v in _bits(rows[last] & allowed):
        if rows[v] & interior:
            continue
        adj_start = rows[v] >> start & 1
        if k + 1 == target:
            if adj_start:
                return path + [v]
            continue
        if k >= 2 and adj_start:
            continue
        path.append(v)
        got = _extend_to_target(rows, path, interior | (1 << last if k >= 2 else 0),
                                allowed & ~(1 << v), start, target)
        path.pop()
        if got is not None:
            return got
    return None
