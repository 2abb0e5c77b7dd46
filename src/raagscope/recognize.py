"""Induced cycles.

find_induced_cycle finds the shortest induced cycle of a given least length,
optionally no longer than a given most, and CycleWitness holds one in cyclic
order; validate_cycle_witness re-checks a witness as an induced embedding of
a cycle, the check verify_obstruction makes for a C_k entry.
find_induced_cycle is the library's one cycle search: the obstruction scan
runs it for holes on g, or on the peel's core under classify, and for
antiholes on the complement of the same graph, bounded by the hole.

The recognizers of the paper's two corollaries, prover.is_chordal and
prover.is_chordal_bipartite, answer with a derivation or with a witness from
here; they live in prover because prover and obstructions import this module.
Both decide there with no cycle search: chordality by the prover's own peel
of simplicial cliques, chordal bipartiteness by a bipartiteness test and the
prover's search, which decides a bipartite core by the greedy pass of
bisimplicial edge removals. A cycle is searched for here only as the witness
of a graph outside the class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .graphs import Graph, _bits, _standard_names, standard_graph, verify_vertex_map


@dataclass(frozen=True)
class CycleWitness:
    """An induced cycle, listed in cyclic order. Length 3 is a triangle."""

    vertices: tuple[str, ...]


def find_induced_cycle(g: Graph, min_len: int,
                       max_len: Optional[int] = None) -> Optional[CycleWitness]:
    """Shortest induced cycle of length >= min_len, or None; with max_len,
    that cycle only if it has at most max_len vertices, else None.

    Deterministic: the cycle returned is the first by length, then by its
    smallest vertex (the start), then by ascending extensions. One depth-first
    search per start finds it: a search carries the length of the best cycle
    so far as a bound, records a closing only below it and extends a path only
    while a strictly shorter cycle can still close. A later start needs a
    strictly shorter cycle to win, and no start past n - min_len leaves room
    for one. max_len sets the bound before any path is extended, so it
    prunes from the first start on; the bound only ever drops to a length
    met, so the first cycle by length, start and extensions is never pruned
    while it has at most max_len vertices. obstructions.find_forbidden_induced
    bounds its antihole search, on the complement, by the hole it found.
    """
    if min_len < 3:
        raise ValueError("min_len must be at least 3")
    n = g.n
    best = [n + 1 if max_len is None else max_len + 1, None]  # [bound, cycle]
    for start in range(n - min_len + 1):
        if best[0] <= min_len:
            break
        later = ((1 << n) - 1) & ~((2 << start) - 1)
        _extend_cycle(g.rows, [start], 0, later, start, min_len, best)
    cycle = best[1]
    if cycle is None:
        return None
    return CycleWitness(tuple(g.vertices[v] for v in cycle))


def _extend_cycle(rows, path, interior, allowed, start, min_len, best):
    # invariant: path is an induced path of vertex positions, interior is the
    # mask of path[1:-1], and no interior vertex is adjacent to start; closing
    # requires the last vertex adjacent to start. Extensions run in ascending
    # order, so the first cycle recorded at a length is the least of that
    # length; the bound only ever drops, so it never cuts off an earlier one.
    k = len(path)
    last = path[-1]
    for v in _bits(rows[last] & allowed):
        # no chords back to the path interior (start handled separately)
        if rows[v] & interior:
            continue
        if k >= 2 and rows[v] >> start & 1:
            # closes a cycle of length k + 1, below the bound: path grew only
            # while k + 1 was below it, and cycles closed below path are
            # longer. It cannot be extended (a chord to start), and no
            # sibling closes a shorter one. No orientation filter: a cycle's
            # reverse has its length and is met later.
            if k + 1 >= min_len:
                best[0] = k + 1
                best[1] = path + [v]
                return
            continue
        if k + 2 >= best[0]:
            continue  # a cycle through path + [v] has length at least k + 2
        path.append(v)
        _extend_cycle(rows, path, interior | (1 << last if k >= 2 else 0),
                      allowed & ~(1 << v), start, min_len, best)
        path.pop()


def validate_cycle_witness(g: Graph, w: CycleWitness, min_len: int = 3) -> bool:
    """Whether w lists at least max(min_len, 3) vertices of g that induce a
    cycle in the order given."""
    k = len(w.vertices)
    if not max(min_len, 3) <= k <= g.n:
        return False
    return verify_vertex_map(standard_graph("cycle", k), g,
                             dict(zip(_standard_names(k), w.vertices)))
