"""Chordal and chordal-bipartite recognition with checkable certificates.

Positive answers come with an elimination order that can be replayed; negative
answers come with an induced cycle (or triangle) witness. Both greedy passes
are complete, so neither needs a fallback search:

- a graph with no simplicial vertex has an induced cycle of length >= 4
  (Dirac, On rigid circuit graphs, Abh. Math. Sem. Univ. Hamburg 1961), which
  find_induced_cycle finds;
- every chordal bipartite graph with an edge has a bisimplicial edge
  (Golumbic and Goss, Perfect elimination and chordal bipartite graphs,
  J. Graph Theory 1978), and deleting any one keeps the graph chordal
  bipartite (see is_chordal_bipartite), so greedy edge elimination never
  stalls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .graphs import Graph, _bits
from .ops import (_is_clique_mask, induced, is_bisimplicial_edge,
                  is_simplicial_vertex, remove_edge_interior)


@dataclass(frozen=True)
class ChordalCertificate:
    """Perfect elimination ordering: each vertex is simplicial among the
    vertices at or after its position."""

    order: tuple[str, ...]


@dataclass(frozen=True)
class CycleWitness:
    """An induced cycle, listed in cyclic order. Length 3 is a triangle."""

    vertices: tuple[str, ...]


@dataclass(frozen=True)
class EdgeEliminationOrder:
    """Edges removable one by one, each bisimplicial at its removal step,
    ending at a discrete graph."""

    edges: tuple[tuple[str, str], ...]


def find_induced_cycle(g: Graph, min_len: int) -> Optional[CycleWitness]:
    """Shortest induced cycle of length >= min_len, or None.

    Deterministic: the cycle returned is the first by length, then by its
    smallest vertex (the start), then by ascending extensions. One depth-first
    search per start finds it: a search carries the length of the best cycle
    so far as a bound, records a closing only below it and extends a path only
    while a strictly shorter cycle can still close. A later start needs a
    strictly shorter cycle to win, and no start past n - min_len leaves room
    for one.
    """
    if min_len < 3:
        raise ValueError("min_len must be at least 3")
    n = g.n
    rows = g.rows
    best = [n + 1, None]  # [bound, cycle]: only lengths below the bound count
    for start in range(n - min_len + 1):
        if best[0] == min_len:
            break
        later = ((1 << n) - 1) & ~((2 << start) - 1)
        _extend_cycle(rows, [start], 0, later, start, min_len, best)
    if best[1] is None:
        return None
    return CycleWitness(tuple(g.vertices[v] for v in best[1]))


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
    vs = w.vertices
    k = len(vs)
    if k < min_len or len(set(vs)) != k:
        return False
    if not all(g.has_vertex(v) for v in vs):
        return False
    for i in range(k):
        for j in range(i + 1, k):
            adjacent = j - i == 1 or (i == 0 and j == k - 1)
            if g.has_edge(vs[i], vs[j]) != adjacent:
                return False
    return True


def validate_chordal_certificate(g: Graph, cert: ChordalCertificate) -> bool:
    if sorted(cert.order) != list(g.vertices):
        return False
    remaining = list(cert.order)
    for i, v in enumerate(remaining):
        sub = induced(g, remaining[i:])
        if not is_simplicial_vertex(sub, v):
            return False
    return True


def elimination_order(rows: tuple[int, ...], left: int) -> Optional[list[int]]:
    """Greedy simplicial elimination of the vertices in the mask left, the
    first simplicial position at each step; None on a stall.

    Removing a simplicial vertex never breaks chordality, so the pass returns
    a perfect elimination order exactly when the induced subgraph on left is
    chordal.
    """
    order: list[int] = []
    while left:
        for v in _bits(left):
            if _is_clique_mask(rows, rows[v] & left):
                break
        else:
            return None
        order.append(v)
        left &= ~(1 << v)
    return order


def is_chordal(g: Graph) -> Union[ChordalCertificate, CycleWitness]:
    """The order elimination_order finds, by name; on a stall, the shortest
    induced cycle of length at least 4.

    The pass stalls only on a non-chordal g: the stalled subgraph has no
    simplicial vertex, so it holds an induced cycle of length >= 4 (Dirac),
    which is one of g, and find_induced_cycle(g, 4) finds the shortest.
    """
    order = elimination_order(g.rows, (1 << g.n) - 1)
    if order is None:
        return find_induced_cycle(g, 4)
    return ChordalCertificate(tuple(g.vertices[v] for v in order))


def validate_edge_elimination(g: Graph, order: EdgeEliminationOrder) -> bool:
    current = g
    for e in order.edges:
        if not current.has_edge(*e):
            return False
        if not is_bisimplicial_edge(current, e):
            return False
        current = remove_edge_interior(current, e)
    return current.m == 0


def is_chordal_bipartite(g: Graph) -> Union[EdgeEliminationOrder, CycleWitness]:
    """Decide by definition (no triangle, no induced cycle of length >= 5),
    then build the bisimplicial elimination order as the positive certificate.

    The greedy elimination never stalls: a bisimplicial edge exists (Golumbic
    and Goss), and deleting it keeps the graph bipartite and creates no induced
    cycle of length >= 6, since such a cycle would pass through both
    endpoints, each of whose neighbours is adjacent to every neighbour of the
    other, giving a chord.
    """
    tri = find_induced_cycle(g, 3)
    if tri is not None and len(tri.vertices) == 3:
        return tri
    long_cycle = find_induced_cycle(g, 5)
    if long_cycle is not None:
        return long_cycle
    order = _greedy_bisimplicial(g)
    if order is None:
        raise AssertionError("chordal bipartite graph without an edge elimination order")
    return EdgeEliminationOrder(tuple(order))


def _greedy_bisimplicial(g: Graph) -> Optional[list[tuple[str, str]]]:
    current = g
    order: list[tuple[str, str]] = []
    while current.m:
        pick = None
        for e in current.edge_pairs:
            if is_bisimplicial_edge(current, e):
                pick = e
                break
        if pick is None:
            return None
        order.append(pick)
        current = remove_edge_interior(current, pick)
    return order

