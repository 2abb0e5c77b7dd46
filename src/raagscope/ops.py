"""Graph operations underlying the classification rules.

Complement, join, simplicial and bisimplicial tests, maximal cliques,
clique separators, the simplicial extension, and co-contraction. All functions
are pure; derived vertices get reserved "$"-prefixed names so they can never
collide with user input.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator

from .graphs import Graph, GraphError

__all__ = [
    "CliqueSplit",
    "ExtensionNaming",
    "complement",
    "induced",
    "join",
    "disjoint_union",
    "is_complete",
    "is_clique",
    "is_simplicial_vertex",
    "is_bisimplicial_edge",
    "remove_edge_interior",
    "maximal_cliques",
    "iter_clique_splits",
    "validate_clique_split",
    "simplicial_extension",
    "co_contract",
    "co_contract_edge",
    "connected_components",
    "is_connected",
]


def complement(g: Graph) -> Graph:
    edges = [(u, v) for u, v in combinations(g.vertices, 2) if not g.has_edge(u, v)]
    return Graph(g.vertices, edges)


def induced(g: Graph, s: Iterable[str]) -> Graph:
    keep = set(s)
    for v in keep:
        if not g.has_vertex(v):
            raise GraphError("unknown vertex %r" % (v,))
    edges = [(u, v) for u, v in g.edge_pairs if u in keep and v in keep]
    return Graph(sorted(keep), edges)


def join(g: Graph, h: Graph) -> Graph:
    shared = set(g.vertices) & set(h.vertices)
    if shared:
        raise GraphError("vertex name collision in join: %r" % (sorted(shared),))
    edges = list(g.edge_pairs) + list(h.edge_pairs)
    edges += [(u, v) for u in g.vertices for v in h.vertices]
    return Graph(g.vertices + h.vertices, edges)


def disjoint_union(g: Graph, h: Graph) -> Graph:
    shared = set(g.vertices) & set(h.vertices)
    if shared:
        raise GraphError("vertex name collision in union: %r" % (sorted(shared),))
    return Graph(g.vertices + h.vertices, list(g.edge_pairs) + list(h.edge_pairs))


def is_clique(g: Graph, s: Iterable[str]) -> bool:
    vs = sorted(set(s))
    for v in vs:
        if not g.has_vertex(v):
            raise GraphError("unknown vertex %r" % (v,))
    return all(g.has_edge(u, v) for u, v in combinations(vs, 2))


def is_complete(g: Graph) -> bool:
    return g.m == g.n * (g.n - 1) // 2


def is_simplicial_vertex(g: Graph, v: str) -> bool:
    return is_clique(g, g.adj(v))


def is_bisimplicial_edge(g: Graph, e: tuple[str, str]) -> bool:
    """True iff every neighbor of one endpoint is equal or adjacent to every
    neighbor of the other."""
    a, b = e
    if not g.has_edge(a, b):
        raise GraphError("%r is not an edge" % ((a, b),))
    for u in g.adj(a):
        for w in g.adj(b):
            if u != w and not g.has_edge(u, w):
                return False
    return True


def remove_edge_interior(g: Graph, e: tuple[str, str]) -> Graph:
    """Delete the edge but keep both endpoints."""
    a, b = e
    if not g.has_edge(a, b):
        raise GraphError("%r is not an edge" % ((a, b),))
    pair = (a, b) if a < b else (b, a)
    return Graph(g.vertices, [p for p in g.edge_pairs if p != pair])


def add_edge(g: Graph, e: tuple[str, str]) -> Graph:
    a, b = e
    if g.has_edge(a, b):
        raise GraphError("%r is already an edge" % ((a, b),))
    return Graph(g.vertices, list(g.edge_pairs) + [(a, b)])


def connected_components(g: Graph) -> list[tuple[str, ...]]:
    """Components as sorted vertex tuples, ordered by least member."""
    seen: set[str] = set()
    comps = []
    for start in g.vertices:
        if start in seen:
            continue
        stack = [start]
        comp = {start}
        seen.add(start)
        while stack:
            v = stack.pop()
            for w in g.adj(v):
                if w not in comp:
                    comp.add(w)
                    seen.add(w)
                    stack.append(w)
        comps.append(tuple(sorted(comp)))
    return comps


def is_connected(g: Graph) -> bool:
    return len(connected_components(g)) <= 1


def maximal_cliques(g: Graph) -> list[frozenset[str]]:
    """All maximal cliques, Bron-Kerbosch with pivoting, sorted by
    (size, members) for stable downstream numbering."""
    if g.n == 0:
        return []
    found: list[frozenset[str]] = []

    def bk(r: set[str], p: set[str], x: set[str]) -> None:
        if not p and not x:
            found.append(frozenset(r))
            return
        pivot = max(sorted(p | x), key=lambda u: len(g.adj(u) & p))
        for v in sorted(p - g.adj(pivot)):
            bk(r | {v}, p & g.adj(v), x & g.adj(v))
            p.remove(v)
            x.add(v)

    bk(set(), set(g.vertices), set())
    return sorted(found, key=lambda c: (len(c), tuple(sorted(c))))


@dataclass(frozen=True)
class CliqueSplit:
    """A decomposition g = left UNION right with complete intersection."""

    left: Graph
    right: Graph
    separator: frozenset[str]


def iter_clique_splits(g: Graph) -> Iterator[CliqueSplit]:
    """All ways to write g as a complete-graph amalgamation of two proper
    induced subgraphs, smallest separators first.

    The empty separator (a disconnected graph) counts: the empty graph is a
    complete graph here.
    """
    verts = g.vertices
    n = len(verts)
    for size in range(0, max(n - 1, 0)):
        for sep in combinations(verts, size):
            if not is_clique(g, sep):
                continue
            rest = [v for v in verts if v not in sep]
            if not rest:
                continue
            comps = connected_components(induced(g, rest))
            if len(comps) <= 1:
                continue
            emitted: set[frozenset[str]] = set()
            for comp in comps:
                left_set = frozenset(comp) | frozenset(sep)
                right_set = frozenset(verts) - frozenset(comp)
                key = frozenset((left_set, right_set))
                if key in emitted:
                    continue
                emitted.add(key)
                yield CliqueSplit(induced(g, left_set), induced(g, right_set), frozenset(sep))


def validate_clique_split(g: Graph, split: CliqueSplit) -> bool:
    """Re-check every CliqueSplit invariant from scratch."""
    lv = set(split.left.vertices)
    rv = set(split.right.vertices)
    if lv | rv != set(g.vertices):
        return False
    if lv & rv != set(split.separator):
        return False
    if lv == set(g.vertices) or rv == set(g.vertices):
        return False
    if not set(split.separator) <= set(g.vertices):
        return False
    if not is_clique(g, split.separator):
        return False
    if split.left != induced(g, lv) or split.right != induced(g, rv):
        return False
    # union of the parts must give back every edge: no cross edges allowed
    part_edges = set(split.left.edge_pairs) | set(split.right.edge_pairs)
    return part_edges == set(g.edge_pairs)


@dataclass(frozen=True)
class ExtensionNaming:
    """Which fresh vertex was attached for each (maximal clique, member)."""

    cliques: tuple[frozenset[str], ...]
    names: dict[tuple[int, str], str]


def simplicial_extension(g: Graph) -> tuple[Graph, ExtensionNaming]:
    """Attach one fresh simplicial vertex per (maximal clique K, member u),
    joined to all of K.

    The original graph is the induced subgraph on its own vertices; all fresh
    vertices are simplicial and pairwise nonadjacent.
    """
    cliques = tuple(maximal_cliques(g))
    names: dict[tuple[int, str], str] = {}
    verts = list(g.vertices)
    edges = list(g.edge_pairs)
    taken = set(verts)
    for k, clique in enumerate(cliques):
        for u in sorted(clique):
            fresh = "$x(%d,%s)" % (k, u)
            if fresh in taken:
                raise GraphError("fresh vertex name collision: %r" % (fresh,))
            taken.add(fresh)
            names[(k, u)] = fresh
            verts.append(fresh)
            edges.extend((fresh, w) for w in sorted(clique))
    return Graph(verts, edges), ExtensionNaming(cliques, names)


def co_contract(g: Graph, b: Iterable[str]) -> Graph:
    """Contract the complement of the induced subgraph on b inside the
    complement of g, then complement back.

    Requires that complement of the induced subgraph on b is connected. The
    merged vertex is named "$co(...)" over the sorted members; its link is the
    set of common neighbors of b.
    """
    bset = frozenset(b)
    if not bset:
        raise GraphError("co-contraction set must be nonempty")
    for v in bset:
        if not g.has_vertex(v):
            raise GraphError("unknown vertex %r" % (v,))
    if not is_connected(complement(induced(g, bset))):
        raise GraphError("complement of the induced subgraph on %r is disconnected"
                         % (sorted(bset),))
    if len(bset) == 1:
        return g
    fresh = "$co(%s)" % ",".join(sorted(bset))
    rest = [v for v in g.vertices if v not in bset]
    if fresh in rest:
        raise GraphError("fresh vertex name collision: %r" % (fresh,))
    common = set(rest)
    for v in bset:
        common &= g.adj(v)
    edges = [(u, v) for u, v in g.edge_pairs if u not in bset and v not in bset]
    edges += [(fresh, w) for w in sorted(common)]
    return Graph(rest + [fresh], edges)


def co_contract_edge(g: Graph, pair: tuple[str, str]) -> Graph:
    """Single-step co-contraction along one edge of the complement.

    The pair must be a non-edge of g; in the result the merged vertex's link is
    exactly the intersection of the two original links.
    """
    a, b = pair
    for v in (a, b):
        if not g.has_vertex(v):
            raise GraphError("unknown vertex %r" % (v,))
    if a == b:
        raise GraphError("pair must name two distinct vertices")
    if g.has_edge(a, b):
        raise GraphError("%r is an edge of the graph, not of its complement" % ((a, b),))
    return co_contract(g, (a, b))
