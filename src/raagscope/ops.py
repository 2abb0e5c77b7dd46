"""Graph operations underlying the classification rules.

Complement, join, the clique and bisimplicial tests, the amalgam check,
maximal cliques, clique minimal separators, the simplicial extension, and
co-contraction. All functions are pure; derived vertices get reserved
"$"-prefixed names so they can never collide with user input.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Iterator

from .graphs import Graph, GraphError, _bits, _from_rows, _from_sorted, _relabel, _shared

__all__ = [
    "CliqueSplit",
    "ExtensionNaming",
    "complement",
    "join",
    "is_complete",
    "is_bisimplicial_edge",
    "maximal_cliques",
    "iter_clique_splits",
    "simplicial_extension",
    "co_contract",
    "co_contract_edge",
]


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    return _from_sorted(g.vertices, tuple(full ^ r ^ (1 << i) for i, r in enumerate(g.rows)))


def join(g: Graph, h: Graph) -> Graph:
    common = set(g.vertices) & set(h.vertices)
    if common:
        raise GraphError("vertex name collision in join: %r" % (sorted(common),))
    k = g.n
    low = (1 << k) - 1
    high = ((1 << h.n) - 1) << k
    rows = tuple(r | high for r in g.rows) + tuple(r << k | low for r in h.rows)
    return _from_rows(g.vertices + h.vertices, rows)


def _is_clique_mask(rows: tuple[int, ...], mask: int) -> bool:
    # one lowest bit at a time, stopping at the first member that misses
    # another: the peel, the chain checker and MCS-M ask this of most masks
    rest = mask
    while rest:
        low = rest & -rest
        if (rows[low.bit_length() - 1] | low) & mask != mask:
            return False
        rest ^= low
    return True


def _is_amalgam(rows: tuple[int, ...], rest: int, part: int, sep: int) -> bool:
    """Whether the graph on the vertex mask rest is the amalgam of its
    subgraphs on part and on rest - (part - sep) along the clique sep: sep a
    proper subset of part, part of rest, sep a clique, and no edge from
    part - sep to rest - part. The derivation checker's one amalgam check."""
    if part & ~rest or part == rest or sep & ~part or sep == part:
        return False
    if not _is_clique_mask(rows, sep):
        return False
    outside = rest & ~part
    return not any(rows[u] & outside for u in _bits(part & ~sep))


def _is_bipartite(rows: tuple[int, ...]) -> bool:
    """Whether the graph on these rows has no odd cycle: breadth first from
    the least vertex of each component, no edge joins two vertices of one
    layer, since every edge joins one layer or two consecutive ones."""
    unseen = (1 << len(rows)) - 1
    while unseen:
        layer = unseen & -unseen
        while layer:
            unseen &= ~layer
            reach = 0
            for v in _bits(layer):
                reach |= rows[v]
            if reach & layer:
                return False
            layer = reach & unseen
    return True


def is_complete(g: Graph) -> bool:
    return g.m == g.n * (g.n - 1) // 2


def _is_bisimplicial(rows: tuple[int, ...], a: int, b: int) -> bool:
    """is_bisimplicial_edge for the edge between positions a and b."""
    nb = rows[b]
    return all(not nb & ~(rows[u] | 1 << u) for u in _bits(rows[a]))


def _bisimplicial_edges(rows: tuple[int, ...]) -> Iterator[tuple[int, int]]:
    """The bisimplicial edges as position pairs a < b, in edge_pairs order."""
    for a, row in enumerate(rows):
        for b in _bits(row & ~((2 << a) - 1)):
            if _is_bisimplicial(rows, a, b):
                yield a, b


def is_bisimplicial_edge(g: Graph, e: tuple[str, str]) -> bool:
    """True iff every neighbor of one endpoint is equal or adjacent to every
    neighbor of the other."""
    a, b = e
    if not g.has_edge(a, b):
        raise GraphError("%r is not an edge" % ((a, b),))
    return _is_bisimplicial(g.rows, g.index(a), g.index(b))


def _component_masks(rows: tuple[int, ...], within: int) -> list[int]:
    """Connected components of the subgraph induced on a vertex mask, ordered
    by least member."""
    comps = []
    while within:
        comp = frontier = within & -within
        while frontier:
            reach = 0
            for v in _bits(frontier):
                reach |= rows[v]
            frontier = reach & within & ~comp
            comp |= frontier
        comps.append(comp)
        within &= ~comp
    return comps


def _maximal_clique_masks(rows: tuple[int, ...]) -> Iterator[int]:
    """The maximal cliques as vertex masks, one at a time, in the order
    Bron-Kerbosch with pivoting meets them."""

    def bk(r: int, p: int, x: int) -> Iterator[int]:
        if not p and not x:
            yield r
            return
        # pivot: the first vertex with the most neighbours in p
        pivot = max(_bits(p | x), key=lambda u: (rows[u] & p).bit_count())
        for v in _bits(p & ~rows[pivot]):
            yield from bk(r | 1 << v, p & rows[v], x & rows[v])
            p &= ~(1 << v)
            x |= 1 << v

    if rows:
        yield from bk(0, (1 << len(rows)) - 1, 0)


def maximal_cliques(g: Graph) -> list[frozenset[str]]:
    """All maximal cliques, Bron-Kerbosch with pivoting, sorted by
    (size, members) for stable downstream numbering."""
    return _sorted_cliques(g, _maximal_clique_masks(g.rows))


def _sorted_cliques(g: Graph, masks: Iterable[int]) -> list[frozenset[str]]:
    """The cliques given as masks, named and in maximal_cliques' order."""
    cliques = [g.names(c) for c in masks]
    return [frozenset(c) for c in sorted(cliques, key=lambda c: (len(c), c))]


@dataclass(frozen=True)
class CliqueSplit:
    """A decomposition g = left UNION right with complete intersection."""

    left: Graph
    right: Graph
    separator: frozenset[str]


def _clique_minimal_separators(rows: tuple[int, ...], n: int) -> list[int]:
    """The clique minimal separators of the graph, as bitmasks sorted by size,
    then by their ascending member positions.

    One MCS-M pass (Berry, Blair, Heggernes and Peyton, Maximum cardinality
    search for computing minimal triangulations, Algorithmica 2004) numbers
    the vertices from n down to 1, each time the unnumbered vertex x of the
    largest label, the first on ties. Every unnumbered y that x reaches by a
    path whose inner vertices are unnumbered and labelled below y gets its
    label raised and an edge to x in the triangulation H, which is minimal.
    The minimal separators of H are the sets madj(x) of H-neighbours numbered
    before x, taken where x's label at its numbering is at most that of the
    vertex numbered just before it; those that are cliques of the graph are
    exactly its clique minimal separators (Berry, Pogorelcnik and Simonet, An
    introduction to clique minimal separator decomposition, Algorithms 2010;
    Tarjan, Decomposition by clique separators, 1985). O(nm) in all.

    The unnumbered vertices are kept as label classes, one bitmask per label
    held by some of them, for the whole pass: x is the lowest bit of the top
    class, which is the first vertex of the largest label, and after each
    step only the raised vertices move, each up one class.
    """
    madj = [0] * n
    levels: dict[int, int] = {0: (1 << n) - 1} if n else {}
    found: set[int] = set()
    previous = -1
    while levels:
        top = max(levels)
        at = levels[top]
        low = at & -at
        x = low.bit_length() - 1
        if top <= previous and _is_clique_mask(rows, madj[x]):
            found.add(madj[x])
        previous = top
        if at == low:
            del levels[top]
        else:
            levels[top] = at ^ low
        # by ascending level L: reached holds the vertices labelled below L
        # that x reaches through such vertices, border their neighbours and
        # x's; the members of L in border are raised
        moves = []
        reached = below = 0
        border = rows[x]
        for level in sorted(levels):
            at = levels[level]
            frontier = at & border
            if frontier:
                moves.append((level, frontier))
            below |= at
            while frontier:
                reached |= frontier
                for v in _bits(frontier):
                    border |= rows[v]
                frontier = border & below & ~reached
        for level, up in moves:
            at = levels[level] ^ up
            if at:
                levels[level] = at
            else:
                del levels[level]
            levels[level + 1] = levels.get(level + 1, 0) | up
            for y in _bits(up):
                madj[y] |= low
    return sorted(found, key=lambda s: (s.bit_count(), tuple(_bits(s))))


def iter_clique_splits(g: Graph) -> Iterator[CliqueSplit]:
    """The ways to write g as a complete-graph amalgamation of two proper
    induced subgraphs along a clique minimal separator: a clique S such that
    g - S has at least two components C with N(C) = S. Smallest separators
    come first, separators of one size in lexicographic order of their
    member positions, and each yields one split per component of g - S.

    The separators come from one MCS-M pass (see _clique_minimal_separators),
    not from enumerating cliques, so a prime graph costs O(nm). Only minimal
    separators are listed; a smallest clique separator is always minimal, so
    the first split is the first of all clique splits. The empty separator (a
    disconnected graph) counts: the empty graph is a complete graph here.
    """
    n = g.n
    rows = g.rows
    full = (1 << n) - 1
    for sep in _clique_minimal_separators(rows, n):
        emitted: set[frozenset[int]] = set()
        separator = _shared(frozenset(g.names(sep)))
        for comp in _component_masks(rows, full & ~sep):
            left = comp | sep
            right = full & ~comp
            key = frozenset((left, right))
            if key in emitted:
                continue
            emitted.add(key)
            yield CliqueSplit(g.subgraph(left), g.subgraph(right), separator)


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
    return _extension(g, _maximal_clique_masks(g.rows))


def _extension(g: Graph, masks: Iterable[int]) -> tuple[Graph, ExtensionNaming]:
    """simplicial_extension(g), given the maximal cliques of g as masks in
    any order: cli.cmd_ops lists them once, to bound the extension's order
    before any vertex is built."""
    cliques = tuple(_sorted_cliques(g, masks))
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
    names = sorted(set(b))  # sorted, so the least unknown name is the one reported
    if not names:
        raise GraphError("co-contraction set must be nonempty")
    bm = g.mask(names)
    rows = g.rows
    co_rows = tuple(~r & bm & ~(1 << i) for i, r in enumerate(rows))
    if len(_component_masks(co_rows, bm)) > 1:
        raise GraphError("complement of the induced subgraph on %r is disconnected"
                         % (names,))
    if len(names) == 1:
        return g
    fresh = "$co(%s)" % ",".join(names)
    n = g.n
    rest = ((1 << n) - 1) & ~bm
    if g.has_vertex(fresh) and not bm >> g.index(fresh) & 1:
        raise GraphError("fresh vertex name collision: %r" % (fresh,))
    common = rest
    for v in _bits(bm):
        common &= rows[v]
    # the merged vertex enters as a virtual row n, then one renumbering keeps
    # the rest and puts it at its sorted place among their names
    extended = list(rows)
    for v in _bits(common):
        extended[v] |= 1 << n
    extended.append(common)
    keep = _bits(rest)
    kept = [g.vertices[i] for i in keep]
    at = bisect_left(kept, fresh)
    kept.insert(at, fresh)
    return _from_sorted(tuple(kept), _relabel(extended, [*keep[:at], n, *keep[at:]]))


def co_contract_edge(g: Graph, pair: tuple[str, str]) -> Graph:
    """Single-step co-contraction along one edge of the complement.

    The pair must be a non-edge of g; in the result the merged vertex's link is
    exactly the intersection of the two original links.
    """
    a, b = pair
    if a == b:
        raise GraphError("pair must name two distinct vertices")
    if g.has_edge(a, b):
        raise GraphError("%r is an edge of the graph, not of its complement" % ((a, b),))
    return co_contract(g, (a, b))
