"""Finite simple graphs with named vertices.

Everything downstream (group-theoretic classification, certificates) keys on
vertex names, so graphs are immutable, vertices are kept in sorted order, and
every operation that returns a collection returns it in a deterministic order.

A graph is its sorted tuple of names plus one adjacency row per vertex: a
Python int whose bit j is set when the vertex is adjacent to the j-th name.
Edge pairs and neighbourhoods are derived from the rows; library code works
on the rows directly, as mask arithmetic. Every graph derived from another
(an induced subgraph, a re-sorted graph, a co-contraction, a canonical
leaf) has its rows renumbered by one function, _relabel.

Two searches answer structural questions. find_induced is a backtracking
search for an induced copy of a pattern; the obstruction scans use it, and
its fixed search order (pattern vertices by position, host positions
ascending) fixes the embeddings they report. Each pattern vertex keeps a
mask of the host positions still possible for it, narrowed by every
assignment before it (forward checking), and an assignment that empties
one is dropped; that cuts only branches with no completion, so the first
embedding is the plain depth-first search's. Isomorphism is decided
by canonical labeling, individualization-refinement (McKay, Practical graph
isomorphism, 1981; McKay and Piperno, Practical graph isomorphism II, JSC
2014): refine to the coarsest equitable ordered partition, branch on the
first smallest non-singleton cell, and keep the leaf whose relabelled
adjacency matrix is least. Twins and automorphisms found from equal leaves
prune the branching. Two graphs are isomorphic exactly when their keys
agree, and their canonical orders then give the bijection. Target scale is
a few dozen vertices at most.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Iterable, Optional, Sequence

RESERVED_PREFIX = "$"


class GraphError(ValueError):
    pass


def _check_name(name: str) -> str:
    if not isinstance(name, str) or not name:
        raise GraphError("vertex name must be a nonempty string: %r" % (name,))
    if name.split() != [name]:
        raise GraphError("vertex name may not contain whitespace: %r" % (name,))
    return name


@lru_cache(maxsize=4096)
def _shared(value):
    # one stored copy of an immutable value, such as a name tuple, a
    # separator or a chain step: the graphs and derivations a search keeps
    # hold many equal copies of few values. A batch that classifies the same
    # graphs again meets its values in the same order each time, so a cache
    # smaller than one pass's values (about 1600 on a desk batch of 160
    # graphs on 10 to 13 vertices) evicts each before its next use and
    # shares nothing
    return value


@lru_cache(maxsize=64)
def _name_index(vertices: tuple[str, ...]) -> dict[str, int]:
    # name -> position, shared by every graph on these names; never mutated
    return {v: i for i, v in enumerate(vertices)}


@lru_cache(maxsize=64)
def _standard_names(n: int) -> tuple[str, ...]:
    # v1..vn, shared by every graph read from graph6 or built by standard_graph
    return tuple("v%d" % (i + 1) for i in range(n))


@lru_cache(maxsize=64)
def _graph6_layout(n: int) -> tuple[tuple[str, ...], tuple[int, ...], tuple[int, ...]]:
    """(names, at, bit): v1..vn in sorted order, which puts v10 before v2
    once n >= 10; at[k], the position among them of v(k+1), graph6 vertex
    k; and bit[k] = 1 << at[k]."""
    names = _standard_names(n)
    order = sorted(range(n), key=names.__getitem__)
    at = [0] * n
    for position, k in enumerate(order):
        at[k] = position
    return _shared(tuple(names[k] for k in order)), tuple(at), tuple(1 << p for p in at)


# the set-bit positions of every byte value, ascending, and the same shifted
# by 8 for the high byte: together they cover every mask below 2^16, that is
# every row and mask of a graph on up to 16 vertices
_BYTE_BITS = tuple(tuple(j for j in range(8) if b >> j & 1) for b in range(256))
_HIGH_BITS = tuple(tuple(j + 8 for j in low) for low in _BYTE_BITS)


def _bits(mask: int) -> Sequence[int]:
    """Positions of the set bits, ascending: a shared tuple from the byte
    table for a mask below 256, a new tuple joined from the two byte tables
    below 2^16, else a new list walked one lowest bit at a time. The one
    full walk over a mask's set bits."""
    if mask < 256:
        return _BYTE_BITS[mask]
    if mask < 65536:
        return _BYTE_BITS[mask & 255] + _HIGH_BITS[mask >> 8]
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _relabel(rows: tuple[int, ...], order: Sequence[int]) -> tuple[int, ...]:
    """Rows of the graph induced on the positions listed in order, position
    order[i] renumbered i. The one place adjacency rows are renumbered; each
    row is walked by _bits, from its tables on up to 16 vertices."""
    bit = [0] * len(rows)
    mask = 0
    for new, old in enumerate(order):
        bit[old] = 1 << new
        mask |= 1 << old
    out = []
    for old in order:
        r = 0
        for j in _bits(rows[old] & mask):
            r |= bit[j]
        out.append(r)
    return tuple(out)


class Graph:
    """Immutable simple graph. Vertices are name strings, edges unordered pairs.

    The constructor validates structure (no loops, no dangling endpoints,
    no duplicate names) but accepts reserved "$"-prefixed names; use
    :func:`new_graph` for user input. ``rows[i]`` is the neighbourhood of
    ``vertices[i]`` as a bitmask over positions in ``vertices``.

    Lookups by name go through one name -> position dict per name tuple, kept
    in a bounded table that every graph on those names shares, so the many
    graphs a derivation keeps hold none of their own.
    """

    __slots__ = ("vertices", "rows")

    def __init__(self, vertices: Iterable[str], edges: Iterable[tuple[str, str]]):
        vlist = [_check_name(v) for v in vertices]
        names = _shared(tuple(sorted(vlist)))
        index = _name_index(names)
        if len(index) != len(vlist):
            raise GraphError("duplicate vertex name")
        rows = [0] * len(names)
        for e in edges:
            try:
                u, v = e
                iu = index.get(u)
                iv = index.get(v)
            except (TypeError, ValueError):
                raise GraphError("edge must be a pair of vertex names: %r" % (e,)) from None
            if u == v:
                raise GraphError("loop edge at %r" % (u,))
            if iu is None or iv is None:
                raise GraphError("edge endpoint not in vertex list: %r" % ((u, v),))
            rows[iu] |= 1 << iv
            rows[iv] |= 1 << iu
        _init(self, names, tuple(rows))

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def m(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    @property
    def edge_pairs(self) -> tuple[tuple[str, str], ...]:
        """Edges as (u, v) with u < v, sorted."""
        vs = self.vertices
        out = []
        for i, row in enumerate(self.rows):
            for j in _bits(row >> (i + 1)):
                out.append((vs[i], vs[i + 1 + j]))
        return tuple(out)

    def index(self, v: str) -> int:
        """Position of v in ``vertices``."""
        try:
            return _name_index(self.vertices)[v]
        except KeyError:
            raise GraphError("unknown vertex %r" % (v,)) from None

    def mask(self, names: Iterable[str]) -> int:
        """Bitmask of the named vertices."""
        index = _name_index(self.vertices)
        out = 0
        try:
            for v in names:
                out |= 1 << index[v]
        except KeyError:
            raise GraphError("unknown vertex %r" % (v,)) from None
        return out

    def names(self, mask: int) -> tuple[str, ...]:
        """Names of the vertices in a bitmask, sorted."""
        vs = self.vertices
        return tuple(vs[i] for i in _bits(mask))

    def has_vertex(self, v: str) -> bool:
        return v in _name_index(self.vertices)

    def has_edge(self, u: str, v: str) -> bool:
        index = _name_index(self.vertices)
        try:
            return self.rows[index[u]] >> index[v] & 1 == 1
        except KeyError:
            return False

    def adj(self, v: str) -> frozenset[str]:
        return frozenset(self.names(self.rows[self.index(v)]))

    def subgraph(self, mask: int) -> "Graph":
        """Induced subgraph on a vertex bitmask."""
        keep = _bits(mask)
        vs = self.vertices
        return _from_sorted(tuple(vs[i] for i in keep), _relabel(self.rows, keep))

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.vertices == other.vertices and self.rows == other.rows

    def __hash__(self):
        return hash((self.vertices, self.rows))

    def __repr__(self):
        return "Graph(%d vertices, %d edges)" % (self.n, self.m)


_set_vertices = Graph.vertices.__set__
_set_rows = Graph.rows.__set__


def _init(g: Graph, names: tuple[str, ...], rows: tuple[int, ...]) -> None:
    _set_vertices(g, names)
    _set_rows(g, rows)


def _from_rows(names: tuple[str, ...], rows: tuple[int, ...]) -> Graph:
    """Trusted constructor for library code that derives a graph from another.

    ``names`` must be distinct valid vertex names and ``rows`` symmetric,
    loop-free bitmasks over positions in ``names``; neither is checked. Names
    out of sorted order are sorted and the rows permuted to match.
    """
    order = sorted(range(len(names)), key=names.__getitem__)
    if any(i != k for i, k in enumerate(order)):
        names = tuple(names[i] for i in order)
        rows = _relabel(rows, order)
    return _from_sorted(names, rows)


def _from_sorted(names: tuple[str, ...], rows: tuple[int, ...]) -> Graph:
    # _from_rows for names already in sorted order
    g = object.__new__(Graph)
    _init(g, _shared(names), rows)
    return g


def new_graph(vertices: Iterable[str], edges: Iterable[tuple[str, str]]) -> Graph:
    """Validated constructor for user-supplied graphs.

    Rejects the reserved "$" name prefix, which the library uses for vertices
    it manufactures (contractions, extensions).
    """
    vlist = list(vertices)
    for v in vlist:
        if isinstance(v, str) and v.startswith(RESERVED_PREFIX):
            raise GraphError("vertex name uses reserved prefix %r: %r" % (RESERVED_PREFIX, v))
    return Graph(vlist, edges)


def standard_graph(kind: str, n: int) -> Graph:
    """Build complete/cycle/path/discrete graphs on canonical names v1..vn."""
    if n < 1:
        raise GraphError("n must be positive")
    names = _standard_names(n)
    if kind == "complete":
        edges = list(combinations(names, 2))
    elif kind == "cycle":
        if n < 3:
            raise GraphError("cycle needs at least 3 vertices")
        edges = [(names[i], names[(i + 1) % n]) for i in range(n)]
    elif kind == "path":
        edges = [(names[i], names[i + 1]) for i in range(n - 1)]
    elif kind == "discrete":
        edges = []
    else:
        raise GraphError("unknown standard graph kind %r" % (kind,))
    return Graph(names, edges)


# ---------------------------------------------------------------------------
# induced-subgraph search


def find_induced(pattern: Graph, host: Graph) -> Optional[dict[str, str]]:
    """First injective map (in sorted search order) realizing pattern as an
    induced subgraph of host, or None.

    The map preserves and reflects adjacency: {u,v} is an edge of the pattern
    iff the image pair is an edge of the host.

    The search order is fixed: pattern vertices are assigned by position,
    each to the host positions in ascending order, and the first complete
    assignment wins. Each pattern vertex keeps a mask of the host positions
    still possible for it (Ullmann, An algorithm for subgraph isomorphism,
    JACM 1976, reduced to forward checking): it starts as the host vertices
    of at least its degree, and assigning an earlier vertex j to host c
    narrows it to the neighbours of c if the two pattern vertices are
    adjacent, else to the non-neighbours of c other than c. A candidate in
    its mask is consistent with every assignment before it, and an
    assignment that empties a later mask is dropped: it has no completion.
    So the masks cut only dead branches, and the first embedding is the one
    the plain depth-first search over all host positions finds.
    """
    np_, nh = pattern.n, host.n
    if np_ > nh:
        return None
    if np_ == 0:
        return {}
    prows = pattern.rows
    hrows = host.rows
    hdeg = [r.bit_count() for r in hrows]
    at_least: dict[int, int] = {}
    masks = []
    for r in prows:
        d = r.bit_count()
        m = at_least.get(d)
        if m is None:
            m = at_least[d] = sum(1 << c for c in range(nh) if hdeg[c] >= d)
            if not m:
                return None
        masks.append(m)
    # adjacent[k][i]: pattern vertex k is adjacent to vertex k + 1 + i
    adjacent = [[r >> i & 1 for i in range(k + 1, np_)] for k, r in enumerate(prows)]
    full = (1 << nh) - 1
    last = np_ - 1
    assigned = [0] * np_

    def extend(k: int, masks: list[int]) -> bool:
        # masks[i] is the candidate mask of pattern vertex k + i, none empty
        if k == last:
            assigned[k] = (masks[0] & -masks[0]).bit_length() - 1
            return True
        rest = masks[1:]
        adj = adjacent[k]
        for c in _bits(masks[0]):
            hr = hrows[c]
            miss = full ^ hr ^ (1 << c)
            narrowed = []
            for m, a in zip(rest, adj):
                m &= hr if a else miss
                if not m:
                    break
                narrowed.append(m)
            else:
                assigned[k] = c
                if extend(k + 1, narrowed):
                    return True
        return False

    if extend(0, masks):
        pv, hv = pattern.vertices, host.vertices
        return {pv[k]: hv[assigned[k]] for k in range(np_)}
    return None


def verify_vertex_map(pattern: Graph, host: Graph, mapping: dict[str, str]) -> bool:
    """Re-check that mapping is an injective, adjacency-reflecting embedding."""
    if set(mapping.keys()) != set(pattern.vertices):
        return False
    images = list(mapping.values())
    if len(set(images)) != len(images):
        return False
    index = _name_index(host.vertices)
    if not all(w in index for w in images):
        return False
    # pattern row k, carried to host positions, must be the image's row
    # within the image, stopping at the first row that differs
    at = [index[mapping[u]] for u in pattern.vertices]
    image = 0
    for p in at:
        image |= 1 << p
    hrows = host.rows
    for k, row in enumerate(pattern.rows):
        carried = 0
        for j in _bits(row):
            carried |= 1 << at[j]
        if carried != hrows[at[k]] & image:
            return False
    return True


# ---------------------------------------------------------------------------
# canonical form and isomorphism
#
# An ordered partition is a list of cells, each a bitmask of vertices; a
# cell's position is the number of vertices in the cells before it. Every step
# below depends only on positions, sizes and adjacency counts, never on vertex
# numbers, so relabelling the graph relabels the whole search tree.


def _refine(rows: tuple[int, ...], cells: list[int], pending: set[int]) -> list[int]:
    """Coarsest equitable ordered partition finer than cells.

    pending holds the cells not yet used as splitters; the partition must
    already be equitable with respect to every other cell (or union of cells
    formed by splitting). Each step takes the first pending cell in partition
    order and splits every cell by its members' neighbour counts in it,
    fragments ordered by ascending count and kept in place. Of the fragments of
    a cell that was not pending, all but the first largest become pending
    (Hopcroft's rule); singletons never move.
    """
    n = len(rows)
    while pending and len(cells) < n:
        for w in cells:
            if w in pending:
                break
        pending.discard(w)
        # bit-sliced neighbour counts into w: bit v of planes[k] is bit k of
        # |N(v) & w|
        planes: list[int] = []
        for u in _bits(w):
            carry = rows[u]
            for k, p in enumerate(planes):
                planes[k] = p ^ carry
                carry &= p
                if not carry:
                    break
            else:
                if carry:
                    planes.append(carry)
        if not planes:
            continue
        planes.reverse()
        out: list[int] = []
        for x in cells:
            if not x & (x - 1):
                out.append(x)
                continue
            frags = [x]
            for p in planes:
                hit = p & x
                if not hit or hit == x:
                    continue
                split = []
                for f in frags:
                    hi = f & p
                    if hi and hi != f:
                        split.append(f ^ hi)
                        split.append(hi)
                    else:
                        split.append(f)
                frags = split
            out.extend(frags)
            if len(frags) > 1:
                if x in pending:
                    pending.discard(x)
                    pending.update(frags)
                else:
                    sizes = [f.bit_count() for f in frags]
                    largest = sizes.index(max(sizes))
                    pending.update(f for k, f in enumerate(frags) if k != largest)
        cells = out
    return cells


def _orbit_roots(n: int, gens: list[list[int]], path: tuple[int, ...]) -> list[int]:
    """Least member of each vertex's orbit under the automorphisms in gens
    that fix every vertex of path."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for gamma in gens:
        if any(gamma[v] != v for v in path):
            continue
        for a in range(n):
            ra, rb = find(a), find(gamma[a])
            if ra < rb:
                parent[rb] = ra
            elif rb < ra:
                parent[ra] = rb
    return [find(x) for x in range(n)]


def _canonical_labeling(rows: tuple[int, ...]) -> tuple[int, list[int]]:
    """(certificate, order): order lists the vertices at canonical positions,
    and the certificate packs the adjacency rows of the graph relabelled by
    order, n bits per row. Isomorphic graphs get equal certificates.

    The search tree's nodes are sequences of individualized vertices; a leaf
    is a node whose refined partition is discrete. The canonical leaf is the
    one with the least certificate. A branch is skipped when it is the image of
    an explored branch under an automorphism fixing the node's sequence:
    - a twin (same neighbours apart from each other) of an earlier candidate,
      since swapping twins is an automorphism;
    - a candidate in the orbit of an earlier one under the automorphisms
      found so far that fix the node's sequence;
    - on reaching a leaf whose certificate equals the first or the best
      leaf's, the map between the two leaves is an automorphism carrying the
      explored leaf's branch onto the current one, so the search returns to
      the node where the two paths part.
    """
    n = len(rows)
    if n == 0:
        return 0, []
    gens: list[list[int]] = []
    first: Optional[tuple[int, list[int], tuple[int, ...]]] = None
    best = first

    def leaf(cells: list[int], path: tuple[int, ...]) -> int:
        nonlocal first, best
        order = [c.bit_length() - 1 for c in cells]
        cert = 0
        for r in reversed(_relabel(rows, order)):
            cert = cert << n | r
        if first is None:
            first = best = (cert, order, path)
            return len(path) - 1
        for ref_cert, ref_order, ref_path in (first, best):
            if cert == ref_cert:
                gamma = [0] * n
                for a, b in zip(ref_order, order):
                    gamma[a] = b
                gens.append(gamma)
                k = 0
                while path[k] == ref_path[k]:
                    k += 1
                return k
        if cert < best[0]:
            best = (cert, order, path)
        return len(path) - 1

    def search(cells: list[int], path: tuple[int, ...]) -> int:
        """Explore the subtree of the node path; return the level of the node
        whose loop continues next."""
        target = -1
        size = n + 1
        for i, c in enumerate(cells):
            if c & (c - 1):
                s = c.bit_count()
                if s < size:
                    target, size = i, s
                    if s == 2:
                        break
        if target < 0:
            return leaf(cells, path)
        level = len(path)
        cell = cells[target]
        before, after = cells[:target], cells[target + 1:]
        open_seen: set[int] = set()
        closed_seen: set[int] = set()
        roots: Optional[list[int]] = None
        known = 0
        for v in _bits(cell):
            low = 1 << v
            r = rows[v]
            if r in open_seen or r | low in closed_seen:
                continue
            open_seen.add(r)
            closed_seen.add(r | low)
            if gens:
                if len(gens) != known:
                    roots = _orbit_roots(n, gens, path)
                    known = len(gens)
                if roots[v] < v:
                    continue
            child = _refine(rows, before + [low, cell ^ low] + after, {low})
            back = search(child, path + (v,))
            if back < level:
                return back
        return level - 1

    root = (1 << n) - 1
    search(_refine(rows, [root], {root}), ())
    return best[0], best[1]


def canonical_form(g: Graph) -> tuple[tuple[int, int], tuple[str, ...]]:
    """(key, vertex order) where key is equal exactly for isomorphic graphs.

    The key is (n, certificate): the adjacency matrix of g with its vertices
    renamed to positions in the order.
    """
    cert, order = _canonical_labeling(g.rows)
    vs = g.vertices
    return (g.n, cert), tuple(vs[i] for i in order)


def canonical_key(g: Graph) -> tuple[int, int]:
    return canonical_form(g)[0]


def is_isomorphic(g: Graph, h: Graph) -> Optional[dict[str, str]]:
    """Adjacency-preserving bijection from g onto h, or None.

    Equal graphs get the identity. Otherwise both graphs are labelled, and
    their canonical orders, position by position, are the bijection when the
    keys agree.
    """
    if g == h:
        return {v: v for v in g.vertices}
    if g.n != h.n or g.m != h.m:
        return None
    (key_g, order_g), (key_h, order_h) = canonical_form(g), canonical_form(h)
    if key_g != key_h:
        return None
    return dict(zip(order_g, order_h))


class IsoTable:
    """A set of isomorphism classes of graphs, labelled on demand.

    Graphs are bucketed by their sorted degree sequence (whose length is n),
    and canonical_form runs only when a graph meets a non-empty bucket: it
    labels the newcomer and, once, the bucket's one unlabelled member. A graph
    alone in its bucket is never labelled, yet add reports a class as new
    exactly when no isomorphic graph was added before, since isomorphic graphs
    share a bucket.
    """

    __slots__ = ("buckets",)

    def __init__(self):
        # degree sequence -> its one member while unlabelled, then the set of
        # its members' canonical keys
        self.buckets: dict = {}

    def add(self, g: Graph) -> bool:
        """Add the class of g; True if it was new."""
        degrees = tuple(sorted(r.bit_count() for r in g.rows))
        bucket = self.buckets.get(degrees)
        if bucket is None:
            self.buckets[degrees] = g
            return True
        if isinstance(bucket, Graph):
            bucket = self.buckets[degrees] = {canonical_key(bucket)}
        key = canonical_key(g)
        if key in bucket:
            return False
        bucket.add(key)
        return True


# ---------------------------------------------------------------------------
# serialization: graph6, edgelist, dot

_G6_HEADER = b">>graph6<<"
_G6_MAX = 258047  # the largest order with a four-byte graph6 header
# each valid graph6 body byte -> its six bits, most significant first
_G6_BYTE_BITS = {b: format(b - 63, "06b") for b in range(63, 127)}


def _graph6_order(g: Graph) -> Sequence[int]:
    """g's positions in graph6 order: v1..vn in that order when those are g's
    names, the names parse_graph6 gives, and sorted-name order otherwise,
    which for v1..vn would put v10 before v2 once n >= 10."""
    names, at, _ = _graph6_layout(g.n)
    return at if g.vertices == names else range(g.n)


def emit_graph6(g: Graph) -> bytes:
    """Standard graph6 bytes, position k holding the k-th vertex of
    _graph6_order, so parse_graph6 reads a graph on v1..vn back as itself."""
    n = g.n
    if n > _G6_MAX:
        raise GraphError("graph6 emitter supports at most %d vertices" % _G6_MAX)
    rows = _relabel(g.rows, _graph6_order(g))
    # n up to 62 in one byte, else byte 126 and n in three 6-bit bytes
    out = [n + 63] if n < 63 else [126, (n >> 12) + 63, (n >> 6 & 63) + 63, (n & 63) + 63]
    bits: list[int] = []
    for j in range(1, n):
        for i in range(j):
            bits.append((rows[i] >> j) & 1)
    for k in range(0, len(bits), 6):
        chunk = bits[k:k + 6]
        chunk += [0] * (6 - len(chunk))
        val = 0
        for b in chunk:
            val = (val << 1) | b
        out.append(val + 63)
    return bytes(out)


def parse_graph6(data: bytes) -> Graph:
    """Parse one graph6 value (optional >>graph6<< header tolerated)."""
    if isinstance(data, str):
        data = data.encode("ascii")
    s = data.strip()
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER):].lstrip()
    if not s:
        raise GraphError("empty graph6 input")
    n, body = s[0] - 63, s[1:]
    if n == 63:
        head, body = s[1:4], s[4:]
        n = 0
        for b in head:
            n = n << 6 | b - 63
        if len(head) != 3 or any(b < 63 or b > 126 for b in head) or not 63 <= n <= _G6_MAX:
            raise GraphError("malformed graph6 header %r" % (s[:4],))
    elif n < 0:
        raise GraphError("malformed graph6 header byte %r" % (s[0],))
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) != need:
        raise GraphError("graph6 body has %d bytes, expected %d" % (len(body), need))
    try:
        text = "".join([_G6_BYTE_BITS[b] for b in body])
    except KeyError as exc:
        raise GraphError("graph6 byte out of range: %r" % (exc.args[0],)) from None
    # bit t of stream is the t-th bit of the body, so the bits of the pairs
    # (0, j) .. (j - 1, j) are the j bits from t = j(j - 1)/2 up: the
    # neighbours of j below it. Each graph6 vertex k is written straight to
    # its sorted-name position at[k], so no rows are renumbered after.
    stream = int(text[::-1] or "0", 2)
    names, at, bit = _graph6_layout(n)
    rows = [0] * n
    t = 0
    for j in range(1, n):
        below = stream >> t & (1 << j) - 1
        t += j
        if below:
            own = bit[j]
            row = 0
            for i in _bits(below):
                row |= bit[i]
                rows[at[i]] |= own
            rows[at[j]] |= row
    if stream >> t:
        raise GraphError("graph6 trailing bits are not zero")
    return _from_sorted(names, tuple(rows))


def emit_edgelist(g: Graph) -> bytes:
    lines = ["vertices: " + " ".join(g.vertices)]
    lines.extend("%s %s" % e for e in g.edge_pairs)
    return ("\n".join(lines) + "\n").encode("utf-8")


def parse_edgelist(data: bytes) -> Graph:
    """Parse the edgelist format: a "vertices:" line, then one edge per line.

    Lines starting with "#" are comments. This is a user-facing format, so
    reserved "$" names are rejected.
    """
    if isinstance(data, bytes):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise GraphError("edgelist input is not UTF-8: %s" % exc) from None
    else:
        text = data
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or not lines[0].startswith("vertices:"):
        raise GraphError("edgelist input must start with a 'vertices:' line")
    names = lines[0][len("vertices:"):].split()
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphError("bad edge line %r" % (ln,))
        edges.append((parts[0], parts[1]))
    return new_graph(names, edges)


def _dot_quote(name: str) -> str:
    return '"%s"' % name.replace("\\", "\\\\").replace('"', '\\"')


def emit_dot(g: Graph) -> bytes:
    lines = ["graph G {"]
    for v in g.vertices:
        lines.append("  %s;" % _dot_quote(v))
    for u, v in g.edge_pairs:
        lines.append("  %s -- %s;" % (_dot_quote(u), _dot_quote(v)))
    lines.append("}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def parse_graph(data: bytes) -> Graph:
    """Parse graph6 or the edgelist format, whichever the input is: an edge
    list exactly when its first line that is neither blank nor a "#" comment
    starts with "vertices:", else graph6. No graph6 value holds ":", so no
    input parses as both."""
    for line in data.decode("utf-8", errors="replace").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            if line.startswith("vertices:"):
                return parse_edgelist(data)
            break
    return parse_graph6(data)


def emit_graph(g: Graph, fmt: str) -> bytes:
    if fmt == "graph6":
        return emit_graph6(g)
    if fmt == "edgelist":
        return emit_edgelist(g)
    if fmt == "dot":
        return emit_dot(g)
    raise GraphError("unknown output format %r" % (fmt,))


def graph_to_json(g: Graph) -> dict:
    return {"vertices": list(g.vertices), "edges": [list(e) for e in g.edge_pairs]}


def graph_from_json(obj: dict) -> Graph:
    try:
        return Graph(obj["vertices"], [tuple(e) for e in obj["edges"]])
    except (KeyError, TypeError, ValueError) as exc:
        raise GraphError("bad graph object: %s" % exc) from None
