"""Finite simple graphs with named vertices.

Everything downstream (group-theoretic classification, certificates) keys on
vertex names, so graphs are immutable, vertices are kept in sorted order, and
every operation that returns a collection returns it in a deterministic order.
Target scale is at most a dozen or so vertices; algorithms are exact
backtracking searches, not clever.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Optional

RESERVED_PREFIX = "$"


class GraphError(ValueError):
    pass


def _check_name(name: str) -> str:
    if not isinstance(name, str) or not name:
        raise GraphError("vertex name must be a nonempty string: %r" % (name,))
    if any(ch.isspace() for ch in name):
        raise GraphError("vertex name may not contain whitespace: %r" % (name,))
    return name


class Graph:
    """Immutable simple graph. Vertices are name strings, edges unordered pairs.

    The constructor validates structure (no loops, no dangling endpoints,
    no duplicate names) but accepts reserved "$"-prefixed names; use
    :func:`new_graph` for user input.
    """

    __slots__ = ("vertices", "edge_pairs", "_adj", "_hash", "_canon")

    def __init__(self, vertices: Iterable[str], edges: Iterable[tuple[str, str]]):
        vlist = [_check_name(v) for v in vertices]
        vset = set(vlist)
        if len(vset) != len(vlist):
            raise GraphError("duplicate vertex name")
        pairs = set()
        for e in edges:
            u, v = e
            if u == v:
                raise GraphError("loop edge at %r" % (u,))
            if u not in vset or v not in vset:
                raise GraphError("edge endpoint not in vertex list: %r" % ((u, v),))
            pairs.add((u, v) if u < v else (v, u))
        object.__setattr__(self, "vertices", tuple(sorted(vlist)))
        object.__setattr__(self, "edge_pairs", tuple(sorted(pairs)))
        adj = {v: set() for v in vlist}
        for u, v in pairs:
            adj[u].add(v)
            adj[v].add(u)
        object.__setattr__(self, "_adj", {v: frozenset(s) for v, s in adj.items()})
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_canon", None)

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def m(self) -> int:
        return len(self.edge_pairs)

    def has_vertex(self, v: str) -> bool:
        return v in self._adj

    def has_edge(self, u: str, v: str) -> bool:
        return v in self._adj.get(u, ())

    def adj(self, v: str) -> frozenset[str]:
        try:
            return self._adj[v]
        except KeyError:
            raise GraphError("unknown vertex %r" % (v,)) from None

    def degree(self, v: str) -> int:
        return len(self.adj(v))

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.vertices == other.vertices and self.edge_pairs == other.edge_pairs

    def __hash__(self):
        h = object.__getattribute__(self, "_hash")
        if h is None:
            h = hash((self.vertices, self.edge_pairs))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        return "Graph(%d vertices, %d edges)" % (self.n, self.m)

    def bit_rows(self) -> list[int]:
        """Adjacency as bitmasks over the sorted-vertex index."""
        index = {v: i for i, v in enumerate(self.vertices)}
        rows = [0] * self.n
        for u, v in self.edge_pairs:
            iu, iv = index[u], index[v]
            rows[iu] |= 1 << iv
            rows[iv] |= 1 << iu
        return rows


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
    names = ["v%d" % (i + 1) for i in range(n)]
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
# isomorphism and induced-subgraph search


def find_induced(pattern: Graph, host: Graph) -> Optional[dict[str, str]]:
    """First injective map (in sorted search order) realizing pattern as an
    induced subgraph of host, or None.

    The map preserves and reflects adjacency: {u,v} is an edge of the pattern
    iff the image pair is an edge of the host.
    """
    np_, nh = pattern.n, host.n
    if np_ > nh:
        return None
    pv = pattern.vertices
    hv = host.vertices
    prows = pattern.bit_rows()
    hrows = host.bit_rows()
    pdeg = [bin(r).count("1") for r in prows]
    hdeg = [bin(r).count("1") for r in hrows]
    assigned = [-1] * np_

    def extend(k: int, used: int) -> bool:
        if k == np_:
            return True
        prow_k = prows[k]
        for cand in range(nh):
            if used >> cand & 1:
                continue
            if hdeg[cand] < pdeg[k]:
                continue
            ok = True
            hrow_c = hrows[cand]
            for j in range(k):
                if ((prow_k >> j) & 1) != ((hrow_c >> assigned[j]) & 1):
                    ok = False
                    break
            if not ok:
                continue
            assigned[k] = cand
            if extend(k + 1, used | (1 << cand)):
                return True
            assigned[k] = -1
        return False

    if extend(0, 0):
        return {pv[k]: hv[assigned[k]] for k in range(np_)}
    return None


def is_isomorphic(g: Graph, h: Graph) -> Optional[dict[str, str]]:
    """Edge-preserving bijection between g and h, or None.

    Deterministic: the first witness in sorted backtracking order, so
    is_isomorphic(g, g) starts from the identity.
    """
    if g.n != h.n or g.m != h.m:
        return None
    if sorted(g.degree(v) for v in g.vertices) != sorted(h.degree(v) for v in h.vertices):
        return None
    return find_induced(g, h)


def verify_vertex_map(pattern: Graph, host: Graph, mapping: dict[str, str]) -> bool:
    """Re-check that mapping is an injective, adjacency-reflecting embedding."""
    if set(mapping.keys()) != set(pattern.vertices):
        return False
    images = list(mapping.values())
    if len(set(images)) != len(images):
        return False
    if not all(host.has_vertex(w) for w in images):
        return False
    for u, v in combinations(pattern.vertices, 2):
        if pattern.has_edge(u, v) != host.has_edge(mapping[u], mapping[v]):
            return False
    return True


# ---------------------------------------------------------------------------
# canonical form (memoization key for isomorphism classes)


def _minimal_adjacency(rows: list[int], n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Lexicographically least column-wise adjacency string over all vertex
    orders, plus an order achieving it.

    Exhaustive search with two sound prunings: only candidates producing the
    least next column are expanded, and interchangeable twins (equal
    neighborhoods off each other) are expanded once.
    """

    def rec(order: list[int], used: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        k = len(order)
        if k == n:
            return (), ()
        cols = {}
        for v in range(n):
            if used >> v & 1:
                continue
            c = 0
            for i in range(k):
                c = (c << 1) | ((rows[order[i]] >> v) & 1)
            cols[v] = c
        m = min(cols.values())
        cands = sorted(v for v, c in cols.items() if c == m)
        kept: list[int] = []
        for v in cands:
            twin = False
            for w in kept:
                mask = ~((1 << v) | (1 << w))
                if rows[v] & mask == rows[w] & mask:
                    twin = True
                    break
            if not twin:
                kept.append(v)
        best = None
        best_order = None
        for v in kept:
            order.append(v)
            sub, suborder = rec(order, used | (1 << v))
            order.pop()
            if best is None or sub < best:
                best = sub
                best_order = (v,) + suborder
        return (m,) + best, best_order

    if n == 0:
        return (), ()
    key, order = rec([], 0)
    return key, order


def canonical_form(g: Graph) -> tuple[tuple[int, ...], tuple[str, ...]]:
    """(key, vertex order) where key is equal exactly for isomorphic graphs."""
    cached = object.__getattribute__(g, "_canon")
    if cached is not None:
        return cached
    key, order = _minimal_adjacency(g.bit_rows(), g.n)
    result = ((g.n,) + key, tuple(g.vertices[i] for i in order))
    object.__setattr__(g, "_canon", result)
    return result


def canonical_key(g: Graph) -> tuple[int, ...]:
    return canonical_form(g)[0]


# ---------------------------------------------------------------------------
# serialization: graph6, edgelist, dot

_G6_HEADER = b">>graph6<<"


def emit_graph6(g: Graph) -> bytes:
    """Standard graph6 bytes; vertices taken in sorted-name order."""
    n = g.n
    if n > 62:
        raise GraphError("graph6 emitter supports at most 62 vertices")
    out = [n + 63]
    rows = g.bit_rows()
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
    n = s[0] - 63
    if n < 0 or s[0] == 126:
        raise GraphError("malformed graph6 header byte %r" % (s[0],))
    body = s[1:]
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) != need:
        raise GraphError("graph6 body has %d bytes, expected %d" % (len(body), need))
    bits = []
    for b in body:
        if b < 63 or b > 126:
            raise GraphError("graph6 byte out of range: %r" % (b,))
        v = b - 63
        bits.extend((v >> k) & 1 for k in range(5, -1, -1))
    names = ["v%d" % (i + 1) for i in range(n)]
    edges = []
    t = 0
    for j in range(1, n):
        for i in range(j):
            if bits[t]:
                edges.append((names[i], names[j]))
            t += 1
    if any(bits[t:]):
        raise GraphError("graph6 trailing bits are not zero")
    return Graph(names, edges)


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
        text = data.decode("utf-8")
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
    for u, v in edges:
        if u not in names or v not in names:
            raise GraphError("dangling edge reference %r" % ((u, v),))
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


def parse_graph(data: bytes, fmt: str) -> Graph:
    if fmt == "graph6":
        return parse_graph6(data)
    if fmt == "edgelist":
        return parse_edgelist(data)
    raise GraphError("unknown input format %r" % (fmt,))


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
