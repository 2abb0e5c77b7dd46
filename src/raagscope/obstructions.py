"""Witnesses that a graph group contains a closed hyperbolic surface group.

Two witness shapes: an induced copy of a catalogued forbidden graph, or a
trail of complement-edge contractions ending at a graph with such a copy
(contraction embeds the smaller graph group into the larger one, so a hit
anywhere along the trail certifies the original graph).

The built-in catalog holds the long-cycle families, which cycle searches
realize at any size, plus three fixed graphs, stored as their complements'
edge lists. ForbiddenEntry refuses an entry the prover derives, built in or
loaded, chordal and chordal bipartite entries among them. The fixed trio is
transcribed data, so building the catalog also runs a self-test: the second
graph must contract onto the first and the third onto the second. A failed
self-test is a build error.
"""

from __future__ import annotations

import json
import re
import sys
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence

from .graphs import (
    Graph,
    GraphError,
    IsoTable,
    _bits,
    _from_sorted,
    _relabel,
    _shared,
    _standard_names,
    find_induced,
    is_isomorphic,
    standard_graph,
    verify_vertex_map,
)
from .ops import _is_bipartite, co_contract_edge, complement, is_complete
from .recognize import find_induced_cycle

KIND_INDUCED = "InducedForbidden"
KIND_TRAIL = "CoContractionTrail"

_CYCLE_RE = re.compile(r"^C(\d+)$")
_COCYCLE_RE = re.compile(r"^coC(\d+)$")
# the unbounded families as (name, least n, provenance); the searches realize
# them at any size. C5 is self-complementary, so coCn starts at 6.
CYCLE_FAMILIES = (
    ("Cn", 5, "induced cycle of length >= 5 forces a hyperbolic surface subgroup"),
    ("coCn", 6, "complement of a cycle of length >= 5 forces a hyperbolic surface subgroup"),
)


class CatalogError(ValueError):
    pass


@dataclass(frozen=True)
class ForbiddenEntry:
    """A fixed catalog entry. The paper's corollaries put chordal and chordal
    bipartite graphs in N', and so does any graph the prover derives, so
    making such a graph an entry raises CatalogError, as does a graph whose
    search runs out of budget. An admitted entry could otherwise certify a
    graph the prover derives: the house (the complement of P5) is derived,
    and as an entry it met itself. A non-chordal graph on at most 4 vertices
    is C4, which is chordal bipartite, so every entry has at least 5
    vertices.

    The one question is the prover's, asked for a decision alone with the
    default budget, so no derivation is built, and the refusal names the
    cheapest reason. The peel decides a chordal graph: its core is complete.
    Otherwise a derived bipartite graph is chordal bipartite, since a
    bipartite graph in F holds no long hole. The search runs on an explicit
    stack, so an entry of any size under the budget is decided; one whose
    search spends the whole budget undecided is too large to check."""

    name: str
    graph: Graph
    provenance: str

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise CatalogError("catalog entry name must be a string, got %r" % (self.name,))
        if not self.provenance or not isinstance(self.provenance, str):
            raise CatalogError("catalog entry %r needs a provenance string" % (self.name,))
        # imported here: the prover imports this module
        from .prover import DEFAULT_BUDGET, _peel, _Search

        search = _Search(DEFAULT_BUDGET)
        peel = _peel(self.graph)
        if search._closes(peel):
            kind = ("chordal" if is_complete(peel.core)
                    else "chordal bipartite" if _is_bipartite(self.graph.rows)
                    else "derived by the prover")
            raise CatalogError("catalog entry %r is %s, so its graph group contains no "
                               "hyperbolic surface group" % (self.name, kind))
        if search.exhausted:
            raise CatalogError("catalog entry %r is too large to check" % (self.name,))


@dataclass(frozen=True, eq=True, slots=True)
class Obstruction:
    kind: str
    entry: str
    embedding: tuple[tuple[str, str], ...]
    trail: tuple[tuple[str, str], ...] = ()

    def embedding_map(self) -> dict[str, str]:
        return dict(self.embedding)


def _embedding(mapping: dict[str, str]) -> tuple[tuple[str, str], ...]:
    # the pairs and the tuple are shared copies: the verdicts of a batch
    # repeat few embeddings, on the same few names
    return _shared(tuple(_shared(pair) for pair in sorted(mapping.items())))


# ---------------------------------------------------------------------------
# fixed catalog graphs, stored as complement edge lists

_P18_COMPLEMENT = [
    ("t1", "t2"), ("t1", "t3"), ("t3", "t2"), ("t4", "t2"), ("t5", "t3"),
    ("t5", "t4"), ("t6", "t4"), ("t5", "t6"), ("t7", "t6"), ("t8", "t6"),
    ("t7", "t4"), ("t5", "t8"),
]
_P18_VERTICES = ["t1", "t2", "t3", "t4", "t5", "t6", "t7", "t8"]

# the pair {a,b} is the complement edge whose contraction lands on P1(8)
_Q19_COMPLEMENT = [
    ("t1", "t2"), ("t1", "t3"), ("t3", "t2"), ("t4", "t2"), ("t5", "t3"),
    ("t5", "t4"), ("b", "t4"), ("t5", "b"), ("a", "b"), ("t6", "b"),
    ("a", "t4"), ("t6", "t4"), ("t5", "a"), ("t7", "a"), ("t5", "t7"),
]
_Q19_VERTICES = ["t1", "t2", "t3", "t4", "t5", "t6", "t7", "a", "b"]

# contracting the complement edge {c,d} lands on Q1(9)
_Q2X_COMPLEMENT = [
    ("t1", "t2"), ("t1", "t3"), ("t3", "t2"), ("t4", "t2"), ("t5", "t3"),
    ("t5", "t4"), ("d", "t4"), ("t5", "d"), ("t6", "d"), ("c", "d"),
    ("t6", "t4"), ("t5", "c"), ("t7", "t6"), ("t7", "t4"), ("t5", "t8"),
    ("t8", "c"), ("c", "t4"), ("t5", "t6"),
]
_Q2X_VERTICES = ["t1", "t2", "t3", "t4", "t5", "t6", "t7", "t8", "c", "d"]


def _from_complement(vertices, comp_edges) -> Graph:
    return complement(Graph(vertices, comp_edges))


@lru_cache(maxsize=1)
def _fixed_entries() -> tuple[ForbiddenEntry, ...]:
    p18 = _from_complement(_P18_VERTICES, _P18_COMPLEMENT)
    q19 = _from_complement(_Q19_VERTICES, _Q19_COMPLEMENT)
    q2x = _from_complement(_Q2X_VERTICES, _Q2X_COMPLEMENT)
    # transcription self-test: the contraction chain must close up
    if is_isomorphic(co_contract_edge(q19, ("a", "b")), p18) is None:
        raise RuntimeError("catalog self-test failed: Q1(9) does not contract onto P1(8)")
    if is_isomorphic(co_contract_edge(q2x, ("c", "d")), q19) is None:
        raise RuntimeError("catalog self-test failed: Q2(10) does not contract onto Q1(9)")
    return (
        ForbiddenEntry("P1(8)", p18,
                       "Crisp-Sageev-Sapir (2008): its graph group contains a closed "
                       "hyperbolic surface group"),
        ForbiddenEntry("Q1(9)", q19,
                       "co-contracts onto P1(8), so its graph group contains "
                       "A(P1(8))"),
        ForbiddenEntry("Q2(10)", q2x,
                       "co-contracts onto Q1(9), hence onto P1(8)"),
    )


def builtin_catalog() -> list[ForbiddenEntry]:
    """The shipped fixed entries, by size; CYCLE_FAMILIES lists the rest."""
    return list(_fixed_entries())


def load_catalog(path: str) -> list[ForbiddenEntry]:
    """User catalog extensions: a JSON array of entries, each graph stored as
    its complement's edge list. Every entry must carry a provenance string.

    Any malformed document raises CatalogError: text that is not JSON, an
    entry that is not an object with a list of vertex names and a list of
    two-name complement edges that make a valid graph, an entry that
    ForbiddenEntry refuses, and a name a cycle family or another entry holds.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        data = json.loads(raw)
    except (ValueError, RecursionError) as exc:
        # ValueError covers undecodable bytes and JSONDecodeError alike
        raise CatalogError("catalog file is not valid JSON: %s" % exc) from None
    if not isinstance(data, list):
        raise CatalogError("catalog file must hold a JSON array")
    out = []
    for item in data:
        if not isinstance(item, dict):
            raise CatalogError("bad catalog entry: %r is not an object" % (item,))
        try:
            name = item["name"]
            provenance = item["provenance"]
            vertices = item["vertices"]
            comp_edges = item["complement_edges"]
        except KeyError as exc:
            raise CatalogError("bad catalog entry: missing %s" % exc) from None
        if not (isinstance(vertices, list) and isinstance(comp_edges, list)
                and all(isinstance(e, list) and len(e) == 2 for e in comp_edges)):
            raise CatalogError("catalog entry %r needs a vertex list and complement edges "
                               "that name two vertices each" % (name,))
        try:
            graph = _from_complement(vertices, [tuple(e) for e in comp_edges])
        except GraphError as exc:
            raise CatalogError("catalog entry %r: %s" % (name, exc)) from None
        entry = ForbiddenEntry(name, graph, provenance)
        if _CYCLE_RE.match(name) or _COCYCLE_RE.match(name):
            raise CatalogError("catalog entry name %r collides with the cycle families" % (name,))
        if name in {e.name for e in _fixed_entries()}:
            raise CatalogError("catalog entry name %r collides with a built-in entry" % (name,))
        out.append(entry)
    names = [e.name for e in out]
    if len(set(names)) != len(names):
        raise CatalogError("duplicate catalog entry name")
    return out


def _cycle_family(name: str) -> Optional[tuple[bool, int]]:
    """(complemented, n) for the family names Cn and coCn with n >= 5, else
    None. An n of more than 18 digits past its leading zeros exceeds any
    graph's order and reads as sys.maxsize (int() refuses a few thousand)."""
    m = _CYCLE_RE.match(name) or _COCYCLE_RE.match(name)
    if m is None:
        return None
    digits = m.group(1).lstrip("0")
    n = int(digits or "0") if len(digits) <= 18 else sys.maxsize
    return (m.re is _COCYCLE_RE, n) if n >= 5 else None


def _named_entry(name: str, extra: Sequence[ForbiddenEntry]) -> ForbiddenEntry:
    for e in list(_fixed_entries()) + list(extra):
        if e.name == name:
            return e
    raise CatalogError("unknown catalog entry name %r" % (name,))


@lru_cache(maxsize=32)
def _cycle_graph(complemented: bool, n: int) -> Graph:
    # every check of a cycle family hit builds its pattern; graphs are
    # immutable, so one copy per size serves them all
    cycle = standard_graph("cycle", n)
    return complement(cycle) if complemented else cycle


# ---------------------------------------------------------------------------
# searches


def find_forbidden_induced(g: Graph, extra: Sequence[ForbiddenEntry] = (), *,
                           core: Optional[Graph] = None) -> Optional[Obstruction]:
    """Scan catalog entries no larger than g in increasing size and return the
    first induced embedding.

    The unbounded cycle families are realized by shortest-induced-cycle
    searches in g and in its complement, which is equivalent to scanning every
    C_n / coC_n entry in size order: at each size Cn comes first, then coCn,
    then the fixed entries by name. Two facts cut the work without
    changing the first hit:

    - The hole of g, once found, bounds the search of the complement: only a
      shorter antihole comes first, since at an equal size Cn wins. A 5-hole
      of the complement is one of g (C5 is self-complementary), so after a
      C5 of g nothing else is searched, and otherwise the complement is
      searched from length 6 up to one less than g's hole.
    - A bipartite g holds no antihole of length >= 5: coC5 is C5, which is
      odd, and coCk for k >= 6 holds a triangle. A fixed entry that embeds
      in g is bipartite too, and being admitted it is not chordal
      bipartite: the prover did not derive it, and on a bipartite
      graph its search is the greedy pass, which never stalls on a chordal
      bipartite graph (prover._Search._expand). So the entry holds an
      induced cycle of length >= 5 that is no longer than itself; that
      cycle is one of g, so g's least hole is met first (at the entry's own
      size only if the entry is that cycle, and then Cn comes first). So a
      bipartite g returns right after its hole search, with its hole or
      None. g is tested for being bipartite only when some fixed entry is
      no larger than g.

    core, when given, is the core of g's peel, the induced subgraph left once
    the cliques of simplicial vertices are split off one by one
    (prover._peel), and both cycle searches run on it; prover.classify passes
    it, while --cross-check and a call without it search g whole. Lemma:
    every induced cycle of length >= 5 of g, and every antihole, lies in that
    core. A simplicial vertex lies on no induced cycle of length >= 4 (Dirac,
    On rigid circuit graphs, 1961), and no vertex of coCk, k >= 5, is
    simplicial: v sees v+2 and v+3, which are not adjacent to each other. A
    vertex simplicial in a graph is simplicial in every induced subgraph that
    holds it, so each peel step, which removes only vertices simplicial in
    what is left, keeps every hole and antihole of what is left. The core
    keeps g's position order, so the first hole and antihole by length, start
    and extensions are the same ones. The fixed entries are still searched in
    g itself: an entry may have a simplicial vertex, and its copy in g can
    use vertices the peel removes. H]o~fy?, G]o~fw with a pendant vertex,
    peels to G]o~fw, which is too small to hold it, so as an entry it is
    found in itself only on g.
    """
    n = g.n
    if n < 5:
        return None
    if core is None:
        core = g
    cyc = find_induced_cycle(core, 5)
    hole = n + 1 if cyc is None else len(cyc.vertices)
    fixed = _fixed_scan_order(extra)
    if hole > 5 and not (fixed[0].graph.n <= n and _is_bipartite(g.rows)):
        co = find_induced_cycle(complement(core), 6, hole - 1)
        antihole = n + 1 if co is None else len(co.vertices)
        for size in range(5, hole):
            if size == antihole:
                return _cycle_hit("coC", co.vertices)
            for e in fixed:
                if e.graph.n != size:
                    continue
                hit = find_induced(e.graph, g)
                if hit is not None:
                    return Obstruction(KIND_INDUCED, e.name, _embedding(hit))
    return None if cyc is None else _cycle_hit("C", cyc.vertices)


def _cycle_hit(family: str, vertices: Sequence[str]) -> Obstruction:
    """The induced hit of the cycle family C or coC that vertices realize,
    listed in the order of the pattern's v1..vk."""
    size = len(vertices)
    mapping = dict(zip(_standard_names(size), vertices))
    return Obstruction(KIND_INDUCED, "%s%d" % (family, size), _embedding(mapping))


def _fixed_scan_order(extra: Sequence[ForbiddenEntry]) -> list[ForbiddenEntry]:
    """The fixed entries an induced scan tries, P1(8) and the extras, in the
    order it tries them: by size, then by name."""
    # Only directly-justified graphs serve as induced-subgraph patterns.
    # Q1(9) and Q2(10) are forbidden *because* they contract onto P1(8), so
    # their honest certificate is a contraction trail; using them as patterns
    # would let them match themselves and shadow that trail.
    return sorted([_fixed_entries()[0], *extra], key=lambda e: (e.graph.n, e.name))


def find_cocontraction_witness(g: Graph, max_depth: int,
                               extra: Sequence[ForbiddenEntry] = (), *,
                               derived: Optional[Callable[[Graph], bool]] = None) -> Optional[Obstruction]:
    """Breadth-first search over complement-edge contraction sequences of
    length at most max_depth below g; the first state holding a fixed entry
    (P1(8) or an extra) wins, with its trail. A max_depth below 0 raises
    ValueError, and depth 0 builds no state.

    g itself is not scanned: `find_forbidden_induced(g, extra) or
    find_cocontraction_witness(g, d, extra)` is the search that scans every
    state in full, g included, so when g holds no catalog entry the first
    hit here is that search's, trail and embedding alike. Each state is
    built by _step on the positions of its parent's pair; verify_obstruction
    replays the trail by name through ops.co_contract_edge, so the search
    and the checker share no co-contraction code.

    Lemma: if g holds no catalog entry, every state is weakly chordal, that
    is, neither it nor its complement holds an induced cycle of length >= 5
    (Hayward, Weakly triangulated graphs, JCTB 1985). g is, since it holds no
    hole or antihole; by induction it suffices that one contraction s of a
    weakly chordal graph, at the non-adjacent pair a, b with merged vertex w
    and N(w) = N(a) & N(b), is weakly chordal. s less w is g less a and b, an
    induced subgraph of g, so a long hole or antihole of s passes through w.

    - Hole w x1 ... x(k-1), k >= 5. Its ends x1 and x(k-1) see both a and b;
      each middle vertex sees at most one of them. Two consecutive neighbours
      of a along the induced path x1 ... x(k-1) lie at most 2 apart, or a
      closes a hole of length >= 5 in g; likewise for b. So a middle vertex
      that missed both would have both its path neighbours seeing both, which
      makes them the ends and k = 4; every middle vertex sees exactly one,
      and its path neighbours see the other: they alternate. For k = 5,
      {a, b, x1, ..., x4} induces the complement of a 6-cycle. For k >= 6,
      x3 and x4 are both middle vertices; if x3 sees b and x4 sees a, then
      a x1 b x3 x4 is an induced 5-cycle of g, and otherwise so is
      b x1 a x3 x4.
    - Antihole: a hole w y1 ... y(k-1) of the complement, where a and b are
      adjacent and w's neighbours are the union of theirs. Each end is a
      complement-neighbour of a or b; no middle vertex is of either. If a
      (or b) is a complement-neighbour of both ends, a y1 ... y(k-1) is a
      hole of length k of g's complement; otherwise a y1 ... y(k-1) b, or the
      same with a and b swapped, is one of length k + 1. Either is a long
      antihole of g.

    Each case contradicts g being weakly chordal. So no state holds a cycle
    family entry, and a state is scanned only for the fixed entries, with
    graphs.find_induced, when it is discovered; states leave the queue in
    discovery order, so this is the hit that scanning each state fully when
    it leaves the queue finds first, with the same embedding. Every state at
    depth d has g.n - d vertices, and only a state with at least as many
    vertices as the smallest fixed entry can hold one, so the search goes no
    deeper than g.n less that entry's size: with the built-ins alone nothing
    is built below a g on at most 8 vertices. A state that will be expanded
    is kept in a graphs.IsoTable, so an isomorphic repeat is dropped and a
    state is canonically labelled only when an earlier one of its depth
    shares its degree sequence. A state at the last depth is scanned and
    dropped: deduplicating it would only save a scan whose answer an
    isomorphic state already gave, and holding an entry is invariant under
    isomorphism, so the first hit stays the same.

    A derived predicate, when given, prunes the search: a state at depth >= 1
    is not expanded if derived(state) holds; g is not asked, since classify
    calls this only on a g its prover did not derive. This returns the same
    first hit with the same trail, provided derived(h) holds only for graphs
    whose groups contain no hyperbolic surface group (such as the graphs the
    prover derives, which lie in N' within N) and every catalog entry's group
    does contain one. Contracting a complement edge embeds the smaller graph
    group into the larger, so every state below a derived one has a group
    without a surface subgroup and holds no witness. A witness state below no
    derived state is reached along the same chain of first-discovering parents
    as without pruning, none of which is below a derived state either, and the
    states kept leave the queue in the same order; only states below a derived
    one are dropped or met later. The predicate is trusted: one that holds
    wrongly can hide a witness.
    """
    if max_depth < 0:
        raise ValueError("max_depth must be nonnegative")
    fixed = _fixed_scan_order(extra)
    depth = min(max_depth, g.n - fixed[0].graph.n)
    if depth <= 0:
        return None
    seen = IsoTable()
    queue: deque[tuple[Graph, tuple]] = deque([(g, ())])
    while queue:
        current, trail = queue.popleft()
        if trail and derived is not None and derived(current):
            continue
        last = len(trail) + 1 == depth
        verts = current.vertices
        full = (1 << len(verts)) - 1
        for i, row in enumerate(current.rows):
            for j in _bits(full & ~row & ~((2 << i) - 1)):
                pair = (verts[i], verts[j])
                child = _step(current, i, j)
                if not last and not seen.add(child):
                    continue
                for e in fixed:
                    hit = find_induced(e.graph, child)
                    if hit is not None:
                        return Obstruction(KIND_TRAIL, e.name, _embedding(hit),
                                           trail + (pair,))
                if not last:
                    queue.append((child, trail + (pair,)))
    return None


def _step(g: Graph, i: int, j: int) -> Graph:
    """co_contract_edge(g, (g.vertices[i], g.vertices[j])) for the
    non-adjacent pair at positions i < j, taken on positions.

    The names are sorted, so the pair is already in the order of the fresh
    name $co(a,b), and the complement of the induced pair is an edge, hence
    connected: neither is looked up or checked. That the fresh name is new
    is checked, since a graph built with Graph(...) may hold it already;
    longer than both names of the pair, it can only equal the kept name at
    its sorted place.
    """
    verts = g.vertices
    rows = g.rows
    fresh = "$co(%s,%s)" % (verts[i], verts[j])
    kept = list(verts)
    del kept[j], kept[i]
    at = bisect_left(kept, fresh)
    if at < len(kept) and kept[at] == fresh:
        raise GraphError("fresh vertex name collision: %r" % (fresh,))
    n = len(verts)
    common = rows[i] & rows[j]
    # the merged vertex enters as a virtual row n, then one renumbering keeps
    # the rest and puts it at its sorted place among their names
    extended = list(rows)
    for v in _bits(common):
        extended[v] |= 1 << n
    extended.append(common)
    keep = list(range(n))
    del keep[j], keep[i]
    kept.insert(at, fresh)
    keep.insert(at, n)
    return _from_sorted(tuple(kept), _relabel(extended, keep))


def verify_obstruction(g: Graph, o: Obstruction,
                       extra: Sequence[ForbiddenEntry] = ()) -> bool:
    """Independent certificate check: replay the trail, then re-validate the
    induced embedding against the named entry. Unknown entry names raise; an
    entry with more vertices than the graph at the end of the trail is
    rejected before its graph is built, and so is a trail with a step that
    co_contract_edge refuses."""
    if o.kind not in (KIND_INDUCED, KIND_TRAIL):
        return False
    if (o.kind == KIND_INDUCED) != (len(o.trail) == 0):
        return False
    family = _cycle_family(o.entry)
    named = None if family is not None else _named_entry(o.entry, extra).graph
    order = family[1] if family is not None else named.n
    current = g
    try:
        for pair in o.trail:
            current = co_contract_edge(current, pair)
    except ValueError:  # GraphError, or a step that does not unpack to two names
        return False
    # an entry larger than the graph cannot embed; never build it
    if order > current.n:
        return False
    pattern = _cycle_graph(*family) if family is not None else named
    return verify_vertex_map(pattern, current, dict(o.embedding))


# ---------------------------------------------------------------------------
# serialization


def obstruction_to_json(o: Obstruction) -> dict:
    return {
        "kind": o.kind,
        "entry": o.entry,
        "embedding": {a: b for a, b in o.embedding},
        "trail": [list(p) for p in o.trail],
    }


def obstruction_from_json(obj: dict) -> Obstruction:
    try:
        o = Obstruction(
            kind=obj["kind"],
            entry=obj["entry"],
            # not _embedding: names read from outside may be unhashable, and
            # are refused as such below
            embedding=tuple(sorted(dict(obj["embedding"]).items())),
            trail=tuple(tuple(p) for p in obj["trail"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CatalogError("bad obstruction object: %s" % exc) from None
    if not (isinstance(o.kind, str) and isinstance(o.entry, str)):
        raise CatalogError("bad obstruction object: kind and entry must be strings")
    if any(len(pair) != 2 for pair in o.trail):
        raise CatalogError("bad obstruction object: a trail step must name two vertices")
    if not all(isinstance(name, str) for pair in o.embedding + o.trail for name in pair):
        raise CatalogError("bad obstruction object: embedding and trail names must be strings")
    return o
