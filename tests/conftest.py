"""Shared test oracles, deliberately naive and independent of the library's
search strategies, and the random graph models and small graph builders that
only tests use."""

from __future__ import annotations

import random
import sys
from collections import deque
from functools import lru_cache
from itertools import combinations, permutations
from pathlib import Path

from raagscope.graphs import (Graph, GraphError, _bits, _from_sorted, canonical_key,
                              find_induced, graph_from_json, standard_graph)
from raagscope.obstructions import (KIND_INDUCED, KIND_TRAIL, Obstruction, _cycle_family,
                                    _cycle_graph, _named_entry, builtin_catalog,
                                    find_forbidden_induced)
from raagscope.ops import (CliqueSplit, _bisimplicial_edges, _component_masks, co_contract_edge,
                           complement, maximal_cliques)
from raagscope.prover import _chain, _leaf, _peel
from raagscope.recognize import CycleWitness, find_induced_cycle
from raagscope.words import _commutation, _cyclic_reduce, _reduce_full


def random_graph(n: int, p: float, rng: random.Random) -> Graph:
    names = ["v%d" % (i + 1) for i in range(n)]
    edges = [(names[i], names[j])
             for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph(names, edges)


@lru_cache(maxsize=None)
def desk_graph6(seed: int) -> tuple[str, ...]:
    """The graph6 lines of the benchmark's desk batch at seed, drawn by
    perfbench's own generator."""
    perfbench = str(Path(__file__).resolve().parent.parent / "perfbench")
    sys.path.insert(0, perfbench)
    try:
        from workloads import Desk
    finally:
        sys.path.remove(perfbench)
    return tuple(Desk().make_inputs(seed))


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


def random_gnm(n: int, m: int, rng: random.Random) -> Graph:
    """m edges drawn uniformly from the pairs of n vertices named v0..v(n-1)."""
    pairs = list(combinations(range(n), 2))
    edges = rng.sample(pairs, m)
    return Graph(["v%d" % i for i in range(n)], [("v%d" % a, "v%d" % b) for a, b in edges])


def random_chordal_bipartite(n: int, rng: random.Random) -> Graph:
    """Edges between two sides, each added only if it is bisimplicial once
    added; read backwards, a bisimplicial edge elimination."""
    names = ["v%d" % (i + 1) for i in range(n)]
    left = rng.randint(n // 3, n - n // 3)
    adj: dict[int, set[int]] = {v: set() for v in range(n)}
    for _ in range(4 * n):
        a, b = rng.randrange(left), rng.randrange(left, n)
        if b not in adj[a] and all(y in adj[x] for x in adj[b] for y in adj[a]):
            adj[a].add(b)
            adj[b].add(a)
    return Graph(names, [(names[a], names[b]) for a in range(left) for b in adj[a]])


def add_edge(g: Graph, e: tuple[str, str]) -> Graph:
    a, b = e
    if g.has_edge(a, b):
        raise GraphError("%r is already an edge" % ((a, b),))
    return Graph(g.vertices, g.edge_pairs + ((a, b),))


def remove_edge(g: Graph, e: tuple[str, str]) -> Graph:
    a, b = e
    if not g.has_edge(a, b):
        raise GraphError("%r is not an edge" % ((a, b),))
    return Graph(g.vertices, [p for p in g.edge_pairs if set(p) != {a, b}])


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """Side by side, with no edge between; a shared name raises GraphError."""
    return Graph(g.vertices + h.vertices, g.edge_pairs + h.edge_pairs)


def ladder(k: int) -> Graph:
    """P2 x Pk: the paths a1..ak and b1..bk, with the rung ai bi for each
    i. Chordal bipartite, with exponentially many induced paths."""
    a = ["a%d" % i for i in range(1, k + 1)]
    b = ["b%d" % i for i in range(1, k + 1)]
    return Graph(a + b, list(zip(a, a[1:])) + list(zip(b, b[1:])) + list(zip(a, b)))


def complete_bipartite(k: int) -> Graph:
    """K(k,k): every ai adjacent to every bj, i and j from 1 to k."""
    a = ["a%d" % i for i in range(1, k + 1)]
    b = ["b%d" % i for i in range(1, k + 1)]
    return Graph(a + b, [(u, v) for u in a for v in b])


def c4_chain(k: int) -> Graph:
    """k 4-cycles in a row, c(i-1) xi ci yi for i from 1 to k, each meeting
    the next at the cut vertex ci: 3k + 1 vertices, chordal bipartite."""
    names = ["c0"]
    edges = []
    for i in range(1, k + 1):
        c, x, y = "c%d" % i, "x%d" % i, "y%d" % i
        names += [x, y, c]
        edges += [("c%d" % (i - 1), x), ("c%d" % (i - 1), y), (x, c), (y, c)]
    return Graph(names, edges)


def entry_graph(name: str, extra=()) -> Graph:
    """The graph of a catalog entry name; the cycle families are generated."""
    family = _cycle_family(name)
    if family is not None:
        return _cycle_graph(*family)
    return _named_entry(name, extra).graph


def induced(g: Graph, s) -> Graph:
    """The subgraph of g induced on the names in s."""
    return g.subgraph(g.mask(s))


def is_clique(g: Graph, s) -> bool:
    """Whether the names in s are pairwise adjacent in g, pair by pair."""
    return all(g.has_edge(a, b) for a, b in combinations(sorted(set(s)), 2))


def is_simplicial_vertex(g: Graph, v: str) -> bool:
    return is_clique(g, g.adj(v))


def connected_components(g: Graph) -> list[tuple[str, ...]]:
    """Components as sorted name tuples, ordered by least member, by a
    breadth-first search over names."""
    out = []
    seen: set[str] = set()
    for v in g.vertices:
        if v in seen:
            continue
        comp = {v}
        queue = deque([v])
        while queue:
            for w in g.adj(queue.popleft()):
                if w not in comp:
                    comp.add(w)
                    queue.append(w)
        seen |= comp
        out.append(tuple(sorted(comp)))
    return out


def is_connected(g: Graph) -> bool:
    return len(connected_components(g)) <= 1


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


def trivial_words(graph: Graph, max_len: int) -> set:
    """Every word of length at most max_len over the graph's generators that
    the rewriting system of oracle_word_trivial takes to the empty word.

    One reverse closure from the empty word: insert a cancelling pair
    anywhere, or swap two adjacent letters with distinct commuting
    generators. A forward step never lengthens a word, so the path from a
    trivial word to the empty word stays within max_len, and so does its
    reverse."""
    letters = [(v, s) for v in graph.vertices for s in (1, -1)]
    seen = {()}
    queue = deque([()])
    while queue:
        w = queue.popleft()
        grown = []
        if len(w) + 2 <= max_len:
            grown = [w[:i] + ((v, s), (v, -s)) + w[i:]
                     for i in range(len(w) + 1) for v, s in letters]
        for i in range(len(w) - 1):
            g1, g2 = w[i][0], w[i + 1][0]
            if g1 != g2 and graph.has_edge(g1, g2):
                grown.append(w[:i] + (w[i + 1], w[i]) + w[i + 2:])
        for nw in grown:
            if nw not in seen:
                seen.add(nw)
                queue.append(nw)
    return seen


def enumerate_words(letters, max_len: int):
    """Every word (reduced or not) over the letter list, by length then lex."""
    from itertools import product

    for length in range(max_len + 1):
        for combo in product(letters, repeat=length):
            yield tuple(combo)


def reference_canonical_sort(graph: Graph, letters) -> list:
    """Lexicographically least shuffle of a reduced word, quadratically:
    repeatedly take the least letter (generator, then positive before
    negative; the earliest on a tie) that every earlier remaining letter
    commutes with. The order words.normal_form must reproduce."""
    remaining = list(letters)
    out = []
    while remaining:
        best_i = -1
        best_key = None
        seen = set()
        for i, (gen, sign) in enumerate(remaining):
            if all(h == gen or graph.has_edge(h, gen) for h in seen):
                key = (gen, 0 if sign > 0 else 1)
                if best_key is None or key < best_key:
                    best_key = key
                    best_i = i
            seen.add(gen)
        out.append(remaining.pop(best_i))
    return out


def reference_cyclic_normal_form(graph: Graph, word) -> tuple:
    """The least rotation of the cyclic reduction of word: each rotation
    reduced and put through reference_canonical_sort, and the least by
    letter keys (generator, then positive before negative) kept. The word
    words.cyclic_normal_form must return."""
    commutes = _commutation(graph)
    reduced, _ = _cyclic_reduce(commutes, tuple(word))
    best, best_key = (), None
    for k in range(len(reduced)):
        rot = tuple(reference_canonical_sort(
            graph, _reduce_full(commutes, reduced[k:] + reduced[:k])))
        key = tuple((gen, 0 if sign > 0 else 1) for gen, sign in rot)
        if best_key is None or key < best_key:
            best, best_key = rot, key
    return best


def reference_induced_cycle(g: Graph, min_len: int):
    """Shortest induced cycle of length >= min_len by iterative deepening: one
    full depth-first search per target length, starts and extensions
    ascending. The first cycle it finds is the one find_induced_cycle must
    return."""
    n = g.n
    rows = g.rows
    full = (1 << n) - 1
    for target in range(min_len, n + 1):
        for start in range(n):
            found = _extend_to_target(rows, [start], 0, full & ~((2 << start) - 1),
                                      start, target)
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


def reference_clique_splits(g: Graph, minimal_only: bool = False):
    """Every split of g along a clique whose removal disconnects it, by
    enumerating cliques: smallest first, cliques of one size in the order of
    itertools.combinations over positions, one split per component. With
    minimal_only, only separators with at least two full components (every
    separator vertex has a neighbour in the component), the order that
    iter_clique_splits must reproduce."""
    n = g.n
    rows = g.rows
    full = (1 << n) - 1

    def cliques(clique, cand, need):
        if not need:
            yield clique
            return
        for v in _bits(cand):
            yield from cliques(clique | 1 << v, cand & rows[v] & ~((2 << v) - 1), need - 1)

    out = []
    for size in range(0, max(n - 1, 0)):
        for sep in cliques(0, full, size):
            comps = _component_masks(rows, full & ~sep)
            if len(comps) <= 1:
                continue
            if minimal_only and sum(_touches_all(rows, c, sep) for c in comps) < 2:
                continue
            emitted = set()
            for comp in comps:
                left, right = comp | sep, full & ~comp
                if frozenset((left, right)) in emitted:
                    continue
                emitted.add(frozenset((left, right)))
                out.append(CliqueSplit(g.subgraph(left), g.subgraph(right),
                                       frozenset(g.names(sep))))
    return out


def reference_validate_clique_split(g: Graph, split: CliqueSplit) -> bool:
    """Every CliqueSplit invariant on name sets, induced subgraphs and edge
    lists, the answer the checker must give on an AmalgamRule node whose
    children conclude the split's parts."""
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


def _touches_all(rows, comp: int, sep: int) -> bool:
    reach = 0
    for v in _bits(comp):
        reach |= rows[v]
    return reach & sep == sep


def reference_cocontraction_witness(g: Graph, max_depth: int, extra=()):
    """The co-contraction search with a full obstruction scan of every state
    and no pruning: breadth first over complement edges in position order,
    deduplicated by isomorphism class, first state with a hit wins."""
    seen = {canonical_key(g)}
    queue = deque([(g, ())])
    while queue:
        current, trail = queue.popleft()
        hit = find_forbidden_induced(current, extra)
        if hit is not None:
            return Obstruction(KIND_TRAIL if trail else KIND_INDUCED, hit.entry,
                               hit.embedding, trail)
        if len(trail) >= max_depth:
            continue
        verts = current.vertices
        for i in range(current.n):
            for j in range(i + 1, current.n):
                if current.rows[i] >> j & 1:
                    continue
                child = co_contract_edge(current, (verts[i], verts[j]))
                key = canonical_key(child)
                if key not in seen:
                    seen.add(key)
                    queue.append((child, trail + ((verts[i], verts[j]),)))
    return None


# ---------------------------------------------------------------------------
# reference kernels: the bit walks, the peel and the MCS-M pass one step at a
# time, as the library's table-driven and incremental versions must agree


def reference_bits(mask: int) -> list[int]:
    """Positions of the set bits, ascending, one lowest bit at a time."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def reference_is_clique_mask(rows, mask: int) -> bool:
    """Whether the positions in mask are pairwise adjacent, every member
    tested through a generator: the answer ops._is_clique_mask must give."""
    return all((rows[i] | 1 << i) & mask == mask for i in _bits(mask))


def reference_verify_vertex_map(pattern: Graph, host: Graph, mapping) -> bool:
    """Whether mapping embeds pattern in host as an induced subgraph, by name,
    one has_edge call per pattern pair: the answer graphs.verify_vertex_map
    must give."""
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


def reference_find_induced(pattern: Graph, host: Graph):
    """The plain depth-first search for an induced copy of pattern: pattern
    vertices by position, each tried at every host position in ascending
    order, filtered by degree and by adjacency to the vertices before it.
    Its first embedding, or None, is the one graphs.find_induced must
    return."""
    np_, nh = pattern.n, host.n
    if np_ > nh:
        return None
    pv = pattern.vertices
    hv = host.vertices
    prows = pattern.rows
    hrows = host.rows
    pdeg = [r.bit_count() for r in prows]
    hdeg = [r.bit_count() for r in hrows]
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


def reference_find_forbidden_induced(g: Graph, extra=()):
    """The induced scan with nothing cut short: the shortest holes of g and
    of its complement, then every size from 5 up, Cn before coCn before the
    fixed entries (P1(8) and the extras) by name. The first hit is the one
    obstructions.find_forbidden_induced must return."""
    n = g.n
    if n < 5:
        return None
    cyc = find_induced_cycle(g, 5)
    cocyc = find_induced_cycle(complement(g), 5)
    fixed = sorted([e for e in builtin_catalog() if e.name == "P1(8)"] + list(extra),
                   key=lambda e: (e.graph.n, e.name))
    for size in range(5, n + 1):
        for family, w in (("C", cyc), ("coC", cocyc)):
            if w is not None and len(w.vertices) == size:
                return Obstruction(KIND_INDUCED, "%s%d" % (family, size),
                                   tuple(sorted(zip(["v%d" % (i + 1) for i in range(size)],
                                                    w.vertices))))
        for e in fixed:
            if e.graph.n == size:
                hit = find_induced(e.graph, g)
                if hit is not None:
                    return Obstruction(KIND_INDUCED, e.name, tuple(sorted(hit.items())))
    return None


def reference_relabel(rows, order) -> tuple[int, ...]:
    """Rows of the graph induced on the positions in order, order[i]
    renumbered i, through a position map and one bit at a time."""
    pos = {old: new for new, old in enumerate(order)}
    return tuple(sum(1 << pos[j] for j in reference_bits(rows[old]) if j in pos)
                 for old in order)


def reference_peel(g: Graph) -> tuple[list, int]:
    """(steps, core mask) of the peel, scanning what is left from scratch
    for its first simplicial vertex at every step."""
    rows = g.rows
    rest = (1 << g.n) - 1
    steps = []
    while True:
        for v in reference_bits(rest):
            near = rows[v] & rest
            if all(near & ~(rows[u] | 1 << u) == 0 for u in reference_bits(near)):
                break
        else:
            break
        clique = rows[v] & rest | 1 << v
        if clique == rest:
            break
        outside = rest & ~clique
        sep = sum(1 << u for u in reference_bits(clique) if rows[u] & outside)
        steps.append((rest, clique, sep))
        rest &= ~clique | sep
    return steps, rest


def reference_mcs_m_separators(rows, n: int) -> list[int]:
    """The clique minimal separators by one MCS-M pass that keeps a label
    per vertex, takes the first unnumbered vertex of the largest label, and
    regroups the unnumbered vertices by label at every step; sorted by size,
    then by ascending member positions."""
    label = [0] * n
    madj = [0] * n
    unnumbered = (1 << n) - 1
    found = set()
    previous = -1
    while unnumbered:
        x = max(reference_bits(unnumbered), key=label.__getitem__)
        clique = all((rows[i] | 1 << i) & madj[x] == madj[x] for i in reference_bits(madj[x]))
        if label[x] <= previous and clique:
            found.add(madj[x])
        previous = label[x]
        unnumbered &= ~(1 << x)
        levels = {}
        for y in reference_bits(unnumbered):
            levels[label[y]] = levels.get(label[y], 0) | 1 << y
        raised = reached = below = 0
        border = rows[x]
        for level in sorted(levels):
            at = levels[level]
            raised |= at & border
            below |= at
            frontier = at & border
            while frontier:
                reached |= frontier
                for v in reference_bits(frontier):
                    border |= rows[v]
                frontier = border & below & ~reached
        for y in reference_bits(raised):
            label[y] += 1
            madj[y] |= 1 << x
    return sorted(found, key=lambda s: (s.bit_count(), reference_bits(s)))


def reference_parse_graph6(data: bytes) -> Graph:
    """graph6 decoded bit by bit into an edge list on v1..vn, through the
    validating Graph constructor, with the same checks and messages as
    graphs.parse_graph6."""
    s = data.strip()
    if s.startswith(b">>graph6<<"):
        s = s[len(b">>graph6<<"):].lstrip()
    if not s:
        raise GraphError("empty graph6 input")
    n, body = s[0] - 63, s[1:]
    if n == 63:
        head, body = s[1:4], s[4:]
        n = 0
        for b in head:
            n = n << 6 | b - 63
        if len(head) != 3 or any(b < 63 or b > 126 for b in head) or not 63 <= n <= 258047:
            raise GraphError("malformed graph6 header %r" % (s[:4],))
    elif n < 0:
        raise GraphError("malformed graph6 header byte %r" % (s[0],))
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) != need:
        raise GraphError("graph6 body has %d bytes, expected %d" % (len(body), need))
    bits = []
    for b in body:
        if b < 63 or b > 126:
            raise GraphError("graph6 byte out of range: %r" % (b,))
        bits.extend((b - 63) >> k & 1 for k in range(5, -1, -1))
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


def reference_check_chain(obj: dict) -> bool:
    """A ChainRule node in its JSON form, replayed by name: each name is
    looked up in the node's own graph, so a name outside it fails the
    replay. A clique step needs its clique within what is there and not all
    of it, its separator within the clique and not all of it, the clique
    complete and no edge from clique less separator to the rest; it removes
    clique less separator. An edge step needs an edge of what is there,
    bisimplicial in it (every neighbour of one end equal or adjacent to
    every neighbour of the other), and deletes it. The child must be what is
    left, names and rows."""
    g = graph_from_json(obj["graph"])
    if len(obj["children"]) != 1 or not obj["steps"]:
        return False
    index = {v: i for i, v in enumerate(g.vertices)}
    rows = list(g.rows)
    rest = (1 << g.n) - 1
    for step in obj["steps"]:
        names = step["edge"] if "edge" in step else step["clique"] + step["separator"]
        if any(v not in index for v in names):
            return False
        if "edge" in step:
            a, b = (index[v] for v in step["edge"])
            if not (rest >> a & rest >> b & rows[a] >> b & 1):
                return False
            if any(rows[b] & ~(rows[u] | 1 << u) for u in reference_bits(rows[a])):
                return False
            rows[a] &= ~(1 << b)
            rows[b] &= ~(1 << a)
            continue
        clique = sum(1 << index[v] for v in set(step["clique"]))
        sep = sum(1 << index[v] for v in set(step["separator"]))
        if clique & ~rest or clique == rest or sep & ~clique or sep == clique:
            return False
        if not reference_is_clique_mask(rows, clique):
            return False
        gone = clique & ~sep
        if any(rows[u] & rest & ~clique for u in reference_bits(gone)):
            return False
        rest &= ~gone
        rows = [r & ~gone for r in rows]
    child = graph_from_json(obj["children"][0]["graph"])
    keep = reference_bits(rest)
    return (child.vertices == tuple(g.vertices[i] for i in keep)
            and child.rows == reference_relabel(rows, keep))


def reference_is_chordal_bipartite(g: Graph):
    """prover.is_chordal_bipartite with the witness searched for first: a
    triangle, else the shortest induced cycle of length >= 5, and the greedy
    pass of bisimplicial edge removals only when there is neither. The
    answer the pass-first order must give."""
    witness = find_induced_cycle(g, 3)
    if witness is None or len(witness.vertices) != 3:
        witness = find_induced_cycle(g, 5)
    if witness is not None:
        return witness
    rows = list(g.rows)
    steps = []
    while any(rows):
        a, b = next(_bisimplicial_edges(rows))
        rows[a] ^= 1 << b
        rows[b] ^= 1 << a
        steps.append(1 << a | 1 << b)
    peel = _peel(_from_sorted(g.vertices, tuple(rows)))
    return _chain(g, steps + list(peel.steps), _leaf(peel.core))
