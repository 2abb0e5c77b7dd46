"""Correctness checks made apart from the program.

They share no code with raagscope's searches: induced cycles are found by
brute force over vertex subsets, chordality and isomorphism come from
networkx, and certificates go through raagscope's independent checkers.
Every check runs on every run, outside the timed region.
"""

from __future__ import annotations

from inputs import Adj, complement, decode_graph6

NO = "no_surface_subgroup"
HAS = "has_surface_subgroup"
UNKNOWN = "unknown"


class CheckFailed(Exception):
    pass


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _rows(adj: Adj) -> list[int]:
    rows = [0] * len(adj)
    for v, nb in adj.items():
        for u in nb:
            rows[v] |= 1 << u
    return rows


def induced_cycle_lengths(adj: Adj) -> set[int]:
    """Lengths of all induced cycles, by trying every vertex subset: a subset
    is an induced cycle iff each member has exactly two neighbours in it and
    the subset is connected."""
    rows = _rows(adj)
    lengths = set()
    for s in range(1, 1 << len(rows)):
        size = s.bit_count()
        if size < 3 or size in lengths:
            continue
        rest = s
        while rest:
            low = rest & -rest
            if (rows[low.bit_length() - 1] & s).bit_count() != 2:
                break
            rest ^= low
        else:
            reach = s & -s
            while True:
                grown = reach
                rest = reach
                while rest:
                    low = rest & -rest
                    grown |= rows[low.bit_length() - 1] & s
                    rest ^= low
                if grown == reach:
                    break
                reach = grown
            if reach == s:
                lengths.add(size)
    return lengths


def expected_verdicts(adj: Adj) -> set[str]:
    """The verdicts the theory forces: an induced cycle of length >= 5 in the
    graph or its complement forces a surface subgroup; the paper's theorem
    rules one out for chordal and for chordal bipartite graphs."""
    import networkx as nx

    own = induced_cycle_lengths(adj)
    forced = set()
    if max(own | induced_cycle_lengths(complement(adj)), default=0) >= 5:
        forced.add(HAS)
    g = nx.Graph()
    g.add_nodes_from(adj)
    g.add_edges_from((u, v) for u in adj for v in adj[u] if u < v)
    # all induced cycles are 4-cycles: no odd one, so bipartite, and no long one
    if own <= {4} or nx.is_chordal(g):
        forced.add(NO)
    return forced


def check_verdict(text: str, verdict) -> str:
    """Check one classify verdict on the graph6 ``text``; return its status."""
    from raagscope import graphs, obstructions, prover

    status = verdict.status
    require(not (verdict.obstruction is not None and verdict.derivation is not None),
            "%s holds both certificates" % text)
    g = graphs.parse_graph6(text)
    if status == HAS:
        require(verdict.obstruction is not None
                and obstructions.verify_obstruction(g, verdict.obstruction),
                "%s: obstruction does not verify" % text)
    elif status == NO:
        require(verdict.derivation is not None
                and prover.check_derivation(verdict.derivation, g),
                "%s: derivation does not verify" % text)
    else:
        require(status == UNKNOWN and verdict.obstruction is None
                and verdict.derivation is None, "%s: bad status %r" % (text, status))
    forced = expected_verdicts(decode_graph6(text))
    require(not forced or forced == {status},
            "%s: got %s, the theory forces %s" % (text, status, sorted(forced)))
    return status


def check_atlas(texts: list[str], n: int) -> None:
    """The enumeration gives exactly one graph per isomorphism class on n
    vertices: a bijection onto networkx's graph atlas."""
    import networkx as nx

    atlas = [g for g in nx.graph_atlas_g() if g.number_of_nodes() == n]
    require(len(texts) == len(atlas),
            "enumeration gave %d classes, the atlas has %d" % (len(texts), len(atlas)))
    buckets: dict = {}
    for i, g in enumerate(atlas):
        buckets.setdefault(_invariant(g), []).append(i)
    matched = set()
    for text in texts:
        adj = decode_graph6(text)
        h = nx.Graph()
        h.add_nodes_from(adj)
        h.add_edges_from((u, v) for u in adj for v in adj[u] if u < v)
        hits = [i for i in buckets.get(_invariant(h), ()) if nx.is_isomorphic(atlas[i], h)]
        require(len(hits) == 1, "%s matches %d atlas graphs" % (text, len(hits)))
        require(hits[0] not in matched, "%s repeats an isomorphism class" % text)
        matched.add(hits[0])


def _invariant(g) -> tuple:
    import networkx as nx

    tri = nx.triangles(g)
    return tuple(sorted((g.degree(v), tri[v], tuple(sorted(g.degree(u) for u in g[v])))
                        for v in g))
