"""Derivations that a graph group has no hyperbolic surface subgroup.

A derivation is a proof tree over five closure rules: complete graphs are
leaves; joins, complete-graph amalgamations, bisimplicial-edge additions and
co-contractions combine or transform derived graphs. Membership in the
derived family implies there is no relative embedding of a compact hyperbolic
surface group, hence no closed hyperbolic surface subgroup.

Call F the family the four rules other than co-contraction derive. F is
closed under induced subgraphs (heredity): a derivation of g restricts to any
induced subgraph U, node by node. A clique stays a clique; a join or an
amalgam splits U into the restricted parts, along the restricted clique in
the amalgam case, and collapses to one part when the other is empty or lies
inside the separator; a bisimplicial edge with both ends in U stays
bisimplicial, and otherwise the node collapses to its child. So a clique
split decides a graph: g is in F exactly when both parts are, and so does a
join.

The prover peels, then searches. Every graph it meets is first peeled
(_peel): the clique of a simplicial vertex is split off, again and again, as
in the paper's proof that chordal graphs lie in N'. Each such split decides,
and it costs no search. What is left is the core: a complete graph exactly
when the graph is chordal, and otherwise a graph with no simplicial vertex.
Only a core that is not complete is searched. A bipartite core is decided
by the greedy pass alone, in one node, with no other rule: on a bipartite
graph, removing the first bisimplicial edge never loses F (the argument is
at the pass, in _Search._expand). Any other core goes to one sequential
depth-first search over the rules in a fixed order (amalgam split at the
first clique minimal separator, bisimplicial edge removal, join
decomposition), whose parts are peeled in turn. The split and the join are
decisive: when a part fails, the graph fails, and after a split neither a
bisimplicial edge nor the join is tried (by heredity neither could
succeed). Bisimplicial edges still come before the join. The search is one
loop over an explicit stack of open cores (_Search._closes), so a long run
of bisimplicial removals costs stack entries, not Python frames.

Both unary rules, a peel step and a bisimplicial edge, come in long runs: a
chordal graph is all peel steps, a chordal bipartite one all edges and peel
steps. A derivation holds each run as one chain node (ChainRule): its
conclusion is the run's top graph, its steps are the run's clique and edge
steps as vertex masks over the positions of that graph, and its one child
derives what is left, a complete graph, a clique split or a join. So a
derivation nests once per split or join, not once per step. Names appear
only at the edges: derivation_to_json names each mask, and
derivation_from_json maps the names back, reading a BisimplicialRule node,
as written before chain nodes existed, as a chain of its one edge step.
check_derivation has one check per rule, on vertex masks over each node's
conclusion.

One search holds one memo and one node budget, both over cores: a search
node is a core, and a chordal graph spends neither, so it is derived even
after the budget has run out. classify makes one search per call, for the
graph itself and then for the states of the co-contraction search. The memo
maps a core, names and rows, to a decision, the rule that closed it with its
separator, edges or bipartition and its peeled parts, or to None, and the
prover never labels a graph canonically. A search decides first and
assembles after: only a graph it was asked to prove gets a derivation, built
once from the decisions, while the states of the co-contraction search are
only decided. Every core met in the search of g is an induced subgraph of g
less some edges, on g's own names, so a core that recurs is an equal graph
and hits. Only the searches of co-contraction
states, whose graphs carry manufactured names, meet isomorphic but unequal
graphs; such a graph is searched again, which costs less than labelling
every graph and renaming a derivation. A two-part rule searches its right
part only after its left part closed, so node counts, budget verdicts and
memo contents are deterministic. It never guesses co-contraction preimages;
that rule exists only in the checker, so externally supplied derivations
using it still validate.

classify works cheapest first: it peels the graph, and a chordal graph is
derived by construction with nothing else run on it, since chordal graphs
lie in N' (the paper's theorem), so no catalog obstruction can embed in one;
so is a graph whose core is bipartite and derived by the greedy pass. Any
other graph goes to the induced obstruction scan, then to the search of its
core, then to the co-contraction search.

is_chordal and is_chordal_bipartite recognize the graphs of the paper's two
corollaries, which say that chordal and chordal bipartite graphs lie in N'.
Each answers with a derivation, so check_derivation is the one checker of
both, or with an induced-cycle witness from recognize. Neither assembles a
derivation of its own: is_chordal takes the peel's, and is_chordal_bipartite
the search's, so each derivation is the one classify returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from time import perf_counter
from typing import Generator, Optional, Sequence, Union

from .graphs import (
    Graph,
    GraphError,
    _bits,
    _from_sorted,
    _graph6_order,
    _name_index,
    _relabel,
    _shared,
    emit_graph6,
    graph_from_json,
    graph_to_json,
    is_isomorphic,
)
from .obstructions import (
    ForbiddenEntry,
    Obstruction,
    find_cocontraction_witness,
    find_forbidden_induced,
    verify_obstruction,
)
from .ops import (
    _bisimplicial_edges,
    _component_masks,
    _is_amalgam,
    _is_bipartite,
    _is_bisimplicial,
    _is_clique_mask,
    co_contract,
    is_complete,
    iter_clique_splits,
)
from .recognize import CycleWitness, find_induced_cycle

RULE_COMPLETE = "CompleteBase"
RULE_JOIN = "JoinRule"
RULE_AMALGAM = "AmalgamRule"
RULE_BISIMP = "BisimplicialRule"
RULE_COCONTRACT = "CoContractRule"
RULE_CHAIN = "ChainRule"

NO_SURFACE = "no_surface_subgroup"
HAS_SURFACE = "has_surface_subgroup"
UNKNOWN = "unknown"

DEFAULT_BUDGET = 10000
DEFAULT_COCONTRACT_DEPTH = 2


class SoundnessError(RuntimeError):
    """Both certificate kinds verified for one graph, or a searcher emitted an
    invalid certificate. Signals a bug, never a valid state."""


@dataclass(frozen=True, slots=True)
class Derivation:
    """One node of a derivation. A chain node (RULE_CHAIN) replays its steps
    on its conclusion, in order, and its one child derives what is left.
    Steps are vertex masks over the positions of the conclusion, and
    conclusion.names(mask) names them. A clique step (K, S), a pair of
    masks, splits off the clique K along S, a proper subset of K, and
    removes K - S; an edge step, one mask with exactly two bits set, deletes
    that edge, bisimplicial where it is deleted. The JSON form names every
    mask (derivation_to_json)."""

    rule: str
    conclusion: Graph
    children: tuple["Derivation", ...] = ()
    separator: Optional[frozenset[str]] = None
    bipartition: Optional[tuple[frozenset[str], frozenset[str]]] = None
    contracted: Optional[frozenset[str]] = None
    steps: Optional[tuple[Union[int, tuple[int, int]], ...]] = None

    def rules_used(self) -> set[str]:
        """The rules applied: a chain's steps count as the amalgam and
        bisimplicial-edge rules they apply."""
        out = set()
        stack = [self]
        while stack:
            node = stack.pop()
            if node.rule == RULE_CHAIN and node.steps:
                out.update(RULE_BISIMP if _is_edge_step(step) else RULE_AMALGAM
                           for step in node.steps)
            else:
                out.add(node.rule)
            stack.extend(node.children)
        return out


def _is_edge_step(step) -> bool:
    return isinstance(step, int)


def _chain(top: Graph, steps: Sequence, end: Derivation) -> Derivation:
    """The chain node that takes top by steps to the conclusion of end; end
    itself when there is no step. The steps tuple is a shared copy, as its
    steps are."""
    return Derivation(RULE_CHAIN, top, (end,), steps=_shared(tuple(steps))) if steps else end


def _lift(mask: int, at: Optional[Sequence[int]]) -> int:
    """mask with each bit i moved to at[i]; mask itself when at is None."""
    if at is None:
        return mask
    out = 0
    for i in _bits(mask):
        out |= 1 << at[i]
    return out


@lru_cache(maxsize=256)
def _leaf(g: Graph) -> Derivation:
    # complete-graph leaves recur across derivations (K1 and K2 on the same
    # names above all), so one copy of each is kept
    return Derivation(RULE_COMPLETE, g)


@dataclass(frozen=True, slots=True)
class _Peel:
    """A graph with the cliques of its simplicial vertices split off: steps
    holds one (clique, separator) pair of vertex masks per split, in
    order, each a shared copy, since derivations of graphs on the same
    positions repeat them; rest is the mask of what is left, and core the
    subgraph it induces, complete exactly when the graph is chordal. Core
    position i is graph position _bits(rest)[i]."""

    graph: Graph
    steps: tuple[tuple[int, int], ...]
    rest: int
    core: Graph


def _peel(h: Graph) -> _Peel:
    """Split off the clique of the first simplicial vertex of h until what is
    left is complete or has no simplicial vertex.

    For a simplicial vertex v of what is left, K = N[v] is a maximal clique
    of it; with S the members of K that have a neighbour outside K, what is
    left is the amalgam of K and of itself less K - S along the clique S, and
    K - S holds v at least. By heredity each step decides: what is left is in
    F exactly when the smaller graph is. Every vertex of K - S has K as its
    closed neighbourhood, so it is simplicial and lies on no induced cycle of
    length >= 4 (Dirac, On rigid circuit graphs, Abh. Math. Sem. Univ.
    Hamburg 1961); the core keeps every such cycle of h. So on a chordal h the
    walk ends at a complete graph, after at most n - 1 steps, about one per
    maximal clique: the paper's proof that chordal graphs lie in N'. On any
    other h it ends at a core with no simplicial vertex. No subgraph but the
    core is built.

    The simplicial vertices of what is left are kept as a mask, and a step
    re-tests only the members of S. Every neighbour of a removed vertex lies
    in K, and K meets what is left after the step in S, so a vertex outside
    S keeps its neighbourhood and with it its answer; a vertex of S that was
    simplicial stays so, since a simplicial vertex stays simplicial in an
    induced subgraph. The lowest bit of the mask is then the first
    simplicial vertex by position, the one a scan from scratch would take.
    """
    rows = h.rows
    full = rest = (1 << h.n) - 1
    simplicial = 0
    for v in _bits(rest):
        if _is_clique_mask(rows, rows[v]):
            simplicial |= 1 << v
    steps = []
    while simplicial:
        low = simplicial & -simplicial
        clique = rows[low.bit_length() - 1] & rest | low
        if clique == rest:
            break
        outside = rest & ~clique
        sep = 0
        for u in _bits(clique):
            if rows[u] & outside:
                sep |= 1 << u
        steps.append(_shared((clique, sep)))
        rest &= ~clique | sep
        simplicial &= rest
        for u in _bits(sep & ~simplicial):
            if _is_clique_mask(rows, rows[u] & rest):
                simplicial |= 1 << u
    return _Peel(h, tuple(steps), rest, h if rest == full else h.subgraph(rest))


def is_chordal(g: Graph) -> Union[Derivation, CycleWitness]:
    """The derivation of g that classify builds, or, when g's core is not
    complete, the shortest induced cycle of length at least 4.

    A core that is not complete has no simplicial vertex, so it holds an
    induced cycle of length >= 4 (Dirac), which is one of g, and
    find_induced_cycle(g, 4) finds the shortest.
    """
    peel = _peel(g)
    if not is_complete(peel.core):
        return find_induced_cycle(g, 4)
    return _chain(g, peel.steps, _leaf(peel.core))


def is_chordal_bipartite(g: Graph) -> Union[Derivation, CycleWitness]:
    """The derivation of a chordal bipartite g that classify builds, else a
    triangle or the shortest induced cycle of length >= 5.

    A bipartite g goes straight to the prover (prove_in_f): its core is
    bipartite, so the search decides it in one node by the greedy pass
    (_Search._expand), and the default budget never runs out. The pass
    derives g exactly when g is chordal bipartite, so a cycle is searched
    for only when g is not: when g is not bipartite, a triangle, else the
    shortest induced cycle of length >= 5 (a shortest odd cycle is induced),
    and when the pass stalls, the shortest induced cycle of length >= 5, of
    which g then has one. The answer is the one a search for the witness
    before the pass would give.
    """
    if _is_bipartite(g.rows):
        return prove_in_f(g) or find_induced_cycle(g, 5)
    triangle = find_induced_cycle(g, 3)
    if len(triangle.vertices) == 3:
        return triangle
    return find_induced_cycle(g, 5)


# ---------------------------------------------------------------------------
# independent checker


def check_derivation(d: Derivation, g: Graph) -> bool:
    """Re-validate every node from first principles and match the root against
    g up to isomorphism; a root equal to g (same names, same rows) matches by
    the identity, with no canonical labeling. Shares only the elementary graph
    operations with the prover, none of its search logic."""
    try:
        if not _check_node(d):
            return False
    except (KeyError, TypeError, ValueError):
        # a malformed node: an unknown name, a step of the wrong shape
        return False
    return d.conclusion == g or is_isomorphic(d.conclusion, g) is not None


def _check_node(root: Derivation) -> bool:
    """Every node of the derivation at root passes _check_rule, checked in
    preorder, children left to right, on an explicit stack: a supplied
    derivation may nest as deep as it likes."""
    stack = [root]
    while stack:
        node = stack.pop()
        if not _check_rule(node):
            return False
        stack.extend(reversed(node.children))
    return True


def _check_rule(node: Derivation) -> bool:
    """The node's rule holds between its conclusion c and its children's,
    checked on vertex masks over c's positions. A join's children are
    disjoint, every pair across them is adjacent, and its bipartition names
    them; an amalgam's children meet in its separator, and c is their
    amalgam along it (ops._is_amalgam). Both cover c, and each child has
    the rows of c restricted to it and renumbered."""
    c = node.conclusion
    if node.rule == RULE_COMPLETE:
        return not node.children and is_complete(c)
    if node.rule == RULE_CHAIN:
        return _check_chain(node)
    if node.rule == RULE_COCONTRACT:
        if len(node.children) != 1 or node.contracted is None:
            return False
        child = node.children[0].conclusion
        if not node.contracted <= set(child.vertices):
            return False
        return co_contract(child, node.contracted) == c
    if node.rule not in (RULE_JOIN, RULE_AMALGAM) or len(node.children) != 2:
        return False
    rows = c.rows
    full = (1 << c.n) - 1
    c0, c1 = (child.conclusion for child in node.children)
    m0 = _mask(c, c0.vertices)
    m1 = _mask(c, c1.vertices)
    if m0 | m1 != full:
        return False
    if node.rule == RULE_JOIN:
        if node.bipartition is None or len(node.bipartition) != 2:
            return False
        a, b = node.bipartition
        if m0 & m1 or _mask(c, a) != m0 or _mask(c, b) != m1:
            return False
        if any(rows[u] & m1 != m1 for u in _bits(m0)):
            return False
    else:
        if node.separator is None:
            return False
        sep = _mask(c, node.separator)
        if m0 & m1 != sep or not _is_amalgam(rows, full, m0, sep):
            return False
    return c0.rows == _relabel(rows, _bits(m0)) and c1.rows == _relabel(rows, _bits(m1))


def _mask(g: Graph, names) -> int:
    """The mask of names over g's positions. A name g lacks sets bit g.n,
    past the last position, which no check accepts."""
    index = _name_index(g.vertices)
    absent = 1 << g.n
    out = 0
    for v in names:
        out |= 1 << index[v] if v in index else absent
    return out


def _check_chain(node: Derivation) -> bool:
    """Replay the chain's steps on one copy of the conclusion's rows, rest the
    mask of the vertices still there; a row of a vertex in rest keeps to
    rest. A mask with a bit outside rest, a negative one among them, is
    refused. A clique step (K, S) needs K a clique and what is there the
    amalgam of K and of itself less K - S along S (ops._is_amalgam), and it
    loses K - S. An edge step needs two bits, an edge of what is there,
    bisimplicial in it, and deletes it. The child must conclude what is
    left, names and rows."""
    if len(node.children) != 1 or not node.steps:
        return False
    c = node.conclusion
    rows = list(c.rows)
    rest = (1 << c.n) - 1
    for step in node.steps:
        if isinstance(step, int):
            if step & ~rest or step.bit_count() != 2:
                return False
            a = (step & -step).bit_length() - 1
            b = step.bit_length() - 1
            if not rows[a] >> b & 1 or not _is_bisimplicial(rows, a, b):
                return False
            rows[a] ^= 1 << b
            rows[b] ^= 1 << a
            continue
        clique, sep = step
        # the kernel first: it refuses a bit outside rest before any row is read
        if not _is_amalgam(rows, rest, clique, sep) or not _is_clique_mask(rows, clique):
            return False
        gone = clique & ~sep
        rest ^= gone
        for u in _bits(sep):
            rows[u] &= ~gone
    child = node.children[0].conclusion
    keep = _bits(rest)
    return (child.vertices == tuple(c.vertices[i] for i in keep)
            and child.rows == _relabel(rows, keep))


# ---------------------------------------------------------------------------
# prover


@dataclass(frozen=True, slots=True)
class UnknownReport:
    """What the derivation search did; the report of an unknown verdict. The
    budget and co-contraction depth it ran under are the caller's to state.

    stuck names the first 32 cores that no rule closed (graphs left once
    simplicial cliques are split off; see _peel), in the order they failed,
    each as its graph6 value followed by its vertex names in the order of
    the graph6 positions: sorted order, except v1..vk in that order for a
    core named exactly so."""

    nodes_expanded: int
    budget_exhausted: bool
    rules_attempted: tuple[str, ...]
    stuck: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {
            "nodes_expanded": self.nodes_expanded,
            "budget_exhausted": self.budget_exhausted,
            "rules_attempted": list(self.rules_attempted),
            "stuck": list(self.stuck),
        }


@dataclass(frozen=True, slots=True)
class _Decision:
    """How the search closed a core: the rule, its separator, the masks of
    the bisimplicial edges it removes in turn over the core's positions
    (one, or every edge of a bipartite core), or its bipartition, and the
    peeled parts the rule closed it from, in the order of the derivation's
    children."""

    rule: str
    parts: tuple[_Peel, ...]
    separator: Optional[frozenset[str]] = None
    edges: tuple[int, ...] = ()
    bipartition: Optional[tuple[frozenset[str], frozenset[str]]] = None


# a rule in progress: it yields the peeled part it waits on, is sent whether
# that part closed, and returns its decision
_Rule = Generator[_Peel, bool, Optional[_Decision]]


class _Search:
    """One depth-first derivation search over one memo and one node budget.

    The search decides first and assembles after. _closes decides a peeled
    graph in one loop over an explicit stack of open cores, each with its
    rule, a generator (_expand, _both) that yields the peeled part it waits
    on and is sent that part's answer; the memo and the budget see each
    core alone. A complete core, the core of a chordal graph, spends no node
    and is kept in no memo entry. Every other core costs one node on its
    first visit, and a bipartite core costs only that one: the greedy pass
    decides it whole, and its decision holds every edge the pass removes.
    The node past the budget ends the search with False and marks it
    exhausted; from then on, a graph is decided only if it is chordal or its
    core hits the memo. The memo maps each core searched to its _Decision,
    or to None when no rule closed it, so a graph decided only for a yes or
    no (the pruning of the co-contraction search) builds no derivation.
    prove builds the derivation of the graph it was asked about from the
    decisions, once.
    """

    def __init__(self, budget: int):
        if budget < 1:
            raise ValueError("budget must be at least 1")
        self.memo: dict[Graph, Optional[_Decision]] = {}
        self.budget = budget
        self.nodes = 0
        self.exhausted = False
        self.rules_attempted: set[str] = set()
        self.stuck: list[Graph] = []

    def prove(self, peel: _Peel) -> Optional[Derivation]:
        """The derivation of the peeled graph, or None."""
        return self._build(peel) if self._closes(peel) else None

    def derives(self, h: Graph) -> bool:
        """Whether prove would derive h; builds no derivation."""
        return self._closes(_peel(h))

    def _closes(self, peel: _Peel) -> bool:
        """Whether the peeled graph is in F. A peeled graph whose core is
        complete or in the memo is answered at once; any other core spends a
        node and is pushed with its rule, started by sending None. A rule
        that returns is popped, its decision goes into the memo, and its
        answer is sent to the rule below it, or returned from the bottom."""
        stack = []
        while True:
            core = peel.core
            if is_complete(core):
                answer = True
            elif core in self.memo:
                answer = self.memo[core] is not None
            else:
                self.nodes += 1
                if self.nodes > self.budget:
                    self.exhausted = True
                    return False
                stack.append((core, self._expand(core)))
                answer = None
            while stack:
                core, rule = stack[-1]
                try:
                    peel = rule.send(answer)
                    break
                except StopIteration as done:
                    stack.pop()
                    decision = self.memo[core] = done.value
                    if decision is None and len(self.stuck) < 32:
                        self.stuck.append(core)
                    answer = decision is not None
            else:
                return answer

    def report(self) -> UnknownReport:
        return UnknownReport(
            nodes_expanded=self.nodes,
            budget_exhausted=self.exhausted,
            rules_attempted=tuple(sorted(self.rules_attempted)),
            stuck=tuple("%s %s" % (emit_graph6(core).decode("ascii"),
                                   " ".join(core.vertices[i] for i in _graph6_order(core)))
                        for core in self.stuck),
        )

    def _build(self, peel: _Peel) -> Derivation:
        """The derivation of a decided peeled graph, whose core is complete or
        has a decision. One chain node holds the peel steps and, while the
        core was closed by bisimplicial edges, those edges and the peel steps
        of what they leave; the walk ends at a complete core, a clique split
        or a join.

        Every step is a mask over the top graph's positions. The graph
        below the edges is the core less those edges, on the core's
        positions, so its masks are lifted through at, the top position of
        each core position: bit i goes to at[i]. at starts as the top's own
        positions and composes with _bits(rest) at every peel that removes a
        vertex."""
        top = peel.graph
        steps = list(peel.steps)
        decision = self.memo.get(peel.core)
        at = None if peel.core is top else _bits(peel.rest)
        while decision is not None and decision.rule == RULE_BISIMP:
            peel = decision.parts[0]
            steps += [_shared(_lift(edge, at)) for edge in decision.edges]
            if at is None:
                steps += peel.steps
            else:
                steps += [_shared((_lift(clique, at), _lift(sep, at)))
                          for clique, sep in peel.steps]
            if peel.core is not peel.graph:
                keep = _bits(peel.rest)
                at = keep if at is None else [at[i] for i in keep]
            decision = self.memo.get(peel.core)
        if decision is None:
            end = _leaf(peel.core)
        else:
            end = Derivation(decision.rule, peel.core,
                             tuple(self._build(p) for p in decision.parts),
                             separator=decision.separator, bipartition=decision.bipartition)
        return _chain(top, steps, end)

    def _expand(self, h: Graph) -> _Rule:
        # h is a core: no simplicial vertex, so not complete
        rows = h.rows
        if _is_bipartite(rows):
            # decisive, in one node and with no other rule: the greedy pass
            # removes the first bisimplicial edge, in edge_pairs order, until
            # no edge is left, on one list of rows with no graph per edge.
            # It never stalls on a chordal bipartite graph: one with an edge
            # has a bisimplicial edge (Golumbic and Goss, Perfect elimination
            # and chordal bipartite graphs, J. Graph Theory 1978), and
            # deleting it keeps the graph bipartite and creates no induced
            # cycle of length >= 6, since such a cycle would pass through
            # both ends, each of whose neighbours is adjacent to every
            # neighbour of the other, giving a chord. Conversely a bipartite
            # graph in F has no hole, since F is hereditary and holds no
            # cycle of length >= 5: it is chordal bipartite. So the pass
            # decides F on a bipartite graph, and when it stalls h holds an
            # induced cycle of length >= 6.
            self.rules_attempted.add(RULE_BISIMP)
            cut = list(rows)
            edges = []
            while any(cut):
                edge = next(_bisimplicial_edges(cut), None)
                if edge is None:
                    return None
                a, b = edge
                cut[a] ^= 1 << b
                cut[b] ^= 1 << a
                edges.append(_shared(1 << a | 1 << b))
            rest = _peel(_from_sorted(h.vertices, tuple(cut)))
            return _Decision(RULE_BISIMP, (rest,), edges=tuple(edges))
        for split in iter_clique_splits(h):
            # the first split only: it is decisive, so no other rule is tried
            return (yield from self._both(RULE_AMALGAM, split.left, split.right,
                                          separator=split.separator))
        # on positions: the child drops the edge from two rows, and only the
        # edge that closes h is named
        for a, b in _bisimplicial_edges(rows):
            self.rules_attempted.add(RULE_BISIMP)
            cut = list(rows)
            cut[a] ^= 1 << b
            cut[b] ^= 1 << a
            child = _peel(_from_sorted(h.vertices, tuple(cut)))
            if (yield child):
                return _Decision(RULE_BISIMP, (child,), edges=(1 << a | 1 << b,))
        # the join: the complement's first component, by least member, and the rest
        full = (1 << h.n) - 1
        co_rows = tuple(full ^ r ^ (1 << i) for i, r in enumerate(rows))
        comps = _component_masks(co_rows, full)
        if len(comps) > 1:
            left, right = h.subgraph(comps[0]), h.subgraph(full ^ comps[0])
            return (yield from self._both(RULE_JOIN, left, right, bipartition=(
                frozenset(left.vertices), frozenset(right.vertices))))
        return None

    def _both(self, rule: str, left: Graph, right: Graph, **labels) -> _Rule:
        """The decision of a two-part rule, a clique split or a join, from
        its parts: both are induced subgraphs of the core, so by heredity the
        core is in F exactly when both are. The right part is decided only
        after the left closed."""
        self.rules_attempted.add(rule)
        first = _peel(left)
        if (yield first):
            second = _peel(right)
            if (yield second):
                return _Decision(rule, (first, second), **labels)
        return None


def prove_in_f(g: Graph, budget: int = DEFAULT_BUDGET) -> Optional[Derivation]:
    """Search for a derivation concluding g; None on exhaustion or budget.
    Absence of a derivation is not a negative result."""
    return _Search(budget).prove(_peel(g))


# ---------------------------------------------------------------------------
# classification


@dataclass(slots=True)
class Verdict:
    status: str
    obstruction: Optional[Obstruction] = None
    derivation: Optional[Derivation] = None
    report: Optional[UnknownReport] = None


def classify(g: Graph, budget: int = DEFAULT_BUDGET,
             cocontract_depth: int = DEFAULT_COCONTRACT_DEPTH,
             catalog: Sequence[ForbiddenEntry] = (), cross_check: bool = False,
             timings: Optional[dict] = None) -> Verdict:
    """Run the searches cheapest first, verify whichever certificates come
    back with the independent checkers, and pick a verdict.

    The order: g is peeled once, and a chordal g (its core is complete) gets
    the derivation the peel builds, checked, and nothing else runs; so does a
    g whose core is bipartite and closed by the greedy pass, the search's
    first node. Otherwise the induced obstruction scan, its hole and antihole
    searches run on the peel's core, which holds every hole and antihole of
    g (see obstructions.find_forbidden_induced); the search of g's core, only
    if the scan found nothing; the co-contraction search below g, only if
    neither found a certificate. Whenever that search runs, the scan of g ran
    and found nothing, so it is find_cocontraction_witness, which does not
    scan g again and scans the states below it for the fixed entries alone;
    at depth 0 it builds no state.
    Skipping the scan on such a g is sound: g is in F, which lies in N'
    within N (the paper's theorem; the derivation is its proof), so no
    obstruction of g can exist. Indeed no catalog entry embeds in g. A copy
    of one is in F by heredity, and its core is complete or lies within g's
    core (a vertex simplicial in what is left of g is simplicial in what is
    left of the copy), so bipartite; prove_in_f derives it, and
    ForbiddenEntry refuses an entry it derives. The peel of g, and the pass,
    count as part of the scan phase. The co-contraction search does not
    expand a state the prover derives
    (see find_cocontraction_witness): that state lies in N', so nothing below
    it holds a witness. One derivation search serves g and that pruning, over
    one memo and one budget of at most budget nodes: the pruning expands only
    the nodes the search of g left, and a state it cannot decide within them
    is expanded. The pruning asks the search for a decision alone
    (_Search.derives), so no derivation of a state is ever assembled.
    Peeling spends no node, so a chordal graph, g or a state, is decided even
    after the budget has run out, and budget=1 still derives any chordal g.
    The report of an unknown verdict counts the search of g alone, and its
    stuck entries are cores. The pruning takes the prover's
    answers on the states unchecked, so a prover that wrongly derived a state
    could hide a witness.
    A budget below 1 or a negative cocontract_depth raises ValueError before
    any search runs.

    A graph may end up with neither certificate: membership of the derived
    family in the no-surface class is one-sided, so honest Unknowns are
    unavoidable. Holding both verified certificates at once is a bug and
    raises SoundnessError. cross_check runs the scan on every g, chordal or
    derived by the pass too, with its cycle searches on g whole, so that the
    guard does not rest on the core lemma; it runs the derivation search even
    after a found obstruction, and the unpruned co-contraction search even
    after a found derivation, so that the both-certificates guard sees every
    search.
    """
    if cocontract_depth < 0:
        raise ValueError("cocontract_depth must be nonnegative")
    search = _Search(budget)
    t0 = perf_counter()
    peel = _peel(g)
    obs = None
    if cross_check or not (is_complete(peel.core)
                           or _is_bipartite(peel.core.rows) and search._closes(peel)):
        obs = find_forbidden_induced(g, catalog, core=None if cross_check else peel.core)
        if obs is not None and not verify_obstruction(g, obs, catalog):
            raise SoundnessError("obstruction search emitted an invalid certificate")
    t1 = perf_counter()
    deriv = report = None
    if obs is None or cross_check:
        deriv = search.prove(peel)
        report = search.report()
        if deriv is not None and not check_derivation(deriv, g):
            raise SoundnessError("prover emitted an invalid derivation")
    t2 = perf_counter()
    if obs is None and (deriv is None or cross_check):
        derived = None if cross_check else search.derives
        obs = find_cocontraction_witness(g, cocontract_depth, catalog, derived=derived)
        if obs is not None and not verify_obstruction(g, obs, catalog):
            raise SoundnessError("co-contraction search emitted an invalid certificate")
    if timings is not None:
        t3 = perf_counter()
        timings["obstruction_scan"] = t1 - t0
        timings["prover"] = t2 - t1
        timings["cocontraction_search"] = t3 - t2
    if obs is not None and deriv is not None:
        raise SoundnessError("graph received both a verified derivation and a "
                             "verified obstruction")
    if obs is not None:
        return Verdict(HAS_SURFACE, obstruction=obs)
    if deriv is not None:
        return Verdict(NO_SURFACE, derivation=deriv)
    return Verdict(UNKNOWN, report=report)


# ---------------------------------------------------------------------------
# serialization


def derivation_to_json(d: Derivation) -> dict:
    out: dict = {"rule": d.rule, "graph": graph_to_json(d.conclusion)}
    if d.separator is not None:
        out["separator"] = sorted(d.separator)
    if d.bipartition is not None:
        out["bipartition"] = [sorted(d.bipartition[0]), sorted(d.bipartition[1])]
    if d.contracted is not None:
        out["cocontract_set"] = sorted(d.contracted)
    if d.steps is not None:
        names = d.conclusion.names
        out["steps"] = [{"edge": list(names(step))} if _is_edge_step(step)
                        else {"clique": list(names(step[0])), "separator": list(names(step[1]))}
                        for step in d.steps]
    out["children"] = [derivation_to_json(ch) for ch in d.children]
    return out


def derivation_from_json(obj: dict) -> Derivation:
    """The derivation a JSON node describes, or a GraphError. A
    BisimplicialRule node, as written before chain nodes existed, reads as a
    chain of its one edge step."""
    try:
        if obj["rule"] == RULE_BISIMP:
            obj = dict(obj, rule=RULE_CHAIN, steps=[{"edge": obj["edge"]}])
        conclusion = graph_from_json(obj["graph"])
        return Derivation(
            rule=obj["rule"],
            conclusion=conclusion,
            children=tuple(derivation_from_json(ch) for ch in obj.get("children", [])),
            separator=frozenset(obj["separator"]) if "separator" in obj else None,
            bipartition=tuple(frozenset(p) for p in obj["bipartition"])
            if "bipartition" in obj else None,
            contracted=frozenset(obj["cocontract_set"]) if "cocontract_set" in obj else None,
            steps=_steps_from_json(obj["steps"], conclusion) if "steps" in obj else None,
        )
    except (KeyError, TypeError) as exc:
        raise GraphError("bad derivation object: %s" % exc) from None


def _names_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _steps_from_json(steps, g: Graph) -> tuple[Union[int, tuple[int, int]], ...]:
    """Chain steps from {"clique": [...], "separator": [...]} and
    {"edge": [a, b]} objects, as masks over the positions of g, the chain's
    conclusion; any other shape is a GraphError. A name that is not a vertex
    of g maps to bit g.n, which no replay accepts, so such a step is an
    invalid certificate, not a malformed one."""
    if not isinstance(steps, list):
        raise GraphError("chain steps must be a list")
    out = []
    for step in steps:
        if isinstance(step, dict) and step.keys() == {"edge"}:
            edge = step["edge"]
            if _names_list(edge) and len(edge) == 2:
                out.append(_mask(g, edge))
                continue
        elif isinstance(step, dict) and step.keys() == {"clique", "separator"}:
            if _names_list(step["clique"]) and _names_list(step["separator"]):
                out.append((_mask(g, step["clique"]), _mask(g, step["separator"])))
                continue
        raise GraphError("bad chain step %d" % len(out))
    return tuple(out)
