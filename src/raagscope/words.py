"""Word problem for graph groups, plus surface-group homomorphism checks.

Group elements are words: tuples of (generator, sign) letters over the
vertices of a graph, with commutation exactly at the edges. The canonical
form is the lexicographically least fully reduced representative under
commuting adjacent swaps; two words are equal in the group iff their
canonical forms coincide.

Free reduction is one pass with a backward scan, and the canonical sort is
the least topological order of the word's dependence graph. A generator's
copies are chained, so at most one letter per generator is ever ready, and
the ready letters sit in a bitmask over generators ranked by name: the
lowest set bit is the least letter. The sort is O(n·k) for n letters over
k generators, with no log factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .graphs import Graph, _bits

Letter = tuple[str, int]
Word = tuple[Letter, ...]
Commutation = dict[str, frozenset[str]]

# kernel_search refuses a max_len with more reduced words than this. It keeps
# the default length 8 on four generators (closed genus 2: 7686401 words), and
# at about 15 us a word on a 2-vCPU VM a search of the cap takes minutes.
MAX_KERNEL_WORDS = 10_000_000


class WordError(ValueError):
    pass


def parse_word(text: str) -> Word:
    """Parse whitespace-separated tokens "a" or "a^-1".

    Equal tokens share one letter object, built once per call; the table is
    the call's own, so no input can grow a module-level cache.
    """
    seen: dict[str, Letter] = {}
    letters: list[Letter] = []
    for tok in text.split():
        letter = seen.get(tok)
        if letter is None:
            if tok.endswith("^-1"):
                gen = tok[:-3]
                sign = -1
            else:
                gen = tok
                sign = 1
            if not gen or "^" in gen:
                raise WordError("bad word token %r" % (tok,))
            letter = seen[tok] = (gen, sign)
        letters.append(letter)
    return tuple(letters)


def format_word(w: Word) -> str:
    return " ".join(g if s > 0 else g + "^-1" for g, s in w)


def inverse(w: Word) -> Word:
    return tuple((g, -s) for g, s in reversed(w))


def concat(*ws: Word) -> Word:
    out: list[Letter] = []
    for w in ws:
        out.extend(w)
    return tuple(out)


def power(w: Word, k: int) -> Word:
    if k < 0:
        return power(inverse(w), -k)
    return concat(*([w] * k)) if k else ()


class _Commutation(dict):
    """Each generator's closed neighbourhood, plus the canonical sort's
    tables: ``rank[g]`` is g's place in sorted name order, and
    ``blockers[r]`` lists the ranks that the generator of rank r waits
    for, its own and those it does not commute with."""

    __slots__ = ("rank", "blockers")


@lru_cache(maxsize=32)
def _commutation(graph: Graph) -> _Commutation:
    """Each generator's closed neighbourhood: the generators it commutes with,
    with the canonical sort's tables.

    Public functions look it up once per call and the helpers below take it
    in place of the graph. Graphs are immutable and hash by value, so equal
    graphs share one table; no caller mutates it. A graph keeps its vertices
    in sorted name order, so a generator's rank is its position.
    """
    vs, rows = graph.vertices, graph.rows
    full = (1 << len(vs)) - 1
    commutes = _Commutation((v, frozenset(graph.names(r | 1 << i)))
                            for i, (v, r) in enumerate(zip(vs, rows)))
    commutes.rank = {v: i for i, v in enumerate(vs)}
    commutes.blockers = tuple(tuple(_bits(full & ~r)) for r in rows)
    return commutes


def _check_letters(commutes: Commutation, w: Word) -> None:
    for g, s in w:
        if s not in (1, -1):
            raise WordError("bad letter sign %r" % (s,))
        if g not in commutes:
            raise WordError("unknown generator %r" % (g,))


def _reduce_full(commutes: Commutation, letters: Word) -> list[Letter]:
    # delete x ... x^-1 pairs separated only by letters commuting with x; a
    # word admitting no such deletion is reduced in the group. The output stays
    # reduced: if u is and u x^e is not, u = v x^-e w with w commuting with x,
    # and a cancelling pair in v w would already cancel in u, x commuting with
    # every letter it has to cross
    out: list[Letter] = []
    for letter in letters:
        g, s = letter
        star = commutes[g]
        for j in range(len(out) - 1, -1, -1):
            gj, sj = out[j]
            if gj == g and sj == -s:
                del out[j]
                break
            if gj not in star:
                out.append(letter)
                break
        else:
            out.append(letter)
    return out


def _letter_key(letter: Letter) -> tuple[str, int]:
    g, s = letter
    return (g, 0 if s > 0 else 1)


def _canonical_sort(commutes: _Commutation, letters: list[Letter]) -> list[Letter]:
    # lexicographically least shuffle of a reduced word: the least topological
    # order of its dependence graph (Anisimov and Knuth, Inhomogeneous sorting,
    # 1979). Each letter waits for the last earlier letter of its own
    # generator and of every generator it does not commute with. That chains
    # a generator's copies: a later copy waits for the one before it, so at
    # most one letter per generator is ready at a time. The ready letters are
    # then a bitmask over generator ranks with one slot per rank for the
    # letter's position, and since ranks follow name order the lowest set bit
    # is the least letter key. Chaining loses nothing: a later copy is
    # available only once its first one is, and in a reduced word the two
    # then have the same sign, so the same key, and the earlier one goes
    # first. Commutations preserve reducedness so no new cancellations appear.
    rank = commutes.rank
    blockers = commutes.blockers
    last = [-1] * len(blockers)  # rank -> position of its latest letter
    ranks = [rank[g] for g, _ in letters]
    waiting = [0] * len(letters)
    after: list[list[int]] = [[] for _ in letters]
    slot = [0] * len(blockers)  # rank -> position of its ready letter
    ready = 0
    for i, r in enumerate(ranks):
        wait = 0
        for b in blockers[r]:
            j = last[b]
            if j >= 0:
                after[j].append(i)
                wait += 1
        last[r] = i
        if wait:
            waiting[i] = wait
        else:
            ready |= 1 << r
            slot[r] = i
    out: list[Letter] = []
    while ready:
        low = ready & -ready
        ready ^= low
        i = slot[low.bit_length() - 1]
        out.append(letters[i])
        for j in after[i]:
            waiting[j] -= 1
            if not waiting[j]:
                r = ranks[j]
                ready |= 1 << r
                slot[r] = j
    return out


def _normal_form(commutes: _Commutation, w: Word) -> Word:
    _check_letters(commutes, w)
    letters = _reduce_full(commutes, w)
    return tuple(_canonical_sort(commutes, letters))


def normal_form(graph: Graph, w: Word) -> Word:
    """Canonical representative; equal normal forms iff equal group elements."""
    return _normal_form(_commutation(graph), w)


def _is_trivial(commutes: Commutation, w: Word) -> bool:
    _check_letters(commutes, w)
    return not _reduce_full(commutes, w)


def is_trivial(graph: Graph, w: Word) -> bool:
    return _is_trivial(_commutation(graph), w)


def are_equal(graph: Graph, u: Word, v: Word) -> bool:
    return is_trivial(graph, concat(u, inverse(v)))


def _cyclic_reduce(commutes: Commutation, w: Word):
    """(cyclically reduced word, conjugator c) with c^-1 w c = result."""
    _check_letters(commutes, w)
    current = _reduce_full(commutes, w)
    conj: list[Letter] = []
    while True:
        n = len(current)
        for i in range(n):
            gi, si = current[i]
            star = commutes[gi]
            if not all(current[p][0] in star for p in range(i)):
                continue
            # scanning from the back over letters that commute with gi
            for j in range(n - 1, i, -1):
                gj, sj = current[j]
                if gj == gi and sj == -si or gj not in star:
                    break
            else:
                continue
            if gj == gi:  # gi commutes with itself: the stop is its inverse
                break
        else:
            return tuple(current), tuple(conj)
        conj.append(current[i])
        del current[j]
        del current[i]


def cyclic_normal_form(graph: Graph, w: Word) -> Word:
    """Shortest conjugacy-class representative reachable by reduction and
    cyclic permutation, deterministically chosen.

    It is *not* yet a conjugacy invariant: it minimises over the rotations of
    one cyclically reduced word, and conjugates can also differ by
    commutations across the rotation point. On the graph on v1, v2, v3 whose
    only edge is v1-v3, w = v1 v3^-1 v1 v2 v2 gets v1 v1 v3^-1 v2 v2, and its
    conjugate v3 w v3^-1 gets v1 v1 v2 v2 v3^-1. Equal forms imply conjugate
    words, not the converse.
    """
    commutes = _commutation(graph)
    reduced, _ = _cyclic_reduce(commutes, w)
    best = None
    for k in range(len(reduced)):
        rot = _normal_form(commutes, reduced[k:] + reduced[:k])
        key = tuple(_letter_key(l) for l in rot)
        if best is None or key < best[0]:
            best = (key, rot)
    return best[1] if best else ()


def conjugate_into_clique(graph: Graph, w: Word) -> Optional[frozenset[str]]:
    """The support of the cyclic normal form, when that support is a clique.

    A hit means w is conjugate into the free abelian subgroup on the returned
    clique; the implied conjugation is re-verified before returning.

    The support is read off the cyclic reduction r of w, with no rotation or
    sorting. The cyclic normal form is the normal form of a rotation of r;
    since r is cyclically reduced, its rotations are reduced, so their normal
    forms only permute r's letters and keep its support. That support is a
    conjugacy invariant besides: cyclically reduced conjugates differ only by
    rotation and commutation (Servatius, Automorphisms of graph groups,
    J. Algebra 1989).
    """
    commutes = _commutation(graph)
    reduced, conj = _cyclic_reduce(commutes, w)
    support = frozenset(g for g, _ in reduced)
    if not all(support <= commutes[g] for g in support):
        return None
    check = concat(conj, reduced, inverse(conj), inverse(w))
    if not _is_trivial(commutes, check):
        raise AssertionError("cyclic reduction produced an invalid conjugator")
    return support


# ---------------------------------------------------------------------------
# surface-group presentations and homomorphisms


@dataclass(frozen=True)
class SurfacePresentation:
    """Compact oriented surface group: genus handles x_i,y_i and boundary
    generators d_i with the single relation prod [x_i,y_i] prod d_j."""

    genus: int
    boundary: int

    def __post_init__(self):
        if self.genus < 0 or self.boundary < 0:
            raise WordError("genus and boundary count must be nonnegative")

    @property
    def generators(self) -> tuple[str, ...]:
        xs = tuple("x%d" % (i + 1) for i in range(self.genus))
        ys = tuple("y%d" % (i + 1) for i in range(self.genus))
        ds = tuple("d%d" % (i + 1) for i in range(self.boundary))
        return xs + ys + ds


def relator(pres: SurfacePresentation, images: dict[str, Word]) -> Word:
    """Image of the defining relation under the generator assignment."""
    missing = [g for g in pres.generators if g not in images]
    if missing:
        raise WordError("missing generator image(s): %s" % ", ".join(missing))
    parts: list[Word] = []
    for i in range(pres.genus):
        x = images["x%d" % (i + 1)]
        y = images["y%d" % (i + 1)]
        parts += [x, y, inverse(x), inverse(y)]
    for i in range(pres.boundary):
        parts.append(images["d%d" % (i + 1)])
    return concat(*parts)


def check_hom(graph: Graph, pres: SurfacePresentation, images: dict[str, Word]) -> bool:
    """True iff the assignment extends to a homomorphism into the graph group."""
    return is_trivial(graph, relator(pres, images))


def boundary_clique_supports(graph: Graph, pres: SurfacePresentation,
                             images: dict[str, Word]) -> list[Optional[frozenset[str]]]:
    """Per boundary generator: the clique its image is conjugate into, or None.
    Requires at least one boundary."""
    if pres.boundary < 1:
        raise WordError("relative test needs at least one boundary component")
    return [conjugate_into_clique(graph, images["d%d" % (i + 1)])
            for i in range(pres.boundary)]


def is_relative_hom(graph: Graph, pres: SurfacePresentation, images: dict[str, Word]) -> bool:
    """Boundary-respecting homomorphism test: every boundary image must be
    conjugate into a clique subgroup. Requires at least one boundary."""
    if not check_hom(graph, pres, images):
        raise WordError("images do not define a homomorphism")
    return all(c is not None for c in boundary_clique_supports(graph, pres, images))


# ---------------------------------------------------------------------------
# bounded kernel search


def _free_letters(gens: list[str]) -> list[Letter]:
    out: list[Letter] = []
    for g in gens:
        out.append((g, 1))
        out.append((g, -1))
    return out


def _iter_reduced_words(gens: list[str], max_len: int):
    """Freely reduced words by length, then lexicographic in the fixed
    generator order with positive letters first."""
    letters = _free_letters(gens)

    def rec(prefix: list[Letter], remaining: int):
        if remaining == 0:
            yield tuple(prefix)
            return
        for letter in letters:
            if prefix and prefix[-1][0] == letter[0] and prefix[-1][1] == -letter[1]:
                continue
            prefix.append(letter)
            yield from rec(prefix, remaining - 1)
            prefix.pop()

    for length in range(1, max_len + 1):
        yield from rec([], length)


def _dehn_data(genus: int):
    """The standard relator's cyclic variants (both orientations, 2·4g of
    them) and the free commutation table, for _dehn_trivial."""
    pres = SurfacePresentation(genus, 0)
    rel = relator(pres, {g: ((g, 1),) for g in pres.generators})
    variants = [base[k:] + base[:k] for base in (rel, inverse(rel)) for k in range(len(rel))]
    free = {g: frozenset((g,)) for g, _ in rel}  # generators commute only with themselves
    return variants, free


def _dehn_trivial(genus: int, w: Word, dehn=None) -> bool:
    """Word problem for the closed genus-g surface group (g >= 2) by Dehn's
    algorithm on the standard relator. dehn is _dehn_data(genus), built here
    when not given."""
    variants, free = dehn or _dehn_data(genus)
    length = 4 * genus
    half = length // 2
    current = tuple(_reduce_full(free, w))
    progress = True
    while progress and current:
        progress = False
        for size in range(length, half, -1):
            for start in range(len(current) - size + 1):
                seg = current[start:start + size]
                for var in variants:
                    if var[:size] == seg:
                        replacement = inverse(var[size:])
                        current = tuple(_reduce_full(
                            free, current[:start] + replacement + current[start + size:]))
                        progress = True
                        break
                if progress:
                    break
            if progress:
                break
    return not current


def _reduced_word_count(rank: int, max_len: int) -> int:
    """Reduced words of length at most max_len over rank >= 1 generators, or
    MAX_KERNEL_WORDS + 1 once the count passes MAX_KERNEL_WORDS. Past rank 1
    each length at least triples the last one's count, so the loop stops
    within a few dozen steps."""
    if rank == 1:
        return min(1 + 2 * max_len, MAX_KERNEL_WORDS + 1)
    total, layer = 1, 2 * rank
    for _ in range(max_len):
        total += layer
        if total > MAX_KERNEL_WORDS:
            return MAX_KERNEL_WORDS + 1
        layer *= 2 * rank - 1
    return total


def kernel_search(graph: Graph, pres: SurfacePresentation, images: dict[str, Word],
                  max_len: int) -> Optional[Word]:
    """First nontrivial surface-group element (length, then lex) killed by the
    homomorphism, up to max_len; None if the bounded search is clean.

    With boundary, the surface group is free of rank 2g+m-1 after eliminating
    the last boundary generator. Closed surfaces (g >= 2) use Dehn's algorithm
    to recognize nontrivial elements.

    Over r generators there are 1 + sum_{k=1..max_len} 2r(2r-1)^(k-1) reduced
    words of length at most max_len; a max_len for which that count exceeds
    MAX_KERNEL_WORDS raises WordError before any is tried.
    """
    if not check_hom(graph, pres, images):
        raise WordError("images do not define a homomorphism")
    g_, m = pres.genus, pres.boundary
    if m == 0 and g_ <= 1:
        raise WordError("closed case needs genus at least 2 to be hyperbolic")
    gens = ["x%d" % (i + 1) for i in range(g_)] + ["y%d" % (i + 1) for i in range(g_)]
    if m:
        gens += ["d%d" % (i + 1) for i in range(m - 1)]
    if not gens:
        return None
    if _reduced_word_count(len(gens), max_len) > MAX_KERNEL_WORDS:
        raise WordError("max_len %d gives more than %d reduced words over %d generators"
                        % (max_len, MAX_KERNEL_WORDS, len(gens)))
    commutes = _commutation(graph)
    dehn = None if m else _dehn_data(g_)
    for word in _iter_reduced_words(gens, max_len):
        if dehn and _dehn_trivial(g_, word, dehn):
            continue  # trivial in the surface group, not a kernel witness
        img = concat(*(images[g] if s > 0 else inverse(images[g]) for g, s in word))
        if _is_trivial(commutes, img):
            return word
    return None


# ---------------------------------------------------------------------------
# free-group probe: products of large powers stay nontrivial


def power_product_nontrivial(us: list[Word], bs: list[Word], ns: list[int]) -> bool:
    """Free reduction check that b_1 u_1^{n_1} ... b_m u_m^{n_m} is nontrivial
    in the free group on the letters' support.

    Hypothesis checked (violations raise): every u_i nontrivial, and wherever
    consecutive power bases coincide (cyclically), the separating b must not
    commute with that base, which in a free group means they are not powers of
    a common word; here it is checked as non-commutation by free reduction.
    """
    m = len(us)
    if not (m and len(bs) == m and len(ns) == m):
        raise WordError("need equally many base words, separators, exponents")
    names = sorted({g for w in list(us) + list(bs) for g, _ in w})
    free = Graph(names, [])
    for i, u in enumerate(us):
        if is_trivial(free, u):
            raise WordError("hypothesis violation: base word %d is trivial" % (i + 1,))
    if m >= 2:
        for i in range(m):
            prev = us[i - 1]  # wraps: u_0 is u_m
            if are_equal(free, prev, us[i]):
                comm = concat(bs[i], us[i], inverse(bs[i]), inverse(us[i]))
                if is_trivial(free, comm):
                    raise WordError(
                        "hypothesis violation: u_%d = u_%d but b_%d commutes with it"
                        % (i or m, i + 1, i + 1))
    total = concat(*(concat(bs[i], power(us[i], ns[i])) for i in range(m)))
    return not is_trivial(free, total)
