"""Property tests drawn by hypothesis (a test extra; skipped without it)."""

from itertools import combinations

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from raagscope.graphs import Graph  # noqa: E402
from raagscope.prover import classify  # noqa: E402


@hypothesis.settings(max_examples=80, deadline=None, derandomize=True, database=None)
@hypothesis.given(st.data())
def test_classify_status_is_invariant_under_relabelling(data):
    # the prover takes the first clique separator and the first bisimplicial
    # edge in name order, so the verdict must not depend on the names
    n = data.draw(st.integers(1, 8), label="n")
    pairs = list(combinations(range(n), 2))
    present = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    perm = data.draw(st.permutations(range(n)), label="perm")
    edges = [p for p, keep in zip(pairs, present) if keep]
    g = Graph(["v%d" % i for i in range(n)], [("v%d" % a, "v%d" % b) for a, b in edges])
    h = Graph(["w%d" % perm[i] for i in range(n)],
              [("w%d" % perm[a], "w%d" % perm[b]) for a, b in edges])
    assert classify(g).status == classify(h).status
