"""Per-layer tracing: call counts and self time at raagscope's public functions.

Each traced function is wrapped wherever a raagscope module binds it, so calls
between modules go through the wrapper too.  A wrapper records one span per
call (per resumption, for a generator); a span's self time is its duration
less the spans opened inside it.  Spans are timed in CPU seconds, like every
other figure of the benchmark.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter
from time import process_time

# (module, attribute) of every traced function; the metric prefix is
# "<module>.<attribute>"
TRACED = (
    ("graphs", "canonical_form"),
    ("graphs", "find_induced"),
    ("generate", "nonisomorphic_graphs"),
    ("ops", "is_bisimplicial_edge"),
    ("ops", "co_contract_edge"),
    ("obstructions", "find_cocontraction_witness"),
    ("obstructions", "find_forbidden_induced"),
    ("recognize", "find_induced_cycle"),
    ("prover", "check_derivation"),
    ("words", "normal_form"),
    ("words", "is_trivial"),
    ("words", "are_equal"),
    ("words", "cyclic_normal_form"),
    ("words", "conjugate_into_clique"),
    ("words", "is_relative_hom"),
)
TRACED_GENERATORS = (("ops", "iter_clique_splits"),)
GRAPH = "graphs.Graph"  # constructions, traced at Graph.__init__
COCONTRACT = "obstructions.find_cocontraction_witness"
# find_forbidden_induced calls made inside the co-contraction search: the
# states that search visits
STATES = COCONTRACT + ".states"
SPLIT_YIELDS = "ops.iter_clique_splits.yields"

PHASES = ("obstruction_scan", "prover", "cocontraction_search")


def layer_names() -> list[str]:
    funcs = ["%s.%s" % t for t in TRACED + TRACED_GENERATORS] + [GRAPH]
    return sorted(funcs)


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.self_s: Counter[str] = Counter()
        self._open: list[float] = []  # time covered by children, per open span
        self._depth: Counter[str] = Counter()
        self._patched: list[tuple[object, str, object]] = []

    # spans ---------------------------------------------------------------

    def _enter(self, name: str) -> float:
        self._open.append(0.0)
        self._depth[name] += 1
        return process_time()

    def _leave(self, name: str, t0: float) -> None:
        dt = process_time() - t0
        self._depth[name] -= 1
        self.self_s[name] += dt - self._open.pop()
        if self._open:
            self._open[-1] += dt

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            self.calls[name] += 1
            if name == "obstructions.find_forbidden_induced" and self._depth[COCONTRACT]:
                self.calls[STATES] += 1
            t0 = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._leave(name, t0)

        if hasattr(fn, "cache_clear"):
            traced.cache_clear = fn.cache_clear
        return traced

    def _wrap_generator(self, name: str, fn):
        def traced(*args, **kwargs):
            self.calls[name] += 1
            t0 = self._enter(name)
            try:
                it = fn(*args, **kwargs)
            finally:
                self._leave(name, t0)
            while True:
                t0 = self._enter(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._leave(name, t0)
                self.calls[SPLIT_YIELDS] += 1
                yield item

        return traced

    # installation --------------------------------------------------------

    def install(self) -> None:
        from raagscope import graphs

        for mod, _ in TRACED + TRACED_GENERATORS:
            importlib.import_module("raagscope." + mod)
        modules = [m for k, m in sys.modules.items()
                   if k == "raagscope" or k.startswith("raagscope.")]
        for targets, wrap in ((TRACED, self._wrap), (TRACED_GENERATORS, self._wrap_generator)):
            for mod, attr in targets:
                original = getattr(sys.modules["raagscope." + mod], attr)
                wrapper = wrap("%s.%s" % (mod, attr), original)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            self._patch(m, key, wrapper)
        self._patch(graphs.Graph, "__init__", self._wrap(GRAPH, graphs.Graph.__init__))

    def _patch(self, obj, key: str, value) -> None:
        self._patched.append((obj, key, getattr(obj, key)))
        setattr(obj, key, value)

    def uninstall(self) -> None:
        while self._patched:
            obj, key, value = self._patched.pop()
            setattr(obj, key, value)
