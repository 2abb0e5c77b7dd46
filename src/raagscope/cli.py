"""Command-line interface: classify graphs, verify certificates, expose the
graph operations and the word engine.

A graph is read as an edge list when its first line that is neither blank
nor a "#" comment starts with "vertices:", and as graph6 otherwise. A graph
may have at most 256 vertices, and a word, on the command line or in a
homomorphism file, at most 512 letters. Every JSON output is one line.

Exit codes for classify: 0 no surface subgroup, 1 surface subgroup found,
2 unknown. 64 marks a bad command line or unparseable input, 65 a malformed
certificate or catalogue, 70 an internal soundness violation, 74 a standard
output closed by its reader. classify --batch exits 0 once every line was
classified, whatever the verdicts, and 64 if any line failed to parse.
Every refusal is one line on standard error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from typing import Optional

from . import __version__
from .graphs import (
    _G6_HEADER,
    Graph,
    GraphError,
    emit_graph,
    emit_graph6,
    parse_graph,
    parse_graph6,
)
from .obstructions import (
    CYCLE_FAMILIES,
    CatalogError,
    builtin_catalog,
    load_catalog,
    obstruction_from_json,
    obstruction_to_json,
    verify_obstruction,
)
from .ops import (
    _extension,
    _maximal_clique_masks,
    co_contract,
    complement,
    iter_clique_splits,
    join,
)
from .prover import (
    DEFAULT_BUDGET,
    DEFAULT_COCONTRACT_DEPTH,
    HAS_SURFACE,
    NO_SURFACE,
    UNKNOWN,
    SoundnessError,
    Verdict,
    check_derivation,
    classify,
    derivation_from_json,
    derivation_to_json,
)
from .words import (
    SurfacePresentation,
    Word,
    WordError,
    are_equal,
    boundary_clique_supports,
    check_hom,
    conjugate_into_clique,
    format_word,
    is_trivial,
    kernel_search,
    normal_form,
    parse_word,
)

EXIT_NO = 0
EXIT_HAS = 1
EXIT_UNKNOWN = 2
EXIT_PARSE = 64
EXIT_CERT = 65
EXIT_SOUNDNESS = 70
EXIT_IOERR = 74

_VERDICT_EXIT = {NO_SURFACE: EXIT_NO, HAS_SURFACE: EXIT_HAS, UNKNOWN: EXIT_UNKNOWN}

# the longest word the CLI reads; the library takes words of any length
MAX_WORD_LETTERS = 512
# the most vertices of a graph the CLI reads; the library takes graphs of any
# order. A derivation nests once per clique split or join, so its JSON stays
# shallow, and a bipartite core is one node of the prover's search, so
# K64,64 and the 256-vertex ladder classify. The search keeps its open cores
# on an explicit stack, so a run of bisimplicial removals on another core
# (K24,24 with one edge added inside a side) costs no Python frame; only
# assembling a derivation recurses, once per clique split or join.
MAX_VERTICES = 256
# the most vertices of an `ops extend` output, about 2 MiB of rows: a graph
# under MAX_VERTICES may have exponentially many maximal cliques
MAX_EXTENSION = 4096


class _Refused(Exception):
    """An input the program refuses: main prints line to standard error and
    returns code."""

    def __init__(self, code: int, line: str):
        super().__init__(code, line)
        self.code = code
        self.line = line


class _Parser(argparse.ArgumentParser):
    # a bad command line is refused like bad input, with exit 64 rather than
    # argparse's 2, which classify uses for "unknown"; subparsers share the class
    def error(self, message):
        raise _Refused(EXIT_PARSE, "%s: error: %s" % (self.prog, message))


def _at_least(low: int):
    """An argparse type for integers no smaller than low."""
    def convert(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError("must be at least %d, got %d" % (low, value))
        return value
    convert.__name__ = "int"  # argparse names the type in "invalid int value: 'x'"
    return convert


def _input_errors_exit_64(cmd):
    """cmd, with the GraphError or WordError its input raises refused as exit 64."""
    @functools.wraps(cmd)
    def run(args) -> int:
        try:
            return cmd(args)
        except (GraphError, WordError) as exc:
            raise _Refused(EXIT_PARSE, "error: %s" % exc) from None
    return run


def _read_input(source: str) -> bytes:
    if source == "-":
        return sys.stdin.buffer.read()
    # allow passing a graph6 value directly on the command line; a source
    # with a byte no graph6 value holds (such as "/" or ".") is a path
    data = source.encode("utf-8")
    value = data.strip()
    if value.startswith(_G6_HEADER):
        value = value[len(_G6_HEADER):].lstrip()
    if not os.path.exists(source) and all(63 <= b <= 126 for b in value):
        return data
    try:
        with open(source, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise _Refused(EXIT_PARSE, "parse error: cannot read %s: %s"
                       % (source, exc.strerror or exc)) from None


def _capped(g: Graph) -> Graph:
    """g; past MAX_VERTICES vertices it raises GraphError."""
    if g.n > MAX_VERTICES:
        raise GraphError("graph has %d vertices, cap is %d" % (g.n, MAX_VERTICES))
    return g


def _load_graph(source: str) -> Graph:
    data = _read_input(source)
    try:
        return _capped(parse_graph(data))
    except GraphError as exc:
        raise _Refused(EXIT_PARSE, "parse error: %s" % exc) from None


def _load_extra_catalog(path: Optional[str]):
    if not path:
        return ()
    try:
        return tuple(load_catalog(path))
    except (CatalogError, OSError) as exc:
        raise _Refused(EXIT_CERT, "catalog error: %s" % exc) from None


def _read_json(path: str, code: int, what: str):
    """The JSON value in the file at path. A file that cannot be read, is not
    UTF-8, is not JSON or nests deeper than the decoder can follow is refused
    with code, its line starting with what."""
    try:
        with open(path, "rb") as fh:
            return json.loads(fh.read())
    except (OSError, ValueError, RecursionError) as exc:
        raise _Refused(code, "%s: %s" % (what, exc)) from None


def _certificate_json(verdict: Verdict) -> Optional[dict]:
    if verdict.obstruction is not None:
        out = {"certificate_type": "obstruction"}
        out.update(obstruction_to_json(verdict.obstruction))
        return out
    if verdict.derivation is not None:
        return {"certificate_type": "derivation",
                "root": derivation_to_json(verdict.derivation)}
    return None


def _report(g: Graph, verdict: Verdict, params: dict, timings: dict) -> dict:
    return {
        "schema": "raagscope/1",
        "version": __version__,
        "input": {
            "graph6": emit_graph6(g).decode("ascii"),
            "vertices": list(g.vertices),
            "edges": [list(e) for e in g.edge_pairs],
        },
        "parameters": params,
        "verdict": verdict.status,
        "certificate": _certificate_json(verdict),
        "unknown_report": verdict.report.to_json() if verdict.report else None,
        "timings": timings,
    }


def _print_verdict(verdict: Verdict, params: dict) -> None:
    print("verdict: %s" % verdict.status)
    if verdict.obstruction is not None:
        o = verdict.obstruction
        print("obstruction: %s entry=%s" % (o.kind, o.entry))
        if o.trail:
            print("trail: %s" % " ; ".join("{%s,%s}" % p for p in o.trail))
        print("embedding: %s" % " ".join("%s->%s" % ab for ab in o.embedding))
    if verdict.derivation is not None:
        print("derivation rules: %s" % ", ".join(sorted(verdict.derivation.rules_used())))
    if verdict.report is not None:
        r = verdict.report
        print("searched %d prover nodes (budget %d%s); co-contraction depth %d"
              % (r.nodes_expanded, params["budget"],
                 ", exhausted" if r.budget_exhausted else "", params["cocontract_depth"]))


def cmd_classify(args) -> int:
    extra = _load_extra_catalog(args.catalog)
    params = {
        "budget": args.budget,
        "cocontract_depth": args.cocontract_depth,
        "catalog": args.catalog or None,
    }

    def run_one(g: Graph) -> tuple[Verdict, dict]:
        timings: dict = {}
        t0 = time.perf_counter()
        verdict = classify(g, budget=args.budget, cocontract_depth=args.cocontract_depth,
                           catalog=extra, cross_check=args.cross_check, timings=timings)
        timings["total"] = time.perf_counter() - t0
        return verdict, timings

    if args.batch:
        return _classify_batch(args, run_one, params)
    g = _load_graph(args.input)
    verdict, timings = run_one(g)
    if args.json:
        print(json.dumps(_report(g, verdict, params, timings)))
    else:
        _print_verdict(verdict, params)
    return _VERDICT_EXIT[verdict.status]


def _classify_batch(args, run_one, params: dict) -> int:
    """One graph6 value per line, one verdict record per value, in order. A
    line that does not parse, or holds a graph past MAX_VERTICES, gets an
    error record and the batch carries on; the exit code is 64 if any line
    failed, else 0, whatever the verdicts."""
    failed = False
    for number, line in enumerate(
            _read_input(args.input).decode("utf-8", errors="replace").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            g = _capped(parse_graph6(line.encode("utf-8")))
        except GraphError as exc:
            failed = True
            if args.json:
                print(json.dumps({"schema": "raagscope/1", "version": __version__,
                                  "input": {"line": number, "text": line},
                                  "verdict": None, "error": "parse error: %s" % exc}))
            else:
                print("%s parse error: %s" % (line, exc))
            continue
        verdict, timings = run_one(g)
        if args.json:
            print(json.dumps(_report(g, verdict, params, timings)))
        else:
            print("%s %s" % (line, verdict.status))
    return EXIT_PARSE if failed else EXIT_NO


def cmd_verify(args) -> int:
    g = _load_graph(args.graph)
    extra = _load_extra_catalog(args.catalog)
    obj = _read_json(args.certificate, EXIT_CERT, "malformed certificate")
    try:
        if isinstance(obj, dict) and "certificate" in obj and "schema" in obj:
            obj = obj["certificate"]  # accept a full classify report
        if not isinstance(obj, dict) or "certificate_type" not in obj:
            raise CatalogError("certificate object lacks certificate_type")
        if obj["certificate_type"] == "obstruction":
            ok = verify_obstruction(g, obstruction_from_json(obj), extra)
        elif obj["certificate_type"] == "derivation":
            ok = check_derivation(derivation_from_json(obj["root"]), g)
        else:
            raise CatalogError("unknown certificate_type %r" % (obj["certificate_type"],))
    except (CatalogError, GraphError, KeyError, RecursionError) as exc:
        # RecursionError: a certificate nested deeper than the checker can follow
        raise _Refused(EXIT_CERT, "malformed certificate: %s" % exc) from None
    print("valid" if ok else "invalid")
    return 0 if ok else 1


@_input_errors_exit_64
def cmd_ops(args) -> int:
    g = _load_graph(args.graph)
    if args.op == "complement":
        out = complement(g)
    elif args.op == "join":
        out = join(g, _load_graph(args.other))
    elif args.op == "cocontract":
        out = co_contract(g, [v for v in args.vertices.split(",") if v])
    elif args.op == "extend":
        # one vertex per vertex of g and per member of each maximal clique
        order = g.n
        cliques = []
        for clique in _maximal_clique_masks(g.rows):
            order += clique.bit_count()
            if order > MAX_EXTENSION:
                raise GraphError("the simplicial extension has more than %d vertices"
                                 % MAX_EXTENSION)
            cliques.append(clique)
        out, _ = _extension(g, cliques)
    else:
        splits = list(iter_clique_splits(g))
        if args.json:
            print(json.dumps([{
                "separator": sorted(s.separator),
                "left": list(s.left.vertices),
                "right": list(s.right.vertices),
            } for s in splits]))
        else:
            if not splits:
                print("no clique separators")
            for s in splits:
                print("separator: {%s} | left: %s | right: %s"
                      % (" ".join(sorted(s.separator)),
                         " ".join(s.left.vertices), " ".join(s.right.vertices)))
        return 0
    end = "\n" if args.to == "graph6" else ""  # the other formats end their last line
    sys.stdout.write(emit_graph(out, args.to).decode("utf-8", errors="strict") + end)
    return 0


@_input_errors_exit_64
def cmd_word(args) -> int:
    g = _load_graph(args.graph)
    words = [_read_word(text) for text in args.words]
    if args.op == "nf":
        print(format_word(normal_form(g, words[0])))
    elif args.op == "trivial":
        print("true" if is_trivial(g, words[0]) else "false")
    elif args.op == "equal":
        print("true" if are_equal(g, *words) else "false")
    else:
        clique = conjugate_into_clique(g, words[0])
        print("none" if clique is None else "{%s}" % " ".join(sorted(clique)))
    return 0


def _read_word(text: str) -> Word:
    """The word text spells; past MAX_WORD_LETTERS letters it raises WordError."""
    w = parse_word(text)
    if len(w) > MAX_WORD_LETTERS:
        raise WordError("word has %d letters, cap is %d" % (len(w), MAX_WORD_LETTERS))
    return w


def _load_hom(path: str) -> tuple[SurfacePresentation, dict]:
    """The presentation and generator images of a homomorphism file:
    {"presentation": {"genus": g, "boundary": m}, "images": {gen: word}}
    with integer counts and word strings. A file that is not JSON is refused;
    a malformed one raises WordError. So does a presentation with more
    generators than the file has images, before any generator name is built,
    so an absurd genus costs nothing."""
    obj = _read_json(path, EXIT_PARSE, "error: homomorphism file")
    pres = obj.get("presentation") if isinstance(obj, dict) else None
    images = obj.get("images") if isinstance(obj, dict) else None
    if not isinstance(pres, dict) or not isinstance(images, dict):
        raise WordError("homomorphism file must be an object with a \"presentation\" "
                        "object and an \"images\" object")
    counts = [pres.get("genus"), pres.get("boundary")]
    if not all(isinstance(c, int) and not isinstance(c, bool) for c in counts):
        raise WordError("presentation genus and boundary must be integers, got %r"
                        % (counts,))
    genus, boundary = counts
    if 2 * genus + boundary > len(images):
        raise WordError("presentation has %d generators but the file gives %d images"
                        % (2 * genus + boundary, len(images)))
    if not all(isinstance(text, str) for text in images.values()):
        raise WordError("every generator image must be a word string")
    return (SurfacePresentation(genus=genus, boundary=boundary),
            {gen: _read_word(text) for gen, text in images.items()})


@_input_errors_exit_64
def cmd_surf(args) -> int:
    g = _load_graph(args.graph)
    pres, images = _load_hom(args.homfile)
    if args.op == "check":
        print("true" if check_hom(g, pres, images) else "false")
    elif args.op == "relative":
        if not check_hom(g, pres, images):
            print("not a homomorphism")
            return 1
        supports = boundary_clique_supports(g, pres, images)
        bad = [i + 1 for i, c in enumerate(supports) if c is None]
        if bad:
            print("false (boundary %s not conjugate into a clique)"
                  % ", ".join(str(i) for i in bad))
        else:
            print("true")
    else:
        w = kernel_search(g, pres, images, args.max_len)
        print("none up to %d" % args.max_len if w is None else format_word(w))
    return 0


def cmd_catalog(args) -> int:
    extra = _load_extra_catalog(args.catalog)
    for name, least, provenance in CYCLE_FAMILIES:
        print("%-8s %-11s  %s" % (name, "n >= %d" % least, provenance))
    for e in [*builtin_catalog(), *extra]:
        print("%-8s %2d vertices  %s" % (e.name, e.graph.n, e.provenance))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="raagscope", description=__doc__)
    ap.add_argument("--version", action="version", version="raagscope %s" % __version__)
    sub = ap.add_subparsers(dest="command", required=True)
    catalog = os.environ.get("RAAGSCOPE_CATALOG")

    p = sub.add_parser("classify", help="classify a graph and emit a certificate")
    p.add_argument("input", nargs="?", default="-", help="graph file, '-' for stdin, or a graph6 value")
    p.add_argument("--budget", type=_at_least(1), default=DEFAULT_BUDGET)
    p.add_argument("--cocontract-depth", type=_at_least(0), default=DEFAULT_COCONTRACT_DEPTH)
    p.add_argument("--catalog", default=catalog,
                   help="extra forbidden-graph catalog (JSON; default $RAAGSCOPE_CATALOG)")
    p.add_argument("--json", action="store_true", help="emit the full JSON report")
    p.add_argument("--batch", action="store_true",
                   help="treat stdin/file as one graph6 value per line; exit 64 if any "
                        "line fails to parse, else 0")
    p.add_argument("--cross-check", action="store_true",
                   help="also run the prover after a found obstruction, and the unpruned "
                        "co-contraction search after a found derivation")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("verify", help="check a certificate against a graph")
    p.add_argument("graph")
    p.add_argument("certificate", help="certificate JSON (or a full classify report)")
    p.add_argument("--catalog", default=catalog)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("ops", help="graph operations")
    opsub = p.add_subparsers(dest="op", required=True)
    for name in ("complement", "join", "cocontract", "extend", "separators"):
        q = opsub.add_parser(name)
        q.add_argument("graph")
        if name == "join":
            q.add_argument("other")
        if name == "cocontract":
            q.add_argument("vertices", help="comma-separated vertex set to co-contract")
        q.add_argument("--to", default="edgelist", choices=["edgelist", "graph6", "dot"])
        if name == "separators":
            q.add_argument("--json", action="store_true")
        q.set_defaults(func=cmd_ops)

    p = sub.add_parser("word", help="word problem in the graph group")
    wsub = p.add_subparsers(dest="op", required=True)
    for name, nwords in (("nf", 1), ("trivial", 1), ("equal", 2), ("clique-conj", 1)):
        q = wsub.add_parser(name)
        q.add_argument("-g", "--graph", required=True)
        q.add_argument("words", nargs=nwords)
        q.set_defaults(func=cmd_word)

    p = sub.add_parser("surf", help="surface-group homomorphism checks")
    ssub = p.add_subparsers(dest="op", required=True)
    for name in ("check", "relative", "kernel"):
        q = ssub.add_parser(name)
        q.add_argument("-g", "--graph", required=True)
        q.add_argument("homfile", help="JSON homomorphism file")
        if name == "kernel":
            q.add_argument("--max-len", type=_at_least(0), default=8)
        q.set_defaults(func=cmd_surf)

    p = sub.add_parser("catalog", help="list the forbidden-graph catalog")
    p.add_argument("--catalog", default=catalog)
    p.set_defaults(func=cmd_catalog)
    return ap


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except _Refused as exc:
        print(exc.line, file=sys.stderr)
        return exc.code
    except SoundnessError as exc:
        print("internal soundness violation: %s" % exc, file=sys.stderr)
        return EXIT_SOUNDNESS
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit; that flush goes to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_IOERR


if __name__ == "__main__":
    sys.exit(main())
