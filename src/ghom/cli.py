"""Command-line entry point.

Verb-noun subcommands over the library, with stable exit codes:
0 success/Equal, 1 Distinct (or invalid input to `graph validate`),
2 Unknown, 64 parse/usage failures, 65 size-guard violations, and 141
when the reader closes stdout early.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from functools import cache
from pathlib import Path

from .errors import GraphFormatError, GuardExceeded
from .graphs import Graph, parse_graph, parse_morphism, serialize
from .groupoid import (
    Presentation,
    abelian_invariants,
    fundamental_group_presentation,
    van_kampen_presentation,
    walk_group_presentation,
)
from .homcomplex import DEFAULT_CAP, compare_thm66, exponential_graph, hom_complex_2skeleton
from .homotopy import (
    Decision,
    Exhaustion,
    LPruneStep,
    LUnpruneStep,
    MorphismSpiderStep,
    PruneStep,
    Separation,
    SpiderStep,
    UnpruneStep,
    Verdict,
    morphisms_homotopic,
    stiff_reduce,
    walks_homotopic,
)
from .verify import verify_product_pullback
from .walks import parse_walk, prune_normalize

EXIT_OK = 0
EXIT_DISTINCT = 1
EXIT_UNKNOWN = 2
EXIT_PARSE = 64
EXIT_GUARD = 65


class _Parser(argparse.ArgumentParser):
    """Exits 64 on a usage error; a verb's parser names its `handler`."""

    def __init__(self, *args, handler=None, **kwargs):
        super().__init__(*args, **kwargs)
        if handler is not None:
            self.set_defaults(handler=handler)

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise GraphFormatError(f"cannot read {path}: {exc}") from exc


def _load_graph(path: str) -> Graph:
    text = _read(path)
    try:
        return parse_graph(text)
    except GraphFormatError as exc:
        raise GraphFormatError(f"{path}: {exc}") from exc


def _print_json(obj) -> None:
    """Print `json.dumps(obj, indent=2)`, byte for byte, without the
    generators of its pure-Python encoder: strs (str-valued Enums too),
    None, bools, ints, lists and tuples, and dicts with str keys.  Any
    other type raises `TypeError`."""
    out = []
    put = out.append
    esc = json.encoder.encode_basestring_ascii

    def write(v, pad):
        if isinstance(v, str):
            put(esc(v))
        elif v is None:
            put("null")
        elif v is True:
            put("true")
        elif v is False:
            put("false")
        elif isinstance(v, int):
            put(int.__repr__(v))
        elif isinstance(v, (list, tuple)):
            if not v:
                put("[]")
                return
            inner = pad + "  "
            sep = "," + inner
            put("[" + inner)
            for item in v:
                write(item, inner)
                put(sep)
            out[-1] = pad + "]"  # in place of the last separator
        elif isinstance(v, dict):
            if not v:
                put("{}")
                return
            inner = pad + "  "
            sep = "," + inner
            put("{" + inner)
            for key, item in v.items():
                put(esc(key) + ": ")  # a key that is not a str raises TypeError
                write(item, inner)
                put(sep)
            out[-1] = pad + "}"
        else:
            raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")

    write(obj, "\n")
    print("".join(out))


_MOVE = {
    SpiderStep: "spider",
    PruneStep: "prune",
    UnpruneStep: "unprune",
    LPruneStep: "lprune",
    LUnpruneStep: "lunprune",
    MorphismSpiderStep: "spider",
}


def _step_json(step) -> dict:
    return {"move": _MOVE[type(step)], **asdict(step)}


def _step_text(step) -> str:
    d = _step_json(step)
    kind = d.pop("move")
    detail = " ".join(f"{k}={v}" for k, v in d.items())
    return f"{kind} {detail}"


def _decision_json(d: Decision) -> dict:
    if d.verdict is Verdict.EQUAL:
        cert = [_step_json(s) for s in d.certificate]
    else:
        cert = asdict(d.certificate)
    return {"verdict": d.verdict.value, "certificate": cert}


def _emit_decision(d: Decision, as_json: bool) -> int:
    if as_json:
        _print_json(_decision_json(d))
    else:
        print(d.verdict.value)
        c = d.certificate
        if d.verdict is Verdict.EQUAL:
            for step in c:
                print(f"  {_step_text(step)}")
        elif isinstance(c, Separation):
            print(f"  {c.invariant}: {c.left} vs {c.right}")
        elif isinstance(c, Exhaustion):
            print(f"  exhausted after {c.states_explored} states (max_len={c.max_len}, max_states={c.max_states})")
    return {Verdict.EQUAL: EXIT_OK, Verdict.DISTINCT: EXIT_DISTINCT, Verdict.UNKNOWN: EXIT_UNKNOWN}[d.verdict]


def _presentation_json(p: Presentation) -> dict:
    inv = abelian_invariants(p)
    return {
        "basepoint": p.basepoint,
        "generators": [g.label for g in p.generators],
        "generator_edges": [list(g.edge) if g.edge else None for g in p.generators],
        "relators": [w.signed_indices() for w in p.relators],
        "rank": inv.rank,
        "torsion": list(inv.torsion),
    }


def _emit_presentation(p: Presentation, as_json: bool) -> int:
    if as_json:
        _print_json(_presentation_json(p))
        return EXIT_OK
    print(f"basepoint: {p.basepoint}")
    print("generators:")
    if not p.generators:
        print("  (none)")
    for g in p.generators:
        if g.edge is None:
            print(f"  {g.label}")
        elif g.is_loop:
            print(f"  {g.label} = loop at {g.edge[0]}")
        else:
            print(f"  {g.label} = {g.edge[0]}~{g.edge[1]}")
    print("relators:")
    if not p.relators:
        print("  (none)")
    labels = [g.label for g in p.generators]
    for w in p.relators:
        text = " ".join(labels[i] + ("" if e > 0 else "^-1") for i, e in w.letters)
        print(f"  {text}")
    print(f"abelian invariants: {abelian_invariants(p)}")
    return EXIT_OK


@cache
def build_parser() -> _Parser:
    """The argument parser, built once per process: parsing leaves no state
    on it, and building it costs more than a light command."""
    top = _Parser(prog="ghom", description=__doc__)
    top.add_argument("--json", action="store_true", help="machine-readable output")
    top.add_argument("--cap", type=int, default=DEFAULT_CAP, help="override size guards")
    sub = top.add_subparsers(required=True)
    pair = argparse.ArgumentParser(add_help=False)  # source and target graphs
    pair.add_argument("source")
    pair.add_argument("target")

    g = sub.add_parser("graph", help="graph file operations").add_subparsers(required=True)
    v = g.add_parser("validate", handler=_graph_validate)
    v.add_argument("file")

    w = sub.add_parser("walk").add_subparsers(required=True)
    n = w.add_parser("normalize", handler=_walk_normalize)
    n.add_argument("graph")
    n.add_argument("walk")
    n.add_argument("--looped", action="store_true")

    h = sub.add_parser("homotopy").add_subparsers(required=True)
    hw = h.add_parser("walks", handler=_homotopy_walks)
    hw.add_argument("graph")
    hw.add_argument("walk1")
    hw.add_argument("walk2")
    hw.add_argument("--looped", action="store_true")
    hw.add_argument("--max-len", type=int, default=None)
    hw.add_argument("--max-states", type=int, default=200_000)
    hm = h.add_parser("morphisms", handler=_homotopy_morphisms, parents=[pair])
    hm.add_argument("map1")
    hm.add_argument("map2")
    hm.add_argument("--max-steps", type=int, default=200_000)

    r = sub.add_parser("reduce").add_subparsers(required=True)
    rs = r.add_parser("stiff", handler=_reduce_stiff)
    rs.add_argument("graph")

    p = sub.add_parser("pi1").add_subparsers(required=True)
    pp = p.add_parser("present", handler=_pi1_present)
    pp.add_argument("graph")
    pp.add_argument("--base", default=None)
    pp.add_argument("--walkgroup", action="store_true")
    pv = p.add_parser("vankampen", handler=_pi1_vankampen)
    pv.add_argument("graph")
    pv.add_argument("--part1", required=True)
    pv.add_argument("--part2", required=True)
    pv.add_argument("--base", default=None)
    pc = p.add_parser("product-check", handler=_pi1_product_check)
    pc.add_argument("graph1")
    pc.add_argument("graph2")
    pc.add_argument("--max-len", type=int, required=True)

    m = sub.add_parser("hom").add_subparsers(required=True)
    m.add_parser("complex", handler=_hom_complex, parents=[pair])
    m.add_parser("exp", handler=_hom_exp, parents=[pair])
    mm = m.add_parser("compare", handler=_hom_compare, parents=[pair])
    mm.add_argument("--max-len", type=int, default=None, help="accepted for older invocations; has no effect")
    return top


def run(argv: list[str]) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except GuardExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except ValueError as exc:  # GraphFormatError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


def _graph_validate(args) -> int:
    text = _read(args.file)
    try:
        g = parse_graph(text)
    except GraphFormatError as exc:
        print(f"invalid: {exc}")
        return EXIT_DISTINCT
    print(f"ok: {len(g.vertices)} vertices, {len(g.edges)} edges")
    return EXIT_OK


def _walk_normalize(args) -> int:
    g = _load_graph(args.graph)
    w = parse_walk(g, args.walk)
    print(str(prune_normalize(w, looped_mode=args.looped)))
    return EXIT_OK


def _homotopy_walks(args) -> int:
    g = _load_graph(args.graph)
    a = parse_walk(g, args.walk1)
    b = parse_walk(g, args.walk2)
    d = walks_homotopic(a, b, looped_mode=args.looped, max_len=args.max_len, max_states=args.max_states)
    return _emit_decision(d, args.json)


def _homotopy_morphisms(args) -> int:
    src = _load_graph(args.source)
    tgt = _load_graph(args.target)
    f = parse_morphism(_read(args.map1), src, tgt)
    g2 = parse_morphism(_read(args.map2), src, tgt)
    d = morphisms_homotopic(f, g2, max_steps=args.max_steps)
    return _emit_decision(d, args.json)


def _reduce_stiff(args) -> int:
    stiff, folds = stiff_reduce(_load_graph(args.graph))
    moved = [{v: f.mapping[v] for v in f.source.vertices if f.mapping[v] != v} for f in folds]
    if args.json:
        _print_json({"stiff": serialize(stiff).splitlines(), "folds": moved})
    else:
        for fold in moved:
            for v, image in fold.items():
                print(f"fold {v} -> {image}")
        print(serialize(stiff), end="")
    return EXIT_OK


def _pi1_present(args) -> int:
    g = _load_graph(args.graph)
    if not g.vertices:
        raise GraphFormatError("graph has no vertices")
    base = args.base if args.base is not None else g.vertices[0]
    if base not in g:
        raise GraphFormatError(f"base vertex {base!r} not in graph")
    p = walk_group_presentation(g, base) if args.walkgroup else fundamental_group_presentation(g, base)
    return _emit_presentation(p, args.json)


def _pi1_vankampen(args) -> int:
    g = _load_graph(args.graph)
    part1 = [t for t in args.part1.split(",") if t]
    part2 = [t for t in args.part2.split(",") if t]
    base = args.base
    if base is None:
        shared = set(part1) & set(part2)
        base = next((t for t in g.vertices if t in shared), None)
        if base is None:
            raise GraphFormatError("the two parts share no vertex to use as basepoint")
    p = van_kampen_presentation(g, part1, part2, base)
    return _emit_presentation(p, args.json)


def _pi1_product_check(args) -> int:
    g1 = _load_graph(args.graph1)
    g2 = _load_graph(args.graph2)
    report = verify_product_pullback(g1, g2, args.max_len)
    if args.json:
        _print_json({
            "passed": report.passed,
            "parity_mismatches": len(report.parity_mismatches),
            "lift_checked": report.lift_checked,
            "lift_failures": len(report.lift_failures),
            "injectivity_checked": report.injectivity_checked,
            "injectivity_counterexamples": len(report.injectivity_counterexamples),
            "injectivity_unknown": len(report.injectivity_unknown),
            "truncated": report.truncated,
        })
    else:
        print(f"parity reachability mismatches: {len(report.parity_mismatches)}")
        print(f"lift checks: {report.lift_checked}, failures: {len(report.lift_failures)}")
        print(
            f"injectivity checks: {report.injectivity_checked}, "
            f"counterexamples: {len(report.injectivity_counterexamples)}, "
            f"undecided: {len(report.injectivity_unknown)}"
        )
        print("passed" if report.passed else "FAILED")
    return EXIT_OK if report.passed else EXIT_DISTINCT


def _hom_complex(args) -> int:
    g = _load_graph(args.source)
    h = _load_graph(args.target)
    c = hom_complex_2skeleton(g, h, cap=args.cap)
    if args.json:
        # an assignment is a tuple of tuples, which JSON prints as arrays
        _print_json({
            "cells0": [c0.assignment for c0 in c.cells0],
            "cells1": [c1.assignment for c1 in c.cells1],
            "cells2": [c2.assignment for c2 in c.cells2],
            "boundary": [
                {"cell": cell.assignment, "faces": [f.assignment for f in faces]}
                for cell, faces in c.boundary.items()
                if faces
            ],
        })
    else:
        print(f"0-cells: {len(c.cells0)}")
        print(f"1-cells: {len(c.cells1)}")
        print(f"2-cells: {len(c.cells2)}")
    return EXIT_OK


def _hom_exp(args) -> int:
    g = _load_graph(args.source)
    h = _load_graph(args.target)
    print(serialize(exponential_graph(g, h, cap=args.cap)), end="")
    return EXIT_OK


def _hom_compare(args) -> int:
    g = _load_graph(args.source)
    h = _load_graph(args.target)
    report = compare_thm66(g, h, cap=args.cap)
    if args.json:
        _print_json({
            "components_match": report.components_match,
            "looped_components": report.looped_component_count,
            "complex_components": report.complex_component_count,
            "comparisons": [
                {
                    "component": c.representative,
                    "looped": {"rank": c.looped_invariants.rank, "torsion": list(c.looped_invariants.torsion)},
                    "complex": {"rank": c.complex_invariants.rank, "torsion": list(c.complex_invariants.torsion)},
                    "matches": c.matches,
                }
                for c in report.comparisons
            ],
            "uncertified_relators": len(report.uncertified_relators),
            "passed": report.passed,
        })
    else:
        print(f"components: looped={report.looped_component_count} complex={report.complex_component_count} "
              f"{'bijective' if report.components_match else 'MISMATCH'}")
        for c in report.comparisons:
            mark = "ok" if c.matches else "MISMATCH"
            print(f"  component {c.representative}: looped {c.looped_invariants} | complex {c.complex_invariants} [{mark}]")
        print("passed" if report.passed else "FAILED")
    return EXIT_OK if report.passed else EXIT_DISTINCT


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (`ghom ... | head`): end quietly, as Unix
        # filters do.  Python flushes stdout again at exit, so it is pointed
        # at devnull first; 141 is 128 + SIGPIPE, what a shell reports for a
        # filter the signal ended, and no verdict's code
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(141)
    sys.exit(code)


if __name__ == "__main__":
    main()
