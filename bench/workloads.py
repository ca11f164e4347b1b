"""The four benchmark workloads: seeded inputs, the library calls, and how
each answer is checked.

A workload is built from `--seed` into a fixed list of ops that every pass
replays in order.  Each op has a timed `call` into the library, a
`summarize` that turns its result into plain data (outside the timed
region), and a `check` that judges that data with the oracles in
`oracles.py` or the golden values in `goldens.json`.  `check` returns
(ok, verdict-bearing checks, of which decided).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracles as O

GOLDENS = Path(__file__).with_name("goldens.json")


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    summarize: Callable[[object], object]
    check: Callable[[object], tuple[bool, int, int]]
    known_defect: str = ""  # exception text this op raises today (ROADMAP item)


def to_graph(ghom, sp: O.Spec):
    return ghom.Graph(sp.vertices, sp.edges)


def _decided(verdict: str) -> int:
    return int(verdict != "Unknown")


def _decision_summary(d):
    return (d.verdict.value, d.certificate if d.verdict.value == "Equal" else repr(d.certificate))


# -- decide ------------------------------------------------------------------------

DECIDE_FAMILY = (
    O.wheel(5), O.wheel(6), O.pendant_square(), O.complete(5),
    O.product(O.cycle(4), O.complete(3)), O.cycle(4, loops=True), O.cycle(5, loops=True),
    O.king(3, 3, loops=True), O.figure_eight(),
)
# Distinct-by-construction pairs need a cycle that is nonzero in H1 of a
# C4-free graph: the figure-eight (unlooped) and looped C5 (looped mode).
C4_FREE = {"figure-eight": False, "looped C5": True}
# Per (graph, mode): shallow pairs (1-2 scramble moves) give a steady
# median; deep pairs (4-10 moves) are where the search time goes.  Whether
# a pair ends in a few states or at the cap varies from draw to draw (even
# a shallow one can run to the cap), so every walk pair comes from one fixed
# catalogue (CATALOGUE_SEED) and every seed does the same search work; the
# seed draws the morphism queries and the order.
SHALLOW_PER_COMBO = 16
DEEP_PER_COMBO = 8
DISTINCT_PER_COMBO = 12
CATALOGUE_SEED = 0
WALK_LEN = (8, 12)
SHALLOW_MOVES = (1, 2)
DEEP_MOVES = (4, 10)
# Capped searches stay cheaper than the commutators, which hold the tail.
DECIDE_MAX_STATES = 3_000
COMMUTATORS = 4
COMMUTATOR_MAX_LEN = 24
COMMUTATOR_MAX_STATES = 30_000  # they run dry at 4,200: Unknown by exhaustion, not by cap
MORPH_SOURCES = (O.path(2), O.cycle(4), O.path(3))
MORPH_TARGETS = ("W5", "K5", "pendant square", "C4xK3")
MORPH_QUERIES = 12
MORPH_MOVES = (2, 8)


def _walk_query(ghom, g, adj, looped, a, b, looped_mode, expect, max_len=None,
                max_states=None):
    Walk = ghom.Walk

    def call():
        return ghom.walks_homotopic(Walk(g, a), Walk(g, b), looped_mode=looped_mode,
                                    max_len=max_len, max_states=max_states or DECIDE_MAX_STATES)

    def check(s):
        verdict, cert = s
        if verdict == "Equal":
            ok = expect == "Equal" and O.replay_walk(adj, looped, a, b, cert, looped_mode)
        else:
            ok = verdict == "Unknown" or verdict == expect
        return ok, 1, _decided(verdict)

    return Op(f"walk-{expect.lower()}", call, _decision_summary, check)


def _commutator(order):
    """[x, y] around the two lobes of the figure-eight, based at 0."""
    lobes = [("1", "2", "3", "4"), ("5", "6", "7", "8")]
    x, y = (lobes[0], lobes[1]) if order & 1 else (lobes[1], lobes[0])
    if order & 2:
        x = x[::-1]
    if order & 4:
        y = y[::-1]
    return ("0",) + x + ("0",) + y + ("0",) + x[::-1] + ("0",) + y[::-1] + ("0",)


def build_decide(ghom, seed, workdir):
    rng, fixed = random.Random(seed), random.Random(CATALOGUE_SEED)
    ops = []
    # Each pass starts with a cold abelianization cache, and the first query
    # on a graph and mode pays for its Smith normal form.  The first shallow
    # pair of each (graph, mode) opens the pass, so that cost lands on the
    # same ops whatever the seed.  Landing on a seeded choice of capped
    # searches, it moved the tail by several percent from seed to seed.
    openers = []
    graphs = {sp.name: (sp, to_graph(ghom, sp)) for sp in DECIDE_FAMILY}
    for sp, g in graphs.values():
        adj, looped = sp.adjacency(), sp.looped()
        for looped_mode in (False, True) if looped else (False,):
            allowed = looped if looped_mode else None
            pairs = []
            for moves in [SHALLOW_MOVES] * SHALLOW_PER_COMBO + [DEEP_MOVES] * DEEP_PER_COMBO:
                length = fixed.randint(*WALK_LEN)
                a = O.random_walk(fixed, adj, fixed.choice(sorted(allowed or sp.vertices)), length, allowed)
                b = O.scramble(fixed, adj, looped, a, fixed.randint(*moves), looped_mode, length + 2)
                pairs.append(_walk_query(ghom, g, adj, looped, a, b, looped_mode, "Equal"))
            openers.append(pairs[0])
            ops += pairs[1:]
            if C4_FREE.get(sp.name) is looped_mode:
                for _ in range(DISTINCT_PER_COMBO):
                    a = O.random_walk(fixed, adj, fixed.choice(sorted(allowed or sp.vertices)),
                                      fixed.randint(*WALK_LEN), allowed)
                    b = a + _closed_cycle(fixed, sp, a[-1], looped_mode)[1:]
                    ops.append(_walk_query(ghom, g, adj, looped, a, b, looped_mode, "Distinct"))
    sp, g = graphs["figure-eight"]
    for i in range(COMMUTATORS):
        comm = _commutator(i % 8)
        ops.append(_walk_query(ghom, g, sp.adjacency(), frozenset(), comm, ("0",), False,
                               "Distinct", max_len=COMMUTATOR_MAX_LEN, max_states=COMMUTATOR_MAX_STATES))
    for i in range(MORPH_QUERIES):
        src = MORPH_SOURCES[i % len(MORPH_SOURCES)]
        tsp, tg = graphs[MORPH_TARGETS[i % len(MORPH_TARGETS)]]
        ops.append(_morphism_query(ghom, rng, src, tsp, tg))
    rng.shuffle(ops)
    return openers + ops


def _closed_cycle(rng, sp, at, looped_mode):
    """A closed walk at `at` that is nonzero in H1: go to the cycle, run
    round it a seeded number of times, come back.  Even total length in
    unlooped mode keeps parity from settling the query."""
    adj = sp.adjacency()
    if sp.name == "looped C5":
        ring = [f"{i}" for i in range(5)]
    else:
        ring = ["0", "1", "2", "3", "4"] if rng.random() < 0.5 else ["0", "5", "6", "7", "8"]
    # path from `at` to the ring by BFS over the spec
    prev, frontier = {at: None}, [at]
    while not any(v in ring for v in frontier):
        nxt = []
        for u in frontier:
            for w in sorted(adj[u]):
                if w not in prev:
                    prev[w] = u
                    nxt.append(w)
        frontier = nxt
    hit = next(v for v in frontier if v in ring)
    path = [hit]
    while prev[path[-1]] is not None:
        path.append(prev[path[-1]])
    path.reverse()
    k = ring.index(hit)
    turn = ring[k:] + ring[:k] + [hit]
    if rng.random() < 0.5:
        turn = turn[::-1]
    laps = 2 if not looped_mode else rng.randint(1, 2)
    loop = turn + turn[1:] * (laps - 1)
    return tuple(path + loop[1:] + path[::-1][1:])


def _morphism_query(ghom, rng, src, tsp, tg):
    sg = to_graph(ghom, src)
    tadj = tsp.adjacency()
    # a random morphism: images in vertex order, each adjacent to its
    # already-mapped neighbours' images; retry on a dead end
    while True:
        image = {}
        for v in src.vertices:
            cands = sorted(y for y in tadj if all(image[u] in tadj[y] for u in image
                                                  if (u, v) in src.edges or (v, u) in src.edges))
            if not cands:
                break
            image[v] = rng.choice(cands)
        if len(image) == len(src.vertices):
            break
    other = O.scramble_morphism(rng, src, tadj, image, rng.randint(*MORPH_MOVES))

    def call():
        return ghom.morphisms_homotopic(ghom.Morphism(sg, tg, image), ghom.Morphism(sg, tg, other))

    def check(s):
        verdict, cert = s
        if verdict == "Equal":
            return O.replay_morphism(src, tadj, image, other, cert), 1, 1
        return verdict == "Unknown", 1, _decided(verdict)

    return Op("morphism-equal", call, _decision_summary, check)


# -- present -----------------------------------------------------------------------


# Twelve heavy pi1 ops (K7, K6 x3 and looped king grids) hold the latency
# tail.  Tori and wheels form a ladder of costs, and in its middle a block of
# PRESENT_MEDIAN_COPIES pi1 ops on C5 x C5 holds the median: a median that
# rests on one op of the ladder moves with that op's time.  Their cost depends on the declaration order, which the seed
# would otherwise redraw, so both are fixed; seeded G(n, p) draws get the
# cheap walk-group and stiff ops, and the seed draws the order of all ops.
PRESENT_COMPLETE = ((7, 1), (6, 3))
PRESENT_KINGS = (((3, 3), 1), ((2, 4), 4), ((2, 3), 3))
PRESENT_TORI = tuple((3, n) for n in range(3, 12)) + tuple((5, n) for n in range(3, 9))
PRESENT_WHEELS = tuple(range(5, 21))
PRESENT_MEDIAN_COPIES = 12
PRESENT_GNP = 16


def _present_graphs(rng):
    heavy = [O.complete(n) for n, k in PRESENT_COMPLETE for _ in range(k)]
    heavy += [O.king(m, n, loops=True) for (m, n), k in PRESENT_KINGS for _ in range(k)]
    heavy += [O.torus(5, 5)] * PRESENT_MEDIAN_COPIES
    shapes = [O.torus(m, n) for m, n in PRESENT_TORI] + [O.wheel(n) for n in PRESENT_WHEELS]
    gnp = [O.gnp(rng, rng.randint(8, 12), rng.uniform(0.3, 0.5), f"G(n,p)#{i}") for i in range(PRESENT_GNP)]
    return ([("pi1", sp) for sp in heavy]
            + [(("pi1", "vankampen")[i % 2], sp) for i, sp in enumerate(shapes)]
            + [(("walkgroup", "stiff")[i % 2], sp) for i, sp in enumerate(gnp)])


def build_present(ghom, seed, workdir):
    rng = random.Random(seed)
    ops = [_present_op(ghom, kind, sp, to_graph(ghom, sp), sp.vertices[0]) for kind, sp in _present_graphs(rng)]
    rng.shuffle(ops)
    return ops


def _presentation_summary(p, invariants):
    return {
        "generators": len(p.generators),
        "rows": tuple(tuple(r) for r in O.exponent_rows(p.relators, len(p.generators))),
        "invariants": (invariants.rank, tuple(invariants.torsion)),
    }


def _check_invariants(s, *extra):
    """Invariants must match sympy's Smith form of the same relator
    matrix (and of each extra (rows, width) presentation of the group)."""
    want = O.sympy_invariants(list(s["rows"]), s["generators"])
    got = (s["invariants"][0], tuple(sorted(s["invariants"][1])))
    ok = got == (want[0], tuple(sorted(want[1])))
    for rows, width in extra:
        other = O.sympy_invariants(list(rows), width)
        ok = ok and (other[0], tuple(sorted(other[1]))) == got
    return ok, 0, 0


def _present_op(ghom, kind, sp, g, base):
    adj = sp.adjacency()
    if kind == "stiff":
        def call():
            return ghom.stiff_reduce(g)

        def summarize(r):
            stiff, folds = r
            return {"vertices": stiff.vertices, "edges": tuple(sorted(stiff.edges)), "folds": len(folds)}

        def check(s):
            keep = set(s["vertices"])
            induced = {tuple(sorted(e)) for e in sp.edges if set(e) <= keep}
            sub = {v: adj[v] & keep for v in keep}
            ok = {tuple(sorted(e)) for e in s["edges"]} == induced and O.is_stiff(keep, sub)
            return ok, 0, 0

        return Op("stiff", call, summarize, check)

    if kind == "vankampen":
        part2 = [base] + sorted(adj[base] - {base})

        def call():
            p = ghom.van_kampen_presentation(g, sp.vertices, part2, base)
            direct = ghom.fundamental_group_presentation(g, base)
            return p, ghom.abelian_invariants(p), direct

        def summarize(r):
            p, inv, direct = r
            s = _presentation_summary(p, inv)
            s["direct"] = (tuple(map(tuple, O.exponent_rows(direct.relators, len(direct.generators)))),
                           len(direct.generators))
            return s

        return Op("vankampen", call, summarize, lambda s: _check_invariants(s, s["direct"]))

    build = ghom.walk_group_presentation if kind == "walkgroup" else ghom.fundamental_group_presentation

    def call():
        p = build(g, base)
        return p, ghom.abelian_invariants(p)

    return Op(kind, call, lambda r: _presentation_summary(*r), _check_invariants)


# -- hom -----------------------------------------------------------------------------

HOM_GRAPHS = {"K2": O.path(1), "P2": O.path(2), "K3": O.complete(3), "C4": O.cycle(4), "C5": O.cycle(5)}
# (verb, source, target): the catalogue whose outputs goldens.json pins.
# `hom compare P2 C5` (about 0.5 s) runs once per pass in a seeded format
# (it certifies the same relators either way), `hom exp C4 C5` (625
# vertices) once per format, the light commands HOM_LIGHT_REPEATS times per
# format.  Every op stays well under a second, so each is timed many times
# in a run.
HOM_ONCE = (("compare", "P2", "C5"),)
HOM_HEAVY = (("exp", "C4", "C5"),)
HOM_LIGHT = (
    ("exp", "K2", "K2"), ("exp", "K2", "C5"), ("exp", "P2", "C5"), ("exp", "K2", "K3"),
    ("exp", "P2", "C4"), ("complex", "K2", "K2"), ("complex", "K2", "C5"), ("complex", "P2", "C5"),
    ("complex", "K2", "K3"), ("complex", "P2", "K3"), ("compare", "K2", "K2"), ("compare", "K2", "C5"),
    ("compare", "K2", "K3"),
)
HOM_CATALOGUE = HOM_ONCE + HOM_HEAVY + HOM_LIGHT
COMPARE_MAX_LEN = "8"
# Repeating the light commands lets the median and tail rest on several
# copies of each, and keeps `hom compare P2 C5` from dominating ops_per_s.
HOM_LIGHT_REPEATS = 3


def hom_key(verb, src, tgt, as_json):
    return f"hom {verb} {src} {tgt}{' --json' if as_json else ''}"


def hom_argv(verb, src, tgt, as_json, paths):
    argv = (["--json"] if as_json else []) + ["hom", verb, str(paths[src]), str(paths[tgt])]
    return argv + (["--max-len", COMPARE_MAX_LEN] if verb == "compare" else [])


def write_graph_file(rng, sp, path):
    """Serialize with seeded edge-line order and comment lines; vertex
    order is kept, so the parsed graph (and every output) is unchanged."""
    lines = [f"# {sp.name}, benchmark input"]
    looped = sp.looped()
    lines += [f"vertex {v} loop" if v in looped else f"vertex {v}" for v in sp.vertices]
    edges = [f"edge {u} {v}" if rng.random() < 0.5 else f"edge {v} {u}" for u, v in sp.edges if u != v]
    rng.shuffle(edges)
    for e in edges:
        lines.append(e)
        if rng.random() < 0.2:
            lines.append("# seeded comment")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def run_cli(ghom, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = ghom.cli.run(argv)
    return code, out.getvalue()


def hom_summary(result):
    code, text = result
    data = text.encode("utf-8")
    return {"exit": code, "sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


def build_hom(ghom, seed, workdir):
    rng = random.Random(seed)
    paths = {}
    for name, sp in HOM_GRAPHS.items():
        paths[name] = workdir / f"{name}.g"
        write_graph_file(rng, sp, paths[name])
    goldens = json.loads(GOLDENS.read_text())["hom"]
    # the multiset of commands is fixed, so each pass costs the same; the
    # seed draws order, the graph files' layout and the format of `hom
    # compare P2 C5`
    items = [item + (rng.random() < 0.5,) for item in HOM_ONCE]
    items += [item + (as_json,) for item in HOM_HEAVY for as_json in (False, True)]
    items += [item + (as_json,) for item in HOM_LIGHT for as_json in (False, True)] * HOM_LIGHT_REPEATS
    ops = []
    for verb, src, tgt, as_json in items:
        argv = hom_argv(verb, src, tgt, as_json, paths)
        golden = goldens.get(hom_key(verb, src, tgt, as_json))

        def check(s, golden=golden):
            # relator certifications happen inside compare; their verdicts
            # are pinned with the golden output they produce
            ok = golden is not None and all(s[k] == golden[k] for k in s)
            checks = golden.get("certify", 0) if golden else 0
            return ok, checks, golden.get("certified", 0) if ok else 0

        ops.append(Op(f"hom-{verb}", (lambda argv=argv: run_cli(ghom, argv)), hom_summary, check))
    rng.shuffle(ops)
    return ops


# -- verify ----------------------------------------------------------------------------

PAW = O.spec("paw", "abcd", [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")])
STAR = O.spec("S3", "abcd", [("a", "b"), ("a", "c"), ("a", "d")])
FACTORS = {sp.name: sp for sp in (O.path(1), O.path(2), O.cycle(3), O.cycle(4), O.cycle(5), PAW, STAR)}
# (left, right, max_len) with criterion 7's budgets.  The pairs, and the
# reflexive reports (at the library's default sampling seed), are a fixed
# catalogue whose cost the seed cannot change: they hold the tail.  The
# naturality squares are a fixed catalogue too (a square costs 0.1-1 ms or,
# when it runs to its cap, several ms; seeded squares moved the median by
# a seventh from seed to seed); the seed deals them into reports and draws
# the order.
PULLBACK_PAIRS = tuple((a, b, 4) for a in ("P1", "P2") for b in ("C3", "C4", "C5", "paw", "S3", "P2")) + (
    ("C3", "S3", 3), ("C4", "S3", 3), ("C3", "C4", 3), ("C5", "S3", 3), ("C3", "C3", 3), ("C3", "C5", 3))
PULLBACK_BUDGET = {"pair_budget": 4_000, "max_states": 15_000}
NESTED = ("K2xK2", "P1", 3)  # ROADMAP item 2: raises ValueError today
REFLEXIVE = (("looped P1", 6), ("looped P2", 4), ("looped K3", 4), ("looped P0", 6))
# Naturality squares run as reports of NATURALITY_BATCH squares each
# (criterion 10 is such a report); the twenty reports, the block the median
# falls in, cost about alike.
NATURALITY = 960
NATURALITY_BATCH = 48
NATURALITY_MAX_STATES = 200  # keeps every square below the fixed ops that hold the tail


def pullback_key(left, right, max_len):
    return f"pullback {left} {right} {max_len}"


def reflexive_key(name, max_len):
    return f"reflexive {name} {max_len}"


def pullback_summary(r):
    return {
        "passed": r.passed,
        "parity_mismatches": len(r.parity_mismatches),
        "lift_checked": r.lift_checked,
        "lift_failures": len(r.lift_failures),
        "injectivity_checked": r.injectivity_checked,
        "injectivity_counterexamples": len(r.injectivity_counterexamples),
        "injectivity_unknown": len(r.injectivity_unknown),
        "product_undecided": sum(why == "product search undecided" for *_, why in r.injectivity_unknown),
        "truncated": r.truncated,
    }


def _injectivity_verdicts(s):
    """(injectivity pairs that reached a verdict-bearing check, decided):
    every product search, plus pairs whose projections stayed undecided."""
    checks = s["injectivity_checked"] + s["injectivity_unknown"] - s["product_undecided"]
    return checks, checks - s["injectivity_unknown"]


def reflexive_summary(r):
    counts = json.dumps(sorted([list(k), list(v)] for k, v in r.class_counts.items()))
    return {
        "passed": r.passed,
        "classes": hashlib.sha256(counts.encode()).hexdigest(),
        "pairing_failures": len(r.pairing_failures),
        "concat_checked": r.concat_checked,
        "concat_failures": len(r.concat_failures),
    }


def reflexive_spec(name):
    n = int(name[-1])
    return O.complete(n, loops=True) if name[-2] == "K" else O.path(n, loops=True)


def pullback_factors(ghom, left, right):
    if left == "K2xK2":
        k2 = to_graph(ghom, FACTORS["P1"])
        return ghom.product(k2, k2), k2
    return to_graph(ghom, FACTORS[left]), to_graph(ghom, FACTORS[right])


def _golden_check(golden, checks_of):
    def check(s):
        return golden is not None and s == golden, *checks_of(s)
    return check


def build_verify(ghom, seed, workdir):
    rng = random.Random(seed)
    goldens = json.loads(GOLDENS.read_text())["verify"]
    ops = []
    for left, right, max_len in PULLBACK_PAIRS:
        g, h = pullback_factors(ghom, left, right)
        golden = goldens.get(pullback_key(left, right, max_len))
        ops.append(Op(
            "pullback",
            lambda g=g, h=h, m=max_len: ghom.verify_product_pullback(g, h, m, **PULLBACK_BUDGET),
            pullback_summary,
            _golden_check(golden, _injectivity_verdicts),
        ))
    left, right, max_len = NESTED
    g, h = pullback_factors(ghom, left, right)
    ops.append(Op(
        "pullback-nested",
        lambda g=g, h=h, m=max_len: ghom.verify_product_pullback(g, h, m, **PULLBACK_BUDGET),
        pullback_summary,
        lambda s: (s["passed"] and not s["lift_failures"], 0, 0),
        known_defect="walk vertex '0' not in graph",
    ))
    for name, max_len in REFLEXIVE:
        g = to_graph(ghom, reflexive_spec(name))
        golden = goldens.get(reflexive_key(name, max_len))
        ops.append(Op(
            "reflexive",
            lambda g=g, m=max_len: ghom.verify_reflexive_split(g, m),
            reflexive_summary,
            _golden_check(golden, lambda s: (0, 0)),
        ))
    fixed = random.Random(CATALOGUE_SEED)
    squares = [_spider_square(fixed) for _ in range(NATURALITY)]
    rng.shuffle(squares)
    for i in range(0, NATURALITY, NATURALITY_BATCH):
        ops.append(_naturality_op(ghom, squares[i:i + NATURALITY_BATCH]))
    rng.shuffle(ops)
    return ops


def _spider_square(rng):
    """Criterion 10's construction: phi includes a random subgraph of a
    random target, psi moves one vertex by a spider move, alpha is a short
    walk.  The square commutes up to homotopy, so Distinct is wrong."""
    while True:
        tsp = O.gnp(rng, rng.randint(3, 4), 0.5, "target")
        if rng.random() < 0.3:
            tsp = O.Spec(tsp.name, tsp.vertices, tsp.edges + tuple((v, v) for v in tsp.vertices))
        keep = [v for v in tsp.vertices if rng.random() < 0.75] or [tsp.vertices[0]]
        ssp = O.Spec("source", tuple(keep), tuple(e for e in tsp.edges if set(e) <= set(keep)))
        sadj, tadj = ssp.adjacency(), tsp.adjacency()
        if any(not sadj[v] for v in keep):
            continue
        phi = {v: v for v in keep}
        moves = [(x, y) for x in keep for y in tsp.vertices
                 if y != x and O.is_morphism(ssp, tadj, dict(phi, **{x: y}))
                 and (x not in ssp.looped() or y in tadj[x])]
        if moves:
            break
    x, y = rng.choice(moves)
    alpha = O.random_walk(rng, sadj, rng.choice(keep), rng.randint(2, 4))
    return ssp, tsp, phi, dict(phi, **{x: y}), alpha


def _naturality_op(ghom, squares):
    built = []
    for ssp, tsp, phi, psi, alpha in squares:
        sg, tg = to_graph(ghom, ssp), to_graph(ghom, tsp)
        built.append((ghom.Morphism(sg, tg, phi), ghom.Morphism(sg, tg, psi), ghom.Walk(sg, alpha)))

    def call():
        return [ghom.naturality_square(phi, psi, alpha, max_states=NATURALITY_MAX_STATES)
                for phi, psi, alpha in built]

    def check(s):
        return all(verdict != "Distinct" for verdict, _ in s), 0, 0

    return Op("naturality", call, lambda ds: [_decision_summary(d) for d in ds], check)


WORKLOADS = {"decide": build_decide, "present": build_present, "hom": build_hom, "verify": build_verify}
