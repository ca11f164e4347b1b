import os
import random
import subprocess
import sys
from itertools import product as iproduct
from pathlib import Path

import pytest

from ghom import (
    Graph,
    GuardExceeded,
    Morphism,
    Verdict,
    Walk,
    cycle_graph,
    identity_morphism,
    naturality_square,
    parse_walk,
    path_graph,
    product,
    prune_normalize,
    terminal_graph,
    verify_product_pullback,
    verify_reflexive_split,
    walk,
    walks_homotopic,
)
from ghom import homotopy, verify
from ghom.homotopy import DEFAULT_MAX_STATES, _morphism_successors, replay_walk_certificate
from ghom.graphs import _move_table, _walk_names, _walk_string, _walk_table
from ghom.verify import (
    _SPLIT_CONCAT_SAMPLES,
    _SPLIT_SEED,
    _SPLIT_SLACK,
    ProductPullbackReport,
    ReflexiveSplitReport,
    _ClassVerdicts,
    _WalkClasses,
    _concat_sample,
    parity_reachable,
)
from ghom.groupoid import abelianized_for_walkseq
from ghom.walks import _pruned, concat, induced_walk
from conftest import random_graph, random_walk_seq, spider_squares


def test_parity_reachable_on_p2():
    r = parity_reachable(path_graph(2))
    assert ("0", "1", 1) in r and ("0", "1", 0) not in r
    assert ("0", "2", 0) in r and ("0", "2", 1) not in r
    assert ("0", "0", 0) in r and ("0", "0", 1) not in r


def test_parity_reachable_odd_cycle():
    r = parity_reachable(cycle_graph(5))
    # odd cycle: both parities reachable between any two vertices
    assert all((u, v, p) in r for u in "01234" for v in "01234" for p in (0, 1))


def reference_parity_reachable(g):
    """`parity_reachable` as it was before it searched the double cover:
    one breadth-first search per start vertex over (vertex, parity) states,
    by vertex name."""
    out = set()
    for u in g.vertices:
        seen, frontier = {(u, 0)}, [(u, 0)]
        while frontier:
            nxt = []
            for x, p in frontier:
                for w in g.neighbors(x):
                    if (w, 1 - p) not in seen:
                        seen.add((w, 1 - p))
                        nxt.append((w, 1 - p))
            frontier = nxt
        out.update((u, v, p) for v, p in seen)
    return frozenset(out)


def test_parity_reachable_matches_the_per_start_reference():
    empty = Graph([], [])
    assert parity_reachable(empty) == reference_parity_reachable(empty) == frozenset()
    rng = random.Random(61)
    split = looped = isolated = bipartite = 0
    for _ in range(300):
        # vertices in shuffled name order, each in one of up to three blocks
        # with edges inside a block only, or isolated (block None)
        names = [f"v{k}" for k in rng.sample(range(60), rng.randint(1, 12))]
        blocks = rng.randint(1, 3)
        block = {v: None if rng.random() < 0.15 else rng.randrange(blocks) for v in names}
        density = rng.uniform(0.2, 0.7)
        edges = [(u, v) for i, u in enumerate(names) for v in names[i + 1:]
                 if block[u] is not None and block[u] == block[v] and rng.random() < density]
        edges += [(v, v) for v in names if block[v] is not None and rng.random() < 0.15]
        g = Graph(names, edges)
        got = parity_reachable(g)
        assert got == reference_parity_reachable(g), (g.vertices, g.edges)
        split += len(g.components()) > 1
        looped += bool(g.looped_vertices())
        isolated += any(not g.neighbors(v) for v in g.vertices)
        bipartite += any((u, u, 1) not in got for u in g.vertices if g.neighbors(u))
    assert min(split, looped, isolated, bipartite) > 50, (split, looped, isolated, bipartite)


def test_product_pullback_p2_k2():
    rep = verify_product_pullback(path_graph(2), path_graph(1), 6)
    assert rep.passed
    assert not rep.parity_mismatches and not rep.lift_failures
    assert rep.arrow_exists("0|0", "1|1", parity=1)
    assert rep.arrow_exists("0|0", "2|0", parity=0)
    assert not rep.arrow_exists("0|0", "1|0")


def test_product_pullback_k2_k2_components():
    rep = verify_product_pullback(path_graph(1), path_graph(1), 4)
    assert rep.passed
    assert len(rep.graph_product.components()) == 2
    assert not rep.arrow_exists("0|0", "0|1")


@pytest.mark.parametrize("source, target", [("0|0", "nope"), ("nope", "0|0"), ("0", "1")])
def test_arrow_exists_refuses_a_vertex_the_product_lacks(source, target):
    rep = verify_product_pullback(path_graph(2), path_graph(1), 2)
    with pytest.raises(ValueError, match="not in graph"):
        rep.arrow_exists(source, target)


@pytest.mark.parametrize("parity", [2, -1, "1", True, False, 1.0])
def test_arrow_exists_refuses_a_parity_other_than_0_or_1(parity):
    rep = verify_product_pullback(path_graph(2), path_graph(1), 2)
    with pytest.raises(ValueError, match="parity must be 0 or 1"):
        rep.arrow_exists("0|0", "1|1", parity=parity)


@pytest.mark.parametrize("nested", ["left", "right"])
def test_product_pullback_nested_factor(nested):
    # factor tokens contain '|', so projections cannot split product tokens
    k2 = path_graph(1)
    g, h = (product(k2, k2), k2) if nested == "left" else (k2, product(k2, k2))
    rep = verify_product_pullback(g, h, 3)
    assert rep.passed
    assert rep.lift_checked and not rep.lift_failures


def test_product_pullback_walk_cap():
    with pytest.raises(GuardExceeded):
        verify_product_pullback(path_graph(2), path_graph(1), 6, walk_cap=5)


def test_product_pullback_terminal_factor(example42):
    rep = verify_product_pullback(terminal_graph(), example42, 4)
    assert rep.passed


def test_product_pullback_seeded_random_pairs():
    rng = random.Random(101)
    for _ in range(3):
        g = random_graph(rng, rng.randint(2, 4), no_isolated=True)
        h = random_graph(rng, rng.randint(2, 4), no_isolated=True)
        rep = verify_product_pullback(g, h, 4, pair_budget=30_000)
        assert not rep.parity_mismatches
        assert not rep.lift_failures
        assert not rep.injectivity_counterexamples


# -- reference: the all-pairs injectivity loop ------------------------------------


def ref_normal_walks(g, max_len, max_count):
    """The token-level walk lister: all prune-normal walks up to max_len, by
    start vertex then extension order."""
    out = []
    stack = [(v,) for v in reversed(g.vertices)]
    while stack:
        seq = stack.pop()
        out.append(seq)
        if len(out) > max_count:
            raise GuardExceeded(f"more than {max_count} normal walks at max_len {max_len}")
        if len(seq) - 1 < max_len:
            for w in reversed(g.neighbors(seq[-1])):
                if len(seq) >= 2 and w == seq[-2]:
                    continue
                stack.append(seq + (w,))
    return out


def ref_tail_extend(g, seq, target_len):
    """The token-level tail extension: repeat the last two vertices (a
    length-0 walk borrows its least neighbor); None if impossible."""
    if (target_len - (len(seq) - 1)) % 2 != 0:
        raise ValueError("tail extension preserves parity")
    while len(seq) - 1 < target_len:
        if len(seq) == 1:
            nbrs = g.neighbors(seq[0])
            if not nbrs:
                return None
            seq = seq + (nbrs[0], seq[0])
        else:
            seq = seq + (seq[-2], seq[-1])
    return seq


def reference_product_pullback(g, h, max_len, pair_budget=200_000, walk_cap=50_000,
                               max_states=DEFAULT_MAX_STATES):
    """verify_product_pullback as it was before injectivity verdicts were
    closed under transitivity: every pair of projections and every product
    pair is searched once, memoized per exact pair only."""
    p = product(g, h)
    report = ProductPullbackReport(g, h, p)
    # product declares its vertices in this order; a factor's own tokens may
    # contain '|', so product tokens are never split or joined here
    coords = dict(zip(p.vertices, iproduct(g.vertices, h.vertices)))
    token = {c: t for t, c in coords.items()}

    def project(seq: tuple[str, ...], k: int) -> tuple[str, ...]:
        return tuple(coords[t][k] for t in seq)

    reach_g, reach_h, reach_p = parity_reachable(g), parity_reachable(h), parity_reachable(p)
    report._reach_product = reach_p
    for gu in g.vertices:
        for gv in g.vertices:
            for hu in h.vertices:
                for hv in h.vertices:
                    for par in (0, 1):
                        lhs = (token[gu, hu], token[gv, hv], par) in reach_p
                        rhs = (gu, gv, par) in reach_g and (hu, hv, par) in reach_h
                        if lhs != rhs:
                            report.parity_mismatches.append(((gu, hu), (gv, hv), par, lhs, rhs))

    walks_g = ref_normal_walks(g, max_len, walk_cap)
    walks_h = ref_normal_walks(h, max_len, walk_cap)
    budget = pair_budget
    for wg in walks_g:
        for wh in walks_h:
            if (len(wg) - len(wh)) % 2 != 0:
                continue
            if budget <= 0:
                report.truncated = True
                break
            budget -= 1
            report.lift_checked += 1
            target = max(len(wg), len(wh)) - 1
            eg = ref_tail_extend(g, wg, target)
            eh = ref_tail_extend(h, wh, target)
            if eg is None or eh is None:
                report.lift_failures.append((wg, wh, "tail extension impossible"))
                continue
            prod_seq = tuple(token[c] for c in zip(eg, eh))
            try:
                omega = Walk(p, prod_seq)
            except ValueError:
                report.lift_failures.append((wg, wh, "lift is not a walk"))
                continue
            if (
                prune_normalize(Walk(g, project(omega.seq, 0))).seq != wg
                or prune_normalize(Walk(h, project(omega.seq, 1))).seq != wh
            ):
                report.lift_failures.append((wg, wh, "projection does not recover the pair"))
        if report.truncated:
            break

    walks_p = ref_normal_walks(p, max_len, walk_cap)
    by_endpoints: dict[tuple[str, str], list[tuple[str, ...]]] = {}
    for w in walks_p:
        by_endpoints.setdefault((w[0], w[-1]), []).append(w)

    # projection pairs repeat heavily across product pairs: memoize verdicts
    decision_cache: dict = {}

    def decide(graph, s1, s2):
        key = (graph is g, s1, s2) if s1 <= s2 else (graph is g, s2, s1)
        if key not in decision_cache:
            decision_cache[key] = walks_homotopic(
                Walk(graph, s1), Walk(graph, s2), max_states=max_states
            )
        return decision_cache[key]

    # its own budget: a truncated lift phase does not cut it short
    budget, cut = pair_budget, False
    for key in sorted(by_endpoints):
        group = by_endpoints[key]
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                wa, wb = group[i], group[j]
                if (len(wa) - len(wb)) % 2 != 0:
                    continue
                if budget <= 0:
                    report.truncated = cut = True
                    break
                budget -= 1
                pa = decide(g, project(wa, 0), project(wb, 0))
                pb = decide(h, project(wa, 1), project(wb, 1))
                if pa.verdict is Verdict.DISTINCT or pb.verdict is Verdict.DISTINCT:
                    continue
                if pa.verdict is Verdict.UNKNOWN or pb.verdict is Verdict.UNKNOWN:
                    report.injectivity_unknown.append((wa, wb, "projection undecided"))
                    continue
                report.injectivity_checked += 1
                dec = walks_homotopic(Walk(p, wa), Walk(p, wb), max_states=max_states)
                if dec.verdict is Verdict.DISTINCT:
                    report.injectivity_counterexamples.append((wa, wb, dec.certificate))
                elif dec.verdict is Verdict.UNKNOWN:
                    report.injectivity_unknown.append((wa, wb, "product search undecided"))
            if cut:
                break
        if cut:
            break
    return report


STAR = Graph("abcd", [("a", "b"), ("a", "c"), ("a", "d")])
PAW = Graph("abcd", [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")])
# (max_len, keyword budgets): criterion 7's random pairs, the bench pairs,
# and a state cap small enough that many searches end Unknown
INJECTIVITY_SETTINGS = [
    (4, {"pair_budget": 30_000}),
    (5, {"pair_budget": 4_000, "max_states": 15_000}),
    (4, {"max_states": 40}),
]


def _undecided_pairs(report, why=None):
    return [(wa, wb) for wa, wb, reason in report.injectivity_unknown if why in (None, reason)]


def _is_subsequence(short, long):
    rest = iter(long)
    return all(item in rest for item in short)


def assert_matches_reference(g, h, max_len, **budgets):
    """The class-closed injectivity loop against the all-pairs reference.

    Everything but the undecided pairs is equal.  A pair the reference left
    undecided may be decided now, by transitivity; a pair whose projections
    were undecided and now are Equal reaches the product check, so
    injectivity_checked grows by exactly those pairs."""
    new = verify_product_pullback(g, h, max_len, **budgets)
    ref = reference_product_pullback(g, h, max_len, **budgets)
    assert new.parity_mismatches == ref.parity_mismatches
    assert (new.lift_checked, new.lift_failures) == (ref.lift_checked, ref.lift_failures)
    assert new.truncated == ref.truncated
    assert new.injectivity_counterexamples == ref.injectivity_counterexamples
    if not ref.injectivity_unknown:
        assert new.injectivity_unknown == []
        assert new.injectivity_checked == ref.injectivity_checked
        return new, ref
    projection = "projection undecided"
    assert _is_subsequence(_undecided_pairs(new), _undecided_pairs(ref))
    assert set(_undecided_pairs(new, projection)) <= set(_undecided_pairs(ref, projection))
    upgraded = set(_undecided_pairs(ref, projection)) - set(_undecided_pairs(new, projection))
    assert new.injectivity_checked == ref.injectivity_checked + len(upgraded)
    return new, ref


K2XK2 = product(path_graph(1), path_graph(1))


@pytest.mark.parametrize("g, h, max_len", [
    (cycle_graph(3), cycle_graph(4), 3),
    (cycle_graph(3), STAR, 3),
    (path_graph(2), cycle_graph(4), 4),
    (path_graph(2), PAW, 4),
    (K2XK2, cycle_graph(4), 3),
    (cycle_graph(4), K2XK2, 3),
    # 272 product vertices: declaration indices past 255 in walk strings
    (cycle_graph(16), cycle_graph(17), 2),
], ids=["C3xC4", "C3xS3", "P2xC4", "P2xpaw", "(K2xK2)xC4", "C4x(K2xK2)", "C16xC17"])
def test_product_pullback_matches_reference_on_bench_pairs(g, h, max_len):
    new, ref = assert_matches_reference(g, h, max_len, pair_budget=4_000, max_states=15_000)
    assert new.injectivity_checked and not ref.injectivity_unknown


def test_product_pullback_matches_reference_with_isolated_vertices():
    # a length-0 walk at an isolated vertex cannot be tail-extended, so
    # lift failures are named and compared entry by entry
    rng = random.Random(702)
    named = 0
    # first, on either side, an isolated vertex sharing declaration index 0
    # with a vertex of the other factor that has neighbors: each factor's
    # tail extensions are its own
    zp2 = Graph(("z", "0", "1", "2"), [("0", "1"), ("1", "2")])
    pairs = [(zp2, path_graph(2)), (path_graph(2), zp2)]
    for _ in range(12):
        g = random_graph(rng, rng.randint(1, 3), p=0.4)
        h = random_graph(rng, rng.randint(2, 3), p=0.5)
        pairs.append((Graph(g.vertices + ("z",), g.edges), h))
    for g, h in pairs:
        new, ref = assert_matches_reference(g, h, 3, pair_budget=4_000, max_states=15_000)
        named += len(new.lift_failures)
    assert named


@pytest.mark.parametrize("max_len, budgets", INJECTIVITY_SETTINGS)
def test_product_pullback_matches_reference_on_random_pairs(max_len, budgets):
    rng = random.Random(700)
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 4), p=0.4, no_isolated=True)
        h = random_graph(rng, rng.randint(2, 4), p=0.4, no_isolated=True)
        assert_matches_reference(g, h, max_len, **budgets)


def test_product_pullback_upgrades_are_equal():
    # criterion 7's random pairs under a small state cap: every pair the
    # reference left undecided and the class-closed loop decides is Equal
    # by a direct search at the default state cap
    rng = random.Random(700)
    upgraded = 0
    for _ in range(5):
        g = random_graph(rng, rng.randint(2, 5), p=0.4, no_isolated=True)
        h = random_graph(rng, rng.randint(2, 5), p=0.4, no_isolated=True)
        new, ref = assert_matches_reference(g, h, 4, max_states=40)
        p = new.graph_product
        for wa, wb in set(_undecided_pairs(ref)) - set(_undecided_pairs(new)):
            upgraded += 1
            assert walks_homotopic(Walk(p, wa), Walk(p, wb)).verdict is Verdict.EQUAL
    assert upgraded


def _unjoined_verdicts(g, walks, max_states):
    """A verdict table over the walk strings `walks` whose classes start
    apart, so that every pair goes to the invariants and the search."""
    return _ClassVerdicts(g, max_states, _WalkClasses(list(walks)))


def test_class_verdicts_close_equal_and_distinct_but_not_unknown():
    # two 5-cycles through 0: the commutator of the loops a and b is not
    # null-homotopic, and no invariant separates it from the trivial walk
    g = Graph("012345678", [("0", "1"), ("1", "2"), ("2", "3"), ("3", "4"), ("4", "0"),
                            ("0", "5"), ("5", "6"), ("6", "7"), ("7", "8"), ("8", "0")])
    a, b = tuple("012340"), tuple("056780")
    comm = a + b[1:] + a[-2::-1] + b[-2::-1]
    comm2 = comm[:3] + ("1", "2") + comm[3:]
    a2 = a[:2] + ("0", "1") + a[2:]
    trivial = ("0",)
    cv = _unjoined_verdicts(g, [_walk_string(g, w) for w in (comm, comm2, a, a2, trivial)], max_states=200)
    expected = [
        ((comm, trivial), Verdict.UNKNOWN, 1),
        ((trivial, comm), Verdict.UNKNOWN, 1),  # memoized per exact pair
        ((comm, comm2), Verdict.EQUAL, 2),
        ((comm2, trivial), Verdict.UNKNOWN, 3),  # a bound, not a class property
        ((comm2, comm), Verdict.EQUAL, 3),
        ((a, a2), Verdict.EQUAL, 4),
        ((trivial, a), Verdict.DISTINCT, 5),
        ((a2, trivial), Verdict.DISTINCT, 5),  # memoized per pair of classes
    ]
    for (s1, s2), verdict, searches in expected:
        i1, i2 = cv.classes.ids[_walk_string(g, s1)], cv.classes.ids[_walk_string(g, s2)]
        assert (cv.verdict(i1, i2), cv.searches) == (verdict, searches), (s1, s2)


def _two_pentagons():
    # two 5-cycles through 0, walks a (once round the first), a2 (a with a
    # backtrack) and b (once round the second), as walk strings
    g = Graph("012345678", [("0", "1"), ("1", "2"), ("2", "3"), ("3", "4"), ("4", "0"),
                            ("0", "5"), ("5", "6"), ("6", "7"), ("7", "8"), ("8", "0")])
    a, b = _walk_string(g, "012340"), _walk_string(g, "056780")
    return g, a, a[:2] + _walk_string(g, "01") + a[2:], b


def test_class_verdicts_separate_by_residue_without_search(monkeypatch):
    import ghom.homotopy as homotopy

    calls = []
    search = homotopy._bidirectional_search

    def counted(*args):
        calls.append(args[1:3])
        return search(*args)

    monkeypatch.setattr(homotopy, "_bidirectional_search", counted)
    g, a, a2, b = _two_pentagons()
    cv = _unjoined_verdicts(g, (a, a2, b), max_states=200)
    ia, ia2, ib = 0, 1, 2
    # a and b have the same endpoints and parity; only the residue tells them apart
    assert (cv.verdict(ia, ib), cv.searches, calls) == (Verdict.DISTINCT, 1, [])
    assert (cv.verdict(ia, ia2), cv.searches, calls) == (Verdict.EQUAL, 2, [(a, a2)])
    assert (cv.verdict(ia2, ib), cv.searches, len(calls)) == (Verdict.DISTINCT, 2, 1)


def test_class_verdicts_keep_one_invariant_per_class_root():
    g, a, a2, b = _two_pentagons()
    a3 = a2[:4] + _walk_string(g, "21") + a2[4:]
    cv = _unjoined_verdicts(g, (a, a2, a3, b), max_states=2_000)
    ids = cv.classes.ids
    for s1, s2 in [(a, a2), (a2, a3), (b, a3), (a3, a)]:
        cv.verdict(ids[s1], ids[s2])
    roots = {cv.classes.find(ids[w]) for w in (a, a2, a3, b)}
    assert len(roots) == 2 and set(cv.invariants) == roots
    assert cv.invariant(cv.classes.find(ids[a3]))[:3] == ("0", "0", 0)


@pytest.mark.parametrize("left, right, max_len", [
    ("C3", "C4", 3), ("C3", "S3", 3), ("P2", "C4", 4), ("P2", "paw", 4),
])
def test_index_residues_match_token_residues(left, right, max_len, monkeypatch):
    # every walk of the pullback's three verdict tables after the report,
    # at the benchmark's budgets: the residue summed off the index walk
    # equals the residue of the walk's reduced word, and each walk's
    # invariants are its class root's
    graphs = {
        "C3": cycle_graph(3), "C4": cycle_graph(4), "P2": path_graph(2),
        "S3": Graph("abcd", [("a", "b"), ("a", "c"), ("a", "d")]),
        "paw": Graph("abcd", [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")]),
    }
    invariant = _ClassVerdicts.invariant
    keyed = set()

    def checked(self, i):
        inv = invariant(self, i)
        seq = _walk_names(self.graph, self.classes.walks[i])
        assert inv[3] == abelianized_for_walkseq(self.graph, seq[0], False).residue(seq), seq
        keyed.add((id(self), i))
        return inv

    monkeypatch.setattr(_ClassVerdicts, "invariant", checked)
    tables = _kept_verdict_tables(monkeypatch)
    verify_product_pullback(graphs[left], graphs[right], max_len, pair_budget=4_000, max_states=15_000)
    assert len(tables) == 3
    for cv in tables:
        for i in range(len(cv.classes.walks)):
            assert cv.invariant(i) == cv.invariant(cv.classes.find(i))
    assert len(keyed) > 300


def test_truncated_lift_phase_leaves_injectivity_its_budget():
    # the lift phase runs out of its 200 pairs; the injectivity phase still
    # checks its own 200, not only the pairs of the first product walk
    new, _ = assert_matches_reference(cycle_graph(3), cycle_graph(4), 3, pair_budget=200)
    assert new.truncated and new.lift_checked == 200
    assert new.injectivity_checked == 136


def test_tail_extend_matches_reference():
    # the report zips the two extensions, so one that runs past the target
    # would not show there
    for g in (cycle_graph(4), STAR, Graph(("0", "1", "z"), [("0", "1")])):
        nbrs = _walk_table(g, False).vias
        for seq in ref_normal_walks(g, 3, 1_000):
            for target in range(len(seq) - 1, 8, 2):
                want = ref_tail_extend(g, seq, target)
                got = verify._tail_extend(nbrs, _walk_string(g, seq), target)
                assert got == (want and _walk_string(g, want)), (seq, target)


def test_product_pullback_refuses_negative_pair_budget():
    with pytest.raises(ValueError, match="pair_budget must be nonnegative"):
        verify_product_pullback(cycle_graph(3), cycle_graph(4), 3, pair_budget=-1)


def test_product_pullback_refuses_negative_walk_cap():
    # a negative cap is a bad argument, not a guard that fired
    with pytest.raises(ValueError, match="walk_cap must be nonnegative"):
        verify_product_pullback(cycle_graph(3), cycle_graph(4), 3, walk_cap=-1)


@pytest.mark.parametrize("max_states", [0, -1])
def test_product_pullback_refuses_nonpositive_max_states(max_states):
    # with no state to search, every pair would be undecided and the report
    # would still pass
    with pytest.raises(ValueError, match="max_states must be positive"):
        verify_product_pullback(cycle_graph(3), cycle_graph(4), 3, max_states=max_states)


# report entries in a fresh interpreter: a product pair whose isolated
# vertex names lift failures and whose small state cap leaves pairs
# undecided, and a reflexive graph whose classes do not pair up
REPORTS_SCRIPT = """
from ghom import Graph, cycle_graph, verify, verify_product_pullback, verify_reflexive_split

c4z = Graph(cycle_graph(4).vertices + ("z",), cycle_graph(4).edges)
# the bounded classes join every pair this pullback checks; with them off,
# each pair goes to the product search, which its state cap leaves undecided
bounded = verify._bounded_classes
verify._bounded_classes = lambda table, universe: verify._WalkClasses(universe)
pb = verify_product_pullback(c4z, cycle_graph(3), 3, max_states=20)
verify._bounded_classes = bounded
split = verify_reflexive_split(Graph(("v3", "v1", "v2", "v0"), [
    ("v0", "v0"), ("v1", "v0"), ("v1", "v1"), ("v1", "v2"), ("v2", "v2"),
    ("v3", "v0"), ("v3", "v1"), ("v3", "v2"), ("v3", "v3"),
]), 1)
print(repr((pb.parity_mismatches, pb.lift_failures, pb.injectivity_checked, pb.injectivity_counterexamples,
            pb.injectivity_unknown, pb.truncated)))
print(repr((list(split.class_counts.items()), split.pairing_failures, split.concat_failures)))
"""


def test_report_entries_independent_of_hash_seed():
    src = str(Path(verify.__file__).resolve().parent.parent)
    out = {}
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run([sys.executable, "-c", REPORTS_SCRIPT], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        out[seed] = proc.stdout
    assert out["1"] == out["2"]
    for entry in ("tail extension impossible", "product search undecided", "class counts differ"):
        assert entry in out["1"]


def _kept_verdict_tables(monkeypatch):
    """The _ClassVerdicts the next reports build, in the order they are built."""
    tables = []
    init = _ClassVerdicts.__init__

    def kept(self, *args, **kwargs):
        init(self, *args, **kwargs)
        tables.append(self)

    monkeypatch.setattr(_ClassVerdicts, "__init__", kept)
    return tables


def _never(*args, **kwargs):
    raise AssertionError("called where no call was expected")


def test_product_pullback_counts_searches(monkeypatch):
    tables = _kept_verdict_tables(monkeypatch)
    rep = verify_product_pullback(cycle_graph(3), cycle_graph(4), 3)
    assert rep.injectivity_checked == 1_128 and not rep.injectivity_unknown
    assert (rep.product_searches, rep.factor_searches) == (0, 3)
    # the bounded classes joined every checked pair, so no product
    # invariant was computed
    left, right, prod = tables
    assert prod.invariants == {} and not prod.distinct and not prod.unknown


BENCH_FACTORS = {
    "P1": path_graph(1), "P2": path_graph(2), "C3": cycle_graph(3), "C4": cycle_graph(4),
    "C5": cycle_graph(5), "paw": PAW, "S3": STAR,
}
# the benchmark's pullback pairs, (left, right, max_len), at its budgets
BENCH_PULLBACKS = tuple((a, b, 4) for a in ("P1", "P2") for b in ("C3", "C4", "C5", "paw", "S3", "P2")) + (
    ("C3", "S3", 3), ("C4", "S3", 3), ("C3", "C4", 3), ("C5", "S3", 3), ("C3", "C3", 3), ("C3", "C5", 3))
BENCH_BUDGET = {"pair_budget": 4_000, "max_states": 15_000}


def _bench_pullback(left, right, max_len):
    return verify_product_pullback(BENCH_FACTORS[left], BENCH_FACTORS[right], max_len, **BENCH_BUDGET)


def test_bench_pullbacks_run_no_product_search():
    # a work guard: the bounded classes of the product's normal walks hold
    # every pair the benchmark's pullbacks check
    reports = [_bench_pullback(*pair) for pair in BENCH_PULLBACKS]
    assert sum(rep.injectivity_checked for rep in reports) == 6_012
    assert sum(rep.product_searches for rep in reports) == 0


def _report_fields(rep):
    return (rep.parity_mismatches, rep.lift_checked, rep.lift_failures, rep.injectivity_checked,
            rep.injectivity_counterexamples, rep.injectivity_unknown, rep.truncated)


@pytest.mark.parametrize("pair", BENCH_PULLBACKS, ids=lambda pair: "{}x{}@{}".format(*pair))
def test_bench_pullbacks_match_with_the_union_off(pair, monkeypatch):
    # the bounded classes only spare searches: with them off, every pair
    # goes to the invariants and the search, and the report is the same
    on = _bench_pullback(*pair)
    monkeypatch.setattr(verify, "_bounded_classes", lambda table, universe: _WalkClasses(universe))
    off = _bench_pullback(*pair)
    assert _report_fields(off) == _report_fields(on)
    assert on.product_searches == 0
    assert bool(off.product_searches) == bool(on.injectivity_checked)


def test_product_pullback_with_an_edge_dropped_matches_reference(monkeypatch):
    # a product short of one edge fails the step pairs, so the lifts are
    # scanned one by one, and its reachability can leave the factors'
    # parity join; both phases and injectivity still match the reference
    full = product

    def dropped(g, h):
        p = full(g, h)
        return Graph(p.vertices, sorted(p.edges)[1:])

    monkeypatch.setattr(verify, "product", dropped)
    monkeypatch.setitem(globals(), "product", dropped)
    mismatched = 0
    for left, right, max_len in [("P1", "P2", 4), ("P1", "C4", 3), ("P2", "C4", 3), ("C3", "S3", 3), ("C3", "C4", 3)]:
        g, h = BENCH_FACTORS[left], BENCH_FACTORS[right]
        new = verify_product_pullback(g, h, max_len, **BENCH_BUDGET)
        ref = reference_product_pullback(g, h, max_len, **BENCH_BUDGET)
        assert new.graph_product.edges < full(g, h).edges
        assert any(why == "lift is not a walk" for *_, why in new.lift_failures)
        assert new.parity_mismatches == ref.parity_mismatches
        assert (new.lift_checked, new.lift_failures, new.truncated) == (
            ref.lift_checked, ref.lift_failures, ref.truncated)
        assert (new.injectivity_checked, new.injectivity_counterexamples, new.injectivity_unknown) == (
            ref.injectivity_checked, ref.injectivity_counterexamples, ref.injectivity_unknown)
        mismatched += len(new.parity_mismatches)
    assert mismatched


@pytest.mark.parametrize("right", ["C5", "S3", "P2"])
def test_product_pullback_without_pairs_builds_no_verdict_table(right, monkeypatch):
    # no two normal walks of P1 x right up to length 4 share endpoints and
    # parity, so no classes, verdict tables or projection keys are built
    ref = reference_product_pullback(BENCH_FACTORS["P1"], BENCH_FACTORS[right], 4, **BENCH_BUDGET)
    tables = _kept_verdict_tables(monkeypatch)
    monkeypatch.setattr(verify, "_bounded_classes", _never)
    rep = _bench_pullback("P1", right, 4)
    assert tables == []
    assert _report_fields(rep) == _report_fields(ref)
    assert (rep.injectivity_checked, rep.factor_searches, rep.product_searches) == (0, 0, 0)


def test_bench_pullbacks_lift_by_steps_and_verdict_only_split_roots(monkeypatch):
    # a work guard: no lift is built, and a verdict table is asked only
    # about pairs whose factor classes the bounded classes left apart
    monkeypatch.setattr(verify, "_lift_failure", _never)
    tables = _kept_verdict_tables(monkeypatch)
    verdict = _ClassVerdicts.verdict
    calls = []

    def counted(self, i1, i2):
        calls.append((self, self.classes.find(i1) != self.classes.find(i2)))
        return verdict(self, i1, i2)

    monkeypatch.setattr(_ClassVerdicts, "verdict", counted)
    checked = asked = 0
    for pair in BENCH_PULLBACKS:
        del tables[:], calls[:]
        rep = _bench_pullback(*pair)
        checked += rep.injectivity_checked
        asked += len(calls) // 2
        if not tables:
            assert rep.injectivity_checked == 0
            continue
        left, right, prod = tables if len(tables) == 3 else (tables[0], tables[0], tables[1])
        # the left and the right table are asked about each such pair in turn
        assert [table for table, _ in calls] == [left, right] * (len(calls) // 2), pair
        assert all(a or b for (_, a), (_, b) in zip(calls[::2], calls[1::2])), pair
        assert prod.searches == 0
    assert checked == 6_012 and asked


# -- reference: the token-level reflexive split ------------------------------------


class RefDSU:
    def __init__(self):
        self.parent = {}

    def find(self, x):
        self.parent.setdefault(x, x)
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def reference_reflexive_split(g, max_len, state_cap=400_000):
    """verify_reflexive_split as it was on vertex-token tuples, with a
    dict-backed union-find."""
    if any(not g.is_looped(v) for v in g.vertices):
        raise ValueError("reflexive splitting needs every vertex looped")
    horizon = max_len + _SPLIT_SLACK

    all_walks = []
    stack = [(v,) for v in reversed(g.vertices)]
    while stack:
        seq = stack.pop()
        all_walks.append(seq)
        if len(all_walks) > state_cap:
            raise GuardExceeded(f"move-graph universe exceeds {state_cap} walks")
        if len(seq) - 1 < horizon:
            for w in reversed(g.neighbors(seq[-1])):
                stack.append(seq + (w,))

    dsu = RefDSU()
    union = dsu.union
    spiders, index, names = _move_table(g, False).spiders, g.index, g.vertices
    for seq in all_walks:
        k = len(seq)
        for i in range(k - 2):
            if seq[i] == seq[i + 2]:
                union(seq, seq[:i] + seq[i + 2:])
        for i in range(1, k - 1):
            for x in spiders(index(seq[i - 1]), index(seq[i]), index(seq[i + 1])):
                union(seq, seq[:i] + (names[x],) + seq[i + 1:])

    report = ReflexiveSplitReport()
    bounded = {}
    rep_of = {}
    for seq in all_walks:
        root = dsu.find(seq)
        if len(seq) - 1 <= max_len:
            key = (seq[0], seq[-1], (len(seq) - 1) % 2)
            bounded.setdefault(key, set()).add(root)
            if root not in rep_of or (len(seq), seq) < (len(rep_of[root]), rep_of[root]):
                rep_of[root] = seq

    for (u, v) in sorted({(k[0], k[1]) for k in bounded}):
        evens = bounded.get((u, v, 0), set())
        odds = bounded.get((u, v, 1), set())
        report.class_counts[(u, v)] = (len(evens), len(odds))
        if len(evens) != len(odds):
            report.pairing_failures.append((u, v, "class counts differ", len(evens), len(odds)))
            continue
        image = set()
        for oc in odds:
            appended = rep_of[oc] + (v,)
            ec = dsu.find(appended)
            if ec not in evens:
                report.pairing_failures.append((u, v, "append leaves bounded even classes", rep_of[oc]))
            image.add(ec)
        if len(image) != len(odds):
            report.pairing_failures.append((u, v, "append is not injective on classes"))

    rng = random.Random(_SPLIT_SEED)
    by_start = {}
    for seq in all_walks:
        if len(seq) - 1 <= max_len:
            by_start.setdefault(seq[0], []).append(seq)
    composable = [
        (a, b)
        for a in all_walks
        if len(a) - 1 <= max_len
        for b in by_start.get(a[-1], ())
        if (len(a) - 1) + (len(b) - 1) <= max_len and len(a) + len(b) > 2
    ]
    rng.shuffle(composable)

    def evenize(w):
        return Walk(g, w.seq + (w.seq[-1],)) if w.length % 2 else w

    for (a, b) in composable[:_SPLIT_CONCAT_SAMPLES]:
        wa, wb = Walk(g, a), Walk(g, b)
        lhs = evenize(concat(wa, wb))
        rhs = concat(evenize(wa), evenize(wb))
        dec = walks_homotopic(lhs, rhs)
        report.concat_checked += 1
        if dec.verdict is not Verdict.EQUAL:
            report.concat_failures.append((a, b, dec.verdict.value))
    return report


def _failures_by_endpoints(report):
    # the reference lists one endpoint pair's append failures in the order
    # of a set of token tuples, which varies with the hash seed
    return sorted(report.pairing_failures, key=repr)


def assert_split_matches_reference(g, max_len):
    new, ref = verify_reflexive_split(g, max_len), reference_reflexive_split(g, max_len)
    assert list(new.class_counts.items()) == list(ref.class_counts.items())
    assert _failures_by_endpoints(new) == _failures_by_endpoints(ref)
    assert (new.concat_checked, new.concat_failures) == (ref.concat_checked, ref.concat_failures)
    return new


def _looped(g):
    return Graph(g.vertices, list(g.edges) + [(v, v) for v in g.vertices])


BENCH_REFLEXIVE = (
    (_looped(path_graph(1)), 6),
    (_looped(path_graph(2)), 4),
    (_looped(Graph("012", [("0", "1"), ("1", "2"), ("0", "2")])), 4),
    (terminal_graph(), 6),
)


@pytest.mark.parametrize("g, max_len", BENCH_REFLEXIVE, ids=["looped P1", "looped P2", "looped K3", "looped P0"])
def test_reflexive_split_matches_reference_on_bench_graphs(g, max_len):
    assert assert_split_matches_reference(g, max_len).passed


def test_reflexive_split_runs_no_walk_search(monkeypatch):
    # every question, the concatenation pairs included, is answered from
    # the classes the report unions
    want = [reference_reflexive_split(g, max_len) for g, max_len in BENCH_REFLEXIVE]

    def refuse(*args, **kwargs):
        raise AssertionError("the reflexive split ran a walk search")

    monkeypatch.setattr(verify, "walks_homotopic", refuse)
    monkeypatch.setattr(verify, "_walk_search", refuse)
    for (g, max_len), ref in zip(BENCH_REFLEXIVE, want):
        got = verify_reflexive_split(g, max_len)
        assert list(got.class_counts.items()) == list(ref.class_counts.items())
        assert (got.concat_checked, got.passed) == (ref.concat_checked, ref.passed)
        assert got.passed


def test_concat_sides_share_a_bounded_class():
    # both sides of a sampled pair have length <= max_len + 2 and differ
    # only by loop steps, so the classes have joined them, and the walk
    # search agrees
    def evenize(w):
        return Walk(w.graph, w.seq + (w.seq[-1],)) if w.length % 2 else w

    rng = random.Random(727)
    pairs = 0
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 5), p=0.35, loops=True)
        vs = list(g.vertices)
        rng.shuffle(vs)
        g = Graph(vs, g.edges)
        max_len = rng.randint(0, 5)
        table = _walk_table(g, False)
        universe = verify._walk_list(table.vias, max_len + _SPLIT_SLACK, False, 400_000, "")
        classes = verify._bounded_classes(table, universe)
        for a, b in _concat_sample(universe, max_len, _SPLIT_CONCAT_SAMPLES, random.Random(_SPLIT_SEED)):
            wa, wb = Walk(g, _walk_names(g, a)), Walk(g, _walk_names(g, b))
            lhs, rhs = evenize(concat(wa, wb)), concat(evenize(wa), evenize(wb))
            roots = {classes.find(classes.ids[_walk_string(g, w.seq)]) for w in (lhs, rhs)}
            assert len(roots) == 1, (g, max_len, a, b)
            assert walks_homotopic(lhs, rhs).verdict is Verdict.EQUAL, (g, max_len, a, b)
            pairs += 1
    assert pairs > 4_000


def test_reflexive_split_matches_reference_on_random_graphs():
    # declaration order is shuffled so that index order and token order
    # differ: representatives are the least by (length, token tuple)
    rng = random.Random(703)
    failures = 0
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 4), p=0.5, loops=True)
        vs = list(g.vertices)
        rng.shuffle(vs)
        g = Graph(vs, g.edges)
        rep = assert_split_matches_reference(g, rng.randint(1, 3))
        failures += len(rep.pairing_failures)
    assert failures


def successor_union_classes(g, max_len):
    """The reflexive split's classes as they were first unioned: each walk of
    the universe joined to every one of its `walk_step_successors` at bound
    0, that is all of its prunes and spiders."""
    table = _walk_table(g, False)
    universe = walk_strings(table.vias, max_len + _SPLIT_SLACK)
    dsu = RefDSU()
    for seq in universe:
        for other in homotopy.walk_step_successors(table, seq, 0):
            dsu.union(seq, other)
    return universe, _partition(universe, dsu.find)


def _partition(walks, find):
    classes = {}
    for seq in walks:
        classes.setdefault(find(seq), set()).add(seq)
    return {frozenset(c) for c in classes.values()}


def test_split_classes_match_successor_union():
    # the first prune and one spider star per position join what every
    # prune and every spider joined; declaration order is shuffled, so the
    # star's least vertex is by index, not by name
    rng = random.Random(704)
    disconnected = 0
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 5), p=0.35, loops=True)
        vs = list(g.vertices)
        rng.shuffle(vs)
        g = Graph(vs, g.edges)
        max_len = rng.randint(0, 4)
        universe, want = successor_union_classes(g, max_len)
        table = _walk_table(g, False)
        assert verify._walk_list(table.vias, max_len + _SPLIT_SLACK, False, 400_000, "") == universe
        classes = verify._bounded_classes(table, universe)
        assert _partition(universe, lambda seq: classes.find(classes.ids[seq])) == want, (g, max_len)
        disconnected += not g.is_connected()
    assert disconnected


def neighbor_union_classes(table, universe):
    """Each walk of the universe joined to every walk one prune or one spider
    away; a neighbor outside the universe, which backtracks, is read
    through its prune normal form."""
    listed = set(universe)
    dsu = RefDSU()
    for seq in universe:
        dsu.find(seq)
        for other in homotopy.walk_step_successors(table, seq, 0):
            if other not in listed:
                other = "".join(_pruned(other))
                assert other in listed, (seq, other)
            dsu.union(seq, other)
    return _partition(universe, dsu.find)


def _shuffled_graphs(rng, count, loops, most=4, p=0.45):
    # declaration order is shuffled, so the star's least vertex is by
    # index, not by name
    for _ in range(count):
        g = random_graph(rng, rng.randint(1, most), p=p, loops=loops)
        vs = list(g.vertices)
        rng.shuffle(vs)
        yield Graph(vs, g.edges)


def _universes(seed):
    """(graph, walk universe) cases: every walk of looped graphs, as the
    reflexive split lists them, and the prune-normal walks of graphs with
    and without loops and of products of two graphs, as the product check
    lists them."""
    rng = random.Random(seed)
    for g in _shuffled_graphs(rng, 20, True):
        table = _walk_table(g, False)
        yield g, verify._walk_list(table.vias, rng.randint(0, 3) + _SPLIT_SLACK, False, 400_000, "")
    graphs = [*_shuffled_graphs(rng, 30, False, 6, 0.6), *_shuffled_graphs(rng, 10, True, 5, 0.5)]
    graphs += [product(*_shuffled_graphs(rng, 2, rng.random() < 0.3)) for _ in range(30)]
    for g in graphs:
        table = _walk_table(g, False)
        yield g, verify._walk_list(table.vias, rng.randint(0, 4), True, 400_000, "")


def test_bounded_classes_match_neighbor_union():
    # complete within the universe: the first prune, one spider star per
    # position and the normal forms of the members that backtrack join
    # what every prune and every spider move joins
    normal = 0
    for g, universe in _universes(711):
        table = _walk_table(g, False)
        classes = verify._bounded_classes(table, universe)
        got = _partition(universe, lambda seq: classes.find(classes.ids[seq]))
        assert got == neighbor_union_classes(table, universe), (g, universe[-1])
        normal += all(seq == "".join(_pruned(seq)) for seq in universe) and len(got) < len(universe)
    assert normal >= 15


def test_bounded_classes_join_only_homotopic_walks():
    # sound: every walk is Equal to its class root by the walk search
    joined = 0
    for g, universe in _universes(712):
        classes = verify._bounded_classes(_walk_table(g, False), universe)
        for i, seq in enumerate(universe):
            root = classes.find(i)
            if root != i:
                a, b = (Walk(g, _walk_names(g, w)) for w in (seq, universe[root]))
                assert walks_homotopic(a, b).verdict is Verdict.EQUAL, (a.seq, b.seq)
                joined += 1
    assert joined > 5_000


def walk_strings(nbrs, max_len):
    """Every walk string up to max_len, in walk order."""
    walks, stack = [], list(reversed(nbrs))
    while stack:
        seq = stack.pop()
        walks.append(seq)
        if len(seq) - 1 < max_len:
            stack.extend(seq + w for w in reversed(nbrs[seq[-1]]))
    return walks


def reference_concat_sample(walks, max_len, count, rng):
    """The concatenation sample as it was drawn: list every composable
    pair of bounded walk strings, shuffle the list, take the head."""
    by_start = {}
    for seq in walks:
        by_start.setdefault(seq[0], []).append(seq)
    composable = [
        (a, b)
        for a in walks
        for b in by_start[a[-1]]
        if (len(a) - 1) + (len(b) - 1) <= max_len and len(a) + len(b) > 2
    ]
    rng.shuffle(composable)
    return composable[:count], len(composable)


def assert_sample_matches_reference(g, max_len):
    nbrs = _walk_table(g, False).vias
    walks = walk_strings(nbrs, max_len)
    want, total = reference_concat_sample(walks, max_len, _SPLIT_CONCAT_SAMPLES, random.Random(_SPLIT_SEED))
    # the report passes its universe, which runs past max_len
    longer = walk_strings(nbrs, max_len + _SPLIT_SLACK)
    assert _concat_sample(longer, max_len, _SPLIT_CONCAT_SAMPLES, random.Random(_SPLIT_SEED)) == want
    return total


def test_concat_sample_matches_list_and_shuffle_on_bench_graphs():
    totals = [assert_sample_matches_reference(g, m) for g, m in BENCH_REFLEXIVE]
    assert totals == [1_536, 724, 1_638, 27]


def test_concat_sample_matches_list_and_shuffle_on_random_graphs():
    rng = random.Random(709)
    totals = []
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 4), p=0.5, loops=True)
        vs = list(g.vertices)
        rng.shuffle(vs)
        totals.append(assert_sample_matches_reference(Graph(vs, g.edges), rng.randint(0, 4)))
    # samples both shorter and longer than the list
    assert min(totals) < _SPLIT_CONCAT_SAMPLES < max(totals)


def test_reflexive_split_state_cap_matches_reference(looped_k2):
    size = 2 ** 10 - 2  # every walk of length <= 6 + 2 on looped K2
    for run in (verify_reflexive_split, reference_reflexive_split):
        run(looped_k2, 6, state_cap=size)
        with pytest.raises(GuardExceeded):
            run(looped_k2, 6, state_cap=size - 1)


def test_reflexive_split_requires_reflexive():
    with pytest.raises(ValueError):
        verify_reflexive_split(cycle_graph(5), 4)


def test_reflexive_split_refuses_negative_max_len():
    with pytest.raises(ValueError, match="max_len must be nonnegative"):
        verify_reflexive_split(_looped(path_graph(2)), -3)


def test_reflexive_split_refuses_negative_state_cap():
    with pytest.raises(ValueError, match="state_cap must be nonnegative"):
        verify_reflexive_split(_looped(path_graph(2)), 3, state_cap=-1)


def test_reflexive_split_terminal():
    rep = verify_reflexive_split(terminal_graph(), 6)
    assert rep.passed
    assert rep.class_counts[("v", "v")] == (1, 1)


def test_reflexive_split_looped_k2(looped_k2):
    rep = verify_reflexive_split(looped_k2, 6)
    assert rep.passed
    for key, (evens, odds) in rep.class_counts.items():
        assert evens == odds == 1


def test_reflexive_split_state_cap(looped_k2):
    with pytest.raises(GuardExceeded):
        verify_reflexive_split(looped_k2, 4, state_cap=10)


def test_naturality_square_identity_pair(example42):
    idm = identity_morphism(example42)
    alpha = parse_walk(example42, "a,c,b")
    assert naturality_square(idm, idm, alpha).verdict is Verdict.EQUAL


def test_naturality_square_fold(example42):
    idm = identity_morphism(example42)
    fold = Morphism(example42, example42, {"a": "a", "b": "a", "c": "c", "d": "d", "e": "e"})
    for text in ("a,c,b", "b,c,e", "d,a,c,b", "b,c", "c,b"):
        alpha = parse_walk(example42, text)
        assert naturality_square(idm, fold, alpha).verdict is Verdict.EQUAL


def test_naturality_square_rejects_non_spider_pair():
    c5 = cycle_graph(5)
    rot = Morphism(c5, c5, {str(i): str((i + 1) % 5) for i in range(5)})
    with pytest.raises(ValueError):
        naturality_square(identity_morphism(c5), rot, walk(c5, ["0", "1"]))


# -- naturality squares by construction ------------------------------------------


def reference_connecting_walk(phi, psi, w):
    """gamma_w as the search-backed square built it: trivial where phi and
    psi agree, else through the image of the least neighbor other than w."""
    if phi.mapping[w] == psi.mapping[w]:
        return Walk(phi.target, (phi.mapping[w],))
    nbrs = [u for u in phi.source.neighbors(w) if u != w]
    u = nbrs[0] if nbrs else w
    return Walk(phi.target, (phi.mapping[w], phi.mapping[u], psi.mapping[w]))


def reference_square_sides(phi, psi, alpha):
    lhs = concat(reference_connecting_walk(phi, psi, alpha.start), induced_walk(psi, alpha))
    rhs = concat(induced_walk(phi, alpha), reference_connecting_walk(phi, psi, alpha.end))
    return lhs, rhs


def refuse_search(*args, **kwargs):
    raise AssertionError("naturality_square ran a homotopy search")


def seeded_spider_pairs(rng, count):
    """Spider pairs drawn from the morphism space, with a walk that visits
    the moved vertex x: from x, into x, through x, or x alone.  Graphs are
    looped everywhere, nowhere, or at random vertices; phi is a few spider
    moves from an inclusion, psi one move further."""
    made = 0
    while made < count:
        share = rng.choice((0.0, 0.5, 1.0))
        h = random_graph(rng, rng.randint(2, 6), p=0.5, no_isolated=True)
        h = Graph(h.vertices, list(h.edges) + [(v, v) for v in h.vertices if rng.random() < share])
        g = h.subgraph([v for v in h.vertices if rng.random() < 0.8] or h.vertices[:1])
        if any(not g.neighbors(v) for v in g.vertices):
            continue
        src, tgt = _move_table(g, False), _move_table(h, False)
        state = tuple(map(h.index, g.vertices))
        for _ in range(rng.randint(1, 4)):
            moves = _morphism_successors(src, tgt, state)
            if not moves:
                break
            before, state = state, rng.choice(moves)
        else:
            phi = Morphism(g, h, {v: h.vertices[i] for v, i in zip(g.vertices, before)})
            psi = Morphism(g, h, {v: h.vertices[i] for v, i in zip(g.vertices, state)})
            x = next(v for v in g.vertices if phi(v) != psi(v))
            out, back = walk_from(rng, g, x), walk_from(rng, g, x)
            seq = rng.choice((out, back[::-1], back[::-1] + out[1:], (x,)))
            yield phi, psi, Walk(g, seq)
            made += 1


def walk_from(rng, g, v):
    seq = [v]
    for _ in range(rng.randint(1, 5)):
        seq.append(rng.choice(g.neighbors(seq[-1])))
    return tuple(seq)


def test_naturality_certificates_replay_and_agree_with_search(monkeypatch):
    rng = random.Random(2101)
    shapes = {"from x": 0, "into x": 0, "through x": 0, "x, x": 0, "x alone": 0}
    decided = 0
    for phi, psi, alpha in seeded_spider_pairs(rng, 400):
        with monkeypatch.context() as m:
            m.setattr(homotopy, "_bidirectional_search", refuse_search)
            d = naturality_square(phi, psi, alpha)
        lhs, rhs = reference_square_sides(phi, psi, alpha)
        assert d.verdict is Verdict.EQUAL
        assert replay_walk_certificate(lhs, d.certificate) == rhs
        searched = walks_homotopic(lhs, rhs, max_states=20_000)
        assert searched.verdict is not Verdict.DISTINCT, (phi, psi, alpha.seq)
        decided += searched.verdict is Verdict.EQUAL
        x = next(v for v in phi.source.vertices if phi(v) != psi(v))
        seq = alpha.seq
        shapes["from x"] += len(seq) > 1 and seq[0] == x
        shapes["into x"] += len(seq) > 1 and seq[-1] == x
        shapes["through x"] += x in seq[1:-1]
        shapes["x, x"] += (x, x) in zip(seq, seq[1:])
        shapes["x alone"] += seq == (x,)
    assert min(shapes.values()) >= 20, shapes
    assert decided >= 300


@pytest.mark.parametrize("sizes, count, seed", [((2, 6), 50, 1000), ((3, 4), 300, 2102)],
                         ids=["criterion 10", "bench-like"])
def test_naturality_square_runs_no_search(monkeypatch, sizes, count, seed):
    monkeypatch.setattr(homotopy, "_bidirectional_search", refuse_search)
    for phi, psi, alpha in spider_squares(random.Random(seed), count, sizes):
        d = naturality_square(phi, psi, alpha, max_states=200)
        lhs, rhs = reference_square_sides(phi, psi, alpha)
        assert d.verdict is Verdict.EQUAL and replay_walk_certificate(lhs, d.certificate) == rhs


def test_naturality_square_falls_back_to_search_when_replay_fails(monkeypatch):
    # x is looped and its images z, y are not adjacent, so a walk along
    # x's loop leaves a spider step next to an unturned y
    g = Graph(["x", "w"], [("x", "x"), ("x", "w")])
    h = Graph(["z", "m", "y"], [("z", "z"), ("y", "y"), ("z", "m"), ("m", "y")])
    phi = Morphism(g, h, {"x": "z", "w": "m"})
    psi = Morphism(g, h, {"x": "y", "w": "m"})
    fallbacks = []

    def counted(*args, **kwargs):
        fallbacks.append(1)
        return walks_homotopic(*args, **kwargs)

    monkeypatch.setattr(verify, "walks_homotopic", counted)
    for text, replayed in (("x,x", False), ("w,x,x,w", False), ("x,w,x,x", False), ("w,x,w", True), ("x,w", True)):
        del fallbacks[:]
        alpha = parse_walk(g, text)
        d = naturality_square(phi, psi, alpha)
        lhs, rhs = reference_square_sides(phi, psi, alpha)
        assert bool(fallbacks) is not replayed, text
        if replayed:
            assert replay_walk_certificate(lhs, d.certificate) == rhs
        else:
            assert d == walks_homotopic(lhs, rhs), text
    # the fallback's verdicts: the square need not commute here
    assert naturality_square(phi, psi, parse_walk(g, "x,x")).verdict is Verdict.DISTINCT


def test_naturality_square_rejects_mismatched_sources():
    h = cycle_graph(4)
    g = h.subgraph(["0", "1", "2"])
    phi = Morphism(h, h, {v: v for v in h.vertices})
    psi = Morphism(g, h, {v: v for v in g.vertices})
    with pytest.raises(ValueError, match="one source and one target"):
        naturality_square(phi, psi, walk(h, ["0", "1", "2", "3"]))


def test_naturality_square_rejects_mismatched_targets():
    g = path_graph(1)
    phi = Morphism(g, cycle_graph(4), {"0": "0", "1": "1"})
    psi = Morphism(g, cycle_graph(6), {"0": "0", "1": "1"})
    with pytest.raises(ValueError, match="one source and one target"):
        naturality_square(phi, psi, walk(g, ["0", "1"]))


def test_naturality_square_rejects_a_moved_vertex_without_neighbors():
    g = Graph(["a", "b", "c"], [("a", "b")])
    h = cycle_graph(4)
    phi = Morphism(g, h, {"a": "0", "b": "1", "c": "0"})
    psi = Morphism(g, h, {"a": "0", "b": "1", "c": "2"})
    with pytest.raises(ValueError, match="'c' has no neighbor"):
        naturality_square(phi, psi, walk(g, ["c"]))


def test_naturality_square_on_a_loop_only_vertex(monkeypatch):
    g = Graph(["c"], [("c", "c")])
    h = Graph(["p", "q", "r"], [("p", "p"), ("q", "q"), ("r", "r"), ("p", "q"), ("q", "r")])
    with pytest.raises(ValueError, match="only its loop"):
        naturality_square(Morphism(g, h, {"c": "p"}), Morphism(g, h, {"c": "r"}), walk(g, ["c", "c"]))
    # adjacent images are joined through the first image's own loop
    monkeypatch.setattr(homotopy, "_bidirectional_search", refuse_search)
    phi, psi = Morphism(g, h, {"c": "p"}), Morphism(g, h, {"c": "q"})
    for n in range(4):
        alpha = walk(g, ["c"] * (n + 1))
        d = naturality_square(phi, psi, alpha)
        assert replay_walk_certificate(Walk(h, ("p", "p") + ("q",) * (n + 1)), d.certificate).seq == ("p",) * (n + 2) + ("q",)


def test_naturality_square_rejects_a_walk_outside_the_source():
    g = path_graph(2)
    idm = identity_morphism(g)
    with pytest.raises(ValueError, match="source"):
        naturality_square(idm, idm, walk(cycle_graph(4), ["0", "1"]))
