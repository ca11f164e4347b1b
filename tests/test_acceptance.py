"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 9's wheel half is expected to fail: no two-fan vertex cover of
the 5-wheel can contain every diamond (the five rim windows cannot be
covered by two arcs), so the amalgamation soundness check rejects the
split and the amalgam genuinely differs from the direct computation.
"""

import contextlib
import random
import time

from ghom import (
    AbelianInvariants,
    Verdict,
    Walk,
    abelian_invariants,
    compare_thm66,
    cycle_graph,
    foldable_pairs,
    fundamental_group_presentation,
    naturality_square,
    parse_walk,
    path_forest,
    path_graph,
    prune_normalize,
    replay_walk_certificate,
    stiff_reduce,
    terminal_graph,
    van_kampen_presentation,
    verify_product_pullback,
    verify_reflexive_split,
    walk_group_presentation,
    walks_homotopic,
    word_of_walk,
)
from ghom.groupoid import abelianized_for_walkseq
from ghom.walks import apply_lprune, apply_prune
from conftest import find_isomorphism, random_graph, random_walk_seq, spider_squares


@contextlib.contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    print(f"PASS criterion {number}: {description}")


# collected (graph, walk_a, walk_b, looped, verdict) tuples for criterion 13
_DECISION_LOG = []


def _decide(g, a, b, looped=False, **kw):
    d = walks_homotopic(a, b, looped_mode=looped, **kw)
    _DECISION_LOG.append((g, a, b, looped, d))
    return d


def test_criterion_01_worked_example_certificate(example42):
    with criterion(1, "pendant-square walk pair decided Equal with replayable certificate in < 1 s"):
        t0 = time.monotonic()
        a = parse_walk(example42, "a,c,b,c,e")
        b = parse_walk(example42, "a,d,e")
        d = _decide(example42, a, b)
        elapsed = time.monotonic() - t0
        assert d.verdict is Verdict.EQUAL
        assert replay_walk_certificate(a, d.certificate) == b
        assert elapsed < 1.0


def test_criterion_02_c5_walk_group():
    with criterion(2, "C5 walk group free on one generator; orientations map to inverse words and separate"):
        c5 = cycle_graph(5)
        p = walk_group_presentation(c5, "0")
        assert len(p.generators) == 1 and not p.relators
        forest = path_forest(c5, ["0", "1", "2", "3", "4"])
        cw = parse_walk(c5, "0,1,2,3,4,0")
        ccw = parse_walk(c5, "0,4,3,2,1,0")
        w1 = word_of_walk(c5, forest, cw)
        w2 = word_of_walk(c5, forest, ccw)
        assert len(w1.letters) == 1 and w2 == w1.inverse()
        d = _decide(c5, cw, ccw)
        assert d.verdict is Verdict.DISTINCT
        assert d.certificate.invariant == "abelianization image mismatch"


def test_criterion_03_terminal_group_z2():
    with criterion(3, "terminal graph fundamental group is Z/2 (loop generator squares away)"):
        t = terminal_graph()
        p = fundamental_group_presentation(t, "v")
        assert len(p.generators) == 1 and p.generators[0].is_loop
        assert ((0, 1), (0, 1)) in {w.letters for w in p.relators}
        assert abelian_invariants(p) == AbelianInvariants(0, (2,))


def test_criterion_04_wheel_torsion(wheel):
    with criterion(4, "wheel fundamental group has torsion [2]; doubled rim loop contracts within max_len 12"):
        p = fundamental_group_presentation(wheel, "x")
        assert abelian_invariants(p) == AbelianInvariants(0, (2,))
        loop2 = parse_walk(wheel, "x,a,b,x,a,b,x")
        triv = parse_walk(wheel, "x")
        d = _decide(wheel, loop2, triv, max_len=12)
        assert d.verdict is Verdict.EQUAL
        assert replay_walk_certificate(loop2, d.certificate) == triv


def test_criterion_05_stiff_reduction(example42):
    with criterion(5, "pendant-square reduces to K2; random fold orders agree up to isomorphism (20 seeds)"):
        stiff, _ = stiff_reduce(example42)
        assert find_isomorphism(stiff, path_graph(1)) is not None
        rng = random.Random(500)

        def random_fold_order(g):
            cur = g
            while True:
                pairs = foldable_pairs(cur)
                if not pairs:
                    return cur
                x, _ = pairs[rng.randrange(len(pairs))]
                cur = cur.subgraph([v for v in cur.vertices if v != x])

        failures = 0
        for _ in range(20):
            g = random_graph(rng, rng.randint(1, 8), p=0.5, loops=rng.random() < 0.25)
            first = random_fold_order(g)
            second = random_fold_order(g)
            if find_isomorphism(first, second, cap=12) is None:
                failures += 1
            if find_isomorphism(first, stiff_reduce(g)[0], cap=12) is None:
                failures += 1
        assert failures == 0


def _random_maximal_reduction(seq, rng, looped):
    while True:
        moves = [("p", i) for i in range(len(seq) - 2) if seq[i] == seq[i + 2]]
        if looped:
            moves += [("l", i) for i in range(len(seq) - 1) if seq[i] == seq[i + 1]]
        if not moves:
            return seq
        kind, i = moves[rng.randrange(len(moves))]
        seq = apply_prune(seq, i) if kind == "p" else apply_lprune(seq, i)


def test_criterion_06_prune_confluence():
    with criterion(6, "1000 random walks, 5 reduction orders each: unique normal forms (plain and looped systems)"):
        rng = random.Random(600)
        failures = 0
        for case in range(1000):
            looped = case % 2 == 1
            g = random_graph(rng, rng.randint(2, 6), p=0.5, loops=looped, no_isolated=True)
            seq = random_walk_seq(rng, g, 20)
            w = Walk(g, seq)
            expected = prune_normalize(w, looped_mode=looped).seq
            for _ in range(5):
                if _random_maximal_reduction(seq, rng, looped) != expected:
                    failures += 1
        assert failures == 0


def test_criterion_07_product_pullback():
    with criterion(7, "product pullback verified for P2 x K2 (incl. missing-arrow example) and 5 random pairs"):
        rep = verify_product_pullback(path_graph(2), path_graph(1), 6)
        assert rep.passed
        assert not rep.arrow_exists("0|0", "1|0")
        assert rep.arrow_exists("0|0", "1|1", parity=1)
        assert rep.arrow_exists("0|0", "2|0", parity=0)
        rng = random.Random(700)
        for _ in range(5):
            g = random_graph(rng, rng.randint(2, 5), p=0.4, no_isolated=True)
            h = random_graph(rng, rng.randint(2, 5), p=0.4, no_isolated=True)
            r = verify_product_pullback(g, h, 5, pair_budget=4_000, max_states=15_000)
            assert not r.parity_mismatches
            assert not r.lift_failures
            assert not r.injectivity_counterexamples


def test_criterion_08_reflexive_split(looped_k2, looped_square):
    with criterion(8, "reflexive splitting verified on T, looped K2, and the looped square at max_len 6"):
        for g in (terminal_graph(), looped_k2, looped_square):
            rep = verify_reflexive_split(g, 6)
            assert rep.passed


def test_criterion_09a_van_kampen_wheel(wheel):
    with criterion(9, "wheel two-fan amalgam matches direct computation (known-unattainable: see ledger)"):
        p = van_kampen_presentation(wheel, ["x", "a", "b", "c"], ["x", "c", "d", "e", "a"], "x")
        assert abelian_invariants(p) == abelian_invariants(fundamental_group_presentation(wheel, "x"))


def test_criterion_09b_van_kampen_c5_arcs():
    with criterion(9, "C5 split into two arcs amalgamates to rank 1"):
        c5 = cycle_graph(5)
        p = van_kampen_presentation(c5, ["0", "1", "2", "3"], ["3", "4", "0"], "0")
        assert abelian_invariants(p) == AbelianInvariants(1, ())


def test_criterion_10_naturality_squares():
    with criterion(10, "50 seeded spider pairs: all sampled naturality squares verify (Unknown = failure)"):
        for phi, psi, alpha in spider_squares(random.Random(1000), 50):
            d = naturality_square(phi, psi, alpha)
            assert d.verdict is Verdict.EQUAL, f"square undecided/false for {alpha.seq}"


def test_criterion_11_looped_vs_unlooped(looped_square):
    with criterion(11, "looped square: (abc) vs (adc) Equal unlooped, Distinct looped"):
        abc = parse_walk(looped_square, "a,b,c")
        adc = parse_walk(looped_square, "a,d,c")
        assert _decide(looped_square, abc, adc).verdict is Verdict.EQUAL
        assert _decide(looped_square, abc, adc, looped=True).verdict is Verdict.DISTINCT


def test_criterion_12_hom_comparison_desk_scale():
    with criterion(12, "Hom-complex comparison matches for (K2,K2) and (K2,C5) within 30 s"):
        t0 = time.monotonic()
        rep1 = compare_thm66(path_graph(1), path_graph(1))
        rep2 = compare_thm66(path_graph(1), cycle_graph(5))
        elapsed = time.monotonic() - t0
        assert rep1.passed and rep1.looped_component_count == 2
        assert rep2.passed and rep2.looped_component_count == 1
        assert rep2.comparisons[0].looped_invariants == AbelianInvariants(1, ())
        assert rep2.comparisons[0].complex_invariants == AbelianInvariants(1, ())
        assert elapsed < 30.0


def test_criterion_13_oracle_consistency():
    with criterion(13, "no Equal verdict is ever separated by the abelianization oracle (zero tolerance)"):
        rng = random.Random(1300)
        for _ in range(200):
            looped = rng.random() < 0.4
            g = random_graph(rng, rng.randint(2, 6), p=0.5, loops=looped, no_isolated=True)
            a = Walk(g, random_walk_seq(rng, g, 7))
            b = Walk(g, random_walk_seq(rng, g, 7))
            use_looped = looped and a.is_looped_walk() and b.is_looped_walk()
            _decide(g, a, b, looped=use_looped, max_states=30_000)
        violations = 0
        equals = 0
        for (g, a, b, looped, d) in _DECISION_LOG:
            if d.verdict is Verdict.EQUAL:
                equals += 1
                ab = abelianized_for_walkseq(g, a.start, looped)
                separated, _, _ = ab.separates(a.seq, b.seq)
                if separated:
                    violations += 1
        assert equals > 0
        assert violations == 0
