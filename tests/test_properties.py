"""Randomized (seeded) cross-checks tying the decision procedures, the
word/abelianization oracle, and the certificate machinery together."""

import random

from ghom import (
    Verdict,
    Walk,
    bfs_forest,
    cycle_graph,
    fundamental_group_presentation,
    identity_morphism,
    induced_walk,
    morphisms_homotopic,
    naturality_square,
    replay_morphism_certificate,
    replay_walk_certificate,
    walks_homotopic,
    word_of_walk,
)
from ghom.groupoid import abelianized_for_walkseq, diamond_relators
from ghom.homotopy import _morphism_successors
from ghom.graphs import Morphism, _move_table
from conftest import random_graph, random_walk_seq


def test_equal_certificates_always_replay():
    rng = random.Random(51)
    equal_seen = 0
    for _ in range(120):
        g = random_graph(rng, rng.randint(2, 5), no_isolated=True)
        a = Walk(g, random_walk_seq(rng, g, 6))
        b = Walk(g, random_walk_seq(rng, g, 6))
        d = walks_homotopic(a, b, max_states=30_000)
        if d.verdict is Verdict.EQUAL:
            equal_seen += 1
            assert replay_walk_certificate(a, d.certificate) == b
    assert equal_seen > 10


def test_equal_verdicts_never_separated_by_abelianization():
    rng = random.Random(52)
    for _ in range(120):
        looped = rng.random() < 0.4
        g = random_graph(rng, rng.randint(2, 5), loops=looped, no_isolated=True)
        a = Walk(g, random_walk_seq(rng, g, 6))
        b = Walk(g, random_walk_seq(rng, g, 6))
        use_looped = looped and a.is_looped_walk() and b.is_looped_walk()
        d = walks_homotopic(a, b, looped_mode=use_looped, max_states=30_000)
        if d.verdict is Verdict.EQUAL:
            ab = abelianized_for_walkseq(g, a.start, use_looped)
            separated, _, _ = ab.separates(a.seq, b.seq)
            assert not separated


def test_decisions_are_deterministic():
    rng = random.Random(53)
    for _ in range(40):
        g = random_graph(rng, 5, no_isolated=True)
        a = Walk(g, random_walk_seq(rng, g, 6))
        b = Walk(g, random_walk_seq(rng, g, 6))
        d1 = walks_homotopic(a, b, max_states=20_000)
        d2 = walks_homotopic(a, b, max_states=20_000)
        assert d1 == d2


def test_morphism_certificates_replay():
    rng = random.Random(54)
    for _ in range(40):
        h = random_graph(rng, rng.randint(2, 5), no_isolated=True)
        keep = [v for v in h.vertices if rng.random() < 0.7] or [h.vertices[0]]
        g = h.subgraph(keep)
        if any(not g.neighbors(v) for v in g.vertices):
            continue
        f = Morphism(g, h, {v: v for v in g.vertices})
        moves = _morphism_successors(_move_table(g, False), _move_table(h, False), tuple(map(h.index, f.image_tuple())))
        if not moves:
            continue
        state = moves[rng.randrange(len(moves))]
        psi = Morphism(g, h, {v: h.vertices[y] for v, y in zip(g.vertices, state)})
        d = morphisms_homotopic(f, psi)
        assert d.verdict is Verdict.EQUAL
        assert replay_morphism_certificate(f, d.certificate) == psi


def test_induced_walks_preserve_parity():
    rng = random.Random(55)
    for _ in range(60):
        h = random_graph(rng, rng.randint(2, 5), no_isolated=True, loops=rng.random() < 0.3)
        keep = [v for v in h.vertices if rng.random() < 0.8] or [h.vertices[0]]
        g = h.subgraph(keep)
        if any(not g.neighbors(v) for v in g.vertices):
            continue
        f = Morphism(g, h, {v: v for v in g.vertices})
        w = Walk(g, random_walk_seq(rng, g, 8))
        assert induced_walk(f, w).parity() == w.parity()


def closed_4_walks(g, component):
    for p in (v for v in g.vertices if v in component):
        for q in g.neighbors(p):
            for r in g.neighbors(q):
                for s in g.neighbors(r):
                    if g.adjacent(s, p):
                        yield (p, q, r, s, p)


def test_diamond_relator_walks_null_homotopic(wheel):
    forest = bfs_forest(wheel, "x")
    assert diamond_relators(wheel, forest, "x")
    comp = frozenset(wheel.component_of("x"))
    count = 0
    for seq in closed_4_walks(wheel, comp):
        d = walks_homotopic(Walk(wheel, seq), Walk(wheel, (seq[0],)), max_len=8)
        assert d.verdict is Verdict.EQUAL
        count += 1
        if count >= 60:
            break


def test_word_soundness_for_closed_walks():
    # homotopic closed walks have the same abelianized word image
    rng = random.Random(56)
    c5 = cycle_graph(5)
    forest = bfs_forest(c5, "0")
    pres = fundamental_group_presentation(c5, "0")
    for _ in range(40):
        seq = random_walk_seq(rng, c5, 8)
        w = Walk(c5, seq)
        closed = Walk(c5, seq + tuple(reversed(seq[:-1])))
        word = word_of_walk(c5, forest, closed)
        total = sum(e for _, e in word.letters)
        assert total == 0  # alpha * alpha^-1 is null-homotopic


def _bounded_class_oracle(g, horizon, looped):
    """Brute-force homotopy classes: components of the full move graph over
    every walk of length <= horizon (computed from scratch, no search code)."""
    if looped:
        vertices = [v for v in g.vertices if g.is_looped(v)]
    else:
        vertices = list(g.vertices)
    walks = []
    stack = [(v,) for v in vertices]
    while stack:
        seq = stack.pop()
        walks.append(seq)
        if len(seq) - 1 < horizon:
            for w in g.neighbors(seq[-1]):
                if looped and not g.is_looped(w):
                    continue
                stack.append(seq + (w,))
    parent = {w: w for w in walks}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for seq in walks:
        k = len(seq)
        for i in range(k - 2):
            if seq[i] == seq[i + 2]:
                union(seq, seq[:i] + seq[i + 2:])
        if looped:
            for i in range(k - 1):
                if seq[i] == seq[i + 1]:
                    union(seq, seq[:i] + seq[i + 1:])
        for i in range(1, k - 1):
            for x in g.vertices:
                if x == seq[i]:
                    continue
                if not (g.adjacent(x, seq[i - 1]) and g.adjacent(x, seq[i + 1])):
                    continue
                if looped and not (g.is_looped(x) and g.adjacent(x, seq[i])):
                    continue
                union(seq, seq[:i] + (x,) + seq[i + 1:])
    return find


def test_search_verdicts_match_bounded_move_graph_oracle():
    rng = random.Random(58)
    horizon = 7
    for case in range(12):
        looped = case % 3 == 0
        g = random_graph(rng, rng.randint(2, 4), p=0.6, loops=looped, no_isolated=True)
        find = _bounded_class_oracle(g, horizon, looped)
        pool = [Walk(g, random_walk_seq(rng, g, 3)) for _ in range(12)]
        if looped:
            pool = [w for w in pool if w.is_looped_walk()]
        for a in pool:
            for b in pool:
                if (a.start, a.end) != (b.start, b.end):
                    continue
                d = walks_homotopic(a, b, looped_mode=looped, max_len=horizon, max_states=100_000)
                same_class = find(a.seq) == find(b.seq)
                if d.verdict is Verdict.EQUAL:
                    assert same_class
                elif d.verdict is Verdict.DISTINCT:
                    assert not same_class
                else:
                    assert not same_class  # bounded search explored the component


def test_fundamental_group_invariant_under_stiff_reduction():
    rng = random.Random(59)
    from ghom import abelian_invariants, fundamental_group_presentation, stiff_reduce

    for _ in range(30):
        n = rng.randint(2, 7)
        vs = [f"v{i}" for i in range(n)]
        edges = [(vs[i], vs[rng.randrange(i)]) for i in range(1, n)]  # random tree
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.3:
                    edges.append((vs[i], vs[j]))
        if rng.random() < 0.3:
            edges.append((vs[rng.randrange(n)],) * 2)
        from ghom import Graph

        g = Graph(vs, edges)
        before = abelian_invariants(fundamental_group_presentation(g, g.vertices[0]))
        stiff, _ = stiff_reduce(g)
        after = abelian_invariants(fundamental_group_presentation(stiff, stiff.vertices[0]))
        assert before == after


def test_naturality_squares_for_identity_inclusions():
    rng = random.Random(57)
    checked = 0
    for _ in range(60):
        h = random_graph(rng, rng.randint(2, 6), no_isolated=True, loops=rng.random() < 0.3)
        f = identity_morphism(h)
        table = _move_table(h, False)
        moves = _morphism_successors(table, table, tuple(map(h.index, f.image_tuple())))
        if not moves:
            continue
        state = moves[rng.randrange(len(moves))]
        psi = Morphism(h, h, {v: h.vertices[y] for v, y in zip(h.vertices, state)})
        alpha = Walk(h, random_walk_seq(rng, h, 4))
        d = naturality_square(f, psi, alpha)
        assert d.verdict is Verdict.EQUAL
        checked += 1
    assert checked > 20
