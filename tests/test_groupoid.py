import json
import random
import tracemalloc
from math import comb

import pytest

from ghom import (
    AbelianInvariants,
    Word,
    abelian_invariants,
    bfs_forest,
    compare_thm66,
    complete_graph,
    cycle_graph,
    diamond_relators,
    fundamental_group_presentation,
    looped_presentation_core,
    parse_graph,
    parse_walk,
    path_forest,
    path_graph,
    terminal_graph,
    van_kampen_presentation,
    walk,
    walk_group_presentation,
    word_of_walk,
)
from ghom import groupoid
from ghom.errors import GraphFormatError
from ghom.graphs import Graph, _root_components
from ghom.groupoid import (
    CoverError,
    DiamondConditionError,
    EdgeWords,
    Generator,
    Presentation,
    SpanningForest,
    _dedupe_words,
    _exponent_row,
    _looped_triangles,
    _presented_component,
    _reduce_codes,
    _relator_words,
    _table,
    abelianized_component,
    abelianized_for_walkseq,
)
from ghom.snf import _sparse_invariants
from conftest import (
    assert_same_span,
    dense_row,
    exponent_vector,
    free_reduce,
    random_graph,
    reference_looped_diamonds,
    reference_orbit_least,
    reference_relator_walks,
    sparse_row,
)


def test_free_reduce():
    assert free_reduce([(0, 1), (0, -1)]) == ()
    assert free_reduce([(0, 1), (1, 1), (1, -1), (0, 1)]) == ((0, 1), (0, 1))


def test_word_requires_reduced():
    with pytest.raises(ValueError):
        Word(((0, 1), (0, -1)))


def reference_word_refuses(letters):
    """The word check: refuse what free reduction changes or cannot read,
    and a letter whose generator is not an int >= 0 or whose exponent is
    not +1 or -1."""
    try:
        if letters != free_reduce(letters):
            return True
    except (TypeError, ValueError):
        return True
    return not all(type(g) is int and g >= 0 and type(e) is int and e in (1, -1) for g, e in letters)


def test_word_refuses_letters_it_cannot_read():
    # an exponent other than +-1 was once read as another generator's
    # index: (0, 2) as e2, so e1^2 on e1, e2 came out as rank 1, torsion []
    for letter in ((0, 2), (0, -2), (0, 0), (-1, 1), ("0", 1), (0.0, 1), (True, 1), (0, 1.0), (0, True)):
        with pytest.raises(ValueError, match="bad word letter"):
            Word((letter,))
        with pytest.raises(ValueError, match="bad word letter"):
            Word(((1, 1), letter))
    gens = (Generator("e1", None), Generator("e2", None))
    square = Presentation(gens, (Word(((0, 1), (0, 1))),), "0")
    assert square.relators[0].signed_indices() == [1, 1]
    assert abelian_invariants(square) == AbelianInvariants(1, (2,))


def test_word_refuses_exactly_what_the_free_reduction_check_refused():
    rng = random.Random(53)
    pieces = [(0, 1), (0, -1), (1, 1), (1, -1), (0, 2), (0, -2), [0, 1], (0,), (0, 1, 1), 5, "ab"]
    cases = [[], [(0, 1)], ((0, 1), [1, 1]), iter([(0, 1)])]
    for _ in range(3000):
        letters = tuple(rng.choice(pieces) for _ in range(rng.randint(0, 4)))
        cases.append(letters)
        cases.append(list(letters))
    refused = 0
    for letters in cases:
        want = reference_word_refuses(letters)
        try:
            Word(letters)
        except (TypeError, ValueError):
            assert want, letters
            refused += 1
        else:
            assert not want, letters
    assert 1000 < refused < len(cases) - 500


def test_spanning_forest_validation():
    c5 = cycle_graph(5)
    with pytest.raises(ValueError):
        SpanningForest(c5, (("0", "2"), ("1", None), ("2", None), ("3", None), ("4", None)))
    t = terminal_graph()
    with pytest.raises(ValueError):
        SpanningForest(t, (("v", "v"),))
    # a vertex listed twice, a child or a parent that is not a vertex
    with pytest.raises(ValueError, match="exactly once"):
        SpanningForest(c5, (("0", "1"), ("0", None), ("1", "2"), ("2", "3"), ("3", "4"), ("4", None)))
    with pytest.raises(ValueError, match="exactly once"):
        SpanningForest(c5, (("zz", None), ("1", None), ("2", None), ("3", None), ("4", None)))
    with pytest.raises(ValueError, match="'zz' is not a vertex"):
        SpanningForest(c5, (("0", None), ("1", "zz"), ("2", None), ("3", None), ("4", None)))
    with pytest.raises(ValueError, match="at least one vertex"):
        path_forest(c5, [])


def test_spanning_forest_refuses_parent_cycles():
    c5 = cycle_graph(5)
    for parent in (
        (("0", "1"), ("1", "0"), ("2", None), ("3", None), ("4", None)),
        (("0", None), ("1", None), ("2", "3"), ("3", "4"), ("4", "3")),
        (("0", "1"), ("1", "2"), ("2", "3"), ("3", "4"), ("4", "0")),
    ):
        with pytest.raises(ValueError, match="cycle"):
            SpanningForest(c5, parent)
    # chains that meet already checked vertices are accepted
    chain = SpanningForest(c5, (("0", None), ("1", "2"), ("2", "3"), ("3", "4"), ("4", "0")))
    assert chain.root_path("1") == ["1", "2", "3", "4", "0"]


def test_bfs_forest_deterministic():
    c5 = cycle_graph(5)
    f = bfs_forest(c5, "0")
    assert sorted(f.edges()) == [("0", "1"), ("0", "4"), ("1", "2"), ("3", "4")]
    assert f.parent_of("2") == "1" and f.root_path("2") == ["2", "1", "0"]
    # the index parent tuple built for lookups takes no part in equality or repr
    assert f._up == (-1, 0, 1, 4, 0)
    g = SpanningForest(c5, f.parent)
    assert g == f and hash(g) == hash(f) and repr(g) == repr(f)
    assert "_up" not in repr(f)


def test_forests_and_edge_words_name_a_vertex_not_in_the_graph():
    c5 = cycle_graph(5)
    f = bfs_forest(c5, "0")
    for read in (f.parent_of, f.root_path, lambda v: f.tree_seq("0", v), lambda v: f.tree_seq(v, "0")):
        with pytest.raises(ValueError, match="vertex 'zz' not in graph"):
            read("zz")
    with pytest.raises(ValueError, match="vertex 'zz' not in graph"):
        EdgeWords(c5, f, ["zz"])


def test_walk_group_c5():
    p = walk_group_presentation(cycle_graph(5), "0")
    assert len(p.generators) == 1 and not p.relators
    assert abelian_invariants(p) == AbelianInvariants(1, ())


def test_walk_group_terminal():
    p = walk_group_presentation(terminal_graph(), "v")
    assert len(p.generators) == 1 and p.generators[0].is_loop
    assert [w.letters for w in p.relators] == [((0, 1), (0, 1))]


def test_walk_group_tree_trivial():
    p = walk_group_presentation(path_graph(3), "0")
    assert not p.generators and not p.relators


def test_word_of_walk_with_stipulated_path_forest():
    c5 = cycle_graph(5)
    forest = path_forest(c5, ["0", "1", "2", "3", "4"])
    w1 = word_of_walk(c5, forest, parse_walk(c5, "0,1,2,3,4,0"))
    w2 = word_of_walk(c5, forest, parse_walk(c5, "0,4,3,2,1,0"))
    assert len(w1.letters) == 1 and len(w2.letters) == 1
    assert w2 == w1.inverse()


def test_word_of_forest_walk_is_empty():
    c5 = cycle_graph(5)
    forest = bfs_forest(c5, "0")
    assert word_of_walk(c5, forest, parse_walk(c5, "0,1,2")).is_trivial()


def test_word_of_loop_walk_in_terminal():
    t = terminal_graph()
    forest = bfs_forest(t, "v")
    assert word_of_walk(t, forest, parse_walk(t, "v,v")).letters == ((0, 1),)


def test_component_table_rejects_foreign_walk():
    g = parse_graph("vertex a\nvertex b\nvertex c\nvertex d\nedge a b\nedge c d")
    forest = bfs_forest(g, "a")
    table = EdgeWords(g, forest, g.component_of("a"))
    with pytest.raises(ValueError):
        table.word_of_seq(("c", "d"))
    # word_of_walk itself presents per component, so each component works
    assert word_of_walk(g, forest, walk(g, ["c", "d"])).is_trivial()


def test_edge_words_refuse_a_forest_of_another_graph():
    c5 = cycle_graph(5)
    foreign = bfs_forest(cycle_graph(6), "0")
    loop = parse_walk(c5, "0,1,2,3,4,0")
    with pytest.raises(ValueError, match="forest is not a spanning forest"):
        EdgeWords(c5, foreign, c5.vertices)
    with pytest.raises(ValueError, match="forest is not a spanning forest"):
        word_of_walk(c5, foreign, loop)
    with pytest.raises(ValueError, match="forest is not a spanning forest"):
        diamond_relators(c5, foreign, "0")
    # a forest of an equal graph, built apart, is a forest of this one
    assert word_of_walk(c5, bfs_forest(cycle_graph(5), "0"), loop).letters == ((0, 1),)


def test_diamond_relators_c5_empty():
    c5 = cycle_graph(5)
    assert diamond_relators(c5, bfs_forest(c5, "0"), "0") == []


def test_diamond_relators_wheel_are_adjacent_transpositions(wheel):
    rels = diamond_relators(wheel, bfs_forest(wheel, "x"), "x")
    assert rels
    # every relator is a two-letter word pairing cycle edges that share a vertex
    for w in rels:
        assert len(w.letters) == 2
    pairs = {frozenset(i for i, _ in w.letters) for w in rels}
    # generators in edge-sorted order: e1=ab e2=ae e3=bc e4=cd e5=de
    assert pairs == {
        frozenset({0, 2}),  # ab, bc
        frozenset({2, 3}),  # bc, cd
        frozenset({3, 4}),  # cd, de
        frozenset({1, 4}),  # de, ea
        frozenset({0, 1}),  # ea, ab
    }


def test_diamond_relators_looped_k2(looped_k2):
    rels = diamond_relators(looped_k2, bfs_forest(looped_k2, "a"), "a")
    assert ((0, 1), (1, 1)) in {w.letters for w in rels}


def test_fundamental_group_wheel_is_z2(wheel):
    p = fundamental_group_presentation(wheel, "x")
    assert abelian_invariants(p) == AbelianInvariants(0, (2,))


def test_fundamental_group_k2_trivial():
    p = fundamental_group_presentation(path_graph(1), "0")
    assert abelian_invariants(p) == AbelianInvariants(0, ())


def test_fundamental_group_c5_is_z():
    p = fundamental_group_presentation(cycle_graph(5), "0")
    assert abelian_invariants(p) == AbelianInvariants(1, ())


def test_fundamental_group_terminal_is_z2():
    p = fundamental_group_presentation(terminal_graph(), "v")
    assert abelian_invariants(p) == AbelianInvariants(0, (2,))


def test_presentation_rejects_unknown_basepoint():
    with pytest.raises(ValueError):
        fundamental_group_presentation(cycle_graph(5), "9")


def test_van_kampen_c5_arc_split_gives_z():
    c5 = cycle_graph(5)
    p = van_kampen_presentation(c5, ["0", "1", "2", "3"], ["3", "4", "0"], "0")
    assert abelian_invariants(p) == AbelianInvariants(1, ())


def test_van_kampen_degenerate_cover_matches_direct(wheel):
    p = van_kampen_presentation(wheel, wheel.vertices, wheel.vertices, "x")
    direct = fundamental_group_presentation(wheel, "x")
    assert abelian_invariants(p) == abelian_invariants(direct)


def test_van_kampen_rejects_wheel_fan_split(wheel):
    with pytest.raises(DiamondConditionError) as exc:
        van_kampen_presentation(wheel, ["x", "a", "b", "c"], ["x", "c", "d", "e", "a"], "x")
    assert len(exc.value.walk_seq) == 5


def c3xc4():
    vs = [f"{i}|{j}" for i in range(3) for j in range(4)]
    es = [(f"{i}|{j}", f"{(i + 1) % 3}|{k}") for i in range(3) for j in range(4) for k in ((j + 1) % 4, (j + 3) % 4)]
    return Graph(vs, es)


def test_van_kampen_reports_the_first_diamond_in_scan_order():
    # the first diamond in neither part starts at the second vertex
    part1 = "0|0,0|1,0|2,0|3,1|0,1|1,1|3,2|0,2|1,2|2,2|3".split(",")
    part2 = "0|0,1|2,0|1,0|3,2|1,2|3".split(",")
    with pytest.raises(DiamondConditionError) as exc:
        van_kampen_presentation(c3xc4(), part1, part2, "0|0")
    assert exc.value.walk_seq == ("0|1", "1|0", "0|3", "1|2", "0|1")
    assert str(exc.value) == "diamond 0|1,1|0,0|3,1|2,0|1 lies in neither part"


def reference_closed_4_walks(g, component):
    for p in (v for v in g.vertices if v in component):
        for q in g.neighbors(p):
            for r in g.neighbors(q):
                for s in g.neighbors(r):
                    if g.adjacent(s, p):
                        yield (p, q, r, s, p)


def reference_first_split_diamond(g, v1, v2):
    """The first proper diamond (p != r, q != s) in neither part, scanned
    over vertex names in closed-4-walk order, or None."""
    for d in reference_closed_4_walks(g, frozenset(g.vertices)):
        if d[0] != d[2] and d[1] != d[3] and not (set(d) <= v1 or set(d) <= v2):
            return d
    return None


def reference_two_step(a, b):
    if a is None:
        return () if b is None else (b,)
    if b is None:
        return (a,)
    return () if a[0] == b[0] and a[1] == -b[1] else (a, b)


def reference_letters(table):
    """A table's generators and the letter (i, e) of each directed generator
    edge, keyed by vertex names, as `EdgeWords` built them before signed
    codes: non-forest plain edges by the declaration indices of their ends,
    then in unlooped mode the loops."""
    g, idx, forest_edges = table.graph, table.graph.index, table.forest.edges()
    plain, loops = [], []
    for (u, v) in g.edges:
        if u not in table.component or v not in table.component:
            continue
        if u == v:
            loops.append((u, v))
        elif (u, v) not in forest_edges:
            plain.append((u, v))
    plain.sort(key=lambda e: (idx(e[0]), idx(e[1])))
    loops.sort(key=lambda e: idx(e[0]))
    gens = [Generator(f"e{i + 1}", e) for i, e in enumerate(plain)]
    if not table.looped_mode:
        gens += [Generator(f"e{len(plain) + i + 1}", e, is_loop=True) for i, e in enumerate(loops)]
    letters = {}
    for i, gen in enumerate(gens):
        u, v = gen.edge
        letters[u, v] = (i, 1)
        if not gen.is_loop:
            letters[v, u] = (i, -1)
    return tuple(gens), letters


def reference_relator_words(table, sub, letters, looped=False):
    """Relator words joined from name-level 2-walk words, as they were built
    before signed generator codes, on `sub`, the table's component induced
    on its own."""
    g, get = sub, letters.get
    adj = {v: set(g.neighbors(v)) for v in table.component} if looped else None
    seen, out = {()}, []
    for p in (v for v in g.vertices if v in table.component):
        heads, tails = [], {}
        for q in g.neighbors(p):
            a, d = get((p, q)), get((q, p))
            for r in g.neighbors(q):
                heads.append((q, r, reference_two_step(a, get((q, r)))))
                tail = reference_two_step(get((r, q)), d)
                tails.setdefault(r, []).append((q, tail, (tail[0][0], -tail[0][1]) if tail else None))
        for q, r, head in heads:
            last = head[-1] if head else ()
            for s, tail, cancel in tails[r]:
                if looped and s not in adj[q]:
                    continue
                key = free_reduce(head + tail) if last == cancel else head + tail
                if key not in seen:
                    seen.add(key)
                    out.append(Word(key))
    return tuple(out)


def shuffled_names_graph(rng, n, p, loop_share):
    """Random graph whose vertex names are out of declaration order."""
    names = [f"u{k}" for k in rng.sample(range(3 * n), n)]
    edges = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    edges += [(v, v) for v in names if rng.random() < loop_share]
    return Graph(names, edges)


def reversed_codes(codes, loops):
    """The word of a closed walk run backwards: a plain edge's code turns
    sign, a loop's (in `loops`) reads the same both ways."""
    return tuple(c if c in loops else -c for c in reversed(codes))


def cyclic_turns(codes):
    """The rotations of a freely reduced code word's cyclic reduction."""
    w = list(codes)
    while len(w) > 1 and w[0] == -w[-1]:
        w = w[1:-1]
    return {tuple(w[i:] + w[:i]) for i in range(len(w))} or {()}


def test_presented_component_relators_match_the_name_level_reference():
    rng = random.Random(51)
    cases = 0
    for i in range(240):
        g = shuffled_names_graph(rng, rng.randint(1, 8), rng.uniform(0.2, 0.7), (0.0, 0.5, 1.0)[i % 3])
        for v in g.vertices:
            for looped in (False, True) if g.is_looped(v) else (False,):
                table, relators = _presented_component(g, v, looped)
                gens, letters = reference_letters(table)
                assert table.generators == gens
                names = table.graph.vertices
                decoded = {(names[p], names[q]): (abs(c) - 1, 1 if c > 0 else -1)
                           for p, row in enumerate(table.codes) if row is not None for q, c in row.items()}
                assert decoded == letters
                squares = [(i + 1, i + 1) for i, gen in enumerate(gens) if gen.is_loop]
                sub = g.subgraph(table.component)
                diamonds = squares + [tuple(w.signed_indices()) for w in reference_relator_words(table, sub, letters, looped)]
                width = len(table.generators)
                if looped:
                    # the triangles, spanning the frozen looped diamonds' lattice
                    assert list(relators) == [w for w, _ in reference_triangles(table, sub)], (g.edges, v)
                    assert_same_span(relators, diamonds, width)
                else:
                    # the frozen index scan is the name-level scan; the
                    # relators are its orbit-least walks' words, and every
                    # other word is a conjugate of one of them or of its
                    # reversal, which is its inverse up to loop squares,
                    # so both span the same lattice
                    walks = reference_relator_walks(table)
                    full = list(dict.fromkeys(squares + [key for _, key in walks if key]))
                    assert full == list(dict.fromkeys(diamonds)), (g.edges, v)
                    least = dict.fromkeys(squares + [key for walk, key in walks if key and reference_orbit_least(walk)])
                    assert list(relators) == list(least), (g.edges, v)
                    assert_same_span(relators, full, width)
                    loops = {c for w in squares for c in w}
                    kept = set().union(*(cyclic_turns(w) | cyclic_turns(reversed_codes(w, loops)) for w in relators))
                    for w in full:
                        assert min(cyclic_turns(w)) in kept, (g.edges, v, w)
                for w in relators:
                    assert _exponent_row(w) == {j: x for j, x in enumerate(dense_row(w, width)) if x}
                cases += 1
    assert cases > 1500


def test_complete_graphs_keep_one_relator_per_4_cycle():
    # K_n has 3 * C(n, 4) 4-cycles; each keeps one relator, and the words of
    # every closed 4-walk give the same invariants
    for n in range(4, 21):
        table, relators = _presented_component(complete_graph(n), "0", False)
        assert len(relators) == 3 * comb(n, 4)
        width = len(table.generators)
        full = dict.fromkeys(key for _, key in reference_relator_walks(table) if key)
        assert set(relators) <= set(full)
        got = _sparse_invariants([_exponent_row(w) for w in relators], width)
        assert got == _sparse_invariants([sparse_row(w) for w in full], width) == (0, [2]), n
    assert len(fundamental_group_presentation(complete_graph(20), "0").relators) == 14_535


def test_relator_scan_takes_no_2_walk_back_to_an_unlooped_start(monkeypatch):
    # p q p s p has a trivial word unless p is looped, so the scan of a star
    # from its centre builds no 2-walk; with a loop at the centre, the ones
    # back to it give the loop's fourth power and its square
    built = []
    two_codes = groupoid._two_codes
    monkeypatch.setattr(groupoid, "_two_codes", lambda a, b: built.append((a, b)) or two_codes(a, b))
    leaves = [f"x{i}" for i in range(30)]
    star = Graph(["c"] + leaves, [("c", x) for x in leaves])
    assert _relator_words(_table(star, "c")) == ()
    assert built == []
    looped = Graph(star.vertices, list(star.edges) + [("c", "c")])
    assert _relator_words(_table(looped, "c")) == ((1, 1, 1, 1), (1, 1))
    assert built


def walk_from(rng, g, v, max_len):
    """Seeded random walk from v; stops early at a vertex with no neighbors."""
    seq = [v]
    for _ in range(rng.randint(0, max_len)):
        nbrs = g.neighbors(seq[-1])
        if not nbrs:
            break
        seq.append(rng.choice(nbrs))
    return tuple(seq)


def test_residues_match_the_word_exponent_path():
    # the residue as it was computed before signed codes: the walk's reduced
    # word, then its dense exponent vector
    rng = random.Random(55)
    checked = 0
    for i in range(120):
        g = shuffled_names_graph(rng, rng.randint(1, 8), rng.uniform(0.2, 0.7), (0.0, 0.5, 1.0)[i % 3])
        for v in g.vertices:
            for looped in (False, True) if g.is_looped(v) else (False,):
                ab = abelianized_for_walkseq(g, v, looped)
                for _ in range(4):
                    seq = walk_from(rng, g.subgraph(ab.table.component), v, 12)
                    want = ab.lattice.residue(exponent_vector(ab.table.word_of_seq(seq), ab.width))
                    assert ab.residue(seq) == want, (g.edges, seq, looped)
                    checked += 1
    assert checked > 2000


def test_abelianized_component_builds_no_word(monkeypatch):
    built = []
    check = Word.__post_init__

    def counted(self):
        built.append(self.letters)
        check(self)

    monkeypatch.setattr(Word, "__post_init__", counted)
    rng = random.Random(56)
    for i in range(40):
        g = shuffled_names_graph(rng, rng.randint(2, 7), rng.uniform(0.3, 0.7), (0.0, 0.5, 1.0)[i % 3])
        for v in g.vertices:
            for looped in (False, True) if g.is_looped(v) else (False,):
                ab = abelianized_component.__wrapped__(g, v, looped)
                seq = walk_from(rng, g.subgraph(ab.table.component), v, 8)
                ab.residue(seq)
                ab.separates(seq, seq[:1])
                ab.index_residue(ab.table.indices(seq))
                ab.invariants()
    assert built == []
    # the count does see the Words a presentation returns
    fundamental_group_presentation(cycle_graph(4), "0")
    assert built


def test_van_kampen_scan_matches_the_name_level_reference():
    rng = random.Random(52)
    failed = passed = 0
    for i in range(400):
        g = shuffled_names_graph(rng, rng.randint(2, 8), rng.uniform(0.3, 0.8), (0.0, 0.5)[i % 2])
        base = rng.choice(g.vertices)
        v1 = {base} | {u for u in g.vertices if rng.random() < 0.6}
        v2 = {base} | {u for u in g.vertices if u not in v1 or rng.random() < 0.4}
        want = reference_first_split_diamond(g, v1, v2)
        try:
            van_kampen_presentation(g, v1, v2, base)
        except DiamondConditionError as exc:
            assert exc.walk_seq == want
            assert str(exc) == f"diamond {','.join(want)} lies in neither part"
            failed += 1
        except CoverError as exc:
            assert want is None and "connected" in str(exc)
        else:
            assert want is None
            passed += 1
    assert failed > 100 and passed > 20


def reference_bfs_parent(g, base=None):
    """Breadth-first parent map by vertex name, as `bfs_forest` built it
    before it ran on the move table's indices."""
    order = list(g.vertices)
    if base is not None:
        order.remove(base)
        order.insert(0, base)
    parent = {}
    for start in order:
        if start in parent:
            continue
        parent[start] = None
        frontier = [start]
        while frontier:
            nxt = []
            for u in frontier:
                for w in g.neighbors(u):
                    if w != u and w not in parent:
                        parent[w] = u
                        nxt.append(w)
            frontier = nxt
    return tuple((v, parent[v]) for v in g.vertices)


def reference_root_path(parent, v):
    path = [v]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    return path


def reference_tree_seq(parent, u, v):
    """The forest walk from u to v over a name-level parent map."""
    pu, pv = reference_root_path(parent, u), reference_root_path(parent, v)
    i = 0
    while pv[i] not in pu:
        i += 1
    return tuple(pu[: pu.index(pv[i]) + 1]) + tuple(pv[:i][::-1])


def test_bfs_forest_matches_the_name_level_reference():
    rng = random.Random(57)
    checked = disconnected = 0
    for i in range(200):
        g = shuffled_names_graph(rng, rng.randint(1, 9), rng.uniform(0.1, 0.6), (0.0, 0.5, 1.0)[i % 3])
        disconnected += not g.is_connected()
        for base in (None,) + g.vertices:
            f = bfs_forest(g, base)
            want = reference_bfs_parent(g, base)
            assert f.parent == want, (g.edges, base)
            parent = dict(want)
            idx = g.index
            assert f.edges() == {tuple(sorted((c, p), key=idx)) for c, p in want if p is not None}
            for v in g.vertices:
                assert f.parent_of(v) == parent[v]
                assert f.root_path(v) == reference_root_path(parent, v)
                for u in g.component_of(v):
                    assert f.tree_seq(u, v) == reference_tree_seq(parent, u, v)
            checked += 1
    assert checked > 1000 and disconnected > 50


def reference_intersection_generator_walks(sub, base):
    """Closed walks at `base` realizing each fundamental-group generator of
    base's component in `sub`, as van Kampen built them on a subgraph copy
    of the intersection: over the copy's breadth-first forest, in names."""
    forest = bfs_forest(sub, base)
    table = EdgeWords(sub, forest, sub.component_of(base))
    return [forest.tree_seq(base, u) + (w,) + forest.tree_seq(w, base)[1:] for u, w in (gen.edge for gen in table.generators)]


def reference_van_kampen_relators(g, v1, v2, v):
    """The amalgam's relators as van Kampen built them before it dropped the
    forest conjugation: each intersection generator walk w, at its
    component's base b, conjugated in each part by the forest path from v
    to b, over name-level breadth-first forests."""
    inter = g.subgraph(v1 & v2)
    table1, relators1 = _presented_component(g.subgraph(v1), v, looped=False)
    table2, relators2 = _presented_component(g.subgraph(v2), v, looped=False)
    parent1 = dict(reference_bfs_parent(table1.graph, v))
    parent2 = dict(reference_bfs_parent(table2.graph, v))
    n1, n2 = len(table1.generators), len(table2.generators)

    def shift(codes):
        return tuple(c + n1 if c > 0 else c - n1 for c in codes)

    relators = list(relators1) + list(map(shift, relators2))
    comps = sorted(inter.components(), key=lambda c: (v not in c, g.index(c[0])))
    for ci, comp in enumerate(comps):
        base_c = v if v in comp else comp[0]
        gamma1 = reference_tree_seq(parent1, v, base_c)
        gamma2 = reference_tree_seq(parent2, v, base_c)
        t = (n1 + n2 + ci,) if ci else ()
        for wseq in reference_intersection_generator_walks(inter, base_c):
            w1 = table1.codes_of_seq(gamma1 + wseq[1:] + gamma1[::-1][1:])
            w2 = shift(table2.codes_of_seq(gamma2 + wseq[1:] + gamma2[::-1][1:]))
            relators.append(_reduce_codes(w1 + t + tuple(-c for c in reversed(t + w2))))
    return _dedupe_words(relators, n1 + n2 + len(comps) - 1)


def reference_subgraph_van_kampen(g, v1, v2, v):
    """`van_kampen_presentation` past its diamond check, as it was built on
    `Graph.subgraph` copies of both parts and of the intersection."""
    g1, g2 = g.subgraph(v1), g.subgraph(v2)
    if not g1.is_connected() or not g2.is_connected():
        raise CoverError("both parts must induce connected subgraphs")
    inter = g.subgraph(v1 & v2)
    table1, relators1 = _presented_component(g1, v, looped=False)
    table2, relators2 = _presented_component(g2, v, looped=False)
    n1, n2 = len(table1.generators), len(table2.generators)

    def shift(codes):
        return tuple(c + n1 if c > 0 else c - n1 for c in codes)

    gens = [Generator(f"e{i + 1}", gn.edge, gn.is_loop) for i, gn in enumerate(table1.generators)]
    gens += [Generator(f"e{n1 + i + 1}", gn.edge, gn.is_loop) for i, gn in enumerate(table2.generators)]
    relators = list(relators1) + list(map(shift, relators2))
    comps = sorted(inter.components(), key=lambda c: (v not in c, g.index(c[0])))
    gens += [Generator(f"t{ci + 1}", None) for ci in range(1, len(comps))]
    for ci, comp in enumerate(comps):
        t = (n1 + n2 + ci,) if ci else ()
        for wseq in reference_intersection_generator_walks(inter, v if v in comp else comp[0]):
            w1, w2 = table1.codes_of_seq(wseq), shift(table2.codes_of_seq(wseq))
            relators.append(_reduce_codes(w1 + t + tuple(-c for c in reversed(t + w2))))
    return Presentation(tuple(gens), _dedupe_words(relators, len(gens)), v)


def glued_cover(rng):
    """A random graph and a two-part cover whose intersection has two or
    three components: small pieces, each a path with maybe a chord and
    loops, joined to a part1-only path and to a part2-only path, in
    shuffled declaration order."""
    names = iter(f"u{k}" for k in rng.sample(range(100), 40))
    side1 = [next(names) for _ in range(rng.randint(1, 3))]
    side2 = [next(names) for _ in range(rng.randint(1, 3))]
    pieces = [[next(names) for _ in range(rng.randint(1, 3))] for _ in range(rng.randint(2, 3))]
    edges = list(zip(side1, side1[1:])) + list(zip(side2, side2[1:]))
    for piece in pieces:
        edges += list(zip(piece, piece[1:])) + [(v, v) for v in piece if rng.random() < 0.3]
        if len(piece) == 3 and rng.random() < 0.7:
            edges.append((piece[0], piece[2]))
        edges += [(rng.choice(side1), rng.choice(piece)), (rng.choice(side2), rng.choice(piece))]
    vs = side1 + side2 + [v for piece in pieces for v in piece]
    rng.shuffle(vs)
    inter = {v for piece in pieces for v in piece}
    return Graph(vs, edges), set(side1) | inter, set(side2) | inter


def test_van_kampen_relators_match_the_conjugated_reference():
    rng = random.Random(58)
    covers = []
    for i in range(400):
        g = shuffled_names_graph(rng, rng.randint(2, 8), rng.uniform(0.2, 0.6), (0.0, 0.5)[i % 2])
        v1 = {u for u in g.vertices if rng.random() < 0.6}
        covers.append((g, v1, {u for u in g.vertices if u not in v1 or rng.random() < 0.4}))
    covers += [glued_cover(rng) for _ in range(400)]
    amalgams = conjugated = loops = refused = 0
    for g, v1, v2 in covers:
        if not v1 & v2:
            continue
        base = rng.choice(sorted(v1 & v2))
        try:
            p = van_kampen_presentation(g, v1, v2, base)
        except DiamondConditionError:
            continue
        except CoverError as exc:
            # a disconnected part: the subgraph-copy build refuses it alike
            with pytest.raises(CoverError) as want:
                reference_subgraph_van_kampen(g, v1, v2, base)
            assert str(exc) == str(want.value), (g.edges, v1, v2, base)
            refused += 1
            continue
        assert p.relators == reference_van_kampen_relators(g, v1, v2, base), (g.edges, v1, v2, base)
        # labels, edges and loop flags, and the relators, of the copy build
        assert p == reference_subgraph_van_kampen(g, v1, v2, base), (g.edges, v1, v2, base)
        amalgams += 1
        loops += any(gen.is_loop for gen in p.generators)
        # an intersection component beyond the basepoint's has generator
        # walks, which the reference conjugates by nontrivial forest paths
        inter = g.subgraph(v1 & v2)
        conjugated += any(reference_intersection_generator_walks(inter, c[0]) for c in inter.components() if base not in c)
    assert amalgams > 300 and conjugated > 150 and loops > 200 and refused > 80, (amalgams, conjugated, loops, refused)


def test_presentation_builders_make_no_adjacency_queries(monkeypatch):
    calls = []
    adjacent = Graph.adjacent

    def counted(self, u, v):
        calls.append((u, v))
        return adjacent(self, u, v)

    monkeypatch.setattr(Graph, "adjacent", counted)
    rng = random.Random(59)
    built = 0
    for i in range(60):
        g = shuffled_names_graph(rng, rng.randint(1, 8), rng.uniform(0.2, 0.6), (0.0, 0.5, 1.0)[i % 3])
        for v in g.vertices:
            fundamental_group_presentation(g, v)
            walk_group_presentation(g, v)
            if g.is_looped(v):
                looped_presentation_core(g, v)
            built += 1
        base = rng.choice(g.vertices)
        v1 = {base} | {u for u in g.vertices if rng.random() < 0.6}
        v2 = {base} | {u for u in g.vertices if u not in v1 or rng.random() < 0.4}
        try:
            van_kampen_presentation(g, v1, v2, base)
        except CoverError:
            pass
    for _ in range(20):
        g, v1, v2 = glued_cover(rng)
        try:
            van_kampen_presentation(g, v1, v2, rng.choice(sorted(v1 & v2)))
        except CoverError:
            pass
    assert built > 200 and calls == []
    # the count does see a query
    cycle_graph(3).adjacent("0", "1")
    assert calls == [("0", "1")]


def corpus_presentation_answers():
    """What the presentation builders answer on the golden CLI corpus's
    graphs, its van Kampen covers and the cover of each graph by itself
    twice, and its `hom compare` pairs: values, or each refusal's type and
    text."""
    from test_cli_golden import DATA, FILES

    def answer(f, *args):
        try:
            return f(*args)
        except ValueError as exc:
            return type(exc), str(exc)

    graphs = {name: parse_graph(text) for name, text in FILES.items() if name.endswith(".g") and name != "bad.g"}
    covers = [(g, g.vertices, g.vertices, g.vertices[0]) for g in graphs.values() if g.vertices]
    pairs = []
    for key in json.loads(DATA.read_text()):
        argv = key.split()
        if key.startswith("pi1 vankampen @"):
            g, opts = graphs[argv[2][1:]], dict(zip(argv[3::2], argv[4::2]))
            part1, part2 = opts["--part1"].split(","), opts["--part2"].split(",")
            covers.append((g, part1, part2, next(u for u in g.vertices if u in part1 and u in part2)))
        elif key.startswith("hom compare @"):
            pairs.append((graphs[argv[2][1:]], graphs[argv[3][1:]]))
    abelianized_component.cache_clear()
    out = [answer(van_kampen_presentation, *cover) for cover in covers]
    out += [answer(compare_thm66, g, h) for g, h in pairs]
    for g in graphs.values():
        for v in g.vertices:
            out.append(fundamental_group_presentation(g, v))
            for looped in (False, True)[: 1 + g.is_looped(v)]:
                ab = abelianized_for_walkseq(g, v, looped)
                out.append((ab.table.generators, ab.table.codes, ab.invariants()))
            if g.is_looped(v):
                out.append(looped_presentation_core(g, v))
    assert len(covers) > 20 and len(pairs) >= 5
    return out


def test_presentations_copy_no_graph_and_recheck_no_forest(monkeypatch):
    # parts, intersections and components are presented in place on the
    # given graph, over `_bfs` parent lists taken as they are
    want = corpus_presentation_answers()

    def refuse(*args, **kwargs):
        raise AssertionError("not to be called")

    monkeypatch.setattr(Graph, "subgraph", refuse)
    monkeypatch.setattr(SpanningForest, "__post_init__", refuse)
    assert corpus_presentation_answers() == want
    # the patches do bite
    with pytest.raises(AssertionError):
        bfs_forest(cycle_graph(3))
    with pytest.raises(AssertionError):
        cycle_graph(3).subgraph(["0"])


def test_looped_diamond_scan_matches_the_name_level_reference():
    # the frozen diamond scan that the all-diamond replay oracles of
    # tests/test_homcomplex.py run on lists every looped diamond
    rng = random.Random(53)
    found = 0
    for _ in range(120):
        g = shuffled_names_graph(rng, rng.randint(1, 8), rng.uniform(0.2, 0.7), 1.0)
        for comp in g.components():
            sub = g.subgraph(comp)
            want = [d for d in reference_closed_4_walks(sub, frozenset(comp)) if sub.adjacent(d[1], d[3])]
            assert reference_looped_diamonds(sub, frozenset(comp)) == want, (g.edges, comp)
            found += len(want)
    assert found > 10_000


def reference_triangles(table, sub):
    """Name-level triangle scan on `sub`, the table's component induced on
    its own: the words of the closed walks (p, q, s, p) with p, q, s in
    declaration order, p first, q and s in neighbor order, each with its
    triangle."""
    idx = sub.index
    return [(table.codes_of_seq((p, q, s, p)), (p, q, s))
            for p in sub.vertices for q in sub.neighbors(p) for s in sub.neighbors(q)
            if idx(p) < idx(q) < idx(s) and sub.adjacent(s, p)]


def test_looped_triangle_scan_matches_the_name_level_reference():
    # every closed 3-walk through three distinct vertices reads its
    # triangle's word up to rotation and inversion, so one relator per
    # triangle loses nothing; a closed 3-walk that repeats a vertex has a
    # trivial word
    rng = random.Random(54)
    triangles = walks = 0
    for i in range(160):
        g = shuffled_names_graph(rng, rng.randint(1, 8), rng.uniform(0.2, 0.8), (0.6, 1.0)[i % 2])
        for v in g.vertices:
            if not g.is_looped(v):
                continue
            table = _table(g, v, looped=True)
            sub = g.subgraph(table.component)
            want = reference_triangles(table, sub)
            names = table.graph.vertices
            got = [(w, tuple(names[x] for x in t)) for w, t in _looped_triangles(table)]
            assert got == want, (g.edges, v)
            # no two triangles have the same word
            assert len({w for w, _ in got}) == len(got)
            triangles += len(got)
            for p in sub.vertices:
                for q in sub.neighbors(p):
                    for s in sub.neighbors(q):
                        if not sub.adjacent(s, p):
                            continue
                        word = table.codes_of_seq((p, q, s, p))
                        if len({p, q, s}) < 3:
                            assert word == ()
                            continue
                        a, b, c = sorted((p, q, s), key=sub.index)
                        own = table.codes_of_seq((a, b, c, a))
                        inverse = tuple(-x for x in reversed(own))
                        assert word in {w[k:] + w[:k] for w in (own, inverse) for k in range(len(w))}
                        walks += 1
    assert triangles > 1_000 and walks == 6 * triangles


def test_triangles_span_the_looped_diamond_lattice_on_seeded_graphs():
    # the frozen diamond scan is the independent oracle for the triangles
    rng = random.Random(57)
    components = 0
    for i in range(150):
        g = shuffled_names_graph(rng, rng.randint(3, 9), rng.uniform(0.3, 0.8), (0.5, 0.8, 1.0)[i % 3])
        for comp in {_table(g, v, looped=True).component for v in g.vertices if g.is_looped(v)}:
            table, triangles = _presented_component(g, min(comp, key=g.index), looped=True)
            diamonds = [table.codes_of_seq(d) for d in reference_looped_diamonds(g.subgraph(comp), comp)]
            assert_same_span(triangles, diamonds, len(table.generators))
            components += 1
    assert components > 200


def test_presenting_a_long_cycle_takes_memory_linear_in_its_size():
    # a relator code row as wide as the graph would be 5,000 x 5,000 slots
    g = cycle_graph(5000)
    tracemalloc.start()
    try:
        p = fundamental_group_presentation(g, "0")
        residue = abelianized_for_walkseq(g, "0", False).index_residue(tuple(range(5000)) + (0,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (len(p.generators), p.relators, residue) == (1, (), (1,))
    assert abelian_invariants(p) == AbelianInvariants(1, ())
    assert peak < 8_000_000


def test_sign_distinct_invariants_match_sympy_with_repeated_and_zero_rows():
    from sympy import ZZ, Matrix
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    rng = random.Random(54)
    for _ in range(300):
        n = rng.randint(1, 6)
        rows = [{j: rng.choice((-2, -1, 1, 1, 2, 3)) for j in rng.sample(range(n), rng.randint(1, min(n, 3)))}
                for _ in range(rng.randint(0, 6))]
        # repeats up to sign and empty rows, in random places
        for _ in range(rng.randint(0, 6)):
            pick = dict(rng.choice(rows)) if rows and rng.random() < 0.8 else {}
            if rng.random() < 0.5:
                pick = {j: -x for j, x in pick.items()}
            rows.insert(rng.randint(0, len(rows)), pick)
        dense = [[row.get(j, 0) for j in range(n)] for row in rows]
        if any(any(r) for r in dense):
            diag = sympy_snf(Matrix(dense), domain=ZZ)
            nonzero = [abs(int(diag[i, i])) for i in range(min(diag.shape)) if diag[i, i]]
        else:
            nonzero = []
        assert _sparse_invariants(rows, n) == (n - len(nonzero), [d for d in nonzero if d > 1]), rows


def test_van_kampen_cover_errors(wheel):
    with pytest.raises(CoverError):
        van_kampen_presentation(wheel, ["x", "a"], ["x", "b"], "x")
    c5 = cycle_graph(5)
    with pytest.raises(CoverError):
        van_kampen_presentation(c5, ["0", "1", "2", "3"], ["3", "4", "0"], "2")


def test_van_kampen_connected_intersection():
    # two 4-cycles sharing the edge c-d: every proper diamond lies in one
    # square, and each square's diamond kills its generator
    g = parse_graph(
        "vertex a\nvertex b\nvertex c\nvertex d\nvertex e\nvertex f\n"
        "edge a b\nedge b c\nedge c d\nedge d a\nedge c f\nedge f e\nedge e d"
    )
    p = van_kampen_presentation(g, ["a", "b", "c", "d"], ["c", "d", "e", "f"], "c")
    direct = fundamental_group_presentation(g, "c")
    assert abelian_invariants(p) == abelian_invariants(direct) == AbelianInvariants(0, ())


def reference_looped_component(g, start):
    """Breadth-first search through looped vertices only."""
    seen, frontier = {start}, [start]
    while frontier:
        nxt = []
        for u in frontier:
            for w in g.neighbors(u):
                if w not in seen and g.is_looped(w):
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return seen


def reference_looped_table(g, v):
    """The looped generator table as it was built before looped components
    were presented in place: v's looped component copied out with
    `Graph.subgraph`, over the copy's breadth-first forest rooted at v."""
    sub = g.subgraph(reference_looped_component(g, v))
    return EdgeWords(sub, bfs_forest(sub, v), sub.vertices, looped_mode=True)


def named_letters(table):
    """Each directed generator edge's signed code, keyed by vertex names."""
    names = table.graph.vertices
    return {(names[p], names[q]): c for p, row in enumerate(table.codes) if row is not None for q, c in row.items()}


def looped_islands_graph(rng):
    """Two to four blocks of looped vertices, joined through unlooped
    vertices (each adjacent to some vertices of some blocks, so some close
    triangles with a block's edges) and to each other by nothing else, in
    shuffled declaration order."""
    names = iter(f"w{k}" for k in rng.sample(range(100), 40))
    blocks = [[next(names) for _ in range(rng.randint(1, 5))] for _ in range(rng.randint(2, 4))]
    between = [next(names) for _ in range(rng.randint(1, 4))]
    edges = [(v, v) for block in blocks for v in block]
    for block in blocks:
        edges += [(u, w) for i, u in enumerate(block) for w in block[i + 1:] if rng.random() < 0.6]
    for u in between:
        edges += [(u, w) for block in blocks if rng.random() < 0.7 for w in rng.sample(block, rng.randint(1, len(block)))]
        edges += [(u, w) for w in between if w != u and rng.random() < 0.3]
    vs = [v for block in blocks for v in block] + between
    rng.shuffle(vs)
    return Graph(vs, edges)


def test_in_place_looped_table_matches_the_subgraph_copy():
    rng = random.Random(62)
    tables = walks = triangles = 0
    for _ in range(150):
        g = looped_islands_graph(rng)
        for v in g.looped_vertices():
            table, ref = _table(g, v, looped=True), reference_looped_table(g, v)
            sub = ref.graph
            assert table.graph is g and table.component == frozenset(sub.vertices)
            assert table.generators == ref.generators, (g.edges, v)
            assert named_letters(table) == named_letters(ref), (g.edges, v)
            assert {u: table.forest.parent_of(u) for u in sub.vertices} == dict(ref.forest.parent), (g.edges, v)
            got, want = _looped_triangles(table), _looped_triangles(ref)
            assert [(w, tuple(g.vertices[x] for x in t)) for w, t in got] == \
                [(w, tuple(sub.vertices[x] for x in t)) for w, t in want], (g.edges, v)
            ab = abelianized_component.__wrapped__(g, v, True)
            ref_ab = groupoid.AbelianizedComponent(ref, tuple(w for w, _ in want))
            for _ in range(5):
                seq = walk_from(rng, sub, v, 10)
                assert ab.residue(seq) == ref_ab.residue(seq), (g.edges, seq)
                walks += 1
            tables += 1
            triangles += len(got)
        assert len(_root_components(g, True)) > 1
    assert tables > 800 and walks > 4000 and triangles > 300, (tables, walks, triangles)


def test_looped_presentations_use_the_looped_component():
    rng = random.Random(17)
    looped_seen = 0
    for _ in range(150):
        g = random_graph(rng, rng.randint(1, 7), p=0.4)
        g = Graph(g.vertices, list(g.edges) + [(v, v) for v in g.vertices if rng.random() < 0.6])
        for v in g.vertices:
            if not g.is_looped(v):
                with pytest.raises(ValueError, match="is not looped"):
                    _presented_component(g, v, looped=True)
                with pytest.raises(GraphFormatError, match="is not looped"):
                    abelianized_for_walkseq(g, v, True)
                continue
            looped_seen += 1
            component = reference_looped_component(g, v)
            table, _ = _presented_component(g, v, looped=True)
            # presented in place: no subgraph is copied
            assert table.graph is g
            assert table.component == frozenset(component)
            # the cache may hand back the table of an equal graph
            cached = abelianized_for_walkseq(g, v, True).table
            assert cached.graph == g and cached.component == frozenset(component)
    assert looped_seen > 300


def test_parity_functor_preserved_by_words():
    # word parity: exponent sum of non-loop generators does not capture
    # parity, but walk length mod 2 is preserved under pruning, so any two
    # equal-class walks have equal parity; sanity-check on random graphs
    rng = random.Random(31)
    from ghom import prune_normalize
    from ghom.walks import Walk
    from conftest import random_walk_seq
    for _ in range(50):
        g = random_graph(rng, 5, no_isolated=True)
        seq = random_walk_seq(rng, g, 9)
        w = Walk(g, seq)
        assert prune_normalize(w).length % 2 == w.length % 2
