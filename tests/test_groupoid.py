import random

import pytest

from ghom import (
    AbelianInvariants,
    Word,
    abelian_invariants,
    bfs_forest,
    cycle_graph,
    diamond_relators,
    fundamental_group_presentation,
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
from ghom.errors import GraphFormatError
from ghom.graphs import Graph
from ghom.groupoid import (
    CoverError,
    DiamondConditionError,
    SpanningForest,
    _presented_component,
    abelianized_for_walkseq,
    free_reduce,
)
from conftest import random_graph


def test_free_reduce():
    assert free_reduce([(0, 1), (0, -1)]) == ()
    assert free_reduce([(0, 1), (1, 1), (1, -1), (0, 1)]) == ((0, 1), (0, 1))


def test_word_requires_reduced():
    with pytest.raises(ValueError):
        Word(((0, 1), (0, -1)))


def test_spanning_forest_validation():
    c5 = cycle_graph(5)
    with pytest.raises(ValueError):
        SpanningForest(c5, (("0", "2"), ("1", None), ("2", None), ("3", None), ("4", None)))
    t = terminal_graph()
    with pytest.raises(ValueError):
        SpanningForest(t, (("v", "v"),))


def test_bfs_forest_deterministic():
    c5 = cycle_graph(5)
    f = bfs_forest(c5, "0")
    assert sorted(f.edges()) == [("0", "1"), ("0", "4"), ("1", "2"), ("3", "4")]
    assert f.parent_of("2") == "1" and f.root_path("2") == ["2", "1", "0"]
    # the parent map built for lookups takes no part in equality or repr
    g = SpanningForest(c5, f.parent)
    assert g == f and hash(g) == hash(f) and repr(g) == repr(f)
    assert "_parent_map" not in repr(f)


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
    from ghom.groupoid import EdgeWords

    g = parse_graph("vertex a\nvertex b\nvertex c\nvertex d\nedge a b\nedge c d")
    forest = bfs_forest(g, "a")
    table = EdgeWords(g, forest, g.component_of("a"))
    with pytest.raises(ValueError):
        table.word_of_seq(("c", "d"))
    # word_of_walk itself presents per component, so each component works
    assert word_of_walk(g, forest, walk(g, ["c", "d"])).is_trivial()


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
            assert table.graph == g.subgraph(component)
            assert table.component == frozenset(component)
            assert abelianized_for_walkseq(g, v, True).table.graph == g.subgraph(component)
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
