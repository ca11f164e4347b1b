import random

import pytest

from ghom import (
    Morphism,
    concat,
    cycle_graph,
    identity_morphism,
    induced_walk,
    invert,
    parse_walk,
    path_graph,
    prune_normalize,
    terminal_graph,
    walk,
)
from ghom.graphs import Graph
from ghom.walks import Walk, apply_lprune, apply_prune
from conftest import prunable_positions, random_graph, random_walk_seq


def test_walk_validates_adjacency(example42):
    with pytest.raises(ValueError):
        walk(example42, ["a", "e"])
    with pytest.raises(ValueError):
        walk(example42, [])
    with pytest.raises(ValueError):
        walk(example42, ["a", "z"])


def test_concat_basic(example42):
    a = walk(example42, ["a", "c"])
    b = walk(example42, ["c", "b"])
    assert concat(a, b).seq == ("a", "c", "b")


def test_concat_identity_walk(example42):
    a = walk(example42, ["a"])
    b = walk(example42, ["a", "c"])
    assert concat(a, b).seq == ("a", "c")
    assert concat(b, walk(example42, ["c"])).seq == ("a", "c")


def test_concat_decomposition_revalidates(example42):
    whole = parse_walk(example42, "a,c,b,c,e")
    left = parse_walk(example42, "a,c")
    right = parse_walk(example42, "c,b,c,e")
    assert concat(left, right) == whole


def test_concat_errors(example42):
    with pytest.raises(ValueError):
        concat(walk(example42, ["a", "c"]), walk(example42, ["b", "c"]))
    other = path_graph(1)
    with pytest.raises(ValueError):
        concat(walk(example42, ["a", "c"]), walk(other, ["0", "1"]))


def test_invert_examples(example42):
    assert invert(walk(example42, ["a", "c", "b"])).seq == ("b", "c", "a")
    assert invert(walk(example42, ["a"])).seq == ("a",)
    c5 = cycle_graph(5)
    assert invert(parse_walk(c5, "0,1,2,3,4,0")).seq == ("0", "4", "3", "2", "1", "0")


def test_prune_normalize_worked_example(example42):
    assert prune_normalize(parse_walk(example42, "a,c,b,c,e")).seq == ("a", "c", "e")


def test_prune_normalize_double_backtrack():
    p2 = path_graph(2)
    assert prune_normalize(parse_walk(p2, "0,1,2,1,0")).seq == ("0",)


def test_prune_normalize_looped_terminal():
    t = terminal_graph()
    assert prune_normalize(parse_walk(t, "v,v,v"), looped_mode=True).seq == ("v",)


def test_prune_normalize_lprune(looped_k2):
    assert prune_normalize(parse_walk(looped_k2, "a,a,b"), looped_mode=True).seq == ("a", "b")


def test_prune_normalize_looped_mode_rejects_unlooped_walk():
    c5 = cycle_graph(5)
    with pytest.raises(ValueError):
        prune_normalize(parse_walk(c5, "0,1"), looped_mode=True)


def test_prune_preserves_endpoints_and_parity():
    rng = random.Random(5)
    for _ in range(200):
        g = random_graph(rng, rng.randint(2, 6), no_isolated=True)
        seq = random_walk_seq(rng, g, 14)
        w = Walk(g, seq)
        nf = prune_normalize(w)
        assert (nf.start, nf.end) == (w.start, w.end)
        assert nf.parity() == w.parity()
        assert not prunable_positions(nf.seq)


def test_looped_prune_preserves_endpoints(looped_square):
    rng = random.Random(6)
    for _ in range(200):
        seq = random_walk_seq(rng, looped_square, 12)
        w = Walk(looped_square, seq)
        nf = prune_normalize(w, looped_mode=True)
        assert (nf.start, nf.end) == (w.start, w.end)
        assert not prunable_positions(nf.seq, looped_mode=True)


def _random_maximal_reduction(seq, rng, looped):
    # oracle: apply uniformly random applicable reductions until stuck,
    # recomputing applicability from scratch each time
    while True:
        moves = [("p", i) for i in range(len(seq) - 2) if seq[i] == seq[i + 2]]
        if looped:
            moves += [("l", i) for i in range(len(seq) - 1) if seq[i] == seq[i + 1]]
        if not moves:
            return seq
        kind, i = rng.choice(moves)
        seq = apply_prune(seq, i) if kind == "p" else apply_lprune(seq, i)


def test_confluence_random_orders_unlooped():
    rng = random.Random(7)
    for _ in range(150):
        g = random_graph(rng, rng.randint(2, 6), no_isolated=True)
        seq = random_walk_seq(rng, g, 16)
        expected = prune_normalize(Walk(g, seq)).seq
        for _ in range(4):
            assert _random_maximal_reduction(seq, rng, looped=False) == expected


def test_confluence_random_orders_looped(looped_square, looped_k2):
    rng = random.Random(8)
    for g in (looped_square, looped_k2):
        for _ in range(100):
            seq = random_walk_seq(rng, g, 14)
            expected = prune_normalize(Walk(g, seq), looped_mode=True).seq
            for _ in range(4):
                assert _random_maximal_reduction(seq, rng, looped=True) == expected


def reference_prune_normalize(seq, looped_mode):
    """Leftmost reduction first, an l-prune winning a positional tie, with
    every applicable reduction rescanned after each step."""
    while moves := prunable_positions(seq, looped_mode):
        kind, i = min(moves, key=lambda m: (m[1], m[0] != "lprune"))
        seq = apply_lprune(seq, i) if kind == "lprune" else apply_prune(seq, i)
    return seq


def test_one_pass_normal_form_matches_leftmost_reference():
    """Both modes, on graphs with some looped vertices; the unlooped-mode
    walks may step along loops."""
    rng = random.Random(16)
    reduced = 0
    for _ in range(500):
        g = random_graph(rng, rng.randint(1, 5), p=0.5)
        g = Graph(g.vertices, list(g.edges) + [(v, v) for v in g.vertices if rng.random() < 0.5])
        for looped_mode in (False, True):
            allowed = [v for v in g.vertices if g.is_looped(v)] if looped_mode else g.vertices
            if not allowed:
                continue
            seq = [rng.choice(allowed)]
            for _ in range(rng.randint(0, 16)):
                nxt = [x for x in g.neighbors(seq[-1]) if x in allowed]
                if not nxt:
                    break
                seq.append(rng.choice(nxt))
            expected = reference_prune_normalize(tuple(seq), looped_mode)
            assert prune_normalize(Walk(g, tuple(seq)), looped_mode).seq == expected
            reduced += len(expected) < len(seq)
    assert reduced > 300


def test_concat_well_defined_on_prune_classes():
    rng = random.Random(9)
    for _ in range(100):
        g = random_graph(rng, rng.randint(2, 5), no_isolated=True)
        a = Walk(g, random_walk_seq(rng, g, 10))
        bseq = random_walk_seq(rng, g, 10)
        b = Walk(g, (a.end,) + tuple(x for x in bseq[1:])) if bseq[0] == a.end else None
        if b is None:
            start = a.end
            nbrs = g.neighbors(start)
            b = Walk(g, (start,) if not nbrs else (start, rng.choice(nbrs)))
        lhs = prune_normalize(concat(a, b))
        rhs = prune_normalize(concat(prune_normalize(a), prune_normalize(b)))
        assert lhs == rhs


def test_inverse_law():
    rng = random.Random(10)
    for _ in range(100):
        g = random_graph(rng, rng.randint(2, 6), no_isolated=True)
        a = Walk(g, random_walk_seq(rng, g, 12))
        assert prune_normalize(concat(a, invert(a))).seq == (a.start,)


def test_induced_walk_identity(example42):
    w = parse_walk(example42, "a,c,b,c,e")
    assert induced_walk(identity_morphism(example42), w) == w


def test_induced_walk_under_fold(example42):
    fold = Morphism(example42, example42, {"a": "a", "b": "a", "c": "c", "d": "d", "e": "e"})
    w = parse_walk(example42, "a,c,b,c,e")
    assert induced_walk(fold, w).seq == ("a", "c", "a", "c", "e")


def test_induced_walk_constant_preserves_entry_count(example42):
    t = terminal_graph()
    const = Morphism(example42, t, {v: "v" for v in example42.vertices})
    w = parse_walk(example42, "a,c,e")
    assert induced_walk(const, w).seq == ("v", "v", "v")


def test_induced_walk_rejects_bad_morphism(example42):
    bad = Morphism(example42, example42, {"a": "a", "b": "d", "c": "c", "d": "d", "e": "e"})
    with pytest.raises(ValueError):
        induced_walk(bad, parse_walk(example42, "a,c"))


def test_induced_walk_functoriality():
    rng = random.Random(12)
    for _ in range(50):
        g = random_graph(rng, 4, no_isolated=True)
        w = Walk(g, random_walk_seq(rng, g, 8))
        idm = identity_morphism(g)
        assert induced_walk(idm, w) == w


def test_induced_walk_respects_composition(example42):
    from ghom import compose

    fold1 = Morphism(example42, example42, {"a": "a", "b": "a", "c": "c", "d": "d", "e": "e"})
    fold2 = Morphism(example42, example42, {"a": "e", "b": "b", "c": "c", "d": "d", "e": "e"})
    both = compose(fold1, fold2)
    w = parse_walk(example42, "a,c,b,c,e")
    assert induced_walk(both, w) == induced_walk(fold2, induced_walk(fold1, w))


def test_induced_commutes_with_concat(example42):
    fold = Morphism(example42, example42, {"a": "a", "b": "a", "c": "c", "d": "d", "e": "e"})
    a = parse_walk(example42, "a,c,b")
    b = parse_walk(example42, "b,c,e")
    assert induced_walk(fold, concat(a, b)) == concat(induced_walk(fold, a), induced_walk(fold, b))


def test_prunable_sends_prunable(example42):
    fold = Morphism(example42, example42, {"a": "a", "b": "a", "c": "c", "d": "d", "e": "e"})
    w = parse_walk(example42, "a,c,b,c,e")  # prunable at 1
    image = induced_walk(fold, w)
    assert prunable_positions(image.seq)


@pytest.mark.parametrize("seq", [["0", "1"], "010"], ids=["list", "str"])
def test_walk_takes_only_a_tuple(seq):
    with pytest.raises(ValueError, match="walk vertices must be a tuple"):
        Walk(path_graph(1), seq)
