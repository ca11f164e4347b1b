import itertools
import random
import re
import time
from math import comb

import pytest

from ghom import (
    AbelianInvariants,
    Graph,
    GraphFormatError,
    GuardExceeded,
    Morphism,
    Verdict,
    Walk,
    abelian_invariants,
    check_morphism,
    compare_thm66,
    complete_graph,
    cycle_graph,
    edge_path_presentation,
    exponential_graph,
    hom_complex_2skeleton,
    looped_presentation_core,
    parse_graph,
    path_graph,
    terminal_graph,
    walks_homotopic,
)
from ghom import homotopy
from ghom.graphs import _root_components
from ghom.groupoid import _code_invariants, _looped_triangles, _table, abelianized_component
from ghom.homcomplex import ComponentComparison, Complex2, Multihom
from ghom.homotopy import replay_walk_certificate
from ghom.snf import RowLattice
from conftest import assert_same_span, random_graph, reference_diamond_certificate, reference_looped_diamonds


def test_exponential_vacuous_source_is_complete_looped():
    single = path_graph(0)
    c5 = cycle_graph(5)
    e = exponential_graph(single, c5)
    assert len(e.vertices) == 5
    assert all(e.adjacent(u, v) for u in e.vertices for v in e.vertices)


def test_exponential_k2_k2():
    k2 = path_graph(1)
    e = exponential_graph(k2, k2)
    assert len(e.vertices) == 4
    assert set(e.looped_vertices()) == {"0|1", "1|0"}


def test_exponential_c5_k2_looped_count():
    e = exponential_graph(path_graph(1), cycle_graph(5))
    assert len(e.looped_vertices()) == 10


def test_exponential_looped_iff_morphism():
    rng = random.Random(2)
    for _ in range(6):
        g = random_graph(rng, 2, no_isolated=True)
        h = random_graph(rng, 3, loops=rng.random() < 0.5)
        e = exponential_graph(g, h)
        for images in itertools.product(h.vertices, repeat=len(g.vertices)):
            token = "|".join(images)
            m = Morphism(g, h, dict(zip(g.vertices, images)))
            assert e.is_looped(token) == check_morphism(m)


def test_exponential_cap():
    with pytest.raises(GuardExceeded):
        exponential_graph(path_graph(4), complete_graph(6), cap=100)


def exponential_by_definition(g, h):
    """Vertices and edges of h^g from all pairs of set maps."""
    maps = list(itertools.product(h.vertices, repeat=len(g.vertices)))
    pos = {v: i for i, v in enumerate(g.vertices)}

    def linked(f1, f2):
        return all(h.adjacent(f1[pos[x]], f2[pos[y]]) and h.adjacent(f1[pos[y]], f2[pos[x]])
                   for x, y in g.edges)

    tokens = ["|".join(f) for f in maps]
    edges = {(tokens[i], tokens[j]) for i in range(len(maps)) for j in range(i, len(maps))
             if linked(maps[i], maps[j])}
    return tokens, edges


# (source, target)
EXPONENTIAL_PAIRS = {
    "C4, C5": (cycle_graph(4), cycle_graph(5)),
    "K2, C5": (path_graph(1), cycle_graph(5)),
    "C5, K2": (cycle_graph(5), path_graph(1)),
    "K3, K4": (complete_graph(3), complete_graph(4)),
    "P2, C4": (path_graph(2), cycle_graph(4)),
    "C4, looped P1": (cycle_graph(4), path_graph(1, looped=True)),
    "P2, partly looped": (path_graph(2), Graph(["a", "b", "c"], [("a", "a"), ("a", "b"), ("b", "c")])),
    "one vertex, C5": (Graph(["a"], []), cycle_graph(5)),
    "K2 plus isolated vertex, C4": (Graph(["a", "b", "c"], [("a", "b")]), cycle_graph(4)),
    "P2, disconnected": (path_graph(2), Graph(["p", "q", "r", "s"], [("p", "q"), ("r", "s"), ("s", "s")])),
    "C4, terminal": (cycle_graph(4), terminal_graph()),
    "partly looped K2, K2": (Graph(["a", "b"], [("a", "a"), ("a", "b")]), path_graph(1)),
    # mostly maps with no neighbour: 210 of 243 (32 edges), 48 of 64 (64 edges)
    "C5, P2": (cycle_graph(5), path_graph(2)),
    "K3, C4": (complete_graph(3), cycle_graph(4)),
}


@pytest.mark.parametrize("name", EXPONENTIAL_PAIRS)
def test_exponential_matches_definition(name):
    g, h = EXPONENTIAL_PAIRS[name]
    e = exponential_graph(g, h)
    vertices, edges = exponential_by_definition(g, h)
    assert list(e.vertices) == vertices
    assert e.edges == edges


def test_exponential_edge_guard_stops_early():
    # 5**7 = 78,125 maps pass the vertex guard, but there are about 2e8 edges
    start = time.perf_counter()
    with pytest.raises(GuardExceeded, match="edges"):
        exponential_graph(path_graph(6), complete_graph(5))
    assert time.perf_counter() - start < 1.0


def test_hom_complex_k2_k2():
    c = hom_complex_2skeleton(path_graph(1), path_graph(1))
    assert (len(c.cells0), len(c.cells1), len(c.cells2)) == (2, 0, 0)


def test_hom_complex_k2_c5_is_a_circle():
    c = hom_complex_2skeleton(path_graph(1), cycle_graph(5))
    assert (len(c.cells0), len(c.cells1), len(c.cells2)) == (10, 10, 0)
    p = edge_path_presentation(c, c.cells0[0])
    assert abelian_invariants(p) == AbelianInvariants(1, ())


def test_hom_complex_terminal_target(example42):
    c = hom_complex_2skeleton(example42, terminal_graph())
    assert (len(c.cells0), len(c.cells1), len(c.cells2)) == (1, 0, 0)


def test_hom_complex_k2_c4_squares():
    c = hom_complex_2skeleton(path_graph(1), cycle_graph(4))
    assert (len(c.cells0), len(c.cells1), len(c.cells2)) == (8, 8, 2)
    for cell in c.cells2:
        assert cell.dimension_profile() == (2, 2)
        faces = c.boundary[cell]
        assert len(faces) == 4
        corner_count = {f: 0 for f in c.cells0}
        for f in faces:
            for corner in c.boundary[f]:
                corner_count[corner] += 1
        assert sorted(v for v in corner_count.values() if v) == [2, 2, 2, 2]


def test_hom_complex_k2_k4_sphere():
    c = hom_complex_2skeleton(path_graph(1), complete_graph(4))
    assert (len(c.cells0), len(c.cells1), len(c.cells2)) == (12, 24, 14)
    profiles = [cell.dimension_profile() for cell in c.cells2]
    assert profiles.count((3,)) == 8 and profiles.count((2, 2)) == 6
    for cell in c.cells2:
        faces = c.boundary[cell]
        assert len(faces) == 3 if cell.dimension_profile() == (3,) else 4
    p = edge_path_presentation(c, c.cells0[0])
    assert abelian_invariants(p) == AbelianInvariants(0, ())


def test_1cells_have_two_0cell_faces():
    c = hom_complex_2skeleton(path_graph(1), cycle_graph(5))
    for e in c.cells1:
        a, b = c.boundary[e]
        assert a != b and a in c.cells0 and b in c.cells0


def test_0cells_are_looped_vertices_of_exponential():
    for h in (cycle_graph(5), complete_graph(3), terminal_graph()):
        g = path_graph(1)
        c = hom_complex_2skeleton(g, h)
        e = exponential_graph(g, h)
        assert {cell.token() for cell in c.cells0} == set(e.looped_vertices())


def test_1cells_are_spider_pairs():
    g = path_graph(1)
    h = cycle_graph(5)
    c = hom_complex_2skeleton(g, h)
    spider_pairs = set()
    cells0 = [cell.token() for cell in c.cells0]
    for t1 in cells0:
        for t2 in cells0:
            if t1 < t2 and sum(a != b for a, b in zip(t1.split("|"), t2.split("|"))) == 1:
                spider_pairs.add((t1, t2))
    edge_pairs = {tuple(sorted((c.boundary[e][0].token(), c.boundary[e][1].token()))) for e in c.cells1}
    assert edge_pairs == spider_pairs


def test_face_closure_property():
    rng = random.Random(13)
    g = path_graph(1)
    h = complete_graph(4)
    c = hom_complex_2skeleton(g, h)
    cells = list(c.cells1) + list(c.cells2)
    for cell in rng.sample(cells, min(20, len(cells))):
        for i, s in enumerate(cell.assignment):
            if len(s) > 1:
                for drop in s:
                    smaller = tuple(x for x in s if x != drop)
                    a = list(cell.assignment)
                    a[i] = smaller
                    assert reference_valid_multihom(g, h, tuple(a))


# The candidate-by-candidate enumeration that `hom_complex_2skeleton` used
# before it backtracked over neighbour bitmasks, frozen as the reference:
# every set-valued candidate, checked edge by edge through `h.adjacent`.


def reference_valid_multihom(g, h, assignment):
    for (x, y) in g.edges:
        for a in assignment[g.index(x)]:
            for b in assignment[g.index(y)]:
                if not h.adjacent(a, b):
                    return False
    return True


def reference_candidate_total(g, h):
    n, m = len(g.vertices), len(h.vertices)
    total = m ** n
    total += n * comb(m, 2) * m ** (n - 1)
    total += n * comb(m, 3) * m ** (n - 1)
    total += comb(n, 2) * comb(m, 2) ** 2 * (m ** (n - 2) if n >= 2 else 0)
    return total


def reference_hom_complex_2skeleton(g, h):
    """(cells0, cells1, cells2, boundary) as the brute-force enumeration
    lists them."""
    n = len(g.vertices)
    hidx = {v: i for i, v in enumerate(h.vertices)}

    def sort_set(vs):
        return tuple(sorted(vs, key=hidx.__getitem__))

    doubles = [sort_set(p) for p in itertools.combinations(h.vertices, 2)]
    triples = [sort_set(p) for p in itertools.combinations(h.vertices, 3)]

    def cells_with(big_positions):
        fixed = dict(big_positions)
        free_positions = [i for i in range(n) if i not in fixed]
        out = []
        for images in itertools.product(h.vertices, repeat=len(free_positions)):
            assignment = [()] * n
            for i, s in fixed.items():
                assignment[i] = s
            for i, v in zip(free_positions, images):
                assignment[i] = (v,)
            tup = tuple(assignment)
            if reference_valid_multihom(g, h, tup):
                out.append(Multihom(tup))
        return out

    cells0 = cells_with([])
    cells1 = []
    for i in range(n):
        for d in doubles:
            cells1.extend(cells_with([(i, d)]))
    cells2 = []
    for i in range(n):
        for t in triples:
            cells2.extend(cells_with([(i, t)]))
    for i, j in itertools.combinations(range(n), 2):
        for d1 in doubles:
            for d2 in doubles:
                cells2.extend(cells_with([(i, d1), (j, d2)]))

    def restrict(cell, pos, keep):
        a = list(cell.assignment)
        a[pos] = keep
        return Multihom(tuple(a))

    boundary = {}
    for c in cells0:
        boundary[c] = ()
    for c in cells1:
        pos = next(i for i, s in enumerate(c.assignment) if len(s) == 2)
        a, b = c.assignment[pos]
        boundary[c] = (restrict(c, pos, (a,)), restrict(c, pos, (b,)))
    for c in cells2:
        sizes = c.sizes()
        if 3 in sizes:
            pos = sizes.index(3)
            trip = c.assignment[pos]
            faces = tuple(restrict(c, pos, sort_set(pair)) for pair in itertools.combinations(trip, 2))
        else:
            i, j = [k for k, s in enumerate(sizes) if s == 2]
            faces = (
                restrict(c, i, (c.assignment[i][0],)),
                restrict(c, i, (c.assignment[i][1],)),
                restrict(c, j, (c.assignment[j][0],)),
                restrict(c, j, (c.assignment[j][1],)),
            )
        boundary[c] = faces
    return cells0, cells1, cells2, boundary


# every graph on at most 4 vertices that the comparison runs on, as source
# and as target: loops, partial loops, isolated vertices, and declaration
# orders that are not sorted; pairs without morphisms give empty complexes
SMALL_GRAPHS = {
    "point": Graph(["a"], []),
    "looped point": Graph(["a"], [("a", "a")]),
    "two points": Graph(["a", "b"], []),
    "K2": path_graph(1),
    "looped K2": Graph(["a", "b"], [("a", "a"), ("b", "b"), ("a", "b")]),
    "half-looped K2": Graph(["b", "a"], [("a", "a"), ("a", "b")]),
    "P2": path_graph(2),
    "K2 and a point": Graph(["a", "b", "c"], [("a", "b")]),
    "star, centre last": Graph(["b", "c", "a"], [("a", "b"), ("a", "c")]),
    "K3": complete_graph(3),
    "C4": cycle_graph(4),
    "looped C4": Graph(["a", "b", "c", "d"], [(v, v) for v in "abcd"] + [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]),
    "paw, looped tail": Graph(["d", "c", "b", "a"], [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d"), ("d", "d")]),
}


# targets only: five vertices, so triples and (2, 2) cells range over five
FIVE_VERTEX_TARGETS = {
    "C5": cycle_graph(5),
    "partly looped, unsorted": Graph(
        ["d", "b", "e", "a", "c"],
        [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a"), ("a", "c"), ("b", "b"), ("e", "e")],
    ),
}


@pytest.mark.parametrize("source", SMALL_GRAPHS)
def test_hom_complex_matches_brute_force_reference(source):
    g = SMALL_GRAPHS[source]
    for target, h in {**SMALL_GRAPHS, **FIVE_VERTEX_TARGETS}.items():
        c = hom_complex_2skeleton(g, h)
        cells0, cells1, cells2, boundary = reference_hom_complex_2skeleton(g, h)
        assert c.cells0 == tuple(cells0), target
        assert c.cells1 == tuple(cells1), target
        assert c.cells2 == tuple(cells2), target
        assert list(c.boundary.items()) == list(boundary.items()), target


@pytest.mark.parametrize("source", SMALL_GRAPHS)
def test_hom_complex_cap_counts_candidates_not_cells(source):
    # the guard fires exactly when the candidate total passes the cap,
    # however few cells the backtracking builds
    g = SMALL_GRAPHS[source]
    for target, h in SMALL_GRAPHS.items():
        total = reference_candidate_total(g, h)
        with pytest.raises(GuardExceeded, match=f"needs {total} candidates"):
            hom_complex_2skeleton(g, h, cap=total - 1)
        hom_complex_2skeleton(g, h, cap=total)


def test_edge_path_isolated_point_trivial():
    c = hom_complex_2skeleton(path_graph(1), path_graph(1))
    p = edge_path_presentation(c, c.cells0[0])
    assert not p.generators and abelian_invariants(p) == AbelianInvariants(0, ())


def square_subcomplex(kept_faces):
    """Hand-built complex: one B-shaped 2-cell of Hom(K2, C4), its corners
    and the first `kept_faces` of its faces."""
    g, h = path_graph(1), cycle_graph(4)
    full = hom_complex_2skeleton(g, h)
    square = full.cells2[0]
    faces = full.boundary[square]
    corners = tuple(sorted({c0 for f in faces for c0 in full.boundary[f]}, key=lambda m: m.assignment))
    boundary = {c0: () for c0 in corners}
    for f in faces[:kept_faces]:
        boundary[f] = full.boundary[f]
    boundary[square] = faces
    return Complex2(g, h, corners, faces[:kept_faces], (square,), boundary), corners[0]


def test_edge_path_single_square_trivial():
    p = edge_path_presentation(*square_subcomplex(4))
    assert abelian_invariants(p) == AbelianInvariants(0, ())


def test_edge_path_rejects_2cell_missing_a_face():
    with pytest.raises(ValueError):
        edge_path_presentation(*square_subcomplex(3))


EDGE_PATH_PAIRS = {
    "K2-C5": (path_graph(1), cycle_graph(5)),
    "K2-K4": (path_graph(1), complete_graph(4)),
    "P2-C5": (path_graph(2), cycle_graph(5)),
    "K2-C6": (path_graph(1), cycle_graph(6)),
}


@pytest.mark.parametrize("name", EDGE_PATH_PAIRS)
def test_edge_path_generators_match_definition(name):
    # one generator per 1-cell off a spanning tree of the base's component
    c = hom_complex_2skeleton(*EDGE_PATH_PAIRS[name])
    ends = [frozenset(v.token() for v in c.boundary[e]) for e in c.cells1]
    for base in c.cells0:
        comp = {base.token()}
        while any(len(pair & comp) == 1 for pair in ends):
            comp.update(*(pair for pair in ends if pair & comp))
        cells1 = [pair for pair in ends if pair <= comp]
        p = edge_path_presentation(c, base)
        assert len(p.generators) == len(cells1) - len(comp) + 1
        assert all(frozenset(gen.edge) in cells1 for gen in p.generators)


def test_edge_path_refuses_colliding_tokens():
    # K2 -> h has morphisms 0->a|b, 1->c and 0->a, 1->b|c: both named a|b|c
    g = path_graph(1)
    h = Graph(["a|b", "c", "a", "b|c"], [("a|b", "c"), ("a", "b|c")])
    c = hom_complex_2skeleton(g, h)
    message = "coordinates ('a|b', 'c') and ('a', 'b|c') both join to vertex 'a|b|c'"
    with pytest.raises(GraphFormatError, match=re.escape(message)):
        edge_path_presentation(c, c.cells0[0])
    with pytest.raises(GraphFormatError, match=re.escape(message)):
        exponential_graph(g, h)


def test_edge_path_rejects_non_0cell():
    c = hom_complex_2skeleton(path_graph(1), cycle_graph(5))
    with pytest.raises(ValueError):
        edge_path_presentation(c, c.cells1[0])


def test_looped_presentation_square_is_z(looped_square):
    p = looped_presentation_core(looped_square, "a")
    assert len(p.generators) == 1 and not p.relators
    assert abelian_invariants(p) == AbelianInvariants(1, ())


def test_looped_presentation_terminal_trivial():
    p = looped_presentation_core(terminal_graph(), "v")
    assert not p.generators


def test_looped_presentation_k3_trivial():
    k3l = parse_graph(
        "vertex a loop\nvertex b loop\nvertex c loop\nedge a b\nedge b c\nedge a c"
    )
    p = looped_presentation_core(k3l, "a")
    assert abelian_invariants(p) == AbelianInvariants(0, ())


def test_looped_presentation_requires_looped_base():
    with pytest.raises(ValueError):
        looped_presentation_core(cycle_graph(5), "0")


def test_looped_relator_walks_null_homotopic(looped_k2, looped_square):
    for g in (looped_k2, looped_square):
        for seq in reference_looped_diamonds(g, frozenset(g.vertices))[:40]:
            d = walks_homotopic(Walk(g, seq), Walk(g, (seq[0],)), looped_mode=True, max_len=8)
            assert d.verdict is Verdict.EQUAL


def test_looped_refines_unlooped(looped_square):
    # looped-Equal implies unlooped-Equal; the converse fails on the square
    rng = random.Random(14)
    from conftest import random_walk_seq

    for _ in range(30):
        a = Walk(looped_square, random_walk_seq(rng, looped_square, 5))
        seq_b = random_walk_seq(rng, looped_square, 5)
        b = Walk(looped_square, seq_b)
        if (a.start, a.end) != (b.start, b.end):
            continue
        dl = walks_homotopic(a, b, looped_mode=True, max_states=20_000)
        if dl.verdict is Verdict.EQUAL:
            assert walks_homotopic(a, b, max_states=20_000).verdict is Verdict.EQUAL


def test_compare_thm66_k2_c5():
    rep = compare_thm66(path_graph(1), cycle_graph(5))
    assert rep.passed and rep.looped_component_count == 1
    inv = rep.comparisons[0]
    assert inv.looped_invariants == inv.complex_invariants == AbelianInvariants(1, ())


def test_compare_thm66_k2_k2():
    rep = compare_thm66(path_graph(1), path_graph(1))
    assert rep.passed and rep.looped_component_count == 2
    for c in rep.comparisons:
        assert c.looped_invariants == c.complex_invariants == AbelianInvariants(0, ())


def test_compare_thm66_terminal_target(example42):
    rep = compare_thm66(example42, terminal_graph())
    assert rep.passed and rep.looped_component_count == 1
    assert rep.comparisons[0].looped_invariants == AbelianInvariants(0, ())


def test_compare_thm66_k2_c4_two_disks():
    rep = compare_thm66(path_graph(1), cycle_graph(4))
    assert rep.passed and rep.looped_component_count == 2
    for c in rep.comparisons:
        assert c.looped_invariants == c.complex_invariants == AbelianInvariants(0, ())


def test_compare_thm66_k2_c6_two_circles():
    rep = compare_thm66(path_graph(1), cycle_graph(6))
    assert rep.passed and rep.looped_component_count == 2
    for c in rep.comparisons:
        assert c.looped_invariants == c.complex_invariants == AbelianInvariants(1, ())


def test_hom_complex_k2_k5_simply_connected():
    # the K5 target complex is a 3-sphere-like shell: trivial pi1
    c = hom_complex_2skeleton(path_graph(1), complete_graph(5))
    assert (len(c.cells0), len(c.cells1), len(c.cells2)) == (20, 60, 70)
    p = edge_path_presentation(c, c.cells0[0])
    assert abelian_invariants(p) == AbelianInvariants(0, ())


def test_compare_thm66_runs_no_search(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("compare_thm66 ran a homotopy search")

    monkeypatch.setattr(homotopy, "_bidirectional_search", refuse)
    assert compare_thm66(path_graph(2), cycle_graph(5)).passed


def test_compare_thm66_builds_no_lattice_transform(monkeypatch):
    # only invariants are compared, so no Hermite basis is built
    def refuse(self):
        raise AssertionError("compare_thm66 built a Hermite basis")

    monkeypatch.setattr(RowLattice, "_hermite", refuse)
    abelianized_component.cache_clear()
    assert compare_thm66(path_graph(2), cycle_graph(5)).passed
    assert compare_thm66(path_graph(1), complete_graph(4)).passed


@pytest.mark.parametrize("target, root", [("K4", "0|1|0"), ("looped C4", "a|a|a")])
def test_compare_thm66_p2_dense_looped_component(target, root, looped_square):
    # one looped component of 36 vertices: 628 triangle relators over 205 generators
    h = complete_graph(4) if target == "K4" else looped_square
    rep = compare_thm66(path_graph(2), h)
    trivial = AbelianInvariants(0, ())
    assert rep.passed and rep.looped_component_count == rep.complex_component_count == 1
    assert rep.comparisons == (ComponentComparison(root, trivial, trivial),)


def replay_every_looped_diamond(k, comp):
    """Replay the frozen diamond certificate of every looped diamond of one
    looped component of k; returns how many there were."""
    walks = reference_looped_diamonds(k.subgraph(comp), frozenset(comp))
    for seq in walks:
        end = replay_walk_certificate(Walk(k, seq), reference_diamond_certificate(seq), looped_mode=True)
        assert end.seq == seq[:1], seq
    return len(walks)


def test_compare_thm66_replays_every_looped_relator_walk(monkeypatch):
    from ghom import homcomplex

    replayed = []

    def counting(a, steps, looped_mode=False):
        replayed.append(a.seq)
        return replay_walk_certificate(a, steps, looped_mode)

    monkeypatch.setattr(homcomplex, "replay_walk_certificate", counting)
    g, h = path_graph(2), cycle_graph(5)
    rep = compare_thm66(g, h)
    assert rep.passed
    k = exponential_graph(g, h)
    table = _table(k, rep.comparisons[0].representative, looped=True)
    names = table.graph.vertices
    witnesses = [(names[p], names[q], names[s], names[p]) for _, (p, q, s) in _looped_triangles(table)]
    assert len(witnesses) == 20 and replayed == witnesses
    # every diamond walk the triangles stand in for still replays to trivial
    (comp,) = k.subgraph(k.looped_vertices()).components()
    assert replay_every_looped_diamond(k, comp) == 1_410


def test_compare_thm66_components_from_the_looped_roots(looped_square):
    # the looped components, their order, representatives and count, as
    # the looped subgraph's own component search lists them
    pairs = [(path_graph(1), path_graph(1)), (path_graph(1), cycle_graph(6)), (path_graph(1), cycle_graph(4)),
             (Graph(["a", "b", "c"], [("a", "b")]), path_graph(1)), (path_graph(1), looped_square)]
    for g, h in pairs:
        k = exponential_graph(g, h)
        comps = k.subgraph(k.looped_vertices()).components()
        rep = compare_thm66(g, h)
        assert rep.looped_component_count == len(comps)
        assert [c.representative for c in rep.comparisons] == [c[0] for c in sorted(comps, key=min)]


def test_compare_thm66_reports_relator_whose_certificate_fails(monkeypatch, looped_square):
    from ghom import homcomplex

    # H^G of a looped point is H itself, and the looped square has no
    # triangle, so compare replays nothing
    looped_point = Graph(["x"], [("x", "x")])
    assert compare_thm66(looped_point, looped_square).passed
    # inject the witness a b c a behind an empty relator: c and a are not
    # adjacent, so it is no closed walk and its replay fails
    original = homcomplex._looped_triangles
    monkeypatch.setattr(homcomplex, "_looped_triangles", lambda table: original(table) + [((), (0, 1, 2))])
    rep = compare_thm66(looped_point, looped_square)
    assert rep.components_match and all(c.matches for c in rep.comparisons)
    assert rep.uncertified_relators == (("a", "b", "c", "a"),)
    assert not rep.passed


def test_p2_to_looped_c4_relator_walks_replay_to_trivial(looped_square):
    # every looped diamond of the single 36-vertex looped component, taken
    # from the frozen diamond scan so that no Smith normal form is formed
    k = exponential_graph(path_graph(2), looped_square)
    (comp,) = k.subgraph(k.looped_vertices()).components()
    assert replay_every_looped_diamond(k, comp) == 56_220


TWO_K2 = Graph(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
ORACLE_PAIRS = {
    "K2, K2": (path_graph(1), path_graph(1)),
    "K2, K3": (path_graph(1), complete_graph(3)),
    "K2, C5": (path_graph(1), cycle_graph(5)),
    "K2, C4": (path_graph(1), cycle_graph(4)),
    "P2, K3": (path_graph(2), complete_graph(3)),
    "P2, C5": (path_graph(2), cycle_graph(5)),
    "P2, looped C4": (path_graph(2), Graph(list("abcd"), [(v, v) for v in "abcd"] + list(zip("abcd", "bcda")))),
    "K2, 2K2": (path_graph(1), TWO_K2),
    "P2, K4": (path_graph(2), complete_graph(4)),
    "K3, K5": (complete_graph(3), complete_graph(5)),
}


def assert_triangles_match_diamonds(g, h):
    """Every looped component of H^G has the same relator lattice and
    invariants from its triangles as from the frozen scan of its looped
    diamonds, and compare_thm66 reports the triangle invariants; returns
    the number of components."""
    k = exponential_graph(g, h)
    comps = _root_components(k, True)
    triangles = {}
    for comp in comps:
        table = _table(k, comp[0], looped=True)
        width = len(table.generators)
        relators = [w for w, _ in _looped_triangles(table)]
        diamonds = [table.codes_of_seq(d) for d in reference_looped_diamonds(k.subgraph(comp), frozenset(comp))]
        assert_same_span(relators, diamonds, width)
        triangles[comp[0]] = _code_invariants(relators, width)
        assert triangles[comp[0]] == _code_invariants(diamonds, width), comp[0]
    rep = compare_thm66(g, h)
    assert rep.components_match and not rep.uncertified_relators
    assert {c.representative: c.looped_invariants for c in rep.comparisons} == triangles
    return len(comps)


@pytest.mark.parametrize("name", ORACLE_PAIRS)
def test_triangle_invariants_match_diamond_invariants(name):
    assert assert_triangles_match_diamonds(*ORACLE_PAIRS[name]) >= 1


def test_triangle_invariants_match_diamond_invariants_on_random_targets():
    # targets on 3-5 vertices (3-4 from P2), some of them looped
    rng = random.Random(18)
    components = 0
    for _ in range(20):
        g = rng.choice([path_graph(1), path_graph(2)])
        h = random_graph(rng, rng.randint(3, 7 - len(g.vertices)), rng.uniform(0.4, 0.9))
        h = Graph(h.vertices, list(h.edges) + [(v, v) for v in h.vertices if rng.random() < 0.3])
        components += assert_triangles_match_diamonds(g, h)
    assert components >= 25


@pytest.mark.parametrize("g, h, torsion", [
    (path_graph(3), complete_graph(4), ()),
    (cycle_graph(5), complete_graph(4), (2,)),
    (path_graph(2), complete_graph(5), ()),
], ids=["P3-K4", "C5-K4", "P2-K5"])
def test_compare_thm66_at_scale(g, h, torsion):
    # 0.6-1.3 million looped diamond relators, against about 50,000 triangles
    start = time.perf_counter()
    rep = compare_thm66(g, h)
    assert time.perf_counter() - start < 3.0
    assert rep.passed and not rep.uncertified_relators
    assert [c.looped_invariants for c in rep.comparisons] == [AbelianInvariants(0, torsion)]
