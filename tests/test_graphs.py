import itertools
import random
import re

import pytest

from ghom import (
    Graph,
    GraphFormatError,
    GuardExceeded,
    Morphism,
    check_morphism,
    compose,
    cycle_graph,
    identity_morphism,
    parse_graph,
    path_graph,
    product,
    serialize,
    terminal_graph,
)
from ghom.graphs import _root_components
from conftest import find_isomorphism, random_graph


def test_parse_k2():
    g = parse_graph("vertex a\nvertex b\nedge a b")
    assert g.vertices == ("a", "b")
    assert g.edges == frozenset({("a", "b")})


def test_parse_terminal():
    g = parse_graph("vertex v loop")
    assert g.vertices == ("v",)
    assert g.edges == frozenset({("v", "v")})
    assert g.is_looped("v")


def test_parse_undeclared_vertex_is_error():
    with pytest.raises(GraphFormatError) as exc:
        parse_graph("edge a b")
    assert "line 1" in str(exc.value)


def test_parse_duplicate_vertex_reports_line():
    with pytest.raises(GraphFormatError) as exc:
        parse_graph("vertex a\nvertex a")
    assert "line 2" in str(exc.value)


def test_parse_malformed_line():
    with pytest.raises(GraphFormatError) as exc:
        parse_graph("vertex a\nfrobnicate a b")
    assert exc.value.line == 2


def test_parse_loop_via_edge_line():
    g = parse_graph("vertex v\nedge v v")
    assert g.is_looped("v")


def test_comments_and_blanks_ignored():
    g = parse_graph("# a comment\n\nvertex a\n  \nvertex b\nedge a b\n")
    assert len(g.edges) == 1


def test_serialize_roundtrip_exact(example42, wheel, looped_square):
    for g in (example42, wheel, looped_square, terminal_graph(), path_graph(0)):
        assert parse_graph(serialize(g)) == g
    # a graph with no vertices has no lines, not one empty line
    empty = Graph([], [])
    assert serialize(empty) == "" and parse_graph("") == empty


def test_roundtrip_preserves_declaration_order():
    g = parse_graph("vertex z\nvertex a\nedge z a")
    assert parse_graph(serialize(g)).vertices == ("z", "a")


def test_path_graph_degenerate():
    g = path_graph(0)
    assert g.vertices == ("0",) and not g.edges


def test_path_graph_p2():
    g = path_graph(2)
    assert g.vertices == ("0", "1", "2")
    assert g.edges == frozenset({("0", "1"), ("1", "2")})


def test_path_graph_looped_interval():
    g = path_graph(1, looped=True)
    assert g.edges == frozenset({("0", "1"), ("0", "0"), ("1", "1")})
    assert g.is_looped("0") and g.is_looped("1")


def test_path_graph_negative():
    with pytest.raises(ValueError):
        path_graph(-1)


def brute_force_product_edges(g, h):
    # oracle: enumerate every vertex pair against the definition
    out = set()
    for v1, w1 in itertools.product(g.vertices, h.vertices):
        for v2, w2 in itertools.product(g.vertices, h.vertices):
            if g.adjacent(v1, v2) and h.adjacent(w1, w2):
                a, b = f"{v1}|{w1}", f"{v2}|{w2}"
                out.add((a, b) if a <= b else (b, a))
    return out


def test_product_k2_k2_is_two_disjoint_edges():
    k2 = path_graph(1)
    p = product(k2, k2)
    assert len(p.vertices) == 4
    assert p.edges == frozenset({("0|0", "1|1"), ("0|1", "1|0")})
    assert {frozenset(e) for e in p.edges} == {frozenset(e) for e in brute_force_product_edges(k2, k2)}


def test_product_p2_k2_matches_worked_example():
    p = product(path_graph(2), path_graph(1))
    assert p.edges == frozenset(
        {("0|0", "1|1"), ("1|1", "2|0"), ("0|1", "1|0"), ("1|0", "2|1")}
    )


def test_product_with_terminal_is_identity_shape(example42):
    p = product(example42, terminal_graph())
    relabel = {f"{v}|v": v for v in example42.vertices}
    assert [relabel[v] for v in p.vertices] == list(example42.vertices)
    assert {(relabel[u], relabel[v]) for (u, v) in p.edges} == set(example42.edges)


def test_product_refuses_colliding_tokens():
    # a|b + c and a + b|c join to the same token; the error names both pairs
    g = Graph(["a|b", "a"], [("a|b", "a")])
    h = Graph(["c", "b|c"], [("c", "b|c")])
    message = "coordinates ('a|b', 'c') and ('a', 'b|c') both join to vertex 'a|b|c'"
    with pytest.raises(GraphFormatError, match=re.escape(message)):
        product(g, h)


def test_product_matches_oracle_on_random_graphs():
    rng = random.Random(7)
    for _ in range(10):
        g = random_graph(rng, rng.randint(1, 4), loops=rng.random() < 0.5)
        h = random_graph(rng, rng.randint(1, 4), loops=rng.random() < 0.5)
        p = product(g, h)
        assert {frozenset(e) for e in p.edges} == {
            frozenset(e) for e in brute_force_product_edges(g, h)
        }


def test_product_symmetry_via_isomorphism():
    rng = random.Random(11)
    for _ in range(5):
        g = random_graph(rng, 3)
        h = random_graph(rng, 3, loops=True)
        assert find_isomorphism(product(g, h), product(h, g), cap=12) is not None


def test_check_morphism_identity(example42):
    assert check_morphism(identity_morphism(example42))


def test_check_morphism_constant_onto_unlooped_vertex_fails():
    c5 = cycle_graph(5)
    const = Morphism(c5, c5, {v: "0" for v in c5.vertices})
    assert not check_morphism(const)


def test_check_morphism_fold_onto_neighbor_of_pendant(example42):
    fold = Morphism(example42, example42, {"a": "a", "b": "a", "c": "c", "d": "d", "e": "e"})
    assert check_morphism(fold)


def test_check_morphism_b_to_d_is_not_a_morphism(example42):
    # c~b must map to c~d, but c and d are opposite corners of the square
    bad = Morphism(example42, example42, {"a": "a", "b": "d", "c": "c", "d": "d", "e": "e"})
    assert not check_morphism(bad)


def test_check_morphism_requires_total_map():
    k2 = path_graph(1)
    with pytest.raises(ValueError):
        check_morphism(Morphism(k2, k2, {"0": "0"}))


def test_check_morphism_loop_preservation():
    t = terminal_graph()
    k2 = path_graph(1)
    assert not check_morphism(Morphism(t, k2, {"v": "0"}))


def test_composition_closure():
    rng = random.Random(23)
    for _ in range(20):
        g = random_graph(rng, 4, no_isolated=True)
        h = random_graph(rng, 4, loops=True)
        maps_gh = [
            Morphism(g, h, dict(zip(g.vertices, images)))
            for images in itertools.product(h.vertices, repeat=4)
        ]
        good = [m for m in maps_gh if check_morphism(m)][:3]
        idm = identity_morphism(h)
        for m in good:
            assert check_morphism(compose(m, idm))


def test_find_isomorphism_relabel():
    k2 = path_graph(1)
    other = parse_graph("vertex p\nvertex q\nedge p q")
    iso = find_isomorphism(k2, other)
    assert iso is not None and iso.mapping == {"0": "p", "1": "q"}


def test_find_isomorphism_distinguishes_c5_p4():
    assert find_isomorphism(cycle_graph(5), path_graph(4)) is None


def test_find_isomorphism_two_k2_vs_product():
    two_k2 = Graph(["p", "q", "r", "s"], [("p", "q"), ("r", "s")])
    iso = find_isomorphism(two_k2, product(path_graph(1), path_graph(1)))
    assert iso is not None
    assert check_morphism(iso)
    inv = Morphism(iso.target, iso.source, {w: v for v, w in iso.mapping.items()})
    assert check_morphism(inv)


def test_find_isomorphism_respects_loops():
    t = terminal_graph()
    single = path_graph(0)
    assert find_isomorphism(t, single) is None


def test_find_isomorphism_guard():
    big = path_graph(11)
    with pytest.raises(GuardExceeded):
        find_isomorphism(big, big)
    assert find_isomorphism(big, big, cap=20) is not None


def test_duplicate_edges_collapse():
    g = parse_graph("vertex a\nvertex b\nedge a b\nedge b a")
    assert len(g.edges) == 1


def test_vertex_tokens_validated():
    with pytest.raises(GraphFormatError):
        Graph(["bad token"], [])
    with pytest.raises(GraphFormatError):
        Graph([""], [])


# -- components: networkx as the oracle, the old BFS as the order reference ---


def reference_component_of(g: Graph, v: str) -> tuple[str, ...]:
    """`Graph.component_of` as it was before it read the move table's
    roots: a BFS of its own, frozen here as the order reference."""
    if v not in g:
        raise GraphFormatError(f"vertex {v!r} not in graph")
    seen = {v}
    frontier = [v]
    while frontier:
        nxt = []
        for u in frontier:
            for w in g.neighbors(u):
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return tuple(u for u in g.vertices if u in seen)


def reference_components(g: Graph) -> tuple[tuple[str, ...], ...]:
    out, placed = [], set()
    for v in g.vertices:
        if v not in placed:
            comp = reference_component_of(g, v)
            placed.update(comp)
            out.append(comp)
    return tuple(out)


def component_cases() -> list[Graph]:
    """Seeded sparse graphs in shuffled declaration order, with some loops
    and isolated vertices, plus the empty and one-vertex graphs."""
    rng = random.Random(13)
    graphs = [Graph([], []), Graph(["a"], []), Graph(["a"], [("a", "a")])]
    for _ in range(80):
        vs = [f"v{i}" for i in range(rng.randint(2, 12))]
        rng.shuffle(vs)
        edges = [(u, w) for u, w in itertools.combinations(vs, 2) if rng.random() < 0.2]
        edges += [(v, v) for v in vs if rng.random() < 0.4]
        graphs.append(Graph(vs, edges))
    return graphs


@pytest.fixture(scope="module")
def nx():
    return pytest.importorskip("networkx")


def as_networkx(nx, g: Graph, keep=None):
    keep = set(g.vertices if keep is None else keep)
    out = nx.Graph()
    out.add_nodes_from(keep)
    out.add_edges_from((u, v) for u, v in g.edges if u != v and u in keep and v in keep)
    return out


def assert_canonical(g: Graph, comps) -> None:
    """Each component in declaration order; components by least vertex."""
    for comp in comps:
        members = set(comp)
        assert comp == tuple(v for v in g.vertices if v in members)
    firsts = [g.index(c[0]) for c in comps]
    assert firsts == sorted(firsts)


def test_components_match_networkx_and_reference_order(nx):
    for g in component_cases():
        comps = g.components()
        oracle = nx.connected_components(as_networkx(nx, g))
        assert set(map(frozenset, comps)) == set(map(frozenset, oracle))
        assert_canonical(g, comps)
        assert comps == reference_components(g)


def test_component_of_and_is_connected_match_networkx(nx):
    for g in component_cases():
        ng = as_networkx(nx, g)
        for v in g.vertices:
            comp = g.component_of(v)
            assert frozenset(comp) == frozenset(nx.node_connected_component(ng, v))
            assert comp == reference_component_of(g, v)
        assert g.is_connected() == (nx.number_connected_components(ng) <= 1)


def test_looped_root_components_match_networkx(nx):
    for g in component_cases():
        looped = g.looped_vertices()
        comps = _root_components(g, True)
        oracle = nx.connected_components(as_networkx(nx, g, looped))
        assert set(map(frozenset, comps)) == set(map(frozenset, oracle))
        assert_canonical(g, comps)
        assert comps == list(g.subgraph(looped).components())


def test_component_of_unknown_vertex_is_a_format_error():
    g = parse_graph("vertex a\nvertex b\nedge a b\n")
    with pytest.raises(GraphFormatError) as got:
        g.component_of("q")
    with pytest.raises(GraphFormatError) as want:
        reference_component_of(g, "q")
    assert str(got.value) == str(want.value) == "vertex 'q' not in graph"


@pytest.mark.parametrize("query", [
    lambda g: g.adjacent("zz", "0"),
    lambda g: g.adjacent("0", "zz"),
    lambda g: g.neighbors("zz"),
    lambda g: g.degree("zz"),
], ids=["adjacent-first", "adjacent-second", "neighbors", "degree"])
def test_vertex_queries_name_a_vertex_not_in_the_graph(query):
    # the same error as Graph.index, not a bare KeyError
    with pytest.raises(GraphFormatError) as got:
        query(cycle_graph(3))
    assert str(got.value) == "vertex 'zz' not in graph"
