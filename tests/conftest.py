import random

import pytest

from ghom import Graph, parse_graph
from ghom.graphs import _move_table
from ghom.homotopy import PruneStep, SpiderStep


EXAMPLE42 = """\
vertex a
vertex b
vertex c
vertex d
vertex e
edge d a
edge a c
edge c e
edge e d
edge c b
"""

WHEEL = """\
vertex a
vertex b
vertex c
vertex d
vertex e
vertex x
edge a b
edge b c
edge c d
edge d e
edge e a
edge x a
edge x b
edge x c
edge x d
edge x e
"""

LOOPED_SQUARE = """\
vertex a loop
vertex b loop
vertex c loop
vertex d loop
edge a b
edge b c
edge c d
edge d a
"""

LOOPED_K2 = """\
vertex a loop
vertex b loop
edge a b
"""


@pytest.fixture
def example42():
    """4-cycle d-a-c-e with pendant edge c-b: the walk-homotopy workhorse."""
    return parse_graph(EXAMPLE42)


@pytest.fixture
def wheel():
    """5-cycle a..e plus hub x."""
    return parse_graph(WHEEL)


@pytest.fixture
def looped_square():
    return parse_graph(LOOPED_SQUARE)


@pytest.fixture
def looped_k2():
    return parse_graph(LOOPED_K2)


def random_graph(rng: random.Random, n: int, p: float = 0.45, loops: bool = False,
                 no_isolated: bool = False) -> Graph:
    """Seeded random graph on vertices v0..v{n-1}."""
    vs = [f"v{i}" for i in range(n)]
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges.append((vs[i], vs[j]))
    if loops:
        edges.extend((v, v) for v in vs)
    if no_isolated:
        have = {u for e in edges for u in e if e[0] != e[1]}
        for i, v in enumerate(vs):
            if v not in have and n > 1:
                other = vs[(i + 1) % n]
                edges.append((v, other))
                have.update((v, other))
    return Graph(vs, edges)


def random_walk_seq(rng: random.Random, g: Graph, max_len: int) -> tuple[str, ...]:
    """Seeded random walk; stops early at vertices with no neighbors."""
    v = rng.choice(g.vertices)
    seq = [v]
    for _ in range(rng.randint(0, max_len)):
        nbrs = g.neighbors(seq[-1])
        if not nbrs:
            break
        seq.append(rng.choice(nbrs))
    return tuple(seq)


def dense_row(codes, width: int) -> list[int]:
    """Exponent sums of a relator's signed codes, e * (i + 1) for the letter
    (i, e), as a dense row."""
    row = [0] * width
    for c in codes:
        row[abs(c) - 1] += 1 if c > 0 else -1
    return row


def sparse_row(codes) -> dict[int, int]:
    """Exponent sums of a relator's signed codes as {column: nonzero sum}."""
    row: dict[int, int] = {}
    for c in codes:
        row[abs(c) - 1] = row.get(abs(c) - 1, 0) + (1 if c > 0 else -1)
    return {j: x for j, x in row.items() if x}


def assert_same_span(codes_a, codes_b, width: int) -> None:
    """Each relator of either list reduces to zero modulo the exponent-row
    lattice of the other: the two lists present groups with the same
    abelianization, column for column."""
    from ghom.snf import RowLattice

    words_a, words_b = (list(dict.fromkeys(map(tuple, codes))) for codes in (codes_a, codes_b))
    for words, other in ((words_a, words_b), (words_b, words_a)):
        lattice = RowLattice([sparse_row(w) for w in other], width)
        for w in words:
            assert lattice.contains(dense_row(w, width)), w


def reference_looped_diamonds(lg: Graph, component: frozenset) -> list[tuple[str, ...]]:
    """Frozen diamond scan: the closed 4-walks (p q r s p) inside a looped
    component with q ~ s, p in declaration order and each further step in
    neighbor order.  Their words are the looped diamond relators."""
    moves = _move_table(lg, False)
    nbrs, adjacency, names = moves.neighbors, moves.adjacency, lg.vertices
    out = []
    for p, v in enumerate(names):
        if v not in component:
            continue
        near_p = adjacency[p]
        for q in nbrs[p]:
            near_q = adjacency[q]
            for r in nbrs[q]:
                out.extend((v, names[q], names[r], names[s], v) for s in nbrs[r] if s in near_p and s in near_q)
    return out


def reference_diamond_certificate(seq: tuple[str, ...]) -> tuple:
    """Frozen closed-form certificate taking a looped diamond (p, q, r, s, p)
    with q ~ s to (p,): spider q -> s, then two prunes.  Valid because
    s ~ p, s ~ r, q ~ s and s is looped."""
    _, q, _, s, _ = seq
    return ((SpiderStep(1, q, s),) if q != s else ()) + (PruneStep(1), PruneStep(0))
