import argparse
import random
from math import gcd
from typing import Optional

import pytest

from ghom import Graph, GuardExceeded, Morphism, Walk, identity_morphism, parse_graph
from ghom.cli import build_parser
from ghom.graphs import _move_table
from ghom.homotopy import PruneStep, SpiderStep, _morphism_successors


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


def spider_squares(rng: random.Random, count: int, sizes: tuple[int, int] = (2, 6)):
    """Criterion 10's seeded naturality squares, `count` of them: phi
    includes a random subgraph of a random graph on `sizes` vertices
    (looped with probability 0.3), psi moves one vertex by a spider move,
    and alpha is a random walk of length at most 4."""
    made = 0
    while made < count:
        h = random_graph(rng, rng.randint(*sizes), p=0.5, no_isolated=True, loops=rng.random() < 0.3)
        keep = [v for v in h.vertices if rng.random() < 0.75] or [h.vertices[0]]
        g = h.subgraph(keep)
        if any(not g.neighbors(v) for v in g.vertices):
            continue
        phi = Morphism(g, h, {v: v for v in g.vertices})
        moves = _morphism_successors(_move_table(g, False), _move_table(h, False), tuple(map(h.index, phi.image_tuple())))
        if not moves:
            continue
        state = moves[rng.randrange(len(moves))]
        psi = Morphism(g, h, {v: h.vertices[y] for v, y in zip(g.vertices, state)})
        yield phi, psi, Walk(g, random_walk_seq(rng, g, 4))
        made += 1


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


def reference_relator_walks(table) -> list[tuple[tuple[int, int, int, int], tuple[int, ...]]]:
    """Frozen full relator scan: every closed 4-walk (p, q, r, s, p) of a
    generator table's component, on declaration indices, with the freely
    reduced signed codes of its word; p in declaration order and each
    further step in neighbor order.  The unlooped relators were once the
    nontrivial codes of all of them, each once, in this order."""
    moves = _move_table(table.graph, False)
    nbrs, adjacency, code = moves.neighbors, moves.adjacency, table.codes
    out = []
    for p, from_p in enumerate(code):
        if from_p is None:
            continue
        for q in nbrs[p]:
            for r in nbrs[q]:
                for s in nbrs[p]:
                    if s in adjacency[r]:
                        stack: list[int] = []
                        for c in (from_p.get(q, 0), code[q].get(r, 0), code[r].get(s, 0), code[s].get(p, 0)):
                            if stack and stack[-1] == -c:
                                stack.pop()
                            elif c:
                                stack.append(c)
                        out.append(((p, q, r, s), tuple(stack)))
    return out


def reference_orbit_least(walk: tuple[int, int, int, int]) -> bool:
    """Whether a closed 4-walk is least among its rotations and reversals."""
    turns = [walk[i:] + walk[:i] for i in range(4)]
    return walk == min(turns + [t[::-1] for t in turns])


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


# -- frozen helpers ---------------------------------------------------------
# Small helpers the library once carried and only tests read.


def free_reduce(letters) -> tuple[tuple[int, int], ...]:
    """Free reduction of (generator, +1 or -1) letters."""
    stack: list[tuple[int, int]] = []
    for g, e in letters:
        if stack and stack[-1][0] == g and stack[-1][1] == -e:
            stack.pop()
        else:
            stack.append((g, e))
    return tuple(stack)


def exponent_vector(word, width: int) -> list[int]:
    """The dense exponent sums of a `Word` over `width` generators."""
    vec = [0] * width
    for g, e in word.letters:
        vec[g] += e
    return vec


def prunable_positions(seq, looped_mode: bool = False) -> list[tuple[str, int]]:
    """All applicable reductions as (kind, index) with kind in {prune, lprune}."""
    out = [("prune", i) for i in range(len(seq) - 2) if seq[i] == seq[i + 2]]
    if looped_mode:
        out += [("lprune", i) for i in range(len(seq) - 1) if seq[i] == seq[i + 1]]
    return out


def fold_composite(g: Graph, folds: list[Morphism]) -> Morphism:
    """Composite homotopy-equivalence witness G -> stiff(G) of a fold sequence."""
    composite = identity_morphism(g)
    for f in folds:
        composite = Morphism(g, f.target, {v: f.mapping[composite.mapping[v]] for v in g.vertices})
    return composite


def find_isomorphism(g: Graph, h: Graph, cap: int = 10) -> Optional[Morphism]:
    """Deterministic backtracking isomorphism search for desk-size graphs.

    Returns the lexicographically least bijection in vertex order, or None.
    Guarded: refuses graphs larger than `cap` vertices.
    """
    if len(g.vertices) > cap or len(h.vertices) > cap:
        raise GuardExceeded(
            f"isomorphism search capped at {cap} vertices "
            f"(got {len(g.vertices)} and {len(h.vertices)})"
        )
    if len(g.vertices) != len(h.vertices) or len(g.edges) != len(h.edges):
        return None
    if sorted(g.degree(v) for v in g.vertices) != sorted(h.degree(v) for v in h.vertices):
        return None

    gv = g.vertices
    used: set[str] = set()
    assignment: dict[str, str] = {}

    def feasible(v: str, w: str) -> bool:
        if g.degree(v) != h.degree(w) or g.is_looped(v) != h.is_looped(w):
            return False
        for prev in assignment:
            if g.adjacent(v, prev) != h.adjacent(w, assignment[prev]):
                return False
        return True

    def backtrack(i: int) -> bool:
        if i == len(gv):
            return True
        v = gv[i]
        for w in h.vertices:
            if w in used or not feasible(v, w):
                continue
            assignment[v] = w
            used.add(w)
            if backtrack(i + 1):
                return True
            del assignment[v]
            used.remove(w)
        return False

    if not backtrack(0):
        return None
    return Morphism(g, h, dict(assignment))


# -- frozen dense Smith form ---------------------------------------------------
# Minimal-pivot elimination on dense rows, as the library computed the Smith
# form before it moved onto the reduced Hermite basis.  It shares no code with
# `ghom.snf._insert`, so tests compare the invariants against it.


def _reference_swap_cols(s, i, j):
    for r in s:
        r[i], r[j] = r[j], r[i]


def reference_smith_normal_form(rows: list[list[int]]) -> list[list[int]]:
    """Return S == U @ A @ V for some unimodular U and V: diagonal, with
    nonnegative entries in divisibility order."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    s = [list(r) for r in rows]

    t = 0
    while t < min(m, n):
        # pivot: minimal nonzero absolute value in the trailing submatrix
        pivot = None
        for i in range(t, m):
            for j in range(t, n):
                if s[i][j] != 0 and (pivot is None or abs(s[i][j]) < abs(s[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        s[t], s[pivot[0]] = s[pivot[0]], s[t]
        _reference_swap_cols(s, t, pivot[1])
        # Clear column t completely before row t and the other way round:
        # eliminating with a pivot row or column that still holds old pivots
        # multiplies the trailing entries, and they grew to millions of bits
        # on a random 7x6 matrix.
        _reference_clear_below(s, t)
        while _reference_clear_right(s, t):
            _reference_clear_below(s, t)
        if s[t][t] < 0:
            s[t] = [-a for a in s[t]]
        t += 1

    # the divisibility chain: diag(a, b) is equivalent to diag(gcd, lcm)
    for i in range(t):
        for j in range(i + 1, t):
            a, b = s[i][i], s[j][j]
            s[i][i], s[j][j] = gcd(a, b), a // gcd(a, b) * b
    return s


def _reference_clear_below(s, t):
    """Row operations until column t is zero below the pivot; a nonzero
    remainder becomes the new, smaller pivot."""
    while any(s[i][t] for i in range(t + 1, len(s))):
        for i in range(t + 1, len(s)):
            if s[i][t] != 0:
                k = s[i][t] // s[t][t]
                s[i] = [a - k * b for a, b in zip(s[i], s[t])]
                if s[i][t] != 0:
                    s[i], s[t] = s[t], s[i]


def _reference_clear_right(s, t):
    """Column operations until row t is zero right of the pivot; returns
    whether the pivot column changed, which can refill column t."""
    changed = False
    while any(s[t][t + 1:]):
        for j in range(t + 1, len(s[t])):
            if s[t][j] != 0:
                k = s[t][j] // s[t][t]
                for r in s:
                    r[j] -= k * r[t]
                if s[t][j] != 0:
                    _reference_swap_cols(s, j, t)
                    changed = True
    return changed


def _subparsers(parser: argparse.ArgumentParser) -> dict:
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def cli_verbs() -> list[tuple[str, str, argparse.ArgumentParser]]:
    """(noun, verb, parser) for every verb `ghom.cli.build_parser()` declares."""
    return [
        (noun, verb, parser)
        for noun, noun_parser in _subparsers(build_parser()).items()
        for verb, parser in _subparsers(noun_parser).items()
    ]
