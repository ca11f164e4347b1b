"""Exponential graphs, the 2-skeleton of the multihomomorphism complex,
and the desk-scale comparison of its fundamental group against the looped
walk groupoid of the exponential graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, product as iproduct
from math import comb

from .errors import GuardExceeded
from .graphs import Graph, _joined_tokens, _move_table, _root_components
from .groupoid import (
    AbelianInvariants,
    Presentation,
    _code_invariants,
    _dedupe_words,
    _looped_triangles,
    _table,
    abelian_invariants,
)
from .homotopy import LPruneStep, PruneStep, SpiderStep, replay_walk_certificate
from .walks import Walk

DEFAULT_CAP = 100_000


def _neighbour_masks(h: Graph) -> list[int]:
    """Each vertex's neighbours as a bitmask over declaration indices."""
    return [sum(1 << b for b in ns) for ns in _move_table(h, False).neighbors]


def exponential_graph(g: Graph, h: Graph, cap: int = DEFAULT_CAP) -> Graph:
    """All set maps V(g) -> V(h); f ~ f' iff x~y in g forces f(x) ~ f'(y).

    A vertex is looped exactly when its map is a graph morphism.  Tokens
    are the images in g's vertex order joined with '|'.  The neighbours of
    f are listed directly, as the product over y of the intersection over
    x~y of N_h(f(x)) (all of V(h) when y is isolated), so the work grows
    with the edges, not with the square of the vertices; `cap` bounds
    both counts.
    """
    n, m = len(g.vertices), len(h.vertices)
    if n == 0:
        raise ValueError("source graph has no vertices")
    if m ** n > cap:
        raise GuardExceeded(f"exponential graph would have {m}**{n} vertices (cap {cap})")
    maps = list(iproduct(range(m), repeat=n))
    tokens = _joined_tokens([tuple(h.vertices[a] for a in f) for f in maps])
    hmask = _neighbour_masks(h)
    gnbrs = _move_table(g, False).neighbors
    # a map's token index is its images read as base-m digits, y = 0 first
    weights = [m ** (n - 1 - y) for y in range(n)]
    full = (1 << m) - 1
    # each y's candidate offsets, listed once per candidate mask
    offsets_of = [{} for _ in range(n)]

    edges = []
    for i, f in enumerate(maps):
        choices = []
        for y in range(n):
            mask = full
            for x in gnbrs[y]:
                mask &= hmask[f[x]]
            if not mask:
                break  # no image for y: f has no neighbour
            offs = offsets_of[y].get(mask)
            if offs is None:
                offs = offsets_of[y][mask] = [b * weights[y] for b in range(m) if mask >> b & 1]
            choices.append(offs)
        else:
            for offsets in iproduct(*choices):
                j = sum(offsets)
                if j >= i:
                    edges.append((tokens[i], tokens[j]))
                    if len(edges) > cap:
                        raise GuardExceeded(f"exponential graph would have more than {cap} edges (cap {cap})")
    return Graph(tokens, edges)


# -- multihom cells -------------------------------------------------------------


@dataclass(frozen=True)
class Multihom:
    """Set-valued assignment indexed by the source graph's vertex order."""

    assignment: tuple[tuple[str, ...], ...]

    def sizes(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self.assignment)

    def dimension_profile(self) -> tuple[int, ...]:
        return tuple(sorted((n for n in self.sizes() if n > 1), reverse=True))

    def token(self) -> str:
        """0-cells only: the exponential-graph vertex this morphism names."""
        return "|".join(s[0] for s in self.assignment)


@dataclass(frozen=True)
class Complex2:
    """0/1/2-skeleton of the multihom complex Hom(source, target)."""

    source: Graph = field(repr=False)
    target: Graph = field(repr=False)
    cells0: tuple[Multihom, ...]
    cells1: tuple[Multihom, ...]
    cells2: tuple[Multihom, ...]
    boundary: dict[Multihom, tuple[Multihom, ...]] = field(repr=False)


def _faces(cell: Multihom) -> tuple[Multihom, ...]:
    """A cell's faces: one element dropped from one oversized coordinate,
    positions in ascending order.  A 0-cell has none."""
    a = cell.assignment
    return tuple(
        Multihom(a[:i] + (face,) + a[i + 1:])
        for i, s in enumerate(a) if len(s) > 1
        for face in combinations(s, len(s) - 1)
    )


def hom_complex_2skeleton(g: Graph, h: Graph, cap: int = DEFAULT_CAP) -> Complex2:
    """Enumerate every multihom whose image-size profile is a 0-, 1- or
    2-cell, with boundaries by assignment inclusion.

    A multihom A sends each vertex of g to a non-empty set of vertices of
    h with A(x) x A(y) in E(h) for every edge x~y of g, loops included.
    The cells of one size profile are built by backtracking with one
    placement rule for every position: a candidate set must lie in the
    common neighbourhood of the set placed at each earlier neighbour and,
    at a looped position, in its own.

    `cap` bounds the number of candidate assignments, a closed form, and
    not the number of cells: whether the guard fires depends only on the
    sizes of g and h."""
    n, m = len(g.vertices), len(h.vertices)
    if n == 0:
        raise ValueError("source graph has no vertices")
    total = m ** n
    total += n * comb(m, 2) * m ** (n - 1)
    total += n * comb(m, 3) * m ** (n - 1)
    total += comb(n, 2) * comb(m, 2) ** 2 * (m ** (n - 2) if n >= 2 else 0)
    if total > cap:
        raise GuardExceeded(f"hom complex enumeration needs {total} candidates (cap {cap})")

    names = h.vertices
    hmask = _neighbour_masks(h)
    full = (1 << m) - 1
    gnbrs = _move_table(g, False).neighbors

    def candidates(size: int) -> list[tuple[tuple[str, ...], int, int]]:
        """Each `size`-subset of V(h) in combination order: its names, its
        bitmask and the bitmask of its common neighbours."""
        out = []
        for s in combinations(range(m), size):
            common = full
            for a in s:
                common &= hmask[a]
            out.append((tuple(names[a] for a in s), sum(1 << a for a in s), common))
        return out

    singles, doubles, triples = candidates(1), candidates(2), candidates(3)

    def cells_with(bigs: tuple[int, ...], sets: list[tuple[tuple[str, ...], int, int]]) -> list[Multihom]:
        """All valid multihoms with sets from `sets` at the positions `bigs`
        and singletons elsewhere, in the order `product` lists their
        candidates: `bigs` first, first one outermost, then the others
        ascending.  Once every position is placed by the one rule, A(x) x
        A(y) lies in E(h) for every edge x~y of g."""
        order = list(bigs) + [p for p in range(n) if p not in bigs]
        pools = [sets] * len(bigs) + [singles] * (n - len(bigs))
        earlier = [[y for y in gnbrs[p] if y in order[:k]] for k, p in enumerate(order)]
        looped = [p in gnbrs[p] for p in order]
        assignment: list[tuple[str, ...]] = [()] * n
        commons = [0] * n
        out: list[Multihom] = []

        def place(k: int) -> None:
            if k == n:
                out.append(Multihom(tuple(assignment)))
                return
            p, allowed = order[k], full
            for y in earlier[k]:
                allowed &= commons[y]
            for s, mask, common in pools[k]:
                if mask & allowed == mask and (not looped[k] or mask & common == mask):
                    assignment[p], commons[p] = s, common
                    place(k + 1)

        place(0)
        return out

    cells0 = cells_with((), [])
    cells1 = []
    for i in range(n):
        cells1.extend(cells_with((i,), doubles))
    cells2 = []
    for i in range(n):
        cells2.extend(cells_with((i,), triples))
    for i, j in combinations(range(n), 2):
        cells2.extend(cells_with((i, j), doubles))

    boundary = {c: _faces(c) for c in cells0 + cells1 + cells2}
    return Complex2(g, h, tuple(cells0), tuple(cells1), tuple(cells2), boundary)


# -- edge-path group of the 2-skeleton ----------------------------------------------


def _corner_cycle(cell: Multihom, token: dict) -> tuple[str, ...]:
    """Tokens of a 2-cell's corner 0-cells (`token` by assignment) in boundary
    order, closed up: consecutive corners are the ends of one face 1-cell."""
    big = [k for k, s in enumerate(cell.assignment) if len(s) > 1]
    if len(big) == 1:
        picks = [{big[0]: y} for y in cell.assignment[big[0]]]
    else:
        i, j = big
        (y1, y2), (z1, z2) = cell.assignment[i], cell.assignment[j]
        picks = [{i: y1, j: z1}, {i: y2, j: z1}, {i: y2, j: z2}, {i: y1, j: z2}]
    tokens = [token[tuple((pick.get(k, s[0]),) for k, s in enumerate(cell.assignment))] for pick in picks]
    return tuple(tokens + tokens[:1])


def _skeleton(c: Complex2) -> tuple[Graph, list[Walk]]:
    """The 1-skeleton as a graph on 0-cell tokens, and each 2-cell's corner
    cycle as a closed walk on it, with each 0-cell's token joined once.

    Two 0-cells differ at exactly one source vertex when they bound a
    1-cell, so they bound at most one and the skeleton is simple; a corner
    cycle is a walk exactly when every face 1-cell is present.
    """
    tokens = _joined_tokens([tuple(s[0] for s in v.assignment) for v in c.cells0])
    token = dict(zip((v.assignment for v in c.cells0), tokens))
    skeleton = Graph(tokens, (tuple(token[v.assignment] for v in c.boundary[e]) for e in c.cells1))
    return skeleton, [Walk(skeleton, _corner_cycle(cell, token)) for cell in c.cells2]


def _edge_path_group(skeleton: Graph, cycles: list[Walk], root: str) -> Presentation:
    table = _table(skeleton, root)
    codes = (table.codes_of_seq(w.seq) for w in cycles if w.start in table.component)
    relators = _dedupe_words(codes, len(table.generators))
    return Presentation(table.generators, relators, root)


def edge_path_presentation(c: Complex2, base: Multihom) -> Presentation:
    """Combinatorial fundamental group of base's component, presented like
    pi1 on the 1-skeleton: generators are the 1-cells off its breadth-first
    forest, relators the words of the 2-cells' corner cycles."""
    if base not in c.boundary or any(len(s) != 1 for s in base.assignment):
        raise ValueError("base must be a 0-cell of the complex")
    return _edge_path_group(*_skeleton(c), base.token())


# -- desk-scale comparison -------------------------------------------------------------


@dataclass(frozen=True)
class ComponentComparison:
    representative: str
    looped_invariants: AbelianInvariants
    complex_invariants: AbelianInvariants

    @property
    def matches(self) -> bool:
        return self.looped_invariants == self.complex_invariants


@dataclass(frozen=True)
class HomComparisonReport:
    """What `compare_thm66` found.  `uncertified_relators` holds the looped
    triangles (p, q, s, p), as vertex names of the exponential graph, whose
    null-homotopy certificates failed to replay."""

    components_match: bool
    comparisons: tuple[ComponentComparison, ...]
    looped_component_count: int
    complex_component_count: int
    uncertified_relators: tuple[tuple[str, ...], ...] = ()

    @property
    def passed(self) -> bool:
        return (
            self.components_match
            and all(c.matches for c in self.comparisons)
            and not self.uncertified_relators
        )


def _relator_certificate(seq: tuple[str, ...]) -> tuple:
    """Three moves taking a looped triangle (p, q, s, p) to (p,): spider
    q -> s, which is valid because s ~ p, s ~ s, q ~ s and s is looped;
    then the l-prune of s s and the prune of p s p."""
    _, q, s, _ = seq
    return SpiderStep(1, q, s), LPruneStep(1), PruneStep(0)


def _certified(k: Graph, seq: tuple[str, ...]) -> bool:
    try:
        end = replay_walk_certificate(Walk(k, seq), _relator_certificate(seq), looped_mode=True)
    except ValueError:
        return False
    return end.seq == seq[:1]


def compare_thm66(g: Graph, h: Graph, cap: int = DEFAULT_CAP) -> HomComparisonReport:
    """Compare, component by component, the looped walk groupoid of the
    exponential graph against the edge-path group of the multihom complex:
    component sets must biject and abelian invariants must agree.

    Each looped component is presented by one relator per triangle, which
    gives the same group as its looped diamonds.  Each triangle must also
    replay its closed-form null-homotopy certificate in looped mode, step
    by step: the cross-check that the relator scheme never overshoots.
    """
    k = exponential_graph(g, h, cap=cap)
    delta = hom_complex_2skeleton(g, h, cap=cap)
    skeleton, cycles = _skeleton(delta)

    looped_comps = _root_components(k, True)
    delta_comps = skeleton.components()
    components_match = set(map(frozenset, looped_comps)) == set(map(frozenset, delta_comps))

    comparisons = []
    uncertified = []
    if components_match:
        for comp in sorted(looped_comps, key=min):
            root = comp[0]
            table = _table(k, root, looped=True)
            triangles = _looped_triangles(table)
            looped = _code_invariants((w for w, _ in triangles), len(table.generators))
            ep = _edge_path_group(skeleton, cycles, root)
            comparisons.append(ComponentComparison(root, looped, abelian_invariants(ep)))
            names = k.vertices
            for _, (p, q, s) in triangles:
                seq = (names[p], names[q], names[s], names[p])
                if not _certified(k, seq):
                    uncertified.append(seq)
    return HomComparisonReport(
        components_match,
        tuple(comparisons),
        len(looped_comps),
        len(delta_comps),
        tuple(uncertified),
    )
