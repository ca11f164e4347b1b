"""Presentations of walk groups and fundamental groups.

Generators come from edges outside a spanning forest (walk group: loop
edges contribute order-2 generators); the fundamental group adds one
relator per closed 4-walk up to rotation and reversal, the looped
fundamental group one per triangle.
Abelian invariants are computed exactly (unit-pivot elimination, then
Smith normal form), and the relator lattice doubles as the negative oracle
for homotopy decisions: homotopic walks can never have different
abelianized images, read as residues modulo the lattice's reduced Hermite
basis.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import compress, islice, pairwise
from typing import Iterable, Optional, Sequence

from .errors import GraphFormatError
from .graphs import Graph, _bfs, _move_table
from .snf import RowLattice, _sparse_invariants
from .walks import Walk


# -- words ------------------------------------------------------------------


@dataclass(frozen=True)
class Word:
    """Freely reduced word: letters are (generator index, +1 or -1)."""

    letters: tuple[tuple[int, int], ...]

    def __post_init__(self):
        letters = self.letters
        if not isinstance(letters, tuple):
            raise ValueError("word letters must be a tuple")
        prev = None
        for letter in letters:
            if not (isinstance(letter, tuple) and len(letter) == 2 and type(letter[0]) is int
                    and letter[0] >= 0 and type(letter[1]) is int and letter[1] in (1, -1)):
                raise ValueError(f"bad word letter {letter!r}")
            if prev is not None and prev[0] == letter[0] and prev[1] == -letter[1]:
                raise ValueError("word is not freely reduced")
            prev = letter

    def inverse(self) -> "Word":
        return Word(tuple((g, -e) for g, e in reversed(self.letters)))

    def is_trivial(self) -> bool:
        return not self.letters

    def signed_indices(self) -> list[int]:
        """1-based signed generator indices (JSON form)."""
        return [e * (g + 1) for g, e in self.letters]


def _words(codes: Iterable[tuple[int, ...]], width: int) -> tuple[Word, ...]:
    """Words of signed codes over `width` generators: i + 1 reads (i, 1) and
    -(i + 1) reads (i, -1)."""
    letter = {e * (i + 1): (i, e) for i in range(width) for e in (1, -1)}
    return tuple(Word(tuple(map(letter.__getitem__, w))) for w in codes)


def _reduce_codes(codes: Iterable[int]) -> tuple[int, ...]:
    """Free reduction of signed codes (0 for no letter): a code cancels its
    negation."""
    stack: list[int] = []
    for c in codes:
        if stack and stack[-1] == -c:
            stack.pop()
        elif c:
            stack.append(c)
    return tuple(stack)


# -- spanning forests ---------------------------------------------------------


def _chain(up: Sequence[int], p: int) -> list[int]:
    """Indices from p up to its root along a parent list (-1 for a root)."""
    path = [p]
    while up[path[-1]] >= 0:
        path.append(up[path[-1]])
    return path


@dataclass(frozen=True)
class SpanningForest:
    """Acyclic spanning edge set given by a parent map; loops never occur.

    parent[v] is None for the root of v's component.  `_up` is the same map
    on declaration indices, -1 for a root, built and checked once against
    the graph's unlooped move table.
    """

    graph: Graph
    parent: tuple[tuple[str, Optional[str]], ...]
    _up: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        g = self.graph
        adjacency = _move_table(g, False).adjacency
        up: list[Optional[int]] = [None] * len(g.vertices)
        for child, p in self.parent:
            if child not in g or up[g.index(child)] is not None:
                raise ValueError("forest must cover every vertex exactly once")
            if p is not None and p not in g:
                raise ValueError(f"forest parent {p!r} is not a vertex")
            c, q = g.index(child), -1 if p is None else g.index(p)
            if q == c:
                raise ValueError("loops cannot be forest edges")
            if q >= 0 and q not in adjacency[c]:
                raise ValueError(f"forest edge {child!r}-{p!r} is not a graph edge")
            up[c] = q
        if None in up:
            raise ValueError("forest must cover every vertex exactly once")
        # follow each parent chain until it leaves the roots or meets a vertex
        # an earlier chain reached, so every vertex is walked once; meeting
        # this chain's own vertex again is a cycle
        reached_from = [-1] * len(up)
        for v in range(len(up)):
            cur = v
            while cur >= 0 and reached_from[cur] < 0:
                reached_from[cur] = v
                cur = up[cur]
            if cur >= 0 and reached_from[cur] == v:
                raise ValueError("forest parent map has a cycle")
        object.__setattr__(self, "_up", tuple(up))

    def parent_of(self, v: str) -> Optional[str]:
        p = self._up[self.graph.index(v)]
        return None if p < 0 else self.graph.vertices[p]

    def edges(self) -> frozenset[tuple[str, str]]:
        names = self.graph.vertices
        return frozenset((names[min(c, p)], names[max(c, p)]) for c, p in enumerate(self._up) if p >= 0)

    def root_path(self, v: str) -> list[str]:
        return list(map(self.graph.vertices.__getitem__, _chain(self._up, self.graph.index(v))))

    def tree_seq(self, u: str, v: str) -> tuple[str, ...]:
        """The unique forest walk from u to v (same component required)."""
        pu, pv = _chain(self._up, self.graph.index(u)), _chain(self._up, self.graph.index(v))
        if pu[-1] != pv[-1]:
            raise ValueError(f"{u!r} and {v!r} are in different forest components")
        anc = set(pu)
        i = 0
        while pv[i] not in anc:
            i += 1
        return tuple(map(self.graph.vertices.__getitem__, pu[: pu.index(pv[i]) + 1] + pv[:i][::-1]))


def _forest(g: Graph, up: list[int]) -> SpanningForest:
    """The forest of a `_bfs` parent list on g's declaration indices."""
    names = g.vertices
    return SpanningForest(g, tuple((v, None if p < 0 else names[p]) for v, p in zip(names, up)))


def bfs_forest(g: Graph, base: Optional[str] = None) -> SpanningForest:
    """Breadth-first forest in vertex order; `base` roots its component."""
    starts = ([] if base is None else [g.index(base)]) + list(range(len(g.vertices)))
    return _forest(g, _bfs(_move_table(g, False).neighbors, starts)[0])


def path_forest(g: Graph, sequence: Iterable[str]) -> SpanningForest:
    """Forest whose single tree is the given vertex path (testing aid)."""
    seq = list(sequence)
    if not seq:
        raise ValueError("a path forest needs at least one vertex")
    parent: dict[str, Optional[str]] = {seq[0]: None}
    for a, b in zip(seq, seq[1:]):
        parent[b] = a
    for v in g.vertices:
        parent.setdefault(v, None)
    return SpanningForest(g, tuple((v, parent[v]) for v in g.vertices))


# -- generators and edge words -------------------------------------------------


@dataclass(frozen=True)
class Generator:
    label: str
    edge: Optional[tuple[str, str]]
    is_loop: bool = False


class EdgeWords:
    """Translation from walks to words for one component and one forest: a
    SpanningForest of the graph, or a `_bfs` parent list taken as it is.

    Unlooped mode: generators are non-forest edges; loop edges become
    order-2 generators.  Looped mode: the walk (v v) is trivial, so loop
    edges translate to nothing and only non-forest non-loop edges generate.

    Letters are signed codes on declaration indices: `codes[p][q]` is
    e * (i + 1) for the letter (i, e) of the edge p->q.  A plain edge reads
    +1 from its earlier-declared end and -1 back, a loop reads +1.  There is
    a row for each component vertex only, holding its generator edges.
    """

    def __init__(self, graph: Graph, forest: SpanningForest | list[int], component: Iterable[str], looped_mode: bool = False):
        if isinstance(forest, SpanningForest):
            if forest.graph != graph:
                raise ValueError("forest is not a spanning forest of the given graph")
            self.forest, forest = forest, forest._up
        self.graph = graph
        self._up = up = forest
        self.component = frozenset(component)
        self.looped_mode = looped_mode
        names, index = graph.vertices, graph.index
        moves = _move_table(graph, False)
        codes: list[Optional[dict[int, int]]] = [None] * len(names)
        for v in self.component:
            codes[index(v)] = {}
        rows = [(p, row) for p, row in enumerate(codes) if row is not None]
        gens: list[Generator] = []
        # plain edges p~q, p < q, in declaration order, then the loops
        for p, row in rows:
            for q in moves.neighbors[p]:
                if q > p and codes[q] is not None and up[q] != p and up[p] != q:
                    gens.append(Generator(f"e{len(gens) + 1}", (names[p], names[q])))
                    row[q], codes[q][p] = len(gens), -len(gens)
        if not looped_mode:
            for p, row in rows:
                if moves.looped[p]:
                    gens.append(Generator(f"e{len(gens) + 1}", (names[p], names[p]), is_loop=True))
                    row[p] = len(gens)
        self.generators = tuple(gens)
        self.codes = codes

    @cached_property
    def forest(self) -> SpanningForest:
        """The forest as a SpanningForest, built on first use from a parent list."""
        return _forest(self.graph, self._up)

    def indices(self, seq: tuple[str, ...]) -> list[int]:
        """Declaration indices of a walk that stays in the component."""
        for v in seq:
            if v not in self.component:
                raise ValueError(f"walk vertex {v!r} leaves the presented component")
        return list(map(self.graph.index, seq))

    def codes_of_seq(self, seq: tuple[str, ...]) -> tuple[int, ...]:
        """Freely reduced signed codes of a walk in the component."""
        ix, codes = self.indices(seq), self.codes
        return _reduce_codes(codes[p].get(q, 0) for p, q in zip(ix, ix[1:]))

    def word_of_seq(self, seq: tuple[str, ...]) -> Word:
        return _words([self.codes_of_seq(seq)], len(self.generators))[0]


def word_of_walk(g: Graph, forest: SpanningForest, w: Walk, looped_mode: bool = False) -> Word:
    """Word of a walk over the generators determined by (graph, forest)."""
    if w.graph != g:
        raise ValueError("walk does not live in the given graph")
    comp = g.component_of(w.start)
    return EdgeWords(g, forest, comp, looped_mode).word_of_seq(w.seq)


# -- presentations -------------------------------------------------------------


@dataclass(frozen=True)
class Presentation:
    generators: tuple[Generator, ...]
    relators: tuple[Word, ...]
    basepoint: str

    def __post_init__(self):
        n = len(self.generators)
        for w in self.relators:
            for g, _ in w.letters:
                if not 0 <= g < n:
                    raise ValueError("relator mentions an undeclared generator")


@dataclass(frozen=True)
class AbelianInvariants:
    rank: int
    torsion: tuple[int, ...]

    def __str__(self) -> str:
        return f"rank {self.rank}, torsion [{', '.join(map(str, self.torsion))}]"


def _exponent_row(codes: Iterable[int]) -> dict[int, int]:
    """Exponent sums of signed codes as a sparse row: generator -> nonzero sum."""
    row: dict[int, int] = {}
    for c in codes:
        g = abs(c) - 1
        row[g] = row.get(g, 0) + (1 if c > 0 else -1)
    return {g: x for g, x in row.items() if x} if 0 in row.values() else row


def _code_invariants(relators: Iterable[Iterable[int]], width: int) -> AbelianInvariants:
    """Abelian invariants of the group on `width` generators with relators
    given as signed codes."""
    rank, torsion = _sparse_invariants([_exponent_row(w) for w in relators], width)
    return AbelianInvariants(rank, tuple(torsion))


def abelian_invariants(p: Presentation) -> AbelianInvariants:
    return _code_invariants((w.signed_indices() for w in p.relators), len(p.generators))


def _dedupe_words(codes: Iterable[tuple[int, ...]], width: int) -> tuple[Word, ...]:
    """Words of the nontrivial code tuples, each once, in first-seen order."""
    return _words(dict.fromkeys(w for w in codes if w), width)


def _table(g: Graph, v: str, looped: bool = False, keep: Optional[Sequence[bool]] = None) -> EdgeWords:
    """Edge words of v's component over g itself, through the vertices
    `keep` admits (all if None), or the looped ones in looped mode: the
    forest is `_bfs`'s parent list from v alone, as it is, and a vertex it
    does not reach is a root of its own and has no row."""
    moves, i = _move_table(g, False), g.index(v)
    keep = moves.looped if looped else keep
    if looped and not keep[i]:
        raise ValueError(f"vertex {v!r} is not looped")
    up, root = _bfs(moves.neighbors, [i], keep)
    return EdgeWords(g, up, (u for u, r in zip(g.vertices, root) if r is not None), looped_mode=looped)


def _loop_squares(table: EdgeWords) -> tuple[tuple[int, ...], ...]:
    return tuple((i + 1, i + 1) for i, gen in enumerate(table.generators) if gen.is_loop)


def _two_codes(a: int, b: int) -> tuple[int, ...]:
    """Free reduction of at most two signed codes (0 for no letter)."""
    if not a:
        return (b,) if b else ()
    if not b:
        return (a,)
    return () if a == -b else (a, b)


def _least_walk(walk: tuple[int, int, int, int]) -> bool:
    """Whether a closed 4-walk's index tuple is least among its 4 rotations
    and their reversals."""
    back = walk[::-1]
    return all(walk <= w[i:] + w[:i] for w in (walk, back) for i in range(4))


def _relator_words(table: EdgeWords) -> tuple[tuple[int, ...], ...]:
    """Signed codes of the words of the closed 4-walks (p, q, r, s, p) of
    the table's component, one walk per orbit under rotation and reversal:
    the one whose index tuple is least among its 8.  A rotation's word is a
    conjugate, and a reversal's is the inverse up to squares of loop
    letters (a loop reads +1 both ways); the square of the loop at p is,
    up to conjugacy, the word of a kept walk (p, p, p, s) or (s, p, p, p).
    So the kept words have the normal closure and the relator lattice of
    all of them.  They come in the order of the full scan (p in declaration
    order, each further step in neighbor order, vertices outside the
    component skipped); trivial and repeated words are dropped.

    The least walks are listed, not filtered.  p is least, so one pass per
    p groups the 2-walks p q r with q >= p by r, taking r > p, and r = p
    only at a looped p: with q, s != p the walk p q p s p has a trivial
    word.  A walk joins a 2-walk p q r to the reversal r s p of one in its
    group with s >= q; for q > p that makes it least, and only a loop at p
    (q = p) needs the full comparison.  Runs on declaration indices and
    the table's signed `codes` (0 for no letter): each 2-walk's codes are
    reduced once, so only the codes at the junction can cancel."""
    moves = _move_table(table.graph, False)
    nbrs, looped = moves.neighbors, moves.looped
    code = table.codes
    seen: set[tuple[int, ...]] = {()}
    out = []
    for p, from_p in enumerate(code):
        if from_p is None:
            continue
        low = p if looped[p] else p + 1
        heads = []  # (q, r, codes of p q r, q's place in r's group), in walk order
        groups = {}  # r -> [(q, codes of r q p, what would cancel its first code)], q ascending
        ns = nbrs[p]
        for q in ns[bisect_left(ns, p):]:
            from_q, nq = code[q], nbrs[q]
            if from_q is None:
                continue
            a, d = from_p.get(q, 0), from_q.get(p, 0)
            for r in nq[bisect_left(nq, low):]:
                from_r = code[r]
                if from_r is None:
                    continue
                group = groups.setdefault(r, [])
                heads.append((q, r, _two_codes(a, from_q.get(r, 0)), len(group)))
                tail = _two_codes(from_r.get(q, 0), d)
                group.append((q, tail, -tail[0] if tail else None))
        for q, r, head, at in heads:
            last = head[-1] if head else 0
            for s, tail, cancel in islice(groups[r], at, None):
                if q == p and not _least_walk((p, p, r, s)):
                    continue
                if last == cancel:
                    # the junction cancels; what is left is at most one
                    # code from each side
                    key = _two_codes(head[0] if len(head) == 2 else 0, tail[1] if len(tail) == 2 else 0)
                else:
                    key = head + tail
                if key not in seen:
                    seen.add(key)
                    out.append(key)
    return tuple(out)


def _looped_triangles(table: EdgeWords) -> list[tuple[tuple[int, ...], tuple[int, int, int]]]:
    """Signed codes of the words of the triangles p < q < s (declaration
    indices) of a looped table's component, read as the closed walk
    (p, q, s, p), each with its triangle: p in declaration order, q and s
    in neighbor order, rows and columns outside the component skipped.

    They present the looped fundamental group, as the looped diamonds
    (closed 4-walks p q r s p with q ~ s) do.  A triangle is the diamond
    (p, q, s, s, p), its loop letter dropped.  The diamond (p, q, r, s, p)
    with q ~ s is the product e(pq) w(q r s q) e(pq)^-1 w(p q s p) of
    conjugates of triangles, and the other closed 3-walks around a triangle
    have conjugate or inverse words, or trivial ones if they repeat a
    vertex.  Three distinct edges never share a generator, so no code
    cancels, and are never all forest edges, so no word is trivial.  Two
    triangles share at most one edge, and it is never the only generator
    edge of both (that would close a forest cycle), so no word repeats."""
    moves = _move_table(table.graph, False)
    nbrs, adjacency = moves.neighbors, moves.adjacency
    code = table.codes
    out = []
    for p, from_p in enumerate(code):
        if from_p is None:
            continue
        near = adjacency[p]
        for q in nbrs[p]:
            from_q = code[q]
            if q > p and from_q is not None:
                a = from_p.get(q, 0)
                for s in nbrs[q]:
                    if s > q and s in near and code[s] is not None:
                        out.append((tuple(c for c in (a, from_q.get(s, 0), code[s].get(p, 0)) if c), (p, q, s)))
    return out


def walk_group_presentation(g: Graph, v: str) -> Presentation:
    """Walk group of v's component: free on non-forest edges, except loop
    generators square to the identity."""
    table = _table(g, v)
    return Presentation(table.generators, _words(_loop_squares(table), len(table.generators)), v)


def diamond_relators(g: Graph, forest: SpanningForest, v: str) -> list[Word]:
    """Words of the closed 4-walks in v's component, one per orbit under
    rotation and reversal (see `_relator_words`); trivial and duplicate
    words dropped."""
    table = EdgeWords(g, forest, g.component_of(v))
    return list(_words(_relator_words(table), len(table.generators)))


def _presented_component(
    g: Graph, v: str, looped: bool, keep: Optional[Sequence[bool]] = None
) -> tuple[EdgeWords, tuple[tuple[int, ...], ...]]:
    """Generator table and relator codes of the (looped) fundamental group
    of v's component, through the vertices `keep` admits (see `_table`):
    what a presentation, the abelianized oracle and a van Kampen part need.
    A looped component is presented by its triangles.  Unlooped, a loop
    square e.e is also the word of the kept closed 4-walk (v, v, v, u, v)
    when u follows v, so only its first occurrence is kept."""
    table = _table(g, v, looped, keep)
    if not looped:
        return table, tuple(dict.fromkeys(_loop_squares(table) + _relator_words(table)))
    return table, tuple(w for w, _ in _looped_triangles(table))


def fundamental_group_presentation(g: Graph, v: str) -> Presentation:
    """Walk-group generators plus one relator per closed 4-walk up to
    rotation and reversal."""
    table, relators = _presented_component(g, v, looped=False)
    return Presentation(table.generators, _words(relators, len(table.generators)), v)


def looped_presentation_core(g: Graph, v: str) -> Presentation:
    """Derived presentation of the looped fundamental group at a looped
    vertex, on its looped component in place: loop edges contribute
    nothing, and there is one relator per triangle (see `_looped_triangles`)."""
    table, relators = _presented_component(g, v, looped=True)
    return Presentation(table.generators, _words(relators, len(table.generators)), v)


# -- abelianized component data (negative homotopy oracle) ---------------------


class AbelianizedComponent:
    """Abelianization of the (looped) fundamental group of one component,
    exposing canonical residues of walk words: a residue is the reduction
    of the word's exponent vector modulo the relator lattice's reduced
    Hermite basis, so it depends on the lattice alone, not on the relator
    list that spans it."""

    def __init__(self, table: EdgeWords, relators: tuple[tuple[int, ...], ...]):
        self.table = table
        width = self.width = len(table.generators)
        self.lattice = RowLattice([_exponent_row(w) for w in relators], width)

    def residue(self, seq: tuple[str, ...]) -> tuple[int, ...]:
        return self.index_residue(self.table.indices(seq))

    def index_residue(self, seq: Iterable[int]) -> tuple[int, ...]:
        """Residue of a walk of the component in declaration indices of the
        presented graph, with exponents summed straight off its edges: free
        reduction does not change exponent sums."""
        vec = [0] * self.width
        codes = self.table.codes
        for p, q in pairwise(seq):
            c = codes[p].get(q)
            if c is not None:
                if c > 0:
                    vec[c - 1] += 1
                else:
                    vec[-c - 1] -= 1
        return self.lattice.residue(vec)

    def separates(self, seq_a: tuple[str, ...], seq_b: tuple[str, ...]):
        ra, rb = self.residue(seq_a), self.residue(seq_b)
        return ra != rb, ra, rb

    def invariants(self) -> AbelianInvariants:
        """Abelian invariants of the presented group, from unit-pivot
        elimination on the relator rows: the Hermite basis that serves the
        residues is not built for them."""
        rank, torsion = self.lattice.invariants()
        return AbelianInvariants(rank, tuple(torsion))


@lru_cache(maxsize=256)
def abelianized_component(graph: Graph, root: str, looped: bool) -> AbelianizedComponent:
    return AbelianizedComponent(*_presented_component(graph, root, looped))


def abelianized_for_walkseq(graph: Graph, start: str, looped: bool) -> AbelianizedComponent:
    """Cached abelianized data for the component containing `start`."""
    root = _move_table(graph, looped).roots[graph.index(start)]
    if root is None:
        raise GraphFormatError(f"vertex {start!r} is not looped")
    return abelianized_component(graph, graph.vertices[root], looped)


# -- van Kampen amalgamation -----------------------------------------------------


class CoverError(ValueError):
    """The two vertex sets do not form an admissible cover."""


class DiamondConditionError(CoverError):
    """A proper diamond lies in neither part."""

    def __init__(self, walk_seq: tuple[str, ...]):
        super().__init__(f"diamond {','.join(walk_seq)} lies in neither part")
        self.walk_seq = walk_seq


def van_kampen_presentation(g: Graph, part1: Iterable[str], part2: Iterable[str], v: str) -> Presentation:
    """Amalgamated presentation of the fundamental group over a two-part
    vertex cover, each part and the intersection presented on g itself.

    Every proper diamond must lie inside one induced part.  Disconnected
    intersections are handled groupoid-style: each intersection component
    beyond the basepoint's contributes one connecting generator.
    """
    v1, v2 = set(part1), set(part2)
    for name, vs in (("part1", v1), ("part2", v2)):
        for u in vs:
            if u not in g:
                raise CoverError(f"{name} vertex {u!r} not in graph")
    if v1 | v2 != set(g.vertices):
        missing = sorted(set(g.vertices) - (v1 | v2))
        raise CoverError(f"parts do not cover the graph (missing {missing})")
    if v not in v1 & v2:
        raise CoverError(f"basepoint {v!r} must lie in both parts")
    # the proper diamonds (p q r s p), p != r and q != s, each rotation and
    # reversal apart, p in declaration order and each further step in
    # neighbor order; a degenerate one has a trivial word and does not
    # matter here
    moves = _move_table(g, False)
    nbrs = moves.neighbors
    in1, in2 = [u in v1 for u in g.vertices], [u in v2 for u in g.vertices]
    for p, near_p in enumerate(moves.adjacency):
        for q in nbrs[p]:
            for r in nbrs[q]:
                one, two = in1[p] and in1[q] and in1[r], in2[p] and in2[q] and in2[r]
                if r == p or (one and two):
                    continue  # degenerate, or every s lies in a part with p q r
                for s in nbrs[r]:
                    if s != q and s in near_p and not (one and in1[s] or two and in2[s]):
                        raise DiamondConditionError(tuple(g.vertices[x] for x in (p, q, r, s, p)))
    # a part is connected when v's table reaches all of it
    (table1, relators1), (table2, relators2) = (_presented_component(g, v, False, keep) for keep in (in1, in2))
    if len(table1.component) < len(v1) or len(table2.component) < len(v2):
        raise CoverError("both parts must induce connected subgraphs")
    n1, n2 = len(table1.generators), len(table2.generators)

    def shift(codes: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(c + n1 if c > 0 else c - n1 for c in codes)

    gens = [Generator(f"e{i + 1}", gn.edge, gn.is_loop) for i, gn in enumerate(table1.generators + table2.generators)]
    relators = list(relators1) + list(map(shift, relators2))

    # intersection components off one breadth-first forest grown from v, then
    # each vertex in declaration order: v's first, the rest by least vertex,
    # each rooted there, where its generators' closed walks start
    both = [a and b for a, b in zip(in1, in2)]
    up = _bfs(nbrs, [g.index(v), *range(len(nbrs))], both)[0]
    walks: dict[int, list[tuple[str, ...]]] = {g.index(v): []}
    walks.update((p, []) for p, b in enumerate(both) if b and up[p] < 0)
    for gen in EdgeWords(g, up, compress(g.vertices, both)).generators:
        to_p, to_q = (_chain(up, g.index(x)) for x in gen.edge)
        walks[to_p[-1]].append(tuple(map(g.vertices.__getitem__, to_p[::-1] + to_q)))
    gens.extend(Generator(f"t{ci + 1}", None) for ci in range(1, len(walks)))

    for ci, comp_walks in enumerate(walks.values()):
        t = (n1 + n2 + ci,) if ci else ()  # comp's connecting generator, as a code
        # no conjugation by the forest paths v -> root: forest edges carry no code
        for wseq in comp_walks:
            w1, w2 = table1.codes_of_seq(wseq), shift(table2.codes_of_seq(wseq))
            # w1 t w2^-1 t^-1
            relators.append(_reduce_codes(w1 + t + tuple(-c for c in reversed(t + w2))))

    return Presentation(tuple(gens), _dedupe_words(relators, len(gens)), v)
