"""Finite undirected graphs with optional loops, morphisms, and products.

Vertices are string tokens kept in declaration order; that order is the
tie-breaker for every "deterministic choice" in the package.  A loop is
stored as the edge (v, v), so "looped vertex" is a derived predicate and
products/morphisms need no special cases.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from .errors import GraphFormatError, GuardExceeded

# `|` joins coordinate tokens in product and exponential graphs.
_TOKEN_RE = re.compile(r"[A-Za-z0-9_|]+\Z")


def _check_token(token: str) -> str:
    if not isinstance(token, str) or not _TOKEN_RE.match(token):
        raise GraphFormatError(f"bad vertex token {token!r}")
    return token


class Graph:
    """Immutable undirected graph without multiple edges; loops allowed."""

    __slots__ = ("vertices", "edges", "_index", "_adj", "_hash", "_move_tables")

    def __init__(self, vertices: Iterable[str], edges: Iterable[tuple[str, str]]):
        vs = tuple(vertices)
        index: dict[str, int] = {}
        for v in vs:
            _check_token(v)
            if v in index:
                raise GraphFormatError(f"duplicate vertex {v!r}")
            index[v] = len(index)
        canon = set()
        for u, v in edges:
            if u not in index or v not in index:
                missing = u if u not in index else v
                raise GraphFormatError(f"edge endpoint {missing!r} is not a declared vertex")
            canon.add((u, v) if index[u] <= index[v] else (v, u))
        self.vertices = vs
        self.edges = frozenset(canon)
        self._index = index
        adj: dict[str, list[str]] = {v: [] for v in vs}
        for u, v in canon:
            adj[u].append(v)
            if u != v:
                adj[v].append(u)
        self._adj = {v: tuple(sorted(ns, key=index.__getitem__)) for v, ns in adj.items()}
        self._hash = hash((vs, self.edges))
        self._move_tables: dict[bool, _MoveTable] = {}

    # -- basic queries ---------------------------------------------------

    def __contains__(self, v: str) -> bool:
        return v in self._index

    def index(self, v: str) -> int:
        """Declaration index of a vertex."""
        try:
            return self._index[v]
        except KeyError:
            raise self._missing(v) from None

    @staticmethod
    def _missing(v: str) -> GraphFormatError:
        return GraphFormatError(f"vertex {v!r} not in graph")

    def adjacent(self, u: str, v: str) -> bool:
        try:
            iu, iv = self._index[u], self._index[v]
        except KeyError:
            raise self._missing(u if u not in self._index else v) from None
        pair = (u, v) if iu <= iv else (v, u)
        return pair in self.edges

    def neighbors(self, v: str) -> tuple[str, ...]:
        """Neighbors in declaration order; includes v itself iff v is looped."""
        try:
            return self._adj[v]
        except KeyError:
            raise self._missing(v) from None

    def is_looped(self, v: str) -> bool:
        return (v, v) in self.edges

    def looped_vertices(self) -> tuple[str, ...]:
        return tuple(v for v in self.vertices if self.is_looped(v))

    def degree(self, v: str) -> int:
        return len(self.neighbors(v))

    # -- derived graphs --------------------------------------------------

    def subgraph(self, keep: Iterable[str]) -> "Graph":
        """Induced subgraph; declaration order inherited from this graph."""
        keep_set = set(keep)
        for v in keep_set:
            if v not in self._index:
                raise GraphFormatError(f"subgraph vertex {v!r} not in graph")
        vs = tuple(v for v in self.vertices if v in keep_set)
        es = [(u, v) for (u, v) in self.edges if u in keep_set and v in keep_set]
        return Graph(vs, es)

    # -- components, read off the unlooped move table's roots -------------

    def component_of(self, v: str) -> tuple[str, ...]:
        """Vertices of v's connected component, in declaration order."""
        roots = _move_table(self, False).roots
        r = roots[self.index(v)]
        return tuple(u for u, s in zip(self.vertices, roots) if s == r)

    def components(self) -> tuple[tuple[str, ...], ...]:
        """Components, each in declaration order, ordered by least vertex."""
        return tuple(_root_components(self, False))

    def is_connected(self) -> bool:
        # every root is vertex 0 (none for the empty graph)
        return not any(_move_table(self, False).roots)

    # -- equality / hashing ----------------------------------------------

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, Graph)
            and self.vertices == other.vertices
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Graph({len(self.vertices)} vertices, {len(self.edges)} edges)"


# -- walk move tables -------------------------------------------------------


class _MoveTable:
    """A graph's walk moves in one mode, on declaration indices.

    `neighbors[v]` and `adjacency[v]` hold v's neighbors as an ordered tuple
    and as a set, `looped[v]` its loop flag, and `unprunes[v]` the via
    vertices an unprune at v may insert (looped ones only, in looped mode);
    the first three are the same in both modes, and a table takes them from
    the other mode's table when g has it.  `roots[v]` is the least
    vertex of v's component, or in looped mode of its looped component
    (None for an unlooped vertex): `_bfs` from every vertex in declaration
    order, kept to the looped vertices in looped mode.

    The walk search reads a walk as a string of characters `chr(v)`, and
    `_walk_table` gives it, on its first search, `vias`: each vertex
    character's unprune vias as characters, and `spider_memo`: for each
    3-character window prev cur next, `spiders` as characters, filled by
    the search on first use.  Component queries never build them.
    """

    __slots__ = ("looped_mode", "neighbors", "adjacency", "looped", "unprunes", "roots", "vias", "spider_memo")

    def __init__(self, g: Graph, looped_mode: bool):
        other = g._move_tables.get(not looped_mode)
        if other is None:
            index = g._index
            nbrs = tuple(tuple(index[w] for w in g._adj[v]) for v in g.vertices)
            adjacency = tuple(frozenset(ns) for ns in nbrs)
            looped = tuple(v in adjacency[v] for v in range(len(nbrs)))
        else:
            nbrs, adjacency, looped = other.neighbors, other.adjacency, other.looped
        self.looped_mode = looped_mode
        self.neighbors = nbrs
        self.adjacency = adjacency
        self.looped = looped
        self.unprunes = tuple(tuple(x for x in ns if looped[x]) for ns in nbrs) if looped_mode else nbrs
        self.roots = tuple(_bfs(nbrs, range(len(nbrs)), looped if looped_mode else None)[1])
        self.vias: Optional[dict[str, tuple[str, ...]]] = None
        self.spider_memo: Optional[dict[str, tuple[str, ...]]] = None

    def spiders(self, prev: int, cur: int, nxt: int) -> tuple[int, ...]:
        """The x != cur adjacent to prev and nxt, in declaration order; in
        looped mode also looped and adjacent to cur."""
        after, here, looped = self.adjacency[nxt], self.adjacency[cur], self.looped
        return tuple(
            x for x in self.neighbors[prev]
            if x != cur and x in after and (not self.looped_mode or (looped[x] and x in here))
        )


def _bfs(nbrs: Sequence[Sequence[int]], starts: Iterable[int], keep: Optional[Sequence[bool]] = None) -> tuple:
    """The one component traversal: breadth-first from each start not yet
    reached, in the given order, frontier by frontier and each vertex's
    neighbours in list order, through the vertices `keep` admits (all if
    None).  Returns `up`, each vertex's parent (-1 for a start or an
    unreached vertex), and `root`, the start that reached it (or None)."""
    up = [-1] * len(nbrs)
    root: list[Optional[int]] = [None] * len(nbrs)
    for r in starts:
        if root[r] is not None or (keep is not None and not keep[r]):
            continue
        root[r] = r
        frontier = [r]
        while frontier:
            nxt = []
            for u in frontier:
                for w in nbrs[u]:
                    if root[w] is None and (keep is None or keep[w]):
                        root[w] = r
                        up[w] = u
                        nxt.append(w)
            frontier = nxt
    return up, root


def _chars(indices: Iterable[int]) -> str:
    """Declaration indices as a walk string, one character `chr(i)` per
    index; an index past `sys.maxunicode` raises GuardExceeded."""
    try:
        return "".join(map(chr, indices))
    except ValueError:
        raise GuardExceeded(
            f"the walk search encodes declaration indices below {sys.maxunicode + 1:#x} only"
        ) from None


def _walk_string(g: Graph, names: Iterable[str]) -> str:
    """A walk of g in vertex names as a walk string."""
    return _chars(map(g.index, names))


def _walk_names(g: Graph, walk: str) -> tuple[str, ...]:
    """A walk string of g in vertex names."""
    names = g.vertices
    return tuple(names[ord(x)] for x in walk)


def _move_table(g: Graph, looped_mode: bool) -> _MoveTable:
    """g's move table for the mode, built on first use and kept on g."""
    table = g._move_tables.get(looped_mode)
    if table is None:
        table = g._move_tables[looped_mode] = _MoveTable(g, looped_mode)
    return table


def _walk_table(g: Graph, looped_mode: bool) -> _MoveTable:
    """g's move table for the mode with the walk search's character tables,
    built on the first walk search: a graph of more than
    `sys.maxunicode + 1` vertices raises GuardExceeded here."""
    table = _move_table(g, looped_mode)
    if table.vias is None:
        table.vias = dict(zip(_chars(range(len(table.unprunes))), (tuple(_chars(xs)) for xs in table.unprunes)))
        table.spider_memo = {}
    return table


def _root_components(g: Graph, looped_mode: bool) -> list[tuple[str, ...]]:
    """g's components (in looped mode, those of its looped subgraph) grouped
    by its move table's roots, each in declaration order and ordered by
    least vertex.  The one grouping routine: `Graph.components` is the
    unlooped case."""
    groups: dict[int, list[str]] = {}
    for v, r in zip(g.vertices, _move_table(g, looped_mode).roots):
        if r is not None:
            groups.setdefault(r, []).append(v)
    return [tuple(c) for c in groups.values()]


# -- file format ----------------------------------------------------------


def parse_graph(text: str) -> Graph:
    """Parse the line-oriented graph format.

    Lines: ``# comment``, ``vertex <token> [loop]``, ``edge <token> <token>``.
    Vertex declaration order is preserved and significant.
    """
    vertices: list[str] = []
    declared: set[str] = set()
    loops: list[str] = []
    edges: list[tuple[str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "vertex":
            if len(parts) == 3 and parts[2] == "loop":
                flag = True
            elif len(parts) == 2:
                flag = False
            else:
                raise GraphFormatError(f"malformed vertex line {line!r}", line=lineno)
            token = parts[1]
            if not _TOKEN_RE.match(token):
                raise GraphFormatError(f"bad vertex token {token!r}", line=lineno)
            if token in declared:
                raise GraphFormatError(f"duplicate vertex declaration {token!r}", line=lineno)
            declared.add(token)
            vertices.append(token)
            if flag:
                loops.append(token)
        elif parts[0] == "edge":
            if len(parts) != 3:
                raise GraphFormatError(f"malformed edge line {line!r}", line=lineno)
            u, v = parts[1], parts[2]
            for t in (u, v):
                if t not in declared:
                    raise GraphFormatError(f"edge references undeclared vertex {t!r}", line=lineno)
            edges.append((u, v))
        else:
            raise GraphFormatError(f"unrecognized line {line!r}", line=lineno)
    edges.extend((v, v) for v in loops)
    return Graph(vertices, edges)


def serialize(g: Graph) -> str:
    """Inverse of parse_graph: vertices in declaration order, then non-loop
    edges as lexicographically sorted lines (loops ride on the vertex flag)."""
    lines = []
    for v in g.vertices:
        lines.append(f"vertex {v} loop" if g.is_looped(v) else f"vertex {v}")
    edge_lines = sorted(
        "edge {} {}".format(*sorted((u, v))) for (u, v) in g.edges if u != v
    )
    lines.extend(edge_lines)
    return "\n".join(lines) + "\n" if lines else ""


# -- standard constructions ------------------------------------------------


def path_graph(n: int, looped: bool = False) -> Graph:
    """Path on vertices 0..n; with looped=True every vertex also gets a loop."""
    if n < 0:
        raise ValueError("path length must be >= 0")
    vs = [str(i) for i in range(n + 1)]
    es = [(str(i), str(i + 1)) for i in range(n)]
    if looped:
        es.extend((v, v) for v in vs)
    return Graph(vs, es)


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    vs = [str(i) for i in range(n)]
    es = [(str(i), str((i + 1) % n)) for i in range(n)]
    return Graph(vs, es)


def complete_graph(n: int) -> Graph:
    vs = [str(i) for i in range(n)]
    es = [(vs[i], vs[j]) for i in range(n) for j in range(i + 1, n)]
    return Graph(vs, es)


def terminal_graph() -> Graph:
    """One vertex with one loop: the terminal object."""
    return Graph(["v"], [("v", "v")])


def _joined_tokens(coords: list[tuple[str, ...]]) -> list[str]:
    """Distinct coordinate tuples joined with '|' into vertex tokens.

    A token may itself hold '|', so two tuples can join to one token, such
    as ('a|b', 'c') and ('a', 'b|c'); that raises GraphFormatError naming
    both."""
    first: dict[str, tuple[str, ...]] = {}
    for c in coords:
        t = "|".join(c)
        if t in first:
            raise GraphFormatError(f"coordinates {first[t]!r} and {c!r} both join to vertex {t!r}")
        first[t] = c
    return list(first)


def product(g: Graph, h: Graph) -> Graph:
    """Categorical product: (v1,w1) ~ (v2,w2) iff v1~v2 and w1~w2.

    Vertex tokens are the coordinates joined with '|'.
    """
    vs = _joined_tokens([(v, w) for v in g.vertices for w in h.vertices])
    es = []
    for (v1, v2) in g.edges:
        for (w1, w2) in h.edges:
            es.append((f"{v1}|{w1}", f"{v2}|{w2}"))
            if v1 != v2 and w1 != w2:
                es.append((f"{v1}|{w2}", f"{v2}|{w1}"))
    return Graph(vs, es)


# -- morphisms --------------------------------------------------------------


@dataclass(frozen=True)
class Morphism:
    """Vertex map between graphs; validity is checked by check_morphism."""

    source: Graph
    target: Graph
    mapping: Mapping[str, str]

    def __call__(self, v: str) -> str:
        return self.mapping[v]

    def image_tuple(self) -> tuple[str, ...]:
        """Images in source declaration order; hashable state for searches."""
        return tuple(self.mapping[v] for v in self.source.vertices)

    def __hash__(self) -> int:
        return hash((self.source, self.target, self.image_tuple()))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Morphism)
            and self.source == other.source
            and self.target == other.target
            and self.image_tuple() == other.image_tuple()
        )


def identity_morphism(g: Graph) -> Morphism:
    return Morphism(g, g, {v: v for v in g.vertices})


def compose(f: Morphism, g: Morphism) -> Morphism:
    """Composite g . f (apply f first)."""
    if f.target != g.source:
        raise ValueError("morphisms not composable")
    return Morphism(f.source, g.target, {v: g.mapping[f.mapping[v]] for v in f.source.vertices})


def check_morphism(f: Morphism) -> bool:
    """True iff every edge (loops included) is preserved.

    A non-total map is an error, not False.
    """
    for v in f.source.vertices:
        if v not in f.mapping:
            raise ValueError(f"map not total: vertex {v!r} has no image")
        if f.mapping[v] not in f.target:
            raise ValueError(f"image {f.mapping[v]!r} of {v!r} is not a target vertex")
    for (u, v) in f.source.edges:
        if not f.target.adjacent(f.mapping[u], f.mapping[v]):
            return False
    return True


def parse_morphism(text: str, source: Graph, target: Graph) -> Morphism:
    """Parse a map file: one ``<source-token> <target-token>`` pair per line."""
    mapping: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphFormatError(f"malformed map line {line!r}", line=lineno)
        s, t = parts
        if s not in source:
            raise GraphFormatError(f"unknown source vertex {s!r}", line=lineno)
        if t not in target:
            raise GraphFormatError(f"unknown target vertex {t!r}", line=lineno)
        if s in mapping:
            raise GraphFormatError(f"vertex {s!r} mapped twice", line=lineno)
        mapping[s] = t
    for v in source.vertices:
        if v not in mapping:
            raise GraphFormatError(f"map not total: vertex {v!r} has no image")
    return Morphism(source, target, mapping)
