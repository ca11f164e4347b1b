"""Homotopy decisions for walks and morphisms, with replayable certificates.

Equality of homotopy classes has no known decision procedure here, so the
verdict is three-valued: Equal comes with a move-by-move certificate from a
bounded bidirectional search, Distinct comes from an independently
recomputable separating invariant (endpoints, parity, or abelianized image),
and everything else is an honest Unknown carrying the exhausted bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Union

from .graphs import Graph, Morphism, _move_table, _MoveTable, _walk_names, _walk_string, _walk_table, check_morphism
from .groupoid import abelianized_for_walkseq
from .walks import Walk, apply_lprune, apply_prune

DEFAULT_MAX_STATES = 200_000
DEFAULT_EXTENSION = 6  # default max_len headroom over the longer input


class Verdict(str, Enum):
    EQUAL = "Equal"
    DISTINCT = "Distinct"
    UNKNOWN = "Unknown"


# -- certificate steps ---------------------------------------------------------


@dataclass(frozen=True)
class SpiderStep:
    """Replace the vertex at an interior position."""

    position: int
    old: str
    new: str


@dataclass(frozen=True)
class PruneStep:
    position: int


@dataclass(frozen=True)
class UnpruneStep:
    """Insert the backtrack (seq[pos], via) before position pos."""

    position: int
    via: str


@dataclass(frozen=True)
class LPruneStep:
    position: int


@dataclass(frozen=True)
class LUnpruneStep:
    position: int


@dataclass(frozen=True)
class MorphismSpiderStep:
    vertex: str
    old: str
    new: str


WalkStep = Union[SpiderStep, PruneStep, UnpruneStep, LPruneStep, LUnpruneStep]


@dataclass(frozen=True)
class Separation:
    """A Distinct certificate: a named invariant with the two values."""

    invariant: str
    left: object
    right: object


@dataclass(frozen=True)
class Exhaustion:
    """An Unknown certificate: the bounds the search ran out of."""

    states_explored: int
    max_len: Optional[int]
    max_states: int


@dataclass(frozen=True)
class Decision:
    verdict: Verdict
    certificate: Union[tuple, Separation, Exhaustion]


# -- walk moves ------------------------------------------------------------------


def apply_walk_step(graph: Graph, seq: tuple[str, ...], step: WalkStep, looped_mode: bool = False) -> tuple[str, ...]:
    """Apply one certificate step, validating its side conditions."""
    n = len(seq) - 1
    if isinstance(step, SpiderStep):
        i = step.position
        if not 0 < i < n:
            raise ValueError(f"spider position {i} is not interior")
        if seq[i] != step.old:
            raise ValueError(f"spider step expects {step.old!r} at {i}, found {seq[i]!r}")
        if step.new == step.old:
            raise ValueError("spider step must change the vertex")
        if not (graph.adjacent(step.new, seq[i - 1]) and graph.adjacent(step.new, seq[i + 1])):
            raise ValueError("spider replacement not adjacent to both neighbors")
        if looped_mode and not (graph.is_looped(step.new) and graph.adjacent(step.old, step.new)):
            raise ValueError("looped spider move needs old~new with a looped target")
        return seq[:i] + (step.new,) + seq[i + 1:]
    if isinstance(step, PruneStep):
        return apply_prune(seq, step.position)
    if isinstance(step, UnpruneStep):
        i = step.position
        if not 0 <= i <= n:
            raise ValueError(f"unprune position {i} out of range")
        if not graph.adjacent(seq[i], step.via):
            raise ValueError("unprune via-vertex not adjacent")
        if looped_mode and not graph.is_looped(step.via):
            raise ValueError("looped unprune needs a looped via-vertex")
        return seq[:i] + (seq[i], step.via) + seq[i:]
    if isinstance(step, LPruneStep):
        if not looped_mode:
            raise ValueError("l-prune outside looped mode")
        return apply_lprune(seq, step.position)
    if isinstance(step, LUnpruneStep):
        if not looped_mode:
            raise ValueError("l-unprune outside looped mode")
        i = step.position
        if not 0 <= i <= n:
            raise ValueError(f"l-unprune position {i} out of range")
        if not graph.is_looped(seq[i]):
            raise ValueError(f"l-unprune at unlooped vertex {seq[i]!r}")
        return seq[:i] + (seq[i],) + seq[i:]
    raise TypeError(f"not a walk step: {step!r}")


def walk_step_successors(table: _MoveTable, seq: str, max_len: int) -> list[str]:
    """All one-move neighbors of a walk state (a string of declaration-index
    characters, on a `_walk_table`) in the table's mode: prunes, l-prunes,
    spiders, unprunes, l-unprunes, each by position and then by
    declaration order."""
    n = len(seq) - 1
    looped_mode = table.looped_mode
    out = [seq[:i] + seq[i + 2:] for i in range(n - 1) if seq[i] == seq[i + 2]]
    if looped_mode:
        out += [seq[:i] + seq[i + 1:] for i in range(n) if seq[i] == seq[i + 1]]
    append = out.append
    # the memo is read inline: a method call per position costs more than a hit
    memo, spiders = table.spider_memo, table.spiders
    for i in range(1, n):
        key = seq[i - 1:i + 2]
        xs = memo.get(key)
        if xs is None:
            xs = memo[key] = tuple(map(chr, spiders(*map(ord, key))))
        if xs:
            head, tail = seq[:i], seq[i + 1:]
            for x in xs:
                append(head + x + tail)
    if n + 2 <= max_len:
        vias = table.vias
        for i in range(n + 1):
            head, tail = seq[:i + 1], seq[i:]
            for x in vias[seq[i]]:
                append(head + x + tail)
    if looped_mode and n + 1 <= max_len:
        out += [seq[:i + 1] + seq[i:] for i in range(n + 1)]
    return out


def _changed_position(before, after) -> int:
    return next(i for i, (u, v) in enumerate(zip(before, after)) if u != v)


def _decode_walk_step(before: str, after: str, names: tuple[str, ...]) -> WalkStep:
    """The first move in successor order that turns `before` into `after`.

    The length change fixes the kind; of the positions that give `after`,
    the least is taken (a spider changes exactly one).  An unprune at i is
    a prune at i read backwards, so both search directions decode alike.
    """
    d = len(after) - len(before)
    if d == 0:
        i = _changed_position(before, after)
        return SpiderStep(i, names[ord(before[i])], names[ord(after[i])])
    long, short, k = (before, after, -d) if d < 0 else (after, before, d)
    i = next(i for i in range(len(short)) if long[i] == long[i + k] and long[:i] + long[i + k:] == short)
    if d == -2:
        return PruneStep(i)
    if d == -1:
        return LPruneStep(i)
    if d == 2:
        return UnpruneStep(i, names[ord(after[i + 1])])
    return LUnpruneStep(i)


def spider_successors(w: Walk, looped_mode: bool = False) -> list[tuple[SpiderStep, Walk]]:
    """All walks one interior spider move away, by position then vertex order."""
    if looped_mode and not w.is_looped_walk():
        raise ValueError("looped mode requires a looped walk")
    g = w.graph
    names = g.vertices
    seq = _walk_string(g, w.seq)
    out = []
    for child in walk_step_successors(_walk_table(g, looped_mode), seq, w.length):
        if len(child) == len(seq):
            out.append((_decode_walk_step(seq, child, names), Walk(g, _walk_names(g, child))))
    return out


def replay_walk_certificate(a: Walk, steps, looped_mode: bool = False) -> Walk:
    """Apply an Equal certificate to the walk `a` and return the end walk.

    `a` was validated when it was built, and `apply_walk_step` checks each
    step's side conditions, which keep a walk a walk: a spider target is
    adjacent to both neighbours, an unprune goes out and back along an
    edge, an l-unprune repeats a looped vertex, and prunes only delete.
    So the intermediates are walks, and only the end walk is validated
    again."""
    graph, seq = a.graph, a.seq
    for step in steps:
        seq = apply_walk_step(graph, seq, step, looped_mode)
    return Walk(graph, seq)


# -- bidirectional search ---------------------------------------------------------


def _path(meet, seen_a, seen_b):
    """Consecutive (state, next state) pairs from start through `meet` to goal."""
    path = []
    cur = meet
    while cur is not None:
        path.append(cur)
        cur = seen_a[cur]
    path.reverse()
    cur = seen_b[meet]
    while cur is not None:
        path.append(cur)
        cur = seen_b[cur]
    return list(zip(path, path[1:]))


def _bidirectional_search(successors, start, goal, max_states):
    """Generic meet-in-the-middle BFS, expanding the smaller frontier first.

    Each seen state keeps only its parent.  Returns (path, seen from start,
    seen from goal), the path as `_path` gives it; callers decode each pair
    into a certificate step.  The path is None when the total seen exceeds
    `max_states` or a frontier runs dry; only in the second case is the
    total at most `max_states`.
    """
    if start == goal:
        return [], 1, 1
    seen_a = {start: None}
    seen_b = {goal: None}
    front_a, front_b = [start], [goal]
    while front_a and front_b:
        if len(front_a) <= len(front_b):
            front, seen, other = front_a, seen_a, seen_b
            expanding_a = True
        else:
            front, seen, other = front_b, seen_b, seen_a
            expanding_a = False
        limit = max_states - len(other)
        nxt = []
        for state in front:
            for ns in successors(state):
                if ns in seen:
                    continue
                seen[ns] = state
                if ns in other:
                    return _path(ns, seen_a, seen_b), len(seen_a), len(seen_b)
                nxt.append(ns)
                if len(seen) > limit:
                    return None, len(seen_a), len(seen_b)
        if expanding_a:
            front_a = nxt
        else:
            front_b = nxt
    return None, len(seen_a), len(seen_b)


# -- walk homotopy ------------------------------------------------------------------


def walks_homotopic(
    a: Walk,
    b: Walk,
    looped_mode: bool = False,
    max_len: Optional[int] = None,
    max_states: int = DEFAULT_MAX_STATES,
) -> Decision:
    """Decide homotopy rel endpoints of two walks.

    Equal and Distinct verdicts are definitive; Unknown means the bounded
    search gave out.
    """
    if a.graph != b.graph:
        raise ValueError("walks live in different graphs")
    if looped_mode and not (a.is_looped_walk() and b.is_looped_walk()):
        raise ValueError("looped mode requires looped walks")
    if max_states < 1:
        raise ValueError("max_states must be positive")
    longest = max(a.length, b.length)
    if max_len is None:
        max_len = longest + DEFAULT_EXTENSION
    if max_len < longest:
        raise ValueError(f"max_len {max_len} below the longer input ({longest})")

    if (a.start, a.end) != (b.start, b.end):
        return Decision(
            Verdict.DISTINCT,
            Separation("endpoint mismatch", (a.start, a.end), (b.start, b.end)),
        )
    if not looped_mode and a.parity() != b.parity():
        return Decision(
            Verdict.DISTINCT, Separation("parity mismatch", a.parity(), b.parity())
        )
    ab = abelianized_for_walkseq(a.graph, a.start, looped_mode)
    separated, res_a, res_b = ab.separates(a.seq, b.seq)
    if separated:
        return Decision(
            Verdict.DISTINCT,
            Separation("abelianization image mismatch", res_a, res_b),
        )

    graph = a.graph
    start, goal = _walk_string(graph, a.seq), _walk_string(graph, b.seq)
    path, explored = _walk_search(_walk_table(graph, looped_mode), start, goal, max_len, max_states)
    if path is not None:
        return Decision(Verdict.EQUAL, tuple(_decode_walk_step(p, c, graph.vertices) for p, c in path))
    return Decision(Verdict.UNKNOWN, Exhaustion(explored, max_len, max_states))


def _walk_search(table: _MoveTable, a: str, b: str, max_len: int, max_states: int):
    """The bounded search behind `walks_homotopic`, on walk strings (as
    `walk_step_successors` reads them) that passed its checks: (the path as
    `_path` gives it or None, the states seen)."""

    def successors(seq):
        return walk_step_successors(table, seq, max_len)

    path, seen_a, seen_b = _bidirectional_search(successors, a, b, max_states)
    return path, seen_a + seen_b


# -- morphism homotopy ----------------------------------------------------------------


def _morphism_successors(source: _MoveTable, target: _MoveTable, state: tuple[int, ...]) -> list[tuple[int, ...]]:
    """All maps one spider move from `state` (target declaration indices, in
    source declaration order), by source vertex and then by target order.

    The new image must be adjacent to the images of the vertex's other
    neighbors; at a looped vertex it must be looped and adjacent to the old
    image.  Candidates are read off the first such image's neighbors."""
    out = []
    adjacency, looped = target.adjacency, target.looped
    every = range(len(looped))
    for x, old in enumerate(state):
        at_loop = source.looped[x]
        fixed = [state[w] for w in source.neighbors[x] if w != x]
        if at_loop:
            fixed.append(old)
        head, tail = state[:x], state[x + 1:]
        for y in target.neighbors[fixed[0]] if fixed else every:
            if y != old and (looped[y] or not at_loop) and all(y in adjacency[i] for i in fixed):
                out.append(head + (y,) + tail)
    return out


def apply_morphism_step(f: Morphism, step: MorphismSpiderStep) -> Morphism:
    if f.mapping[step.vertex] != step.old:
        raise ValueError("morphism step does not match the current map")
    mapping = dict(f.mapping)
    mapping[step.vertex] = step.new
    g = Morphism(f.source, f.target, mapping)
    if not check_morphism(g):
        raise ValueError("morphism step leaves the morphism space")
    if f.source.is_looped(step.vertex) and not f.target.adjacent(step.old, step.new):
        raise ValueError("spider move at a looped vertex needs adjacent images")
    return g


def replay_morphism_certificate(f: Morphism, steps) -> Morphism:
    cur = f
    for step in steps:
        cur = apply_morphism_step(cur, step)
    return cur


def morphisms_homotopic(f: Morphism, g: Morphism, max_steps: int = DEFAULT_MAX_STATES) -> Decision:
    """Decide homotopy of two morphisms by spider-move search.

    The morphism space is finite, so a fully explored closure that misses
    the other map is a definitive Distinct.
    """
    if f.source != g.source or f.target != g.target:
        raise ValueError("morphisms must share source and target")
    if not (check_morphism(f) and check_morphism(g)):
        raise ValueError("both maps must be graph morphisms")
    if max_steps < 1:
        raise ValueError("max_steps must be positive")
    source, target = f.source, f.target
    src, tgt = _move_table(source, False), _move_table(target, False)
    fs, gs = tuple(map(target.index, f.image_tuple())), tuple(map(target.index, g.image_tuple()))
    # a connected loopless source with an edge maps into one component
    if source.edges and not any(src.looped) and source.is_connected():
        comp_f, comp_g = tgt.roots[fs[0]], tgt.roots[gs[0]]
        if comp_f != comp_g:
            return Decision(
                Verdict.DISTINCT,
                Separation("image component mismatch", target.vertices[comp_f], target.vertices[comp_g]),
            )

    def successors(state):
        return _morphism_successors(src, tgt, state)

    def decode(before, after):
        xi = _changed_position(before, after)
        return MorphismSpiderStep(source.vertices[xi], target.vertices[before[xi]], target.vertices[after[xi]])

    path, seen_f, seen_g = _bidirectional_search(successors, fs, gs, max_steps)
    if path is not None:
        return Decision(Verdict.EQUAL, tuple(decode(p, c) for p, c in path))
    if seen_f + seen_g > max_steps:
        return Decision(Verdict.UNKNOWN, Exhaustion(seen_f + seen_g, None, max_steps))
    return Decision(Verdict.DISTINCT, Separation("spider closure disjoint", seen_f, seen_g))


# -- folds and stiff reduction -----------------------------------------------------


def _folds(g: Graph):
    """Lazily, every (x, u) with N(x) contained in N(u), least x first, then
    least u: folding x onto u forms a spider pair with the identity.
    Loop-inclusive neighborhoods make the looped side conditions automatic."""
    nbrs = {v: set(g.neighbors(v)) for v in g.vertices}
    for x in g.vertices:
        for u in g.vertices:
            if u != x and nbrs[x] <= nbrs[u]:
                yield x, u


def foldable_pairs(g: Graph) -> list[tuple[str, str]]:
    """All (x, u) such that x folds onto u."""
    return list(_folds(g))


def is_stiff(g: Graph) -> bool:
    return next(_folds(g), None) is None


def stiff_reduce(g: Graph) -> tuple[Graph, list[Morphism]]:
    """Fold the least foldable x onto its least replacement until stiff;
    returns the stiff graph and the fold sequence, each fold restricted to
    its image."""
    folds: list[Morphism] = []
    cur = g
    while (fold := next(_folds(cur), None)) is not None:
        x, u = fold
        image = cur.subgraph([v for v in cur.vertices if v != x])
        mapping = {v: v for v in cur.vertices}
        mapping[x] = u
        folds.append(Morphism(cur, image, mapping))
        cur = image
    return cur, folds

