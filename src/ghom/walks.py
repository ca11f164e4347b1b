"""Walks in a graph and the prune / l-prune rewriting systems.

A walk is an immutable vertex sequence whose consecutive entries are
adjacent.  Pruning deletes a backtrack (v x v -> v); in looped mode an
l-prune additionally deletes an immediate repeat (v v -> v).  Repeated
pruning reaches a unique normal form whatever the order, so one
left-to-right pass finds it; the order-independence itself is covered by
the randomized property suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .graphs import Graph, Morphism, check_morphism


@dataclass(frozen=True)
class Walk:
    graph: Graph = field(repr=False)
    seq: tuple[str, ...]

    def __post_init__(self):
        seq = self.seq
        if not isinstance(seq, tuple):
            raise ValueError("walk vertices must be a tuple")
        if not seq:
            raise ValueError("a walk has at least one vertex")
        # the graph's vertex index and edge set, read once: this check runs
        # for every walk built
        index, edges = self.graph._index, self.graph.edges
        for v in seq:
            if v not in index:
                raise ValueError(f"walk vertex {v!r} not in graph")
        for a, b in zip(seq, seq[1:]):
            if (a, b) not in edges and (b, a) not in edges:
                raise ValueError(f"walk step {a!r} -> {b!r} is not an edge")

    @property
    def length(self) -> int:
        return len(self.seq) - 1

    @property
    def start(self) -> str:
        return self.seq[0]

    @property
    def end(self) -> str:
        return self.seq[-1]

    def parity(self) -> int:
        return self.length % 2

    def is_looped_walk(self) -> bool:
        """True iff every vertex on the walk carries a loop."""
        return all(self.graph.is_looped(v) for v in self.seq)

    def __str__(self) -> str:
        return ",".join(self.seq)


def walk(graph: Graph, vertices: Iterable[str]) -> Walk:
    return Walk(graph, tuple(vertices))


def parse_walk(graph: Graph, text: str) -> Walk:
    """Parse the CLI walk form: comma-separated vertex tokens."""
    return Walk(graph, tuple(t.strip() for t in text.split(",")))


def concat(a: Walk, b: Walk) -> Walk:
    if a.graph != b.graph:
        raise ValueError("cannot concatenate walks from different graphs")
    if a.end != b.start:
        raise ValueError(f"endpoint mismatch: {a.end!r} then {b.start!r}")
    return Walk(a.graph, a.seq + b.seq[1:])


def invert(a: Walk) -> Walk:
    return Walk(a.graph, a.seq[::-1])


def apply_prune(seq: tuple[str, ...], i: int) -> tuple[str, ...]:
    """Delete entries i, i+1 when seq[i] == seq[i+2]."""
    if not (0 <= i <= len(seq) - 3 and seq[i] == seq[i + 2]):
        raise ValueError(f"no prune applies at {i}")
    return seq[:i] + seq[i + 2:]


def apply_lprune(seq: tuple[str, ...], i: int) -> tuple[str, ...]:
    """Delete one copy of the repeat when seq[i] == seq[i+1]."""
    if not (0 <= i <= len(seq) - 2 and seq[i] == seq[i + 1]):
        raise ValueError(f"no l-prune applies at {i}")
    return seq[:i] + seq[i + 1:]


def prune_normalize(a: Walk, looped_mode: bool = False) -> Walk:
    """Reduce to the unique non-prunable walk.

    One pass keeps a non-prunable prefix: a repeat of its last vertex is an
    l-prune (looped mode only), a return to its second-to-last vertex a
    prune.  Endpoints are always preserved; length parity is preserved
    exactly in unlooped mode.
    """
    if looped_mode and not a.is_looped_walk():
        raise ValueError("looped mode requires every walk vertex to be looped")
    return Walk(a.graph, _pruned(a.seq, looped_mode))


def _pruned(seq: tuple, looped_mode: bool = False) -> tuple:
    """`prune_normalize` on a bare sequence of vertex names or indices."""
    out: list = []
    for v in seq:
        if looped_mode and out and out[-1] == v:
            continue
        if len(out) >= 2 and out[-2] == v:
            out.pop()
        else:
            out.append(v)
    return tuple(out)


def induced_walk(f: Morphism, a: Walk) -> Walk:
    """Entry-wise image of a walk under a graph morphism."""
    if a.graph != f.source:
        raise ValueError("walk does not live in the morphism's source")
    if not check_morphism(f):
        raise ValueError("map does not preserve edges")
    return Walk(f.target, tuple(f.mapping[v] for v in a.seq))
