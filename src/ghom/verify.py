"""Bounded verification reports for the structural theorems: the product
pullback, the even/odd splitting of reflexive graphs, and naturality
squares for spider-pair morphisms.

These are exhaustive checks at desk scale.  Counterexample candidates and
Unknown-blocked cases are reported separately: only the former falsify.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import product as iproduct
from typing import Optional

from .errors import GuardExceeded
from .graphs import Graph, Morphism, _move_table, product
from .homotopy import (
    DEFAULT_MAX_STATES,
    Decision,
    Verdict,
    walks_homotopic,
)
from .walks import Walk, concat, induced_walk, prune_normalize


# -- parity-annotated reachability ------------------------------------------------


def parity_reachable(g: Graph) -> frozenset[tuple[str, str, int]]:
    """All (u, v, p) with a walk u -> v of length parity p; exact, unbounded."""
    out = set()
    for u in g.vertices:
        seen = {(u, 0)}
        frontier = [(u, 0)]
        while frontier:
            nxt = []
            for (x, p) in frontier:
                for w in g.neighbors(x):
                    state = (w, 1 - p)
                    if state not in seen:
                        seen.add(state)
                        nxt.append(state)
            frontier = nxt
        out.update((u, v, p) for (v, p) in seen)
    return frozenset(out)


def _normal_walks(g: Graph, max_len: int, max_count: int) -> list[tuple[str, ...]]:
    """All prune-normal (non-backtracking) walks up to max_len, by start
    vertex then extension order."""
    out: list[tuple[str, ...]] = []
    stack = [(v,) for v in reversed(g.vertices)]
    while stack:
        seq = stack.pop()
        out.append(seq)
        if len(out) > max_count:
            raise GuardExceeded(f"more than {max_count} normal walks at max_len {max_len}")
        if len(seq) - 1 < max_len:
            for w in reversed(g.neighbors(seq[-1])):
                if len(seq) >= 2 and w == seq[-2]:
                    continue
                stack.append(seq + (w,))
    return out


def _tail_extend(g: Graph, seq: tuple[str, ...], target_len: int) -> Optional[tuple[str, ...]]:
    """Extend a walk to target_len by repeating the last two vertices (a
    length-0 walk borrows its least neighbor); None if impossible."""
    if (target_len - (len(seq) - 1)) % 2 != 0:
        raise ValueError("tail extension preserves parity")
    while len(seq) - 1 < target_len:
        if len(seq) == 1:
            nbrs = g.neighbors(seq[0])
            if not nbrs:
                return None
            seq = seq + (nbrs[0], seq[0])
        else:
            seq = seq + (seq[-2], seq[-1])
    return seq


# -- homotopy classes -------------------------------------------------------------


class _DSU:
    def __init__(self):
        self.parent: dict = {}

    def find(self, x):
        self.parent.setdefault(x, x)
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


class _ClassVerdicts:
    """Homotopy verdicts between walks of one graph, closed under transitivity.

    Walks joined by an Equal search share a class and are Equal with no
    further search.  Distinct is memoized per pair of classes, since
    endpoints, parity and the abelianization image are class invariants.
    Unknown is a bound, not a class property, so it is memoized per exact
    pair only.  `searches` counts the `walks_homotopic` calls run."""

    def __init__(self, graph: Graph, max_states: int):
        self.graph = graph
        self.max_states = max_states
        self.classes = _DSU()
        self.distinct: set = set()
        self.unknown: set = set()
        self.searches = 0

    def search(self, s1: tuple[str, ...], s2: tuple[str, ...]) -> Decision:
        self.searches += 1
        return walks_homotopic(Walk(self.graph, s1), Walk(self.graph, s2), max_states=self.max_states)

    def verdict(self, s1: tuple[str, ...], s2: tuple[str, ...]) -> Verdict:
        r1, r2 = self.classes.find(s1), self.classes.find(s2)
        if r1 == r2:
            return Verdict.EQUAL
        if (min(r1, r2), max(r1, r2)) in self.distinct:
            return Verdict.DISTINCT
        pair = (min(s1, s2), max(s1, s2))
        if pair in self.unknown:
            return Verdict.UNKNOWN
        verdict = self.search(s1, s2).verdict
        if verdict is Verdict.EQUAL:
            self.classes.union(r1, r2)
        elif verdict is Verdict.DISTINCT:
            self.distinct.add((min(r1, r2), max(r1, r2)))
        else:
            self.unknown.add(pair)
        return verdict


@dataclass
class ProductPullbackReport:
    graph_left: Graph = field(repr=False)
    graph_right: Graph = field(repr=False)
    graph_product: Graph = field(repr=False)
    parity_mismatches: list = field(default_factory=list)
    lift_checked: int = 0
    lift_failures: list = field(default_factory=list)
    injectivity_checked: int = 0
    injectivity_counterexamples: list = field(default_factory=list)
    injectivity_unknown: list = field(default_factory=list)
    truncated: bool = False
    factor_searches: int = 0
    product_searches: int = 0
    _reach_product: frozenset = frozenset()

    def arrow_exists(self, source: str, target: str, parity: Optional[int] = None) -> bool:
        """Is there any walk source -> target in the product (optionally of
        the given parity)?"""
        if parity is None:
            return any((source, target, p) in self._reach_product for p in (0, 1))
        return (source, target, parity) in self._reach_product

    @property
    def passed(self) -> bool:
        return not (self.parity_mismatches or self.lift_failures or self.injectivity_counterexamples)


def verify_product_pullback(
    g: Graph,
    h: Graph,
    max_len: int,
    pair_budget: int = 200_000,
    walk_cap: int = 50_000,
    max_states: int = DEFAULT_MAX_STATES,
) -> ProductPullbackReport:
    """Check that arrows of the product graph are exactly parity-matched
    pairs of factor arrows.

    Surjectivity: (i) parity-annotated reachability of the product agrees
    with the conjunction of the factors'; (ii) every parity-matched pair of
    prune-normal factor walks lifts, after tail extension, to a product
    walk projecting back onto it.  Injectivity: same-endpoint product walks
    with homotopic projections must be homotopic.
    """
    if max_len < 0:
        raise ValueError("max_len must be nonnegative")
    p = product(g, h)
    report = ProductPullbackReport(g, h, p)
    # product declares its vertices in this order; a factor's own tokens may
    # contain '|', so product tokens are never split or joined here
    coords = dict(zip(p.vertices, iproduct(g.vertices, h.vertices)))
    token = {c: t for t, c in coords.items()}

    def project(seq: tuple[str, ...], k: int) -> tuple[str, ...]:
        return tuple(coords[t][k] for t in seq)

    reach_g, reach_h, reach_p = parity_reachable(g), parity_reachable(h), parity_reachable(p)
    report._reach_product = reach_p
    for gu in g.vertices:
        for gv in g.vertices:
            for hu in h.vertices:
                for hv in h.vertices:
                    for par in (0, 1):
                        lhs = (token[gu, hu], token[gv, hv], par) in reach_p
                        rhs = (gu, gv, par) in reach_g and (hu, hv, par) in reach_h
                        if lhs != rhs:
                            report.parity_mismatches.append(((gu, hu), (gv, hv), par, lhs, rhs))

    walks_g = _normal_walks(g, max_len, walk_cap)
    walks_h = _normal_walks(h, max_len, walk_cap)
    budget = pair_budget
    for wg in walks_g:
        for wh in walks_h:
            if (len(wg) - len(wh)) % 2 != 0:
                continue
            if budget <= 0:
                report.truncated = True
                break
            budget -= 1
            report.lift_checked += 1
            target = max(len(wg), len(wh)) - 1
            eg = _tail_extend(g, wg, target)
            eh = _tail_extend(h, wh, target)
            if eg is None or eh is None:
                report.lift_failures.append((wg, wh, "tail extension impossible"))
                continue
            prod_seq = tuple(token[c] for c in zip(eg, eh))
            try:
                omega = Walk(p, prod_seq)
            except ValueError:
                report.lift_failures.append((wg, wh, "lift is not a walk"))
                continue
            if (
                prune_normalize(Walk(g, project(omega.seq, 0))).seq != wg
                or prune_normalize(Walk(h, project(omega.seq, 1))).seq != wh
            ):
                report.lift_failures.append((wg, wh, "projection does not recover the pair"))
        if report.truncated:
            break

    walks_p = _normal_walks(p, max_len, walk_cap)
    by_endpoints: dict[tuple[str, str], list[tuple[str, ...]]] = {}
    for w in walks_p:
        by_endpoints.setdefault((w[0], w[-1]), []).append(w)

    # projection pairs repeat heavily across product pairs, and most pairs
    # fall in classes that earlier Equal verdicts have already joined
    left = _ClassVerdicts(g, max_states)
    right = left if h is g else _ClassVerdicts(h, max_states)
    prod = _ClassVerdicts(p, max_states)
    budget = pair_budget
    for key in sorted(by_endpoints):
        group = by_endpoints[key]
        projected = [(w, project(w, 0), project(w, 1)) for w in group]
        for i, (wa, ga, ha) in enumerate(projected):
            for wb, gb, hb in projected[i + 1:]:
                if (len(wa) - len(wb)) % 2 != 0:
                    continue
                if budget <= 0:
                    report.truncated = True
                    break
                budget -= 1
                va = left.verdict(ga, gb)
                vb = right.verdict(ha, hb)
                if va is Verdict.DISTINCT or vb is Verdict.DISTINCT:
                    continue
                if va is Verdict.UNKNOWN or vb is Verdict.UNKNOWN:
                    report.injectivity_unknown.append((wa, wb, "projection undecided"))
                    continue
                report.injectivity_checked += 1
                verdict = prod.verdict(wa, wb)
                if verdict is Verdict.DISTINCT:
                    report.injectivity_counterexamples.append((wa, wb, prod.search(wa, wb).certificate))
                elif verdict is Verdict.UNKNOWN:
                    report.injectivity_unknown.append((wa, wb, "product search undecided"))
            if report.truncated:
                break
        if report.truncated:
            break
    report.factor_searches = left.searches + (right.searches if right is not left else 0)
    report.product_searches = prod.searches
    return report


# -- reflexive splitting ------------------------------------------------------------


# move-graph horizon beyond max_len, and the concatenation sample
_SPLIT_SLACK = 2
_SPLIT_CONCAT_SAMPLES = 40
_SPLIT_SEED = 0


@dataclass
class ReflexiveSplitReport:
    class_counts: dict = field(default_factory=dict)
    pairing_failures: list = field(default_factory=list)
    concat_failures: list = field(default_factory=list)
    concat_checked: int = 0

    @property
    def passed(self) -> bool:
        return not (self.pairing_failures or self.concat_failures)


def verify_reflexive_split(
    g: Graph,
    max_len: int,
    state_cap: int = 400_000,
) -> ReflexiveSplitReport:
    """Check the even/odd splitting of a reflexive graph's walk classes.

    Bounded homotopy classes are components of the move graph over all
    walks of length <= max_len + 2.  Appending the final vertex must pair
    odd classes with even classes bijectively per endpoint pair, and must
    respect concatenation on 40 composable pairs drawn with a fixed seed.
    """
    if any(not g.is_looped(v) for v in g.vertices):
        raise ValueError("reflexive splitting needs every vertex looped")
    horizon = max_len + _SPLIT_SLACK

    all_walks: list[tuple[str, ...]] = []
    stack = [(v,) for v in reversed(g.vertices)]
    while stack:
        seq = stack.pop()
        all_walks.append(seq)
        if len(all_walks) > state_cap:
            raise GuardExceeded(f"move-graph universe exceeds {state_cap} walks")
        if len(seq) - 1 < horizon:
            for w in reversed(g.neighbors(seq[-1])):
                stack.append(seq + (w,))

    # Union via prunes and spider moves only: every unprune edge inside the
    # universe is the reverse of a prune edge, so components are unchanged.
    # The spider rule is the walk search's own, in unlooped mode.
    dsu = _DSU()
    union = dsu.union
    spiders, index, names = _move_table(g, False).spiders, g.index, g.vertices
    for seq in all_walks:
        k = len(seq)
        for i in range(k - 2):
            if seq[i] == seq[i + 2]:
                union(seq, seq[:i] + seq[i + 2:])
        for i in range(1, k - 1):
            for x in spiders(index(seq[i - 1]), index(seq[i]), index(seq[i + 1])):
                union(seq, seq[:i] + (names[x],) + seq[i + 1:])

    report = ReflexiveSplitReport()
    bounded: dict[tuple[str, str, int], set] = {}
    rep_of: dict = {}
    for seq in all_walks:
        root = dsu.find(seq)
        if len(seq) - 1 <= max_len:
            key = (seq[0], seq[-1], (len(seq) - 1) % 2)
            bounded.setdefault(key, set()).add(root)
            if root not in rep_of or (len(seq), seq) < (len(rep_of[root]), rep_of[root]):
                rep_of[root] = seq

    for (u, v) in sorted({(k[0], k[1]) for k in bounded}):
        evens = bounded.get((u, v, 0), set())
        odds = bounded.get((u, v, 1), set())
        report.class_counts[(u, v)] = (len(evens), len(odds))
        if len(evens) != len(odds):
            report.pairing_failures.append((u, v, "class counts differ", len(evens), len(odds)))
            continue
        image = set()
        for oc in odds:
            appended = rep_of[oc] + (v,)
            ec = dsu.find(appended)
            if ec not in evens:
                report.pairing_failures.append((u, v, "append leaves bounded even classes", rep_of[oc]))
            image.add(ec)
        if len(image) != len(odds):
            report.pairing_failures.append((u, v, "append is not injective on classes"))

    rng = random.Random(_SPLIT_SEED)
    by_start: dict[str, list[tuple[str, ...]]] = {}
    for seq in all_walks:
        if len(seq) - 1 <= max_len:
            by_start.setdefault(seq[0], []).append(seq)
    composable = [
        (a, b)
        for a in all_walks
        if len(a) - 1 <= max_len
        for b in by_start.get(a[-1], ())
        if (len(a) - 1) + (len(b) - 1) <= max_len and len(a) + len(b) > 2
    ]
    rng.shuffle(composable)

    def evenize(w: Walk) -> Walk:
        return Walk(g, w.seq + (w.seq[-1],)) if w.length % 2 else w

    for (a, b) in composable[:_SPLIT_CONCAT_SAMPLES]:
        wa, wb = Walk(g, a), Walk(g, b)
        ab = concat(wa, wb)
        lhs = evenize(ab)
        rhs = concat(evenize(wa), evenize(wb))
        dec = walks_homotopic(lhs, rhs)
        report.concat_checked += 1
        if dec.verdict is not Verdict.EQUAL:
            report.concat_failures.append((a, b, dec.verdict.value))
    return report


# -- naturality squares ---------------------------------------------------------------


def connecting_walk(phi: Morphism, psi: Morphism, w: str) -> Walk:
    """The canonical arrow phi(w) -> psi(w) for a spider pair of morphisms:
    trivial where they agree, else through the image of a least neighbor."""
    target = phi.target
    if phi.mapping[w] == psi.mapping[w]:
        return Walk(target, (phi.mapping[w],))
    nbrs = [u for u in phi.source.neighbors(w) if u != w]
    u = nbrs[0] if nbrs else w
    if u == w:
        return Walk(target, (phi.mapping[w], phi.mapping[w], psi.mapping[w]))
    return Walk(target, (phi.mapping[w], phi.mapping[u], psi.mapping[w]))


def naturality_square(
    phi: Morphism,
    psi: Morphism,
    alpha: Walk,
    max_states: int = DEFAULT_MAX_STATES,
) -> Decision:
    """Decide gamma_w * psi(alpha) ~ phi(alpha) * gamma_w' for a spider
    pair phi, psi and a walk alpha."""
    moved = [v for v in phi.source.vertices if phi.mapping[v] != psi.mapping[v]]
    if len(moved) > 1:
        raise ValueError("naturality square needs a spider pair of morphisms")
    lhs = concat(connecting_walk(phi, psi, alpha.start), induced_walk(psi, alpha))
    rhs = concat(induced_walk(phi, alpha), connecting_walk(phi, psi, alpha.end))
    return walks_homotopic(lhs, rhs, max_states=max_states)
