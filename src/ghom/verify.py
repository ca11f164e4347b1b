"""Bounded verification reports for the structural theorems: the product
pullback, the even/odd splitting of reflexive graphs, and naturality
squares for spider-pair morphisms.

These are exhaustive checks at desk scale.  Counterexample candidates and
Unknown-blocked cases are reported separately: only the former falsify.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import islice
from itertools import product as iproduct
from typing import Optional

from .errors import GuardExceeded
from .graphs import Graph, Morphism, _MoveTable, _bfs, _move_table, _walk_names, _walk_table, check_morphism, product
from .groupoid import abelianized_for_walkseq
from .homotopy import (
    DEFAULT_EXTENSION,
    DEFAULT_MAX_STATES,
    Decision,
    PruneStep,
    SpiderStep,
    UnpruneStep,
    Verdict,
    _walk_search,
    replay_walk_certificate,
    walks_homotopic,
)
from .walks import Walk, _pruned


# -- parity-annotated reachability ------------------------------------------------


def _parity_pairs(g: Graph) -> frozenset[tuple[int, int, int]]:
    """All (u, v, p) by declaration index with a walk u -> v of length
    parity p.  These are the walks of the double cover G x K2 from (u, 0)
    to (v, p), so one search over its states 2x + p finds them all."""
    cover = [tuple(2 * w + 1 - p for w in ns) for ns in _move_table(g, False).neighbors for p in (0, 1)]
    root = _bfs(cover, range(len(cover)))[1]
    states: dict[int, list[tuple[int, int]]] = {}
    for s, r in enumerate(root):
        states.setdefault(r, []).append((s >> 1, s & 1))
    return frozenset((u, v, p) for u, r in enumerate(root[::2]) for v, p in states[r])


def parity_reachable(g: Graph) -> frozenset[tuple[str, str, int]]:
    """All (u, v, p) with a walk u -> v of length parity p; exact, unbounded."""
    names = g.vertices
    return frozenset((names[u], names[v], p) for u, v, p in _parity_pairs(g))


def _walk_list(nbrs: dict[str, tuple[str, ...]], max_len: int, normal: bool, cap: int, too_many: str) -> list[str]:
    """Every walk string up to max_len along `nbrs`, or with `normal` every
    prune-normal (non-backtracking) one, by start vertex then extension
    order; more than `cap` raise GuardExceeded(too_many)."""
    out: list[str] = []
    stack = list(reversed(nbrs))
    while stack:
        seq = stack.pop()
        out.append(seq)
        if len(out) > cap:
            raise GuardExceeded(too_many)
        if len(seq) <= max_len:
            back = seq[-2:-1] if normal else ""
            stack += (seq + w for w in reversed(nbrs[seq[-1]]) if w != back)
    return out


def _tail_extend(nbrs: dict[str, tuple[str, ...]], seq: str, target_len: int) -> Optional[str]:
    """Extend a walk string to target_len by repeating its last two vertices
    (a length-0 walk borrows its least neighbor); None if impossible."""
    missing = target_len + 1 - len(seq)
    if missing % 2 != 0:
        raise ValueError("tail extension preserves parity")
    if missing > 0 and len(seq) == 1:
        if not nbrs[seq]:
            return None
        seq += nbrs[seq][0] + seq
        missing -= 2
    return seq + seq[-2:] * (missing // 2)


# -- homotopy classes -------------------------------------------------------------


class _WalkClasses:
    """Dense ids for walk strings, from one dict, and a union-find over the
    ids: a parent list with path halving.  Callers join two classes by
    pointing one root at the other."""

    def __init__(self, walks: list[str]):
        self.walks = walks
        self.ids = {w: i for i, w in enumerate(walks)}
        self.parent = list(range(len(walks)))

    def find(self, i: int) -> int:
        parent = self.parent
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i


def _bounded_classes(table: _MoveTable, universe: list[str]) -> _WalkClasses:
    """Classes of the move graph over `universe`, in unlooped mode, as a
    union-find over its walk strings.  The universe is every walk, or every
    prune-normal walk, up to some length.

    Every join is a prune or a spider move, so joined walks are homotopic.
    Every unprune edge inside the universe is the reverse of a prune edge,
    and pruning is confluent, so a walk's first prune alone reaches the
    class of every other prune.  The walks that differ from a walk only at
    an interior position take there each x with x ~ prev and x ~ next, the
    walk's own vertex among them, and are one spider apart pairwise, so a
    star spans them: each joins the one with the least such x.  A member
    that backtracks, at x = seq[k - 2] or x = seq[k + 2], lies outside a
    universe of prune-normal walks, where no member joins it, so each walk
    joins the prune of each of its own: the walk with one step cut, or
    where that is not listed its prune normal form, shorter and inside.
    In a prune-normal walk the member at k with x = seq[k + 2] and the one
    at k + 1 with x = seq[k - 1] both exist exactly when seq[k - 1] ~
    seq[k + 2], and both cut seq[k] and seq[k + 1], so only the kind at
    x = seq[k - 2] is looked for.

    One pass over each walk's interior positions finds all of these: the
    first window prev cur prev is the first prune, and none turns up in a
    prune-normal universe.  Then each neighbor's class joins the walk's
    own, through an inline path-halving find, and the walk's root stays
    the root.  The partition is fixed by the joins; which member is a
    class's root depends on their order."""
    classes = _WalkClasses(universe)
    ids, parent = classes.ids, classes.parent
    memo, spiders = table.spider_memo, table.spiders
    # a universe of every walk with an edge u v lists u v u; a universe of
    # prune-normal walks does not
    edge = next((seq for seq in universe if len(seq) == 2), "")
    unlisted = bool(edge) and edge + edge[0] not in ids
    for i, seq in enumerate(universe):
        root = i
        while parent[root] != root:
            parent[root] = root = parent[parent[root]]
        others = []
        pruned = False
        for k in range(1, len(seq) - 1):
            key = seq[k - 1:k + 2]
            xs = memo.get(key)
            if xs is None:
                xs = memo[key] = tuple(map(chr, spiders(*map(ord, key))))
            if not pruned and key[0] == key[2]:
                others.append(seq[:k - 1] + seq[k + 1:])
                pruned = True
            # spiders come in declaration order, that is by character
            if xs and xs[0] < key[1]:
                others.append(seq[:k] + xs[0] + seq[k + 1:])
            # a member that backtracks prunes to the walk with a step cut
            if unlisted and seq[k - 2:k - 1] in xs:
                others.append(seq[:k - 1] + seq[k + 1:])
        for other in others:
            r = ids.get(other)
            if r is None:
                r = ids["".join(_pruned(other))]
            while parent[r] != r:
                parent[r] = r = parent[parent[r]]
            if r != root:
                parent[r] = root
    return classes


class _ClassVerdicts:
    """Homotopy verdicts between walks of one graph, by their dense ids in
    `classes`, closed under transitivity.

    Walks that share a class, joined by `_bounded_classes` or by an Equal
    search, are Equal with no further search.  Endpoints, parity and the
    abelianized residue are class invariants, so a class root keeps them
    once computed, and Distinct is memoized per pair of classes.  Unknown
    is a bound, not a class property, so it is memoized per exact pair
    only.  A pair not served from a memo counts in `searches`: it is
    Distinct with no search if its invariants differ, and if they tie it
    goes to the search behind `walks_homotopic`, with its bounds, on the
    two walk strings."""

    def __init__(self, graph: Graph, max_states: int, classes: _WalkClasses):
        self.graph = graph
        self.table = _walk_table(graph, False)
        self.max_states = max_states
        self.classes = classes
        self.invariants: dict[int, tuple] = {}
        self.distinct: set[tuple[int, int]] = set()
        self.unknown: set[tuple[int, int]] = set()
        self.searches = 0

    def invariant(self, root: int) -> tuple:
        inv = self.invariants.get(root)
        if inv is None:
            seq = self.classes.walks[root]
            start, end = _walk_names(self.graph, seq[0] + seq[-1])
            # a walk string's code points are its declaration indices
            residue = abelianized_for_walkseq(self.graph, start, False).index_residue(map(ord, seq))
            inv = self.invariants[root] = (start, end, len(seq) % 2, residue)
        return inv

    def verdict(self, i1: int, i2: int) -> Verdict:
        classes = self.classes
        r1, r2 = classes.find(i1), classes.find(i2)
        if r1 == r2:
            return Verdict.EQUAL
        roots = (min(r1, r2), max(r1, r2))
        if roots in self.distinct:
            return Verdict.DISTINCT
        pair = (min(i1, i2), max(i1, i2))
        if pair in self.unknown:
            return Verdict.UNKNOWN
        self.searches += 1
        if self.invariant(r1) != self.invariant(r2):
            self.distinct.add(roots)
            return Verdict.DISTINCT
        s1, s2 = classes.walks[i1], classes.walks[i2]
        max_len = max(len(s1), len(s2)) - 1 + DEFAULT_EXTENSION
        if _walk_search(self.table, s1, s2, max_len, self.max_states)[0] is None:
            self.unknown.add(pair)
            return Verdict.UNKNOWN
        classes.parent[r2] = r1
        self.invariants.pop(r2, None)
        return Verdict.EQUAL


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
        the given parity, 0 or 1)?"""
        for v in (source, target):
            if v not in self.graph_product:
                raise ValueError(f"walk vertex {v!r} not in graph")
        if parity is not None and (type(parity) is not int or parity not in (0, 1)):
            raise ValueError(f"parity must be 0 or 1, not {parity!r}")
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
    if pair_budget < 0:
        raise ValueError("pair_budget must be nonnegative")
    if walk_cap < 0:
        raise ValueError("walk_cap must be nonnegative")
    if max_states < 1:
        raise ValueError("max_states must be positive")
    p = product(g, h)
    report = ProductPullbackReport(g, h, p)
    # product declares (x, y) at declaration index x * |H| + y; a factor's
    # own tokens may contain '|', so product tokens are never split or joined
    nh = len(h.vertices)
    gv, hv, pv = g.vertices, h.vertices, p.vertices

    # reachability as sets of declaration-index triples: the mismatches are
    # the symmetric difference of the product's set and the factors' sets
    # joined on parity, in the order of a loop over (x, y, k, m, parity)
    reach_p = _parity_pairs(p)
    report._reach_product = frozenset((pv[u], pv[v], par) for u, v, par in reach_p)
    reach_h: tuple[list, list] = ([], [])
    for k, m, par in _parity_pairs(h):
        reach_h[par].append((k, m))
    joined = {(x * nh + k, y * nh + m, par) for x, y, par in _parity_pairs(g) for k, m in reach_h[par]}
    for i, j, par in sorted(reach_p ^ joined, key=lambda t: (t[0] // nh, t[1] // nh, t[0] % nh, t[1] % nh, t[2])):
        lhs = (i, j, par) in reach_p
        report.parity_mismatches.append(((gv[i // nh], hv[i % nh]), (gv[j // nh], hv[j % nh]), par, lhs, not lhs))

    nbrs_g, nbrs_h, nbrs_p = (_walk_table(x, False).vias for x in (g, h, p))
    # a product character's factor characters, in product declaration order:
    # the lift's table, and the projections' `str.translate` tables
    coords = list(iproduct(nbrs_g, nbrs_h))
    lifted = dict(zip(coords, nbrs_p))
    to_g, to_h = [c for c, _ in coords], [c for _, c in coords]
    too_many = f"more than {walk_cap} normal walks at max_len {max_len}"
    walks_g = _walk_list(nbrs_g, max_len, True, walk_cap, too_many)
    walks_h = _walk_list(nbrs_h, max_len, True, walk_cap, too_many)
    # each step of a lift pairs a step of G with a step of H, and the lift
    # projects onto the two tail extensions where the tables invert it; when
    # both hold, each lift is a walk and only the extensions' prunes decide
    by_steps = len(lifted) == len(coords) and all(
        to_g[ord(c)] == a and to_h[ord(c)] == b for (a, b), c in lifted.items()
    ) and all(
        lifted[a2, b2] in nbrs_p[lifted[a, b]] for a in nbrs_g for a2 in nbrs_g[a] for b in nbrs_h for b2 in nbrs_h[b]
    )
    # each factor's (walk, target) -> None if the walk has no tail extension
    # to target, else whether the extension prunes back to the walk
    recovers_g: dict[tuple[str, int], Optional[bool]] = {}
    recovers_h = recovers_g if h is g else {}

    def recovered(nbrs: dict[str, tuple[str, ...]], recovers: dict, seq: str, target: int) -> Optional[bool]:
        key = (seq, target)
        if key not in recovers:
            ext = _tail_extend(nbrs, seq, target)
            recovers[key] = None if ext is None else "".join(_pruned(ext)) == seq
        return recovers[key]

    pairs = ((wg, wh) for wg in walks_g for wh in walks_h if (len(wg) - len(wh)) % 2 == 0)
    for wg, wh in islice(pairs, pair_budget):
        report.lift_checked += 1
        target = max(len(wg), len(wh)) - 1
        if by_steps:
            rg, rh = recovered(nbrs_g, recovers_g, wg, target), recovered(nbrs_h, recovers_h, wh, target)
            if rg is None or rh is None:
                why = "tail extension impossible"
            elif rg and rh:
                continue
            else:
                why = "projection does not recover the pair"
        else:
            why = _lift_failure(nbrs_g, nbrs_h, nbrs_p, lifted, to_g, to_h, wg, wh, target)
            if why is None:
                continue
        report.lift_failures.append((_walk_names(g, wg), _walk_names(h, wh), why))
    report.truncated = next(pairs, None) is not None

    # same-endpoint product walks by endpoint names; a pair is two walks of
    # one group with one parity
    walks_p = _walk_list(nbrs_p, max_len, True, walk_cap, too_many)
    by_endpoints: dict[str, list[int]] = {}
    for i, w in enumerate(walks_p):
        by_endpoints.setdefault(w[0] + w[-1], []).append(i)
    groups = [by_endpoints[k] for k in sorted(by_endpoints, key=lambda k: (pv[ord(k[0])], pv[ord(k[1])]))]
    if not any(len({len(walks_p[i]) % 2 for i in grp}) < len(grp) for grp in groups):
        return report

    # by the product theorem the bounded classes of each graph's listed
    # normal walks hold nearly every pair; the verdict tables decide the rest
    def verdicts(graph: Graph, walks: list[str]) -> _ClassVerdicts:
        return _ClassVerdicts(graph, max_states, _bounded_classes(_walk_table(graph, False), walks))

    left = verdicts(g, walks_g)
    right = left if h is g else verdicts(h, walks_h)
    prod = verdicts(p, walks_p)
    # a projection takes the id of its prune normal form, which keeps its
    # endpoints, parity and residue, and that id's class root as the
    # bounded classes left it; projections repeat heavily
    keyed_g: dict[str, tuple[int, int]] = {}
    keyed_h = keyed_g if h is g else {}

    def key(seq: str, keyed: dict[str, tuple[int, int]], classes: _WalkClasses) -> tuple[int, int]:
        k = keyed.get(seq)
        if k is None:
            i = classes.ids["".join(_pruned(seq))]
            k = keyed[seq] = (i, classes.find(i))
        return k

    # each product walk's id and class root, its projections' ids and
    # roots, and its parity
    walk_keys = []
    for i, w in enumerate(walks_p):
        ga, rga = key(w.translate(to_g), keyed_g, left.classes)
        ha, rha = key(w.translate(to_h), keyed_h, right.classes)
        walk_keys.append((i, ga, ha, len(w) % 2, rga, rha, prod.classes.find(i)))
    pairs = (
        (walk_keys[a], walk_keys[b]) for group in groups for x, a in enumerate(group) for b in group[x + 1:]
        if walk_keys[a][3] == walk_keys[b][3]
    )
    # roots only merge, so roots that agreed when keyed agree now: such a
    # pair's verdicts are Equal with no memo, join or search; the others go
    # to the verdict tables in order
    for (wa, ga, ha, _, rga, rha, rpa), (wb, gb, hb, _, rgb, rhb, rpb) in islice(pairs, pair_budget):
        if rga != rgb or rha != rhb:
            va = left.verdict(ga, gb)
            vb = right.verdict(ha, hb)
            if va is Verdict.DISTINCT or vb is Verdict.DISTINCT:
                continue
            if va is Verdict.UNKNOWN or vb is Verdict.UNKNOWN:
                report.injectivity_unknown.append(
                    (_walk_names(p, walks_p[wa]), _walk_names(p, walks_p[wb]), "projection undecided")
                )
                continue
        report.injectivity_checked += 1
        if rpa == rpb:
            continue
        verdict = prod.verdict(wa, wb)
        if verdict is Verdict.EQUAL:
            continue
        ta, tb = _walk_names(p, walks_p[wa]), _walk_names(p, walks_p[wb])
        if verdict is Verdict.DISTINCT:
            dec = walks_homotopic(Walk(p, ta), Walk(p, tb), max_states=max_states)
            report.injectivity_counterexamples.append((ta, tb, dec.certificate))
        else:
            report.injectivity_unknown.append((ta, tb, "product search undecided"))
    report.truncated |= next(pairs, None) is not None
    report.factor_searches = left.searches + (right.searches if right is not left else 0)
    report.product_searches = prod.searches
    return report


def _lift_failure(nbrs_g: dict, nbrs_h: dict, nbrs_p: dict, lifted: dict, to_g: list, to_h: list,
                  wg: str, wh: str, target: int) -> Optional[str]:
    """Why the pair (wg, wh) does not lift after tail extension to target,
    or None: the lift is built as a product walk string and scanned step
    by step."""
    eg = _tail_extend(nbrs_g, wg, target)
    eh = _tail_extend(nbrs_h, wh, target)
    if eg is None or eh is None:
        return "tail extension impossible"
    lift = "".join(map(lifted.__getitem__, zip(eg, eh)))
    if not all(b in nbrs_p[a] for a, b in zip(lift, lift[1:])):
        return "lift is not a walk"
    if "".join(_pruned(lift.translate(to_g))) != wg or "".join(_pruned(lift.translate(to_h))) != wh:
        return "projection does not recover the pair"
    return None


# -- reflexive splitting ------------------------------------------------------------


# move-graph horizon beyond max_len, and the concatenation sample
_SPLIT_SLACK = 2
_SPLIT_CONCAT_SAMPLES = 40
_SPLIT_SEED = 0


def _concat_sample(walks: list[str], max_len: int, count: int, rng: random.Random) -> list[tuple[str, str]]:
    """The first `count` composable pairs (a, b) of walk strings with
    len(a) + len(b) <= max_len, not both trivial, in the order `rng.shuffle`
    leaves their list: a in the order of `walks` (every walk up to at least
    max_len, in walk order), then b in walk order."""
    # within[u][d]: the walks from u of length <= d, in walk order
    within: dict[str, list[list[str]]] = {}
    firsts = [a for a in walks if len(a) - 1 <= max_len]
    for a in firsts:
        lists = within.setdefault(a[0], [[] for _ in range(max_len + 1)])
        for d in range(len(a) - 1, max_len + 1):
            lists[d].append(a)
    # a trivial a skips the trivial b, the first walk from its end
    pairs = [(a, b) for a in firsts for b in within[a[-1]][max_len + 1 - len(a)][len(a) == 1:]]
    rng.shuffle(pairs)
    return pairs[:count]


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
    respect concatenation on 40 composable pairs drawn with a fixed seed:
    the even-length forms of a.b and of a then b must share a class.  Every
    question is answered from those classes; no walk search runs.
    """
    if max_len < 0:
        raise ValueError("max_len must be nonnegative")
    if state_cap < 0:
        raise ValueError("state_cap must be nonnegative")
    if any(not g.is_looped(v) for v in g.vertices):
        raise ValueError("reflexive splitting needs every vertex looped")
    table = _walk_table(g, False)
    # unlooped, a vertex's unprune vias are all its neighbors, in order
    universe = _walk_list(
        table.vias, max_len + _SPLIT_SLACK, False, state_cap, f"move-graph universe exceeds {state_cap} walks"
    )

    classes = _bounded_classes(table, universe)
    ids, find = classes.ids, classes.find

    def rank(seq: str) -> tuple:
        return len(seq), _walk_names(g, seq)

    report = ReflexiveSplitReport()
    # classes of bounded walks by endpoints (a walk string) and parity
    bounded: dict[tuple[str, int], set[int]] = {}
    rep_of: dict[int, str] = {}
    for i, seq in enumerate(universe):
        if len(seq) - 1 <= max_len:
            root = find(i)
            bounded.setdefault((seq[0] + seq[-1], (len(seq) - 1) % 2), set()).add(root)
            # the least by (length, token tuple); walks come in index order
            rep = rep_of.get(root)
            if rep is None or len(seq) < len(rep) or (len(seq) == len(rep) and rank(seq) < rank(rep)):
                rep_of[root] = seq

    for uv in sorted({k for k, _ in bounded}, key=lambda k: _walk_names(g, k)):
        tu, tv = _walk_names(g, uv)
        evens = bounded.get((uv, 0), set())
        odds = bounded.get((uv, 1), set())
        report.class_counts[(tu, tv)] = (len(evens), len(odds))
        if len(evens) != len(odds):
            report.pairing_failures.append((tu, tv, "class counts differ", len(evens), len(odds)))
            continue
        image = set()
        for rep in sorted((rep_of[oc] for oc in odds), key=rank):
            ec = find(ids[rep + uv[1]])
            if ec not in evens:
                report.pairing_failures.append((tu, tv, "append leaves bounded even classes", _walk_names(g, rep)))
            image.add(ec)
        if len(image) != len(odds):
            report.pairing_failures.append((tu, tv, "append is not injective on classes"))

    def evenize(seq: str) -> str:
        # an odd-length walk is a walk string of even size
        return seq + seq[-1] if len(seq) % 2 == 0 else seq

    # both sides have length <= max_len + 2, so both lie in the universe.  They
    # differ only by loop steps: spider moves slide each one to the end and
    # a prune removes them two at a time, through walks no longer than the
    # longer side.  So a correct union has joined them, and a pair whose
    # classes differ is a failure of the classes themselves
    for (a, b) in _concat_sample(universe, max_len, _SPLIT_CONCAT_SAMPLES, random.Random(_SPLIT_SEED)):
        lhs, rhs = evenize(a + b[1:]), evenize(a) + evenize(b)[1:]
        report.concat_checked += 1
        if find(ids[lhs]) != find(ids[rhs]):
            report.concat_failures.append((_walk_names(g, a), _walk_names(g, b), "different bounded classes"))
    return report


# -- naturality squares ---------------------------------------------------------------


def naturality_square(
    phi: Morphism,
    psi: Morphism,
    alpha: Walk,
    max_states: int = DEFAULT_MAX_STATES,
) -> Decision:
    """Decide gamma_w * psi(alpha) ~ phi(alpha) * gamma_w' for a spider
    pair phi, psi and a walk alpha from w to w', where gamma_w is the arrow
    phi(w) -> psi(w): trivial where phi and psi agree.

    The spider homotopy itself makes the square commute, so its Equal
    certificate is built, not searched for.  With x the moved vertex,
    z = phi(x), y = psi(x) and m the middle vertex of gamma_x, it turns
    y into z at every interior visit of x; if alpha ends at x, it unprunes
    y via m at the end and turns that y into z; if alpha starts at x, it
    turns the y after gamma_x into z and prunes the backtrack z, m, z.
    The certificate is replayed with its side conditions checked.  A
    spider step next to an unturned y needs z ~ y, which a looped x need
    not give; only then does the bounded search decide."""
    source, target = phi.source, phi.target
    if psi.source != source or psi.target != target:
        raise ValueError("naturality square needs two morphisms with one source and one target")
    if alpha.graph != source:
        raise ValueError("walk does not live in the morphisms' source")
    if max_states < 1:
        raise ValueError("max_states must be positive")
    if not (check_morphism(phi) and check_morphism(psi)):
        raise ValueError("map does not preserve edges")
    f, g = phi.mapping, psi.mapping
    moved = [v for v in source.vertices if f[v] != g[v]]
    if len(moved) > 1:
        raise ValueError("naturality square needs a spider pair of morphisms")
    seq = alpha.seq
    lhs, rhs = tuple(g[v] for v in seq), tuple(f[v] for v in seq)
    steps: list = []
    if moved:
        x = moved[0]
        z, y = f[x], g[x]
        # gamma_x = (z, m, y) runs through the image m of x's least neighbor
        # other than x, or through z's loop when x has only its own
        others = [u for u in source.neighbors(x) if u != x]
        if others:
            m = f[others[0]]
        elif not source.is_looped(x):
            raise ValueError(f"moved vertex {x!r} has no neighbor, so no arrow joins its images")
        elif not target.adjacent(z, y):
            raise ValueError(f"moved vertex {x!r} has only its loop and its images {z!r}, {y!r} are not adjacent")
        else:
            m = z
        k = len(seq) - 1
        off = 0
        if seq[0] == x:
            lhs, off = (z, m) + lhs, 2
        if seq[-1] == x:
            rhs += (m, y)
        steps += (SpiderStep(i + off, y, z) for i in range(1, k) if seq[i] == x)
        if k and seq[-1] == x:
            steps += (UnpruneStep(k + off, m), SpiderStep(k + off, y, z))
        if k and seq[0] == x:
            steps += (SpiderStep(2, y, z), PruneStep(0))
    a = Walk(target, lhs)
    try:
        if replay_walk_certificate(a, steps).seq == rhs:
            return Decision(Verdict.EQUAL, tuple(steps))
    except ValueError:
        pass
    return walks_homotopic(a, Walk(target, rhs), max_states=max_states)
