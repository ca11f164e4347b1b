import itertools
import random
from dataclasses import replace

import pytest

from ghom import (
    GuardExceeded,
    Morphism,
    Verdict,
    cycle_graph,
    foldable_pairs,
    identity_morphism,
    is_stiff,
    morphisms_homotopic,
    parse_walk,
    path_graph,
    prune_normalize,
    replay_morphism_certificate,
    replay_walk_certificate,
    spider_successors,
    stiff_reduce,
    terminal_graph,
    walks_homotopic,
)
from ghom.homotopy import (
    LPruneStep,
    LUnpruneStep,
    MorphismSpiderStep,
    PruneStep,
    SpiderStep,
    UnpruneStep,
    _bidirectional_search,
    _decode_walk_step,
    _morphism_successors,
    _walk_search,
    apply_morphism_step,
    apply_walk_step,
    walk_step_successors,
)
from ghom.graphs import Graph, _chars, _move_table, _walk_names, _walk_string, _walk_table, check_morphism
from ghom.walks import Walk
from conftest import find_isomorphism, fold_composite, random_graph, random_walk_seq


# -- spider successors -------------------------------------------------------


def test_spider_successors_worked_example(example42):
    succ = spider_successors(parse_walk(example42, "a,c,e"))
    assert [(s.position, s.old, s.new, w.seq) for s, w in succ] == [
        (1, "c", "d", ("a", "d", "e"))
    ]


def test_spider_successors_c5_interior_empty():
    c5 = cycle_graph(5)
    assert spider_successors(parse_walk(c5, "0,1,2")) == []


def test_spider_successors_looped_square_blocked(looped_square):
    assert spider_successors(parse_walk(looped_square, "a,b,c"), looped_mode=True) == []


def test_spider_moves_preserve_endpoints_and_length():
    rng = random.Random(3)
    for _ in range(50):
        g = random_graph(rng, 5, no_isolated=True)
        w = Walk(g, random_walk_seq(rng, g, 8))
        for step, w2 in spider_successors(w):
            assert w2.length == w.length
            assert (w2.start, w2.end) == (w.start, w.end)


# -- the integer move kernel against a token-level reference --------------------


def reference_successors(graph, seq, looped_mode, max_len):
    """Token-level move generator, with the step that makes each successor:
    the order the integer kernel must reproduce."""
    n = len(seq) - 1
    out = []
    for i in range(n - 1):
        if seq[i] == seq[i + 2]:
            out.append((PruneStep(i), seq[:i] + seq[i + 2:]))
    if looped_mode:
        for i in range(n):
            if seq[i] == seq[i + 1]:
                out.append((LPruneStep(i), seq[:i] + seq[i + 1:]))
    for i in range(1, n):
        prev_v, cur, next_v = seq[i - 1], seq[i], seq[i + 1]
        for x in graph.neighbors(prev_v):
            if x == cur or not graph.adjacent(x, next_v):
                continue
            if looped_mode and not (graph.is_looped(x) and graph.adjacent(cur, x)):
                continue
            out.append((SpiderStep(i, cur, x), seq[:i] + (x,) + seq[i + 1:]))
    if n + 2 <= max_len:
        for i in range(n + 1):
            for x in graph.neighbors(seq[i]):
                if looped_mode and not graph.is_looped(x):
                    continue
                out.append((UnpruneStep(i, x), seq[:i] + (seq[i], x) + seq[i:]))
    if looped_mode and n + 1 <= max_len:
        for i in range(n + 1):
            out.append((LUnpruneStep(i), seq[:i] + (seq[i],) + seq[i:]))
    return out


def _kernel_cases(seed, count):
    """(graph, walk, looped_mode, max_len) on unlooped, partly looped and
    fully looped random graphs; looped-mode walks stay on looped vertices."""
    rng = random.Random(seed)
    for loops in ("none", "some", "all"):
        for _ in range(count):
            g = random_graph(rng, rng.randint(3, 6), p=0.55, no_isolated=True)
            looped = {"none": [], "some": [v for v in g.vertices if rng.random() < 0.6], "all": g.vertices}[loops]
            g = Graph(g.vertices, list(g.edges) + [(v, v) for v in looped])
            for looped_mode in (False, True):
                allowed = looped if looped_mode else g.vertices
                if not allowed:
                    continue
                seq = [rng.choice(allowed)]
                for _ in range(rng.randint(0, 7)):
                    seq.append(rng.choice([x for x in g.neighbors(seq[-1]) if x in allowed]))
                yield g, tuple(seq), looped_mode, len(seq) - 1 + rng.randint(0, 2)


def test_kernel_successors_match_reference_order():
    checked = 0
    for g, seq, looped_mode, max_len in _kernel_cases(5, 40):
        kernel = walk_step_successors(_walk_table(g, looped_mode), _walk_string(g, seq), max_len)
        reference = reference_successors(g, seq, looped_mode, max_len)
        assert [_walk_names(g, child) for child in kernel] == [s for _, s in reference]
        checked += len(kernel)
    assert checked > 1000


def test_decoding_gives_the_first_reference_step_both_ways():
    for g, seq, looped_mode, max_len in _kernel_cases(6, 25):
        first = {}
        for step, child in reference_successors(g, seq, looped_mode, max_len):
            first.setdefault(child, step)
        ints = _walk_string(g, seq)
        for child, step in first.items():
            child_ints = _walk_string(g, child)
            assert _decode_walk_step(ints, child_ints, g.vertices) == step
            # read backwards, as the goal side of the search is
            back = next(s for s, c in reference_successors(g, child, looped_mode, len(seq) - 1) if c == seq)
            assert _decode_walk_step(child_ints, ints, g.vertices) == back


def test_certificates_follow_the_token_level_search():
    """Equal certificates pass through the states of the same search run on
    tokens with the reference generator, and Unknown counts agree."""
    rng = random.Random(8)
    for g, seq, looped_mode, max_len in _kernel_cases(7, 12):
        a = Walk(g, seq)
        allowed = [v for v in g.vertices if g.is_looped(v)] if looped_mode else list(g.vertices)
        tail = [seq[-1]]
        for _ in range(rng.randint(0, 6)):
            tail.append(rng.choice([x for x in g.neighbors(tail[-1]) if x in allowed]))
        b = Walk(g, seq + tuple(tail[1:]) + tuple(reversed(tail[:-1])))
        limit = max(a.length, b.length) + 2
        d = walks_homotopic(a, b, looped_mode=looped_mode, max_len=limit, max_states=2_000)
        path, seen_a, seen_b = _bidirectional_search(
            lambda s: [c for _, c in reference_successors(g, s, looped_mode, limit)], a.seq, b.seq, 2_000
        )
        if d.verdict is Verdict.EQUAL:
            states = [a.seq]
            for step in d.certificate:
                states.append(apply_walk_step(g, states[-1], step, looped_mode))
            assert list(zip(states, states[1:])) == path
        elif d.verdict is Verdict.UNKNOWN:
            assert path is None and d.certificate.states_explored == seen_a + seen_b


# -- the string kernel against the frozen tuple kernel ---------------------------


def tuple_successors(table, seq, max_len):
    """`walk_step_successors` as it was on declaration-index tuples, frozen
    as the reference for the string kernel (less its spider memo)."""
    n = len(seq) - 1
    looped_mode = table.looped_mode
    out = [seq[:i] + seq[i + 2:] for i in range(n - 1) if seq[i] == seq[i + 2]]
    if looped_mode:
        out += [seq[:i] + seq[i + 1:] for i in range(n) if seq[i] == seq[i + 1]]
    for i in range(1, n):
        head, tail = seq[:i], seq[i + 1:]
        out += [head + (x,) + tail for x in table.spiders(*seq[i - 1:i + 2])]
    if n + 2 <= max_len:
        for i in range(n + 1):
            head, tail = seq[:i + 1], seq[i:]
            out += [head + (x,) + tail for x in table.unprunes[seq[i]]]
    if looped_mode and n + 1 <= max_len:
        out += [seq[:i + 1] + seq[i:] for i in range(n + 1)]
    return out


def tuple_decode_walk_step(before, after, names):
    """`_decode_walk_step` as it was on declaration-index tuples."""
    d = len(after) - len(before)
    if d == 0:
        i = next(i for i, (u, v) in enumerate(zip(before, after)) if u != v)
        return SpiderStep(i, names[before[i]], names[after[i]])
    long, short, k = (before, after, -d) if d < 0 else (after, before, d)
    i = next(i for i in range(len(short)) if long[i] == long[i + k] and long[:i] + long[i + k:] == short)
    if d == -2:
        return PruneStep(i)
    if d == -1:
        return LPruneStep(i)
    if d == 2:
        return UnpruneStep(i, names[after[i + 1]])
    return LUnpruneStep(i)


def tuple_walk_search(g, a, b, looped_mode, max_len, max_states):
    """The walk search as it was on tuples: (decoded certificate or None,
    states explored)."""
    table = _move_table(g, looped_mode)
    path, seen_a, seen_b = _bidirectional_search(
        lambda s: tuple_successors(table, s, max_len), tuple(map(g.index, a)), tuple(map(g.index, b)), max_states
    )
    certificate = None if path is None else tuple(tuple_decode_walk_step(p, c, g.vertices) for p, c in path)
    return certificate, seen_a + seen_b


def string_walk_search(g, a, b, looped_mode, max_len, max_states):
    """The same through `_walk_search` on walk strings."""
    path, explored = _walk_search(
        _walk_table(g, looped_mode), _walk_string(g, a), _walk_string(g, b), max_len, max_states
    )
    certificate = None if path is None else tuple(_decode_walk_step(p, c, g.vertices) for p, c in path)
    return certificate, explored


def padded(g, count):
    """g behind `count` isolated vertices, so its declaration indices start
    at `count`."""
    return Graph([f"pad_{i}" for i in range(count)] + list(g.vertices), g.edges)


def _search_cases(seed, count, pad=0):
    """(graph, a, b, looped_mode, max_len): `_kernel_cases` walks, each with
    the walk itself extended by a random excursion out and back, and with
    a random walk of the same mode from the same start."""
    rng = random.Random(seed)
    for g, seq, looped_mode, max_len in _kernel_cases(seed, count):
        g = padded(g, pad) if pad else g
        allowed = [v for v in g.vertices if g.is_looped(v)] if looped_mode else list(g.vertices)
        tail = [seq[-1]]
        for _ in range(rng.randint(0, 5)):
            tail.append(rng.choice([x for x in g.neighbors(tail[-1]) if x in allowed]))
        b = seq + tuple(tail[1:]) + tuple(reversed(tail[:-1]))
        other = [seq[0]]
        for _ in range(rng.randint(0, 6)):
            other.append(rng.choice([x for x in g.neighbors(other[-1]) if x in allowed]))
        for goal in (b, tuple(other)):
            yield g, seq, goal, looped_mode, max(len(seq), len(goal)) - 1 + rng.randint(0, 2)


def _assert_successors_match_tuple_kernel(cases):
    checked = 0
    for g, seq, looped_mode, max_len in cases:
        ints = tuple(map(g.index, seq))
        kernel = walk_step_successors(_walk_table(g, looped_mode), _chars(ints), max_len)
        reference = tuple_successors(_move_table(g, looped_mode), ints, max_len)
        assert [tuple(map(ord, child)) for child in kernel] == reference
        checked += len(kernel)
    return checked


def _assert_searches_match_tuple_search(cases, max_states, decide=True):
    """Each search agrees with the tuple search; with `decide`, so does
    `walks_homotopic` wherever it reaches the search.  Returns the verdicts."""
    verdicts = set()
    for g, a, b, looped_mode, max_len in cases:
        reference = tuple_walk_search(g, a, b, looped_mode, max_len, max_states)
        assert string_walk_search(g, a, b, looped_mode, max_len, max_states) == reference, (a, b)
        if not decide:
            verdicts.add(Verdict.UNKNOWN if reference[0] is None else Verdict.EQUAL)
            continue
        d = walks_homotopic(Walk(g, a), Walk(g, b), looped_mode=looped_mode, max_len=max_len, max_states=max_states)
        verdicts.add(d.verdict)
        if d.verdict is Verdict.EQUAL:
            assert d.certificate == reference[0]
        elif d.verdict is Verdict.UNKNOWN:
            assert reference[0] is None and d.certificate.states_explored == reference[1]
    return verdicts


def test_string_successors_match_the_tuple_kernel():
    assert _assert_successors_match_tuple_kernel(_kernel_cases(21, 40)) > 1000


def test_string_searches_match_the_tuple_search():
    assert _assert_searches_match_tuple_search(_search_cases(22, 12), 400) == set(Verdict)


def test_string_kernel_past_one_byte_indices():
    # declaration indices 260 and up take two bytes per character
    cases = [(padded(g, 260), seq, lm, ml) for g, seq, lm, ml in _kernel_cases(23, 10)]
    assert _assert_successors_match_tuple_kernel(cases) > 200
    assert Verdict.EQUAL in _assert_searches_match_tuple_search(_search_cases(24, 4, pad=260), 400)
    fan = Graph([f"v{i}" for i in range(300)],
                [(f"v{i}", f"v{(i + 1) % 300}") for i in range(300)] + [("v299", f"v{j}") for j in range(290, 298)])
    a, b = tuple(f"v{i}" for i in range(290, 297)), ("v290", "v299", "v296")
    certificate, explored = tuple_walk_search(fan, a, b, False, 12, 2_000)
    assert len(certificate) == 5
    assert string_walk_search(fan, a, b, False, 12, 2_000) == (certificate, explored)


def test_string_kernel_around_the_surrogate_range():
    # the walks' characters run from 0xD7FE across 0xD800, where UTF-16
    # surrogates begin; a str holds them like any other code point.  One
    # padded graph, searched directly: a presentation would span the padding
    pad = 0xD7FE
    rng = random.Random(25)
    g = random_graph(rng, 6, p=0.55, no_isolated=True)
    g = padded(Graph(g.vertices, list(g.edges) + [(v, v) for v in g.vertices[:4]]), pad)
    kernel_cases, search_cases = [], []
    for looped_mode in (False, True):
        allowed = [v for v in g.vertices[pad:] if g.is_looped(v) or not looped_mode]
        for _ in range(8):
            start = rng.choice(allowed)
            a, b = [start], [start]
            for walk in (a, b):
                for _ in range(rng.randint(0, 6)):
                    walk.append(rng.choice([x for x in g.neighbors(walk[-1]) if x in allowed]))
            max_len = max(len(a), len(b)) - 1 + rng.randint(0, 2)
            kernel_cases.append((g, tuple(a), looped_mode, max_len))
            search_cases.append((g, tuple(a), tuple(b), looped_mode, max_len))
    assert _assert_successors_match_tuple_kernel(kernel_cases) > 100
    assert _assert_searches_match_tuple_search(search_cases, 300, decide=False) == {Verdict.EQUAL, Verdict.UNKNOWN}


def test_walk_string_encoding_bound():
    assert _chars([0, 255, 256, 0xD800, 0x10FFFF]) == "\x00\xff\u0100\ud800\U0010ffff"
    with pytest.raises(GuardExceeded, match="0x110000"):
        _chars([3, 0x110000])
    # a graph of more than 0x110000 vertices (about 9 s and 500 MB to build)
    # raises the same GuardExceeded when `_walk_table` encodes its vertices;
    # it is left out of these tests for its cost


def test_character_tables_wait_for_the_first_walk_search():
    g = cycle_graph(5)
    assert g.components() and g.is_connected()
    table = _move_table(g, False)
    assert table.vias is None and table.spider_memo is None
    assert walks_homotopic(parse_walk(g, "0,1,0"), parse_walk(g, "0")).verdict is Verdict.EQUAL
    assert table.vias is not None and table.spider_memo is not None


# -- walk homotopy ------------------------------------------------------------


def test_worked_example_equal_with_replay(example42):
    a = parse_walk(example42, "a,c,b,c,e")
    b = parse_walk(example42, "a,d,e")
    d = walks_homotopic(a, b)
    assert d.verdict is Verdict.EQUAL
    assert replay_walk_certificate(a, d.certificate) == b


def test_reflexivity_empty_certificate(example42):
    v = parse_walk(example42, "a")
    d = walks_homotopic(v, v)
    assert d.verdict is Verdict.EQUAL and d.certificate == ()


def test_c5_orientations_distinct_by_abelianization():
    c5 = cycle_graph(5)
    d = walks_homotopic(parse_walk(c5, "0,1,2,3,4,0"), parse_walk(c5, "0,4,3,2,1,0"))
    assert d.verdict is Verdict.DISTINCT
    assert d.certificate.invariant == "abelianization image mismatch"
    left, right = d.certificate.left, d.certificate.right
    assert left != right


def test_endpoint_mismatch(example42):
    d = walks_homotopic(parse_walk(example42, "a,c"), parse_walk(example42, "a,d"))
    assert d.verdict is Verdict.DISTINCT
    assert d.certificate.invariant == "endpoint mismatch"


def test_parity_mismatch():
    t = terminal_graph()
    d = walks_homotopic(parse_walk(t, "v"), parse_walk(t, "v,v"))
    assert d.verdict is Verdict.DISTINCT
    assert d.certificate.invariant == "parity mismatch"


def test_looped_square_example(looped_square):
    abc = parse_walk(looped_square, "a,b,c")
    adc = parse_walk(looped_square, "a,d,c")
    assert walks_homotopic(abc, adc).verdict is Verdict.EQUAL
    assert walks_homotopic(abc, adc, looped_mode=True).verdict is Verdict.DISTINCT


def test_looped_equal_certificate_replays(looped_square):
    a = parse_walk(looped_square, "a,a,b")
    b = parse_walk(looped_square, "a,b,b")
    d = walks_homotopic(a, b, looped_mode=True)
    assert d.verdict is Verdict.EQUAL
    assert replay_walk_certificate(a, d.certificate, looped_mode=True) == b


def test_walks_homotopic_validations(example42):
    a = parse_walk(example42, "a,c")
    with pytest.raises(ValueError):
        walks_homotopic(a, parse_walk(path_graph(1), "0,1"))
    with pytest.raises(ValueError):
        walks_homotopic(a, parse_walk(example42, "a,c,e,c"), max_len=1)
    with pytest.raises(ValueError):
        walks_homotopic(a, a, max_states=0)
    with pytest.raises(ValueError):
        walks_homotopic(a, a, looped_mode=True)


def test_unknown_when_bounds_tiny():
    # same endpoints and abelianized image, but no room to search: the
    # two C5 loops around differ by winding 5, invisible to Z-image? no:
    # use a genuinely hard pair: equal walks forced Unknown by max_states=1
    c5 = cycle_graph(5)
    a = parse_walk(c5, "0,1,0")
    b = parse_walk(c5, "0,4,0")
    d = walks_homotopic(a, b, max_states=1)
    assert d.verdict is Verdict.UNKNOWN
    assert d.certificate.max_states == 1


def test_symmetry_of_verdicts():
    rng = random.Random(17)
    for _ in range(30):
        g = random_graph(rng, 5, no_isolated=True)
        seq_a = random_walk_seq(rng, g, 6)
        seq_b = random_walk_seq(rng, g, 6)
        a, b = Walk(g, seq_a), Walk(g, seq_b)
        d1 = walks_homotopic(a, b, max_states=20_000)
        d2 = walks_homotopic(b, a, max_states=20_000)
        assert d1.verdict == d2.verdict


def test_prunes_change_length_by_two_unprunes_add_two(example42):
    a = parse_walk(example42, "a,c,b,c,e")
    seq = apply_walk_step(example42, a.seq, PruneStep(1))
    assert len(seq) == len(a.seq) - 2
    seq2 = apply_walk_step(example42, seq, UnpruneStep(0, "d"))
    assert len(seq2) == len(seq) + 2
    assert prune_normalize(Walk(example42, seq2)).seq == seq


def test_apply_walk_step_validates(example42):
    a = parse_walk(example42, "a,c,e")
    with pytest.raises(ValueError):
        apply_walk_step(example42, a.seq, SpiderStep(0, "a", "d"))
    with pytest.raises(ValueError):
        apply_walk_step(example42, a.seq, SpiderStep(1, "b", "d"))
    with pytest.raises(ValueError):
        apply_walk_step(example42, a.seq, PruneStep(0))
    with pytest.raises(ValueError):
        apply_walk_step(example42, a.seq, UnpruneStep(0, "e"))


def test_lunprune_needs_a_looped_vertex():
    g = Graph(["a", "b"], [("a", "b"), ("b", "b")])
    with pytest.raises(ValueError, match="unlooped"):
        apply_walk_step(g, ("a", "b"), LUnpruneStep(0), looped_mode=True)
    assert apply_walk_step(g, ("a", "b"), LUnpruneStep(1), looped_mode=True) == ("a", "b", "b")


# -- certificate replay -----------------------------------------------------------


def reference_replay_walk_certificate(a, steps, looped_mode=False):
    """The replay that validated a fresh `Walk` after every step, frozen
    as the reference for the replay that validates the end walk only."""
    seq = a.seq
    for step in steps:
        seq = apply_walk_step(a.graph, seq, step, looped_mode)
        Walk(a.graph, seq)
    return Walk(a.graph, seq)


def replay_outcome(replay, a, steps, looped_mode):
    try:
        return replay(a, steps, looped_mode).seq
    except Exception as exc:  # the exception type and message are compared
        return type(exc), str(exc)


def random_step(rng, g, seq):
    """A step of any kind at any position, usually invalid for `seq`."""
    kind = rng.randrange(5)
    i = rng.randrange(-1, len(seq) + 1)
    if kind == 0:
        return SpiderStep(i, rng.choice(seq), rng.choice(g.vertices))
    if kind == 1:
        return UnpruneStep(i, rng.choice(g.vertices))
    return (PruneStep, LPruneStep, LUnpruneStep)[kind - 2](i)


def tampered(rng, g, seq, steps, looped_mode):
    """`steps` with one step replaced by one that is usually invalid for
    the walk it meets: a wrong vertex or position, a via that is not
    adjacent, or an l-unprune at an unlooped vertex; None for no steps."""
    if not steps:
        return None
    k = rng.randrange(len(steps))
    for step in steps[:k]:
        seq = apply_walk_step(g, seq, step, looped_mode)
    step = steps[k]
    options = []
    if isinstance(step, SpiderStep):
        options += [replace(step, old=v) for v in g.vertices if v != step.old]
    options += [replace(step, position=step.position + d) for d in (-1, 1, len(seq))]
    options += [UnpruneStep(i, v) for i in range(len(seq)) for v in g.vertices if not g.adjacent(seq[i], v)]
    options += [LUnpruneStep(i) for i in range(len(seq)) if not g.is_looped(seq[i])]
    return steps[:k] + (rng.choice(options),) + steps[k + 1:]


def certificate_cases():
    """(graph, walk, steps, looped_mode): Equal certificates of seeded
    searches, the same certificates tampered, and random move sequences
    that mostly follow the successor order and sometimes break a rule."""
    rng = random.Random(1201)
    cases = []
    graphs = [random_graph(rng, 5, no_isolated=True) for _ in range(6)]
    graphs += [random_graph(rng, 5, loops=True, no_isolated=True) for _ in range(6)]
    for _ in range(6):
        g = random_graph(rng, 5, no_isolated=True)
        graphs.append(Graph(g.vertices, list(g.edges) + [(v, v) for v in g.vertices if rng.random() < 0.6]))
    for g in graphs:
        for looped_mode in (False, True):
            table = _walk_table(g, looped_mode)
            for _ in range(12):
                seq = random_walk_seq(rng, g, 5)
                a = Walk(g, seq)
                # a random move sequence through the kernel's successors
                cur, steps, broken = _walk_string(g, seq), [], False
                for _ in range(rng.randint(1, 8)):
                    if rng.random() < 0.15:
                        steps.append(random_step(rng, g, seq))
                        broken = True
                        break
                    children = walk_step_successors(table, cur, len(cur) + 2)
                    if not children:
                        break
                    child = rng.choice(children)
                    steps.append(_decode_walk_step(cur, child, g.vertices))
                    cur = child
                cases.append((g, a, tuple(steps), looped_mode))
                # the search's own certificate to where the moves led, and
                # that certificate tampered
                b = _walk_names(g, cur)
                if broken or (looped_mode and not all(g.is_looped(v) for v in seq + b)):
                    continue
                d = walks_homotopic(a, Walk(g, b), looped_mode=looped_mode, max_states=5_000)
                if d.verdict is Verdict.EQUAL:
                    cases.append((g, a, d.certificate, looped_mode))
                    bad = tampered(rng, g, seq, d.certificate, looped_mode)
                    if bad is not None:
                        cases.append((g, a, bad, looped_mode))
    return cases


def test_replay_matches_per_step_validating_reference():
    cases = certificate_cases()
    outcomes = []
    for g, a, steps, looped_mode in cases:
        expected = replay_outcome(reference_replay_walk_certificate, a, steps, looped_mode)
        assert replay_outcome(replay_walk_certificate, a, steps, looped_mode) == expected, (a.seq, steps)
        outcomes.append(expected)
    # both valid replays and every kind of refusal are exercised
    refusals = [o for o in outcomes if isinstance(o[0], type)]
    assert len(refusals) >= 30 and len(outcomes) - len(refusals) >= 100
    messages = " ".join(str(o[1]) for o in refusals)
    # every refusal comes from a step's side conditions, never from the
    # reference's check of an intermediate walk
    assert "is not an edge" not in messages
    for fragment in ("expects", "not adjacent", "unlooped", "no prune", "out of range", "not interior"):
        assert fragment in messages, fragment


def test_replay_refuses_tampered_relator_certificates():
    # each kind of tampering with a looped relator certificate on looped
    # C4 raises, from the step and not from a later walk check
    g = Graph(["a", "b", "c", "d"], [(v, v) for v in "abcd"] + [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
    a = Walk(g, ("a", "b", "a"))
    bad = {
        "wrong vertex": (SpiderStep(1, "c", "a"),),
        "wrong position": (PruneStep(1),),
        "via not adjacent": (UnpruneStep(1, "d"),),
        "l-unprune out of range": (LUnpruneStep(4),),
    }
    for name, steps in bad.items():
        expected = replay_outcome(reference_replay_walk_certificate, a, steps, True)
        assert isinstance(expected[0], type) and issubclass(expected[0], ValueError), name
        assert replay_outcome(replay_walk_certificate, a, steps, True) == expected, name
    half = Graph(["a", "b"], [("a", "b"), ("b", "b")])
    steps = (LUnpruneStep(0),)
    expected = replay_outcome(reference_replay_walk_certificate, Walk(half, ("a", "b")), steps, True)
    assert expected[0] is ValueError and "unlooped" in expected[1]
    assert replay_outcome(replay_walk_certificate, Walk(half, ("a", "b")), steps, True) == expected


# -- morphism homotopy -----------------------------------------------------------


def test_equal_morphisms_trivial(example42):
    idm = identity_morphism(example42)
    d = morphisms_homotopic(idm, idm)
    assert d.verdict is Verdict.EQUAL and d.certificate == ()


def test_identity_vs_fold_one_step(example42):
    fold = Morphism(example42, example42, {"a": "a", "b": "a", "c": "c", "d": "d", "e": "e"})
    d = morphisms_homotopic(identity_morphism(example42), fold)
    assert d.verdict is Verdict.EQUAL
    assert len(d.certificate) == 1
    assert replay_morphism_certificate(identity_morphism(example42), d.certificate) == fold


def test_identity_vs_rotation_distinct_closure():
    c5 = cycle_graph(5)
    rot = Morphism(c5, c5, {str(i): str((i + 1) % 5) for i in range(5)})
    d = morphisms_homotopic(identity_morphism(c5), rot)
    assert d.verdict is Verdict.DISTINCT
    assert d.certificate.invariant == "spider closure disjoint"


def test_image_component_invariant():
    k2 = path_graph(1)
    two = parse_graph_two_components()
    f = Morphism(k2, two, {"0": "p", "1": "q"})
    g = Morphism(k2, two, {"0": "r", "1": "s"})
    d = morphisms_homotopic(f, g)
    assert d.verdict is Verdict.DISTINCT
    assert d.certificate.invariant == "image component mismatch"


def parse_graph_two_components():
    from ghom import parse_graph

    return parse_graph("vertex p\nvertex q\nvertex r\nvertex s\nedge p q\nedge r s")


def test_single_vertex_source_maps_all_homotopic():
    # with an edgeless source every map is one spider move from any other,
    # even across target components
    single = path_graph(0)
    two = parse_graph_two_components()
    f = Morphism(single, two, {"0": "p"})
    g = Morphism(single, two, {"0": "r"})
    d = morphisms_homotopic(f, g)
    assert d.verdict is Verdict.EQUAL


def test_morphisms_shape_mismatch(example42):
    k2 = path_graph(1)
    with pytest.raises(ValueError):
        morphisms_homotopic(identity_morphism(example42), identity_morphism(k2))


def test_morphism_unknown_at_tiny_budget(example42):
    fold = Morphism(example42, example42, {"a": "a", "b": "a", "c": "c", "d": "d", "e": "e"})
    d = morphisms_homotopic(identity_morphism(example42), fold, max_steps=1)
    assert d.verdict in (Verdict.EQUAL, Verdict.UNKNOWN)


# -- the morphism kernel against a token-level reference ------------------------


def reference_morphism_successors(source, target, state):
    """Token-level spider moves of a map, with the step that makes each: the
    order the integer kernel must reproduce."""
    out = []
    for xi, x in enumerate(source.vertices):
        old = state[xi]
        for y in target.vertices:
            if y == old:
                continue
            if not all(target.adjacent(y, y if w == x else state[source.index(w)]) for w in source.neighbors(x)):
                continue
            if source.is_looped(x) and not target.adjacent(old, y):
                continue
            out.append((MorphismSpiderStep(x, old, y), state[:xi] + (y,) + state[xi + 1:]))
    return out


def _morphism_cases(seed, count):
    """(source, target, every morphism) on seeded pairs of graphs, isolated
    vertices allowed, each vertex looped with probability 0.4."""
    rng = random.Random(seed)
    for _ in range(count):
        source, target = (
            Graph(g.vertices, list(g.edges) + [(v, v) for v in g.vertices if rng.random() < 0.4])
            for g in (random_graph(rng, rng.randint(1, 4), p=0.55), random_graph(rng, rng.randint(2, 4), p=0.55))
        )
        maps = (
            Morphism(source, target, dict(zip(source.vertices, images)))
            for images in itertools.product(target.vertices, repeat=len(source.vertices))
        )
        yield source, target, [f for f in maps if check_morphism(f)]


def test_morphism_kernel_matches_reference_order():
    checked = looped_moves = 0
    for source, target, maps in _morphism_cases(11, 150):
        src, tgt = _move_table(source, False), _move_table(target, False)
        for f in maps:
            state = f.image_tuple()
            kernel = _morphism_successors(src, tgt, tuple(map(target.index, state)))
            reference = reference_morphism_successors(source, target, state)
            assert [tuple(target.vertices[y] for y in child) for child in kernel] == [s for _, s in reference]
            checked += len(kernel)
            looped_moves += sum(source.is_looped(step.vertex) for step, _ in reference)
    assert checked > 2000 and looped_moves > 200


def test_morphism_certificates_follow_the_token_level_search():
    """Equal certificates pass through the states of the same search run on
    tokens with the reference generator, step by step as the reference names
    them; Unknown and Distinct counts agree."""
    rng = random.Random(12)
    verdicts = set()
    for source, target, maps in _morphism_cases(13, 80):
        for _ in range(3 if maps else 0):
            f, g = rng.choice(maps), rng.choice(maps)
            cap = rng.choice((4, 40, 2_000))
            d = morphisms_homotopic(f, g, max_steps=cap)
            path, seen_f, seen_g = _bidirectional_search(
                lambda s: [c for _, c in reference_morphism_successors(source, target, s)],
                f.image_tuple(), g.image_tuple(), cap,
            )
            verdicts.add(d.verdict)
            if d.verdict is Verdict.EQUAL:
                states = [f]
                for step in d.certificate:
                    states.append(apply_morphism_step(states[-1], step))
                assert [(a.image_tuple(), b.image_tuple()) for a, b in zip(states, states[1:])] == path
                for (before, after), step in zip(path, d.certificate):
                    assert (step, after) in reference_morphism_successors(source, target, before)
                continue
            assert path is None
            if d.verdict is Verdict.UNKNOWN:
                assert d.certificate.states_explored == seen_f + seen_g
            elif d.certificate.invariant == "spider closure disjoint":
                assert (d.certificate.left, d.certificate.right) == (seen_f, seen_g)
    assert verdicts == set(Verdict)


# -- folds ------------------------------------------------------------------------


def test_first_fold_deterministic_choice(example42):
    _, folds = stiff_reduce(example42)
    first = folds[0]
    assert [v for v in first.source.vertices if first.mapping[v] != v] == ["a"]
    assert first.mapping["a"] == "e"
    assert check_morphism(first)
    # the pendant vertex folds onto its neighbors' neighborhood superset
    assert ("b", "a") in foldable_pairs(example42)
    assert ("b", "e") in foldable_pairs(example42)
    # b cannot fold onto d: c is not adjacent to d
    assert ("b", "d") not in foldable_pairs(example42)


def test_c5_and_k2_are_stiff():
    assert is_stiff(cycle_graph(5))
    assert is_stiff(path_graph(1))
    assert is_stiff(terminal_graph())


def test_stiff_reduce_worked_example(example42):
    stiff, folds = stiff_reduce(example42)
    assert find_isomorphism(stiff, path_graph(1)) is not None
    assert len(folds) == 3
    composite = fold_composite(example42, folds)
    assert check_morphism(composite)
    assert set(composite.mapping.values()) == set(stiff.vertices)


def test_stiff_reduce_fixed_points():
    c5 = cycle_graph(5)
    stiff, folds = stiff_reduce(c5)
    assert stiff == c5 and folds == []
    t = terminal_graph()
    assert stiff_reduce(t) == (t, [])


def test_stiff_reduce_output_is_stiff():
    rng = random.Random(19)
    for _ in range(20):
        g = random_graph(rng, rng.randint(1, 7), p=0.5, loops=rng.random() < 0.3)
        stiff, _ = stiff_reduce(g)
        assert is_stiff(stiff)


def test_fold_order_independence_up_to_isomorphism():
    rng = random.Random(20)
    for _ in range(10):
        g = random_graph(rng, rng.randint(2, 7), p=0.5)
        stiff_a, _ = stiff_reduce(g)

        cur = g
        while True:
            pairs = foldable_pairs(cur)
            if not pairs:
                break
            x, u = rng.choice(pairs)
            mapping = {v: v for v in cur.vertices}
            mapping[x] = u
            cur = cur.subgraph([v for v in cur.vertices if v != x])
        assert find_isomorphism(stiff_a, cur, cap=12) is not None
