import random

import pytest

from ghom import (
    GuardExceeded,
    Morphism,
    Verdict,
    cycle_graph,
    identity_morphism,
    naturality_square,
    parse_walk,
    path_graph,
    product,
    terminal_graph,
    verify_product_pullback,
    verify_reflexive_split,
    walk,
)
from ghom.verify import parity_reachable
from conftest import random_graph


def test_parity_reachable_on_p2():
    r = parity_reachable(path_graph(2))
    assert ("0", "1", 1) in r and ("0", "1", 0) not in r
    assert ("0", "2", 0) in r and ("0", "2", 1) not in r
    assert ("0", "0", 0) in r and ("0", "0", 1) not in r


def test_parity_reachable_odd_cycle():
    r = parity_reachable(cycle_graph(5))
    # odd cycle: both parities reachable between any two vertices
    assert all((u, v, p) in r for u in "01234" for v in "01234" for p in (0, 1))


def test_product_pullback_p2_k2():
    rep = verify_product_pullback(path_graph(2), path_graph(1), 6)
    assert rep.passed
    assert not rep.parity_mismatches and not rep.lift_failures
    assert rep.arrow_exists("0|0", "1|1", parity=1)
    assert rep.arrow_exists("0|0", "2|0", parity=0)
    assert not rep.arrow_exists("0|0", "1|0")


def test_product_pullback_k2_k2_components():
    rep = verify_product_pullback(path_graph(1), path_graph(1), 4)
    assert rep.passed
    assert len(rep.graph_product.components()) == 2
    assert not rep.arrow_exists("0|0", "0|1")


@pytest.mark.parametrize("nested", ["left", "right"])
def test_product_pullback_nested_factor(nested):
    # factor tokens contain '|', so projections cannot split product tokens
    k2 = path_graph(1)
    g, h = (product(k2, k2), k2) if nested == "left" else (k2, product(k2, k2))
    rep = verify_product_pullback(g, h, 3)
    assert rep.passed
    assert rep.lift_checked and not rep.lift_failures


def test_product_pullback_walk_cap():
    with pytest.raises(GuardExceeded):
        verify_product_pullback(path_graph(2), path_graph(1), 6, walk_cap=5)


def test_product_pullback_terminal_factor(example42):
    rep = verify_product_pullback(terminal_graph(), example42, 4)
    assert rep.passed


def test_product_pullback_seeded_random_pairs():
    rng = random.Random(101)
    for _ in range(3):
        g = random_graph(rng, rng.randint(2, 4), no_isolated=True)
        h = random_graph(rng, rng.randint(2, 4), no_isolated=True)
        rep = verify_product_pullback(g, h, 4, pair_budget=30_000)
        assert not rep.parity_mismatches
        assert not rep.lift_failures
        assert not rep.injectivity_counterexamples


def test_reflexive_split_requires_reflexive():
    with pytest.raises(ValueError):
        verify_reflexive_split(cycle_graph(5), 4)


def test_reflexive_split_terminal():
    rep = verify_reflexive_split(terminal_graph(), 6)
    assert rep.passed
    assert rep.class_counts[("v", "v")] == (1, 1)


def test_reflexive_split_looped_k2(looped_k2):
    rep = verify_reflexive_split(looped_k2, 6)
    assert rep.passed
    for key, (evens, odds) in rep.class_counts.items():
        assert evens == odds == 1


def test_reflexive_split_state_cap(looped_k2):
    with pytest.raises(GuardExceeded):
        verify_reflexive_split(looped_k2, 4, state_cap=10)


def test_naturality_square_identity_pair(example42):
    idm = identity_morphism(example42)
    alpha = parse_walk(example42, "a,c,b")
    assert naturality_square(idm, idm, alpha).verdict is Verdict.EQUAL


def test_naturality_square_fold(example42):
    idm = identity_morphism(example42)
    fold = Morphism(example42, example42, {"a": "a", "b": "a", "c": "c", "d": "d", "e": "e"})
    for text in ("a,c,b", "b,c,e", "d,a,c,b", "b,c", "c,b"):
        alpha = parse_walk(example42, text)
        assert naturality_square(idm, fold, alpha).verdict is Verdict.EQUAL


def test_naturality_square_rejects_non_spider_pair():
    c5 = cycle_graph(5)
    rot = Morphism(c5, c5, {str(i): str((i + 1) % 5) for i in range(5)})
    with pytest.raises(ValueError):
        naturality_square(identity_morphism(c5), rot, walk(c5, ["0", "1"]))
