"""Computable homotopy theory for finite graphs.

Walk normal forms, homotopy decisions with replayable certificates, fold
reduction to stiff graphs, fundamental group(oid) presentations with exact
abelian invariants, and Hom-complex comparisons.
"""

from .errors import GraphFormatError, GuardExceeded
from .graphs import (
    Graph,
    Morphism,
    check_morphism,
    complete_graph,
    compose,
    cycle_graph,
    identity_morphism,
    parse_graph,
    parse_morphism,
    path_graph,
    product,
    serialize,
    terminal_graph,
)
from .groupoid import (
    AbelianInvariants,
    Generator,
    Presentation,
    SpanningForest,
    Word,
    abelian_invariants,
    bfs_forest,
    diamond_relators,
    fundamental_group_presentation,
    looped_presentation_core,
    path_forest,
    van_kampen_presentation,
    walk_group_presentation,
    word_of_walk,
)
from .homcomplex import (
    Complex2,
    Multihom,
    compare_thm66,
    edge_path_presentation,
    exponential_graph,
    hom_complex_2skeleton,
)
from .homotopy import (
    Decision,
    Verdict,
    foldable_pairs,
    is_stiff,
    morphisms_homotopic,
    replay_morphism_certificate,
    replay_walk_certificate,
    spider_successors,
    stiff_reduce,
    walks_homotopic,
)
from .verify import (
    naturality_square,
    verify_product_pullback,
    verify_reflexive_split,
)
from .walks import Walk, concat, induced_walk, invert, parse_walk, prune_normalize, walk

__all__ = [name for name in dir() if not name.startswith("_")]
