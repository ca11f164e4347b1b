"""Per-layer tracing from outside the library.

`Tracer.install` replaces public functions and methods of the ghom modules
with wrappers, at every module attribute a caller looks the function up
by (for example `cli.exponential_graph` as well as
`homcomplex.exponential_graph`), and `uninstall` puts the originals back.

A timed wrapper opens a span: name, start, end and its parent (the span
open when it started); every span belongs to the op that is running.
Spans are aggregated when they close instead of being stored, so memory
stays flat on searches that expand hundreds of thousands of states: each
name keeps its call count, its total time and its self time (duration
minus the time of child spans).  `<layer>.self_s` sums the self time of
the layer's spans, so `cli.self_s` is the CLI's span minus everything it
called.  A key that nests inside itself (`subgraph` building a `Graph`, a
presentation built inside another) is counted and timed at its outermost
call only.  Hot methods (`Graph.adjacent`, `Walk` validation) are counted,
not timed.  Counts and times are per pass: `install` starts them at zero.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("graphs", "walks", "homotopy", "groupoid", "snf", "homcomplex", "verify", "cli")

# (module, attribute or Class.method, span key).  The key's prefix is the layer.
TIMED = (
    ("graphs", "Graph.__init__", "graphs.build"),
    ("graphs", "Graph.subgraph", "graphs.build"),
    ("graphs", "product", "graphs.build"),
    ("graphs", "parse_graph", "graphs.parse"),
    ("graphs", "serialize", "graphs.serialize"),
    ("walks", "prune_normalize", "walks.normalize"),
    ("homotopy", "walks_homotopic", "homotopy.query"),
    ("homotopy", "_bidirectional_search", "homotopy.search"),
    ("homotopy", "walk_step_successors", "homotopy.successor"),
    ("homotopy", "morphisms_homotopic", "homotopy.morph_search"),
    ("homotopy", "_morphism_successors", "homotopy.morph_successor"),
    ("homotopy", "stiff_reduce", "homotopy.stiff"),
    ("groupoid", "fundamental_group_presentation", "groupoid.present"),
    ("groupoid", "walk_group_presentation", "groupoid.present"),
    ("groupoid", "looped_presentation_core", "groupoid.present"),
    ("groupoid", "van_kampen_presentation", "groupoid.present"),
    ("groupoid", "abelian_invariants", "groupoid.invariants"),
    ("groupoid", "abelianized_for_walkseq", "groupoid.oracle"),
    ("groupoid", "AbelianizedComponent.separates", "groupoid.oracle"),
    ("snf", "smith_normal_form", "snf.smith"),
    ("snf", "RowLattice.residue", "snf.residue"),
    ("homcomplex", "exponential_graph", "homcomplex.exp"),
    ("homcomplex", "hom_complex_2skeleton", "homcomplex.complex"),
    ("homcomplex", "edge_path_presentation", "homcomplex.edge_path"),
    ("homcomplex", "compare_thm66", "homcomplex.compare"),
    ("verify", "verify_product_pullback", "verify.pullback"),
    ("verify", "verify_reflexive_split", "verify.reflexive"),
    ("verify", "naturality_square", "verify.naturality"),
    ("cli", "run", "cli.run"),
)
COUNTED = (
    ("graphs", "Graph.adjacent", "graphs.adjacent"),
    ("walks", "Walk.__post_init__", "walks.walk"),
)


class Tracer:
    def __init__(self, ghom_modules):
        self.modules = ghom_modules  # {"graphs": module, ...} plus "ghom": package
        self._patches = []
        self.reset()

    # -- state ---------------------------------------------------------------------

    def reset(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.layer_self = defaultdict(float)
        self.extra = defaultdict(float)
        self._stack = []  # open frames: [key, start, child_time]
        self._depth = defaultdict(int)

    # -- installing ---------------------------------------------------------------------

    def install(self):
        self.reset()
        for mod_name, attr, key in TIMED:
            self._wrap(mod_name, attr, key, timed=True)
        for mod_name, attr, key in COUNTED:
            self._wrap(mod_name, attr, key, timed=False)

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _wrap(self, mod_name, attr, key, timed):
        module = self.modules[mod_name]
        if "." in attr:
            cls_name, meth = attr.split(".")
            owner = getattr(module, cls_name)
            original = owner.__dict__[meth]
            self._patch(owner, meth, original, self._make(original, key, timed))
            return
        original = getattr(module, attr)
        wrapper = self._make(original, key, timed)
        for mod in self.modules.values():
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, name, original, wrapper)

    def _patch(self, owner, name, original, wrapper):
        self._patches.append((owner, name, original))
        setattr(owner, name, wrapper)

    def _make(self, fn, key, timed):
        calls = self.calls
        if not timed:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return counted

        depth = self._depth
        stack = self._stack
        observe = getattr(self, "_observe_" + key.replace(".", "_"), None)

        @functools.wraps(fn)
        def timed_call(*args, **kwargs):
            if depth[key]:
                return fn(*args, **kwargs)
            depth[key] += 1
            frame = [key, perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                depth[key] -= 1
                self._close(frame, end)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return timed_call

    def _close(self, frame, end):
        key, start, child = frame
        duration = end - start
        own = duration - child
        self.calls[key] += 1
        self.total[key] += duration
        self.self_time[key] += own
        self.layer_self[key.split(".")[0]] += own
        if self._stack:
            self._stack[-1][2] += duration

    # -- observations at span boundaries ----------------------------------------------------

    def inside(self, key):
        return self._depth[key] > 0

    def _observe_homotopy_query(self, args, kwargs, d):
        self._count_decision(d)
        if self.inside("homcomplex.compare"):
            self.extra["homcomplex.certify_queries"] += 1

    def _observe_homotopy_morph_search(self, args, kwargs, d):
        self._count_decision(d)

    def _count_decision(self, d):
        if d.verdict.value == "Unknown":
            c = d.certificate
            self.extra["homotopy.unknown_cap" if c.states_explored > c.max_states else "homotopy.unknown_dry"] += 1

    def _observe_homotopy_successor(self, args, kwargs, result):
        self.extra["successors"] += len(result)

    def _observe_snf_smith(self, args, kwargs, result):
        rows = args[0]
        self.extra["snf.cells"] += len(rows) * (len(rows[0]) if rows else 0)
        self.extra["groupoid.relator_rows"] += len(rows)

    def _observe_homcomplex_exp(self, args, kwargs, g):
        self.extra["homcomplex.exp_vertices"] += len(g.vertices)
        self.extra["homcomplex.exp_edges"] += len(g.edges)

    def _observe_homcomplex_complex(self, args, kwargs, c):
        self.extra["homcomplex.cells"] += len(c.cells0) + len(c.cells1) + len(c.cells2)

    def _observe_verify_pullback(self, args, kwargs, r):
        self.extra["verify.checks"] += r.lift_checked + r.injectivity_checked
        self.extra["verify.undecided"] += len(r.injectivity_unknown)

    def _observe_verify_reflexive(self, args, kwargs, r):
        self.extra["verify.checks"] += r.concat_checked

    # -- metrics --------------------------------------------------------------------------

    def metrics(self, abcache):
        """Per-layer metrics of the pass just traced, as {name: (value, unit)}."""
        c, t, x = self.calls, self.total, self.extra

        def ratio(a, b):
            return a / b if b else 0.0

        m = {
            "graphs.build_calls": (c["graphs.build"], "count"),
            "graphs.build_s": (self.self_time["graphs.build"], "s"),
            "graphs.adjacent_calls": (c["graphs.adjacent"], "count"),
            "graphs.parse_s": (t["graphs.parse"], "s"),
            "graphs.serialize_s": (t["graphs.serialize"], "s"),
            "walks.walk_calls": (c["walks.walk"], "count"),
            "walks.normalize_s": (t["walks.normalize"], "s"),
            "homotopy.query_calls": (c["homotopy.query"], "count"),
            "homotopy.query_s": (self.self_time["homotopy.query"], "s"),
            "homotopy.successor_calls": (c["homotopy.successor"], "count"),
            "homotopy.successor_s": (t["homotopy.successor"], "s"),
            "homotopy.moves_per_state": (ratio(x["successors"], c["homotopy.successor"]), "moves"),
            "homotopy.states_per_s": (ratio(c["homotopy.successor"], t["homotopy.search"]), "1/s"),
            "homotopy.search_ratio": (ratio(c["homotopy.search"], c["homotopy.query"]), "ratio"),
            "homotopy.unknown_cap": (x["homotopy.unknown_cap"], "count"),
            "homotopy.unknown_dry": (x["homotopy.unknown_dry"], "count"),
            "homotopy.morph_successor_calls": (c["homotopy.morph_successor"], "count"),
            "homotopy.morph_search_s": (t["homotopy.morph_search"], "s"),
            "groupoid.present_calls": (c["groupoid.present"], "count"),
            "groupoid.present_s": (t["groupoid.present"], "s"),
            "groupoid.relator_rows": (x["groupoid.relator_rows"], "count"),
            "groupoid.abcache_hits": (abcache.hits, "count"),
            "groupoid.abcache_misses": (abcache.misses, "count"),
            "groupoid.oracle_s": (t["groupoid.oracle"], "s"),
            "snf.calls": (c["snf.smith"], "count"),
            "snf.cells": (x["snf.cells"], "count"),
            "snf.smith_s": (t["snf.smith"], "s"),
            "snf.residue_calls": (c["snf.residue"], "count"),
            "snf.residue_s": (t["snf.residue"], "s"),
            "homcomplex.exp_s": (t["homcomplex.exp"], "s"),
            "homcomplex.exp_vertices": (x["homcomplex.exp_vertices"], "count"),
            "homcomplex.exp_edges": (x["homcomplex.exp_edges"], "count"),
            "homcomplex.complex_s": (t["homcomplex.complex"], "s"),
            "homcomplex.cells": (x["homcomplex.cells"], "count"),
            "homcomplex.edge_path_s": (t["homcomplex.edge_path"], "s"),
            "homcomplex.certify_queries": (x["homcomplex.certify_queries"], "count"),
            "verify.pullback_s": (t["verify.pullback"], "s"),
            "verify.reflexive_s": (t["verify.reflexive"], "s"),
            "verify.naturality_s": (t["verify.naturality"], "s"),
            "verify.checks": (x["verify.checks"], "count"),
            "verify.undecided": (x["verify.undecided"], "count"),
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = (self.layer_self[layer], "s")
        return m


def ghom_modules():
    names = ("errors", "graphs", "walks", "snf", "groupoid", "homotopy", "homcomplex", "verify", "cli")
    mods = {n: sys.modules[f"ghom.{n}"] for n in names}
    mods["ghom"] = sys.modules["ghom"]
    return mods
