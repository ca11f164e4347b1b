"""Regenerate bench/goldens.json from the library in this checkout.

    python3 bench/make_goldens.py

The goldens pin today's answers: hom stdout digests and exit codes, and
the verify report counters, for every catalogue entry a seed can draw.
Regenerate only in a change that means to alter those outputs.
"""

from __future__ import annotations

import json
import random
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import ghom  # noqa: E402
import ghom.cli  # noqa: E402
import workloads as W  # noqa: E402


def hom_goldens():
    out = {}
    original = ghom.homcomplex.walks_homotopic
    tally = {"certify": 0, "certified": 0}

    def counting(*args, **kwargs):
        d = original(*args, **kwargs)
        tally["certify"] += 1
        tally["certified"] += d.verdict.value != "Unknown"
        return d

    ghom.homcomplex.walks_homotopic = counting
    try:
        with tempfile.TemporaryDirectory() as tmp:
            paths = {}
            for name, sp in W.HOM_GRAPHS.items():
                paths[name] = Path(tmp) / f"{name}.g"
                W.write_graph_file(random.Random(0), sp, paths[name])
            for verb, src, tgt in W.HOM_CATALOGUE:
                for as_json in (False, True):
                    tally.update(certify=0, certified=0)
                    entry = W.hom_summary(W.run_cli(ghom, W.hom_argv(verb, src, tgt, as_json, paths)))
                    if verb == "compare":
                        entry.update(tally)
                    out[W.hom_key(verb, src, tgt, as_json)] = entry
    finally:
        ghom.homcomplex.walks_homotopic = original
    return out


def verify_goldens():
    out = {}
    for left, right, max_len in W.PULLBACK_PAIRS:
        g, h = W.pullback_factors(ghom, left, right)
        report = ghom.verify_product_pullback(g, h, max_len, **W.PULLBACK_BUDGET)
        out[W.pullback_key(left, right, max_len)] = W.pullback_summary(report)
    for name, max_len in W.REFLEXIVE:
        g = W.to_graph(ghom, W.reflexive_spec(name))
        out[W.reflexive_key(name, max_len)] = W.reflexive_summary(ghom.verify_reflexive_split(g, max_len))
    return out


if __name__ == "__main__":
    goldens = {"hom": hom_goldens(), "verify": verify_goldens()}
    W.GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    print(f"wrote {W.GOLDENS}: {len(goldens['hom'])} hom, {len(goldens['verify'])} verify entries")
