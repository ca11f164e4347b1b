"""Golden CLI corpus: every subcommand, in text and --json mode, byte for byte.

Each case is an argv; `tests/cli_golden.json` records its exit code and
stdout.  `PYTHONPATH=src python tests/test_cli_golden.py` rewrites that file
from the current code and prints each key it added, removed or changed:
do so only for a change that is meant to alter CLI output, and review the
diff.
"""

import contextlib
import io
import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ghom
from conftest import cli_verbs
from ghom.cli import build_parser, run

DATA = Path(__file__).with_name("cli_golden.json")

FILES = {
    "ex42.g": "vertex a\nvertex b\nvertex c\nvertex d\nvertex e\n"
              "edge d a\nedge a c\nedge c e\nedge e d\nedge c b\n",
    "wheel.g": "vertex a\nvertex b\nvertex c\nvertex d\nvertex e\nvertex x\n"
               "edge a b\nedge b c\nedge c d\nedge d e\nedge e a\n"
               "edge x a\nedge x b\nedge x c\nedge x d\nedge x e\n",
    "sq.g": "vertex a loop\nvertex b loop\nvertex c loop\nvertex d loop\n"
            "edge a b\nedge b c\nedge c d\nedge d a\n",
    "c5.g": "vertex 0\nvertex 1\nvertex 2\nvertex 3\nvertex 4\n"
            "edge 0 1\nedge 1 2\nedge 2 3\nedge 3 4\nedge 4 0\n",
    "k2.g": "vertex 0\nvertex 1\nedge 0 1\n",
    "p2.g": "vertex 0\nvertex 1\nvertex 2\nedge 0 1\nedge 1 2\n",
    "k2xk2.g": "vertex 0|0\nvertex 0|1\nvertex 1|0\nvertex 1|1\nedge 0|0 1|1\nedge 0|1 1|0\n",
    "k7.g": "".join(f"vertex {i}\n" for i in range(7))
            + "".join(f"edge {i} {j}\n" for i in range(7) for j in range(i + 1, 7)),
    "c3xc4.g": "".join(f"vertex {i}|{j}\n" for i in range(3) for j in range(4))
               + "".join(f"edge {i}|{j} {(i + 1) % 3}|{k}\n"
                         for i in range(3) for j in range(4) for k in ((j + 1) % 4, (j + 3) % 4)),
    "king23.g": "".join(f"vertex {r}{c} loop\n" for r in range(2) for c in range(3))
                + "".join(f"edge {r}{c} {r2}{c2}\n"
                          for (r, c), (r2, c2) in itertools.combinations(itertools.product(range(2), range(3)), 2)
                          if abs(r - r2) <= 1 and abs(c - c2) <= 1),
    "lk2.g": "vertex 0 loop\nvertex 1 loop\nedge 0 1\n",
    "sqx.g": "vertex a loop\nvertex b loop\nvertex c loop\nvertex d loop\nvertex x\n"
             "edge a b\nedge b c\nedge c d\nedge d a\nedge x a\nedge x c\n",
    "big.g": "".join(f"vertex v{i}\n" for i in range(12)),
    "dot.g": "vertex a\n",
    "iso.g": "vertex a\nvertex b\nvertex c\nedge a b\n",
    "bad.g": "vertex a\nedge a b\n",
    "empty.g": "",
    "twoc.g": "vertex o\nvertex a\nvertex b\nvertex c\nvertex d\nvertex x\nvertex y\nvertex z\n"
              "edge a b\nedge b c\nedge c d\nedge d a\nedge x y\nedge y z\nedge z x\n",
    "2k2.g": "vertex a\nvertex b\nvertex c\nvertex d\nedge a b\nedge c d\n",
    # a 300-cycle with a fan from v299: walk characters past 255
    "fan300.g": "".join(f"vertex v{i}\n" for i in range(300))
                + "".join(f"edge v{i} v{(i + 1) % 300}\n" for i in range(300))
                + "".join(f"edge v299 v{j}\n" for j in range(290, 298)),
    # two pentagons through 0, no proper diamond
    "fig8.g": "".join(f"vertex {i}\n" for i in range(9))
              + "edge 0 1\nedge 1 2\nedge 2 3\nedge 3 4\nedge 4 0\n"
              + "edge 0 5\nedge 5 6\nedge 6 7\nedge 7 8\nedge 8 0\n",
    # two looped squares through a, and a looped triangle a b x
    "sq2x.g": "".join(f"vertex {v} loop\n" for v in "abcdefgx")
              + "edge a b\nedge b c\nedge c d\nedge d a\nedge a e\nedge e f\nedge f g\nedge g a\n"
              + "edge x a\nedge x b\n",
    "id42.m": "".join(f"{v} {v}\n" for v in "abcde"),
    "fold42.m": "a a\nb a\nc c\nd d\ne e\n",
    "id5.m": "".join(f"{i} {i}\n" for i in range(5)),
    "rot5.m": "".join(f"{i} {(i + 1) % 5}\n" for i in range(5)),
    "ab.m": "0 a\n1 b\n",
    "cd.m": "0 c\n1 d\n",
}

BOTH = [
    ["graph", "validate", "@c5.g"],
    ["graph", "validate", "@bad.g"],
    ["walk", "normalize", "@ex42.g", "a,c,b,c,e"],
    ["walk", "normalize", "@sq.g", "a,a,b,b,a,d", "--looped"],
    ["homotopy", "walks", "@ex42.g", "a,c,b,c,e", "a,d,e"],
    ["homotopy", "walks", "@c5.g", "0,1,2,3,4,0", "0,4,3,2,1,0"],
    ["homotopy", "walks", "@c5.g", "0,1,2", "0,4,3"],
    ["homotopy", "walks", "@c5.g", "0,1,2", "0,4,3,2"],
    ["homotopy", "walks", "@ex42.g", "a,c", "a,d,e,c,b,c"],
    ["homotopy", "walks", "@c5.g", "0,1,0", "0,4,0", "--max-states", "1"],
    ["homotopy", "walks", "@sq.g", "a,b,c", "a,d,c"],
    ["homotopy", "walks", "@sq.g", "a,b,c", "a,d,c", "--looped"],
    ["homotopy", "walks", "@wheel.g", "a,b,c,d,e,a,b,c,d,e,a", "a", "--max-len", "12"],
    ["homotopy", "walks", "@sq.g", "a,b,b,a", "a,d,d,a", "--looped"],
    ["homotopy", "walks", "@ex42.g", "a,c,a,c,e", "a,d,e"],
    ["homotopy", "walks", "@ex42.g", "a,d,e", "a,c,a,c,e"],
    ["homotopy", "walks", "@wheel.g", "a,b,c,d,e,a,b,c,d,e,a", "a", "--max-len", "12", "--max-states", "500"],
    ["homotopy", "morphisms", "@ex42.g", "@ex42.g", "@id42.m", "@fold42.m"],
    ["homotopy", "morphisms", "@c5.g", "@c5.g", "@id5.m", "@rot5.m"],
    ["homotopy", "morphisms", "@ex42.g", "@ex42.g", "@id42.m", "@fold42.m", "--max-steps", "1"],
    ["homotopy", "morphisms", "@lk2.g", "@sq.g", "@ab.m", "@cd.m"],
    ["homotopy", "walks", "@sqx.g", "a,b,c,d,a", "a", "--looped"],
    ["reduce", "stiff", "@ex42.g"],
    ["reduce", "stiff", "@c5.g"],
    ["pi1", "present", "@wheel.g", "--base", "x"],
    ["pi1", "present", "@c5.g", "--walkgroup"],
    ["pi1", "present", "@sq.g"],
    ["pi1", "present", "@k7.g"],
    ["pi1", "vankampen", "@c5.g", "--part1", "0,1,2,3", "--part2", "3,4,0"],
    ["pi1", "vankampen", "@wheel.g", "--part1", "x,a,b,c", "--part2", "x,c,d,e,a"],
    ["pi1", "present", "@c3xc4.g"],
    ["pi1", "present", "@king23.g"],
    ["pi1", "vankampen", "@c3xc4.g", "--part1", "0|0,0|1,0|2,0|3,1|0,1|1,1|2,1|3,2|0,2|2",
     "--part2", "0|0,0|1,0|2,0|3,1|0,1|1,1|2,1|3,2|1,2|3"],
    ["pi1", "product-check", "@p2.g", "@k2.g", "--max-len", "6"],
    ["pi1", "product-check", "@k2xk2.g", "@k2.g", "--max-len", "3"],
    ["pi1", "product-check", "@p2.g", "@c5.g", "--max-len", "4"],
    ["pi1", "product-check", "@iso.g", "@p2.g", "--max-len", "3"],
    ["hom", "complex", "@k2.g", "@c5.g"],
    ["hom", "complex", "@p2.g", "@k2.g"],
    ["hom", "exp", "@k2.g", "@p2.g"],
    ["hom", "compare", "@k2.g", "@c5.g", "--max-len", "8"],
    ["hom", "compare", "@p2.g", "@c5.g", "--max-len", "8"],
    ["hom", "exp", "@p2.g", "@sq.g"],
    ["hom", "exp", "@dot.g", "@c5.g"],
    ["hom", "exp", "@c5.g", "@k2.g"],
    ["hom", "compare", "@k2.g", "@sq.g", "--max-len", "8"],
    ["hom", "complex", "@lk2.g", "@sq.g"],
    ["hom", "complex", "@sq.g", "@lk2.g"],
    ["hom", "complex", "@iso.g", "@c5.g"],
    ["hom", "complex", "@dot.g", "@k2.g"],
    ["hom", "complex", "@k2.g", "@sqx.g"],
    ["hom", "compare", "@lk2.g", "@sq.g", "--max-len", "8"],
    ["hom", "compare", "@p2.g", "@c5.g"],
    ["--cap", "10", "hom", "exp", "@big.g", "@big.g"],
    ["pi1", "present", "@missing.g"],
    ["walk", "normalize", "@ex42.g", "a,b"],
    ["pi1", "present", "@twoc.g", "--base", "x"],
    ["pi1", "present", "@twoc.g", "--base", "b"],
    ["pi1", "present", "@twoc.g"],
    ["homotopy", "morphisms", "@k2.g", "@2k2.g", "@ab.m", "@cd.m"],
    ["hom", "compare", "@k2.g", "@2k2.g"],
    ["pi1", "vankampen", "@c5.g", "--part1", "0,1,3", "--part2", "1,2,3,4,0"],
    ["homotopy", "walks", "@fan300.g", "v290,v291,v292,v293,v294,v295,v296", "v290,v299,v296"],
    ["homotopy", "walks", "@fan300.g", "v290,v291,v292,v293,v294,v295,v296", "v290,v299,v296", "--max-states", "200"],
    ["homotopy", "walks", "@fig8.g", "0,1,2,3,4,0,5,6,7,8,0,4,3,2,1,0,8,7,6,5,0", "0", "--max-len", "24", "--max-states", "30000"],
    # the first diamond in neither part starts at the second vertex
    ["pi1", "vankampen", "@c3xc4.g", "--part1", "0|0,0|1,0|2,0|3,1|0,1|1,1|3,2|0,2|1,2|2,2|3",
     "--part2", "0|0,1|2,0|1,0|3,2|1,2|3"],
    # looped and unlooped vertices: loop letters at the junction, an unlooped base
    ["pi1", "present", "@sqx.g", "--base", "x"],
    ["pi1", "present", "@sqx.g", "--base", "a"],
    # Distinct with a 13-coordinate residue
    ["homotopy", "walks", "@c3xc4.g", "0|0,1|1,2|2,0|3,1|0,2|1,0|2,1|3,2|0,0|1,1|2,2|3,0|0", "0|0"],
    # looped Distinct on a component with a triangle relator and rank 2
    ["homotopy", "walks", "@sq2x.g", "a,x,b,c,d,a,e,f,g,a", "a,g,f,e,a", "--looped"],
    # a graph with no vertices has no basepoint to present at
    ["pi1", "present", "@empty.g"],
    # a graph with no vertices serializes to no lines
    ["reduce", "stiff", "@empty.g"],
    ["hom", "exp", "@k2.g", "@empty.g"],
]
CASES = [argv for base in BOTH for argv in (base, ["--json"] + base)] + [
    ["graph", "validate", "@c5.g", "--frobnicate"],
    ["pi1", "present", "@empty.g", "--walkgroup"],
]
# run again in fresh interpreters under two hash seeds
SUBPROCESS = [
    ["--json", "homotopy", "walks", "@ex42.g", "a,c,b,c,e", "a,d,e"],
    ["--json", "homotopy", "walks", "@sq.g", "a,b,b,a", "a,d,d,a", "--looped"],
    ["homotopy", "morphisms", "@ex42.g", "@ex42.g", "@id42.m", "@fold42.m"],
    ["--json", "homotopy", "morphisms", "@lk2.g", "@sq.g", "@ab.m", "@cd.m"],
    ["reduce", "stiff", "@ex42.g"],
    ["--json", "pi1", "present", "@wheel.g", "--base", "x"],
    ["--json", "pi1", "present", "@king23.g"],
    ["--json", "pi1", "product-check", "@p2.g", "@c5.g", "--max-len", "4"],
    ["--json", "pi1", "product-check", "@iso.g", "@p2.g", "--max-len", "3"],
    ["hom", "compare", "@k2.g", "@c5.g", "--max-len", "8"],
    ["--json", "hom", "complex", "@sq.g", "@lk2.g"],
    ["--json", "homotopy", "walks", "@fan300.g", "v290,v291,v292,v293,v294,v295,v296", "v290,v299,v296", "--max-states", "200"],
    ["--json", "homotopy", "walks", "@fig8.g", "0,1,2,3,4,0,5,6,7,8,0,4,3,2,1,0,8,7,6,5,0", "0", "--max-len", "24", "--max-states", "30000"],
    # a disconnected intersection: a connecting generator in a relator
    ["--json", "pi1", "vankampen", "@c3xc4.g", "--part1", "0|0,0|1,0|2,0|3,1|0,1|1,1|2,1|3,2|0,2|2",
     "--part2", "0|0,0|1,0|2,0|3,1|0,1|1,1|2,1|3,2|1,2|3"],
    ["--json", "homotopy", "walks", "@c3xc4.g", "0|0,1|1,2|2,0|3,1|0,2|1,0|2,1|3,2|0,0|1,1|2,2|3,0|0", "0|0"],
]

# Distinct certificates whose residues moved when residues became reductions
# modulo the relator lattice's reduced Hermite basis instead of coordinates
# after a Smith transform of the relator list, with the residues printed
# before: (left, right)
MOVED_RESIDUES = {
    "homotopy walks @c3xc4.g 0|0,1|1,2|2,0|3,1|0,2|1,0|2,1|3,2|0,0|1,1|2,2|3,0|0 0|0": ((0,) * 12 + (2,), (0,) * 13),
}


def key(argv):
    return " ".join(argv)


def write_files(directory: Path) -> dict:
    paths = {}
    for name, text in FILES.items():
        (directory / name).write_text(text, encoding="utf-8")
        paths[name] = str(directory / name)
    paths["missing.g"] = str(directory / "missing.g")
    return paths


def resolve(argv, paths):
    return [paths[a[1:]] if a.startswith("@") else a for a in argv]


def invoke(argv, paths):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(resolve(argv, paths))
        except SystemExit as exc:
            code = exc.code
    return {"exit": code, "stdout": out.getvalue()}


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    return write_files(tmp_path_factory.mktemp("golden"))


@pytest.fixture(scope="module")
def golden():
    return json.loads(DATA.read_text(encoding="utf-8"))


def test_corpus_covers_every_case(golden):
    assert sorted(golden) == sorted(key(a) for a in CASES)


def test_corpus_has_a_case_for_every_verb():
    # a verb added without a golden case fails here
    verbs = {parser.get_default("handler"): (noun, verb) for noun, verb, parser in cli_verbs()}
    assert len(verbs) == len(cli_verbs())
    covered = set()
    for argv in BOTH:
        handler = build_parser().parse_args(argv).handler
        assert handler in verbs, key(argv)
        covered.add(verbs[handler])
    assert covered == set(verbs.values())


@pytest.mark.parametrize("argv", CASES, ids=key)
def test_cli_output_matches_golden(argv, paths, golden):
    assert invoke(argv, paths) == golden[key(argv)]


def distinct_stdout(left, right, as_json):
    """Stdout of a Distinct verdict by abelianization residues."""
    if as_json:
        certificate = {"invariant": "abelianization image mismatch", "left": list(left), "right": list(right)}
        return json.dumps({"verdict": "Distinct", "certificate": certificate}, indent=2) + "\n"
    return f"Distinct\n  abelianization image mismatch: {left} vs {right}\n"


def test_moved_residues_keep_verdict_exit_code_and_width(golden):
    # every other entry is byte-identical (test_cli_output_matches_golden),
    # so verdicts and exit codes are unchanged on the whole corpus
    def masked(text):
        return re.sub(r"-?\d+", "#", text)

    for case, (left, right) in MOVED_RESIDUES.items():
        for as_json in (False, True):
            before = distinct_stdout(left, right, as_json)
            after = golden[("--json " if as_json else "") + case]
            assert after["exit"] == 1
            assert masked(after["stdout"]) == masked(before) and after["stdout"] != before


@pytest.mark.parametrize("hashseed", ["1", "2"])
def test_cli_output_independent_of_hash_seed(hashseed, paths, golden):
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    src = str(Path(ghom.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    for argv in SUBPROCESS:
        proc = subprocess.run(
            [sys.executable, "-m", "ghom.cli", *resolve(argv, paths)],
            env=env, capture_output=True, timeout=120,
        )
        expected = golden[key(argv)]
        assert proc.returncode == expected["exit"], key(argv)
        assert proc.stdout == expected["stdout"].encode("utf-8"), key(argv)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        files = write_files(Path(tmp))
        corpus = {key(argv): invoke(argv, files) for argv in CASES}
    before = json.loads(DATA.read_text(encoding="utf-8")) if DATA.exists() else {}
    DATA.write_text(json.dumps(corpus, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"wrote {len(corpus)} cases to {DATA}")
    for label, keys in (
        ("added", corpus.keys() - before.keys()),
        ("removed", before.keys() - corpus.keys()),
        ("changed", {k for k in corpus.keys() & before.keys() if corpus[k] != before[k]}),
    ):
        for k in sorted(keys):
            print(f"{label}: {k}")
