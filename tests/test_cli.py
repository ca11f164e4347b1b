import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import ghom
from ghom import Verdict, complete_graph, serialize
from ghom.cli import _print_json, run
from conftest import EXAMPLE42, LOOPED_SQUARE, WHEEL, cli_verbs

C5 = "vertex 0\nvertex 1\nvertex 2\nvertex 3\nvertex 4\nedge 0 1\nedge 1 2\nedge 2 3\nedge 3 4\nedge 4 0\n"
K2 = "vertex 0\nvertex 1\nedge 0 1\n"
P2 = "vertex 0\nvertex 1\nvertex 2\nedge 0 1\nedge 1 2\n"


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in {
        "ex42.g": EXAMPLE42,
        "wheel.g": WHEEL,
        "sq.g": LOOPED_SQUARE,
        "c5.g": C5,
        "k2.g": K2,
        "p2.g": P2,
        "bad.g": "vertex a\nedge a b\n",
        "empty.g": "",
        "cross.g": "vertex a|b\nvertex a\nvertex b|a\n",
        "idmap.m": "".join(f"{v} {v}\n" for v in "abcde"),
        "foldmap.m": "a a\nb a\nc c\nd d\ne e\n",
        "id2.m": "0 0\n1 1\n",
        "bad.m": "0\n",
    }.items():
        p = tmp_path / name
        p.write_text(text)
        paths[name] = str(p)
    return paths


def test_graph_validate_ok(files, capsys):
    assert run(["graph", "validate", files["c5.g"]]) == 0
    assert "ok: 5 vertices, 5 edges" in capsys.readouterr().out


def test_graph_validate_invalid_content(files, capsys):
    assert run(["graph", "validate", files["bad.g"]]) == 1
    assert "undeclared" in capsys.readouterr().out


# a valid argv after the verb; "@name" names a file argument
VALID_ARGS = {
    ("graph", "validate"): ["@k2.g"],
    ("walk", "normalize"): ["@k2.g", "0,1"],
    ("homotopy", "walks"): ["@k2.g", "0,1", "0,1"],
    ("homotopy", "morphisms"): ["@k2.g", "@k2.g", "@id2.m", "@id2.m"],
    ("reduce", "stiff"): ["@k2.g"],
    ("pi1", "present"): ["@k2.g"],
    ("pi1", "vankampen"): ["@k2.g", "--part1", "0,1", "--part2", "0,1"],
    ("pi1", "product-check"): ["@k2.g", "@k2.g", "--max-len", "2"],
    ("hom", "complex"): ["@k2.g", "@k2.g"],
    ("hom", "exp"): ["@k2.g", "@k2.g"],
    ("hom", "compare"): ["@k2.g", "@k2.g"],
}
FILE_ARGUMENTS = {"file", "graph", "graph1", "graph2", "source", "target", "map1", "map2"}


def _error_cases():
    for (noun, verb), args in VALID_ARGS.items():
        for i, arg in enumerate(args):
            if not arg.startswith("@"):
                continue
            # an invalid file is `graph validate`'s answer (exit 1), not an error
            kinds = ["missing"] if verb == "validate" else ["missing", "malformed"]
            for kind in kinds:
                yield pytest.param(noun, verb, i, kind, id=f"{noun}-{verb}-{i}-{kind}")


def test_valid_args_cover_every_file_argument_of_every_verb(files):
    declared = {(noun, verb): parser for noun, verb, parser in cli_verbs()}
    assert set(VALID_ARGS) == set(declared)
    for key, args in VALID_ARGS.items():
        positional = [a.dest for a in declared[key]._actions if not a.option_strings]
        assert sum(a.startswith("@") for a in args) == sum(d in FILE_ARGUMENTS for d in positional), key
        argv = [*key, *(files[a[1:]] if a.startswith("@") else a for a in args)]
        assert run(argv) == 0, key


@pytest.mark.parametrize("noun, verb, index, kind", _error_cases())
def test_unreadable_or_malformed_file_exits_64(files, capsys, noun, verb, index, kind):
    args = [files[a[1:]] if a.startswith("@") else a for a in VALID_ARGS[noun, verb]]
    if kind == "missing":
        path = args[index] + ".nosuch"
        expected = f"error: cannot read {path}: "
    elif args[index].endswith(".m"):
        path = files["bad.m"]
        expected = "error: line 1: malformed map line "
    else:
        path = files["bad.g"]
        expected = f"error: {path}: line 2: "
    args[index] = path
    assert run([noun, verb, *args]) == 64
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(expected) and out.err.count("\n") == 1 and out.err.endswith("\n")


NOUNS = sorted({noun for noun, _, _ in cli_verbs()})


@pytest.mark.parametrize("argv", [[]] + [[noun] for noun in NOUNS], ids=lambda argv: " ".join(argv) or "no-noun")
def test_missing_noun_or_verb_exits_64(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 64
    assert capsys.readouterr().out == ""


def test_unknown_flag_rejected(files):
    with pytest.raises(SystemExit) as exc:
        run(["graph", "validate", files["c5.g"], "--frobnicate"])
    assert exc.value.code == 64


def test_walk_normalize(files, capsys):
    assert run(["walk", "normalize", files["ex42.g"], "a,c,b,c,e"]) == 0
    assert capsys.readouterr().out.strip() == "a,c,e"


def test_walk_normalize_looped(files, capsys):
    assert run(["walk", "normalize", files["sq.g"], "a,a,b", "--looped"]) == 0
    assert capsys.readouterr().out.strip() == "a,b"


def test_homotopy_walks_equal_exit0(files, capsys):
    assert run(["homotopy", "walks", files["ex42.g"], "a,c,b,c,e", "a,d,e"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("Equal")
    assert "prune" in out and "spider" in out


def test_homotopy_walks_distinct_exit1(files, capsys):
    assert run(["homotopy", "walks", files["c5.g"], "0,1,2,3,4,0", "0,4,3,2,1,0"]) == 1
    assert "abelianization" in capsys.readouterr().out


def test_homotopy_walks_unknown_exit2(files, capsys):
    assert run(["homotopy", "walks", files["c5.g"], "0,1,0", "0,4,0", "--max-states", "1"]) == 2
    assert "exhausted" in capsys.readouterr().out


def test_homotopy_walks_looped_flag(files):
    assert run(["homotopy", "walks", files["sq.g"], "a,b,c", "a,d,c"]) == 0
    assert run(["homotopy", "walks", files["sq.g"], "a,b,c", "a,d,c", "--looped"]) == 1


def test_homotopy_walks_json(files, capsys):
    assert run(["--json", "homotopy", "walks", files["ex42.g"], "a,c,b,c,e", "a,d,e"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "Equal"
    assert payload["certificate"][0]["move"] == "prune"


def test_homotopy_morphisms(files, capsys):
    assert run(["homotopy", "morphisms", files["ex42.g"], files["ex42.g"], files["idmap.m"], files["foldmap.m"]]) == 0
    assert capsys.readouterr().out.startswith("Equal")


def test_reduce_stiff(files, capsys):
    assert run(["reduce", "stiff", files["ex42.g"]]) == 0
    out = capsys.readouterr().out
    assert "fold a -> e" in out
    assert out.count("vertex") == 2 and out.count("edge") == 1


def test_pi1_present_wheel(files, capsys):
    assert run(["pi1", "present", files["wheel.g"], "--base", "x"]) == 0
    out = capsys.readouterr().out
    assert "e1" in out and "e5" in out
    assert "torsion [2]" in out


def test_pi1_present_walkgroup(files, capsys):
    assert run(["pi1", "present", files["c5.g"], "--walkgroup"]) == 0
    out = capsys.readouterr().out
    assert "rank 1" in out


def test_pi1_present_json_schema(files, capsys):
    assert run(["--json", "pi1", "present", files["wheel.g"], "--base", "x"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["generators"] == ["e1", "e2", "e3", "e4", "e5"]
    assert payload["rank"] == 0 and payload["torsion"] == [2]
    for rel in payload["relators"]:
        assert all(isinstance(i, int) and i != 0 for i in rel)


def test_pi1_vankampen_c5(files, capsys):
    assert run(["pi1", "vankampen", files["c5.g"], "--part1", "0,1,2,3", "--part2", "3,4,0", "--base", "0"]) == 0
    assert "rank 1" in capsys.readouterr().out


def test_pi1_vankampen_bad_cover(files, capsys):
    assert run(["pi1", "vankampen", files["wheel.g"], "--part1", "x,a,b,c", "--part2", "x,c,d,e,a"]) == 64


@pytest.mark.parametrize("extra", [[], ["--walkgroup"]])
def test_pi1_present_refuses_a_graph_with_no_vertices(files, capsys, extra):
    assert run(["pi1", "present", files["empty.g"]] + extra) == 64
    out = capsys.readouterr()
    assert out.out == "" and out.err == "error: graph has no vertices\n"


@pytest.mark.parametrize("verb", ["exp", "compare", "complex"])
def test_hom_refuses_a_source_graph_with_no_vertices(files, capsys, verb):
    assert run(["hom", verb, files["empty.g"], files["k2.g"]]) == 64
    out = capsys.readouterr()
    assert out.out == "" and out.err == "error: source graph has no vertices\n"


def test_colliding_joined_tokens_exit_64(files, capsys):
    # (a|b, a) and (a, b|a) join to one token, as product pairs and as maps of K2
    assert run(["pi1", "product-check", files["cross.g"], files["cross.g"], "--max-len", "2"]) == 64
    assert run(["hom", "exp", files["k2.g"], files["cross.g"]]) == 64
    assert capsys.readouterr().err.count("both join to vertex 'a|b|a'") == 2


def test_pi1_product_check(files, capsys):
    assert run(["pi1", "product-check", files["p2.g"], files["k2.g"], "--max-len", "6"]) == 0
    assert "passed" in capsys.readouterr().out


def test_hom_complex_counts(files, capsys):
    assert run(["hom", "complex", files["k2.g"], files["c5.g"]]) == 0
    out = capsys.readouterr().out
    assert "0-cells: 10" in out and "1-cells: 10" in out and "2-cells: 0" in out


def test_hom_complex_json(files, capsys):
    assert run(["--json", "hom", "complex", files["k2.g"], files["k2.g"]]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["cells0"]) == 2 and payload["cells1"] == []


# strings that json.dumps escapes: quotes, backslashes, control
# characters, non-ASCII, an astral code point (a surrogate pair) and a lone
# surrogate
ODD_STRINGS = ['say "hi"', "back\\slash", "\x00\x08\t\n\x0c\r\x1f\x7f", "caf\u00e9 \u00fc\u2603", "\U0001d11e clef", "\ud800", ""]

JSON_EDGE_CASES = {
    "empty list": [],
    "empty tuple": (),
    "empty dict": {},
    "empty list at depth 3": [[[[]]]],
    "empty tuple at depth 3": {"a": [((),)]},
    "empty dict at depth 3": {"a": {"b": {"c": {}}}},
    "bools next to ints": [True, 1, False, 0, {"t": True, "one": 1}],
    "negative ints": [-1, -0, -(2 ** 70), {"k": -42}],
    "odd strings": ODD_STRINGS + [{s: s} for s in ODD_STRINGS],
    "verdicts": {"verdict": Verdict.EQUAL, "all": list(Verdict)},
    "scalars": [None, "x", 7],
}


def random_json(rng, depth=0):
    """A random value of the types the CLI prints: dicts with str keys,
    lists, tuples, strs, ints, bools, None and `Verdict` members."""
    kind = rng.randrange(9 if depth < 4 else 5)
    if kind == 0:
        return rng.choice(ODD_STRINGS) if rng.random() < 0.5 else "".join(
            chr(rng.choice((rng.randrange(32, 127), rng.randrange(0x110000)))) for _ in range(rng.randrange(6)))
    if kind == 1:
        return rng.choice((rng.randint(-9, 9), rng.randint(-(2 ** 80), 2 ** 80)))
    if kind == 2:
        return rng.choice((True, False, None))
    if kind == 3:
        return rng.choice(list(Verdict))
    if kind == 4:
        return rng.choice(("", "a", "x|y", "0"))
    items = [random_json(rng, depth + 1) for _ in range(rng.randrange(4))]
    if kind == 5:
        return items
    if kind == 6:
        return tuple(items)
    return {rng.choice(ODD_STRINGS + [f"k{i}", Verdict.UNKNOWN]): v for i, v in enumerate(items)}


def assert_prints_like_dumps(value, capsys):
    _print_json(value)
    assert capsys.readouterr().out == json.dumps(value, indent=2) + "\n"


@pytest.mark.parametrize("name", JSON_EDGE_CASES)
def test_print_json_edge_cases_match_dumps(name, capsys):
    assert_prints_like_dumps(JSON_EDGE_CASES[name], capsys)


def test_print_json_matches_dumps_on_random_values(capsys):
    rng = random.Random(2024)
    for _ in range(400):
        assert_prints_like_dumps(random_json(rng), capsys)


def test_print_json_refuses_what_dumps_refuses(capsys):
    for value in ({1, 2}, {"a": [frozenset()]}):
        with pytest.raises(TypeError):
            json.dumps(value, indent=2)
        with pytest.raises(TypeError, match="not JSON serializable"):
            _print_json(value)


def test_hom_exp_roundtrips(files, capsys, tmp_path):
    assert run(["hom", "exp", files["k2.g"], files["k2.g"]]) == 0
    text = capsys.readouterr().out
    out = tmp_path / "exp.g"
    out.write_text(text)
    assert run(["graph", "validate", str(out)]) == 0
    assert text.count("loop") == 2


def test_hom_compare(files, capsys):
    assert run(["hom", "compare", files["k2.g"], files["c5.g"], "--max-len", "8"]) == 0
    out = capsys.readouterr().out
    assert "bijective" in out and "passed" in out


def test_hom_guard_exit65(files, capsys):
    big = "\n".join(f"vertex v{i}" for i in range(12)) + "\n"
    p = files["c5.g"] + ".big"
    with open(p, "w") as fh:
        fh.write(big)
    assert run(["--cap", "10", "hom", "exp", p, p]) == 65
    capsys.readouterr()
    # 5**7 maps pass the default vertex guard; the edge count stops the build
    p6, k5 = files["c5.g"] + ".p6", files["c5.g"] + ".k5"
    with open(p6, "w") as fh:
        fh.write("".join(f"vertex {i}\n" for i in range(7)) + "".join(f"edge {i} {i + 1}\n" for i in range(6)))
    with open(k5, "w") as fh:
        fh.write("".join(f"vertex {i}\n" for i in range(5))
                 + "".join(f"edge {i} {j}\n" for i in range(5) for j in range(i + 1, 5)))
    assert run(["hom", "exp", p6, k5]) == 65
    assert "edges" in capsys.readouterr().err
    # 5**5 maps but 819,840 edges: --cap bounds both counts
    p4 = files["c5.g"] + ".p4"
    with open(p4, "w") as fh:
        fh.write("".join(f"vertex {i}\n" for i in range(5)) + "".join(f"edge {i} {i + 1}\n" for i in range(4)))
    assert run(["hom", "exp", p4, k5]) == 65
    assert "edges" in capsys.readouterr().err
    assert run(["hom", "compare", p4, k5, "--max-len", "8"]) == 65
    assert "edges" in capsys.readouterr().err


def test_determinism_byte_identical(files, capsys):
    run(["pi1", "present", files["wheel.g"], "--base", "x"])
    first = capsys.readouterr().out
    run(["pi1", "present", files["wheel.g"], "--base", "x"])
    assert capsys.readouterr().out == first


def test_closed_stdout_ends_quietly(tmp_path):
    # `ghom pi1 present k20.g | head -1`: K20's presentation is megabytes,
    # far past a pipe's buffer, so the reader closes the pipe mid-write
    k20 = tmp_path / "k20.g"
    k20.write_text(serialize(complete_graph(20)))
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(ghom.__file__).resolve().parent.parent) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen([sys.executable, "-m", "ghom.cli", "pi1", "present", str(k20)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 141
    assert first == b"basepoint: 0\n" and err == b""
