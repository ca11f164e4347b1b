"""The benchmark's tracer wraps library functions by name: every hook it
lists must resolve, or `--trace 1` would silently lose a layer."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _hooks():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TIMED + tracing.COUNTED


@pytest.mark.parametrize("mod_name, attr, key", _hooks(), ids=str)
def test_tracer_hook_resolves(mod_name, attr, key):
    module = importlib.import_module(f"ghom.{mod_name}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert meth in vars(getattr(module, cls_name))
    else:
        assert callable(getattr(module, attr))


def test_smith_step_runs_through_the_traced_name(monkeypatch):
    # the tracer times the Smith step by rebinding `ghom.snf.smith_normal_form`:
    # the invariants must look the name up when they run
    import ghom.snf
    from ghom import complete_graph
    from ghom.groupoid import abelian_invariants, fundamental_group_presentation

    calls = []
    smith = ghom.snf.smith_normal_form

    def counted(rows):
        calls.append(len(rows))
        return smith(rows)

    monkeypatch.setattr(ghom.snf, "smith_normal_form", counted)
    assert str(abelian_invariants(fundamental_group_presentation(complete_graph(7), "0"))) == "rank 0, torsion [2]"
    assert calls
