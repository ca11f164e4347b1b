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
