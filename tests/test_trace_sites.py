"""The benchmark's span tracer must find every import site it wraps.

perfbench/tracing.py replaces package functions at each module that imported
them (SITES), so moving or renaming one makes `perfbench/run.py --trace 1`
fail.  Sites are resolved with getattr only: installing the tracer would
patch the package for the rest of the test session.
"""
import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_site_resolves():
    missing = []
    for module_name, attr, _span in _load_tracing().SITES:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{attr}")
    assert not missing, missing
