"""The benchmark's tracer still finds every mmotlab function it patches."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # stdlib only
    return module


def test_every_traced_function_resolves():
    tracing = _tracing()
    assert tracing.LAYER_FUNCTIONS
    for _, modname, path in tracing.LAYER_FUNCTIONS:
        owner = importlib.import_module(modname)
        for part in path.split("."):
            assert hasattr(owner, part), f"{modname}.{path} is gone"
            owner = getattr(owner, part)
        assert callable(owner), f"{modname}.{path} is not callable"

