"""The benchmark's tracer still finds every mmotlab function it patches, and
the benchmark's own checks pass on one pass of its solver ladders and of
its analysis pool."""

import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


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


def _run_one_pass(monkeypatch, tmp_path, name):
    """A workload's set-up and one seed-0 pass through its ``op`` and
    ``check``, the deferred comparison with HiGHS's value included where
    there is one."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    workload = getattr(workloads, name)(0, tmp_path)
    workload.setup()
    for k in range(workload.pass_size):
        item = workload.item(k)
        compare = workload.check(item, workload.op(item))
        if workload.highs_column:
            assert compare() >= 0.0  # HiGHS's solve seconds, after its value matched
        else:
            assert compare is None


def test_solve3m_pass_meets_the_benchmark_checks(monkeypatch, tmp_path):
    _run_one_pass(monkeypatch, tmp_path, "Solve3M")


def test_many_marginal_pass_meets_the_benchmark_checks(monkeypatch, tmp_path):
    _run_one_pass(monkeypatch, tmp_path, "ManyMarginal")


def test_analyze_pass_meets_the_benchmark_checks(monkeypatch, tmp_path):
    _run_one_pass(monkeypatch, tmp_path, "Analyze")
