"""Layer spans recorded around calls into mmotlab's public functions.

The tracer patches the functions named in ``LAYER_FUNCTIONS`` for the
duration of one operation: every module attribute bound to the original
function (including names imported into other mmotlab modules) is replaced
by a wrapper that records a span, so calls one layer makes into another are
nested under the caller's span.  Nothing in ``src/`` is modified; the
patches are undone when the operation ends.

Stdlib only: the traced ``mmotlab`` child process imports this module before
``mmotlab`` itself.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager

#: (span name, module, attribute path) for every traced public function.
#: Several functions may share one span name; their time is summed.
LAYER_FUNCTIONS = (
    ("core.cost_tensor", "mmotlab.core", "cost_tensor"),
    ("core.transport_cost", "mmotlab.core", "Coupling.transport_cost"),
    ("solver.solve_exact", "mmotlab.solver", "solve_exact"),
    ("solver.duality_gap", "mmotlab.solver", "duality_gap"),
    ("solver.c_conjugate_update", "mmotlab.solver", "c_conjugate_update"),
    ("structure.splitting_support", "mmotlab.structure", "splitting_support"),
    ("structure.check_c_monotone", "mmotlab.structure", "check_c_monotone"),
    ("structure.decompose_graphs", "mmotlab.structure", "decompose_graphs"),
    ("structure.twist_multiplicity", "mmotlab.structure", "twist_multiplicity"),
    ("diff.hessian_offdiag", "mmotlab.diff", "hessian_offdiag"),
    ("diff.signature", "mmotlab.diff", "signature"),
    ("diff.three_marginal_criterion", "mmotlab.diff", "three_marginal_criterion"),
    ("extremal.is_vertex", "mmotlab.extremal", "is_vertex"),
    ("extremal.lemma_trip_check", "mmotlab.extremal", "lemma_trip_check"),
    ("extremal.check_thm41", "mmotlab.extremal", "check_thm41"),
    ("io.load", "mmotlab.io", "load_marginal"),
    ("io.load", "mmotlab.io", "load_coupling"),
    ("io.dump", "mmotlab.io", "dump_marginal"),
    ("io.dump", "mmotlab.io", "dump_coupling"),
    ("experiments.run_experiment", "mmotlab.experiments", "run_experiment"),
    ("cli.main", "mmotlab.cli", "main"),
)

LAYER_NAMES = tuple(dict.fromkeys(name for name, _, _ in LAYER_FUNCTIONS))


class Tracer:
    """In-memory spans: ``[id, parent, name, start, end, raised]``.

    Spans of one operation hang below that operation's root span, so the
    root id identifies the operation.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [sid, parent, name, time.perf_counter(), None, False]
        self.spans.append(record)
        self._stack.append(sid)
        try:
            yield sid
        except BaseException:
            record[5] = True
            raise
        finally:
            record[4] = time.perf_counter()
            self._stack.pop()

    def adopt(self, spans: list[list], parent: int):
        """Append spans recorded in another process below span ``parent``."""
        base = len(self.spans)
        for sid, sparent, name, start, end, raised in spans:
            new_parent = parent if sparent is None else base + sparent
            self.spans.append([base + sid, new_parent, name, start, end, raised])

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def installed(self):
        """Patch every traced function of the loaded mmotlab modules."""
        modules = [m for k, m in list(sys.modules.items())
                   if (k == "mmotlab" or k.startswith("mmotlab.")) and m is not None]
        undo = []
        try:
            for name, modname, path in LAYER_FUNCTIONS:
                owner = sys.modules.get(modname)
                if owner is None:  # a module this process never imported
                    continue
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
                wrapper = self._wrap(name, original)
                targets = [owner] if outer else [
                    m for m in modules if any(v is original for v in vars(m).values())
                ]
                for target in targets:
                    for key, value in list(vars(target).items()):
                        if value is original:
                            setattr(target, key, wrapper)
                            undo.append((target, key, original))
            yield self
        finally:
            for target, key, original in reversed(undo):
                setattr(target, key, original)


def _under_roots(spans: list[list], roots: set[int]) -> list[bool]:
    """For each span, whether it descends from one of ``roots`` (roots excluded)."""
    inside = [False] * len(spans)
    for sid, parent, *_ in spans:
        inside[sid] = parent is not None and (parent in roots or inside[parent])
    return inside


def self_seconds(spans: list[list], roots: set[int]) -> dict[str, float]:
    """Busy seconds per span name below ``roots``, minus nested spans' time."""
    inside = _under_roots(spans, roots)
    child_time = [0.0] * len(spans)
    for sid, parent, _, start, end, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    totals: dict[str, float] = {}
    for sid, _, name, start, end, _ in spans:
        if inside[sid]:
            totals[name] = totals.get(name, 0.0) + (end - start) - child_time[sid]
    return totals


def count_raised(spans: list[list], roots: set[int], name: str) -> int:
    """Number of spans called ``name`` below ``roots`` that ended in an exception."""
    inside = _under_roots(spans, roots)
    return sum(1 for sid, _, sname, _, _, raised in spans
               if inside[sid] and sname == name and raised)
