"""mmotlab benchmark: one workload per run, closed loop, one client.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The seed fixes every generated input.  With ``--trace 0`` the run reports
the end-to-end metrics, with every time corrected for the host's speed by a
reference computation timed between operations (pace.py); with ``--trace 1`` it alternates untraced and traced
operations and reports per-layer metrics.  The last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: an operation still running after this long is stopped and counted failed
OP_TIMEOUT_S = 30.0
#: set-ups per run whose median is setup_s (one in this process, the rest fresh)
SETUP_REPEATS = 3
#: the loop also ends once its operations have taken this many times
#: ``--seconds`` of wall time
WALL_CAP = 1.5
#: reference timings on each side of a set-up, to correct it (pace.py)
SETUP_REFS = 40
#: op_tail_s is the highest percentile with this many samples beyond it
TAIL_BEYOND = 10

END_TO_END = {
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ops_per_s": "1/s",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
#: counts per pass, summed over operations 0 .. pass_size-1
COUNTS = ("solver.pivots", "solver.cells_priced", "structure.exchange_tests",
          "structure.splitting_cells", "diff.fd_points", "cli.assertions_failed",
          "cli.exit_0", "cli.exit_2")
#: counts derived from the inputs rather than reported by the program
COMPUTED_COUNTS = ("solver.cells_priced", "structure.exchange_tests", "diff.fd_points")


class OpTimeout(Exception):
    pass


@contextmanager
def deadline(seconds: float):
    def expire(signum, frame):
        raise OpTimeout(f"operation exceeded {seconds:g} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class Sample:
    k: int
    latency: float
    traced: bool
    root: int | None = None
    error: str | None = None
    counts: dict = field(default_factory=dict)
    #: ``latency`` rescaled to the reference host speed (see pace.py)
    corrected: float = 0.0
    #: HiGHS comparison left for after the loop, so its memory stays out of peak_rss_mb
    pending: Callable | None = None
    highs_s: float = 0.0


def timed_setup(name: str, seed: int, workdir: Path):
    """Import mmotlab, generate the inputs and warm up.

    Returns (workload, wall seconds, ``SETUP_REFS`` reference timings taken
    right after, to correct it).  ``pace`` imports numpy, so it is loaded
    only once the set-up clock has stopped.
    """
    started = time.perf_counter()
    import workloads  # imports mmotlab, numpy and scipy

    wl = workloads.WORKLOADS[name](seed, workdir)
    wl.setup()
    seconds = time.perf_counter() - started
    import pace

    pace.reference()  # the first call pays for warming caches
    return wl, seconds, pace.references(SETUP_REFS)


def run_op(wl, k: int, tracer) -> Sample:
    """Run and check operation ``k``; only the operation itself is timed.

    The output is checked and counted right away and then dropped, so the
    memory the benchmark keeps does not grow with the number of operations.
    """
    item = wl.item(k)
    sample = Sample(k, 0.0, tracer is not None)
    started = time.perf_counter()
    try:
        with deadline(OP_TIMEOUT_S):
            if tracer is None:
                out = wl.op(item)
            else:
                with tracer.installed(), tracer.span("op") as sample.root:
                    out = wl.op(item, tracer)
    except Exception as exc:  # any raise is a failed operation
        sample.error = f"op {k}: {type(exc).__name__}: {exc}"
    sample.latency = time.perf_counter() - started
    if sample.error is None:
        try:
            sample.pending = wl.check(item, out)
            sample.counts = wl.counts(item, out)
        except Exception as exc:  # a check that cannot run fails the operation too
            sample.error = f"op {k} check: {type(exc).__name__}: {exc}"
    return sample


def measure(wl, seconds: float, tracer) -> tuple[list[Sample], list[float]]:
    """Run whole passes of operations 0, 1, 2, ... until the operations
    have taken ``seconds`` at the reference speed, so every run holds the
    same mix and, whatever the host's speed, about the same number of passes.

    A reference computation is timed between operations (pace.py), and
    each sample's corrected latency uses the references around it.  A host
    that stays slow ends the loop once the operations have taken
    ``WALL_CAP`` × ``seconds`` of wall time.  With a tracer, each operation
    runs twice in a row, untraced and traced, in alternating order, so both
    halves see the same inputs.
    """
    import pace

    pacer = pace.Pacer()
    samples, refs_at = [], []
    paced = wall = 0.0
    k = 0
    while (paced < seconds and wall < WALL_CAP * seconds) or k % wl.pass_size:
        modes = [None] if tracer is None else ([None, tracer] if k % 2 == 0 else [tracer, None])
        for mode in modes:
            refs_at.append(pacer.before_op())
            samples.append(run_op(wl, k, mode))
            paced += pacer.estimate(samples[-1].latency)
            wall += samples[-1].latency
        k += 1
    pacer.finish()
    for s, at in zip(samples, refs_at):
        s.corrected = s.latency * pacer.scale(at)
    return samples, pacer.refs


def finish_checks(samples: list[Sample]):
    """Compare optimal values with HiGHS; in trace runs keep the HiGHS time."""
    for s in samples:
        if s.error is None and s.pending is not None:
            try:
                s.highs_s = s.pending()
            except Exception as exc:  # a check that cannot run fails the operation too
                s.error = f"op {s.k} check: {type(exc).__name__}: {exc}"
            s.pending = None


def peak_rss_mb(wl) -> float:
    """Peak resident set of the process that runs the operations, in MB."""
    who = resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest percentile with
    ``TAIL_BEYOND`` samples beyond it; the maximum when there are too few."""
    xs = sorted(latencies)
    j = len(xs) - 1 - TAIL_BEYOND if len(xs) > TAIL_BEYOND else len(xs) - 1
    return xs[j], 100.0 * (j + 1) / len(xs), len(xs) - 1 - j


def fresh_setups(args, count: int) -> list[tuple[float, float]]:
    """(wall seconds, corrected seconds) of ``count`` set-ups in fresh
    processes, each corrected by references timed just before and after it."""
    import pace

    out = []
    for _ in range(count):
        before = pace.references(SETUP_REFS)
        proc = subprocess.run(
            [sys.executable, __file__, "--setup-only", "--workload", args.workload,
             "--seed", str(args.seed)],
            capture_output=True, text=True, timeout=120, check=True)
        after = pace.references(SETUP_REFS)
        seconds = json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]
        out.append((seconds, pace.corrected(seconds, before + after)))
    return out


def end_to_end(args, samples, busy, refs, rss, setup_first) -> tuple[dict, dict]:
    import pace

    passed = [s for s in samples if s.error is None]
    latencies = [s.corrected for s in passed or samples]
    value, pct, beyond = tail(latencies)
    setups = [setup_first, *fresh_setups(args, SETUP_REPEATS - 1)]
    metrics = {
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": value,
        "ops_per_s": len(passed) / sum(s.corrected for s in samples),
        "ok_frac": len(passed) / len(samples),
        "peak_rss_mb": rss,
        "setup_s": statistics.median(c for _, c in setups),
    }
    info = {"tail_percentile": round(pct, 2), "tail_samples_beyond": beyond,
            "latency_samples": len(latencies),
            "setup_samples_s": [c for _, c in setups],
            "wall_clock": {"op_p50_s": statistics.median(s.latency for s in passed or samples),
                           "ops_per_s": len(passed) / busy,
                           "setup_samples_s": [w for w, _ in setups]},
            "reference_s": {"nominal": pace.NOMINAL_S, "median": statistics.median(refs),
                            "min": min(refs), "max": max(refs), "count": len(refs)}}
    return metrics, info


def pass_counts(wl, samples) -> dict:
    """Counts summed over operations 0 .. pass_size-1, which get the same
    inputs on every run with the same seed."""
    first = {}
    for s in samples:
        if s.k < wl.pass_size and s.error is None:
            first.setdefault(s.k, s.counts)
    for k in range(wl.pass_size):
        if k not in first:  # not reached in the timed loop
            first[k] = run_op(wl, k, None).counts
    return {name: sum(c.get(name, 0) for c in first.values()) for name in COUNTS}


def per_layer(wl, tracer, samples) -> tuple[dict, dict]:
    import tracing

    traced = [s for s in samples if s.traced]
    roots = {s.root for s in traced if s.root is not None}
    busy = tracing.self_seconds(tracer.spans, roots)
    n = max(len(traced), 1)
    metrics = {f"{name}.s": busy.get(name, 0.0) / n
               for name in (*tracing.LAYER_NAMES, "cli.import", "cli.process")}
    metrics.update(pass_counts(wl, samples))
    pivots = sum(s.counts.get("solver.pivots", 0) for s in traced)
    tests = sum(s.counts.get("structure.exchange_tests", 0) for s in traced)
    metrics["solver.s_per_pivot"] = busy.get("solver.solve_exact", 0.0) / pivots if pivots else 0.0
    metrics["structure.check_c_monotone.s_per_test"] = (
        busy.get("structure.check_c_monotone", 0.0) / tests if tests else 0.0)
    metrics["solver.failed"] = tracing.count_raised(tracer.spans, roots, "solver.solve_exact")
    highs = sum(s.highs_s for s in traced) / n if wl.highs_column else 0.0
    metrics["ref.highs_ds.s"] = highs
    metrics["solver.vs_highs"] = metrics["solver.solve_exact.s"] / highs if highs else 0.0
    plain = [s.corrected for s in samples if not s.traced and s.error is None]
    with_trace = [s.corrected for s in traced if s.error is None]
    metrics["trace.overhead_frac"] = (
        statistics.median(with_trace) / statistics.median(plain) - 1.0
        if plain and with_trace else 0.0)
    metrics["trace.ops"] = len(traced)
    info = {"computed_counts": list(COMPUTED_COUNTS),
            "exact_counts": [c for c in COUNTS if c not in COMPUTED_COUNTS]}
    return metrics, info


PER_LAYER_UNITS = {"solver.s_per_pivot": "s/pivot",
                   "structure.check_c_monotone.s_per_test": "s/test",
                   "solver.vs_highs": "ratio", "trace.overhead_frac": "ratio"}


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    return PER_LAYER_UNITS.get(name, "s" if name.endswith(".s") else "count")


def environment(seed: int) -> dict:
    import numpy
    import scipy

    def blas(config):
        try:
            return config(mode="dicts")["Build Dependencies"]["blas"].get("version")
        except (KeyError, TypeError):
            return None

    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas(numpy.show_config),
        "openblas_scipy": blas(scipy.show_config),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("solve-3m", "many-marginal", "analyze", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mmotlab" / "__init__.py").is_file():
        print(f"perfbench: no mmotlab sources under {SRC}", file=sys.stderr)
        return 2
    # one BLAS thread, set before numpy loads; no bytecode written anywhere,
    # so every process compiles mmotlab from source the same way
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    sys.dont_write_bytecode = True
    # one CPU for this process and the processes it starts, so that the
    # references and the operations they correct run on the same core
    if not args.setup_only and hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    BUILD.mkdir(exist_ok=True)

    with tempfile.TemporaryDirectory(dir=BUILD, prefix="perfbench-") as work:
        wl, setup_wall, setup_refs = timed_setup(args.workload, args.seed, Path(work))
        if args.setup_only:
            print(json.dumps({"setup_s": setup_wall}))
            return 0

        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
        samples, refs = measure(wl, args.seconds, tracer)
        busy = sum(s.latency for s in samples)
        rss = peak_rss_mb(wl)
        finish_checks(samples)
        if args.trace:
            metrics, info = per_layer(wl, tracer, samples)
            spans = BUILD / f"spans-{args.workload}-seed{args.seed}.json"
            spans.write_text(json.dumps(tracer.spans))
            info["spans_file"] = str(spans.relative_to(ROOT))
        else:
            import pace

            setup_first = (setup_wall, pace.corrected(setup_wall, setup_refs))
            metrics, info = end_to_end(args, samples, busy, refs, rss, setup_first)

    failed = [s for s in samples if s.error is not None]
    info.update(workload=args.workload, seconds=args.seconds, trace=args.trace,
                busy_s=busy, pass_size=wl.pass_size,
                failures=sorted({s.error for s in failed})[:5],
                environment=environment(args.seed))
    print(json.dumps({"info": info}))
    for name, value in metrics.items():
        print(f"{name:42s} {value:.6g} {unit_of(name)}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
