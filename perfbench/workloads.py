"""The benchmark's four workloads.

Operation k runs ``op`` on ``item(k)``: a fresh seeded instance for the
solver workloads, an entry of a pool built at set-up for the others.
``check`` validates an operation's output and ``counts`` returns its exact
or computed work counts; neither is timed.  Calls into mmotlab go through
module attributes (``solver.solve_exact``, not an imported name) so that
the tracer's patches see them.
"""

from __future__ import annotations

import functools
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from mmotlab import core, diff, experiments, extremal, io, solver, structure

import oracle
from oracle import require

#: the body of the ``mmotlab`` console script
CONSOLE = "import sys; from mmotlab.cli import main; sys.exit(main())"
CHILD = str(Path(__file__).with_name("cli_child.py"))


@dataclass(eq=False)
class Instance:
    model: core.CostModel
    space: core.ProductSpace

    @functools.cached_property
    def highs(self) -> tuple[float, float]:
        """HiGHS (optimal value, solve seconds) on this instance's LP."""
        return oracle.highs_value(self.model, self.space)

    @functools.cached_property
    def finite_cells(self) -> int:
        return oracle.finite_cells(self.model, self.space)


def perturbed_space(n: int, size: int, rng, sloped: bool = True) -> core.ProductSpace:
    """Evenly spaced points on [0, 1]; weights with 10% seeded jitter.

    ``sloped`` weights grow as 1 + j/N along the axis, as in
    ``experiments.coulomb_perturbed_space``.  Flat weights keep Coulomb
    instances with n close to N feasible: every cell holds each point at
    most once, so the n weights of one point may not sum past 1.
    """
    pts = np.linspace(0.0, 1.0, size)
    base = 1.0 + np.arange(size) / size if sloped else np.ones(size)
    axes = []
    for _ in range(n):
        w = base * rng.uniform(0.9, 1.1, size=size)
        axes.append(core.DiscreteMarginal(pts, w / w.sum()))
    return core.ProductSpace(axes)


def twowell_space(steps: int, rng) -> core.ProductSpace:
    """``experiments.twowell_space`` with seeded first-axis weights.

    The third marginal stays the equal mixture of the first and its shift
    by 1/2, so the two zero-cost graphs still carry a feasible plan.
    """
    n1 = steps + 1
    shift = steps // 2
    w1 = rng.uniform(0.9, 1.1, size=n1)
    w1 /= w1.sum()
    w3 = np.zeros(n1 + shift)
    w3[:n1] += 0.5 * w1
    w3[shift:] += 0.5 * w1
    axis1 = core.DiscreteMarginal(np.arange(n1) / steps, w1)
    axis3 = core.DiscreteMarginal(np.arange(n1 + shift) / steps, w3 / w3.sum())
    return core.ProductSpace([axis1, axis1, axis3])


def twowell_maps(space: core.ProductSpace):
    """The identity graph and the shift-by-1/2 graph as (H, K) index maps."""
    n1 = space.shape[0]
    shift = space.shape[2] - n1
    identity = {i: i for i in range(n1)}
    return [(identity, identity), (identity, {i: i + shift for i in range(n1)})]


def soft_coulomb(xs) -> float:
    """Pairwise 1/sqrt(0.01 + gap^2): finite everywhere, scalar Python only."""
    coords = [float(x[0]) for x in xs]
    return math.fsum(
        1.0 / math.sqrt(0.01 + (a - b) ** 2)
        for i, a in enumerate(coords) for b in coords[i + 1:]
    )


def expcos_value(xs) -> float:
    """ExpCos as a plain callback, so derivatives go by finite differences."""
    return math.fsum(-math.exp(a[0] + b[0]) * math.cos(a[1] - b[1])
                     for a, b in ((xs[0], xs[1]), (xs[0], xs[2]), (xs[1], xs[2])))


def xyz_space(m_half: int, rng) -> core.ProductSpace:
    """``experiments.xyz_symmetric_space`` with 10% seeded weight jitter."""
    pos = (np.arange(1, m_half + 1) - 0.5) / m_half
    pts = np.concatenate([-pos[::-1], pos])
    w = np.where(pts < 0, 1.0, 2.0) * rng.uniform(0.9, 1.1, size=pts.size)
    m = core.DiscreteMarginal(pts, w / w.sum())
    return core.ProductSpace([m, m, m])


class Workload:
    """A pool of inputs built at set-up; operation k runs ``item(k)``."""

    name = ""
    #: whether each operation is one LP solve that HiGHS can be timed against
    highs_column = False

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.pool: list = []

    @property
    def pass_size(self) -> int:
        """Operations in one pass; per-pass counts sum over operations 0..pass_size-1."""
        return len(self.pool)

    def item(self, k: int):
        return self.pool[k % len(self.pool)]

    def setup(self):
        raise NotImplementedError

    def op(self, item, tracer=None):
        raise NotImplementedError

    def check(self, item, out):
        """Check ``out``; return the comparison with HiGHS still to run, if any."""
        raise NotImplementedError

    def counts(self, item, out) -> dict:
        raise NotImplementedError


class Generated(Workload):
    """Operation k gets a fresh instance drawn from (seed, k).

    Sizes cycle through ``LADDER``, so every stretch of operations has the
    same mix of sizes while the instances themselves never repeat.
    """

    LADDER: tuple = ()
    #: small instances solved once at set-up
    WARM_UP: tuple = ()
    highs_column = True

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self._last: tuple[int, Instance] | None = None

    @property
    def pass_size(self):
        return len(self.LADDER)

    def item(self, k):
        # a traced run asks for the same k twice in a row
        if self._last is None or self._last[0] != k:
            spec = self.LADDER[k % len(self.LADDER)]
            self._last = (k, self.instance(*spec, np.random.default_rng((self.seed, k))))
        return self._last[1]

    def instance(self, *spec) -> Instance:
        raise NotImplementedError

    def setup(self):
        for spec in self.WARM_UP:
            self.op(self.instance(*spec, self.rng))


def _versus_highs(inst: Instance, value: float):
    """The deferred comparison with HiGHS; it returns HiGHS's solve seconds."""
    def compare() -> float:
        reference, seconds = inst.highs
        oracle.check_value(value, reference)
        return seconds

    return compare


def _check_solution(inst: Instance, result):
    oracle.check_marginals(result.plan.entries, inst.space)
    oracle.check_vertex_rank(result.plan.support(), inst.space)
    return _versus_highs(inst, result.primal_value)


def _solver_counts(inst: Instance, result) -> dict:
    return {"solver.pivots": result.iterations,
            "solver.cells_priced": inst.finite_cells * result.iterations}


class Solve3M(Generated):
    """Three-marginal exact solves; the solver does nearly all the work."""

    name = "solve-3m"
    #: nine sizes, so that the median operation is the middle size's; the
    #: two slowest take about the same time, so the tail lands among them
    LADDER = (("coulomb", 18), ("twowell", 12), ("coulomb", 20), ("twowell", 14),
              ("coulomb", 22), ("twowell", 16), ("coulomb", 24), ("twowell", 18),
              ("twowell", 20))
    WARM_UP = (("coulomb", 6), ("twowell", 4))

    def instance(self, kind, size, rng):
        if kind == "coulomb":
            return Instance(core.Coulomb1D(), perturbed_space(3, size, rng))
        return Instance(core.TwoWell(), twowell_space(size, rng))

    def op(self, item, tracer=None):
        result = solver.solve_exact(item.model, item.space)
        gap = solver.duality_gap(item.model, result.plan, result.duals)
        return result, gap, extremal.is_vertex(result.plan)

    def check(self, item, out):
        result, gap, cert = out
        oracle.check_gap(gap, result.primal_value)
        require(cert.is_extremal, "is_vertex rejected a simplex vertex")
        return _check_solution(item, result)

    def counts(self, item, out):
        return _solver_counts(item, out[0])


class ManyMarginal(Generated):
    """n = 4 and 5 marginals: few LP rows, many columns, 2^(n-1) bipartitions."""

    name = "many-marginal"
    #: (marginals, points per axis, cost).  Nine sizes, so that the median
    #: operation is the middle size's; all but (5, 6, coulomb) take within a
    #: factor 2.5 of one another, so the tail lands among the slower ones.
    LADDER = ((4, 10, "coulomb"), (4, 7, "hook"), (4, 11, "coulomb"), (5, 4, "hook"),
              (5, 6, "coulomb"), (4, 8, "hook"), (4, 12, "coulomb"), (4, 9, "hook"),
              (5, 5, "hook"))
    #: the largest instance: the first one of that size is slower, also for
    #: later instances with other inputs
    WARM_UP = ((4, 5, "hook"), (5, 6, "coulomb"))

    def instance(self, n, size, kind, rng):
        model = core.Coulomb1D() if kind == "coulomb" else core.UserHook(soft_coulomb, n)
        return Instance(model, perturbed_space(n, size, rng, sloped=False))

    def op(self, item, tracer=None):
        model, space = item.model, item.space
        result = solver.solve_exact(model, space)
        split = structure.splitting_support(model, space, result.duals)
        violations = structure.check_c_monotone(model, result.plan.support(), space)
        decomp = structure.decompose_graphs(result.plan)
        twist = structure.twist_multiplicity(model, split, space)
        return result, split, violations, decomp, twist, extremal.is_vertex(result.plan)

    def check(self, item, out):
        result, split, violations, decomp, twist, cert = out
        require(set(result.plan.entries) <= split.cells, "plan support outside the splitting set")
        require(not violations, f"{len(violations)} c-monotonicity violations on an optimal plan")
        oracle.check_reconstruct(decomp, result.plan)
        require(twist.max_multiplicity >= 1, "no gradient clusters on a nonempty splitting set")
        require(cert.is_extremal, "is_vertex rejected a simplex vertex")
        return _check_solution(item, result)

    def counts(self, item, out):
        result, split = out[0], out[1]
        return {**_solver_counts(item, result),
                "structure.splitting_cells": len(split.cells),
                "structure.exchange_tests": oracle.exchange_tests(len(result.plan.entries),
                                                                  item.space.n),
                # twist_multiplicity differences the hook once per splitting cell
                "diff.fd_points": 0 if item.model.has_analytic_derivatives else len(split.cells)}


@dataclass
class Solved:
    inst: Instance
    result: solver.SolveResult
    maps: list | None = None

    @functools.cached_property
    def cost_scale(self) -> float:
        values = core.cost_tensor(self.inst.model, self.inst.space)
        return 1.0 + float(np.max(np.abs(values[np.isfinite(values)])))


class Analyze(Workload):
    """Analyses of plans solved during set-up; no solver work is timed."""

    name = "analyze"
    PLANS_PER_FAMILY = 4

    def setup(self):
        rng = self.rng
        families = []
        for _ in range(self.PLANS_PER_FAMILY):
            families += [
                Instance(core.Coulomb1D(), perturbed_space(3, 12, rng)),
                Instance(core.ProductXYZ(), xyz_space(6, rng)),
                Instance(core.TwoWell(), twowell_space(12, rng)),
                Instance(core.ExpCos(), self._expcos_space(6, rng)),
                self._tabulated(9, rng),
            ]
        solved = []
        for inst in families:
            maps = twowell_maps(inst.space) if isinstance(inst.model, core.TwoWell) else None
            solved.append(Solved(inst, solver.solve_exact(inst.model, inst.space), maps))
        hook = core.UserHook(expcos_value, 3, d=2)
        expcos = core.ExpCos()
        for plan in solved:
            points = [tuple(rng.uniform(-1.0, 1.0, size=(3, 2))) for _ in range(2)]
            self.pool.append((plan, ((expcos, points[0]), (hook, points[1]))))
        for item in self.pool[:len(self.pool) // self.PLANS_PER_FAMILY]:  # one plan per family
            self.op(item)

    @staticmethod
    def _expcos_space(size, rng):
        axes = []
        for _ in range(3):
            w = rng.uniform(0.5, 1.5, size=size)
            axes.append(core.DiscreteMarginal(rng.uniform(-1.0, 1.0, size=(size, 2)), w / w.sum()))
        return core.ProductSpace(axes)

    @staticmethod
    def _tabulated(size, rng) -> Instance:
        space = perturbed_space(3, size, rng)
        return Instance(core.Tabulated(rng.uniform(0.0, 1.0, space.shape), space), space)

    def op(self, item, tracer=None):
        solved, points = item
        model, space = solved.inst.model, solved.inst.space
        plan, duals = solved.result.plan, solved.result.duals
        split = structure.splitting_support(model, space, duals)
        out = {
            "split": split,
            "violations": structure.check_c_monotone(model, plan.support(), space),
            "decomp": structure.decompose_graphs(plan),
            "twist": structure.twist_multiplicity(model, split, space),
            "vertex": extremal.is_vertex(plan),
            "trip": extremal.lemma_trip_check(plan),
            "gap": solver.duality_gap(model, plan, duals),
            "conjugates": [solver.c_conjugate_update(model, space, duals, a) for a in range(space.n)],
            "thm41": extremal.check_thm41(space, solved.maps) if solved.maps else None,
            "diff": [],
        }
        for cost, point in points:
            hess = diff.hessian_offdiag(cost, point)
            out["diff"].append((cost, point, diff.signature(hess.assembled),
                                diff.three_marginal_criterion(cost, point)))
        return out

    def check(self, item, out):
        solved, _ = item
        plan, duals = solved.result.plan, solved.result.duals
        require(set(plan.entries) <= out["split"].cells, "plan support outside the splitting set")
        require(not out["violations"],
                f"{len(out['violations'])} c-monotonicity violations on an optimal plan (A5)")
        oracle.check_reconstruct(out["decomp"], plan)
        require(out["vertex"].is_extremal, "is_vertex rejected a simplex vertex")
        oracle.check_vertex_rank(plan.support(), plan.space)
        oracle.check_gap(out["gap"], solved.result.primal_value)
        for a, conj in enumerate(out["conjugates"]):
            require(not conj.undefined, f"axis {a}: c-conjugate undefined at {conj.undefined}")
            require(np.all(conj.values >= duals.values[a] - oracle.VALUE_TOL * solved.cost_scale),
                    f"axis {a}: c-conjugate below the optimal potential")
        if out["thm41"] is not None:
            thm = out["thm41"]
            require(thm.hypothesis_i and thm.hypothesis_ii and thm.hypothesis_iii,
                    f"two-well map hypotheses failed: {thm.failures}")
            require(out["trip"], "two-well plan failed the projection extremality test")
        for cost, point, sig, crit in out["diff"]:
            require(sig.triple == (4, 2, 0), f"{cost.kind} signature {sig.triple} != (4, 2, 0) (A4)")
            expected = -math.exp(2.0 * float(point[0][0])) * np.eye(2)
            tol = 1e-8 if cost.has_analytic_derivatives else 1e-4
            err = float(np.max(np.abs(crit.product - expected)))
            require(err <= tol * (1.0 + float(np.max(np.abs(expected)))),
                    f"{cost.kind} product criterion off by {err:.3e}")
            require(crit.negative_definite, f"{cost.kind} product criterion not negative definite")

    def counts(self, item, out):
        solved, _ = item
        fd = sum(2 for cost, *_ in out["diff"] if not cost.has_analytic_derivatives)
        return {"structure.splitting_cells": len(out["split"].cells),
                "structure.exchange_tests": oracle.exchange_tests(len(solved.result.plan.entries),
                                                                  solved.inst.space.n),
                "diff.fd_points": fd}


class Cli(Workload):
    """One fresh ``mmotlab`` process per operation."""

    name = "cli"
    #: (cost, points per axis) of the ``solve`` commands
    SOLVES = (("coulomb1d", 12), ("xyz", 12), ("coulomb1d", 16))

    def setup(self):
        root = Path(__file__).resolve().parent.parent
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        names = [spec.name for spec in experiments.experiment_registry()]
        solves = []
        for kind, size in self.SOLVES:
            model = core.make_cost(kind)
            space = (perturbed_space(3, size, self.rng) if kind == "coulomb1d"
                     else xyz_space(size // 2, self.rng))
            solves.append(Instance(model, space))
        # interleave the solves among the experiments
        self.pool = [("repro", name) for name in names]
        for k, inst in enumerate(solves):
            self.pool.insert(3 * k + 1, ("solve", inst))
        self._payloads: dict[str, dict] = {}
        subprocess.run([sys.executable, "-c", "import mmotlab.cli"], env=self.env, check=True)

    def _argv(self, item) -> list[str]:
        kind, arg = item
        if kind == "repro":
            return ["repro", arg]
        argv = ["solve", "--cost", arg.model.kind]
        for a, marginal in enumerate(arg.space.axes):
            path = self.workdir / f"marginal{a}.json"
            io.dump_marginal(marginal, path)
            argv += ["--marginal", str(path)]
        return argv

    def op(self, item, tracer=None):
        argv = self._argv(item)
        if tracer is None:
            proc = subprocess.run([sys.executable, "-c", CONSOLE, *argv],
                                  env=self.env, capture_output=True)
            return proc.returncode, proc.stdout
        spans_path = self.workdir / "spans.json"
        with tracer.span("cli.process") as sid:
            proc = subprocess.run([sys.executable, CHILD, str(spans_path), *argv],
                                  env=self.env, capture_output=True)
        if spans_path.exists():
            tracer.adopt(json.loads(spans_path.read_text()), parent=sid)
            spans_path.unlink()
        return proc.returncode, proc.stdout

    def _report(self, out) -> dict:
        code, stdout = out
        require(code in (0, 2), f"exit code {code}")
        try:
            report = json.loads(stdout)
        except json.JSONDecodeError as exc:
            raise oracle.CheckFailed(f"malformed JSON report: {exc}") from None
        require(isinstance(report, dict) and report.get("tool") == "mmotlab", "not an mmotlab report")
        failed = [a["name"] for a in report["assertions"] if not a["passed"]]
        require(code == (2 if failed else 0), f"exit code {code} with failed assertions {failed}")
        return report

    def check(self, item, out):
        report = self._report(out)
        kind, arg = item
        if kind == "repro":
            require(report["command"] == f"repro {arg}", f"wrong command {report['command']!r}")
            if arg not in self._payloads:
                ref = experiments.run_experiment(arg)
                self._payloads[arg] = json.loads(json.dumps(
                    {"assertions": ref["assertions"], "payload": ref["payload"]}))
            ref = self._payloads[arg]
            require(report["assertions"] == ref["assertions"], "assertions differ from in-process run")
            require(report["payload"] == ref["payload"], "payload differs from in-process run")
            return None
        payload = report["payload"]
        entries = {tuple(e["idx"]): e["mass"] for e in payload["coupling"]["entries"]}
        oracle.check_marginals(entries, arg.space)
        return _versus_highs(arg, payload["primal_value"])

    def counts(self, item, out):
        code, stdout = out
        report = json.loads(stdout)
        counts = {
            "cli.assertions_failed": sum(not a["passed"] for a in report["assertions"]),
            "cli.exit_0": int(code == 0),
            "cli.exit_2": int(code == 2),
        }
        kind, arg = item
        if kind == "solve":
            pivots = report["payload"]["iterations"]
            counts["solver.pivots"] = pivots
            counts["solver.cells_priced"] = arg.finite_cells * pivots
        return counts


WORKLOADS = {cls.name: cls for cls in (Solve3M, ManyMarginal, Analyze, Cli)}
