"""Command-line front end.

Every subcommand writes a JSON report (optionally a CSV of support cells)
and exits 0 on success, 2 when a verification assertion in the report is
false, and 1 on usage errors.  Reports embed the tool version, the fully
resolved parameters, the seed, and the wall-clock time; two runs with the
same parameters and seed differ only in the timing field.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import asdict

import numpy as np

from . import __version__, diff, experiments, extremal, io, structure
from .core import (
    BUILTIN_COSTS,
    ProductSpace,
    TransportError,
    _admissible_slack,
    make_cost,
)
from .experiments import assertion
from .solver import TOL_DUAL, solve_exact
from .structure import GRAD_TOL, SUPPORT_TOL


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the report contract reserves 2 for
    # verification failures, so remap usage problems to exit code 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


#: the tolerance flags ``--tol-NAME`` and their defaults
_TOLERANCES = {"support": SUPPORT_TOL, "dual": TOL_DUAL, "grad": GRAD_TOL}
#: flags that shape the output rather than the result; ``seed`` has its own field
_NOT_IN_SPEC = {"help", "out", "fmt", "seed"}


def _add_common(parser, marginals=False, cost=False, coupling=False, sampled=False,
                tols=(), fmt=False):
    """Register the shared flags; ``tols`` names the ``--tol-*`` flags the
    handler reads, and ``fmt`` adds ``--format`` for reports with a coupling."""
    parser.add_argument("--out", help="path for the JSON report (default: stdout)")
    if fmt:
        parser.add_argument(
            "--format", choices=("json", "csv"), default="json", dest="fmt",
            help="report format; csv writes the support cells of the coupling",
        )
    if marginals:
        parser.add_argument(
            "--marginal", action="append", required=True, metavar="FILE", dest="marginals",
            help="marginal JSON file; repeat once per axis",
        )
    if cost:
        parser.add_argument("--cost", required=True, choices=tuple(BUILTIN_COSTS))
    if coupling:
        parser.add_argument("--coupling", required=True, metavar="FILE")
    if sampled:
        parser.add_argument("--samples", type=int, default=20)
        parser.add_argument("--seed", type=int, default=0)
    for name in tols:
        parser.add_argument(f"--tol-{name}", type=float, default=_TOLERANCES[name])


def _load_space(paths) -> ProductSpace:
    return ProductSpace([io.load_marginal(p) for p in paths])


def _sample_points(cost_kind, rng):
    if cost_kind == "expcos":
        coords = rng.uniform(-1.0, 1.0, size=6)
        return (coords[0:2], coords[2:4], coords[4:6])
    while True:
        coords = rng.uniform(0.0, 1.0, size=3)
        if len(set(np.round(coords, 12))) == 3 and np.min(np.diff(np.sort(coords))) > 1e-3:
            return tuple(coords.reshape(3, 1))


def _emit(args, report: dict, elapsed: float) -> int:
    """Write the report envelope; ``report`` holds ``payload`` and ``assertions``
    and may override ``command``, ``spec`` and ``seed``."""
    report = {
        "tool": "mmotlab",
        "version": __version__,
        "command": args.command,
        "spec": {key: getattr(args, key) for key in args.spec_keys},
        "seed": getattr(args, "seed", None),
        "timing_seconds": elapsed,
        **report,
    }
    if getattr(args, "fmt", "json") == "csv":
        rows = [
            entry["idx"] + [entry["mass"]]
            for entry in report["payload"]["coupling"]["entries"]
        ]
        target = open(args.out, "w", newline="") if args.out else sys.stdout
        try:
            writer = csv.writer(target)
            writer.writerow(
                [f"idx{a + 1}" for a in range(len(rows[0]) - 1)] + ["mass"]
            )
            writer.writerows(rows)
        finally:
            if args.out:
                target.close()
    else:
        text = json.dumps(report, indent=1, sort_keys=True)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        else:
            print(text)
    return 2 if any(not a["passed"] for a in report["assertions"]) else 0


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns the report's payload and assertions
# ---------------------------------------------------------------------------

def _cmd_solve(args):
    space = _load_space(args.marginals)
    model = make_cost(args.cost)
    result = solve_exact(model, space, tol_dual=args.tol_dual)
    payload = {
        "primal_value": result.primal_value,
        "dual_value": result.dual_value,
        "iterations": result.iterations,
        "coupling": io.coupling_to_dict(result.plan),
        "duals": [u.tolist() for u in result.duals.values],
    }
    gap = result.primal_value - result.dual_value
    _, _, bound = _admissible_slack(model, space, result.duals.values, args.tol_dual)
    passed = abs(gap) <= bound
    return {"payload": payload,
            "assertions": [assertion("duality_gap", passed, f"gap={gap:.3e}")]}


def _cmd_decompose(args):
    space = _load_space(args.marginals)
    plan = io.load_coupling(args.coupling, space)
    decomp = structure.decompose_graphs(plan, tol_mass=args.tol_support)
    branches = {
        str(i1): [
            {"target": list(br.target), "alpha": br.alpha, "graph": br.graph_label}
            for br in row
        ]
        for i1, row in decomp.branches.items()
    }
    return {"payload": {"k": decomp.k, "branches": branches}, "assertions": []}


def _cmd_check_monotone(args):
    space = _load_space(args.marginals)
    model = make_cost(args.cost)
    plan = io.load_coupling(args.coupling, space)
    violations = structure.check_c_monotone(
        model, plan.support(args.tol_support), space
    )
    payload = {"violations": [asdict(v) for v in violations]}
    check = assertion("no_monotonicity_violations", not violations,
                      f"{len(violations)} violations")
    return {"payload": payload, "assertions": [check]}


def _cmd_check_splitting(args):
    space = _load_space(args.marginals)
    model = make_cost(args.cost)
    result = solve_exact(model, space, tol_dual=args.tol_dual)
    report = structure.splitting_support(model, space, result.duals,
                                         tol_split=args.tol_dual)
    support = set(result.plan.support(args.tol_support))
    payload = {
        "splitting_cells": sorted(list(c) for c in report.cells),
        "max_violation": report.max_violation,
        "support_size": len(support),
    }
    check = assertion("plan_support_inside_splitting_set", support <= report.cells)
    return {"payload": payload, "assertions": [check]}


def _cmd_twist_count(args):
    space = _load_space(args.marginals)
    model = make_cost(args.cost)
    result = solve_exact(model, space, tol_dual=args.tol_dual)
    split = structure.splitting_support(model, space, result.duals,
                                        tol_split=args.tol_dual)
    twist = structure.twist_multiplicity(model, split, space, tol_grad=args.tol_grad)
    payload = {
        "max_multiplicity": twist.max_multiplicity,
        "n_clusters": len(twist.clusters),
        "flagged_cells": sorted(list(c) for c in twist.flagged_cells),
    }
    return {"payload": payload, "assertions": []}


def _cmd_signature(args):
    model = make_cost(args.cost)
    rng = np.random.default_rng(args.seed)
    triples = []
    for _ in range(args.samples):
        point = _sample_points(args.cost, rng)
        sig = diff.signature(diff.hessian_offdiag(model, point).assembled)
        triples.append(sig.triple)
        print(f"({sig.n_plus},{sig.n_minus},{sig.n_zero})", file=sys.stderr)
    return {"payload": {"signatures": [list(t) for t in triples]}, "assertions": []}


def _cmd_criterion3(args):
    model = make_cost(args.cost)
    rng = np.random.default_rng(args.seed)
    results = []
    for _ in range(args.samples):
        report = diff.three_marginal_criterion(model, _sample_points(args.cost, rng))
        results.append({"product": report.product.tolist(),
                        "negative_definite": report.negative_definite})
    payload = {"samples": results,
               "all_negative_definite": all(r["negative_definite"] for r in results)}
    return {"payload": payload, "assertions": []}


def _cmd_extremal(args):
    space = _load_space(args.marginals)
    plan = io.load_coupling(args.coupling, space)
    cert = extremal.is_vertex(plan)
    payload = {
        "is_extremal": cert.is_extremal,
        "kernel_direction": (
            None
            if cert.kernel_direction is None
            else [{"idx": list(k), "coeff": v} for k, v in sorted(cert.kernel_direction.items())]
        ),
    }
    return {"payload": payload, "assertions": []}


def _cmd_thm41(args):
    space = _load_space(args.marginals)
    maps, theta = io.load_maps(args.maps)
    try:
        report = extremal.check_thm41(space, maps, theta=theta)
    except ValueError as exc:
        if space.n != 3:  # about the --marginal files, not the maps
            raise
        raise ValueError(f"{args.maps}: {exc}") from None
    payload = {
        "hypothesis_i": report.hypothesis_i,
        "hypothesis_ii": report.hypothesis_ii,
        "hypothesis_iii": report.hypothesis_iii,
        "theta": {str(k): v for k, v in report.theta.items()} if report.theta else None,
        "cycle": list(report.cycle) if report.cycle else None,
        "failures": [list(map(str, f)) for f in report.failures],
    }
    checks = [assertion(name, payload[name])
              for name in ("hypothesis_i", "hypothesis_ii", "hypothesis_iii")]
    return {"payload": payload, "assertions": checks}


def _cmd_witness(args):
    space = _load_space(args.marginals)
    plan = io.load_coupling(args.coupling, space)
    model = make_cost(args.cost) if args.cost else None
    sets = [
        [int(v) for v in s.split(",") if v != ""]
        for s in (args.s1, args.s2, args.s3)
    ]
    witness = extremal.symmetry_witness(plan, *sets, model=model)
    tv = plan.tv_distance(witness)
    payload = {"coupling": io.coupling_to_dict(witness), "tv_distance": tv}
    return {"payload": payload,
            "assertions": [assertion("witness_differs_from_plan", tv > 1e-12)]}


def _cmd_repro(args):
    specs = {spec.name: spec for spec in experiments.experiment_registry()}
    spec = specs.get(args.name)
    if spec is None:
        names = ", ".join(sorted(specs))
        raise ValueError(f"unknown experiment {args.name!r}; registered: {names}")
    overrides = {"grid_size": args.grid_size, "seed": args.seed}
    ignored = [k for k, v in overrides.items() if v is not None and k not in spec.params]
    if ignored:
        flags = ", ".join("--" + k.replace("_", "-") for k in ignored)
        raise ValueError(f"experiment {args.name!r} takes no {flags} "
                         f"(its parameters: {', '.join(spec.params) or 'none'})")
    report = experiments.run_experiment(args.name, **overrides)
    return {
        "command": f"repro {args.name}",
        "spec": report["spec"],
        "seed": report["spec"]["params"].get("seed"),
        "assertions": report["assertions"],
        "payload": report["payload"],
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mmotlab", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve the transport LP exactly")
    _add_common(p, marginals=True, cost=True, tols=("dual",), fmt=True)
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser("decompose", help="decompose a coupling into graphs")
    _add_common(p, marginals=True, coupling=True, tols=("support",))
    p.set_defaults(handler=_cmd_decompose)

    p = sub.add_parser("check-monotone", help="pairwise exchange inequality")
    _add_common(p, marginals=True, cost=True, coupling=True, tols=("support",))
    p.set_defaults(handler=_cmd_check_monotone)

    p = sub.add_parser("check-splitting", help="tight cells of the LP duals")
    _add_common(p, marginals=True, cost=True, tols=("dual", "support"))
    p.set_defaults(handler=_cmd_check_splitting)

    p = sub.add_parser("twist-count", help="gradient-cluster multiplicity")
    _add_common(p, marginals=True, cost=True, tols=("dual", "grad"))
    p.set_defaults(handler=_cmd_twist_count)

    p = sub.add_parser("signature", help="off-diagonal Hessian signatures")
    _add_common(p, cost=True, sampled=True)
    p.set_defaults(handler=_cmd_signature)

    p = sub.add_parser("criterion3", help="three-marginal product test")
    _add_common(p, cost=True, sampled=True)
    p.set_defaults(handler=_cmd_criterion3)

    p = sub.add_parser("extremal", help="vertex test for a coupling")
    _add_common(p, marginals=True, coupling=True)
    p.set_defaults(handler=_cmd_extremal)

    p = sub.add_parser("thm41", help="map hypotheses for extremality")
    _add_common(p, marginals=True)
    p.add_argument("--maps", required=True, metavar="FILE",
                   help='JSON {"maps": [{"H": {...}, "K": {...}}], "theta": {...}?}')
    p.set_defaults(handler=_cmd_thm41)

    p = sub.add_parser("witness", help="symmetric non-uniqueness witness")
    _add_common(p, marginals=True, coupling=True, fmt=True)
    p.add_argument("--cost", choices=tuple(BUILTIN_COSTS))
    p.add_argument("--s1", required=True, help="comma-separated axis-point indices")
    p.add_argument("--s2", required=True)
    p.add_argument("--s3", required=True)
    p.set_defaults(handler=_cmd_witness)

    p = sub.add_parser("repro", help="run a registered experiment")
    p.add_argument("name")
    p.add_argument("--grid-size", type=int, dest="grid_size")
    p.add_argument("--seed", type=int)
    _add_common(p)
    p.set_defaults(handler=_cmd_repro)

    # A report's spec is every flag its command registers (repro's handler
    # replaces it with the experiment's spec).
    for p in sub.choices.values():
        p.set_defaults(spec_keys=[a.dest for a in p._actions if a.dest not in _NOT_IN_SPEC])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    started = time.monotonic()
    try:
        report = args.handler(args)
        return _emit(args, report, time.monotonic() - started)
    except (TransportError, OSError, ValueError, KeyError) as exc:
        print(f"mmotlab: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
