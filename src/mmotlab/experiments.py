"""Reproduction experiments for the library's closed-form test instances.

Each experiment builds a small instance, runs the relevant pipeline, and
returns a JSON-serializable report whose ``assertions`` list carries one
pass/fail record per claim being reproduced.
"""

from __future__ import annotations

import inspect
import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import diff, extremal, structure
from .core import (
    Coulomb1D,
    Coupling,
    DiscreteMarginal,
    ExpCos,
    ProductSpace,
    ProductXYZ,
    TwoWell,
)
from .solver import solve_exact


@dataclass(frozen=True)
class ExperimentSpec:
    """A registered experiment: its name and fully resolved parameters."""

    name: str
    description: str
    params: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "description": self.description,
            "params": dict(self.params),
        }


def assertion(name: str, passed: bool, detail="") -> dict:
    """One pass/fail record of a report's ``assertions`` list."""
    return {"name": name, "passed": bool(passed), "detail": detail}


# ---------------------------------------------------------------------------
# Instance builders
# ---------------------------------------------------------------------------

def coulomb_equal_space(grid_size: int) -> ProductSpace:
    """Three equal uniform marginals on an evenly spaced grid in [0, 1]."""
    pts = np.linspace(0.0, 1.0, grid_size)
    weights = np.full(grid_size, 1.0 / grid_size)
    marginal = DiscreteMarginal(pts, weights)
    return ProductSpace([marginal, marginal, marginal])


def coulomb_perturbed_space(grid_size: int, seed: int) -> ProductSpace:
    """Same even grid, sloped weights 1 + j/N with seeded per-axis jitter."""
    rng = np.random.default_rng(seed)
    pts = np.linspace(0.0, 1.0, grid_size)
    base = 1.0 + np.arange(grid_size) / grid_size
    axes = []
    for _ in range(3):
        w = base * rng.uniform(0.9, 1.1, size=grid_size)
        axes.append(DiscreteMarginal(pts, w / w.sum()))
    return ProductSpace(axes)


def xyz_symmetric_space(m_half: int) -> ProductSpace:
    """The symmetric grid {±(j - 1/2)/M} with weights 1/(3M) and 2/(3M).

    Midpoint discretization of the density (1/3) on [-1, 0] plus (2/3) on
    [0, 1]; all three axes identical.
    """
    pos = (np.arange(1, m_half + 1) - 0.5) / m_half
    pts = np.concatenate([-pos[::-1], pos])
    weights = np.where(pts < 0, 1.0 / (3 * m_half), 2.0 / (3 * m_half))
    marginal = DiscreteMarginal(pts, weights)
    return ProductSpace([marginal, marginal, marginal])


def twowell_space(steps: int = 20) -> ProductSpace:
    """Grid step 1/steps on [0, 1] for x and y, third axis reaching 3/2.

    The third marginal is the equal mixture of the first marginal and its
    shift by 1/2, so the two zero-cost graphs support a feasible plan.
    """
    if steps % 2 != 0:
        raise ValueError("steps must be even so the 1/2 shift lands on the grid")
    n1 = steps + 1
    pts1 = np.arange(n1) / steps
    w1 = np.full(n1, 1.0 / n1)
    shift = steps // 2
    n3 = n1 + shift
    pts3 = np.arange(n3) / steps
    w3 = np.zeros(n3)
    w3[:n1] += 0.5 * w1
    w3[shift:shift + n1] += 0.5 * w1
    axis1 = DiscreteMarginal(pts1, w1)
    axis3 = DiscreteMarginal(pts3, w3)
    return ProductSpace([axis1, axis1, axis3])


def six_cell_symmetric_plan() -> tuple[Coupling, ProductSpace]:
    """Mass 1/6 on every permutation of three distinct points."""
    marginal = DiscreteMarginal([0.0, 1.0, 2.0], [1 / 3, 1 / 3, 1 / 3])
    space = ProductSpace([marginal, marginal, marginal])
    entries = {perm: 1.0 / 6.0 for perm in itertools.permutations((0, 1, 2))}
    return Coupling(entries, space), space


def symmetrized_plan(plan: Coupling) -> Coupling:
    """Average of ``plan.permuted(sigma)`` over every axis permutation sigma.

    All axes must be identical; ``Coupling.permuted`` raises ``ValueError``
    otherwise.  For a symmetric cost the result costs the same as ``plan``,
    so it is optimal whenever ``plan`` is.
    """
    perms = list(itertools.permutations(range(plan.space.n)))
    entries: dict[tuple[int, ...], float] = {}
    for sigma in perms:
        for cell, m in plan.permuted(sigma).entries.items():
            entries[cell] = entries.get(cell, 0.0) + m
    return Coupling({c: m / len(perms) for c, m in entries.items()}, plan.space)


# ---------------------------------------------------------------------------
# Experiment runners
# ---------------------------------------------------------------------------

def run_coulomb_equal(grid_size: int = 15) -> dict:
    space = coulomb_equal_space(grid_size)
    result = solve_exact(Coulomb1D(), space)
    decomp = structure.decompose_graphs(result.plan)
    gap = result.primal_value - result.dual_value
    tol = 1e-9 * (1.0 + abs(result.primal_value))
    # The solver returns a vertex of the optimal face; the two-graph claim is
    # about the face's permutation-symmetric centre, which is not a vertex.
    sym = symmetrized_plan(result.plan)
    sym_k = structure.decompose_graphs(sym).k
    sym_dev = abs(sym.transport_cost(Coulomb1D()) - result.primal_value)
    assertions = [
        assertion("graph_count_equals_2", sym_k == 2, f"symmetric k={sym_k}"),
        assertion("graph_count_at_most_4", decomp.k <= 4, f"k={decomp.k}"),
        assertion("duality_gap", gap <= tol, f"gap={gap:.3e}"),
        assertion("symmetric_plan_optimal", sym_dev <= tol, f"dev={sym_dev:.3e}"),
        assertion(
            "symmetric_plan_not_vertex", not extremal.is_vertex(sym).is_extremal
        ),
    ]
    return {
        "assertions": assertions,
        "payload": {
            "optimal_value": result.primal_value,
            "graph_count": decomp.k,
            "symmetric_graph_count": sym_k,
            "support_size": len(result.plan.entries),
            "iterations": result.iterations,
        },
    }


def _coulomb_twist_report(space: ProductSpace) -> tuple[dict, int, bool]:
    model = Coulomb1D()  # one instance, so the analyses reuse the solve's grid
    result = solve_exact(model, space)
    split = structure.splitting_support(model, space, result.duals)
    twist = structure.twist_multiplicity(model, split, space)
    region_unique = all(
        len({structure.region_of(space.point(c)) for c in cl.cells}) == len(cl.cells)
        for cl in twist.clusters
    )
    payload = {
        "optimal_value": result.primal_value,
        "splitting_cells": len(split.cells),
        "max_multiplicity": twist.max_multiplicity,
        "region_unique": region_unique,
    }
    return payload, twist.max_multiplicity, region_unique


def run_coulomb_unequal(grid_size: int = 8, seed: int = 0) -> dict:
    space = coulomb_perturbed_space(grid_size, seed)
    payload, max_mult, region_unique = _coulomb_twist_report(space)
    assertions = [
        assertion("multiplicity_at_most_4", max_mult <= 4, f"m={max_mult}"),
        assertion("one_cell_per_order_region", region_unique),
    ]
    return {"assertions": assertions, "payload": payload}


def run_coulomb_sharpness_search(
    grid_size: int = 7, trials: int = 5, seed: int = 0
) -> dict:
    rng = np.random.default_rng(seed)
    pts = np.linspace(0.0, 1.0, grid_size)
    ks = []
    for _ in range(trials):
        axes = []
        for _ in range(3):
            w = rng.integers(1, 10, size=grid_size).astype(float)
            axes.append(DiscreteMarginal(pts, w / w.sum()))
        space = ProductSpace(axes)
        result = solve_exact(Coulomb1D(), space)
        ks.append(structure.decompose_graphs(result.plan).k)
    # Whether any marginals force k above the twist bound is open; the
    # search only records what it sees.
    assertions = [
        assertion("search_completed", len(ks) == trials, f"{len(ks)} trials"),
    ]
    return {
        "assertions": assertions,
        "payload": {"graph_counts": ks, "max_graph_count": max(ks, default=0)},
    }


def run_xyz_unique(m_half: int = 10) -> dict:
    space = xyz_symmetric_space(m_half)
    pts = space.axes[0].points[:, 0]
    index_of = {round(float(p), 12): i for i, p in enumerate(pts)}
    result = solve_exact(ProductXYZ(), space)

    allowed = {cell for i, x in enumerate(pts) for cell in (
        (i, index_of[round(-x, 12)], index_of[round(abs(x), 12)]),
        (i, index_of[round(x, 12)], index_of[round(-abs(x), 12)]),
    )}
    support_ok = all(c in allowed for c in result.plan.support(1e-10))

    decomp = structure.decompose_graphs(result.plan)
    alpha_ok = True
    for i, x in enumerate(pts):
        branches = decomp.branches[i]
        alphas = sorted(br.alpha for br in branches)
        if x > 0:
            ok = len(alphas) == 2 and all(abs(a - 0.5) <= 1e-9 for a in alphas)
        else:
            ok = len(alphas) == 1 and abs(alphas[0] - 1.0) <= 1e-9
        alpha_ok = alpha_ok and ok

    weights = space.axes[0].weights
    expected_value = -float(np.sum(weights * np.abs(pts) ** 3))
    value_ok = abs(result.primal_value - expected_value) <= 1e-9

    assertions = [
        assertion("support_on_the_two_graphs", support_ok),
        assertion("alpha_half_half_positive_one_zero_negative", alpha_ok),
        assertion(
            "optimal_value_matches_cubic_bound",
            value_ok,
            f"value={result.primal_value!r} expected={expected_value!r}",
        ),
    ]
    return {
        "assertions": assertions,
        "payload": {
            "optimal_value": result.primal_value,
            "expected_value": expected_value,
            "graph_count": decomp.k,
        },
    }


def run_twowell_extremal(steps: int = 20) -> dict:
    space = twowell_space(steps)
    shift = steps // 2
    result = solve_exact(TwoWell(), space)

    support_ok = all(
        j == i and (k == i or k == i + shift)
        for i, j, k in result.plan.support(1e-10)
    )

    n1 = steps + 1
    identity = {i: i for i in range(n1)}
    maps = [
        (identity, {i: i for i in range(n1)}),
        (identity, {i: i + shift for i in range(n1)}),
    ]
    theta = {k: -float(space.axes[2].points[k, 0]) for k in range(space.shape[2])}
    with_theta = extremal.check_thm41(space, maps, theta=theta)
    searched = extremal.check_thm41(space, maps)
    cert = extremal.is_vertex(result.plan)

    assertions = [
        assertion("support_on_the_two_graphs", support_ok),
        assertion(
            "map_hypotheses_with_given_theta",
            with_theta.hypothesis_i and with_theta.hypothesis_ii and with_theta.hypothesis_iii,
            str(with_theta.failures),
        ),
        assertion("theta_search_succeeds", searched.hypothesis_iii),
        assertion("plan_is_extremal", cert.is_extremal),
        assertion(
            "optimal_value_zero",
            abs(result.primal_value) <= 1e-9,
            f"value={result.primal_value!r}",
        ),
    ]
    return {
        "assertions": assertions,
        "payload": {
            "optimal_value": result.primal_value,
            "support_size": len(result.plan.entries),
        },
    }


def run_expcos_signature(samples: int = 20, seed: int = 7) -> dict:
    rng = np.random.default_rng(seed)
    model = ExpCos()
    signatures = []
    product_ok = True
    for _ in range(samples):
        coords = rng.uniform(-1.0, 1.0, size=6)
        point = (coords[0:2], coords[2:4], coords[4:6])
        sig = diff.signature(diff.hessian_offdiag(model, point).assembled)
        signatures.append(list(sig.triple))
        report = diff.three_marginal_criterion(model, point)
        error = np.max(np.abs(report.product + math.exp(2.0 * coords[0]) * np.eye(2)))
        product_ok = product_ok and error <= 1e-8 and report.negative_definite
    assertions = [
        assertion("signature_4_2_0_at_all_samples", all(s == [4, 2, 0] for s in signatures)),
        assertion("product_is_minus_exp_identity", product_ok),
    ]
    return {
        "assertions": assertions,
        "payload": {"signatures": signatures},
    }


def run_symmetric_witness() -> dict:
    plan, space = six_cell_symmetric_plan()
    model = Coulomb1D()
    witness = extremal.symmetry_witness(plan, [0], [1], [2], model=model)
    cyclic = {(0, 1, 2), (2, 0, 1), (1, 2, 0)}
    masses_ok = all(
        abs(m - (5.0 / 36.0 if cell in cyclic else 7.0 / 36.0)) <= 1e-12
        for cell, m in witness.entries.items()
    )
    marg_dev = max(
        float(np.max(np.abs(witness.marginal(a) - plan.marginal(a)))) for a in range(3)
    )
    cost_dev = abs(witness.transport_cost(model) - plan.transport_cost(model))
    tv = plan.tv_distance(witness)
    assertions = [
        assertion("cell_masses_7_36_and_5_36", masses_ok),
        assertion("marginals_preserved", marg_dev <= 1e-12, f"dev={marg_dev:.3e}"),
        assertion("cost_preserved", cost_dev <= 1e-12, f"dev={cost_dev:.3e}"),
        assertion("tv_distance_at_least_1_18", tv >= 1.0 / 18.0 - 1e-12, f"tv={tv!r}"),
    ]
    return {
        "assertions": assertions,
        "payload": {"tv_distance": tv, "witness_cells": len(witness.entries)},
    }


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

#: name -> (description, runner); the runner's keyword defaults are the params
_REGISTRY = {
    "coulomb-equal": (
        "Equal uniform marginals, pairwise-repulsion cost: two graphs",
        run_coulomb_equal,
    ),
    "coulomb-unequal": (
        "Sloped, jittered marginals: gradient multiplicity at most 4",
        run_coulomb_unequal,
    ),
    "coulomb-sharpness-search": (
        "Random marginals, record the largest observed graph count",
        run_coulomb_sharpness_search,
    ),
    "xyz-unique": (
        "Product cost on the signed symmetric grid: unique two-graph plan",
        run_xyz_unique,
    ),
    "twowell-extremal": (
        "Two-well cost: zero-cost graphs, map hypotheses, extremality",
        run_twowell_extremal,
    ),
    "expcos-signature": (
        "Exponential-cosine cost: signature (4,2,0) and product test",
        run_expcos_signature,
    ),
    "symmetric-witness": (
        "Six-cell symmetric plan: second optimizer with masses 7/36, 5/36",
        run_symmetric_witness,
    ),
}


def _spec(name: str) -> ExperimentSpec:
    description, runner = _REGISTRY[name]
    params = {k: p.default for k, p in inspect.signature(runner).parameters.items()}
    return ExperimentSpec(name, description, params)


def experiment_registry() -> list[ExperimentSpec]:
    """All registered experiment specs, in registration order."""
    return [_spec(name) for name in _REGISTRY]


def run_experiment(name: str, **overrides) -> dict:
    """Run a registered experiment; unknown names raise ``KeyError``."""
    if name not in _REGISTRY:
        raise KeyError(
            f"unknown experiment {name!r}; registered: {sorted(_REGISTRY)}"
        )
    spec = _spec(name)
    params = {**spec.params, **{k: v for k, v in overrides.items() if v is not None}}
    report = _REGISTRY[name][1](**params)
    report["name"] = name
    report["spec"] = replace(spec, params=params).to_dict()
    return report
