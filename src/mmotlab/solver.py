"""Exact solution of the discrete multi-marginal Kantorovich LP.

The LP is solved by a two-phase revised primal simplex.  Entering column:
most negative reduced cost, ties within a relative 1e-12 going to the lowest
column index, falling back to Bland's lowest-index rule during degenerate
stalls so cycling is impossible; leaving row: minimum ratio, ties broken by
lowest basic column index.  One constraint row per axis point, the
redundant last point of the last axis excepted; +inf cells are removed
before the matrix is built.  Rows never change after that: phase 2 holds each
artificial that phase 1 left basic at zero, and one that an entering column
would move leaves at step 0.  The method returns a vertex plan together with
optimal dual potentials.

The constraint matrix is never formed: one integer table holds the row of
every finite cell on every axis.  Columns are gathered from it, and the
reduced costs of all cells are priced through ``_potential_sum`` on it.
The basis matrix starts as the identity of the all-artificial basis; each
pivot writes its entering column into it, and phase 2 continues from the
matrix and the inverse that phase 1 left.  The simplex keeps the explicit
basis inverse.  Each pivot replaces the leaving row by a rank-one update,
and every ``_REFACTOR`` pivots the inverse is computed afresh from the
basis matrix.  At optimality the inverse is recomputed and the basis
re-priced, so the returned basic values and duals carry no update drift.
The entering tie tolerance keeps the pivot path a property of the LP rather
than of the last bits of that arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    CostModel,
    Coupling,
    DualPotentials,
    InfeasibleTransportError,
    InternalConsistencyError,
    InvalidCertificateError,
    ProductSpace,
    _potential_sum,
    _splitting_slack,
    cost_tensor,
)

#: absolute dual-feasibility tolerance, scaled by (1 + |c|) for large costs
TOL_DUAL = 1e-9
_TOL_PIVOT = 1e-10
_MAX_ITER = 500_000
_BLAND_STREAK = 30
#: pivots between fresh basis inverses; the pivots in between update it
_REFACTOR = 64


@dataclass(frozen=True)
class SolveResult:
    """An optimal plan with its certifying duals.

    ``primal_value - dual_value`` is guaranteed to be at most
    ``1e-9 * (1 + |primal_value|)``; the plan reproduces the marginals
    within 1e-12.
    """

    plan: Coupling
    duals: DualPotentials
    primal_value: float
    dual_value: float
    iterations: int


class _Lp:
    """Workspace for one solve: rows, finite cells, and the simplex state."""

    def __init__(self, model: CostModel, space: ProductSpace):
        self.values = cost_tensor(model, space)
        self.cells = np.argwhere(np.isfinite(self.values))  # (ncells, n), lexicographic
        if self.cells.size == 0:
            raise self.infeasible("every grid cell has infinite cost")
        self.costs = self.values[tuple(self.cells.T)]
        self.weights = np.concatenate([ax.weights for ax in space.axes])
        self.pivots = 0

        # Point p of axis a is row offsets[a] + p; the last point of the last
        # axis is the sentinel row m, whose equation the others imply.
        # cell_rows[a, j] is the row of cell j's axis-a point.
        self.offsets = np.cumsum((0, *space.shape[:-1]))
        self.m = len(self.weights) - 1
        self.b = self.weights[:-1]
        self.cell_rows = (self.cells + self.offsets).T

        # Simplex state, kept across both phases.  Column ncells + r is the
        # artificial unit column of row r; the start basis is all artificial.
        self.basis = [len(self.cells) + r for r in range(self.m)]
        self.in_basis = np.zeros(len(self.cells), dtype=bool)
        self.B = np.eye(self.m)
        self.B_inv = np.eye(self.m)

    def infeasible(self, message: str) -> InfeasibleTransportError:
        """The error to raise, certified by the grid's +inf cells."""
        excluded = np.argwhere(~np.isfinite(self.values)).tolist()
        return InfeasibleTransportError(message, excluded_cells=map(tuple, excluded))

    def column(self, j: int) -> np.ndarray:
        col = np.zeros(self.m + 1)
        col[self.cell_rows[:, j]] = 1.0
        return col[:-1]


def _inverse(B: np.ndarray) -> np.ndarray:
    """Inverse of the basis matrix; a singular basis is an internal fault."""
    try:
        return np.linalg.inv(B)
    except np.linalg.LinAlgError as exc:
        raise InternalConsistencyError(f"singular basis matrix ({exc})") from None


def _simplex(lp: _Lp, costs: np.ndarray, art_cost: float) -> tuple[np.ndarray, np.ndarray]:
    """Pivot to optimality; returns the final basic values and row duals.

    The basis state of ``lp`` is updated in place, and the fresh inverse is
    stored before returning.  Entering column: most negative reduced
    cost, the lowest index among those within ``1e-12 * (1 + |min|)`` of
    it, with Bland's lowest index after ``_BLAND_STREAK`` degenerate pivots
    in a row; leaving row: minimum ratio, ties to the lowest basic column
    index.  The basis inverse gets a rank-one update per pivot and is
    recomputed every ``_REFACTOR`` pivots and before optimality is accepted.
    In phase 2 (``art_cost == 0``) basic artificials are held at zero.
    """
    ncells = len(lp.cells)
    basis, in_basis, B, B_inv = lp.basis, lp.in_basis, lp.B, lp.B_inv
    updates = 0
    c_b = np.array([costs[v] if v < ncells else art_cost for v in basis])
    held = [r for r, v in enumerate(basis) if v >= ncells] if art_cost == 0 else []

    # Entering rule: steepest (most negative reduced cost) while progress is
    # being made; a streak of degenerate pivots switches to Bland's
    # lowest-index rule, which provably cannot cycle, until a pivot with a
    # positive step restores the fast rule.
    degenerate_streak = 0
    while True:
        if lp.pivots >= _MAX_ITER:
            raise InternalConsistencyError("simplex iteration budget exhausted")
        x_b = B_inv @ lp.b
        y = c_b @ B_inv
        padded = np.append(y, 0.0)  # the sentinel row contributes 0
        rc = costs - _potential_sum([padded] * len(lp.cell_rows), lp.cell_rows)
        candidates = np.flatnonzero((rc < -_TOL_PIVOT) & ~in_basis)
        if candidates.size == 0:
            if updates == 0:
                lp.B_inv = B_inv
                return x_b, y
            B_inv, updates = _inverse(B), 0  # re-price without update drift
            continue
        if degenerate_streak < _BLAND_STREAK:
            rc_c = rc[candidates]
            low = rc_c.min()
            e = int(candidates[np.argmax(rc_c <= low + 1e-12 * (1.0 + abs(low)))])
        else:
            e = int(candidates[0])  # Bland: lowest index
        col = lp.column(e)
        d = B_inv @ col
        moved = [r for r in held if abs(d[r]) > _TOL_PIVOT]
        if moved:
            leave, t = moved[0], 0.0
        else:
            pos = np.flatnonzero(d > _TOL_PIVOT)
            if pos.size == 0:
                raise InternalConsistencyError(
                    "unbounded direction in a bounded transport LP"
                )
            ratios = np.maximum(x_b[pos], 0.0) / d[pos]
            t = ratios.min()
            tie_rows = pos[ratios <= t + 1e-12 * (1.0 + abs(t))]
            leave = min(tie_rows, key=lambda r: basis[r])  # Bland on ties
        if basis[leave] < ncells:
            in_basis[basis[leave]] = False
        elif leave in held:
            held.remove(leave)
        basis[leave] = e
        in_basis[e] = True
        B[:, leave] = col
        c_b[leave] = costs[e]
        if updates + 1 >= _REFACTOR:
            B_inv, updates = _inverse(B), 0
        else:
            pivot_row = B_inv[leave] / d[leave]
            B_inv -= np.outer(d, pivot_row)
            B_inv[leave] = pivot_row
            updates += 1
        degenerate_streak = 0 if t > _TOL_PIVOT else degenerate_streak + 1
        lp.pivots += 1


def solve_exact(model: CostModel, space: ProductSpace, tol_dual: float = TOL_DUAL) -> SolveResult:
    """Minimize the transport cost over couplings of the space's marginals.

    Returns a vertex plan, dual potentials tight on its support, and the
    primal/dual objective values.  Raises ``InfeasibleTransportError`` (with
    the excluded +inf cells as certificate) when no finite-cost coupling
    matches the marginals.
    """
    lp = _Lp(model, space)
    ncells = len(lp.cells)

    # Phase 1: artificial start.
    x_b, _ = _simplex(lp, np.zeros(ncells), 1.0)
    infeas = math.fsum(x for v, x in zip(lp.basis, x_b) if v >= ncells and x > 0)
    if infeas > 1e-9:
        raise lp.infeasible(f"no finite-cost coupling matches the marginals "
                            f"(phase-1 residual {infeas:.3e})")

    # Phase 2: optimize the true cost; plan and duals come from its last basis.
    x_b, y = _simplex(lp, lp.costs, 0.0)
    residual = max((x for v, x in zip(lp.basis, x_b) if v >= ncells), default=0.0)
    if residual > 1e-12:
        raise InternalConsistencyError(f"basic artificial at {residual:.3e} after phase 2")

    plan = Coupling({tuple(lp.cells[v].tolist()): float(x)
                     for v, x in zip(lp.basis, x_b) if v < ncells and x > 1e-14}, space)
    duals = DualPotentials(np.split(np.append(y, 0.0), lp.offsets[1:]))

    primal = plan.transport_cost(model)
    dual = _dual_value(duals, space)
    _check_result(model, space, plan, duals, primal, dual, tol_dual)
    return SolveResult(plan, duals, primal, dual, lp.pivots)


def _dual_value(duals: DualPotentials, space: ProductSpace) -> float:
    """sum_i sum_x u_i(x) mu_i(x) over the positive-weight points, each sum an fsum.

    Zero-weight points are skipped, so a -inf potential there adds nothing.
    """
    return math.fsum(
        math.fsum(u * w for u, w in zip(pot.tolist(), ax.weights.tolist()) if w > 0)
        for pot, ax in zip(duals.values, space.axes)
    )


def _feasible_slack(model, space, duals, tol_dual):
    """The grid and the slack c - sum u on it; raises ``InvalidCertificateError``
    unless max(sum u - c) over the finite cells is at most tol_dual * (1 + max|c|)."""
    values, slack = _splitting_slack(model, space, duals.values)
    worst = -slack.min()  # max(sum u - c) over the finite cells, bit for bit
    scale = np.max(np.abs(values), where=np.isfinite(values), initial=0.0)
    if worst > tol_dual * (1.0 + scale):
        raise InvalidCertificateError(f"splitting inequality violated by {worst:.3e}")
    return values, slack


def _check_result(model, space, plan, duals, primal, dual, tol_dual):
    gap = primal - dual
    if not (-tol_dual <= gap <= tol_dual * (1.0 + abs(primal))):
        raise InternalConsistencyError(f"duality gap {gap:.3e} out of tolerance")
    for a in range(space.n):
        err = np.max(np.abs(plan.marginal(a) - space.axes[a].weights))
        if err > 1e-12:
            raise InternalConsistencyError(f"axis-{a} marginal off by {err:.3e}")
    bound = sum(space.shape) - space.n + 1
    if len(plan.entries) > bound:
        raise InternalConsistencyError(
            f"support size {len(plan.entries)} exceeds the vertex bound {bound}"
        )
    values, slack = _feasible_slack(model, space, duals, tol_dual)
    for idx in plan.entries:
        cost, defect = float(values[idx]), float(slack[idx])
        if abs(defect) > tol_dual * (1.0 + abs(cost)):
            raise InternalConsistencyError(
                f"support cell {idx} is not tight: c={cost!r}, c - sum u={defect!r}"
            )


class ConjugateUpdate(NamedTuple):
    """Result of one c-conjugate refresh of a single potential vector.

    ``values[k]`` is +inf exactly when every competing grid value is +inf;
    those axis points are listed in ``undefined``.
    """

    values: np.ndarray
    undefined: list[int]


def c_conjugate_update(
    model: CostModel,
    space: ProductSpace,
    potentials: DualPotentials,
    i: int,
) -> ConjugateUpdate:
    """Pointwise infimum of c minus the other potentials, over the grid.

    Computes ``u_i(x_i) = min over the other axes of
    c(x_1, ..., x_n) - sum_{j != i} u_j(x_j)``.
    """
    if not 0 <= i < space.n:
        raise ValueError(f"axis index {i} out of range")
    others = [np.zeros(space.shape[i]) if j == i else u for j, u in enumerate(potentials.values)]
    _, slack = _splitting_slack(model, space, others)
    mins = np.min(slack, axis=tuple(a for a in range(space.n) if a != i))
    undefined = [int(k) for k in np.flatnonzero(~np.isfinite(mins))]
    return ConjugateUpdate(mins, undefined)


def duality_gap(
    model: CostModel,
    plan: Coupling,
    duals: DualPotentials,
    tol_dual: float = TOL_DUAL,
) -> float:
    """Primal cost of the plan minus the dual value of the potentials.

    Raises ``InvalidCertificateError`` when the potentials violate the
    splitting inequality on some finite-cost cell.
    """
    _feasible_slack(model, plan.space, duals, tol_dual)
    return plan.transport_cost(model) - _dual_value(duals, plan.space)
