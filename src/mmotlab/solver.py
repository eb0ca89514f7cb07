"""Exact solution of the discrete multi-marginal Kantorovich LP.

A two-phase revised primal simplex returns a vertex plan together with
optimal dual potentials; ``_simplex`` states its entering and leaving rules.
There is one constraint row per axis point and the rows never change: the
n - 1 redundant ones keep basic artificials, which phase 2 holds at zero.
The constraint matrix is never formed.  Column j is cell j of the cost grid
in C order; its rows follow from j by a divmod over the grid shape, and a
+inf cell prices at +inf, so it never enters.  Each pricing pass sums the
row duals over the whole grid with ``_potential_sum``, one exact outer-sum
matmul per axis, into buffers allocated once per solve.  The simplex starts
from a greedy row-minimum basis (``_Lp.crash``), so phase 1 only clears the
weight the greedy could not place, and stops as soon as it is cleared.
Both phases share one basis matrix and its explicit inverse, which a
rank-one step updates per pivot and which is recomputed every ``_REFACTOR``
pivots and at optimality, so the returned values and duals carry no update
drift.
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
    IterationBudgetError,
    ProductSpace,
    _admissible_slack,
    _splitting_slack,
    cost_tensor,
)

#: relative dual tolerance: the duality gap and the splitting slack are
#: checked against TOL_DUAL * (1 + max|c|) over the finite cells
#: (``core._admissible_slack``)
TOL_DUAL = 1e-9
_TOL_PIVOT = 1e-10
_MAX_ITER = 500_000
_BLAND_STREAK = 30
#: pivots between fresh basis inverses; the pivots in between update it
_REFACTOR = 64
#: the largest float below -_TOL_PIVOT: ``rc <= _BELOW_TOL`` is ``rc < -_TOL_PIVOT``
_BELOW_TOL = float(np.nextafter(-_TOL_PIVOT, -math.inf))


@dataclass(frozen=True)
class SolveResult:
    """An optimal plan with its certifying duals.

    For the ``tol_dual`` of the solve (``TOL_DUAL`` by default) and the
    bound tol_dual * (1 + max|c|) over the finite cells,
    ``|primal_value - dual_value|`` is at most the bound, the duals exceed the
    cost by at most the bound on every finite cell and are within it of the
    cost on the plan's support.  The plan reproduces the marginals within
    1e-12.
    """

    plan: Coupling
    duals: DualPotentials
    primal_value: float
    dual_value: float
    iterations: int


#: the running sum before the first axis, as the row [s, 1] with s = 0.0
_NO_AXIS = np.array([[0.0, 1.0]])
_NO_AXIS.setflags(write=False)


def _sum_steps(terms: np.ndarray, shape: tuple[int, ...]) -> list[tuple]:
    """The operands of ``_potential_sum`` on a grid of ``shape``, allocated once.

    ``terms`` is a (2, sum(shape)) array whose row 0 holds ones and row 1 the
    potentials, axis after axis; every run reads row 1 as it is then.  Step a
    reads [s, 1], the running sum over the P cells of the axes before a, from
    the level the step before wrote, a (2, P) array whose row 1 holds ones,
    and writes the sum over the axes up to a into row 0 of its own level.
    The last step writes the grid, as a (P, N_last) array.
    """
    steps, lhs, o = [], _NO_AXIS, 0
    for k in shape[:-1]:
        level = np.ones((2, lhs.shape[0] * k))
        steps.append((lhs, terms[:, o:o + k], level[0].reshape(-1, k)))
        lhs, o = level.T, o + k
    steps.append((lhs, terms[:, o:], np.empty((lhs.shape[0], shape[-1]))))
    return steps


def _potential_sum(steps: list[tuple]) -> np.ndarray:
    """sum_a u_a over the grid, in the buffers of ``_sum_steps``; returns the last.

    Each step adds axis a to the running sum s as the outer sum
    [s, 1] @ [1; u_a], one matmul over the whole level.  Both products are
    exact, so each cell is s + u_a rounded once, in whatever order the matmul
    adds them (s is never -0.0, so a zero accumulator changes no bit).  That
    gives the bits of ``core._grid_sum``'s ((0.0 + u_0) + u_1) + ...  The
    simplex's duals are finite; a -inf potential may set numpy's invalid flag
    (0 * -inf in lanes no cell is read from) without changing a value.
    """
    for lhs, rhs, out in steps:
        np.matmul(lhs, rhs, out=out)
    return out


class _Lp:
    """Workspace for one solve: rows, columns, pricing buffers and the simplex state.

    Column j < ``size`` is grid cell j in C order (``np.argwhere``'s order),
    column ``size + r`` the artificial of row r.  Point p of axis a is row
    ``offsets[a] + p``, for all sum(shape) axis points.  Only ``column``,
    ``price`` and ``crash`` know this layout.  ``price`` copies the row duals
    into row 1 of ``terms``, [1; y], which ``_potential_sum`` adds over the
    grid; the operands of its steps are fixed here, and its last level is
    ``rc``, the reduced costs, so a pricing pass allocates nothing.
    """

    def __init__(self, model: CostModel, space: ProductSpace):
        self.values = cost_tensor(model, space)
        self.costs = self.values.ravel()
        if not np.isfinite(self.costs).any():
            raise self.infeasible("every grid cell has infinite cost")
        self.shape, self.size, self.pivots = space.shape, self.costs.size, 0
        self.offsets = np.cumsum((0, *space.shape[:-1]))
        self.b = np.concatenate([ax.weights for ax in space.axes])
        self.m = len(self.b)
        self.terms = np.ones((2, self.m))
        self.steps = _sum_steps(self.terms, self.shape)
        self.rc = self.steps[-1][2].reshape(-1)
        # Simplex state, kept across both phases, from the all-artificial basis.
        self.basis = [self.size + r for r in range(self.m)]
        self.in_basis = np.zeros(self.size, dtype=bool)
        self.B, self.B_inv = np.eye(self.m), np.eye(self.m)

    def infeasible(self, message: str) -> InfeasibleTransportError:
        """The error to raise, certified by the grid's +inf cells."""
        excluded = np.argwhere(~np.isfinite(self.values)).tolist()
        return InfeasibleTransportError(message, excluded_cells=map(tuple, excluded))

    def column(self, j: int) -> np.ndarray:
        col = np.zeros(self.m)
        for o, k in zip(self.offsets[::-1].tolist(), self.shape[::-1]):
            j, p = divmod(j, k)
            col[o + p] = 1.0
        return col

    def price(self, costs: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Reduced costs of every grid column for row duals ``y``, 0 on basic ones."""
        np.copyto(self.terms[1], y)
        _potential_sum(self.steps)  # into rc
        np.subtract(costs, self.rc, out=self.rc)
        np.copyto(self.rc, 0.0, where=self.in_basis)
        return self.rc

    def crash(self) -> None:
        """Replace artificials by a greedy row-minimum basis, before phase 1.

        Each first-axis point in turn takes the cheapest open cell of its slab
        (first index on ties) at t, the smallest residual weight among the
        cell's points, until no finite cell of its slab is open.  Each
        placement closes one point, the first axis's whose residual is now 0:
        its slab turns +inf and the cell takes its row.  No later cell meets
        a closed row, so B is unit triangular up to order; the cells hold the
        placed masses and each artificial its row's residual, all >= 0.
        Weight that found no finite cell is left to phase 1.  Each slab is
        copied in turn: the points closed on the later axes are masked out of
        it, and closing its own point ends it.
        """
        residual = self.b.copy()
        closed = [np.zeros(k, dtype=bool) for k in self.shape[1:]]
        for p in range(self.shape[0]):
            slab = self.values[p].copy()
            for a, mask in enumerate(closed):
                slab[(slice(None),) * a + (mask,)] = math.inf
            while slab.flat[cell := int(slab.argmin())] < math.inf:
                j = p * slab.size + cell
                idx = np.unravel_index(j, self.shape)
                rows = self.offsets + idx
                residual[rows] -= residual[rows].min()
                a = int(np.argmax(residual[rows] == 0.0))
                r = int(rows[a])
                self.basis[r], self.in_basis[j] = j, True
                self.B[:, r] = self.column(j)
                if a == 0:
                    break
                closed[a - 1][idx[a]] = True
                slab[(slice(None),) * (a - 1) + (idx[a],)] = math.inf
        self.B_inv = _inverse(self.B)


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
    index.  The tie tolerance keeps the pivot path a property of the LP, not
    of the last bits of the rank-one updates.  Phase 1 (``art_cost > 0``)
    stops as soon as the basic artificials sum to at most 1e-12, its lower
    bound 0 up to rounding, even with negative reduced costs left.  In phase 2
    (``art_cost == 0``) basic artificials are held at zero, and one that would
    move leaves at step 0 while more than n - 1 are held.  The constraint
    matrix has rank sum(N) - n + 1, so with n - 1 artificials left the
    structural basic columns span its column space: d is 0 on their rows,
    a nonzero there is rounding, and letting one leave makes B singular.
    """
    size = lp.size
    basis, in_basis, B, B_inv = lp.basis, lp.in_basis, lp.B, lp.B_inv
    updates = 0
    c_b = np.array([costs[v] if v < size else art_cost for v in basis])
    held = [r for r, v in enumerate(basis) if v >= size] if art_cost == 0 else []

    # Entering rule: steepest (most negative reduced cost) while progress is
    # being made; a streak of degenerate pivots switches to Bland's
    # lowest-index rule, which provably cannot cycle, until a pivot with a
    # positive step restores the fast rule.
    degenerate_streak = 0
    while True:
        if lp.pivots >= _MAX_ITER:
            raise IterationBudgetError(
                f"simplex iteration budget exhausted after {lp.pivots} pivots", lp.pivots)
        x_b = B_inv @ lp.b
        y = c_b @ B_inv
        # phase 1 is over once its objective, the artificials' sum, meets its bound 0
        done = art_cost > 0 and c_b @ x_b <= 1e-12
        if not done:
            rc = lp.price(costs, y)
            low = rc.min()
            done = not low < -_TOL_PIVOT
        if done:
            if updates == 0:
                lp.B_inv = B_inv
                return x_b, y
            B_inv, updates = _inverse(B), 0  # re-price without update drift
            continue
        # the first column at or below the limit: Bland's is the candidates' bound itself
        limit = _BELOW_TOL if degenerate_streak >= _BLAND_STREAK else min(
            low + 1e-12 * (1.0 + abs(low)), _BELOW_TOL)
        e = int(np.argmax(rc <= limit))
        col = lp.column(e)
        d = B_inv @ col
        moved = [r for r in held if abs(d[r]) > _TOL_PIVOT] if len(held) > len(lp.shape) - 1 else []
        if moved:
            leave, t = moved[0], 0.0
        else:
            pos = np.flatnonzero(d > _TOL_PIVOT)
            if pos.size == 0:
                raise InternalConsistencyError("unbounded direction in a bounded transport LP")
            ratios = np.maximum(x_b[pos], 0.0) / d[pos]
            t = ratios.min()
            tie_rows = pos[ratios <= t + 1e-12 * (1.0 + abs(t))]
            leave = min(tie_rows, key=lambda r: basis[r])  # Bland on ties
        if basis[leave] < size:
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
    lp.crash()
    size = lp.size

    # Phase 1: clear what the crash left on artificials; +inf cells keep their +inf cost.
    x_b, _ = _simplex(lp, np.where(np.isfinite(lp.costs), 0.0, math.inf), 1.0)
    infeas = math.fsum(x for v, x in zip(lp.basis, x_b) if v >= size and x > 0)
    if infeas > 1e-9:
        raise lp.infeasible(f"no finite-cost coupling matches the marginals "
                            f"(phase-1 residual {infeas:.3e})")

    # Phase 2: optimize the true cost; plan and duals come from its last basis.
    x_b, y = _simplex(lp, lp.costs, 0.0)
    residual = max((x for v, x in zip(lp.basis, x_b) if v >= size), default=0.0)
    if residual > 1e-12:
        raise InternalConsistencyError(f"basic artificial at {residual:.3e} after phase 2")

    plan = Coupling({np.unravel_index(v, space.shape): float(x)
                     for v, x in zip(lp.basis, x_b) if v < size and x > 1e-14}, space)
    duals = DualPotentials(np.split(y, lp.offsets[1:]))

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


def _check_result(model, space, plan, duals, primal, dual, tol_dual):
    """Raise unless the plan and duals certify each other.

    The gap is read on the cost's scale, like the slack: the duals, and the
    rounding in the dual value, scale with max|c| even where the value is 0.
    """
    for a in range(space.n):
        err = np.max(np.abs(plan.marginal(a) - space.axes[a].weights))
        if err > 1e-12:
            raise InternalConsistencyError(f"axis-{a} marginal off by {err:.3e}")
    rank = sum(space.shape) - space.n + 1
    if len(plan.entries) > rank:
        raise InternalConsistencyError(
            f"support size {len(plan.entries)} exceeds the vertex bound {rank}"
        )
    values, slack, bound = _admissible_slack(model, space, duals.values, tol_dual)
    gap = primal - dual
    if not abs(gap) <= bound:
        raise InternalConsistencyError(f"duality gap {gap:.3e} out of tolerance")
    for idx in plan.entries:
        cost, defect = float(values[idx]), float(slack[idx])
        if abs(defect) > bound:
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

    Raises ``InvalidCertificateError`` when the potentials exceed the cost
    by more than ``tol_dual * (1 + max|c|)`` on some finite-cost cell.
    """
    _admissible_slack(model, plan.space, duals.values, tol_dual)
    return plan.transport_cost(model) - _dual_value(duals, plan.space)
