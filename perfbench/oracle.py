"""Checks that do not go through the solver under test.

The reference value comes from scipy's bundled HiGHS dual simplex on the
same finite-cell LP the exact solver sees, built here from
``core.cost_tensor``; marginals and vertex rank are recomputed with numpy.
"""

from __future__ import annotations

import math
import time

import numpy as np

from mmotlab import core

VALUE_TOL = 1e-9
MARGINAL_TOL = 1e-12
#: reconstructed masses are alpha * mu_1 with alpha = mass / mu_1, so they
#: may differ from the plan by a rounding step of a number at most 1
RECONSTRUCT_TOL = 1e-15


class CheckFailed(Exception):
    """An operation's output disagrees with its oracle."""


def require(condition, message: str):
    if not condition:
        raise CheckFailed(message)


def finite_cells(model, space) -> int:
    return int(np.count_nonzero(np.isfinite(core.cost_tensor(model, space))))


def highs_value(model, space) -> tuple[float, float]:
    """Optimal value from ``linprog(method="highs-ds")`` and its solve seconds.

    Every axis point gets a row (the redundant one included); +inf cells
    are left out, as in the exact solver.
    """
    # imported here so that set-up time covers mmotlab's imports only
    from scipy.optimize import linprog
    from scipy.sparse import csr_matrix

    values = core.cost_tensor(model, space)
    cells = np.argwhere(np.isfinite(values))
    costs = values[tuple(cells.T)]
    offsets = np.cumsum([0, *space.shape[:-1]])
    rows = (cells + offsets).ravel()
    cols = np.repeat(np.arange(len(cells)), space.n)
    A = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(sum(space.shape), len(cells)))
    b = np.concatenate([ax.weights for ax in space.axes])
    started = time.perf_counter()
    res = linprog(costs, A_eq=A, b_eq=b, bounds=(0, None), method="highs-ds",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    seconds = time.perf_counter() - started
    require(res.status == 0, f"HiGHS reference failed: {res.message}")
    return float(res.fun), seconds


def check_value(value: float, reference: float):
    require(abs(value - reference) <= VALUE_TOL * (1.0 + abs(reference)),
            f"optimal value {value!r} differs from HiGHS {reference!r}")


def check_marginals(entries, space):
    """``entries`` maps index tuples to masses."""
    for a, ax in enumerate(space.axes):
        got = np.zeros(ax.size)
        for idx, mass in entries.items():
            got[idx[a]] += mass
        err = float(np.max(np.abs(got - ax.weights)))
        require(err <= MARGINAL_TOL, f"axis-{a} marginal off by {err:.3e}")


def check_vertex_rank(cells, space):
    """The 0/1 constraint columns of the support cells are independent."""
    offsets = np.cumsum([0, *space.shape[:-1]])
    A = np.zeros((sum(space.shape), len(cells)))
    for j, idx in enumerate(cells):
        A[np.asarray(idx) + offsets, j] = 1.0
    rank = np.linalg.matrix_rank(A)
    require(rank == len(cells), f"support of {len(cells)} cells has rank {rank}: not a vertex")


def check_reconstruct(decomp, plan):
    rebuilt = decomp.reconstruct()
    require(set(rebuilt.entries) == set(plan.entries), "reconstructed support differs")
    err = max(abs(rebuilt.entries[k] - m) for k, m in plan.entries.items())
    require(err <= RECONSTRUCT_TOL, f"reconstructed masses off by {err:.3e}")


def check_gap(gap: float, value: float):
    require(-VALUE_TOL <= gap <= VALUE_TOL * (1.0 + abs(value)), f"duality gap {gap:.3e}")


def exchange_tests(support_size: int, n: int) -> int:
    """Pairs times nontrivial bipartitions, as ``check_c_monotone`` enumerates."""
    return math.comb(support_size, 2) * (2 ** (n - 1) - 1)
