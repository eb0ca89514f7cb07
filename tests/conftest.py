"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the library's own simplex and rank
machinery: the two-marginal oracle enumerates basic supports by brute
force, and the extremality oracle decides uniqueness of the restricted
feasibility system with an off-the-shelf LP solver.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import settings
from scipy.optimize import linprog

from mmotlab import Coupling, DiscreteMarginal, ProductSpace

# Property tests draw the same examples on every run, with no time limit, so
# a test run is as deterministic as the rest of the suite.
settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")


def brute_force_value_n2(costs: np.ndarray, w1: np.ndarray, w2: np.ndarray) -> float:
    """Minimum transport cost for two marginals by vertex enumeration.

    Enumerates every candidate support of basic size, solves the marginal
    equations on it, and keeps the cheapest feasible solution.  Exponential;
    intended for grids up to 4 x 4 only.
    """
    n1, n2 = costs.shape
    cells = [
        (i, j) for i in range(n1) for j in range(n2) if math.isfinite(costs[i, j])
    ]
    b = np.concatenate([w1, w2])
    best = math.inf
    max_support = n1 + n2 - 1
    for size in range(1, max_support + 1):
        for subset in itertools.combinations(cells, size):
            A = np.zeros((n1 + n2, size))
            for col, (i, j) in enumerate(subset):
                A[i, col] = 1.0
                A[n1 + j, col] = 1.0
            x, residual, *_ = np.linalg.lstsq(A, b, rcond=None)
            if np.max(np.abs(A @ x - b)) > 1e-9 or np.min(x) < -1e-9:
                continue
            value = float(sum(costs[c] * xi for c, xi in zip(subset, x)))
            best = min(best, value)
    return best


def unique_feasible_oracle(plan: Coupling) -> bool:
    """True iff the plan is the only coupling supported on its support.

    A feasible point of a transport polytope is a vertex exactly when the
    polytope restricted to its support cells is a single point; that is
    decided here by minimizing and maximizing each coordinate with an LP.
    """
    cells = plan.support()
    space = plan.space
    rows = sum(space.shape)
    offsets = np.cumsum([0] + list(space.shape[:-1]))
    A = np.zeros((rows, len(cells)))
    for col, idx in enumerate(cells):
        for a, i in enumerate(idx):
            A[offsets[a] + i, col] = 1.0
    b = np.concatenate([ax.weights for ax in space.axes])
    for col in range(len(cells)):
        obj = np.zeros(len(cells))
        obj[col] = 1.0
        lo = linprog(obj, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
        hi = linprog(-obj, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
        assert lo.success and hi.success
        if -hi.fun - lo.fun > 1e-9:
            return False
    return True


def random_rational_marginal(rng, size: int, d: int = 1) -> DiscreteMarginal:
    points = np.sort(rng.uniform(0.0, 1.0, size=size))
    while len(set(points.round(9))) != size:
        points = np.sort(rng.uniform(0.0, 1.0, size=size))
    numerators = rng.integers(1, 12, size=size)
    weights = numerators / numerators.sum()
    if d == 1:
        return DiscreteMarginal(points, weights)
    pts = rng.uniform(0.0, 1.0, size=(size, d))
    return DiscreteMarginal(pts, weights)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def small_symmetric_space():
    marginal = DiscreteMarginal([0.0, 1.0, 2.0], [1 / 3, 1 / 3, 1 / 3])
    return ProductSpace([marginal, marginal, marginal])
