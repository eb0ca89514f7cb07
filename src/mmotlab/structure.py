"""Structural analysis of couplings.

Splitting-set extraction, pairwise monotonicity checking, decomposition of
a plan into weighted graphs over the first axis, gradient-cluster twist
counting, and order regions.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import diff
from .core import (
    CostModel,
    Coupling,
    DualPotentials,
    InconsistentCouplingError,
    InvalidCertificateError,
    NondifferentiableCostError,
    ProductSpace,
    UndefinedRegionError,
    _splitting_slack,
    cost_at,
)

SUPPORT_TOL = 1e-10
MONO_TOL = 1e-9
GRAD_TOL = 1e-6
#: elements of one block of gradient-pair differences in twist_multiplicity
_LINK_BLOCK = 1 << 18


# ---------------------------------------------------------------------------
# Splitting sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SplittingSetReport:
    """Finite-cost cells where the splitting inequality is tight."""

    cells: frozenset
    max_violation: float
    tol_split: float


def splitting_support(
    model: CostModel,
    space: ProductSpace,
    duals: DualPotentials,
    tol_split: float = 1e-9,
) -> SplittingSetReport:
    """All finite-cost cells with c - sum_i u_i within ``tol_split`` of zero.

    Raises ``InvalidCertificateError`` if some cell has a negative defect
    beyond tolerance (the potentials would not be admissible).
    """
    _, slack = _splitting_slack(model, space, duals.values)
    worst = float(slack.min())
    if worst < -tol_split:
        raise InvalidCertificateError(f"potentials overshoot the cost by {-worst:.3e}")
    tight = slack <= tol_split  # never an excluded cell: its slack is +inf
    cells = frozenset(map(tuple, np.argwhere(tight).tolist()))
    max_violation = float(np.max(slack[tight])) if cells else 0.0
    return SplittingSetReport(cells, max_violation, tol_split)


# ---------------------------------------------------------------------------
# c-monotonicity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MonotonicityViolation:
    cell_a: tuple
    cell_b: tuple
    positive_part: tuple  # axis indices swapped together with cell_a
    defect: float


def check_c_monotone(
    model: CostModel,
    cells,
    space: ProductSpace,
    tol_mono: float = MONO_TOL,
) -> list[MonotonicityViolation]:
    """Exhaustively test the pairwise exchange inequality on a cell set.

    For every unordered pair of cells and every nontrivial bipartition
    {P+, P-} of the axes, a violation is recorded when
    c(x) + c(xbar) - c(x+, xbar-) - c(xbar+, x-) exceeds ``tol_mono``.
    A +inf value on the swapped side never counts as a violation.
    Violations come pair by pair (cells sorted), bipartitions in order
    within a pair.

    Each distinct cell, given or swapped, is evaluated once: pairs are
    taken one first cell at a time against all later cells, and the
    block's swapped cells are built as index rows directly.  A cell's
    mixed-radix key serves only the memo of costs, and one ``cost_at``
    call evaluates the block's cells not seen before.  Beyond the memo the
    work space is O(S * 2^(n-1)) for S cells; nothing the size of the grid
    is built.
    """
    n = space.n
    if n > 6:
        raise ValueError("bipartition enumeration is limited to n <= 6 axes")
    cells = sorted(tuple(c) for c in cells)
    if len(cells) < 2:
        return []
    # P+ always contains axis 0, so each unordered bipartition appears once.
    partitions = [
        (0,) + rest
        for r in range(0, n - 1)
        for rest in itertools.combinations(range(1, n), r)
    ]
    idx = np.array(cells, dtype=np.int64)
    plus = np.array([[k in p for k in range(n)] for p in partitions])
    # a cell's key is its mixed-radix number over the index ranges the
    # given cells span, which every swapped cell stays within
    low = idx.min(axis=0)
    radix = (idx.max(axis=0) - low + 1).tolist()
    dtype = np.int64 if math.prod(radix) < 2**63 else object
    strides = np.array([math.prod(radix[:k]) for k in range(n)], dtype=dtype)
    memo: dict = {}

    def costs(rows):
        """Costs of the cells along the last axis of ``rows``."""
        flat = rows.reshape(-1, n)
        keys, first, inverse = np.unique(
            (flat - low).astype(dtype) @ strides, return_index=True, return_inverse=True
        )
        keys = keys.tolist()
        missing = {key: j for key, j in zip(keys, first.tolist()) if key not in memo}
        if missing:
            memo.update(zip(missing, cost_at(model, space, flat[list(missing.values())]).tolist()))
        return np.array([memo[key] for key in keys])[inverse].reshape(rows.shape[:-1])

    given = costs(idx)
    if not np.all(np.isfinite(given)):
        raise ValueError("monotonicity check requires finite-cost cells")
    violations = []
    for i, a in enumerate(cells[:-1]):
        rest = idx[i + 1:, None, :]
        # c1: a on P+ and b on P-; c2: b on P+ and a on P-
        c1, c2 = costs(np.stack([np.where(plus, idx[i], rest), np.where(plus, rest, idx[i])]))
        # a +inf swapped cost makes the defect -inf, which never counts
        defect = (given[i] + given[i + 1:])[:, None] - c1 - c2
        for b, p in zip(*(ix.tolist() for ix in np.nonzero(defect > tol_mono))):
            violations.append(MonotonicityViolation(
                a, cells[i + 1 + b], partitions[p], float(defect[b, p])
            ))
    return violations


# ---------------------------------------------------------------------------
# Graph decomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Branch:
    """One graph value at one first-axis point."""

    target: tuple  # indices on axes 2..n
    alpha: float
    graph_label: int  # 1-based; assigned by lexicographic target coordinates


@dataclass(frozen=True)
class GraphDecomposition:
    """A plan written as sum_i alpha_i (Id x G_i)_# mu_1."""

    k: int
    branches: dict  # axis-1 index -> tuple of Branch, sorted by target coords
    space: ProductSpace

    def reconstruct(self) -> Coupling:
        """Rebuild the coupling from (alpha, targets, mu_1)."""
        mu1 = self.space.axes[0].weights
        entries = {}
        for i1, branches in self.branches.items():
            for br in branches:
                entries[(i1, *br.target)] = br.alpha * mu1[i1]
        return Coupling(entries, self.space)


def decompose_graphs(plan: Coupling, tol_mass: float = SUPPORT_TOL) -> GraphDecomposition:
    """Split a plan into weighted single-valued graphs over the first axis.

    Branches at each first-axis point are ordered lexicographically by
    target coordinates; graph label j goes to the j-th branch.  The number
    of graphs k is the largest branch count over first-axis points.
    """
    space = plan.space
    mu1 = space.axes[0].weights
    fibres: dict[int, list] = {}
    for idx, m in plan.entries.items():
        if m <= tol_mass:
            continue
        fibres.setdefault(idx[0], []).append((idx[1:], m))
    branches = {}
    k = 0
    for i1, w in enumerate(mu1):
        if w <= tol_mass:
            continue
        if i1 not in fibres:
            raise InconsistentCouplingError(
                f"first-axis point {i1} has weight {w} but no support cell"
            )
        fibre = fibres[i1]
        coords = {
            tgt: tuple(float(v) for a, i in enumerate(tgt) for v in space.axes[a + 1].points[i])
            for tgt, _ in fibre
        }
        fibre.sort(key=lambda pair: coords[pair[0]])
        total = math.fsum(m for _, m in fibre)
        row = tuple(
            Branch(target=tgt, alpha=m / w, graph_label=pos + 1)
            for pos, (tgt, m) in enumerate(fibre)
        )
        if abs(total / w - 1.0) > 1e-10:
            raise InconsistentCouplingError(
                f"branch weights at first-axis point {i1} sum to {total / w}"
            )
        branches[i1] = row
        k = max(k, len(row))
    return GraphDecomposition(k=k, branches=branches, space=space)


# ---------------------------------------------------------------------------
# Twist multiplicity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GradientCluster:
    axis1_index: int
    cells: tuple
    gradient: np.ndarray  # representative first-variable gradient


@dataclass(frozen=True)
class TwistReport:
    """Clusters of cells sharing a first-axis point and first-variable gradient.

    ``max_multiplicity`` is the empirical m of the m-twist condition.
    """

    clusters: tuple
    max_multiplicity: int
    witness: GradientCluster | None
    flagged_cells: tuple = field(default_factory=tuple)


def twist_multiplicity(
    model: CostModel,
    cells,
    space: ProductSpace,
    tol_grad: float = GRAD_TOL,
) -> TwistReport:
    """Group cells by first-axis point and cluster their gradients.

    Clustering is single-linkage: two cells sharing a first-axis point are
    linked when the sup-norm distance of their gradients is within
    ``tol_grad * (1 + the larger sup-norm of the two)``, and a cluster is
    a connected component of the links.  Clusters come by first-axis
    point, then by smallest member; the representative gradient is the
    smallest member's.  Cells where the gradient is undefined are excluded
    and reported in ``flagged_cells``.
    """
    if isinstance(cells, SplittingSetReport):
        cells = cells.cells
    by_x1: dict[int, list] = {}
    flagged = []
    cells = sorted(tuple(c) for c in cells)
    finite = np.isfinite(cost_at(model, space, cells)).tolist()
    for cell, ok in zip(cells, finite):
        try:
            if not ok:
                raise NondifferentiableCostError("cost is infinite at the cell")
            g = diff.grad_at_finite(model, space.point(cell), 0)
        except NondifferentiableCostError:
            flagged.append(cell)
            continue
        by_x1.setdefault(cell[0], []).append((cell, g))
    clusters = []
    for i1 in sorted(by_x1):
        members = by_x1[i1]
        for group in _linked_groups([g for _, g in members], tol_grad):
            linked = tuple(members[a][0] for a in group)
            clusters.append(GradientCluster(i1, linked, gradient=members[group[0]][1]))
    witness = max(clusters, key=lambda cl: len(cl.cells), default=None)
    return TwistReport(tuple(clusters), max_multiplicity=len(witness.cells) if witness else 0,
                       witness=witness, flagged_cells=tuple(flagged))


def _linked_groups(grads, tol_grad: float) -> list[list[int]]:
    """Single-linkage components of gradients, as ascending index lists.

    Gradients a and b link when max|g_a - g_b| <= tol_grad * (1 +
    max(|g_a|_inf, |g_b|_inf)).  The pair distances are compared a block
    of rows at a time, each block at most ``_LINK_BLOCK`` elements or one
    row.
    """
    g = np.stack(grads)
    m = len(g)
    norms = np.max(np.abs(g), axis=1)
    parent = list(range(m))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    rows = max(1, _LINK_BLOCK // g.size)
    for lo in range(0, m, rows):
        block = g[lo:lo + rows]
        dist = np.max(np.abs(block[:, None, :] - g[None, :, :]), axis=2)
        radius = tol_grad * (1.0 + np.maximum(norms[lo:lo + rows, None], norms))
        # keep b > a only: row r is gradient lo + r
        linked = np.triu(dist <= radius, k=lo + 1)
        for r, b in zip(*(ix.tolist() for ix in np.nonzero(linked))):
            parent[find(lo + r)] = find(b)
    groups: dict[int, list] = {}
    for a in range(m):
        groups.setdefault(find(a), []).append(a)
    return list(groups.values())


# ---------------------------------------------------------------------------
# Order regions
# ---------------------------------------------------------------------------

def region_of(point) -> tuple[int, ...]:
    """The permutation sorting a one-dimensional tuple ascending.

    Raises ``UndefinedRegionError`` for coincident coordinates.
    """
    coords = [float(np.atleast_1d(np.asarray(x, dtype=float))[0]) for x in point]
    if any(np.atleast_1d(np.asarray(x, dtype=float)).shape != (1,) for x in point):
        raise ValueError("order regions are defined for d = 1 only")
    if len(set(coords)) != len(coords):
        raise UndefinedRegionError(f"coincident coordinates in {coords}")
    return tuple(int(i) for i in np.argsort(coords))

