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
    ProductSpace,
    UndefinedRegionError,
    _admissible_slack,
    cost_at,
)

SUPPORT_TOL = 1e-10
MONO_TOL = 1e-9
GRAD_TOL = 1e-6
#: items of one block of pairs: swapped cells in check_c_monotone,
#: per-pair temporaries in twist_multiplicity
_PAIR_BLOCK = 1 << 15


def _pair_blocks(ends, width: int):
    """Index pairs (a, b) with a < b < ``ends[a]``, in ``np.triu_indices`` order.

    Each ``ends[a]`` exceeds a.  The pairs come as two index arrays per block
    of at most ``_PAIR_BLOCK // width`` pairs (or one pair), for ``width``
    items per pair.
    """
    later = np.asarray(ends, dtype=np.intp) - np.arange(len(ends)) - 1
    starts = np.cumsum(later) - later
    total = int(later.sum())
    step = max(1, _PAIR_BLOCK // width)
    for t0 in range(0, total, step):
        # pair t is (a, a + 1 + t - starts[a]) for the last a with starts[a] <= t
        t = np.arange(t0, min(t0 + step, total))
        ia = np.searchsorted(starts, t, side="right") - 1
        yield ia, ia + 1 + t - starts[ia]


# ---------------------------------------------------------------------------
# Splitting sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SplittingSetReport:
    """Finite-cost cells where the splitting inequality is tight.

    ``tol_split`` is the tolerance as given; the cells' slack is at most
    ``tol_split * (1 + max|c|)``, and ``max_violation`` is the largest.
    """

    cells: frozenset
    max_violation: float
    tol_split: float


def splitting_support(
    model: CostModel,
    space: ProductSpace,
    duals: DualPotentials,
    tol_split: float = 1e-9,
) -> SplittingSetReport:
    """All finite-cost cells with slack c - sum_i u_i at most ``tol_split * (1 + max|c|)``.

    The bound is ``core._admissible_slack``'s, on the scale of the largest
    finite cost, so it admits the same duals as ``solve_exact``'s certificate
    for the same tolerance.  Raises ``InvalidCertificateError`` if sum_i u_i
    exceeds c by more than the bound on some finite cell (the potentials
    would not be admissible).
    """
    _, slack, bound = _admissible_slack(model, space, duals.values, tol_split)
    tight = slack <= bound  # never an excluded cell: its slack is +inf
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

    ``cells`` is read as a set.  Pairs come from ``_pair_blocks`` in
    ``np.triu_indices`` order, in blocks of at most ``_PAIR_BLOCK`` swapped
    cells (or one pair), and one ``cost_at`` call per block evaluates the
    cells no block has seen, so each distinct cell is evaluated once.  The
    memo keeps every cell's mixed-radix key and cost in two sorted arrays;
    beyond it the work space is O(S + _PAIR_BLOCK * n) for S cells, never
    the size of the grid or of the S^2 pairs.
    """
    n = space.n
    if n > 6:
        raise ValueError("bipartition enumeration is limited to n <= 6 axes")
    cells = sorted({tuple(c) for c in cells})
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
    # swap[0]: a on P+ and b on P-; swap[1]: b on P+ and a on P-
    swap = np.stack([plus, ~plus])[:, None]
    # a cell's key is its mixed-radix number over the index ranges the
    # given cells span, which every swapped cell stays within
    low = idx.min(axis=0)
    radix = (idx.max(axis=0) - low + 1).tolist()
    dtype = np.int64 if math.prod(radix) < 2**63 else object
    strides = np.array([math.prod(radix[:k]) for k in range(n)], dtype=dtype)
    memo_keys, memo_costs = np.empty(0, dtype), np.empty(0)

    def costs(rows):
        """Costs of the cells along the last axis of ``rows``."""
        nonlocal memo_keys, memo_costs
        flat = rows.reshape(-1, n)
        keys, first, inverse = np.unique(
            (flat - low).astype(dtype, copy=False) @ strides, return_index=True, return_inverse=True
        )
        at = np.searchsorted(memo_keys, keys)
        seen = at < len(memo_keys)
        seen[seen] = memo_keys[at[seen]] == keys[seen]
        out = np.empty(len(keys))
        out[seen] = memo_costs[at[seen]]
        if not seen.all():
            new = ~seen
            out[new] = cost_at(model, space, flat[first[new]])
            memo_keys = np.insert(memo_keys, at[new], keys[new])
            memo_costs = np.insert(memo_costs, at[new], out[new])
        return out[inverse].reshape(rows.shape[:-1])

    given = costs(idx)
    if not np.all(np.isfinite(given)):
        raise ValueError("monotonicity check requires finite-cost cells")
    violations = []
    for ia, ib in _pair_blocks(np.full(len(cells), len(cells)), 2 * len(partitions)):
        c1, c2 = costs(np.where(swap, idx[ia, None, :], idx[ib, None, :]))
        # a +inf swapped cost makes the defect -inf, which never counts
        defect = (given[ia] + given[ib])[:, None] - c1 - c2
        for r, p in zip(*(ix.tolist() for ix in np.nonzero(defect > tol_mono))):
            violations.append(MonotonicityViolation(
                cells[ia[r]], cells[ib[r]], partitions[p], float(defect[r, p])
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
    and reported in ``flagged_cells``.  ``cells`` is read as a set.

    The sorted cells of one first-axis point form one run, and one pass of
    ``_pair_blocks`` compares the pairs within each run,
    ``_PAIR_BLOCK // (8 d)`` pairs at a time: O(S d + _PAIR_BLOCK) work space
    for S cells.
    """
    if isinstance(cells, SplittingSetReport):
        cells = cells.cells
    cells = sorted({tuple(c) for c in cells})
    idx = np.array(cells, dtype=np.intp).reshape(-1, space.n)
    ok = np.isfinite(cost_at(model, space, idx))
    grads = np.empty((len(cells), space.d))
    xs = [ax.points[idx[ok, a]] for a, ax in enumerate(space.axes)]
    grads[ok], defined = diff.grads_at(model, xs, 0)
    ok[ok] = defined
    members = np.flatnonzero(ok)
    g = grads[members]
    norms = np.max(np.abs(g), axis=1)
    parent = list(range(len(members)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    x1 = idx[members, 0]
    # 8 d items per pair, about the pass's temporaries per pair: index
    # arithmetic, the gathered gradients and their difference, the link test
    for ia, ib in _pair_blocks(np.searchsorted(x1, x1, side="right"), 8 * space.d):
        linked = np.max(np.abs(g[ia] - g[ib]), axis=1) <= tol_grad * (
            1.0 + np.maximum(norms[ia], norms[ib]))
        for a, b in zip(ia[linked].tolist(), ib[linked].tolist()):
            parent[find(a)] = find(b)
    # components in order of their smallest member: by x1, then by smallest member
    groups: dict[int, list] = {}
    for a, k in enumerate(members.tolist()):
        groups.setdefault(find(a), []).append(k)
    clusters = [GradientCluster(cells[ks[0]][0], tuple(cells[k] for k in ks), gradient=grads[ks[0]])
                for ks in groups.values()]
    witness = max(clusters, key=lambda cl: len(cl.cells), default=None)
    flagged = tuple(cell for cell, good in zip(cells, ok.tolist()) if not good)
    return TwistReport(tuple(clusters), max_multiplicity=len(witness.cells) if witness else 0,
                       witness=witness, flagged_cells=flagged)


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

