"""Extremality certification and uniqueness tooling.

A feasible coupling is a vertex of the transport polytope exactly when the
0/1 marginal-constraint columns of its support cells are linearly
independent; that rank test is the certification route here.  The module
also carries the three-marginal map hypotheses checker with its
order-function search, the two-stage projection test, and the symmetric
non-uniqueness witness constructor.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import (
    Coupling,
    CostModel,
    DiscreteMarginal,
    PreconditionError,
    ProductSpace,
)

RANK_TOL = 1e-10
PERM_TOL = 1e-12


@dataclass(frozen=True)
class ExtremalityCertificate:
    """Verdict of the support-rank test.

    When the plan is not extremal, ``kernel_direction`` maps support cells
    to a signed mass perturbation with zero marginal sums; the plan plus or
    minus a small multiple of it stays feasible.
    """

    is_extremal: bool
    kernel_direction: dict | None = None


def _vertex_certificate(cells, row_key_fns) -> ExtremalityCertificate:
    """Rank test for arbitrary groupings of cells into marginal rows."""
    cells = sorted(cells)
    if not cells:
        return ExtremalityCertificate(True, None)
    keys = sorted({fn(c) for c in cells for fn in row_key_fns})
    row_of = {key: r for r, key in enumerate(keys)}
    A = np.zeros((len(keys), len(cells)))
    for j, cell in enumerate(cells):
        for fn in row_key_fns:
            A[row_of[fn(cell)], j] += 1.0
    sv = np.linalg.svd(A, compute_uv=False)
    rank = int(np.count_nonzero(sv > RANK_TOL * max(sv[0], 1.0)))
    if rank == len(cells):
        return ExtremalityCertificate(True, None)
    # the right singular vectors past the numerical rank span the kernel
    direction = np.linalg.svd(A, full_matrices=True)[2][rank]
    direction = direction / np.max(np.abs(direction))
    return ExtremalityCertificate(
        False,
        {cell: float(v) for cell, v in zip(cells, direction) if abs(v) > 1e-12},
    )


def is_vertex(plan: Coupling) -> ExtremalityCertificate:
    """Decide extremality of a coupling in the polytope of its marginals."""
    fns = [lambda cell, a=a: (a, cell[a]) for a in range(plan.space.n)]
    return _vertex_certificate(plan.support(), fns)


def lemma_trip_check(plan: Coupling) -> bool:
    """Two-stage extremality test via the axes-(2,3) projection.

    Projects the plan to nu on axes 2 and 3, then reports whether nu is a
    vertex of the two-marginal polytope and the plan is a vertex of the
    polytope with marginals (mu_1, nu).  A true result implies the plan is
    a vertex of the full three-marginal polytope.
    """
    if plan.space.n != 3:
        raise ValueError("the projection test is defined for three marginals")
    cells = plan.support()
    nu_cells = sorted({(c[1], c[2]) for c in cells})
    nu_cert = _vertex_certificate(
        nu_cells, [lambda c: (0, c[0]), lambda c: (1, c[1])]
    )
    pair_cert = _vertex_certificate(
        cells, [lambda c: (0, c[0]), lambda c: (1, (c[1], c[2]))]
    )
    return nu_cert.is_extremal and pair_cert.is_extremal


# ---------------------------------------------------------------------------
# Map hypotheses for extremality of multi-graph plans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FindThetaResult:
    """Outcome of the strict order-function search on axis 3.

    ``theta`` maps axis-3 indices to integers when feasible; otherwise
    ``cycle`` lists axis-3 indices forming an unsatisfiable loop.
    """

    feasible: bool
    theta: dict | None = None
    cycle: tuple | None = None


@dataclass(frozen=True)
class Theorem41Report:
    hypothesis_i: bool
    hypothesis_ii: bool
    hypothesis_iii: bool
    theta: dict | None = None
    cycle: tuple | None = None
    failures: tuple = ()


def _positive_points(marginal: DiscreteMarginal, tol: float = 0.0) -> set[int]:
    return {int(i) for i in np.flatnonzero(marginal.weights > tol)}


def _theta_constraints(maps):
    """Strict inequalities theta(a) > theta(b) induced by the map family.

    For each x2 reachable by both the first map pair and a later one, the
    third-axis image under the first pair must rank strictly above the
    other image.
    """
    (h1, k1) = maps[0]
    inv_h1 = {x2: x1 for x1, x2 in h1.items()}
    constraints = []
    for i in range(1, len(maps)):
        hi, ki = maps[i]
        inv_hi = {x2: x1 for x1, x2 in hi.items()}
        shared = sorted(set(inv_h1) & set(inv_hi))
        for x2 in shared:
            a = k1[inv_h1[x2]]
            b = ki[inv_hi[x2]]
            constraints.append((a, b, x2, i))
    return constraints


def find_theta(maps) -> FindThetaResult:
    """Solve the strict ranking constraints by longest-path labeling.

    Treats each constraint theta(a) > theta(b) as theta(a) >= theta(b) + 1
    and relaxes to a fixed point; a persisting update after |nodes| rounds
    exposes a cycle, which is returned as the infeasibility witness.
    """
    constraints = _theta_constraints(maps)
    nodes = sorted(
        {z for _, k in maps for z in k.values()}
        | {a for a, b, *_ in constraints}
        | {b for a, b, *_ in constraints}
    )
    theta = {z: 0 for z in nodes}
    pred: dict = {z: None for z in nodes}
    for _ in range(len(nodes) + 1):
        changed = False
        for a, b, *_ in constraints:
            if theta[a] < theta[b] + 1:
                theta[a] = theta[b] + 1
                pred[a] = b
                changed = True
        if not changed:
            return FindThetaResult(True, theta=theta)
    # A node still being relaxed lies on or downstream of a cycle; walk the
    # predecessor chain until a repeat shows up.
    seen: dict = {}
    node = next(a for a, b, *_ in constraints if theta[a] < theta[b] + 1)
    walk = []
    while node not in seen:
        seen[node] = len(walk)
        walk.append(node)
        node = pred[node]
    cycle = tuple(walk[seen[node]:])
    return FindThetaResult(False, cycle=cycle)


def check_thm41(
    space: ProductSpace,
    maps,
    theta: dict | None = None,
) -> Theorem41Report:
    """Check the three map hypotheses guaranteeing extremality.

    ``maps`` is a sequence of (H, K) pairs of index maps over the
    positive-weight first-axis points; H sends axis 1 to axis 2 and K to
    axis 3.  When ``theta`` is omitted, hypothesis (iii) is decided by
    ``find_theta``.
    """
    if space.n != 3:
        raise ValueError("the map hypotheses are stated for three marginals")
    maps = [({int(a): int(b) for a, b in h.items()},
             {int(a): int(b) for a, b in k.items()}) for h, k in maps]
    dom = _positive_points(space.axes[0])
    for h, k in maps:
        if not set(h) <= dom or not set(k) <= dom:
            raise ValueError("maps must be defined on positive-weight first-axis points")
        if set(h) != set(k):
            raise ValueError("each map pair must share its domain")

    failures = []
    target = _positive_points(space.axes[1])
    hyp_i = True
    for pos, (h, _) in enumerate(maps):
        values = list(h.values())
        if len(set(values)) != len(values):
            hyp_i = False
            failures.append(("H_not_injective", pos))
        if set(values) != target:
            hyp_i = False
            failures.append(("H_not_onto", pos))

    hyp_ii = True
    ranges = []
    for pos, (_, k) in enumerate(maps):
        if pos == 0:
            continue
        values = list(k.values())
        if len(set(values)) != len(values):
            hyp_ii = False
            failures.append(("K_not_injective", pos))
        ranges.append((pos, set(values)))
    for (pa, ra), (pb, rb) in itertools.combinations(ranges, 2):
        overlap = ra & rb
        if overlap:
            hyp_ii = False
            failures.append(("K_ranges_overlap", pa, pb, tuple(sorted(overlap))))

    if theta is not None:
        theta = {int(z): float(v) for z, v in theta.items()}
        constraints = _theta_constraints(maps)
        missing = sorted({z for a, b, *_ in constraints for z in (a, b)} - theta.keys())
        if missing:
            raise ValueError(f"theta lacks the axis-3 indices {missing} that the maps constrain")
        hyp_iii = True
        for a, b, x2, pos in constraints:
            if not theta[a] > theta[b]:
                hyp_iii = False
                failures.append(("theta_not_strict", x2, pos))
        result_theta, cycle = theta, None
    else:
        found = find_theta(maps)
        hyp_iii = found.feasible
        result_theta, cycle = found.theta, found.cycle
        if not found.feasible:
            failures.append(("theta_infeasible", found.cycle))

    return Theorem41Report(
        hypothesis_i=hyp_i,
        hypothesis_ii=hyp_ii,
        hypothesis_iii=hyp_iii,
        theta=result_theta if hyp_iii else None,
        cycle=cycle,
        failures=tuple(failures),
    )


# ---------------------------------------------------------------------------
# Symmetric non-uniqueness witness
# ---------------------------------------------------------------------------

def _check_symmetric_inputs(plan: Coupling, s1, s2, s3):
    space = plan.space
    if space.n != 3:
        raise ValueError("the witness construction is defined for three marginals")
    ax0 = space.axes[0]
    for ax in space.axes[1:]:
        if not (np.array_equal(ax.points, ax0.points)
                and np.max(np.abs(ax.weights - ax0.weights)) <= PERM_TOL):
            raise PreconditionError("all three marginals must be identical")
    sets = [frozenset(int(i) for i in s) for s in (s1, s2, s3)]
    for a, b in itertools.combinations(sets, 2):
        if a & b:
            raise PreconditionError("the three index sets must be pairwise disjoint")
    for sigma in itertools.permutations(range(3)):
        moved = plan.permuted(sigma)
        if plan.tv_distance(moved) > PERM_TOL:
            raise PreconditionError(
                f"plan is not invariant under coordinate permutation {sigma}"
            )
    return sets


def symmetry_witness(plan: Coupling, s1, s2, s3, model: CostModel | None = None) -> Coupling:
    """Construct a second optimizer for a permutation-symmetric instance.

    Starting from a permutation-invariant plan charging the box
    S1 x S2 x S3, redistributes the box masses: the average over all six
    permuted boxes is added and the average over the three cyclic boxes is
    subtracted.  The result keeps the marginals and (for permutation
    symmetric costs) the transport cost, but differs from the input plan,
    witnessing non-uniqueness.
    """
    sets = _check_symmetric_inputs(plan, s1, s2, s3)

    def box_mass(cell, arrangement):
        return all(cell[a] in sets[arrangement[a]] for a in range(3))

    base = (0, 1, 2)
    if not any(box_mass(c, base) and m > 0 for c, m in plan.entries.items()):
        raise PreconditionError("the plan assigns no mass to S1 x S2 x S3")

    cyclic = [(0, 1, 2), (2, 0, 1), (1, 2, 0)]
    entries = dict(plan.entries)
    for arrangement in itertools.permutations(range(3)):
        coeff = 1.0 / 6.0
        for cell, m in plan.entries.items():
            if box_mass(cell, arrangement):
                entries[cell] = entries.get(cell, 0.0) + coeff * m
    for arrangement in cyclic:
        for cell, m in plan.entries.items():
            if box_mass(cell, arrangement):
                entries[cell] = entries.get(cell, 0.0) - m / 3.0

    cleaned = {}
    for cell, m in entries.items():
        if m < -1e-12:
            raise PreconditionError(
                f"witness construction produced negative mass {m} at {cell}"
            )
        if m > 0:
            cleaned[cell] = m
    witness = Coupling(cleaned, plan.space)

    for a in range(3):
        if np.max(np.abs(witness.marginal(a) - plan.marginal(a))) > 1e-12:
            raise PreconditionError("witness construction disturbed a marginal")
    if witness.tv_distance(plan) <= PERM_TOL:
        raise PreconditionError("witness coincides with the input plan")
    if model is not None:
        before = plan.transport_cost(model)
        after = witness.transport_cost(model)
        if abs(after - before) > 1e-9 * (1.0 + abs(before)):
            raise PreconditionError(
                f"witness changed the transport cost by {after - before:.3e}"
            )
    return witness
