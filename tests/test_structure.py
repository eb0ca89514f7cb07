import itertools
import math
import tracemalloc

import numpy as np
import pytest

from mmotlab import (
    Coulomb1D,
    Coupling,
    DiscreteMarginal,
    DualPotentials,
    InconsistentCouplingError,
    InvalidCertificateError,
    NondifferentiableCostError,
    ProductSpace,
    ProductXYZ,
    Tabulated,
    TwoWell,
    UndefinedRegionError,
    UserHook,
    check_c_monotone,
    decompose_graphs,
    region_of,
    solve_exact,
    splitting_support,
    twist_multiplicity,
)
from mmotlab import diff, structure
from mmotlab.core import eval_cost
from mmotlab.experiments import twowell_space
from mmotlab.structure import GRAD_TOL, MONO_TOL, GradientCluster, MonotonicityViolation


def _uniform(points):
    n = len(points)
    return DiscreteMarginal(points, np.full(n, 1.0 / n))


def _reference_c_monotone(model, cells, space, tol_mono=MONO_TOL):
    """check_c_monotone as a plain loop: every pair, every bipartition."""
    n = space.n
    cells = sorted(tuple(c) for c in cells)
    partitions = [
        (0,) + rest
        for r in range(0, n - 1)
        for rest in itertools.combinations(range(1, n), r)
    ]
    violations = []
    for a, b in itertools.combinations(cells, 2):
        ca = eval_cost(model, space.point(a))
        cb = eval_cost(model, space.point(b))
        if not (math.isfinite(ca) and math.isfinite(cb)):
            raise ValueError("monotonicity check requires finite-cost cells")
        for plus in partitions:
            swap_ab = tuple(a[i] if i in plus else b[i] for i in range(n))
            swap_ba = tuple(b[i] if i in plus else a[i] for i in range(n))
            c1 = eval_cost(model, space.point(swap_ab))
            c2 = eval_cost(model, space.point(swap_ba))
            if not (math.isfinite(c1) and math.isfinite(c2)):
                continue
            defect = ca + cb - c1 - c2
            if defect > tol_mono:
                violations.append(MonotonicityViolation(a, b, plus, defect))
    return violations


def _reference_twist_clusters(model, cells, space, tol_grad=GRAD_TOL):
    """twist_multiplicity's clusters from a pair-by-pair union-find."""
    by_x1 = {}
    for cell in sorted(tuple(c) for c in cells):
        try:
            g = diff.grad(model, space.point(cell), 0)
        except NondifferentiableCostError:
            continue
        by_x1.setdefault(cell[0], []).append((cell, g))
    clusters = []
    for i1 in sorted(by_x1):
        members = by_x1[i1]
        parent = list(range(len(members)))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for a, b in itertools.combinations(range(len(members)), 2):
            ga, gb = members[a][1], members[b][1]
            radius = tol_grad * (1.0 + max(np.max(np.abs(ga)), np.max(np.abs(gb))))
            if np.max(np.abs(ga - gb)) <= radius:
                parent[find(a)] = find(b)
        groups = {}
        for a in range(len(members)):
            groups.setdefault(find(a), []).append(a)
        for group in groups.values():
            clusters.append(GradientCluster(
                axis1_index=i1,
                cells=tuple(members[a][0] for a in group),
                gradient=members[group[0]][1],
            ))
    return clusters


def _clusters_key(clusters):
    """Clusters as comparable tuples, gradients by their bytes."""
    return [(c.axis1_index, c.cells, c.gradient.tobytes()) for c in clusters]


def _counting_hook(fn, n, calls):
    """A UserHook around ``fn`` that appends every evaluated point to ``calls``."""
    def value(xs):
        calls.append(tuple(float(x[0]) for x in xs))
        return fn(xs)
    return UserHook(value, n=n)


def _gradient_hook(grads):
    """A two-axis cost whose first-variable gradient is ``grads[j]`` at (x1, point j)."""
    return UserHook(
        lambda xs: 0.0,
        n=2,
        grad_fn=lambda i, xs: np.array([grads[int(xs[1][0])]]),
        hess_fn=lambda i, j, xs: np.zeros((1, 1)),
    )


class TestSplittingSupport:
    def test_solved_coulomb_triple(self):
        m = _uniform([0.0, 1.0, 2.0])
        space = ProductSpace([m, m, m])
        result = solve_exact(Coulomb1D(), space)
        report = splitting_support(Coulomb1D(), space, result.duals)
        assert report.cells == frozenset(itertools.permutations((0, 1, 2)))
        assert report.max_violation <= report.tol_split

    def test_huge_negative_duals_empty(self):
        m = _uniform([0.0, 1.0, 2.0])
        space = ProductSpace([m, m, m])
        duals = DualPotentials([np.full(3, -1e6)] * 3)
        report = splitting_support(Coulomb1D(), space, duals)
        assert report.cells == frozenset()

    def test_overshooting_duals_rejected(self):
        m = _uniform([0.0, 1.0, 2.0])
        space = ProductSpace([m, m, m])
        duals = DualPotentials([np.full(3, 10.0)] * 3)
        with pytest.raises(InvalidCertificateError):
            splitting_support(Coulomb1D(), space, duals)

    def test_twowell_zero_duals_give_the_two_graphs(self):
        space = twowell_space(20)
        zero = DualPotentials([np.zeros(s) for s in space.shape])
        report = splitting_support(TwoWell(), space, zero, tol_split=1e-12)
        pts = [ax.points[:, 0] for ax in space.axes]
        expected = set()
        for i, x in enumerate(pts[0]):
            for j, y in enumerate(pts[1]):
                for k, z in enumerate(pts[2]):
                    on_graph1 = math.isclose(y, x, abs_tol=1e-12) and math.isclose(
                        z, x, abs_tol=1e-12
                    )
                    on_graph2 = math.isclose(y, x, abs_tol=1e-12) and math.isclose(
                        z, x + 0.5, abs_tol=1e-12
                    )
                    if on_graph1 or on_graph2:
                        expected.add((i, j, k))
        assert report.cells == frozenset(expected)

    def test_contains_solver_support(self):
        m = _uniform([0.0, 0.3, 0.7, 1.0])
        space = ProductSpace([m, m, m])
        result = solve_exact(Coulomb1D(), space)
        report = splitting_support(Coulomb1D(), space, result.duals)
        assert set(result.plan.support()) <= report.cells


class TestCheckCMonotone:
    def test_singleton_no_violations(self):
        m = _uniform([0.0, 1.0, 2.0])
        space = ProductSpace([m, m, m])
        assert check_c_monotone(Coulomb1D(), {(0, 1, 2)}, space) == []

    def test_xyz_known_violation(self):
        m = DiscreteMarginal([0.2, 0.8], [0.5, 0.5])
        space = ProductSpace([m, m, m])
        violations = check_c_monotone(ProductXYZ(), {(0, 0, 0), (1, 1, 1)}, space)
        assert violations, "the diagonal pair must violate the exchange inequality"
        # swapping only the first axis: 0.2^3 + 0.8^3 > 2 * 0.2 * 0.8 * ...
        defects = {v.positive_part: v.defect for v in violations}
        assert (0,) in defects
        assert defects[(0,)] == pytest.approx(0.52 - 0.16, abs=1e-12)

    def test_solver_support_is_monotone(self):
        m = _uniform([0.0, 0.25, 0.5, 0.75, 1.0])
        space = ProductSpace([m, m, m])
        result = solve_exact(Coulomb1D(), space)
        assert check_c_monotone(Coulomb1D(), result.plan.support(), space) == []

    def test_infinite_swap_side_skipped(self):
        m = _uniform([0.0, 1.0])
        space = ProductSpace([m, m])
        # swapping (0,1) and (1,0) puts both on the diagonal: cost +inf,
        # which never counts as a violation
        assert check_c_monotone(Coulomb1D(), {(0, 1), (1, 0)}, space) == []

    def test_too_many_axes_rejected(self):
        m = _uniform([0.0, 1.0])
        space = ProductSpace([m] * 7)
        with pytest.raises(ValueError, match="n <= 6"):
            check_c_monotone(Coulomb1D(), set(), space)


class TestCheckCMonotoneEquivalence:
    """The vectorized check lists exactly what the pair-by-pair loop lists."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_coulomb_random_cells(self, n):
        rng = np.random.default_rng(n)
        space = ProductSpace([_uniform(np.sort(rng.uniform(0, 1, 9)))] * n)
        found = 0
        for size in (2, 9, 16):
            # pairwise different indices: finite cells
            cells = {tuple(rng.permutation(9)[:n].tolist()) for _ in range(size)}
            got = check_c_monotone(Coulomb1D(), cells, space)
            # the shared axis makes some swapped cells coincide: those are +inf
            assert got == _reference_c_monotone(Coulomb1D(), cells, space)
            found += len(got)
        assert found, "random Coulomb cells should violate the exchange inequality"

    def test_product_xyz_with_violations(self, rng):
        m = _uniform(np.sort(rng.uniform(-1, 1, 6)))
        space = ProductSpace([m, m, m])
        cells = {tuple(int(v) for v in rng.integers(6, size=3)) for _ in range(20)}
        got = check_c_monotone(ProductXYZ(), cells, space)
        assert got and got == _reference_c_monotone(ProductXYZ(), cells, space)

    def test_user_hook_with_violations(self, rng):
        hook = UserHook(lambda xs: math.sin(3.0 * xs[0][0] * xs[1][0] + xs[2][0] - xs[3][0]), n=4)
        space = ProductSpace([_uniform(np.sort(rng.uniform(0, 2, 8))) for _ in range(4)])
        # indices 3..7 only: keys must not assume that a cell index starts at 0
        cells = {tuple(int(v) for v in rng.integers(3, 8, size=4)) for _ in range(15)}
        got = check_c_monotone(hook, cells, space, tol_mono=0.0)
        assert got and got == _reference_c_monotone(hook, cells, space, tol_mono=0.0)

    def test_tabulated_with_infinite_swaps(self, rng):
        space = ProductSpace([_uniform(np.arange(5.0))] * 4)
        table = rng.uniform(size=space.shape)
        # excluded cells: close to half of the swaps land on one and never count
        table[rng.uniform(size=space.shape) < 0.3] = math.inf
        model = Tabulated(table, space)  # evaluable only at grid points
        finite = np.argwhere(np.isfinite(table))
        cells = {tuple(c) for c in finite[rng.choice(len(finite), 14, replace=False)].tolist()}
        got = check_c_monotone(model, cells, space, tol_mono=0.0)
        assert got and got == _reference_c_monotone(model, cells, space, tol_mono=0.0)

    def test_each_distinct_cell_evaluated_once(self, rng):
        calls = []
        hook = _counting_hook(lambda xs: (xs[0][0] - xs[1][0]) ** 2 * xs[2][0], 3, calls)
        space = ProductSpace([_uniform(np.arange(4.0))] * 3)
        cells = {tuple(int(v) for v in rng.integers(4, size=3)) for _ in range(10)}
        check_c_monotone(hook, cells, space)
        seen = set(cells)
        for a, b in itertools.combinations(cells, 2):
            for plus in [(0,), (0, 1), (0, 2)]:
                seen.add(tuple(a[i] if i in plus else b[i] for i in range(3)))
                seen.add(tuple(b[i] if i in plus else a[i] for i in range(3)))
        assert len(calls) == len(set(calls)) == len(seen)

    def test_keys_past_int64_range(self):
        # 7000 points on each of 6 axes: the cells span more than 2^64 keys
        space = ProductSpace(
            [_uniform(10_000.0 * k + np.arange(7000.0)) for k in range(6)]
        )
        hook = UserHook(lambda xs: math.cos(sum(x[0] * (k + 1) for k, x in enumerate(xs))), n=6)
        cells = [(0,) * 6, (6999,) * 6, (0, 6999, 7, 0, 6999, 3), (5, 5, 6999, 6999, 0, 2)]
        got = check_c_monotone(hook, cells, space, tol_mono=0.0)
        assert got and got == _reference_c_monotone(hook, cells, space, tol_mono=0.0)


class TestCheckCMonotoneEdges:
    def test_infinite_given_cell_rejected(self):
        space = ProductSpace([_uniform([0.0, 1.0, 2.0])] * 2)
        with pytest.raises(ValueError, match="finite-cost"):
            check_c_monotone(Coulomb1D(), {(0, 0), (0, 1), (1, 2)}, space)

    def test_single_infinite_cell_has_no_pairs(self):
        space = ProductSpace([_uniform([0.0, 1.0])] * 2)
        assert check_c_monotone(Coulomb1D(), {(1, 1)}, space) == []

    def test_seven_axes_rejected_before_any_evaluation(self):
        calls = []
        hook = _counting_hook(lambda xs: 0.0, 7, calls)
        space = ProductSpace([_uniform([0.0, 1.0])] * 7)
        with pytest.raises(ValueError, match="n <= 6"):
            check_c_monotone(hook, {(0,) * 7, (1,) * 7}, space)
        assert calls == []

    def test_large_set_without_grid_sized_allocation(self, rng):
        # a 400^6 grid: any array of its size would be 32 PB
        space = ProductSpace([_uniform(np.arange(400.0) + 1000.0 * k) for k in range(6)])
        calls = []
        hook = _counting_hook(lambda xs: sum(float(x[0]) for x in xs), 6, calls)
        grid = list(itertools.product(range(3), repeat=6))
        cells = [grid[i] for i in rng.choice(len(grid), size=200, replace=False)]
        tracemalloc.start()
        try:
            # an additive cost meets the exchange inequality with equality
            assert check_c_monotone(hook, cells, space) == []
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # keys for all 19900 pairs x 31 bipartitions at once would take 10 MB
        assert peak < 8 * 2**20
        assert len(calls) <= len(grid)


class TestDecomposeGraphs:
    def test_single_bijection(self):
        m = _uniform([0.0, 1.0, 2.0])
        space = ProductSpace([m, m, m])
        entries = {(0, 1, 2): 1 / 3, (1, 2, 0): 1 / 3, (2, 0, 1): 1 / 3}
        decomp = decompose_graphs(Coupling(entries, space))
        assert decomp.k == 1
        for branches in decomp.branches.values():
            assert len(branches) == 1
            assert branches[0].alpha == pytest.approx(1.0)
            assert branches[0].graph_label == 1

    def test_two_branch_fibres(self):
        m = _uniform([0.0, 1.0])
        space = ProductSpace([m, m])
        plan = Coupling({(0, 0): 0.25, (0, 1): 0.25, (1, 0): 0.25, (1, 1): 0.25}, space)
        decomp = decompose_graphs(plan)
        assert decomp.k == 2
        for branches in decomp.branches.values():
            assert [b.alpha for b in branches] == pytest.approx([0.5, 0.5])
            assert [b.graph_label for b in branches] == [1, 2]

    def test_labels_sorted_by_target_coordinates(self):
        m = DiscreteMarginal([2.0, 1.0], [0.5, 0.5])  # descending points
        space = ProductSpace([_uniform([0.0]), m])
        plan = Coupling({(0, 0): 0.5, (0, 1): 0.5}, space)
        decomp = decompose_graphs(plan)
        targets = [b.target for b in decomp.branches[0]]
        assert targets == [(1,), (0,)]  # coordinate 1.0 before 2.0

    def test_reconstruct_round_trip(self):
        m = _uniform([0.0, 0.5, 1.0])
        space = ProductSpace([m, m, m])
        result = solve_exact(Coulomb1D(), space)
        decomp = decompose_graphs(result.plan)
        rebuilt = decompose_graphs(decomp.reconstruct())
        assert decomp.branches.keys() == rebuilt.branches.keys()
        for i1 in decomp.branches:
            a = [(b.target, b.graph_label) for b in decomp.branches[i1]]
            b = [(b.target, b.graph_label) for b in rebuilt.branches[i1]]
            assert a == b
        for idx, mass in result.plan.entries.items():
            assert decomp.reconstruct().mass(idx) == pytest.approx(mass, abs=1e-12)

    def test_missing_fibre_rejected(self):
        m = _uniform([0.0, 1.0])
        space = ProductSpace([m, m])
        # a positive-weight first-axis point with no mass anywhere is not a
        # coupling of mu_1; the constructor only checks total mass, so this
        # sneaks through until decomposition
        plan = Coupling({(1, 0): 0.5, (1, 1): 0.5}, space)
        with pytest.raises(InconsistentCouplingError, match="no support cell"):
            decompose_graphs(plan)

    def test_zero_weight_fibres_skipped(self):
        m1 = DiscreteMarginal([0.0, 1.0], [0.0, 1.0])
        m2 = _uniform([0.0, 1.0])
        space = ProductSpace([m1, m2])
        plan = Coupling({(1, 0): 0.5, (1, 1): 0.5}, space)
        decomp = decompose_graphs(plan)
        assert list(decomp.branches) == [1]
        assert decomp.k == 2


class TestTwistMultiplicity:
    def test_symmetric_swap_cluster(self):
        m = _uniform([0.0, 1.0, 2.0])
        space = ProductSpace([m, m, m])
        report = twist_multiplicity(Coulomb1D(), {(0, 1, 2), (0, 2, 1)}, space)
        assert report.max_multiplicity == 2
        assert report.witness is not None
        assert set(report.witness.cells) == {(0, 1, 2), (0, 2, 1)}
        assert report.witness.gradient[0] == pytest.approx(1.25)

    def test_distinct_gradients_stay_apart(self):
        m = _uniform([0.0, 1.0, 2.0, 3.0])
        space = ProductSpace([m, m, m])
        report = twist_multiplicity(Coulomb1D(), {(0, 1, 2), (0, 1, 3)}, space)
        assert report.max_multiplicity == 1

    def test_nondifferentiable_cells_flagged(self):
        m = _uniform([0.0, 1.0])
        space = ProductSpace([m, m])
        report = twist_multiplicity(Coulomb1D(), {(0, 0), (0, 1)}, space)
        assert report.flagged_cells == ((0, 0),)
        assert report.max_multiplicity == 1

    def test_invariant_under_relabeling_of_later_axes(self):
        m = _uniform([0.0, 0.4, 1.1, 2.0])
        space = ProductSpace([m, m, m])
        result = solve_exact(Coulomb1D(), space)
        split = splitting_support(Coulomb1D(), space, result.duals)
        base = twist_multiplicity(Coulomb1D(), split, space)
        swapped = {(c[0], c[2], c[1]) for c in split.cells}
        other = twist_multiplicity(Coulomb1D(), swapped, space)
        assert base.max_multiplicity == other.max_multiplicity

    def test_graph_count_bounded_by_multiplicity(self):
        m = _uniform([0.0, 0.25, 0.5, 0.75, 1.0])
        space = ProductSpace([m, m, m])
        result = solve_exact(Coulomb1D(), space)
        split = splitting_support(Coulomb1D(), space, result.duals)
        twist = twist_multiplicity(Coulomb1D(), split, space)
        k = decompose_graphs(result.plan).k
        assert k <= twist.max_multiplicity

    def test_empty_cells(self):
        m = _uniform([0.0, 1.0])
        space = ProductSpace([m, m])
        report = twist_multiplicity(Coulomb1D(), set(), space)
        assert report.max_multiplicity == 0 and report.witness is None


class TestTwistEquivalence:
    """The broadcast clustering returns the pair-by-pair union-find's clusters."""

    @pytest.mark.parametrize("n, tol_grad", [(3, 0.3), (4, 0.05), (3, GRAD_TOL)])
    def test_coulomb_random_cells(self, n, tol_grad):
        rng = np.random.default_rng(n)
        space = ProductSpace([_uniform(np.sort(rng.uniform(0, 1, 6)))] * n)
        cells = {tuple(int(v) for v in rng.integers(6, size=n)) for _ in range(80)}
        report = twist_multiplicity(Coulomb1D(), cells, space, tol_grad=tol_grad)
        expected = _reference_twist_clusters(Coulomb1D(), cells, space, tol_grad)
        assert _clusters_key(report.clusters) == _clusters_key(expected)
        assert report.flagged_cells, "coincident cells are flagged"

    def test_blocked_comparison_matches(self, monkeypatch):
        rng = np.random.default_rng(1)
        space = ProductSpace([_uniform(np.sort(rng.uniform(0, 1, 9)))] * 3)
        cells = list(itertools.permutations(range(9), 3))
        expected = _reference_twist_clusters(Coulomb1D(), cells, space, 0.1)
        monkeypatch.setattr(structure, "_LINK_BLOCK", 5)
        report = twist_multiplicity(Coulomb1D(), cells, space, tol_grad=0.1)
        assert _clusters_key(report.clusters) == _clusters_key(expected)
        assert report.max_multiplicity > 2

    def test_single_linkage_chain(self):
        # 1.0 ~ 1.1 and 1.1 ~ 1.2 at tol 0.05, but 1.0 and 1.2 are too far apart
        space = ProductSpace([_uniform([0.0]), _uniform([0.0, 1.0, 2.0])])
        report = twist_multiplicity(_gradient_hook([1.0, 1.1, 1.2]), {(0, 0), (0, 1), (0, 2)},
                                    space, tol_grad=0.05)
        assert [c.cells for c in report.clusters] == [((0, 0), (0, 1), (0, 2))]
        assert report.max_multiplicity == 3

    def test_pair_exactly_at_the_radius_links(self):
        space = ProductSpace([_uniform([0.0]), _uniform([0.0, 1.0])])
        hook = _gradient_hook([0.0, 1.0])
        # distance 1.0, radius 0.5 * (1 + 1.0) = 1.0
        linked = twist_multiplicity(hook, {(0, 0), (0, 1)}, space, tol_grad=0.5)
        assert linked.max_multiplicity == 2
        apart = twist_multiplicity(hook, {(0, 0), (0, 1)}, space, tol_grad=np.nextafter(0.5, 0))
        assert apart.max_multiplicity == 1

    def test_cluster_and_representative_order(self):
        # at x1 = 0: {0, 2} and {1, 3}; at x1 = 1 the same gradients again
        grads = [1.0, 5.0, 1.0 + 1e-9, 5.0 + 1e-9]
        space = ProductSpace([_uniform([0.0, 1.0]), _uniform([0.0, 1.0, 2.0, 3.0])])
        cells = [(i, j) for i in (1, 0) for j in (3, 2, 1, 0)]
        report = twist_multiplicity(_gradient_hook(grads), cells, space)
        assert [(c.axis1_index, c.cells) for c in report.clusters] == [
            (0, ((0, 0), (0, 2))), (0, ((0, 1), (0, 3))),
            (1, ((1, 0), (1, 2))), (1, ((1, 1), (1, 3))),
        ]
        assert [c.gradient[0] for c in report.clusters] == [1.0, 5.0, 1.0, 5.0]
        assert report.witness is report.clusters[0]

    def test_flagged_cells_left_out(self):
        space = ProductSpace([_uniform([0.0, 1.0, 2.0])] * 3)
        cells = {(0, 0, 1), (0, 1, 2), (0, 2, 1), (1, 1, 1), (1, 0, 2)}
        report = twist_multiplicity(Coulomb1D(), cells, space)
        assert report.flagged_cells == ((0, 0, 1), (1, 1, 1))
        expected = _reference_twist_clusters(Coulomb1D(), cells, space)
        assert _clusters_key(report.clusters) == _clusters_key(expected)


class TestRegionOf:
    def test_identity(self):
        assert region_of(([0.0], [1.0], [2.0])) == (0, 1, 2)

    def test_swap(self):
        assert region_of(([1.0], [0.0], [2.0])) == (1, 0, 2)

    def test_coincident_rejected(self):
        with pytest.raises(UndefinedRegionError):
            region_of(([1.0], [1.0], [2.0]))

    def test_multidimensional_rejected(self):
        with pytest.raises(ValueError, match="d = 1"):
            region_of(([0.0, 0.0], [1.0, 1.0]))

