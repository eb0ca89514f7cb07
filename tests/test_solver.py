import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linprog

from mmotlab import (
    Coulomb1D,
    Coupling,
    DiscreteMarginal,
    DualPotentials,
    ExpCos,
    InfeasibleTransportError,
    InvalidCertificateError,
    IterationBudgetError,
    ProductSpace,
    ProductXYZ,
    Tabulated,
    TwoWell,
    UserHook,
    c_conjugate_update,
    check_c_monotone,
    duality_gap,
    is_vertex,
    solve_exact,
    splitting_support,
)
from mmotlab import solver
from mmotlab.cli import main
from mmotlab.core import InternalConsistencyError, cost_tensor, eval_cost
from mmotlab.experiments import coulomb_equal_space, coulomb_perturbed_space, twowell_space
from mmotlab.io import dump_marginal
from mmotlab.solver import _check_result, _inverse, _Lp, _simplex

from conftest import brute_force_value_n2, random_rational_marginal


def _uniform_line(points):
    n = len(points)
    return DiscreteMarginal(points, np.full(n, 1.0 / n))


class TestSolveExactTwoMarginals:
    def test_agrees_with_brute_force_enumeration(self):
        rng = np.random.default_rng(7)
        for trial in range(20):
            n1, n2 = rng.integers(2, 5, size=2)
            m1 = random_rational_marginal(rng, int(n1))
            m2 = random_rational_marginal(rng, int(n2))
            space = ProductSpace([m1, m2])
            costs = rng.uniform(-1.0, 1.0, size=(int(n1), int(n2)))
            model = Tabulated(costs, space)
            result = solve_exact(model, space)
            oracle = brute_force_value_n2(costs, m1.weights, m2.weights)
            assert result.primal_value == pytest.approx(oracle, abs=1e-9), trial

    def test_with_infinite_cells_agrees_with_oracle(self):
        rng = np.random.default_rng(11)
        for trial in range(10):
            m1 = random_rational_marginal(rng, 4)
            m2 = random_rational_marginal(rng, 4)
            space = ProductSpace([m1, m2])
            costs = rng.uniform(0.0, 1.0, size=(4, 4))
            costs[0, 0] = math.inf  # one excluded cell keeps it feasible
            model = Tabulated(costs, space)
            result = solve_exact(model, space)
            oracle = brute_force_value_n2(costs, m1.weights, m2.weights)
            assert result.primal_value == pytest.approx(oracle, abs=1e-9), trial


class TestSolveResultContract:
    def setup_method(self):
        m = _uniform_line([0.0, 0.25, 0.5, 0.75, 1.0])
        self.space = ProductSpace([m, m, m])
        self.result = solve_exact(Coulomb1D(), self.space)

    def test_duality_gap_certified(self):
        gap = self.result.primal_value - self.result.dual_value
        assert gap <= 1e-9 * (1.0 + abs(self.result.primal_value))

    def test_marginals_reproduced(self):
        for a in range(3):
            err = np.max(
                np.abs(self.result.plan.marginal(a) - self.space.axes[a].weights)
            )
            assert err <= 1e-12

    def test_vertex_support_bound(self):
        bound = sum(self.space.shape) - self.space.n + 1
        assert len(self.result.plan.entries) <= bound

    def test_support_cells_tight(self):
        for idx in self.result.plan.entries:
            c = eval_cost(Coulomb1D(), self.space.point(idx))
            u = math.fsum(v[i] for v, i in zip(self.result.duals.values, idx))
            assert abs(c - u) <= 1e-9 * (1.0 + abs(c))

    def test_value_invariant_under_axis_point_reordering(self):
        # Enumerating cells in a different order must not change the value.
        m = self.space.axes[0]
        reversed_m = DiscreteMarginal(m.points[::-1], m.weights[::-1])
        space2 = ProductSpace([reversed_m, m, reversed_m])
        other = solve_exact(Coulomb1D(), space2)
        assert other.primal_value == pytest.approx(self.result.primal_value, abs=1e-10)


class TestInfeasibility:
    def test_diagonal_only_cost_infeasible(self):
        m1 = DiscreteMarginal([0.0, 1.0], [0.7, 0.3])
        m2 = DiscreteMarginal([0.0, 1.0], [0.3, 0.7])
        space = ProductSpace([m1, m2])
        costs = [[0.0, math.inf], [math.inf, 0.0]]
        with pytest.raises(InfeasibleTransportError) as err:
            solve_exact(Tabulated(costs, space), space)
        assert (0, 1) in err.value.excluded_cells
        assert (1, 0) in err.value.excluded_cells

    def test_all_cells_infinite(self):
        m = DiscreteMarginal([0.0, 1.0], [0.5, 0.5])
        space = ProductSpace([m, m])
        costs = [[math.inf] * 2] * 2
        with pytest.raises(InfeasibleTransportError) as err:
            solve_exact(Tabulated(costs, space), space)
        assert err.value.excluded_cells == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_coulomb_single_shared_point(self):
        # Two marginals forced onto one identical point can only meet on
        # the diagonal, which coulomb excludes.
        m = DiscreteMarginal([0.5], [1.0])
        space = ProductSpace([m, m])
        with pytest.raises(InfeasibleTransportError):
            solve_exact(Coulomb1D(), space)


class TestCostSpaceMismatch:
    """A cost that cannot be evaluated on the space fails before any pivot,
    with the message ``eval_cost`` gives on one of its cells."""

    @pytest.fixture(autouse=True)
    def no_pivots(self, monkeypatch):
        def pivot(*args, **kwargs):
            raise AssertionError("the simplex started")

        monkeypatch.setattr(solver, "_simplex", pivot)

    @staticmethod
    def _assert_fails_like_eval_cost(model, space):
        with pytest.raises(ValueError) as pointwise:
            eval_cost(model, space.point((0,) * space.n))
        with pytest.raises(ValueError) as solved:
            solve_exact(model, space)
        assert str(solved.value) == str(pointwise.value)
        return str(solved.value)

    def test_coulomb_on_points_in_the_plane(self):
        m = DiscreteMarginal([[0.0, 0.0], [1.0, 0.5]], [0.5, 0.5])
        message = self._assert_fails_like_eval_cost(Coulomb1D(), ProductSpace([m, m, m]))
        assert message == "coulomb1d needs points in R^1, got shape (2,)"

    def test_xyz_on_four_axes(self):
        m = _uniform_line([0.0, 1.0])
        message = self._assert_fails_like_eval_cost(ProductXYZ(), ProductSpace([m] * 4))
        assert message == "xyz needs 3 arguments, got 4"

    def test_tabulated_on_another_grid_of_the_same_shape(self):
        tabled = ProductSpace([_uniform_line([0.0, 1.0])] * 2)
        other = ProductSpace([_uniform_line([2.0, 0.0])] * 2)
        model = Tabulated([[0.0, 1.0], [1.0, 0.0]], tabled)
        message = self._assert_fails_like_eval_cost(model, other)
        assert message == "tabulated cost evaluated off its grid"


class TestConjugateUpdate:
    def test_two_point_minimum(self):
        model = UserHook(lambda xs: (xs[0][0] - xs[1][0]) ** 2, n=2)
        m1 = DiscreteMarginal([0.4], [1.0])
        m2 = DiscreteMarginal([0.0, 1.0], [0.5, 0.5])
        space = ProductSpace([m1, m2])
        duals = DualPotentials([np.zeros(1), np.zeros(2)])
        update = c_conjugate_update(model, space, duals, 0)
        assert update.values[0] == pytest.approx(0.16)
        assert update.undefined == []

    def test_coulomb_zero_duals(self):
        m1 = DiscreteMarginal([0.0], [1.0])
        m23 = DiscreteMarginal([1.0, 2.0], [0.5, 0.5])
        space = ProductSpace([m1, m23, m23])
        duals = DualPotentials([np.zeros(1), np.zeros(2), np.zeros(2)])
        update = c_conjugate_update(Coulomb1D(), space, duals, 0)
        assert update.values[0] == pytest.approx(2.5)

    def test_lp_duals_are_a_fixed_point(self):
        m = _uniform_line([0.0, 1 / 3, 2 / 3, 1.0])
        space = ProductSpace([m, m, m])
        result = solve_exact(Coulomb1D(), space)
        for i in range(3):
            update = c_conjugate_update(Coulomb1D(), space, result.duals, i)
            assert np.max(np.abs(update.values - result.duals.values[i])) <= 1e-9

    def test_undefined_entries_reported(self):
        m = DiscreteMarginal([0.0, 1.0], [0.5, 0.5])
        space = ProductSpace([m, m])
        costs = [[math.inf, math.inf], [0.0, 1.0]]
        duals = DualPotentials([np.zeros(2), np.zeros(2)])
        update = c_conjugate_update(Tabulated(costs, space), space, duals, 0)
        assert update.undefined == [0]
        assert update.values[1] == 0.0

    def test_minus_inf_potential_matches_sequential_subtraction(self):
        rng = np.random.default_rng(11)
        space = ProductSpace([random_rational_marginal(rng, k) for k in (3, 4, 5)])
        costs = rng.uniform(-1.0, 1.0, size=space.shape)
        costs[rng.uniform(size=space.shape) < 0.3] = math.inf
        costs[2] = math.inf  # an axis-0 point with no finite competitor
        u = [rng.uniform(-1.0, 1.0, size=k) for k in space.shape]
        u[1][2] = -math.inf
        model = Tabulated(costs, space)
        update = c_conjugate_update(model, space, DualPotentials(u), 0)  # a warning would fail
        # the reference subtracts the other potentials from c one at a time
        expected = ((costs - u[1][None, :, None]) - u[2][None, None, :]).min(axis=(1, 2))
        assert np.array_equal(np.isposinf(update.values), np.isposinf(expected))
        assert update.undefined == [2]
        finite = np.isfinite(expected)
        np.testing.assert_allclose(update.values[finite], expected[finite], rtol=1e-14, atol=0)

    def test_axis_out_of_range(self):
        m = DiscreteMarginal([0.0, 1.0], [0.5, 0.5])
        space = ProductSpace([m, m])
        duals = DualPotentials([np.zeros(2), np.zeros(2)])
        with pytest.raises(ValueError):
            c_conjugate_update(Coulomb1D(), space, duals, 2)


class TestDualityGap:
    def setup_method(self):
        m = _uniform_line([0.0, 1.0, 2.0])
        self.space = ProductSpace([m, m, m])
        self.result = solve_exact(Coulomb1D(), self.space)

    def test_optimal_pair_gap_small(self):
        gap = duality_gap(Coulomb1D(), self.result.plan, self.result.duals)
        assert abs(gap) <= 1e-9 * (1.0 + abs(self.result.primal_value))

    def test_zero_duals_give_primal_value(self):
        duals = DualPotentials([np.zeros(3)] * 3)
        gap = duality_gap(Coulomb1D(), self.result.plan, duals)
        assert gap == pytest.approx(2.5)

    def test_gap_is_linear_in_dual_perturbation(self):
        base = duality_gap(Coulomb1D(), self.result.plan, self.result.duals)
        u0 = np.array(self.result.duals.values[0])
        u0[1] -= 0.1
        perturbed = DualPotentials([u0, *self.result.duals.values[1:]])
        gap = duality_gap(Coulomb1D(), self.result.plan, perturbed)
        weight = self.space.axes[0].weights[1]
        assert gap - base == pytest.approx(0.1 * weight, abs=1e-12)

    def test_invalid_certificate_rejected(self):
        duals = DualPotentials([np.full(3, 10.0)] * 3)
        with pytest.raises(InvalidCertificateError):
            duality_gap(Coulomb1D(), self.result.plan, duals)


def _mismatched_potentials(u):
    """Potentials that do not match three axes of three points: too few
    vectors, too many, and a short last vector."""
    return [u[:2], (*u, u[0]), (*u[:2], u[2][:1])]


class TestPotentialShapes:
    """Potentials must be one vector per axis, each as long as its axis."""

    def setup_method(self):
        self.space = coulomb_equal_space(3)
        self.result = solve_exact(Coulomb1D(), self.space)

    @pytest.mark.parametrize("case", range(3))
    def test_duality_gap(self, case):
        duals = DualPotentials(_mismatched_potentials(self.result.duals.values)[case])
        with pytest.raises(ValueError, match="potentials must be 3 vectors"):
            duality_gap(Coulomb1D(), self.result.plan, duals)

    @pytest.mark.parametrize("case", range(3))
    def test_splitting_support(self, case):
        duals = DualPotentials(_mismatched_potentials(self.result.duals.values)[case])
        with pytest.raises(ValueError, match="potentials must be 3 vectors"):
            splitting_support(Coulomb1D(), self.space, duals)

    @pytest.mark.parametrize("case", range(3))
    def test_c_conjugate_update(self, case):
        duals = DualPotentials(_mismatched_potentials(self.result.duals.values)[case])
        with pytest.raises(ValueError, match="potentials must be 3 vectors"):
            c_conjugate_update(Coulomb1D(), self.space, duals, 0)


def _soft_coulomb(xs):
    return sum(1.0 / (abs(a[0] - b[0]) + 0.1) for a, b in itertools.combinations(xs, 2))


def _hook_space(n, size, seed):
    rng = np.random.default_rng(seed)
    axes = []
    for _ in range(n):
        w = rng.uniform(0.5, 1.5, size)
        axes.append(DiscreteMarginal(np.sort(rng.uniform(0.0, 1.0, size)), w / w.sum()))
    return ProductSpace(axes)


@pytest.mark.parametrize("model, space", [
    (Coulomb1D(), coulomb_perturbed_space(8, seed=8)),
    (TwoWell(), twowell_space(12)),
    (UserHook(_soft_coulomb, 4), _hook_space(4, 5, seed=5)),
    (Coulomb1D(), ProductSpace([
        DiscreteMarginal([0.0, 0.4, 1.0, 2.0], [0.3, 0.0, 0.4, 0.3]),
        DiscreteMarginal([0.0, 1.0, 2.0, 2.5], [0.25, 0.25, 0.0, 0.5]),
        DiscreteMarginal([0.0, 0.5, 1.0, 2.0], [0.2, 0.3, 0.2, 0.3]),
    ])),
], ids=["coulomb8", "twowell12", "hook-n4", "zero-weight-points"])
def test_certificate_values_have_one_definition(model, space):
    """``duality_gap`` and ``solve_exact`` agree on the primal and dual values bit for bit."""
    r = solve_exact(model, space)
    assert r.plan.transport_cost(model) == r.primal_value
    assert duality_gap(model, r.plan, r.duals) == r.primal_value - r.dual_value


class TestSharedGrid:
    """A solve and the analyses after it evaluate the (model, space) grid once."""

    def test_analyses_reuse_the_solve_grid(self):
        calls = [0]

        def counted(xs):
            calls[0] += 1
            return _soft_coulomb(xs)

        model = UserHook(counted, 3)
        space = _hook_space(3, 5, seed=3)
        result = solve_exact(model, space)
        # the grid once, for the LP, the plan's cost and the certificate
        assert calls[0] == 5 ** 3
        splitting_support(model, space, result.duals)
        for i in range(space.n):
            c_conjugate_update(model, space, result.duals, i)
        duality_gap(model, result.plan, result.duals)
        check_c_monotone(model, result.plan.support(), space)
        assert calls[0] == 5 ** 3


@st.composite
def _axis_permutations(draw):
    """A finite-cost instance, one of its axes and a permutation of that axis."""
    model = draw(st.sampled_from([Coulomb1D(), TwoWell(), ProductXYZ()]))
    sizes = draw(st.lists(st.integers(2, 4), min_size=3, max_size=3))
    # coordinates distinct across all axes keep the Coulomb cost finite
    ticks = draw(st.lists(st.integers(0, 63), min_size=sum(sizes), max_size=sum(sizes),
                          unique=True))
    axes = []
    for size in sizes:
        points, ticks = np.array(ticks[:size]) / 64.0, ticks[size:]
        weights = np.array(draw(st.lists(st.integers(1, 9), min_size=size, max_size=size)))
        axes.append(DiscreteMarginal(points, weights / weights.sum()))
    axis = draw(st.integers(0, 2))
    return model, ProductSpace(axes), axis, draw(st.permutations(range(sizes[axis])))


@settings(max_examples=30)
@given(_axis_permutations())
def test_permuting_one_axis_permutes_the_grid_and_keeps_the_value(case):
    model, space, axis, perm = case
    axes = list(space.axes)
    axes[axis] = DiscreteMarginal(axes[axis].points[perm], axes[axis].weights[perm])
    permuted = ProductSpace(axes)
    grid = cost_tensor(model, space)
    assert cost_tensor(model, permuted).tobytes() == grid.take(perm, axis=axis).tobytes()
    assert cost_tensor(model, space).tobytes() == grid.tobytes()
    value = solve_exact(model, space).primal_value
    assert abs(solve_exact(model, permuted).primal_value - value) <= 1e-12 * (1 + abs(value))


class TestThreeMarginalSmall:
    def test_known_coulomb_triple_value(self):
        m = _uniform_line([0.0, 1.0, 2.0])
        space = ProductSpace([m, m, m])
        result = solve_exact(Coulomb1D(), space)
        # only permutations of (0, 1, 2) are optimal; each costs 2.5
        assert result.primal_value == pytest.approx(2.5)
        for idx in result.plan.entries:
            assert sorted(idx) == [0, 1, 2]

    def test_zero_weight_axis_point_is_unused(self):
        m1 = DiscreteMarginal([0.0, 1.0, 2.0], [0.5, 0.0, 0.5])
        m2 = DiscreteMarginal([0.0, 1.0, 2.0], [0.5, 0.5, 0.0])
        space = ProductSpace([m1, m2])
        result = solve_exact(Coulomb1D(), space)
        assert all(idx[0] != 1 for idx in result.plan.entries)


class TestPivotPath:
    """Iteration counts and exact plans of two fixed solves.

    A solver change that keeps every pivot leaves them bit for bit equal; a
    change to the entering or leaving rule, a tolerance or the arithmetic
    feeding them would almost surely move the counts or the last bits.
    """

    def test_coulomb_perturbed_12(self):
        # Recorded when the simplex started from the row-minimum crash basis
        # (214 pivots from the all-artificial basis before): another optimal
        # vertex, the one this shorter path ends at.
        result = solve_exact(Coulomb1D(), coulomb_perturbed_space(12, seed=1))
        assert result.iterations == 98
        assert dict(result.plan.entries) == {
            (0, 5, 9): 0.045230183329743726, (0, 8, 5): 0.006941928410169551,
            (0, 9, 5): 0.004827347790591852, (1, 5, 9): 0.033679243867839076,
            (1, 6, 9): 0.005251443446344241, (1, 6, 10): 0.02822312763723791,
            (2, 6, 10): 0.015823782288457537, (2, 10, 7): 0.04579726271430819,
            (3, 7, 10): 0.009685866769153319, (3, 7, 11): 0.041040706720473934,
            (3, 8, 11): 0.024242966404686588, (3, 11, 8): 0.0024898393779339556,
            (4, 11, 8): 0.07296662774662277, (5, 0, 9): 0.019244935978813715,
            (5, 9, 0): 0.06007848590354167, (6, 9, 1): 0.03143412882674404,
            (6, 10, 2): 0.059453833014435076, (7, 3, 10): 0.05123678216096214,
            (7, 11, 3): 0.03716441289737495, (8, 0, 5): 0.03637447663505571,
            (8, 4, 11): 0.050988330608604734, (8, 11, 5): 0.008352261580651082,
            (9, 1, 5): 0.030279049834294552, (9, 1, 6): 0.03569788739896282,
            (9, 5, 0): 0.0010819119524125356, (9, 6, 1): 0.023052047231105315,
            (10, 2, 6): 0.04855806445410411, (10, 2, 7): 0.01597471691267585,
            (10, 6, 1): 0.008897409761255776, (10, 7, 2): 0.006407254095281818,
            (10, 7, 3): 0.02970095328053199, (11, 3, 7): 0.020069104782967355,
            (11, 4, 8): 0.020166119192013374, (11, 8, 4): 0.06958750699464866,
        }

    def test_twowell_20(self):
        # The crash basis lands on the two zero-cost graphs, so no pivot is
        # needed (929 from the all-artificial basis), and every mass is 1/42.
        result = solve_exact(TwoWell(), twowell_space(20))
        assert result.iterations == 0
        expected = {}
        for i in range(21):
            expected[(i, i, i)] = expected[(i, i, i + 10)] = 0.023809523809523808
        assert dict(result.plan.entries) == expected

    @pytest.mark.parametrize("make", [
        lambda: (Coulomb1D(), coulomb_perturbed_space(12, seed=1)),
        lambda: (TwoWell(), twowell_space(20)),
        lambda: (Coulomb1D(), ProductSpace([_uniform_line([0.0, 0.25, 0.5, 0.75, 1.0])] * 3)),
        lambda: (Coulomb1D(), ProductSpace([_uniform_line(np.linspace(0.0, 1.0, 9))] * 3)),
    ], ids=["coulomb_perturbed_12", "twowell_20", "coulomb_equal_5", "coulomb_equal_9"])
    def test_path_independent_of_refactor_interval(self, monkeypatch, make):
        # A fresh inverse on every pivot walks the same path as the updates.
        # coulomb_equal_9 has a phase-2 pivot where a held artificial leaves.
        model, space = make()
        updated = solve_exact(model, space)
        monkeypatch.setattr(solver, "_REFACTOR", 1)
        fresh = solve_exact(model, space)
        assert fresh.iterations == updated.iterations
        assert fresh.plan.support() == updated.plan.support()


class TestIterationBudget:
    """An exhausted pivot budget has its own error type, not an internal fault."""

    @pytest.fixture
    def few_pivots(self, monkeypatch):
        monkeypatch.setattr(solver, "_MAX_ITER", 5)  # the solve needs 98

    def test_solve_raises_budget_error(self, few_pivots):
        with pytest.raises(IterationBudgetError, match="budget exhausted") as info:
            solve_exact(Coulomb1D(), coulomb_perturbed_space(12, seed=1))
        assert not isinstance(info.value, InternalConsistencyError)
        assert info.value.pivots == 5

    def test_cli_solve_exits_1(self, few_pivots, tmp_path, capsys):
        args = ["solve", "--cost", "coulomb1d"]
        for a, axis in enumerate(coulomb_perturbed_space(12, seed=1).axes):
            dump_marginal(axis, tmp_path / f"m{a}.json")
            args += ["--marginal", str(tmp_path / f"m{a}.json")]
        assert main(args) == 1
        assert "simplex iteration budget exhausted after 5 pivots" in capsys.readouterr().err


def _fingerprint(plan) -> str:
    """A digest of the exact plan: every support cell with its mass in hex."""
    entries = repr(sorted((cell, float(x).hex()) for cell, x in plan.entries.items()))
    return hashlib.sha256(entries.encode()).hexdigest()[:16]


def _line_space(n, size, seed):
    """Equal points on [0, 1] on every axis, weights jittered by 10%."""
    rng = np.random.default_rng(seed)
    return ProductSpace([DiscreteMarginal(np.linspace(0.0, 1.0, size), w / w.sum())
                         for w in rng.uniform(0.9, 1.1, size=(n, size))])


def _holed_tabulated(seed):
    """A 5 x 4 x 6 random cost with about 30% of its cells at +inf."""
    rng = np.random.default_rng(seed)
    space = ProductSpace([DiscreteMarginal(np.arange(k) / k, w / w.sum())
                          for k in (5, 4, 6) for w in [rng.uniform(0.5, 1.5, k)]])
    costs = rng.uniform(0.0, 1.0, size=space.shape)
    costs[rng.uniform(size=space.shape) < 0.3] = math.inf
    return Tabulated(costs, space), space


@pytest.mark.parametrize("make, iterations, support, digest", [
    (lambda: (Coulomb1D(), coulomb_perturbed_space(8, seed=0)), 40, 22, "b8157361f569e54e"),
    (lambda: (Coulomb1D(), coulomb_perturbed_space(10, seed=0)), 70, 28, "6b1ad9bb4a8e636c"),
    (lambda: (Coulomb1D(), coulomb_perturbed_space(12, seed=0)), 97, 34, "0685f85dfb13b19a"),
    (lambda: (TwoWell(), twowell_space(4)), 0, 10, "328f009ff4056969"),
    (lambda: (TwoWell(), twowell_space(6)), 0, 14, "d94e4d183e6a3b07"),
    (lambda: (TwoWell(), twowell_space(8)), 0, 18, "191a7dba1f7977b7"),
    (lambda: (Coulomb1D(), _line_space(4, 7, seed=4)), 37, 25, "3ac9c9e4ace87035"),
    (lambda: (UserHook(_soft_coulomb, 4), _hook_space(4, 5, seed=5)), 23, 17, "045b480846971b06"),
    (lambda: _holed_tabulated(13), 19, 13, "5472fed999a84462"),
], ids=["coulomb8", "coulomb10", "coulomb12", "twowell4", "twowell6", "twowell8",
        "coulomb-n4", "hook-n4", "tabulated-holes"])
def test_pivot_path_fingerprint(make, iterations, support, digest):
    """Iterations and exact plans of small seeded solves, recorded when the
    simplex started from the row-minimum crash basis; a change that keeps
    every pivot keeps them."""
    result = solve_exact(*make())
    assert (result.iterations, len(result.plan.entries)) == (iterations, support)
    assert _fingerprint(result.plan) == digest


class TestZeroLevelArtificials:
    """Artificials that phase 1 leaves basic at zero stay at zero in phase 2."""

    def test_held_artificial_leaves_instead_of_growing(self):
        # Phase 1 ends with a basic zero-level artificial here.  Without the
        # hold rule a phase-2 pivot lifts it to 0.15 and the plan loses mass.
        m1 = DiscreteMarginal(np.arange(4.0), np.full(4, 3 / 12))
        m2 = DiscreteMarginal(np.arange(5.0), np.array([2, 3, 1, 1, 3]) / 10)
        space = ProductSpace([m1, m2])
        inf = math.inf
        costs = np.array([[inf, 1, 2, 2, inf], [inf, 2, 0, inf, 1],
                          [1, 1, 1, 0, 1], [inf, 1, inf, inf, inf]])
        model = Tabulated(costs, space)
        result = solve_exact(model, space)
        assert result.primal_value == pytest.approx(1.2, abs=1e-12)
        assert result.primal_value == pytest.approx(
            brute_force_value_n2(costs, m1.weights, m2.weights), abs=1e-12)
        _check_result(model, space, result.plan, result.duals, result.primal_value,
                      result.dual_value, solver.TOL_DUAL)

    def test_last_n_minus_1_held_artificials_stay_basic(self):
        # ExpCos on three equal uniform 6 x 6 midpoint grids of [-1, 1]^2.  Once
        # n - 1 artificials are held, d on their rows is rounding (1.7e-10
        # here); letting one leave on it made the basis singular.
        mid = -1.0 + (2 * np.arange(6) + 1) / 6
        m = DiscreteMarginal([(a, b) for a in mid for b in mid], np.full(36, 1 / 36))
        space = ProductSpace([m, m, m])
        result = solve_exact(ExpCos(), space)
        assert result.primal_value == pytest.approx(-5.3408353292989785, abs=1e-12)
        _check_result(ExpCos(), space, result.plan, result.duals, result.primal_value,
                      result.dual_value, solver.TOL_DUAL)

    @settings(max_examples=60)
    @given(st.lists(st.integers(2, 5), min_size=2, max_size=4).flatmap(
        lambda shape: st.tuples(
            st.tuples(*[st.lists(st.integers(1, 3), min_size=k, max_size=k) for k in shape]),
            # codes 3 and 4 are +inf: about 40% of the cells
            arrays(np.int64, tuple(shape), elements=st.integers(0, 4)),
        )))
    def test_degenerate_lps_agree_with_highs(self, case):
        weights, codes = case
        space = ProductSpace([DiscreteMarginal(np.arange(len(w)) / len(w),
                                               np.array(w) / sum(w)) for w in weights])
        costs = np.where(codes > 2, math.inf, codes.astype(float))
        cells = np.argwhere(np.isfinite(costs))
        offsets = np.cumsum([0] + list(space.shape[:-1]))
        A = np.zeros((sum(space.shape), len(cells)))
        for a in range(space.n):
            A[offsets[a] + cells[:, a], np.arange(len(cells))] = 1.0
        b = np.concatenate([ax.weights for ax in space.axes])
        model = Tabulated(costs, space)
        reference = linprog(costs[tuple(cells.T)], A_eq=A, b_eq=b, bounds=(0, None),
                            method="highs") if cells.size else None
        if reference is None or reference.status == 2:  # infeasible
            with pytest.raises(InfeasibleTransportError):
                solve_exact(model, space)
            return
        assert reference.status == 0
        result = solve_exact(model, space)
        assert abs(result.primal_value - reference.fun) <= 1e-9 * (1 + abs(reference.fun))
        assert is_vertex(result.plan).is_extremal


@pytest.mark.parametrize("n, N", [(3, 3), (3, 6), (3, 9), (3, 12), (3, 15),
                                  (4, 4), (4, 8), (5, 5)])
def test_equal_coulomb_meets_the_closed_form(n, N):
    """Colombo-De Pascale-Di Marino: for n | N the cyclic map of order n is optimal."""
    space = ProductSpace([_uniform_line(np.linspace(0.0, 1.0, N))] * n)
    closed_form = (N - 1) * (n / N) * sum((n - g) / g for g in range(1, n))
    assert abs(solve_exact(Coulomb1D(), space).primal_value - closed_form) <= 1e-12 * closed_form


def _comonotone_cells(space):
    """The support of the comonotone coupling: a finite-cost plan on these cells exists."""
    cums = [np.cumsum(ax.weights) for ax in space.axes]
    cuts = np.unique(np.concatenate([[0.0], *cums]))
    mids = (cuts[:-1] + cuts[1:]) / 2
    return {tuple(int(np.searchsorted(c, t)) for c in cums) for t in mids if t < cums[0][-1]}


class TestLpTables:
    """Grid-numbered columns, reduced costs and the basis against a dense
    matrix, on n = 3, 2 and 5 grids with about 30% of their cells at +inf."""

    def setup_method(self):
        self.rng = rng = np.random.default_rng(5)
        self.lps = []
        for shape in [(4, 3, 5), (3, 4), (2, 3, 2, 2, 3)]:
            space = ProductSpace([random_rational_marginal(rng, k) for k in shape])
            costs = rng.uniform(0.0, 1.0, size=shape)
            holes = rng.uniform(size=shape) < 0.3
            for cell in _comonotone_cells(space):  # keep a finite-cost plan
                holes[cell] = False
            costs[holes] = math.inf
            self.lps.append(_Lp(Tabulated(costs, space), space))

    @staticmethod
    def _dense_matrix(lp):
        """Row q is point q - offsets[a] of axis a.  Column j is grid cell j in C order."""
        cells = np.argwhere(np.ones(lp.shape, dtype=bool))
        A = np.zeros((lp.m, lp.size))
        for q in range(lp.m):
            a = np.searchsorted(lp.offsets, q, side="right") - 1
            A[q] = cells[:, a] == q - lp.offsets[a]
        return A

    def test_columns_cover_the_grid_and_kept_rows(self):
        for lp in self.lps:
            assert lp.size == math.prod(lp.shape) == len(lp.in_basis)
            assert lp.m == sum(lp.shape)
            assert 0 < np.isfinite(lp.costs).sum() < lp.size
            assert lp.costs.tobytes() == lp.values.tobytes()

    def test_potential_sum_matches_dense_product(self):
        for lp in self.lps:
            # the rows of every finite cell, as the simplex once priced them
            finite = np.isfinite(lp.costs)
            cell_rows = (np.argwhere(np.isfinite(lp.values)) + lp.offsets).T
            A = self._dense_matrix(lp)
            for _ in range(5):
                y = self.rng.uniform(-1.0, 1.0, size=lp.m)
                gathered = 0.0
                for rows in cell_rows:
                    gathered = gathered + y[rows]
                table = lp.costs[finite] - gathered
                rc = lp.price(lp.costs, y).copy()
                assert rc[finite].tobytes() == table.tobytes()
                assert np.all(rc[~finite] == math.inf)
                np.testing.assert_allclose(rc, lp.costs - A.T @ y, rtol=0, atol=1e-14)

    def test_pricing_allocates_nothing_after_the_first_pass(self):
        space = ProductSpace([random_rational_marginal(self.rng, k) for k in (5, 6, 7, 8)])
        lp = _Lp(Tabulated(self.rng.uniform(0.0, 1.0, size=space.shape), space), space)
        y = self.rng.uniform(-1.0, 1.0, size=lp.m)
        lp.price(lp.costs, y)
        tracemalloc.start()
        try:
            for _ in range(10):
                lp.price(lp.costs, y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1024

    def test_returned_duals_survive_later_pricing(self):
        lp = self.lps[0]
        lp.crash()
        _, y = _simplex(lp, np.where(np.isfinite(lp.costs), 0.0, math.inf), 1.0)
        kept = y.copy()
        lp.price(lp.costs, self.rng.uniform(-1.0, 1.0, size=lp.m))
        assert y.tobytes() == kept.tobytes()

    def test_basic_columns_price_at_zero(self):
        for lp in self.lps:
            basic = self.rng.choice(lp.size, size=3, replace=False)
            lp.in_basis[basic] = True
            rc = lp.price(lp.costs, self.rng.uniform(-1.0, 1.0, size=lp.m))
            assert np.all(rc[basic] == 0.0) and np.all(rc[~lp.in_basis] != 0.0)

    def test_columns_match_dense_matrix(self):
        for lp in self.lps:
            A = self._dense_matrix(lp)
            for j in range(lp.size):
                assert np.array_equal(lp.column(j), A[:, j])

    def test_phase_one_basis_matches_column_reference(self):
        for lp in self.lps:
            size = lp.size
            assert np.array_equal(lp.B, np.eye(lp.m)) and np.array_equal(lp.B_inv, np.eye(lp.m))
            _simplex(lp, np.where(np.isfinite(lp.costs), 0.0, math.inf), 1.0)
            assert lp.pivots > 0 and any(v < size for v in lp.basis)
            reference = np.column_stack([
                lp.column(v) if v < size else np.eye(lp.m)[v - size] for v in lp.basis
            ])
            assert np.array_equal(lp.B, reference)
            # phase 2 starts from this inverse, so it must be the fresh one
            assert lp.B_inv.tobytes() == _inverse(reference).tobytes()
            assert np.array_equal(lp.in_basis, np.isin(np.arange(size), lp.basis))

    def test_an_infinite_cell_never_becomes_basic(self):
        for lp in self.lps:
            finite = np.isfinite(lp.costs)
            x_b, _ = _simplex(lp, np.where(finite, 0.0, math.inf), 1.0)
            assert max((x for v, x in zip(lp.basis, x_b) if v >= lp.size), default=0.0) < 1e-12
            assert not np.any(lp.in_basis & ~finite)
            _simplex(lp, lp.costs, 0.0)
            assert not np.any(lp.in_basis & ~finite)

    def test_all_infinite_grid_is_infeasible_with_the_full_certificate(self):
        for lp in self.lps:
            space = ProductSpace([DiscreteMarginal(np.arange(k) / k, np.full(k, 1 / k))
                                  for k in lp.shape])
            with pytest.raises(InfeasibleTransportError, match="every grid cell") as err:
                solve_exact(Tabulated(np.full(lp.shape, math.inf), space), space)
            assert err.value.excluded_cells == set(itertools.product(*map(range, lp.shape)))

    def test_singular_basis_raises(self):
        lp = self.lps[0]
        B = np.column_stack([lp.column(0), lp.column(0), *np.eye(lp.m)[2:]])
        with pytest.raises(InternalConsistencyError, match="singular"):
            _inverse(B)


def _reference_crash(values, weights):
    """The row-minimum rule cell by cell in plain Python.

    Returns the placed mass and the taken row (axis, point) of every crash
    cell, and the residual weight of every axis point.
    """
    n = values.ndim
    residual = [list(w) for w in weights]
    closed = [set() for _ in range(n)]
    placed = {}
    for p in range(values.shape[0]):
        while p not in closed[0]:
            cells = [c for c in itertools.product([p], *map(range, values.shape[1:]))
                     if values[c] < math.inf and not any(c[a] in closed[a] for a in range(n))]
            if not cells:
                break
            cell = min(cells, key=values.__getitem__)  # the first of the cheapest
            t = min(residual[a][cell[a]] for a in range(n))
            for a in range(n):
                residual[a][cell[a]] -= t
            a = next(a for a in range(n) if residual[a][cell[a]] == 0.0)
            closed[a].add(cell[a])
            placed[cell] = (t, (a, cell[a]))
    return placed, residual


def _zero_weight_space():
    """Zero-weight points on the first and the last axis of a random cost."""
    rng = np.random.default_rng(3)
    weights = [[0.0, 0.3, 0.2, 0.5], [0.25, 0.25, 0.5], [0.4, 0.0, 0.6, 0.0]]
    space = ProductSpace([DiscreteMarginal(np.arange(len(w)) / len(w), w) for w in weights])
    return Tabulated(rng.uniform(0.0, 1.0, size=space.shape), space), space


def _closed_slab(weight):
    """Point 1 of the first axis, of the given weight, has only +inf cells."""
    m1 = DiscreteMarginal([0.0, 1.0, 2.0], [0.5 - weight / 2, weight, 0.5 - weight / 2])
    m2 = _uniform_line([0.0, 1.0, 2.0])
    space = ProductSpace([m1, m2, m2])
    costs = np.random.default_rng(7).uniform(0.0, 1.0, size=space.shape)
    costs[1] = math.inf
    return Tabulated(costs, space), space


#: potentials with signed zeros, -inf, subnormals and magnitudes up to 1e300
_POTENTIAL = st.one_of(
    st.sampled_from([0.0, -0.0, -math.inf, 5e-324, -5e-324, 1e-310, 1e300, -1e300]),
    st.floats(-1e300, 1e300),
)


@st.composite
def _grid_potentials(draw):
    """One potential vector per axis of an n = 2..5 grid with 1-8 points per axis."""
    shape = draw(st.lists(st.integers(1, 8), min_size=2, max_size=5))
    return [np.array(draw(st.lists(_POTENTIAL, min_size=k, max_size=k))) for k in shape]


@settings(max_examples=300)
@given(_grid_potentials())
def test_potential_sum_matches_the_sequential_chain(u):
    n, shape = len(u), tuple(map(len, u))
    expected = 0.0
    for a, v in enumerate(u):
        expected = expected + v.reshape((1,) * a + (-1,) + (1,) * (n - 1 - a))
    terms = np.ones((2, sum(shape)))
    np.concatenate(u, out=terms[1])
    steps = solver._sum_steps(terms, shape)
    if all(np.isfinite(v).all() for v in u):
        total = solver._potential_sum(steps)  # the simplex's case: warnings are errors here
    else:
        with np.errstate(invalid="ignore"):  # 0 * -inf in lanes no cell is read from
            total = solver._potential_sum(steps)
    assert total.tobytes() == expected.tobytes()


class TestCrash:
    """The row-minimum starting basis against a plain-Python replay of its rule."""

    @pytest.mark.parametrize("make, completes", [
        # the last first-axis point finds only +inf diagonal cells open
        (lambda: (Coulomb1D(), coulomb_perturbed_space(8, seed=0)), False),
        (lambda: (TwoWell(), twowell_space(8)), True),
        (lambda: _holed_tabulated(13), False),
        (_zero_weight_space, True),
        (lambda: _closed_slab(0.0), True),
    ], ids=["coulomb-perturbed-8", "twowell8", "tabulated-holes", "zero-weights", "closed-slab"])
    def test_basis_replays_the_rule(self, make, completes):
        model, space = make()
        lp = _Lp(model, space)
        lp.crash()
        placed, residual = _reference_crash(lp.values, [ax.weights for ax in space.axes])
        size, offsets = lp.size, lp.offsets
        cells = {np.unravel_index(v, lp.shape): r for r, v in enumerate(lp.basis) if v < size}
        assert cells == {cell: offsets[a] + p for cell, (_, (a, p)) in placed.items()}
        # B is the columns of those cells and the identity elsewhere, and nonsingular
        reference = np.column_stack([
            lp.column(v) if v < size else np.eye(lp.m)[v - size] for v in lp.basis
        ])
        assert np.array_equal(lp.B, reference) and np.linalg.matrix_rank(lp.B) == lp.m
        assert lp.B_inv.tobytes() == _inverse(reference).tobytes()
        assert np.array_equal(lp.in_basis, np.isin(np.arange(size), lp.basis))
        # x_B: the placed masses, then each artificial at its point's residual
        x_b = lp.B_inv @ lp.b
        expected = np.concatenate(residual)
        for cell, (t, _) in placed.items():
            expected[cells[cell]] = t
        assert min(expected) >= 0.0
        np.testing.assert_allclose(x_b, expected, rtol=0, atol=1e-15)
        unplaced = sum(x for r, x in enumerate(x_b) if lp.basis[r] >= size)
        assert (unplaced <= 1e-12) == completes
        # phase 1 from a complete crash takes no pivot
        _simplex(lp, np.where(np.isfinite(lp.costs), 0.0, math.inf), 1.0)
        assert (lp.pivots == 0) == completes

    def test_crash_holds_less_than_one_grid(self):
        lp = _Lp(Coulomb1D(), coulomb_perturbed_space(60, seed=0))
        tracemalloc.start()
        try:
            lp.crash()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < lp.values.nbytes

    def test_zero_weight_points_take_zero_mass_cells(self):
        model, space = _zero_weight_space()
        lp = _Lp(model, space)
        lp.crash()
        # the zero-weight first-axis point closes at once, on a cell of mass 0
        assert lp.basis[0] < lp.size and (lp.B_inv @ lp.b)[0] == 0.0
        result = solve_exact(model, space)
        assert all(cell[0] != 0 and cell[2] not in (1, 3) for cell in result.plan.entries)

    def test_closed_slab_keeps_its_artificial(self):
        model, space = _closed_slab(0.0)
        lp = _Lp(model, space)
        lp.crash()
        assert lp.basis[1] == lp.size + 1
        assert all(cell[0] != 1 for cell in solve_exact(model, space).plan.entries)

    def test_closed_slab_with_weight_is_infeasible_with_the_full_certificate(self):
        model, space = _closed_slab(0.2)
        with pytest.raises(InfeasibleTransportError, match="phase-1 residual") as err:
            solve_exact(model, space)
        infinite = np.argwhere(~np.isfinite(cost_tensor(model, space)))
        assert err.value.excluded_cells == set(map(tuple, infinite.tolist()))
        assert len(err.value.excluded_cells) == 9


def test_check_result_rejects_duals_infeasible_off_the_support():
    """A tight, zero-gap pair whose duals exceed c off the support is no certificate."""
    m = _uniform_line([0.0, 1.0])
    space = ProductSpace([m, m])
    model = Tabulated([[1.0, 0.0], [0.0, 1.0]], space)
    plan = Coupling({(0, 0): 0.5, (1, 1): 0.5}, space)
    duals = DualPotentials([np.ones(2), np.zeros(2)])
    primal, dual = plan.transport_cost(model), solver._dual_value(duals, space)
    assert primal == dual == 1.0
    with pytest.raises(InvalidCertificateError, match="splitting inequality"):
        _check_result(model, space, plan, duals, primal, dual, solver.TOL_DUAL)
