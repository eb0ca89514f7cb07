import itertools
import math

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
    InfeasibleTransportError,
    InvalidCertificateError,
    ProductSpace,
    ProductXYZ,
    Tabulated,
    TwoWell,
    UserHook,
    c_conjugate_update,
    duality_gap,
    is_vertex,
    solve_exact,
    splitting_support,
)
from mmotlab import solver
from mmotlab.core import InternalConsistencyError, _potential_sum, cost_tensor, eval_cost
from mmotlab.experiments import coulomb_perturbed_space, twowell_space
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
        cells = len(result.plan.entries)
        # the grid once, for the LP and the certificate; the plan's cells for its cost
        assert calls[0] == 5 ** 3 + cells
        before = calls[0]
        splitting_support(model, space, result.duals)
        for i in range(space.n):
            c_conjugate_update(model, space, result.duals, i)
        assert calls[0] == before
        duality_gap(model, result.plan, result.duals)
        assert calls[0] == before + cells  # the plan's transport cost only


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
        # Recorded when the simplex moved to an updated basis inverse and the
        # entering rule took the lowest index among near-ties: the new
        # arithmetic and tie rule give a different optimal vertex.  Masses
        # re-recorded when phase 2 started from the phase-1 basis with its
        # zero-level artificials: same pivots, last bits moved.
        result = solve_exact(Coulomb1D(), coulomb_perturbed_space(12, seed=1))
        assert result.iterations == 214
        assert dict(result.plan.entries) == {
            (0, 5, 8): 0.043316405045225645, (0, 5, 9): 0.007914499354468918,
            (0, 9, 5): 0.005768555130810427, (1, 6, 9): 0.037742805417308345,
            (1, 9, 5): 0.017158661123788874, (1, 9, 6): 0.012252348410324049,
            (2, 6, 10): 0.006384467548599018, (2, 10, 6): 0.0552365774541667,
            (3, 7, 10): 0.026186078546398317, (3, 11, 7): 0.04660372763723342,
            (3, 11, 8): 0.004669573088616083, (4, 8, 11): 0.02533001956389426,
            (4, 11, 8): 0.047636608182728524, (5, 1, 9): 0.01230814877543919,
            (5, 8, 11): 0.005854875250962122, (5, 9, 0): 0.06116039785595413,
            (6, 1, 9): 0.0454403530755243, (6, 10, 2): 0.04544760876565482,
            (7, 2, 10): 0.012528398605485866, (7, 3, 10): 0.059870614155327684,
            (7, 3, 11): 0.011435272788601625, (7, 10, 3): 0.004566909508921725,
            (8, 4, 11): 0.07115444980061811, (8, 5, 11): 0.0024973863296889054,
            (8, 11, 3): 0.022063232694004467, (9, 0, 5): 0.055619412613869455,
            (9, 1, 5): 0.008228435382293842, (9, 5, 1): 0.02626304842061189,
            (10, 2, 6): 0.016767025988576115, (10, 2, 7): 0.0352373567727179,
            (10, 6, 1): 0.0371205373984933, (10, 7, 2): 0.020413478344062055,
            (11, 7, 3): 0.040235223974980715, (11, 8, 4): 0.06958750699464869,
        }

    def test_twowell_20(self):
        # Recorded from the updated-inverse simplex: every mass is 1/42 up
        # to the last bits, which differ on one cell.
        result = solve_exact(TwoWell(), twowell_space(20))
        assert result.iterations == 929
        expected = {}
        for i in range(21):
            expected[(i, i, i)] = expected[(i, i, i + 10)] = 0.023809523809523808
        expected[(20, 20, 30)] = 0.02380952380952378
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


class TestLpTables:
    """The gathered columns, pricing sums and basis against a dense matrix."""

    def setup_method(self):
        rng = np.random.default_rng(5)
        space = ProductSpace([random_rational_marginal(rng, k) for k in (4, 3, 5)])
        costs = rng.uniform(0.0, 1.0, size=space.shape)
        costs[rng.uniform(size=space.shape) < 0.3] = math.inf
        self.lp = lp = _Lp(Tabulated(costs, space), space)
        # row q is point q - offsets[a] of axis a; the last point of the last
        # axis has no row
        self.A = np.zeros((lp.m, len(lp.cells)))
        for q in range(lp.m):
            a = np.searchsorted(lp.offsets, q, side="right") - 1
            self.A[q] = lp.cells[:, a] == q - lp.offsets[a]
        self.rng = rng

    def test_table_covers_finite_cells_and_kept_rows(self):
        assert len(self.lp.cells) < 4 * 3 * 5
        assert self.lp.m == 4 + 3 + 5 - 1

    def test_potential_sum_matches_dense_product(self):
        lp = self.lp
        for _ in range(5):
            y = self.rng.uniform(-1.0, 1.0, size=lp.m)
            padded = np.append(y, 0.0)  # the sentinel row contributes 0
            total = _potential_sum([padded] * len(lp.cell_rows), lp.cell_rows)
            np.testing.assert_allclose(total, self.A.T @ y, rtol=0, atol=1e-14)

    def test_columns_match_dense_matrix(self):
        for j in range(len(self.lp.cells)):
            assert np.array_equal(self.lp.column(j), self.A[:, j])

    def test_phase_one_basis_matches_column_reference(self):
        lp, ncells = self.lp, len(self.lp.cells)
        assert np.array_equal(lp.B, np.eye(lp.m)) and np.array_equal(lp.B_inv, np.eye(lp.m))
        _simplex(lp, np.zeros(ncells), 1.0)
        assert lp.pivots > 0 and any(v < ncells for v in lp.basis)
        reference = np.column_stack([
            lp.column(v) if v < ncells else np.eye(lp.m)[v - ncells] for v in lp.basis
        ])
        assert np.array_equal(lp.B, reference)
        # phase 2 starts from this inverse, so it must be the fresh one
        assert lp.B_inv.tobytes() == _inverse(reference).tobytes()
        assert np.array_equal(lp.in_basis, np.isin(np.arange(ncells), lp.basis))

    def test_singular_basis_raises(self):
        lp = self.lp
        B = np.column_stack([lp.column(0), lp.column(0), *np.eye(lp.m)[2:]])
        with pytest.raises(InternalConsistencyError, match="singular"):
            _inverse(B)


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
