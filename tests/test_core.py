import itertools
import math

import numpy as np
import pytest

from mmotlab import (
    Coulomb1D,
    Coupling,
    DiscreteMarginal,
    DualPotentials,
    ExpCos,
    ProductSpace,
    ProductXYZ,
    Tabulated,
    TwoWell,
    UserHook,
    eval_cost,
    make_cost,
    solve_exact,
)
from mmotlab import diff
from mmotlab.core import (
    BUILTIN_COSTS,
    CostModel,
    InternalConsistencyError,
    _grid_sum,
    cost_at,
    cost_tensor,
)
from mmotlab.experiments import coulomb_perturbed_space


def _shuffled_space(rng, sizes, d=1, equal=False, low=0.0):
    """Axes of random points in no particular order (uniform weights)."""
    axes = []
    for size in sizes:
        if not (equal and axes):
            pts = rng.uniform(low, 1.0, size=(size, d))
            if np.all(np.diff(pts[:, 0]) > 0):
                pts = pts[::-1]
            axes.append(DiscreteMarginal(pts, np.full(size, 1.0 / size)))
        else:
            axes.append(axes[0])
    return ProductSpace(axes)


def _assert_grid_is_pointwise(model, space):
    """cost_tensor, cost_at and eval_cost agree bit for bit on every cell."""
    grid = cost_tensor(model, space)
    cells = list(itertools.product(*map(range, space.shape)))
    pointwise = np.array([eval_cost(model, space.point(c)) for c in cells])
    assert grid.shape == space.shape
    assert grid.ravel().tobytes() == pointwise.tobytes()
    assert cost_at(model, space, cells).tobytes() == pointwise.tobytes()


def _assert_transpose_symmetric(model, space):
    grid = cost_tensor(model, space)
    for sigma in itertools.permutations(range(space.n)):
        assert np.array_equal(grid, grid.transpose(sigma)), sigma


class TestDiscreteMarginal:
    def test_basic_properties(self):
        m = DiscreteMarginal([[0.0], [0.5], [1.0]], [0.2, 0.3, 0.5])
        assert m.size == 3 and m.d == 1 and len(m) == 3

    def test_one_dimensional_input_is_reshaped(self):
        m = DiscreteMarginal([0.0, 1.0], [0.5, 0.5])
        assert m.points.shape == (2, 1)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            DiscreteMarginal([0.0, 1.0], [0.5, 0.6])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            DiscreteMarginal([0.0, 1.0], [-0.5, 1.5])

    def test_duplicate_points_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            DiscreteMarginal([0.0, 0.0], [0.5, 0.5])
        with pytest.raises(ValueError, match="distinct"):
            DiscreteMarginal([0.0, -0.0, 1.0], [0.25, 0.25, 0.5])
        with pytest.raises(ValueError, match="distinct"):
            DiscreteMarginal([[1.0, 0.0], [1.0, -0.0]], [0.5, 0.5])

    def test_nan_weight_rejected(self):
        # NaN slips past both the sign and the sum checks
        with pytest.raises(ValueError, match="weights must be finite"):
            DiscreteMarginal([0.0, 1.0, 2.0], [0.5, math.nan, 0.5])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_point_rejected(self, bad):
        with pytest.raises(ValueError, match="points must be finite"):
            DiscreteMarginal([0.0, bad], [0.5, 0.5])

    def test_immutable(self):
        m = DiscreteMarginal([0.0, 1.0], [0.5, 0.5])
        with pytest.raises(ValueError):
            m.points[0, 0] = 3.0

    def test_zero_weight_allowed(self):
        m = DiscreteMarginal([0.0, 1.0], [0.0, 1.0])
        assert m.weights[0] == 0.0


class TestProductSpace:
    def test_needs_two_axes(self):
        m = DiscreteMarginal([0.0, 1.0], [0.5, 0.5])
        with pytest.raises(ValueError, match="at least two"):
            ProductSpace([m])

    def test_dimension_mismatch(self):
        a = DiscreteMarginal([0.0, 1.0], [0.5, 0.5])
        b = DiscreteMarginal([[0.0, 0.0], [1.0, 1.0]], [0.5, 0.5])
        with pytest.raises(ValueError, match="dimension"):
            ProductSpace([a, b])

    def test_shape_and_point(self):
        a = DiscreteMarginal([0.0, 1.0], [0.5, 0.5])
        b = DiscreteMarginal([0.0, 0.5, 1.0], [0.2, 0.3, 0.5])
        space = ProductSpace([a, b])
        assert space.shape == (2, 3) and space.n == 2
        x, y = space.point((1, 2))
        assert x[0] == 1.0 and y[0] == 1.0


class TestCoupling:
    def setup_method(self):
        m = DiscreteMarginal([0.0, 1.0], [0.5, 0.5])
        self.space = ProductSpace([m, m])

    def test_mass_and_support(self):
        plan = Coupling({(0, 0): 0.5, (1, 1): 0.5}, self.space)
        assert plan.mass((0, 0)) == 0.5 and plan.mass((0, 1)) == 0.0
        assert plan.support() == [(0, 0), (1, 1)]

    def test_total_mass_enforced(self):
        with pytest.raises(ValueError, match="total mass"):
            Coupling({(0, 0): 0.5}, self.space)

    def test_nonpositive_mass_rejected(self):
        with pytest.raises(ValueError, match="nonpositive"):
            Coupling({(0, 0): 0.0, (1, 1): 1.0}, self.space)

    def test_nan_mass_rejected(self):
        with pytest.raises(ValueError, match="non-finite mass nan"):
            Coupling({(0, 0): 0.5, (1, 1): math.nan}, self.space)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            Coupling({(0, 5): 1.0}, self.space)

    def test_marginals(self):
        plan = Coupling({(0, 1): 0.5, (1, 0): 0.5}, self.space)
        assert np.allclose(plan.marginal(0), [0.5, 0.5])
        assert np.allclose(plan.marginal(1), [0.5, 0.5])

    def test_permuted(self):
        plan = Coupling({(0, 1): 1.0}, self.space)
        swapped = plan.permuted((1, 0))
        assert swapped.mass((1, 0)) == 1.0

    @pytest.mark.parametrize("sigma", [(0, 0), (1,), (0, 1, 2), (1, 2)])
    def test_permuted_needs_a_permutation(self, sigma):
        plan = Coupling({(0, 1): 1.0}, self.space)
        with pytest.raises(ValueError, match="not a permutation"):
            plan.permuted(sigma)

    def test_permuted_rejects_differing_axes(self):
        # Swapping two axes with different weights would leave the space's
        # marginals: the axis-0 marginal of the result is off by 0.043 here.
        space = coulomb_perturbed_space(6, seed=0)
        plan = solve_exact(Coulomb1D(), space).plan
        with pytest.raises(ValueError, match="axes differ"):
            plan.permuted((1, 0, 2))
        assert plan.permuted((0, 1, 2)) == plan

    def test_permuted_accepts_weights_within_mass_tol(self):
        m = DiscreteMarginal([0.0, 1.0], [0.5, 0.5])
        near = DiscreteMarginal([0.0, 1.0], [0.5 + 4e-13, 0.5 - 4e-13])
        space = ProductSpace([m, near])
        plan = Coupling({(0, 1): 0.5, (1, 0): 0.5}, space)
        assert plan.permuted((1, 0)).mass((1, 0)) == 0.5

    def test_tv_distance(self):
        a = Coupling({(0, 1): 1.0}, self.space)
        b = Coupling({(1, 0): 1.0}, self.space)
        assert a.tv_distance(b) == pytest.approx(1.0)
        assert a.tv_distance(a) == 0.0


class TestDualPotentials:
    def test_minus_inf_allowed_plus_inf_not(self):
        DualPotentials([np.array([-math.inf, 0.0])])
        with pytest.raises(ValueError):
            DualPotentials([np.array([math.inf, 0.0])])

    def test_potential_sum_adds_axis_by_axis(self, rng):
        u = [rng.normal(size=s) for s in (3, 4, 2)]
        u[1][2] = -math.inf
        total = _grid_sum(DualPotentials(u).values)
        expected = ((0.0 + u[0][:, None, None]) + u[1][None, :, None]) + u[2][None, None, :]
        assert total.shape == (3, 4, 2)
        assert total.tobytes() == expected.tobytes()


class TestCoulomb1D:
    def test_value_on_triple(self):
        c = Coulomb1D()
        # gaps 1, 1, 2
        assert eval_cost(c, ([0.0], [1.0], [2.0])) == pytest.approx(2.5)

    def test_infinite_on_coincidence(self):
        c = Coulomb1D()
        assert eval_cost(c, ([0.0], [0.0], [1.0])) == math.inf

    def test_permutation_symmetry(self, rng):
        c = Coulomb1D()
        for _ in range(20):
            xs = [[v] for v in rng.uniform(0, 1, size=3)]
            base = eval_cost(c, xs)
            for perm in itertools.permutations(xs):
                assert eval_cost(c, list(perm)) == base

    def test_grid_values_match_pointwise(self, rng):
        m1 = DiscreteMarginal(rng.uniform(0, 1, 4), [0.25] * 4)
        m2 = DiscreteMarginal(rng.uniform(0, 1, 3), [1 / 3] * 3)
        _assert_grid_is_pointwise(Coulomb1D(), ProductSpace([m1, m2]))
        _assert_grid_is_pointwise(Coulomb1D(), _shuffled_space(rng, (5, 4, 6, 3)))

    def test_tensor_is_symmetric_on_identical_axes(self, rng):
        for n in (3, 4):
            _assert_transpose_symmetric(Coulomb1D(), _shuffled_space(rng, (7,) * n, equal=True))
        # the 15-point uniform grid of the A1 instance
        m = DiscreteMarginal(np.linspace(0.0, 1.0, 15), np.full(15, 1 / 15))
        _assert_transpose_symmetric(Coulomb1D(), ProductSpace([m, m, m]))

    def test_any_arity(self):
        c = Coulomb1D()
        assert eval_cost(c, ([0.0], [1.0])) == pytest.approx(1.0)
        with pytest.raises(ValueError, match="at least 2"):
            eval_cost(c, ([0.0],))


class TestExpCos:
    def test_value(self):
        c = ExpCos()
        xs = ([0.0, 0.0], [0.0, 0.0], [0.0, 0.0])
        # each pair term is -1
        assert eval_cost(c, xs) == pytest.approx(-3.0)

    def test_arity_and_dim_enforced(self):
        c = ExpCos()
        with pytest.raises(ValueError, match="needs 3 arguments"):
            eval_cost(c, ([0.0, 0.0], [0.0, 0.0]))
        with pytest.raises(ValueError, match="R\\^2"):
            eval_cost(c, ([0.0], [0.0], [0.0]))


class TestProductXYZ:
    def test_value_and_symmetry(self, rng):
        c = ProductXYZ()
        for _ in range(20):
            xs = [[v] for v in rng.uniform(-1, 1, size=3)]
            base = eval_cost(c, xs)
            assert base == pytest.approx(xs[0][0] * xs[1][0] * xs[2][0])
            for perm in itertools.permutations(xs):
                assert eval_cost(c, list(perm)) == base

    def test_grid_values(self):
        m = DiscreteMarginal([-1.0, 2.0], [0.5, 0.5])
        space = ProductSpace([m, m, m])
        grid = cost_tensor(ProductXYZ(), space)
        assert grid[(0, 0, 1)] == 2.0
        assert grid[(1, 1, 1)] == 8.0

    def test_tensor_is_symmetric_on_identical_axes(self, rng):
        _assert_transpose_symmetric(ProductXYZ(), _shuffled_space(rng, (9,) * 3, equal=True, low=-1.0))
        m = DiscreteMarginal(np.linspace(0.0, 1.0, 15), np.full(15, 1 / 15))
        _assert_transpose_symmetric(ProductXYZ(), ProductSpace([m, m, m]))


class TestTwoWell:
    def test_zero_on_both_graphs(self):
        c = TwoWell()
        for x in (0.0, 0.3, 0.9):
            assert eval_cost(c, ([x], [x], [x])) == 0.0
            assert eval_cost(c, ([x], [x], [x + 0.5])) == pytest.approx(0.0)

    def test_positive_off_graph(self):
        c = TwoWell()
        assert eval_cost(c, ([0.0], [0.1], [0.0])) > 0
        assert eval_cost(c, ([0.0], [0.0], [0.2])) > 0

    def test_grid_values_match_pointwise(self, rng):
        m = DiscreteMarginal(rng.uniform(0, 1, 3), [1 / 3] * 3)
        m3 = DiscreteMarginal(rng.uniform(0, 1.5, 4), [0.25] * 4)
        _assert_grid_is_pointwise(TwoWell(), ProductSpace([m, m, m3]))
        _assert_grid_is_pointwise(TwoWell(), _shuffled_space(rng, (5, 4, 6)))


class TestTabulated:
    def setup_method(self):
        m = DiscreteMarginal([0.0, 1.0], [0.5, 0.5])
        self.space = ProductSpace([m, m])
        self.model = Tabulated([[0.0, 1.0], [2.0, math.inf]], self.space)

    def test_lookup(self):
        assert eval_cost(self.model, ([1.0], [0.0])) == 2.0
        assert eval_cost(self.model, ([1.0], [1.0])) == math.inf

    def test_off_grid_rejected(self):
        with pytest.raises(ValueError, match="off its grid"):
            eval_cost(self.model, ([0.5], [0.0]))

    def test_lookup_by_coordinates_on_every_path(self):
        # the same points listed in another order address the same entries
        m = DiscreteMarginal([1.0, 0.0], [0.5, 0.5])
        other = ProductSpace([m, m])
        assert cost_tensor(self.model, other).tolist() == [[math.inf, 2.0], [1.0, 0.0]]
        assert cost_at(self.model, other, [(0, 1), (1, 0)]).tolist() == [2.0, 1.0]
        _assert_grid_is_pointwise(self.model, other)

    def test_other_grid_of_the_same_shape_rejected(self):
        m = DiscreteMarginal([0.0, 2.0], [0.5, 0.5])
        with pytest.raises(ValueError, match="off its grid"):
            cost_tensor(self.model, ProductSpace([m, m]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            Tabulated([[0.0, 1.0]], self.space)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            Tabulated([[0.0, math.nan], [0.0, 0.0]], self.space)


class TestUserHook:
    def test_callback(self):
        model = UserHook(lambda xs: float(xs[0][0] + xs[1][0]), n=2)
        assert eval_cost(model, ([1.0], [2.0])) == 3.0

    def test_invalid_return_rejected(self):
        model = UserHook(lambda xs: -math.inf, n=2)
        with pytest.raises(ValueError):
            eval_cost(model, ([0.0], [1.0]))

    def test_grid_calls_the_hook_once_per_cell(self, rng):
        calls = []

        def fn(xs):
            calls.append(xs)
            return math.sin(xs[0][0] * xs[1][0]) + xs[2][0]

        space = _shuffled_space(rng, (3, 4, 2))
        _assert_grid_is_pointwise(UserHook(fn, n=3), space)
        # once per cell for the tensor and once per cell for eval_cost;
        # cost_at reads the held grid
        assert len(calls) == 2 * 24
        assert all(len(xs) == 3 and all(x.shape == (1,) for x in xs) for xs in calls)


class TestGridCache:
    """``cost_tensor`` keeps the last (model, space) grid; it is never stale."""

    def test_grid_is_read_only_and_reused(self, small_symmetric_space):
        model = Coulomb1D()
        grid = cost_tensor(model, small_symmetric_space)
        assert cost_tensor(model, small_symmetric_space) is grid
        with pytest.raises(ValueError):
            grid[0, 1, 2] = 0.0

    def test_alternating_spaces(self, rng):
        model = TwoWell()
        spaces = [_shuffled_space(rng, (3, 4, 2)), _shuffled_space(rng, (3, 4, 2))]
        for space in spaces * 3:
            _assert_grid_is_pointwise(model, space)

    def test_distinct_models_on_one_space(self, rng):
        space = _shuffled_space(rng, (3, 4, 2))
        models = [Tabulated(rng.uniform(size=space.shape), space),
                  Tabulated(rng.uniform(size=space.shape), space),
                  UserHook(lambda xs: float(xs[0][0] - xs[2][0]), n=3),
                  UserHook(lambda xs: float(xs[1][0] * xs[2][0]), n=3)]
        for model in models * 3:
            _assert_grid_is_pointwise(model, space)

    def test_cost_at_reads_the_held_grid(self, rng):
        calls = [0]

        def fn(xs):
            calls[0] += 1
            return float(xs[0][0] * xs[1][0] - xs[2][0])

        model, space = UserHook(fn, n=3), _shuffled_space(rng, (3, 4, 2))
        grid = cost_tensor(model, space)
        cells = [(2, 3, 1), (0, 0, 0), (2, 3, 1), (1, 2, 0)]
        assert cost_at(model, space, cells).tolist() == [grid[c] for c in cells]
        assert calls[0] == 24

    def test_another_space_or_model_evaluates_through_the_hook(self, rng):
        calls = [0]

        def fn(xs):
            calls[0] += 1
            return math.sin(xs[0][0] * xs[1][0]) + xs[2][0]

        model, space = UserHook(fn, n=3), _shuffled_space(rng, (3, 4, 2))
        grid = cost_tensor(model, space)
        cells = np.argwhere(np.ones(space.shape, dtype=bool))
        # equal axes in another space object, and the same callback in another
        # model object: neither is the held pair, so each cell is evaluated
        for other_model, other_space in [(model, ProductSpace(space.axes)),
                                         (UserHook(fn, n=3), space)]:
            before = calls[0]
            values = cost_at(other_model, other_space, cells)
            assert calls[0] == before + 24
            assert values.tobytes() == grid.ravel().tobytes()
        assert cost_tensor(model, space) is grid


class TestOnePath:
    """Every evaluation path gives the bits of the one definition."""

    def test_every_builtin_on_shuffled_axes(self, rng):
        for cls in BUILTIN_COSTS.values():
            model = cls()
            n = model.arity or 4
            # signed coordinates, so xyz also meets products of mixed signs
            space = _shuffled_space(rng, (4, 5, 3, 4)[:n], d=model.dim, low=-1.0)
            _assert_grid_is_pointwise(model, space)
            # cost_at evaluates the cells of a space that is not the held one
            cells = np.argwhere(np.ones(space.shape, dtype=bool))
            evaluated = cost_at(model, ProductSpace(space.axes), cells)
            assert evaluated.tobytes() == cost_tensor(model, space).ravel().tobytes()

    def test_no_cells(self, rng):
        space = _shuffled_space(rng, (3, 2, 4))
        models = [Coulomb1D(), ProductXYZ(), TwoWell(), UserHook(lambda xs: 0.0, n=3),
                  Tabulated(rng.uniform(size=space.shape), space)]
        for model in models:
            assert cost_at(model, space, []).shape == (0,)

    def test_invalid_values_raise_on_every_path(self):
        m = DiscreteMarginal([0.0, 1.0], [0.5, 0.5])
        space = ProductSpace([m, m])

        class Broken(CostModel):
            kind = "broken"

            def values(self, xs):
                return np.where(xs[0][..., 0] > 0.5, np.nan, 0.0) + xs[1][..., 0]

        with pytest.raises(InternalConsistencyError, match="invalid value"):
            cost_tensor(Broken(), space)
        with pytest.raises(InternalConsistencyError, match="invalid value"):
            cost_at(Broken(), space, [(1, 0)])
        assert cost_at(Broken(), space, [(0, 1)]).tolist() == [1.0]
        with pytest.raises(InternalConsistencyError, match="invalid value"):
            diff.grad(Broken(), ([1.0], [0.0]), 0)
        with pytest.raises(InternalConsistencyError, match="invalid value"):
            diff.hessian_offdiag(Broken(), ([1.0], [0.0]))

    def test_a_cost_must_define_values_or_value(self):
        with pytest.raises(NotImplementedError):
            eval_cost(CostModel(), ([0.0], [1.0]))


class TestFactoryAndIteration:
    def test_make_cost(self):
        assert isinstance(make_cost("coulomb1d"), Coulomb1D)
        assert isinstance(make_cost("xyz"), ProductXYZ)
        with pytest.raises(ValueError, match="unknown cost"):
            make_cost("nope")
