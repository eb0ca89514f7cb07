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
from mmotlab.core import cost_tensor
from mmotlab.experiments import coulomb_perturbed_space


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

    def test_project(self):
        plan = Coupling({(0, 1): 0.25, (0, 0): 0.25, (1, 1): 0.5}, self.space)
        proj = plan.project([0])
        assert proj[(0,)] == pytest.approx(0.5)
        assert proj[(1,)] == pytest.approx(0.5)


class TestDualPotentials:
    def test_total_at(self):
        duals = DualPotentials([np.array([1.0, 2.0]), np.array([10.0, 20.0])])
        assert duals.total_at((1, 0)) == 12.0

    def test_minus_inf_allowed_plus_inf_not(self):
        DualPotentials([np.array([-math.inf, 0.0])])
        with pytest.raises(ValueError):
            DualPotentials([np.array([math.inf, 0.0])])

    def test_grid_sum_adds_axis_by_axis(self, rng):
        u = [rng.normal(size=s) for s in (3, 4, 2)]
        u[1][2] = -math.inf
        total = DualPotentials(u).grid_sum((3, 4, 2))
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
        m1 = DiscreteMarginal(np.sort(rng.uniform(0, 1, 4)), [0.25] * 4)
        m2 = DiscreteMarginal(np.sort(rng.uniform(0, 1, 3)), [1 / 3] * 3)
        space = ProductSpace([m1, m2])
        c = Coulomb1D()
        grid = cost_tensor(c, space)
        for idx in itertools.product(*map(range, space.shape)):
            assert grid[idx] == pytest.approx(eval_cost(c, space.point(idx)), rel=1e-12)

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
        assert grid[(0, 0, 1)] == pytest.approx(2.0)
        assert grid[(1, 1, 1)] == pytest.approx(8.0)


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
        m = DiscreteMarginal(np.sort(rng.uniform(0, 1, 3)), [1 / 3] * 3)
        m3 = DiscreteMarginal(np.sort(rng.uniform(0, 1.5, 4)), [0.25] * 4)
        space = ProductSpace([m, m, m3])
        grid = cost_tensor(TwoWell(), space)
        for idx in itertools.product(*map(range, space.shape)):
            assert grid[idx] == pytest.approx(eval_cost(TwoWell(), space.point(idx)))


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


class TestFactoryAndIteration:
    def test_make_cost(self):
        assert isinstance(make_cost("coulomb1d"), Coulomb1D)
        assert isinstance(make_cost("xyz"), ProductXYZ)
        with pytest.raises(ValueError, match="unknown cost"):
            make_cost("nope")
