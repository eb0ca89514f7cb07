import math

import numpy as np
import pytest

from mmotlab import (
    Coulomb1D,
    DiscreteMarginal,
    ExpCos,
    NondifferentiableCostError,
    ProductSpace,
    ProductXYZ,
    SingularBlockError,
    Tabulated,
    TwoWell,
    UserHook,
    hessian_offdiag,
    signature,
    three_marginal_criterion,
)
from mmotlab.core import CostModel, InternalConsistencyError, eval_cost
from mmotlab.diff import GRAD_STEP, HESS_STEP, _fd_grad, _fd_mixed_block, grad


def _separated_triple(rng, low=0.0, high=1.0, min_gap=0.05):
    while True:
        xs = np.sort(rng.uniform(low, high, size=3))
        if np.min(np.diff(xs)) > min_gap:
            order = rng.permutation(3)
            return tuple([float(xs[i])] for i in order)


def _random_point(model, rng):
    if isinstance(model, (Coulomb1D, TwoWell)):
        return _separated_triple(rng)
    if isinstance(model, ProductXYZ):
        return tuple([float(v)] for v in rng.uniform(-1, 1, size=3))
    return tuple(rng.uniform(-1, 1, size=2) for _ in range(3))


class TestGradients:
    @pytest.mark.parametrize("model", [Coulomb1D(), ExpCos(), ProductXYZ(), TwoWell()])
    def test_analytic_matches_finite_differences(self, model):
        rng = np.random.default_rng(3)
        for _ in range(100):
            point = _random_point(model, rng)
            xs = model.check_point(point)
            for i in range(3):
                analytic = model.grad(i, xs)
                numeric = _fd_grad(model, xs, i)
                scale = 1.0 + np.max(np.abs(analytic))
                assert np.max(np.abs(analytic - numeric)) <= 1e-6 * scale

    def test_fd_fallback_for_userhook(self):
        model = UserHook(lambda xs: (xs[0][0] - xs[1][0]) ** 2, n=2)
        g = grad(model, ([0.3], [0.1]), 0)
        assert g[0] == pytest.approx(0.4, abs=1e-8)

    def test_coulomb_coincidence_rejected(self):
        with pytest.raises(NondifferentiableCostError):
            grad(Coulomb1D(), ([0.0], [0.0], [1.0]), 0)

    def test_tabulated_rejected(self):
        m = DiscreteMarginal([0.0, 1.0], [0.5, 0.5])
        space = ProductSpace([m, m])
        model = Tabulated([[0.0, 1.0], [1.0, 0.0]], space)
        with pytest.raises(NondifferentiableCostError, match="grid-locked"):
            grad(model, ([0.0], [1.0]), 0)


def _shifted(xs, *shifts):
    """A copy of ``xs`` with ``h`` added to coordinate ``comp`` of ``x_i`` for each (i, comp, h)."""
    out = [np.array(x) for x in xs]
    for i, comp, h in shifts:
        out[i][comp] += h
    return tuple(out)


def _reference_fd_grad(model, xs, i):
    """The central-difference gradient, one cost evaluation per stencil point."""
    out = np.empty(len(xs[i]))
    for comp in range(len(xs[i])):
        h = GRAD_STEP * (1.0 + abs(float(xs[i][comp])))
        up = eval_cost(model, _shifted(xs, (i, comp, h)))
        dn = eval_cost(model, _shifted(xs, (i, comp, -h)))
        out[comp] = (up - dn) / (2.0 * h)
    return out


def _reference_fd_mixed_block(model, xs, i, j):
    """The mixed central-difference block, one cost evaluation per stencil point."""
    d = len(xs[i])
    out = np.empty((d, d))
    for a in range(d):
        hi = HESS_STEP * (1.0 + abs(float(xs[i][a])))
        for b in range(d):
            hj = HESS_STEP * (1.0 + abs(float(xs[j][b])))
            v = [eval_cost(model, _shifted(xs, (i, a, si * hi), (j, b, sj * hj)))
                 for si, sj in ((1, 1), (1, -1), (-1, 1), (-1, -1))]
            out[a, b] = (v[0] - v[1] - v[2] + v[3]) / (4.0 * hi * hj)
    return out


def _soft_pairs(xs):
    """A smooth pairwise cost in any d, evaluated one point at a time."""
    return math.fsum(math.exp(math.sin(3.0 * float(np.dot(a, b))))
                     / (0.1 + float(np.sum((a - b) ** 2)))
                     for k, a in enumerate(xs) for b in xs[k + 1:])


class TestStencils:
    """One ``values`` call per stencil gives the bits of point-by-point evaluation."""

    @pytest.mark.parametrize("d", [1, 2])
    def test_batched_stencils_match_pointwise_and_count_calls(self, d):
        calls = []
        hook = UserHook(lambda xs: calls.append(1) or _soft_pairs(xs), n=3, d=d)
        rng = np.random.default_rng(d)
        for _ in range(10):
            xs = hook.check_point(tuple(rng.uniform(-2, 2, size=d) for _ in range(3)))
            for i in range(3):
                expected = _reference_fd_grad(hook, xs, i)
                calls.clear()
                assert _fd_grad(hook, xs, i).tobytes() == expected.tobytes()
                assert len(calls) == 2 * d
                for j in range(i + 1, 3):
                    expected = _reference_fd_mixed_block(hook, xs, i, j)
                    calls.clear()
                    assert _fd_mixed_block(hook, xs, i, j).tobytes() == expected.tobytes()
                    assert len(calls) == 4 * d * d

    def test_unperturbed_negative_zero_stays_negative(self):
        # the hook reads the signs of coordinates that equal -0.0; a stencil
        # that added a zero step to them would see +0.0
        def cost(xs):
            return (math.copysign(1.0, xs[0][1]) * xs[0][0] * xs[1][0]
                    + math.copysign(1.0, xs[2][0]) * xs[1][1])

        hook = UserHook(cost, n=3, d=2)
        xs = hook.check_point(([0.5, -0.0], [0.25, 0.75], [-0.0, 0.1]))
        g0, g1 = grad(hook, xs, 0), grad(hook, xs, 1)
        assert g0.tobytes() == _reference_fd_grad(hook, xs, 0).tobytes()
        assert g1.tobytes() == _reference_fd_grad(hook, xs, 1).tobytes()
        assert g0[0] == pytest.approx(-0.25, abs=1e-9)
        assert g1 == pytest.approx([-0.5, -1.0], abs=1e-9)
        block = hessian_offdiag(hook, xs).blocks[0][1]
        assert block.tobytes() == _reference_fd_mixed_block(hook, xs, 0, 1).tobytes()
        assert block[0] == pytest.approx([-1.0, 0.0], abs=1e-6)

    def test_infinite_stencil_point_rejected(self):
        hook = UserHook(lambda xs: math.inf if xs[0][0] > 1.0 else xs[0][0] * xs[1][0], n=2)
        with pytest.raises(NondifferentiableCostError, match="stencil"):
            grad(hook, ([1.0], [2.0]), 0)
        with pytest.raises(NondifferentiableCostError, match="stencil"):
            hessian_offdiag(hook, ([1.0], [2.0]))
        assert grad(hook, ([1.0], [2.0]), 1) == pytest.approx([1.0])

    def test_invalid_stencil_value_is_an_internal_error(self):
        class Broken(CostModel):
            kind = "broken"
            dim = 1

            def values(self, xs):
                return np.where(xs[0][..., 0] > 1.0, np.nan, xs[0][..., 0] * xs[1][..., 0])

        with pytest.raises(InternalConsistencyError):
            grad(Broken(), ([1.0], [2.0]), 0)


class TestHessian:
    def test_expcos_at_origin_blocks_are_minus_identity(self):
        zero = (np.zeros(2), np.zeros(2), np.zeros(2))
        hess = hessian_offdiag(ExpCos(), zero)
        for i in range(3):
            assert np.allclose(hess.blocks[i][i], 0.0)
            for j in range(3):
                if i != j:
                    assert np.allclose(hess.blocks[i][j], -np.eye(2), atol=1e-12)

    def test_userhook_with_twowell_callbacks_matches_twowell(self):
        model = TwoWell()
        hook = UserHook(model.value, n=3, grad_fn=model.grad, hess_fn=model.mixed_hessian)
        assert hook.has_analytic_derivatives
        point = ([0.1], [0.7], [0.4])
        expected = hessian_offdiag(model, point).assembled
        assert hessian_offdiag(hook, point).assembled.tobytes() == expected.tobytes()

    def test_userhook_with_only_a_gradient_has_no_hessian(self):
        model = TwoWell()
        hook = UserHook(model.value, n=3, grad_fn=model.grad)
        assert not hook.has_analytic_derivatives
        with pytest.raises(NotImplementedError):
            hook.mixed_hessian(0, 2, model.check_point(([0.1], [0.7], [0.4])))

    def test_assembled_symmetry_on_random_points(self):
        rng = np.random.default_rng(5)
        for model in (Coulomb1D(), ExpCos(), ProductXYZ(), TwoWell()):
            for _ in range(50):
                point = _random_point(model, rng)
                assembled = hessian_offdiag(model, point).assembled
                assert np.max(np.abs(assembled - assembled.T)) <= 1e-9

    def test_analytic_blocks_match_finite_differences(self):
        rng = np.random.default_rng(9)
        for model in (Coulomb1D(), ExpCos(), ProductXYZ(), TwoWell()):
            for _ in range(20):
                if isinstance(model, Coulomb1D):
                    # keep coordinates well apart: the truncation error of
                    # the second-difference stencil grows like the fourth
                    # derivative, which blows up near coincidences
                    gaps = rng.uniform(0.35, 0.5, size=2)
                    base = rng.uniform(0.0, 0.1)
                    coords = [base, base + gaps[0], base + gaps[0] + gaps[1]]
                    order = rng.permutation(3)
                    point = tuple([coords[i]] for i in order)
                else:
                    point = _random_point(model, rng)
                xs = model.check_point(point)
                for i in range(3):
                    for j in range(i + 1, 3):
                        analytic = np.atleast_2d(model.mixed_hessian(i, j, xs))
                        numeric = _fd_mixed_block(model, xs, i, j)
                        scale = 1.0 + np.max(np.abs(analytic))
                        assert np.max(np.abs(analytic - numeric)) <= 1e-4 * scale

    def test_infinite_point_rejected(self):
        with pytest.raises(NondifferentiableCostError):
            hessian_offdiag(Coulomb1D(), ([0.0], [0.0], [1.0]))


class TestSignature:
    def test_coulomb_triple_signature(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            point = _separated_triple(rng)
            sig = signature(hessian_offdiag(Coulomb1D(), point).assembled)
            assert sig.triple == (2, 1, 0)

    def test_expcos_signature(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            point = tuple(rng.uniform(-1, 1, size=2) for _ in range(3))
            sig = signature(hessian_offdiag(ExpCos(), point).assembled)
            assert sig.triple == (4, 2, 0)

    def test_invariant_under_congruence(self):
        # Sylvester's law: S -> P^T S P preserves the signature for any
        # invertible P; checked with well-conditioned random congruences.
        rng = np.random.default_rng(21)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            S = rng.standard_normal((n, n))
            S = (S + S.T) / 2.0
            base = signature(S).triple
            while True:
                P = rng.standard_normal((n, n))
                sv = np.linalg.svd(P, compute_uv=False)
                if sv[0] / sv[-1] <= 10.0:
                    break
            assert signature(P.T @ S @ P).triple == base

    def test_zero_matrix(self):
        sig = signature(np.zeros((3, 3)))
        assert sig.triple == (0, 0, 3)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="not symmetric"):
            signature(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_nonsquare_rejected(self):
        with pytest.raises(ValueError, match="square"):
            signature(np.zeros((2, 3)))

    def test_explicit_zero_tol(self):
        sig = signature(np.diag([1.0, 1e-12, -1.0]), zero_tol=1e-9)
        assert sig.triple == (1, 1, 1)


class TestThreeMarginalCriterion:
    def test_expcos_product_closed_form(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            point = tuple(rng.uniform(-1, 1, size=2) for _ in range(3))
            report = three_marginal_criterion(ExpCos(), point)
            expected = -math.exp(2.0 * point[0][0]) * np.eye(2)
            assert np.max(np.abs(report.product - expected)) <= 1e-8
            assert report.negative_definite

    def test_singular_middle_block(self):
        # xyz has D2_zy = x, which is singular at x = 0
        point = ([0.0], [0.5], [0.7])
        with pytest.raises(SingularBlockError):
            three_marginal_criterion(ProductXYZ(), point)

    def test_xyz_sign_depends_on_x(self):
        # product = y * z / x; negative when coordinates make it so
        report = three_marginal_criterion(ProductXYZ(), ([1.0], [2.0], [-3.0]))
        assert report.product[0][0] == pytest.approx(-6.0)
        assert report.negative_definite

    def test_wrong_arity_rejected(self):
        model = UserHook(lambda xs: 0.0, n=2)
        with pytest.raises(ValueError):
            three_marginal_criterion(model, ([0.0], [1.0]))
