"""Gradients, off-diagonal Hessians, signatures, and the product criterion.

Built-in costs expose closed-form derivatives; anything else falls back to
central finite differences with scale-aware steps.  A whole stencil goes to
the cost in one ``values`` call: 2d points for a gradient (of one point or
of a batch of points), 4d^2 for a mixed block.  Each stencil point is a copy
of its base point with only the perturbed coordinates shifted, so the
values have the bits of a point-by-point evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    CostModel,
    NondifferentiableCostError,
    SingularBlockError,
    Tabulated,
    _checked_values,
    eval_cost,
)


GRAD_STEP = 1e-5
HESS_STEP = 1e-3
_INFINITE_STENCIL = "finite-difference stencil hit an infinite-cost point"


def _stencil(model: CostModel, xs, shifts) -> np.ndarray:
    """Costs at K shifted copies of the points ``xs``, in one ``values`` call.

    ``xs[a]`` has shape ``B + (d,)``, and the result ``B + (K,)``.  Each
    ``(i, comps, deltas)`` in ``shifts`` adds ``deltas[..., k]`` to
    coordinate ``comps[k]`` of ``x_i`` in copy k, and to nothing else:
    adding 0 elsewhere would turn a -0.0 into +0.0.  A NaN or -inf value
    raises ``InternalConsistencyError``.
    """
    k = len(shifts[0][1])
    pts = [np.repeat(x[..., None, :], k, axis=-2) for x in xs]
    for i, comps, deltas in shifts:
        pts[i][..., np.arange(k), comps] += deltas
    return _checked_values(model, tuple(pts))


def _fd_grads(model: CostModel, xs, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Gradients in ``x_i`` at the points ``xs``, and where their stencils stayed finite.

    With ``xs[a]`` of shape ``B + (d,)``, the gradients have that shape and
    the mask has shape ``B``.
    """
    h = GRAD_STEP * (1.0 + np.abs(xs[i]))
    d = h.shape[-1]
    # copies 2c and 2c + 1 move coordinate c up and down
    steps = np.stack([h, -h], axis=-1).reshape(h.shape[:-1] + (2 * d,))
    vals = _stencil(model, xs, [(i, np.arange(2 * d) // 2, steps)])
    return (vals[..., 0::2] - vals[..., 1::2]) / (2.0 * h), np.isfinite(vals).all(axis=-1)


def _fd_grad(model: CostModel, xs, i: int) -> np.ndarray:
    g, finite = _fd_grads(model, xs, i)
    if not finite.all():
        raise NondifferentiableCostError(_INFINITE_STENCIL)
    return g


def _fd_mixed_block(model: CostModel, xs, i: int, j: int) -> np.ndarray:
    d = xs[i].shape[0]
    hi = HESS_STEP * (1.0 + np.abs(xs[i]))
    hj = HESS_STEP * (1.0 + np.abs(xs[j]))
    # copy (a, b, s) moves x_i[a] by si[s] * hi[a] and x_j[b] by sj[s] * hj[b]
    a, b, s = np.indices((d, d, 4)).reshape(3, -1)
    si, sj = np.array([1.0, 1.0, -1.0, -1.0]), np.array([1.0, -1.0, 1.0, -1.0])
    vals = _stencil(model, xs, [(i, a, si[s] * hi[a]), (j, b, sj[s] * hj[b])])
    if not np.isfinite(vals).all():
        raise NondifferentiableCostError(_INFINITE_STENCIL)
    v = vals.reshape(d, d, 4)
    return (v[..., 0] - v[..., 1] - v[..., 2] + v[..., 3]) / (4.0 * hi[:, None] * hj)


def grad(model: CostModel, point, i: int) -> np.ndarray:
    """Gradient with respect to variable ``i``; analytic when available."""
    xs = _finite_point(model, point)
    return model.grad(i, xs) if model.has_analytic_derivatives else _fd_grad(model, xs, i)


def grads_at(model: CostModel, xs, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Gradients in ``x_i`` at M points of finite cost, and where they are defined.

    ``xs[a]`` has shape ``(M, d)``.  Analytic gradients are taken point by
    point, finite differences in one stencil call; a table has none.
    """
    table = isinstance(model, Tabulated)
    if not (model.has_analytic_derivatives or table):
        return _fd_grads(model, xs, i)
    grads, ok = np.empty(xs[i].shape), np.full(len(xs[i]), not table)
    for k in np.flatnonzero(ok).tolist():
        try:
            grads[k] = model.grad(i, tuple(x[k] for x in xs))
        except NondifferentiableCostError:
            ok[k] = False
    return grads, ok


def _finite_point(model: CostModel, point) -> tuple[np.ndarray, ...]:
    """The checked point; raises unless the cost there is finite and differenceable."""
    # a table has no off-grid values to difference; callers who need
    # derivatives wrap it in a UserHook interpolant
    if isinstance(model, Tabulated):
        raise NondifferentiableCostError(
            "tabulated costs are grid-locked and cannot be differenced"
        )
    xs = model.check_point(point)
    if eval_cost(model, xs) == math.inf:  # NaN and -inf raise there
        raise NondifferentiableCostError("cost is infinite at the requested point")
    return xs


@dataclass(frozen=True)
class OffDiagonalHessian:
    """The mixed second-derivative blocks of the cost, diagonal blocks zero."""

    blocks: tuple  # n x n nested tuple of (d, d) arrays
    n: int
    d: int

    @property
    def assembled(self) -> np.ndarray:
        """The symmetric nd x nd block matrix."""
        rows = [np.hstack(row) for row in self.blocks]
        return np.vstack(rows)


def hessian_offdiag(model: CostModel, point) -> OffDiagonalHessian:
    """All mixed blocks D^2_{x_i x_j} c at one point.

    Blocks with i < j are computed directly; the mirror blocks are their
    transposes, so the assembled matrix is symmetric by construction.
    """
    xs = _finite_point(model, point)
    n = len(xs)
    d = xs[0].shape[0]
    blocks = [[np.zeros((d, d)) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if model.has_analytic_derivatives:
                blk = np.atleast_2d(model.mixed_hessian(i, j, xs))
            else:
                blk = _fd_mixed_block(model, xs, i, j)
            blocks[i][j] = blk
            blocks[j][i] = blk.T
    frozen = tuple(tuple(row) for row in blocks)
    return OffDiagonalHessian(frozen, n, d)


@dataclass(frozen=True)
class SignatureReport:
    """Eigenvalue sign counts (n_plus, n_minus, n_zero) of a symmetric matrix."""

    n_plus: int
    n_minus: int
    n_zero: int
    zero_tol: float
    eigenvalues: np.ndarray

    @property
    def triple(self) -> tuple[int, int, int]:
        return (self.n_plus, self.n_minus, self.n_zero)


def signature(matrix: np.ndarray, zero_tol: float | None = None) -> SignatureReport:
    """Count positive, negative, and (numerically) zero eigenvalues.

    ``zero_tol`` defaults to 1e-8 times the spectral radius.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("signature needs a square matrix")
    asym = np.max(np.abs(matrix - matrix.T)) if matrix.size else 0.0
    if asym > 1e-9:
        raise ValueError(f"matrix is not symmetric (defect {asym:.3e})")
    eig = np.sort(np.linalg.eigvalsh((matrix + matrix.T) / 2.0))
    if zero_tol is None:
        radius = float(np.max(np.abs(eig))) if eig.size else 0.0
        zero_tol = 1e-8 * radius
    n_zero = int(np.count_nonzero(np.abs(eig) <= zero_tol))
    n_plus = int(np.count_nonzero(eig > zero_tol))
    n_minus = int(np.count_nonzero(eig < -zero_tol))
    return SignatureReport(n_plus, n_minus, n_zero, zero_tol, eig)


@dataclass(frozen=True)
class ProductCriterionReport:
    """The three-marginal product matrix and its definiteness verdict."""

    product: np.ndarray
    negative_definite: bool
    symmetric_part_eigenvalues: np.ndarray


def three_marginal_criterion(
    model: CostModel, point, zero_tol: float = 1e-10
) -> ProductCriterionReport:
    """Evaluate D^2_{xy}c [D^2_{zy}c]^{-1} D^2_{zx}c and test its sign.

    The verdict is negative definiteness of the symmetric part of the
    product.  Raises ``SingularBlockError`` when the middle block is not
    invertible.
    """
    hess = hessian_offdiag(model, point)
    if hess.n != 3:
        raise ValueError("the product criterion is defined for three marginals")
    c_xy = hess.blocks[0][1]
    c_zy = hess.blocks[2][1]
    c_zx = hess.blocks[2][0]
    sv = np.linalg.svd(c_zy, compute_uv=False)
    if sv.size == 0 or sv[-1] <= 1e-12 * max(sv[0], 1.0):
        raise SingularBlockError("middle block D2_zy is singular")
    product = c_xy @ np.linalg.inv(c_zy) @ c_zx
    sym_eigs = np.sort(np.linalg.eigvalsh((product + product.T) / 2.0))
    verdict = bool(np.all(sym_eigs < -zero_tol))
    return ProductCriterionReport(product, verdict, sym_eigs)
