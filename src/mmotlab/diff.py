"""Gradients, off-diagonal Hessians, signatures, and the product criterion.

Built-in costs expose closed-form derivatives; anything else falls back to
central finite differences with scale-aware steps.
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
    eval_cost,
)


def _reject_grid_locked(model: CostModel):
    # Tabulated costs have no off-grid values, so difference stencils are
    # meaningless; callers should wrap the table in a UserHook interpolant
    # if they need derivatives.
    if isinstance(model, Tabulated):
        raise NondifferentiableCostError(
            "tabulated costs are grid-locked and cannot be differenced"
        )

GRAD_STEP = 1e-5
HESS_STEP = 1e-3


def _perturbed(xs, i: int, comp: int, delta: float):
    out = list(np.array(x) for x in xs)
    out[i] = out[i].copy()
    out[i][comp] += delta
    return tuple(out)


def _fd_grad(model: CostModel, xs, i: int) -> np.ndarray:
    d = xs[i].shape[0]
    out = np.empty(d)
    for comp in range(d):
        h = GRAD_STEP * (1.0 + abs(float(xs[i][comp])))
        up = eval_cost(model, _perturbed(xs, i, comp, h))
        dn = eval_cost(model, _perturbed(xs, i, comp, -h))
        if not (math.isfinite(up) and math.isfinite(dn)):
            raise NondifferentiableCostError(
                "finite-difference stencil hit an infinite-cost point"
            )
        out[comp] = (up - dn) / (2.0 * h)
    return out


def _fd_mixed_block(model: CostModel, xs, i: int, j: int) -> np.ndarray:
    d = xs[i].shape[0]
    out = np.empty((d, d))
    for a in range(d):
        hi = HESS_STEP * (1.0 + abs(float(xs[i][a])))
        for b in range(d):
            hj = HESS_STEP * (1.0 + abs(float(xs[j][b])))
            vals = []
            for si, sj in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                p = _perturbed(_perturbed(xs, i, a, si * hi), j, b, sj * hj)
                v = eval_cost(model, p)
                if not math.isfinite(v):
                    raise NondifferentiableCostError(
                        "finite-difference stencil hit an infinite-cost point"
                    )
                vals.append(v)
            out[a, b] = (vals[0] - vals[1] - vals[2] + vals[3]) / (4.0 * hi * hj)
    return out


def grad(model: CostModel, point, i: int) -> np.ndarray:
    """Gradient with respect to variable ``i``; analytic when available."""
    return grad_at_finite(model, _finite_point(model, point), i)


def grad_at_finite(model: CostModel, point, i: int) -> np.ndarray:
    """``grad`` at a point whose cost the caller already knows is finite."""
    _reject_grid_locked(model)
    xs = model.check_point(point)
    return model.grad(i, xs) if model.has_analytic_derivatives else _fd_grad(model, xs, i)


def _finite_point(model: CostModel, point) -> tuple[np.ndarray, ...]:
    """The checked point; raises unless the cost there is finite and differenceable."""
    _reject_grid_locked(model)
    xs = model.check_point(point)
    if not math.isfinite(model.value(xs)):
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
