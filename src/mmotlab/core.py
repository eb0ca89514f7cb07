"""Domain types for discrete multi-marginal transport.

Marginals are weighted finite point sets in R^d, couplings are sparse
probability measures on the product grid, and cost models evaluate an
extended-real cost (finite or +inf, never -inf / NaN) together with
analytic first and mixed second derivatives where available.

All types are immutable after construction; couplings refer to points by
axis-local index, never by coordinate, so support comparisons are exact.
"""

from __future__ import annotations

import itertools
import math
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

import numpy as np

MASS_TOL = 1e-12


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------

class TransportError(Exception):
    """Base class for domain errors raised by this package."""


class InfeasibleTransportError(TransportError):
    """No coupling supported on finite-cost cells matches the marginals.

    ``excluded_cells`` carries the certificate: the set of grid cells
    removed because their cost is +inf.
    """

    def __init__(self, message: str, excluded_cells=()):
        super().__init__(message)
        self.excluded_cells = frozenset(excluded_cells)


class InternalConsistencyError(TransportError):
    """A state that is impossible on valid inputs (e.g. an unbounded LP)."""


class InvalidCertificateError(TransportError):
    """Dual potentials violate the splitting inequality beyond tolerance."""


class NondifferentiableCostError(TransportError):
    """Derivative requested at a point where the cost is not differentiable."""


class SingularBlockError(TransportError):
    """A mixed-Hessian block required to be invertible is singular."""


class UndefinedRegionError(TransportError):
    """Order region requested for a point with coincident coordinates."""


class InconsistentCouplingError(TransportError):
    """A coupling violates a structural precondition (e.g. empty fibre)."""


class PreconditionError(TransportError):
    """An operation's documented precondition does not hold."""


# ---------------------------------------------------------------------------
# Marginals and product spaces
# ---------------------------------------------------------------------------

def _as_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    if pts.ndim != 2 or pts.shape[0] == 0 or pts.shape[1] < 1:
        raise ValueError("points must be a nonempty (N, d) array with d >= 1")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite (got NaN or inf)")
    return pts


class DiscreteMarginal:
    """A probability measure on finitely many pairwise-distinct points of R^d."""

    __slots__ = ("points", "weights")

    def __init__(self, points, weights):
        pts = _as_points(points)
        w = np.asarray(weights, dtype=float)
        if w.ndim != 1 or w.shape[0] != pts.shape[0]:
            raise ValueError("weights must be a vector matching the point count")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite (got NaN or inf)")
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        if abs(w.sum() - 1.0) > MASS_TOL:
            raise ValueError(f"weights must sum to 1 (got {w.sum()!r})")
        if len({pt.tobytes() for pt in pts + 0.0}) != pts.shape[0]:  # + 0.0 maps -0.0 to 0.0
            raise ValueError("points must be pairwise distinct")
        pts.setflags(write=False)
        w.setflags(write=False)
        self.points = pts
        self.weights = w

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.size

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DiscreteMarginal)
            and np.array_equal(self.points, other.points)
            and np.array_equal(self.weights, other.weights)
        )

    def __repr__(self) -> str:
        return f"DiscreteMarginal(n_points={self.size}, d={self.d})"


class ProductSpace:
    """The product of n >= 2 discrete axes sharing one point dimension d."""

    __slots__ = ("axes",)

    def __init__(self, axes: Sequence[DiscreteMarginal]):
        axes = tuple(axes)
        if len(axes) < 2:
            raise ValueError("a product space needs at least two axes")
        d = axes[0].d
        if any(ax.d != d for ax in axes):
            raise ValueError("all axes must share the same point dimension")
        self.axes = axes

    @property
    def n(self) -> int:
        return len(self.axes)

    @property
    def d(self) -> int:
        return self.axes[0].d

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(ax.size for ax in self.axes)

    def point(self, idx: Sequence[int]) -> tuple[np.ndarray, ...]:
        """Coordinates of the grid cell ``idx`` as a tuple of d-vectors."""
        return tuple(ax.points[i] for ax, i in zip(self.axes, idx))

    def __repr__(self) -> str:
        return f"ProductSpace(shape={self.shape}, d={self.d})"


# ---------------------------------------------------------------------------
# Couplings
# ---------------------------------------------------------------------------

class Coupling:
    """A sparse probability measure on the product grid.

    Entries map index tuples to strictly positive masses; zero-mass cells
    are never stored.  Total mass must be 1 within ``MASS_TOL``.
    """

    __slots__ = ("entries", "space")

    def __init__(self, entries: Mapping[tuple[int, ...], float], space: ProductSpace):
        shape = space.shape
        clean: dict[tuple[int, ...], float] = {}
        for idx, mass in entries.items():
            idx = tuple(int(i) for i in idx)
            if len(idx) != space.n:
                raise ValueError(f"index tuple {idx} has wrong arity")
            if any(i < 0 or i >= shape[a] for a, i in enumerate(idx)):
                raise ValueError(f"index tuple {idx} out of range for shape {shape}")
            if not 0 < mass < math.inf:
                raise ValueError(f"cell {idx} has nonpositive or non-finite mass {mass}")
            clean[idx] = float(mass)
        total = math.fsum(clean.values())
        if abs(total - 1.0) > MASS_TOL:
            raise ValueError(f"total mass must be 1 (got {total!r})")
        self.entries = MappingProxyType(clean)
        self.space = space

    def support(self, tol_mass: float = 0.0) -> list[tuple[int, ...]]:
        """Cells with mass above ``tol_mass``, in lexicographic order."""
        return sorted(idx for idx, m in self.entries.items() if m > tol_mass)

    def mass(self, idx: Sequence[int]) -> float:
        return self.entries.get(tuple(idx), 0.0)

    def marginal(self, axis: int) -> np.ndarray:
        """Weights of the projection onto one axis."""
        out = np.zeros(self.space.shape[axis])
        for idx, m in self.entries.items():
            out[idx[axis]] += m
        return out

    def permuted(self, sigma: Sequence[int]) -> "Coupling":
        """Push-forward under the coordinate permutation ``sigma``.

        ``sigma[a]`` is the source slot feeding output slot ``a``.  Raises
        ``ValueError`` unless ``sigma`` permutes ``range(n)`` and every axis it
        moves equals its target slot's axis (same points, weights within
        ``MASS_TOL``), so that the result stays inside the same space.
        """
        axes = self.space.axes
        if sorted(sigma) != list(range(len(axes))):
            raise ValueError(f"{tuple(sigma)} is not a permutation of range({len(axes)})")
        for a, src in enumerate(sigma):
            if src != a and not (
                np.array_equal(axes[src].points, axes[a].points)
                and np.max(np.abs(axes[src].weights - axes[a].weights)) <= MASS_TOL
            ):
                raise ValueError(f"permuting axis {src} onto axis {a}: the axes differ")
        entries = {}
        for idx, m in self.entries.items():
            key = tuple(idx[sigma[a]] for a in range(len(idx)))
            entries[key] = entries.get(key, 0.0) + m
        return Coupling(entries, self.space)

    def transport_cost(self, model: "CostModel") -> float:
        costs = cost_at(model, self.space, list(self.entries)).tolist()
        return math.fsum(m * c for m, c in zip(self.entries.values(), costs))

    def tv_distance(self, other: "Coupling") -> float:
        keys = set(self.entries) | set(other.entries)
        return 0.5 * math.fsum(abs(self.mass(k) - other.mass(k)) for k in keys)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Coupling)
            and self.space is other.space
            and dict(self.entries) == dict(other.entries)
        )

    def __repr__(self) -> str:
        return f"Coupling(n_cells={len(self.entries)}, shape={self.space.shape})"


class DualPotentials:
    """Kantorovich potentials: one value vector per axis, entries in [-inf, inf)."""

    __slots__ = ("values",)

    def __init__(self, values: Sequence[np.ndarray]):
        vals = []
        for v in values:
            v = np.asarray(v, dtype=float)
            if v.ndim != 1:
                raise ValueError("each potential must be a vector")
            if np.any(np.isposinf(v)) or np.any(np.isnan(v)):
                raise ValueError("potential entries must lie in [-inf, inf)")
            v.setflags(write=False)
            vals.append(v)
        self.values = tuple(vals)


# ---------------------------------------------------------------------------
# Cost models
# ---------------------------------------------------------------------------

class CostModel:
    """Evaluator for a cost c on n-tuples of points in R^d.

    A cost is defined once, by ``values`` on broadcast coordinate arrays;
    the scalar ``value`` is ``values`` on a single cell.  A cost that only
    has a scalar definition (``UserHook``) overrides ``value`` instead, and
    the base ``values`` calls it once per cell.  Subclasses with closed-form
    derivatives override ``grad`` and ``mixed_hessian`` and set
    ``has_analytic_derivatives``.
    """

    kind: str = "abstract"
    #: required number of arguments, or None when any n >= 2 is accepted
    arity: int | None = None
    #: required point dimension
    dim: int = 1
    has_analytic_derivatives = False

    def values(self, xs: tuple[np.ndarray, ...]) -> np.ndarray:
        """Costs of many cells at once (may contain +inf).

        ``xs[a]`` holds the axis-``a`` coordinates with shape ``S + (d,)``,
        where the ``S`` broadcast against each other; the result has the
        broadcast shape ``S``.
        """
        if type(self).value is CostModel.value:
            raise NotImplementedError(f"{self.kind} defines neither values nor value")
        shape = np.broadcast_shapes(*(x.shape[:-1] for x in xs))
        rows = [np.broadcast_to(x, shape + x.shape[-1:]).reshape(-1, x.shape[-1]) for x in xs]
        return np.fromiter(map(self.value, zip(*rows)), float, len(rows[0])).reshape(shape)

    def value(self, xs: tuple[np.ndarray, ...]) -> float:
        """The cost at one point, given as a tuple of d-vectors."""
        return float(self.values(xs))

    def grad(self, i: int, xs: tuple[np.ndarray, ...]) -> np.ndarray:
        raise NotImplementedError(f"{self.kind} has no analytic gradient")

    def mixed_hessian(self, i: int, j: int, xs: tuple[np.ndarray, ...]) -> np.ndarray:
        raise NotImplementedError(f"{self.kind} has no analytic Hessian")

    def check_point(self, xs: Sequence) -> tuple[np.ndarray, ...]:
        """Validate arity and dimension; normalize to a tuple of d-vectors."""
        xs = tuple(np.atleast_1d(np.asarray(x, dtype=float)) for x in xs)
        if self.arity is not None and len(xs) != self.arity:
            raise ValueError(f"{self.kind} needs {self.arity} arguments, got {len(xs)}")
        if self.arity is None and len(xs) < 2:
            raise ValueError(f"{self.kind} needs at least 2 arguments")
        for x in xs:
            if x.shape != (self.dim,):
                raise ValueError(f"{self.kind} needs points in R^{self.dim}, got shape {x.shape}")
        return xs


def _sorted_coords(xs) -> list[np.ndarray]:
    """First coordinates of ``xs`` sorted ascending, elementwise over the broadcast.

    An insertion-sort network of ``np.minimum``/``np.maximum`` exchanges;
    it gives the bits ``np.sort`` would, without stacking the arrays.
    """
    s = [x[..., 0] for x in xs]
    for i in range(1, len(s)):
        for j in range(i, 0, -1):
            s[j - 1], s[j] = np.minimum(s[j - 1], s[j]), np.maximum(s[j - 1], s[j])
    return s


class Coulomb1D(CostModel):
    """Pairwise-repulsion cost sum_{i<j} 1/|x_i - x_j| on the line.

    Evaluates to +inf whenever two coordinates coincide.  The coordinates
    are sorted before the pair terms are added, so the value is bitwise
    invariant under all permutations of the arguments.
    """

    kind = "coulomb1d"
    arity = None
    dim = 1
    has_analytic_derivatives = True

    def values(self, xs):
        s = _sorted_coords(xs)
        shape = np.broadcast_shapes(*(np.shape(v) for v in s))
        total = np.zeros(shape)
        term = np.empty(shape)  # each pair term is formed in this one buffer
        with np.errstate(divide="ignore"):
            for a, b in itertools.combinations(range(len(s)), 2):
                np.subtract(s[b], s[a], out=term)
                np.abs(term, out=term)
                np.divide(1.0, term, out=term)
                total += term
        return total

    def grad(self, i, xs):
        xi = float(xs[i][0])
        total = 0.0
        for j, xj in enumerate(xs):
            if j == i:
                continue
            w = xi - float(xj[0])
            if w == 0.0:
                raise NondifferentiableCostError(
                    "coulomb1d is not differentiable at coincident coordinates"
                )
            total += -w / abs(w) ** 3
        return np.array([total])

    def mixed_hessian(self, i, j, xs):
        w = float(xs[i][0]) - float(xs[j][0])
        if w == 0.0:
            raise NondifferentiableCostError(
                "coulomb1d is not differentiable at coincident coordinates"
            )
        return np.array([[-2.0 / abs(w) ** 3]])


class ExpCos(CostModel):
    """Three-marginal cost on R^2 built from -e^{a1+b1} cos(a2-b2) pair terms."""

    kind = "expcos"
    arity = 3
    dim = 2
    has_analytic_derivatives = True

    def values(self, xs):
        def pair(a, b):
            return -np.exp(a[..., 0] + b[..., 0]) * np.cos(a[..., 1] - b[..., 1])

        x, y, z = xs
        return pair(x, y) + pair(x, z) + pair(y, z)

    def grad(self, i, xs):
        out = np.zeros(2)
        a = xs[i]
        for j, b in enumerate(xs):
            if j == i:
                continue
            e = math.exp(a[0] + b[0])
            delta = a[1] - b[1]
            out[0] += -e * math.cos(delta)
            out[1] += e * math.sin(delta)
        return out

    def mixed_hessian(self, i, j, xs):
        # Only the (i, j) pair term depends on both variables.
        a, b = xs[i], xs[j]
        e = math.exp(a[0] + b[0])
        delta = a[1] - b[1]
        return -e * np.array(
            [[math.cos(delta), math.sin(delta)], [-math.sin(delta), math.cos(delta)]]
        )


class ProductXYZ(CostModel):
    """The cost c(x, y, z) = x*y*z on the line.

    The factors are multiplied in sorted order, (a*b)*c, so the value is
    bitwise invariant under permutations of the arguments.
    """

    kind = "xyz"
    arity = 3
    dim = 1
    has_analytic_derivatives = True

    def values(self, xs):
        a, b, c = _sorted_coords(xs)
        return (a * b) * c

    def grad(self, i, xs):
        others = [float(xs[j][0]) for j in range(3) if j != i]
        return np.array([others[0] * others[1]])

    def mixed_hessian(self, i, j, xs):
        (k,) = [a for a in range(3) if a not in (i, j)]
        return np.array([[float(xs[k][0])]])


def _twowell_p1(w: float) -> float:
    # derivative of w^2 (w + 1/2)^2 = w^4 + w^3 + w^2/4
    return 4.0 * w**3 + 3.0 * w**2 + 0.5 * w


def _twowell_p2(w: float) -> float:
    return 12.0 * w**2 + 6.0 * w + 0.5


class TwoWell(CostModel):
    """The cost c(x, y, z) = (x-y)^2 + (x-z)^2 (x-z+1/2)^2 on the line.

    Vanishes exactly on the two graphs (y, z) = (x, x) and (x, x+1/2).
    """

    kind = "twowell"
    arity = 3
    dim = 1
    has_analytic_derivatives = True

    def values(self, xs):
        x, y, z = (v[..., 0] for v in xs)
        w = x - z
        return (x - y) ** 2 + w**2 * (w + 0.5) ** 2

    def grad(self, i, xs):
        x, y, z = (float(v[0]) for v in xs)
        w = x - z
        if i == 0:
            return np.array([2.0 * (x - y) + _twowell_p1(w)])
        if i == 1:
            return np.array([-2.0 * (x - y)])
        return np.array([-_twowell_p1(w)])

    def mixed_hessian(self, i, j, xs):
        x, _, z = (float(v[0]) for v in xs)
        pair = {i, j}
        if pair == {0, 1}:
            return np.array([[-2.0]])
        if pair == {0, 2}:
            return np.array([[-_twowell_p2(x - z)]])
        return np.array([[0.0]])


class Tabulated(CostModel):
    """A cost given as a dense value array over one fixed product grid.

    Only evaluable at grid points: coordinates are matched exactly (by
    their bytes) against the axis point sets, on every evaluation path.
    """

    kind = "tabulated"

    def __init__(self, values, space: ProductSpace):
        values = np.asarray(values, dtype=float)
        if values.shape != space.shape:
            raise ValueError(f"value array shape {values.shape} != grid shape {space.shape}")
        if np.any(np.isnan(values)) or np.any(np.isneginf(values)):
            raise ValueError("tabulated values must be finite or +inf")
        values.setflags(write=False)
        self.table = values
        self.arity = space.n
        self.dim = space.d
        self._lookup = [
            {pt.tobytes(): i for i, pt in enumerate(ax.points)} for ax in space.axes
        ]

    def values(self, xs):
        idx = []
        for x, lookup in zip(xs, self._lookup):
            rows = np.ascontiguousarray(x, dtype=float).reshape(-1, x.shape[-1])
            found = [lookup.get(row.tobytes()) for row in rows]
            if None in found:
                raise ValueError("tabulated cost evaluated off its grid")
            idx.append(np.array(found, dtype=np.intp).reshape(x.shape[:-1]))
        return self.table[tuple(idx)]


class UserHook(CostModel):
    """An injectable cost callback, optionally with derivative callbacks.

    The callback is the cost's one definition; grids and cell lists call
    it once per cell.
    """

    kind = "userhook"

    def __init__(self, fn: Callable, n: int, d: int = 1, grad_fn=None, hess_fn=None):
        self.fn = fn
        self.arity = n
        self.dim = d
        self.grad_fn = grad_fn
        self.hess_fn = hess_fn
        self.has_analytic_derivatives = grad_fn is not None and hess_fn is not None

    def value(self, xs):
        v = float(self.fn(xs))
        if math.isnan(v) or v == -math.inf:
            raise ValueError("cost hooks must return a value in (-inf, inf]")
        return v

    def grad(self, i, xs):
        if self.grad_fn is None:
            raise NotImplementedError("userhook cost has no gradient callback")
        return np.atleast_1d(np.asarray(self.grad_fn(i, xs), dtype=float))

    def mixed_hessian(self, i, j, xs):
        if self.hess_fn is None:
            raise NotImplementedError("userhook cost has no hessian callback")
        return np.atleast_2d(np.asarray(self.hess_fn(i, j, xs), dtype=float))


BUILTIN_COSTS = {
    "coulomb1d": Coulomb1D,
    "expcos": ExpCos,
    "xyz": ProductXYZ,
    "twowell": TwoWell,
}


def make_cost(kind: str) -> CostModel:
    """Instantiate a built-in cost by name."""
    try:
        return BUILTIN_COSTS[kind]()
    except KeyError:
        raise ValueError(f"unknown cost kind {kind!r}; known: {sorted(BUILTIN_COSTS)}")


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def eval_cost(model: CostModel, point: Sequence) -> float:
    """Evaluate the cost at an n-tuple of points; returns a float or +inf."""
    xs = model.check_point(point)
    v = model.value(xs)
    if math.isnan(v) or v == -math.inf:
        raise InternalConsistencyError(f"{model.kind} produced an invalid value {v}")
    return v


def _evaluate(model: CostModel, space: ProductSpace, xs) -> np.ndarray:
    """``model.values(xs)`` after ``eval_cost``'s checks, for coordinates from ``space``."""
    model.check_point(space.point((0,) * space.n))  # arity and dimension
    out = np.asarray(model.values(xs), dtype=float)
    bad = np.isnan(out) | np.isneginf(out)
    if bad.any():
        raise InternalConsistencyError(f"{model.kind} produced an invalid value {out[bad][0]}")
    return out


#: (model, space, grid) of the last build.  It holds the objects, not their
#: ids, so no new object can take an id whose grid is still kept.
_last_grid: tuple = (None, None, None)


def cost_tensor(model: CostModel, space: ProductSpace) -> np.ndarray:
    """Dense cost values on the grid, read-only; +inf marks excluded cells.

    The last grid is returned again for the same model and space objects
    (both are immutable), so a solve and the analyses after it share one
    build.  At most one grid is held.
    """
    global _last_grid
    last_model, last_space, grid = _last_grid  # one read, safe against a concurrent swap
    if last_model is model and last_space is space:
        return grid
    _last_grid = (None, None, None)  # drop the old grid before building
    n = space.n
    xs = [ax.points.reshape((1,) * a + (-1,) + (1,) * (n - 1 - a) + (space.d,))
          for a, ax in enumerate(space.axes)]
    grid = _evaluate(model, space, xs)
    grid.setflags(write=False)
    _last_grid = (model, space, grid)
    return grid


def _potential_sum(vectors: Sequence[np.ndarray], index) -> np.ndarray:
    """sum_a ``vectors[a][index[a]]``; the indexed terms broadcast.

    The terms are added axis by axis starting from 0.0.  This one order of
    additions fixes the bits of every potential sum: the splitting slack,
    the certificate, the c-conjugate and the simplex's reduced costs.
    """
    total = 0.0
    for u, rows in zip(vectors, index):
        total = total + u[rows]
    return total


def _splitting_slack(model: CostModel, space: ProductSpace, potentials: Sequence[np.ndarray]):
    """The grid and the slack c - sum_i u_i on it, +inf on every excluded cell."""
    values = cost_tensor(model, space)
    # u[axes[a]] views u along grid axis a: np.ix_'s open grid without its gathers
    axes = [(None,) * a + (slice(None),) + (None,) * (space.n - 1 - a) for a in range(space.n)]
    return values, values - _potential_sum(potentials, axes)


def cost_at(model: CostModel, space: ProductSpace, cells) -> np.ndarray:
    """Cost values at the grid cells given as a (K, n) index array."""
    cells = np.asarray(cells, dtype=np.intp).reshape(-1, space.n)
    return _evaluate(model, space, [ax.points[cells[:, a]] for a, ax in enumerate(space.axes)])
