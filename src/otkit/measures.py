"""Discrete measures, 1-D grid densities, cost matrices, and couplings.

This module owns the basic objects every solver consumes: weighted point
clouds (`DiscreteMeasure`), piecewise-linear densities on 1-D grids
(`GridDensity1D`), ground cost constructors (`CostSpec`,
`build_cost_matrix`), and validated transport plans (`Coupling`).  It also
provides the measure-level operations that are purely combinatorial:
pushforward under a map, cdf/quantile construction, product couplings, and
the gluing of two plans that share a middle marginal.

Input checks
------------
The solvers, the flows and the command line check the arrays and scalar
settings they are given through the checkers here, so that one rule
decides what a valid input is:

* `check_vector`: a finite 1-D array, optionally of a given length.
* `check_weights`: a `DiscreteMeasure`'s weights or a `check_vector` that
  is also nonnegative; with ``probability=True`` it must also sum to 1
  within `MARGINAL_TOL`.
* `check_matrix`: a finite, nonempty 2-D array, optionally of a given
  shape.
* `check_points`: a `check_matrix` of shape (n, d); 1-D input is read as
  n points in R^1.
* `check_cost_matrix`: a `check_matrix` of the expected shape (square
  when no shape is given).
* `check_covariance`: a finite, symmetric, positive semidefinite matrix.
* `as_number` and `as_integer`: one finite number, and one finite whole
  number, for scalar settings and iteration budgets.

All of these coerce through `as_float_array`, which reports input that is
not a numeric array (strings, ragged nesting) as a `ValidationError`
naming the argument.

The package's checks share two thresholds:

* `MARGINAL_TOL` (1e-9): the defect a computed object may carry in a
  constraint it must satisfy, such as coupling marginals, dual
  feasibility and the total mass of a probability vector.
* `EQUALITY_TOL` (1e-12): the rounding slack in identities that are exact
  in real arithmetic, such as normalized mass, coincidence of atoms and
  zero-sum of signed masses.

File formats
------------
Point measures travel as JSON ``{"points": [[...], ...], "weights": [...]}``
or as CSV with one row per atom and the weight in the last column.  Grid
densities travel as JSON ``{"grid": [...], "density": [...]}``.  One
reader, `read_json`, reads every JSON file: here, in `otkit.w1` and in the
CLI.  Every loader raises `ValidationError` on a missing or malformed file.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

__all__ = [
    "DiscreteMeasure",
    "GridDensity1D",
    "CostSpec",
    "Coupling",
    "build_cost_matrix",
    "normalize",
    "pushforward",
    "cdf_and_quantile",
    "product_coupling",
    "glue",
    "align_supports",
    "read_json",
    "save_measure_json",
    "load_measure_json",
    "load_measure_csv",
    "save_grid_json",
    "load_grid_json",
]

MARGINAL_TOL = 1e-9
EQUALITY_TOL = 1e-12


def as_float_array(obj, name):
    """``np.asarray(obj, dtype=float)``, raising `ValidationError` on failure."""
    try:
        return np.asarray(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} is not a numeric array: {exc}") from exc


def as_number(obj, name):
    """``obj`` as one finite float, raising `ValidationError` otherwise."""
    x = as_float_array(obj, name)
    if x.ndim != 0 or not np.isfinite(x):
        raise ValidationError(f"{name} must be one finite number, got {obj!r}")
    return float(x)


def as_integer(obj, name):
    """``obj`` as an int, raising `ValidationError` unless it is one finite
    whole number."""
    x = as_number(obj, name)
    if x != int(x):
        raise ValidationError(f"{name} must be a whole number, got {obj!r}")
    return int(x)


def check_vector(obj, name, n=None):
    """``obj`` as a finite 1-D array, of length ``n`` when it is given."""
    v = as_float_array(obj, name)
    if v.ndim != 1:
        raise ValidationError(f"{name} must be 1-D, got shape {v.shape}")
    if n is not None and v.shape[0] != n:
        raise ValidationError(f"expected {n} {name}, got {v.shape[0]}")
    if not np.all(np.isfinite(v)):
        raise ValidationError(f"{name} has non-finite values")
    return v


def check_matrix(obj, name, shape=None):
    """``obj`` as a finite, nonempty 2-D array, of ``shape`` when given."""
    M = as_float_array(obj, name)
    if M.ndim != 2 or (shape is not None and M.shape != shape):
        raise ValidationError(
            f"{name} shape {M.shape}, expected {shape or 'a matrix'}")
    if M.size == 0:
        raise ValidationError(f"{name} is empty")
    if not np.all(np.isfinite(M)):
        raise ValidationError(f"{name} has non-finite values")
    return M


def check_points(obj, name="points"):
    """The points of a `DiscreteMeasure`, or ``obj`` as a finite (n, d) array.

    A 1-D array is read as n points in R^1; at least one point of at least
    one coordinate is required.
    """
    if isinstance(obj, DiscreteMeasure):
        return obj.points
    pts = as_float_array(obj, name)
    return check_matrix(pts[:, None] if pts.ndim == 1 else pts, name)


def check_weights(obj, name="weights", n=None, probability=False):
    """The weights of a `DiscreteMeasure`, or ``obj`` as a weight vector.

    Weights are a `check_vector` that is also nonnegative.  With
    ``probability`` they must also sum to 1 within `MARGINAL_TOL`, which
    rules out an empty vector.
    """
    if isinstance(obj, DiscreteMeasure):
        obj = obj.weights
    w = check_vector(obj, name, n)
    if np.any(w < 0):
        raise ValidationError(f"{name} must be nonnegative")
    if probability:
        total = float(np.sum(w))
        if abs(total - 1.0) > MARGINAL_TOL:
            raise ValidationError(
                f"{name} must be a probability vector, total mass {total!r}")
    return w


def _check_increasing(obj, name, least):
    """A strictly increasing `check_vector` of ``least`` or more entries."""
    v = check_vector(obj, name)
    if v.shape[0] < least or np.any(np.diff(v) <= 0):
        raise ValidationError(
            f"{name} must hold {least} or more strictly increasing values")
    return v


def check_cost_matrix(obj, shape=None, name="cost matrix"):
    """`check_matrix` of ``shape``, or of any square shape if None."""
    C = check_matrix(obj, name, shape)
    if C.shape[0] != C.shape[1] and shape is None:
        raise ValidationError(f"{name} shape {C.shape}, expected a square matrix")
    return C


def check_covariance(obj, name="covariance", d=None):
    """``obj`` as a covariance matrix: finite, symmetric up to rounding
    (1e-8 of its largest entry), and positive semidefinite up to rounding
    (eigenvalues down to -1e-10 of it).  ``d`` fixes the size.  Returns the
    symmetrized matrix.
    """
    S = check_matrix(obj, name, None if d is None else (d, d))
    if S.shape[0] != S.shape[1]:
        raise ValidationError(f"{name} must be a square matrix, got {S.shape}")
    scale = max(1.0, float(np.max(np.abs(S))))
    if float(np.max(np.abs(S - S.T))) > 1e-8 * scale:
        raise ValidationError(f"{name} is not symmetric")
    S = 0.5 * (S + S.T)
    w = np.linalg.eigvalsh(S)
    if w[0] < -1e-10 * scale:
        raise ValidationError(f"{name} has negative eigenvalue {w[0]!r}")
    return S


class DiscreteMeasure:
    """A nonnegative measure ``sum_i a_i * delta_{x_i}`` on R^d.

    Parameters
    ----------
    points : array_like, shape (n, d) or (n,)
        Atom locations; a 1-D array is treated as n points in R^1.
    weights : array_like, shape (n,)
        Nonnegative atom masses.

    Notes
    -----
    Weights are stored as given; use :meth:`normalized` to obtain the
    probability measure with the same atoms.  ``is_probability`` checks
    the total mass against `EQUALITY_TOL`.
    """

    def __init__(self, points, weights):
        self.points = check_points(points)
        self.weights = check_weights(weights, n=self.points.shape[0])

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.weights))

    @property
    def is_probability(self) -> bool:
        return abs(self.total_mass - 1.0) <= EQUALITY_TOL

    def normalized(self) -> "DiscreteMeasure":
        """Return the probability measure with the same atoms.

        Raises
        ------
        ValidationError
            If the total mass is zero.
        """
        total = self.total_mass
        if total <= 0.0:
            raise ValidationError("cannot normalize a measure with zero total mass")
        return DiscreteMeasure(self.points, self.weights / total)

    def sorted_1d(self) -> "DiscreteMeasure":
        """Return a copy with atoms sorted by position (1-D only)."""
        if self.dim != 1:
            raise ValidationError("sorted_1d requires 1-D support")
        order = np.argsort(self.points[:, 0], kind="stable")
        return DiscreteMeasure(self.points[order], self.weights[order])

    def __repr__(self):
        return (
            f"DiscreteMeasure(n={self.n}, dim={self.dim}, "
            f"total_mass={self.total_mass:.6g})"
        )


class GridDensity1D:
    """A density sampled at the nodes of a strictly increasing 1-D grid.

    Cell masses are obtained by the trapezoid rule,
    ``m_c = (rho_c + rho_{c+1}) / 2 * (x_{c+1} - x_c)``, and the cdf is the
    piecewise-linear interpolant of the cumulative cell masses, which
    amounts to spreading each cell's mass uniformly inside the cell.

    Parameters
    ----------
    grid : array_like, shape (N,)
        Strictly increasing node positions, N >= 2.
    density : array_like, shape (N,)
        Nonnegative density values at the nodes.
    """

    def __init__(self, grid, density):
        self.grid = _check_increasing(grid, "grid", 2)
        self.density = check_weights(density, "density", n=self.grid.shape[0])

    @property
    def n_nodes(self) -> int:
        return self.grid.shape[0]

    @property
    def cell_widths(self) -> np.ndarray:
        return np.diff(self.grid)

    @property
    def cell_masses(self) -> np.ndarray:
        rho = self.density
        return 0.5 * (rho[:-1] + rho[1:]) * self.cell_widths

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.cell_masses))

    def node_cdf(self) -> np.ndarray:
        """Cumulative mass at each node, starting at 0."""
        return _trapezoid_cdf(self.grid, self.density)

    def normalized(self) -> "GridDensity1D":
        total = self.total_mass
        if total <= 0.0:
            raise ValidationError("cannot normalize a density with zero total mass")
        return GridDensity1D(self.grid, self.density / total)

    def to_discrete(self) -> DiscreteMeasure:
        """Collapse each cell's mass to an atom at the cell midpoint."""
        mids = 0.5 * (self.grid[:-1] + self.grid[1:])
        return DiscreteMeasure(mids, self.cell_masses)

    def __repr__(self):
        return (
            f"GridDensity1D(n_nodes={self.n_nodes}, "
            f"range=({self.grid[0]:.6g}, {self.grid[-1]:.6g}), "
            f"total_mass={self.total_mass:.6g})"
        )


def _trapezoid_cdf(grid, rho):
    """Trapezoid-rule cumulative mass of node values ``rho`` on ``grid`` at
    each node, starting at 0; its last entry is the total mass."""
    out = np.zeros(grid.shape[0])
    np.cumsum(0.5 * (rho[:-1] + rho[1:]) * np.diff(grid), out=out[1:])
    return out


_COST_KINDS = ("sq_euclidean", "euclidean", "p_power", "zero_one", "explicit_matrix")


@dataclass(frozen=True, eq=False)
class CostSpec:
    """Ground cost description used by `build_cost_matrix`.

    Kinds: ``sq_euclidean`` |x-y|^2, ``euclidean`` |x-y|, ``p_power``
    |x-y|^p with p >= 1, ``zero_one`` (0 iff the points coincide), and
    ``explicit_matrix`` with a user-provided cost table.
    """

    kind: str
    p: float | None = None
    matrix: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in _COST_KINDS:
            raise ValidationError(
                f"unknown cost kind {self.kind!r}; expected one of {_COST_KINDS}"
            )
        if self.kind == "p_power":
            object.__setattr__(self, "p", as_number(self.p, "p"))
            if self.p < 1:
                raise ValidationError("p_power cost requires finite p >= 1")
        if self.kind == "explicit_matrix":
            if self.matrix is None:
                raise ValidationError("explicit_matrix cost requires a matrix")
            object.__setattr__(self, "matrix",
                               check_matrix(self.matrix, "explicit cost matrix"))

    @classmethod
    def sq_euclidean(cls):
        return cls("sq_euclidean")

    @classmethod
    def euclidean(cls):
        return cls("euclidean")

    @classmethod
    def p_power(cls, p):
        return cls("p_power", p=p)

    @classmethod
    def zero_one(cls):
        return cls("zero_one")

    @classmethod
    def explicit(cls, matrix):
        return cls("explicit_matrix", matrix=matrix)


def build_cost_matrix(alpha, beta, spec: CostSpec) -> np.ndarray:
    """Evaluate the ground cost between the supports of two measures.

    Parameters
    ----------
    alpha, beta : DiscreteMeasure or array_like
        Measures or raw point arrays of shapes (n, d) and (m, d).
    spec : CostSpec
        Which cost to evaluate.

    Returns
    -------
    numpy.ndarray, shape (n, m)

    Notes
    -----
    The distances are built in numpy and equal
    ``scipy.spatial.distance.cdist``'s byte for byte.  The coordinate
    terms are added in cdist's fixed order, first coordinate first,
    because float addition is not associative: another order changes the
    last bits of the costs and so of every payload built on them.  This
    keeps ``scipy.spatial``, about half the wall time of ``import
    otkit.cli`` on a 2-CPU x86 VM, out of the import.
    """
    x = check_points(alpha)
    y = check_points(beta)
    if spec.kind == "explicit_matrix":
        m = spec.matrix
        if m.shape != (x.shape[0], y.shape[0]):
            raise ValidationError(
                f"explicit cost matrix shape {m.shape} does not match "
                f"supports ({x.shape[0]}, {y.shape[0]})"
            )
        return m.copy()
    if spec.kind == "sq_euclidean":
        return _pairwise(x, y, "sqeuclidean")
    if spec.kind == "euclidean":
        return _pairwise(x, y, "euclidean")
    if spec.kind == "p_power":
        return _pairwise(x, y, "euclidean") ** spec.p
    # zero_one: points are "equal" when they coincide in sup norm within
    # EQUALITY_TOL.
    return (_pairwise(x, y, "chebyshev") > EQUALITY_TOL).astype(float)


# Cells per row block of `_pairwise`.  The block's temporary (64 KiB) stays
# in cache and is reused from the heap instead of being mapped afresh,
# which at 256 x 256 cost more than the arithmetic.
_BLOCK_CELLS = 1 << 13


def _pairwise(x, y, metric):
    """Distances between the rows of ``x`` (n, d) and ``y`` (m, d).

    ``metric`` is ``"sqeuclidean"``, ``"euclidean"`` or ``"chebyshev"``,
    and the result has the bytes of ``scipy.spatial.distance.cdist(x, y,
    metric)``: like cdist, this adds the squared coordinate differences
    one coordinate at a time, in index order.  numpy's pairwise ``sum``
    (which regroups the terms from d = 8 on) and the expansion
    |x|^2 + |y|^2 - 2 x.y would both change the last bits.
    """
    (n, d), m = x.shape, y.shape[0]
    if y.shape[1] != d:
        raise ValidationError(f"point dimensions differ: {d} vs {y.shape[1]}")
    out = np.empty((n, m)) if d else np.zeros((n, m))
    rows = max(1, _BLOCK_CELLS // max(m, 1))
    tmp = np.empty((min(rows, n), m))
    xs, ys = x.T, np.ascontiguousarray(y.T)
    for i in range(0, n, rows):
        block = out[i:i + rows]
        term = tmp[:block.shape[0]]
        for k in range(d):
            # The first coordinate's term goes straight into the block.
            dst = term if k else block
            np.subtract.outer(xs[k, i:i + rows], ys[k], out=dst)
            if metric == "chebyshev":
                np.absolute(dst, out=dst)
                if k:
                    np.maximum(block, dst, out=block)
            else:
                np.multiply(dst, dst, out=dst)
                if k:
                    np.add(block, dst, out=block)
    if metric == "euclidean":
        np.sqrt(out, out=out)
    return out


class Coupling:
    """A validated transport plan between two weight vectors.

    Parameters
    ----------
    plan : array_like, shape (n, m)
        Nonnegative joint weights.
    row_marginal, col_marginal : array_like
        The marginals the plan is required to match.
    atol : float, optional
        Allowed entrywise marginal defect; defaults to `MARGINAL_TOL`.
        Solvers that converge to a looser criterion pass their own
        achieved tolerance.

    Notes
    -----
    Entries in ``[-EQUALITY_TOL, 0)`` are clamped to zero; anything more
    negative is rejected.
    """

    def __init__(self, plan, row_marginal, col_marginal, atol=MARGINAL_TOL):
        plan = as_float_array(plan, "plan")
        if plan.ndim != 2:
            raise ValidationError(f"plan must be 2-D, got shape {plan.shape}")
        row = check_weights(row_marginal, "row marginal", n=plan.shape[0])
        col = check_weights(col_marginal, "column marginal", n=plan.shape[1])
        if not np.all(np.isfinite(plan)):
            raise ValidationError("plan contains non-finite values")
        lowest = plan.min(initial=0.0)
        if lowest < -EQUALITY_TOL:
            raise ValidationError(f"plan has negative entry {lowest!r}")
        if lowest < 0.0:
            plan = np.maximum(plan, 0.0)
        row_defect = float(np.max(np.abs(plan.sum(axis=1) - row), initial=0.0))
        col_defect = float(np.max(np.abs(plan.sum(axis=0) - col), initial=0.0))
        if row_defect > atol or col_defect > atol:
            raise ValidationError(
                f"plan marginals deviate by ({row_defect:.3e}, {col_defect:.3e}), "
                f"allowed {atol:.3e}"
            )
        self.plan = plan
        self.row_marginal = row
        self.col_marginal = col
        self.atol = float(atol)

    @property
    def shape(self):
        return self.plan.shape

    def cost(self, cost_matrix) -> float:
        """Total transport cost <C, P>."""
        C = check_cost_matrix(cost_matrix, self.plan.shape)
        return float(np.sum(self.plan * C))

    def support(self):
        """Indices (i, j) of the positive entries."""
        return np.argwhere(self.plan > 0.0)

    def __repr__(self):
        nnz = int(np.count_nonzero(self.plan))
        return f"Coupling(shape={self.plan.shape}, nnz={nnz})"


def normalize(measure):
    """Return the probability-normalized copy of a measure or grid density."""
    return measure.normalized()


def product_coupling(alpha, beta) -> Coupling:
    """The independent coupling a (x) b of two probability vectors."""
    a = check_weights(alpha, "alpha", probability=True)
    b = check_weights(beta, "beta", probability=True)
    return Coupling(np.outer(a, b), a, b)


def glue(P: Coupling, Q: Coupling):
    """Glue two couplings along their shared middle marginal.

    Given P between (a, b) and Q between (b, c), forms the three-way
    array ``S[i, j, k] = P[i, j] * Q[j, k] / b[j]`` (zero where b
    vanishes) and the composed coupling ``R = sum_j S[:, j, :]`` between
    (a, c).

    Returns
    -------
    (numpy.ndarray, Coupling)
        The (n, k, m) gluing and the composed plan.
    """
    b_left = P.plan.sum(axis=0)
    b_right = Q.plan.sum(axis=1)
    if b_left.shape != b_right.shape:
        raise ValidationError(
            f"middle marginals have different sizes: "
            f"{b_left.shape[0]} vs {b_right.shape[0]}"
        )
    defect = float(np.max(np.abs(b_left - b_right), initial=0.0))
    if defect > MARGINAL_TOL:
        raise ValidationError(
            f"middle marginals disagree by {defect:.3e}, "
            f"allowed {MARGINAL_TOL:.3e}"
        )
    b = b_left
    inv_b = np.zeros_like(b)
    positive = b > 0
    inv_b[positive] = 1.0 / b[positive]
    S = P.plan[:, :, None] * Q.plan[None, :, :] * inv_b[None, :, None]
    R = S.sum(axis=1)
    a = P.plan.sum(axis=1)
    c = Q.plan.sum(axis=0)
    # Gluing compounds the marginal defects of both inputs.
    atol = max(P.atol + Q.atol, MARGINAL_TOL)
    return S, Coupling(R, a, c, atol=atol)


def _merge_close_points(points, weights, tol):
    """Merge atoms whose positions coincide within ``tol`` in sup norm.

    Points are sorted lexicographically; each point is compared with the
    representative (first member) of the current group.  Returns sorted
    merged points and accumulated weights, plus the group index of each
    input atom.
    """
    n = points.shape[0]
    order = np.lexsort(points.T[::-1])
    pts = points[order]
    wts = weights[order]
    group = np.empty(n, dtype=int)
    rep_rows = [0]
    group[0] = 0
    for i in range(1, n):
        rep = pts[rep_rows[-1]]
        if np.max(np.abs(pts[i] - rep)) <= tol:
            group[i] = len(rep_rows) - 1
        else:
            rep_rows.append(i)
            group[i] = len(rep_rows) - 1
    merged_points = pts[np.asarray(rep_rows)]
    merged_weights = np.zeros(len(rep_rows))
    np.add.at(merged_weights, group, wts)
    # Map original atom index -> group index.
    group_of_original = np.empty(n, dtype=int)
    group_of_original[order] = group
    return merged_points, merged_weights, group_of_original


def pushforward(measure: DiscreteMeasure, mapping) -> DiscreteMeasure:
    """Image measure T#a of a discrete measure under a map.

    Parameters
    ----------
    measure : DiscreteMeasure
    mapping : callable
        Either vectorized (accepts an (n, d) array and returns (n, d')) or
        applicable to a single point.

    Notes
    -----
    Output atoms whose images coincide within `EQUALITY_TOL` in sup norm
    are merged, and the result is sorted lexicographically by
    position.
    """
    pts = measure.points
    try:
        out = np.asarray(mapping(pts), dtype=float)
        if out.ndim == 1 and out.shape[0] == pts.shape[0]:
            out = out[:, None]
        if out.ndim != 2 or out.shape[0] != pts.shape[0]:
            raise ValueError
    except Exception:
        rows = [np.atleast_1d(np.asarray(mapping(p), dtype=float)) for p in pts]
        out = np.stack(rows, axis=0)
    if not np.all(np.isfinite(out)):
        raise ValidationError("mapping produced non-finite points")
    merged_pts, merged_wts, _ = _merge_close_points(
        out, measure.weights, EQUALITY_TOL
    )
    return DiscreteMeasure(merged_pts, merged_wts)


def align_supports(alpha: DiscreteMeasure, beta: DiscreteMeasure):
    """Express two measures as weight vectors on their union support.

    Atoms coinciding within `EQUALITY_TOL` (sup norm) are identified.
    Returns ``(points, wa, wb)`` with points sorted lexicographically.
    """
    if alpha.dim != beta.dim:
        raise ValidationError("measures live in different dimensions")
    pts = np.vstack([alpha.points, beta.points])
    wts = np.concatenate([alpha.weights, beta.weights])
    merged_pts, _, group_of_original = _merge_close_points(
        pts, wts, EQUALITY_TOL)
    k = merged_pts.shape[0]
    wa = np.zeros(k)
    wb = np.zeros(k)
    na = alpha.n
    np.add.at(wa, group_of_original[:na], alpha.weights)
    np.add.at(wb, group_of_original[na:], beta.weights)
    return merged_pts, wa, wb


def cdf_and_quantile(measure):
    """Build the cdf and its generalized inverse for a 1-D measure.

    For a `DiscreteMeasure`, the cdf is the right-continuous step function
    ``F(x) = sum of weights of atoms <= x`` and the quantile follows the
    minimum convention ``Q(r) = min{x : F(x) >= r}`` for r in (0, 1].
    For a `GridDensity1D`, the cdf is piecewise linear and the quantile is
    its inverse, with exact ties across zero-mass cells resolved at the
    midpoint of the flat interval.

    Parameters
    ----------
    measure : DiscreteMeasure or GridDensity1D
        Must be a probability measure (total mass 1 within
        `MARGINAL_TOL`).

    Returns
    -------
    (cdf, quantile)
        Two vectorized callables.
    """
    if abs(measure.total_mass - 1.0) > MARGINAL_TOL:
        raise ValidationError(
            f"cdf requires a probability measure, total mass {measure.total_mass!r}"
        )
    if isinstance(measure, DiscreteMeasure):
        if measure.dim != 1:
            raise ValidationError("cdf_and_quantile requires 1-D support")
        pts, wts, _ = _merge_close_points(
            measure.points, measure.weights, EQUALITY_TOL
        )
        xs = pts[:, 0]
        cum = np.cumsum(wts)

        def cdf(x):
            x = np.asarray(x, dtype=float)
            idx = np.searchsorted(xs, x, side="right")
            vals = np.where(idx > 0, cum[np.maximum(idx - 1, 0)], 0.0)
            return vals if vals.ndim else float(vals)

        def quantile(r):
            r = np.asarray(r, dtype=float)
            idx = np.minimum(np.searchsorted(cum, r, side="left"), xs.shape[0] - 1)
            vals = xs[idx]
            return vals if vals.ndim else float(vals)

        return cdf, quantile

    if isinstance(measure, GridDensity1D):
        grid = measure.grid
        F = measure.node_cdf()

        def cdf(x):
            x = np.asarray(x, dtype=float)
            vals = np.interp(x, grid, F)
            return vals if vals.ndim else float(vals)

        def quantile(r):
            r = np.asarray(r, dtype=float)
            scalar = r.ndim == 0
            rr = np.clip(np.atleast_1d(r), 0.0, F[-1])
            j = np.searchsorted(F, rr, side="left")
            j = np.minimum(j, F.shape[0] - 1)
            # Last node with F <= r; j..j_hi is the flat run when F[j] == r.
            j_hi = np.maximum(np.searchsorted(F, rr, side="right") - 1, 0)
            exact = F[j] == rr
            flat_mid = 0.5 * (grid[j] + grid[j_hi])
            lo = np.maximum(j - 1, 0)
            denom = F[j] - F[lo]
            safe = np.where(denom > 0, denom, 1.0)
            t = (rr - F[lo]) / safe
            interp = grid[lo] + t * (grid[j] - grid[lo])
            vals = np.where(exact, flat_mid, np.where(j == 0, grid[0], interp))
            vals = vals if not scalar else float(vals[0])
            return vals

        return cdf, quantile

    raise ValidationError(f"unsupported measure type {type(measure).__name__}")


def save_measure_json(measure: DiscreteMeasure, path):
    payload = {
        "points": measure.points.tolist(),
        "weights": measure.weights.tolist(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")


def measure_from_dict(payload) -> DiscreteMeasure:
    try:
        points = payload["points"]
        weights = payload["weights"]
    except (KeyError, TypeError) as exc:
        raise ValidationError(
            "measure JSON must contain 'points' and 'weights'"
        ) from exc
    return DiscreteMeasure(points, weights)


def read_json(path):
    """The JSON value in the file at ``path``; a file that cannot be read
    or is not valid JSON raises `ValidationError` naming the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc


def load_measure_json(path) -> DiscreteMeasure:
    return measure_from_dict(read_json(path))


def load_measure_csv(path) -> DiscreteMeasure:
    """Read atoms from CSV; each row is x_1, ..., x_d, weight."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            records = list(csv.reader(fh))
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    rows = []
    for record in records:
        if not record or all(not cell.strip() for cell in record):
            continue
        try:
            rows.append([float(cell) for cell in record])
        except ValueError as exc:
            raise ValidationError(
                f"non-numeric CSV cell in row {record}") from exc
    if not rows:
        raise ValidationError("CSV measure file is empty")
    width = len(rows[0])
    if width < 2 or any(len(r) != width for r in rows):
        raise ValidationError("CSV rows must all have d coordinates plus a weight")
    data = np.asarray(rows, dtype=float)
    return DiscreteMeasure(data[:, :-1], data[:, -1])


def save_grid_json(density: GridDensity1D, path):
    payload = {"grid": density.grid.tolist(), "density": density.density.tolist()}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")


def grid_from_dict(payload) -> GridDensity1D:
    try:
        grid = payload["grid"]
        density = payload["density"]
    except (KeyError, TypeError) as exc:
        raise ValidationError("grid JSON must contain 'grid' and 'density'") from exc
    return GridDensity1D(grid, density)


def load_grid_json(path) -> GridDensity1D:
    return grid_from_dict(read_json(path))
