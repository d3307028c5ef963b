"""Checkerboard copulas on rectangular grids.

A grid copula stores one nonnegative mass per cell of a rectangular
partition of the unit hypercube and is the exact finite representation used
throughout the package.  Cells may be nonuniform (arbitrary per-axis
breakpoints); the common case of ``N_j`` equal cells per axis is exposed
through :func:`new_grid` and the JSON file format.  All masses are plain
doubles; every quantity of interest in the test battery is a dyadic
rational and therefore exactly representable.

Cell layout is row major with the last axis fastest (C order).
"""

from __future__ import annotations

import json

import numpy as np

from .errors import (
    BadAxis,
    BadDimension,
    BadIndexSet,
    DimensionMismatch,
    InvertedBox,
    MarginViolation,
    NegativeMass,
    ResolutionOverflow,
    TotalMassViolation,
    WeightError,
)

VALIDATION_TOL = 1e-12
DEFAULT_CELL_LIMIT = 10**8

GRID_ORDER_TAG = "row-major-last-fastest"


def uniform_breaks(n: int) -> np.ndarray:
    """Breakpoints ``0, 1/n, ..., 1`` (exact dyadic floats for dyadic n)."""
    return np.arange(n + 1) / n


def _as_breaks(b) -> np.ndarray:
    b = np.ascontiguousarray(np.asarray(b, dtype=float))
    if b.ndim != 1 or len(b) < 2:
        raise BadDimension("axis breakpoints must be a 1-d array of length >= 2")
    if b[0] != 0.0 or b[-1] != 1.0 or np.any(np.diff(b) <= 0):
        raise BadDimension("breakpoints must increase strictly from 0 to 1")
    return b


def cell_index(breaks: np.ndarray, x):
    """Index of the cell of ``breaks`` holding each ``x`` (closed on the left;
    the last cell holds 1, and points outside go to the nearest end cell):
    the number of inner breakpoints at or below ``x``."""
    return np.searchsorted(breaks[1:-1], x, side="right")


def _locate(breaks: np.ndarray, x: np.ndarray):
    """Cell index and in-cell fraction for points of [0, 1]."""
    idx = cell_index(breaks, x)
    width = breaks[idx + 1] - breaks[idx]
    frac = np.clip((x - breaks[idx]) / width, 0.0, 1.0)
    return idx, frac


def _axis_map(breaks: np.ndarray, xs):
    """Map from node values at ``breaks`` to values at ``xs`` for :func:`_contract`:
    the interpolation matrix W, with W @ nodevalues = values at xs, or, when
    every in-cell fraction is exactly 0 or 1, the index of the break at each
    x (x = 1 takes the last break), exact since a row of W whose one nonzero is
    1.0 evaluates to its node value; two taps stay in W, which BLAS may fuse."""
    xs = np.asarray(xs, dtype=float)
    idx, frac = _locate(breaks, xs)
    if np.all((frac == 0.0) | (frac == 1.0)):
        return idx + (frac == 1.0)
    W = np.zeros((len(xs), len(breaks)))
    rows = np.arange(len(xs))
    W[rows, idx] = 1.0 - frac
    W[rows, idx + 1] += frac
    return W


def _contract(nodes: np.ndarray, maps) -> np.ndarray:
    """Apply one :func:`_axis_map` per axis to a tensor, axis 0 first: an index
    by ``np.take`` (skipped when it is the identity), a matrix by ``np.tensordot``."""
    for j, W in enumerate(maps):
        if W.ndim == 2:
            nodes = np.moveaxis(np.tensordot(W, nodes, axes=(1, j)), 0, j)
        elif len(W) != nodes.shape[j] or np.any(W != np.arange(len(W))):
            nodes = np.take(nodes, W, axis=j)
    return nodes


def cum_nodes(masses: np.ndarray, lead: int = 0) -> np.ndarray:
    """Zero-padded cumulative tensor of cell masses, the cdf at every node: the
    masses copied into a new zero buffer, summed in place by ``np.cumsum``.
    The first ``lead`` axes index a stack of tensors: neither padded nor summed."""
    c = np.zeros(masses.shape[:lead] + tuple(n + 1 for n in masses.shape[lead:]))
    inner = c[(slice(None),) * lead + (slice(1, None),) * (c.ndim - lead)]
    inner[...] = masses
    for ax in range(lead, c.ndim):
        np.cumsum(inner, axis=ax, out=inner)
    return c


def multilinear_interp(nodes: np.ndarray, breaks_list, pts: np.ndarray) -> np.ndarray:
    """Interpolate a node tensor at points, one value per row of ``pts``: each
    point's 2^d cell-corner nodes, gathered in one index as an (m, 2, ..., 2)
    array, blended axis by axis, axis 0 first, as ``lo * (1 - w) + hi * w``."""
    pts = np.asarray(pts, dtype=float)
    d = len(breaks_list)
    index, weights = [], []
    for j, b in enumerate(breaks_list):
        idx, frac = _locate(np.asarray(b, dtype=float), pts[:, j])
        corner_shape = (-1,) + (1,) * j + (2,) + (1,) * (d - 1 - j)
        index.append((idx[:, None] + (0, 1)).reshape(corner_shape))
        weights.append(frac.reshape((-1,) + (1,) * (d - 1 - j)))
    acc = nodes[tuple(index)]
    for w in weights:
        acc = acc[:, 0] * (1.0 - w) + acc[:, 1] * w
    return acc


class GridCopula:
    """Exact checkerboard copula.

    Parameters
    ----------
    breaks : sequence of 1-d arrays
        Strictly increasing breakpoints per axis, each running from 0 to 1.
    masses : ndarray
        Nonnegative cell masses, shape ``(len(b)-1 for b in breaks)``,
        summing to 1, with uniform univariate margins: the mass of every
        axis-``j`` slab equals the slab width.
    validate : bool
        Skip validation only for values produced by already-validated
        arithmetic.

    Notes
    -----
    The cumulative tensor is cached on first use, and so is the kernel stack
    of each conditioning set that :meth:`kernel_nodes` reads, each about the
    size of ``cum``; both are read-only, and instances are immutable.
    All operations are pure functions, safe for concurrent use.
    ``slab_tables`` is None but on an operator image of :func:`~copulakit.pvc.pvc3`:
    per last-axis slab, a free-axis mesh, a subset of the free breaks, on which
    the slab's kernel is bilinear, and its node table there.  The kernel
    metrics read them, and so does ``d_inf``, which sums them into the cdf
    at each conditioning node without ``cum``.
    """

    __slots__ = ("breaks", "masses", "_cum", "_kernels", "slab_tables")

    def __init__(self, breaks, masses, validate: bool = True):
        self.breaks = tuple(_as_breaks(b) for b in breaks)
        masses = np.ascontiguousarray(np.asarray(masses, dtype=float))
        shape = tuple(len(b) - 1 for b in self.breaks)
        if masses.shape != shape:
            raise DimensionMismatch(
                f"mass tensor shape {masses.shape} does not match breakpoints {shape}"
            )
        self.masses = masses
        self._cum, self._kernels, self.slab_tables = None, {}, None
        for b in self.breaks:
            b.setflags(write=False)
        self.masses.setflags(write=False)
        if validate:
            self._validate()

    # -- construction and validation ------------------------------------

    def _validate(self):
        if self.dim < 2:
            raise BadDimension("copulas need dimension >= 2")
        if not np.all(np.isfinite(self.masses)):
            raise NegativeMass("cell masses must be finite")
        if np.any(self.masses < -VALIDATION_TOL):
            raise NegativeMass(
                f"negative cell mass {self.masses.min():.3e} below -{VALIDATION_TOL}"
            )
        total = float(self.masses.sum())
        if abs(total - 1.0) > VALIDATION_TOL:
            raise TotalMassViolation(f"total mass {total!r} != 1")
        for j, b in enumerate(self.breaks):
            axes = tuple(k for k in range(self.dim) if k != j)
            slab = self.masses.sum(axis=axes)
            widths = np.diff(b)
            err = np.max(np.abs(slab - widths))
            if err > VALIDATION_TOL:
                raise MarginViolation(
                    f"axis {j}: slab masses deviate from uniform margin by {err:.3e}"
                )

    @property
    def dim(self) -> int:
        return len(self.breaks)

    @property
    def shape(self) -> tuple:
        return self.masses.shape

    @property
    def is_uniform(self) -> bool:
        return all(np.array_equal(b, uniform_breaks(len(b) - 1)) for b in self.breaks)

    @property
    def resolutions(self) -> list:
        """Per-axis cell counts (meaningful for uniform grids)."""
        return [len(b) - 1 for b in self.breaks]

    @property
    def cum(self) -> np.ndarray:
        """Zero-padded cumulative tensor; entry [i1..id] = C at node (b1[i1],..)."""
        if self._cum is None:
            c = cum_nodes(self.masses)
            c.setflags(write=False)
            self._cum = c
        return self._cum

    def kernel_nodes(self, cond_axes, cell) -> np.ndarray:
        """Markov kernel nodes over the free axes (ascending) for the cell index
        ``cell`` of ``cond_axes``, a slice taking a run of cells: the fiber's cdf
        nodes over its mass, or its zero cdf nodes if it has no mass.  A read-only
        view of the set's kernel stack, built on the first call for the set by one
        cumulation with a leading axis per conditioning axis, each cell over its
        own strided fiber's sum (a sum over several cells at once rounds otherwise)."""
        cond_axes = tuple(cond_axes)
        stack = self._kernels.get(cond_axes)
        if stack is None:
            fibers = np.moveaxis(self.masses, cond_axes, range(len(cond_axes)))
            stack = cum_nodes(fibers, len(cond_axes))
            for k in np.ndindex(fibers.shape[:len(cond_axes)]):
                w = float(fibers[k].sum())
                stack[k] /= w if w > 0 else 1.0
            stack.setflags(write=False)
            self._kernels[cond_axes] = stack
        return stack[tuple(cell)]

    def slab_kernel(self, k: int):
        """``(mesh, nodes)``: a free-axis mesh on which the kernel of the last
        axis's slab ``k`` is multilinear, and its nodes there: the slab's
        ``slab_tables`` entry, else the free breaks and a view of its
        :meth:`kernel_nodes`."""
        if self.slab_tables is not None:
            return self.slab_tables[k]
        return self.breaks[:-1], self.kernel_nodes((self.dim - 1,), (k,))

    def kernel(self, v, u) -> np.ndarray:
        """Markov kernel ``K(v, [0, u])`` w.r.t. the last coordinate: the
        :meth:`slab_kernel` of the slab holding each ``v`` (zero on a slab
        without mass), interpolated at the matching row of ``u`` (one row serves all)."""
        v = np.atleast_1d(np.asarray(v, dtype=float))
        u = np.broadcast_to(np.asarray(u, dtype=float), (len(v), self.dim - 1))
        out = np.empty(len(v))
        slab = cell_index(self.breaks[-1], v)
        for k in np.unique(slab):
            sel = slab == k
            mesh, nodes = self.slab_kernel(k)
            out[sel] = multilinear_interp(nodes, mesh, u[sel])
        return out

    @property
    def kernel_v_breaks(self) -> np.ndarray:
        """Conditioning values where the kernel jumps: the last axis's breaks."""
        return self.breaks[-1]

    @property
    def kernel_u_breaks(self) -> tuple:
        """Per free axis, the breaks between which the kernel is multilinear."""
        return self.breaks[:-1]

    # -- evaluation ------------------------------------------------------

    def cdf(self, u) -> float:
        """Copula value at one point (multilinear within cells, exact at nodes)."""
        return float(self.cdf_many(np.asarray(u, dtype=float)[None, :])[0])

    def cdf_many(self, points: np.ndarray) -> np.ndarray:
        """Copula values at ``points`` of shape (m, dim), from one unchunked
        :func:`multilinear_interp` call, which holds 2^d corner values per
        point rather than a slice of the node tensor."""
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != self.dim:
            raise DimensionMismatch(f"points must have shape (m, {self.dim})")
        return multilinear_interp(self.cum, self.breaks, points)

    def cdf_on_lattice(self, axes) -> np.ndarray:
        """Copula values on the product lattice ``axes[0] x ... x axes[d-1]``."""
        if len(axes) != self.dim:
            raise DimensionMismatch("one node array per axis required")
        return _contract(self.cum, [_axis_map(b, xs) for b, xs in zip(self.breaks, axes)])

    def cdf_slabs(self, axes):
        """Copula values on the lattice of ``axes[1:]``, one node of ``axes[0]``
        at a time; each axis's map is built once per scan."""
        W0, *rest = (_axis_map(b, xs) for b, xs in zip(self.breaks, axes, strict=True))
        for i in range(len(W0)):
            yield _contract(self.cum, [W0[i : i + 1], *rest])[0]

    # -- algebra ----------------------------------------------------------

    def margin(self, axes) -> "GridCopula":
        """Marginal copula for the given sorted axis set (1-based or 0-based
        accepted as a sequence of ints; interpreted 0-based)."""
        axes = _check_index_set(axes, self.dim)
        drop = tuple(k for k in range(self.dim) if k not in axes)
        masses = self.masses.sum(axis=drop) if drop else self.masses
        return GridCopula([self.breaks[k] for k in axes], masses, validate=False)

    def reflect(self, axis: int) -> "GridCopula":
        """Push-forward under ``x_axis -> 1 - x_axis``."""
        if not 0 <= axis < self.dim:
            raise BadAxis(f"axis {axis} out of range for dim {self.dim}")
        breaks = list(self.breaks)
        breaks[axis] = (1.0 - breaks[axis])[::-1]
        masses = np.flip(self.masses, axis=axis)
        return GridCopula(breaks, masses, validate=False)

    def permute(self, order) -> "GridCopula":
        """Relabel axes: new axis k is old axis order[k]."""
        order = list(order)
        if sorted(order) != list(range(self.dim)):
            raise BadIndexSet(f"{order} is not a permutation of 0..{self.dim - 1}")
        return GridCopula(
            [self.breaks[k] for k in order],
            np.ascontiguousarray(np.transpose(self.masses, order)),
            validate=False,
        )

    def refine_to(self, new_breaks) -> "GridCopula":
        """Re-express on finer breakpoints (must contain the current ones);
        the cdf is unchanged everywhere.  A changed axis gathers each new cell's
        source and scales it by the width ratio: the one rounded product that
        the one-nonzero row of a transfer matrix evaluates to.  With no axis
        changed this is ``self``, its cached ``cum`` kept."""
        masses = self.masses
        for j, (b, nb) in enumerate(zip(self.breaks, new_breaks, strict=True)):
            if not np.array_equal(b, nb):
                nb = _as_breaks(nb)
                if not np.all(np.isin(b, nb)):
                    raise DimensionMismatch("new breakpoints must contain the old ones")
                src = cell_index(b, nb[:-1])
                ratio = (np.diff(nb) / np.diff(b)[src]).reshape((-1,) + (1,) * (self.dim - 1 - j))
                masses = np.take(masses, src, axis=j) * ratio
        return self if masses is self.masses else GridCopula(new_breaks, masses, validate=False)

    def multilinear_breaks(self):
        """Per-axis breakpoints between which the cdf is multilinear."""
        return self.breaks

    # -- serialization -----------------------------------------------------

    def to_json(self) -> str:
        """Serialize; bit-exact round trip for double-representable values."""
        payload = {"dim": self.dim, "order": GRID_ORDER_TAG}
        if self.is_uniform:
            payload["resolutions"] = self.resolutions
        else:
            payload["breaks"] = [b.tolist() for b in self.breaks]
        payload["masses"] = self.masses.ravel().tolist()
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "GridCopula":
        payload = json.loads(text)
        if payload.get("order", GRID_ORDER_TAG) != GRID_ORDER_TAG:
            raise DimensionMismatch(f"unsupported cell order {payload.get('order')!r}")
        if "breaks" in payload:
            breaks = [np.asarray(b, dtype=float) for b in payload["breaks"]]
        else:
            breaks = [uniform_breaks(n) for n in payload["resolutions"]]
        shape = tuple(len(b) - 1 for b in breaks)
        masses = np.asarray(payload["masses"], dtype=float).reshape(shape)
        return cls(breaks, masses)

    def __repr__(self):
        kind = "uniform" if self.is_uniform else "nonuniform"
        return f"GridCopula(dim={self.dim}, shape={self.shape}, {kind})"


# -- module-level operations ------------------------------------------------


def new_grid(dim: int, resolutions, masses) -> GridCopula:
    """Validated uniform checkerboard copula.

    Parameters
    ----------
    dim : int
        Dimension (>= 2).
    resolutions : sequence of int
        Cells per axis, ``N_1 .. N_d``.
    masses : array-like
        Cell masses, either with shape ``resolutions`` or flat in C order.
    """
    resolutions = [int(n) for n in resolutions]
    if dim < 2:
        raise BadDimension("dim must be >= 2")
    if len(resolutions) != dim or any(n < 1 for n in resolutions):
        raise DimensionMismatch("need one resolution >= 1 per axis")
    try:
        masses = np.asarray(masses, dtype=float).reshape(tuple(resolutions))
    except ValueError as exc:
        raise DimensionMismatch(str(exc)) from exc
    return GridCopula([uniform_breaks(n) for n in resolutions], masses)


def box_mass(copula, lower, upper) -> float:
    """Mass of a box under any copula exposing ``cdf_many``.

    Inclusion-exclusion over the ``2^d`` corners; the result may carry a
    round-off of order 1e-16 and is guaranteed ``>= -1e-12`` for valid input.
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    d = copula.dim
    if lower.shape != (d,) or upper.shape != (d,):
        raise DimensionMismatch(f"box corners must have length {d}")
    if np.any(lower > upper):
        raise InvertedBox("box lower corner exceeds upper corner")
    corners, signs = _corner_matrix(d)
    pts = np.where(corners, upper[None, :], lower[None, :])
    return float(np.dot(signs, copula.cdf_many(pts)))


def _corner_matrix(d: int):
    corners = np.array(
        [[(k >> j) & 1 for j in range(d)] for k in range(2**d)], dtype=bool
    )
    signs = np.where(corners.sum(axis=1) % 2 == d % 2, 1.0, -1.0)
    return corners, signs


def _check_index_set(axes, dim: int) -> tuple:
    axes = tuple(int(a) for a in axes)
    if len(axes) < 1 or sorted(set(axes)) != list(axes):
        raise BadIndexSet(f"{axes} must be sorted and duplicate free")
    if axes[0] < 0 or axes[-1] >= dim:
        raise BadIndexSet(f"{axes} out of range for dim {dim}")
    return axes


def common_refinement(c1: GridCopula, c2: GridCopula):
    """Re-express two grid copulas on a shared per-axis grid.

    Uniform axis pairs refine to the lcm resolution, mixed ones to the union
    of breakpoints; cdfs are unchanged at every point.  Operands whose breaks
    are already equal on every axis are returned as they are.

    Raises
    ------
    ResolutionOverflow
        If the refined grid would exceed ``DEFAULT_CELL_LIMIT`` cells.
    """
    if c1.dim != c2.dim:
        raise DimensionMismatch("operands differ in dimension")
    if all(np.array_equal(b1, b2) for b1, b2 in zip(c1.breaks, c2.breaks)):
        return c1, c2
    target = []
    for b1, b2 in zip(c1.breaks, c2.breaks):
        u1 = np.array_equal(b1, uniform_breaks(len(b1) - 1))
        u2 = np.array_equal(b2, uniform_breaks(len(b2) - 1))
        target.append(uniform_breaks(int(np.lcm(len(b1) - 1, len(b2) - 1)))
                      if u1 and u2 else np.union1d(b1, b2))
    cells = int(np.prod([len(t) - 1 for t in target]))
    if cells > DEFAULT_CELL_LIMIT:
        raise ResolutionOverflow(f"refinement needs {cells} cells > limit {DEFAULT_CELL_LIMIT}")
    return c1.refine_to(target), c2.refine_to(target)


def convex_combine(weights, copulas) -> GridCopula:
    """Cellwise convex combination on the common refinement."""
    weights = np.asarray(weights, dtype=float)
    copulas = list(copulas)
    if len(weights) != len(copulas) or len(copulas) == 0:
        raise WeightError("need one weight per copula")
    if np.any(weights < 0) or abs(weights.sum() - 1.0) > VALIDATION_TOL:
        raise WeightError(f"weights {weights.tolist()} must be >= 0 and sum to 1")
    acc = copulas[0]
    for c in copulas[1:]:
        acc, _ = common_refinement(acc, c)
    refined = [common_refinement(c, acc)[0].masses for c in copulas]
    masses = sum(w * m for w, m in zip(weights, refined))
    return GridCopula(acc.breaks, masses, validate=False)


def product_extend(base: GridCopula, dim: int) -> GridCopula:
    """Extend to ``dim`` coordinates by tensoring with independent axes
    (one cell per new axis)."""
    if dim <= base.dim:
        raise BadDimension(f"target dim {dim} must exceed base dim {base.dim}")
    extra = dim - base.dim
    masses = base.masses.reshape(base.shape + (1,) * extra)
    breaks = list(base.breaks) + [uniform_breaks(1)] * extra
    return GridCopula(breaks, masses, validate=False)
