"""Markov kernels and conditional copulas.

For a grid copula the kernel conditioning on an axis set is piecewise
constant across conditioning cells and multilinear within the remaining
coordinates, so every quantity here (conditional margins, conditional
copulas obtained by Sklar inversion, the partial copula, the
simplifiedness gap and the integrated conditional-difference functional)
is computed from finite node data without sampling.  Kernel values,
conditional margins and the disintegration check read one node tensor,
:meth:`GridCopula.kernel_nodes`; the conditional copulas of the slab
family keep their own normalisation (by the fiber's cdf at its top node).

One type, :class:`ConditionalFamily`, holds the conditional decomposition
of a three-dimensional copula with respect to its last coordinate, whether
it comes from a grid, a rank-form empirical copula or a closed form.

Conditioning defaults to the last coordinate; contiguous blocks of axes
are supported for the vine ladder.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .analytic import AnalyticCopula
from .empirical import EmpiricalCopula
from .errors import (
    BadAxis,
    ClosedFormUnavailable,
    DegenerateMargins,
    DimensionMismatch,
    ZeroMassSlab,
)
from .grid import (
    GridCopula,
    _axis_map,
    _contract,
    _corner_matrix,
    box_mass,
    cell_index,
    cum_nodes,
    multilinear_interp,
    uniform_breaks,
)
from .quadrature import integrate_abs_multilinear

_MARGIN_TOL = 1e-12


# -- small value types ---------------------------------------------------------


@dataclass(frozen=True)
class PiecewiseLinearCdf:
    """Continuous piecewise-linear distribution function on [0, 1]."""

    xs: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        vs = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "values", vs)
        if len(xs) != len(vs) or len(xs) < 2:
            raise DimensionMismatch("breakpoints and values must align")
        if abs(vs[0]) > _MARGIN_TOL or abs(vs[-1] - 1.0) > _MARGIN_TOL:
            raise DegenerateMargins("conditional cdf must run from 0 to 1")
        if np.any(np.diff(vs) < -_MARGIN_TOL):
            raise DegenerateMargins("conditional cdf must be nondecreasing")

    def __call__(self, x):
        return np.interp(np.asarray(x, dtype=float), self.xs, self.values)

    def preimages(self, targets) -> np.ndarray:
        """All breakpoints plus one preimage point per target value crossed
        strictly inside a linear piece (flat pieces contribute their ends)."""
        xs, vs, s = self.xs, self.values, np.asarray(targets, dtype=float)
        a, t = np.nonzero((vs[:-1, None] < s) & (s < vs[1:, None]))
        x = xs[a] + (s[t] - vs[a]) / (vs[a + 1] - vs[a]) * (xs[a + 1] - xs[a])
        return np.unique(np.concatenate([xs, x]))


def preimage_union(margins, targets):
    """Sorted union of the :meth:`PiecewiseLinearCdf.preimages` of ``targets``
    under every margin, from one sort; points within 1e-13 of the previous one
    are merged and the last point is exactly 1.  Also, per margin, the sorted
    indices of its preimages in the union: an operator image's slab mesh."""
    pre = [fm.preimages(targets) for fm in margins]
    pts, inv = np.unique(np.concatenate([[0.0, 1.0], *pre]), return_inverse=True)
    keep, group = [pts[0]], []  # group: the kept point each sorted point merges into
    for x in pts.tolist():
        if x - keep[-1] > 1e-13:
            keep.append(x)
        group.append(len(keep) - 1)
    keep[-1] = 1.0
    ends = list(itertools.accumulate(len(p) for p in pre))
    meshes = np.split(np.asarray(group)[inv[2:]], ends[:-1])
    merged = len(keep) < len(pts)
    return np.asarray(keep), [np.unique(m) for m in meshes] if merged else meshes


class BilinearSurface:
    """Bivariate copula surface on a nonuniform node grid.

    Values are bilinearly interpolated between nodes; with uniform margins
    at the nodes this is exactly the cdf of a bivariate checkerboard.
    """

    __slots__ = ("xs", "ys", "values")

    def __init__(self, xs, ys, values, check: bool = True):
        self.xs = np.asarray(xs, dtype=float)
        self.ys = np.asarray(ys, dtype=float)
        self.values = np.asarray(values, dtype=float)
        if self.values.shape != (len(self.xs), len(self.ys)):
            raise DimensionMismatch("surface values must match node counts")
        if check:
            self.check_margins()

    def check_margins(self, tol: float = _MARGIN_TOL):
        err = max(
            float(np.max(np.abs(self.values[:, -1] - self.xs))),
            float(np.max(np.abs(self.values[-1, :] - self.ys))),
            float(np.max(np.abs(self.values[:, 0]))),
            float(np.max(np.abs(self.values[0, :]))),
        )
        if err > tol:
            raise DegenerateMargins(f"surface margins deviate by {err:.3e}")

    def eval_lattice(self, xs2, ys2) -> np.ndarray:
        return _contract(self.values, [_axis_map(self.xs, xs2), _axis_map(self.ys, ys2)])

    def key(self) -> bytes:
        return self.xs.tobytes() + b"|" + self.ys.tobytes() + b"|" + self.values.tobytes()


@dataclass
class ConditionalFamily:
    """Per-slab conditional decomposition w.r.t. one conditioning axis.

    On slab ``k``, ``[t_breaks[k], t_breaks[k + 1]]``, the conditional
    margins are ``margins1[k]``, ``margins2[k]`` and the conditional copula
    is ``surfaces[k]``: a :class:`BilinearSurface` for grid and empirical
    input, a vectorized bivariate cdf for a closed form, None throughout
    where it varies inside a slab (as for EFGM).  ``closed_partial`` is the
    closed-form partial copula, if one is known.
    """

    t_breaks: np.ndarray
    margins1: list
    margins2: list
    surfaces: list | None = None
    closed_partial: object = None

    @property
    def weights(self) -> np.ndarray:
        """Slab masses, equal to the slab widths for a copula."""
        return np.diff(self.t_breaks)

    def partial_copula(self):
        """The closed-form partial copula, else the slab-weighted average of
        the conditional copulas (computed on each call)."""
        if self.closed_partial is not None:
            return self.closed_partial
        return average_surfaces(self.weights, self.surfaces)

    def bilinear_surfaces(self) -> list:
        """The conditional copulas; ClosedFormUnavailable unless bilinear."""
        if self.surfaces is None or not isinstance(self.surfaces[0], BilinearSurface):
            raise ClosedFormUnavailable("the conditional copulas are not bilinear surfaces")
        return self.surfaces


# -- kernels -------------------------------------------------------------------


def _normalize_cond_axes(C, cond_axes):
    if cond_axes is None:
        return (C.dim - 1,)
    axes = tuple(int(a) for a in cond_axes)
    if any(a < 0 or a >= C.dim for a in axes) or len(set(axes)) != len(axes):
        raise BadAxis(f"conditioning axes {axes} invalid for dim {C.dim}")
    return axes


def _kernel_at(C: GridCopula, t, cond_axes) -> np.ndarray:
    """Kernel node tensor of the conditioning cell holding ``t``; ZeroMassSlab
    if that cell carries no mass."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if len(t) != len(cond_axes):
        raise DimensionMismatch("one conditioning value per conditioning axis")
    cell = tuple(int(cell_index(C.breaks[a], ti)) for a, ti in zip(cond_axes, t))
    K = C.kernel_nodes(cond_axes, cell)
    if K.flat[-1] <= 0.0:
        raise ZeroMassSlab(f"conditioning cell {cell} has zero mass")
    return K


def kernel_cdf(C, t, u, cond_axes=None) -> float:
    """Markov kernel ``K(t, [0, u])`` of a grid, empirical or analytic copula.

    ``cond_axes`` selects the conditioning coordinates (default: the last,
    the only choice for empirical and analytic copulas); ``u`` lists the
    remaining coordinates in ascending axis order.  On a grid the kernel is
    constant in ``t`` across conditioning cells and multilinear in ``u``
    within cells; an empirical copula, which must be three-dimensional, is
    read through its conditional family.
    """
    cond_axes = _normalize_cond_axes(C, cond_axes)
    t = np.atleast_1d(np.asarray(t, dtype=float))
    u = np.atleast_1d(np.asarray(u, dtype=float))
    free = [a for a in range(C.dim) if a not in cond_axes]
    if len(t) != len(cond_axes) or len(u) != len(free):
        raise DimensionMismatch("need one t per conditioning axis, one u per free axis")
    if isinstance(C, (AnalyticCopula, EmpiricalCopula)) and cond_axes != (C.dim - 1,):
        raise BadAxis(f"{C!r} conditions on its last axis only")
    if isinstance(C, AnalyticCopula):
        return float(C.kernel(t, u)[0])
    if isinstance(C, EmpiricalCopula):
        if C.dim != 3:
            raise DimensionMismatch("the kernel of an empirical copula needs three dimensions")
        fam = slab_family(C)
        k = cell_index(fam.t_breaks, t[0])
        x, y = fam.margins1[k](u[:1]), fam.margins2[k](u[1:])
        return float(fam.surfaces[k].eval_lattice(x, y)[0, 0])
    K = _kernel_at(C, t, cond_axes)
    return float(multilinear_interp(K, [C.breaks[a] for a in free], u[None, :])[0])


def conditional_margin(C: GridCopula, j: int, t, cond_axes=None) -> PiecewiseLinearCdf:
    """Conditional univariate margin of coordinate ``j`` given the
    conditioning cell containing ``t``: the kernel's column along ``j`` with
    the other free coordinates at 1."""
    cond_axes = _normalize_cond_axes(C, cond_axes)
    if j in cond_axes or not 0 <= j < C.dim:
        raise BadAxis(f"axis {j} is not a free coordinate")
    K = _kernel_at(C, t, cond_axes)
    free = [a for a in range(C.dim) if a not in cond_axes]
    vals = K[tuple(slice(None) if a == j else -1 for a in free)].copy()
    vals[-1] = 1.0
    return PiecewiseLinearCdf(C.breaks[j], vals)


# -- conditional copulas (Sklar inversion on grids) ----------------------------


def _surface_from_joint(bx, by, joint):
    """Conditional copula surface and margins from one conditioning fiber;
    ZeroMassSlab if the fiber carries no mass."""
    cum = cum_nodes(joint)
    w = cum[-1, -1]
    if w <= 0:
        raise ZeroMassSlab("a conditioning fiber has zero mass: its conditional copula "
                           "is undefined")
    K = cum / w
    K[-1, -1] = 1.0
    f1 = K[:, -1].copy()
    f2 = K[-1, :].copy()
    f1[-1] = 1.0
    f2[-1] = 1.0
    col = joint.sum(axis=1)
    row = joint.sum(axis=0)
    if np.any((np.diff(f1) <= 1e-15) & (col > 1e-12)) or np.any(
        (np.diff(f2) <= 1e-15) & (row > 1e-12)
    ):
        raise DegenerateMargins("flat conditional margin overlaps positive mass")
    sx, ix = np.unique(f1, return_index=True)
    sy, iy = np.unique(f2, return_index=True)
    S = BilinearSurface(sx, sy, K[np.ix_(ix, iy)])
    m1 = PiecewiseLinearCdf(bx, f1)
    m2 = PiecewiseLinearCdf(by, f2)
    return S, m1, m2


def slab_family(C) -> ConditionalFamily:
    """Conditional family of a three-dimensional copula w.r.t. its last
    axis: built from a grid or an empirical copula, and the family an
    analytic copula carries (ClosedFormUnavailable if it carries none)."""
    if isinstance(C, AnalyticCopula):
        if C.family is None:
            raise ClosedFormUnavailable(f"{C!r} carries no closed-form family")
        return C.family
    if C.dim != 3:
        raise DimensionMismatch("slab_family expects a three-dimensional copula")
    if isinstance(C, EmpiricalCopula):
        return _empirical_family(C)
    bx, by, bt = C.breaks
    surfaces, m1s, m2s = [], [], []
    for k in range(C.shape[2]):
        S, m1, m2 = _surface_from_joint(bx, by, C.masses[:, :, k])
        surfaces.append(S)
        m1s.append(m1)
        m2s.append(m2)
    return ConditionalFamily(bt, m1s, m2s, surfaces)


def _empirical_family(C: EmpiricalCopula) -> ConditionalFamily:
    """Each slab of a rank-form empirical copula holds one point, so its
    conditional copula is independence on the collapsed image grid and its
    conditional margins are ramps across that point's cells."""
    square = BilinearSurface([0.0, 1.0], [0.0, 1.0], [[0.0, 0.0], [0.0, 1.0]])
    ranks = C.ranks[np.argsort(C.ranks[:, 2])]
    return ConditionalFamily(uniform_breaks(C.n), _Ramps(C.n, ranks[:, 0]),
                             _Ramps(C.n, ranks[:, 1]), [square] * C.n)


class _Ramps:
    """Conditional margins of a rank-form empirical copula along one axis: per
    slab, the uniform law on the cell of its point's rank ``r`` of ``n``,
    built when read (:func:`is_simplified` reads none)."""

    def __init__(self, n: int, ranks: np.ndarray):
        self.n, self.ranks = n, ranks

    def __getitem__(self, k) -> PiecewiseLinearCdf:
        r, n = int(self.ranks[k]), self.n
        keep = [True, r > 1, True, r < n]
        return PiecewiseLinearCdf(np.array([0.0, (r - 1) / n, r / n, 1.0])[keep],
                                  np.array([0.0, 0.0, 1.0, 1.0])[keep])


def conditional_copula(C, slab_index: int) -> BilinearSurface:
    """Conditional copula of coordinates (1, 2) given the last-axis slab."""
    surfaces = slab_family(C).bilinear_surfaces()
    if not 0 <= slab_index < len(surfaces):
        raise BadAxis(f"slab {slab_index} out of range")
    return surfaces[slab_index]


def partial_copula(C):
    """Slab-weighted average of the conditional copulas (the expected
    conditional copula): a :class:`BilinearSurface` for grid and empirical
    input, the closed-form bivariate cdf for analytic input."""
    return slab_family(C).partial_copula()


def average_surfaces(weights, surfaces) -> BilinearSurface:
    xs = np.unique(np.concatenate([s.xs for s in surfaces]))
    ys = np.unique(np.concatenate([s.ys for s in surfaces]))
    acc = np.zeros((len(xs), len(ys)))
    for w, s in zip(weights, surfaces):
        if w > 0:
            acc += w * s.eval_lattice(xs, ys)
    acc /= float(np.sum(weights))
    return BilinearSurface(xs, ys, acc, check=False)


# -- diagnostics ---------------------------------------------------------------


def surface_l1_distance(a: BilinearSurface, b: BilinearSurface) -> float:
    """Integral of ``|a - b|`` over the unit square, in closed form (exact)."""
    xs = np.union1d(a.xs, b.xs)
    ys = np.union1d(a.ys, b.ys)
    diff = a.eval_lattice(xs, ys) - b.eval_lattice(xs, ys)
    return integrate_abs_multilinear(diff, (xs, ys))[0]


def is_simplified(C, tol: float = 1e-9):
    """Simplifiedness gap of a three-dimensional grid copula.

    Returns ``(flag, delta)`` where ``delta`` is the largest integrated
    absolute difference between two slab conditional copulas, computed in
    closed form (exact), and ``flag`` is ``delta <= tol``.  Identical
    surfaces are grouped first, so a simplified copula with many slabs costs
    one comparison.
    """
    groups: dict = {}
    for s in slab_family(C).bilinear_surfaces():
        groups.setdefault(s.key(), s)
    distinct = list(groups.values())
    delta = 0.0
    for i in range(len(distinct)):
        for j in range(i + 1, len(distinct)):
            delta = max(delta, surface_l1_distance(distinct[i], distinct[j]))
    return delta <= tol, delta


def j_functional(C, D, tol: float = 1e-8):
    """Integrated absolute difference of the conditional-copula fields.

    Returns ``(value, error_bound)``.  Each slab pair is integrated in
    closed form, so the value is exact and the bound is 0, which meets any
    requested ``tol``.
    """
    fam_c = slab_family(C)
    fam_d = slab_family(D)
    surf_c = fam_c.bilinear_surfaces()
    surf_d = fam_d.bilinear_surfaces()
    t = np.union1d(fam_c.t_breaks, fam_d.t_breaks)
    total = 0.0
    cache: dict = {}
    for lo, hi in zip(t[:-1], t[1:]):
        mid = (lo + hi) / 2
        sc = surf_c[cell_index(fam_c.t_breaks, mid)]
        sd = surf_d[cell_index(fam_d.t_breaks, mid)]
        key = (sc.key(), sd.key())
        if key not in cache:
            cache[key] = surface_l1_distance(sc, sd)
        total += (hi - lo) * cache[key]
    return total, 0.0


def disintegration_residual(C: GridCopula, lower, upper) -> float:
    """Gap between the slabwise kernel integral over a box and the box mass
    (two independent computational routes for the same measure)."""
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    cond = C.dim - 1
    bt = C.breaks[cond]
    upper_bits, signs = _corner_matrix(cond)
    pts = np.where(upper_bits, upper[None, :cond], lower[None, :cond])
    lhs = 0.0
    for k in range(len(bt) - 1):
        width = min(upper[cond], bt[k + 1]) - max(lower[cond], bt[k])
        if width <= 0:
            continue
        # a slab without mass has the zero kernel and adds nothing
        K = C.kernel_nodes((cond,), (k,))
        lhs += width * (signs @ multilinear_interp(K, C.breaks[:-1], pts))
    rhs = box_mass(C, lower, upper)
    return abs(lhs - rhs)
