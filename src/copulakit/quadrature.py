"""Deterministic tensor quadrature.

Two integrators are provided:

* :func:`integrate_abs_multilinear` integrates ``|g|`` for a function that is
  multilinear between the nodes of a rectangular mesh.  Cells whose corners
  share a sign are integrated exactly (corner mean times volume).  On one
  and two axes the mixed-sign cells are integrated in closed form as well,
  so the result is exact (half-width 0): a linear cell in one line, a
  bilinear cell as a midpoint rule plus a logarithm on at most three pieces
  (:func:`_abs_bilinear_unit`).  On three or more axes mixed-sign cells are
  bisected recursively; because multilinear interpolation has nonnegative
  weights, ``|corner-mean| * vol <= cell integral <= mean(|corners|) * vol``,
  which yields a certified bracket at every stage.

* :func:`adaptive_gl` is a tensor Gauss-Legendre rule of order 8
  with one-level refinement as error estimate and adaptive subdivision of
  the worst cells, for smooth or piecewise-smooth integrands given by a
  vectorized callable.

Both are deterministic for fixed inputs (fixed processing order, fixed
summation order).
"""

from __future__ import annotations

import heapq
import itertools
from functools import lru_cache, reduce

import numpy as np

from .grid import _axis_map, _contract

_GL_ORDER = 8  # nodes per axis and cell of adaptive_gl's rule


@lru_cache(maxsize=None)
def leg01(order: int):
    """Gauss-Legendre nodes and weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(order)
    return (x + 1.0) / 2.0, w / 2.0


def _corner_slabs(values: np.ndarray, d: int) -> list:
    """Per-cell corner values over the last ``d`` axes of a node tensor (or a
    stack of them), one array per corner, in ``product((0, 1), repeat=d)`` order."""
    return [values[(...,) + tuple(slice(b, n - 1 + b) for n, b in zip(values.shape[-d:], bits))]
            for bits in itertools.product((0, 1), repeat=d)]


def _any_corner(mask: np.ndarray, d: int) -> np.ndarray:
    """Cells with at least one node of ``mask``."""
    return reduce(np.logical_or, _corner_slabs(mask, d))


@lru_cache(maxsize=None)
def _split_matrix(d: int) -> np.ndarray:
    """Maps 2**d parent corners to (2**d children x 2**d corners) values."""
    half = np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]])
    lattice = reduce(np.kron, [half] * d) if d > 1 else half
    # lattice rows are the 3**d refined nodes in C order
    idx3 = np.arange(3**d).reshape((3,) * d)
    rows = []
    for child in itertools.product((0, 1), repeat=d):
        corner_ids = []
        for bits in itertools.product((0, 1), repeat=d):
            pos = tuple(c + b for c, b in zip(child, bits))
            corner_ids.append(idx3[pos])
        rows.append(lattice[corner_ids])
    return np.array(rows)  # (2**d children, 2**d corners, 2**d parent)


def integrate_abs_multilinear(values: np.ndarray, axes, tol: float = 1e-10,
                              max_rounds: int = 60):
    """Integrate ``|g|`` where ``g`` is multilinear between mesh nodes.

    Parameters
    ----------
    values : ndarray
        Node values of ``g`` on the mesh, shape ``tuple(len(a) for a in axes)``,
        or on one and two axes a stack of them on a leading slab axis.
    axes : sequence of 1-d arrays
        Mesh breakpoints per axis.
    tol : float
        Target width of the certified bracket on three or more axes.
    max_rounds : int
        Bisection rounds at most, on three or more axes.

    Returns
    -------
    (value, half_width) : tuple of float
        The true integral lies within ``half_width`` of ``value``.  On one
        and two axes the value is the closed form and ``half_width`` is 0; a
        stack gives one value per slab, its cells summed as a lone mesh's.
    """
    d = len(axes)
    widths = [np.diff(np.asarray(a, dtype=float)) for a in axes]
    vols = reduce(np.multiply.outer, widths)
    corners = _corner_slabs(values, d)
    if d > 2:
        return _bisect_abs(np.stack(corners, axis=-1).reshape(-1, 2**d), vols.reshape(-1),
                           d, tol, max_rounds)
    # exact on sign-definite cells: the corner mean, summed from 0 in corner
    # order as mean() reduces a corner row; only mixed cells are overwritten,
    # so a mesh without them sums the same per-cell values in the same order
    cells = np.abs(sum(corners) / 2**d)
    mixed = _any_corner(values < 0.0, d) & _any_corner(values > 0.0, d)
    if mixed.any():
        c = np.stack([s[mixed] for s in corners], axis=1)
        cells[mixed] = _abs_linear_unit(c[:, 0], c[:, 1]) if d == 1 else _abs_bilinear_unit(c)
    cells *= vols
    return [float(s.sum()) for s in cells] if values.ndim > d else float(cells.sum()), 0.0


def _abs_linear_unit(a, b):
    """``int_0^1 |a + (b - a) x| dx`` where ``a`` and ``b`` have strictly
    opposite signs."""
    return (a * a + b * b) / (2.0 * np.abs(b - a))


# terms of the power series used where the log form cancels: |z| <= 1/4, so
# the truncation is below 4**-30 < 1e-18 relative, under the rounding unit
_SERIES_TERMS = 30
_SERIES_K = np.arange(_SERIES_TERMS)


def _abs_bilinear_unit(c):
    """``int |g|`` over the unit square for bilinear ``g`` with corner values
    ``c[:, 0..3]`` at (0, 0), (0, 1), (1, 0), (1, 1).

    For fixed ``t`` the integrand is linear in ``x``, from ``g0(t) = g(0, t)``
    to ``g1(t) = g(1, t)``, so the inner integral is ``|g0 + g1| / 2`` where
    they share a sign and ``(g0**2 + g1**2) / (2 |g1 - g0|)`` where they do
    not.  ``t`` is split at the roots of ``g0`` and ``g1`` (at most three
    pieces); on each piece the signs are fixed, so the first form integrates
    exactly by the midpoint rule and the second by :func:`_abs_cross_piece`.
    """
    c00, c01, c10, c11 = c.T
    with np.errstate(divide="ignore", invalid="ignore"):
        r0 = np.where(c00 * c01 < 0.0, c00 / (c00 - c01), np.nan)
        r1 = np.where(c10 * c11 < 0.0, c10 / (c10 - c11), np.nan)
    ends = np.stack([np.zeros_like(r0), r0, r1, np.ones_like(r0)], axis=1)
    t = np.sort(ends, axis=1)  # missing roots sort last as nan: empty pieces at 1
    t[np.isnan(t)] = 1.0
    # g0, g1 at the piece ends, exactly 0 at their own roots
    g0 = np.where(t == r0[:, None], 0.0, (1.0 - t) * c00[:, None] + t * c01[:, None])
    g1 = np.where(t == r1[:, None], 0.0, (1.0 - t) * c10[:, None] + t * c11[:, None])
    h = np.diff(t, axis=1)
    m0 = (g0[:, :-1] + g0[:, 1:]) / 2.0
    m1 = (g1[:, :-1] + g1[:, 1:]) / 2.0
    out = h * np.abs(m0 + m1) / 2.0
    cross = (np.sign(m0) * np.sign(m1) < 0.0) & (h > 0.0)
    if cross.any():
        out[cross] = h[cross] * _abs_cross_piece(
            g0[:, :-1][cross], g0[:, 1:][cross], g1[:, :-1][cross], g1[:, 1:][cross])
    return out.sum(axis=1)


def _abs_cross_piece(a0, a1, b0, b1):
    """``int_0^1 (g0**2 + g1**2) / (2 |g1 - g0|) ds`` for linear ``g0`` from
    ``a0`` to ``a1`` and ``g1`` from ``b0`` to ``b1`` of strictly opposite
    signs on (0, 1).

    ``beta = g1 - g0`` keeps its sign; with ``s = 0`` at the end where
    ``|beta|`` is larger, ``beta = q0 w`` with ``w = 1 + z s`` and
    ``z in [-1, 0]``.  Writing ``g0 = e + rho w`` (``e`` is ``g0`` at the
    pole ``w = 0``) turns the integrand into
    ``(e**2 / w + m1 + m2 w) / |q0|``, whose integral is
    ``(e**2 log1p(z) / z + m1 + m2 (1 + z / 2)) / |q0|``.  That form cancels
    for small ``|z|``; there the power series of ``1 / w`` is used instead.
    A pole on the piece's end (``z = -1``) is a shared root of ``g0`` and
    ``g1``, where ``e = 0``, so the log term is dropped.
    """
    flip = np.abs(a1 - b1) > np.abs(a0 - b0)
    a0, a1 = np.where(flip, a1, a0), np.where(flip, a0, a1)
    b0, b1 = np.where(flip, b1, b0), np.where(flip, b0, b1)
    q0 = b0 - a0
    z = np.clip(((b1 - a1) - q0) / q0, -1.0, 0.0)
    da, db = a1 - a0, b1 - b0
    out = np.empty_like(z)
    series = z >= -0.25
    if series.any():
        # int_0^1 N(s) s**k ds for N = (g0**2 + g1**2) / 2 = n0 + n1 s + n2 s**2
        a, b, p, q = a0[series], b0[series], da[series], db[series]
        k = _SERIES_K[None, :]
        moments = ((a * a + b * b)[:, None] / (2.0 * (k + 1))
                   + (a * p + b * q)[:, None] / (k + 2)
                   + (p * p + q * q)[:, None] / (2.0 * (k + 3)))
        out[series] = (moments * (-z[series])[:, None] ** k).sum(axis=1)
    logf = ~series
    if logf.any():
        zz, qq = z[logf], q0[logf]
        rho = da[logf] / zz
        e = a0[logf] - rho
        pole = zz == -1.0
        log_term = np.where(pole, 0.0, e * e * np.log1p(np.where(pole, -0.5, zz)) / zz)
        out[logf] = (log_term + e * (2.0 * rho + qq)
                     + (rho * rho + rho * qq + qq * qq / 2.0) * (1.0 + zz / 2.0))
    return out / np.abs(q0)


def _bisect_abs(corners, vols, d, tol, max_rounds):
    """Certified bracket of ``int |g|`` by recursive bisection of the
    ``d``-dimensional cells with corner rows ``corners`` and volumes ``vols``,
    bracketed once per round.  A split whose children's corner table would
    pass 2M x 4**3 doubles (1 GB, the peak of 2M cells on 3 axes; 500k cells
    on 4) is not made: the bracket of the unsplit cells is returned."""
    settled_lo = settled_up = 0.0
    capped = False
    for rnd in range(max_rounds + 1):
        lo = np.abs(corners.mean(axis=1)) * vols
        up = np.abs(corners).mean(axis=1) * vols
        total_lo = settled_lo + float(lo.sum())
        total_up = settled_up + float(up.sum())
        if total_up - total_lo <= tol or len(lo) == 0 or rnd == max_rounds or capped:
            break
        budget = tol - (settled_up - settled_lo)
        done = (up - lo) <= max(budget, 0.0) / (4.0 * len(lo))
        settled_lo += float(lo[done].sum())
        settled_up += float(up[done].sum())
        corners, vols = corners[~done], vols[~done]
        capped = len(corners) * 4**d > 2_000_000 * 4**3
        if not capped:
            corners = np.einsum("kcp,np->nkc", _split_matrix(d), corners).reshape(-1, 2**d)
            vols = np.repeat(vols / 2**d, 2**d)
    return (total_lo + total_up) / 2.0, (total_up - total_lo) / 2.0


def integrate_square_multilinear(values: np.ndarray, axes):
    """Exact integral of ``g**2`` for mesh-multilinear ``g`` (2-point GL), or a
    list for a stack on a leading slab axis: the maps are built once, but each
    slab is contracted alone, as one BLAS call over the stack rounds otherwise."""
    x, w = leg01(2)
    axes = [np.asarray(a, dtype=float) for a in axes]
    maps = [_axis_map(a, (a[:-1, None] + np.diff(a)[:, None] * x).ravel()) for a in axes]
    weights = [(np.diff(a)[:, None] * w).ravel() for a in axes]
    out = []
    for v in values.reshape((-1,) + values.shape[values.ndim - len(axes):]):
        sq = _contract(v, maps) ** 2
        for wa in weights:
            sq = np.tensordot(wa, sq, axes=(0, 0))
        out.append(float(sq))
    return out if values.ndim > len(axes) else out[0]


def adaptive_gl(f, axes, tol: float = 1e-8, max_evals: int = 2_000_000):
    """Adaptive tensor Gauss-Legendre integration over a meshed unit box.

    Parameters
    ----------
    f : callable
        Vectorized integrand mapping points of shape (m, d) to values (m,).
    axes : sequence of 1-d arrays
        Initial mesh breakpoints per axis (integrand may be nonsmooth only
        on mesh planes for the estimate to be sharp).
    tol : float
        Target total error estimate (difference between the coarse rule and
        one uniform refinement per cell).

    Returns
    -------
    (value, err_estimate, n_evals)
    """
    d = len(axes)
    cells = list(
        itertools.product(*[list(zip(a[:-1], a[1:])) for a in map(np.asarray, axes)])
    )
    n_evals = 0
    heap = []
    counter = itertools.count()
    total = 0.0
    total_err = 0.0

    def rule(cell):
        nonlocal n_evals
        coarse, *halves = _gl_rules(f, cell)
        fine = 0.0
        for val in halves:
            fine += val
        n_evals += _GL_ORDER**d * (1 + 2**d)
        return fine, abs(fine - coarse)

    for cell in cells:
        val, err = rule(cell)
        total += val
        total_err += err
        heapq.heappush(heap, (-err, next(counter), cell, val, err))

    while total_err > tol and heap and n_evals < max_evals:
        _, _, cell, val, err = heapq.heappop(heap)
        if err <= 0:
            heapq.heappush(heap, (0.0, next(counter), cell, val, err))
            break
        total -= val
        total_err -= err
        for sub in _split_cell(cell):
            v, e = rule(sub)
            total += v
            total_err += e
            heapq.heappush(heap, (-e, next(counter), sub, v, e))
    return total, total_err, n_evals


def _split_cell(cell):
    halves = [((lo, (lo + hi) / 2), ((lo + hi) / 2, hi)) for lo, hi in cell]
    return itertools.product(*halves)


@lru_cache(maxsize=None)
def _gl_index(d: int) -> np.ndarray:
    """Per point and axis of :func:`_gl_rules`, the index into that axis's
    table of the rule's nodes on the whole cell, its lower and its upper
    half (``_GL_ORDER`` each): the whole cell's points, then each half's in
    :func:`_split_cell` order, every rule's points in C order."""
    nodes = np.stack([g.ravel() for g in np.meshgrid(*[np.arange(_GL_ORDER)] * d,
                                                      indexing="ij")], axis=-1)
    pieces = [(0,) * d, *itertools.product((1, 2), repeat=d)]
    return np.concatenate([nodes + _GL_ORDER * np.array(p) for p in pieces])


def _gl_rules(f, cell) -> list:
    """The Gauss-Legendre rule on ``cell`` and on each of its halves, in
    :func:`_split_cell` order, from one call of ``f``."""
    x, w = leg01(_GL_ORDER)
    d = len(cell)
    lo, hi = np.array(cell).T
    mid = (lo + hi) / 2
    # per axis, the rule's nodes and weights on the cell, its lower and its upper half
    starts = np.stack([lo, lo, mid], axis=1)[..., None]
    widths = np.stack([hi - lo, mid - lo, hi - mid], axis=1)[..., None]
    at = (np.arange(d), _gl_index(d))
    pts = (starts + widths * x).reshape(d, -1)[at]
    wts = reduce(np.multiply, (widths * w).reshape(d, -1)[at].T)
    vals = f(pts)
    m = _GL_ORDER**d
    return [float(np.dot(vals[k : k + m], wts[k : k + m])) for k in range(0, len(vals), m)]
