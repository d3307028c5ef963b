"""Deterministic tensor quadrature.

Two integrators are provided:

* :func:`integrate_abs_multilinear` integrates ``|g|`` for a function that is
  multilinear between the nodes of a rectangular mesh.  Sign-definite cells
  are integrated exactly (corner mean times volume); mixed-sign cells are
  bisected recursively.  Because multilinear interpolation has nonnegative
  weights, ``|corner-mean| * vol <= cell integral <= mean(|corners|) * vol``,
  which yields a certified bracket at every stage.

* :func:`adaptive_gl` is a tensor Gauss-Legendre rule (order 8 by default)
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

from .grid import _interp_matrix


@lru_cache(maxsize=None)
def leg01(order: int):
    """Gauss-Legendre nodes and weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(order)
    return (x + 1.0) / 2.0, w / 2.0


def _corner_tensor(values: np.ndarray) -> np.ndarray:
    """Stack per-cell corner values: shape (*cells, 2**d) from node tensor."""
    d = values.ndim
    slabs = []
    for bits in itertools.product((0, 1), repeat=d):
        sl = tuple(slice(b, values.shape[j] - 1 + b) for j, b in enumerate(bits))
        slabs.append(values[sl])
    return np.stack(slabs, axis=-1)


_SPLIT_CACHE: dict = {}


def _split_matrix(d: int) -> np.ndarray:
    """Maps 2**d parent corners to (2**d children x 2**d corners) values."""
    if d not in _SPLIT_CACHE:
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
        _SPLIT_CACHE[d] = np.array(rows)  # (2**d children, 2**d corners, 2**d parent)
    return _SPLIT_CACHE[d]


def integrate_abs_multilinear(values: np.ndarray, axes, tol: float = 1e-10,
                              max_rounds: int = 60):
    """Integrate ``|g|`` where ``g`` is multilinear between mesh nodes.

    Parameters
    ----------
    values : ndarray
        Node values of ``g`` on the mesh, shape ``tuple(len(a) for a in axes)``.
    axes : sequence of 1-d arrays
        Mesh breakpoints per axis.
    tol : float
        Target width of the certified bracket.

    Returns
    -------
    (value, half_width) : tuple of float
        ``value`` is the bracket midpoint; the true integral lies within
        ``half_width`` of it (certified).
    """
    d = values.ndim
    widths = [np.diff(np.asarray(a, dtype=float)) for a in axes]
    vols = reduce(np.multiply.outer, widths) if d > 1 else widths[0]
    active_c = _corner_tensor(values).reshape(-1, 2**d)
    active_v = vols.reshape(-1).copy()
    split = _split_matrix(d)

    settled_lo = 0.0
    settled_up = 0.0
    for _ in range(max_rounds):
        lo = np.abs(active_c.mean(axis=1)) * active_v
        up = np.abs(active_c).mean(axis=1) * active_v
        total_lo = settled_lo + float(lo.sum())
        total_up = settled_up + float(up.sum())
        if total_up - total_lo <= tol or active_c.shape[0] == 0:
            break
        budget = tol - (settled_up - settled_lo)
        done = (up - lo) <= max(budget, 0.0) / (4.0 * max(len(lo), 1))
        settled_lo += float(lo[done].sum())
        settled_up += float(up[done].sum())
        active_c = active_c[~done]
        active_v = active_v[~done]
        if active_c.shape[0] == 0 or active_c.shape[0] > 2_000_000:
            total_lo = settled_lo + float(lo[~done].sum())
            total_up = settled_up + float(up[~done].sum())
            break
        children = np.einsum("kcp,np->nkc", split, active_c)
        active_c = children.reshape(-1, 2**d)
        active_v = np.repeat(active_v / 2**d, 2**d)
    else:
        lo = np.abs(active_c.mean(axis=1)) * active_v
        up = np.abs(active_c).mean(axis=1) * active_v
        total_lo = settled_lo + float(lo.sum())
        total_up = settled_up + float(up.sum())
    return (total_lo + total_up) / 2.0, (total_up - total_lo) / 2.0


def integrate_multilinear(values: np.ndarray, axes) -> float:
    """Exact integral of a function multilinear between mesh nodes."""
    d = values.ndim
    widths = [np.diff(np.asarray(a, dtype=float)) for a in axes]
    vols = reduce(np.multiply.outer, widths) if d > 1 else widths[0]
    corners = _corner_tensor(values).reshape(-1, 2**d)
    return float(np.dot(corners.mean(axis=1), vols.reshape(-1)))


def integrate_square_multilinear(values: np.ndarray, axes) -> float:
    """Exact integral of ``g**2`` for mesh-multilinear ``g`` (2-point GL)."""
    d = values.ndim
    x, w = leg01(2)
    vals = values
    for j in range(d):
        a = np.asarray(axes[j], dtype=float)
        pts = (a[:-1, None] + np.diff(a)[:, None] * x[None, :]).ravel()
        W = _interp_matrix(a, pts)
        vals = np.moveaxis(np.tensordot(W, vals, axes=(1, j)), 0, j)
    sq = vals**2
    for j in range(d):
        a = np.asarray(axes[j], dtype=float)
        wj = (np.diff(a)[:, None] * w[None, :]).ravel()
        sq = np.tensordot(wj, sq, axes=(0, 0))
    return float(sq)


def adaptive_gl(f, axes, order: int = 8, tol: float = 1e-8,
                max_evals: int = 2_000_000):
    """Adaptive tensor Gauss-Legendre integration over a meshed unit box.

    Parameters
    ----------
    f : callable
        Vectorized integrand mapping points of shape (m, d) to values (m,).
    axes : sequence of 1-d arrays
        Initial mesh breakpoints per axis (integrand may be nonsmooth only
        on mesh planes for the estimate to be sharp).
    order : int
        Nodes per axis and cell.
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
        coarse = _gl_cell(f, cell, order)
        fine = 0.0
        for sub in _split_cell(cell):
            fine += _gl_cell(f, sub, order)
        n_evals += order**d * (1 + 2**d)
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


def _gl_cell(f, cell, order: int) -> float:
    x, w = leg01(order)
    pts_1d = [lo + (hi - lo) * x for lo, hi in cell]
    wts_1d = [(hi - lo) * w for lo, hi in cell]
    grid = np.stack([g.ravel() for g in np.meshgrid(*pts_1d, indexing="ij")], axis=-1)
    wts = reduce(np.multiply.outer, wts_1d).ravel() if len(cell) > 1 else wts_1d[0]
    return float(np.dot(f(grid), wts))
