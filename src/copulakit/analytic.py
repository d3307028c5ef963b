"""Copulas given by closed-form evaluators.

Used for the singular and smooth constructions (shuffles, perturbation
families, the composite worst-case example) that have no finite
checkerboard representation.  An :class:`AnalyticCopula` carries a
vectorized cdf, an optional Markov-kernel evaluator conditioning on the
last coordinate, structural hints consumed by the metrics layer and, in
dimension three, optionally its conditional family.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, KernelUnavailable


class AnalyticCopula:
    """Copula defined by a closed-form cdf.

    Parameters
    ----------
    dim : int
        Number of coordinates.
    cdf_fn : callable
        Vectorized evaluator mapping an (m, dim) array of points in the unit
        hypercube to the m copula values.
    slabs_fn : callable, optional
        Lattice evaluator ``axes -> iterator of slabs``, yielding the cdf on
        the lattice of ``axes[1:]`` at each node of ``axes[0]`` in turn, with
        the values of ``cdf_fn`` at those points bit for bit; without it
        :meth:`cdf_slabs` evaluates ``cdf_fn`` in blocks of points.
    kernel_fn : callable, optional
        Vectorized Markov-kernel evaluator ``(v, u) -> K(v, [0, u])``
        conditioning on the last coordinate; ``v`` has shape (m,) and ``u``
        shape (m, dim-1).
    kernel_v_breaks : array-like, optional
        Conditioning values at which the kernel may be nonsmooth in ``v``
        (quadrature subdivides there).
    kernel_u_breaks : sequence of array-like, optional
        Per remaining coordinate, points of nonsmoothness in ``u``; stored
        as one array per free axis, each holding 0 and 1.
    multilinear : bool
        True only if the cdf is globally multilinear (e.g. the independence
        copula), which lets the sup-metric use exact node maxima.
    family : ConditionalFamily, optional
        Closed-form conditional decomposition w.r.t. the last coordinate
        (see :class:`copulakit.conditioning.ConditionalFamily`); the
        conditioning layer and the vine operator :func:`copulakit.pvc.pvc3`
        work from it.
    """

    def __init__(self, dim, cdf_fn, kernel_fn=None, kernel_v_breaks=None,
                 kernel_u_breaks=None, multilinear=False,
                 family=None, name="", slabs_fn=None):
        self.dim = int(dim)
        self._cdf_fn = cdf_fn
        self._slabs_fn = slabs_fn
        self._kernel_fn = kernel_fn
        self.kernel_v_breaks = (
            np.array([0.0, 1.0]) if kernel_v_breaks is None
            else np.asarray(kernel_v_breaks, dtype=float)
        )
        self.kernel_u_breaks = tuple(np.union1d([0.0, 1.0], np.asarray(b, dtype=float))
                                     for b in kernel_u_breaks or [[]] * (self.dim - 1))
        self._multilinear = bool(multilinear)
        self.family = family
        self.name = name

    def cdf(self, u) -> float:
        return float(self.cdf_many(np.asarray(u, dtype=float)[None, :])[0])

    def cdf_many(self, points) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != self.dim:
            raise DimensionMismatch(f"points must have shape (m, {self.dim})")
        return np.asarray(self._cdf_fn(points), dtype=float)

    def cdf_on_lattice(self, axes) -> np.ndarray:
        """Cdf on a product lattice."""
        slabs = list(self.cdf_slabs(axes))
        return np.stack(slabs) if slabs else np.empty([len(a) for a in axes])

    def cdf_slabs(self, axes):
        """Cdf on the lattice of ``axes[1:]``, one node of ``axes[0]`` at a
        time: drawn from ``slabs_fn`` where the copula has one, else
        evaluated in blocks of nodes of about 2**14 points, and a slab of
        more than 2**16 points in blocks of whole rows of its first axis,
        each built on its own (the cdf works row by row) as a stack of
        columns, so the closed forms read each coordinate contiguously."""
        if len(axes) != self.dim:
            raise DimensionMismatch("one node array per axis required")
        shape = tuple(len(a) for a in axes[1:])
        size = int(np.prod(shape))
        if size == 0:
            yield from np.empty((len(axes[0]), *shape))
            return
        if self._slabs_fn is not None:
            yield from self._slabs_fn([np.asarray(a, dtype=float) for a in axes])
            return
        step, rows = max(1, 2**14 // size), max(1, 2**16 * shape[0] // size)
        for s in range(0, len(axes[0]), step):
            xs = axes[0][s : s + step]
            out = np.empty((len(xs), *shape))
            for r in range(0, shape[0], rows):
                # pts stays bound until the next block: freed at once, it costs page faults
                pts = np.stack(np.meshgrid(xs, axes[1][r : r + rows], *axes[2:],
                                           indexing="ij", copy=False)).reshape(self.dim, -1).T
                out[:, r : r + rows] = self.cdf_many(pts).reshape(len(xs), -1, *shape[1:])
            yield from out

    def lattice_gap(self, axes) -> float:
        """Bound on |cdf_slabs(axes) - cdf| at the nodes: none."""
        return 0.0

    def kernel(self, v, u) -> np.ndarray:
        """Markov kernel ``K(v, [0, u])`` w.r.t. the last coordinate."""
        if self._kernel_fn is None:
            raise KernelUnavailable(f"{self.name or 'copula'} has no kernel evaluator")
        v = np.atleast_1d(np.asarray(v, dtype=float))
        u = np.broadcast_to(np.asarray(u, dtype=float), (len(v), self.dim - 1))
        return np.asarray(self._kernel_fn(v, u), dtype=float)

    def multilinear_breaks(self):
        if self._multilinear:
            return tuple(np.array([0.0, 1.0]) for _ in range(self.dim))
        return None

    def __repr__(self):
        return f"AnalyticCopula(dim={self.dim}, name={self.name!r})"


def independence_analytic(dim: int) -> AnalyticCopula:
    """The independence copula as an analytic evaluator."""

    def cdf(pts):
        return np.prod(pts, axis=1)

    def kern(v, u):
        return np.prod(u, axis=1)

    return AnalyticCopula(dim, cdf, kernel_fn=kern, multilinear=True,
                          name=f"pi_{dim}")


def comonotone(dim: int = 2) -> AnalyticCopula:
    """Upper Frechet bound ``min(u_1, ..., u_d)``."""

    def cdf(pts):
        return np.min(pts, axis=1)

    def kern(v, u):
        # mass rides the diagonal: point mass at (v, ..., v)
        return np.all(u >= v[:, None], axis=1).astype(float)

    return AnalyticCopula(dim, cdf, kernel_fn=kern, name=f"m_{dim}")


def countermonotone() -> AnalyticCopula:
    """Lower Frechet bound ``max(u + v - 1, 0)`` (bivariate only)."""

    def cdf(pts):
        return np.maximum(pts[:, 0] + pts[:, 1] - 1.0, 0.0)

    def kern(v, u):
        return (u[:, 0] >= 1.0 - v).astype(float)

    return AnalyticCopula(2, cdf, kernel_fn=kern, name="w_2")
