"""Empirical copulas and sampling.

The empirical copula of an n-point tie-free sample is the d-linear
interpolation of the empirical subcopula: a checkerboard with resolution n
per axis carrying mass 1/n in exactly one cell per slab, located by the
coordinatewise ranks, whose node values on the rank grid {k/n} are step
counts.  It is stored in rank form so that large n stays cheap; a dense
:class:`~copulakit.grid.GridCopula` view is available for small n.  Every
slab's conditional copula is the independence copula, which
:func:`copulakit.conditioning.slab_family` exploits.
"""

from __future__ import annotations

import csv

import numpy as np

from .errors import BadDimension, BadOperand, DimensionMismatch, TiesDetected
from .grid import GridCopula, _axis_map, _contract, uniform_breaks

# sample points per block of the cdf evaluations
_CHUNK = 256


def sample(copula: GridCopula, n: int, seed: int) -> np.ndarray:
    """Draw ``n`` points from a grid copula (PCG64 generator, fixed seed).

    A cell is selected with probability equal to its mass, then the point is
    uniform within the cell.  Ties are astronomically unlikely but coordinates
    are re-drawn if any occur, so the result is always tie free.
    """
    if n < 1:
        raise DimensionMismatch("need n >= 1")
    try:
        rng = np.random.default_rng(seed)
    except ValueError as exc:  # a negative seed
        raise BadOperand(f"seed {seed!r} must be a non-negative integer") from exc
    flat = np.clip(copula.masses.ravel(), 0.0, None)
    flat = flat / flat.sum()
    cells = rng.choice(len(flat), size=n, p=flat)
    idx = np.unravel_index(cells, copula.shape)
    pts = np.empty((n, copula.dim))
    for j in range(copula.dim):
        b = copula.breaks[j]
        lo = b[idx[j]]
        width = b[idx[j] + 1] - b[idx[j]]
        x = lo + width * rng.random(n)
        for _ in range(64):
            vals, counts = np.unique(x, return_counts=True)
            if counts.max() == 1:
                break
            dup = np.isin(x, vals[counts > 1])
            x[dup] = lo[dup] + width[dup] * rng.random(int(dup.sum()))
        pts[:, j] = x
    return pts


def sample_csv(points) -> str:
    """A sample as CSV text: the header ``x1,...,xd``, then one line per
    point, its coordinates as bit-exact floats."""
    points = np.asarray(points, dtype=float)
    lines = [",".join(f"x{j + 1}" for j in range(points.shape[1]))]
    lines += [",".join(map(repr, row)) for row in points.tolist()]
    return "\n".join(lines) + "\n"


def save_sample(path, points: np.ndarray):
    """Write :func:`sample_csv` of a sample to the file ``path``."""
    with open(path, "w", newline="") as fh:
        fh.write(sample_csv(points))


def load_sample(path) -> np.ndarray:
    """Points of a CSV sample under its header line ``x1,...,xd``."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            rows = [[float(x) for x in row] for row in reader if row]
        except ValueError as exc:  # a cell that is not a number, or bytes that are not text
            raise BadOperand(f"a sample cell is not a number: {exc}") from exc
    if header is None:
        raise BadOperand("an empty sample file has no header x1,...,xd")
    pts = np.asarray(rows, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != len(header):
        raise DimensionMismatch("malformed sample file")
    if pts.shape[1] < 2:
        raise BadOperand(f"a sample needs at least two columns, got {pts.shape[1]}")
    if not np.all(np.isfinite(pts)):
        raise BadOperand("sample coordinates must be finite numbers")
    try:
        np.asarray(header, dtype=float)
    except ValueError:
        return pts
    raise BadOperand(f"first line {','.join(header)!r} is data, not the header x1,...,xd")


class EmpiricalCopula:
    """Rank-based empirical copula (d-linear subcopula interpolation)."""

    __slots__ = ("ranks", "n", "dim")

    def __init__(self, ranks: np.ndarray):
        self.ranks = ranks = np.asarray(ranks, dtype=np.int64)
        self.n, self.dim = ranks.shape
        if self.dim < 2:
            raise BadDimension("copulas need dimension >= 2")
        for j in range(self.dim):
            if len(np.unique(ranks[:, j])) != self.n:
                raise TiesDetected(f"ranks along axis {j} are not a permutation")

    # -- evaluation -----------------------------------------------------------

    def cdf(self, u) -> float:
        return float(self.cdf_many(np.asarray(u, dtype=float)[None, :])[0])

    def cdf_many(self, points) -> np.ndarray:
        """Exact d-linear cdf: each sample point contributes the product of
        per-axis overlap fractions ``clip(n x - (r-1), 0, 1)``."""
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != self.dim:
            raise DimensionMismatch(f"points must have shape (m, {self.dim})")
        out = np.empty(len(points))
        for s in range(0, len(points), _CHUNK):
            blk = points[s : s + _CHUNK]
            acc = np.ones((len(blk), self.n))
            for j in range(self.dim):
                acc *= np.clip(
                    self.n * blk[:, j][:, None] - (self.ranks[:, j][None, :] - 1),
                    0.0,
                    1.0,
                )
            out[s : s + _CHUNK] = acc.sum(axis=1) / self.n
        return out

    def cdf_on_lattice(self, axes) -> np.ndarray:
        """Exact d-linear cdf on a product lattice: the stacked :meth:`cdf_slabs`."""
        slabs = list(self.cdf_slabs(axes))
        return np.stack(slabs) if slabs else np.empty([len(a) for a in axes])

    def cdf_slabs(self, axes):
        """Exact d-linear cdf on the lattice of ``axes[1:]``, one node of
        ``axes[0]`` at a time: the checkerboard on the rank grid {k/n}.  Its
        node values, the step counts, stream over the rank nodes that each
        axis's :func:`~copulakit.grid._axis_map` reads, at most two slabs
        held; on {k/n} every map is a gather and the slabs are the counts."""
        grid, maps, nodes = uniform_breaks(self.n), [], []
        for xs in axes:
            W = _axis_map(grid, xs)
            if W.ndim == 1:
                used, W = np.unique(W, return_inverse=True)
            else:
                used = np.flatnonzero(W.any(axis=0))
                W = W[:, used]
            maps.append(W)
            nodes.append(grid[used])
        (W0, *tail), points = maps, self.ranks / self.n
        if all(W.ndim == 1 and np.array_equal(W, np.arange(len(W))) for W in tail):
            tail = []  # the tail's nodes are the rank nodes: no map, checked once per scan
        rows = ([[c] for c in W0.tolist()] if W0.ndim == 1
                else [np.flatnonzero(w).tolist() for w in W0])
        held, top = {}, len(nodes[0])  # the rank slabs a node reads; the stream's next
        for i, taps in enumerate(rows):
            for c in taps:
                if c < top and c not in held:  # the first node, or one below the last
                    stream, top = step_cdf_slabs(points, [nodes[0][c:], *nodes[1:]]), c
                while top <= c:
                    held[top], top = next(stream), top + 1
            held = {c: held[c] for c in taps}
            if W0.ndim == 1:
                yield _contract(held[taps[0]], tail)
            else:
                yield _contract(np.stack([held[c] for c in taps]), [W0[i : i + 1, taps], *tail])[0]

    # -- structure ------------------------------------------------------------

    def multilinear_breaks(self):
        """The rank grid {k/n} on every axis, at every n: d-linear per rank cell."""
        return tuple(uniform_breaks(self.n) for _ in range(self.dim))

    def to_grid(self) -> GridCopula:
        """The same checkerboard as a dense grid of n^d cells (an oracle for small n)."""
        masses = np.zeros((self.n,) * self.dim)
        masses[tuple((self.ranks - 1).T)] = 1.0 / self.n
        return GridCopula([uniform_breaks(self.n)] * self.dim, masses)

    def __repr__(self):
        return f"EmpiricalCopula(n={self.n}, dim={self.dim})"


def empirical_copula(points, tie_break: str = "error") -> EmpiricalCopula:
    """Empirical copula of a sample (rows are observations).

    Ties are a hard error by default; ``tie_break="stable"`` resolves them
    deterministically by original row order instead.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[0] < 1:
        raise DimensionMismatch("sample must be a nonempty (n, d) array")
    n, d = points.shape
    ranks = np.empty((n, d), dtype=np.int64)
    for j in range(d):
        col = points[:, j]
        if tie_break == "error" and len(np.unique(col)) != n:
            raise TiesDetected(f"ties in coordinate {j + 1}")
        order = np.argsort(col, kind="stable")
        ranks[order, j] = np.arange(1, n + 1)
    return EmpiricalCopula(ranks)


def step_cdf_slabs(points, axes):
    """Step cdf ``#(points <= node) / n`` of n points in d >= 2 dimensions
    on the lattice of ``axes[1:]``, one node of ``axes[0]`` at a time, from
    one count table over ``axes[1:]``.  Slab 0 is seeded from one (d-1)-D
    histogram of the points at or below the first node, cumulated along
    each axis, so a first node well above 0 (a part of a split scan) costs
    no more than one slab.  Each later slab k adds the points that reach
    node k on axis 0: in last-axis order, the running sum of their (d-2)-D
    indicators over the middle axes goes to each point's band of last-axis
    rows (up to the next point's); in 2-D the running sum is a count.  The
    counts are integers either way, so both routes are exact."""
    n, d = points.shape
    # first node index at or above each coordinate
    idx = [np.searchsorted(np.asarray(a, dtype=float), col, side="left")
           for a, col in zip(axes, points.T, strict=True)]
    sizes = [len(a) for a in axes]
    order = np.lexsort((idx[-1], idx[0]))
    starts = np.concatenate(([0], np.cumsum(np.bincount(idx[0], minlength=sizes[0] + 1))))
    # the band axis leads, so a band of rows is one contiguous block
    shape = [sizes[-1], *sizes[1:-1]]
    seed = idx[0] == 0
    for j in range(1, d):
        seed &= idx[j] < sizes[j]
    cells = np.ravel_multi_index([idx[-1][seed], *(i[seed] for i in idx[1:-1])], shape)
    counts = np.bincount(cells, minlength=int(np.prod(shape))).reshape(shape)
    for ax in range(d - 1):
        counts = np.cumsum(counts, axis=ax)
    counts = counts.astype(float)
    for k in range(sizes[0]):
        if k:
            new = order[starts[k] : starts[k + 1]]
            ind = np.ones(len(new), dtype=bool)
            for j in range(1, d - 1):
                below = idx[j][new][:, None] <= np.arange(sizes[j])
                ind = ind[..., None] & below.reshape((len(new),) + (1,) * (j - 1) + (sizes[j],))
            rows = idx[-1][new]
            for lo, hi, row in zip(rows, np.append(rows[1:], sizes[-1]),
                                   np.cumsum(ind, axis=0)):
                counts[lo:hi] += row
        yield np.moveaxis(counts, 0, -1) / n
