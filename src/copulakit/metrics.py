"""Distances between copulas.

Six notions are implemented: the uniform (sup) metric on cdfs, three
integrated Markov-kernel metrics (L1, L2 and sup-of-L1), total variation
and Kullback-Leibler divergence, plus a per-slice Kolmogorov profile of the
conditional distributions.  Grid pairs are exact or carry a certified
bracket, and the kernel metrics read a multilinear closed form as a grid;
other pairs fall back to scans and adaptive quadrature with honest error
reporting, reading each operand's own Markov kernel ``op.kernel`` with
both operands' kernel breaks in the mesh.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from dataclasses import dataclass

import numpy as np

from .analytic import AnalyticCopula
from .empirical import EmpiricalCopula
from .errors import (
    BadAxis,
    BadOperand,
    ChainViolation,
    ClosedFormUnavailable,
    DimensionMismatch,
    KernelUnavailable,
    ResolutionOverflow,
    SupportViolation,
)
from .families import discretize
from .grid import GridCopula, _axis_map, _contract, cell_index, common_refinement, uniform_breaks
from .quadrature import (
    adaptive_gl,
    integrate_abs_multilinear,
    integrate_square_multilinear,
    leg01,
)

EXACT = "exact"
CERTIFIED = "certified"
ESTIMATED = "estimated"

# the per-axis node count of the scan lattices, and the largest slab a scan
# holds per operand, which is also the largest lattice d_inf evaluates whole;
# a scan splits across threads only from slabs of _SPLIT_SLAB nodes on
_SCAN_M = 128
_SLAB_BUDGET = 2**23
_SPLIT_SLAB = 2**16


@dataclass(frozen=True)
class MetricReport:
    """Result of one metric evaluation.

    ``exactness`` is ``"exact"`` (re-evaluation is bit identical),
    ``"certified"`` (true value within ``error`` of ``value``, guaranteed)
    or ``"estimated"`` (``error`` is a numerical estimate).  ``target_met``
    tells whether ``error`` is within the requested ``eps``.
    """

    name: str
    value: float
    exactness: str
    error: float
    n_evaluations: int
    elapsed_s: float
    target_met: bool

    def __post_init__(self):
        if self.value < 0:
            raise ChainViolation(f"metric {self.name} produced {self.value} < 0")

    def to_dict(self) -> dict:
        return {
            "metric": self.name,
            "value": self.value,
            "exactness": self.exactness,
            "error": self.error,
            "n_evaluations": self.n_evaluations,
            "elapsed_s": self.elapsed_s,
            "target_met": self.target_met,
        }


def _report(name, t0, value, exactness, error, n_evals, eps=0.0) -> MetricReport:
    return MetricReport(name, float(max(value, 0.0)), exactness, float(error),
                        int(n_evals), time.perf_counter() - t0, bool(error <= eps))


# -- uniform metric -------------------------------------------------------------


def _lattice_axes(ops, scan_m: int):
    """Scan nodes per axis: uniform plus every operand's breaks but a sample's rank nodes."""
    axes = []
    for j in range(ops[0].dim):
        pts = uniform_breaks(scan_m)
        for op in (op for op in ops if not isinstance(op, EmpiricalCopula)):
            mb = op.multilinear_breaks()
            if mb is not None:
                pts = np.union1d(pts, mb[j])
            if j < op.dim - 1:
                pts = np.union1d(pts, op.kernel_u_breaks[j])
        axes.append(pts)
    return axes


def _slab_maxima(slabs, streams, stop=None) -> list:
    """``max |S - T|`` over the slabs ``S`` of ``slabs`` and ``T`` of each of
    ``streams``, all drawn in step, so one slab per operand is alive; a set
    ``stop`` event ends the loop at the next slab."""
    maxima = [0.0] * len(streams)
    diff = None  # one buffer: fresh slab-sized temporaries cost page faults
    for S in slabs:
        if stop is not None and stop.is_set():
            break
        diff = np.empty_like(S) if diff is None else diff
        for i, stream in enumerate(streams):
            np.subtract(S, next(stream), out=diff)
            maxima[i] = max(maxima[i], float(diff.max()), -float(diff.min()))
    return maxima


@functools.cache
def _openblas_threads():
    """``(get, set)`` of the thread count of the OpenBLAS this process has
    loaded, found by its path in ``/proc/self/maps``; None for another BLAS
    or where that file is missing."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line})
    except OSError:
        return None
    import ctypes

    for path in paths:
        try:
            lib = ctypes.CDLL(path)  # already loaded: this only looks it up
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                try:
                    return (lib[f"{prefix}_get_num_threads{suffix}"],
                            lib[f"{prefix}_set_num_threads{suffix}"])
                except AttributeError:  # another symbol naming
                    continue
    return None


# one split scan at a time: each takes every CPU, and BLAS's thread count is per process
_SPLIT_SCAN = threading.Lock()


def slab_sup_distances(op, others, axes) -> list:
    """``max |op - other|`` on the lattice ``axes`` for each of ``others``.

    A scan whose slabs hold at least ``_SPLIT_SLAB`` (2**16) nodes splits
    its first axis into contiguous parts, one per CPU the process may run
    on, but no more parts than nodes or than the slab budget holds slabs; a
    smaller slab scans inline.  Below that size the parts' per-slab Python
    work contends for the GIL: on 2 CPUs a split scan of 1k-17k-node slabs
    ran up to 4x the inline time and near 2**15 nodes the two were even,
    while from 2**16 nodes on a split grid or closed-form scan ran in
    0.4-0.75 of it (a sample's scan on its own rank nodes, whose slabs are
    gathers, still ran slower split at 63k nodes and gained at 161k).  Each
    part streams its sub-lattice ``[axes[0][lo:hi], *axes[1:]]`` in a
    worker thread (numpy releases the GIL for slab-sized work), a rank-form
    operand seeding its first slab from one histogram
    (:func:`~copulakit.empirical.step_cdf_slabs`).  The maximum over the
    parts' maxima is a serial scan's bit for bit, since no slab value
    depends on the part it is drawn in.

    While the parts run, OpenBLAS is held to one thread: a grid's slabs are
    matrix products, and a BLAS thread pool beside the parts would take
    their cores.  Where the BLAS is not an OpenBLAS whose thread count can
    be set, or one part is all there is, the scan runs inline.  An error in
    a part, or an interrupt, stops the other parts at their next slab and
    reaches the caller unchanged.
    """
    slab = int(np.prod([len(a) for a in axes[1:]]))
    if slab > _SLAB_BUDGET:
        raise ResolutionOverflow(f"a scan slab needs {slab} nodes > {_SLAB_BUDGET}")
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without affinity masks
        cpus = os.cpu_count() or 1
    parts = max(1, min(cpus if slab >= _SPLIT_SLAB else 1, len(axes[0]),
                       _SLAB_BUDGET // max(slab, 1)))
    blas = _openblas_threads() if parts > 1 else None

    def scan(part, stop=None):
        return _slab_maxima(op.cdf_slabs(part), [o.cdf_slabs(part) for o in others], stop)

    if blas is None:
        return scan(axes)
    from concurrent.futures import ThreadPoolExecutor  # 9 ms to import: a split scan only

    get_threads, set_threads = blas
    cuts = [len(axes[0]) * p // parts for p in range(parts + 1)]
    stop = threading.Event()
    with _SPLIT_SCAN:
        threads = get_threads()
        set_threads(1)
        try:
            with ThreadPoolExecutor(parts) as pool:
                try:
                    found = list(pool.map(lambda lo, hi: scan(
                        [axes[0][lo:hi], *axes[1:]], stop), cuts[:-1], cuts[1:]))
                except BaseException:
                    stop.set()
                    raise
        finally:
            set_threads(threads)
    return [max(part) for part in zip(*found)]


def _last_axis_slabs(g: GridCopula, axes):
    """A grid's cdf on the lattice of ``axes[:-1]``, one node ``v`` of
    ``axes[-1]`` (which holds the grid's last breaks) at a time.  An operator
    image's is the running sum, in slab order, of its slab tables mapped onto
    the free axes, each times its overlap with [0, v]: the slab width, or
    ``v - t_k`` for the slab ``k`` that holds ``v``; its ``cum`` is never
    built.  Another grid's is its ``cum`` taken at ``v`` first, then mapped."""
    *free, v = axes
    if g.slab_tables is None:
        cum, maps = np.moveaxis(g.cum, -1, 0), [_axis_map(b, x) for b, x in zip(g.breaks, axes)]
        for i in range(len(v)):
            yield _contract(_contract(cum, [maps[-1][i : i + 1]])[0], maps[:-1])
        return
    t, acc, i = g.breaks[-1], np.zeros([len(a) for a in free]), 0
    for k, (mesh, table) in enumerate(g.slab_tables):
        T = _on_mesh(table, mesh, free)
        while v[i] < t[k + 1]:
            yield acc if v[i] == t[k] else acc + (v[i] - t[k]) * T
            i += 1
        acc = acc + (t[k + 1] - t[k]) * T
    yield acc


def d_inf_many(op, targets, eps: float = 1e-8, scan_m: int = _SCAN_M) -> list:
    """:func:`d_inf` to each of ``targets``, each on its own merged or scan
    lattice; streamed targets on equal lattices share one stream of ``op``.
    An exact grid pair with an operator image is compared one node of the
    last axis at a time (:func:`_last_axis_slabs`) whenever that slab fits
    the budget, however large the whole lattice."""
    t0 = time.perf_counter()
    if any(t.dim != op.dim for t in targets):
        raise DimensionMismatch("operands differ in dimension")
    if not isinstance(scan_m, (int, np.integer)) or scan_m < 1:
        raise BadOperand(f"the scan lattice needs an integer scan_m >= 1, got {scan_m!r}")
    reports = [None] * len(targets)
    passes = {}  # scan lattice -> (its axes, whether exact, the targets scanned on it)
    for i, t in enumerate(targets):
        b1, b2 = op.multilinear_breaks(), t.multilinear_breaks()
        axes = merged = [np.union1d(a, b) for a, b in zip(b1, b2)] if b1 and b2 else []
        # a scan axis has at least scan_m + 1 nodes: only longer merged axes need it built
        if not merged or max(len(a) for a in merged) > scan_m + 1:
            if (int(scan_m) + 1) ** (op.dim - 1) > _SLAB_BUDGET:  # before the lattice is built
                raise ResolutionOverflow(f"a scan slab needs over {_SLAB_BUDGET} nodes")
            scan = _lattice_axes([op, t], scan_m)
            if not merged or any(len(a) > len(b) for a, b in zip(merged, scan)):
                axes = scan
        exact, count = axes is merged, int(np.prod([len(a) for a in axes]))
        image = (all(isinstance(g, GridCopula) for g in (op, t))
                 and (op.slab_tables is not None or t.slab_tables is not None))
        if exact and image and count // len(axes[-1]) <= _SLAB_BUDGET:
            value = _slab_maxima(_last_axis_slabs(op, axes), [_last_axis_slabs(t, axes)])[0]
        elif exact and count <= _SLAB_BUDGET:
            d = op.cdf_on_lattice(axes) - t.cdf_on_lattice(axes)
            value = max(float(d.max()), -float(d.min()))
        else:
            # on its own scan lattice, a target's certificate ignores the others' breaks
            passes.setdefault((exact, *(a.tobytes() for a in axes)), (axes, exact, []))[2].append(i)
            continue
        # both operands' nodes, as a stream of the same lattice counts them
        reports[i] = _report("d_inf", t0, value, EXACT, 0.0, 2 * count)
    for axes, exact, idx in passes.values():
        maxima = slab_sup_distances(op, [targets[i] for i in idx], axes)
        # every copula is 1-Lipschitz per coordinate, so the difference moves by
        # at most twice the distance to the nearest node, half a cell per axis
        error = 0.0 if exact else sum(float(np.max(np.diff(a))) for a in axes)
        n_evals = 2 * int(np.prod([len(a) for a in axes]))
        for i, value in zip(idx, maxima):
            reports[i] = _report("d_inf", t0, value, EXACT if exact else CERTIFIED, error,
                                 n_evals, eps)
    return reports


def d_inf(c1, c2, eps: float = 1e-8, scan_m: int = _SCAN_M) -> MetricReport:
    """Uniform distance ``max |C1 - C2|``.

    Exact, with error 0, when both operands are multilinear between known
    breakpoints and no axis of their merged breaks has more nodes than the
    scan lattice's: the difference is then multilinear per merged cell, so
    its node maximum is the true one (grid and closed-form pairs always, a
    sample when its rank grid ``{k/n}`` is no finer than the scan).  Else
    the node maximum over the scan lattice (``scan_m`` uniform nodes per
    axis plus both operands' breaks, none of a sample's) is a lower bound,
    certified within the Lipschitz width (the largest lattice step, summed
    over the axes).  An exact lattice of at most ``_SLAB_BUDGET`` nodes is
    evaluated whole, any other lattice streamed slab by slab.  A grid pair
    with a :func:`~copulakit.pvc.pvc3` image sums the image's slab tables
    over the slabs below each conditioning node instead, never building its
    cumulative tensor: the same nodes, label and count, and within 1e-15 of
    the dense image's value.
    """
    return d_inf_many(c1, [c2], eps, scan_m)[0]


# -- kernel metrics --------------------------------------------------------------


def _move_axis_last(c: GridCopula, axis: int) -> GridCopula:
    order = [j for j in range(c.dim) if j != axis] + [axis]
    return c.permute(order) if order != list(range(c.dim)) else c


def _grid_pair(c1, c2):
    """Both operands as grids, a multilinear closed form read as the grid on
    its multilinear breaks; None unless each is one or the other."""
    grids = []
    for op in (c1, c2):
        if isinstance(op, AnalyticCopula) and op.multilinear_breaks() is not None:
            # multilinear throughout: one cell per axis holds it exactly
            op = discretize(op, [1] * op.dim)
        if not isinstance(op, GridCopula):
            return None
        grids.append(op)
    return grids


def _kernel_pair_grid(c1, c2, axis):
    """The merged free mesh and, per run of consecutive merged slabs, their free
    mesh, widths and kernel node differences, all built before any is
    integrated; None unless :func:`_grid_pair` reads both as grids.  Plain
    grids take runs of up to ``_SPLIT_SLAB`` nodes (one slab at least) of their
    common refinement, on its free breaks, sliced from each one's kernel stack.
    A pair with an operator image takes
    each slab alone, on the union of the two :meth:`~GridCopula.slab_kernel`
    meshes, onto which both kernels map exactly since it holds each mesh."""
    if c1.dim != c2.dim:
        raise DimensionMismatch("operands differ in dimension")
    axis = c1.dim - 1 if axis is None else int(axis)
    if not 0 <= axis < c1.dim:
        raise BadAxis(f"axis {axis} out of range for dim {c1.dim}")
    pair = _grid_pair(c1, c2)
    if pair is None:
        return None
    ops = [_move_axis_last(c, axis) for c in pair]
    if all(op.slab_tables is None for op in ops):
        r1, r2 = common_refinement(*ops)
        free, widths = r1.breaks[:-1], np.diff(r1.breaks[-1])
        K1, K2 = (r.kernel_nodes((r.dim - 1,), (slice(None),)) for r in (r1, r2))
        run = max(1, _SPLIT_SLAB // int(np.prod([len(b) for b in free])))
        return free, [(free, widths[k:k + run], K1[k:k + run] - K2[k:k + run])
                      for k in range(0, len(widths), run)]
    t = np.union1d(ops[0].breaks[-1], ops[1].breaks[-1])
    slabs = [cell_index(op.breaks[-1], (t[:-1] + t[1:]) / 2) for op in ops]
    runs = []
    for w, k1, k2 in zip(np.diff(t), *slabs):
        (m1, K1), (m2, K2) = ops[0].slab_kernel(k1), ops[1].slab_kernel(k2)
        mesh = [np.union1d(a, b) for a, b in zip(m1, m2)]
        dK = _on_mesh(K1, m1, mesh) - _on_mesh(K2, m2, mesh)
        runs.append((mesh, w[None], dK[None]))
    return [np.union1d(a, b) for a, b in zip(ops[0].breaks[:-1], ops[1].breaks[:-1])], runs


def _on_mesh(nodes, mesh, to):
    """Node values of a function multilinear on ``mesh`` at the nodes of ``to``,
    which holds ``mesh``: an axis as long as its mesh axis is that axis."""
    return _contract(nodes, [_axis_map(a, b) if len(a) < len(b) else np.arange(len(b))
                             for a, b in zip(mesh, to)])


def _check_kernel_operands(c1, c2, axis):
    """Operands whose kernels, conditioning on the last axis, the metrics read."""
    if c1.dim != c2.dim:
        raise DimensionMismatch("operands differ in dimension")
    if axis not in (None, c1.dim - 1):
        raise DimensionMismatch("kernels outside a grid pair condition on the last axis")
    for op in (c1, c2):
        if isinstance(op, EmpiricalCopula):
            raise KernelUnavailable(f"{op!r} provides no Markov kernel")


def _free_points(c1, c2) -> np.ndarray:
    """Rows of the scan lattice over the free axes, shape (m, dim - 1)."""
    grids = np.meshgrid(*_lattice_axes([c1, c2], _SCAN_M)[: c1.dim - 1], indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


def d1(c1, c2, eps: float = 1e-8, axis=None) -> MetricReport:
    """Integrated L1 kernel distance (conditioning on ``axis``, default last).

    On grid pairs with one or two free axes (dimension 2 or 3) every slab
    integral is in closed form and the report is exact; with three or more
    free axes the slab integrals are bisected towards a certified bracket
    of total width ``eps``, ``eps / slabs`` each.  The closed form takes each
    run of slabs of up to 2**16 nodes at once, every slab's kernel over its
    own fiber's sum, so values are the slab-by-slab ones bit for bit.  A pair
    with a :func:`~copulakit.pvc.pvc3` image takes each slab on the operands'
    slab meshes instead, within 1e-15 of the dense image's value.  Other
    pairs are estimated by adaptive Gauss-Legendre quadrature on both
    operands' kernel breaks.  A bad ``axis`` is BadAxis for any operands.
    """
    t0 = time.perf_counter()
    grid = _kernel_pair_grid(c1, c2, axis)
    if grid is not None:
        _, runs = grid
        slabs = sum(len(ws) for _, ws, _ in runs)
        total = err = 0.0
        for mesh, ws, dK in runs:
            found = (zip(integrate_abs_multilinear(dK, mesh)[0], [0.0] * len(dK)) if len(mesh) < 3
                     else [integrate_abs_multilinear(s, mesh, tol=eps / slabs) for s in dK])
            for w, (val, half) in zip(ws, found):
                total += w * val
                err += w * half
        return _report("d1", t0, total, EXACT if not err else CERTIFIED, err,
                       sum(dK.size for _, _, dK in runs), eps)
    val, err, ne = _kernel_integral_analytic(c1, c2, power=1, eps=eps, axis=axis)
    return _report("d1", t0, val, ESTIMATED, err, ne, eps)


def d2(c1, c2, eps: float = 1e-8, axis=None) -> MetricReport:
    """Integrated squared kernel distance.  A run of grid slabs (as in :func:`d1`)
    shares its axis maps, but each slab is contracted alone: one contraction
    of the run rounds some values otherwise.  A pair with an operator image
    takes each slab on its own mesh, as :func:`d1` does."""
    t0 = time.perf_counter()
    grid = _kernel_pair_grid(c1, c2, axis)
    if grid is not None:
        _, runs = grid
        total = sum(w * v for mesh, ws, dK in runs
                    for w, v in zip(ws, integrate_square_multilinear(dK, mesh)))
        return _report("d2", t0, total, EXACT, 0.0, sum(dK.size for _, _, dK in runs))
    val, err, ne = _kernel_integral_analytic(c1, c2, power=2, eps=eps, axis=axis)
    return _report("d2", t0, val, ESTIMATED, err, ne, eps)


def d_inf_kernel(c1, c2, eps: float = 1e-8, axis=None) -> MetricReport:
    """Sup over sections of the integrated kernel distance.

    Exact on grid pairs, slab by slab over the runs of :func:`d1`; a pair with
    an operator image maps each slab onto the operands' merged free breaks.
    Else each conditioning piece is integrated by the 8-point Gauss-Legendre
    rule on each of its halves, and the error estimate is the largest gap
    over the ``u`` lattice between that and the rule on the whole piece.
    """
    t0 = time.perf_counter()
    grid = _kernel_pair_grid(c1, c2, axis)
    if grid is not None:
        free, runs = grid
        acc = np.zeros(tuple(len(b) for b in free))
        for mesh, ws, dK in runs:
            # an image pair's slab, alone on its own mesh, maps onto the merged mesh
            dK = dK if mesh is free else _on_mesh(dK[0], mesh, free)[None]
            for w, s in zip(ws, np.abs(dK)):
                acc += w * s
        # per cell the sum of |multilinear| terms is convex along each axis,
        # so the maximum over the cell sits at a node
        return _report("d_inf_kernel", t0, float(acc.max()), EXACT, 0.0, acc.size)
    _check_kernel_operands(c1, c2, axis)
    vb = np.union1d(c1.kernel_v_breaks, c2.kernel_v_breaks)
    U = _free_points(c1, c2)
    x8, w8 = leg01(8)

    def integral(lo, hi):
        acc = np.zeros(len(U))
        for xq, wq in zip(x8, w8):
            v = np.full(len(U), lo + (hi - lo) * xq)
            acc += (hi - lo) * wq * np.abs(c1.kernel(v, U) - c2.kernel(v, U))
        return acc

    coarse = np.zeros(len(U))
    fine = np.zeros(len(U))
    for lo, hi in zip(vb[:-1], vb[1:]):
        mid = (lo + hi) / 2
        coarse += integral(lo, hi)
        fine += integral(lo, mid) + integral(mid, hi)
    err = float(np.max(np.abs(fine - coarse)))
    n_evals = 3 * len(x8) * len(U) * (len(vb) - 1)
    return _report("d_inf_kernel", t0, float(fine.max()), ESTIMATED, err, n_evals, eps)


def _kernel_integral_analytic(c1, c2, power: int, eps: float, axis):
    _check_kernel_operands(c1, c2, axis)

    def f(pts):
        v, u = pts[:, -1], pts[:, :-1]
        return np.abs(c1.kernel(v, u) - c2.kernel(v, u)) ** power

    axes = [np.union1d(a, b) for a, b in zip(c1.kernel_u_breaks, c2.kernel_u_breaks)]
    axes.append(np.union1d(c1.kernel_v_breaks, c2.kernel_v_breaks))
    return adaptive_gl(f, axes, tol=eps)


# -- measure metrics --------------------------------------------------------------


def _grid_refinement(c1, c2):
    """Common refinement of two grid operands, which tv and kl need."""
    if not (isinstance(c1, GridCopula) and isinstance(c2, GridCopula)):
        raise ClosedFormUnavailable(
            f"tv and kl need grid operands, got {c1!r} and {c2!r}; empirical --in s.csv "
            "writes one for n <= 64, make <family> --res N discretizes a family")
    return common_refinement(c1, c2)


def tv(c1: GridCopula, c2: GridCopula) -> MetricReport:
    """Total variation: half the L1 distance of cell densities on the common
    refinement (the optimizing event is where one density exceeds the other)."""
    t0 = time.perf_counter()
    r1, r2 = _grid_refinement(c1, c2)
    value = 0.5 * float(np.abs(r1.masses - r2.masses).sum())
    return _report("tv", t0, value, EXACT, 0.0, r1.masses.size)


def kl(c1: GridCopula, c2: GridCopula) -> MetricReport:
    """Kullback-Leibler divergence of cell masses (volumes cancel on the
    common refinement); requires the support of ``c1`` inside that of ``c2``."""
    t0 = time.perf_counter()
    r1, r2 = _grid_refinement(c1, c2)
    m1 = r1.masses.ravel()
    m2 = r2.masses.ravel()
    has_mass = m1 > 0
    if np.any(m2[has_mass] <= 0):
        raise SupportViolation("first operand has mass on a null cell of the second")
    value = float(np.sum(m1[has_mass] * np.log(m1[has_mass] / m2[has_mass])))
    return _report("kl", t0, value, EXACT, 0.0, m1.size)


# -- conditional-slice diagnostic --------------------------------------------------


def wcc_profile(c1, c2, v_grid):
    """Kolmogorov distance between the conditional measures at each probed
    conditioning value: ``sup_u |K1(v, [0,u]) - K2(v, [0,u])|``.

    A per-slice diagnostic, not a metric; it does not decide weak conditional
    convergence from finitely many slices.
    """
    _check_kernel_operands(c1, c2, None)
    U = _free_points(c1, c2)
    out = []
    for v in np.atleast_1d(np.asarray(v_grid, dtype=float)):
        vv = np.full(len(U), v)
        dist = float(np.max(np.abs(c1.kernel(vv, U) - c2.kernel(vv, U))))
        out.append((float(v), dist))
    return out


# -- consistency check --------------------------------------------------------------


def metric_chain_check(c1: GridCopula, c2: GridCopula, eps: float = 1e-8) -> dict:
    """Evaluate all metrics on a grid pair and assert the order relations
    that must hold between them (within summed error budgets).  The pair is
    refined once: d1, d2, d_inf_kernel, tv and kl read the refined pair
    (which they would refine to itself), d_inf the operands; the three
    kernel metrics read views of each refined operand's one kernel stack.

    Raises
    ------
    ChainViolation
        If any relation fails; that indicates an implementation bug.
    KernelUnavailable, ClosedFormUnavailable
        If an operand has no Markov kernel, or is not a grid.
    """
    rep = {"d_inf": d_inf(c1, c2)}
    _check_kernel_operands(c1, c2, None)
    r1, r2 = _grid_refinement(c1, c2)
    rep.update(d1=d1(r1, r2, eps=eps), d2=d2(r1, r2, eps=eps),
               d_inf_kernel=d_inf_kernel(r1, r2, eps=eps), tv=tv(r1, r2))
    budget = sum(r.error for r in rep.values()) + eps
    checks = [
        ("d1 <= d_inf_kernel", rep["d1"].value, rep["d_inf_kernel"].value),
        ("d_inf_kernel <= 2 tv", rep["d_inf_kernel"].value, 2 * rep["tv"].value),
        ("d_inf <= d_inf_kernel", rep["d_inf"].value, rep["d_inf_kernel"].value),
        ("d2 <= d1", rep["d2"].value, rep["d1"].value),
    ]
    failures = [name for name, a, b in checks if a > b + budget]
    try:
        rep["kl"] = kl(r1, r2)
        if rep["kl"].value < 2 * rep["tv"].value ** 2 - 1e-12:
            failures.append("kl >= 2 tv^2")
    except SupportViolation:
        rep["kl"] = None
    if failures:
        raise ChainViolation(f"metric relations violated: {failures}")
    return {
        "reports": {k: (v.to_dict() if v else None) for k, v in rep.items()},
        "budget": budget,
        "ok": True,
    }
