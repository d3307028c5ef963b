"""The partial vine operator.

``pvc3`` maps a three-dimensional copula to its unique simplified
approximation obtained by averaging the conditional copulas over the
conditioning (last) coordinate and re-inserting the average into the
disintegration with the original conditional margins.  It reads both from
the copula's conditional family, for grid, empirical and closed-form
input alike.  ``pvc_dvine`` is the d-dimensional ladder on consecutive-pair
trees: tree-1 margins are copied, higher trees average conditional pair
copulas against the measure of the previously built middle block and
reassemble with the previous blocks' conditional margins.

For a checkerboard input every step is closed under nonuniform
checkerboards, so the returned operator image is exact (no quadrature):
its density is piecewise constant on a mesh assembled from preimages of
the partial-copula nodes under the conditional margins.  One routine,
``_reassemble``, does that for ``pvc3`` (cells are the last-axis slabs) and
for each ladder block (cells are the cells of the middle-block mesh).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

import numpy as np

from .analytic import AnalyticCopula
from .conditioning import (
    average_surfaces,
    conditional_margin,
    is_simplified,
    preimage_union,
    slab_family,
    _surface_from_joint,
)
from .empirical import EmpiricalCopula
from .errors import (
    BadOperand,
    ClosedFormUnavailable,
    DimensionMismatch,
    NegativeMass,
    ResolutionOverflow,
)
from .families import slab_mixture
from .grid import DEFAULT_CELL_LIMIT, VALIDATION_TOL, GridCopula, cell_index
from .metrics import d1, d_inf


@dataclass
class PvcResult:
    """Image of a copula under the partial vine operator.

    ``psi`` is the exact operator image: a (generally nonuniform)
    checkerboard for grid input, an analytic evaluator for closed-form
    input and the input itself for a rank-form empirical copula.  The
    checkerboard of :func:`pvc3` carries ``slab_tables``, its kernel per
    slab on the slab's own mesh, which the kernel metrics and ``d_inf`` read;
    its masses are built on their first read.
    ``partial`` is the partial copula: a bilinear surface, or the
    closed-form bivariate cdf.
    """

    fingerprint: str
    psi: object
    partial: object
    slab_count: int


def _fingerprint(C) -> str:
    h = hashlib.sha256()
    if isinstance(C, GridCopula):
        for b in C.breaks:
            h.update(b.tobytes())
        h.update(C.masses.tobytes())
    elif isinstance(C, EmpiricalCopula):
        h.update(np.ascontiguousarray(C.ranks).tobytes())
    else:
        # the name alone does not tell members of one family apart
        h.update(repr(C.name).encode())
        h.update(C.cdf_on_lattice([np.linspace(0.0, 1.0, 5)] * C.dim).tobytes())
    return h.hexdigest()[:16]


def pvc3(C) -> PvcResult:
    """Partial vine copula of a three-dimensional grid, empirical or
    closed-form copula, conditioning on the last coordinate.

    The result's (1,3)- and (2,3)-margins coincide with the input's, and
    simplified inputs are fixed points.  An analytic copula without a
    conditional family raises ClosedFormUnavailable.

    A grid's image is the checkerboard on the preimages of the partial
    copula P's nodes under all conditional margins; its masses are built,
    and validated, on their first read.  It carries per slab k the kernel
    P(F1k, F2k), evaluated on the preimages under slab k's margins alone
    (``slab_tables``), which the kernel metrics and ``d_inf`` read instead of
    that mesh and ``cum``, within 1e-15 of them; a copy read back from JSON,
    permuted or refined carries none.  P is checked at once: uniform margins
    and 2-increments >= -1e-12, so that, the conditional margins being
    distribution functions, the image is a copula before its masses exist;
    else a CopulaError.
    """
    fam = slab_family(C)
    slab_count = len(fam.t_breaks) - 1
    if isinstance(C, EmpiricalCopula):
        # every slab's conditional copula is the same surface: the operator fixes C
        return PvcResult(_fingerprint(C), C, fam.surfaces[0], slab_count)
    if isinstance(C, AnalyticCopula):
        cp = fam.partial_copula()
        image = replace(fam, surfaces=[cp] * slab_count)
        psi = slab_mixture(image, C.kernel_u_breaks, f"pvc({C.name})")
    else:
        # slab widths are positive, so every slab is live and has its mesh
        cp = average_surfaces(fam.weights, fam.surfaces)
        cp.check_margins()
        dd = np.diff(np.diff(cp.values, axis=0), axis=1)
        if dd.min() < -VALIDATION_TOL:
            raise NegativeMass(f"the partial copula has a 2-increment {dd.min():.3e}")
        xs, ys, meshes, build = _reassemble(cp, fam.weights, fam.margins1, fam.margins2,
                                            cond_last=True)
        psi = GridCopula((xs, ys, fam.t_breaks), build)
        psi.slab_tables = [(m, cp.eval_lattice(f1(m[0]), f2(m[1])))
                           for m, f1, f2 in zip(meshes, fam.margins1, fam.margins2)]
    return PvcResult(_fingerprint(C), psi, cp, slab_count)


def _reassemble(cp, weights, margins1, margins2, cond_last=False):
    """Operator image of the partial copula ``cp`` on the conditioning cells of
    mass ``weights``, given the conditional margins of each live cell in C
    order: the preimage meshes of P's nodes under all margins, per live cell
    its slab mesh, the preimages of P's nodes under its own margins, and the
    builder of the masses w ΔΔP(F1, F2) per live cell, of shape
    (x cells, *weights.shape, y cells), or with the conditioning axes last."""
    cells = _live_cells(weights)
    xs, ix = preimage_union(margins1, cp.xs)
    ys, iy = preimage_union(margins2, cp.ys)

    def build():
        masses = np.zeros((len(xs) - 1,) + weights.shape + (len(ys) - 1,))
        for cell, f1, f2 in zip(cells, margins1, margins2):
            P = cp.eval_lattice(f1(xs), f2(ys))
            masses[(slice(None), *cell, slice(None))] = weights[cell] * np.diff(
                np.diff(P, axis=0), axis=1)
        return np.moveaxis(masses, -1, 1) if cond_last else masses

    return xs, ys, [(xs[i], ys[j]) for i, j in zip(ix, iy)], build


def _live_cells(weights) -> list:
    """Index tuples of the cells of positive weight, in C order."""
    return [cell for cell in np.ndindex(*weights.shape) if weights[cell] > 0]


def pvc3_analytic(C: AnalyticCopula) -> PvcResult:
    """Same as :func:`pvc3`, under its former name for closed-form input."""
    return pvc3(C)


# -- d-dimensional ladder -------------------------------------------------------


def pvc_dvine(C: GridCopula, order=None) -> PvcResult:
    """Partial vine copula along the consecutive-pair tree sequence.

    ``order`` optionally permutes the variables before running the ladder
    (and the result is permuted back); the default is the identity order.
    With order ``(0, 2, 1)`` the three-dimensional ladder reproduces
    :func:`pvc3`, which conditions the pair (1, 2) on coordinate 3.
    """
    if isinstance(C, EmpiricalCopula):
        return pvc3(C)
    if not isinstance(C, GridCopula):
        raise ClosedFormUnavailable(f"the ladder needs a grid copula, got {C!r}")
    d = C.dim
    if d < 3:
        raise DimensionMismatch("the ladder needs dimension >= 3")
    perm = list(range(d)) if order is None else [int(a) for a in order]
    work = C.permute(perm) if perm != list(range(d)) else C
    blocks = {(i, i + 1): work.margin((i, i + 1)) for i in range(d - 1)}
    for span in range(2, d):
        for i in range(d - span):
            # the last block built is the whole ladder, (0, d - 1)
            blocks[(i, i + span)], cp = _build_block(work, blocks, i, span)
    psi = blocks[(0, d - 1)]
    if perm != list(range(d)):
        inv = np.argsort(perm).tolist()
        psi = psi.permute(inv)
    return PvcResult(_fingerprint(C), psi, cp, len(psi.breaks[-1]) - 1)


def _build_block(work, blocks, i, span):
    """One ladder step: the (span+1)-variable block (i .. i+span)."""
    GJ = work.margin(range(i, i + span + 1))
    b_left = blocks[(i, i + span - 1)]
    b_right = blocks[(i + 1, i + span)]
    # the middle variables' mesh; beyond tree 2 the middle block is their measure
    middle = blocks.get((i + 1, i + span - 1))
    sources = [GJ.breaks[1:-1], b_left.breaks[1:], b_right.breaks[:-1]]
    sources += [middle.breaks] if middle is not None else []
    mesh = [np.unique(np.concatenate(bs)) for bs in zip(*sources)]
    weights = np.diff(mesh[0]) if middle is None else middle.refine_to(mesh).masses

    # per live mesh cell: the source's conditional pair copula, cached per
    # source cell, and the previous blocks' conditional margins
    mids = [(b[:-1] + b[1:]) / 2.0 for b in mesh]
    src_idx = [cell_index(b, mid) for b, mid in zip(GJ.breaks[1:-1], mids)]
    cache = {}
    surfaces, f_left, f_right = [], [], []
    for cell in _live_cells(weights):
        key = tuple(idx[c] for idx, c in zip(src_idx, cell))
        if key not in cache:
            fiber = GJ.masses[(slice(None), *key, slice(None))]
            cache[key] = _surface_from_joint(GJ.breaks[0], GJ.breaks[-1], fiber)[0]
        surfaces.append(cache[key])
        t = [mid[c] for mid, c in zip(mids, cell)]
        f_left.append(conditional_margin(b_left, 0, t, cond_axes=tuple(range(1, span))))
        f_right.append(conditional_margin(b_right, span - 1, t,
                                          cond_axes=tuple(range(0, span - 1))))
    cp = average_surfaces(weights[weights > 0], surfaces)
    # a lower bound on the cell count, before the full merge: the union holds
    # every margin's preimages, and the 1e-13 merge keeps a largest set of
    # points more than 1e-13 apart, whose count cannot fall as points are added
    x0, _ = preimage_union(f_left[:1], cp.xs)
    y0, _ = preimage_union(f_right[:1], cp.ys)
    least = (len(x0) - 1) * weights.size * (len(y0) - 1)
    if least > DEFAULT_CELL_LIMIT:
        raise ResolutionOverflow(f"operator image needs at least {least} cells")
    xs, ys, _, build = _reassemble(cp, weights, f_left, f_right)
    return GridCopula([xs] + mesh + [ys], build), cp


# -- summary report -------------------------------------------------------------


def pvc_distance_report(C, result: PvcResult) -> dict:
    """Distances between a grid or closed-form copula and its image
    ``result`` under :func:`pvc3` or :func:`pvc_dvine`, on the operands
    themselves: ``d_inf`` (scanned at ``scan_m=256`` unless both are
    multilinear) and, in dimension 3, ``d1`` (exact for grids, estimated for
    closed forms) and, for grids only, the simplifiedness gap ``delta``.
    """
    if result.fingerprint != _fingerprint(C):
        raise BadOperand("the result is not the operator image of this copula")
    if not isinstance(C, (GridCopula, AnalyticCopula)):
        raise DimensionMismatch("unsupported operand for the distance report")
    rep = {"d_inf": d_inf(C, result.psi, scan_m=256).to_dict()}
    if C.dim == 3:
        rep["d1"] = d1(C, result.psi).to_dict()
        if isinstance(C, GridCopula):
            rep["delta"] = is_simplified(C)[1]
    return {**rep, "slab_count": result.slab_count, "fingerprint": result.fingerprint}
