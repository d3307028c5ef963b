"""Named copula constructions.

Everything the test battery and CLI refer to by name is built here: the
independence checkerboard, the two block copulas with pairwise independent
margins, shuffles of the countermonotonicity copula, perturbation (EFGM
style) families, the pair of asymmetric bivariate checkerboards feeding the
composite worst-case construction, the composite copula itself, and
discretization of analytic copulas to checkerboards.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analytic import AnalyticCopula, column_product, outer_chain
from .conditioning import ConditionalFamily, PiecewiseLinearCdf, preimage_union
from .errors import BadIndex, InvalidShuffle, NonCopulaInput
from .grid import GridCopula, cell_index, new_grid, uniform_breaks

_PARTITION_TOL = 1e-12


# -- independence and block families -----------------------------------------


def independence(dim: int, resolutions: list | None = None) -> GridCopula:
    """Independence copula as a checkerboard (default: one cell per axis)."""
    resolutions = [1] * dim if resolutions is None else resolutions
    return new_grid(dim, resolutions, outer_chain(1.0, [np.diff(uniform_breaks(n))
                                                        for n in resolutions]))


def cube_copula() -> GridCopula:
    """Three-dimensional copula spreading mass 1/4 uniformly over four cubes
    of side 1/2, with all three bivariate margins independent."""
    m = np.zeros((2, 2, 2))
    for cell in [(0, 0, 0), (1, 1, 0), (0, 1, 1), (1, 0, 1)]:
        m[cell] = 0.25
    return new_grid(3, [2, 2, 2], m)


def rcube_copula() -> GridCopula:
    """Reflection of :func:`cube_copula` along the third coordinate."""
    return cube_copula().reflect(2)


# -- shuffles -----------------------------------------------------------------


@dataclass(frozen=True)
class ShuffleSegment:
    src_lo: float
    src_hi: float
    tgt_lo: float
    tgt_hi: float
    ascending: bool = False


@dataclass(frozen=True)
class ShuffleSpec:
    """Measure-preserving rearrangement given by finitely many segments.

    Each segment maps a source x-interval isometrically onto a target
    y-interval, descending by default (shuffle of the countermonotonicity
    copula).  Sources and targets must each partition (0, 1) up to null sets.
    """

    segments: tuple

    def __post_init__(self):
        segs = tuple(
            s if isinstance(s, ShuffleSegment) else ShuffleSegment(*s)
            for s in self.segments
        )
        object.__setattr__(self, "segments", segs)
        by_src = sorted(segs, key=lambda s: s.src_lo)
        by_tgt = sorted(segs, key=lambda s: s.tgt_lo)
        cursor_s, cursor_t = 0.0, 0.0
        for s, t in zip(by_src, by_tgt):
            if abs(s.src_lo - cursor_s) > _PARTITION_TOL:
                raise InvalidShuffle(f"source gap/overlap at {cursor_s}")
            if abs(t.tgt_lo - cursor_t) > _PARTITION_TOL:
                raise InvalidShuffle(f"target gap/overlap at {cursor_t}")
            if abs((s.src_hi - s.src_lo) - (s.tgt_hi - s.tgt_lo)) > _PARTITION_TOL:
                raise InvalidShuffle("segment changes length (not measure preserving)")
            cursor_s, cursor_t = s.src_hi, t.tgt_hi
        if abs(cursor_s - 1.0) > _PARTITION_TOL or abs(cursor_t - 1.0) > _PARTITION_TOL:
            raise InvalidShuffle("segments do not cover (0, 1)")


def shuffle_of_w(spec: ShuffleSpec, name: str = "shuffle") -> AnalyticCopula:
    """Singular bivariate copula supported on the segments of ``spec``."""
    segs = spec.segments

    def cdf(pts):
        u, v = pts[:, 0], pts[:, 1]
        total = np.zeros(len(pts))
        for s in segs:
            if s.ascending:
                hi = np.minimum(np.minimum(u, s.src_hi), s.src_lo + (v - s.tgt_lo))
                total += np.maximum(0.0, hi - s.src_lo)
            else:
                hi = np.minimum(u, s.src_hi)
                lo = np.maximum(s.src_lo, s.src_lo + (s.tgt_hi - v))
                total += np.maximum(0.0, hi - lo)
        return total

    tgt_lo = np.array([s.tgt_lo for s in segs])
    order = np.argsort(tgt_lo)
    tgt_breaks = np.append(tgt_lo[order], 1.0)

    def transport(v):
        """x with (x, T(x)) on the support and T(x) = v."""
        v = np.asarray(v, dtype=float)
        pos = cell_index(tgt_breaks, v)
        x = np.empty_like(v)
        for rank, seg_idx in enumerate(order):
            s = segs[seg_idx]
            sel = pos == rank
            if s.ascending:
                x[sel] = s.src_lo + (v[sel] - s.tgt_lo)
            else:
                x[sel] = s.src_lo + (s.tgt_hi - v[sel])
        return x

    def kern(v, u):
        return (transport(v) <= u[:, 0]).astype(float)

    v_breaks = np.unique(np.concatenate([[0.0, 1.0], tgt_lo,
                                         [s.tgt_hi for s in segs]]))
    return AnalyticCopula(2, cdf, kernel_fn=kern, kernel_v_breaks=v_breaks, name=name)


def _desc(spec_rows):
    return ShuffleSpec(tuple(ShuffleSegment(*row) for row in spec_rows))


SHUFFLE_SPECS = {
    1: _desc([(0, 1 / 4, 1 / 4, 1 / 2), (1 / 4, 3 / 4, 1 / 2, 1), (3 / 4, 1, 0, 1 / 4)]),
    2: _desc([(0, 1 / 4, 3 / 4, 1), (1 / 4, 1 / 2, 0, 1 / 4), (1 / 2, 1, 1 / 4, 3 / 4)]),
    3: _desc([(0, 1 / 2, 1 / 4, 3 / 4), (1 / 2, 3 / 4, 3 / 4, 1), (3 / 4, 1, 0, 1 / 4)]),
    4: _desc([(0, 1 / 4, 3 / 4, 1), (1 / 4, 3 / 4, 0, 1 / 2), (3 / 4, 1, 1 / 2, 3 / 4)]),
}


def shuffle_d(i: int) -> AnalyticCopula:
    """The four built-in straight shuffles used by the composite example."""
    if i not in SHUFFLE_SPECS:
        raise BadIndex(f"built-in shuffles are numbered 1..4, got {i}")
    return shuffle_of_w(SHUFFLE_SPECS[i], name=f"shuffle_d{i}")


# -- perturbation (EFGM-style) families ---------------------------------------


@dataclass(frozen=True)
class EfgmSpec:
    """Perturbation of independence: ``C(u, v) = v prod(u) + f(v) prod(u(1-u))``.

    ``f`` must vanish at 0 and satisfy ``|f'| <= 1``; then the density
    ``1 + f'(v) prod(1 - 2u)`` is nonnegative and ``C`` is a copula.
    ``f(1)`` need not vanish (the sliding-window sequence has ``f(1) > 0``).
    """

    dim: int
    f: callable
    fprime: callable
    v_breaks: tuple = (0.0, 1.0)
    label: str = "efgm"

    def __post_init__(self):
        probe = np.linspace(0.0, 1.0, 513)
        fv = np.asarray(self.f(probe), dtype=float)
        if abs(fv[0]) > 1e-12:
            raise BadIndex("perturbation must vanish at 0")
        mid = (probe[:-1] + probe[1:]) / 2
        if np.max(np.abs(np.asarray(self.fprime(mid)))) > 1.0 + 1e-9:
            raise BadIndex("perturbation slope must satisfy |f'| <= 1")


def efgm(spec: EfgmSpec) -> AnalyticCopula:
    """Analytic copula for a perturbation spec, kernel included.

    Both products factor over the axes: a lattice slab is built from the
    per-axis vectors ``u``, ``u(1-u)`` and ``f(v)`` by outer products, and
    the kernel multiplies whole columns of ``u``.
    """
    d = spec.dim

    def cdf(pts):
        u = pts[:, :-1]
        v = pts[:, -1]
        return v * np.prod(u, axis=1) + spec.f(v) * np.prod(u * (1.0 - u), axis=1)

    def kern(v, u):
        return column_product(u) + spec.fprime(v) * column_product(u * (1.0 - u))

    def slabs(axes):
        *us, v = axes
        ws = [u * (1.0 - u) for u in us]
        fv = spec.f(v)
        for x, w in zip(us[0], ws[0]):
            out = outer_chain(x, [*us[1:], v])
            out += outer_chain(w, [*ws[1:], fv])
            yield out

    return AnalyticCopula(d, cdf, kernel_fn=kern, slabs_fn=slabs,
                          kernel_v_breaks=np.asarray(spec.v_breaks, dtype=float),
                          family=_efgm_family(spec) if d == 3 else None,
                          name=spec.label)


def efgm_quadratic(dim: int = 3) -> AnalyticCopula:
    """The classic cubic-perturbation member with ``f(v) = v(1 - v)``."""
    spec = EfgmSpec(dim, lambda v: v * (1.0 - v), lambda v: 1.0 - 2.0 * v,
                    label="efgm")
    return efgm(spec)


def efgm_sequence_member(m: int, k: int, dim: int = 3) -> AnalyticCopula:
    """Member ``n = 2**m + k - 2`` of the sliding-window perturbation sequence.

    The perturbation is the primitive of the indicator of
    ``J = ((k-1) 2**-m, k 2**-m]``; its kernel moves a fixed-height bump
    across shrinking windows, so the family converges in the integrated
    kernel metric but not weakly conditional.
    """
    if m < 1 or not 1 <= k <= 2**m:
        raise BadIndex(f"need m >= 1 and 1 <= k <= 2**m, got m={m}, k={k}")
    lo = (k - 1) / 2**m
    hi = k / 2**m
    spec = EfgmSpec(
        dim,
        lambda v, lo=lo, hi=hi: np.clip(v - lo, 0.0, hi - lo),
        lambda v, lo=lo, hi=hi: ((v > lo) & (v <= hi)).astype(float),
        v_breaks=(0.0, lo, hi, 1.0),
        label=f"efgm_seq_m{m}_k{k}",
    )
    return efgm(spec)


# -- asymmetric bivariate checkerboards ---------------------------------------


def bstar() -> GridCopula:
    """Bivariate checkerboard with stepped conditional margins (variant one);
    cells are 2 x 4 with densities 1/2, 1, 3/2 arranged so every
    conditioning slab keeps total mass 1/4."""
    m = np.array([
        [1 / 16, 1 / 8, 1 / 8, 3 / 16],
        [3 / 16, 1 / 8, 1 / 8, 1 / 16],
    ])
    return new_grid(2, [2, 4], m)


def bstarstar() -> GridCopula:
    """Companion checkerboard of :func:`bstar` with the steps on the middle
    slabs instead of the outer ones."""
    m = np.array([
        [1 / 8, 1 / 16, 3 / 16, 1 / 8],
        [1 / 8, 3 / 16, 1 / 16, 1 / 8],
    ])
    return new_grid(2, [2, 4], m)


# -- closed-form conditional families -----------------------------------------


def slab_mixture(family: ConditionalFamily, u_breaks, name) -> AnalyticCopula:
    """Three-dimensional copula ``sum_k overlap_k(v) S_k(F1k(u1), F2k(u2))``.

    Slab ``k`` of ``family`` gives the conditioning interval, the
    conditional margins ``F1k``, ``F2k`` and the bivariate cdf ``S_k``
    (``family.surfaces[k]``).  The Markov kernel on slab ``k`` is
    ``S_k(F1k(u1), F2k(u2))``, and the copula carries ``family``.  On a
    lattice each ``S_k`` is evaluated once per node pair of the first two
    axes, not once per node.
    """
    t = family.t_breaks
    slabs = list(zip(t[:-1], t[1:], family.margins1, family.margins2, family.surfaces))

    def cdf(pts):
        u1, u2, v = pts[:, 0], pts[:, 1], pts[:, 2]
        total = np.zeros(len(pts))
        for lo, hi, m1, m2, surface in slabs:
            overlap = np.clip(v - lo, 0.0, hi - lo)
            total += overlap * surface(np.stack([m1(u1), m2(u2)], axis=-1))
        return total

    def kern(v, u):
        slab = cell_index(t, v)
        out = np.empty(len(v))
        for k in np.unique(slab):
            _, _, m1, m2, surface = slabs[k]
            sel = slab == k
            out[sel] = surface(np.stack([m1(u[sel, 0]), m2(u[sel, 1])], axis=-1))
        return out

    def cdf_slabs(axes):
        # S_k does not depend on v: per block of first-axis rows, one table
        # S_k(F1k(x), F2k(y)) per slab k, then each scan slab is the sum of
        # the tables' rows times the overlaps, cdf's products in cdf's order,
        # added in blocks of 2**16 entries so no second slab-sized array lives
        x, y, v = axes
        overlaps = [np.clip(v - lo, 0.0, hi - lo) for lo, hi, *_ in slabs]
        rows, cols = max(1, 2**16 // (len(slabs) * len(y))), max(1, 2**16 // len(v))
        for r in range(0, len(x), rows):
            xs = x[r : r + rows]
            tables = [surface(np.stack(np.meshgrid(m1(xs), m2(y), indexing="ij"),
                                       axis=-1).reshape(-1, 2)).reshape(len(xs), len(y))
                      for _, _, m1, m2, surface in slabs]
            for i in range(len(xs)):
                out = np.zeros((len(y), len(v)))
                for c in range(0, len(y), cols):
                    for table, overlap in zip(tables, overlaps):
                        out[c : c + cols] += np.multiply.outer(table[i, c : c + cols], overlap)
                yield out

    return AnalyticCopula(3, cdf, kernel_fn=kern, kernel_v_breaks=t,
                          kernel_u_breaks=u_breaks, family=family, name=name,
                          slabs_fn=cdf_slabs)


def _efgm_family(spec: EfgmSpec) -> ConditionalFamily:
    ident = lambda x: np.asarray(x, dtype=float)
    f_total = float(np.asarray(spec.f(np.array([1.0])))[0])

    def partial(s):
        # lambda-average of the conditionals: integral of f' is f(1) - f(0)
        s = np.asarray(s, dtype=float)
        return s[:, 0] * s[:, 1] + f_total * (
            s[:, 0] * (1 - s[:, 0]) * s[:, 1] * (1 - s[:, 1])
        )

    k = len(spec.v_breaks) - 1
    return ConditionalFamily(np.asarray(spec.v_breaks, dtype=float), [ident] * k,
                             [ident] * k, closed_partial=partial)


def example54_margins():
    """Per-quarter conditional margins of :func:`bstar` / :func:`bstarstar`."""
    ident = PiecewiseLinearCdf([0, 1], [0, 1])
    low = PiecewiseLinearCdf([0, 0.5, 1], [0, 0.25, 1])
    high = PiecewiseLinearCdf([0, 0.5, 1], [0, 0.75, 1])
    return [low, ident, ident, high], [ident, low, high, ident]


def example54_copula() -> AnalyticCopula:
    """Composite three-dimensional copula whose conditional copulas are the
    four built-in shuffles on consecutive quarters of the conditioning axis,
    with the margins of :func:`bstar` and :func:`bstarstar`.

    The partial copula is the plain average of the four shuffles, which
    moves mass far from the original: the copula sits at distance at least
    3/16 from its partial vine approximation in the uniform metric.
    """
    shuffles = [shuffle_d(i) for i in (1, 2, 3, 4)]
    f_star, f_2star = example54_margins()

    def partial(s):
        s = np.asarray(s, dtype=float)
        return sum(sh.cdf_many(s) for sh in shuffles) / 4.0

    quarters = [0.25, 0.5, 0.75]
    u_breaks = (preimage_union(f_star, quarters)[0], preimage_union(f_2star, quarters)[0])
    fam = ConditionalFamily(uniform_breaks(4), f_star, f_2star,
                            [sh.cdf_many for sh in shuffles], closed_partial=partial)
    return slab_mixture(fam, u_breaks, "composite54")


# -- discretization -----------------------------------------------------------


def discretize(copula, resolutions) -> GridCopula:
    """Checkerboard with the same cdf as ``copula`` at all grid nodes.

    Cell masses come from inclusion-exclusion of the cdf; a genuinely
    negative box mass (below -1e-9) marks the input as not a copula.
    """
    resolutions = [int(n) for n in resolutions]
    axes = [uniform_breaks(n) for n in resolutions]
    lattice = copula.cdf_on_lattice(axes)
    masses = lattice
    for ax in range(len(axes)):
        masses = np.diff(masses, axis=ax)
    if masses.min() < -1e-9:
        raise NonCopulaInput(f"negative box mass {masses.min():.3e}")
    masses = np.maximum(masses, 0.0)
    return GridCopula(axes, masses)
