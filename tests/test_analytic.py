import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copulakit import (
    EfgmSpec,
    comonotone,
    cube_copula,
    pvc3,
    countermonotone,
    efgm,
    efgm_quadratic,
    efgm_sequence_member,
    example54_copula,
    independence_analytic,
    shuffle_d,
)
from copulakit.analytic import AnalyticCopula
from copulakit.errors import DimensionMismatch, KernelUnavailable

FAMILIES = {
    "pi3": independence_analytic(3),
    "m2": comonotone(2),
    "w2": countermonotone(),
    "shuffle1": shuffle_d(1),
    "composite": example54_copula(),
}


@pytest.mark.parametrize("name", sorted(FAMILIES))
class TestCopulaAxioms:
    def test_grounded(self, name):
        cop = FAMILIES[name]
        for j in range(cop.dim):
            u = np.full(cop.dim, 0.7)
            u[j] = 0.0
            assert cop.cdf(u) == pytest.approx(0.0, abs=1e-14)

    def test_normalized(self, name):
        cop = FAMILIES[name]
        assert cop.cdf(np.ones(cop.dim)) == pytest.approx(1.0, abs=1e-14)

    def test_lipschitz_on_sampled_pairs(self, name):
        cop = FAMILIES[name]
        rng = np.random.default_rng(17)
        a = rng.random((60, cop.dim))
        b = rng.random((60, cop.dim))
        lhs = np.abs(cop.cdf_many(a) - cop.cdf_many(b))
        rhs = np.abs(a - b).sum(axis=1)
        assert np.all(lhs <= rhs + 1e-12)


class TestFrechetBounds:
    def test_min_cdf(self):
        assert comonotone(3).cdf([0.2, 0.7, 0.5]) == 0.2

    def test_w_cdf(self):
        w = countermonotone()
        assert w.cdf([0.3, 0.5]) == 0.0
        assert w.cdf([0.7, 0.5]) == pytest.approx(0.2, abs=1e-15)

    def test_m_kernel_diagonal(self):
        m = comonotone(2)
        assert m.kernel([0.4], [0.5])[0] == 1.0
        assert m.kernel([0.6], [0.5])[0] == 0.0


class TestProtocol:
    def test_dimension_check(self):
        with pytest.raises(DimensionMismatch):
            independence_analytic(3).cdf_many(np.zeros((4, 2)))

    def test_kernel_unavailable(self):
        bare = AnalyticCopula(2, lambda p: p.prod(axis=1))
        with pytest.raises(KernelUnavailable):
            bare.kernel([0.5], [0.5])

    def test_lattice_matches_pointwise(self):
        cop = example54_copula()
        axes = [np.linspace(0, 1, 9)] * 3
        lat = cop.cdf_on_lattice(axes)
        pts = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, 3)
        assert np.array_equal(lat.ravel(), cop.cdf_many(pts))

    @pytest.mark.parametrize("nodes, calls_per_slab", [(25, 1), (41, 2), (60, 4)])
    def test_an_oversized_slab_streams_in_row_blocks(self, nodes, calls_per_slab):
        # 25^3 points fit one call, 41^3 and 60^3 exceed 2**16; the values
        # equal one evaluation of the whole slab bit for bit
        efgm = efgm_quadratic(4)
        sizes = []
        counted = AnalyticCopula(4, lambda p: sizes.append(len(p)) or efgm.cdf_many(p))
        axes = [np.array([0.3, 0.9]), *[np.linspace(0, 1, nodes)] * 3]
        tail = np.stack(np.meshgrid(*axes[1:], indexing="ij"), -1).reshape(-1, 3)
        for x, slab in zip(axes[0], counted.cdf_slabs(axes)):
            whole = efgm.cdf_many(np.column_stack([np.full(len(tail), x), tail]))
            assert np.array_equal(slab.ravel(), whole)
        assert len(sizes) == 2 * calls_per_slab and max(sizes) <= 2**16

    @pytest.mark.parametrize("axes", [2, 4])
    def test_wrong_axis_count_is_rejected(self, axes):
        cop = example54_copula()
        with pytest.raises(DimensionMismatch):
            next(cop.cdf_slabs([np.linspace(0, 1, 5)] * axes))
        with pytest.raises(DimensionMismatch):
            cop.cdf_on_lattice([np.linspace(0, 1, 5)] * axes)

    @given(st.floats(0, 1), st.floats(0, 1))
    @settings(max_examples=50, deadline=None)
    def test_shuffle_cdf_within_frechet_bounds(self, u, v):
        sh = FAMILIES["shuffle1"]
        val = sh.cdf([u, v])
        assert max(u + v - 1, 0) - 1e-12 <= val <= min(u, v) + 1e-12


# nodes where the slab mixtures are nonsmooth: quarters, their preimages
# under the example's margins, eighths
_KINKS = np.array([0.0, 1 / 8, 1 / 4, 1 / 3, 3 / 8, 1 / 2, 2 / 3, 5 / 8, 3 / 4, 7 / 8, 1.0])
_MIXTURES = {
    "composite": example54_copula(),
    "psi-composite": pvc3(example54_copula()).psi,
    "psi-efgm": pvc3(efgm_quadratic()).psi,
}


def _lattice_axis(rng, n):
    """``n`` sorted distinct nodes in [0, 1], kinks and random points mixed."""
    pts = np.union1d(rng.choice(_KINKS, size=min(n, rng.integers(0, 4)), replace=False),
                     rng.random(n))
    return np.sort(rng.choice(pts, size=n, replace=False))


class TestSlabMixtureLattice:
    """A slab mixture's tables give the generic row-block evaluation bit for bit."""

    @pytest.mark.parametrize("name", sorted(_MIXTURES))
    @given(st.integers(1, 120), st.integers(1, 700), st.integers(1, 6),
           st.integers(0, 2**32 - 1), st.data())
    @settings(max_examples=25, deadline=None)
    def test_slabs_equal_the_row_block_evaluation(self, name, n0, n1, n2, seed, data):
        # up to 120 x 700 table entries per slab: several 2**16-entry blocks
        cop = _MIXTURES[name]
        rng = np.random.default_rng(seed)
        axes = [_lattice_axis(rng, n) for n in (n0, n1, n2)]
        generic = AnalyticCopula(3, cop.cdf_many)
        want = generic.cdf_on_lattice(axes)
        assert np.array_equal(cop.cdf_on_lattice(axes), want)
        # a part of a split scan streams a contiguous slice of the first axis
        lo = data.draw(st.integers(0, n0 - 1))
        hi = data.draw(st.integers(lo + 1, n0))
        part = list(cop.cdf_slabs([axes[0][lo:hi], *axes[1:]]))
        assert len(part) == hi - lo
        assert all(np.array_equal(a, b) for a, b in zip(part, want[lo:hi]))

    @pytest.mark.parametrize("name", sorted(_MIXTURES))
    @pytest.mark.parametrize("m", [4, 64, 100])
    def test_uniform_lattice_equals_the_pointwise_cdf(self, name, m):
        cop = _MIXTURES[name]
        axes = [np.linspace(0, 1, m + 1)] * 3
        pts = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, 3)
        assert np.array_equal(cop.cdf_on_lattice(axes).ravel(), cop.cdf_many(pts))

    @pytest.mark.parametrize("name", sorted(_MIXTURES))
    @pytest.mark.parametrize("sizes", [(120, 700, 3), (3, 300, 400)])
    def test_several_blocks(self, name, sizes):
        # 120 x 700 entries per table: two row blocks and more, a short last
        # one; 300 x 400 per slab: added in blocks of whole rows of 2**16
        cop = _MIXTURES[name]
        rng = np.random.default_rng(5)
        axes = [_lattice_axis(rng, n) for n in sizes]
        want = AnalyticCopula(3, cop.cdf_many).cdf_on_lattice(axes)
        assert np.array_equal(cop.cdf_on_lattice(axes), want)

    def test_a_single_node_lattice(self):
        for cop in _MIXTURES.values():
            axes = [np.array([0.6]), np.array([0.3]), np.array([0.9])]
            assert np.array_equal(cop.cdf_on_lattice(axes).ravel(),
                                  cop.cdf_many(np.array([[0.6, 0.3, 0.9]])))


def _product_form(name, dim, seed):
    """A closed form whose products factor over the axes, and its kernel by
    the row-product formula."""
    if name == "pi":
        return independence_analytic(dim), lambda v, u: np.prod(u, axis=1)
    rng = np.random.default_rng(seed)
    if name == "efgm-quadratic":
        cop, fprime = efgm_quadratic(dim), lambda v: 1.0 - 2.0 * v
    elif name == "efgm-sequence":
        m = int(rng.integers(1, 5))
        k = int(rng.integers(1, 2**m + 1))
        lo, hi = (k - 1) / 2**m, k / 2**m
        cop = efgm_sequence_member(m, k, dim)
        fprime = lambda v: ((v > lo) & (v <= hi)).astype(float)
    else:
        a = float(rng.uniform(-1.0, 1.0))
        spec = EfgmSpec(dim, lambda v: a * v * (1.0 - v), lambda v: a * (1.0 - 2.0 * v),
                        label="efgm_a")
        cop, fprime = efgm(spec), spec.fprime
    return cop, lambda v, u: np.prod(u, axis=1) + fprime(v) * np.prod(u * (1.0 - u), axis=1)


_PRODUCT_FORMS = ["efgm-quadratic", "efgm-seeded", "efgm-sequence", "pi"]


def _nodes(rng, n, kinks):
    """``n`` nodes in [0, 1], some on ``kinks``, and 0 at times as -0.0."""
    pts = np.union1d(rng.choice(kinks, size=min(n, rng.integers(0, 3))), rng.random(n))
    nodes = rng.choice(pts, size=n, replace=False)
    return np.where((nodes == 0.0) & (rng.random(n) < 0.5), -0.0, nodes)


def _bits(a):
    """The float64 values of ``a`` as integers: -0.0 and 0.0 differ."""
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


class TestFactoredProductForms:
    """EFGM and independence slabs and kernels factor over the axes and give
    the pointwise evaluation bit for bit, signed zeros included."""

    @staticmethod
    def check_lattice(cop, axes, lo, hi):
        want = AnalyticCopula(cop.dim, cop.cdf_many).cdf_on_lattice(axes)
        cop.cdf_many = None  # the factored slabs evaluate no point
        got = cop.cdf_on_lattice(axes)
        assert got.shape == want.shape and np.array_equal(_bits(got), _bits(want))
        # a part of a split scan streams a contiguous slice of the first axis
        part = list(cop.cdf_slabs([axes[0][lo:hi], *axes[1:]]))
        assert len(part) == hi - lo
        assert all(np.array_equal(_bits(a), _bits(b)) for a, b in zip(part, want[lo:hi]))

    @given(st.sampled_from(_PRODUCT_FORMS), st.integers(2, 4), st.integers(0, 2**32 - 1),
           st.data())
    @settings(max_examples=80, deadline=None)
    def test_slabs_equal_the_row_block_evaluation(self, name, dim, seed, data):
        cop, _ = _product_form(name, dim, seed)
        rng = np.random.default_rng(seed)
        kinks = np.union1d(cop.kernel_v_breaks, [0.5])
        sizes = data.draw(st.lists(st.integers(0, 8), min_size=dim, max_size=dim))
        axes = [np.sort(_nodes(rng, n, kinks)) for n in sizes]
        lo = data.draw(st.integers(0, sizes[0]))
        self.check_lattice(cop, axes, lo, data.draw(st.integers(lo, sizes[0])))

    @pytest.mark.parametrize("name", _PRODUCT_FORMS)
    @pytest.mark.parametrize("sizes", [(1, 1), (1, 1, 1), (1, 1, 1, 1), (0, 3, 3), (3, 0, 3),
                                       (3, 3, 0)])
    def test_a_single_node_and_an_empty_axis(self, name, sizes):
        cop, _ = _product_form(name, len(sizes), 7)
        axes = [np.linspace(0.0, 1.0, n) if n > 1 else np.full(n, 0.6) for n in sizes]
        self.check_lattice(cop, axes, 0, sizes[0])

    @given(st.sampled_from(_PRODUCT_FORMS), st.integers(2, 4), st.integers(0, 2**32 - 1),
           st.integers(0, 40))
    @settings(max_examples=80, deadline=None)
    def test_kernels_equal_the_row_product_formula(self, name, dim, seed, m):
        cop, formula = _product_form(name, dim, seed)
        rng = np.random.default_rng(seed)
        kinks = np.union1d(cop.kernel_v_breaks, [0.5])
        v = _nodes(rng, m, kinks)
        u = _nodes(rng, m * (dim - 1), kinks).reshape(m, dim - 1)
        # whole rows, and one row broadcast to every v
        for rows in (u, u[:1]):
            got = cop.kernel(v, rows)
            want = formula(v, np.broadcast_to(rows, (m, dim - 1)))
            assert np.array_equal(_bits(got), _bits(want))
            assert not np.shares_memory(got, rows)


@pytest.mark.parametrize("path, cop", [("row-block", comonotone(3)),
                                       ("slab-mixture", example54_copula()),
                                       ("product", efgm_quadratic())],
                         ids=["row-block", "slab-mixture", "product"])
@pytest.mark.parametrize("empty", [0, 1, 2])
def test_an_empty_axis_gives_the_empty_lattice_a_grid_gives(path, cop, empty):
    axes = [np.array([0.5])] * 3
    axes[empty] = np.array([])
    want = cube_copula().cdf_on_lattice(axes)
    assert want.size == 0
    assert cop.cdf_on_lattice(axes).shape == want.shape
    assert [S.shape for S in cop.cdf_slabs(axes)] == [S.shape for S in want]
