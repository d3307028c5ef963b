import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from copulakit import (
    EfgmSpec,
    EmpiricalCopula,
    GridCopula,
    conditional_margin,
    cube_copula,
    common_refinement,
    convex_combine,
    d_inf,
    discretize,
    efgm,
    efgm_quadratic,
    empirical_copula,
    example54_copula,
    independence,
    is_simplified,
    j_functional,
    kernel_cdf,
    new_grid,
    partial_copula,
    product_extend,
    pvc3,
    pvc3_analytic,
    pvc_distance_report,
    pvc_dvine,
    sample,
)
from copulakit.errors import (
    BadOperand,
    ClosedFormUnavailable,
    CopulaError,
    DimensionMismatch,
    ResolutionOverflow,
)
from copulakit import pvc as pvc_mod
from copulakit.pvc import _fingerprint
from copulakit.grid import _axis_map, _contract
from copulakit.verify import convergence_lab, random_copula_grid
from conftest import f3pi_member, nonuniform_grid


def cellwise_gap(a, b):
    ra, rb = common_refinement(a, b)
    return float(np.max(np.abs(ra.masses - rb.masses)))


class TestPvc3:
    def test_cube_maps_to_independence(self, cube, pi2):
        res = pvc3(cube)
        assert d_inf(res.psi, pi2).value <= 1e-12
        assert d_inf(cube, res.psi).value == 0.125

    def test_simplified_inputs_are_fixed_points(self, pi4, random_grid):
        for g in (pi4, product_extend(new_grid(2, [2, 2], [[0.5, 0], [0, 0.5]]), 3)):
            res = pvc3(g)
            assert cellwise_gap(res.psi, g) <= 1e-12

    def test_empirical_fixed_point_dense_route(self, cube):
        emp = empirical_copula(sample(cube, 16, seed=7)).to_grid()
        res = pvc3(emp)
        assert cellwise_gap(res.psi, emp) <= 1e-12

    def test_empirical_fixed_point_rank_route(self, cube):
        emp = empirical_copula(sample(cube, 5000, seed=8))
        res = pvc3(emp)
        assert res.psi is emp

    def test_the_ladder_fixes_a_sample(self, cube):
        emp = empirical_copula(sample(cube, 500, seed=8))
        assert pvc_dvine(emp).psi is emp

    def test_margins_preserved(self, random_grid):
        g = random_grid((3, 2, 4))
        res = pvc3(g)
        for axes in ((0, 2), (1, 2)):
            assert cellwise_gap(res.psi.margin(axes), g.margin(axes)) <= 1e-12

    def test_idempotence(self, random_grid):
        g = random_grid((2, 3, 3))
        first = pvc3(g).psi
        second = pvc3(first).psi
        assert d_inf(first, second).value <= 1e-12

    def test_image_is_simplified(self, random_grid):
        g = random_grid((3, 2, 2))
        flag, delta = is_simplified(pvc3(g).psi, tol=1e-10)
        assert flag, delta

    def test_f3pi_image_is_product_with_last_axis(self, rng):
        # with both cross margins independent, the image is the first-pair
        # margin times the last coordinate
        for _ in range(5):
            g = f3pi_member(rng)
            res = pvc3(g)
            c12 = g.margin((0, 1))
            pts = rng.random((40, 3))
            expected = c12.cdf_many(pts[:, :2]) * pts[:, 2]
            assert_allclose(res.psi.cdf_many(pts), expected, atol=1e-12)

    def test_non_injectivity(self, cube, rcube, pi2):
        imgs = [pvc3(cube).psi, pvc3(rcube).psi,
                pvc3(discretize(efgm_quadratic(3), [8, 8, 8])).psi]
        for img in imgs:
            assert d_inf(img, pi2).value <= 1e-12

    def test_fingerprint_distinguishes_inputs(self, cube, rcube):
        assert pvc3(cube).fingerprint != pvc3(rcube).fingerprint

    def test_fingerprint_distinguishes_analytic_members(self):
        def member(a):
            return efgm(EfgmSpec(3, lambda v: a * v * (1.0 - v), lambda v: a * (1.0 - 2.0 * v)))

        plus, minus = pvc3_analytic(member(0.5)), pvc3_analytic(member(-0.5))
        assert plus.fingerprint != minus.fingerprint
        assert pvc3_analytic(member(0.5)).fingerprint == plus.fingerprint

    def test_closed_form_fingerprints_are_stable(self):
        # the fingerprint hashes a 5-node lattice of the cdf
        res = pvc3(example54_copula())
        assert res.fingerprint == "2b8b95ad8b5d46f6"
        assert _fingerprint(res.psi) == "6053af5f042fc9df"
        assert pvc3(efgm_quadratic()).fingerprint == "88f1c299c6134558"

    def test_grid_and_rank_fingerprints_are_stable(self, cube):
        emp = EmpiricalCopula(np.array([[1, 2, 3], [2, 3, 1], [3, 1, 2]]))
        assert pvc3(cube).fingerprint == "d4acab5398df279b"
        assert pvc3(emp).fingerprint == "383e7b92b38759c9"


class TestSlabTables:
    """pvc3 of a grid carries per slab its kernel's table on the slab's own
    preimage mesh, beside the same dense image as before."""

    def test_images_hash_as_before_the_one_sort_union(self):
        # breaks and masses of seeded images, pinned from the folded union
        C = random_copula_grid(np.random.default_rng(0), [12] * 3)
        assert _fingerprint(pvc3(C).psi) == "6d3d5462356236e9"
        C = random_copula_grid(np.random.default_rng(0), [3] * 4)
        assert _fingerprint(pvc_dvine(C).psi) == "8181fbb6f712f4f3"

    @pytest.mark.parametrize("seed", range(6))
    def test_each_table_is_the_dense_kernel_on_the_global_mesh(self, seed):
        rng = np.random.default_rng([26, seed])
        C = nonuniform_grid(rng, 3) if seed % 2 else random_copula_grid(rng, (4, 3, 5))
        psi = pvc3(C).psi
        plain = GridCopula(psi.breaks, psi.masses)
        assert plain.slab_tables is None and len(psi.slab_tables) == psi.shape[2]
        free = psi.breaks[:-1]
        for k in range(psi.shape[2]):
            mesh, table = psi.slab_kernel(k)
            # the slab mesh is a subset of the global mesh and holds C's own breaks
            for m, b, own in zip(mesh, free, C.breaks[:-1]):
                assert np.all(np.isin(m, b)) and np.all(np.isin(own, m))
            got = _contract(table, [_axis_map(m, b) for m, b in zip(mesh, free)])
            assert np.max(np.abs(got - plain.slab_kernel(k)[1])) <= 1e-15


@st.composite
def nonuniform_grids(draw):
    """Three-dimensional grid copula with 2-4 cells per axis at random
    breakpoints, fitted to uniform margins by iterative proportional fitting
    of a positive random tensor."""
    breaks = []
    for _ in range(3):
        n = draw(st.integers(2, 4))
        widths = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=n, max_size=n)))
        b = np.concatenate([[0.0], np.cumsum(widths) / widths.sum()])
        b[-1] = 1.0
        breaks.append(b)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = rng.random(tuple(len(b) - 1 for b in breaks)) + 0.05
    for _ in range(400):
        for ax, b in enumerate(breaks):
            axes = tuple(a for a in range(3) if a != ax)
            m = m * np.expand_dims(np.diff(b) / m.sum(axis=axes), axes)
    return GridCopula(breaks, m)


@settings(max_examples=40, deadline=None)
@given(nonuniform_grids())
def test_pvc3_invariants_on_nonuniform_grids(C):
    psi = pvc3(C).psi
    GridCopula(psi.breaks, psi.masses)  # validates masses and uniform margins
    for axes in ((0, 2), (1, 2)):
        assert cellwise_gap(psi.margin(axes), C.margin(axes)) <= 1e-12
    assert d_inf(pvc3(psi).psi, psi).value <= 1e-12
    assert is_simplified(psi)[0]
    # the ladder that conditions on the last coordinate is pvc3
    assert cellwise_gap(pvc_dvine(C, order=(0, 2, 1)).psi, psi) <= 1e-15
    # a conditional margin is the kernel with the other free coordinate at 1
    for t in (C.breaks[2][:-1] + C.breaks[2][1:]) / 2:
        for x in np.union1d(C.breaks[0], [0.3, 0.7]):
            assert conditional_margin(C, 0, t)(x) == pytest.approx(
                kernel_cdf(C, t, [x, 1.0]), abs=1e-15)
        for y in np.union1d(C.breaks[1], [0.3, 0.7]):
            assert conditional_margin(C, 1, t)(y) == pytest.approx(
                kernel_cdf(C, t, [1.0, y]), abs=1e-15)


@pytest.mark.parametrize("call", [
    lambda: is_simplified(efgm_quadratic(3)),
    lambda: partial_copula(example54_copula()),
    lambda: pvc3(efgm_quadratic(3)),
    lambda: j_functional(efgm_quadratic(3), cube_copula()),
    lambda: pvc_dvine(efgm_quadratic(3)),
], ids=["is_simplified", "partial_copula", "pvc3", "j_functional", "pvc_dvine"])
def test_closed_form_operands_answer_or_raise_copula_error(call):
    try:
        call()
    except CopulaError:
        pass


def test_images_converge_in_d1_along_a_seeded_sequence():
    # C_n = (1 - 1/n) C + D/n on random 3^3 grids: the images approach psi(C)
    rows = convergence_lab("d1-continuity")
    assert [r["n"] for r in rows] == [2, 4, 8, 16, 32]
    psi = [r["d1_psi"] for r in rows]
    assert all(v > 0 for v in psi)
    assert all(a > b for a, b in zip(psi, psi[1:]))
    assert all(r["d1_psi"] <= 1.1 * r["d1_input"] for r in rows)


class TestWorstCaseCharacterization:
    def test_quadrant_constrained_members_attain_the_bound(self, rng):
        # distribute each quarter of mass inside the four blocks of the
        # block copula as an arbitrary pairwise-independent sub-grid: the
        # octant masses stay 1/4 and the distance to the image is exactly 1/8
        for _ in range(5):
            m = np.zeros((4, 4, 4))
            blocks = [(0, 0, 0), (1, 1, 0), (0, 1, 1), (1, 0, 1)]
            for bx, by, bz in blocks:
                sub = f3pi_member(rng).masses
                m[2 * bx : 2 * bx + 2, 2 * by : 2 * by + 2, 2 * bz : 2 * bz + 2] = (
                    sub / 4.0
                )
            g = new_grid(3, [4, 4, 4], m)
            res = pvc3(g)
            assert d_inf(g, res.psi).value == pytest.approx(0.125, abs=1e-12)

    def test_perturbed_members_fall_strictly_below(self, cube, pi2, rng):
        mixed = convex_combine([0.75, 0.25], [cube, pi2])
        res = pvc3(mixed)
        val = d_inf(mixed, res.psi).value
        assert val < 0.125 - 1e-6
        assert val == pytest.approx(0.75 * 0.125, abs=1e-12)


class TestPvc3Analytic:
    def test_composite_witness(self):
        ex = example54_copula()
        res = pvc3(ex)
        assert res.psi.cdf([0.5, 0.5, 1.0]) == pytest.approx(3 / 16, abs=1e-12)
        assert ex.cdf([0.5, 0.5, 1.0]) - res.psi.cdf([0.5, 0.5, 1.0]) >= 3 / 16 - 1e-12

    def test_efgm_image_is_independence(self):
        res = pvc3(efgm_quadratic(3))
        g = np.linspace(0, 1, 21)
        pts = np.stack(np.meshgrid(g, g, g, indexing="ij"), -1).reshape(-1, 3)
        assert np.max(np.abs(res.psi.cdf_many(pts) - pts.prod(axis=1))) <= 1e-12

    def test_requires_closed_family(self):
        from copulakit import shuffle_d

        with pytest.raises(ClosedFormUnavailable):
            pvc3(shuffle_d(1))
        with pytest.raises(ClosedFormUnavailable):
            pvc3_analytic(shuffle_d(1))

    def test_image_is_a_fixed_point(self):
        # the image carries its own family, whose partial is the input's
        ex = example54_copula()
        psi = pvc3(ex).psi
        pts = np.random.default_rng(5).random((200, 3))
        assert_allclose(pvc3(psi).psi.cdf_many(pts), psi.cdf_many(pts), atol=1e-15)
        assert pvc3_analytic(ex).psi.cdf([0.5, 0.5, 1.0]) == psi.cdf([0.5, 0.5, 1.0])

    def test_discretized_pipeline_tracks_analytic(self):
        ex = example54_copula()
        disc = discretize(ex, [64, 64, 4])
        res = pvc3(disc)
        assert res.psi.cdf([0.5, 0.5, 1.0]) == pytest.approx(3 / 16, abs=2e-2)
        assert disc.cdf([0.5, 0.5, 1.0]) == pytest.approx(3 / 8, abs=2e-2)


class TestDvine:
    def test_three_dim_reordered_matches_pvc3(self):
        # the ladder with the middle role given to the last coordinate is the
        # three-dimensional operator
        g = discretize(example54_copula(), [8, 8, 4])
        a = pvc3(g).psi
        b = pvc_dvine(g, order=(0, 2, 1)).psi
        assert cellwise_gap(a, b) <= 1e-12

    def test_identity_order_on_exchangeable_input(self, cube):
        # the block copula is exchangeable, so the conditioning coordinate
        # does not matter
        a = pvc3(cube).psi
        b = pvc_dvine(cube).psi
        assert cellwise_gap(a, b) <= 1e-12

    def test_simplified_inputs_fixed(self, pi4):
        assert cellwise_gap(pvc_dvine(pi4).psi, pi4) <= 1e-12

    def test_product_extension_d4(self, cube):
        c4 = product_extend(cube, 4)
        res = pvc_dvine(c4)
        pi4 = independence(4, [1, 1, 1, 1])
        assert d_inf(res.psi, pi4).value <= 1e-9
        assert d_inf(c4, res.psi).value == pytest.approx(0.125, abs=1e-9)

    def test_product_extension_d5(self, cube):
        c5 = product_extend(cube, 5)
        res = pvc_dvine(c5)
        pi5 = independence(5, [1] * 5)
        assert d_inf(res.psi, pi5).value <= 1e-9
        witness = np.array([0.5, 0.5, 0.5, 1.0, 1.0])
        assert c5.cdf(witness) - res.psi.cdf(witness) == pytest.approx(0.125, abs=1e-9)

    def test_tree_one_margins_copied(self, random_grid):
        g = random_grid((2, 2, 2, 2))
        res = pvc_dvine(g)
        for i in range(3):
            assert cellwise_gap(res.psi.margin((i, i + 1)), g.margin((i, i + 1))) <= 1e-12

    def test_dimension_guard(self):
        with pytest.raises(DimensionMismatch):
            pvc_dvine(independence(2, [2, 2]))

    def test_an_overflowing_ladder_raises_before_the_full_union(self, monkeypatch):
        # the first live cell's margins bound the image's cell count from
        # below, so the overflowing block merges one margin per axis
        sizes = []
        real = pvc_mod.preimage_union
        monkeypatch.setattr(pvc_mod, "preimage_union", lambda margins, targets: (
            sizes.append(len(margins)) or real(margins, targets)))
        C = random_copula_grid(np.random.default_rng(0), [5] * 4)
        with pytest.raises(ResolutionOverflow, match="needs at least"):
            pvc_dvine(C)
        # each tree-2 block bounds first, then merges its 5 slabs' margins
        assert sizes == [1, 1, 5, 5] * 2 + [1, 1]


class TestDistanceReport:
    def test_cube_report(self, cube):
        rep = pvc_distance_report(cube, pvc3(cube))
        assert rep["d_inf"]["value"] == 0.125
        assert rep["d1"]["value"] == pytest.approx(1 / 16, abs=1e-9)
        assert rep["delta"] == pytest.approx(0.125, abs=1e-9)
        assert rep["slab_count"] == 2

    def test_composite_report(self):
        ex = example54_copula()
        rep = pvc_distance_report(ex, pvc3(ex))
        assert rep["d_inf"]["value"] >= 3 / 16 - 1e-9
        assert rep["slab_count"] == 4
        # the values of the pointwise evaluation, bit for bit
        assert {k: rep["d_inf"][k] for k in ("value", "error", "n_evaluations")} == {
            "value": 0.1875, "error": 0.01171875, "n_evaluations": 35014194}
        # d1 by quadrature on the closed forms, not on a discretization of them,
        # and no simplifiedness gap, which only a grid has in closed form
        assert sorted(rep) == ["d1", "d_inf", "fingerprint", "slab_count"]
        assert rep["d1"]["exactness"] == "estimated"
        assert rep["d1"]["value"] == pytest.approx(0.0366033, abs=rep["d1"]["error"])
        assert 0 < rep["d1"]["error"] < 1e-5

    def test_efgm_report_brackets_one_72nd(self):
        # the kernel field of EFGM moves by (1 - 2t) u1 (1 - u1) u2 (1 - u2)
        # against its image, whose L1 integral is 1/2 * 1/6 * 1/6 = 1/72
        C = efgm_quadratic()
        rep = pvc_distance_report(C, pvc3(C))
        assert sorted(rep) == ["d1", "d_inf", "fingerprint", "slab_count"]
        assert rep["d1"]["exactness"] == "estimated"
        assert abs(rep["d1"]["value"] - 1 / 72) <= rep["d1"]["error"]

    def test_empirical_input_is_rejected_before_any_metric(self, monkeypatch):
        emp = empirical_copula(sample(cube_copula(), 100, seed=0))

        def metric(*args, **kwargs):
            raise AssertionError("a metric ran")

        for name in ("d_inf", "d1", "is_simplified"):
            monkeypatch.setattr(pvc_mod, name, metric)
        with pytest.raises(DimensionMismatch):
            pvc_distance_report(emp, pvc3(emp))

    def test_independence_report_zeros(self, pi2):
        rep = pvc_distance_report(pi2, pvc3(pi2))
        assert rep["d_inf"]["value"] <= 1e-12
        assert rep["d1"]["value"] <= 1e-12
        assert rep["delta"] <= 1e-12

    def test_ladder_image_is_reported(self, random_grid):
        g = random_grid((3, 3, 3))
        res = pvc_dvine(g)
        rep = pvc_distance_report(g, res)
        assert rep["d_inf"]["value"] == d_inf(g, res.psi).value
        assert rep["slab_count"] == res.slab_count

    def test_image_of_another_copula_is_rejected(self, cube, rcube):
        with pytest.raises(BadOperand):
            pvc_distance_report(cube, pvc3(rcube))
