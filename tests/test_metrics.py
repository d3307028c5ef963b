import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from copulakit import (
    GridCopula,
    box_mass,
    comonotone,
    common_refinement,
    convex_combine,
    countermonotone,
    d1,
    d2,
    d_inf,
    d_inf_kernel,
    discretize,
    efgm_quadratic,
    efgm_sequence_member,
    empirical_copula,
    example54_copula,
    independence,
    independence_analytic,
    kl,
    metric_chain_check,
    pvc3,
    sample,
    tv,
    wcc_profile,
)
from copulakit import metrics as metrics_mod
from copulakit import verify
from copulakit.errors import ChainViolation, ResolutionOverflow, SupportViolation
from copulakit.verify import random_copula_grid
from conftest import a1_cdf, a2_cdf


def riemann_d1_oracle(n=500):
    """Slabwise quadrature oracle for the kernel-L1 distance between the
    block copula and independence: average the two per-slab integrals."""
    mids = (np.arange(n) + 0.5) / n
    U, V = np.meshgrid(mids, mids, indexing="ij")
    pi = U * V
    return 0.5 * np.abs(a1_cdf(U, V) - pi).mean() + 0.5 * np.abs(a2_cdf(U, V) - pi).mean()


# Frozen from the slabwise oracle (exact value 1/16; the oracle reproduces it
# to its resolution).  The kernel fields of the two operands sit at average
# distance (|A1 - pi| + |A2 - pi|) / 2 with pi the exact midpoint of A1, A2.
D1_CUBE_PI = 1 / 16


def test_d1_oracle_consistency():
    assert riemann_d1_oracle() == pytest.approx(D1_CUBE_PI, abs=2e-3)


class TestDInf:
    def test_cube_vs_pi_exact(self, cube, pi2):
        rep = d_inf(cube, pi2)
        assert rep.value == 0.125 and rep.exactness == "exact"

    def test_identity(self, cube):
        assert d_inf(cube, cube).value == 0.0

    def test_frechet_bounds_gap(self):
        rep = d_inf(comonotone(2), countermonotone())
        assert rep.value == 0.5  # attained at the center node of the scan

    def test_efgm_distance(self):
        rep = d_inf(efgm_quadratic(3), independence_analytic(3))
        assert abs(rep.value - 1 / 64) <= 1e-6
        assert rep.exactness == "certified" and rep.error > 0

    def test_brute_force_node_max_bit_exact(self, cube, pi2):
        r1, r2 = common_refinement(cube, pi2)
        axes = r1.breaks
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
        brute = np.max(np.abs(r1.cdf_many(grid) - r2.cdf_many(grid)))
        assert d_inf(cube, pi2).value == brute

    def test_symmetry_and_triangle(self, random_grid):
        a = random_grid((2, 3, 2), seed=1)
        b = random_grid((3, 2, 2), seed=2)
        c = random_grid((2, 2, 3), seed=3)
        dab = d_inf(a, b).value
        assert dab == d_inf(b, a).value
        assert dab <= d_inf(a, c).value + d_inf(c, b).value + 1e-12


def nonuniform_grid(rng, dim):
    """Random checkerboard of 1 to 4 cells per axis on random breaks: a
    positive tensor fitted to the cell widths by iterative proportional
    fitting."""
    breaks = [np.concatenate(([0.0], np.sort(rng.random(n - 1)), [1.0]))
              for n in rng.integers(1, 5, size=dim)]
    m = rng.random([len(b) - 1 for b in breaks]) + 0.05
    for _ in range(400):
        for ax, b in enumerate(breaks):
            rest = tuple(a for a in range(dim) if a != ax)
            m = m * np.expand_dims(np.diff(b) / m.sum(axis=rest), rest)
    return GridCopula(breaks, m)


class TestStreamedMergedBreaks:
    """With the dense node budget at 0 a multilinear pair streams its merged
    breaks through the slab scan: still exact, with error 0, and the value of
    the dense evaluation of the same nodes up to rounding, since the two take
    different float paths (over 2,400 such pairs and orders, 40 differed,
    by at most 1.2e-16)."""

    @staticmethod
    def streamed(c1, c2):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metrics_mod, "_NODE_BUDGET", 0)
            return d_inf(c1, c2)

    def check(self, c1, c2):
        dense = d_inf(c1, c2)
        assert dense.exactness == "exact"
        for rep in (self.streamed(c1, c2), self.streamed(c2, c1)):
            assert (rep.exactness, rep.error, rep.target_met) == ("exact", 0.0, True)
            assert abs(rep.value - dense.value) <= 1e-15

    @given(st.integers(0, 2**32 - 1), st.integers(2, 4))
    @settings(max_examples=40, deadline=None)
    def test_nonuniform_grid_pairs(self, seed, dim):
        rng = np.random.default_rng(seed)
        self.check(nonuniform_grid(rng, dim), nonuniform_grid(rng, dim))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_grid_against_its_image(self, seed):
        rng = np.random.default_rng(seed)
        C = random_copula_grid(rng, rng.integers(1, 5, size=3))
        self.check(C, pvc3(C).psi)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 4))
    @settings(max_examples=20, deadline=None)
    def test_grid_against_closed_form_independence(self, seed, dim):
        self.check(nonuniform_grid(np.random.default_rng(seed), dim), independence_analytic(dim))

    @given(st.integers(0, 2**32 - 1), st.integers(1, 64))
    @settings(max_examples=20, deadline=None)
    def test_small_sample_against_a_grid(self, seed, n):
        g = nonuniform_grid(np.random.default_rng(seed), 3)
        self.check(empirical_copula(sample(g, n, seed)), g)

    def test_a_closed_form_that_is_not_multilinear_stays_certified(self, random_grid):
        g = random_grid((3, 2, 4))
        for rep in (self.streamed(efgm_quadratic(3), g), self.streamed(g, efgm_quadratic(3))):
            assert rep.exactness == "certified" and rep.error > 0
            assert rep.value == d_inf(efgm_quadratic(3), g).value


class TestKernelMetrics:
    def test_d1_cube_pi_matches_oracle(self, cube, pi2):
        rep = d1(cube, pi2)
        assert rep.value == pytest.approx(D1_CUBE_PI, abs=1e-9)
        assert rep.exactness == "exact"

    def test_d1_efgm_sequence(self):
        pi_a = independence_analytic(3)
        for m in range(1, 7):
            rep = d1(efgm_sequence_member(m, 1, 3), pi_a)
            assert rep.value == pytest.approx(2.0**-m / 36, abs=1e-8)

    def test_d2_and_sup_zero_on_identity(self, cube):
        assert d2(cube, cube).value == 0.0
        assert d_inf_kernel(cube, cube).value == 0.0

    def test_sup_kernel_cube_pi(self, cube, pi2):
        assert d_inf_kernel(cube, pi2).value == 0.25

    def test_axis_flag_on_exchangeable_input(self, cube, pi2):
        # the block copula is exchangeable: conditioning axis is immaterial
        vals = {d1(cube, pi2, axis=a).value for a in (0, 1, 2)}
        assert max(vals) - min(vals) <= 1e-12

    def test_d1_symmetry(self, random_grid):
        a = random_grid((2, 2, 3), seed=4)
        b = random_grid((2, 3, 2), seed=5)
        assert d1(a, b).value == pytest.approx(d1(b, a).value, abs=1e-10)


class TestCubeKernelL1:
    """d1(cube, psi(cube)) against a brute-force oracle from the cdfs."""

    @staticmethod
    def midpoint_oracle(c1, c2, k):
        """Midpoint sum of |K1 - K2| on the 2^k x 2^k mesh of the free square,
        slab by slab: on a conditioning slab [lo, hi] a checkerboard kernel
        is (C(u, hi) - C(u, lo)) / (hi - lo), read here from the cdfs."""
        mids = (np.arange(2**k) + 0.5) / 2**k
        vb = np.union1d(c1.breaks[2], c2.breaks[2])
        total = 0.0
        for lo, hi in zip(vb[:-1], vb[1:]):
            axes = [mids, mids, np.array([lo, hi])]
            k1, k2 = (np.diff(c.cdf_on_lattice(axes), axis=2)[..., 0] / (hi - lo)
                      for c in (c1, c2))
            total += (hi - lo) * float(np.abs(k1 - k2).mean())
        return total

    def test_psi_of_cube_is_independence(self, cube):
        psi = pvc3(cube).psi
        assert d_inf(psi, independence(3, [1, 1, 1])).value == 0.0

    def test_oracle_converges_to_one_sixteenth(self, cube):
        # on each quadrant |A_k - Pi| is bilinear and sign-definite, so the
        # midpoint sums hit 1/16 on every dyadic mesh; O(h) is the bound
        psi = pvc3(cube).psi
        for k in range(6, 10):
            assert abs(self.midpoint_oracle(cube, psi, k) - 1 / 16) <= 2.0**-k

    def test_d1_is_exact_one_sixteenth(self, cube):
        rep = d1(cube, pvc3(cube).psi, eps=1e-9)
        assert rep.exactness == "exact" and rep.error == 0.0
        assert rep.value == 1 / 16

    def test_case_passes(self):
        case = verify.case_cube_kernel_l1()
        assert case.passed
        assert case.computed["d1"] == 1 / 16


class TestTargetMet:
    def test_scan_fallback_misses_eps(self):
        ex = example54_copula()
        rep = d_inf(ex, ex, eps=1e-8, scan_m=16)
        assert rep.value == 0.0 and rep.error > 1e-8
        assert rep.target_met is False
        assert rep.to_dict()["target_met"] is False

    def test_grid_pair_meets_eps(self, cube, pi2):
        for rep in (d_inf(cube, pi2), d1(cube, pi2), tv(cube, pi2)):
            assert rep.target_met is True


class TestTv:
    def test_cube_pi(self, cube, pi2):
        assert tv(cube, pi2).value == 0.5

    def test_identity(self, cube):
        assert tv(cube, cube).value == 0.0

    def test_mix_linearity(self, cube, pi2):
        mixed = convex_combine([0.75, 0.25], [pi2, cube])
        assert tv(mixed, pi2).value == pytest.approx(0.25 / 2, abs=1e-15)

    def test_dominates_random_aligned_events(self, cube, pi2, rng):
        # the optimal event dominates any probe set of refined cells
        r1, r2 = common_refinement(cube, pi2)
        diff = (r1.masses - r2.masses).ravel()
        best = tv(cube, pi2).value
        for _ in range(10_000):
            mask = rng.random(diff.size) < 0.5
            assert abs(diff[mask].sum()) <= best + 1e-12


class TestKl:
    def test_cube_pi(self, cube, pi2):
        assert kl(cube, pi2).value == pytest.approx(math.log(2), abs=1e-15)

    def test_identity(self, cube):
        assert kl(cube, cube).value == 0.0

    def test_support_violation(self, cube, pi2):
        with pytest.raises(SupportViolation):
            kl(pi2, cube)

    def test_pinsker_on_positive_pairs(self, rng):
        for _ in range(20):
            a = random_copula_grid(rng, (3, 3, 3))
            b = random_copula_grid(rng, (3, 3, 3))
            assert kl(a, b).value >= 2 * tv(a, b).value ** 2 - 1e-12


class TestWccProfile:
    def test_identical_zeros(self, cube):
        prof = wcc_profile(cube, cube, [0.2, 0.8])
        assert all(p == 0 for _, p in prof)

    def test_efgm_window_height(self):
        cop = efgm_sequence_member(2, 1, 3)
        prof = dict(wcc_profile(cop, independence_analytic(3), [0.1, 0.9]))
        assert prof[0.1] == pytest.approx(1 / 16, abs=1e-12)
        assert prof[0.9] == 0.0

    def test_cube_slab_distance(self, cube, pi2):
        prof = dict(wcc_profile(cube, pi2, [0.25]))
        assert prof[0.25] == 0.25


class TestMixedKernelOperands:
    """A grid against a multilinear closed form: the closed form is read as
    the grid on its multilinear breaks, so every kernel metric is exact and
    equals the one against the one-cell grid, in either order."""

    @pytest.mark.parametrize("seed, res", [(0, [3, 3, 3]), (1, [2, 4, 3]), (2, [4, 4, 4])])
    def test_grid_against_analytic_independence(self, seed, res):
        g = random_copula_grid(np.random.default_rng(seed), res)
        pi, pi_grid = independence_analytic(3), independence(3, [1, 1, 1])
        for metric in (d1, d2, d_inf_kernel):
            exact = metric(g, pi_grid)
            for rep in (metric(g, pi), metric(pi, g)):
                assert rep.exactness == "exact" and rep.error == 0.0 and rep.target_met
                assert rep.value == exact.value


class TestChain:
    def test_cube_pi_chain(self, cube, pi2):
        rep = metric_chain_check(cube, pi2)
        assert rep["ok"]

    def test_random_pairs_with_doubled_budget_oracle(self, rng):
        # metrics recomputed at a tighter budget agree within the reported
        # certificates (independent quadrature route)
        for _ in range(10):
            a = random_copula_grid(rng, tuple(rng.integers(1, 5, size=3)))
            b = random_copula_grid(rng, tuple(rng.integers(1, 5, size=3)))
            coarse = d1(a, b, eps=1e-6)
            fine = d1(a, b, eps=1e-10)
            assert abs(coarse.value - fine.value) <= coarse.error + fine.error + 1e-12

    def test_case_records_violation_messages(self, monkeypatch):
        def violated(c1, c2, eps):
            raise ChainViolation("metric relations violated: ['d2 <= d1']")

        monkeypatch.setattr(verify, "metric_chain_check", violated)
        case = verify.case_metric_chain()
        assert not case.passed
        assert case.computed["violations"] == 100
        assert case.computed["messages"][0] == "metric relations violated: ['d2 <= d1']"

    def test_case_propagates_other_errors(self, monkeypatch):
        def broken(c1, c2, eps):
            raise ZeroDivisionError("bug")

        monkeypatch.setattr(verify, "metric_chain_check", broken)
        with pytest.raises(ZeroDivisionError):
            verify.case_metric_chain()

    def test_dinf_below_sup_kernel(self, rng):
        for _ in range(20):
            a = random_copula_grid(rng, (2, 3, 2))
            b = random_copula_grid(rng, (4, 2, 2))
            assert d_inf(a, b).value <= d_inf_kernel(a, b).value + 1e-10


class TestReportFields:
    def test_exact_reports_are_reproducible(self, cube, pi2):
        r1 = d_inf(cube, pi2)
        r2 = d_inf(cube, pi2)
        assert r1.value == r2.value and r1.exactness == r2.exactness

    def test_report_dict(self, cube, pi2):
        d = tv(cube, pi2).to_dict()
        assert d["metric"] == "tv" and d["exactness"] == "exact"
        assert d["value"] >= 0 and d["elapsed_s"] >= 0
