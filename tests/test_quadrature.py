import itertools
import math
import tracemalloc

import numpy as np
import pytest

from copulakit.quadrature import (
    _abs_bilinear_unit,
    _abs_linear_unit,
    _bisect_abs,
    _gl_rules,
    _split_cell,
    adaptive_gl,
    integrate_abs_multilinear,
    integrate_square_multilinear,
    leg01,
)


def test_leg01_integrates_polynomials_exactly():
    x, w = leg01(8)
    for k in range(16):  # order 8 is exact through degree 15
        assert np.dot(w, x**k) == pytest.approx(1 / (k + 1), abs=1e-14)


class TestAbsMultilinear:
    def test_plane_difference(self):
        xs = np.linspace(0, 1, 5)
        ys = np.linspace(0, 1, 4)
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        val, half = integrate_abs_multilinear(X - Y, (xs, ys), tol=1e-12)
        assert abs(val - 1 / 3) <= half + 1e-12
        assert half <= 1e-11

    def test_sign_definite_is_exact(self):
        xs = np.linspace(0, 1, 3)
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        val, half = integrate_abs_multilinear(X * Y, (xs, xs), tol=1e-12)
        assert half == 0.0
        assert val == pytest.approx(0.25, abs=1e-15)

    def test_bracket_contains_truth_3d(self):
        xs = np.linspace(0, 1, 4)
        X, Y, Z = np.meshgrid(xs, xs, xs, indexing="ij")
        val, half = integrate_abs_multilinear(X * Y - Z, (xs,) * 3, tol=1e-6)
        assert abs(val - 13 / 36) <= half + 1e-12

    def test_nonuniform_mesh(self):
        xs = np.array([0.0, 0.1, 0.9, 1.0])
        ys = np.array([0.0, 0.5, 1.0])
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        val, half = integrate_abs_multilinear(X - Y, (xs, ys), tol=1e-10)
        assert abs(val - 1 / 3) <= half + 1e-10


UNIT = np.array([0.0, 1.0])


class TestAbsClosedForm:
    def test_abs_x_minus_y(self):
        val, half = integrate_abs_multilinear(np.array([[0.0, -1.0], [1.0, 0.0]]),
                                              (UNIT, UNIT))
        assert half == 0.0
        assert val == pytest.approx(1 / 3, abs=1e-16)

    def test_abs_xy_minus_quarter(self):
        # a mixed cell whose y-integral takes the log branch
        val, half = integrate_abs_multilinear(np.array([[-0.25, -0.25], [-0.25, 0.75]]),
                                              (UNIT, UNIT))
        assert half == 0.0
        assert val == pytest.approx((0.75 + math.log(2)) / 8, abs=1e-16)

    def test_one_free_axis(self):
        xs = np.array([0.0, 0.2, 0.7, 1.0])
        val, half = integrate_abs_multilinear(np.array([1.0, -1.5, 0.5, 0.0]), (xs,))
        # pieces: 0.2 (1 + 1.5^2) / 5, 0.5 (1.5^2 + 0.5^2) / 4, 0.3 * 0.5 / 2
        truth = 0.2 * 3.25 / 5 + 0.5 * 2.5 / 4 + 0.075
        assert half == 0.0
        assert val == pytest.approx(truth, abs=1e-16)

    def test_sign_definite_mesh_keeps_corner_mean_sum(self):
        # no mixed cell: the value is the corner-mean sum, bit for bit
        xs = np.array([0.0, 0.3, 1.0])
        ys = np.array([0.0, 0.6, 1.0])
        v = np.array([[0.0, 0.1, 0.2], [0.0, 0.4, 0.3], [0.1, 0.0, 0.9]])
        corners = np.stack([v[:-1, :-1], v[:-1, 1:], v[1:, :-1], v[1:, 1:]], axis=-1)
        vols = np.multiply.outer(np.diff(xs), np.diff(ys))
        expected = float((np.abs(corners.reshape(-1, 4).mean(axis=1)) * vols.ravel()).sum())
        assert integrate_abs_multilinear(v, (xs, ys)) == (expected, 0.0)


KINDS = ("zero-corners", "zero-edges", "saddle", "shared-roots", "rounded", "small-twist")


def random_mesh(rng, kind):
    """Random nonuniform 2-D mesh of node values of one kind."""
    nx, ny = (int(n) for n in rng.integers(2, 6, size=2))
    xs = np.sort(np.concatenate([[0.0, 1.0], rng.random(nx - 2)]))
    ys = np.sort(np.concatenate([[0.0, 1.0], rng.random(ny - 2)]))
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    v = rng.normal(size=(nx, ny))
    if kind == "zero-corners":
        v[rng.random(v.shape) < 0.3] = 0.0
    elif kind == "zero-edges":  # as on the u1 = 0 and u2 = 0 edges of a kernel difference
        v[0, :] = 0.0
        v[:, 0] = 0.0
    elif kind == "saddle":
        a, b = rng.random(2)
        v = (X - a) * (Y - b)
    elif kind == "shared-roots":
        v = np.outer(np.round(rng.normal(size=nx), 1), np.round(rng.normal(size=ny), 1))
    elif kind == "rounded":
        v = np.round(v, 1)
    elif kind == "small-twist":  # nearly linear cells, where the log form cancels
        a, b, c = rng.normal(size=3)
        v = a * X + b * Y + c + 10.0 ** rng.uniform(-9, -2) * X * Y
    return xs, ys, v


def outer_gl_oracle(xs, ys, v):
    """The x-integral per cell in closed form (linear integrand), the
    y-integral by adaptive Gauss-Legendre with breaks at the cells' roots."""
    c00, c01 = v[:-1, :-1].ravel(), v[:-1, 1:].ravel()
    c10, c11 = v[1:, :-1].ravel(), v[1:, 1:].ravel()
    vol = np.multiply.outer(np.diff(xs), np.diff(ys)).ravel()

    def inner(pts):
        t = pts[:, :1]  # local coordinate in every cell
        g0 = c00 + (c01 - c00) * t
        g1 = c10 + (c11 - c10) * t
        with np.errstate(divide="ignore", invalid="ignore"):
            cross = (g0 * g0 + g1 * g1) / (2.0 * np.abs(g1 - g0))
        return np.where(g0 * g1 >= 0.0, np.abs(g0 + g1) / 2.0, cross) @ vol

    roots = [a / (a - b) for a, b in zip(np.r_[c00, c10], np.r_[c01, c11]) if a * b < 0]
    val, _, _ = adaptive_gl(inner, [np.union1d([0.0, 1.0], roots)], tol=1e-14,
                            max_evals=50_000)
    return val


@pytest.mark.parametrize("kind", KINDS)
def test_closed_form_inside_bisection_bracket(kind):
    # 50 seeded meshes per kind, 300 in all; the bracket comes from the
    # bisection path, fed the mesh as 3-D with a trivial [0, 1] axis
    rng = np.random.default_rng([2024, KINDS.index(kind)])
    for _ in range(50):
        xs, ys, v = random_mesh(rng, kind)
        val, half = integrate_abs_multilinear(v, (xs, ys))
        assert half == 0.0
        v3 = np.repeat(v[:, :, None], 2, axis=2)
        mid, half3 = integrate_abs_multilinear(v3, (xs, ys, UNIT), tol=1e-12, max_rounds=5)
        # the bracket's own ends are rounded: allow an ulp or so
        assert abs(val - mid) <= half3 + 1e-15 * val
        assert val == pytest.approx(outer_gl_oracle(xs, ys, v), rel=1e-13, abs=1e-300)


def stacked_corner_reference(v, axes):
    """``int |g|`` on one or two axes from the stacked (cells, 2**d) corner
    tensor: the corner mean per cell, the closed form on mixed cells."""
    d = v.ndim
    corners = np.stack([v[tuple(slice(b, n - 1 + b) for n, b in zip(v.shape, bits))]
                        for bits in itertools.product((0, 1), repeat=d)], axis=-1)
    corners = corners.reshape(-1, 2**d)
    widths = [np.diff(a) for a in axes]
    vols = (np.multiply.outer(*widths) if d == 2 else widths[0]).reshape(-1)
    cells = np.abs(corners.mean(axis=1)) * vols
    mixed = (corners < 0.0).any(axis=1) & (corners > 0.0).any(axis=1)
    c = corners[mixed]
    unit = _abs_linear_unit(c[:, 0], c[:, 1]) if d == 1 else _abs_bilinear_unit(c)
    cells[mixed] = unit * vols[mixed]
    return float(cells.sum())


MESH_KINDS = ("normal", "wide-range", "zeros", "negative-zeros", "positive", "negative",
              "mostly-mixed")


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("kind", MESH_KINDS)
def test_corner_sums_equal_the_stacked_corner_mean(d, kind):
    rng = np.random.default_rng([d, MESH_KINDS.index(kind)])
    for _ in range(40):
        shape = tuple(int(n) for n in rng.integers(2, 60 if d == 1 else 25, size=d))
        axes = [np.sort(np.concatenate([[0.0, 1.0], rng.random(n - 2)])) for n in shape]
        v = rng.normal(size=shape)
        if kind == "wide-range":
            v *= 10.0 ** rng.integers(-12, 12, size=shape)
        elif kind == "zeros":
            v[rng.random(shape) < 0.4] = 0.0
        elif kind == "negative-zeros":
            v[rng.random(shape) < 0.4] = -0.0
            v[rng.random(shape) < 0.2] = 0.0
        elif kind == "positive":
            v = np.abs(v)
        elif kind == "negative":
            v = -np.abs(v)
            v[rng.random(shape) < 0.2] = -0.0
        elif kind == "mostly-mixed":  # a checkerboard of signs: every cell mixed
            v = np.abs(v) * (-1.0) ** np.indices(shape).sum(axis=0)
        val, half = integrate_abs_multilinear(v, axes)
        assert half == 0.0
        assert val == stacked_corner_reference(v, axes)


def test_three_axes_keep_their_bracket():
    rng = np.random.default_rng(7)
    axes = [np.sort(np.r_[0.0, rng.random(n - 2), 1.0]) for n in (4, 5, 3)]
    v = rng.normal(size=(4, 5, 3))
    assert integrate_abs_multilinear(v, axes, tol=1e-4) == (
        0.4614422500311347, 3.449920060555334e-05)
    assert integrate_abs_multilinear(v, axes, tol=1e-3, max_rounds=3) == (
        0.46215358626097625, 0.0021507942418518555)


def test_four_axes_stop_before_the_split_table_passes_its_cap():
    # splitting 500,001 mixed cells on four axes would fill a table of
    # 500,001 x 16 x 16 doubles (1 GB); they are bracketed unsplit instead
    n = 500_001
    corners = np.tile([1.0, -1.0], (n, 8))
    vols = np.full(n, 1.0 / n)
    tracemalloc.start()
    try:
        value, half = _bisect_abs(corners, vols, 4, 1e-12, 60)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    total = float(vols.sum())  # every corner mean is 0, every mean of |corner| 1
    assert (value, half) == (total / 2, total / 2)
    assert peak < 256 * 2**20


def test_integrate_square():
    xs = np.linspace(0, 1, 5)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    assert integrate_square_multilinear(X - Y, (xs, xs)) == pytest.approx(
        1 / 6, abs=1e-14
    )


class TestAdaptiveGl:
    def test_smooth_polynomial_immediate(self):
        val, err, n = adaptive_gl(
            lambda p: p[:, 0] ** 3 * p[:, 1], [np.array([0.0, 1.0])] * 2, tol=1e-12
        )
        assert val == pytest.approx(1 / 8, abs=1e-14)
        assert err <= 1e-12

    def test_kink_on_mesh_plane_is_cheap(self):
        f = lambda p: np.abs(p[:, 0] - 0.5)
        val, err, n = adaptive_gl(f, [np.array([0.0, 0.5, 1.0])], tol=1e-12)
        assert val == pytest.approx(0.25, abs=1e-13)

    def test_interior_kink_is_refined(self):
        f = lambda p: np.abs(p[:, 0] - 1 / 3)
        val, err, n = adaptive_gl(f, [np.array([0.0, 1.0])], tol=1e-10)
        truth = (1 / 3) ** 2 / 2 + (2 / 3) ** 2 / 2
        assert val == pytest.approx(truth, abs=5e-9)

    def test_deterministic(self):
        f = lambda p: np.abs(p[:, 0] - 0.4) * p[:, 1]
        a = adaptive_gl(f, [np.array([0.0, 1.0])] * 2, tol=1e-9)
        b = adaptive_gl(f, [np.array([0.0, 1.0])] * 2, tol=1e-9)
        assert a == b


def gl_cell_oracle(f, cell):
    """The Gauss-Legendre rule on one cell from its own point mesh."""
    x, w = leg01(8)
    pts = [lo + (hi - lo) * x for lo, hi in cell]
    wts = [(hi - lo) * w for lo, hi in cell]
    grid = np.stack([g.ravel() for g in np.meshgrid(*pts, indexing="ij")], axis=-1)
    weights = wts[0]
    for wj in wts[1:]:
        weights = np.multiply.outer(weights, wj)
    return float(np.dot(f(grid), weights.ravel()))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_gl_rules_equal_the_per_cell_rules_in_one_call(d):
    rng = np.random.default_rng(d)
    a = rng.normal(size=d)
    calls = []

    def f(p):
        calls.append(len(p))
        return np.abs(np.sin(7.0 * p @ a) + np.exp(-p.sum(axis=1)))

    for _ in range(10):
        lo = rng.random(d) * 0.5
        cell = tuple(zip(lo, lo + rng.random(d) * 0.5))
        calls.clear()
        got = _gl_rules(f, cell)
        assert calls == [8**d * (1 + 2**d)]
        want = [gl_cell_oracle(f, c) for c in (cell, *_split_cell(cell))]
        assert [v.hex() for v in got] == [v.hex() for v in want]



@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("kind", KINDS)
def test_a_stack_of_meshes_integrates_each_as_alone(d, kind):
    # one call over a leading slab axis gives each slab's value bit for bit
    rng = np.random.default_rng([7, d, KINDS.index(kind)])
    for _ in range(20):
        xs, ys, v = random_mesh(rng, kind)
        stack = np.stack([v, -0.5 * v, 0.0 * v, v + 0.3 * rng.normal(size=v.shape), np.round(v)])
        axes = (xs, ys) if d == 2 else (xs,)
        if d == 1:
            stack = stack[:, :, 1]
        alone = [integrate_abs_multilinear(s, axes) for s in stack]
        vals, half = integrate_abs_multilinear(stack, axes)
        assert half == 0.0 and {h for _, h in alone} == {0.0}
        assert [x.hex() for x in vals] == [a.hex() for a, _ in alone]
        assert [x.hex() for x in integrate_square_multilinear(stack, axes)] == [
            integrate_square_multilinear(s, axes).hex() for s in stack]
