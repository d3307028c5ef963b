"""Source-level guards: operands are told apart by type, not by probing for
attributes, no module imports a name it never uses, every function the
package defines is used by the package or the benchmark, and cells are
located, kernel nodes built, cell masses cumulated, per-axis products taken
and worker threads started in one place each, and point meshes built only
where a cdf takes points."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "copulakit"
MODULES = sorted(PACKAGE.glob("*.py"))
BENCHMARKS = sorted((ROOT / "benchmarks").glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _exported(tree) -> set:
    """Names listed in a module-level ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


def _imported(tree):
    """(bound name, line) for every module-level import."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _defined_functions(tree):
    """(name, line) of every function and method, dunder methods aside."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
            node.name.startswith("__") and node.name.endswith("__")
        ):
            yield node.name, node.lineno


def _references(tree) -> set:
    """Names a module reads, attributes it reads, and every dotted part of
    its string constants (``__all__`` entries, ``"Class.method"`` specs)."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            refs.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            refs.update(node.value.split("."))
    return refs


def unreferenced_functions(modules, readers) -> list:
    """Functions defined in ``modules`` that no file of ``readers`` uses."""
    refs = set().union(*(_references(_tree(p)) for p in readers))
    return [f"{p.name}:{line} {name}" for p in modules
            for name, line in _defined_functions(_tree(p)) if name not in refs]


def stray_calls(path, name, allowed) -> list:
    """Calls of ``name`` in a module outside the ``allowed`` scopes; a scope
    is a file name, or ``file:function`` for one top-level function."""
    stray = []
    for top in _tree(path).body:
        scope = path.name
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            scope = f"{path.name}:{top.name}"
        if path.name in allowed or scope in allowed:
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                func = node.func
                called = func.attr if isinstance(func, ast.Attribute) else (
                    func.id if isinstance(func, ast.Name) else None)
                if called == name:
                    stray.append(f"{scope}:{node.lineno}")
    return stray


# cell lookup goes through grid.cell_index (the empirical copula's step
# counts locate ranks with their own searchsorted, in the one slab scan),
# and kernel node tensors through
# GridCopula.kernel_nodes, except for the conditional copulas of the slab
# family, which keep their own normalisation; cum_nodes is called only by
# GridCopula (its cum and its one cached kernel stack per conditioning
# set) and by those conditional copulas, so no module-level helper
# cumulates a kernel fibre beside the cached stack; the metrics read kernel nodes
# only on the exact grid-pair path and otherwise call each operand's kernel;
# the uniform-distance scan, with its lattice and certificate, runs only in
# metrics (d_inf); per-axis products run in grid._contract, which gathers the
# axes an interpolation matrix would only copy (the exact squared integral
# keeps its own sum of weighted nodes), and so does the d-linear cdf of every
# operand, a rank-form sample's as the checkerboard on its rank grid (the
# bisection of the multilinear quadrature keeps its one einsum, which splits
# cells, not lattices); the scan is the one parallel region,
# its parts one per CPU of the process's affinity mask, and the one place
# that sets the thread count of a native BLAS; an operand is discretized
# only where the caller asks for it (make and pvc --res, the verification
# cases) or where the grid is the closed form itself (a multilinear closed
# form on its one cell per axis), so no metric or report discretizes
# behind the caller's back; a point mesh is built only where a lattice
# meets a cdf that takes points (the generic row blocks of a closed form,
# a slab mixture's surface tables, the free rows of the kernel scan and a
# quadrature cell's rule index), never for a product form, whose slabs are
# outer products of its axes; cell masses are cumulated in grid.cum_nodes
# alone, in place in its zero-padded buffer, so no pad copies a cumulative
# tensor (the step counts of a sample cumulate their integer histograms in
# the one slab scan); a point's cdf blends its 2^d gathered cell corners, so
# no slice of a node tensor is gathered per point; preimages of a surface's
# nodes are taken in conditioning.preimage_union alone, so every slab mesh of
# an operator image comes from the same merge as its global mesh; an operator
# image's cdf is summed from its slab tables in metrics._last_axis_slabs,
# which d_inf_many alone reads, so no second route to it beside d_inf's appears;
# an operator image's mass builder is called by GridCopula alone, as its
# self._build on the first read of masses, after the one cell-limit check
ONE_WAY = {
    "tensordot": {"grid.py:_contract", "quadrature.py:integrate_square_multilinear"},
    "searchsorted": {"grid.py", "empirical.py:step_cdf_slabs"},
    "cum_nodes": {"grid.py:GridCopula", "conditioning.py:_surface_from_joint"},
    "kernel_nodes": {"grid.py", "conditioning.py", "metrics.py:_kernel_pair_grid"},
    "slab_sup_distances": {"metrics.py"},
    "ThreadPoolExecutor": {"metrics.py:slab_sup_distances"},
    "sched_getaffinity": {"metrics.py:slab_sup_distances"},
    "CDLL": {"metrics.py:_openblas_threads"},
    "discretize": {"families.py", "cli.py:_discretized", "verify.py", "metrics.py:_grid_pair"},
    "einsum": {"quadrature.py:_bisect_abs"},
    "meshgrid": {"analytic.py:AnalyticCopula", "families.py:slab_mixture",
                 "metrics.py:_free_points", "quadrature.py:_gl_index"},
    "cumsum": {"grid.py:cum_nodes", "empirical.py:step_cdf_slabs"},
    "pad": set(),
    "take_along_axis": set(),
    "preimages": {"conditioning.py:preimage_union"},
    "_last_axis_slabs": {"metrics.py:d_inf_many"},
    "build": set(),
}


def test_package_has_modules():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_capability_probes(path):
    probes = [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("hasattr", "getattr")
    ]
    assert probes == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    tree = _tree(path)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _exported(tree)
    unused = [f"{path.name}:{line} {name}" for name, line in _imported(tree)
              if name not in used]
    assert unused == []


def test_guards_catch_offenders(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import os\nfrom json import loads\n\n"
                   "def f(x):\n    return hasattr(x, 'a') or getattr(x, 'b', None)\n")
    with pytest.raises(AssertionError):
        test_no_capability_probes(bad)
    with pytest.raises(AssertionError):
        test_no_unused_imports(bad)


@pytest.mark.parametrize("name", sorted(ONE_WAY))
def test_one_cell_locator_and_one_kernel_builder(name):
    assert [c for p in MODULES for c in stray_calls(p, name, ONE_WAY[name])] == []


def test_one_way_guard_catches_offenders(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import numpy as np\n\n\ndef f(b, x):\n"
                   "    return np.searchsorted(b, x) + cum_nodes(x)\n\n\n"
                   "def g(m):\n    return cum_nodes(m)\n\n\n"
                   "K = cum_nodes([1.0])\n")
    assert stray_calls(bad, "searchsorted", ONE_WAY["searchsorted"]) == ["bad.py:f:5"]
    assert stray_calls(bad, "cum_nodes", {"bad.py:g"}) == ["bad.py:f:5", "bad.py:12"]
    assert stray_calls(bad, "cum_nodes", {"bad.py"}) == []
    # a second rank-to-node counter next to the scan
    emp = tmp_path / "empirical.py"
    emp.write_text("import numpy as np\n\n\ndef step_cdf_slabs(a, x):\n"
                   "    return np.searchsorted(a, x)\n\n\n"
                   "class EmpiricalCopula:\n    def counts(self, a, x):\n"
                   "        return np.searchsorted(a, x)\n")
    assert stray_calls(emp, "searchsorted", ONE_WAY["searchsorted"]) == [
        "empirical.py:EmpiricalCopula:10"]
    # a second sup scan, with its own lattice and gap, beside d_inf
    verify = tmp_path / "verify.py"
    verify.write_text("from .metrics import slab_sup_distances\n\n\n"
                      "def empirical_sup_scan(emp, targets, m):\n"
                      "    axes = [[k / m for k in range(m + 1)]] * emp.dim\n"
                      "    return slab_sup_distances(emp, targets, axes)\n")
    assert stray_calls(verify, "slab_sup_distances", ONE_WAY["slab_sup_distances"]) == [
        "verify.py:empirical_sup_scan:6"]
    # a per-axis matrix product beside _contract, which would miss the gather
    grid = tmp_path / "grid.py"
    grid.write_text("import numpy as np\n\n\ndef _contract(nodes, maps):\n"
                    "    return np.tensordot(maps[0], nodes, axes=(1, 0))\n\n\n"
                    "class GridCopula:\n    def refine_to(self, T):\n"
                    "        return np.tensordot(T, self.masses, axes=(1, 0))\n")
    assert stray_calls(grid, "tensordot", ONE_WAY["tensordot"]) == ["grid.py:GridCopula:10"]
    # a second d-linear evaluator, by clip weights, beside the rank-grid checkerboard
    emp = tmp_path / "empirical.py"
    emp.write_text("import numpy as np\n\n\nclass EmpiricalCopula:\n"
                   "    def cdf_on_lattice(self, axes):\n"
                   "        return np.einsum('pi,pj->ij', *self.weights(axes))\n")
    assert stray_calls(emp, "einsum", ONE_WAY["einsum"]) == ["empirical.py:EmpiricalCopula:6"]
    # a second pool, sized by its own CPU count, beside the split scan
    met = tmp_path / "metrics.py"
    met.write_text("import os\nfrom concurrent.futures import ThreadPoolExecutor\n\n\n"
                   "def slab_sup_distances(op, others, axes):\n"
                   "    with ThreadPoolExecutor(len(os.sched_getaffinity(0))) as pool:\n"
                   "        return pool.map(op, others)\n\n\n"
                   "def d1(c1, c2):\n"
                   "    with ThreadPoolExecutor(len(os.sched_getaffinity(0))) as pool:\n"
                   "        return pool.map(c1, c2)\n\n\n"
                   "def _openblas_threads():\n"
                   "    return ctypes.CDLL('libopenblas.so')\n\n\n"
                   "def d2(c1, c2):\n"
                   "    ctypes.CDLL('libopenblas.so').openblas_set_num_threads(1)\n")
    for name in ("ThreadPoolExecutor", "sched_getaffinity"):
        assert stray_calls(met, name, ONE_WAY[name]) == ["metrics.py:d1:11"]
    assert stray_calls(met, "CDLL", ONE_WAY["CDLL"]) == ["metrics.py:d2:20"]
    # a report that computes its metrics on a hidden discretization
    pvc = tmp_path / "pvc.py"
    pvc.write_text("from .families import discretize\nfrom .metrics import d1\n\n\n"
                   "def pvc_distance_report(C, result):\n"
                   "    res = [64, 64, 4]\n"
                   "    return d1(discretize(C, res), discretize(result.psi, res))\n")
    assert stray_calls(pvc, "discretize", ONE_WAY["discretize"]) == [
        "pvc.py:pvc_distance_report:7", "pvc.py:pvc_distance_report:7"]
    # a product form that evaluates its lattice on a mesh of points again
    fam = tmp_path / "families.py"
    fam.write_text("import numpy as np\n\n\ndef efgm(spec):\n    def slabs(axes):\n"
                   "        for x in axes[0]:\n"
                   "            yield cdf(np.stack(np.meshgrid(*axes[1:], indexing='ij')))\n"
                   "    return slabs\n\n\n"
                   "def slab_mixture(family):\n    return np.meshgrid(family, family)\n")
    assert stray_calls(fam, "meshgrid", ONE_WAY["meshgrid"]) == ["families.py:efgm:7"]
    # a kernel fiber cumulated beside cum_nodes, and a padded cumulative tensor
    grid = tmp_path / "grid.py"
    grid.write_text("import numpy as np\n\n\ndef cum_nodes(m):\n"
                    "    return np.pad(np.cumsum(m, axis=0), [(1, 0)])\n\n\n"
                    "class GridCopula:\n    def kernel_nodes(self, fiber):\n"
                    "        return np.cumsum(fiber, axis=0)\n")
    assert stray_calls(grid, "cumsum", ONE_WAY["cumsum"]) == ["grid.py:GridCopula:10"]
    assert stray_calls(grid, "pad", ONE_WAY["pad"]) == ["grid.py:cum_nodes:5"]
    # a module-level helper that cumulates a kernel fibre beside the cached stack
    grid = tmp_path / "grid.py"
    grid.write_text("def cum_nodes(m, lead=0):\n    return m\n\n\n"
                    "def slab_stack(g, lo, hi):\n    return cum_nodes(g.masses[..., lo:hi], 1)\n\n\n"
                    "class GridCopula:\n    def kernel_nodes(self, cond_axes, cell):\n"
                    "        return cum_nodes(self.masses, len(cond_axes))[cell]\n")
    assert stray_calls(grid, "cum_nodes", ONE_WAY["cum_nodes"]) == ["grid.py:slab_stack:6"]
    # a per-point slice gather beside the corner blend
    grid = tmp_path / "grid.py"
    grid.write_text("import numpy as np\n\n\ndef multilinear_interp(nodes, idx):\n"
                    "    return np.take_along_axis(nodes[idx], idx[:, None], axis=1)\n")
    assert stray_calls(grid, "take_along_axis", ONE_WAY["take_along_axis"]) == [
        "grid.py:multilinear_interp:5"]
    # a slab mesh taken from the slab's own preimages, beside the merged union
    pvc = tmp_path / "pvc.py"
    pvc.write_text("from .conditioning import preimage_union\n\n\n"
                   "def _reassemble(cp, margins1):\n"
                   "    xs, _ = preimage_union(margins1, cp.xs)\n"
                   "    return xs, [f1.preimages(cp.xs) for f1 in margins1]\n")
    assert stray_calls(pvc, "preimages", ONE_WAY["preimages"]) == ["pvc.py:_reassemble:6"]
    # an image's cdf summed from its slab tables for a second metric, beside d_inf's
    met = tmp_path / "metrics.py"
    met.write_text("def _last_axis_slabs(g, axes):\n    yield g\n\n\n"
                   "def d_inf_many(op, targets, axes):\n"
                   "    return [next(_last_axis_slabs(t, axes)) for t in targets]\n\n\n"
                   "def wcc_profile(c1, c2, v):\n    return next(_last_axis_slabs(c1, [v]))\n")
    assert stray_calls(met, "_last_axis_slabs", ONE_WAY["_last_axis_slabs"]) == [
        "metrics.py:wcc_profile:10"]
    # a ladder block built at once, and a builder wrapped beside GridCopula's read
    pvc = tmp_path / "pvc.py"
    pvc.write_text("def _build_block(cp, weights, f1, f2):\n"
                   "    xs, ys, _, build = _reassemble(cp, weights, f1, f2)\n"
                   "    return GridCopula([xs, ys], build())\n\n\n"
                   "def pvc3(C):\n    xs, ys, _, build = _reassemble(C)\n"
                   "    return GridCopula([xs, ys], lambda: moveaxis(build(), 1, 2))\n\n\n"
                   "class GridCopula:\n    def masses(self):\n        return self._build()\n")
    assert stray_calls(pvc, "build", ONE_WAY["build"]) == [
        "pvc.py:_build_block:3", "pvc.py:pvc3:8"]


def test_every_function_is_used_outside_tests():
    assert unreferenced_functions(MODULES, MODULES + BENCHMARKS) == []


def test_reference_guard_catches_offenders(tmp_path):
    lib = tmp_path / "lib.py"
    lib.write_text("def used():\n    return 1\n\n\ndef unused():\n    return used()\n\n\n"
                   "class K:\n    def __init__(self):\n        pass\n\n"
                   "    def listed(self):\n        pass\n")
    caller = tmp_path / "caller.py"
    caller.write_text('TRACED = ["K.listed"]\n')
    assert unreferenced_functions([lib], [lib, caller]) == ["lib.py:5 unused"]


def test_empirical_does_not_import_conditioning():
    # the conditioning layer builds the empirical copula's conditional
    # family, so an import the other way would be a cycle
    tree = _tree(PACKAGE / "empirical.py")
    modules = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "conditioning" not in modules
