"""Per-layer spans and work counts, recorded from outside the program.

While a :class:`Tracer` is active, each function in :data:`TRACED` is
replaced by a wrapper in every ``copulakit`` module and class that holds
the original function object: ``from .x import f`` binds ``f`` again in
each importing module, so patching the defining module alone would miss
those calls.  Each wrapper records a span ``(name, start, end, parent)``
in memory and adds the call's work counts; leaving the context puts every
original back.

A span's self time is its duration minus its child spans' durations
(calls nest and run on one thread, so children never overlap).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

ROOT_SPAN = "op"

# span name -> (defining module, attribute path)
TRACED = {
    "grid.refine_to": ("copulakit.grid", "GridCopula.refine_to"),
    "grid.common_refinement": ("copulakit.grid", "common_refinement"),
    "grid.cdf_on_lattice": ("copulakit.grid", "GridCopula.cdf_on_lattice"),
    "conditioning.slab_family": ("copulakit.conditioning", "slab_family"),
    "conditioning.average_surfaces": ("copulakit.conditioning", "average_surfaces"),
    "conditioning.is_simplified": ("copulakit.conditioning", "is_simplified"),
    "conditioning.j_functional": ("copulakit.conditioning", "j_functional"),
    "conditioning.surface_l1_distance": ("copulakit.conditioning", "surface_l1_distance"),
    "quadrature.integrate_abs_multilinear": ("copulakit.quadrature", "integrate_abs_multilinear"),
    "quadrature.adaptive_gl": ("copulakit.quadrature", "adaptive_gl"),
    "metrics.d_inf": ("copulakit.metrics", "d_inf"),
    "metrics.d1": ("copulakit.metrics", "d1"),
    "metrics.d2": ("copulakit.metrics", "d2"),
    "metrics.d_inf_kernel": ("copulakit.metrics", "d_inf_kernel"),
    "metrics.tv": ("copulakit.metrics", "tv"),
    "metrics.kl": ("copulakit.metrics", "kl"),
    "metrics.metric_chain_check": ("copulakit.metrics", "metric_chain_check"),
    "metrics.wcc_profile": ("copulakit.metrics", "wcc_profile"),
    "pvc.pvc3": ("copulakit.pvc", "pvc3"),
    "pvc.pvc3_analytic": ("copulakit.pvc", "pvc3_analytic"),
    "empirical.sample": ("copulakit.empirical", "sample"),
    "empirical.empirical_copula": ("copulakit.empirical", "empirical_copula"),
    "empirical.cdf_on_lattice": ("copulakit.empirical", "EmpiricalCopula.cdf_on_lattice"),
    "empirical.slab_family_fast": ("copulakit.empirical", "EmpiricalCopula.slab_family_fast"),
    "verify.empirical_sup_scan": ("copulakit.verify", "empirical_sup_scan"),
    "analytic.cdf_on_lattice": ("copulakit.analytic", "AnalyticCopula.cdf_on_lattice"),
    "analytic.kernel": ("copulakit.analytic", "AnalyticCopula.kernel"),
    "families.discretize": ("copulakit.families", "discretize"),
}


def _lattice_size(axes) -> int:
    return int(np.prod([len(a) for a in axes]))


def _count_report(name):
    def count(c, a, r):
        c[f"{name}.evals"] += r.n_evaluations
        if name == "metrics.d_inf":
            c["metrics.d_inf.exact_calls"] += r.exactness == "exact"
    return count


def _count_psi(c, a, r):
    masses = getattr(r.psi, "masses", None)
    if masses is not None:
        c["pvc.pvc3.psi_cells"] += masses.size
        c["pvc.pvc3.psi_nonzero_cells"] += int(np.count_nonzero(masses))


def _count_abs_multilinear(c, a, r):
    c["quadrature.integrate_abs_multilinear.mesh_nodes"] += a["values"].size
    key = "quadrature.integrate_abs_multilinear.halfwidth_max"
    c[key] = max(c[key], float(r[1]))


# span name -> count(counts, bound arguments, result)
COUNTERS = {
    "grid.refine_to": lambda c, a, r: c.update({"grid.refine_to.cells_out": r.masses.size}),
    "grid.cdf_on_lattice": lambda c, a, r: c.update(
        {"grid.cdf_on_lattice.points": _lattice_size(a["axes"])}),
    "quadrature.integrate_abs_multilinear": _count_abs_multilinear,
    "quadrature.adaptive_gl": lambda c, a, r: c.update({"quadrature.adaptive_gl.evals": r[2]}),
    **{name: _count_report(name) for name in (
        "metrics.d_inf", "metrics.d1", "metrics.d2", "metrics.d_inf_kernel",
        "metrics.tv", "metrics.kl")},
    "pvc.pvc3": _count_psi,
    "verify.empirical_sup_scan": lambda c, a, r: c.update(
        {"verify.empirical_sup_scan.lattice_points": (a["m"] + 1) ** 3}),
    "analytic.cdf_on_lattice": lambda c, a, r: c.update(
        {"analytic.cdf_on_lattice.points": _lattice_size(a["axes"])}),
    "analytic.kernel": lambda c, a, r: c.update({"analytic.kernel.points": len(r)}),
}

# reported work counts, in the order they are listed
COUNT_METRICS = (
    ("grid.refine_to.cells_out", "count"),
    ("grid.cdf_on_lattice.points", "count"),
    ("quadrature.integrate_abs_multilinear.mesh_nodes", "count"),
    ("quadrature.integrate_abs_multilinear.halfwidth_max", "abs"),
    ("quadrature.adaptive_gl.evals", "count"),
    ("metrics.d_inf.evals", "count"),
    ("metrics.d1.evals", "count"),
    ("metrics.d2.evals", "count"),
    ("metrics.d_inf_kernel.evals", "count"),
    ("metrics.tv.evals", "count"),
    ("metrics.kl.evals", "count"),
    ("metrics.d_inf.exact_frac", "ratio"),
    ("pvc.pvc3.psi_cells", "count"),
    ("pvc.pvc3.psi_nonzero_frac", "ratio"),
    ("verify.empirical_sup_scan.lattice_points", "count"),
    ("analytic.cdf_on_lattice.points", "count"),
    ("analytic.kernel.points", "count"),
)


def _resolve(module: str, path: str):
    obj = importlib.import_module(module)
    for part in path.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj


def _holders():
    """Every copulakit module and every class defined in one."""
    seen = set()
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "copulakit" or name.startswith("copulakit.")):
            continue
        for holder in [mod] + [v for v in vars(mod).values() if inspect.isclass(v)
                               and v.__module__.startswith("copulakit")]:
            if id(holder) not in seen:
                seen.add(id(holder))
                yield holder


class Tracer:
    """Context manager that installs the span wrappers and removes them."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1)
        self.counts = Counter()
        self.missing = []  # traced names with no function at this commit
        self._stack = []
        self._patched = []

    def __enter__(self):
        try:
            for name, (module, path) in TRACED.items():
                original = _resolve(module, path)
                if original is None:
                    self.missing.append(name)
                    continue
                wrapper = self._wrap(name, original)
                for holder in _holders():
                    for attr, val in list(vars(holder).items()):
                        if val is original:
                            setattr(holder, attr, wrapper)
                            self._patched.append((holder, attr, original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._patched:
            holder, attr, original = self._patched.pop()
            setattr(holder, attr, original)

    def _wrap(self, name, fn):
        count = COUNTERS.get(name)
        signature = inspect.signature(fn) if count is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                count(self.counts, bound.arguments, result)
            return result

        wrapper.traced_span = name
        return wrapper

    @contextmanager
    def span(self, name: str = ROOT_SPAN):
        """Record a span around the block; spans opened inside it are its children."""
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent)

    def self_times(self):
        """(calls, self seconds) per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, self_s = Counter(), defaultdict(float)
        for (name, start, end, _), inner in zip(self.spans, child):
            calls[name] += 1
            self_s[name] += (end - start) - inner
        return calls, self_s

    def work_counts(self) -> dict:
        c = self.counts
        out = {name: float(c.get(name, 0)) for name, _ in COUNT_METRICS}
        d_inf_calls = sum(1 for s in self.spans if s[0] == "metrics.d_inf")
        if d_inf_calls:
            out["metrics.d_inf.exact_frac"] = c["metrics.d_inf.exact_calls"] / d_inf_calls
        if c["pvc.pvc3.psi_cells"]:
            out["pvc.pvc3.psi_nonzero_frac"] = c["pvc.pvc3.psi_nonzero_cells"] / c["pvc.pvc3.psi_cells"]
        return out


def is_clean() -> bool:
    """True when no copulakit module or class holds a tracing wrapper."""
    return not any(hasattr(val, "traced_span")
                   for holder in _holders() for val in vars(holder).values())
