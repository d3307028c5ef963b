"""Command-line front end.

Subcommands cover family construction, metric evaluation, kernels and
conditional objects, the partial vine operator, sampling, and the named
verification cases and experiments.  Reports are JSON (single results) or
CSV (row sequences).  Every JSON report conforms to
``schemas/report.schema.json``, which holds one closed definition per
payload, so each report matches exactly one branch.  Grid files and
``{family, params}`` descriptors are operand files that ``parse_operand``
reads back; they are not reports and fall outside that schema.  Exit codes:
0 success, 1 verification failure, 2 usage error (including a malformed
operand), 3 numerical error.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import io
import json
import sys
from functools import partial
from pathlib import Path

import numpy as np

from . import verify as verify_mod
from .analytic import comonotone, countermonotone, independence_analytic
from .conditioning import (
    BilinearSurface,
    is_simplified,
    j_functional,
    kernel_cdf,
    partial_copula,
    slab_family,
)
from .empirical import EmpiricalCopula, empirical_copula, load_sample, sample, save_sample
from .errors import BadOperand, ClosedFormUnavailable, CopulaError, UnknownCase
from .families import (
    SHUFFLE_SPECS,
    bstar,
    bstarstar,
    cube_copula,
    discretize,
    efgm_quadratic,
    efgm_sequence_member,
    example54_copula,
    independence,
    rcube_copula,
    shuffle_d,
)
from .grid import GridCopula, product_extend
from .metrics import d1, d2, d_inf, d_inf_kernel, kl, tv
from .pvc import pvc3, pvc_dvine, pvc_distance_report

_METRICS = {
    "dinf": d_inf,
    "d1": d1,
    "d2": d2,
    "dinfk": d_inf_kernel,
    "tv": tv,
    "kl": kl,
}


def _product_extend(base="cube", dim=None):
    grid = build_family(str(base), {})
    if not isinstance(grid, GridCopula):
        raise BadOperand(f"product-extend needs a grid base, got {base!r}")
    return product_extend(grid, grid.dim + 1 if dim is None else int(dim))


# name -> (builder, the parameters it reads); the values are text from an
# operand spec, or text or numbers from a descriptor file
FAMILIES = {
    "pi": (lambda dim=3, res=None: independence(
        int(dim), None if res is None else _resolutions(res, int(dim))), ("dim", "res")),
    "pi-analytic": (lambda dim=3: independence_analytic(int(dim)), ("dim",)),
    "m": (lambda dim=3: comonotone(int(dim)), ("dim",)),
    "w": (countermonotone, ()),
    "cube": (cube_copula, ()),
    "rcube": (rcube_copula, ()),
    "bstar": (bstar, ()),
    "bstarstar": (bstarstar, ()),
    "efgm": (lambda dim=3: efgm_quadratic(int(dim)), ("dim",)),
    "efgm-seq": (lambda m, k, dim=3: efgm_sequence_member(int(m), int(k), int(dim)),
                 ("m", "k", "dim")),
    **{f"shuffle-d{i}": (partial(shuffle_d, i), ()) for i in SHUFFLE_SPECS},
    "example54": (example54_copula, ()),
    "product-extend": (_product_extend, ("base", "dim")),
}


def build_family(name: str, params: dict):
    """Instantiate a family of :data:`FAMILIES`; a parameter it does not
    read is a usage error."""
    if name not in FAMILIES:
        raise BadOperand(f"unknown family {name!r}; known: {', '.join(FAMILIES)}")
    builder, reads = FAMILIES[name]
    unread = sorted(set(params) - set(reads))
    if unread:
        raise BadOperand(f"family {name!r} does not read {', '.join(unread)}; "
                         f"it reads: {', '.join(reads) or 'nothing'}")
    try:
        return builder(**params)
    except CopulaError:
        raise
    except (TypeError, ValueError) as exc:
        raise BadOperand(f"malformed parameters for family {name!r}: {exc}") from exc


def parse_operand(spec: str):
    """Operand grammar: a file path (.json grid/descriptor, .csv sample) or
    ``family[:key=value,...]``.

    Raises
    ------
    BadOperand
        If the file or the parameters cannot be read as an operand.
    """
    try:
        return _read_operand(spec)
    except CopulaError:
        raise
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise BadOperand(f"malformed operand {spec!r}: {exc!r}") from exc


def _read_operand(spec: str):
    path = Path(spec)
    if path.exists():
        if spec.endswith(".csv"):
            return empirical_copula(_read_sample(path))
        payload = json.loads(path.read_text())
        if "family" in payload:
            params = payload.get("params", {})
            if payload["family"] == "empirical":
                return EmpiricalCopula(params["ranks"])
            return build_family(payload["family"], params)
        return GridCopula.from_json(path.read_text())
    if path.suffix in (".json", ".csv") or len(path.parts) > 1:
        raise BadOperand(f"no operand file {spec!r}")
    return build_family(*_family_spec(spec))


def _family_spec(spec: str):
    """Name and parameters of a ``family[:key=value,...]`` spec."""
    name, _, argstr = spec.partition(":")
    pairs = (kv.partition("=") for kv in argstr.split(",") if kv)
    return name, {k.strip(): v.strip() for k, _, v in pairs}


def _emit(payload, out, fmt: str = "json"):
    if payload == []:
        raise BadOperand("the arguments select no rows to report")
    if fmt == "csv" and isinstance(payload, list):
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(payload[0].keys()))
        writer.writeheader()
        writer.writerows(payload)
        text = buf.getvalue()
    else:
        text = json.dumps(payload, indent=2, default=_json_default) + "\n"
    _write(text, out)


def _write(text: str, out):
    """Write ``text`` to the file ``out``, or to standard output without one."""
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not serializable: {type(obj)}")


def _read_sample(path) -> np.ndarray:
    """Points of a CSV sample file; an unreadable file is a usage error."""
    try:
        return load_sample(path)
    except (OSError, ValueError, StopIteration) as exc:
        raise BadOperand(f"cannot read sample {str(path)!r}: {exc!r}") from exc


def _numbers(text: str, convert, sep: str = ","):
    """Entries of a separated number list; a malformed one is a usage error."""
    try:
        return [convert(x) for x in text.split(sep) if x.strip()]
    except ValueError as exc:
        raise BadOperand(f"malformed number list {text!r}: {exc}") from exc


def _index(value: int, n: int, flag: str) -> int:
    """An index argument, which must lie in ``0 .. n - 1``."""
    if not 0 <= value < n:
        raise BadOperand(f"{flag} {value} out of range 0..{n - 1}")
    return value


def _resolutions(text, dim: int):
    """Cell counts of a resolution such as ``8`` (every axis) or ``8x8x4``."""
    res = _numbers(str(text), int, "x")
    res = res * dim if len(res) == 1 else res
    if len(res) != dim or min(res) < 1:
        raise BadOperand(f"resolution {text!r} needs at least one cell per axis of {dim}")
    return res


def _discretized(cop, text: str):
    """``cop`` on the uniform grid of a ``--res`` value; a grid already on it is kept."""
    res = _resolutions(text, cop.dim)
    if isinstance(cop, GridCopula) and cop.is_uniform and cop.resolutions == res:
        return cop
    return discretize(cop, res)


def _surface_payload(surface):
    if not isinstance(surface, BilinearSurface):
        raise ClosedFormUnavailable("a closed-form surface has no node values to report")
    return {"xs": surface.xs, "ys": surface.ys, "values": surface.values}


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="copulakit",
        description="checkerboard copulas, kernels, metrics and the partial vine operator",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None)
    sub = ap.add_subparsers(dest="command", required=True, parser_class=lambda **kw: argparse.ArgumentParser(parents=[common], **kw))

    p = sub.add_parser("make", help="construct a named family")
    p.add_argument("family", help="family[:key=value,...], keys as each family reads them: "
                   + " | ".join(":".join([name, ",".join(reads)]) if reads else name
                                for name, (_, reads) in FAMILIES.items()))
    p.add_argument("--res", default=None, help="discretize to this resolution, e.g. 8 or 8x8x4")

    p = sub.add_parser("metric", help="evaluate a distance")
    p.add_argument("--name", required=True, choices=sorted(_METRICS))
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--axis", type=int, default=None, help="d1, d2 and dinfk only")
    p.add_argument("--eps", type=float, default=None,
                   help="requested error (default 1e-8); not for tv and kl")

    p = sub.add_parser("kernel", help="Markov kernel value K(t, [0,u])")
    p.add_argument("--in", dest="operand", required=True)
    p.add_argument("--t", required=True)
    p.add_argument("--u", required=True)
    p.add_argument("--cond-axes", default=None)

    p = sub.add_parser("conditional", help="conditional copula surface of a slab")
    p.add_argument("--in", dest="operand", required=True)
    p.add_argument("--slab", type=int, required=True)

    p = sub.add_parser("partial", help="partial copula surface")
    p.add_argument("--in", dest="operand", required=True)

    p = sub.add_parser("simplified", help="simplifiedness gap")
    p.add_argument("--in", dest="operand", required=True)
    p.add_argument("--tol", type=float, default=1e-9)

    p = sub.add_parser("jfun", help="integrated conditional-field distance")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)

    p = sub.add_parser("pvc", help="partial vine operator")
    p.add_argument("--in", dest="operand", required=True)
    p.add_argument("--dvine", action="store_true")
    p.add_argument("--order", default=None, help="axis permutation for --dvine, e.g. 0,2,1")
    p.add_argument("--res", default=None, help="discretize the image, e.g. 8 or 8x8x4")
    p.add_argument("--report", default=None)

    p = sub.add_parser("sample", help="draw a sample from a grid copula")
    p.add_argument("--in", dest="operand", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("empirical", help="empirical copula of a CSV sample")
    p.add_argument("--in", dest="operand", required=True)
    p.add_argument("--jitter", action="store_true",
                   help="break ties deterministically instead of failing")

    p = sub.add_parser("verify", help="run verification cases")
    p.add_argument("case", nargs="?", default="all")

    p = sub.add_parser("discontinuity", help="operator discontinuity experiment")
    p.add_argument("--n-list", default="100,1000,10000")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("nonopt", help="operator non-optimality experiment")
    p.add_argument("--n", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("nowheredense", help="conditional-field lower-bound diagnostic")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("convergence-lab", help="convergence experiments (CSV rows)")
    p.add_argument("--mode", required=True, choices=("efgm-seq", "d1-continuity"))
    p.add_argument("--max-m", type=int, default=6)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _dispatch(args)
    except BadOperand as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CopulaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def _dispatch(args) -> int:
    cmd = args.command
    if cmd == "make":
        name, params = _family_spec(args.family)
        cop = build_family(name, params)
        if args.res is not None:
            cop = _discretized(cop, args.res)
        if isinstance(cop, GridCopula):
            _write(cop.to_json() + "\n", args.out)
        else:
            _emit({"family": name, "params": params}, args.out)
        return 0

    if cmd == "metric":
        fn = _METRICS[args.name]
        kwargs = {k: v for k, v in (("axis", args.axis), ("eps", args.eps)) if v is not None}
        unread = [k for k in kwargs if k not in inspect.signature(fn).parameters]
        if unread:
            raise BadOperand(f"metric {args.name} does not read --{', --'.join(unread)}")
        a = parse_operand(args.a)
        b = parse_operand(args.b)
        if a.dim != b.dim:
            raise BadOperand(f"--a and --b differ in dimension ({a.dim} and {b.dim})")
        if "axis" in kwargs:
            _index(args.axis, a.dim, "--axis")
        rep = fn(a, b, **kwargs)
        _emit(rep.to_dict(), args.out)
        return 0

    if cmd == "kernel":
        C = parse_operand(args.operand)
        cond = (tuple(_index(a, C.dim, "--cond-axes") for a in _numbers(args.cond_axes, int))
                if args.cond_axes else None)
        t, u = _numbers(args.t, float), _numbers(args.u, float)
        if not all(0.0 <= x <= 1.0 for x in t + u):
            raise BadOperand(f"--t {args.t!r} and --u {args.u!r} must list numbers in [0, 1]")
        if len(t) != (len(cond) if cond else 1) or len(t) + len(u) != C.dim:
            raise BadOperand(f"--t needs one value per conditioning axis and --u one per "
                             f"free axis, {C.dim} in all")
        val = kernel_cdf(C, t, u, cond_axes=cond)
        _emit({"value": val, "error": 0.0}, args.out)
        return 0

    if cmd == "conditional":
        surfaces = slab_family(parse_operand(args.operand)).bilinear_surfaces()
        _emit(_surface_payload(surfaces[_index(args.slab, len(surfaces), "--slab")]), args.out)
        return 0

    if cmd == "partial":
        C = parse_operand(args.operand)
        _emit(_surface_payload(partial_copula(C)), args.out)
        return 0

    if cmd == "simplified":
        C = parse_operand(args.operand)
        flag, delta = is_simplified(C, tol=args.tol)
        _emit({"simplified": bool(flag), "delta": delta, "tol": args.tol}, args.out)
        return 0

    if cmd == "jfun":
        val, err = j_functional(parse_operand(args.a), parse_operand(args.b))
        _emit({"value": val, "error": err}, args.out)
        return 0

    if cmd == "pvc":
        if args.order is not None and not args.dvine:
            raise BadOperand("--order permutes the ladder's variables; it needs --dvine")
        C = parse_operand(args.operand)
        if args.dvine:
            order = tuple(_numbers(args.order, int)) if args.order else None
            result = pvc_dvine(C, order=order)
        else:
            result = pvc3(C)
        psi = _discretized(result.psi, args.res) if args.res is not None else result.psi
        if args.report:
            _emit(pvc_distance_report(C, result), args.report)
        if isinstance(psi, GridCopula):
            _write(psi.to_json() + "\n", args.out)
        else:
            _emit({"family": f"pvc({args.operand})", "slab_count": result.slab_count},
                  args.out)
        return 0

    if cmd == "sample":
        C = parse_operand(args.operand)
        if not isinstance(C, GridCopula):
            raise BadOperand(f"sample needs a grid operand, got {C!r}; " + (
                "empirical --in s.csv writes one for n <= 64" if isinstance(C, EmpiricalCopula)
                else "discretize it with make <family> --res N"))
        pts = sample(C, args.n, args.seed)
        if args.out:
            save_sample(args.out, pts)
        else:
            header = ",".join(f"x{j + 1}" for j in range(pts.shape[1]))
            body = "\n".join(",".join(repr(float(x)) for x in row) for row in pts)
            sys.stdout.write(header + "\n" + body + "\n")
        return 0

    if cmd == "empirical":
        pts = _read_sample(args.operand)
        emp = empirical_copula(pts, tie_break="stable" if args.jitter else "error")
        if emp.n <= 64:
            text = emp.to_grid().to_json()
        else:
            text = json.dumps({"family": "empirical",
                               "params": {"ranks": emp.ranks.tolist()}})
        _write(text + "\n", args.out)
        return 0

    if cmd == "verify":
        cases = verify_mod.run_all() if args.case == "all" else [verify_mod.run_case(args.case)]
        for c in cases:
            status = "pass" if c.passed else "FAIL"
            print(f"[{status}] {c.case_id}: {c.description} ({c.runtime_s:.2f}s)")
        _emit([c.to_dict() for c in cases], args.out)
        return 0 if all(c.passed for c in cases) else 1

    if cmd == "discontinuity":
        rows = verify_mod.discontinuity_experiment(_numbers(args.n_list, int), seed=args.seed)
        _emit(rows, args.out, args.format)
        return 0

    if cmd == "nonopt":
        _emit(verify_mod.nonopt_experiment(args.n, seed=args.seed), args.out)
        return 0

    if cmd == "nowheredense":
        _emit(verify_mod.nowheredense_experiment(seed=args.seed), args.out)
        return 0

    if cmd == "convergence-lab":
        rows = verify_mod.convergence_lab(args.mode, max_m=args.max_m)
        _emit(rows, args.out, args.format)
        return 0

    raise UnknownCase(f"unhandled command {cmd}")


if __name__ == "__main__":
    raise SystemExit(main())
