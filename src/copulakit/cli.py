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
import io
import json
import sys
from pathlib import Path

import numpy as np

from . import verify as verify_mod
from .analytic import comonotone, countermonotone, independence_analytic
from .conditioning import (
    BilinearSurface,
    conditional_copula,
    is_simplified,
    j_functional,
    kernel_cdf,
    partial_copula,
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

_FAMILY_NAMES = ("pi|pi-analytic|m|w|cube|rcube|bstar|bstarstar|efgm|efgm-seq|"
                "shuffle-d1..d4|example54|product-extend|empirical")

_SHUFFLES = {f"shuffle-d{i}": i for i in SHUFFLE_SPECS}


def build_family(name: str, params: dict):
    """Instantiate a named family; see the make subcommand for the list."""
    dim = int(params.get("dim", 3))
    if name == "pi":
        res = params.get("res")
        if res is None:
            return independence(dim)
        res = [int(r) for r in str(res).split("x")] if "x" in str(res) else [int(res)] * dim
        return independence(dim, res)
    if name == "pi-analytic":
        return independence_analytic(dim)
    if name == "m":
        return comonotone(dim)
    if name == "w":
        return countermonotone()
    if name == "cube":
        return cube_copula()
    if name == "rcube":
        return rcube_copula()
    if name == "bstar":
        return bstar()
    if name == "bstarstar":
        return bstarstar()
    if name == "efgm":
        return efgm_quadratic(dim)
    if name == "efgm-seq":
        return efgm_sequence_member(int(params["m"]), int(params["k"]), dim)
    if name in _SHUFFLES:
        return shuffle_d(_SHUFFLES[name])
    if name == "example54":
        return example54_copula()
    if name == "product-extend":
        base = build_family(str(params.get("base", "cube")), {})
        return product_extend(base, int(params.get("dim", base.dim + 1)))
    if name == "empirical":
        return EmpiricalCopula(np.asarray(params["ranks"], dtype=np.int64))
    raise BadOperand(f"unknown family {name!r}; known: {_FAMILY_NAMES}")


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
            return build_family(payload["family"], payload.get("params", {}))
        return GridCopula.from_json(path.read_text())
    if path.suffix in (".json", ".csv") or len(path.parts) > 1:
        raise BadOperand(f"no operand file {spec!r}")
    name, _, argstr = spec.partition(":")
    params = {}
    if argstr:
        for kv in argstr.split(","):
            k, _, v = kv.partition("=")
            params[k.strip()] = v.strip()
    return build_family(name, params)


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


def _resolutions(text: str):
    """``--res`` value: one count per axis, e.g. ``8`` or ``8x8x4``."""
    res = _numbers(text, int, "x")
    if not res:
        raise BadOperand(f"malformed resolution {text!r}")
    return res


def _surface_payload(surface):
    if not isinstance(surface, BilinearSurface):
        raise ClosedFormUnavailable("a closed-form surface has no node values to report")
    return {
        "xs": surface.xs.tolist(),
        "ys": surface.ys.tolist(),
        "values": surface.values.tolist(),
    }


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="copulakit",
        description="checkerboard copulas, kernels, metrics and the partial vine operator",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None)
    sub = ap.add_subparsers(dest="command", required=True, parser_class=lambda **kw: argparse.ArgumentParser(parents=[common], **kw))

    p = sub.add_parser("make", help="construct a named family")
    p.add_argument("family", help=_FAMILY_NAMES)
    p.add_argument("--res", default=None, help="discretize to this resolution, e.g. 8 or 8x8x4")
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--base", default=None)

    p = sub.add_parser("metric", help="evaluate a distance")
    p.add_argument("--name", required=True, choices=sorted(_METRICS))
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--axis", type=int, default=None)
    p.add_argument("--eps", type=float, default=1e-8)

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
    p.add_argument("--order", default=None, help="axis permutation, e.g. 0,2,1")
    p.add_argument("--res", default=None)
    p.add_argument("--report", default=None)
    p.add_argument("--eps", type=float, default=1e-8)

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
        params = {}
        for key in ("dim", "m", "k", "base"):
            val = vars(args).get(key)
            if val is not None:
                params[key] = val
        cop = build_family(args.family, params)
        if args.res is not None:
            res = _resolutions(args.res)
            if len(res) == 1:
                res = res * cop.dim
            cop = cop if isinstance(cop, GridCopula) and cop.resolutions == res else discretize(cop, res)
        if isinstance(cop, GridCopula):
            text = cop.to_json()
            if args.out:
                Path(args.out).write_text(text)
            else:
                sys.stdout.write(text + "\n")
        else:
            _emit({"family": args.family, "params": params}, args.out)
        return 0

    if cmd == "metric":
        fn = _METRICS[args.name]
        a = parse_operand(args.a)
        b = parse_operand(args.b)
        kwargs = {}
        if args.name in ("d1", "d2", "dinfk") and args.axis is not None:
            kwargs["axis"] = args.axis
        if args.name in ("d1", "d2", "dinfk", "dinf"):
            kwargs["eps"] = args.eps
        rep = fn(a, b, **kwargs)
        _emit(rep.to_dict(), args.out)
        return 0

    if cmd == "kernel":
        C = parse_operand(args.operand)
        cond = tuple(_numbers(args.cond_axes, int)) if args.cond_axes else None
        val = kernel_cdf(C, _numbers(args.t, float), _numbers(args.u, float), cond_axes=cond)
        _emit({"value": val, "error": 0.0}, args.out)
        return 0

    if cmd == "conditional":
        C = parse_operand(args.operand)
        _emit(_surface_payload(conditional_copula(C, args.slab)), args.out)
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
        C = parse_operand(args.operand)
        res = _resolutions(args.res) if args.res else None
        if args.dvine:
            order = tuple(_numbers(args.order, int)) if args.order else None
            result = pvc_dvine(C, order=order, resolutions=res)
        else:
            result = pvc3(C, resolutions=res)
        if args.report:
            Path(args.report).write_text(
                json.dumps(pvc_distance_report(C, eps=args.eps), indent=2,
                           default=_json_default)
            )
        target = result.psi_grid if result.psi_grid is not None else result.psi
        if isinstance(target, GridCopula):
            text = target.to_json()
            if args.out:
                Path(args.out).write_text(text)
            else:
                sys.stdout.write(text + "\n")
        else:
            _emit({"family": f"pvc({args.operand})", "slab_count": result.slab_count},
                  args.out)
        return 0

    if cmd == "sample":
        C = parse_operand(args.operand)
        if isinstance(C, EmpiricalCopula):
            raise BadOperand(f"sample needs a grid operand, got {C!r}; "
                             "empirical --in s.csv writes one for n <= 64")
        if not isinstance(C, GridCopula):
            raise BadOperand(f"sample needs a grid operand, got {C!r}; "
                             "discretize it with make <family> --res N")
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
        if args.out:
            Path(args.out).write_text(text)
        else:
            sys.stdout.write(text + "\n")
        return 0

    if cmd == "verify":
        if args.case == "all":
            cases = verify_mod.run_all()
        else:
            cases = [verify_mod.run_case(args.case)]
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
