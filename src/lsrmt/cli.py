"""Command-line front end: compute, verify, mc.

Every run echoes its resolved configuration and emits machine-readable
output (json by default, csv or text on request).  Identical invocations
produce byte-identical output.  Exit codes: 0 pass, 1 verification failure,
2 any other error: bad usage or input, a truncation tail bound over its
tolerance, or a quadrature grid that does not converge.  Errors print
{"schema", "error"} JSON in place of a traceback.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from fractions import Fraction

from . import partitions, rmt, symfunc
from .haar import make_estimator, mc_average
from .rmt import QuadratureError, TruncationError
from .verify import run_suite

SCHEMA = "ls-rmt/1"


def parse_partition(text: str):
    if text in ("", "-"):
        return ()
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValueError(f"bad partition {text!r}; want comma-separated integers")
    return partitions.canonical(parts)


def parse_complex_list(text: str):
    if text in ("", "-"):
        return ()
    try:
        return tuple(complex(p) for p in text.split(","))
    except ValueError:
        raise ValueError(f"bad complex list {text!r}; want e.g. 0.3+0.2j,1.1")


def jsonable(value):
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    if isinstance(value, Fraction):
        return {"numerator": value.numerator, "denominator": value.denominator}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: jsonable(v) for k, v in value.items()}
    return value


def emit(payload: dict, output: str) -> str:
    if output == "json":
        return json.dumps(payload, sort_keys=True)
    if output == "csv":
        flat = _flatten(payload)
        keys = sorted(flat)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(keys)
        writer.writerow(_csv_cell(flat[k]) for k in keys)
        return buf.getvalue()[:-1]
    lines = [f"{k}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(payload.items())]
    return "\n".join(lines)


def _csv_cell(value) -> str:
    """One csv field: null empty, a list as compact JSON, a scalar as str."""
    if value is None:
        return ""
    if isinstance(value, list):
        return json.dumps(value, sort_keys=True, separators=(",", ":"))
    return str(value)


def _flatten(d, prefix=""):
    out = {}
    for k, v in d.items():
        key = f"{prefix}{k}"
        if isinstance(v, dict):
            out.update(_flatten(v, key + "."))
        else:
            out[key] = v
    return out


def cmd_compute(args) -> tuple[dict, int]:
    target = args.target
    config = {"target": target}
    truncation = None
    if target == "schur":
        lam = parse_partition(args.lam)
        xs = parse_complex_list(args.x)
        config.update({"lambda": lam, "x": xs, "method": args.method})
        value = (
            symfunc.schur_comb(lam, xs)
            if args.method == "comb"
            else symfunc.schur_det(lam, xs)
        )
    elif target == "ls":
        lam = parse_partition(args.lam)
        xs = parse_complex_list(args.x)
        ys = parse_complex_list(args.y)
        config.update({"lambda": lam, "x": xs, "y": ys, "method": args.method})
        # det computes LS(-X; Y); comb computes LS(X; Y) at the given values
        value = (
            symfunc.ls_comb(lam, xs, ys)
            if args.method == "comb"
            else symfunc.ls_det(lam, xs, ys)
        )
    elif target == "overlap":
        mu, nu = parse_partition(args.mu), parse_partition(args.nu)
        config.update({"mu": mu, "nu": nu, "m": args.m, "n": args.n})
        value = partitions.overlap(mu, nu, args.m, args.n).to_json()
    elif target == "index":
        lam = parse_partition(args.lam)
        config.update({"lambda": lam, "m": args.m, "n": args.n})
        value = partitions.mn_index(lam, args.m, args.n)
    elif target == "lrcoeff":
        lam = parse_partition(args.lam)
        mu, nu = parse_partition(args.mu), parse_partition(args.nu)
        config.update({"lambda": lam, "mu": mu, "nu": nu})
        value = symfunc.lr_coeff(lam, mu, nu)
    elif target == "moment":
        config.update({"k": args.k, "N": args.N})
        value = rmt.moment_unitary(args.k, args.N)
    elif target == "ratio-main":
        a, b = parse_complex_list(args.a), parse_complex_list(args.b)
        c, d = parse_complex_list(args.c), parse_complex_list(args.d)
        config.update({"a": a, "b": b, "c": c, "d": d, "N": args.N})
        value = rmt.ratio_avg(a, b, c, d, args.N)
    elif target == "logders-main":
        e, f = parse_complex_list(args.e), parse_complex_list(args.f)
        config.update({"e": e, "f": f, "part_cap": args.part_cap})
        value = rmt.logders_main(e, f, part_cap=args.part_cap)
        truncation = {"P": args.part_cap, "L": len(e)}
    elif target == "completed-main":
        e, f = parse_complex_list(args.e), parse_complex_list(args.f)
        config.update({"e": e, "f": f, "N": args.N, "part_cap": args.part_cap})
        value = rmt.completed_logders_main(e, f, args.N, part_cap=args.part_cap)
        truncation = {"P": args.part_cap, "L": min(len(e), len(f))}
    elif target == "explicit-rhs":
        config.update(
            {"h": args.h, "f": args.fkey, "n": args.n, "r": args.r, "N": args.N, "grid": args.grid}
        )
        h = rmt.catalog_function(args.h)
        f = rmt.catalog_symmetric(args.fkey, args.n)
        value = rmt.explicit_formula_rhs(h, f, args.n, args.r, args.N, grid=args.grid)
    payload = {"config": jsonable(config), "result": jsonable(value)}
    if truncation is not None:
        payload["truncation"] = truncation
    return payload, 0


def cmd_verify(args) -> tuple[dict, int]:
    report = run_suite(args.suite, args.seed, instances=args.instances, tol=args.tolerance)
    code = 0 if report["pass"] else 1
    return {"config": {"suite": args.suite, "seed": args.seed}, "report": report}, code


def cmd_mc(args) -> tuple[dict, int]:
    params = {}
    for key in ("z", "eps", "phi"):
        val = getattr(args, key)
        if val is not None:
            params[key] = complex(val)
    for key in ("a", "b", "c", "d"):
        val = getattr(args, key)
        if val is not None:
            params[key] = parse_complex_list(val)
    if args.h is not None:
        params["h"] = args.h
    est = make_estimator(args.estimator, args.N, **params)
    out = mc_average(est, args.N, args.M, args.seed, workers=args.workers)
    payload = {
        "config": {
            "estimator": args.estimator,
            "N": args.N,
            "M": args.M,
            "seed": args.seed,
            "workers": args.workers,
            "params": jsonable(params),
        },
        "estimate": out.to_json(),
    }
    if est.prediction is not None:
        pred = est.prediction
        # with no spread, a mean off the prediction has no finite z: null
        if out.stderr > 0:
            z_score = abs(out.mean - pred) / out.stderr
        else:
            z_score = 0.0 if out.mean == pred else None
        payload["prediction"] = jsonable(complex(pred))
        payload["z_score"] = z_score
    return payload, 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later main() calls."""
    parser = argparse.ArgumentParser(
        prog="lsrmt",
        description="Littlewood-Schur functions, overlap identities, unitary averages",
    )
    parser.add_argument("--output", choices=("json", "csv", "text"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    comp = sub.add_parser("compute", help="evaluate one quantity")
    comp.add_argument(
        "target",
        choices=(
            "schur",
            "ls",
            "overlap",
            "index",
            "lrcoeff",
            "moment",
            "ratio-main",
            "logders-main",
            "completed-main",
            "explicit-rhs",
        ),
    )
    comp.add_argument("--lambda", dest="lam", default="")
    comp.add_argument("--mu", default="")
    comp.add_argument("--nu", default="")
    comp.add_argument("--x", default="")
    comp.add_argument("--y", default="")
    comp.add_argument("--a", default="")
    comp.add_argument("--b", default="")
    comp.add_argument("--c", default="")
    comp.add_argument("--d", default="")
    comp.add_argument("--e", default="")
    comp.add_argument("--f", default="")
    comp.add_argument("--m", type=int, default=0)
    comp.add_argument("--n", type=int, default=0)
    comp.add_argument("--k", type=int, default=0)
    comp.add_argument("--N", type=int, default=1)
    comp.add_argument("--r", type=float, default=0.6)
    comp.add_argument("--grid", type=int, default=32)
    comp.add_argument("--part-cap", type=int, default=rmt.PART_CAP)
    comp.add_argument("--method", choices=("det", "comb"), default="det")
    comp.add_argument("--h", default="one")
    comp.add_argument("--f-key", dest="fkey", default="one")
    comp.set_defaults(func=cmd_compute)

    ver = sub.add_parser("verify", help="run a named identity suite")
    ver.add_argument("suite")
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--instances", type=int, default=None)
    ver.add_argument("--tolerance", type=float, default=None)
    ver.set_defaults(func=cmd_verify)

    mc = sub.add_parser("mc", help="Monte Carlo average over Haar samples")
    mc.add_argument("--estimator", required=True)
    mc.add_argument("--N", type=int, required=True)
    mc.add_argument("--M", type=int, default=100000)
    mc.add_argument("--seed", type=int, default=0)
    mc.add_argument("--workers", type=int, default=1)
    mc.add_argument("--z", default=None)
    mc.add_argument("--eps", default=None)
    mc.add_argument("--phi", default=None)
    mc.add_argument("--a", default=None)
    mc.add_argument("--b", default=None)
    mc.add_argument("--c", default=None)
    mc.add_argument("--d", default=None)
    mc.add_argument("--h", default=None)
    mc.set_defaults(func=cmd_mc)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses 2 for usage errors already
        return int(exc.code or 0)
    try:
        payload, code = args.func(args)
    except (ValueError, TruncationError, QuadratureError) as exc:
        print(json.dumps({"schema": SCHEMA, "error": str(exc)}, sort_keys=True))
        return 2
    payload = {"schema": SCHEMA, "command": args.command, **payload}
    print(emit(payload, args.output))
    return code


if __name__ == "__main__":
    sys.exit(main())
