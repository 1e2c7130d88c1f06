"""Batch command surface: reproducible JSON/CSV reports for all layers.

Subcommands: psi, gram, build, verify, sweep, flags, count, conjecture210,
identities.  Output is JSON by default (``--format csv`` for a flat
projection) and always embeds a run manifest.  Exit codes: 0 success,
1 a verification falsifier fired, 2 usage error, 3 resource bound hit.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from collections import Counter

from . import __version__
from .cases import CountCase, cuts_for, fields_for, sweep_cases
from .fields import RATIONALS, get_finite_field
from .gram import GramTable, check_conjecture_210
from .linalg import Matrix, nilpotent_jordan_multiset
from .model import (build_T, build_model, flags_from, position_check,
                    split_check)
from .shapes import (MODES, ORTHOGONAL, SYMPLECTIC, BoundExceeded,
                     InvalidInput, ShapeSeq, VerificationFailed, psi,
                     verify_series_identity)


class UsageError(InvalidInput):
    pass


def parse_field(text: str):
    """``rat`` for the rational tower, ``gf:p[,m]`` for a finite field."""
    if text == "rat":
        return RATIONALS
    if text.startswith("gf:"):
        parts = text[3:].split(",")
        if len(parts) > 2:
            raise UsageError(f"bad field spec {text!r}: more than two comma "
                             "fields (use 'gf:p[,m]')")
        try:
            p = int(parts[0])
            m = int(parts[1]) if len(parts) > 1 else 1
            return get_finite_field(p, m)
        except ValueError as exc:
            raise UsageError(f"bad field spec {text!r}: {exc}") from exc
    raise UsageError(f"bad field spec {text!r} (use 'rat' or 'gf:p[,m]')")


def parse_gamma(text: str) -> Counter:
    """Comma-separated positive Jordan block sizes, as {size: count}."""
    sizes = text.split(",")
    if not all(x.isdecimal() and int(x) > 0 for x in sizes):
        raise UsageError(f"bad gamma {text!r}: sizes must be positive "
                         "integers")
    return Counter(map(int, sizes))


def _at_least(args, name: str, low: int, default: int) -> int:
    value = getattr(args, name)
    if value is not None and value < low:
        raise UsageError(f"--{name} {value} must be at least {low}")
    return default if value is None else value


def _shape_from(args) -> ShapeSeq:
    if not args.shape:
        raise UsageError("--shape is required")
    try:
        return ShapeSeq.parse(args.shape, args.kappa)
    except ValueError as exc:
        raise UsageError(f"bad shape {args.shape!r}: {exc}") from exc


def _mode_from(args) -> str:
    if args.mode in MODES:
        return args.mode
    if args.mode == "symplectic":
        return SYMPLECTIC
    if args.mode == "orthogonal":
        return ORTHOGONAL
    raise UsageError(f"bad mode {args.mode!r}")


# -- subcommand bodies -------------------------------------------------------

def cmd_psi(args):
    shape = _shape_from(args)
    return {"shape": shape.to_json(), "psi": list(psi(shape))}, 0


def cmd_gram(args):
    shape = _shape_from(args)
    mode = _mode_from(args)
    field = parse_field(args.field)
    table = GramTable(shape, mode, field, delta_bound=args.window)
    sigma_k = shape.sigma + shape.kappa
    bound = table.delta_bound
    values = []
    for t in range(1, sigma_k + 1):
        for r in range(t, sigma_k + 1):
            for d in range(-bound, bound + 1):
                values.append({"t": t, "r": r, "delta": d,
                               "value": table.value(t, r, d).to_json()})
    out = table.to_json()
    out["values"] = values
    out["case_map"] = {f"{t},{r}": c for (t, r), c in
                       sorted(table.case_map.items())}
    return out, 0


def _build_and_check(shape, mode, field):
    """Build one model and run its checks: (model, flag pair, checks, ok)."""
    model = build_model(shape, mode, field)
    flag, flag_prime = flags_from(model)
    # build_model and flags_from raise VerificationFailed on any violation
    checks = {
        "adapted": True,
        "flags": True,
        "position": position_check(flag, flag_prime, shape),
        "split": {str(cut): split_check(model, cut)["pass"]
                  for cut in cuts_for(shape, mode)},
    }
    ok = checks["position"] and all(checks["split"].values())
    return model, (flag, flag_prime), checks, ok


def cmd_build(args):
    shape = _shape_from(args)
    mode = _mode_from(args)
    field = parse_field(args.field)
    model, _, checks, ok = _build_and_check(shape, mode, field)
    n = model.g - Matrix.identity(model.field, model.space.dim)
    out = model.to_json()
    out["jordan"] = sorted(nilpotent_jordan_multiset(n).elements(),
                           reverse=True)
    out["index_convention"] = "p_r"
    out["checks"] = checks
    return out, (0 if ok else 1)


def _verify(shape, mode, field):
    """Build one model, run every check and an intertwiner: (result, ok)."""
    model, pair, checks, ok = _build_and_check(shape, mode, field)
    eps = {t: -1 if t % 2 else 1
           for t in range(1, shape.sigma + shape.kappa + 1)}
    build_T(model, model.with_signs(eps), flags_pair=pair)
    checks["intertwiner"] = True
    return {"shape": shape.to_json(), "mode": mode,
            "field": model.field.to_json(), "checks": checks,
            "diagnostics": model.table.diagnostics}, ok


def cmd_verify(args):
    result, ok = _verify(_shape_from(args), _mode_from(args),
                         parse_field(args.field))
    return result, (0 if ok else 1)


def cmd_sweep(args):
    total = _at_least(args, "total", 1, 5)
    cases, all_ok = [], True
    for shape, mode in sweep_cases(total):
        for name, field in fields_for(mode, shape.kappa):
            result, ok = _verify(shape, mode, field)
            cases.append(dict(result, field_name=name))
            all_ok = all_ok and ok
    return {"models": len(cases), "cases": cases}, (0 if all_ok else 1)


def cmd_flags(args):
    shape = _shape_from(args)
    mode = _mode_from(args)
    field = parse_field(args.field)
    model = build_model(shape, mode, field)
    flag, flag_prime = flags_from(model)
    pos = position_check(flag, flag_prime, shape)
    dims = [len(v) for v in flag.subspaces]
    return {"shape": shape.to_json(), "mode": mode, "dims": dims,
            "index_convention": "p_r",
            "position": pos}, (0 if pos else 1)


def cmd_count(args):
    if args.group_type is None or args.q is None:
        raise UsageError("count needs --type and --q")
    if args.group_type == "A" and args.n is None:
        raise UsageError("type A needs --n (matrix size)")
    # type A reads the matrix size, types B and C a shape
    unread = ("shape", "kappa") if args.group_type == "A" else ("n",)
    for option in unread:
        if getattr(args, option) is not None:
            raise UsageError(f"type {args.group_type} counting does not "
                             f"read --{option}")
    gamma = None if args.gamma is None else \
        tuple(parse_gamma(args.gamma).elements())
    case = CountCase(args.group_type, args.q, n=args.n,
                     shape=None if args.group_type == "A" else
                     _shape_from(args), gamma=gamma)
    t0 = time.monotonic()
    report = case.report()
    report["runtime"] = round(time.monotonic() - t0, 3)
    # the per-class gate binds the predicted type only; the off-class
    # registry cases have per_g 0 on every class
    ok = report["relation_holds"] and report["double_count_consistent"] and \
        (report["class_relation_holds"] or
         report["expected_relation"] != "equal")
    if not args.per_element:
        report.pop("per_g")
        report.pop("per_flag")
    return report, (0 if ok else 1)


def cmd_conjecture210(args):
    kmax = _at_least(args, "kmax", 2, 4)
    results = []
    all_ok = True
    for k in range(2, kmax + 1):
        _, square, expected, matches = check_conjecture_210(k)
        results.append({"k": k, "square": square.to_json(),
                        "expected": expected.to_json(),
                        "matches": matches, "asserted": k <= 4})
        if k <= 4 and not matches:
            all_ok = False
    return {"results": results}, (0 if all_ok else 1)


def cmd_identities(args):
    kmax = _at_least(args, "kmax", 1, 8)
    degree = _at_least(args, "window", 0, 20)
    results = []
    ok = True
    for which, lo in (("negative-binomial", 1), ("two-pole", 2)):
        for m in range(lo, kmax + 1):
            good = verify_series_identity(which, m, degree)
            ok = ok and good
            results.append({"identity": which, "m": m, "degree": degree,
                            "holds": good})
    return {"results": results}, (0 if ok else 1)


COMMANDS = {
    "psi": cmd_psi,
    "gram": cmd_gram,
    "build": cmd_build,
    "verify": cmd_verify,
    "sweep": cmd_sweep,
    "flags": cmd_flags,
    "count": cmd_count,
    "conjecture210": cmd_conjecture210,
    "identities": cmd_identities,
}


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isoflag",
        description="Exact pairing tables, isometry models and flag counts.")
    sub = parser.add_subparsers(dest="command", required=True)
    # option groups: each subcommand takes only the options it reads
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--format", dest="fmt", default="json",
                        choices=("json", "csv"))
    output.add_argument("--out")
    shape = argparse.ArgumentParser(add_help=False, parents=[output])
    shape.add_argument("--shape", help="comma-separated parts, e.g. 3,2,2,1")
    kappa = argparse.ArgumentParser(add_help=False, parents=[shape])
    kappa.add_argument("--kappa", type=int, default=0, choices=(0, 1))
    model = argparse.ArgumentParser(add_help=False, parents=[kappa])
    model.add_argument("--mode", default=SYMPLECTIC,
                       help="symplectic-or-char2 | orthogonal-odd")
    model.add_argument("--field", default="rat", help="rat | gf:p[,m]")
    group = {"psi": kappa, "count": shape, "conjecture210": output,
             "identities": output, "sweep": output}
    sps = {name: sub.add_parser(name, parents=[group.get(name, model)])
           for name in COMMANDS}
    for name in ("gram", "identities"):
        sps[name].add_argument("--window", type=int)
    for name in ("conjecture210", "identities"):
        sps[name].add_argument("--kmax", type=int)
    sps["sweep"].add_argument("--total", type=int,
                              help="maximum part sum of the shapes "
                              "(default 5)")
    count = sps["count"]
    count.add_argument("--type", dest="group_type", choices=("A", "B", "C"))
    count.add_argument("--n", type=int)
    count.add_argument("--q", type=int)
    count.add_argument("--gamma", help="comma-separated Jordan block sizes")
    count.add_argument("--kappa", type=int, choices=(0, 1))
    count.add_argument("--per-element", action="store_true",
                       help="include per-g subtotals and the subtotal "
                       "of the one flag tested")
    return parser


def _manifest(args) -> dict:
    params = {k: v for k, v in sorted(vars(args).items())
              if k not in ("command",) and v is not None}
    return {
        "command": args.command,
        "parameters": params,
        "version": __version__,
    }


def _flatten(prefix: str, value, rows):
    if isinstance(value, dict):
        for k, v in value.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, rows)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            _flatten(f"{prefix}[{i}]", v, rows)
    else:
        rows.append((prefix, value))


def _emit(payload: dict, fmt: str, out_path):
    if fmt == "json":
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        rows = []
        _flatten("", payload, rows)
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["key", "value"])
        writer.writerows(rows)
        text = buf.getvalue()
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    # types B and C read --kappa, and record its default 0; type A does not
    if args.command == "count" and args.group_type != "A" and \
            args.kappa is None:
        args.kappa = 0
    manifest = _manifest(args)
    start = time.monotonic()
    try:
        result, code = COMMANDS[args.command](args)
    except InvalidInput as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except VerificationFailed as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    except BoundExceeded as exc:
        print(f"resource bound exceeded: {exc}", file=sys.stderr)
        return 3
    manifest["wall_time_s"] = round(time.monotonic() - start, 3)
    manifest["diagnostics"] = result.get("diagnostics", {})
    _emit({"manifest": manifest, "result": result}, args.fmt, args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
