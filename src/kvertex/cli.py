"""Command-line surface: compute vertex series, run identity and
wall-crossing suites, emit JSON/CSV tables.

Exit codes: 0 success, 1 verification failure, 2 usage error (an
unwritable --out path included), 3 computational error. Output is
deterministic: identical invocations produce byte-identical files. Output
is written only once the command has returned, so a usage or computational
error leaves an existing --out file as it was.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from numbers import Rational

from . import qcombi, vertexk, wallcross
from .boxconfig import min_volume
from .qcombi import compositions, multisets_le3, parse_partition


class UsageError(Exception):
    pass


def parse_legs(text):
    parts = text.split(";")
    if len(parts) != 3:
        raise UsageError('legs must be three ";"-separated partitions, e.g. "3,1;2;"')
    try:
        return tuple(parse_partition(p) for p in parts)
    except ValueError as e:
        raise UsageError("bad partition: %s" % e)


def _emit(out, payload, fmt="json", rows=(), column=None, title=None):
    """Write payload() as canonical JSON, or the (power, value) rows as a
    csv table with the named value column, or as a pretty table under
    title. A csv value that is not a number is quoted."""
    if fmt == "json":
        out.write(json.dumps(payload(), sort_keys=True, indent=2) + "\n")
    elif fmt == "csv":
        out.write("power,%s\n" % column)
        for n, c in rows:
            out.write(("%d,%s\n" if isinstance(c, Rational) else '%d,"%s"\n') % (n, c))
    else:
        out.write(title + "\n")
        for n, c in rows:
            out.write("  Q^%d: %s\n" % (n, c))


def _emit_series(vs, fmt, out):
    title = "%s vertex series, legs %s" % (vs.kind, list(map(list, vs.legs)))
    rows = enumerate(vs.series.coeffs, vs.series.min_power)
    _emit(out, vs.to_json, fmt, rows, "coefficient", title)


SUITES = ("qbinom", "qmultinom", "mochizuki", "joyce_lt", "joyce_b")


def _suite_instances(suite, max_n):
    """Instances in increasing size, so the first failure reported is the
    smallest one."""
    if suite == "qbinom":
        for total in range(2, max_n + 1):
            for m in range(1, total):
                yield {"m": m, "n": total - m}
    elif suite == "qmultinom":
        for total in range(1, max_n + 1):
            for mvec in compositions(total):
                yield {"mvec": list(mvec)}
    else:
        for total in range(1, min(6, max_n - 1) + 1):
            for mvec in multisets_le3(total):
                for N in range(total + 1, max_n + 1):
                    yield {"mvec": list(mvec), "N": N}


def run_suite(suite, max_n):
    records = []
    ok = True
    first_failure = None
    for args in _suite_instances(suite, max_n):
        res = qcombi.check_identity(suite.upper(), **args)
        records.append(res.to_json())
        if not res.verdict and first_failure is None:
            first_failure = res.to_json()
            ok = False
    return {
        "suite": suite,
        "max_n": max_n,
        "instances": len(records),
        "verdict": ok,
        "smallest_failure": first_failure,
        "records": records,
    }


def cmd_check_identities(args, out):
    suites = SUITES if args.suite == "all" else (args.suite,)
    report = [run_suite(s, args.max_n) for s in suites]
    payload = report[0] if len(report) == 1 else {"suites": report, "verdict": all(r["verdict"] for r in report)}
    _emit(out, lambda: payload)
    return 0 if payload["verdict"] else 1


def cmd_dt(args, out):
    vs = vertexk.dt_vertex_series(*args.legs, order=args.order, jobs=args.jobs)
    _emit_series(vs, args.format, out)
    return 0


def cmd_pt(args, out):
    vs = vertexk.pt_vertex_series(*args.legs, order=args.order, jobs=args.jobs)
    _emit_series(vs, args.format, out)
    return 0


def cmd_quot2(args, out):
    vs = vertexk.quot2_vertex_series(args.order, jobs=args.jobs)
    _emit_series(vs, args.format, out)
    return 0


def cmd_cy_limit(args, out):
    vs = vertexk.dt_vertex_series(*args.legs, order=args.order, jobs=args.jobs)
    consts = vertexk.cy_constancy_check(vs)
    rows = list(zip(range(vs.series.min_power, vs.series.trunc + 1), consts))
    payload = {
        "legs": [list(x) for x in vs.legs],
        "order": vs.series.trunc,
        "constants": [[n, str(c)] for n, c in rows],
    }
    _emit(out, lambda: payload, args.format, rows, "constant", "Calabi-Yau limit constants:")
    return 0


def cmd_check_wcf(args, out):
    order, N = args.order, args.frame_dim
    if order > N - 1:
        raise UsageError("order must be at most frame-dim - 1")
    collapse = all(
        wallcross.wall_transfer(m, N) == wallcross.FormalExpr.symbol(wallcross.HILB, m)
        for m in range(1, order + 1)
    )
    joyce = wallcross.joyce_check(order, N)
    mochizuki = wallcross.mochizuki_check(order, N)
    pt_structural = wallcross.wall_transfer_series(order, N, "B").eq_through(
        wallcross.shifted_product_series(order), order
    )
    payload = {
        "order": order,
        "frame_dim": N,
        "transfer_collapse": collapse,
        "factorization": joyce,
        "iterated_collapse": mochizuki,
        "pt_transfer_structural": pt_structural,
        "verdict": collapse and joyce and mochizuki and pt_structural,
    }
    _emit(out, lambda: payload)
    return 0 if payload["verdict"] else 1


def cmd_bridge(args, out):
    order, N = args.order, args.frame_dim
    if order > N - 1:
        raise UsageError("order must be at most frame-dim - 1")
    hilb = vertexk.dt_vertex_series(order=order, jobs=args.jobs)
    ok = wallcross.rank2_bridge(order, N, hilb)
    _emit(out, lambda: {"order": order, "frame_dim": N, "verdict": ok})
    return 0 if ok else 1


def build_parser():
    p = argparse.ArgumentParser(
        prog="kvertex",
        description="Exact equivariant box-counting vertex series and "
        "wall-crossing identity checks.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, legs=False):
        if legs:
            sp.add_argument("--legs", default=";;", help='three partitions, e.g. "3,1;2;"')
        sp.add_argument("--order", type=int, required=True, help="truncation order in Q")
        sp.add_argument("--jobs", type=int, default=1)
        sp.add_argument("--format", choices=("json", "csv", "pretty"), default="json")
        sp.add_argument("--out", default=None, help="output path (default stdout)")

    sp = sub.add_parser("dt-vertex", help="box-counting vertex series")
    common(sp, legs=True)
    sp.set_defaults(fn=cmd_dt)

    sp = sub.add_parser("pt-vertex", help="stable-pairs vertex series (as a quotient)")
    common(sp, legs=True)
    sp.set_defaults(fn=cmd_pt)

    sp = sub.add_parser("quot2-vertex", help="rank-2 degree-0 vertex series")
    common(sp)
    sp.set_defaults(fn=cmd_quot2)

    sp = sub.add_parser("cy-limit", help="Calabi-Yau limit constants of a 0-leg series")
    common(sp, legs=True)
    sp.set_defaults(fn=cmd_cy_limit)

    sp = sub.add_parser("check-identities", help="exhaustive combinatorial identity suites")
    sp.add_argument("--suite", choices=SUITES + ("all",), required=True)
    sp.add_argument("--max-n", type=int, required=True)
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_check_identities)

    sp = sub.add_parser("check-wcf", help="formal wall-crossing verification")
    sp.add_argument("--order", type=int, required=True)
    sp.add_argument("--frame-dim", type=int, required=True)
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_check_wcf)

    sp = sub.add_parser("bridge", help="formal-geometric rank-2 cross-check")
    sp.add_argument("--order", type=int, required=True)
    sp.add_argument("--frame-dim", type=int, required=True)
    sp.add_argument("--jobs", type=int, default=1)
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_bridge)

    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        nmin = 0
        if getattr(args, "legs", None) is not None:
            args.legs = parse_legs(args.legs)
            nmin = min_volume(*args.legs)
        if getattr(args, "order", 0) < nmin:
            raise UsageError("order must be at least %d, the minimal volume of these legs" % nmin
                             if nmin else "order must be nonnegative")
        if getattr(args, "jobs", 1) < 1:
            raise UsageError("jobs must be positive")
        if getattr(args, "max_n", 2) < 2:
            raise UsageError("max-n must be at least 2")
    except UsageError as e:
        print("usage error: %s" % e, file=sys.stderr)
        return 2
    out = io.StringIO()
    try:
        code = args.fn(args, out)
    except UsageError as e:
        print("usage error: %s" % e, file=sys.stderr)
        return 2
    except (ArithmeticError, ValueError, ZeroDivisionError) as e:
        print("computational error: %s" % e, file=sys.stderr)
        return 3
    path = getattr(args, "out", None)
    if path is None:
        sys.stdout.write(out.getvalue())
        return code
    try:
        with open(path, "w") as f:
            f.write(out.getvalue())
    except OSError as e:
        print("usage error: cannot write %s: %s" % (path, e.strerror), file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
