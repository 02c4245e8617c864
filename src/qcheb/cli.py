"""Command-line front end: generate family tables, run verification suites,
compute moments and q-Catalan numbers, and emit JSON/CSV/text reports.

Exit codes: 0 = success / all identities pass, 1 = at least one identity
failure, 2 = usage or parameter error.  Rationals are always serialized as
lowest-terms "num/den" strings.  Every command renders its whole output
before writing any of it, so an error such as a number past Python's
int-to-str digit limit exits 2 with nothing written to stdout.

Startup: each command loads only the modules it runs.  `gen` and `catalan`
need nothing beyond what `import qcheb` loads; `moments` imports
qcheb.moments inside its handler, and `verify` is the one command that loads
the suites, inside its handler.
"""

import argparse
import json
import sys
from fractions import Fraction

from . import families
from .polyring import format_rational
from .qkernel import ParamPoint, PoleError, q_catalan


class UsageError(Exception):
    pass


def _parse_rational(text: str) -> Fraction:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"not a valid rational: {text!r} ({exc})")
    return value


def _parse_family(name: str) -> families.FamilyId:
    try:
        return families.FamilyId(name)
    except ValueError:
        valid = ", ".join(f.value for f in families.FamilyId)
        raise UsageError(f"unknown family {name!r}; choose from {valid}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcheb",
        description="Exact q-polynomial family generation and identity verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="print family polynomials for n = 0 .. N")
    gen.add_argument("--family", required=True, help="family id, e.g. T, U, F_QB")
    gen.add_argument("--n", type=int, required=True, help="largest index to print")
    gen.add_argument("--q", default="2", help='rational q as "num/den"; negative: --q=-1/2')
    gen.add_argument("--b", default="0", help='rational b as "num/den"; negative: --b=-1/2')
    gen.add_argument("--format", choices=("json", "csv", "text"), default="text")

    verify = sub.add_parser("verify", help="run an identity verification suite")
    verify.add_argument("--suite", choices=("core", "extended", "all"), default="core")
    verify.add_argument(
        "--q", default=None,
        help="run the checks of the q, point, neg_point and word scopes at this q "
        "only (negative: --q=-1/2); the other scopes keep their samples",
    )
    verify.add_argument(
        "--b", default=None,
        help="run the checks of the point and neg_point scopes at this b only "
        "(negative: --b=-1/2); the other scopes keep their samples",
    )
    verify.add_argument("--max-n", type=int, default=None, help="override index bounds")
    verify.add_argument(
        "--parallelism", type=int, default=1,
        help="accepted for compatibility; checks always run serially",
    )
    verify.add_argument("--format", choices=("json", "csv", "text"), default="text")

    mom = sub.add_parser("moments", help="print moment values for x^0 .. x^N")
    mom.add_argument(
        "--family", default="GEN_FIB", help="GEN_FIB, GEN_LUCAS, CARLITZ or CLASSICAL"
    )
    mom.add_argument("--n", type=int, required=True)
    mom.add_argument("--q", default="2", help='rational q as "num/den"')
    mom.add_argument("--format", choices=("json", "csv", "text"), default="text")

    cat = sub.add_parser("catalan", help="print q-Catalan numbers C_0 .. C_N")
    cat.add_argument("--n", type=int, required=True)
    cat.add_argument("--q", default="1", help='rational q as "num/den"')
    cat.add_argument("--format", choices=("json", "csv", "text"), default="text")

    return parser


# -- gen ----------------------------------------------------------------


def cmd_gen(args, out) -> int:
    family = _parse_family(args.family)
    q = _parse_rational(args.q)
    b = _parse_rational(args.b)
    if args.n < 0:
        raise UsageError("--n must be >= 0")
    point = ParamPoint(q, b)
    rows = [(n, families.family_poly(family, n, point)) for n in range(args.n + 1)]
    if args.format == "json":
        payload = {
            "family": family.value,
            "q": format_rational(q),
            "b": format_rational(b),
            "rows": [{"n": n, "poly": poly.to_json()} for n, poly in rows],
        }
        json.dump(payload, out, indent=2)
        out.write("\n")
    elif args.format == "csv":
        out.write("n,poly\n" + "".join(f'{n},"{poly}"\n' for n, poly in rows))
    else:
        out.write("".join(f"{family.value}_{n} = {poly}\n" for n, poly in rows))
    return 0


# -- verify -------------------------------------------------------------


def _emit_reports(reports, counts, fmt, out):
    if fmt == "json":
        payload = {"summary": counts, "reports": [r.to_json() for r in reports]}
        json.dump(payload, out, indent=2)
        out.write("\n")
    elif fmt == "csv":
        lines = ["identity_id,q,b,n_lo,n_hi,status\n"]
        for r in reports:
            q = format_rational(r.point.q) if r.point else ""
            b = format_rational(r.point.b) if r.point else ""
            lo, hi = r.index_range
            lines.append(f"{r.identity_id},{q},{b},{lo},{hi},{r.status}\n")
        out.write("".join(lines))
    else:
        lines = []
        for r in reports:
            where = ""
            if r.point is not None:
                where = f" @ q={format_rational(r.point.q)}, b={format_rational(r.point.b)}"
            lines.append(f"{r.status:7s} {r.identity_id}{where}  n in {r.index_range}\n")
            if r.reason is not None:
                lines.append(f"        reason: {r.reason}\n")
            if r.witness is not None:
                lines.append(f"        witness n={r.witness['n']}:\n")
                lines.append(f"          lhs = {r.witness['lhs']}\n")
                lines.append(f"          rhs = {r.witness['rhs']}\n")
        lines.append(
            f"summary: {counts['pass']} pass, {counts['fail']} fail, "
            f"{counts['skipped']} skipped\n"
        )
        out.write("".join(lines))


def cmd_verify(args, out) -> int:
    from .suites import bounds_for, run_suite, summarize

    qs = [_parse_rational(args.q)] if args.q is not None else None
    bs = [_parse_rational(args.b)] if args.b is not None else None
    if args.parallelism < 1:
        raise UsageError("--parallelism must be >= 1")
    if args.max_n is not None and args.max_n < 1:
        raise UsageError("--max-n must be >= 1")
    reports = run_suite(
        args.suite,
        qs=qs,
        bs=bs,
        parallelism=args.parallelism,
        bounds=bounds_for(args.max_n),
    )
    counts = summarize(reports)
    _emit_reports(reports, counts, args.format, out)
    return 0 if counts["fail"] == 0 else 1


# -- moments ------------------------------------------------------------


def cmd_moments(args, out) -> int:
    from . import moments

    q = _parse_rational(args.q)
    if args.n < 0:
        raise UsageError("--n must be >= 0")
    name = args.family.upper()
    if name == "CLASSICAL":
        spec = moments.classical_spec()
    elif name == "GEN_FIB":
        spec = moments.gen_fib_spec(q)
    elif name == "GEN_LUCAS":
        spec = moments.gen_lucas_spec(q)
    elif name == "CARLITZ":
        spec = moments.carlitz_spec(q)
    else:
        raise UsageError(
            f"unknown moment family {args.family!r}; "
            "choose GEN_FIB, GEN_LUCAS, CARLITZ or CLASSICAL"
        )
    values = moments.moments_from_recurrence(spec, args.n + 1)
    if args.format == "json":
        payload = {
            "family": name,
            "q": format_rational(q),
            "rows": [{"m": m, "moment": v.to_json()} for m, v in enumerate(values)],
        }
        json.dump(payload, out, indent=2)
        out.write("\n")
    elif args.format == "csv":
        out.write("m,moment\n" + "".join(f'{m},"{v}"\n' for m, v in enumerate(values)))
    else:
        out.write("".join(f"moment(x^{m}) = {v}\n" for m, v in enumerate(values)))
    return 0


# -- catalan ------------------------------------------------------------


def cmd_catalan(args, out) -> int:
    q = _parse_rational(args.q)
    if args.n < 0:
        raise UsageError("--n must be >= 0")
    if q == 0:
        raise UsageError("q must be nonzero")
    values = [q_catalan(n, q) for n in range(args.n + 1)]
    if args.format == "json":
        payload = {
            "q": format_rational(q),
            "values": [format_rational(v) for v in values],
        }
        json.dump(payload, out, indent=2)
        out.write("\n")
    elif args.format == "csv":
        out.write(
            "n,catalan\n"
            + "".join(f"{n},{format_rational(v)}\n" for n, v in enumerate(values))
        )
    else:
        out.write(", ".join(format_rational(v) for v in values) + "\n")
    return 0


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    handlers = {
        "gen": cmd_gen,
        "verify": cmd_verify,
        "moments": cmd_moments,
        "catalan": cmd_catalan,
    }
    try:
        return handlers[args.command](args, out)
    except (UsageError, PoleError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ZeroDivisionError:
        # a denominator vanishes at these parameters; no output was written yet.
        # The interpreter's own text differs between Python versions.
        print("error: division by zero at these parameters", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
