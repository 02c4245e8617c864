"""Command-line front end: generate family tables, run verification suites,
compute moments and q-Catalan numbers, and emit JSON/CSV/text reports.

Exit codes: 0 = success / all identities pass, 1 = at least one identity
failure, 2 = usage or parameter error, 141 (128 + SIGPIPE) = the reader
closed stdout before all of the output was written, as `qcheb gen ... | head`
does; nothing is printed for it.  Rationals are always serialized as
lowest-terms "num/den" strings.

Each command's handler returns its exit code and its output in pieces, and
main is the one place that writes them, one piece per write, then flushes.
A piece is a row, a report line, a value or, for gen, a term, never a whole
table: one write() past the pipe's size is cut short without an error when
the reader closes, and the command would exit 0, not 141.  No command writes
before every number it will print has been built and checked against
Python's int-to-str digit limit, so an error, such as a pole or a number
past the digit limit, exits 2 with nothing written to stdout.  `verify`,
`moments` and `catalan` render all of their pieces first, and meet any such
error while rendering.  `gen` walks its family twice
(families.family_walk, which holds two members of a recurrence at a time:
the primary's, or for F_CARLITZ the oracle's, and for L_TRACE two of each
of the two Fibonacci walks it adds): the first walk builds and checks each
member, by _check_digits, and drops it, stopping at the first error; the
second builds the members again as main writes them.  Each command runs in
one qkernel.memo_scope, which drops its memos.

Startup: each command loads only the modules it runs.  `gen` and `catalan`
need nothing beyond what `import qcheb` loads; `moments` imports
qcheb.moments inside its handler, and `verify` is the one command that loads
the suites, inside its handler.
"""

import argparse
import json
import os
import sys
from fractions import Fraction
from collections.abc import Iterator
from itertools import chain, islice

from . import families
from .polyring import format_rational
from .qkernel import ParamPoint, PoleError, memo_scope, q_catalan


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
        "--family", default="GEN_FIB", help="moment family; an unknown name lists the valid ones"
    )
    mom.add_argument("--n", type=int, required=True)
    mom.add_argument("--q", default="2", help='rational q as "num/den"')
    mom.add_argument("--format", choices=("json", "csv", "text"), default="text")

    cat = sub.add_parser("catalan", help="print q-Catalan numbers C_0 .. C_N")
    cat.add_argument("--n", type=int, required=True)
    cat.add_argument("--q", default="1", help='rational q as "num/den"')
    cat.add_argument("--format", choices=("json", "csv", "text"), default="text")

    return parser


# -- rendering tables ---------------------------------------------------


def _check_digits(polys, base):
    """Raise, before anything is written, the ValueError that str() would
    raise on the first integer gen writes past Python's int-to-str digit
    limit.  polys are XsPolys, in print order.  A denominator base^e is
    written from a Decimal, not by str(), so this check alone stops one past
    the limit.

    abs(n) >= 10**limit holds exactly when str(n) raises.  A polynomial is
    reduced to its lowest-terms coefficients, by XsPoly._lowest_terms(base),
    only when its unreduced numerators or shared denominator cross that
    bound."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # absent on older Pythons
    if not limit:
        return
    bound = 10**limit
    for p in polys:
        if p.den < bound and all(-bound < c < bound for c in p.num.values()):
            continue
        for _, n, e, d in p._lowest_terms(base):
            for i in (n, base**e if d is None else d):
                if abs(i) >= bound:
                    str(i)  # raises Python's own error for it


def _json_value(value, at):
    """json.dumps(value, indent=2), with at after each newline."""
    return json.dumps(value, indent=2).replace("\n", at)


def _json_term(term, at):
    """_json_value(term, at) for an entry of XsPoly.to_json()["terms"]: two
    ints and a string of digits, "-" and "/", which needs no escaping.  The
    indenting encoder is pure Python, and one call costs about as much as
    the rest of writing a term."""
    inner = at + "  "
    return f'{{{inner}"dx": {term["dx"]},{inner}"ds": {term["ds"]},{inner}"c": "{term["c"]}"{at}}}'


def _json_pieces(template, items, depth=0, render=_json_value):
    """The text of json.dumps(template, indent=2), with items in place of the
    one-item list [None] that template holds, in pieces: the text up to the
    first item with it, each further item, and the closing brackets.

    At depth 0 the text ends with a newline; at depth d every line after the
    first is indented d levels further, and there is no newline at the end.
    An item is a JSON value, written by render(item, at) with at a newline
    and the items' indentation, or an iterator over the pieces of a
    _json_pieces text at the depth of the list's items."""
    pad = "\n" + "  " * depth
    head, tail = json.dumps(template, indent=2).replace("\n", pad).rsplit("null", 1)
    at = head[head.rindex("\n"):]  # a newline and the items' indentation
    sep = head
    for item in items:
        if isinstance(item, Iterator):
            yield sep + next(item, "")
            yield from item
        else:
            yield sep + render(item, at)
        sep = "," + at
    if sep is head:  # no items: the list is []
        tail = head.rstrip() + tail.lstrip()
    yield tail if depth else tail + "\n"


def _line_pieces(head, poly, tail, base):
    """head + str(poly) + tail in pieces: head with poly's first term, each
    further term, and tail; base as in XsPoly._lowest_terms."""
    pieces = poly.str_pieces(base)
    yield head + next(pieces)
    yield from pieces
    yield tail


# -- gen ----------------------------------------------------------------


def cmd_gen(args):
    family = _parse_family(args.family)
    q = _parse_rational(args.q)
    b = _parse_rational(args.b)
    if args.n < 0:
        raise UsageError("--n must be >= 0")
    fixed_b = families.FAMILIES[family].fixed_b
    point = ParamPoint(q, b if fixed_b is None else fixed_b)  # the point the rows are at
    base = point.q.denominator  # the denominators of T, U, F_CARLITZ, ... are its powers

    def rows():  # one walk of the members 0 .. n, each built once and dropped
        return enumerate(islice(families.family_walk(family, point), args.n + 1))

    if args.format == "json":
        template = {"family": family.value, "q": format_rational(q), "b": format_rational(point.b),
                    "rows": [None]}
        pieces = _json_pieces(template, (
            _json_pieces({"n": n, "poly": {"terms": [None]}}, poly.json_terms(base), 2, _json_term)
            for n, poly in rows()
        ))
    elif args.format == "csv":
        pieces = chain(["n,poly\n"], chain.from_iterable(
            _line_pieces(f'{n},"', poly, '"\n', base) for n, poly in rows()
        ))
    else:
        pieces = chain.from_iterable(
            _line_pieces(f"{family.value}_{n} = ", poly, "\n", base) for n, poly in rows()
        )
    _check_digits((poly for _, poly in rows()), base)  # one walk checked, another written
    return 0, pieces


# -- verify -------------------------------------------------------------


def _report_pieces(reports, counts, fmt):
    """The reports rendered in full: in json one piece per report, else one
    per line."""
    if fmt == "json":
        return list(_json_pieces({"summary": counts, "reports": [None]},
                                 [r.to_json() for r in reports]))
    if fmt == "csv":
        lines = ["identity_id,q,b,n_lo,n_hi,status\n"]
        for r in reports:
            q = format_rational(r.point.q) if r.point else ""
            b = format_rational(r.point.b) if r.point else ""
            lo, hi = r.index_range
            lines.append(f"{r.identity_id},{q},{b},{lo},{hi},{r.status}\n")
        return lines
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
    return lines


def cmd_verify(args):
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
    return (0 if counts["fail"] == 0 else 1), _report_pieces(reports, counts, args.format)


# -- moments ------------------------------------------------------------


def cmd_moments(args):
    from . import moments

    q = _parse_rational(args.q)
    if args.n < 0:
        raise UsageError("--n must be >= 0")
    name = args.family.upper()
    if name not in moments.SPECS:
        valid = ", ".join(moments.SPECS)
        raise UsageError(f"unknown moment family {args.family!r}; choose from {valid}")
    spec = moments.SPECS[name](q)
    rows = enumerate(moments.moments_from_recurrence(spec, args.n + 1))
    if args.format == "json":
        pieces = _json_pieces(
            {"family": name, "q": format_rational(spec.q), "rows": [None]},
            ({"m": m, "moment": v.to_json()} for m, v in rows),
        )
    elif args.format == "csv":
        pieces = chain(["m,moment\n"], (f'{m},"{v}"\n' for m, v in rows))
    else:
        pieces = (f"moment(x^{m}) = {v}\n" for m, v in rows)
    return 0, list(pieces)


# -- catalan ------------------------------------------------------------


def cmd_catalan(args):
    q = _parse_rational(args.q)
    if args.n < 0:
        raise UsageError("--n must be >= 0")
    if q == 0:
        raise UsageError("q must be nonzero")
    values = [format_rational(q_catalan(n, q)) for n in range(args.n + 1)]
    if args.format == "json":
        return 0, list(_json_pieces({"q": format_rational(q), "values": [None]}, values))
    if args.format == "csv":
        return 0, ["n,catalan\n", *(f"{n},{v}\n" for n, v in enumerate(values))]
    return 0, [v + ", " for v in values[:-1]] + [values[-1] + "\n"]  # one line


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
        with memo_scope():
            code, pieces = handlers[args.command](args)
            for piece in pieces:  # a row, a report line, a value, or for gen a term
                out.write(piece)
        out.flush()  # so that a closed pipe is met here, not at exit
        return code
    except BrokenPipeError:
        # the reader stopped reading, as `| head` does.  Point stdout at
        # devnull so that the flush at exit cannot fail again (the recipe of
        # Python's signal module docs), and exit as a process killed by SIGPIPE.
        if out is sys.stdout:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
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
