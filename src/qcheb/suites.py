"""Verification suites: one table of checks, expanded over its sample
scopes into the "core", "extended" and "all" suites, run serially, and
returned as deterministically ordered reports.

The classical (q = 1) reductions live here as well: they compare the q-family
generators against independently computed classical Fibonacci / Lucas /
Chebyshev polynomials and the floating-point Binet values.
"""

import math
from fractions import Fraction
from functools import partial
from typing import Callable, NamedTuple, Optional

from . import analysis, families, matrixids, moments, operators
from .polyring import ONE, S, X, XsPoly
from .qkernel import DEFAULT_QS, ParamPoint, PoleError, memo_scope, sample_points, sequence
from .report import IdentityReport, check_range, skipped

# Index bounds per key: (default, value under `verify --max-n m`).  The
# defaults keep `verify --suite all` well under a minute while exercising
# every identity nontrivially; a key whose rule is None keeps its default
# under --max-n.
BOUNDS = {
    "dual": (24, lambda m: m),
    "third_route": (12, lambda m: min(m, 14)),
    "negative": (8, lambda m: min(m, 10)),
    "cassini": ((-5, 16), lambda m: (-min(m, 6), m)),
    "cassini_euler": ((10, 5), lambda m: (min(m, 12), 6)),
    "matrix": (8, lambda m: min(m, 10)),
    "trace": (8, lambda m: min(m, 10)),
    "det": (16, lambda m: m),
    "det_sqrt": (10, lambda m: min(m, 12)),
    "tridiag": (12, lambda m: min(m, 14)),
    "moments": (10, lambda m: min(m, 12)),
    "classical_moments": (8, None),
    "reconstruct": (12, lambda m: min(m, 14)),
    "orthogonality": (8, None),
    "deriv": (16, lambda m: m),
    "qode": (14, lambda m: min(m, 16)),
    "series_order": (24, None),
    "genfun": (12, lambda m: min(m, 16)),
    "registry": (14, lambda m: m),
    "binet_sum": (12, lambda m: min(m, 14)),
    "classical": (12, lambda m: min(m, 12)),
    "binet_float": (20, None),
    "schlosser": (8, lambda m: min(m, 10)),
    "fib_words": (12, lambda m: min(m, 14)),
    "rodrigues": (6, lambda m: min(m, 8)),
}


def bounds_for(max_n=None):
    """The value of every bound key: its default, or its --max-n rule at max_n."""
    return {
        key: default if max_n is None or rule is None else rule(max_n)
        for key, (default, rule) in BOUNDS.items()
    }


SQRT_SAMPLES = (Fraction(2), Fraction(1, 2), Fraction(3))
WEIGHT_CONTEXTS = ((Fraction(2), Fraction(1)), (Fraction(3, 5), Fraction(-2)))


def _label(q):
    """A b-free point used purely to tag reports of q-only identities."""
    return ParamPoint(q, Fraction(0))


def _word_point(q):
    """The point at which the extended suite runs the word-operator checks."""
    return ParamPoint(q, Fraction(3, 7))


# -- dual-route checks through the dispatch surface --------------------


def dual_route_check(family, point, n_max):
    """family_poly against the family's oracle."""
    spec = families.FAMILIES[family]

    def sides(n):
        yield families.family_poly(family, n, point), spec.oracle(n, point)

    return range(spec.lowest_n, n_max + 1), sides


def third_route_check(n_max, point):
    """The parameter-dilated recurrences and the Fibonacci/Lucas relation."""
    f = families

    def sides(n):
        yield f.fib_qb(n, point), f.fib_qb_dilated(n, point)
        lucas = f.lucas_qb(n, point)
        yield lucas, f.lucas_qb_dilated(n, point)
        if n >= 1:
            yield lucas, f.lucas_qb_relation(n, point)

    return range(n_max + 1), sides


def negative_index_check(n_max, point):
    """Closed-form negative-index extensions against backward recurrences."""
    f = families
    q = point.q

    def sides(m):
        yield f.fib_qb_ext(-m, point), f.fib_qb_backward(-m, point)
        if m >= 1:
            yield f.lucas_trace_neg_closed(m, point), f.lucas_trace(-m, point)
        yield f.cheb_u_ext(-m, q), f.cheb_u_backward(-m, q)
        yield f.cheb_t_ext(-m, q), f.cheb_t_backward(-m, q)

    return range(n_max + 1), sides


def gen_lucas_negative_check(n_max, q):
    def sides(m):
        yield families.gen_lucas_neg_closed(m, q), families.gen_lucas_backward(-m, q)

    return range(1, n_max + 1), sides


# -- operator Binet-like sums ------------------------------------------


def binet_sum_check(n_max, q):
    """Even/odd word-product sums equal T_n and U_n, including the coupled
    product iteration."""

    def sides(n):
        yield operators.binet_t(n, q), families.cheb_t(n, q)
        yield operators.binet_u(n, q), families.cheb_u(n, q)
        t_part, u_part = operators.binet_product_parts(n, q)
        yield t_part, families.cheb_t(n, q)
        yield u_part, families.cheb_u(n - 1, q) if n >= 1 else XsPoly.zero()

    return range(n_max + 1), sides


# -- matrix checks wrapped as reports ----------------------------------


def _matrix_check(kind, n_max, at):
    """The product of n transfer matrices, matrixids.<kind>_product(n, at),
    against its entries matrixids.<kind>_expected(n, at), 1 <= n <= n_max;
    both routes are looked up by name when called."""
    product = getattr(matrixids, f"{kind}_product")
    expected = getattr(matrixids, f"{kind}_expected")
    return range(1, n_max + 1), lambda n: [(product(n, at).entries(), expected(n, at).entries())]


fib_matrix_check = partial(_matrix_check, "fib_matrix")  # at a point
cheb_matrix_check = partial(_matrix_check, "cheb_matrix")  # at a q


def tridiag_check(n_max, q):
    return range(1, n_max + 1), lambda n: [(
        (matrixids.tridiag_u(n, q), matrixids.tridiag_t(n, q)),
        (families.cheb_u(n, q), families.cheb_t(n, q)),
    )]


def cassini_range_check(point, lo, hi):
    return range(lo, hi + 1), lambda n: [matrixids.cassini_sides(n, point)]


def cassini_euler_grid_check(point, n_max, k_max):
    """Cassini-Euler over the grid 1 <= n <= n_max, 1 <= k <= k_max, indexed
    by (n, k) and reported over n."""
    grid = [(n, k) for n in range(1, n_max + 1) for k in range(1, k_max + 1)]
    return grid, lambda nk: [matrixids.cassini_euler_sides(*nk, point)], (1, n_max)


def reconstruction_check(n_max, q):
    """x^n rebuilt from its Fibonacci- and Lucas-basis expansions."""

    def sides(n):
        power = XsPoly.monomial(1, n, 0)
        yield moments.reconstruct_x_fib(n, q), power
        yield moments.reconstruct_x_lucas(n, q), power

    return range(n_max + 1), sides


# -- classical (q = 1) reductions --------------------------------------


def _classical(n, p0, p1, x):
    """P_n, n >= 0, of the classical recurrence P_m = x P_(m-1) + s P_(m-2)
    from P_0 = p0 and P_1 = p1."""
    return _classical_walk(n, p0, p1, x)


_classical_walk = sequence(
    lambda p0, p1, x: (p0, p1), lambda m, p, p0, p1, x: x * p[m - 1] + S * p[m - 2]
)
_classical_fib = partial(_classical, p0=XsPoly.zero(), p1=ONE, x=X)
_classical_lucas = partial(_classical, p0=XsPoly.const(2), p1=X, x=X)


def classical_families_check(n_max):
    """q = 1 reductions of the Fibonacci and Lucas generators: the classical
    recurrences, the binomial closed forms, and the trace identity
    L_n = F_(n+1) + s F_(n-1)."""
    one = Fraction(1)
    point = _label(one)

    def sides(n):
        fib = families.fib_carlitz(n, one)
        yield fib, _classical_fib(n)
        closed = XsPoly.zero()
        for k in range((n - 1) // 2 + 1):
            closed = closed + XsPoly.monomial(math.comb(n - 1 - k, k), n - 1 - 2 * k, k)
        yield fib, closed
        if n < 1:
            return
        lucas = families.lucas_trace(n, point).as_poly()
        yield lucas, _classical_lucas(n)
        lucas_closed = XsPoly.zero()
        for k in range(n // 2 + 1):
            c = Fraction(n, n - k) * math.comb(n - k, k)
            lucas_closed = lucas_closed + XsPoly.monomial(c, n - 2 * k, k)
        yield lucas, lucas_closed
        yield lucas, _classical_fib(n + 1) + S * _classical_fib(n - 1)

    return range(n_max + 1), sides


def classical_cheb_check(n_max):
    """q = 1 reductions of T and U: the doubled-x recurrences and the scaling
    relations T_n(x,s) = 2^(n-1) L_n(x,s/4), U_n(x,s) = 2^n F_(n+1)(x,s/4)."""
    one = Fraction(1)
    quarter = Fraction(1, 4)
    two_x = X.scale(2)

    def sides(n):
        t = families.cheb_t(n, one)
        yield t, _classical(n, ONE, X, two_x)
        u = families.cheb_u(n, one)
        yield u, _classical(n, ONE, two_x, two_x)
        if n >= 1:
            yield t, _classical_lucas(n).dilate(quarter, 0, 1).scale(2 ** (n - 1))
        yield u, _classical_fib(n + 1).dilate(quarter, 0, 1).scale(2**n)

    return range(n_max + 1), sides


def classical_pell_check(n_max):
    """T_n^2 - (x^2 - 1) U_(n-1)^2 = 1 at q = 1, s = -1."""
    one = Fraction(1)

    def sides(n):
        t = families.cheb_t(n, one).subs_s(Fraction(-1))
        u = families.cheb_u(n - 1, one).subs_s(Fraction(-1)) if n >= 1 else XsPoly.zero()
        yield t * t - (X * X - ONE) * u * u, ONE

    return range(n_max + 1), sides


BINET_X, BINET_S, BINET_TOL = 3.0, 1.0, 1e-6


def _near(value, expect):
    """value where it agrees with expect within the relative tolerance
    BINET_TOL (the float Binet oracle is the only inexact comparison), else
    expect: so (value, _near(value, expect)) is unequal only where they differ."""
    return value if abs(value - expect) <= BINET_TOL * max(1.0, abs(expect)) else expect


def classical_binet_check(n_max):
    """Float Binet values against the q = 1 polynomials at (x, s) = (3, 1)."""
    disc = (BINET_X * BINET_X + 4 * BINET_S) ** 0.5
    alpha = (BINET_X + disc) / 2
    beta = (BINET_X - disc) / 2

    def sides(n):
        fib = families.fib_carlitz(n, Fraction(1)).evalf(BINET_X, BINET_S)
        yield fib, _near(fib, families.binet_float_fib(n, BINET_X, BINET_S))
        lucas = _classical_lucas(n).evalf(BINET_X, BINET_S)
        yield lucas, _near(lucas, alpha**n + beta**n)

    return range(n_max + 1), sides


# -- the table of checks ----------------------------------------------


class Check(NamedTuple):
    """One identity, named by id and checked at every sample of its scope.
    fn(bound, *sample) (fn(*sample) when bound is None) returns what the
    check compares: its indices, a sides(n) that yields the (lhs, rhs) pairs
    at index n and, where the report's index range is not the least and
    greatest index, that range.  The samples of each scope:

    q          q for each q sample
    point      each (q, b) sample point (of the default b grid, those
               pole-free at b-levels 0..39)
    neg_point  the same (of the default grid, also pole-free at -12..-1)
    word       (q, 3/7) for each q sample
    sqrt       each r of SQRT_SAMPLES, reported at q = r^2
    weight     each (q, s) of WEIGHT_CONTEXTS
    rodrigues  (q, s) of WEIGHT_CONTEXTS and n for 0 <= n <= the rodrigues bound
    classical  once, with no sample, reported at (1, 0)
    fixed      once, with no sample

    A row is skipped at a sample exactly where one of its denominators
    vanishes (it raises ZeroDivisionError, PoleError included).
    """

    id: str
    scope: str
    fn: Callable
    bound: Optional[str]


def _dual_row(family):
    if families.FAMILIES[family].b_free:
        return Check(
            f"dual-{family.value}", "point",
            lambda n, p: dual_route_check(family, p, n), "dual",
        )
    return Check(
        f"dual-{family.value}", "q",
        lambda n, q: dual_route_check(family, _label(q), n), "dual",
    )


def _series(check):
    """A weight-series check run at the series order bound."""
    return lambda order, w: check(analysis.SeriesContext(*w, order))


def _rodrigues(check):
    """A Rodrigues check of T_n or U_n, at the series order its n needs."""
    return lambda n_max, w, n: check(n, analysis.SeriesContext(*w, 2 * n_max + 10))


def _pairs(fn, n_max, q):
    """A check of the pairs fn(n, q) of a standalone identity, 0 <= n <= n_max."""
    return range(n_max + 1), partial(fn, q=q)


def checks():
    """The table of checks as (core rows, extended rows): the one place each
    identity is named."""
    core = [
        *(_dual_row(family) for family in families.FamilyId),
        Check("eq-2.8-3.6", "point", third_route_check, "third_route"),
        Check("negative-index", "neg_point", negative_index_check, "negative"),
        Check("eq-4.6", "q", gen_lucas_negative_check, "negative"),
        Check("eq-5.12-5.14", "q", binet_sum_check, "binet_sum"),
        # matrices and determinant identities
        Check("eq-2.30", "point", fib_matrix_check, "matrix"),
        Check("eq-3.1", "point", matrixids.trace_lucas_check, "trace"),
        Check(
            "eq-2.33", "point",
            lambda bound, p: cassini_euler_grid_check(p, *bound), "cassini_euler",
        ),
        Check(
            "eq-2.31", "neg_point",
            lambda bound, p: cassini_range_check(p, *bound), "cassini",
        ),
        Check("eq-5.15", "q", cheb_matrix_check, "matrix"),
        Check("eq-5.16", "q", matrixids.det_identity_check, "det"),
        Check("eq-5.39-5.40", "q", tridiag_check, "tridiag"),
        Check("eq-5.17", "sqrt", matrixids.det_identity_sqrt_check, "det_sqrt"),
        # moments
        Check(
            "eq-4.10", "q",
            partial(moments.moment_consistency_check, moments.gen_fib_spec,
                    moments.moments_fib_closed),
            "moments",
        ),
        Check(
            "eq-4.14", "q",
            partial(moments.moment_consistency_check, moments.gen_lucas_spec,
                    moments.moments_lucas_closed),
            "moments",
        ),
        Check("carlitz-moments", "q", moments.carlitz_moment_check, "moments"),
        Check("eq-4.9-4.13", "q", reconstruction_check, "reconstruct"),
        Check("orthogonality", "q", moments.orthogonality_check, "orthogonality"),
        Check("nonorthogonality", "q", moments.nonorthogonality_witness, None),
        Check("eq-4.7-4.8", "fixed", moments.classical_moment_check, "classical_moments"),
        # q-analysis
        Check("eq-5.18", "q", analysis.deriv_relation_t, "deriv"),
        Check("eq-5.19", "q", analysis.deriv_relation_u, "deriv"),
        Check("eq-5.20-5.22", "q", analysis.qode_check_t, "qode"),
        Check("eq-5.21-5.23", "q", analysis.qode_check_u, "qode"),
        Check("eq-5.37-5.38", "q", analysis.genfun_check, "genfun"),
        # standalone identities; eq-5.31 and eq-5.32 take n as the free index of
        # their paired-index display, U_(2n+1) and U_(2n), so they run to half the bound
        Check("eq-2.28", "q", partial(_pairs, analysis.hypergeom_fib_pairs), "registry"),
        Check("eq-4.3", "q", partial(_pairs, analysis.hypergeom_lucas_pairs), "registry"),
        Check("eq-4.4", "q", partial(_pairs, analysis.lucas_from_fib_pairs), "registry"),
        Check("eq-4.5", "q", partial(_pairs, analysis.lucas_from_dilated_fib_pairs), "registry"),
        Check("eq-5.9", "q", partial(_pairs, analysis.t_from_u_pairs), "registry"),
        Check("eq-5.27", "q", partial(_pairs, analysis.t_from_u_pairs), "registry"),
        Check("eq-5.10", "q", partial(_pairs, analysis.t_step_pairs), "registry"),
        Check("eq-5.11", "q", partial(_pairs, analysis.lucas_step_pairs), "registry"),
        Check("eq-5.28", "q", partial(_pairs, analysis.u_as_t_sum_pairs), "registry"),
        Check("eq-5.29", "q", partial(_pairs, analysis.u_step_pairs), "registry"),
        Check("eq-5.30", "q", partial(_pairs, analysis.t_from_two_u_pairs), "registry"),
        Check("eq-5.31", "q", lambda m, q: _pairs(analysis.odd_u_pairs, m // 2, q), "registry"),
        Check("eq-5.32", "q", lambda m, q: _pairs(analysis.even_u_pairs, m // 2, q), "registry"),
        Check("eq-5.33", "q", partial(_pairs, analysis.t_s_difference_pairs), "registry"),
        Check("eq-5.34", "q", partial(_pairs, analysis.t_from_dilated_u_pairs), "registry"),
        Check("eq-5.35", "q", partial(_pairs, analysis.t_x_difference_pairs), "registry"),
        Check("eq-5.36", "q", partial(_pairs, analysis.t_and_u_step_pairs), "registry"),
        Check(
            "h-functional-eq", "weight",
            _series(analysis.h_functional_equation_check), "series_order",
        ),
        Check("pearson", "weight", _series(analysis.pearson_check), "series_order"),
        # classical limit
        Check("classical-fib-lucas", "classical", classical_families_check, "classical"),
        Check("classical-cheb", "classical", classical_cheb_check, "classical"),
        Check("classical-pell", "classical", classical_pell_check, "classical"),
        Check("classical-binet", "classical", classical_binet_check, "binet_float"),
    ]
    extended = [
        Check("eq-2.13..15", "word", operators.commutation_check, None),
        Check("eq-2.16..21", "word", operators.schlosser_binomial_check, "schlosser"),
        Check("eq-2.24", "word", operators.fib_word_check, "fib_words"),
        Check("eq-5.25", "rodrigues", _rodrigues(analysis.rodrigues_t), "rodrigues"),
        Check("eq-5.26", "rodrigues", _rodrigues(analysis.rodrigues_u), "rodrigues"),
    ]
    return core, extended


# -- the runner --------------------------------------------------------


def _run(runs):
    """Run each (row, args, label) of runs in one memo_scope: check_range compares
    what the row's check returns and reports under the row's id at the sample's
    label.  At a pole the row is skipped, with the PoleError's message as the
    reason (a bare ZeroDivisionError's text differs between versions)."""
    reports = []
    with memo_scope():
        for row, args, label in runs:
            try:
                reports.append(check_range(row.id, label, *row.fn(*args)))
            except ZeroDivisionError as exc:
                reason = str(exc) if isinstance(exc, PoleError) else "division by zero"
                reports.append(skipped(row.id, label, (0, 0), reason))
    return reports


def build_work_items(suite="core", qs=None, bs=None, bounds=None):
    """The zero-argument callables making up a suite run, one per q of the
    samples' labels (every memo key holds q) and one for the fixed rows, each
    running its rows in table order.  `bounds` overrides any bound key."""
    core, extended = checks()
    rows = {"core": core, "extended": extended, "all": core + extended}.get(suite)
    if rows is None:
        raise ValueError(f"unknown suite {suite!r}")
    bounds = dict(bounds_for(), **(bounds or {}))
    qs = tuple(qs) if qs is not None else DEFAULT_QS
    if bs is None:
        points = sample_points(levels=range(0, 40), qs=qs)
        neg_points = [p for p in points if p.is_pole_free(range(-12, 0))]
    else:
        # every point the caller names runs, and meets its poles row by row
        points = neg_points = [ParamPoint(q, b) for q in qs for b in bs]
    # scope -> (report label, fn arguments) per sample
    samples = {
        "q": [(_label(q), (q,)) for q in qs],
        "point": [(p, (p,)) for p in points],
        "neg_point": [(p, (p,)) for p in neg_points],
        "word": [(p, (p,)) for p in map(_word_point, qs)],
        "sqrt": [(_label(r * r), (r,)) for r in SQRT_SAMPLES],
        "weight": [(_label(w[0]), (w,)) for w in WEIGHT_CONTEXTS],
        "rodrigues": [
            (_label(w[0]), (w, n))
            for w in WEIGHT_CONTEXTS
            for n in range(bounds["rodrigues"] + 1)
        ],
        "classical": [(_label(Fraction(1)), ())],
        "fixed": [(None, ())],
    }
    groups = {}
    for row in rows:
        bound = () if row.bound is None else (bounds[row.bound],)
        for label, args in samples[row.scope]:
            groups.setdefault(label and label.q, []).append((row, bound + args, label))
    return [partial(_run, runs) for runs in groups.values()]


def run_suite(suite="core", qs=None, bs=None, parallelism=1, bounds=None):
    """Run a suite and return its reports sorted by (identity, point, range).

    The items run one after another in the calling thread; `parallelism` is
    accepted for callers that pass it and changes nothing."""
    items = build_work_items(suite, qs=qs, bs=bs, bounds=bounds)
    return sorted((r for item in items for r in item()), key=IdentityReport.sort_key)


def summarize(reports):
    counts = {"pass": 0, "fail": 0, "skipped": 0}
    for r in reports:
        counts[r.status] += 1
    return counts
