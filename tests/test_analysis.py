"""q-derivative relations, q-ODEs, weight series, Rodrigues formulae,
generating functions and the pairs of the standalone identities."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcheb import analysis, families, suites
from qcheb.polyring import ONE, S, X, XsPoly, ZERO
from qcheb.qkernel import binom2, q_poch
from qcheb.report import check_range

F = Fraction

QS = (F(2), F(1, 2), F(3, 5), F(7))
CONTEXTS = [
    analysis.SeriesContext(F(2), F(1), 24),
    analysis.SeriesContext(F(3, 5), F(-2), 24),
]


def holds(check):
    """Whether check_range finds every (lhs, rhs) pair of a check's sides equal."""
    return check_range("", None, *check).status == "pass"


@pytest.mark.parametrize("q", QS)
def test_derivative_relations(q):
    assert holds(analysis.deriv_relation_t(12, q))
    assert holds(analysis.deriv_relation_u(12, q))


@pytest.mark.parametrize("q", QS)
def test_q_differential_equations(q):
    assert holds(analysis.qode_check_t(10, q))
    assert holds(analysis.qode_check_u(10, q))


def test_series_context_guards():
    with pytest.raises(ValueError):
        analysis.SeriesContext(F(2), F(0), 10)
    with pytest.raises(ValueError):
        analysis.SeriesContext(F(2), F(1), 1)


def test_series_context_repr_names_its_fields():
    """The repr is the parametrized test id, so it must not carry an address."""
    assert repr(CONTEXTS[1]) == "SeriesContext(q=3/5, s_val=-2, order=24)"


def test_h_coefficients():
    q = F(2)
    h = analysis.h_coeffs(8, q)
    assert len(h) == 8 and analysis.h_coeffs(0, q) == []
    assert h[0] == 1
    assert h[1] == 1 / (1 + q)
    # ratio recursion h_k / h_(k-1) = (1 - q^(2k-1)) / (1 - q^(2k))
    for k in range(1, 8):
        assert h[k] * (1 - q ** (2 * k)) == h[k - 1] * (1 - q ** (2 * k - 1))


def _h_reference(count, q):
    """h_0 .. h_(count-1) by the Fraction loop h_coeffs ran before it used
    integers: each from the one before by (1 - q^(2k-1)) / (1 - q^(2k))."""
    coeffs = [F(1)][:count]
    for k in range(1, count):
        coeffs.append(coeffs[-1] * (1 - q ** (2 * k - 1)) / (1 - q ** (2 * k)))
    return coeffs


@settings(max_examples=100, deadline=None)
@given(
    st.fractions(min_value=-4, max_value=4, max_denominator=5).filter(bool),
    st.integers(0, 12),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)
def test_h_coefficients_match_the_fraction_loop(q, count, c):
    """h_coeffs and h(c x^2) equal the Fraction loop's values, every one a
    Fraction, and at q = +-1, where 1 - q^2 = 0, raise a ZeroDivisionError
    as it does (whose text differs between versions)."""
    if abs(q) == 1 and count >= 2:
        with pytest.raises(ZeroDivisionError):
            _h_reference(count, q)
        with pytest.raises(ZeroDivisionError):
            analysis.h_coeffs(count, q)
        return
    got = analysis.h_coeffs(count, q)
    assert got == _h_reference(count, q) and all(type(h) is F for h in got)
    if abs(q) != 1:
        ctx = analysis.SeriesContext(q, F(1), 2 * count + 2)
        series = analysis.h_of_x_squared(c, ctx)
        want = [h * c**k for k, h in enumerate(_h_reference(count + 1, q))]
        assert series == _x_squared_series(want)


def _x_squared_series(coeffs):
    """sum coeffs[k] x^(2k) as an XsPoly."""
    return XsPoly({(2 * k, 0): c for k, c in enumerate(coeffs)})


def ref_series_recip(coeffs):
    """The reciprocal of the series sum coeffs[k] t^k to t^len(coeffs), by
    the term loop every series inversion ran before 1/h had a closed form,
    kept as the oracle for that closed form."""
    if coeffs[0] == 0:
        raise ZeroDivisionError("constant term is not invertible")
    inv0 = 1 / F(coeffs[0])
    out = [inv0]
    for k in range(1, len(coeffs)):
        acc = None
        for j in range(1, k + 1):
            term = coeffs[j] * out[k - j]
            acc = term if acc is None else acc + term
        out.append(-(inv0 * acc))
    return out


@settings(max_examples=100, deadline=None)
@given(
    st.fractions(min_value=-4, max_value=4, max_denominator=5).filter(bool),
    st.integers(0, 12),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)
def test_inverse_h_matches_the_series_reciprocal(q, count, c):
    """The closed form of 1/h(c x^2) has the coefficients of the term-loop
    reciprocal of h(c x^2), and at q = +-1 raises a ZeroDivisionError, as h
    does."""
    ctx = analysis.SeriesContext(q, F(1), 2 * count + 2)
    if abs(q) == 1 and count >= 1:
        with pytest.raises(ZeroDivisionError):
            analysis.h_of_x_squared(c, ctx)
        with pytest.raises(ZeroDivisionError):
            analysis.inverse_h_of_x_squared(c, ctx)
        return
    h = [h_k * c**k for k, h_k in enumerate(_h_reference(count + 1, q))]
    assert analysis.inverse_h_of_x_squared(c, ctx) == _x_squared_series(ref_series_recip(h))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([F(2), F(3, 5), F(-2, 3), F(7)]), st.integers(0, 29))
def test_h_coefficients_match_the_pochhammer_ratio(q, k):
    """h_k = (q;q^2)_k / (q^2;q^2)_k, each carried from the one before."""
    assert analysis.h_coeffs(k + 1, q)[k] == q_poch(q, q * q, k) / q_poch(q * q, q * q, k)


@pytest.mark.parametrize("ctx", CONTEXTS, ids=str)
def test_h_functional_equation(ctx):
    assert holds(analysis.h_functional_equation_check(ctx))


@pytest.mark.parametrize("ctx", CONTEXTS, ids=str)
def test_inverse_h_inverts_h_to_a_high_order(ctx):
    """At the arguments the Rodrigues rows use, to x^58."""
    q, s = ctx.q, ctx.s_val
    ctx = analysis.SeriesContext(q, s, 58)
    for c in (-1 / s, -1 / (q**7 * s), -q / s):
        product = analysis.h_of_x_squared(c, ctx) * analysis.inverse_h_of_x_squared(c, ctx)
        assert product.mod_x(58) == 1


@pytest.mark.parametrize("ctx", CONTEXTS, ids=str)
def test_pearson_equation(ctx):
    assert holds(analysis.pearson_check(ctx))


@pytest.mark.parametrize("ctx", CONTEXTS, ids=str)
def test_rodrigues_formulae(ctx):
    ctx = analysis.SeriesContext(ctx.q, ctx.s_val, 2 * 12 + 10)
    for n in range(13):
        assert holds(analysis.rodrigues_t(n, ctx))
        assert holds(analysis.rodrigues_u(n, ctx))


def test_a_wrong_inverse_h_fails_every_row_that_reads_it(monkeypatch):
    """1/h(c x^2) with its coefficient of x^2 off by one fails h-functional-eq
    and both Rodrigues rows at both weight contexts, and no other row."""
    original = analysis.inverse_h_of_x_squared
    wrong = lambda c, ctx: original(c, ctx) + XsPoly.monomial(1, 2, 0)
    monkeypatch.setattr(analysis, "inverse_h_of_x_squared", wrong)
    reports = suites.run_suite("all", qs=[F(2)], bs=[F(3, 7)], bounds=suites.bounds_for(4))
    failing = {(r.identity_id, r.point.q) for r in reports if r.status == "fail"}
    rows = ("h-functional-eq", "eq-5.25", "eq-5.26")
    assert failing == {(row, q) for row in rows for q, _ in suites.WEIGHT_CONTEXTS}


def test_rodrigues_needs_enough_order():
    ctx = analysis.SeriesContext(F(2), F(1), 12)
    with pytest.raises(ValueError):
        analysis.rodrigues_t(4, ctx)


def test_genfun_low_coefficients():
    q = F(2)
    u = analysis._genfun(4, q, 1).weight_parts()
    assert u[0] == families.cheb_u(0, q)
    assert u[1] == families.cheb_u(1, q)


def _z_series_mul(a, b):
    """The product of two series in z, each a list of its z-coefficients
    (XsPolys), by the plain convolution, cut at the length of a: the pair
    loop of test_polyring.ref_series_mul over XsPoly coefficients."""
    coeffs = [ZERO] * len(a)
    for i, c in enumerate(a):
        for j in range(len(a) - i):
            coeffs[i + j] = coeffs[i + j] + c * b[j]
    return coeffs


def _geom(c, order):
    """1 / (1 - c z) to z^order: the z-coefficients c^k."""
    coeffs = [ONE]
    while len(coeffs) < order:
        coeffs.append(coeffs[-1] * c)
    return coeffs[:order]


def _genfun_reference(order, q, shift):
    """The z-coefficients of sum_k q^C(k+shift,2) z^k prod_{j<k} (x + q^(j+1-shift) s z) /
    prod_{j<k+shift} (1 - q^j x z), each term built from its own factors as
    lists of XsPolys: the U sum at shift 1, the T sum at shift 0."""
    total = [ZERO] * order
    for k in range(order):
        term = ([ZERO] * k + [XsPoly.const(q ** binom2(k + shift))] + [ZERO] * order)[:order]
        for j in range(k):
            term = _z_series_mul(term, [X, S.scale(q ** (j + 1 - shift))] + [ZERO] * order)
        for j in range(k + shift):
            term = _z_series_mul(term, _geom(X.scale(q**j), order))
        total = [a + b for a, b in zip(total, term)]
    return total


@pytest.mark.parametrize("q", QS + (F(-2, 3), F(1)), ids=str)
def test_generating_function_sums_match_their_termwise_definition(q):
    """The z^n coefficient of each sum is the weight-n part of _genfun, and
    _genfun has no part of weight order or more."""
    for order in (1, 2, 7):
        for shift in (1, 0):
            parts = analysis._genfun(order, q, shift).weight_parts()
            assert set(parts) <= set(range(order))
            assert [parts.get(n, ZERO) for n in range(order)] == _genfun_reference(order, q, shift)


@pytest.mark.parametrize("q", (F(2), F(-2, 3), F(1)), ids=str)
def test_the_weight_cut_changes_no_coefficient_below_the_order(q):
    """Cutting each product at the order drops only what the uncut sum,
    taken to a higher order, has at weight order or more."""
    for order in (1, 5, 9):
        for shift in (1, 0):
            cut = analysis._genfun(order, q, shift)
            assert cut == analysis._genfun(order + 4, q, shift).mod_weight(order)


@pytest.mark.parametrize("q", (F(2), F(1, 2)))
def test_generating_functions(q):
    assert holds(analysis.genfun_check(10, q))


def test_a_wrong_weight_part_of_the_u_sum_fails_the_generating_function_row(monkeypatch):
    """The U sum with its weight-3 part off by x^3 fails eq-5.37-5.38 through
    check_range, with the witness at n = 3."""
    original = analysis._genfun
    # x^3 times shift: added to the U sum (shift 1), nothing added to the T sum
    wrong = lambda order, q, shift: original(order, q, shift) + XsPoly.monomial(shift, 3, 0)
    monkeypatch.setattr(analysis, "_genfun", wrong)
    report = check_range("eq-5.37-5.38", None, *analysis.genfun_check(8, F(2)))
    assert report.status == "fail" and report.witness["n"] == 3
    assert report.witness["lhs"] == families.cheb_u(3, F(2)) + XsPoly.monomial(1, 3, 0)
    reports = suites.run_suite("core", qs=[F(2)], bs=[F(3, 7)], bounds=suites.bounds_for(4))
    assert {r.identity_id for r in reports if r.status == "fail"} == {"eq-5.37-5.38"}


def _registry_rows():
    core, _ = suites.checks()
    return [row for row in core if row.bound == "registry"]


@pytest.mark.parametrize("row", _registry_rows(), ids=lambda row: row.id)
def test_registry_identities(row):
    for q in (F(2), F(1, 2)):
        report = check_range(row.id, None, *row.fn(10, q))
        assert report.status == "pass", (row.id, q, report.witness)


def test_registry_run_aggregates():
    bounds = dict(suites.bounds_for(2), registry=6)
    reports = suites.run_suite("core", qs=(F(2),), bounds=bounds)
    ids = {row.id for row in _registry_rows()}
    registry = [r for r in reports if r.identity_id in ids]
    assert len(registry) == len(ids) == 17
    # eq-5.31 and eq-5.32 run to half the bound
    assert all(r.status == "pass" and r.index_range[1] in (3, 6) for r in registry)
    assert {r.identity_id for r in registry if r.index_range[1] == 3} == {"eq-5.31", "eq-5.32"}
    # each report is tagged with its q sample (b plays no role)
    assert {(r.point.q, r.point.b) for r in registry} == {(F(2), F(0))}
