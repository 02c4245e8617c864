"""Polynomial ring layer: XsPoly arithmetic, dilation, q-derivative,
serialization, negative powers of s, 2x2 matrices and truncated series."""

import contextlib
import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcheb.polyring import ONE, S, X, XsPoly, ZERO, Mat2, _format_ratio, format_rational
from qcheb.qkernel import q_int

F = Fraction

rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=12
)

polys = st.dictionaries(
    st.tuples(st.integers(0, 5), st.integers(0, 4)),
    rationals,
    max_size=6,
).map(XsPoly)

laurent_dicts = st.dictionaries(
    st.tuples(st.integers(0, 5), st.integers(-4, 4)),
    rationals,
    max_size=6,
)
laurent = laurent_dicts.map(XsPoly)


# -- reference: one Fraction per term, {(deg_x, deg_s): Fraction} -----------
#
# The arithmetic XsPoly used before it stored integer numerators over one
# denominator, kept as the oracle for the kernel.


def ref_clean(terms):
    return {k: F(c) for k, c in terms.items() if c != 0}


def ref_add(a, b):
    terms = dict(a)
    for key, c in b.items():
        terms[key] = terms.get(key, F(0)) + c
    return ref_clean(terms)


def ref_mul(a, b):
    terms = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            key = (i1 + i2, j1 + j2)
            terms[key] = terms.get(key, F(0)) + c1 * c2
    return ref_clean(terms)


def ref_scale(a, c):
    return ref_clean({k: v * c for k, v in a.items()})


def ref_dilate(a, q, m_x, m_s):
    return ref_clean({(dx, ds): c * q ** (m_x * dx + m_s * ds) for (dx, ds), c in a.items()})


def ref_lower_x(a, factor):
    return ref_clean({(dx - 1, ds): c * factor(dx) for (dx, ds), c in a.items() if dx >= 1})


def ref_subs_s(a, s_val):
    terms = {}
    for (dx, ds), c in a.items():
        terms[(dx, 0)] = terms.get((dx, 0), F(0)) + c * s_val**ds
    return ref_clean(terms)


def ref_sorted(a):
    return sorted(a.items(), key=lambda kv: (-kv[0][0], kv[0][1]))


def ref_json(a):
    terms = [{"dx": dx, "ds": ds, "c": format_rational(c)} for (dx, ds), c in ref_sorted(a)]
    return {"terms": terms}


def ref_str(a):
    if not a:
        return "0"
    parts = []
    for (dx, ds), c in ref_sorted(a):
        factors = []
        if abs(c) != 1 or (dx == 0 and ds == 0):
            factors.append(format_rational(c))
        if dx:
            factors.append("x" if dx == 1 else f"x^{dx}")
        if ds:
            factors.append("s" if ds == 1 else f"s^{ds}")
        sign = "-" if c == -1 and (dx or ds) else ""
        parts.append(sign + "*".join(factors))
    return " + ".join(parts).replace("+ -", "- ")


def assert_matches(poly, ref):
    """poly stores no zero over a positive denominator and has the
    reference's value and output."""
    assert poly.den > 0 and 0 not in poly.num.values()
    assert poly.terms == ref
    assert poly.to_json() == ref_json(ref) and str(poly) == ref_str(ref)


def matches_or_both_raise(op, ref_op):
    try:
        expected = ref_op()
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            op()
        return
    assert_matches(op(), expected)


# few small coefficients on a small grid, so that sums often cancel
small_terms = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(-2, 2)),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    max_size=5,
)
laurent_terms = st.one_of(small_terms, laurent_dicts)
scalars = st.fractions(min_value=-3, max_value=3, max_denominator=5)  # 0 and +-1 too
multipliers = st.integers(-2, 2)


@settings(max_examples=150)
@given(laurent_terms, laurent_terms, scalars, multipliers, multipliers, st.integers(-3, 3))
def test_kernel_matches_fraction_reference(a, b, q, m_x, m_s, k):
    p, r = XsPoly(a), XsPoly(b)
    a, b = ref_clean(a), ref_clean(b)
    assert_matches(p, a)
    assert_matches(p + r, ref_add(a, b))
    assert_matches(p - r, ref_add(a, ref_scale(b, F(-1))))
    assert_matches(p + r - r, a)
    assert_matches(p - p, {})
    assert_matches(-p, ref_scale(a, F(-1)))
    assert_matches(p * r, ref_mul(a, b))
    assert_matches(p * r - r * p, {})
    assert_matches(p.scale(q), ref_scale(a, q))
    assert_matches(p.q_deriv(F(1)), ref_lower_x(a, lambda dx: dx))
    assert_matches(p.q_deriv(q), ref_lower_x(a, lambda dx: q_int(dx, q)))
    assert_matches(p.shift_s(k), {(dx, ds + k): c for (dx, ds), c in a.items()})
    matches_or_both_raise(lambda: p.dilate(q, m_x, m_s), lambda: ref_dilate(a, q, m_x, m_s))
    matches_or_both_raise(lambda: p.subs_s(q), lambda: ref_subs_s(a, q))
    for x_deg, coeff in p.x_coeffs().items():
        assert_matches(coeff, {(0, ds): c for (dx, ds), c in a.items() if dx == x_deg})


# one-term operands: unit, +-1 and fractional coefficients, negative s
# exponents, and X, S and ZERO themselves
one_terms = st.one_of(
    st.dictionaries(
        st.tuples(st.integers(0, 4), st.integers(-4, 4)),
        st.one_of(st.sampled_from([F(1), F(-1)]), rationals),
        min_size=1,
        max_size=1,
    ),
    st.sampled_from([X.terms, S.terms, ZERO.terms]),
)
scale_factors = st.one_of(st.integers(-6, 6), st.fractions(-4, 4, max_denominator=9))


@settings(max_examples=150)
@given(one_terms, laurent_terms, scale_factors)
def test_one_term_products_and_scale_match_fraction_reference(m, a, c):
    term, p = XsPoly(m), XsPoly(a)
    m, a = ref_clean(m), ref_clean(a)
    assert_matches(term * p, ref_mul(m, a))
    assert_matches(p * term, ref_mul(a, m))
    assert_matches(term * term, ref_mul(m, m))
    assert_matches(p.scale(c), ref_scale(a, c))
    assert_matches(term.scale(c), ref_scale(m, c))
    assert_matches(p * c, ref_scale(a, c))


def test_monomial_and_const_edge_cases():
    # a zero coefficient is the zero polynomial, whatever the exponents
    for zero in (XsPoly.monomial(0, -1, 2), XsPoly.monomial(F(0), 3, -1), XsPoly.const(0)):
        assert zero.num == {} and zero.den == 1 and zero == ZERO
    with pytest.raises(ValueError, match="^negative x exponents are not representable$"):
        XsPoly.monomial(F(1, 2), -1, 0)
    assert_matches(XsPoly.monomial(F(-6, 4), 2, -3), {(2, -3): F(-3, 2)})
    assert_matches(XsPoly.monomial(7, 0, 1), {(0, 1): F(7)})
    assert_matches(XsPoly.const(F(5, 10)), {(0, 0): F(1, 2)})
    assert_matches(XsPoly.x(3), {(3, 0): F(1)})
    assert_matches(XsPoly.s(-2), {(0, -2): F(1)})


@settings(max_examples=60)
@given(laurent_terms, laurent_terms)
def test_equal_values_hash_equal(a, b):
    p, r = XsPoly(a), XsPoly(b)
    same = p + r - r
    assert same == p and hash(same) == hash(p)
    if set(p.num) <= {(0, 0)}:
        assert hash(p) == hash(p.terms.get((0, 0), F(0)))


@settings(max_examples=100)
@given(laurent_dicts, st.integers(2, 60), rationals)
def test_a_value_not_in_lowest_terms_is_the_same_value(terms, k, r):
    """num * k over den * k equals, hashes and prints as num over den, and
    changing one numerator changes the value.  An unreduced constant equals
    its Fraction and hashes as it, so either may key a memo."""
    p = XsPoly(terms)
    same = XsPoly._of({key: k * c for key, c in p.num.items()}, k * p.den)
    assert same == p and p == same and hash(same) == hash(p)
    assert str(same) == str(p) and same.to_json() == p.to_json()
    for key in p.num:
        other = dict(same.num)
        other[key] += 1
        assert XsPoly._of(other, same.den) != p and p != XsPoly._of(other, same.den)
    const = XsPoly._of({(0, 0): k * r.numerator} if r else {}, k * r.denominator)
    assert const == r and hash(const) == hash(r) and len({const, r}) == 1
    assert const == XsPoly.const(r) and hash(const) == hash(XsPoly.const(r))


def test_hash_agrees_with_eq():
    for value in (2, F(-3, 4), 0, F(0)):
        poly = XsPoly.const(value)
        assert poly == value and hash(poly) == hash(value)
        assert len({poly, value}) == 1
    assert hash(ZERO) == hash(0) and len({ZERO, 0, F(0)}) == 1
    p = X.scale(F(1, 2)) + S
    same = S + X.scale(F(2, 4))
    assert p == same and hash(p) == hash(same) and len({p, same}) == 1
    assert p != F(1, 2) and len({p, F(1, 2)}) == 2


def test_dilate_at_zero_keeps_its_poles():
    # q = 0 sends every positive power of q to 0 and leaves q^0 = 1 ...
    assert (X + ONE + S).dilate(F(0), 1, 1) == ONE
    # ... but a negative power of q is a pole, as with Fraction(0) ** -k
    with pytest.raises(ZeroDivisionError, match=r"^Fraction\(1, 0\)$"):
        X.shift_s(-1).dilate(F(0), 0, 1)
    with pytest.raises(ZeroDivisionError, match=r"^Fraction\(1, 0\)$"):
        X.dilate(0, -1, 0)
    with pytest.raises(ZeroDivisionError, match=r"^Fraction\(1, 0\)$"):
        S.shift_s(-2).subs_s(0)


@pytest.mark.parametrize("num", [{(1, 0): 3, (0, 1): -2}, {(0, 0): 0}, {}], ids=str)
def test_a_zero_denominator_is_a_bare_division_by_zero(num):
    """num / 0 is never returned, whatever num holds (zeros included); the
    error is a plain ZeroDivisionError, not a pole of the families."""
    with pytest.raises(ZeroDivisionError) as info:
        XsPoly._reduced(num, 0)
    assert info.type is ZeroDivisionError
    assert XsPoly._reduced({(1, 0): 3}, -6) == X.scale(F(-1, 2))


def test_basic_arithmetic():
    p = X * X + S.scale(3)
    q = X - ONE
    assert p + q == XsPoly({(2, 0): 1, (0, 1): 3, (1, 0): 1, (0, 0): -1})
    assert p - p == ZERO
    assert (X + S) * (X - S) == X * X - S * S
    assert p.scale(0) == ZERO


def test_zero_normalization_and_hash():
    p = X + ONE - X - ONE
    assert p == ZERO and p.is_zero()
    assert hash(X + S) == hash(S + X)


def test_dilate():
    q = F(2)
    p = XsPoly.monomial(5, 2, 3)
    assert p.dilate(q, 1, 0) == XsPoly.monomial(5 * 4, 2, 3)
    assert p.dilate(q, 0, 2) == XsPoly.monomial(5 * 64, 2, 3)
    assert p.dilate(q, -1, 1) == XsPoly.monomial(5 * 2, 2, 3)


@settings(max_examples=40)
@given(polys, polys)
def test_dilate_is_ring_homomorphism(p, r):
    q = F(3, 2)
    assert (p * r).dilate(q, 1, 2) == p.dilate(q, 1, 2) * r.dilate(q, 1, 2)
    assert (p + r).dilate(q, 1, 2) == p.dilate(q, 1, 2) + r.dilate(q, 1, 2)


def test_q_deriv_monomials():
    q = F(2)
    assert (X * X * X).q_deriv(q) == (X * X).scale(q_int(3, q))
    assert S.q_deriv(q) == ZERO
    assert ONE.q_deriv(q) == ZERO
    # classical at q = 1
    assert (X * X).q_deriv(F(1)) == X.scale(2)


@settings(max_examples=40)
@given(polys, polys)
def test_q_leibniz_rule(p, r):
    # D(fg) = (Df) g + f(qx) (Dg)
    q = F(2)
    lhs = (p * r).q_deriv(q)
    rhs = p.q_deriv(q) * r + p.dilate(q, 1, 0) * r.q_deriv(q)
    assert lhs == rhs


def _read_json(data):
    """The polynomial a to_json dict lists, read back term by term."""
    return XsPoly({(t["dx"], t["ds"]): F(t["c"]) for t in data["terms"]})


@settings(max_examples=40)
@given(laurent)
def test_json_round_trip(p):
    assert _read_json(p.to_json()) == p


def test_json_round_trip_negative_s_power():
    p = X.shift_s(-2).scale(F(-3, 4)) + S
    assert p.to_json()["terms"][0] == {"dx": 1, "ds": -2, "c": "-3/4"}
    assert _read_json(p.to_json()) == p


def _lowest_triples(poly, base):
    """((deg_x, deg_s), n, d) per term of poly._lowest_terms(base)."""
    return [(key, n, base**e if d is None else d) for key, n, e, d in poly._lowest_terms(base)]


# a numerator sign * base^e * m: e may pass K, and m may share a prime with a
# composite base
stripped_factors = st.tuples(st.sampled_from([1, -1]), st.integers(0, 16), st.integers(1, 10**6))


@settings(max_examples=300)
@given(
    st.sampled_from([1, 2, 5, 6, 10, 12, 30, 10007]),
    st.integers(0, 12),
    st.sampled_from([1, 7, 12]),
    st.one_of(
        st.dictionaries(
            st.tuples(st.integers(0, 3), st.integers(-2, 2)), stripped_factors, max_size=6
        ),
        st.dictionaries(st.just((0, 0)), stripped_factors, max_size=1),
    ),
)
def test_lowest_terms_stripped_by_base_are_the_gcd_reduced_terms(base, k, extra, factors):
    """Over den = base^k * extra, stripping powers of base gives the terms
    of one gcd per term, each n/d in lowest terms with d > 0; an extra of 7
    or 12 leaves den no power of base, and _lowest_terms falls back to the gcd."""
    num = {key: sign * base**e * m for key, (sign, e, m) in factors.items()}
    poly = XsPoly._of(num, base**k * extra)
    triples = _lowest_triples(poly, base)
    assert triples == _lowest_triples(poly, 1)
    assert all(d > 0 and gcd(n, d) == 1 for _, n, d in triples)


@contextlib.contextmanager
def no_digit_limit():
    """Lift Python's int-to-str digit limit, where it has one, for the
    references' str() of numbers of up to 12000 digits."""
    saved = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if saved:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if saved:
            sys.set_int_max_str_digits(saved)


@st.composite
def ladder_polys(draw):
    """(base, poly) with den = base^k * extra, k up to 3000, and numerators
    sign * base^e * m, e up to k + 2: the reduced denominators base^(k - e)
    of one polynomial are up to six rungs of the Decimal ladder, thousands
    of digits long; an extra of 7 or 12 sends every term to the gcd."""
    base = draw(st.sampled_from([1, 2, 5, 6, 10, 12, 30, 10007]))
    k = draw(st.integers(0, 3000))
    extra = draw(st.sampled_from([1, 7, 12]))
    factor = st.tuples(st.sampled_from([1, -1]), st.integers(0, k + 2), st.integers(1, 10**6))
    factors = draw(st.one_of(
        st.dictionaries(st.tuples(st.integers(0, 3), st.integers(-2, 2)), factor, max_size=6),
        st.dictionaries(st.just((0, 0)), factor, max_size=1),  # a constant, or 0
    ))
    num = {key: sign * base**e * m for key, (sign, e, m) in factors.items()}
    return base, XsPoly._of(num, base**k * extra)


@settings(max_examples=200, deadline=None)
@given(ladder_polys())
def test_coefficient_texts_are_the_lowest_terms_ratios(case):
    """json_terms and str_pieces write each coefficient, its denominator
    from the Decimal ladder where that is a power of base, as _format_ratio
    writes the lowest terms of _lowest_terms, and as the Fraction reference
    does."""
    base, poly = case
    with no_digit_limit():
        triples = _lowest_triples(poly, base)
        entries = list(poly.json_terms(base))
        pieces = list(poly.str_pieces(base))
        ref = poly.terms
        assert [e["c"] for e in entries] == [_format_ratio(n, d) for _, n, d in triples]
        assert [(e["dx"], e["ds"]) for e in entries] == [key for key, _, _ in triples]
        assert {"terms": entries} == ref_json(ref)
        assert len(pieces) == max(1, len(triples))
        assert "".join(pieces) == ref_str(ref)
    assert not any("E" in t or "." in t for t in [*pieces, *(e["c"] for e in entries)])


def test_subs_and_eval():
    p = X * X + S.scale(2)
    assert p.subs_s(F(3)) == X * X + XsPoly.const(6)
    assert p.evalf(2.0, 3.0) == pytest.approx(10.0)


def test_str_canonical():
    p = X.scale(-2) * X + S + ONE
    assert str(p) == "-2*x^2 + 1 + s"


def test_str_unit_coefficients_print_as_their_sign():
    assert str(X * X + S.scale(-1)) == "x^2 - s"
    assert str(X.scale(-1) * X + S.scale(-1)) == "-x^2 - s"
    assert str(XsPoly.monomial(-1, 1, -2) + ONE) == "-x*s^-2 + 1"
    assert str(XsPoly.const(-1)) == "-1"
    assert str(X.scale(F(-1, 2))) == "-1/2*x"


def test_str_negative_s_power():
    assert str(X.shift_s(-1)) == "x*s^-1"
    assert str(XsPoly.monomial(F(-3, 2), 0, -2) + X) == "x - 3/2*s^-2"


def test_negative_x_exponent_rejected():
    with pytest.raises(ValueError):
        XsPoly({(-1, 0): 1})


def test_laurent_normal_form():
    v = X.shift_s(2).shift_s(-3)  # x s^2 / s^3 -> x / s
    assert v.terms == {(1, -1): 1} and v == XsPoly.monomial(1, 1, -1)
    assert ZERO.shift_s(-5).is_zero() and ZERO.shift_s(-5) == 0
    assert X.shift_s(-2).shift_s(2) == X == X.shift_s(2).shift_s(-2)


def test_laurent_arithmetic():
    a = X.shift_s(-1)  # x / s
    assert a + S == XsPoly({(1, -1): 1, (0, 1): 1})
    assert a * S == X  # x/s * s = x
    assert a.shift_s(1) == X
    assert a.shift_s(-1) == XsPoly.monomial(1, 1, -2)


def test_laurent_dilate_respects_denominator():
    q = F(2)
    v = X.shift_s(-1)  # x / s
    # substituting s -> q s divides the value by q
    assert v.dilate(q, 0, 1) == v.scale(F(1, 2))


def test_as_poly():
    p = X * X + S
    assert p.as_poly() is p
    with pytest.raises(ValueError, match=r"^value has a residual s\^1 denominator$"):
        (X.shift_s(-1) + ONE).as_poly()
    with pytest.raises(ValueError, match=r"residual s\^3 denominator"):
        (S.shift_s(-4) + X.shift_s(-1)).as_poly()


@settings(max_examples=40)
@given(laurent, laurent, st.integers(-5, 5))
def test_laurent_shift_mul_dilate_agree(p, r, k):
    q = F(3, 2)
    assert p.shift_s(k) == p * XsPoly.s(k)
    assert p.shift_s(k).shift_s(-k) == p
    assert (p * r).shift_s(k) == p.shift_s(k) * r
    assert p.shift_s(k).dilate(q, 1, 2) == p.dilate(q, 1, 2).shift_s(k).scale(q ** (2 * k))
    assert (p * r).dilate(q, 1, 2) == p.dilate(q, 1, 2) * r.dilate(q, 1, 2)


def test_mat2():
    m = Mat2(ONE, X, ZERO, ONE)
    n = Mat2(ONE, S, ZERO, ONE)
    assert (m * n).a12 == X + S
    assert m.trace() == XsPoly.const(2)
    assert Mat2(1, 0, 0, 1) * m == m


def _x_series(coeffs):
    """sum coeffs[k] x^k as an XsPoly."""
    return XsPoly({(k, 0): c for k, c in enumerate(coeffs)})


def test_series_qderiv_and_dilate():
    """An x-series' q-derivative and dilation are XsPoly's q_deriv and
    dilate(q, m, 0)."""
    q = F(2)
    t = _x_series([1, 1, 1, 1])
    assert t.q_deriv(q) == _x_series([1, q_int(2, q), q_int(3, q)])
    assert t.dilate(q, 1, 0) == _x_series([1, 2, 4, 8])
    assert t.dilate(q, 2, 0) == _x_series([1, 4, 16, 64])


def test_series_truncate():
    p = XsPoly({(0, 0): F(1), (1, 1): F(2), (2, 0): F(3)})
    assert p.mod_x(2) == XsPoly({(0, 0): F(1), (1, 1): F(2)})
    assert p.mod_x(3) is p and p.mod_x(0) == ZERO
    # the term left is 1/2, over the denominator 6 it shared
    cut = _x_series([F(1, 2), F(1, 3)]).mod_x(1)
    assert cut.terms == {(0, 0): F(1, 2)} and cut == F(1, 2)


@settings(max_examples=100)
@given(laurent_dicts, st.integers(-8, 14))
def test_weight_cut_and_parts(terms, order):
    """With x of weight 1 and s of weight 2, mod_weight keeps exactly the
    terms of weight below order and weight_parts splits by weight; every
    result equals the XsPoly its Fraction terms build."""
    p = XsPoly(terms)
    weight = lambda key: key[0] + 2 * key[1]
    cut = p.mod_weight(order)
    assert cut.terms == {k: c for k, c in p.terms.items() if weight(k) < order}
    assert cut == XsPoly(cut.terms)
    parts = p.weight_parts()
    assert sum(parts.values(), ZERO) == p
    for w, part in parts.items():
        assert part.terms and {weight(k) for k in part.terms} == {w}
        assert part == XsPoly(part.terms)


def ref_series_mul(a, b):
    """The term-by-term product of two scalar series of one order, as every
    series product ran before scalar series convolved integer numerators,
    kept as the oracle for products cut by mod_x."""
    coeffs = [F(0)] * len(a)
    for i, c in enumerate(a):
        if isinstance(c, Fraction) and c == 0:
            continue
        for j in range(len(a) - i):
            coeffs[i + j] = coeffs[i + j] + c * b[j]
    return coeffs


series_coeffs = st.lists(
    st.one_of(st.integers(-5, 5), st.fractions(-5, 5, max_denominator=9)), max_size=7
)


def _padded(coeffs, order):
    return (list(coeffs) + [0] * order)[:order]


@settings(max_examples=100)
@given(series_coeffs, series_coeffs, st.integers(0, 6))
def test_scalar_series_products_match_the_pair_loop(a, b, order):
    product = (_x_series(a) * _x_series(b)).mod_x(order)
    expected = ref_series_mul(_padded(a, order), _padded(b, order))
    assert product.x_degree() < order and product == _x_series(expected)


def test_scalar_series_products_of_int_coefficients():
    """A product cut by mod_x prints as a polynomial, the form a failing
    weight-series check's witness takes."""
    product = (_x_series([1, 2]) * _x_series([3, -1])).mod_x(3)
    assert str(product) == "-2*x^2 + 5*x + 3"
    assert (_x_series([1, 2]) * X).mod_x(0) == ZERO
