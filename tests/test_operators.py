"""Noncommutative word algebra: brute-force word sums, the weight-dependent
binomial theorem, Fibonacci words and the Binet-like even/odd sums."""

from fractions import Fraction

import pytest

from qcheb import families, operators
from qcheb.polyring import ONE, S, X, XsPoly
from qcheb.qkernel import ParamPoint, PoleError, binom2, q_binom
from qcheb.report import check_range

F = Fraction

WORD_POINTS = [ParamPoint(q, F(3, 7)) for q in (F(2), F(1, 2), F(3, 5))]


def holds(check):
    """Whether check_range finds every (lhs, rhs) pair of a check's sides equal."""
    return check_range("", None, *check).status == "pass"


def test_opstate_single_letters():
    point = ParamPoint(F(2), F(3, 7))
    q, b = point.q, point.b
    # X 1 = x
    assert operators.apply_word(("X",), point) == XsPoly.monomial(1, 1, 0)
    # Y 1 = qs / ((1-qb)(1-q^2 b))
    expect = XsPoly.monomial(q / ((1 - q * b) * (1 - q**2 * b)), 0, 1)
    assert operators.apply_word(("Y",), point) == expect


def test_word_application_order():
    # XY 1 and YX 1 differ: the letters do not commute
    point = ParamPoint(F(2), F(3, 7))
    xy = operators.apply_word(("X", "Y"), point)
    yx = operators.apply_word(("Y", "X"), point)
    assert xy != yx


def test_words_with_k_y_counts():
    import math

    for n in range(6):
        for k in range(n + 1):
            assert len(list(operators.words_with_k_y(n, k))) == math.comb(n, k)


# at q = 2, b = 1/16 the levels 1 - q^j b are 7/8, 3/4, 1/2 and 0 (at j = 4)
@pytest.mark.parametrize("point", [*WORD_POINTS, ParamPoint(2, F(1, 16))], ids=str)
def test_commutation_relations(point):
    assert holds(operators.commutation_check(point))


@pytest.mark.parametrize("point", WORD_POINTS, ids=str)
def test_weight_binomial_theorem(point):
    assert holds(operators.schlosser_binomial_check(7, point))


def test_fib_words_enumeration():
    # counts follow the Fibonacci numbers
    counts = [len(operators.fib_words(n)) for n in range(1, 9)]
    assert counts == [1, 1, 2, 3, 5, 8, 13, 21]


@pytest.mark.parametrize("point", WORD_POINTS, ids=str)
def test_fib_word_sums(point):
    assert holds(operators.fib_word_check(10, point))


@pytest.mark.parametrize("q", (F(2), F(1, 2), F(3, 5)))
def test_binet_like_sums(q):
    for n in range(10):
        assert operators.binet_t(n, q) == families.cheb_t(n, q)
        assert operators.binet_u(n, q) == families.cheb_u(n, q)


@pytest.mark.parametrize("q", (F(2), F(3, 5)))
def test_binet_product_parts(q):
    for n in range(10):
        t_part, u_part = operators.binet_product_parts(n, q)
        assert t_part == families.cheb_t(n, q)
        expected_u = families.cheb_u(n - 1, q) if n >= 1 else XsPoly.zero()
        assert u_part == expected_u


def test_q_binomial_product():
    """(x+y)(qx+y)...(q^(n-1)x+y) = sum_k q^C(k,2) [n over k] x^k y^(n-k),
    with y played by the formal variable s."""
    for q in (F(2), F(3, 5)):
        for n in range(11):
            product = ONE
            for j in range(n):
                product = product * (X.scale(q**j) + S)
            expansion = XsPoly.zero()
            for k in range(n + 1):
                c = q ** binom2(k) * q_binom(n, k, q)
                expansion = expansion + XsPoly.monomial(c, k, n - k)
            assert product == expansion


def test_word_sum_matches_closed_form_small():
    point = ParamPoint(F(2), F(0))
    for n in range(6):
        for k in range(n + 1):
            assert operators.word_sum_ck(n, k, point) == operators.ck_closed(
                n, k, point
            )


@pytest.mark.parametrize("start", [(0, 0, 0), (1, 2, 1), (2, 0, 3)])
def test_apply_word_from_a_monomial(start):
    """X x^i s^j b^m = q^(j+m) b^m x^(i+1) s^j: eta dilates s and b, fixes x."""
    point = ParamPoint(F(2), F(3, 7))
    q, b = point.q, point.b
    i, j, m = start
    expect = XsPoly.monomial(q ** (j + m) * b**m, i + 1, j)
    assert operators.apply_word(("X",), point, start) == expect


def test_apply_word_names_the_vanishing_level():
    with pytest.raises(PoleError) as err:
        operators.apply_word(("Y",), ParamPoint(2, F(1, 4)))
    assert type(err.value) is PoleError
    assert str(err.value) == "1 - q^2 b vanishes at q=2, b=1/4"


@pytest.mark.parametrize("word", [(), ("X",), ("Y",), ("Y", "X", "Y")], ids=str)
def test_apply_word_at_b_zero_sends_b_powers_to_zero(word):
    point = ParamPoint(F(3, 5), 0)
    value = operators.apply_word(word, point, (1, 2, 3))
    assert value.num == {} and value.den == 1
    assert operators.apply_word(word, point, (1, 2, 0)) != 0


def test_apply_word_from_a_negative_exponent():
    value = operators.apply_word(("X",), ParamPoint(F(3, 5), 2), (0, -3, 0))
    assert value == XsPoly.monomial(F(125, 27), 1, -3)
    assert str(value) == "125/27*x*s^-3"
    value = operators.apply_word(("Y",), ParamPoint(2, F(3, 7)), (0, 0, -1))
    assert value == XsPoly.monomial(F(7, 3) / 2 / ((1 - F(6, 7)) * (1 - F(12, 7))), 0, 1)
