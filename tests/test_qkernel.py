"""Scalar q-kernel: q-integers, Gaussian binomials, Pochhammer symbols,
q-Catalan numbers and parameter points."""

import math
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcheb.qkernel import (
    DEFAULT_QS,
    ParamPoint,
    PoleError,
    as_rational,
    binom2,
    memo_scope,
    q_binom,
    q_catalan,
    q_int,
    q_pascal,
    q_poch,
    sample_points,
    sequence,
)

F = Fraction


def test_q_int_basic():
    q = F(2)
    assert q_int(0, q) == 0
    assert q_int(1, q) == 1
    assert q_int(4, q) == 1 + 2 + 4 + 8
    assert q_int(5, F(1)) == 5


def test_q_binom_values():
    q = F(2)
    assert q_binom(4, 2, q) == (q_int(4, q) * q_int(3, q)) / (q_int(2, q) * q_int(1, q))
    assert q_binom(5, 0, q) == 1
    assert q_binom(5, 5, q) == 1
    assert q_binom(3, 4, q) == 0
    assert q_binom(3, -1, q) == 0


def test_q_binom_classical_limit():
    for n in range(8):
        for k in range(n + 1):
            assert q_binom(n, k, F(1)) == math.comb(n, k)


def _product_binom(n, k, q):
    """[n over k] = prod over 1 <= i <= k of [n-k+i] / [i], from q_int."""
    out = F(1)
    for i in range(1, k + 1):
        out *= q_int(n - k + i, q) / q_int(i, q)
    return out


@settings(max_examples=200, deadline=None)
@given(
    st.fractions(min_value=-4, max_value=4, max_denominator=4).filter(lambda q: q not in (0, -1)),
    st.integers(0, 30),
    st.data(),
)
def test_q_binom_matches_the_product_formula(q, n, data):
    """Off q = -1 no [i]_q vanishes at these q (q^i = 1 needs q = +-1), and
    q = 1 gives [i] = i, so the product formula holds; the q-Pascal rows
    give the same value."""
    k = data.draw(st.integers(-1, n + 1))
    want = _product_binom(n, k, q) if 0 <= k <= n else 0
    assert q_binom(n, k, q) == want


def test_q_binom_at_q_minus_1():
    """At q = -1 the product formula is 0/0 for even [i]; the Gaussian
    binomial is 0 for even n and odd k, and C(n//2, k//2) otherwise."""
    for n in range(31):
        for k in range(n + 1):
            want = 0 if n % 2 == 0 and k % 2 else math.comb(n // 2, k // 2)
            assert q_binom(n, k, F(-1)) == want, (n, k)


def test_a_memo_scope_keeps_members_until_it_exits():
    """q_binom.cache_info counts the q-Pascal rows per q = a/c.  Outside any
    scope nothing is kept; inside one a second call at the same q is a hit,
    and the exit of any scope, a nested one too, drops every row."""
    q_binom(12, 5, F(3, 5))
    assert q_binom.cache_info().currsize == 0
    with memo_scope():
        q_binom(12, 5, F(3, 5))
        q_binom(10, 3, F(6, 10))
        info = q_binom.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
        with memo_scope():
            pass
        assert q_binom.cache_info().currsize == 0
        assert q_pascal(3, 3, 5) == [1, 25 + 15 + 9, 25 + 15 + 9, 1]
        assert q_binom.cache_info().currsize == 1
    assert q_binom.cache_info().currsize == 0


def test_q_binom_pascal():
    # [n k] = [n-1 k-1] + q^k [n-1 k]
    q = F(3, 5)
    for n in range(1, 9):
        for k in range(n + 1):
            assert q_binom(n, k, q) == q_binom(n - 1, k - 1, q) + q**k * q_binom(
                n - 1, k, q
            )


def test_q_poch_positive_and_negative():
    q = F(2)
    a = F(3)
    assert q_poch(a, q, 0) == 1
    assert q_poch(a, q, 3) == (1 - 3) * (1 - 6) * (1 - 12)
    # negative orders are ParamPoint._poch_pair's
    with pytest.raises(ValueError, match="^q_poch needs n >= 0$"):
        q_poch(a, q, -1)


def test_q_catalan_sequence():
    assert [q_catalan(n, F(1)) for n in range(6)] == [1, 1, 2, 5, 14, 42]
    q = F(3)
    assert q_catalan(2, q) == 1 + q
    # convolution recursion holds at a generic sample
    q = F(2, 7)
    for n in range(1, 8):
        total = sum(q**k * q_catalan(k, q) * q_catalan(n - 1 - k, q) for k in range(n))
        assert q_catalan(n, q) == total


def _q_catalan_reference(n_max, q):
    """C_0..C_n_max by the Fraction recurrence C_n = sum_k q^k C_k C_(n-1-k)."""
    c = [F(1)]
    for n in range(1, n_max + 1):
        c.append(sum(q**k * c[k] * c[n - 1 - k] for k in range(n)))
    return c


@pytest.mark.parametrize("q", [F(2, 3), F(-3, 5), F(7), F(1)], ids=str)
def test_q_catalan_integer_numerators_match_fraction_recurrence(q):
    got = [q_catalan(n, q) for n in range(61)]
    assert got == _q_catalan_reference(60, q)
    assert all(isinstance(value, F) for value in got)


def test_param_point_guards():
    with pytest.raises(PoleError):
        ParamPoint(F(0), F(0))
    assert ParamPoint(F(1), F(0)).q == 1  # q = 1 is an ordinary point
    p = ParamPoint(F(2), F(1, 2))
    assert p.level(0) == F(1, 2) and p.level(2) == -1 and p.level(-1) == F(3, 4)
    with pytest.raises(PoleError, match=r"^1 - q\^1 b vanishes at q=2, b=1/2$"):
        p.level(1)  # q^1 * b = 1
    assert p.is_pole_free([0, 2, 3]) and not p.is_pole_free([0, 1])
    assert ParamPoint(-1, 3).level(1) == 4  # 1 + q^j = 0 is no pole


SMALL_RATIONALS = st.one_of(
    st.integers(-9, 9), st.fractions(min_value=-9, max_value=9, max_denominator=9)
)


@settings(max_examples=100, deadline=None)
@given(SMALL_RATIONALS, SMALL_RATIONALS, SMALL_RATIONALS, SMALL_RATIONALS)
def test_param_point_is_a_frozen_value(q, b, q2, b2):
    """A point equals and hashes as its (q, b) however they were given, never
    equals a tuple, reprs as its fields, refuses assignment and rejects q = 0."""
    assert ParamPoint(1, 0) == ParamPoint(F(1), F(0))
    assert hash(ParamPoint(1, 0)) == hash(ParamPoint(F(1), F(0)))
    assert repr(ParamPoint(F(3, 5), F(3, 7))) == "ParamPoint(q=Fraction(3, 5), b=Fraction(3, 7))"
    if q == 0:
        with pytest.raises(PoleError):
            ParamPoint(q, b)
        return
    p = ParamPoint(q, b)
    assert (p.q, p.b) == (q, b) and type(p.q) is type(p.b) is F
    assert p == ParamPoint(F(q), F(b)) and hash(p) == hash(ParamPoint(F(q), F(b)))
    if q2 != 0:
        assert (p == ParamPoint(q2, b2)) == ((q, b) == (q2, b2))
    assert p != (p.q, p.b) and (p.q, p.b) != p
    assert repr(p) == f"ParamPoint(q={F(q)!r}, b={F(b)!r})"
    for field in ("q", "b"):
        with pytest.raises(AttributeError):
            setattr(p, field, F(1))
    assert (p.q, p.b) == (q, b)


def test_shift_b():
    p = ParamPoint(F(2), F(3))
    assert p.shift_b(2).b == 12
    assert p.shift_b(-1).b == F(3, 2)


LADDER_QS = (F(1), F(-1), F(2), F(-2), F(1, 2), F(-1, 2), F(3, 5))


@st.composite
def ladder_points(draw):
    """(q, b) with b = q^-j for -2 <= j <= 10, where level j vanishes, or a
    b of no such kind."""
    q = draw(st.sampled_from(LADDER_QS))
    others = st.sampled_from([F(0), F(3), F(-1), F(3, 7)])
    return q, draw(st.one_of(others, st.integers(-2, 10).map(lambda j: q**-j)))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ZeroDivisionError as exc:
        return type(exc), str(exc)


def _level_reference(q, b, j):
    if q**j * b == 1:
        raise PoleError(f"1 - q^{j} b vanishes at q={q}, b={b}")
    return 1 - q**j * b


@settings(max_examples=150, deadline=None)
@given(
    ladder_points(),
    st.lists(
        st.tuples(*[st.integers(-3, 3)] * 2, *[st.integers(-6, 8)] * 3), min_size=1, max_size=8
    ),
)
def test_ladder_matches_its_definition(qb, queries):
    """Asked in any order, at a point or at the points its shifts made (which
    share its ladder), every entry equals its uncached definition, and a pole
    raises the same error on every call, worded at the root's level and b."""
    q, b = qb
    root = ParamPoint(q, b)
    for t1, t2, s, m, j in queries:
        p = root.shift_b(t1).shift_b(t2)
        assert p == ParamPoint(q, q ** (t1 + t2) * b)
        for k in (m - 1, m):  # two neighbouring orders, asked in turn
            poch = _outcome(lambda: Fraction(*p._poch_pair(s, k)))
            assert poch == _outcome(_q_poch_reference, q**s * p.b, q, k)
        level = _outcome(_level_reference, q, b, t1 + t2 + j)
        assert _outcome(p.level, j) == level and _outcome(p.level, j) == level
        assert _outcome(p.shift_b(s).level, j) == _outcome(p.level, j + s)
        assert hash(p) == hash(ParamPoint(p.q, p.b))
        assert p.shift_b(j) == ParamPoint(q, q**j * p.b) and p.shift_b(j) is p.shift_b(j)


def test_sample_points_filter_poles():
    pts = sample_points(levels=range(0, 10))
    assert all(p.is_pole_free(range(0, 10)) for p in pts)
    # (q=1/2, b=2) has a pole at level 1 and must be filtered
    assert not any(p.q == F(1, 2) and p.b == 2 for p in pts)
    assert all(q in DEFAULT_QS for q in {p.q for p in pts})


def test_binom2_all_integers():
    for n in range(-6, 7):
        assert binom2(n) == n * (n - 1) // 2


def test_as_rational():
    assert as_rational(3) == F(3)
    assert as_rational("2/5") == F(2, 5)
    with pytest.raises(TypeError):
        as_rational(0.5)


# -- the integer kernel against Fraction references ---------------------

SIGNED_QS = st.builds(
    lambda a, c, sign: F(sign * a, c),
    st.integers(1, 5),
    st.integers(1, 5),
    st.sampled_from([1, -1]),
)


@st.composite
def signed_ladder_points(draw):
    """q = +-a/c and a b that is either small or q^-j, where level j vanishes."""
    q = draw(SIGNED_QS)
    return q, draw(st.one_of(SMALL_RATIONALS.map(F), st.integers(-4, 8).map(lambda j: q**-j)))


@settings(max_examples=200, deadline=None)
@given(signed_ladder_points(), st.integers(-3, 3), st.lists(st.integers(-8, 8), min_size=1))
def test_level_pair_matches_the_fraction_reference(qb, shift, levels):
    """level_pair(j), read at a point or at a point its shift_b made, is an
    integer pair (n, d), d > 0, of the Fraction 1 - q^j b, and walking the
    levels in order raises the reference's PoleError text at the same first
    vanishing level."""
    q, b = qb
    point = ParamPoint(q, b).shift_b(shift)

    def walk(read):
        return [read(j) for j in levels]

    def reference(j):
        return _level_reference(q, b, j + shift)

    def pair(j):
        n, d = point.level_pair(j)
        assert type(n) is type(d) is int and d > 0 and n
        return F(n, d)

    assert _outcome(walk, pair) == _outcome(walk, reference)
    assert _outcome(walk, point.level) == _outcome(walk, reference)


def _q_poch_reference(a, q, n):
    """(a;q)_n by the Fraction loop q_poch ran before it multiplied integers,
    extended to n < 0 by (a;q)_n = 1 / (q^n a;q)_(-n): the definition the
    ladder's negative orders are checked against."""
    a, q = F(a), F(q)
    result = F(1)
    if n >= 0:
        factor = a
        for _ in range(n):
            result *= 1 - factor
            factor *= q
        return result
    factor = q**n * a
    for _ in range(-n):
        term = 1 - factor
        if term == 0:
            raise PoleError(f"(a;q)_{n} undefined: factor 1 - {factor} vanishes")
        result *= term
        factor *= q
    return 1 / result


@settings(max_examples=300, deadline=None)
@given(SMALL_RATIONALS, st.integers(0, 7), st.data())
def test_q_poch_matches_the_fraction_reference(q, n, data):
    """At n = 0 and n > 0, and with a = q^-i, where the factor 1 - q^i a
    vanishes, q_poch gives the reference's Fraction."""
    a = data.draw(
        st.one_of(SMALL_RATIONALS, st.integers(1, 7).map(lambda i: F(q) ** -i))
        if q
        else SMALL_RATIONALS
    )
    got = q_poch(a, q, n)
    assert got == _q_poch_reference(a, q, n) and type(got) is F


def _q_int_reference(n, q):
    """[n] by the Fraction sum q_int ran before it used integers."""
    total, power = F(0), F(1)
    for _ in range(n):
        total += power
        power *= q
    return total


@settings(max_examples=200, deadline=None)
@given(SMALL_RATIONALS, st.integers(0, 30))
def test_q_int_matches_the_fraction_reference(q, n):
    got = q_int(n, q)
    assert got == _q_int_reference(n, F(q)) and type(got) is F
    with pytest.raises(ValueError, match="^q_int needs n >= 0$"):
        q_int(-1, q)


# -- walks: a sequence without its memo ---------------------------------


def test_a_walk_keeps_only_the_members_a_step_reads():
    held = []

    def step(m, f):
        held.append(sum(v is not None for v in f))
        return f[m - 1] + f[m - 2]

    fib = sequence(lambda: (0, 1), step, order=2)
    assert list(islice(fib.walk(), 12)) == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89]
    assert held == [2] * 10
    assert fib.cache_info().currsize == 0


def test_a_step_that_reads_past_its_order_fails_in_a_walk():
    """A dropped member reads as None, never as a stale value."""
    fib = sequence(lambda: (0, 1), lambda m, f: f[m - 1] + f[m - 2], order=1)
    assert fib(10) == 55  # fn keeps every member it builds
    walk = fib.walk()
    assert [next(walk), next(walk)] == [0, 1]
    with pytest.raises(TypeError):
        next(walk)
