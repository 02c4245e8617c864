"""Moment machinery: recurrence DP against closed forms, basis expansions,
q-Catalan moments and the non-orthogonality witness."""

from fractions import Fraction

import pytest

from qcheb import families, moments
from qcheb.polyring import ONE, S, X, XsPoly, ZERO
from qcheb.qkernel import q_binom, q_catalan, q_int
from qcheb.report import check_range

F = Fraction

QS = (F(2), F(1, 2), F(3, 5), F(7))


def holds(check):
    """Whether check_range finds every (lhs, rhs) pair of a check's sides equal."""
    return check_range("", None, *check).status == "pass"


def test_basis_matches_families():
    q = F(2)
    basis = moments.gen_fib_spec(q).basis(8)
    for k, p in enumerate(basis):
        assert p == families.gen_fib(k + 1, q)
    basis = moments.carlitz_spec(q).basis(8)
    for k, p in enumerate(basis):
        assert p == families.fib_carlitz(k + 1, q)


def test_gen_lucas_basis_normalization():
    q = F(2)
    basis = moments.gen_lucas_spec(q).basis(7)
    assert basis[0] == ONE
    for k in range(1, 7):
        assert basis[k] == families.gen_lucas(k, q)


def test_moments_small_values():
    q = F(2)
    dp = moments.moments_from_recurrence(moments.gen_fib_spec(q), 5)
    assert dp[0] == ONE
    assert dp[1] == ZERO
    assert dp[2] == S.scale(F(-2, 15))  # -qs/((1+q)(1+q^2)) at q=2
    assert dp[3] == ZERO


@pytest.mark.parametrize("name", sorted(moments.SPECS))
def test_moments_from_recurrence_gives_count_moments(name):
    """count 0 asks for no moment, as basis(0) gives no polynomial."""
    spec = moments.SPECS[name](F(2))
    assert moments.moments_from_recurrence(spec, 0) == [] == spec.basis(0)
    assert moments.moments_from_recurrence(spec, 1) == [ONE]


@pytest.mark.parametrize("q", QS)
def test_moment_closed_forms(q):
    check = moments.moment_consistency_check
    assert holds(check(moments.gen_fib_spec, moments.moments_fib_closed, 8, q))
    assert holds(check(moments.gen_lucas_spec, moments.moments_lucas_closed, 8, q))
    for n in range(6):
        assert moments.moments_fib_closed(n, q) == moments_fib_product_form(n, q)


def moments_fib_product_form(n, q):
    """The even moment of moments_fib_closed with its denominator in product
    form (1+q)(1+q^(n+1)) prod_{j=2}^n (1+q^j)^2."""
    if n == 0:
        return ONE
    den = (1 + q) * (1 + q ** (n + 1))
    for j in range(2, n + 1):
        den *= (1 + q**j) ** 2
    scalar = q_binom(2 * n, n, q) / q_int(n + 1, q) * (-q) ** n / den
    return XsPoly.monomial(scalar, 0, n)


@pytest.mark.parametrize("q", QS)
def test_carlitz_moments_are_catalan(q):
    dp = moments.moments_from_recurrence(moments.carlitz_spec(q), 13)
    for n in range(7):
        assert dp[2 * n] == XsPoly.monomial((-q) ** n * q_catalan(n, q), 0, n)
    assert holds(moments.carlitz_moment_check(6, q))


def test_classical_moments():
    assert holds(moments.classical_moment_check(6))


@pytest.mark.parametrize("q", QS)
def test_x_power_reconstruction(q):
    for n in range(11):
        power = XsPoly.monomial(1, n, 0)
        assert moments.reconstruct_x_fib(n, q) == power
        assert moments.reconstruct_x_lucas(n, q) == power


def test_expand_in_basis_generic():
    q = F(2)
    basis = moments.gen_fib_spec(q).basis(10)
    poly = basis[3] * basis[4]
    coeffs = moments.expand_in_basis(poly, basis)
    total = ZERO
    for k, c in enumerate(coeffs):
        total = total + c * basis[k]
    assert total == poly


def test_expand_in_basis_short_basis():
    q = F(2)
    with pytest.raises(ValueError):
        moments.expand_in_basis(X * X * X, moments.gen_fib_spec(q).basis(2))


@pytest.mark.parametrize("q", QS)
def test_orthogonality_smoke(q):
    indices, _, index_range = moments.orthogonality_check(7, q)
    assert {name for name, _ in indices} == {"gen_fib", "gen_lucas"} and index_range == (0, 7)
    assert holds(moments.orthogonality_check(7, q))


@pytest.mark.parametrize("q", QS)
def test_nonorthogonality_witness(q):
    assert holds(moments.nonorthogonality_witness(q))


def test_nonorthogonality_defect_vanishes_classically():
    assert holds(moments.nonorthogonality_witness(F(1)))
