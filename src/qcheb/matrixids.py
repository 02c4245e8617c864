"""Transfer-matrix products, Cassini and Cassini-Euler identities, the
Chebyshev determinant identities and tridiagonal determinant representations.
"""

from fractions import Fraction
from functools import partial

from . import families
from .polyring import Mat2, ONE, S, X, XsPoly, ZERO
from .qkernel import ParamPoint, _lowest, as_rational, binom2, sequence


def fib_factor(j: int, point: ParamPoint) -> Mat2:
    """The transfer matrix C(x, q^j b, q^j s, q) with the s-dilation applied."""
    lower = S._times_term(0, 0, *point._over_levels(j, j, j + 1))
    return Mat2(ZERO, ONE, lower, X)


def fib_matrix_product(n: int, point: ParamPoint) -> Mat2:
    """Left product C(x, q^(n-1)b, q^(n-1)s, q) ... C(x, b, s, q), n >= 1:
    the product at n - 1 times one more factor on the left."""
    if n < 1:
        raise ValueError("n >= 1 required")
    return _fib_matrix_product(n - 1, point)


_fib_matrix_product = sequence(
    lambda point: [fib_factor(0, point)], lambda j, acc, point: fib_factor(j, point) * acc[j - 1]
)


def fib_matrix_expected(n: int, point: ParamPoint) -> Mat2:
    """Entrywise family expressions for the product of n Fibonacci factors."""
    scalar = point._over_levels(0, 0, 1)
    a11 = families.fib_qb_up(n - 1, point)._times_term(0, 1, *scalar).as_poly()
    a21 = families.fib_qb_up(n, point)._times_term(0, 1, *scalar).as_poly()
    return Mat2(a11, families.fib_qb(n, point), a21, families.fib_qb(n + 1, point))


def cassini_sides(n: int, point: ParamPoint):
    """Both sides of the (q,b)-Cassini identity:
    F_(n-1)(x,qb,qs) F_(n+1)(x,b,s) - F_n(x,b,s) F_n(x,qb,qs)
      = (-1)^n q^C(n,2) s^(n-1) / ((qb;q)_(n-1) (q^2 b;q)_(n-1)); valid on all of Z."""
    f, up = families.fib_qb_ext, families.fib_qb_up
    lhs = up(n - 1, point) * f(n + 1, point) - f(n, point) * up(n, point)
    return lhs, XsPoly._monomial(*_cassini_scalar(n, 1, n - 1, point), 0, n - 1)


def _cassini_scalar(n: int, s: int, m: int, point: ParamPoint):
    """(-1)^n q^C(n,2) / ((q^s b;q)_m (q^(s+1) b;q)_m) as a lowest-terms
    integer pair; a zero symbol raises a bare ZeroDivisionError."""
    e = binom2(n)  # >= 0 for every integer n
    n1, d1 = point._poch_pair(s, m)
    n2, d2 = point._poch_pair(s + 1, m)
    a, c = point.q.numerator, point.q.denominator
    return _lowest((-1 if n % 2 else 1) * a**e * d1 * d2, c**e * n1 * n2)


def cassini_euler_sides(n: int, k: int, point: ParamPoint):
    """Both sides of the (q,b)-Cassini-Euler identity: d(n,k,b,s) built from
    family values equals
    q^C(n,2) (-s)^n / ((b;q)_n (qb;q)_n) F_k(x, q^n b, q^n s)."""
    f, up = families.fib_qb_ext, families.fib_qb_up
    inverse = point._over_levels(0, 0, 1)
    d = up(n - 1, point) * f(n + k, point) - up(n + k - 1, point) * f(n, point)
    d = d._times_term(0, 1, *inverse)
    scalar = _cassini_scalar(n, 0, n, point)
    inner = f(k, point.shift_b(n)).dilate(point.q, 0, n)
    return d, inner._times_term(0, n, *scalar)


def trace_lucas_check(n: int, point: ParamPoint):
    """tr(C(x,q^(n-1)b,q^(n-1)s) ... C(x,b,s)) = l_n(x,b,s,q) for n >= 1."""

    def sides(m):
        yield fib_matrix_product(m, point).trace(), families.lucas_trace(m, point)

    return range(1, n + 1), sides


# -- Chebyshev transfer matrices ---------------------------------------


def cheb_factor(k: int, q) -> Mat2:
    """V_k(x, s, q) = [[q^k x, q^k (x^2 + qs)], [1, x]]."""
    q = as_rational(q)
    return Mat2(X.scale(q**k), (X * X + S.scale(q)).scale(q**k), ONE, X)


def cheb_matrix_product(n: int, q) -> Mat2:
    """V_0(x,s,q) V_1(x,s,q) ... V_(n-1)(x,s,q), n >= 1: the product at
    n - 1 times one more factor on the right."""
    if n < 1:
        raise ValueError("n >= 1 required")
    return _cheb_matrix_product(n - 1, as_rational(q))


_cheb_matrix_product = sequence(
    lambda q: [cheb_factor(0, q)], lambda k, acc, q: acc[k - 1] * cheb_factor(k, q)
)


def cheb_matrix_expected(n: int, q) -> Mat2:
    """[[T_n(x,s), (x^2+qs) U_(n-1)(x,q^2 s)], [U_(n-1)(x,qs), T_n(x,qs)]]."""
    q = as_rational(q)
    u = families.cheb_u(n - 1, q) if n >= 1 else ONE
    return Mat2(
        families.cheb_t(n, q),
        (X * X + S.scale(q)) * u.dilate(q, 0, 2),
        u.dilate(q, 0, 1),
        families.cheb_t(n, q).dilate(q, 0, 1),
    )


def det_identity_check(n: int, q):
    """T_n(x,s) T_n(x,qs) - (x^2+qs) U_(n-1)(x,qs) U_(n-1)(x,q^2 s)
       = q^C(n+1,2) (-s)^n."""
    q = as_rational(q)

    def sides(m):
        t = families.cheb_t(m, q)
        u = families.cheb_u(m - 1, q)
        lhs = t * t.dilate(q, 0, 1) - (X * X + S.scale(q)) * u.dilate(q, 0, 1) * u.dilate(
            q, 0, 2
        )
        yield lhs, XsPoly.monomial(q ** binom2(m + 1) * Fraction(-1) ** m, 0, m)

    return range(1, n + 1), sides


def det_identity_sqrt_check(n: int, r):
    """The square-root variant with q = r^2:
    T_n(qx,s) T_n(r x,s) - r^(2n-1) (qx^2+s) U_(n-1)(x,s) U_(n-1)(r x,s)
      = r^(n^2) (-s)^n."""
    r = as_rational(r)
    q = r * r

    def sides(m):
        t = families.cheb_t(m, q)
        u = families.cheb_u(m - 1, q)
        lhs = t.dilate(r, 2, 0) * t.dilate(r, 1, 0) - r ** (2 * m - 1) * (
            X.scale(q) * X + S
        ) * u * u.dilate(r, 1, 0)
        yield lhs, XsPoly.monomial(r ** (m * m) * Fraction(-1) ** m, 0, m)

    return range(1, n + 1), sides


# -- tridiagonal determinants -----------------------------------------


def _tridiag(first: int, n: int, q) -> XsPoly:
    """Determinant of the n x n tridiagonal matrix with diagonal a_j =
    (1+q^k)x, k = first+j-1 (x where k = 0), superdiagonal q^j s (rows j, j+1)
    and subdiagonal -1; first 1 gives U_n, first 0 gives T_n.  It is expanded
    along the first row over the trailing minors E_j (rows and columns j..n):
    E_j = a_j E_(j+1) + q^j s E_(j+2), E_(n+1) = 1, E_(n+2) = 0, det = E_1."""
    q = as_rational(q)
    if n < 1:
        raise ValueError("n >= 1 required")
    below, minor = ZERO, ONE  # E_(j+2), E_(j+1)
    for j in range(n, 0, -1):
        k = first + j - 1
        a_j = X.scale(1 + q**k) if k else X
        below, minor = minor, a_j * minor + S.scale(q**j) * below
    return minor


tridiag_u = partial(_tridiag, 1)
tridiag_t = partial(_tridiag, 0)
