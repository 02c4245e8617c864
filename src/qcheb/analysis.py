"""q-derivative relations, q-differential equations, the weight series and
Pearson equation, Rodrigues-type formulae, generating functions, and the
pairs of the standalone identities.

A weight series, a series in x with rational coefficients, is an XsPoly free
of s, cut by mod_x after each product and at the order where it is compared;
the Rodrigues checks compare it with a family member with s substituted.
Their 1/h needs no series inversion: by the q-binomial theorem
h(t) = (qt;q^2)_inf / (t;q^2)_inf, so 1/h is a sum of the same shape as h,
built by the same integer walk (inverse_h_of_x_squared).
The generating functions are series in z, but z need not be kept: with x of
weight 1 and s of weight 2, every monomial x^i s^j z^n of the sums has
n = i + 2j (z comes once with each x and twice with each s), as U_n and T_n
are homogeneous of weight n.  So a sum is one XsPoly at z = 1, cut below
weight order by mod_weight, and its z^n coefficient is its weight-n part.
"""

from fractions import Fraction
from functools import partial

from . import families
from .polyring import ONE, S, X, XsPoly, ZERO
from .qkernel import as_rational, binom2, q_int


def _xsq_plus(q):
    return X * X + S.scale(q)


# -- derivative relations and q-ODEs -----------------------------------


def deriv_relation_t(n: int, q):
    """D T_n(x,s,q) = [n] U_(n-1)(x,s,q)."""
    q = as_rational(q)

    def sides(m):
        yield (
            families.cheb_t(m, q).q_deriv(q),
            families.cheb_u(m - 1, q).scale(q_int(m, q)),
        )

    return range(1, n + 1), sides


def deriv_relation_u(n: int, q):
    """(x^2+qs) D U_(n-1)(x,q^2 s) + q^(n-1) x U_(n-1)(x,s) = [n] T_n(x,s)."""
    q = as_rational(q)

    def sides(m):
        u = families.cheb_u(m - 1, q)
        lhs = _xsq_plus(q) * u.dilate(q, 0, 2).q_deriv(q) + X.scale(q ** (m - 1)) * u
        yield lhs, families.cheb_t(m, q).scale(q_int(m, q))

    return range(1, n + 1), sides


def _qode_check(shift: int, n: int, q):
    """Both forms of the T (shift 0) or U (shift 1) equation, with c = [1+2 shift]
    and the eigenvalue e_n = [n][n+2 shift]:
    (x^2+qs) D^2 P_n(x,q^2 s) + q^(n-1) c x D P_n(x,s) = e_n P_n(x,s) and
    (q^(1+2 shift) x^2+s/q) D^2 P_n(x,s) + c x D P_n(x,s) = q^(-n) e_n P_n(qx,s)."""
    q = as_rational(q)
    c = q_int(1 + 2 * shift, q)

    def sides(m):
        p = (families.cheb_t, families.cheb_u)[shift](m, q)
        eig = q_int(m, q) * q_int(m + 2 * shift, q)
        d1 = p.q_deriv(q)
        d2_dilated = p.dilate(q, 0, 2).q_deriv(q).q_deriv(q)
        yield _xsq_plus(q) * d2_dilated + X.scale(q ** (m - 1) * c) * d1, p.scale(eig)
        lead = X.scale(q ** (1 + 2 * shift)) * X + S.scale(1 / q)
        lhs2 = lead * d1.q_deriv(q) + X.scale(c) * d1
        yield lhs2, p.dilate(q, 1, 0).scale(eig / q**m)

    return range(n + 1), sides


qode_check_t = partial(_qode_check, 0)
qode_check_u = partial(_qode_check, 1)


# -- h-series, Pearson equation, Rodrigues formulae --------------------


class SeriesContext:
    """Truncation context for the weight-series checks.  s_val substitutes s
    (the weight argument is -x^2/s); order is the exclusive x-power bound."""

    __slots__ = ("q", "s_val", "order")

    def __init__(self, q, s_val, order: int):
        self.q, self.s_val, self.order = as_rational(q), as_rational(s_val), order
        if self.s_val == 0:
            raise ValueError("s_val must be nonzero")
        if self.order < 2:
            raise ValueError("order must be at least 2")

    def __repr__(self):
        return f"SeriesContext(q={self.q}, s_val={self.s_val}, order={self.order})"


def h_coeffs(count: int, q) -> list:
    """The first count coefficients of h, h_k = (q;q^2)_k / (q^2;q^2)_k."""
    return [Fraction(num, den) for num, den in _poch_ratio_pairs(count, 1, q)]


def _poch_ratio_pairs(count: int, e: int, q):
    """(q^e;q^2)_k / (q^2;q^2)_k for 0 <= k < count, e <= 2, as integer pairs
    (numerator, denominator), not in lowest terms: at q = a/c, term k is term
    k-1 times (1 - q^m) / (1 - q^(2k)), m = 2k + e - 2, which is
    c^(2-e) (c^m - a^m) / (c^(2k) - a^(2k)), or, where m < 0,
    c^(2k) (a^-m - c^-m) / (a^-m (c^(2k) - a^(2k)))."""
    q = as_rational(q)
    a, c = q.numerator, q.denominator
    num = den = 1
    for k in range(count):
        if k:
            m = 2 * k + e - 2
            if m >= 0:
                num *= c ** (2 - e) * (c**m - a**m)
                den *= c ** (2 * k) - a ** (2 * k)
            else:
                num *= c ** (2 * k) * (a**-m - c**-m)
                den *= a**-m * (c ** (2 * k) - a ** (2 * k))
        yield num, den


def h_series(ctx: SeriesContext) -> XsPoly:
    """h as a series in its own argument, taken as x, to ctx.order."""
    return XsPoly({(k, 0): h for k, h in enumerate(h_coeffs(ctx.order, ctx.q))})


def h_functional_equation_check(ctx: SeriesContext):
    """h(t)(1 - t) = (1 - qt) h(q^2 t), the finite substitute for the
    infinite-product form of h, then h(t) (1/h)(t) = 1 at t = x^2, which
    checks the closed form of 1/h against h; each compared once, at the
    series order."""

    def sides(_):
        h, q = h_series(ctx), ctx.q
        lhs = (h * (1 - X)).mod_x(ctx.order)
        yield lhs, ((1 - X.scale(q)) * h.dilate(q, 2, 0)).mod_x(ctx.order)
        yield (h_of_x_squared(1, ctx) * inverse_h_of_x_squared(1, ctx)).mod_x(ctx.order), ONE

    return [ctx.order], sides, (0, ctx.order)


def _poch_ratio_of_x_squared(e: int, c: Fraction, ctx: SeriesContext) -> XsPoly:
    """sum_k (q^e;q^2)_k / (q^2;q^2)_k c^k x^(2k) to ctx.order, one Fraction
    made from integers each."""
    coeffs = {}
    u, v = c.numerator, c.denominator
    u_k = v_k = 1
    for k, (num, den) in enumerate(_poch_ratio_pairs((ctx.order + 1) // 2, e, ctx.q)):
        coeffs[(2 * k, 0)] = Fraction(num * u_k, den * v_k)
        u_k *= u
        v_k *= v
    return XsPoly(coeffs)


def h_of_x_squared(c: Fraction, ctx: SeriesContext) -> XsPoly:
    """h(c * x^2) to ctx.order: the coefficient of x^(2k) is h_k c^k."""
    return _poch_ratio_of_x_squared(1, c, ctx)


def inverse_h_of_x_squared(c: Fraction, ctx: SeriesContext) -> XsPoly:
    """1/h(c * x^2) to ctx.order, in closed form.  By the q-binomial theorem
    (Gasper-Rahman, Basic Hypergeometric Series, 2nd ed., eq. (1.3.2)),
    h(t) = (qt;q^2)_inf / (t;q^2)_inf, so
    1/h(t) = (t;q^2)_inf / (qt;q^2)_inf = sum_k (q^-1;q^2)_k / (q^2;q^2)_k (qt)^k."""
    return _poch_ratio_of_x_squared(-1, ctx.q * c, ctx)


def weight_series(ctx: SeriesContext) -> XsPoly:
    """w(x) = h(-x^2 / s_val)."""
    return h_of_x_squared(Fraction(-1) / ctx.s_val, ctx)


def pearson_check(ctx: SeriesContext):
    """Pearson operator equation D((x^2 + s) w(x)) = q x w(qx)."""

    def sides(_):
        q, w = ctx.q, weight_series(ctx)
        lhs = ((X * X + ctx.s_val) * w).mod_x(ctx.order).q_deriv(q)
        # the q-derivative loses the top coefficient, so compare one order lower
        yield lhs, (X.scale(q) * w.dilate(q, 1, 0)).mod_x(ctx.order - 1)

    return [ctx.order], sides, (0, ctx.order)


def _rodrigues(shift: int, n: int, ctx: SeriesContext):
    """T_n (shift 0) and U_n (shift 1) by their Rodrigues formulae,
    T_n = q^(n(n+1)) / ([1][3]...[2n-1]) * (1/h(-x^2/s))
    * D^n( h(-x^2/(q^(2n) s)) prod_{k=1}^n (x^2/q^(2k+1) + s/q) ) and
    U_n = q^(n(n+1)) [n+1] / ([3][5]...[2n+1]) * h(-q x^2/s)
    * D^n( (1/h(-x^2/(q^(2n-1) s))) prod_{k=1}^n (x^2/q^(2k-1) + s/q) ), with
    1/h in closed form by the q-binomial theorem (inverse_h_of_x_squared)."""
    if ctx.order < 2 * n + 10:
        raise ValueError("series order too small for a degree-n Rodrigues check")
    q, s, order = ctx.q, ctx.s_val, ctx.order
    series = (h_of_x_squared, inverse_h_of_x_squared)  # by name, so a patched one is read
    inner_h, outer_h = series[shift], series[1 - shift]
    inner = inner_h(Fraction(-1) / (q ** (2 * n - shift) * s), ctx)
    for k in range(1, n + 1):
        factor = XsPoly.monomial(q ** (2 * shift - 2 * k - 1), 2, 0) + s / q
        inner = (inner * factor).mod_x(order)
    for _ in range(n):
        inner = inner.q_deriv(q)
    pref = q ** (n * (n + 1)) * q_int(n + 1, q) ** shift
    for j in range(1, n + 1):
        pref /= q_int(2 * j - 1 + 2 * shift, q)
    # n applications of the q-derivative lose the top n coefficients
    rhs = (outer_h(-(q**shift) / s, ctx) * inner).mod_x(order - n).scale(pref)
    lhs = (families.cheb_t, families.cheb_u)[shift](n, q).subs_s(s).mod_x(order - n)
    return [n], lambda _: [(rhs, lhs)]


rodrigues_t = partial(_rodrigues, 0)
rodrigues_u = partial(_rodrigues, 1)


# -- generating functions ----------------------------------------------


def _genfun(order: int, q, shift: int) -> XsPoly:
    """Right side of the U (shift 1) or T (shift 0) generating function,
    sum_k q^C(k+shift,2) z^k prod_{j<k} (x + q^(j+1-shift) s z)
    / prod_{j<k+shift} (1 - q^j x z), at z = 1 and cut below weight order.
    Term k is term k-1 times q^e z (x + q^(k-shift) s z) / (1 - q^e x z),
    e = k - 1 + shift; term 0 has the factor 1 / (1 - x z) at shift 1.  Each
    1 / (1 - c x z) is applied as the running sum t + (cx) t + (cx)^2 t + ...,
    every product one term, cut at the order."""
    q = as_rational(q)
    term, total = ONE.mod_weight(order), ZERO
    for k in range(order):
        e = k - 1 + shift
        if k:
            term = ((X.scale(q**e) + S.scale(q ** (2 * k - 1))) * term).mod_weight(order)
        if e >= 0:
            c_x, power = X.scale(q**e), term
            while not power.is_zero():
                power = (c_x * power).mod_weight(order)
                term = term + power
        total = total + term
    return total


def genfun_check(order: int, q):
    """z-coefficients of the generating-function sums match the families:
    the z^n coefficient is the weight-n part of the sum."""
    q = as_rational(q)
    u_parts = _genfun(order, q, 1).weight_parts()
    t_parts = _genfun(order, q, 0).weight_parts()

    def sides(n):
        yield u_parts.get(n, ZERO), families.cheb_u(n, q)
        yield t_parts.get(n, ZERO), families.cheb_t(n, q)

    return range(order), sides


# -- standalone identities ---------------------------------------------
# Each yields the (lhs, rhs) pairs of one identity at index n and rational q;
# its row in suites.checks() names the identity and bounds n.


def _u(m, q):
    return families.cheb_u(m, q) if m >= 0 else ZERO


def _gen_lucas(m, q):
    return families.gen_lucas(m, q) if m >= 1 else XsPoly.const(2)


def hypergeom_fib_pairs(n, q):
    yield families.hypergeom_gen_fib(n, q), families.gen_fib(n + 1, q)


def hypergeom_lucas_pairs(n, q):
    if n >= 1:
        yield families.hypergeom_gen_lucas(n, q), families.gen_lucas(n, q)


def lucas_from_fib_pairs(n, q):
    f = families.gen_fib
    yield _gen_lucas(n, q), f(n + 1, q).scale(1 + q**n) - X.scale(q**n) * f(n, q)


def lucas_from_dilated_fib_pairs(n, q):
    f = lambda m: families.gen_fib(m, q).dilate(q, 0, 2)
    yield _gen_lucas(n, q).scale(q**n), f(n + 1).scale(1 + q**n) - X * f(n)


def t_from_u_pairs(n, q):
    yield families.cheb_t(n, q), families.cheb_u(n, q) - X.scale(q**n) * _u(n - 1, q)


def t_step_pairs(n, q):
    t = families.cheb_t
    yield t(n + 1, q), X.scale(q**n) * t(n, q) + _xsq_plus(q) * _u(n - 1, q).dilate(q, 0, 2)


def lucas_step_pairs(n, q):
    lhs = _gen_lucas(n + 1, q).scale(1 + q**n) - X.scale(q**n) * _gen_lucas(n, q)
    yield lhs, _xsq_plus(q) * families.gen_fib(n, q).dilate(q, 0, 2)


def u_as_t_sum_pairs(n, q):
    # exponent resolved by brute-force match: kn - C(k,2), not the printed C(kn,2)
    total = ZERO
    for k in range(n + 1):
        c = q ** (k * n - binom2(k))
        total = total + XsPoly.monomial(c, k, 0) * families.cheb_t(n - k, q)
    yield families.cheb_u(n, q), total


def u_step_pairs(n, q):
    u = families.cheb_u
    first = u(n + 1, q) - X.scale(q ** (n + 1)) * u(n, q)
    second = X * u(n, q) + S.scale(q**n) * _u(n - 1, q)
    yield first, second
    yield families.cheb_t(n + 1, q), second


def t_from_two_u_pairs(n, q):
    if n >= 1:
        rhs = families.cheb_u(n, q) + S.scale(q ** (2 * n - 1)) * _u(n - 2, q)
        yield families.cheb_t(n, q).scale(1 + q**n), rhs


def odd_u_pairs(n, q):
    total = ZERO
    for k in range(n + 1):
        c = Fraction(-1) ** k * q ** (4 * k * n + 3 * k - 2 * k * k)
        m = 2 * n + 1 - 2 * k
        total = total + XsPoly.monomial(c * (1 + q**m), 0, k) * families.cheb_t(m, q)
    yield families.cheb_u(2 * n + 1, q), total


def even_u_pairs(n, q):
    total = XsPoly.monomial(Fraction(-1) ** n * q ** (2 * n * n + n), 0, n)
    for k in range(n):
        c = Fraction(-1) ** k * q ** (4 * k * n + k - 2 * k * k)
        m = 2 * n - 2 * k
        total = total + XsPoly.monomial(c * (1 + q**m), 0, k) * families.cheb_t(m, q)
    yield families.cheb_u(2 * n, q), total


def t_s_difference_pairs(n, q):
    t = families.cheb_t(n, q)
    yield t.dilate(q, 0, 2) - t, S.scale((q**n - 1) * q) * _u(n - 2, q).dilate(q, 0, 2)


def t_from_dilated_u_pairs(n, q):
    if n >= 1:
        rhs = families.cheb_u(n, q).dilate(q, 0, 2) + S.scale(q) * _u(n - 2, q).dilate(q, 0, 2)
        yield families.cheb_t(n, q).scale(1 + q**n), rhs


def t_x_difference_pairs(n, q):
    t = families.cheb_t
    yield t(n + 1, q) - X * t(n, q), (X * X + S).scale(q**n) * _u(n - 1, q)


def t_and_u_step_pairs(n, q):
    t = families.cheb_t
    yield t(n + 1, q), X * t(n, q) + (X * X + S).scale(q**n) * _u(n - 1, q)
    yield families.cheb_u(n, q), t(n, q) + X.scale(q**n) * _u(n - 1, q)
