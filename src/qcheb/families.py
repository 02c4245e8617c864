"""Generators for the polynomial families: Carlitz and (q,b)-Fibonacci,
trace-Lucas and (q,b)-Lucas, the b = -1 generalized families, Al-Salam/Ismail
polynomials and both kinds of q-Chebyshev polynomials.

Every family is computable by at least two independent routes (closed-form sum
and three-term recurrence); negative indices give polynomials in x with
negative powers of s, held in the same XsPoly type.

The primary recurrences and the dilated Carlitz route are `qkernel.sequence`s,
built bottom-up and kept for the 64 most recently used parameter sets; the
closed forms and the dilated (q,b) and backward routes keep no memo.
"""

import enum
from fractions import Fraction
from typing import Callable, NamedTuple

from .polyring import ONE, S, X, XsPoly, ZERO
from .qkernel import (
    ParamPoint,
    PoleError,
    as_rational,
    binom2,
    q_binom,
    q_int,
    q_poch,
    sequence,
)


class FamilyId(enum.Enum):
    FIB_CARLITZ = "F_CARLITZ"
    FIB_QB = "F_QB"
    LUCAS_TRACE = "L_TRACE"
    LUCAS_QB = "L_QB"
    GEN_FIB = "GEN_FIB"
    GEN_LUCAS = "GEN_LUCAS"
    CHEB_U = "U"
    CHEB_T = "T"
    ALSALAM_ISMAIL = "ALSALAM_ISMAIL"


# -- Carlitz q-Fibonacci ----------------------------------------------


def fib_carlitz(n: int, q) -> XsPoly:
    """Closed-form sum over k of q^(k^2) [n-1-k over k] s^k x^(n-1-2k)."""
    q = as_rational(q)
    terms = {}
    for k in range((n - 1) // 2 + 1) if n >= 1 else range(0):
        terms[(n - 1 - 2 * k, k)] = q ** (k * k) * q_binom(n - 1 - k, k, q)
    return XsPoly(terms)


def fib_carlitz_rec(n: int, q) -> XsPoly:
    """Parameter-dilated recurrence route: F_n = x F_(n-1)(x,qs) + qs F_(n-2)(x,q^2 s)."""
    return _fib_carlitz_rec(n, as_rational(q))


_fib_carlitz_rec = sequence(
    lambda q: (ZERO, ONE),
    lambda m, f, q: X * f[m - 1].dilate(q, 0, 1) + S.scale(q) * f[m - 2].dilate(q, 0, 2),
)


# -- (q, b)-Fibonacci --------------------------------------------------


def fib_qb(n: int, point: ParamPoint) -> XsPoly:
    """Primary route: fixed-parameter recurrence with index-dependent coefficient.

    F_n = x F_(n-1) + q^(n-2) s / ((1 - q^(n-2) b)(1 - q^(n-1) b)) F_(n-2).
    """
    if n < 0:
        raise ValueError("use fib_qb_ext for negative indices")
    return _fib_qb(n, point)


def _qb_coeff(m: int, point: ParamPoint, e: int) -> Fraction:
    """q^e / ((1 - q^(m-2) b)(1 - q^(m-1) b)): step m of F_n (e = m-2) and L_n (e = m-1)."""
    return point.power(e) / (point.level(m - 2) * point.level(m - 1))


_fib_qb = sequence(
    lambda point: (ZERO, ONE),
    lambda m, f, p: X * f[m - 1] + S.scale(_qb_coeff(m, p, m - 2)) * f[m - 2],
)


def fib_qb_closed(n: int, point: ParamPoint) -> XsPoly:
    """Closed-form sum route for the (q,b)-Fibonacci polynomials:
    sum of q^(k^2) [n-1-k over k] s^k x^(n-1-2k) / ((qb;q)_k (q^(n-k) b;q)_k).

    The denominator is carried from k-1 to k by its two new factors
    (1 - q^k b)(1 - q^(n-k) b)."""
    q = point.q
    terms = {}
    den = Fraction(1)
    for k in range((n - 1) // 2 + 1) if n >= 1 else range(0):
        if k:
            den *= point.level(k) * point.level(n - k)
        terms[(n - 1 - 2 * k, k)] = q ** (k * k) * q_binom(n - 1 - k, k, q) / den
    return XsPoly(terms)


def fib_qb_dilated(n: int, point: ParamPoint) -> XsPoly:
    """Parameter-dilated recurrence route:
    F_n(x,b,s) = x F_(n-1)(x,qb,qs) + qs/((1-qb)(1-q^2 b)) F_(n-2)(x,q^2 b,q^2 s),
    built bottom-up by _dilated_bottom_up."""
    return _dilated_bottom_up(n, point, ZERO, ONE)


def _dilated_bottom_up(n: int, point: ParamPoint, seed0: XsPoly, seed1: XsPoly) -> XsPoly:
    """Unroll P_n(x,b,s) = x P_(n-1)(x,qb,qs) + qs/((1-qb)(1-q^2 b)) P_(n-2)(x,q^2 b,q^2 s).

    Index m of the unrolled recursion is only ever needed at b-level n-m,
    b_(n-m) = q^(n-m) b, so G_m = P_m(x, b_(n-m), s) is built for m = 0, 1, ..., n
    from the seeds G_0 = P_0 at level n and G_1 = P_1 at level n-1:
    G_m = x G_(m-1)(x,qs) + qs/((1-q b_(n-m))(1-q^2 b_(n-m))) G_(m-2)(x,q^2 s).
    That is n-1 steps of two dilations each; step m divides by the levels
    n-m+1 and n-m+2 of the point."""
    if n < 0:
        raise ValueError("the dilated route holds for n >= 0")
    if n == 0:
        return seed0
    q = point.q
    prev, cur = seed0, seed1
    for m in range(2, n + 1):
        coeff = q / (point.level(n - m + 1) * point.level(n - m + 2))
        prev, cur = cur, X * cur.dilate(q, 0, 1) + S.scale(coeff) * prev.dilate(q, 0, 2)
    return cur


def fib_qb_ext(n: int, point: ParamPoint) -> XsPoly:
    """(q,b)-Fibonacci for any integer index.

    Negative indices use the explicit extension
    F_(-m) = (-1)^(m-1) q^C(m+1,2) (b/q^(m-1);q)_m (b/q^m;q)_m F_m(x, b/q^m, s/q^m) / s^m.
    """
    if n >= 0:
        return fib_qb(n, point)
    m = -n
    q = point.q
    scalar = (
        Fraction(-1) ** (m - 1) * q ** binom2(m + 1) * point.poch(1 - m, m) * point.poch(-m, m)
    )
    inner = fib_qb(m, point.shift_b(-m)).dilate(q, 0, -m)
    return inner.scale(scalar).shift_s(-m)


def fib_qb_backward(n: int, point: ParamPoint) -> XsPoly:
    """Backward-run recurrence oracle for negative indices, from
    F_(n-2) = (F_n - x F_(n-1)) (1-q^(n-2)b)(1-q^(n-1)b) / (q^(n-2) s),
    walked in one loop from (F_1, F_0) down to F_n.  Step m multiplies by
    the levels m and m+1, denominators of the forward recurrence, so it
    raises where they vanish."""
    if n >= 0:
        return fib_qb(n, point)
    q = point.q
    hi, mid = fib_qb(1, point), fib_qb(0, point)
    for m in range(-1, n - 1, -1):
        scalar = point.level(m) * point.level(m + 1) / q**m
        hi, mid = mid, (hi - X * mid).scale(scalar).shift_s(-1)
    return mid


# -- trace-Lucas l_n ---------------------------------------------------


def lucas_trace(n: int, point: ParamPoint) -> XsPoly:
    """l_n = F_(n+1)(x,b,s) + s/((1-b)(1-qb)) F_(n-1)(x,qb,qs), any integer n."""
    q = point.q
    scalar = 1 / (point.level(0) * point.level(1))
    shifted = fib_qb_ext(n - 1, point.shift_b(1)).dilate(q, 0, 1)
    return fib_qb_ext(n + 1, point) + shifted.shift_s(1).scale(scalar)


def lucas_trace_closed(n: int, point: ParamPoint) -> XsPoly:
    """Explicit sum for l_n, n > 0:
    sum of q^(k^2-k) [n]/[n-k] [n-k over k] s^k x^(n-2k) / ((b;q)_k (q^(n-k+1) b;q)_k).

    The denominator is carried from k-1 to k by its two new factors
    (1 - q^(k-1) b)(1 - q^(n-k+1) b)."""
    if n <= 0:
        raise ValueError("closed form holds for n > 0")
    q = point.q
    qn = q_int(n, q)
    terms = {}
    den = Fraction(1)
    for k in range(n // 2 + 1):
        if k:
            den *= point.level(k - 1) * point.level(n - k + 1)
        terms[(n - 2 * k, k)] = (
            q ** (k * k - k) * qn / q_int(n - k, q) * q_binom(n - k, k, q) / den
        )
    return XsPoly(terms)


def lucas_trace_neg_closed(n: int, point: ParamPoint) -> XsPoly:
    """Negative-index extension:
    l_(-n) = (-1)^n q^C(n+1,2) / s^n (b/q^n;q)_n (b/q^(n-1);q)_n l_n(x, b/q^n, s/q^n)."""
    if n <= 0:
        raise ValueError("pass the positive n of l_(-n)")
    q = point.q
    scalar = Fraction(-1) ** n * q ** binom2(n + 1) * point.poch(-n, n) * point.poch(1 - n, n)
    inner = lucas_trace(n, point.shift_b(-n)).dilate(q, 0, -n)
    return inner.scale(scalar).shift_s(-n)


# -- (q, b)-Lucas L_n --------------------------------------------------


def lucas_qb(n: int, point: ParamPoint) -> XsPoly:
    """Primary route: fixed-parameter recurrence (L_0 = 1 - b, L_1 = x),
    L_n = x L_(n-1) + q^(n-1) s / ((1 - q^(n-2) b)(1 - q^(n-1) b)) L_(n-2)."""
    if n < 0:
        raise ValueError("use lucas_qb_ext for negative indices")
    return _lucas_qb(n, point)


_lucas_qb = sequence(
    lambda point: (XsPoly.const(1 - point.b), X),
    lambda m, f, p: X * f[m - 1] + S.scale(_qb_coeff(m, p, m - 1)) * f[m - 2],
)


def lucas_qb_closed(n: int, point: ParamPoint) -> XsPoly:
    """Closed form, n >= 1:
    sum of q^(k^2) s^k x^(n-2k) ([n-k over k] - q^(n-k) b [n-1-k over k-1])
    / ((qb;q)_k (q^(n-k) b;q)_k).

    The denominator is carried from k-1 to k by its two new factors
    (1 - q^k b)(1 - q^(n-k) b)."""
    if n < 1:
        raise ValueError("closed form holds for n >= 1")
    q, b = point.q, point.b
    terms = {}
    den = Fraction(1)
    for k in range(n // 2 + 1):
        if k:
            den *= point.level(k) * point.level(n - k)
        num = q_binom(n - k, k, q) - q ** (n - k) * b * q_binom(n - 1 - k, k - 1, q)
        terms[(n - 2 * k, k)] = q ** (k * k) * num / den
    return XsPoly(terms)


def lucas_qb_dilated(n: int, point: ParamPoint) -> XsPoly:
    """Parameter-dilated recurrence route:
    L_n(x,b,s) = x L_(n-1)(x,qb,qs) + qs/((1-qb)(1-q^2 b)) L_(n-2)(x,q^2 b,q^2 s),
    built bottom-up by _dilated_bottom_up from L_0 = 1 - q^n b at level n."""
    return _dilated_bottom_up(n, point, XsPoly.const(1 - point.q**n * point.b), X)


def lucas_qb_relation(n: int, point: ParamPoint) -> XsPoly:
    """Third route: L_n = F_(n+1) - q^(2n-1) s b / ((1-q^(n-1)b)(1-q^n b)) F_(n-1)."""
    if n < 1:
        raise ValueError("relation holds for n >= 1")
    coeff = point.q ** (2 * n - 1) * point.b / (point.level(n - 1) * point.level(n))
    return fib_qb(n + 1, point) - S.scale(coeff) * fib_qb(n - 1, point)


def gen_lucas_neg_closed(n: int, q) -> XsPoly:
    """L_(-n)(x,-1,s,q) = (-1)^n q^(-C(n+1,2)) s^(-n) (-q;q)_n (-1;q)_n L_n(x,-1,s,q)."""
    if n <= 0:
        raise ValueError("pass the positive n of L_(-n)")
    q = as_rational(q)
    point = ParamPoint(q, Fraction(-1))
    scalar = (
        Fraction(-1) ** n
        / q ** binom2(n + 1)
        * q_poch(-q, q, n)
        * q_poch(Fraction(-1), q, n)
    )
    return lucas_qb(n, point).scale(scalar).shift_s(-n)


def gen_lucas_backward(n: int, q) -> XsPoly:
    """Backward-run (3.8)-style oracle for L_n(x,-1,s,q) at negative n, from
    L_(m-2) = (L_m - x L_(m-1)) (1+q^(m-2))(1+q^(m-1)) / (q^(m-1) s),
    walked in one loop from (L_1, L_0) down to L_n."""
    q = as_rational(q)
    point = ParamPoint(q, Fraction(-1))
    if n >= 0:
        return lucas_qb(n, point)
    # The walk multiplies by the levels j < 0, 1+q^j at b = -1, and level j
    # vanishes exactly where level -j does.  So the levels 0..-n-1 of the
    # forward recurrence to L_(-n) are taken first, in its order, to raise the
    # PoleError that gen_lucas_neg_closed raises.
    for j in range(-n):
        point.level(j)
    hi, mid = lucas_qb(1, point), lucas_qb(0, point)
    for m in range(1, n + 1, -1):
        scalar = (1 + q ** (m - 2)) * (1 + q ** (m - 1)) / q ** (m - 1)
        hi, mid = mid, (hi - X * mid).scale(scalar).shift_s(-1)
    return mid


# -- Al-Salam / Ismail -------------------------------------------------


def alsalam_ismail(n: int, a, beta, q) -> XsPoly:
    """u_n(x; a, beta): u_0 = 1, u_1 = (1+a)x,
    u_n = x (1+q^(n-1) a) u_(n-1) - q^(n-2) beta u_(n-2).

    beta may be a rational or an XsPoly (e.g. -q*s for the Chebyshev case)."""
    return _alsalam_ismail(n, as_rational(a), XsPoly._coerce(beta), as_rational(q))


_alsalam_ismail = sequence(
    lambda a, beta, q: (ONE, X.scale(1 + a)),
    lambda m, u, a, beta, q: X.scale(1 + q ** (m - 1) * a) * u[m - 1]
    - q ** (m - 2) * beta * u[m - 2],
)


# -- q-Chebyshev U and T ----------------------------------------------


def cheb_u(n: int, q) -> XsPoly:
    """U_n = (1+q^n) x U_(n-1) + q^(n-1) s U_(n-2); U_0 = 1, U_1 = (1+q)x."""
    if n < 0:
        raise ValueError("use cheb_u_ext for negative indices")
    return _cheb_u(n, as_rational(q))


_cheb_u = sequence(
    lambda q: (ONE, X.scale(1 + q)),
    lambda m, u, q: X.scale(1 + q**m) * u[m - 1] + S.scale(q ** (m - 1)) * u[m - 2],
)


def cheb_u_closed(n: int, q) -> XsPoly:
    """Closed form: sum of q^(k^2) [n-k over k] (-q^(k+1);q)_(n-2k) s^k x^(n-2k).

    The sum runs from k = n//2 down to 0, so the Pochhammer symbol
    (1+q^(k+1))...(1+q^(n-k)) grows by the two factors (1+q^(k+1))(1+q^(n-k))
    per step and is never divided (a factor vanishes at q = -1)."""
    q = as_rational(q)
    if n < 0:
        raise ValueError("closed form holds for n >= 0")
    terms = {}
    poch = q_poch(-(q ** (n // 2 + 1)), q, n % 2)
    for k in range(n // 2, -1, -1):
        if k < n // 2:
            poch *= (1 + q ** (k + 1)) * (1 + q ** (n - k))
        terms[(n - 2 * k, k)] = q ** (k * k) * q_binom(n - k, k, q) * poch
    return XsPoly(terms)


def cheb_u_ext(n: int, q) -> XsPoly:
    """U_n for any integer index: U_(-1) = 0 and
    U_(-m-2) = (-1)^m (q/s)^(m+1) U_m for m >= 0."""
    q = as_rational(q)
    if n >= 0:
        return cheb_u(n, q)
    if n == -1:
        return ZERO
    m = -n - 2
    scalar = Fraction(-1) ** m * q ** (m + 1)
    return cheb_u(m, q).scale(scalar).shift_s(-m - 1)


def cheb_u_backward(n: int, q) -> XsPoly:
    """Backward-run recurrence oracle for negative U-indices, from
    U_(m-2) = (U_m - (1+q^m) x U_(m-1)) q^(1-m) / s,
    walked in one loop from (U_1, U_0) down to U_n."""
    q = as_rational(q)
    if n >= 0:
        return cheb_u(n, q)
    hi, mid = cheb_u(1, q), cheb_u(0, q)
    for m in range(1, n + 1, -1):
        step = hi - X.scale(1 + q**m) * mid
        hi, mid = mid, step.scale(q ** (1 - m)).shift_s(-1)
    return mid


def cheb_t(n: int, q) -> XsPoly:
    """T_n = (1+q^(n-1)) x T_(n-1) + q^(n-1) s T_(n-2); T_0 = 1, T_1 = x."""
    if n < 0:
        raise ValueError("use cheb_t_ext for negative indices")
    return _cheb_t(n, as_rational(q))


_cheb_t = sequence(
    lambda q: (ONE, X),
    lambda m, t, q: X.scale(1 + q ** (m - 1)) * t[m - 1] + S.scale(q ** (m - 1)) * t[m - 2],
)


def cheb_t_closed(n: int, q) -> XsPoly:
    """Closed form via (-q;q)_(n-1) times the generalized q-Lucas sum:
    sum of q^(k^2) [n]/[n-k] [n-k over k] (-q;q)_(n-1) s^k x^(n-2k)
    / ((-q;q)_k (-q^(n-k);q)_k).

    [n] and (-q;q)_(n-1) are computed once; the denominator is carried from
    k-1 to k by its two new factors (1+q^k)(1+q^(n-k))."""
    q = as_rational(q)
    if n < 0:
        raise ValueError("closed form holds for n >= 0")
    if n == 0:
        return ONE
    qn = q_int(n, q)
    poch_n = q_poch(-q, q, n - 1)
    terms = {}
    den = Fraction(1)
    for k in range(n // 2 + 1):
        if k:
            den *= (1 + q**k) * (1 + q ** (n - k))
        terms[(n - 2 * k, k)] = (
            q ** (k * k) * qn / q_int(n - k, q) * q_binom(n - k, k, q) * poch_n / den
        )
    return XsPoly(terms)


def cheb_t_ext(n: int, q) -> XsPoly:
    """T_n for any integer index: T_(-m) = (-1)^m s^(-m) T_m."""
    q = as_rational(q)
    if n >= 0:
        return cheb_t(n, q)
    m = -n
    return cheb_t(m, q).scale(Fraction(-1) ** m).shift_s(-m)


def cheb_t_backward(n: int, q) -> XsPoly:
    """Backward-run recurrence oracle for negative T-indices, from
    T_(m-2) = (T_m - (1+q^(m-1)) x T_(m-1)) q^(1-m) / s,
    walked in one loop from (T_1, T_0) down to T_n."""
    q = as_rational(q)
    if n >= 0:
        return cheb_t(n, q)
    hi, mid = cheb_t(1, q), cheb_t(0, q)
    for m in range(1, n + 1, -1):
        step = hi - X.scale(1 + q ** (m - 1)) * mid
        hi, mid = mid, step.scale(q ** (1 - m)).shift_s(-1)
    return mid


# -- hypergeometric forms (b = -1 families) ---------------------------


def gen_fib(n: int, q) -> XsPoly:
    """F_n(x, -1, s, q)."""
    return fib_qb(n, ParamPoint(q, Fraction(-1)))


def gen_lucas(n: int, q) -> XsPoly:
    """L_n(x, -1, s, q)."""
    return lucas_qb(n, ParamPoint(q, Fraction(-1)))


def hypergeom_gen_fib(n: int, q) -> XsPoly:
    """Hypergeometric-form sum equal to F_(n+1)(x, -1, s, q):
    sum of (q^-n;q^2)_k (q^(1-n);q^2)_k / ((q^-2n;q^2)_k (q^2;q^2)_k) (-s)^k x^(n-2k)."""
    q = as_rational(q)
    if q == 0:
        raise PoleError("q must be nonzero")
    return _hypergeom_sum(n, q, q ** (-2 * n), Fraction(-1))


def hypergeom_gen_lucas(n: int, q) -> XsPoly:
    """Hypergeometric-form sum equal to L_n(x, -1, s, q) for n >= 1:
    sum of (q^-n;q^2)_k (q^(1-n);q^2)_k / ((q^(2-2n);q^2)_k (q^2;q^2)_k) (-q^2 s)^k x^(n-2k)."""
    q = as_rational(q)
    if n < 1:
        raise ValueError("hypergeometric Lucas form holds for n >= 1")
    return _hypergeom_sum(n, q, q ** (2 - 2 * n), -q * q)


def _hypergeom_sum(n: int, q: Fraction, c: Fraction, z: Fraction) -> XsPoly:
    """Sum over 0 <= k <= n//2 of
    (q^-n;q^2)_k (q^(1-n);q^2)_k / ((c;q^2)_k (q^2;q^2)_k) z^k s^k x^(n-2k).

    Each Pochhammer symbol (a;q^2)_k gains one factor per k, 1 - a q^(2(k-1))."""
    q2 = q * q
    a1, a2 = q**-n, q ** (1 - n)
    terms = {}
    num = den = step = Fraction(1)
    for k in range(n // 2 + 1) if n >= 0 else range(0):
        if k:
            num *= (1 - a1 * step) * (1 - a2 * step)
            den *= (1 - c * step) * (1 - q2 * step)
            step *= q2
        terms[(n - 2 * k, k)] = num / den * z**k
    return XsPoly(terms)


# -- uniform dispatch --------------------------------------------------


class Family(NamedTuple):
    """A family's two routes, each called as route(n, point).  The oracle is
    independent: it never calls the recurrence of the primary route."""

    primary: Callable
    oracle: Callable
    b_free: bool  # b is a parameter of the family; the others fix or ignore it
    lowest_n: int  # the oracle holds for n >= lowest_n


# The routes are looked up by name when called, so each call reaches the
# module-level function even where that name has been rebound.
FAMILIES = {
    FamilyId.FIB_CARLITZ: Family(
        lambda n, p: fib_carlitz(n, p.q), lambda n, p: fib_carlitz_rec(n, p.q), False, 0
    ),
    FamilyId.FIB_QB: Family(
        lambda n, p: fib_qb(n, p), lambda n, p: fib_qb_closed(n, p), True, 0
    ),
    FamilyId.LUCAS_TRACE: Family(
        lambda n, p: lucas_trace(n, p).as_poly(),
        lambda n, p: lucas_trace_closed(n, p),
        True,
        1,
    ),
    FamilyId.LUCAS_QB: Family(
        lambda n, p: lucas_qb(n, p), lambda n, p: lucas_qb_closed(n, p), True, 1
    ),
    FamilyId.GEN_FIB: Family(
        lambda n, p: gen_fib(n, p.q),
        lambda n, p: fib_qb_closed(n, ParamPoint(p.q, Fraction(-1))),
        False,
        0,
    ),
    FamilyId.GEN_LUCAS: Family(
        lambda n, p: gen_lucas(n, p.q), lambda n, p: hypergeom_gen_lucas(n, p.q), False, 1
    ),
    FamilyId.CHEB_U: Family(
        lambda n, p: cheb_u(n, p.q), lambda n, p: cheb_u_closed(n, p.q), False, 0
    ),
    FamilyId.CHEB_T: Family(
        lambda n, p: cheb_t(n, p.q), lambda n, p: cheb_t_closed(n, p.q), False, 0
    ),
    FamilyId.ALSALAM_ISMAIL: Family(
        lambda n, p: alsalam_ismail(n, p.q, S.scale(-p.q), p.q),
        lambda n, p: cheb_u_closed(n, p.q),
        False,
        0,
    ),
}


def family_poly(family: FamilyId, n: int, point: ParamPoint) -> XsPoly:
    """Generate one family member (n >= 0) at a parameter point by its
    primary route.  This is the surface the verify pipeline and the CLI
    consume."""
    return FAMILIES[family].primary(n, point)


def binet_float_fib(n: int, x_val: float, s_val: float) -> float:
    """Classical Binet value (alpha^n - beta^n)/(alpha - beta) in floats."""
    disc = (x_val * x_val + 4 * s_val) ** 0.5
    alpha = (x_val + disc) / 2
    beta = (x_val - disc) / 2
    return (alpha**n - beta**n) / (alpha - beta)
