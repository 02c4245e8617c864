"""Generators for the polynomial families: Carlitz and (q,b)-Fibonacci,
trace-Lucas and (q,b)-Lucas, the b = -1 generalized families, Al-Salam/Ismail
polynomials and both kinds of q-Chebyshev polynomials.

Every family is computable by at least two independent routes (closed-form sum
and three-term recurrence); negative indices give polynomials in x with
negative powers of s, held in the same XsPoly type.

The primary recurrences, each F/L and U/T pair one sequence with a 0/1 flag,
the dilated Carlitz route, the backward walks and F_m(x, qb, qs) are
`qkernel.sequence`s, built bottom-up and kept for one q sample of a run by a
`qkernel.memo_scope`, none outside a scope.  family_walk walks a recurrence
of every family without the memo, two members at a time: the primary's, or
for F_CARLITZ, whose primary is a closed form, the dilated route of its
oracle (L_TRACE as two Fibonacci walks side by side).  The closed forms
(beyond the q-Pascal rows they read) and the dilated (q,b) routes keep no memo.

The closed-form sums work in integers at q = a/c: _fib_lucas_qb_closed,
one sum with a 0/1 flag behind fib_qb_closed (fib_carlitz at b = 0) and
lucas_qb_closed; lucas_trace_closed; _cheb_closed, likewise behind
cheb_u_closed and cheb_t_closed; and the hypergeometric forms.  Each raises
ValueError below the n it holds from.  Term k is an integer numerator over a
power of c times a product that gains one integer factor per k; its Gaussian
binomials are entries of the rows qkernel.q_pascal(m, a, c), and the (q,b)
forms take each factor 1 - q^j b from ParamPoint.level_pair(j), in the order
that raises the first vanishing one.  _one_denominator puts every term over
the last denominator and takes no gcd.  No sum divides by [i]_q, and the
hypergeometric sums divide by 1 + q^k only as a level of the b = -1
families, so the sums hold at q = -1 off their families' poles.
"""

import enum
from fractions import Fraction
from itertools import chain, islice
from typing import Callable, NamedTuple

from .polyring import ONE, S, X, XsPoly, ZERO
from .qkernel import (
    ParamPoint,
    PoleError,
    _lowest,
    _scopes,
    as_rational,
    binom2,
    q_pascal,
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


# -- integer closed-form sums -----------------------------------------


def _one_denominator(terms, c=1) -> XsPoly:
    """The sum of num_k / (c^e_k f_0 f_1 ... f_k) x^dx s^ds over the terms
    [((dx, ds), num_k, e_k, f_k), ...], all integers with e_k >= 0.

    One pass from the last term multiplies each numerator by the factors
    after it and by the power of c it lacks, so that every term is over
    c^max(e) f_0 ... f_K; XsPoly._reduced makes that denominator positive,
    and raises a bare ZeroDivisionError where a factor is 0."""
    top = max((e for _, _, e, _ in terms), default=0)
    num, tail = {}, 1
    for key, value, e, f in reversed(terms):
        if value:
            num[key] = value * tail * c ** (top - e)
        tail *= f
    return XsPoly._reduced(num, tail * c**top)


def _lucas_weight(m: int, k: int, a: int, c: int) -> int:
    """c^(k(m-k)+k) [m+k]/[m] [m over k] at q = a/c, from the division-free
    [m+k]/[m] [m over k] = q^k [m over k] + [m-1 over k-1]."""
    weight = a**k * q_pascal(m, a, c)[k]
    if k:
        weight += c**m * q_pascal(m - 1, a, c)[k - 1]
    return weight


# -- Carlitz q-Fibonacci ----------------------------------------------


def fib_carlitz(n: int, q) -> XsPoly:
    """Closed-form sum over k of q^(k^2) [n-1-k over k] s^k x^(n-1-2k): the
    b = 0 member of the (q,b)-Fibonacci family, by fib_qb_closed."""
    return fib_qb_closed(n, ParamPoint(q, 0))


def fib_carlitz_rec(n: int, q) -> XsPoly:
    """Parameter-dilated recurrence route: F_n = x F_(n-1)(x,qs) + qs F_(n-2)(x,q^2 s)."""
    return _fib_carlitz_rec(n, *_q_ints(q))


def _q_ints(q):
    """q = a/c as the integers (a, c), the parameters of the q-only recurrences."""
    q = as_rational(q)
    return q.numerator, q.denominator


# The q-only recurrences are kept per q = a/c and step in integers.
_fib_carlitz_rec = sequence(
    lambda a, c: (ZERO, ONE),
    lambda m, f, a, c: f[m - 1]._dilate(a, c, 0, 1)._times_term(1, 0, 1, 1)
    + f[m - 2]._dilate(a, c, 0, 2)._times_term(0, 1, a, c),
    order=2,
)


# -- (q, b)-Fibonacci --------------------------------------------------


def fib_qb(n: int, point: ParamPoint) -> XsPoly:
    """Primary route: fixed-parameter recurrence with index-dependent coefficient.

    F_n = x F_(n-1) + q^(n-2) s / ((1 - q^(n-2) b)(1 - q^(n-1) b)) F_(n-2).
    """
    if n < 0:
        raise ValueError("use fib_qb_ext for negative indices")
    return _fib_lucas_qb(n, point, 0)


# Step m of F_n (lucas = 0) and L_n (lucas = 1): x P_(m-1) + q^(m-2+lucas) s /
# ((1 - q^(m-2) b)(1 - q^(m-1) b)) P_(m-2), the coefficient a lowest-terms integer pair.
_fib_lucas_qb = sequence(
    lambda p, lucas: (XsPoly.const(1 - p.b), X) if lucas else (ZERO, ONE),
    lambda m, f, p, lucas: f[m - 1]._times_term(1, 0, 1, 1)
    + f[m - 2]._times_term(0, 1, *p._over_levels(m - 2 + lucas, m - 2, m - 1)),
    order=2,
)


def fib_qb_closed(n: int, point: ParamPoint) -> XsPoly:
    """Closed-form sum route for the (q,b)-Fibonacci polynomials:
    sum of q^(k^2) [n-1-k over k] s^k x^(n-1-2k) / ((qb;q)_k (q^(n-k) b;q)_k)."""
    return _fib_lucas_qb_closed(n, point, 0)


def _fib_lucas_qb_closed(n: int, point: ParamPoint, lucas: int) -> XsPoly:
    """F_n (lucas = 0) and L_n (lucas = 1, n >= 1) as the sum over k of
    q^(k^2) w_k s^k x^(m-k) / ((qb;q)_k (q^(n-k) b;q)_k), m = n - 1 + lucas - k,
    with w_k = [m over k] for F and [m over k] - q^m b [m-1 over k-1] for L.

    The denominator gains the two factors (1 - q^k b)(1 - q^(n-k) b) per k:
    their numerators are term k's new factor, their denominators multiply
    its numerator.  At q = a/c and b = u/v, L's term k is over c^(km+k) v."""
    if n < lucas:
        raise ValueError(f"closed form holds for n >= {lucas}")
    a, c = point.q.numerator, point.q.denominator
    u, v = point.b.numerator, point.b.denominator
    terms = []
    carried = 1
    for k in range((n - 1 + lucas) // 2 + 1):
        factor = v**lucas  # L's term 0 is over v
        if k and point.b:  # at b = 0 every level is 1, and so is v
            factor, den = point._level_product((k, n - k))
            carried *= den
        m = n - 1 + lucas - k
        value = q_pascal(m, a, c)[k]
        if lucas:
            value *= c**k * v
            if k:
                value -= a**m * u * q_pascal(m - 1, a, c)[k - 1]
        terms.append(((m - k, k), a ** (k * k) * value * carried, k * m + lucas * k, factor))
    return _one_denominator(terms, c)


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
    a, c = point.q.numerator, point.q.denominator
    prev, cur = seed0, seed1
    for m in range(2, n + 1):
        coeff = point._over_levels(1, n - m + 1, n - m + 2)
        lower = prev._dilate(a, c, 0, 2)._times_term(0, 1, *coeff)
        prev, cur = cur, cur._dilate(a, c, 0, 1)._times_term(1, 0, 1, 1) + lower
    return cur


def fib_qb_ext(n: int, point: ParamPoint) -> XsPoly:
    """(q,b)-Fibonacci for any integer index.

    Negative indices use the explicit extension
    F_(-m) = (-1)^(m-1) q^C(m+1,2) (b/q^(m-1);q)_m (b/q^m;q)_m F_m(x, b/q^m, s/q^m) / s^m.
    """
    if n >= 0:
        return fib_qb(n, point)
    return _reflected(fib_qb, -n, -n - 1, point)


def fib_qb_up(m: int, point: ParamPoint) -> XsPoly:
    """F_m(x, qb, qs) for any integer m, the shifted member that the
    trace-Lucas, transfer-matrix, Cassini and Cassini-Euler identities read;
    kept for m >= 0 in a memo scope, built alone outside one."""
    if m >= 0 and _scopes:
        return _fib_qb_up(m, point)
    return fib_qb_ext(m, point.shift_b(1)).dilate(point.q, 0, 1)


_fib_qb_up = sequence(lambda p: (), lambda m, f, p: fib_qb_ext(m, p.shift_b(1)).dilate(p.q, 0, 1))


def _reflected(route, m: int, sign: int, point: ParamPoint) -> XsPoly:
    """The negative-index extensions of F and l, m > 0:
    (-1)^sign q^C(m+1,2) (b/q^m;q)_m (b/q^(m-1);q)_m route(m)(x, b/q^m, s/q^m) / s^m."""
    a, c = point.q.numerator, point.q.denominator
    e = binom2(m + 1)
    n1, d1 = point._poch_pair(-m, m)
    n2, d2 = point._poch_pair(1 - m, m)
    scalar = _lowest((-1 if sign % 2 else 1) * a**e * n1 * n2, c**e * d1 * d2)
    inner = route(m, point.shift_b(-m)).dilate(point.q, 0, -m)
    return inner._times_term(0, -m, *scalar)


def fib_qb_backward(n: int, point: ParamPoint) -> XsPoly:
    """Backward-run recurrence oracle for negative indices, from
    F_(n-2) = (F_n - x F_(n-1)) (1-q^(n-2)b)(1-q^(n-1)b) / (q^(n-2) s),
    walked from (F_1, F_0) down to F_n, member k of _fib_qb_backward being
    F_(1-k).  The step to F_m multiplies by the levels m and m+1,
    denominators of the forward recurrence, so it raises where they vanish."""
    return fib_qb(n, point) if n >= 0 else _fib_qb_backward(1 - n, point)


_fib_qb_backward = sequence(  # the step to F_m divides by q^m / levels, m = 1 - k
    lambda p: (fib_qb(1, p), fib_qb(0, p)),
    lambda k, f, p: (f[k - 2] - X * f[k - 1])._times_term(
        0, -1, *_lowest(*reversed(p._over_levels(1 - k, 1 - k, 2 - k)))
    ),
)


# -- trace-Lucas l_n ---------------------------------------------------


def lucas_trace(n: int, point: ParamPoint) -> XsPoly:
    """l_n = F_(n+1)(x,b,s) + s/((1-b)(1-qb)) F_(n-1)(x,qb,qs), any integer n."""
    scalar = point._over_levels(0, 0, 1)
    shifted = fib_qb_up(n - 1, point)._times_term(0, 1, *scalar)
    return fib_qb_ext(n + 1, point) + shifted


def _lucas_trace_walk(point: ParamPoint):
    """l_0, l_1, ... as lucas_trace builds them, from the walk of F_(n+1)(x,b,s)
    and that of F_(n-1)(x,qb,qs), two members held of each."""
    scalar = point._over_levels(0, 0, 1)
    ups = chain([fib_qb_up(-1, point)],
                (f.dilate(point.q, 0, 1) for f in _fib_lucas_qb.walk(point.shift_b(1), 0)))
    for f, up in zip(islice(_fib_lucas_qb.walk(point, 0), 1, None), ups):
        yield f + up._times_term(0, 1, *scalar)


def lucas_trace_closed(n: int, point: ParamPoint) -> XsPoly:
    """Explicit sum for l_n, n > 0:
    sum of q^(k^2-k) [n]/[n-k] [n-k over k] s^k x^(n-2k) / ((b;q)_k (q^(n-k+1) b;q)_k),
    with [n]/[n-k] [n-k over k] = q^k [n-k over k] + [n-k-1 over k-1], so no
    term divides by [n-k].

    The denominator gains the two factors (1 - q^(k-1) b)(1 - q^(n-k+1) b)
    per k, carried as in _fib_lucas_qb_closed."""
    if n <= 0:
        raise ValueError("closed form holds for n > 0")
    a, c = point.q.numerator, point.q.denominator
    terms = []
    carried = 1
    for k in range(n // 2 + 1):
        factor = 1
        if k:
            factor, den = point._level_product((k - 1, n - k + 1))
            carried *= den
        m = n - k
        value = a ** (k * k - k) * _lucas_weight(m, k, a, c) * carried
        terms.append(((m - k, k), value, k * m, factor))
    return _one_denominator(terms, c)


def lucas_trace_neg_closed(n: int, point: ParamPoint) -> XsPoly:
    """Negative-index extension:
    l_(-n) = (-1)^n q^C(n+1,2) / s^n (b/q^n;q)_n (b/q^(n-1);q)_n l_n(x, b/q^n, s/q^n)."""
    if n <= 0:
        raise ValueError("pass the positive n of l_(-n)")
    return _reflected(lucas_trace, n, n, point)


# -- (q, b)-Lucas L_n --------------------------------------------------


def lucas_qb(n: int, point: ParamPoint) -> XsPoly:
    """Primary route: fixed-parameter recurrence (L_0 = 1 - b, L_1 = x),
    L_n = x L_(n-1) + q^(n-1) s / ((1 - q^(n-2) b)(1 - q^(n-1) b)) L_(n-2)."""
    if n < 0:
        raise ValueError("lucas_qb needs n >= 0")
    return _fib_lucas_qb(n, point, 1)


def lucas_qb_closed(n: int, point: ParamPoint) -> XsPoly:
    """Closed form, n >= 1:
    sum of q^(k^2) s^k x^(n-2k) ([n-k over k] - q^(n-k) b [n-1-k over k-1])
    / ((qb;q)_k (q^(n-k) b;q)_k)."""
    return _fib_lucas_qb_closed(n, point, 1)


def lucas_qb_dilated(n: int, point: ParamPoint) -> XsPoly:
    """Parameter-dilated recurrence route:
    L_n(x,b,s) = x L_(n-1)(x,qb,qs) + qs/((1-qb)(1-q^2 b)) L_(n-2)(x,q^2 b,q^2 s),
    built bottom-up by _dilated_bottom_up from L_0 = 1 - q^n b at level n."""
    return _dilated_bottom_up(n, point, XsPoly.const(1 - point.q**n * point.b), X)


def lucas_qb_relation(n: int, point: ParamPoint) -> XsPoly:
    """Third route: L_n = F_(n+1) - q^(2n-1) s b / ((1-q^(n-1)b)(1-q^n b)) F_(n-1)."""
    if n < 1:
        raise ValueError("relation holds for n >= 1")
    num, den = point._over_levels(2 * n - 1, n - 1, n)
    coeff = _lowest(num * point.b.numerator, den * point.b.denominator)
    return fib_qb(n + 1, point) - fib_qb(n - 1, point)._times_term(0, 1, *coeff)


def gen_lucas_neg_closed(n: int, q) -> XsPoly:
    """L_(-n)(x,-1,s,q) = (-1)^n q^(-C(n+1,2)) s^(-n) (-q;q)_n (-1;q)_n L_n(x,-1,s,q)."""
    if n <= 0:
        raise ValueError("pass the positive n of L_(-n)")
    q = as_rational(q)
    point = _b_minus_1(q)
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
    walked from (L_1, L_0) down to L_n."""
    q = as_rational(q)
    point = _b_minus_1(q)
    if n >= 0:
        return lucas_qb(n, point)
    # The walk multiplies by the levels j < 0, 1+q^j at b = -1, and level j
    # vanishes exactly where level -j does.  So the levels 0..-n-1 of the
    # forward recurrence to L_(-n) are taken first, in its order, to raise the
    # PoleError that gen_lucas_neg_closed raises.
    for j in range(-n):
        point.level_pair(j)
    return _gen_lucas_backward(1 - n, point)


# The step multiplies by its levels 1 + q^j, j < 0, as Fractions: a vanishing one gives
# the 0 member gen_lucas_neg_closed gives (L_(-1) at q = -1), where _over_levels, as in
# _fib_qb_backward, would raise, and eq-4.6 at q = -1 would name 1 - q^-1 b, not 1 - q^1 b.
_gen_lucas_backward = sequence(  # member k is L_(1-k), made as L_(m-2) at m = 3 - k
    lambda p: (lucas_qb(1, p), lucas_qb(0, p)),
    lambda k, f, p: (f[k - 2] - X * f[k - 1])
    .scale((1 + p.q ** (1 - k)) * (1 + p.q ** (2 - k)) / p.q ** (2 - k))
    .shift_s(-1),
)


# -- Al-Salam / Ismail -------------------------------------------------


def alsalam_ismail(n: int, a, beta, q) -> XsPoly:
    """u_n(x; a, beta): u_0 = 1, u_1 = (1+a)x,
    u_n = x (1+q^(n-1) a) u_(n-1) - q^(n-2) beta u_(n-2).

    beta may be a rational or an XsPoly (e.g. -q*s for the Chebyshev case)."""
    return _alsalam_ismail(n, *_alsalam_params(a, beta, q))


def _alsalam_params(a, beta, q):
    """The parameters of the Al-Salam/Ismail recurrence, as it keeps them."""
    return as_rational(a), XsPoly._coerce(beta), as_rational(q)


_alsalam_ismail = sequence(
    lambda a, beta, q: (ONE, X.scale(1 + a)),
    lambda m, u, a, beta, q: X.scale(1 + q ** (m - 1) * a) * u[m - 1]
    - q ** (m - 2) * beta * u[m - 2],
    order=2,
)


# -- q-Chebyshev U and T ----------------------------------------------


def cheb_u(n: int, q) -> XsPoly:
    """U_n = (1+q^n) x U_(n-1) + q^(n-1) s U_(n-2); U_0 = 1, U_1 = (1+q)x."""
    if n < 0:
        raise ValueError("use cheb_u_ext for negative indices")
    return _cheb(n, *_q_ints(q), 0)


# Step m of U_n (shift = 0) and T_n (shift = 1): (1+q^(m-shift)) x P_(m-1) + q^(m-1) s P_(m-2).
# At q = a/c, 1 + q^j = (c^j + a^j) / c^j and q^j = a^j / c^j are in lowest terms.
_cheb = sequence(
    lambda a, c, shift: (ONE, X if shift else X._times_term(0, 0, c + a, c)),
    lambda m, u, a, c, shift: u[m - 1]._times_term(
        1, 0, c ** (m - shift) + a ** (m - shift), c ** (m - shift)
    )
    + u[m - 2]._times_term(0, 1, a ** (m - 1), c ** (m - 1)),
    order=2,
)


def cheb_u_closed(n: int, q) -> XsPoly:
    """Closed form: sum of q^(k^2) [n-k over k] (-q^(k+1);q)_(n-2k) s^k x^(n-2k)."""
    return _cheb_closed(n, q, 0)


def _cheb_closed(n: int, q, shift: int) -> XsPoly:
    """U_n (shift = 0) and T_n (shift = 1): the sum over k of q^(k^2) w_k
    (1+q^(k+1))...(1+q^(n-k-shift)) s^k x^(n-2k), w_k = [n-k over k] for U and
    the division-free _lucas_weight's [n]/[n-k] [n-k over k] for T, whose
    k = n/2 term is q^(k^2).  From k = n//2 down the product grows by its two
    end factors per step and is never divided (a factor vanishes at q = -1);
    at q = a/c it is poch / c^sigma, poch the product of the c^j + a^j."""
    q = as_rational(q)
    if n < 0:
        raise ValueError("closed form holds for n >= 0")
    a, c = q.numerator, q.denominator
    poch, sigma = 1, 0
    terms = []
    for k in range(n // 2, -1, -1):
        m = n - k
        top = m - shift  # the product runs over j = k+1 .. top
        if top < k:  # T's n = 2k term
            terms.append(((0, k), a ** (k * k), k * k, 1))
            continue
        if k < top:
            for j in {k + 1, top}:  # one factor where they meet
                poch *= c**j + a**j
                sigma += j
        weight = _lucas_weight(m, k, a, c) if shift else q_pascal(m, a, c)[k]
        terms.append(((m - k, k), a ** (k * k) * weight * poch, k * m + shift * k + sigma, 1))
    return _one_denominator(terms, c)


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
    U_(m-2) = (U_m - (1+q^m) x U_(m-1)) q^(1-m) / s."""
    return _cheb_backward(n, q, 0)


def _cheb_backward(n: int, q, shift: int) -> XsPoly:
    """P_(m-2) = (P_m - (1+q^(m-shift)) x P_(m-1)) q^(1-m) / s for U (shift = 0)
    and T (shift = 1), walked from P_1 and P_0 down to P_n, in Fraction steps."""
    q = as_rational(q)
    return (cheb_u, cheb_t)[shift](n, q) if n >= 0 else _cheb_walk_back(1 - n, q, shift)


_cheb_walk_back = sequence(  # member k is P_(1-k), made as P_(m-2) at m = 3 - k
    lambda q, shift: ((cheb_u, cheb_t)[shift](1, q), (cheb_u, cheb_t)[shift](0, q)),
    lambda k, f, q, shift: (f[k - 2] - X.scale(1 + q ** (3 - k - shift)) * f[k - 1])
    .scale(q ** (k - 2))
    .shift_s(-1),
)


def cheb_t(n: int, q) -> XsPoly:
    """T_n = (1+q^(n-1)) x T_(n-1) + q^(n-1) s T_(n-2); T_0 = 1, T_1 = x."""
    if n < 0:
        raise ValueError("use cheb_t_ext for negative indices")
    return _cheb(n, *_q_ints(q), 1)


def cheb_t_closed(n: int, q) -> XsPoly:
    """Closed form via (-q;q)_(n-1) times the generalized q-Lucas sum:
    sum of q^(k^2) [n]/[n-k] [n-k over k] (-q;q)_(n-1) s^k x^(n-2k)
    / ((-q;q)_k (-q^(n-k);q)_k)."""
    return _cheb_closed(n, q, 1)


def cheb_t_ext(n: int, q) -> XsPoly:
    """T_n for any integer index: T_(-m) = (-1)^m s^(-m) T_m."""
    q = as_rational(q)
    if n >= 0:
        return cheb_t(n, q)
    m = -n
    return cheb_t(m, q).scale(Fraction(-1) ** m).shift_s(-m)


def cheb_t_backward(n: int, q) -> XsPoly:
    """Backward-run recurrence oracle for negative T-indices, from
    T_(m-2) = (T_m - (1+q^(m-1)) x T_(m-1)) q^(1-m) / s."""
    return _cheb_backward(n, q, 1)


# -- hypergeometric forms (b = -1 families) ---------------------------


def gen_fib(n: int, q) -> XsPoly:
    """F_n(x, -1, s, q)."""
    return fib_qb(n, _b_minus_1(q))


def gen_lucas(n: int, q) -> XsPoly:
    """L_n(x, -1, s, q)."""
    return lucas_qb(n, _b_minus_1(q))


def _b_minus_1(q) -> ParamPoint:
    """The point (q, -1) of the b = -1 families GEN_FIB and GEN_LUCAS."""
    return ParamPoint(q, Fraction(-1))


def hypergeom_gen_fib(n: int, q) -> XsPoly:
    """Hypergeometric-form sum equal to F_(n+1)(x, -1, s, q):
    sum of (q^-n;q^2)_k (q^(1-n);q^2)_k / ((q^-2n;q^2)_k (q^2;q^2)_k) (-s)^k x^(n-2k)."""
    return _hypergeom_sum(n, as_rational(q), 2 * n + 2)


def hypergeom_gen_lucas(n: int, q) -> XsPoly:
    """Hypergeometric-form sum equal to L_n(x, -1, s, q) for n >= 1:
    sum of (q^-n;q^2)_k (q^(1-n);q^2)_k / ((q^(2-2n);q^2)_k (q^2;q^2)_k) (-q^2 s)^k x^(n-2k)."""
    q = as_rational(q)
    if n < 1:
        raise ValueError("hypergeometric Lucas form holds for n >= 1")
    return _hypergeom_sum(n, q, 2 * n)


def _hypergeom_sum(n: int, q: Fraction, top: int) -> XsPoly:
    """Sum over 0 <= k <= n//2 of
    (q^-n;q^2)_k (q^(1-n);q^2)_k / ((q^(2-top);q^2)_k (q^2;q^2)_k) z^k s^k x^(n-2k),
    with top = 2n+2 and z = -1 for F_(n+1), top = 2n and z = -q^2 for L_n.

    Each Pochhammer symbol gains one factor per k; writing each
    1 - q^-m (m > 0) as -q^-m (1 - q^m), term k is term k-1 times
    q^(2k-1) (1 - q^(n+2-2k))(1 - q^(n+1-2k)) / ((1 - q^(top-2k))(1 - q^(2k))),
    every exponent >= 0.  The factor 1 - q^(2k) is (1 - q^k)(1 + q^k), and
    1 + q^k is level k of the b = -1 families, so a vanishing one raises
    their PoleError.  Each of the other four factors 1 - q^m is (1 - q) [m]_q,
    two above and two below, so (1 - q)^2 cancels and the ratio is taken
    with the integers w(m) = c^(m-1) [m]_q at q = a/c: the sum is finite at
    q = 1, where w(m) = m, and a vanishing [m]_q (m even at q = -1) leaves a
    zero denominator."""
    if n < 0:
        raise ValueError("closed form holds for n >= 0")
    if q == 0:
        raise PoleError("q must be nonzero")
    a, c = q.numerator, q.denominator
    point = _b_minus_1(q)

    def w(m):  # c^(m-1) [m]_q = (c^m - a^m) / (c - a), m >= 1
        return (c**m - a**m) // (c - a) if a != c else m

    terms = []
    num = 1
    for k in range(n // 2 + 1):
        factor = 1
        if k:
            level = point.level_pair(k)[0]  # c^k (1 + q^k)
            num *= a ** (2 * k - 1) * c ** (top - 2 * n - 2 + 2 * k)
            num *= w(n + 2 - 2 * k) * w(n + 1 - 2 * k)
            factor = w(top - 2 * k) * w(k) * level
        terms.append(((n - 2 * k, k), num, 0, factor))
    return _one_denominator(terms)


# -- uniform dispatch --------------------------------------------------


class Family(NamedTuple):
    """A family's two routes, each called as route(n, point), and the walk
    of a recurrence of the family.  The oracle is independent: it never
    calls the recurrence of the primary route."""

    primary: Callable
    oracle: Callable
    b_free: bool  # b is a parameter of the family; the others fix or ignore it
    lowest_n: int  # the oracle holds for n >= lowest_n
    # walk(point) yields the members 0, 1, 2, ... from a recurrence with no
    # memo: the primary's, or for F_CARLITZ, whose primary is a closed form,
    # the oracle's
    walk: Callable
    fixed_b: Fraction | None = None  # the b its members are at, whatever b is asked for


# The routes are looked up by name when called, so each call reaches the
# module-level function even where that name has been rebound.
FAMILIES = {
    FamilyId.FIB_CARLITZ: Family(
        lambda n, p: fib_carlitz(n, p.q), lambda n, p: fib_carlitz_rec(n, p.q), False, 0,
        lambda p: _fib_carlitz_rec.walk(*_q_ints(p.q)), Fraction(0),
    ),
    FamilyId.FIB_QB: Family(
        lambda n, p: fib_qb(n, p), lambda n, p: fib_qb_closed(n, p), True, 0,
        lambda p: _fib_lucas_qb.walk(p, 0),
    ),
    FamilyId.LUCAS_TRACE: Family(
        lambda n, p: lucas_trace(n, p).as_poly(), lambda n, p: lucas_trace_closed(n, p), True, 1,
        lambda p: _lucas_trace_walk(p),
    ),
    FamilyId.LUCAS_QB: Family(
        lambda n, p: lucas_qb(n, p), lambda n, p: lucas_qb_closed(n, p), True, 1,
        lambda p: _fib_lucas_qb.walk(p, 1),
    ),
    FamilyId.GEN_FIB: Family(
        lambda n, p: gen_fib(n, p.q),
        lambda n, p: fib_qb_closed(n, _b_minus_1(p.q)),
        False,
        0,
        lambda p: _fib_lucas_qb.walk(_b_minus_1(p.q), 0),
        Fraction(-1),
    ),
    FamilyId.GEN_LUCAS: Family(
        lambda n, p: gen_lucas(n, p.q), lambda n, p: hypergeom_gen_lucas(n, p.q), False, 1,
        lambda p: _fib_lucas_qb.walk(_b_minus_1(p.q), 1), Fraction(-1),
    ),
    FamilyId.CHEB_U: Family(
        lambda n, p: cheb_u(n, p.q), lambda n, p: cheb_u_closed(n, p.q), False, 0,
        lambda p: _cheb.walk(*_q_ints(p.q), 0),
    ),
    FamilyId.CHEB_T: Family(
        lambda n, p: cheb_t(n, p.q), lambda n, p: cheb_t_closed(n, p.q), False, 0,
        lambda p: _cheb.walk(*_q_ints(p.q), 1),
    ),
    FamilyId.ALSALAM_ISMAIL: Family(
        lambda n, p: alsalam_ismail(n, p.q, S.scale(-p.q), p.q),
        lambda n, p: cheb_u_closed(n, p.q),
        False,
        0,
        lambda p: _alsalam_ismail.walk(*_alsalam_params(p.q, S.scale(-p.q), p.q)),
    ),
}


def family_poly(family: FamilyId, n: int, point: ParamPoint) -> XsPoly:
    """Generate one family member (n >= 0) at a parameter point by its
    primary route.  This is the surface the verify pipeline consumes."""
    return FAMILIES[family].primary(n, point)


def family_walk(family: FamilyId, point: ParamPoint):
    """The members 0, 1, 2, ... of a family at a parameter point, by the
    recurrence of its walk, without end, keeping only the members its next
    step reads.  This is the surface `qcheb gen` consumes."""
    return FAMILIES[family].walk(point)


def binet_float_fib(n: int, x_val: float, s_val: float) -> float:
    """Classical Binet value (alpha^n - beta^n)/(alpha - beta) in floats."""
    disc = (x_val * x_val + 4 * s_val) ** 0.5
    alpha = (x_val + disc) / 2
    beta = (x_val - disc) / 2
    return (alpha**n - beta**n) / (alpha - beta)
