"""Moment-functional machinery: expansion of powers of x in the generalized
q-Fibonacci and q-Lucas bases, moments from three-term recurrences, the
q-Catalan connection and the trace-Lucas non-orthogonality witness.
"""

from fractions import Fraction
from functools import partial
from typing import Callable, NamedTuple

from . import families
from .polyring import ONE, S, X, XsPoly, ZERO
from .qkernel import ParamPoint, as_rational, q_binom, q_catalan, q_int, q_poch


class RecurrenceSpec(NamedTuple):
    """Monic three-term recurrence p_k = x p_(k-1) + t(k) p_(k-2), with
    p_0 = 1 and p_1 = x.  t(k) returns an s-multiple as an XsPoly.

    For Fibonacci-type families the basis index k corresponds to family
    index k + 1 (p_k = F_(k+1)); the constructors below handle the shift.
    """

    name: str
    q: Fraction  # the q the spec was built at, which `qcheb moments` writes
    t: Callable[[int], XsPoly]

    def basis(self, count: int):
        """The first `count` basis polynomials p_0 ... p_(count-1)."""
        polys = [ONE, X][:count]
        for k in range(2, count):
            polys.append(X * polys[k - 1] + self.t(k) * polys[k - 2])
        return polys


def gen_fib_spec(q) -> RecurrenceSpec:
    """Basis p_k = F_(k+1)(x,-1,s,q): t(k) = q^(k-1) s / ((1+q^(k-1))(1+q^k)).
    Each 1 + q^j is level j of the b = -1 point, which raises its PoleError."""
    point = ParamPoint(q, -1)
    return RecurrenceSpec(
        "gen_fib",
        point.q,
        lambda k: S._times_term(0, 0, *point._over_levels(k - 1, k - 1, k)),
    )


def gen_lucas_spec(q) -> RecurrenceSpec:
    """Basis L*_k (L_k(x,-1,s,q) for k >= 1, L*_0 = 1):
    t(2) = qs/(1+q) after normalizing the degree-0 element, then
    t(k) = q^(k-1) s / ((1+q^(k-2))(1+q^(k-1))), dividing by the levels of
    the b = -1 point as gen_fib_spec does."""
    point = ParamPoint(q, -1)

    def t(k):
        if k == 2:
            return S.scale(point.q / point.level(1))
        return S._times_term(0, 0, *point._over_levels(k - 1, k - 2, k - 1))

    return RecurrenceSpec("gen_lucas", point.q, t)


def carlitz_spec(q) -> RecurrenceSpec:
    """Basis p_k = F_(k+1)(x,s,q) (Carlitz, b = 0): t(k) = q^(k-1) s.  At
    q = 1 it is the classical Fibonacci basis, t(k) = s."""
    q = as_rational(q)
    return RecurrenceSpec("carlitz", q, lambda k: S.scale(q ** (k - 1)))


# The spec of each `moments --family` name at q.  CLASSICAL is Carlitz at
# q = 1, whatever q is asked for.
SPECS = {
    "GEN_FIB": gen_fib_spec,
    "GEN_LUCAS": gen_lucas_spec,
    "CARLITZ": carlitz_spec,
    "CLASSICAL": lambda q: carlitz_spec(1),
}


def moments_from_recurrence(spec: RecurrenceSpec, count: int):
    """Moments of the functional determined by the basis: expand x^m in the
    p_k via x p_k = p_(k+1) - t(k+1) p_(k-1); the p_0 coefficient is the
    moment.  Returns [moment(x^0), ..., moment(x^(count-1))] as s-polynomials.
    """
    coeffs = {0: ONE}  # x^0 = p_0
    moments = [ONE][:count]
    for _ in range(1, count):
        nxt = {}
        for k, c in coeffs.items():
            nxt[k + 1] = nxt.get(k + 1, ZERO) + c
            if k >= 1:
                nxt[k - 1] = nxt.get(k - 1, ZERO) - spec.t(k + 1) * c
        coeffs = {k: c for k, c in nxt.items() if not c.is_zero()}
        moments.append(coeffs.get(0, ZERO))
    return moments


def expand_in_basis(poly: XsPoly, basis):
    """Express an x-polynomial in a basis that is monic in x (apart from a
    possibly scaled degree-0 element): returns coefficient s-polynomials.
    The degree-0 coefficient equals the functional value when basis[0] = 1."""
    degree = poly.x_degree()
    if degree + 1 > len(basis):
        raise ValueError("basis too short for the polynomial degree")
    coeffs = [ZERO] * (degree + 1)
    residual = poly
    for k in range(degree, 0, -1):
        lead = residual.x_coeffs().get(k, ZERO)
        if lead.is_zero():
            continue
        coeffs[k] = lead
        residual = residual - lead * basis[k]
    if residual.x_degree() > 0:
        raise ValueError("reduction failed: residual still involves x")
    coeffs[0] = residual
    return coeffs


# -- closed-form expansions and moments --------------------------------


def _reconstruct_x(lucas: int, n: int, q) -> XsPoly:
    """x^n as the sum of c_k P_m, m = n + 1 - lucas - 2k, over the basis
    F_m(x,-1,s,q) (lucas = 0) or L*_m(x,s,q) (lucas = 1), with
    c_k = ([n over k] - [n over k-1]) (-s)^k / ((-q;q)_k (-q^(m+1);q)_k) for F,
    c_k = [n over k] (-qs)^k / ((-q;q)_k (-q^(m+1);q)_k) for L*."""
    q = as_rational(q)
    basis = families.gen_lucas if lucas else families.gen_fib
    total = ZERO
    for k in range(n // 2 + 1):
        m = n + 1 - lucas - 2 * k
        top = q_binom(n, k, q) * q**k if lucas else q_binom(n, k, q) - q_binom(n, k - 1, q)
        scalar = top / (q_poch(-q, q, k) * q_poch(-(q ** (m + 1)), q, k))
        c = XsPoly.monomial(scalar * Fraction(-1) ** k, 0, k)
        total = total + c * (ONE if m == 0 else basis(m, q))
    return total


reconstruct_x_fib = partial(_reconstruct_x, 0)
reconstruct_x_lucas = partial(_reconstruct_x, 1)


def _gen_even_moment(lucas: int, n: int, q) -> XsPoly:
    """Even moment Lambda(x^(2n)) of the generalized q-Fibonacci (lucas = 0)
    or q-Lucas (lucas = 1) functional:
    [2n over n] (-qs)^n / ((-q;q)_n (-q^(2-lucas);q)_n), over [n+1] for F.

    The (-qs)^n factor (rather than (-s)^n) is forced by the expansion of
    x^(2n) in the basis; the recurrence DP is the oracle here."""
    q = as_rational(q)
    den = q_poch(-q, q, n) * q_poch(-(q ** (2 - lucas)), q, n)
    if not lucas:
        den *= q_int(n + 1, q)
    return XsPoly.monomial(q_binom(2 * n, n, q) * (-q) ** n / den, 0, n)


moments_fib_closed = partial(_gen_even_moment, 0)
moments_lucas_closed = partial(_gen_even_moment, 1)


def moments_carlitz_closed(n: int, q) -> XsPoly:
    """Even moment of the Carlitz functional: (-qs)^n C_n(q)."""
    q = as_rational(q)
    return XsPoly.monomial((-q) ** n * q_catalan(n, q), 0, n)


# -- consistency checks ------------------------------------------------


def moment_consistency_check(spec_of, closed, n_max: int, q):
    """DP moments of the functional of spec_of(q) against the closed form
    closed(n, q) of its even moments, and zero odd moments."""
    q = as_rational(q)
    dp = moments_from_recurrence(spec_of(q), 2 * n_max + 1)

    def sides(m):
        yield dp[m], closed(m // 2, q) if m % 2 == 0 else ZERO

    return range(2 * n_max + 1), sides


# Carlitz moments: Lambda(x^(2n)) = (-qs)^n C_n(q).
carlitz_moment_check = partial(moment_consistency_check, carlitz_spec, moments_carlitz_closed)


def classical_moment_check(n_max: int):
    """q = 1 moments: Lambda(x^(2n)) = (-s)^n C(2n,n)/(n+1), plus the exact
    classical reconstruction of x^n."""
    one = Fraction(1)
    dp = moments_from_recurrence(carlitz_spec(one), 2 * n_max + 1)

    def sides(m):
        if m % 2:
            yield dp[m], ZERO
            return
        n = m // 2
        yield dp[m], XsPoly.monomial(Fraction(-1) ** n * q_catalan(n, one), 0, n)
        # reconstruction (classical limit of the b = -1 machinery at q = 1,
        # which collapses to binomial-difference coefficients)
        total = ZERO
        basis = carlitz_spec(one).basis(m + 2)
        power = XsPoly.monomial(1, m, 0)
        for k, c in enumerate(expand_in_basis(power, basis)):
            total = total + c * basis[k]
        yield total, power

    return range(2 * n_max + 1), sides


def orthogonality_check(total_degree: int, q):
    """Smoke test of the generalized Fibonacci and Lucas functionals:
    Lambda(p_m p_n) = 0 for m != n with m + n <= total_degree, indexed by
    the spec's name and (m, n)."""
    bases = {s.name: s.basis(total_degree + 2) for s in (gen_fib_spec(q), gen_lucas_spec(q))}

    def sides(index):
        name, (m, n) = index
        basis = bases[name]
        # Lambda(p_0) = 1 and Lambda(p_k) = 0 for k >= 1, so the value of the
        # functional is the degree-0 coefficient of the expansion
        yield expand_in_basis(basis[m] * basis[n], basis)[0], ZERO

    pairs = [(m, n) for m in range(total_degree + 1) for n in range(m + 1, total_degree + 1 - m)]
    return [(name, mn) for name in bases for mn in pairs], sides, (0, total_degree)


def nonorthogonality_witness(q):
    """For the b = 0 trace-Lucas family:
    l_1 l_3 = l_4 - q^3 s l_2 - q^2 (1-q) s^2, so any functional annihilating
    l_n (n > 0) has Lambda(l_1 l_3) = -q^2 (1-q) s^2, nonzero for q != 1."""
    q = as_rational(q)
    point = ParamPoint(q, Fraction(0))
    l = lambda n: families.lucas_trace(n, point).as_poly()
    defect = XsPoly.monomial(-(q**2) * (1 - q), 0, 2)

    def sides(route):
        if route == "identity":
            yield l(1) * l(3) - l(4) + S.scale(q**3) * l(2) + (-defect), ZERO
        else:
            # expansion route: reduce l_1 l_3 against the monic l-basis (l_0 = 2
            # normalized to the constant 1) and read off the functional value
            basis = [ONE] + [l(n) for n in range(1, 5)]
            yield expand_in_basis(l(1) * l(3), basis)[0], defect

    return ["identity", "functional"], sides, (0, 4)
