"""Exact scalar building blocks: q-integers, Gaussian binomials, q-Pochhammer
symbols, Carlitz q-Catalan numbers and the bounded memo of every recurrence.

All arithmetic is over `fractions.Fraction`; nothing here ever rounds.
"""

import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache


class PoleError(ZeroDivisionError):
    """A parameter choice makes one of the scalar denominators vanish; being
    a ZeroDivisionError, it is caught with every unguarded division by zero."""


def as_rational(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        return Fraction(v)
    raise TypeError(f"cannot interpret {v!r} as an exact rational")


@dataclass(frozen=True)
class ParamPoint:
    """A concrete rational substitution (q, b), q != 0; x and s stay formal.

    Every division of the (q,b) families by a factor 1 - q^j b goes through
    level(j), the one place that raises the PoleError of a vanishing one."""

    q: Fraction
    b: Fraction

    def __post_init__(self):
        object.__setattr__(self, "q", as_rational(self.q))
        object.__setattr__(self, "b", as_rational(self.b))
        if self.q == 0:
            raise PoleError("q = 0 is not a valid parameter")

    def shift_b(self, j: int) -> "ParamPoint":
        """The point with b replaced by q^j * b."""
        return ParamPoint(self.q, self.q**j * self.b)

    def level(self, j: int) -> Fraction:
        """1 - q^j b, the factor the (q,b) families divide by; PoleError where it is 0."""
        factor = 1 - self.q**j * self.b
        if factor == 0:
            raise PoleError(f"1 - q^{j} b vanishes at q={self.q}, b={self.b}")
        return factor

    def is_pole_free(self, levels) -> bool:
        return all(self.q**j * self.b != 1 for j in levels)


# Default sample set used by every identity suite; combinations producing a
# pole in the requested level range are filtered out by sample_points().
DEFAULT_QS = (Fraction(2), Fraction(1, 2), Fraction(3, 5), Fraction(7))
DEFAULT_BS = (Fraction(0), Fraction(-1), Fraction(2), Fraction(3, 7))


def sample_points(levels=range(0, 40), qs=DEFAULT_QS, bs=DEFAULT_BS):
    """All pole-free (q, b) sample points for the given b-level range."""
    points = []
    for q in qs:
        for b in bs:
            p = ParamPoint(q, b)
            if p.is_pole_free(levels):
                points.append(p)
    return points


def sequence(first, step):
    """The recurrence P_0, P_1, ... = *first(*params), then P_m = step(m, P, *params)
    for each later m, as fn(n, *params) -> P_n.  step may read any P_k, k < m.

    P is built bottom-up into one list per params, never by recursion, under
    one lock per sequence.  The lists of the 64 most recently used params are
    kept; fn.cache_clear drops them and fn.cache_info counts them.  A step that
    raises keeps the members below it, so the next call with the same params
    raises the same error."""
    lock = threading.RLock()

    @lru_cache(maxsize=64)
    def members(*params):
        return list(first(*params))

    def fn(n: int, *params):
        if n < 0:
            raise ValueError(f"a sequence index must be >= 0, got {n}")
        with lock:
            seq = members(*params)
            for m in range(len(seq), n + 1):
                seq.append(step(m, seq, *params))
            return seq[n]

    fn.cache_clear, fn.cache_info = members.cache_clear, members.cache_info
    return fn


@lru_cache(maxsize=1024)
def q_int(n: int, q: Fraction) -> Fraction:
    """[n] = 1 + q + ... + q^(n-1); equals n at q = 1."""
    if n < 0:
        raise ValueError("q_int needs n >= 0")
    total = Fraction(0)
    power = Fraction(1)
    for _ in range(n):
        total += power
        power *= q
    return total


@lru_cache(maxsize=4096)
def q_binom(n: int, k: int, q) -> Fraction:
    """Gaussian binomial [n over k] evaluated at q; 0 outside 0 <= k <= n."""
    q = as_rational(q)
    if k < 0 or k > n:
        return Fraction(0)
    k = min(k, n - k)
    num = Fraction(1)
    den = Fraction(1)
    for i in range(1, k + 1):
        num *= q_int(n - k + i, q)
        den *= q_int(i, q)
    return num / den


def q_poch(a, q, n: int) -> Fraction:
    """(a; q)_n = (1-a)(1-qa)...(1-q^(n-1)a), extended to negative n by
    (a; q)_(-n) = 1 / (q^(-n) a; q)_n."""
    a = as_rational(a)
    q = as_rational(q)
    if n >= 0:
        result = Fraction(1)
        factor = a
        for _ in range(n):
            result *= 1 - factor
            factor *= q
        return result
    # negative order: reciprocal of the product starting at q^n * a
    result = Fraction(1)
    factor = q**n * a
    for _ in range(-n):
        term = 1 - factor
        if term == 0:
            raise PoleError(f"(a;q)_{n} undefined: factor 1 - {factor} vanishes")
        result *= term
        factor *= q
    return 1 / result


def q_catalan(n: int, q) -> Fraction:
    """Carlitz q-Catalan number via C_n = sum_k q^k C_k C_(n-1-k), C_0 = 1.

    At q = a/b the sequence holds the integers c_n = C_n b^C(n,2), which obey
    c_n = sum_k a^k b^((n-1-k)(k+1)) c_k c_(n-1-k), so the only division is
    the final one."""
    if n < 0:
        raise ValueError("q_catalan needs n >= 0")
    q = as_rational(q)
    return Fraction(_q_catalan(n, q.numerator, q.denominator), q.denominator ** binom2(n))


_q_catalan = sequence(
    lambda a, b: [1],
    lambda n, c, a, b: sum(
        a**k * b ** ((n - 1 - k) * (k + 1)) * c[k] * c[n - 1 - k] for k in range(n)
    ),
)


def binom2(n: int) -> int:
    """n choose 2, valid for any integer n."""
    return n * (n - 1) // 2
