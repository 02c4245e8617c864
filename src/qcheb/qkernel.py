"""Exact scalar building blocks: q-integers, Gaussian binomials, q-Pochhammer
symbols, Carlitz q-Catalan numbers, parameter points and the bounded memo of
every recurrence.

A ParamPoint (q, b) owns its b-ladder: the powers q^j, the factors
1 - q^j b and the Pochhammer symbols (q^s b;q)_m that the (q,b) families
multiply and divide by, each computed once per ladder.  q_poch is the
general, uncached Pochhammer symbol for every other base.

Values are exact `fractions.Fraction`s and nothing here ever rounds.  The
Gaussian binomials are built in integers: at q = a/c, q_pascal(n, a, c) is
the row of G(n, k) = c^(k(n-k)) [n over k], so a closed form can sum integer
numerators over one denominator, and no row divides by [i]_q (which is 0 at
q = -1 for even i).
"""

import threading
from fractions import Fraction
from functools import lru_cache
from math import prod


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


class ParamPoint:
    """A concrete rational substitution (q, b), q != 0; x and s stay formal.

    A point owns its b-ladder: the powers q^j, the factors 1 - q^j b and the
    Pochhammer symbols (q^s b;q)_m, each computed on first use and kept in
    tables indexed from the point's b.  shift_b(j) builds the point at
    q^j b once and gives it the same tables, indexed j further on, so the
    points one point shifts to share one ladder, which lives as long as the
    last of them.  The hash is computed once.  Every division of the (q,b)
    families by a factor 1 - q^j b goes through level(j), the one place that
    raises the PoleError of a vanishing one; it names the factor and b of the
    point the ladder was built from, so a pole met at a shifted point reads
    against the sample's b.  Two threads filling the same entry store equal
    values."""

    def __init__(self, q, b):
        q, b = as_rational(q), as_rational(b)
        if q == 0:
            raise PoleError("q = 0 is not a valid parameter")
        self.__dict__.update(q=q, b=b, _hash=hash((q, b)), _shifts={}, _offset=0,
                             _root_b=b, _powers={}, _factors={}, _pochs={})

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a ParamPoint")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.q, self.b) == (other.q, other.b)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"ParamPoint(q={self.q!r}, b={self.b!r})"

    def power(self, j: int) -> Fraction:
        """q^j."""
        value = self._powers.get(j)
        if value is None:
            value = self._powers[j] = self.q**j
        return value

    def _factor(self, j: int) -> Fraction:
        """1 - q^j b, zero or not, built from integers: at q = a/c and
        b = u/v it is (c^j v - a^j u) / (c^j v), with a and c swapped for j < 0."""
        key = j + self._offset
        value = self._factors.get(key)
        if value is None:
            a, c = self.q.numerator, self.q.denominator
            if j < 0:
                a, c, j = c, a, -j
            den = c**j * self.b.denominator
            value = self._factors[key] = Fraction(den - a**j * self.b.numerator, den)
        return value

    def level(self, j: int) -> Fraction:
        """1 - q^j b, the factor the (q,b) families divide by; PoleError where it is 0."""
        factor = self._factor(j)
        if not factor:
            raise PoleError(f"1 - q^{j + self._offset} b vanishes at q={self.q}, b={self._root_b}")
        return factor

    def poch(self, s: int, m: int) -> Fraction:
        """(q^s b;q)_m, a product of factors 1 - q^j b that may be 0.  Each
        product is kept once asked for, and extends a kept (s, m-1) by one
        factor; m < 0 is q_poch's reciprocal, which is not kept."""
        if m < 0:
            return q_poch(self.power(s) * self.b, self.q, m)
        start = s + self._offset
        value = self._pochs.get((start, m))
        if value is None:
            shorter = self._pochs.get((start, m - 1))
            if shorter is None:
                value = prod(map(self._factor, range(s, s + m)), start=Fraction(1))
            else:
                value = shorter * self._factor(s + m - 1)
            self._pochs[start, m] = value
        return value

    def shift_b(self, j: int) -> "ParamPoint":
        """The point with b replaced by q^j * b, built once per j, on this
        point's ladder."""
        point = self._shifts.get(j)
        if point is None:
            point = ParamPoint(self.q, self.power(j) * self.b)
            point.__dict__.update(_offset=self._offset + j, _root_b=self._root_b,
                                  _powers=self._powers, _factors=self._factors,
                                  _pochs=self._pochs)
            self._shifts[j] = point
        return point

    def is_pole_free(self, levels) -> bool:
        return all(self._factor(j) for j in levels)


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


def q_binom(n: int, k: int, q) -> Fraction:
    """Gaussian binomial [n over k] evaluated at q; 0 outside 0 <= k <= n.

    At q = a/c it is G(n, k) / c^(k(n-k)), read from the integer row
    q_pascal(n, a, c); q_binom.cache_info and cache_clear are the rows'."""
    q = as_rational(q)
    if k < 0 or k > n:
        return Fraction(0)
    c = q.denominator
    return Fraction(q_pascal(n, q.numerator, c)[k], c ** (k * (n - k)))


def _q_pascal_row(m, rows, a, c):
    """Row m of G(m, k) = c^(k(m-k)) [m over k] at q = a/c from row m-1, by
    G(m, k) = c^(m-k) G(m-1, k-1) + a^k G(m-1, k); the row is symmetric."""
    prev, row = rows[m - 1], [1] * (m + 1)
    for k in range(1, m // 2 + 1):
        row[k] = row[m - k] = c ** (m - k) * prev[k - 1] + a**k * prev[k]
    return row


# q_pascal(n, a, c): the integer q-Pascal row [G(n, 0), ..., G(n, n)] at q = a/c.
q_pascal = sequence(lambda a, c: [[1]], _q_pascal_row)
q_binom.cache_info, q_binom.cache_clear = q_pascal.cache_info, q_pascal.cache_clear


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
