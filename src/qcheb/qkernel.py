"""Exact scalar building blocks: q-integers, Gaussian binomials, q-Pochhammer
symbols, Carlitz q-Catalan numbers, parameter points and the memo of every
recurrence, kept for one q sample of a run by a memo_scope, none outside one.

A ParamPoint (q, b) owns its b-ladder: the levels 1 - q^j b that the (q,b)
families multiply and divide by, each computed once per ladder; a Pochhammer
symbol (q^s b;q)_m is the product of m of them, taken anew on each call.
q_poch is the general, uncached Pochhammer symbol of order n >= 0 for every
other base.

Nothing here ever rounds.  The arithmetic is in integers: at q = a/c a level
is an integer pair read by ParamPoint.level_pair, q_poch and q_int multiply
integer numerators over one integer denominator, and at q = a/c
q_pascal(n, a, c) is the row of G(n, k) = c^(k(n-k)) [n over k], so a closed
form can sum integer numerators over one denominator, and no row divides by
[i]_q (which is 0 at q = -1 for even i).  A value handed out by level(),
q_poch(), q_int(), q_binom() or q_catalan() is an exact `fractions.Fraction`,
made once from its integers.
"""

from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache
from itertools import count
from math import gcd


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


def _lowest(n: int, d: int):
    """The integers (n, d) of the Fraction n/d: divided by their gcd, d > 0.
    A zero d raises a bare ZeroDivisionError."""
    if not d:
        raise ZeroDivisionError("division by zero")
    g = gcd(n, d)
    if d < 0:
        g = -g
    return n // g, d // g


class ParamPoint:
    """A concrete rational substitution (q, b), q != 0; x and s stay formal.

    A point owns its b-ladder: the levels 1 - q^j b, each held as an integer
    pair (numerator, denominator), computed on first use and kept in a table
    indexed from the point's b; the Pochhammer symbols (q^s b;q)_m are
    multiplied from it on each call and not kept.  At q = a/c and b = u/v,
    level j is the pair (c^j v - a^j u, c^j v), with a and c swapped for
    j < 0 and the signs turned so that the denominator is positive; it is not
    in lowest terms.  shift_b(j) builds the point at q^j b once and gives it
    the same table, indexed j further on, so the points one point shifts to
    share one ladder, built from the root's b, which lives as long as the
    last of them.
    A Fraction is made only at the public edge, by level().

    Every division of the (q,b) families by a factor 1 - q^j b goes through
    level_pair(j) (or level(j), its Fraction), the one place that raises the
    PoleError of a vanishing one; it names the factor and b of the point the
    ladder was built from, so a pole met at a shifted point reads against the
    sample's b.  Two points are equal when their integer fields are; the hash
    is computed once."""

    def __init__(self, q, b):
        q, b = as_rational(q), as_rational(b)
        ints = (q.numerator, q.denominator, b.numerator, b.denominator)
        if not ints[0]:
            raise PoleError("q = 0 is not a valid parameter")
        self.__dict__.update(q=q, b=b, _ints=ints, _hash=hash(ints), _shifts={}, _offset=0,
                             _root=(b, ints[2], ints[3]), _pairs={})

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a ParamPoint")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._ints == other._ints

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"ParamPoint(q={self.q!r}, b={self.b!r})"

    def _pair(self, j: int):
        """Level j as the pair (n, d), d > 0, n possibly 0, from the root's
        b = u/v: (c^k v - a^k u, c^k v) at k = j + offset, a and c swapped
        for k < 0."""
        key = j + self._offset
        pair = self._pairs.get(key)
        if pair is None:
            a, c = self._ints[0], self._ints[1]
            _, u, v = self._root
            k = key
            if k < 0:
                a, c, k = c, a, -k
            den = c**k * v
            pair = (den - a**k * u, den) if den > 0 else (a**k * u - den, -den)
            self._pairs[key] = pair
        return pair

    def level_pair(self, j: int):
        """1 - q^j b as integers (n, d), d > 0, n != 0, not in lowest terms;
        PoleError where the level vanishes."""
        pair = self._pairs.get(j + self._offset) or self._pair(j)
        if not pair[0]:
            raise PoleError(
                f"1 - q^{j + self._offset} b vanishes at q={self.q}, b={self._root[0]}"
            )
        return pair

    def _level_product(self, levels):
        """The product of the levels j in levels, taken in their order, as
        integers (n, d), d > 0; the first vanishing level raises its PoleError."""
        num = den = 1
        for j in levels:
            n, d = self.level_pair(j)
            num *= n
            den *= d
        return num, den

    def _over_levels(self, e: int, i: int, j: int):
        """q^e / ((1 - q^i b)(1 - q^j b)) as the lowest-terms pair (n, d), d > 0;
        the PoleError of level i comes before that of level j."""
        n1, d1 = self.level_pair(i)
        n2, d2 = self.level_pair(j)
        a, c = self._ints[0], self._ints[1]
        if e < 0:
            a, c, e = c, a, -e
        return _lowest(a**e * d1 * d2, c**e * n1 * n2)

    def level(self, j: int) -> Fraction:
        """1 - q^j b, the factor the (q,b) families divide by; PoleError where it is 0."""
        return Fraction(*self.level_pair(j))

    def _poch_pair(self, s: int, m: int):
        """(q^s b;q)_m as integers (n, d), d != 0, not in lowest terms, built
        anew on each call.  For m >= 0 it is the product of the levels
        s .. s+m-1, any of which may be 0; for m < 0 it is the reciprocal of
        the product of the levels s+m .. s-1, and raises _poch_pole's
        PoleError at the first of them that vanishes."""
        num = den = 1
        for j in range(s + m, s) if m < 0 else range(s, s + m):
            n, d = self._pair(j)
            if not n and m < 0:
                raise _poch_pole(m)
            num *= n
            den *= d
        return (num, den) if m >= 0 else (den, num)

    def shift_b(self, j: int) -> "ParamPoint":
        """The point with b replaced by q^j * b, built once per j, on this
        point's ladder."""
        point = self._shifts.get(j)
        if point is None:
            point = ParamPoint(self.q, self.q**j * self.b)
            point.__dict__.update(_offset=self._offset + j, _root=self._root, _pairs=self._pairs)
            self._shifts[j] = point
        return point

    def is_pole_free(self, levels) -> bool:
        return all(self._pair(j)[0] for j in levels)


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


_memos, _scopes = [], []  # every sequence's lru_cache; one entry per open memo_scope


@contextmanager
def memo_scope():
    """Every sequence keeps its lists until a scope, a nested one too, exits."""
    _scopes.append(None)
    try:
        yield
    finally:
        _scopes.pop()
        for memo in _memos:
            memo.cache_clear()


def sequence(first, step, order=None):
    """The recurrence P_0, P_1, ... = *first(*params), then P_m = step(m, P, *params)
    for each later m, as fn(n, *params) -> P_n.  step may read any P_k, k < m,
    or, where order is given, only P_(m-order) .. P_(m-1).

    P is built bottom-up into one list per params, never by recursion; outside
    any memo_scope the list is fresh and dropped, inside one it is kept until
    the scope exits.  fn.cache_clear drops the kept lists and fn.cache_info
    counts them.  A kept list holds the members below a step that raised, so
    the next call with the same params raises the same error.

    A sequence with an order also has fn.walk(*params), which yields P_0,
    P_1, ... by the same steps without the memo, keeping only the order
    members the next step reads: every older entry of the list the step sees
    is None, so a step that reads further back fails loudly."""

    @lru_cache(maxsize=None)
    def members(*params):
        return list(first(*params))

    def fn(n: int, *params):
        if n < 0:
            raise ValueError(f"a sequence index must be >= 0, got {n}")
        seq = members(*params) if _scopes else list(first(*params))
        for m in range(len(seq), n + 1):
            seq.append(step(m, seq, *params))
        return seq[n]

    def walk(*params):
        seq = list(first(*params))
        for m in count():
            if m == len(seq):
                seq.append(step(m, seq, *params))
            if m >= order:
                seq[m - order] = None  # step m + 1 reads P_(m+1-order) .. P_m
            yield seq[m]

    _memos.append(members)
    fn.cache_clear, fn.cache_info = members.cache_clear, members.cache_info
    if order is not None:
        fn.walk = walk
    return fn


def q_int(n: int, q) -> Fraction:
    """[n] = 1 + q + ... + q^(n-1); equals n at q = 1.  At q = a/c it is
    w / c^(n-1) with the integer w = c^(n-1) + a c^(n-2) + ... + a^(n-1),
    which is (c^n - a^n) / (c - a) off q = 1 and n at q = 1."""
    if n < 0:
        raise ValueError("q_int needs n >= 0")
    q = as_rational(q)
    a, c = q.numerator, q.denominator
    if not n:
        return Fraction(0)
    return Fraction((c**n - a**n) // (c - a) if a != c else n, c ** (n - 1))


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
q_pascal = sequence(lambda a, c: [[1]], _q_pascal_row, order=1)
q_binom.cache_info, q_binom.cache_clear = q_pascal.cache_info, q_pascal.cache_clear


def q_poch(a, q, n: int) -> Fraction:
    """(a; q)_n = (1-a)(1-qa)...(1-q^(n-1)a), n >= 0; negative orders are
    ParamPoint._poch_pair's.

    At a = u/v and q = p/r the factor 1 - q^i a is (r^i v - p^i u) / (r^i v),
    so the product is one integer numerator over one integer denominator and
    a single Fraction is made."""
    if n < 0:
        raise ValueError("q_poch needs n >= 0")
    a = as_rational(a)
    q = as_rational(q)
    u, v, p, r = a.numerator, a.denominator, q.numerator, q.denominator
    num = den = 1
    p_i = r_i = 1
    for _ in range(n):
        d = r_i * v
        num *= d - p_i * u
        den *= d
        p_i *= p
        r_i *= r
    return Fraction(num, den)


def _poch_pole(n: int) -> PoleError:
    """The error of (a;q)_n, n < 0, where a factor 1 - q^i a vanishes, which
    is where q^i a = 1."""
    return PoleError(f"(a;q)_{n} undefined: factor 1 - 1 vanishes")


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
