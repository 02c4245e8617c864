"""Sparse polynomials in x, Laurent in s, over exact rationals, plus the
q-dilation substitution, q-derivative, truncation by x-degree or by weight
(x of weight 1, s of weight 2) and 2x2 matrices.
"""

from decimal import MAX_EMAX, MAX_PREC, Context, Decimal, Inexact, Rounded
from fractions import Fraction
from math import gcd, lcm, log

from .qkernel import as_rational


# exact integer products: a digit this context could not keep raises, never
# rounds, and a product of integers keeps exponent 0, so str gives no "E"
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, traps=[Inexact, Rounded])


def _coerce_coeff(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"coefficients must be exact rationals, got {type(c)}")


def _power_weights(a: int, b: int, exponents):
    """Integer weights {e: w_e} and one integer d with q^e = w_e / d for every
    e in exponents (non-empty), at q = a/b, b > 0: w_e = a^(e-lo) b^(hi-e) and
    d = a^(-lo) b^hi, where lo = min(0, min e) and hi = max(0, max e)."""
    exponents = set(exponents)
    lo, hi = min(0, min(exponents)), max(0, max(exponents))
    if lo < 0 and not a:
        raise ZeroDivisionError("Fraction(1, 0)")  # as Fraction(0) ** -k raises
    return {e: a ** (e - lo) * b ** (hi - e) for e in exponents}, a**-lo * b**hi


def _strip(n, squares, cap):
    """(n / base^v, v) for the largest v <= cap with base^v dividing n != 0,
    where squares[j] = base^(2^j) and 2^len(squares) > cap: gallop up through
    the squares while they divide, then come back down."""
    v = j = 0
    while j < len(squares) and v + (1 << j) <= cap:
        quo, rem = divmod(n, squares[j])
        if rem:
            break
        n, v, j = quo, v + (1 << j), j + 1
    for i in range(j - 1, -1, -1):
        if v + (1 << i) <= cap:
            quo, rem = divmod(n, squares[i])
            if not rem:
                n, v = quo, v + (1 << i)
    return n, v


class XsPoly:
    """Polynomial in x, Laurent in s: integer numerators {(deg_x, deg_s): n}
    over one shared denominator den, the layout of FLINT's fmpq_poly.

    deg_x >= 0; deg_s may be negative, as in the negative-index family
    members, whose denominators are pure powers of s.  No zero numerator is
    stored and den > 0, but num/den is not kept in lowest terms.  == compares
    values by cross-multiplication; lowest terms are made only where a value
    leaves the type: per term in _lowest_terms and terms, and over the whole
    value in __hash__.  _lowest_terms takes one gcd per term, or strips
    factors of a given base where den is a power of it; printing reduces
    by it, and writes a reduced denominator base^e from one Decimal
    per polynomial instead of converting the int.  Instances are treated as
    immutable.
    """

    __slots__ = ("num", "den")

    def __init__(self, terms=None):
        coeffs = {}
        if terms:
            for (dx, ds), c in terms.items():
                c = _coerce_coeff(c)
                if c != 0:
                    if dx < 0:
                        raise ValueError("negative x exponents are not representable")
                    coeffs[(dx, ds)] = c
        den = lcm(*(c.denominator for c in coeffs.values()))
        self.num = {k: c.numerator * (den // c.denominator) for k, c in coeffs.items()}
        self.den = den

    @staticmethod
    def _of(num, den):
        """The XsPoly num/den, for num with no zeros and den > 0."""
        out = XsPoly.__new__(XsPoly)
        out.num = num
        out.den = den
        return out

    @staticmethod
    def _reduced(num, den):
        """The XsPoly num/den, its sign moved to num where den < 0; num holds
        no zeros.  A zero den raises a bare ZeroDivisionError, whatever num
        holds."""
        if not den:
            raise ZeroDivisionError("XsPoly denominator is 0")
        if den < 0:
            return XsPoly._of({k: -c for k, c in num.items()}, -den)
        return XsPoly._of(num, den)

    def _times_term(self, i, j, n, d):
        """self * n/d x^i s^j, for d > 0; 0 if n is 0."""
        if not n:
            return XsPoly._of({}, 1)
        num = {(dx + i, ds + j): n * c for (dx, ds), c in self.num.items()}
        return XsPoly._of(num, d * self.den)

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero():
        return XsPoly._of({}, 1)

    @staticmethod
    def const(c):
        return XsPoly.monomial(c, 0, 0)

    @staticmethod
    def monomial(c, dx: int, ds: int):
        c = as_rational(c)
        return XsPoly._monomial(c.numerator, c.denominator, dx, ds)

    @staticmethod
    def _monomial(n: int, d: int, dx: int, ds: int):
        """n/d x^dx s^ds, for d > 0."""
        if not n:
            return XsPoly._of({}, 1)
        if dx < 0:
            raise ValueError("negative x exponents are not representable")
        return XsPoly._of({(dx, ds): n}, d)

    @staticmethod
    def x(power: int = 1):
        return XsPoly.monomial(1, power, 0)

    @staticmethod
    def s(power: int = 1):
        return XsPoly.monomial(1, 0, power)

    # -- ring structure -----------------------------------------------

    def __add__(self, other, sign=1):
        """self + other; self - other for sign -1, as __sub__ calls it."""
        other = self._coerce(other)
        if not other.num:
            return self
        if not self.num:
            return other if sign > 0 else -other
        den, fb = self.den, sign
        if den == other.den:
            num = dict(self.num)
        else:
            g = gcd(den, other.den)
            fa, fb = other.den // g, sign * (den // g)
            num = {k: c * fa for k, c in self.num.items()}
            den *= fa
        for key, c in other.num.items():
            new = num.get(key, 0) + c * fb
            if new:
                num[key] = new
            else:
                del num[key]
        return XsPoly._of(num, den)

    __radd__ = __add__

    def __neg__(self):
        return XsPoly._of({k: -c for k, c in self.num.items()}, self.den)

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if other.__class__ is not XsPoly:
            return self.scale(other)
        if len(other.num) == 1:
            ((i, j), n), = other.num.items()
            return self._times_term(i, j, n, other.den)
        if len(self.num) == 1:
            ((i, j), n), = self.num.items()
            return other._times_term(i, j, n, self.den)
        num = {}
        get = num.get
        for (i1, j1), c1 in self.num.items():
            for (i2, j2), c2 in other.num.items():
                key = (i1 + i2, j1 + j2)
                num[key] = get(key, 0) + c1 * c2
        return XsPoly._of({k: c for k, c in num.items() if c}, self.den * other.den)

    def __rmul__(self, other):
        return self * other

    def scale(self, c):
        c = as_rational(c)
        return self._times_term(0, 0, c.numerator, c.denominator)

    @staticmethod
    def _coerce(v):
        if isinstance(v, XsPoly):
            return v
        if isinstance(v, (int, Fraction)):
            return XsPoly.const(v)
        raise TypeError(f"cannot coerce {type(v)} to XsPoly")

    def __eq__(self, other):
        if other.__class__ is not XsPoly:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = XsPoly.const(other)
        d, e, num = self.den, other.den, other.num
        if d == e:
            return self.num == num
        return num.keys() == self.num.keys() and all(
            c * e == num[k] * d for k, c in self.num.items()
        )

    def __hash__(self):
        # a constant hashes as its Fraction, since it compares equal to it
        num, den = self.num, self.den
        if num.keys() <= {(0, 0)}:
            return hash(Fraction(num.get((0, 0), 0), den))
        g = gcd(den, *num.values())
        return hash((frozenset((k, c // g) for k, c in num.items()), den // g))

    def is_zero(self) -> bool:
        return not self.num

    # -- queries ------------------------------------------------------

    @property
    def terms(self):
        """{(deg_x, deg_s): Fraction coefficient}, built on each read."""
        den = self.den
        return {k: Fraction(c, den) for k, c in self.num.items()}

    def x_degree(self) -> int:
        """Degree in x; -1 for the zero polynomial."""
        return max((dx for dx, _ in self.num), default=-1)

    def x_coeffs(self):
        """Map deg_x -> XsPoly in s only (the coefficient of x^deg_x)."""
        out = {}
        for (dx, ds), c in self.num.items():
            out.setdefault(dx, {})[(0, ds)] = c
        return {dx: XsPoly._of(t, self.den) for dx, t in out.items()}

    def weight_parts(self):
        """Map weight -> the terms of that weight, x of weight 1, s of weight 2."""
        out = {}
        for (dx, ds), c in self.num.items():
            out.setdefault(dx + 2 * ds, {})[(dx, ds)] = c
        return {w: XsPoly._of(t, self.den) for w, t in out.items()}

    # -- substitutions and derivatives --------------------------------

    def dilate(self, q, m_x: int, m_s: int):
        """Substitute x -> q^m_x x and s -> q^m_s s."""
        q = as_rational(q)
        return self._dilate(q.numerator, q.denominator, m_x, m_s)

    def _dilate(self, a: int, b: int, m_x: int, m_s: int):
        """dilate at q = a/b, b > 0."""
        if not self.num:
            return self
        exps = [m_x * dx + m_s * ds for dx, ds in self.num]
        weights, d = _power_weights(a, b, exps)
        num = {}
        for (key, c), e in zip(self.num.items(), exps):
            if weights[e]:
                num[key] = c * weights[e]
        return XsPoly._reduced(num, self.den * d)

    def q_deriv(self, q):
        """Jackson q-derivative in x, acting as x^k -> [k] x^(k-1).

        Regular at q = 1, where it is the classical derivative.
        """
        q = as_rational(q)
        top = self.x_degree()
        if top < 1:
            return XsPoly.zero()
        # [k] = (w_0 + ... + w_(k-1)) / d with q^i = w_i / d
        weights, d = _power_weights(q.numerator, q.denominator, range(top))
        q_ints = [0]
        for i in range(top):
            q_ints.append(q_ints[-1] + weights[i])
        num = {}
        for (dx, ds), c in self.num.items():
            if dx and q_ints[dx]:
                num[(dx - 1, ds)] = c * q_ints[dx]
        return XsPoly._of(num, self.den * d)  # d is a power of q's denominator

    def subs_s(self, s_val):
        """Substitute a rational value for s; the result is univariate in x."""
        s_val = as_rational(s_val)
        if not self.num:
            return self
        exps = [ds for _, ds in self.num]
        weights, d = _power_weights(s_val.numerator, s_val.denominator, exps)
        num = {}
        for (dx, ds), c in self.num.items():
            key = (dx, 0)
            num[key] = num.get(key, 0) + c * weights[ds]
        return XsPoly._reduced({k: c for k, c in num.items() if c}, self.den * d)

    def shift_s(self, k: int):
        """Multiply by s^k for any integer k."""
        if k == 0:
            return self
        return XsPoly._of({(dx, ds + k): c for (dx, ds), c in self.num.items()}, self.den)

    def mod_x(self, order: int):
        """self modulo x^order: the terms of x-degree below order."""
        num = {k: c for k, c in self.num.items() if k[0] < order}
        if len(num) == len(self.num):
            return self
        return XsPoly._of(num, self.den)

    def mod_weight(self, order: int):
        """The terms of weight below order, x of weight 1 and s of weight 2."""
        num = {k: c for k, c in self.num.items() if k[0] + 2 * k[1] < order}
        if len(num) == len(self.num):
            return self
        return XsPoly._of(num, self.den)

    def as_poly(self):
        """self, checked to be a polynomial in s: no negative s exponent."""
        low = min((ds for _, ds in self.num), default=0)
        if low < 0:
            raise ValueError(f"value has a residual s^{-low} denominator")
        return self

    def evalf(self, x_val: float, s_val: float) -> float:
        den = self.den
        return sum(c / den * x_val**dx * s_val**ds for (dx, ds), c in self.num.items())

    # -- serialization ------------------------------------------------

    def _lowest_terms(self, base):
        """(key, n, e, d) per term in canonical order, descending deg_x then
        ascending deg_s, n/d its coefficient in lowest terms with d > 0.
        Where the strip leaves d = base^e, d is None and only e is given;
        elsewhere e is None.  No Fraction is made.

        base >= 1 is the number whose powers den may be: q's denominator, for
        a family at q = a/base.  Where den is base^K, each numerator is
        stripped of at most K factors of base, dividing by base^(2^j); a full
        gcd follows only where a composite base still shares a prime with
        what is left.  Where den is no power of base (for base 1, where
        den > 1), each term takes one gcd with den.  The ratios n/d are the
        same for every base."""
        num, den = self.num, self.den
        keys = sorted(num, key=lambda k: (-k[0], k[1]))
        top = round(log(den, base)) if base > 1 else 0
        if base**top != den:
            for key in keys:
                c = num[key]
                g = gcd(c, den)
                yield (key, c, None, den) if g == 1 else (key, c // g, None, den // g)
            return
        squares = [base]  # base^(2^j) for 2^j <= top
        while 1 << len(squares) <= top:
            squares.append(squares[-1] ** 2)
        for key in keys:
            c, v = _strip(num[key], squares, top)
            e = top - v
            if e and gcd(base, c % base) > 1:
                d = base**e
                g = gcd(c, d)
                yield key, c // g, None, d // g
            else:
                yield key, c, e, None

    def _coeff_texts(self, base):
        """((deg_x, deg_s), text) per term of _lowest_terms(base), text its
        coefficient n/d as _format_ratio writes it.  The whole polynomial is
        reduced first.  A d that the strip left as base^e is written without
        int-to-str: one Decimal climbs through the distinct e in increasing
        order, one multiplication by base^(e - e_prev) each, and is written
        once per e.  The texts are dropped with the polynomial."""
        terms = list(self._lowest_terms(base))
        texts, power, at = {0: ""}, Decimal(1), 0  # e -> "/" + str(base^e)
        for e in sorted({e for _, _, e, _ in terms if e}):
            # the step as an int: pure-Python decimal's power at MAX_PREC never ends
            power = _EXACT.multiply(power, Decimal(base ** (e - at)))
            texts[e], at = "/" + str(power), e
        for key, n, e, d in terms:
            yield key, _format_ratio(n, d) if e is None else f"{n}{texts[e]}"

    def json_terms(self, base=1):
        """The entries of to_json()["terms"], one per term, from
        _coeff_texts(base); base as in _lowest_terms."""
        for (dx, ds), text in self._coeff_texts(base):
            yield {"dx": dx, "ds": ds, "c": text}

    def to_json(self):
        return {"terms": list(self.json_terms())}

    def str_pieces(self, base=1):
        """str(self) in pieces, one per term, from _coeff_texts(base): the
        first term, then " + term" or " - term" for each later one.  A
        coefficient of 1 is left out beside x or s; base as in _lowest_terms."""
        if not self.num:
            yield "0"
        sep = ""
        for (dx, ds), text in self._coeff_texts(base):
            sign = sep
            if text[0] == "-":
                sign, text = (" - " if sep else "-"), text[1:]
            factors = [] if text == "1" and (dx or ds) else [text]
            if dx:
                factors.append("x" if dx == 1 else f"x^{dx}")
            if ds:
                factors.append("s" if ds == 1 else f"s^{ds}")
            yield sign + "*".join(factors)
            sep = " + "

    def __str__(self):
        return "".join(self.str_pieces())

    __repr__ = __str__


def format_rational(c: Fraction) -> str:
    return _format_ratio(c.numerator, c.denominator)


def _format_ratio(n: int, d: int) -> str:
    """The lowest-terms n/d, d > 0, as "num/den", or "num" when d is 1."""
    return str(n) if d == 1 else f"{n}/{d}"


X = XsPoly.x()
S = XsPoly.s()
ONE = XsPoly.const(1)
ZERO = XsPoly.zero()


class Mat2:
    """2x2 matrix with XsPoly entries."""

    __slots__ = ("a11", "a12", "a21", "a22")

    def __init__(self, a11, a12, a21, a22):
        self.a11 = XsPoly._coerce(a11)
        self.a12 = XsPoly._coerce(a12)
        self.a21 = XsPoly._coerce(a21)
        self.a22 = XsPoly._coerce(a22)

    def __mul__(self, other):
        return Mat2(
            self.a11 * other.a11 + self.a12 * other.a21,
            self.a11 * other.a12 + self.a12 * other.a22,
            self.a21 * other.a11 + self.a22 * other.a21,
            self.a21 * other.a12 + self.a22 * other.a22,
        )

    def trace(self) -> XsPoly:
        return self.a11 + self.a22

    def entries(self):
        return (self.a11, self.a12, self.a21, self.a22)

    def __eq__(self, other):
        return self.entries() == other.entries()

    def __repr__(self):
        return f"[[{self.a11}, {self.a12}], [{self.a21}, {self.a22}]]"
