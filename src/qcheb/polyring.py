"""Sparse polynomials in x, Laurent in s, over exact rationals, plus the
q-dilation substitution, q-derivative, 2x2 matrices and truncated power series.
"""

from fractions import Fraction

from .qkernel import as_rational, q_int


def _coerce_coeff(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"coefficients must be exact rationals, got {type(c)}")


class XsPoly:
    """Polynomial in x, Laurent in s, stored as {(deg_x, deg_s): coefficient}.

    deg_x >= 0; deg_s may be negative, as in the negative-index family
    members, whose denominators are pure powers of s.  Zero coefficients are
    never stored; the zero polynomial is the empty map.  Instances are
    treated as immutable.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for (dx, ds), c in terms.items():
                c = _coerce_coeff(c)
                if c != 0:
                    if dx < 0:
                        raise ValueError("negative x exponents are not representable")
                    clean[(dx, ds)] = c
        self.terms = clean

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero():
        return XsPoly()

    @staticmethod
    def const(c):
        return XsPoly({(0, 0): as_rational(c)})

    @staticmethod
    def monomial(c, dx: int, ds: int):
        return XsPoly({(dx, ds): as_rational(c)})

    @staticmethod
    def x(power: int = 1):
        return XsPoly({(power, 0): Fraction(1)})

    @staticmethod
    def s(power: int = 1):
        return XsPoly({(0, power): Fraction(1)})

    # -- ring structure -----------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        terms = dict(self.terms)
        for key, c in other.terms.items():
            new = terms.get(key, Fraction(0)) + c
            if new == 0:
                terms.pop(key, None)
            else:
                terms[key] = new
        out = XsPoly.__new__(XsPoly)
        out.terms = terms
        return out

    __radd__ = __add__

    def __neg__(self):
        out = XsPoly.__new__(XsPoly)
        out.terms = {k: -c for k, c in self.terms.items()}
        return out

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        terms = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                key = (i1 + i2, j1 + j2)
                new = terms.get(key, Fraction(0)) + c1 * c2
                if new == 0:
                    terms.pop(key, None)
                else:
                    terms[key] = new
        out = XsPoly.__new__(XsPoly)
        out.terms = terms
        return out

    def __rmul__(self, other):
        return self * other

    def scale(self, c):
        c = as_rational(c)
        if c == 0:
            return XsPoly.zero()
        out = XsPoly.__new__(XsPoly)
        out.terms = {k: v * c for k, v in self.terms.items()}
        return out

    @staticmethod
    def _coerce(v):
        if isinstance(v, XsPoly):
            return v
        if isinstance(v, (int, Fraction)):
            return XsPoly.const(v)
        raise TypeError(f"cannot coerce {type(v)} to XsPoly")

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = XsPoly.const(other)
        if not isinstance(other, XsPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def is_zero(self) -> bool:
        return not self.terms

    # -- queries ------------------------------------------------------

    def coeff(self, dx: int, ds: int) -> Fraction:
        return self.terms.get((dx, ds), Fraction(0))

    def x_degree(self) -> int:
        """Degree in x; -1 for the zero polynomial."""
        return max((dx for dx, _ in self.terms), default=-1)

    def x_coeffs(self):
        """Map deg_x -> XsPoly in s only (the coefficient of x^deg_x)."""
        out = {}
        for (dx, ds), c in self.terms.items():
            out.setdefault(dx, {})[(0, ds)] = c
        return {dx: XsPoly(t) for dx, t in out.items()}

    def constant(self) -> Fraction:
        """The value when the polynomial is constant; error otherwise."""
        if not self.terms:
            return Fraction(0)
        if set(self.terms) == {(0, 0)}:
            return self.terms[(0, 0)]
        raise ValueError("polynomial is not constant")

    # -- substitutions and derivatives --------------------------------

    def dilate(self, q, m_x: int, m_s: int):
        """Substitute x -> q^m_x x and s -> q^m_s s."""
        q = as_rational(q)
        terms = {}
        for (dx, ds), c in self.terms.items():
            terms[(dx, ds)] = c * q ** (m_x * dx + m_s * ds)
        return XsPoly(terms)

    def q_deriv(self, q):
        """Jackson q-derivative in x, acting as x^k -> [k] x^(k-1).

        Regular at q = 1, where it is the classical derivative.
        """
        q = as_rational(q)
        terms = {}
        for (dx, ds), c in self.terms.items():
            if dx >= 1:
                terms[(dx - 1, ds)] = terms.get((dx - 1, ds), Fraction(0)) + c * q_int(dx, q)
        return XsPoly(terms)

    def deriv(self):
        """Ordinary derivative in x."""
        terms = {}
        for (dx, ds), c in self.terms.items():
            if dx >= 1:
                terms[(dx - 1, ds)] = terms.get((dx - 1, ds), Fraction(0)) + c * dx
        return XsPoly(terms)

    def subs_s(self, s_val):
        """Substitute a rational value for s; the result is univariate in x."""
        s_val = as_rational(s_val)
        terms = {}
        for (dx, ds), c in self.terms.items():
            key = (dx, 0)
            terms[key] = terms.get(key, Fraction(0)) + c * s_val**ds
        return XsPoly(terms)

    def shift_s(self, k: int):
        """Multiply by s^k for any integer k."""
        if k == 0:
            return self
        return XsPoly({(dx, ds + k): c for (dx, ds), c in self.terms.items()})

    def as_poly(self):
        """self, checked to be a polynomial in s: no negative s exponent."""
        low = min((ds for _, ds in self.terms), default=0)
        if low < 0:
            raise ValueError(f"value has a residual s^{-low} denominator")
        return self

    def evalf(self, x_val: float, s_val: float) -> float:
        return sum(float(c) * x_val**dx * s_val**ds for (dx, ds), c in self.terms.items())

    # -- serialization ------------------------------------------------

    def sorted_terms(self):
        """Canonical order: descending deg_x, then ascending deg_s."""
        return sorted(self.terms.items(), key=lambda kv: (-kv[0][0], kv[0][1]))

    def to_json(self):
        return {
            "terms": [
                {"dx": dx, "ds": ds, "c": format_rational(c)}
                for (dx, ds), c in self.sorted_terms()
            ]
        }

    @staticmethod
    def from_json(data):
        terms = {}
        for t in data["terms"]:
            terms[(int(t["dx"]), int(t["ds"]))] = Fraction(t["c"])
        return XsPoly(terms)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for (dx, ds), c in self.sorted_terms():
            factors = []
            if abs(c) != 1 or (dx == 0 and ds == 0):
                factors.append(format_rational(c))
            if dx:
                factors.append("x" if dx == 1 else f"x^{dx}")
            if ds:
                factors.append("s" if ds == 1 else f"s^{ds}")
            sign = "-" if c == -1 and (dx or ds) else ""
            parts.append(sign + "*".join(factors))
        return " + ".join(parts).replace("+ -", "- ")

    __repr__ = __str__


def format_rational(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


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

    @staticmethod
    def identity():
        return Mat2(1, 0, 0, 1)

    def det(self) -> XsPoly:
        return self.a11 * self.a22 - self.a12 * self.a21

    def trace(self) -> XsPoly:
        return self.a11 + self.a22

    def entries(self):
        return (self.a11, self.a12, self.a21, self.a22)

    def __eq__(self, other):
        return self.entries() == other.entries()

    def __repr__(self):
        return f"[[{self.a11}, {self.a12}], [{self.a21}, {self.a22}]]"


def _elem_inv(c):
    """Multiplicative inverse of a series coefficient (Fraction or constant XsPoly)."""
    if isinstance(c, XsPoly):
        value = c.constant()
        if value == 0:
            raise ZeroDivisionError("constant term is not invertible")
        return XsPoly.const(1 / value)
    c = as_rational(c)
    if c == 0:
        raise ZeroDivisionError("constant term is not invertible")
    return 1 / c


class TruncSeries:
    """Truncated power series: coefficients for powers 0 .. order-1 of the
    series variable.  Coefficients may be Fractions or XsPoly values; results
    are exact modulo variable^order.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs, order: int):
        if order < 0:
            raise ValueError("order must be >= 0")
        coeffs = list(coeffs)[:order]
        coeffs += [Fraction(0)] * (order - len(coeffs))
        self.order = order
        self.coeffs = coeffs

    @staticmethod
    def zero(order: int):
        return TruncSeries([], order)

    @staticmethod
    def one(order: int):
        return TruncSeries([Fraction(1)], order)

    @staticmethod
    def geom(c, order: int):
        """1 / (1 - c * variable) = sum c^k variable^k."""
        coeffs = []
        power = Fraction(1) if isinstance(c, (int, Fraction)) else XsPoly.const(1)
        for _ in range(order):
            coeffs.append(power)
            power = power * c
        return TruncSeries(coeffs, order)

    def _check(self, other):
        if self.order != other.order:
            raise ValueError("truncation orders differ")

    def __add__(self, other):
        if isinstance(other, (int, Fraction, XsPoly)):
            coeffs = list(self.coeffs)
            if self.order > 0:
                coeffs[0] = coeffs[0] + other
            return TruncSeries(coeffs, self.order)
        self._check(other)
        return TruncSeries([a + b for a, b in zip(self.coeffs, other.coeffs)], self.order)

    __radd__ = __add__

    def __neg__(self):
        return TruncSeries([-a for a in self.coeffs], self.order)

    def __sub__(self, other):
        if isinstance(other, TruncSeries):
            self._check(other)
            return TruncSeries(
                [a - b for a, b in zip(self.coeffs, other.coeffs)], self.order
            )
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, XsPoly)):
            return TruncSeries([a * other for a in self.coeffs], self.order)
        self._check(other)
        coeffs = [Fraction(0)] * self.order
        for i, a in enumerate(self.coeffs):
            if isinstance(a, XsPoly) and a.is_zero():
                continue
            if isinstance(a, Fraction) and a == 0:
                continue
            for j in range(self.order - i):
                coeffs[i + j] = coeffs[i + j] + a * other.coeffs[j]
        return TruncSeries(coeffs, self.order)

    __rmul__ = __mul__

    def recip(self):
        """Multiplicative inverse; requires an invertible constant term."""
        inv0 = _elem_inv(self.coeffs[0])
        out = [inv0]
        for k in range(1, self.order):
            acc = None
            for j in range(1, k + 1):
                term = self.coeffs[j] * out[k - j]
                acc = term if acc is None else acc + term
            out.append(-(inv0 * acc))
        return TruncSeries(out, self.order)

    def shift(self, k: int):
        """Multiply by variable^k (k >= 0)."""
        return TruncSeries([Fraction(0)] * k + self.coeffs, self.order)

    def truncate(self, order: int):
        """Restrict to a smaller truncation order."""
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return TruncSeries(self.coeffs[:order], order)

    def qderiv_in_var(self, q):
        """q-derivative with respect to the series variable itself."""
        q = as_rational(q)
        return TruncSeries(
            [self.coeffs[k + 1] * q_int(k + 1, q) for k in range(self.order - 1)],
            self.order,
        )

    def dilate_var(self, q, m: int = 1):
        """Substitute variable -> q^m * variable."""
        q = as_rational(q)
        return TruncSeries(
            [c * q ** (m * k) for k, c in enumerate(self.coeffs)], self.order
        )

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        self._check(other)
        return all(a == b for a, b in zip(self.coeffs, other.coeffs))

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def __repr__(self):
        return f"TruncSeries({self.coeffs!r}, order={self.order})"

