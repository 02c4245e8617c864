"""The noncommutative word algebra on the alphabet {X, Y}: brute-force word
application, the weight-dependent binomial theorem, Fibonacci-word sums and
the Binet-like even/odd sums.

X = x eta and Y = qs/((1-qb)(1-q^2 b)) eta^2, where eta dilates (b, s) by one
q-power and fixes x.  Words act on test monomials x^i s^j b^m held as their
exponents (i, j, m); the b-dependence stays symbolic in the exponents until a
single final evaluation, so dilation is just an exponent shift.
"""

from fractions import Fraction
from functools import partial
from itertools import combinations

from . import families
from .polyring import ONE, S, X as POLY_X, XsPoly, ZERO
from .qkernel import ParamPoint, _lowest, as_rational, binom2, q_binom, q_pascal, sequence


def apply_word(word, point: ParamPoint, start=(0, 0, 0)) -> XsPoly:
    """Apply a word over {"X", "Y"} to the monomial x^i s^j b^m with
    exponents start = (i, j, m) (default: the constant 1), rightmost letter
    first.

    The letters act as X = x eta and Y = qs/((1-qb)(1-q^2 b)) eta^2 (see the
    module docstring).  The q-exponent and the denominator shifts are tracked
    as plain integers: a denominator created when the running shift was s0
    ends at exponent base + (total - s0).  The coefficient
    q^e b^m / prod levels is built as one integer numerator over one integer
    denominator and reduced once.
    """
    i, j, m = start
    denoms = []
    exp_q = 0
    shift = 0
    for letter in reversed(word):
        if letter == "X":
            exp_q += j + m
            i += 1
            shift += 1
        elif letter == "Y":
            exp_q += 2 * (j + m) + 1
            j += 1
            shift += 2
            denoms.append((1, shift))
            denoms.append((2, shift))
        else:
            raise ValueError(f"unknown letter {letter!r}")
    a, c, u, v = point._ints  # q = a/c, b = u/v
    if exp_q < 0:
        a, c, exp_q = c, a, -exp_q
    if m < 0:
        u, v, m = v, u, -m
    levels_num, levels_den = point._level_product(base + shift - s0 for base, s0 in denoms)
    num, den = a**exp_q * u**m * levels_den, c**exp_q * v**m * levels_num
    return XsPoly._monomial(*_lowest(num, den), i, j)


def words_with_k_y(n: int, k: int):
    """All words of n letters containing exactly k Y's."""
    for positions in combinations(range(n), k):
        yield tuple("Y" if i in positions else "X" for i in range(n))


def _word_sum(words, point: ParamPoint) -> XsPoly:
    """The sum of the words, each applied to 1."""
    total = ZERO
    for word in words:
        total = total + apply_word(word, point)
    return total


def word_sum_ck(n: int, k: int, point: ParamPoint) -> XsPoly:
    """Brute-force C_k^n(X,Y) 1: the sum over all words with k Y's and n-k X's."""
    return _word_sum(words_with_k_y(n, k), point)


def ck_closed(n: int, k: int, point: ParamPoint) -> XsPoly:
    """Closed form: [n over k] q^(k^2) / ((q^(n+1) b;q)_k (qb;q)_k) s^k x^(n-k)."""
    den, num = point._level_product((*range(n + 1, n + 1 + k), *range(1, k + 1)))
    if not 0 <= k <= n:
        return ZERO
    a, c = point.q.numerator, point.q.denominator
    # [n over k] q^(k^2) = G(n, k) a^(k^2) / c^(k(n-k) + k^2), G the q-Pascal entry
    num *= q_pascal(n, a, c)[k] * a ** (k * k)
    den *= c ** (k * (n - k) + k * k)
    return XsPoly._monomial(*_lowest(num, den), n - k, k)


def schlosser_coefficient(n: int, k: int, point: ParamPoint, shift: int = 0) -> Fraction:
    """c(n, k, q^shift b) = [n over k] (q^(k+1+shift) b;q)_k / (q^(n+1+shift) b;q)_k,
    and 0 for k < 0."""
    if k < 0:
        return Fraction(0)
    den, num = point._level_product(range(n + 1 + shift, n + 1 + shift + k))
    if k > n:
        return Fraction(0)
    c = point.q.denominator
    poch_num, poch_den = point._poch_pair(k + 1 + shift, k)
    binom_num = q_pascal(n, point.q.numerator, c)[k]  # c^(k(n-k)) [n over k]
    return Fraction(num * binom_num * poch_num, den * c ** (k * (n - k)) * poch_den)


def fib_words(n: int):
    """The Fibonacci words: all words over {X, Y} of length n-1 where X counts
    1 and Y counts 2."""
    if n <= 0:
        return []
    if n == 1:
        return [()]
    if n == 2:
        return [("X",)]
    return [("X",) + w for w in fib_words(n - 1)] + [("Y",) + w for w in fib_words(n - 2)]


def fib_word_sum(n: int, point: ParamPoint) -> XsPoly:
    """Brute-force Fibonacci word sum applied to 1; equals fib_qb(n, point)."""
    return _word_sum(fib_words(n), point)


def fib_word_sum_right(n: int, point: ParamPoint) -> XsPoly:
    """The right-multiplication split: F_(n-1) X + F_(n-2) Y applied to 1."""
    if n <= 0:
        return ZERO
    if n == 1:
        return ONE
    return _word_sum(
        [w + ("X",) for w in fib_words(n - 1)] + [w + ("Y",) for w in fib_words(n - 2)], point
    )


# -- operator relation checks ------------------------------------------

TEST_MONOMIALS = [(i, j, m) for i in range(3) for j in range(3) for m in range(3)]


def commutation_check(point: ParamPoint):
    """Verify X Y = (1-qb)/(1-q^3 b) q Y X,  X b = q b X  and  Y b = q^2 b Y
    on the test monomials x^i s^j b^m, indexed by the monomial's (i, j, m)
    and the relation."""
    q, b = point.q, point.b
    word = lambda letters, f: apply_word(letters, point, f)
    relations = {
        "eq-2.13": lambda f, fb: (
            word(("X", "Y"), f),
            word(("Y", "X"), f).scale(q * (1 - q * b) / point.level(3)),
        ),
        "eq-2.14": lambda f, fb: (word(("X",), fb), word(("X",), f).scale(q * b)),
        "eq-2.15": lambda f, fb: (word(("Y",), fb), word(("Y",), f).scale(q**2 * b)),
    }

    def sides(index):
        (i, j, m), relation = index
        yield relations[relation]((i, j, m), (i, j, m + 1))

    return [(f, relation) for f in TEST_MONOMIALS for relation in relations], sides, (0, 0)


def schlosser_binomial_check(n: int, point: ParamPoint):
    """(X+Y)^n 1 expands as the sum of C_k^n with each C_k^n matching the
    closed form, and the scalar coefficients obey the level recursion
    c(n,k,b) = c(n-1,k-1,q^2 b) + q^k (1-qb)/(1-q^(2k+1)b) c(n-1,k,qb).
    The index is (m, k) and the relation: eq-2.21 for C_k^m, eq-2.18 for
    the recursion."""
    q, b = point.q, point.b

    def sides(index):
        (m, k), relation = index
        if relation == "eq-2.21":
            yield word_sum_ck(m, k, point), ck_closed(m, k, point)
        elif m >= 1:
            lhs = schlosser_coefficient(m, k, point)
            rhs = schlosser_coefficient(m - 1, k - 1, point, 2) + q**k * (
                1 - q * b
            ) / point.level(2 * k + 1) * schlosser_coefficient(m - 1, k, point, 1)
            yield lhs, rhs

    grid = [(m, k) for m in range(n + 1) for k in range(m + 1)]
    return [(mk, relation) for mk in grid for relation in ("eq-2.21", "eq-2.18")], sides, (0, n)


def fib_word_check(n: int, point: ParamPoint):
    """Fibonacci word sums equal fib_qb, including the right-split form."""

    def sides(m):
        brute = fib_word_sum(m, point)
        yield brute, fib_word_sum_right(m, point)
        yield brute, families.fib_qb(m, point)

    return range(n + 1), sides


# -- Binet-like even/odd sums (first/second kind) ----------------------


# _even_product(k, q) = prod_{j=0}^{k-1} (x^2 + q^(2j+1) s), one more factor per k.
_even_product = sequence(
    lambda q: [ONE],
    lambda k, out, q: out[k - 1] * (POLY_X * POLY_X + S.scale(q ** (2 * k - 1))),
)


def _binet_sum(shift: int, n: int, q) -> XsPoly:
    """The even-part (shift 0, T) or odd-part (shift 1, U) sum:
    sum_k q^C(n-2k,2) [n+shift over 2k+shift] x^(n-2k) prod (x^2+q^(2j+1)s)."""
    q = as_rational(q)
    out = ZERO
    for k in range(n // 2 + 1):
        c = q ** binom2(n - 2 * k) * q_binom(n + shift, 2 * k + shift, q)
        out = out + XsPoly.monomial(c, n - 2 * k, 0) * _even_product(k, q)
    return out


binet_t = partial(_binet_sum, 0)
binet_u = partial(_binet_sum, 1)


def binet_product_parts(n: int, q):
    """Expand p_n = (x + A)(qx + A)...(q^(n-1)x + A) applied to 1 as an even
    part t_n and odd part u_n (so p_n 1 = t_n + u_n A), iterating with
    A^2 -> (x^2 + qs) times a two-level s-dilation."""
    return _binet_product_parts(n, as_rational(q))


def _binet_step(k: int, parts, q):
    """(t_k, u_k) from (t_(k-1), u_(k-1)), multiplying by q^(k-1) x + A."""
    t, u = parts[k - 1]
    return (
        POLY_X.scale(q ** (k - 1)) * t + (POLY_X * POLY_X + S.scale(q)) * u.dilate(q, 0, 2),
        POLY_X.scale(q ** (k - 1)) * u + t,
    )


_binet_product_parts = sequence(lambda q: [(ONE, ZERO)], _binet_step)

