"""Transfer-matrix products, Cassini-type identities and tridiagonal
determinants."""

from fractions import Fraction

import pytest

from qcheb import families, matrixids
from qcheb.polyring import ONE, S, X, ZERO
from qcheb.qkernel import ParamPoint, sample_points
from qcheb.report import check_range

F = Fraction

POINTS = sample_points(levels=range(0, 30))
NEG_POINTS = [p for p in POINTS if p.is_pole_free(range(-10, 0))]
QS = (F(2), F(1, 2), F(3, 5), F(7))


def holds(check):
    """Whether check_range finds every (lhs, rhs) pair of a check's sides equal."""
    return check_range("", None, *check).status == "pass"


@pytest.mark.parametrize("point", POINTS, ids=str)
def test_fib_matrix_entries(point):
    for n in range(1, 8):
        assert matrixids.fib_matrix_product(n, point) == matrixids.fib_matrix_expected(
            n, point
        )


def test_fib_matrix_product_needs_positive_n():
    with pytest.raises(ValueError):
        matrixids.fib_matrix_product(0, POINTS[0])


@pytest.mark.parametrize("point", NEG_POINTS, ids=str)
def test_cassini_all_integers(point):
    for n in range(-5, 12):
        lhs, rhs = matrixids.cassini_sides(n, point)
        assert lhs == rhs


@pytest.mark.parametrize("point", POINTS, ids=str)
def test_cassini_euler(point):
    for n in range(1, 7):
        for k in range(1, 5):
            lhs, rhs = matrixids.cassini_euler_sides(n, k, point)
            assert lhs == rhs


@pytest.mark.parametrize("point", POINTS, ids=str)
def test_trace_is_lucas(point):
    assert holds(matrixids.trace_lucas_check(8, point))


@pytest.mark.parametrize("q", QS)
def test_cheb_matrix_entries(q):
    for n in range(1, 9):
        assert matrixids.cheb_matrix_product(n, q) == matrixids.cheb_matrix_expected(
            n, q
        )


@pytest.mark.parametrize("q", QS)
def test_det_identity(q):
    assert holds(matrixids.det_identity_check(12, q))


@pytest.mark.parametrize("r", (F(2), F(1, 2), F(3)))
def test_det_identity_sqrt(r):
    assert holds(matrixids.det_identity_sqrt_check(9, r))


@pytest.mark.parametrize("q", QS)
def test_tridiagonal_determinants(q):
    for n in range(1, 12):
        assert matrixids.tridiag_u(n, q) == families.cheb_u(n, q)
        assert matrixids.tridiag_t(n, q) == families.cheb_t(n, q)


def _det(rows):
    """Determinant by expansion along the first row (small matrices only)."""
    if not rows:
        return ONE
    total = ZERO
    for j, entry in enumerate(rows[0]):
        if not entry.is_zero():
            minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
            total = total + entry * _det(minor) * (-1) ** j
    return total


def _tridiagonal(diagonal, q):
    """The matrix of the tridiag_* docstrings: superdiagonal q^j s (rows j,
    j+1, counted from 1) and subdiagonal -1."""
    n = len(diagonal)
    return [
        [
            diagonal[r] if c == r
            else S.scale(q ** (r + 1)) if c == r + 1
            else -ONE if c == r - 1
            else ZERO
            for c in range(n)
        ]
        for r in range(n)
    ]


@pytest.mark.parametrize("q", QS)
def test_tridiagonal_determinants_of_the_written_matrix(q):
    for n in range(1, 6):
        u_diag = [X.scale(1 + q**k) for k in range(1, n + 1)]
        t_diag = [X] + u_diag[:-1]
        assert matrixids.tridiag_u(n, q) == _det(_tridiagonal(u_diag, q))
        assert matrixids.tridiag_t(n, q) == _det(_tridiagonal(t_diag, q))


def test_cheb_factor_shape():
    m = matrixids.cheb_factor(2, F(2))
    q = F(2)
    assert m.a11 == X.scale(q**2)
    assert m.a12 == (X * X + S.scale(q)).scale(q**2)
