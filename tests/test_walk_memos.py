"""The walk-shaped routes (transfer-matrix products, backward walks, Binet
products, F_m(x, qb, qs) and the classical q = 1 recurrence) read one
qkernel.sequence each: inside a memo_scope every member is built once, and
outside one each call gives the same value and the same error."""

from fractions import Fraction as F

import pytest

from qcheb import families, matrixids, operators, suites
from qcheb.polyring import ONE, X, XsPoly, ZERO
from qcheb.qkernel import ParamPoint, PoleError, memo_scope
from qcheb.report import check_range

POINT = ParamPoint(F(3, 5), F(3, 7))
Q = F(3, 5)


def _bare(numerator):
    """The running interpreter's message for Fraction(numerator) / 0."""
    try:
        F(numerator) / 0
    except ZeroDivisionError as exc:
        return str(exc)


# Each converted route with the indices it is read at and a parameter.
ROUTES = {
    "fib_matrix_product": (matrixids.fib_matrix_product, range(1, 10), POINT),
    "cheb_matrix_product": (matrixids.cheb_matrix_product, range(1, 10), Q),
    "_even_product": (operators._even_product, range(8), Q),
    "binet_product_parts": (operators.binet_product_parts, range(10), Q),
    "fib_qb_backward": (families.fib_qb_backward, range(-9, 2), POINT),
    "cheb_u_backward": (families.cheb_u_backward, range(-9, 2), Q),
    "cheb_t_backward": (families.cheb_t_backward, range(-9, 2), Q),
    "gen_lucas_backward": (families.gen_lucas_backward, range(-9, 2), Q),
    "fib_qb_up": (families.fib_qb_up, range(-4, 10), POINT),
    "_classical": (lambda n, x: suites._classical(n, ZERO, ONE, x), range(10), X),
}


@pytest.mark.parametrize("name", sorted(ROUTES))
def test_a_route_gives_the_same_values_outside_and_inside_a_scope(name):
    """Read in any order inside a scope, each member equals the one a call
    outside any scope builds afresh."""
    route, indices, arg = ROUTES[name]
    fresh = {n: route(n, arg) for n in indices}
    with memo_scope():
        for n in [*reversed(indices), *indices]:
            assert route(n, arg) == fresh[n], n


# Each route at a parameter where one of its members meets a pole, and the
# error it raises there.
POLES = [
    (matrixids.fib_matrix_product, (8, ParamPoint(2, F(1, 32))),
     PoleError, "1 - q^5 b vanishes at q=2, b=1/32"),
    (families.fib_qb_up, (8, ParamPoint(2, F(1, 32))),
     PoleError, "1 - q^5 b vanishes at q=2, b=1/32"),
    (families.fib_qb_backward, (-8, ParamPoint(2, 32)),
     PoleError, "1 - q^-5 b vanishes at q=2, b=32"),
    (families.gen_lucas_backward, (-4, F(-1)), PoleError, "1 - q^1 b vanishes at q=-1, b=-1"),
    (families.cheb_u_backward, (-4, 0), ZeroDivisionError, _bare(1)),
    (families.cheb_t_backward, (-4, 0), ZeroDivisionError, _bare(1)),
]


@pytest.mark.parametrize("route, args, exc, message", POLES,
                         ids=[route.__name__ for route, *_ in POLES])
def test_a_pole_repeats_with_its_text_in_one_scope(route, args, exc, message):
    """Outside a scope, and on a first and a repeated call in one scope, the
    route raises the same error with the same text."""
    with pytest.raises(exc) as outside:
        route(*args)
    with memo_scope():
        for _ in range(2):
            with pytest.raises(exc) as inside:
                route(*args)
            assert type(inside.value) is type(outside.value)
            assert str(inside.value) == str(outside.value) == message


def test_the_transfer_matrix_rows_build_each_factor_once(monkeypatch):
    """eq-3.1 and eq-2.30 to n = 10 at one point multiply the ten factors
    C(x, q^j b, q^j s), 0 <= j < 10, once each, where building every product
    from its first factor would take 55 factors per row."""
    calls = []
    factor = matrixids.fib_factor

    def counted(j, point):
        calls.append(j)
        return factor(j, point)

    monkeypatch.setattr(matrixids, "fib_factor", counted)
    with memo_scope():
        for check in (matrixids.trace_lucas_check, suites.fib_matrix_check):
            assert check_range("", POINT, *check(10, POINT)).status == "pass"
    assert sorted(calls) == list(range(10))


def _counting_subtractions(monkeypatch):
    """A list that grows by one on every XsPoly subtraction; each step of a
    backward walk subtracts once."""
    calls = []
    sub = XsPoly.__sub__

    def counted(self, other):
        calls.append(None)
        return sub(self, other)

    monkeypatch.setattr(XsPoly, "__sub__", counted)
    return calls


@pytest.mark.parametrize("walk, arg", [
    (families.fib_qb_backward, POINT),
    (families.cheb_u_backward, Q),
    (families.cheb_t_backward, Q),
    (families.gen_lucas_backward, Q),
])
def test_a_backward_walk_steps_once_per_member(monkeypatch, walk, arg):
    steps = _counting_subtractions(monkeypatch)
    with memo_scope():
        for m in range(9):
            walk(-m, arg)
    assert len(steps) == 8


def test_the_negative_index_row_steps_each_backward_walk_to_its_bound(monkeypatch):
    """negative-index to m = 8 steps each of its three backward walks 8
    times, where walking each member from F_1 and F_0 took 36 steps."""
    steps = _counting_subtractions(monkeypatch)
    with memo_scope():
        assert check_range("", POINT, *suites.negative_index_check(8, POINT)).status == "pass"
    assert len(steps) == 3 * 8


def test_the_shifted_member_is_dilated_once_per_scope(monkeypatch):
    dilations = []
    dilate = XsPoly.dilate

    def counted(self, *args):
        dilations.append(args)
        return dilate(self, *args)

    monkeypatch.setattr(XsPoly, "dilate", counted)
    with memo_scope():
        for _ in range(2):
            for m in range(10):
                families.fib_qb_up(m, POINT)
    assert len(dilations) == 10
