"""Family generators: dual/triple routes, negative-index extensions, aliases
between families, hypergeometric forms and the dispatch surface."""

import math
import re
import sys
from collections import Counter
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcheb import families, matrixids, qkernel, suites
from qcheb.polyring import ONE, S, X, XsPoly, ZERO
from qcheb.qkernel import (
    ParamPoint,
    PoleError,
    memo_scope,
    q_catalan,
    q_int,
    q_poch,
    sample_points,
)
from qcheb.report import check_range

F = Fraction

POINTS = sample_points(levels=range(0, 30))
QS = (F(2), F(1, 2), F(3, 5), F(7))


def test_fib_carlitz_first_terms():
    q = F(2)
    assert families.fib_carlitz(0, q) == ZERO
    assert families.fib_carlitz(1, q) == ONE
    assert families.fib_carlitz(2, q) == X
    assert families.fib_carlitz(3, q) == X * X + S.scale(q)
    assert families.fib_carlitz(4, q) == X * X * X + X * S.scale(q * (1 + q))


@pytest.mark.parametrize("q", QS)
def test_fib_carlitz_dual_route(q):
    for n in range(16):
        assert families.fib_carlitz(n, q) == families.fib_carlitz_rec(n, q)


@pytest.mark.parametrize("point", POINTS, ids=str)
def test_fib_qb_three_routes(point):
    for n in range(10):
        closed = families.fib_qb_closed(n, point)
        assert families.fib_qb(n, point) == closed
        assert families.fib_qb_dilated(n, point) == closed


def test_fib_qb_reduces_to_carlitz_at_b0():
    for q in QS:
        point = ParamPoint(q, F(0))
        for n in range(12):
            assert families.fib_qb(n, point) == families.fib_carlitz(n, q)


@pytest.mark.parametrize(
    "point", [p for p in POINTS if p.is_pole_free(range(-10, 0))], ids=str
)
def test_fib_qb_negative_indices(point):
    for n in range(-8, 1):
        assert families.fib_qb_ext(n, point) == families.fib_qb_backward(n, point)


@pytest.mark.parametrize("point", POINTS, ids=str)
def test_lucas_trace_routes(point):
    assert families.lucas_trace(0, point) == XsPoly.const(2)
    for n in range(1, 10):
        assert families.lucas_trace(n, point) == families.lucas_trace_closed(n, point)


@pytest.mark.parametrize(
    "point", [p for p in POINTS if p.is_pole_free(range(-10, 0))], ids=str
)
def test_lucas_trace_negative(point):
    for n in range(1, 8):
        assert families.lucas_trace_neg_closed(n, point) == families.lucas_trace(
            -n, point
        )


@pytest.mark.parametrize("point", POINTS, ids=str)
def test_lucas_qb_routes(point):
    assert families.lucas_qb(0, point) == XsPoly.const(1 - point.b)
    for n in range(1, 10):
        closed = families.lucas_qb_closed(n, point)
        assert families.lucas_qb(n, point) == closed
        assert families.lucas_qb_dilated(n, point) == closed
        assert families.lucas_qb_relation(n, point) == closed


@pytest.mark.parametrize("q", QS)
def test_gen_lucas_negative(q):
    for n in range(1, 8):
        assert families.gen_lucas_neg_closed(n, q) == families.gen_lucas_backward(-n, q)


@pytest.mark.parametrize("q", QS)
def test_cheb_u_routes_and_alias(q):
    for n in range(12):
        closed = families.cheb_u_closed(n, q)
        assert families.cheb_u(n, q) == closed
        # U_n = (-q;q)_n F_(n+1)(x,-1,s,q)
        assert closed == families.gen_fib(n + 1, q).scale(q_poch(-q, q, n))
        # U_n = u_n(x; q, -qs)
        assert closed == families.alsalam_ismail(n, q, S.scale(-q), q)


@pytest.mark.parametrize("q", QS)
def test_cheb_t_routes_and_alias(q):
    for n in range(12):
        closed = families.cheb_t_closed(n, q)
        assert families.cheb_t(n, q) == closed
        if n >= 1:
            # T_n = (-q;q)_(n-1) L_n(x,-1,s,q)
            assert closed == families.gen_lucas(n, q).scale(q_poch(-q, q, n - 1))


@pytest.mark.parametrize("q", QS)
def test_cheb_negative_indices(q):
    assert families.cheb_u_ext(-1, q) == ZERO
    for n in range(-9, 0):
        assert families.cheb_u_ext(n, q) == families.cheb_u_backward(n, q)
        assert families.cheb_t_ext(n, q) == families.cheb_t_backward(n, q)


@pytest.mark.parametrize("q", QS)
def test_hypergeometric_forms(q):
    for n in range(10):
        assert families.hypergeom_gen_fib(n, q) == families.gen_fib(n + 1, q)
    for n in range(1, 10):
        assert families.hypergeom_gen_lucas(n, q) == families.gen_lucas(n, q)


def test_alsalam_ismail_recurrence():
    q, a = F(2), F(3)
    beta = F(5)
    u = lambda n: families.alsalam_ismail(n, a, beta, q)
    assert u(0) == ONE
    assert u(1) == X.scale(1 + a)
    for n in range(2, 8):
        assert u(n) == X.scale(1 + q ** (n - 1) * a) * u(n - 1) - q ** (n - 2) * beta * u(
            n - 2
        )


def test_family_poly_dispatch_and_fault(monkeypatch):
    point = ParamPoint(F(2), F(0))
    t, u = families.FamilyId.CHEB_T, families.FamilyId.CHEB_U
    assert families.family_poly(t, 2, point) == families.cheb_t(2, F(2))
    spec = families.FAMILIES[t]
    with monkeypatch.context() as patch:
        # a wrong primary route fails the family's dual-route check
        wrong = lambda n, p: spec.primary(n, p) + ONE
        patch.setitem(families.FAMILIES, t, spec._replace(primary=wrong))
        faulted = check_range("dual-T", point, *suites.dual_route_check(t, point, 2))
        assert faulted.status == "fail"
        assert faulted.witness["lhs"] == families.cheb_t(0, F(2)) + ONE
        assert faulted.witness["rhs"] == families.cheb_t_closed(0, F(2))
        # other families unaffected
        unaffected = check_range("dual-U", point, *suites.dual_route_check(u, point, 2))
        assert unaffected.status == "pass"
    # the fault belongs to the patch alone: family_poly and the check pass after it
    assert families.family_poly(t, 2, point) == families.cheb_t(2, F(2))
    report = check_range("dual-T", point, *suites.dual_route_check(t, point, 2))
    assert report.status == "pass"


def test_binet_float():
    # exact classical values at (3, 1): 1, 3, 10, 33, ...
    assert families.binet_float_fib(1, 3.0, 1.0) == pytest.approx(1.0)
    assert families.binet_float_fib(4, 3.0, 1.0) == pytest.approx(33.0)


# -- oracle routes: pole parity, linear cost, closed-form references --


def _bare(numerator):
    """The running interpreter's message for Fraction(numerator) / 0: CPython
    3.11 and earlier print "Fraction(<numerator>, 0)", later versions
    "Fraction(1, 0)" for every numerator."""
    try:
        Fraction(numerator) / 0
    except ZeroDivisionError as exc:
        return str(exc)


POLE_AT_LEVEL_5 = "1 - q^5 b vanishes at q=2, b=1/32"
POLE_AT_Q_MINUS_1 = "1 - q^1 b vanishes at q=-1, b=-1"
POLE_CASES = [
    (families.fib_qb_dilated, (8, ParamPoint(2, F(1, 32))), PoleError, POLE_AT_LEVEL_5),
    (families.lucas_qb_dilated, (8, ParamPoint(2, F(1, 32))), PoleError, POLE_AT_LEVEL_5),
    (families.fib_qb_backward, (-8, ParamPoint(2, 32)),
     PoleError, "1 - q^-5 b vanishes at q=2, b=32"),
    (families.gen_lucas_backward, (-5, 0), PoleError, "q = 0 is not a valid parameter"),
    (families.cheb_u_backward, (-4, 0), ZeroDivisionError, _bare(1)),
    (families.cheb_t_backward, (-4, 0), ZeroDivisionError, _bare(1)),
    (families.fib_qb_closed, (8, ParamPoint(2, F(1, 32))), PoleError, POLE_AT_LEVEL_5),
    (families.fib_qb_closed, (8, ParamPoint(-1, -1)), PoleError, POLE_AT_Q_MINUS_1),
    (families.lucas_qb_closed, (8, ParamPoint(2, F(1, 32))), PoleError, POLE_AT_LEVEL_5),
    (families.lucas_trace_closed, (8, ParamPoint(2, F(1, 32))), PoleError, POLE_AT_LEVEL_5),
    (families.lucas_trace_closed, (8, ParamPoint(-1, -1)), PoleError, POLE_AT_Q_MINUS_1),
    (families.hypergeom_gen_lucas, (0, 2),
     ValueError, "hypergeometric Lucas form holds for n >= 1"),
    (families.hypergeom_gen_fib, (6, 0), PoleError, "q must be nonzero"),
    (families.hypergeom_gen_fib, (6, -1), PoleError, POLE_AT_Q_MINUS_1),
    (families.hypergeom_gen_lucas, (6, -1), PoleError, POLE_AT_Q_MINUS_1),
    (families.hypergeom_gen_lucas, (6, 0), PoleError, "q must be nonzero"),
    (families.cheb_t_closed, (-2, 2), ValueError, "closed form holds for n >= 0"),
    (families.cheb_u_closed, (-2, 2), ValueError, "closed form holds for n >= 0"),
]


@pytest.mark.parametrize(
    "fn, args, exc, message",
    POLE_CASES,
    ids=[f"{fn.__name__}{args[:1]}-{i}" for i, (fn, args, _, _) in enumerate(POLE_CASES)],
)
def test_oracle_pole_errors(fn, args, exc, message):
    """Each route raises the first pole it meets with the same type and
    message as the plain recursion or from-scratch Pochhammer sum."""
    with pytest.raises(exc) as info:
        fn(*args)
    assert info.type is exc
    assert str(info.value) == message


def test_dilated_route_at_q_minus_1_off_its_poles_equals_the_closed_form():
    """1 + q^j = 0 is no pole: at (-1, 3) no level 1 - q^j b vanishes."""
    point = ParamPoint(-1, 3)
    assert families.fib_qb_dilated(6, point) == families.fib_qb_closed(6, point)


# Each route with the b-levels it divides by at index n.
LEVEL_ROUTES = (
    (families.fib_qb, 0, lambda n: range(n) if n >= 2 else ()),
    (families.lucas_qb, 0, lambda n: range(n) if n >= 2 else ()),
    (families.fib_qb_dilated, 0, lambda n: range(1, n + 1) if n >= 2 else ()),
    (families.lucas_qb_dilated, 0, lambda n: range(1, n + 1) if n >= 2 else ()),
    (matrixids.fib_matrix_product, 1, lambda n: range(n + 1)),
)


@pytest.mark.parametrize("q", [F(1), F(-1), F(2), F(-2), F(1, 2), F(-1, 2), F(3, 5)], ids=str)
def test_routes_raise_exactly_where_a_level_vanishes(q):
    """A route raises PoleError if and only if q^j b = 1 at one of its
    levels, and returns otherwise; b runs over q^-j for -2 <= j <= 10."""
    bs = {F(0), F(3), F(-1), F(3, 7)} | {q**-j for j in range(-2, 11)}
    for b in sorted(bs):
        point = ParamPoint(q, b)
        for route, lowest, levels in LEVEL_ROUTES:
            for n in range(lowest, 11):
                pole = any(q**j * b == 1 for j in levels(n))
                try:
                    route(n, point)
                except PoleError:
                    assert pole, (route.__name__, n, point)
                else:
                    assert not pole, (route.__name__, n, point)


def test_hypergeometric_forms_are_finite_at_q_1():
    """At q = 1 the four factors 1 - q^m of each term ratio share the factor
    1 - q, which cancels, so the forms equal the b = -1 families there."""
    for n in range(12):
        assert families.hypergeom_gen_fib(n, 1) == families.gen_fib(n + 1, 1), n
        if n:
            assert families.hypergeom_gen_lucas(n, 1) == families.gen_lucas(n, 1), n


def test_gen_lucas_negative_routes_agree_at_q_1():
    """q = 1 is an ordinary sample: the backward walk equals the closed form."""
    for n in range(1, 8):
        assert families.gen_lucas_backward(-n, F(1)) == families.gen_lucas_neg_closed(n, F(1))


def test_gen_lucas_negative_routes_agree_at_q_minus_1():
    """At q = -1 the backward walk raises the closed form's PoleError (or
    agrees with its value) instead of returning a silent 0."""
    for n in range(1, 9):
        assert _outcome(families.gen_lucas_backward, -n, F(-1)) == _outcome(
            families.gen_lucas_neg_closed, n, F(-1)
        ), n


def test_dilated_routes_do_linear_work(monkeypatch):
    n, point = 40, ParamPoint(F(3, 5), F(3, 7))
    plain_dilate = XsPoly.dilate
    count = [0]

    def counting_dilate(self, *args):
        count[0] += 1
        assert count[0] <= 2 * (n - 1), "dilated route does more than n-1 steps"
        return plain_dilate(self, *args)

    monkeypatch.setattr(XsPoly, "dilate", counting_dilate)
    for route, primary in (
        (families.fib_qb_dilated, families.fib_qb),
        (families.lucas_qb_dilated, families.lucas_qb),
    ):
        count[0] = 0
        assert route(n, point) == primary(n, point)


def _stack_depth():
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def test_backward_oracles_need_no_recursion():
    n, point = -40, ParamPoint(F(3, 5), F(3, 7))
    q = point.q
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 30)
    try:
        got = (
            families.fib_qb_backward(n, point),
            families.gen_lucas_backward(n, q),
            families.cheb_u_backward(n, q),
            families.cheb_t_backward(n, q),
        )
    finally:
        sys.setrecursionlimit(limit)
    assert got == (
        families.fib_qb_ext(n, point),
        families.gen_lucas_neg_closed(-n, q),
        families.cheb_u_ext(n, q),
        families.cheb_t_ext(n, q),
    )


def clear_memos():
    """Empty every cache of qkernel and families, found by its cache_clear."""
    for module in (qkernel, families):
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def test_cold_generators_need_no_recursion():
    """A cold memoized generator fills its lower indices bottom-up."""
    n, q, point = 100, F(2), ParamPoint(F(2), F(3, 7))
    generators = (
        (families.cheb_t, q, families.cheb_t_closed),
        (families.cheb_u, q, families.cheb_u_closed),
        (families.fib_carlitz_rec, q, families.fib_carlitz),
        (families.fib_qb, point, families.fib_qb_closed),
        (families.lucas_qb, point, families.lucas_qb_closed),
    )
    clear_memos()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 30)
    try:
        got = [fn(n, arg) for fn, arg, _ in generators]
    finally:
        sys.setrecursionlimit(limit)
    assert got == [closed(n, arg) for _, arg, closed in generators]


def test_cold_q_catalan_needs_no_recursion():
    clear_memos()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 30)
    try:
        got = q_catalan(60, F(1))
    finally:
        sys.setrecursionlimit(limit)
    assert got == F(math.comb(120, 60), 61)


@pytest.mark.parametrize(
    "fn, args, message",
    [
        (families.fib_carlitz_rec, (-1, 2), "a sequence index must be >= 0, got -1"),
        (families.alsalam_ismail, (-3, 1, 2, 2), "a sequence index must be >= 0, got -3"),
        (families.fib_qb, (-1, ParamPoint(2, 0)), "use fib_qb_ext for negative indices"),
        (families.lucas_qb, (-1, ParamPoint(2, 0)), "lucas_qb needs n >= 0"),
        (families.cheb_u, (-1, 2), "use cheb_u_ext for negative indices"),
        (families.cheb_t, (-1, 2), "use cheb_t_ext for negative indices"),
        (q_catalan, (-1, 2), "q_catalan needs n >= 0"),
        # F_(-2) is -27/125 x s^-2 at (3/5, 0), not the empty sum
        (families.fib_qb_closed, (-2, ParamPoint(F(3, 5), 0)), "closed form holds for n >= 0"),
        (families.fib_carlitz, (-2, F(3, 5)), "closed form holds for n >= 0"),
        (lambda n, q: families.family_poly(families.FamilyId.FIB_CARLITZ, n, ParamPoint(q, 0)),
         (-2, F(3, 5)), "closed form holds for n >= 0"),
        (families.lucas_qb_closed, (0, ParamPoint(F(3, 5), 0)), "closed form holds for n >= 1"),
        # hypergeom_gen_fib(n) is F_(n+1)
        (families.hypergeom_gen_fib, (-3, F(3, 5)), "closed form holds for n >= 0"),
        (families.hypergeom_gen_fib, (-1, F(3, 5)), "closed form holds for n >= 0"),
    ],
)
def test_negative_index_raises_value_error(fn, args, message):
    with pytest.raises(ValueError, match=message):
        fn(*args)


def test_every_use_message_names_a_route_that_exists():
    """A message that sends the caller to another route names one that exists."""
    names = re.findall(r"use (\w+) for", Path(families.__file__).read_text())
    assert names and all(hasattr(families, name) for name in names), names


@pytest.mark.parametrize(
    "point, n, message",
    [
        (ParamPoint(F(-1), F(-1)), 6, "1 - q^1 b vanishes at q=-1, b=-1"),
        (ParamPoint(F(2), F(1, 8)), 6, "1 - q^3 b vanishes at q=2, b=1/8"),
    ],
)
def test_pole_error_repeats_after_a_partial_fill(point, n, message):
    """Inside a memo scope the members below a pole stay; the pole is met
    again on every call, with the same type and message."""
    with memo_scope():
        for _ in range(2):
            with pytest.raises(PoleError) as err:
                families.fib_qb(n, point)
            assert type(err.value) is PoleError and str(err.value) == message
        assert families.fib_qb(1, point) == ONE


# -- walks: the recurrences without their memo ------------------------

# Each sequence that has a walk, with params of its own; a sequence with a 0/1
# flag once at each value, keyed by the twin it then walks (_fib_lucas_qb as
# _fib_qb and _lucas_qb, _cheb as _cheb_u and _cheb_t).
WALKS = {
    "q_pascal": (qkernel.q_pascal, (3, 5)),
    "_fib_carlitz_rec": (families._fib_carlitz_rec, (-3, 5)),
    "_fib_qb": (families._fib_lucas_qb, (ParamPoint(F(3, 5), F(3, 7)), 0)),
    "_lucas_qb": (families._fib_lucas_qb, (ParamPoint(F(-3, 5), F(3, 7)), 1)),
    "_alsalam_ismail": (families._alsalam_ismail,
                        families._alsalam_params(F(3, 5), S.scale(F(-3, 5)), F(3, 5))),
    "_cheb_u": (families._cheb, (3, 5, 0)),
    "_cheb_t": (families._cheb, (-3, 5, 1)),
}


def test_every_walk_is_tested_and_q_catalan_has_none():
    walks = {value: name for module in (qkernel, families) for name, value in vars(module).items()
             if hasattr(value, "cache_info") and hasattr(value, "walk")}
    assert {walks.get(fn) for fn, _ in WALKS.values()} == set(walks.values())
    assert not hasattr(qkernel._q_catalan, "walk")  # its step reads every member


def _until_error(members):
    """The members up to the first ZeroDivisionError, and that error's type
    and text (None, None if none is raised)."""
    got = []
    try:
        for member in members:
            got.append(member)
    except ZeroDivisionError as exc:
        return got, type(exc), str(exc)
    return got, None, None


@pytest.mark.parametrize("name", sorted(WALKS))
def test_a_walk_yields_the_members_and_leaves_the_memo_alone(name):
    """fn gives the walked members outside a memo scope, keeping nothing, and
    inside one, keeping one list until the scope exits."""
    fn, params = WALKS[name]
    walked = list(islice(fn.walk(*params), 16))
    assert [fn(n, *params) for n in range(16)] == walked
    assert fn.cache_info().currsize == 0
    with memo_scope():
        assert [fn(n, *params) for n in range(16)] == walked
        info = fn.cache_info()
        assert info.currsize == 1
        assert list(islice(fn.walk(*params), 16)) == walked
        assert fn.cache_info() == info
    assert fn.cache_info().currsize == 0


@pytest.mark.parametrize(
    "fn, point, message",
    [
        (families._fib_lucas_qb, ParamPoint(F(2), F(1, 8)), "1 - q^3 b vanishes at q=2, b=1/8"),
        (families._fib_lucas_qb, ParamPoint(F(-1), F(-1)), "1 - q^1 b vanishes at q=-1, b=-1"),
    ],
)
def test_a_walk_raises_the_pole_of_its_sequence_at_the_same_member(fn, point, message):
    """F (lucas = 0) and L (lucas = 1) meet their first pole at the same level."""
    for lucas in (0, 1):
        walked = _until_error(islice(fn.walk(point, lucas), 12))
        assert walked == _until_error(fn(n, point, lucas) for n in range(12))
        assert walked[1:] == (PoleError, message)


@pytest.mark.parametrize(
    "q, b",
    [(F(3, 5), F(3, 7)), (F(2), F(-1)), (F(-1), F(3, 7)), (F(-1), F(-1)), (F(1), F(-1)),
     (F(2), F(1, 256))],
)
@pytest.mark.parametrize("family", list(families.FamilyId), ids=lambda f: f.value)
def test_a_family_walk_yields_its_primary_members(family, q, b):
    """The members family_poly gives, up to the same error at the same n."""
    walked = _until_error(islice(families.family_walk(family, ParamPoint(q, b)), 12))
    point = ParamPoint(q, b)  # a fresh ladder
    assert walked == _until_error(families.family_poly(family, n, point) for n in range(12))


SEQUENCES = {
    "T": (families.cheb_t, families.cheb_t_closed),
    "U": (families.cheb_u, families.cheb_u_closed),
    "F": (
        lambda n, q: families.fib_qb(n, ParamPoint(q, F(3, 7))),
        lambda n, q: families.fib_qb_closed(n, ParamPoint(q, F(3, 7))),
    ),
}
FRESH = iter(range(1, 10**6))  # numerators of q values no other test uses


def _sweep(kind, count):
    """Touch `count` fresh parameter sets of one sequence."""
    for _ in range(count):
        SEQUENCES[kind][0](0, F(next(FRESH), 1000003))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.tuples(
                st.just("get"), st.sampled_from(sorted(SEQUENCES)),
                st.integers(0, 10), st.integers(1, 80),
            ),
            st.tuples(
                st.just("sweep"), st.sampled_from(sorted(SEQUENCES)), st.integers(1, 64)
            ),
            st.tuples(st.just("clear")),
        ),
        max_size=40,
    )
)
def test_sequences_match_closed_forms_in_any_order(actions):
    """Whatever the order of access, filling and clearing in a memo scope,
    each member equals its closed form."""
    with memo_scope():
        for action in actions:
            if action[0] == "clear":
                clear_memos()
            elif action[0] == "sweep":
                _sweep(*action[1:])
            else:
                _, kind, n, i = action
                fn, closed = SEQUENCES[kind]
                q = F(i, 81)
                assert fn(n, q) == closed(n, q)


# Reference closed forms: each coefficient from scratch, its Gaussian
# binomials and q-integer quotients from products of q_int (never from the
# q-Pascal rows), its Pochhammer symbols from q_poch, summed one monomial at
# a time.


def _q_int_quotient(tops, bottoms, q):
    """prod [i]_q over tops / prod [j]_q over bottoms, where that is a
    polynomial in q; equal factors cancel first.  At q = -1 it is that
    polynomial's value: [i]_q is 1 there for odd i and (1 + q) [i/2]_(q^2)
    for even i, so the quotient is 0 if more tops than bottoms are even, and
    else the quotient of the halves of the even ones."""
    tops, bottoms = Counter(tops), Counter(bottoms)
    common = tops & bottoms
    tops, bottoms = list((tops - common).elements()), list((bottoms - common).elements())
    if q != -1:
        top = math.prod((q_int(i, q) for i in tops), start=F(1))
        return top / math.prod((q_int(j, q) for j in bottoms), start=F(1))
    tops = [i // 2 for i in tops if i % 2 == 0]
    bottoms = [j // 2 for j in bottoms if j % 2 == 0]
    assert len(tops) >= len(bottoms), "not a polynomial in q"
    return F(0) if len(tops) > len(bottoms) else F(math.prod(tops), math.prod(bottoms))


def ref_binom(m, k, q):
    """[m over k] = prod over 1 <= i <= k of [m-k+i] / [i]."""
    if k < 0 or k > m:
        return F(0)
    return _q_int_quotient(range(m - k + 1, m + 1), range(1, k + 1), q)


def _raise_pole(point, *levels):
    """Where a from-scratch denominator is 0, raise the PoleError of the first
    of the levels new at this term that vanishes."""
    for j in levels:
        point.level(j)
    raise AssertionError(f"no level of {levels} vanishes at {point}")


def ref_fib_carlitz(n, q):
    out = ZERO
    for k in range((n - 1) // 2 + 1) if n >= 1 else range(0):
        c = q ** (k * k) * ref_binom(n - 1 - k, k, q)
        out = out + XsPoly.monomial(c, n - 1 - 2 * k, k)
    return out


def ref_fib_qb_closed(n, point):
    q, b = point.q, point.b
    terms = ZERO
    for k in range((n - 1) // 2 + 1) if n >= 1 else range(0):
        den = q_poch(q * b, q, k) * q_poch(q ** (n - k) * b, q, k)
        if den == 0:
            _raise_pole(point, k, n - k)
        c = q ** (k * k) * ref_binom(n - 1 - k, k, q) / den
        terms = terms + XsPoly.monomial(c, n - 1 - 2 * k, k)
    return terms


def ref_lucas_trace_closed(n, point):
    if n <= 0:
        raise ValueError("closed form holds for n > 0")
    q, b = point.q, point.b
    out = ZERO
    for k in range(n // 2 + 1):
        den = q_poch(b, q, k) * q_poch(q ** (n - k + 1) * b, q, k)
        if den == 0:
            _raise_pole(point, k - 1, n - k + 1)
        # [n]/[n-k] [n-k over k]
        ratio = _q_int_quotient([n, *range(n - 2 * k + 1, n - k + 1)], [n - k, *range(1, k + 1)], q)
        out = out + XsPoly.monomial(q ** (k * k - k) * ratio / den, n - 2 * k, k)
    return out


def ref_lucas_qb_closed(n, point):
    if n < 1:
        raise ValueError("closed form holds for n >= 1")
    q, b = point.q, point.b
    out = ZERO
    for k in range(n // 2 + 1):
        den = q_poch(q * b, q, k) * q_poch(q ** (n - k) * b, q, k)
        if den == 0:
            _raise_pole(point, k, n - k)
        num = ref_binom(n - k, k, q) - q ** (n - k) * b * ref_binom(n - 1 - k, k - 1, q)
        out = out + XsPoly.monomial(q ** (k * k) * num / den, n - 2 * k, k)
    return out


def ref_cheb_u_closed(n, q):
    out = ZERO
    for k in range(n // 2 + 1) if n >= 0 else range(0):
        c = q ** (k * k) * ref_binom(n - k, k, q) * q_poch(-(q ** (k + 1)), q, n - 2 * k)
        out = out + XsPoly.monomial(c, n - 2 * k, k)
    return out


def ref_cheb_t_closed(n, q):
    """[n]/[n-k] [n-k over k] (-q;q)_(n-1) / ((-q;q)_k (-q^(n-k);q)_k), with
    each 1 + q^j written as [2j]/[j]."""
    if n == 0:
        return ONE
    out = ZERO
    for k in range(n // 2 + 1):
        pairs = [*range(1, k + 1), *range(n - k, n)]  # the j of the denominator
        ratio = _q_int_quotient(
            [n, *range(n - 2 * k + 1, n - k + 1), *(2 * j for j in range(1, n)), *pairs],
            [n - k, *range(1, k + 1), *range(1, n), *(2 * j for j in pairs)],
            q,
        )
        out = out + XsPoly.monomial(q ** (k * k) * ratio, n - 2 * k, k)
    return out


def ref_hypergeom_gen_fib(n, q):
    if q == 0:
        raise PoleError("q must be nonzero")
    q2 = q * q
    out = ZERO
    for k in range(n // 2 + 1) if n >= 0 else range(0):
        num = q_poch(q**-n, q2, k) * q_poch(q ** (1 - n), q2, k)
        den = q_poch(q ** (-2 * n), q2, k) * q_poch(q2, q2, k)
        out = out + XsPoly.monomial(num / den * Fraction(-1) ** k, n - 2 * k, k)
    return out


def ref_hypergeom_gen_lucas(n, q):
    if n < 1:
        raise ValueError("hypergeometric Lucas form holds for n >= 1")
    q2 = q * q
    out = ZERO
    for k in range(n // 2 + 1):
        num = q_poch(q**-n, q2, k) * q_poch(q ** (1 - n), q2, k)
        den = q_poch(q ** (2 - 2 * n), q2, k) * q_poch(q2, q2, k)
        out = out + XsPoly.monomial(num / den * (-q2) ** k, n - 2 * k, k)
    return out


# The integer sums of families, each with its reference and the primary
# route of its family.
POINT_FORMS = (
    (families.fib_qb_closed, ref_fib_qb_closed, families.fib_qb),
    (families.lucas_trace_closed, ref_lucas_trace_closed,
     lambda n, p: families.lucas_trace(n, p).as_poly()),
    (families.lucas_qb_closed, ref_lucas_qb_closed, families.lucas_qb),
)
Q_FORMS = (
    (families.fib_carlitz, ref_fib_carlitz, families.fib_carlitz_rec),
    (families.cheb_u_closed, ref_cheb_u_closed, families.cheb_u),
    (families.cheb_t_closed, ref_cheb_t_closed, families.cheb_t),
    (families.hypergeom_gen_fib, ref_hypergeom_gen_fib, lambda n, q: families.gen_fib(n + 1, q)),
    (families.hypergeom_gen_lucas, ref_hypergeom_gen_lucas, families.gen_lucas),
)
SUM_QS = (F(3, 5), F(-3, 5), F(2), F(7), F(1, 2), F(1), F(-1))
SUM_BS = (F(0), F(-1), F(2), F(3, 7), F(-3, 7))


def _outcome(fn, *args):
    """The value, or the type and message of a pole or domain error."""
    try:
        return fn(*args)
    except (PoleError, ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


def _is_bare(outcome):
    return isinstance(outcome, tuple) and outcome[0] is ZeroDivisionError


def _assert_matches_reference(fast, ref, primary, n, arg):
    """fast gives what ref gives: the same polynomial, or the same type and
    message of error.  Where the reference meets a bare 0/0 (the
    hypergeometric forms at q = 1 and q = -1), fast raises a bare
    ZeroDivisionError too, whose text differs between versions, or gives
    what the family's primary route gives.  At q = -1 no sum is 0/0."""
    want, got = _outcome(ref, n, arg), _outcome(fast, n, arg)
    q = getattr(arg, "q", arg)
    assert not (q == -1 and _is_bare(got)), (fast.__name__, n, arg)
    if _is_bare(want):
        assert _is_bare(got) or got == _outcome(primary, n, arg), (fast.__name__, n, arg)
    else:
        assert got == want, (fast.__name__, n, arg)


@pytest.mark.parametrize("b", SUM_BS, ids=str)
@pytest.mark.parametrize("q", SUM_QS, ids=str)
def test_point_closed_forms_match_reference(q, b):
    point = ParamPoint(q, b)
    for n in range(41):
        for forms in POINT_FORMS:
            _assert_matches_reference(*forms, n, point)


@pytest.mark.parametrize("q", SUM_QS, ids=str)
def test_q_closed_forms_match_reference(q):
    for n in range(41):
        for forms in Q_FORMS:
            _assert_matches_reference(*forms, n, q)


@pytest.mark.parametrize(
    "fn, primary, args",
    [
        (families.fib_qb_closed, families.fib_qb, (8, ParamPoint(-1, 3))),
        (families.lucas_trace_closed, lambda n, p: families.lucas_trace(n, p).as_poly(),
         (8, ParamPoint(-1, 3))),
        (families.cheb_t_closed, families.cheb_t, (7, F(-1))),
        (families.cheb_t_closed, families.cheb_t, (8, F(-1))),
        (families.cheb_u_closed, families.cheb_u, (6, F(-1))),
    ],
    ids=["fib_qb_closed", "lucas_trace_closed", "cheb_t_closed-7", "cheb_t_closed-8",
         "cheb_u_closed"],
)
def test_closed_forms_at_q_minus_1_equal_the_recurrence(fn, primary, args):
    """None of these sums divides by [i]_q or 1 + q^k, so at q = -1, off the
    poles of its family, each gives the recurrence's polynomial."""
    assert fn(*args) == primary(*args)


def test_closed_forms_call_no_recurrence(monkeypatch):
    """The oracles stay independent: with every recurrence of families made
    to raise (each qkernel.sequence memo and the dilated walk), every closed
    form gives what it gave before."""
    point, q = ParamPoint(F(3, 5), F(3, 7)), F(-3, 5)
    calls = [(fast, n, point) for fast, _, _ in POINT_FORMS for n in range(1, 12)]
    calls += [(fast, n, q) for fast, _, _ in Q_FORMS for n in range(1, 12)]
    want = [fast(n, arg) for fast, n, arg in calls]

    def forbidden(*args):
        raise AssertionError("a closed form called a recurrence")

    # every memo families holds but the q-Pascal rows, the closed forms' kernel:
    # the primaries (each F/L and U/T pair one sequence), the dilated Carlitz
    # route, the three backward walks and F_m(x, qb, qs)
    recurrences = [
        name for name, value in vars(families).items()
        if callable(getattr(value, "cache_info", None)) and value is not qkernel.q_pascal
    ]
    assert len(recurrences) == 8
    for name in [*recurrences, "_dilated_bottom_up"]:
        monkeypatch.setattr(families, name, forbidden)
    with pytest.raises(AssertionError, match="called a recurrence"):
        families.fib_qb(5, point)
    assert [fast(n, arg) for fast, n, arg in calls] == want


small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def near_pole_points(draw):
    """Small-height (q, b), with b often a power of q so that some
    1 - q^j b factor vanishes; q = 1 and q = -1 are included."""
    q = draw(small_rationals.filter(lambda v: v != 0))
    b = draw(st.one_of(small_rationals, st.integers(-8, 8).map(lambda j: q**j)))
    return ParamPoint(q, b)


@settings(max_examples=150, deadline=None)
@given(near_pole_points(), st.integers(0, 12))
def test_closed_forms_match_reference_near_poles(point, n):
    for forms in POINT_FORMS:
        _assert_matches_reference(*forms, n, point)
    for forms in Q_FORMS:
        _assert_matches_reference(*forms, n, point.q)


def _value_or_pole(route, n, point):
    """route(n, point), or None where a denominator vanishes."""
    try:
        return route(n, point)
    except ZeroDivisionError:
        return None


@settings(max_examples=60, deadline=None)
@given(near_pole_points())
def test_every_family_returns_or_meets_a_pole_near_poles(point):
    """Each route of each family either returns or raises ZeroDivisionError
    (PoleError is one), never another error; where both routes return they
    agree."""
    for family, spec in families.FAMILIES.items():
        for n in range(spec.lowest_n, 11):
            primary = _value_or_pole(spec.primary, n, point)
            oracle = _value_or_pole(spec.oracle, n, point)
            if primary is not None and oracle is not None:
                assert primary == oracle, (family, n)
