"""Acceptance gate: eight criteria, one pass/fail line each.

Every check is exact (rational equality) except the float Binet oracle in
criterion 7 (tolerance 1e-6).  Runtime bounds are asserted where stated.
"""

import io
import sys
import time
from fractions import Fraction

from qcheb import analysis, cli, families, matrixids, moments, operators, suites
from qcheb.polyring import ONE, S, X, XsPoly, ZERO
from qcheb.qkernel import ParamPoint, sample_points
from qcheb.report import check_range

F = Fraction

QS = (F(2), F(1, 2), F(3, 5), F(7))
POINTS = sample_points(levels=range(0, 40))
NEG_POINTS = [p for p in POINTS if p.is_pole_free(range(-12, 0))]


def holds(check):
    """Whether check_range finds every (lhs, rhs) pair of a check's sides equal."""
    return check_range("", None, *check).status == "pass"


def _report(criterion, label, ok):
    # write past pytest's capture so the gate lines always reach the console
    line = f"ACCEPTANCE {criterion} ({label}): {'PASS' if ok else 'FAIL'}"
    print(line)
    print(line, file=sys.__stdout__)
    assert ok, f"acceptance criterion {criterion} failed"


def test_criterion_1_first_terms_fidelity():
    start = time.perf_counter()
    ok = True
    for q in (F(2), F(1, 2), F(3, 5)):
        u_expected = [
            ONE,
            X.scale(1 + q),
            (X * X).scale((1 + q) * (1 + q**2)) + S.scale(q),
            (X * X * X).scale((1 + q) * (1 + q**2) * (1 + q**3))
            + (X * S).scale(q * (1 + q) * (1 + q**2)),
        ]
        t_expected = [
            ONE,
            X,
            (X * X).scale(1 + q) + S.scale(q),
            (X * X * X).scale((1 + q) * (1 + q**2)) + (X * S).scale(q * (1 + q + q**2)),
            XsPoly.monomial((1 + q) * (1 + q**2) * (1 + q**3), 4, 0)
            + XsPoly.monomial(q * (1 + q) * (1 + q**2) ** 2, 2, 1)
            + XsPoly.monomial(q**4, 0, 2),
        ]
        ok = ok and all(families.cheb_u(n, q) == u_expected[n] for n in range(4))
        ok = ok and all(families.cheb_t(n, q) == t_expected[n] for n in range(5))
        # trace-Lucas first terms at b = 0: 2, x, x^2+[2]s, x^3+[3]sx,
        # x^4+[4]sx^2+(q^2+q^4)s^2
        point = ParamPoint(q, F(0))
        l = lambda n: families.lucas_trace(n, point).as_poly()
        l_expected = [
            XsPoly.const(2),
            X,
            X * X + S.scale(1 + q),
            X * X * X + (X * S).scale(1 + q + q**2),
            XsPoly.monomial(1, 4, 0)
            + XsPoly.monomial(1 + q + q**2 + q**3, 2, 1)
            + XsPoly.monomial(q**2 + q**4, 0, 2),
        ]
        ok = ok and all(l(n) == l_expected[n] for n in range(5))
    elapsed = time.perf_counter() - start
    _report(1, "first-terms fidelity", ok and elapsed < 1.0)


def test_criterion_2_dual_route_suite():
    start = time.perf_counter()
    ok = True
    for family in families.FamilyId:
        if families.FAMILIES[family].b_free:
            for p in POINTS:
                ok = ok and holds(suites.dual_route_check(family, p, 30))
        else:
            for q in QS:
                ok = ok and holds(suites.dual_route_check(family, suites._label(q), 30))
    elapsed = time.perf_counter() - start
    _report(2, "dual-route suite n<=30", ok and elapsed < 5.0)


def test_criterion_3_cassini_identities():
    ok = True
    for p in NEG_POINTS:
        ok = ok and holds(suites.cassini_range_check(p, -5, 20))
    for p in POINTS:
        ok = ok and holds(suites.cassini_euler_grid_check(p, 12, 6))
    _report(3, "Cassini and Cassini-Euler", ok)


def test_criterion_4_operator_oracle():
    start = time.perf_counter()
    point = ParamPoint(F(2), F(3, 7))
    ok = holds(operators.schlosser_binomial_check(14, point))
    ok = ok and holds(operators.fib_word_check(18, point))
    for p in POINTS:
        ok = ok and holds(operators.commutation_check(p))
    elapsed = time.perf_counter() - start
    _report(4, "operator word oracle", ok and elapsed < 10.0)


def test_criterion_5_moment_suite():
    ok = True
    for q in QS:
        for spec_of, closed in (
            (moments.gen_fib_spec, moments.moments_fib_closed),
            (moments.gen_lucas_spec, moments.moments_lucas_closed),
        ):
            ok = ok and holds(moments.moment_consistency_check(spec_of, closed, 10, q))
        ok = ok and holds(moments.carlitz_moment_check(10, q))
        for n in range(15):
            power = XsPoly.monomial(1, n, 0)
            ok = ok and moments.reconstruct_x_fib(n, q) == power
            ok = ok and moments.reconstruct_x_lucas(n, q) == power
        ok = ok and holds(moments.nonorthogonality_witness(q))
    ok = ok and holds(moments.classical_moment_check(8))
    _report(5, "moment suite", ok)


def test_criterion_6_analysis_suite():
    ok = True
    for q in QS:
        ok = ok and holds(analysis.deriv_relation_t(20, q))
        ok = ok and holds(analysis.deriv_relation_u(20, q))
        ok = ok and holds(analysis.qode_check_t(20, q))
        ok = ok and holds(analysis.qode_check_u(20, q))
    for q_val, s_val in suites.WEIGHT_CONTEXTS:
        ctx = analysis.SeriesContext(q_val, s_val, 24)
        ok = ok and holds(analysis.h_functional_equation_check(ctx))
        ok = ok and holds(analysis.pearson_check(ctx))
        rod_ctx = analysis.SeriesContext(q_val, s_val, 2 * 8 + 10)
        for n in range(9):
            ok = ok and holds(analysis.rodrigues_t(n, rod_ctx))
            ok = ok and holds(analysis.rodrigues_u(n, rod_ctx))
    registry = [row for row in suites.checks()[0] if row.bound == "registry"]
    ok = ok and len(registry) == 17
    for q in (F(2), F(1, 2)):
        ok = ok and holds(analysis.genfun_check(16, q))
        for row in registry:
            ok = ok and holds(row.fn(20, q))
        ok = ok and holds(matrixids.det_identity_check(20, q))
    # third Lucas route (relation between the Fibonacci and Lucas families)
    for p in POINTS:
        ok = ok and all(
            families.lucas_qb_relation(n, p) == families.lucas_qb(n, p)
            for n in range(1, 21)
        )
    for r in (F(2), F(1, 2), F(3)):
        ok = ok and holds(matrixids.det_identity_sqrt_check(20, r))
    _report(6, "analysis suite", ok)


def test_criterion_7_classical_limit_suite():
    ok = holds(suites.classical_families_check(12))
    ok = ok and holds(suites.classical_cheb_check(12))
    ok = ok and holds(suites.classical_pell_check(12))
    ok = ok and holds(suites.classical_binet_check(20))
    _report(7, "classical-limit suite", ok)


def test_criterion_8_harness_integrity(monkeypatch):
    # an injected fault (T's primary route wrong by one) must surface as exit
    # code 1 with a witness
    t = families.FamilyId.CHEB_T
    spec = families.FAMILIES[t]
    out = io.StringIO()
    with monkeypatch.context() as patch:
        wrong = lambda n, p: spec.primary(n, p) + ONE
        patch.setitem(families.FAMILIES, t, spec._replace(primary=wrong))
        code = cli.main(
            ["verify", "--suite", "core", "--q", "2", "--max-n", "4", "--format", "text"],
            out=out,
        )
    faulted = code == 1 and "witness" in out.getvalue()
    # the default full suite passes, within the time budget
    start = time.perf_counter()
    code = cli.main(["verify", "--suite", "all"], out=io.StringIO())
    elapsed = time.perf_counter() - start
    _report(8, "harness integrity", faulted and code == 0 and elapsed < 60.0)
