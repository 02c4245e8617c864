"""q-derivative relations, q-ODEs, weight series, Rodrigues formulae,
generating functions and the standalone identity registry."""

from fractions import Fraction

import pytest

from qcheb import analysis, families, suites
from qcheb.polyring import TruncSeries
from qcheb.qkernel import q_int

F = Fraction

QS = (F(2), F(1, 2), F(3, 5), F(7))
CONTEXTS = [
    analysis.SeriesContext(F(2), F(1), 24),
    analysis.SeriesContext(F(3, 5), F(-2), 24),
]


@pytest.mark.parametrize("q", QS)
def test_derivative_relations(q):
    assert analysis.deriv_relation_t(12, q).passed
    assert analysis.deriv_relation_u(12, q).passed


@pytest.mark.parametrize("q", QS)
def test_q_differential_equations(q):
    assert analysis.qode_check_t(10, q).passed
    assert analysis.qode_check_u(10, q).passed


def test_series_context_guards():
    with pytest.raises(ValueError):
        analysis.SeriesContext(F(2), F(0), 10)
    with pytest.raises(ValueError):
        analysis.SeriesContext(F(2), F(1), 1)


def test_h_coefficients():
    q = F(2)
    assert analysis.h_coeff(0, q) == 1
    assert analysis.h_coeff(1, q) == 1 / (1 + q)
    # ratio recursion h_k / h_(k-1) = (1 - q^(2k-1)) / (1 - q^(2k))
    for k in range(1, 8):
        assert analysis.h_coeff(k, q) * (1 - q ** (2 * k)) == analysis.h_coeff(
            k - 1, q
        ) * (1 - q ** (2 * k - 1))


@pytest.mark.parametrize("ctx", CONTEXTS, ids=str)
def test_h_functional_equation(ctx):
    assert analysis.h_functional_equation_check(ctx).passed


@pytest.mark.parametrize("ctx", CONTEXTS, ids=str)
def test_pearson_equation(ctx):
    assert analysis.pearson_check(ctx).passed


@pytest.mark.parametrize("ctx", CONTEXTS, ids=str)
def test_rodrigues_formulae(ctx):
    for n in range(6):
        assert analysis.rodrigues_t(n, ctx).passed
        assert analysis.rodrigues_u(n, ctx).passed


def test_rodrigues_needs_enough_order():
    ctx = analysis.SeriesContext(F(2), F(1), 12)
    with pytest.raises(ValueError):
        analysis.rodrigues_t(4, ctx)


def test_genfun_low_coefficients():
    q = F(2)
    u = analysis.genfun_u(4, q)
    from qcheb.polyring import XsPoly

    assert XsPoly._coerce(u.coeffs[0]) == families.cheb_u(0, q)
    assert XsPoly._coerce(u.coeffs[1]) == families.cheb_u(1, q)


@pytest.mark.parametrize("q", (F(2), F(1, 2)))
def test_generating_functions(q):
    assert analysis.genfun_check(10, q).passed


@pytest.mark.parametrize("name", analysis.REGISTRY_IDS)
def test_registry_identities(name):
    for q in (F(2), F(1, 2)):
        report = analysis.registry_check(name, 10, q)
        assert report.passed, (name, q, report.witness)


def test_registry_run_aggregates():
    bounds = dict(suites.bounds_for(2), registry=6)
    reports = suites.run_suite("core", qs=(F(2),), bounds=bounds)
    registry = [r for r in reports if r.identity_id in analysis.REGISTRY_IDS]
    assert len(registry) == len(analysis.REGISTRY_IDS)
    assert all(r.passed and r.index_range[1] in (3, 6) for r in registry)
    # each report is tagged with its q sample (b plays no role)
    assert {(r.point.q, r.point.b) for r in registry} == {(F(2), F(0))}


def test_registry_rejects_unknown():
    with pytest.raises(ValueError):
        analysis.registry_check("eq-0.0", 4, F(2))
