"""check_range: the one place that picks a witness."""

from fractions import Fraction as F

import pytest

from qcheb import suites
from qcheb.qkernel import PoleError
from qcheb.report import check_range


def test_first_unequal_pair_is_the_witness_and_later_pairs_are_not_evaluated():
    drawn = []

    def sides(n):
        drawn.append((n, 0))
        yield n, n
        drawn.append((n, 1))
        yield n, n + 1 if n == 2 else n
        drawn.append((n, 2))
        if n == 2:
            raise PoleError("a later pair that must not be evaluated")
        yield n, n

    report = check_range("id", None, range(5), sides)
    assert report.status == "fail"
    assert report.index_range == (0, 4)
    assert report.witness == {"n": 2, "lhs": 2, "rhs": 3}
    assert drawn == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 0), (2, 1)]


def test_equal_pairs_pass_and_an_error_in_a_pair_propagates():
    report = check_range("id", None, range(1, 4), lambda n: [(n, n), (2 * n, 2 * n)])
    assert report.status == "pass"
    assert check_range("id", None, [], lambda n: [(0, 1)]).index_range == (0, 0)
    # a check whose indices are not its range names the range itself
    report = check_range("id", None, [("a", 1)], lambda n: [(0, 1)], (0, 9))
    assert report.index_range == (0, 9) and report.witness["n"] == ("a", 1)

    def pole(n):
        yield 0, 0
        raise PoleError("pole")

    with pytest.raises(PoleError):
        check_range("id", None, [0], pole)


def test_reports_compare_by_value():
    """Two runs build their own points and reports, which compare equal."""

    def run():
        return suites.run_suite("core", qs=[F(3, 5)], bs=[F(3, 7)], bounds=suites.bounds_for(4))

    first, second = run(), run()
    assert first == second and first[0] is not second[0]
    assert first[0].point is not None and first[0].point is not second[0].point
