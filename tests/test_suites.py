"""The table of checks: its bound keys, and JSON reports pinned byte for byte
for commands that exercise the skip path, the extended suite and the --max-n
rules."""

import hashlib
import io
from fractions import Fraction as F

import pytest

from qcheb import cli, families, qkernel, suites
from qcheb.qkernel import ParamPoint


def test_every_row_bound_is_in_the_bounds_table_and_every_key_is_read():
    core, extended = suites.checks()
    used = {row.bound for row in core + extended} - {None}
    assert used == set(suites.BOUNDS)


def test_max_n_rules():
    assert suites.bounds_for() == {k: d for k, (d, _) in suites.BOUNDS.items()}
    at_6 = suites.bounds_for(6)
    assert at_6["dual"] == 6 and at_6["cassini"] == (-6, 6)
    # --max-n leaves these keys at their defaults
    for key in ("orthogonality", "series_order", "binet_float"):
        assert at_6[key] == suites.bounds_for()[key]


# sha256 of the JSON report of each command, as produced before the table of
# checks replaced the hand-written work list
PINNED = {
    "verify --suite all --q 1":
        "3235af8f64e07b6b43e32766f1d35293cab13fedede6b3e391117ea674024a3d",
    "verify --suite extended":
        "9d00d32972e764457921f6d7557ad2b90b16ff56e4b682bffcf5a85bfee88efa",
    "verify --suite all --q 2 --b 3/7 --max-n 6":
        "26fe224e18e541ab2be5476ccbf6ba8ddad292ca271c71f49d12280ea41f41c5",
}


@pytest.mark.parametrize("command", sorted(PINNED))
def test_json_report_is_pinned(command):
    out = io.StringIO()
    code = cli.main(command.split() + ["--format", "json"], out=out)
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == PINNED[command]


def _sequence_memos():
    """The memo of every recurrence built by qkernel.sequence."""
    return [
        value
        for module in (qkernel, families)
        for value in vars(module).values()
        if callable(getattr(value, "cache_info", None)) and value.cache_info().maxsize == 64
    ]


def _evict_every_sequence():
    """Touch 64 fresh parameter sets of every sequence, so that none of the
    entries made before is left."""
    for i in range(1, 65):
        q, point = F(i, 1000033), ParamPoint(F(i, 1000033), F(3, 7))
        families.fib_carlitz_rec(0, q)
        families.fib_qb(0, point)
        families.lucas_qb(0, point)
        families.alsalam_ismail(0, q, 1, q)
        families.cheb_u(0, q)
        families.cheb_t(0, q)
        qkernel.q_catalan(0, q)


def test_run_suite_repeats_after_every_memo_is_evicted():
    """No state kept between two runs in one process changes a report."""

    def run():
        reports = suites.run_suite("core", qs=[F(2)], bounds={"dual": 6})
        return [report.to_json() for report in reports]

    first = run()
    _evict_every_sequence()
    memos = _sequence_memos()
    assert len(memos) == 7
    assert all(memo.cache_info().currsize == 64 for memo in memos)
    assert run() == first
