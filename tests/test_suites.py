"""The table of checks: its bound keys, and JSON reports pinned byte for byte
for commands that exercise the skip path, the extended suite and the --max-n
rules."""

import hashlib
import io

import pytest

from qcheb import cli, suites


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
