"""The table of checks: its bound keys, JSON reports pinned byte for byte
for commands that exercise the skip path, the extended suite and the --max-n
rules, and the failing reports of perturbed generators."""

import gc
import hashlib
import io
import json
import tracemalloc
from fractions import Fraction as F
from pathlib import Path

import pytest

from qcheb import cli, families, matrixids, moments, operators, qkernel, suites
from qcheb.polyring import ONE, XsPoly
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
    for key in ("orthogonality", "series_order", "binet_float", "classical_moments"):
        assert at_6[key] == suites.bounds_for()[key]


# sha256 of the JSON report of each command, as produced before the table of
# checks replaced the hand-written work list; `--q 1` as recorded once the
# hypergeometric forms cancelled their 1 - q factors, so that every row runs
# at q = 1 (118 pass, where 115 passed and 3 were skipped with a bare
# division by zero), `--q 2 --b 4` once a pole met at a shifted
# point named the sample's b, and `--q=-1` once the closed forms stopped
# dividing by [i]_q (97 pass and 12 skipped, each at a pole of the b = -1
# families, where 82 and 27 were); the same on CPython 3.10 to 3.13
PINNED = {
    "verify --suite all --q 1":
        "21959f52a8fac6dd81e213d2a6c46d49ac623e8a9a76da294033de68095b1098",
    "verify --suite extended":
        "9d00d32972e764457921f6d7557ad2b90b16ff56e4b682bffcf5a85bfee88efa",
    "verify --suite all --q 2 --b 3/7 --max-n 6":
        "26fe224e18e541ab2be5476ccbf6ba8ddad292ca271c71f49d12280ea41f41c5",
    # zero factors and negative-order Pochhammer symbols are reached here
    "verify --suite all --q=-1":
        "3a06898b89d8580c9adecdad364f52360b6ce9a02ef31e4daf3eee2c8bd9244f",
    "verify --suite core --q 2 --b 4":
        "fcf403d49a9d429b00cf7fa02d61515dc756f490c32446d2c5fedfe2d09610a5",
    "verify --suite core --q 2 --b 1/32":
        "9ec0e97d5110f0d04de35bb2aa89a3ab6571f7cb27e5d66bc0859a6fdc20d3f0",
    # Rodrigues to n = 8 at series order 26 (48 pass), past the n <= 6 above;
    # recorded while the weight series were TruncSeries of Fractions
    "verify --suite extended --max-n 8":
        "4220cdb663d84e8ec8b9c7824eee400e5729f486bc0431554b54403be84b0469",
    # big coefficients at one point, recorded at 801b569 while every XsPoly
    # was kept in lowest terms
    "verify --suite core --max-n 60 --q=3/5 --b=3/7":
        "27626fb5ae79f8af5c8a457285da0469aa30fce57cda4c4811e9d3caffc99d38",
    # every sample past the default bounds (349 pass): the q-ODE, Binet-sum and
    # tridiagonal rows at n > 6 for q = 2, 1/2 and 7; recorded at 9d6b601,
    # before each T/U pair of those rows became one function
    "verify --suite all --max-n 12":
        "51f625f8deaeb066bb839d0ecef402432144517c5da2a24e7a67f66e37b91f89",
    # the closed forms out to n = 40, where at q = -1 the factors 1 + q^j
    # vanish and T's n = 2k term cancels past the n <= 24 of the pin above;
    # recorded at e86b51e, before each closed-form twin became one sum
    "verify --suite core --q=-1 --max-n 40":
        "67c9e4595c88c99246e671253a253e706190bcc9bcab4455ac4a2bcbf01f6a35",
    "verify --suite core --q=-5/12 --max-n 40":
        "28787d1ac8512bc439bc54b267ff9875c4fed09aa727229299b02c9120026826",
}


@pytest.mark.parametrize("command", sorted(PINNED))
def test_json_report_is_pinned(command):
    out = io.StringIO()
    code = cli.main(command.split() + ["--format", "json"], out=out)
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == PINNED[command]


def _verify_json(command):
    out = io.StringIO()
    code = cli.main(command.split() + ["--format", "json"], out=out)
    return code, json.loads(out.getvalue())


def test_q_1_is_an_ordinary_sample():
    """At q = 1 every row runs and passes, the hypergeometric forms too:
    their term ratios cancel the 1 - q factors of (q^(2-2n);q^2)_k and
    (q^2;q^2)_k, which vanish there, against those of the numerator."""
    code, payload = _verify_json("verify --suite all --q 1")
    assert code == 0
    assert payload["summary"] == {"pass": 118, "fail": 0, "skipped": 0}
    passed = {r["identity_id"] for r in payload["reports"] if r["status"] == "pass"}
    assert {"dual-GEN_LUCAS", "eq-2.28", "eq-4.3"} <= passed


@pytest.mark.parametrize(
    "b, summary, poles",
    [
        ("1/4", {"pass": 52, "fail": 0, "skipped": 8}, {"1 - q^2 b vanishes at q=2, b=1/4"}),
        ("4", {"pass": 58, "fail": 0, "skipped": 2}, {"1 - q^-2 b vanishes at q=2, b=4"}),
    ],
)
def test_a_named_point_runs_every_point_row(b, summary, poles):
    """A (q, b) named with --b is never dropped: every point and neg_point
    row reports there, and a row that meets a pole is skipped with it."""
    code, payload = _verify_json(f"verify --suite core --q 2 --b {b}")
    assert code == 0 and payload["summary"] == summary
    core, _ = suites.checks()
    point_rows = {row.id for row in core if row.scope in ("point", "neg_point")}
    at_point = {
        r["identity_id"] for r in payload["reports"] if r["point"] == {"q": "2", "b": b}
    }
    assert point_rows <= at_point
    skipped = [r for r in payload["reports"] if r["status"] == "skipped"]
    assert {r["reason"] for r in skipped} == poles


def _sequence_sizes():
    """The number of param lists each sequence built by qkernel.sequence
    holds, once per sequence (q_binom reports the memo of the q_pascal rows)."""
    memos = {
        id(value.cache_info): value
        for module in (qkernel, families, matrixids, operators, suites)
        for value in vars(module).values()
        if callable(getattr(value, "cache_info", None))
    }
    assert len(memos) == 15
    return [memo.cache_info().currsize for memo in memos.values()]


GOLDEN = Path(__file__).parents[1] / "perfbench" / "golden.json"


def test_two_verify_runs_in_one_process_give_the_golden_report_in_flat_memory():
    """Each run's memos live in its own scopes, so a second run in the same
    process finds none of the first's, prints the recorded report again, and
    neither run leaves live memory behind (a process-wide memo once kept
    about 2 MB after the first run and 460 KB after the second).  A first
    command loads what argparse imports on first use."""
    argv = ["verify", "--suite", "all", "--format", "json"]
    want = json.loads(GOLDEN.read_text())["commands"][" ".join(argv)]["sha256"]
    cli.main(["catalan", "--n", "1", "--q", "2"], out=io.StringIO())
    tracemalloc.start()
    try:
        for _ in range(2):
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            out = io.StringIO()
            assert cli.main(argv, out=out) == 0
            digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
            del out
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - before
            assert digest == want
            assert grown < 64 * 1024, grown
            assert not any(_sequence_sizes())
    finally:
        tracemalloc.stop()


class _SizesAtWrite(io.StringIO):
    """Output that notes the largest number of param lists the sequences
    held at any write."""

    most = 0

    def write(self, text):
        self.most = max(self.most, sum(_sequence_sizes()))
        return super().write(text)


@pytest.mark.parametrize(
    "argv", ["gen --family L_TRACE --n 12 --q 3/5", "catalan --n 12 --q 2/3"],
    ids=["gen", "catalan"],
)
def test_a_command_keeps_its_memos_until_it_returns(argv):
    """The command's memos are filled while it writes and empty once
    cli.main returns."""
    out = _SizesAtWrite()
    assert cli.main(argv.split(), out=out) == 0
    assert out.most > 0
    assert not any(_sequence_sizes())


def test_run_suite_leaves_every_sequence_empty():
    """Each q sample runs in its own memo scope, so no list outlives a run,
    and the reports at q = 2 are those of a run at q = 2 alone."""

    def at_2(qs):
        reports = suites.run_suite("core", qs=qs, bounds={"dual": 6})
        assert not any(_sequence_sizes())
        return [r for r in reports if r.point is not None and r.point.q == 2]

    assert at_2([F(1, 2), F(2)]) == at_2([F(2)])


def _live_points():
    gc.collect()
    return sum(isinstance(obj, ParamPoint) for obj in gc.get_objects())


def test_per_point_ladders_stay_bounded_and_change_no_later_run():
    """The ladders live in their points, so the number of live points does
    not grow with the number of points used; and a second run in the same
    process gives the same reports."""

    def use(points):
        for i in points:
            point = ParamPoint(F(3, 5), F(i, 1000037))
            families.lucas_trace(-4, point)
            matrixids.cassini_sides(-3, point)

    use(range(1, 101))
    live = _live_points()
    use(range(101, 301))
    assert _live_points() == live

    def run():
        reports = suites.run_suite("core", qs=[F(3, 5)], bs=[F(3, 7)])
        return [report.to_json() for report in reports]

    assert run() == run()


# One generator made wrong by one at one index: the sha256 of the JSON of the
# failing reports of `run_suite("all", qs=[2], bs=[3/7], bounds=bounds_for(4))`,
# recorded while each check still chose its own witness.  Together they make
# every row that yields more than one pair per index fail somewhere, and the
# Cassini and Rodrigues rows too.
PERTURBED = {
    # re-recorded when the weight series became XsPolys: the eq-5.25 and
    # eq-5.26 witnesses print as polynomials, "15*x^3 + 14*x", where they
    # printed as TruncSeries([Fraction(0, 1), Fraction(14, 1), ...], order=15)
    "families.cheb_t@3":
        "b23df96a9ad9231d47f51df431f97463b555d0110d263bf46fe7025468be9940",
    "families.cheb_u@2":
        "a5c1854ea073ea0cf4900c3afaa5027aefb4dc87d3db1b5cd1c932f88d2aef9e",
    "families.fib_qb@3":
        "f61f0ff0d98d64859bb6f5fb0e371a4731955528a1e440d6213ff3408e7684a1",
    "families.lucas_qb@3":
        "9e647351ea6a46211be8b7ef0a8cbf9f9fb2f2e0661083729869ee458321ec7d",
    "families.fib_qb_ext@-2":
        "5312c41264bbccc78c333a74192bc2db7cfae3bf9c472574be2b109633a6c293",
    "families.lucas_trace@2":
        "87b5a84456ca8938dce0ad591b709a93d4a0b2fb66799d3c9bd8b06240af0be3",
    "families.gen_fib@3":
        "95dc8132fed59dd940fb345c949107a10486c4fff01babb8ee386eff5ccb5bbf",
    "families.fib_carlitz@3":
        "95214ad63ab89ffa41eef4a6254ea292c29d5a256f2f7f829e02bbe869efc8ef",
    "moments.moments_fib_closed@1":
        "12a6a6576654309b6e3a7ce9688a788d20e79ba5bd897a6c99fae5925771b78f",
    "moments.moments_lucas_closed@1":
        "0f2a400a658108867a3d92e4b24069a0a77c17aa2455e21941ad84bb912524f1",
    "moments.q_catalan@2":
        "9ab8764743547e6e519efb16b3584e65bb88e643e2b53699d86d6e557bb72d01",
}


def _run_small_all():
    return suites.run_suite("all", qs=[F(2)], bs=[F(3, 7)], bounds=suites.bounds_for(4))


def _assert_every_report_carries_a_row_id(reports):
    core, extended = suites.checks()
    assert reports and {r.identity_id for r in reports} <= {row.id for row in core + extended}


def _failing_reports(monkeypatch, target):
    name, at = target.split("@")
    module, attr = name.split(".")
    module = {"families": families, "moments": moments}[module]
    original = getattr(module, attr)

    def perturbed(n, *args):
        value = original(n, *args)
        if n != int(at):
            return value
        return value + (1 if isinstance(value, F) else ONE)

    monkeypatch.setattr(module, attr, perturbed)
    reports = _run_small_all()
    _assert_every_report_carries_a_row_id(reports)
    return [r.to_json() for r in reports if r.status == "fail"]


@pytest.mark.parametrize("target", sorted(PERTURBED))
def test_failing_reports_are_pinned(monkeypatch, target):
    failing = _failing_reports(monkeypatch, target)
    assert failing
    digest = hashlib.sha256(json.dumps(failing).encode()).hexdigest()
    assert digest == PERTURBED[target]


# The rows besides eq-3.1 that read F_m(x, qb, qs) through families.lucas_trace:
# the rows that a wrong lucas_trace fails.
LUCAS_TRACE_ROWS = {"dual-L_TRACE", "negative-index", "classical-fib-lucas", "nonorthogonality"}


@pytest.mark.parametrize("target, rows", [
    ("families.fib_qb_up@2", {"eq-2.30", "eq-2.31", "eq-2.33", "eq-3.1", *LUCAS_TRACE_ROWS}),
    ("families.lucas_trace@2", {"eq-3.1", *LUCAS_TRACE_ROWS}),
])
def test_the_shifted_fibonacci_member_is_read_on_every_path(monkeypatch, target, rows):
    """F_m(x, qb, qs) is written once, as families.fib_qb_up: made wrong at
    one m, it fails exactly the transfer-matrix, Cassini, Cassini-Euler and
    trace-Lucas rows, and the rows that read it through lucas_trace."""
    assert {r["identity_id"] for r in _failing_reports(monkeypatch, target)} == rows


def test_every_report_at_q_minus_1_carries_a_row_id():
    reports = suites.run_suite("all", qs=[F(-1)], bs=[F(3, 7)], bounds=suites.bounds_for(4))
    assert any(r.status == "skipped" for r in reports)
    _assert_every_report_carries_a_row_id(reports)


def _wrong_word(original):
    """apply_word made wrong by one for the word Y at x s^2."""
    return lambda word, point, start=(0, 0, 0): original(word, point, start) + (
        ONE if (tuple(word), start) == (("Y",), (1, 2, 0)) else XsPoly.zero()
    )


def _wrong_ck(original):
    """ck_closed made wrong by one at C_1^2."""
    return lambda n, k, point: original(n, k, point) + (ONE if (n, k) == (2, 1) else XsPoly.zero())


def _wrong_expansion(original):
    """expand_in_basis made wrong by one for L*_1 L*_3 in the gen_lucas basis."""
    lucas = moments.gen_lucas_spec(F(2)).basis(4)

    def expand(poly, basis):
        coeffs = original(poly, basis)
        if basis[:4] == lucas and poly == lucas[1] * lucas[3]:
            coeffs[0] = coeffs[0] + ONE
        return coeffs

    return expand


@pytest.mark.parametrize(
    "module, attr, wrong, row, index",
    [
        (operators, "apply_word", _wrong_word, "eq-2.13..15", "((1, 2, 0), 'eq-2.15')"),
        (operators, "ck_closed", _wrong_ck, "eq-2.16..21", "((2, 1), 'eq-2.21')"),
        (moments, "expand_in_basis", _wrong_expansion, "orthogonality", "('gen_lucas', (1, 3))"),
    ],
    ids=["apply_word", "ck_closed", "expand_in_basis"],
)
def test_a_failing_sub_identity_reports_under_its_row(monkeypatch, module, attr, wrong, row, index):
    """A check that compares several relations or specs fails under its
    row's id, and its witness index names the relation or spec that broke."""
    monkeypatch.setattr(module, attr, wrong(getattr(module, attr)))
    reports = _run_small_all()
    _assert_every_report_carries_a_row_id(reports)
    (report,) = [r.to_json() for r in reports if r.identity_id == row]
    assert report["status"] == "fail" and report["witness"]["n"] == index


def test_a_word_row_is_reported_at_its_word_point():
    """eq-2.13..15 runs at (q, 3/7), so its skip there names that point."""
    out = io.StringIO()
    code = cli.main(["verify", "--suite", "extended", "--q", "7/3"], out=out)
    assert code == 0
    lines = out.getvalue().splitlines()
    at = lines.index("skipped eq-2.13..15 @ q=7/3, b=3/7  n in (0, 0)")
    assert lines[at + 1] == "        reason: 1 - q^1 b vanishes at q=7/3, b=3/7"
