"""Command-line interface: output formats, exit codes, round-trips and the
suite runner's determinism and skip behavior."""

import contextlib
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from itertools import repeat
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcheb import cli, families, moments, suites
from qcheb.polyring import XsPoly
from qcheb.qkernel import ParamPoint


def run_cli(argv):
    out = io.StringIO()
    code = cli.main(argv, out=out)
    return code, out.getvalue()


VERIFIER_MODULES = ("dataclasses", "inspect", "qcheb.suites", "qcheb.analysis",
                    "qcheb.matrixids", "qcheb.operators", "qcheb.moments")


def _verifier_modules_loaded_by(code):
    """The VERIFIER_MODULES that running code loads in a fresh interpreter."""
    probe = (f"import io, sys\nbefore = set(sys.modules)\n{code}\n"
             f"print(*(m for m in {VERIFIER_MODULES!r} if m in set(sys.modules) - before))")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                            text=True, check=True, timeout=120)
    return set(result.stdout.split())


@pytest.mark.parametrize("code", [
    "import qcheb.cli; qcheb.cli.build_parser()",
    "from qcheb import cli; cli.main(['gen', '--family', 'T', '--n', '3'], out=io.StringIO())",
])
def test_building_the_parser_and_gen_load_no_verifier_module(code):
    assert _verifier_modules_loaded_by(code) == set()


def test_verify_loads_the_suites():
    code = "from qcheb import cli; cli.main(['verify', '--max-n', '2'], out=io.StringIO())"
    assert "qcheb.suites" in _verifier_modules_loaded_by(code)


def test_gen_text():
    code, text = run_cli(["gen", "--family", "T", "--n", "2", "--q", "2"])
    assert code == 0
    assert "T_2 = 3*x^2 + 2*s" in text


def test_gen_text_unit_coefficients():
    code, text = run_cli(["gen", "--family", "F_CARLITZ", "--n", "3", "--q=-1"])
    assert code == 0
    assert "F_CARLITZ_3 = x^2 - s\n" in text


def test_negative_rational_needs_equals_sign(capsys):
    code, text = run_cli(["gen", "--family", "T", "--n", "3", "--q=-1/2"])
    assert code == 0 and "T_2 = 1/2*x^2 - 1/2*s" in text
    code, _ = run_cli(["gen", "--family", "T", "--n", "3", "--q", "-1/2"])
    assert code == 2
    assert "expected one argument" in capsys.readouterr().err


def test_verify_q_and_b_leave_the_fixed_sample_scopes_alone():
    code, text = run_cli(
        ["verify", "--suite", "core", "--q", "3/5", "--b", "3/7", "--max-n", "3"]
    )
    assert code == 0
    assert "pass    pearson @ q=2, b=0" in text
    assert "dual-T @ q=3/5" in text and "dual-T @ q=2," not in text


def test_gen_json_round_trip():
    code, text = run_cli(
        ["gen", "--family", "U", "--n", "4", "--q", "3/5", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(text)
    assert payload["q"] == "3/5"
    from fractions import Fraction

    for row in payload["rows"]:
        assert row["poly"] == families.cheb_u(row["n"], Fraction(3, 5)).to_json()


def test_gen_csv():
    code, text = run_cli(["gen", "--family", "F_QB", "--n", "3", "--format", "csv"])
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0] == "n,poly"
    assert len(lines) == 5


def test_gen_bad_family_exits_2():
    code, _ = run_cli(["gen", "--family", "NOPE", "--n", "2"])
    assert code == 2


def test_gen_bad_rational_exits_2():
    code, _ = run_cli(["gen", "--family", "T", "--n", "2", "--q", "2/0"])
    assert code == 2


def test_a_pole_at_the_last_member_exits_2_with_nothing_written(capsys):
    """F_9 divides by 1 - q^8 b, which vanishes at (2, 1/256); F_8 does not."""
    argv = ["gen", "--family", "F_QB", "--q", "2", "--b", "1/256"]
    code, text = run_cli([*argv, "--n", "9"])
    assert code == 2 and text == ""
    err = capsys.readouterr().err
    assert err == "error: 1 - q^8 b vanishes at q=2, b=1/256\n"
    code, text = run_cli([*argv, "--n", "8"])
    assert code == 0 and text.startswith("F_QB_0 = 0\n") and "F_QB_8 = x^7 + " in text


def test_gen_pole_exits_2():
    # q = 2, b = 1/2 puts a pole at level 1
    code, _ = run_cli(["gen", "--family", "F_QB", "--n", "5", "--q", "2", "--b", "1/2"])
    assert code == 2


def test_moments_values():
    code, text = run_cli(["moments", "--family", "GEN_FIB", "--n", "2", "--q", "2"])
    assert code == 0
    assert "moment(x^1) = 0" in text
    assert "moment(x^2) = -2/15*s" in text


def test_moments_classical():
    code, text = run_cli(["moments", "--family", "CARLITZ", "--n", "4", "--q", "1"])
    assert code == 0
    assert "moment(x^4) = 2*s^2" in text


@pytest.mark.parametrize("family, q, header", [
    ("CLASSICAL", "3/5", "1"), ("CARLITZ", "3/5", "3/5"), ("GEN_FIB", "-2", "-2"),
])
def test_the_moments_header_names_the_q_of_its_rows(family, q, header):
    """CLASSICAL is Carlitz at q = 1 whatever --q asks for, and says so."""
    code, text = run_cli(["moments", "--family", family, "--n", "2", f"--q={q}",
                          "--format", "json"])
    assert code == 0
    assert json.loads(text)["q"] == header


@pytest.mark.parametrize("family, header", [
    ("GEN_FIB", "-1"), ("GEN_LUCAS", "-1"), ("F_CARLITZ", "0"), ("F_QB", "5"), ("L_TRACE", "5"),
    ("T", "5"), ("U", "5"), ("ALSALAM_ISMAIL", "5"),
])
def test_the_gen_header_names_the_b_of_its_rows(family, header):
    """GEN_FIB and GEN_LUCAS are at b = -1 and F_CARLITZ at b = 0 whatever
    --b asks for, and say so; T, U and ALSALAM_ISMAIL take no b and echo it."""
    code, text = run_cli(["gen", "--family", family, "--n", "2", "--q", "2", "--b", "5",
                          "--format", "json"])
    assert code == 0
    assert json.loads(text)["b"] == header


def test_a_malformed_q_exits_2_for_every_moment_family(capsys):
    for family in moments.SPECS:
        code, text = run_cli(["moments", "--family", family, "--n", "2", "--q", "1/0"])
        assert code == 2 and text == ""
        assert capsys.readouterr().err.startswith("error: not a valid rational: '1/0'")


def test_an_unknown_moment_family_exits_2_naming_the_table(capsys):
    code, text = run_cli(["moments", "--family", "NOPE", "--n", "2"])
    assert code == 2 and text == ""
    assert capsys.readouterr().err == (
        "error: unknown moment family 'NOPE'; choose from " + ", ".join(moments.SPECS) + "\n"
    )
    assert list(moments.SPECS) == ["GEN_FIB", "GEN_LUCAS", "CARLITZ", "CLASSICAL"]


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_carlitz_moments_at_q_1_are_the_classical_rows(fmt):
    """carlitz_spec(1) is the classical recurrence t(k) = s."""
    args = ["--n", "10", "--q", "1", "--format", fmt]
    code, carlitz = run_cli(["moments", "--family", "CARLITZ", *args])
    assert code == 0
    code, classical = run_cli(["moments", "--family", "CLASSICAL", *args])
    assert code == 0
    if fmt == "json":
        carlitz, classical = json.loads(carlitz)["rows"], json.loads(classical)["rows"]
    assert carlitz == classical


def test_catalan():
    code, text = run_cli(["catalan", "--n", "5", "--q", "1"])
    assert code == 0
    assert text.strip() == "1, 1, 2, 5, 14, 42"
    code, text = run_cli(["catalan", "--n", "2", "--q", "3"])
    assert text.strip() == "1, 1, 4"


def test_catalan_json():
    code, text = run_cli(["catalan", "--n", "3", "--q", "1/2", "--format", "json"])
    payload = json.loads(text)
    assert payload["values"][2] == "3/2"


def test_verify_small_passes():
    code, text = run_cli(
        ["verify", "--suite", "core", "--q", "2", "--max-n", "6", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(text)
    assert payload["summary"]["fail"] == 0
    assert payload["summary"]["pass"] > 0
    assert all(r["status"] in ("pass", "skipped") for r in payload["reports"])


def test_verify_at_q_1_runs_every_row():
    code, text = run_cli(
        ["verify", "--suite", "core", "--q", "1", "--max-n", "4", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(text)
    assert payload["summary"]["skipped"] == 0
    assert payload["summary"]["fail"] == 0
    # the classical-limit checks still run
    ids = {r["identity_id"] for r in payload["reports"] if r["status"] == "pass"}
    assert "classical-fib-lucas" in ids


def test_verify_fault_injection_exits_1(monkeypatch):
    args = ["verify", "--suite", "core", "--q", "2", "--max-n", "4", "--format", "json"]
    for family in ("U", "F_QB"):
        fid = families.FamilyId(family)
        spec = families.FAMILIES[fid]
        with monkeypatch.context() as patch:
            # the primary route made wrong by one
            wrong = lambda n, p, route=spec.primary: route(n, p) + XsPoly.const(1)
            patch.setitem(families.FAMILIES, fid, spec._replace(primary=wrong))
            code, text = run_cli(args)
        assert code == 1
        payload = json.loads(text)
        assert payload["summary"]["fail"] >= 1
        fails = [r for r in payload["reports"] if r["status"] == "fail"]
        assert all("witness" in r for r in fails)
        # only the injected family's dual-route rows fail
        assert {r["identity_id"] for r in fails} == {f"dual-{family}"}
        # the fault belongs to the patched run alone: the next run passes
        code, text = run_cli(args)
        assert code == 0
        assert json.loads(text)["summary"]["fail"] == 0
    # a fault is injected only by patching the table of families
    assert run_cli(args + ["--inject-fault", "U"])[0] == 2


def test_verify_csv_columns():
    code, text = run_cli(
        ["verify", "--suite", "core", "--q", "3/5", "--max-n", "4", "--format", "csv"]
    )
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0] == "identity_id,q,b,n_lo,n_hi,status"


def test_verify_deterministic_across_parallelism():
    args = ["verify", "--suite", "core", "--q", "2", "--max-n", "5", "--format", "json"]
    _, serial = run_cli(args)
    _, parallel = run_cli(args + ["--parallelism", "4"])
    assert serial == parallel


def test_verify_bad_flags_exit_2():
    code, _ = run_cli(["verify", "--suite", "nope"])
    assert code == 2
    code, _ = run_cli(["verify", "--parallelism", "0"])
    assert code == 2
    code, _ = run_cli(["verify", "--max-n", "0"])
    assert code == 2


def test_suite_summary_counts():
    reports = suites.run_suite("core", qs=[2], bounds={"dual": 4})
    counts = suites.summarize(reports)
    assert counts["fail"] == 0
    assert counts["pass"] == len(reports) - counts["skipped"]


def test_unknown_suite_raises():
    with pytest.raises(ValueError):
        suites.build_work_items("bogus")


@pytest.mark.parametrize(
    "argv, names",
    [
        (["gen", "--family", "F_QB", "--n", "4", "--q=-1", "--b=-1"],
         "error: 1 - q^1 b vanishes at q=-1, b=-1\n"),
        (["moments", "--family", "GEN_FIB", "--q", "-1", "--n", "4"],
         "error: 1 - q^1 b vanishes at q=-1, b=-1\n"),
    ],
    ids=["gen", "moments"],
)
def test_pole_at_q_minus_1_is_a_clean_usage_error(argv, names, capsys):
    code, text = run_cli(argv)
    assert code == 2
    assert text == ""
    err = capsys.readouterr().err
    assert err.startswith(names) and err.count("\n") == 1
    assert "Traceback" not in err


def test_gen_at_q_minus_1_off_its_poles_prints_the_closed_form():
    """1 + q^j = 0 is no pole: F_QB at (-1, 3) divides by nothing that vanishes."""
    code, text = run_cli(["gen", "--family", "F_QB", "--n", "4", "--q=-1", "--b", "3"])
    assert code == 0
    point = ParamPoint(-1, 3)
    assert text == "".join(
        f"F_QB_{n} = {families.fib_qb_closed(n, point)}\n" for n in range(5)
    )


def test_verify_at_q_minus_1_skips_the_rows_that_meet_a_pole(capsys):
    """A pole once checks have started is a skipped report, not exit 2.  Every
    point row reports at the three points of the default b grid that are
    pole-free at q = -1; (-1, -1) has 1 - qb = 0.  Each skip is a pole of the
    b = -1 families, never a bare division by zero."""
    code, text = run_cli(["verify", "--suite", "all", "--q=-1", "--format", "json"])
    assert code == 0
    assert capsys.readouterr().err == ""
    payload = json.loads(text)
    assert payload["summary"] == {"pass": 97, "fail": 0, "skipped": 12}
    skipped = [r for r in payload["reports"] if r["status"] == "skipped"]
    assert {r["reason"] for r in skipped} == {"1 - q^1 b vanishes at q=-1, b=-1"}
    assert all("reason" not in r for r in payload["reports"] if r["status"] != "skipped")
    core, _ = suites.checks()
    point_rows = {row.id for row in core if row.scope in ("point", "neg_point")}
    for b in ("0", "2", "3/7"):
        at_point = {
            r["identity_id"] for r in payload["reports"] if r["point"] == {"q": "-1", "b": b}
        }
        assert point_rows <= at_point, b


def test_verify_text_names_the_reason_of_each_skip():
    code, text = run_cli(["verify", "--suite", "core", "--q", "2", "--b", "4"])
    assert code == 0
    lines = text.splitlines()
    at = lines.index("skipped negative-index @ q=2, b=4  n in (0, 0)")
    assert lines[at + 1] == "        reason: 1 - q^-2 b vanishes at q=2, b=4"
    assert sum(line.startswith("        reason: ") for line in lines) == 2
    assert lines[-1] == "summary: 58 pass, 0 fail, 2 skipped"


@pytest.mark.parametrize("b_minus_1, family", [("GEN_FIB", "F_QB"), ("GEN_LUCAS", "L_QB")])
def test_b_minus_1_families_at_classical_q(b_minus_1, family):
    """At q = 1 the b = -1 families print the rows of F_QB/L_QB at b = -1."""
    args = ["--n", "6", "--q", "1", "--format", "json"]
    code, text = run_cli(["gen", "--family", b_minus_1, *args])
    assert code == 0
    _, expected = run_cli(["gen", "--family", family, "--b", "-1", *args])
    assert json.loads(text)["rows"] == json.loads(expected)["rows"]


# q = 1/10^70 gives coefficients past Python's int-to-str digit limit within a
# dozen terms, while the arithmetic stays well under a second.
TINY_Q = "--q=1/1" + "0" * 70


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str digit limit"
)
@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--family", "T", "--n", "12", TINY_Q],
        ["moments", "--family", "GEN_FIB", "--n", "20", TINY_Q],
        ["catalan", "--n", "12", TINY_Q],
        ["gen", "--family", "T", "--n", "112", "--q=3/5"],
    ],
    ids=["gen", "moments", "catalan", "gen-T112"],
)
def test_digit_limit_exits_2_before_any_output(argv, fmt, capsys):
    code, text = run_cli([*argv, "--format", fmt])
    assert code == 2 and text == ""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    # 3.10 words it "limit (4300)", later versions "limit (4300 digits)"
    assert f"limit ({sys.get_int_max_str_digits()}" in err


# sha256 of the stdout of each command, recorded while every command still
# built its whole payload and wrote it with one json.dump or one write.  Row 0
# of F_QB is the zero polynomial; at q = -1 F_CARLITZ's +-1 coefficients print
# as signs.
WRITER_PINS = {
    "gen --family F_QB --n 8 --q=3/5 --b=3/7 --format text":
        "49aaadd0614174bfe9e212bfb56c02ccc99ab94a9baa09b937b5a9d6d6b1d9b8",
    "gen --family F_QB --n 8 --q=3/5 --b=3/7 --format csv":
        "caaeedd52d9073157456a0f296ad542f101b02f3ff02751a462aa3ee7ac8bc4c",
    "gen --family F_QB --n 8 --q=3/5 --b=3/7 --format json":
        "f813b0c980f3b27efc18a73a0396f20b6be94109b2f17545d11d9e446466a82f",
    "gen --family F_CARLITZ --n 5 --q=-1 --format text":
        "22ad28723aec53dba79b5a78c892eb4840bf316d5f229c76f61e2da6d350be59",
    "gen --family F_CARLITZ --n 5 --q=-1 --format csv":
        "0193bb840023fe54239aac5647907998dd843979205b499309d49f39adef26ad",
    "gen --family F_CARLITZ --n 5 --q=-1 --format json":
        "040ad4bb7b415f68b844ab5978259d879edb0b60b35abb7d96a2687b3a92968b",
    "moments --family GEN_FIB --n 6 --q 2 --format text":
        "1f8ec9a98d563273a76454f7253c91811c44842021c8b4bce40339f8f840875d",
    "moments --family GEN_FIB --n 6 --q 2 --format csv":
        "331bd19be4fa0655c1a5c1225242a110e102baf50585d309100fa30f56fed000",
    "moments --family GEN_FIB --n 6 --q 2 --format json":
        "c5a44446a98dd693188df07d78527acb3a21257985547732bbace8959b8ca452",
    "catalan --n 12 --q 2/3 --format text":
        "13b972ba52043bb7ea53b3561f305c537bd5b246c95cef54a1d477b9b90325f8",
    "catalan --n 12 --q 2/3 --format csv":
        "47cc1e2c88d3941c42321e21797ce231e9b4c0dd11675b583d7866d339787c5b",
    "catalan --n 12 --q 2/3 --format json":
        "ae767ac7bffa779f6d4ad00f6f45433b55bad00fc3efc60f83d617a112556d1e",
    # big coefficients, recorded at 801b569 while every XsPoly was kept in
    # lowest terms: printing reduces each term, so the stored form never shows
    "gen --family F_QB --n 110 --q=3/5 --b=3/7 --format json":
        "011699b671742371fd35c3b237063a73a86bddfd0d368ec1d271d0d0deef5c42",
    "gen --family L_TRACE --n 40 --q=3/5 --b=3/7 --format json":
        "588384930877a6b30cf16f2edf3073cd4bd666b3536650e04bee43c76364f645",
    "gen --family ALSALAM_ISMAIL --n 40 --q=3/5 --format json":
        "86f26020d3354cf7cf900c588b540f527fe43e369e4e50bd150c3391bdc35df7",
    "gen --family U --n 60 --q=-3/5 --format json":
        "7be3e2538dda73c171835d337cb2bef7ddfeb518a3f5b23b85906e95fedc3517",
    "moments --family GEN_LUCAS --n 30 --q 3/5 --format json":
        "8a86193ffca45b70353331cad4962f77366b190a829c9c6257e31d165d99da4a",
    # denominators that are powers of a composite q-denominator, and a negative
    # q, recorded at 74ee5fd, while every printed term took one gcd
    "gen --family T --n 60 --q=7/10 --format json":
        "c957ebb9b32a9d472ff3d060121352ff17635952954e1a26451cab7cb4cca2d9",
    "gen --family U --n 40 --q=-5/12 --format text":
        "6462933841513ee1945d36f25e0cde4b014aac156bd281596326899dd37634b5",
    "gen --family F_CARLITZ --n 50 --q=7/30 --format csv":
        "59120ece7788ea135116e9d29a65793a9a75a9c80a2a9206d4e4c16f7f8f5899",
    # the largest members under the digit limit, with denominators base^e to
    # e = 6105, recorded at b43f094 while every denominator was written by
    # int-to-str, not from a Decimal ladder
    "gen --family T --n 111 --q=3/5 --format json":
        "63e7e7fa46ac72c60747e132b28200b2d9e384093432629beee01ded258ecc86",
    "gen --family U --n 80 --q=-5/12 --format text":
        "f84108ff75cc67f17c7cd72256fb3f728634eacde1614a06886e4530563ff7e8",
    "gen --family F_CARLITZ --n 100 --q=2/3 --format csv":
        "fc160997444730ae8986ae5b65d0ceeed4e3084dfa08377da4e0d86594740546",
    # recorded at e55b5e5, while gen built each F_CARLITZ member by its closed form
    "gen --family F_CARLITZ --n 150 --q=3/5 --format json":
        "433fb7567e3d01cf1d182a94a206074e6753f0aeb9b8fe2e1b898f9d9f6d43ad",
}


@pytest.mark.parametrize("command", sorted(WRITER_PINS))
def test_row_by_row_output_keeps_the_recorded_bytes(command):
    code, text = run_cli(command.split())
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == WRITER_PINS[command]


@pytest.mark.parametrize("command", ["gen --family T --n 0", "catalan --n 0"])
def test_json_framing_of_a_one_row_table(command):
    code, text = run_cli([*command.split(), "--format", "json"])
    assert code == 0
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


def test_gen_json_written_term_by_term_is_the_encoders_text():
    """Row 0 has no terms; the other rows have negative and fractional
    coefficients and powers of s."""
    code, text = run_cli(["gen", "--family", "F_QB", "--n", "6", "--q=-3/5", "--b=3/7",
                          "--format", "json"])
    assert code == 0
    assert text == json.dumps(json.loads(text), indent=2) + "\n"
    assert '"terms": []' in text and '"c": "-' in text and '"ds": 2' in text


# -- the digit check ----------------------------------------------------

LIMIT = 640  # the smallest limit Python accepts


@pytest.fixture
def digit_limit():
    """Run the test under a given int-to-str digit limit, then restore it."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("no int-to-str digit limit")
    saved = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(saved)


FORMATS = ("text", "csv", "json")


@pytest.mark.parametrize("fmt", FORMATS)
def test_a_shared_denominator_past_the_limit_is_no_error(fmt, digit_limit, monkeypatch):
    """The shared denominator 2^2000 3^1300 has 1224 digits, but each
    lowest-terms coefficient has at most 621."""
    digit_limit(LIMIT)
    poly = XsPoly({(1, 0): Fraction(1, 2**2000), (0, 0): Fraction(-1, 3**1300)})
    assert poly.den >= 10**LIMIT
    monkeypatch.setattr(families, "family_walk", lambda family, point: repeat(poly))
    code, text = run_cli(["gen", "--family", "T", "--n", "1", "--format", fmt])
    assert code == 0
    if fmt == "json":
        rows = json.loads(text)["rows"]
        assert [row["poly"] for row in rows] == [poly.to_json(), poly.to_json()]
    else:
        assert text.count(str(poly)) == 2


# T_2 = (1 + q) x^2 + q s: at q = 10^LIMIT - 2 its coefficients have exactly
# LIMIT digits; at q = 10^LIMIT - 1 the coefficient of x^2 has LIMIT + 1.  The
# q-Catalan number C_2 = 1 + q has the same digit counts.
AT_LIMIT = {
    "gen": (["gen", "--family", "T", "--n", "2"], "T_2 = {}*x^2 + {}*s"),
    "catalan": (["catalan", "--n", "2"], "1, 1, {}"),
}


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("command", sorted(AT_LIMIT))
def test_a_coefficient_of_exactly_limit_digits_is_printed(command, fmt, digit_limit):
    digit_limit(LIMIT)
    argv, _ = AT_LIMIT[command]
    q = 10**LIMIT - 2
    code, text = run_cli([*argv, f"--q={q}", "--format", fmt])
    assert code == 0
    assert str(q + 1) in text and len(str(q + 1)) == LIMIT
    if fmt == "text":
        assert AT_LIMIT[command][1].format(q + 1, q) in text


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("command", sorted(AT_LIMIT))
def test_a_coefficient_of_limit_plus_1_digits_exits_2(command, fmt, digit_limit, capsys):
    digit_limit(LIMIT)
    argv, _ = AT_LIMIT[command]
    code, text = run_cli([*argv, f"--q={10**LIMIT - 1}", "--format", fmt])
    assert code == 2 and text == ""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"limit ({LIMIT}" in err  # 3.10 words it "(640)", later versions "(640 digits)"


@pytest.mark.parametrize("command", sorted(AT_LIMIT))
def test_no_digit_check_without_a_limit(command, digit_limit):
    digit_limit(0)
    argv, template = AT_LIMIT[command]
    q = 10**LIMIT - 1
    code, text = run_cli([*argv, f"--q={q}"])
    assert code == 0
    assert template.format(q + 1, q) in text


# -- the process: memory and a closed pipe ------------------------------

SRC = str(Path(cli.__file__).parents[1])

# Linux keeps a process's peak RSS across exec, and a child made by fork or
# vfork starts from its parent's, so each measured interpreter is spawned
# from a bare `python -S` launcher whose own peak is below that of any qcheb
# process.  The launcher prints the child's exit code and peak RSS in KB.
RSS_LAUNCHER = """\
import os, resource, sys
pid = os.posix_spawn(sys.executable, [sys.executable, *sys.argv[1:]], os.environ,
                     file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
                                   (os.POSIX_SPAWN_OPEN, 2, os.devnull, os.O_WRONLY, 0)])
_, status = os.waitpid(pid, 0)
print(os.waitstatus_to_exitcode(status), resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


def _peak_rss_mb(*args, code=0):
    env = dict(os.environ, PYTHONPATH=SRC)
    result = subprocess.run([sys.executable, "-S", "-c", RSS_LAUNCHER, *args], env=env,
                            capture_output=True, text=True, check=True, timeout=120)
    got, kb = map(int, result.stdout.split())
    assert got == code, (args, got)
    return kb / 1024


@pytest.mark.skipif(sys.platform != "linux", reason="peak RSS across exec is Linux's")
def test_gen_holds_two_members_not_the_table():
    """gen walks the members twice, to check and then to write them, and
    holds two members and one term at a time: T_0..T_100 take about 2.6 MB
    and their JSON about 4 MB, those of T_160 at q = 2 about 11 MB, and T_300 at
    q = 3/5 (which exits 2 at a coefficient past the digit limit) once peaked
    at 168 MB.  Each keeps the rise over an import-only process under 1.5 MB."""
    base = _peak_rss_mb("-c", "import qcheb.cli")
    for argv, code in [
        (["--n", "100", "--q=3/5", "--format", "json"], 0),
        (["--n", "160", "--q=2", "--format", "json"], 0),
        (["--n", "300", "--q=3/5"], 2),
    ]:
        gen = _peak_rss_mb("-m", "qcheb.cli", "gen", "--family", "T", *argv, code=code)
        assert gen - base < 1.5, (argv, base, gen)


def _gen_peak_mb(family, n=80):
    """The tracemalloc peak of cli.main running gen to n at (3/5, 3/7),
    writing to devnull."""
    argv = ["gen", "--family", family, "--n", str(n), "--q=3/5", "--b=3/7"]
    with open(os.devnull, "w") as out:
        gc.collect()
        tracemalloc.start()
        try:
            assert cli.main(argv, out=out) == 0
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()


def test_gen_l_trace_holds_a_few_members_as_f_qb_does():
    """L_TRACE walks F_(n+1)(x,b,s) and F_(n-1)(x,qb,qs) side by side, two
    members held of each: it peaked at 0.43 MB against 0.27 MB for F_QB,
    where building l_n by lucas_trace at each n, with both memos kept to
    the end, peaked at 3.1 MB."""
    cli.main(["catalan", "--n", "1", "--q", "2"], out=io.StringIO())  # argparse's first imports
    f_qb, l_trace = _gen_peak_mb("F_QB"), _gen_peak_mb("L_TRACE")
    assert l_trace < 3 * f_qb, (l_trace, f_qb)


def test_gen_f_carlitz_holds_a_few_members_as_f_qb_does():
    """F_CARLITZ walks the dilated recurrence of its oracle, two members held:
    to n = 150 it peaked at 0.64 MB against 0.27 MB for F_QB to n = 80, where
    building each member by the closed form, with the q-Pascal rows it reads
    kept to the end, peaked at 3.81 MB."""
    cli.main(["catalan", "--n", "1", "--q", "2"], out=io.StringIO())  # argparse's first imports
    f_qb, carlitz = _gen_peak_mb("F_QB"), _gen_peak_mb("F_CARLITZ", n=150)
    assert carlitz < 3 * f_qb, (carlitz, f_qb)


def test_gen_writes_the_denominators_of_one_member_at_a_time():
    """gen T to n = 111 at 3/5 writes each member's denominators 5^e from
    one Decimal ladder, dropped with the member: it peaked at 0.58 MB, as
    with int-to-str (0.56 MB), against 0.27 MB for F_QB to n = 80.  Texts
    kept from member to member would hold about 3.7 MB of digits."""
    cli.main(["catalan", "--n", "1", "--q", "2"], out=io.StringIO())  # argparse's first imports
    f_qb, t = _gen_peak_mb("F_QB"), _gen_peak_mb("T", n=111)
    assert t < 3 * f_qb, (t, f_qb)


# each writes far more than the pipe holds: gen about 1 MB, moments 265 KB and
# catalan 235 KB, whose text is one line
CLOSED_PIPE_COMMANDS = [
    "gen --family T --n 60 --q=3/5 --format json",
    "moments --family CARLITZ --n 200 --q=3/5 --format text",
    "moments --family CARLITZ --n 200 --q=3/5 --format json",
    "catalan --n 100 --q=3/5 --format text",
    "catalan --n 100 --q=3/5 --format json",
]


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_a_closed_stdout_exits_141_without_a_traceback(unbuffered):
    """The reader takes the first 10 bytes by os.read, since readline would
    wait for the whole of catalan's one-line text, and closes."""
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    got = {}
    for command in CLOSED_PIPE_COMMANDS:
        proc = subprocess.Popen([sys.executable, "-m", "qcheb.cli", *command.split()], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert len(os.read(proc.stdout.fileno(), 10)) > 0
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        got[command] = proc.wait(timeout=120), err
    assert got == {command: (141, b"") for command in CLOSED_PIPE_COMMANDS}


# -- the exit-code gate -------------------------------------------------

GATE_COMMANDS = [
    *(["verify", "--suite", suite, "--max-n", "4"] for suite in ("core", "extended")),
    *(["gen", "--family", f.value, "--n", "6", "--format", fmt]
      for f in families.FamilyId for fmt in FORMATS),
    *(["moments", "--family", name, "--n", "6", "--format", fmt]
      for name in moments.SPECS for fmt in FORMATS),
    *(["catalan", "--n", "6", "--format", fmt] for fmt in FORMATS),
]
small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def gate_runs(draw):
    """A command of GATE_COMMANDS at a small-height q (q = 1 and q = -1
    often) and, for the commands that take one, a b that is often q^-j."""
    argv = draw(st.sampled_from(GATE_COMMANDS))
    q = draw(st.one_of(st.sampled_from([Fraction(1), Fraction(-1)]), small_rationals))
    argv = [*argv, f"--q={q}"]
    if argv[0] in ("verify", "gen"):
        b = draw(st.one_of(small_rationals, st.integers(-3, 8).map(
            lambda j: q**-j if q else Fraction(0))))
        argv.append(f"--b={b}")
    return argv


def _first_failure(text):
    """The first fail report of a text verify report, with its witness."""
    lines = text.splitlines()
    start = next((i for i, line in enumerate(lines) if line.startswith("fail ")), 0)
    return "\n".join(lines[start:start + 4])


@settings(max_examples=300, deadline=None)
@given(gate_runs())
def test_every_command_exits_0_or_2_and_exit_2_writes_only_its_error(argv):
    """Each command exits 0 or 2 without raising: no identity fails at any
    sample (exit 1), and exit 2 writes nothing to stdout and one
    "error: ..." line to stderr.

    Not checked here: that every skip reason names its report's point.  At
    --q=-1 the dual-GEN_FIB row reports at b = 0 and skips with a reason
    read at b = -1, and labelling it with the b it runs at changes the
    golden report."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv, out=out)
    assert code != 1, (argv, _first_failure(out.getvalue()))
    assert code in (0, 2), argv
    if code == 2:
        assert out.getvalue() == "", argv
        lines = err.getvalue().splitlines(keepends=True)
        assert len(lines) == 1 and lines[0].startswith("error: ") and lines[0].endswith("\n")
