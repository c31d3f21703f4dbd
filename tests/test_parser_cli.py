"""Expression parser and the command line front end."""

import json
import random
import signal
import subprocess
import sys
from fractions import Fraction

import pytest

from z3calc import calculus, cli, parser, presets
from z3calc.calculus import random_element
from z3calc.freealg import NCPolynomial, fa_str
from z3calc.parser import (MAX_BITS, MAX_EXPONENT, MAX_TERMS, ParseError,
                           _bounded, parse, parse_scalar, q_value)
from z3calc.scalars import J, J2, ONE, P_ONE, CycloRational, Q, rational


@pytest.fixture(scope="module")
def P():
    return presets.build("qjh_calculus")


def test_parse_product_and_sum(P):
    p = parse("x*th - th*x - h*x^2", P)
    want = (NCPolynomial.word(("x", "th")) - NCPolynomial.word(("th", "x"))
            - NCPolynomial.word(("h", "x", "x")))
    assert p == want


def test_parse_scalar_prefix(P):
    p = parse("q*j^2*dth*x", P)
    assert p == NCPolynomial.word(("dth", "x"), Q * J2)


def test_parse_precedence(P):
    assert parse("2*x^2", P) == NCPolynomial.word(("x", "x"), rational(2))
    assert parse("-x^2", P) == NCPolynomial.word(("x", "x"), -ONE)
    x, th = NCPolynomial.gen("x"), NCPolynomial.gen("th")
    assert parse("(x + th)^2", P) == (x + th) * (x + th)


def test_parse_grouping(P):
    p = parse("x*(th + h)", P)
    assert p == NCPolynomial.word(("x", "th")) + NCPolynomial.word(("x", "h"))


def test_parse_division_and_negative_power(P):
    p = parse("x/2", P)
    assert p == NCPolynomial.gen("x").scale(rational(1) * rational(2).inv())
    s = parse("q^-1*j", P)
    assert s == NCPolynomial.unit(Q.inv() * J)


def test_parse_unicode_names(P):
    assert parse("θ*x", P) == NCPolynomial.word(("th", "x"))


def test_parse_errors(P):
    with pytest.raises(ParseError):
        parse("x*(", P)
    with pytest.raises(ParseError):
        parse("x*unknown", P)
    with pytest.raises(ParseError):
        parse("x x", P)  # missing operator shows up as trailing input
    with pytest.raises(ParseError):
        parse("x/th", P)  # divisor must be scalar
    err = None
    try:
        parse("x*(", P)
    except ParseError as e:
        err = e
    assert err.offset == 3


@pytest.mark.parametrize("text, message, offset", [
    ("²", "unexpected character '²'", 0),
    ("٣*x", "unexpected character '٣'", 0),
    ("x*٣", "unexpected character '٣'", 2),
    ("θ*$", "unexpected character '$'", 3),
    ("θ*θ^θ", "expected num, got 'th'", 6),
    ("dθ*(", "expected a value, got 'end of input'", 5),
], ids=["superscript", "arabic", "arabic_late", "greek", "greek_exponent",
        "greek_end"])
def test_parse_reads_ascii_digits_and_byte_offsets(P, text, message, offset):
    # only 0-9 spell a number, and the offset counts UTF-8 bytes
    with pytest.raises(ParseError) as err:
        parse(text, P)
    assert str(err.value) == "%s (at byte %d)" % (message, offset)
    assert err.value.offset == offset


@pytest.mark.parametrize("text, name, message", [
    ("x" * 10**5, "--q",
     "Invalid literal for Fraction: '%s'… of 100000 characters" % ("x" * 40)),
    (" " * 10**5 + "1/0", "q",
     "q %s… of 100003 characters divides by zero" % (" " * 40)),
    ("x" * 40, "--q", "Invalid literal for Fraction: '%s'" % ("x" * 40)),
    ("1/0", "--q", "--q 1/0 divides by zero"),
], ids=["long_literal", "long_zero", "short_literal", "short_zero"])
def test_q_value_clips_the_text(text, name, message):
    # Python's wording, with text past 40 characters cut
    with pytest.raises(ValueError) as err:
        q_value(text, name)
    assert str(err.value) == message


@pytest.mark.parametrize("opener, closer, value", [
    ("(", ")", NCPolynomial.gen("x")),
    ("-", "", NCPolynomial.gen("x").scale(-ONE)),
], ids=["parentheses", "signs"])
def test_parse_nesting_bound_is_exact(P, opener, closer, value):
    # 99 openers put x at depth 100, the last depth that parses
    assert parse(opener * 99 + "x" + closer * 99, P) == value
    with pytest.raises(ParseError) as err:
        parse(opener * 100 + "x" + closer * 100, P)
    assert str(err.value) == "nested deeper than 100 (at byte 100)"


@pytest.mark.parametrize("side", ["%d", "1/%d"], ids=["numerator",
                                                    "denominator"])
def test_q_value_bit_bound_is_exact(side):
    top = 2 ** MAX_BITS
    assert q_value(side % (top - 1)) == Fraction(side % (top - 1))
    with pytest.raises(ValueError) as err:
        q_value(side % top)
    assert str(err.value) == ("--q: numerator or denominator longer than "
                              "%d bits" % MAX_BITS)


def test_parse_exponent_cap(P):
    assert parse("x^5000", P) == NCPolynomial.word(("x",) * 5000)
    with pytest.raises(ParseError) as err:
        parse("x^%d" % (MAX_EXPONENT + 1), P)
    assert err.value.offset == 2


def test_parse_power_by_squaring(P, monkeypatch):
    # q^k is the canonical triple (k, 1, 1); each power builds at most
    # one square and one partial product per bit of k, all bounded
    k = MAX_EXPONENT
    qk = CycloRational(k, P_ONE, P_ONE)
    calls = []

    def bounded(p, off):
        calls.append(off)
        return _bounded(p, off)

    monkeypatch.setattr(parser, "_bounded", bounded)
    for text, want in [("q^%d" % k, NCPolynomial.unit(qk)),
                       ("q^-%d" % k, NCPolynomial.unit(qk.inv())),
                       ("x^%d" % k, NCPolynomial.word(("x",) * k))]:
        calls.clear()
        assert parse(text, P) == want, text
        assert 0 < len(calls) <= 2 * k.bit_length(), text


def test_parse_nesting_cap(P):
    assert parse("(" * 50 + "x" + ")" * 50, P) == NCPolynomial.gen("x")
    with pytest.raises(ParseError):
        parse("(" * 30000 + "x" + ")" * 30000, P)
    with pytest.raises(ParseError):
        parse("-" * 30000 + "x", P)


def test_parse_term_cap(P):
    assert len(parse("(x+th)^16", P).t) == 2 ** 16 <= MAX_TERMS
    with pytest.raises(ParseError) as err:
        parse("(x+th)^17", P)
    assert err.value.offset == 6
    with pytest.raises(ParseError) as err:
        parse("(x+th)^9*(x+th)^9", P)  # 512 * 512 terms
    assert err.value.offset == 8


@pytest.mark.parametrize("text, offset", [
    ("(2^4999)^2*2^4001*2", 17),  # 2^14000: one bit too many, at the last *
    ("10^5000", 2),
    ("(2^5000)^2000", 8),  # refused at the third step, not the 2000th
    ("1/(2^4000+j)^2", 1),  # the norm of the divisor doubles its length
    ("9" * 5000, 0),  # more digits than Python converts
], ids=["one_bit_over", "power", "nested_power", "divisor", "literal"])
def test_parse_coefficient_cap(P, text, offset):
    assert parse("(2^4999)^2*2^4001", P) == NCPolynomial.unit(
        rational(2 ** (MAX_BITS - 1)))
    with pytest.raises(ParseError) as err:
        parse(text, P)
    assert err.value.offset == offset and "%d bits" % MAX_BITS in str(err.value)


def test_parse_scalar_rejects_generators():
    with pytest.raises(ParseError):
        parse_scalar("x + 1")
    assert parse_scalar("2 - j") == rational(2) - J


def test_print_parse_round_trip(P):
    rng = random.Random(3)
    for _ in range(15):
        nf = P.normal_form(random_element(P, rng, max_len=4))
        text = fa_str(nf, P.order.key)
        assert P.normal_form(parse(text, P)) == nf, text


# ---------------------------------------------------------------------------
# CLI.  cli.main runs in process where its output is the point; a child
# `python -m z3calc` runs where the process's own exit is: a hang or a
# crash it must not reach, argparse's SystemExit, the hash seed, and the
# environment.

def main_cli(capsys, *args, timeout=None):
    """(exit code, stdout, stderr) of cli.main(args).  An exception that
    escapes main would be a traceback in the shell, and fails the test;
    so does a main that runs past timeout seconds, stopped at the first
    bytecode after it."""
    def expire(signum, frame):
        raise TimeoutError("cli.main ran past %s s" % timeout)

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, timeout or 0)
    try:
        rc = cli.main(list(args))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    out, err = capsys.readouterr()
    return rc, out, err


def run_cli(*args, env=None, timeout=None):
    import os
    full = dict(os.environ)
    if env:
        full.update(env)
    return subprocess.run([sys.executable, "-m", "z3calc", *args],
                          capture_output=True, text=True, env=full,
                          timeout=timeout)


def test_cli_reduce_pinned_h_plane(capsys):
    rc, out, _ = main_cli(capsys, "reduce", "--preset", "h_plane", "x*th")
    assert rc == 0
    assert out == "th*x + h*x*x\n"


def test_cli_reduce_pinned_qjh_at_one(capsys):
    rc, out, _ = main_cli(capsys, "reduce", "--preset", "qjh_calculus",
                          "--q", "1", "th*dx")
    assert rc == 0
    assert out == "j*dx*th - j^2*h*dx*x\n"


@pytest.mark.parametrize("args, want", [
    (("--preset", "qjh_calculus", "--q", "1", "q*x"), "x\n"),
    (("--preset", "h_plane", "q*x*th"), "th*x + h*x*x\n"),
    (("--preset", "qjh_calculus", "q*x"), "q*x\n"),
])
def test_cli_reduce_reads_q_as_bound_value(capsys, args, want):
    assert main_cli(capsys, "reduce", *args) == (0, want, "")


def test_cli_reduce_pole_at_bound_q(capsys):
    rc, out, err = main_cli(capsys, "reduce", "--preset", "qjh_calculus",
                            "--q", "1", "1/(q-1)*x")
    assert (rc, out) == (2, "")
    assert "division by zero" in err


def test_cli_reduce_deterministic():
    # two processes, two hash seeds
    a = run_cli("reduce", "--preset", "qjh_calculus", "th*th*dx*x")
    b = run_cli("reduce", "--preset", "qjh_calculus", "th*th*dx*x")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_cli_reduce_json_schema(capsys):
    _, out, _ = main_cli(capsys, "reduce", "--preset", "h_plane",
                         "--format", "json", "x*th")
    doc = json.loads(out)
    assert doc["preset"] == "h_plane"
    assert doc["normal_form"] == "th*x + h*x*x"
    assert doc["terms"][0] == {"coeff": "1", "word": ["th", "x"]}


def test_cli_reduce_unicode(capsys):
    _, out, _ = main_cli(capsys, "reduce", "--preset", "h_plane",
                         "--unicode", "x*th")
    assert out == "θ*x + h*x*x\n"


def test_cli_verify_all_passes(capsys):
    rc, out, _ = main_cli(capsys, "verify", "--suite", "all")
    assert rc == 0
    doc = json.loads(out)
    assert doc["ok"] is True


def test_cli_pairs_census(capsys):
    _, out, _ = main_cli(capsys, "pairs", "--preset", "qjh_calculus")
    doc = json.loads(out)
    assert doc["pairs"] == doc["joinable"] > 50
    assert doc["unjoinable"] == []


def test_cli_presets_list(capsys):
    rc, out, _ = main_cli(capsys, "presets", "list")
    assert rc == 0
    lines = out.splitlines()
    names = [ln.split("\t")[0] for ln in lines]
    assert names == list(presets.PRESETS)
    assert all("rules" in ln for ln in lines)


def test_cli_presets_export_import(tmp_path, capsys):
    rc, out, _ = main_cli(capsys, "presets", "export", "qjh_calculus")
    assert rc == 0
    path = tmp_path / "qjh.json"
    path.write_text(out)
    rc2, out2, _ = main_cli(capsys, "presets", "import", str(path))
    assert rc2 == 0
    doc = json.loads(out2)
    assert doc["homogeneous"] and doc["oriented"]
    assert doc["rules"] == 36


def test_cli_presets_import_reads_utf8_under_ascii_locale(tmp_path):
    # JSON is UTF-8 whatever the locale: a generator named θ must import
    # under LC_ALL=C too
    text = presets.build("q_plane").dumps().replace('"th"', '"θ"')
    path = tmp_path / "greek.json"
    path.write_bytes(text.encode("utf-8"))
    r = run_cli("presets", "import", str(path), timeout=60,
                env={"PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0",
                     "LC_ALL": "C", "LANG": "C"})
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout) == {"name": "q_plane", "generators": 2,
                                    "rules": 2, "homogeneous": True,
                                    "oriented": True}


def test_cli_supergroup_checks(capsys):
    for check in ("comodule", "inverse", "sdet"):
        rc, out, _ = main_cli(capsys, "supergroup", "--check", check)
        assert rc == 0, check
        assert json.loads(out)["ok"] is True


def test_cli_sdet_pinned(capsys):
    _, out, _ = main_cli(capsys, "sdet")
    assert out == "g*b*dTinv*dTinv + dTinv*a + 2*j*h*b*dTinv\n"


def test_cli_exit_code_bad_input(capsys):
    assert main_cli(capsys, "reduce", "--preset", "nope", "x")[0] == 2
    assert main_cli(capsys, "verify", "--suite", "nope")[0] == 2
    assert main_cli(capsys, "reduce", "--preset", "h_plane", "x*(")[0] == 2
    rc, _, _ = main_cli(capsys, "reduce", "--preset", "qjh_calculus",
                        "--q", "0", "th*dx")
    assert rc == 2  # q = 0 hits the 1/q coefficients


def test_cli_deep_nesting_is_bad_input():
    r = run_cli("reduce", "--preset", "h_plane", "(" * 30000 + "x" + ")" * 30000)
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    assert r.stderr.startswith("error: ")


@pytest.mark.parametrize("args", [
    ("--preset", "q_plane", "x^1000000000"),
    ("--preset", "q_plane", "--q", "1", "th^99999999"),
    ("--preset", "q_plane", "q^-99999999"),
])
def test_cli_huge_exponent_is_bad_input(args):
    r = run_cli("reduce", *args, timeout=20)
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    assert r.stderr.startswith("error: exponent above")


def test_cli_power_of_sum_is_bad_input():
    r = run_cli("reduce", "--preset", "q_plane", "--q", "1", "(x+th)^22",
                timeout=20)
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    assert r.stderr.startswith("error: power of more than")


@pytest.mark.parametrize("expr", ["10^5000", "(2^5000)^2000", "9" * 5000],
                         ids=["power", "nested_power", "literal"])
def test_cli_long_coefficient_is_bad_input(capsys, expr):
    rc, _, err = main_cli(capsys, "reduce", "--preset", "q_plane", expr,
                          timeout=5)
    assert rc == 2
    assert err.startswith("error: ") and "bits" in err


@pytest.mark.parametrize("expr, offset", [
    ("x*" + "a" * 5000, 2), ("x^" + "a" * 5000, 2), ("x " + "9" * 5000, 2),
    ("x*(" + "b" * 5000, 3)], ids=["generator", "exponent", "trailing", "value"])
def test_cli_long_token_is_clipped(capsys, expr, offset):
    # the message gives the token's first 40 characters and its length
    rc, out, err = main_cli(capsys, "reduce", "--preset", "q_plane", expr)
    assert (rc, out) == (2, "")
    assert len(err) < 200 and err.endswith("(at byte %d)\n" % offset)
    assert "'%s'… of 5000 characters" % expr[offset:offset + 40] in err


@pytest.mark.parametrize("args, names", [
    (("reduce", "--preset", "p" * 10**5, "x"), "unknown preset 'p"),
    (("pairs", "--preset", "p" * 10**5), "unknown preset 'p"),
    (("presets", "export", "p" * 10**5), "unknown preset 'p"),
    (("verify", "--suite", "s" * 10**5), "unknown suite 's"),
    (("reduce", "--preset", "weyl", "--q", "x" * 10**5, "x"),
     "Invalid literal for Fraction: 'x"),
    (("reduce", "--preset", "weyl", "--q=" + " " * 10**5 + "1/0", "x"),
     "--q  "),
    # 1000^1405 has 14,002 bits; zero terms and spaces pad to 10,000
    (("reduce", "--preset", "q_plane", "--q", "1000",
      ("x^1405*th" + "+0*x" * 2497).ljust(10**4)), "x^1405*th+0*x"),
], ids=["reduce", "pairs", "export", "suite", "q_literal", "q_zero",
        "long_output"])
def test_cli_long_argument_is_clipped(capsys, args, names):
    # a preset, suite, q or expression from the command line is cut past
    # 40 characters
    rc, out, err = main_cli(capsys, *args)
    assert (rc, out) == (2, "")
    assert len(err.encode()) < 200 and err.startswith("error: " + names)
    assert "… of 10000" in err


def test_cli_prints_long_coefficient(capsys):
    got = main_cli(capsys, "reduce", "--preset", "q_plane", "2^5000",
                   timeout=5)
    assert got == (0, "%d\n" % 2 ** 5000, "")
    assert len(got[1]) == 1506 + 1


@pytest.mark.parametrize("fmt, n", [("text", 1405), ("text", 2000),
                                    ("json", 2000), ("latex", 2000)])
def test_cli_long_output_coefficient_is_bad_input(capsys, fmt, n):
    # x^n*th reduces to q^n*th*x^n: 1000^1405 has 14,002 bits, and
    # 1000^2000 more digits than Python converts to a string
    rc, out, err = main_cli(capsys, "reduce", "--preset", "q_plane", "--q",
                            "1000", "--format", fmt, "x^%d*th" % n,
                            timeout=20)
    assert (rc, out) == (2, "")
    assert err.startswith("error: ")
    assert "longer than %d bits" % MAX_BITS in err


def test_cli_prints_output_coefficient_below_cap(capsys):
    # 1000^1404 has 13,992 bits
    rc, out, err = main_cli(capsys, "reduce", "--preset", "q_plane", "--q",
                            "1000", "x^1404*th", timeout=20)
    assert (rc, err) == (0, "")
    assert out == "%d*th%s\n" % (1000 ** 1404, "*x" * 1404)


def test_cli_bad_q_is_bad_input(capsys):
    rc, _, err = main_cli(capsys, "reduce", "--preset", "qjh_calculus",
                          "--q", "1/0", "x")
    assert rc == 2
    assert err.startswith("error: ")


@pytest.mark.parametrize("q", ["9" * 5000, "1e20000000"],
                         ids=["digits", "exponent"])
def test_cli_long_q_is_bad_input(q):
    # refused before the number is built: 10^20000000 would take a minute
    r = run_cli("reduce", "--preset", "q_plane", "--q", q, "x", timeout=5)
    assert (r.returncode, r.stdout) == (2, "")
    assert "Traceback" not in r.stderr
    assert r.stderr == ("error: --q: numerator or denominator longer than "
                        "%d bits\n" % MAX_BITS)


@pytest.mark.parametrize("q, want", [
    ("1", "th*x"), ("1000", "1000*th*x"), ("-2/3", "-2/3*th*x"),
    ("0.5", "1/2*th*x"), ("1e3", "1000*th*x"), ("1e4214", None),
    ("1e-4214", None)])
def test_cli_q_below_cap(capsys, q, want):
    # 10^4214 has 13,999 bits
    rc, out, err = main_cli(capsys, "reduce", "--preset", "q_plane",
                            "--q=" + q, "x*th")
    assert (rc, err) == (0, "")
    assert out == "%s\n" % (want or "%s*th*x" % Fraction(q))


@pytest.mark.parametrize("q, want", [("-2/3", "-2/3*th*x\n"),
                                     ("-1e-3", "-1/1000*th*x\n")])
def test_cli_negative_q_after_space(capsys, q, want):
    # argparse reads "-2/3" alone as an option; --q and it are joined
    for args in (("--q", q, "x*th"), ("x*th", "--q", q),
                 ("--q", q, "--", "x*th")):
        assert main_cli(capsys, "reduce", "--preset", "q_plane",
                        *args) == (0, want, "")
    assert main_cli(capsys, "reduce", "--preset", "q_plane", "--q", q,
                    "-x*th") == (0, want[1:], "")


@pytest.mark.parametrize("expr, want", [("-x*th", "-th*x - h*x*x\n"),
                                        ("-h*x", "-h*x\n"),
                                        ("-h", "-h\n")])
def test_cli_expression_may_start_with_minus(capsys, expr, want):
    assert main_cli(capsys, "reduce", "--preset", "h_plane", expr) == (
        0, want, "")
    rc, out, _ = main_cli(capsys, "reduce", "--preset", "h_plane", "--", expr)
    assert (rc, out) == (0, want)


def test_cli_reduce_help_is_long_form_only():
    r = run_cli("reduce", "--help")
    assert r.returncode == 0 and r.stdout.startswith("usage: z3calc reduce")


def test_cli_verify_usage_lists_the_suites():
    # in a fresh process, where nothing has loaded calculus beforehand;
    # argparse wraps the usage line to the terminal width
    usage = "usage: z3calc verify [-h] --suite " + "|".join(calculus.SUITE_NAMES)
    r = run_cli("verify")
    assert (r.returncode, r.stdout) == (2, "")
    assert " ".join(r.stderr.split()).startswith(usage + " z3calc verify: ")
    r = run_cli("verify", "--help")
    assert (r.returncode, r.stderr) == (0, "")
    assert " ".join(r.stdout.split()).startswith(usage + " options: ")
    assert r.stdout.rstrip().endswith(
        "--suite " + "|".join(calculus.SUITE_NAMES))


def test_cold_sdet_and_supergroup_load_no_calculus():
    # a cold process pays for every module it imports; these commands use
    # neither calculus nor dataclasses, which imports inspect and ast
    code = """if True:
        import contextlib, io, sys
        before = set(sys.modules)
        from z3calc.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            for args in (["sdet"], ["supergroup", "--check", "inverse"],
                         ["supergroup", "--check", "sdet"]):
                assert main(args) == 0, args
        print(*sorted(set(sys.modules) - before))
    """
    new = set(subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True).stdout.split())
    assert "z3calc.supergroup" in new
    assert not new & {"dataclasses", "inspect", "z3calc.calculus"}


def test_cli_exit_code_budget():
    r = run_cli("reduce", "--preset", "qjh_calculus", "th*th*dx*dx*x",
                env={"Z3CALC_STEP_BUDGET": "2"})
    assert r.returncode == 3


def test_cli_sdet_budget_does_not_depend_on_earlier_runs(capsys, monkeypatch):
    # an unbudgeted sdet leaves no memo behind for a budgeted one to find
    monkeypatch.setenv("Z3CALC_STEP_BUDGET", "50")
    first = main_cli(capsys, "sdet")
    assert first[:2] == (3, "") and "step budget exceeded" in first[2]
    monkeypatch.delenv("Z3CALC_STEP_BUDGET")
    assert main_cli(capsys, "sdet")[0] == 0
    monkeypatch.setenv("Z3CALC_STEP_BUDGET", "50")
    assert main_cli(capsys, "sdet") == first


def test_cli_budget_not_an_integer_is_bad_input():
    r = run_cli("reduce", "--preset", "h_plane", "x*th",
                env={"Z3CALC_STEP_BUDGET": "abc"})
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    assert r.stderr.startswith("error: ") and "Z3CALC_STEP_BUDGET" in r.stderr


@pytest.mark.parametrize("raw,shown", [
    ("abc", "'abc'"),
    ("", "''"),
    ("x" * 100000, "'%s'… of 100000 characters" % ("x" * 40)),
], ids=["letters", "empty", "long"])
def test_cli_budget_not_an_integer_in_process(capsys, monkeypatch, raw, shown):
    monkeypatch.setenv("Z3CALC_STEP_BUDGET", raw)
    rc, out, err = main_cli(capsys, "reduce", "--preset", "q_plane", "x*th")
    assert (rc, out) == (2, "")
    assert err == "error: Z3CALC_STEP_BUDGET=%s is not an integer\n" % shown


def _tiny(change):
    """A valid one-generator preset document, then change(doc) applied."""
    doc = {"name": "tiny", "generators": [{"name": "a", "grade": 0, "weight": 1}],
           "rules": [{"lhs": ["a", "a", "a"], "rhs": [], "ref": "a3"}],
           "order": {"weights": {"a": 1}, "precedence": ["a"]}}
    change(doc)
    return doc


@pytest.mark.parametrize("doc, message", [
    ({"name": "bad", "generators": [{"name": "a", "grade": 0, "weight": 1}],
      "rules": [{"lhs": [], "rhs": [], "ref": "empty"}],
      "order": {"weights": {"a": 1}, "precedence": ["a"]}}, "empty"),
    (["not", "a", "preset"], "JSON object"),
    ({"name": "bad", "generators": [{"name": "a", "grade": 0, "weight": 1}],
      "rules": [{"lhs": ["a", "zz"], "rhs": [], "ref": "stray"}],
      "order": {"weights": {"a": 1}, "precedence": ["a"]}}, "stray"),
    (_tiny(lambda d: d.update(name={"x": [1, 2]})), "name string"),
    (_tiny(lambda d: d["rules"][0].update(ref=[3])), "ref is not a string"),
    (_tiny(lambda d: d["generators"][0].update(nilpotency=[[1]])),
     "nilpotency"),
    (_tiny(lambda d: d["generators"][0].update(d_image={"a": "a"})),
     "d_image"),
    (_tiny(lambda d: d["order"]["weights"].update(zz=[[[]]])),
     "each generator once"),
])
def test_cli_presets_import_rejects_malformed(tmp_path, capsys, doc, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    rc, _, err = main_cli(capsys, "presets", "import", str(path))
    assert rc == 2
    assert err.startswith("error: ") and message in err


def _import_h_plane(tmp_path, capsys, change, timeout=None):
    """main_cli of presets import on the h_plane export with change(doc)
    applied."""
    doc = json.loads(presets.build("h_plane").dumps())
    change(doc)
    path = tmp_path / "h_plane.json"
    path.write_text(json.dumps(doc))
    return main_cli(capsys, "presets", "import", str(path), timeout=timeout)


@pytest.mark.parametrize("q", ["1e20000000", "1e100000"])
def test_cli_import_long_q_is_bad_input(tmp_path, capsys, q):
    # a preset file's q is held to the bound of --q, before it is built
    rc, out, err = _import_h_plane(tmp_path, capsys,
                                   lambda d: d.update(q=q), timeout=1)
    assert (rc, out) == (2, "")
    assert err == ("error: q must be \"symbolic\" or a rational: q: numerator "
                   "or denominator longer than %d bits\n" % MAX_BITS)


def test_cli_presets_import_rejects_zero_weight(tmp_path, capsys):
    rc, out, err = _import_h_plane(
        tmp_path, capsys, lambda d: d["order"]["weights"].update(x=0))
    assert (rc, out) == (2, "")
    assert err == "error: generator 'x' needs a positive integer weight\n"


def test_cli_presets_import_reports_inhomogeneous(tmp_path, capsys):
    def add_x(doc):  # x*th -> th*x + h*x*x + x
        rule = doc["rules"][0]
        assert rule["ref"] == "plane:xth"
        rule["rhs"].append({"coeff": "1", "word": ["x"]})

    rc, out, err = _import_h_plane(tmp_path, capsys, add_x)
    assert (rc, err) == (1, "")
    assert json.loads(out)["homogeneous"] is False


def test_cli_presets_import_without_rules(tmp_path, capsys):
    # a presentation that declares no rules still builds
    rc, out, err = _import_h_plane(tmp_path, capsys,
                                   lambda d: d.update(rules=[]))
    assert (rc, err) == (0, "")
    assert json.loads(out)["rules"] == 0


@pytest.mark.parametrize("text, message", [
    # decoded under the recursion limit rewrite used to raise, this
    # overflowed the C stack (SIGSEGV) before the nesting bound
    ("[" * 100000, "nested deeper"),
    # an unterminated string at every quote: the nesting scan must stay
    # linear in the length of the file
    ('"\\' * 200000, "Unterminated string"),
], ids=["deep", "unterminated"])
def test_cli_presets_import_huge_bad_json(tmp_path, text, message):
    path = tmp_path / "bad.json"
    path.write_text(text)
    r = run_cli("presets", "import", str(path), timeout=20)
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    assert r.stderr.startswith("error: ") and message in r.stderr


@pytest.mark.parametrize("depth, message", [
    (100, "a preset is a JSON object"), (101, "nested deeper than 100")])
def test_cli_presets_import_nesting_bound(tmp_path, capsys, depth, message):
    # in process: 100 nested arrays are decoded, and from_json refuses the
    # result; one more is refused before decoding
    path = tmp_path / "deep.json"
    path.write_text("[" * depth + "]" * depth)
    rc, out, err = main_cli(capsys, "presets", "import", str(path))
    assert (rc, out) == (2, "")
    assert err.startswith("error: ") and message in err
