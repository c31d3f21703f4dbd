"""Expression parser and the command line front end."""

import json
import random
import subprocess
import sys

import pytest

from z3calc import presets
from z3calc.calculus import random_element
from z3calc.freealg import NCPolynomial, fa_str
from z3calc.parser import (MAX_BITS, MAX_EXPONENT, MAX_TERMS, ParseError,
                           parse, parse_scalar)
from z3calc.scalars import J, J2, ONE, Q, rational


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


def test_parse_exponent_cap(P):
    assert parse("x^5000", P) == NCPolynomial.word(("x",) * 5000)
    with pytest.raises(ParseError) as err:
        parse("x^%d" % (MAX_EXPONENT + 1), P)
    assert err.value.offset == 2


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
# CLI, exercised through a subprocess like a user would

def run_cli(*args, env=None, timeout=None):
    import os
    full = dict(os.environ)
    if env:
        full.update(env)
    return subprocess.run([sys.executable, "-m", "z3calc", *args],
                          capture_output=True, text=True, env=full,
                          timeout=timeout)


def test_cli_reduce_pinned_h_plane():
    r = run_cli("reduce", "--preset", "h_plane", "x*th")
    assert r.returncode == 0
    assert r.stdout == "th*x + h*x*x\n"


def test_cli_reduce_pinned_qjh_at_one():
    r = run_cli("reduce", "--preset", "qjh_calculus", "--q", "1", "th*dx")
    assert r.returncode == 0
    assert r.stdout == "j*dx*th - j^2*h*dx*x\n"


def test_cli_reduce_deterministic():
    a = run_cli("reduce", "--preset", "qjh_calculus", "th*th*dx*x")
    b = run_cli("reduce", "--preset", "qjh_calculus", "th*th*dx*x")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_cli_reduce_json_schema():
    r = run_cli("reduce", "--preset", "h_plane", "--format", "json", "x*th")
    doc = json.loads(r.stdout)
    assert doc["preset"] == "h_plane"
    assert doc["normal_form"] == "th*x + h*x*x"
    assert doc["terms"][0] == {"coeff": "1", "word": ["th", "x"]}


def test_cli_reduce_unicode():
    r = run_cli("reduce", "--preset", "h_plane", "--unicode", "x*th")
    assert r.stdout == "θ*x + h*x*x\n"


def test_cli_verify_all_passes():
    r = run_cli("verify", "--suite", "all")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["ok"] is True


def test_cli_pairs_census():
    r = run_cli("pairs", "--preset", "qjh_calculus")
    doc = json.loads(r.stdout)
    assert doc["pairs"] == doc["joinable"] > 50
    assert doc["unjoinable"] == []


def test_cli_presets_list():
    r = run_cli("presets", "list")
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    names = [ln.split("\t")[0] for ln in lines]
    assert names == list(presets.PRESETS)
    assert all("rules" in ln for ln in lines)


def test_cli_presets_export_import(tmp_path):
    r = run_cli("presets", "export", "qjh_calculus")
    assert r.returncode == 0
    path = tmp_path / "qjh.json"
    path.write_text(r.stdout)
    r2 = run_cli("presets", "import", str(path))
    assert r2.returncode == 0
    doc = json.loads(r2.stdout)
    assert doc["homogeneous"] and doc["oriented"]
    assert doc["rules"] == 36


def test_cli_supergroup_checks():
    for check in ("comodule", "inverse", "sdet"):
        r = run_cli("supergroup", "--check", check)
        assert r.returncode == 0, check
        assert json.loads(r.stdout)["ok"] is True


def test_cli_sdet_pinned():
    r = run_cli("sdet")
    assert r.stdout == "g*b*dTinv*dTinv + dTinv*a + 2*j*h*b*dTinv\n"


def test_cli_exit_code_bad_input():
    assert run_cli("reduce", "--preset", "nope", "x").returncode == 2
    assert run_cli("verify", "--suite", "nope").returncode == 2
    assert run_cli("reduce", "--preset", "h_plane", "x*(").returncode == 2
    r = run_cli("reduce", "--preset", "qjh_calculus", "--q", "0", "th*dx")
    assert r.returncode == 2  # q = 0 hits the 1/q coefficients


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
def test_cli_long_coefficient_is_bad_input(expr):
    r = run_cli("reduce", "--preset", "q_plane", expr, timeout=5)
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    assert r.stderr.startswith("error: ") and "bits" in r.stderr


def test_cli_prints_long_coefficient():
    r = run_cli("reduce", "--preset", "q_plane", "2^5000", timeout=5)
    assert (r.returncode, r.stdout, r.stderr) == (0, "%d\n" % 2 ** 5000, "")
    assert len(r.stdout) == 1506 + 1


@pytest.mark.parametrize("fmt, n", [("text", 1405), ("text", 2000),
                                    ("json", 2000), ("latex", 2000)])
def test_cli_long_output_coefficient_is_bad_input(fmt, n):
    # x^n*th reduces to q^n*th*x^n: 1000^1405 has 14,002 bits, and
    # 1000^2000 more digits than Python converts to a string
    r = run_cli("reduce", "--preset", "q_plane", "--q", "1000", "--format",
                fmt, "x^%d*th" % n, timeout=20)
    assert (r.returncode, r.stdout) == (2, "")
    assert "Traceback" not in r.stderr
    assert r.stderr.startswith("error: ")
    assert "longer than %d bits" % MAX_BITS in r.stderr


def test_cli_prints_output_coefficient_below_cap():
    # 1000^1404 has 13,992 bits
    r = run_cli("reduce", "--preset", "q_plane", "--q", "1000", "x^1404*th",
                timeout=20)
    assert (r.returncode, r.stderr) == (0, "")
    assert r.stdout == "%d*th%s\n" % (1000 ** 1404, "*x" * 1404)


def test_cli_bad_q_is_bad_input():
    r = run_cli("reduce", "--preset", "qjh_calculus", "--q", "1/0", "x")
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    assert r.stderr.startswith("error: ")


@pytest.mark.parametrize("expr, want", [("-x*th", "-th*x - h*x*x\n"),
                                        ("-h*x", "-h*x\n"),
                                        ("-h", "-h\n")])
def test_cli_expression_may_start_with_minus(expr, want):
    r = run_cli("reduce", "--preset", "h_plane", expr)
    assert (r.returncode, r.stdout, r.stderr) == (0, want, "")
    r = run_cli("reduce", "--preset", "h_plane", "--", expr)
    assert (r.returncode, r.stdout) == (0, want)


def test_cli_reduce_help_is_long_form_only():
    r = run_cli("reduce", "--help")
    assert r.returncode == 0 and r.stdout.startswith("usage: z3calc reduce")


def test_cli_exit_code_budget():
    r = run_cli("reduce", "--preset", "qjh_calculus", "th*th*dx*dx*x",
                env={"Z3CALC_STEP_BUDGET": "2"})
    assert r.returncode == 3


def test_cli_budget_not_an_integer_is_bad_input():
    r = run_cli("reduce", "--preset", "h_plane", "x*th",
                env={"Z3CALC_STEP_BUDGET": "abc"})
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    assert r.stderr.startswith("error: ") and "Z3CALC_STEP_BUDGET" in r.stderr


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
def test_cli_presets_import_rejects_malformed(tmp_path, doc, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    r = run_cli("presets", "import", str(path))
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    assert r.stderr.startswith("error: ") and message in r.stderr


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
