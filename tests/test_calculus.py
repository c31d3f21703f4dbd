"""Differential operator, partial derivatives, replay suites."""

import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from z3calc import calculus, presets
from z3calc.calculus import (DifferentialOperator, PartialOperator,
                             cartan_forms, cartan_verify, d2_product_identity,
                             d_cube_vanishes, monomial_basis, random_element,
                             replay, verify_df_decomposition)
from z3calc.freealg import NCPolynomial, fa_str, word_grade
from z3calc.rewrite import Presentation, RewriteRule
from z3calc.scalars import J, J2, ONE, Q, jpow, specialize_q


@pytest.fixture(scope="module")
def P():
    return presets.build("qjh_calculus")


def test_d_images(P):
    d = DifferentialOperator(P)
    gen = NCPolynomial.gen
    assert d(gen("x")) == gen("dx")
    assert d(gen("th")) == gen("dth")
    assert d(gen("dx")) == gen("d2x")
    assert d(gen("dth")) == gen("d2th")
    assert d(gen("h")).is_zero()
    assert d(gen("d2x")).is_zero()
    assert d(gen("d2th")).is_zero()


def test_operators_name_a_letter_they_do_not_reach():
    # weyl's partial letters have no d image and no row of their own
    W = presets.build("weyl")
    px = NCPolynomial.gen("px")
    with pytest.raises(KeyError, match="d undefined on generator 'px'"):
        DifferentialOperator(W)(px)
    with pytest.raises(KeyError, match="undefined past generator 'px'"):
        PartialOperator(W)("x", px)


def test_d_squared_not_zero(P):
    d = DifferentialOperator(P)
    d2x = d(d(NCPolynomial.gen("x")))
    assert d2x == NCPolynomial.gen("d2x")
    assert not P.normal_form(d2x).is_zero()


def test_d_cubed_on_letters(P):
    d = DifferentialOperator(P)
    for name in P.gens:
        assert d(d(d(NCPolynomial.gen(name)))).is_zero()


def test_twisted_leibniz(P):
    d = DifferentialOperator(P)
    for wa in (("x",), ("th",), ("x", "th"), ("h", "x")):
        for wb in (("x",), ("th", "x"), ("dx",)):
            a, b = NCPolynomial.word(wa), NCPolynomial.word(wb)
            tw = jpow(word_grade(wa, P.gens))
            lhs = d(a * b, reduce=False)
            rhs = d(a, reduce=False) * b + (a * d(b, reduce=False)).scale(tw)
            assert P.normal_form(lhs - rhs).is_zero(), (wa, wb)


def test_iterated_leibniz(P):
    for wa in (("x",), ("th",), ("x", "x"), ("th", "x"), ("h", "th")):
        for wb in (("x",), ("th",), ("x", "th")):
            assert d2_product_identity(P, wa, wb), (wa, wb)


def test_d_cube_randomized(P):
    rng = random.Random(11)
    for _ in range(25):
        assert d_cube_vanishes(P, random_element(P, rng, max_len=4))


def test_random_element_follows_preset_q():
    """On a preset bound to q = 1 no coefficient carries a power of q."""
    P1 = presets.build("hj_calculus")
    rng = random.Random(5)
    coeffs = [c for _ in range(20)
              for c in random_element(P1, rng).t.values()]
    assert coeffs and all(c == specialize_q(c, 1) for c in coeffs)


def test_partial_basics(P):
    part = PartialOperator(P)
    gen, word = NCPolynomial.gen, NCPolynomial.word
    assert part("x", gen("x")) == NCPolynomial.unit()
    assert part("x", gen("th")).is_zero()
    assert part("th", gen("th")) == NCPolynomial.unit()
    assert part("th", gen("x")).is_zero()
    # the x-recursion twists by j per step: (1 + j^2) x = -j x
    assert part("x", word(("x", "x"))) == gen("x").scale(ONE + J2)
    assert part("th", word(("th", "x"))) == gen("x")


def test_partial_follows_preset_q(P):
    # a q = 1 preset gets q = 1 rows: no symbolic q leaks into its results
    f = NCPolynomial.word(("x", "th", "x"))
    sym = PartialOperator(P)("th", f)
    at_one = NCPolynomial({w: specialize_q(c, Fraction(1))
                           for w, c in sym.t.items()})
    assert sym != at_one
    assert PartialOperator(presets.build("hj_calculus"))("th", f) == at_one


def reference_partial(op, axis, word):
    """The partial along axis of word by recursion on its first letter,
    each row recomputing the partial of the rest."""
    if not word:
        return NCPolynomial.zero()
    g, rest = word[0], word[1:]
    table = op.rows[axis]
    if g not in table:
        raise KeyError("partial derivative undefined past generator %r" % g)
    out = NCPolynomial.zero()
    for c, prefix, nxt in table[g]:
        if nxt is None:
            out = out + NCPolynomial.word(prefix + rest, c)
        else:
            tail = reference_partial(op, nxt, rest)
            if not tail.is_zero():
                out = out + NCPolynomial.word(prefix, c) * tail
    return out


@pytest.mark.parametrize("name, flipped", [("qjh_calculus", False),
                                           ("hj_calculus", False),
                                           ("qjh_calculus", True),
                                           ("hj_calculus", True)])
def test_partial_matches_reference(name, flipped):
    pres = presets.build(name)
    # the flipped rows are the ones _suite_partials pins as wrong
    op = PartialOperator(pres,
                         rows=calculus._flipped_rows() if flipped else None)
    if pres.q != "symbolic":  # rows given or not follow the bound q
        assert all(specialize_q(c, 2) == c for table in op.rows.values()
                   for rr in table.values() for c, _, _ in rr)
    letters = sorted(calculus._PARTIAL_LETTERS)
    rng = random.Random(11)
    for _ in range(150):
        word = tuple(rng.choice(letters) for _ in range(rng.randint(0, 8)))
        for axis in ("x", "th"):
            got = op(axis, NCPolynomial.word(word), reduce=False)
            want = reference_partial(op, axis, word)
            # the same terms in the same order
            assert list(got.t.items()) == list(want.t.items()), (axis, word)
    for axis in ("x", "th"):
        with pytest.raises(KeyError):
            op(axis, NCPolynomial.word(("x", "d2x")), reduce=False)


@pytest.mark.parametrize("name, digest", [
    ("qjh_calculus",
     "d59d9a8fe2c88d46073ca8c03de36aec289060625e5c22a39b0016aa51776df6"),
    ("hj_calculus",
     "2f9a3dcb11e042801e3a26fe85d27b0d9168df99e9982e56d8aa12af72b93a2f"),
])
def test_partial_images_pinned(name, digest):
    # every row coefficient, the form rows' included, exactly: the
    # unreduced partials of all words of length <= 3 along both axes
    P = presets.build(name)
    part = PartialOperator(P)
    letters = sorted(calculus._PARTIAL_LETTERS)
    lines = []
    for n in range(4):
        for word in itertools.product(letters, repeat=n):
            for axis in ("x", "th"):
                got = part(axis, NCPolynomial.word(word), reduce=False)
                lines.append("%s %s: %s" % (axis, "*".join(word) or "1",
                                            fa_str(got, P.order.key)))
    assert len(lines) == 312
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == digest


def test_partial_of_long_word_under_default_limit(default_recursion_limit):
    pres = presets.build("hj_calculus")
    word = NCPolynomial.word(("x",) * 1500 + ("th",))
    got = PartialOperator(pres)("th", word, reduce=False)
    assert got == NCPolynomial.word(("x",) * 1500)


def test_partial_exchange_sample(P):
    part = PartialOperator(P)
    for m in (("x", "x"), ("th", "x"), ("h", "th", "x", "x")):
        f = NCPolynomial.word(m)
        lhs = part("x", part("th", f, reduce=False), reduce=False)
        rhs = part("th", part("x", f, reduce=False), reduce=False).scale(J * Q)
        assert P.normal_form(lhs - rhs).is_zero(), m


def test_partial_th_cube_sample(P):
    part = PartialOperator(P)
    f = NCPolynomial.word(("th", "th", "x", "x"))
    assert part("th", part("th", part("th", f))).is_zero()


def test_df_decomposition_sample(P):
    for m in (("x",), ("th", "x"), ("h", "th", "x"), ("th", "th", "x", "x")):
        assert verify_df_decomposition(P, NCPolynomial.word(m)), m


def test_monomial_basis_extent():
    basis = list(monomial_basis())
    assert len(basis) == 3 * 3 * 7
    assert ("h", "h", "th", "th") + ("x",) * 6 in basis


def test_cartan_forms_are_localized_words():
    forms = cartan_forms()
    assert list(forms["w"].support()) == [("dx", "xinv")]
    assert set(forms["u"].support()) == {("dth", "xinv"),
                                         ("dx", "xinv", "th", "xinv")}


def test_cartan_verify():
    out = cartan_verify()
    assert out["ok"] if "ok" in out else all(
        c["status"] == "pass" for c in out["checks"])
    names = {c["name"] for c in out["checks"]}
    assert "d2_w_vanishes" in names and "d2_u_vanishes" in names
    assert "substituted_w3" in names


def test_replay_each_suite():
    for name in calculus.SUITE_NAMES:
        out = replay(name)
        assert out["ok"], name
        assert out["checks"]


def test_replay_unknown():
    with pytest.raises(KeyError):
        replay("nope")


def test_replay_all_prefixes_names():
    out = replay("all")
    assert out["ok"]
    assert any(c["name"].startswith("partials.") for c in out["checks"])
    assert any(c["name"].startswith("weyl.") for c in out["checks"])


@pytest.mark.parametrize("factor", [Q, J], ids=["q", "j"])
@pytest.mark.parametrize("suite, ref", [  # plane:th3 has no rhs to scale
    (suite, ref) for suite, pairs in calculus._D_SUITES.items()
    for _, ref in pairs if ref != "plane:th3"])
def test_replay_catches_mutated_rule(monkeypatch, suite, ref, factor):
    # the suites read their relations from the preset, so a preset rule
    # whose first rhs coefficient is off by a factor must fail its suite
    original = presets.qjh_calculus

    def mutated():
        P = original()
        rules = []
        for r in P.rules:
            if r.ref == ref:
                (word, c), *rest = r.rhs.t.items()
                r = RewriteRule(r.lhs, NCPolynomial({word: c * factor,
                                                     **dict(rest)}), ref)
            rules.append(r)
        return Presentation(P.name, P.generators, rules, P.order, q=P.q)

    monkeypatch.setattr(presets, "qjh_calculus", mutated)
    assert replay(suite)["ok"] is False


@pytest.mark.parametrize("factor", [Q, J], ids=["q", "j"])
@pytest.mark.parametrize("ref, k", [  # each of the table's 19 coefficients
    (e[0], k) for e in presets.PARTIAL_RULES for k in range(len(e) - 2)])
def test_replay_catches_mutated_partial(monkeypatch, ref, k, factor):
    # the partials and weyl suites read one table, so a coefficient of it
    # off by a factor must fail one of them
    rules = []
    for e in presets.PARTIAL_RULES:
        if e[0] == ref:
            c, word = e[2 + k]
            e = e[:2 + k] + ((c * factor, word),) + e[3 + k:]
        rules.append(e)
    monkeypatch.setattr(presets, "PARTIAL_RULES", rules)
    assert replay("partials")["ok"] is False or replay("weyl")["ok"] is False
