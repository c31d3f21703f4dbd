"""Differential operator, partial derivatives, replay suites."""

import gc
import hashlib
import itertools
import json
import random
import re
import weakref
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from z3calc import calculus, parser, presets
from z3calc.calculus import (DifferentialOperator, PartialOperator,
                             cartan_forms, cartan_verify, d2_product_identity,
                             d_cube_vanishes, monomial_basis, random_element,
                             replay, verify_df_decomposition)
from z3calc.freealg import NCPolynomial, fa_str, word_grade
from z3calc.rewrite import (BudgetExceeded, Presentation, RewriteRule,
                            _leftmost)
from z3calc.scalars import J, J2, ONE, Q, ZERO, jpow, specialize_q


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


def test_reduce_sym_answers():
    # the known answers of the reduce-sym benchmark: every d(d(x^n*tail))
    # and the normal forms of x^n*tail for n <= 14, each in a fresh
    # qjh_calculus as the benchmark computes them
    path = Path(__file__).resolve().parents[1] / "bench" / "answers"
    answers = json.loads((path / "reduce_sym.json").read_text())
    checked = Counter()
    for key, want in answers.items():
        kind, expr = key.split(":", 1)
        if kind == "nf" and int(expr[2:expr.index("*")]) > 14:
            continue
        P = presets.build("qjh_calculus")
        w = parser.parse(expr, P)
        d = DifferentialOperator(P)
        out = P.normal_form(w) if kind == "nf" else d(d(w))
        assert fa_str(out, P.order.key) == want, key
        checked[kind] += 1
    assert checked == {"d2": 26, "nf": 18}


def test_readme_python_blocks_run():
    # every python block of README.md runs as written, so its library
    # sketch (normal_form, nf_word, d, part) keeps to the API
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", text, re.S | re.M)
    assert blocks
    for code in blocks:
        exec(compile(code, "README.md", "exec"), {})


def test_operators_name_a_letter_they_do_not_reach():
    # weyl's partial letters have no d image and no row of their own
    W = presets.build("weyl")
    px = NCPolynomial.gen("px")
    with pytest.raises(KeyError, match="d undefined on generator 'px'"):
        DifferentialOperator(W)(px)
    with pytest.raises(KeyError, match="undefined past generator 'px'"):
        PartialOperator(W)("x", px)
    # with unique normal forms d takes the Leibniz step, which checks the
    # letters of a word before it folds its suffixes
    doc = presets.build("q_plane").to_json()
    for g in doc["generators"]:
        if g["name"] == "th":
            del g["d_image"]
    plane = Presentation.from_json(doc)
    assert plane._unique_normal_forms()
    with pytest.raises(KeyError, match="d undefined on generator 'th'"):
        DifferentialOperator(plane)(NCPolynomial.word(("x", "th")))


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


def reference_d(op, p):
    """d of p by the product formula, one letter at a time: each term is
    c j^w(prefix) prefix * image * suffix, summed with NCPolynomial.__add__."""
    gens = op.preset.gens
    out = NCPolynomial.zero()
    for word, c in p.t.items():
        wsum = 0
        for i, name in enumerate(word):
            img = op.images.get(name)
            if img is None:
                raise KeyError("d undefined on generator %r" % name)
            pre = NCPolynomial.word(word[:i], c * jpow(wsum))
            out = out + pre * img * NCPolynomial.word(word[i + 1:])
            wsum += gens[name].weight
    return out


@pytest.mark.parametrize("name", ["qjh_calculus", "hj_calculus", "cartan"])
def test_d_matches_reference(name):
    pres = presets.build(name)
    images = None
    if name == "cartan":  # the multi-letter image cartan_verify uses
        images = {"xinv": NCPolynomial.word(("xinv", "dx", "xinv"), -ONE)}
    d = DifferentialOperator(pres, images=images)
    rng = random.Random(7)
    compared = 0
    for _ in range(150):
        p = random_element(pres, rng)
        # cartan's w and u have no image: d refuses them as the formula does
        defined = NCPolynomial({w: c for w, c in p.t.items()
                                if all(l in d.images for l in w)})
        if defined != p:
            with pytest.raises(KeyError) as want:
                reference_d(d, p)
            with pytest.raises(KeyError) as got:
                d(p, reduce=False)
            assert str(got.value) == str(want.value)
        got = d(defined, reduce=False)
        assert got.t == reference_d(d, defined).t, fa_str(defined)
        assert not any(c.is_zero() for c in got.t.values())
        compared += len(defined.t)
    assert compared > 300


def test_d_drops_cancelled_sums(P):
    gen, word = NCPolynomial.gen, NCPolynomial.word
    # d(x*th) = (x + dx)*th + j^w(x) x * (-j^-w(x) th): the x*th terms cancel
    w = P.gens["x"].weight
    d = DifferentialOperator(P, images={
        "x": gen("x") + gen("dx"), "th": gen("th", -jpow(2 * w))})
    got = d(word(("x", "th")), reduce=False)
    assert ("x", "th") not in got.t
    assert got == word(("dx", "th"))
    # the d2x sum runs 2, 0, 2 over the words of 2x - 2th + 2dx
    d = DifferentialOperator(P, images={l: gen("d2x") for l in ("x", "th", "dx")})
    two = ONE + ONE
    p = NCPolynomial({("x",): two, ("th",): -two, ("dx",): two})
    assert d(p, reduce=False).t == {("d2x",): two}


def _fresh(pres):
    return Presentation(pres.name, pres.generators, pres.rules, pres.order,
                        q=pres.q)


@pytest.mark.parametrize("name", ["qjh_calculus", "hj_calculus", "cartan"])
def test_d_cache_matches_reducing_the_image(name):
    # qjh_calculus and hj_calculus reduce suffix first, cartan leftmost;
    # cartan's d is the one cartan_verify builds, with its xinv image
    pres = presets.build(name)
    images = None
    if name == "cartan":
        images = {"xinv": NCPolynomial.word(("xinv", "dx", "xinv"), -ONE)}
    d = DifferentialOperator(pres, images=images)
    rng = random.Random(23)
    for _ in range(150):
        p = random_element(pres, rng)
        p = NCPolynomial({w: c for w, c in p.t.items()
                          if all(l in d.images for l in w)})
        # pres is shared, so its memo and d's cache are warm with the
        # earlier elements; the fresh presentation starts cold
        assert d(p) == pres.normal_form(d(p, reduce=False)), fa_str(p)
        fresh = _fresh(pres)
        cold = DifferentialOperator(fresh, images=images)
        assert cold(p) == fresh.normal_form(cold(p, reduce=False)), fa_str(p)
    if name == "cartan":
        # the default operator has its own image map: no image for xinv
        d(NCPolynomial.gen("xinv"))
        with pytest.raises(KeyError, match="'xinv'"):
            DifferentialOperator(pres)(NCPolynomial.gen("xinv"))


def test_operators_keep_their_own_caches(monkeypatch):
    # two operators with different image maps on one presentation, called
    # in alternation, each reduce by its own trie of NF(d(v)); a repeat
    # is a whole-word hit, which rewrites nothing, so a budget of 0 holds
    fresh = presets.build("qjh_calculus")
    gen = NCPolynomial.gen
    ops = [DifferentialOperator(fresh), DifferentialOperator(
        fresh, images={l: gen("d2x") for l in ("x", "th", "dx")})]
    rng = random.Random(39)
    for i in range(40):
        op = ops[i % 2]
        p = random_element(fresh, rng)
        p = NCPolynomial({w: c for w, c in p.t.items()
                          if all(l in op.images for l in w)})
        got = op(p)
        assert got == fresh.normal_form(op(p, reduce=False)), fa_str(p)
        monkeypatch.setenv("Z3CALC_STEP_BUDGET", "0")
        assert op(p) == got, fa_str(p)
        monkeypatch.delenv("Z3CALC_STEP_BUDGET")


def test_words_of_one_call_share_their_suffix_nodes():
    # x*th and h*th share the suffix th: the second frame walks on past
    # the node that the first one linked, so both words stay in the trie
    P = presets.build("qjh_calculus")
    d, code = DifferentialOperator(P), P._codes
    d(parser.parse("x*th + h*th", P))
    assert set(d._cache[0][0][code["th"]][0]) == {code["x"], code["h"]}


def test_d_charges_one_budget_per_call(monkeypatch):
    # in a fresh qjh_calculus, d(x^3*th) alone rewrites 14 words the memo
    # lacks and d(th*x^3) alone 2; reducing both images in one call, the
    # second after the first, rewrites 15 in all
    def d(expr):
        P = presets.build("qjh_calculus")
        return DifferentialOperator(P)(parser.parse(expr, P))

    monkeypatch.setenv("Z3CALC_STEP_BUDGET", "14")
    d("x^3*th")
    d("th*x^3")
    with pytest.raises(BudgetExceeded) as info:
        d("x^3*th + th*x^3")
    assert info.value.steps == 14
    monkeypatch.setenv("Z3CALC_STEP_BUDGET", "15")
    assert d("x^3*th + th*x^3") == d("x^3*th") + d("th*x^3")


@pytest.mark.parametrize("kind", ["d", "normal_form"])
@pytest.mark.parametrize("expr, budget", [
    ("x^3*th", 14), ("x^3*th + th*x^3", 15), ("x^2*dth + th*x*x", 17),
    ("x*th*dx + dx*th*x", 11), ("x^8*dth", 102), ("h*x*th", 3),
    ("d2x*x^4*th*dth", 138)])
def test_smallest_budget_of_d(kind, expr, budget, monkeypatch):
    # the smallest step budget under which the reduced d(p), or the normal
    # form of the unreduced d(p), succeeds on a fresh qjh_calculus: the
    # Leibniz step and the bottom frame of normal_form are charged alike
    def run(steps):
        P = presets.build("qjh_calculus")
        d, p = DifferentialOperator(P), parser.parse(expr, P)
        monkeypatch.setenv("Z3CALC_STEP_BUDGET", str(steps))
        if kind == "d":
            return d(p)
        return P.normal_form(d(p, reduce=False))

    with pytest.raises(BudgetExceeded):
        run(budget - 1)
    got = run(budget)
    P = presets.build("qjh_calculus")
    assert got == DifferentialOperator(P)(parser.parse(expr, P))


def _rewritten(P):
    """The reducible words in P's memo: the words its reductions rewrote."""
    return {w for w in P._memo if _leftmost(P._trie, w, 0, len(w))}


@pytest.mark.parametrize("name", ["qjh_calculus", "hj_calculus"])
def test_d_rewrites_the_words_reducing_each_image_rewrites(name):
    # the reduced d folds each missed word's suffixes onto cached normal
    # forms of theirs and of their images; it must reach the words that
    # reducing each missed word's whole image reaches, no more and no
    # fewer, call after call on one presentation.  Computing NF(v) for a
    # suffix g*v with d(g) = 0 would rewrite more (x*th in d(h*x*th))
    rng = random.Random(34)
    letters = [g.name for g in presets.build(name).generators]
    coeffs = [ONE, -ONE, J, Q]
    for _ in range(15):
        P = presets.build(name)
        ref = _fresh(P)
        d, dref = DifferentialOperator(P), DifferentialOperator(ref)
        seen = set()
        for _ in range(4):
            p = NCPolynomial({
                tuple(rng.choice(letters) for _ in range(rng.randint(1, 9))):
                rng.choice(coeffs) for _ in range(rng.randint(1, 3))})
            missed = [w for w in p.t if w not in seen]
            seen.update(missed)
            want = [ref.normal_form(dref(NCPolynomial.word(w), reduce=False))
                    for w in missed]
            got = d(p)
            assert _rewritten(P) == _rewritten(ref), fa_str(p)
            assert all(d(NCPolynomial.word(w)) == nf
                       for w, nf in zip(missed, want)), fa_str(p)
            assert got == ref.normal_form(dref(p, reduce=False)), fa_str(p)


@pytest.mark.parametrize("kind", ["d", "normal_form"])
def test_out_of_budget_reduction_leaves_no_partial_cache_entry(kind,
                                                               monkeypatch):
    # a reduction that runs out of budget part way keeps only whole normal
    # forms in the memo and in the caches beside it, so the same call
    # under a larger budget gives what a fresh presentation gives.  d
    # fills the suffix caches of its images and of words, the normal form
    # of a polynomial with lone words the latter
    def run(P):
        p = parser.parse("x^3*th*dx + th*x^2*dth + dx*x*th^2", P)
        if kind == "d":
            return DifferentialOperator(P)(p)
        return P.normal_form(DifferentialOperator(P)(p, reduce=False))

    want = run(presets.build("qjh_calculus"))
    for budget in itertools.count():
        P = presets.build("qjh_calculus")
        monkeypatch.setenv("Z3CALC_STEP_BUDGET", str(budget))
        try:
            run(P)
        except BudgetExceeded:
            monkeypatch.delenv("Z3CALC_STEP_BUDGET")
            assert run(P) == want, budget
        else:
            break
    assert budget > 20


def test_d_of_long_word_under_default_limit(default_recursion_limit):
    # the reduced d of x^1500*th folds its 1,501 suffixes in a loop
    P = presets.build("hj_calculus")
    w = parser.parse("x^1500*th", P)
    fresh = _fresh(P)
    assert DifferentialOperator(P)(w) == fresh.normal_form(
        DifferentialOperator(fresh)(w, reduce=False))


def test_checks_build_one_operator_per_presentation(monkeypatch):
    built = Counter()
    for cls in (DifferentialOperator, PartialOperator):
        def init(self, preset, *args, _init=cls.__init__, _cls=cls, **kw):
            built[_cls.__name__] += 1
            _init(self, preset, *args, **kw)
        monkeypatch.setattr(cls, "__init__", init)
    P = presets.build("qjh_calculus")
    f = NCPolynomial.word(("th", "x"))
    for _ in range(3):
        assert d_cube_vanishes(P, f)
        assert d2_product_identity(P, ("x",), ("th",))
        assert verify_df_decomposition(P, f)
    assert built == {"DifferentialOperator": 1, "PartialOperator": 1}
    assert d_cube_vanishes(presets.build("qjh_calculus"), f)
    assert built["DifferentialOperator"] == 2


def test_presentation_with_kept_operators_is_freed_when_dropped():
    # the kept operators refer back to the presentation through a proxy, so
    # dropping it frees its memo and caches without the cycle collector
    P = presets.build("qjh_calculus")
    f = NCPolynomial.word(("th", "x"))
    assert d_cube_vanishes(P, f) and verify_df_decomposition(P, f)
    ref = weakref.ref(P)
    gc.disable()
    try:
        del P
        assert ref() is None
    finally:
        gc.enable()


def test_partial_sums_words_like_add(P):
    # the partial of a sum is the sum of its words' partials, no zero kept
    part = PartialOperator(P)
    letters = sorted(calculus._PARTIAL_LETTERS)
    rng = random.Random(3)
    for _ in range(50):
        p = NCPolynomial.zero()
        for _ in range(4):
            w = tuple(rng.choice(letters) for _ in range(rng.randint(0, 4)))
            p = p + NCPolynomial.word(w, jpow(rng.randint(0, 2)))
        for axis in ("x", "th"):
            want = NCPolynomial.zero()
            for w, c in p.t.items():
                want = want + part(axis, NCPolynomial.word(w), reduce=False).scale(c)
            got = part(axis, p, reduce=False)
            assert got.t == want.t, (axis, fa_str(p))
            assert not any(c.is_zero() for c in got.t.values())


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


def test_partial_zero_and_cancelling_rows_match_reference():
    # no catalog row vanishes, so give rows that do: a zero coefficient on
    # a terminating row and on a recursing one, and for x along x two
    # th*rest terms that cancel before its other rows, after which a third
    # adds th*rest back, at the end
    rows = calculus._partial_rows()
    for axis, table in rows.items():
        for g, rr in table.items():
            table[g] = [(ZERO, ("h",), None), (ZERO, ("h",), "th")] + rr
    th = ("th",)
    rows["x"]["x"] = ([(J, th, None), (-J, th, None)] + rows["x"]["x"]
                      + [(J2, th, None)])
    for name in ("qjh_calculus", "hj_calculus"):
        op = PartialOperator(presets.build(name), rows=rows)
        letters = sorted(calculus._PARTIAL_LETTERS)
        rng = random.Random(13)
        for _ in range(150):
            word = tuple(rng.choice(letters) for _ in range(rng.randint(0, 6)))
            for axis in ("x", "th"):
                got = op(axis, NCPolynomial.word(word), reduce=False)
                want = reference_partial(op, axis, word)
                assert list(got.t.items()) == list(want.t.items()), (axis, word)


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
    checks = cartan_verify()
    assert all(c["status"] == "pass" for c in checks)
    names = {c["name"] for c in checks}
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


def test_replay_catches_mutated_q1_cartan_form(monkeypatch):
    # the hand q -> 1 transcription is compared with the specialized rules
    monkeypatch.setitem(calculus._Q1_CARTAN_RHS, "cartan:wh",
                        [(J * J, ("h", "w"))])
    out = replay("cartan")
    assert out["ok"] is False
    assert {"name": "q1_bullet_forms", "status": "fail",
            "witness": "cartan:wh"} in out["checks"]
