"""Free algebra layer: words, polynomials, homomorphisms."""

import random

from z3calc.freealg import NCPolynomial, apply_hom, fa_str, word_grade
from z3calc.scalars import J, J2, ONE, Q, rational
from z3calc import presets


def test_word_concatenation():
    x = NCPolynomial.gen("x")
    th = NCPolynomial.gen("th")
    p = x * th * x
    assert list(p.support()) == [("x", "th", "x")]
    assert p.coeff(("x", "th", "x")) == ONE


def test_zero_coefficients_dropped():
    x = NCPolynomial.gen("x")
    p = x - x
    assert p.is_zero()
    assert not p.t
    assert (x.scale(J) + x.scale(J2) + x).is_zero()  # (1+j+j^2) x = 0
    # a product whose terms cancel stores no zero: the two x*th*th go
    th = NCPolynomial.gen("th")
    p = (x + x * th) * (th - th * th)
    assert p.t == {("x", "th"): ONE, ("x", "th", "th", "th"): -ONE}


def test_unit_and_scalar_absorption():
    one = NCPolynomial.unit()
    x = NCPolynomial.gen("x")
    assert one * x == x == x * one
    assert NCPolynomial.unit(J) * x == x.scale(J)


def test_noncommutativity():
    x, th = NCPolynomial.gen("x"), NCPolynomial.gen("th")
    assert x * th != th * x


def test_distributivity_random():
    rng = random.Random(7)
    letters = ["x", "th", "h"]

    def rand_poly():
        out = NCPolynomial.zero()
        for _ in range(3):
            w = tuple(rng.choice(letters) for _ in range(rng.randint(0, 3)))
            out = out + NCPolynomial.word(w, rational(rng.randint(-2, 2)))
        return out

    for _ in range(20):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)


def test_word_grade_effective_weights():
    gens = presets.build("qjh_calculus").gens
    # h is the one letter whose commutation weight differs from its grade
    assert gens["h"].grade == 2
    assert gens["h"].weight == 1
    assert word_grade(("h",), gens) == 1
    assert word_grade(("th", "x"), gens) == 1
    assert word_grade(("th", "th", "h"), gens) == 0
    assert word_grade((), gens) == 0


def test_apply_hom_is_multiplicative():
    x, th, h = (NCPolynomial.gen(n) for n in ("x", "th", "h"))
    sigma = {"x": x + th, "th": th.scale(J), "h": h}
    a = x * th + h.scale(J2)
    b = th * x
    assert apply_hom(sigma, a * b) == apply_hom(sigma, a) * apply_hom(sigma, b)
    assert apply_hom(sigma, a + b) == apply_hom(sigma, a) + apply_hom(sigma, b)


def test_fa_str_basics():
    x = NCPolynomial.gen("x")
    assert fa_str(NCPolynomial.zero()) == "0"
    assert fa_str(x.scale(-ONE)) == "-x"
    assert fa_str(NCPolynomial.word(("x", "x"), J)) == "j*x*x"


def test_fa_str_groups_composite_coefficients():
    p = NCPolynomial.word(("x",), J2 - ONE)  # = -(1 - j^2) as a prefix
    s = fa_str(p)
    assert s == "-(1 - j^2)*x"


def test_fa_str_q_coefficients():
    p = NCPolynomial.word(("x",), Q.inv() * J)
    assert fa_str(p) == "j/q*x"


def test_polynomial_repr():
    assert repr(NCPolynomial.word(("x", "th"), J)) == "NCPolynomial(j*x*th)"
    assert repr(NCPolynomial()) == "NCPolynomial(0)"
