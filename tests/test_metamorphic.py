"""Metamorphic relations: two runs of the engine on transformed inputs
must agree, so these need no reference output.

Specialization: with q bound to q0 by Presentation.specialize(q0), the
normal form and d commute with q -> q0.  Conjugation: j -> j^2 is a field
automorphism of Q(j), so conjugating every coefficient of the rules and
of the element conjugates the normal form.  Grading: where every rule
keeps a weight on the letters, scaling each word w by lam^wt(w) scales
the normal form the same way, and on the calculi d too.

On the confluent presets every strategy gives the one normal form, so
both relations hold whatever steps the two runs take.  cartan, weyl and
the other presets reduce leftmost, by the first-declared rule; there the
relations hold only because both runs take the same steps: each step
depends on the words alone, and a coefficient is zero in one run exactly
when it is zero in the other, or, after q -> q0, where it only drops a
term that contributes nothing.  weyl and cartan keep neither the
weights of their term order nor the grading of the calculi, so the
grading relation leaves them out.
"""

import functools
import random
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from z3calc import presets  # noqa: E402
from z3calc.calculus import DifferentialOperator  # noqa: E402
from z3calc.freealg import NCPolynomial  # noqa: E402
from z3calc.rewrite import Presentation, RewriteRule  # noqa: E402
from z3calc.scalars import (J, P_ONE, ZERO, jpow, qpow,  # noqa: E402
                            rational, specialize_q)

# deterministic and small: these run inside the tier-1 suite
quick = settings(max_examples=8, deadline=None, derandomize=True)
seeds = st.integers(0, 2**32 - 1)

# Every rule coefficient of these presets is q^e times a polynomial in q
# (its denominator is 1, checked below), and reduction and d only add and
# multiply, so every coefficient they produce has a pole at q = 0 at most.
# These q0 are nonzero, so none is a pole; q = 1 is pinned elsewhere.
Q0S = [Fraction(2), Fraction(-3), Fraction(1, 2), Fraction(5, 7)]


@functools.cache
def _preset(name):
    return presets.build(name)


@functools.cache
def _specialized(name, q0):
    return _preset(name).specialize(q0)


@functools.cache
def _conjugated(name):
    P = _preset(name)
    return Presentation(P.name, P.generators,
                        [RewriteRule(r.lhs, _conj_poly(r.rhs), r.ref)
                         for r in P.rules], P.order, q=P.q)


def _element(P, rng, letters):
    """A random sum of four words of up to five of letters, each with a
    coefficient c * j^k * q^e, e in -1..1, as bound in P."""
    out = NCPolynomial.zero()
    for _ in range(4):
        word = tuple(rng.choice(letters) for _ in range(rng.randint(0, 5)))
        c = (rational(rng.choice([1, 2, 3, -1, -2])) * jpow(rng.randint(0, 2))
             * qpow(rng.randint(-1, 1)))
        if P.q != "symbolic":
            c = specialize_q(c, P.q)
        out = out + NCPolynomial.word(word, c)
    return out


def _at(p, q0):
    return NCPolynomial({w: specialize_q(c, q0) for w, c in p.t.items()})


def _conj_dense(coeffs):
    """The conjugate of the polynomial in q with the QJ coefficients
    coeffs: a + b*j -> a + b*j^2 = (a - b) - b*j, so QJ(a, b) goes to
    QJ(a - b, -b)."""
    return sum(((rational(c.a - c.b) + rational(-c.b) * J) * qpow(k)
                for k, c in enumerate(coeffs)), ZERO)


def _conj(s):
    """The scalar q^e * n/d with every QJ coefficient conjugated."""
    return qpow(s.e) * _conj_dense(s.n.c) * _conj_dense(s.d.c).inv()


def _conj_poly(p):
    return NCPolynomial({w: _conj(c) for w, c in p.t.items()})


SPECIALIZED = ["q_plane", "qjh_calculus", "cartan", "weyl"]


@pytest.mark.parametrize("name", SPECIALIZED)
def test_rule_coefficients_have_no_pole_off_zero(name):
    assert all(c.d == P_ONE for r in _preset(name).rules
               for c in r.rhs.t.values())


@pytest.mark.parametrize("name", SPECIALIZED)
@pytest.mark.parametrize("q0", Q0S, ids=str)
@quick
@given(seeds)
def test_normal_form_commutes_with_specialization(name, q0, seed):
    P, S = _preset(name), _specialized(name, q0)
    p = _element(P, random.Random(seed), [g.name for g in P.generators])
    assert _at(P.normal_form(p), q0) == S.normal_form(_at(p, q0))


@pytest.mark.parametrize("name", SPECIALIZED)
@pytest.mark.parametrize("q0", Q0S, ids=str)
@quick
@given(seeds)
def test_d_commutes_with_specialization(name, q0, seed):
    # d is defined on the letters that have a d image
    P, S = _preset(name), _specialized(name, q0)
    letters = [g.name for g in P.generators if g.d_image is not None]
    p = _element(P, random.Random(seed), letters)
    d, dS = DifferentialOperator(P), DifferentialOperator(S)
    assert _at(d(p), q0) == dS(_at(p, q0))


def test_conjugation_is_the_automorphism():
    # j -> j^2 fixes 1 and q, sends j to j^2, and respects + and *
    x, y = rational(3) * J * qpow(2), rational(2) + J
    assert _conj(J) == jpow(2) and _conj(qpow(-1)) == qpow(-1)
    assert _conj(x * y.inv()) == _conj(x) * _conj(y).inv()
    assert _conj(x + y) == _conj(x) + _conj(y)
    assert _conj(_conj(x)) == x


@pytest.mark.parametrize("name", ["qjh_calculus", "h_plane", "glhj",
                                  "cartan", "weyl", "coaction_plane"])
@quick
@given(seeds)
def test_normal_form_commutes_with_conjugation(name, seed):
    P, C = _preset(name), _conjugated(name)
    p = _element(P, random.Random(seed), [g.name for g in P.generators])
    assert _conj_poly(P.normal_form(p)) == C.normal_form(_conj_poly(p))


# th, dth and d2th weigh 2 and every other letter 1: the calculi's rules
# keep this grading, and so does d, which sends x -> dx -> d2x and
# th -> dth -> d2th; the weights of their term order give dth and d2th 5
CALCULI = ["qjh_calculus", "hj_calculus"]
GRADED = ["q_plane", "h_plane", "glhj", "dual_plane", "coaction_plane",
          "coaction_dual"] + CALCULI
LAMS = [Fraction(2), Fraction(-3), Fraction(1, 2)]


def _weights(name):
    weights = _preset(name).order.weights
    if name in CALCULI:
        return {g: 2 if g in ("th", "dth", "d2th") else 1 for g in weights}
    return weights


def _scaled(p, weights, lam):
    """sigma_lam(p): each word w of p scaled by lam^wt(w)."""
    return NCPolynomial({w: c * rational(lam ** sum(weights[g] for g in w))
                         for w, c in p.t.items()})


@pytest.mark.parametrize("name", GRADED)
def test_rules_keep_the_grading(name):
    weights = _weights(name)
    assert all(sum(weights[g] for g in w) == sum(weights[g] for g in r.lhs)
               for r in _preset(name).rules for w in r.rhs.t)


@pytest.mark.parametrize("name", GRADED)
@pytest.mark.parametrize("lam", LAMS, ids=str)
@quick
@given(seeds)
def test_normal_form_commutes_with_grading(name, lam, seed):
    P, weights = _preset(name), _weights(name)
    p = _element(P, random.Random(seed), [g.name for g in P.generators])
    assert _scaled(P.normal_form(p), weights, lam) == \
        P.normal_form(_scaled(p, weights, lam))


@pytest.mark.parametrize("name", CALCULI)
@pytest.mark.parametrize("lam", LAMS, ids=str)
@quick
@given(seeds)
def test_d_commutes_with_grading(name, lam, seed):
    P, weights = _preset(name), _weights(name)
    letters = [g.name for g in P.generators if g.d_image is not None]
    p = _element(P, random.Random(seed), letters)
    d = DifferentialOperator(P)
    assert _scaled(d(p), weights, lam) == d(_scaled(p, weights, lam))
