"""Exact arithmetic in Q(j)(q)."""

import random
from fractions import Fraction

import pytest

from z3calc import calculus, presets
from z3calc.scalars import (_MONOS, _QMAX, P_ONE, QJ, QJ_ONE, PoleError, J,
                            J2, ONE, Q, ZERO, jpow, qpow, rational,
                            scalar_str, specialize_q)
from z3calc.parser import parse, parse_scalar


def test_cube_root_relations():
    assert (J * J * J) == ONE
    assert (ONE + J + J2).is_zero()
    assert J * J == J2
    assert jpow(0) == ONE and jpow(1) == J and jpow(2) == J2
    assert jpow(5) == J2 and jpow(-1) == J2


def test_structural_identities():
    # 1 + 2j = j - j^2 and (1 - j)(1 - j^2) = 3
    assert ONE + rational(2) * J == J - J2
    assert (ONE - J) * (ONE - J2) == rational(3)
    assert (J - J2) * (J - J2) == rational(-3)


def test_field_axioms_spot():
    a = (ONE - J) * Q + J2
    b = qpow(2) - J * Q
    assert a + b == b + a
    assert a * b == b * a  # scalars commute even though words do not
    assert (a - a).is_zero()
    assert a * a.inv() == ONE
    assert (a * b) * b.inv() == a


def test_small_qj_values_are_shared():
    a, b = QJ(2, -1), QJ(1, 1)
    assert (a + b) is (b + a) is (QJ(4, 0) - QJ(1, 0)) is (-QJ(-3, 0))
    assert (a * b) is (b * a) is QJ(3, 2) * QJ_ONE
    assert QJ(2, 0) * QJ(8, 0) == QJ(16, 0)  # beyond the table: equal only
    half = QJ(Fraction(1, 2), 0)
    assert (half + half) == QJ_ONE and (half - half).is_zero()
    assert ONE * ONE is ONE and J * J2 is ONE


def test_small_monomials_are_shared():
    assert qpow(3) is qpow(3)
    assert J * qpow(-2) is qpow(-2) * J
    assert Q * Q is qpow(2) and qpow(_QMAX) is qpow(_QMAX - 1) * Q
    assert qpow(-_QMAX) is qpow(1 - _QMAX) * qpow(-1)
    assert (J * qpow(5) + J * qpow(5)) is (rational(2) * J) * qpow(5)
    assert (J * qpow(5) - J * qpow(5)) is ZERO
    assert qpow(_QMAX + 1) == Q * qpow(_QMAX)  # beyond the table: equal only


def _terms(p):
    return sum(1 for v in p.c if v)


def _shared(c):
    """c is the table's instance of its value: a one-term n over P_ONE,
    with |e| <= _QMAX and a coefficient of the shared grid."""
    if c.d is not P_ONE or len(c.n.c) != 1 or abs(c.e) > _QMAX:
        return False
    v = c.n.c[0]
    return c is _MONOS[c.e][v.a][v.b]


def test_random_element_coefficients_are_shared():
    P = presets.build("qjh_calculus")
    rng = random.Random(7)
    coeffs = [c for _ in range(40)
              for c in calculus.random_element(P, rng).t.values()]
    # words drawn twice add their coefficients, and c*q + c' is no
    # monomial; every other coefficient is shared
    monomials = [c for c in coeffs if _terms(c.num) == _terms(c.den) == 1]
    assert len(coeffs) > 120 and len(monomials) > 0.9 * len(coeffs)
    assert all(_shared(c) for c in monomials)


def test_monomials_have_one_entry():
    # the power of q lives in e, so q^30 or 1/q^5 is no padded tuple
    P = presets.build("qjh_calculus")
    nf = P.normal_form(parse("x^30*dth", P))
    monomials = [c for c in nf.t.values()
                 if _terms(c.num) == 1 and _terms(c.den) == 1]
    assert monomials and max(abs(c.e) for c in monomials) >= 16
    for c in monomials:
        assert len(c.n.c) == 1 and c.d is P_ONE


def _dense(num, den):
    """num/den for QJPoly num and den, built by public arithmetic alone:
    each side is the sum of its (a + b*j) * q^k, and the quotient is a
    product with an inverse."""
    def value(p):
        return sum(((rational(v.a) + rational(v.b) * J) * qpow(k)
                    for k, v in enumerate(p.c) if v), ZERO)
    return value(num) * value(den).inv()


def test_dense_pair_gives_the_q_degree():
    # len(num.c) - 1 and len(den.c) - 1 read the degree in q
    for k in range(40):
        assert len(qpow(k).num.c) - 1 == k and qpow(k).den is P_ONE
        assert len(qpow(-k).den.c) - 1 == k and qpow(-k).num.c == (QJ_ONE,)
        assert _dense(qpow(k).num, qpow(k).num) == ONE
        assert _dense(qpow(-k).num, qpow(-k).den) == qpow(-k)


def test_zero_has_no_inverse():
    with pytest.raises(ZeroDivisionError):
        ZERO.inv()


def test_rational_embedding():
    assert rational(Fraction(3, 4)) + rational(Fraction(1, 4)) == ONE
    assert rational(-2) * J2 == -(J2 + J2)


def test_qpow_negative():
    assert qpow(-1) * Q == ONE
    assert qpow(-3) * qpow(3) == ONE
    assert qpow(2) == Q * Q


def test_specialize_q():
    v = (qpow(2) - ONE) * (Q - ONE).inv()  # (q^2-1)/(q-1) = q+1 away from q=1
    assert specialize_q(v, 2) == rational(3)
    assert specialize_q(v, 1) == rational(2)  # removable singularity cancels
    assert specialize_q(J * Q, 1) == J


def test_specialize_pole():
    with pytest.raises(PoleError):
        specialize_q((Q - ONE).inv(), 1)
    with pytest.raises(PoleError):
        specialize_q(Q.inv(), 0)


def test_rational_function_cancellation():
    # equality must see through unreduced numerator/denominator pairs
    assert (qpow(2) - ONE) * (Q - ONE).inv() == Q + ONE
    assert (Q * J).inv() == qpow(-1) * J2


def test_scalar_str_round_trip():
    values = [
        ONE, J, J2, -J2, ZERO,
        J2 - ONE,            # prints with a parenthesized negative body
        ONE - J2,
        -(ONE + J),
        (J2 - ONE) * Q,
        (J2 - ONE) * Q.inv(),
        (ONE - J) * (ONE - J2),
        rational(Fraction(-3, 7)) * J + rational(2),
        (Q - ONE).inv() * J,
        qpow(2) * (J - J2) - qpow(-1),
    ]
    for v in values:
        assert parse_scalar(scalar_str(v)) == v, scalar_str(v)


def test_scalar_str_negative_grouping():
    # -(1 - j^2) is not -1 - j^2
    s = scalar_str(J2 - ONE)
    assert s == "-(1 - j^2)"
    assert parse_scalar(s) == J2 - ONE


def test_hash_consistency():
    assert hash(J * J) == hash(J2)
    d = {J2: "two"}
    assert d[J * J] == "two"
