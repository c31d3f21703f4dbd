"""Exact arithmetic in Q(j)(q)."""

from fractions import Fraction

import pytest

from z3calc.scalars import (QJ, QJ_ONE, CycloRational, PoleError, J, J2,
                            ONE, Q, ZERO, jpow, qpow, rational, scalar_str,
                            specialize_q)
from z3calc.parser import parse_scalar


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
