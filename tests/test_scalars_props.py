"""Property tests for Q(j)(q): field axioms, q-specialisation, representation."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from z3calc.scalars import (_MONOS, _SMALL, QJ, QJ_ONE, ONE,  # noqa: E402
                            P_ONE, ZERO, CycloRational, PoleError, QJPoly,
                            jpow, poly_gcd, qpow, rational, specialize_q)
from test_scalars import _dense  # noqa: E402

# deterministic and small: these run inside the tier-1 suite
quick = settings(max_examples=60, deadline=None, derandomize=True)

small = st.fractions(min_value=-5, max_value=5, max_denominator=4)
leaves = st.one_of(
    small.map(rational),
    st.integers(0, 2).map(jpow),
    st.integers(-20, 20).map(qpow),
)


def _combine(children):
    pair = st.tuples(children, children)
    return st.one_of(
        pair.map(lambda t: t[0] + t[1]),
        pair.map(lambda t: t[0] - t[1]),
        pair.map(lambda t: t[0] * t[1]),
        children.filter(lambda x: not x.is_zero()).map(lambda x: x.inv()),
    )


scalars = st.recursive(leaves, _combine, max_leaves=5)
points = st.fractions(min_value=-3, max_value=3, max_denominator=3)


def _canonical_component(x):
    return type(x) is int or (type(x) is Fraction and x.denominator > 1)


def _canonical(s):
    """s = q^e * n/d in canonical form: every component is canonical, q
    divides neither n nor d, d is monic and prime to n, a constant d is
    the object P_ONE, and zero is 0/1 with e = 0."""
    n, d = s.n.c, s.d.c
    if not n:
        return s.e == 0 and s.d is P_ONE
    return (all(_canonical_component(v.a) and _canonical_component(v.b)
                for v in n + d)
            and bool(n[0]) and bool(d[0]) and d[-1] == QJ_ONE
            and (len(d) == 1) == (s.d is P_ONE)
            and poly_gcd(s.n, s.d) == P_ONE)


def _specialize(s, q0):
    try:
        return specialize_q(s, q0)
    except PoleError:
        assume(False)


@quick
@given(scalars, scalars, scalars)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a and a * ONE == a
    assert (a - a).is_zero()
    assert (a - b) + b == a


@quick
@given(scalars)
def test_multiplicative_inverse(a):
    assume(not a.is_zero())
    assert a * a.inv() == ONE
    assert a.inv().inv() == a


@quick
@given(scalars, scalars, points)
def test_specialize_commutes_with_add_and_mul(a, b, q0):
    sa, sb = _specialize(a, q0), _specialize(b, q0)
    assert specialize_q(a + b, q0) == sa + sb
    assert specialize_q(a * b, q0) == sa * sb


@quick
@given(scalars, points)
def test_specialize_commutes_with_inv(a, q0):
    sa = _specialize(a, q0)
    assume(not sa.is_zero())
    assert specialize_q(a.inv(), q0) == sa.inv()


@quick
@given(scalars, scalars)
def test_components_are_int_exactly_when_integral(a, b):
    # a from its dense pair, and from the pair without q^e
    dense = (_dense(a.num, a.den), _dense(a.n, a.d) * qpow(a.e))
    for s in (a, b, a + b, a - b, b - a, a * b, -a, a * a, a + a, *dense):
        assert _canonical(s)
    assert dense == (a, a)
    if not b.is_zero():
        assert _canonical(a * b.inv()) and _canonical(b.inv())
    # one value reached two ways: equal and equal hashes
    again = (a + b) - b
    assert again == a and hash(again) == hash(a)


@quick
@given(small, small)
def test_qj_components(x, y):
    v = QJ(x, y)
    assert _canonical_component(v.a) and _canonical_component(v.b)
    assert (v.a, v.b) == (x, y)
    w = QJ(Fraction(x), Fraction(y))
    assert v == w and hash(v) == hash(w)
    if not v.is_zero():
        assert _canonical_component(v.inv().a)
        assert v * v.inv() == QJ(1, 0)


# a + b*j with a, b on both sides of the shared table's -8..8 and not
# always integral
components = st.one_of(st.integers(-30, 30),
                       st.fractions(min_value=-30, max_value=30,
                                    max_denominator=6))


def _constant(a, b):
    return CycloRational(0, QJPoly((QJ(a, b),)), P_ONE)


def _general(s):
    """s with an equal copy of P_ONE as denominator, which takes the
    general path of +, - and *."""
    return CycloRational(s.e, s.n, QJPoly((QJ_ONE,)))


@quick
@given(components, components, components, components)
def test_constant_fast_paths(a0, a1, b0, b1):
    x, y = _constant(a0, a1), _constant(b0, b1)
    # the oracle: Q(j) by hand, j*j = -1 - j
    t = a1 * b1
    for got, general, (r0, r1) in (
            (x + y, _general(x) + _general(y), (a0 + b0, a1 + b1)),
            (x - y, _general(x) - _general(y), (a0 - b0, a1 - b1)),
            (x * y, _general(x) * _general(y),
             (a0 * b0 - t, a0 * b1 + a1 * b0 - t)),
            (-x, -_general(x), (-a0, -a1))):
        assert got == general == _constant(r0, r1)
        assert got.den is P_ONE and _canonical(got)
        # zero has no coefficient, so it is no constant and takes the
        # polynomial path
        r0, r1 = QJ(r0, r1).a, QJ(r0, r1).b
        if (x and y and type(r0) is int and type(r1) is int
                and max(abs(r0), abs(r1)) <= _SMALL):
            assert got is _MONOS[0][r0][r1]
    assert x * ONE is x and ONE * x is x


@quick
@given(scalars)
def test_times_one_is_the_other_operand(a):
    assert a * ONE is a and ONE * a is a
