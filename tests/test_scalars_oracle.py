"""Q(j)(q) arithmetic checked against sympy's rational functions.

The oracle is sympy's fraction field over the number field Q(sqrt(-3)),
an implementation that shares no code with z3calc.scalars.  j is the
cube root of unity (-1 + sqrt(-3))/2.  Seeded random expressions built
from rational / jpow / qpow with + - * and inv are evaluated on both
sides; each result is compared by cross-multiplying numerators and
denominators in the polynomial ring, since neither side's fraction form
is assumed to match the other's.  Values that sympy finds equal must also
be equal, with equal hashes, in z3calc however they were built.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from z3calc.scalars import (ONE, CycloRational, jpow, qpow,  # noqa: E402
                            rational)

QQ = sympy.QQ
K = QQ.algebraic_field(sympy.sqrt(-3))
F = K.frac_field(sympy.Symbol("q"))
PR = F.numer(F.one).ring
J_K = (K.from_sympy(sympy.sqrt(-3)) - K.one) * K.convert(QQ(1, 2))
J_SYM = F.convert_from(J_K, K)
Q_SYM = F.from_sympy(sympy.Symbol("q"))


def _leaf(rng):
    kind = rng.randrange(3)
    if kind == 0:
        x = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        return rational(x), F.convert(QQ(x.numerator, x.denominator))
    if kind == 1:
        k = rng.randint(-2, 4)
        return jpow(k), J_SYM ** (k % 3)
    k = rng.randint(-40, 40)
    return qpow(k), Q_SYM ** k


def _expr(rng, depth):
    if depth == 0 or rng.random() < 0.25:
        return _leaf(rng)
    op = rng.choice("+-*/i")
    a, sa = _expr(rng, depth - 1)
    if op == "i":
        if a.is_zero():
            return a, sa
        return a.inv(), 1 / sa
    b, sb = _expr(rng, depth - 1)
    if op == "+":
        return a + b, sa + sb
    if op == "-":
        return a - b, sa - sb
    if op == "*":
        return a * b, sa * sb
    if b.is_zero():
        return a * b, sa * sb
    return a * b.inv(), sa / sb


def _to_ring(p):
    """A QJPoly as a polynomial over Q(sqrt(-3)), via j = (-1 + sqrt(-3))/2."""
    def qq(x):
        x = Fraction(x)
        return K.convert(QQ(x.numerator, x.denominator))

    q = PR.gens[0]
    return sum((PR.ground_new(qq(v.a) + qq(v.b) * J_K) * q ** k
                for k, v in enumerate(p.c)), PR.zero)


def _agrees(ours, theirs):
    num, den = _to_ring(ours.num), _to_ring(ours.den)
    return num * F.denom(theirs) == F.numer(theirs) * den


@pytest.mark.parametrize("seed", range(4))
def test_random_expressions_match_sympy(seed):
    rng = random.Random(seed)
    for _ in range(15):
        ours, theirs = _expr(rng, 3)
        assert _agrees(ours, theirs), ours


def _same(ours, theirs):
    """Both pairs hold one value: sympy says so, and z3calc's forms are
    equal and hash alike."""
    (x, sx), (y, sy) = ours, theirs
    assert not (sx - sy), (x, y)
    assert x == y and hash(x) == hash(y), (x, y)


def test_canonical_across_construction_paths():
    q, one = qpow(1), rational(1)
    _same(((q + one) * (q - one) - q * q,
           (Q_SYM + 1) * (Q_SYM - 1) - Q_SYM ** 2),
          (rational(-1), F.convert(QQ(-1))))
    for k in range(-40, 41):
        _same((qpow(k) * qpow(-k), Q_SYM ** k * Q_SYM ** -k), (ONE, F.one))
    rng = random.Random(11)
    for _ in range(40):
        (a, sa), (b, sb) = _expr(rng, 2), _expr(rng, 2)
        _same(((a + b) - b, (sa + sb) - sb), (a, sa))
        _same((CycloRational(a.num, a.den), sa), (a, sa))
        if not b.is_zero():
            _same((a * b * b.inv(), sa * sb / sb), (a, sa))
            _same(((a * b + b) * b.inv(), (sa * sb + sb) / sb),
                  (a + one, sa + 1))


@pytest.mark.parametrize("seed", range(2))
def test_equal_in_sympy_means_equal_here(seed):
    rng = random.Random(20 + seed)
    # shallow expressions meet often, deeper ones rarely
    exprs = ([_expr(rng, 1) for _ in range(35)]
             + [_expr(rng, 2) for _ in range(10)])
    equal = 0
    for i, (x, sx) in enumerate(exprs):
        for y, sy in exprs[:i]:
            if not (sx - sy):
                equal += 1
                assert x == y and hash(x) == hash(y), (x, y)
            else:
                assert x != y, (x, y)
    assert equal  # two construction paths met at least once


def test_oracle_rejects_a_wrong_answer():
    # the comparison itself must be able to fail
    assert not _agrees(qpow(1) + jpow(1), Q_SYM + J_SYM ** 2)
    assert _agrees(qpow(1) + jpow(1), Q_SYM + J_SYM)
