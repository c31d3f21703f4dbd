"""Exact arithmetic over Q(j)(q).

Coefficients of everything in this package live in the field of rational
functions in one indeterminate q over the cyclotomic field Q(j), where j
is a primitive cube root of unity.  Representation, bottom up:

    QJ             a + b*j with rational a, b; products reduced via j*j = -1 - j
    QJPoly         dense tuple of QJ coefficients, constant term first
    CycloRational  num/den pair of QJPoly with den monic and gcd(num, den) = 1

All three are immutable and canonical, so == is structural equality, and
a QJ or CycloRational can key a dictionary.  q never becomes a float:
evaluation at a rational point happens only through specialize_q, which
raises PoleError when the denominator vanishes there.

Almost every coefficient that rewriting produces is an integer combination
of 1 and j, so QJ keeps integral components as plain ints: int arithmetic
is several times cheaper than Fraction arithmetic, which otherwise dominates
reduction with symbolic q.  A component is an int exactly when it is
integral, so the form stays unique; int and Fraction compare, hash and print
alike, so nothing outside QJ sees the difference.  For the same reason
QJ arithmetic hands out one shared instance for each value with small
integral components, and a sum or product of two scalars whose denominators
are 1 is canonical as it stands, so it skips _reduce.

A constant is a CycloRational whose denominator is P_ONE and whose
numerator has one coefficient; at q = 1 every nonzero coefficient is one.
Each shared QJ value has one shared constant (ONE, J and J2 among them),
+, -, * and unary - of two constants compute on their QJ components and
return the shared constant when there is one, and * by the object ONE
returns the other operand.
"""

from __future__ import annotations

from fractions import Fraction


class PoleError(ArithmeticError):
    """Denominator vanishes at the requested q."""


# ---------------------------------------------------------------------------
# Q(j)


def _canon(x):
    """The int or Fraction x as an int when integral, else as it is."""
    return x.numerator if x.denominator == 1 else x


class QJ:
    """a + b*j with a, b exact rationals; j*j = -1 - j.

    Invariant: each of a, b is an int, or a Fraction whose denominator is
    above 1.  Sums and products of ints stay ints; anything else passes
    through _canon, which keeps the representation unique.
    """

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        self.a = a if type(a) is int else _canon(a)
        self.b = b if type(b) is int else _canon(b)

    def is_zero(self):
        return not self.a and not self.b

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def __eq__(self, other):
        return isinstance(other, QJ) and self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((self.a, self.b))

    def __add__(self, other):
        return _qj(self.a + other.a, self.b + other.b)

    def __sub__(self, other):
        return _qj(self.a - other.a, self.b - other.b)

    def __neg__(self):
        return _qj(-self.a, -self.b)

    def __mul__(self, other):
        a0, a1, b0, b1 = self.a, self.b, other.a, other.b
        x = a1 * b1
        return _qj(a0 * b0 - x, a0 * b1 + a1 * b0 - x)

    def inv(self):
        # conjugate a - b - b*j gives norm a^2 - a*b + b^2, positive unless zero
        n = self.a * self.a - self.a * self.b + self.b * self.b
        if not n:
            raise ZeroDivisionError("inverse of zero in Q(j)")
        return QJ(Fraction(self.a - self.b, n), Fraction(-self.b, n))

    def __repr__(self):
        return "QJ(%s, %s)" % (self.a, self.b)


# The QJ(a, b) with ints -_SMALL <= a, b <= _SMALL, built once; +, -, unary
# - and * return these rather than equal new objects, so that the many
# coefficients of a large normal form share a few instances.  _SHARED[a][b]
# works for negative a and b too: a row has 2 * _SMALL + 1 slots, so index
# -k wraps to the slot that holds -k.
_SMALL = 8
_SHARED = [[None] * (2 * _SMALL + 1) for _ in range(2 * _SMALL + 1)]
for _a in range(-_SMALL, _SMALL + 1):
    for _b in range(-_SMALL, _SMALL + 1):
        _SHARED[_a][_b] = QJ(_a, _b)
del _a, _b


def _qj(a, b):
    """QJ(a, b), the shared instance when a and b are small ints; a
    Fraction component never keys the table."""
    if (type(a) is int and type(b) is int
            and -_SMALL <= a <= _SMALL and -_SMALL <= b <= _SMALL):
        return _SHARED[a][b]
    return QJ(a, b)


QJ_ZERO = _SHARED[0][0]
QJ_ONE = _SHARED[1][0]


# ---------------------------------------------------------------------------
# Q(j)[q]


class QJPoly:
    """Dense polynomial in q over Q(j); coeffs[k] multiplies q^k."""

    __slots__ = ("c",)

    def __init__(self, coeffs=()):
        c = list(coeffs)
        while c and c[-1].is_zero():
            c.pop()
        self.c = tuple(c)

    @staticmethod
    def const(v):
        return QJPoly((v,)) if not v.is_zero() else P_ZERO

    def is_zero(self):
        return not self.c

    def degree(self):
        return len(self.c) - 1

    def is_const(self):
        return len(self.c) <= 1

    def const_value(self):
        return self.c[0] if self.c else QJ_ZERO

    def valuation(self):
        """Index of the lowest nonzero coefficient (0 for the zero poly)."""
        for i, v in enumerate(self.c):
            if not v.is_zero():
                return i
        return 0

    def shift_down(self, k):
        return QJPoly(self.c[k:]) if k else self

    def __eq__(self, other):
        return isinstance(other, QJPoly) and self.c == other.c

    def __add__(self, other):
        a, b = self.c, other.c
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, v in enumerate(b):
            out[i] = out[i] + v
        return QJPoly(out)

    def __neg__(self):
        return QJPoly(tuple(-v for v in self.c))

    def __mul__(self, other):
        a, b = self.c, other.c
        if not a or not b:
            return P_ZERO
        if len(a) == 1:
            return other.scale(a[0])
        if len(b) == 1:
            return self.scale(b[0])
        out = [QJ_ZERO] * (len(a) + len(b) - 1)
        for i, u in enumerate(a):
            if u.is_zero():
                continue
            for k, v in enumerate(b):
                if not v.is_zero():
                    out[i + k] = out[i + k] + u * v
        return QJPoly(out)

    def scale(self, u):
        return QJPoly(tuple(u * v for v in self.c))

    def divmod(self, other):
        """Exact long division over the coefficient field."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.c)
        d = other.degree()
        lead = other.c[-1].inv()
        if len(rem) - 1 < d:
            return P_ZERO, self
        quo = [QJ_ZERO] * (len(rem) - d)
        for i in range(len(rem) - 1, d - 1, -1):
            f = rem[i] * lead
            if f.is_zero():
                continue
            quo[i - d] = f
            for k, v in enumerate(other.c):
                rem[i - d + k] = rem[i - d + k] - f * v
        return QJPoly(quo), QJPoly(rem)

    def monic(self):
        if self.is_zero():
            return self
        lc = self.c[-1]
        if lc == QJ_ONE:
            return self
        return self.scale(lc.inv())

    def eval_at(self, q0):
        """Value at q = q0 (a Fraction), as a QJ."""
        acc = QJ_ZERO
        f = QJ(q0, 0)
        for v in reversed(self.c):
            acc = acc * f + v
        return acc

    def __repr__(self):
        return "QJPoly(%r)" % (self.c,)


P_ZERO = QJPoly(())
P_ONE = QJPoly((QJ_ONE,))
P_Q = QJPoly((QJ_ZERO, QJ_ONE))


def poly_gcd(a, b):
    """Monic gcd via Euclid; constants short-circuit to 1."""
    while not b.is_zero():
        if b.is_const():
            return P_ONE
        a, b = b, a.divmod(b)[1]
    return a.monic() if not a.is_const() else P_ONE


# ---------------------------------------------------------------------------
# Q(j)(q)


class CycloRational:
    """num/den of QJPoly; den monic, num/den coprime, zero is 0/1.

    A denominator of 1 is the object P_ONE, which _reduce returns, so the
    fast paths below test it with `is`; an equal copy would only take the
    general path.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=P_ONE, _canonical=False):
        if _canonical:
            self.num = num
            self.den = den
            return
        num, den = _reduce(num, den)
        self.num = num
        self.den = den

    def is_zero(self):
        return self.num.is_zero()

    def __bool__(self):
        return not self.num.is_zero()

    def __eq__(self, other):
        return (
            isinstance(other, CycloRational)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.num.c, self.den.c))

    def __add__(self, other):
        if self.den is P_ONE and other.den is P_ONE:
            x, y = self.num.c, other.num.c
            if len(x) == 1 and len(y) == 1:
                x, y = x[0], y[0]
                return _const(x.a + y.a, x.b + y.b)
            return CycloRational(self.num + other.num, P_ONE,
                                 _canonical=True)
        return CycloRational(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        x = self.num.c
        if self.den is P_ONE and len(x) == 1:
            return _const(-x[0].a, -x[0].b)
        return CycloRational(-self.num, self.den, _canonical=True)

    def __mul__(self, other):
        if other is ONE:
            return self
        if self is ONE:
            return other
        if self.den is P_ONE and other.den is P_ONE:
            x, y = self.num.c, other.num.c
            if len(x) == 1 and len(y) == 1:
                a0, a1, b0, b1 = x[0].a, x[0].b, y[0].a, y[0].b
                t = a1 * b1
                return _const(a0 * b0 - t, a0 * b1 + a1 * b0 - t)
            return CycloRational(self.num * other.num, P_ONE,
                                 _canonical=True)
        return CycloRational(self.num * other.num, self.den * other.den)

    def inv(self):
        if self.num.is_zero():
            raise ZeroDivisionError("inverse of zero scalar")
        return CycloRational(self.den, self.num)

    def __repr__(self):
        return "CycloRational(%s)" % scalar_str(self)


def _reduce(num, den):
    """Canonical form: den monic, common factors (incl. powers of q) removed."""
    if den.is_zero():
        raise ZeroDivisionError("zero denominator")
    if num.is_zero():
        return P_ZERO, P_ONE
    v = min(num.valuation(), den.valuation())
    if v:
        num = num.shift_down(v)
        den = den.shift_down(v)
    if den.is_const():
        u = den.const_value()
        if u == QJ_ONE:
            return num, P_ONE
        return num.scale(u.inv()), P_ONE
    if not num.is_const():
        g = poly_gcd(num, den)
        if not g.is_const():
            num = num.divmod(g)[0]
            den = den.divmod(g)[0]
            if den.is_const():
                return _reduce(num, den)
    lc = den.c[-1]
    if lc != QJ_ONE:
        u = lc.inv()
        num = num.scale(u)
        den = den.scale(u)
    return num, den


def specialize_q(s, q0):
    """Value of s at q = q0 (exact rational), j kept symbolic."""
    q0 = Fraction(q0)
    d = s.den.eval_at(q0)
    if d.is_zero():
        raise PoleError("pole at q = %s" % q0)
    v = s.num.eval_at(q0) * d.inv()
    return _const(v.a, v.b)


# ---------------------------------------------------------------------------
# constants and small builders

# the constant of each QJ in _SHARED, indexed the same way; the one of
# zero is ZERO, whose numerator has no coefficient
_CONSTS = [[CycloRational(QJPoly.const(v), P_ONE, _canonical=True)
            for v in row] for row in _SHARED]


def _const(a, b):
    """The constant a + b*j, the shared one when a and b are small ints."""
    if type(a) is not int:
        a = _canon(a)
    if type(b) is not int:
        b = _canon(b)
    if (type(a) is int and type(b) is int
            and -_SMALL <= a <= _SMALL and -_SMALL <= b <= _SMALL):
        return _CONSTS[a][b]
    return CycloRational(QJPoly((QJ(a, b),)), P_ONE, _canonical=True)


ZERO = _CONSTS[0][0]
ONE = _CONSTS[1][0]
J = _CONSTS[0][1]
J2 = _CONSTS[-1][-1]
Q = CycloRational(P_Q, P_ONE, _canonical=True)
MINUS_ONE = _CONSTS[-1][0]


def bit_length(s):
    """The bit length of the longest numerator or denominator in s."""
    n = 0
    for poly in (s.num, s.den):
        for v in poly.c:
            for r in (v.a, v.b):
                n = max(n, r.numerator.bit_length(), r.denominator.bit_length())
    return n


def rational(x):
    """Embed an int or Fraction."""
    return _const(x, 0)


def jpow(k):
    return (ONE, J, J2)[k % 3]


def qpow(k):
    """q**k for any integer k."""
    if k >= 0:
        return CycloRational(QJPoly((QJ_ZERO,) * k + (QJ_ONE,)))
    return CycloRational(P_ONE, QJPoly((QJ_ZERO,) * (-k) + (QJ_ONE,)))


# ---------------------------------------------------------------------------
# printing
#
# scalar_factor returns (sign, body, needs_parens): sign is +1/-1, body the
# printable magnitude, needs_parens whether body must be wrapped when used as
# a multiplicative prefix.  Unit coefficients print as 1 / j / j^2; a QJ with
# both components is shown in whichever of the bases {1, j}, {1, j^2} has the
# smaller magnitude, ties to {1, j}.
#
# A polynomial prints in one loop over its nonzero q-terms, highest degree
# first, with the leading term's sign taken out: the first term prints
# unsigned and the rest join with + or -.  A coefficient prefixes its
# q-power, in parentheses when composite and not at all when 1; a composite
# constant is wrapped only behind other terms.  The body needs parentheses
# when it is a sum: two or more terms, or one composite constant.


def _qj_factor(v):
    a, b = v.a, v.b
    if abs(a - b) < abs(a):
        parts = [(a - b, ""), (-b, "j^2")]
    else:
        parts = [(a, ""), (b, "j")]
    parts = [(r, tag) for r, tag in parts if r]
    if len(parts) == 1:
        r, tag = parts[0]
        sign = 1 if r > 0 else -1
        m = abs(r)
        if not tag:
            return sign, str(m), False
        if m == 1:
            return sign, tag, False
        return sign, str(m) + "*" + tag, False
    (r0, _), (r1, tag1) = parts
    sign = 1 if r0 > 0 else -1
    r0, r1 = r0 * sign, r1 * sign
    head = str(r0)
    op = " + " if r1 > 0 else " - "
    m = abs(r1)
    tail = tag1 if m == 1 else str(m) + "*" + tag1
    return sign, head + op + tail, True


def _poly_factor(p):
    terms = [(k, v) for k, v in enumerate(p.c) if v]
    if not terms:
        return 1, "0", False
    lead = _qj_factor(terms[-1][1])[0]
    text = ""
    for k, v in reversed(terms):
        sign, body, comp = _qj_factor(v if lead > 0 else -v)
        if comp and (k or text):
            body = "(" + body + ")"
        if k:
            qk = "q" if k == 1 else "q^%d" % k
            body = qk if body == "1" else body + "*" + qk
        if text:
            body = (" + " if sign > 0 else " - ") + body
        text += body
    return lead, text, len(terms) > 1 or (comp and not k)


def scalar_factor(s):
    sign, ntext, npar = _poly_factor(s.num)
    if s.den == P_ONE:
        return sign, ntext, npar
    _, dtext, dpar = _poly_factor(s.den)
    if npar:
        ntext = "(" + ntext + ")"
    if dpar:
        dtext = "(" + dtext + ")"
    return sign, ntext + "/" + dtext, False


def scalar_str(s):
    sign, body, par = scalar_factor(s)
    if sign >= 0:
        return body
    # composite bodies must keep their grouping under the global sign,
    # -(1 - j^2) is not -1 - j^2
    return "-(" + body + ")" if par else "-" + body
