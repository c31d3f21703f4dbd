"""Exact arithmetic over Q(j)(q).

Coefficients of everything in this package live in the field of rational
functions in one indeterminate q over the cyclotomic field Q(j), where j
is a primitive cube root of unity.  Representation, bottom up:

    QJ             a + b*j with rational a, b; products reduced via j*j = -1 - j
    QJPoly         dense tuple of QJ coefficients, constant term first
    CycloRational  q^e * n/d with e an int and n, d QJPoly that q does not
                   divide, d monic and gcd(n, d) = 1; zero is 0/1 with e = 0

All three are immutable and canonical, so == is structural equality, and
a QJ or CycloRational can key a dictionary.  q never becomes a float:
evaluation at a rational point happens only through specialize_q, which
raises PoleError when the denominator vanishes there.  CycloRational(e,
n, d) stores a canonical triple as given; outside this module a scalar
comes from rational, jpow, qpow and the arithmetic.  The properties num
and den, the dense pair with q^e put back, remain only for bench/tracer.py.

Almost every coefficient that rewriting produces is an integer combination
of 1 and j, so QJ keeps integral components as plain ints: int arithmetic
is several times cheaper than Fraction arithmetic, which otherwise dominates
reduction with symbolic q.  A component is an int exactly when it is
integral, so the form stays unique; int and Fraction compare, hash and print
alike, so nothing outside QJ sees the difference.  For the same reason
QJ arithmetic hands out one shared instance for each value with small
integral components.

Most coefficients with symbolic q are monomials c*q^e, since the relations
put q or 1/q beside a unit of Q(j).  A monomial is a CycloRational whose d
is P_ONE and whose n has one coefficient; a constant is one with e = 0, and
at q = 1 every nonzero coefficient is one.  Keeping q^e apart means that a
product of monomials is one QJ product and an add of exponents, where a
dense tuple would pad q^20 with twenty zeros and 1/q would need a gcd.
+, -, * and unary - of monomials compute on their QJ components and return
the shared instance of c*q^e for c a shared QJ and |e| <= 16, ONE, J, J2
and Q among them.  * by the object ONE returns the other operand, and a
sum or product that needs no gcd skips _reduce.
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
        return _qj(_canon(Fraction(self.a - self.b, n)),
                   _canon(Fraction(-self.b, n)))

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

    def split_q(self):
        """(k, p) with self = q^k * p and q not dividing p; k = 0 for zero."""
        for k, v in enumerate(self.c):
            if v:
                return k, (QJPoly(self.c[k:]) if k else self)
        return 0, self

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
        if u is QJ_ONE:
            return self
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
    """q^e * n/d with n, d QJPoly: q divides neither n nor d, d is monic
    and prime to n, and zero is 0/1 with e = 0.

    CycloRational(e, n, d) stores the triple as given; the arithmetic
    below and _over pass it canonical ones.  A denominator of 1 is the
    object P_ONE, so the fast paths test it with `is`; an equal copy
    would only take the general path.
    """

    __slots__ = ("e", "n", "d")

    def __init__(self, e, n, d):
        self.e, self.n, self.d = e, n, d

    # the dense pair with q^e put back, read only by bench/tracer.py for
    # the degree in q; once it reads e, n and d these two go
    @property
    def num(self):
        return _shift_up(self.n, self.e) if self.e > 0 else self.n

    @property
    def den(self):
        return _shift_up(self.d, -self.e) if self.e < 0 else self.d

    def is_zero(self):
        return not self.n.c

    def __bool__(self):
        return bool(self.n.c)

    def __eq__(self, other):
        return (isinstance(other, CycloRational) and self.e == other.e
                and self.n == other.n and self.d == other.d)

    def __hash__(self):
        return hash((self.e, self.n.c, self.d.c))

    def __add__(self, other):
        x, y = self.n.c, other.n.c
        e = self.e
        if (e == other.e and len(x) == 1 and len(y) == 1
                and self.d is P_ONE and other.d is P_ONE):
            x, y = x[0], y[0]
            return _mono(e, x.a + y.a, x.b + y.b)
        if not x:
            return other
        if not y:
            return self
        n1, d1, n2, d2 = self.n, self.d, other.n, other.d
        if e < other.e:
            n2 = _shift_up(n2, other.e - e)
        elif e > other.e:
            n1, e = _shift_up(n1, e - other.e), other.e
        # n1 + n2*d1 is prime to d1, and n1*d2 + n2 to d2
        if d2 is P_ONE:
            return _over(e, n1 + n2 * d1, d1)
        if d1 is P_ONE:
            return _over(e, n1 * d2 + n2, d2)
        return _over(e, *_reduce(n1 * d2 + n2 * d1, d1 * d2))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        x = self.n.c
        if len(x) == 1 and self.d is P_ONE:
            return _mono(self.e, -x[0].a, -x[0].b)
        return CycloRational(self.e, -self.n, self.d) if x else self

    def __mul__(self, other):
        if other is ONE:
            return self
        if self is ONE:
            return other
        x, y = self.n.c, other.n.c
        if (len(x) == 1 and len(y) == 1
                and self.d is P_ONE and other.d is P_ONE):
            a0, a1, b0, b1 = x[0].a, x[0].b, y[0].a, y[0].b
            t = a1 * b1
            return _mono(self.e + other.e, a0 * b0 - t, a0 * b1 + a1 * b0 - t)
        if not x or not y:
            return ZERO
        e = self.e + other.e
        if len(x) == 1 and self.d is P_ONE:
            return CycloRational(e, other.n.scale(x[0]), other.d)
        if len(y) == 1 and other.d is P_ONE:
            return CycloRational(e, self.n.scale(y[0]), self.d)
        return _over(e, *_reduce(self.n * other.n, self.d * other.d))

    def inv(self):
        x = self.n.c
        if not x:
            raise ZeroDivisionError("inverse of zero scalar")
        u = x[-1].inv()
        if len(x) == 1:
            return _over(-self.e, self.d.scale(u), P_ONE)
        return CycloRational(-self.e, self.d.scale(u), self.n.scale(u))

    def __repr__(self):
        return "CycloRational(%s)" % scalar_str(self)


def _shift_up(p, k):
    """q^k * p for k > 0."""
    return QJPoly((QJ_ZERO,) * k + p.c)


def _over(e, num, den):
    """q^e * num/den for num prime to den, and den monic and prime to q;
    the power of q that divides num moves into e."""
    c = num.c
    if not c:
        return ZERO
    if not c[0]:
        v, num = num.split_q()
        e, c = e + v, num.c
    if len(c) == 1 and den is P_ONE:
        return _mono(e, c[0].a, c[0].b)
    return CycloRational(e, num, den)


def _reduce(num, den):
    """num/den with common factors removed, for den monic and prime to q;
    a constant den, which is then 1, returns P_ONE."""
    if not num.is_const() and not den.is_const():
        g = poly_gcd(num, den)
        if not g.is_const():
            num = num.divmod(g)[0]
            den = den.divmod(g)[0]
    return num, (P_ONE if den.is_const() else den)


def specialize_q(s, q0):
    """Value of s at q = q0 (exact rational), j kept symbolic."""
    q0 = Fraction(q0)
    d = s.d.eval_at(q0)
    if d.is_zero() or (s.e < 0 and not q0):
        raise PoleError("pole at q = %s" % q0)
    v = s.n.eval_at(q0) * d.inv()
    if s.e:
        v = v * QJ(q0 ** s.e, 0)
    return _mono(0, v.a, v.b)


# ---------------------------------------------------------------------------
# constants, shared monomials and small builders

# the constant of each QJ in _SHARED, indexed the same way; the one of
# zero is ZERO, whose numerator has no coefficient
_CONSTS = [[CycloRational(0, QJPoly.const(v), P_ONE) for v in row]
           for row in _SHARED]
ZERO = _CONSTS[0][0]

# _MONOS[e][a][b] is the shared q^e * (a + b*j) for |e| <= _QMAX and each
# shared QJ value, filled on first use; index -e wraps as in _SHARED, and
# the plane e = 0 is _CONSTS.  Each shares its one-entry n with _CONSTS.
_QMAX = 16
_MONOS = [[[None] * (2 * _SMALL + 1) for _ in _SHARED]
          for _ in range(2 * _QMAX + 1)]
_MONOS[0] = _CONSTS


def _mono(e, a, b):
    """q^e * (a + b*j), the shared one when a and b are small ints and
    |e| <= _QMAX."""
    if type(a) is not int or type(b) is not int:
        a, b = _canon(a), _canon(b)
        if type(a) is not int or type(b) is not int:
            return CycloRational(e, QJPoly((QJ(a, b),)), P_ONE)
    if -_SMALL <= a <= _SMALL and -_SMALL <= b <= _SMALL:
        if -_QMAX <= e <= _QMAX:
            row = _MONOS[e][a]
            s = row[b]
            if s is None:
                s = row[b] = (CycloRational(e, _CONSTS[a][b].n, P_ONE)
                              if a or b else ZERO)
            return s
        return CycloRational(e, _CONSTS[a][b].n, P_ONE) if a or b else ZERO
    return CycloRational(e, QJPoly((QJ(a, b),)), P_ONE)


ONE = _CONSTS[1][0]
J = _CONSTS[0][1]
J2 = _CONSTS[-1][-1]
Q = _mono(1, 1, 0)
MINUS_ONE = _CONSTS[-1][0]


def bit_length(s):
    """The bit length of the longest numerator or denominator in s.  The
    dense form pads n or d with e zeros, which never set the maximum."""
    n = 0
    for poly in (s.n, s.d):
        for v in poly.c:
            for r in (v.a, v.b):
                n = max(n, r.numerator.bit_length(), r.denominator.bit_length())
    return n


def rational(x):
    """Embed an int or Fraction."""
    return _mono(0, x, 0)


def jpow(k):
    return (ONE, J, J2)[k % 3]


def qpow(k):
    """q**k for any integer k."""
    return _mono(k, 1, 0)


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


def _poly_factor(p, shift):
    """The factor that prints q^shift * p."""
    terms = [(k + shift, v) for k, v in enumerate(p.c) if v]
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
    e = s.e
    sign, ntext, npar = _poly_factor(s.n, max(e, 0))
    if e >= 0 and s.d == P_ONE:
        return sign, ntext, npar
    _, dtext, dpar = _poly_factor(s.d, max(-e, 0))
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
