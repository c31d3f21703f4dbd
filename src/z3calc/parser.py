"""Expression parser for the CLI and for scalar strings in preset files.

Grammar (left associative, ^ binds tightest):

    expr  := term (("+" | "-") term)*
    term  := unary (("*" | "/") unary)*
    unary := ("-" | "+") unary | power
    power := atom ("^" ["-"] NUMBER)?
    atom  := NUMBER | NAME | "(" expr ")"

NAME is q, j, or a generator of the active preset; q reads as the
preset's value when the preset binds one.  Division requires a
scalar divisor, negative exponents a scalar base.  Errors carry the
byte offset of the offending token.  Powers are expanded by repeated
squaring.  Exponents above MAX_EXPONENT are refused, and so are
a*b and p^k whose term bound len(a)*len(b) or len(p)^k exceeds
MAX_TERMS, before any term is built, and nesting (parentheses or signs)
deeper than MAX_DEPTH, which would exhaust the recursion limit.  A
number, and every product, quotient and step of a power, whose
coefficients hold an integer longer than MAX_BITS is refused as soon as
it is built.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .scalars import J, Q, bit_length, rational
from .freealg import _UNICODE, NCPolynomial

# the one-character Greek spellings fa_str prints, read back
_GREEK = {u: name for name, u in _UNICODE.items() if len(u) == 1}

MAX_EXPONENT = 5000
# bits of the longest integer in a coefficient: 4,215 decimal digits, below
# the 4,300 that Python converts to a string by default
MAX_BITS = 14000
# an integer with more decimal digits than 2**MAX_BITS is longer than that
_MAX_DIGITS = len(str(2 ** MAX_BITS))
MAX_DEPTH = 100
MAX_TERMS = 100000


class ParseError(ValueError):
    def __init__(self, message, offset):
        super().__init__("%s (at byte %d)" % (message, offset))
        self.offset = offset


def _tokenize(text):
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*/^()":
            toks.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(("num", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch in _GREEK:
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_" or text[j] in _GREEK):
                j += 1
            name = text[i:j]
            name = "".join(_GREEK.get(c, c) for c in name)
            toks.append(("name", name, i))
            i = j
            continue
        raise ParseError("unexpected character %r" % ch, i)
    toks.append(("end", "", n))
    return toks


class _Parser:
    def __init__(self, text, alphabet, q):
        self.toks = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.alphabet = alphabet  # set of generator names, or None for scalar-only
        self.q = Q if q == "symbolic" else rational(q)

    def peek(self):
        return self.toks[self.pos]

    def take(self, kind=None):
        tok = self.toks[self.pos]
        if kind is not None and tok[0] != kind:
            raise ParseError("expected %s, got %r" % (kind, tok[1] or "end of input"),
                             tok[2])
        self.pos += 1
        return tok

    def parse(self):
        p = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError("trailing input %r" % tok[1], tok[2])
        return p

    def expr(self):
        p = self.term()
        while self.peek()[0] in "+-":
            op = self.take()[0]
            r = self.term()
            p = p + r if op == "+" else p - r
        return p

    def term(self):
        p = self.unary()
        while self.peek()[0] in "*/":
            kind, _, off = self.take()
            r = self.unary()
            if kind == "*":
                if len(p.t) * len(r.t) > MAX_TERMS:
                    raise ParseError("product of more than %d terms"
                                     % MAX_TERMS, off)
                p = _bounded(p * r, off)
            else:
                p = _bounded(p * self._scalar_of(r, off).inv(), off)
        return p

    def unary(self):
        tok = self.peek()
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ParseError("nested deeper than %d" % MAX_DEPTH, tok[2])
        if tok[0] in "+-":
            self.take()
            p = self.unary()
            p = -p if tok[0] == "-" else p
        else:
            p = self.power()
        self.depth -= 1
        return p

    def power(self):
        p = self.atom()
        if self.peek()[0] != "^":
            return p
        _, _, off = self.take()
        neg = False
        if self.peek()[0] == "-":
            self.take()
            neg = True
        _, digits, at = self.take("num")
        k = _number(digits, at)
        if k > MAX_EXPONENT:
            raise ParseError("exponent above %d" % MAX_EXPONENT, at)
        if neg:
            p = NCPolynomial.unit(self._scalar_of(p, off).inv())
        elif len(p.t) ** k > MAX_TERMS:
            raise ParseError("power of more than %d terms" % MAX_TERMS, off)
        out = NCPolynomial.unit()
        while k:  # out gathers p^(2^i) for each bit i set in k
            if k & 1:
                out = _bounded(out * p, off)
            k >>= 1
            if k:
                p = _bounded(p * p, off)
        return out

    def atom(self):
        kind, text, off = self.take()
        if kind == "num":
            return _bounded(NCPolynomial.unit(rational(_number(text, off))),
                            off)
        if kind == "(":
            p = self.expr()
            self.take(")")
            return p
        if kind == "name":
            if text == "q":
                return NCPolynomial.unit(self.q)
            if text == "j":
                return NCPolynomial.unit(J)
            if self.alphabet is None:
                raise ParseError("unknown scalar symbol %r" % text, off)
            if text not in self.alphabet:
                raise ParseError("unknown generator %r" % text, off)
            return NCPolynomial.gen(text)
        raise ParseError("expected a value, got %r" % (text or "end of input"), off)

    @staticmethod
    def _scalar_of(p, off):
        if list(p.support()) not in ([], [()]):
            raise ParseError("divisor and negative powers must be scalar", off)
        s = p.coeff(())
        if s.is_zero():
            raise ParseError("division by zero", off)
        return s


def _number(digits, off):
    """The integer that digits spells.  Python converts at most about
    4,300 significant digits, and any longer number is past MAX_BITS."""
    try:
        return int(digits.lstrip("0") or "0")
    except ValueError:
        raise ParseError("number longer than %d bits" % MAX_BITS,
                         off) from None


def _bounded(p, off):
    """p, unless a coefficient holds an integer longer than MAX_BITS."""
    if any(bit_length(c) > MAX_BITS for c in p.t.values()):
        raise ParseError("coefficient longer than %d bits" % MAX_BITS, off)
    return p


def parse(text, preset):
    """Parse a CLI expression into an NCPolynomial: the preset's generator
    names are in scope, and q is its value of q."""
    return _Parser(text, set(preset.gens), preset.q).parse()


def parse_scalar(text, q="symbolic"):
    """The scalar text spells; q reads as the value q unless "symbolic".
    Every name other than q and j is an unknown scalar symbol, so the
    expression holds no word."""
    return _Parser(text, None, q).parse().coeff(())


def q_value(text, name="--q"):
    """Fraction(text), a q given from outside and called name in errors,
    refused before it is built when its numerator or denominator could be
    longer than MAX_BITS: a side of a/b with more than _MAX_DIGITS digits,
    or an exponent above _MAX_DIGITS."""
    e = re.search(r"e[-+]?([\d_]+)", text, re.I)
    long = (max(sum(map(str.isdigit, side)) for side in text.split("/"))
            > _MAX_DIGITS
            or e and int(e.group(1).replace("_", "") or 0) > _MAX_DIGITS)
    try:
        q0 = None if long else Fraction(text)
    except ZeroDivisionError:
        raise ValueError("%s %s divides by zero" % (name, text)) from None
    if long or max(q0.numerator.bit_length(),
                   q0.denominator.bit_length()) > MAX_BITS:
        raise ValueError("%s: numerator or denominator longer than %d bits"
                         % (name, MAX_BITS))
    return q0
