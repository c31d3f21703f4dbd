"""Free graded associative algebra.

Words are tuples of generator names; an NCPolynomial is a finite map
from words to scalars.  That holds everywhere outside the reduction
engine of the rewrite module, whose packed words and dict normal forms
never leave it.  Nothing here reduces anything: products are plain
concatenation, and rewriting lives in the rewrite module.

Every generator carries two gradings that must not be confused:

  * grade   -- the declared Z3 grade, bookkeeping only
  * weight  -- the effective Z3 commutation weight, the exponent the
               generator contributes to j-commutation factors; equal to
               the grade for everything except h, which commutes with
               weight 1 despite its declared grade 2

Term-order weights (positive integers) are a third, unrelated thing and
belong to the rewrite module.
"""

from __future__ import annotations

from .scalars import ONE, ZERO, scalar_factor, scalar_str


class GeneratorInfo:
    """A letter: its name, declared grade, effective Z3 commutation weight,
    nilpotency or None, and d image (a generator name, "zero", or None
    where d is undefined)."""

    __slots__ = ("name", "grade", "weight", "nilpotency", "d_image")

    def __init__(self, name, grade, weight, nilpotency=None, d_image=None):
        self.name, self.grade, self.weight = name, grade, weight
        self.nilpotency, self.d_image = nilpotency, d_image


def word_grade(word, gens):
    """Sum of effective weights mod 3; gens maps name -> GeneratorInfo."""
    total = 0
    for name in word:
        total += gens[name].weight
    return total % 3


class NCPolynomial:
    """Finite map word -> scalar, zero coefficients dropped eagerly."""

    __slots__ = ("t",)

    def __init__(self, terms=None):
        if terms is None:
            self.t = {}
        else:
            self.t = {w: c for w, c in terms.items() if not c.is_zero()}

    @staticmethod
    def zero():
        return NCPolynomial()

    @staticmethod
    def unit(coeff=ONE):
        return NCPolynomial({(): coeff})

    @staticmethod
    def gen(name, coeff=ONE):
        return NCPolynomial({(name,): coeff})

    @staticmethod
    def word(word, coeff=ONE):
        return NCPolynomial({tuple(word): coeff})

    def is_zero(self):
        return not self.t

    def __eq__(self, other):
        return isinstance(other, NCPolynomial) and self.t == other.t

    def __add__(self, other):
        out = dict(self.t)
        for w, c in other.t.items():
            s = out.get(w)
            if s is None:
                out[w] = c
            else:
                s = s + c
                if s.is_zero():
                    del out[w]
                else:
                    out[w] = s
        r = NCPolynomial()
        r.t = out
        return r

    def __neg__(self):
        r = NCPolynomial()
        r.t = {w: -c for w, c in self.t.items()}
        return r

    def __sub__(self, other):
        return self + (-other)

    def scale(self, s):
        if s.is_zero():
            return NCPolynomial()
        r = NCPolynomial()
        r.t = {w: c * s for w, c in self.t.items()}
        return r

    def __mul__(self, other):
        out = {}
        for w1, c1 in self.t.items():
            for w2, c2 in other.t.items():
                w = w1 + w2
                c = c1 * c2
                s = out.get(w)
                if s is None:
                    out[w] = c
                else:
                    s = s + c
                    if s.is_zero():
                        del out[w]
                    else:
                        out[w] = s
        r = NCPolynomial()
        r.t = out
        return r

    def support(self):
        return self.t.keys()

    def coeff(self, word):
        return self.t.get(tuple(word), ZERO)

    def __repr__(self):
        return "NCPolynomial(%s)" % (fa_str(self) or "0")


def apply_hom(sigma, p):
    """Multiplicative, linear extension of generator -> NCPolynomial."""
    out = NCPolynomial()
    for word, c in p.t.items():
        img = NCPolynomial.unit(c)
        for name in word:
            img = img * sigma[name]
            if img.is_zero():
                break
        out = out + img
    return out


# ---------------------------------------------------------------------------
# printing

_UNICODE = {
    "th": "θ", "dth": "dθ", "d2x": "d²x", "d2th": "d²θ", "xinv": "x⁻¹",
    "px": "∂x", "pth": "∂θ", "b": "β", "g": "γ", "ainv": "a⁻¹",
    "dTinv": "dT⁻¹", "phi": "φ",
}

_LATEX = {
    "th": "\\theta", "dx": "{\\sf d}x", "dth": "{\\sf d}\\theta",
    "d2x": "{\\sf d}^2x", "d2th": "{\\sf d}^2\\theta", "xinv": "x^{-1}",
    "px": "\\partial_x", "pth": "\\partial_\\theta", "b": "\\beta",
    "g": "\\gamma", "dT": "d", "ainv": "a^{-1}", "dTinv": "d^{-1}",
    "phi": "\\varphi",
}

_FORMS = {"dx", "dth", "d2x", "d2th", "w", "u"}


def _word_str(word, style):
    if style == "latex":
        parts = [_LATEX.get(n, n) for n in word]
        out = parts[0]
        for prev, name, txt in zip(word, word[1:], parts[1:]):
            sep = "\\wedge " if prev in _FORMS and name in _FORMS else "\\, "
            out += sep + txt
        return out
    if style == "unicode":
        return "*".join(_UNICODE.get(n, n) for n in word)
    return "*".join(word)


def term_list(p, key):
    """The terms of p as {"coeff", "word"} dicts, descending under key."""
    terms = sorted(p.t.items(), key=lambda it: key(it[0]), reverse=True)
    return [{"coeff": scalar_str(c), "word": list(w)} for w, c in terms]


def fa_str(p, key=None, style="text"):
    """Render a polynomial, terms descending under the given word order key."""
    if p.is_zero():
        return "0"
    if key is None:
        key = lambda w: (len(w), w)
    words = sorted(p.t, key=key, reverse=True)
    mul = "\\, " if style == "latex" else "*"
    chunks = []
    for w in words:
        sign, body, par = scalar_factor(p.t[w])
        if not w:
            text = "(" + body + ")" if par else body
        elif body == "1":
            text = _word_str(w, style)
        else:
            if par:
                body = "(" + body + ")"
            text = body + mul + _word_str(w, style)
        if not chunks:
            chunks.append(("-" if sign < 0 else "") + text)
        else:
            chunks.append((" - " if sign < 0 else " + ") + text)
    return "".join(chunks)
