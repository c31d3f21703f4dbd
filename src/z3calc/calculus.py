"""Differential and partial-derivative operators plus replay suites.

The exterior differential is the unique linear operator with the given
images on generators and the twisted product rule

    d(a b) = (d a) b + j^w(a) a (d b)

for homogeneous a of effective weight w(a).  Iterating it gives

    d^2(a b) = (d^2 a) b + (j^w + j^(w+1)) (d a)(d b) + j^(2w) a (d^2 b),

and d^3 = 0 identically because each generator's chain of images ends
in zero after two steps.  d, and the partials likewise, sum an
unreduced image into one word -> scalar dict and drop the sums that
cancelled to zero once, at the end.  When normal forms are unique, the
reduced d(p) sums the normal forms of the images of p's words, computed
by the product rule itself,
NF(d(g v)) = NF(d(g) NF(v)) + j^w(g) NF(g NF(d(v))), over the suffixes
of each word, from the normal forms of suffixes, which the presentation
caches, and of their images, which the operator caches; elsewhere it
reduces the unreduced d(p).  The checks run many times on one
presentation reuse one operator of each kind on it, and so its cache.

Partial derivatives act from the left through recursion rows: a row
(c, prefix, axis) for leading letter g means the term c * prefix *
(d_axis of the rest), rows with axis None terminate.  The rows and the
weyl preset's px/pth rules are one q-typed table, presets.PARTIAL_RULES,
read here at the preset's q; the weyl suite checks that the rules reduce
as the rows fold.

The d-replay suites (d_stability, first_forms, second_forms, form_tower)
are one table of (check name, rule ref) pairs.  Each check reads lhs - rhs
of the named qjh_calculus rule, so no relation is typed here a second
time, and reduces it (relation_<name>) and its image under d (d_<name>)
in a fresh qjh_calculus; d_stability reports the d_ entries only.  A
relation_ entry thus confirms that its rule exists and fires on its own
left side.
"""

from __future__ import annotations

import functools
import weakref

from .scalars import (ONE, J, J2, MINUS_ONE, jpow, qpow, rational,
                      specialize_q)
from .freealg import NCPolynomial, apply_hom, word_grade
from .parser import _echo
from .report import all_pass, flag, zero_entry
from . import presets as _presets


class DifferentialOperator:
    """Left-to-right twisted derivation on a presentation's algebra.

    The unreduced d(p) is summed term by term into one word -> scalar
    dict: letter i of a word c*w contributes c * j^(weight of w[:i]) * ic
    at w[:i] + iw + w[i+1:] for each term ic*iw of that letter's image.
    Zeros are dropped once, at the end, so d(p, reduce=False) stores none.

    The reduced d(p) is NF(d(p)).  When normal forms are unique it is the
    sum of c * NF(d(w)) over the terms c*w of p, as reduction is linear,
    and NF(d(w)) is folded over the suffixes g*v of w, right to left, by
    the Leibniz step (Presentation._image_forms)

        NF(d(g v)) = NF(d(g) NF(v)) + j^w(g) NF(g NF(d(v))).

    It reads and fills two caches: NF(d(v)) per suffix in a trie that the
    operator owns, built with it for its image map, and NF(v) in the
    suffix cache that normal_form shares, read only where d(g) is not
    zero.  A word whose NF(d(w)) the trie holds is not charged, as a memo
    hit is not; the others are reduced together under one step budget
    and rewrite the words that reducing each d(w) whole would.
    Elsewhere (cartan, weyl) NF(g NF(p)) may differ from NF(g p), and the
    unreduced d(p) is reduced whole.  Each cache lives as long as its
    owner, as the memo does."""

    def __init__(self, preset, images=None):
        self.preset = preset
        self.images = {}
        for g in preset.generators:
            if g.d_image == "zero":
                self.images[g.name] = NCPolynomial.zero()
            elif g.d_image is not None:
                self.images[g.name] = NCPolynomial.gen(g.d_image)
        if images:
            self.images.update(images)
        gens = preset.gens
        # d(g*v) = d(g)*v + j^w(g) g*d(v): each letter's twist and image,
        # packed with the trie of NF(d(v)) per suffix v that this operator
        # keeps (Presentation._image_forms)
        self._cache = preset._image_cache({
            name: (jpow(gens[name].weight), img)
            for name, img in self.images.items() if name in gens})

    def _image(self, terms):
        """The unreduced d of the sum of c * word over terms (word, c)."""
        gens, images = self.preset.gens, self.images
        acc = {}
        for word, c in terms:
            wsum = 0
            for i, name in enumerate(word):
                img = images.get(name)
                if img is None:
                    raise KeyError("d undefined on generator %r" % name)
                if img.t:
                    pre, post, cj = word[:i], word[i + 1:], jpow(wsum)
                    if c is not ONE:  # ONE: a bare word's coefficient
                        cj = c * cj
                    for iw, ic in img.t.items():
                        w, t = pre + iw + post, cj if ic is ONE else cj * ic
                        s = acc.get(w)
                        acc[w] = t if s is None else s + t
                wsum += gens[name].weight
        return NCPolynomial(acc)  # drops the sums that cancelled

    def __call__(self, p, reduce=True):
        preset = self.preset
        if reduce and preset._unique_normal_forms():
            return preset._image_forms(self._cache, p)
        image = self._image(p.t.items())
        return preset.normal_form(image) if reduce else image


# ---------------------------------------------------------------------------
# partial derivatives

_AXES = {"px": "x", "pth": "th"}


def _partial_rows():
    """The rows of presets.PARTIAL_RULES: rule p*g -> ... gives the row of
    g along p's axis, its term c*w*px or c*w*pth the entry (c, w, "x") or
    (c, w, "th"), and any other term c*w the entry (c, w, None)."""
    rows = {"x": {}, "th": {}}
    for _, (p, g, *more), *terms in _presets.PARTIAL_RULES:
        if more or g in _AXES:
            continue  # partial:pxpth and partial:pth3 are no rows
        rows[_AXES[p]][g] = [(c, w[:-1], _AXES[w[-1]]) if w and w[-1] in _AXES
                             else (c, w, None) for c, w in terms]
    return rows


class PartialOperator:
    """The partials along x and th, linear in p, by the recursion rows
    (the table's unless rows are given) at the preset's q."""

    def __init__(self, preset, rows=None):
        q, rows = preset.q, rows or _partial_rows()
        if q != "symbolic":  # the rows follow a bound q, given or not
            rows = {a: {g: [(specialize_q(c, q), w, n) for c, w, n in rr]
                        for g, rr in t.items()} for a, t in rows.items()}
        self.rows = rows
        self.preset = preset

    def _word(self, axis, word):
        """The partial along axis of word as a word -> scalar dict, folded
        from the right over only the axes the rows reach each suffix
        word[k:] along.  Each suffix's partial is summed row by row into
        one dict with the terms and order that adding polynomials gives: a
        zero row adds nothing and a sum that cancels is deleted."""
        rows, needs = self.rows, [{axis}]
        for g in word:
            if any(g not in rows[a] for a in needs[-1]):
                raise KeyError("partial derivative undefined past generator %r" % g)
            needs.append({n for a in needs[-1] for _, _, n in rows[a][g]
                          if n is not None})
        tails = dict.fromkeys(needs[-1], {})
        for k in range(len(word) - 1, -1, -1):
            g, rest, here = word[k], word[k + 1:], {}
            for a in needs[k]:
                out = {}
                for c, prefix, nxt in rows[a][g]:
                    if not c:
                        continue
                    for w, x in (((rest, ONE),) if nxt is None
                                 else tails[nxt].items()):
                        w, x = prefix + w, c if x is ONE else c * x
                        s = out.get(w)
                        if s is None:
                            out[w] = x
                        else:  # as NCPolynomial.__add__ sums
                            s = s + x
                            if s:
                                out[w] = s
                            else:
                                del out[w]
                here[a] = out
            tails = here
        return tails[axis]

    def __call__(self, axis, p, reduce=True):
        acc = {}
        for word, c in p.t.items():
            for w, wc in self._word(axis, word).items():
                t = wc if c is ONE else wc * c
                s = acc.get(w)
                acc[w] = t if s is None else s + t
        out = NCPolynomial(acc)  # drops the sums that cancelled
        return self.preset.normal_form(out) if reduce else out


def _operator(cls, preset):
    """cls(preset), built once per presentation (Presentation.operators).
    It holds a proxy of preset, so that the two form no reference cycle and
    the presentation, with its memo, is freed as soon as it is dropped."""
    op = preset.operators.get(cls)
    if op is None:
        op = preset.operators[cls] = cls(weakref.proxy(preset))
    return op


def verify_df_decomposition(preset, f):
    """d f  ==  dx (d_x f) + dth (d_th f), reduced."""
    d = _operator(DifferentialOperator, preset)
    part = _operator(PartialOperator, preset)
    rhs = (NCPolynomial.gen("dx") * part("x", f, reduce=False)
           + NCPolynomial.gen("dth") * part("th", f, reduce=False))
    return d(f) == preset.normal_form(rhs)


# ---------------------------------------------------------------------------
# randomized identities

def random_element(preset, rng, max_len=5):
    letters = [g.name for g in preset.generators]
    out = NCPolynomial.zero()
    for _ in range(4):
        k = rng.randint(0, max_len)
        word = tuple(rng.choice(letters) for _ in range(k))
        c = (rational(rng.choice([1, 2, 3, -1, -2])) * jpow(rng.randint(0, 2))
             * qpow(rng.randint(-1, 1)))
        if preset.q != "symbolic":  # the power of q at the bound q
            c = specialize_q(c, preset.q)
        out = out + NCPolynomial.word(word, c)
    return out


def d_cube_vanishes(preset, p):
    d = _operator(DifferentialOperator, preset)
    return d(d(d(p))).is_zero()


def d2_product_identity(preset, wa, wb):
    """Check the iterated product rule on a pair of words."""
    d = _operator(DifferentialOperator, preset)
    a = NCPolynomial.word(wa)
    b = NCPolynomial.word(wb)
    g = word_grade(wa, preset.gens)
    lhs = d(d(a * b, reduce=False), reduce=False)
    rhs = (d(d(a, reduce=False), reduce=False) * b
           + (d(a, reduce=False) * d(b, reduce=False)).scale(jpow(g) + jpow(g + 1))
           + (a * d(d(b, reduce=False), reduce=False)).scale(jpow(2 * g)))
    return preset.normal_form(lhs - rhs).is_zero()


def monomial_basis(amax=2, bmax=2, cmax=6):
    for a in range(amax + 1):
        for b in range(bmax + 1):
            for c in range(cmax + 1):
                yield ("h",) * a + ("th",) * b + ("x",) * c


# ---------------------------------------------------------------------------
# replay suites

# (check name, qjh_calculus rule ref) pairs of each d-replay suite
_D_SUITES = {
    "d_stability": [
        ("plane_relation", "plane:xth"), ("theta_cube", "plane:th3"),
        ("x_h_passage", "passage:xh"), ("theta_h_passage", "passage:thh"),
        ("dx_h_passage", "passage:dxh"),
        ("dtheta_h_passage", "passage:hdth"),
    ],
    "first_forms": [
        ("x_dx", "mixed:xdx"), ("x_dtheta", "mixed:xdth"),
        ("theta_dx", "mixed:thdx"), ("theta_dtheta", "mixed:thdth"),
    ],
    "second_forms": [
        ("x_d2x", "mixed2:xd2x"), ("x_d2theta", "mixed2:xd2th"),
        ("theta_d2x", "mixed2:thd2x"), ("theta_d2theta", "mixed2:thd2th"),
        ("dx_dtheta", "forms:dxdth"),
    ],
    "form_tower": [
        ("dx_d2x", "forms:dxd2x"), ("dx_d2theta", "forms:dxd2th"),
        ("dtheta_d2x", "forms:d2xdth"), ("dtheta_d2theta", "forms:dthd2th"),
    ],
}


def _d_suite(suite):
    P = _presets.qjh_calculus()
    d = DifferentialOperator(P)
    rules = {r.ref: r for r in P.rules}
    checks = []
    for name, ref in _D_SUITES[suite]:
        rel = NCPolynomial.word(rules[ref].lhs) - rules[ref].rhs
        if suite != "d_stability":
            checks.append(zero_entry("relation_" + name, P, rel))
        checks.append(zero_entry("d_" + name, P, d(rel, reduce=False)))
    return checks


# the letters the partials are defined on
_PARTIAL_LETTERS = set(_partial_rows()["x"])

# Trailing factors for the well-definedness sweep.  Length two is enough to
# see the first-order operator tails the bare relation (empty tail) misses.
_PARTIAL_TAILS = [(), ("x",), ("th",), ("x", "x"), ("th", "x"), ("th", "th"),
                  ("dx",), ("th", "dx")]


def _h2_truncated(p):
    # h*h*x = 0 forces h*h*dx = h*h*d2x = 0 under d; the partials descend to
    # the quotient by that ideal, not to the full calculus.
    for word in p.support():
        if not any(word[i] == "h" and word[i + 1] == "h"
                   and any(l in ("x", "dx", "d2x") for l in word[i + 2:])
                   for i in range(len(word) - 1)):
            return False
    return True


def _partial_residual(preset, part, axis, rule, tail):
    lhs = part(axis, NCPolynomial.word(rule.lhs + tail), reduce=False)
    rhs = part(axis, rule.rhs * NCPolynomial.word(tail), reduce=False)
    return preset.normal_form(lhs - rhs)


def _monomial_check(name, ok, **basis):
    """Flag name; a failure names the first four monomials m of
    monomial_basis(**basis) for which ok(m as a polynomial) is false."""
    bad = ["*".join(m) or "1" for m in monomial_basis(**basis)
           if not ok(NCPolynomial.word(m))]
    return flag(name, not bad, ", ".join(bad[:4]))


def _flipped_rows():
    """The partial rows with each h-term sign in the form rows flipped."""
    rows = _partial_rows()
    for g in ("dx", "dth"):
        rows["x"][g] = [(-c if "h" in w else c, w, nxt)
                        for c, w, nxt in rows["x"][g]]
    return rows


def _suite_partials():
    P = _presets.qjh_calculus()
    part = _operator(PartialOperator, P)
    checks = []
    for axis in ("x", "th"):
        bad = []
        for r in P.rules:
            letters = set(r.lhs)
            for w in r.rhs.support():
                letters |= set(w)
            if not letters <= _PARTIAL_LETTERS:
                continue
            for tail in _PARTIAL_TAILS:
                diff = _partial_residual(P, part, axis, r, tail)
                if not (diff.is_zero() or _h2_truncated(diff)):
                    bad.append("%s|%s" % (r.ref, "*".join(tail) or "1"))
        checks.append(flag("partial_%s_well_defined" % axis, not bad,
                           ", ".join(bad[:4])))
    # Flipping the sign of either h-term in the form rows leaves residuals
    # with a single h, which no truncation explains.  Pin that so the signs
    # cannot silently regress.
    flipped = PartialOperator(P, rows=_flipped_rows())
    r_thdx = next(r for r in P.rules if r.ref == "mixed:thdx")
    diff = _partial_residual(P, flipped, "x", r_thdx, ())
    checks.append(flag("form_row_h_signs_pinned",
                       not diff.is_zero() and not _h2_truncated(diff)))

    # px*pth = c pth*px, c read from partial:pxpth
    [(c, _)] = next(e[2:] for e in _presets.PARTIAL_RULES
                    if e[0] == "partial:pxpth")

    def exchange(f):
        lhs = part("x", part("th", f, reduce=False), reduce=False)
        rhs = part("th", part("x", f, reduce=False), reduce=False).scale(c)
        return P.normal_form(lhs - rhs).is_zero()

    checks.append(_monomial_check("px_pth_exchange", exchange))
    checks.append(_monomial_check(
        "pth_cube_zero",
        lambda f: part("th", part("th", part("th", f))).is_zero()))
    checks.append(_monomial_check(
        "df_decomposition", lambda f: verify_df_decomposition(P, f),
        amax=1, bmax=2, cmax=4))
    return checks


def _p_free(p):
    return NCPolynomial({w: c for w, c in p.t.items()
                         if "px" not in w and "pth" not in w})


def _suite_weyl():
    W = _presets.weyl()
    part = PartialOperator(W)
    checks = []
    for letter, axis in (("px", "x"), ("pth", "th")):
        p = NCPolynomial.gen(letter)
        checks.append(_monomial_check(
            "weyl_%s_matches_partial" % letter,
            lambda f: _p_free(W.normal_form(p * f)) == part(axis, f)))
    return checks


# Cartan pair: invariant forms written in the localized letters.

def cartan_forms():
    w = NCPolynomial.word(("dx", "xinv"))
    u = (NCPolynomial.word(("dth", "xinv"))
         - NCPolynomial.word(("dx", "xinv", "th", "xinv")))
    return {"w": w, "u": u}


_Q1_CARTAN_RHS = {
    # hand q->1 transcription of the w/u passage rules, for criterion 6
    "cartan:wh": [(J, ("h", "w"))],
    "cartan:uh": [(J2, ("h", "u"))],
    "cartan:xw": [(J2, ("w", "x"))],
    "cartan:xu": [(ONE, ("u", "x"))],
    "cartan:thw": [(J, ("w", "th"))],
    "cartan:thu": [(J, ("u", "th")), (ONE, ("h", "u", "x"))],
    "cartan:wdx": [(J, ("dx", "w"))],
    "cartan:udx": [(ONE, ("dx", "u"))],
    "cartan:wd2x": [(J2, ("d2x", "w"))],
    "cartan:ud2x": [(ONE, ("d2x", "u"))],
    "cartan:wd2th": [(J - J2, ("d2x", "u")), (ONE, ("d2th", "w"))],
    "cartan:uw": [(ONE, ("w", "u"))],
    "cartan:w3": [],
    "cartan:wdth": [(J, ("dth", "w")), (ONE - J2, ("th", "xinv", "dx", "w"))],
    "cartan:udth": [(ONE, ("dth", "u")), (ONE - J, ("th", "xinv", "dx", "u")),
                    (MINUS_ONE, ("h", "dx", "u"))],
    "cartan:ud2th": [(ONE, ("d2th", "u")), (J - J2, ("xinv", "th", "d2x", "u")),
                     (-J2, ("h", "d2x", "u"))],
}


def cartan_verify():
    C = _presets.cartan()
    forms = cartan_forms()
    sub = {g.name: NCPolynomial.gen(g.name) for g in C.generators}
    sub.update(forms)
    checks = []
    for r in C.rules:
        if not r.ref.startswith("cartan:"):
            continue
        diff = apply_hom(sub, NCPolynomial.word(r.lhs) - r.rhs)
        checks.append(zero_entry("substituted_" + r.ref.split(":")[1], C, diff))

    xinv_image = NCPolynomial.word(("xinv", "dx", "xinv"), MINUS_ONE)
    d = DifferentialOperator(C, images={"xinv": xinv_image})
    checks.append(zero_entry("d2_w_vanishes", C, d(d(forms["w"]), reduce=False)))
    checks.append(zero_entry("d2_u_vanishes", C, d(d(forms["u"]), reduce=False)))

    C1 = C.specialize(1)
    by_ref = {r.ref: r for r in C1.rules}
    bad = []
    for ref, terms in _Q1_CARTAN_RHS.items():
        if by_ref[ref].rhs != NCPolynomial({w: c for c, w in terms}):
            bad.append(ref)
    checks.append(flag("q1_bullet_forms", not bad, ", ".join(bad)))

    # the printed q->1 list doubles the -h dx u term of u*dth; confirm
    # the doubled variant differs from the specialized rule
    printed = (NCPolynomial.word(("dth", "u"))
               + NCPolynomial.word(("th", "xinv", "dx", "u"), ONE - J)
               + NCPolynomial.word(("h", "dx", "u"), rational(-2)))
    diff = by_ref["cartan:udth"].rhs - printed
    checks.append(flag(
        "q1_printed_udth_differs", diff == NCPolynomial.word(("h", "dx", "u")),
        witness="printed form double-counts the h dx u term"))

    # w*dth is also commonly quoted with coefficient 1 - j on the th term;
    # substitution rules that variant out (see substituted_wdth above)
    variant = (NCPolynomial.word(("dth", "w"), J)
               + NCPolynomial.word(("th", "xinv", "dx", "w"), ONE - J))
    diff = by_ref["cartan:wdth"].rhs - variant
    checks.append(flag(
        "q1_wdth_coefficient_pinned",
        diff == NCPolynomial.word(("th", "xinv", "dx", "w"), J - J2),
        witness="th coefficient must be 1 - j^2, not 1 - j"))
    return checks


_SUITES = {
    **{suite: functools.partial(_d_suite, suite) for suite in _D_SUITES},
    "partials": _suite_partials,
    "weyl": _suite_weyl,
    "cartan": cartan_verify,
}

SUITE_NAMES = tuple(_SUITES) + ("all",)


def replay(suite):
    """The report of suite; "all" prefixes each check with its suite."""
    if suite == "all":
        checks = [dict(c, name=name + "." + c["name"])
                  for name, run in _SUITES.items() for c in run()]
    elif suite in _SUITES:
        checks = _SUITES[suite]()
    else:
        raise KeyError("unknown suite %s (choose from %s)"
                       % (_echo(suite), ", ".join(SUITE_NAMES)))
    return {"suite": suite, "checks": checks, "ok": all_pass(checks)}
