"""Shipped presentations.

Every factory returns a fresh Presentation; build() checks that its
rules are homogeneous and oriented against its term order, and refuses
the preset otherwise.  The collapse rules (ref "derived:...") are
consequences of the listed relations, obtained by orienting differences
of overlap ambiguities; they are part of the presentation so that
reduction alone decides equality, and test_collapse_lists_are_saturated
in tests/test_presets.py re-derives the lists of h_plane and
qjh_calculus by saturation.

q conventions: presets carrying a symbolic q say so in their q field,
the rest are bound at q = 1.  Each relation, letter, order and twist
is typed once.  The q-typed plane rows head qjh_calculus, q_plane is
their h = 0 quotient, and h_plane, weyl and coaction_plane build on
them.  Those three and hj_calculus (qjh_calculus under its own name)
reach q = 1 through Presentation.specialize(1), the call that
reduce --q makes.  So do the q-typed partials: weyl's px/pth rules and
the recursion rows of calculus.PartialOperator are one table,
PARTIAL_RULES.  glhj, dual_plane and coaction_dual carry no q.  A
preset's weight table lists its letters in precedence order, one rule
in _coact_rules gives every coact: twist, and the superdeterminant is
sdet = a*(T^-1)_22, built from supergroup.t_inverse.
"""

from __future__ import annotations

import functools
import json
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

from .scalars import ONE, J, J2, Q, MINUS_ONE, jpow, qpow, rational
from .freealg import GeneratorInfo, NCPolynomial
from .rewrite import Presentation, RewriteRule, TermOrder, localize, saturate

_QI = qpow(-1)

# name -> (declared grade, effective weight, nilpotency, d image)
_GENDATA = {
    "x": (0, 0, None, "dx"),
    "th": (1, 1, 3, "dth"),
    "h": (2, 1, 3, "zero"),
    "xinv": (0, 0, None, None),
    "dx": (1, 1, 3, "d2x"),
    "dth": (2, 2, None, "d2th"),
    "d2x": (2, 2, None, "zero"),
    "d2th": (0, 0, None, "zero"),
    "px": (0, 0, None, None),
    "pth": (2, 2, 3, None),
    "w": (1, 1, 3, None),
    "u": (2, 2, None, None),
    "a": (0, 0, None, None),
    "b": (2, 2, 3, None),
    "g": (1, 1, None, None),
    "dT": (0, 0, None, None),
    "ainv": (0, 0, None, None),
    "dTinv": (0, 0, None, None),
    "phi": (2, 2, 3, None),
    "y": (0, 0, None, None),
}


def _pres(name, weights, rules, q="symbolic"):
    """The presentation over the letters of weights, whose key order is
    the precedence of the term order."""
    gens = [GeneratorInfo(g, *_GENDATA[g]) for g in weights]
    return Presentation(name, gens, rules, TermOrder(weights, list(weights)),
                        q=q)


def _rules(entries):
    out = []
    for entry in entries:
        rhs = NCPolynomial.zero()
        for coeff, word in entry[2:]:
            rhs = rhs + NCPolynomial.word(word, coeff)
        out.append(RewriteRule(tuple(entry[1]), rhs, entry[0]))
    return out


def _zero_rules(words):
    return _rules([("derived:" + ".".join(w), w) for w in words])


# ---------------------------------------------------------------------------
# plane presets

# the h-deformed plane, the head of qjh_calculus; h_plane, weyl and,
# without plane:h3, coaction_plane (whose matrix block carries gl:h3)
# build on it and specialise at q = 1
_PLANE_RULES = [
    ("plane:xth", ("x", "th"), (Q, ("th", "x")), (ONE, ("h", "x", "x"))),
    ("plane:th3", ("th", "th", "th")),
    ("plane:h3", ("h", "h", "h")),
    ("passage:xh", ("x", "h"), (ONE, ("h", "x"))),
    ("passage:thh", ("th", "h"), (Q * J, ("h", "th"))),
]

_PLANE_COLLAPSE = [
    ("h", "h", "x", "x"),
    ("h", "h", "th", "x", "x"),
    ("h", "h", "th", "th", "x", "x"),
]


def q_plane():
    # the h = 0 quotient of the plane rows
    rules = _rules([e[:2] + tuple(t for t in e[2:] if "h" not in t[1])
                    for e in _PLANE_RULES if "h" not in e[1]])
    return _pres("q_plane", {"th": 2, "x": 1}, rules)


def h_plane():
    rules = _rules(_PLANE_RULES) + _zero_rules(_PLANE_COLLAPSE)
    return _pres("h_plane", {"h": 1, "th": 2, "x": 1}, rules).specialize(1)


# ---------------------------------------------------------------------------
# first and second order calculus

_CALC_WEIGHTS = {"d2th": 5, "dth": 5, "h": 1, "d2x": 2, "dx": 2, "th": 2, "x": 1}

_CALC_COLLAPSE = [
    ("h", "h", "d2x", "d2x"),
    ("h", "h", "d2x", "dx"),
    ("h", "h", "d2x", "x"),
    ("h", "h", "d2x", "th", "x"),
    ("h", "h", "d2x", "th", "th", "x"),
    ("h", "h", "dx", "dx"),
    ("h", "h", "dx", "x"),
    ("h", "h", "dx", "th", "x"),
    ("h", "h", "dx", "th", "th", "x"),
] + _PLANE_COLLAPSE


def qjh_calculus():
    rules = _rules(_PLANE_RULES + [
        ("passage:dxh", ("dx", "h"), (J, ("h", "dx"))),
        ("passage:hdth", ("h", "dth"), (_QI * J, ("dth", "h"))),
        ("passage:d2xh", ("d2x", "h"), (J2, ("h", "d2x"))),
        ("passage:hd2th", ("h", "d2th"), (_QI, ("d2th", "h"))),
        ("mixed:xdx", ("x", "dx"), (J2, ("dx", "x"))),
        ("mixed:xdth", ("x", "dth"), (Q, ("dth", "x")), (J2 - ONE, ("dx", "th")),
         (J, ("h", "dx", "x"))),
        ("mixed:thdx", ("th", "dx"), (J * _QI, ("dx", "th")),
         (-(_QI * J2), ("h", "dx", "x"))),
        ("mixed:thdth", ("th", "dth"), (J, ("dth", "th"))),
        ("mixed2:xd2x", ("x", "d2x"), (J2, ("d2x", "x"))),
        ("mixed2:xd2th", ("x", "d2th"), (Q, ("d2th", "x")),
         (J2 - ONE, ("d2x", "th")), (J2, ("h", "d2x", "x"))),
        ("mixed2:thd2x", ("th", "d2x"), (_QI, ("d2x", "th")),
         (-(_QI * J2), ("h", "d2x", "x"))),
        ("mixed2:thd2th", ("th", "d2th"), (ONE, ("d2th", "th"))),
        ("forms:dxdth", ("dx", "dth"), (Q * J, ("dth", "dx")),
         (J2, ("h", "dx", "dx"))),
        ("forms:dxd2x", ("dx", "d2x"), (J, ("d2x", "dx"))),
        ("forms:dxd2th", ("dx", "d2th"), (Q, ("d2th", "dx")),
         (J - J2, ("d2x", "dth")), (J2, ("h", "d2x", "dx"))),
        ("forms:d2xdth", ("d2x", "dth"), (Q * J, ("dth", "d2x")),
         (ONE, ("h", "d2x", "dx"))),
        ("forms:dthd2th", ("dth", "d2th"), (ONE, ("d2th", "dth"))),
        ("forms:d2xd2th", ("d2x", "d2th"), (Q * J2, ("d2th", "d2x")),
         (J, ("h", "d2x", "d2x"))),
        ("forms:dx3", ("dx", "dx", "dx")),
    ]) + _zero_rules(_CALC_COLLAPSE)
    return _pres("qjh_calculus", _CALC_WEIGHTS, rules)


def hj_calculus():
    pres = qjh_calculus().specialize(1)
    pres.name = "hj_calculus"
    return pres


# ---------------------------------------------------------------------------
# the partial derivatives, q-typed; weyl adjoins them at q = 1

# The one table of the partials.  weyl adjoins the rules on its letters.
# The rule p*g -> ... is also the row of letter g that
# calculus.PartialOperator folds along p's axis: a term ending in px or pth
# recurses along x or th, any other term ends the recursion.  The four form
# rows come last and no preset uses them; their h-coefficients are pinned
# by well-definedness across the dx/dth exchange relations (see
# form_row_h_signs_pinned).
PARTIAL_RULES = [
    ("partial:pxx", ("px", "x"), (ONE, ()), (J2, ("x", "px")),
     (J2 - ONE, ("th", "pth")), (ONE, ("h", "x", "pth"))),
    ("partial:pthx", ("pth", "x"), (Q, ("x", "pth"))),
    ("partial:pxth", ("px", "th"), (J2 * _QI, ("th", "px")),
     (-(J2 * _QI), ("h", "x", "px"))),
    ("partial:pthth", ("pth", "th"), (ONE, ()), (J2, ("th", "pth"))),
    ("partial:pxpth", ("px", "pth"), (J * Q, ("pth", "px"))),
    ("partial:pth3", ("pth", "pth", "pth")),
    ("derived:pxh", ("px", "h"), (ONE, ("h", "px"))),
    ("derived:pthh", ("pth", "h"), (_QI * J2, ("h", "pth"))),
    ("partial:pxdx", ("px", "dx"), (J, ("dx", "px")), (J2, ("h", "dx", "pth"))),
    ("partial:pxdth", ("px", "dth"), (_QI, ("dth", "px")),
     (-(_QI * J), ("h", "dx", "px"))),
    ("partial:pthdx", ("pth", "dx"), (Q * J2, ("dx", "pth"))),
    ("partial:pthdth", ("pth", "dth"), (J2 - J, ("dx", "px")),
     (J2, ("dth", "pth"))),
]


def weyl():
    weights = {"h": 1, "th": 2, "x": 1, "pth": 2, "px": 4}
    partials = [e for e in PARTIAL_RULES if set(e[1]) <= set(weights)]
    rules = _rules(_PLANE_RULES + partials) + _zero_rules(
        [("h", "h", "x"), ("h", "h", "th", "x"), ("h", "h", "th", "th", "x")])
    return _pres("weyl", weights, rules).specialize(1)


# ---------------------------------------------------------------------------
# invertible x: Cartan letters w, u

_CARTAN_WEIGHTS = {"d2th": 5, "dth": 5, "h": 1, "d2x": 2, "dx": 2,
                   "w": 3, "u": 6, "th": 2, "x": 1}


def cartan():
    core = qjh_calculus()
    rules = []
    for r in core.rules:
        # h^2 = 0 replaces h^3 = 0 and subsumes the h^2-collapse list
        if r.ref == "plane:h3":
            rules.append(RewriteRule(("h", "h"), NCPolynomial.zero(), "plane:h2"))
        elif not r.ref.startswith("derived:"):
            rules.append(r)
    rules += _rules([
        ("cartan:wh", ("w", "h"), (J, ("h", "w"))),
        ("cartan:uh", ("u", "h"), (Q * J2, ("h", "u"))),
        ("cartan:xw", ("x", "w"), (J2, ("w", "x"))),
        ("cartan:xu", ("x", "u"), (Q, ("u", "x"))),
        ("cartan:thw", ("th", "w"), (J, ("w", "th"))),
        ("cartan:thu", ("th", "u"), (Q * J, ("u", "th")), (Q, ("h", "u", "x"))),
        ("cartan:wdx", ("w", "dx"), (J, ("dx", "w"))),
        ("cartan:udx", ("u", "dx"), (_QI, ("dx", "u"))),
        ("cartan:wd2x", ("w", "d2x"), (J2, ("d2x", "w"))),
        ("cartan:ud2x", ("u", "d2x"), (_QI, ("d2x", "u"))),
        ("cartan:wd2th", ("w", "d2th"), ((J - J2) * _QI, ("d2x", "u")),
         (ONE, ("d2th", "w"))),
        ("cartan:uw", ("u", "w"), (ONE, ("w", "u"))),
        ("cartan:w3", ("w", "w", "w")),
    ])
    loc = localize(_pres("cartan_core", _CARTAN_WEIGHTS, rules), "x", "xinv")
    xinv_rules = _rules([
        # coefficient 1 - j^2 is forced: substituting w = dx*xinv leaves a
        # residual for any other value (see substituted_wdth)
        ("cartan:wdth", ("w", "dth"), (J, ("dth", "w")),
         (ONE - J2, ("th", "xinv", "dx", "w"))),
        ("cartan:udth", ("u", "dth"), (_QI, ("dth", "u")),
         (_QI * (ONE - J), ("th", "xinv", "dx", "u")), (-_QI, ("h", "dx", "u"))),
        ("cartan:ud2th", ("u", "d2th"), (_QI, ("d2th", "u")),
         (J - J2, ("xinv", "th", "d2x", "u")), (-(_QI * J2), ("h", "d2x", "u"))),
    ])
    gens = [replace(g, nilpotency=2) if g.name == "h" else g
            for g in loc.generators]
    return Presentation("cartan", gens, loc.rules + xinv_rules, loc.order,
                        q="symbolic")


# ---------------------------------------------------------------------------
# the structure algebra of 2x2 supermatrices, q = 1

_GL_WEIGHTS = {"h": 1, "g": 3, "b": 1, "dT": 2, "a": 2}


def _glhj_rules():
    return _rules([
        ("gl:ab", ("a", "b"), (J, ("b", "a"))),
        ("gl:ag", ("a", "g"), (ONE, ("g", "a")), (ONE, ("h", "a", "a")),
         (MINUS_ONE, ("h", "a", "dT")), (ONE, ("h", "g", "b")),
         (J2, ("h", "h", "a", "b"))),
        ("gl:dTb", ("dT", "b"), (J, ("b", "dT")), (MINUS_ONE, ("h", "b", "b"))),
        ("gl:dTg", ("dT", "g"), (ONE, ("g", "dT"))),
        ("gl:b3", ("b", "b", "b")),
        # 1 - j^2 is forced by the coacted cube: any other value leaves a
        # g*g*g residue in theta-tilde cubed
        ("gl:g3", ("g", "g", "g"), (ONE - J2, ("h", "g", "g", "dT")),
         (rational(-2) * J2, ("h", "h", "g", "dT", "dT"))),
        ("gl:bg", ("b", "g"), (ONE, ("g", "b")), (ONE, ("h", "a", "b"))),
        ("gl:adT", ("a", "dT"), (ONE, ("dT", "a")), (ONE - J, ("b", "g")),
         (ONE, ("h", "b", "a"))),
        ("gl:ah", ("a", "h"), (ONE, ("h", "a"))),
        ("gl:dTh", ("dT", "h"), (ONE, ("h", "dT"))),
        ("gl:bh", ("b", "h"), (J2, ("h", "b"))),
        ("gl:gh", ("g", "h"), (J, ("h", "g"))),
        ("gl:h3", ("h", "h", "h")),
    ]) + _zero_rules([
        ("h", "h", "b", "b"),
        ("h", "h", "b", "a"),
        ("h", "h", "g", "g", "dT"),
    ]) + _rules([
        ("derived:h.h.a.a", ("h", "h", "a", "a"), (ONE, ("h", "h", "a", "dT")),
         (MINUS_ONE, ("h", "h", "g", "b"))),
    ])


def glhj():
    return _pres("glhj", _GL_WEIGHTS, _glhj_rules(), q=Fraction(1))


def _gl_runaway(word):
    # The derived collapse families h*X*dT^n*a*a -> h*X*dT^(n+1)*a and
    # their localized mirrors grow one dT (or dTinv) per step forever, so
    # saturation must cut them off.  Runs up to three are kept because
    # the inverse checks genuinely consume family members that deep.
    run = 1
    for i in range(1, len(word)):
        run = run + 1 if word[i] == word[i - 1] else 1
        if run > 3 and word[i] in ("dT", "dTinv", "a", "ainv"):
            return True
    return False


_GLHJ_LOCALIZED_JSON = Path(__file__).with_name("glhj_localized.json")


@functools.cache
def glhj_localized():
    """glhj with both diagonal entries inverted, read from the package
    file glhj_localized.json: the dumps() of _build_glhj_localized(),
    whose two saturations and two localizations cost far more than the
    read.  test_saturated_builds_pinned in tests/test_presets.py ties the
    file to the build; after a change to the build, `PYTHONPATH=src
    python tests/test_presets.py > src/z3calc/glhj_localized.json`
    rewrites it.  The result is cached: callers share one instance and
    must not mutate it.
    """
    return Presentation.from_json(
        json.loads(_GLHJ_LOCALIZED_JSON.read_text(encoding="utf-8")))


def _build_glhj_localized():
    """glhj with both diagonal entries inverted.

    The derived passage rules cannot be oriented by any additive weight
    assignment, so this presentation is not in the shipped catalog and
    reduction in it is budget-guarded rather than termination-checked.

    Localizing needs collapse relations the seventeen base rules only
    reach as critical-pair differences (the multiply-back check otherwise
    trips over ideal members such as h*h*g*b*b), so the base is saturated
    before inverting and the result is saturated again to absorb the
    relations that only appear once a diagonal entry can be cancelled.
    Both sweeps stop at the _gl_runaway cutoff, so this is a partial
    saturation, not a confluent system.
    """
    base = saturate(glhj(), skip=_gl_runaway)
    loc = localize(localize(base, "dT", "dTinv"), "a", "ainv")
    pres = saturate(loc, skip=_gl_runaway)
    pres.name = "glhj_localized"
    return pres


# ---------------------------------------------------------------------------
# the dual plane, q = 1

# shared by dual_plane and, without dual:h3, by coaction_dual, whose
# matrix block carries gl:h3
_DUAL_RULES = [
    ("dual:phiy", ("phi", "y"), (J, ("y", "phi")), (J2, ("h", "phi", "phi"))),
    ("dual:phi3", ("phi", "phi", "phi")),
    ("dual:h3", ("h", "h", "h")),
    # h passes phi and y the way it passes the degree-one and degree-two
    # form letters of the calculus
    ("dual:yh", ("y", "h"), (J2, ("h", "y"))),
    ("dual:phih", ("phi", "h"), (J, ("h", "phi"))),
]


def dual_plane():
    rules = _rules(_DUAL_RULES) + _zero_rules([("h", "h", "phi", "phi")])
    return _pres("dual_plane", {"h": 1, "y": 2, "phi": 1}, rules,
                 q=Fraction(1))


# ---------------------------------------------------------------------------
# coaction presets: matrix entries to the left of the coordinates

# coordinate c passes entry e with the twist j^(weight(e) * _COACT[c]),
# the entry grade times the coordinate grade, phi and y of grade 1 and 2
_COACT = {"x": 0, "th": 1, "phi": 1, "y": 2}


def _coact_rules(coords):
    return _rules([("coact:" + c + e, (c, e),
                    (jpow(_GENDATA[e][1] * _COACT[c]), (e, c)))
                   for c in coords for e in ("a", "b", "g", "dT")])


def coaction_plane():
    plane = [e for e in _PLANE_RULES if e[0] != "plane:h3"]
    rules = (_glhj_rules() + _rules(plane) + _coact_rules(("x", "th"))
             + _zero_rules(_PLANE_COLLAPSE))
    weights = dict(_GL_WEIGHTS, th=2, x=1)
    return _pres("coaction_plane", weights, rules).specialize(1)


def coaction_dual():
    dual = [e for e in _DUAL_RULES if e[0] != "dual:h3"]
    rules = (_glhj_rules() + _rules(dual) + _coact_rules(("phi", "y"))
             + _zero_rules([("h", "h", "phi", "phi")]))
    weights = dict(_GL_WEIGHTS, y=2, phi=1)
    return _pres("coaction_dual", weights, rules, q=Fraction(1))


# ---------------------------------------------------------------------------
# catalog

PRESETS = {
    "q_plane": q_plane,
    "h_plane": h_plane,
    "hj_calculus": hj_calculus,
    "qjh_calculus": qjh_calculus,
    "weyl": weyl,
    "cartan": cartan,
    "glhj": glhj,
    "dual_plane": dual_plane,
    "coaction_plane": coaction_plane,
    "coaction_dual": coaction_dual,
}


class BuildError(RuntimeError):
    pass


def build(name):
    try:
        factory = PRESETS[name]
    except KeyError:
        raise KeyError("unknown preset %r" % name) from None
    pres = factory()
    bad = pres.check_homogeneity()
    if bad:
        raise BuildError("%s: inhomogeneous rules: %r" % (name, bad))
    bad = pres.check_termination()
    if bad:
        raise BuildError("%s: unoriented rules: %r" % (name, bad))
    return pres


# ---------------------------------------------------------------------------
# the h -> 0 scaling limit of the calculus relations

def verify_contraction():
    """Check the change of variables that removes h from the calculus.

    The shifted letters th' = th + h x/(q-1), dth' = dth + j h dx/(q-1),
    d2th' = d2th + j^2 h d2x/(q-1) satisfy the h-free q-relations inside
    the full calculus, with the commutation matrix forced by a linear
    system whose solution is checked here coefficient by coefficient.
    Every coefficient is read from the rules of qjh_calculus.

    The result is a dict of bools, one per check, not the entries of
    calculus.replay and supergroup.verify: bench/workloads.py check()
    reads it in this shape, so it changes with that reader when the
    reports move to one schema.
    """
    P = qjh_calculus()
    rhs = {r.ref: r.rhs.coeff for r in P.rules}
    q = Q
    A = rhs["mixed:xdx"](("dx", "x"))
    B = rhs["mixed:thdth"](("dth", "th"))
    F11 = rhs["mixed:xdth"](("dth", "x"))
    F12 = rhs["mixed:xdth"](("dx", "th"))
    F21 = rhs["mixed:thdx"](("dx", "th"))
    F22 = rhs["mixed:thdx"](("dx", "x"))  # no dx*x term: zero
    F = rhs["forms:dxdth"](("dth", "dx"))
    c = (Q - ONE).inv()

    checks = {}
    checks["scaling_consistency"] = (
        F11 == q * (ONE + J * F22) and F12 == q * J * F21 - ONE
    )
    k1 = B * J2 * q - F22 * J2 * q - F11
    k2 = B * J - F21 * J2 * q - F12
    k3 = (B * J2 - F21 * q - F22 * q + A * J2 * q - F11 * J - F12 * J)
    checks["obstructions_vanish"] = k1.is_zero() and k2.is_zero() and k3.is_zero()
    checks["cube_constraint"] = (ONE + J * B + J2 * B * B).is_zero()
    checks["xdth_h_coefficient"] = (
        (F11 * J + F12 * J - A * J) * c == rhs["mixed:xdth"](("h", "dx", "x")))
    checks["thdx_h_coefficient"] = (
        (F21 * J + F22 * J - A) * c == rhs["mixed:thdx"](("h", "dx", "x")))
    checks["wedge_h_coefficient"] = (
        (F * J - J2) * c == rhs["forms:dxdth"](("h", "dx", "dx")))

    gen = NCPolynomial.gen
    word = NCPolynomial.word
    xp = gen("x")
    thp = gen("th") + word(("h", "x"), c)
    dxp = gen("dx")
    dthp = gen("dth") + word(("h", "dx"), J * c)
    relations = [
        xp * dxp - (dxp * xp).scale(A),
        xp * dthp - (dthp * xp).scale(F11) - (dxp * thp).scale(F12),
        thp * dxp - (dxp * thp).scale(F21) - (dxp * xp).scale(F22),
        thp * dthp - (dthp * thp).scale(B),
    ]
    checks["shifted_relations_reduce"] = all(
        P.normal_form(r).is_zero() for r in relations
    )
    return checks
