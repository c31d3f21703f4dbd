"""Coaction of the deformed 2x2 matrix algebra on the planes.

Matrix entries are written to the left of plane coordinates, so the
coacted coordinates live in the coaction presets as two-letter words.
The inverse and superdeterminant computations run in the localized
matrix algebra, whose passage rules are derived and budget-guarded
rather than termination-checked.
"""

from __future__ import annotations

from .scalars import J, J2
from .freealg import NCPolynomial, apply_hom, fa_str
from .rewrite import Presentation
from .report import all_pass, flag, zero_entry
from . import presets as _presets


def _m(*names):
    return NCPolynomial.word(names)


def plane_coaction():
    """Images of the plane coordinates under the coaction."""
    return {
        "x": _m("a", "x") + _m("b", "th"),
        "th": _m("g", "x") + _m("dT", "th"),
        "h": _m("h"),
    }


def dual_coaction():
    return {
        "phi": _m("a", "phi") + NCPolynomial.word(("b", "y"), J2),
        "y": NCPolynomial.word(("g", "phi"), J) + _m("dT", "y"),
        "h": _m("h"),
    }


# each check coacts lhs - rhs of one plane rule of coaction_plane or one
# dual-plane rule of coaction_dual
_COMODULE = {"plane_relation": "plane:xth", "plane_cube": "plane:th3",
             "dual_relation": "dual:phiy", "dual_cube": "dual:phi3"}


def _comodule_checks(Pp, Pd):
    out = {}
    for name, ref in _COMODULE.items():
        P, sigma = ((Pp, plane_coaction()) if ref.startswith("plane:")
                    else (Pd, dual_coaction()))
        r = next(r for r in P.rules if r.ref == ref)
        out[name] = P.normal_form(
            apply_hom(sigma, NCPolynomial.word(r.lhs) - r.rhs)).is_zero()
    return out


def _drop(pres, ref):
    return Presentation(pres.name + "~" + ref, pres.generators,
                        [r for r in pres.rules if r.ref != ref],
                        pres.order, q=pres.q)


def verify_comodule(mutations=True):
    """The coacted coordinates satisfy the plane relations, and every
    matrix-entry relation is necessary for that: each gl: rule of
    coaction_plane with no h in its left side is deleted in turn."""
    Pp = _presets.coaction_plane()
    Pd = _presets.coaction_dual()
    items = [flag(name, ok) for name, ok in _comodule_checks(Pp, Pd).items()]
    if mutations:
        for ref in [r.ref for r in Pp.rules
                    if r.ref.startswith("gl:") and "h" not in r.lhs]:
            res = _comodule_checks(_drop(Pp, ref), _drop(Pd, ref))
            broke = sorted(k for k, v in res.items() if not v)
            items.append(flag(
                "necessity_" + ref.split(":")[1], broke,
                "deleting %s breaks %s" % (ref, ", ".join(broke)) if broke
                else None))
    return {"check": "comodule", "items": items, "ok": all_pass(items)}


# ---------------------------------------------------------------------------
# inverse and superdeterminant

class SuperMatrix:
    """2x2 matrix over an algebra, row-major entries."""

    def __init__(self, a11, a12, a21, a22):
        self.e = ((a11, a12), (a21, a22))

    def __mul__(self, other):
        out = []
        for i in range(2):
            for k in range(2):
                acc = NCPolynomial.zero()
                for m in range(2):
                    acc = acc + self.e[i][m] * other.e[m][k]
                out.append(acc)
        return SuperMatrix(*out)

    def entry(self, i, k):
        return self.e[i][k]


def t_matrix():
    return SuperMatrix(_m("a"), _m("b"), _m("g"), _m("dT"))


def t_inverse():
    """Entrywise geometric-series inverse, exact because b and g are
    nilpotent: the series stops after the second correction."""
    A11 = (_m("ainv") + _m("ainv", "b", "dTinv", "g", "ainv")
           + _m("ainv", "b", "dTinv", "g", "ainv", "b", "dTinv", "g", "ainv"))
    A12 = (-_m("ainv", "b", "dTinv")
           - _m("ainv", "b", "dTinv", "g", "ainv", "b", "dTinv"))
    A21 = (-_m("dTinv", "g", "ainv")
           - _m("dTinv", "g", "ainv", "b", "dTinv", "g", "ainv"))
    A22 = (_m("dTinv") + _m("dTinv", "g", "ainv", "b", "dTinv")
           + _m("dTinv", "g", "ainv", "b", "dTinv", "g", "ainv", "b", "dTinv"))
    return SuperMatrix(A11, A12, A21, A22)


def verify_inverse():
    L = _presets.glhj_localized()
    T = t_matrix()
    Ti = t_inverse()
    items = []
    for label, M in (("T_Tinv", T * Ti), ("Tinv_T", Ti * T)):
        for i in range(2):
            for k in range(2):
                want = NCPolynomial.unit() if i == k else NCPolynomial.zero()
                items.append(zero_entry("%s_%d%d" % (label, i + 1, k + 1), L,
                                        M.entry(i, k) - want))
    return {"check": "inverse", "items": items, "ok": all_pass(items)}


def sdet():
    """sdet T = a (T^-1)_22, reduced in glhj_localized."""
    L = _presets.glhj_localized()
    nf = L.normal_form(_m("a") * t_inverse().entry(1, 1))
    return nf, fa_str(nf, L.order.key), L


def verify_sdet():
    nf, text, L = sdet()
    kappa = {g.name: NCPolynomial.gen(g.name) for g in L.generators}
    kappa["b"] = NCPolynomial.zero()
    kappa["g"] = NCPolynomial.zero()
    kappa["h"] = NCPolynomial.zero()
    diag = L.normal_form(apply_hom(kappa, nf))
    items = [
        flag("normal_form", True, text),
        flag("diagonal_limit", diag == _m("dTinv", "a"),
             fa_str(diag, L.order.key)),
    ]
    return {"check": "sdet", "items": items, "ok": all_pass(items)}


CHECKS = {
    "comodule": verify_comodule,
    "inverse": verify_inverse,
    "sdet": verify_sdet,
}


def verify(check):
    """The report of the check named check, a key of CHECKS."""
    return CHECKS[check]()
