"""Matrix coaction, inverse, superdeterminant."""

import pytest

from z3calc import presets, supergroup
from z3calc.freealg import NCPolynomial, apply_hom, fa_str
from z3calc.scalars import J


def test_coaction_preserves_plane_relation():
    Pp = presets.build("coaction_plane")
    x, th, h = (NCPolynomial.gen(n) for n in ("x", "th", "h"))
    rel = x * th - th * x - h * x * x
    coact = supergroup.plane_coaction()
    assert Pp.normal_form(apply_hom(coact, rel)).is_zero()


def test_coaction_preserves_theta_cube():
    Pp = presets.build("coaction_plane")
    th = NCPolynomial.gen("th")
    coact = supergroup.plane_coaction()
    assert Pp.normal_form(apply_hom(coact, th * th * th)).is_zero()


def test_dual_coaction_preserves_relations():
    Pd = presets.build("coaction_dual")
    phi, y, h = (NCPolynomial.gen(n) for n in ("phi", "y", "h"))
    rel = phi * y - (y * phi).scale(J) - (h * phi * phi).scale(J * J)
    coact = supergroup.dual_coaction()
    assert Pd.normal_form(apply_hom(coact, rel)).is_zero()
    assert Pd.normal_form(apply_hom(coact, phi * phi * phi)).is_zero()


def test_comodule_report():
    out = supergroup.verify_comodule()
    assert out["ok"]
    names = [i["name"] for i in out["items"]]
    assert names[:4] == ["plane_relation", "plane_cube", "dual_relation",
                         "dual_cube"]
    # one necessity probe per matrix relation group
    assert sum(1 for n in names if n.startswith("necessity_")) == 8


def test_each_relation_group_is_necessary():
    out = supergroup.verify_comodule(mutations=True)
    for item in out["items"]:
        if item["name"].startswith("necessity_"):
            assert item["status"] == "pass", item
            assert "breaks" in item.get("witness", "")


def test_comodule_without_mutations():
    out = supergroup.verify_comodule(mutations=False)
    assert out["ok"] and len(out["items"]) == 4


def test_supermatrix_multiplication_order():
    a = NCPolynomial.gen("a")
    b = NCPolynomial.gen("b")
    M = supergroup.SuperMatrix(a, NCPolynomial.zero(),
                               NCPolynomial.zero(), b)
    N = supergroup.SuperMatrix(b, NCPolynomial.zero(),
                               NCPolynomial.zero(), a)
    prod = M * N
    assert prod.entry(0, 0) == a * b  # entries multiply left to right
    assert prod.entry(1, 1) == b * a


def test_inverse_entrywise():
    out = supergroup.verify_inverse()
    assert out["ok"]
    assert len(out["items"]) == 8
    assert all(i["status"] == "pass" for i in out["items"])


def test_inverse_is_two_sided():
    L = presets.glhj_localized()
    T = supergroup.t_matrix()
    Tinv = supergroup.t_inverse()
    left = (Tinv * T).entry(0, 1)
    right = (T * Tinv).entry(0, 1)
    assert L.normal_form(left).is_zero()
    assert L.normal_form(right).is_zero()


def test_sdet_normal_form_pinned():
    nf, text, L = supergroup.sdet()
    assert text == "g*b*dTinv*dTinv + dTinv*a + 2*j*h*b*dTinv"
    assert fa_str(nf, L.order.key) == text


def test_verify_sdet():
    out = supergroup.verify_sdet()
    assert out["ok"]
    by_name = {i["name"]: i for i in out["items"]}
    assert by_name["diagonal_limit"]["witness"] == "dTinv*a"


def test_verify_dispatch():
    for check in ("comodule", "inverse", "sdet"):
        out = supergroup.verify(check)
        assert out["ok"], check
    with pytest.raises(KeyError):
        supergroup.verify("nope")
