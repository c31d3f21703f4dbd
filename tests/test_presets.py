"""Shipped presentation catalog."""

import pytest

from z3calc import presets
from z3calc.freealg import NCPolynomial, fa_str
from z3calc.scalars import J, J2, ONE, Q
from z3calc.rewrite import BudgetExceeded


def test_catalog_builds():
    for name in presets.PRESETS:
        P = presets.build(name)
        assert P.name == name
        assert P.rules and P.generators


def test_unknown_name():
    with pytest.raises(KeyError):
        presets.build("nope")


@pytest.mark.parametrize("name", ["q_plane", "h_plane", "hj_calculus",
                                  "qjh_calculus"])
def test_fully_confluent_presets(name):
    census = presets.build(name).pair_census()
    assert census["joinable"] == census["pairs"]
    assert census["unjoinable"] == []


def test_qjh_has_many_overlaps():
    assert presets.build("qjh_calculus").pair_census()["pairs"] > 50


def test_plane_relation_normal_form():
    P = presets.build("h_plane")
    nf = P.nf_word(("x", "th"))
    assert fa_str(nf, P.order.key) == "th*x + h*x*x"


def test_mixed_relation_carries_q_inverse():
    P = presets.build("qjh_calculus")
    rule = next(r for r in P.rules if r.lhs == ("th", "dx"))
    assert rule.rhs.coeff(("dx", "th")) == J * Q.inv()
    assert rule.rhs.coeff(("h", "dx", "x")) == -(J2 * Q.inv())


def test_nilpotent_cubes():
    P = presets.build("qjh_calculus")
    for letter in ("th", "h", "dx"):
        assert P.nf_word((letter,) * 3).is_zero()
    assert not P.nf_word(("x",) * 3).is_zero()
    assert not P.nf_word(("dth",) * 2).is_zero()


def test_h_commutation_weight():
    # h carries grade 2 but commutes with weight 1 factors of j
    P = presets.build("qjh_calculus")
    assert P.gens["h"].grade == 2
    assert P.gens["h"].weight == 1
    rule = next(r for r in P.rules if r.lhs == ("dx", "h"))
    assert rule.rhs.coeff(("h", "dx")) == J


def test_q_plane_is_two_letter_limit():
    P = presets.build("q_plane")
    assert set(P.gens) == {"x", "th"}
    nf = P.nf_word(("x", "th"))
    assert nf == NCPolynomial.word(("th", "x"), Q)


def test_hj_is_qjh_at_one():
    assert presets.build("qjh_calculus").specialize(1).same_rules(
        presets.build("hj_calculus"))


def test_weyl_operator_letters():
    W = presets.build("weyl")
    assert set(W.gens) == {"x", "th", "h", "px", "pth"}
    assert W.q == 1
    assert W.nf_word(("pth",) * 3).is_zero()


def test_cartan_w_cube():
    C = presets.build("cartan")
    assert C.nf_word(("w", "w", "w")).is_zero()


def test_dual_plane_exchange():
    D = presets.build("dual_plane")
    rule = next(r for r in D.rules if r.lhs == ("phi", "y"))
    assert rule.rhs.coeff(("y", "phi")) == J
    assert rule.rhs.coeff(("h", "phi", "phi")) == J2
    assert D.nf_word(("phi",) * 3).is_zero()


def test_gl_dual_row():
    # the odd entry passes the even diagonal with a bare j
    G = presets.build("glhj")
    rule = next(r for r in G.rules if r.lhs == ("a", "b"))
    assert rule.rhs == NCPolynomial.word(("b", "a"), J)
    assert G.nf_word(("b", "b", "b")).is_zero()


def test_contraction_checks():
    checks = presets.verify_contraction()
    assert checks and all(checks.values())
    assert {"obstructions_vanish", "cube_constraint",
            "shifted_relations_reduce"} <= set(checks)


def test_glhj_localized_inverts_diagonal():
    L = presets.glhj_localized()
    one = NCPolynomial.unit()
    for v, vinv in (("a", "ainv"), ("dT", "dTinv")):
        assert L.nf_word((v, vinv)) == one
        assert L.nf_word((vinv, v)) == one


def test_glhj_localized_cached():
    assert presets.glhj_localized() is presets.glhj_localized()


def test_glhj_localized_not_in_catalog():
    assert "glhj_localized" not in presets.PRESETS
