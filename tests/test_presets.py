"""Shipped presentation catalog."""

import fnmatch
import hashlib
from pathlib import Path

import pytest

from z3calc import presets
from z3calc.freealg import NCPolynomial, fa_str
from z3calc.scalars import J, J2, ONE, Q
from z3calc.rewrite import BudgetExceeded, Presentation, saturate
from test_rewrite import _listed


def test_catalog_builds():
    for name in presets.PRESETS:
        P = presets.build(name)
        assert P.name == name
        assert P.rules and P.generators


# sha256 of build(name).dumps(): any change to a rule, its order, a
# coefficient or a generator of a catalog preset moves its digest
_EXPORT_SHA256 = {
    "q_plane": "35003e57ab36b9e13786c5da26cb0fdad4f53e048ec3dd43c1579117caa86dc0",
    "h_plane": "2f409e0d4fbd98890a65ba765edc77185fe9b1133a78aeb5bfe08b95335d1fcf",
    "hj_calculus": "a4795fb27cef59f573a936719c9b99bb85efdfd3fc79df33ac55244cffff973f",
    "qjh_calculus": "5e8002eb5caed2cddd2cc3d55bc5e82adb360bea7882c582da75774671aff0c5",
    "weyl": "27a71a4ea1e85b27b949d110a96dd71efabbe8dc3185bb3d61f7282987adc079",
    "cartan": "a0b829cc3adb8437622459e8293d53fabf3a5eace659545e83f4e3e55fb08735",
    "glhj": "99681896afadf20aa2190b6878e67e2c862310990ef65f2a88f061a452314c39",
    "dual_plane": "2b8e696fc0b81cf2c3f579e7fd120c4ca21d2a397668f8e96be3c66cee24a510",
    "coaction_plane": "0e3286b990df154d3118077048779a06e7469502eaa438a9970994cc2bede238",
    "coaction_dual": "8587fd0c5d3c920cd488449860cb6aa3ffc1b1e5a44f0bed14061d26285bd348",
}


@pytest.mark.parametrize("name", list(presets.PRESETS))
def test_catalog_export_pinned(name):
    text = presets.build(name).dumps()
    assert hashlib.sha256(text.encode()).hexdigest() == _EXPORT_SHA256[name]


def test_unknown_name():
    with pytest.raises(KeyError):
        presets.build("nope")


@pytest.mark.parametrize("name", ["q_plane", "h_plane", "hj_calculus",
                                  "qjh_calculus"])
def test_fully_confluent_presets(name):
    census = presets.build(name).pair_census()
    assert census["joinable"] == census["pairs"]
    assert census["unjoinable"] == []


def _contains(word, sub):
    n = len(sub)
    return any(word[i:i + n] == sub for i in range(len(word) - n + 1))


@pytest.mark.parametrize("name", ["h_plane", "qjh_calculus"])
def test_collapse_lists_are_saturated(name):
    # the hand-typed derived: rules are exactly what saturating the
    # relations and then dropping every rule whose lhs contains another
    # rule's lhs leaves
    P = presets.build(name)
    base = Presentation(name, P.generators,
                        [r for r in P.rules if not r.ref.startswith("derived:")],
                        P.order, q=P.q)
    rules = saturate(base).rules
    kept = [r for r in rules
            if not any(o is not r and _contains(r.lhs, o.lhs) for o in rules)]
    assert len(kept) == len(P.rules)
    assert {r.lhs: r.rhs for r in kept} == {r.lhs: r.rhs for r in P.rules}


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
    assert _listed(presets.build("qjh_calculus").specialize(1)) == \
        _listed(presets.build("hj_calculus"))


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
    assert list(checks.items()) == [
        ("scaling_consistency", True), ("obstructions_vanish", True),
        ("cube_constraint", True), ("xdth_h_coefficient", True),
        ("thdx_h_coefficient", True), ("wedge_h_coefficient", True),
        ("shifted_relations_reduce", True)]


def test_glhj_localized_inverts_diagonal():
    L = presets.glhj_localized()
    one = NCPolynomial.unit()
    for v, vinv in (("a", "ainv"), ("dT", "dTinv")):
        assert L.nf_word((v, vinv)) == one
        assert L.nf_word((vinv, v)) == one


# sha256 of the partial saturations behind glhj_localized: glhj is not
# confluent, so a change to which ambiguities saturate examines, or in
# what order, moves the derived rules or their order
_SATURATED_SHA256 = {
    "glhj_localized": "35bb93556e5e27a3b7b850e1fd0dd1738e9aee4f7061f7deea8cae68b862ca6a",
    "glhj": "499813955d754809c7f4209897475286224af3af12408d63facdf80a436eef4e",
}


def test_saturated_builds_pinned():
    # the build and the shipped file it is read from must both match the
    # pin, so neither can drift from the other
    texts = {
        "glhj_localized": presets._build_glhj_localized().dumps(),
        "glhj": saturate(presets.glhj(), skip=presets._gl_runaway).dumps(),
    }
    assert {k: hashlib.sha256(t.encode()).hexdigest()
            for k, t in texts.items()} == _SATURATED_SHA256
    shipped = presets._GLHJ_LOCALIZED_JSON.read_bytes()
    assert hashlib.sha256(shipped).hexdigest() == \
        _SATURATED_SHA256["glhj_localized"]


def test_glhj_localized_is_read_not_built(monkeypatch):
    def build(*args, **kwargs):
        raise AssertionError("glhj_localized() ran a build step")

    monkeypatch.setattr(presets, "saturate", build)
    monkeypatch.setattr(presets, "localize", build)
    L = presets.glhj_localized()
    assert hashlib.sha256(L.dumps().encode()).hexdigest() == \
        _SATURATED_SHA256["glhj_localized"]


def test_package_data_ships_glhj_localized():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    with open(Path(__file__).parents[1] / "pyproject.toml", "rb") as f:
        globs = tomllib.load(f)["tool"]["setuptools"]["package-data"]["z3calc"]
    assert any(fnmatch.fnmatch(presets._GLHJ_LOCALIZED_JSON.name, g)
               for g in globs)


def test_glhj_localized_returns_a_fresh_presentation():
    # no call sees the memo of another, as with every preset factory
    a, b = presets.glhj_localized(), presets.glhj_localized()
    assert a is not b
    a.normal_form(NCPolynomial.word(("a", "b", "dTinv")))
    assert a._memo and not b._memo


def test_glhj_localized_not_in_catalog():
    assert "glhj_localized" not in presets.PRESETS


if __name__ == "__main__":
    print(presets._build_glhj_localized().dumps(), end="")
