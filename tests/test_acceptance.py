"""Acceptance gate: eleven exact criteria, one printed line each.

Every check is tolerance-zero. Run `pytest -s tests/test_acceptance.py`
to see the per-criterion lines; each criterion also enforces its own
ten second budget.
"""

import json
import random
import subprocess
import sys
import time

from z3calc import calculus, presets, supergroup
from z3calc.calculus import (DifferentialOperator, d2_product_identity,
                             d_cube_vanishes, random_element, replay)
from z3calc.freealg import NCPolynomial, apply_hom, fa_str
from z3calc.scalars import J, J2, ONE


def _report(num, label, ok, started):
    elapsed = time.time() - started
    line = "criterion %02d  %-28s %s  (%.1fs)" % (
        num, label, "PASS" if ok else "FAIL", elapsed)
    print(line)
    assert ok, line
    assert elapsed < 10.0, "%s exceeded the ten second budget" % line


def test_criterion_01_preset_integrity():
    t0 = time.time()
    ok = True
    for name in presets.PRESETS:
        # build() returns the factory's presentation unchecked: this is
        # the one check that every catalog preset is homogeneous and
        # oriented
        P = presets.build(name)
        ok = ok and P.check_homogeneity() == [] and P.check_termination() == []
    _report(1, "preset integrity", ok, t0)


def test_criterion_02_confluence_census():
    t0 = time.time()
    ok = True
    for name in ("h_plane", "hj_calculus", "qjh_calculus"):
        census = presets.build(name).pair_census()
        ok = ok and census["joinable"] == census["pairs"]
        ok = ok and census["unjoinable"] == []
        if name == "qjh_calculus":
            ok = ok and census["pairs"] > 50
    _report(2, "confluence census", ok, t0)


def test_criterion_03_contraction_replay():
    t0 = time.time()
    checks = presets.verify_contraction()
    needed = {"scaling_consistency", "obstructions_vanish", "cube_constraint",
              "shifted_relations_reduce"}
    ok = needed <= set(checks) and all(checks.values())
    _report(3, "contraction replay", ok, t0)


def test_criterion_04_differential_tower():
    t0 = time.time()
    P = presets.build("qjh_calculus")
    rng = random.Random(40297)
    ok = all(d_cube_vanishes(P, random_element(P, rng, max_len=5))
             for _ in range(100))

    d = DifferentialOperator(P)
    d2x = P.normal_form(d(d(NCPolynomial.gen("x"))))
    ok = ok and not d2x.is_zero()

    letters = [g.name for g in P.generators]
    for _ in range(20):
        wa = tuple(rng.choice(letters) for _ in range(rng.randint(1, 3)))
        wb = tuple(rng.choice(letters) for _ in range(rng.randint(1, 3)))
        ok = ok and d2_product_identity(P, wa, wb)
    _report(4, "differential tower", ok, t0)


def test_criterion_05_suite_replay():
    t0 = time.time()
    ok = all(replay(name)["ok"]
             for name in ("d_stability", "first_forms", "second_forms",
                          "form_tower"))
    _report(5, "suite replay", ok, t0)


# the calculus relations transcribed by hand at q = 1, independently of
# the q-typed rows in presets: (ref, lhs, (coefficient, word), ...)
_CALCULUS_AT_ONE = [
    ("plane:xth", ("x", "th"), (ONE, ("th", "x")), (ONE, ("h", "x", "x"))),
    ("plane:th3", ("th", "th", "th")),
    ("plane:h3", ("h", "h", "h")),
    ("passage:xh", ("x", "h"), (ONE, ("h", "x"))),
    ("passage:thh", ("th", "h"), (J, ("h", "th"))),
    ("passage:dxh", ("dx", "h"), (J, ("h", "dx"))),
    ("passage:hdth", ("h", "dth"), (J, ("dth", "h"))),
    ("passage:d2xh", ("d2x", "h"), (J2, ("h", "d2x"))),
    ("passage:hd2th", ("h", "d2th"), (ONE, ("d2th", "h"))),
    ("mixed:xdx", ("x", "dx"), (J2, ("dx", "x"))),
    ("mixed:xdth", ("x", "dth"), (ONE, ("dth", "x")), (J2 - ONE, ("dx", "th")),
     (J, ("h", "dx", "x"))),
    ("mixed:thdx", ("th", "dx"), (J, ("dx", "th")), (-J2, ("h", "dx", "x"))),
    ("mixed:thdth", ("th", "dth"), (J, ("dth", "th"))),
    ("mixed2:xd2x", ("x", "d2x"), (J2, ("d2x", "x"))),
    ("mixed2:xd2th", ("x", "d2th"), (ONE, ("d2th", "x")),
     (J2 - ONE, ("d2x", "th")), (J2, ("h", "d2x", "x"))),
    ("mixed2:thd2x", ("th", "d2x"), (ONE, ("d2x", "th")),
     (-J2, ("h", "d2x", "x"))),
    ("mixed2:thd2th", ("th", "d2th"), (ONE, ("d2th", "th"))),
    ("forms:dxdth", ("dx", "dth"), (J, ("dth", "dx")), (J2, ("h", "dx", "dx"))),
    ("forms:dxd2x", ("dx", "d2x"), (J, ("d2x", "dx"))),
    ("forms:dxd2th", ("dx", "d2th"), (ONE, ("d2th", "dx")),
     (J - J2, ("d2x", "dth")), (J2, ("h", "d2x", "dx"))),
    ("forms:d2xdth", ("d2x", "dth"), (J, ("dth", "d2x")),
     (ONE, ("h", "d2x", "dx"))),
    ("forms:dthd2th", ("dth", "d2th"), (ONE, ("d2th", "dth"))),
    ("forms:d2xd2th", ("d2x", "d2th"), (J2, ("d2th", "d2x")),
     (J, ("h", "d2x", "d2x"))),
    ("forms:dx3", ("dx", "dx", "dx")),
]


def test_criterion_06_q_to_one():
    t0 = time.time()

    def relations(P):
        return [(r.ref, r.lhs, r.rhs) for r in P.rules
                if not r.ref.startswith("derived:")]

    want = [(ref, lhs, sum((NCPolynomial.word(w, c) for c, w in terms),
                           NCPolynomial.zero()))
            for ref, lhs, *terms in _CALCULUS_AT_ONE]
    ok = relations(presets.build("qjh_calculus").specialize(1)) == want
    # h_plane is the plane head of the same table
    ok = ok and relations(presets.build("h_plane")) == want[:5]

    # the q = 1 form of the invariant-form passage rules is pinned inside
    # the cartan suite
    cartan = replay("cartan")
    by_name = {c["name"]: c["status"] for c in cartan["checks"]}
    ok = ok and by_name.get("q1_bullet_forms") == "pass"

    # dual plane letters are the q = 1 forms in disguise
    H = presets.build("hj_calculus")
    sub = {"phi": NCPolynomial.gen("dx"), "y": NCPolynomial.gen("dth"),
           "h": NCPolynomial.gen("h")}
    for rule in presets.build("dual_plane").rules:
        diff = apply_hom(sub, NCPolynomial.word(rule.lhs) - rule.rhs)
        ok = ok and H.normal_form(diff).is_zero()
    _report(6, "q to one specialization", ok, t0)


def test_criterion_07_partial_identities():
    t0 = time.time()
    ok = replay("partials")["ok"] and replay("weyl")["ok"]
    _report(7, "partial identities", ok, t0)


def test_criterion_08_cartan_maurer():
    t0 = time.time()
    out = replay("cartan")
    by_name = {c["name"]: c["status"] for c in out["checks"]}
    ok = out["ok"]
    for name in ("substituted_w3", "d2_w_vanishes", "d2_u_vanishes"):
        ok = ok and by_name.get(name) == "pass"
    _report(8, "cartan-maurer forms", ok, t0)


def test_criterion_09_comodule():
    t0 = time.time()
    out = supergroup.verify_comodule(mutations=True)
    names = [i["name"] for i in out["items"]]
    ok = out["ok"]
    ok = ok and {"plane_relation", "plane_cube", "dual_relation",
                 "dual_cube"} <= set(names)
    ok = ok and sum(1 for n in names if n.startswith("necessity_")) == 8

    # odd-even matrix entry exchange and odd cube, stated directly
    G = presets.build("glhj")
    a, b = NCPolynomial.gen("a"), NCPolynomial.gen("b")
    ok = ok and G.normal_form(a * b - (b * a).scale(J)).is_zero()
    ok = ok and G.normal_form(b * b * b).is_zero()
    _report(9, "supergroup comodule", ok, t0)


def test_criterion_10_inverse_and_sdet():
    t0 = time.time()
    inv = supergroup.verify_inverse()
    ok = inv["ok"] and len(inv["items"]) == 8
    sd = supergroup.verify_sdet()
    ok = ok and sd["ok"]
    by_name = {i["name"]: i for i in sd["items"]}
    ok = ok and by_name["diagonal_limit"]["witness"] == "dTinv*a"
    _report(10, "inverse and sdet", ok, t0)


def test_criterion_11_cli_contract():
    t0 = time.time()

    def run(*args):
        return subprocess.run([sys.executable, "-m", "z3calc", *args],
                              capture_output=True, text=True)

    r1 = run("reduce", "--preset", "h_plane", "x*th")
    ok = r1.returncode == 0 and r1.stdout == "th*x + h*x*x\n"
    r2 = run("reduce", "--preset", "qjh_calculus", "--q", "1", "th*dx")
    ok = ok and r2.returncode == 0 and r2.stdout == "j*dx*th - j^2*h*dx*x\n"
    r3 = run("verify", "--suite", "all")
    ok = ok and r3.returncode == 0 and json.loads(r3.stdout)["ok"] is True
    _report(11, "cli contract", ok, t0)
