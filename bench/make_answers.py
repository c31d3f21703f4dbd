"""Regenerate answers/reduce_sym.json, the stored normal forms of the
reduce-sym request grid, cross-checking every entry two ways first.

    python3 bench/make_answers.py

Every entry is reduced in a fresh qjh_calculus (symbolic q), as the
benchmark's requests are, and must agree with:

  * the q = 1 specialisation: specialize_q(., 1) applied coefficientwise
    equals the hj_calculus normal form of the same input;
  * splitting: for x^n*tail entries, nf(u*v) == nf(nf(u)*nf(v)) at every
    split point w = u*v; for d(d(w)) entries, the twisted product rule for
    d^2 holds at every split point, d(d(w)) reduced only at the end gives
    the same normal form, and d^3 w = 0.

Takes a few minutes; run it only when the grid or a pinned output changes.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from z3calc import parser, presets  # noqa: E402
from z3calc.calculus import DifferentialOperator, d2_product_identity  # noqa: E402
from z3calc.freealg import NCPolynomial, fa_str  # noqa: E402
from z3calc.scalars import specialize_q  # noqa: E402

from workloads import ReduceSym  # noqa: E402


def _reduce(preset_name, kind, expr):
    P = presets.build(preset_name)
    w = parser.parse(expr, P)
    if kind == "nf":
        return P, P.normal_form(w)
    d = DifferentialOperator(P)
    return P, d(d(w))


def _at_q1(p):
    return NCPolynomial({w: specialize_q(c, 1) for w, c in p.t.items()})


def cross_check(kind, expr, P, nf):
    _, nf1 = _reduce("hj_calculus", kind, expr)
    if _at_q1(nf) != nf1:
        raise AssertionError("%s %s: q = 1 specialisation disagrees" % (kind, expr))
    S = presets.build("qjh_calculus")
    (word,) = parser.parse(expr, S).support()
    for k in range(1, len(word)):
        u, v = word[:k], word[k:]
        if kind == "nf":
            if S.normal_form(S.nf_word(u) * S.nf_word(v)) != nf:
                raise AssertionError("%s: split %d disagrees" % (expr, k))
        elif not d2_product_identity(S, u, v):
            raise AssertionError("%s: d^2 product rule fails at split %d" % (expr, k))
    if kind == "d2":
        d = DifferentialOperator(S)
        w = NCPolynomial.word(word)
        if S.normal_form(d(d(w, reduce=False), reduce=False)) != nf:
            raise AssertionError("%s: late reduction disagrees" % expr)
        if not d(nf).is_zero():
            raise AssertionError("%s: d^3 != 0" % expr)


def main():
    answers = {}
    for kind, expr in ReduceSym.grid():
        t0 = time.perf_counter()
        P, nf = _reduce("qjh_calculus", kind, expr)
        t1 = time.perf_counter()
        cross_check(kind, expr, P, nf)
        answers["%s:%s" % (kind, expr)] = fa_str(nf, P.order.key)
        print("%-3s %-14s reduce %.3fs  checks %.3fs" % (
            kind, expr, t1 - t0, time.perf_counter() - t1), flush=True)
    ReduceSym.ANSWERS.write_text(json.dumps(answers, indent=1, sort_keys=True) + "\n")
    print("wrote %d answers to %s" % (len(answers), ReduceSym.ANSWERS))


if __name__ == "__main__":
    main()
