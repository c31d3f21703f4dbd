"""Span and counter tracing of z3calc, installed from outside the package.

Tracer.install() replaces the public entry points of each module with
wrappers that record a span (name, start, end, parent span, request id)
and the hot scalar / free-algebra operators with wrappers that only
count calls, because those run millions of times per request.  Every
alias is replaced, not just the defining attribute: presets imports
saturate and localize by name, cli imports parse by name, supergroup
imports apply_hom by name, and the preset catalog dict holds the
factories that build() calls.  uninstall() restores the originals.

layer_metrics() folds spans and counters into the per-layer figures
listed in BENCHMARK.json.  Self time is a span's duration minus the time
its direct child spans cover.
"""

from __future__ import annotations

import statistics
import sys
import time

from z3calc import calculus, cli, freealg, parser, presets, rewrite, scalars, supergroup
from z3calc.freealg import NCPolynomial
from z3calc.rewrite import BudgetExceeded, Presentation
from z3calc.scalars import CycloRational

clock = time.monotonic_ns  # system-wide on Linux, so child spans line up

NAME, START, END, PARENT, REQ, INFO = range(6)

# counters, indexes into Tracer.counts
_COUNTERS = ("scalars.mul", "scalars.add", "scalars.inv",
             "freealg.mul", "freealg.add", "freealg.scale",
             "rewrite.normal_form.terms_out", "rewrite.normal_form.max_qdeg",
             "rewrite.budget_exceeded")
_C = {name: i for i, name in enumerate(_COUNTERS)}


def _max_qdeg(p):
    deg = 0
    for c in p.t.values():
        deg = max(deg, len(c.num.c) - 1, len(c.den.c) - 1)
    return deg


def _info_critical_pairs(args, out):
    return {"preset": args[0].name, "rules": len(args[0].rules), "pairs": len(out),
            "joinable": sum(1 for p in out if p["joinable"])}


def _info_rules_in_out(args, out):
    return {"rules_in": len(args[0].rules), "rules_out": len(out.rules)}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = [0] * len(_COUNTERS)
        self.req = -1
        self._undo = []
        self._wrapped = []

    # -- wrappers -------------------------------------------------------------

    def _span(self, name, fn, info=None):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, self.req, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if info is not None:
                rec[INFO] = info(args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _normal_form(self, fn):
        counts = self.counts
        terms, qdeg, over = (_C["rewrite.normal_form.terms_out"],
                             _C["rewrite.normal_form.max_qdeg"],
                             _C["rewrite.budget_exceeded"])

        def normal_form(*args, **kwargs):
            try:
                out = fn(*args, **kwargs)
            except BudgetExceeded:
                counts[over] += 1
                raise
            counts[terms] += len(out.t)
            d = _max_qdeg(out)
            if d > counts[qdeg]:
                counts[qdeg] = d
            return out

        return self._span("rewrite.normal_form", normal_form)

    def _count(self, key, fn):
        counts, i = self.counts, _C[key]

        def wrapper(*args):
            counts[i] += 1
            return fn(*args)

        return wrapper

    # -- install / uninstall --------------------------------------------------

    def _set(self, owner, attr, new):
        old = owner.__dict__[attr]
        setattr(owner, attr, new)
        self._undo.append((owner, attr, old))

    def _everywhere(self, fn, new):
        """Replace every reference to fn held by a z3calc module."""
        for modname, mod in list(sys.modules.items()):
            if modname != "z3calc" and not modname.startswith("z3calc."):
                continue
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    self._set(mod, attr, new)
                elif isinstance(val, dict):
                    for k, v in list(val.items()):
                        if v is fn:
                            val[k] = new
                            self._undo.append((val, k, fn))

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        for cls, attr, key in ((CycloRational, "__mul__", "scalars.mul"),
                               (CycloRational, "__add__", "scalars.add"),
                               (CycloRational, "__sub__", "scalars.add"),
                               (CycloRational, "inv", "scalars.inv"),
                               (NCPolynomial, "__mul__", "freealg.mul"),
                               (NCPolynomial, "__add__", "freealg.add"),
                               (NCPolynomial, "scale", "freealg.scale")):
            self._set(cls, attr, self._count(key, cls.__dict__[attr]))

        self._set(Presentation, "normal_form",
                  self._normal_form(Presentation.__dict__["normal_form"]))
        self._set(Presentation, "critical_pairs",
                  self._span("rewrite.critical_pairs",
                             Presentation.__dict__["critical_pairs"],
                             _info_critical_pairs))
        for cls, attr, name in ((calculus.DifferentialOperator, "__call__", "calculus.d"),
                                (calculus.PartialOperator, "__call__", "calculus.partial")):
            self._set(cls, attr, self._span(name, cls.__dict__[attr]))

        functions = [
            (rewrite.saturate, "rewrite.saturate", _info_rules_in_out),
            (rewrite.localize, "rewrite.localize", _info_rules_in_out),
            (parser.parse, "parser.parse", None),
            (presets.build, "presets.build", None),
            (presets.glhj_localized, "presets.glhj_localized", None),
            (presets.verify_contraction, "presets.verify_contraction", None),
            (freealg.apply_hom, "freealg.apply_hom", None),
            (calculus.replay, "calculus.replay", None),
            (calculus.d_cube_vanishes, "calculus.d_cube_vanishes", None),
            (calculus.d2_product_identity, "calculus.d2_product_identity", None),
            (cli.main, "cli.main", None),
        ]
        functions += [(fn, "presets.factory", None) for fn in set(presets.PRESETS.values())]
        functions += [(getattr(supergroup, n), "supergroup." + n, None)
                      for n in ("verify", "verify_comodule", "verify_inverse",
                                "verify_sdet", "sdet")]
        for fn, name, info in functions:
            self._everywhere(fn, self._span(name, fn, info))
            self._wrapped.append(fn)

    def uninstall(self):
        self._wrapped = []
        while self._undo:
            owner, attr, old = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = old
            else:
                setattr(owner, attr, old)

    def unwrapped_aliases(self):
        """Names in z3calc modules or the preset catalog still bound to an
        original of a traced function; empty when the wiring is complete."""
        originals = {id(fn) for fn in self._wrapped}
        left = []
        for modname, mod in sys.modules.items():
            if modname == "z3calc" or modname.startswith("z3calc."):
                for attr, val in vars(mod).items():
                    if id(val) in originals:
                        left.append(modname + "." + attr)
        left += ["PRESETS[%r]" % k for k, v in presets.PRESETS.items()
                 if id(v) in originals]
        return left

    # -- export ---------------------------------------------------------------

    def dump(self):
        return {"spans": self.spans, "counts": dict(zip(_COUNTERS, self.counts))}


def merge(dumps):
    """Concatenate span dumps of several processes, fixing parent indexes."""
    spans, counts = [], dict.fromkeys(_COUNTERS, 0)
    for d in dumps:
        base = len(spans)
        for s in d["spans"]:
            s = list(s)
            if s[PARENT] >= 0:
                s[PARENT] += base
            spans.append(s)
        for k, v in d["counts"].items():
            counts[k] = max(counts[k], v) if k.endswith("max_qdeg") else counts[k] + v
    return {"spans": spans, "counts": counts}


def _self_times(spans):
    child = [0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def _outermost(spans, names):
    """Indexes of spans named in names with no ancestor named in names."""
    out = []
    for i, s in enumerate(spans):
        if s[NAME] not in names:
            continue
        p = s[PARENT]
        while p >= 0 and spans[p][NAME] not in names:
            p = spans[p][PARENT]
        if p < 0:
            out.append(i)
    return out


def _under(spans, i, name):
    p = spans[i][PARENT]
    while p >= 0:
        if spans[p][NAME] == name:
            return p
        p = spans[p][PARENT]
    return -1


def completion_detail(spans):
    """Per saturate/localize call: rule counts, sweeps, pairs per sweep, time."""
    stages = {}
    for i, s in enumerate(spans):
        if s[NAME] in ("rewrite.saturate", "rewrite.localize"):
            stages[i] = dict(s[INFO], stage=s[NAME].split(".")[1],
                             s=(s[END] - s[START]) / 1e9, sweeps=[])
    for i, s in enumerate(spans):
        if s[NAME] == "rewrite.critical_pairs":
            owner = _under(spans, i, "rewrite.saturate")
            if owner >= 0:
                stages[owner]["sweeps"].append(s[INFO]["pairs"])
    return [stages[i] for i in sorted(stages)]


def layer_metrics(trace):
    spans, counts = trace["spans"], trace["counts"]
    self_ns = _self_times(spans)
    calls, total, self_total = {}, {}, {}
    for s, own in zip(spans, self_ns):
        n = s[NAME]
        calls[n] = calls.get(n, 0) + 1
        total[n] = total.get(n, 0) + s[END] - s[START]
        self_total[n] = self_total.get(n, 0) + own

    def sec(ns):
        return ns / 1e9

    cp = [s[INFO] for s in spans if s[NAME] == "rewrite.critical_pairs"]
    pairs = sum(c["pairs"] for c in cp)
    stages = completion_detail(spans)
    sat = [st for st in stages if st["stage"] == "saturate"]
    loc = [st for st in stages if st["stage"] == "localize"]
    examined = sum(sum(st["sweeps"]) for st in sat)
    added = sum(st["rules_out"] - st["rules_in"] for st in sat)
    build = _outermost(spans, {"presets.build", "presets.factory"})
    sg = [n for n in calls if n.startswith("supergroup.")]

    return {
        "scalars.mul.calls": counts["scalars.mul"],
        "scalars.add.calls": counts["scalars.add"],
        "scalars.inv.calls": counts["scalars.inv"],
        "rewrite.normal_form.calls": calls.get("rewrite.normal_form", 0),
        "rewrite.normal_form.s": sec(total.get("rewrite.normal_form", 0)),
        "rewrite.normal_form.self_s": sec(self_total.get("rewrite.normal_form", 0)),
        "rewrite.normal_form.terms_out": counts["rewrite.normal_form.terms_out"],
        "rewrite.normal_form.max_qdeg": counts["rewrite.normal_form.max_qdeg"],
        "rewrite.budget_exceeded": counts["rewrite.budget_exceeded"],
        "rewrite.critical_pairs.calls": len(cp),
        "rewrite.critical_pairs.pairs": pairs,
        "rewrite.critical_pairs.s": sec(total.get("rewrite.critical_pairs", 0)),
        "rewrite.critical_pairs.joinable_frac":
            sum(c["joinable"] for c in cp) / pairs if pairs else 0.0,
        "rewrite.saturate.s": sum(st["s"] for st in sat),
        "rewrite.saturate.sweeps": sum(len(st["sweeps"]) for st in sat),
        "rewrite.saturate.pairs_examined": examined,
        "rewrite.saturate.rules_added": added,
        "rewrite.saturate.yield": added / examined if examined else 0.0,
        "rewrite.localize.s": sum(st["s"] for st in loc),
        "rewrite.localize.rules_added": sum(st["rules_out"] - st["rules_in"] for st in loc),
        "freealg.mul.calls": counts["freealg.mul"],
        "freealg.add.calls": counts["freealg.add"],
        "freealg.scale.calls": counts["freealg.scale"],
        "freealg.apply_hom.s": sec(total.get("freealg.apply_hom", 0)),
        "calculus.d.calls": calls.get("calculus.d", 0),
        "calculus.d.self_s": sec(self_total.get("calculus.d", 0)),
        "calculus.partial.calls": calls.get("calculus.partial", 0),
        "calculus.partial.self_s": sec(self_total.get("calculus.partial", 0)),
        "calculus.replay.s": sec(total.get("calculus.replay", 0)),
        "supergroup.verify.self_s": sec(sum(self_total[n] for n in sg)),
        "presets.build.calls": calls.get("presets.factory", 0),
        "presets.build.s": sec(sum(spans[i][END] - spans[i][START] for i in build)),
        "presets.glhj_localized.s": sec(total.get("presets.glhj_localized", 0)),
        "parser.parse.calls": calls.get("parser.parse", 0),
        "parser.parse.s": sec(total.get("parser.parse", 0)),
        "cli.main.s": sec(total.get("cli.main", 0)),
    }


# ---------------------------------------------------------------------------
# scalar microbenchmarks: ns per CycloRational operation on seeded operands


def scalar_operands(rng, symbolic, n=64):
    """Seeded c*q^k terms (symbolic) or Q(j) constants (q = 1)."""
    out = []
    while len(out) < n:
        c = scalars.rational(rng.choice([1, 2, 3, -1, -2, 5])) * scalars.jpow(rng.randint(0, 2))
        if rng.random() < 0.3:
            c = c + scalars.jpow(rng.randint(1, 2))
        if symbolic:
            c = c * scalars.qpow(rng.randint(-2, 3))
        if not c.is_zero():  # inv() needs nonzero operands
            out.append(c)
    return out


def _ns_per_op(op, xs, ys, reps=5):
    pairs = list(zip(xs, ys)) * 8
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter_ns()
        for a, b in pairs:
            op(a, b)
        samples.append((time.perf_counter_ns() - t0) / len(pairs))
    return statistics.median(samples)


def scalar_microbench(rng):
    sym_x, sym_y = scalar_operands(rng, True), scalar_operands(rng, True)
    q1_x, q1_y = scalar_operands(rng, False), scalar_operands(rng, False)
    return {
        "scalars.mul_ns.sym": _ns_per_op(lambda a, b: a * b, sym_x, sym_y),
        "scalars.mul_ns.q1": _ns_per_op(lambda a, b: a * b, q1_x, q1_y),
        "scalars.add_ns.sym": _ns_per_op(lambda a, b: a + b, sym_x, sym_y),
        "scalars.inv_ns.sym": _ns_per_op(lambda a, b: a.inv(), sym_x, sym_y),
    }
