"""The three benchmark workloads: request lists, execution, known answers.

A workload hands out rounds.  A round is a fixed multiset of requests;
the seed only picks the random inputs that some requests carry and the
order of the round, so every seed carries comparable work.  The run
loop executes whole rounds, so two runs of the same length on the same
host do the same work whatever their seeds.  Every request carries its
expected answer, checked after the timed loop by check().

    reduce-sym  one-shot x^n*tail reductions, and d(d(x^n*tail)), each in a
                freshly built qjh_calculus (symbolic q): scalar arithmetic
                and rewrite.normal_form do almost all the work
    verify-all  the acceptance gate's in-process traffic: replay suites,
                the contraction check, a census of every catalog preset, the
                comodule check with mutations, and batches of d^3 = 0 and
                d^2 product-rule checks sharing one qjh_calculus per round
    glhj-cli    cold `python -m z3calc` processes for sdet and the supergroup
                inverse/sdet checks, each rebuilding glhj_localized through
                saturate and localize with q = 1
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from hostspeed import HostSpeed
from z3calc import calculus, parser, presets, supergroup
from z3calc.calculus import DifferentialOperator
from z3calc.freealg import fa_str

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

CHILD_TIMEOUT = 170


def child_env():
    """Environment for z3calc child processes: this checkout's src first,
    no step budget override."""
    env = dict(os.environ)
    env.pop("Z3CALC_STEP_BUDGET", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


@dataclass
class Request:
    kind: str
    arg: object
    expected: object

    def key(self):
        return "%s:%s" % (self.kind, self.arg)


# ---------------------------------------------------------------------------


class ReduceSym:
    name = "reduce-sym"
    setup_code = ("from z3calc import calculus, parser, presets\n"
                  "presets.build('qjh_calculus')")

    # the tails with a dth or d2th letter cost ~n^3 scalar operations, the
    # others stay cheap; the d^2 requests use smaller n because d(d(w))
    # multiplies the number of words to reduce.  The grid is dense so that
    # request costs have no wide gap for a latency percentile to jump across.
    N_GRID = tuple(range(10, 35, 2))
    TAILS = ("dth", "d2th", "th*dx", "h*dth", "dth*h", "dx*dth")
    D2_N_GRID = tuple(range(4, 17))
    D2_TAILS = ("th", "dth")
    ANSWERS = BENCH / "answers" / "reduce_sym.json"

    @classmethod
    def grid(cls):
        out = [("nf", "x^%d*%s" % (n, t)) for n in cls.N_GRID for t in cls.TAILS]
        out += [("d2", "x^%d*%s" % (n, t)) for n in cls.D2_N_GRID for t in cls.D2_TAILS]
        return out

    def __init__(self):
        self.answers = json.loads(self.ANSWERS.read_text())
        self._d3_checked = {}

    def setup(self):
        self.key = presets.build("qjh_calculus").order.key

    def begin_round(self):
        pass

    def round(self, rng):
        reqs = [Request(kind, expr, self.answers["%s:%s" % (kind, expr)])
                for kind, expr in self.grid()]
        rng.shuffle(reqs)
        return reqs

    def run(self, req):
        # a fresh preset per request: one-shot callers (the CLI among them)
        # never see a warm memo
        P = presets.build("qjh_calculus")
        w = parser.parse(req.arg, P)
        if req.kind == "nf":
            return P.normal_form(w)
        d = DifferentialOperator(P)
        return d(d(w))

    def check(self, req, out):
        if fa_str(out, self.key) != req.expected:
            return False
        if req.kind == "d2":
            if req.arg not in self._d3_checked:
                self._d3_checked[req.arg] = DifferentialOperator(
                    presets.build("qjh_calculus"))(out).is_zero()
            return self._d3_checked[req.arg]
        return True


# ---------------------------------------------------------------------------


class VerifyAll:
    name = "verify-all"
    setup_code = ("from z3calc import calculus, presets, supergroup\n"
                  "presets.build('qjh_calculus')")

    N_DCUBE = 150
    N_D2 = 50
    GATED = ("h_plane", "hj_calculus", "qjh_calculus")
    QJH_PAIRS = 199

    def setup(self):
        self.shared = presets.build("qjh_calculus")
        self.letters = [g.name for g in self.shared.generators]

    def begin_round(self):
        # one shared instance per round: its memo serves every d^3 and d^2
        # check of the round, and rounds stay alike in cost and memory
        self.shared = presets.build("qjh_calculus")

    def round(self, rng):
        reqs = [Request("replay", s, "pass") for s in calculus.SUITE_NAMES if s != "all"]
        reqs.append(Request("contraction", None, True))
        for name in presets.PRESETS:
            reqs.append(Request("census", name, {
                "confluent": name in self.GATED,
                "pairs": self.QJH_PAIRS if name == "qjh_calculus" else None}))
        reqs.append(Request("comodule", None, {"items": 12, "necessity": 8}))
        for _ in range(self.N_DCUBE):
            reqs.append(Request("dcube", calculus.random_element(self.shared, rng, max_len=5),
                                True))
        for _ in range(self.N_D2):
            wa = tuple(rng.choice(self.letters) for _ in range(rng.randint(1, 3)))
            wb = tuple(rng.choice(self.letters) for _ in range(rng.randint(1, 3)))
            reqs.append(Request("d2prod", (wa, wb), True))
        rng.shuffle(reqs)
        return reqs

    def run(self, req):
        kind = req.kind
        if kind == "replay":
            return calculus.replay(req.arg)
        if kind == "contraction":
            return presets.verify_contraction()
        if kind == "census":
            return presets.build(req.arg).pair_census()
        if kind == "comodule":
            return supergroup.verify_comodule(mutations=True)
        if kind == "dcube":
            return calculus.d_cube_vanishes(self.shared, req.arg)
        if kind == "d2prod":
            return calculus.d2_product_identity(self.shared, *req.arg)
        raise ValueError("unknown request kind %r" % kind)

    def check(self, req, out):
        kind, want = req.kind, req.expected
        if kind == "replay":
            return (out["ok"] is True and bool(out["checks"])
                    and all(c["status"] == want for c in out["checks"]))
        if kind == "contraction":
            needed = {"scaling_consistency", "obstructions_vanish", "cube_constraint",
                      "shifted_relations_reduce"}
            return needed <= set(out) and all(v is want for v in out.values())
        if kind == "census":
            ok = out["pairs"] == out["joinable"] + len(out["unjoinable"])
            if want["confluent"]:
                ok = ok and out["joinable"] == out["pairs"] and out["unjoinable"] == []
            if want["pairs"] is not None:
                ok = ok and out["pairs"] == want["pairs"]
            return ok
        if kind == "comodule":
            names = [i["name"] for i in out["items"]]
            return (out["ok"] is True and len(names) == want["items"]
                    and sum(n.startswith("necessity_") for n in names) == want["necessity"])
        return out is want


# ---------------------------------------------------------------------------


SDET = "g*b*dTinv*dTinv + dTinv*a + 2*j*h*b*dTinv"


class GlhjCli:
    name = "glhj-cli"
    setup_code = "import z3calc.cli"

    COMMANDS = (
        (("sdet",), {"stdout": SDET + "\n"}),
        (("sdet", "--format", "json"), {"normal_form": SDET}),
        (("supergroup", "--check", "inverse"), {"items": 8}),
        (("supergroup", "--check", "sdet"),
         {"diagonal_limit": "dTinv*a", "normal_form": SDET}),
    )

    def __init__(self):
        self.traced = False
        self.host = HostSpeed()
        self.child_reports = []

    def setup(self):
        self.env = child_env()
        self.stdout_path = BENCH / "out" / "cli-stdout.txt"
        self.stdout_path.parent.mkdir(exist_ok=True)

    def begin_round(self):
        pass

    def round(self, rng):
        reqs = [Request("cli", argv, dict(want, rc=0)) for argv, want in self.COMMANDS]
        rng.shuffle(reqs)
        return reqs

    def run(self, req):
        if not self.traced:
            # stdout goes to a file: this process samples the host speed
            # while the child runs, and reads the output afterwards
            with open(self.stdout_path, "w+") as fh:
                proc = subprocess.Popen([sys.executable, "-m", "z3calc", *req.arg],
                                        env=self.env, cwd=ROOT, stdout=fh,
                                        stderr=subprocess.DEVNULL)
                rc = self.host.wait(proc, CHILD_TIMEOUT)
                fh.seek(0)
                return rc, fh.read()
        # the traced child runs cli.main(argv) with the tracer installed; a
        # fresh process per request, because glhj_localized is cached for the
        # life of a process
        t_spawn = time.monotonic_ns()
        r = subprocess.run([sys.executable, str(BENCH / "cli_child.py"), str(t_spawn),
                            *req.arg], env=self.env, cwd=ROOT, capture_output=True,
                           text=True, timeout=CHILD_TIMEOUT)
        if r.returncode != 0:
            raise RuntimeError("traced child failed: %s" % r.stderr.strip()[-500:])
        report = json.loads(r.stdout)
        self.child_reports.append(report)
        return report["rc"], report["stdout"]

    def check(self, req, out):
        rc, stdout = out
        want = req.expected
        if rc != want["rc"]:
            return False
        if "stdout" in want:
            return stdout == want["stdout"]
        doc = json.loads(stdout)
        if "items" in want:
            return (doc["ok"] is True and len(doc["items"]) == want["items"]
                    and all(i["status"] == "pass" for i in doc["items"]))
        if "diagonal_limit" in want:
            by_name = {i["name"]: i for i in doc["items"]}
            return (doc["ok"] is True
                    and by_name["diagonal_limit"]["witness"] == want["diagonal_limit"]
                    and by_name["normal_form"]["witness"] == want["normal_form"])
        return doc["normal_form"] == want["normal_form"]


WORKLOADS = {cls.name: cls for cls in (ReduceSym, VerifyAll, GlhjCli)}
