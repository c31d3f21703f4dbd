"""Deterministic work counts of the in-process benchmark workloads.

    python3 tools/counts.py                           # this checkout
    python3 tools/counts.py OLD_TREE NEW_TREE --workload reduce-sym --seed 7

Timings on a shared host drift by up to 2x; these counts do not.  For
each source tree and workload, a fresh process imports the tree's own
src/z3calc and bench/workloads.py, and for each seed runs one warm round
of the workload (at seed - 1) and then counts one round at the seed, through
the workload's own begin_round, round and run, in two passes:

    opcodes     bytecodes executed (sys.settrace with f_trace_opcodes)
    py_calls    Python frames entered, generator resumptions included
    c_calls     calls of C functions (both under sys.setprofile)
    mul, add    calls of scalars.CycloRational.__mul__ and __add__

Each pass starts with its own begin_round(), so a workload that shares a
presentation within a round (verify-all) starts every pass cold.  Only
run() is counted, as the benchmark times only run(); every output of the
second pass is then checked against the workload's known answer, and a
wrong or failed request makes the exit status 1.  With --top N the N
most called C functions get a row each.

With two trees both sides are printed with their ratio, second over
first.  Bytecode counts miss work done in C (big integers, dict and
generator creation), so they go beside timings and never replace them.
glhj-cli runs its requests in child processes, which in-process counts
cannot see, so it is not offered.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("reduce-sym", "verify-all")
ROWS = ("opcodes", "py_calls", "c_calls", "mul", "add")


def _opcodes(run):
    n = 0

    def local(frame, event, arg):
        nonlocal n
        if event == "opcode":
            n += 1
        return local

    def enter(frame, event, arg):
        frame.f_trace_opcodes = True
        return local

    sys.settrace(enter)
    try:
        run()
    finally:
        sys.settrace(None)
    return {"opcodes": n}


def _calls(run, named):
    """Python and C calls of run(), and the calls of each code object in
    named (code -> row name)."""
    counts, c_names = Counter(), Counter()

    def profile(frame, event, arg):
        if event == "call":
            counts["py_calls"] += 1
            name = named.get(frame.f_code)
            if name is not None:
                counts[name] += 1
        elif event == "c_call":
            counts["c_calls"] += 1
            c_names[getattr(arg, "__qualname__", None) or repr(arg)] += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return dict(counts), c_names


def child(tree, name, seeds, top):
    """Count the workload name in this process, on tree's sources; print
    one JSON object {seed: {row: count}}, with a "c:" row for every C
    function called if top."""
    sys.path[:0] = [str(tree / "src"), str(tree / "bench")]
    os.environ.pop("Z3CALC_STEP_BUDGET", None)
    from workloads import WORKLOADS as classes
    from z3calc.scalars import CycloRational

    named = {CycloRational.__mul__.__code__: "mul",
             CycloRational.__add__.__code__: "add"}
    wl = classes[name]()
    wl.setup()
    out, wrong = {}, 0
    for seed in seeds:
        outputs = []

        def counted_round(count, seed=seed):
            wl.begin_round()
            reqs = wl.round(random.Random(seed))
            outputs[:] = []

            def run():
                for req in reqs:
                    try:
                        outputs.append((req, wl.run(req)))
                    except Exception as e:  # counted as a failure
                        outputs.append((req, e))

            return count(run)

        # warm: the caches that a process keeps across rounds
        counted_round(lambda run: run(), seed - 1)
        rows = counted_round(_opcodes)
        calls, c_names = counted_round(lambda run: _calls(run, named))
        for row in ROWS[1:]:
            rows[row] = calls.get(row, 0)
        if top:
            rows.update(("c:" + fn, n) for fn, n in c_names.items())
        for req, result in outputs:
            if isinstance(result, Exception) or not wl.check(req, result):
                wrong += 1
                print("counts: %s seed %d: %s is wrong" % (
                    name, seed, req.key()[:80]), file=sys.stderr)
        out[seed] = rows
    print(json.dumps(out))
    return 1 if wrong else 0


def _counts_of(tree, workload, seeds, top):
    """({seed: {row: count}}, exit status) of workload on tree, counted in
    a process of its own: a process that ran another workload first
    counts a few hundred opcodes more or less."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    r = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child", str(tree),
         "--workload", workload, "--seed", *map(str, seeds),
         "--top", str(top)],
        env=env, stdout=subprocess.PIPE, text=True)
    if not r.stdout.strip():
        raise SystemExit("counts: the run on %s failed (exit %d)"
                         % (tree, r.returncode))
    return json.loads(r.stdout), r.returncode


def main(argv=None):
    ap = argparse.ArgumentParser(
        description="Count the work of benchmark rounds, per source tree.")
    ap.add_argument("trees", nargs="*", type=Path, default=[ROOT],
                    help="one or two source trees (default: this checkout)")
    ap.add_argument("--workload", nargs="+", choices=WORKLOADS,
                    default=list(WORKLOADS))
    ap.add_argument("--seed", nargs="+", type=int, default=[7])
    ap.add_argument("--top", type=int, default=0,
                    help="give the N most called C functions a row each")
    ap.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child is not None:
        return child(args.child.resolve(), args.workload[0], args.seed,
                     args.top)
    if not 1 <= len(args.trees) <= 2:
        ap.error("give one or two source trees")
    for tree in args.trees:
        if not (tree / "src" / "z3calc").is_dir() or not (
                tree / "bench" / "workloads.py").is_file():
            ap.error("%s has no src/z3calc or bench/workloads.py" % tree)

    sides = [{w: _counts_of(t.resolve(), w, args.seed, args.top)
              for w in args.workload} for t in args.trees]
    for i, tree in enumerate(args.trees):
        print("%s: %s" % ("AB"[i], tree.resolve()))
    header = ["workload", "seed", "count"] + list("AB"[:len(sides)])
    if len(sides) == 2:
        header.append("B/A")
    lines = [header]
    for name in args.workload:
        for seed in map(str, args.seed):
            rows = [side[name][0][seed] for side in sides]
            keys = list(ROWS)
            for r in rows:  # the --top C functions of either side
                c = sorted((k for k in r if k.startswith("c:")),
                           key=lambda k: -r[k])
                keys += [k for k in c[:args.top] if k not in keys]
            for key in keys:
                vals = [r.get(key, 0) for r in rows]
                line = [name, seed, key] + ["{:,}".format(v) for v in vals]
                if len(vals) == 2:
                    line.append("%.4f" % (vals[1] / vals[0]) if vals[0]
                                else "-")
                lines.append(line)
    widths = [max(len(line[k]) for line in lines) for k in range(len(header))]
    for line in lines:
        print("  ".join(c.ljust(w) if k < 3 else c.rjust(w)
                        for k, (c, w) in enumerate(zip(line, widths))))
    return max(code for side in sides for _, code in side.values())


if __name__ == "__main__":
    sys.exit(main())
