"""Self-tests of the benchmark itself (not of z3calc).

    python3 bench/selftest.py

Checks that request lists depend on the seed only as documented, that a
corrupted expected answer on each workload is counted as a failure, that
the tracer replaces every alias of the entry points it wraps and restores
them, and that the benchmark refuses to run without the z3calc sources.
Takes about ten seconds; exits non-zero on the first failed check.
"""

from __future__ import annotations

import random
import shutil
import subprocess
import sys

import run
import tracer as tr
from workloads import WORKLOADS

from z3calc import cli, parser, presets, rewrite


def _round_keys(name, seed):
    wl = WORKLOADS[name]()
    wl.setup()
    wl.begin_round()
    return [(r.key(), repr(r.expected)) for r in wl.round(random.Random(seed))]


def check_seeds():
    for name in WORKLOADS:
        a, b = _round_keys(name, 7), _round_keys(name, 7)
        assert a == b, "%s: same seed gave different request lists" % name
        other = [_round_keys(name, s) for s in (1, 2, 3)]
        assert all(o != a for o in other), "%s: the seed changes nothing" % name
        if name == "verify-all":
            # random elements differ by seed; the kinds and the gate part do not
            def fixed(keys):
                return sorted(k for k, _ in keys if not k.startswith(("dcube:", "d2prod:")))

            def kinds(keys):
                return sorted(k.split(":")[0] for k, _ in keys)

            assert all(fixed(o) == fixed(a) and kinds(o) == kinds(a) for o in other), name
        else:
            assert all(sorted(o) == sorted(a) for o in other), \
                "%s: seeds drew from different grids" % name
        print("ok  %s: seed fixes the list, seeds share the grid" % name)


def check_corruption():
    for name in WORKLOADS:
        wl = WORKLOADS[name]()
        wl.setup()
        wl.begin_round()
        reqs = sorted(wl.round(random.Random(0)), key=lambda r: r.key())[:1]
        results = []
        run.execute(wl, reqs, results)
        assert not run.count_failures(wl, results), "%s: clean request failed" % name
        req = reqs[0]
        if isinstance(req.expected, dict):
            req.expected = dict(req.expected)
            k = sorted(req.expected)[-1]
            req.expected[k] = "corrupted"
        else:
            req.expected = "corrupted" if isinstance(req.expected, str) else not req.expected
        failed = run.count_failures(wl, results)
        assert len(failed) == 1, "%s: corrupted answer not caught" % name
        print("ok  %s: corrupted answer for %s counted as failed (fail_frac %.2f)"
              % (name, req.key(), len(failed) / len(results)))


def check_wiring():
    originals = (rewrite.saturate, rewrite.localize, parser.parse, presets.build,
                 presets.glhj_localized, cli.main)
    t = tr.Tracer()
    t.install()
    try:
        assert t.unwrapped_aliases() == [], t.unwrapped_aliases()
        assert presets.saturate is not originals[0] and presets.localize is not originals[1]
        assert cli.parse is not originals[2]
        assert all(hasattr(f, "__wrapped__") and f is getattr(presets, n)
                   for n, f in presets.PRESETS.items())
    finally:
        t.uninstall()
    assert (rewrite.saturate, rewrite.localize, parser.parse, presets.build,
            presets.glhj_localized, cli.main) == originals
    assert presets.saturate is originals[0] and cli.parse is originals[2]
    print("ok  tracer wraps every alias and restores them")


def check_refuses_without_sources():
    scratch = run.BENCH / "out" / "bare"
    shutil.rmtree(scratch, ignore_errors=True)
    shutil.copytree(run.BENCH, scratch / "bench", ignore=shutil.ignore_patterns(
        "out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", scratch)
    r = subprocess.run([sys.executable, "bench/run.py", "--workload", "reduce-sym",
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=scratch, capture_output=True, text=True, timeout=180,
                       env=dict(run.child_env(), PYTHONPATH=""))
    shutil.rmtree(scratch)
    assert r.returncode != 0 and not r.stdout.strip(), (r.returncode, r.stdout)
    print("ok  without src/ the run exits %d and prints no result" % r.returncode)


def main():
    check_seeds()
    check_wiring()
    check_refuses_without_sources()
    check_corruption()
    return 0


if __name__ == "__main__":
    sys.exit(main())
