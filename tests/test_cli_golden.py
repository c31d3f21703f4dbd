"""Every CLI command's exit code, stdout and stderr, pinned by digest.

COMMANDS runs each subcommand, output format and error path that the
command line offers through cli.main in process.  golden_cli.json holds
the SHA-256 of json.dumps([exit code, stdout, stderr]) of each, keyed by
its id, so a refactor of how results become text shows up here as a
changed digest.  An output change that is meant must be argued in
CHANGES.md; `PYTHONPATH=src python tests/test_cli_golden.py` then prints
the new file.
"""

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

import pytest

from z3calc import calculus, cli, presets

GOLDEN_PATH = Path(__file__).parent / "golden_cli.json"

_QJH = ("reduce", "--preset", "qjh_calculus")

# (argv, Z3CALC_STEP_BUDGET or None)
COMMANDS = (
    [(("verify", "--suite", s), None)
     for s in calculus.SUITE_NAMES + ("nope",)]
    + [(("presets", "export", p), None) for p in presets.PRESETS]
    + [(("pairs", "--preset", p), None) for p in presets.PRESETS]
    + [(("presets", "export"), None), (("presets", "list"), None)]
    + [(("supergroup", "--check", c), None)
       for c in ("comodule", "inverse", "sdet")]
    + [(("sdet", "--format", f), None) for f in ("text", "json", "latex")]
    + [((*_QJH, "x^50*dth"), None),
       (("reduce", "--preset", "hj_calculus", "x^50*dth"), None),
       ((*_QJH, "--format", "json", "x^5*dth*th"), None),
       ((*_QJH, "--format", "latex", "th*dx*x"), None),
       ((*_QJH, "1/(q+1)*(q-1)^3*x*dth"), None),
       ((*_QJH, "--format", "json", "(1+j)*q^-2*th*dx"), None),
       (("reduce", "--preset", "h_plane", "--unicode", "x*th*th"), None),
       (("reduce", "--preset", "glhj", "--q", "2", "x"), None),
       (("reduce", "--preset", "q_plane", "x/(q^2*(q+1))"), None),
       (("reduce", "--preset", "q_plane", "(q^3+q^5)/(q-1)^2*x"), None),
       ((*_QJH, "x$"), None),
       ((*_QJH, "(x"), None),
       ((*_QJH, "x^y"), None),
       (("presets", "import"), None),
       (("pairs", "--preset", "qjh_calculus"), "2"),
       (("sdet",), "50")]
)


def _id(argv, budget):
    return " ".join(argv) + ("" if budget is None
                             else " [Z3CALC_STEP_BUDGET=%s]" % budget)


def digest(argv, budget):
    """(SHA-256 hex, exit code, stdout, stderr) of cli.main(argv) under
    the given step budget.  A budgeted command finds glhj_localized
    uncached, so that sdet reloads it from its file and reduces on an
    empty memo as a cold process does, and leaves no instance whose memo
    it filled in the cache."""
    saved = os.environ.get("Z3CALC_STEP_BUDGET")
    if budget is not None:
        os.environ["Z3CALC_STEP_BUDGET"] = budget
        presets.glhj_localized.cache_clear()
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
    finally:
        if budget is not None:
            presets.glhj_localized.cache_clear()
            if saved is None:
                del os.environ["Z3CALC_STEP_BUDGET"]
            else:
                os.environ["Z3CALC_STEP_BUDGET"] = saved
    doc = json.dumps([rc, out.getvalue(), err.getvalue()])
    return (hashlib.sha256(doc.encode("utf-8")).hexdigest(), rc,
            out.getvalue(), err.getvalue())


def test_golden_covers_every_command():
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    assert len(COMMANDS) == 53
    assert sorted(golden) == sorted(_id(*c) for c in COMMANDS)


@pytest.mark.parametrize("argv,budget", COMMANDS,
                         ids=[_id(*c) for c in COMMANDS])
def test_cli_output_pinned(argv, budget):
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    sha, rc, out, err = digest(argv, budget)
    assert sha == golden[_id(argv, budget)], (rc, out[:2000], err[:2000])


if __name__ == "__main__":
    print(json.dumps({_id(*c): digest(*c)[0] for c in COMMANDS}, indent=2))
