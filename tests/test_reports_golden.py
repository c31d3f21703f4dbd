"""Pinned report documents of the supergroup checks and the replay suites.

golden_reports.json holds the exact reports: json.dumps of each
supergroup.verify(check) and the (name, status, witness) list of
calculus.replay("all").  Every report is compared as a json.dumps
string, so key order is pinned along with the values; the replay
documents are rebuilt from that list, one per suite name.
"""

import json
from pathlib import Path

import pytest

from z3calc import calculus, supergroup

GOLDEN = json.loads((Path(__file__).parent / "golden_reports.json")
                    .read_text(encoding="utf-8"))


@pytest.mark.parametrize("check", ["comodule", "inverse", "sdet"])
def test_supergroup_report_pinned(check):
    assert json.dumps(supergroup.verify(check)) == json.dumps(
        GOLDEN["supergroup"][check])


def _golden_replay(suite):
    """The replay document of suite, rebuilt from the pinned list."""
    checks = []
    for name, status, witness in GOLDEN["replay_all"]:
        prefix, _, short = name.partition(".")
        if suite == "all" or prefix == suite:
            entry = {"name": name if suite == "all" else short,
                     "status": status}
            if witness:
                entry["witness"] = witness
            checks.append(entry)
    return {"suite": suite, "checks": checks,
            "ok": all(c["status"] == "pass" for c in checks)}


def test_replay_all_pinned():
    got = [[c["name"], c["status"], c.get("witness")]
           for c in calculus.replay("all")["checks"]]
    assert got == GOLDEN["replay_all"]
    for suite in calculus.SUITE_NAMES:
        assert json.dumps(calculus.replay(suite)) == json.dumps(
            _golden_replay(suite)), suite
