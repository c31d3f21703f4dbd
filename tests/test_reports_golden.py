"""Pinned report documents of the supergroup checks and the replay suites.

golden_reports.json holds the exact reports: json.dumps of each
supergroup.verify(check) and the (name, status, witness) list of
calculus.replay("all").  The supergroup reports are compared as
json.dumps strings, so key order is pinned along with the values.
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


def test_replay_all_pinned():
    got = [[c["name"], c["status"], c.get("witness")]
           for c in calculus.replay("all")["checks"]]
    assert got == GOLDEN["replay_all"]
