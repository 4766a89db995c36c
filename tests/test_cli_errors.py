"""The CLI's one error boundary: bad input and ledger errors exit 2.

Every ``--ledger`` writer appends after its work is done; a ledger whose
last line is torn must turn that append into one ``error:`` line and
exit 2 -- never a traceback -- and leave the ledger's bytes alone.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.cli import main

_FIXTURE = Path(__file__).parent / "golden" / "dashboard_ledger.jsonl"

_CAMPAIGN = ["--apps", "lu", "--replicates", "2", "--stalls", "0", "--seed", "7",
             "--cache", "off"]

#: Per ``--ledger`` writer: its cheapest argv (``{m}`` is a campaign manifest).
_WRITERS = {
    "faults run": ["faults", "run"],
    "faults sweep": ["faults", "sweep", "--apps", "lu", "--scenarios", "degraded-link",
                     "--policies", "repartition", "--cache", "off"],
    "campaign run": ["campaign", "run", *_CAMPAIGN],
    "campaign check": ["campaign", "check", "--baseline", "{m}", "--manifest", "{m}"],
    "tune run": ["tune", "run", "--space", "fig5-bf", "--cache", "off"],
    "experiments": ["experiments", "--only", "table1", "--cache", "off"],
}


@pytest.fixture(scope="module")
def manifest(tmp_path_factory):
    path = tmp_path_factory.mktemp("manifest") / "campaign.json"
    assert main(["campaign", "run", *_CAMPAIGN, "--out", str(path)]) == 0
    return str(path)


@pytest.mark.parametrize("writer", sorted(_WRITERS))
def test_ledger_writer_with_torn_last_line_exits_2(writer, manifest, tmp_path, capsys):
    ledger = tmp_path / "ledger.jsonl"
    torn = _FIXTURE.read_bytes().splitlines()[0]  # a whole entry, no final newline
    ledger.write_bytes(torn)
    argv = [a.format(m=manifest) for a in _WRITERS[writer]]
    assert main([*argv, "--ledger", str(ledger)]) == 2
    last = capsys.readouterr().out.splitlines()[-1]
    assert re.fullmatch(r"error: .* torn last line.*", last), last
    assert ledger.read_bytes() == torn


def test_plan_lu_rejects_a_size_the_block_does_not_divide(capsys):
    assert main(["plan-lu", "--n", "-5"]) == 2
    assert capsys.readouterr().out == "error: b=3000 must divide n=-5\n"
