"""Golden CLI transcripts: stdout and exit code of ``repro-xd1``, byte for byte.

Each case runs :func:`repro.cli.main` in a work directory that holds a
copy of the dashboard fixture ledger (``ledger.jsonl``) and two seeded
campaign manifests (``campaign.json``, ``campaign-lufw.json``), so every path a command prints is
relative and stable.  The expected stdout of case ``NAME`` is
``tests/golden/cli/NAME.txt``; every ``--help`` runs with ``COLUMNS=80``.

Regenerate (only when an output change is intended) with::

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
from pathlib import Path

import pytest

from repro.cli import main

_GOLDEN = Path(__file__).parent / "golden"
_CLI_GOLDEN = _GOLDEN / "cli"

#: Pinned for every case; the listed variables are unset.
_ENV = {"COLUMNS": "80"}
_UNSET = ("REPRO_CACHE", "REPRO_PARALLEL", "REPRO_SEED", "REPRO_FAST_PATH")

_LEDGER = ["--ledger", "ledger.jsonl"]
_MANIFEST = ["--manifest", "campaign.json"]

#: (name, argv, exit code)
_RUNS = [
    ("plan-lu", ["plan-lu"], 0),
    ("plan-fw", ["plan-fw"], 0),
    ("machines", ["machines"], 0),
    ("lu", ["lu", "--n", "12000"], 0),
    ("fw", ["fw", "--n", "18432"], 0),
    ("obs-ledger-list", ["obs", "ledger", "list", *_LEDGER], 0),
    ("obs-ledger-check", ["obs", "ledger", "check", *_LEDGER], 1),
    ("faults-report", ["faults", "report", *_LEDGER], 0),
    ("faults-report-json", ["faults", "report", *_LEDGER, "--json"], 0),
    ("campaign-report-ledger", ["campaign", "report", *_LEDGER], 0),
    ("tune-report-ledger", ["tune", "report", *_LEDGER], 0),
    ("campaign-report-manifest", ["campaign", "report", *_MANIFEST], 0),
    ("campaign-report-manifest-json", ["campaign", "report", *_MANIFEST, "--json"], 0),
    ("campaign-figures-manifest", ["campaign", "figures", *_MANIFEST], 0),
    ("campaign-run-lu-fw-json", ["campaign", "run", "--apps", "lu,fw", "--replicates", "3",
                                 "--seed", "7", "--cache", "off", "--json"], 0),
    ("obs-explain-lu-fw-json", ["obs", "explain", "--baseline", "campaign-lufw.json",
                                "--manifest", "campaign-lufw.json",
                                "--cell", "lu@xd1/nominal,fw@xd1/nominal", "--json"], 0),
    # exit-2 input errors
    ("campaign-report-no-source", ["campaign", "report"], 2),
    ("campaign-figures-no-source", ["campaign", "figures"], 2),
    ("tune-report-no-source", ["tune", "report"], 2),
    ("campaign-report-missing", ["campaign", "report", "--manifest", "missing.json"], 2),
    ("campaign-figures-missing", ["campaign", "figures", "--manifest", "missing.json"], 2),
    ("tune-report-missing", ["tune", "report", "--manifest", "missing.json"], 2),
    ("experiments-jobs-many", ["experiments", "--jobs", "many"], 2),
    ("experiments-unknown-only", ["experiments", "--only", "nope"], 2),
]

#: Every command and subcommand path whose ``--help`` is pinned.
_HELP = [
    [],
    ["lu"], ["fw"], ["plan-lu"], ["plan-fw"], ["machines"], ["validate"], ["experiments"],
    ["obs"], ["obs", "summary"], ["obs", "check"], ["obs", "ledger"],
    ["obs", "ledger", "record"], ["obs", "ledger", "list"], ["obs", "ledger", "diff"],
    ["obs", "ledger", "check"], ["obs", "dashboard"], ["obs", "explain"],
    ["faults"], ["faults", "run"], ["faults", "sweep"], ["faults", "report"],
    ["campaign"], ["campaign", "run"], ["campaign", "report"], ["campaign", "check"],
    ["campaign", "figures"],
    ["tune"], ["tune", "run"], ["tune", "report"],
    ["serve"],
    ["client"], ["client", "submit"], ["client", "status"], ["client", "wait"],
    ["client", "result"], ["client", "queue"], ["client", "pause"], ["client", "resume"],
]

CASES = _RUNS + [("-".join(["help", *path]), [*path, "--help"], 0) for path in _HELP]


def _transcript(argv: list[str]) -> tuple[int, str]:
    """``main(argv)``'s exit code and stdout (argparse exits included)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue()


def _prepare(workdir: Path) -> None:
    """The fixture ledger, a seeded two-replicate LU campaign manifest and
    a seeded three-replicate LU+FW one (the explain re-runs need both apps)."""
    shutil.copy(_GOLDEN / "dashboard_ledger.jsonl", workdir / "ledger.jsonl")
    for out, argv in (
        ("campaign.json", ["--apps", "lu", "--replicates", "2", "--stalls", "0"]),
        ("campaign-lufw.json", ["--apps", "lu,fw", "--replicates", "3"]),
    ):
        rc, _ = _transcript([
            "campaign", "run", *argv, "--seed", "7", "--cache", "off",
            "--out", str(workdir / out),
        ])
        assert rc == 0


@contextlib.contextmanager
def _pinned_env():
    with pytest.MonkeyPatch.context() as mp:
        for name, value in _ENV.items():
            mp.setenv(name, value)
        for name in _UNSET:
            mp.delenv(name, raising=False)
        yield mp


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli_golden")
    with _pinned_env():
        _prepare(path)
    return path


@pytest.mark.parametrize("name,argv,code", CASES, ids=[c[0] for c in CASES])
def test_cli_transcript_matches_golden(name, argv, code, workdir):
    with _pinned_env() as mp:
        mp.chdir(workdir)
        rc, out = _transcript(argv)
    golden = (_CLI_GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert (rc, out) == (code, golden)


def test_every_golden_file_has_a_case():
    names = {name for name, _, _ in CASES}
    assert {p.stem for p in _CLI_GOLDEN.glob("*.txt")} == names


def _regenerate() -> None:
    import tempfile

    _CLI_GOLDEN.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp, _pinned_env() as mp:
        _prepare(Path(tmp))
        mp.chdir(tmp)
        for name, argv, code in CASES:
            rc, out = _transcript(argv)
            if rc != code:
                raise SystemExit(f"{name}: exit {rc}, expected {code}")
            (_CLI_GOLDEN / f"{name}.txt").write_text(out, encoding="utf-8")
    print(f"{len(CASES)} transcripts written to {os.path.relpath(_CLI_GOLDEN)}")


if __name__ == "__main__":  # pragma: no cover
    _regenerate()
