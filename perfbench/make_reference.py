"""Regenerate ``reference.json``: the expected digest of every op output.

    PYTHONPATH=src python perfbench/make_reference.py

Sweeps: the digest of each figure's text and checks.  Campaign: the
digest of each pool cell's manifest.  Service: the ``result_hash`` the
server reports for every catalog template, computed here in-process
through the same runner entry point.  Run it only when a change is
meant to alter simulated results; a speed-up must leave it unchanged.
"""

import hashlib
import json
import sys
from pathlib import Path

import workloads as W

HERE = Path(__file__).resolve().parent


def result_hash(result) -> str:
    """The service's job ``result_hash`` of a result document."""
    text = json.dumps(result, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _require(ok: bool, what) -> None:
    if not ok:
        raise SystemExit(f"reference run failed its own checks: {what}")


def main() -> int:
    from repro import experiments as E
    from repro.campaign import run_campaign
    from repro.parallel import SweepExecutor
    from repro.service.jobs import normalize_request
    from repro.service.runners import RunnerContext, run_manifest

    ref: dict = {"sweeps": {}, "campaign": {}, "service": {}}
    with E.configured(jobs=1, cache=False):
        for name in W.SWEEP_FIGURES:
            res = E.ALL_EXPERIMENTS[name]()
            _require(res.ok, name)
            ref["sweeps"][name] = W.experiment_digest(res)
    for app, model in W.CAMPAIGN_CYCLE:
        for cseed in range(W.CAMPAIGN_POOL):
            manifest = run_campaign(W.campaign_spec(app, model, cseed), jobs=1, cache=False)
            _require(manifest["failures"] == 0, (app, model, cseed))
            ref["campaign"][W.campaign_key(app, model, cseed)] = W.digest(manifest)
    ctx = RunnerContext(executor=SweepExecutor(1), cache=None, jobs=1)
    templates = W.all_service_templates()
    for i, (kind, params) in enumerate(templates):
        result = run_manifest(normalize_request(kind, params), ctx)
        _require(W.result_checks_pass(kind, result), (kind, params))
        ref["service"][W.template_id((kind, params))] = result_hash(result)
        if i % 100 == 0:
            print(f"service templates: {i}/{len(templates)}", file=sys.stderr)
    (HERE / "reference.json").write_text(json.dumps(ref, indent=0, sort_keys=True) + "\n")
    print(f"wrote {len(ref['sweeps'])} sweep, {len(ref['campaign'])} campaign and "
          f"{len(ref['service'])} service digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
