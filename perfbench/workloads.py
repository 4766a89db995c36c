"""The benchmark's inputs: op sequences, the service catalog, digests.

Everything here is a pure function of the workload seed, so the same
seed gives the same inputs; the system under test sees only the
generated requests.  Nothing here imports ``repro`` at module level.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Any

# ----------------------------------------------------------------- sweeps

#: The paper's figure sweeps; one op is one figure call.
SWEEP_FIGURES = ("fig5", "fig6", "fig7", "fig8")


def sweep_pass(seed: int, index: int) -> list[str]:
    """The figure order of pass ``index`` (a seeded shuffle)."""
    order = list(SWEEP_FIGURES)
    random.Random(f"sweeps:{seed}:{index}").shuffle(order)
    return order


def experiment_digest(result: Any) -> str:
    """Digest of one experiment's rendered text and named checks."""
    return digest({"id": result.id, "text": result.text, "checks": result.checks})


# --------------------------------------------------------------- campaign

#: One cycle of campaign ops: apps alternate in pairs, perturbation
#: models alternate op by op (the default model has a stall burst, the
#: jitter-only model ``stall_count=0`` has none).
CAMPAIGN_CYCLE = (("lu", "stall"), ("lu", "jitter"), ("fw", "stall"), ("fw", "jitter"))

#: Replicates per campaign op (one cell).
CAMPAIGN_REPLICATES = 2

#: Campaign master seeds per (app, model); the reference holds a digest
#: for each, and a run walks the pool from a seeded offset.
CAMPAIGN_POOL = 128


def campaign_op(seed: int, index: int) -> tuple[str, str, int]:
    """``(app, model, campaign seed)`` of op ``index`` (``-1`` and below
    are warm-up ops)."""
    app, model = CAMPAIGN_CYCLE[index % len(CAMPAIGN_CYCLE)]
    offset = random.Random(f"campaign:{seed}").randrange(CAMPAIGN_POOL)
    return app, model, (offset + index // len(CAMPAIGN_CYCLE)) % CAMPAIGN_POOL


def campaign_spec(app: str, model: str, campaign_seed: int):
    from repro.campaign import CampaignSpec, PerturbationModel

    perturb = PerturbationModel() if model == "stall" else PerturbationModel(stall_count=0)
    return CampaignSpec(apps=(app,), replicates=CAMPAIGN_REPLICATES, seed=campaign_seed,
                        perturb=perturb)


def campaign_key(app: str, model: str, campaign_seed: int) -> str:
    return f"{app}/{model}/{campaign_seed}"


# ---------------------------------------------------------------- service

#: Job kinds with no seed parameter: every run submits all of them.
_LU_DESIGNS = [(n, p) for n in range(6000, 24001, 3000) for p in (3, 4, 6)]
FIXED_TEMPLATES: list[tuple[str, dict]] = (
    [("design", {"app": "lu", "n": n, "p": p}) for n, p in _LU_DESIGNS]
    + [("design", {"app": "fw", "n": n}) for n in (3072, 6144, 9216, 12288, 18432, 36864)]
    + [("design", {"app": "mm", "n": n}) for n in (6000, 12000, 18000, 24000)]
    + [("sweep", {"experiments": e}) for e in (
        ["fig5"], ["fig6"], ["fig7"], ["fig8"], ["fig9-fw"], ["ablation-presets"],
        ["ablation-blocksize"], ["ablation-partition"], ["ablation-overlap"], ["ext-mm"],
        ["ext-scaling"], ["fig5", "fig7"], ["fig9-fw", "ext-mm"])]
)

#: Seeded job families, interleaved round-robin; each template carries
#: a distinct ``seed`` parameter, so each is new work for the server.
_FAULT_VARIANTS = [
    {"apps": [app], "policies": [policy], "scenarios": [scenario]}
    for app in ("lu", "fw")
    for policy in ("degrade-static", "repartition")
    for scenario in ("degraded-link", "fpga-throttle", "dram-contention", "brownout")
]
_CAMPAIGN_VARIANTS = [
    {"apps": [app], "replicates": 2, "stalls": stalls}
    for app in ("lu", "fw") for stalls in (4, 0)
]
_TUNE_VARIANTS = [{"space": space} for space in ("fw-split", "lu-bf-l", "fig5-bf")]
_FAMILIES = (("faults", _FAULT_VARIANTS), ("campaign", _CAMPAIGN_VARIANTS),
             ("tune", _TUNE_VARIANTS))

#: The warm-up job (model only: it adds no simulation counts).
WARMUP_TEMPLATE = ("sweep", {"experiments": ["table1"]})

#: Distinct seeded-template sets; the workload seed picks one.
SERVICE_ROTATIONS = 4

#: Closed-loop client threads (one per core of the 2-core reference host).
SERVICE_CLIENTS = 2

#: Ops per client per measured second (a run lasts about ``--seconds``
#: on a quiet 2-core host), and the cap the reference covers.
SERVICE_OPS_PER_CLIENT_PER_S = 13
SERVICE_MAX_OPS_PER_CLIENT = 450

#: Prior ``service`` entries in the server's ledger at start.
LEDGER_PREFILL = 1000

#: Zipf exponent of repeat popularity.
ZIPF_S = 1.1


def template_id(template: tuple[str, dict]) -> str:
    kind, params = template
    return json.dumps([kind, params], sort_keys=True, separators=(",", ":"))


def seeded_template(rotation: int, k: int) -> tuple[str, dict]:
    kind, variants = _FAMILIES[k % len(_FAMILIES)]
    params = dict(variants[(k // len(_FAMILIES)) % len(variants)])
    params["seed"] = 1000 * rotation + k
    return kind, params


def ops_per_client(seconds: float) -> int:
    """Ops per client: a multiple of 3 (one new template per three ops)."""
    n = 3 * max(4, round(SERVICE_OPS_PER_CLIENT_PER_S * seconds / 3))
    return min(n, SERVICE_MAX_OPS_PER_CLIENT)


def service_templates(rotation: int, count: int) -> list[tuple[str, dict]]:
    """The ``count`` distinct job templates a run introduces."""
    seeded = [seeded_template(rotation, k) for k in range(max(0, count - len(FIXED_TEMPLATES)))]
    return (FIXED_TEMPLATES + seeded)[:count]


def service_schedule(seed: int, seconds: float) -> list[list[tuple[str, dict]]]:
    """Per client, the ordered job requests of one run.

    Each client owns a disjoint half of the run's templates, so a
    client's repeat always finds its earlier job finished (a cache hit,
    never an in-flight dedup) and the counts are exact.  One op in three
    introduces a new template; the others repeat an introduced one with
    Zipf-like popularity over a seeded rank.
    """
    n = ops_per_client(seconds)
    rng = random.Random(f"service:{seed}")
    templates = service_templates(seed % SERVICE_ROTATIONS, SERVICE_CLIENTS * n // 3)
    rng.shuffle(templates)
    schedules = []
    for client in range(SERVICE_CLIENTS):
        own = templates[client::SERVICE_CLIENTS]
        rank = {template_id(t): r for r, t in enumerate(rng.sample(own, len(own)))}
        introduced: list[tuple[str, dict]] = []
        ops: list[tuple[str, dict]] = []
        for block in range(n // 3):
            new_at = 0 if block == 0 else rng.randrange(3)
            for slot in range(3):
                if slot == new_at:
                    introduced.append(own[block])
                    ops.append(own[block])
                else:
                    weights = [(rank[template_id(t)] + 1) ** -ZIPF_S for t in introduced]
                    ops.append(rng.choices(introduced, weights)[0])
        schedules.append(ops)
    return schedules


def all_service_templates() -> list[tuple[str, dict]]:
    """Every template any run can submit (what the reference covers)."""
    count = SERVICE_CLIENTS * SERVICE_MAX_OPS_PER_CLIENT // 3
    out = {template_id(WARMUP_TEMPLATE): WARMUP_TEMPLATE}
    for rotation in range(SERVICE_ROTATIONS):
        for t in service_templates(rotation, count):
            out[template_id(t)] = t
    return list(out.values())


# ---------------------------------------------------------------- digests


def digest(doc: Any) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def result_checks_pass(kind: str, result: Any) -> bool:
    """The paper's own checks carried in a job result."""
    if kind == "sweep":
        return all(exp["ok"] for exp in result["experiments"].values())
    if kind == "campaign":
        return result["failures"] == 0
    return True
