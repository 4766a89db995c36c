"""Statistical campaign observatory: replicated runs, distributions, drift.

A single simulation answers "what is the makespan?"; a *campaign*
answers "what is the makespan *distribution*, and did it move?".  This
package enumerates (app x preset x fault-scenario) cells, runs each one
``replicates`` times under seeded randomized perturbations of the
machine model (bandwidth/DRAM/clock jitter plus arrival-noise stalls),
aggregates per-cell distributions into schema-versioned manifests in
the run ledger, and statistically compares campaigns with a
Mann-Whitney rank test plus effect-size gating.

Layers:

* :mod:`repro.campaign.seeds` -- master-seed resolution and SHA-256
  sub-seed derivation (serial == parallel, bitwise);
* :mod:`repro.campaign.perturb` -- the perturbation model, sampled
  parent-side into :class:`~repro.faults.FaultScenario` draws;
* :mod:`repro.campaign.runner` -- the replicate runner (simulates the
  LU/FW designs once per replicate);
* :mod:`repro.campaign.core` -- spec, task grid, executor fan-out,
  per-cell aggregation into the campaign manifest;
* :mod:`repro.campaign.stats` -- Mann-Whitney U comparison and
  pass/warn/fail verdicts per cell;
* :mod:`repro.campaign.explain` -- root-cause explanation of flagged
  cells: paired traced re-runs diffed into blame-ranked ``explain``
  manifests (which lane grew, which model term it loads onto);
* :mod:`repro.campaign.report` -- terminal rendering, including the
  per-cell box-plot / timeline figures.

CLI: ``repro campaign run | report | check | figures``.  Docs:
``docs/observability.md`` ("Campaigns", "Explaining regressions").
"""

from .core import (
    MANIFEST_SCHEMA,
    CampaignSpec,
    campaign_tasks,
    cell_key,
    iter_cells,
    load_manifest,
    run_campaign,
)
from .explain import (
    explain_cell,
    explain_comparison,
    pick_replicate,
    replicate_task,
    run_traced,
)
from .perturb import PerturbationModel, default_model
from .report import render_check, render_figures, render_manifest, render_timeline
from .runner import CAMPAIGN_BUCKETS, run_replicate
from .seeds import SEED_ENV_VAR, derive_seed, resolve_seed
from .stats import (
    DEFAULT_ALPHA,
    DEFAULT_EFFECT,
    compare_campaigns,
    compare_cells,
    mann_whitney_u,
)

__all__ = [
    "CAMPAIGN_BUCKETS",
    "CampaignSpec",
    "DEFAULT_ALPHA",
    "DEFAULT_EFFECT",
    "MANIFEST_SCHEMA",
    "PerturbationModel",
    "SEED_ENV_VAR",
    "campaign_tasks",
    "cell_key",
    "compare_campaigns",
    "compare_cells",
    "default_model",
    "derive_seed",
    "explain_cell",
    "explain_comparison",
    "iter_cells",
    "load_manifest",
    "mann_whitney_u",
    "pick_replicate",
    "render_check",
    "render_figures",
    "render_manifest",
    "render_timeline",
    "replicate_task",
    "resolve_seed",
    "run_campaign",
    "run_replicate",
    "run_traced",
]
