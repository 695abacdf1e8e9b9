"""Verification-of-the-verifier: oracle, fault injection, budgets.

Three pillars, none imported by the synthesis pipeline itself:

* :mod:`repro.verify.differential` -- runs the staged pipeline once on
  the production ``bitengine`` and once on the ``reference`` oracle (see
  :mod:`repro.pipeline.backends`) and diffs the claims over randomized
  specifications;
* :mod:`repro.verify.faults` -- delay storms, single-event upsets and
  stuck-at faults against synthesized netlists, plus the Figure-4
  negative control for Theorem 2;
* :mod:`repro.verify.budget` -- cooperative state-count / wall-clock
  guards turning exponential blowups into *inconclusive* partial
  results instead of hung runs;
* :mod:`repro.verify.hazard_free` -- the DeMorgan/Eichelberger ternary
  oracle over SOP covers: a derivation-independent second opinion on
  hazard freedom, cross-checked claim-for-claim against the
  circuit-level verdicts.

The pure dict-based reference analysis itself lives at
:mod:`repro.pipeline.backends.reference`.
"""

from repro.verify.budget import Budget, BudgetExceeded
from repro.verify.differential import (
    CampaignReport,
    DiffRecord,
    diff_reports,
    diff_state_graph,
    diff_stg,
    differential_campaign,
)
from repro.verify.hazard_free import (
    DeMorganClaim,
    DeMorganReport,
    cross_check_verdicts,
    demorgan_check,
    suggest_glitch_injections,
    ternary_cover,
    ternary_cube,
)
from repro.verify.faults import (
    FaultOutcome,
    FaultReport,
    delay_storm,
    glitch_campaign,
    non_mc_cover_check,
    run_fault_injection,
    stuck_at,
    stuck_campaign,
)

__all__ = [
    "Budget",
    "BudgetExceeded",
    "CampaignReport",
    "DeMorganClaim",
    "DeMorganReport",
    "DiffRecord",
    "FaultOutcome",
    "FaultReport",
    "cross_check_verdicts",
    "delay_storm",
    "demorgan_check",
    "diff_reports",
    "diff_state_graph",
    "diff_stg",
    "differential_campaign",
    "glitch_campaign",
    "non_mc_cover_check",
    "run_fault_injection",
    "stuck_at",
    "stuck_campaign",
    "suggest_glitch_injections",
    "ternary_cover",
    "ternary_cube",
]

