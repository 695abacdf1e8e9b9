"""Verification-of-the-verifier: oracle, fault injection, budgets.

Four modules.  The synthesis pipeline imports only :mod:`budget`; the
other three are imported on first use of one of their names, so a
``repro-si synth`` run never loads them:

* :mod:`repro.verify.budget` -- cooperative state-count / wall-clock
  guards turning exponential blowups into *inconclusive* partial
  results instead of hung runs; every :class:`AnalysisContext
  <repro.pipeline.context.AnalysisContext>` carries one;
* :mod:`repro.verify.differential` -- runs the staged pipeline once on
  the production ``bitengine`` and once on the ``reference`` oracle (see
  :mod:`repro.pipeline.backends`) and diffs the claims over randomized
  specifications;
* :mod:`repro.verify.faults` -- delay storms, single-event upsets and
  stuck-at faults against synthesized netlists, plus the Figure-4
  negative control for Theorem 2;
* :mod:`repro.verify.hazard_free` -- the DeMorgan/Eichelberger ternary
  oracle over SOP covers: a derivation-independent second opinion on
  hazard freedom, cross-checked claim-for-claim against the
  circuit-level verdicts.

The pure dict-based reference analysis itself lives at
:mod:`repro.pipeline.backends.reference`.
"""

from repro._lazy import lazy_exports

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

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "budget": ("Budget", "BudgetExceeded"),
        "differential": (
            "CampaignReport",
            "DiffRecord",
            "diff_reports",
            "diff_state_graph",
            "diff_stg",
            "differential_campaign",
        ),
        "hazard_free": (
            "DeMorganClaim",
            "DeMorganReport",
            "cross_check_verdicts",
            "demorgan_check",
            "suggest_glitch_injections",
            "ternary_cover",
            "ternary_cube",
        ),
        "faults": (
            "FaultOutcome",
            "FaultReport",
            "delay_storm",
            "glitch_campaign",
            "non_mc_cover_check",
            "run_fault_injection",
            "stuck_at",
            "stuck_campaign",
        ),
    },
)
