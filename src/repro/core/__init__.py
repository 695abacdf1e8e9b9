"""The paper's primary contribution: Monotonous Cover theory and synthesis.

* :mod:`repro.core.covers` -- cover cubes (Def. 15, Lemma 3), correct
  covering (Def. 16), monotonous covers (Def. 17) and their generalised
  form over sets of excitation regions (Def. 19), plus the search for an
  MC cube of a region.
* :mod:`repro.core.mc` -- whole-state-graph MC analysis (Def. 18) with
  per-region diagnostics; the report drives signal insertion.
* :mod:`repro.core.synthesis` -- standard C-/RS-implementations
  (Sec. III) from an MC-satisfying state graph, including the degenerate
  single-literal simplification and Section-VI gate sharing (Theorem 5).
* :mod:`repro.core.baseline` -- the Beerel--Meng-style correct-cover
  synthesis [2] used as the paper's comparison point.
* :mod:`repro.core.insertion` -- state-signal insertion by generalized
  state assignment (Sec. V): 4-valued {0,1,U,D} labellings found with the
  SAT substrate, expansion into a new state graph, and the
  generate-and-verify loop that repairs MC violations.
"""

from repro._lazy import lazy_exports

__all__ = [
    "CoverDiagnostics",
    "smallest_cover_cube",
    "is_cover_cube",
    "covers_correctly",
    "check_monotonous_cover",
    "is_monotonous_cover",
    "find_monotonous_cover",
    "check_generalized_mc",
    "find_correct_cover_cubes",
    "MCReport",
    "RegionVerdict",
    "analyze_mc",
    "Implementation",
    "SignalNetwork",
    "synthesize",
    "SynthesisError",
    "baseline_synthesize",
    "BaselineError",
    "InsertionResult",
    "insert_state_signals",
    "expand_with_signal",
    "CSCInsertionResult",
    "insert_for_csc",
    "CSCViolation",
    "complex_gate_netlist",
    "complex_gate_synthesize",
    "optimal_region_assignment",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "covers": (
            "CoverDiagnostics",
            "smallest_cover_cube",
            "is_cover_cube",
            "covers_correctly",
            "check_monotonous_cover",
            "is_monotonous_cover",
            "find_monotonous_cover",
            "check_generalized_mc",
            "find_correct_cover_cubes",
        ),
        "mc": ("MCReport", "RegionVerdict", "analyze_mc"),
        "synthesis": (
            "Implementation",
            "SignalNetwork",
            "synthesize",
            "SynthesisError",
            "CSCViolation",
        ),
        "baseline": ("baseline_synthesize", "BaselineError"),
        "insertion": ("InsertionResult", "insert_state_signals", "expand_with_signal"),
        "csc": ("CSCInsertionResult", "insert_for_csc"),
        "complexgate": ("complex_gate_netlist", "complex_gate_synthesize"),
        "optimize": ("optimal_region_assignment",),
    },
)
