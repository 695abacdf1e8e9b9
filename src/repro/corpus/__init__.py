"""`repro.corpus` — the unified, seeded design-generation subsystem.

Everything that produces *generated* (as opposed to benchmark) designs
draws from here: parametric STG families (:mod:`repro.corpus.families`),
declarative corpus recipes (:mod:`repro.corpus.spec`, JSON dialect
``repro-corpus-spec/1``), and the structurally-admitted streaming
factory (:mod:`repro.corpus.factory`).
"""

from repro.corpus.families import (
    FAMILIES,
    Family,
    alternator,
    arbiter,
    concurrent_fork,
    fuzz_specs,
    linear_pipeline,
    modulo_counter,
    random_free_choice,
    random_series_parallel,
    token_ring,
)
from repro.corpus.factory import (
    CorpusDesign,
    CorpusError,
    CorpusStats,
    admission_failure,
    corpus_stream,
    generate_corpus,
)
from repro.corpus.spec import (
    CORPUS_SPEC_SCHEMA,
    AdmissionSpec,
    CorpusSpec,
    CorpusSpecError,
    FamilySpec,
    default_families,
    dumps_corpus_spec,
    load_corpus_spec,
)

__all__ = [
    "CORPUS_SPEC_SCHEMA",
    "AdmissionSpec",
    "CorpusDesign",
    "CorpusError",
    "CorpusSpec",
    "CorpusSpecError",
    "CorpusStats",
    "FAMILIES",
    "Family",
    "FamilySpec",
    "admission_failure",
    "alternator",
    "arbiter",
    "concurrent_fork",
    "corpus_stream",
    "default_families",
    "dumps_corpus_spec",
    "fuzz_specs",
    "generate_corpus",
    "linear_pipeline",
    "load_corpus_spec",
    "modulo_counter",
    "random_free_choice",
    "random_series_parallel",
    "token_ring",
]
