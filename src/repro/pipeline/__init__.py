"""Staged synthesis pipeline over one analysis engine and its oracle.

This package is the single orchestration layer of the repo: every
end-to-end flow (CLI, library wrappers, bench harness, verify
campaigns) is a :class:`Pipeline` run over a shared
:class:`AnalysisContext`.

* :mod:`repro.pipeline.core` -- the five-stage pipeline and
  :class:`PipelineSpec`;
* :mod:`repro.pipeline.artifacts` -- the typed frozen stage artifacts
  and their fingerprint chain;
* :mod:`repro.pipeline.context` -- engine + budget + memo cache +
  profiling for one analysis world;
* :mod:`repro.pipeline.backends` -- the production ``bitengine`` and
  the ``reference`` oracle that differential checks diff it against;
* :mod:`repro.pipeline.serialize` -- one-way JSON encoders of result
  artifacts and the faithful stage-artifact codecs;
* :mod:`repro.pipeline.store` -- the content-addressed persistent
  artifact store backing :class:`AnalysisContext` memo caches on disk;
* :mod:`repro.pipeline.batch` -- corpus-level batch synthesis over a
  shared store (``repro-si batch``) on a process pool, resumable via
  manifests/journals.

Quick start::

    from repro.pipeline import AnalysisContext, Pipeline, PipelineSpec

    spec = PipelineSpec.from_benchmark("delement")
    pipeline = Pipeline(AnalysisContext())
    plan = pipeline.run(spec, until="covers")
    print(plan.implementation.equations())
"""

from repro.pipeline.artifacts import (
    CoverPlan,
    MCVerdict,
    ReachedSG,
    RegionMap,
    SynthesizedNetlist,
)
from repro.pipeline.backends import get_backend
from repro.pipeline.batch import BatchReport, DesignOutcome, run_batch
from repro.pipeline.context import AnalysisContext
from repro.pipeline.core import STAGES, Pipeline, PipelineSpec
from repro.pipeline.store import ArtifactStore

__all__ = [
    "AnalysisContext",
    "ArtifactStore",
    "BatchReport",
    "CoverPlan",
    "DesignOutcome",
    "MCVerdict",
    "Pipeline",
    "PipelineSpec",
    "ReachedSG",
    "RegionMap",
    "STAGES",
    "SynthesizedNetlist",
    "get_backend",
    "run_batch",
]
