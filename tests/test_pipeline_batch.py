"""Batch orchestration (`repro-si batch`): manifests, resume, process pool."""

import json
import os
import shutil

import pytest

from repro.cli import main
from repro.pipeline.batch import (
    JOURNAL_SUFFIX,
    MANIFEST_SCHEMA,
    PREFETCH_PER_JOB,
    BatchJournal,
    ResumeError,
    batch_options,
    run_batch,
)

pytestmark = pytest.mark.smoke

DATA = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "src", "repro", "bench", "data",
)
SPECS = [os.path.join(DATA, f"{name}.g") for name in
         ("delement", "nak-pa", "mp-forward-pkt")]


# ----------------------------------------------------------------------
# The library API
# ----------------------------------------------------------------------
class TestRunBatch:
    def test_cold_then_warm_shares_store(self, tmp_path):
        store = str(tmp_path / "store")
        cold = run_batch(SPECS, store=store)
        warm = run_batch(SPECS, store=store)

        assert cold.exit_code == 0 and warm.exit_code == 0
        assert [o.status for o in warm.outcomes] == ["hazard-free"] * 3
        assert warm.stats()["store_traffic"]["miss"] == 0
        assert all(
            o.store_traffic.get("hit", 0) >= 1 for o in warm.outcomes
        )
        # the manifest is cache-state independent, byte for byte
        assert cold.manifest_text() == warm.manifest_text()

    def test_manifest_shape_and_order(self, tmp_path):
        report = run_batch(list(reversed(SPECS)), store=str(tmp_path / "s"))
        manifest = report.manifest()
        assert manifest["schema"] == MANIFEST_SCHEMA
        names = [entry["name"] for entry in manifest["designs"]]
        assert names == sorted(names)  # ordered by name, not input order
        entry = manifest["designs"][0]
        assert entry["status"] == "hazard-free"
        assert entry["hazard_free"] is True
        assert entry["equations"]
        assert entry["fingerprint"]
        # nondeterministic facts stay out of the manifest
        assert "seconds" not in entry and "store_traffic" not in entry

    def test_process_pool_matches_serial(self, tmp_path):
        serial = run_batch(SPECS, store=str(tmp_path / "a"))
        fanned = run_batch(SPECS, store=str(tmp_path / "b"), jobs=2)
        assert serial.manifest_text() == fanned.manifest_text()

    def test_progress_streams_every_design(self):
        seen = []
        run_batch(SPECS[:2], progress=lambda o: seen.append(o.name))
        assert sorted(seen) == sorted(
            os.path.splitext(os.path.basename(p))[0] for p in SPECS[:2]
        )

    def test_bad_design_does_not_abort_batch(self, tmp_path):
        bad = tmp_path / "broken.g"
        bad.write_text(".model broken\n.inputs a\n.end\n")
        report = run_batch([str(bad)] + SPECS[:1])
        statuses = {o.name: o.status for o in report.outcomes}
        assert statuses["broken"] == "error"
        assert statuses["delement"] == "hazard-free"
        assert report.exit_code == 1

    def test_unsafe_and_inconsistent_specs_are_errors(self, tmp_path):
        """An unsafe or inconsistent net is an invalid specification
        (status ``error``), not a tripped budget (``inconclusive``)."""
        from tests.test_cli import BROKEN_MESSAGES, BROKEN_SPECS

        paths = []
        for kind, text in BROKEN_SPECS.items():
            path = tmp_path / f"{kind}.g"
            path.write_text(text)
            paths.append(str(path))
        report = run_batch(paths)
        by_name = {o.name: o for o in report.outcomes}
        for kind, message in BROKEN_MESSAGES.items():
            assert by_name[kind].status == "error"
            assert by_name[kind].detail.startswith("invalid specification: ")
            assert message in by_name[kind].detail
        assert report.exit_code == 1

    def test_state_cap_marks_inconclusive(self):
        report = run_batch(SPECS[:1], max_states=3)
        (outcome,) = report.outcomes
        assert outcome.status == "inconclusive"
        assert outcome.detail == "more than 3 reachable markings"
        assert report.exit_code == 3

    def test_per_design_timeout_marks_inconclusive(self):
        report = run_batch(SPECS[:1], timeout_seconds=1e-9)
        (outcome,) = report.outcomes
        assert outcome.status == "inconclusive"
        assert report.exit_code == 3

    def test_input_validation(self):
        with pytest.raises(ValueError, match="positive"):
            run_batch(SPECS, jobs=0)
        with pytest.raises(ValueError, match="no specifications"):
            run_batch([])


# ----------------------------------------------------------------------
# The CLI verb
# ----------------------------------------------------------------------
class TestBatchCli:
    def test_smoke_three_bundled_designs(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        stats = tmp_path / "stats.json"
        code = main(
            ["batch", *SPECS, "--store", str(tmp_path / "store"),
             "--manifest", str(manifest), "--stats", str(stats)]
        )
        assert code == 0
        out = capsys.readouterr()
        assert "3 design(s): 3 hazard-free" in out.out
        document = json.loads(manifest.read_text())
        assert document["schema"] == MANIFEST_SCHEMA
        assert len(document["designs"]) == 3
        traffic = json.loads(stats.read_text())["store_traffic"]
        assert traffic["miss"] == 5 * 3  # cold: every stage computed

    def test_manifest_to_stdout_by_default(self, capsys):
        code = main(["batch", SPECS[0]])
        assert code == 0
        payload = capsys.readouterr().out
        start = payload.index("{")
        document = json.loads(payload[start:])
        assert document["schema"] == MANIFEST_SCHEMA

    def test_unsafe_spec_is_an_error_row(self, tmp_path, capsys):
        from tests.test_cli import BROKEN_SPECS

        path = tmp_path / "unsafe.g"
        path.write_text(BROKEN_SPECS["unsafe"])
        assert main(["batch", str(path)]) == 1
        document = json.loads(capsys.readouterr().out.split("\n", 1)[1])
        (row,) = document["designs"]
        assert row["status"] == "error"
        assert row["detail"].startswith("invalid specification: firing 'a+'")

    def test_state_cap_is_an_inconclusive_row(self, capsys):
        assert main(["batch", SPECS[0], "--max-states", "3"]) == 3
        assert '"status": "inconclusive"' in capsys.readouterr().out

    def test_missing_file_exits_one(self, tmp_path, capsys):
        code = main(["batch", str(tmp_path / "nope.g")])
        assert code == 1
        assert '"status": "error"' in capsys.readouterr().out


# ----------------------------------------------------------------------
# The process pool: bounded prefetch, placement-free stats
# ----------------------------------------------------------------------
class TestProcessPool:
    def test_corpus_stream_drawn_within_prefetch_window(self, monkeypatch):
        import repro.corpus.factory as factory

        jobs = 2
        window = PREFETCH_PER_JOB * jobs
        spec = _fast_corpus(count=window + 4)
        pulled = []
        ahead = []
        real_stream = factory.corpus_stream

        def counting_stream(corpus):
            for design in real_stream(corpus):
                pulled.append(design.name)
                yield design

        def progress(outcome):
            # designs drawn but not yet completed, counted before this one
            ahead.append(len(pulled) - len(ahead))

        monkeypatch.setattr(factory, "corpus_stream", counting_stream)
        report = run_batch(corpus=spec, jobs=jobs, progress=progress)
        assert len(report.outcomes) == len(pulled) == spec.count
        assert max(ahead) <= window
        # the window is really used: the pool ran ahead of completions
        assert max(ahead) > jobs

    def test_stats_sidecar_sections(self, tmp_path):
        report = run_batch(SPECS, store=str(tmp_path / "s"), jobs=2)
        stats = report.stats()
        assert stats["scheduler"] == {"resume_skips": 0}
        assert "evict" in stats["store_traffic"]
        assert stats["store_traffic"]["put"] >= len(SPECS)
        assert "shards" not in stats
        assert "store_traffic_by_shard" not in stats


# ----------------------------------------------------------------------
# Resume: skip-if-done over manifests and journals
# ----------------------------------------------------------------------
class TestResume:
    def _cold(self, tmp_path, **kwargs):
        manifest = tmp_path / "manifest.json"
        report = run_batch(SPECS, store=str(tmp_path / "store"), **kwargs)
        manifest.write_text(report.manifest_text())
        return report, manifest

    def test_resume_skips_everything_fresh(self, tmp_path):
        cold, manifest = self._cold(tmp_path)
        resumed = run_batch(SPECS, resume=str(manifest))
        assert resumed.manifest_text() == cold.manifest_text()
        assert resumed.stats()["scheduler"]["resume_skips"] == len(SPECS)
        assert resumed.stats()["resumed_designs"] == sorted(
            o.name for o in cold.outcomes
        )
        assert resumed.stats()["store_traffic"]["miss"] == 0  # never ran

    def test_stale_spec_reruns_only_that_design(self, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        local = [str(corpus / os.path.basename(p)) for p in SPECS]
        for src, dst in zip(SPECS, local):
            shutil.copy(src, dst)
        cold = run_batch(local, store=str(tmp_path / "store"))
        manifest = tmp_path / "manifest.json"
        manifest.write_text(cold.manifest_text())
        # a comment edit changes the bytes (fingerprint) but nothing else
        with open(local[0], "a", encoding="utf-8") as handle:
            handle.write("# touched\n")
        resumed = run_batch(local, store=str(tmp_path / "store"),
                            resume=str(manifest))
        touched = os.path.splitext(os.path.basename(local[0]))[0]
        by_name = {o.name: o for o in resumed.outcomes}
        assert not by_name[touched].resumed
        assert all(o.resumed for n, o in by_name.items() if n != touched)
        # the re-run matches a from-scratch sweep over the edited corpus
        fresh = run_batch(local, store=str(tmp_path / "store2"))
        assert resumed.manifest_text() == fresh.manifest_text()

    def test_interrupted_sweep_resumes_from_journal(self, tmp_path):
        """Kill mid-batch, resume, merged manifest byte-identical."""
        cold = run_batch(SPECS, store=str(tmp_path / "flat"))
        manifest = tmp_path / "sweep.json"
        journal = BatchJournal(str(manifest) + JOURNAL_SUFFIX, batch_options())
        completed = []

        class Die(Exception):
            pass

        def crash_after_two(outcome):
            journal.append(outcome)
            completed.append(outcome.name)
            if len(completed) == 2:
                raise Die()

        with pytest.raises(Die):
            run_batch(SPECS, store=str(tmp_path / "pool"), jobs=2,
                      progress=crash_after_two)
        journal.close()
        assert not manifest.exists()  # died before the manifest was written
        resumed = run_batch(SPECS, store=str(tmp_path / "pool"), jobs=2,
                            resume=str(manifest))
        assert resumed.manifest_text() == cold.manifest_text()
        assert resumed.stats()["scheduler"]["resume_skips"] == 2

    def test_journal_tolerates_torn_tail(self, tmp_path):
        cold = run_batch(SPECS, store=str(tmp_path / "s"))
        manifest = tmp_path / "m.json"
        journal = BatchJournal(str(manifest) + JOURNAL_SUFFIX, batch_options())
        for outcome in cold.outcomes:
            journal.append(outcome)
        journal.close()
        with open(str(manifest) + JOURNAL_SUFFIX, "a") as handle:
            handle.write('{"schema": "repro-batch-jour')  # torn mid-write
        resumed = run_batch(SPECS, resume=str(manifest))
        assert resumed.manifest_text() == cold.manifest_text()

    def test_incompatible_options_rejected(self, tmp_path):
        _, manifest = self._cold(tmp_path)
        with pytest.raises(ResumeError, match="style"):
            run_batch(SPECS, resume=str(manifest), style="RS")

    def test_disjoint_corpus_rejected(self, tmp_path):
        _, manifest = self._cold(tmp_path)
        other = tmp_path / "other.g"
        shutil.copy(SPECS[0], other)
        with pytest.raises(ResumeError, match="no design names"):
            run_batch([str(other)], resume=str(manifest))

    def test_all_stale_rejected_not_silently_rerun(self, tmp_path):
        _, manifest = self._cold(tmp_path)
        document = json.loads(manifest.read_text())
        for row in document["designs"]:
            row["spec_fingerprint"] = "0" * 64
        manifest.write_text(json.dumps(document))
        with pytest.raises(ResumeError, match="stale"):
            run_batch(SPECS, resume=str(manifest))

    def test_v1_manifest_rejected(self, tmp_path):
        _, manifest = self._cold(tmp_path)
        document = json.loads(manifest.read_text())
        for old in ("repro-batch-manifest/1", "repro-batch-manifest/2"):
            document["schema"] = old
            manifest.write_text(json.dumps(document))
            with pytest.raises(ResumeError, match="schema"):
                run_batch(SPECS, resume=str(manifest))

    def test_missing_source_rejected(self, tmp_path):
        with pytest.raises(ResumeError, match="nothing to resume"):
            run_batch(SPECS, resume=str(tmp_path / "absent.json"))


# ----------------------------------------------------------------------
# The CLI verb: resumable end to end
# ----------------------------------------------------------------------
class TestBatchCliResume:
    def test_journal_removed_after_clean_run(self, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        assert main(["batch", *SPECS, "--manifest", str(manifest)]) == 0
        assert manifest.exists()
        assert not os.path.exists(str(manifest) + JOURNAL_SUFFIX)

    def test_pooled_resume_over_store(self, tmp_path, capsys):
        cold = tmp_path / "cold.json"
        warm = tmp_path / "warm.json"
        stats = tmp_path / "stats.json"
        assert main(["batch", *SPECS, "--manifest", str(cold)]) == 0
        code = main(
            ["batch", *SPECS, "--store", str(tmp_path / "store"),
             "--jobs", "2", "--resume", str(cold), "--manifest", str(warm),
             "--stats", str(stats)]
        )
        assert code == 0
        assert warm.read_text() == cold.read_text()
        sidecar = json.loads(stats.read_text())
        assert sidecar["scheduler"]["resume_skips"] == len(SPECS)
        assert "resumed" in capsys.readouterr().out

    def test_journal_only_resume(self, tmp_path, capsys):
        # as if the run died after every design but before the manifest
        report = run_batch(SPECS, store=str(tmp_path / "s"))
        manifest = tmp_path / "m.json"
        journal = BatchJournal(str(manifest) + JOURNAL_SUFFIX, batch_options())
        for outcome in report.outcomes:
            journal.append(outcome)
        journal.close()
        code = main(
            ["batch", *SPECS, "--resume", str(manifest),
             "--manifest", str(manifest)]
        )
        assert code == 0
        assert manifest.read_text() == report.manifest_text()
        assert not os.path.exists(str(manifest) + JOURNAL_SUFFIX)

    def test_cli_rejects_unusable_resume(self, tmp_path, capsys):
        code = main(["batch", *SPECS, "--resume", str(tmp_path / "no.json")])
        assert code == 2
        assert "nothing to resume" in capsys.readouterr().err


# ----------------------------------------------------------------------
# count-flag validation across verbs (exit 2, loud)
# ----------------------------------------------------------------------
class TestJobsValidation:
    @pytest.mark.parametrize("argv", [
        ["batch", "x.g", "--jobs", "0"],
        ["batch", "x.g", "--jobs", "-2"],
        ["serve", "--workers", "0"],
        ["synth", "x.g", "--max-models", "0"],
        ["synth", "x.g", "--max-models", "-3"],
        ["batch", "x.g", "--max-models", "0"],
        ["batch", "x.g", "--max-states", "0"],
        ["diff", "--max-states", "-1"],
        ["check", "x.g", "n.json", "--max-states", "0"],
        ["verify", "x.g", "--budget-states", "-5"],
        ["verify", "x.g", "--fault-runs", "0"],
        ["simulate", "x.g", "--runs", "-1"],
        ["simulate", "x.g", "--events", "0"],
        ["diff", "--count", "-1"],
        ["diff", "--count", "banana"],
        ["serve", "--job-max-states", "0"],
        ["serve", "--max-queued", "0"],
        ["serve", "--memo-entries", "0"],
        ["serve", "--keep-jobs", "0"],
        ["serve", "--keep-jobs", "2.5"],
    ])
    def test_non_positive_counts_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "positive integer" in err or "invalid" in err

    @pytest.mark.parametrize("argv", [
        ["batch", "x.g", "--shards", "2"],
        ["batch", "x.g", "--remote-store", "d"],
        ["batch", "x.g", "--store-put-rate", "5"],
        ["serve", "--shards", "2"],
        ["serve", "--remote-store", "d"],
        ["synth", "x.g", "--backend", "reference"],
        ["info", "x.g", "--jobs", "2"],
        ["table1", "--jobs", "2"],
        ["diff", "--backend", "bitengine"],
        ["serve", "--backend", "bitengine"],
        ["info", "x.g", "--backend", "reference"],
        ["verify", "x.g", "--backend", "reference"],
        ["table1", "--backend", "reference"],
        ["batch", "x.g", "--backend", "reference"],
        ["synth", "x.g", "--jobs", "2"],
        ["verify", "x.g", "--jobs", "2"],
        ["diff", "--jobs", "2"],
    ])
    def test_removed_flags_are_unknown(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_jobs_one_accepted(self, capsys):
        assert main(["batch", SPECS[0], "--jobs", "1"]) == 0


# ----------------------------------------------------------------------
# Corpus-backed sweeps (--corpus): streaming generation into the batch
# ----------------------------------------------------------------------
def _fast_corpus(count=6, seed=11):
    from repro.corpus import CorpusSpec, FamilySpec

    return CorpusSpec(
        count=count,
        seed=seed,
        families=(
            FamilySpec("token_ring", params={"channels": (2, 4)}),
            FamilySpec("linear_pipeline", params={"stages": (2, 4)}),
            FamilySpec("arbiter", params={"clients": (2, 3)}),
        ),
        name_prefix="batchcorp",
    )


class TestCorpusBatch:
    def test_serial_pooled_and_resumed_manifests_identical(self, tmp_path):
        spec = _fast_corpus()
        flat = run_batch(corpus=spec, store=str(tmp_path / "a"))
        assert flat.exit_code == 0
        assert len(flat.outcomes) == spec.count

        pooled = run_batch(corpus=spec, store=str(tmp_path / "b"), jobs=2)
        assert flat.manifest_text() == pooled.manifest_text()

        manifest = tmp_path / "corpus-manifest.json"
        manifest.write_text(flat.manifest_text())
        resumed = run_batch(
            corpus=spec, store=str(tmp_path / "a"), resume=str(manifest)
        )
        assert resumed.manifest_text() == flat.manifest_text()
        assert resumed.stats()["scheduler"]["resume_skips"] == spec.count

    def test_spec_ids_and_seed_in_stats(self, tmp_path):
        spec = _fast_corpus(count=3)
        report = run_batch(corpus=spec, store=str(tmp_path / "s"))
        assert report.stats()["seed"] == spec.seed
        for entry in report.manifest()["designs"]:
            assert entry["spec"].startswith("corpus:batchcorp-")
        # file-based sweeps have no generation seed to record
        plain = run_batch(SPECS[:1])
        assert plain.stats()["seed"] is None

    def test_corpus_and_specs_are_mutually_exclusive(self):
        with pytest.raises(ValueError, match="not both"):
            run_batch(SPECS[:1], corpus=_fast_corpus(count=1))

    def test_neither_specs_nor_corpus_rejected(self):
        with pytest.raises(ValueError, match="no specifications"):
            run_batch()

    def test_unrelated_resume_fails_loudly(self, tmp_path):
        from repro.corpus import CorpusSpec, FamilySpec

        first = run_batch(corpus=_fast_corpus(seed=11))
        manifest = tmp_path / "m.json"
        manifest.write_text(first.manifest_text())
        # disjoint design names: nothing to skip, and (only discoverable
        # post-run for a streamed corpus) that is a loud error
        other = CorpusSpec(
            count=2,
            seed=11,
            families=(FamilySpec("token_ring", params={"channels": 2}),),
            name_prefix="unrelated",
        )
        with pytest.raises(ResumeError, match="no design names"):
            run_batch(corpus=other, resume=str(manifest))

    def test_reseeded_resume_reruns_changed_designs(self, tmp_path):
        first = run_batch(corpus=_fast_corpus(seed=11))
        manifest = tmp_path / "m.json"
        manifest.write_text(first.manifest_text())
        # a different seed regenerates the stream; designs that happen to
        # coincide (same family, same sampled parameters -> same
        # fingerprint) are skipped, everything else re-runs
        resumed = run_batch(corpus=_fast_corpus(seed=12), resume=str(manifest))
        assert len(resumed.outcomes) == 6
        assert resumed.stats()["seed"] == 12


class TestCorpusBatchCli:
    def _spec_file(self, tmp_path, **overrides):
        from repro.corpus import dumps_corpus_spec

        path = tmp_path / "corpus.json"
        path.write_text(dumps_corpus_spec(_fast_corpus(**overrides)))
        return str(path)

    def test_cli_matches_library_run(self, tmp_path, capsys):
        spec_path = self._spec_file(tmp_path, count=4)
        manifest = tmp_path / "manifest.json"
        stats = tmp_path / "stats.json"
        code = main([
            "batch", "--corpus", spec_path,
            "--manifest", str(manifest), "--stats", str(stats),
        ])
        assert code == 0
        library = run_batch(corpus=_fast_corpus(count=4))
        assert manifest.read_text() == library.manifest_text()
        assert json.loads(stats.read_text())["seed"] == 11

    def test_cli_seed_override_recorded(self, tmp_path, capsys):
        spec_path = self._spec_file(tmp_path, count=2)
        stats = tmp_path / "stats.json"
        manifest = tmp_path / "m.json"
        code = main([
            "batch", "--corpus", spec_path, "--seed", "42",
            "--manifest", str(manifest), "--stats", str(stats),
        ])
        assert code == 0
        assert json.loads(stats.read_text())["seed"] == 42

    def test_seed_without_corpus_rejected(self, capsys):
        assert main(["batch", SPECS[0], "--seed", "1"]) == 2
        assert "--seed only applies" in capsys.readouterr().err

    def test_corpus_with_specs_rejected(self, tmp_path, capsys):
        spec_path = self._spec_file(tmp_path, count=1)
        assert main(["batch", SPECS[0], "--corpus", spec_path]) == 2

    def test_missing_corpus_file_rejected(self, capsys):
        assert main(["batch", "--corpus", "/no/such/corpus.json"]) == 2
        assert "cannot load corpus spec" in capsys.readouterr().err

    def test_malformed_corpus_file_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": "repro-corpus-spec/1"}')
        assert main(["batch", "--corpus", str(path)]) == 2
        assert "cannot load corpus spec" in capsys.readouterr().err

    def test_no_inputs_at_all_rejected(self, capsys):
        assert main(["batch"]) == 2
        assert "no specifications" in capsys.readouterr().err
