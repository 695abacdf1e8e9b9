"""Tests for the unified corpus subsystem: families, specs, factory."""

import json
import subprocess
import sys

import pytest

from repro.core.mc import analyze_mc
from repro.corpus import (
    AdmissionSpec,
    CorpusError,
    CorpusSpec,
    CorpusSpecError,
    FamilySpec,
    admission_failure,
    arbiter,
    corpus_stream,
    default_families,
    dumps_corpus_spec,
    generate_corpus,
    linear_pipeline,
    load_corpus_spec,
    modulo_counter,
    random_free_choice,
)
from repro.sg.properties import is_output_semi_modular
from repro.stg.parser import parse_g
from repro.stg.reachability import explore, stg_to_state_graph
from repro.stg.structural import is_free_choice, is_live_and_safe, is_marked_graph


class TestLinearPipeline:
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_shape(self, n):
        stg = linear_pipeline(n)
        assert len(stg.inputs) == 2
        assert len(stg.outputs) == n + 2
        sg = stg_to_state_graph(stg)
        assert len(sg) == 2 * n + 8
        assert is_output_semi_modular(sg)

    def test_structural(self):
        stg = linear_pipeline(3)
        assert is_marked_graph(stg.net)
        assert is_live_and_safe(stg)
        assert analyze_mc(stg_to_state_graph(stg)).satisfied

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            linear_pipeline(0)


class TestArbiter:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_shape(self, n):
        stg = arbiter(n)
        assert len(stg.inputs) == n
        assert len(stg.outputs) == n
        sg = stg_to_state_graph(stg)
        assert is_output_semi_modular(sg)
        assert analyze_mc(sg).satisfied

    def test_free_choice_but_not_marked_graph(self):
        stg = arbiter(3)
        assert is_free_choice(stg.net)
        assert not is_marked_graph(stg.net)
        assert is_live_and_safe(stg)

    def test_rejects_single_client(self):
        with pytest.raises(ValueError):
            arbiter(1)


class TestModuloCounter:
    def test_needs_state_signals(self):
        sg = stg_to_state_graph(modulo_counter(2))
        assert is_output_semi_modular(sg)
        assert not analyze_mc(sg).satisfied  # repeated idle codes

    def test_period_one_shape(self):
        sg = stg_to_state_graph(modulo_counter(1))
        assert len(sg) == 6  # c+ y+ c- c+ y- c-

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            modulo_counter(0)


class TestRandomFreeChoice:
    @pytest.mark.parametrize("seed", range(6))
    def test_wellformed(self, seed):
        stg = random_free_choice(seed, leaves=3)
        assert is_free_choice(stg.net)
        assert is_live_and_safe(stg)
        sg = stg_to_state_graph(stg)
        sg.check()
        assert is_output_semi_modular(sg)

    def test_deterministic_per_seed(self):
        from repro.stg.writer import dumps_g

        assert dumps_g(random_free_choice(7)) == dumps_g(random_free_choice(7))

    def test_rejects_zero_leaves(self):
        with pytest.raises(ValueError):
            random_free_choice(0, leaves=0)


class TestCorpusSpec:
    def test_json_round_trip(self):
        spec = CorpusSpec(
            count=7,
            seed=3,
            families=(
                FamilySpec("token_ring", weight=2, params={"channels": (2, 4)}),
                FamilySpec("arbiter", params={"clients": 3}),
            ),
            admission=AdmissionSpec(max_states=500),
            name_prefix="trip",
            max_attempts=100,
        )
        assert CorpusSpec.from_json(spec.to_json()) == spec

    def test_dumps_and_load_round_trip(self, tmp_path):
        spec = CorpusSpec(count=2, seed=9)
        path = tmp_path / "spec.json"
        path.write_text(dumps_corpus_spec(spec), encoding="utf-8")
        assert load_corpus_spec(path) == spec

    def test_default_families_exclude_modulo_counter(self):
        names = {entry.family for entry in default_families()}
        assert "modulo_counter" not in names
        assert {"token_ring", "series_parallel", "free_choice"} <= names

    def test_with_seed(self):
        spec = CorpusSpec(count=3, seed=1)
        reseeded = spec.with_seed(42)
        assert reseeded.seed == 42
        assert reseeded.count == spec.count
        assert reseeded.families == spec.families

    @pytest.mark.parametrize(
        "document,fragment",
        [
            ([], "JSON object"),
            ({"schema": "nope/9", "count": 1}, "unsupported corpus spec schema"),
            ({"schema": "repro-corpus-spec/1"}, "needs a count"),
            (
                {"schema": "repro-corpus-spec/1", "count": 1, "bogus": 2},
                "unknown corpus spec field",
            ),
            (
                {"schema": "repro-corpus-spec/1", "count": -1},
                "non-negative int",
            ),
            (
                {"schema": "repro-corpus-spec/1", "count": 1, "families": []},
                "non-empty JSON array",
            ),
            (
                {
                    "schema": "repro-corpus-spec/1",
                    "count": 1,
                    "families": [{"family": "no_such_family"}],
                },
                "unknown family",
            ),
            (
                {
                    "schema": "repro-corpus-spec/1",
                    "count": 1,
                    "families": [{"family": "token_ring", "weight": 0}],
                },
                "positive int",
            ),
            (
                {
                    "schema": "repro-corpus-spec/1",
                    "count": 1,
                    "families": [
                        {"family": "token_ring", "params": {"channels": [5, 2]}}
                    ],
                },
                "empty range",
            ),
            (
                {
                    "schema": "repro-corpus-spec/1",
                    "count": 1,
                    "families": [
                        {"family": "token_ring", "params": {"bogus": 1}}
                    ],
                },
                "unknown parameter",
            ),
            (
                {
                    "schema": "repro-corpus-spec/1",
                    "count": 1,
                    "admission": {"bogus": True},
                },
                "unknown admission field",
            ),
            (
                {"schema": "repro-corpus-spec/1", "count": 1, "name_prefix": "a b"},
                "name_prefix",
            ),
        ],
    )
    def test_rejects_malformed_documents(self, document, fragment):
        with pytest.raises(CorpusSpecError, match=fragment):
            CorpusSpec.from_json(document)

    def test_load_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope", encoding="utf-8")
        with pytest.raises(CorpusSpecError, match="not valid JSON"):
            load_corpus_spec(path)


FAST_FAMILIES = (
    FamilySpec("token_ring", params={"channels": (2, 4)}),
    FamilySpec("linear_pipeline", params={"stages": (2, 4)}),
    FamilySpec("arbiter", params={"clients": (2, 3)}),
)


class TestFactory:
    def test_stream_is_deterministic(self):
        spec = CorpusSpec(count=8, seed=11, families=FAST_FAMILIES)
        first, _ = generate_corpus(spec)
        second, _ = generate_corpus(spec)
        assert [d.g_text for d in first] == [d.g_text for d in second]
        assert [d.fingerprint for d in first] == [d.fingerprint for d in second]
        assert [d.name for d in first] == [d.name for d in second]

    def test_different_seeds_differ(self):
        base = CorpusSpec(count=8, seed=1, families=FAST_FAMILIES)
        first, _ = generate_corpus(base)
        second, _ = generate_corpus(base.with_seed(2))
        assert [d.g_text for d in first] != [d.g_text for d in second]

    def test_zero_count_is_empty(self):
        designs, stats = generate_corpus(
            CorpusSpec(count=0, seed=0, families=FAST_FAMILIES)
        )
        assert designs == []
        assert stats.candidates == 0
        assert stats.admitted == 0

    def test_stats_account_for_everything(self):
        spec = CorpusSpec(count=6, seed=5, families=FAST_FAMILIES)
        designs, stats = generate_corpus(spec)
        assert len(designs) == 6
        assert stats.admitted == 6
        assert stats.candidates == stats.admitted + stats.rejected
        assert sum(stats.by_family.values()) == 6
        payload = stats.to_json()
        assert payload["admitted"] == 6
        assert set(payload) == {
            "candidates",
            "admitted",
            "rejected",
            "rejections",
            "by_family",
        }

    def test_names_and_fingerprints(self):
        import hashlib

        spec = CorpusSpec(
            count=3, seed=2, families=FAST_FAMILIES, name_prefix="check"
        )
        designs, _ = generate_corpus(spec)
        for i, design in enumerate(designs):
            assert design.index == i
            assert design.name.startswith(f"check-{i:05d}-")
            assert design.stg.name == design.name
            expected = hashlib.sha256(design.g_text.encode("utf-8")).hexdigest()
            assert design.fingerprint == expected

    def test_pipeline_spec_bridge(self):
        designs, _ = generate_corpus(
            CorpusSpec(count=1, seed=4, families=FAST_FAMILIES)
        )
        spec = designs[0].pipeline_spec(verify=False)
        assert spec.name == designs[0].name
        assert spec.stg is designs[0].stg

    def test_state_cap_rejections_starve_the_stream(self):
        spec = CorpusSpec(
            count=1,
            seed=0,
            families=(FamilySpec("token_ring", params={"channels": (4, 6)}),),
            admission=AdmissionSpec(max_states=3),
            max_attempts=5,
        )
        with pytest.raises(CorpusError, match="corpus starved"):
            list(corpus_stream(spec))

    def test_builder_errors_are_counted(self):
        from repro.corpus import CorpusStats

        spec = CorpusSpec(
            count=1,
            seed=0,
            # channels=0 passes spec validation but the builder rejects it
            families=(FamilySpec("token_ring", params={"channels": 0}),),
            max_attempts=4,
        )
        stats = CorpusStats()
        with pytest.raises(CorpusError):
            list(corpus_stream(spec, stats=stats))
        assert stats.rejections == {"builder-error": 4}

    def test_admission_passes_single_signal_stg(self):
        stg = parse_g(
            "\n".join(
                [
                    ".model wire",
                    ".outputs y",
                    ".graph",
                    "y+ y-",
                    "y- y+",
                    ".marking { <y-,y+> }",
                    ".end",
                ]
            )
        )
        spec = CorpusSpec(count=1, families=FAST_FAMILIES)
        assert admission_failure(stg, spec) is None

    def test_admission_rejects_non_free_choice(self):
        stg = parse_g(
            "\n".join(
                [
                    ".inputs a b",
                    ".outputs q",
                    ".graph",
                    "p0 a+ b+",
                    "p1 a+",
                    "a+ q+",
                    "b+ q+/2",
                    "q+ p0 p1",
                    "q+/2 p0 p1",
                    ".marking { p0 p1 }",
                    ".end",
                ]
            )
        )
        # the fixture is also inconsistent (q rises twice), so the cheap
        # consistency check fires first; turning it off exposes the
        # free-choice gate, and relaxing that too falls through to the
        # exploration-based checks
        spec = CorpusSpec(count=1, families=FAST_FAMILIES)
        assert admission_failure(stg, spec) == "inconsistent"
        no_consistency = CorpusSpec(
            count=1,
            families=FAST_FAMILIES,
            admission=AdmissionSpec(require_consistent=False),
        )
        assert admission_failure(stg, no_consistency) == "non-free-choice"
        relaxed = CorpusSpec(
            count=1,
            families=FAST_FAMILIES,
            admission=AdmissionSpec(
                require_consistent=False, require_free_choice=False
            ),
        )
        assert admission_failure(stg, relaxed) not in (
            "inconsistent",
            "non-free-choice",
        )

    def test_admission_rejects_state_cap(self):
        from repro.corpus import token_ring

        spec = CorpusSpec(
            count=1,
            families=FAST_FAMILIES,
            admission=AdmissionSpec(max_states=3),
        )
        assert admission_failure(token_ring(4), spec) == "state-cap"

    def test_admission_rejects_not_live(self):
        stg = parse_g(
            "\n".join(
                [
                    ".inputs a",
                    ".outputs q y",
                    ".graph",
                    "p0 a+",
                    "a+ q+",
                    "q+ a-",
                    "a- q-",
                    "q- p0",
                    "p1 y+",
                    "y+ y-",
                    "y- p1",
                    ".marking { p0 }",
                    ".end",
                ]
            )
        )
        spec = CorpusSpec(count=1, families=FAST_FAMILIES)
        assert admission_failure(stg, spec) == "not-live"

    def test_admission_rejects_transient_prefix(self):
        # x+ fires once, concurrently with the a+/a- cycle: every
        # transition fires somewhere in the marking graph, but the bottom
        # component (after x+) never fires x+ again
        stg = parse_g(
            "\n".join(
                [
                    ".inputs a",
                    ".outputs x",
                    ".graph",
                    "pi x+",
                    "x+ pd",
                    "p0 a+",
                    "a+ p1",
                    "p1 a-",
                    "a- p0",
                    ".marking { pi p0 }",
                    ".end",
                ]
            )
        )
        spec = CorpusSpec(
            count=1,
            families=FAST_FAMILIES,
            admission=AdmissionSpec(require_consistent=False),
        )
        exploration = explore(stg)
        fired = {exploration.transitions[t] for _, t, _ in exploration.arcs}
        assert fired == set(stg.net.transitions)
        assert admission_failure(stg, spec) == "not-live"

    def test_admission_rejects_deadlock(self):
        stg = parse_g(
            "\n".join(
                [
                    ".inputs a",
                    ".outputs q",
                    ".graph",
                    "p0 a+",
                    "a+ q+",
                    "q+ a-",
                    "a- q-",
                    "q- pd",
                    ".marking { p0 }",
                    ".end",
                ]
            )
        )
        spec = CorpusSpec(
            count=1,
            families=FAST_FAMILIES,
            admission=AdmissionSpec(require_consistent=False),
        )
        assert admission_failure(stg, spec) == "not-live"


class TestCrossProcessDeterminism:
    def test_fingerprints_match_across_processes(self):
        spec = CorpusSpec(count=6, seed=17, families=FAST_FAMILIES)
        local, _ = generate_corpus(spec)
        program = (
            "import json, sys\n"
            "from repro.corpus import CorpusSpec, generate_corpus\n"
            "spec = CorpusSpec.from_json(json.loads(sys.stdin.read()))\n"
            "designs, _ = generate_corpus(spec)\n"
            "print(json.dumps([[d.name, d.fingerprint] for d in designs]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", program],
            input=json.dumps(spec.to_json()),
            capture_output=True,
            text=True,
            check=True,
        )
        remote = json.loads(proc.stdout)
        assert remote == [[d.name, d.fingerprint] for d in local]
