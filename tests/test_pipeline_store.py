"""The persistent artifact store: codecs, robustness, LRU, concurrency."""

import json
import os
import subprocess
import sys

import pytest

from repro.pipeline import AnalysisContext, ArtifactStore, Pipeline, PipelineSpec
from repro.pipeline.core import STAGES
from repro.pipeline.serialize import (
    ArtifactCodingError,
    stage_artifact_from_json,
    stage_artifact_to_json,
)

pytestmark = pytest.mark.smoke

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _stage_artifacts(design):
    pipeline = Pipeline(AnalysisContext())
    spec = PipelineSpec.from_benchmark(design)
    return {stage: pipeline.run(spec, until=stage) for stage in STAGES}


def upstream_of(artifacts, stage):
    """The upstream artifacts a stage payload may refer to."""
    return {
        "regions": (artifacts["reach"],),
        "mc": (artifacts["reach"],),
        "covers": (artifacts["reach"], artifacts["mc"]),
    }.get(stage, ())


def round_trip(artifacts, stage):
    """Encode and decode one stage artifact against its upstream."""
    upstream = upstream_of(artifacts, stage)
    payload = json.loads(
        json.dumps(stage_artifact_to_json(stage, artifacts[stage], upstream))
    )
    return payload, stage_artifact_from_json(stage, payload, upstream)


@pytest.fixture(scope="module")
def artifacts():
    """Every stage artifact of one insertion-requiring design."""
    return _stage_artifacts("delement")


@pytest.fixture(scope="module")
def plain_artifacts():
    """Every stage artifact of a design that needs no insertion."""
    return _stage_artifacts("mp-forward-pkt")


# ----------------------------------------------------------------------
# Faithful round-trips per artifact type
# ----------------------------------------------------------------------
class TestStageCodecs:
    @pytest.mark.parametrize("stage", STAGES)
    def test_round_trip_stable(self, artifacts, stage):
        """to_json(from_json(x)) == x, through a real JSON pass."""
        payload, loaded = round_trip(artifacts, stage)
        upstream = upstream_of(artifacts, stage)
        assert stage_artifact_to_json(stage, loaded, upstream) == payload
        assert loaded.fingerprint == artifacts[stage].fingerprint

    def test_reach_round_trip_preserves_graph(self, artifacts):
        from repro.pipeline.artifacts import fingerprint_state_graph

        loaded = stage_artifact_from_json(
            "reach", stage_artifact_to_json("reach", artifacts["reach"])
        )
        assert fingerprint_state_graph(loaded.sg) == fingerprint_state_graph(
            artifacts["reach"].sg
        )

    def test_regions_round_trip_keeps_state_sets(self, artifacts):
        payload, loaded = round_trip(artifacts, "regions")
        assert loaded.regions == artifacts["regions"].regions
        assert all(er.states for er in loaded.regions)
        # each region is a hex bitmask over the reach graph's state order
        assert payload["sg"] == artifacts["reach"].fingerprint
        assert all(isinstance(er[3], str) for er in payload["regions"])

    def test_mc_round_trip_keeps_verdicts(self, artifacts):
        payload, loaded = round_trip(artifacts, "mc")
        original = artifacts["mc"]
        # the graph is stored once, in the reach entry
        assert payload["sg"] == artifacts["reach"].fingerprint
        assert loaded.report.sg is artifacts["reach"].sg
        assert loaded.backend == original.backend
        assert len(loaded.report.verdicts) == len(original.report.verdicts)
        for mine, theirs in zip(loaded.report.verdicts, original.report.verdicts):
            assert mine.er == theirs.er  # ER equality includes states
            assert mine.cfr == theirs.cfr
            assert mine.mc_cube == theirs.mc_cube
            assert mine.group == theirs.group

    def test_covers_round_trip_drives_netlist_stage(self, artifacts):
        """A loaded CoverPlan must rebuild the *identical* netlist."""
        from repro.netlist.io import netlist_to_json
        from repro.netlist.netlist import netlist_from_implementation
        from repro.pipeline.artifacts import fingerprint_netlist
        from repro.netlist.hazards import verify_speed_independence

        _, loaded = round_trip(artifacts, "covers")
        assert loaded.added_signals == artifacts["covers"].added_signals
        assert (
            loaded.implementation.equations()
            == artifacts["covers"].implementation.equations()
        )
        netlist = netlist_from_implementation(loaded.implementation, "C")
        fresh = artifacts["netlist"]
        assert netlist_to_json(netlist) == netlist_to_json(fresh.netlist)
        report = verify_speed_independence(netlist, loaded.sg, max_states=20_000)
        assert (
            fingerprint_netlist(loaded.fingerprint, netlist, report)
            == fresh.fingerprint
        )

    def test_inserted_covers_embed_their_own_graph(self, artifacts):
        """Insertion changed graph and report: covers carries both."""
        from repro.pipeline.artifacts import fingerprint_state_graph

        assert artifacts["covers"].added_signals
        payload, loaded = round_trip(artifacts, "covers")
        assert isinstance(payload["sg"], dict)
        assert isinstance(payload["report"], dict)
        assert loaded.sg is not artifacts["reach"].sg
        assert fingerprint_state_graph(loaded.sg) == fingerprint_state_graph(
            artifacts["covers"].sg
        )
        assert loaded.insertion.report.sg is loaded.sg
        assert loaded.implementation.sg is loaded.sg

    def test_plain_covers_refer_to_upstream(self, plain_artifacts):
        """No insertion: covers names the reach graph and the mc report."""
        assert not plain_artifacts["covers"].added_signals
        payload, loaded = round_trip(plain_artifacts, "covers")
        assert payload["sg"] == plain_artifacts["reach"].fingerprint
        assert payload["report"] == plain_artifacts["mc"].fingerprint
        assert loaded.sg is plain_artifacts["reach"].sg
        assert loaded.insertion.report is plain_artifacts["mc"].report
        assert (
            loaded.implementation.equations()
            == plain_artifacts["covers"].implementation.equations()
        )

    def test_covers_references_resolve_against_equal_graph_objects(
        self, plain_artifacts
    ):
        """Two specs may elaborate to one graph, so a memoised mc report
        can hold a different object for the graph than the reach in
        hand.  The covers references still resolve, pairing the two as
        a fresh insertion would."""
        reach = Pipeline(AnalysisContext()).run(
            PipelineSpec.from_benchmark("mp-forward-pkt"), until="reach"
        )
        assert reach.sg is not plain_artifacts["reach"].sg
        assert reach.fingerprint == plain_artifacts["reach"].fingerprint
        payload = stage_artifact_to_json(
            "covers", plain_artifacts["covers"], upstream_of(plain_artifacts, "covers")
        )
        loaded = stage_artifact_from_json(
            "covers", payload, (reach, plain_artifacts["mc"])
        )
        assert loaded.fingerprint == plain_artifacts["covers"].fingerprint
        assert loaded.sg is reach.sg
        assert loaded.insertion.report is plain_artifacts["mc"].report

    def test_netlist_round_trip_detached_hazard(self, artifacts):
        loaded = stage_artifact_from_json(
            "netlist", stage_artifact_to_json("netlist", artifacts["netlist"])
        )
        fresh = artifacts["netlist"]
        assert loaded.hazard_free == fresh.hazard_free
        # the detached verdict still carries what the CLI/bench read
        assert loaded.hazard_report.netlist is loaded.netlist
        assert not loaded.hazard_report.composition.truncated
        assert "HAZARD-FREE" in loaded.hazard_report.describe()

    def test_unsupported_state_ids_refused(self):
        from repro.pipeline.artifacts import ReachedSG, fingerprint_state_graph
        from repro.sg.graph import SignalEvent, StateGraph

        sg = StateGraph(
            ("a",),
            frozenset(),
            {frozenset({"p"}): (0,), frozenset({"q"}): (1,)},
            [
                (frozenset({"p"}), SignalEvent("a", +1), frozenset({"q"})),
                (frozenset({"q"}), SignalEvent("a", -1), frozenset({"p"})),
            ],
            frozenset({"p"}),
            name="frozenset-states",
        )
        artifact = ReachedSG(
            sg=sg, fingerprint=fingerprint_state_graph(sg)
        )
        with pytest.raises(ArtifactCodingError):
            stage_artifact_to_json("reach", artifact)


# ----------------------------------------------------------------------
# The store: hits, misses, corruption, eviction, sharing
# ----------------------------------------------------------------------
class TestArtifactStore:
    def test_cold_then_warm(self, tmp_path):
        root = str(tmp_path / "store")
        spec = PipelineSpec.from_benchmark("delement")

        cold = AnalysisContext(store=root)
        first = Pipeline(cold).run(spec, until="netlist")
        assert cold.store.totals() == {
            "hit": 0, "miss": 5, "corrupt": 0, "put": 5, "skip": 0, "evict": 0,
        }

        warm = AnalysisContext(store=root)
        second = Pipeline(warm).run(spec, until="netlist")
        totals = warm.store.totals()
        assert totals["miss"] == 0 and totals["hit"] == 5
        assert second.fingerprint == first.fingerprint
        assert second.hazard_free

    def test_store_instance_accepted(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "store"))
        context = AnalysisContext(store=store)
        assert context.store is store

    def test_corrupted_entry_is_miss_and_removed(self, tmp_path, artifacts):
        store = ArtifactStore(str(tmp_path / "store"))
        key = ("fp", "bitengine")
        assert store.put("mc", key, artifacts["mc"])
        path = store.path_for("mc", key)
        with open(path, "w") as handle:
            handle.write('{"schema": "repro-artifact-store/1", "trunc')
        assert store.get("mc", key) is None
        assert not os.path.exists(path)
        assert store.stats()["corrupt"] == {"mc": 1}

    def test_truncated_payload_is_miss(self, tmp_path, artifacts):
        store = ArtifactStore(str(tmp_path / "store"))
        key = ("fp",)
        assert store.put("reach", key, artifacts["reach"])
        path = store.path_for("reach", key)
        blob = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(blob[: len(blob) // 2])
        assert store.get("reach", key) is None

    def test_foreign_schema_is_miss(self, tmp_path, artifacts):
        store = ArtifactStore(str(tmp_path / "store"))
        key = ("fp",)
        store.put("reach", key, artifacts["reach"])
        path = store.path_for("reach", key)
        entry = json.load(open(path))
        entry["schema"] = "somebody-else/9"
        json.dump(entry, open(path, "w"))
        assert store.get("reach", key) is None

    def test_old_envelope_version_degrades_to_counted_miss(
        self, tmp_path, artifacts
    ):
        """A ``/1`` entry (pre-compiled-IR cubes) is a corrupt miss, not a
        crash, and the slot is rewritten on the next put."""
        store = ArtifactStore(str(tmp_path / "store"))
        key = ("fp",)
        store.put("reach", key, artifacts["reach"])
        path = store.path_for("reach", key)
        entry = json.load(open(path))
        entry["schema"] = "repro-artifact-store/1"
        json.dump(entry, open(path, "w"))
        assert store.get("reach", key) is None
        assert store.stats()["corrupt"] == {"reach": 1}
        assert store.stats()["miss"] == {"reach": 1}
        # the defective entry was discarded; a fresh put repopulates it
        assert not os.path.exists(path)
        assert store.put("reach", key, artifacts["reach"])
        assert store.get("reach", key) is not None

    @staticmethod
    def _assert_old_schema_is_counted_miss(tmp_path, artifacts, schema):
        from repro.pipeline.store import STORE_SCHEMA

        assert STORE_SCHEMA == "repro-artifact-store/6"
        store = ArtifactStore(str(tmp_path / "store"))
        key = ("fp",)
        store.put("reach", key, artifacts["reach"])
        path = store.path_for("reach", key)
        entry = json.load(open(path))
        entry["schema"] = schema
        json.dump(entry, open(path, "w"))
        assert store.get("reach", key) is None
        assert store.stats()["corrupt"] == {"reach": 1}
        assert not os.path.exists(path)

    def test_v3_envelope_is_counted_miss(self, tmp_path, artifacts):
        """``/3`` entries may hold circuits found by the earlier DPLL
        solver; they are corrupt misses, never served."""
        self._assert_old_schema_is_counted_miss(
            tmp_path, artifacts, "repro-artifact-store/3"
        )

    def test_v4_envelope_is_counted_miss(self, tmp_path, artifacts):
        """``/4`` entries embed the graph in every payload and carry
        digest fields ``/5`` dropped; they are corrupt misses."""
        self._assert_old_schema_is_counted_miss(
            tmp_path, artifacts, "repro-artifact-store/4"
        )

    def test_v5_envelope_is_counted_miss_then_rewritten(self, tmp_path, artifacts):
        """``/5`` entries store state sets as id lists; they are corrupt
        misses, and the next put rewrites them as ``/6``."""
        self._assert_old_schema_is_counted_miss(
            tmp_path, artifacts, "repro-artifact-store/5"
        )
        store = ArtifactStore(str(tmp_path / "store"))
        assert store.put("reach", ("fp",), artifacts["reach"])
        entry = json.load(open(store.path_for("reach", ("fp",))))
        assert entry["schema"] == "repro-artifact-store/6"
        assert store.get("reach", ("fp",)) is not None

    def test_graph_reference_mismatch_is_corrupt_miss(
        self, tmp_path, artifacts, plain_artifacts
    ):
        """An mc entry resolved against a different reach graph is a
        counted corrupt miss, and the entry is discarded."""
        store = ArtifactStore(str(tmp_path / "store"))
        key = ("fp", "bitengine")
        assert store.put("mc", key, artifacts["mc"], (artifacts["reach"],))
        path = store.path_for("mc", key)
        assert store.get("mc", key, (plain_artifacts["reach"],)) is None
        assert store.stats()["corrupt"] == {"mc": 1}
        assert not os.path.exists(path)
        # without an upstream graph the reference cannot resolve either
        assert store.put("mc", key, artifacts["mc"])
        assert store.get("mc", key) is None
        assert store.stats()["corrupt"] == {"mc": 2}

    def test_warm_hits_share_the_reach_graph(self, tmp_path):
        """A warm mc/covers hit resolves to the reach graph object, as
        in a fresh run, instead of decoding copies of it."""
        root = str(tmp_path / "store")
        spec = PipelineSpec.from_benchmark("mp-forward-pkt")
        Pipeline(AnalysisContext(store=root)).run(spec, until="netlist")

        warm = AnalysisContext(store=root)
        pipeline = Pipeline(warm)
        reached = pipeline.run(spec, until="reach")
        mc = pipeline.run(spec, until="mc")
        covers = pipeline.run(spec, until="covers")
        assert warm.store.totals()["hit"] == 4
        assert warm.store.totals()["miss"] == 0
        assert mc.report.sg is reached.sg
        assert covers.sg is reached.sg
        assert covers.insertion.report is mc.report
        assert covers.implementation.sg is reached.sg

    def test_key_mismatch_is_miss(self, tmp_path, artifacts):
        """A colliding/moved file never answers for the wrong key."""
        store = ArtifactStore(str(tmp_path / "store"))
        store.put("reach", ("fp-a",), artifacts["reach"])
        os.replace(
            store.path_for("reach", ("fp-a",)),
            store.path_for("reach", ("fp-b",)),
        )
        assert store.get("reach", ("fp-b",)) is None

    def test_unsupported_artifact_skipped_not_crash(self, tmp_path):
        """Uncodeable state ids: the artifact stays memory-only."""
        from repro.pipeline.artifacts import ReachedSG
        from repro.sg.graph import SignalEvent, StateGraph

        sg = StateGraph(
            ("a",),
            frozenset(),
            {frozenset({"p"}): (0,), frozenset({"q"}): (1,)},
            [
                (frozenset({"p"}), SignalEvent("a", +1), frozenset({"q"})),
                (frozenset({"q"}), SignalEvent("a", -1), frozenset({"p"})),
            ],
            frozenset({"p"}),
            name="frozenset-states",
        )
        store = ArtifactStore(str(tmp_path / "store"))
        assert store.put("reach", ("k",), ReachedSG(sg=sg)) is False
        assert store.stats()["skip"] == {"reach": 1}
        assert len(store) == 0

    def test_eviction_is_lru(self, tmp_path, artifacts):
        store = ArtifactStore(str(tmp_path / "store"), max_entries=2)
        reach = artifacts["reach"]
        store.put("reach", ("a",), reach)
        os.utime(store.path_for("reach", ("a",)), (1, 1))
        store.put("reach", ("b",), reach)
        os.utime(store.path_for("reach", ("b",)), (2, 2))
        # touching "a" via get makes "b" the LRU victim
        assert store.get("reach", ("a",)) is not None
        store.put("reach", ("c",), reach)
        assert store.get("reach", ("b",)) is None  # evicted
        assert store.get("reach", ("a",)) is not None
        assert store.get("reach", ("c",)) is not None
        assert store.stats()["evict"] == {"reach": 1}

    def test_put_under_cap_stats_no_other_entry(self, tmp_path, artifacts, monkeypatch):
        store = ArtifactStore(str(tmp_path / "store"), max_entries=10)
        for name in "abc":
            store.put("reach", (name,), artifacts["reach"])
        others = {store.path_for("reach", (name,)) for name in "abc"}
        statted = []
        real_stat = os.stat

        def spy(path, *args, **kwargs):
            statted.append(os.fspath(path))
            return real_stat(path, *args, **kwargs)

        monkeypatch.setattr(os, "stat", spy)
        assert store.put("reach", ("d",), artifacts["reach"])
        monkeypatch.undo()
        assert not others & set(statted)
        assert len(store) == 4

    def test_puts_under_cap_do_not_list_the_store(self, tmp_path, artifacts, monkeypatch):
        """Only the first put lists the store while a count bound shows
        it is under its cap; over the cap every put still evicts."""
        listed = []
        real_listdir = os.listdir

        def spy(path):
            listed.append(os.fspath(path))
            return real_listdir(path)

        monkeypatch.setattr(os, "listdir", spy)
        store = ArtifactStore(str(tmp_path / "store"), max_entries=4096)
        for k in range(50):
            assert store.put("reach", (f"k{k}",), artifacts["reach"])
        # one listing: the store root and its one stage directory
        assert len(listed) == 2
        monkeypatch.undo()
        assert len(store) == 50

        monkeypatch.setattr(os, "listdir", spy)
        small = ArtifactStore(str(tmp_path / "small"), max_entries=3)
        for k in range(10):
            assert small.put("reach", (f"k{k}",), artifacts["reach"])
            os.utime(small.path_for("reach", (f"k{k}",)), (k, k))
        monkeypatch.undo()
        assert len(small) == 3
        assert small.stats()["evict"] == {"reach": 7}
        # LRU: the three newest entries survive
        assert [small.get("reach", (f"k{k}",)) is not None for k in range(10)] == (
            [False] * 7 + [True] * 3
        )

    def test_max_entries_validation(self, tmp_path):
        with pytest.raises(ValueError, match="positive"):
            ArtifactStore(str(tmp_path), max_entries=0)

    def test_concurrent_writers_same_key(self, tmp_path):
        """Two processes racing on one key both leave a valid entry."""
        root = str(tmp_path / "store")
        script = (
            "import sys\n"
            "from repro.pipeline import AnalysisContext, Pipeline, PipelineSpec\n"
            "ctx = AnalysisContext(store=sys.argv[1])\n"
            "Pipeline(ctx).run("
            "PipelineSpec.from_benchmark('delement'), until='netlist')\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
        procs = [
            subprocess.Popen([sys.executable, "-c", script, root], env=env)
            for _ in range(2)
        ]
        assert [proc.wait() for proc in procs] == [0, 0]
        # the store now answers every stage for a fresh context
        warm = AnalysisContext(store=root)
        Pipeline(warm).run(
            PipelineSpec.from_benchmark("delement"), until="netlist"
        )
        totals = warm.store.totals()
        assert totals["miss"] == 0 and totals["corrupt"] == 0
        assert totals["hit"] == 5
