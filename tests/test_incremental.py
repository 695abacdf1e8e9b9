"""Delta-aware incremental re-synthesis: byte-identity is the oracle.

Every incremental artifact must equal — fingerprint for fingerprint —
what a cold from-scratch pipeline produces for the edited spec.  The
randomized edit-sequence test drives that invariant through chains of
random :class:`SpecDelta` s; the unit tests below pin the individual
reuse mechanisms (snapshot replay, incremental SAT, MC verdict
adoption, the reuse ledger, and delta hints served by the store).
"""

import json
import os
import random

import pytest

from repro.corpus import concurrent_fork, token_ring
from repro.bench.suite import _DATA_DIR, load_benchmark
from repro.pipeline import AnalysisContext, Pipeline, PipelineSpec
from repro.pipeline.delta import (
    AddEdge,
    RemoveEdge,
    RetypeSignal,
    SetMarking,
    SpecDelta,
)
from repro.stg.reachability import ExplorationSnapshot, explore, stg_to_state_graph

pytestmark = pytest.mark.smoke


# ----------------------------------------------------------------------
# Randomized edit-sequence oracle
# ----------------------------------------------------------------------
def _random_delta(rng: random.Random, stg) -> SpecDelta:
    """One random edit, biased toward ones that keep the STG synthesisable."""
    transitions = sorted(stg.net.transitions)
    roll = rng.random()
    if roll < 0.35:
        signal = rng.choice(sorted(stg.outputs | stg.internal))
        role = "internal" if signal in stg.outputs else "output"
        return SpecDelta((RetypeSignal(signal, role),))
    if roll < 0.60:
        source, target = rng.choice(transitions), rng.choice(transitions)
        return SpecDelta((AddEdge(source, target, marked=rng.random() < 0.5),))
    if roll < 0.85:
        net = stg.net
        droppable = sorted(
            (next(iter(net.place_preset[p])), next(iter(net.place_postset[p])))
            for p in net.places
            if len(net.place_preset[p]) == 1 and len(net.place_postset[p]) == 1
        )
        if droppable:
            return SpecDelta((RemoveEdge(*droppable[rng.randrange(len(droppable))]),))
        source, target = rng.choice(transitions), rng.choice(transitions)
        return SpecDelta((RemoveEdge(source, target),))
    places = sorted(stg.net.places)
    count = max(1, len(stg.initial_marking))
    return SpecDelta((SetMarking(tuple(rng.sample(places, count))),))


def _edit_sequence_oracle(stg, seed: int, steps: int) -> int:
    """Random edits; every successful step must be byte-identical to cold.

    Failed edits (delta does not apply, edited spec unreachable or
    otherwise unsynthesisable) must fail *identically* on both paths.
    Returns the number of successful steps.
    """
    rng = random.Random(seed)
    context = AnalysisContext()
    pipeline = Pipeline(context)
    spec = PipelineSpec.from_stg(stg, verify=False)
    pipeline.run(spec)  # warm base artifacts + exploration snapshot
    successes = 0
    for _ in range(steps):
        delta = _random_delta(rng, spec.stg)
        try:
            incremental = pipeline.run(spec, delta=delta)
            warm_error = None
        except Exception as exc:  # noqa: BLE001 - compared against cold
            incremental, warm_error = None, exc
        try:
            edited = spec.apply_delta(delta)
            cold = Pipeline(AnalysisContext()).run(edited)
            cold_error = None
        except Exception as exc:  # noqa: BLE001
            cold, cold_error = None, exc
        if warm_error is not None or cold_error is not None:
            assert type(warm_error) is type(cold_error), (
                f"edit {delta.describe()!r}: warm raised {warm_error!r}, "
                f"cold raised {cold_error!r}"
            )
            assert str(warm_error) == str(cold_error)
            continue
        assert incremental.fingerprint == cold.fingerprint, (
            f"edit {delta.describe()!r} broke byte-identity"
        )
        spec = edited  # advance: the next edit applies on top
        successes += 1
    return successes


class TestEditSequenceOracle:
    def test_token_ring(self):
        assert _edit_sequence_oracle(token_ring(2), seed=11, steps=8) >= 2

    def test_nowick(self):
        assert _edit_sequence_oracle(load_benchmark("nowick"), seed=7, steps=8) >= 2

    def test_concurrent_fork(self):
        assert _edit_sequence_oracle(concurrent_fork(2), seed=3, steps=6) >= 2


# ----------------------------------------------------------------------
# Exploration snapshot replay
# ----------------------------------------------------------------------
class TestSnapshotReplay:
    def _snapshot(self, stg):
        exploration = explore(stg)
        return ExplorationSnapshot.capture(stg, exploration), exploration

    def test_identical_net_replays_everything(self):
        stg = load_benchmark("nowick")
        snapshot, fresh = self._snapshot(stg)
        stats = {}
        replayed = explore(stg, snapshot=snapshot, stats=stats)
        assert replayed == fresh
        assert stats["expanded"] == 0
        assert stats["replayed"] == len(fresh.markings)

    def test_edited_net_matches_fresh_exploration(self):
        stg = token_ring(2)
        snapshot, _ = self._snapshot(stg)
        ts = sorted(stg.net.transitions)
        edited = SpecDelta((AddEdge(ts[1], ts[0], marked=True),)).apply_to_stg(stg)
        stats = {}
        replayed = explore(edited, snapshot=snapshot, stats=stats)
        assert replayed == explore(edited)

    def test_retype_replays_with_fresh_parities(self):
        stg = load_benchmark("nowick")
        snapshot, _ = self._snapshot(stg)
        retyped = SpecDelta((RetypeSignal("y", "internal"),)).apply_to_stg(stg)
        stats = {}
        replayed = explore(retyped, snapshot=snapshot, stats=stats)
        assert replayed == explore(retyped)
        assert stats["expanded"] == 0  # net untouched: pure replay

    def test_dirty_transitions_against_edited_net(self):
        stg = token_ring(2)
        snapshot, _ = self._snapshot(stg)
        ts = sorted(stg.net.transitions)
        edited = SpecDelta((AddEdge(ts[0], ts[1]),)).apply_to_stg(stg)
        assert snapshot.dirty_transitions(edited.net) == frozenset({ts[0], ts[1]})
        assert snapshot.dirty_transitions(stg.net) == frozenset()

    def test_state_graph_identical_under_replay(self):
        stg = concurrent_fork(2)
        snapshot, _ = self._snapshot(stg)
        ts = sorted(stg.net.transitions)
        edited = SpecDelta((AddEdge(ts[0], ts[2]),)).apply_to_stg(stg)
        fresh = stg_to_state_graph(edited)
        warm = stg_to_state_graph(edited, snapshot=snapshot)
        assert warm.state_list == fresh.state_list
        assert list(warm.arcs()) == list(fresh.arcs())
        assert all(warm.code(s) == fresh.code(s) for s in warm.state_list)


# ----------------------------------------------------------------------
# Incremental SAT
# ----------------------------------------------------------------------
class TestIncrementalSat:
    CLAUSES = [
        (1, 2, 3),
        (-1, -2),
        (-2, -3),
        (1, -3, 4),
        (2, 3, -4),
    ]

    def _enumerate_fresh(self, num_vars, clauses):
        from repro.sat.solver import Solver

        models, acc = [], list(clauses)
        while True:
            model = Solver(num_vars, acc).solve()
            if model is None:
                return models
            lits = tuple(v if model[v] else -v for v in range(1, num_vars + 1))
            models.append(lits)
            acc.append(tuple(-l for l in lits))

    def test_add_clause_matches_fresh_model_sequence(self):
        from repro.sat.solver import Solver

        solver = Solver(4, self.CLAUSES)
        models = []
        while True:
            model = solver.solve()
            if model is None:
                break
            lits = tuple(v if model[v] else -v for v in range(1, 5))
            models.append(lits)
            solver.add_clause([-l for l in lits])
        assert models == self._enumerate_fresh(4, self.CLAUSES)
        assert len(models) > 1  # the instance genuinely enumerates

    def test_resolve_same_instance_is_stable(self):
        from repro.sat.solver import Solver

        solver = Solver(4, self.CLAUSES)
        first = solver.solve()
        second = solver.solve()
        assert first == second == Solver(4, self.CLAUSES).solve()

    def test_ensure_vars_grows_the_range(self):
        from repro.sat.solver import Solver

        solver = Solver(2, [(1, 2)])
        solver.ensure_vars(3)
        solver.add_clause((3,))
        model = solver.solve()
        assert model is not None and model[3] is True


# ----------------------------------------------------------------------
# MC verdict adoption
# ----------------------------------------------------------------------
class TestAnalyzeMcReuse:
    def test_full_and_partial_reuse_reproduce_the_report(self):
        from repro.core.mc import analyze_mc

        sg = stg_to_state_graph(load_benchmark("nowick"))
        full = analyze_mc(sg)
        reuse = {}
        for verdict in full.verdicts:
            reuse.setdefault(
                (verdict.er.signal, verdict.er.direction), []
            ).append(verdict)
        assert len(reuse) > 1
        adopted = analyze_mc(sg, reuse=reuse)
        assert adopted.verdicts == full.verdicts
        partial = dict(list(sorted(reuse.items()))[::2])
        mixed = analyze_mc(sg, reuse=partial)
        assert mixed.verdicts == full.verdicts


# ----------------------------------------------------------------------
# Reuse ledger
# ----------------------------------------------------------------------
class TestReuseLedger:
    def test_miss_hit_partial_progression(self):
        context = AnalysisContext()
        pipeline = Pipeline(context)
        spec = PipelineSpec.from_stg(load_benchmark("nowick"), verify=False)

        pipeline.run(spec)
        first = {stage: entry["mode"] for stage, entry in context.last_reuse.items()}
        assert first and all(mode == "miss" for mode in first.values())

        pipeline.run(spec)
        again = {stage: entry["mode"] for stage, entry in context.last_reuse.items()}
        assert again and all(mode == "hit" for mode in again.values())

        pipeline.run(spec, delta="retype y internal")
        ledger = context.last_reuse
        assert ledger["reach"]["mode"] == "partial"
        assert ledger["reach"]["expanded_markings"] == 0
        assert ledger["reach"]["replayed_markings"] > 0
        assert ledger["regions"]["mode"] == "partial"
        assert ledger["regions"]["reused_signals"] >= 1
        assert ledger["mc"]["mode"] == "partial"
        assert ledger["mc"]["reused_functions"] >= 1

    def test_ledger_resets_per_run(self):
        context = AnalysisContext()
        pipeline = Pipeline(context)
        spec = PipelineSpec.from_stg(token_ring(2), verify=False)
        pipeline.run(spec)
        pipeline.run(spec, until="reach")
        assert set(context.last_reuse) == {"reach"}


# ----------------------------------------------------------------------
# Delta hints served by the persistent store
# ----------------------------------------------------------------------
class TestStoreServedDelta:
    def test_delta_sees_base_only_through_store(self, tmp_path):
        """A fresh context finds the base's artifacts in the store alone
        and still adopts base verdicts, byte-identically."""
        root = str(tmp_path / "store")
        spec = PipelineSpec.from_stg(load_benchmark("nowick"), verify=False)
        Pipeline(AnalysisContext(store=root)).run(spec)

        fresh = AnalysisContext(store=root)
        incremental = Pipeline(fresh).run(spec, delta="retype y internal")
        assert fresh.store.totals()["corrupt"] == 0
        ledger = fresh.last_reuse
        assert ledger["mc"]["mode"] == "partial"
        assert ledger["mc"]["reused_functions"] > 0

        edited = spec.apply_delta("retype y internal")
        cold = Pipeline(AnalysisContext()).run(edited)
        assert incremental.fingerprint == cold.fingerprint


# ----------------------------------------------------------------------
# CLI --edit
# ----------------------------------------------------------------------
class TestCliEdit:
    NOWICK = os.path.join(_DATA_DIR, "nowick.g")

    def test_edit_reports_reuse_and_exits_clean(self, capsys):
        from repro.cli import main

        rc = main(["synth", self.NOWICK, "--edit", "retype y internal"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "edit: retype y internal" in captured.err
        assert "reach: partial" in captured.err

    def test_edit_matches_editing_the_file(self, capsys, tmp_path):
        from repro.cli import main

        assert main(["synth", self.NOWICK, "--edit", "retype y internal"]) == 0
        edited_out = capsys.readouterr().out

        text = open(self.NOWICK).read()
        cold = tmp_path / "edited.g"
        cold.write_text(
            text.replace(".inputs a b c", ".inputs a b c")
            .replace(".outputs y z", ".outputs z")
            .replace(".model nowick", ".model nowick\n.internal y")
        )
        assert main(["synth", str(cold)]) == 0
        cold_out = capsys.readouterr().out
        assert edited_out == cold_out

    def test_bad_edit_is_a_usage_error(self, capsys):
        from repro.cli import main

        rc = main(["synth", self.NOWICK, "--edit", "frobnicate y"])
        assert rc == 2
        assert "bad --edit" in capsys.readouterr().err

    def test_inapplicable_edit_is_a_usage_error(self, capsys):
        from repro.cli import main

        rc = main(["synth", self.NOWICK, "--edit", "retype ghost internal"])
        assert rc == 2
        assert "does not apply" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Service protocol: base_job + delta
# ----------------------------------------------------------------------
class TestServiceDeltaProtocol:
    def _submit(self, document):
        from repro.service.protocol import parse_submit

        return parse_submit(json.dumps(document).encode())

    def test_delta_job_normalizes(self):
        kind, tenant, params = self._submit(
            {"kind": "synth", "base_job": "j-1", "delta": "retype y internal"}
        )
        assert kind == "synth"
        assert params["base_job"] == "j-1"
        assert params["delta"]["ops"] == [
            {"op": "retype", "signal": "y", "role": "internal"}
        ]

    def test_delta_accepts_json_form(self):
        _, _, params = self._submit(
            {
                "kind": "synth",
                "base_job": "j-1",
                "delta": {"ops": [{"op": "add", "source": "a+", "target": "y+"}]},
            }
        )
        assert params["delta"]["ops"][0]["op"] == "add"

    @pytest.mark.parametrize(
        "document,fragment",
        [
            ({"kind": "synth", "base_job": "j-1"}, "both"),
            ({"kind": "synth", "delta": "retype y internal"}, "both"),
            (
                {
                    "kind": "synth",
                    "spec": ".model x",
                    "base_job": "j-1",
                    "delta": "retype y internal",
                },
                "mutually exclusive",
            ),
            (
                {"kind": "synth", "base_job": "j-1", "delta": "frobnicate"},
                "bad delta",
            ),
            (
                {"kind": "table1", "base_job": "j-1", "delta": "retype y internal"},
                "only to synth/verify",
            ),
        ],
    )
    def test_rejects_malformed_delta_submissions(self, document, fragment):
        from repro.service.protocol import ProtocolError

        with pytest.raises(ProtocolError, match=fragment):
            self._submit(document)
