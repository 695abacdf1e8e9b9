"""Discrete-event simulation of netlists with random gate delays.

An independent, *dynamic* check of the static speed-independence
verifier: the closed loop of circuit and specification mirror is run
with randomly drawn per-event gate delays under the pure delay model.

Hazard criterion (the dynamic face of semi-modularity): a gate whose
output change is pending -- its next-state function disagrees with its
output and a firing has been scheduled -- must eventually fire; if an
input change makes the pending transition vanish, the gate was *disabled
while excited*, which under the pure delay model is a potential glitch.
The simulator records every such disabling on a non-input signal.

Monte-Carlo usage: many short runs with different seeds.  On an MC
implementation (Theorem 3) no run may record a disabling; on the
Figure-4 baseline a modest number of runs suffices to watch the paper's
``t = c'd`` gate lose its excitation.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.netlist.netlist import Netlist, NetlistPlan
from repro.sg.events import SignalEvent
from repro.sg.graph import StateGraph

@dataclass
class Disabling:
    """A pending gate transition withdrawn before it could fire."""

    time: float
    gate: str
    lost_value: int

    def __str__(self) -> str:
        edge = "+" if self.lost_value else "-"
        return f"t={self.time:.2f}: pending {self.gate}{edge} withdrawn"


@dataclass
class SimulationReport:
    """Outcome of one simulation run."""

    netlist: Netlist
    spec: StateGraph
    seed: int
    fired_events: int
    disablings: List[Disabling] = field(default_factory=list)
    conformance_failures: List[Tuple[float, str]] = field(default_factory=list)
    #: single-event upsets applied during the run (fault injection)
    injections_applied: List[Tuple[float, str]] = field(default_factory=list)

    @property
    def hazard_free(self) -> bool:
        return not self.disablings and not self.conformance_failures

    def describe(self) -> str:
        lines = [
            f"simulation of {self.netlist.name} (seed {self.seed}): "
            f"{self.fired_events} events, "
            f"{'clean' if self.hazard_free else 'HAZARDOUS'}"
        ]
        for disabling in self.disablings[:6]:
            lines.append(f"  {disabling}")
        for time, signal in self.conformance_failures[:6]:
            lines.append(
                f"  t={time:.2f}: output {signal!r} fired outside the spec"
            )
        return "\n".join(lines)


class _Scheduler:
    def __init__(self) -> None:
        self._queue: List[Tuple[float, int, str]] = []
        self._counter = 0

    def push(self, time: float, signal: str) -> None:
        heapq.heappush(self._queue, (time, self._counter, signal))
        self._counter += 1

    def pop(self) -> Optional[Tuple[float, str]]:
        while self._queue:
            time, _, signal = heapq.heappop(self._queue)
            return time, signal
        return None

    def __bool__(self) -> bool:
        return bool(self._queue)


def simulate(
    netlist: Netlist,
    spec: StateGraph,
    max_events: int = 2000,
    seed: int = 0,
    gate_delay: Tuple[float, float] = (1.0, 10.0),
    input_delay: Tuple[float, float] = (1.0, 20.0),
    delay_overrides: Optional[Dict[str, Tuple[float, float]]] = None,
    injections: Optional[Sequence[Tuple[float, str]]] = None,
) -> SimulationReport:
    """Run one random-delay execution of the closed loop.

    Gate firings are scheduled when the gate becomes excited, with a
    uniformly drawn delay; a fresh excitation evaluation happens after
    every event, and a scheduled firing whose excitation vanished is a
    recorded :class:`Disabling` (for non-input signals) or an input
    choice resolution (for specification inputs -- benign).

    ``delay_overrides`` maps individual gate names to their own delay
    ranges -- used e.g. to model the paper's bounded-inverter regime
    (``d_inv^max < D_sn^min``).

    ``injections`` is a list of ``(time, gate_output)`` single-event
    upsets (see :mod:`repro.verify.faults`): at the given time the named
    gate output is forcibly flipped, any pending transition of that gate
    is considered consumed by the flip, and simulation continues -- the
    flip of an *interface* output is additionally checked against the
    specification mirror, so an upset the environment cannot absorb is
    recorded as a conformance failure.
    """
    rng = random.Random(seed)
    from repro.netlist.circuit_sg import _settled_initial_values

    plan = NetlistPlan(netlist)
    space = plan.space
    bit_of = {s: 1 << space.position[s] for s in netlist.signals}
    gate_plan = {name: (out_bit, ev) for name, out_bit, ev in plan.items}
    packed = space.pack(_settled_initial_values(netlist, spec))
    spec_state = spec.initial
    report = SimulationReport(netlist=netlist, spec=spec, seed=seed, fired_events=0)

    #: signal -> (scheduled time, target value); None when idle
    pending: Dict[str, Optional[Tuple[float, int]]] = {
        s: None for s in netlist.signals
    }
    scheduler = _Scheduler()
    now = 0.0

    def gate_target(name: str) -> Optional[int]:
        out_bit, evaluate = gate_plan[name]
        current = 1 if packed & out_bit else 0
        nxt = evaluate(packed, current)
        return nxt if nxt != current else None

    def enabled_inputs() -> List[SignalEvent]:
        return [
            event
            for event in spec.enabled_events(spec_state)
            if event.signal in spec.inputs
        ]

    def refresh(time: float) -> None:
        # gates: schedule new excitations, withdraw vanished ones
        for name, out_bit, evaluate in plan.items:
            current = 1 if packed & out_bit else 0
            nxt = evaluate(packed, current)
            target = nxt if nxt != current else None
            slot = pending.get(name)
            if target is None and slot is not None:
                report.disablings.append(
                    Disabling(time=time, gate=name, lost_value=slot[1])
                )
                pending[name] = None
            elif target is not None and slot is None:
                bounds = (delay_overrides or {}).get(name, gate_delay)
                fire_at = time + rng.uniform(*bounds)
                pending[name] = (fire_at, target)
                scheduler.push(fire_at, name)
        # environment: schedule enabled inputs, silently drop stale ones
        enabled = {e.signal: e for e in enabled_inputs()}
        for name in netlist.inputs:
            slot = pending.get(name)
            event = enabled.get(name)
            if event is None:
                if slot is not None:
                    pending[name] = None  # input choice resolved: benign
            elif slot is None:
                fire_at = time + rng.uniform(*input_delay)
                pending[name] = (fire_at, event.value_after)
                scheduler.push(fire_at, name)

    #: queued single-event upsets, earliest last (popped from the end)
    upsets = sorted(injections or [], key=lambda entry: entry[0], reverse=True)

    def apply_upset(time: float, target_name: str) -> bool:
        """Flip a gate output in place; False when the run must stop."""
        nonlocal spec_state, packed
        if target_name not in netlist.gates:
            return True  # inputs are owned by the environment: ignore
        packed ^= bit_of[target_name]
        pending[target_name] = None  # the flip consumed any pending firing
        report.injections_applied.append((time, target_name))
        if target_name in spec.non_inputs:
            event = SignalEvent(target_name, +1 if packed & bit_of[target_name] else -1)
            targets = spec.fire(spec_state, event)
            if not targets:
                report.conformance_failures.append((time, target_name))
                return False
            spec_state = targets[0]
        refresh(time)
        return True

    refresh(now)
    while report.fired_events < max_events:
        popped = scheduler.pop()
        stopped = False
        applied = False
        while upsets and (popped is None or upsets[-1][0] <= popped[0]):
            upset_time, upset_signal = upsets.pop()
            now = max(now, upset_time)
            applied = True
            if not apply_upset(now, upset_signal):
                stopped = True
                break
        if stopped:
            break
        if popped is None:
            if applied:
                continue  # an upset may have re-excited some gate
            break
        now, signal = popped
        slot = pending.get(signal)
        if slot is None or slot[0] != now:
            continue  # stale queue entry
        _, target = slot
        pending[signal] = None
        if signal in netlist.inputs:
            event = SignalEvent(signal, +1 if target else -1)
            targets = spec.fire(spec_state, event)
            if not targets:
                continue  # environment changed its mind; skip silently
            spec_state = targets[0]
            bit = bit_of[signal]
            packed = (packed | bit) if target else (packed & ~bit)
        else:
            if gate_target(signal) != target:
                continue  # vanished between scheduling and now (recorded)
            bit = bit_of[signal]
            packed = (packed | bit) if target else (packed & ~bit)
            if signal in spec.non_inputs:
                event = SignalEvent(signal, +1 if target else -1)
                targets = spec.fire(spec_state, event)
                if not targets:
                    report.conformance_failures.append((now, signal))
                    break
                spec_state = targets[0]
        report.fired_events += 1
        refresh(now)
    return report


def monte_carlo(
    netlist: Netlist,
    spec: StateGraph,
    runs: int = 25,
    max_events: int = 1000,
    seed: int = 0,
) -> List[SimulationReport]:
    """Independent random-delay runs; returns one report per run."""
    return [
        simulate(
            netlist,
            spec,
            max_events=max_events,
            seed=seed + run,
        )
        for run in range(runs)
    ]
