"""DeMorgan hazard-freedom: an independent ternary oracle over SOP covers.

Jukna's *Notes on Hazard-Free Circuits* recalls the classical
correspondence (Eichelberger): evaluate a DeMorgan circuit over the
Kleene ternary algebra ``{0, u, 1}`` and it is hazard-free on a
(partial) input vector iff the ternary value is definite whenever the
Boolean function is constant on the corresponding subcube.  Our
standard implementation (Fig. 2) is a two-level SOP network per
excitation function feeding a C element, so the criterion is directly
checkable on the *literal dicts* of the synthesized covers — no
packed codes, no bitengine, no reachability replay: a second derivation
path for the paper's central hazard-freedom claim.

Per reachable state ``s`` the excited signals ``U(s)`` are the inputs
in flight; the oracle forms the ternary vector fixing every stable
signal to its code and every signal of ``U(s)`` to ``u``, then makes
three checks per non-input signal ``a``:

* **excitation persistence** — for ``s ∈ ER(a+)`` the set cover must
  ternary-evaluate to a definite 1 with the *other* excited signals
  unknown (symmetrically the reset cover on ``ER(a-)``).  A monotonous
  cover satisfies this by construction: the region's cube cannot
  constrain a concurrently excited signal, so no in-flight order of
  arrivals can drop the function.
* **cube monotonicity** — each cube is one AND gate, and in a
  speed-independent circuit every gate, once excited, must stay
  excited until it fires.  Along every spec arc (``u`` fires, ``u ≠
  a``): a cube supporting an active excitation must not drop while
  ``a`` is still pending (the gate would lose its excitation
  mid-flight), and a cube must not *rise* after ``a`` has already
  fired past it (a pointless rise whose later withdrawal can only
  glitch).  The Figure-4 baseline of Example 2 fails exactly here:
  ``t = c'd`` rises while ``b`` is already set, then input ``d``
  overtakes it.  Monotonous covers never rise or fall against the
  region structure, so the check is vacuous on them.
* **static (Eichelberger)** — while ``a`` is stable, the cover that
  could flip it (set cover at ``a = 0``, reset cover at ``a = 1``; the
  C element masks the other side) must not go ternary-``u`` when the
  Boolean function is constant across every corner of the transition
  subcube.  Corner enumeration is exponential in ``|U(s)|`` and only
  runs when the ternary value is already ``u``; above
  ``max_corner_signals`` the state is recorded as truncated instead.

The oracle's verdict is cross-checked claim-for-claim against the
derivation path's own hazard verdicts (:func:`cross_check_verdicts`)
over corpus sweeps; where the two disagree on non-MC controls,
:func:`suggest_glitch_injections` turns each DeMorgan claim into a
targeted single-event-upset scenario for the fault engine
(:func:`repro.verify.faults.glitch_campaign`'s ``injections`` form).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.boolean.cover import Cover
from repro.core.synthesis import Implementation

#: ternary values: 0, 1, or None for Kleene's "u" (unknown / in flight)
Ternary = Optional[int]


def ternary_cube(cube, values: Dict[str, Ternary]) -> Ternary:
    """Kleene AND of the cube's literals under a partial assignment."""
    unknown = False
    for signal, required in cube.literals:
        value = values.get(signal)
        if value is None:
            unknown = True
        elif value != required:
            return 0
    return None if unknown else 1


def ternary_cover(cover: Cover, values: Dict[str, Ternary]) -> Ternary:
    """Kleene OR over the cover's cubes under a partial assignment."""
    unknown = False
    for cube in cover:
        result = ternary_cube(cube, values)
        if result == 1:
            return 1
        if result is None:
            unknown = True
    return None if unknown else 0


def _constant_over_corners(
    cover: Cover, values: Dict[str, Ternary], unknowns: Sequence[str]
) -> Optional[int]:
    """The cover's Boolean value if constant over all 2^k corners, else None."""
    corner = dict(values)
    first: Optional[bool] = None
    for bits in range(1 << len(unknowns)):
        for i, signal in enumerate(unknowns):
            corner[signal] = (bits >> i) & 1
        value = cover.covers(corner)
        if first is None:
            first = value
        elif value != first:
            return None
    return int(first) if first is not None else None


@dataclass(frozen=True)
class DeMorganClaim:
    """One hazard found by the ternary oracle."""

    signal: str
    cover: str  # "set" | "reset"
    state: str
    kind: str  # "excitation" | "monotonicity" | "static"
    detail: str

    def __str__(self) -> str:
        side = "S" if self.cover == "set" else "R"
        return f"{self.kind} hazard on {side}{self.signal} at {self.state}: {self.detail}"


@dataclass
class DeMorganReport:
    """Outcome of the DeMorgan oracle on one implementation."""

    name: str
    claims: List[DeMorganClaim] = field(default_factory=list)
    states_checked: int = 0
    signals_checked: int = 0
    #: states whose corner enumeration was skipped (too many signals in
    #: flight); a non-empty list makes the verdict *inconclusive*, not
    #: hazard-free
    truncated_states: List[str] = field(default_factory=list)

    @property
    def hazard_free(self) -> bool:
        return not self.claims and not self.truncated_states

    @property
    def conclusive(self) -> bool:
        return not self.truncated_states

    def describe(self) -> str:
        verdict = (
            "HAZARD-FREE (DeMorgan)"
            if self.hazard_free
            else ("INCONCLUSIVE" if not self.claims else "HAZARDOUS")
        )
        lines = [
            f"demorgan oracle: {self.name}: {verdict} "
            f"({self.states_checked} states x {self.signals_checked} signals)"
        ]
        for claim in self.claims:
            lines.append(f"  {claim}")
        if self.truncated_states:
            lines.append(
                f"  {len(self.truncated_states)} state(s) above the corner cap: "
                + ", ".join(self.truncated_states[:5])
            )
        return "\n".join(lines)


def _check_cube_monotonicity(impl: Implementation, report: DeMorganReport) -> None:
    """Every AND gate must switch monotonically through each episode.

    Walks every spec arc once per cube (cheap: arcs x cubes with dict
    lookups) and flags the two ways a cube can move against the region
    structure while its gate output may still be in flight:

    * the cube *drops* on a foreign firing while its signal is still
      excited in the direction the cube serves — the supporting gate is
      disabled mid-excitation;
    * the cube *rises* after its signal already sits past the fired
      value — a pointless rise whose later withdrawal can only glitch
      (Example 2's ``t = c'd`` rising while ``b`` is already 1).

    A monotonous cover does neither: the region cube holds constant
    over the excitation closure and falls exactly once afterwards.
    """
    sg = impl.sg
    for signal in sorted(impl.networks):
        network = impl.networks[signal]
        for label, cover, pre_value in (
            ("set", network.set_cover, 0),
            ("reset", network.reset_cover, 1),
        ):
            for cube in cover:
                for state in sg.state_list:
                    code = sg.code_dict(state)
                    before = cube.covers(code)
                    for event, target in sg.arcs_from(state):
                        if event.signal == signal:
                            continue
                        after = cube.covers(sg.code_dict(target))
                        if before == after:
                            continue
                        if (
                            before
                            and not after
                            and code[signal] == pre_value
                            and sg.is_excited(state, signal)
                        ):
                            report.claims.append(
                                DeMorganClaim(
                                    signal=signal,
                                    cover=label,
                                    state=state,
                                    kind="monotonicity",
                                    detail=(
                                        f"cube {cube!r} dropped by "
                                        f"{event.signal}{'+' if event.direction == 1 else '-'} while "
                                        f"{signal} is still excited"
                                    ),
                                )
                            )
                        elif (
                            not before
                            and after
                            and sg.code_dict(target)[signal] == 1 - pre_value
                        ):
                            report.claims.append(
                                DeMorganClaim(
                                    signal=signal,
                                    cover=label,
                                    state=target,
                                    kind="monotonicity",
                                    detail=(
                                        f"cube {cube!r} rises on "
                                        f"{event.signal}{'+' if event.direction == 1 else '-'} after "
                                        f"{signal} already fired"
                                    ),
                                )
                            )


def demorgan_check(
    impl: Implementation, max_corner_signals: int = 12
) -> DeMorganReport:
    """Run the ternary criterion over every state x non-input signal.

    Works entirely on the literal-dict form of the synthesized covers
    and the state graph's codes/excitations — independent of the
    bitengine derivation path by construction.
    """
    sg = impl.sg
    report = DeMorganReport(name=sg.name)
    signals = sorted(impl.networks)
    report.signals_checked = len(signals)
    _check_cube_monotonicity(impl, report)
    for state in sg.state_list:
        report.states_checked += 1
        code = sg.code_dict(state)
        excited: FrozenSet[str] = sg.excited_signals(state)
        if not excited:
            continue
        for signal in signals:
            network = impl.networks[signal]
            others = [u for u in excited if u != signal]
            values: Dict[str, Ternary] = dict(code)
            for u in others:
                values[u] = None
            if signal in excited:
                # excitation persistence: the active cover must stay
                # definitely on while concurrent signals fire
                rising = code[signal] == 0
                cover = network.set_cover if rising else network.reset_cover
                label = "set" if rising else "reset"
                result = ternary_cover(cover, values)
                if result != 1:
                    report.claims.append(
                        DeMorganClaim(
                            signal=signal,
                            cover=label,
                            state=state,
                            kind="excitation",
                            detail=(
                                f"ternary value {'u' if result is None else result} "
                                f"with {sorted(others)} in flight "
                                f"(must hold 1 until {signal} fires)"
                            ),
                        )
                    )
                continue
            if not others:
                continue
            # static check on the cover the C element would listen to
            stable_value = code[signal]
            cover = network.set_cover if stable_value == 0 else network.reset_cover
            label = "set" if stable_value == 0 else "reset"
            if ternary_cover(cover, values) is not None:
                continue
            if len(others) > max_corner_signals:
                if state not in report.truncated_states:
                    report.truncated_states.append(state)
                continue
            constant = _constant_over_corners(cover, values, others)
            if constant is not None:
                report.claims.append(
                    DeMorganClaim(
                        signal=signal,
                        cover=label,
                        state=state,
                        kind="static",
                        detail=(
                            f"function constant {constant} over the "
                            f"{sorted(others)} subcube but ternary value u "
                            f"(static-{constant} hazard)"
                        ),
                    )
                )
    return report


def cross_check_verdicts(
    name: str,
    demorgan: DeMorganReport,
    si_hazard_free: Optional[bool],
) -> Optional[str]:
    """Compare the two oracles' verdicts on one design (None = agree).

    ``si_hazard_free`` is the derivation path's verdict (the static
    speed-independence check / hazard sim); ``None`` (inconclusive)
    never counts as a disagreement, and neither does a truncated
    DeMorgan run — only two *conclusive*, *opposite* verdicts do.
    """
    if si_hazard_free is None or not demorgan.conclusive:
        return None
    if bool(demorgan.hazard_free) == bool(si_hazard_free):
        return None
    if demorgan.hazard_free:
        return (
            f"{name}: speed-independence check reports hazards but the "
            f"DeMorgan oracle finds the covers hazard-free"
        )
    kinds = sorted({claim.kind for claim in demorgan.claims})
    return (
        f"{name}: DeMorgan oracle claims {len(demorgan.claims)} hazard(s) "
        f"({', '.join(kinds)}) but the speed-independence check reports "
        f"hazard-free"
    )


def suggest_glitch_injections(
    netlist,
    report: DeMorganReport,
    window: Tuple[float, float] = (5.0, 150.0),
    per_claim: int = 2,
) -> List[Tuple[float, str]]:
    """Turn DeMorgan claims into targeted SEU scenarios for the fault engine.

    Each claim names the cover (hence the gate neighbourhood) the
    ternary analysis says can glitch; the suggestions aim the
    single-event upsets of :func:`repro.verify.faults.glitch_campaign`
    at exactly those gates (``injections=[(at, gate)]`` form) instead
    of uniformly random ones.  Injection times are spread
    deterministically across ``window`` so campaigns stay reproducible.
    """
    suggestions: List[Tuple[float, str]] = []
    if not report.claims or per_claim < 1:
        return suggestions
    lo, hi = window
    total = len(report.claims) * per_claim
    step = (hi - lo) / max(total, 1)
    tick = 0
    for claim in report.claims:
        prefix = "S" if claim.cover == "set" else "R"
        target = f"{prefix}_{claim.signal}"
        if target not in netlist.gates:
            ands = sorted(
                g for g in netlist.gates if g.startswith(f"and_{claim.signal}_")
            )
            target = ands[0] if ands else claim.signal
        if target not in netlist.gates:
            continue
        for _ in range(per_claim):
            suggestions.append((lo + step * (tick + 0.5), target))
            tick += 1
    return suggestions


__all__ = [
    "DeMorganClaim",
    "DeMorganReport",
    "cross_check_verdicts",
    "demorgan_check",
    "suggest_glitch_injections",
    "ternary_cover",
    "ternary_cube",
]
