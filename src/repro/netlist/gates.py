"""The basic gate library (Sec. III of the paper).

Gates are AND, OR (with optional inversion bubbles on inputs), NOT/BUF,
the two-input Muller C-element and the RS latch.  Input inversions on
AND/OR gates are part of the gate (the paper justifies this with the
``d_inv^max < D_sn^min`` delay argument); NOT as a *standalone* gate is
available for explicit experiments with separate inverters.

Each gate computes a next output value from its (polarity-adjusted)
input values and its current output; under the pure unbounded gate delay
model the output is *excited* whenever next != current, and the delay
before it fires is arbitrary.

Two evaluation forms exist.  :meth:`Gate.next_value` is the reference
semantics over a ``{signal: value}`` dict.  :meth:`Gate.compiled_evaluator`
compiles the gate against a :class:`~repro.boolean.compiled.SignalSpace`
into a closure over *packed* state codes -- e.g. an AND gate becomes one
``packed & inmask == want`` test -- which is what the circuit-level BFS
and the discrete-event simulator run on their hot paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Mapping, Optional, Tuple

from repro.boolean.compiled import SignalSpace

#: a compiled gate function: (packed code, current output bit) -> next bit
PackedEvaluator = Callable[[int, int], int]


class GateKind(Enum):
    AND = "and"
    OR = "or"
    NOR = "nor"
    NAND = "nand"
    NOT = "not"
    BUF = "buf"
    C = "c"  # Muller C-element: inputs (set side, reset side)
    RS = "rs"  # behavioural set/reset latch: inputs (S, R), hold on S=R
    COMPLEX = "complex"  # one atomic gate computing an arbitrary SOP


@dataclass(frozen=True)
class Gate:
    """One gate: ``output = kind(inputs)``.

    ``inputs`` is a tuple of ``(signal, polarity)`` pairs; polarity 0
    inverts the input (a bubble).  For C and RS gates the tuple must have
    exactly two entries: the set-side input first, the reset-side second.
    For the C-element the conventional instantiation ``a = C(Sa, Ra')``
    is ``Gate("a", GateKind.C, (("Sa", 1), ("Ra", 0)))``.
    """

    output: str
    kind: GateKind
    inputs: Tuple[Tuple[str, int], ...]
    #: for COMPLEX gates: the Boolean function as a Cover over the fanin
    #: signals (evaluated on raw values; input polarities are part of the
    #: cover's literals, not of the pin list)
    function: object = None

    def __post_init__(self) -> None:
        if self.kind == GateKind.COMPLEX and self.function is None:
            raise ValueError("complex gate needs a function cover")
        if self.kind in (GateKind.NOT, GateKind.BUF) and len(self.inputs) != 1:
            raise ValueError(f"{self.kind.value} gate needs exactly one input")
        if self.kind in (GateKind.C, GateKind.RS) and len(self.inputs) != 2:
            raise ValueError(f"{self.kind.value} element needs exactly two inputs")
        if self.kind in (GateKind.AND, GateKind.OR, GateKind.NOR, GateKind.NAND) and not self.inputs:
            raise ValueError(f"{self.kind.value} gate needs at least one input")
        for _, polarity in self.inputs:
            if polarity not in (0, 1):
                raise ValueError("input polarity must be 0 or 1")

    @property
    def fanin_signals(self) -> Tuple[str, ...]:
        return tuple(signal for signal, _ in self.inputs)

    def next_value(self, values: Mapping[str, int], current: int) -> int:
        """The gate's next output under the given input values."""
        if self.kind == GateKind.COMPLEX:
            point = {signal: values[signal] for signal, _ in self.inputs}
            return int(self.function.covers(point))
        effective = [
            values[signal] if polarity else 1 - values[signal]
            for signal, polarity in self.inputs
        ]
        if self.kind == GateKind.AND:
            return int(all(effective))
        if self.kind == GateKind.OR:
            return int(any(effective))
        if self.kind == GateKind.NOR:
            return int(not any(effective))
        if self.kind == GateKind.NAND:
            return int(not all(effective))
        if self.kind == GateKind.BUF:
            return effective[0]
        if self.kind == GateKind.NOT:
            return 1 - effective[0]
        if self.kind == GateKind.C:
            first, second = effective
            if first == second:
                return first
            return current
        if self.kind == GateKind.RS:
            set_in, reset_in = effective
            if set_in and not reset_in:
                return 1
            if reset_in and not set_in:
                return 0
            return current  # both idle -> hold; both active -> hold (illegal)
        raise AssertionError(f"unknown gate kind {self.kind}")  # pragma: no cover

    def _input_requirements(
        self, space: SignalSpace, flip: bool = False
    ) -> Optional[Tuple[int, int]]:
        """The ``(mask, want)`` pair for "every effective input reads 1".

        An effective input reads 1 iff the packed bit equals its polarity
        (or the opposite polarity with ``flip``, i.e. "every effective
        input reads 0").  Returns ``None`` when the same signal appears
        with both polarities, making the conjunction unsatisfiable.
        """
        required: dict = {}
        for signal, polarity in self.inputs:
            bit = 1 << space.position[signal]
            want = (polarity ^ 1) if flip else polarity
            if required.setdefault(bit, want) != want:
                return None
        mask = 0
        value = 0
        for bit, want in required.items():
            mask |= bit
            if want:
                value |= bit
        return mask, value

    def compiled_evaluator(self, space: SignalSpace) -> PackedEvaluator:
        """Compile the gate into a packed next-state closure.

        The returned callable takes ``(packed_code, current_output)`` and
        returns the next output bit; it agrees with :meth:`next_value` on
        every complete code of ``space``.  AND/OR families reduce to one
        AND-plus-compare on the packed word; COMPLEX gates evaluate their
        cover through the shared compiled IR.
        """
        if self.kind == GateKind.COMPLEX:
            compiled = self.function.compiled(space)
            cubes = tuple((c.mask, c.value) for c in compiled.cubes)
            def complex_eval(packed: int, current: int) -> int:
                for mask, value in cubes:
                    if packed & mask == value:
                        return 1
                return 0
            return complex_eval
        if self.kind in (GateKind.AND, GateKind.NAND):
            ones = self._input_requirements(space)
            zero = 0 if self.kind == GateKind.AND else 1
            if ones is None:
                return lambda packed, current, _z=zero: _z
            mask, want = ones
            if self.kind == GateKind.AND:
                return lambda packed, current: int(packed & mask == want)
            return lambda packed, current: int(packed & mask != want)
        if self.kind in (GateKind.OR, GateKind.NOR):
            zeros = self._input_requirements(space, flip=True)
            if zeros is None:  # some input is always 1
                one = 1 if self.kind == GateKind.OR else 0
                return lambda packed, current, _o=one: _o
            mask, want = zeros
            if self.kind == GateKind.OR:
                return lambda packed, current: int(packed & mask != want)
            return lambda packed, current: int(packed & mask == want)
        if self.kind in (GateKind.BUF, GateKind.NOT):
            (signal, polarity), = self.inputs
            bit = 1 << space.position[signal]
            same = polarity if self.kind == GateKind.BUF else polarity ^ 1
            if same:
                return lambda packed, current: int(bool(packed & bit))
            return lambda packed, current: int(not packed & bit)
        # C / RS: two-input latches over effective values
        (s_sig, s_pol), (r_sig, r_pol) = self.inputs
        s_bit = 1 << space.position[s_sig]
        r_bit = 1 << space.position[r_sig]
        if self.kind == GateKind.C:
            def c_eval(packed: int, current: int) -> int:
                set_in = int(bool(packed & s_bit) == bool(s_pol))
                reset_in = int(bool(packed & r_bit) == bool(r_pol))
                return set_in if set_in == reset_in else current
            return c_eval
        if self.kind == GateKind.RS:
            def rs_eval(packed: int, current: int) -> int:
                set_in = bool(packed & s_bit) == bool(s_pol)
                reset_in = bool(packed & r_bit) == bool(r_pol)
                if set_in and not reset_in:
                    return 1
                if reset_in and not set_in:
                    return 0
                return current
            return rs_eval
        raise AssertionError(f"unknown gate kind {self.kind}")  # pragma: no cover

    def rs_illegal_test(self, space: SignalSpace) -> Optional[Tuple[int, int]]:
        """Packed form of :meth:`rs_illegal`: S = R = 1 iff
        ``packed & mask == value``.  ``None`` for non-RS gates and for RS
        gates whose input wiring makes the overlap unsatisfiable.
        """
        if self.kind != GateKind.RS:
            return None
        return self._input_requirements(space)

    def rs_illegal(self, values: Mapping[str, int]) -> bool:
        """True when an RS latch sees S = R = 1 (forbidden input state)."""
        if self.kind != GateKind.RS:
            return False
        effective = [
            values[signal] if polarity else 1 - values[signal]
            for signal, polarity in self.inputs
        ]
        return effective[0] == 1 and effective[1] == 1

    def describe(self) -> str:
        body = ", ".join(
            signal if polarity else f"{signal}'" for signal, polarity in self.inputs
        )
        return f"{self.output} = {self.kind.value.upper()}({body})"
