"""Signal transition events.

The paper writes transitions as ``+a`` (0 -> 1) and ``-a`` (1 -> 0), with
an optional occurrence index ``+a_j`` distinguishing multiple transitions
of the same signal within one cycle.  We adopt the astg/.g convention
``a+`` / ``a-`` for parsing and printing, and keep the occurrence index
*out* of the event: occurrences are recovered structurally as excitation
regions (Definition 5), which is both faithful to the paper and robust.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class SignalEvent:
    """A rising (+1) or falling (-1) transition of a named signal."""

    signal: str
    direction: int  # +1 for a rising edge, -1 for a falling edge

    def __post_init__(self) -> None:
        if self.direction not in (1, -1):
            raise ValueError(f"direction must be +1 or -1, got {self.direction!r}")
        if not self.signal:
            raise ValueError("signal name must be non-empty")

    # ------------------------------------------------------------------
    @classmethod
    def rise(cls, signal: str) -> "SignalEvent":
        return cls(signal, +1)

    @classmethod
    def fall(cls, signal: str) -> "SignalEvent":
        return cls(signal, -1)

    @classmethod
    def parse(cls, text: str) -> "SignalEvent":
        """Parse ``a+``, ``a-``, ``+a`` or ``-a``."""
        text = text.strip()
        if len(text) < 2:
            raise ValueError(f"cannot parse signal event from {text!r}")
        if text[-1] in "+-":
            return cls(text[:-1], +1 if text[-1] == "+" else -1)
        if text[0] in "+-":
            return cls(text[1:], +1 if text[0] == "+" else -1)
        raise ValueError(f"cannot parse signal event from {text!r}")

    # ------------------------------------------------------------------
    @property
    def value_before(self) -> int:
        """The signal value in states where this event is enabled."""
        return 0 if self.direction == 1 else 1

    @property
    def value_after(self) -> int:
        return 1 if self.direction == 1 else 0

    def inverse(self) -> "SignalEvent":
        """The opposite edge of the same signal."""
        return SignalEvent(self.signal, -self.direction)

    def __str__(self) -> str:
        return f"{self.signal}{'+' if self.direction == 1 else '-'}"

    def __repr__(self) -> str:
        return f"SignalEvent({self})"
