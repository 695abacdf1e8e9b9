"""Parsers for ``repro-si synth --area`` stdout and ``-X importtime``."""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from typing import Dict, Optional

_INSERTED = re.compile(r"^(\d+) state signal\(s\) inserted", re.MULTILINE)
_VERDICT = re.compile(r"^speed-independence check: .*: ([A-Z-]+)\s*$", re.MULTILINE)


@dataclass(frozen=True)
class SynthOutput:
    """What the benchmark checks in one ``synth`` process's output."""

    added_signals: int
    gates: int
    verdict: Optional[str]
    netlist_sha256: str


def netlist_block(text: str) -> str:
    """The ``# netlist`` block: its header plus one line per gate."""
    lines = text.splitlines()
    for start, line in enumerate(lines):
        if line.startswith("# netlist "):
            block = [line]
            for gate in lines[start + 1:]:
                if not gate.strip():
                    break
                block.append(gate)
            return "\n".join(block) + "\n"
    return ""


def parse_synth(text: str) -> SynthOutput:
    inserted = _INSERTED.search(text)
    verdict = _VERDICT.search(text)
    block = netlist_block(text)
    return SynthOutput(
        added_signals=int(inserted.group(1)) if inserted else 0,
        gates=max(block.count("\n") - 1, 0),
        verdict=verdict.group(1) if verdict else None,
        netlist_sha256=hashlib.sha256(block.encode("utf-8")).hexdigest(),
    )


def parse_importtime(stderr: str) -> Dict[str, float]:
    """Seconds for the top-level ``repro*`` imports and for numpy.

    ``-X importtime`` prints ``self | cumulative | name`` in
    microseconds, nesting shown by the indentation of ``name``.
    """
    repro = numpy = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        cumulative = int(parts[1])
        name = parts[2].rstrip()
        module = name.strip()
        if module == "numpy":
            numpy += cumulative
        if len(name) - len(name.lstrip()) == 1 and (
            module == "repro" or module.startswith("repro.")
        ):
            repro += cumulative
    return {"import.repro_s": repro / 1e6, "import.numpy_s": numpy / 1e6}
