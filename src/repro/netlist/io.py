"""JSON persistence for netlists.

Lets a synthesised circuit be saved, inspected, hand-edited and verified
again -- or a circuit designed elsewhere be checked against a
specification with ``repro-si check``.  The representation is plain and
stable::

    {
      "name": "fig3_cimpl",
      "inputs": ["a", "b"],
      "interface_outputs": ["c", "d", "x"],
      "gates": [
        {"output": "and_c_0", "kind": "and",
         "inputs": [["b", 1], ["d", 0]]},
        {"output": "c", "kind": "c",
         "inputs": [["S_c", 1], ["and_c_2", 0]]},
        {"output": "f", "kind": "complex",
         "inputs": [["a", 1], ["f", 1]],
         "function": [[["a", 1]], [["f", 1]]]}
      ],
      "initial_hints": {"c_bar": ["c", 0]},
      "state_holding": ["c"]
    }

Complex-gate functions are covers serialised as lists of literal lists.
"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

from repro.boolean.cover import Cover
from repro.boolean.cube import Cube
from repro.netlist.gates import Gate, GateKind
from repro.netlist.netlist import Netlist


def netlist_to_json(netlist: Netlist, indent: int = 2) -> str:
    """Serialise a netlist to JSON text."""
    gates: List[Dict] = []
    for output, gate in netlist.gates.items():
        entry: Dict = {
            "output": output,
            "kind": gate.kind.value,
            "inputs": [[signal, polarity] for signal, polarity in gate.inputs],
        }
        if gate.kind == GateKind.COMPLEX:
            entry["function"] = [
                [[signal, value] for signal, value in cube.literals]
                for cube in gate.function
            ]
        gates.append(entry)
    document = {
        "name": netlist.name,
        "inputs": list(netlist.inputs),
        "interface_outputs": list(netlist.interface_outputs),
        "gates": gates,
        "initial_hints": {
            name: list(hint) for name, hint in netlist.initial_hints.items()
        },
        "state_holding": sorted(netlist.declared_state_holding),
    }
    return json.dumps(document, indent=indent) + "\n"


def _field(entry: Dict, key: str, kind: type, where: str):
    """``entry[key]``, or a :class:`ValueError` naming the missing or
    ill-typed field."""
    if key not in entry:
        raise ValueError(f"{where} has no {key!r} field")
    value = entry[key]
    if not isinstance(value, kind):
        raise ValueError(
            f"{where} field {key!r} must be a {kind.__name__}, "
            f"not {type(value).__name__}"
        )
    return value


def _pins(pairs: List, where: str) -> Tuple[Tuple[str, int], ...]:
    try:
        return tuple((signal, int(value)) for signal, value in pairs)
    except (TypeError, ValueError):
        raise ValueError(f"{where}: expected [signal, 0|1] pairs") from None


def netlist_from_json(text: str) -> Netlist:
    """Parse JSON text back into a :class:`Netlist`.

    Raises :class:`ValueError` for text that is not a netlist document,
    naming the first missing or ill-typed field.
    """
    document = json.loads(text)
    if not isinstance(document, dict):
        raise ValueError(
            f"a netlist is a JSON object, not {type(document).__name__}"
        )
    netlist = Netlist(
        name=document.get("name", "netlist"),
        inputs=tuple(_field(document, "inputs", list, "netlist")),
        interface_outputs=tuple(document.get("interface_outputs", ())),
    )
    for index, entry in enumerate(_field(document, "gates", list, "netlist")):
        if not isinstance(entry, dict):
            raise ValueError(f"gate {index} is not a JSON object")
        where = f"gate {index}"
        output = _field(entry, "output", str, where)
        where = f"gate {output!r}"
        kind_name = _field(entry, "kind", str, where)
        try:
            kind = GateKind(kind_name)
        except ValueError:
            known = ", ".join(k.value for k in GateKind)
            raise ValueError(
                f"{where} has unknown kind {kind_name!r} (one of {known})"
            ) from None
        inputs = _pins(_field(entry, "inputs", list, where), f"{where} inputs")
        function = None
        if kind == GateKind.COMPLEX:
            function = Cover(
                [
                    Cube(dict(_pins(literals, f"{where} function")))
                    for literals in _field(entry, "function", list, where)
                ]
            )
        netlist.add_gate(Gate(output, kind, inputs, function=function))
    for name, hint in document.get("initial_hints", {}).items():
        netlist.initial_hints[name] = (hint[0], int(hint[1]))
    netlist.declared_state_holding.update(document.get("state_holding", ()))
    netlist.fanin_closure_check()
    return netlist


def save_netlist(netlist: Netlist, path: str) -> None:
    with open(path, "w") as handle:
        handle.write(netlist_to_json(netlist))


def load_netlist(path: str) -> Netlist:
    with open(path) as handle:
        return netlist_from_json(handle.read())
