"""The ``synth`` stdout parsers against a saved berkel3 run."""

import hashlib
import os

from synth_output import netlist_block, parse_importtime, parse_synth

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def berkel3() -> str:
    with open(os.path.join(DATA, "berkel3_synth.txt"), encoding="utf-8") as handle:
        return handle.read()


def test_berkel3_signal_count_gates_and_verdict():
    out = parse_synth(berkel3())
    assert out.added_signals == 2
    assert out.gates == 13
    assert out.verdict == "HAZARD-FREE"


def test_netlist_hash_covers_only_the_netlist_block():
    text = berkel3()
    block = netlist_block(text)
    assert block.startswith("# netlist berkel3+x+x1_cimpl")
    assert block.endswith("x1 = C(and_x1_5, and_x1_6')\n")
    assert parse_synth(text).netlist_sha256 == hashlib.sha256(block.encode()).hexdigest()
    # the area report above the netlist does not enter the hash
    edited = text.replace("TOTAL                     140", "TOTAL 1")
    assert parse_synth(edited).netlist_sha256 == parse_synth(text).netlist_sha256


def test_no_insertion_hazard_and_crash_outputs():
    clean = "a = C(b, c)\n\n# netlist d: inputs b\na = C(b, c)\n\n"
    assert parse_synth(clean).added_signals == 0
    assert parse_synth(clean).gates == 1
    hazardous = clean + "speed-independence check: d_cimpl vs d: HAZARDOUS\n"
    assert parse_synth(hazardous).verdict == "HAZARDOUS"
    crashed = parse_synth("")
    assert (crashed.added_signals, crashed.gates, crashed.verdict) == (0, 0, None)


def test_importtime_top_level_repro_and_numpy():
    stderr = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:      1943 |      96683 |                 numpy",
            "import time:      2561 |     273924 |   repro",
            "import time:     13582 |     290694 | repro.cli",
            "import time:       100 |        100 | json",
        ]
    )
    assert parse_importtime(stderr) == {"import.repro_s": 0.290694, "import.numpy_s": 0.096683}
