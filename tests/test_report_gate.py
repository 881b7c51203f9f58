"""tools/report_gate.py prints the same line for an argv every time it runs it.

Its argv list is checked for size and order, and two of its argvs, one
report and one error, are run twice in process: the lines must be equal,
so the report's timestamp does not enter them.
"""

import hashlib
import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "report_gate", Path(__file__).resolve().parent.parent / "tools" / "report_gate.py")
report_gate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(report_gate)

EMPTY = hashlib.sha256(b"").hexdigest()


def test_the_gate_runs_its_listed_argvs():
    argvs = report_gate.argvs()
    # 22 specs x 2 schemes, the 21 CE specs x 2 schemes, 3 seeds, 4 step argvs
    assert len(argvs) == 44 + 42 + 3 + 4
    assert argvs[0] == ["classify", "rho", "--scheme", "central", report_gate.GRID]
    assert ["laurent", "chiral:rho", "--scheme", "central", "--check-class"] not in argvs
    assert argvs[-1] == ["verify-props", "--h", "1e-300"]


def test_a_rerun_gives_identical_lines():
    argvs = (report_gate.argvs()[0], ["classify", "rho", "--h", "1e-300"])
    first = [report_gate.gate_line(argv) for argv in argvs]
    assert first == [report_gate.gate_line(argv) for argv in argvs]
    report, error = (line.split("\t") for line in first)
    assert report[:2] == ["classify rho --scheme central " + report_gate.GRID, "0"]
    assert report[2] != EMPTY and report[3] == EMPTY
    assert error[:3] == ["classify rho --h 1e-300", "2", EMPTY] and error[3] != EMPTY
