"""The report byte-identity gate: one line per CLI argv, to diff between two checkouts.

Run from the repository root of each checkout, then compare:

    python3 tools/report_gate.py > before.txt     # at the parent commit
    python3 tools/report_gate.py > after.txt      # at the change
    diff before.txt after.txt

Each argv runs in process, through fueterlab.cli.main, on the src/ next to
this file, so each checkout runs its own code.  Its line holds, tab
separated: the argv, the exit status, the sha256 of stdout with the report's
"timestamp" line removed, and the sha256 of stderr.  The argvs:

* classify of SPECS under both schemes on GRID, a 5^4 grid;
* laurent --check-class of the CE specs among them under both schemes;
* verify-props at seeds 0, 1 and 7;
* the STEP_ROUNDS_AWAY argvs, whose step h = 1e-300 no coordinate moves by.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import shlex
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fueterlab.cli import main  # noqa: E402
from fueterlab.generators import resolve_function_spec  # noqa: E402

SPECS = ("rho", "varrho", "sigma", "x-over-r-iota", "identity",
         "pow:-2", "pow:-1", "pow:0", "pow:2", "pow:3", "pow:4",
         "stem:log-tan", "stem:arctan", "stem:2:1:0,-1:0:0.5", "L:3:1:0", "L:-1:0.5:0,2:1:0.25",
         "product:rho*pow:3", "product:pow:2*pow:3", "sum:x-over-r-iota+pow:-1",
         "mirror:rho", "mirror:pow:3", "chiral:rho")
SCHEMES = ("central", "richardson")
GRID = "--grid=-1,1,0.5,1.5,-2.5,2.5,0.4,2.7,5"
STEP_ROUNDS_AWAY = (
    ["classify", "rho", "--h", "1e-300"],
    ["laurent", "pow:2", "--check-class", "--h", "1e-300"],
    ["laurent", "rho", "--check-class", "--h", "1e-300"],
    ["verify-props", "--h", "1e-300"],
)


def argvs() -> list:
    """ every argv of the gate, in the order it prints them """
    out = [["classify", spec, "--scheme", scheme, GRID] for spec in SPECS for scheme in SCHEMES]
    out += [["laurent", spec, "--scheme", scheme, "--check-class"]
            for spec in SPECS if resolve_function_spec(spec).is_ce for scheme in SCHEMES]
    out += [["verify-props", "--seed", str(seed)] for seed in (0, 1, 7)]
    return out + [list(argv) for argv in STEP_ROUNDS_AWAY]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def gate_line(argv: list) -> str:
    """ argv, exit status, sha256 of stdout without its timestamp line, sha256 of stderr """
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        status = main(argv)
    report = "".join(line for line in stdout.getvalue().splitlines(keepends=True)
                     if not line.lstrip().startswith('"timestamp":'))
    return "\t".join((shlex.join(argv), str(status), _sha256(report), _sha256(stderr.getvalue())))


if __name__ == "__main__":
    for line_argv in argvs():
        print(gate_line(line_argv), flush=True)
