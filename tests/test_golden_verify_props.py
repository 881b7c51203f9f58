"""Golden verify-props report: the sixteen checks keep their verdicts.

The stored file holds ``run_all_checks(seed=0)`` under the default
configuration.  Check names, their order, ``passed`` and ``tolerance`` must
match exactly; a ``max_residual`` may drift with summation order but must
stay within a factor of GOLDEN_FACTOR of the stored value, unless both
values sit at the rounding floor (the same rule as the catalog goldens).

Regenerate the file (only when a change of results is intended) with

    PYTHONPATH=src python tests/test_golden_verify_props.py
"""

import json
import pathlib

from test_golden_reports import _max_agrees

from fueterlab.verification import run_all_checks

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "verify_props.json"


def current_report() -> list:
    return [check.to_dict() for check in run_all_checks(seed=0)]


def test_verify_props_matches_golden():
    with open(GOLDEN_PATH) as fh:
        want = json.load(fh)
    got = current_report()
    assert [c["name"] for c in got] == [c["name"] for c in want]
    for g, w in zip(got, want):
        assert g["passed"] == w["passed"], g["name"]
        assert g["tolerance"] == w["tolerance"], g["name"]
        assert _max_agrees(g["max_residual"], w["max_residual"]), \
            f"{g['name']}: max_residual {g['max_residual']!r} vs golden {w['max_residual']!r}"


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(current_report(), fh, indent=2, sort_keys=True)
        fh.write("\n")
