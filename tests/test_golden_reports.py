"""Golden catalog reports: verdicts stay fixed, residual maxima keep their order.

The stored reports cover the eleven catalog names under both stencil
schemes on the 4^4 grid.  Verdicts and the inclusion flag must match
exactly.  A residual maximum may drift with summation order but must stay
within a factor of GOLDEN_FACTOR of the stored value, unless both values
sit at the rounding floor of the default step h = 1e-5.

Regenerate the file only when a verdict change is intended, or when the
points that classify samples change by design and a maximum moves outside
the rule above (as when the chart partials came to be taken from the
Cartesian stencil by the chain rule), with

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import json
import pathlib

import pytest

from fueterlab.classify import classify
from fueterlab.diffops import DiffConfig
from fueterlab.function_model import SampleGrid
from fueterlab.generators import get_witness

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "catalog_reports_4x4.json"
CATALOG_NAMES = ("rho", "varrho", "sigma", "x-over-r-iota", "identity",
                 "pow:-2", "pow:-1", "pow:0", "pow:2", "pow:3", "pow:4")
SCHEMES = ("central", "richardson")
STATS_KEYS = ("class_I", "class_II", "class_III", "regular", "centrality")
GRID = SampleGrid(n_per_axis=4)
GOLDEN_FACTOR = 10.0
ROUNDING_FLOOR = 1e-9


def current_report(name: str, scheme: str) -> dict:
    return classify(get_witness(name).function, GRID,
                    DiffConfig(scheme=scheme)).to_dict()


def _load_golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def _max_agrees(got, want) -> bool:
    if got is None or want is None:
        return got is None and want is None
    if got <= ROUNDING_FLOOR and want <= ROUNDING_FLOOR:
        return True
    return want / GOLDEN_FACTOR <= got <= want * GOLDEN_FACTOR


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_report_matches_golden(name, scheme):
    want = _load_golden()[f"{name}/{scheme}"]
    got = current_report(name, scheme)
    assert got["inclusion_consistent"] == want["inclusion_consistent"]
    for key in STATS_KEYS:
        assert got[key]["verdict"] == want[key]["verdict"], key
        assert _max_agrees(got[key]["max"], want[key]["max"]), \
            f"{key}: max {got[key]['max']!r} vs golden {want[key]['max']!r}"


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    golden = {f"{name}/{scheme}": current_report(name, scheme)
              for name in CATALOG_NAMES for scheme in SCHEMES}
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=2, sort_keys=True)
        fh.write("\n")
