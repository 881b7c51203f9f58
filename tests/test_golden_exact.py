"""Golden classify reports, compared bit for bit.

test_golden_reports.py holds the catalog maxima only to a factor of ten,
so it cannot see a residual that moved by one rounding step.  This file
stores the full report of the same eleven catalog names under both
schemes on the 4^4 grid, plus the generator paths that the catalog does
not cover:

* pow:-2 at h = 0.5, whose stencils leave the chart margins at some
  nodes, so the report is singular;
* a product, a mirror and an L: image under both schemes;
* chiral:rho, whose evaluator nests a second stencil, at h = 1e-3
  Richardson on the 3^4 grid.

Every max and mean must equal the stored float exactly.

Regenerate the file (only when a change of sampled values is intended) with

    PYTHONPATH=src python tests/test_golden_exact.py
"""

import json
import pathlib

import pytest

from fueterlab.classify import classify
from fueterlab.diffops import DiffConfig
from fueterlab.function_model import SampleGrid
from fueterlab.generators import resolve_function_spec

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "classify_exact_4x4.json"
CATALOG_NAMES = ("rho", "varrho", "sigma", "x-over-r-iota", "identity",
                 "pow:-2", "pow:-1", "pow:0", "pow:2", "pow:3", "pow:4")
GENERATED = ("product:rho*pow:3", "mirror:pow:3", "L:-2:0.5:-0.3,1:1:0,3:0.2:0.7")
SCHEMES = ("central", "richardson")
GRID = SampleGrid(n_per_axis=4)

CASES = {f"{spec}/{scheme}": (spec, GRID, DiffConfig(scheme=scheme))
         for spec in CATALOG_NAMES + GENERATED for scheme in SCHEMES}
CASES["pow:-2/central/h=0.5"] = ("pow:-2", GRID, DiffConfig(h=0.5))
CASES["chiral:rho/richardson/h=0.001/3x3"] = (
    "chiral:rho", SampleGrid(n_per_axis=3), DiffConfig(h=1e-3, scheme="richardson"))


def current_report(key: str) -> dict:
    spec, grid, cfg = CASES[key]
    report = classify(resolve_function_spec(spec), grid, cfg).to_dict()
    return json.loads(json.dumps(report))


@pytest.fixture(scope="module")
def golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("key", CASES)
def test_report_equals_golden_exactly(golden, key):
    assert current_report(key) == golden[key]


def test_margin_dropped_case_is_singular(golden):
    report = golden["pow:-2/central/h=0.5"]
    assert report["class_I"]["verdict"] == "singular"
    assert report["class_I"]["max"] is not None


if __name__ == "__main__":
    with open(GOLDEN_PATH, "w") as fh:
        json.dump({key: current_report(key) for key in CASES}, fh, indent=2, sort_keys=True)
        fh.write("\n")
