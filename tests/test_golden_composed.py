"""Golden reports of user-built functions, compared bit for bit.

Three functions given as plain Python callables, the paths that are filled
one point at a time:

* a raw quaternion polynomial (a QFunction with only an evaluator);
* from_uv without uv_array, whose v raises for t < -1/2, so part of the
  grid is singular;
* the sweep of a ComplexStem.named user stem without func_array.

Each is classified on the 4^4 grid under both stencil schemes, and the
report must equal the stored one exactly: every sampled value of these
paths is part of the contract, not only the verdicts.

Regenerate the file (only when a change of sampled values is intended) with

    PYTHONPATH=src python tests/test_golden_composed.py
"""

import json
import math
import pathlib

import pytest

from fueterlab.classify import classify
from fueterlab.diffops import DiffConfig
from fueterlab.function_model import ComplexStem, QFunction, SampleGrid, cullen_extend, from_uv
from fueterlab.quaternion_core import Quaternion

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "composed_reports_4x4.json"
SCHEMES = ("central", "richardson")
GRID = SampleGrid(n_per_axis=4)

COEFFS = (Quaternion(0.25, -0.5, 0.75, 0.125), Quaternion(-0.625, 0.375, 0.5, -0.875),
          Quaternion(0.5, 0.25, -0.375, 0.625))
STEM_TERMS = ((-1, 0.3 - 0.2j), (1, -0.7 + 0.4j), (3, 0.1 + 0.9j))


def raw_polynomial(p):
    total, power = Quaternion(), Quaternion(1.0)
    for c in COEFFS:
        total = total + c * power
        power = power * p
    return total


def _functions():
    return {
        "raw": QFunction("raw-poly", raw_polynomial, kind="raw"),
        "uv": from_uv(lambda s: 1.5 * s.alpha - 0.25,
                      lambda s: math.sqrt(s.t + 0.5) * math.log(math.tan(s.beta / 2.0)),
                      name="uv-sqrt"),
        "cullen": cullen_extend(ComplexStem.named(
            "user-stem", lambda z: sum(c * z ** n for n, c in STEM_TERMS))),
    }


def current_reports() -> dict:
    return {f"{key}/{scheme}": classify(f, GRID, DiffConfig(scheme=scheme)).to_dict()
            for key, f in _functions().items() for scheme in SCHEMES}


def _load_golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def reports():
    return current_reports()


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("key", ("raw", "uv", "cullen"))
def test_report_matches_golden_exactly(reports, key, scheme):
    assert reports[f"{key}/{scheme}"] == _load_golden()[f"{key}/{scheme}"]


def test_golden_covers_a_partly_singular_grid():
    golden = _load_golden()
    assert golden["uv/central"]["class_I"]["verdict"] == "singular"
    assert golden["cullen/central"]["class_III"]["verdict"] == "pass"
    assert golden["raw/richardson"]["class_II"]["verdict"] == "not-CE"


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(current_reports(), fh, indent=2, sort_keys=True)
        fh.write("\n")
