"""Golden Laurent reports: coefficients and class-check verdicts stay fixed.

Each stored file holds what `fueterlab laurent <spec> --check-class` computes
on a 3x3 window of the CLI's default annulus, with the CLI's default orders
and quadrature points: the series, and the class check under both stencil
schemes.  Verdicts must match exactly; every coefficient must agree to
COEFF_TOL * (1 + |c|); a max_residual may drift with summation order but
must stay within a factor of GOLDEN_FACTOR of the stored value, unless both
values sit at the rounding floor.

Regenerate the files (only when a change of results is intended) with

    PYTHONPATH=src python tests/test_golden_laurent.py
"""

import json
import pathlib

import numpy as np
import pytest

from fueterlab.cli import report_json
from fueterlab.diffops import DiffConfig
from fueterlab.generators import resolve_function_spec
from fueterlab.laurent import AnnulusRegion, coefficient_class_check, laurent_coefficients

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
SPECS = {
    "pow:2": "laurent_pow2.json",
    "pow:-1": "laurent_pow-1.json",
    "rho": "laurent_rho.json",
    "stem:-2:0.5:0.25,1:-0.75:0.5,3:0.25:-1": "laurent_stem.json",
}
SCHEMES = ("central", "richardson")
REGION = AnnulusRegion(0.0, 1.0, 0.2, 0.6, n_alpha=3, n_beta=3)
COEFF_TOL = 1e-11
GOLDEN_FACTOR = 10.0
ROUNDING_FLOOR = 1e-9


def current_report(spec: str) -> dict:
    series = laurent_coefficients(resolve_function_spec(spec), REGION)
    checks = {scheme: coefficient_class_check(series, DiffConfig(scheme=scheme))
              for scheme in SCHEMES}
    return {"series": series.to_dict(),
            "class_check": {scheme: {str(n): v for n, v in sorted(stats.items())}
                            for scheme, stats in checks.items()}}


def _residual_agrees(got: float, want: float) -> bool:
    if got <= ROUNDING_FLOOR and want <= ROUNDING_FLOOR:
        return True
    return want / GOLDEN_FACTOR <= got <= want * GOLDEN_FACTOR


@pytest.fixture(scope="module", params=sorted(SPECS))
def reports(request):
    spec = request.param
    with open(GOLDEN_DIR / SPECS[spec]) as fh:
        want = json.load(fh)
    return spec, current_report(spec), want


def test_coefficients_match_golden(reports):
    spec, got, want = reports
    def header(series):
        return {k: v for k, v in series.items() if k != "coefficients"}

    assert header(got["series"]) == header(want["series"])
    got_coeffs = got["series"]["coefficients"]
    want_coeffs = want["series"]["coefficients"]
    assert set(got_coeffs) == set(want_coeffs)
    for n, grid in want_coeffs.items():
        c_want = np.array(grid) @ (1.0, 1.0j)
        c_got = np.array(got_coeffs[n]) @ (1.0, 1.0j)
        assert np.all(np.abs(c_got - c_want) <= COEFF_TOL * (1.0 + np.abs(c_want))), \
            f"{spec}: order {n}"


@pytest.mark.parametrize("scheme", SCHEMES)
def test_class_check_matches_golden(reports, scheme):
    spec, got, want = reports
    got, want = got["class_check"][scheme], want["class_check"][scheme]
    assert set(got) == set(want)
    for n, stats in want.items():
        assert got[n]["verdict"] == stats["verdict"], f"{spec}: order {n}"
        assert _residual_agrees(got[n]["max_residual"], stats["max_residual"]), \
            f"{spec}: order {n} residual {got[n]['max_residual']!r} " \
            f"vs golden {stats['max_residual']!r}"


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for spec, filename in SPECS.items():
        with open(GOLDEN_DIR / filename, "w") as fh:
            fh.write(report_json(current_report(spec)) + "\n")
