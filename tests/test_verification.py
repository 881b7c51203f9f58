"""Direct tests for the standing-invariant suite (fast members only).

The full sweep is exercised end to end through ``fueterlab verify-props``
in the CLI tests; here we pin the result schema and a few individual
checks that run in well under a second each.
"""

from dataclasses import replace

import numpy as np
import pytest

from fueterlab.classify import classify
from fueterlab.function_model import SampleGrid
from fueterlab.verification import (
    CheckResult,
    check_convergence_order,
    check_extension_functional,
    check_inclusion,
    check_jacobian,
    check_mirror,
    check_operator_equivalence,
    conjugate_function,
    random_polynomial,
)
from fueterlab.generators import get_witness
from fueterlab.quaternion_core import Quaternion


def test_check_result_round_trip():
    res = CheckResult("demo", True, 1.5e-9, 1e-6, "detail text")
    d = res.to_dict()
    assert d == {"name": "demo", "passed": True, "max_residual": 1.5e-9,
                 "tolerance": 1e-6, "detail": "detail text"}


def test_random_polynomials_are_seeded():
    a = random_polynomial(np.random.default_rng(5))
    b = random_polynomial(np.random.default_rng(5))
    c = random_polynomial(np.random.default_rng(6))
    p = Quaternion(0.3, -0.4, 0.8, 0.1)
    assert a.name == b.name
    assert abs(a(p) - b(p)) == 0.0
    assert c.name != a.name or abs(c(p) - a(p)) > 0.0


def test_conjugate_function_wraps_values():
    rho = get_witness("rho").function
    bar = conjugate_function(rho)
    p = Quaternion(0.2, 0.9, 0.3, -0.4)
    assert bar(p) == rho(p).conjugate()
    assert bar.kind == rho.kind


def test_jacobian_check_passes():
    res = check_jacobian()
    assert res.passed
    assert res.max_residual < res.tolerance


def test_extension_functional_check_passes():
    res = check_extension_functional()
    assert res.passed


def test_inclusion_check_flags_a_broken_chain():
    report = classify(get_witness("pow:2").function, SampleGrid(n_per_axis=3))
    assert check_inclusion({"pow:2": report}).passed
    res = check_inclusion({"pow:2": replace(report, inclusion_consistent=False)})
    assert not res.passed
    assert res.detail == "pow:2: inclusion violated"


def test_convergence_order_check_passes():
    res = check_convergence_order()
    assert res.passed
    # the reported residual is the measured error ratio, ~4 for second order
    assert 3.3 <= res.max_residual <= 4.7


def test_operator_equivalence_small_sample():
    # the sample sizes and the tolerance are fixed; this is the sweep on another seed
    res = check_operator_equivalence(seed=3)
    assert res.passed and res.tolerance == 1e-6
    assert res.detail == "20 random polynomials x 200 points"


@pytest.mark.parametrize("seed", [925, 1537, 5219])
def test_mirror_check_passes_where_a_random_point_meets_the_branch_cut(seed):
    # one of the seed's 80 random points lies within a stencil step of
    # mirror(rho)'s cut alpha = 0; the right-handed residual is read on the grid
    res = check_mirror(seed=seed)
    assert res.passed, res.detail
