"""Grid classification, verdict policy, Jacobian and centrality checks."""

import math
from dataclasses import replace

import numpy as np
import pytest

from fueterlab.classify import (
    ClassificationReport,
    centrality_check,
    classify,
    jacobian_check,
)
from fueterlab.diffops import DiffConfig
from fueterlab.function_model import (
    QFunction,
    SampleGrid,
    from_uv,
    pointwise_product,
    pointwise_sum,
)
from fueterlab.generators import get_witness
from fueterlab.quaternion_core import DomainError, Quaternion

CFG = DiffConfig()
# a 4^4 grid keeps each classification cheap while straddling the chart the
# same way the default grid does
FAST_GRID = SampleGrid(n_per_axis=4)


def verdicts(report):
    return (
        report.class_I.verdict,
        report.class_II.verdict,
        report.class_III.verdict,
        report.regular.verdict,
    )


# ---------------------------------------------------------------------------
# witness regressions


def test_rho_is_class_ii_but_not_iii():
    rep = classify(get_witness("rho").function, grid=FAST_GRID)
    assert verdicts(rep) == ("pass", "pass", "fail", "fail")
    assert rep.centrality.verdict == "not-central"
    assert rep.inclusion_consistent


def test_varrho_and_sigma_match_rho_pattern():
    for name in ("varrho", "sigma"):
        rep = classify(get_witness(name).function, grid=FAST_GRID)
        assert verdicts(rep) == ("pass", "pass", "fail", "fail"), name


def test_xri_is_class_i_only():
    rep = classify(get_witness("x-over-r-iota").function, grid=FAST_GRID)
    assert verdicts(rep) == ("pass", "fail", "fail", "fail")
    assert rep.inclusion_consistent


def test_powers_are_class_iii():
    for n in (-2, -1, 2, 3, 4):
        rep = classify(get_witness(f"pow:{n}").function, grid=FAST_GRID)
        assert verdicts(rep) == ("pass", "pass", "pass", "fail"), n
        assert rep.centrality.verdict == "central"


def test_constant_power_is_regular():
    rep = classify(get_witness("pow:0").function, grid=FAST_GRID)
    assert verdicts(rep) == ("pass", "pass", "pass", "pass")
    assert rep.centrality.verdict == "central"


def test_identity_is_class_iii_not_regular():
    rep = classify(get_witness("identity").function, grid=FAST_GRID)
    assert verdicts(rep) == ("pass", "pass", "pass", "fail")


# ---------------------------------------------------------------------------
# verdict policy


def test_raw_function_reports_not_ce():
    raw = QFunction("swap", lambda p: Quaternion(p.x, p.t, 0.0, 0.0))
    rep = classify(raw, grid=FAST_GRID)
    assert rep.class_II.verdict == "not-CE"
    assert rep.class_III.verdict == "not-CE"
    assert rep.class_I.verdict == "fail"


def test_domain_error_inside_grid_gives_singular():
    def spiky(p):
        if p.t > 0.5:
            raise DomainError("pole strip")
        return p

    rep = classify(QFunction("spiky", spiky, kind="CE"), grid=FAST_GRID)
    assert rep.class_I.verdict == "singular"
    assert rep.class_II.verdict == "singular"
    assert rep.regular.verdict == "singular"
    assert rep.centrality.verdict == "singular"


def _assert_singular(rep):
    for stats in (rep.class_I, rep.class_II, rep.class_III, rep.regular, rep.centrality):
        assert stats.verdict == "singular"
        assert stats.max is None or math.isfinite(stats.max)


@pytest.mark.parametrize("u", [
    lambda s: math.log(s.alpha + 1),           # ValueError for alpha < -1
    lambda s: 1.0 / (s.t - s.t),               # ZeroDivisionError everywhere
    lambda s: math.exp(1000.0 * s.r),          # OverflowError for r > 0.71
    lambda s: math.inf if s.t > 0.5 else 0.0,  # non-finite value
])
def test_evaluator_failure_gives_singular(u):
    _assert_singular(classify(from_uv(u, lambda s: 0.0), grid=FAST_GRID))


def test_non_finite_array_samples_give_singular():
    f = from_uv(lambda s: math.log(s.alpha + 1), lambda s: 0.0,
                uv_array=lambda c: (np.log(c[2] + 1), np.zeros_like(c[2])))
    rep = classify(f, grid=FAST_GRID)
    _assert_singular(rep)
    # both fill paths drop the same nodes
    scalar = classify(replace(f, array_evaluator=None), grid=FAST_GRID)
    for key in ("class_I", "class_II", "class_III", "regular", "centrality"):
        assert getattr(scalar, key).max == pytest.approx(getattr(rep, key).max, rel=1e-9)


def test_report_dict_shape():
    rep = classify(get_witness("pow:2").function, grid=FAST_GRID, cfg=CFG)
    d = rep.to_dict()
    assert set(d) == {
        "function", "grid", "config", "class_I", "class_II", "class_III",
        "regular", "centrality", "inclusion_consistent",
    }
    assert d["function"] == "pow:2"
    assert d["config"] == {"h": 1e-5, "scheme": "central",
                           "tol_abs": 1e-6, "tol_rel": 1e-6}
    assert d["grid"]["n_per_axis"] == 4
    for key in ("class_I", "class_II", "class_III", "regular", "centrality"):
        assert set(d[key]) == {"max", "mean", "verdict"}
        assert d[key]["mean"] <= d[key]["max"]


def test_passes_accessor():
    rep = classify(get_witness("pow:2").function, grid=FAST_GRID)
    assert rep.passes("class_I")
    assert rep.passes("class_III")
    assert not rep.passes("regular")


def test_inclusion_chain_on_closures():
    # products and sums of Class III entries stay Class III; multiplying a
    # Class II entry by a power stays Class II but drops out of Class III
    p2 = get_witness("pow:2").function
    p3 = get_witness("pow:3").function
    rho = get_witness("rho").function
    cases = [
        (pointwise_product(p2, p3), ("pass", "pass", "pass")),
        (pointwise_sum(p2, p3), ("pass", "pass", "pass")),
        (pointwise_product(rho, get_witness("identity").function),
         ("pass", "pass", "fail")),
    ]
    for f, expected in cases:
        rep = classify(f, grid=FAST_GRID)
        assert verdicts(rep)[:3] == expected, f.name
        assert rep.inclusion_consistent


# ---------------------------------------------------------------------------
# Jacobian factorization


def test_jacobian_of_squaring_at_one_plus_i():
    res = jacobian_check(get_witness("pow:2").function, Quaternion(1.0, 1.0, 0.0, 0.0))
    assert res.det_formula == pytest.approx(32.0, abs=1e-9)
    assert res.det_numeric == pytest.approx(32.0, abs=1e-6)
    assert not res.advisory


def test_jacobian_of_squaring_degenerates_at_i():
    res = jacobian_check(get_witness("pow:2").function, Quaternion(0.0, 1.0, 0.0, 0.0))
    assert res.det_formula == pytest.approx(0.0, abs=1e-12)
    assert res.det_numeric == pytest.approx(0.0, abs=1e-8)


def test_jacobian_of_identity_is_one():
    res = jacobian_check(get_witness("identity").function,
                         Quaternion(0.3, -0.2, 0.9, 0.4))
    assert res.det_formula == pytest.approx(1.0, rel=1e-9)
    assert res.det_numeric == pytest.approx(1.0, rel=1e-8)


def test_jacobian_advisory_without_class_metadata():
    bare = QFunction("bare-square", lambda p: p * p, kind="CE")
    res = jacobian_check(bare, Quaternion(1.0, 1.0, 0.0, 0.0))
    assert res.advisory  # formula unproven for functions not marked Class II
    assert res.det_numeric == pytest.approx(res.det_formula, rel=1e-6)


# ---------------------------------------------------------------------------
# centrality


def test_centrality_check_standalone():
    assert centrality_check(get_witness("pow:3").function,
                            grid=FAST_GRID).verdict == "central"
    assert centrality_check(get_witness("rho").function,
                            grid=FAST_GRID).verdict == "not-central"
    assert centrality_check(get_witness("pow:0").function,
                            grid=FAST_GRID).verdict == "central"
