"""Grid classification, verdict policy, Jacobian and centrality checks."""

import math
from dataclasses import replace

import numpy as np
import pytest

from fueterlab.classify import (
    ClassificationReport,
    _chart_partials,
    classify,
    jacobian_check,
)
from fueterlab.diffops import DiffConfig, StepError, stencil
from fueterlab.function_model import (
    DEFAULT_GRID,
    QFunction,
    SampleGrid,
    from_uv,
    pointwise_product,
    pointwise_sum,
    sample_cartesian,
    sample_chart,
)
from fueterlab.generators import get_witness, resolve_function_spec
from fueterlab.quaternion_core import DomainError, Quaternion, from_spherical_rows
from fueterlab.verification import random_polynomial

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


# two raw quaternion polynomials and their verdicts on FAST_GRID, recorded
# while classify still sampled the alpha/beta stencils for raw functions
_COEFFS = (Quaternion(0.3, -0.2, 0.5, 0.1), Quaternion(-0.7, 0.4, 0.0, 0.9),
           Quaternion(0.25, 0.6, -0.35, -0.8))
RAW_POLYNOMIALS = {
    "quaternion-coefficients": (lambda p: _COEFFS[0] + _COEFFS[1] * p + _COEFFS[2] * p * p,
                                ("fail", "not-CE", "not-CE", "fail"), "not-central"),
    "real-coefficients": (lambda p: 0.5 - p + 0.75 * (p * p),
                          ("pass", "not-CE", "not-CE", "fail"), "central"),
}


# the center plus the t, x, y, z stencils: every residual, of every kind of
# function, takes its r, alpha and beta partials from those by the chain rule
POINTS_PER_NODE = {"central": 9, "richardson": 17}


@pytest.mark.parametrize("scheme", sorted(POINTS_PER_NODE))
@pytest.mark.parametrize("name", sorted(RAW_POLYNOMIALS))
def test_raw_function_samples_no_angular_stencils(name, scheme):
    evaluate, expected, centrality = RAW_POLYNOMIALS[name]
    calls = []

    def counted(p):
        calls.append(p)
        return evaluate(p)

    rep = classify(QFunction(name, counted), grid=FAST_GRID, cfg=DiffConfig(scheme=scheme))
    assert len(calls) == POINTS_PER_NODE[scheme] * FAST_GRID.size
    assert verdicts(rep) == expected
    assert rep.centrality.verdict == centrality


def _counting(f: QFunction, points: list) -> QFunction:
    """ f whose views add the number of points each call evaluates to points:
    one per scalar call, the broadcast size of the rows per array call """
    def each(view):
        def counted(p):
            points.append(1)
            return view(p)
        return view and counted

    def array_evaluator(chart):
        points.append(np.broadcast(*chart).size)
        return f.array_evaluator(chart)

    return replace(f, evaluator=each(f.evaluator), spherical_evaluator=each(f.spherical_evaluator),
                   array_evaluator=f.array_evaluator and array_evaluator)


KINDS = {
    "raw": lambda: QFunction("raw", RAW_POLYNOMIALS["quaternion-coefficients"][0]),
    "from_uv": lambda: from_uv(lambda s: s.t * s.r, lambda s: math.sin(s.alpha) + s.beta),
    "sweep": lambda: get_witness("pow:3").function,
    "composite": lambda: pointwise_sum(get_witness("rho").function,
                                       QFunction("raw", RAW_POLYNOMIALS["real-coefficients"][0])),
    "chiral": lambda: resolve_function_spec("chiral:rho"),
}


@pytest.mark.parametrize("scheme", sorted(POINTS_PER_NODE))
@pytest.mark.parametrize("kind", KINDS)
def test_every_kind_samples_the_same_points_per_node(kind, scheme):
    points = []
    classify(_counting(KINDS[kind](), points), DEFAULT_GRID, DiffConfig(scheme=scheme))
    assert sum(points) == POINTS_PER_NODE[scheme] * DEFAULT_GRID.size


CHAIN_RULE_FUNCTIONS = {
    "random_polynomial": lambda: random_polynomial(np.random.default_rng(21)),
    "rho": lambda: get_witness("rho").function,
    "sigma": lambda: get_witness("sigma").function,
    "pow:3": lambda: get_witness("pow:3").function,
}


@pytest.mark.parametrize("scheme", ["central", "richardson"])
@pytest.mark.parametrize("name", CHAIN_RULE_FUNCTIONS)
def test_chain_rule_partials_match_the_chart_stencils(name, scheme):
    # classify's r, alpha and beta partials, from the Cartesian ones, against
    # the stencils of the function composed with the chart; the signs of the
    # tangents of iota show here, independently of any golden report
    f, cfg, mesh = CHAIN_RULE_FUNCTIONS[name](), DiffConfig(scheme=scheme), FAST_GRID.mesh()
    cart = stencil(f, cfg, from_spherical_rows(mesh), slice(0, 4), sample_cartesian,
                   "Cartesian coordinate")[0].swapaxes(0, 1)
    chart = stencil(f, cfg, mesh, slice(0, 4), sample_chart, "chart coordinate")[0].swapaxes(0, 1)
    partials, _ = _chart_partials(cart, mesh)
    for got, want in zip((cart[0],) + partials, chart):
        assert np.max(np.abs(got - want)) <= 1e-7 * (1.0 + np.max(np.abs(want)))


@pytest.mark.parametrize("scheme", ["central", "richardson"])
@pytest.mark.parametrize("name", ["rho", "pow:3"])
def test_tolerance_scale_is_the_max_over_every_sample(name, scheme):
    # the scale of a node is max |f| over its center and every stencil
    # sample, whichever stencil took it
    scales, outputs = [], []

    class Recording(DiffConfig):
        def point_tolerance(self, scale):
            scales.append(scale)
            return super().point_tolerance(scale)

    f = get_witness(name).function

    def recording(chart):
        values = f.array_evaluator(chart)
        outputs.append(np.asarray(values))
        return values

    classify(replace(f, array_evaluator=recording), FAST_GRID, Recording(scheme=scheme))
    shape = (FAST_GRID.n_per_axis,) * 4
    norms = [np.sqrt(o[0] * o[0] + o[1] * o[1] + o[2] * o[2] + o[3] * o[3]) for o in outputs]
    want = norms[0]
    for norm in norms[1:]:
        want = np.maximum(want, norm.reshape((-1,) + shape).max(axis=0))
    assert len(outputs) > 1 and len(scales) == 1
    assert scales[0].tobytes() == want.tobytes()


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


def test_every_node_outside_the_margins_gives_singular():
    # h = 2 leaves no node whose chart stencil fits, so the batch is empty
    rep = classify(get_witness("rho").function, grid=FAST_GRID, cfg=DiffConfig(h=2.0))
    for key in ("class_I", "class_II", "class_III", "regular", "centrality"):
        assert getattr(rep, key).verdict == "singular" and getattr(rep, key).max is None


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


def test_jacobian_of_squaring_on_the_k_axis():
    # the stencil samples at x = y = 0 go to the evaluator, not the chart
    res = jacobian_check(get_witness("pow:2").function, Quaternion(1.0, 0.0, 0.0, 1.0))
    assert res.det_formula == pytest.approx(32.0, abs=1e-9)
    assert res.det_numeric == pytest.approx(32.0, abs=1e-6)


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


def test_jacobian_refuses_a_step_that_rounds_away():
    # t + h == t at t = 1e12: the t column differenced a sample with itself,
    # and the determinant read 0.0
    far = Quaternion(1e12, 0.5, 0.5, 0.5)
    pow2 = get_witness("pow:2").function
    with pytest.raises(StepError, match="Cartesian coordinate 1000000000000.0"):
        jacobian_check(pow2, far)
    batch = np.array([[0.3, 1e12], [0.2, 0.5], [-0.4, 0.5], [0.7, 0.5]])
    with pytest.raises(StepError, match="Cartesian coordinate 1000000000000.0"):
        jacobian_check(pow2, batch)
    assert jacobian_check(pow2, batch[:, :1]).det_numeric[0] > 0.0


def test_jacobian_is_undefined_on_the_real_axis():
    pow2 = get_witness("pow:2").function
    with pytest.raises(DomainError, match="undefined on the real axis"):
        jacobian_check(pow2, Quaternion(0.5))
    batch = np.array([[0.3, 0.5], [0.2, 0.0], [-0.4, 0.0], [0.7, 0.0]])
    with pytest.raises(DomainError, match="undefined on the real axis"):
        jacobian_check(pow2, batch)


# ---------------------------------------------------------------------------
# centrality


def test_centrality_check_standalone():
    for name, verdict in (("pow:3", "central"), ("rho", "not-central"), ("pow:0", "central")):
        assert classify(get_witness(name).function, FAST_GRID).centrality.verdict == verdict


def test_central_outside_class_i_is_not_class_iii():
    # central iff the angular residual passes, which is Class III only
    # within Class I; the image of z^3 under L is regular but not Class I
    rep = classify(resolve_function_spec("L:3:1:0"))
    assert rep.centrality.verdict == "central"
    assert rep.class_I.verdict == "fail"
    assert rep.class_III.verdict == "fail"
    assert rep.regular.verdict == "pass"
