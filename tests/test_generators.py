"""Witness catalog, Rinehart transform, chiral difference, mirror, CLI specs."""

import math
import random
import warnings
from dataclasses import replace

import numpy as np
import pytest

from fueterlab.diffops import DiffConfig, StepError, fueter_left, fueter_right, point_rows
from fueterlab.function_model import (
    DEFAULT_GRID,
    ComplexStem,
    FunctionKindError,
    QFunction,
    from_uv,
    pointwise_product,
    pointwise_sum,
    sample_cartesian,
    sample_chart,
    uv_rows,
)
from fueterlab.generators import (
    CATALOG,
    SpecError,
    chiral_difference,
    ci_extend_rinehart,
    get_witness,
    mirror,
    parse_stem_spec,
    resolve_function_spec,
    rinehart_L,
    rinehart_condition_residual,
)
from fueterlab.quaternion_core import (
    DomainError,
    Quaternion,
    SphericalPoint,
    from_spherical,
    from_spherical_array,
    qabs_array,
    to_spherical,
    to_spherical_array,
)

CFG = DiffConfig()


def sample_points(seed, n=20):
    rng = random.Random(seed)
    for _ in range(n):
        yield SphericalPoint(
            rng.uniform(-1.0, 1.0),
            rng.uniform(0.4, 1.6),
            rng.uniform(-2.4, 2.4),
            rng.uniform(0.45, math.pi - 0.45),
        )


# ---------------------------------------------------------------------------
# catalog


def test_catalog_names():
    assert sorted(CATALOG) == ["identity", "rho", "sigma", "varrho", "x-over-r-iota"]


def test_witness_entries_carry_expectations():
    entry = get_witness("rho")
    assert entry.name == "rho"
    assert entry.expected == {"class_I": True, "class_II": True,
                              "class_III": False, "regular": False}
    assert entry.formula


def test_power_witnesses_materialize_on_demand():
    entry = get_witness("pow:5")
    assert entry.name == "pow:5"
    assert entry.expected["class_III"]
    p = Quaternion(0.4, 0.3, -0.2, 0.5)
    assert abs(entry.function(p) - p * p * p * p * p) <= 1e-12


def test_unknown_catalog_name_raises():
    with pytest.raises(SpecError):
        get_witness("nope")
    with pytest.raises(SpecError):
        get_witness("pow:x")


def test_rho_closed_form():
    f = get_witness("rho").function
    for s in sample_points(51, 10):
        u, v = uv_rows(point_rows(f(from_spherical(s))), s)
        assert u == pytest.approx(s.alpha, abs=1e-12)
        assert v == pytest.approx(math.log(math.tan(s.beta / 2.0)), abs=1e-12)


# ---------------------------------------------------------------------------
# Rinehart transform


def test_rinehart_closed_forms():
    z = ComplexStem.laurent([(1, 1.0)])
    z2 = ComplexStem.laurent([(2, 1.0)])
    z3 = ComplexStem.laurent([(3, 1.0)])
    for w in (0.3 + 0.7j, -0.8 + 1.2j, 1.5 + 0.4j):
        assert abs(rinehart_L(z)(w)) < 1e-10
        assert rinehart_L(z2)(w) == pytest.approx(-2.0 + 0.0j, abs=1e-10)
        assert rinehart_L(z3)(w) == pytest.approx(-6.0 * w.real - 2.0j * w.imag,
                                                  abs=1e-10)


def test_rinehart_L_needs_the_stem_derivative():
    stem = ComplexStem.named("no-slope", lambda z: z * z)
    with pytest.raises(ValueError, match="'no-slope' has no derivative"):
        rinehart_L(stem)
    with pytest.raises(ValueError, match="'no-slope' has no derivative"):
        stem.derivative(0.3 + 0.8j)
    with_slope = ComplexStem.named("slope", lambda z: z * z, lambda z: 2.0 * z)
    assert rinehart_L(with_slope)(0.3 + 0.8j) == pytest.approx(-2.0)


def test_rinehart_images_satisfy_the_balance_condition():
    for terms in ([(3, 1.0)], [(-1, 1.0)], [(4, 0.5), (2, 1.0)]):
        image = rinehart_L(ComplexStem.laurent(terms))
        for w in (0.4 + 0.8j, -0.6 + 1.1j):
            assert rinehart_condition_residual(image, w) < 1e-7


def test_plain_powers_fail_the_balance_condition():
    z2 = ComplexStem.laurent([(2, 1.0)])
    # residual is 4|x| for the square
    assert rinehart_condition_residual(z2, 0.5 + 0.9j) == pytest.approx(2.0, abs=1e-8)
    with pytest.raises(DomainError):
        ci_extend_rinehart(z2)


def test_rinehart_pipeline_produces_regular_functions():
    for n in (1, 2, 3, 4, -1):
        ext = ci_extend_rinehart(rinehart_L(ComplexStem.laurent([(n, 1.0)])))
        for s in sample_points(52, 6):
            q = from_spherical(s)
            assert abs(fueter_left(ext, q, CFG).value) < 1e-5, n


def test_rinehart_extension_skips_nodes_off_the_stem_domain():
    # arctan is cut where |Re z| <= 1/4 and Im z >= 3/4, which holds at some
    # (t, r) nodes of the default grid; those are skipped, not evaluated
    f = resolve_function_spec("L:arctan")
    assert f.name == "L:arctan"
    assert abs(fueter_left(f, Quaternion(0.6, 0.3, 0.4, 0.2), CFG).value) < 1e-5


def test_rinehart_extension_needs_an_admissible_node():
    nowhere = ComplexStem.named("nowhere", lambda z: z, lambda z: 1.0, domain_ok=lambda z: False)
    with pytest.raises(DomainError, match="no admissible \\(t, r\\) samples for 'nowhere'"):
        ci_extend_rinehart(nowhere)


# ---------------------------------------------------------------------------
# chiral difference


def test_chiral_difference_vanishes_on_class_iii():
    delta = chiral_difference(get_witness("pow:3").function)
    for s in sample_points(53, 15):
        assert abs(delta(from_spherical(s))) < 1e-8


def test_chiral_difference_detects_class_ii_only_functions():
    delta = chiral_difference(get_witness("rho").function)
    values = [abs(delta(from_spherical(s))) for s in sample_points(54, 15)]
    assert max(values) > 0.1


def test_chiral_difference_is_regular_for_rho():
    delta = chiral_difference(get_witness("rho").function)
    outer = DiffConfig(h=1e-4, scheme="richardson")
    for s in sample_points(55, 8):
        q = from_spherical(s)
        assert abs(fueter_left(delta, q, outer).value) < 1e-4


def test_chiral_difference_is_linear():
    rho = get_witness("rho").function
    combined = chiral_difference(pointwise_sum(rho, get_witness("pow:2").function))
    alone = chiral_difference(rho)
    for s in sample_points(56, 10):
        q = from_spherical(s)
        assert abs(combined(q) - alone(q)) < 1e-8


def test_chiral_difference_gates_its_input():
    with pytest.raises(FunctionKindError):
        chiral_difference(QFunction("swap", lambda p: Quaternion(p.x, p.t, 0.0, 0.0)))
    with pytest.raises(DomainError):
        chiral_difference(get_witness("x-over-r-iota").function)


def _v_partials(name, alpha, beta):
    """ (dv/dalpha, dv/dbeta) of the angle witness v, written out """
    sa, ca, sb, cb = np.sin(alpha), np.cos(alpha), np.sin(beta), np.cos(beta)
    if name == "rho":  # v = log tan(beta / 2)
        return np.zeros_like(alpha), 1.0 / sb
    if name == "varrho":  # v = artanh(cos(alpha) sin(beta))
        x = ca * sb
        return -sa * sb / (1.0 - x * x), ca * cb / (1.0 - x * x)
    y = sa * sb  # sigma: v = artanh(sin(alpha) sin(beta))
    return ca * sb / (1.0 - y * y), sa * cb / (1.0 - y * y)


@pytest.mark.parametrize("name", ["rho", "varrho", "sigma"])
def test_chiral_difference_is_twice_the_gradient_of_v_cross_iota(name):
    # for f = u + iota v, fueter_left f - fueter_right f = 2 curl(v iota), and
    # curl iota = 0, so it is 2 grad v x iota = (2 / r) [(1 / sin b) dv/da e_b
    # - dv/db e_a], with e_a = (-sin a, cos a, 0) and e_b = (cos a cos b,
    # sin a cos b, -sin b).  On these 50 points the stencils' truncation
    # error reads at most 1.5e-11 (rho), 1.6e-10 (varrho) and 2.5e-7 (sigma)
    # against values up to 5.3, 8.8 and 38.1, that is 2.4e-12, 1.7e-11 and
    # 6.4e-9 of 1 + |value|; the tolerance is 1e-7 of it
    chart = DEFAULT_GRID.random_chart(np.random.default_rng(3), 50)
    _, r, alpha, beta = chart
    delta = chiral_difference(get_witness(name).function,
                              inner=DiffConfig(h=1e-3, scheme="richardson"))
    got = delta.cartesian_array(from_spherical_array(chart))
    dv_da, dv_db = _v_partials(name, alpha, beta)
    zero = np.zeros_like(alpha)
    e_a = np.array((zero, -np.sin(alpha), np.cos(alpha), zero))
    e_b = np.array((zero, np.cos(alpha) * np.cos(beta), np.sin(alpha) * np.cos(beta), -np.sin(beta)))
    want = 2.0 / r * (dv_da / np.sin(beta) * e_b - dv_db * e_a)
    assert np.all(qabs_array(got - want) <= 1e-7 * (1.0 + qabs_array(want)))


def _without_classes(name):
    return replace(get_witness(name).function, classes=None)


@pytest.mark.parametrize("build", [
    lambda: _without_classes("varrho"),
    lambda: _without_classes("sigma"),
    lambda: pointwise_product(get_witness("rho").function, get_witness("varrho").function),
    lambda: pointwise_sum(get_witness("rho").function, get_witness("varrho").function),
    lambda: pointwise_product(get_witness("sigma").function, get_witness("pow:3").function),
], ids=["varrho", "sigma", "rho*varrho", "rho+varrho", "sigma*pow:3"])
def test_chiral_spot_check_passes_class_ii_functions(build):
    # no node of the spot-check grid sits on the singular sets of varrho
    # (alpha = 0, beta = pi/2) or sigma (alpha = +-pi/2, beta = pi/2), nor on
    # the 2 pi jump of sigma's u across beta = pi/2 where cos(alpha) < 0
    f = build()
    assert f.classes is None
    delta = chiral_difference(f)
    assert delta.name == f"chiral:{f.name}"


def test_chiral_spot_check_names_the_failing_verdict():
    with pytest.raises(DomainError, match=r"x-over-r-iota failed the Class II spot check: fail \(max"):
        chiral_difference(_without_classes("x-over-r-iota"))
    # v raises for t < -1/2, so the grid's t = -1 nodes are singular
    broken = from_uv(lambda s: s.alpha, lambda s: math.log(s.t + 0.5), name="broken")
    with pytest.raises(DomainError, match=r"broken failed the Class II spot check: singular \(max"):
        chiral_difference(broken)


def test_chiral_spot_check_names_the_nodes_it_dropped():
    # a step of 0.45 leaves the margin beta > h at the spot grid's beta = 0.4 nodes
    with pytest.raises(DomainError, match=r"varrho failed the Class II spot check: singular "
                                          r"\(max residual .*; 27 of 81 nodes outside the chart "
                                          r"margins, 0 without a finite sample or residual\);"):
        chiral_difference(_without_classes("varrho"), inner=DiffConfig(h=0.45))
    broken = from_uv(lambda s: s.alpha, lambda s: math.log(s.t + 0.5), name="broken")
    with pytest.raises(DomainError, match=r"27 without a finite sample or residual, the first "
                                          r"at \(t, r, alpha, beta\) = \(-1.0, 0.5, -2.5, 0.4\)\)"):
        chiral_difference(broken)


# at x = 1e12 the inner step 1e-5 is below half an ulp, so x + h == x: each x
# sample was differenced with itself, and chiral:pow:3 read exactly 0 there
FAR_X = Quaternion(0.3, 1e12, 0.5, 0.5)
FAR_X_MESSAGE = "does not move the Cartesian coordinate 1000000000000.0"


def test_chiral_difference_refuses_a_step_that_rounds_away():
    delta = chiral_difference(get_witness("pow:3").function)
    with pytest.raises(StepError, match=FAR_X_MESSAGE):
        delta(FAR_X)
    with pytest.raises(StepError, match=FAR_X_MESSAGE):
        fueter_left(get_witness("pow:3").function, FAR_X)
    # in a batch, the one column whose x the step cannot move
    near = Quaternion(0.3, 0.6, -0.4, 0.5)
    rows = np.array([point_rows(near), point_rows(FAR_X), point_rows(near)]).T
    with pytest.raises(StepError, match=FAR_X_MESSAGE):
        delta.cartesian_array(rows)
    assert np.isfinite(delta.cartesian_array(rows[:, ::2])).all()


# ---------------------------------------------------------------------------
# mirror


def test_mirror_fixes_real_coefficient_powers():
    for name in ("identity", "pow:2", "pow:3"):
        f = get_witness(name).function
        m = mirror(f)
        for s in sample_points(57, 8):
            q = from_spherical(s)
            assert abs(m(q) - f(q)) <= 1e-12 * (1 + abs(f(q)))


def test_mirror_is_an_involution():
    for name in ("rho", "pow:3", "varrho"):
        f = get_witness(name).function
        twice = mirror(mirror(f))
        for s in sample_points(58, 8):
            q = from_spherical(s)
            assert abs(twice(q) - f(q)) <= 1e-12 * (1 + abs(f(q)))


# seeded Cartesian rows, with points on the k axis, on the real axis and
# with signed zeros in x and y, where the azimuth of a point and of its
# conjugate sit on the two sides of the alpha = +-pi cut
MIRROR_ROWS = np.hstack((
    from_spherical_array(DEFAULT_GRID.random_chart(np.random.default_rng(58), 40)),
    np.array([[0.3, 0.0, 0.0, 0.8], [-0.2, -0.0, 0.0, -1.1], [0.5, 0.0, 0.0, 0.0],
              [0.1, -0.7, 0.0, 0.4], [0.1, -0.7, -0.0, 0.4], [0.4, 0.0, -0.9, 0.2]]).T))


@pytest.mark.parametrize("spec", ["rho", "varrho", "pow:3", "L:3:1:0", "product:rho*pow:2",
                                  "chiral:rho", "raw"])
def test_mirror_twice_is_the_function_on_cartesian_rows(spec):
    # conjugation negates components, which is exact, so mirror(mirror(f))
    # samples f at the very rows and gives its floats, NaN where f has none
    f = QFunction("raw", lambda p: p * p * Quaternion(0.5, -1.0, 0.25, 2.0)) if spec == "raw" \
        else resolve_function_spec(spec)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = sample_cartesian(mirror(mirror(f)), MIRROR_ROWS)
        want = sample_cartesian(f, MIRROR_ROWS)
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert np.nan_to_num(got).tobytes() == np.nan_to_num(want).tobytes()


def test_mirror_swaps_chirality_of_rho():
    # the mirror image satisfies the right-handed Class II law
    m = mirror(get_witness("rho").function)
    assert m.name == "mirror:rho"
    for s in sample_points(59, 10):
        q = from_spherical(s)
        _, v = uv_rows(point_rows(m(q)), s)
        got = fueter_right(m, q, CFG).value
        assert abs(got + Quaternion(2.0 * v / s.r)) < 1e-5


@pytest.mark.parametrize("x", [0.7, -0.7])
@pytest.mark.parametrize("y", [0.0, -0.0])
def test_mirror_views_agree_on_the_azimuth_cut(x, y):
    # at y = +-0 the antipode sits on the alpha = +-pi cut of rho, where u
    # jumps by 2 pi: every view must pick the side atan2 picks
    m = mirror(get_witness("rho").function)
    q = Quaternion(0.3, x, y, 0.4)
    want = m(q)
    assert abs(m.at_spherical(to_spherical(q)) - want) <= 1e-12
    rows = np.array([[q.t], [q.x], [q.y], [q.z]])
    for values in (m.cartesian_array(rows), sample_chart(m, to_spherical_array(rows))):
        assert abs(Quaternion(*values[:, 0]) - want) <= 1e-12


def test_mirror_matches_conjugate_of_antipodal_value():
    f = get_witness("sigma").function
    m = mirror(f)
    for s in sample_points(60, 10):
        q = from_spherical(s)
        want = f(q.conjugate()).conjugate()
        assert abs(m(q) - want) <= 1e-11 * (1 + abs(want))


# ---------------------------------------------------------------------------
# spec grammar


def test_parse_stem_spec_terms_and_names():
    stem = parse_stem_spec("2:1:0")
    assert stem(1.0 + 2.0j) == pytest.approx((1.0 + 2.0j) ** 2)
    poly = parse_stem_spec("0:-3:0,2:1:0")
    assert poly(2.0j) == pytest.approx(-7.0 + 0.0j)
    assert parse_stem_spec("log-tan").label == "log-tan"
    for bad in ("", "z", "2:1", "stem:2:1:0"):
        with pytest.raises(SpecError):
            parse_stem_spec(bad)


def test_resolve_function_spec_forms():
    p = Quaternion(0.6, 0.4, -0.3, 0.2)
    assert abs(resolve_function_spec("pow:2")(p) - p * p) <= 1e-12
    assert abs(resolve_function_spec("stem:2:1:0")(p) - p * p) <= 1e-12
    assert abs(resolve_function_spec("mirror:pow:2")(p) - p * p) <= 1e-12
    combo = resolve_function_spec("product:rho*identity")
    rho = get_witness("rho").function
    assert abs(combo(p) - rho(p) * p) <= 1e-12
    total = resolve_function_spec("sum:rho+pow:2")
    assert abs(total(p) - (rho(p) + p * p)) <= 1e-12
    ext = resolve_function_spec("L:3:1:0")
    assert ext.kind == "CI"
    delta = resolve_function_spec("chiral:rho")
    assert delta.name == "chiral:rho"


def test_resolve_function_spec_rejects_bad_forms():
    for bad in ("nope", "chiral:mirror:rho", "product:rho", "sum:rho",
                "product:a*b*c", "L:stem:3:1:0", "pow:", "stem:z"):
        with pytest.raises(SpecError):
            resolve_function_spec(bad)
