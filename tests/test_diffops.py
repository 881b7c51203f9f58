"""Finite-difference operator tests: flat and spherical forms, residuals."""

import math
import random

import numpy as np
import pytest

from fueterlab.diffops import (
    SCHEMES,
    DiffConfig,
    StepError,
    class1_residual,
    fueter_left,
    fueter_right,
    fueter_rows,
    fueter_spherical,
    imaginary_derivative,
    point_rows,
    require_step_moves,
    spherical_cr_residuals,
    stencil,
    stencil_offsets,
)
from fueterlab.function_model import (DEFAULT_GRID, QFunction, sample_cartesian, sample_chart,
                                     uv_at)
from fueterlab.generators import get_witness
from fueterlab.quaternion_core import (
    ChartSingularityError,
    DomainError,
    Quaternion,
    SphericalPoint,
    from_spherical,
    from_spherical_array,
    iota_array,
    to_spherical,
)

CFG = DiffConfig()

IDENTITY = get_witness("identity").function
RHO = get_witness("rho").function
POW2 = get_witness("pow:2").function
POW3 = get_witness("pow:3").function
XRI = get_witness("x-over-r-iota").function
CONSTANT = QFunction("const", lambda p: Quaternion(0.7, -0.2, 0.1, 0.4), kind="raw")
CONJ = QFunction("conj", lambda p: p.conjugate(), kind="CE")


def sample_points(seed, n=25):
    rng = random.Random(seed)
    for _ in range(n):
        yield SphericalPoint(
            rng.uniform(-1.0, 1.0),
            rng.uniform(0.4, 1.6),
            rng.uniform(-2.4, 2.4),
            rng.uniform(0.45, math.pi - 0.45),
        )


# ---------------------------------------------------------------------------
# flat operators on closed-form cases


def test_fueter_left_of_identity_is_minus_two():
    for s in sample_points(31, 10):
        got = fueter_left(IDENTITY, from_spherical(s), CFG).value
        assert abs(got - Quaternion(-2.0)) <= 1e-9


def test_fueter_right_of_identity_is_minus_two():
    for s in sample_points(32, 10):
        got = fueter_right(IDENTITY, from_spherical(s), CFG).value
        assert abs(got - Quaternion(-2.0)) <= 1e-9


def test_both_operators_annihilate_constants():
    p = Quaternion(0.3, 0.4, -0.5, 0.9)
    assert abs(fueter_left(CONSTANT, p, CFG).value) < 1e-12
    assert abs(fueter_right(CONSTANT, p, CFG).value) < 1e-12


def test_fueter_left_of_conjugate_is_four():
    for s in sample_points(33, 10):
        got = fueter_left(CONJ, from_spherical(s), CFG).value
        assert abs(got - Quaternion(4.0)) <= 1e-9


def test_fueter_left_obeys_minus_two_v_over_r_on_class_ii():
    # rho and the powers satisfy the same scalar law
    for name in ("rho", "varrho", "sigma", "pow:2", "pow:3", "pow:-1"):
        f = get_witness(name).function
        for s in sample_points(34, 8):
            p = from_spherical(s)
            _, v = uv_at(f, p)
            got = fueter_left(f, p, CFG).value
            assert abs(got - Quaternion(-2.0 * v / s.r)) <= 2e-6 * (1 + abs(v))


@pytest.mark.parametrize("sin_beta", [0.0, 1e-3, 0.01])
@pytest.mark.parametrize("name", ["identity", "pow:2", "pow:3", "pow:-1"])
def test_flat_operators_on_and_near_the_k_axis(name, sin_beta):
    # a profile sweep is defined on x = y = 0 off the real axis, where the
    # chart has no alpha; its flat stencils keep rounding-level accuracy
    # there and on the way there
    f = get_witness(name).function
    for z in (0.7, -0.9):
        p = Quaternion(0.5, 0.6 * sin_beta * abs(z), -0.8 * sin_beta * abs(z), z)
        _, v = uv_at(f, p)
        want = Quaternion(-2.0 * v / p.vector_norm())
        for op in (fueter_left, fueter_right):
            assert abs(op(f, p, CFG).value - want) <= 1e-8 * (1 + abs(v)), (op.__name__, p)
    on_axis = np.array([[0.5], [0.0], [0.0], [0.7]])
    q = f(Quaternion(0.5, 0.0, 0.0, 0.7))
    assert sample_cartesian(f, on_axis)[:, 0].tolist() == [q.t, q.x, q.y, q.z]


def test_chirality_pairing_for_angle_witnesses():
    # f angle-only Class II: left on f cancels right on conj(f)
    for name in ("rho", "varrho", "sigma"):
        f = get_witness(name).function
        fbar = QFunction(f.name + "-bar", lambda p, f=f: f(p).conjugate(), kind="CE")
        for s in sample_points(35, 8):
            p = from_spherical(s)
            total = fueter_left(f, p, CFG).value + fueter_right(fbar, p, CFG).value
            assert abs(total) < 1e-6


def test_chirality_pairing_needs_time_independence():
    # p^2 depends on t, so the same cancellation fails for it
    fbar = QFunction("pow:2-bar", lambda p: (p * p).conjugate(), kind="CE")
    s = SphericalPoint(0.5, 1.1, 0.8, 1.3)
    p = from_spherical(s)
    total = fueter_left(POW2, p, CFG).value + fueter_right(fbar, p, CFG).value
    assert abs(total) > 1.0


# ---------------------------------------------------------------------------
# slice residual (Class I test quantity)


def test_class1_residual_vanishes_on_holomorphic_entries():
    for name in ("rho", "pow:3", "pow:-1", "x-over-r-iota"):
        f = get_witness(name).function
        for s in sample_points(36, 8):
            assert abs(class1_residual(f, s, CFG).value) < 1e-6


def test_class1_residual_of_conjugate_is_two():
    for s in sample_points(37, 8):
        got = class1_residual(CONJ, s, CFG).value
        assert abs(got - Quaternion(2.0)) <= 1e-8


# ---------------------------------------------------------------------------
# spherical form


def test_spherical_operator_matches_flat_operator():
    for f in (POW2, POW3, RHO):
        for s in sample_points(38, 10):
            sph = fueter_spherical(f, s, CFG).value
            flat = fueter_left(f, from_spherical(s), CFG).value
            assert abs(sph - flat) <= 1e-6 * (1 + abs(flat))


def test_spherical_operator_on_identity():
    for s in sample_points(40, 6):
        got = fueter_spherical(IDENTITY, s, CFG).value
        assert abs(got - Quaternion(-2.0)) <= 1e-9


def test_xri_breaks_the_class_ii_law_generically():
    # x r^-1 iota is Class I but not Class II: away from special points the
    # spherical operator picks up genuine tangential components.
    s = SphericalPoint(0.3, 1.2, 0.9, 1.1)
    got = fueter_spherical(XRI, s, CFG).value
    _, v = uv_at(XRI, from_spherical(s))
    assert abs(got - Quaternion(-2.0 * v / s.r)) > 0.5
    # ... yet at t=0, r=1, alpha=0, beta=pi/2 the residual happens to vanish
    special = SphericalPoint(0.0, 1.0, 0.0, math.pi / 2)
    got = fueter_spherical(XRI, special, CFG).value
    assert abs(got - Quaternion(-2.0)) <= 1e-8


# ---------------------------------------------------------------------------
# angular CR residuals


def test_cr_residuals_vanish_for_class_ii():
    for name in ("rho", "varrho", "sigma", "pow:2"):
        f = get_witness(name).function
        for s in sample_points(41, 8):
            s1, s2 = spherical_cr_residuals(f, s, CFG)
            assert abs(s1) < 1e-6
            assert abs(s2) < 1e-6


def test_cr_residual_of_xri_is_minus_sin_alpha():
    for s in sample_points(42, 12):
        s1, s2 = spherical_cr_residuals(XRI, s, CFG)
        assert s1 == pytest.approx(-math.sin(s.alpha), abs=1e-6)


def _reference_cr_residuals(f, chart, cfg):
    """(S1, S2) written out: one sample_chart call per shifted row and offset,
    v against the iota of the shifted angles, then the central difference
    and, under Richardson, its extrapolation."""
    h = cfg.h
    offsets = [h, -h] if cfg.scheme == "central" else [h, -h, h / 2.0, -h / 2.0]
    du, dv = [], []
    for k in (2, 3):
        u, v = [], []
        for offset in offsets:
            at = [row + (offset if j == k else 0.0) for j, row in enumerate(chart)]
            values = sample_chart(f, at)
            io = iota_array(at)
            u.append(values[0])
            v.append(values[1] * io[1] + values[2] * io[2] + values[3] * io[3])
        for samples, out in ((u, du), (v, dv)):
            d = (samples[0] - samples[1]) / (2.0 * h)
            if cfg.scheme == "richardson":
                d = ((samples[2] - samples[3]) / h * 4.0 - d) / 3.0
            out.append(d)
    sb = np.sin(chart[3])
    return dv[0] / sb + du[1], du[0] / sb - dv[1]


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("name", ["rho", "varrho", "pow:3"])
def test_cr_residuals_equal_the_written_out_reference(name, scheme):
    f, cfg = get_witness(name).function, DiffConfig(scheme=scheme)
    chart = DEFAULT_GRID.random_chart(np.random.default_rng(1717), 200)
    got, want = spherical_cr_residuals(f, chart, cfg), _reference_cr_residuals(f, chart, cfg)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()
    point = SphericalPoint(*chart[:, 0].tolist())
    got = spherical_cr_residuals(f, point, cfg)
    want = _reference_cr_residuals(f, point_rows(point), cfg)
    assert np.array(got).tobytes() == np.array(want).tobytes()


# ---------------------------------------------------------------------------
# imaginary derivative


def test_imaginary_derivative_of_identity_is_two_r():
    for s in sample_points(43, 8):
        got = imaginary_derivative(IDENTITY, s, CFG).value
        assert abs(got - Quaternion(2.0 * s.r)) <= 1e-8


def test_imaginary_derivative_of_rho():
    for s in sample_points(44, 8):
        got = imaginary_derivative(RHO, s, CFG).value
        want = 2.0 * math.log(math.tan(s.beta / 2.0))
        assert abs(got - Quaternion(want)) <= 1e-7


def test_imaginary_derivative_of_constants_vanishes():
    for s in sample_points(45, 4):
        assert abs(imaginary_derivative(CONSTANT, s, CFG).value) < 1e-10


def test_operator_decomposition():
    # left operator = slice residual - imaginary derivative / r
    for f in (RHO, POW2, XRI):
        for s in sample_points(46, 8):
            p = from_spherical(s)
            left = fueter_left(f, p, CFG).value
            hol = class1_residual(f, s, CFG).value
            imag = imaginary_derivative(f, s, CFG).value
            assert abs(left - (hol - imag / s.r)) < 1e-6 * (1 + abs(left))


# ---------------------------------------------------------------------------
# stencil plumbing


def test_stencil_engine_schemes():
    cube = QFunction("cube", lambda p: Quaternion((1.0 + p.t) ** 3), kind="raw")
    origin = np.zeros((4, 1))
    val, err = stencil(cube, DiffConfig(h=1e-5), origin, slice(0, 1), sample_cartesian, "t")
    assert val[0, 0, 0] == pytest.approx(3.0, abs=1e-8)
    assert err[0, 0] == 0.0  # central scheme reports no estimate
    rich = DiffConfig(h=1e-4, scheme="richardson")
    val, err = stencil(cube, rich, origin, slice(0, 1), sample_cartesian, "t")
    assert val[0, 0, 0] == pytest.approx(3.0, abs=1e-10)
    assert err[0, 0] > 0.0


@pytest.mark.parametrize("scheme, tol", [("central", 1e-8), ("richardson", 1e-11)])
def test_stencil_takes_complex_value_rows(scheme, tol):
    # one complex value row exp(i alpha), differenced along the alpha row only
    alphas = np.linspace(-1.0, 1.0, 5)
    cfg = DiffConfig(h=1e-4, scheme=scheme)
    d, spread = stencil(None, cfg, (0.0, 0.0, alphas, 1.0), slice(2, 3),
                        lambda f, at: np.exp(1j * at[2])[None], "angle")
    assert d.shape == (1, 1, 5) and d.dtype == complex and spread.shape == (1, 5)
    assert np.abs(d[0, 0] - 1j * np.exp(1j * alphas)).max() < tol
    assert (spread > 0.0).all() if scheme == "richardson" else not spread.any()
    with pytest.raises(StepError, match="does not move the angle 1000000000000000.0"):
        stencil(None, cfg, (0.0, 0.0, np.array([0.5, 1e15]), 1.0), slice(2, 3), None, "angle")


# each operator with the kind of point rows it takes
BATCH_OPERATORS = {
    "fueter_left": (fueter_left, "cartesian"),
    "fueter_right": (fueter_right, "cartesian"),
    "class1_residual": (class1_residual, "chart"),
    "imaginary_derivative": (imaginary_derivative, "chart"),
    "fueter_spherical": (fueter_spherical, "chart"),
    "spherical_cr_residuals": (spherical_cr_residuals, "chart"),
}


def _columns(out):
    """ per column (value components..., error) of a batch operator result """
    if isinstance(out, tuple):
        return np.stack(out).T
    return np.vstack((out.value, out.estimated_error)).T


def _scalars(out):
    if isinstance(out, tuple):
        return np.array(out)
    v = out.value
    return np.array([v.t, v.x, v.y, v.z, out.estimated_error])


@pytest.mark.parametrize("scheme", ["central", "richardson"])
@pytest.mark.parametrize("name", sorted(BATCH_OPERATORS))
def test_batch_columns_match_single_point_calls(name, scheme):
    op, kind = BATCH_OPERATORS[name]
    cfg = DiffConfig(scheme=scheme)
    chart = DEFAULT_GRID.random_chart(np.random.default_rng(61), 16)
    rows = from_spherical_array(chart) if kind == "cartesian" else chart
    for f in (RHO, POW3, CONSTANT):
        batch = _columns(op(f, rows, cfg))
        assert batch.shape[0] == 16
        for k in range(16):
            point = (Quaternion(*rows[:, k]) if kind == "cartesian"
                     else SphericalPoint(*rows[:, k]))
            want = _scalars(op(f, point, cfg))
            assert np.all(np.abs(batch[k] - want) <= 1e-13 * (1.0 + np.abs(want))), \
                (f.name, k, batch[k], want)


def test_non_finite_sample_raises_domain_error_naming_the_point():
    holey = QFunction("holey", lambda p: Quaternion(1.0 / p.t), kind="raw")
    rows = np.array([[0.5, 1e-5, -0.5], [0.3] * 3, [0.2] * 3, [0.1] * 3])
    with pytest.raises(DomainError, match=r"holey: no finite value at \(1e-05, "):
        fueter_left(holey, rows, CFG)


def test_richardson_operator_carries_error_estimate():
    cfg = DiffConfig(h=1e-4, scheme="richardson")
    out = fueter_left(POW3, Quaternion(0.5, 0.3, -0.2, 0.7), cfg)
    assert out.estimated_error > 0.0
    central = fueter_left(POW3, Quaternion(0.5, 0.3, -0.2, 0.7), CFG)
    assert central.estimated_error == 0.0


@pytest.mark.parametrize("name", ["identity", "rho", "varrho", "sigma", "pow:3"])
def test_fueter_spherical_estimate_weights_the_angular_one_by_one_over_r(name):
    # fueter_spherical = class1_residual - imaginary_derivative / r: its Richardson
    # estimate is theirs, the angular one scaled by |-1 / r|
    cfg = DiffConfig(scheme="richardson")
    f, s = get_witness(name).function, SphericalPoint(0.3, 0.9, 0.7, 1.1)
    want = (class1_residual(f, s, cfg).estimated_error
            + imaginary_derivative(f, s, cfg).estimated_error / s.r)
    got = fueter_spherical(f, s, cfg).estimated_error
    assert got > 0.0 and got == pytest.approx(want, rel=1e-12)
    if name == "rho":
        assert got == want


def test_central_convergence_is_second_order():
    # halving h divides the truncation error by ~4 on a cubic
    s = SphericalPoint(0.37, 0.94, 0.61, 1.18)
    p = from_spherical(s)
    exact = Quaternion(-2.0 * (3.0 * s.t * s.t - s.r * s.r))
    errs = []
    for h in (1e-3, 5e-4):
        got = fueter_left(POW3, p, DiffConfig(h=h)).value
        errs.append(abs(got - exact))
    ratio = errs[0] / errs[1]
    assert 3.3 <= ratio <= 4.7


def test_spherical_stencils_respect_chart_margins():
    with pytest.raises(ChartSingularityError):
        fueter_spherical(RHO, SphericalPoint(0.0, 1e-6, 0.3, 1.2), CFG)
    with pytest.raises(ChartSingularityError):
        fueter_spherical(RHO, SphericalPoint(0.0, 1.0, 0.3, 1e-7), CFG)
    # a batch names its first point outside the margins
    chart = np.array([[0.0, 0.0], [1.0, 1.0], [0.3, 0.3], [1.2, 3.14]])
    with pytest.raises(ChartSingularityError, match=r"\(0.0, 1.0, 0.3, 3.14\)"):
        spherical_cr_residuals(RHO, chart, CFG)


def test_diffconfig_validation():
    with pytest.raises(ValueError):
        DiffConfig(h=0.0)
    with pytest.raises(ValueError):
        DiffConfig(h=-1e-5)
    with pytest.raises(ValueError):
        DiffConfig(scheme="upwind")
    assert CFG.point_tolerance(10.0) == pytest.approx(1.1e-5)


@pytest.mark.parametrize("right", (False, True), ids=("left", "right"))
def test_fueter_rows_do_not_depend_on_the_memory_layout(right):
    # partials (component, direction, N) as Stencils.partials returns them, read
    # by direction through a swapped-axes view and through a C-ordered copy
    d = np.random.default_rng(31).normal(size=(4, 4, 500)).swapaxes(0, 1)
    assert fueter_rows(d, right).tobytes() == fueter_rows(np.ascontiguousarray(d), right).tobytes()


# at t = 1e12 a step of 1e-5 is below half an ulp, so t + h == t: the
# operators used to difference a sample with itself there (fueter_left of
# pow:2 gave -6.0e12 where the exact value is -4e12, class1_residual -2.0e12
# where it is 0)
FAR = Quaternion(1e12, 0.5, 0.5, 0.5)
STEP_CASES = {
    "fueter_left": (fueter_left, FAR, "Cartesian"),
    "fueter_right": (fueter_right, FAR, "Cartesian"),
    "class1_residual": (class1_residual, to_spherical(FAR), "chart"),
    "fueter_spherical": (fueter_spherical, to_spherical(FAR), "chart"),
}


@pytest.mark.parametrize("name", sorted(STEP_CASES))
def test_operators_refuse_a_step_that_rounds_away(name):
    op, point, kind = STEP_CASES[name]
    message = f"does not move the {kind} coordinate 1000000000000.0"
    with pytest.raises(StepError, match=message):
        op(POW2, point, CFG)
    # in a batch, the one column whose t the step cannot move
    near = from_spherical(SphericalPoint(0.3, 0.9, 0.4, 1.2))
    if kind == "chart":
        near = to_spherical(near)
    rows = np.array([point_rows(near), point_rows(point), point_rows(near)]).T
    with pytest.raises(StepError, match=message):
        op(POW2, rows, CFG)
    op(POW2, rows[:, ::2], CFG)


def test_operators_check_only_the_rows_they_difference():
    # the angular operators do not difference t, so t = 1e12 is no obstacle
    chart = to_spherical(FAR)
    got = imaginary_derivative(POW2, chart, CFG).value
    assert abs(got - Quaternion(2.0 * 2e12 * chart.r)) <= 1e-6 * 4e12
    s1, s2 = spherical_cr_residuals(POW2, chart, CFG)
    assert math.isfinite(s1) and math.isfinite(s2)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_step_check_equals_trying_every_offset(scheme):
    # the check adds only the smallest offset to |x|; the reference adds every
    # offset to x itself.  Powers of two (the float spacing halves below them),
    # their neighbours, ties at half a spacing, zero and subnormals included
    values = [0.0, -0.0, 5e-324, -5e-324, 1e12, -1e12]
    for k in range(-10, 70):
        for x in (2.0 ** k, math.nextafter(2.0 ** k, 0.0), math.nextafter(2.0 ** k, math.inf),
                  1.5 * 2.0 ** k):
            values += [x, -x]
    values += (np.random.default_rng(33).lognormal(0.0, 15.0, 200) * np.tile((1, -1), 100)).tolist()
    for h in (2.0 ** -20, 2.0 ** -21, 3.0 * 2.0 ** -22, 1e-5, 1e-3):
        cfg = DiffConfig(h=h, scheme=scheme)
        for x in values:
            expected = any(x + d == x for d in stencil_offsets(cfg).tolist())
            try:
                require_step_moves((np.array([x]),), cfg, "value")
                raised = False
            except StepError:
                raised = True
            assert raised == expected, (x, h)
