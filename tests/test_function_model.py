"""Function wrappers, Cullen extension, slices, stems, and grids."""

import math
import random
import warnings

import numpy as np
import pytest

from fueterlab.function_model import (
    ComplexStem,
    DEFAULT_GRID,
    FunctionKindError,
    MAX_NODES,
    NAMED_STEMS,
    QFunction,
    SampleGrid,
    cullen_extend,
    from_uv,
    pointwise_product,
    pointwise_sum,
    power_function,
    restrict_to_slice,
    sample_chart,
    uv_at,
)
from fueterlab.generators import resolve_function_spec
from fueterlab.quaternion_core import (
    DomainError,
    Quaternion,
    SphericalPoint,
    from_spherical,
    iota,
    to_spherical,
)

Z_SQUARED = ComplexStem.laurent([(2, 1.0)])
Z_INVERSE = ComplexStem.laurent([(-1, 1.0)])


def random_point(rng):
    return SphericalPoint(
        rng.uniform(-1.0, 1.0),
        rng.uniform(0.4, 1.6),
        rng.uniform(-2.5, 2.5),
        rng.uniform(0.4, math.pi - 0.4),
    )


def cr_residual(stem, z, h=1e-6):
    """ |dg/dx + i dg/dy| by central differences; ~0 iff g is analytic at z """
    wx = (stem(z + h) - stem(z - h)) / (2.0 * h)
    wy = (stem(z + h * 1j) - stem(z - h * 1j)) / (2.0 * h)
    return abs(wx + 1j * wy)


def worst_scaled_cr_residual(stem):
    """ max of cr_residual / (1 + |g|) over an 11 x 11 sample of the upper
    half plane, skipping samples outside the stem's domain """
    samples = [complex(x * 0.24 - 1.2, 0.45 + y * 0.11) for x in range(11) for y in range(11)]
    return max(cr_residual(stem, z) / (1.0 + abs(stem(z)))
               for z in samples if stem.domain_ok(z))


# ---------------------------------------------------------------------------
# stems


def test_laurent_stem_evaluates_and_differentiates():
    stem = ComplexStem.laurent([(0, -3.0), (2, 1.0)])
    z = 0.7 + 1.1j
    assert stem(z) == pytest.approx(z * z - 3.0)
    assert stem.derivative(z) == pytest.approx(2.0 * z)
    assert stem.label == "stem:0:-3:0,2:1:0"


def test_inverse_stem_domain():
    assert Z_INVERSE(2.0j) == pytest.approx(-0.5j)
    assert Z_INVERSE.domain_ok(0.5 + 0.5j)
    assert not Z_INVERSE.domain_ok(0.0j)


def test_named_stems_are_holomorphic():
    for label in ("log-tan", "arctan"):
        stem = NAMED_STEMS[label]
        assert stem.label == label
        assert worst_scaled_cr_residual(stem) < 1e-8


def test_stem_cr_residual_flags_antiholomorphic():
    conj_stem = ComplexStem.named("conj", lambda z: z.conjugate())
    assert cr_residual(conj_stem, 0.4 + 0.9j) > 1.0
    assert cr_residual(Z_SQUARED, 0.4 + 0.9j) < 1e-9
    assert worst_scaled_cr_residual(conj_stem) > 1e-8


def test_custom_named_stem_with_derivative():
    stem = ComplexStem.named("exp", lambda z: __import__("cmath").exp(z),
                             derivative=lambda z: __import__("cmath").exp(z))
    assert worst_scaled_cr_residual(stem) < 1e-8
    z = 0.2 + 1.3j
    assert stem.derivative(z) == pytest.approx(stem(z))


# ---------------------------------------------------------------------------
# Cullen extension and the u + iota*v decomposition


def test_cullen_extension_of_z_squared():
    f = cullen_extend(Z_SQUARED)
    assert f.kind == "CI"
    rng = random.Random(21)
    for _ in range(50):
        s = random_point(rng)
        u, v = uv_at(f, from_spherical(s))
        assert u == pytest.approx(s.t * s.t - s.r * s.r, abs=1e-12)
        assert v == pytest.approx(2.0 * s.t * s.r, abs=1e-12)


def test_cullen_extension_of_reciprocal_matches_quaternion_inverse():
    f = cullen_extend(Z_INVERSE)
    rng = random.Random(22)
    for _ in range(100):
        p = from_spherical(random_point(rng))
        assert abs(f(p) - p.inverse()) <= 1e-12


def test_extension_agrees_with_stem_on_every_slice():
    f = cullen_extend(Z_SQUARED)
    rng = random.Random(23)
    for _ in range(50):
        s = random_point(rng)
        z = complex(s.t, s.r)
        w = Z_SQUARED(z)
        got = f(from_spherical(s))
        want = Quaternion(w.real) + iota(s.alpha, s.beta) * w.imag
        assert abs(got - want) <= 1e-12


def test_from_uv_rebuilds_identity():
    f = from_uv(lambda s: s.t, lambda s: s.r, name="linear")
    rng = random.Random(24)
    for _ in range(50):
        p = from_spherical(random_point(rng))
        assert abs(f(p) - p) <= 1e-12


def test_ce_values_commute_with_argument():
    # the defining property of the u + iota*v form
    f = cullen_extend(ComplexStem.laurent([(1, 2.0), (3, -1.0)]))
    rng = random.Random(25)
    for _ in range(100):
        p = from_spherical(random_point(rng))
        w = f(p)
        comm = w * p - p * w
        assert abs(comm) < 1e-9 * (1.0 + abs(p) * abs(w))


# ---------------------------------------------------------------------------
# slice restriction


def test_restrict_to_slice_power():
    sl = restrict_to_slice(power_function(2), 0.4, 1.3)
    for z in (0.5 + 0.8j, -0.2 + 1.4j, 1.1 + 0.3j):
        assert sl(z) == pytest.approx(z * z, abs=1e-12)


def test_restrict_to_slice_requires_upper_half_plane():
    sl = restrict_to_slice(power_function(2), 0.0, math.pi / 2)
    with pytest.raises(DomainError):
        sl(0.5 - 0.1j)
    with pytest.raises(DomainError):
        sl(0.5 + 0.0j)


def test_restrict_to_slice_rejects_raw_functions():
    raw = QFunction("swap", lambda p: Quaternion(p.x, p.t, 0.0, 0.0))
    with pytest.raises(FunctionKindError):
        restrict_to_slice(raw, 0.0, math.pi / 2)


@pytest.mark.parametrize("beta", [0.0, 1e-7, math.pi])
def test_restrict_to_slice_rejects_the_poles(beta):
    with pytest.raises(DomainError, match="slice undefined at the poles"):
        restrict_to_slice(power_function(2), 0.3, beta)


def test_qfunction_rejects_an_unknown_kind():
    with pytest.raises(ValueError, match="unknown function kind 'CX'"):
        QFunction("f", lambda p: p, kind="CX")


def test_uv_at_is_undefined_on_the_real_axis():
    with pytest.raises(DomainError, match="u/v split undefined on the real axis"):
        uv_at(power_function(2), Quaternion(0.5))


def test_stem_derivative_off_its_domain_raises():
    with pytest.raises(DomainError, match="not defined at"):
        Z_SQUARED.derivative(0.5 - 0.25j)
    with pytest.raises(DomainError, match="not defined at"):
        NAMED_STEMS["arctan"].derivative(0.1 + 2.0j)  # on the branch cut


# slice sweeps (pow:3, L:) and CE functions whose u and v depend on the angles
UV_FUNCTIONS = ("rho", "varrho", "x-over-r-iota", "pow:3", "L:-1:1:0,2:0.5:-0.25",
                "product:rho*pow:2")


@pytest.mark.parametrize("spec", UV_FUNCTIONS)
def test_uv_split_keeps_the_written_out_projection(spec):
    # the formulas that uv_at and restrict_to_slice wrote out before they took
    # the projection from quaternion_core.iota_coefficient, compared bit for bit
    f = resolve_function_spec(spec)
    rng = random.Random(29)
    for _ in range(200):
        s = random_point(rng)
        p = from_spherical(s)
        val, r = f(p), p.vector_norm()
        assert uv_at(f, p) == (val.t, (val.x * p.x + val.y * p.y + val.z * p.z) / r)
        io = iota(s.alpha, s.beta)
        val = f.at_spherical(s)
        want = complex(val.t, val.x * io.x + val.y * io.y + val.z * io.z)
        assert restrict_to_slice(f, s.alpha, s.beta)(complex(s.t, s.r)) == want


def test_uv_split_of_a_huge_imaginary_part_does_not_overflow():
    # the dot product with Im p overflows above about 1.3e154; v then comes
    # from the unit vector p / |Im p|, in IEEE basic operations only
    p = Quaternion(0.5, 1e200, 1e200, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert uv_at(power_function(1), p) == (0.5, 1.4142135623730949e+200)


# ---------------------------------------------------------------------------
# power catalog entries


def test_power_function_names_and_classes():
    assert power_function(1).name == "identity"
    assert power_function(3).name == "pow:3"
    assert power_function(0).classes["regular"]
    assert not power_function(3).classes["regular"]
    assert power_function(-2).classes["class_III"]


def test_power_function_values():
    p = Quaternion(0.8, -0.3, 0.5, 0.1)
    assert abs(power_function(2)(p) - p * p) <= 1e-14
    assert abs(power_function(-1)(p) - p.inverse()) <= 1e-14
    assert power_function(0)(p) == Quaternion(1.0)
    # a point whose imaginary squares overflow
    far = Quaternion(0.5, 1e200, 1e200, 0.0)
    assert power_function(1)(far) == far


# ---------------------------------------------------------------------------
# pointwise combinations


def test_pointwise_product_values_and_kind():
    f = cullen_extend(Z_SQUARED)
    g = cullen_extend(ComplexStem.laurent([(3, 1.0)]))
    prod = pointwise_product(f, g)
    assert prod.kind == "CI"
    rng = random.Random(26)
    for _ in range(30):
        p = from_spherical(random_point(rng))
        assert abs(prod(p) - f(p) * g(p)) <= 1e-12 * (1 + abs(f(p) * g(p)))


def test_pointwise_sum_values_and_name():
    f = power_function(2)
    g = power_function(3)
    total = pointwise_sum(f, g, name="p2+p3")
    assert total.name == "p2+p3"
    p = Quaternion(0.4, 0.2, -0.6, 0.3)
    assert abs(total(p) - (f(p) + g(p))) <= 1e-14


def test_combining_with_raw_degrades_kind():
    raw = QFunction("swap", lambda p: Quaternion(p.x, p.t, 0.0, 0.0))
    ci = cullen_extend(Z_SQUARED)
    assert pointwise_sum(raw, ci).kind == "raw"
    assert pointwise_product(ci, raw).kind == "raw"


# ---------------------------------------------------------------------------
# sample grids


def test_default_grid_shape():
    assert DEFAULT_GRID.n_per_axis == 8
    assert DEFAULT_GRID.chart_array().shape == (4, 8 ** 4)


def test_grid_point_count_and_margins():
    grid = SampleGrid(n_per_axis=3)
    _, r, _, beta = grid.chart_array()
    assert r.shape == (81,)
    assert (r >= 0.1).all()
    assert (np.sin(beta) >= 0.1).all()


def test_grid_validation():
    with pytest.raises(ValueError):
        SampleGrid(n_per_axis=1)
    with pytest.raises(ValueError):
        SampleGrid(r_range=(0.05, 1.0))  # violates the r margin
    with pytest.raises(ValueError):
        SampleGrid(beta_range=(0.01, 2.0))  # sin(beta) too small
    with pytest.raises(ValueError):
        SampleGrid(t_range=(1.0, -1.0))


def test_grid_size_is_bounded_before_any_mesh():
    side = round(MAX_NODES ** 0.25)
    assert SampleGrid(n_per_axis=side).size == MAX_NODES
    with pytest.raises(ValueError, match=f"{(side + 1) ** 4} nodes"):
        SampleGrid(n_per_axis=side + 1)
    with pytest.raises(ValueError, match="must be an integer"):
        SampleGrid(n_per_axis=8.0)


def test_grid_random_points_are_inside():
    rng = np.random.default_rng(27)
    grid = SampleGrid()
    chart = grid.random_chart(rng, 200)
    assert chart.shape == (4, 200)
    for row, (lo, hi) in zip(chart, (grid.t_range, grid.r_range, grid.alpha_range, grid.beta_range)):
        assert ((lo <= row) & (row <= hi)).all()


# ---------------------------------------------------------------------------
# QFunction plumbing


def test_qfunction_spherical_evaluator_is_used():
    calls = []

    def sph(s):
        calls.append(s)
        return Quaternion(s.t)

    f = QFunction("probe", lambda p: Quaternion(p.t), kind="CI",
                  spherical_evaluator=sph)
    s = SphericalPoint(0.3, 1.0, 0.2, 1.4)
    assert f.at_spherical(s) == Quaternion(0.3)
    assert calls  # went through the chart-free path


def test_sample_chart_fills_through_the_evaluator_not_the_spherical_view():
    # both scalar views and no array view: a chart batch goes point by point
    # through the evaluator; only at_spherical reads the spherical view
    evaluated, spherical = [], []

    def evaluator(p):
        evaluated.append(p)
        return p * p

    def sph(s):
        spherical.append(s)
        return evaluator(from_spherical(s))

    f = QFunction("both-views", evaluator, spherical_evaluator=sph)
    chart = DEFAULT_GRID.random_chart(np.random.default_rng(5), 6)
    points = [from_spherical(SphericalPoint(*column)) for column in chart.T.tolist()]
    values = sample_chart(f, chart)
    assert spherical == []
    assert [(p.t, p.x, p.y, p.z) for p in evaluated] == [(p.t, p.x, p.y, p.z) for p in points]
    assert values.T.tolist() == [[q.t, q.x, q.y, q.z] for q in (p * p for p in points)]
    s = SphericalPoint(*chart[:, 0].tolist())
    assert f.at_spherical(s) == points[0] * points[0]
    assert spherical == [s]


def test_qfunction_at_spherical_falls_back_to_cartesian():
    f = QFunction("plain", lambda p: p * p, kind="CE")
    s = SphericalPoint(0.5, 1.2, 0.7, 1.1)
    p = from_spherical(s)
    assert abs(f.at_spherical(s) - p * p) <= 1e-14
