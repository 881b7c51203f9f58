"""Algebra, chart, and frame tests for the quaternion core."""

import math
import operator
import random
import warnings

import numpy as np
import pytest

from fueterlab.diffops import _chart_units
from fueterlab.quaternion_core import (
    ChartSingularityError,
    I,
    J,
    K,
    ONE,
    Quaternion,
    SphericalPoint,
    from_spherical,
    iota,
    iota_array,
    qabs_array,
    qmul_array,
    to_spherical,
    to_spherical_array,
)

HALF_PI = math.pi / 2.0


def random_quaternion(rng, scale=2.0):
    return Quaternion(*(rng.uniform(-scale, scale) for _ in range(4)))


def random_angles(rng):
    # keep beta away from the chart poles
    return rng.uniform(-math.pi, math.pi), rng.uniform(0.2, math.pi - 0.2)


def chart_frame(seed, n):
    """Unit-radius chart rows at n random angles, the units (1, iota,
    iota_a^-1, iota_b^-1) that the chart operators multiply their partials
    by, and the alpha and beta tangents iota_a, iota_b of iota in closed form."""
    rng = random.Random(seed)
    alpha, beta = np.array([random_angles(rng) for _ in range(n)]).T
    chart = np.array((np.zeros(n), np.ones(n), alpha, beta))
    units, _ = _chart_units(chart)
    sa, ca, sb, cb = np.sin(alpha), np.cos(alpha), np.sin(beta), np.cos(beta)
    tangent_a = np.array((np.zeros(n), -sa * sb, ca * sb, np.zeros(n)))
    tangent_b = np.array((np.zeros(n), ca * cb, sa * cb, -sb))
    return chart, units, tangent_a, tangent_b


def imaginary_dot(a, b):
    return np.sum(a[1:] * b[1:], axis=0)


# ---------------------------------------------------------------------------
# basis algebra


def test_basis_products():
    assert I * J == K
    assert J * K == I
    assert K * I == J
    assert J * I == -K
    minus_one = Quaternion(-1.0)
    assert I * I == minus_one
    assert J * J == minus_one
    assert K * K == minus_one
    assert I * J * K == minus_one


def test_one_plus_i_times_one_plus_j():
    assert (ONE + I) * (ONE + J) == Quaternion(1.0, 1.0, 1.0, 1.0)


def test_product_is_noncommutative_but_associative():
    rng = random.Random(7)
    for _ in range(100):
        a, b, c = (random_quaternion(rng) for _ in range(3))
        left = (a * b) * c
        right = a * (b * c)
        assert abs(left - right) <= 1e-12 * (1.0 + abs(left))
    assert abs(I * J - J * I) > 1e-12


def test_norm_is_multiplicative():
    rng = random.Random(8)
    for _ in range(200):
        a, b = random_quaternion(rng), random_quaternion(rng)
        assert abs(a * b) == pytest.approx(abs(a) * abs(b), rel=1e-12)


def test_conjugate_reverses_products():
    rng = random.Random(9)
    for _ in range(100):
        a, b = random_quaternion(rng), random_quaternion(rng)
        lhs = (a * b).conjugate()
        rhs = b.conjugate() * a.conjugate()
        assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs))


def test_addition_subtraction_negation():
    a = Quaternion(1.0, -2.0, 3.0, -4.0)
    b = Quaternion(0.5, 0.25, -0.75, 2.0)
    assert a + b == Quaternion(1.5, -1.75, 2.25, -2.0)
    assert a - b == Quaternion(0.5, -2.25, 3.75, -6.0)
    assert -a == Quaternion(-1.0, 2.0, -3.0, 4.0)
    assert 1.0 - I == Quaternion(1.0, -1.0, 0.0, 0.0)
    assert a + 2.0 == Quaternion(3.0, -2.0, 3.0, -4.0)


def test_repr_and_equality_with_other_types():
    assert repr(Quaternion(1, -2, 0.5, 3)) == "Quaternion(1.0, -2.0, 0.5, 3.0)"
    assert Quaternion(2.0) == 2 and Quaternion(2.0, 1.0) != 2.0 and Quaternion() != "0"


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.truediv,
                                lambda q, other: other - q],
                         ids=["add", "sub", "mul", "truediv", "rsub"])
def test_arithmetic_with_a_non_number_is_a_type_error(op):
    # each operator returns NotImplemented, so Python raises the TypeError
    with pytest.raises(TypeError):
        op(Quaternion(1.0), "x")


def test_inverse_closed_forms():
    assert I.inverse() == -I
    assert Quaternion(2.0).inverse() == Quaternion(0.5)
    rng = random.Random(10)
    for _ in range(100):
        p = random_quaternion(rng)
        if abs(p) < 1e-3:
            continue
        prod = p * p.inverse()
        assert abs(prod - ONE) <= 1e-12
        assert abs(p / p - ONE) <= 1e-12


def test_zero_has_no_inverse():
    with pytest.raises(ZeroDivisionError):
        Quaternion().inverse()


def test_norm_accessors():
    q = Quaternion(0.5, 1.0, 2.0, 3.0)
    assert q.vector_norm() == pytest.approx(math.sqrt(14.0))
    assert q.norm_sq() == pytest.approx(0.25 + 14.0)


def test_a_norm_whose_sum_of_squares_overflows_is_rescaled():
    # (2e199)^2 overflows; the rescaled sum is 4 exactly
    assert abs(Quaternion(2e199, 2e199, -2e199, 2e199)) == 4e199
    assert abs(Quaternion(2e199)) == 2e199
    assert abs(Quaternion(math.inf, 1.0)) == math.inf
    assert math.isnan(abs(Quaternion(math.nan, 1e200)))
    # the imaginary part's length too
    p = Quaternion(0.5, 1e200, 1e200, 0.0)
    assert p.vector_norm() == to_spherical(p).r == 1.414213562373095e+200
    assert Quaternion(0.0, math.inf, 1.0).vector_norm() == math.inf
    assert math.isnan(Quaternion(0.0, math.nan, 1e200).vector_norm())


def test_chart_rows_of_a_huge_imaginary_part_take_the_rescaled_norm():
    # r is the rescaled norm of to_spherical, not inf, with no overflow warning,
    # on an array and on rows of their own shapes (z against x and y)
    points = [Quaternion(0.5, 1e200, 1e200, 0.0), Quaternion(0.1, -3e180, 2e200, -1e300),
              Quaternion(-0.2, 0.3, -0.4, 1.2)]
    want = [list(to_spherical(p)) for p in points]
    rows = np.array([[p.t, p.x, p.y, p.z] for p in points]).T
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        chart = to_spherical_array(rows)
        mesh = to_spherical_array((rows[0], rows[1][:, None], rows[2][:, None], rows[3]))
    assert chart.T.tolist() == want
    assert want[0][1] == 1.414213562373095e+200
    assert np.diagonal(mesh[1]).tolist() == [s[1] for s in want]


def test_abs_equals_qabs_array_bit_for_bit():
    # seeded draws at every scale, past the root of the float maximum included
    rng = np.random.default_rng(7)
    rows = rng.standard_normal((4, 400)) * 10.0 ** rng.integers(-300, 307, (4, 400))
    rows[:, :8] = [[1e154, 2e199, 0.0, -8e307, 8.9e307, 5e-324, 3.0, 1e-160]] * 4
    want = qabs_array(rows).tolist()
    assert [abs(Quaternion(*column)) for column in rows.T.tolist()] == want
    assert all(math.isfinite(n) for n in want)


# ---------------------------------------------------------------------------
# imaginary-direction frame


def test_iota_at_reference_angles():
    # at (alpha, beta) = (0, pi/2): iota = i, iota_a = j, iota_b = -k
    assert abs(iota(0.0, HALF_PI) - I) <= 1e-15
    units, _ = _chart_units(np.array([[0.0], [1.0], [0.0], [HALF_PI]]))
    for row, expected in ((1, I), (2, J.inverse()), (3, (-K).inverse())):
        assert abs(Quaternion(*units[:, row, 0]) - expected) <= 1e-15


def test_iota_is_a_unit_imaginary_root():
    rng = random.Random(11)
    for _ in range(1000):
        alpha, beta = random_angles(rng)
        io = iota(alpha, beta)
        assert abs(io) == pytest.approx(1.0, abs=1e-14)
        assert abs(io * io - Quaternion(-1.0)) <= 1e-13


def test_tangents_anticommute_with_iota():
    # u * iota + iota * u = 0 for both inverse tangents u that the chart
    # operators use, and the iota row there is iota_array itself
    chart, units, _, _ = chart_frame(12, 1000)
    io = iota_array(chart)
    assert np.array_equal(units[:, 1], io)
    for u in (units[:, 2], units[:, 3]):
        assert np.abs(qmul_array(u, io) + qmul_array(io, u)).max() < 1e-12


def test_tangent_norms_and_orthogonality():
    chart, units, _, _ = chart_frame(13, 300)
    _, norms = _chart_units(chart)
    inv_a, inv_b, io = units[:, 2], units[:, 3], units[:, 1]
    sb = np.sin(chart[3])
    np.testing.assert_allclose(qabs_array(inv_a), 1.0 / sb, rtol=1e-13)
    np.testing.assert_allclose(qabs_array(inv_b), 1.0, rtol=1e-13)
    np.testing.assert_allclose(norms[2:], qabs_array(units[:, 2:]), rtol=1e-13)
    for a, b in ((inv_a, inv_b), (inv_a, io), (inv_b, io)):
        assert np.abs(imaginary_dot(a, b)).max() < 1e-13


def test_inverse_tangents():
    chart, units, tangent_a, tangent_b = chart_frame(14, 300)
    _, _, alpha, beta = chart
    expected_a = np.array((np.zeros_like(alpha), np.sin(alpha), -np.cos(alpha),
                           np.zeros_like(alpha))) / np.sin(beta)
    np.testing.assert_allclose(units[:, 2], expected_a, rtol=0, atol=1e-13)
    np.testing.assert_allclose(units[:, 3], -tangent_b, rtol=0, atol=1e-15)
    # they really are multiplicative inverses of the tangents
    one = np.eye(4)[:, :1]
    assert np.abs(qmul_array(tangent_a, units[:, 2]) - one).max() < 1e-12
    assert np.abs(qmul_array(tangent_b, units[:, 3]) - one).max() < 1e-12
    # and the closed-form tangents are the angle derivatives of iota
    d = 1e-6
    for row, tangent in ((2, tangent_a), (3, tangent_b)):
        step = np.zeros((4, 1))
        step[row] = d
        central = (iota_array(chart + step) - iota_array(chart - step)) / (2.0 * d)
        np.testing.assert_allclose(central, tangent, rtol=0, atol=1e-9)


def test_frame_resolves_cartesian_units():
    # iota * x_r - (iota_a^-1 * x_alpha + iota_b^-1 * x_beta) / r recovers
    # i, j, k from the chart partials of the coordinate functions x, y, z
    _, units, tangent_a, tangent_b = chart_frame(15, 200)
    r = np.random.default_rng(15).uniform(0.3, 2.0, 200)
    io, inv_a, inv_b = units[:, 1], units[:, 2], units[:, 3]
    for k in (1, 2, 3):
        # the chart partials of the k-th coordinate of r * iota
        dr, dalpha, dbeta = io[k], r * tangent_a[k], r * tangent_b[k]
        got = io * dr - (inv_a * dalpha + inv_b * dbeta) / r
        assert np.abs(got - np.eye(4)[:, k:k + 1]).max() < 1e-10


# ---------------------------------------------------------------------------
# spherical chart


def test_to_spherical_reference_points():
    s = to_spherical(Quaternion(1.0, 1.0, 0.0, 0.0))
    assert (s.t, s.r) == (1.0, 1.0)
    assert s.alpha == pytest.approx(0.0, abs=1e-15)
    assert s.beta == pytest.approx(HALF_PI, abs=1e-15)

    s = to_spherical(Quaternion(2.0, 0.0, 3.0, 0.0))
    assert (s.t, s.r) == (2.0, 3.0)
    assert s.alpha == pytest.approx(HALF_PI)
    assert s.beta == pytest.approx(HALF_PI)


def test_chart_singularities_raise():
    with pytest.raises(ChartSingularityError):
        to_spherical(Quaternion(1.0, 0.0, 0.0, 1.0))  # x = y = 0
    with pytest.raises(ChartSingularityError):
        to_spherical(Quaternion(3.0))  # real axis, r = 0
    with pytest.raises(ChartSingularityError):
        to_spherical(Quaternion(0.0, 0.0, 0.0, -0.5))


def test_chart_round_trips():
    rng = random.Random(16)
    for _ in range(500):
        p = random_quaternion(rng)
        if math.hypot(p.x, p.y) < 1e-6:
            continue
        s = to_spherical(p)
        assert s.r > 0.0
        assert 0.0 < s.beta < math.pi
        back = from_spherical(s)
        assert abs(back - p) <= 1e-12 * (1.0 + abs(p))
    for _ in range(500):
        t = rng.uniform(-2.0, 2.0)
        r = rng.uniform(0.1, 3.0)
        alpha, beta = random_angles(rng)
        s = to_spherical(from_spherical(SphericalPoint(t, r, alpha, beta)))
        assert s.t == pytest.approx(t, abs=1e-12)
        assert s.r == pytest.approx(r, rel=1e-12)
        assert s.alpha == pytest.approx(alpha, abs=1e-12)
        assert s.beta == pytest.approx(beta, abs=1e-12)


def test_from_spherical_matches_explicit_embedding():
    s = SphericalPoint(0.25, 1.5, 0.8, 1.1)
    p = from_spherical(s)
    assert p.t == pytest.approx(0.25)
    assert p.x == pytest.approx(1.5 * math.cos(0.8) * math.sin(1.1))
    assert p.y == pytest.approx(1.5 * math.sin(0.8) * math.sin(1.1))
    assert p.z == pytest.approx(1.5 * math.cos(1.1))


def test_spherical_point_is_an_immutable_named_tuple():
    s = SphericalPoint(0.1, 0.9, -0.4, 1.2)
    assert SphericalPoint._fields == ("t", "r", "alpha", "beta")
    assert tuple(s) == (s.t, s.r, s.alpha, s.beta) == (0.1, 0.9, -0.4, 1.2)
    with pytest.raises(AttributeError):
        s.r = 2.0
    assert s == SphericalPoint(0.1, 0.9, -0.4, 1.2)
    assert s != SphericalPoint(0.1, 0.9, -0.4, 1.3)
    assert hash(s) == hash(SphericalPoint(0.1, 0.9, -0.4, 1.2))
    assert repr(s) == "SphericalPoint(t=0.1, r=0.9, alpha=-0.4, beta=1.2)"


def test_public_constructor_coerces_to_float():
    p = Quaternion(1, 2, np.float64(3.5), True)
    assert [type(c) for c in (p.t, p.x, p.y, p.z)] == [float] * 4
    assert (p.t, p.z) == (1.0, 1.0)
    q = from_spherical(SphericalPoint(1, np.float64(2.0), 0, 1))
    assert [type(c) for c in (q.t, q.x, q.y, q.z)] == [float] * 4


def test_qmul_array_is_the_scalar_product_bit_for_bit():
    rng = np.random.default_rng(32)
    a, b = rng.normal(size=(4, 300)), rng.normal(size=(300, 4)).T
    for got in (qmul_array(a, b), qmul_array(np.ascontiguousarray(a.T).T, b.copy())):
        for k in range(300):
            want = Quaternion(*a[:, k].tolist()) * Quaternion(*b[:, k].tolist())
            assert got[:, k].tolist() == [want.t, want.x, want.y, want.z]
