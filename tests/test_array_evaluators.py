"""The batched samplers agree with the scalar views they batch.

Column k of sample_chart(f, chart) must equal f.at_spherical of column k,
and column k of f's Cartesian array view at quaternion rows must equal
f(p) of column k, the k axis x = y = 0 included.  Off the domain, where the
scalar view raises, the column must come back non-finite, and the batch
must emit no numpy warning.
"""

import cmath
import math
import warnings

import numpy as np
import pytest

from fueterlab.classify import classify
from fueterlab.function_model import (
    DEFAULT_GRID,
    NAMED_STEMS,
    ComplexStem,
    cullen_extend,
    from_uv,
    pointwise_product,
    pointwise_sum,
    sample_chart,
)
from fueterlab.generators import (chiral_difference, get_witness, mirror, resolve_function_spec,
                                  rinehart_L)
from fueterlab.quaternion_core import Quaternion, SphericalPoint, from_spherical_array
from fueterlab.verification import conjugate_function, random_polynomial

REL_TOL = 1e-12


def _witness(name):
    return get_witness(name).function


MAKERS = {name: (lambda name=name: _witness(name))
            for name in ("rho", "varrho", "sigma", "x-over-r-iota")}
MAKERS.update({f"pow:{n}": (lambda n=n: _witness(f"pow:{n}")) for n in range(-2, 5)})
MAKERS["product:rho*pow:2"] = lambda: pointwise_product(_witness("rho"), _witness("pow:2"))
MAKERS["sum:pow:2+pow:-1"] = lambda: pointwise_sum(_witness("pow:2"), _witness("pow:-1"))
MAKERS["mirror:pow:3"] = lambda: mirror(_witness("pow:3"))
MAKERS["chiral:rho"] = lambda: chiral_difference(_witness("rho"))
MAKERS["conj:sigma"] = lambda: conjugate_function(_witness("sigma"))
MAKERS["poly"] = lambda: random_polynomial(np.random.default_rng(7))

# chart points where some catalog function leaves its domain: the real
# axis and below it, a near-zero argument of a negative power, the poles
# and beyond, and the artanh ridges of varrho and sigma
OFF_DOMAIN = [
    (0.3, 0.0, 0.4, 1.2),
    (-0.2, -0.5, 1.1, 0.8),
    (0.0, 1e-13, 0.3, 1.0),
    (0.1, 0.7, 0.5, 0.0),
    (0.1, 0.7, 0.5, -0.5),
    (0.2, 0.9, 0.0, math.pi / 2),
    (0.2, 0.9, math.pi / 2, math.pi / 2),
]


def _seeded_chart(n=64, seed=20240601):
    return DEFAULT_GRID.random_chart(np.random.default_rng(seed), n)


def _array_values(f, chart):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = sample_chart(f, chart)
    assert values.shape == chart.shape
    return values


def _scalar_value(f, col):
    try:
        val = f.at_spherical(SphericalPoint(*col))
    except (ValueError, ZeroDivisionError, OverflowError):
        return None
    return np.array([val.t, val.x, val.y, val.z])


def _assert_agrees(got, want, col):
    assert np.linalg.norm(got - want) <= REL_TOL * np.linalg.norm(want), col


@pytest.mark.parametrize("name", sorted(MAKERS))
def test_array_matches_scalar_inside_grid(name):
    f = MAKERS[name]()
    assert f.cartesian_array is not None
    chart = _seeded_chart()
    values = _array_values(f, chart)
    for k, col in enumerate(chart.T.tolist()):
        want = _scalar_value(f, col)
        assert want is not None, col
        _assert_agrees(values[:, k], want, col)


@pytest.mark.parametrize("name", sorted(MAKERS))
def test_array_is_non_finite_where_scalar_raises(name):
    f = MAKERS[name]()
    chart = np.array(OFF_DOMAIN).T
    values = _array_values(f, chart)
    for k, col in enumerate(OFF_DOMAIN):
        want = _scalar_value(f, col)
        if want is None or not np.all(np.isfinite(want)):
            assert not np.all(np.isfinite(values[:, k])), col
        else:
            _assert_agrees(values[:, k], want, col)


# a point on the real axis, where no function here is defined, and points
# on the k axis x = y = 0, where the chart has no alpha: a sweep is defined
# there, a function of the angles is not
REAL_AXIS = [(0.5, 0.0, 0.0, 0.0), (-0.25, -0.0, 0.0, -0.0)]
K_AXIS = [(0.3, 0.0, 0.0, 0.8), (-0.4, -0.0, 0.0, -1.2), (0.1, 0.0, -0.0, 0.6)]
# the sweeps, their mirror and sum, and the polynomial
ON_THE_K_AXIS = {name for name in MAKERS
                 if name.startswith(("pow:", "mirror:pow:", "sum:pow:", "poly"))}


def _evaluator_value(f, col):
    try:
        val = f(Quaternion(*col))
    except (ValueError, ZeroDivisionError, OverflowError):
        return None
    return np.array([val.t, val.x, val.y, val.z])


@pytest.mark.parametrize("name", sorted(MAKERS))
def test_cartesian_view_matches_the_evaluator(name):
    f = MAKERS[name]()
    rows = np.hstack((from_spherical_array(_seeded_chart()), np.array(REAL_AXIS + K_AXIS).T))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = f.cartesian_array(rows)
    assert values.shape == rows.shape
    for k, col in enumerate(rows.T.tolist()):
        want = _evaluator_value(f, col)
        if want is None:
            assert np.isnan(values[:, k]).all(), col
        else:
            _assert_agrees(values[:, k], want, col)
    on_axis = values[:, -len(K_AXIS):]
    assert np.isfinite(on_axis).all() if name in ON_THE_K_AXIS else np.isnan(on_axis).all()
    if name != "poly":
        assert np.isnan(values[:, -len(K_AXIS + REAL_AXIS):-len(K_AXIS)]).all()


def test_off_domain_points_reach_every_family():
    # the off-domain cases exercise the NaN path of each kind of evaluator
    for name in ("pow:-2", "rho", "varrho", "sigma", "mirror:pow:3"):
        f = MAKERS[name]()
        values = _array_values(f, np.array(OFF_DOMAIN).T)
        assert not np.all(np.isfinite(values)), name


# ---------------------------------------------------------------------------
# array evaluators built around scalar user callables and non-Laurent stems:
# the user callable runs once per column, everything else on arrays


def _log_alpha_v(s):
    return math.log(s.alpha + 1.0)  # ValueError for alpha <= -1


def _user_stem():
    return ComplexStem.named("user", lambda z: 0.3 * z ** 2 - 1j / z + cmath.exp(0.5j * z))


LOOPED = {
    "from_uv": lambda: from_uv(lambda s: s.t * s.r + math.cos(s.alpha),
                               lambda s: s.r * math.sin(s.beta) - s.t),
    "from_uv:raising-v": lambda: from_uv(lambda s: s.alpha - s.t, _log_alpha_v),
    "cullen:user": lambda: cullen_extend(_user_stem()),
    "cullen:log-tan": lambda: cullen_extend(NAMED_STEMS["log-tan"]),
    "cullen:arctan": lambda: cullen_extend(NAMED_STEMS["arctan"]),
    "L:laurent": lambda: resolve_function_spec("L:-2:0.5:-0.3,1:1:0,3:0.2:0.7"),
    "L:log-tan": lambda: resolve_function_spec("L:log-tan"),
}

# inside arctan's cut |t| <= 0.25, r >= 0.75, and a column where only the
# raising v of from_uv fails
EXTRA_CHART = [(0.1, 0.9, 0.4, 1.2), (-0.25, 1.4, -2.0, 2.0), (0.3, 0.8, -1.5, 1.1)]


@pytest.mark.parametrize("name", sorted(LOOPED))
def test_array_is_nan_exactly_where_scalar_raises(name):
    f = LOOPED[name]()
    chart = np.hstack((_seeded_chart(), np.array(OFF_DOMAIN + EXTRA_CHART).T))
    values = _array_values(f, chart)
    for k, col in enumerate(chart.T.tolist()):
        want = _scalar_value(f, col)
        if want is None:
            assert np.isnan(values[:, k]).all(), col
        else:
            _assert_agrees(values[:, k], want, col)


def test_arctan_cut_and_raising_v_reach_the_nan_path():
    inside = np.array(EXTRA_CHART[:2]).T
    assert np.isnan(_array_values(LOOPED["cullen:arctan"](), inside)).all()
    assert not np.isnan(_array_values(LOOPED["from_uv"](), inside)).any()
    assert np.isnan(_array_values(LOOPED["from_uv:raising-v"](), np.array(EXTRA_CHART[2:]).T)).all()


@pytest.mark.parametrize("terms", [[(-2, 0.5 - 0.3j), (1, 1.0), (3, 0.2 + 0.7j)],
                                   [(-1, 1.0)], [(0, 2.0)], [(4, -1j), (0, 0.5)]])
def test_extension_functional_of_laurent_stem_on_arrays(terms):
    # the vectorized image of a Laurent stem against its scalar eval,
    # including the real axis, the lower half plane, a near-zero argument and
    # the chart's radius margin 0.1
    g = rinehart_L(ComplexStem.laurent(terms))
    rng = np.random.default_rng(11)
    z = rng.uniform(-1.5, 1.5, 40) + 1j * rng.uniform(0.2, 1.5, 40)
    z = np.concatenate((z, [0.3 + 0j, -0.4 - 0.2j, 1e-13j, 2.0 + 0.1j]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = g.eval_array(z)
    for k, zk in enumerate(z.tolist()):
        try:
            want = g.eval(zk)
        except ValueError:
            assert np.isnan(got[k].real) and np.isnan(got[k].imag), zk
            continue
        assert abs(got[k] - want) <= REL_TOL * abs(want), zk


class CountingStem:
    """A user stem that records every z it is called at.  Its value depends
    on the sign of a zero real part, and it raises at one point."""

    def __init__(self):
        self.calls = []

    def __call__(self, z):
        self.calls.append(z)
        if z == 0.25 + 0.5j:
            raise ZeroDivisionError("pole of the user stem")
        return math.copysign(1.0, z.real) * z * z - 1j / z


def _bits(values):
    """ the (real, imaginary) bit patterns of complex values, as int pairs """
    return [tuple(b) for b in np.array(values, dtype=complex).view(np.int64).reshape(-1, 2).tolist()]


def test_scalar_stem_is_called_once_per_distinct_z():
    g = CountingStem()
    stem = ComplexStem.named("counting", g, domain_ok=lambda z: z.real < 0.6)
    z = np.array([0.5 + 1j, 0.5 + 1j, -0.0 + 1j, 0.0 + 1j, -0.0 + 1j, 0.7 + 2j,
                  0.25 + 0.5j, 0.5 + 1j, 1.0 + 0j, 0.25 + 0.5j])
    z.real[2] = z.real[4] = -0.0
    want = []
    for zk in z.tolist():
        try:
            want.append(stem.eval(zk))
        except (ValueError, ZeroDivisionError):
            want.append(complex(math.nan, math.nan))
    g.calls.clear()
    got = stem.eval_array(z)
    assert _bits(got) == _bits(want)
    assert got[2] != got[3]  # -0.0 and 0.0 are different points of this stem
    # 0.7 + 2j fails domain_ok and 1.0 + 0j the upper half plane before g runs
    distinct = set(_bits([zk for zk in z.tolist() if zk.imag > 0 and zk.real < 0.6]))
    assert len(g.calls) == len(distinct) == 4
    assert set(_bits(g.calls)) == distinct


def test_sweep_of_scalar_stem_calls_it_at_most_twice_per_node():
    g = CountingStem()
    report = classify(cullen_extend(ComplexStem.named("counting", g)), DEFAULT_GRID)
    assert report.class_III.verdict == "pass"
    assert len(g.calls) <= 2 * DEFAULT_GRID.size
