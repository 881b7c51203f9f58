"""Array evaluators agree with the scalar chart view they batch.

Column k of f.array_evaluator(chart) must equal f.at_spherical of column k.
Off the domain, where the scalar view raises, the column must come back
non-finite, and the array evaluation must emit no numpy warning.
"""

import math
import warnings

import numpy as np
import pytest

from fueterlab.function_model import (
    DEFAULT_GRID,
    pointwise_product,
    pointwise_sum,
)
from fueterlab.generators import get_witness, mirror
from fueterlab.quaternion_core import SphericalPoint

REL_TOL = 1e-12


def _witness(name):
    return get_witness(name).function


MAKERS = {name: (lambda name=name: _witness(name))
            for name in ("rho", "varrho", "sigma", "x-over-r-iota")}
MAKERS.update({f"pow:{n}": (lambda n=n: _witness(f"pow:{n}")) for n in range(-2, 5)})
MAKERS["product:rho*pow:2"] = lambda: pointwise_product(_witness("rho"), _witness("pow:2"))
MAKERS["sum:pow:2+pow:-1"] = lambda: pointwise_sum(_witness("pow:2"), _witness("pow:-1"))
MAKERS["mirror:pow:3"] = lambda: mirror(_witness("pow:3"))

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
    rng = np.random.default_rng(seed)
    pts = DEFAULT_GRID.random_points(rng, n)
    return np.array([[s.t, s.r, s.alpha, s.beta] for s in pts]).T


def _array_values(f, chart):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = f.array_evaluator(chart)
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
    assert f.array_evaluator is not None
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


def test_off_domain_points_reach_every_family():
    # the off-domain cases exercise the NaN path of each kind of evaluator
    for name in ("pow:-2", "rho", "varrho", "sigma", "mirror:pow:3"):
        f = MAKERS[name]()
        values = _array_values(f, np.array(OFF_DOMAIN).T)
        assert not np.all(np.isfinite(values)), name
