"""The chart views of u + iota v functions keep their exact values.

from_uv and cullen_extend assemble u + iota(alpha, beta) v in their scalar
view (at_spherical) and in their chart samples (sample_chart, which reads
the (u, v) view).  Both must give exactly what the formulas written out below give, result types
included, on seeded chart points inside the default grid box.
"""

import cmath
import math

import numpy as np
import pytest

from fueterlab.function_model import (DEFAULT_GRID, ComplexStem, NAMED_STEMS, cullen_extend,
                                      from_uv, sample_chart)
from fueterlab.generators import get_witness
from fueterlab.quaternion_core import Quaternion, SphericalPoint

CHART = DEFAULT_GRID.random_chart(np.random.default_rng(20261018), 200)
POINTS = [SphericalPoint(*column) for column in CHART.T.tolist()]


def uv_point(u, v, s):
    """ the reference scalar assembly of u + iota v at chart point s """
    sb = math.sin(s.beta)
    return Quaternion(u, v * math.cos(s.alpha) * sb, v * math.sin(s.alpha) * sb, v * math.cos(s.beta))


def uv_rows(chart, u, v):
    """ the reference array assembly of u + iota v at chart rows """
    _, _, alpha, beta = chart
    sb = np.sin(beta)
    return np.array((u, v * np.cos(alpha) * sb, v * np.sin(alpha) * sb, v * np.cos(beta)))


def stem_uv(stem):
    """ (scalar, array) u, v of the sweep of stem """
    def scalar(s):
        w = stem.eval(complex(s.t, s.r))
        return w.real, w.imag

    def array(chart):
        z = chart[0].astype(complex)
        z.imag = chart[1]
        w = stem.eval_array(z)
        return w.real, w.imag

    return scalar, array


def _atanh(x):
    return math.atanh(x) if -1.0 < x < 1.0 else math.nan


def _atanh_array(x):
    return np.where(np.abs(x) < 1.0, np.arctanh(x), np.nan)


WITNESS_UV = {
    "rho": (lambda s: (s.alpha, math.log(math.tan(s.beta / 2.0))),
            lambda c: (c[2], np.log(np.tan(c[3] / 2.0)))),
    "varrho": (lambda s: (math.atan2(math.sin(s.alpha) * math.sin(s.beta), math.cos(s.beta)),
                          _atanh(math.cos(s.alpha) * math.sin(s.beta))),
               lambda c: (np.arctan2(np.sin(c[2]) * np.sin(c[3]), np.cos(c[3])),
                          _atanh_array(np.cos(c[2]) * np.sin(c[3])))),
    "sigma": (lambda s: (math.atan2(math.cos(s.beta), math.cos(s.alpha) * math.sin(s.beta)),
                         _atanh(math.sin(s.alpha) * math.sin(s.beta))),
              lambda c: (np.arctan2(np.cos(c[3]), np.cos(c[2]) * np.sin(c[3])),
                         _atanh_array(np.sin(c[2]) * np.sin(c[3])))),
    "x-over-r-iota": (lambda s: (0.0, math.cos(s.alpha) * math.sin(s.beta)),
                      lambda c: (np.zeros_like(c[2]), np.cos(c[2]) * np.sin(c[3]))),
}
WITNESS_UV.update({name: stem_uv(ComplexStem.laurent([(n, 1.0)]))
                   for name, n in (("identity", 1), ("pow:-2", -2), ("pow:3", 3))})


def _scalar_u(s):
    return s.t * s.r - math.cos(s.alpha)


def _scalar_v(s):
    return math.exp(-s.r) * math.sin(s.beta - s.t)


def _int_u(s):
    return int(10.0 * s.t)


def _int_v(s):
    return 1 + int(s.alpha > 0.0) - 3 * int(s.beta > 1.5)


USER_STEM = ComplexStem.named("user-stem", lambda z: z ** 3 - 2j * z + 1.0 / z + cmath.exp(z))


def per_point(u, v):
    """ (scalar, array) u, v of from_uv(u, v) without uv_array, at POINTS """
    return (lambda s: (u(s), v(s)),
            lambda chart: np.array([(u(s), v(s)) for s in POINTS], dtype=float).T)


CASES = {name: (lambda name=name: (get_witness(name).function,) + WITNESS_UV[name])
         for name in WITNESS_UV}
CASES["from_uv-scalar"] = lambda: (from_uv(_scalar_u, _scalar_v),) + per_point(_scalar_u, _scalar_v)
CASES["from_uv-int"] = lambda: (from_uv(_int_u, _int_v),) + per_point(_int_u, _int_v)
CASES["cullen-log-tan"] = lambda: (cullen_extend(NAMED_STEMS["log-tan"]),) + stem_uv(NAMED_STEMS["log-tan"])
CASES["cullen-user-stem"] = lambda: (cullen_extend(USER_STEM),) + stem_uv(USER_STEM)

@pytest.mark.parametrize("name", CASES)
def test_scalar_chart_view_is_the_reference_assembly(name):
    f, scalar_uv, _ = CASES[name]()
    for s in POINTS:
        got = f.at_spherical(s)
        want = uv_point(*scalar_uv(s), s)
        assert type(got) is Quaternion
        assert all(type(c) is float for c in (got.t, got.x, got.y, got.z)), s
        assert (got.t, got.x, got.y, got.z) == (want.t, want.x, want.y, want.z), s


@pytest.mark.parametrize("name", CASES)
def test_array_chart_view_is_the_reference_assembly(name):
    f, _, array_uv = CASES[name]()
    got = sample_chart(f, CHART)
    want = uv_rows(CHART, *array_uv(CHART))
    assert type(got) is np.ndarray and got.dtype == np.float64 and got.shape == (4, len(POINTS))
    assert np.isfinite(want).all()
    assert (got == want).all()
