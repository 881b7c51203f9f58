"""Products, sums, mirrors and conjugates: which views a composite has, and
what each one gives.

A composite of QFunctions always has a Cartesian array view
(cartesian_array): it reads each input through sample_cartesian, the
input's own Cartesian view or, for an input built from an evaluator alone,
the per-point fill of that evaluator.  It has a spherical_evaluator only
when every input has one, and a (u, v) view uv_array only when every input
has one.  Each view must give, bit for bit, what the formula written out
below gives from the inputs' own views (the Cartesian one from each input's
sample_cartesian), on seeded points inside the default grid box.  The
inputs cover every mix of views: a raw function (evaluator only), a raw
function with a chart view, a from_uv and a Cullen sweep (all four views)
and a chiral difference (evaluator and Cartesian array view).

Both sides of each comparison run the same operations, numpy's or libm's,
on the same floats, so these bits hold on any numpy SIMD target, not only
on the recorded one.
"""

import itertools
import math
import struct

import numpy as np
import pytest

from fueterlab.function_model import (DEFAULT_GRID, ComplexStem, QFunction, cullen_extend,
                                      from_uv, pointwise_product, pointwise_sum,
                                      sample_cartesian)
from fueterlab.generators import chiral_difference, get_witness, mirror
from fueterlab.quaternion_core import Quaternion, SphericalPoint, from_spherical
from fueterlab.verification import conjugate_function

CHART = DEFAULT_GRID.random_chart(np.random.default_rng(16), 5)
CHART_POINTS = [SphericalPoint(*column) for column in CHART.T.tolist()]
CARTESIAN = [from_spherical(s) for s in CHART_POINTS]
# the conjugates too, so the mirror's Cartesian view is read on both sides
CARTESIAN += [p.conjugate() for p in CARTESIAN]
CARTESIAN_ROWS = np.array([(p.t, p.x, p.y, p.z) for p in CARTESIAN]).T

SHIFT = Quaternion(0.5, -0.25, 1.0, 0.125)


def _raw_evaluator(p):
    return p * p + SHIFT * p


def _inputs():
    raw = QFunction("raw", _raw_evaluator)
    raw_chart = QFunction("raw-chart", _raw_evaluator,
                          spherical_evaluator=lambda s: _raw_evaluator(from_spherical(s)))
    uv = from_uv(lambda s: 0.5 * s.alpha + s.t, lambda s: math.log(math.tan(s.beta / 2.0)) + s.r,
                 name="uv")
    sweep = cullen_extend(ComplexStem.laurent([(2, 1.0), (-1, 0.5j)]))
    chiral = chiral_difference(get_witness("rho").function)
    return (raw, raw_chart, uv, sweep, chiral)


INPUTS = _inputs()
IDS = [f.name for f in INPUTS]


def _bits(q) -> bytes:
    return struct.pack("4d", q.t, q.x, q.y, q.z)


def _row_bits(rows) -> bytes:
    rows = np.asarray(rows, dtype=float)
    return struct.pack(f"{rows.size}d", *rows.ravel().tolist())


def _conj_rows(rows):
    return np.array((rows[0], -rows[1], -rows[2], -rows[3]))


def _hamilton_rows(a, b):
    return np.array((a[0] * b[0] - a[1] * b[1] - a[2] * b[2] - a[3] * b[3],
                     a[0] * b[1] + a[1] * b[0] + a[2] * b[3] - a[3] * b[2],
                     a[0] * b[2] - a[1] * b[3] + a[2] * b[0] + a[3] * b[1],
                     a[0] * b[3] + a[1] * b[2] - a[2] * b[1] + a[3] * b[0]))


def _complex_rows(w):
    return w.real, w.imag


def _complex(uv):
    return uv[0] + 1j * uv[1]


def _antipode(s):
    return SphericalPoint(s.t, s.r, s.alpha - math.copysign(math.pi, s.alpha), math.pi - s.beta)


def _antipodal_chart(chart):
    t, r, alpha, beta = chart
    return np.array((t, r, alpha - np.copysign(np.pi, alpha), np.pi - beta))


def _assert_views(h, inputs, cartesian, spherical, array, uv):
    """h has a Cartesian array view, and a chart view ((u, v) view) exactly
    when every input has one, and each of its views equals the written-out
    formula bit for bit"""
    has_spherical = all(f.spherical_evaluator is not None for f in inputs)
    has_uv = all(f.uv_array is not None for f in inputs)
    assert h.cartesian_array is not None
    assert (h.spherical_evaluator is not None) == has_spherical
    assert (h.uv_array is not None) == has_uv
    for p in CARTESIAN:
        assert _bits(h(p)) == _bits(cartesian(p)), p
    if has_spherical:
        for s in CHART_POINTS:
            assert _bits(h.spherical_evaluator(s)) == _bits(spherical(s)), s
    assert _row_bits(h.cartesian_array(CARTESIAN_ROWS)) == _row_bits(array(CARTESIAN_ROWS))
    if has_uv:
        assert _row_bits(np.broadcast_arrays(*h.uv_array(CHART))) == \
            _row_bits(np.broadcast_arrays(*uv(CHART)))


def _pair_kind(f, g):
    if f.kind == "CI" and g.kind == "CI":
        return "CI"
    return "CE" if f.is_ce and g.is_ce else "raw"


@pytest.mark.parametrize("f, g", itertools.product(INPUTS, repeat=2),
                         ids=[f"{a}*{b}" for a, b in itertools.product(IDS, repeat=2)])
def test_product_views(f, g):
    h = pointwise_product(f, g)
    assert (h.name, h.kind, h.classes) == (f"product:{f.name}*{g.name}", _pair_kind(f, g), None)
    _assert_views(h, (f, g),
                  lambda p: f(p) * g(p),
                  lambda s: f.at_spherical(s) * g.at_spherical(s),
                  lambda q: _hamilton_rows(sample_cartesian(f, q), sample_cartesian(g, q)),
                  lambda c: _complex_rows(_complex(f.uv_array(c)) * _complex(g.uv_array(c))))


@pytest.mark.parametrize("f, g", itertools.product(INPUTS, repeat=2),
                         ids=[f"{a}+{b}" for a, b in itertools.product(IDS, repeat=2)])
def test_sum_views(f, g):
    h = pointwise_sum(f, g)
    assert (h.name, h.kind, h.classes) == (f"sum:{f.name}+{g.name}", _pair_kind(f, g), None)
    _assert_views(h, (f, g),
                  lambda p: f(p) + g(p),
                  lambda s: f.at_spherical(s) + g.at_spherical(s),
                  lambda q: sample_cartesian(f, q) + sample_cartesian(g, q),
                  lambda c: _complex_rows(_complex(f.uv_array(c)) + _complex(g.uv_array(c))))


@pytest.mark.parametrize("f", INPUTS, ids=IDS)
def test_mirror_views(f):
    h = mirror(f)
    classes = f.classes if f.kind == "CI" else None
    assert (h.name, h.kind, h.classes) == (f"mirror:{f.name}", f.kind, classes)
    _assert_views(h, (f,),
                  lambda p: f(p.conjugate()).conjugate(),
                  lambda s: f.at_spherical(_antipode(s)).conjugate(),
                  lambda q: _conj_rows(sample_cartesian(f, _conj_rows(q))),
                  lambda c: f.uv_array(_antipodal_chart(c)))


@pytest.mark.parametrize("f", INPUTS, ids=IDS)
def test_conjugate_views(f):
    h = conjugate_function(f)
    assert (h.name, h.kind, h.classes) == (f"conj:{f.name}", f.kind, None)
    _assert_views(h, (f,),
                  lambda p: f(p).conjugate(),
                  lambda s: f.at_spherical(s).conjugate(),
                  lambda q: _conj_rows(sample_cartesian(f, q)),
                  lambda c: (f.uv_array(c)[0], -f.uv_array(c)[1]))
