"""The per-point path for user scalar callables, pinned bit for bit.

A user's evaluator computes with Quaternion arithmetic, and the samplers
call it (or the u and v of from_uv) once per point and fill value rows from
what it returns.  These tests pin that path: the floats of every Quaternion
operation, signed zeros, infinities and NaNs included (compared by their
bytes, since -0.0 == 0.0 and nan != nan); which errors give a NaN column
and which propagate; and the calls that u and v see.
"""

import math
import random
import struct

import numpy as np
import pytest

from fueterlab.function_model import QFunction, from_uv, sample_cartesian, sample_chart
from fueterlab.quaternion_core import Quaternion, SphericalPoint, from_spherical

SPECIAL = (0.0, -0.0, 1.0, -2.5, math.inf, -math.inf, math.nan, 1e308, -5e-324)


def _operands(seed, n=400):
    """ seeded (t, x, y, z) tuples, about a third of the components special """
    rng = random.Random(seed)
    return [tuple(rng.choice(SPECIAL) if rng.random() < 0.35 else rng.uniform(-3.0, 3.0)
                  for _ in range(4)) for _ in range(n)]


def _bits(*numbers) -> bytes:
    return struct.pack(f"{len(numbers)}d", *numbers)


def _result_bits(q) -> bytes:
    components = (q.t, q.x, q.y, q.z)
    assert type(q) is Quaternion
    assert all(type(c) is float for c in components)
    return _bits(*components)


def _hamilton(a, b, c, d, e, f, g, h) -> tuple:
    return (a * e - b * f - c * g - d * h,
            a * f + b * e + c * h - d * g,
            a * g - b * h + c * e + d * f,
            a * h + b * g - c * f + d * e)


BINARY = {
    "mul": (lambda p, q: p * q, lambda a, b: _hamilton(*a, *b)),
    "add": (lambda p, q: p + q, lambda a, b: tuple(x + y for x, y in zip(a, b))),
    "sub": (lambda p, q: p - q, lambda a, b: tuple(x - y for x, y in zip(a, b))),
}


@pytest.mark.parametrize("op", BINARY)
def test_quaternion_operands_give_the_written_out_floats(op):
    method, formula = BINARY[op]
    left, right = _operands(1), _operands(2)
    for a, b in zip(left, right):
        assert _result_bits(method(Quaternion(*a), Quaternion(*b))) == _bits(*formula(a, b)), (a, b)


def test_negation_gives_the_negated_floats():
    for a in _operands(3):
        assert _result_bits(-Quaternion(*a)) == _bits(*(-x for x in a)), a


@pytest.mark.parametrize("scalar", (2, -3.5, -0.0, math.inf, math.nan, True))
def test_real_scalar_operands_are_coerced_once(scalar):
    s = float(scalar)
    for a in _operands(4, 100):
        t, x, y, z = a
        p = Quaternion(*a)
        assert _result_bits(p * scalar) == _bits(t * s, x * s, y * s, z * s)
        assert _result_bits(scalar * p) == _bits(t * s, x * s, y * s, z * s)
        assert _result_bits(p + scalar) == _bits(t + s, x, y, z)
        assert _result_bits(scalar + p) == _bits(t + s, x, y, z)
        assert _result_bits(p - scalar) == _bits(t - s, x, y, z)
        assert _result_bits(scalar - p) == _bits(s - t, -x, -y, -z)


# ---------------------------------------------------------------------------
# raw evaluators: one call per point


RAISES_AT_T = 0.3
T_VALUES = (-0.5, 0.1, RAISES_AT_T, 0.7, 1.2)


def _raw(error):
    """ p -> p p + p, raising error at t = RAISES_AT_T """
    def evaluator(p):
        if p.t == RAISES_AT_T:
            raise error("raised by the user's evaluator")
        return p * p + p
    return QFunction("raw-user", evaluator)


def _chart_rows() -> np.ndarray:
    n = len(T_VALUES)
    return np.array((T_VALUES, np.linspace(0.5, 1.5, n),
                     np.linspace(-2.0, 2.0, n), np.linspace(0.5, 2.5, n)))


def _cartesian_rows() -> np.ndarray:
    points = [from_spherical(SphericalPoint(*col)) for col in _chart_rows().T.tolist()]
    return np.array([(q.t, q.x, q.y, q.z) for q in points]).T


# sampler, its rows, and the Quaternion arguments the evaluator gets from them
SAMPLERS = {
    "sample_chart": (sample_chart, _chart_rows,
                     lambda rows: [from_spherical(SphericalPoint(*c)) for c in rows.T.tolist()]),
    "sample_cartesian": (sample_cartesian, _cartesian_rows,
                         lambda rows: [Quaternion(*c) for c in rows.T.tolist()]),
}


def _expected(f, points) -> np.ndarray:
    """ value rows of f, one point at a time, a NaN column where it raises """
    columns = []
    for p in points:
        try:
            q = f.evaluator(p)
        except (ValueError, ZeroDivisionError, OverflowError):
            columns.append((math.nan,) * 4)
        else:
            columns.append((q.t, q.x, q.y, q.z))
    return np.array(columns).T


@pytest.mark.parametrize("error", (ZeroDivisionError, OverflowError, ValueError))
@pytest.mark.parametrize("sampler", SAMPLERS)
def test_a_math_error_gives_a_nan_column_there_only(sampler, error):
    sample, rows, points = SAMPLERS[sampler]
    f = _raw(error)
    values = sample(f, rows())
    raised = np.array(T_VALUES) == RAISES_AT_T
    assert np.isnan(values[:, raised]).all()
    assert np.isfinite(values[:, ~raised]).all()
    assert values.tobytes() == _expected(f, points(rows())).tobytes()


@pytest.mark.parametrize("sampler", SAMPLERS)
def test_other_errors_propagate(sampler):
    sample, rows, _ = SAMPLERS[sampler]
    with pytest.raises(TypeError, match="raised by the user's evaluator"):
        sample(_raw(TypeError), rows())


# ---------------------------------------------------------------------------
# from_uv without uv_array: u, then v, once per point


def test_from_uv_skips_v_where_u_raises():
    log = []

    def u(s):
        log.append(("u", s))
        if s.t == RAISES_AT_T:
            raise ZeroDivisionError("u has a pole here")
        return 1.5 * s.alpha - 0.25

    def v(s):
        log.append(("v", s))
        return s.t * math.log(math.tan(s.beta / 2.0))

    chart = _chart_rows()
    values = sample_chart(from_uv(u, v), chart)
    columns = chart.T.tolist()
    want = [(name, col) for col in columns for name in ("u", "v")
            if name == "u" or col[0] != RAISES_AT_T]
    assert [(name, _bits(*s)) for name, s in log] == [(name, _bits(*col)) for name, col in want]
    for _, s in log:
        assert type(s) is SphericalPoint
        assert all(type(c) is float for c in s)
    raised = np.array(T_VALUES) == RAISES_AT_T
    assert np.isnan(values[:, raised]).all()
    assert np.isfinite(values[:, ~raised]).all()
