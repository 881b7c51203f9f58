"""The per-point fills: what they leave behind and what they let through.

A user callable is called once per point, and the fill reads each point
from the batch's flat coordinate rows as it goes, so no container per point
is built ahead of the loop and kept alive for the batch.  The container
objects a sample makes are freed with it, CPython's gen-0 count (container
allocations minus deallocations) stays below its threshold, and a whole
default-grid classify runs no collection in any generation.

A math or domain error gives a NaN sample, but a StepError, which is no
ValueError, propagates from every fill, as it does from the single point.  A callable
that returns no number raises one TypeError naming the function, the
callable and the point.
"""

import gc
import math
from fractions import Fraction

import numpy as np
import pytest

from fueterlab.classify import classify
from fueterlab.diffops import DiffConfig, StepError
from fueterlab.function_model import (_SAMPLE_ERRORS, DEFAULT_GRID, ComplexStem, QFunction,
                                      SampleGrid, cullen_extend, from_uv, sample_cartesian,
                                      sample_chart)
from fueterlab.generators import chiral_difference, get_witness
from fueterlab.quaternion_core import Quaternion, to_spherical

SMALL_GRID = SampleGrid(n_per_axis=2)

COEFFS = (Quaternion(0.25, -0.5, 0.75, 0.125), Quaternion(-0.625, 0.375, 0.5, -0.875),
          Quaternion(0.5, 0.25, -0.375, 0.625))


def _raw_polynomial(p):
    return COEFFS[0] + COEFFS[1] * p + COEFFS[2] * (p * p)


FUNCTIONS = {
    "from_uv": lambda: from_uv(lambda s: 1.5 * s.alpha - 0.25,
                               lambda s: 1.5 * math.log(math.tan(s.beta / 2.0)), name="uv-user"),
    "raw": lambda: QFunction("raw-user", _raw_polynomial),
}


def _collections() -> list:
    return [generation["collections"] for generation in gc.get_stats()]


@pytest.mark.parametrize("key", FUNCTIONS)
def test_default_grid_classify_runs_no_cyclic_collection(key):
    f = FUNCTIONS[key]()
    assert gc.isenabled()
    gc.collect()
    before = _collections()
    classify(f, DEFAULT_GRID, DiffConfig())
    ran = [after - start for after, start in zip(_collections(), before)]
    assert ran == [0] * len(ran)


# ---------------------------------------------------------------------------
# a step that rounds away propagates from every fill


FAR_Z_MESSAGE = "does not move the Cartesian coordinate 1000000000000.0"


def _step_error(*_):
    raise StepError("stencil step 1e-05 does not move the user's coordinate")


def test_a_step_error_is_no_sample_error():
    # the fills read these errors as a NaN sample; a StepError is none of them
    assert not issubclass(StepError, ValueError)
    assert not issubclass(StepError, _SAMPLE_ERRORS)


def test_a_step_error_at_a_pole_column_propagates():
    # x = y = 0: the column goes to the chiral difference's own evaluator,
    # whose inner stencil cannot move z = 1e12, as at the single point
    delta = chiral_difference(get_witness("pow:3").function)
    far = Quaternion(0.3, 0.0, 0.0, 1e12)
    with pytest.raises(StepError, match=FAR_Z_MESSAGE):
        delta(far)
    with pytest.raises(StepError, match=FAR_Z_MESSAGE):
        sample_cartesian(delta, np.array([[0.3], [0.0], [0.0], [1e12]]))
    # in a batch, one column of it among columns the step moves
    rows = np.array([[0.3, 0.3, -0.2], [0.6, 0.0, 0.5], [-0.4, 0.0, 0.5], [0.5, 1e12, 0.7]])
    with pytest.raises(StepError, match=FAR_Z_MESSAGE):
        sample_cartesian(delta, rows)
    assert np.isfinite(sample_cartesian(delta, rows[:, ::2])).all()


def test_a_step_error_propagates_from_every_fill():
    chart = DEFAULT_GRID.chart_array()[:, :5]
    with pytest.raises(StepError, match="the user's coordinate"):
        sample_chart(QFunction("raw-step", _step_error), chart)
    with pytest.raises(StepError, match="the user's coordinate"):
        sample_cartesian(QFunction("raw-step", _step_error), chart)
    with pytest.raises(StepError, match="the user's coordinate"):
        sample_chart(from_uv(lambda s: 1.0, _step_error), chart)
    with pytest.raises(StepError, match="the user's coordinate"):
        sample_chart(cullen_extend(ComplexStem.named("stem-step", _step_error)), chart)


# ---------------------------------------------------------------------------
# a user callable that returns no number


def _recording(returned):
    """ (a callable that records its first argument and returns returned, the record) """
    seen = []

    def call(arg):
        seen.append(arg)
        return returned
    return call, seen


@pytest.mark.parametrize("returned", (1.0, None))
def test_a_raw_evaluator_that_returns_no_quaternion_is_named(returned):
    evaluator, seen = _recording(returned)
    with pytest.raises(TypeError) as info:
        classify(QFunction("raw-bad", evaluator), SMALL_GRID, DiffConfig())
    assert str(info.value) == (f"raw-bad: the evaluator returned {returned!r} "
                               f"at {seen[0]!r}, not a Quaternion")


@pytest.mark.parametrize("returned", (None, 1j, "1.5"))
@pytest.mark.parametrize("which", ("u", "v"))
def test_a_scalar_field_that_returns_no_real_number_is_named(which, returned):
    bad, seen = _recording(returned)
    good = lambda s: 0.5 * s.alpha  # noqa: E731
    u, v = (bad, good) if which == "u" else (good, bad)
    with pytest.raises(TypeError) as info:
        classify(from_uv(u, v, name="uv-bad"), SMALL_GRID, DiffConfig())
    assert str(info.value) == (f"uv-bad: {which} returned {returned!r} "
                               f"at {seen[0]!r}, not a real number")


def test_a_stem_that_returns_no_number_is_named():
    stem, seen = _recording(None)
    with pytest.raises(TypeError) as info:
        classify(cullen_extend(ComplexStem.named("stem-bad", stem)), SMALL_GRID, DiffConfig())
    assert str(info.value) == f"stem-bad: the stem returned None at {seen[0]!r}, not a complex number"


def _type_error(call) -> str:
    with pytest.raises(TypeError) as info:
        call()
    return str(info.value)


ONE_POINT = Quaternion(0.3, 0.4, -0.5, 0.6)


@pytest.mark.parametrize("view", ("evaluator", "at_spherical"))
@pytest.mark.parametrize("returned", (None, 1j, "1.5"))
@pytest.mark.parametrize("which", ("u", "v"))
def test_one_point_names_a_scalar_field_that_returns_no_real_number(which, returned, view):
    # the single-point views raise the batch path's TypeError
    bad, _ = _recording(returned)
    good = lambda s: 0.5 * s.alpha  # noqa: E731
    f = from_uv(*((bad, good) if which == "u" else (good, bad)), name="uv-bad")
    s = to_spherical(ONE_POINT)
    one = (lambda: f(ONE_POINT)) if view == "evaluator" else (lambda: f.at_spherical(s))
    batch = _type_error(lambda: sample_chart(f, np.array(s).reshape(4, 1)))
    assert _type_error(one) == batch == (f"uv-bad: {which} returned {returned!r} "
                                         f"at {s!r}, not a real number")


@pytest.mark.parametrize("view", ("evaluator", "at_spherical"))
def test_one_point_names_a_stem_that_returns_no_number(view):
    f = cullen_extend(ComplexStem.named("stem-bad", lambda z: None))
    s = to_spherical(ONE_POINT)
    one = (lambda: f(ONE_POINT)) if view == "evaluator" else (lambda: f.at_spherical(s))
    batch = _type_error(lambda: sample_chart(f, np.array(s).reshape(4, 1)))
    assert _type_error(one) == batch == (f"stem-bad: the stem returned None at "
                                         f"{complex(s.t, s.r)!r}, not a complex number")


@pytest.mark.parametrize("u, v, u_float, v_float", (
    (lambda s: 2, lambda s: s.t > 0.0, lambda s: 2.0, lambda s: float(s.t > 0.0)),
    # no numpy dtype holds these, so they arrive as objects and are real numbers all the same
    (lambda s: Fraction(1, 3), lambda s: 2 ** 70, lambda s: 1 / 3, lambda s: float(2 ** 70)),
), ids=("int-bool", "fraction-bigint"))
def test_other_real_numbers_are_still_numbers(u, v, u_float, v_float):
    chart = SMALL_GRID.chart_array()
    assert sample_chart(from_uv(u, v), chart).tobytes() == sample_chart(from_uv(u_float, v_float), chart).tobytes()
    assert from_uv(u, v)(ONE_POINT) == from_uv(u_float, v_float)(ONE_POINT)
