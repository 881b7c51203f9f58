"""The samplers on broadcast rows: an open mesh gives the values of the
materialized points, bit for bit.

classify samples four rows that broadcast together instead of a (4, N)
array: a grid's open mesh through sample_chart, and the mesh's Cartesian
rows and their stencil shifts through sample_cartesian.  Each must give
the same value rows as on the materialized (4, N) rows: the same floats,
NaN in the same places, and no numpy warning.  The user callables behind
the per-point paths must see the same points, in the same order, the same
number of times.
"""

import dataclasses
import functools
import hashlib
import math
import struct
import warnings

import numpy as np
import pytest

from fueterlab import diffops
from fueterlab.classify import classify, jacobian_check
from fueterlab.diffops import DiffConfig, StepError
from fueterlab.function_model import (DEFAULT_GRID, ComplexStem, QFunction, SampleGrid,
                                      cullen_extend, from_uv, pointwise_product, pointwise_sum,
                                      sample_cartesian, sample_chart)
from fueterlab.generators import chiral_difference, get_witness, mirror, resolve_function_spec
from fueterlab.quaternion_core import (ChartSingularityError, DomainError, Quaternion,
                                       SphericalPoint, from_spherical_array, from_spherical_rows)
from fueterlab.verification import conjugate_function, random_polynomial

# axis values that reach every off-domain case: t < -1/2 (where the user v
# below raises), the real axis and a near-zero r, a signed zero azimuth, the
# pole beta = 0 and the artanh ridge of varrho at alpha = 0, beta = pi/2
AXES = (np.array([-0.75, -0.0, 0.3, 0.9]),
        np.array([0.0, 1e-13, 0.7, 1.4]),
        np.array([-2.5, -0.0, 0.5, math.pi / 2]),
        np.array([0.0, 0.8, math.pi / 2, 2.6]))


def _mesh():
    return np.ix_(*AXES)


def _shifted_mesh():
    """ the mesh with its alpha row shifted as a stencil does: a leading (1, 2) axis """
    t, r, alpha, beta = _mesh()
    return t, r, alpha + np.array([1e-3, -1e-3]).reshape(1, 2, 1, 1, 1, 1), beta


def _materialized(rows) -> np.ndarray:
    return np.stack(np.broadcast_arrays(*rows))


def _user_v(s):
    return math.sqrt(s.t + 0.5) * math.log(math.tan(s.beta / 2.0))


def _user_stem(z):
    return z * z - 0.5j / z


def _witness(name):
    return get_witness(name).function


MAKERS = {
    "from_uv": lambda: _witness("rho"),
    "from_uv-varrho": lambda: _witness("varrho"),
    "from_uv-without-uv_array": lambda: from_uv(lambda s: 1.5 * s.alpha - 0.25, _user_v),
    "cullen-func_array": lambda: _witness("pow:-2"),
    "cullen-scalar-stem": lambda: cullen_extend(ComplexStem.named("user", _user_stem)),
    "cullen-named-stem": lambda: cullen_extend(ComplexStem.named(
        "log-tan-user", lambda z: math.log(abs(z)) + 1j * math.atan2(z.imag, z.real))),
    "product": lambda: pointwise_product(_witness("sigma"), _witness("pow:3")),
    "sum": lambda: pointwise_sum(_witness("x-over-r-iota"), _witness("pow:-1")),
    "mirror": lambda: mirror(_witness("rho")),
    "conjugate": lambda: conjugate_function(_witness("varrho")),
    "random_polynomial": lambda: random_polynomial(np.random.default_rng(11)),
    "chiral_difference": lambda: chiral_difference(_witness("rho")),
}


def _evaluate(f, rows) -> np.ndarray:
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return sample_chart(f, rows)


def _assert_same_floats(got, want):
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(np.where(nan, 0.0, got).view(np.int64),
                          np.where(nan, 0.0, want).view(np.int64))


@pytest.mark.parametrize("rows", (_mesh, _shifted_mesh), ids=("mesh", "shifted"))
@pytest.mark.parametrize("name", MAKERS)
def test_open_mesh_equals_materialized_rows(name, rows):
    f = MAKERS[name]()
    mesh = rows()
    full = _materialized(mesh)
    got = _evaluate(f, mesh)
    want = _evaluate(f, full.reshape(4, -1)).reshape(full.shape)
    _assert_same_floats(got, want)


@pytest.mark.parametrize("rows", (_mesh, _shifted_mesh), ids=("mesh", "shifted"))
@pytest.mark.parametrize("name", MAKERS)
def test_cartesian_open_mesh_equals_materialized_rows(name, rows):
    # the Cartesian rows of the mesh keep t on its own axis and x, y, z
    # without it; the columns on the k axis (beta = 0) are no special case
    f = MAKERS[name]()
    points = from_spherical_rows(rows())
    full = _materialized(points)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = sample_cartesian(f, points)
        want = sample_cartesian(f, full.reshape(4, -1)).reshape(full.shape)
    _assert_same_floats(got, want)


def test_the_axes_reach_off_domain_points():
    full = _materialized(_mesh()).reshape(4, -1)
    for name in ("from_uv-without-uv_array", "cullen-func_array", "from_uv-varrho"):
        values = _evaluate(MAKERS[name](), full)
        assert np.isnan(values).any(), name
        assert np.isfinite(values).any(), name


def test_grid_mesh_materializes_to_chart_array():
    grid = SampleGrid(n_per_axis=5)
    mesh = grid.mesh()
    assert [row.shape for row in mesh] == [(5, 1, 1, 1), (1, 5, 1, 1), (1, 1, 5, 1), (1, 1, 1, 5)]
    _assert_same_floats(_materialized(mesh).reshape(4, -1), grid.chart_array())


class CallLog:
    """ the count and a digest of the arguments of every user call, in order """

    def __init__(self):
        self.calls = 0
        self._digest = hashlib.sha256()

    def add(self, *numbers):
        self.calls += 1
        self._digest.update(struct.pack(f"{len(numbers)}d", *numbers))

    def digest(self) -> str:
        return self._digest.hexdigest()[:16]


def _user_function(kind, log):
    if kind == "raw":
        def evaluator(p):
            log.add(p.t, p.x, p.y, p.z)
            return p * p + Quaternion(0.5, -0.25, 0.125, 1.0)
        return QFunction("raw", evaluator)
    if kind == "uv":
        def u(s):
            log.add(*s)
            return 1.5 * s.alpha - 0.25

        def v(s):
            log.add(*s)
            return _user_v(s)
        return from_uv(u, v, name="uv")
    if kind == "stem":
        def stem(z):
            log.add(z.real, z.imag)
            return _user_stem(z)
        return cullen_extend(ComplexStem.named("user", stem))
    if kind == "product":
        return pointwise_product(_user_function("raw", log), _witness("rho"))
    return mirror(_user_function("uv", log))


# (calls, digest of the call arguments in order) of a 4^4 classify, as
# recorded once classify took its r, alpha and beta partials from the
# Cartesian stencil by the chain rule: the center and the t, x, y, z
# stencils, 9 points a node under central and 17 under Richardson (a
# from_uv point calls u and v, and a stem is called once per distinct t + i r);
# the mirror's stencil samples call its input at the conjugate points
USER_CALLS = {
    ("raw", "central"): (2304, "719647f147b280d5"),
    ("raw", "richardson"): (4352, "3652ac1cf00632ae"),
    ("uv", "central"): (4608, "221991be54a10e1e"),
    ("uv", "richardson"): (8704, "cda5fe7c71f376df"),
    ("stem", "central"): (516, "430c06ab91806fd2"),
    ("stem", "richardson"): (1028, "0a3e48b61b9da227"),
    ("product", "central"): (2304, "719647f147b280d5"),
    ("product", "richardson"): (4352, "3652ac1cf00632ae"),
    ("mirror", "central"): (4608, "177b89a408d6e18e"),
    ("mirror", "richardson"): (8704, "bf2bf894f296fb6b"),
}


@pytest.mark.parametrize("kind, scheme", USER_CALLS)
def test_user_callables_see_the_same_calls(kind, scheme):
    log = CallLog()
    classify(_user_function(kind, log), SampleGrid(n_per_axis=4), DiffConfig(scheme=scheme))
    assert (log.calls, log.digest()) == USER_CALLS[kind, scheme]


@pytest.mark.parametrize("scheme", ("central", "richardson"))
def test_a_composite_samples_a_library_input_through_its_array_view(scheme):
    # only the user's own evaluator runs point by point: rho's scalar
    # evaluator is never called, inside a product with a user function too
    log, rho_calls = CallLog(), []
    rho = _witness("rho")

    def counted(p):
        rho_calls.append(p)
        return rho.evaluator(p)

    counted_rho = dataclasses.replace(rho, evaluator=counted)
    classify(pointwise_product(_user_function("raw", log), counted_rho),
             SampleGrid(n_per_axis=4), DiffConfig(scheme=scheme))
    assert len(rho_calls) == 0
    assert (log.calls, log.digest()) == USER_CALLS["product", scheme]


@pytest.mark.parametrize("scheme", ("central", "richardson"))
def test_classify_maps_cartesian_stencils_once_per_point(scheme):
    # a Cartesian stencil shifts x, y or z, which t does not reach, so the
    # x, y and z rows the Cartesian view gets, and the r, alpha and beta rows
    # it maps them to, hold n_off * n**3 values at most
    sizes = []
    rho = _witness("rho")

    def recording(points):
        sizes.append(max(np.size(row) for row in points[1:]))
        return rho.cartesian_array(points)

    cfg, n = DiffConfig(scheme=scheme), DEFAULT_GRID.n_per_axis
    classify(dataclasses.replace(rho, cartesian_array=recording), DEFAULT_GRID, cfg)
    assert sizes and max(sizes) <= len(diffops.stencil_offsets(cfg)) * n ** 3


def _scalar_random_chart(grid, rng, n):
    """ the chart rows of 4 n scalar draws, coordinate by coordinate """
    ranges = (grid.t_range, grid.r_range, grid.alpha_range, grid.beta_range)
    return np.array([[rng.uniform(*rg) for rg in ranges] for _ in range(n)]).reshape(n, 4).T


@pytest.mark.parametrize("n", (0, 1, 200))
def test_random_chart_draws_the_scalar_loop_numbers(n):
    grid = SampleGrid()
    rng, reference = np.random.default_rng(20261018), np.random.default_rng(20261018)
    _assert_same_floats(grid.random_chart(rng, n), _scalar_random_chart(grid, reference, n))
    assert rng.uniform() == reference.uniform()


CARTESIAN_OPERATORS = ("fueter_left", "fueter_right")
CHART_OPERATORS = ("class1_residual", "imaginary_derivative", "fueter_spherical",
                   "spherical_cr_residuals")


def _flat_result(out) -> np.ndarray:
    """ an operator result as one float array: value rows, then the error estimate """
    if isinstance(out, tuple):
        return np.array(out, dtype=float)
    value = out.value
    if isinstance(value, Quaternion):
        value = np.array((value.t, value.x, value.y, value.z))
    return np.concatenate((value, np.reshape(out.estimated_error, (1,) + np.shape(value)[1:])))


# catalog witnesses, and stems with complex coefficients, whose arithmetic
# numpy may run on another path for a 0-d array than for an array
ONE_POINT_SPECS = ("rho", "pow:3", "x-over-r-iota", "L:-2:0.5:-0.3,1:1:0,3:0.2:0.7",
                   "stem:-2:0.215:0.534,1:0.392:-0.467,3:0.604:0.182")


@pytest.mark.parametrize("scheme", ("central", "richardson"))
@pytest.mark.parametrize("name", CARTESIAN_OPERATORS + CHART_OPERATORS)
def test_one_point_gives_its_batch_column(name, scheme):
    # a single point runs as the batch of shape (): the floats of its column
    op, cfg = getattr(diffops, name), DiffConfig(scheme=scheme)
    chart = DEFAULT_GRID.random_chart(np.random.default_rng(62), 6)
    rows = from_spherical_array(chart) if name in CARTESIAN_OPERATORS else chart
    point = Quaternion if name in CARTESIAN_OPERATORS else SphericalPoint
    for f in map(resolve_function_spec, ONE_POINT_SPECS):
        batch = _flat_result(op(f, rows, cfg))
        for k in range(rows.shape[1]):
            _assert_same_floats(_flat_result(op(f, point(*rows[:, k].tolist()), cfg)), batch[:, k])


def test_one_point_errors_name_the_point():
    holey = QFunction("holey", lambda p: Quaternion(1.0 / p.t), kind="raw")
    with pytest.raises(DomainError, match=r"holey: no finite value at \(1e-05, 0.3, 0.2, 0.1\)"):
        diffops.fueter_left(holey, Quaternion(1e-5, 0.3, 0.2, 0.1))
    with pytest.raises(ChartSingularityError, match=r"\(0.0, 1.0, 0.3, 3.14\)"):
        diffops.spherical_cr_residuals(_witness("rho"), SphericalPoint(0.0, 1.0, 0.3, 3.14))


# every single-point entry by the name its TypeError gives, with the kind
# of point it does not read; a chiral evaluator is the function chiral:rho
WRONG_KIND = dict.fromkeys(CARTESIAN_OPERATORS + ("jacobian_check", "chiral:rho"),
                           SphericalPoint(0.3, 0.9, 0.7, 1.1))
WRONG_KIND.update(dict.fromkeys(CHART_OPERATORS, Quaternion(0.3, 0.9, 0.7, 1.1)))


@pytest.mark.parametrize("name", WRONG_KIND)
def test_one_point_of_the_other_kind_is_refused(name):
    # a SphericalPoint was read as the quaternion 0.3 + 0.9i + 0.7j + 1.1k,
    # and a Quaternion as the chart point (t, r, alpha, beta)
    rho, point = _witness("rho"), WRONG_KIND[name]
    if name == "jacobian_check":
        call = functools.partial(jacobian_check, rho, point)
    elif name == "chiral:rho":
        call = functools.partial(chiral_difference(rho), point)
    else:
        call = functools.partial(getattr(diffops, name), rho, point)
    with pytest.raises(TypeError) as info:
        call()
    assert str(info.value).startswith(f"{name} ")
    assert repr(point) in str(info.value)


def _raw_polynomial(p):
    return p * p * Quaternion(0.25, -1.0, 0.5, 2.0) + p


# a catalog witness, a sweep, and raw polynomials with and without an array view
MESH_OPERATOR_FUNCTIONS = {
    "rho": lambda: _witness("rho"),
    "pow:3": lambda: _witness("pow:3"),
    "random_polynomial": lambda: random_polynomial(np.random.default_rng(19)),
    "raw": lambda: QFunction("raw", _raw_polynomial),
}


@pytest.mark.parametrize("scheme", ("central", "richardson"))
@pytest.mark.parametrize("fn", MESH_OPERATOR_FUNCTIONS)
@pytest.mark.parametrize("name", CARTESIAN_OPERATORS + CHART_OPERATORS)
def test_operators_on_a_grid_mesh_give_the_materialized_results(name, fn, scheme):
    # the chart operators take the grid's open mesh, the Cartesian ones its
    # Cartesian rows; each result is the (4, N) one, reshaped, bit for bit
    op, cfg, grid = getattr(diffops, name), DiffConfig(scheme=scheme), SampleGrid(n_per_axis=4)
    f, mesh, chart = MESH_OPERATOR_FUNCTIONS[fn](), grid.mesh(), grid.chart_array()
    if name in CARTESIAN_OPERATORS:
        mesh, chart = from_spherical_rows(mesh), from_spherical_array(chart)
    got, want = _flat_result(op(f, mesh, cfg)), _flat_result(op(f, chart, cfg))
    assert got.shape == (len(want),) + (grid.n_per_axis,) * 4
    _assert_same_floats(got.reshape(len(want), -1), want)


# t, r and alpha axes of a mesh whose last beta value is too near the pole
# for a chart stencil, and whose x = r cos(alpha) sin(beta) turns negative
POLE_AXES = (np.array([-0.4, 0.6]), np.array([0.5, 1.2]),
             np.array([-0.3, 1.1, 2.6]), np.array([0.6, 1.9, 0.005]))


def _holey(p):
    return Quaternion(math.sqrt(p.x), p.t, 0.0, 0.0)  # ValueError where x < 0


@pytest.mark.parametrize("scheme", ("central", "richardson"))
@pytest.mark.parametrize("fn", MESH_OPERATOR_FUNCTIONS)
def test_jacobian_check_on_a_mesh_gives_the_materialized_results(fn, scheme):
    # the Cartesian rows of a grid's open mesh, and a (4, 9, 9) array, give
    # the (4, N) results reshaped, bit for bit
    f, cfg, grid = MESH_OPERATOR_FUNCTIONS[fn](), DiffConfig(scheme=scheme), SampleGrid(n_per_axis=3)
    flat = jacobian_check(f, from_spherical_array(grid.chart_array()), cfg)
    for rows, shape in ((from_spherical_rows(grid.mesh()), (3,) * 4),
                        (from_spherical_array(grid.chart_array()).reshape(4, 9, 9), (9, 9))):
        got = jacobian_check(f, rows, cfg)
        assert got.advisory == flat.advisory
        for name in ("det_numeric", "det_formula"):
            assert getattr(got, name).shape == shape
            _assert_same_floats(getattr(got, name).reshape(-1), getattr(flat, name))


# a mesh with a node on the real axis (r = 0), and one with t = 1e12, which
# a step of 1e-5 does not move
JACOBIAN_ERROR_AXES = {
    "real axis": ((DomainError, "undefined on the real axis"),
                  (np.array([-0.4, 0.6]), np.array([0.5, 0.0]), np.array([-0.3, 1.1]),
                   np.array([0.6, 1.9]))),
    "step": ((StepError, "does not move the Cartesian coordinate 1000000000000.0"),
             (np.array([0.6, 1e12]), np.array([0.5, 1.2]), np.array([-0.3, 1.1]),
              np.array([0.6, 1.9]))),
}


@pytest.mark.parametrize("case", JACOBIAN_ERROR_AXES)
def test_jacobian_check_errors_name_the_same_point_on_a_mesh(case):
    (error, text), axes = JACOBIAN_ERROR_AXES[case]
    mesh = from_spherical_rows(np.ix_(*axes))
    rows = _materialized(mesh).reshape(4, -1)

    def message(points):
        with pytest.raises(error, match=text) as info:
            jacobian_check(_witness("pow:2"), points)
        return str(info.value)

    assert message(mesh) == message(rows)
    if case == "real axis":
        # the first node with r = 0 in beta-fastest order is node 4
        assert message(mesh).endswith(f"{tuple(rows[:, 4].tolist())}")


@pytest.mark.parametrize("name", CARTESIAN_OPERATORS + CHART_OPERATORS)
def test_operator_errors_name_the_same_point_on_a_mesh(name):
    op, holey = getattr(diffops, name), QFunction("holey", _holey)
    mesh = np.ix_(*POLE_AXES)
    if name in CARTESIAN_OPERATORS:
        # x < 0 first at alpha = 2.6, beta = 0.6: point 6 in beta-fastest order
        mesh, error, first = from_spherical_rows(mesh), DomainError, 6
    else:
        # the chart margins fail first at beta = 0.005: point 2
        error, first = ChartSingularityError, 2
    rows = _materialized(mesh).reshape(4, -1)

    def message(points):
        with pytest.raises(error) as info:
            op(holey, points, DiffConfig())
        return str(info.value)

    assert message(mesh) == message(rows)
    assert f"{tuple(rows[:, first].tolist())}" in message(mesh)
