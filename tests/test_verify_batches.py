"""The verify-props checks that run on batches keep their numbers.

The sphere-direction Cauchy-Riemann check runs on the grid's open mesh,
and the slice extension condition is one batch through diffops.stencil.
Both are pinned here against values recorded from the materialized chart
rows and from the scalar form of the condition:

* spherical_cr_residuals of the five witnesses of check_spherical_cr on
  a 4^4 grid, under both schemes, as a digest of the result bytes, on the
  materialized rows and on the open mesh alike (the residuals difference
  each witness's (u, v) view, function_model.sample_uv);
* spherical_cr_residuals of every sweep, exactly 0.0 on both, and its
  refusal of a CE-declared function whose values leave the slice plane;
* the slice condition |dg/dx + i dg/dy - 2 Im(g)/y| against the scalar
  central difference written out below, at the (t, r) nodes of the
  default grid and at the samples of check_extension_functional;
* the errors of ci_extend_rinehart, word for word where they name a node.
"""

import dataclasses
import hashlib
import math

import numpy as np
import pytest

from fueterlab.diffops import DiffConfig, StepError, spherical_cr_residuals
from fueterlab.function_model import (DEFAULT_GRID, NAMED_STEMS, ComplexStem, QFunction,
                                      SampleGrid)
from fueterlab.generators import (ci_extend_rinehart, get_witness, resolve_function_spec,
                                  rinehart_L, rinehart_condition_residual)
from fueterlab.quaternion_core import DomainError, Quaternion
from fueterlab.verification import check_spherical_cr

CR_GRID = SampleGrid(n_per_axis=4)

# sha256 (first 16 hex digits) of the bytes of spherical_cr_residuals on
# CR_GRID.chart_array(), the (2, 256) rows (S1, S2), as recorded from the
# materialized chart rows; the open mesh gives the same bits.  A sweep's view
# ignores the angles, so both pow:2 digests are those of 512 zeros
SPHERE_CR_DIGESTS = {
    ("rho", "central"): "dca007d475e2068b",
    ("rho", "richardson"): "9a10f630744c4c07",
    ("varrho", "central"): "754b51902146c9ec",
    ("varrho", "richardson"): "a667df573aa9b358",
    ("sigma", "central"): "fb57a43549e07739",
    ("sigma", "richardson"): "9c70a7aaade2a123",
    ("pow:2", "central"): "ad7facb2586fc6e9",
    ("pow:2", "richardson"): "ad7facb2586fc6e9",
    ("x-over-r-iota", "central"): "4dfc93dc10d44a9c",
    ("x-over-r-iota", "richardson"): "41a705da6a88eccc",
}


def _digest(residuals) -> str:
    rows = np.array(residuals, dtype=float).reshape(2, -1)
    return hashlib.sha256(np.ascontiguousarray(rows).tobytes()).hexdigest()[:16]


@pytest.mark.parametrize("rows", ("chart_array", "mesh"))
@pytest.mark.parametrize("name, scheme", SPHERE_CR_DIGESTS)
def test_sphere_cr_residuals_keep_their_bits(name, scheme, rows):
    got = spherical_cr_residuals(get_witness(name).function, getattr(CR_GRID, rows)(),
                                 DiffConfig(scheme=scheme))
    assert _digest(got) == SPHERE_CR_DIGESTS[name, scheme]


def test_sphere_cr_check_keeps_its_numbers_on_the_default_mesh():
    # as recorded from the materialized default grid
    got = check_spherical_cr()
    assert (got.passed, got.max_residual, got.detail) == (
        True, 3.0054638777698983e-09, "counterexample witness residual 0.977")


SWEEPS = ("pow:-2", "pow:-1", "pow:0", "identity", "pow:2", "pow:3", "pow:4", "stem:log-tan",
          "stem:arctan", "stem:2:1:0,-1:0:0.5", "L:3:1:0", "L:-1:0.5:0,2:1:0.25", "L:log-tan")


@pytest.mark.parametrize("scheme", ("central", "richardson"))
@pytest.mark.parametrize("spec", SWEEPS)
def test_sphere_cr_residuals_of_a_sweep_are_exactly_zero(spec, scheme):
    # a sweep's (u, v) view reads the stem on the t and r rows alone, so the
    # angle stencils difference equal numbers
    f = resolve_function_spec(spec)
    for rows in (CR_GRID.chart_array(), CR_GRID.mesh()):
        got = np.array(spherical_cr_residuals(f, rows, DiffConfig(scheme=scheme)))
        assert got.shape == (2,) + np.broadcast(*rows).shape
        assert not got.any(), rows


def test_sphere_cr_residuals_refuse_values_off_the_slice_plane():
    # the skew function of test_laurent.py: CE by declaration, its values k
    # leave the plane (1, iota) wherever iota is not k
    skew = QFunction("skew", lambda p: Quaternion(0.0, 0.0, 0.0, 1.0), kind="CE")
    for rows in (CR_GRID.chart_array(), CR_GRID.mesh()):
        with pytest.raises(DomainError, match=r"^skew: values leave the slice plane, by "
                                              r"3\.894e-01, at \(t, r, alpha, beta\) = "
                                              r"\(-1\.0, 0\.5, -2\.49999, 0\.4\)$"):
            spherical_cr_residuals(skew, rows)
    # a raw function is projected as it is
    spherical_cr_residuals(dataclasses.replace(skew, kind="raw"), CR_GRID.mesh())


def _scalar_condition(g: ComplexStem, z: complex, h: float = 1e-6) -> float:
    """ the slice condition residual by scalar central differences of step h """
    wx = (g.eval(z + h) - g.eval(z - h)) / (2.0 * h)
    wy = (g.eval(z + h * 1j) - g.eval(z - h * 1j)) / (2.0 * h)
    return abs(wx + 1j * wy - 2.0 * g.eval(z).imag / z.imag)


def _grid_nodes() -> list:
    ts, rs, _, _ = DEFAULT_GRID.axes()
    return [complex(t, r) for t in ts for r in rs]


# the samples of check_extension_functional
CHECK_SAMPLES = [complex(x * 0.3 - 0.9, 0.5 + y * 0.25) for x in range(7) for y in range(5)]

STEMS = {f"z^{n}": ComplexStem.laurent([(n, 1.0)]) for n in (1, 2, 3, 4, -1)}
STEMS["log-tan"] = NAMED_STEMS["log-tan"]


@pytest.mark.parametrize("where", ("grid-nodes", "check-samples"))
@pytest.mark.parametrize("stem", STEMS)
def test_condition_residual_agrees_with_the_scalar_formula(stem, where):
    g = rinehart_L(STEMS[stem])
    for z in _grid_nodes() if where == "grid-nodes" else CHECK_SAMPLES:
        assert abs(rinehart_condition_residual(g, z) - _scalar_condition(g, z)) <= 1e-8, z


def test_condition_residual_keeps_the_shape_of_z():
    g = rinehart_L(STEMS["z^3"])
    assert type(rinehart_condition_residual(g, 0.4 + 0.8j)) is float
    z = np.array(CHECK_SAMPLES).reshape(5, 7)
    got = rinehart_condition_residual(g, z)
    assert got.shape == (5, 7)
    assert got[2, 3] == rinehart_condition_residual(g, z[2, 3])


def test_condition_residual_refuses_a_step_that_rounds_away():
    g = rinehart_L(STEMS["z^3"])
    with pytest.raises(StepError, match="does not move the slice coordinate 1e\\+16"):
        rinehart_condition_residual(g, complex(1e16, 1.0))


def test_condition_residual_is_nan_next_to_the_domain_edge():
    # the stencil sample at Im z - 1e-6 leaves the upper half plane
    g = rinehart_L(STEMS["z^3"])
    assert math.isnan(rinehart_condition_residual(g, complex(0.3, 5e-7)))


def test_a_violation_names_the_first_node_and_its_numbers():
    with pytest.raises(DomainError) as info:
        ci_extend_rinehart(ComplexStem.laurent([(2, 1.0)]))
    assert str(info.value) == ("'stem:2:1:0' violates the slice extension condition at "
                               "(-1+0.5j): residual 4.000e+00 > 2.250e-06")


def test_no_admissible_node_is_named():
    nowhere = ComplexStem.named("nowhere", lambda z: z, lambda z: 1.0, domain_ok=lambda z: False)
    with pytest.raises(DomainError) as info:
        ci_extend_rinehart(nowhere)
    assert str(info.value) == "no admissible (t, r) samples for 'nowhere' on the grid"


def test_a_stem_that_fails_next_to_an_admissible_node_is_refused():
    # r = 0.5 is the lowest r node of the default grid: the node is in the
    # domain, its stencil sample at r - 1e-6 is not
    cut = ComplexStem.named("cut", lambda z: z ** 3, lambda z: 3.0 * z * z,
                            domain_ok=lambda z: z.imag >= 0.5)
    with pytest.raises(DomainError, match="L:cut"):
        ci_extend_rinehart(rinehart_L(cut))


def test_a_stem_without_finite_values_is_refused():
    # a NaN residual must not read as a pass
    nan = ComplexStem.named("nan", lambda z: complex(math.nan, 0.0), lambda z: 0j)
    with pytest.raises(DomainError) as info:
        ci_extend_rinehart(nan)
    assert str(info.value) == ("'nan': no finite slice extension condition residual at "
                               "(-1+0.5j) (the stem fails at or next to it)")


def test_a_stem_that_raises_inside_its_domain_is_refused():
    def func(z):
        if z.real > 0.5:
            raise ZeroDivisionError("user stem")
        return z ** 3

    broken = ComplexStem.named("broken", func, lambda z: 3.0 * z * z)
    with pytest.raises(DomainError, match="'L:broken': no finite slice extension condition "
                                          "residual at \\(0.71428"):
        ci_extend_rinehart(rinehart_L(broken))
