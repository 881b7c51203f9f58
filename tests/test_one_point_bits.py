"""jacobian_check and the chiral evaluator keep their bits.

Both take one point as well as point rows.  These tests pin, as digests of
the result bytes recorded from the (4, N) path and the single-point path
as they stood before the two went through diffops' single-point path (the
digests of sweeps and of their composites, and of chiral:pow:3, re-recorded
since, once a sweep's Cartesian samples read its evaluator's formula
instead of a round trip through the chart):

* det_numeric and det_formula of jacobian_check on 300 seeded default-grid
  points, for seven specs under both schemes, and at nine single
  Quaternions each, whose results are Python floats;
* the chiral evaluator of rho, pow:3 and varrho at fourteen single points
  each, whose results are Quaternions;
* the DomainError texts of both at a point where the function has no
  finite value, for one point and for a batch.
"""

import hashlib
import struct

import numpy as np
import pytest

from fueterlab.classify import jacobian_check
from fueterlab.diffops import DiffConfig, fueter_left
from fueterlab.function_model import DEFAULT_GRID, QFunction
from fueterlab.generators import chiral_difference, resolve_function_spec
from fueterlab.quaternion_core import DomainError, Quaternion, from_spherical_array

POINTS = from_spherical_array(DEFAULT_GRID.random_chart(np.random.default_rng(2020), 300))
SINGLE = [Quaternion(*POINTS[:, k].tolist()) for k in range(9)]


def _digest(*numbers) -> str:
    return hashlib.sha256(struct.pack(f"{len(numbers)}d", *numbers)).hexdigest()[:16]


# (spec, scheme): (digest of det_numeric then det_formula on POINTS,
# digest of (det_numeric, det_formula) at each point of SINGLE in turn)
JACOBIAN_DIGESTS = {
    ("pow:2", "central"): ("747fa0fcb5427359", "571ebc35b730eb21"),
    ("pow:2", "richardson"): ("cdd59ae3788267af", "cc554d82e4d3596a"),
    ("identity", "central"): ("8cd9a0a6cf49ec5f", "c841498209191a83"),
    ("identity", "richardson"): ("53145e0115cfbc54", "3722f3ce3daf0928"),
    # rho does not depend on t: the t column, and with it both determinants, is 0
    ("rho", "central"): ("24ddaa4710480313", "81c611f35bff7949"),
    ("rho", "richardson"): ("24ddaa4710480313", "81c611f35bff7949"),
    ("L:3:1:0", "central"): ("e97cf40389acca37", "19e073ef3e103067"),
    ("L:3:1:0", "richardson"): ("20f8fa79c6fa8d83", "ee4c979bef164e1c"),
    ("product:rho*pow:3", "central"): ("f3ba37161b2664e0", "fe37562cc8d59949"),
    ("product:rho*pow:3", "richardson"): ("08a31633709b042c", "dd51619964623091"),
    ("mirror:pow:3", "central"): ("0e3d31d3a0f9140f", "861dc635e981d0aa"),
    ("mirror:pow:3", "richardson"): ("40ca8d4ec4673342", "bcfec65b42900c72"),
    ("stem:log-tan", "central"): ("1bd7a38495cfa548", "1a7064c21374b3a6"),
    ("stem:log-tan", "richardson"): ("e94c39bb88cec049", "fb9ef59c99e2a192"),
}


def _jacobian_digests(spec, scheme) -> tuple:
    f, cfg = resolve_function_spec(spec), DiffConfig(scheme=scheme)
    res = jacobian_check(f, POINTS, cfg)
    batch = _digest(*res.det_numeric.tolist(), *res.det_formula.tolist())
    singles = []
    for p in SINGLE:
        one = jacobian_check(f, p, cfg)
        assert type(one.det_numeric) is float and type(one.det_formula) is float
        singles += [one.det_numeric, one.det_formula]
    return batch, _digest(*singles)


@pytest.mark.parametrize("spec, scheme", JACOBIAN_DIGESTS)
def test_jacobian_check_keeps_its_bits(spec, scheme):
    assert _jacobian_digests(spec, scheme) == JACOBIAN_DIGESTS[spec, scheme]


# digest of the components of the chiral evaluator at the first 14 POINTS
CHIRAL_DIGESTS = {
    "rho": "da9cb04db883e708",
    "pow:3": "d7e3f070ca9b3313",
    "varrho": "ff38efc135d93fda",
}


@pytest.mark.parametrize("name", CHIRAL_DIGESTS)
def test_chiral_evaluator_keeps_its_bits(name):
    delta = chiral_difference(resolve_function_spec(name))
    components = []
    for k in range(14):
        q = delta(Quaternion(*POINTS[:, k].tolist()))
        assert type(q) is Quaternion
        components += [q.t, q.x, q.y, q.z]
    assert _digest(*components) == CHIRAL_DIGESTS[name]


def _error(call) -> str:
    with pytest.raises(DomainError) as info:
        call()
    return str(info.value)


def test_jacobian_check_names_the_point_without_a_finite_value():
    # the t stencil of t = 1e-5 reaches t = 0, where 1 / t raises
    holey = QFunction("holey", lambda p: Quaternion(1.0 / p.t), kind="raw")
    rows = np.array([[0.5, 1e-5, -0.5], [0.3] * 3, [0.2] * 3, [0.1] * 3])
    message = "holey: no finite value at (1e-05, 0.3, 0.2, 0.1)"
    assert _error(lambda: jacobian_check(holey, Quaternion(*rows[:, 1].tolist()))) == message
    assert _error(lambda: jacobian_check(holey, rows)) == message


def test_chiral_evaluator_names_the_point_without_a_finite_value():
    # on the k axis the z stencil reaches beta = 0, where rho's log(tan(beta / 2)) raises
    delta = chiral_difference(resolve_function_spec("rho"))
    message = "chiral:rho: no finite value at (0.3, 0.0, 0.0, 0.5)"
    assert _error(lambda: delta(Quaternion(0.3, 0.0, 0.0, 0.5))) == message
    rows = np.array([[0.2, 0.3], [0.4, 0.0], [0.1, 0.0], [0.6, 0.5]])
    assert _error(lambda: fueter_left(delta, rows)) == message
