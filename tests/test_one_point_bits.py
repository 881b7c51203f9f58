"""jacobian_check and the chiral evaluator keep their bits.

Both take one point as well as point rows.  These tests pin, as digests of
the result bytes recorded from the (4, N) path and the single-point path
as they stood before the two went through diffops' single-point path:

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
    ("pow:2", "central"): ("2a813d4ff7c39f52", "2d234290e5dee5b6"),
    ("pow:2", "richardson"): ("afa4a70d19ce1f41", "80cde2a3aa2199e7"),
    ("identity", "central"): ("75e2a6ca36fc0cc9", "751baae3977a799d"),
    ("identity", "richardson"): ("0775df2b7f5047cc", "ba9a2e44ba4647b1"),
    # rho does not depend on t: the t column, and with it both determinants, is 0
    ("rho", "central"): ("24ddaa4710480313", "81c611f35bff7949"),
    ("rho", "richardson"): ("24ddaa4710480313", "81c611f35bff7949"),
    ("L:3:1:0", "central"): ("73b015b3564db8f2", "c88732f9d98c919e"),
    ("L:3:1:0", "richardson"): ("f05b3e9c48990717", "20a0649eca6ab19c"),
    ("product:rho*pow:3", "central"): ("b81683bbe864f0f0", "609517e29a93a15d"),
    ("product:rho*pow:3", "richardson"): ("61defd5c03e9c0f7", "f00d2a293413b874"),
    ("mirror:pow:3", "central"): ("cd832379490f109e", "8bae64c96f26dba4"),
    ("mirror:pow:3", "richardson"): ("bda05b4532c09726", "389d07202a42f57a"),
    ("stem:log-tan", "central"): ("41798d9c02581d1e", "1f78bbe58dda83da"),
    ("stem:log-tan", "richardson"): ("345e52aed065ed78", "4bbfaee896b5386b"),
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
    "pow:3": "f4df6c807f86f82b",
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
