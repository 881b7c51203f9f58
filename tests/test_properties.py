"""Property tests for the quaternion algebra and the witness generator.

Hamilton's product is associative and the norm is multiplicative, and
every arithmetic result holds plain floats whatever real scalar it was
combined with.  A Laurent stem is analytic on the upper half plane away
from 0, so its sweep around the real axis is Class III and central
(Sudbery, 1979), and the sweep of its image under the extension
functional is left-regular (Gentili-Struppa, 2007).  Draws are
derandomized, so every run checks the same draws.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fueterlab.classify import classify
from fueterlab.function_model import ComplexStem, SampleGrid, cullen_extend
from fueterlab.generators import ci_extend_rinehart, rinehart_L
from fueterlab.quaternion_core import Quaternion

GRID = SampleGrid(n_per_axis=3)

unit = st.floats(-1.0, 1.0)
laurent_terms = st.lists(st.tuples(st.integers(-2, 4), st.builds(complex, unit, unit)),
                         min_size=1, max_size=3)


@settings(max_examples=10, derandomize=True, database=None, deadline=None)
@given(laurent_terms)
def test_random_laurent_stem_sweeps_to_class_iii_and_its_image_to_regular(terms):
    stem = ComplexStem.laurent(terms)
    sweep = classify(cullen_extend(stem), GRID)
    assert sweep.class_III.verdict == "pass", sweep.to_dict()
    assert sweep.centrality.verdict == "central", sweep.to_dict()
    image = classify(ci_extend_rinehart(rinehart_L(stem)), GRID)
    assert image.regular.verdict == "pass", image.to_dict()


finite = st.floats(-10.0, 10.0)
quaternions = st.builds(Quaternion, finite, finite, finite, finite)
scalars = st.one_of(st.integers(-5, 5), st.booleans(), finite, finite.map(np.float64))


def _components(q):
    return (q.t, q.x, q.y, q.z)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(quaternions, quaternions, quaternions, scalars)
def test_quaternion_arithmetic_is_float_associative_and_normed(p, q, w, s):
    results = [p + q, p - q, p * q, -p, p.conjugate(), p + s, p - s, p * s, s - p]
    if q.norm_sq() > 0.0:
        results += [q.inverse(), p / q]
    if s != 0:
        results.append(p / s)
    for value in results:
        assert all(type(c) is float for c in _components(value)), value
    scale = p.norm() * q.norm() * w.norm()
    assert ((p * q) * w - p * (q * w)).norm() <= 1e-12 * scale
    assert abs((p * q).norm() - p.norm() * q.norm()) <= 1e-12 * p.norm() * q.norm()
