"""Property tests for the quaternion algebra and the witness generator.

Hamilton's product is associative and the norm is multiplicative, and
every arithmetic result holds plain floats whatever real scalar it was
combined with.  A Laurent stem is analytic on the upper half plane away
from 0, so its sweep around the real axis is Class III and central
(Sudbery, 1979), and the sweep of its image under the extension
functional is left-regular (Gentili-Struppa, 2007).  A rotation of the
imaginary frame, g(p) = q f(q* p q) q*, keeps classify's verdicts, since
the Fueter operators are covariant under it (Sudbery, 1979).  Draws are
derandomized, so every run checks the same draws.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fueterlab.classify import classify
from fueterlab.diffops import DiffConfig
from fueterlab.function_model import ComplexStem, QFunction, SampleGrid, cullen_extend
from fueterlab.generators import ci_extend_rinehart, resolve_function_spec, rinehart_L
from fueterlab.quaternion_core import Quaternion

GRID = SampleGrid(n_per_axis=3)
ROTATION_GRID = SampleGrid(n_per_axis=4)

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


# A spec from the CLI grammar without chiral:, whose nested differences are
# another matter, and with moderate coefficients
coefficient = st.sampled_from((0.25, -0.5, 1.0, -1.5, 2.0))
term = st.builds("{}:{!r}:{!r}".format, st.integers(-2, 3), coefficient, coefficient)
stem_label = st.one_of(st.sampled_from(("log-tan", "arctan")),
                       st.lists(term, min_size=1, max_size=2).map(",".join))
angle_witness = st.sampled_from(("rho", "varrho", "sigma", "x-over-r-iota"))
base = st.one_of(angle_witness, st.just("identity"), st.integers(-2, 4).map("pow:{}".format),
                 stem_label.map("stem:{}".format))
grammar_spec = st.one_of(base, stem_label.map("L:{}".format), base.map("mirror:{}".format),
                         st.builds("product:{}*{}".format, base, base),
                         st.builds("sum:{}+{}".format, base, base))
# every sweep is all but its own rotation, so half the draws hold an angle witness
not_a_sweep = st.one_of(angle_witness, angle_witness.map("mirror:{}".format),
                        st.builds("product:{}*{}".format, angle_witness, base),
                        st.builds("sum:{}+{}".format, base, angle_witness))
unit_quaternion = st.tuples(unit, unit, unit, unit).filter(
    lambda c: sum(x * x for x in c) > 0.01).map(lambda c: Quaternion(*c) / Quaternion(*c).norm())
VERDICTS = ("class_I", "class_II", "class_III", "regular", "centrality")


@settings(max_examples=10, derandomize=True, database=None, deadline=None)
@given(st.one_of(not_a_sweep, grammar_spec), unit_quaternion)
def test_a_rotation_of_the_imaginary_frame_keeps_the_verdicts(spec, q):
    # g(p) = q f(q* p q) q*: conjugation by q rotates i, j and k, so the Fueter
    # operators are covariant (Sudbery, 1979), u and v keep their values and
    # iota turns with the point.  Both are built from the evaluator alone, with
    # f's kind, so both are sampled point by point alike; under Richardson the
    # truncation error stays clear of the tolerances
    f = resolve_function_spec(spec)
    qc = q.conjugate()
    plain = QFunction(f.name, f.evaluator, kind=f.kind)
    turned = QFunction(f"turned:{f.name}", lambda p: q * f.evaluator(qc * p * q) * qc, kind=f.kind)
    cfg = DiffConfig(scheme="richardson")
    want, got = classify(plain, ROTATION_GRID, cfg), classify(turned, ROTATION_GRID, cfg)
    assert [getattr(got, key).verdict for key in VERDICTS] == \
        [getattr(want, key).verdict for key in VERDICTS], (got.to_dict(), want.to_dict())
