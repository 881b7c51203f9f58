"""Property tests for the theory-backed witness generator.

A Laurent stem is analytic on the upper half plane away from 0, so its
sweep around the real axis is Class III and central (Sudbery, 1979), and
the sweep of its image under the extension functional is left-regular
(Gentili-Struppa, 2007).  Draws are derandomized, so every run checks the
same stems.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from fueterlab.classify import classify
from fueterlab.function_model import ComplexStem, SampleGrid, cullen_extend
from fueterlab.generators import ci_extend_rinehart, rinehart_L

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
    image = classify(ci_extend_rinehart(rinehart_L(stem), GRID), GRID)
    assert image.regular.verdict == "pass", image.to_dict()
