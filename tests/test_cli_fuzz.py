"""Derandomized fuzz of the command line, in process, with warnings as errors.

Argvs are drawn from the spec grammar (catalog names, pow:n, stem: and L:
terms, named stems, mirror:, chiral:rho, product: and sum:) with numbers
from the float edges (0, the smallest subnormal, the roots of the float
maximum, 1e200, the float maximum) as well as ordinary ones, and from each
flag's range, steps that round away included.  Whatever is drawn:

* the exit status is 0, 1 or 2, and no Python warning escapes;
* exit 2 prints no traceback and no report, and its stderr is one error:
  line unless argparse printed its usage;
* exit 0 or 1 prints a JSON report in which every max, mean and
  max_residual next to a verdict other than singular or not-CE is finite;
* a rerun prints the same bytes apart from the timestamp.

classify grids keep n <= 3 and laurent runs 16 or 32 quadrature points on
orders -3..3, mostly on the default annulus, so that many draws get as far
as a report.
"""

import contextlib
import io
import json
import math
import re
import warnings

from hypothesis import example, given, settings
from hypothesis import strategies as st

from fueterlab.cli import main

EDGES = (0.0, 5e-324, -5e-324, 1e-300, 1e154, 1.3e154, 1e200, -1e200, 1e308, -1e308)
numbers = st.one_of(st.sampled_from(EDGES), st.sampled_from((0.25, -0.5, 1.0, -1.5, 2.0)),
                    st.floats(-4.0, 4.0, width=16))

term = st.builds("{}:{!r}:{!r}".format, st.integers(-3, 4), numbers, numbers)
stem = st.one_of(st.sampled_from(("log-tan", "arctan")),
                 st.lists(term, min_size=1, max_size=3).map(",".join))
base = st.one_of(st.sampled_from(("rho", "varrho", "sigma", "x-over-r-iota", "identity")),
                 st.integers(-3, 4).map("pow:{}".format), stem.map("stem:{}".format))
spec = st.one_of(base, stem.map("L:{}".format), base.map("mirror:{}".format),
                 st.just("chiral:rho"), st.builds("product:{}*{}".format, base, base),
                 st.builds("sum:{}+{}".format, base, base))


def _flag(name, values):
    """ [] or a flag and one drawn value, as two words or as --flag=value """
    value = values.map(lambda v: v if isinstance(v, str) else repr(v))
    pair = st.one_of(st.builds(lambda v: [name, v], value),
                     st.builds(lambda v: [f"{name}={v}"], value))
    return st.one_of(st.just([]), pair)


# 1e-300 and 5e-324 round away against every coordinate the grids hold
steps = st.sampled_from((1e-5, 1e-3, 1e-300, 5e-324, 0.0, 1e308))
tolerances = st.one_of(numbers.map(abs), st.just(-1e-7))
common = st.tuples(_flag("--h", steps), _flag("--scheme", st.sampled_from(("central", "richardson"))),
                   _flag("--tol-abs", tolerances), _flag("--tol-rel", tolerances))
DEFAULT_GRID = (-1.0, 1.0, 0.5, 1.5, -2.5, 2.5, 0.4, 2.7)
ranges = st.tuples(*[st.lists(numbers, min_size=2, max_size=2).map(sorted)] * 4)
grid = st.builds(lambda edges, n: ",".join(map(repr, edges + (n,))),
                 st.one_of(st.just(DEFAULT_GRID), st.just(DEFAULT_GRID),
                           ranges.map(lambda pairs: tuple(sum(pairs, [])))),
                 st.integers(2, 3))
pair = st.builds("{!r},{!r}".format, numbers, numbers)

classify_argv = st.builds(lambda s, flags, g: ["classify", s, *sum(flags, []), f"--grid={g}"],
                          spec, common, grid)
laurent_argv = st.builds(
    lambda s, flags, q, check, center, radii: ["laurent", s, *sum(flags, []), "--quad-points", q,
                                               "--n-range=-3,3", *check, *center, *radii],
    spec, common, st.sampled_from(("16", "32")),
    st.sampled_from((["--check-class"], ["--check-class"], [])),
    st.one_of(st.just([]), st.just([]), _flag("--center", pair)),
    st.one_of(st.just([]), st.just([]), _flag("--radii", pair)))

TIMESTAMP = re.compile(r'"timestamp": "[^"]*"')
STATS = ("max", "mean", "max_residual")


def _run(argv):
    """ (exit status, stdout, stderr) of cli.main with warnings as errors """
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def _verdict_stats(doc):
    """ every (verdict, statistics) dict of a report """
    if isinstance(doc, dict):
        if "verdict" in doc:
            yield doc
        for value in doc.values():
            yield from _verdict_stats(value)
    elif isinstance(doc, list):
        for value in doc:
            yield from _verdict_stats(value)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.one_of(classify_argv, laurent_argv))
@example(["classify", "rho", "--h", "1e-300"])
@example(["laurent", "pow:2", "--check-class", "--h", "1e-300"])
@example(["laurent", "x-over-r-iota", "--quad-points", "16", "--n-range=-3,3", "--check-class"])
def test_every_argv_exits_cleanly_with_a_finite_report(argv):
    rc, out, err = _run(argv)
    assert rc in (0, 1, 2), (argv, rc)
    if rc == 2:
        assert out == "" and "Traceback" not in err, (argv, err)
        assert err.startswith("usage:") or (err.startswith("error: ") and err.count("\n") == 1), \
            (argv, err)
        return
    assert err == "", (argv, err)
    for stats in _verdict_stats(json.loads(out)):
        if stats["verdict"] not in ("singular", "not-CE"):
            assert all(math.isfinite(stats[key]) for key in STATS if key in stats), (argv, stats)
    again = _run(argv)
    assert again[0] == rc and TIMESTAMP.sub("", again[1]) == TIMESTAMP.sub("", out), argv
