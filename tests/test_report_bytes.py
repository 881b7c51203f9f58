"""Report bytes stay those of the stdlib JSON layout.

Every report the CLI writes must equal ``json.dumps(doc, indent=2,
sort_keys=True) + "\\n"`` of its own content, and the Laurent coefficients
it prints must be the computed floats exactly.  The reconstruction probes
must give exactly what the per-order bilinear formula gives.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fueterlab import cli
from fueterlab.cli import _probe_points, main, report_json
from fueterlab.generators import resolve_function_spec
from fueterlab.laurent import AnnulusRegion, laurent_coefficients, reconstruct
from fueterlab.quaternion_core import (DomainError, Quaternion, SphericalPoint, from_spherical,
                                      iota, to_spherical)

COARSE_GRID = "--grid=-1,1,0.5,1.5,-2.2,2.4,0.5,2.5,3"
DEFAULT_REGION = AnnulusRegion(0.0, 1.0, 0.2, 0.6)

REPORT_ARGVS = {
    "classify-rho": ["classify", "rho"],
    "classify-pow-2-coarse-h": ["classify", "pow:-2", "--h", "0.5"],
    "classify-null-maxima": ["classify", "chiral:rho", "--scheme", "richardson", COARSE_GRID],
    "verify-props": ["verify-props", COARSE_GRID],
    "laurent-rho": ["laurent", "rho", "--check-class"],
    "laurent-pow3": ["laurent", "pow:3", "--check-class", "--n-range=-2,2",
                     "--quad-points", "32"],
    # a sweep on the default window: every slice repeats the same floats
    "laurent-sweep": ["laurent", "stem:-1:0.5:0.25,2:1:0.75", "--check-class"],
}


def stdlib_layout(text: str) -> str:
    return json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("argv", REPORT_ARGVS.values(), ids=REPORT_ARGVS)
def test_report_file_has_the_stdlib_layout(tmp_path, argv):
    out = tmp_path / "report.json"
    assert main(argv + ["--out", str(out)]) in (0, 1)
    text = out.read_text()
    assert text == stdlib_layout(text)
    doc = json.loads(text)
    if argv[0] != "laurent":
        return
    n_lo, n_hi = doc["series"]["n_range"]
    series = laurent_coefficients(resolve_function_spec(argv[1]), DEFAULT_REGION,
                                  (n_lo, n_hi), doc["series"]["quadrature_points"])
    assert set(doc["series"]["coefficients"]) == {str(n) for n in series.coefficients}
    for n, grid in series.coefficients.items():
        printed = np.array(doc["series"]["coefficients"][str(n)])
        assert printed.shape == grid.shape + (2,)
        assert (printed[..., 0] == grid.real).all() and (printed[..., 1] == grid.imag).all()


AWKWARD_FLOATS = [float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 5e-324, 1e16,
                  -1.5e-300, 0.1, 1e22, 123456789.0]
AWKWARD_DOCS = {
    "floats": {"x": AWKWARD_FLOATS, "np": np.float64(0.1), "np-nan": np.float64("nan")},
    "scalars": {"int": -7, "big": 2 ** 70, "zero": 0, "t": True, "f": False, "none": None},
    "strings": {"caf\u00e9": "\u00e9t\u00e9 \u2207 \U0001d4d5", "ctl": "tab\t nl\n \x00 \x1f \"q\" \\",
                "": ""},
    "empties": {"d": {}, "l": [], "nested": [{}, [], [[]]], "t": ()},
    "nesting": {"b": [{"z": 1, "a": [1.5, None]}, [True, "s"]], "a": {"k": {"j": []}}},
    "arrays": {"1d": np.array([1.0, np.nan, -np.inf, 5e-324, -0.0]),
               "2d": np.arange(6.0).reshape(2, 3) / 7.0,
               "3d": np.array([[[np.inf, 1e16], [0.5, -0.0]], [[np.nan, 2.0], [3.0, 1e-7]]]),
               "finite-3d": np.linspace(-1.0, 1.0, 24).reshape(2, 3, 4),
               "empty": np.zeros((2, 0)), "scalar": np.array(2.5),
               "in-list": [np.ones(2), {"deep": np.full((1, 1, 1), -1e300)}],
               # repeats that are equal but not the same bits, or the same text
               "repeats": np.array([[0.0, -0.0, 0.0, -0.0, 5e-324, 0.0],
                                    [np.nan, np.inf, -np.nan, -np.inf, np.inf, np.nan],
                                    [5e-324, -0.0, np.nan, 0.0, -np.inf, 5e-324]]),
               "float32": np.array([0.1, 0.1, -0.0, 0.0, 3e38, np.nan, 0.1], np.float32),
               # sub-arrays equal as floats but not as bits, at both levels
               "signed-zero-rows": np.array([[[0.0, 1.0], [-0.0, 1.0]],
                                             [[-0.0, 1.0], [0.0, 1.0]]])},
}


def _tolist(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {k: _tolist(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_tolist(v) for v in value]
    return value


@pytest.mark.parametrize("name", AWKWARD_DOCS)
def test_writer_matches_json_dumps(name):
    doc = AWKWARD_DOCS[name]
    assert report_json(doc) == json.dumps(_tolist(doc), indent=2, sort_keys=True)
    assert report_json({"doc": doc}) == json.dumps({"doc": _tolist(doc)}, indent=2,
                                                     sort_keys=True)


# zeros of both signs, NaNs of both signs and with payloads, infinities, the
# smallest subnormal, and ordinary numbers, each dtype's own bit patterns
SPECIAL_FLOATS = {
    np.float64: np.array([0, 1 << 63, 0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001,
                          0xFFF0000000000002, 0x7FF0000000000000, 0xFFF0000000000000, 1,
                          0x3FB999999999999A], np.uint64).view(np.float64),
    np.float32: np.array([0, 1 << 31, 0x7FC00000, 0xFFC00000, 0x7FC00001, 0xFF800003,
                          0x7F800000, 0xFF800000, 1, 0x3DCCCCCD], np.uint32).view(np.float32),
}


@st.composite
def repeating_arrays(draw):
    """A float64 or float32 array of 1-4 dims, axes of 0-3 entries, with special
    numbers mixed in and the sub-arrays along some axes copies of the first."""
    dtype = draw(st.sampled_from(list(SPECIAL_FLOATS)))
    shape = tuple(draw(st.lists(st.integers(0, 3), min_size=1, max_size=4)))
    size = int(np.prod(shape))
    width = np.dtype(dtype).itemsize * 8
    a = np.array(draw(st.lists(st.floats(width=width), min_size=size, max_size=size)), dtype)
    picks = np.array(draw(st.lists(st.integers(-1, 9), min_size=size, max_size=size)), int)
    a[picks >= 0] = SPECIAL_FLOATS[dtype][picks[picks >= 0]]
    a = a.reshape(shape)
    for axis in draw(st.sets(st.integers(0, len(shape) - 1))):
        a = np.repeat(a.take([0], axis=axis), shape[axis], axis=axis) if shape[axis] else a
    return a


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(repeating_arrays())
def test_writer_matches_json_dumps_on_repeating_arrays(a):
    for doc in ({"a": a}, {"doc": {"in-list": [a, 1.5]}}):
        assert report_json(doc) == json.dumps(_tolist(doc), indent=2, sort_keys=True)


@pytest.mark.parametrize("value", [np.int64(3), np.float32(1.0), {1: "int key"},
                                   np.array([1, 2]), object()],
                         ids=["np-int", "np-float32", "int-key", "int-array", "object"])
def test_writer_rejects_what_it_cannot_lay_out(value):
    with pytest.raises(TypeError):
        report_json({"v": value})


def test_a_sweep_report_formats_each_grid_from_at_most_two_floats(tmp_path, monkeypatch):
    # pow:3 has the same coefficients on all 81 slices: one real and one
    # imaginary part per order
    formatted, grids = [], []
    float_text, array_text = cli._float_text, cli._array_text

    def counted_float_text(x):
        formatted.append(x)
        return float_text(x)

    def counted_array_text(a, level):
        start = len(formatted)
        text = array_text(a, level)
        grids.append((a.shape, len(formatted) - start))
        return text

    monkeypatch.setattr(cli, "_float_text", counted_float_text)
    monkeypatch.setattr(cli, "_array_text", counted_array_text)
    assert main(["laurent", "pow:3", "--check-class", "--out", str(tmp_path / "r.json")]) == 0
    assert len(grids) == 17
    assert all(shape == (9, 9, 2) and 1 <= n <= 2 for shape, n in grids), grids


def test_array_layout_is_cached_per_shape_and_level():
    # each shape sits at two nesting levels; the second report reads the cached layouts
    window = np.arange(162.0).reshape(9, 9, 2) / 7.0
    window[4, 5, 1] = np.nan
    doc = {"a": window, "b": {"c": [-window, np.full((1, 1, 1), np.nan)]},
           "one": np.full((1, 1, 1), 0.5), "zero-d": np.array(-0.0), "zero-d-nan": np.array(np.nan)}
    want = json.dumps(_tolist(doc), indent=2, sort_keys=True)
    assert report_json(doc) == want
    assert report_json(doc) == want


def _reference_reconstruct(series, p):
    """Per-order bilinear interpolation and summation, written out in full."""
    s = to_spherical(p)
    region = series.region
    a0, a1 = region.alpha_window
    b0, b1 = region.beta_window
    na, nb = region.n_alpha, region.n_beta
    dz = complex(s.t, s.r) - region.center
    total = 0j
    for n in range(series.n_range[0], series.n_range[1] + 1):
        grid = series.coefficients[n]
        fa = (s.alpha - a0) / (a1 - a0) * (na - 1)
        fb = (s.beta - b0) / (b1 - b0) * (nb - 1)
        ia = min(int(fa), na - 2)
        ib = min(int(fb), nb - 2)
        wa = fa - ia
        wb = fb - ib
        c = ((1 - wa) * (1 - wb) * grid[ia, ib]
             + wa * (1 - wb) * grid[ia + 1, ib]
             + (1 - wa) * wb * grid[ia, ib + 1]
             + wa * wb * grid[ia + 1, ib + 1])
        total += c * dz ** n
    io = iota(s.alpha, s.beta)
    return Quaternion(total.real, total.imag * io.x, total.imag * io.y, total.imag * io.z)


@pytest.mark.parametrize("spec", ["rho", "pow:-1", "pow:3", "mirror:pow:3",
                                  "stem:-2:0.5:0.25,1:-0.75:0.5,3:0.25:-1"])
def test_reconstruct_matches_the_per_order_formula(spec):
    # one point gives a Quaternion, rows (4, N) give rows; both have the formula's bits
    series = laurent_coefficients(resolve_function_spec(spec), DEFAULT_REGION)
    probes = [from_spherical(s) for s in _probe_points(DEFAULT_REGION)]
    rows = reconstruct(series, np.array([(q.t, q.x, q.y, q.z) for q in probes]).T)
    assert rows.shape == (4, len(probes))
    for q, column in zip(probes, rows.T.tolist()):
        got, want = reconstruct(series, q), _reference_reconstruct(series, q)
        assert type(got) is Quaternion
        assert (got.t, got.x, got.y, got.z) == (want.t, want.x, want.y, want.z) == tuple(column)


def test_reconstruct_names_the_first_point_outside_the_region():
    series = laurent_coefficients(resolve_function_spec("pow:2"), DEFAULT_REGION,
                                  quadrature_points=32)
    inside = from_spherical(SphericalPoint(0.0, 1.4, 0.1, 1.6))
    outside = from_spherical(SphericalPoint(0.0, 1.4, 0.7, 1.6))  # alpha past the window
    rows = np.array([(q.t, q.x, q.y, q.z) for q in (inside, outside, inside)]).T
    with pytest.raises(DomainError, match=r"point \(t=0\.000, r=1\.400, alpha=0\.700, "
                                          r"beta=1\.600\) outside the expansion region"):
        reconstruct(series, rows)
