"""Slice-wise Laurent extraction, reconstruction, and coefficient classhood."""

import cmath
import dataclasses
import math

import numpy as np
import pytest

from fueterlab import laurent
from fueterlab.diffops import DiffConfig
from fueterlab.function_model import (DEFAULT_GRID, ComplexStem, FunctionKindError, QFunction,
                                      cullen_extend, from_uv, pointwise_product, pointwise_sum,
                                      sample_cartesian)
from fueterlab.generators import get_witness, mirror, resolve_function_spec
from fueterlab.laurent import (
    AnnulusRegion,
    LaurentSeries,
    _ring_coefficients,
    coefficient_class_check,
    laurent_coefficients,
    reconstruct,
)
from fueterlab.verification import conjugate_function
from fueterlab.quaternion_core import (
    DomainError,
    Quaternion,
    SphericalPoint,
    from_spherical,
    from_spherical_array,
    iota,
    iota_array,
    iota_coefficient,
)

REGION = AnnulusRegion(0.0, 1.0, 0.2, 0.6, n_alpha=3, n_beta=3)


def lift(z, alpha, beta):
    """Point of the slice plane at the given angles."""
    return Quaternion(z.real) + iota(alpha, beta) * z.imag


# ---------------------------------------------------------------------------
# regions


def test_region_geometry_helpers():
    assert REGION.center == 1.0j
    assert REGION.mid_radius == pytest.approx(0.4)
    assert len(REGION.alphas()) == 3
    assert len(REGION.betas()) == 3
    assert REGION.contains(0.0, 1.3, 0.0, math.pi / 2)
    assert not REGION.contains(0.0, 1.05, 0.0, math.pi / 2)  # inside the hole
    assert not REGION.contains(0.0, 1.3, 2.0, math.pi / 2)   # alpha outside


def test_region_validation():
    with pytest.raises(ValueError):
        AnnulusRegion(0.0, 1.0, 0.6, 0.2)          # inner >= outer
    with pytest.raises(ValueError):
        AnnulusRegion(0.0, 0.5, 0.2, 0.6)          # annulus crosses r = 0
    with pytest.raises(ValueError):
        AnnulusRegion(0.0, 1.0, 0.2, 0.6, beta_window=(0.05, 0.3))
    with pytest.raises(ValueError):
        AnnulusRegion(0.0, 1.0, 0.2, 0.6, alpha_window=(0.5, -0.5))
    with pytest.raises(ValueError):
        AnnulusRegion(0.0, 1.0, 0.2, 0.6, n_alpha=1)
    with pytest.raises(ValueError, match="bad beta window"):
        AnnulusRegion(0.0, 1.0, 0.2, 0.6, beta_window=(1.2, 1.0))
    for window in ((-math.inf, 0.0), (-1e308, 1e308)):  # a width that is not finite
        with pytest.raises(ValueError, match=r"bad alpha window .* a finite width hi - lo"):
            AnnulusRegion(0.0, 1.0, 0.2, 0.6, alpha_window=window)
    with pytest.raises(ValueError, match="not finite"):
        AnnulusRegion(0.0, math.inf, 0.2, 0.6)
    # the class check's angle stencils widen the window into the pole margin
    series = laurent_coefficients(get_witness("pow:2").function, REGION,
                                  n_range=(0, 1), quadrature_points=32)
    with pytest.raises(DomainError, match="too close to the poles"):
        coefficient_class_check(series, DiffConfig(h=1.0))


def test_region_refuses_an_alpha_window_outside_the_chart():
    # beyond pi the (u, v) view reads alpha as given, and the evaluator the
    # azimuth of the Cartesian point: rho's a_0 at 3.5 would read 3.5 - 0.522i
    # through one and -2.783 - 0.522i through the other
    for window in ((3.5, 4.0), (-3.5, 0.0), (0.0, math.pi + 1e-9)):
        with pytest.raises(ValueError, match=r"alpha window \(.*\) leaves \[-pi, pi\]"):
            AnnulusRegion(0.0, 1.0, 0.2, 0.6, alpha_window=window)
    AnnulusRegion(0.0, 1.0, 0.2, 0.6, alpha_window=(-math.pi, math.pi))


def test_region_export():
    d = REGION.to_dict()
    assert d["center"] == [0.0, 1.0]
    assert d["radii"] == [0.2, 0.6]
    assert d["window"]["n_alpha"] == 3
    assert d["window"]["alpha"] == [-0.5, 0.5]


# ---------------------------------------------------------------------------
# coefficient extraction


def test_squaring_coefficients_about_i():
    series = laurent_coefficients(get_witness("pow:2").function, REGION,
                                  n_range=(-4, 6), quadrature_points=128)
    # (z - i)^2 expanded about i: a0 = -1, a1 = 2i, a2 = 1
    for alpha in REGION.alphas():
        for beta in REGION.betas():
            assert series.coefficient(0, alpha, beta) == pytest.approx(-1.0, abs=1e-9)
            assert series.coefficient(1, alpha, beta) == pytest.approx(2.0j, abs=1e-9)
            assert series.coefficient(2, alpha, beta) == pytest.approx(1.0, abs=1e-9)
            for n in (-4, -3, -2, -1, 3, 4, 5, 6):
                assert abs(series.coefficient(n, alpha, beta)) < 1e-9


def test_identity_coefficients():
    region = AnnulusRegion(1.0, 2.0, 0.5, 1.0, n_alpha=2, n_beta=2)
    series = laurent_coefficients(get_witness("identity").function, region,
                                  n_range=(-2, 3), quadrature_points=64)
    alpha, beta = region.alphas()[0], region.betas()[0]
    assert series.coefficient(0, alpha, beta) == pytest.approx(1.0 + 2.0j, abs=1e-12)
    assert series.coefficient(1, alpha, beta) == pytest.approx(1.0, abs=1e-12)
    for n in (-2, -1, 2, 3):
        assert abs(series.coefficient(n, alpha, beta)) < 1e-12


def test_reciprocal_coefficient_law():
    # 1/z about c: a_n = (-1)^n c^(-n-1) for n >= 0, nothing singular inside
    series = laurent_coefficients(get_witness("pow:-1").function, REGION,
                                  n_range=(-4, 8), quadrature_points=128)
    c = REGION.center
    alpha, beta = 0.0, math.pi / 2
    for n in range(-4, 0):
        assert abs(series.coefficient(n, alpha, beta)) < 1e-12
    for n in range(0, 9):
        want = ((-1.0) ** n) * c ** (-n - 1)
        assert series.coefficient(n, alpha, beta) == pytest.approx(want, abs=1e-12)


def test_rho_coefficients_are_slicewise_constants():
    series = laurent_coefficients(get_witness("rho").function, REGION,
                                  n_range=(-2, 2), quadrature_points=64)
    for alpha in REGION.alphas():
        for beta in REGION.betas():
            want = alpha + 1.0j * math.log(math.tan(beta / 2.0))
            assert series.coefficient(0, alpha, beta) == pytest.approx(want, abs=1e-11)
            for n in (-2, -1, 1, 2):
                assert abs(series.coefficient(n, alpha, beta)) < 1e-11


def test_quadrature_refinement_is_converged():
    f = get_witness("pow:3").function
    coarse = laurent_coefficients(f, REGION, n_range=(-2, 4), quadrature_points=64)
    fine = laurent_coefficients(f, REGION, n_range=(-2, 4), quadrature_points=128)
    for n in range(-2, 5):
        delta = np.max(np.abs(coarse.coefficients[n] - fine.coefficients[n]))
        assert delta < 1e-10


def test_slice_extraction_validates_contour():
    f = get_witness("pow:2").function
    with pytest.raises(DomainError):
        # circle of radius 1.2 about Im = 1 dips below the real axis
        _ring_coefficients(f, np.array([0.0]), np.array([math.pi / 2]), 1.0j, 1.2,
                           (-1, 1), 64)
    with pytest.raises(DomainError):
        # every ring lies above the real axis; one about a center below it is refused
        _ring_coefficients(f, np.array([0.0]), np.array([math.pi / 2]), -1.0j, 0.5,
                           (-1, 1), 64)
    raw = QFunction("swap", lambda p: Quaternion(p.x, p.t, 0.0, 0.0))
    with pytest.raises(FunctionKindError):
        laurent_coefficients(raw, REGION)


def _expand_pow2(**kwargs):
    return laurent_coefficients(get_witness("pow:2").function, REGION, **kwargs)


@pytest.mark.parametrize("build, match", [
    (lambda: AnnulusRegion(0.0, 1.0, 0.2, 0.6, n_alpha=3.0),
     r"n_alpha must be an integer >= 2, got 3\.0"),
    (lambda: AnnulusRegion(0.0, 1.0, 0.2, 0.6, n_beta="9"),
     r"n_beta must be an integer >= 2, got '9'"),
    (lambda: AnnulusRegion(0.0, 1.0, 0.2, 0.6, n_alpha=10 ** 5, n_beta=10 ** 5),
     r"a window of 100000 x 100000 nodes has more than 4096"),
    (lambda: AnnulusRegion(0.0, 1.0, 0.2, 0.6, n_alpha=64, n_beta=65),
     r"a window of 64 x 65 nodes has more than 4096"),
    (lambda: _expand_pow2(n_range=(0.5, 2)), r"order range must be two integers, got \(0\.5, 2\)"),
    (lambda: _expand_pow2(n_range=(-1, 0, 1)),
     r"order range must be two integers, got \(-1, 0, 1\)"),
    (lambda: _expand_pow2(quadrature_points=32.0), r"quadrature points must be an integer, got 32\.0"),
], ids=("float-n_alpha", "str-n_beta", "huge-window", "window-past-the-bound", "float-order",
        "three-orders", "float-quadrature-points"))
def test_laurent_entry_points_refuse_what_they_cannot_sample(build, match):
    # each of these used to be accepted, or to end in a bare TypeError from
    # numpy or range
    with pytest.raises(ValueError, match=f"^{match}$"):
        build()


def test_laurent_entry_points_take_numpy_integers_up_to_the_window_bound():
    region = AnnulusRegion(0.0, 1.0, 0.2, 0.6, n_alpha=np.int64(64), n_beta=64)
    series = laurent_coefficients(get_witness("pow:2").function, region,
                                  n_range=(np.int64(-1), 1), quadrature_points=np.int64(16))
    assert series.coefficients[1].shape == (64, 64)


def test_misaligned_values_are_rejected():
    # values off the (1, iota) plane make the slice projection meaningless; a
    # CE function without a (u, v) view is checked for them
    skew = QFunction("skew", lambda p: Quaternion(0.0, 0.0, 0.0, 1.0), kind="CE")
    assert skew.uv_array is None
    with pytest.raises(DomainError, match=r"^skew: values leave the slice plane, by 8\.776e-01, "
                                          r"at \(t, r, alpha, beta\) = \(0\.4, 1\.0, -0\.5, "):
        laurent_coefficients(skew, REGION, n_range=(0, 1), quadrature_points=32)


def test_evaluator_failure_on_contour_is_domain_error():
    # the u field divides by zero on the part of each contour with |t| <= 0.35
    f = from_uv(lambda s: 1 / 0 if abs(s.t) <= 0.35 else 1 / s.t, lambda s: 0.0,
                name="broken")
    with pytest.raises(DomainError, match="broken: no finite value at z="):
        laurent_coefficients(f, AnnulusRegion(0.0, 1.0, 0.2, 0.6))


def test_order_window_validation():
    f = get_witness("pow:2").function
    with pytest.raises(ValueError):
        laurent_coefficients(f, REGION, n_range=(2, -2))
    with pytest.raises(ValueError):
        laurent_coefficients(f, REGION, n_range=(-8, 8), quadrature_points=8)
    with pytest.raises(ValueError):
        # order window too wide for the sampling rate
        laurent_coefficients(f, REGION, n_range=(-40, 40), quadrature_points=64)
    # the point floor, MIN_QUADRATURE_POINTS = 16, is accepted and one fewer refused
    series = laurent_coefficients(f, REGION, n_range=(0, 2), quadrature_points=16)
    assert abs(series.coefficient(2, 0.0, math.pi / 2) - 1.0) <= 1e-12
    with pytest.raises(ValueError, match="need at least 16 quadrature points"):
        laurent_coefficients(f, REGION, n_range=(0, 2), quadrature_points=15)
    # the highest order 32 points resolve is 32 // 2 - 1
    assert laurent_coefficients(f, REGION, (-15, 15), quadrature_points=32).n_range == (-15, 15)
    for n_range in ((0, 16), (-16, 0)):
        with pytest.raises(ValueError, match="exceeds the resolution of 32 quadrature points"):
            laurent_coefficients(f, REGION, n_range, quadrature_points=32)


# ---------------------------------------------------------------------------
# reconstruction


def test_reconstruct_squaring():
    f = get_witness("pow:2").function
    series = laurent_coefficients(f, REGION, n_range=(-2, 4), quadrature_points=64)
    p = lift(0.3 + 1.2j, 0.1, math.pi / 2 - 0.2)
    assert abs(reconstruct(series, p) - p * p) <= 1e-8


def test_reconstruct_at_center_height():
    series = laurent_coefficients(get_witness("identity").function, REGION,
                                  n_range=(-2, 2), quadrature_points=64)
    # points on the mid circle of the annulus, at a few window angles
    for alpha, beta in ((0.0, math.pi / 2), (0.3, math.pi / 2 - 0.3)):
        z = REGION.center + REGION.mid_radius
        p = lift(z, alpha, beta)
        assert abs(reconstruct(series, p) - p) <= 1e-10


def test_reconstruct_truncation_obeys_geometric_tail():
    f = get_witness("pow:-1").function
    series = laurent_coefficients(f, REGION, n_range=(-20, 20),
                                  quadrature_points=64)
    c = REGION.center
    for z in (0.25j + c, 0.5 + 1.0j, -0.3 + 1.3j):
        dist = abs(z - c)
        if not REGION.inner < dist < REGION.outer:
            continue
        ratio = dist / abs(c)
        bound = ratio ** 21 / (1.0 - ratio)
        p = lift(z, 0.2, math.pi / 2 + 0.1)
        err = abs(reconstruct(series, p) - p.inverse())
        assert err <= bound + 1e-12


def test_reconstruct_an_empty_batch():
    series = laurent_coefficients(get_witness("pow:2").function, REGION,
                                  n_range=(0, 2), quadrature_points=32)
    assert reconstruct(series, np.zeros((4, 0))).shape == (4, 0)


def test_reconstruct_outside_region_raises():
    series = laurent_coefficients(get_witness("pow:2").function, REGION,
                                  n_range=(0, 2), quadrature_points=64)
    with pytest.raises(DomainError):
        reconstruct(series, lift(0.05j + REGION.center, 0.0, math.pi / 2))
    with pytest.raises(DomainError):
        reconstruct(series, lift(0.3 + 1.2j, 2.0, math.pi / 2))  # alpha outside


# ---------------------------------------------------------------------------
# coefficient grids


def test_coefficient_interpolation_between_nodes():
    series = laurent_coefficients(get_witness("rho").function, REGION,
                                  n_range=(0, 0), quadrature_points=32)
    alphas = REGION.alphas()
    beta = REGION.betas()[0]
    mid = 0.5 * (alphas[0] + alphas[1])
    left = series.coefficient(0, alphas[0], beta)
    right = series.coefficient(0, alphas[1], beta)
    got = series.coefficient(0, mid, beta)
    assert got == pytest.approx(0.5 * (left + right), abs=1e-12)
    with pytest.raises(DomainError):
        series.coefficient(0, alphas[-1] + 1.0, beta)


def test_series_export_schema():
    series = laurent_coefficients(get_witness("pow:2").function, REGION,
                                  n_range=(0, 2), quadrature_points=32)
    d = series.to_dict()
    assert d["function"] == "pow:2"
    assert d["n_range"] == [0, 2]
    assert d["quadrature_points"] == 32
    assert set(d["coefficients"]) == {"0", "1", "2"}
    grid = d["coefficients"]["1"]
    assert len(grid) == 3 and len(grid[0]) == 3 and len(grid[0][0]) == 2
    assert "source" not in d


# ---------------------------------------------------------------------------
# coefficient classhood


def test_class_ii_sources_yield_class_ii_coefficients():
    for spec in ("rho", "pow:2", "product:rho*identity"):
        f = resolve_function_spec(spec)
        series = laurent_coefficients(f, REGION, n_range=(-2, 2),
                                      quadrature_points=64)
        out = coefficient_class_check(series)
        assert set(out) == set(range(-2, 3))
        for n, stats in out.items():
            assert stats["verdict"] == "pass", (spec, n, stats)


def test_classhood_requires_source():
    # the class check re-samples the source, so a series cannot be built without one
    series = laurent_coefficients(get_witness("pow:2").function, REGION,
                                  n_range=(0, 1), quadrature_points=32)
    with pytest.raises(TypeError, match="source"):
        LaurentSeries(series.function, series.region, series.n_range,
                      series.quadrature_points, series.coefficients)


def _reference_class_check(series, cfg):
    """Per-order stencils, residuals, scales and verdicts, written out in full:
    order n is judged against tol_abs + tol_rel S / rho^n, with S the largest
    max |a_m| rho^m over the orders m."""
    region, h = series.region, cfg.h
    rho = region.mid_radius
    peak = max(float(np.max(np.abs(grid))) * rho ** m for m, grid in series.coefficients.items())
    offsets = [h, -h] if cfg.scheme == "central" else [h, -h, h / 2.0, -h / 2.0]
    alphas, betas = region.window_angles()
    shift = np.repeat(offsets, alphas.size)
    at_alpha, at_beta = np.tile(alphas, len(offsets)), np.tile(betas, len(offsets))
    coeffs = _ring_coefficients(series.source, np.concatenate((at_alpha + shift, at_alpha)),
                                np.concatenate((at_beta, at_beta + shift)), region.center,
                                region.mid_radius, series.n_range, series.quadrature_points)
    sb = np.sin(betas)
    out = {}
    for n, shifted in coeffs.items():
        derivatives = []
        for s in shifted.reshape(2, len(offsets), -1):
            d = (s[0] - s[1]) / (2.0 * h)
            if cfg.scheme == "richardson":
                d = ((s[2] - s[3]) / h * 4.0 - d) / 3.0
            derivatives.append(d)
        da, db = derivatives
        worst = float(np.max(np.abs((da.imag / sb + db.real, da.real / sb - db.imag))))
        scale = peak / rho ** n
        out[n] = {"max_residual": worst,
                  "verdict": "pass" if worst <= cfg.tol_abs + cfg.tol_rel * scale else "fail"}
    return out


@pytest.mark.parametrize("n_range", [(-8, 8), (-3, 5)], ids=["default", "-3,5"])
@pytest.mark.parametrize("tol_abs", [DiffConfig.tol_abs, 0.0])
@pytest.mark.parametrize("scheme", ["central", "richardson"])
@pytest.mark.parametrize("spec", ["rho", "pow:3", "L:-1:0.5:0,2:1:0.25", "stem:log-tan"])
def test_class_check_equals_the_per_order_reference(spec, scheme, tol_abs, n_range):
    # rho gives exact zeros for n != 0; stem:log-tan has no array stem; with
    # tol_abs = 0 a verdict hangs on its own order's scale
    series = laurent_coefficients(resolve_function_spec(spec), AnnulusRegion(0.0, 1.0, 0.2, 0.6),
                                  n_range)
    cfg = DiffConfig(scheme=scheme, tol_abs=tol_abs)
    assert coefficient_class_check(series, cfg) == _reference_class_check(series, cfg)


def test_classhood_flags_non_class_ii_sources():
    xri = get_witness("x-over-r-iota").function
    series = laurent_coefficients(xri, REGION, n_range=(0, 0),
                                  quadrature_points=64)
    out = coefficient_class_check(series)
    assert out[0]["verdict"] == "fail"
    assert out[0]["max_residual"] > 1e-2


SCALED_PAIRS = [("product:stem:3:{C}:0*rho", "product:pow:3*rho"),
                ("product:stem:0:{C}:0*rho", "rho"),
                ("stem:-1:{C}:0", "pow:-1")]


def _class_verdicts(spec, scheme):
    series = laurent_coefficients(resolve_function_spec(spec), AnnulusRegion(0.0, 1.0, 0.2, 0.6))
    return {n: v["verdict"] for n, v in
            coefficient_class_check(series, DiffConfig(scheme=scheme)).items()}


@pytest.mark.parametrize("scheme", ["central", "richardson"])
@pytest.mark.parametrize("scaled, plain", SCALED_PAIRS, ids=[p for _, p in SCALED_PAIRS])
def test_class_check_verdicts_do_not_move_when_f_is_scaled(scaled, plain, scheme):
    # C f is in the class of f; each order's scale grows with C, and so does its rounding
    want = _class_verdicts(plain, scheme)
    for factor in ("1e3", "1e8", "1e100"):
        assert _class_verdicts(scaled.format(C=factor), scheme) == want, factor


# ---------------------------------------------------------------------------
# the mirror on the slices


@pytest.mark.parametrize("spec", ["rho", "L:-1:0.5:0,2:1:0.25"])
def test_mirror_takes_the_series_of_the_antipodal_slice(spec):
    # mirror(f) on the slice (alpha, beta) is f on (alpha - pi, pi - beta); the beta
    # window is symmetric about pi / 2, so pi - beta reverses it
    f = resolve_function_spec(spec)

    def expand(g, alpha_window):
        region = AnnulusRegion(0.0, 1.0, 0.2, 0.6, alpha_window, n_alpha=3, n_beta=3)
        return laurent_coefficients(g, region, n_range=(-2, 2), quadrature_points=64).coefficients

    mirrored = expand(mirror(f), (0.1, 0.5))
    antipodal = expand(f, (0.1 - math.pi, 0.5 - math.pi))
    for n, grid in mirrored.items():
        dev = np.max(np.abs(grid - antipodal[n][:, ::-1]))
        assert dev < 1e-8, n


# ---------------------------------------------------------------------------
# array path against the point-by-point path


def _scalar_only(f):
    return dataclasses.replace(f, cartesian_array=None, uv_array=None)


def _assert_grids_agree(got, want):
    assert set(got) == set(want)
    for n in want:
        dev = np.abs(got[n] - want[n])
        assert np.all(dev <= 1e-12 * (1.0 + np.abs(want[n]))), (n, dev.max())


def _assert_verdicts_agree(batched, pointwise):
    for scheme in ("central", "richardson"):
        cfg = DiffConfig(scheme=scheme)
        got = coefficient_class_check(batched, cfg)
        want = coefficient_class_check(pointwise, cfg)
        assert {n: v["verdict"] for n, v in got.items()} == \
            {n: v["verdict"] for n, v in want.items()}


@pytest.mark.parametrize("spec", ["rho", "pow:3", "stem:-1:0.5:-0.25,2:1:0.75", "mirror:rho"])
def test_array_and_scalar_paths_agree(spec):
    f = resolve_function_spec(spec)
    assert f.cartesian_array is not None
    batched = laurent_coefficients(f, REGION, n_range=(-4, 4), quadrature_points=64)
    pointwise = laurent_coefficients(_scalar_only(f), REGION, n_range=(-4, 4),
                                     quadrature_points=64)
    _assert_grids_agree(batched.coefficients, pointwise.coefficients)
    _assert_verdicts_agree(batched, pointwise)


# ---------------------------------------------------------------------------
# chart sampling against the Cartesian contour construction


def _cartesian_ring_coefficients(f, alphas, betas, center, radius, n_range,
                                 quadrature_points):
    """The contour quadrature built in Cartesian form, as before the chart
    sampling: every point t + (Im z) iota(alpha, beta) materialized as
    quaternion rows (4, M Q), which sample_cartesian maps back to the chart."""
    npts = quadrature_points
    thetas = 2.0 * math.pi * np.arange(npts) / npts
    ring = center + radius * (np.cos(thetas) + 1j * np.sin(thetas))
    unit = np.stack((np.zeros_like(alphas), np.ones_like(alphas), alphas, betas))
    io = iota_array(unit)[:, :, None]
    points = ring.imag * io
    points[0] = ring.real
    w = sample_cartesian(f, points.reshape(4, -1)).reshape(points.shape)
    if not np.isfinite(w).all():
        raise DomainError(f"{f.name}: no finite value on the contour")
    modes = np.fft.fft(w[0] + 1j * iota_coefficient(w, io), axis=1)
    return {n: modes[:, n % npts] / (npts * radius ** n)
            for n in range(n_range[0], n_range[1] + 1)}


REFERENCE_SPECS = ["rho", "pow:3", "stem:log-tan", "L:-1:0.5:0,2:1:0.25",
                   "product:rho*pow:3", "mirror:rho"]


@pytest.mark.parametrize("path", ["array", "scalar"])
@pytest.mark.parametrize("spec", REFERENCE_SPECS)
def test_chart_contours_match_the_cartesian_construction(spec, path, monkeypatch):
    f = resolve_function_spec(spec)
    if path == "scalar":
        f = _scalar_only(f)

    def expand():
        series = laurent_coefficients(f, REGION)
        verdicts = {scheme: {n: v["verdict"] for n, v in
                             coefficient_class_check(series, DiffConfig(scheme=scheme)).items()}
                    for scheme in ("central", "richardson")}
        return series.coefficients, verdicts

    chart = expand()
    monkeypatch.setattr(laurent, "_ring_coefficients", _cartesian_ring_coefficients)
    cartesian = expand()
    _assert_grids_agree(chart[0], cartesian[0])
    assert chart[1] == cartesian[1]


def test_rho_slices_are_exact_constants_on_the_default_window():
    # rho = alpha + iota ln tan(beta / 2) does not depend on t or r, so each
    # ring samples one value exactly and only a_0 survives the quadrature
    region = AnnulusRegion(0.0, 1.0, 0.2, 0.6)
    series = laurent_coefficients(get_witness("rho").function, region, quadrature_points=128)
    alphas, betas = np.meshgrid(region.alphas(), region.betas(), indexing="ij")
    np.testing.assert_allclose(series.coefficients[0],
                               alphas + 1j * np.log(np.tan(betas / 2.0)), rtol=0, atol=1e-12)
    for n, grid in series.coefficients.items():
        assert n == 0 or np.all(grid == 0.0), n
    for scheme in ("central", "richardson"):
        out = coefficient_class_check(series, DiffConfig(scheme=scheme))
        assert all(out[n]["max_residual"] == 0.0 for n in out if n != 0), scheme


def test_a_scalar_stem_is_called_once_per_ring_point():
    calls = []

    def log_tan(z):
        calls.append(z)
        return cmath.log(cmath.tan(z / 2.0))

    f = cullen_extend(ComplexStem.named("log-tan-counted", log_tan))
    region = AnnulusRegion(0.0, 1.0, 0.2, 0.6)
    # the sweep's view has no slice axis, so the first batch of 32 contours
    # of 128 points serves all 81 window slices
    series = laurent_coefficients(f, region)
    assert len(calls) == 128
    # and all 4 * 81 shifted slices of the central class check
    calls.clear()
    coefficient_class_check(series)
    assert len(calls) == 128


def test_a_view_with_a_slice_axis_is_called_once_per_batch():
    calls = []

    def uv_array(c):
        # alpha z on the slice: a slice axis through c[2]
        calls.append(np.broadcast_shapes(*map(np.shape, c)))
        return c[2] * c[0], c[2] * c[1]

    f = from_uv(lambda s: s.alpha * s.t, lambda s: s.alpha * s.r, name="alpha-z",
                uv_array=uv_array)
    region = AnnulusRegion(0.0, 1.0, 0.2, 0.6)
    # the 81 window slices go in batches of 32, 32 and 17 contours of 128 points
    series = laurent_coefficients(f, region)
    assert calls == [(32, 128), (32, 128), (17, 128)]
    # the 4 * 81 shifted slices of the central class check, in 11 batches
    calls.clear()
    coefficient_class_check(series)
    assert calls == [(32, 128)] * 10 + [(4, 128)]


# ---------------------------------------------------------------------------
# the (u, v) view against the projection of the quaternion values on iota


def _uv_functions():
    """ every library constructor of a CE function, each with its (u, v) view """
    stem = ComplexStem.laurent([(-1, 0.5 - 0.25j), (2, 1.0 + 0.75j)])
    uv_closed = from_uv(lambda s: s.alpha * s.t, lambda s: math.cos(s.beta) + s.r, name="uv",
                        uv_array=lambda c: (c[2] * c[0], np.cos(c[3]) + c[1]))
    uv_filled = from_uv(lambda s: s.alpha * s.t, lambda s: math.cos(s.beta) + s.r,
                        name="uv-filled")
    sweep = cullen_extend(stem)
    rho = get_witness("rho").function
    return {
        "from_uv": uv_closed,
        "from_uv-filled": uv_filled,
        "cullen_extend": sweep,
        "cullen_extend-log-tan": resolve_function_spec("stem:log-tan"),
        "L:": resolve_function_spec("L:-1:0.5:0,2:1:0.25"),
        "product": pointwise_product(rho, sweep),
        "sum": pointwise_sum(uv_filled, sweep),
        "mirror": mirror(pointwise_product(uv_closed, sweep)),
        "conjugate_function": conjugate_function(pointwise_sum(rho, sweep)),
    }


UV_FUNCTIONS = _uv_functions()
UV_REGION = AnnulusRegion(0.0, 1.0, 0.2, 0.4, n_alpha=3, n_beta=2)


def _relative_gap(got, want):
    return np.max(np.abs(got - want)) / (1.0 + np.max(np.abs(want)))


@pytest.mark.parametrize("name", UV_FUNCTIONS)
def test_the_uv_view_is_the_projection_of_the_cartesian_view(name):
    f = UV_FUNCTIONS[name]
    assert f.uv_array is not None and f.is_ce
    chart = DEFAULT_GRID.random_chart(np.random.default_rng(22), 64)
    w = f.cartesian_array(from_spherical_array(chart))
    u, v = np.broadcast_arrays(*f.uv_array(chart), chart[0])[:2]
    assert _relative_gap(u, w[0]) <= 1e-12
    assert _relative_gap(v, iota_coefficient(w, iota_array(chart))) <= 1e-12


@pytest.mark.parametrize("name", UV_FUNCTIONS)
def test_the_uv_quadrature_matches_the_projected_one(name):
    f = UV_FUNCTIONS[name]
    projected = dataclasses.replace(f, uv_array=None)
    got = laurent_coefficients(f, UV_REGION, n_range=(-3, 3), quadrature_points=32)
    want = laurent_coefficients(projected, UV_REGION, n_range=(-3, 3), quadrature_points=32)
    for n in range(-3, 4):
        assert _relative_gap(got.coefficients[n], want.coefficients[n]) <= 1e-12, n


def test_a_raw_function_has_no_uv_view():
    with pytest.raises(ValueError, match="raw: a raw function has no"):
        QFunction("raw", lambda p: p, uv_array=lambda c: (c[0], c[1]))


def test_a_uv_view_without_a_finite_value_is_a_domain_error():
    f = from_uv(lambda s: 0.0, lambda s: 1.0, name="nan-view",
                uv_array=lambda c: (np.where(c[0] > 0.3, np.nan, 0.0), np.ones_like(c[0])))
    with pytest.raises(DomainError, match=r"nan-view: no finite value at z=0\.\d+\+\d\.\d+j "
                                          r"on the slice \(alpha, beta\) = \(-0\.5000, 1\.0708\)$"):
        laurent_coefficients(f, REGION, n_range=(-2, 2), quadrature_points=32)


@pytest.mark.parametrize("spec", ["pow:2", "pow:-1", "stem:-2:0.5:0.25,1:-0.75:0.5,3:0.25:-1",
                                  "mirror:pow:3"])
def test_a_sweep_has_the_same_coefficients_on_every_slice(spec):
    # its view reads the stem on the ring's (t, r) alone, so the angle stencils
    # difference equal numbers
    series = laurent_coefficients(resolve_function_spec(spec), REGION)
    for n, grid in series.coefficients.items():
        assert np.all(grid == grid[0, 0]), n
    for scheme in ("central", "richardson"):
        out = coefficient_class_check(series, DiffConfig(scheme=scheme))
        assert all(stats["max_residual"] == 0.0 for stats in out.values()), scheme
