"""Acceptance gate: the eleven shipping criteria, one test each.

Every test prints a single ``[PASS]``/``[FAIL]`` line with the measured
value and the pinned tolerance, so ``pytest tests/test_acceptance.py -s``
reads as a checklist.  Tolerances here are contractual — do not loosen
them to make a regression green.

The operator sweeps of criteria 3 to 7 and 10 are one batch call per
function on every default-grid node (test_one_point_bits and test_open_mesh
pin one point to its batch column, bit for bit); v is uv_at's formula on
rows.  Three reads stay on scalar views, as each states an exact identity
of that view: criterion 5's closed forms of rinehart_L, criterion 7's pow:3
image delta_p3(q) and criterion 10's involution, which is exactly 0.0
through the scalar evaluators and rounding noise on array rows.
"""

import math
import time

import numpy as np
import pytest

from fueterlab.classify import classify, jacobian_check
from fueterlab.diffops import (DiffConfig, fueter_left, fueter_right, imaginary_derivative,
                               spherical_cr_residuals)
from fueterlab.function_model import DEFAULT_GRID, ComplexStem, sample_cartesian
from fueterlab.generators import (chiral_difference, ci_extend_rinehart, get_witness, mirror,
                                  resolve_function_spec, rinehart_L)
from fueterlab.laurent import (AnnulusRegion, coefficient_class_check, laurent_coefficients,
                               reconstruct)
from fueterlab.quaternion_core import (Quaternion, SphericalPoint, from_spherical,
                                       from_spherical_array, iota, iota_coefficient, qabs_array)
from fueterlab.verification import check_operator_equivalence

CFG = DiffConfig()

CATALOG_SPECS = (
    "identity", "rho", "varrho", "sigma", "x-over-r-iota",
    "pow:-2", "pow:-1", "pow:0", "pow:2", "pow:3", "pow:4",
)

EXPECTED_PATTERNS = {
    "rho": ("pass", "pass", "fail"),
    "varrho": ("pass", "pass", "fail"),
    "sigma": ("pass", "pass", "fail"),
    "x-over-r-iota": ("pass", "fail", "fail"),
    "identity": ("pass", "pass", "pass"),
    "pow:-2": ("pass", "pass", "pass"),
    "pow:-1": ("pass", "pass", "pass"),
    "pow:0": ("pass", "pass", "pass"),
    "pow:2": ("pass", "pass", "pass"),
    "pow:3": ("pass", "pass", "pass"),
    "pow:4": ("pass", "pass", "pass"),
}


def report_line(number, label, ok, measured, tolerance):
    state = "PASS" if ok else "FAIL"
    print(f"[{state}] criterion {number}: {label} — measured {measured:.3e}, "
          f"tolerance {tolerance:.1e}")


@pytest.fixture(scope="module")
def catalog_reports():
    reports = {}
    for spec in CATALOG_SPECS:
        f = get_witness(spec).function
        reports[spec] = classify(f, grid=DEFAULT_GRID, cfg=CFG)
    return reports


CHART = DEFAULT_GRID.chart_array()
POINTS = from_spherical_array(CHART)


def grid_points():
    return map(SphericalPoint._make, CHART.T.tolist())


def worst_norm(*values):
    """ the largest norm among the quaternion rows of one function or more
    (np.max, unlike max, lets a NaN through to fail the check) """
    return float(np.max([qabs_array(rows) for rows in values]))


def class_ii_witnesses(reports):
    """ the catalog functions whose Class II verdict is pass """
    return [get_witness(name).function for name, rep in reports.items()
            if rep.class_II.verdict == "pass"]


def v_rows(f):
    """ uv_at's v at every grid node: the iota coefficient of f over |Im p| """
    return iota_coefficient(sample_cartesian(f, POINTS), POINTS) / np.sqrt(
        iota_coefficient(POINTS, POINTS))


def test_c01_operator_equivalence():
    t0 = time.time()
    res = check_operator_equivalence(seed=0, cfg=CFG)
    elapsed = time.time() - t0
    report_line(1, f"spherical vs flat operator ({elapsed:.1f}s)",
                res.passed and elapsed < 10.0, res.max_residual, 1e-6)
    assert res.passed, res.detail
    assert elapsed < 10.0, f"operator sweep took {elapsed:.1f}s (budget 10s)"


def test_c02_witness_classifications(catalog_reports):
    bad = []
    for name, want in EXPECTED_PATTERNS.items():
        rep = catalog_reports[name]
        got = (rep.class_I.verdict, rep.class_II.verdict, rep.class_III.verdict)
        if got != want:
            bad.append(f"{name}: {got} != {want}")
        if not rep.inclusion_consistent:
            bad.append(f"{name}: inclusion chain violated")
    ok = not bad
    report_line(2, "witness classes and inclusion chain", ok,
                float(len(bad)), 0.0)
    assert ok, "; ".join(bad)


def test_c03_spherical_cr_residuals(catalog_reports):
    worst = float(np.max([np.abs(spherical_cr_residuals(f, CHART, CFG))
                          for f in class_ii_witnesses(catalog_reports)]))
    xri = get_witness("x-over-r-iota").function
    counter = float(np.abs(spherical_cr_residuals(xri, CHART, CFG)).max())
    ok = worst < 1e-5 and counter > 1e-2
    report_line(3, f"angular CR residuals (counter-witness {counter:.2e})",
                ok, worst, 1e-5)
    assert worst < 1e-5
    assert counter > 1e-2


def test_c04_jacobian_factorization():
    rng = np.random.default_rng(0)
    pow2 = get_witness("pow:2").function
    res = jacobian_check(pow2, from_spherical_array(DEFAULT_GRID.random_chart(rng, 100)), CFG)
    worst = float((np.abs(res.det_numeric - res.det_formula)
                   / (1.0 + np.abs(res.det_formula))).max())
    exact = jacobian_check(pow2, Quaternion(1.0, 1.0, 0.0, 0.0), CFG)
    exact_err = abs(exact.det_numeric - 32.0)
    ok = worst < 1e-4 and exact_err < 1e-6
    report_line(4, f"Jacobian factorization (32 at 1+i within {exact_err:.2e})",
                ok, worst, 1e-4)
    assert worst < 1e-4
    assert exact_err < 1e-6
    assert exact.det_formula == pytest.approx(32.0, abs=1e-9)


def test_c05_rinehart_pipeline():
    images = [ci_extend_rinehart(rinehart_L(ComplexStem.laurent([(n, 1.0)])))
              for n in (1, 2, 3, 4, -1)]
    worst = worst_norm(*(fueter_left(ext, POINTS, CFG).value for ext in images))
    z2 = rinehart_L(ComplexStem.laurent([(2, 1.0)]))
    z3 = rinehart_L(ComplexStem.laurent([(3, 1.0)]))
    closed = 0.0
    for w in (0.3 + 0.7j, -0.8 + 1.2j, 1.5 + 0.4j, 0.1 + 2.0j):
        closed = max(closed, abs(z2(w) - (-2.0 + 0.0j)))
        closed = max(closed, abs(z3(w) - (-6.0 * w.real - 2.0j * w.imag)))
    ok = worst < 1e-5 and closed < 1e-10
    report_line(5, f"Rinehart pipeline regularity (closed forms {closed:.2e})",
                ok, worst, 1e-5)
    assert worst < 1e-5
    assert closed < 1e-10


def test_c06_imaginary_derivative(catalog_reports):
    gaps = []
    for f in class_ii_witnesses(catalog_reports):
        gaps.append(imaginary_derivative(f, CHART, CFG).value)
        gaps[-1][0] -= 2.0 * v_rows(f)
    worst = worst_norm(*gaps)
    ok = worst < 1e-5
    report_line(6, "imaginary derivative equals 2v on Class II", ok, worst, 1e-5)
    assert ok


def test_c07_chiral_difference():
    outer = DiffConfig(h=1e-4, scheme="richardson")
    delta_rho = chiral_difference(get_witness("rho").function)
    worst = worst_norm(fueter_left(delta_rho, POINTS, outer).value)
    delta_p3 = chiral_difference(get_witness("pow:3").function)
    vanish = max(abs(delta_p3(from_spherical(s))) for s in grid_points())
    ok = worst < 1e-4 and vanish < 1e-8
    report_line(7, f"chiral difference regular (pow:3 image {vanish:.2e})",
                ok, worst, 1e-4)
    assert worst < 1e-4
    assert vanish < 1e-8


def test_c08_centrality_matches_class_iii(catalog_reports):
    bad = []
    for name, rep in catalog_reports.items():
        central = rep.centrality.verdict == "central"
        three = rep.class_III.verdict == "pass"
        if central != three:
            bad.append(name)
    ok = not bad
    report_line(8, "left/right agreement tracks Class III", ok,
                float(len(bad)), 0.0)
    assert ok, f"centrality disagrees with Class III for {bad}"


def test_c09_laurent_series():
    region = AnnulusRegion(0.0, 1.0, 0.2, 0.6, n_alpha=3, n_beta=3)
    series = laurent_coefficients(get_witness("pow:2").function, region,
                                  n_range=(-2, 4), quadrature_points=128)
    coeff_err = 0.0
    for alpha in region.alphas():
        for beta in region.betas():
            coeff_err = max(coeff_err,
                            abs(series.coefficient(0, alpha, beta) + 1.0),
                            abs(series.coefficient(1, alpha, beta) - 2.0j),
                            abs(series.coefficient(2, alpha, beta) - 1.0))

    inv = get_witness("pow:-1").function
    inv_series = laurent_coefficients(inv, region, n_range=(-20, 20),
                                      quadrature_points=64)
    tail_ok = True
    for z in (0.25j + 1.0j, 0.5 + 1.0j, -0.3 + 1.3j):
        dist = abs(z - 1.0j)
        if not region.inner < dist < region.outer:
            continue
        ratio = dist / 1.0
        bound = ratio ** 21 / (1.0 - ratio)
        p = Quaternion(z.real) + iota(0.2, math.pi / 2 + 0.1) * z.imag
        err = abs(reconstruct(inv_series, p) - p.inverse())
        tail_ok = tail_ok and err <= bound + 1e-12

    window = AnnulusRegion(0.0, 1.0, 0.2, 0.6, alpha_window=(0.3, 0.9),
                           beta_window=(0.6, 1.2), n_alpha=3, n_beta=3)
    class_worst = 0.0
    for spec in ("rho", "varrho", "sigma", "pow:2", "product:rho*identity"):
        f = resolve_function_spec(spec)
        src = laurent_coefficients(f, window, n_range=(-2, 2),
                                   quadrature_points=64)
        for stats in coefficient_class_check(src, CFG).values():
            class_worst = max(class_worst, stats["max_residual"])

    ok = coeff_err < 1e-9 and tail_ok and class_worst < 1e-5
    report_line(9, f"Laurent coefficients (classhood {class_worst:.2e})",
                ok, coeff_err, 1e-9)
    assert coeff_err < 1e-9
    assert tail_ok, "truncated reconstruction exceeded its geometric tail bound"
    assert class_worst < 1e-5


def test_c10_mirror_operator():
    rho = get_witness("rho").function
    mrho = mirror(rho)
    got = fueter_right(mrho, POINTS, CFG).value
    got[0] += 2.0 * v_rows(mrho) / CHART[1]
    right_worst = worst_norm(got)
    invol = 0.0
    for name in ("rho", "pow:3"):
        f = get_witness(name).function
        twice = mirror(mirror(f))
        for s in grid_points():
            q = from_spherical(s)
            invol = max(invol, abs(twice(q) - f(q)))
    ok = right_worst < 1e-5 and invol < 1e-12
    report_line(10, f"mirror swaps chirality (involution {invol:.1e})",
                ok, right_worst, 1e-5)
    assert right_worst < 1e-5
    assert invol < 1e-12


def test_c11_convergence_order():
    s = SphericalPoint(0.37, 0.94, 0.61, 1.18)
    p = from_spherical(s)
    pow3 = get_witness("pow:3").function
    exact = Quaternion(-2.0 * (3.0 * s.t * s.t - s.r * s.r))
    errs = [abs(fueter_left(pow3, p, DiffConfig(h=h)).value - exact)
            for h in (1e-3, 5e-4)]
    ratio = errs[0] / errs[1]
    ok = 3.3 <= ratio <= 4.7
    report_line(11, "central differences are second order", ok, ratio, 4.7)
    assert ok, f"error ratio {ratio:.3f} outside [3.3, 4.7]"
