"""The standing invariant suite behind ``fueterlab verify-props``.

Each check exercises one identity or equivalence the library is built
around — operator agreement between the cartesian and chart assemblies,
class closure, the Jacobian factorization, the slice-extension functional,
handedness pairings, coefficient classhood, and the mirror involution —
and reports a worst residual together with the tolerance it was judged
against.  Checks are deterministic given (seed, config); random sampling
uses a seeded generator so reruns are byte-identical apart from wall time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from .classify import ClassificationReport, classify, jacobian_check
from .diffops import (DiffConfig, class1_residual, fueter_left, fueter_right,
                      fueter_spherical, imaginary_derivative, point_rows,
                      spherical_cr_residuals)
from .function_model import (ComplexStem, DEFAULT_GRID, QFunction, SampleGrid, _composite,
                             cullen_extend, pointwise_product, pointwise_sum,
                             power_function, sample_cartesian, sample_uv)
from .generators import (chiral_difference, get_witness, mirror, rinehart_L,
                         rinehart_condition_residual, ci_extend_rinehart)
from .laurent import AnnulusRegion, coefficient_class_check, laurent_coefficients
from .quaternion_core import (Quaternion, SphericalPoint, from_spherical,
                              from_spherical_array, qabs_array, qconj_array, rows_shape)

WITNESS_NAMES = ("rho", "varrho", "sigma")
POWER_NAMES = tuple(f"pow:{n}" for n in (-2, -1, 0, 2, 3, 4)) + ("identity",)


@dataclass(frozen=True)
class CheckResult:
    """One labeled verdict from the invariant suite."""

    name: str
    passed: bool
    max_residual: float
    tolerance: float
    detail: str = ""

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed,
                "max_residual": self.max_residual,
                "tolerance": self.tolerance, "detail": self.detail}


def random_polynomial(rng) -> QFunction:
    """A random quaternion-coefficient polynomial in (t, x, y, z) of 2 to 5 terms.

    Smooth everywhere and generally not CE, which is exactly what the
    operator-equivalence sweep needs.
    """
    n_terms = int(rng.integers(2, 6))
    terms = []
    for _ in range(n_terms):
        coeff = Quaternion(*(float(c) for c in rng.normal(0.0, 1.0, size=4)))
        exps = tuple(int(e) for e in rng.integers(0, 3, size=4))
        terms.append((coeff, exps))
    terms = tuple(terms)

    def evaluator(p: Quaternion) -> Quaternion:
        total = Quaternion()
        for c, (et, ex, ey, ez) in terms:
            total = total + c * ((p.t ** et) * (p.x ** ex)
                                 * (p.y ** ey) * (p.z ** ez))
        return total

    def cartesian_array(points) -> np.ndarray:
        t, x, y, z = points
        # each coefficient as a column (4, 1, ..., 1) against the point axes
        return sum(point_rows(c).reshape((4,) + (1,) * len(rows_shape(points)))
                   * ((t ** et) * (x ** ex) * (y ** ey) * (z ** ez))
                   for c, (et, ex, ey, ez) in terms)

    return QFunction(name=f"poly:{len(terms)}-terms", evaluator=evaluator, kind="raw",
                     cartesian_array=cartesian_array)


def conjugate_function(f: QFunction) -> QFunction:
    """ p -> conj(f(p)); keeps the CE form with the sign of v flipped """

    def spherical(s: SphericalPoint) -> Quaternion:
        return f.at_spherical(s).conjugate()

    def cartesian_array(points) -> np.ndarray:
        return qconj_array(sample_cartesian(f, points))

    def uv_array(chart) -> tuple:
        u, v = f.uv_array(chart)
        return u, -v

    return _composite((f,), spherical, uv_array, name=f"conj:{f.name}", kind=f.kind,
                      evaluator=lambda p: f(p).conjugate(), cartesian_array=cartesian_array)


def _grid_points(stride: int) -> np.ndarray:
    """Chart rows of every stride-th node of the default grid.

    The witness checks sample here rather than uniformly at random: the
    grid ranges keep a fixed distance from the steep ridges of the
    inverse-trig witnesses, where finite differences lose their accuracy.
    """
    return DEFAULT_GRID.chart_array()[:, ::stride]


def _worst(values: np.ndarray) -> float:
    """ the largest norm among quaternion rows """
    return float(np.max(qabs_array(values)))


def _right_class2_residual(f: QFunction, chart: np.ndarray, cfg: DiffConfig) -> float:
    """ the largest |fueter_right f + 2 v / r| over chart rows: 0 for a right-Class II f """
    got = fueter_right(f, from_spherical_array(chart), cfg).value
    got[0] += 2.0 * sample_uv(f, chart)[1] / chart[1]
    return _worst(got)


def check_operator_equivalence(seed: int = 0, cfg: DiffConfig = DiffConfig()) -> CheckResult:
    """Cartesian and chart assemblies of the left operator agree on random
    smooth (non-CE) polynomials."""
    n_functions, n_points, tol = 20, 200, 1e-6
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_functions):
        f = random_polynomial(rng)
        chart = DEFAULT_GRID.random_chart(rng, n_points)
        left = fueter_left(f, from_spherical_array(chart), cfg).value
        worst = max(worst, _worst(left - fueter_spherical(f, chart, cfg).value))
    return CheckResult("operator-equivalence", worst <= tol, worst, tol,
                       f"{n_functions} random polynomials x {n_points} points")


def check_closure(cfg: DiffConfig = DiffConfig()) -> CheckResult:
    """Products, sums, real-coefficient combinations, and the algebraic
    inverse of power functions stay in the class of their factors; the
    product of slice-sweep and angle-only entries stays Class II."""
    grid = SampleGrid(n_per_axis=4)
    cases = []
    p2, p3 = power_function(2), power_function(3)
    cases.append((pointwise_product(p2, p3, name="pow:2*pow:3"), "class_III"))
    cases.append((pointwise_sum(p2, p3, name="pow:2+pow:3"), "class_III"))
    combo = cullen_extend(ComplexStem.laurent([(2, 1.0), (0, -3.0)]),
                          name="pow:2-3")
    cases.append((combo, "class_III"))
    cases.append((power_function(-1), "class_III"))
    rho = get_witness("rho").function
    mixed = pointwise_product(rho, power_function(1), name="rho*identity")
    cases.append((mixed, "class_II"))

    worst = 0.0
    failures = []
    for f, key in cases:
        report = classify(f, grid, cfg)
        stats = getattr(report, key)
        worst = max(worst, stats.max or 0.0)
        if stats.verdict != "pass" or not report.inclusion_consistent:
            failures.append(f"{f.name}:{key}={stats.verdict}")
    detail = "; ".join(failures) if failures else f"{len(cases)} combinations"
    return CheckResult("class-closure", not failures, worst, cfg.tol_abs * 100, detail)


def catalog_reports(grid: Optional[SampleGrid] = None,
                    cfg: DiffConfig = DiffConfig()) -> Dict[str, ClassificationReport]:
    """Classify the witness catalog plus the standard power range."""
    out = {}
    for name in WITNESS_NAMES + ("x-over-r-iota",) + POWER_NAMES:
        f = get_witness(name).function
        out[name] = classify(f, grid, cfg)
    return out


def check_inclusion(reports: Dict[str, ClassificationReport]) -> CheckResult:
    """Class verdict patterns match the catalog expectations and the
    containment chain III => II => I is never violated."""
    failures = []
    for name, report in reports.items():
        if not report.inclusion_consistent:
            failures.append(f"{name}: inclusion violated")
        expected = get_witness(name).expected
        for key, want in (expected or {}).items():
            got = report.passes(key)
            if got != want:
                failures.append(f"{name}: {key} pass={got}, expected {want}")
    detail = "; ".join(failures) if failures else f"{len(reports)} reports"
    return CheckResult("inclusion-chain", not failures, 0.0, 0.0, detail)


def check_jacobian(seed: int = 0, cfg: DiffConfig = DiffConfig()) -> CheckResult:
    """det of the 4x4 derivative of p^2 matches its scalar factorization,
    including the exact value 32 at 1 + i."""
    n_points, tol = 100, 1e-4
    rng = np.random.default_rng(seed)
    f = power_function(2)
    res = jacobian_check(f, from_spherical_array(DEFAULT_GRID.random_chart(rng, n_points)), cfg)
    worst = float(np.max(np.abs(res.det_numeric - res.det_formula)
                         / (1.0 + np.abs(res.det_formula))))
    res = jacobian_check(f, Quaternion(1.0, 1.0, 0.0, 0.0), cfg)
    exact_err = max(abs(res.det_numeric - 32.0), abs(res.det_formula - 32.0))
    passed = worst <= tol and exact_err <= 1e-6
    return CheckResult("jacobian-factorization", passed, max(worst, exact_err), tol,
                       f"rel err {worst:.2e} on {n_points} points; "
                       f"|det(1+i) - 32| = {exact_err:.2e}")


def check_spherical_cr(cfg: DiffConfig = DiffConfig(),
                       grid: Optional[SampleGrid] = None) -> CheckResult:
    """Angle-direction CR residuals vanish on the Class II witnesses and do
    not vanish on the Class I-only witness."""
    tol = 1e-5
    mesh = (grid or DEFAULT_GRID).mesh()
    largest = {name: float(np.max(np.abs(spherical_cr_residuals(get_witness(name).function,
                                                                mesh, cfg))))
               for name in WITNESS_NAMES + ("pow:2", "x-over-r-iota")}
    counter = largest.pop("x-over-r-iota")
    worst = max(largest.values())
    passed = worst <= tol and counter > 1e-2
    return CheckResult("spherical-cr-witnesses", passed, worst, tol,
                       f"counterexample witness residual {counter:.3f}")


def check_extension_equivalence(cfg: DiffConfig = DiffConfig()) -> CheckResult:
    """A sweep is left-regular exactly when its stem satisfies the slice
    extension condition: images of the extension functional pass, a plain
    power stem fails both sides."""
    tol = 1e-5
    points = from_spherical_array(_grid_points(13))
    worst = 0.0
    for terms in ([(3, 1.0)], [(-1, 1.0)]):
        g = rinehart_L(ComplexStem.laurent(terms))
        f = ci_extend_rinehart(g, cfg=cfg)
        worst = max(worst, _worst(fueter_left(f, points, cfg).value))

    bad_stem = ComplexStem.laurent([(2, 1.0)])
    z = complex(0.7, 0.9)
    cond = rinehart_condition_residual(bad_stem, z)
    bad_max = _worst(fueter_left(power_function(2), points[:, :40], cfg).value)
    passed = worst <= tol and cond > 1e-2 and bad_max > 1e-2
    return CheckResult("extension-equivalence", passed, worst, tol,
                       f"converse: condition residual {cond:.2f}, "
                       f"operator magnitude {bad_max:.2f}")


def check_extension_functional() -> CheckResult:
    """The extension functional maps analytic stems into the condition's
    solution set; two closed-form images are reproduced exactly."""
    tol = 1e-6
    stems = [ComplexStem.laurent([(n, 1.0)]) for n in (1, 2, 3, 4, -1)]
    z = np.array([complex(x * 0.3 - 0.9, 0.5 + y * 0.25) for x in range(7) for y in range(5)])
    # np.max, unlike max, lets a NaN through to fail the check
    worst = float(np.max([rinehart_condition_residual(rinehart_L(stem), z) for stem in stems]))

    g2 = rinehart_L(ComplexStem.laurent([(2, 1.0)]))
    g3 = rinehart_L(ComplexStem.laurent([(3, 1.0)]))
    closed = float(np.max([np.abs(g2.eval_array(z) - (-2.0)),
                           np.abs(g3.eval_array(z) - (-6.0 * z.real - 2j * z.imag))]))
    passed = worst <= tol and closed <= 1e-10
    return CheckResult("extension-functional", passed, max(worst, closed), tol,
                       f"closed-form deviation {closed:.2e}")


def check_imaginary_derivative(cfg: DiffConfig = DiffConfig()) -> CheckResult:
    """The angular derivative collapses to the scalar 2v on Class II
    functions."""
    tol = 1e-5
    chart = _grid_points(7)
    worst = 0.0
    for name in ("identity",) + WITNESS_NAMES + ("pow:2",):
        f = get_witness(name).function
        got = imaginary_derivative(f, chart, cfg).value
        got[0] -= 2.0 * sample_uv(f, chart)[1]
        worst = max(worst, _worst(got))
    return CheckResult("imaginary-derivative", worst <= tol, worst, tol,
                       "identity + angle witnesses + pow:2")


def check_conjugate_right(cfg: DiffConfig = DiffConfig()) -> CheckResult:
    """Conjugating an angle-only Class II function yields a right-Class II
    function (with its own v, which conjugation negates)."""
    tol = 1e-5
    chart = _grid_points(11)
    worst = 0.0
    for name in WITNESS_NAMES:
        fbar = conjugate_function(get_witness(name).function)
        worst = max(worst, _right_class2_residual(fbar, chart, cfg))
    return CheckResult("conjugate-right-handed", worst <= tol, worst, tol,
                       "angle witnesses under conjugation")


def check_centrality(reports: Dict[str, ClassificationReport]) -> CheckResult:
    """Centrality agrees with Class III on the catalog, whose members are all
    Class I: central iff the angular residual passes; within Class I that is
    Class III."""
    failures = []
    for name, report in reports.items():
        central = report.centrality.verdict == "central"
        three = report.class_III.verdict == "pass"
        if central != three:
            failures.append(f"{name}: centrality={report.centrality.verdict}, "
                            f"class III={report.class_III.verdict}")
    detail = "; ".join(failures) if failures else f"{len(reports)} reports"
    return CheckResult("centrality-agreement", not failures, 0.0, 0.0, detail)


def check_coefficient_classhood(cfg: DiffConfig = DiffConfig()) -> CheckResult:
    """Series coefficient fields a_n(alpha, beta) of Class II sources are
    themselves Class II."""
    tol = 1e-5
    region = AnnulusRegion(0.0, 1.0, 0.2, 0.6, n_alpha=3, n_beta=3)
    worst = 0.0
    failures = []
    for name in ("rho", "pow:2"):
        f = get_witness(name).function
        series = laurent_coefficients(f, region, n_range=(-4, 4),
                                      quadrature_points=64)
        for n, stats in coefficient_class_check(series, cfg).items():
            worst = max(worst, stats["max_residual"])
            if stats["verdict"] != "pass":
                failures.append(f"{name}: order {n}")
    detail = "; ".join(failures) if failures else "rho, pow:2 on a 3x3 window"
    return CheckResult("coefficient-classhood", not failures and worst <= tol,
                       worst, tol, detail)


def check_mirror(seed: int = 0, cfg: DiffConfig = DiffConfig()) -> CheckResult:
    """The mirror is an involution, sends left-Class II to right-Class II,
    and gives each slice (alpha, beta) the series coefficients of its input on
    the antipodal slice (alpha - pi, pi - beta)."""
    tol = 1e-5
    rng = np.random.default_rng(seed)
    points = from_spherical_array(DEFAULT_GRID.random_chart(rng, 80))

    invol = 0.0
    for name in ("rho", "pow:3"):
        f = get_witness(name).function
        invol = max(invol, _worst(sample_cartesian(mirror(mirror(f)), points)
                                  - sample_cartesian(f, points)))

    rho = get_witness("rho").function
    mrho = mirror(rho)
    # on the grid, as the other witness checks: a random point may fall within
    # a stencil step of mirror(rho)'s branch cut alpha = 0, where u jumps by 2 pi
    right = _right_class2_residual(mrho, _grid_points(11), cfg)

    def expand(f, alpha_window):
        region = AnnulusRegion(0.0, 1.0, 0.2, 0.6, alpha_window, n_alpha=3, n_beta=3)
        return laurent_coefficients(f, region, n_range=(-2, 2), quadrature_points=64).coefficients

    # windows clear of alpha = 0 and +-pi; pi - beta reverses the beta window
    series, antipodal = expand(mrho, (0.1, 0.5)), expand(rho, (0.1 - math.pi, 0.5 - math.pi))
    series_dev = max(float(np.max(np.abs(series[n] - antipodal[n][:, ::-1]))) for n in series)

    passed = invol <= 1e-12 and right <= tol and series_dev <= 1e-8
    return CheckResult("mirror-involution", passed, max(invol, right, series_dev), tol,
                       f"involution {invol:.1e}; right-handed residual {right:.2e}; "
                       f"antipodal-slice series deviation {series_dev:.2e}")


def check_chirality_pairing(cfg: DiffConfig = DiffConfig()) -> CheckResult:
    """Left operator on f and right operator on conj(f) cancel for the
    angle-only Class II witnesses."""
    tol = 1e-6
    points = from_spherical_array(_grid_points(11))
    worst = 0.0
    for name in WITNESS_NAMES:
        f = get_witness(name).function
        total = (fueter_left(f, points, cfg).value
                 + fueter_right(conjugate_function(f), points, cfg).value)
        worst = max(worst, _worst(total))
    return CheckResult("chirality-pairing", worst <= tol, worst, tol,
                       "left(f) + right(conj f) over the angle witnesses")


def check_decomposition(cfg: DiffConfig = DiffConfig()) -> CheckResult:
    """The left operator splits into the slice part minus the angular part
    over r, within combined stencil error."""
    chart = _grid_points(29)
    points = from_spherical_array(chart)
    r = chart[1]
    worst = 0.0
    excess = 0.0
    for name in WITNESS_NAMES + ("x-over-r-iota", "identity", "pow:2"):
        f = get_witness(name).function
        left = fueter_left(f, points, cfg)
        hol = class1_residual(f, chart, cfg)
        imag = imaginary_derivative(f, chart, cfg)
        resid = qabs_array(left.value - (hol.value - imag.value / r))
        bound = (cfg.point_tolerance(qabs_array(sample_cartesian(f, points)))
                 + 10.0 * (left.estimated_error + hol.estimated_error
                           + imag.estimated_error / r))
        worst = max(worst, float(np.max(resid)))
        excess = max(excess, float(np.max(resid - bound)))
    return CheckResult("operator-decomposition", excess <= 0.0, worst,
                       cfg.point_tolerance(1.0),
                       "slice part minus angular part over r, full catalog")


def check_chiral_regularity(cfg: DiffConfig = DiffConfig(), seed: int = 0) -> CheckResult:
    """The left-minus-right difference of a Class II function is
    left-regular; for Class III it vanishes identically."""
    tol = 1e-4
    rng = np.random.default_rng(seed)
    rho = get_witness("rho").function
    delta = chiral_difference(rho, inner=cfg)
    outer = DiffConfig(h=1e-4, scheme="richardson",
                       tol_abs=cfg.tol_abs, tol_rel=cfg.tol_rel)
    points = from_spherical_array(DEFAULT_GRID.random_chart(rng, 15))
    worst = _worst(fueter_left(delta, points, outer).value)

    p3 = get_witness("pow:3").function
    delta3 = chiral_difference(p3, inner=cfg)
    vanish = _worst(sample_cartesian(
        delta3, from_spherical_array(DEFAULT_GRID.random_chart(rng, 40))))
    passed = worst <= tol and vanish <= 1e-8
    return CheckResult("chiral-regularity", passed, worst, tol,
                       f"pow:3 difference magnitude {vanish:.2e}")


def check_convergence_order(cfg: DiffConfig = DiffConfig()) -> CheckResult:
    """Central differences on a cubic shrink by ~4x when h halves.

    Below h = 1e-3 the halved step drops into the rounding floor, so the
    ratio is probed at or above that scale regardless of the configured h.
    """
    h = max(cfg.h, 1e-3)
    f = power_function(3)
    s = SphericalPoint(0.37, 0.94, 0.61, 1.18)
    q = from_spherical(s)
    w = complex(s.t, s.r) ** 3
    exact = Quaternion(-2.0 * w.imag / s.r)

    def err(step: float) -> float:
        c = DiffConfig(h=step, scheme="central")
        return abs(fueter_left(f, q, c).value - exact)

    e1, e2 = err(h), err(h / 2.0)
    ratio = e1 / e2 if e2 > 0 else math.inf
    passed = 3.3 <= ratio <= 4.7
    return CheckResult("convergence-order", passed, ratio, 4.7,
                       f"error {e1:.3e} -> {e2:.3e} under h -> h/2 at h={h:g}")


def run_all_checks(seed: int = 0, cfg: DiffConfig = DiffConfig(),
                   grid: Optional[SampleGrid] = None) -> List[CheckResult]:
    """Run the full invariant suite in a stable order."""
    reports = catalog_reports(grid, cfg)
    return [
        check_operator_equivalence(seed, cfg),
        check_closure(cfg),
        check_inclusion(reports),
        check_jacobian(seed, cfg),
        check_spherical_cr(cfg, grid),
        check_extension_equivalence(cfg),
        check_extension_functional(),
        check_imaginary_derivative(cfg),
        check_conjugate_right(cfg),
        check_centrality(reports),
        check_coefficient_classhood(cfg),
        check_mirror(seed, cfg),
        check_chirality_pairing(cfg),
        check_decomposition(cfg),
        check_chiral_regularity(cfg, seed),
        check_convergence_order(cfg),
    ]
