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
from typing import Dict, List, Optional, Sequence

import numpy as np

from .classify import ClassificationReport, classify, jacobian_check
from .diffops import (DiffConfig, class1_residual, fueter_left, fueter_right,
                      fueter_spherical, imaginary_derivative,
                      spherical_cr_residuals)
from .function_model import (ComplexStem, DEFAULT_GRID, QFunction, SampleGrid,
                             cullen_extend, pointwise_product, pointwise_sum,
                             power_function, uv_at)
from .generators import (chiral_difference, get_witness, mirror, rinehart_L,
                         rinehart_condition_residual, ci_extend_rinehart)
from .laurent import (AnnulusRegion, coefficient_class_check,
                      laurent_coefficients, mirrored_center_coefficients)
from .quaternion_core import Quaternion, SphericalPoint, from_spherical

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


def random_polynomial(rng, max_terms: int = 5) -> QFunction:
    """A random quaternion-coefficient polynomial in (t, x, y, z).

    Smooth everywhere and generally not CE, which is exactly what the
    operator-equivalence sweep needs.
    """
    n_terms = int(rng.integers(2, max_terms + 1))
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

    return QFunction(name=f"poly:{len(terms)}-terms", evaluator=evaluator, kind="raw")


def conjugate_function(f: QFunction) -> QFunction:
    """ p -> conj(f(p)); keeps the CE form with the sign of v flipped """
    return QFunction(name=f"conj:{f.name}", evaluator=lambda p: f(p).conjugate(),
                     kind=f.kind if f.is_ce else "raw", domain=f.domain)


def _sample_points(rng, n: int, grid: SampleGrid) -> List[SphericalPoint]:
    return grid.random_points(rng, n)


def _grid_points(grid: SampleGrid, stride: int = 1) -> List[SphericalPoint]:
    """Every stride-th node of the grid.

    The witness checks sample here rather than uniformly at random: the
    grid ranges keep a fixed distance from the steep ridges of the
    inverse-trig witnesses, where finite differences lose their accuracy.
    """
    return list(grid.points())[::stride]


def check_operator_equivalence(seed: int = 0, cfg: DiffConfig = DiffConfig(),
                               n_functions: int = 20, n_points: int = 200,
                               tol: float = 1e-6) -> CheckResult:
    """Cartesian and chart assemblies of the left operator agree on random
    smooth (non-CE) polynomials."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_functions):
        f = random_polynomial(rng)
        for s in _sample_points(rng, n_points, DEFAULT_GRID):
            q = from_spherical(s)
            left = fueter_left(f, q, cfg).value
            chart = fueter_spherical(f, s, cfg).value
            worst = max(worst, abs(left - chart))
    return CheckResult("operator-equivalence", worst <= tol, worst, tol,
                       f"{n_functions} random polynomials x {n_points} points")


def check_closure(cfg: DiffConfig = DiffConfig(),
                  grid: Optional[SampleGrid] = None) -> CheckResult:
    """Products, sums, real-coefficient combinations, and the algebraic
    inverse of power functions stay in the class of their factors; the
    product of slice-sweep and angle-only entries stays Class II."""
    grid = grid or SampleGrid(n_per_axis=4)
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
                    cfg: DiffConfig = DiffConfig(),
                    names: Optional[Sequence[str]] = None
                    ) -> Dict[str, ClassificationReport]:
    """Classify the witness catalog plus the standard power range."""
    if names is None:
        names = ("rho", "varrho", "sigma", "x-over-r-iota") + POWER_NAMES
    out = {}
    for name in names:
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


def check_jacobian(seed: int = 0, cfg: DiffConfig = DiffConfig(),
                   n_points: int = 100, tol: float = 1e-4) -> CheckResult:
    """det of the 4x4 derivative of p^2 matches its scalar factorization,
    including the exact value 32 at 1 + i."""
    rng = np.random.default_rng(seed)
    f = power_function(2)
    worst = 0.0
    for s in _sample_points(rng, n_points, DEFAULT_GRID):
        res = jacobian_check(f, from_spherical(s), cfg)
        worst = max(worst, abs(res.det_numeric - res.det_formula)
                    / (1.0 + abs(res.det_formula)))
    res = jacobian_check(f, Quaternion(1.0, 1.0, 0.0, 0.0), cfg)
    exact_err = max(abs(res.det_numeric - 32.0), abs(res.det_formula - 32.0))
    passed = worst <= tol and exact_err <= 1e-6
    return CheckResult("jacobian-factorization", passed, max(worst, exact_err), tol,
                       f"rel err {worst:.2e} on {n_points} points; "
                       f"|det(1+i) - 32| = {exact_err:.2e}")


def check_spherical_cr(cfg: DiffConfig = DiffConfig(),
                       grid: Optional[SampleGrid] = None,
                       tol: float = 1e-5) -> CheckResult:
    """Angle-direction CR residuals vanish on the Class II witnesses and do
    not vanish on the Class I-only witness."""
    grid = grid or DEFAULT_GRID
    worst = 0.0
    for name in WITNESS_NAMES + ("pow:2",):
        f = get_witness(name).function
        for s in grid.points():
            s1, s2 = spherical_cr_residuals(f, s, cfg)
            worst = max(worst, abs(s1), abs(s2))
    xri = get_witness("x-over-r-iota").function
    counter = 0.0
    for s in grid.points():
        s1, s2 = spherical_cr_residuals(xri, s, cfg)
        counter = max(counter, abs(s1), abs(s2))
    passed = worst <= tol and counter > 1e-2
    return CheckResult("spherical-cr-witnesses", passed, worst, tol,
                       f"counterexample witness residual {counter:.3f}")


def check_extension_equivalence(cfg: DiffConfig = DiffConfig(),
                                stride: int = 13,
                                tol: float = 1e-5) -> CheckResult:
    """A sweep is left-regular exactly when its stem satisfies the slice
    extension condition: images of the extension functional pass, a plain
    power stem fails both sides."""
    points = [from_spherical(s) for s in _grid_points(DEFAULT_GRID, stride)]
    worst = 0.0
    for terms in ([(3, 1.0)], [(-1, 1.0)]):
        g = rinehart_L(ComplexStem.laurent(terms))
        f = ci_extend_rinehart(g, cfg=cfg)
        for q in points:
            worst = max(worst, abs(fueter_left(f, q, cfg).value))

    bad_stem = ComplexStem.laurent([(2, 1.0)])
    z = complex(0.7, 0.9)
    cond = rinehart_condition_residual(bad_stem, z)
    bad_max = max(abs(fueter_left(power_function(2), q, cfg).value)
                  for q in points[:40])
    passed = worst <= tol and cond > 1e-2 and bad_max > 1e-2
    return CheckResult("extension-equivalence", passed, worst, tol,
                       f"converse: condition residual {cond:.2f}, "
                       f"operator magnitude {bad_max:.2f}")


def check_extension_functional(tol: float = 1e-6) -> CheckResult:
    """The extension functional maps analytic stems into the condition's
    solution set; two closed-form images are reproduced exactly."""
    stems = [ComplexStem.laurent([(n, 1.0)]) for n in (1, 2, 3, 4, -1)]
    samples = [complex(x * 0.3 - 0.9, 0.5 + y * 0.25)
               for x in range(7) for y in range(5)]
    worst = 0.0
    for stem in stems:
        g = rinehart_L(stem)
        for z in samples:
            if not g.domain_ok(z):
                continue
            worst = max(worst, rinehart_condition_residual(g, z))

    g2 = rinehart_L(ComplexStem.laurent([(2, 1.0)]))
    g3 = rinehart_L(ComplexStem.laurent([(3, 1.0)]))
    closed = 0.0
    for z in samples:
        closed = max(closed, abs(g2.eval(z) - (-2.0)),
                     abs(g3.eval(z) - (-6.0 * z.real - 2j * z.imag)))
    passed = worst <= tol and closed <= 1e-10
    return CheckResult("extension-functional", passed, max(worst, closed), tol,
                       f"closed-form deviation {closed:.2e}")


def check_imaginary_derivative(cfg: DiffConfig = DiffConfig(),
                               stride: int = 7,
                               tol: float = 1e-5) -> CheckResult:
    """The angular derivative collapses to the scalar 2v on Class II
    functions."""
    worst = 0.0
    for name in ("identity",) + WITNESS_NAMES + ("pow:2",):
        f = get_witness(name).function
        for s in _grid_points(DEFAULT_GRID, stride):
            got = imaginary_derivative(f, s, cfg).value
            _, v = uv_at(f, from_spherical(s))
            worst = max(worst, abs(got - Quaternion(2.0 * v)))
    return CheckResult("imaginary-derivative", worst <= tol, worst, tol,
                       "identity + angle witnesses + pow:2")


def check_conjugate_right(cfg: DiffConfig = DiffConfig(),
                          stride: int = 11, tol: float = 1e-5) -> CheckResult:
    """Conjugating an angle-only Class II function yields a right-Class II
    function (with its own v, which conjugation negates)."""
    worst = 0.0
    for name in WITNESS_NAMES:
        fbar = conjugate_function(get_witness(name).function)
        for s in _grid_points(DEFAULT_GRID, stride):
            q = from_spherical(s)
            _, vbar = uv_at(fbar, q)
            got = fueter_right(fbar, q, cfg).value
            worst = max(worst, abs(got + Quaternion(2.0 * vbar / s.r)))
    return CheckResult("conjugate-right-handed", worst <= tol, worst, tol,
                       "angle witnesses under conjugation")


def check_centrality(reports: Dict[str, ClassificationReport]) -> CheckResult:
    """Left/right operator agreement holds exactly on the Class III part of
    the catalog."""
    failures = []
    for name, report in reports.items():
        central = report.centrality.verdict == "central"
        three = report.class_III.verdict == "pass"
        if central != three:
            failures.append(f"{name}: centrality={report.centrality.verdict}, "
                            f"class III={report.class_III.verdict}")
    detail = "; ".join(failures) if failures else f"{len(reports)} reports"
    return CheckResult("centrality-agreement", not failures, 0.0, 0.0, detail)


def check_coefficient_classhood(cfg: DiffConfig = DiffConfig(),
                                tol: float = 1e-5) -> CheckResult:
    """Series coefficient fields a_n(alpha, beta) of Class II sources are
    themselves Class II."""
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


def check_mirror(seed: int = 0, cfg: DiffConfig = DiffConfig(),
                 n_points: int = 80, tol: float = 1e-5) -> CheckResult:
    """The mirror is an involution, sends left-Class II to right-Class II,
    and conjugates series coefficients about the mirrored center."""
    rng = np.random.default_rng(seed)
    points = [from_spherical(s) for s in _sample_points(rng, n_points, DEFAULT_GRID)]

    invol = 0.0
    for name in ("rho", "pow:3"):
        f = get_witness(name).function
        mm = mirror(mirror(f))
        for q in points:
            invol = max(invol, abs(mm(q) - f(q)))

    rho = get_witness("rho").function
    mrho = mirror(rho)
    right = 0.0
    for q in points:
        _, vm = uv_at(mrho, q)
        got = fueter_right(mrho, q, cfg).value
        right = max(right, abs(got + Quaternion(2.0 * vm / q.vector_norm())))

    region = AnnulusRegion(0.0, 1.0, 0.2, 0.6, n_alpha=3, n_beta=3)
    series = laurent_coefficients(rho, region, n_range=(-2, 2), quadrature_points=64)
    mirrored = mirrored_center_coefficients(mrho, region, n_range=(-2, 2),
                                            quadrature_points=64)
    series_dev = 0.0
    for n, grid_vals in mirrored.items():
        series_dev = max(series_dev,
                         float(np.max(np.abs(grid_vals - np.conj(series.coefficients[n])))))

    passed = invol <= 1e-12 and right <= tol and series_dev <= 1e-8
    return CheckResult("mirror-involution", passed, max(invol, right, series_dev), tol,
                       f"involution {invol:.1e}; right-handed residual {right:.2e}; "
                       f"mirrored-center series deviation {series_dev:.2e}")


def check_chirality_pairing(cfg: DiffConfig = DiffConfig(),
                            stride: int = 11, tol: float = 1e-6) -> CheckResult:
    """Left operator on f and right operator on conj(f) cancel for the
    angle-only Class II witnesses."""
    worst = 0.0
    for name in WITNESS_NAMES:
        f = get_witness(name).function
        fbar = conjugate_function(f)
        for s in _grid_points(DEFAULT_GRID, stride):
            q = from_spherical(s)
            total = fueter_left(f, q, cfg).value + fueter_right(fbar, q, cfg).value
            worst = max(worst, abs(total))
    return CheckResult("chirality-pairing", worst <= tol, worst, tol,
                       "left(f) + right(conj f) over the angle witnesses")


def check_decomposition(cfg: DiffConfig = DiffConfig(),
                        stride: int = 29) -> CheckResult:
    """The left operator splits into the slice part minus the angular part
    over r, within combined stencil error."""
    worst = 0.0
    excess = 0.0
    for name in WITNESS_NAMES + ("x-over-r-iota", "identity", "pow:2"):
        f = get_witness(name).function
        for s in _grid_points(DEFAULT_GRID, stride):
            q = from_spherical(s)
            left = fueter_left(f, q, cfg)
            hol = class1_residual(f, s, cfg)
            imag = imaginary_derivative(f, s, cfg)
            resid = abs(left.value - (hol.value - imag.value / s.r))
            bound = (cfg.point_tolerance(abs(f(q)))
                     + 10.0 * (left.estimated_error + hol.estimated_error
                               + imag.estimated_error / s.r))
            worst = max(worst, resid)
            excess = max(excess, resid - bound)
    return CheckResult("operator-decomposition", excess <= 0.0, worst,
                       cfg.point_tolerance(1.0),
                       "slice part minus angular part over r, full catalog")


def check_chiral_regularity(cfg: DiffConfig = DiffConfig(),
                            seed: int = 0, n_points: int = 15,
                            tol: float = 1e-4) -> CheckResult:
    """The left-minus-right difference of a Class II function is
    left-regular; for Class III it vanishes identically."""
    rng = np.random.default_rng(seed)
    rho = get_witness("rho").function
    delta = chiral_difference(rho, inner=cfg)
    outer = DiffConfig(h=1e-4, scheme="richardson",
                       tol_abs=cfg.tol_abs, tol_rel=cfg.tol_rel)
    worst = 0.0
    for s in _sample_points(rng, n_points, DEFAULT_GRID):
        worst = max(worst, abs(fueter_left(delta, from_spherical(s), outer).value))

    p3 = get_witness("pow:3").function
    delta3 = chiral_difference(p3, inner=cfg)
    vanish = max(abs(delta3(from_spherical(s)))
                 for s in _sample_points(rng, 40, DEFAULT_GRID))
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
    results = [
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
    return results
