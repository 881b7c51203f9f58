"""Named witnesses and derived-function generators.

The catalog registers the closed-form functions used throughout the test
surface under stable string names:

* "identity", "pow:n"  — powers p^n swept from z^n (Class III);
* "rho", "varrho", "sigma" — the three angle-only witnesses that are
  Class II but not Class III (azimuth-type u plus inverse-hyperbolic v,
  cyclically permuted axes);
* "x-over-r-iota" — u = 0, v = x/r: Class I but not Class II.

Generators build new functions from old:

* rinehart_L(stem): g = (i/y) stem' - i Im(stem)/y^2, which satisfies the
  non-analytic slice condition dg/dx + i dg/dy = 2 Im(g)/y;
* ci_extend_rinehart(g): sweeps such a g into a left-regular function
  after checking the condition on samples;
* chiral_difference(f): fueter_left f - fueter_right f from shared
  stencils (left-regular whenever f is Class II, identically zero iff f
  is Class III);
* mirror(f): p -> conj(f(conj(p))), an involution exchanging left- and
  right-handed classes.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Dict, Mapping, Optional

import numpy as np

from .classify import classify
from .diffops import DiffConfig
from .function_model import (
    DEFAULT_GRID,
    ComplexStem,
    FunctionKindError,
    NAMED_STEMS,
    QFunction,
    SampleGrid,
    cullen_extend,
    from_uv,
    pointwise_product,
    pointwise_sum,
    power_function,
)
from .quaternion_core import I, J, K, DomainError, Quaternion, SphericalPoint


class SpecError(ValueError):
    """A function spec string that the micro-grammar does not accept."""


@dataclass(frozen=True)
class WitnessEntry:
    """A catalog row: the function, its expected verdicts, and a human-readable formula."""

    name: str
    function: QFunction
    expected: Mapping[str, bool]
    formula: str


def _atanh(x: float) -> float:
    if not -1.0 < x < 1.0:
        raise DomainError(f"atanh argument {x} outside (-1, 1)")
    return math.atanh(x)


def _atanh_array(x: np.ndarray) -> np.ndarray:
    """ artanh with NaN wherever _atanh raises """
    return np.where(np.abs(x) < 1.0, np.arctanh(x), np.nan)


def _make_rho() -> QFunction:
    expected = {"class_I": True, "class_II": True, "class_III": False, "regular": False}
    return from_uv(lambda s: s.alpha,
                   lambda s: math.log(math.tan(s.beta / 2.0)),
                   name="rho", classes=expected,
                   uv_array=lambda c: (c[2], np.log(np.tan(c[3] / 2.0))))


def _make_varrho() -> QFunction:
    expected = {"class_I": True, "class_II": True, "class_III": False, "regular": False}

    def u(s: SphericalPoint) -> float:
        return math.atan2(math.sin(s.alpha) * math.sin(s.beta), math.cos(s.beta))

    def v(s: SphericalPoint) -> float:
        return _atanh(math.cos(s.alpha) * math.sin(s.beta))

    def uv_array(c):
        _, _, alpha, beta = c
        return (np.arctan2(np.sin(alpha) * np.sin(beta), np.cos(beta)),
                _atanh_array(np.cos(alpha) * np.sin(beta)))

    return from_uv(u, v, name="varrho", classes=expected, uv_array=uv_array)


def _make_sigma() -> QFunction:
    expected = {"class_I": True, "class_II": True, "class_III": False, "regular": False}

    def u(s: SphericalPoint) -> float:
        return math.atan2(math.cos(s.beta), math.cos(s.alpha) * math.sin(s.beta))

    def v(s: SphericalPoint) -> float:
        return _atanh(math.sin(s.alpha) * math.sin(s.beta))

    def uv_array(c):
        _, _, alpha, beta = c
        return (np.arctan2(np.cos(beta), np.cos(alpha) * np.sin(beta)),
                _atanh_array(np.sin(alpha) * np.sin(beta)))

    return from_uv(u, v, name="sigma", classes=expected, uv_array=uv_array)


def _make_xri() -> QFunction:
    expected = {"class_I": True, "class_II": False, "class_III": False, "regular": False}
    return from_uv(lambda s: 0.0,
                   lambda s: math.cos(s.alpha) * math.sin(s.beta),
                   name="x-over-r-iota", classes=expected,
                   uv_array=lambda c: (np.zeros_like(c[2]), np.cos(c[2]) * np.sin(c[3])))


CATALOG: Dict[str, WitnessEntry] = {}


def _register(entry: WitnessEntry):
    CATALOG[entry.name] = entry


for _f, _formula in ((power_function(1), "p"),
                     (_make_rho(), "alpha + iota*ln(tan(beta/2))"),
                     (_make_varrho(), "arctan(y/z) + iota*artanh(x/r)"),
                     (_make_sigma(), "arctan(z/x) + iota*artanh(y/r)"),
                     (_make_xri(), "(x/r)*iota")):
    _register(WitnessEntry(_f.name, _f, _f.classes, _formula))

_POW_RE = re.compile(r"^pow:(-?\d+)$")


def catalog_names() -> list:
    """ fixed catalog names; powers address as pow:<int> """
    return sorted(CATALOG)


def get_witness(name: str) -> WitnessEntry:
    """Look up a fixed catalog entry or materialize a power entry."""
    if name in CATALOG:
        return CATALOG[name]
    m = _POW_RE.match(name)
    if m:
        n = int(m.group(1))
        f = power_function(n)
        return WitnessEntry(name, f, f.classes, f"p^{n}")
    raise SpecError(f"unknown catalog name {name!r}")


def rinehart_L(stem: ComplexStem) -> ComplexStem:
    """The slice-extension functional g = (i/y) stem'(z) - i Im(stem(z)) / y^2.

    For an analytic stem the image satisfies dg/dx + i dg/dy = 2 Im(g)/y on
    the upper half plane, so its sweep around the real axis is left-regular.
    The derivative is exact for finite Laurent combinations and falls back
    to complex central differences for named closed forms.
    """

    def g(z: complex) -> complex:
        y = z.imag
        return (1j / y) * stem.derivative(z) - 1j * stem.eval(z).imag / (y * y)

    return ComplexStem.named(f"L:{stem.label}", g, domain_ok=stem.domain_ok)


def rinehart_condition_residual(g: ComplexStem, z: complex, h: float = 1e-6) -> float:
    """ |dg/dx + i dg/dy - 2 Im(g)/y| by central differences """
    wx = (g.eval(z + h) - g.eval(z - h)) / (2.0 * h)
    wy = (g.eval(z + h * 1j) - g.eval(z - h * 1j)) / (2.0 * h)
    return abs(wx + 1j * wy - 2.0 * g.eval(z).imag / z.imag)


def ci_extend_rinehart(g: ComplexStem, grid: Optional[SampleGrid] = None,
                       cfg: DiffConfig = DiffConfig()) -> QFunction:
    """Sweep a slice profile satisfying the extension condition.

    Checks the condition dg/dx + i dg/dy = 2 Im(g)/y on the (t, r) nodes of
    the grid first and raises DomainError if any sample violates it; the
    returned function is then left-regular by construction.
    """
    grid = grid or DEFAULT_GRID
    ts, rs, _, _ = grid.axes()
    checked = 0
    for t in ts:
        for r in rs:
            z = complex(t, r)
            if not g.domain_ok(z):
                continue
            scale = abs(g.eval(z))
            resid = rinehart_condition_residual(g, z)
            if resid > cfg.point_tolerance(scale):
                raise DomainError(
                    f"{g.label!r} violates the slice extension condition at {z}: "
                    f"residual {resid:.3e} > {cfg.point_tolerance(scale):.3e}")
            checked += 1
    if checked == 0:
        raise DomainError(f"no admissible (t, r) samples for {g.label!r} on the grid")
    return cullen_extend(g, name=g.label)


def chiral_difference(f: QFunction, inner: DiffConfig = DiffConfig(),
                      check_grid: Optional[SampleGrid] = None) -> QFunction:
    """fueter_left f - fueter_right f as a lazily evaluated function.

    Meaningful for Class II inputs (where the result is left-regular); a
    function without a Class II expectation in its metadata is spot-checked
    on a coarse grid and rejected if it fails.
    """
    if not f.is_ce:
        raise FunctionKindError(f"{f.name}: chiral difference needs a CE/CI function")
    if f.classes is not None:
        if not f.classes.get("class_II", False):
            raise DomainError(f"{f.name} is not Class II; chiral difference undefined")
    else:
        grid = check_grid or SampleGrid(n_per_axis=3)
        report = classify(f, grid, inner)
        if report.class_II.verdict != "pass":
            raise DomainError(
                f"{f.name} failed the Class II spot check "
                f"(max residual {report.class_II.max}); chiral difference undefined")

    h_offsets = (inner.h, -inner.h, inner.h / 2.0, -inner.h / 2.0) \
        if inner.scheme == "richardson" else (inner.h, -inner.h)

    def evaluator(p: Quaternion) -> Quaternion:
        diffs = []
        for axis in range(1, 4):
            samples = {}
            for d in h_offsets:
                q = Quaternion(p.t,
                               p.x + (d if axis == 1 else 0.0),
                               p.y + (d if axis == 2 else 0.0),
                               p.z + (d if axis == 3 else 0.0))
                samples[d] = f(q)
            d1 = (samples[inner.h] - samples[-inner.h]) / (2.0 * inner.h)
            if inner.scheme == "richardson":
                d2 = (samples[inner.h / 2.0] - samples[-inner.h / 2.0]) / inner.h
                d1 = (d2 * 4.0 - d1) / 3.0
            diffs.append(d1)
        dx, dy, dz = diffs
        # the time derivative cancels; only the unit commutators survive
        return I * dx - dx * I + J * dy - dy * J + K * dz - dz * K

    return QFunction(name=f"chiral:{f.name}", evaluator=evaluator, kind="raw",
                     domain=f.domain)


_CONJUGATE = np.array([[1.0], [-1.0], [-1.0], [-1.0]])


def _wrap_angle(a: float) -> float:
    if a > 0.0:
        return a - math.pi
    return a + math.pi


def mirror(f: QFunction) -> QFunction:
    """p -> conj(f(conj(p))): an involution swapping left- and right-handed
    behavior (a left-Class II input yields a right-Class II output)."""

    def evaluator(p: Quaternion) -> Quaternion:
        return f(p.conjugate()).conjugate()

    spherical = None
    if f.spherical_evaluator is not None:
        def spherical(s: SphericalPoint) -> Quaternion:
            antipode = SphericalPoint(s.t, s.r, _wrap_angle(s.alpha), math.pi - s.beta)
            return f.at_spherical(antipode).conjugate()

    array_evaluator = None
    if f.array_evaluator is not None:
        def array_evaluator(chart: np.ndarray) -> np.ndarray:
            t, r, alpha, beta = chart
            wrapped = np.where(alpha > 0.0, alpha - math.pi, alpha + math.pi)
            return f.array_evaluator(np.stack((t, r, wrapped, math.pi - beta))) * _CONJUGATE

    # left-handed class expectations do not transfer unless the function is
    # a pure slice sweep, which mirror fixes pointwise
    classes = f.classes if f.kind == "CI" else None
    return QFunction(name=f"mirror:{f.name}", evaluator=evaluator, kind=f.kind,
                     spherical_evaluator=spherical, classes=classes, domain=f.domain,
                     array_evaluator=array_evaluator)


_STEM_TERM_RE = re.compile(r"^(-?\d+):(-?[\d.eE+-]+):(-?[\d.eE+-]+)$")


def parse_stem_spec(text: str) -> ComplexStem:
    """ 'n:re:im,...' Laurent terms, or a named stem like 'log-tan' """
    if text in NAMED_STEMS:
        return NAMED_STEMS[text]
    terms = []
    for part in text.split(","):
        m = _STEM_TERM_RE.match(part.strip())
        if not m:
            raise SpecError(f"bad stem term {part!r}; expected n:re:im")
        try:
            terms.append((int(m.group(1)), complex(float(m.group(2)), float(m.group(3)))))
        except ValueError as exc:
            raise SpecError(f"bad stem term {part!r}: {exc}") from exc
    if not terms:
        raise SpecError("empty stem spec")
    return ComplexStem.laurent(terms)


def _resolve_base(spec: str) -> QFunction:
    if spec in CATALOG:
        return CATALOG[spec].function
    if _POW_RE.match(spec):
        return get_witness(spec).function
    if spec.startswith("stem:"):
        return cullen_extend(parse_stem_spec(spec[len("stem:"):]))
    raise SpecError(f"unknown function spec {spec!r}")


def resolve_function_spec(spec: str) -> QFunction:
    """Resolve the CLI micro-grammar to a QFunction.

    Accepted forms: catalog names, pow:<n>, stem:<n:re:im,...>,
    L:<stem-spec>, chiral:<base>, mirror:<base>, product:<a>*<b>,
    sum:<a>+<b>.  Generator prefixes do not nest.
    """
    spec = spec.strip()
    if spec.startswith("L:"):
        return ci_extend_rinehart(rinehart_L(parse_stem_spec(spec[len("L:"):])))
    if spec.startswith("chiral:"):
        return chiral_difference(_resolve_base(spec[len("chiral:"):]))
    if spec.startswith("mirror:"):
        return mirror(_resolve_base(spec[len("mirror:"):]))
    if spec.startswith("product:"):
        body = spec[len("product:"):]
        if body.count("*") != 1:
            raise SpecError(f"product spec needs exactly one '*': {spec!r}")
        left, right = body.split("*")
        return pointwise_product(_resolve_base(left), _resolve_base(right))
    if spec.startswith("sum:"):
        body = spec[len("sum:"):]
        if body.count("+") != 1:
            raise SpecError(f"sum spec needs exactly one '+': {spec!r}")
        left, right = body.split("+")
        return pointwise_sum(_resolve_base(left), _resolve_base(right))
    return _resolve_base(spec)
