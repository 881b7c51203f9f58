"""Named witnesses and derived-function generators.

The catalog registers the closed-form functions used throughout the test
surface under stable string names:

* "identity", "pow:n"  — powers p^n swept from z^n (Class III);
* "rho", "varrho", "sigma" — the three angle-only witnesses that are
  Class II but not Class III (azimuth-type u plus inverse-hyperbolic v,
  cyclically permuted axes; varrho and sigma share one constructor);
* "x-over-r-iota" — u = 0, v = x/r: Class I but not Class II.

Generators build new functions from old:

* rinehart_L(stem): g = (i/y) stem' - i Im(stem)/y^2, which satisfies the
  non-analytic slice condition dg/dx + i dg/dy = 2 Im(g)/y;
* ci_extend_rinehart(g): sweeps such a g into a left-regular function
  after checking the condition on the (t, r) nodes of the default grid,
  all at once: rinehart_condition_residual differences g along Re z and
  Im z through diffops.stencil, like every finite difference here;
* chiral_difference(f): fueter_left f - fueter_right f from shared
  stencils (left-regular whenever f is Class II, identically zero iff f
  is Class III);
* mirror(f): p -> conj(f(conj(p))), a composite (see function_model) and
  an involution exchanging left- and right-handed classes.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Dict, Mapping

import numpy as np

from .classify import classify
from .diffops import DiffConfig, OperatorValue, _operator, fueter_rows, stencil
from .function_model import (
    DEFAULT_GRID,
    ComplexStem,
    FunctionKindError,
    NAMED_STEMS,
    QFunction,
    SampleGrid,
    _composite,
    cullen_extend,
    from_uv,
    pointwise_product,
    pointwise_sum,
    power_function,
    sample_cartesian,
)
from .quaternion_core import DomainError, Quaternion, SphericalPoint, antipodal_angles, qconj_array


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


# the expected verdicts of the three angle witnesses, Class II but not Class III;
# each gets its own copy
_ANGLE_WITNESS_CLASSES = {"class_I": True, "class_II": True, "class_III": False, "regular": False}


def _make_rho() -> QFunction:
    return from_uv(lambda s: s.alpha,
                   lambda s: math.log(math.tan(s.beta / 2.0)),
                   name="rho", classes=dict(_ANGLE_WITNESS_CLASSES),
                   uv_array=lambda c: (c[2], np.log(np.tan(c[3] / 2.0))))


def _make_angle_witness(name: str, p: int, q: int, w: int) -> QFunction:
    """atan2(iota_p, iota_q) + iota artanh(iota_w), with iota's components
    (cos(alpha) sin(beta), sin(alpha) sin(beta), cos(beta)) indexed 0, 1, 2."""

    def components(lib, alpha, beta) -> tuple:
        sb = lib.sin(beta)
        return lib.cos(alpha) * sb, lib.sin(alpha) * sb, lib.cos(beta)

    def u(s: SphericalPoint) -> float:
        io = components(math, s.alpha, s.beta)
        return math.atan2(io[p], io[q])

    def v(s: SphericalPoint) -> float:
        return _atanh(components(math, s.alpha, s.beta)[w])

    def uv_array(c):
        io = components(np, c[2], c[3])
        return np.arctan2(io[p], io[q]), _atanh_array(io[w])

    return from_uv(u, v, name=name, classes=dict(_ANGLE_WITNESS_CLASSES), uv_array=uv_array)


def _make_xri() -> QFunction:
    expected = {"class_I": True, "class_II": False, "class_III": False, "regular": False}
    return from_uv(lambda s: 0.0,
                   lambda s: math.cos(s.alpha) * math.sin(s.beta),
                   name="x-over-r-iota", classes=expected,
                   uv_array=lambda c: (np.zeros_like(c[2]), np.cos(c[2]) * np.sin(c[3])))


CATALOG: Dict[str, WitnessEntry] = {}
for _f, _formula in ((power_function(1), "p"),
                     (_make_rho(), "alpha + iota*ln(tan(beta/2))"),
                     (_make_angle_witness("varrho", 1, 2, 0), "arctan(y/z) + iota*artanh(x/r)"),
                     (_make_angle_witness("sigma", 2, 0, 1), "arctan(z/x) + iota*artanh(y/r)"),
                     (_make_xri(), "(x/r)*iota")):
    CATALOG[_f.name] = WitnessEntry(_f.name, _f, _f.classes, _formula)

_POW_RE = re.compile(r"^pow:(-?\d+)$")


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
    It takes the stem's own derivative (exact for finite Laurent
    combinations, whose image also gets an array form); a stem without one
    raises ValueError.
    """
    if stem._derivative is None:
        raise ValueError(f"stem {stem.label!r} has no derivative; rinehart_L needs one")

    def g(z: complex) -> complex:
        y = z.imag
        return (1j / y) * stem.derivative(z) - 1j * stem.eval(z).imag / (y * y)

    g_array = None
    if stem.terms is not None:
        slope = ComplexStem.laurent([(n - 1, n * c) for n, c in stem.terms if n != 0])

        def g_array(z: np.ndarray) -> np.ndarray:
            # NaN wherever the stem is: slope has the same domain
            y = z.imag
            return (1j / y) * slope.eval_array(z) - 1j * stem.eval_array(z).imag / (y * y)

    return ComplexStem.named(f"L:{stem.label}", g, domain_ok=stem.domain_ok, func_array=g_array)


# the central step of the slice extension condition
_CONDITION_STEP = DiffConfig(h=1e-6)


def _sample_slice(g: ComplexStem, rows) -> np.ndarray:
    """ the value row g(x + i y) at rows (x, y, ...) that broadcast to S, of shape (1, *S) """
    shape = np.broadcast(rows[0], rows[1]).shape
    z = np.empty(shape, complex)
    z.real, z.imag = rows[0], rows[1]
    return g.eval_array(z)[np.newaxis]


def rinehart_condition_residual(g: ComplexStem, z):
    """|dg/dx + i dg/dy - 2 Im(g)/y| at z, a complex number or array.

    The partials are central differences of step 1e-6 taken by
    diffops.stencil along Re z and Im z, on samples of g.eval_array (NaN off
    the stem's domain, so a residual next to it is NaN); StepError where the
    step does not move Re z or Im z.  A float for a complex z, else an array
    of z's shape.
    """
    at = np.atleast_1d(np.asarray(z, dtype=complex))  # numpy's 0-d complex path has its own floats
    base = (at.real, at.imag, 0.0, 0.0)
    with np.errstate(all="ignore"):  # a non-finite sample reads as a NaN residual
        d = stencil(g, _CONDITION_STEP, base, slice(0, 2), _sample_slice, "slice coordinate")[0][0]
        resid = np.abs(d[0] + 1j * d[1] - 2.0 * g.eval_array(at).imag / at.imag)
    return float(resid[0]) if np.ndim(z) == 0 else resid.reshape(np.shape(z))


def ci_extend_rinehart(g: ComplexStem, cfg: DiffConfig = DiffConfig()) -> QFunction:
    """Sweep a slice profile satisfying the extension condition.

    Checks the condition dg/dx + i dg/dy = 2 Im(g)/y on the (t, r) nodes of
    DEFAULT_GRID in g's domain, as one batch, and raises DomainError at the
    first node (t-major) that violates it or where the residual or g is not
    finite; the returned function is then left-regular by construction.
    """
    ts, rs, _, _ = DEFAULT_GRID.axes()
    nodes = [z for z in (complex(t, r) for t in ts for r in rs) if g.domain_ok(z)]
    if not nodes:
        raise DomainError(f"no admissible (t, r) samples for {g.label!r} on the grid")
    resid = rinehart_condition_residual(g, nodes)
    scale = np.abs(g.eval_array(np.array(nodes)))
    tol = cfg.point_tolerance(scale)
    finite = np.isfinite(resid) & np.isfinite(scale)
    bad = ~(finite & (resid <= tol))
    if bad.any():
        k = int(np.argmax(bad))
        if not finite[k]:
            raise DomainError(f"{g.label!r}: no finite slice extension condition residual "
                              f"at {nodes[k]} (the stem fails at or next to it)")
        raise DomainError(
            f"{g.label!r} violates the slice extension condition at {nodes[k]}: "
            f"residual {resid[k]:.3e} > {tol[k]:.3e}")
    return cullen_extend(g, name=g.label)


# 3 nodes per axis, none on the witnesses' singular sets alpha in {0, +-pi/2, +-pi}, beta = pi/2
_SPOT_CHECK_GRID = SampleGrid(alpha_range=(-2.5, 2.0), beta_range=(0.4, 2.6), n_per_axis=3)


def chiral_difference(f: QFunction, inner: DiffConfig = DiffConfig()) -> QFunction:
    """fueter_left f - fueter_right f as a lazily evaluated function.

    Meaningful for Class II inputs (where the result is left-regular); a
    function without a Class II expectation in its metadata is spot-checked
    on _SPOT_CHECK_GRID and rejected, naming the verdict, unless it passes.
    """
    if not f.is_ce:
        raise FunctionKindError(f"{f.name}: chiral difference needs a CE/CI function")
    if f.classes is None:
        report = classify(f, _SPOT_CHECK_GRID, inner)
        spot = report.class_II
        if spot.verdict != "pass":
            why = report._singular_nodes
            if spot.max is not None:
                why = f"max residual {spot.max}" + (why and f"; {why}")
            raise DomainError(f"{f.name} failed the Class II spot check: {spot.verdict} "
                              f"({why}); chiral difference undefined")
    elif not f.classes.get("class_II", False):
        raise DomainError(f"{f.name} is not Class II; chiral difference undefined")

    def chiral_rows(points) -> np.ndarray:
        # the time derivative cancels; only the unit commutators survive
        with np.errstate(all="ignore"):
            d = stencil(f, inner, points, slice(1, 4), sample_cartesian,
                        "Cartesian coordinate")[0].swapaxes(0, 1)
            d = np.concatenate((np.zeros_like(d[:1]), d))
            return fueter_rows(d) - fueter_rows(d, right=True)

    name = f"chiral:{f.name}"
    # called with delta, so its errors name chiral:<name>; the body differences at inner
    chiral = _operator(Quaternion, name)(lambda _, points, cfg: OperatorValue(chiral_rows(points)))
    delta = QFunction(name=name, evaluator=lambda p: chiral(delta, p).value, kind="raw",
                      cartesian_array=chiral_rows)
    return delta


def mirror(f: QFunction) -> QFunction:
    """p -> conj(f(conj(p))): an involution swapping left- and right-handed
    behavior (a left-Class II input yields a right-Class II output)."""

    def evaluator(p: Quaternion) -> Quaternion:
        return f(p.conjugate()).conjugate()

    def spherical(s: SphericalPoint) -> Quaternion:
        alpha, beta = antipodal_angles(s.alpha, s.beta)
        return f.at_spherical(SphericalPoint(s.t, s.r, float(alpha), beta)).conjugate()

    def cartesian_array(points) -> np.ndarray:
        t, x, y, z = points
        return qconj_array(sample_cartesian(f, (t, -x, -y, -z)))

    def uv_array(chart) -> tuple:
        # conj(u + (-iota) v) = u + iota v, with (u, v) read at -iota
        t, r, alpha, beta = chart
        return f.uv_array((t, r, *antipodal_angles(alpha, beta)))

    # left-handed class expectations do not transfer unless the function is
    # a pure slice sweep, which mirror fixes pointwise
    classes = f.classes if f.kind == "CI" else None
    return _composite((f,), spherical, uv_array, name=f"mirror:{f.name}", evaluator=evaluator,
                      kind=f.kind, classes=classes, cartesian_array=cartesian_array)


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
    return ComplexStem.laurent(terms)


def _resolve_base(spec: str) -> QFunction:
    if spec in CATALOG or _POW_RE.match(spec):
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
    for prefix, generator in (("chiral:", chiral_difference), ("mirror:", mirror)):
        if spec.startswith(prefix):
            return generator(_resolve_base(spec[len(prefix):]))
    for prefix, sep, combine in (("product:", "*", pointwise_product), ("sum:", "+", pointwise_sum)):
        if spec.startswith(prefix):
            bases = spec[len(prefix):].split(sep)
            if len(bases) != 2:
                raise SpecError(f"{prefix[:-1]} spec needs exactly one {sep!r}: {spec!r}")
            return combine(*map(_resolve_base, bases))
    return _resolve_base(spec)
