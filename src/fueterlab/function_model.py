"""Quaternionic function objects and their scalar/complex building blocks.

The central type is QFunction, a named wrapper around an evaluator
p -> Quaternion.  Functions that commute with their argument pointwise
(f(p) p = p f(p)) split as f = u + iota*v with real scalar fields u, v;
such functions carry kind "CE".  When u and v depend only on (t, r) the
function is a single complex profile swept around the real axis and
carries kind "CI".  Anything else is "raw".

Complex profiles ("stems") feed two constructions:

* cullen_extend: stem g analytic on the upper half plane ->
  f(p) = Re g(t + i r) + iota * Im g(t + i r), kind "CI";
* the slice restriction of a CE function at fixed (alpha, beta), which
  recovers a complex function of z = t + i r.

A QFunction may also carry an array evaluator, the batched chart view used
by grid sweeps:

* input: chart rows (t, r, alpha, beta) as an array of shape (4, N);
* output: value rows (t, x, y, z) as an array of shape (4, N), column k
  equal to at_spherical of column k;
* off the domain, where the scalar views raise, the column is NaN, and no
  numpy floating-point warning escapes.

It is optional; without it sweeps call the scalar views one point at a
time.  The constructors here supply it whenever their inputs allow.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .quaternion_core import (
    ChartSingularityError,
    DomainError,
    Quaternion,
    SphericalPoint,
    qmul_array,
    to_spherical,
)


class FunctionKindError(TypeError):
    """Operation requires a CE/CI function but got something else."""


VALID_KINDS = ("raw", "CE", "CI")


@dataclass(frozen=True, eq=False, repr=False)
class QFunction:
    """A named quaternion-valued function of a quaternion variable.

    evaluator is the Cartesian view.  spherical_evaluator, when given,
    evaluates directly in chart coordinates and must agree with the
    Cartesian view through the chart; constructors here guarantee that by
    deriving one view from the other.  classes optionally records the
    expected classification verdicts for catalog entries.  array_evaluator,
    when given, is the batched chart view described in the module
    docstring.
    """

    name: str
    evaluator: Callable[[Quaternion], Quaternion]
    kind: str = "raw"
    spherical_evaluator: Optional[Callable[[SphericalPoint], Quaternion]] = None
    classes: Optional[Mapping[str, bool]] = None
    domain: "SampleGrid" = None  # filled in __post_init__
    array_evaluator: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if self.kind not in VALID_KINDS:
            raise ValueError(f"unknown function kind {self.kind!r}")
        if self.domain is None:
            object.__setattr__(self, "domain", DEFAULT_GRID)

    def __call__(self, p: Quaternion) -> Quaternion:
        return self.evaluator(p)

    def at_spherical(self, s: SphericalPoint) -> Quaternion:
        if self.spherical_evaluator is not None:
            return self.spherical_evaluator(s)
        return self.evaluator(s.to_quaternion())

    @property
    def is_ce(self) -> bool:
        return self.kind in ("CE", "CI")

    def __repr__(self):
        return f"QFunction({self.name!r}, kind={self.kind!r})"


@dataclass(frozen=True)
class SampleGrid:
    """Rectangular chart-coordinate grid with singularity margins.

    Axis order is (t, r, alpha, beta); iteration runs beta fastest.
    Construction rejects grids that touch the chart margins r >= 0.1 and
    sin(beta) >= 0.1.
    """

    t_range: tuple = (-1.0, 1.0)
    r_range: tuple = (0.5, 1.5)
    alpha_range: tuple = (-2.5, 2.5)
    beta_range: tuple = (0.4, math.pi - 0.4)
    n_per_axis: int = 8

    R_MARGIN = 0.1
    SIN_BETA_MARGIN = 0.1

    def __post_init__(self):
        for rng, label in ((self.t_range, "t"), (self.r_range, "r"),
                           (self.alpha_range, "alpha"), (self.beta_range, "beta")):
            if len(rng) != 2 or not rng[0] <= rng[1]:
                raise ValueError(f"bad {label} range {rng!r}")
        if self.n_per_axis < 2:
            raise ValueError("need at least 2 points per axis")
        if self.r_range[0] < self.R_MARGIN:
            raise ValueError(f"r range {self.r_range} enters the real-axis margin r >= {self.R_MARGIN}")
        b0, b1 = self.beta_range
        if not (0.0 < b0 and b1 < math.pi):
            raise ValueError(f"beta range {self.beta_range} leaves (0, pi)")
        if min(math.sin(b0), math.sin(b1)) < self.SIN_BETA_MARGIN:
            raise ValueError(f"beta range {self.beta_range} enters the pole margin sin(beta) >= {self.SIN_BETA_MARGIN}")

    def _axis(self, lo: float, hi: float) -> list:
        n = self.n_per_axis
        step = (hi - lo) / (n - 1)
        return [lo + k * step for k in range(n)]

    def axes(self) -> tuple:
        return (self._axis(*self.t_range), self._axis(*self.r_range),
                self._axis(*self.alpha_range), self._axis(*self.beta_range))

    def chart_array(self) -> np.ndarray:
        """ chart rows (t, r, alpha, beta) of every node, beta fastest """
        mesh = np.meshgrid(*(np.array(axis) for axis in self.axes()), indexing="ij")
        return np.stack(mesh).reshape(4, -1)

    def points(self):
        """ yield SphericalPoint nodes, beta fastest """
        ts, rs, alphas, betas = self.axes()
        for t in ts:
            for r in rs:
                for a in alphas:
                    for b in betas:
                        yield SphericalPoint(t, r, a, b)

    @property
    def size(self) -> int:
        return self.n_per_axis ** 4

    def random_points(self, rng, n: int) -> list:
        """ n uniform samples from the grid box (seeded numpy Generator) """
        out = []
        for _ in range(n):
            out.append(SphericalPoint(
                rng.uniform(*self.t_range), rng.uniform(*self.r_range),
                rng.uniform(*self.alpha_range), rng.uniform(*self.beta_range)))
        return out

    def to_dict(self) -> dict:
        return {
            "t": list(self.t_range), "r": list(self.r_range),
            "alpha": list(self.alpha_range), "beta": list(self.beta_range),
            "n_per_axis": self.n_per_axis,
        }

    @classmethod
    def from_flat(cls, values: Sequence[float]) -> "SampleGrid":
        """ build from the CLI flat form t0,t1,r0,r1,a0,a1,b0,b1,n """
        if len(values) != 9:
            raise ValueError("grid spec needs 9 numbers: t0,t1,r0,r1,a0,a1,b0,b1,n_per_axis")
        v = [float(x) for x in values]
        n = int(v[8])
        if n != v[8]:
            raise ValueError("n_per_axis must be an integer")
        return cls((v[0], v[1]), (v[2], v[3]), (v[4], v[5]), (v[6], v[7]), n)


DEFAULT_GRID = SampleGrid()


def uv_at(f: QFunction, p: Quaternion) -> tuple:
    """Scalar components (u, v) of a CE function at p.

    u is the real part of the value and v the coefficient of iota(p),
    recovered as the dot product of the imaginary part with iota(p).
    Meaningful only for CE/CI functions; the imaginary part of a raw
    function need not be parallel to iota.
    """
    r = p.vector_norm()
    if r == 0.0:
        raise ChartSingularityError("u/v split undefined on the real axis")
    val = f(p)
    v = (val.x * p.x + val.y * p.y + val.z * p.z) / r
    return val.t, v


def _uv_rows(chart: np.ndarray, u, v) -> np.ndarray:
    """ value rows of u + iota v at chart rows, as in the scalar views """
    _, _, alpha, beta = chart
    sb = np.sin(beta)
    return np.stack((u, v * np.cos(alpha) * sb, v * np.sin(alpha) * sb, v * np.cos(beta)))


def from_uv(u: Callable[[SphericalPoint], float],
            v: Callable[[SphericalPoint], float],
            name: str = "from_uv",
            classes: Optional[Mapping[str, bool]] = None,
            domain: Optional[SampleGrid] = None,
            uv_array: Optional[Callable[[np.ndarray], tuple]] = None) -> QFunction:
    """CE function u(s) + iota(s) * v(s) from two chart-coordinate scalar fields.

    uv_array, when given, maps chart rows to the pair of arrays (u, v) and
    becomes the function's array evaluator; it must agree with u and v and
    return NaN where they raise.
    """

    def at_spherical(s: SphericalPoint) -> Quaternion:
        uu = u(s)
        vv = v(s)
        sb = math.sin(s.beta)
        return Quaternion(uu, vv * math.cos(s.alpha) * sb,
                          vv * math.sin(s.alpha) * sb, vv * math.cos(s.beta))

    def evaluator(p: Quaternion) -> Quaternion:
        return at_spherical(to_spherical(p))

    array_evaluator = None
    if uv_array is not None:
        def array_evaluator(chart: np.ndarray) -> np.ndarray:
            with np.errstate(all="ignore"):
                return _uv_rows(chart, *uv_array(chart))

    return QFunction(name=name, evaluator=evaluator, kind="CE",
                     spherical_evaluator=at_spherical, classes=classes,
                     domain=domain or DEFAULT_GRID, array_evaluator=array_evaluator)


class ComplexStem:
    """A complex profile g(z) on the upper half plane.

    Either a finite Laurent combination sum of c_n z^n (with an exact
    derivative) or a named closed form with an optional analytic
    derivative and a numeric central-difference fallback.
    """

    NUMERIC_DERIV_STEP = 1e-6

    def __init__(self, label, func, derivative=None, domain_ok=None, terms=None):
        self.label = label
        self._func = func
        self._derivative = derivative
        self._domain_ok = domain_ok
        self.terms = terms

    @classmethod
    def laurent(cls, terms, label: Optional[str] = None) -> "ComplexStem":
        """ stem from (exponent, coefficient) pairs """
        norm = tuple((int(n), complex(c)) for n, c in terms)
        if label is None:
            label = "stem:" + ",".join(f"{n}:{c.real:g}:{c.imag:g}" for n, c in norm)

        def func(z: complex) -> complex:
            return sum(c * z ** n for n, c in norm)

        def derivative(z: complex) -> complex:
            return sum(n * c * z ** (n - 1) for n, c in norm if n != 0)

        return cls(label, func, derivative, terms=norm)

    @classmethod
    def named(cls, label, func, derivative=None, domain_ok=None) -> "ComplexStem":
        return cls(label, func, derivative, domain_ok)

    def eval(self, z: complex) -> complex:
        if not self.domain_ok(z):
            raise DomainError(f"stem {self.label!r} not defined at {z!r}")
        return self._func(z)

    __call__ = eval

    def eval_array(self, z: np.ndarray) -> np.ndarray:
        """ eval of a Laurent stem over a complex array, NaN where domain_ok fails """
        with np.errstate(all="ignore"):
            w = sum(c * z ** n for n, c in self.terms)
        ok = z.imag > 0.0
        if any(n < 0 for n, _ in self.terms):
            ok &= np.abs(z) > 1e-12
        return np.where(ok, w, np.nan)

    def derivative(self, z: complex) -> complex:
        if self._derivative is not None:
            if not self.domain_ok(z):
                raise DomainError(f"stem {self.label!r} not defined at {z!r}")
            return self._derivative(z)
        h = self.NUMERIC_DERIV_STEP
        return (self.eval(z + h) - self.eval(z - h)) / (2.0 * h)

    def domain_ok(self, z: complex) -> bool:
        if z.imag <= 0.0:
            return False
        if self._domain_ok is not None:
            return self._domain_ok(z)
        if self.terms is not None and any(n < 0 for n, _ in self.terms):
            return abs(z) > 1e-12
        return True

    def __repr__(self):
        return f"ComplexStem({self.label!r})"


def _atan_domain(z: complex) -> bool:
    # stay clear of the branch cut running up the imaginary axis from i
    return not (abs(z.real) <= 0.25 and z.imag >= 0.75)


NAMED_STEMS = {
    "log-tan": ComplexStem.named("log-tan",
                                 lambda z: cmath.log(cmath.tan(z / 2.0)),
                                 lambda z: 1.0 / cmath.sin(z)),
    "arctan": ComplexStem.named("arctan",
                                lambda z: cmath.atan(z),
                                lambda z: 1.0 / (1.0 + z * z),
                                domain_ok=_atan_domain),
}


def stem_cr_residual(stem: ComplexStem, z: complex, h: float = 1e-6) -> float:
    """ |dg/dx + i dg/dy| by central differences; ~0 iff g is analytic at z """
    wx = (stem.eval(z + h) - stem.eval(z - h)) / (2.0 * h)
    wy = (stem.eval(z + h * 1j) - stem.eval(z - h * 1j)) / (2.0 * h)
    return abs(wx + 1j * wy)


def validate_stem(stem: ComplexStem, samples=None, tol: float = 1e-8) -> float:
    """Check analyticity of a stem on its declared domain.

    Returns the worst scaled CR residual over the samples; raises
    DomainError when it exceeds tol.
    """
    if samples is None:
        samples = [complex(x * 0.24 - 1.2, 0.45 + y * 0.11)
                   for x in range(11) for y in range(11)]
    worst = 0.0
    for z in samples:
        if not stem.domain_ok(z):
            continue
        scale = 1.0 + abs(stem.eval(z))
        worst = max(worst, stem_cr_residual(stem, z) / scale)
    if worst > tol:
        raise DomainError(f"stem {stem.label!r} fails analyticity check: "
                          f"scaled CR residual {worst:.3e} > {tol:.1e}")
    return worst


def cullen_extend(stem: ComplexStem, name: Optional[str] = None,
                  classes: Optional[Mapping[str, bool]] = None,
                  domain: Optional[SampleGrid] = None) -> QFunction:
    """Sweep a complex profile around the real axis.

    f(p) = Re g(t + i r) + iota(p) * Im g(t + i r): the same complex values
    on every slice, kind "CI".
    """

    def at_spherical(s: SphericalPoint) -> Quaternion:
        w = stem.eval(complex(s.t, s.r))
        sb = math.sin(s.beta)
        return Quaternion(w.real, w.imag * math.cos(s.alpha) * sb,
                          w.imag * math.sin(s.alpha) * sb, w.imag * math.cos(s.beta))

    def evaluator(p: Quaternion) -> Quaternion:
        r = p.vector_norm()
        if r == 0.0:
            raise ChartSingularityError("profile sweep undefined on the real axis")
        w = stem.eval(complex(p.t, r))
        scale = w.imag / r
        return Quaternion(w.real, scale * p.x, scale * p.y, scale * p.z)

    array_evaluator = None
    if stem.terms is not None:
        def array_evaluator(chart: np.ndarray) -> np.ndarray:
            z = chart[0].astype(complex)
            z.imag = chart[1]
            w = stem.eval_array(z)
            with np.errstate(all="ignore"):
                return _uv_rows(chart, w.real, w.imag)

    return QFunction(name=name or stem.label, evaluator=evaluator, kind="CI",
                     spherical_evaluator=at_spherical, classes=classes,
                     domain=domain or DEFAULT_GRID, array_evaluator=array_evaluator)


def power_function(n: int) -> QFunction:
    """ p -> p**n as the sweep of z**n (negative n allowed away from 0) """
    expected = {"class_I": True, "class_II": True, "class_III": True,
                "regular": n == 0}
    return cullen_extend(ComplexStem.laurent([(n, 1.0)]),
                         name="identity" if n == 1 else f"pow:{n}",
                         classes=expected)


def restrict_to_slice(f: QFunction, alpha: float, beta: float) -> Callable[[complex], complex]:
    """Complex restriction z = t + i r -> u + i v on one slice.

    Only CE/CI functions have a well-defined complex restriction.
    """
    if not f.is_ce:
        raise FunctionKindError(f"{f.name}: slice restriction needs a CE/CI function, got kind {f.kind!r}")
    if not 0.0 < beta < math.pi or math.sin(beta) < 1e-6:
        raise ChartSingularityError("slice undefined at the poles")

    def slice_fn(z: complex) -> complex:
        if z.imag <= 0.0:
            raise DomainError("slice coordinate needs r > 0")
        s = SphericalPoint(z.real, z.imag, alpha, beta)
        val = f.at_spherical(s)
        io = s.iota()
        return complex(val.t, val.x * io.x + val.y * io.y + val.z * io.z)

    return slice_fn


def _pointwise(f: QFunction, g: QFunction, name: str, op, array_op) -> QFunction:
    """f op g pointwise, in every view that both inputs have."""

    def evaluator(p: Quaternion) -> Quaternion:
        return op(f(p), g(p))

    spherical = None
    if f.spherical_evaluator is not None and g.spherical_evaluator is not None:
        def spherical(s: SphericalPoint) -> Quaternion:
            return op(f.at_spherical(s), g.at_spherical(s))

    array_evaluator = None
    if f.array_evaluator is not None and g.array_evaluator is not None:
        def array_evaluator(chart: np.ndarray) -> np.ndarray:
            a, b = f.array_evaluator(chart), g.array_evaluator(chart)
            with np.errstate(all="ignore"):
                return array_op(a, b)

    if f.kind == "CI" and g.kind == "CI":
        kind = "CI"
    else:
        kind = "CE" if f.is_ce and g.is_ce else "raw"
    return QFunction(name=name, evaluator=evaluator, kind=kind,
                     spherical_evaluator=spherical, domain=f.domain,
                     array_evaluator=array_evaluator)


def pointwise_product(f: QFunction, g: QFunction, name: Optional[str] = None) -> QFunction:
    """ pointwise Hamilton product f(p) g(p); CE is closed under it """
    return _pointwise(f, g, name or f"product:{f.name}*{g.name}", operator.mul, qmul_array)


def pointwise_sum(f: QFunction, g: QFunction, name: Optional[str] = None) -> QFunction:
    return _pointwise(f, g, name or f"sum:{f.name}+{g.name}", operator.add, operator.add)
