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
by grid sweeps and Laurent contours:

* input: four chart rows (t, r, alpha, beta) that broadcast together to a
  shape S: an array (4, N), or the open mesh of a SampleGrid, whose rows
  have shapes (n, 1, 1, 1) ... (1, 1, 1, n), or stencil shifts of either
  (on a Cartesian stencil of the mesh, t keeps its own axis, and r, alpha
  and beta, mapped from x, y and z alone, go without it),
  or one point's rows of shape () (a row left unshifted is a numpy scalar),
  or contour rings, t and r of shape (1, Q) against angles of shape (M, 1);
* output: value rows (t, x, y, z) as a full array of shape (4, *S), each
  point's column equal to at_spherical of that point, so the evaluator
  works element by element;
* off the domain, where the scalar views raise, the column is NaN, and no
  numpy floating-point warning escapes.

The library's evaluators compute each intermediate on the rows it depends
on: the trig of a grid's alpha and beta axes once per axis value, a stem on
the t + i r plane once per (t, r) pair.

A CE function may also carry a (u, v) view, uv_array: the same chart rows
in, the pair of real arrays (u, v) out, with f = u + iota v at each point.
The two arrays broadcast with the rows and may keep only the axes they
depend on (a sweep's the t and r axes).  from_uv takes its uv_array, or its
per-point fill of u and v, as the view; cullen_extend gives (Re g, Im g) of
its stem on the t and r rows alone; a product or sum of two CE functions
gives the complex product or sum of their views, a mirror its input's view
at the antipodal angles, and verification.conjugate_function (u, -v).  The
Laurent quadrature reads u + i v from it.  A raw function has none.

from_uv and cullen_extend always supply an array evaluator, built from
their (u, v) view; a product, sum, mirror or conjugate has a spherical,
array or (u, v) view only when all its inputs have it.
A scalar callable input is called with scalars, and the chart maps, the
trig and the u + iota v assembly run on arrays:

* from_uv without uv_array materializes the rows and calls u, then v, once
  per point, each with one SphericalPoint (a named tuple), into two lists;
* a stem without an array form is called once per distinct z of a batch
  (a sweep repeats t + i r on every slice), so it must be a pure function
  of z.

Only a QFunction built directly from an evaluator (or a composite of one)
has none; sample_chart/sample_cartesian then materialize the rows and fill
the same arrays from its evaluator, one point at a time, appending each
value's components to four lists.  Chart rows (the Laurent contours are
chart rows too) are first mapped to quaternion rows by from_spherical_rows,
whose floats are from_spherical's.  A spherical view of such a function is
read only through at_spherical; it must agree with the evaluator through
the chart.  No user callable is ever called with an array.

These per-point fills read the points from the four flat row lists of
rows.tolist(), building each point's SphericalPoint or Quaternion as the
loop reaches it and freeing it with its sample: no container per point is
built ahead of the loop and held for the batch, which would leave the
cyclic garbage collector thousands of live objects to traverse.  A math or
domain error gives that point NaN; any other error, such as a stencil step
that rounds away, propagates, as from the single point.  A value that is no
number (not a Quaternion from an evaluator, a real number from u or v, a
complex number from a stem) raises TypeError naming the function, the
callable and the point; the fill checks the dtype of its values once, not
each value.  The single-point views of from_uv and cullen_extend raise the
same TypeError.
"""

from __future__ import annotations

import cmath
import functools
import math
import numbers
import operator
from dataclasses import dataclass
from typing import Callable, Mapping, Optional

import numpy as np

from .quaternion_core import (
    ChartSingularityError,
    DomainError,
    Quaternion,
    SphericalPoint,
    _quaternion,
    from_spherical,
    from_spherical_array,
    from_spherical_rows,
    iota,
    iota_coefficient,
    qmul_array,
    rows_shape,
    stack_rows,
    to_spherical,
    to_spherical_array,
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
    when given, is the batched chart view, and uv_array, only on a CE
    function, its (u, v) view, both described in the module docstring.
    """

    name: str
    evaluator: Callable[[Quaternion], Quaternion]
    kind: str = "raw"
    spherical_evaluator: Optional[Callable[[SphericalPoint], Quaternion]] = None
    classes: Optional[Mapping[str, bool]] = None
    array_evaluator: Optional[Callable[[np.ndarray], np.ndarray]] = None
    uv_array: Optional[Callable[[np.ndarray], tuple]] = None

    def __post_init__(self):
        if self.kind not in VALID_KINDS:
            raise ValueError(f"unknown function kind {self.kind!r}")
        if self.uv_array is not None and not self.is_ce:
            raise ValueError(f"{self.name}: a raw function has no (u, v) view")

    def __call__(self, p: Quaternion) -> Quaternion:
        return self.evaluator(p)

    def at_spherical(self, s: SphericalPoint) -> Quaternion:
        if self.spherical_evaluator is not None:
            return self.spherical_evaluator(s)
        return self.evaluator(from_spherical(s))

    @property
    def is_ce(self) -> bool:
        return self.kind in ("CE", "CI")

    def __repr__(self):
        return f"QFunction({self.name!r}, kind={self.kind!r})"


SIN_BETA_MARGIN = 0.1

# most nodes a SampleGrid may have: the mesh and its stencil samples are
# held in memory at once (the default grid has 8**4)
MAX_NODES = 2 ** 20


def check_beta_window(b0: float, b1: float, label: str):
    """ValueError naming label unless 0 < b0 <= b1 < pi and sin(beta) >=
    SIN_BETA_MARGIN on [b0, b1]: the pole margin of grids and windows."""
    if not 0.0 < b0 <= b1 < math.pi:
        raise ValueError(f"{label} leaves (0, pi)")
    if min(math.sin(b0), math.sin(b1)) < SIN_BETA_MARGIN:
        raise ValueError(f"{label} enters the pole margin sin(beta) >= {SIN_BETA_MARGIN}")


@dataclass(frozen=True)
class SampleGrid:
    """Rectangular chart-coordinate grid with singularity margins.

    Axis order is (t, r, alpha, beta); iteration runs beta fastest.
    Construction rejects grids that touch the chart margins r >= 0.1 and
    sin(beta) >= 0.1, and grids of more than MAX_NODES nodes.
    """

    t_range: tuple = (-1.0, 1.0)
    r_range: tuple = (0.5, 1.5)
    alpha_range: tuple = (-2.5, 2.5)
    beta_range: tuple = (0.4, math.pi - 0.4)
    n_per_axis: int = 8

    R_MARGIN = 0.1

    def __post_init__(self):
        for rng, label in ((self.t_range, "t"), (self.r_range, "r"),
                           (self.alpha_range, "alpha"), (self.beta_range, "beta")):
            # a finite width also keeps both ends finite
            if len(rng) != 2 or not 0.0 <= rng[1] - rng[0] < math.inf:
                raise ValueError(f"bad {label} range {rng!r}: "
                                 "need lo <= hi and a finite width hi - lo")
        n = self.n_per_axis
        if not isinstance(n, numbers.Integral):
            raise ValueError(f"n_per_axis must be an integer, got {n!r}")
        if n < 2:
            raise ValueError("need at least 2 points per axis")
        if n ** 4 > MAX_NODES:
            raise ValueError(f"n_per_axis = {n} gives {n ** 4} nodes, more than {MAX_NODES}")
        if self.r_range[0] < self.R_MARGIN:
            raise ValueError(f"r range {self.r_range} enters the real-axis margin r >= {self.R_MARGIN}")
        check_beta_window(*self.beta_range, f"beta range {self.beta_range}")

    def _axis(self, lo: float, hi: float) -> list:
        n = self.n_per_axis
        step = (hi - lo) / (n - 1)
        return [lo + k * step for k in range(n)]

    def axes(self) -> tuple:
        return (self._axis(*self.t_range), self._axis(*self.r_range),
                self._axis(*self.alpha_range), self._axis(*self.beta_range))

    def mesh(self) -> tuple:
        """The open mesh of the nodes: chart rows (t, r, alpha, beta) of
        shapes (n, 1, 1, 1), (1, n, 1, 1), (1, 1, n, 1) and (1, 1, 1, n),
        which broadcast to the whole grid without materializing it."""
        return np.ix_(*(np.array(axis) for axis in self.axes()))

    def chart_array(self) -> np.ndarray:
        """ chart rows (t, r, alpha, beta) of every node, beta fastest """
        return stack_rows(self.mesh(), (self.n_per_axis,) * 4).reshape(4, -1)

    @property
    def size(self) -> int:
        return self.n_per_axis ** 4

    def random_chart(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Chart rows of n uniform samples from the grid box.

        rng is a seeded numpy Generator; it draws all 4 n coordinates in one
        call, the same numbers in the same order as 4 n scalar draws.
        """
        ranges = (self.t_range, self.r_range, self.alpha_range, self.beta_range)
        lo, hi = np.array(ranges).T
        return rng.uniform(lo, hi, size=(n, 4)).T

    def to_dict(self) -> dict:
        return {
            "t": list(self.t_range), "r": list(self.r_range),
            "alpha": list(self.alpha_range), "beta": list(self.beta_range),
            "n_per_axis": self.n_per_axis,
        }


DEFAULT_GRID = SampleGrid()

# points per batched evaluator call, where a caller can split its batch:
# large enough to amortize the call, small enough to keep temporaries small
CALL_POINTS = 4096

# the values of a complex and a quaternion sample off the domain
NAN_COMPLEX = complex(math.nan, math.nan)
_NAN_QUATERNION = Quaternion(math.nan, math.nan, math.nan, math.nan)

# the errors that give a scalar sample those values: math and domain errors
_SAMPLE_ERRORS = (ValueError, ZeroDivisionError, OverflowError)


def _number_array(rows, dtype, name: str, labels: tuple, point_at) -> np.ndarray:
    """Array of dtype (float or complex) from rows of values that user callables returned.

    The dtype numpy finds for the rows is checked once.  Where it does not
    cast safely to dtype, TypeError names the function, the callable
    (labels[i] made rows[i]) and the first point (point_at(k) is point k)
    whose value is no real (or complex) number; a value numpy holds only as
    an object, such as a Fraction, is converted like any other number.
    """
    values = np.array(rows)
    if np.can_cast(values.dtype, dtype):
        return values.astype(dtype, copy=False)
    number = numbers.Complex if dtype is complex else numbers.Real
    for k, point in enumerate(zip(*rows)):
        for label, value in zip(labels, point):
            if not isinstance(value, number):
                raise TypeError(f"{name}: {label} returned {value!r} at {point_at(k)!r}, "
                                f"not a {number.__name__.lower()} number")
    return np.array(rows, dtype=dtype)


def _fill_complex(name: str, evaluate, args: list) -> np.ndarray:
    """ complex array of evaluate over args, one call per point, NAN_COMPLEX where it fails """
    out = []
    for arg in args:
        try:
            value = evaluate(arg)
        except _SAMPLE_ERRORS:
            value = NAN_COMPLEX
        out.append(value)
    return _number_array((out,), complex, name, ("the stem",), args.__getitem__)[0]


def _chart_points(chart: np.ndarray):
    """ the columns of chart rows (4, N) as SphericalPoint objects, each read
    from the flat row lists as the loop reaches it """
    return map(functools.partial(tuple.__new__, SphericalPoint), zip(*chart.tolist()))


def _columns(rows) -> tuple:
    """ (the points of rows that broadcast together, as columns (4, N); their shape) """
    shape = rows_shape(rows)
    return stack_rows(rows, shape).reshape(4, -1), shape


def _fill_rows(f: QFunction, points) -> np.ndarray:
    """Value rows (4, *shape) of f's evaluator over the points of quaternion
    rows, a NaN column where it fails.

    Each point's Quaternion is read from the flat row lists as the loop
    reaches it.  TypeError naming f and the point where the evaluator
    returns no Quaternion.
    """
    columns, shape = _columns(points)
    evaluate = f.evaluator
    t, x, y, z = [], [], [], []
    for p in map(_quaternion, *columns.tolist()):
        try:
            val = evaluate(p)
        except _SAMPLE_ERRORS:
            val = _NAN_QUATERNION
        try:
            t.append(val.t)
            x.append(val.x)
            y.append(val.y)
            z.append(val.z)
        except AttributeError:
            raise TypeError(f"{f.name}: the evaluator returned {val!r} at {p!r}, "
                            f"not a Quaternion") from None
    return np.array((t, x, y, z), dtype=float).reshape((4,) + shape)


def sample_chart(f: QFunction, chart) -> np.ndarray:
    """ value rows of f at chart rows (t, r, alpha, beta), NaN where it fails """
    if f.array_evaluator is not None:
        return f.array_evaluator(chart)
    return _fill_rows(f, from_spherical_rows(chart))


def sample_cartesian(f: QFunction, points) -> np.ndarray:
    """Value rows of f at quaternion rows (t, x, y, z), NaN where it fails.

    The chart has no alpha where x = y = 0, so those columns go to f itself,
    which may well be defined there (a profile sweep off the real axis).
    """
    if f.array_evaluator is None:
        return _fill_rows(f, points)
    values = f.array_evaluator(to_spherical_array(points))
    pole = (points[1] == 0.0) & (points[2] == 0.0)
    if pole.any():
        pole = np.broadcast_to(pole, values.shape[1:])
        values = np.array(values, dtype=float)
        values[:, pole] = _fill_rows(f, stack_rows(points, pole.shape)[:, pole])
    return values


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
    q = (val.t, val.x, val.y, val.z)
    v = iota_coefficient(q, (p.t, p.x, p.y, p.z)) / r
    if not math.isfinite(v):  # the products overflow above about 1.3e154: take iota(p) first
        v = iota_coefficient(q, (p.t / r, p.x / r, p.y / r, p.z / r))
    return val.t, v


def from_uv(u: Callable[[SphericalPoint], float],
            v: Callable[[SphericalPoint], float],
            name: str = "from_uv",
            classes: Optional[Mapping[str, bool]] = None,
            uv_array: Optional[Callable[[np.ndarray], tuple]] = None) -> QFunction:
    """CE function u(s) + iota(s) * v(s) from two chart-coordinate scalar fields.

    uv_array, when given, maps chart rows to the pair of arrays (u, v); it
    must agree with u and v and return NaN where they raise.  Without it the
    array evaluator calls u and v once per chart column (NaN where either
    raises) and does the rest on arrays.
    """

    def at_spherical(s: SphericalPoint) -> Quaternion:
        u_s, v_s = u(s), v(s)
        if type(u_s) is not float or type(v_s) is not float:
            # raises the batch path's TypeError on a value that is no real number
            _number_array(((u_s,), (v_s,)), float, name, ("u", "v"), lambda k: s)
        return from_spherical(SphericalPoint(u_s, v_s, s.alpha, s.beta))

    def evaluator(p: Quaternion) -> Quaternion:
        return at_spherical(to_spherical(p))

    if uv_array is None:
        def uv_array(chart) -> np.ndarray:
            columns, shape = _columns(chart)
            us, vs = [], []
            for s in _chart_points(columns):
                try:
                    u_s = u(s)
                    v_s = v(s)
                except _SAMPLE_ERRORS:
                    u_s = v_s = math.nan
                us.append(u_s)
                vs.append(v_s)
            uv = _number_array((us, vs), float, name, ("u", "v"),
                               lambda k: SphericalPoint(*columns[:, k].tolist()))
            return uv.reshape((2,) + shape)

    return QFunction(name=name, evaluator=evaluator, kind="CE",
                     spherical_evaluator=at_spherical, classes=classes,
                     array_evaluator=_uv_evaluator(uv_array), uv_array=uv_array)


def _uv_evaluator(uv_array: Callable[[np.ndarray], tuple]) -> Callable[[np.ndarray], np.ndarray]:
    """ the array evaluator u + iota v of a (u, v) view """

    def array_evaluator(chart) -> np.ndarray:
        with np.errstate(all="ignore"):
            values = from_spherical_array((*uv_array(chart), chart[2], chart[3]))
        # u and v need not depend on t and r, but every point gets its column
        shape = rows_shape(chart)
        return values if values.shape[1:] == shape else stack_rows(values, shape)

    return array_evaluator


class ComplexStem:
    """A complex profile g(z) on the upper half plane.

    Either a finite Laurent combination sum of c_n z^n (with an exact
    derivative) or a named closed form with an optional analytic
    derivative.  func_array, when given, is func over a complex array, NaN
    where domain_ok fails; Laurent stems supply it.
    """

    def __init__(self, label, func, derivative=None, domain_ok=None, terms=None,
                 func_array=None):
        self.label = label
        self._func = func
        self._derivative = derivative
        self._domain_ok = domain_ok
        self.terms = terms
        self._func_array = func_array

    @classmethod
    def laurent(cls, terms) -> "ComplexStem":
        """ stem from (exponent, coefficient) pairs """
        norm = tuple((int(n), complex(c)) for n, c in terms)
        label = "stem:" + ",".join(f"{n}:{c.real:g}:{c.imag:g}" for n, c in norm)
        pole = any(n < 0 for n, _ in norm)

        def func(z: complex) -> complex:
            return sum(c * z ** n for n, c in norm)

        def derivative(z: complex) -> complex:
            return sum(n * c * z ** (n - 1) for n, c in norm if n != 0)

        def func_array(z: np.ndarray) -> np.ndarray:
            ok = z.imag > 0.0
            if pole:
                ok &= np.abs(z) > 1e-12
            return np.where(ok, sum(c * z ** n for n, c in norm), NAN_COMPLEX)

        return cls(label, func, derivative, (lambda z: abs(z) > 1e-12) if pole else None,
                   terms=norm, func_array=func_array)

    @classmethod
    def named(cls, label, func, derivative=None, domain_ok=None,
              func_array=None) -> "ComplexStem":
        return cls(label, func, derivative, domain_ok, func_array=func_array)

    def eval(self, z: complex) -> complex:
        if not self.domain_ok(z):
            raise DomainError(f"stem {self.label!r} not defined at {z!r}")
        return self._func(z)

    __call__ = eval

    def eval_array(self, z: np.ndarray) -> np.ndarray:
        """eval over a complex array, NaN where eval raises.

        Through func_array when the stem has one.  Else eval is called once
        per distinct z (by bit pattern, so -0.0 and 0.0 stay apart): a sweep
        repeats each t + i r on every slice of a grid.
        """
        if self._func_array is None:
            bits = np.ascontiguousarray(z, dtype=complex).reshape(-1).view("V16")
            distinct, where = np.unique(bits, return_inverse=True)
            values = _fill_complex(self.label, self.eval, distinct.view(complex).tolist())
            return values[where].reshape(np.shape(z))
        with np.errstate(all="ignore"):
            return self._func_array(z)

    def derivative(self, z: complex) -> complex:
        if self._derivative is None:
            raise ValueError(f"stem {self.label!r} has no derivative")
        if not self.domain_ok(z):
            raise DomainError(f"stem {self.label!r} not defined at {z!r}")
        return self._derivative(z)

    def domain_ok(self, z: complex) -> bool:
        if z.imag <= 0.0:
            return False
        return self._domain_ok is None or self._domain_ok(z)

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


def cullen_extend(stem: ComplexStem, name: Optional[str] = None,
                  classes: Optional[Mapping[str, bool]] = None) -> QFunction:
    """Sweep a complex profile around the real axis.

    f(p) = Re g(t + i r) + iota(p) * Im g(t + i r): the same complex values
    on every slice, kind "CI".
    """

    def at(z: complex) -> complex:
        w = stem.eval(z)
        if type(w) is not complex:
            # raises the batch path's TypeError on a value that is no complex number
            _number_array(((w,),), complex, stem.label, ("the stem",), lambda k: z)
        return w

    def at_spherical(s: SphericalPoint) -> Quaternion:
        w = at(complex(s.t, s.r))
        return from_spherical(SphericalPoint(w.real, w.imag, s.alpha, s.beta))

    def evaluator(p: Quaternion) -> Quaternion:
        r = p.vector_norm()
        if r == 0.0:
            raise ChartSingularityError("profile sweep undefined on the real axis")
        w = at(complex(p.t, r))
        scale = w.imag / r
        return Quaternion(w.real, scale * p.x, scale * p.y, scale * p.z)

    def uv_array(chart) -> tuple:
        # z = t + i r over the t and r axes alone: every slice repeats it.
        # A 0-d z would put numpy's complex arithmetic on its scalar path,
        # whose floats can differ from the array loop's, so it goes as (1,)
        shape = np.broadcast(chart[0], chart[1]).shape
        z = np.empty(shape or (1,), complex)
        z.real, z.imag = chart[0], chart[1]
        w = stem.eval_array(z).reshape(shape)
        return w.real, w.imag

    return QFunction(name=name or stem.label, evaluator=evaluator, kind="CI",
                     spherical_evaluator=at_spherical, classes=classes,
                     array_evaluator=_uv_evaluator(uv_array), uv_array=uv_array)


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
    unit = iota(alpha, beta)
    io = (unit.t, unit.x, unit.y, unit.z)

    def slice_fn(z: complex) -> complex:
        if z.imag <= 0.0:
            raise DomainError("slice coordinate needs r > 0")
        val = f.at_spherical(SphericalPoint(z.real, z.imag, alpha, beta))
        return complex(val.t, iota_coefficient((val.t, val.x, val.y, val.z), io))

    return slice_fn


def _composite(inputs: tuple, spherical, array_evaluator, uv_array, **fields) -> QFunction:
    """ the composite of inputs with the chart views that every input has """
    views = {"spherical_evaluator": spherical, "array_evaluator": array_evaluator,
             "uv_array": uv_array}
    for view in views:
        if any(getattr(f, view) is None for f in inputs):
            views[view] = None
    return QFunction(**views, **fields)


def _pointwise(f: QFunction, g: QFunction, name: str, op, array_op) -> QFunction:
    """ f op g pointwise; two CE functions share each slice plane, so their
    (u, v) views combine by op on the complex numbers u + i v """

    def evaluator(p: Quaternion) -> Quaternion:
        return op(f(p), g(p))

    def spherical(s: SphericalPoint) -> Quaternion:
        return op(f.at_spherical(s), g.at_spherical(s))

    def array_evaluator(chart) -> np.ndarray:
        a, b = f.array_evaluator(chart), g.array_evaluator(chart)
        with np.errstate(all="ignore"):
            return array_op(a, b)

    def uv_array(chart) -> tuple:
        (u_f, v_f), (u_g, v_g) = f.uv_array(chart), g.uv_array(chart)
        with np.errstate(all="ignore"):
            w = op(u_f + 1j * v_f, u_g + 1j * v_g)
        return w.real, w.imag

    if f.kind == "CI" and g.kind == "CI":
        kind = "CI"
    else:
        kind = "CE" if f.is_ce and g.is_ce else "raw"
    return _composite((f, g), spherical, array_evaluator, uv_array,
                      name=name, evaluator=evaluator, kind=kind)


def pointwise_product(f: QFunction, g: QFunction, name: Optional[str] = None) -> QFunction:
    """ pointwise Hamilton product f(p) g(p); CE is closed under it """
    return _pointwise(f, g, name or f"product:{f.name}*{g.name}", operator.mul, qmul_array)


def pointwise_sum(f: QFunction, g: QFunction, name: Optional[str] = None) -> QFunction:
    return _pointwise(f, g, name or f"sum:{f.name}+{g.name}", operator.add, operator.add)
