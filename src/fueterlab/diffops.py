"""Finite-difference Fueter-type operators in Cartesian and chart views.

All derivatives are 2nd-order central differences with step h, optionally
sharpened to 4th order by one Richardson extrapolation step (combining the
h and h/2 stencils; the magnitude of their disagreement is reported as the
error estimate).  Cartesian partials difference the function's Cartesian
samples (function_model.sample_cartesian: its Cartesian array view, else
its evaluator point by point), which no chart map enters, so fueter_left
and fueter_right are defined on the k axis x = y = 0 wherever the function
is (a sweep is; a function of the angles is not).  (t, r, alpha, beta)
partials difference its chart samples (sample_chart: a CE function's
(u, v) view at the chart's own angles, else its Cartesian samples at the
chart's Cartesian rows).  The two agree, to rounding, because the chart
round-trips.

One function, stencil, takes every finite difference in the library: the
operators here, classify's residuals, jacobian_check, chiral_difference,
the Laurent coefficient class check and the slice extension condition of
generators.  It works on a whole batch of
coordinate rows: Cartesian (t, x, y, z) for fueter_left/fueter_right,
chart (t, r, alpha, beta) for the rest, window angles for the class check.
The batch is four rows that broadcast together to a shape S, such as an
array (4, N) or a grid's open mesh.  A stencil shifts only the rows it
differences, each of which gains a leading axis of rows times offsets, so
the other rows, and everything an evaluator computes from them alone,
keep their own size.  The step rule lives there too: stencil refuses a
step that does not move the rows it shifts (StepError).  The operators
take the same batches: only a Quaternion or a SphericalPoint is one
point, and anything else is four point rows that broadcast to a shape S,
such as an array (4, N), a grid's open mesh or its Cartesian rows
(from_spherical_rows).  They return value rows (4, *S) with an error
estimate of shape S (spherical_cr_residuals: two arrays of shape S), or
for one point a Quaternion and a float; one point goes through stencil as
the rows (4,), a batch of shape ().  One point must be the kind its
operator reads: a Quaternion for fueter_left and fueter_right, a
SphericalPoint for the chart operators; the other kind raises TypeError.
_operator holds this single-point path for every point API, jacobian_check
and the chiral_difference evaluator included.

* fueter_left   : d/dt f + i d/dx f + j d/dy f + k d/dz f
* fueter_right  : d/dt f + (d/dx f) i + (d/dy f) j + (d/dz f) k
* class1_residual : d/dt f + iota d/dr f              (slice holomorphy)
* fueter_spherical : d/dt f + iota d/dr f
      - r^-1 (iota_a^-1 d/da f + iota_b^-1 d/db f)
  (iota_a, iota_b the alpha and beta tangents of iota), which equals
  fueter_left identically.
* imaginary_derivative : iota_a^-1 d/da f + iota_b^-1 d/db f,
  so that fueter_left = class1_residual - (1/r) * imaginary_derivative.
* spherical_cr_residuals : the two scalar residuals
      S1 = (sin beta)^-1 dv/da + du/db
      S2 = (sin beta)^-1 du/da - dv/db
  which vanish for Class II functions; u and v are read by
  function_model.sample_uv.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .function_model import (CALL_POINTS, QFunction, _first_failing, sample_cartesian,
                             sample_chart, sample_uv)
from .quaternion_core import (ChartSingularityError, DomainError, Quaternion, SphericalPoint,
                              _quaternion, qabs_array, qmul_array, rows_shape, stack_rows)

SCHEMES = ("central", "richardson")

# operators refuse points this close to the chart's singular sets, where
# the inverse tangent factors blow up faster than stencils can resolve
POLE_SIN_BETA_FLOOR = 0.01


@dataclass(frozen=True)
class DiffConfig:
    """Stencil step, scheme, and the tolerance policy used by verdicts."""

    h: float = 1e-5
    scheme: str = "central"
    tol_abs: float = 1e-6
    tol_rel: float = 1e-6

    def __post_init__(self):
        if not 0.0 < self.h < math.inf:
            raise ValueError(f"step h must be positive and finite, got {self.h}")
        if not (0.0 <= self.tol_abs < math.inf and 0.0 <= self.tol_rel < math.inf):
            raise ValueError(f"tolerances must be finite and >= 0, got {self.tol_abs}, {self.tol_rel}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")

    def point_tolerance(self, scale):
        """ absolute-plus-relative threshold for one residual sample """
        return self.tol_abs + self.tol_rel * scale


def stencil_offsets(cfg: DiffConfig) -> np.ndarray:
    """ sample offsets of one stencil: (h, -h), plus (h/2, -h/2) for Richardson """
    if cfg.scheme == "richardson":
        return np.array([cfg.h, -cfg.h, cfg.h / 2.0, -cfg.h / 2.0])
    return np.array([cfg.h, -cfg.h])


class StepError(Exception):
    """A stencil step that some coordinate rounds away.  Not a ValueError, so
    the samplers, which read a math or domain error as a NaN sample, let it
    propagate from every path."""


def require_step_moves(rows, cfg: DiffConfig, label: str):
    """StepError unless every stencil offset moves every value of the arrays
    in rows, where x + offset == x would difference a sample with itself.
    Rounding is monotone, symmetric about 0 and no coarser below x >= 0 than
    above, so that holds iff the smallest offset moves every |x|."""
    step = min(map(abs, stencil_offsets(cfg).tolist()))
    for row in rows:
        size = np.abs(row)
        still = size + step == size
        if np.count_nonzero(still):
            raise StepError(f"stencil step {cfg.h} does not move the {label} "
                            f"{float(row[still][0])!r}; the step is below its rounding")


def stencil(f: QFunction, cfg: DiffConfig, base, rows: slice, sample, label: str) -> tuple:
    """Derivatives of f along the coordinate rows base[rows], with their spreads.

    base is four coordinate rows that broadcast to a shape S.  StepError
    unless the step moves every value of the rows it shifts (label names
    them).  Each call sample(f, shifted rows) takes G of the rows, as many
    as fit in CALL_POINTS points and at least one: each of them gains a
    leading shift axis of length G * n_offsets, and the other rows stay as
    they are.  The sampler returns any number of value rows, real or
    complex, each of shape (G * n_offsets, *S).

    Returns (derivative rows (n_values, len(rows), *S), spreads (len(rows),
    *S)).  A derivative is the central difference d1 at step h, or under
    Richardson (4 d2 - d1) / 3 with d2 the one at h/2.  The spread is the
    norm of d2 - d1 over the value rows (qabs_array, safe from overflow; for
    quaternion rows, the Richardson error estimate), zeros under central.
    """
    moved = base[rows]  # an array base is checked as one block, a tuple row by row
    require_step_moves((moved,) if isinstance(moved, np.ndarray) else moved, cfg, label)
    rows, offsets, shape, h = range(4)[rows], stencil_offsets(cfg), rows_shape(base), cfg.h
    n_off = len(offsets)
    size = max(1, CALL_POINTS // (n_off * max(1, math.prod(shape))))
    d, spread = [], []
    for start in range(0, len(rows), size):
        group = rows[start:start + size]
        shift = np.zeros((4, len(group), n_off))
        for g, k in enumerate(group):
            shift[k, g] = offsets
        shift = shift.reshape((4, -1) + (1,) * len(shape))
        # + 0.0 maps -0.0 to 0.0 on the rows left in place, as on the shifted ones
        shifted = [row + (shift[k] if k in group else 0.0) for k, row in enumerate(base)]
        values = sample(f, shifted)
        values = values.reshape((len(values), len(group), n_off) + shape)
        d1 = (values[:, :, 0] - values[:, :, 1]) / (2.0 * h)
        if cfg.scheme == "central":
            d.append(d1)
        else:
            d2 = (values[:, :, 2] - values[:, :, 3]) / h
            d.append((d2 * 4.0 - d1) / 3.0)
            spread.append(np.abs(d2 - d1))
    d = np.concatenate(d, axis=1)
    if not spread:
        return d, np.zeros(d.shape[1:])
    return d, qabs_array(np.concatenate(spread, axis=1))


def sphere_cr(du, dv, sin_beta) -> tuple:
    """The sphere-direction Cauchy-Riemann residuals (S1, S2) from the alpha
    and beta partials du = (du/da, du/db) and dv = (dv/da, dv/db):
    S1 = (sin b)^-1 dv/da + du/db, S2 = (sin b)^-1 du/da - dv/db."""
    return dv[0] / sin_beta + du[1], du[0] / sin_beta - dv[1]


def fueter_rows(d, right: bool = False) -> np.ndarray:
    """d[0] + i d[1] + j d[2] + k d[3] for rows d of shape (4, 4, ...) that
    hold the t, x, y, z partials, or with the units multiplying from the right.
    Each component is summed in one fixed order, whatever the layout of d."""
    t, x, y, z = d
    if right:
        return np.array((t[0] - x[1] - y[2] - z[3], x[0] + t[1] + z[2] - y[3],
                         y[0] - z[1] + t[2] + x[3], z[0] + y[1] - x[2] + t[3]))
    return np.array((t[0] - x[1] - y[2] - z[3], x[0] + t[1] - z[2] + y[3],
                     y[0] + z[1] + t[2] - x[3], z[0] - y[1] + x[2] + t[3]))


def chart_ok(chart: np.ndarray, cfg: DiffConfig) -> np.ndarray:
    """ columns whose chart stencils keep r > h, h < beta < pi - h, sin(beta) > the pole floor """
    _, r, _, beta = chart
    return ((r - cfg.h > 0.0) & (beta - cfg.h > 0.0) & (beta + cfg.h < math.pi)
            & (np.sin(beta) > POLE_SIN_BETA_FLOOR))


def _require_chart_margins(chart, cfg: DiffConfig):
    ok = chart_ok(chart, cfg)
    if not ok.all():
        raise ChartSingularityError(
            f"chart stencil of width {cfg.h} at (t, r, alpha, beta) = "
            f"{_first_failing(chart, ok)} leaves r > h, h < beta < pi - h, "
            f"sin(beta) > {POLE_SIN_BETA_FLOOR}")


def require_finite(f: QFunction, points, values: np.ndarray):
    """ DomainError naming f and the first of the points whose value rows are not all finite """
    finite = np.isfinite(values).all(axis=0)
    if not finite.all():
        raise DomainError(f"{f.name}: no finite value at {_first_failing(points, finite)}")


@dataclass(frozen=True)
class OperatorValue:
    """An operator sample (a Quaternion, or value rows (4, *S) for a batch)
    and its error estimate: the summed magnitudes of the h vs h/2
    Richardson differences when that scheme is active, 0.0 under central."""

    value: Quaternion
    estimated_error: float = 0.0


def point_rows(p) -> np.ndarray:
    """The rows (4,) of a Quaternion (t, x, y, z) or a SphericalPoint
    (t, r, alpha, beta): one point, a batch of shape ()."""
    if isinstance(p, Quaternion):
        return np.array((p.t, p.x, p.y, p.z))
    return np.array((p.t, p.r, p.alpha, p.beta))


def _operator(point_type, name: str = ""):
    """Decorator: the operator of a body over point rows that broadcast to a
    shape S, which reads one point of point_type (Quaternion for Cartesian
    rows (t, x, y, z), SphericalPoint for chart rows (t, r, alpha, beta)) as
    the batch of shape () and returns its result with scalars.  The body
    returns an OperatorValue, whose value rows become a Quaternion and its
    error a float, or a tuple of arrays, which become floats.  One point of
    the other type raises TypeError naming the operator (name, else the
    body's) and the point; a non-finite result raises DomainError."""

    def decorate(body):
        @functools.wraps(body)
        def operator(f: QFunction, points, cfg: DiffConfig = DiffConfig()):
            single = isinstance(points, (Quaternion, SphericalPoint))
            if single and not isinstance(points, point_type):
                raise TypeError(f"{name or body.__name__} reads one point as a "
                                f"{point_type.__name__}, not {points!r}")
            rows = point_rows(points) if single else points
            with np.errstate(all="ignore"):
                out = body(f, rows, cfg)
            values = out.value if isinstance(out, OperatorValue) else np.array(out)
            require_finite(f, rows, values)
            if not single:
                return out
            if isinstance(out, OperatorValue):
                return OperatorValue(_quaternion(*values.tolist()), float(out.estimated_error))
            return tuple(values.tolist())

        return operator

    return decorate


def _flat(f: QFunction, points: np.ndarray, cfg: DiffConfig, right: bool) -> OperatorValue:
    d, err = stencil(f, cfg, points, slice(0, 4), sample_cartesian, "Cartesian coordinate")
    return OperatorValue(fueter_rows(d.swapaxes(0, 1), right), err[0] + err[1] + err[2] + err[3])


@_operator(Quaternion)
def fueter_left(f: QFunction, points, cfg: DiffConfig = DiffConfig()) -> OperatorValue:
    """Left Fueter operator at Cartesian points, the units multiplying from the left."""
    return _flat(f, points, cfg, right=False)


@_operator(Quaternion)
def fueter_right(f: QFunction, points, cfg: DiffConfig = DiffConfig()) -> OperatorValue:
    """Right Fueter operator at Cartesian points, the units multiplying from the right."""
    return _flat(f, points, cfg, right=True)


def _chart_units(chart) -> tuple:
    """The quaternion rows (4, 4, *A) that multiply the t, r, alpha, beta
    partials in the chart operators (1, iota, iota_a^-1, iota_b^-1)
    and their norms (4, *A), which weight the error estimates; A is the
    shape that the alpha and beta rows broadcast to."""
    _, _, alpha, beta = chart
    sa, ca, sb, cb = np.sin(alpha), np.cos(alpha), np.sin(beta), np.cos(beta)
    shape = np.broadcast_shapes(np.shape(alpha), np.shape(beta))
    units, norms = np.zeros((4, 4) + shape), np.ones((4,) + shape)
    units[0, 0] = 1.0
    units[1, 1], units[2, 1], units[3, 1] = ca * sb, sa * sb, cb
    units[1, 2], units[2, 2] = sa / sb, -ca / sb
    units[1, 3], units[2, 3], units[3, 3] = -ca * cb, -sa * cb, sb
    norms[2] = 1.0 / sb
    return units, norms


def _chart_sum(f: QFunction, chart, cfg: DiffConfig, rows: slice,
               angular_scale=None) -> OperatorValue:
    """The sum over chart rows of unit * partial of f, the alpha and beta
    terms times angular_scale if given."""
    _require_chart_margins(chart, cfg)
    d, err = stencil(f, cfg, chart, rows, sample_chart, "chart coordinate")
    units, norms = _chart_units(chart)
    if angular_scale is not None:
        # 1.0 on the t and r terms, which it leaves bit for bit
        scale = np.ones((4,) + np.shape(angular_scale))
        scale[2:] = angular_scale
        units, norms = units * scale, norms * np.abs(scale)
    units, norms = units[:, rows], norms[rows]
    return OperatorValue(qmul_array(units, d).sum(axis=1), (norms * err).sum(axis=0))


@_operator(SphericalPoint)
def class1_residual(f: QFunction, chart, cfg: DiffConfig = DiffConfig()) -> OperatorValue:
    """d/dt f + iota d/dr f: zero iff the slice restrictions are holomorphic."""
    return _chart_sum(f, chart, cfg, slice(0, 2))


@_operator(SphericalPoint)
def imaginary_derivative(f: QFunction, chart, cfg: DiffConfig = DiffConfig()) -> OperatorValue:
    """iota_a^-1 d/da f + iota_b^-1 d/db f (left multiplication).

    For Class II functions this collapses to the scalar 2 v.
    """
    return _chart_sum(f, chart, cfg, slice(2, 4))


@_operator(SphericalPoint)
def fueter_spherical(f: QFunction, chart, cfg: DiffConfig = DiffConfig()) -> OperatorValue:
    """Left Fueter operator in chart coordinates: class1_residual - imaginary_derivative / r."""
    return _chart_sum(f, chart, cfg, slice(0, 4), -1.0 / chart[1])


@_operator(SphericalPoint)
def spherical_cr_residuals(f: QFunction, chart, cfg: DiffConfig = DiffConfig()) -> tuple:
    """The two sphere-direction Cauchy-Riemann residuals (S1, S2).

    S1 = (sin b)^-1 dv/da + du/db, S2 = (sin b)^-1 du/da - dv/db; both
    vanish wherever f is Class II.  The stencil differences f's (u, v) pair
    (function_model.sample_uv: its (u, v) view, else the projection of its
    chart samples on iota), broadcast to the shifted rows; a sweep's view
    repeats the same numbers on every shifted angle, so its residuals are 0.
    """
    _require_chart_margins(chart, cfg)
    d = stencil(f, cfg, chart, slice(2, 4),
                lambda f, at: stack_rows(sample_uv(f, at), rows_shape(at)), "chart coordinate")[0]
    return sphere_cr(d[0], d[1], np.sin(chart[3]))
