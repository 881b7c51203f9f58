"""Finite-difference Fueter-type operators in Cartesian and chart views.

All derivatives are 2nd-order central differences with step h, optionally
sharpened to 4th order by one Richardson extrapolation step (combining the
h and h/2 stencils; the magnitude of their disagreement is reported as the
error estimate).  Cartesian partials differentiate the raw evaluator;
(t, r, alpha, beta) partials differentiate the function composed with the
chart.  The two views agree because the chart round-trips.

One stencil engine, Stencils, takes every derivative for a whole batch of
point rows: Cartesian (t, x, y, z) for fueter_left/fueter_right, chart
(t, r, alpha, beta) for the rest.  The batch is four rows that broadcast
together to a shape S, such as an array (4, N) or a grid's open mesh.  A
stencil shifts only the row it differences, which gains a leading axis of
rows times offsets, so the other rows, and everything an evaluator
computes from them alone, keep their own size.  The operators take point
rows (4, N) and return value rows (4, N) with an (N,) error estimate, or
for one Quaternion or SphericalPoint a Quaternion and a float; one point
goes through the same engine as the rows (4,), a batch of shape ().

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
  which vanish for Class II functions.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .function_model import CALL_POINTS, QFunction, sample_cartesian, sample_chart
from .quaternion_core import (ChartSingularityError, DomainError, Quaternion, _quaternion,
                              iota_array, iota_coefficient, qabs_array, qmul_array,
                              rows_shape)

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


class StepError(ValueError):
    """A stencil step that some coordinate rounds away."""


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


def finish_stencil(samples, cfg: DiffConfig) -> tuple:
    """(derivative, d2 - d1) from samples[k], the value at offset
    stencil_offsets(cfg)[k].

    d1 and d2 are the central differences at steps h and h/2; their
    disagreement is the Richardson error estimate, 0.0 under central.
    """
    h = cfg.h
    d1 = (samples[0] - samples[1]) / (2.0 * h)
    if cfg.scheme == "central":
        return d1, 0.0
    d2 = (samples[2] - samples[3]) / h
    return (d2 * 4.0 - d1) / 3.0, d2 - d1


def _offsets_first(values: np.ndarray) -> np.ndarray:
    """ samples (n, G, n_offsets, *S) as (n_offsets, n, G, *S) """
    return values.transpose((2, 0, 1) + tuple(range(3, values.ndim)))


class Stencils:
    """Derivatives of f at a batch of points along some coordinate rows.

    The shifted points go to sample (sample_cartesian for Cartesian base
    rows, sample_chart for chart rows) as many rows per call as fit in
    CALL_POINTS points, and at least one.  Given a starting scale, it
    becomes the running max |f| over all samples.
    """

    def __init__(self, f: QFunction, cfg: DiffConfig, scale=None):
        self.f, self.cfg, self.scale = f, cfg, scale
        self.offsets = stencil_offsets(cfg)

    def along(self, base, rows, sample):
        """Yield (shifted coordinate rows, samples), one sampler call at a time.

        base is four coordinate rows that broadcast to a shape S.  In a
        call along G of the rows, each of them gains a leading shift axis
        of length G * n_offsets, and the other rows stay as they are.  The
        samples come back as (4, G, n_offsets, *S).
        """
        rows = list(rows)
        shape = rows_shape(base)
        n_off = len(self.offsets)
        size = max(1, CALL_POINTS // (n_off * max(1, math.prod(shape))))
        for start in range(0, len(rows), size):
            group = rows[start:start + size]
            shift = np.zeros((4, len(group), n_off))
            for g, k in enumerate(group):
                shift[k, g] = self.offsets
            shift = shift.reshape((4, -1) + (1,) * len(shape))
            # + 0.0 maps -0.0 to 0.0 on the rows left in place, as on the shifted ones
            shifted = [row + (shift[k] if k in group else 0.0) for k, row in enumerate(base)]
            values = sample(self.f, shifted).reshape((4, len(group), n_off) + shape)
            if self.scale is not None:
                self.scale = np.maximum(self.scale, qabs_array(values).max(axis=(0, 1)))
            yield shifted, values

    def partials(self, base, rows, sample) -> tuple:
        """(derivative rows (4, len(rows), *S), error estimates (len(rows), *S))."""
        d, spread = zip(*(finish_stencil(_offsets_first(values), self.cfg)
                          for _, values in self.along(base, rows, sample)))
        d = np.concatenate(d, axis=1)
        if self.cfg.scheme == "central":
            return d, np.zeros(d.shape[1:])
        return d, qabs_array(np.concatenate(spread, axis=1))

    def uv_partials(self, chart, rows) -> np.ndarray:
        """(du, dv) of shape (2, len(rows), *S) along chart rows; v is taken
        against the iota of each shifted sample's own angles."""
        uv = [np.array((values[0], iota_coefficient(values, iota_array(at).reshape(values.shape))))
              for at, values in self.along(chart, rows, sample_chart)]
        return finish_stencil(_offsets_first(np.concatenate(uv, axis=1)), self.cfg)[0]


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


def _require_chart_margins(chart: np.ndarray, cfg: DiffConfig):
    ok = chart_ok(chart, cfg)
    if not ok.all():
        at = chart.reshape(4, -1)[:, np.argmin(ok)]
        raise ChartSingularityError(
            f"chart stencil of width {cfg.h} at (t, r, alpha, beta) = "
            f"{tuple(at.tolist())} leaves r > h, h < beta < pi - h, "
            f"sin(beta) > {POLE_SIN_BETA_FLOOR}")


def require_finite(f: QFunction, points: np.ndarray, values: np.ndarray):
    """ DomainError naming f and the first point whose value rows are not all finite """
    finite = np.isfinite(values).all(axis=0)
    if not finite.all():
        at = points.reshape(4, -1)[:, np.argmin(finite)]  # points (4, *S), one point S = ()
        raise DomainError(f"{f.name}: no finite value at {tuple(at.tolist())}")


@dataclass(frozen=True)
class OperatorValue:
    """An operator sample (a Quaternion, or value rows (4, N) for a batch)
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


def _operator(differenced: slice, label: str):
    """The operator of a body over point rows (4, N), also for one point as the
    batch of shape () with scalars.  StepError where the step does not move the
    rows the body differences (label coordinates), DomainError on a non-finite result."""

    def wrap(body):
        @functools.wraps(body)
        def operator(f: QFunction, points, cfg: DiffConfig = DiffConfig()):
            single = not isinstance(points, np.ndarray)
            rows = point_rows(points) if single else points
            require_step_moves((rows[differenced],), cfg, label)
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
    return wrap


def _flat(f: QFunction, points: np.ndarray, cfg: DiffConfig, right: bool) -> OperatorValue:
    d, err = Stencils(f, cfg).partials(points, range(4), sample_cartesian)
    return OperatorValue(fueter_rows(d.swapaxes(0, 1), right), err[0] + err[1] + err[2] + err[3])


@_operator(slice(0, 4), "Cartesian coordinate")
def fueter_left(f: QFunction, points, cfg: DiffConfig = DiffConfig()) -> OperatorValue:
    """Left Fueter operator at Cartesian points, the units multiplying from the left."""
    return _flat(f, points, cfg, right=False)


@_operator(slice(0, 4), "Cartesian coordinate")
def fueter_right(f: QFunction, points, cfg: DiffConfig = DiffConfig()) -> OperatorValue:
    """Right Fueter operator at Cartesian points, the units multiplying from the right."""
    return _flat(f, points, cfg, right=True)


def _chart_units(chart: np.ndarray) -> tuple:
    """The quaternion rows (4, 4, N) that multiply the t, r, alpha, beta
    partials in the chart operators (1, iota, iota_a^-1, iota_b^-1)
    and their norms (4, N), which weight the error estimates."""
    _, _, alpha, beta = chart
    sa, ca, sb, cb = np.sin(alpha), np.cos(alpha), np.sin(beta), np.cos(beta)
    one, zero = np.ones_like(sb), np.zeros_like(sb)
    units = np.array(((one, zero, zero, zero),
                      (zero, ca * sb, sa / sb, -ca * cb),
                      (zero, sa * sb, -ca / sb, -sa * cb),
                      (zero, cb, zero, sb)))
    return units, np.array((one, one, 1.0 / sb, one))


def _chart_sum(f: QFunction, chart: np.ndarray, cfg: DiffConfig, rows: slice,
               angular_scale=None) -> OperatorValue:
    """The sum over chart rows of unit * partial of f, the alpha and beta
    terms times angular_scale if given."""
    _require_chart_margins(chart, cfg)
    d, err = Stencils(f, cfg).partials(chart, range(4)[rows], sample_chart)
    units, norms = _chart_units(chart)
    if angular_scale is not None:
        units[:, 2:] *= angular_scale
        norms[2:] *= np.abs(angular_scale)
    units, norms = units[:, rows], norms[rows]
    return OperatorValue(qmul_array(units, d).sum(axis=1), (norms * err).sum(axis=0))


@_operator(slice(0, 2), "chart coordinate")
def class1_residual(f: QFunction, chart, cfg: DiffConfig = DiffConfig()) -> OperatorValue:
    """d/dt f + iota d/dr f: zero iff the slice restrictions are holomorphic."""
    return _chart_sum(f, chart, cfg, slice(0, 2))


@_operator(slice(2, 4), "chart coordinate")
def imaginary_derivative(f: QFunction, chart, cfg: DiffConfig = DiffConfig()) -> OperatorValue:
    """iota_a^-1 d/da f + iota_b^-1 d/db f (left multiplication).

    For Class II functions this collapses to the scalar 2 v.
    """
    return _chart_sum(f, chart, cfg, slice(2, 4))


@_operator(slice(0, 4), "chart coordinate")
def fueter_spherical(f: QFunction, chart, cfg: DiffConfig = DiffConfig()) -> OperatorValue:
    """Left Fueter operator in chart coordinates: class1_residual - imaginary_derivative / r."""
    return _chart_sum(f, chart, cfg, slice(0, 4), -1.0 / chart[1])


@_operator(slice(2, 4), "chart coordinate")
def spherical_cr_residuals(f: QFunction, chart, cfg: DiffConfig = DiffConfig()) -> tuple:
    """The two sphere-direction Cauchy-Riemann residuals (S1, S2).

    S1 = (sin b)^-1 dv/da + du/db, S2 = (sin b)^-1 du/da - dv/db; both
    vanish wherever f is Class II.
    """
    _require_chart_margins(chart, cfg)
    du, dv = Stencils(f, cfg).uv_partials(chart, (2, 3))
    sb = np.sin(chart[3])
    return dv[0] / sb + du[1], du[0] / sb - dv[1]
