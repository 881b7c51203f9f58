"""Finite-difference Fueter-type operators in Cartesian and chart views.

All derivatives are 2nd-order central differences with step h, optionally
sharpened to 4th order by one Richardson extrapolation step (combining the
h and h/2 stencils; the magnitude of their disagreement is reported as the
error estimate).  Cartesian partials differentiate the raw evaluator;
(t, r, alpha, beta) partials differentiate the function composed with the
chart.  The two views agree because the chart round-trips.

Operators:

* fueter_left   : d/dt f + i d/dx f + j d/dy f + k d/dz f
* fueter_right  : d/dt f + (d/dx f) i + (d/dy f) j + (d/dz f) k
* class1_residual : d/dt f + iota d/dr f              (slice holomorphy)
* fueter_spherical : d/dt f + iota d/dr f
      - r^-1 (iota_alpha^-1 d/da f + iota_beta^-1 d/db f)
  which equals fueter_left identically; the mirrored multiplication order
  gives fueter_spherical_right.
* imaginary_derivative : iota_alpha^-1 d/da f + iota_beta^-1 d/db f,
  so that fueter_left = class1_residual - (1/r) * imaginary_derivative.
* spherical_cr_residuals : the two scalar residuals
      S1 = (sin beta)^-1 dv/da + du/db
      S2 = (sin beta)^-1 du/da - dv/db
  which vanish for Class II functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .function_model import QFunction
from .quaternion_core import (
    ChartSingularityError,
    Quaternion,
    SphericalPoint,
    iota,
    iota_alpha_inv,
    iota_beta_inv,
)

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
        if not self.h > 0.0:
            raise ValueError("step h must be positive")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")

    def point_tolerance(self, scale: float) -> float:
        """ absolute-plus-relative threshold for one residual sample """
        return self.tol_abs + self.tol_rel * scale


def stencil_offsets(cfg: DiffConfig) -> np.ndarray:
    """ sample offsets of one stencil: (h, -h), plus (h/2, -h/2) for Richardson """
    if cfg.scheme == "richardson":
        return np.array([cfg.h, -cfg.h, cfg.h / 2.0, -cfg.h / 2.0])
    return np.array([cfg.h, -cfg.h])


def finish_stencil(samples, cfg: DiffConfig):
    """Derivative from samples[k], the value at offset stencil_offsets(cfg)[k]."""
    h = cfg.h
    d1 = (samples[0] - samples[1]) / (2.0 * h)
    if cfg.scheme == "central":
        return d1
    d2 = (samples[2] - samples[3]) / h
    return (d2 * 4.0 - d1) / 3.0


@dataclass(frozen=True)
class OperatorValue:
    """An operator sample and the stencil-disagreement error estimate.

    estimated_error is the summed magnitude of the h vs h/2 Richardson
    differences when that scheme is active, 0.0 for plain central
    differences.
    """

    value: Quaternion
    estimated_error: float = 0.0


def directional_diff(sample, cfg: DiffConfig):
    """Differentiate delta -> sample(delta) at delta = 0.

    sample may return Quaternion, complex, or float; returns (derivative,
    estimated_error) under the configured scheme.
    """
    h = cfg.h
    d1 = (sample(h) - sample(-h)) / (2.0 * h)
    if cfg.scheme == "central":
        return d1, 0.0
    d2 = (sample(h / 2.0) - sample(-h / 2.0)) / h
    return (d2 * 4.0 - d1) / 3.0, abs(d2 - d1)


def _cartesian_partial(f: QFunction, p: Quaternion, axis: int, cfg: DiffConfig):
    offsets = [0.0, 0.0, 0.0, 0.0]

    def sample(delta: float) -> Quaternion:
        offsets[axis] = delta
        q = Quaternion(p.t + offsets[0], p.x + offsets[1],
                       p.y + offsets[2], p.z + offsets[3])
        return f(q)

    return directional_diff(sample, cfg)


def _chart_partial(f: QFunction, s: SphericalPoint, axis: str, cfg: DiffConfig):
    def sample(delta: float) -> Quaternion:
        return f.at_spherical(replace(s, **{axis: getattr(s, axis) + delta}))

    return directional_diff(sample, cfg)


def _require_chart_margins(s: SphericalPoint, cfg: DiffConfig):
    if s.r - cfg.h <= 0.0:
        raise ChartSingularityError(f"r stencil at r={s.r} crosses the real axis")
    if s.beta - cfg.h <= 0.0 or s.beta + cfg.h >= math.pi:
        raise ChartSingularityError(f"beta stencil at beta={s.beta} leaves (0, pi)")
    if math.sin(s.beta) <= POLE_SIN_BETA_FLOOR:
        raise ChartSingularityError(
            f"sin(beta)={math.sin(s.beta):.3g} below pole margin {POLE_SIN_BETA_FLOOR}")


def fueter_left(f: QFunction, p: Quaternion, cfg: DiffConfig = DiffConfig()) -> OperatorValue:
    """Left Fueter operator at p, with the units multiplying from the left."""
    dt, et = _cartesian_partial(f, p, 0, cfg)
    dx, ex = _cartesian_partial(f, p, 1, cfg)
    dy, ey = _cartesian_partial(f, p, 2, cfg)
    dz, ez = _cartesian_partial(f, p, 3, cfg)
    value = (dt + Quaternion(0, 1, 0, 0) * dx
             + Quaternion(0, 0, 1, 0) * dy + Quaternion(0, 0, 0, 1) * dz)
    return OperatorValue(value, et + ex + ey + ez)


def fueter_right(f: QFunction, p: Quaternion, cfg: DiffConfig = DiffConfig()) -> OperatorValue:
    """Right Fueter operator at p, with the units multiplying from the right."""
    dt, et = _cartesian_partial(f, p, 0, cfg)
    dx, ex = _cartesian_partial(f, p, 1, cfg)
    dy, ey = _cartesian_partial(f, p, 2, cfg)
    dz, ez = _cartesian_partial(f, p, 3, cfg)
    value = (dt + dx * Quaternion(0, 1, 0, 0)
             + dy * Quaternion(0, 0, 1, 0) + dz * Quaternion(0, 0, 0, 1))
    return OperatorValue(value, et + ex + ey + ez)


def class1_residual(f: QFunction, s: SphericalPoint, cfg: DiffConfig = DiffConfig()) -> OperatorValue:
    """d/dt f + iota d/dr f: zero iff the slice restrictions are holomorphic."""
    _require_chart_margins(s, cfg)
    dt, et = _chart_partial(f, s, "t", cfg)
    dr, er = _chart_partial(f, s, "r", cfg)
    return OperatorValue(dt + s.iota() * dr, et + er)


def imaginary_derivative(f: QFunction, s: SphericalPoint, cfg: DiffConfig = DiffConfig()) -> OperatorValue:
    """iota_alpha^-1 d/da f + iota_beta^-1 d/db f (left multiplication).

    For Class II functions this collapses to the scalar 2 v.
    """
    _require_chart_margins(s, cfg)
    da, ea = _chart_partial(f, s, "alpha", cfg)
    db, eb = _chart_partial(f, s, "beta", cfg)
    value = iota_alpha_inv(s.alpha, s.beta) * da + iota_beta_inv(s.alpha, s.beta) * db
    # the inverse alpha-tangent has norm 1/sin(beta): scale its share of the
    # error estimate accordingly
    return OperatorValue(value, ea / math.sin(s.beta) + eb)


def fueter_spherical(f: QFunction, s: SphericalPoint, cfg: DiffConfig = DiffConfig()) -> OperatorValue:
    """Left Fueter operator assembled in chart coordinates."""
    hol = class1_residual(f, s, cfg)
    imag = imaginary_derivative(f, s, cfg)
    return OperatorValue(hol.value - imag.value / s.r,
                         hol.estimated_error + imag.estimated_error / s.r)


def fueter_spherical_right(f: QFunction, s: SphericalPoint, cfg: DiffConfig = DiffConfig()) -> OperatorValue:
    """Right Fueter operator assembled in chart coordinates (mirrored order)."""
    _require_chart_margins(s, cfg)
    dt, et = _chart_partial(f, s, "t", cfg)
    dr, er = _chart_partial(f, s, "r", cfg)
    da, ea = _chart_partial(f, s, "alpha", cfg)
    db, eb = _chart_partial(f, s, "beta", cfg)
    value = (dt + dr * s.iota()
             - (da * iota_alpha_inv(s.alpha, s.beta)
                + db * iota_beta_inv(s.alpha, s.beta)) / s.r)
    err = et + er + (ea / math.sin(s.beta) + eb) / s.r
    return OperatorValue(value, err)


def _uv_at_spherical(f: QFunction, s: SphericalPoint) -> tuple:
    val = f.at_spherical(s)
    io = iota(s.alpha, s.beta)
    return val.t, val.x * io.x + val.y * io.y + val.z * io.z


def spherical_cr_residuals(f: QFunction, s: SphericalPoint, cfg: DiffConfig = DiffConfig()) -> tuple:
    """The two sphere-direction Cauchy-Riemann residuals (S1, S2).

    S1 = (sin b)^-1 dv/da + du/db, S2 = (sin b)^-1 du/da - dv/db; both
    vanish wherever f is Class II.
    """
    _require_chart_margins(s, cfg)

    def u_sample(axis):
        def sample(delta):
            return _uv_at_spherical(f, replace(s, **{axis: getattr(s, axis) + delta}))[0]
        return sample

    def v_sample(axis):
        def sample(delta):
            return _uv_at_spherical(f, replace(s, **{axis: getattr(s, axis) + delta}))[1]
        return sample

    du_da, _ = directional_diff(u_sample("alpha"), cfg)
    du_db, _ = directional_diff(u_sample("beta"), cfg)
    dv_da, _ = directional_diff(v_sample("alpha"), cfg)
    dv_db, _ = directional_diff(v_sample("beta"), cfg)
    sb = math.sin(s.beta)
    return dv_da / sb + du_db, du_da / sb - dv_db
