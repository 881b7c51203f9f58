"""Quaternion arithmetic and the spherical chart.

A quaternion p = t + x*i + y*j + z*k with nonzero imaginary part is split
as p = t + iota*r, where r is the length of the imaginary part and iota is
the unit imaginary direction

    iota(alpha, beta) = (cos(alpha) sin(beta), sin(alpha) sin(beta), cos(beta)),

so iota**2 = -1.  The chart (t, r, alpha, beta) is singular on the real
axis (r = 0) and at the poles (sin(beta) = 0, i.e. the imaginary part
parallel to k); both raise ChartSingularityError.  Everything downstream
(difference stencils, classification grids, series windows) keeps a margin
away from those sets.

The *_array functions are the batched twins used by grid sweeps: a
quaternion batch is an array of shape (4, ...) with rows (t, x, y, z), a
chart batch has rows (t, r, alpha, beta), and points where the scalar form
raises come back as NaN columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class DomainError(ValueError):
    """Evaluation requested outside a function's valid domain."""


class ChartSingularityError(DomainError):
    """The spherical chart is not defined at this point."""


class Quaternion:
    """A quaternion with real components (t, x, y, z)."""

    __slots__ = ("t", "x", "y", "z")

    def __init__(self, t: float = 0.0, x: float = 0.0, y: float = 0.0, z: float = 0.0):
        self.t = float(t)
        self.x = float(x)
        self.y = float(y)
        self.z = float(z)

    @classmethod
    def from_vector(cls, vec, t: float = 0.0) -> "Quaternion":
        """ quaternion t + v1*i + v2*j + v3*k from a 3-vector """
        v1, v2, v3 = vec
        return cls(t, v1, v2, v3)

    @property
    def vector(self) -> tuple:
        return (self.x, self.y, self.z)

    def __repr__(self):
        return f"Quaternion({self.t!r}, {self.x!r}, {self.y!r}, {self.z!r})"

    def __eq__(self, other):
        if isinstance(other, Quaternion):
            return (self.t, self.x, self.y, self.z) == (other.t, other.x, other.y, other.z)
        if isinstance(other, (int, float)):
            return (self.t, self.x, self.y, self.z) == (other, 0.0, 0.0, 0.0)
        return NotImplemented

    def __add__(self, other):
        if isinstance(other, Quaternion):
            return Quaternion(self.t + other.t, self.x + other.x,
                              self.y + other.y, self.z + other.z)
        if isinstance(other, (int, float)):
            return Quaternion(self.t + other, self.x, self.y, self.z)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Quaternion):
            return Quaternion(self.t - other.t, self.x - other.x,
                              self.y - other.y, self.z - other.z)
        if isinstance(other, (int, float)):
            return Quaternion(self.t - other, self.x, self.y, self.z)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, float)):
            return Quaternion(other - self.t, -self.x, -self.y, -self.z)
        return NotImplemented

    def __neg__(self):
        return Quaternion(-self.t, -self.x, -self.y, -self.z)

    def __mul__(self, other):
        """ Hamilton product (or scaling by a real number) """
        if isinstance(other, Quaternion):
            a, b, c, d = self.t, self.x, self.y, self.z
            e, f, g, h = other.t, other.x, other.y, other.z
            return Quaternion(a * e - b * f - c * g - d * h,
                              a * f + b * e + c * h - d * g,
                              a * g - b * h + c * e + d * f,
                              a * h + b * g - c * f + d * e)
        if isinstance(other, (int, float)):
            return Quaternion(self.t * other, self.x * other,
                              self.y * other, self.z * other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return Quaternion(self.t * other, self.x * other,
                              self.y * other, self.z * other)
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return Quaternion(self.t / other, self.x / other,
                              self.y / other, self.z / other)
        if isinstance(other, Quaternion):
            return self * other.inverse()
        return NotImplemented

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.t, -self.x, -self.y, -self.z)

    def norm_sq(self) -> float:
        return self.t * self.t + self.x * self.x + self.y * self.y + self.z * self.z

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())

    __abs__ = norm

    def vector_norm(self) -> float:
        """ length of the imaginary part """
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)

    def inverse(self) -> "Quaternion":
        n2 = self.norm_sq()
        if n2 == 0.0:
            raise ZeroDivisionError("0 has no quaternion inverse")
        return Quaternion(self.t / n2, -self.x / n2, -self.y / n2, -self.z / n2)

    def isclose(self, other: "Quaternion", tol: float = 1e-12) -> bool:
        return (self - other).norm() <= tol


ONE = Quaternion(1.0)
I = Quaternion(0.0, 1.0)
J = Quaternion(0.0, 0.0, 1.0)
K = Quaternion(0.0, 0.0, 0.0, 1.0)


def iota(alpha: float, beta: float) -> Quaternion:
    """ unit imaginary direction for chart angles (alpha, beta) """
    sb = math.sin(beta)
    return Quaternion(0.0, math.cos(alpha) * sb, math.sin(alpha) * sb, math.cos(beta))


def iota_alpha(alpha: float, beta: float) -> Quaternion:
    """ tangent d(iota)/d(alpha); squared norm sin(beta)**2 """
    sb = math.sin(beta)
    return Quaternion(0.0, -math.sin(alpha) * sb, math.cos(alpha) * sb, 0.0)


def iota_beta(alpha: float, beta: float) -> Quaternion:
    """ tangent d(iota)/d(beta); unit norm """
    cb = math.cos(beta)
    return Quaternion(0.0, math.cos(alpha) * cb, math.sin(alpha) * cb, -math.sin(beta))


def iota_alpha_inv(alpha: float, beta: float) -> Quaternion:
    """ inverse of iota_alpha: (sin(alpha), -cos(alpha), 0) / sin(beta) """
    sb = math.sin(beta)
    return Quaternion(0.0, math.sin(alpha) / sb, -math.cos(alpha) / sb, 0.0)


def iota_beta_inv(alpha: float, beta: float) -> Quaternion:
    """ inverse of iota_beta: -iota_beta """
    cb = math.cos(beta)
    return Quaternion(0.0, -math.cos(alpha) * cb, -math.sin(alpha) * cb, math.sin(beta))


@dataclass(frozen=True)
class SphericalPoint:
    """Chart coordinates (t, r, alpha, beta) of a quaternion off the real axis."""

    t: float
    r: float
    alpha: float
    beta: float

    def to_quaternion(self) -> Quaternion:
        sb = math.sin(self.beta)
        return Quaternion(self.t,
                          self.r * math.cos(self.alpha) * sb,
                          self.r * math.sin(self.alpha) * sb,
                          self.r * math.cos(self.beta))

    def iota(self) -> Quaternion:
        return iota(self.alpha, self.beta)


def to_spherical(p: Quaternion) -> SphericalPoint:
    """Chart coordinates of p.

    Raises ChartSingularityError on the real axis (r = 0) and at the poles
    x = y = 0, where alpha is undefined.
    """
    r = p.vector_norm()
    if r == 0.0:
        raise ChartSingularityError("point on the real axis: iota undefined")
    if p.x == 0.0 and p.y == 0.0:
        raise ChartSingularityError("imaginary part parallel to k: alpha undefined")
    beta = math.acos(max(-1.0, min(1.0, p.z / r)))
    alpha = math.atan2(p.y, p.x)
    return SphericalPoint(p.t, r, alpha, beta)


def from_spherical(s: SphericalPoint) -> Quaternion:
    """ inverse chart map """
    return s.to_quaternion()


def qmul_array(a, b) -> np.ndarray:
    """ Hamilton product of quaternion rows; shapes broadcast after axis 0 """
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return np.stack((a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
                     a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
                     a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
                     a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0))


def qabs_array(q) -> np.ndarray:
    """ norms of quaternion rows, summed in the order Quaternion.norm uses """
    return np.sqrt(q[0] * q[0] + q[1] * q[1] + q[2] * q[2] + q[3] * q[3])


def iota_array(chart: np.ndarray) -> np.ndarray:
    """ quaternion rows of iota at the angles of chart rows """
    alpha, beta = chart[2], chart[3]
    sb = np.sin(beta)
    return np.stack((np.zeros_like(sb), np.cos(alpha) * sb, np.sin(alpha) * sb, np.cos(beta)))


def to_spherical_array(q: np.ndarray) -> np.ndarray:
    """Chart rows (t, r, alpha, beta) of quaternion rows (t, x, y, z).

    Columns where to_spherical raises (real axis, poles) are NaN.
    """
    t, x, y, z = q
    r = np.sqrt(x * x + y * y + z * z)
    with np.errstate(invalid="ignore", divide="ignore"):
        beta = np.arccos(np.clip(z / r, -1.0, 1.0))
    chart = np.stack((t, r, np.arctan2(y, x), beta))
    chart[:, (x == 0.0) & (y == 0.0)] = np.nan
    return chart


def from_spherical_array(chart: np.ndarray) -> np.ndarray:
    """ quaternion rows of chart rows; the inverse of to_spherical_array """
    t, r, alpha, beta = chart
    sb = np.sin(beta)
    return np.stack((t, r * np.cos(alpha) * sb, r * np.sin(alpha) * sb, r * np.cos(beta)))
