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

Quaternion() coerces its components to float.  Arithmetic results are
already floats, so they skip that coercion: a product or sum of two
quaternions, the bulk of a user's quaternion polynomial, is built in place
by object.__new__ and four slot stores, and every other result by the
private _quaternion, which the batched samplers also use for points read
from arrays.  A real scalar operand is coerced once, so every component of
every result is a float.  SphericalPoint is a named tuple, cheap enough to
build once per sample of a user's scalar field.

The *_array functions are the batched twins used by grid sweeps.  A batch
is four rows, (t, x, y, z) for quaternions or (t, r, alpha, beta) for the
chart, that broadcast together to the shape of the batch: an array (4, N)
is one case, and an open mesh of a grid (one axis per row) is another.
Each row is computed on its own shape, so an axis value is mapped once, not
once per point.  to_spherical_array and from_spherical_rows return their
rows, each as large as the rows it is computed from (so Cartesian rows of a
chart mesh keep t on its own axis, and x, y, z without it);
from_spherical_array and iota_array return the full array (4, *shape).
Points where the scalar form raises come back as NaN columns.
"""

from __future__ import annotations

import math
from typing import NamedTuple

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

    def __repr__(self):
        return f"Quaternion({self.t!r}, {self.x!r}, {self.y!r}, {self.z!r})"

    def __eq__(self, other):
        if isinstance(other, Quaternion):
            return (self.t, self.x, self.y, self.z) == (other.t, other.x, other.y, other.z)
        if isinstance(other, (int, float)):
            return (self.t, self.x, self.y, self.z) == (other, 0.0, 0.0, 0.0)
        return NotImplemented

    def __add__(self, other):
        if type(other) is Quaternion or isinstance(other, Quaternion):
            q = _new_object(Quaternion)
            q.t = self.t + other.t
            q.x = self.x + other.x
            q.y = self.y + other.y
            q.z = self.z + other.z
            return q
        if isinstance(other, (int, float)):
            return _quaternion(self.t + float(other), self.x, self.y, self.z)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is Quaternion or isinstance(other, Quaternion):
            return _quaternion(self.t - other.t, self.x - other.x,
                               self.y - other.y, self.z - other.z)
        if isinstance(other, (int, float)):
            return _quaternion(self.t - float(other), self.x, self.y, self.z)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, float)):
            return _quaternion(float(other) - self.t, -self.x, -self.y, -self.z)
        return NotImplemented

    def __neg__(self):
        return _quaternion(-self.t, -self.x, -self.y, -self.z)

    def __mul__(self, other):
        """ Hamilton product (or scaling by a real number) """
        if type(other) is Quaternion or isinstance(other, Quaternion):
            a = self.t
            b = self.x
            c = self.y
            d = self.z
            e = other.t
            f = other.x
            g = other.y
            h = other.z
            q = _new_object(Quaternion)
            q.t = a * e - b * f - c * g - d * h
            q.x = a * f + b * e + c * h - d * g
            q.y = a * g - b * h + c * e + d * f
            q.z = a * h + b * g - c * f + d * e
            return q
        if isinstance(other, (int, float)):
            s = float(other)
            return _quaternion(self.t * s, self.x * s, self.y * s, self.z * s)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            s = float(other)
            return _quaternion(self.t / s, self.x / s, self.y / s, self.z / s)
        if isinstance(other, Quaternion):
            return self * other.inverse()
        return NotImplemented

    def conjugate(self) -> "Quaternion":
        return _quaternion(self.t, -self.x, -self.y, -self.z)

    def norm_sq(self) -> float:
        return self.t * self.t + self.x * self.x + self.y * self.y + self.z * self.z

    def norm(self) -> float:
        """ |p|; where the sum of squares overflows, qabs_array's rescaled norm """
        norm = math.sqrt(self.norm_sq())
        return norm if norm != math.inf else float(qabs_array((self.t, self.x, self.y, self.z)))

    __abs__ = norm

    def vector_norm(self) -> float:
        """ length of the imaginary part; where its sum of squares overflows,
        qabs_array's rescaled norm """
        norm = math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)
        return norm if norm != math.inf else float(qabs_array((self.x, self.y, self.z)))

    def inverse(self) -> "Quaternion":
        n2 = self.norm_sq()
        if n2 == 0.0:
            raise ZeroDivisionError("0 has no quaternion inverse")
        return _quaternion(self.t / n2, -self.x / n2, -self.y / n2, -self.z / n2)


_new_object = object.__new__


def _quaternion(t: float, x: float, y: float, z: float) -> Quaternion:
    """Quaternion from four floats, without the coercion of Quaternion():
    for results of float arithmetic, which are floats already."""
    q = _new_object(Quaternion)
    q.t = t
    q.x = x
    q.y = y
    q.z = z
    return q

ONE = Quaternion(1.0)
I = Quaternion(0.0, 1.0)
J = Quaternion(0.0, 0.0, 1.0)
K = Quaternion(0.0, 0.0, 0.0, 1.0)


def iota(alpha: float, beta: float) -> Quaternion:
    """ unit imaginary direction for chart angles (alpha, beta) """
    sb = math.sin(beta)
    return Quaternion(0.0, math.cos(alpha) * sb, math.sin(alpha) * sb, math.cos(beta))


class SphericalPoint(NamedTuple):
    """Chart coordinates (t, r, alpha, beta) of a quaternion off the real axis."""

    t: float
    r: float
    alpha: float
    beta: float


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
    beta = math.atan2(math.hypot(p.x, p.y), p.z)
    alpha = math.atan2(p.y, p.x)
    return SphericalPoint(p.t, r, alpha, beta)


def from_spherical(s: SphericalPoint) -> Quaternion:
    """ inverse chart map """
    t, r, alpha, beta = float(s.t), float(s.r), s.alpha, s.beta
    sb = math.sin(beta)
    return _quaternion(t, r * math.cos(alpha) * sb, r * math.sin(alpha) * sb, r * math.cos(beta))


def qmul_array(a, b) -> np.ndarray:
    """ Hamilton product of quaternion rows, summed in the order Quaternion.__mul__
    uses; shapes broadcast after axis 0 """
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return np.array((a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
                     a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
                     a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
                     a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0))


def qconj_array(q) -> np.ndarray:
    """ conjugates of quaternion rows """
    return np.concatenate((q[:1], -q[1:]))


def _sum_of_squares(rows):
    """ the squares of rows summed first to last, the first square taken as the start """
    first, *rest = rows
    return sum((row * row for row in rest), first * first)


def qabs_array(q) -> np.ndarray:
    """Euclidean norms across the rows of q, any number of them: for
    quaternion rows, summed in the order Quaternion.norm uses.

    Where that sum overflows though every component is finite (a component
    above about 1.3e154), the norm is taken again with the components
    scaled by the largest of them; every other norm keeps its bits.
    """
    with np.errstate(over="ignore"):
        norm = np.sqrt(_sum_of_squares(q))
        over = np.isinf(norm)
        if over.any():
            over &= np.isfinite(q).all(axis=0)
            big = np.where(over, np.max(np.abs(q), axis=0), 1.0)
            norm = np.where(over, big * np.sqrt(_sum_of_squares(row / big for row in q)), norm)
    return norm


def rows_shape(rows) -> tuple:
    """ the shape that point rows broadcast to: (N,) for an array (4, N) """
    if isinstance(rows, np.ndarray):
        return rows.shape[1:]
    return np.broadcast(*rows).shape


def stack_rows(rows, shape: tuple) -> np.ndarray:
    """ the float array (4, *shape) of four rows, each broadcast to shape """
    out = np.empty((4,) + shape)
    out[0], out[1], out[2], out[3] = rows
    return out


def iota_array(chart) -> np.ndarray:
    """ quaternion rows of iota at the angles of chart rows """
    alpha, beta = chart[2], chart[3]
    sb = np.sin(beta)
    return stack_rows((0.0, np.cos(alpha) * sb, np.sin(alpha) * sb, np.cos(beta)),
                      rows_shape(chart))


def iota_coefficient(q, io):
    """ coefficient of iota in the imaginary part of quaternion rows q (the v of u + iota v) """
    return q[1] * io[1] + q[2] * io[2] + q[3] * io[3]


def antipodal_angles(alpha, beta) -> tuple:
    """The chart angles of -iota(alpha, beta), for numbers or rows: alpha - pi
    or alpha + pi, whichever stays in [-pi, pi] (0.0 goes to -pi, -0.0 to
    +pi), and pi - beta."""
    return alpha - np.copysign(math.pi, alpha), math.pi - beta


def to_spherical_array(q):
    """Chart rows (t, r, alpha, beta) of quaternion rows (t, x, y, z).

    The four rows broadcast together, each in the shape of the rows it is
    computed from: t as given, alpha from x and y alone (an array (4, ...)
    of quaternion rows gives one of chart rows).  Columns where to_spherical
    raises (real axis, poles) are NaN in every row.
    """
    t, x, y, z = q
    chart = (t, np.sqrt(x * x + y * y + z * z), np.arctan2(y, x), np.arctan2(np.hypot(x, y), z))
    pole = (x == 0.0) & (y == 0.0)
    if pole.any():
        chart = tuple(np.where(pole, np.nan, row) for row in chart)
    return np.array(chart) if isinstance(q, np.ndarray) else chart


def from_spherical_rows(chart) -> tuple:
    """Quaternion rows (t, x, y, z) of chart rows; the inverse of
    to_spherical_array.

    Each row keeps the shape of the rows it is computed from: t as given,
    x and y from r, alpha and beta, z from r and beta alone.
    """
    t, r, alpha, beta = chart
    sb = np.sin(beta)
    return t, r * np.cos(alpha) * sb, r * np.sin(alpha) * sb, r * np.cos(beta)


def from_spherical_array(chart) -> np.ndarray:
    """ the full array (4, *shape) of from_spherical_rows """
    return stack_rows(from_spherical_rows(chart), rows_shape(chart))
