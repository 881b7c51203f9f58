r"""Slice-wise Laurent expansion with angle-dependent coefficients.

A Class I function restricted to the slice through iota(alpha, beta) is a
holomorphic function of z = t + i r, so on an annulus

    inner < |z - (c1 + i c2)| < outer,     c2 - outer > 0,

it has a Laurent expansion whose coefficients a_n(alpha, beta) generally
vary with the slice.  Coefficients are contour integrals

    a_n = (1 / 2 pi i) \oint F(z) (z - c)^(-n-1) dz

taken on the mid-circle of the annulus.  With equispaced angles the
trapezoid rule is exponentially accurate for analytic F and reduces to an
FFT, which yields every order from one ring of samples.

The slice plane is treated with a signed radius: z with Im z < 0 addresses
the quaternion t + (Im z) iota, i.e. the antipodal half of the same plane.
That makes expansions about the mirrored center c1 - i c2 available, which
is how the coefficient symmetry of the mirror involution is verified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .diffops import DiffConfig
from .function_model import FunctionKindError, QFunction
from .quaternion_core import DomainError, Quaternion, iota, to_spherical

MIN_QUADRATURE_POINTS = 16
SIN_BETA_MARGIN = 0.1
ALIGNMENT_TOL = 1e-6


@dataclass(frozen=True)
class AnnulusRegion:
    """Expansion region: a (t, r) annulus times an (alpha, beta) window."""

    center_t: float
    center_r: float
    inner: float
    outer: float
    alpha_window: Tuple[float, float] = (-0.5, 0.5)
    beta_window: Tuple[float, float] = (math.pi / 2 - 0.5, math.pi / 2 + 0.5)
    n_alpha: int = 9
    n_beta: int = 9

    def __post_init__(self):
        if not 0.0 < self.inner < self.outer:
            raise ValueError(f"need 0 < inner < outer, got ({self.inner}, {self.outer})")
        if self.center_r - self.outer <= 0.0:
            raise ValueError(
                f"annulus (center_r={self.center_r}, outer={self.outer}) "
                "leaves the positive-radius half of the slice")
        if not self.alpha_window[0] < self.alpha_window[1]:
            raise ValueError(f"bad alpha window {self.alpha_window}")
        b0, b1 = self.beta_window
        if not (0.0 < b0 < b1 < math.pi):
            raise ValueError(f"beta window {self.beta_window} leaves (0, pi)")
        if min(math.sin(b0), math.sin(b1)) < SIN_BETA_MARGIN:
            raise ValueError(f"beta window {self.beta_window} enters the pole margin")
        if self.n_alpha < 2 or self.n_beta < 2:
            raise ValueError("window needs at least 2 nodes per angle")

    @property
    def center(self) -> complex:
        return complex(self.center_t, self.center_r)

    @property
    def mid_radius(self) -> float:
        return 0.5 * (self.inner + self.outer)

    def alphas(self) -> np.ndarray:
        return np.linspace(self.alpha_window[0], self.alpha_window[1], self.n_alpha)

    def betas(self) -> np.ndarray:
        return np.linspace(self.beta_window[0], self.beta_window[1], self.n_beta)

    def contains(self, t: float, r: float, alpha: float, beta: float) -> bool:
        dist = abs(complex(t, r) - self.center)
        return (self.inner < dist < self.outer
                and self.alpha_window[0] <= alpha <= self.alpha_window[1]
                and self.beta_window[0] <= beta <= self.beta_window[1])

    def to_dict(self) -> dict:
        return {
            "center": [self.center_t, self.center_r],
            "radii": [self.inner, self.outer],
            "window": {"alpha": list(self.alpha_window), "beta": list(self.beta_window),
                       "n_alpha": self.n_alpha, "n_beta": self.n_beta},
        }


def slice_laurent_coefficients(f: QFunction, alpha: float, beta: float,
                               center: complex, radius: float,
                               n_range: Tuple[int, int],
                               quadrature_points: int) -> Dict[int, complex]:
    """Laurent coefficients of f on one slice by FFT contour quadrature.

    center may sit in either half of the slice plane (negative imaginary
    part addresses the antipodal side); the contour must not touch the
    real axis.
    """
    n_min, n_max = n_range
    npts = quadrature_points
    if abs(center.imag) <= radius:
        raise DomainError("contour crosses the real axis")
    io = iota(alpha, beta)
    thetas = 2.0 * math.pi * np.arange(npts) / npts
    vals = np.empty(npts, dtype=complex)
    for k in range(npts):
        z = center + radius * complex(math.cos(thetas[k]), math.sin(thetas[k]))
        rho = z.imag
        q = Quaternion(z.real, rho * io.x, rho * io.y, rho * io.z)
        w = f(q)
        v = w.x * io.x + w.y * io.y + w.z * io.z
        imag_sq = w.x * w.x + w.y * w.y + w.z * w.z
        misalign = math.sqrt(max(0.0, imag_sq - v * v))
        if misalign > ALIGNMENT_TOL * (1.0 + abs(w)):
            raise DomainError(
                f"{f.name}: values leave the slice plane at z={z:.4f} "
                f"(misalignment {misalign:.3e}); not a CE function there")
        vals[k] = complex(w.t, v)
    modes = np.fft.fft(vals)
    out = {}
    for n in range(n_min, n_max + 1):
        out[n] = complex(modes[n % npts]) / (npts * radius ** n)
    return out


def _validate_orders(n_range: Tuple[int, int], quadrature_points: int):
    if quadrature_points < MIN_QUADRATURE_POINTS:
        raise ValueError(f"need at least {MIN_QUADRATURE_POINTS} quadrature points")
    n_min, n_max = n_range
    if n_min > n_max:
        raise ValueError(f"bad order range {n_range}")
    if n_max - n_min + 1 > quadrature_points or \
            max(abs(n_min), abs(n_max)) > quadrature_points // 2 - 1:
        raise ValueError(
            f"order range {n_range} exceeds the resolution of "
            f"{quadrature_points} quadrature points")


@dataclass(frozen=True)
class LaurentSeries:
    """Laurent data of one function on one region.

    coefficients[n] is an (n_alpha, n_beta) complex array over the window
    nodes; coefficients interpolate bilinearly between nodes.  source keeps
    the expanded function so later checks can refine beyond the window grid.
    """

    function: str
    region: AnnulusRegion
    n_range: Tuple[int, int]
    quadrature_points: int
    coefficients: Dict[int, np.ndarray]
    source: Optional[QFunction] = None

    def coefficient(self, n: int, alpha: float, beta: float) -> complex:
        """ bilinear interpolation of a_n at window angles """
        a0, a1 = self.region.alpha_window
        b0, b1 = self.region.beta_window
        if not (a0 <= alpha <= a1 and b0 <= beta <= b1):
            raise DomainError(f"angles ({alpha}, {beta}) outside the window")
        grid = self.coefficients[n]
        na, nb = self.region.n_alpha, self.region.n_beta
        fa = (alpha - a0) / (a1 - a0) * (na - 1)
        fb = (beta - b0) / (b1 - b0) * (nb - 1)
        ia = min(int(fa), na - 2)
        ib = min(int(fb), nb - 2)
        wa = fa - ia
        wb = fb - ib
        return ((1 - wa) * (1 - wb) * grid[ia, ib]
                + wa * (1 - wb) * grid[ia + 1, ib]
                + (1 - wa) * wb * grid[ia, ib + 1]
                + wa * wb * grid[ia + 1, ib + 1])

    def tail_bound(self, dist: float) -> float:
        """Geometric estimate of the truncation error at distance dist from
        the center, from the decay of the outermost computed orders."""
        n_min, n_max = self.n_range

        def mag(n):
            return float(np.max(np.abs(self.coefficients[n]))) + 1e-300

        bound = 1e-12  # quadrature noise floor
        if n_max > n_min:
            g_out = mag(n_max) / mag(n_max - 1)
            q = g_out * dist
            if q < 1.0:
                bound += mag(n_max) * dist ** n_max * q / (1.0 - q)
            else:
                bound = math.inf
        if n_min < n_max and n_min < 0:
            g_in = mag(n_min) / mag(n_min + 1)
            q = g_in / dist if dist > 0 else math.inf
            if q < 1.0:
                bound += mag(n_min) * dist ** n_min * q / (1.0 - q)
            else:
                bound = math.inf
        return bound

    def to_dict(self) -> dict:
        doc = {"function": self.function}
        doc.update(self.region.to_dict())
        doc["n_range"] = [self.n_range[0], self.n_range[1]]
        doc["quadrature_points"] = self.quadrature_points
        doc["coefficients"] = {
            str(n): [[[float(c.real), float(c.imag)] for c in row]
                     for row in grid]
            for n, grid in sorted(self.coefficients.items())
        }
        return doc


def laurent_coefficients(f: QFunction, region: AnnulusRegion,
                         n_range: Tuple[int, int] = (-8, 8),
                         quadrature_points: int = 128) -> LaurentSeries:
    """Expand f on every window slice of the region."""
    if not f.is_ce:
        raise FunctionKindError(f"{f.name}: Laurent expansion needs a CE/CI function")
    _validate_orders(n_range, quadrature_points)
    alphas = region.alphas()
    betas = region.betas()
    grids = {n: np.empty((region.n_alpha, region.n_beta), dtype=complex)
             for n in range(n_range[0], n_range[1] + 1)}
    for ia, a in enumerate(alphas):
        for ib, b in enumerate(betas):
            coeffs = slice_laurent_coefficients(
                f, a, b, region.center, region.mid_radius, n_range, quadrature_points)
            for n, c in coeffs.items():
                grids[n][ia, ib] = c
    return LaurentSeries(function=f.name, region=region, n_range=n_range,
                         quadrature_points=quadrature_points, coefficients=grids,
                         source=f)


def mirrored_center_coefficients(f: QFunction, region: AnnulusRegion,
                                 n_range: Tuple[int, int] = (-8, 8),
                                 quadrature_points: int = 128) -> Dict[int, np.ndarray]:
    """Coefficient grids of f about the mirrored center c1 - i c2.

    The contour then runs on the antipodal side of each window slice; the
    mirror involution sends the ordinary expansion of f to the conjugate of
    this one.
    """
    if not f.is_ce:
        raise FunctionKindError(f"{f.name}: Laurent expansion needs a CE/CI function")
    _validate_orders(n_range, quadrature_points)
    center = complex(region.center_t, -region.center_r)
    grids = {n: np.empty((region.n_alpha, region.n_beta), dtype=complex)
             for n in range(n_range[0], n_range[1] + 1)}
    for ia, a in enumerate(region.alphas()):
        for ib, b in enumerate(region.betas()):
            coeffs = slice_laurent_coefficients(
                f, a, b, center, region.mid_radius, n_range, quadrature_points)
            for n, c in coeffs.items():
                grids[n][ia, ib] = c
    return grids


def reconstruct(series: LaurentSeries, p: Quaternion) -> Quaternion:
    """Evaluate the truncated series at p (inside region only)."""
    s = to_spherical(p)
    region = series.region
    if not region.contains(s.t, s.r, s.alpha, s.beta):
        raise DomainError(
            f"point (t={s.t:.3f}, r={s.r:.3f}, alpha={s.alpha:.3f}, beta={s.beta:.3f}) "
            "outside the expansion region")
    dz = complex(s.t, s.r) - region.center
    total = 0j
    for n in range(series.n_range[0], series.n_range[1] + 1):
        total += series.coefficient(n, s.alpha, s.beta) * dz ** n
    io = iota(s.alpha, s.beta)
    return Quaternion(total.real, total.imag * io.x, total.imag * io.y, total.imag * io.z)


def coefficient_class_check(series: LaurentSeries,
                            cfg: DiffConfig = DiffConfig()) -> Dict[int, dict]:
    """Check that each coefficient field a_n(alpha, beta) is itself Class II.

    Viewed as the (t, r)-independent CE function u_n + iota v_n, Class II
    membership reduces to the sphere-direction CR system
        (sin b)^-1 dv/da + du/db = 0,   (sin b)^-1 du/da - dv/db = 0,
    which is evaluated with central (or Richardson) stencils in the angles;
    the stencil shifts re-run the contour quadrature, so the window grid
    spacing does not limit the accuracy.  Returns per-order statistics and
    verdicts.
    """
    if series.source is None:
        raise ValueError("series does not carry its source function; "
                         "build it with laurent_coefficients")
    f = series.source
    region = series.region
    n_range = series.n_range
    quadrature_points = series.quadrature_points
    h = cfg.h
    b_lo = region.beta_window[0] - h
    b_hi = region.beta_window[1] + h
    if not (0.0 < b_lo and b_hi < math.pi) or \
            min(math.sin(b_lo), math.sin(b_hi)) < SIN_BETA_MARGIN:
        raise DomainError(
            f"window {region.beta_window} too close to the poles for "
            f"angle stencils of width {h}")

    orders = list(range(n_range[0], n_range[1] + 1))
    offsets = (h, -h, h / 2.0, -h / 2.0) if cfg.scheme == "richardson" else (h, -h)

    def coeffs_at(a: float, b: float) -> Dict[int, complex]:
        return slice_laurent_coefficients(
            f, a, b, region.center, region.mid_radius, n_range, quadrature_points)

    worst = {n: 0.0 for n in orders}
    scale = {n: 0.0 for n in orders}
    for a in region.alphas():
        for b in region.betas():
            center_c = coeffs_at(a, b)
            a_shift = {d: coeffs_at(a + d, b) for d in offsets}
            b_shift = {d: coeffs_at(a, b + d) for d in offsets}
            sb = math.sin(b)
            for n in orders:
                def diff(shifted):
                    d1 = (shifted[h][n] - shifted[-h][n]) / (2.0 * h)
                    if cfg.scheme == "richardson":
                        d2 = (shifted[h / 2.0][n] - shifted[-h / 2.0][n]) / h
                        d1 = (4.0 * d2 - d1) / 3.0
                    return d1

                da = diff(a_shift)
                db = diff(b_shift)
                s1 = da.imag / sb + db.real
                s2 = da.real / sb - db.imag
                worst[n] = max(worst[n], abs(s1), abs(s2))
                scale[n] = max(scale[n], abs(center_c[n]))

    return {n: {"max_residual": worst[n],
                "verdict": "pass" if worst[n] <= cfg.point_tolerance(scale[n]) else "fail"}
            for n in orders}
