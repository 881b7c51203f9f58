r"""Slice-wise Laurent expansion with angle-dependent coefficients.

A Class I function restricted to the slice through iota(alpha, beta) is a
holomorphic function of z = t + i r, so on an annulus

    inner < |z - (c1 + i c2)| < outer,     c2 - outer > 0,

it has a Laurent expansion whose coefficients a_n(alpha, beta) generally
vary with the slice.  Coefficients are contour integrals

    a_n = (1 / 2 pi i) \oint F(z) (z - c)^(-n-1) dz

taken on the mid-circle of the annulus.  With equispaced angles the
trapezoid rule is exponentially accurate for analytic F and reduces to an
FFT, which yields every order from one ring of samples.  The rings of many
slices are sampled together in the chart, as the open mesh of the ring's
(t, r) rows and the slices' angles.  The quadrature reads u + i v through
function_model.sample_uv: the function's (u, v) view when it has one, else
its quaternion samples at the rings projected on the slice's iota, which
sample_uv checks stay in the slice plane.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from .diffops import DiffConfig, sphere_cr, stencil
from .function_model import (CALL_POINTS, FunctionKindError, QFunction, check_beta_window,
                             sample_uv)
from .quaternion_core import DomainError, Quaternion, iota, to_spherical

MIN_QUADRATURE_POINTS = 16

# most nodes an AnnulusRegion window may have: the class check samples the
# whole window once per stencil offset and holds every order's coefficients
# of those windows at once (a 64 x 64 window's Richardson check of rho takes
# about 0.15 s and 50 MB)
MAX_WINDOW_NODES = 2 ** 12


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
        if not np.isfinite((self.center_t, self.center_r, self.inner, self.outer)).all():
            raise ValueError(f"center {self.center} or radii ({self.inner}, {self.outer}) not finite")
        if not 0.0 < self.inner < self.outer:
            raise ValueError(f"need 0 < inner < outer, got ({self.inner}, {self.outer})")
        if self.center_r - self.outer <= 0.0:
            raise ValueError(
                f"annulus (center_r={self.center_r}, outer={self.outer}) "
                "leaves the positive-radius half of the slice")
        for label, (lo, hi) in (("alpha", self.alpha_window), ("beta", self.beta_window)):
            if not 0.0 < hi - lo < math.inf:
                raise ValueError(f"bad {label} window {(lo, hi)}: "
                                 "need lo < hi and a finite width hi - lo")
        if not -math.pi <= self.alpha_window[0] <= self.alpha_window[1] <= math.pi:
            # the azimuth of a Cartesian sample is read in [-pi, pi]
            raise ValueError(f"alpha window {self.alpha_window} leaves [-pi, pi]")
        check_beta_window(*self.beta_window, f"beta window {self.beta_window}")
        for label, n in (("n_alpha", self.n_alpha), ("n_beta", self.n_beta)):
            if not isinstance(n, numbers.Integral) or n < 2:
                raise ValueError(f"{label} must be an integer >= 2, got {n!r}")
        if self.n_alpha * self.n_beta > MAX_WINDOW_NODES:
            raise ValueError(f"a window of {self.n_alpha} x {self.n_beta} nodes has more than "
                             f"{MAX_WINDOW_NODES}")

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

    def window_angles(self) -> Tuple[np.ndarray, np.ndarray]:
        """ (alpha, beta) of every window node, beta fastest: read-only arrays,
        computed once per region """
        return self._window_angles

    @functools.cached_property
    def _window_angles(self) -> Tuple[np.ndarray, np.ndarray]:
        alphas, betas = (a.ravel() for a in np.meshgrid(self.alphas(), self.betas(), indexing="ij"))
        alphas.flags.writeable = betas.flags.writeable = False
        return alphas, betas

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


def _ring_coefficients(f: QFunction, alphas: np.ndarray, betas: np.ndarray,
                       center: complex, radius: float, n_range: Tuple[int, int],
                       quadrature_points: int) -> Dict[int, np.ndarray]:
    """Laurent coefficients of f on the slices through iota(alphas[m], betas[m])
    by FFT contour quadrature, as {n: (M,) complex array}.

    Every ring lies above the real axis, so its points t + (Im z) iota are
    the chart's rows (Re z, Im z), each of shape (1, Q), on the slice angles,
    each (M, 1): an open mesh, so an evaluator maps each slice's angles once
    and each ring point once per batch.

    The slices go in batches of whole contours, each sampled once as u + i v
    of function_model.sample_uv (f's (u, v) view, else its chart samples
    projected on the slice's iota, which sample_uv refuses where they leave
    the slice plane).  A view without a slice axis, a sweep's, is sampled
    in one batch: when the samples of a batch of several slices have shape
    (1, Q), their one FFT serves every slice left.  A sample that is not
    finite raises DomainError naming the slice; samples whose quadrature
    overflows to a coefficient that is not finite raise OverflowError
    naming the slice.
    """
    if center.imag - radius <= 0.0:
        raise DomainError("contour leaves the upper half plane")
    npts = quadrature_points
    orders = range(n_range[0], n_range[1] + 1)
    columns = [n % npts for n in orders]
    scale = np.array([npts * radius ** n for n in orders])
    thetas = 2.0 * math.pi * np.arange(npts) / npts
    ring = center + radius * (np.cos(thetas) + 1j * np.sin(thetas))
    t, r = ring.real[None, :], ring.imag[None, :]
    alphas, betas = alphas[:, None], betas[:, None]
    per_call = max(1, CALL_POINTS // npts)
    modes = []
    for start in range(0, len(alphas), per_call):
        part = slice(start, start + per_call)
        rows = (t, r, alphas[part], betas[part])
        u, v = sample_uv(f, rows)
        samples = np.empty(np.broadcast_shapes(np.shape(u), np.shape(v), (1, npts)), complex)
        samples.real, samples.imag = u, v
        with np.errstate(all="ignore"):
            coefficients = np.fft.fft(samples, axis=1)[:, columns] / scale
        # samples without a slice axis (a sweep's) serve every slice left
        stop = len(alphas) if len(samples) < len(rows[2]) else start + len(rows[2])
        modes.append(np.broadcast_to(coefficients, (stop - start, len(columns))))
        finite = np.isfinite(samples)
        if not finite.all():
            m, k = np.unravel_index(np.argmin(finite), finite.shape)
            raise DomainError(f"{f.name}: no finite value at z={ring[k]:.4f} on the slice "
                              f"(alpha, beta) = ({alphas[start + m, 0]:.4f}, "
                              f"{betas[start + m, 0]:.4f})")
        if stop == len(alphas):
            break
    coefficients = np.concatenate(modes, axis=0).T.copy()  # a contiguous row per order
    overflow = ~np.isfinite(coefficients).all(axis=0)
    if overflow.any():
        m = int(np.argmax(overflow))
        raise OverflowError(f"the contour quadrature overflows on the slice (alpha, beta) = "
                            f"({alphas[m, 0]:.4f}, {betas[m, 0]:.4f})")
    return dict(zip(orders, coefficients))


def _validate_orders(n_range: Tuple[int, int], quadrature_points: int):
    if not isinstance(quadrature_points, numbers.Integral):
        raise ValueError(f"quadrature points must be an integer, got {quadrature_points!r}")
    if len(n_range) != 2 or not all(isinstance(n, numbers.Integral) for n in n_range):
        raise ValueError(f"order range must be two integers, got {n_range!r}")
    if quadrature_points < MIN_QUADRATURE_POINTS:
        raise ValueError(f"need at least {MIN_QUADRATURE_POINTS} quadrature points")
    if quadrature_points > CALL_POINTS:
        raise ValueError(f"{quadrature_points} quadrature points exceed the "
                         f"{CALL_POINTS} that one contour may sample")
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
    source: QFunction

    def _cell(self, alpha: float, beta: float) -> Tuple[int, int, Tuple[float, ...]]:
        """Window cell (ia, ib) holding the angles, with the bilinear weights of
        its corners (ia, ib), (ia + 1, ib), (ia, ib + 1), (ia + 1, ib + 1)."""
        a0, a1 = self.region.alpha_window
        b0, b1 = self.region.beta_window
        if not (a0 <= alpha <= a1 and b0 <= beta <= b1):
            raise DomainError(f"angles ({alpha}, {beta}) outside the window")
        na, nb = self.region.n_alpha, self.region.n_beta
        fa = (alpha - a0) / (a1 - a0) * (na - 1)
        fb = (beta - b0) / (b1 - b0) * (nb - 1)
        ia = min(int(fa), na - 2)
        ib = min(int(fb), nb - 2)
        wa = fa - ia
        wb = fb - ib
        return ia, ib, ((1 - wa) * (1 - wb), wa * (1 - wb), (1 - wa) * wb, wa * wb)

    def coefficient(self, n: int, alpha: float, beta: float) -> complex:
        """ bilinear interpolation of a_n at window angles """
        return _interpolate(self.coefficients[n], *self._cell(alpha, beta))

    @functools.cached_property
    def _stacked(self) -> np.ndarray:
        """ the grids of all orders, n_range[0] first, as one (orders, n_alpha, n_beta) array """
        n_lo, n_hi = self.n_range
        return np.stack([self.coefficients[n] for n in range(n_lo, n_hi + 1)])

    def to_dict(self) -> dict:
        """Header fields and, under "coefficients", one float array of shape
        (n_alpha, n_beta, 2) per order: the real and imaginary parts of a_n.
        The CLI's report writer lays the arrays out as nested JSON lists."""
        doc = {"function": self.function}
        doc.update(self.region.to_dict())
        doc["n_range"] = [self.n_range[0], self.n_range[1]]
        doc["quadrature_points"] = self.quadrature_points
        doc["coefficients"] = dict(zip(map(str, range(self.n_range[0], self.n_range[1] + 1)),
                                       np.stack((self._stacked.real, self._stacked.imag), -1)))
        return doc


def _interpolate(grid: np.ndarray, ia: int, ib: int, weights: Tuple[float, ...]):
    """ bilinear value in cell (ia, ib) of the last two axes of grid; with index arrays
    ia, ib and weight rows, the values of every cell, along a last axis """
    w00, w10, w01, w11 = weights
    return (w00 * grid[..., ia, ib] + w10 * grid[..., ia + 1, ib]
            + w01 * grid[..., ia, ib + 1] + w11 * grid[..., ia + 1, ib + 1])


def laurent_coefficients(f: QFunction, region: AnnulusRegion,
                         n_range: Tuple[int, int] = (-8, 8),
                         quadrature_points: int = 128) -> LaurentSeries:
    """Expand f on every window slice of the region."""
    if not f.is_ce:
        raise FunctionKindError(f"{f.name}: Laurent expansion needs a CE/CI function")
    _validate_orders(n_range, quadrature_points)
    coeffs = _ring_coefficients(f, *region.window_angles(), region.center,
                                region.mid_radius, n_range, quadrature_points)
    grids = {n: c.reshape(region.n_alpha, region.n_beta) for n, c in coeffs.items()}
    return LaurentSeries(function=f.name, region=region, n_range=n_range,
                         quadrature_points=quadrature_points, coefficients=grids,
                         source=f)


def reconstruct(series: LaurentSeries, p: Quaternion | np.ndarray) -> Quaternion | np.ndarray:
    """Evaluate the truncated series inside the region: at one Quaternion, which
    gives a Quaternion, or at quaternion rows (4, N), which give rows (4, N)
    (N = 0 included).

    Each point's chart coordinates and window cell are found point by point,
    the corners of every order at every point are gathered from the stacked
    grids at once, and each point's orders are summed in Python complex
    arithmetic.  A point outside the region raises DomainError naming it.
    """
    if isinstance(p, Quaternion):
        return Quaternion(*reconstruct(series, np.array([[p.t], [p.x], [p.y], [p.z]]))[:, 0])
    charts = [to_spherical(Quaternion(*q)) for q in np.transpose(p).tolist()]
    if not charts:
        return np.zeros((4, 0))
    for s in charts:
        if not series.region.contains(s.t, s.r, s.alpha, s.beta):
            raise DomainError(
                f"point (t={s.t:.3f}, r={s.r:.3f}, alpha={s.alpha:.3f}, beta={s.beta:.3f}) "
                "outside the expansion region")
    ia, ib, weights = zip(*(series._cell(s.alpha, s.beta) for s in charts))
    coeffs = _interpolate(series._stacked, np.array(ia), np.array(ib), np.transpose(weights))
    values = []
    for s, column in zip(charts, coeffs.T.tolist()):
        dz = complex(s.t, s.r) - series.region.center
        total = 0j
        for n, c in zip(range(series.n_range[0], series.n_range[1] + 1), column):
            total += c * dz ** n
        io = iota(s.alpha, s.beta)
        values.append((total.real, total.imag * io.x, total.imag * io.y, total.imag * io.z))
    return np.transpose(values)


def coefficient_class_check(series: LaurentSeries,
                            cfg: DiffConfig = DiffConfig()) -> Dict[int, dict]:
    """Check that each coefficient field a_n(alpha, beta) is itself Class II.

    Viewed as the (t, r)-independent CE function u_n + iota v_n, Class II
    membership reduces to the sphere-direction CR system
        (sin b)^-1 dv/da + du/db = 0,   (sin b)^-1 du/da - dv/db = 0,
    which is evaluated with central (or Richardson) stencils in the angles,
    taken by diffops.stencil on the window angles as rows 2 and 3 of the
    base (0, 0, alphas, betas); the stencil shifts re-run the contour
    quadrature, all shifted windows in one batch with the orders as complex
    value rows, so the window grid spacing does not limit the accuracy.  The
    tolerance scale of order n is S / rho^n, with rho the mid radius and S
    the largest max |a_m| rho^m over the orders m and the window nodes: a
    lower bound on M in Cauchy's estimate |a_n| <= M / rho^n, which also
    bounds the rounding of the quadrature, so the verdicts do not move when
    f is scaled.  The residuals of all orders are reduced in one pass.
    Returns per-order statistics and verdicts.  A step h that some window
    angle rounds away raises StepError.
    """
    region = series.region
    try:
        check_beta_window(region.beta_window[0] - cfg.h, region.beta_window[1] + cfg.h, "")
    except ValueError as exc:
        raise DomainError(
            f"window {region.beta_window} too close to the poles for "
            f"angle stencils of width {cfg.h}") from exc

    def sample(source, at):
        # every shifted window in one batch, all orders as complex value rows
        alphas, betas = np.broadcast_arrays(at[2], at[3])
        return np.stack(list(_ring_coefficients(
            source, alphas.ravel(), betas.ravel(), region.center, region.mid_radius,
            series.n_range, series.quadrature_points).values()))

    alphas, betas = region.window_angles()
    d = stencil(series.source, cfg, (0.0, 0.0, alphas, betas), slice(2, 4), sample,
                "window angle")[0].swapaxes(0, 1)  # (alpha or beta, orders, window nodes)
    worst = np.max(np.abs(sphere_cr(d.real, d.imag, np.sin(betas))), axis=(0, 2))
    orders = range(series.n_range[0], series.n_range[1] + 1)
    powers = region.mid_radius ** np.array(orders, dtype=float)
    # a scale past the float range is held at its maximum, so tol_rel = 0 still gives tol_abs
    with np.errstate(over="ignore"):
        scale = np.max(np.max(np.abs(series._stacked), axis=(1, 2)) * powers) / powers
        passed = worst <= cfg.point_tolerance(np.minimum(scale, np.finfo(float).max))
    return {n: {"max_residual": w, "verdict": "pass" if ok else "fail"}
            for n, w, ok in zip(orders, worst.tolist(), passed.tolist())}
