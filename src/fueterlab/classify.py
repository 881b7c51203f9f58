"""Grid classification of quaternionic functions into nested classes.

Every grid node takes one central (or Richardson) stencil along each of
t, x, y, z, r, alpha, beta, and every residual derives from those shared
samples.  The nodes go through as one batch: one axis at a time, the
shifted coordinates of all nodes are sampled together (through the
function's array evaluator when it has one, else point by point) and
differenced at once, and the verdicts reduce over arrays.

* Class I   : |d/dt f + iota d/dr f|
* Class II  : |fueter_left f + 2 v / r|
* Class III : max of |du/da|, |du/db|, |dv/da|, |dv/db|
              (verdict additionally requires the Class I pass)
* regular   : |fueter_left f|

A class passes when at least 99.9% of nodes sit below the pointwise
tolerance tol_abs + tol_rel * scale (scale = max |f| over the node's
stencil samples) and no node exceeds 100x its tolerance.  Verdicts must
respect the inclusion chain Class III < Class II < Class I; the report
carries an explicit consistency flag.

The left/right agreement check (centrality) and the Jacobian-determinant
factorization check for Class II functions live here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .diffops import DiffConfig, POLE_SIN_BETA_FLOOR, finish_stencil, stencil_offsets
from .function_model import (DEFAULT_GRID, QFunction, SampleGrid, sample_cartesian,
                             sample_chart)
from .quaternion_core import (
    DomainError,
    Quaternion,
    from_spherical_array,
    iota_array,
    qabs_array,
    qmul_array,
)

PASS_FRACTION = 0.999
HARD_FAIL_FACTOR = 100.0

# the imaginary units as quaternion rows that broadcast against (4, N)
I, J, K = (np.eye(4)[:, k, None] for k in (1, 2, 3))


@dataclass(frozen=True)
class ClassStats:
    """Aggregate residuals and verdict for one class on one grid."""

    max: Optional[float]
    mean: Optional[float]
    verdict: str  # pass | fail | not-CE | singular

    def to_dict(self) -> dict:
        return {"max": self.max, "mean": self.mean, "verdict": self.verdict}


@dataclass(frozen=True)
class CentralityStats:
    """Left/right Fueter agreement on one grid."""

    max: Optional[float]
    mean: Optional[float]
    verdict: str  # central | not-central | singular

    def to_dict(self) -> dict:
        return {"max": self.max, "mean": self.mean, "verdict": self.verdict}


@dataclass(frozen=True)
class ClassificationReport:
    function: str
    grid: SampleGrid
    config: DiffConfig
    class_I: ClassStats
    class_II: ClassStats
    class_III: ClassStats
    regular: ClassStats
    centrality: CentralityStats
    inclusion_consistent: bool

    def to_dict(self) -> dict:
        return {
            "function": self.function,
            "grid": self.grid.to_dict(),
            "config": {"h": self.config.h, "scheme": self.config.scheme,
                       "tol_abs": self.config.tol_abs, "tol_rel": self.config.tol_rel},
            "class_I": self.class_I.to_dict(),
            "class_II": self.class_II.to_dict(),
            "class_III": self.class_III.to_dict(),
            "regular": self.regular.to_dict(),
            "centrality": self.centrality.to_dict(),
            "inclusion_consistent": self.inclusion_consistent,
        }

    def passes(self, key: str) -> bool:
        stats = getattr(self, key)
        return stats.verdict == "pass"


class _Stencils:
    """Per-node derivatives along t, x, y, z, r, alpha, beta, one axis at a
    time, with the running max |f| over every stencil sample."""

    def __init__(self, f: QFunction, nodes: np.ndarray, cfg: DiffConfig):
        self.f = f
        self.cfg = cfg
        self.offsets = stencil_offsets(cfg)
        self.center = sample_chart(f, nodes)
        with np.errstate(all="ignore"):
            self.scale = qabs_array(self.center)

    def along(self, base: np.ndarray, row: int, sample) -> tuple:
        """(shifted coordinates, samples), each of shape (4, n_offsets, N)."""
        shifted = np.repeat(base[:, None, :], len(self.offsets), axis=1)
        shifted[row] += self.offsets[:, None]
        values = sample(self.f, shifted.reshape(4, -1)).reshape(shifted.shape)
        with np.errstate(all="ignore"):
            self.scale = np.maximum(self.scale, qabs_array(values).max(axis=0))
        return shifted, values

    def derivative(self, base: np.ndarray, row: int, sample) -> np.ndarray:
        values = self.along(base, row, sample)[1]
        with np.errstate(all="ignore"):
            return finish_stencil(values.swapaxes(0, 1), self.cfg)


def _dot3(q: np.ndarray, io: np.ndarray) -> np.ndarray:
    """ coefficient of iota in the imaginary part of q """
    return q[1] * io[1] + q[2] * io[2] + q[3] * io[3]


def _chart_ok(nodes: np.ndarray, cfg: DiffConfig) -> np.ndarray:
    _, r, _, beta = nodes
    return ((r - cfg.h > 0.0) & (beta - cfg.h > 0.0) & (beta + cfg.h < math.pi)
            & (np.sin(beta) > POLE_SIN_BETA_FLOOR))


def _stats(residuals: np.ndarray, tolerances: np.ndarray, singular: bool,
           pass_word: str = "pass", fail_word: str = "fail") -> tuple:
    if residuals.size == 0:
        return None, None, "singular"
    below = np.count_nonzero(residuals <= tolerances)
    hard = bool(np.all(residuals <= HARD_FAIL_FACTOR * tolerances))
    verdict = pass_word if (below >= PASS_FRACTION * residuals.size and hard) else fail_word
    if singular:
        verdict = "singular"
    return float(np.max(residuals)), float(np.mean(residuals)), verdict


def classify(f: QFunction, grid: Optional[SampleGrid] = None,
             cfg: DiffConfig = DiffConfig()) -> ClassificationReport:
    """Classify f on the grid and return the full report.

    Raw-kind functions get "not-CE" verdicts for Class II and Class III,
    whose residuals need the u/v split.  A node whose stencil leaves the
    chart margins, or where some sample raises a math or domain error or
    is not finite, marks the report "singular"; the statistics then cover
    the remaining nodes.
    """
    grid = grid or f.domain or DEFAULT_GRID
    nodes = grid.chart_array()
    nodes = nodes[:, _chart_ok(nodes, cfg)]
    st = _Stencils(f, nodes, cfg)

    cart = from_spherical_array(nodes)
    d_t, d_x, d_y, d_z = (st.derivative(cart, row, sample_cartesian) for row in range(4))
    d_r = st.derivative(nodes, 1, sample_chart)
    alpha_at, alpha_vals = st.along(nodes, 2, sample_chart)
    beta_at, beta_vals = st.along(nodes, 3, sample_chart)

    with np.errstate(all="ignore"):
        io = iota_array(nodes)
        fueter_left = d_t + qmul_array(I, d_x) + qmul_array(J, d_y) + qmul_array(K, d_z)
        fueter_right = d_t + qmul_array(d_x, I) + qmul_array(d_y, J) + qmul_array(d_z, K)
        residuals = {
            "class_I": qabs_array(d_t + qmul_array(io, d_r)),
            "regular": qabs_array(fueter_left),
            "centrality": qabs_array(fueter_left - fueter_right),
        }
        if f.is_ce:
            v = _dot3(st.center, io)
            class2 = fueter_left.copy()
            class2[0] += 2.0 * v / nodes[1]
            residuals["class_II"] = qabs_array(class2)
            # v is extracted against the iota of each shifted sample's own angles
            residuals["class_III"] = np.max(np.abs([
                finish_stencil(alpha_vals[0], cfg), finish_stencil(beta_vals[0], cfg),
                finish_stencil(_dot3(alpha_vals, iota_array(alpha_at)), cfg),
                finish_stencil(_dot3(beta_vals, iota_array(beta_at)), cfg)]), axis=0)
        tolerances = cfg.point_tolerance(st.scale)

    finite = np.isfinite(tolerances)
    for values in residuals.values():
        finite &= np.isfinite(values)
    singular = nodes.shape[1] < grid.size or not finite.all()
    tolerances = tolerances[finite]

    def build(key):
        return ClassStats(*_stats(residuals[key][finite], tolerances, singular))

    class_I = build("class_I")
    regular = build("regular")
    if f.is_ce:
        class_II = build("class_II")
        angular = build("class_III")
        class3_verdict = angular.verdict
        if class3_verdict == "pass" and class_I.verdict != "pass":
            class3_verdict = "fail"
        class_III = ClassStats(angular.max, angular.mean, class3_verdict)
    else:
        class_II = ClassStats(None, None, "not-CE")
        class_III = ClassStats(None, None, "not-CE")

    centrality = CentralityStats(*_stats(residuals["centrality"][finite], tolerances,
                                         singular, "central", "not-central"))

    ok = True
    if class_III.verdict == "pass" and class_II.verdict == "fail":
        ok = False
    if class_II.verdict == "pass" and class_I.verdict == "fail":
        ok = False

    return ClassificationReport(
        function=f.name, grid=grid, config=cfg,
        class_I=class_I, class_II=class_II, class_III=class_III,
        regular=regular, centrality=centrality, inclusion_consistent=ok)


def centrality_check(f: QFunction, grid: Optional[SampleGrid] = None,
                     cfg: DiffConfig = DiffConfig()) -> CentralityStats:
    """Left/right Fueter agreement on the grid (central iff Class III)."""
    return classify(f, grid, cfg).centrality


@dataclass(frozen=True)
class JacobianResult:
    """Numeric 4x4 Jacobian determinant vs the Class II factorization.

    The factorization det = ((du/dt)^2 + (dv/dt)^2) * v^2 / r^2 only holds
    for Class II inputs; advisory=True flags a comparison made without that
    guarantee.
    """

    det_numeric: float
    det_formula: float
    advisory: bool

    def __iter__(self):
        return iter((self.det_numeric, self.det_formula))


def jacobian_check(f: QFunction, p: Quaternion, cfg: DiffConfig = DiffConfig()) -> JacobianResult:
    """Compare the finite-difference Jacobian determinant of f: R^4 -> R^4
    against the scalar factorization available for Class II functions."""
    r = p.vector_norm()
    if r == 0.0:
        raise DomainError("Jacobian factorization undefined on the real axis")

    jac = np.empty((4, 4))
    for axis in range(4):
        def sample(delta):
            q = Quaternion(p.t + (delta if axis == 0 else 0.0),
                           p.x + (delta if axis == 1 else 0.0),
                           p.y + (delta if axis == 2 else 0.0),
                           p.z + (delta if axis == 3 else 0.0))
            return f(q)

        d1 = finish_stencil([sample(d) for d in stencil_offsets(cfg).tolist()], cfg)
        jac[:, axis] = (d1.t, d1.x, d1.y, d1.z)
    det_numeric = float(np.linalg.det(jac))

    io_vec = (p.x / r, p.y / r, p.z / r)

    def uv(delta):
        val = f(Quaternion(p.t + delta, p.x, p.y, p.z))
        return (val.t, val.x * io_vec[0] + val.y * io_vec[1] + val.z * io_vec[2])

    h = cfg.h
    up, vp = uv(h)
    um, vm = uv(-h)
    du_dt = (up - um) / (2.0 * h)
    dv_dt = (vp - vm) / (2.0 * h)
    _, v = uv(0.0)
    det_formula = (du_dt ** 2 + dv_dt ** 2) * v * v / (r * r)

    advisory = not (f.classes or {}).get("class_II", False)
    return JacobianResult(det_numeric, det_formula, advisory)
