"""Grid classification of quaternionic functions into nested classes.

Every grid node takes one central (or Richardson) stencil along each of
t, x, y and z, and every residual derives from those shared samples and
the node's center sample: the r, alpha and beta partials are the chain
rule's combinations of the x, y and z partials, r times the alpha and
beta tangents of iota for the angles.  So every function is sampled at 9
points a node under central and 17 under Richardson, whatever its kind.
The nodes go through diffops.stencil as one batch, the grid's open mesh:
four axis rows that broadcast to the whole grid.  The stencils start from
the mesh's Cartesian rows, t on its own axis and x, y, z without it, so
the chart map of a shifted point and the evaluator's trig run once per
(x, y, z) point, not once per sample: the evaluator gets a t row with its
own axis, and r, alpha, beta rows without it.  The shifted coordinates of
all nodes are sampled together (through the function's array evaluator
when it has one, else point by point, after materializing them) and
differenced at once, and the verdicts reduce over arrays in the grid's
beta-fastest node order.

* Class I   : |d/dt f + iota d/dr f|
* Class II  : |fueter_left f + 2 v / r|
* Class III : max of |du/da|, |du/db|, |dv/da|, |dv/db|
              (verdict additionally requires the Class I pass)
* regular   : |fueter_left f|

A class passes when at least 99.9% of nodes sit below the pointwise
tolerance tol_abs + tol_rel * scale (scale = max |f| over the node's
center and stencil samples, kept by wrapping the sampler classify passes
to stencil) and no node exceeds 100x its tolerance.  A node whose scale is
not finite (some sample is not, or its norm exceeds the float maximum) is
dropped; a tolerance that overflows to inf keeps its node, and every
finite residual passes it.  Verdicts must respect the inclusion chain
Class III < Class II < Class I; the report carries an explicit consistency
flag.

The left/right agreement check (centrality) and the Jacobian-determinant
factorization check for Class II functions live here too.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .diffops import (DiffConfig, _first_failing, _operator, chart_ok, fueter_rows,
                      require_step_moves, stencil)
from .function_model import (DEFAULT_GRID, QFunction, SampleGrid, sample_cartesian,
                             sample_chart)
from .quaternion_core import (DomainError, Quaternion, from_spherical_rows, iota_array,
                              iota_coefficient, qabs_array, qmul_array, rows_shape)

PASS_FRACTION = 0.999
HARD_FAIL_FACTOR = 100.0


@dataclass(frozen=True)
class ClassStats:
    """Aggregate residuals and verdict for one class, or for the left/right
    Fueter agreement (centrality), on one grid."""

    max: Optional[float]
    mean: Optional[float]
    verdict: str  # pass | fail | not-CE | singular, or central | not-central for centrality

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
    centrality: ClassStats
    inclusion_consistent: bool
    # why a singular report is singular, for error messages; not in to_dict
    _singular_nodes: str = field(default="", compare=False, repr=False)

    def to_dict(self) -> dict:
        doc = {"function": self.function, "grid": self.grid.to_dict(),
               "config": {"h": self.config.h, "scheme": self.config.scheme,
                          "tol_abs": self.config.tol_abs, "tol_rel": self.config.tol_rel}}
        for key in ("class_I", "class_II", "class_III", "regular", "centrality"):
            doc[key] = getattr(self, key).to_dict()
        doc["inclusion_consistent"] = self.inclusion_consistent
        return doc

    def passes(self, key: str) -> bool:
        return getattr(self, key).verdict == "pass"


def _stats(residuals: np.ndarray, tolerances: np.ndarray, singular: bool,
           pass_word: str = "pass", fail_word: str = "fail") -> tuple:
    if residuals.size == 0:
        return None, None, "singular"
    below = np.count_nonzero(residuals <= tolerances)
    # a tolerance near the float maximum gives inf, and so may the sum of the mean
    with np.errstate(over="ignore"):
        hard = bool(np.all(residuals <= HARD_FAIL_FACTOR * tolerances))
        largest, mean = np.max(residuals), np.mean(residuals)
    if np.isinf(mean):
        # qabs_array rescales squares per column; a mean sums one array, so its largest is the scale
        mean = largest * np.mean(residuals / largest)
    passed = below >= PASS_FRACTION * residuals.size and hard
    verdict = "singular" if singular else pass_word if passed else fail_word
    return float(largest), float(mean), verdict


def _chart_partials(d, chart, angles: bool = True) -> tuple:
    """The r partial and, with angles, the alpha and beta partials of a
    function at chart rows, value rows (4, *S) each, from its Cartesian
    partials d (t, x, y, z partial, value row, *S) by the chain rule, and the
    quaternion rows they project the gradient grad = (d/dx, d/dy, d/dz) on:
    iota and its alpha and beta partials d_a iota = (0, -sin a sin b,
    cos a sin b, 0), d_b iota = (0, cos a cos b, sin a cos b, -sin b).
    d/dr = iota . grad, d/da = r d_a iota . grad and d/db = r d_b iota . grad."""
    _, r, alpha, beta = chart
    frame = (iota_array(chart),)
    if angles:
        sa, ca, sb, cb = np.sin(alpha), np.cos(alpha), np.sin(beta), np.cos(beta)
        frame += ((0.0, -sa * sb, ca * sb, 0.0), (0.0, ca * cb, sa * cb, -sb))
    d_r, *d_angles = (iota_coefficient(d, row) for row in frame)
    return (d_r, *(r * d_angle for d_angle in d_angles)), frame


def classify(f: QFunction, grid: Optional[SampleGrid] = None,
             cfg: DiffConfig = DiffConfig()) -> ClassificationReport:
    """Classify f on the grid and return the full report.

    Raw-kind functions get "not-CE" verdicts for Class II and Class III,
    whose residuals need the u/v split.  Every kind is sampled at its
    center and along t, x, y and z: 9 points a node under central, 17
    under Richardson.  A node whose stencil leaves the chart margins, or
    where some sample raises a math or domain error or is not finite (or
    its norm exceeds the float maximum), marks the report "singular"; the
    statistics then cover the remaining nodes.  A step h that some node
    coordinate, chart or Cartesian, rounds away raises StepError: the chart
    nodes are checked before anything is sampled, the Cartesian rows by
    their stencils.
    """
    grid = grid or DEFAULT_GRID
    # the margins are r > h and conditions on beta alone, so the passing
    # nodes are the open mesh of the passing r and beta values
    t, r, alpha, beta = grid.mesh()
    ok = chart_ok((t, r, alpha, beta), cfg)  # (1, n, 1, n): r by beta
    nodes = (t, r[:, ok.any(axis=(0, 2, 3))], alpha, beta[..., ok.any(axis=(0, 1, 2))])
    n_nodes = math.prod(rows_shape(nodes))
    cart = from_spherical_rows(nodes)
    # refuse the grid before sampling; each stencil checks the rows it shifts
    require_step_moves(nodes, cfg, "chart coordinate")

    seen = []  # max |f| over each sampler call's stencil samples, per node

    def seeing(values):
        seen.append(qabs_array(values).max(axis=0))
        return values

    with np.errstate(all="ignore"):
        center = sample_chart(f, nodes)
        d = stencil(f, cfg, cart, slice(0, 4), lambda f, at: seeing(sample_cartesian(f, at)),
                    "Cartesian coordinate")[0].swapaxes(0, 1)  # (t, x, y, z partial, value row, *S)
        # the angle partials only for Class III, which a raw function has not
        (d_r, *d_angles), (io, *tangents) = _chart_partials(d, nodes, f.is_ce)
        fueter_left = fueter_rows(d)
        residuals = {
            "class_I": qabs_array(d[0] + qmul_array(io, d_r)),
            "regular": qabs_array(fueter_left),
            "centrality": qabs_array(fueter_left - fueter_rows(d, right=True)),
        }
        if f.is_ce:
            class2 = fueter_left.copy()
            class2[0] += 2.0 * iota_coefficient(center, io) / nodes[1]
            residuals["class_II"] = qabs_array(class2)
            # u = f[0], and v = <Im f, iota> by the product rule
            (d_a, d_b), (io_a, io_b) = d_angles, tangents
            angular = (d_a[0], d_b[0], iota_coefficient(d_a, io) + iota_coefficient(center, io_a),
                       iota_coefficient(d_b, io) + iota_coefficient(center, io_b))
            residuals["class_III"] = np.max(np.abs(angular), axis=0)
        scale = functools.reduce(np.maximum, seen, qabs_array(center))
        tolerances = cfg.point_tolerance(scale)

    finite = np.isfinite(scale)  # a tolerance that overflows to inf keeps its node
    for values in residuals.values():
        finite &= np.isfinite(values)
    singular = n_nodes < grid.size or not finite.all()
    tolerances = tolerances[finite]

    def build(key, *words):
        return ClassStats(*_stats(residuals[key][finite], tolerances, singular, *words))

    class_I = build("class_I")
    class_II = class_III = ClassStats(None, None, "not-CE")
    if f.is_ce:
        class_II, class_III = build("class_II"), build("class_III")
        if class_III.verdict == "pass" and class_I.verdict != "pass":
            class_III = replace(class_III, verdict="fail")
    ok = not ((class_III.verdict == "pass" and class_II.verdict == "fail")
              or (class_II.verdict == "pass" and class_I.verdict == "fail"))

    why = ""
    if singular:
        dropped = finite.size - np.count_nonzero(finite)
        first = f", the first at (t, r, alpha, beta) = {_first_failing(nodes, finite)}" if dropped else ""
        why = (f"{grid.size - n_nodes} of {grid.size} nodes outside the chart margins, "
               f"{dropped} without a finite sample or residual{first}")
    return ClassificationReport(
        function=f.name, grid=grid, config=cfg,
        class_I=class_I, class_II=class_II, class_III=class_III, regular=build("regular"),
        centrality=build("centrality", "central", "not-central"), inclusion_consistent=ok,
        _singular_nodes=why)


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


@_operator(Quaternion, "jacobian_check")
def _determinants(f: QFunction, points, cfg: DiffConfig) -> tuple:
    """ (det_numeric, det_formula) of jacobian_check at Cartesian point rows """
    r = np.sqrt(iota_coefficient(points, points))  # |Im p|
    if not r.all():
        raise DomainError(f"Jacobian factorization undefined on the real axis, at "
                          f"{_first_failing(points, r != 0.0)}")
    jac = stencil(f, cfg, points, slice(0, 4), sample_cartesian, "Cartesian coordinate")[0]
    value = sample_cartesian(f, points)
    # v against the iota of each point, and its t derivative from the t column
    dv_dt, v = iota_coefficient(np.stack((jac[:, 0], value), axis=1), [row / r for row in points])
    # products, not ** 2, which numpy's scalar path at one point takes to pow
    du_dt = jac[0, 0]
    return (np.linalg.det(np.moveaxis(jac, (0, 1), (-2, -1))),
            (du_dt * du_dt + dv_dt * dv_dt) * v * v / (r * r))


def jacobian_check(f: QFunction, p, cfg: DiffConfig = DiffConfig()) -> JacobianResult:
    """Compare the finite-difference Jacobian determinant of f: R^4 -> R^4
    against the scalar factorization available for Class II functions, at
    one Quaternion p (floats) or at Cartesian point rows p that broadcast to
    a shape S, such as an array (4, N) or a grid mesh's from_spherical_rows
    (arrays of shape S).  A SphericalPoint raises TypeError, a point on the
    real axis DomainError naming it, and a step that some coordinate rounds
    away StepError."""
    return JacobianResult(*_determinants(f, p, cfg), not (f.classes or {}).get("class_II", False))
