"""Command-line front end.

Three commands, each emitting one JSON document on standard output (or to
--out): `classify` runs the class report for a function spec, `verify-props`
runs the standing invariant suite, `laurent` extracts series coefficients
on an annulus region.  Exit status is 0 for success/all-pass, 1 for a
verification failure, 2 for a usage error; reports are byte-identical
across reruns apart from the timestamp field.

Function specs: a catalog name (`rho`, `varrho`, `sigma`, `x-over-r-iota`,
`identity`), `pow:<n>`, `stem:<n:re:im,...>`, a named stem, or a generator
applied to one of those: `L:<stem>`, `chiral:<name>`, `mirror:<name>`,
`product:<a>*<b>`, `sum:<a>+<b>`.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from datetime import datetime, timezone
from typing import Optional

from .classify import classify
from .diffops import DiffConfig
from .function_model import SampleGrid
from .generators import SpecError, resolve_function_spec
from .laurent import (AnnulusRegion, coefficient_class_check,
                      laurent_coefficients, reconstruct)
from .quaternion_core import DomainError, from_spherical, SphericalPoint
from .verification import run_all_checks


def _parse_floats(text: str, n: int, label: str) -> list:
    parts = text.split(",")
    if len(parts) != n:
        raise SpecError(f"{label} needs {n} comma-separated numbers, got {text!r}")
    try:
        return [float(x) for x in parts]
    except ValueError as exc:
        raise SpecError(f"bad {label} value in {text!r}") from exc


def _grid_from_arg(text: Optional[str]) -> Optional[SampleGrid]:
    if text is None:
        return None
    values = _parse_floats(text, 9, "--grid")
    try:
        return SampleGrid.from_flat(values)
    except ValueError as exc:
        raise SpecError(str(exc)) from exc


def _config_from_args(args) -> DiffConfig:
    try:
        return DiffConfig(h=args.h, scheme=args.scheme,
                          tol_abs=args.tol_abs, tol_rel=args.tol_rel)
    except ValueError as exc:
        raise SpecError(str(exc)) from exc


def _emit(doc: dict, out_path: Optional[str]):
    doc["timestamp"] = datetime.now(timezone.utc).isoformat(timespec="seconds")
    text = json.dumps(doc, indent=2, sort_keys=True)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def cmd_classify(args) -> int:
    f = resolve_function_spec(args.spec)
    grid = _grid_from_arg(args.grid)
    cfg = _config_from_args(args)
    report = classify(f, grid, cfg)
    _emit({"command": "classify", "report": report.to_dict()}, args.out)
    return 0 if report.inclusion_consistent else 1


def cmd_verify_props(args) -> int:
    grid = _grid_from_arg(args.grid)
    cfg = _config_from_args(args)
    checks = run_all_checks(seed=args.seed, cfg=cfg, grid=grid)
    all_passed = all(c.passed for c in checks)
    doc = {
        "command": "verify-props",
        "seed": args.seed,
        "checks": [c.to_dict() for c in checks],
        "all_passed": all_passed,
    }
    _emit(doc, args.out)
    return 0 if all_passed else 1


def _probe_points(region: AnnulusRegion, n: int = 24) -> list:
    """Deterministic probe points spread through the region interior.

    Every fraction is taken at k + 0.5, so no probe sits on the window
    boundary, where the chart round trip in reconstruct could move it out.
    """
    a0, a1 = region.alpha_window
    b0, b1 = region.beta_window
    points = []
    for k in range(n):
        frac = (k + 0.5) / n
        dist = region.inner + (region.outer - region.inner) * frac
        angle = 2.0 * math.pi * ((k * 0.381966) % 1.0)
        z = region.center + dist * complex(math.cos(angle), math.sin(angle))
        alpha = a0 + (a1 - a0) * (((k + 0.5) * 0.7548776662) % 1.0)
        beta = b0 + (b1 - b0) * (((k + 0.5) * 0.5698402909) % 1.0)
        points.append(SphericalPoint(z.real, z.imag, alpha, beta))
    return points


def cmd_laurent(args) -> int:
    f = resolve_function_spec(args.spec)
    cfg = _config_from_args(args)
    c1, c2 = _parse_floats(args.center, 2, "--center")
    inner, outer = _parse_floats(args.radii, 2, "--radii")
    n_lo, n_hi = (int(v) for v in _parse_floats(args.n_range, 2, "--n-range"))
    try:
        region = AnnulusRegion(c1, c2, inner, outer)
        series = laurent_coefficients(f, region, (n_lo, n_hi), args.quad_points)
    except (ValueError, DomainError) as exc:
        raise SpecError(str(exc)) from exc

    recon_err = 0.0
    for s in _probe_points(region):
        q = from_spherical(s)
        recon_err = max(recon_err, abs(reconstruct(series, q) - f(q)))

    doc = {
        "command": "laurent",
        "series": series.to_dict(),
        "max_reconstruction_error": recon_err,
    }
    status = 0
    if args.check_class:
        stats = coefficient_class_check(series, cfg)
        doc["class_check"] = {str(n): v for n, v in sorted(stats.items())}
        if any(v["verdict"] != "pass" for v in stats.values()):
            status = 1
    _emit(doc, args.out)
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fueterlab",
        description="classification, invariant verification, and Laurent "
                    "extraction for quaternionic function classes")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--grid", default=None,
                        help="t0,t1,r0,r1,a0,a1,b0,b1,n_per_axis")
    common.add_argument("--h", type=float, default=1e-5, help="stencil step")
    common.add_argument("--scheme", choices=("central", "richardson"),
                        default="central")
    common.add_argument("--tol-abs", type=float, default=1e-6)
    common.add_argument("--tol-rel", type=float, default=1e-6)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--out", default=None, help="write the report here "
                        "instead of standard output")

    sub = parser.add_subparsers(dest="command", required=True)

    p_cls = sub.add_parser("classify", parents=[common],
                           help="class verdicts for one function")
    p_cls.add_argument("spec", help="function spec")
    p_cls.set_defaults(func=cmd_classify)

    p_ver = sub.add_parser("verify-props", parents=[common],
                           help="run the full invariant suite")
    p_ver.set_defaults(func=cmd_verify_props)

    p_lau = sub.add_parser("laurent", parents=[common],
                           help="series coefficients on an annulus region")
    p_lau.add_argument("spec", help="function spec")
    p_lau.add_argument("--center", default="0,1", help="c1,c2")
    p_lau.add_argument("--radii", default="0.2,0.6", help="inner,outer")
    p_lau.add_argument("--n-range", default="-8,8", help="n_min,n_max")
    p_lau.add_argument("--quad-points", type=int, default=128)
    p_lau.add_argument("--check-class", action="store_true",
                       help="also test each coefficient field for Class II")
    p_lau.set_defaults(func=cmd_laurent)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
