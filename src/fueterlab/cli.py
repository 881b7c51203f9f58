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
import functools
import math
import re
import sys
from datetime import datetime, timezone
from json.encoder import encode_basestring_ascii
from typing import Optional

import numpy as np

from .classify import classify
from .diffops import SCHEMES, DiffConfig, StepError
from .function_model import FunctionKindError, SampleGrid
from .generators import SpecError, resolve_function_spec
from .laurent import (AnnulusRegion, coefficient_class_check,
                      laurent_coefficients, reconstruct)
from .quaternion_core import DomainError, from_spherical, qabs_array, SphericalPoint
from .verification import run_all_checks


def _parse_floats(text: str, n: int, label: str) -> list:
    parts = text.split(",")
    if len(parts) != n:
        raise SpecError(f"{label} needs {n} comma-separated numbers, got {text!r}")
    try:
        return [float(x) for x in parts]
    except ValueError as exc:
        raise SpecError(f"bad {label} value in {text!r}") from exc


def _parse_ints(text: str, n: int, label: str) -> list:
    values = _parse_floats(text, n, label)
    if not all(v.is_integer() for v in values):
        raise SpecError(f"{label} needs integers, got {text!r}")
    return [int(v) for v in values]


def _grid_from_arg(text: Optional[str]) -> Optional[SampleGrid]:
    if text is None:
        return None
    t0, t1, r0, r1, a0, a1, b0, b1, n = _parse_floats(text, 9, "--grid")
    if not n.is_integer():
        raise SpecError("n_per_axis must be an integer")
    try:
        return SampleGrid((t0, t1), (r0, r1), (a0, a1), (b0, b1), int(n))
    except ValueError as exc:
        raise SpecError(str(exc)) from exc


def _config_from_args(args) -> DiffConfig:
    try:
        return DiffConfig(h=args.h, scheme=args.scheme,
                          tol_abs=args.tol_abs, tol_rel=args.tol_rel)
    except ValueError as exc:
        raise SpecError(str(exc)) from exc


def _float_text(x: float) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


@functools.lru_cache(maxsize=64)
def _array_layout(shape: tuple, level: int) -> str:
    """ the nested-list text of an array of this shape at this nesting level,
    with a %s in place of each number """
    if not shape:
        return "%s"
    inner = "\n" + "  " * (level + 1)
    item = _array_layout(shape[1:], level + 1)
    return "[" + inner + ("," + inner).join([item] * shape[0]) + "\n" + "  " * level + "]"


def _array_text(a: np.ndarray, level: int) -> str:
    """A float array laid out as nested JSON lists.

    While every sub-array along the leading axis has the bytes of the first
    (so -0.0 and 0.0, and NaNs of other signs or payloads, stay apart), only
    the first is laid out, and its text is repeated.  The numbers of the
    sub-array left are formatted and filled into its layout by one %; the
    layouts are cached per (shape, level).
    """
    if a.dtype.kind != "f":
        raise TypeError(f"arrays of dtype {a.dtype} are not JSON serializable")
    if a.size == 0:
        return _value_text(a.tolist(), level)
    first, depth = a, 0
    while first.ndim and first.tobytes() == first[:1].tobytes() * len(first):
        first, depth = first[0], depth + 1
    text = _array_layout(first.shape, level + depth) % tuple(map(_float_text, first.ravel().tolist()))
    return _array_layout(a.shape[:depth], level) % ((text,) * (a.size // first.size))


def _value_text(value, level: int) -> str:
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float_text(value)
    if isinstance(value, np.ndarray):
        return _array_text(value, level)
    if isinstance(value, dict):
        if not value:
            return "{}"
        parts = [encode_basestring_ascii(k) + ": " + _value_text(v, level + 1)
                 for k, v in sorted(value.items())]
        brackets = "{}"
    elif isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        parts = [_value_text(v, level + 1) for v in value]
        brackets = "[]"
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    inner = "\n" + "  " * (level + 1)
    return (brackets[0] + inner + ("," + inner).join(parts)
            + "\n" + "  " * level + brackets[1])


def report_json(doc: dict) -> str:
    """The report as the text of json.dumps(doc, indent=2, sort_keys=True).

    Dict keys must be strings.  Besides the JSON types, a float ndarray is
    written as the nested lists of its .tolist(), and float subclasses such
    as np.float64 as floats.
    """
    return _value_text(doc, 0)


def _emit(doc: dict, out_path: Optional[str]):
    doc["timestamp"] = datetime.now(timezone.utc).isoformat(timespec="seconds")
    text = report_json(doc)
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise SpecError(f"cannot write --out {out_path}: {exc.strerror}") from exc
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
    if args.seed < 0:
        raise SpecError(f"--seed must be >= 0, got {args.seed}")
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


def _probe_points(region: AnnulusRegion) -> list:
    """24 deterministic probe points spread through the region interior.

    Every fraction is taken at k + 0.5, so no probe sits on the window
    boundary, where the chart round trip in reconstruct could move it out.
    """
    n = 24
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
    n_lo, n_hi = _parse_ints(args.n_range, 2, "--n-range")
    try:
        region = AnnulusRegion(c1, c2, inner, outer)
        series = laurent_coefficients(f, region, (n_lo, n_hi), args.quad_points)
        probes = [from_spherical(s) for s in _probe_points(region)]
        exact = np.array([(v.t, v.x, v.y, v.z) for v in map(f, probes)]).T
        rows = np.array([(q.t, q.x, q.y, q.z) for q in probes]).T
        # np.max keeps a NaN probe error, which max() would drop
        recon_err = float(np.max(qabs_array(reconstruct(series, rows) - exact)))
        stats = coefficient_class_check(series, cfg) if args.check_class else None
    except (ValueError, FunctionKindError) as exc:
        raise SpecError(str(exc)) from exc
    except OverflowError as exc:
        raise SpecError(f"{f.name}: float overflow on this region ({exc.args[-1]})") from exc

    doc = {
        "command": "laurent",
        "series": series.to_dict(),
        "max_reconstruction_error": recon_err,
    }
    status = 0
    if stats is not None:
        doc["class_check"] = {str(n): v for n, v in sorted(stats.items())}
        if any(v["verdict"] != "pass" for v in stats.values()):
            status = 1
    _emit(doc, args.out)
    return status


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fueterlab",
        description="classification, invariant verification, and Laurent "
                    "extraction for quaternionic function classes")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--h", type=float, default=DiffConfig.h, help="stencil step")
    common.add_argument("--scheme", choices=SCHEMES, default=DiffConfig.scheme)
    common.add_argument("--tol-abs", type=float, default=DiffConfig.tol_abs)
    common.add_argument("--tol-rel", type=float, default=DiffConfig.tol_rel)
    common.add_argument("--out", default=None, help="write the report here "
                        "instead of standard output")
    gridded = argparse.ArgumentParser(add_help=False, parents=[common])
    gridded.add_argument("--grid", default=None,
                         help="t0,t1,r0,r1,a0,a1,b0,b1,n_per_axis")

    sub = parser.add_subparsers(dest="command", required=True)

    p_cls = sub.add_parser("classify", parents=[gridded],
                           help="class verdicts for one function")
    p_cls.add_argument("spec", help="function spec")
    p_cls.set_defaults(func=cmd_classify)

    p_ver = sub.add_parser("verify-props", parents=[gridded],
                           help="run the full invariant suite")
    p_ver.add_argument("--seed", type=int, default=0)
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
    # a word starting with '-' and a digit, or '-.' and a digit, is a value: argparse alone
    # reads '--tol-rel -1e-7' or '--n-range -2,2' as a flag missing its argument
    for command in sub.choices.values():
        command._negative_number_matcher = re.compile(r"^-\.?\d")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed the usage error or the help
        return exc.code
    try:
        return args.func(args)
    except (SpecError, DomainError, StepError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
