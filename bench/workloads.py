"""The four benchmark workloads: seeded inputs, operations and their oracles.

Each builder returns one pass of operations in seeded order.  An operation
calls the program once (``run``), and its oracle (``check``) returns the
list of ways the outcome disagrees with what the theory says; an empty list
means correct.  The expectations below come from the definitions of the
classes, not from numbers the program printed.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

CATALOG_NAMES = ("rho", "varrho", "sigma", "x-over-r-iota", "identity",
                 "pow:-2", "pow:-1", "pow:0", "pow:2", "pow:3", "pow:4")
SCHEMES = ("central", "richardson")
VERDICT_KEYS = ("class_I", "class_II", "class_III", "regular")

# Catalog verdicts from the definitions: powers are sweeps of z**n, hence
# Class III, and regular only when constant; rho, varrho and sigma obey the
# Class II law but vary with the angles; (x/r) iota is Class I only.
THEORY_VERDICTS = {
    name: {"class_I": True, "class_II": True, "class_III": False, "regular": False}
    for name in ("rho", "varrho", "sigma")
}
THEORY_VERDICTS["x-over-r-iota"] = {
    "class_I": True, "class_II": False, "class_III": False, "regular": False}
for _name in CATALOG_NAMES[4:]:
    _n = 1 if _name == "identity" else int(_name.split(":")[1])
    THEORY_VERDICTS[_name] = {
        "class_I": True, "class_II": True, "class_III": True, "regular": _n == 0}

# Verdicts each composed family must reach (inclusion consistency is
# checked for all of them):
#   raw        plain quaternion polynomials: no u + iota v split;
#   uv         a*alpha + b + iota a*ln tan(beta/2): a scaled rho, Class II
#              with angular dependence;
#   cullen     sweeps of analytic stems: Class III, so left = right;
#   mirror     the mirror fixes a slice sweep pointwise;
#   rinehart   images of the extension functional sweep to regular functions;
#   product    slice sweep times an angle-only Class II witness stays Class II;
#   chiral     the chiral difference of a Class II function is regular.
COMPOSED_EXPECT = {
    "raw": {"class_II": "not-CE", "class_III": "not-CE"},
    "uv": {"class_II": "pass", "class_III": "fail"},
    "cullen": {"class_III": "pass", "centrality": "central"},
    "mirror": {"class_III": "pass", "centrality": "central"},
    "rinehart": {"regular": "pass"},
    "product": {"class_II": "pass", "class_III": "fail"},
    "chiral": {"regular": "pass"},
}

# Nested stencils lose accuracy as eps / h**2: at the default h = 1e-5 the
# outer classify of a chiral difference reports regular: fail (see README).
CHIRAL_CFG = {"h": 1e-3, "scheme": "richardson"}

# The sixteen ``CheckResult.name`` values of the verify-props suite, in the
# order ``run_all_checks`` produces them.
VERIFY_CHECKS = (
    "operator-equivalence", "class-closure", "inclusion-chain",
    "jacobian-factorization", "spherical-cr-witnesses", "extension-equivalence",
    "extension-functional", "imaginary-derivative", "conjugate-right-handed",
    "centrality-agreement", "coefficient-classhood", "mirror-involution",
    "chirality-pairing", "operator-decomposition", "chiral-regularity",
    "convergence-order",
)

WINDOW_SLICES = 9 * 9   # the default AnnulusRegion window the CLI expands
# The CLI's default annulus.  About 5% of other annuli make `laurent` exit 2:
# its first reconstruction probe sits exactly on the window corner, and the
# chart round trip can move it just outside the window (see README).
LAURENT_CENTER, LAURENT_RADII = "0,1", "0.2,0.6"

LAURENT_ORDERS = (-2, -1, 0, 1, 2, 3, 4)
POWERS = (-2, -1, 2, 3, 4)


@dataclass
class Op:
    label: str
    nodes: int                       # grid nodes classified or window slices expanded
    run: Callable[[], object]        # one call into the program
    check: Callable[[object], list]  # oracle: disagreements with the theory


# -- shared helpers -----------------------------------------------------------

def _cli_op(main, label, argv, out, nodes, check):
    """An op running `fueterlab <argv> --out out` in process."""
    def run():
        try:
            return main(argv + ["--out", out])
        except SystemExit as exc:  # argparse rejects the arguments
            return exc.code

    def check_out(rc):
        if rc != 0:
            return [f"exit status {rc}"]
        with open(out) as fh:
            return check(json.load(fh))
    return Op(label, nodes, run, check_out)


def _stem_terms(rng):
    """Three seeded Laurent terms (n, c), coefficients exact in 3 decimals.

    The number of terms is fixed so that the work per pass does not depend
    on the seed.
    """
    orders = rng.sample(LAURENT_ORDERS, 3)
    return [(n, complex(round(rng.uniform(-1, 1), 3), round(rng.uniform(-1, 1), 3)))
            for n in sorted(orders)]


def _stem_spec(terms):
    return ",".join(f"{n}:{c.real:g}:{c.imag:g}" for n, c in terms)


def _verdict_problems(report, want):
    got = {key: report[key]["verdict"] for key in want}
    problems = [f"{key}={got[key]}, expected {value}"
                for key, value in want.items() if got[key] != value]
    if not report["inclusion_consistent"]:
        problems.append("inclusion chain III < II < I violated")
    return problems


# -- catalog-sweep ------------------------------------------------------------

def check_catalog(name, expected, doc):
    """Catalog verdicts match the theory and the catalog's own expectations."""
    report = doc["report"]
    want = THEORY_VERDICTS[name]
    problems = _verdict_problems(
        report, {key: "pass" if want[key] else "fail" for key in VERDICT_KEYS})
    if dict(expected) != want:
        problems.append(f"catalog expectation {dict(expected)} disagrees with theory")
    if (report["centrality"]["verdict"] == "central") != (
            report["class_III"]["verdict"] == "pass"):
        problems.append("centrality does not match the Class III verdict")
    return problems


def catalog_sweep(fl, seed, tiny, tracer, out_dir):
    """11 catalog names x both schemes on the default grid, t-window shifted."""
    rng = random.Random(seed)
    shift = rng.uniform(-0.5, 0.5)
    n = 4 if tiny else 8
    box = (-1.0 + shift, 1.0 + shift, 0.5, 1.5, -2.5, 2.5, 0.4, math.pi - 0.4, n)
    grid_arg = "--grid=" + ",".join(repr(v) for v in box)
    main = tracer.cli(fl.cli.main) if tracer else fl.cli.main
    cases = [(name, scheme) for name in CATALOG_NAMES for scheme in SCHEMES]
    rng.shuffle(cases)
    ops = []
    for k, (name, scheme) in enumerate(cases):
        expected = fl.generators.get_witness(name).expected
        fl.generators.resolve_function_spec(name)   # set-up builds every spec
        ops.append(_cli_op(
            main, f"classify {name} {scheme}",
            ["classify", name, grid_arg, "--scheme", scheme],
            os.path.join(out_dir, f"classify-{k}.json"), n ** 4,
            lambda doc, name=name, expected=expected: check_catalog(name, expected, doc)))
    return ops


# -- composed-functions -------------------------------------------------------

def _raw_polynomial(fl, rng, k):
    Q = fl.quaternion_core.Quaternion
    coeffs = [Q(*(round(rng.uniform(-1, 1), 3) for _ in range(4)))
              for _ in range(3)]

    def evaluator(p):
        total, power = Q(), Q(1.0)
        for c in coeffs:
            total = total + c * power
            power = power * p
        return total
    return fl.function_model.QFunction(f"raw-poly-{k}", evaluator, kind="raw")


def _rho_family(fl, rng, k):
    a = rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0)
    b = rng.uniform(-1.0, 1.0)
    return fl.function_model.from_uv(
        lambda s: a * s.alpha + b,
        lambda s: a * math.log(math.tan(s.beta / 2.0)), name=f"uv-{k}")


def _user_stem(fl, rng, k):
    terms = _stem_terms(rng)
    return fl.function_model.ComplexStem.named(
        f"user-stem-{k}",
        lambda z: sum(c * z ** n for n, c in terms),
        lambda z: sum(n * c * z ** (n - 1) for n, c in terms if n))


def check_composed(kind, report):
    return _verdict_problems(report.to_dict(), COMPOSED_EXPECT[kind])


def composed_functions(fl, seed, tiny, tracer, out_dir):
    """Library classify of functions built from seeded parameters."""
    rng = random.Random(seed)
    fm, gen = fl.function_model, fl.generators
    DiffConfig = fl.diffops.DiffConfig
    build = tracer.generator if tracer else (lambda fn: fn)
    resolve = build(gen.resolve_function_spec)
    chiral = build(gen.chiral_difference)
    witness = build(gen.get_witness)
    grid = fm.SampleGrid(n_per_axis=4 if tiny else 8)
    chiral_grid = fm.SampleGrid(n_per_axis=3 if tiny else 5)
    cfg, chiral_cfg = DiffConfig(), DiffConfig(**CHIRAL_CFG)
    base = tracer.chiral_base if tracer else (lambda f: f)

    cases = [("raw", _raw_polynomial(fl, rng, k)) for k in range(2)]
    cases += [("uv", _rho_family(fl, rng, k)) for k in range(2)]
    cases += [("cullen", fm.cullen_extend(_user_stem(fl, rng, k))) for k in range(2)]
    cases.append(("rinehart", resolve("L:" + _stem_spec(_stem_terms(rng)))))
    cases.append(("product", resolve(
        f"product:{rng.choice(('rho', 'varrho', 'sigma'))}*pow:{rng.choice(POWERS)}")))
    cases.append(("mirror", resolve(f"mirror:pow:{rng.choice(POWERS)}")))
    cases.append(("chiral", chiral(base(witness("rho").function))))
    # no catalog expectations, so chiral_difference spot-checks Class II
    cases.append(("chiral", chiral(base(_rho_family(fl, rng, 2)))))
    rng.shuffle(cases)

    classify = tracer.classify(fl.classify.classify) if tracer else fl.classify.classify
    ops = []
    for kind, f in cases:
        g, c = (chiral_grid, chiral_cfg) if kind == "chiral" else (grid, cfg)
        if tracer:
            f = tracer.function(f, chiral=kind == "chiral")
        ops.append(Op(f"classify {kind} {f.name}", g.size,
                      lambda f=f, g=g, c=c: classify(f, g, c),
                      lambda report, kind=kind: check_composed(kind, report)))
    return ops


# -- verify-props -------------------------------------------------------------

def check_verify(names, doc):
    got = [c["name"] for c in doc["checks"]]
    problems = [f"{c['name']} failed: {c['detail']}" for c in doc["checks"]
                if not c["passed"]]
    if not doc["all_passed"]:
        problems.append("all_passed is false")
    if got != list(names):
        problems.append(f"checks {got} differ from the suite's {list(names)}")
    return problems


def verify_props(fl, seed, tiny, tracer, out_dir):
    """The standing invariant suite, seeded."""
    n = 4 if tiny else 8
    argv = ["verify-props", "--seed", str(seed % 2 ** 32)]
    if tiny:
        argv.append(f"--grid=-1,1,0.5,1.5,-2.5,2.5,0.4,2.7416,{n}")
    main = tracer.cli(fl.cli.main) if tracer else fl.cli.main
    # node count: the suite classifies the catalog on this grid
    return [_cli_op(main, "verify-props", argv,
                    os.path.join(out_dir, "verify-props.json"),
                    len(CATALOG_NAMES) * n ** 4,
                    lambda doc: check_verify(VERIFY_CHECKS, doc))]


# -- laurent-window -----------------------------------------------------------

def _binomial(m, k):
    """Generalized binomial coefficient C(m, k) for integer m, k >= 0."""
    out = 1.0
    for j in range(k):
        out *= (m - j) / (j + 1)
    return out


def taylor_coefficients(terms, center, orders):
    """Coefficients of sum c z**n expanded about center, as {order: a_k}.

    Every term is analytic in the disc |z - center| < |center|, so only
    orders k >= 0 appear: a_k = sum c C(n, k) center**(n - k).
    """
    return {k: sum(c * _binomial(n, k) * center ** (n - k) for n, c in terms)
            if k >= 0 else 0j for k in orders}


def check_laurent(terms, doc):
    """Class-check verdicts pass and coefficients match the closed form.

    terms is a list of stem terms, or None for rho, whose slice function is
    the constant alpha + i ln tan(beta/2).  Rounding in the FFT contributes
    about eps * max|f| / radius**k at order k; the tolerance allows 4e6 eps.
    """
    series = doc["series"]
    problems = [f"order {n} class check: {v['verdict']}"
                for n, v in doc["class_check"].items() if v["verdict"] != "pass"]
    center = complex(*series["center"])
    radius = 0.5 * sum(series["radii"])
    window = series["window"]
    alphas = _linspace(*window["alpha"], window["n_alpha"])
    betas = _linspace(*window["beta"], window["n_beta"])
    coeffs = {int(n): grid for n, grid in series["coefficients"].items()}
    exact = taylor_coefficients(terms, center, coeffs) if terms else None
    for ia, a in enumerate(alphas):
        for ib, b in enumerate(betas):
            if exact is None:
                want = {n: 0j for n in coeffs}
                want[0] = complex(a, math.log(math.tan(b / 2.0)))
            else:
                want = exact
            bound = sum(abs(w) * radius ** n for n, w in want.items() if n >= 0)
            for n, grid in coeffs.items():
                got = complex(*grid[ia][ib])
                tol = 1e-9 * (1.0 + bound) / radius ** n
                if abs(got - want[n]) > tol:
                    problems.append(f"a_{n} at node ({ia},{ib}) = {got:.6g}, "
                                    f"closed form {want[n]:.6g}")
    return problems


def _linspace(lo, hi, n):
    return [lo + (hi - lo) * k / (n - 1) for k in range(n)]


def laurent_window(fl, seed, tiny, tracer, out_dir):
    """Laurent extraction plus coefficient class check on the 9x9 window."""
    rng = random.Random(seed)
    main = tracer.cli(fl.cli.main) if tracer else fl.cli.main
    specs = [(f"stem:{_stem_spec(t)}", t)
             for t in (_stem_terms(rng) for _ in range(1 if tiny else 5))]
    specs += [(f"pow:{n}", [(n, 1 + 0j)])
              for n in rng.sample(POWERS, 1 if tiny else 2)]
    specs.append(("rho", None))
    rng.shuffle(specs)
    extra = ["--quad-points", "32", "--n-range=-4,4"] if tiny else []
    ops = []
    for k, (spec, terms) in enumerate(specs):
        fl.generators.resolve_function_spec(spec)   # set-up builds every spec
        argv = ["laurent", spec, f"--center={LAURENT_CENTER}",
                f"--radii={LAURENT_RADII}", "--check-class"] + extra
        ops.append(_cli_op(main, f"laurent {spec}", argv,
                           os.path.join(out_dir, f"laurent-{k}.json"), WINDOW_SLICES,
                           lambda doc, terms=terms: check_laurent(terms, doc)))
    return ops


WORKLOADS = {
    "catalog-sweep": catalog_sweep,
    "composed-functions": composed_functions,
    "verify-props": verify_props,
    "laurent-window": laurent_window,
}
