"""Per-layer counters and busy times for the traced benchmark run.

Spans are taken only at boundaries the benchmark owns: calls into each
module's public functions (patched into the namespaces that call them for
the length of one traced operation) and the evaluators of the functions the
benchmark builds and passes in.  Nothing under ``src/`` is modified.
"""

from __future__ import annotations

import dataclasses
from collections import defaultdict
from time import perf_counter

from workloads import VERIFY_CHECKS


PER_LAYER = (
    ("function_model.eval_points", "count"),
    ("function_model.eval_s", "s"),
    ("function_model.points_per_node", "ratio"),
    ("classify.calls", "count"),
    ("classify.busy_s", "s"),
    ("classify.self_s", "s"),
    ("classify.self_us_per_node", "us"),
    ("generators.build_s", "s"),
    ("generators.chiral_inner_points_per_eval", "ratio"),
    ("laurent.extract_s", "s"),
    ("laurent.class_check_s", "s"),
    ("laurent.reconstruct_s", "s"),
    ("laurent.quad_points", "count"),
    ("laurent.class_check_points", "count"),
    ("verification.catalog_reports_s", "s"),
) + tuple((f"verification.{name}_s", "s") for name in VERIFY_CHECKS) + (
    ("cli.self_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_frac", "ratio"),
)

# Generator entry points the verify-props suite calls by module-level name.
_VERIFICATION_GENERATORS = ("chiral_difference", "get_witness", "mirror",
                            "rinehart_L", "ci_extend_rinehart")


class Tracer:
    """Accumulates counts and busy times for one traced set-up plus pass."""

    def __init__(self):
        self.acc = defaultdict(float)
        self.points = 0        # evaluations of functions the benchmark wrapped
        self.eval_s = 0.0
        self.depth = 0         # library calls currently open
        self.lib_s = 0.0       # time inside outermost library calls
        self.in_chiral = False

    # -- evaluator wrappers -------------------------------------------------

    def _counted(self, fn, chiral=False):
        def evaluate(x):
            outer = self.in_chiral
            self.in_chiral = chiral
            t0 = perf_counter()
            try:
                return fn(x)
            finally:
                self.eval_s += perf_counter() - t0
                self.points += 1
                self.in_chiral = outer
                if chiral:
                    self.acc["chiral_outer"] += 1
        return evaluate

    def function(self, f, chiral=False):
        """Copy of QFunction f whose evaluators count points and time."""
        spherical = f.spherical_evaluator
        return dataclasses.replace(
            f, evaluator=self._counted(f.evaluator, chiral),
            spherical_evaluator=spherical and self._counted(spherical, chiral))

    def chiral_base(self, f):
        """Copy of f counting the evaluations a chiral difference makes of it."""
        inner = f.evaluator

        def evaluate(p):
            if self.in_chiral:
                self.acc["chiral_inner"] += 1
            return inner(p)
        return dataclasses.replace(f, evaluator=evaluate)

    # -- library call wrappers ----------------------------------------------

    def timed(self, key, fn, points_key=None, after=None):
        """fn with its busy time added to key, or to key(result) when key is
        callable; its evaluator points go to points_key, and after(result,
        points, eval_s) sees what the call evaluated."""
        def call(*args, **kwargs):
            p0, e0 = self.points, self.eval_s
            self.depth += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self.depth -= 1
                if self.depth == 0:
                    self.lib_s += dt
            self.acc[key(result) if callable(key) else key] += dt
            if points_key:
                self.acc[points_key] += self.points - p0
            if after:
                after(result, self.points - p0, self.eval_s - e0)
            return result
        return call

    def classify(self, fn):
        def after(report, points, eval_s):
            self.acc["classify.calls"] += 1
            self.acc["classify.nodes"] += report.grid.size
            self.acc["classify.eval_points"] += points
            self.acc["classify.eval_s"] += eval_s
        return self.timed("classify.busy_s", fn, after=after)

    def generator(self, fn):
        return self.timed("generators.build_s", fn)

    def resolve_spec(self, fn):
        """resolve_function_spec whose results carry counting evaluators."""
        timed = self.generator(fn)
        return lambda spec: self.function(timed(spec))

    def cli(self, main):
        """cli.main with its time outside the library calls added to cli.self_s."""
        def call(argv):
            lib0 = self.lib_s
            t0 = perf_counter()
            try:
                return main(argv)
            finally:
                self.acc["cli.self_s"] += perf_counter() - t0 - (self.lib_s - lib0)
        return call

    def patches(self, fl):
        """(module, attribute, replacement) for every boundary traced by name.

        A boundary the program no longer has is skipped and its layer reads 0.
        """
        cli, ver, gen = fl.cli, fl.verification, fl.generators

        def seconds(key, points_key=None):
            return lambda fn: self.timed(key, fn, points_key)

        extract = seconds("laurent.extract_s", "laurent.quad_points")
        class_check = seconds("laurent.class_check_s", "laurent.class_check_points")
        plan = [
            (cli, "classify", self.classify),
            (cli, "resolve_function_spec", self.resolve_spec),
            (cli, "laurent_coefficients", extract),
            (cli, "coefficient_class_check", class_check),
            (cli, "reconstruct", seconds("laurent.reconstruct_s")),
            (gen, "classify", self.classify),
            (ver, "classify", self.classify),
            (ver, "catalog_reports", seconds("verification.catalog_reports_s")),
            (ver, "laurent_coefficients", extract),
            (ver, "coefficient_class_check", class_check),
        ]
        plan += [(ver, name, self.generator) for name in _VERIFICATION_GENERATORS]
        plan += [(ver, name, seconds(lambda result: f"verification.{result.name}_s"))
                 for name in dir(ver) if name.startswith("check_")]
        return [(mod, name, wrap(getattr(mod, name)))
                for mod, name, wrap in plan if hasattr(mod, name)]

    def metrics(self, overhead_s, untraced_s):
        """The per-layer values, keyed as in PER_LAYER; a layer never reached reads 0."""
        acc = self.acc
        nodes = acc["classify.nodes"]
        self_s = acc["classify.busy_s"] - acc["classify.eval_s"]
        values = {
            "function_model.eval_points": self.points,
            "function_model.eval_s": self.eval_s,
            "function_model.points_per_node":
                acc["classify.eval_points"] / nodes if nodes else 0.0,
            "classify.self_s": self_s,
            "classify.self_us_per_node": 1e6 * self_s / nodes if nodes else 0.0,
            "generators.chiral_inner_points_per_eval":
                acc["chiral_inner"] / acc["chiral_outer"] if acc["chiral_outer"] else 0.0,
            "trace.overhead_s": overhead_s,
            "trace.overhead_frac": overhead_s / untraced_s,
        }
        values = {name: values.get(name, acc[name]) for name, _ in PER_LAYER}
        return {name: int(values[name]) if unit == "count" else values[name]
                for name, unit in PER_LAYER}


class patched:
    """Context manager installing a tracer's patches and restoring the originals."""

    def __init__(self, tracer, fl):
        self.items = tracer.patches(fl)

    def __enter__(self):
        self.saved = [(mod, name, getattr(mod, name)) for mod, name, _ in self.items]
        for mod, name, repl in self.items:
            setattr(mod, name, repl)
        return self

    def __exit__(self, *exc):
        for mod, name, orig in self.saved:
            setattr(mod, name, orig)
        return False
