"""fueterlab benchmark: one workload, measured end to end or traced by layer.

    python3 bench/run.py --workload catalog-sweep --seed 1 --seconds 30 --trace 0

Runs in one process on one thread, as a closed loop: one caller, each
operation starting after the previous one ends.  Inputs come from --seed
alone.  Every operation's output is checked by the workload's oracle.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from speed import SpeedClock

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 11
MAX_PROBLEMS_SHOWN = 5


MODULES = ("cli", "classify", "diffops", "function_model", "generators",
           "laurent", "quaternion_core", "verification")


def load_fueterlab():
    """Import fueterlab from this checkout's src/, afresh; return its modules.

    Earlier imports are dropped first, so each call pays the whole import
    of the package (numpy stays loaded after the first call).
    """
    for name in [m for m in sys.modules if m == "fueterlab" or m.startswith("fueterlab.")]:
        del sys.modules[name]
    fl = importlib.import_module("fueterlab")
    origin = Path(fl.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise ImportError(f"fueterlab imported from {origin}, outside {ROOT / 'src'}")
    return SimpleNamespace(**{name: importlib.import_module(f"fueterlab.{name}")
                              for name in MODULES})


def set_up(build, seed, tiny, tracer, out_dir):
    """Import the package and build the workload's functions and specs."""
    fl = load_fueterlab()
    return fl, build(fl, seed, tiny, tracer, out_dir)


class Tally:
    """Operations attempted and failed, with the first problems seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.shown = 0

    def record(self, op, clock):
        """Run and check op; return its (raw, normalized) time, zeros if it raised."""
        self.attempted += 1
        times, problems = (0.0, 0.0), []
        try:
            *times, value = clock.time(op.run)
        except Exception as exc:  # an operation that raises counts as failed
            problems = [f"raised {type(exc).__name__}: {exc}"]
        else:
            try:
                problems = op.check(value)
            except Exception as exc:  # malformed output fails the oracle
                problems = [f"output unreadable: {type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            if self.shown < MAX_PROBLEMS_SHOWN:
                self.shown += 1
                print(f"# FAILED {op.label}: {'; '.join(problems)}", file=sys.stderr)
        return tuple(times)


def tail(times):
    """(value, percentile) of the highest percentile with >= 10 samples beyond
    it; the maximum and 100 when that percentile would sit below the median."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 21:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def measure(ops, seconds, tally, clock):
    """Whole passes over ops while the next one fits in seconds (at least one).

    Returns the (raw, normalized) time of each pass's ops."""
    passes, pass_walls = [], []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        passes.append([tally.record(op, clock) for op in ops])
        pass_walls.append(perf_counter() - t0)
        if perf_counter() - start + statistics.median(pass_walls) > seconds:
            return passes


def end_to_end(setups, passes, nodes, k):
    """The timing metrics from column k (0 raw, 1 normalized) of the times."""
    op_times = [t[k] for p in passes for t in p]
    tail_s, tail_pct = tail(op_times)
    return {
        "setup_s": statistics.median(t[k] for t in setups),
        "wall_s": statistics.median(sum(t[k] for t in p) for p in passes),
        "op_p50_ms": 1e3 * statistics.median(op_times),
        "op_tail_ms": 1e3 * tail_s,
        "nodes_per_s": nodes / sum(op_times),
    }, tail_pct


def run_untraced(build, args, out_dir, tally, clock):
    setups = []
    for _ in range(SETUP_REPEATS):
        *times, (fl, ops) = clock.time(
            lambda: set_up(build, args.seed, args.tiny, None, out_dir))
        setups.append(times)
    passes = measure(ops, args.seconds, tally, clock)
    nodes = sum(op.nodes for op in ops) * len(passes)
    raw, _ = end_to_end(setups, passes, nodes, 0)
    normalized, tail_pct = end_to_end(setups, passes, nodes, 1)
    units = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms",
             "nodes_per_s": "1/s"}
    values = {name: (normalized[name], unit) for name, unit in units.items()}
    values["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    n_ops = len(ops) * len(passes)
    notes = {
        "setup_s": f"median of {SETUP_REPEATS} set-ups",
        "wall_s": f"median of {len(passes)} passes of {len(ops)} ops",
        "op_p50_ms": f"{n_ops} ops",
        "op_tail_ms": f"p{tail_pct:.1f} of {n_ops} ops",
        "nodes_per_s": f"{nodes} nodes",
    }
    notes = {name: f"{note}; raw {raw[name]:.6g}" for name, note in notes.items()}
    return values, notes


def run_traced(build, args, out_dir, tally, clock):
    """One pass, each op run untraced and traced back to back (alternating
    which goes first); per-layer values cover the traced set-up and pass."""
    from tracing import PER_LAYER, Tracer, patched

    fl, plain_ops = set_up(build, args.seed, args.tiny, None, out_dir)
    tracer = Tracer()
    with patched(tracer, fl):
        traced_ops = build(fl, args.seed, args.tiny, tracer, out_dir)

    class TracedClock:
        def time(self, fn):
            with patched(tracer, fl):
                return clock.time(fn)

    pass_s = [0.0, 0.0]   # untraced, traced; normalized seconds
    for k, pair in enumerate(zip(plain_ops, traced_ops)):
        for i in (0, 1) if k % 2 == 0 else (1, 0):
            pass_s[i] += tally.record(pair[i], TracedClock() if i else clock)[1]
    untraced_s, traced_s = pass_s
    metrics = tracer.metrics(traced_s - untraced_s, untraced_s)
    values = {name: (metrics[name], unit) for name, unit in PER_LAYER}
    notes = {"trace.overhead_s": f"traced {traced_s:.3f} s vs untraced {untraced_s:.3f} s"}
    return values, notes


def fingerprint(args):
    import numpy
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(), "numpy": numpy.__version__,
    }


def parse_args(argv):
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small grids and windows, for the benchmark's own tests")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    # measure the default single-thread path: no thread cap, no BLAS threads
    os.environ.pop("FUETERLAB_THREADS", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS
    build = WORKLOADS[args.workload]
    try:
        load_fueterlab()
    except ImportError as exc:
        print(f"error: cannot import fueterlab from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2

    out_dir = tempfile.mkdtemp(prefix=".bench_tmp-", dir=ROOT)
    tally = Tally()
    try:
        runner = run_traced if args.trace else run_untraced
        values, notes = runner(build, args, out_dir, tally, SpeedClock())
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    print("# fingerprint " + json.dumps(fingerprint(args), sort_keys=True))
    for name, (value, unit) in values.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:42s} {value:.6g} {unit}{note}")
    print(f"{'failed_frac':42s} {tally.failed / tally.attempted:.6g} ratio  "
          f"({tally.failed} of {tally.attempted} ops)")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
