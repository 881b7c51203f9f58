"""Sweep reports do not depend on numpy's SIMD kernels.

numpy picks its kernels when it is imported: what the CPU offers, less the
targets that NPY_DISABLE_CPU_FEATURES names (a target the CPU lacks is
ignored).  Its AVX-512 kernels of some float64 functions, arctan2 among
them, round differently from its AVX2 ones.  A sweep's stencil samples read
its Cartesian view, Re g + (x, y, z) Im g / r, which takes none of them, so
the classify reports of a power, an L: image and a mirror must be the same
bytes, apart from the timestamp, with the AVX-512 targets switched off in a
subprocess as in this process.

Run as a script, this file prints those reports.
"""

import contextlib
import io
import json
import os
import re
import subprocess
import sys

import fueterlab
from fueterlab.cli import main

SPECS = ("pow:3", "L:3:1:0", "mirror:pow:3")
GRID = "--grid=-1,1,0.5,1.5,-2.5,2.5,0.4,2.7,4"
AVX512_TARGETS = "X86_V4 AVX512_ICL AVX512_SPR"


def reports() -> list:
    """ the stdout of classify for each spec under both schemes, without its timestamp """
    out = []
    for spec in SPECS:
        for scheme in ("central", "richardson"):
            text = io.StringIO()
            with contextlib.redirect_stdout(text):
                assert main(["classify", spec, GRID, "--scheme", scheme]) == 0
            out.append(re.sub(r',?\n *"timestamp": "[^"]*"', "", text.getvalue()))
    return out


def test_sweep_reports_are_the_same_without_the_avx512_kernels():
    source = os.path.dirname(os.path.dirname(fueterlab.__file__))
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=AVX512_TARGETS,
               PYTHONPATH=os.pathsep.join(filter(None, (source, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, __file__], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == reports()


if __name__ == "__main__":
    json.dump(reports(), sys.stdout)
