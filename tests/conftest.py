"""Session header: the numpy build and the SIMD kernels it runs on this CPU.

Several tests compare report floats with ==.  numpy's float64 transcendental
ufuncs (arctan2, hypot, log, tan, arctanh, ...) can give different last bits
under different SIMD kernels, so a failure of such a golden on a CPU without
the kernels listed here can be told from a regression at a glance.
"""

import numpy as np

try:
    from numpy._core import _multiarray_umath as _umath
except ImportError:  # numpy < 2
    from numpy.core import _multiarray_umath as _umath


def pytest_report_header(config):
    features = _umath.__cpu_features__
    dispatch = _umath.__cpu_dispatch__
    used = [target for target in dispatch if features.get(target)]
    unused = [target for target in dispatch if not features.get(target)]
    return [f"numpy {np.__version__}: SIMD baseline {' '.join(_umath.__cpu_baseline__) or '-'}; "
            f"dispatches to {' '.join(used) or '-'} on this CPU"
            f" (built, not used: {' '.join(unused) or '-'})"]
