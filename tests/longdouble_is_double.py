"""A pytest plugin that runs the suite as on a platform whose long double
is float64, as numpy's is on Windows and macOS arm64:
``python -m pytest -p longdouble_is_double``, with tests/ on the path."""

import numpy as np

np.longdouble = np.float64
np.clongdouble = np.complex128
