"""Bit-for-bit comparison of floats, shared by the tests of the plain-float code."""

import numpy as np


def bits(values) -> bytes:
    """The exact float64 bytes of a float or a sequence of them, with one NaN for every NaN.

    -0.0 and 0.0 differ, and so do a NaN and any number.  A NaN's sign and
    payload do not count: CPython does not keep the sign of a NaN made from
    two NaNs (``-nan + nan``), which can change once the interpreter
    specialises the addition after a few calls.
    """
    values = np.array(values, dtype=float)
    values[np.isnan(values)] = np.nan
    return values.tobytes()
