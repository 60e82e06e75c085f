"""NumPy fallback for the belief-propagation kernel.

Same two-function contract as the compiled module (step and step_indirect,
see _kernels.c): used automatically when the extension is unavailable, and
directly when benchmarking the two against each other.
"""

import numpy as np

NAME = "python"


def step(src, dst, comp, t0, t1):
    sl = slice(t0, t1)
    np.take(src, comp[0, sl], out=dst[sl])
    for g in range(1, comp.shape[0]):
        np.bitwise_or(dst[sl], src[comp[g, sl]], out=dst[sl])


def step_indirect(src, dst, pinv, ainv, t0, t1):
    sl = slice(t0, t1)
    u = ainv[sl]
    np.take(src, pinv[0].take(u), out=dst[sl])
    for g in range(1, pinv.shape[0]):
        np.bitwise_or(dst[sl], src[pinv[g].take(u)], out=dst[sl])
