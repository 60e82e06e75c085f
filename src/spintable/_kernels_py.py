"""NumPy fallback for the belief-propagation kernel, with the compiled
module's one-function contract (advance, see _kernels.c).  It reads every
generator's predecessor of every state.
"""

import numpy as np

NAME = "python"


def digit_sums(luts: np.ndarray) -> np.ndarray:
    """Lookups of shape (..., n, m) to tables of shape (..., m^n) whose entry
    j is sum_i luts[..., i, digit_i(j)], digit 0 least significant: nested
    outer sums batched over the leading axes, with no decoding or gathers."""
    lead = luts.shape[:-2]
    out = np.zeros(lead + (1,), dtype=luts.dtype)
    for i in range(luts.shape[-2] - 1, -1, -1):
        out = (out[..., :, None] + luts[..., i, None, :]).reshape(lead + (-1,))
    return out


def advance(src, dst, pinv, move, m, t0, t1):
    # dst[t] = live[u(t)], where live[u] says whether any generator's
    # predecessor of u is live and u(t) = encode(decode(t) - move) is the sum
    # of an outer-sum table over t's high digits and one over its low digits.
    live, pred = np.take(src, pinv[0]), np.empty_like(src)
    for g in range(1, len(pinv)):
        live |= np.take(src, pinv[g], out=pred)
    n = len(move)
    luts = (np.arange(m, dtype=np.int32) - move[:, None]) % m * m ** np.arange(n, dtype=np.int32)[:, None]
    low, high = digit_sums(luts[: n // 2]), digit_sums(luts[n // 2 :])
    first = t0 // len(low)
    u = (high[first : -(-t1 // len(low)), None] + low).reshape(-1)[t0 - first * len(low) :][: t1 - t0]
    np.take(live, u, out=dst[t0:t1])
    return int(np.count_nonzero(dst[t0:t1]))
