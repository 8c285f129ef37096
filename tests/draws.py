"""Float draws from ``qrot.bitcore.Rng``, for the tests.

The package decides its probabilistic events by comparing raw 32-bit words
with integer thresholds; the tests keep the float form, u = w / 2**32, as
the reference that must match it.
"""

import numpy as np


def uniform(rng, n: int) -> np.ndarray:
    """n floats uniform in [0, 1) with 32-bit resolution: the next n
    big-endian words of ``rng`` over 2**32."""
    return np.frombuffer(rng.bytes(4 * n), dtype=">u4") / np.float64(1 << 32)
