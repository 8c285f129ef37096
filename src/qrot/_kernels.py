"""Numpy implementations of the hot kernels: the partial Fisher-Yates shuffle
(whole-array passes, no loop over the swaps; its result is that of the
sequential swaps), the syndrome of a quasi-cyclic code and its layered
normalized min-sum syndrome decoder. Both read the code from its circulant
shifts alone: rolling each block of variables by a band's shift puts them
in that band's check order.

Callers reach these through the module (``_kernels.bp_decode``) at call time,
so an instrumenting wrapper set on the module attribute sees every call.
"""

from __future__ import annotations

import numpy as np


def fisher_yates_partial(perm: np.ndarray, j: np.ndarray) -> None:
    """In-place partial Fisher-Yates: swap perm[i] <-> perm[j[i]] for i = 0, 1, ...

    Requires i <= j[i] < len(perm) for every i and raises ValueError
    otherwise. The result equals that of the sequential swaps, computed
    without a loop over i. No step after i touches slot i, and no step
    before i touches slot j[i] other than by aiming at it, so:

    - step i takes from slot j[i] what the last earlier step aiming at j[i]
      carried there, or that slot's original value;
    - step i carries away what slot i held: what the last earlier step
      aiming at i carried there, and so on back to an original value.

    One sort of (target, step) keys finds those earlier steps, and pointer
    jumping follows the carry chains back to their origin.
    """
    k, n = j.size, perm.size
    if k == 0:
        return
    idx = np.int32 if n < 2 ** 31 else np.int64
    steps = np.arange(k, dtype=idx)
    if np.any(j < steps) or j.max() >= n:
        raise ValueError("fisher_yates_partial needs i <= j[i] < len(perm)")

    shift = max(k - 1, 1).bit_length()
    key = j.astype(np.int64) << shift | steps
    key.sort()
    # sorted position p: step[p] aims at slot tgt[p]; the steps aiming at
    # one slot sit together, in step order
    tgt = (key >> shift).astype(idx)
    step = (key & ((1 << shift) - 1)).astype(idx)
    del key
    same = tgt[1:] == tgt[:-1]
    # before[p]: the previous step aiming at slot tgt[p], or -1 (arithmetic
    # rather than np.where, which is slow on an irregular mask)
    before = np.empty(k, dtype=idx)
    before[0] = -1
    before[1:] = (step[:-1] + 1) * same - 1
    last = np.append(~same, True)  # step[p] is the last to aim at tgt[p]
    del same

    # origin[s] starts as the last step before s that aimed at slot s, whose
    # carried value slot s holds when step s takes it, or as s itself when
    # there is none. (A step aiming at its own slot points at itself: what it
    # carries is never read, since no later step aims at that slot.) Pointer
    # jumping then moves origin[s] back along the chain to the step whose
    # slot still held its original value.
    origin = steps.copy()
    at = np.flatnonzero(last & (tgt < k))
    origin[tgt[at]] = step[at]
    del at
    live = np.flatnonzero(origin != steps)
    while live.size:
        up = origin[live]
        top = origin[up]
        origin[live] = top
        live = live[top != up]

    # vals[:k]: what step i carries away; vals[k + p]: slot tgt[p]'s original
    vals = np.concatenate([perm[origin], perm[tgt]])
    del origin
    # landed[p], what step[p] takes: vals[before[p]], or vals[k + p] when no
    # earlier step aimed at tgt[p]
    landed = vals[before + (before < 0) * (k + 1 + steps)]
    high = np.flatnonzero(last & (tgt >= k))
    perm[tgt[high]] = vals[step[high]]
    perm[step] = landed


def roll_rows(src: np.ndarray, shift: np.ndarray, out: np.ndarray) -> None:
    """out[j] = np.roll(src[j], shift[j]) for each row j of a 2-D array, as
    two slice copies per row; out must not overlap src."""
    z = src.shape[1]
    for j, s in enumerate(shift.tolist()):
        s %= z
        out[j, s:] = src[j, :z - s]
        out[j, :s] = src[j, z - s:]


def band_syndrome(blocks: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """The (3 z,) syndrome of bits ``blocks`` (nb, z), variable j * z + t at
    [j, t], under circulant shifts ``shift`` (3, nb): check i * z + r meets
    variable j * z + (r + shift[i, j]) % z of each block j, so band i XORs
    down the blocks rolled by -shift[i]."""
    rolled = np.empty_like(blocks)
    bands = []
    for band_shift in shift:
        roll_rows(blocks, -band_shift, rolled)
        bands.append(np.bitwise_xor.reduce(rolled, axis=0))
    return np.concatenate(bands)


def bp_decode(shift: np.ndarray, n: int, synd: np.ndarray, llr0: float,
              max_iter: int, norm: float) -> tuple[np.ndarray, bool, int]:
    """Layered normalized min-sum syndrome decoding on the quasi-cyclic code
    of ``n`` variables and shifts ``shift`` (3, nb), laid out as
    ``band_syndrome`` says, toward the (3 z,) syndrome bits ``synd``.
    Returns (error_pattern, converged, iterations_used).

    Posteriors (nb, z) and check messages (3, nb, z) are float32. Each
    iteration updates band 0, 1, then 2 (Hocevar, SiPS 2004): the
    posteriors, rolled into the band's check order, less its old messages
    are its checks' inputs; a check sends each slot ``norm`` times the least
    magnitude among its other inputs, signed by their XOR and its syndrome
    bit; the new messages are added back. The hard decision is then tested
    against the syndrome.

    Padding variables hold +inf, so they never set a minimum or a sign and
    decide 0. A check with one real slot would send it inf, and inf - inf
    is NaN; only the last block pads, and ``recon``'s codes have nb >= 4
    (``IrParams`` refuses ``syndrome_bits >= n_raw``).
    """
    nb, z = shift.shape[1], synd.size // 3
    synd = synd.astype(bool)
    if not synd.any():
        return np.zeros(n, dtype=np.uint8), True, 0

    post = np.full((nb, z), llr0, dtype=np.float32)
    post.ravel()[n:] = np.inf
    c2v = np.zeros((3, nb, z), dtype=np.float32)
    v2c = np.empty((nb, z), dtype=np.float32)
    converged, it = False, 0
    while not converged and it < max_iter:
        it += 1
        for i, band_synd in enumerate(synd.reshape(3, z)):
            roll_rows(post, -shift[i], v2c)
            v2c -= c2v[i]
            neg = v2c < 0.0
            neg ^= np.bitwise_xor.reduce(neg, axis=0) ^ band_synd
            mag = np.abs(v2c)
            min1, min2 = mag[0].copy(), np.full(z, np.inf, np.float32)
            for row in mag[1:]:  # the two least magnitudes
                np.minimum(min2, np.maximum(min1, row), out=min2)
                np.minimum(min1, row, out=min1)
            msg = norm * np.where(mag == min1, min2, min1)
            c2v[i] = np.where(neg, -msg, msg)
            v2c += c2v[i]
            roll_rows(v2c, shift[i], post)
        converged = np.array_equal(band_syndrome(post < 0.0, shift), synd)

    return (post.ravel()[:n] < 0.0).astype(np.uint8), converged, it
