"""Numpy implementations of the hot kernels: the partial Fisher-Yates shuffle
(whole-array passes, no loop over the swaps; its result is that of the
sequential swaps) and the normalized min-sum syndrome decoder of a
quasi-cyclic code, read from its circulant shifts alone (each check-side
step is an elementwise pass over contiguous rows, each variable-side step
rolls them; its output is that of the edge-indexed decoder, bit for bit).

Callers reach these through the module (``_kernels.bp_decode``) at call time,
so an instrumenting wrapper set on the module attribute sees every call.
"""

from __future__ import annotations

import numpy as np

_INF = np.inf


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


def bp_decode(shift: np.ndarray, n: int, synd: np.ndarray, llr0: float,
              max_iter: int, norm: float,
              clamp: float) -> tuple[np.ndarray, bool, int]:
    """Normalized min-sum syndrome decoding on the quasi-cyclic code of
    ``n`` variables and circulant shifts ``shift`` (3, nb), laid out as
    ``recon._code_structure`` says; synd: (3 z,) target syndrome bits.
    Returns (error_pattern, converged, iterations_used).

    Messages live in a check-slot-major (nb, 3 z) array, so each check update
    is a pass over nb contiguous rows. It keeps running minima ``min1 <=
    min2`` of the magnitudes and sends ``norm * min2`` to a slot whose
    magnitude equals ``min1``, else ``norm * min1``: exact on ties, where
    ``min2 == min1``. The sign, the XOR of the check's negative inputs, its
    syndrome bit and the slot's own sign, is set after the product, which
    gives the same number as the +-1 factors applied first. Band i's slot
    rows rolled by +shift[i] line up with the variables (j * z + t at row j,
    column t), and rolled back by -shift[i] with its slots again. A
    variable's total is ``llr0 + ((c0 + c1) + c2)`` over its bands in order,
    as ``sum(axis=1)`` adds its edges. So every message and decision is that
    of the plain edge-indexed decoder, bit for bit.
    """
    nb, m = shift.shape[1], synd.size
    z = m // 3
    synd = synd.astype(bool)
    if not synd.any():
        return np.zeros(n, dtype=np.uint8), True, 0

    # padding slots, all in the last block, carry an infinite magnitude, so
    # they never set a minimum or a sign; their outgoing message is never read
    pad = ((np.arange(z) + shift[:, -1:]) % z >= n - (nb - 1) * z).ravel()
    v2c = np.full((nb, m), min(llr0, clamp))
    v2c[-1, pad] = _INF
    neg = np.empty((nb, m), dtype=bool)
    at_min = np.empty((nb, m), dtype=bool)
    mag = np.empty((nb, m))
    c2v = np.empty((nb, m))
    c2v_bits = c2v.view(np.uint64)
    min1, min2, tmp, low = np.empty(m), np.empty(m), np.empty(m), np.empty(m)
    tmp_bits, low_bits = tmp.view(np.uint64), low.view(np.uint64)
    tot = np.zeros((nb, z))  # the decision when max_iter is 0
    at_slot = np.empty((nb, m))
    bands = [slice(i * z, (i + 1) * z) for i in range(3)]
    converged, it = False, 0
    for it in range(1, max_iter + 1):
        # check update: the sign sent out of a slot is the XOR of its own
        # sign, every sign in its check and the check's syndrome bit
        np.less(v2c, 0.0, out=neg)
        neg ^= np.bitwise_xor.reduce(neg, axis=0) ^ synd
        np.abs(v2c, out=mag)
        min1[:] = mag[0]
        min2.fill(_INF)
        for row in mag[1:]:
            np.maximum(min1, row, out=tmp)
            np.minimum(min2, tmp, out=min2)
            np.minimum(min1, row, out=min1)
        # c2v = where(mag == min1, norm * min2, norm * min1), written into
        # the preallocated c2v as a select on bit patterns:
        # low ^ (mag == min1) * (low ^ high), low = norm * min1 and
        # high = norm * min2 (in tmp)
        np.multiply(norm, min1, out=low)
        np.multiply(norm, min2, out=tmp)
        np.bitwise_xor(low_bits, tmp_bits, out=tmp_bits)
        np.equal(mag, min1, out=at_min)
        np.multiply(at_min, tmp_bits, out=c2v_bits)
        c2v_bits ^= low_bits
        # negate by setting the sign bit (every magnitude is >= +0), built in
        # the spent magnitude buffer
        sign_bits = mag.view(np.uint64)
        np.left_shift(neg, np.uint64(63), out=sign_bits)
        c2v_bits |= sign_bits

        # variable update, in at_slot's band columns, then the hard decision's
        # syndrome; padding variables hold 0, never a 1
        for i, band in enumerate(bands):
            roll_rows(c2v[:, band], shift[i], at_slot[:, band])
        np.add(at_slot[:, bands[0]], at_slot[:, bands[1]], out=tot)
        tot += at_slot[:, bands[2]]
        tot += llr0  # added last, the same number as llr0 + sum
        tot.ravel()[n:] = 0.0
        for i, band in enumerate(bands):
            roll_rows(tot, -shift[i], at_slot[:, band])
        np.less(at_slot, 0.0, out=neg)
        converged = np.array_equal(np.bitwise_xor.reduce(neg, axis=0), synd)
        if converged or it == max_iter:
            break
        np.subtract(at_slot, c2v, out=v2c)
        np.clip(v2c, -clamp, clamp, out=v2c)
        v2c[-1, pad] = _INF

    return (tot.ravel()[:n] < 0.0).astype(np.uint8), converged, it
