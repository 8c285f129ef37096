"""Numpy implementations of the hot kernels: the partial Fisher-Yates shuffle
(whole-array passes, no loop over the swaps; its result is that of the
sequential swaps) and the normalized min-sum syndrome decoder.

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


def bp_decode(chk_rows: np.ndarray, var_of_edge: np.ndarray, var_edges: np.ndarray,
              synd: np.ndarray, llr0: float, max_iter: int, norm: float,
              clamp: float) -> tuple[np.ndarray, bool, int]:
    """Normalized min-sum syndrome decoding on a (3, d_c)-regular-ish code.

    chk_rows: (m, dmax) edge ids per check, padded with E (the sentinel edge).
    var_of_edge: (E+1,) variable id per edge, sentinel maps to variable N.
    var_edges: (N, 3) edge ids per variable (every variable has degree 3).
    synd: (m,) target syndrome bits.
    Returns (error_pattern, converged, iterations_used).
    """
    m, dmax = chk_rows.shape
    n = var_edges.shape[0]
    e_tot = var_of_edge.size - 1

    synd_sign = 1.0 - 2.0 * synd.astype(np.float64)
    rows = np.arange(m)
    cols = np.arange(dmax)

    v2c = np.full(e_tot + 1, min(llr0, clamp), dtype=np.float64)
    v2c[e_tot] = _INF
    c2v = np.zeros(e_tot + 1, dtype=np.float64)

    hard = np.zeros(n + 1, dtype=np.uint8)
    flat_var = var_edges.ravel()

    for it in range(max_iter + 1):
        parity = np.bitwise_xor.reduce(hard[var_of_edge[chk_rows]], axis=1)
        if np.array_equal(parity, synd):
            return hard[:n].copy(), True, it
        if it == max_iter:
            break

        # check node update (two-minimum trick)
        msgs = v2c[chk_rows]
        sgn = np.where(msgs < 0.0, -1.0, 1.0)
        row_sign = synd_sign * sgn.prod(axis=1)
        mag = np.abs(msgs)
        i1 = np.argmin(mag, axis=1)
        min1 = mag[rows, i1]
        mag[rows, i1] = _INF
        min2 = mag.min(axis=1)
        out_mag = np.where(cols[None, :] == i1[:, None], min2[:, None], min1[:, None])
        vals = norm * row_sign[:, None] * sgn * out_mag
        c2v[chk_rows.ravel()] = vals.ravel()
        c2v[e_tot] = 0.0

        # variable node update
        inc = c2v[var_edges]
        tot = llr0 + inc.sum(axis=1)
        v2c[flat_var] = np.clip(tot[:, None] - inc, -clamp, clamp).ravel()
        v2c[e_tot] = _INF
        hard[:n] = tot < 0.0

    return hard[:n].copy(), False, max_iter
