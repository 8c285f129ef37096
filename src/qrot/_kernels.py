"""Numpy implementations of the hot kernels: the partial Fisher-Yates shuffle
and the normalized min-sum syndrome decoder.

Callers reach these through the module (``_kernels.bp_decode``) at call time,
so an instrumenting wrapper set on the module attribute sees every call.
"""

from __future__ import annotations

import numpy as np

_INF = np.inf


def fisher_yates_partial(perm: np.ndarray, j: np.ndarray) -> None:
    """In-place partial Fisher-Yates: swap perm[i] <-> perm[j[i]] for each i."""
    p = memoryview(perm)  # element access as Python ints, no numpy scalars
    for i, t in enumerate(j.tolist()):
        p[i], p[t] = p[t], p[i]


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
