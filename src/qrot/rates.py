"""Key-rate and resource analysis.

Largest secure output length, critical error rate, critical signal count with
tolerance optimization, and deterministic CSV emission for the rate curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter

from qrot import bounds
from qrot.bounds import BoundsError, ProtocolParams


class RatesError(ValueError):
    pass


def _eps_for_n(point: bounds.PointBound, n0: int, n: int) -> float:
    try:
        return point.total(n0, n)
    except BoundsError:
        return math.inf


def n_max(params: ProtocolParams, eps_target: float) -> int:
    """Largest n with total security within eps_target; 0 if none."""
    hi = params.n_raw - 1
    if hi < 1:
        return 0
    try:
        point = bounds.PointBound.of(params)
    except BoundsError:  # no output length is secure here
        return 0
    n0 = params.n0
    if _eps_for_n(point, n0, 1) > eps_target:
        return 0
    lo = 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if _eps_for_n(point, n0, mid) <= eps_target:
            lo = mid
        else:
            hi = mid - 1
    return lo


def key_rate(params: ProtocolParams, eps_target: float) -> float:
    return n_max(params, eps_target) / params.n0


def asymptotic_key_rate(p_max: float, f: float, alpha: float = 0.0,
                        delta1: float = 0.0, delta2: float = 0.0) -> float:
    """n_max / N0 in the large-N0 limit: the raw fraction times the bracket."""
    bracket = bounds.rate_bracket(p_max, f, delta1, delta2)
    return max(0.0, (0.5 - delta2) * (1.0 - alpha) * bracket)


def p_crit(f: float) -> float:
    """Error rate at which the asymptotic key rate hits zero (bisection)."""
    if not 1.0 <= f < math.inf:  # NaN fails both comparisons
        raise RatesError("IR efficiency must be finite and at least 1, "
                         "the Shannon limit")
    lo, hi = 0.0, 0.25 - 1e-9

    def g(p: float) -> float:
        return bounds.rate_bracket(p, f)

    if g(lo) <= 0.0:
        return 0.0
    while g(hi) > 0.0:
        hi = min(0.5 - 1e-9, hi * 1.5)
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class OptimizeResult:
    n_crit: int
    alpha: float
    delta1: float
    delta2: float
    eps_achieved: float
    n_target: int
    feasible: bool


_N0_CAP = 10 ** 11


def _min_n0_at(point: bounds.PointBound | None, eps_target: float,
               n_target: int, cap: int, floor: int | float) -> int | None:
    """Smallest N0 at which ``point`` makes an n_target-bit key feasible;
    None if over ``cap``, or if ``point`` is None (the bound is undefined).
    ``floor`` is ``point.n0_floor`` at this target: no N0 below it is
    feasible.

    N0 is sought from ``4 * n_target + 8`` up to the largest
    ``(4 * n_target + 8) * 2**k`` within ``_N0_CAP`` (the range of a doubling
    search from there), so ``cap`` is clamped to that first. Feasibility is
    monotone in N0, so a point infeasible at the cap, which cannot beat the
    best N0 so far, costs one probe; otherwise ``lo``, the larger of the
    start and ``floor``, is probed, then ``[lo, cap]`` is bisected. A point
    whose rate bracket is not positive, or whose floor is above the cap,
    costs no probe.

    Each shortcut is exact for ``eps_target <= 1/2``, which ``n_crit``
    enforces. With a positive rate bracket, ``PointBound.total`` falls or
    stays level as N0 grows: floors of N0 enter every exponent with a
    negative coefficient, ``exp``, ``2**`` and the squashes are
    non-decreasing, the raw-length refusal covers only the smallest N0, and
    rounding can lift the statistical term only where it exceeds 1.4. With a
    non-positive bracket, the leftover-hash term alone is
    ``0.5 * 2**(0.5 * (n - n_raw * bracket)) >= 2**-0.5 > 1/2`` at every N0.

    Starting at ``floor`` is exact too. The floor inverts single terms of
    the total, each a lower bound of it, and its 1e-9 shrink moves that
    term's exponent by 1e-9 of a level of at least ln(2), far more than the
    few ulps ``_terms`` and the inversion round by. At ``eps_target >=
    bounds._UNDERFLOW`` no term above the target is flushed to zero, and the
    squash's cap at 2 lies above every target; below that, the floor is 0.
    """
    if point is None or point.bracket <= 0.0:
        return None
    lo = 4 * n_target + 8
    if lo > min(cap, _N0_CAP):  # the first probe is the smallest possible answer
        return None
    hi = min(cap, lo << ((_N0_CAP // lo).bit_length() - 1))
    if floor > hi:
        return None
    lo = max(lo, floor)
    total = point.total

    def feasible(n0: int) -> bool:
        try:  # n_raw <= n_target raises
            return total(n0, n_target) <= eps_target
        except BoundsError:
            return False

    if not feasible(hi):
        return None
    if feasible(lo):
        return lo
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


def n_crit(eps_target: float, p_max: float, f: float, p_multi: float,
           n_target: int, grid: tuple[int, int, int] = (8, 10, 6)) -> OptimizeResult:
    """Minimal signal count over a (alpha, delta1, delta2) grid.

    Coarse grid pass followed by a 10x finer local refinement around the
    best point; ties broken lexicographically on (N0, alpha, delta1, delta2)
    so the search is deterministic. The multi-photon leak is charged
    whenever p_multi > 0. Each pass takes its points from
    ``bounds.PointBound.grid``, which computes every N0-free part of the
    bound once per axis value or pair that fixes it.

    Branch and bound, best first: each pass ranks its points with a
    positive rate bracket by their N0 floor (``PointBound.n0_floor``; no
    smaller N0 is feasible there) and searches them in that order, each
    capped at the best N0 so far (the fine pass starts from the coarse
    best). It stops at the first floor strictly above the best N0, as a
    floor equal to it may still tie and win on (alpha, delta1, delta2). A
    point infeasible at its cap could only return a strictly larger N0, so
    it costs one probe. The result is that of searching every point to the
    end, to the bit. Input outside this contract (see ``_min_n0_at``) raises
    RatesError: ``n_target < 1``, ``eps_target`` outside (0, 1/2] or NaN,
    ``p_max`` outside [0, 1/2) or NaN, a ``p_multi`` that is negative or not
    finite, an ``f`` that ``p_crit`` refuses, and a ``grid`` that is not
    three integer sizes of at least 2.
    """
    if n_target < 1:
        raise RatesError("output length must be at least 1 bit")
    if not 0.0 < eps_target <= 0.5:
        raise RatesError("target bound must be in (0, 1/2]")
    if not 0.0 <= p_max < 0.5:
        raise RatesError("max error rate must be in [0, 1/2)")
    if not 0.0 <= p_multi < math.inf:
        raise RatesError("multi-photon rate must be finite and non-negative")
    if len(grid) != 3 or not all(isinstance(v, int) and v >= 2 for v in grid):
        raise RatesError(f"grid {grid} is not three integer sizes of at least 2")
    gap = p_crit(f) - p_max
    if gap <= 0.0:
        return OptimizeResult(0, 0.0, 0.0, 0.0, math.inf, n_target, False)

    na, n1, n2 = grid
    alphas = [0.05 + (0.5 - 0.05) * i / (na - 1) for i in range(na)]
    d1_hi = max(2e-4, 0.9 * gap)
    d1s = [1e-4 + (d1_hi - 1e-4) * i / (n1 - 1) for i in range(n1)]
    d2s = [1e-4 + (0.05 - 1e-4) * i / (n2 - 1) for i in range(n2)]
    experimental = p_multi > 0.0

    logs = bounds.PointBound.floor_logs(eps_target, n_target)

    def search(axes, best=None):
        ranked = []  # the points that may still win, by floor
        for a, d1, d2, point in bounds.PointBound.grid(
                *axes, p_max, f, p_multi, experimental=experimental):
            if point is not None and point.bracket > 0.0:
                floor = point.n0_floor(logs)
                if best is None or floor <= best[0]:
                    ranked.append((floor, a, d1, d2, point))
        ranked.sort(key=itemgetter(0))
        for floor, a, d1, d2, point in ranked:
            if best is not None and floor > best[0]:  # so is every later floor
                break
            r = _min_n0_at(point, eps_target, n_target,
                           best[0] if best else _N0_CAP, floor)
            if r is None:
                continue
            key = (r, a, d1, d2)
            if best is None or key < best:
                best = key
        return best

    best = search((alphas, d1s, d2s))
    if best is None:
        return OptimizeResult(0, 0.0, 0.0, 0.0, math.inf, n_target, False)

    def refine_axis(values, center, lo_cap, hi_cap):
        step = (values[-1] - values[0]) / (len(values) - 1) if len(values) > 1 else 0.0
        if step == 0.0:
            return [center]
        lo = max(lo_cap, center - step)
        hi = min(hi_cap, center + step)
        return [lo + (hi - lo) * i / 9 for i in range(10)]

    _, a0, d10, d20 = best
    best = search((refine_axis(alphas, a0, 0.02, 0.5),
                   refine_axis(d1s, d10, 1e-5, gap),
                   refine_axis(d2s, d20, 1e-5, 0.08)), best)

    n0, a, d1, d2 = best
    p = ProtocolParams(n0=n0, alpha=a, delta1=d1, delta2=d2, p_max=p_max,
                       n=n_target, f=f, p_multi=p_multi)
    achieved = bounds.eps_max(p, experimental).eps_max
    return OptimizeResult(n0, a, d1, d2, achieved, n_target, True)


# ---------------------------------------------------------------------------
# figure CSV emission
# ---------------------------------------------------------------------------

FIG2_ORANGE = {"alpha": 0.35, "delta1": 0.01, "delta2": 0.025, "f": 1.2}
FIG3_PARAMS = {"alpha": 0.35, "delta1": 9.20e-3, "delta2": 3.00e-3,
               "p_max": 0.01, "f": 1.2}


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def emit_fig2(points: int = 300) -> list[str]:
    """Asymptotic key rate vs error rate: ideal-parameter and typical curves."""
    rows = ["p_max,R_key_ideal,R_key_typical"]
    for i in range(points + 1):
        p = 0.03 * i / points
        blue = asymptotic_key_rate(p, f=1.0)
        orange = asymptotic_key_rate(p, FIG2_ORANGE["f"], FIG2_ORANGE["alpha"],
                                     FIG2_ORANGE["delta1"], FIG2_ORANGE["delta2"])
        rows.append(f"{_fmt(p)},{_fmt(blue)},{_fmt(orange)}")
    return rows


def fig3_key_rate(n0: int, eps_target: float) -> float:
    cfg = FIG3_PARAMS
    try:
        p = ProtocolParams(n0=n0, alpha=cfg["alpha"], delta1=cfg["delta1"],
                           delta2=cfg["delta2"], p_max=cfg["p_max"], n=1,
                           f=cfg["f"])
    except BoundsError:
        return 0.0
    if p.n_raw <= 1:
        return 0.0
    return key_rate(p, eps_target)


def emit_fig3(eps_targets=(1e-3, 1e-5, 1e-7, 1e-9),
              n0_grid=None) -> list[str]:
    """Key rate vs signal count for several security levels."""
    if n0_grid is None:
        n0_grid = [int(10 ** (4 + i / 8)) for i in range(41)]
    head = "N0," + ",".join(f"R_key_eps{e:g}" for e in eps_targets)
    rows = [head]
    for n0 in n0_grid:
        vals = [fig3_key_rate(n0, e) for e in eps_targets]
        rows.append(",".join([_fmt(n0)] + [_fmt(v) for v in vals]))
    return rows


def emit_fig4(p_max: float = 0.01, f: float = 1.2, n_target: int = 128,
              exponents=range(3, 10)) -> list[str]:
    """Optimized critical signal count vs security level."""
    rows = ["eps_max,N_crit"]
    for e in exponents:
        res = n_crit(10.0 ** -e, p_max, f, p_multi=0.0, n_target=n_target,
                     grid=(5, 6, 4))
        rows.append(f"{_fmt(10.0 ** -e)},{res.n_crit if res.feasible else 0}")
    return rows


def emit_figure(selector: str, **kwargs) -> list[str]:
    if selector == "fig2":
        return emit_fig2(**kwargs)
    if selector == "fig3":
        return emit_fig3(**kwargs)
    if selector == "fig4":
        return emit_fig4(**kwargs)
    raise RatesError(f"unknown figure {selector!r}")
