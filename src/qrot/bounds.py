"""Closed-form finite-key security bounds.

Computes the correctness failure probability, the dishonest-receiver bound
(theoretical and experimental variants), and their sum, itemized per
component. Entropy is in bits (log base 2); the KL divergence in the tail
exponent uses natural log, keeping each exponent dimensionally consistent.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

_COMPONENT_CAP = 2.0
_UNDERFLOW = 1e-300
_EPS_DEFAULT = 2.0 ** -32


class BoundsError(ValueError):
    pass


def binary_entropy(p: float) -> float:
    """Binary entropy in bits, with h(0) = h(1) = 0."""
    if not 0.0 <= p <= 1.0:
        raise BoundsError(f"entropy argument {p} outside [0, 1]")
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def binary_kl(q: float, p: float) -> float:
    """KL divergence between Bernoulli(q) and Bernoulli(p) in nats."""
    if not 0.0 < p < 1.0:
        raise BoundsError("reference probability must be in (0, 1)")
    if not 0.0 <= q <= 1.0:
        raise BoundsError("probability outside [0, 1]")
    if q == 0.0:
        return -math.log(1.0 - p)
    if q == 1.0:
        return -math.log(p)
    return q * math.log(q / p) + (1.0 - q) * math.log((1.0 - q) / (1.0 - p))


def _check_grid(alphas, delta1s, delta2s, p_max: float, f: float,
                p_multi: float, eps_ir: float, eps_bind: float) -> None:
    """Refuse axis values or shared inputs at which the bound is not defined."""
    if not all(map(math.isfinite, itertools.chain(
            alphas, delta1s, delta2s, (p_max, f, p_multi, eps_ir, eps_bind)))):
        raise BoundsError("parameters must be finite")
    if not all(0.0 < a < 1.0 for a in alphas):
        raise BoundsError("test ratio must be in (0, 1)")
    if not (all(d >= 0.0 for d in delta1s) and all(0.0 <= d < 0.5 for d in delta2s)):
        raise BoundsError("bad statistical tolerances")
    if not 0.0 <= p_max < 0.5:
        raise BoundsError("max error rate must be in [0, 1/2)")
    if f < 1.0:
        raise BoundsError("IR efficiency below the Shannon limit")
    if p_multi < 0.0:
        raise BoundsError("multi-photon ratio must be non-negative")


@dataclass(frozen=True)
class ProtocolParams:
    """Full protocol parameter record with derived block sizes.

    Derived sizes are floored, the conservative direction for the check and
    raw-string constraints.
    """

    n0: int
    alpha: float
    delta1: float
    delta2: float
    p_max: float
    n: int
    f: float = 1.0
    p_multi: float = 0.0
    eps_ir: float = _EPS_DEFAULT
    eps_bind: float = _EPS_DEFAULT

    def __post_init__(self):
        _check_grid((self.alpha,), (self.delta1,), (self.delta2,), self.p_max,
                    self.f, self.p_multi, self.eps_ir, self.eps_bind)
        if self.n0 < 1:
            raise BoundsError("signal count N0 must be at least 1")
        if self.n < 1:
            raise BoundsError("output length must be at least 1 bit")

    @property
    def n_test(self) -> int:
        return math.floor(self.alpha * self.n0)

    @property
    def n_check(self) -> int:
        return math.floor((0.5 - self.delta2) * self.alpha * self.n0)

    @property
    def n_raw(self) -> int:
        return math.floor((0.5 - self.delta2) * (1.0 - self.alpha) * self.n0)


def rate_bracket(p_max: float, f: float, delta1: float = 0.0,
                 delta2: float = 0.0) -> float:
    """Per-raw-bit entropy budget after the reconciliation leak and the
    tolerances; -inf where the effective error rate reaches 1/2."""
    q = (p_max + delta1) / (0.5 - delta2)
    if q >= 0.5:
        return -math.inf
    return (0.5 - 2.0 * delta2 / (1.0 - 2.0 * delta2) - binary_entropy(q)
            - f * binary_entropy(p_max + delta1))


def _squash(x: float, flushed: bool = False) -> tuple[float, bool]:
    """Cap at the vacuous bound 2 and flush denormal-range values to zero;
    the flag says whether this, or an earlier ``flushed`` step, dropped x."""
    if x < _UNDERFLOW:
        return (0.0, flushed or x > 0.0)
    return (x if x <= _COMPONENT_CAP else _COMPONENT_CAP, False)


@dataclass(frozen=True)
class BoundReport:
    eps_correct: float
    eps_stat: float
    eps_kl: float
    eps_bind: float
    eps_lhl: float
    experimental: bool
    underflowed: tuple[str, ...] = field(default=())

    @property
    def eps_receiver(self) -> float:
        return self.eps_stat + self.eps_kl + self.eps_bind + self.eps_lhl

    @property
    def eps_max(self) -> float:
        return self.eps_correct + self.eps_receiver

    def to_dict(self) -> dict:
        return {
            "eps_correct": self.eps_correct,
            "eps_stat": self.eps_stat,
            "eps_kl": self.eps_kl,
            "eps_bind": self.eps_bind,
            "eps_lhl": self.eps_lhl,
            "eps_receiver": self.eps_receiver,
            "eps_max": self.eps_max,
            "experimental": self.experimental,
            "underflowed": list(self.underflowed),
        }


class PointBound:
    """``eps_max`` at one parameter point, for any signal count and output
    length.

    A point is (alpha, delta1, delta2, p_max, f, p_multi, eps_ir, eps_bind)
    and the experimental flag. It holds what does not depend on N0 or n: the
    rate bracket (charged the multi-photon leak when ``experimental``), the
    KL rate, the block-size coefficients, the squashed ``eps_bind`` and
    ``2 * eps_ir``. ``report`` and ``total`` then take (N0, n) and do only the
    floors, exponents and squashes, so the optimizer probes many N0 at one
    point for the cost of those alone, and ``n0_floor`` bounds N0 from below
    from the same coefficients without a probe.

    ``PointBound(alpha, delta1, delta2, p_max, ...)`` is the 1x1x1 case of
    ``grid``, raising BoundsError where the grid yields None.
    """

    __slots__ = ("alpha", "check_frac", "raw_frac", "stat_coef", "d1sq",
                 "kl_rate", "bracket", "eps_bind", "bind_uf", "ir_floor",
                 "experimental")

    def __new__(cls, alpha: float, delta1: float, delta2: float, p_max: float,
                f: float = 1.0, p_multi: float = 0.0,
                eps_ir: float = _EPS_DEFAULT, eps_bind: float = _EPS_DEFAULT,
                experimental: bool = False) -> "PointBound":
        [(_, _, _, point)] = cls.grid((alpha,), (delta1,), (delta2,), p_max, f,
                                      p_multi, eps_ir, eps_bind,
                                      experimental=experimental)
        if point is None:
            raise BoundsError("rate bracket undefined: effective error rate >= 1/2")
        return point

    @classmethod
    def grid(cls, alphas, delta1s, delta2s, p_max: float, f: float = 1.0,
             p_multi: float = 0.0, eps_ir: float = _EPS_DEFAULT,
             eps_bind: float = _EPS_DEFAULT, *, experimental: bool = False):
        """Yield ``(alpha, delta1, delta2, point)`` over the three axes
        (sequences), alpha outermost and delta2 innermost. ``point`` is None
        where the rate bracket is undefined (the effective error rate reaches
        1/2); no N0 is feasible there.

        The axes and shared inputs are checked once, before the first yield,
        and any bad value raises BoundsError. Each N0-free part is computed on
        the axes that fix it: the bracket, with its multi-photon charge, once
        per (delta1, delta2); the KL rate and block-size coefficients once
        per (alpha, delta2); ``eps_bind``'s squash and ``2 * eps_ir`` once.
        """
        _check_grid(alphas, delta1s, delta2s, p_max, f, p_multi, eps_ir, eps_bind)
        bind, bind_uf = _squash(eps_bind)
        ir_floor = 2.0 * eps_ir
        halves = [0.5 - d2 for d2 in delta2s]
        neg_kls = [-binary_kl(half, 0.5) for half in halves]

        def bracket(d1, d2, half):  # -inf stays -inf under the charge
            b = rate_bracket(p_max, f, d1, d2)
            return b - p_multi / half if experimental else b

        brackets = [[bracket(d1, d2, half) for d2, half in zip(delta2s, halves)]
                    for d1 in delta1s]
        for alpha in alphas:
            rest = 1.0 - alpha
            stat_coef = -0.5 * rest ** 2
            # block sizes are floor(coefficient * N0); each coefficient is the
            # leading product of the closed form, so every float rounds as there
            cols = [(half * alpha, half * rest, neg_kl * rest)
                    for half, neg_kl in zip(halves, neg_kls)]
            for d1, row in zip(delta1s, brackets):
                d1sq = d1 * d1
                for d2, b, (check_frac, raw_frac, kl_rate) in zip(delta2s, row, cols):
                    if b == -math.inf:
                        yield alpha, d1, d2, None
                        continue
                    point = object.__new__(cls)
                    point.alpha, point.stat_coef, point.d1sq = alpha, stat_coef, d1sq
                    point.check_frac, point.raw_frac = check_frac, raw_frac
                    point.kl_rate, point.bracket = kl_rate, b
                    point.eps_bind, point.bind_uf = bind, bind_uf
                    point.ir_floor, point.experimental = ir_floor, experimental
                    yield alpha, d1, d2, point

    @classmethod
    def of(cls, params: ProtocolParams, experimental: bool = False) -> "PointBound":
        return cls(params.alpha, params.delta1, params.delta2, params.p_max,
                   params.f, params.p_multi, params.eps_ir, params.eps_bind,
                   experimental)

    def _terms(self, n0: int, n: int) -> tuple:
        """(eps_correct, eps_stat, eps_kl, eps_lhl), each squashed, then
        their underflow flags in the same order.

        Statistical term, KL concentration term, the leftover-hash term with
        the entropy-rate bracket, and correctness, the honest-run failure
        probability 2^(-(N_raw-n)/2) + 2*eps_IR.
        """
        if n < 1:
            raise BoundsError("output length must be at least 1 bit")
        n_raw = math.floor(self.raw_frac * n0)
        if n_raw <= n:
            raise BoundsError("raw block not longer than the output")
        d1sq = self.d1sq
        e1 = self.stat_coef * math.floor(self.alpha * n0) * d1sq
        e2 = -0.5 * math.floor(self.check_frac * n0) * d1sq
        # log-space: sqrt(2) * sqrt(e^e1 + e^e2)
        big = max(e1, e2)
        if big < -1400:
            stat, stat_uf = 0.0, True
        else:
            stat, stat_uf = _squash(math.sqrt(2.0) * math.exp(0.5 * big) *
                                    math.sqrt(math.exp(e1 - big) + math.exp(e2 - big)))

        kl_exp = self.kl_rate * n0
        kl, kl_uf = (0.0, True) if kl_exp < -700 else _squash(math.exp(kl_exp))

        lhl_exp = 0.5 * (n - n_raw * self.bracket)
        if lhl_exp < -1070:
            lhl, lhl_uf = 0.0, True
        else:
            lhl, lhl_uf = _squash(math.inf if lhl_exp > 64 else 0.5 * 2.0 ** lhl_exp)

        ec_exp = -0.5 * (n_raw - n)
        ec, ec_uf = _squash((0.0 if ec_exp < -1100 else 2.0 ** ec_exp) + self.ir_floor)
        return ec, stat, kl, lhl, ec_uf, stat_uf, kl_uf, lhl_uf

    @staticmethod
    def floor_logs(eps_target: float, n: int) -> tuple[float, float, float] | None:
        """What ``n0_floor`` sets against ``eps_target`` at output length n:
        the level each N0-dependent term of ``_terms`` must reach to fall to
        ``eps_target``, or None below ``_UNDERFLOW``, where a term flushed to
        zero no longer bounds the total from below. Valid for ``eps_target``
        up to 1/2, where each of the three is positive."""
        if eps_target < _UNDERFLOW:
            return None
        return (4.0 * math.log(math.sqrt(2.0) / eps_target), -math.log(eps_target),
                n - 2.0 * math.log2(2.0 * eps_target))

    def n0_floor(self, logs: tuple[float, float, float] | None) -> int | float:
        """An N0 below which ``total(N0, n) > eps_target``, for the ``logs``
        of ``floor_logs(eps_target, n)``; 0 where ``logs`` is None, and inf
        where a zero ``delta1``, KL rate or rate bracket keeps a term from
        falling that far (with a negative bracket no N0 is feasible, so any
        floor holds). Each term of ``total`` bounds it from below, so each
        inverted at ``eps`` bounds N0 from below:

        - statistical, at least ``sqrt(2) * exp(-floor(check_frac * N0) *
          delta1**2 / 4)``: N0 >= 4 * ln(sqrt(2)/eps) / (check_frac * delta1**2);
        - KL, ``exp(kl_rate * N0)``: N0 >= ln(eps) / kl_rate;
        - leftover hash, ``0.5 * 2**(0.5 * (n - floor(raw_frac * N0) *
          bracket))``: N0 >= (n - 2 * log2(2 * eps)) / (raw_frac * bracket).

        The largest is shrunk by 1e-9 of itself, less one, for rounding
        (``rates._min_n0_at`` argues the margin).
        """
        if logs is None:
            return 0
        stat, kl, lhl = logs
        try:
            x = max(stat / (self.check_frac * self.d1sq), kl / -self.kl_rate,
                    lhl / (self.raw_frac * self.bracket))
        except ZeroDivisionError:
            return math.inf
        return math.floor(x * (1.0 - 1e-9)) - 1 if x < math.inf else math.inf

    def total(self, n0: int, n: int) -> float:
        """``report(n0, n).eps_max``, to the bit, without the report."""
        ec, stat, kl, lhl = self._terms(n0, n)[:4]
        return ec + (stat + kl + self.eps_bind + lhl)

    def report(self, n0: int, n: int) -> "BoundReport":
        ec, stat, kl, lhl, ec_uf, stat_uf, kl_uf, lhl_uf = self._terms(n0, n)
        underflowed = tuple(name for name, hit in (
            ("eps_stat", stat_uf), ("eps_kl", kl_uf), ("eps_bind", self.bind_uf),
            ("eps_lhl", lhl_uf), ("eps_correct", ec_uf)) if hit)
        return BoundReport(eps_correct=ec, eps_stat=stat, eps_kl=kl,
                           eps_bind=self.eps_bind, eps_lhl=lhl,
                           experimental=self.experimental, underflowed=underflowed)


def eps_max(params: ProtocolParams, experimental: bool = False) -> BoundReport:
    """Total security bound, itemized: correctness plus the dishonest-receiver
    components (statistical, KL concentration, commitment binding and
    leftover hash)."""
    return PointBound.of(params, experimental).report(params.n0, params.n)


TABLE1_PARAMS = ProtocolParams(
    n0=5_860_000, alpha=0.35, delta1=9.00e-3, delta2=3.00e-3,
    p_max=0.0114, n=128, f=1.64, p_multi=3.67e-3,
    eps_ir=2.0 ** -32, eps_bind=2.0 ** -32,
)
