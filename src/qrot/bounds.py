"""Closed-form finite-key security bounds.

Computes the correctness failure probability, the dishonest-receiver bound
(theoretical and experimental variants), and their sum, itemized per
component. Entropy is in bits (log base 2); the KL divergence in the tail
exponent uses natural log, keeping each exponent dimensionally consistent.
"""

from __future__ import annotations

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


def _check_point(alpha: float, delta1: float, delta2: float, p_max: float,
                 f: float, p_multi: float, eps_ir: float, eps_bind: float) -> None:
    """Refuse a parameter point at which the bound is not defined."""
    fin = math.isfinite
    if not (fin(alpha) and fin(delta1) and fin(delta2) and fin(p_max)
            and fin(f) and fin(p_multi) and fin(eps_ir) and fin(eps_bind)):
        raise BoundsError("parameters must be finite")
    if not 0.0 < alpha < 1.0:
        raise BoundsError("test ratio must be in (0, 1)")
    if delta1 < 0.0 or delta2 < 0.0 or delta2 >= 0.5:
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
        _check_point(self.alpha, self.delta1, self.delta2, self.p_max, self.f,
                     self.p_multi, self.eps_ir, self.eps_bind)
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
    and the experimental flag. Building one validates the point and computes
    what does not depend on N0 or n: the rate bracket (charged the
    multi-photon leak when ``experimental``), the KL rate, the block-size
    coefficients, the squashed ``eps_bind`` and ``2 * eps_ir``. ``report``
    and ``total`` then take (N0, n) and do only the floors, exponents and
    squashes, so the optimizer probes many N0 at one point for the cost of
    those alone.
    """

    __slots__ = ("alpha", "check_frac", "raw_frac", "stat_coef", "d1sq",
                 "kl_rate", "bracket", "eps_bind", "bind_uf", "ir_floor",
                 "experimental")

    def __init__(self, alpha: float, delta1: float, delta2: float, p_max: float,
                 f: float = 1.0, p_multi: float = 0.0,
                 eps_ir: float = _EPS_DEFAULT, eps_bind: float = _EPS_DEFAULT,
                 experimental: bool = False):
        _check_point(alpha, delta1, delta2, p_max, f, p_multi, eps_ir, eps_bind)
        bracket = rate_bracket(p_max, f, delta1, delta2)
        if bracket == -math.inf:
            raise BoundsError("rate bracket undefined: effective error rate >= 1/2")
        if experimental:
            bracket -= p_multi / (0.5 - delta2)
        self.bracket = bracket
        # block sizes are floor(coefficient * N0); each coefficient is the
        # leading product of the closed form, so every float rounds as there
        self.alpha = alpha
        self.check_frac = (0.5 - delta2) * alpha
        self.raw_frac = (0.5 - delta2) * (1.0 - alpha)
        self.stat_coef = -0.5 * (1.0 - alpha) ** 2
        self.d1sq = delta1 * delta1
        self.kl_rate = -binary_kl(0.5 - delta2, 0.5) * (1.0 - alpha)
        self.eps_bind, self.bind_uf = _squash(eps_bind)
        self.ir_floor = 2.0 * eps_ir
        self.experimental = experimental

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
