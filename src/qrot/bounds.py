"""Closed-form finite-key security bounds.

Computes the correctness failure probability, the dishonest-receiver bound
(theoretical and experimental variants), and their sum, itemized per
component. Entropy is in bits (log base 2); the KL divergence in the tail
exponent uses natural log, keeping each exponent dimensionally consistent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

_COMPONENT_CAP = 2.0
_UNDERFLOW = 1e-300


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
    eps_ir: float = 2.0 ** -32
    eps_bind: float = 2.0 ** -32

    def __post_init__(self):
        # one call per field, no iterator: the optimizer builds one per probe
        fin = math.isfinite
        if not (fin(self.alpha) and fin(self.delta1) and fin(self.delta2)
                and fin(self.p_max) and fin(self.f) and fin(self.p_multi)
                and fin(self.eps_ir) and fin(self.eps_bind)):
            raise BoundsError("parameters must be finite")
        if self.n0 < 1:
            raise BoundsError("signal count N0 must be at least 1")
        if not 0.0 < self.alpha < 1.0:
            raise BoundsError("test ratio must be in (0, 1)")
        if self.delta1 < 0.0 or self.delta2 < 0.0 or self.delta2 >= 0.5:
            raise BoundsError("bad statistical tolerances")
        if not 0.0 <= self.p_max < 0.5:
            raise BoundsError("max error rate must be in [0, 1/2)")
        if self.f < 1.0:
            raise BoundsError("IR efficiency below the Shannon limit")
        if self.p_multi < 0.0:
            raise BoundsError("multi-photon ratio must be non-negative")
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

    def with_n(self, n: int) -> "ProtocolParams":
        return replace(self, n=n)


def rate_bracket(p_max: float, f: float, delta1: float = 0.0,
                 delta2: float = 0.0) -> float:
    """Per-raw-bit entropy budget after the reconciliation leak and the
    tolerances; -inf where the effective error rate reaches 1/2."""
    q = (p_max + delta1) / (0.5 - delta2)
    if q >= 0.5:
        return -math.inf
    return (0.5 - 2.0 * delta2 / (1.0 - 2.0 * delta2) - binary_entropy(q)
            - f * binary_entropy(p_max + delta1))


def entropy_rate_bracket(params: ProtocolParams, experimental: bool) -> float:
    """``rate_bracket`` at the parameter point.

    The experimental variant additionally charges the multi-photon leak.
    """
    bracket = rate_bracket(params.p_max, params.f, params.delta1, params.delta2)
    if bracket == -math.inf:
        raise BoundsError("rate bracket undefined: effective error rate >= 1/2")
    if experimental:
        bracket -= params.p_multi / (0.5 - params.delta2)
    return bracket


def _squash(x: float, flushed: bool = False) -> tuple[float, bool]:
    """Cap at the vacuous bound 2 and flush denormal-range values to zero;
    the flag says whether this, or an earlier ``flushed`` step, dropped x."""
    if x < _UNDERFLOW:
        return (0.0, flushed or x > 0.0)
    return (min(x, _COMPONENT_CAP), False)


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


def eps_max(params: ProtocolParams, experimental: bool = False) -> BoundReport:
    """Total security bound, itemized: correctness plus the dishonest-receiver
    components.

    Statistical term, KL concentration term, commitment binding, and the
    leftover-hash term with the entropy-rate bracket. The block sizes are
    the ``ProtocolParams`` properties, computed once per call.
    """
    alpha, n0, delta2 = params.alpha, params.n0, params.delta2
    n_test = math.floor(alpha * n0)
    n_check = math.floor((0.5 - delta2) * alpha * n0)
    n_raw = math.floor((0.5 - delta2) * (1.0 - alpha) * n0)
    d1sq = params.delta1 * params.delta1
    e1 = -0.5 * (1.0 - alpha) ** 2 * n_test * d1sq
    e2 = -0.5 * n_check * d1sq
    # log-space: sqrt(2) * sqrt(e^e1 + e^e2)
    big = max(e1, e2)
    if big < -1400:
        stat = 0.0
        stat_uf = True
    else:
        stat = math.sqrt(2.0) * math.exp(0.5 * big) * \
            math.sqrt(math.exp(e1 - big) + math.exp(e2 - big))
        stat_uf = False

    kl_exp = -binary_kl(0.5 - delta2, 0.5) * (1.0 - alpha) * n0
    kl_uf = kl_exp < -700
    kl = 0.0 if kl_uf else math.exp(kl_exp)

    bracket = entropy_rate_bracket(params, experimental)
    lhl_exp = 0.5 * (params.n - n_raw * bracket)
    lhl_uf = lhl_exp < -1070
    lhl = math.inf if lhl_exp > 64 else (0.0 if lhl_uf else 0.5 * 2.0 ** lhl_exp)

    stat, stat_uf = _squash(stat, stat_uf)
    kl, kl_uf = _squash(kl, kl_uf)
    bind, bind_uf = _squash(params.eps_bind)
    lhl, lhl_uf = _squash(lhl, lhl_uf)
    # correctness, the honest-run failure probability: 2^(-(N_raw-n)/2) + 2*eps_IR
    if n_raw <= params.n:
        raise BoundsError("raw block not longer than the output")
    ec_exp = -0.5 * (n_raw - params.n)
    ec, ec_uf = _squash((0.0 if ec_exp < -1100 else 2.0 ** ec_exp) + 2.0 * params.eps_ir)
    underflowed = tuple(name for name, hit in (
        ("eps_stat", stat_uf), ("eps_kl", kl_uf), ("eps_bind", bind_uf),
        ("eps_lhl", lhl_uf), ("eps_correct", ec_uf)) if hit)
    return BoundReport(eps_correct=ec, eps_stat=stat, eps_kl=kl, eps_bind=bind,
                       eps_lhl=lhl, experimental=experimental,
                       underflowed=underflowed)


TABLE1_PARAMS = ProtocolParams(
    n0=5_860_000, alpha=0.35, delta1=9.00e-3, delta2=3.00e-3,
    p_max=0.0114, n=128, f=1.64, p_multi=3.67e-3,
    eps_ir=2.0 ** -32, eps_bind=2.0 ** -32,
)
