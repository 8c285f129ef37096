"""Parametric simulator of the quantum phase.

Plays the role of a trusted third party standing in for the entangled-photon
source and both measurement stations: matching bases agree up to the channel
error rate, mismatched bases give uniform outcomes. Losses, dark counts and
double-pair emissions are modelled as probabilities, not optics.

Detected multi-photon rounds are counted but not accepted; undetected ones
(taken to be one third of the detected count, the equal-efficiency
four-detector model) pass through flagged, for leak-accounting tests only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from qrot.bitcore import BitString, Rng

# P(detected | multi-photon round): undetected ~= detected / 3
_DETECT_GIVEN_MULTI = 0.75
# the largest value Rng.uniform returns
_UNIFORM_MAX = 1.0 - 2.0 ** -32


class QsimError(ValueError):
    pass


@dataclass(frozen=True)
class SourceModel:
    p_err: float = 0.0
    p_double: float = 0.0
    p_loss: float = 0.0
    p_dark: float = 0.0

    def __post_init__(self):
        for name in ("p_err", "p_double", "p_loss", "p_dark"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise QsimError(f"{name} outside [0, 1]")
        if self.p_err >= 0.5:
            raise QsimError("channel error rate must be below 1/2")
        for name in ("p_loss", "p_dark"):
            if getattr(self, name) > _UNIFORM_MAX:
                raise QsimError(f"{name} above 1 - 2**-32: no round is ever accepted")


def multi_photon_estimate(n_tot: int, n_multi: int) -> float:
    """Estimated ratio of accepted coincidences hiding a multi-photon event."""
    if n_tot <= 0:
        raise QsimError("no coincidences observed")
    if n_multi > n_tot:
        raise QsimError("more multi-photon events than coincidences")
    return n_multi / (3.0 * n_tot)


@dataclass
class AliceView:
    theta: BitString
    x: BitString
    n_tot: int
    n_multi: int


@dataclass
class BobView:
    theta: BitString
    x: BitString
    # set only when the adversarial leak-accounting flag is on
    undetected_multi: np.ndarray | None = field(default=None, repr=False)


def run_quantum_phase(model: SourceModel, n0: int, rng: Rng,
                      adversarial_multi_view: bool = False) -> tuple[AliceView, BobView]:
    """Run the source until exactly n0 rounds are accepted by both sides.

    Accepted means: a coincidence, single-photon on Alice's side (or an
    undetected double), and a successful report from Bob. Detected
    multi-photon coincidences increment the counters driving the
    multi-photon abort check.
    """
    if n0 < 1:
        raise QsimError("need at least one signal")

    theta_a = np.empty(0, np.uint8)
    theta_b = np.empty(0, np.uint8)
    x_a = np.empty(0, np.uint8)
    x_b = np.empty(0, np.uint8)
    undet = np.empty(0, bool)
    n_tot = 0
    n_multi = 0

    while theta_a.size < n0:
        chunk = max(1024, int((n0 - theta_a.size) * 1.3))
        u = rng.uniform(4 * chunk).reshape(4, chunk)
        rb = np.frombuffer(rng.bytes(4 * chunk), np.uint8).reshape(4, chunk) & 1
        ta, tb, xa, unif = rb

        coincidence = u[0] >= model.p_loss
        multi = coincidence & (u[1] < model.p_double)
        detected_multi = multi & (u[2] < _DETECT_GIVEN_MULTI)
        undetected = multi & ~detected_multi
        dark = u[3] < model.p_dark

        match = ta == tb
        noise = (rng.uniform(chunk) < model.p_err).astype(np.uint8)
        # an undetected double click reports a uniform bit even in the
        # matching basis: one of the two clicks is reported at random
        xb = np.where(match & ~undetected, xa ^ noise, unif)

        accepted = coincidence & ~detected_multi & ~dark

        # cut at the raw round where the quota is filled; later rounds of
        # this chunk never happened
        need = n0 - theta_a.size
        acc_idx = np.nonzero(accepted)[0]
        if acc_idx.size > need:
            cut = int(acc_idx[need - 1]) + 1
            coincidence, detected_multi = coincidence[:cut], detected_multi[:cut]
            dark, undetected, accepted = dark[:cut], undetected[:cut], accepted[:cut]
            ta, tb, xa, xb = ta[:cut], tb[:cut], xa[:cut], xb[:cut]

        n_tot += int((coincidence & ~dark).sum())
        n_multi += int((detected_multi & ~dark).sum())

        theta_a = np.concatenate([theta_a, ta[accepted]])
        theta_b = np.concatenate([theta_b, tb[accepted]])
        x_a = np.concatenate([x_a, xa[accepted]])
        x_b = np.concatenate([x_b, xb[accepted]])
        undet = np.concatenate([undet, undetected[accepted]])

    alice = AliceView(BitString.from_bits(theta_a), BitString.from_bits(x_a),
                      n_tot, n_multi)
    bob = BobView(BitString.from_bits(theta_b), BitString.from_bits(x_b),
                  undet if adversarial_multi_view else None)
    return alice, bob
