"""Dishonest parties for the abort-path tests.

Each cheater is an honest state machine from ``qrot.protocol`` with one step
replaced, built from the same seeded streams as ``protocol.parties``, so the
honest program itself carries no fault-injection branch.
"""

from dataclasses import replace

import numpy as np

from qrot import qsim
from qrot.protocol import (Msg, ReceiverSession, SenderSession, SessionConfig,
                           SessionResult, parties, run_parties)
from draws import uniform


class FlippingReceiver(ReceiverSession):
    """Commits to and opens outcome bits flipped at ``flip_rate``; keeps the
    true ones for the rest of the session."""

    flip_rate = 0.08

    def _on_challenge(self, payload: bytes):
        self.honest = self.view
        flips = (uniform(self.rng, self.config.params.n0) < self.flip_rate).astype(np.uint8)
        self.view = replace(self.honest, x=self.honest.x ^ flips)
        return super()._on_challenge(payload)

    def _on_test_set(self, payload: bytes):
        out = super()._on_test_set(payload)
        self.view = self.honest
        return out


class EarlySepReceiver(ReceiverSession):
    """Sends a separation message before its commitments."""

    def _on_challenge(self, payload: bytes):
        return [self._send(Msg.SEP, b"")] + super()._on_challenge(payload)


class CorruptSyndromeSender(SenderSession):
    """Flips the last byte, a tag byte, of both syndrome records."""

    def _send(self, type_code: int, payload: bytes):
        if type_code == Msg.SYNDROMES:
            buf = bytearray(payload)
            buf[len(buf) // 2 - 1] ^= 0xFF  # first record's tag
            buf[-1] ^= 0xFF                 # second record's tag
            payload = bytes(buf)
        return super()._send(type_code, payload)


class PadBitSender(SenderSession):
    """Sets the last pad bit of one packed field of ``msg``: the whole
    payload of CHALLENGE, BASES or HASH_SEED, or the syndrome field of both
    SYNDROMES records. The field's bit length must not be a multiple of 8."""

    def __init__(self, config: SessionConfig, view: qsim.AliceView, rng, msg: Msg):
        super().__init__(config, view, rng)
        self.msg = msg

    def _send(self, type_code: int, payload: bytes):
        if type_code == self.msg:
            buf = bytearray(payload)
            ends = [len(buf)]
            if type_code == Msg.SYNDROMES:
                ir = self.config.ir_params
                ends = [r * ir.record_bytes + (ir.syndrome_bits + 7) // 8 for r in (0, 1)]
            for end in ends:
                buf[end - 1] |= 1
            payload = bytes(buf)
        return super()._send(type_code, payload)


def skewed_receiver(sender: SenderSession, receiver: ReceiverSession,
                    model: qsim.SourceModel, match_prob: float) -> ReceiverSession:
    """A receiver whose bases match the sender's with ``match_prob`` (honest
    physics gives 1/2), drawn from the honest receiver's stream."""
    rng = receiver.rng
    alice = sender.view
    n = alice.theta.size
    mism = (uniform(rng, n) >= match_prob).astype(np.uint8)
    noise = (uniform(rng, n) < model.p_err).astype(np.uint8)
    unif = np.frombuffer(rng.bytes(n), np.uint8) & 1
    x_b = np.where(mism == 0, alice.x ^ noise, unif)
    view = qsim.BobView(alice.theta ^ mism, x_b)
    return ReceiverSession(receiver.config, view, rng)


def run_cheat(config: SessionConfig, model: qsim.SourceModel, seed: int, *,
              sender_cls=SenderSession, receiver_cls=ReceiverSession,
              basis_match_prob: float | None = None) -> SessionResult:
    """One seeded session with either end replaced by a cheater class."""
    sender, receiver = parties(config, model, seed)
    if basis_match_prob is not None:
        receiver = skewed_receiver(sender, receiver, model, basis_match_prob)
    return run_parties(sender_cls(config, sender.view, sender.rng),
                       receiver_cls(config, receiver.view, receiver.rng))
