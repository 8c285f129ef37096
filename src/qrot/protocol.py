"""Sender and receiver state machines for the randomized OT session.

Both parties start from an agreed ``SessionConfig``. After the quantum phase
the session is one fixed message sequence: the sender opens with HELLO (the
serialized config) and the commitment challenge in one flight, the receiver
commits to all basis/outcome pairs, the sender names a test subset, the
receiver opens it, the sender checks the error rate and discloses her
remaining bases, the receiver sends an ordered pair of subsets of the untested
rounds, the sender answers with syndromes for both halves plus the hashing
seed. Each party declares the messages it reads, in order, as its ``reads``
tuple; any other message at any step ends the session.

HELLO is the one handshake message and gets no reply: the receiver accepts it
only if its bytes equal his own ``config.serialize()``, so he never builds
parameters from the peer's numbers.

Output convention: the sender's m_0 hashes the first element of the received
pair and m_1 the second. The receiver places his matched-basis set at pair
position c, so he can decode exactly the position-c string; the chosen-string
relation receiver.m_c == sender.(m_0, m_1)[c] holds by construction.

Wire format (``PROTOCOL_VERSION`` 6): no payload carries a count or length
header. The config fixes the exact length of every message but ABORT
(``declared_payload_sizes``), and nothing else bounds a message's size:
``_Session.on_frame`` checks the type and that length once, before any
handler reads the payload, each handler builds its bit strings and subset
bitmaps at the sizes the config implies, and ``qrot role`` bounds its socket
records by the largest declared payload. A subset travels as a bitmap: the
test set over all N0 rounds, each separation half over the untested rounds
in ascending order, the order of the BASES bit string. Every packed field is
read by ``BitString``, which refuses a set pad bit.

Each end holds its quantum-phase view as 0/1 arrays and its test set as a
bool mask, and packs bits only when it sends them.

Every unexpected or malformed message ends the session with a typed abort;
no path finishes a session with inconsistent outputs.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field

import numpy as np

from qrot import commit, pamp, qsim, recon, wire
from qrot.bitcore import (BitString, Rng, extract, pack_bits, parse_subset,
                           sample_subset)
from qrot.bounds import ProtocolParams
from qrot.wire import Frame


class ProtocolError(ValueError):
    pass


class Msg(enum.IntEnum):
    HELLO = 0x01
    CHALLENGE = 0x03
    COMMITMENTS = 0x04
    TEST_SET = 0x05
    OPENINGS = 0x06
    BASES = 0x07
    SEP = 0x08
    SYNDROMES = 0x09
    HASH_SEED = 0x0A
    ABORT = 0x0B


class AbortReason(enum.IntEnum):
    TEST_FAILED = 0x01
    INSUFFICIENT_BASES = 0x02
    IR_FAILED = 0x03
    MULTIPHOTON = 0x04
    PROTOCOL_ERROR = 0x05
    TRANSPORT = 0x06


PROTOCOL_VERSION = 6

_BACKEND_CODES = {recon.BACKEND_TRIVIAL: 0, recon.BACKEND_LDPC: 1}

_CONFIG_STRUCT = struct.Struct(">BBHHQI8d")


@dataclass(frozen=True)
class SessionConfig:
    """Everything both parties must agree on before the quantum phase.

    Commitments always use the fixed-key AES hash (``commit.HASH_AES128``),
    and the LDPC code is a function of ``ir_params``, so neither is a field.
    """

    params: ProtocolParams
    k: int = 32
    tag_bits: int = 32
    ir_backend: str = recon.BACKEND_LDPC

    def __post_init__(self):
        if self.ir_backend not in _BACKEND_CODES:
            raise ProtocolError(f"unknown IR backend {self.ir_backend}")
        p = self.params
        if p.n_check < 1:
            raise ProtocolError(f"N0 = {p.n0} gives N_check = {p.n_check}; "
                                "the test needs at least 1")
        if p.n_raw <= p.n:
            raise ProtocolError(f"output length {p.n} is not below "
                                f"N_raw = {p.n_raw}")
        # derived once, so an IR point recon refuses is refused at construction
        object.__setattr__(self, "ir_params", recon.IrParams(
            n_raw=p.n_raw, p_design=p.p_max + p.delta1, f=p.f,
            tag_bits=self.tag_bits, backend=self.ir_backend))

    @property
    def commit_params(self) -> commit.CommitParams:
        # per-round message is the (basis, outcome) pair
        return commit.CommitParams(k=self.k, n_msg=2)

    def serialize(self) -> bytes:
        p = self.params
        return _CONFIG_STRUCT.pack(
            PROTOCOL_VERSION, _BACKEND_CODES[self.ir_backend],
            self.k, self.tag_bits, p.n0, p.n,
            p.alpha, p.delta1, p.delta2, p.p_max, p.f, p.p_multi,
            p.eps_ir, p.eps_bind)


def declared_payload_sizes(config: SessionConfig) -> dict:
    """Exact payload length of every message but ABORT, from the config alone.

    ``_Session.on_frame`` ends the session with PROTOCOL_ERROR on a payload
    of any other length, and the leak-ledger tests check the transcript
    against these numbers. Bit strings and subset bitmaps are packed
    MSB-first.
    """
    p = config.params
    cp = config.commit_params
    return {
        Msg.HELLO: _CONFIG_STRUCT.size,
        Msg.CHALLENGE: (cp.n_r + 7) // 8,
        Msg.COMMITMENTS: p.n0 * cp.com_bytes,
        Msg.TEST_SET: (p.n0 + 7) // 8,
        Msg.OPENINGS: p.n_test * (1 + cp.seed_bytes),
        Msg.BASES: (p.n0 - p.n_test + 7) // 8,
        Msg.SEP: 2 * ((p.n0 - p.n_test + 7) // 8),
        Msg.SYNDROMES: 2 * config.ir_params.record_bytes,
        Msg.HASH_SEED: (p.n_raw + p.n - 1 + 7) // 8,
    }


# ---------------------------------------------------------------------------
# transcript
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TranscriptEntry:
    direction: str  # "send" | "recv"
    type_code: int
    length: int


@dataclass
class SessionTranscript:
    entries: list = field(default_factory=list)

    def record(self, direction: str, frame: Frame) -> None:
        self.entries.append(TranscriptEntry(direction, frame.type_code,
                                            len(frame.payload)))

    def payload_bytes(self, type_code: int) -> int:
        return sum(e.length for e in self.entries if e.type_code == type_code)


# ---------------------------------------------------------------------------
# outputs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SenderOutput:
    m0: BitString
    m1: BitString


@dataclass(frozen=True)
class ReceiverOutput:
    c: int
    m_c: BitString


@dataclass(frozen=True)
class RotOutput:
    sender: SenderOutput
    receiver: ReceiverOutput

    @property
    def correct(self) -> bool:
        """Chosen-string relation: the receiver holds the sender's m_c."""
        chosen = self.sender.m0 if self.receiver.c == 0 else self.sender.m1
        return self.receiver.m_c == chosen


# ---------------------------------------------------------------------------
# shared machinery
# ---------------------------------------------------------------------------

class _Session:
    reads: tuple[Msg, ...]  # the messages this end receives, in order

    def __init__(self, config: SessionConfig, view: qsim.AliceView | qsim.BobView,
                 rng: Rng):
        if view.theta.size != config.params.n0:
            raise ProtocolError("quantum-phase view does not match N0")
        self.config = config
        self.view = view
        self.rng = rng
        self.transcript = SessionTranscript()
        self.abort_reason: AbortReason | None = None
        self._step = 0  # index into ``reads`` of the next expected message
        self._sizes = declared_payload_sizes(config)

    @property
    def finished(self) -> bool:
        return self.abort_reason is not None or self._step == len(self.reads)

    def _send(self, type_code: int, payload: bytes) -> Frame:
        frame = Frame(type_code, payload)
        self.transcript.record("send", frame)
        return frame

    def start(self) -> list[Frame]:
        """Frames this end sends before it receives any; only the sender opens."""
        return []

    def _end(self, reason: AbortReason) -> None:
        self.abort_reason = reason

    def _abort(self, reason: AbortReason) -> list[Frame]:
        self._end(reason)
        return [self._send(Msg.ABORT, bytes([reason]))]

    def on_frame(self, frame: Frame) -> list[Frame]:
        if self.finished:
            return []
        self.transcript.record("recv", frame)
        if frame.type_code == Msg.ABORT:
            try:
                self._end(AbortReason(frame.payload[0]))
            except (IndexError, ValueError):  # no reason byte, or an unknown one
                self._end(AbortReason.PROTOCOL_ERROR)
            return []
        msg = self.reads[self._step]
        if frame.type_code != msg or len(frame.payload) != self._sizes[msg]:
            return self._abort(AbortReason.PROTOCOL_ERROR)
        self._step += 1
        try:
            return getattr(self, f"_on_{msg.name.lower()}")(frame.payload)
        except ValueError:
            return self._abort(AbortReason.PROTOCOL_ERROR)


# ---------------------------------------------------------------------------
# sender (Alice)
# ---------------------------------------------------------------------------

class SenderSession(_Session):
    reads = (Msg.COMMITMENTS, Msg.OPENINGS, Msg.SEP)

    def __init__(self, config: SessionConfig, view: qsim.AliceView, rng: Rng):
        super().__init__(config, view, rng)
        self.challenge: commit.Challenge | None = None
        self.coms: np.ndarray | None = None  # the tested rows, until OPENINGS
        self.test_mask: np.ndarray | None = None
        self.output: SenderOutput | None = None
        self.qber_estimate: float | None = None

    def start(self) -> list[Frame]:
        p = self.config.params
        if p.p_multi > 0.0:
            est = qsim.multi_photon_estimate(self.view.n_tot, self.view.n_multi)
            if est >= p.p_multi:
                return self._abort(AbortReason.MULTIPHOTON)
        self.challenge = commit.sample_challenge(self.rng, self.config.commit_params)
        return [self._send(Msg.HELLO, self.config.serialize()),
                self._send(Msg.CHALLENGE, self.challenge.r1.payload)]

    def _on_commitments(self, payload: bytes) -> list[Frame]:
        p = self.config.params
        cp = self.config.commit_params
        self.test_mask = sample_subset(self.rng, p.n0, p.n_test)
        coms = np.frombuffer(payload, np.uint8).reshape(p.n0, cp.com_bytes)
        self.coms = coms[np.flatnonzero(self.test_mask)]
        return [self._send(Msg.TEST_SET, pack_bits(self.test_mask))]

    def _on_openings(self, payload: bytes) -> list[Frame]:
        p = self.config.params
        cp = self.config.commit_params
        body = np.frombuffer(payload, np.uint8).reshape(p.n_test, 1 + cp.seed_bytes)
        if (body[:, 0] & 0x3F).any():  # the (basis, outcome) pair is bits 7 and 6
            return self._abort(AbortReason.PROTOCOL_ERROR)
        msgs = np.stack([body[:, 0] >> 7, (body[:, 0] >> 6) & 1], axis=1)
        coms, self.coms = self.coms, None
        ok = commit.verify_batch(coms, msgs, body[:, 1:], self.challenge, cp)
        if not ok.all():
            return self._abort(AbortReason.TEST_FAILED)

        tested = np.flatnonzero(self.test_mask)
        matched = msgs[:, 0] == self.view.theta[tested]
        if int(matched.sum()) < p.n_check:
            return self._abort(AbortReason.TEST_FAILED)
        p_est = float((msgs[matched, 1] != self.view.x[tested][matched]).mean())
        self.qber_estimate = p_est
        if p_est > p.p_max:
            return self._abort(AbortReason.TEST_FAILED)

        untested = np.flatnonzero(~self.test_mask)
        return [self._send(Msg.BASES, pack_bits(self.view.theta[untested]))]

    def _on_sep(self, payload: bytes) -> list[Frame]:
        p = self.config.params
        half = len(payload) // 2
        untested = np.flatnonzero(~self.test_mask)
        first = parse_subset(payload[:half], untested.size, p.n_raw)
        second = parse_subset(payload[half:], untested.size, p.n_raw)
        if (first & second).any():
            return self._abort(AbortReason.PROTOCOL_ERROR)

        x0 = extract(self.view.x, untested[np.flatnonzero(first)])
        x1 = extract(self.view.x, untested[np.flatnonzero(second)])
        ir = self.config.ir_params
        s0, s1 = recon.syn(x0, ir), recon.syn(x1, ir)
        seed = pamp.sample_seed(self.rng, p.n_raw, p.n)
        self.output = SenderOutput(pamp.hash_bits(seed, x0), pamp.hash_bits(seed, x1))
        return [self._send(Msg.SYNDROMES, s0.serialize() + s1.serialize()),
                self._send(Msg.HASH_SEED, seed.diag.payload)]


# ---------------------------------------------------------------------------
# receiver (Bob)
# ---------------------------------------------------------------------------

class ReceiverSession(_Session):
    reads = (Msg.HELLO, Msg.CHALLENGE, Msg.TEST_SET, Msg.BASES, Msg.SYNDROMES,
             Msg.HASH_SEED)

    def __init__(self, config: SessionConfig, view: qsim.BobView, rng: Rng):
        super().__init__(config, view, rng)
        self.challenge: commit.Challenge | None = None
        self.seeds: np.ndarray | None = None  # until TEST_SET
        self.test_mask: np.ndarray | None = None
        self.i0: np.ndarray | None = None  # the matched-basis rounds he keeps
        self.choice: int | None = None
        self.decoded: BitString | None = None
        self.output: ReceiverOutput | None = None

    def _on_hello(self, payload: bytes) -> list[Frame]:
        if payload != self.config.serialize():
            return self._abort(AbortReason.PROTOCOL_ERROR)
        return []

    def _on_challenge(self, payload: bytes) -> list[Frame]:
        p = self.config.params
        cp = self.config.commit_params
        self.challenge = commit.Challenge(BitString(payload, cp.n_r))

        msgs = np.stack([self.view.theta, self.view.x], axis=1)
        seeds = np.frombuffer(self.rng.bytes(p.n0 * cp.seed_bytes),
                              np.uint8).reshape(p.n0, cp.seed_bytes).copy()
        if cp.n_s % 8:
            seeds[:, -1] &= (0xFF << (8 - cp.n_s % 8)) & 0xFF
        self.seeds = seeds
        coms = commit.commit_batch(msgs, seeds, self.challenge, cp,
                                   commit.HASH_AES128)
        return [self._send(Msg.COMMITMENTS, coms.tobytes())]

    def _on_test_set(self, payload: bytes) -> list[Frame]:
        p = self.config.params
        self.test_mask = parse_subset(payload, p.n0, p.n_test)
        tested = np.flatnonzero(self.test_mask)
        msg_byte = self.view.theta[tested] << 7 | self.view.x[tested] << 6
        records = np.concatenate([msg_byte[:, None], self.seeds[tested]], axis=1)
        self.seeds = None
        return [self._send(Msg.OPENINGS, records.tobytes())]

    def _on_bases(self, payload: bytes) -> list[Frame]:
        p = self.config.params
        untested = np.flatnonzero(~self.test_mask)
        rest = untested.size
        match = BitString(payload, rest).bits() == self.view.theta[untested]
        # positions among the untested rounds, the universe of a SEP half
        matching, differing = np.flatnonzero(match), np.flatnonzero(~match)
        if matching.size < p.n_raw or differing.size < p.n_raw:
            return self._abort(AbortReason.INSUFFICIENT_BASES)

        self.choice = self.rng.bytes(1)[0] & 1
        i0 = _pick(self.rng, matching, p.n_raw)
        i1 = _pick(self.rng, differing, p.n_raw)
        self.i0 = untested[i0]
        halves = [np.zeros(rest, dtype=bool) for _ in range(2)]
        halves[self.choice][i0] = True
        halves[1 - self.choice][i1] = True
        return [self._send(Msg.SEP, pack_bits(halves[0]) + pack_bits(halves[1]))]

    def _on_syndromes(self, payload: bytes) -> list[Frame]:
        ir = self.config.ir_params
        size = ir.record_bytes
        start = self.choice * size
        mine = recon.Syndrome.parse(payload[start:start + size], ir)
        decoded = recon.dec(mine, extract(self.view.x, self.i0), ir)
        if decoded is None:
            return self._abort(AbortReason.IR_FAILED)
        self.decoded = decoded
        return []

    def _on_hash_seed(self, payload: bytes) -> list[Frame]:
        p = self.config.params
        seed = pamp.ToeplitzSeed(p.n_raw, p.n, BitString(payload, p.n_raw + p.n - 1))
        self.output = ReceiverOutput(self.choice, pamp.hash_bits(seed, self.decoded))
        return []


def _pick(rng: Rng, pool: np.ndarray, size: int) -> np.ndarray:
    """Uniform size-subset of the ascending candidate pool, ascending.

    A pick keeps most of its pool (about 94% at the desk point, 99.5% at
    Table-1), so ``sample_subset`` shuffles only the rounds it drops."""
    return pool[np.flatnonzero(sample_subset(rng, pool.size, size))]


# ---------------------------------------------------------------------------
# session driver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SessionResult:
    output: RotOutput | None
    abort_reason: AbortReason | None
    sender_transcript: SessionTranscript
    receiver_transcript: SessionTranscript
    qber_estimate: float | None = None

    @property
    def success(self) -> bool:
        return self.output is not None


def parties(config: SessionConfig, model: qsim.SourceModel,
            seed: int | Rng) -> tuple[SenderSession, ReceiverSession]:
    """Both ends of one session, ready to drive.

    The seed splits into (source, sender, receiver) streams; the quantum phase
    runs on the source stream, so two processes that share a seed replay the
    same photon record and each keeps its own half.
    """
    root = Rng.from_int(seed) if isinstance(seed, int) else seed
    source_rng, sender_rng, receiver_rng = \
        root.spawn(b"source"), root.spawn(b"sender"), root.spawn(b"receiver")
    alice_view, bob_view = qsim.run_quantum_phase(model, config.params.n0, source_rng)
    return (SenderSession(config, alice_view, sender_rng),
            ReceiverSession(config, bob_view, receiver_rng))


def drive(*ends: tuple[_Session, wire.Connection],
          timeout: float = wire.DEFAULT_TIMEOUT) -> None:
    """Run state machines over open connections until each one has ended.

    ``ends`` are (actor, connection) pairs. Every end first sends its opening
    frames; each pass then hands at most one received frame to every
    unfinished end. A pass in which no end receives a frame within
    ``timeout``, or any wire fault, ends every unfinished actor with TRANSPORT.
    """
    try:
        for actor, conn in ends:
            for frame in actor.start():
                conn.send(frame)
        progressed = True
        while progressed:
            progressed = False
            for actor, conn in ends:
                if actor.finished:
                    continue
                try:
                    frame = conn.recv(timeout=timeout)
                except wire.Timeout:
                    continue
                progressed = True
                for out in actor.on_frame(frame):
                    conn.send(out)
    except wire.WireError:
        pass  # a broken link is a TRANSPORT end for everyone still running
    for actor, _ in ends:
        if not actor.finished:
            actor._end(AbortReason.TRANSPORT)


def run_session(config: SessionConfig, model: qsim.SourceModel,
                seed: int | Rng) -> SessionResult:
    """One seeded session, both ends in this process."""
    return run_parties(*parties(config, model, seed))


def run_parties(sender: SenderSession, receiver: ReceiverSession) -> SessionResult:
    """Drive two built ends over an in-process framed transport to the end."""
    conn_a, conn_b = wire.queue_pair()
    drive((sender, conn_a), (receiver, conn_b), timeout=0)
    reason = sender.abort_reason or receiver.abort_reason
    output = RotOutput(sender.output, receiver.output) if reason is None else None
    return SessionResult(output, reason, sender.transcript, receiver.transcript,
                         qber_estimate=sender.qber_estimate)


def desk_config(n0: int = 1 << 16, n: int = 16,
                ir_backend: str = recon.BACKEND_TRIVIAL) -> SessionConfig:
    """Small parameter point sized for CI: one session well under a second."""
    params = ProtocolParams(n0=n0, alpha=0.25, delta1=0.02, delta2=0.03,
                            p_max=0.02, n=n, f=1.3, p_multi=0.0,
                            eps_ir=2.0 ** -16, eps_bind=2.0 ** -16)
    return SessionConfig(params=params, k=16, tag_bits=16, ir_backend=ir_backend)
