"""Sender and receiver state machines for the randomized OT session.

Message flow after the handshake: the sender issues the commitment challenge,
the receiver commits to all basis/outcome pairs, the sender names a test
subset, the receiver opens it, the sender checks the error rate and discloses
her remaining bases, the receiver sends an ordered pair of index sets, the
sender answers with syndromes for both halves plus the hashing seed.

Output convention: the sender's m_0 hashes the first element of the received
pair and m_1 the second. The receiver places his matched-basis set at pair
position c, so he can decode exactly the position-c string; the chosen-string
relation receiver.m_c == sender.(m_0, m_1)[c] holds by construction.

Wire format (``PROTOCOL_VERSION`` 3): no payload carries a count or length
header. The config fixes the exact length of every message but ABORT
(``declared_payload_sizes``); ``_Session.on_frame`` checks that length once,
before any handler reads the payload, and each handler builds its bit strings
and index sets at the sizes the config implies.

Every out-of-phase or malformed message ends the session with a typed abort;
no path yields a DONE state with inconsistent outputs.
"""

from __future__ import annotations

import enum
import hashlib
import struct
from dataclasses import dataclass, field

import numpy as np

from qrot import commit, pamp, qsim, recon, wire
from qrot.bitcore import BitString, IndexSet, Rng, extract, sample_subset
from qrot.bounds import BoundsError, ProtocolParams
from qrot.wire import Frame


class ProtocolError(ValueError):
    pass


class Msg(enum.IntEnum):
    HELLO = 0x01
    HELLO_ACK = 0x02
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


class Phase(enum.Enum):
    HELLO = "hello"
    CHALLENGE = "challenge"
    COMMIT = "commit"
    TEST = "test"
    BASES = "bases"
    SEPARATE = "separate"
    SYNDROME = "syndrome"
    HASH = "hash"
    DONE = "done"
    ABORTED = "aborted"


PROTOCOL_VERSION = 3

_BACKEND_CODES = {recon.BACKEND_TRIVIAL: 0, recon.BACKEND_LDPC: 1}
_BACKEND_OF_CODE = {v: k for k, v in _BACKEND_CODES.items()}

_CONFIG_STRUCT = struct.Struct(">BBHHQI8d")
_ACK_STRUCT = struct.Struct(">QQQ")  # N_test, N_check, N_raw


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
        for msg, size in declared_payload_sizes(self).items():
            if size > wire.MAX_FRAME:
                raise ProtocolError(f"{msg.name} payload is {size} B, over the "
                                    f"{wire.MAX_FRAME} B frame limit")

    @property
    def commit_params(self) -> commit.CommitParams:
        # per-round message is the (basis, outcome) pair
        return commit.CommitParams(k=self.k, n_msg=2)

    @property
    def ir_params(self) -> recon.IrParams:
        p = self.params
        return recon.IrParams(n_raw=p.n_raw, p_design=p.p_max + p.delta1,
                              f=p.f, tag_bits=self.tag_bits,
                              backend=self.ir_backend)

    def serialize(self) -> bytes:
        p = self.params
        return _CONFIG_STRUCT.pack(
            PROTOCOL_VERSION, _BACKEND_CODES[self.ir_backend],
            self.k, self.tag_bits, p.n0, p.n,
            p.alpha, p.delta1, p.delta2, p.p_max, p.f, p.p_multi,
            p.eps_ir, p.eps_bind)

    @classmethod
    def parse(cls, raw: bytes) -> "SessionConfig":
        if len(raw) != _CONFIG_STRUCT.size:
            raise ProtocolError("bad handshake record length")
        (ver, backend, k, tag_bits, n0, n,
         alpha, d1, d2, p_max, f, p_multi, eps_ir, eps_bind) = _CONFIG_STRUCT.unpack(raw)
        if ver != PROTOCOL_VERSION:
            raise ProtocolError(f"protocol version mismatch: {ver}")
        if backend not in _BACKEND_OF_CODE:
            raise ProtocolError(f"unknown IR backend code {backend}")
        try:
            params = ProtocolParams(n0=n0, alpha=alpha, delta1=d1, delta2=d2,
                                    p_max=p_max, n=n, f=f, p_multi=p_multi,
                                    eps_ir=eps_ir, eps_bind=eps_bind)
        except BoundsError as exc:
            raise ProtocolError(str(exc)) from exc
        return cls(params=params, k=k, tag_bits=tag_bits,
                   ir_backend=_BACKEND_OF_CODE[backend])


def declared_payload_sizes(config: SessionConfig) -> dict:
    """Exact payload length of every message but ABORT, from the config alone.

    ``_Session.on_frame`` ends the session with PROTOCOL_ERROR on a payload
    of any other length, and the leak-ledger tests check the transcript
    against these numbers. Bit strings are packed MSB-first; index sets are
    4-byte big-endian indices.
    """
    p = config.params
    cp = config.commit_params
    return {
        Msg.HELLO: _CONFIG_STRUCT.size,
        Msg.HELLO_ACK: _ACK_STRUCT.size,
        Msg.CHALLENGE: (cp.n_r + 7) // 8,
        Msg.COMMITMENTS: p.n0 * cp.com_bytes,
        Msg.TEST_SET: 4 * p.n_test,
        Msg.OPENINGS: p.n_test * (1 + cp.seed_bytes),
        Msg.BASES: (p.n0 - p.n_test + 7) // 8,
        Msg.SEP: 2 * 4 * p.n_raw,
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
    digest: str


@dataclass
class SessionTranscript:
    entries: list = field(default_factory=list)

    def record(self, direction: str, frame: Frame) -> None:
        dig = hashlib.blake2b(frame.payload, digest_size=8).hexdigest()
        self.entries.append(TranscriptEntry(direction, frame.type_code,
                                            len(frame.payload), dig))

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
    def __init__(self, config: SessionConfig, rng: Rng):
        self.config = config
        self.rng = rng
        self.phase = Phase.HELLO
        self.transcript = SessionTranscript()
        self.abort_reason: AbortReason | None = None
        self._sizes = declared_payload_sizes(config)

    @property
    def finished(self) -> bool:
        return self.phase in (Phase.DONE, Phase.ABORTED)

    def _send(self, type_code: int, payload: bytes) -> Frame:
        frame = Frame(type_code, payload)
        self.transcript.record("send", frame)
        return frame

    def start(self) -> list[Frame]:
        """Frames this end sends before it receives any; only the sender opens."""
        return []

    def _end(self, reason: AbortReason) -> None:
        self.phase = Phase.ABORTED
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
        try:
            handler = self._handlers().get((self.phase, frame.type_code))
            if handler is None or len(frame.payload) != self._sizes[frame.type_code]:
                return self._abort(AbortReason.PROTOCOL_ERROR)
            return handler(frame.payload)
        # a WireError here is a reply this end could not frame, not a link fault
        except (ValueError, struct.error, wire.WireError):
            return self._abort(AbortReason.PROTOCOL_ERROR)

    def _handlers(self) -> dict:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# sender (Alice)
# ---------------------------------------------------------------------------

class SenderSession(_Session):
    def __init__(self, config: SessionConfig, view: qsim.AliceView, rng: Rng):
        super().__init__(config, rng)
        if view.theta.length != config.params.n0:
            raise ProtocolError("quantum-phase view does not match N0")
        self.view = view
        self.challenge: commit.Challenge | None = None
        self.coms: np.ndarray | None = None
        self.test_set: IndexSet | None = None
        self.output: SenderOutput | None = None
        self.qber_estimate: float | None = None

    def start(self) -> list[Frame]:
        return [self._send(Msg.HELLO, self.config.serialize())]

    def _handlers(self):
        return {
            (Phase.HELLO, Msg.HELLO_ACK): self._on_hello_ack,
            (Phase.COMMIT, Msg.COMMITMENTS): self._on_commitments,
            (Phase.TEST, Msg.OPENINGS): self._on_openings,
            (Phase.SEPARATE, Msg.SEP): self._on_sep,
        }

    def _on_hello_ack(self, payload: bytes) -> list[Frame]:
        p = self.config.params
        if payload != _ACK_STRUCT.pack(p.n_test, p.n_check, p.n_raw):
            return self._abort(AbortReason.PROTOCOL_ERROR)
        if p.p_multi > 0.0:
            est = qsim.multi_photon_estimate(self.view.n_tot, self.view.n_multi)
            if est >= p.p_multi:
                return self._abort(AbortReason.MULTIPHOTON)
        self.challenge = commit.sample_challenge(self.rng, self.config.commit_params)
        self.phase = Phase.COMMIT
        return [self._send(Msg.CHALLENGE, self.challenge.r1.payload)]

    def _on_commitments(self, payload: bytes) -> list[Frame]:
        p = self.config.params
        cp = self.config.commit_params
        self.coms = np.frombuffer(payload, np.uint8).reshape(p.n0, cp.com_bytes)
        self.test_set = sample_subset(self.rng, p.n0, p.n_test)
        self.phase = Phase.TEST
        return [self._send(Msg.TEST_SET, self.test_set.serialize())]

    def _on_openings(self, payload: bytes) -> list[Frame]:
        p = self.config.params
        cp = self.config.commit_params
        body = np.frombuffer(payload, np.uint8).reshape(p.n_test, 1 + cp.seed_bytes)
        msgs = np.stack([body[:, 0] >> 7, (body[:, 0] >> 6) & 1], axis=1)
        ok = commit.verify_batch(self.coms[self.test_set.indices], msgs,
                                 body[:, 1:], self.challenge, cp,
                                 commit.HASH_AES128)
        if not ok.all():
            return self._abort(AbortReason.TEST_FAILED)

        theta_a = self.view.theta.bits()[self.test_set.indices]
        x_a = self.view.x.bits()[self.test_set.indices]
        matched = msgs[:, 0] == theta_a
        if int(matched.sum()) < p.n_check:
            return self._abort(AbortReason.TEST_FAILED)
        p_est = float((msgs[matched, 1] != x_a[matched]).mean())
        self.qber_estimate = p_est
        if p_est > p.p_max:
            return self._abort(AbortReason.TEST_FAILED)

        rest = self.test_set.complement()
        self.phase = Phase.SEPARATE
        return [self._send(Msg.BASES, extract(self.view.theta, rest).payload)]

    def _on_sep(self, payload: bytes) -> list[Frame]:
        p = self.config.params
        half = len(payload) // 2
        first = IndexSet.parse(payload[:half], p.n0)
        second = IndexSet.parse(payload[half:], p.n0)
        taken = self.test_set.membership_mask()
        if taken[first.indices].any():
            return self._abort(AbortReason.PROTOCOL_ERROR)
        taken[first.indices] = True  # second must avoid the test set and first
        if taken[second.indices].any():
            return self._abort(AbortReason.PROTOCOL_ERROR)

        x0, x1 = extract(self.view.x, first), extract(self.view.x, second)
        ir = self.config.ir_params
        s0, s1 = recon.syn(x0, ir), recon.syn(x1, ir)
        seed = pamp.sample_seed(self.rng, p.n_raw, p.n)
        self.output = SenderOutput(pamp.hash_bits(seed, x0), pamp.hash_bits(seed, x1))
        self.phase = Phase.DONE
        return [self._send(Msg.SYNDROMES, s0.serialize() + s1.serialize()),
                self._send(Msg.HASH_SEED, seed.diag.payload)]


# ---------------------------------------------------------------------------
# receiver (Bob)
# ---------------------------------------------------------------------------

class ReceiverSession(_Session):
    def __init__(self, config: SessionConfig, view: qsim.BobView, rng: Rng):
        super().__init__(config, rng)
        if view.theta.length != config.params.n0:
            raise ProtocolError("quantum-phase view does not match N0")
        self.view = view
        self.challenge: commit.Challenge | None = None
        self.msgs: np.ndarray | None = None
        self.seeds: np.ndarray | None = None
        self.i0: IndexSet | None = None
        self.choice: int | None = None
        self.decoded: BitString | None = None
        self.output: ReceiverOutput | None = None

    def _handlers(self):
        return {
            (Phase.HELLO, Msg.HELLO): self._on_hello,
            (Phase.CHALLENGE, Msg.CHALLENGE): self._on_challenge,
            (Phase.TEST, Msg.TEST_SET): self._on_test_set,
            (Phase.BASES, Msg.BASES): self._on_bases,
            (Phase.SYNDROME, Msg.SYNDROMES): self._on_syndromes,
            (Phase.HASH, Msg.HASH_SEED): self._on_hash_seed,
        }

    def _on_hello(self, payload: bytes) -> list[Frame]:
        theirs = SessionConfig.parse(payload)
        if theirs != self.config:
            return self._abort(AbortReason.PROTOCOL_ERROR)
        p = self.config.params
        self.phase = Phase.CHALLENGE
        return [self._send(Msg.HELLO_ACK,
                           _ACK_STRUCT.pack(p.n_test, p.n_check, p.n_raw))]

    def _on_challenge(self, payload: bytes) -> list[Frame]:
        p = self.config.params
        cp = self.config.commit_params
        self.challenge = commit.Challenge(BitString(payload, cp.n_r))

        self.msgs = np.stack([self.view.theta.bits(), self.view.x.bits()], axis=1)
        seeds = np.frombuffer(self.rng.bytes(p.n0 * cp.seed_bytes),
                              np.uint8).reshape(p.n0, cp.seed_bytes).copy()
        if cp.n_s % 8:
            seeds[:, -1] &= (0xFF << (8 - cp.n_s % 8)) & 0xFF
        self.seeds = seeds
        coms = commit.commit_batch(self.msgs, seeds, self.challenge, cp,
                                   commit.HASH_AES128)
        self.phase = Phase.TEST
        return [self._send(Msg.COMMITMENTS, coms.tobytes())]

    def _on_test_set(self, payload: bytes) -> list[Frame]:
        self.test_set = IndexSet.parse(payload, self.config.params.n0)
        tested = self.test_set.indices
        opened = self.msgs[tested]
        msg_byte = (opened[:, 0] << 7 | opened[:, 1] << 6).astype(np.uint8)
        records = np.concatenate([msg_byte[:, None], self.seeds[tested]], axis=1)
        self.phase = Phase.BASES
        return [self._send(Msg.OPENINGS, records.tobytes())]

    def _on_bases(self, payload: bytes) -> list[Frame]:
        p = self.config.params
        rest = self.test_set.complement()
        theta_a = BitString(payload, len(rest))
        match = theta_a.bits() == self.view.theta.bits()[rest.indices]
        matching = rest.indices[match]
        differing = rest.indices[~match]
        if matching.size < p.n_raw or differing.size < p.n_raw:
            return self._abort(AbortReason.INSUFFICIENT_BASES)

        self.choice = self.rng.bytes(1)[0] & 1
        self.i0 = _pick(self.rng, matching, p.n_raw, p.n0)
        i1 = _pick(self.rng, differing, p.n_raw, p.n0)
        pair = (self.i0, i1) if self.choice == 0 else (i1, self.i0)
        self.phase = Phase.SYNDROME
        return [self._send(Msg.SEP, pair[0].serialize() + pair[1].serialize())]

    def _on_syndromes(self, payload: bytes) -> list[Frame]:
        ir = self.config.ir_params
        size = ir.record_bytes
        start = self.choice * size
        mine = recon.Syndrome.parse(payload[start:start + size], ir)
        decoded = recon.dec(mine, extract(self.view.x, self.i0), ir)
        if decoded is None:
            return self._abort(AbortReason.IR_FAILED)
        self.decoded = decoded
        self.phase = Phase.HASH
        return []

    def _on_hash_seed(self, payload: bytes) -> list[Frame]:
        p = self.config.params
        seed = pamp.ToeplitzSeed(p.n_raw, p.n, BitString(payload, p.n_raw + p.n - 1))
        self.output = ReceiverOutput(self.choice, pamp.hash_bits(seed, self.decoded))
        self.phase = Phase.DONE
        return []


def _pick(rng: Rng, pool: np.ndarray, size: int, universe: int) -> IndexSet:
    """Uniform size-subset of the candidate pool, as global indices."""
    sub = sample_subset(rng, pool.size, size)
    return IndexSet(pool[sub.indices], universe)


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
    """Drive both state machines over an in-process framed transport."""
    sender, receiver = parties(config, model, seed)
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
