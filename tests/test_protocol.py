import copy
import hashlib
import queue
import struct
import threading
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
import scipy.stats

from qrot import protocol, qsim, recon, wire
from qrot.bitcore import BitString, Rng, pack_bits, parse_subset
from qrot.bounds import TABLE1_PARAMS
from qrot.protocol import (AbortReason, Msg, SessionConfig,
                           declared_payload_sizes, desk_config, drive, parties,
                           run_parties, run_session)
from cheats import (CorruptSyndromeSender, EarlySepReceiver, FlippingReceiver,
                    PadBitSender, run_cheat)
from draws import uniform

SMALL = desk_config(n0=8192)
NOISELESS = qsim.SourceModel()


class _DigestTranscript(protocol.SessionTranscript):
    """A transcript that also keeps the blake2b-64 digest of every payload
    it records, in order."""

    def __init__(self):
        super().__init__()
        self.digests = []

    def record(self, direction, frame):
        super().record(direction, frame)
        self.digests.append(hashlib.blake2b(frame.payload, digest_size=8).hexdigest())

    def rows(self):
        return [(e.direction, e.type_code, e.length, d)
                for e, d in zip(self.entries, self.digests)]


@pytest.fixture
def digests(monkeypatch):
    """Sessions started under this fixture record payload digests."""
    monkeypatch.setattr(protocol, "SessionTranscript", _DigestTranscript)

# the HELLO fields in _CONFIG_STRUCT order, with their struct codes
_HELLO_FIELDS = (("version", "B"), ("backend", "B"), ("k", "H"),
                 ("tag_bits", "H"), ("n0", "Q"), ("n", "I"), ("alpha", "d"),
                 ("delta1", "d"), ("delta2", "d"), ("p_max", "d"), ("f", "d"),
                 ("p_multi", "d"), ("eps_ir", "d"), ("eps_bind", "d"))


class TestSessionConfig:
    @pytest.mark.parametrize("field", range(len(_HELLO_FIELDS)),
                             ids=[name for name, _ in _HELLO_FIELDS])
    def test_hello_must_match_byte_for_byte(self, field):
        # one flipped bit in the last byte of any field: the version (6 ->
        # 7), the backend code (LDPC -> trivial), n0, or a float's lowest
        # mantissa bit
        cfg = desk_config(n0=8192, ir_backend=recon.BACKEND_LDPC)
        codes = ">" + "".join(code for _, code in _HELLO_FIELDS)
        assert struct.calcsize(codes) == len(cfg.serialize())
        last = struct.calcsize(codes[:field + 2]) - 1
        hello = bytearray(cfg.serialize())
        _, receiver = parties(cfg, NOISELESS, 19)
        assert receiver.on_frame(wire.Frame(Msg.HELLO, bytes(hello))) == []
        assert receiver.abort_reason is None

        hello[last] ^= 0x01
        _, receiver = parties(cfg, NOISELESS, 19)
        out = receiver.on_frame(wire.Frame(Msg.HELLO, bytes(hello)))
        assert receiver.abort_reason == AbortReason.PROTOCOL_ERROR
        assert [f.type_code for f in out] == [Msg.ABORT]

    def test_derived_ir_params(self):
        cfg = desk_config(ir_backend=recon.BACKEND_LDPC)
        assert cfg.ir_params.n_raw == cfg.params.n_raw
        assert cfg.ir_params.p_design == pytest.approx(0.04)

    @pytest.mark.parametrize("kw, match", [
        ({"n0": 1}, "N_check = 0"), ({"n0": 8}, "N_check = 0"),
        ({"n": 23_101}, "not below N_raw = 23101"),
        ({"n": 30_000}, "not below N_raw = 23101")],
        ids=["n0=1", "n0=8", "n=n_raw", "n=30000"])
    def test_meaningless_point_rejected_at_construction(self, kw, match):
        # N_check = 0 once made p_est the mean of an empty slice (NaN), which
        # passed the p_max test
        with pytest.raises(protocol.ProtocolError, match=match):
            desk_config(**kw)

    def test_huge_finite_f_rejected_at_construction(self):
        params = replace(SMALL.params, f=1e308)
        with pytest.raises((protocol.ProtocolError, recon.ReconError)):
            SessionConfig(params, ir_backend=recon.BACKEND_LDPC)


class TestHonestSession:
    def test_success_and_chosen_string(self):
        for seed in range(5):
            res = run_session(SMALL, NOISELESS, seed)
            assert res.success and res.abort_reason is None
            assert res.output.correct
            assert res.output.sender.m0 != res.output.sender.m1

    def test_each_choice_selects_its_string(self):
        # honest seeds whose receivers draw c = 0 and c = 1
        for seed, c in ((1, 0), (0, 1)):
            res = run_session(SMALL, NOISELESS, seed)
            assert res.output.receiver.c == c
            expected = res.output.sender.m0 if c == 0 else res.output.sender.m1
            assert res.output.receiver.m_c == expected

    def test_deterministic_given_seed(self):
        a = run_session(SMALL, NOISELESS, 7)
        b = run_session(SMALL, NOISELESS, 7)
        assert a.output.sender.m0 == b.output.sender.m0
        assert a.output.receiver.m_c == b.output.receiver.m_c

    def test_qber_reported(self):
        res = run_session(SMALL, qsim.SourceModel(p_err=0.01), 8)
        assert res.qber_estimate == pytest.approx(0.01, abs=0.01)

    def test_ldpc_backend_with_noise(self):
        cfg = desk_config(n0=8192, ir_backend=recon.BACKEND_LDPC)
        ok = 0
        for seed in range(10):
            res = run_session(cfg, qsim.SourceModel(p_err=0.01), 300 + seed)
            ok += res.success and res.output.correct
        assert ok >= 9


class TestAbortPaths:
    def test_flipped_commitments(self):
        res = run_cheat(SMALL, NOISELESS, 1, receiver_cls=FlippingReceiver)
        assert res.abort_reason == AbortReason.TEST_FAILED and not res.success

    def test_basis_skew(self):
        res = run_cheat(SMALL, NOISELESS, 2, basis_match_prob=0.95)
        assert res.abort_reason == AbortReason.INSUFFICIENT_BASES

    def test_corrupted_syndrome_never_wrong_key(self):
        for seed in range(5):
            res = run_cheat(SMALL, NOISELESS, 10 + seed,
                            sender_cls=CorruptSyndromeSender)
            assert res.abort_reason == AbortReason.IR_FAILED and not res.success

    def test_multiphoton_threshold(self):
        cfg = replace(SMALL, params=replace(SMALL.params, p_multi=3.67e-3))
        res = run_session(cfg, qsim.SourceModel(p_double=0.05), 3)
        assert res.abort_reason == AbortReason.MULTIPHOTON

    def test_early_message_is_protocol_error(self):
        res = run_cheat(SMALL, NOISELESS, 4, receiver_cls=EarlySepReceiver)
        assert res.abort_reason == AbortReason.PROTOCOL_ERROR

    def test_noise_above_p_max_fails_test(self):
        res = run_session(SMALL, qsim.SourceModel(p_err=0.06), 5)
        assert res.abort_reason == AbortReason.TEST_FAILED

    def test_noncanonical_opening_is_protocol_error(self):
        # the (basis, outcome) pair is bits 7 and 6; the low six bits are zero
        sender, payload = _party_awaiting(SMALL, 9, Msg.OPENINGS)
        record = 1 + SMALL.commit_params.seed_bytes
        body = np.frombuffer(payload, np.uint8).reshape(-1, record).copy()
        body[:, 0] |= 0x3F
        out = sender.on_frame(wire.Frame(Msg.OPENINGS, body.tobytes()))
        assert sender.abort_reason == AbortReason.PROTOCOL_ERROR
        assert [f.type_code for f in out] == [Msg.ABORT]
        assert sender.output is None

    def test_config_mismatch_aborts_in_handshake(self):
        sender, _ = parties(SMALL, NOISELESS, 11)
        _, receiver = parties(desk_config(n0=8192, n=8), NOISELESS, 11)
        hello = sender.start()[0]
        out = receiver.on_frame(hello)
        assert out[0].type_code == Msg.ABORT
        assert receiver.abort_reason == AbortReason.PROTOCOL_ERROR


class TestDriver:
    @pytest.mark.parametrize("role", [0, 1])
    def test_lone_end_times_out_as_transport(self, role):
        actor = parties(SMALL, NOISELESS, 15)[role]
        conn, _ = wire.queue_pair()
        drive((actor, conn), timeout=0)
        assert actor.abort_reason == AbortReason.TRANSPORT
        assert actor.finished and actor.output is None

    def test_corrupted_frame_is_transport_not_raised(self):
        sender, receiver = parties(SMALL, NOISELESS, 16)
        conn_a, conn_b = wire.queue_pair()
        raw = bytearray(wire.Frame(Msg.HELLO, SMALL.serialize()).encode())
        raw[-1] ^= 0xFF  # checksum no longer matches
        conn_a._send_raw(bytes(raw))
        drive((sender, conn_a), (receiver, conn_b), timeout=0)
        assert receiver.abort_reason == AbortReason.TRANSPORT
        assert sender.abort_reason == AbortReason.TRANSPORT
        assert sender.output is None and receiver.output is None

    def test_duplicated_frames_are_protocol_error(self):
        # a frame has no sequence number: each end's script of distinct
        # message types refuses the repeat
        class Doubling(wire.QueueConnection):
            def _send_raw(self, raw):
                super()._send_raw(raw)
                super()._send_raw(raw)

        a_to_b, b_to_a = queue.Queue(), queue.Queue()
        sender, receiver = parties(SMALL, NOISELESS, 16)
        drive((sender, Doubling(b_to_a, a_to_b)),
              (receiver, Doubling(a_to_b, b_to_a)), timeout=0)
        assert receiver.abort_reason == AbortReason.PROTOCOL_ERROR
        assert sender.abort_reason == AbortReason.PROTOCOL_ERROR
        assert sender.output is None and receiver.output is None

    @pytest.mark.parametrize("payload", [b"", b"\x99"])
    def test_unreadable_abort_is_protocol_error(self, payload):
        _, receiver = parties(SMALL, NOISELESS, 17)
        assert receiver.on_frame(wire.Frame(Msg.ABORT, payload)) == []
        assert receiver.abort_reason == AbortReason.PROTOCOL_ERROR


class TestPhaseOrderSafety:
    def test_out_of_phase_messages_abort(self):
        for stray in (Msg.OPENINGS, Msg.SEP, Msg.COMMITMENTS):
            sender, _ = parties(SMALL, NOISELESS, 12)
            sender.start()
            out = sender.on_frame(wire.Frame(stray, b"\x00" * 8))
            assert sender.abort_reason == AbortReason.PROTOCOL_ERROR
            assert out[0].type_code == Msg.ABORT

    def test_garbage_payload_aborts_not_raises(self):
        _, receiver = parties(SMALL, NOISELESS, 13)
        out = receiver.on_frame(wire.Frame(Msg.HELLO, b"\xff" * 13))
        assert receiver.abort_reason == AbortReason.PROTOCOL_ERROR
        assert out[0].type_code == Msg.ABORT

    def test_infinite_f_in_hello_aborts_not_raises(self):
        cfg = desk_config(n0=8192, ir_backend=recon.BACKEND_LDPC)
        fields = list(protocol._CONFIG_STRUCT.unpack(cfg.serialize()))
        # f, the IR efficiency: inf, or finite with f * h(p) * n_raw = inf
        for f in (float("inf"), 1e308):
            fields[10] = f
            _, receiver = parties(cfg, NOISELESS, 18)
            out = receiver.on_frame(
                wire.Frame(Msg.HELLO, protocol._CONFIG_STRUCT.pack(*fields)))
            assert receiver.abort_reason == AbortReason.PROTOCOL_ERROR
            assert out[0].type_code == Msg.ABORT

    @pytest.mark.parametrize("msg", [m for m in Msg if m != Msg.ABORT],
                             ids=lambda m: m.name)
    def test_cut_or_padded_payload_is_protocol_error(self, msg):
        # the size check in on_frame is the only one: no handler reads a
        # count or length from its payload
        cfg = desk_config(n0=8192, ir_backend=recon.BACKEND_LDPC)
        party, payload = _party_awaiting(cfg, 23, msg)
        for bad in (payload[:-1], payload + b"\x00", b""):
            p = copy.copy(party)  # the step and abort state are its own
            out = p.on_frame(wire.Frame(msg, bad))
            assert p.abort_reason == AbortReason.PROTOCOL_ERROR
            assert [f.type_code for f in out] == [Msg.ABORT]
        party.on_frame(wire.Frame(msg, payload))
        assert party.abort_reason is None

    def test_fuzzed_replays_never_complete_wrong(self):
        # collect one honest receiver-to-sender frame sequence, then replay
        # it in shuffled orders against fresh senders
        sender, receiver = parties(SMALL, NOISELESS, 14)
        collected = []
        pending = sender.start()
        while pending:
            frame = pending.pop(0)
            for out in receiver.on_frame(frame):
                collected.append(out)
                pending.extend(sender.on_frame(out))
        assert sender.abort_reason is None and sender.output is not None
        assert [f.type_code for f in collected] == list(sender.reads)

        shuffler = Rng.from_int(99)
        tried = 0
        while tried < 10:
            order = np.argsort(uniform(shuffler, len(collected)))
            if np.array_equal(order, np.arange(len(collected))):
                continue
            tried += 1
            fresh, _ = parties(SMALL, NOISELESS, 14)
            fresh.start()
            for i in order:
                fresh.on_frame(collected[int(i)])
            assert fresh.abort_reason == AbortReason.PROTOCOL_ERROR
            assert fresh.output is None


def _sender_at_sep(seed):
    """An honest sender waiting for SEP, and the receiver's honest SEP payload."""
    sender, receiver = parties(SMALL, NOISELESS, seed)
    pending = sender.start()
    while True:
        for out in receiver.on_frame(pending.pop(0)):
            if out.type_code == Msg.SEP:
                return sender, out.payload
            pending.extend(sender.on_frame(out))


def _party_awaiting(config, seed, msg):
    """The honest party about to receive ``msg`` in its own phase, and the
    honest payload of that message."""
    sender, receiver = parties(config, NOISELESS, seed)
    peer = {sender: receiver, receiver: sender}
    pending = [(receiver, frame) for frame in sender.start()]
    while True:
        to, frame = pending.pop(0)
        if frame.type_code == msg:
            return to, frame.payload
        pending.extend((peer[to], out) for out in to.on_frame(frame))


class TestTestSetBitmap:
    ODD = desk_config(n0=8191)  # N0 % 8 != 0, so the bitmap has a pad bit

    @pytest.mark.parametrize("fault", ["pad_bit", "one_more_member"])
    def test_malformed_test_set_aborts(self, fault):
        p = self.ODD.params
        receiver, payload = _party_awaiting(self.ODD, 41, Msg.TEST_SET)
        if fault == "pad_bit":
            bad = payload[:-1] + bytes([payload[-1] | 1])
        else:
            mask = parse_subset(payload, p.n0, p.n_test).copy()
            mask[np.flatnonzero(~mask)[0]] = True
            bad = pack_bits(mask)
        assert len(bad) == len(payload)
        cheated = copy.copy(receiver)
        out = cheated.on_frame(wire.Frame(Msg.TEST_SET, bad))
        assert cheated.abort_reason == AbortReason.PROTOCOL_ERROR
        assert [f.type_code for f in out] == [Msg.ABORT]
        assert [f.type_code for f in receiver.on_frame(
            wire.Frame(Msg.TEST_SET, payload))] == [Msg.OPENINGS]


class TestPadBits:
    """A set pad bit in any packed field the receiver reads ends the session."""

    @pytest.mark.parametrize("msg, cfg", [
        (Msg.CHALLENGE, desk_config()),
        (Msg.HASH_SEED, desk_config()),
        (Msg.SYNDROMES, desk_config(ir_backend=recon.BACKEND_LDPC)),
        (Msg.BASES, desk_config(n0=8196)),
    ], ids=["challenge", "hash_seed", "syndromes", "bases"])
    def test_set_pad_bit_aborts(self, msg, cfg):
        p = cfg.params
        bits = {Msg.CHALLENGE: cfg.commit_params.n_c,
                Msg.HASH_SEED: p.n_raw + p.n - 1,
                Msg.SYNDROMES: cfg.ir_params.syndrome_bits,
                Msg.BASES: p.n0 - p.n_test}[msg]
        assert bits % 8  # the field has pad bits to set
        assert run_session(cfg, NOISELESS, 6).success
        res = run_cheat(cfg, NOISELESS, 6, sender_cls=partial(PadBitSender, msg=msg))
        assert res.abort_reason == AbortReason.PROTOCOL_ERROR and not res.success


class TestSepDisjointness:
    SEED = 40

    def _split(self, payload):
        p = SMALL.params
        half = len(payload) // 2
        return [parse_subset(part, p.n0 - p.n_test, p.n_raw).copy()
                for part in (payload[:half], payload[half:])]

    def _assert_refused(self, sender, halves):
        out = sender.on_frame(wire.Frame(Msg.SEP, b"".join(map(pack_bits, halves))))
        assert sender.abort_reason == AbortReason.PROTOCOL_ERROR
        assert out[0].type_code == Msg.ABORT and sender.output is None

    def test_honest_pair_accepted(self):
        sender, payload = _sender_at_sep(self.SEED)
        sender.on_frame(wire.Frame(Msg.SEP, payload))
        assert sender.abort_reason is None and sender.output is not None

    @pytest.mark.parametrize("overlap", ["first_second", "second_first"])
    def test_overlapping_sets_abort(self, overlap):
        # one half swaps a member of its own for one of the other half
        sender, payload = _sender_at_sep(self.SEED)
        halves = self._split(payload)
        give, take = (0, 1) if overlap == "first_second" else (1, 0)
        halves[take][np.flatnonzero(halves[take])[0]] = False
        halves[take][np.flatnonzero(halves[give])[0]] = True
        assert [int(h.sum()) for h in halves] == [SMALL.params.n_raw] * 2
        self._assert_refused(sender, halves)

    @pytest.mark.parametrize("short", [0, 1])
    def test_half_one_member_short_aborts(self, short):
        sender, payload = _sender_at_sep(self.SEED)
        halves = self._split(payload)
        halves[short][np.flatnonzero(halves[short])[0]] = False
        self._assert_refused(sender, halves)


class TestLeakLedger:
    def test_transcript_matches_declared_sizes(self):
        res = run_session(SMALL, NOISELESS, 20)
        for msg, size in declared_payload_sizes(SMALL).items():
            assert res.sender_transcript.payload_bytes(msg) == size
            assert res.receiver_transcript.payload_bytes(msg) == size

    @pytest.mark.parametrize("point, test_set, sep, total", [
        ("table1", 732_500, 952_252, 88_944_146),
        ("desk", 8_192, 12_288, 539_331)], ids=["table1", "desk"])
    def test_ldpc_sizes_pinned(self, point, test_set, sep, total):
        # subsets travel as bitmaps: TEST_SET over N0, each SEP half over
        # the N0 - N_test untested rounds
        cfg = (SessionConfig(TABLE1_PARAMS, ir_backend=recon.BACKEND_LDPC)
               if point == "table1" else desk_config(ir_backend=recon.BACKEND_LDPC))
        sizes = declared_payload_sizes(cfg)
        assert (sizes[Msg.TEST_SET], sizes[Msg.SEP]) == (test_set, sep)
        assert sum(sizes.values()) == total

    def test_every_message_but_abort_is_sized(self):
        assert set(declared_payload_sizes(SMALL)) == set(Msg) - {Msg.ABORT}

    def test_ldpc_leak_includes_syndrome(self):
        cfg = desk_config(n0=8192, ir_backend=recon.BACKEND_LDPC)
        res = run_session(cfg, qsim.SourceModel(p_err=0.01), 21)
        declared = declared_payload_sizes(cfg)
        assert res.sender_transcript.payload_bytes(Msg.SYNDROMES) == \
            declared[Msg.SYNDROMES]
        assert declared[Msg.SYNDROMES] > 2 * (32 + 4 + 2 + 2)

    def test_syndromes_sized_by_config(self):
        cfg = desk_config(ir_backend=recon.BACKEND_LDPC)
        ir = cfg.ir_params
        assert declared_payload_sizes(cfg)[Msg.SYNDROMES] == \
            2 * ((ir.syndrome_bits + 7) // 8 + (ir.tag_bits + 7) // 8)

    def test_one_code_per_config(self):
        # the code is public and fixed by the config: sessions at other
        # seeds build no new graph
        cfg = desk_config(n0=8192, ir_backend=recon.BACKEND_LDPC)
        before = recon._code_structure.cache_info().misses
        for seed in (24, 25, 26):
            assert run_session(cfg, qsim.SourceModel(p_err=0.01), seed).success
        assert recon._code_structure.cache_info().misses - before <= 1

    def test_transcripts_mirror_each_other(self, digests):
        res = run_session(SMALL, NOISELESS, 22)
        sent = [row[1:] for row in res.sender_transcript.rows() if row[0] == "send"]
        seen = [row[1:] for row in res.receiver_transcript.rows() if row[0] == "recv"]
        assert sent and sent == seen


# Seeded desk-LDPC sessions at SourceModel(p_err=0.01): seed -> (choice bit,
# m0, m1, blake2b-64 digest of every frame payload in session order).
# Frame i has type _GOLDEN_TYPES[i] and length _GOLDEN_LENGTHS[i].
_GOLDEN_TYPES = [Msg.HELLO, Msg.CHALLENGE, Msg.COMMITMENTS, Msg.TEST_SET,
                 Msg.OPENINGS, Msg.BASES, Msg.SEP, Msg.SYNDROMES, Msg.HASH_SEED]
_GOLDEN_LENGTHS = [82, 7, 458752, 8192, 49152, 6144, 12288, 1824, 2890]
_GOLDEN_SENDER_DIRS = ["send", "send", "recv", "send", "recv", "send", "recv",
                       "send", "send"]
_GOLDEN_LDPC = {
    1: (0, 32676, 15766,
        ["721a19236198a158", "99e421e504dc2134", "4939d1a891340da2",
         "af8c4adb7f92d30d", "c85be9c97735b9f6", "f58fa832acc30bf5",
         "6a2d540094117faf", "87e2287d4f31dc21", "82a69db48d59042c"]),
    2: (0, 24437, 63426,
        ["721a19236198a158", "35982e11b353bc2d", "15d47ba32c48f99f",
         "ea9144957bcd6d5f", "889b17447c47cb02", "eadba61cc5233250",
         "0d3063ac5912e59c", "8a0914f5f00df4a8", "8cfa2ecd9a1801f1"]),
    3: (1, 54400, 1281,
        ["721a19236198a158", "67e1864d23d0c8dc", "ff96bca73a9aa434",
         "2472e077c56624a0", "9c90c449fdd5cf15", "ebef6c0d5d5bae66",
         "c582554c864ea75d", "f130612d7cd486cf", "4e7f5ce8ab4de6a1"]),
}


class TestGoldenSessions:
    """Seeded sessions stay byte-for-byte identical: outputs and every
    frame either party recorded."""

    @pytest.mark.parametrize("seed", sorted(_GOLDEN_LDPC))
    def test_ldpc_session_pinned(self, seed, digests):
        c, m0, m1, digests = _GOLDEN_LDPC[seed]
        cfg = desk_config(ir_backend=recon.BACKEND_LDPC)
        res = run_session(cfg, qsim.SourceModel(p_err=0.01), seed)
        assert res.success
        out = res.output
        assert out.receiver.c == c
        assert out.sender.m0 == BitString.from_int(m0, 16)
        assert out.sender.m1 == BitString.from_int(m1, 16)
        assert out.receiver.m_c == (out.sender.m0, out.sender.m1)[c]

        frames = list(zip(_GOLDEN_TYPES, _GOLDEN_LENGTHS, digests))
        flip = {"send": "recv", "recv": "send"}
        assert res.sender_transcript.rows() == \
            [(d,) + f for d, f in zip(_GOLDEN_SENDER_DIRS, frames)]
        assert res.receiver_transcript.rows() == \
            [(flip[d],) + f for d, f in zip(_GOLDEN_SENDER_DIRS, frames)]


class TestHeldState:
    def test_commitment_state_released(self, monkeypatch):
        # the sender keeps only the tested rows of COMMITMENTS (all N0 rows
        # are 76 MB at Table-1) until OPENINGS reads them, and the receiver
        # its N0 seeds until it has built OPENINGS
        held = {}
        on_commitments = protocol.SenderSession._on_commitments

        def keep_shape(sender, payload):
            frames = on_commitments(sender, payload)
            held["coms"] = sender.coms.shape
            return frames

        monkeypatch.setattr(protocol.SenderSession, "_on_commitments", keep_shape)
        cfg = desk_config(ir_backend=recon.BACKEND_LDPC)
        sender, receiver = parties(cfg, qsim.SourceModel(p_err=0.01), 1)
        assert run_parties(sender, receiver).success
        assert held["coms"] == (cfg.params.n_test, cfg.commit_params.com_bytes)
        assert sender.coms is None and receiver.seeds is None


class TestIndependenceShadow:
    def test_unchosen_string_independent_of_receiver_bits(self):
        # classical shadow of the hiding property: the receiver's output
        # carries no information about the string he did not pick
        cfg = desk_config(n0=4096, n=8)
        joint = np.zeros((2, 2), dtype=np.int64)
        for seed in range(400):
            res = run_session(cfg, NOISELESS, 5000 + seed)
            if not res.success:
                # at this tiny N0 the |I_s| >= N_check margin is ~1.9 sigma,
                # so a few honest sessions fail the count check
                assert res.abort_reason == AbortReason.TEST_FAILED
                continue
            other = res.output.sender.m1 if res.output.receiver.c == 0 \
                else res.output.sender.m0
            joint[res.output.receiver.m_c.bits()[0], other.bits()[0]] += 1
        assert joint.sum() >= 350
        _, p, _, _ = scipy.stats.chi2_contingency(joint)
        assert p > 0.01


class TestSocketEquivalence:
    def test_socket_and_queue_backends_agree(self):
        cfg = desk_config(n0=4096, n=8)
        base = run_session(cfg, NOISELESS, 33)
        assert base.success

        sender, receiver = parties(cfg, NOISELESS, 33)
        max_payload = max(declared_payload_sizes(cfg).values())

        import socket as socketlib
        srv = socketlib.socket(socketlib.AF_INET, socketlib.SOCK_STREAM)
        srv.setsockopt(socketlib.SOL_SOCKET, socketlib.SO_REUSEADDR, 1)
        srv.bind(("127.0.0.1", 0))
        srv.listen(1)
        port = srv.getsockname()[1]
        holder = {}

        def serve():
            sock, _ = srv.accept()
            holder["conn"] = wire.SocketConnection(sock, max_payload)
            drive((sender, holder["conn"]), timeout=10)

        t = threading.Thread(target=serve)
        t.start()
        conn = wire.connect("127.0.0.1", port, max_payload)
        drive((receiver, conn), timeout=10)
        t.join()
        conn.close()
        holder["conn"].close()
        srv.close()

        assert sender.output is not None and receiver.output is not None
        assert sender.output == base.output.sender
        assert receiver.output == base.output.receiver
