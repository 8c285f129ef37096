import copy
import threading
from dataclasses import replace

import numpy as np
import pytest
import scipy.stats

from qrot import protocol, qsim, recon, wire
from qrot.bitcore import BitString, IndexSet, Rng
from qrot.bounds import TABLE1_PARAMS
from qrot.protocol import (AbortReason, Msg, SessionConfig,
                           declared_payload_sizes, desk_config, drive, parties,
                           run_session)
from cheats import (CorruptSyndromeSender, EarlySepReceiver, FlippingReceiver,
                    OversizedCommitmentsReceiver, drive_pair, run_cheat)

SMALL = desk_config(n0=8192)
NOISELESS = qsim.SourceModel()


class TestSessionConfig:
    def test_wire_round_trip(self):
        cfg = desk_config()
        assert SessionConfig.parse(cfg.serialize()) == cfg

    def test_bad_version_rejected(self):
        raw = bytearray(desk_config().serialize())
        # 1: the HELLO with a hash id byte; 2: the wire format with count
        # and length headers
        for version in (1, 2, 99):
            raw[0] = version
            with pytest.raises(protocol.ProtocolError):
                SessionConfig.parse(bytes(raw))

    def test_derived_ir_params(self):
        cfg = desk_config(ir_backend=recon.BACKEND_LDPC)
        assert cfg.ir_params.n_raw == cfg.params.n_raw
        assert cfg.ir_params.p_design == pytest.approx(0.04)

    def test_unsendable_frame_rejected_at_construction(self):
        # Table 1's COMMITMENTS message does not fit one wire frame
        with pytest.raises(protocol.ProtocolError,
                           match=r"COMMITMENTS payload is 76180000 B"):
            SessionConfig(TABLE1_PARAMS, ir_backend=recon.BACKEND_LDPC)

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

    def test_unframeable_reply_is_protocol_error(self):
        # Frame() refuses the reply with a WireError, which is the cheater's
        # own fault, not a broken link: it aborts, and the sender hears why
        sender, receiver = parties(SMALL, NOISELESS, 6)
        cheat = OversizedCommitmentsReceiver(SMALL, receiver.view, receiver.rng)
        drive_pair(sender, cheat)
        assert cheat.abort_reason == AbortReason.PROTOCOL_ERROR
        assert sender.abort_reason == AbortReason.PROTOCOL_ERROR
        last = cheat.transcript.entries[-1]
        assert (last.direction, last.type_code) == ("send", Msg.ABORT)

    def test_noise_above_p_max_fails_test(self):
        res = run_session(SMALL, qsim.SourceModel(p_err=0.06), 5)
        assert res.abort_reason == AbortReason.TEST_FAILED

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
        assert actor.phase == protocol.Phase.ABORTED

    def test_corrupted_frame_is_transport_not_raised(self):
        sender, receiver = parties(SMALL, NOISELESS, 16)
        conn_a, conn_b = wire.queue_pair()
        raw = bytearray(wire.Frame(Msg.HELLO, SMALL.serialize()).encode(0))
        raw[-1] ^= 0xFF  # checksum no longer matches
        conn_a._send_raw(bytes(raw))
        drive((sender, conn_a), (receiver, conn_b), timeout=0)
        assert receiver.abort_reason == AbortReason.TRANSPORT
        assert sender.abort_reason == AbortReason.TRANSPORT
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
            p = copy.copy(party)  # the phase and abort state are its own
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
        assert sender.phase == protocol.Phase.DONE
        assert len(collected) == 4  # ACK, COMMITMENTS, OPENINGS, SEP

        shuffler = Rng.from_int(99)
        tried = 0
        while tried < 10:
            order = np.argsort(shuffler.uniform(len(collected)))
            if np.array_equal(order, np.arange(len(collected))):
                continue
            tried += 1
            fresh, _ = parties(SMALL, NOISELESS, 14)
            fresh.start()
            for i in order:
                fresh.on_frame(collected[int(i)])
            assert fresh.phase == protocol.Phase.ABORTED
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


def _with_member(s: IndexSet, value: int) -> IndexSet:
    """``s`` with its first index replaced by ``value``; same size."""
    return IndexSet(np.concatenate([[value], s.indices[1:]]), s.universe)


class TestSepDisjointness:
    SEED = 40

    def _split(self, payload):
        half = len(payload) // 2
        return (IndexSet.parse(payload[:half], SMALL.params.n0),
                IndexSet.parse(payload[half:], SMALL.params.n0))

    def test_honest_pair_accepted(self):
        sender, payload = _sender_at_sep(self.SEED)
        sender.on_frame(wire.Frame(Msg.SEP, payload))
        assert sender.phase == protocol.Phase.DONE

    @pytest.mark.parametrize("overlap", ["first_second", "first_test",
                                         "second_test"])
    def test_overlapping_sets_abort(self, overlap):
        sender, payload = _sender_at_sep(self.SEED)
        first, second = self._split(payload)
        tested = int(sender.test_set.indices[0])
        if overlap == "first_second":
            second = _with_member(second, int(first.indices[0]))
        elif overlap == "first_test":
            first = _with_member(first, tested)
        else:
            second = _with_member(second, tested)
        assert len(first) == len(second) == SMALL.params.n_raw
        out = sender.on_frame(wire.Frame(Msg.SEP,
                                         first.serialize() + second.serialize()))
        assert sender.abort_reason == AbortReason.PROTOCOL_ERROR
        assert out[0].type_code == Msg.ABORT and sender.output is None


class TestLeakLedger:
    def test_transcript_matches_declared_sizes(self):
        res = run_session(SMALL, NOISELESS, 20)
        for msg, size in declared_payload_sizes(SMALL).items():
            assert res.sender_transcript.payload_bytes(msg) == size
            assert res.receiver_transcript.payload_bytes(msg) == size

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

    def test_transcripts_mirror_each_other(self):
        res = run_session(SMALL, NOISELESS, 22)
        sent = [(e.type_code, e.length, e.digest)
                for e in res.sender_transcript.entries if e.direction == "send"]
        seen = [(e.type_code, e.length, e.digest)
                for e in res.receiver_transcript.entries if e.direction == "recv"]
        assert sent == seen


# Seeded desk-LDPC sessions at SourceModel(p_err=0.01): seed -> (choice bit,
# m0, m1, blake2b-64 digest of every frame payload in session order).
# Frame i has type code i + 1 and length _GOLDEN_LENGTHS[i].
_GOLDEN_LENGTHS = [82, 24, 7, 458752, 65536, 49152, 6144, 184808, 1824, 2890]
_GOLDEN_SENDER_DIRS = ["send", "recv"] * 4 + ["send", "send"]
_GOLDEN_LDPC = {
    1: (0, 37177, 9305,
        ["9ccbb77cbd5e3f19", "f3d40a398a067c2a", "99e421e504dc2134",
         "4939d1a891340da2", "4f1d5772b8f4e992", "c85be9c97735b9f6",
         "f58fa832acc30bf5", "0e31197741acedbc", "2ed4bf06e774bef2",
         "82a69db48d59042c"]),
    2: (0, 16551, 60528,
        ["9ccbb77cbd5e3f19", "f3d40a398a067c2a", "35982e11b353bc2d",
         "15d47ba32c48f99f", "98edda24e1cd2d88", "889b17447c47cb02",
         "eadba61cc5233250", "c816f0a02da6c4d4", "290dc90b878e9a8d",
         "8cfa2ecd9a1801f1"]),
    3: (1, 9346, 19966,
        ["9ccbb77cbd5e3f19", "f3d40a398a067c2a", "67e1864d23d0c8dc",
         "ff96bca73a9aa434", "cbe6797abbb1ba2a", "9c90c449fdd5cf15",
         "ebef6c0d5d5bae66", "beff079d90daf277", "f20df1a11b183d01",
         "4e7f5ce8ab4de6a1"]),
}


class TestGoldenSessions:
    """Seeded sessions stay byte-for-byte identical: outputs and every
    frame either party recorded."""

    @pytest.mark.parametrize("seed", sorted(_GOLDEN_LDPC))
    def test_ldpc_session_pinned(self, seed):
        c, m0, m1, digests = _GOLDEN_LDPC[seed]
        cfg = desk_config(ir_backend=recon.BACKEND_LDPC)
        res = run_session(cfg, qsim.SourceModel(p_err=0.01), seed)
        assert res.success
        out = res.output
        assert out.receiver.c == c
        assert out.sender.m0 == BitString.from_int(m0, 16)
        assert out.sender.m1 == BitString.from_int(m1, 16)
        assert out.receiver.m_c == (out.sender.m0, out.sender.m1)[c]

        frames = [(i + 1, n, d) for i, (n, d)
                  in enumerate(zip(_GOLDEN_LENGTHS, digests))]
        flip = {"send": "recv", "recv": "send"}
        assert [(e.direction, e.type_code, e.length, e.digest)
                for e in res.sender_transcript.entries] == \
            [(d,) + f for d, f in zip(_GOLDEN_SENDER_DIRS, frames)]
        assert [(e.direction, e.type_code, e.length, e.digest)
                for e in res.receiver_transcript.entries] == \
            [(flip[d],) + f for d, f in zip(_GOLDEN_SENDER_DIRS, frames)]


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
            joint[res.output.receiver.m_c[0], other[0]] += 1
        assert joint.sum() >= 350
        _, p, _, _ = scipy.stats.chi2_contingency(joint)
        assert p > 0.01


class TestSocketEquivalence:
    def test_socket_and_queue_backends_agree(self):
        cfg = desk_config(n0=4096, n=8)
        base = run_session(cfg, NOISELESS, 33)
        assert base.success

        sender, receiver = parties(cfg, NOISELESS, 33)

        import socket as socketlib
        srv = socketlib.socket(socketlib.AF_INET, socketlib.SOCK_STREAM)
        srv.setsockopt(socketlib.SOL_SOCKET, socketlib.SO_REUSEADDR, 1)
        srv.bind(("127.0.0.1", 0))
        srv.listen(1)
        port = srv.getsockname()[1]
        holder = {}

        def serve():
            sock, _ = srv.accept()
            holder["conn"] = wire.SocketConnection(sock)
            drive((sender, holder["conn"]), timeout=10)

        t = threading.Thread(target=serve)
        t.start()
        conn = wire.connect("127.0.0.1", port)
        drive((receiver, conn), timeout=10)
        t.join()
        conn.close()
        holder["conn"].close()
        srv.close()

        assert sender.output is not None and receiver.output is not None
        assert sender.output == base.output.sender
        assert receiver.output == base.output.receiver
