from dataclasses import dataclass

import numpy as np
import pytest

from qrot import commit
from qrot.bitcore import BitString, Rng
from qrot.commit import (HASH_AES128, HASH_BLAKE2, HASH_TOY16, Challenge,
                         CommitError, CommitParams, commit_batch,
                         derive_basis, sample_challenge, verify_batch)

PARAMS = CommitParams(k=32, n_msg=2)


# The scalar commitment path: one message at a time, the oracle for the
# batch path the protocol uses.

def owf_expand(hash_id, data, out_bits):
    arr = np.frombuffer(data, dtype=np.uint8).reshape(1, -1)
    return BitString(commit.owf_expand_batch(hash_id, arr, out_bits)[0], out_bits)


@dataclass(frozen=True)
class Opening:
    message: BitString
    seed: BitString

    def serialize(self):
        return self.message.serialize() + self.seed.serialize()

    @classmethod
    def parse(cls, raw):
        message, used = BitString.parse(raw)
        seed, used2 = BitString.parse(raw[used:])
        if used + used2 != len(raw):
            raise CommitError("trailing bytes in opening")
        return cls(message, seed)


def commit_one(m, s, r, params, hash_id=HASH_BLAKE2):
    if m.length != params.n_msg or s.length != params.n_s:
        raise CommitError("message or seed length mismatch")
    basis = derive_basis(r, params.n_msg)
    com = owf_expand(hash_id, s.payload, params.n_c)
    for i, bit in enumerate(m.bits()):
        if bit:
            com = com ^ basis[i]
    return com


def verify(com, opening, r, params, hash_id=HASH_BLAKE2):
    """Recompute the commitment; returns the message, or None on reject."""
    try:
        if opening.message.length != params.n_msg or opening.seed.length != params.n_s:
            return None
        expected = commit_one(opening.message, opening.seed, r, params, hash_id)
    except (CommitError, ValueError):
        return None
    return opening.message if expected == com else None


def _rng(i=0):
    return Rng.from_int(1000 + i)


class TestParams:
    def test_derived_lengths(self):
        p = CommitParams(k=32, n_msg=2)
        assert (p.n_r, p.n_c, p.n_s) == (98, 98, 32)

    def test_small_k_rejected(self):
        with pytest.raises(CommitError):
            CommitParams(k=4, n_msg=2)


class TestOwf:
    def test_deterministic_per_plugin(self):
        for hid in (HASH_BLAKE2, HASH_AES128, HASH_TOY16):
            a = owf_expand(hid, b"\x01\x02", 37)
            b = owf_expand(hid, b"\x01\x02", 37)
            assert a == b and a.length == 37

    def test_plugins_disagree(self):
        outs = {owf_expand(h, b"\x01\x02", 64).to_int()
                for h in (HASH_BLAKE2, HASH_AES128, HASH_TOY16)}
        assert len(outs) == 3

    def test_batch_matches_single(self):
        seeds = np.frombuffer(_rng().bytes(40), np.uint8).reshape(10, 4)
        for hid in (HASH_BLAKE2, HASH_AES128, HASH_TOY16):
            batch = commit.owf_expand_batch(hid, seeds, 50)
            for i in range(10):
                assert BitString(batch[i], 50) == owf_expand(hid, seeds[i].tobytes(), 50)

    def test_unknown_id_rejected(self):
        with pytest.raises(CommitError):
            owf_expand(0x42, b"\x00", 8)


class TestChallenge:
    def test_never_zero(self):
        with pytest.raises(CommitError):
            Challenge(BitString.zeros(16))
        for i in range(20):
            assert sample_challenge(_rng(i), PARAMS).r1.popcount() > 0

    def test_basis_linearly_independent(self):
        r = sample_challenge(_rng(), CommitParams(k=32, n_msg=8))
        basis = derive_basis(r, 8)
        # GF(2) rank check by elimination over integer encodings
        pivots = []
        for v in basis:
            x = v.to_int()
            for p in pivots:
                x = min(x, x ^ p)
            assert x != 0
            pivots.append(x)

    def test_basis_deterministic_in_challenge(self):
        r = sample_challenge(_rng(), PARAMS)
        assert derive_basis(r, 2) == derive_basis(r, 2)


class TestCommitVerify:
    def test_round_trip(self):
        rng = _rng()
        r = sample_challenge(rng, PARAMS)
        m, s = rng.bits(2), rng.bits(PARAMS.n_s)
        com = commit_one(m, s, r, PARAMS)
        assert verify(com, Opening(m, s), r, PARAMS) == m

    def test_wrong_seed_rejected(self):
        rng = _rng(1)
        r = sample_challenge(rng, PARAMS)
        m, s = rng.bits(2), rng.bits(PARAMS.n_s)
        com = commit_one(m, s, r, PARAMS)
        assert verify(com, Opening(m, rng.bits(PARAMS.n_s)), r, PARAMS) is None

    def test_wrong_message_rejected(self):
        rng = _rng(2)
        r = sample_challenge(rng, PARAMS)
        m, s = BitString.from_bits([0, 1]), rng.bits(PARAMS.n_s)
        com = commit_one(m, s, r, PARAMS)
        assert verify(com, Opening(BitString.from_bits([1, 1]), s), r, PARAMS) is None

    def test_verify_never_raises_on_garbage(self):
        rng = _rng(3)
        r = sample_challenge(rng, PARAMS)
        com = rng.bits(PARAMS.n_c)
        bad = Opening(rng.bits(5), rng.bits(3))  # wrong lengths
        assert verify(com, bad, r, PARAMS) is None

    def test_zero_message_is_bare_hash(self):
        rng = _rng(4)
        r = sample_challenge(rng, PARAMS)
        s = rng.bits(PARAMS.n_s)
        com = commit_one(BitString.zeros(2), s, r, PARAMS)
        assert com == owf_expand(HASH_BLAKE2, s.payload, PARAMS.n_c)

    def test_opening_wire_round_trip(self):
        o = Opening(BitString.from_bits([1, 0]), _rng(5).bits(32))
        assert Opening.parse(o.serialize()) == o


class TestBatch:
    def test_batch_equals_single(self):
        rng = _rng(6)
        r = sample_challenge(rng, PARAMS)
        n = 64
        msgs = (np.frombuffer(rng.bytes(2 * n), np.uint8) & 1).reshape(n, 2)
        seeds = np.frombuffer(rng.bytes(n * PARAMS.seed_bytes),
                              np.uint8).reshape(n, PARAMS.seed_bytes)
        coms = commit_batch(msgs, seeds, r, PARAMS, HASH_AES128)
        for i in range(n):
            single = commit_one(BitString.from_bits(msgs[i]),
                                BitString(seeds[i], PARAMS.n_s), r, PARAMS,
                                HASH_AES128)
            assert BitString(coms[i], PARAMS.n_c) == single

    def test_verify_batch_flags_tampering(self):
        rng = _rng(7)
        r = sample_challenge(rng, PARAMS)
        n = 32
        msgs = (np.frombuffer(rng.bytes(2 * n), np.uint8) & 1).reshape(n, 2)
        seeds = np.frombuffer(rng.bytes(n * PARAMS.seed_bytes),
                              np.uint8).reshape(n, PARAMS.seed_bytes)
        coms = commit_batch(msgs, seeds, r, PARAMS, HASH_AES128)
        bad = msgs.copy()
        bad[5] ^= 1
        ok = verify_batch(coms, bad, seeds, r, PARAMS, HASH_AES128)
        assert not ok[5] and ok.sum() == n - 1
