from dataclasses import dataclass

import numpy as np
import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

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


# The per-bit batch commitment, the oracle for the table XOR: the hash of
# each seed row (AES blocks encrypted one row at a time), then one masked
# XOR of a basis vector per message bit.

def _owf_reference(hash_id, seeds, out_bits):
    out_bytes = (out_bits + 7) // 8
    if hash_id != HASH_AES128:
        return commit.owf_expand_batch(hash_id, seeds, out_bits)
    nblocks = (out_bytes + 15) // 16
    out = np.empty((len(seeds), out_bytes), dtype=np.uint8)
    for i, seed in enumerate(seeds):
        blocks = bytearray()
        for c in range(nblocks):
            block = bytearray(16)
            block[:seed.size] = seed.tobytes()
            block[15] ^= c
            blocks += block
        enc = Cipher(algorithms.AES(bytes(range(16))), modes.ECB()).encryptor()
        out[i] = np.frombuffer(enc.update(bytes(blocks)), np.uint8)[:out_bytes]
    if out_bits % 8:
        out[:, -1] &= (0xFF << (8 - out_bits % 8)) & 0xFF
    return out


def _commit_batch_reference(msgs, seeds, r, params, hash_id):
    coms = _owf_reference(hash_id, seeds, params.n_c)
    basis = commit._basis_words(r, params)
    for i in range(params.n_msg):
        np.bitwise_xor(coms, basis[i][None, :], out=coms,
                       where=msgs[:, i:i + 1].astype(bool))
    return coms


# com_bytes 7, 8, 9, 16, 17 for every n_msg in 1..3 (either side of a
# 64-bit word and of an AES block); k = 32 and 64 give seeds of 4 and 8
# bytes, and k = 64 two AES blocks per commitment
_KS = [16, 19, 22, 40, 43, 32, 64]


def _layouts(seeds):
    """The seed array as given, as a column slice of a wider record (the
    verifier's view of an OPENINGS body) and in Fortran order."""
    body = np.concatenate([np.zeros((len(seeds), 1), np.uint8), seeds], axis=1)
    return {"contiguous": seeds, "record slice": body[:, 1:],
            "fortran": np.asfortranarray(seeds)}


class TestTableXor:
    def test_ks_cover_the_word_and_block_edges(self):
        for n_msg in (1, 2, 3):
            sizes = {CommitParams(k=k, n_msg=n_msg).com_bytes for k in _KS[:5]}
            assert sizes == {7, 8, 9, 16, 17}

    @pytest.mark.parametrize("hash_id", [HASH_AES128, HASH_BLAKE2, HASH_TOY16])
    @pytest.mark.parametrize("n_msg", [1, 2, 3])
    @pytest.mark.parametrize("k", _KS)
    def test_equals_per_bit_xor(self, k, n_msg, hash_id):
        params = CommitParams(k=k, n_msg=n_msg)
        rng = _rng(k * 10 + n_msg)
        r = sample_challenge(rng, params)
        n = 40  # every message value occurs
        msgs = (np.frombuffer(rng.bytes(n * n_msg), np.uint8) & 1).reshape(n, n_msg)
        msgs[:1 << n_msg] = (np.arange(1 << n_msg)[:, None] >> np.arange(n_msg)) & 1
        seeds = np.frombuffer(rng.bytes(n * params.seed_bytes),
                              np.uint8).reshape(n, params.seed_bytes)
        expect = _commit_batch_reference(msgs, seeds, r, params, hash_id)
        for layout, given in _layouts(seeds).items():
            got = commit_batch(msgs, given, r, params, hash_id)
            assert got.dtype == np.uint8 and got.shape == (n, params.com_bytes)
            assert got.flags.c_contiguous
            assert np.array_equal(got, expect), layout
        pad = params.com_bytes * 8 - params.n_c
        assert not np.any(got[:, -1] & ((1 << pad) - 1))

    @pytest.mark.parametrize("k", _KS)
    def test_verify_rejects_one_flipped_bit_in_any_byte(self, k):
        params = CommitParams(k=k, n_msg=2)
        rng = _rng(200 + k)
        r = sample_challenge(rng, params)
        n = params.com_bytes
        msgs = (np.frombuffer(rng.bytes(2 * n), np.uint8) & 1).reshape(n, 2)
        seeds = np.frombuffer(rng.bytes(n * params.seed_bytes),
                              np.uint8).reshape(n, params.seed_bytes)
        coms = commit_batch(msgs, seeds, r, params, HASH_AES128)
        assert verify_batch(coms, msgs, seeds, r, params, HASH_AES128).all()
        for col in range(params.com_bytes):
            bad = coms.copy()
            # every bit of the bytes before the last is a commitment bit,
            # and so is the top bit of the last byte
            bad[col, col] ^= 0x80 >> (col % 8 if col < params.com_bytes - 1 else 0)
            ok = verify_batch(bad, msgs, seeds, r, params, HASH_AES128)
            assert not ok[col] and ok.sum() == n - 1
