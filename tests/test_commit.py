import hashlib
from dataclasses import dataclass

import numpy as np
import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from qrot import commit
from qrot.bitcore import BitString, Rng
from qrot.commit import (HASH_AES128, Challenge, CommitError, CommitParams,
                         commit_batch, derive_basis, sample_challenge,
                         verify_batch)
from test_acceptance import _toy_hash

PARAMS = CommitParams(k=32)

# com_bytes 7, 8, 9, 16, 17 (either side of a 64-bit word and of an AES
# block); k = 32 and 64 give seeds of 4 and 8 bytes, and k = 64 two AES
# blocks per commitment
_KS = [16, 19, 22, 40, 43, 32, 64]


# The scalar commitment path: one message at a time, the oracle for the
# batch path the protocol uses. A message is the code's two bits, (basis,
# outcome), and bit i selects basis vector i.

def owf_expand(data, out_bits):
    arr = np.frombuffer(data, dtype=np.uint8).reshape(1, -1)
    return BitString(_owf_reference(arr, out_bits)[0], out_bits)


@dataclass(frozen=True)
class Opening:
    message: BitString
    seed: BitString


def commit_one(m, s, r, params):
    if m.length != 2 or s.length != params.n_s:
        raise CommitError("message or seed length mismatch")
    basis = derive_basis(r)
    com = owf_expand(s.payload, params.n_c)
    for i, bit in enumerate(m.bits()):
        if bit:
            com = com ^ basis[i]
    return com


def verify(com, opening, r, params):
    """Recompute the commitment; returns the message, or None on reject."""
    try:
        if opening.message.length != 2 or opening.seed.length != params.n_s:
            return None
        expected = commit_one(opening.message, opening.seed, r, params)
    except (CommitError, ValueError):
        return None
    return opening.message if expected == com else None


# The general basis derivation, the oracle for derive_basis: n vectors, r1
# first, then each PRNG draw that is independent of those before it
# (incremental Gaussian elimination on integer encodings).

def _to_int(b):
    return int.from_bytes(b.payload, "big") >> (8 * len(b.payload) - b.length)


def _eliminated_basis(r, n):
    basis, pivots = [r.r1], [_to_int(r.r1)]
    prng = Rng(hashlib.blake2b(b"qrot-basis" + r.r1.serialize(), digest_size=32).digest())
    while len(basis) < n:
        cand = prng.bits(r.r1.length)
        x = _to_int(cand)
        for p in pivots:
            x = min(x, x ^ p)
        if x:
            basis.append(cand)
            pivots.append(x)
            pivots.sort(reverse=True)
    return basis


def _rng(i=0):
    return Rng.from_int(1000 + i)


class TestParams:
    def test_derived_lengths(self):
        p = CommitParams(k=32)
        assert (p.n_c, p.n_s, p.com_bytes, p.seed_bytes) == (98, 32, 13, 4)

    def test_small_k_rejected(self):
        with pytest.raises(CommitError):
            CommitParams(k=4)


class TestOwf:
    def test_batch_matches_single(self):
        # 20 bytes: two AES blocks per seed, the second with counter 1
        seeds = np.frombuffer(_rng().bytes(40), np.uint8).reshape(10, 4)
        batch = commit._owf_words(seeds, 20)
        assert batch.shape == (10, 32)
        for i in range(10):
            assert np.array_equal(batch[i, :20], _owf_reference(seeds[i:i + 1], 160)[0])

    def test_unknown_id_rejected(self):
        rng = _rng()
        r = sample_challenge(rng, PARAMS)
        msgs = np.zeros(1, np.uint8)
        seeds = np.frombuffer(rng.bytes(PARAMS.seed_bytes), np.uint8).reshape(1, -1)
        for hash_id in (0x01, 0x42, 0x7F):  # 0x01 and 0x7F were BLAKE2 and toy16
            with pytest.raises(CommitError):
                commit_batch(msgs, seeds, r, PARAMS, hash_id)


class TestChallenge:
    def test_never_zero(self):
        with pytest.raises(CommitError):
            Challenge(BitString.zeros(16))
        for i in range(20):
            assert sample_challenge(_rng(i), PARAMS).r1.popcount() > 0

    def test_basis_linearly_independent(self):
        for i in range(20):
            r = sample_challenge(_rng(i), PARAMS)
            r1, r2 = derive_basis(r)
            assert r1 == r.r1 and r2.length == r1.length
            # over GF(2), two vectors are independent iff neither is zero
            # and they differ
            assert r2.popcount() and (r1 ^ r2).popcount()

    def test_basis_deterministic_in_challenge(self):
        r = sample_challenge(_rng(), PARAMS)
        assert derive_basis(r) == derive_basis(r)

    @pytest.mark.parametrize("k", _KS)
    def test_basis_is_the_eliminations_first_two(self, k):
        params = CommitParams(k=k)
        for i in range(20):
            r = sample_challenge(_rng(100 * k + i), params)
            assert derive_basis(r) == tuple(_eliminated_basis(r, 2))

    def test_basis_skips_zero_and_r1(self, monkeypatch):
        # the rejection branch: draws of zero and of r1 itself are passed
        # over, which a real PRNG at these widths all but never produces
        r = sample_challenge(_rng(), PARAMS)
        want = _rng(9).bits(PARAMS.n_c)
        draws = [BitString.zeros(PARAMS.n_c), r.r1, r.r1, want]

        class Scripted:
            def __init__(self, key):
                pass

            def bits(self, n):
                assert n == PARAMS.n_c
                return draws.pop(0)

        monkeypatch.setattr(commit, "Rng", Scripted)
        assert derive_basis(r) == (r.r1, want) and not draws


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
        assert com == owf_expand(s.payload, PARAMS.n_c)


class TestBatch:
    def test_batch_equals_single(self):
        rng = _rng(6)
        r = sample_challenge(rng, PARAMS)
        n = 64
        msgs = np.frombuffer(rng.bytes(n), np.uint8) & 3
        seeds = np.frombuffer(rng.bytes(n * PARAMS.seed_bytes),
                              np.uint8).reshape(n, PARAMS.seed_bytes)
        coms = commit_batch(msgs, seeds, r, PARAMS, HASH_AES128)
        for i in range(n):
            single = commit_one(BitString.from_bits([msgs[i] >> 1, msgs[i] & 1]),
                                BitString(seeds[i], PARAMS.n_s), r, PARAMS)
            assert BitString(coms[i], PARAMS.n_c) == single

    def test_verify_batch_flags_tampering(self):
        rng = _rng(7)
        r = sample_challenge(rng, PARAMS)
        n = 32
        msgs = np.frombuffer(rng.bytes(n), np.uint8) & 3
        seeds = np.frombuffer(rng.bytes(n * PARAMS.seed_bytes),
                              np.uint8).reshape(n, PARAMS.seed_bytes)
        coms = commit_batch(msgs, seeds, r, PARAMS, HASH_AES128)
        bad = msgs.copy()
        bad[5] ^= 1
        ok = verify_batch(coms, bad, seeds, r, PARAMS)
        assert not ok[5] and ok.sum() == n - 1


# The per-bit batch commitment, the oracle for the table XOR: the hash of
# each seed row (AES blocks encrypted one row at a time), then one masked
# XOR of a basis vector per code bit.

def _owf_reference(seeds, out_bits):
    out_bytes = (out_bits + 7) // 8
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


def _blake2_reference(seeds, out_bits):
    """BLAKE2b-512 of the seed and a 4-byte big-endian block counter, cut
    to out_bits with the pad bits zeroed."""
    out_bytes = (out_bits + 7) // 8
    out = np.empty((len(seeds), out_bytes), dtype=np.uint8)
    for i, seed in enumerate(seeds):
        blocks = b"".join(hashlib.blake2b(seed.tobytes() + c.to_bytes(4, "big"),
                                          digest_size=64).digest()
                          for c in range((out_bytes + 63) // 64))
        out[i] = np.frombuffer(blocks, np.uint8)[:out_bytes]
    if out_bits % 8:
        out[:, -1] &= (0xFF << (8 - out_bits % 8)) & 0xFF
    return out


def _commit_batch_reference(msgs, seeds, r, params, owf=_owf_reference):
    coms = owf(seeds, params.n_c)
    for bit, vec in zip((2, 1), derive_basis(r)):
        np.bitwise_xor(coms, np.frombuffer(vec.payload, np.uint8)[None, :],
                       out=coms, where=(msgs & bit).astype(bool)[:, None])
    return coms


# The hashes the table XOR is checked over, keyed by the ids commit gave
# them when it offered all three: 2 is commit's own AES; BLAKE2b (1) and
# criterion 8's toy hash (127) are patched in for it, since the table must
# not depend on what filled the words. Like AES, they fill the columns past
# the output with more hash bytes.
_OWFS = {1: _blake2_reference, HASH_AES128: _owf_reference, 127: _toy_hash}


def _layouts(seeds):
    """The seed array as given, as a column slice of a wider record (the
    verifier's view of an OPENINGS body) and in Fortran order."""
    body = np.concatenate([np.zeros((len(seeds), 1), np.uint8), seeds], axis=1)
    return {"contiguous": seeds, "record slice": body[:, 1:],
            "fortran": np.asfortranarray(seeds)}


class TestTableXor:
    def test_ks_cover_the_word_and_block_edges(self):
        assert [CommitParams(k=k).com_bytes for k in _KS[:5]] == [7, 8, 9, 16, 17]

    @pytest.mark.parametrize("owf_id", sorted(_OWFS))
    @pytest.mark.parametrize("draw", [1, 2, 3])
    @pytest.mark.parametrize("k", _KS)
    def test_equals_per_bit_xor(self, k, draw, owf_id, monkeypatch):
        # three seeded draws of challenge, codes and seeds at each k and hash
        owf = _OWFS[owf_id]
        if owf_id != HASH_AES128:
            monkeypatch.setattr(commit, "_owf_words", lambda seeds, out_bytes:
                                owf(seeds, (out_bytes + 15) // 16 * 128))
        params = CommitParams(k=k)
        rng = _rng(k * 10 + draw)
        r = sample_challenge(rng, params)
        n = 40
        msgs = np.frombuffer(rng.bytes(n), np.uint8) & 3
        msgs[:4] = np.arange(4)  # every code occurs
        seeds = np.frombuffer(rng.bytes(n * params.seed_bytes),
                              np.uint8).reshape(n, params.seed_bytes)
        expect = _commit_batch_reference(msgs, seeds, r, params, owf)
        for layout, given in _layouts(seeds).items():
            got = commit_batch(msgs, given, r, params, HASH_AES128)
            assert got.dtype == np.uint8 and got.shape == (n, params.com_bytes)
            assert got.flags.c_contiguous
            assert np.array_equal(got, expect), layout
        pad = params.com_bytes * 8 - params.n_c
        assert not np.any(got[:, -1] & ((1 << pad) - 1))

    @pytest.mark.parametrize("k", _KS)
    def test_verify_rejects_one_flipped_bit_in_any_byte(self, k):
        params = CommitParams(k=k)
        rng = _rng(200 + k)
        r = sample_challenge(rng, params)
        n = params.com_bytes
        msgs = np.frombuffer(rng.bytes(n), np.uint8) & 3
        seeds = np.frombuffer(rng.bytes(n * params.seed_bytes),
                              np.uint8).reshape(n, params.seed_bytes)
        coms = commit_batch(msgs, seeds, r, params, HASH_AES128)
        assert verify_batch(coms, msgs, seeds, r, params).all()
        for col in range(params.com_bytes):
            bad = coms.copy()
            # every bit of the bytes before the last is a commitment bit,
            # and so is the top bit of the last byte
            bad[col, col] ^= 0x80 >> (col % 8 if col < params.com_bytes - 1 else 0)
            ok = verify_batch(bad, msgs, seeds, r, params)
            assert not ok[col] and ok.sum() == n - 1

    @pytest.mark.parametrize("k", _KS)
    def test_verify_rejects_a_row_tampered_in_any_byte_column(self, k):
        # verify compares 64-bit words: a change in any byte column, on
        # either side of a word boundary, and a set pad bit must all show
        params = CommitParams(k=k)
        rng = _rng(300 + k)
        r = sample_challenge(rng, params)
        cols = params.com_bytes
        n = 3 * cols + 2
        msgs = np.frombuffer(rng.bytes(n), np.uint8) & 3
        seeds = np.frombuffer(rng.bytes(n * params.seed_bytes),
                              np.uint8).reshape(n, params.seed_bytes)
        coms = commit_batch(msgs, seeds, r, params, HASH_AES128)
        bad = coms.copy()
        pad = cols * 8 - params.n_c
        for i in range(3 * cols):
            col, flips = i % cols, (0xFF, 0x01, rng.bytes(1)[0] | 0x80)[i // cols]
            if col == cols - 1:  # only the data bits of the last byte
                flips = flips & (0xFF << pad) & 0xFF or 0x80
            bad[i, col] ^= flips
        bad[3 * cols, -1] |= (1 << pad) - 1  # pad bits set, data intact
        ok = verify_batch(bad, msgs, seeds, r, params)
        assert not ok[:3 * cols + 1].any()
        assert ok[-1]
