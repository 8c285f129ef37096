"""Weakly-interactive commitment to a round's two-bit (basis, outcome) code.

Construction: the verifier sends a random challenge r1; a second vector r2,
independent of r1, is derived from it; the committer publishes H(seed) xor
r1 if the basis bit is set, xor r2 if the outcome bit is set. A code is
``m = basis << 1 | outcome``. An opening is the pair (code, seed) and
verification recomputes the commitment.

The one-way function is fixed-key AES-128, applied to the seed in counter
mode.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from qrot.bitcore import BitString, Rng

HASH_AES128 = 0x02


class CommitError(ValueError):
    pass


@dataclass(frozen=True)
class CommitParams:
    """Security parameter k; derived wire lengths."""

    k: int

    def __post_init__(self):
        if self.k < 8:
            raise CommitError("security parameter too small")

    @property
    def n_c(self) -> int:
        """Bits of the challenge and of each commitment: 3k + 2."""
        return 3 * self.k + 2

    @property
    def n_s(self) -> int:
        return self.k

    @property
    def com_bytes(self) -> int:
        return (self.n_c + 7) // 8

    @property
    def seed_bytes(self) -> int:
        return (self.n_s + 7) // 8


# ---------------------------------------------------------------------------
# one-way function
# ---------------------------------------------------------------------------

_AES_FIXED_KEY = bytes(range(16))  # public fixed key: the permutation is the OWF


def _owf_words(seeds: np.ndarray, out_bytes: int) -> np.ndarray:
    """The hash of each seed row as a (N, 16 * B) uint8 array, B >= 1 blocks.

    Its first ``out_bytes`` columns are the hash output, pad bits not yet
    zeroed; the columns after them are filler. Each row is a whole number of
    64-bit words, so the array views as (N, 2 * B) uint64.
    """
    n, sbytes = seeds.shape
    nblocks = (out_bytes + 15) // 16
    # block c of a row: the seed, zero bytes, and c xored into byte 15; the
    # seed goes in as the widest words that tile it, one column at a time (a
    # copy of whole short rows is several times slower)
    unit = np.dtype(f"u{math.gcd(sbytes, 8)}")
    if seeds.strides[-1] != 1:  # viewing as wider words needs this
        seeds = np.ascontiguousarray(seeds)
    seed_words = seeds.view(unit)
    blocks = np.zeros((n, nblocks, 16 // unit.itemsize), dtype=unit)
    for j in range(seed_words.shape[1]):
        blocks[:, :, j] = seed_words[:, j, None]
    blocks = blocks.view(np.uint8)
    blocks[:, :, 15] ^= np.arange(nblocks, dtype=np.uint8)[None, :]
    enc = Cipher(algorithms.AES(_AES_FIXED_KEY), modes.ECB()).encryptor()
    # update_into wants 15 bytes (block size - 1) of headroom past the output
    ct = np.empty(blocks.size + 15, dtype=np.uint8)
    enc.update_into(blocks, ct)
    return ct[:blocks.size].reshape(n, nblocks * 16)


def _zero_pad_bits(out: np.ndarray, nbits: int) -> None:
    if nbits % 8:
        out[:, -1] &= (0xFF << (8 - nbits % 8)) & 0xFF


# ---------------------------------------------------------------------------
# challenge and basis derivation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Challenge:
    """Verifier's random message; the seed of the basis pair."""

    r1: BitString

    def __post_init__(self):
        if self.r1.popcount() == 0:
            raise CommitError("all-zero challenge; verifier must resample")


def sample_challenge(rng: Rng, params: CommitParams) -> Challenge:
    while True:
        r1 = rng.bits(params.n_c)
        if r1.popcount():
            return Challenge(r1)


def derive_basis(r1: Challenge) -> tuple[BitString, BitString]:
    """The vectors (r1, r2) that the basis and outcome bits select.

    r2 is the first draw of a PRNG seeded by r1 that is neither zero nor r1,
    so the two are linearly independent over GF(2).
    """
    prng = Rng(hashlib.blake2b(b"qrot-basis" + r1.r1.serialize(), digest_size=32).digest())
    while True:
        r2 = prng.bits(r1.r1.length)
        if r2.popcount() and r2 != r1.r1:
            return r1.r1, r2


# ---------------------------------------------------------------------------
# batch interface (the N0-fold commitment of the protocol)
# ---------------------------------------------------------------------------

def _commit_rows(msgs: np.ndarray, seeds: np.ndarray, r: Challenge,
                 params: CommitParams) -> np.ndarray:
    """Commitments as the (N, 16 * B) uint8 rows of ``_owf_words``.

    A commitment is H(seed) xor the sum of the basis vectors its code
    selects. The four sums are tabulated once, row m holding the sum for
    code m: [0, r2, r1, r1 ^ r2]. Each commitment is then one XOR of its
    table row into the hash, on 64-bit words.

    The first ``com_bytes`` columns of a row are the commitment, pad bits
    not yet zeroed; the columns after them are filler.
    """
    coms = _owf_words(seeds, params.com_bytes)
    table = np.zeros((4, coms.shape[1]), dtype=np.uint8)
    r1, r2 = derive_basis(r)
    table[2, :params.com_bytes] = np.frombuffer(r1.payload, np.uint8)
    table[1, :params.com_bytes] = np.frombuffer(r2.payload, np.uint8)
    table[3] = table[1] ^ table[2]
    words = coms.view(np.uint64)
    # np.take gathers rows several times faster than table[msgs]
    words ^= np.take(table.view(np.uint64), msgs, axis=0)
    return coms


def commit_batch(msgs: np.ndarray, seeds: np.ndarray, r: Challenge,
                 params: CommitParams, hash_id: int) -> np.ndarray:
    """Commit N codes at once.

    msgs: (N,) uint8 codes in 0..3; seeds: (N, seed_bytes) uint8.
    Returns (N, com_bytes) uint8.
    """
    # hash_id is read only by perfbench's tracer; ROADMAP item 6(c) deletes it
    if hash_id != HASH_AES128:
        raise CommitError(f"unknown hash id {hash_id}")
    coms = _commit_rows(msgs, seeds, r, params)[:, :params.com_bytes].copy()
    _zero_pad_bits(coms, params.n_c)
    return coms


def verify_batch(coms: np.ndarray, msgs: np.ndarray, seeds: np.ndarray,
                 r: Challenge, params: CommitParams) -> np.ndarray:
    """Vectorized verify; returns a boolean accept mask.

    Compares the recomputed rows with the received ones zero-extended to the
    same width, one 64-bit word at a time, before the cut: a mask keeps the
    commitment bits of each word and clears the pad bits and the filler.
    """
    want = _commit_rows(msgs, seeds, r, params)
    got = np.zeros_like(want)
    got[:, :params.com_bytes] = coms
    keep = np.zeros(want.shape[1], dtype=np.uint8)
    keep[:params.com_bytes] = 0xFF
    _zero_pad_bits(keep[None, :params.com_bytes], params.n_c)
    want, got, keep = want.view(np.uint64), got.view(np.uint64), keep.view(np.uint64)
    ok = (want[:, 0] & keep[0]) == got[:, 0]
    for j in range(1, want.shape[1]):
        ok &= (want[:, j] & keep[j]) == got[:, j]
    return ok
