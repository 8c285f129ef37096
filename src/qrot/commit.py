"""Weakly-interactive string commitment from a one-way function.

Construction: the verifier sends a random challenge r1; a basis of message-
length many linearly independent vectors is derived from r1; the committer
publishes H(seed) xor the basis combination selected by the message bits.
An opening is the pair (message, seed) and verification recomputes the
commitment.

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
    """Security parameter k and message length; derived wire lengths."""

    k: int
    n_msg: int

    def __post_init__(self):
        if self.k < 8:
            raise CommitError("security parameter too small")
        if self.n_msg < 1:
            raise CommitError("message length must be positive")

    @property
    def n_r(self) -> int:
        return 3 * self.k + self.n_msg

    @property
    def n_c(self) -> int:
        return 3 * self.k + self.n_msg

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
    """Verifier's random message; the seed of the basis tuple."""

    r1: BitString

    def __post_init__(self):
        if self.r1.popcount() == 0:
            raise CommitError("all-zero challenge; verifier must resample")


def sample_challenge(rng: Rng, params: CommitParams) -> Challenge:
    while True:
        r1 = rng.bits(params.n_r)
        if r1.popcount():
            return Challenge(r1)


_MAX_BASIS_ATTEMPTS = 64


def derive_basis(r1: Challenge, n_msg: int) -> list[BitString]:
    """n_msg linearly independent vectors over GF(2), the first being r1.

    Subsequent vectors come from a PRNG seeded by r1; each candidate is
    accepted only if independent of all prior vectors (incremental Gaussian
    elimination on integer-encoded rows).
    """
    width = r1.r1.length
    if n_msg > width:
        raise CommitError("cannot find that many independent vectors")
    basis = [r1.r1]
    pivots: list[int] = []
    first = r1.r1.to_int()
    _reduce_and_insert(first, pivots)
    prng = Rng(hashlib.blake2b(b"qrot-basis" + r1.r1.serialize(), digest_size=32).digest())
    while len(basis) < n_msg:
        for _ in range(_MAX_BASIS_ATTEMPTS):
            cand = prng.bits(width)
            if _reduce_and_insert(cand.to_int(), pivots):
                basis.append(cand)
                break
        else:
            raise CommitError("failed to extend basis")
    return basis


def _reduce_and_insert(vec: int, pivots: list[int]) -> bool:
    for p in pivots:
        vec = min(vec, vec ^ p)
    if vec == 0:
        return False
    pivots.append(vec)
    pivots.sort(reverse=True)
    return True


# ---------------------------------------------------------------------------
# batch interface (the N0-fold commitment of the protocol)
# ---------------------------------------------------------------------------

def _basis_words(r: Challenge, params: CommitParams) -> np.ndarray:
    basis = derive_basis(r, params.n_msg)
    return np.stack([np.frombuffer(b.payload, dtype=np.uint8) for b in basis])


_TABLE_BITS = 8  # message bits per combination table: at most 256 rows


def _commit_rows(msgs: np.ndarray, seeds: np.ndarray, r: Challenge,
                 params: CommitParams) -> np.ndarray:
    """Commitments as the (N, 16 * B) uint8 rows of ``_owf_words``.

    A commitment is H(seed) xor the sum of the basis vectors whose message
    bit is set. That sum depends only on the message, so the 2**n_msg sums
    are tabulated once (4 rows for n_msg = 2), row j holding the sum for the
    message whose bit i is bit i of j. Each commitment is then one XOR of its
    table row into the hash, on 64-bit words, instead of one masked XOR per
    message bit; XOR is associative, so the bytes are the same. Longer
    messages take one table per 8 bits.

    The first ``com_bytes`` columns of a row are the commitment, pad bits
    not yet zeroed; the columns after them are filler.
    """
    out_bytes = params.com_bytes
    coms = _owf_words(seeds, out_bytes)
    words = coms.view(np.uint64)
    basis = np.zeros((params.n_msg, coms.shape[1]), dtype=np.uint8)
    basis[:, :out_bytes] = _basis_words(r, params)
    basis = basis.view(np.uint64)
    for lo in range(0, params.n_msg, _TABLE_BITS):
        group = basis[lo:lo + _TABLE_BITS]
        table = np.zeros((1 << len(group), words.shape[1]), dtype=np.uint64)
        for i, vec in enumerate(group):
            np.bitwise_xor(table[:1 << i], vec, out=table[1 << i:2 << i])
        row = np.zeros(len(msgs), dtype=np.uint8)
        for i in range(len(group)):
            row |= (msgs[:, lo + i] != 0).view(np.uint8) << np.uint8(i)
        # np.take gathers rows several times faster than table[row]
        words ^= np.take(table, row, axis=0)
    return coms


def commit_batch(msgs: np.ndarray, seeds: np.ndarray, r: Challenge,
                 params: CommitParams, hash_id: int) -> np.ndarray:
    """Commit N messages at once.

    msgs: (N, n_msg) 0/1 uint8; seeds: (N, seed_bytes) uint8.
    Returns (N, com_bytes) uint8.
    """
    # hash_id is read only by perfbench's tracer; ROADMAP item 2 deletes it
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
