"""Weakly-interactive string commitment from a one-way function.

Construction: the verifier sends a random challenge r1; a basis of message-
length many linearly independent vectors is derived from r1; the committer
publishes H(seed) xor the basis combination selected by the message bits.
An opening is the pair (message, seed) and verification recomputes the
commitment.

The hash is pluggable: a BLAKE2 instantiation for general use, a fixed-key
AES instantiation whose batch mode makes the N0-fold protocol commitment
cheap, and a tiny 16-bit toy permutation that makes brute-force binding
experiments feasible.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from qrot.bitcore import BitString, Rng

HASH_BLAKE2 = 0x01
HASH_AES128 = 0x02
HASH_TOY16 = 0x7F


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
# one-way function instantiations
# ---------------------------------------------------------------------------

_AES_FIXED_KEY = bytes(range(16))  # public fixed key: the permutation is the OWF


def _toy_mix(z: np.ndarray) -> np.ndarray:
    """splitmix64-style finalizer; vectorized over uint64."""
    z = (z + np.uint64(0x9E3779B97F4A7C15)).astype(np.uint64)
    z ^= z >> np.uint64(30)
    z = (z * np.uint64(0xBF58476D1CE4E5B9)).astype(np.uint64)
    z ^= z >> np.uint64(27)
    z = (z * np.uint64(0x94D049BB133111EB)).astype(np.uint64)
    z ^= z >> np.uint64(31)
    return z


def owf_expand_batch(hash_id: int, seeds: np.ndarray, out_bits: int) -> np.ndarray:
    """Hash each row of ``seeds`` (uint8, shape (N, seed_bytes)) to out_bits.

    Returns a (N, ceil(out_bits/8)) uint8 array with pad bits zeroed.
    """
    out_bytes = (out_bits + 7) // 8
    out = _owf_words(hash_id, seeds, out_bytes)[:, :out_bytes].copy()
    _zero_pad_bits(out, out_bits)
    return out


def _owf_words(hash_id: int, seeds: np.ndarray, out_bytes: int) -> np.ndarray:
    """The hash of each seed row as a (N, 8 * W) uint8 array, W >= 1 words.

    Its first ``out_bytes`` columns are the hash output, pad bits not yet
    zeroed; the columns after them are filler. Each row is a whole number of
    64-bit words, so the array views as (N, W) uint64.
    """
    n, sbytes = seeds.shape

    if hash_id == HASH_AES128:
        nblocks = (out_bytes + 15) // 16
        # block c of a row: the seed, zero bytes, and c xored into byte 15;
        # the seed goes in as the widest words that tile it, one column at a
        # time (a copy of whole short rows is several times slower)
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
    if hash_id == HASH_TOY16:
        if sbytes > 8:
            raise CommitError("toy hash takes seeds of at most 8 bytes")
        z = np.zeros(n, dtype=np.uint64)
        for b in range(sbytes):
            z = (z << np.uint64(8)) | seeds[:, b].astype(np.uint64)
        words = [(_toy_mix(z + np.uint64(c))) for c in range((out_bytes + 7) // 8)]
        return np.stack(words, axis=1).astype(">u8").view(np.uint8).reshape(n, -1)
    if hash_id == HASH_BLAKE2:
        out = np.zeros((n, (out_bytes + 7) // 8 * 8), dtype=np.uint8)
        for i in range(n):
            out[i, :out_bytes] = np.frombuffer(
                _blake2_expand(seeds[i].tobytes(), out_bytes), np.uint8)
        return out
    raise CommitError(f"unknown hash id {hash_id}")


def _zero_pad_bits(out: np.ndarray, nbits: int) -> None:
    if nbits % 8:
        out[:, -1] &= (0xFF << (8 - nbits % 8)) & 0xFF


def _blake2_expand(data: bytes, out_bytes: int) -> bytes:
    chunks = []
    counter = 0
    while sum(map(len, chunks)) < out_bytes:
        chunks.append(hashlib.blake2b(data + counter.to_bytes(4, "big"),
                                      digest_size=64).digest())
        counter += 1
    return b"".join(chunks)[:out_bytes]


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


def commit_batch(msgs: np.ndarray, seeds: np.ndarray, r: Challenge,
                 params: CommitParams, hash_id: int) -> np.ndarray:
    """Commit N messages at once.

    msgs: (N, n_msg) 0/1 uint8; seeds: (N, seed_bytes) uint8.
    Returns (N, com_bytes) uint8.

    A commitment is H(seed) xor the sum of the basis vectors whose message
    bit is set. That sum depends only on the message, so the 2**n_msg sums
    are tabulated once (4 rows for n_msg = 2), row j holding the sum for the
    message whose bit i is bit i of j. Each commitment is then one XOR of its
    table row into the hash, on 64-bit words, instead of one masked XOR per
    message bit; XOR is associative, so the bytes are the same. Longer
    messages take one table per 8 bits.
    """
    out_bytes = params.com_bytes
    coms = _owf_words(hash_id, seeds, out_bytes)
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
    coms = coms[:, :out_bytes].copy()
    _zero_pad_bits(coms, params.n_c)
    return coms


def verify_batch(coms: np.ndarray, msgs: np.ndarray, seeds: np.ndarray,
                 r: Challenge, params: CommitParams, hash_id: int) -> np.ndarray:
    """Vectorized verify; returns a boolean accept mask."""
    expected = commit_batch(msgs, seeds, r, params, hash_id)
    return np.all(expected == coms, axis=1)
