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
    n, sbytes = seeds.shape
    out_bytes = (out_bits + 7) // 8

    if hash_id == HASH_AES128:
        nblocks = (out_bytes + 15) // 16
        blocks = np.zeros((n, nblocks, 16), dtype=np.uint8)
        blocks[:, :, :sbytes] = seeds[:, None, :]
        blocks[:, :, 15] ^= np.arange(nblocks, dtype=np.uint8)[None, :]
        enc = Cipher(algorithms.AES(_AES_FIXED_KEY), modes.ECB()).encryptor()
        ct = enc.update(blocks.tobytes()) + enc.finalize()
        out = np.frombuffer(ct, dtype=np.uint8).reshape(n, nblocks * 16)[:, :out_bytes].copy()
    elif hash_id == HASH_TOY16:
        if sbytes > 8:
            raise CommitError("toy hash takes seeds of at most 8 bytes")
        z = np.zeros(n, dtype=np.uint64)
        for b in range(sbytes):
            z = (z << np.uint64(8)) | seeds[:, b].astype(np.uint64)
        words = [(_toy_mix(z + np.uint64(c))) for c in range((out_bytes + 7) // 8)]
        raw = np.stack(words, axis=1).astype(">u8").view(np.uint8).reshape(n, -1)
        out = raw[:, :out_bytes].copy()
    elif hash_id == HASH_BLAKE2:
        out = np.empty((n, out_bytes), dtype=np.uint8)
        for i in range(n):
            out[i] = np.frombuffer(_blake2_expand(seeds[i].tobytes(), out_bytes), np.uint8)
    else:
        raise CommitError(f"unknown hash id {hash_id}")

    if out_bits % 8:
        out[:, -1] &= (0xFF << (8 - out_bits % 8)) & 0xFF
    return out


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


def commit_batch(msgs: np.ndarray, seeds: np.ndarray, r: Challenge,
                 params: CommitParams, hash_id: int) -> np.ndarray:
    """Commit N messages at once.

    msgs: (N, n_msg) 0/1 uint8; seeds: (N, seed_bytes) uint8.
    Returns (N, com_bytes) uint8.
    """
    coms = owf_expand_batch(hash_id, seeds, params.n_c)
    basis = _basis_words(r, params)
    for i in range(params.n_msg):
        np.bitwise_xor(coms, basis[i][None, :], out=coms,
                       where=msgs[:, i:i + 1].astype(bool))
    return coms


def verify_batch(coms: np.ndarray, msgs: np.ndarray, seeds: np.ndarray,
                 r: Challenge, params: CommitParams, hash_id: int) -> np.ndarray:
    """Vectorized verify; returns a boolean accept mask."""
    expected = commit_batch(msgs, seeds, r, params, hash_id)
    return np.all(expected == coms, axis=1)
