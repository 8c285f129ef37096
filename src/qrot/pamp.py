"""Privacy amplification with Toeplitz matrices over GF(2).

A seed of N_raw + n - 1 bits defines an n x N_raw Toeplitz matrix T with
T[i, j] = diag[n - 1 + j - i]; hashing is the GF(2) matrix-vector product,
computed exactly on packed bits: each output bit is the parity of the
popcount of a byte-aligned diagonal window ANDed with the packed input.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from qrot.bitcore import BitString, Rng

class PampError(ValueError):
    pass


@dataclass(frozen=True)
class ToeplitzSeed:
    """Descriptor of the hashing matrix: input width, output width, diagonal."""

    n_in: int
    n_out: int
    diag: BitString

    def __post_init__(self):
        if self.diag.length != self.n_in + self.n_out - 1:
            raise PampError("diagonal length must be n_in + n_out - 1")

    # wire form: 4-byte N_raw, 4-byte n, packed diagonal bits
    def serialize(self) -> bytes:
        return struct.pack(">II", self.n_in, self.n_out) + self.diag.payload

    @classmethod
    def parse(cls, raw: bytes) -> "ToeplitzSeed":
        if len(raw) < 8:
            raise PampError("truncated hash descriptor")
        n_in, n_out = struct.unpack(">II", raw[:8])
        nbits = n_in + n_out - 1
        if len(raw) != 8 + (nbits + 7) // 8:
            raise PampError("hash descriptor length mismatch")
        return cls(n_in, n_out, BitString(raw[8:], nbits))


def sample_seed(rng: Rng, n_in: int, n_out: int) -> ToeplitzSeed:
    return ToeplitzSeed(n_in, n_out, rng.bits(n_in + n_out - 1))


def hash_bits(seed: ToeplitzSeed, x: BitString) -> BitString:
    """T.x over GF(2) as one packed-bit product.

    Row i reads the diagonal window at offset o = n_out - 1 - i. The rows
    with o = r (mod 8) read byte-aligned windows of diag[r:] packed, so row
    i is the parity of popcount(window & packed x). One residue class is
    gathered at a time: the temporaries peak near n_out * n_in / 64 bytes
    and the work is about n_out * n_in / 8 byte operations. Meant for n_out
    up to about 1k; larger outputs stay exact but grow slow.
    """
    if x.length != seed.n_in:
        raise PampError("input length mismatch")
    n_out = seed.n_out
    diag = seed.diag.bits()
    xp = np.frombuffer(x.payload, np.uint8)  # packed MSB-first, pad bits zero
    out = np.zeros(n_out, dtype=np.uint8)
    for r in range(min(8, n_out)):
        windows = np.lib.stride_tricks.sliding_window_view(
            np.packbits(diag[r:]), xp.size)[:(n_out - 1 - r) // 8 + 1]
        out[n_out - 1 - r::-8] = np.bitwise_count(windows & xp).sum(axis=1) & 1
    return BitString.from_bits(out)
