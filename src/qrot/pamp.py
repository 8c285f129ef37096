"""Privacy amplification with Toeplitz matrices over GF(2).

A seed of N_raw + n - 1 bits defines an n x N_raw Toeplitz matrix T with
T[i, j] = diag[n - 1 + j - i]; hashing is the GF(2) matrix-vector product,
computed exactly on packed bits: each output bit is the parity of the
popcount of a byte-aligned diagonal window ANDed with the packed input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from qrot.bitcore import BitString, Rng

class PampError(ValueError):
    pass


@dataclass(frozen=True)
class ToeplitzSeed:
    """Descriptor of the hashing matrix: input width, output width, diagonal.

    Only the packed diagonal goes on the wire; the config fixes both widths.
    """

    n_in: int
    n_out: int
    diag: BitString

    def __post_init__(self):
        if self.diag.length != self.n_in + self.n_out - 1:
            raise PampError("diagonal length must be n_in + n_out - 1")


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
