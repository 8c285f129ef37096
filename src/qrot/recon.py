"""Verifiable one-way information reconciliation.

The sender transmits a syndrome of her raw string plus a short hash tag; the
receiver runs layered min-sum syndrome decoding against his own noisy copy
and accepts the candidate only if the tag matches. Decoding needs a margin
below the design error rate: on 200 fixed flip patterns the desk code
(n_raw 23,101, f 1.3, p_design 0.04) decodes all at 0.035 and below, in at
most 22 iterations, and fails 143 at 0.04. A failed decode is a rejection,
not a wrong key.

Two backends: a quasi-cyclic LDPC code of column weight 3 without 4-cycles,
and a trivial zero-leak backend for noiseless end-to-end runs. The code is
public and fixed by the parameters: one code per (n_raw, syndrome length),
drawn under one constant seed, so nothing about it travels on the wire.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from qrot import _kernels
from qrot.bitcore import BitString, Rng
from qrot.bounds import binary_entropy

BACKEND_TRIVIAL = "TRIVIAL_NOISELESS"
BACKEND_LDPC = "LDPC"

BP_MAX_ITER = 60
BP_NORM = 0.8

_TAG_LABEL = b"\x02"  # domain separation from the commitment hash
_CODE_SEED = hashlib.blake2b(b"qrot-ldpc-code", digest_size=32).digest()


class ReconError(ValueError):
    pass


@dataclass(frozen=True)
class IrParams:
    n_raw: int
    p_design: float
    f: float = 1.2
    tag_bits: int = 32
    backend: str = BACKEND_LDPC

    def __post_init__(self):
        if not 0.0 < self.p_design < 0.5 and self.backend == BACKEND_LDPC:
            raise ReconError("design error rate must be in (0, 0.5)")
        if self.f < 1.0:
            raise ReconError("IR efficiency below the Shannon limit")
        if self.tag_bits < 8:
            raise ReconError("verification tag too short")
        # f * h < 1 first: a huge finite f would overflow syndrome_bits
        if self.backend == BACKEND_LDPC and (
                self.f * binary_entropy(self.p_design) >= 1.0
                or self.syndrome_bits >= self.n_raw):
            raise ReconError("syndrome as large as the block; no compression")
        # 4-cycle-free shifts need 2 * (nb - 1) < z (see _code_structure),
        # that is, at most (z + 1) // 2 blocks of z variables
        z = self.syndrome_bits // 3
        if self.backend == BACKEND_LDPC and self.n_raw > z * ((z + 1) // 2):
            raise ReconError(f"n_raw {self.n_raw} is too short for a code "
                             f"without 4-cycles at {self.syndrome_bits} checks")

    @property
    def syndrome_bits(self) -> int:
        """The code's check count: three bands of equal size, never above
        the leak f * h(p_design) * n_raw that the bound charges."""
        if self.backend == BACKEND_TRIVIAL:
            return 0
        return 3 * (math.floor(self.f * binary_entropy(self.p_design) * self.n_raw) // 3)

    @property
    def record_bytes(self) -> int:
        """Wire size of one syndrome record: packed syndrome, then packed tag."""
        return (self.syndrome_bits + 7) // 8 + (self.tag_bits + 7) // 8


@dataclass(frozen=True)
class Syndrome:
    syn: BitString
    tag: BitString

    def serialize(self) -> bytes:
        return self.syn.payload + self.tag.payload

    @classmethod
    def parse(cls, raw: bytes, params: IrParams) -> "Syndrome":
        """One record of exactly ``params.record_bytes``; the config fixes
        both lengths, so the record carries no header."""
        if len(raw) != params.record_bytes:
            raise ReconError("syndrome record length does not match the config")
        cut = (params.syndrome_bits + 7) // 8
        return cls(BitString(raw[:cut], params.syndrome_bits),
                   BitString(raw[cut:], params.tag_bits))


def _tag(x: BitString, tag_bits: int) -> BitString:
    dig = hashlib.blake2b(_TAG_LABEL + x.serialize(),
                          digest_size=(tag_bits + 7) // 8).digest()
    return BitString.from_bits(np.unpackbits(np.frombuffer(dig, np.uint8), count=tag_bits))


# ---------------------------------------------------------------------------
# parity-check construction: quasi-cyclic, column weight 3, no 4-cycles
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def _code_structure(code_seed: bytes, n_raw: int, ell: int) -> np.ndarray:
    """The circulant shifts (3, nb) of a seeded quasi-cyclic code of column
    weight 3; they fix the code.

    Three bands of z = ell // 3 checks meet nb = ceil(n / z) blocks of z
    variables: check i * z + r meets, in slot j, variable j * z + (r +
    shift[i, j]) % z, a padding slot (shortened) if at or past n, so only
    a check's last slot can pad. Band 0 has shift 0. Two variables share
    checks in bands a and b only if shift[a] - shift[b] (mod z) repeats
    across their blocks (Fossorier, IEEE Trans. IT 2004), so each block's
    shifts are drawn to keep those differences distinct: no 4-cycles. Block
    j must avoid j values in band 1 and 2 * j in band 2, which leaves one
    free wherever 2 * (nb - 1) < z, the sizes ``IrParams`` accepts.
    """
    rng = Rng(hashlib.blake2b(b"ldpc" + code_seed, digest_size=32).digest())
    z = ell // 3
    nb = -(-n_raw // z)
    shift = np.zeros((3, nb), dtype=np.int64)
    for j in range(nb):
        for band in (1, 2):
            taken = np.zeros(z, dtype=bool)
            taken[shift[band, :j]] = True
            if band == 2:  # keeps shift[1, j] - shift[2, j] new as well
                taken[(shift[1, j] - shift[1, :j] + shift[2, :j]) % z] = True
            free = np.flatnonzero(~taken)
            shift[band, j] = free[rng.randbelow_array([free.size])[0]]
    # a pure function of public values, cached and shared by every session
    # at one config: no caller may write it
    shift.setflags(write=False)
    return shift


def _syndrome_bits_of(x_bits: np.ndarray, code_seed: bytes, n_raw: int,
                      ell: int) -> np.ndarray:
    shift = _code_structure(code_seed, n_raw, ell)
    blocks = np.zeros((shift.shape[1], ell // 3), dtype=np.uint8)
    blocks.ravel()[:n_raw] = x_bits  # the padding variables are 0
    return _kernels.band_syndrome(blocks, shift)


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def syn(x: BitString, params: IrParams) -> Syndrome:
    if x.length != params.n_raw:
        raise ReconError("block length mismatch")
    if params.backend == BACKEND_TRIVIAL:
        s = BitString.zeros(0)
    else:
        bits = _syndrome_bits_of(x.bits(), _CODE_SEED, params.n_raw,
                                 params.syndrome_bits)
        s = BitString.from_bits(bits)
    return Syndrome(s, _tag(x, params.tag_bits))


def dec(s: Syndrome, y: BitString, params: IrParams) -> BitString | None:
    """Decode the sender's string from ``y`` and the syndrome; None on reject."""
    if y.length != params.n_raw:
        raise ReconError("block length mismatch")
    if s.tag.length != params.tag_bits or s.syn.length != params.syndrome_bits:
        return None

    if params.backend == BACKEND_TRIVIAL:
        candidate = y
    else:
        y_bits = y.bits()
        target = _syndrome_bits_of(y_bits, _CODE_SEED, params.n_raw,
                                   params.syndrome_bits) ^ s.syn.bits()
        shift = _code_structure(_CODE_SEED, params.n_raw, params.syndrome_bits)
        llr0 = math.log((1.0 - params.p_design) / params.p_design)
        err, converged, _ = _kernels.bp_decode(
            shift, params.n_raw, target, llr0, BP_MAX_ITER, BP_NORM)
        if not converged:
            return None
        candidate = BitString.from_bits(y_bits ^ err)

    return candidate if _tag(candidate, params.tag_bits) == s.tag else None
