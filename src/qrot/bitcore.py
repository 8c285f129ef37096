"""Bit-level primitives: packed bit strings, subset bitmaps and seeded randomness.

Bits are packed MSB-first within each byte, on the wire and in hash inputs,
with the pad bits of the last byte zero. The :class:`BitString` constructor
is the one reader of packed bits: it refuses a wrong size or a set pad bit.
All types are immutable after construction except :class:`Rng`.
"""

from __future__ import annotations

import struct
from typing import Sequence

import numpy as np
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms


class BitcoreError(ValueError):
    pass


class BitString:
    """Fixed-length bit string packed into bytes, MSB of each byte first.

    The constructor refuses a payload of the wrong size or with a set pad
    bit, so every received bit string is read by the same rule.
    """

    __slots__ = ("length", "_buf")

    def __init__(self, payload: bytes | np.ndarray, length: int):
        buf = np.frombuffer(bytes(payload), dtype=np.uint8).copy() \
            if not isinstance(payload, np.ndarray) else payload.astype(np.uint8, copy=True)
        if buf.size != (length + 7) // 8:
            raise BitcoreError(f"payload of {buf.size} bytes cannot hold {length} bits")
        if length % 8 and buf[-1] & (0xFF >> length % 8):
            raise BitcoreError(f"pad bit set after bit {length}")
        buf.setflags(write=False)
        self.length = length
        self._buf = buf

    # -- constructors -------------------------------------------------

    @classmethod
    def zeros(cls, length: int) -> "BitString":
        return cls(np.zeros((length + 7) // 8, dtype=np.uint8), length)

    @classmethod
    def from_bits(cls, bits: Sequence[int] | np.ndarray) -> "BitString":
        arr = np.asarray(bits, dtype=np.uint8)
        if arr.ndim != 1:
            raise BitcoreError("expected a flat bit sequence")
        return cls(np.packbits(arr), arr.size)

    @classmethod
    def from_int(cls, value: int, length: int) -> "BitString":
        if value < 0 or value >> length:
            raise BitcoreError("value out of range for declared length")
        nbytes = (length + 7) // 8
        raw = (value << (8 * nbytes - length)).to_bytes(nbytes, "big")
        return cls(raw, length)

    # -- views ---------------------------------------------------------

    @property
    def payload(self) -> bytes:
        return self._buf.tobytes()

    def bits(self) -> np.ndarray:
        """Unpacked 0/1 array of length ``self.length``."""
        return np.unpackbits(self._buf, count=self.length) if self.length else \
            np.zeros(0, dtype=np.uint8)

    def to_int(self) -> int:
        if self.length == 0:
            return 0
        return int.from_bytes(self.payload, "big") >> (8 * self._buf.size - self.length)

    def popcount(self) -> int:
        return int(np.bitwise_count(self._buf).sum())

    def __len__(self) -> int:
        return self.length

    def __eq__(self, other) -> bool:
        return (isinstance(other, BitString) and other.length == self.length
                and bool(np.array_equal(other._buf, self._buf)))

    def __repr__(self) -> str:
        shown = "".join(str(b) for b in self.bits()[:64])
        tail = "..." if self.length > 64 else ""
        return f"BitString({shown}{tail}, len={self.length})"

    def __xor__(self, other: "BitString") -> "BitString":
        if other.length != self.length:
            raise BitcoreError("xor requires equal lengths")
        return BitString(self._buf ^ other._buf, self.length)

    def serialize(self) -> bytes:
        """Length-prefixed encoding hashed by ``commit.derive_basis`` and the
        IR tag: 4-byte big-endian bit length, then the packed payload. The
        wire carries ``payload`` alone, at a length the config fixes."""
        return struct.pack(">I", self.length) + self.payload


def pack_bits(bits: np.ndarray) -> bytes:
    """Wire form of a 0/1 or bool array: packed MSB-first, pad bits zero."""
    return np.packbits(bits).tobytes()


def parse_subset(raw: bytes, universe: int, size: int) -> np.ndarray:
    """Bool mask of a received subset bitmap over ``universe`` positions.

    Refuses what :class:`BitString` refuses, and a subset of any size but
    ``size``.
    """
    bitmap = BitString(raw, universe)
    if bitmap.popcount() != size:
        raise BitcoreError(f"subset bitmap does not hold {size} members")
    return bitmap.bits().view(bool)


def extract(bits: np.ndarray, idx: np.ndarray) -> BitString:
    """Restriction of the 0/1 array ``bits`` to the positions ``idx``, in
    their order."""
    return BitString.from_bits(bits[idx])


class Rng:
    """Deterministic ChaCha20 keystream generator with a 32-byte seed.

    The same seed always yields the same stream: a session's parties and
    the statistical tests are reproducible from one seed.
    """

    def __init__(self, seed: bytes):
        if len(seed) != 32:
            raise BitcoreError("seed must be exactly 32 bytes")
        self.seed = bytes(seed)
        self._enc = Cipher(algorithms.ChaCha20(self.seed, b"\x00" * 16), mode=None).encryptor()

    @classmethod
    def from_int(cls, seed: int) -> "Rng":
        return cls(seed.to_bytes(32, "big"))

    def bytes(self, n: int) -> bytes:
        return self._enc.update(bytes(n))

    def bits(self, nbits: int) -> BitString:
        raw = np.frombuffer(self.bytes((nbits + 7) // 8), np.uint8)
        return BitString.from_bits(np.unpackbits(raw, count=nbits))

    def spawn(self, label: bytes) -> "Rng":
        """Independent child stream; used to give subsystems their own streams."""
        import hashlib
        return Rng(hashlib.blake2b(self.bytes(32) + label, digest_size=32).digest())

    def words32(self, n: int) -> np.ndarray:
        return np.frombuffer(self.bytes(4 * n), dtype=">u4").astype(np.uint32)

    def randbelow_array(self, bounds: np.ndarray) -> np.ndarray:
        """One uniform integer in [0, bounds[i]) per entry, by rejection.

        Bounds must lie in [1, 2**32]. Each try takes one 32-bit word and
        keeps it when it is below the largest multiple of the bound that fits
        in 32 bits; a bound of 2**32 keeps every word as it is.
        """
        bounds = np.asarray(bounds, dtype=np.int64)
        if bounds.size and (bounds.min() < 1 or bounds.max() > 1 << 32):
            raise BitcoreError("bound outside [1, 2**32]")
        b = bounds.astype(np.uint32)  # 2**32 wraps to 0
        whole = np.flatnonzero(b == 0)
        b[whole] = 1  # keeps every word; the raw word is put back below
        # word < (2**32 // b) * b  <=>  word <= 0xFFFFFFFF - 2**32 % b
        top = ~((np.uint32(0) - b) % b)
        words = self.words32(b.size)
        ok = words <= top
        out = (words % b).astype(np.int64)
        out[whole] = words[whole]
        pending = np.flatnonzero(~ok)
        while pending.size:
            words = self.words32(pending.size)
            ok = words <= top[pending]
            hit = pending[ok]
            out[hit] = words[ok] % b[hit]
            pending = pending[~ok]
        return out


def sample_subset(rng: Rng, universe: int, size: int) -> np.ndarray:
    """Bool mask of a uniform ``size``-subset of {0..universe-1}.

    A partial Fisher-Yates shuffle draws the smaller side,
    ``min(size, universe - size)`` members. When that is the members left
    out, the mask is their complement, which is again uniform: each
    ``size``-subset is the complement of exactly one left-out set.
    """
    if size > universe:
        raise BitcoreError("subset larger than universe")
    k = min(size, universe - size)
    drop = k < size  # draw the members left out and return their complement
    mask = np.full(universe, drop)
    if k == 0:
        return mask
    from qrot._kernels import fisher_yates_partial

    perm = np.arange(universe, dtype=np.int32 if universe < 2 ** 31 else np.int64)
    # j[i] uniform in [i, universe)
    j = np.arange(k, dtype=np.int64) + rng.randbelow_array(universe - np.arange(k))
    fisher_yates_partial(perm, j)
    mask[perm[:k]] = not drop
    return mask
