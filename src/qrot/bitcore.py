"""Bit-level primitives: packed bit strings, index sets and seeded randomness.

Bits are packed MSB-first within each byte, on the wire and in hash inputs.
All types are immutable after construction except :class:`Rng`.
"""

from __future__ import annotations

import struct
from typing import Iterable, Sequence

import numpy as np
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms


class BitcoreError(ValueError):
    pass


def _bit_count(arr: np.ndarray) -> int:
    return int(np.bitwise_count(arr).sum())


class BitString:
    """Fixed-length bit string packed into bytes, MSB of each byte first.

    Trailing pad bits of the last byte are always zero.
    """

    __slots__ = ("length", "_buf")

    def __init__(self, payload: bytes | np.ndarray, length: int):
        nbytes = (length + 7) // 8
        buf = np.frombuffer(bytes(payload), dtype=np.uint8).copy() \
            if not isinstance(payload, np.ndarray) else payload.astype(np.uint8, copy=True)
        if buf.size != nbytes:
            raise BitcoreError(f"payload of {buf.size} bytes cannot hold {length} bits")
        # force pad bits to zero
        if length % 8 and nbytes:
            buf[-1] &= 0xFF << (8 - length % 8) & 0xFF
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
        return _bit_count(self._buf)

    def __len__(self) -> int:
        return self.length

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.length:
            raise IndexError(i)
        return (self._buf[i >> 3] >> (7 - (i & 7))) & 1

    def __eq__(self, other) -> bool:
        return (isinstance(other, BitString) and other.length == self.length
                and bool(np.array_equal(other._buf, self._buf)))

    def __hash__(self) -> int:
        return hash((self.length, self.payload))

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


class IndexSet:
    """Sorted duplicate-free indices into a bit string of universe size N."""

    __slots__ = ("universe", "indices")

    def __init__(self, indices: Iterable[int] | np.ndarray, universe: int):
        # always a copy: a set never shares memory with its caller's array
        arr = np.array(indices if isinstance(indices, np.ndarray) else list(indices),
                       dtype=np.int64)
        # most sets arrive sorted (complements, sub-pools, wire bodies), and
        # checking that is far cheaper than sorting; a strictly increasing
        # array has no duplicates
        resorted = not np.all(arr[1:] > arr[:-1])
        if resorted:
            arr.sort()
        if arr.size:
            if arr[0] < 0 or arr[-1] >= universe:
                raise BitcoreError("index out of declared universe")
            if resorted and np.any(arr[1:] == arr[:-1]):
                raise BitcoreError("duplicate index")
        arr.setflags(write=False)
        self.universe = universe
        self.indices = arr

    def __len__(self) -> int:
        return int(self.indices.size)

    def __iter__(self):
        return iter(self.indices.tolist())

    def __eq__(self, other) -> bool:
        return (isinstance(other, IndexSet) and other.universe == self.universe
                and bool(np.array_equal(other.indices, self.indices)))

    def __hash__(self) -> int:
        return hash((self.universe, self.indices.tobytes()))

    def __repr__(self) -> str:
        return f"IndexSet({self.indices.tolist()[:16]}, N={self.universe})"

    def complement(self) -> "IndexSet":
        mask = np.ones(self.universe, dtype=bool)
        mask[self.indices] = False
        return IndexSet(np.nonzero(mask)[0], self.universe)

    def membership_mask(self) -> np.ndarray:
        mask = np.zeros(self.universe, dtype=bool)
        mask[self.indices] = True
        return mask

    # -- wire form: 4-byte big-endian indices; the config fixes the count --

    def serialize(self) -> bytes:
        return self.indices.astype(">u4").tobytes()

    @classmethod
    def parse(cls, raw: bytes, universe: int) -> "IndexSet":
        return cls(np.frombuffer(raw, dtype=">u4"), universe)


def extract(x: BitString, s: IndexSet) -> BitString:
    """Restriction of ``x`` to the positions in ``s``, in ascending order."""
    if s.universe > x.length or (len(s) and s.indices[-1] >= x.length):
        raise BitcoreError("index set exceeds bit string length")
    if len(s) == 0:
        return BitString.zeros(0)
    return BitString.from_bits(x.bits()[s.indices])


class Rng:
    """Deterministic ChaCha20 keystream generator with a 32-byte seed.

    The same seed always yields the same stream: a session's parties and
    the statistical tests are reproducible from one seed.
    """

    _CHUNK = 1 << 16

    def __init__(self, seed: bytes):
        if len(seed) != 32:
            raise BitcoreError("seed must be exactly 32 bytes")
        self.seed = bytes(seed)
        self._enc = Cipher(algorithms.ChaCha20(self.seed, b"\x00" * 16), mode=None).encryptor()
        self._pool = b""
        self.position = 0

    @classmethod
    def from_int(cls, seed: int) -> "Rng":
        return cls(seed.to_bytes(32, "big"))

    def bytes(self, n: int) -> bytes:
        while len(self._pool) < n:
            self._pool += self._enc.update(b"\x00" * max(self._CHUNK, n - len(self._pool)))
        out, self._pool = self._pool[:n], self._pool[n:]
        self.position += n
        return out

    def bits(self, nbits: int) -> BitString:
        return BitString(self.bytes((nbits + 7) // 8), nbits)

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

    def uniform(self, n: int) -> np.ndarray:
        """n floats uniform in [0, 1) with 32-bit resolution."""
        return np.frombuffer(self.bytes(4 * n), dtype=">u4") / np.float64(1 << 32)


def sample_subset(rng: Rng, universe: int, size: int) -> IndexSet:
    """Uniform ``size``-subset of {0..universe-1} via a partial Fisher-Yates shuffle."""
    if size > universe:
        raise BitcoreError("subset larger than universe")
    if size == 0:
        return IndexSet([], universe)
    from qrot._kernels import fisher_yates_partial

    perm = np.arange(universe, dtype=np.int64)
    # j[i] uniform in [i, universe)
    j = np.arange(size, dtype=np.int64) + rng.randbelow_array(universe - np.arange(size))
    fisher_yates_partial(perm, j)
    return IndexSet(perm[:size], universe)
