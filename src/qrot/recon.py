"""Verifiable one-way information reconciliation.

The sender transmits a syndrome of her raw string plus a short hash tag; the
receiver runs belief-propagation syndrome decoding against his own noisy copy
and accepts the candidate only if the tag matches. Decoding needs a margin
below the design error rate: on fixed flip patterns the desk code (n_raw
23,101, f 1.3, p_design 0.04) decodes 200 of 200 at 0.02 and at 0.03, but
fails about 3 in 4 at 0.04. A failed decode is a rejection, not a wrong key.

Two backends: an LDPC code from a regular Gallager-style ensemble, and a
trivial zero-leak backend for noiseless end-to-end runs. The code is public
and fixed by the parameters: one code per (n_raw, syndrome length), drawn
under one constant seed, so nothing about it travels on the wire.
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
LLR_CLAMP = 25.0

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

    @property
    def syndrome_bits(self) -> int:
        if self.backend == BACKEND_TRIVIAL:
            return 0
        return math.ceil(self.f * binary_entropy(self.p_design) * self.n_raw)

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
    return BitString(dig, tag_bits)


# ---------------------------------------------------------------------------
# parity-check construction: column weight 3, near-uniform row weights
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def _code_structure(code_seed: bytes, n_raw: int, ell: int):
    """Check-slot-major arrays of a seeded (3, ~3n/ell)-regular code.

    Returns (var_of_slot (dmax, m), var_slots (n, 3)). Slot (c, i) is column
    c of check i, and var_of_slot[c, i] is the variable it meets, or n for
    a padding slot. var_slots[v] holds the flat indices (c * m + i) of
    variable v's three slots, in ascending edge order.

    Edges are numbered check by check: check i owns a contiguous run of
    edges, and edge e meets variable perm[e] // 3, where perm is a seeded
    shuffle of the 3n variable sockets. Duplicate variable-check incidences
    are repaired by swapping sockets so every edge is distinct in GF(2).
    """
    rng = Rng(hashlib.blake2b(b"ldpc" + code_seed, digest_size=32).digest())
    e_tot = 3 * n_raw
    perm = np.arange(e_tot, dtype=np.int64)
    j = np.arange(e_tot, dtype=np.int64) + rng.randbelow_array(e_tot - np.arange(e_tot))
    _kernels.fisher_yates_partial(perm, j)
    del j

    base, extra = divmod(e_tot, ell)
    row_deg = np.full(ell, base, dtype=np.int64)
    row_deg[:extra] += 1
    # check i owns the contiguous edges [start_i, start_i + row_deg[i]); rows
    # differ in degree by at most one, so no row has two padding slots.
    # slots[c, i] is the edge in slot (c, i), or e_tot for padding
    cols = np.arange(int(row_deg.max()))[:, None]
    start = np.cumsum(row_deg) - row_deg
    slots = np.where(cols < row_deg, start + cols, e_tot)

    # repair duplicate (variable, check) incidences: an edge whose variable
    # already sits earlier in its row is swapped with a random edge, taking
    # duplicates in (row, variable, edge) order
    for _ in range(64):
        var_of_slot = np.append(perm // 3, n_raw)[slots]
        dup = np.zeros(slots.shape, dtype=bool)
        for c in range(1, len(slots)):
            dup[c] = (var_of_slot[:c] == var_of_slot[c]).any(axis=0)
        _, rows = np.nonzero(dup)
        if rows.size == 0:
            break
        dup_edges = slots[dup]
        dup_pos = dup_edges[np.lexsort((dup_edges, var_of_slot[dup], rows))]
        swap_with = rng.randbelow_array(np.full(dup_pos.size, e_tot))
        for a, b in zip(dup_pos.tolist(), swap_with.tolist()):
            perm[a], perm[b] = perm[b], perm[a]
    else:
        raise ReconError("could not build a simple parity-check graph")

    # variable v owns sockets 3v..3v+2; their edges ascending, then the
    # slots of those edges
    socket_edge = np.empty(e_tot, dtype=np.int64)
    socket_edge[perm] = np.arange(e_tot)
    slot_of_edge = np.empty(e_tot + 1, dtype=np.int64)
    slot_of_edge[slots.ravel()] = np.arange(slots.size)
    var_slots = slot_of_edge[np.sort(socket_edge.reshape(n_raw, 3), axis=1)]
    # a pure function of public values, cached and shared by every session
    # at one config: no caller may write the arrays
    var_of_slot.setflags(write=False)
    var_slots.setflags(write=False)
    return var_of_slot, var_slots


def _syndrome_bits_of(x_bits: np.ndarray, code_seed: bytes, n_raw: int,
                      ell: int) -> np.ndarray:
    var_of_slot, _ = _code_structure(code_seed, n_raw, ell)
    ext = np.append(x_bits.astype(np.uint8), np.uint8(0))  # variable n: padding
    # XOR down the dmax contiguous rows of the (dmax, m) slot array
    return np.bitwise_xor.reduce(ext[var_of_slot], axis=0)


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
        var_of_slot, var_slots = _code_structure(
            _CODE_SEED, params.n_raw, params.syndrome_bits)
        llr0 = math.log((1.0 - params.p_design) / params.p_design)
        err, converged, _ = _kernels.bp_decode(
            var_of_slot, var_slots, target.astype(np.uint8),
            llr0, BP_MAX_ITER, BP_NORM, LLR_CLAMP)
        if not converged:
            return None
        candidate = BitString.from_bits(y_bits ^ err)

    return candidate if _tag(candidate, params.tag_bits) == s.tag else None
