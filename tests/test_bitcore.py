import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrot.bitcore import (BitString, BitcoreError, IndexSet, Rng, extract,
                          sample_subset)


def relative_hamming(x: BitString) -> float:
    """Fraction of set bits; the normalized Hamming weight."""
    if x.length == 0:
        raise BitcoreError("relative Hamming weight of the empty string")
    return x.popcount() / x.length


class TestBitString:
    def test_msb_first_packing(self):
        b = BitString.from_bits([1, 0, 1, 1, 0])
        assert b.payload == bytes([0b10110000])
        assert b.length == 5

    def test_pad_bits_forced_zero(self):
        b = BitString(bytes([0xFF]), 5)
        assert b.payload == bytes([0b11111000])
        assert b.popcount() == 5

    @given(st.lists(st.integers(0, 1), max_size=1024))
    @settings(max_examples=200, deadline=None)
    def test_bits_round_trip(self, bits):
        b = BitString.from_bits(bits)
        assert b.bits().tolist() == bits
        assert BitString(b.payload, len(bits)) == b
        assert b.serialize() == len(bits).to_bytes(4, "big") + b.payload

    @given(st.integers(1, 200))
    @settings(max_examples=50, deadline=None)
    def test_int_round_trip(self, length):
        v = (1 << length) - 1 if length < 4 else (1 << (length - 1)) | 1
        assert BitString.from_int(v, length).to_int() == v

    def test_from_int_range_checked(self):
        with pytest.raises(BitcoreError):
            BitString.from_int(4, 2)

    def test_xor_popcount(self):
        a = BitString.from_bits([1, 1, 0, 0])
        b = BitString.from_bits([1, 0, 1, 0])
        assert (a ^ b).bits().tolist() == [0, 1, 1, 0]
        assert (a ^ a).popcount() == 0

    def test_empty(self):
        z = BitString.zeros(0)
        assert len(z) == 0 and z.to_int() == 0
        assert z.payload == b"" and BitString(z.payload, 0) == z

    def test_getitem(self):
        b = BitString.from_bits([0, 1, 0, 0, 0, 0, 0, 0, 1])
        assert b[1] == 1 and b[8] == 1 and b[0] == 0
        with pytest.raises(IndexError):
            b[9]

    def test_truncated_parse(self):
        # a received payload is read at the bit length the config fixes
        for raw in (b"\xff", b"\xff\x00\x00"):
            with pytest.raises(BitcoreError):
                BitString(raw, 9)


class TestIndexSet:
    def test_sorted_unique(self):
        s = IndexSet([4, 1, 7], 10)
        assert s.indices.tolist() == [1, 4, 7]

    def test_rejects_duplicates_and_range(self):
        with pytest.raises(BitcoreError):
            IndexSet([1, 1], 4)
        with pytest.raises(BitcoreError):
            IndexSet([4], 4)

    def test_complement_partitions(self):
        s = IndexSet([0, 2, 5], 6)
        c = s.complement()
        assert c.indices.tolist() == [1, 3, 4]
        assert np.all(s.membership_mask() ^ c.membership_mask())

    def test_wire_round_trip(self):
        s = IndexSet([3, 0, 9], 16)
        assert s.serialize() == np.array([0, 3, 9], ">u4").tobytes()
        assert IndexSet.parse(s.serialize(), 16) == s

    # a strictly increasing input skips the sort and the duplicate check

    def test_sorted_input_is_copied(self):
        arr = np.array([1, 4, 7], dtype=np.int64)
        s = IndexSet(arr, 10)
        arr[0] = 9
        assert s.indices.tolist() == [1, 4, 7]
        assert not np.shares_memory(s.indices, arr)
        assert not s.indices.flags.writeable

    @pytest.mark.parametrize("indices", [[7, 1, 4], [1, 7, 4], [7, 4, 1], [4, 5, 1]])
    def test_unsorted_input_comes_out_sorted(self, indices):
        s = IndexSet(np.array(indices), 10)
        assert s.indices.tolist() == sorted(indices)
        assert s.indices.dtype == np.int64

    @pytest.mark.parametrize("indices", [[1, 1], [0, 3, 3, 5], [3, 1, 3], [5, 0, 5, 2]])
    def test_duplicate_rejected_sorted_or_not(self, indices):
        for form in (indices, np.array(indices)):
            with pytest.raises(BitcoreError, match="duplicate"):
                IndexSet(form, 10)

    @pytest.mark.parametrize("indices", [[10], [0, 10], [-1], [-1, 3], [3, -1], [12, 2]])
    def test_out_of_range_rejected_sorted_or_not(self, indices):
        for form in (indices, np.array(indices)):
            with pytest.raises(BitcoreError, match="universe"):
                IndexSet(form, 10)

    def test_parse_sorts_an_unsorted_body(self):
        body = np.array([9, 0, 3], dtype=">u4").tobytes()
        parsed = IndexSet.parse(body, 16)
        assert parsed.indices.tolist() == [0, 3, 9]
        assert parsed == IndexSet([3, 0, 9], 16)
        with pytest.raises(BitcoreError, match="duplicate"):
            IndexSet.parse(np.array([9, 0, 9], ">u4").tobytes(), 16)


class TestExtract:
    def test_restriction_reads_positions_in_order(self):
        x = BitString.from_bits([1, 0, 1, 1, 0])
        got = extract(x, IndexSet([0, 2, 4], 5))
        assert got.bits().tolist() == [1, 1, 0]

    def test_empty_selection(self):
        assert extract(BitString.from_bits([1, 1]), IndexSet([], 2)).length == 0

    def test_out_of_range(self):
        with pytest.raises(BitcoreError):
            extract(BitString.from_bits([1]), IndexSet([0], 5))

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=64),
           st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_direct_indexing(self, bits, data):
        idx = data.draw(st.lists(st.integers(0, len(bits) - 1), unique=True))
        got = extract(BitString.from_bits(bits), IndexSet(idx, len(bits)))
        assert got.bits().tolist() == [bits[i] for i in sorted(idx)]


class TestRelativeHamming:
    def test_weight_fraction(self):
        assert relative_hamming(BitString.from_bits([1, 0, 1, 0])) == 0.5

    def test_empty_rejected(self):
        with pytest.raises(BitcoreError):
            relative_hamming(BitString.zeros(0))

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=128),
           st.lists(st.integers(0, 1), min_size=1, max_size=128))
    @settings(max_examples=100, deadline=None)
    def test_xor_distance_symmetric(self, a, b):
        n = min(len(a), len(b))
        x, y = BitString.from_bits(a[:n]), BitString.from_bits(b[:n])
        assert relative_hamming(x ^ y) == relative_hamming(y ^ x)


def _randbelow_reference(rng, bounds):
    """Rejection sampling in uint64: keep a word below (2**32 // b) * b."""
    bounds = np.asarray(bounds, dtype=np.uint64)
    out = np.empty(bounds.size, dtype=np.int64)
    pending = np.arange(bounds.size)
    while pending.size:
        b = bounds[pending]
        words = rng.words32(pending.size).astype(np.uint64)
        ok = words < (np.uint64(1 << 32) // b) * b
        out[pending[ok]] = (words[ok] % b[ok]).astype(np.int64)
        pending = pending[~ok]
    return out


class _ScriptedRng(Rng):
    """An Rng whose 32-bit words come from a list."""

    def __init__(self, words):
        super().__init__(bytes(32))
        self.script = list(words)

    def words32(self, n):
        out, self.script = self.script[:n], self.script[n:]
        return np.array(out, dtype=np.uint32)


class TestRng:
    def test_deterministic(self):
        a, b = Rng.from_int(7), Rng.from_int(7)
        assert a.bytes(64) == b.bytes(64)
        assert a.bits(33) == b.bits(33)

    def test_seed_length_checked(self):
        with pytest.raises(BitcoreError):
            Rng(b"short")

    def test_spawn_streams_differ(self):
        root = Rng.from_int(7)
        assert root.spawn(b"a").bytes(16) != root.spawn(b"a").bytes(16)

    def test_randbelow_in_range(self):
        rng = Rng.from_int(1)
        bounds = np.array([1, 2, 3, 100, 2 ** 31])
        for _ in range(50):
            vals = rng.randbelow_array(bounds)
            assert np.all(vals >= 0) and np.all(vals < bounds)

    @pytest.mark.parametrize("bound", [1, 2, 2 ** 31 + 5, 2 ** 32 - 1, 2 ** 32])
    def test_randbelow_matches_uint64_reference(self, bound):
        bounds = np.array([bound, 3, bound, 2 ** 31 + 5] * 500)
        fast, slow = Rng.from_int(11), Rng.from_int(11)
        expect = _randbelow_reference(slow, bounds)
        assert np.array_equal(fast.randbelow_array(bounds), expect)
        assert fast.position == slow.position

    @pytest.mark.parametrize("bound", [1, 3, 5, 1000, 2 ** 31 + 5, 2 ** 32 - 1, 2 ** 32])
    def test_randbelow_words_at_the_rejection_limit(self, bound):
        limit = (1 << 32) // bound * bound
        words = [w % (1 << 32) for w in (limit - 1, limit, limit + 1, 0)]
        fast, slow = _ScriptedRng(words * 2), _ScriptedRng(words * 2)
        for _ in range(len(words)):
            assert fast.randbelow_array([bound]) == _randbelow_reference(slow, [bound])
            assert len(fast.script) == len(slow.script)

    def test_randbelow_full_range_is_raw_word(self):
        a, b = Rng.from_int(12), Rng.from_int(12)
        got = a.randbelow_array(np.full(64, 2 ** 32))
        assert np.array_equal(got, b.words32(64))

    @pytest.mark.parametrize("bound", [0, -1, 2 ** 32 + 1, 2 ** 40])
    def test_randbelow_bound_out_of_range(self, bound):
        with pytest.raises(BitcoreError):
            Rng.from_int(13).randbelow_array(np.array([5, bound]))

    def test_uniform_is_word_over_2_to_32(self):
        a, b = Rng.from_int(2), Rng.from_int(2)
        got = a.uniform(1000)
        assert np.array_equal(got, b.words32(1000).astype(np.float64) / 2.0 ** 32)
        assert got.dtype == np.float64 and a.position == b.position

    def test_uniform_range(self):
        u = Rng.from_int(2).uniform(10000)
        assert np.all((u >= 0) & (u < 1))
        assert abs(u.mean() - 0.5) < 0.02


class TestSampleSubset:
    def test_size_and_range(self):
        s = sample_subset(Rng.from_int(3), 100, 10)
        assert len(s) == 10 and s.universe == 100

    def test_all_subsets_near_uniform(self):
        # C(4,2)=6 outcomes; chi-square-ish tolerance over 6000 draws
        rng = Rng.from_int(4)
        counts = {}
        trials = 6000
        for _ in range(trials):
            key = tuple(sample_subset(rng, 4, 2).indices.tolist())
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 6
        for v in counts.values():
            assert abs(v - trials / 6) < 4 * (trials / 6) ** 0.5

    def test_full_and_empty(self):
        assert len(sample_subset(Rng.from_int(5), 7, 7)) == 7
        assert len(sample_subset(Rng.from_int(5), 7, 0)) == 0

    def test_oversized_rejected(self):
        with pytest.raises(BitcoreError):
            sample_subset(Rng.from_int(5), 3, 4)
