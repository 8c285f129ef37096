import numpy as np
import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms
from hypothesis import given, settings
from hypothesis import strategies as st

from qrot.bitcore import (BitString, BitcoreError, Rng, extract, pack_bits,
                          parse_subset, sample_subset)
from draws import uniform


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

    def test_set_pad_bit_refused(self):
        # each pad bit of a 1- or 2-byte payload, set alone
        for length in range(1, 16):
            nbytes = (length + 7) // 8
            for bit in range(length, 8 * nbytes):
                raw = (1 << (8 * nbytes - 1 - bit)).to_bytes(nbytes, "big")
                with pytest.raises(BitcoreError, match="pad"):
                    BitString(raw, length)

    @given(st.binary(min_size=1, max_size=4), st.integers(0, 7))
    @settings(max_examples=300, deadline=None)
    def test_accepted_exactly_when_pad_bits_clear(self, raw, pad):
        length = 8 * len(raw) - pad
        if raw[-1] & ((1 << pad) - 1) == 0:
            assert BitString(raw, length).payload == raw
        else:
            with pytest.raises(BitcoreError):
                BitString(raw, length)

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

    def test_truncated_parse(self):
        # a received payload is read at the bit length the config fixes
        for raw in (b"\xff", b"\xff\x00\x00"):
            with pytest.raises(BitcoreError):
                BitString(raw, 9)


class TestSubsetBitmap:
    @given(st.lists(st.booleans(), max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, members):
        m = np.array(members, dtype=bool)
        assert np.array_equal(parse_subset(pack_bits(m), len(m), int(m.sum())), m)

    def test_msb_first_with_zero_pad(self):
        m = np.zeros(10, dtype=bool)
        m[[0, 3, 9]] = True
        assert pack_bits(m) == bytes([0b10010000, 0b01000000])

    # a bitmap over 10 positions holding {0, 3, 9} is 0b10010000 0b01000000
    @pytest.mark.parametrize("raw, size, match", [
        (bytes([0b10010000, 0b01100000]), 4, "pad"),
        (bytes([0b10010000, 0b01000001]), 4, "pad"),
        (bytes([0b10010000, 0b01000000]), 2, "members"),
        (bytes([0b10010000, 0b01000000]), 4, "members"),
        (bytes([0b10010000]), 3, "bytes"),
        (bytes([0b10010000, 0b01000000, 0]), 3, "bytes"),
    ], ids=["pad_bit_10", "pad_bit_15", "one_too_many", "one_too_few",
            "byte_short", "byte_over"])
    def test_malformed_bitmap_refused(self, raw, size, match):
        assert parse_subset(bytes([0b10010000, 0b01000000]), 10, 3).sum() == 3
        with pytest.raises(BitcoreError, match=match):
            parse_subset(raw, 10, size)


class TestExtract:
    def test_restriction_reads_positions_in_order(self):
        x = np.array([1, 0, 1, 1, 0], np.uint8)
        got = extract(x, np.array([0, 2, 4]))
        assert got.bits().tolist() == [1, 1, 0]

    def test_empty_selection(self):
        assert extract(np.ones(2, np.uint8), np.array([], np.int64)).length == 0

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            extract(np.ones(1, np.uint8), np.array([0, 1]))

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=64),
           st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_direct_indexing(self, bits, data):
        idx = sorted(data.draw(st.lists(st.integers(0, len(bits) - 1), unique=True)))
        got = extract(np.array(bits, np.uint8), np.array(idx, np.int64))
        assert got.bits().tolist() == [bits[i] for i in idx]


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

    def test_bytes_are_the_chacha20_stream(self):
        # draws that start and end inside 64-byte ChaCha20 blocks
        seed = bytes(range(32))
        raw = Cipher(algorithms.ChaCha20(seed, bytes(16)), mode=None).encryptor()
        rng = Rng(seed)
        for n in (1, 63, 65, 65_537, 0, 1):
            assert rng.bytes(n) == raw.update(bytes(n))

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
        assert fast.bytes(16) == slow.bytes(16)

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
        got = uniform(a, 1000)
        assert np.array_equal(got, b.words32(1000).astype(np.float64) / 2.0 ** 32)
        assert got.dtype == np.float64 and a.bytes(16) == b.bytes(16)

    def test_uniform_range(self):
        u = uniform(Rng.from_int(2), 10000)
        assert np.all((u >= 0) & (u < 1))
        assert abs(u.mean() - 0.5) < 0.02


class TestSampleSubset:
    def test_size_and_range(self):
        s = sample_subset(Rng.from_int(3), 100, 10)
        assert s.dtype == bool and s.size == 100 and s.sum() == 10

    def test_all_subsets_near_uniform(self):
        # C(4,2)=6 outcomes; chi-square-ish tolerance over 6000 draws
        rng = Rng.from_int(4)
        counts = {}
        trials = 6000
        for _ in range(trials):
            key = tuple(np.flatnonzero(sample_subset(rng, 4, 2)).tolist())
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 6
        for v in counts.values():
            assert abs(v - trials / 6) < 4 * (trials / 6) ** 0.5

    @pytest.mark.parametrize("universe, size", [(5, 3), (5, 2)])
    def test_complement_and_odd_universe_near_uniform(self, universe, size):
        # C(5,3)=C(5,2)=10 outcomes; 3 of 5 draws the 2 left out and takes the
        # complement, 2 of 5 draws its members directly
        rng = Rng.from_int(6)
        counts = {}
        trials = 10000
        for _ in range(trials):
            s = sample_subset(rng, universe, size)
            assert s.sum() == size
            key = tuple(np.flatnonzero(s).tolist())
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 10
        for v in counts.values():
            assert abs(v - trials / 10) < 4 * (trials / 10) ** 0.5

    def test_shuffles_only_the_smaller_side(self, monkeypatch):
        import qrot._kernels as kernels
        steps = []
        shuffle = kernels.fisher_yates_partial

        def counted(perm, j):
            steps.append(len(j))
            shuffle(perm, j)

        monkeypatch.setattr(kernels, "fisher_yates_partial", counted)
        rng = Rng.from_int(7)
        for universe, size in [(100, 10), (100, 90), (100, 50)]:
            assert sample_subset(rng, universe, size).sum() == size
            assert steps.pop() == min(size, universe - size)
        assert sample_subset(rng, 7, 0).sum() == 0
        assert sample_subset(rng, 7, 7).sum() == 7
        assert steps == []
        # a receiver's pick at the Table-1 point, seed 1
        assert sample_subset(rng, 1_902_896, 1_893_073).sum() == 1_893_073
        assert steps == [9_823]

    def test_full_and_empty(self):
        assert sample_subset(Rng.from_int(5), 7, 7).all()
        assert not sample_subset(Rng.from_int(5), 7, 0).any()

    def test_oversized_rejected(self):
        with pytest.raises(BitcoreError):
            sample_subset(Rng.from_int(5), 3, 4)
