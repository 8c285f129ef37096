import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrot.bitcore import BitString, Rng
from qrot.pamp import PampError, ToeplitzSeed, hash_bits, sample_seed


def _rng(i=0):
    return Rng.from_int(9000 + i)


def universality_probe(n_in, n_out, trials, rng):
    """Empirical collision frequency of random distinct inputs under random
    seeds; 2-universality promises at most 2^-n_out."""
    if n_in > 24:
        raise PampError("probe limited to small inputs")
    collisions = 0
    chunk = 4096
    done = 0
    nbits = n_in + n_out - 1
    while done < trials:
        t = min(chunk, trials - done)
        diag = (np.frombuffer(rng.bytes(t * nbits), np.uint8) & 1).reshape(t, nbits)
        x = (np.frombuffer(rng.bytes(t * n_in), np.uint8) & 1).reshape(t, n_in)
        y = (np.frombuffer(rng.bytes(t * n_in), np.uint8) & 1).reshape(t, n_in)
        same = np.all(x == y, axis=1)
        if same.any():  # resample collided inputs by flipping one bit
            y[same, 0] ^= 1
        # batch windowed product
        windows = np.stack([
            diag[:, n_out - 1 - i: n_out - 1 - i + n_in] for i in range(n_out)
        ], axis=1)
        hx = (windows @ x[:, :, None].astype(np.int64)) & 1
        hy = (windows @ y[:, :, None].astype(np.int64)) & 1
        collisions += int(np.all(hx == hy, axis=(1, 2)).sum())
        done += t
    return collisions / trials


class TestSeed:
    def test_diag_length_enforced(self):
        with pytest.raises(PampError):
            ToeplitzSeed(8, 4, BitString.zeros(10))

    def test_wire_round_trip(self):
        seed = sample_seed(_rng(), 100, 16)
        assert ToeplitzSeed.parse(seed.serialize()) == seed

    def test_corrupt_length_rejected(self):
        raw = sample_seed(_rng(1), 100, 16).serialize()
        with pytest.raises(PampError):
            ToeplitzSeed.parse(raw[:-1])


def _explicit_product(seed: ToeplitzSeed, x: BitString) -> list:
    """T @ x % 2 with T written out entry by entry: the reference product."""
    i = np.arange(seed.n_out)[:, None]
    j = np.arange(seed.n_in)[None, :]
    T = seed.diag.bits()[seed.n_out - 1 + j - i].astype(np.int64)  # T[i, j]
    return ((T @ x.bits().astype(np.int64)) % 2).tolist()


class TestHashExhaustive:
    def test_matches_explicit_matrix_everywhere(self):
        # every input and every diagonal at N=6, n=3
        n_in, n_out = 6, 3
        for d in range(2 ** (n_in + n_out - 1)):
            diag = BitString.from_int(d, n_in + n_out - 1)
            seed = ToeplitzSeed(n_in, n_out, diag)
            dbits = diag.bits()
            T = np.array([[dbits[n_out - 1 + j - i] for j in range(n_in)]
                          for i in range(n_out)])
            for xv in range(2 ** n_in):
                x = BitString.from_int(xv, n_in)
                expect = (T @ x.bits()) % 2
                assert hash_bits(seed, x).bits().tolist() == expect.tolist()

    def test_every_small_shape(self):
        # every n_in, n_out in 1..24 crosses each residue of the offset
        # mod 8 and each position of the input's last packed byte
        rng = _rng(8)
        for n_in, n_out in itertools.product(range(1, 25), repeat=2):
            seed = sample_seed(rng, n_in, n_out)
            x = rng.bits(n_in)
            assert hash_bits(seed, x).bits().tolist() == _explicit_product(seed, x)


class TestHashPaths:
    @given(st.integers(1, 300), st.integers(1, 48), st.integers(0, 2 ** 32))
    @settings(max_examples=150, deadline=None)
    def test_matches_explicit_matrix(self, n_in, n_out, seed_val):
        rng = Rng.from_int(seed_val)
        seed = sample_seed(rng, n_in, min(n_out, n_in))
        x = rng.bits(n_in)
        assert hash_bits(seed, x).bits().tolist() == _explicit_product(seed, x)

    def test_large_block_equality(self):
        rng = _rng(2)
        seed = sample_seed(rng, 1 << 16, 64)
        x = rng.bits(1 << 16)
        assert hash_bits(seed, x).bits().tolist() == _explicit_product(seed, x)

    @given(st.integers(0, 2 ** 32))
    @settings(max_examples=80, deadline=None)
    def test_linearity(self, seed_val):
        rng = Rng.from_int(seed_val)
        seed = sample_seed(rng, 96, 24)
        x, y = rng.bits(96), rng.bits(96)
        assert hash_bits(seed, x ^ y) == hash_bits(seed, x) ^ hash_bits(seed, y)

    def test_length_mismatch(self):
        with pytest.raises(PampError):
            hash_bits(sample_seed(_rng(3), 10, 4), BitString.zeros(9))

    def test_zero_output(self):
        seed = ToeplitzSeed(5, 0, BitString.zeros(4))
        assert hash_bits(seed, BitString.zeros(5)).length == 0


class TestUniversality:
    def test_collision_rate_within_bound(self):
        # 2-universal: collision probability at most 2^-n_out
        freq = universality_probe(20, 4, 40000, _rng(5))
        bound = 2.0 ** -4
        sigma = (bound * (1 - bound) / 40000) ** 0.5
        assert freq <= bound + 3 * sigma

    def test_single_bit_output_near_half(self):
        freq = universality_probe(12, 1, 40000, _rng(6))
        assert abs(freq - 0.5) < 0.02

    def test_large_input_refused(self):
        with pytest.raises(PampError):
            universality_probe(30, 4, 10, _rng(7))
