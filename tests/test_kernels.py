import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrot import _kernels, recon
from qrot.bitcore import Rng


def _shuffle_reference(perm, j):
    """Plain scalar partial Fisher-Yates over a Python list."""
    out = perm.tolist()
    for i, t in enumerate(j.tolist()):
        out[i], out[t] = out[t], out[i]
    return out


class TestShuffleKernel:
    @pytest.mark.parametrize("n, size, start", [
        (1000, 1000, "identity"),   # full shuffle
        (1000, 37, "identity"),     # partial shuffle
        (1000, 600, "scrambled"),   # non-identity starting permutation
        (1, 1, "identity"),
    ])
    def test_matches_scalar_reference(self, n, size, start):
        rng = Rng.from_int(62 + n + size)
        perm = np.arange(n, dtype=np.int64)
        if start == "scrambled":
            perm = (perm * 7919 + 13) % n * 3
        j = np.arange(size, dtype=np.int64) + rng.randbelow_array(n - np.arange(size))
        j[::5] = np.arange(0, size, 5)  # j[i] == i: a swap with itself
        expect = _shuffle_reference(perm, j)
        before = perm
        assert _kernels.fisher_yates_partial(perm, j) is None
        assert perm is before and perm.tolist() == expect

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_scalar_reference_property(self, data):
        n = data.draw(st.integers(1, 300))
        size = data.draw(st.integers(0, n))
        perm = np.array(data.draw(st.permutations(range(n))), dtype=np.int64) * 5 - 7
        rng = Rng.from_int(data.draw(st.integers(0, 2 ** 32)))
        j = np.arange(size, dtype=np.int64) + rng.randbelow_array(n - np.arange(size))
        if size:
            # many steps aiming at one slot make long carry chains
            hot = data.draw(st.integers(size - 1, n - 1))
            j[data.draw(st.lists(st.integers(0, size - 1), max_size=size))] = hot
            # swaps with themselves
            mine = data.draw(st.lists(st.integers(0, size - 1), max_size=size))
            j[mine] = mine
        expect = _shuffle_reference(perm, j)
        _kernels.fisher_yates_partial(perm, j)
        assert perm.tolist() == expect

    @pytest.mark.parametrize("n, j", [
        (5, [0, 0]),           # j[1] < 1
        (5, [1, 5]),           # j[1] == len(perm)
        (2, [0, 1, 2]),        # more steps than slots
        (5, [-1]),
    ])
    def test_precondition_checked(self, n, j):
        perm = np.arange(n, dtype=np.int64)
        with pytest.raises(ValueError):
            _kernels.fisher_yates_partial(perm, np.array(j, dtype=np.int64))
        assert perm.tolist() == list(range(n))

    def test_result_is_permutation(self):
        rng = Rng.from_int(61)
        n = 1000
        j = np.arange(n, dtype=np.int64) + rng.randbelow_array(n - np.arange(n))
        perm = np.arange(n, dtype=np.int64)
        _kernels.fisher_yates_partial(perm, j)
        assert np.array_equal(np.sort(perm), np.arange(n))


class TestBpKernel:
    def _instance(self, seed, n=2048, p=0.02):
        rng = Rng.from_int(seed)
        ir = recon.IrParams(n_raw=n, p_design=0.04, f=1.3, tag_bits=16)
        code_seed = rng.bytes(32)
        x = np.frombuffer(rng.bytes(n), np.uint8) & 1
        noise = (rng.uniform(n) < p).astype(np.uint8)
        graph = recon._code_structure(code_seed, n, ir.syndrome_bits)
        target = recon._syndrome_bits_of(x ^ noise, code_seed, n, ir.syndrome_bits) \
            ^ recon._syndrome_bits_of(x, code_seed, n, ir.syndrome_bits)
        llr0 = math.log((1 - ir.p_design) / ir.p_design)
        return graph, target, llr0, noise

    def test_finds_error_pattern(self):
        (chk, voe, ve), target, llr0, noise = self._instance(7)
        hard, conv, _ = _kernels.bp_decode(chk, voe, ve, target.astype(np.uint8),
                                           llr0, 60, 0.8, 25.0)
        assert conv and np.array_equal(hard, noise)

    def test_zero_syndrome_instant(self):
        (chk, voe, ve), _, llr0, _ = self._instance(8, p=0.0)
        zero = np.zeros(chk.shape[0], np.uint8)
        hard, conv, iters = _kernels.bp_decode(chk, voe, ve, zero, llr0,
                                               60, 0.8, 25.0)
        assert conv and iters == 0 and hard.sum() == 0
