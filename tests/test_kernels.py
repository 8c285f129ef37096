import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qrot import _kernels, recon
from qrot.bitcore import Rng
from qrot.protocol import desk_config
from draws import uniform
from test_recon import edge_form

_DESK = desk_config(ir_backend=recon.BACKEND_LDPC).ir_params


def _shuffle_reference(perm, j):
    """Plain scalar partial Fisher-Yates over a Python list."""
    out = perm.tolist()
    for i, t in enumerate(j.tolist()):
        out[i], out[t] = out[t], out[i]
    return out


def _bp_decode_reference(chk_rows, var_of_edge, var_edges, synd, llr0,
                         max_iter, norm, clamp):
    """The edge-indexed decoder: padded (m, dmax) gathers of the messages,
    argmin for the two minima, a product of signs and a scatter back."""
    m, dmax = chk_rows.shape
    n = var_edges.shape[0]
    e_tot = var_of_edge.size - 1

    synd_sign = 1.0 - 2.0 * synd.astype(np.float64)
    rows = np.arange(m)
    cols = np.arange(dmax)

    v2c = np.full(e_tot + 1, min(llr0, clamp), dtype=np.float64)
    v2c[e_tot] = np.inf
    c2v = np.zeros(e_tot + 1, dtype=np.float64)

    hard = np.zeros(n + 1, dtype=np.uint8)
    flat_var = var_edges.ravel()

    for it in range(max_iter + 1):
        parity = np.bitwise_xor.reduce(hard[var_of_edge[chk_rows]], axis=1)
        if np.array_equal(parity, synd):
            return hard[:n].copy(), True, it
        if it == max_iter:
            break

        msgs = v2c[chk_rows]
        sgn = np.where(msgs < 0.0, -1.0, 1.0)
        row_sign = synd_sign * sgn.prod(axis=1)
        mag = np.abs(msgs)
        i1 = np.argmin(mag, axis=1)
        min1 = mag[rows, i1]
        mag[rows, i1] = np.inf
        min2 = mag.min(axis=1)
        out_mag = np.where(cols[None, :] == i1[:, None], min2[:, None], min1[:, None])
        vals = norm * row_sign[:, None] * sgn * out_mag
        c2v[chk_rows.ravel()] = vals.ravel()
        c2v[e_tot] = 0.0

        inc = c2v[var_edges]
        tot = llr0 + inc.sum(axis=1)
        v2c[flat_var] = np.clip(tot[:, None] - inc, -clamp, clamp).ravel()
        v2c[e_tot] = np.inf
        hard[:n] = tot < 0.0

    return hard[:n].copy(), False, max_iter


def _random_code(rng, n, z):
    """(shift, n, z) of a quasi-cyclic code with arbitrary shifts, band 0
    included, independent of ``recon``'s draw: 4-cycles are allowed, and
    the last of nb = ceil(n / z) blocks holds nb * z - n padding slots."""
    nb = -(-n // z)
    shift = rng.randbelow_array(np.full(3 * nb, z)).reshape(3, nb)
    return shift, n, z


def _noisy_target(code, rng, p):
    """Syndrome of a random flip pattern at rate p: the decoder's target."""
    chk_rows, var_of_edge, _ = edge_form(*code)
    flips = np.append(uniform(rng, code[1]) < p, False).astype(np.uint8)
    return np.bitwise_xor.reduce(flips[var_of_edge[chk_rows]], axis=1)


def _assert_same_decode(code, synd, llr0, max_iter=60, norm=0.8, clamp=25.0):
    shift, n, _ = code
    got = _kernels.bp_decode(shift, n, synd, llr0, max_iter, norm, clamp)
    want = _bp_decode_reference(*edge_form(*code), synd, llr0, max_iter,
                                norm, clamp)
    assert got[0].dtype == want[0].dtype == np.uint8
    assert np.array_equal(got[0], want[0]) and got[1:] == want[1:]
    return got


@st.composite
def _random_decodes(draw):
    """(seed, z, nb, padding slots, flip rate, llr0, max_iter, norm) of a
    random decode."""
    seed = draw(st.integers(0, 2 ** 32))
    z, nb = draw(st.integers(1, 40)), draw(st.integers(2, 8))
    # min-sum needs two real slots per check to send a finite message, so
    # two blocks come without padding
    return (seed, z, nb, draw(st.integers(0, z - 1 if nb > 2 else 0)),
            draw(st.sampled_from([0.0, 0.03, 0.1, 0.3])),
            # ln 24 is the desk decoder's llr0 (p_design 0.04): not dyadic,
            # so BP's sums round and their order shows in the output
            draw(st.sampled_from([0.5, 3.0, 30.0, math.log(24.0)])),
            draw(st.integers(0, 25)),
            draw(st.sampled_from([0.75, 0.8, 1.0])))


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


class TestRollRows:
    @pytest.mark.parametrize("z, shifts", [
        (7, [0, 6, -1, -6, 3, 13, -15]),   # 0, z - 1, negative, beyond z
        (1, [0, 1, -1]),
    ])
    def test_matches_np_roll(self, z, shifts):
        src = np.arange(len(shifts) * z, dtype=np.float64).reshape(-1, z)
        out = np.full_like(src, np.nan)
        assert _kernels.roll_rows(src, np.array(shifts), out) is None
        for row, s in enumerate(shifts):
            assert np.array_equal(out[row], np.roll(src[row], s))

    def test_strided_views(self):
        # the decoder rolls one band's columns of its slot arrays
        src = np.arange(24, dtype=np.int64).reshape(3, 8)
        out = np.zeros((3, 12), dtype=np.int64)
        _kernels.roll_rows(src[:, 4:], np.array([1, -2, 4]), out[:, 8:])
        assert np.array_equal(out[:, 8:], np.stack(
            [np.roll(src[j, 4:], s) for j, s in enumerate([1, -2, 4])]))
        assert not out[:, :8].any()


class TestBpKernel:
    def _instance(self, seed, n=2048, p=0.02):
        rng = Rng.from_int(seed)
        ir = recon.IrParams(n_raw=n, p_design=0.04, f=1.3, tag_bits=16)
        code_seed = rng.bytes(32)
        x = np.frombuffer(rng.bytes(n), np.uint8) & 1
        noise = (uniform(rng, n) < p).astype(np.uint8)
        shift = recon._code_structure(code_seed, n, ir.syndrome_bits)
        target = recon._syndrome_bits_of(x ^ noise, code_seed, n, ir.syndrome_bits) \
            ^ recon._syndrome_bits_of(x, code_seed, n, ir.syndrome_bits)
        llr0 = math.log((1 - ir.p_design) / ir.p_design)
        return shift, target, llr0, noise

    def test_finds_error_pattern(self):
        shift, target, llr0, noise = self._instance(7)
        hard, conv, _ = _kernels.bp_decode(shift, 2048, target.astype(np.uint8),
                                           llr0, 60, 0.8, 25.0)
        assert conv and np.array_equal(hard, noise)

    def test_zero_syndrome_instant(self):
        shift, target, llr0, _ = self._instance(8, p=0.0)
        zero = np.zeros(target.size, np.uint8)
        hard, conv, iters = _kernels.bp_decode(shift, 2048, zero, llr0,
                                               60, 0.8, 25.0)
        assert conv and iters == 0 and hard.sum() == 0

    @pytest.mark.parametrize("n, padded", [(30, True), (97, True),
                                           (256, False), (1000, True),
                                           (3000, True)])
    def test_matches_reference_on_small_graphs(self, n, padded):
        # random shift tables of z = n // 8 checks per band, one more when
        # padded: then the last of the 8 blocks holds padding slots
        z = n // 8 + padded
        assert bool(8 * z - n) == padded
        llr0 = math.log(0.95 / 0.05)
        rng = Rng.from_int(70 + n)
        for p in [0.0, 0.02, 0.05, 0.08, 0.15]:
            code = _random_code(rng, n, z)
            _assert_same_decode(code, _noisy_target(code, rng, p), llr0)

    def test_matches_reference_on_desk_graph(self):
        n, ell = _DESK.n_raw, _DESK.syndrome_bits
        llr0 = math.log((1 - _DESK.p_design) / _DESK.p_design)
        rng = Rng.from_int(71)
        code = (recon._code_structure(b"\x08" * 32, n, ell), n, ell // 3)
        results = [_assert_same_decode(code, _noisy_target(code, rng, p), llr0)
                   for p in [0.0, 0.01, 0.02, 0.03, 0.04, 0.045]]
        # converged in 0 and in several iterations, and ran out at max_iter
        assert results[0][1:] == (True, 0)
        assert any(conv and iters > 3 for _, conv, iters in results)
        assert (False, 60) in [r[1:] for r in results]

    @given(_random_decodes())
    # llr0 = 0.3 is not dyadic, so the variable sums round: summing them as
    # llr0 + (c0 + (c1 + c2)) instead converges in 6 iterations, not 7
    @example((107, 30, 5, 1, 0.1, 0.3, 25, 1.0))
    # the same at the desk decoder's llr0: after 3 unconverged iterations
    # the two sum orders leave one hard decision different
    @example((10, 26, 4, 10, 0.3, math.log(24.0), 3, 1.0))
    # no iteration at all: every decision is 0
    @example((0, 38, 4, 3, 0.03, 0.5, 0, 0.75))
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_property(self, case):
        # any z and nb, any padding count, arbitrary shifts with 4-cycles
        # allowed, and any iteration budget
        seed, z, nb, pad, p, llr0, max_iter, norm = case
        rng = Rng.from_int(seed)
        code = _random_code(rng, nb * z - pad, z)
        _assert_same_decode(code, _noisy_target(code, rng, p), llr0,
                            max_iter=max_iter, norm=norm)


class TestSyndromeBits:
    @staticmethod
    def _assert_row_reduction(rng, code, code_seed, ell):
        # the syndrome as an XOR along each padded (m, nb) row
        chk_rows, var_of_edge, _ = edge_form(*code)
        n = code[1]
        for _ in range(3):
            x = np.frombuffer(rng.bytes(n), np.uint8) & 1
            ext = np.concatenate([x, [0]]).astype(np.uint8)
            want = np.bitwise_xor.reduce(ext[var_of_edge[chk_rows]], axis=1)
            got = recon._syndrome_bits_of(x, code_seed, n, ell)
            assert got.dtype == np.uint8 and np.array_equal(got, want)

    @pytest.mark.parametrize("n, ell", [(30, 11), (97, 40), (1000, 337)])
    def test_matches_row_reduction(self, n, ell, monkeypatch):
        # random shift tables of z = ell // 3 checks per band, set as the
        # code: 30-11 has no padding, the others some
        rng = Rng.from_int(72 + n)
        code = _random_code(rng, n, ell // 3)
        monkeypatch.setattr(recon, "_code_structure", lambda *_: code[0])
        self._assert_row_reduction(rng, code, None, ell)

    def test_matches_row_reduction_on_desk_code(self):
        n, ell = _DESK.n_raw, _DESK.syndrome_bits
        rng = Rng.from_int(72 + n)
        code_seed = rng.bytes(32)
        code = (recon._code_structure(code_seed, n, ell), n, ell // 3)
        self._assert_row_reduction(rng, code, code_seed, ell)
