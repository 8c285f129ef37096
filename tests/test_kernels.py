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


def _slot_form(chk_rows, var_of_edge, var_edges):
    """(var_of_slot, var_slots) of an edge-indexed graph: slot (c, i) is
    column c of check i."""
    m, dmax = chk_rows.shape
    slot_of_edge = np.empty(var_of_edge.size, dtype=np.intp)
    slot_of_edge[chk_rows.T.ravel()] = np.arange(dmax * m)
    return var_of_edge[chk_rows.T], slot_of_edge[var_edges]


def _random_graph(rng, n, row_deg, dmax):
    """A random graph of column weight 3 in slot form, independent of
    ``recon``'s code: check i holds row_deg[i] edges at random columns of
    dmax and padding in the rest, and the 3n edges meet the variables in a
    random order, duplicate incidences allowed."""
    m, e_tot = len(row_deg), 3 * n
    chk_rows = np.full((m, dmax), e_tot, dtype=np.int64)
    start = np.cumsum(row_deg) - row_deg
    for i in range(m):
        at = np.argsort(uniform(rng, dmax))[:row_deg[i]]
        chk_rows[i, np.sort(at)] = start[i] + np.arange(row_deg[i])
    var_of_edge = np.append(np.argsort(uniform(rng, e_tot)) // 3, n)
    var_edges = np.argsort(var_of_edge[:-1], kind="stable").reshape(n, 3)
    return _slot_form(chk_rows, var_of_edge, var_edges)


def _near_regular_graph(rng, n, m):
    """A random graph whose m rows have degree base or base + 1, base =
    3n // m, with the short rows padded at a random column."""
    base, extra = divmod(3 * n, m)
    row_deg = np.full(m, base)
    row_deg[:extra] += 1
    return _random_graph(rng, n, row_deg, int(row_deg.max()))


def _noisy_target(graph, n, rng, p):
    """Syndrome of a random flip pattern at rate p: the decoder's target."""
    chk_rows, var_of_edge, _ = edge_form(*graph)
    flips = np.append(uniform(rng, n) < p, False).astype(np.uint8)
    return np.bitwise_xor.reduce(flips[var_of_edge[chk_rows]], axis=1)


def _assert_same_decode(graph, synd, llr0, max_iter=60, norm=0.8, clamp=25.0):
    got = _kernels.bp_decode(*graph, synd, llr0, max_iter, norm, clamp)
    want = _bp_decode_reference(*edge_form(*graph), synd, llr0, max_iter,
                                norm, clamp)
    assert got[0].dtype == want[0].dtype == np.uint8
    assert np.array_equal(got[0], want[0]) and got[1:] == want[1:]
    return got


@st.composite
def _random_decodes(draw):
    """(seed, n, m, extra padding columns, Fortran order, flip rate, llr0,
    max_iter, norm) of a random decode."""
    seed = draw(st.integers(0, 2 ** 32))
    n = draw(st.integers(2, 120))
    return (seed, n, draw(st.integers(1, 3 * n // 2)), draw(st.integers(0, 2)),
            draw(st.booleans()), draw(st.sampled_from([0.0, 0.03, 0.1, 0.3])),
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


class TestBpKernel:
    def _instance(self, seed, n=2048, p=0.02):
        rng = Rng.from_int(seed)
        ir = recon.IrParams(n_raw=n, p_design=0.04, f=1.3, tag_bits=16)
        code_seed = rng.bytes(32)
        x = np.frombuffer(rng.bytes(n), np.uint8) & 1
        noise = (uniform(rng, n) < p).astype(np.uint8)
        graph = recon._code_structure(code_seed, n, ir.syndrome_bits)
        target = recon._syndrome_bits_of(x ^ noise, code_seed, n, ir.syndrome_bits) \
            ^ recon._syndrome_bits_of(x, code_seed, n, ir.syndrome_bits)
        llr0 = math.log((1 - ir.p_design) / ir.p_design)
        return graph, target, llr0, noise

    def test_finds_error_pattern(self):
        graph, target, llr0, noise = self._instance(7)
        hard, conv, _ = _kernels.bp_decode(*graph, target.astype(np.uint8),
                                           llr0, 60, 0.8, 25.0)
        assert conv and np.array_equal(hard, noise)

    def test_zero_syndrome_instant(self):
        graph, _, llr0, _ = self._instance(8, p=0.0)
        zero = np.zeros(graph[0].shape[1], np.uint8)
        hard, conv, iters = _kernels.bp_decode(*graph, zero, llr0,
                                               60, 0.8, 25.0)
        assert conv and iters == 0 and hard.sum() == 0

    @pytest.mark.parametrize("n, padded", [(30, True), (97, True),
                                           (256, False), (1000, True),
                                           (3000, True)])
    def test_matches_reference_on_small_graphs(self, n, padded):
        # random graphs of 3n / 8 checks, one more when padded: then rows
        # have degree 7 and 8, so only some rows have a padding slot; at
        # n = 256 every row has degree 8
        m = 3 * n // 8 + padded
        assert bool(3 * n % m) == padded
        llr0 = math.log(0.95 / 0.05)
        rng = Rng.from_int(70 + n)
        for p in [0.0, 0.02, 0.05, 0.08, 0.15]:
            graph = _near_regular_graph(rng, n, m)
            _assert_same_decode(graph, _noisy_target(graph, n, rng, p), llr0)

    def test_matches_reference_on_desk_graph(self):
        n, ell = _DESK.n_raw, _DESK.syndrome_bits
        llr0 = math.log((1 - _DESK.p_design) / _DESK.p_design)
        rng = Rng.from_int(71)
        graph = recon._code_structure(b"\x08" * 32, n, ell)
        results = [_assert_same_decode(graph, _noisy_target(graph, n, rng, p),
                                       llr0)
                   for p in [0.0, 0.01, 0.02, 0.03, 0.04, 0.045]]
        # converged in 0 and in several iterations, and ran out at max_iter
        assert results[0][1:] == (True, 0)
        assert any(conv and iters > 3 for _, conv, iters in results)
        assert (False, 60) in [r[1:] for r in results]

    @given(_random_decodes())
    # llr0 = 0.3 is not dyadic, so the variable sums round: summing them as
    # llr0 + (c0 + (c1 + c2)) instead converges in 6 iterations, not 5
    @example((41811, 19, 17, 1, False, 0.1, 0.3, 25, 1.0))
    # the same at the desk decoder's llr0: after 3 unconverged iterations
    # the two sum orders leave one hard decision different
    @example((0, 28, 7, 0, False, 0.3, math.log(24.0), 3, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_property(self, case):
        # arbitrary row degrees (2 or more, not just base and base + 1),
        # padding at any column, duplicate incidences allowed, either
        # memory order of var_of_slot, and any iteration budget
        seed, n, m, extra, fortran, p, llr0, max_iter, norm = case
        rng = Rng.from_int(seed)
        e_tot = 3 * n
        cuts = np.sort(rng.randbelow_array(np.full(m - 1, e_tot - 2 * m + 1)))
        row_deg = np.diff(np.concatenate([[0], cuts, [e_tot - 2 * m]])) + 2
        var_of_slot, var_slots = _random_graph(rng, n, row_deg,
                                               int(row_deg.max()) + extra)
        if fortran:
            var_of_slot = np.asfortranarray(var_of_slot)
        graph = (var_of_slot, var_slots)
        _assert_same_decode(graph, _noisy_target(graph, n, rng, p), llr0,
                            max_iter=max_iter, norm=norm)


class TestSyndromeBits:
    @staticmethod
    def _assert_row_reduction(rng, graph, code_seed, n, ell):
        # the syndrome as an XOR along each padded (m, dmax) row
        chk_rows, var_of_edge, _ = edge_form(*graph)
        for _ in range(3):
            x = np.frombuffer(rng.bytes(n), np.uint8) & 1
            ext = np.concatenate([x, [0]]).astype(np.uint8)
            want = np.bitwise_xor.reduce(ext[var_of_edge[chk_rows]], axis=1)
            got = recon._syndrome_bits_of(x, code_seed, n, ell)
            assert got.dtype == np.uint8 and np.array_equal(got, want)

    @pytest.mark.parametrize("n, ell", [(30, 11), (97, 40), (1000, 337)])
    def test_matches_row_reduction(self, n, ell, monkeypatch):
        rng = Rng.from_int(72 + n)
        graph = _near_regular_graph(rng, n, ell)
        monkeypatch.setattr(recon, "_code_structure", lambda *_: graph)
        self._assert_row_reduction(rng, graph, None, n, ell)

    def test_matches_row_reduction_on_desk_code(self):
        n, ell = _DESK.n_raw, _DESK.syndrome_bits
        rng = Rng.from_int(72 + n)
        code_seed = rng.bytes(32)
        self._assert_row_reduction(rng, recon._code_structure(code_seed, n, ell),
                                   code_seed, n, ell)
