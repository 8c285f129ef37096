import hashlib
import math

import numpy as np
import pytest

from qrot import recon
from qrot.bitcore import BitString, Rng
from qrot.protocol import desk_config
from qrot.recon import (BACKEND_LDPC, BACKEND_TRIVIAL, IrParams, ReconError,
                        Syndrome, dec, syn)

N = 4096
IR = IrParams(n_raw=N, p_design=0.05, f=1.3, tag_bits=32)
_DESK = desk_config(ir_backend=BACKEND_LDPC).ir_params
DESK_N, DESK_ELL = _DESK.n_raw, _DESK.syndrome_bits  # 23101, 7277


def epsilon_ir(params):
    """Wrong-accept probability bound: a tag collision."""
    return 2.0 ** (-params.tag_bits)


def _code_structure_reference(code_seed, n_raw, ell):
    """The argsort-based graph builder with a scalar shuffle: same draws,
    same repair order, so the same arrays as recon._code_structure."""
    rng = Rng(hashlib.blake2b(b"ldpc" + code_seed, digest_size=32).digest())
    e_tot = 3 * n_raw
    var_of_edge = np.repeat(np.arange(n_raw, dtype=np.int64), 3)
    perm = np.arange(e_tot, dtype=np.int64)
    j = np.arange(e_tot, dtype=np.int64) + rng.randbelow_array(e_tot - np.arange(e_tot))
    p = memoryview(perm)
    for i, t in enumerate(j.tolist()):
        p[i], p[t] = p[t], p[i]
    var_of_edge = var_of_edge[perm]

    base, extra = divmod(e_tot, ell)
    row_deg = np.full(ell, base, dtype=np.int64)
    row_deg[:extra] += 1
    row_of_edge = np.repeat(np.arange(ell, dtype=np.int64), row_deg)

    for _ in range(64):
        key = row_of_edge * n_raw + var_of_edge
        order = np.argsort(key, kind="stable")
        dup_pos = order[1:][np.diff(key[order]) == 0]
        if dup_pos.size == 0:
            break
        swap_with = rng.randbelow_array(np.full(dup_pos.size, e_tot))
        for a, b in zip(dup_pos.tolist(), swap_with.tolist()):
            var_of_edge[a], var_of_edge[b] = var_of_edge[b], var_of_edge[a]
    else:
        raise ReconError("could not build a simple parity-check graph")

    cols = np.arange(int(row_deg.max()))
    start = np.cumsum(row_deg) - row_deg
    chk_rows = np.where(cols < row_deg[:, None], start[:, None] + cols, e_tot)
    var_edges = np.argsort(var_of_edge, kind="stable").reshape(n_raw, 3)
    return chk_rows, np.concatenate([var_of_edge, [n_raw]]), var_edges


def edge_form(var_of_slot, var_slots):
    """(chk_rows, var_of_edge, var_edges) of a check-slot-major graph:
    edges numbered check by check along each row of chk_rows (m, dmax),
    padding slots as edge E and variable n as its variable."""
    n = var_slots.shape[0]
    real = var_of_slot.T != n
    e_tot = int(real.sum())
    chk_rows = np.full(real.shape, e_tot, dtype=np.int64)
    chk_rows[real] = np.arange(e_tot)
    var_of_edge = np.append(var_of_slot.T[real], n)
    return chk_rows, var_of_edge, chk_rows.T.ravel()[var_slots]


def _graph_digest(graph):
    h = hashlib.blake2b(digest_size=16)
    for a in graph:
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _pair(seed, n=N, p=0.025):
    """Sender string x and receiver string y differing at rate p."""
    rng = Rng.from_int(seed)
    x = np.frombuffer(rng.bytes(n), np.uint8) & 1
    noise = (rng.uniform(n) < p).astype(np.uint8)
    return BitString.from_bits(x), BitString.from_bits(x ^ noise), rng


class TestIrParams:
    def test_syndrome_length_formula(self):
        h = -0.05 * math.log2(0.05) - 0.95 * math.log2(0.95)
        assert IR.syndrome_bits == math.ceil(1.3 * h * N)

    def test_trivial_backend_leaks_only_tag(self):
        p = IrParams(n_raw=N, p_design=0.05, backend=BACKEND_TRIVIAL)
        assert p.syndrome_bits == 0 and p.record_bytes == (p.tag_bits + 7) // 8

    def test_validation(self):
        with pytest.raises(ReconError):
            IrParams(n_raw=N, p_design=0.6)
        with pytest.raises(ReconError):
            IrParams(n_raw=N, p_design=0.05, f=0.5)
        with pytest.raises(ReconError):
            IrParams(n_raw=100, p_design=0.4, f=3.0)  # no compression left
        with pytest.raises(ReconError):
            IrParams(n_raw=N, p_design=0.05, f=1e308)  # f * h(p) * N overflows

    def test_epsilon_ir(self):
        assert epsilon_ir(IR) == 2.0 ** -32
        assert epsilon_ir(IrParams(n_raw=N, p_design=0.05, tag_bits=16)) == 2.0 ** -16


class TestWireForm:
    def test_record_sized_by_config(self):
        x, _, _ = _pair(1)
        raw = syn(x, IR).serialize()
        assert len(raw) == IR.record_bytes == \
            (IR.syndrome_bits + 7) // 8 + (IR.tag_bits + 7) // 8

    def test_round_trip(self):
        x, _, _ = _pair(1)
        s = syn(x, IR)
        assert Syndrome.parse(s.serialize(), IR) == s

    def test_truncation_rejected(self):
        x, _, _ = _pair(2)
        raw = syn(x, IR).serialize()
        with pytest.raises(ReconError):
            Syndrome.parse(raw[:-3], IR)

    def test_every_prefix_rejected(self):
        x, _, _ = _pair(3)
        raw = syn(x, IR).serialize()
        for k in range(len(raw)):
            with pytest.raises(ReconError):
                Syndrome.parse(raw[:k], IR)
        with pytest.raises(ReconError):
            Syndrome.parse(raw + b"\x00", IR)


class TestDecode:
    def test_recovers_at_half_design_rate(self):
        for seed in range(20):
            x, y, _ = _pair(seed)
            s = syn(x, IR)
            assert dec(s, y, IR) == x

    @pytest.mark.parametrize("p", [0.02, 0.03])
    def test_desk_code_margin(self, p):
        # the desk code's measured curve: every fixed pattern decodes at p_max
        # (0.02) and at 0.03; at its p_design (0.04) about 3 in 4 fail
        assert _DESK.p_design == pytest.approx(0.04)
        fails = 0
        for seed in range(200):
            x, y, _ = _pair(1000 + seed, n=DESK_N, p=p)
            fails += dec(syn(x, _DESK), y, _DESK) != x
        assert fails == 0

    def test_zero_noise_immediate(self):
        x, _, _ = _pair(50, p=0.0)
        s = syn(x, IR)
        assert dec(s, x, IR) == x

    def test_unrelated_string_rejected(self):
        hits = 0
        for seed in range(20):
            x, _, rng = _pair(seed + 100)
            s = syn(x, IR)
            z = BitString.from_bits(np.frombuffer(rng.bytes(N), np.uint8) & 1)
            hits += dec(s, z, IR) is not None
        assert hits == 0

    def test_tag_gates_acceptance(self):
        x, y, _ = _pair(200)
        s = syn(x, IR)
        flipped = bytearray(s.tag.payload)
        flipped[0] ^= 0x80
        bad = Syndrome(s.syn, BitString(bytes(flipped), s.tag.length))
        assert dec(bad, y, IR) is None

    def test_wrong_lengths_rejected_not_raised(self):
        x, y, _ = _pair(201)
        s = syn(x, IR)
        short = IrParams(n_raw=N, p_design=0.05, f=1.3, tag_bits=16)
        assert dec(s, y, short) is None

    def test_trivial_backend_round_trip(self):
        p = IrParams(n_raw=N, p_design=0.05, backend=BACKEND_TRIVIAL)
        x, y, _ = _pair(202)
        s = syn(x, p)
        assert s.syn.length == 0
        assert dec(s, x, p) == x      # identical copy passes
        assert dec(s, y, p) is None   # any noise trips the tag

    def test_block_length_checked(self):
        x, _, _ = _pair(203)
        with pytest.raises(ReconError):
            syn(BitString.zeros(N - 1), IR)
        with pytest.raises(ReconError):
            dec(syn(x, IR), BitString.zeros(N + 1), IR)

    def test_syndrome_is_linear(self):
        x1, _, rng = _pair(205)
        x2 = BitString.from_bits(np.frombuffer(rng.bytes(N), np.uint8) & 1)
        s1 = syn(x1, IR).syn
        s2 = syn(x2, IR).syn
        s12 = syn(x1 ^ x2, IR).syn
        assert s12 == s1 ^ s2


class TestGraph:
    def test_column_weight_three(self):
        var_of_slot, var_slots = recon._code_structure(
            b"\x04" * 32, 512, IrParams(n_raw=512, p_design=0.05, f=1.3).syndrome_bits)
        counts = np.bincount(var_of_slot.ravel(), minlength=513)
        assert np.all(counts[:512] == 3)
        assert var_slots.shape == (512, 3)
        assert np.array_equal(var_of_slot.ravel()[var_slots],
                              np.repeat(np.arange(512), 3).reshape(512, 3))

    def test_seed_changes_graph(self):
        ell = IrParams(n_raw=512, p_design=0.05, f=1.3).syndrome_bits
        a, _ = recon._code_structure(b"\x01" * 32, 512, ell)
        b, _ = recon._code_structure(b"\x02" * 32, 512, ell)
        assert not np.array_equal(a, b)

    def test_no_duplicate_incidences(self):
        ell = IrParams(n_raw=512, p_design=0.05, f=1.3).syndrome_bits
        var_of_slot, _ = recon._code_structure(b"\x05" * 32, 512, ell)
        for check in var_of_slot.T:
            vars_in_row = check[check < 512]
            assert len(set(vars_in_row.tolist())) == vars_in_row.size

    @pytest.mark.parametrize("n", [30, 97, 256, 1000, 3000])
    def test_matches_reference_builder(self, n):
        ell = IrParams(n_raw=n, p_design=0.05, f=1.3).syndrome_bits
        for k in range(4):
            seed = bytes([n % 256, k]) * 16
            assert _graph_digest(edge_form(*recon._code_structure(seed, n, ell))) == \
                _graph_digest(_code_structure_reference(seed, n, ell))

    def test_matches_reference_builder_at_desk_point(self):
        seed = b"\x06" * 32
        graph = edge_form(*recon._code_structure(seed, DESK_N, DESK_ELL))
        assert _graph_digest(graph) == \
            _graph_digest(_code_structure_reference(seed, DESK_N, DESK_ELL))

    def test_desk_graph_pinned(self):
        # The seeded ensemble itself: changing the draws or the repair order
        # changes every desk-LDPC session, so this digest moves only on purpose.
        graph = edge_form(*recon._code_structure(b"\x07" * 32, DESK_N, DESK_ELL))
        assert _graph_digest(graph) == "df56087f53d68fb222712452a1c572b1"
