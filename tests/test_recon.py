import hashlib
import itertools
import math

import numpy as np
import pytest

from qrot import protocol, recon
from qrot.bitcore import BitString, Rng
from qrot.bounds import TABLE1_PARAMS, binary_entropy
from qrot.protocol import desk_config
from qrot.recon import (BACKEND_LDPC, BACKEND_TRIVIAL, IrParams, ReconError,
                        Syndrome, dec, syn)
from draws import uniform

N = 4096
IR = IrParams(n_raw=N, p_design=0.05, f=1.3, tag_bits=32)
_DESK = desk_config(ir_backend=BACKEND_LDPC).ir_params
DESK_N, DESK_ELL = _DESK.n_raw, _DESK.syndrome_bits  # 23101, 7275


def epsilon_ir(params):
    """Wrong-accept probability bound: a tag collision."""
    return 2.0 ** (-params.tag_bits)


def _shift_reference(code_seed, n_raw, ell):
    """The quasi-cyclic code's circulant shifts (3, nb) from their
    definition, one block and one band at a time: z = ell // 3, nb =
    ceil(n / z). Band 0 has shift 0; block by block, shift[1][j] is drawn
    from the values not yet in band 1, then shift[2][j] from those not yet
    in band 2 that keep shift[1] - shift[2] distinct."""
    rng = Rng(hashlib.blake2b(b"ldpc" + code_seed, digest_size=32).digest())
    z = ell // 3
    nb = -(-n_raw // z)
    shift = [[0] * nb for _ in range(3)]
    for j in range(nb):
        free = [v for v in range(z) if v not in shift[1][:j]]
        shift[1][j] = free[rng.randbelow_array([len(free)])[0]]
        diffs = {(shift[1][k] - shift[2][k]) % z for k in range(j)}
        free = [v for v in range(z) if v not in shift[2][:j]
                and (shift[1][j] - v) % z not in diffs]
        shift[2][j] = free[rng.randbelow_array([len(free)])[0]]
    return np.array(shift, dtype=np.int64)


def edge_form(shift, n, z):
    """(chk_rows, var_of_edge, var_edges) of the quasi-cyclic code of shifts
    (3, nb), n variables and z checks per band, from the definition one
    check and one slot at a time: check i * z + r meets, in slot j,
    variable j * z + (r + shift[i][j]) % z, a padding slot at or past n.
    Edges are numbered check by check along each row of chk_rows (m, nb),
    padding slots as edge E with variable n; var_edges (n, 3) holds each
    variable's edges in ascending order."""
    nb = len(shift[0])
    rows, var_of_edge = [], []
    var_edges = [[] for _ in range(n)]
    for i in range(3):
        for r in range(z):
            row = []
            for j in range(nb):
                v = j * z + (r + int(shift[i][j])) % z
                if v < n:
                    row.append(len(var_of_edge))
                    var_edges[v].append(len(var_of_edge))
                    var_of_edge.append(v)
                else:
                    row.append(None)
            rows.append(row)
    e_tot = len(var_of_edge)
    chk_rows = [[e_tot if e is None else e for e in row] for row in rows]
    return (np.array(chk_rows, dtype=np.int64),
            np.array(var_of_edge + [n], dtype=np.int64),
            np.array(var_edges, dtype=np.int64))


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
    noise = (uniform(rng, n) < p).astype(np.uint8)
    return BitString.from_bits(x), BitString.from_bits(x ^ noise), rng


class TestIrParams:
    def test_syndrome_length_formula(self):
        # three equal bands of checks, rounded down: 1,524 of 1,525.0 at N
        h = -0.05 * math.log2(0.05) - 0.95 * math.log2(0.95)
        assert IR.syndrome_bits == 3 * (math.floor(1.3 * h * N) // 3) == 1524

    def test_syndrome_within_charged_leak(self):
        # the bound charges f * h(p_design) * n_raw bits of leak, a real
        # number; the syndrome sends no more than that
        table1 = protocol.SessionConfig(TABLE1_PARAMS).ir_params
        grid = [IrParams(n_raw=n, p_design=p, f=f) for n in (4096, 100000)
                for p in (0.02, 0.11) for f in (1.1, 1.64)]
        for params in [_DESK, table1, *grid]:
            charged = params.f * binary_entropy(params.p_design) * params.n_raw
            assert charged - 3 < params.syndrome_bits <= charged

    @pytest.mark.parametrize("n", [30, 97])
    def test_refuses_size_without_four_cycle_free_code(self, n):
        # z checks per band leave room for 4-cycle-free shifts in at most
        # (z + 1) // 2 blocks: n 97 has z = 12 and 9 blocks, n 30 has z = 3
        # and 10 blocks
        with pytest.raises(ReconError, match="4-cycles"):
            IrParams(n_raw=n, p_design=0.05, f=1.3)

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

    @pytest.mark.parametrize("p", [0.02, 0.03, 0.035])
    def test_desk_code_margin(self, p):
        # the desk code's measured curve: every fixed pattern decodes at p_max
        # (0.02), at 0.03 and at 0.035; at its p_design (0.04) 143 of these
        # 200 fail
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
    @staticmethod
    def _edges(code_seed, n, ell):
        return edge_form(recon._code_structure(code_seed, n, ell), n, ell // 3)

    def test_column_weight_three(self):
        ell = IrParams(n_raw=512, p_design=0.05, f=1.3).syndrome_bits
        _, var_of_edge, var_edges = self._edges(b"\x04" * 32, 512, ell)
        assert np.all(np.bincount(var_of_edge[:-1], minlength=512) == 3)
        assert var_edges.shape == (512, 3)
        assert np.array_equal(var_of_edge[var_edges],
                              np.repeat(np.arange(512), 3).reshape(512, 3))

    def test_seed_changes_graph(self):
        ell = IrParams(n_raw=512, p_design=0.05, f=1.3).syndrome_bits
        a = recon._code_structure(b"\x01" * 32, 512, ell)
        b = recon._code_structure(b"\x02" * 32, 512, ell)
        assert not np.array_equal(a, b)

    def test_no_duplicate_incidences(self):
        ell = IrParams(n_raw=512, p_design=0.05, f=1.3).syndrome_bits
        chk_rows, var_of_edge, _ = self._edges(b"\x05" * 32, 512, ell)
        for check in var_of_edge[chk_rows]:
            vars_in_row = check[check < 512]
            assert len(set(vars_in_row.tolist())) == vars_in_row.size

    @pytest.mark.parametrize("n", [256, 1000, 3000])
    def test_matches_reference_builder(self, n):
        ell = IrParams(n_raw=n, p_design=0.05, f=1.3).syndrome_bits
        for k in range(4):
            seed = bytes([n % 256, k]) * 16
            assert np.array_equal(recon._code_structure(seed, n, ell),
                                  _shift_reference(seed, n, ell))

    def test_matches_reference_builder_at_desk_point(self):
        seed = b"\x06" * 32
        assert np.array_equal(recon._code_structure(seed, DESK_N, DESK_ELL),
                              _shift_reference(seed, DESK_N, DESK_ELL))

    @pytest.mark.parametrize("n, ell", [(512, 189), (N, IR.syndrome_bits),
                                        (DESK_N, DESK_ELL)])
    def test_no_four_cycles(self, n, ell):
        # every pair of variables in one check, over all checks: a pair met
        # twice shares two checks
        chk_rows, var_of_edge, _ = self._edges(recon._CODE_SEED, n, ell)
        pairs = []
        for a, b in itertools.combinations(var_of_edge[chk_rows].T, 2):
            lo, hi = np.minimum(a, b), np.maximum(a, b)
            pairs.append((lo * n + hi)[hi < n])
        pairs = np.concatenate(pairs)
        assert np.unique(pairs).size == pairs.size

    def test_builds_at_every_accepted_size(self):
        # a free shift is left in every block wherever IrParams accepts the
        # size, down to the smallest accepted n at each point (140 and 320);
        # the shifts keep the conditions that rule out 4-cycles: distinct
        # within each band and distinct band differences
        built = 0
        for p, f in [(0.05, 1.3), (0.0204, 1.64)]:
            for n in range(100, 5001, 4):
                try:
                    ell = IrParams(n_raw=n, p_design=p, f=f).syndrome_bits
                except ReconError:
                    continue
                z = ell // 3
                shift = recon._code_structure(b"\x09" * 32, n, ell)
                nb = -(-n // z)
                assert shift.shape == (3, nb) and not shift[0].any()
                assert shift.shape[1] >= 4  # bp_decode needs two real slots per check
                assert 0 <= shift.min() and shift.max() < z
                for row in (shift[1], shift[2], (shift[1] - shift[2]) % z):
                    assert np.unique(row).size == nb
                built += 1
        assert built == 2385

    def test_table1_code_is_its_shift_table(self):
        # the cached code at the paper's point is 3 x 13 shifts, not index
        # arrays over its 1.9M variables
        ir = protocol.SessionConfig(TABLE1_PARAMS).ir_params
        shift = recon._code_structure(recon._CODE_SEED, ir.n_raw, ir.syndrome_bits)
        assert shift.shape == (3, 13) and shift.dtype == np.int64
        assert not shift.flags.writeable and not shift[0].any()
        assert shift.nbytes < 1024

    def test_desk_graph_pinned(self):
        # The seeded code itself: changing the shift draw or the layout
        # changes every desk-LDPC session, so this digest moves only on purpose.
        graph = self._edges(b"\x07" * 32, DESK_N, DESK_ELL)
        assert _graph_digest(graph) == "496895e95ef3d83602f324775756fea1"
