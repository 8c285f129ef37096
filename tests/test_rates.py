import math

import pytest

from qrot import bounds, rates
from qrot.bounds import ProtocolParams, binary_entropy
from qrot.rates import (RatesError, asymptotic_key_rate, emit_figure, key_rate,
                        n_crit, n_max, p_crit)


def _params(n0, p_max=0.01, f=1.2, alpha=0.3, d1=0.009, d2=0.003):
    return ProtocolParams(n0=n0, alpha=alpha, delta1=d1, delta2=d2,
                          p_max=p_max, n=1, f=f)


class TestNMax:
    def test_asymptotic_limit_matches_closed_form(self):
        # at N0 = 1e9 the finite-size terms cost under 1e-6 of the rate,
        # and never make it exceed the large-N0 limit
        finite = key_rate(_params(10 ** 9), 1e-7)
        limit = asymptotic_key_rate(0.01, 1.2, 0.3, 0.009, 0.003)
        assert limit - 1e-6 < finite <= limit
        # alpha, d1, d2 -> 0: rate -> (1/2)(1/2 - h(2p) - h(p))
        assert asymptotic_key_rate(0.01, 1.0) == pytest.approx(
            0.5 * (0.5 - binary_entropy(0.02) - binary_entropy(0.01)), rel=1e-12)

    def test_zero_when_bracket_nonpositive(self):
        p = _params(10 ** 7, p_max=0.05, f=1.2)
        assert n_max(p, 1e-7) == 0

    def test_monotone_in_p_max(self):
        prev = math.inf
        for pm in (0.001, 0.005, 0.01, 0.015, 0.02):
            cur = n_max(_params(10 ** 7, p_max=pm), 1e-7)
            assert cur <= prev
            prev = cur

    def test_target_met_at_result_and_broken_above(self):
        p = _params(10 ** 7)
        n = n_max(p, 1e-7)
        assert n > 0
        assert bounds.eps_max(p.with_n(n)).eps_max <= 1e-7
        assert bounds.eps_max(p.with_n(n + 1)).eps_max > 1e-7

    def test_rate_within_half(self):
        p = _params(10 ** 7)
        r = key_rate(p, 1e-7)
        assert 0.0 <= r <= p.n_raw / p.n0 <= 0.5


class TestPCrit:
    def test_ideal_value(self):
        assert p_crit(1.0) == pytest.approx(0.0283309, abs=5e-6)

    def test_matches_root_of_rate_equation(self):
        # 1/2 = h(2p) + h(p) at the critical point
        pc = p_crit(1.0)
        assert binary_entropy(2 * pc) + binary_entropy(pc) == \
            pytest.approx(0.5, abs=1e-7)

    def test_decreasing_in_f(self):
        assert p_crit(1.2) < p_crit(1.0)
        assert p_crit(2.0) < p_crit(1.2)

    def test_large_f_drives_to_zero(self):
        assert p_crit(50.0) < 1e-3

    def test_f_below_one_rejected(self):
        with pytest.raises(RatesError):
            p_crit(0.9)


class TestOptimizer:
    def test_deterministic(self):
        a = n_crit(1e-7, 0.0114, 1.0, 3.67e-3, 128, grid=(4, 5, 3))
        b = n_crit(1e-7, 0.0114, 1.0, 3.67e-3, 128, grid=(4, 5, 3))
        assert a == b

    def test_reported_eps_reproducible(self):
        res = n_crit(1e-7, 0.0114, 1.0, 3.67e-3, 128, grid=(4, 5, 3))
        assert res.feasible
        p = ProtocolParams(n0=res.n_crit, alpha=res.alpha, delta1=res.delta1,
                           delta2=res.delta2, p_max=0.0114, n=128, f=1.0,
                           p_multi=3.67e-3)
        assert bounds.eps_max(p, True).eps_max == \
            pytest.approx(res.eps_achieved, rel=1e-12)

    def test_minimality_on_grid(self):
        res = n_crit(1e-7, 0.0114, 1.0, 3.67e-3, 128, grid=(4, 5, 3))
        p = ProtocolParams(n0=res.n_crit - 1, alpha=res.alpha, delta1=res.delta1,
                           delta2=res.delta2, p_max=0.0114, n=128, f=1.0,
                           p_multi=3.67e-3)
        assert bounds.eps_max(p, True).eps_max > 1e-7

    def test_relaxing_target_shrinks_n_crit(self):
        tight = n_crit(1e-9, 0.0114, 1.0, 3.67e-3, 128, grid=(4, 5, 3)).n_crit
        loose = n_crit(1e-3, 0.0114, 1.0, 3.67e-3, 128, grid=(4, 5, 3)).n_crit
        assert loose < tight

    def test_infeasible_p_max(self):
        res = n_crit(1e-7, 0.05, 1.0, 0.0, 128, grid=(3, 3, 3))
        assert not res.feasible and res.n_crit == 0


class TestFigures:
    def test_fig2_shape_and_anchors(self):
        rows = emit_figure("fig2", points=100)
        assert rows[0] == "p_max,R_key_ideal,R_key_typical"
        table = [tuple(float(v) for v in r.split(",")) for r in rows[1:]]
        # ideal curve starts at 1/4 and dies near p_crit
        assert table[0][1] == pytest.approx(0.25, rel=1e-9)
        root = next(p for p, blue, _ in table if blue == 0.0)
        assert abs(root - 0.0283) < 0.0012
        # typical curve at p -> 0
        assert table[0][2] == pytest.approx(0.0627, abs=0.001)

    def test_fig3_columns_ordered_by_security(self):
        rows = emit_figure("fig3", n0_grid=[10 ** 6, 10 ** 7])
        for r in rows[1:]:
            vals = [float(v) for v in r.split(",")][1:]
            # looser targets never give a smaller rate
            assert vals == sorted(vals, reverse=True)

    def test_fig4_monotone(self):
        rows = emit_figure("fig4", exponents=range(3, 7))
        ns = [int(float(r.split(",")[1])) for r in rows[1:]]
        assert all(a <= b for a, b in zip(ns, ns[1:]))

    def test_unknown_selector(self):
        with pytest.raises(RatesError):
            emit_figure("fig9")

    def test_deterministic_emission(self):
        assert emit_figure("fig2", points=40) == emit_figure("fig2", points=40)
