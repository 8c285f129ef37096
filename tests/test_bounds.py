import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrot import bounds
from qrot.bounds import (BoundsError, ProtocolParams, TABLE1_PARAMS,
                         binary_entropy, binary_kl, entropy_rate_bracket,
                         eps_correctness, eps_max)


class TestEntropy:
    def test_known_values(self):
        assert binary_entropy(0.5) == 1.0
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.11) == pytest.approx(0.49992, abs=1e-4)

    @given(st.floats(0.001, 0.999))
    @settings(max_examples=200, deadline=None)
    def test_symmetric_and_bounded(self, p):
        assert binary_entropy(p) == pytest.approx(binary_entropy(1 - p), rel=1e-12)
        assert 0.0 < binary_entropy(p) <= 1.0

    def test_domain_checked(self):
        with pytest.raises(BoundsError):
            binary_entropy(1.1)


class TestKl:
    def test_zero_at_equal(self):
        assert binary_kl(0.3, 0.3) == pytest.approx(0.0, abs=1e-15)

    def test_positive_elsewhere(self):
        assert binary_kl(0.4, 0.5) > 0
        assert binary_kl(0.0, 0.5) == pytest.approx(math.log(2), rel=1e-12)

    def test_reference_domain(self):
        with pytest.raises(BoundsError):
            binary_kl(0.2, 0.0)


class TestParams:
    def test_table1_derived_sizes(self):
        p = TABLE1_PARAMS
        assert (p.n_test, p.n_check, p.n_raw) == (2050999, 1019347, 1893073)

    def test_sizes_are_floored(self):
        p = ProtocolParams(n0=101, alpha=0.25, delta1=0.01, delta2=0.01,
                           p_max=0.01, n=1)
        assert p.n_test == math.floor(0.25 * 101)
        assert p.n_check == math.floor(0.49 * 0.25 * 101)
        assert p.n_raw == math.floor(0.49 * 0.75 * 101)

    def test_validation(self):
        with pytest.raises(BoundsError):
            ProtocolParams(n0=100, alpha=0.0, delta1=0.01, delta2=0.01,
                           p_max=0.01, n=1)
        with pytest.raises(BoundsError):
            ProtocolParams(n0=100, alpha=0.3, delta1=0.01, delta2=0.01,
                           p_max=0.6, n=1)
        with pytest.raises(BoundsError):
            ProtocolParams(n0=100, alpha=0.3, delta1=0.01, delta2=0.01,
                           p_max=0.01, n=1, f=0.9)

    @pytest.mark.parametrize("field", ["alpha", "delta1", "delta2", "p_max",
                                       "f", "p_multi", "eps_ir", "eps_bind"])
    def test_non_finite_rejected(self, field):
        for value in (math.inf, -math.inf, math.nan):
            with pytest.raises(BoundsError, match="finite"):
                replace(TABLE1_PARAMS, **{field: value})


class TestBracket:
    def test_table1_value(self):
        # oracle: 1/2 - 2d2/(1-2d2) - h((pm+d1)/(1/2-d2)) - f h(pm+d1) - pmu/(1/2-d2)
        assert entropy_rate_bracket(TABLE1_PARAMS, experimental=True) == \
            pytest.approx(0.0038743936412884506, rel=1e-12)

    def test_experimental_charges_multi_leak(self):
        theo = entropy_rate_bracket(TABLE1_PARAMS, experimental=False)
        exp = entropy_rate_bracket(TABLE1_PARAMS, experimental=True)
        assert theo - exp == pytest.approx(3.67e-3 / (0.5 - 3e-3), rel=1e-12)

    def test_undefined_beyond_half(self):
        p = ProtocolParams(n0=1000, alpha=0.3, delta1=0.01, delta2=0.01,
                           p_max=0.48, n=1)
        with pytest.raises(BoundsError, match="rate bracket undefined"):
            entropy_rate_bracket(p, experimental=False)


class TestTable1Bound:
    """Frozen component values, cross-checked against a direct-formula oracle."""

    def test_components(self):
        r = eps_max(TABLE1_PARAMS, experimental=True)
        assert r.eps_correct == pytest.approx(4.656612873077e-10, rel=1e-9)
        assert r.eps_stat == pytest.approx(3.389564748069e-08, rel=1e-9)
        assert r.eps_kl == pytest.approx(1.673875190928e-30, rel=1e-9)
        assert r.eps_bind == pytest.approx(2.0 ** -32, rel=1e-12)
        assert r.eps_lhl == 0.0
        assert "eps_lhl" in r.underflowed
        assert r.eps_max == pytest.approx(3.459413941166e-08, rel=1e-9)

    def test_statistical_term_dominates(self):
        r = eps_max(TABLE1_PARAMS, experimental=True)
        assert r.eps_stat > 0.9 * r.eps_max

    def test_correctness_term(self):
        # lhs term underflows at the Table-1 gap; the 2*eps_IR floor remains
        assert eps_correctness(TABLE1_PARAMS) == pytest.approx(2.0 ** -31, rel=1e-12)

    def test_output_longer_than_raw_rejected(self):
        p = TABLE1_PARAMS.with_n(TABLE1_PARAMS.n_raw)
        with pytest.raises(BoundsError):
            eps_correctness(p)


class TestReportShape:
    def test_component_sum(self):
        r = eps_max(TABLE1_PARAMS, experimental=True)
        assert r.eps_receiver == pytest.approx(
            r.eps_stat + r.eps_kl + r.eps_bind + r.eps_lhl, rel=1e-15)
        assert r.eps_max == pytest.approx(r.eps_correct + r.eps_receiver, rel=1e-15)

    def test_components_capped_at_vacuous(self):
        p = ProtocolParams(n0=2000, alpha=0.3, delta1=1e-4, delta2=1e-4,
                           p_max=0.01, n=1)
        r = eps_max(p, experimental=False)
        assert r.eps_stat <= 2.0 and r.eps_lhl <= 2.0

    def test_experimental_flag_matters_only_with_multi(self):
        p = ProtocolParams(n0=10 ** 6, alpha=0.3, delta1=0.01, delta2=0.01,
                           p_max=0.01, n=64, p_multi=0.0)
        assert eps_max(p, True).eps_max == eps_max(p, False).eps_max

    @given(st.integers(10 ** 5, 10 ** 8))
    @settings(max_examples=30, deadline=None)
    def test_monotone_decreasing_in_n0(self, n0):
        p = ProtocolParams(n0=n0, alpha=0.3, delta1=0.01, delta2=0.005,
                           p_max=0.005, n=16)
        bigger = bounds.eps_max(ProtocolParams(
            n0=2 * n0, alpha=0.3, delta1=0.01, delta2=0.005, p_max=0.005, n=16))
        assert bigger.eps_max <= bounds.eps_max(p).eps_max * (1 + 1e-9)
