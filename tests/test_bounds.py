import itertools
import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrot import bounds
from qrot.bounds import (BoundsError, PointBound, ProtocolParams, TABLE1_PARAMS,
                         binary_entropy, binary_kl, eps_max, rate_bracket)


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

    @pytest.mark.parametrize("n0", [0, -1, -1_000_000_000])
    def test_nonpositive_n0_rejected(self, n0):
        with pytest.raises(BoundsError, match="N0"):
            replace(TABLE1_PARAMS, n0=n0)
        assert replace(TABLE1_PARAMS, n0=1).n_test == 0

    @pytest.mark.parametrize("field", ["alpha", "delta1", "delta2", "p_max",
                                       "f", "p_multi", "eps_ir", "eps_bind"])
    def test_non_finite_rejected(self, field):
        for value in (math.inf, -math.inf, math.nan):
            with pytest.raises(BoundsError, match="finite"):
                replace(TABLE1_PARAMS, **{field: value})


class TestBracket:
    def test_table1_value(self):
        # oracle: 1/2 - 2d2/(1-2d2) - h((pm+d1)/(1/2-d2)) - f h(pm+d1) - pmu/(1/2-d2)
        assert PointBound.of(TABLE1_PARAMS, experimental=True).bracket == \
            pytest.approx(0.0038743936412884506, rel=1e-12)

    def test_experimental_charges_multi_leak(self):
        theo = PointBound.of(TABLE1_PARAMS, experimental=False).bracket
        exp = PointBound.of(TABLE1_PARAMS, experimental=True).bracket
        assert theo - exp == pytest.approx(3.67e-3 / (0.5 - 3e-3), rel=1e-12)

    def test_undefined_beyond_half(self):
        p = ProtocolParams(n0=1000, alpha=0.3, delta1=0.01, delta2=0.01,
                           p_max=0.48, n=1)
        with pytest.raises(BoundsError, match="rate bracket undefined"):
            PointBound.of(p, experimental=False)


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
        assert eps_max(TABLE1_PARAMS).eps_correct == pytest.approx(2.0 ** -31, rel=1e-12)

    def test_output_longer_than_raw_rejected(self):
        p = replace(TABLE1_PARAMS, n=TABLE1_PARAMS.n_raw)
        with pytest.raises(BoundsError, match="raw block not longer"):
            eps_max(p)


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


def _eps_receiver_reference(params, experimental, seen):
    """``bounds.eps_max`` with the block sizes read from the params properties
    and the squash done per named component; adds to ``seen`` the label of
    every underflow, overflow and error branch it takes."""
    def squash(name, x):
        if x < 1e-300:
            if x > 0.0:
                seen.add(name + " squashed")
            return (0.0, x > 0.0)
        return (min(x, 2.0), False)

    d1sq = params.delta1 * params.delta1
    e1 = -0.5 * (1.0 - params.alpha) ** 2 * params.n_test * d1sq
    e2 = -0.5 * params.n_check * d1sq
    big = max(e1, e2)
    if big < -1400:
        stat = 0.0
        stat_uf = True
        seen.add("eps_stat flushed")
    else:
        stat = math.sqrt(2.0) * math.exp(0.5 * big) * \
            math.sqrt(math.exp(e1 - big) + math.exp(e2 - big))
        stat_uf = False

    kl_exp = -binary_kl(0.5 - params.delta2, 0.5) * (1.0 - params.alpha) * params.n0
    kl_uf = kl_exp < -700
    kl = 0.0 if kl_uf else math.exp(kl_exp)
    if kl_uf:
        seen.add("eps_kl flushed")

    bracket = rate_bracket(params.p_max, params.f, params.delta1, params.delta2)
    if bracket == -math.inf:
        seen.add("bracket error")
        raise BoundsError("rate bracket undefined: effective error rate >= 1/2")
    if experimental:
        bracket -= params.p_multi / (0.5 - params.delta2)
    lhl_exp = 0.5 * (params.n - params.n_raw * bracket)
    lhl_uf = lhl_exp < -1070
    lhl = math.inf if lhl_exp > 64 else (0.0 if lhl_uf else 0.5 * 2.0 ** lhl_exp)
    if lhl_uf or lhl == math.inf:
        seen.add("eps_lhl flushed" if lhl_uf else "eps_lhl capped")

    comps = {"eps_stat": (stat, stat_uf), "eps_kl": (kl, kl_uf),
             "eps_bind": (params.eps_bind, False), "eps_lhl": (lhl, lhl_uf)}
    underflowed = []
    squashed = {}
    for name, (val, flushed) in comps.items():
        sq, uf = squash(name, val)
        squashed[name] = sq
        if uf or flushed:
            underflowed.append(name)
    if params.n_raw <= params.n:
        seen.add("correctness error")
        raise BoundsError("raw block not longer than the output")
    exponent = -0.5 * (params.n_raw - params.n)
    first = 0.0 if exponent < -1100 else 2.0 ** exponent
    ec, uf = squash("eps_correct", first + 2.0 * params.eps_ir)
    if uf:
        underflowed.append("eps_correct")
    return bounds.BoundReport(eps_correct=ec, experimental=experimental,
                              underflowed=tuple(underflowed), **squashed)


def _random_params(rng):
    """Log-uniform sizes and tolerances, with zero and sub-1e-300 values for
    the floors, so that every branch of the bound is reached."""
    def tiny():
        return rng.choice((2.0 ** -32, 0.0, 10.0 ** rng.uniform(-330, -290)))

    return ProtocolParams(
        n0=int(10 ** rng.uniform(0, 12)), alpha=rng.uniform(0.001, 0.999),
        delta1=rng.choice((0.0, 10 ** rng.uniform(-7, -0.5))),
        delta2=rng.uniform(0.0, 0.4999),
        p_max=rng.choice((0.0, rng.uniform(0.0, 0.2))),
        n=int(10 ** rng.uniform(0, 7)),
        f=1.0 + rng.choice((0.0, 10 ** rng.uniform(-3, 1))),
        p_multi=rng.choice((0.0, rng.uniform(0.0, 0.01))),
        eps_ir=tiny(), eps_bind=tiny())


class TestEpsReceiverOracle:
    def test_matches_reference_to_the_bit(self):
        rng = random.Random(20260)
        seen = set()
        for _ in range(20000):
            params, experimental = _random_params(rng), rng.random() < 0.5
            try:
                want = _eps_receiver_reference(params, experimental, seen).to_dict()
            except BoundsError as e:
                with pytest.raises(BoundsError) as got:
                    bounds.eps_max(params, experimental)
                assert str(got.value) == str(e), params
                continue
            assert bounds.eps_max(params, experimental).to_dict() == want, \
                (params, experimental)
        assert seen == {
            "eps_stat flushed", "eps_stat squashed", "eps_kl flushed",
            "eps_kl squashed", "eps_bind squashed", "eps_lhl flushed",
            "eps_lhl squashed", "eps_lhl capped", "eps_correct squashed",
            "bracket error", "correctness error"}

    def test_point_total_is_eps_max_to_the_bit(self):
        # the optimizer's probe: the point's part built once, then the
        # per-size part at several N0; a BoundsError on either path must
        # read as infeasible on the other
        rng = random.Random(20261)
        outcomes = set()
        for _ in range(3000):
            params, experimental = _random_params(rng), rng.random() < 0.5
            try:
                point = PointBound.of(params, experimental)
            except BoundsError:
                point = None
            n = params.n if rng.random() < 0.95 else rng.choice((0, -1))
            for n0 in (params.n0, 1, 4 * n + 8, 2 * params.n0 + 1,
                       int(10 ** rng.uniform(0, 12))):
                try:
                    want = eps_max(replace(params, n0=n0, n=n), experimental).eps_max
                except BoundsError:
                    want = None
                try:
                    got = point.total(n0, n) if point is not None else None
                except BoundsError:
                    got = None
                outcomes.add(want is None)
                if want is None:
                    assert got is None, (params, n0, n, experimental)
                else:
                    assert got is not None and got.hex() == want.hex(), \
                        (params, n0, n, experimental)
        assert outcomes == {True, False}


@st.composite
def _grids(draw):
    """Grid inputs whose brackets are positive, negative or -inf, and in one
    case exactly zero: the first (delta1, 0) bracket charged its whole value
    as the multi-photon leak."""
    def axis(lo, hi):
        return st.lists(st.just(lo) | st.floats(lo, hi), min_size=1, max_size=3)

    alphas, d1s, d2s = draw(axis(0.001, 0.999)), draw(axis(0.0, 0.3)), draw(axis(0.0, 0.49))
    p_max = draw(st.floats(0.0, 0.02) | st.floats(0.0, 0.49))
    f = draw(st.floats(1.0, 3.0))
    p_multi = draw(st.just(0.0) | st.floats(0.0, 0.2))
    experimental = draw(st.booleans())
    if draw(st.booleans()):
        d2s = [0.0] + d2s
        b = rate_bracket(p_max, f, d1s[0], 0.0)
        if b > 0.0:  # b - (b / 2) / (0.5 - 0) is exactly zero
            p_multi, experimental = b / 2, True
    eps_ir, eps_bind = (draw(st.sampled_from((2.0 ** -32, 0.0, 1e-310))) for _ in range(2))
    return alphas, d1s, d2s, p_max, f, p_multi, eps_ir, eps_bind, experimental


class TestGrid:
    """``PointBound.grid``, which hoists each N0-free part onto its axes,
    yields what the one-point constructor builds at the same values."""

    @given(case=_grids())
    @settings(max_examples=300, deadline=None)
    def test_points_match_standalone_to_the_bit(self, case):
        *axes, p_max, f, p_multi, eps_ir, eps_bind, experimental = case
        shared = (p_max, f, p_multi, eps_ir, eps_bind)
        got = list(PointBound.grid(*axes, *shared, experimental=experimental))
        assert [item[:3] for item in got] == list(itertools.product(*axes))
        for alpha, d1, d2, point in got:
            if point is None:  # the effective error rate reaches 1/2
                with pytest.raises(BoundsError):
                    PointBound(alpha, d1, d2, *shared, experimental=experimental)
                continue
            want = PointBound(alpha, d1, d2, *shared, experimental=experimental)
            for n0, n in itertools.product((1, 300, 10 ** 4, 10 ** 6, 10 ** 9), (1, 64)):
                try:
                    total, report = want.total(n0, n), want.report(n0, n)
                except BoundsError:  # n_raw <= n
                    with pytest.raises(BoundsError):
                        point.total(n0, n)
                    continue
                assert point.total(n0, n).hex() == total.hex()
                assert repr(point.report(n0, n)) == repr(report)

    @pytest.mark.parametrize("axes", [
        ([0.3, 1.0], [0.01], [0.01]), ([0.3], [0.01, -1e-9], [0.01]),
        ([0.3], [0.01], [0.01, 0.5]), ([0.3], [0.01], [0.01, math.nan])])
    def test_bad_axis_value_raises_before_any_point(self, axes):
        with pytest.raises(BoundsError):
            next(PointBound.grid(*axes, 0.01))
