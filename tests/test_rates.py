import dataclasses
import itertools
import math
import random
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qrot import bounds, rates
from qrot.bounds import BoundsError, ProtocolParams, binary_entropy
from qrot.rates import (OptimizeResult, RatesError, asymptotic_key_rate,
                        emit_figure, key_rate, n_crit, n_max, p_crit)


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
        assert bounds.eps_max(dataclasses.replace(p, n=n)).eps_max <= 1e-7
        assert bounds.eps_max(dataclasses.replace(p, n=n + 1)).eps_max > 1e-7

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

    @pytest.mark.parametrize("eps_target, p_max, n_target", [
        (1e-7, 0.0114, 0), (1e-7, 0.0114, -2), (0.0, 0.0114, 128),
        (-1e-7, 0.0114, 128), (0.9, 0.0114, 128), (math.nan, 0.0114, 128),
        (1e-7, math.nan, 128), (1e-7, math.inf, 128), (1e-7, -math.inf, 128),
        (1e-7, -0.1, 128), (1e-7, -1e-300, 128), (1e-7, 0.5, 128), (1e-7, 0.7, 128),
    ])
    def test_refuses_input_outside_contract(self, eps_target, p_max, n_target):
        # n_target -2 once never returned, and a NaN or negative p_max read
        # "infeasible"
        with pytest.raises(RatesError):
            n_crit(eps_target, p_max, 1.0, 0.0, n_target, grid=(2, 2, 2))

    @pytest.mark.parametrize("grid", [(1, 2, 2), (2, 0, 2), (2, 2, -3), (2, 2),
                                      (2, 2, 2, 2), (2.0, 2, 2), (2, 2.5, 2)])
    def test_refuses_bad_grid(self, grid):
        # a size of 1 once escaped a ZeroDivisionError; the check comes
        # before the infeasible p_max returns
        for p_max in (0.0114, 0.05):
            with pytest.raises(RatesError, match="grid"):
                n_crit(1e-7, p_max, 1.0, 0.0, 128, grid=grid)

    def test_loosest_target_accepted(self):
        assert n_crit(0.5, 0.0114, 1.0, 0.0, 1, grid=(2, 2, 2)).feasible


# (alpha, delta1, delta2, p_max, f, p_multi) within the optimizer's ranges,
# where the rate bracket is mostly positive
_POINTS = st.tuples(st.floats(0.02, 0.5), st.floats(1e-5, 0.01), st.floats(1e-5, 0.05),
                    st.floats(0.0, 0.015), st.floats(1.0, 1.3),
                    st.one_of(st.just(0.0), st.floats(0.0, 0.005)))


def _point_bound(point):
    return bounds.PointBound(*point, experimental=point[-1] > 0.0)


class TestMonotoneContract:
    """Feasibility is monotone in N0 for targets up to 1/2, which
    ``_min_n0_at`` relies on: it probes the cap first, then bisects."""

    @given(point=_POINTS, n=st.integers(1, 1000),
           extra=st.integers(0, 36).flatmap(lambda b: st.integers(0, 2 ** b)))
    @settings(max_examples=300, deadline=None)
    def test_total_falls_as_n0_grows(self, point, n, extra):
        n0 = 4 * n + 8 + extra
        try:
            pb = _point_bound(point)
            assume(pb.bracket > 0.0)
            eps = pb.total(n0, n)
        except BoundsError:  # an undefined bracket, or n_raw <= n
            assume(False)
        assert pb.total(n0 + 1, n) <= eps
        assert pb.total(2 * n0, n) <= eps

    def test_nonpositive_bracket_never_feasible(self):
        # the leftover-hash term alone is 2**(0.5 * (n - n_raw * bracket) - 1)
        rng = random.Random(7)
        seen = 0
        while seen < 200:
            point = (rng.uniform(0.02, 0.5), rng.uniform(1e-5, 0.05),
                     rng.uniform(1e-5, 0.08), rng.uniform(0.0, 0.1),
                     rng.uniform(1.0, 2.0), rng.choice((0.0, rng.uniform(0.0, 0.2))))
            try:
                pb = _point_bound(point)
            except BoundsError:
                continue
            if pb.bracket > 0.0:
                continue
            seen += 1
            n = rng.choice((1, 16, 128))
            for n0 in (4 * n + 8, rng.randrange(4 * n + 8, 10 ** 7),
                       rng.randrange(10 ** 7, rates._N0_CAP), rates._N0_CAP):
                try:
                    assert pb.total(n0, n) >= 2 ** -0.5, (point, n, n0)
                except BoundsError:  # n_raw <= n
                    pass
            args = point[:3] + (0.5,) + point[3:] + (n,)
            assert _min_n0_at(*args) is None, point


def _min_n0_at(alpha, delta1, delta2, eps_target, p_max, f, p_multi, n_target,
               cap=rates._N0_CAP):
    """``rates._min_n0_at`` at one point, built as ``n_crit`` builds it:
    through ``PointBound.grid``."""
    [(_, _, _, point)] = bounds.PointBound.grid(
        (alpha,), (delta1,), (delta2,), p_max, f, p_multi, experimental=p_multi > 0.0)
    return rates._min_n0_at(point, eps_target, n_target, cap)


def _min_n0_reference(alpha, delta1, delta2, eps_target, p_max, f, p_multi,
                      n_target):
    """The optimizer's per-point search without a cap: doubling, then
    bisection, with the explicit raw-length check."""
    experimental = p_multi > 0.0

    def feasible(n0):
        try:
            p = ProtocolParams(n0=n0, alpha=alpha, delta1=delta1, delta2=delta2,
                               p_max=p_max, n=n_target, f=f, p_multi=p_multi)
        except BoundsError:
            return False
        if p.n_raw <= n_target:
            return False
        try:
            return bounds.eps_max(p, experimental).eps_max <= eps_target
        except BoundsError:
            return False

    lo, hi = 4 * n_target + 8, None
    probe = lo
    while probe <= rates._N0_CAP:
        if feasible(probe):
            hi = probe
            break
        lo = probe
        probe *= 2
    if hi is None:
        return None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _n_crit_reference(eps_target, p_max, f, p_multi, n_target, grid=(8, 10, 6)):
    """``n_crit`` as an exhaustive search: every grid point is searched to
    the end, and the coarse and fine bests are compared afterwards."""
    gap = p_crit(f) - p_max
    if gap <= 0.0:
        return OptimizeResult(0, 0.0, 0.0, 0.0, math.inf, n_target, False)
    na, n1, n2 = grid
    alphas = [0.05 + (0.5 - 0.05) * i / (na - 1) for i in range(na)]
    d1_hi = max(2e-4, 0.9 * gap)
    d1s = [1e-4 + (d1_hi - 1e-4) * i / (n1 - 1) for i in range(n1)]
    d2s = [1e-4 + (0.05 - 1e-4) * i / (n2 - 1) for i in range(n2)]

    def search(points):
        best = None
        for a, d1, d2 in itertools.product(*points):
            r = _min_n0_reference(a, d1, d2, eps_target, p_max, f, p_multi,
                                  n_target)
            if r is not None and (best is None or (r, a, d1, d2) < best):
                best = (r, a, d1, d2)
        return best

    best = search((alphas, d1s, d2s))
    if best is None:
        return OptimizeResult(0, 0.0, 0.0, 0.0, math.inf, n_target, False)

    def refine_axis(values, center, lo_cap, hi_cap):
        step = (values[-1] - values[0]) / (len(values) - 1) if len(values) > 1 else 0.0
        if step == 0.0:
            return [center]
        lo = max(lo_cap, center - step)
        hi = min(hi_cap, center + step)
        return [lo + (hi - lo) * i / 9 for i in range(10)]

    _, a0, d10, d20 = best
    fine = search((refine_axis(alphas, a0, 0.02, 0.5),
                   refine_axis(d1s, d10, 1e-5, gap),
                   refine_axis(d2s, d20, 1e-5, 0.08)))
    if fine is not None and fine < best:
        best = fine
    n0, a, d1, d2 = best
    p = ProtocolParams(n0=n0, alpha=a, delta1=d1, delta2=d2, p_max=p_max,
                       n=n_target, f=f, p_multi=p_multi)
    achieved = bounds.eps_max(p, p_multi > 0.0).eps_max
    return OptimizeResult(n0, a, d1, d2, achieved, n_target, True)


def _patch_bound(monkeypatch, step):
    """Make the bound ``step(N0)`` at every point: at the grid seam the
    optimizer takes its points from, and in ``eps_max``, which the
    references and ``n_crit``'s reported value read."""
    point = SimpleNamespace(bracket=1.0, total=lambda n0, n: step(n0))
    monkeypatch.setattr(bounds.PointBound, "grid", staticmethod(
        lambda alphas, d1s, d2s, *shared, **kw:
        ((a, d1, d2, point) for a, d1, d2 in itertools.product(alphas, d1s, d2s))))
    monkeypatch.setattr(bounds, "eps_max", lambda p, experimental=False:
                        SimpleNamespace(eps_max=step(p.n0)))


class TestPrunedSearch:
    """The capped search returns what the exhaustive one does, to the bit."""

    # (eps_target, p_max, f, p_multi, n_target) -> (n_crit, alpha, delta1,
    # delta2): the criterion-3 point at the default grid, then the fig4
    # points (p_max 0.01, f 1.2, n_target 128, grid (5, 6, 4))
    PINNED = [
        ((1e-7, 0.0114, 1.0, 3.67e-3, 128), None,
         (1916460, 0.33571428571428574, 0.015237843642241873, 0.004535555555555555)),
    ] + [
        ((10.0 ** -e, 0.01, 1.2, 0.0, 128), (5, 6, 4),
         (n, 0.325 if e >= 8 else 0.35000000000000003,
          0.014183256527808193, 0.003796296296296296))
        for e, n in zip(range(3, 10), (980549, 1287426, 1595775, 1904898,
                                       2215100, 2532120, 2991554))
    ]

    @pytest.mark.parametrize("args, grid, expected", PINNED)
    def test_pinned_optima(self, args, grid, expected):
        res = n_crit(*args) if grid is None else n_crit(*args, grid=grid)
        assert res.feasible
        assert (res.n_crit, res.alpha, res.delta1, res.delta2) == expected

    def test_probe_and_build_counts_pinned(self, monkeypatch):
        # the pruning never moves an answer, only what it costs: over the
        # PINNED calls, N0 probes through PointBound.total, and points built
        # (n_crit's reported eps_max included). 12,773 probes before
        # non-positive brackets were pruned without one
        probes, builds = 0, 0
        total, grid = bounds.PointBound.total, bounds.PointBound.grid

        def counted_total(point, n0, n):
            nonlocal probes
            probes += 1
            return total(point, n0, n)

        def counted_grid(*args, **kwargs):
            nonlocal builds
            for item in grid(*args, **kwargs):
                builds += item[3] is not None
                yield item

        monkeypatch.setattr(bounds.PointBound, "total", counted_total)
        monkeypatch.setattr(bounds.PointBound, "grid", staticmethod(counted_grid))
        for args, grid_size, _ in self.PINNED:
            n_crit(*args) if grid_size is None else n_crit(*args, grid=grid_size)
        assert (probes, builds) == (10203, 9328)

    @pytest.mark.parametrize("eps_target", [1e-3, 1e-6, 1e-9])
    def test_matches_exhaustive_search(self, eps_target):
        for p_max, f, p_multi, n_target in itertools.product(
                (0.0, 0.005, 0.0114, 0.02), (1.0, 1.3), (0.0, 3.67e-3), (16, 128)):
            args = (eps_target, p_max, f, p_multi, n_target)
            assert dataclasses.astuple(n_crit(*args, grid=(3, 3, 3))) == \
                dataclasses.astuple(_n_crit_reference(*args, grid=(3, 3, 3))), args

    @pytest.mark.parametrize("point", [
        (0.35, 0.0142, 0.0038, 1e-9, 0.01, 1.2, 0.0, 128),
        (0.05, 1e-4, 1e-4, 1e-7, 0.0114, 1.0, 3.67e-3, 128),
        (0.5, 0.005, 0.05, 1e-3, 0.005, 1.3, 0.0, 16),
        (0.2, 0.002, 0.01, 1e-6, 0.02, 1.0, 3.67e-3, 16),
    ])
    def test_cap_prunes_only_larger_answers(self, point):
        exact = _min_n0_reference(*point)
        caps = [4 * point[-1] + 8, 10 ** 5, 10 ** 6, rates._N0_CAP]
        if exact is not None:
            caps += [exact - 1, exact, exact + 1, 2 * exact]
        for cap in caps:
            got = _min_n0_at(*point, cap=cap)
            if exact is None or exact > cap:
                assert got is None, cap
            else:
                assert got == exact, cap

    def test_cap_exact_on_any_feasible_set(self, monkeypatch):
        # feasibility as a step at `tail`, the monotone shape the real bound
        # has (TestMonotoneContract); caps at, and next to, every probe, and
        # _N0_CAP. A tail of _N0_CAP lies past the top doubling probe, where
        # the search returns None
        point = (0.3, 0.01, 0.01, 0.5, 0.01, 1.2, 0.0, 16)
        start = 4 * 16 + 8
        rng = random.Random(11)
        tails = [start, start + 1, 2 * start + 1, 4 * start - 1, 4 * start + 1, 1000,
                 rates._N0_CAP, 10 ** 12]
        tails += [rng.randrange(start, 20000) for _ in range(30)]
        for tail in tails:
            probes = []

            def step(n0):
                probes.append(n0)
                return 0.0 if n0 >= tail else 1.0

            _patch_bound(monkeypatch, step)
            exact = _min_n0_reference(*point)
            caps = {c + d for c in probes for d in (-1, 0, 1)} | {rates._N0_CAP}
            for cap in sorted(caps):
                got = _min_n0_at(*point, cap=cap)
                assert got == (exact if exact is not None and exact <= cap else None), \
                    (tail, cap)

    def test_matches_reference_over_random_points(self):
        # targets are the bound itself at a random N0, a quarter of them past
        # the top doubling probe, so answers fall all the way up to _N0_CAP
        rng = random.Random(21)
        past_top = 0
        for _ in range(1000):
            n_target = rng.choice((1, 16, 128, rng.randrange(1, 2000)))
            lo = 4 * n_target + 8
            top = lo << ((rates._N0_CAP // lo).bit_length() - 1)
            p_multi = rng.choice((0.0, rng.uniform(0.0, 0.01)))
            point = (rng.uniform(0.02, 0.5), 10 ** rng.uniform(-5, -1.3),
                     rng.uniform(1e-5, 0.08), rng.uniform(0.0, 0.03),
                     rng.uniform(1.0, 1.4), p_multi)
            n0 = (rng.randrange(top + 1, rates._N0_CAP + 1) if rng.random() < 0.25
                  else round(lo * (rates._N0_CAP / lo) ** rng.random()))
            try:
                eps = _point_bound(point).total(n0, n_target)
            except BoundsError:
                eps = 0.0
            reached = 0.0 < eps <= 0.5  # n0 itself is feasible
            if not reached:
                eps = 10 ** -rng.uniform(1, 12)
            args = point[:3] + (eps,) + point[3:] + (n_target,)
            exact = _min_n0_reference(*args)
            past_top += reached and exact is None  # the answer is past `top`
            caps = [lo, rng.randrange(lo, top + 1), top, top + 1,
                    rng.randrange(top + 1, rates._N0_CAP + 1), rates._N0_CAP]
            if exact is not None:
                caps += [exact - 1, exact]
            for cap in caps:
                got = _min_n0_at(*args, cap=cap)
                assert got == (exact if exact is not None and exact <= cap else None), \
                    (args, cap)
        assert past_top >= 10

    def test_ties_fall_to_the_key_comparison(self, monkeypatch):
        # every point needs the same N0, so the answer is decided by the
        # (alpha, delta1, delta2) comparison alone, and the fine pass must
        # still search the points that only tie the coarse best
        _patch_bound(monkeypatch, lambda n0: 0.0 if n0 >= 100003 else 1.0)
        args = (1e-7, 0.0114, 1.0, 3.67e-3, 128)
        res = n_crit(*args, grid=(3, 3, 3))
        assert (res.n_crit, res.alpha) == (100003, 0.02)
        assert res == _n_crit_reference(*args, grid=(3, 3, 3))


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
