import enum
from dataclasses import dataclass

import numpy as np
import pytest

from qrot.bitcore import Rng
from qrot.qsim import (_DETECT_GIVEN_MULTI, AliceView, BobView, QsimError,
                       SourceModel, _below, multi_photon_estimate,
                       run_quantum_phase)
from draws import uniform


# ---------------------------------------------------------------------------
# scalar twin of run_quantum_phase, one raw round at a time: the reference
# the vectorized runner is checked against
# ---------------------------------------------------------------------------

class ClickPattern(enum.Enum):
    SINGLE = "single"
    DOUBLE_SAME_BASIS = "double_same_basis"
    OTHER = "other"
    NONE = "none"


class ReportResult(enum.Enum):
    SUCCESS = "success"
    SUCCESS_RANDOM = "success_random"
    FAILURE = "failure"


@dataclass(frozen=True)
class RoundOutcome:
    alice_basis: int
    alice_bit: int
    alice_multi: bool
    bob_pattern: ClickPattern
    bob_basis: int
    bob_bit: int


def generate_round(model: SourceModel, rng: Rng) -> RoundOutcome:
    """One raw source round; scalar twin of the vectorized phase runner."""
    u = uniform(rng, 4)
    raw = rng.bytes(4)
    theta_a, theta_b, x_a, flip_or_uniform = (b & 1 for b in raw)
    if u[0] < model.p_loss:
        return RoundOutcome(theta_a, x_a, False, ClickPattern.NONE, theta_b, 0)
    multi = u[1] < model.p_double
    alice_multi = multi and u[2] < _DETECT_GIVEN_MULTI
    if theta_a == theta_b:
        noise = int(uniform(rng, 1)[0] < model.p_err)
        x_b = x_a ^ noise
    else:
        x_b = flip_or_uniform
    if u[3] < model.p_dark:
        pattern = ClickPattern.OTHER
    elif multi and not alice_multi:
        pattern = ClickPattern.DOUBLE_SAME_BASIS
    else:
        pattern = ClickPattern.SINGLE
    return RoundOutcome(theta_a, x_a, alice_multi, pattern, theta_b, x_b)


def report(pattern: ClickPattern, measured_bit: int, rng: Rng) -> tuple[ReportResult, int]:
    """Receiver's click-pattern reporting rules."""
    if pattern == ClickPattern.SINGLE:
        return ReportResult.SUCCESS, measured_bit
    if pattern == ClickPattern.DOUBLE_SAME_BASIS:
        return ReportResult.SUCCESS_RANDOM, rng.bytes(1)[0] & 1
    return ReportResult.FAILURE, 0


def _rng(i=0):
    return Rng.from_int(4000 + i)


def _run_quantum_phase_float(model: SourceModel, n0: int, rng: Rng):
    """``run_quantum_phase`` deciding every event on the float draw w / 2**32
    instead of the raw word: same bytes, same order, the reference the word
    comparisons must match. Also returns the flags of the accepted rounds
    that hide an undetected multi-photon event, which the parties never see."""
    parts = {name: [] for name in ("ta", "tb", "xa", "xb", "undet")}
    n_tot = n_multi = done = 0
    while done < n0:
        chunk = max(1024, int((n0 - done) * 1.3))
        u = uniform(rng, 4 * chunk).reshape(4, chunk)
        ta, tb, xa, unif = np.frombuffer(rng.bytes(4 * chunk), np.uint8).reshape(4, chunk) & 1
        coincidence = u[0] >= model.p_loss
        multi = coincidence & (u[1] < model.p_double)
        detected_multi = multi & (u[2] < _DETECT_GIVEN_MULTI)
        undetected = multi & ~detected_multi
        dark = u[3] < model.p_dark
        noise = (uniform(rng, chunk) < model.p_err).astype(np.uint8)
        xb = np.where((ta == tb) & ~undetected, xa ^ noise, unif)
        accepted = coincidence & ~detected_multi & ~dark
        acc_idx = np.nonzero(accepted)[0]
        cut = int(acc_idx[n0 - done - 1]) + 1 if acc_idx.size > n0 - done else chunk
        accepted = accepted[:cut]
        n_tot += int((coincidence & ~dark)[:cut].sum())
        n_multi += int((detected_multi & ~dark)[:cut].sum())
        for name, arr in zip(parts, (ta, tb, xa, xb, undetected)):
            parts[name].append(arr[:cut][accepted])
        done += int(accepted.sum())
    ta, tb, xa, xb, undet = (np.concatenate(v) for v in parts.values())
    return AliceView(ta, xa, n_tot, n_multi), BobView(tb, xb), undet


class TestModel:
    def test_probability_domains(self):
        with pytest.raises(QsimError):
            SourceModel(p_err=0.5)
        with pytest.raises(QsimError):
            SourceModel(p_loss=-0.1)
        with pytest.raises(QsimError):
            SourceModel(p_double=1.5)

    @pytest.mark.parametrize("name", ["p_loss", "p_dark"])
    def test_no_round_ever_accepted_is_refused(self, name):
        # a draw w / 2**32 never exceeds 1 - 2**-32, so above it no round passes
        # and run_quantum_phase would never return
        top = 1.0 - 2.0 ** -32
        SourceModel(**{name: top})
        for value in (np.nextafter(top, 1.0), 1.0):
            with pytest.raises(QsimError, match=name):
                SourceModel(**{name: value})
        assert uniform(Rng.from_int(0), 1 << 16).max() <= top


class TestGenerateRound:
    def test_noiseless_matching_always_agree(self):
        rng = _rng()
        model = SourceModel()
        for _ in range(5000):
            r = generate_round(model, rng)
            if r.alice_basis == r.bob_basis:
                assert r.bob_bit == r.alice_bit

    def test_qber_on_matching(self):
        rng = _rng(1)
        model = SourceModel(p_err=0.05)
        errs = tot = 0
        for _ in range(40000):
            r = generate_round(model, rng)
            if r.alice_basis == r.bob_basis and r.bob_pattern == ClickPattern.SINGLE:
                tot += 1
                errs += r.bob_bit != r.alice_bit
        sigma = (0.05 * 0.95 / tot) ** 0.5
        assert abs(errs / tot - 0.05) < 3 * sigma

    def test_mismatched_uniform_regardless_of_qber(self):
        rng = _rng(2)
        model = SourceModel(p_err=0.05)
        diff = tot = 0
        for _ in range(40000):
            r = generate_round(model, rng)
            if r.alice_basis != r.bob_basis:
                tot += 1
                diff += r.bob_bit != r.alice_bit
        assert abs(diff / tot - 0.5) < 3 * (0.25 / tot) ** 0.5

    def test_loss_yields_no_click(self):
        rng = _rng(3)
        # the largest p_loss a model accepts; 1.0 would never end a phase
        r = generate_round(SourceModel(p_loss=1.0 - 2.0 ** -32), rng)
        assert r.bob_pattern == ClickPattern.NONE


# each edge of the draw: never, the smallest nonzero chance, a half, the
# largest chance below one, always
_EDGE_P = (0.0, 2.0 ** -32, 0.5, 1.0 - 2.0 ** -32, 1.0)


class TestWordDomain:
    """The runner compares raw words with integer thresholds; the float
    comparison it replaces decides every draw the same way."""

    @pytest.mark.parametrize("p", _EDGE_P + (_DETECT_GIVEN_MULTI, 0.01, 1 / 3))
    def test_threshold_matches_float_compare(self, p):
        t = _below(p)
        near = [w for w in (0, 1, t - 2, t - 1, t, t + 1, 2 ** 32 - 1) if 0 <= w < 2 ** 32]
        words = np.concatenate([np.array(near, np.uint32), _rng(20).words32(4096)])
        assert np.array_equal(words < t, words / 2.0 ** 32 < p)
        assert np.array_equal(words >= t, words / 2.0 ** 32 >= p)

    @pytest.mark.parametrize("model", [
        SourceModel(p_err=0.01, p_double=0.004, p_loss=0.3, p_dark=0.02),
        SourceModel(p_err=2.0 ** -32, p_double=1.0, p_loss=2.0 ** -32, p_dark=0.5),
        SourceModel(p_double=1.0 - 2.0 ** -32, p_loss=0.5, p_dark=2.0 ** -32),
        SourceModel(p_err=0.49, p_double=0.5),
    ])
    def test_views_match_float_reference(self, model):
        for seed in range(3):
            for n0 in (1, 3000):
                alice, bob = run_quantum_phase(model, n0, _rng(30 + seed))
                ref_alice, ref_bob, _ = _run_quantum_phase_float(model, n0, _rng(30 + seed))
                for got, ref in ((alice.theta, ref_alice.theta), (alice.x, ref_alice.x),
                                 (bob.theta, ref_bob.theta), (bob.x, ref_bob.x)):
                    assert got.dtype == np.uint8 and np.array_equal(got, ref)
                assert (alice.n_tot, alice.n_multi) == (ref_alice.n_tot, ref_alice.n_multi)


class TestReport:
    def test_single_passes_bit_through(self):
        assert report(ClickPattern.SINGLE, 1, _rng()) == (ReportResult.SUCCESS, 1)
        assert report(ClickPattern.SINGLE, 0, _rng()) == (ReportResult.SUCCESS, 0)

    def test_double_same_basis_random_bit(self):
        rng = _rng(4)
        ones = 0
        trials = 100000
        for _ in range(trials):
            res, bit = report(ClickPattern.DOUBLE_SAME_BASIS, 0, rng)
            assert res == ReportResult.SUCCESS_RANDOM
            ones += bit
        assert abs(ones / trials - 0.5) < 3 * (0.25 / trials) ** 0.5

    def test_other_and_none_fail(self):
        assert report(ClickPattern.OTHER, 1, _rng())[0] == ReportResult.FAILURE
        assert report(ClickPattern.NONE, 1, _rng())[0] == ReportResult.FAILURE


class TestMultiEstimate:
    def test_exact_ratio(self):
        assert multi_photon_estimate(300, 3) == pytest.approx(1 / 300)
        assert multi_photon_estimate(100, 0) == 0.0

    def test_errors(self):
        with pytest.raises(QsimError):
            multi_photon_estimate(0, 0)
        with pytest.raises(QsimError):
            multi_photon_estimate(10, 11)

    def test_monte_carlo_consistent_with_model(self):
        # undetected multi-photon count should be about a third of detected
        model = SourceModel(p_double=0.01)
        alice, _, undet = _run_quantum_phase_float(model, 10 ** 6, _rng(5))
        est = multi_photon_estimate(alice.n_tot, alice.n_multi)
        undetected = int(undet.sum())
        assert undetected == pytest.approx(est * alice.n_tot, rel=0.15)


class TestRunQuantumPhase:
    def test_exact_count_and_alignment(self):
        alice, bob = run_quantum_phase(SourceModel(), 5000, _rng(6))
        assert alice.theta.size == alice.x.size == 5000
        assert bob.theta.size == bob.x.size == 5000

    def test_noiseless_matching_positions_agree(self):
        alice, bob = run_quantum_phase(SourceModel(), 20000, _rng(7))
        match = alice.theta == bob.theta
        assert np.all(alice.x[match] == bob.x[match])
        # matched fraction within 3 binomial sigma of 1/2
        assert abs(match.mean() - 0.5) < 3 * (0.25 / 20000) ** 0.5

    def test_qber_estimator_converges(self):
        alice, bob = run_quantum_phase(SourceModel(p_err=0.03), 50000, _rng(8))
        match = alice.theta == bob.theta
        qber = (alice.x[match] != bob.x[match]).mean()
        n = int(match.sum())
        assert abs(qber - 0.03) < 3 * (0.03 * 0.97 / n) ** 0.5

    def test_loss_only_lengthens_run(self):
        alice, _ = run_quantum_phase(SourceModel(p_loss=0.9), 5000, _rng(9))
        assert alice.theta.size == 5000
        # geometric waiting time: n_tot counts only coincidences
        assert alice.n_tot == 5000

    def test_clean_source_has_no_multi(self):
        alice, _ = run_quantum_phase(SourceModel(), 5000, _rng(10))
        assert alice.n_multi == 0

    def test_multi_counters(self):
        alice, _ = run_quantum_phase(SourceModel(p_double=0.05), 50000, _rng(11))
        # detected fraction of coincidences ~ 0.05 * 0.75
        frac = alice.n_multi / alice.n_tot
        assert frac == pytest.approx(0.0375, abs=0.005)

    def test_undetected_double_error_rate_matches_scalar_twin(self):
        # matched-basis rounds hiding an undetected double report a uniform
        # bit in both the runner and the generate_round + report twin
        model = SourceModel(p_double=0.3)
        alice, bob, undet = _run_quantum_phase_float(model, 50000, _rng(15))
        rows = (alice.theta == bob.theta) & undet
        runner = (alice.x != bob.x)[rows]

        rng, twin = _rng(16), []
        for _ in range(20000):
            r = generate_round(model, rng)
            if (r.bob_pattern == ClickPattern.DOUBLE_SAME_BASIS
                    and r.alice_basis == r.bob_basis):
                _, bit = report(r.bob_pattern, r.bob_bit, rng)
                twin.append(bit != r.alice_bit)
        sigma = (0.25 / runner.size + 0.25 / len(twin)) ** 0.5
        assert abs(runner.mean() - np.mean(twin)) < 4 * sigma

    def test_deterministic_given_seed(self):
        a1, b1 = run_quantum_phase(SourceModel(p_err=0.02, p_loss=0.3), 3000, _rng(12))
        a2, b2 = run_quantum_phase(SourceModel(p_err=0.02, p_loss=0.3), 3000, _rng(12))
        assert np.array_equal(a1.x, a2.x) and np.array_equal(b1.x, b2.x)
        assert a1.n_tot == a2.n_tot

    def test_views_share_nothing(self):
        alice, bob = run_quantum_phase(SourceModel(), 1000, _rng(13))
        # the receiver sees no multi-photon counter and no multi-photon flag
        assert {"theta", "x"} == set(vars(bob))
        assert {"theta", "x", "n_tot", "n_multi"} == set(vars(alice))

    def test_views_are_read_only(self):
        alice, bob = run_quantum_phase(SourceModel(), 1000, _rng(13))
        for arr in (alice.theta, alice.x, bob.theta, bob.x):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] ^= 1

    def test_n0_positive(self):
        with pytest.raises(QsimError):
            run_quantum_phase(SourceModel(), 0, _rng(14))
