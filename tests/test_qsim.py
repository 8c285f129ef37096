import enum
from dataclasses import dataclass

import numpy as np
import pytest

from qrot.bitcore import Rng
from qrot.qsim import (_DETECT_GIVEN_MULTI, QsimError, SourceModel,
                       multi_photon_estimate, run_quantum_phase)


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
    u = rng.uniform(4)
    raw = rng.bytes(4)
    theta_a, theta_b, x_a, flip_or_uniform = (b & 1 for b in raw)
    if u[0] < model.p_loss:
        return RoundOutcome(theta_a, x_a, False, ClickPattern.NONE, theta_b, 0)
    multi = u[1] < model.p_double
    alice_multi = multi and u[2] < _DETECT_GIVEN_MULTI
    if theta_a == theta_b:
        noise = int(rng.uniform(1)[0] < model.p_err)
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
        # Rng.uniform never exceeds 1 - 2**-32, so above it no round passes
        # and run_quantum_phase would never return
        top = 1.0 - 2.0 ** -32
        SourceModel(**{name: top})
        for value in (np.nextafter(top, 1.0), 1.0):
            with pytest.raises(QsimError, match=name):
                SourceModel(**{name: value})
        assert Rng.from_int(0).uniform(1 << 16).max() <= top


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
        alice, bob = run_quantum_phase(model, 10 ** 6, _rng(5),
                                       adversarial_multi_view=True)
        est = multi_photon_estimate(alice.n_tot, alice.n_multi)
        undetected = int(bob.undetected_multi.sum())
        assert undetected == pytest.approx(est * alice.n_tot, rel=0.15)


class TestRunQuantumPhase:
    def test_exact_count_and_alignment(self):
        alice, bob = run_quantum_phase(SourceModel(), 5000, _rng(6))
        assert alice.theta.length == alice.x.length == 5000
        assert bob.theta.length == bob.x.length == 5000

    def test_noiseless_matching_positions_agree(self):
        alice, bob = run_quantum_phase(SourceModel(), 20000, _rng(7))
        match = alice.theta.bits() == bob.theta.bits()
        assert np.all(alice.x.bits()[match] == bob.x.bits()[match])
        # matched fraction within 3 binomial sigma of 1/2
        assert abs(match.mean() - 0.5) < 3 * (0.25 / 20000) ** 0.5

    def test_qber_estimator_converges(self):
        alice, bob = run_quantum_phase(SourceModel(p_err=0.03), 50000, _rng(8))
        match = alice.theta.bits() == bob.theta.bits()
        qber = (alice.x.bits()[match] != bob.x.bits()[match]).mean()
        n = int(match.sum())
        assert abs(qber - 0.03) < 3 * (0.03 * 0.97 / n) ** 0.5

    def test_loss_only_lengthens_run(self):
        alice, _ = run_quantum_phase(SourceModel(p_loss=0.9), 5000, _rng(9))
        assert alice.theta.length == 5000
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
        alice, bob = run_quantum_phase(model, 50000, _rng(15),
                                       adversarial_multi_view=True)
        rows = (alice.theta.bits() == bob.theta.bits()) & bob.undetected_multi
        runner = (alice.x.bits() != bob.x.bits())[rows]

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
        assert a1.x == a2.x and b1.x == b2.x and a1.n_tot == a2.n_tot

    def test_views_share_nothing(self):
        alice, bob = run_quantum_phase(SourceModel(), 1000, _rng(13))
        assert not hasattr(bob, "n_multi")
        assert bob.undetected_multi is None  # honest mode hides multi tags
        assert {"theta", "x", "n_tot", "n_multi"} == set(vars(alice))

    def test_n0_positive(self):
        with pytest.raises(QsimError):
            run_quantum_phase(SourceModel(), 0, _rng(14))
