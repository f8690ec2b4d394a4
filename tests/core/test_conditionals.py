"""Tests for conditional evaluation and its ambient configuration."""

import dataclasses
import sys
import threading
import time

import pytest

from repro.core.conditionals import (
    EvaluationConfig,
    evaluation_config,
    get_config,
)
from repro.core.sampling import DeadlineExceeded, SampleBudgetExceeded
from repro.core.sprt import FixedSampleTest, SPRT, TestDecision
from repro.core.uncertain import Uncertain
from repro.dists import Bernoulli, Gaussian
from repro.rng import default_rng


class TestEvaluationConfig:
    def test_default_test_is_sprt(self):
        test = EvaluationConfig().make_test(0.5)
        assert isinstance(test, SPRT)
        assert test.threshold == 0.5

    def test_test_factory_override(self):
        cfg = EvaluationConfig(test_factory=lambda t: FixedSampleTest(t, n=50))
        test = cfg.make_test(0.7)
        assert isinstance(test, FixedSampleTest)
        assert test.threshold == 0.7

    def test_record_and_reset(self):
        accounting = EvaluationConfig().accounting
        accounting.record(30)
        accounting.record(20)
        assert accounting.samples_drawn == 50
        assert accounting.conditionals_evaluated == 2
        accounting.reset_sample_counter()
        assert accounting.samples_drawn == 0

    def test_config_is_frozen(self):
        cfg = EvaluationConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.alpha = 0.01
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.accounting = None

    def test_replace_starts_a_fresh_accounting_scope(self):
        cfg = EvaluationConfig(sample_budget=100, deadline=60.0)
        cfg.accounting.record(7)
        cfg.accounting.admit(40)
        time.sleep(0.01)
        derived = dataclasses.replace(cfg, alpha=0.01)
        assert derived.accounting is not cfg.accounting
        assert derived.accounting.samples_drawn == 0
        assert derived.accounting.conditionals_evaluated == 0
        assert derived.accounting.samples_executed == 0
        assert cfg.accounting.samples_executed == 40
        # The deadline clock restarts at the derived config's construction.
        assert (derived.accounting.token.deadline_at
                > cfg.accounting.token.deadline_at)
        derived.accounting.admit(100)  # the whole budget is available again

    def test_admit_charges_and_enforces_budget(self):
        accounting = EvaluationConfig(sample_budget=10).accounting
        accounting.admit(6)
        accounting.admit(4, charge=False)  # check only: fits, not charged
        assert accounting.samples_executed == 6
        with pytest.raises(SampleBudgetExceeded):
            accounting.admit(5)
        assert accounting.samples_executed == 6

    def test_admit_never_overspends_under_threads(self):
        # A service's worker threads share one accounting scope: every
        # admitted draw is charged once and the budget is never overshot.
        accounting = EvaluationConfig(sample_budget=20_000).accounting
        admitted = [0] * 8

        def worker(i):
            while True:
                try:
                    accounting.admit(1)
                except SampleBudgetExceeded:
                    return
                admitted[i] += 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert sum(admitted) == accounting.samples_executed == 20_000

    def test_admit_enforces_deadline(self):
        accounting = EvaluationConfig(deadline=0.0).accounting
        time.sleep(0.001)
        with pytest.raises(DeadlineExceeded):
            accounting.admit(0)

    def test_context_manager_scoping(self):
        outer = get_config()
        with evaluation_config(alpha=0.01) as inner:
            assert get_config() is inner
            assert inner.alpha == 0.01
        assert get_config() is outer

    def test_nested_scopes_inherit(self):
        with evaluation_config(alpha=0.01):
            with evaluation_config(batch_size=25) as inner:
                assert inner.alpha == 0.01
                assert inner.batch_size == 25

    def test_counters_start_fresh_in_scope(self):
        with evaluation_config() as cfg:
            assert cfg.accounting.samples_drawn == 0


class TestConditionalBehaviour:
    def test_implicit_true(self):
        with evaluation_config(rng=default_rng(0)):
            assert bool(Uncertain(Gaussian(1.0, 0.1)) > 0.0)

    def test_implicit_false(self):
        with evaluation_config(rng=default_rng(0)):
            assert not bool(Uncertain(Gaussian(-1.0, 0.1)) > 0.0)

    def test_explicit_threshold_direction(self):
        # Pr[cond] = 0.75: passes .pr(0.6), fails .pr(0.9).
        cond = Uncertain(Bernoulli(0.75)) == 1
        with evaluation_config(rng=default_rng(1)):
            assert cond.pr(0.6)
            assert not cond.pr(0.9)

    def test_ternary_logic_neither_branch(self):
        # Two exactly balanced complementary conditionals: with max_samples
        # bounded, both should be inconclusive -> False.
        a = Uncertain(Gaussian(0.0, 1.0))
        b = Uncertain(Gaussian(0.0, 1.0))
        with evaluation_config(rng=default_rng(2), max_samples=1_000, epsilon=0.02):
            first = bool(a < b)
            second = bool(a >= b)
        assert not first and not second

    def test_samples_recorded(self):
        cond = Uncertain(Gaussian(1.0, 0.1)) > 0.0
        with evaluation_config(rng=default_rng(3)) as cfg:
            bool(cond)
            assert cfg.accounting.samples_drawn >= cfg.batch_size
            assert cfg.accounting.conditionals_evaluated == 1

    def test_test_result_diagnostics(self):
        cond = Uncertain(Gaussian(2.0, 0.1)) > 0.0
        with evaluation_config(rng=default_rng(4)):
            result = cond.test(0.5)
        assert result.decision is TestDecision.ACCEPT_ALTERNATIVE
        assert result.p_hat > 0.9

    def test_custom_test_object(self):
        cond = Uncertain(Gaussian(2.0, 0.1)) > 0.0
        result = cond.test(0.5, test=FixedSampleTest(0.5, n=11), rng=default_rng(5))
        assert result.samples_used == 11

    def test_factory_changes_conditional_mechanics(self):
        cond = Uncertain(Gaussian(0.5, 1.0)) > 0.0
        with evaluation_config(
            rng=default_rng(6),
            test_factory=lambda t: FixedSampleTest(t, n=201),
        ) as cfg:
            bool(cond)
        assert cfg.accounting.samples_drawn == 201

    def test_explicit_rng_argument(self):
        cond = Uncertain(Gaussian(1.0, 0.1)) > 0.0
        assert cond.pr(0.5, rng=default_rng(7))
