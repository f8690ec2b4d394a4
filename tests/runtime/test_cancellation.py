"""Cooperative cancellation: tokens, scopes, and engine batch boundaries.

The contract under test: a tripped :class:`CancellationToken` installed
around an evaluation stops the run at the engine's *next batch boundary*
with :class:`EvaluationCancelled` carrying partial-progress metadata —
on the numpy engine (per program step), the fused engine (before the
kernel / via its delegating inner), and the parallel engine (per chunk).
Checks never consume the sampling RNG, so an uncancelled run is
bit-identical to a run with no token installed.
"""

from __future__ import annotations

import time
import warnings

import numpy as np
import pytest

from repro import Uncertain, evaluation_config
from repro.core.engines import get_engine
from repro.core.fused import (
    FusedFallbackWarning,
    fused_program,
)
from repro.core.ledger import LEDGER, clear_ledger
from repro.core.structural import clear_structural_cache
from repro.dists import Gaussian
from repro.dists.base import Distribution
from repro.resilience.chaos import ChaosDistribution, InjectedFault, latency_storm
from repro.runtime import cancellation
from repro.runtime.cancellation import CancellationToken, EvaluationCancelled
from repro.runtime.parallel import ParallelEngine


def speed_query() -> Uncertain:
    east = Uncertain(Gaussian(4.0, 1.0))
    north = Uncertain(Gaussian(4.0, 1.0))
    return (east * east + north * north) ** 0.5


def stalling_query(stall_s: float = 0.05, seed: int = 0) -> Uncertain:
    """A plan whose leaf stalls every batch: the draw outlives short
    deadlines, so the *next* step boundary observes the expiry."""
    slow = Uncertain(ChaosDistribution(
        Gaussian(0.0, 1.0), seed=seed, latency_s=stall_s, latency_rate=1.0,
    ))
    return slow + slow * 2.0


class FlakyOnce(Distribution):
    """A standard normal whose first draw raises :class:`InjectedFault`.

    The armed flag is not structural, so a flaky and a healthy instance
    share one plan shape.
    """

    structural_fields = ()

    def __init__(self, armed: bool = True) -> None:
        self.armed = armed

    def sample_n(self, n, rng):
        if self.armed:
            self.armed = False
            raise InjectedFault("first draw")
        return rng.standard_normal(n)


def flaky_query(armed: bool = True) -> Uncertain:
    leaf = Uncertain(FlakyOnce(armed))
    return leaf + leaf * 2.0


def ledger_modes() -> dict:
    """How many ledger entries are in each mode."""
    return LEDGER.state()["modes"]


@pytest.fixture()
def fresh_verdicts(hot_kernels):
    """Empty structural cache and ledger: no shape has a kernel or a
    ledger entry, and a shape's first fused run builds its kernel."""
    clear_structural_cache()
    clear_ledger()
    yield
    clear_structural_cache()
    clear_ledger()


class TestToken:
    def test_explicit_cancel_is_idempotent_first_reason_wins(self):
        token = CancellationToken()
        assert not token.cancelled and token.reason is None
        token.cancel("client-disconnected")
        token.cancel("second-call-ignored")
        assert token.cancelled
        assert token.reason == "client-disconnected"

    def test_deadline_trips_and_promotes_reason(self):
        token = CancellationToken.with_timeout(0.0)
        time.sleep(0.002)
        assert token.expired
        assert token.cancelled
        assert token.reason == "deadline"

    def test_check_raises_with_progress_metadata(self):
        token = CancellationToken()
        token.check(step=1)  # live: no-op
        token.cancel("deadline")
        with pytest.raises(EvaluationCancelled) as err:
            token.check(step=3, steps=10)
        assert err.value.reason == "deadline"
        assert err.value.progress == {"step": 3, "steps": 10}

    def test_with_timeout_validation(self):
        assert CancellationToken.with_timeout(None).deadline_at is None
        with pytest.raises(ValueError, match="timeout"):
            CancellationToken.with_timeout(-1.0)

    def test_scope_installs_nests_and_restores(self):
        outer, inner = CancellationToken(), CancellationToken()
        assert cancellation.current() is None
        with cancellation.scope(outer):
            assert cancellation.current() is outer
            with cancellation.scope(inner):
                assert cancellation.current() is inner
            assert cancellation.current() is outer
        assert cancellation.current() is None

    def test_scope_none_is_a_noop(self):
        with cancellation.scope(None):
            assert cancellation.current() is None

    def test_check_current_without_token_is_a_noop(self):
        cancellation.check_current(step=1)  # must not raise


class TestEngineBoundaries:
    def test_numpy_stops_mid_run_at_next_step(self):
        value = stalling_query(stall_s=0.05)
        token = CancellationToken.with_timeout(0.01)
        with cancellation.scope(token):
            with pytest.raises(EvaluationCancelled) as err:
                get_engine("numpy").sample(value.plan, 64, np.random.default_rng(0))
        # The leaf's stall outlived the deadline; a later step boundary
        # (not the end of the run) observed it.
        assert err.value.reason == "deadline"
        assert "step" in err.value.progress

    def test_interpreter_stops_mid_run(self):
        value = stalling_query(stall_s=0.05)
        token = CancellationToken.with_timeout(0.01)
        with cancellation.scope(token):
            with pytest.raises(EvaluationCancelled) as err:
                get_engine("interpreter").sample(
                    value.plan, 64, np.random.default_rng(0)
                )
        assert err.value.reason == "deadline"

    def test_fused_checks_before_the_kernel(self, hot_kernels):
        value = speed_query()  # clean, fusable shape
        token = CancellationToken()
        token.cancel("client-disconnected")
        with cancellation.scope(token):
            with pytest.raises(EvaluationCancelled):
                get_engine("fused").sample(value.plan, 64, np.random.default_rng(0))

    def test_fused_fallback_inherits_per_step_boundaries(self, fresh_verdicts):
        # An opaque plan has no kernel: the fused engine runs it on the
        # numpy engine, which polls the same ambient token per step.
        value = stalling_query(stall_s=0.05).map(lambda v: v + 1.0)
        assert value.plan.structural_hash is None
        token = CancellationToken.with_timeout(0.01)
        with warnings.catch_warnings():
            warnings.simplefilter("error", FusedFallbackWarning)
            with cancellation.scope(token):
                with pytest.raises(EvaluationCancelled) as err:
                    get_engine("fused").sample(
                        value.plan, 64, np.random.default_rng(0)
                    )
        assert "step" in err.value.progress

    def test_parallel_serial_path_stops_at_chunk_boundary(self):
        value = stalling_query(stall_s=0.05)
        engine = ParallelEngine(workers=0, chunk_size=16)
        token = CancellationToken.with_timeout(0.01)
        with cancellation.scope(token):
            with pytest.raises(EvaluationCancelled) as err:
                engine.run(value.plan, 64, np.random.default_rng(0))
        assert err.value.reason == "deadline"

    def test_uncancelled_run_is_bit_identical_to_tokenless_run(self):
        value = speed_query()
        plan = value.plan
        bare = get_engine("numpy").sample(plan, 256, np.random.default_rng(7))
        token = CancellationToken.with_timeout(60.0)
        with cancellation.scope(token):
            scoped = get_engine("numpy").sample(
                plan, 256, np.random.default_rng(7)
            )
        assert np.array_equal(bare, scoped)

    def test_ambient_deadline_stops_mid_draw_as_deadline_exceeded(self):
        # No explicit token: evaluation_config(deadline=...) derives one,
        # and the mid-run trip surfaces as the classic DeadlineExceeded.
        from repro import DeadlineExceeded

        value = stalling_query(stall_s=0.05)
        with evaluation_config(deadline=0.01):
            with pytest.raises(DeadlineExceeded, match="mid-draw"):
                value.samples(64, rng=0)


class TestTransientFaultsWriteNoVerdict:
    """A cancelled or fault-injected query fails its draw and leaves what
    a clean query of its shape leaves: a certified kernel, and a ledger
    entry only once a draw completes, in the mode the plan decides."""

    def test_cancelled_fused_probe_does_not_demote_the_shape(self, fresh_verdicts):
        # The token trips at the kernel's launch, after its build.
        token = CancellationToken()
        token.cancel("client-disconnected")
        with cancellation.scope(token), pytest.raises(EvaluationCancelled):
            stalling_query(0.02).samples(16, rng=0, engine="fused")
        fresh = stalling_query(0.02).plan.optimized()
        assert fresh.shape.kernel.verified
        assert fused_program(fresh) is not None

    def test_injected_fault_in_fused_probe_does_not_demote_the_shape(
        self, fresh_verdicts
    ):
        with pytest.raises(InjectedFault):
            flaky_query().samples(16, rng=0, engine="fused")
        fresh = flaky_query(armed=False).plan.optimized()
        assert fused_program(fresh) is not None

    def test_cancelled_ledger_probe_writes_no_replay_verdict(self, fresh_verdicts):
        with evaluation_config(sample_cache=True, engine="numpy"):
            token = CancellationToken.with_timeout(0.005)
            with cancellation.scope(token), pytest.raises(EvaluationCancelled):
                stalling_query(0.02).samples(16, rng=0)
            assert ledger_modes() == {}
            stalling_query(0.02).samples(16, rng=0)
        # A chaos-wrapped leaf is not in the prefix-stable table.
        assert ledger_modes() == {"replay": 1}

    def test_injected_fault_in_ledger_probe_writes_no_replay_verdict(
        self, fresh_verdicts
    ):
        with evaluation_config(sample_cache=True, engine="numpy"):
            with pytest.raises(InjectedFault):
                flaky_query().samples(16, rng=0)
            assert ledger_modes() == {}
            flaky_query(armed=False).samples(16, rng=0)
        assert ledger_modes() == {"replay": 1}


class TestLatencyStormScenario:
    def test_storm_stalls_exactly_the_first_k_batches(self):
        engine = latency_storm(stall_s=0.03, batches=2)
        value = speed_query()
        durations = []
        for i in range(4):
            start = time.perf_counter()
            value.samples(16, rng=i, engine=engine)
            durations.append(time.perf_counter() - start)
        assert durations[0] >= 0.03 and durations[1] >= 0.03
        assert durations[2] < 0.03 and durations[3] < 0.03

    def test_storm_validation(self):
        from repro.resilience.chaos import ChaosEngine

        with pytest.raises(ValueError, match="storm_calls"):
            ChaosEngine(storm_calls=-1)
