"""Tests for the cross-query sample ledger (``repro.core.ledger``).

The load-bearing property is the acceptance contract: with
``sample_cache`` on, every query result is bit-identical to the same
query with the ledger off, seed-for-seed, on both the numpy and fused
engines — for raw samples, E, CI, percentiles, evidence, and full SPRT
runs — while a one-shot query asked again with its integer seed stops
paying for rows it already drew.  Nothing else reads the ledger: a query
on a generator, ambient or explicit, and every sequential test draw as
with the ledger off.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.core import ledger as ledger_module
from repro.core.conditionals import evaluation_config, get_config
from repro.core.expectation import expected_value_adaptive
from repro.core.ledger import (
    ENTRY_OVERHEAD_BYTES,
    LEDGER,
    SampleLedger,
    clear_ledger,
)
from repro.core.plan import clear_plan_cache, invalidate_plan
from repro.core.sampling import Draw, SampleBudgetExceeded
from repro.core.uncertain import Uncertain
from repro.dists.gaussian import Gaussian
from repro.dists.categorical import PointMass
from repro.dists.uniform import Uniform
from repro.resilience import NonFiniteError
from repro.resilience.chaos import ChaosDistribution, InjectedFault
from repro.runtime import reset_stats, stats
from repro.runtime.metrics import RuntimeMetrics, render_prometheus
from repro.rng import default_rng
from tests.kernel_path import kernel_ran, kernel_ran_if_fused
from tests.ledger_checks import assert_ledger_consistent

ENGINES = ["numpy", "fused"]


@pytest.fixture(autouse=True)
def _fresh_ledger():
    clear_ledger()
    yield
    clear_ledger()


def certified_value() -> Uncertain:
    """One Gaussian leaf, scaled and shifted."""
    return Uncertain(Gaussian(5.0, 2.0)) * 1.5 + 3.0


def replay_value() -> Uncertain:
    """Two stochastic leaves, a Gaussian and a Uniform, summed."""
    return Uncertain(Gaussian(0.0, 1.0)) + Uncertain(Uniform(0.0, 1.0))


def ledger_state() -> dict:
    return stats()["ledger"]


@pytest.mark.usefixtures("hot_kernels")
class TestBitIdentity:
    """Ledger-on must equal ledger-off, seed-for-seed (acceptance suite)."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("make", [certified_value, replay_value])
    def test_samples_expectation_ci_percentiles_evidence(self, engine, make):
        u = make()
        b = u > 6.0
        with evaluation_config(engine=engine):
            off = (
                u.samples(300, rng=42),
                u.expected_value(n=1000, rng=7),
                u.confidence_interval(0.95, samples=2000, rng=11),
                u.percentiles(20, samples=2000, rng=13),
                b.evidence(2000, rng=17),
            )
        with evaluation_config(engine=engine, sample_cache=True):
            on = (
                u.samples(300, rng=42),
                u.expected_value(n=1000, rng=7),
                u.confidence_interval(0.95, samples=2000, rng=11),
                u.percentiles(20, samples=2000, rng=13),
                b.evidence(2000, rng=17),
            )
        assert np.array_equal(off[0], on[0])
        assert off[1] == on[1]
        assert off[2] == on[2]
        assert np.array_equal(off[3], on[3])
        assert off[4] == on[4]

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("make", [certified_value, replay_value])
    def test_sprt_verdict_and_evidence_path(self, engine, make):
        b = make() > 6.0
        with evaluation_config(engine=engine):
            off = b.test(rng=21)
        with evaluation_config(engine=engine, sample_cache=True):
            on = b.test(rng=21)
            again = b.test(rng=21)
        assert on.decision == off.decision
        assert on.samples_used == off.samples_used
        assert on.p_hat == off.p_hat
        # A repeated identical test draws the same fresh stream again.
        assert again.p_hat == on.p_hat
        assert again.samples_used == on.samples_used
        assert ledger_state()["entries"] == 0

    @pytest.mark.parametrize("engine", ENGINES)
    def test_suffix_extension_equals_fresh_run(self, engine):
        # A longer ask after a shorter one of the same seed is its own
        # fresh run, held beside the shorter one.
        u = certified_value()
        with evaluation_config(engine=engine):
            fresh = u.samples(500, rng=99)
        with evaluation_config(engine=engine, sample_cache=True):
            head = u.samples(120, rng=99)
            extended = u.samples(500, rng=99)
        assert np.array_equal(head, fresh[:120])
        assert np.array_equal(extended, fresh)


class TestSampleEconomics:
    def test_budget_charges_only_drawn_rows(self):
        u = certified_value()
        with evaluation_config(sample_cache=True) as cfg:
            u.samples(100, rng=5)
            assert cfg.accounting.samples_executed == 100
            u.samples(250, rng=5)  # a new N: a fresh 250-row run
            assert cfg.accounting.samples_executed == 350
            u.samples(250, rng=5)  # cached
            u.samples(100, rng=5)  # cached
            assert cfg.accounting.samples_executed == 350

    def test_budget_still_enforced_on_the_suffix(self):
        # A new N is a fresh run, admitted in full.
        u = certified_value()
        with evaluation_config(sample_cache=True, sample_budget=150):
            u.samples(100, rng=5)
            with pytest.raises(SampleBudgetExceeded):
                u.samples(120, rng=5)  # 120 rows > 50 remaining

    def test_sprt_reruns_never_read_the_ledger(self):
        b = certified_value() > 6.0
        scoped = RuntimeMetrics()
        with evaluation_config(sample_cache=True, metrics=scoped):
            first = b.test(rng=31)
            second = b.test(rng=31)
        assert second.p_hat == first.p_hat
        ledger = scoped.snapshot()["ledger"]
        assert not any(ledger.values()), ledger
        assert ledger_state()["entries"] == 0

    def test_replay_exact_n_repeats_hit(self):
        m = replay_value()
        scoped = RuntimeMetrics()
        with evaluation_config(sample_cache=True, metrics=scoped):
            a = m.samples(400, rng=3)
            b = m.samples(400, rng=3)
        assert np.array_equal(a, b)
        assert scoped.ledger_hits >= 1
        assert scoped.ledger_rows_drawn == 400
        assert ledger_state()["entries"] == 1


class TestProbation:
    """Only the entry just served may be unproven (never hit); any other is
    dropped and its key remembered, so the entry re-created for that key
    is proven at once.  The first hit proves an entry."""

    @staticmethod
    def _key(value: Uncertain, seed: int) -> tuple:
        return LEDGER._key(Draw(value.plan, seed))

    def test_a_flood_of_one_shot_queries_leaves_one_unproven_entry(self):
        u = replay_value()
        with evaluation_config(sample_cache=True):
            for seed in range(30):
                u.samples(1000, rng=seed)
                assert ledger_state()["entries"] == 1
            last = self._key(u, 29)
        assert ledger_state()["bytes"] == 8000 + ENTRY_OVERHEAD_BYTES
        assert LEDGER._unproven == last
        assert len(LEDGER._remembered) == 29

    def test_a_key_asked_again_is_proven_and_then_hits(self):
        u = replay_value()
        scoped = RuntimeMetrics()
        with evaluation_config(sample_cache=True, metrics=scoped):
            first = u.samples(1000, rng=0)
            for seed in range(1, 5):
                u.samples(1000, rng=seed)
            u.samples(1000, rng=0)  # remembered: redrawn, proven at once
            assert LEDGER._unproven is None
            for seed in range(5, 10):
                u.samples(1000, rng=seed)
            assert ledger_state()["entries"] == 2
            before = scoped.ledger_rows_drawn
            again = u.samples(1000, rng=0)
        assert scoped.ledger_rows_drawn == before
        assert scoped.ledger_hits == 1
        assert np.array_equal(again, first)

    def test_remembered_keys_stay_within_their_cap(self):
        cap = ledger_module.REMEMBERED_KEYS
        u = certified_value()
        with evaluation_config(sample_cache=True):
            for seed in range(cap + 10):
                u.samples(2, rng=seed)
            assert len(LEDGER._remembered) == cap
            u.samples(2, rng=0)  # forgotten: unproven again
            assert LEDGER._unproven == self._key(u, 0)
            u.samples(2, rng=cap + 8)  # still remembered: proven
            assert LEDGER._unproven is None

    def test_a_never_hit_entry_is_held_to_its_share_while_another_hits(self):
        # The entry never hit leaves once another entry is served.
        u = replay_value()
        with evaluation_config(sample_cache=60_000):
            u.samples(2000, rng=0)
            u.samples(2000, rng=0)  # a hit: proven
            u.samples(2000, rng=1)  # never hit
            for _ in range(3):
                u.samples(2000, rng=0)
                assert_ledger_consistent()
        assert ledger_state()["entries"] == 1

    def test_a_hit_entry_survives_a_flood_of_one_shot_queries(self):
        budget = 200_000
        hot = replay_value()
        with evaluation_config(sample_cache=budget):
            first = hot.samples(1000, rng=1)
            hot.samples(1000, rng=1)  # the hit that promotes the entry
            # Sessions asked once, whose rows total twice the budget.
            for seed in range(100, 100 + 2 * budget // 8000):
                replay_value().samples(1000, rng=seed)
            assert ledger_state()["bytes"] <= budget
            scoped = RuntimeMetrics()
            with evaluation_config(metrics=scoped):
                again = hot.samples(1000, rng=1)
        assert scoped.ledger_hits == 1 and scoped.ledger_rows_drawn == 0
        assert np.array_equal(again, first)

    def test_the_second_identical_query_hits_while_on_probation(self):
        # Each first ask leaves an unproven entry, which may stay because
        # it is the entry just served; the second ask reads its rows.
        scoped = RuntimeMetrics()
        with evaluation_config(sample_cache=160_000, metrics=scoped):
            for seed in range(50):
                u = replay_value()
                assert np.array_equal(
                    u.samples(1000, rng=seed), u.samples(1000, rng=seed)
                )
        assert (scoped.ledger_hits, scoped.ledger_misses) == (50, 50)

    def test_a_smaller_budget_is_enforced_while_queries_hit(self):
        u = replay_value()
        with evaluation_config(sample_cache=True):
            runs = [u.samples(2000, rng=seed) for seed in range(20)]
            for seed in range(20):
                u.samples(2000, rng=seed)
        assert ledger_state()["bytes"] == 20 * (16_000 + ENTRY_OVERHEAD_BYTES)
        with evaluation_config(sample_cache=100_000):
            for seed, run in enumerate(runs):
                assert np.array_equal(u.samples(2000, rng=seed), run)
                assert ledger_state()["bytes"] <= 100_000

    def test_sprt_on_a_replay_plan_creates_no_entry(self):
        # A sequential test never reaches the ledger: no entry, no bypass.
        scoped = RuntimeMetrics()
        with evaluation_config(sample_cache=True, metrics=scoped):
            (replay_value() > 6.0).test(rng=3)
        assert ledger_state()["entries"] == 0
        assert scoped.ledger_bypasses == 0


class TestAnalystMix:
    """fig08_analyst in small: hot sessions come back among one-shot ones.

    Each round asks the 8 hot seeds in turn, with 3 fresh seeds after
    each, so a hot seed comes back after 24 one-shot keys.  Its first ask
    leaves an entry never hit, dropped at the next query; its second
    finds the key remembered and keeps its rows; every later ask hits.
    """

    HOT, FRESH, ROUNDS = 8, 3, 6

    def test_hot_seeds_hit_from_their_third_ask_one_shot_rows_leave(self):
        u = replay_value()
        fresh = iter(range(1000, 2000))
        scoped = RuntimeMetrics()
        firsts, lasts = {}, {}
        with evaluation_config(sample_cache=True, metrics=scoped):
            for _ in range(self.ROUNDS):
                for hot in range(self.HOT):
                    lasts[hot] = u.samples(1000, rng=hot)
                    firsts.setdefault(hot, lasts[hot])
                    for _ in range(self.FRESH):
                        u.samples(1000, rng=next(fresh))
        assert scoped.ledger_hits == self.HOT * (self.ROUNDS - 2)
        entry = 8000 + ENTRY_OVERHEAD_BYTES
        assert ledger_state()["bytes"] <= (self.HOT + 1) * entry
        assert all(np.array_equal(firsts[h], lasts[h]) for h in firsts)


class TestStreamSemantics:
    """Only an integer seed is served; a generator, ambient or explicit,
    draws as with the ledger off."""

    def test_ambient_repeated_queries_draw_fresh_rows(self):
        u = certified_value()
        with evaluation_config(rng=default_rng(3)):
            off = [u.samples(200) for _ in range(2)]
        with evaluation_config(sample_cache=True, rng=default_rng(3)):
            on = [u.samples(200) for _ in range(2)]
        assert not np.array_equal(on[0], on[1])
        assert np.array_equal(np.stack(on), np.stack(off))
        assert ledger_state()["entries"] == 0

    def test_ambient_single_draws_stay_fresh_per_call(self):
        u = certified_value()
        with evaluation_config(sample_cache=True) as cfg:
            cfg.rng.standard_normal(5)
            draws = [u.sample() for _ in range(8)]
        assert len(set(draws)) > 1  # cursor advances; no frozen loop values

    def test_generator_queries_advance_the_caller_generator(self):
        u = certified_value()
        scoped = RuntimeMetrics()
        with evaluation_config(sample_cache=True, metrics=scoped) as cfg:
            for rng in (None, default_rng(3)):
                gen = cfg.rng if rng is None else rng
                before = gen.bit_generator.state
                u.samples(500, rng=rng)
                assert gen.bit_generator.state != before
        assert scoped.ledger_bypasses == 2

    def test_returned_arrays_are_private_copies(self):
        u = certified_value()
        with evaluation_config(sample_cache=True):
            a = u.samples(50, rng=1)
            a[:] = -1.0
            b = u.samples(50, rng=1)
        assert not np.array_equal(a, b)


#: Single draws whose rng is a seed, or the pristine generator of one:
#: each call restarts the seed's stream, with the ledger on or off.
SEEDED_SINGLE_DRAWS = {
    "sample-seed": lambda u: u.sample(rng=7),
    "sample-generator": lambda u: u.sample(rng=default_rng(7)),
    "samples-1-generator": lambda u: u.samples(1, rng=default_rng(7)),
}


@pytest.mark.usefixtures("hot_kernels")
class TestSeededSingleDraws:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("how", sorted(SEEDED_SINGLE_DRAWS))
    def test_every_call_equals_ledger_off(self, engine, how):
        draw = SEEDED_SINGLE_DRAWS[how]
        with evaluation_config(engine=engine):
            u = certified_value()
            off = [draw(u) for _ in range(3)]
        with kernel_ran_if_fused(engine), evaluation_config(
            engine=engine, sample_cache=True
        ):
            u = certified_value()
            on = [draw(u) for _ in range(3)]
        assert np.array_equal(np.asarray(on), np.asarray(off))


class TestSeedLineage:
    """An integer seed keys an entry; the generator it names draws the
    same rows without one."""

    # The ids name the two values, one leaf and two leaves.
    @pytest.mark.parametrize("make", [certified_value, replay_value],
                             ids=["stream", "replay"])
    @pytest.mark.parametrize("seed", [0, 7, 2**62 + 3])
    def test_only_the_int_seed_is_cached(self, make, seed):
        plan = make().plan
        with evaluation_config(sample_cache=True):
            by_int = Draw(plan, seed).sample(100)
            by_numpy_int = Draw(plan, np.uint64(seed)).sample(100)
            by_generator = Draw(plan, np.random.default_rng(seed)).sample(100)
        [key] = LEDGER._entries
        assert key[2] == seed and type(key[2]) is int
        assert np.array_equal(by_int, by_numpy_int)
        assert np.array_equal(by_int, by_generator)
        with evaluation_config():
            off = Draw(plan, seed).sample(100)
        assert np.array_equal(by_int, off)


#: Single-draw loops over one generator, which each call advances: the
#: ambient one, and an explicit one passed on every call.
REUSED_GENERATOR_LOOPS = {
    "ambient": lambda u, g: [u.sample() for _ in range(8)],
    "explicit": lambda u, g: [u.sample(rng=g) for _ in range(8)],
}


@pytest.mark.usefixtures("hot_kernels")
class TestReusedGeneratorSingleDraws:
    @pytest.mark.parametrize("engine", ENGINES)
    # The ids name the two values, one leaf and two leaves.
    @pytest.mark.parametrize("make", [certified_value, replay_value],
                             ids=["stream", "replay"])
    @pytest.mark.parametrize("how", sorted(REUSED_GENERATOR_LOOPS))
    def test_loop_equals_ledger_off(self, engine, make, how):
        loop = REUSED_GENERATOR_LOOPS[how]
        with evaluation_config(engine=engine, rng=default_rng(3)) as cfg:
            off = loop(make(), cfg.rng)
        with evaluation_config(
            engine=engine, sample_cache=True, rng=default_rng(3)
        ) as cfg:
            on = loop(make(), cfg.rng)
        assert len(set(off)) == len(off)
        assert np.array_equal(np.asarray(on), np.asarray(off))


@pytest.mark.usefixtures("hot_kernels")
class TestTwoLeafBoolShapes:
    """A two-leaf comparison whose root is nearly always False, asked on
    pristine generators: no ask reads the ledger, so each equals its
    ledger-off answer."""

    @staticmethod
    def _session() -> tuple:
        x = Uncertain(Gaussian(0.0, 1.0))
        y = Uncertain(Gaussian(0.0, 1.0))
        b = (x + y) > 3.0
        before = b.samples(400, rng=default_rng(7))
        result = b.test(0.01, rng=default_rng(7))
        after = b.samples(400, rng=default_rng(7))
        return before, (result.samples_used, result.successes), after

    def test_sprt_after_samples_equals_ledger_off(self):
        with evaluation_config(engine="fused"):
            off = self._session()
        with kernel_ran(), evaluation_config(engine="fused", sample_cache=True):
            on = self._session()
        assert on[1] == off[1]
        assert np.array_equal(on[0], off[0])
        assert np.array_equal(on[2], off[2])
        assert ledger_state()["entries"] == 0


class TestEvictionAndRebuild:
    def test_lru_eviction_respects_byte_budget_and_rebuilds_identically(self):
        values = [
            Uncertain(Gaussian(float(i), 1.0)) * 2.0 for i in range(3)
        ]
        with evaluation_config(sample_cache=True):
            reference = [v.samples(200, rng=77) for v in values]
        clear_ledger()
        # 1600 bytes per column plus the per-entry overhead; room for two
        # entries only.
        budget = 3 * (1600 + ENTRY_OVERHEAD_BYTES) - 1
        with evaluation_config(sample_cache=budget):
            for v in values:
                v.samples(200, rng=77)
            state = ledger_state()
            assert state["bytes"] <= budget
            assert state["entries"] < 3
            # Evicted entries rebuild bit-identically on demand.
            rebuilt = [v.samples(200, rng=77) for v in values]
        for ref, re in zip(reference, rebuilt):
            assert np.array_equal(ref, re)

    def test_true_restores_the_default_budget(self):
        with evaluation_config(sample_cache=4000):
            certified_value().samples(10, rng=1)
        assert ledger_state()["max_bytes"] == 4000
        with evaluation_config(sample_cache=True):
            certified_value().samples(10, rng=1)
        assert ledger_state()["max_bytes"] == ledger_module.DEFAULT_MAX_BYTES

    def test_clear_ledger_drops_everything(self):
        u = certified_value()
        with evaluation_config(sample_cache=True):
            u.samples(100, rng=1)
        assert ledger_state()["entries"] == 1
        clear_ledger()
        state = ledger_state()
        assert state["entries"] == 0 and state["bytes"] == 0


class TestInvalidation:
    def test_invalidate_plan_drops_ledger_entries(self):
        u = certified_value()
        with evaluation_config(sample_cache=True):
            u.samples(100, rng=1)
        assert ledger_state()["entries"] == 1
        invalidate_plan(u.node)
        assert ledger_state()["entries"] == 0

    def test_clear_plan_cache_drops_ledger_entries(self):
        u = certified_value()
        with evaluation_config(sample_cache=True):
            u.samples(100, rng=1)
        assert ledger_state()["entries"] == 1
        clear_plan_cache()
        assert ledger_state()["entries"] == 0

    def test_health_repair_poisons_nothing(self):
        # An always-infinite plan: cached under the default policy, then
        # repaired (unsuccessfully) under "resample".  The repair bypasses
        # the ledger, so it neither reads nor feeds the cached column: the
        # entry survives and still serves the ledger-off rows.
        bad = Uncertain(Gaussian(0.0, 1.0)) / Uncertain(PointMass(0.0))
        with evaluation_config(sample_cache=True):
            rows = bad.samples(50, rng=1)
            assert np.all(~np.isfinite(rows))
        assert ledger_state()["entries"] == 1
        with evaluation_config(on_nonfinite="resample", nonfinite_retries=2):
            with pytest.raises(NonFiniteError):
                bad.samples(50, rng=1)
        assert ledger_state()["entries"] == 1
        with evaluation_config(sample_cache=True):
            served = bad.samples(50, rng=1)
        assert np.array_equal(served, bad.samples(50, rng=1), equal_nan=True)

    def test_resample_policy_bypasses_the_ledger(self):
        u = certified_value()
        scoped = RuntimeMetrics()
        with evaluation_config(
            sample_cache=True, on_nonfinite="resample", metrics=scoped
        ):
            u.samples(100, rng=1)
        assert ledger_state()["entries"] == 0
        assert scoped.ledger_bypasses >= 1


class TestGating:
    def test_opaque_plans_bypass(self):
        u = certified_value().map(lambda x: x + 1.0)
        assert u.plan.structural_hash is None
        with evaluation_config(sample_cache=True):
            a = u.samples(100, rng=1)
            b = u.samples(100, rng=1)
        assert np.array_equal(a, b)  # fresh generator per call either way
        assert ledger_state()["entries"] == 0

    def test_parallel_engine_bypasses(self):
        u = certified_value()
        with evaluation_config(sample_cache=True, engine="parallel"):
            u.samples(100, rng=1)
        assert ledger_state()["entries"] == 0

    def test_off_by_default(self):
        u = certified_value()
        u.samples(100, rng=1)
        assert ledger_state()["entries"] == 0

    def test_shared_context_draws_bypass(self):
        from repro.core.sampling import SampleContext

        u = certified_value()
        with evaluation_config(sample_cache=True):
            ctx = SampleContext(64, rng=5)
            ctx.value_of(u.node)
        assert ledger_state()["entries"] == 0

    def test_entries_are_keyed_by_shape_engine_and_seed(self):
        # Each query is asked twice, so its entry is proven and stays.
        u = certified_value()
        m = replay_value()
        for engine in ENGINES:
            with evaluation_config(sample_cache=True, engine=engine):
                for seed in (1, 2):
                    for value in (u, m, u, m):
                        value.samples(50, rng=seed)
        assert set(LEDGER._entries) == {
            (value.plan.structural_hash, engine, seed)
            for value in (u, m) for engine in ENGINES for seed in (1, 2)
        }

    def test_fill_failure_drops_the_entry(self):
        u = certified_value()
        with evaluation_config(sample_cache=True):
            u.samples(50, rng=1)
            assert ledger_state()["entries"] == 1
            with evaluation_config(sample_cache=True, on_nonfinite="raise"):
                # force an extension failure via a poisoned plan sharing
                # nothing with u: the entry for u must survive...
                bad = Uncertain(Gaussian(0.0, 1.0)) / Uncertain(
                    PointMass(0.0)
                )
                with pytest.raises(NonFiniteError):
                    bad.samples(10, rng=2)
            # ...and the poisoned plan's half-built entry must not.
            assert ledger_state()["entries"] == 1


class TestLiveState:
    """``stats()["ledger"]`` reads the ledger itself, so resets, scoped
    sinks and disabled metrics cannot make it disagree with the ledger."""

    def test_state_survives_reset_stats(self):
        with evaluation_config(sample_cache=True):
            certified_value().samples(100, rng=1)
        reset_stats()
        state = ledger_state()
        assert (state["entries"], state["bytes"]) == (1, 800 + ENTRY_OVERHEAD_BYTES)
        assert state["hits"] == state["misses"] == 0  # counters do reset

    def test_scoped_sink_draws_show_in_the_process_state(self):
        scoped = RuntimeMetrics()
        with evaluation_config(sample_cache=True, metrics=scoped):
            certified_value().samples(100, rng=1)
            certified_value().samples(100, rng=1)  # a hit: proven, it stays
            replay_value().samples(100, rng=1)
        state = ledger_state()
        assert (state["entries"], state["bytes"]) == (
            2, 1600 + 2 * ENTRY_OVERHEAD_BYTES
        )
        assert not {"entries", "bytes"} & set(scoped.snapshot()["ledger"])

    def test_clear_without_metrics_empties_the_state(self):
        with evaluation_config(sample_cache=True):
            certified_value().samples(100, rng=1)
        with evaluation_config(metrics=False):
            clear_ledger()
        state = ledger_state()
        assert (state["entries"], state["bytes"]) == (0, 0)


class TestRunningByteTotal:
    """The ledger keeps its byte total as it goes instead of summing every
    entry on each fill; the total must track the entries exactly."""

    def test_total_tracks_serves_evictions_invalidation_and_failures(
        self, monkeypatch
    ):
        def actual():
            return sum(e.nbytes for e in LEDGER._entries.values())

        evictions = []
        evict = SampleLedger._evict

        def checked_evict(self, keep, sink):  # runs under the ledger's lock
            evict(self, keep, sink)
            evictions.append(self._bytes)
            assert self._bytes == actual() <= self.max_bytes

        monkeypatch.setattr(SampleLedger, "_evict", checked_evict)
        leaf = ChaosDistribution(Gaussian(0.0, 1.0), seed=1)
        flaky = Uncertain(leaf) * 2.0
        steps = [
            lambda: certified_value().samples(200, rng=1),  # 1600
            lambda: certified_value().samples(300, rng=1),  # another N: +2400
            lambda: certified_value().samples(200, rng=1),  # a hit: proven
            lambda: replay_value().samples(100, rng=1),  # 800
            lambda: replay_value().samples(150, rng=1),  # another N: +1200
            lambda: flaky.samples(100, rng=1),  # 800, evicts replay (never hit)
            # A new shape evicts the entry never hit before it (flaky's).
            lambda: (Uncertain(Gaussian(9.0, 1.0)) + 1.0).samples(100, rng=1),
            lambda: invalidate_plan(replay_value().node),
        ]
        with evaluation_config(sample_cache=32_000):
            for step in steps:
                step()
                assert ledger_state()["bytes"] == actual()
            assert evictions and ledger_state()["entries"] >= 2
            # A failed fill drops the entry and its bytes.
            leaf.error_rate = 1.0
            with pytest.raises(InjectedFault):
                flaky.samples(300, rng=1)
            flaky_hash = flaky.plan.structural_hash
            assert not any(e.key[0] == flaky_hash for e in LEDGER._entries.values())
            assert ledger_state()["bytes"] == actual() > 0
        clear_ledger()
        assert ledger_state()["bytes"] == actual() == 0


class TestMetricsExposition:
    def test_prometheus_renders_ledger_series(self):
        u = certified_value()
        scoped = RuntimeMetrics()
        with evaluation_config(sample_cache=True, metrics=scoped):
            u.samples(100, rng=1)
            u.samples(100, rng=1)
        text = render_prometheus(scoped.snapshot())
        assert "repro_ledger_hits" in text
        assert "repro_ledger_suffix_extensions" in text
        # The footprint is the ledger's state, not a scoped sink's count.
        assert "repro_ledger_bytes" not in text
        state = render_prometheus(stats())
        assert f"repro_ledger_bytes {800 + ENTRY_OVERHEAD_BYTES}" in state
        snap = scoped.snapshot()["ledger"]
        assert snap["hits"] >= 1
        assert snap["rows_drawn"] == 100
        assert snap["rows_reused"] >= 100

    def test_instance_isolated_from_global(self):
        ledger = SampleLedger(max_bytes=10)
        assert ledger.state()["entries"] == 0
        assert ledger is not LEDGER


class TestWindowsResolveOnce:
    """A sequential test's batches (its windows) are ``draw.run`` calls:
    they never reach the ledger and equal a ledger-off run."""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_window_rows_equal_a_ledger_off_run(self, engine, monkeypatch):
        u = certified_value()
        with evaluation_config(engine=engine):
            fresh = u.samples(30, rng=5)

        def unreachable(self, draw, n):
            raise AssertionError("a sequential draw reached the ledger")

        monkeypatch.setattr(SampleLedger, "serve", unreachable)
        with evaluation_config(engine=engine, sample_cache=True):
            draw = Draw(u.plan, 5)
            rows = [draw.run(10) for _ in range(3)]
            (u > 6.0).test(rng=5)
            expected_value_adaptive(u, batch_size=10, max_samples=100, rng=5)
        assert all(r.dtype == fresh.dtype for r in rows)
        assert np.array_equal(np.concatenate(rows), fresh)
        assert ledger_state()["entries"] == 0


def rewritten_value() -> Uncertain:
    """A shape that builds ``x + 1.0`` twice: two deterministic nodes
    over one leaf."""
    x = Uncertain(Gaussian(0.0, 1.0))
    return (x + 1.0) * (x + 1.0)


class TestGraphLifetime:
    """An entry holds columns, never a plan: dropping the graphs that
    filled the ledger frees every node, and the rows stay cached for the
    next isomorphic graph."""

    @staticmethod
    def _node_refs(value: Uncertain) -> list:
        return [weakref.ref(step.node) for step in value.plan.steps]

    @pytest.mark.usefixtures("hot_kernels")
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize(
        "make, reads",
        [
            # One leaf: two runs of one seed, and an SPRT.
            (certified_value, ("samples", "extend", "test")),
            # Two leaves: one run.
            (replay_value, ("samples",)),
            # Duplicated deterministic nodes over one leaf.
            (rewritten_value, ("samples", "extend", "test")),
        ],
        ids=["stream", "replay", "rewritten"],  # names kept from two modes
    )
    def test_dropped_graphs_are_freed_and_their_rows_stay(
        self, engine, make, reads
    ):
        with evaluation_config(engine=engine):
            off = make().samples(250, rng=3)
        value = make()
        boolean = value > 0.5
        with kernel_ran_if_fused(engine), evaluation_config(
            engine=engine, sample_cache=True
        ):
            first = value.samples(100 if "extend" in reads else 250, rng=3)
            if "extend" in reads:
                value.samples(250, rng=3)
            if "test" in reads:
                boolean.test(rng=4)
        assert np.array_equal(first, off[: len(first)])
        refs = self._node_refs(value) + self._node_refs(boolean)
        entries = ledger_state()["entries"]
        assert entries >= 1
        del value, boolean
        gc.collect()
        assert all(ref() is None for ref in refs)
        assert ledger_state()["entries"] == entries
        # An isomorphic fresh graph is served from the kept rows.
        scoped = RuntimeMetrics()
        with evaluation_config(engine=engine, sample_cache=True,
                               metrics=scoped):
            again = make().samples(250, rng=3)
        assert np.array_equal(again, off)
        assert scoped.ledger_hits == 1 and scoped.ledger_rows_drawn == 0
