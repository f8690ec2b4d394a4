"""Tests for the retired optimizer names.

The rewrite optimizer is gone: every engine runs the plan ``compile_plan``
returns.  ``repro.core.optimizer.optimize_plan`` and the ``optimize``
config knob stay only for the end-to-end benchmark, which wraps the one
and passes the other; both must change nothing.
"""

import pickle

import numpy as np
import pytest

from repro.core.conditionals import evaluation_config
from repro.core.engines import NumpyEngine
from repro.core.optimizer import optimize_plan
from repro.core.plan import compile_plan
from repro.core.uncertain import Uncertain
from repro.dists.gaussian import Gaussian


class TestResolveLevel:
    """The ``optimize`` knob is accepted at every value and ignored.

    Each value once named an optimizer level (``expected``); every value
    now draws the rows ``optimize=False`` draws, on every engine.
    """

    @pytest.mark.parametrize(
        "value,expected",
        [(True, 2), (False, 0), (0, 0), (None, 0), (1, 1), (2, 2), (7, 2)],
    )
    def test_mapping(self, value, expected, hot_kernels):
        for engine in ("numpy", "fused"):
            y = Uncertain(Gaussian(0.0, 1.0)) + (Uncertain.pointmass(1.0) + 2.0)
            with evaluation_config(optimize=value, engine=engine):
                got = y.samples(8, rng=np.random.default_rng(3))
            with evaluation_config(optimize=False, engine=engine):
                reference = y.samples(8, rng=np.random.default_rng(3))
            np.testing.assert_array_equal(got, reference)


class TestPipeline:
    def test_noop_returns_same_plan_object(self):
        x = Uncertain(Gaussian(0.0, 1.0))
        y = (x + 1.0) * (x + 1.0) + (Uncertain.pointmass(1.0) + 2.0)
        plan = compile_plan(y.node)
        opt, records = optimize_plan(plan)
        assert opt is plan
        assert records == ()

    def test_config_optimize_knob_controls_sampling(self):
        const = Uncertain.pointmass(2.0) * 3.0
        y = Uncertain(Gaussian(0.0, 1.0)) + const
        # Identical streams with the knob on, off, and ``1``.
        draws = {}
        for knob in (True, False, 1):
            with evaluation_config(optimize=knob):
                draws[knob] = y.samples(16, rng=np.random.default_rng(11))
        np.testing.assert_array_equal(draws[True], draws[False])
        np.testing.assert_array_equal(draws[True], draws[1])

    def test_memoised_context_draws_stay_unoptimized(self):
        from repro.core.sampling import SampleContext

        const = Uncertain.pointmass(2.0) * 3.0
        x = Uncertain(Gaussian(0.0, 1.0))
        y = x + const
        ctx = SampleContext(n=8, rng=np.random.default_rng(2))
        y_vals = y.sample_with(ctx)
        x_vals = x.sample_with(ctx)
        # The shared leaf is consistent between the two roots.
        np.testing.assert_array_equal(y_vals, x_vals + 6.0)


class TestPickleRoundTrip:
    def test_raw_plan_pickles_at_level_zero(self):
        y = Uncertain(Gaussian(0.0, 1.0)) + 1.0
        plan = compile_plan(y.node)
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.structural_hash == plan.structural_hash
        assert len(clone.steps) == len(plan.steps)
        a = NumpyEngine().run(plan, 16, np.random.default_rng(4))[plan.root_slot]
        b = NumpyEngine().run(clone, 16, np.random.default_rng(4))[
            clone.root_slot
        ]
        np.testing.assert_array_equal(a, b)
