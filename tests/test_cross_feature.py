"""Cross-feature integration: the extensions compose with the core.

Each test wires at least three subsystems together, the way a downstream
application would.
"""

import numpy as np
import pytest

from repro.core.bayes import posterior
from repro.core.conditionals import evaluation_config
from repro.core.joint import correlated_gaussians
from repro.core.reductions import uall, umax, usum
from repro.core.sprt import GroupSequentialTest
from repro.core.uncertain import Uncertain
from repro.core.viz import summary
from repro.dists import Gaussian, TruncatedGaussian
from repro.rng import default_rng


class TestJointThroughPriorsAndConditionals:
    def test_correlated_sensors_fused_and_questioned(self):
        # Two correlated temperature sensors; their mean, improved by a
        # physical prior, answers an evidence question.
        cov = np.array([[1.0, 0.6], [0.6, 1.0]])
        s1, s2 = correlated_gaussians([21.0, 21.4], cov, ["s1", "s2"])
        fused = (s1 + s2) / 2.0
        better = posterior(
            fused, TruncatedGaussian(20.0, 2.0, 10.0, 30.0), rng=default_rng(0)
        )
        with evaluation_config(rng=default_rng(1)):
            assert bool(better > 18.0)
            assert not (better > 25.0).pr(0.5)

    def test_joint_network_inspectable(self):
        s1, s2 = correlated_gaussians([0.0, 0.0], np.eye(2))
        info = summary(s1 + s2)
        # components share the single joint leaf.
        assert info["leaves"] == 1
        assert info["nodes"] == 4  # leaf, two components, sum


class TestReductionsThroughConditioning:
    def test_max_sensor_given_all_plausible(self):
        sensors = [Uncertain(Gaussian(m, 0.5)) for m in (1.0, 2.0, 3.0)]
        peak = umax(sensors)
        plausible = uall([s > -1.0 for s in sensors])
        conditioned = peak.given(plausible, rng=default_rng(2))
        assert conditioned.expected_value(5_000, default_rng(3)) == pytest.approx(
            3.05, abs=0.15
        )

    def test_sum_conditioned_on_component(self):
        parts = [Uncertain(Gaussian(0.0, 1.0)) for _ in range(4)]
        total = usum(parts)
        conditioned = total.given(parts[0] > 2.0, rng=default_rng(4))
        # E[x | x > 2] for N(0,1) ~ 2.37; others unchanged.
        assert conditioned.expected_value(5_000, default_rng(5)) == pytest.approx(
            2.37, abs=0.25
        )


class TestAlternativeTestsEndToEnd:
    def test_group_sequential_drives_application_conditionals(self):
        from repro.gps.ticket import ticket_condition

        cond = ticket_condition(70.0, 4.0)
        with evaluation_config(
            rng=default_rng(6),
            test_factory=lambda t: GroupSequentialTest(t, looks=5, group_size=100),
        ) as cfg:
            assert cond.pr(0.5)
            assert cfg.accounting.samples_drawn <= 500

    def test_fixed_single_sample_reproduces_naivety_in_life(self):
        # Wiring FixedSampleTest(n=1) into SensorLife makes it behave like
        # NaiveLife statistically: boundary cells flip.
        from repro.core.sprt import FixedSampleTest
        from repro.life.variants import SensorLife

        states = np.array([1.0, 1.0] + [0.0] * 6)  # live cell, 2 neighbours
        wrong = 0
        with evaluation_config(
            rng=default_rng(7),
            test_factory=lambda t: FixedSampleTest(t, n=1),
        ):
            for seed in range(100):
                outcome = SensorLife(0.3).decide(True, states, default_rng(seed))
                wrong += not outcome.will_be_alive  # truth: survives
        assert wrong > 10  # single-sample decisions flip often


class TestFilteredLocationThroughEverything:
    def test_fusion_geofence_prior_pipeline(self):
        from repro.gps.fusion import ParticleFilter
        from repro.gps.geo import GeoCoordinate
        from repro.gps.geofence import Geofence
        from repro.gps.sensor import GpsFix

        origin = GeoCoordinate(47.64, -122.13)
        pf = ParticleFilter(
            GpsFix(origin.offset_m(50.0, 40.0), 4.0, 0.0),
            n_particles=300,
            rng=default_rng(8),
        )
        for t in range(1, 5):
            pf.predict(1.0)
            pf.update(GpsFix(origin.offset_m(50.0, 40.0), 4.0, float(t)))
        location = pf.location()
        park = Geofence.rectangle(origin, 100.0, 80.0)
        inside = park.contains(location)
        with evaluation_config(rng=default_rng(9)):
            assert inside.pr(0.9)
        # The evidence itself is high.
        assert inside.evidence(2_000, default_rng(10)) > 0.95
