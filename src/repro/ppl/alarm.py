"""Figure 17's alarm model and the Uncertain<T> cost comparison.

The generative program::

    earthquake  = Bernoulli(0.0001)
    burglary    = Bernoulli(0.001)
    alarm       = earthquake or burglary
    phoneWorking = Bernoulli(0.7) if earthquake else Bernoulli(0.99)
    observe(alarm)
    query(phoneWorking)

Pr[alarm] ~ 0.11%, so a rejection sampler executes the model ~900 times per
posterior sample.  Uncertain<T> answers a different, cheaper question — the
*conditional* distribution of a concrete instance — and its SPRT draws only
as many samples as the conditional needs.  ``run_alarm_comparison``
measures both costs on the same machine.
"""

from __future__ import annotations

import dataclasses

from repro.core.conditionals import evaluation_config
from repro.core.uncertain import UncertainBool
from repro.dists.bernoulli import Bernoulli
from repro.ppl.language import RejectionResult, Trace, rejection_query
from repro.rng import ensure_rng


def alarm_model(trace: Trace) -> bool:
    """The Figure 17 program, transliterated."""
    earthquake = trace.flip(0.0001, "earthquake")
    burglary = trace.flip(0.001, "burglary")
    alarm = earthquake or burglary
    if earthquake:
        phone_working = trace.flip(0.7, "phoneWorking")
    else:
        phone_working = trace.flip(0.99, "phoneWorking")
    trace.observe(alarm, "alarm")
    return phone_working


def exact_phone_working_posterior() -> float:
    """Closed-form Pr[phoneWorking | alarm] for the Figure 17 model."""
    p_eq, p_bg = 0.0001, 0.001
    p_alarm = 1.0 - (1.0 - p_eq) * (1.0 - p_bg)
    p_joint = p_eq * 0.7 + (1.0 - p_eq) * p_bg * 0.99
    return p_joint / p_alarm


def exact_alarm_probability() -> float:
    """Closed-form Pr[alarm] (the paper's 0.11%)."""
    return 1.0 - (1.0 - 0.0001) * (1.0 - 0.001)


@dataclasses.dataclass
class AlarmComparison:
    """Costs of answering a question in each paradigm."""

    rejection: RejectionResult
    rejection_estimate: float
    exact_posterior: float
    uncertain_samples: int
    uncertain_decision: bool


def run_alarm_comparison(
    n_posterior_samples: int = 100, rng=None
) -> AlarmComparison:
    """Measure rejection-query cost versus an Uncertain conditional.

    The generative side draws ``n_posterior_samples`` posterior samples of
    ``phoneWorking | alarm`` (the paper measured 20 s for 100 samples in
    Church).  The Uncertain side asks the kind of question applications
    actually ask of estimated data — "is the phone more likely than not to
    be working?" over the conditional distribution — and we record how few
    samples the SPRT needs.
    """
    rng = ensure_rng(rng)
    rejection = rejection_query(alarm_model, n_posterior_samples, rng=rng)

    phone_working = UncertainBool(Bernoulli(exact_phone_working_posterior()))
    with evaluation_config(rng=rng) as cfg:
        decision = bool(phone_working)
        samples_used = cfg.accounting.samples_drawn

    return AlarmComparison(
        rejection=rejection,
        rejection_estimate=rejection.estimate(),
        exact_posterior=exact_phone_working_posterior(),
        uncertain_samples=samples_used,
        uncertain_decision=decision,
    )
