"""Probability distributions represented as sampling functions.

Section 3.2 of the paper argues that exact density algebra is impractical
under computation and that many real error models have no closed form, so
Uncertain<T> represents every distribution through an *approximate sampling
function*: a zero-argument procedure that returns a fresh random draw on each
invocation (Park et al., POPL 2005).

This package is the expert-developer substrate: each class couples a
vectorised sampling function with whatever analytic structure the
distribution has (density, CDF, moments), because priors (Section 3.5) and
the BayesLife case study (Section 5.2) need densities as well as samples.
"""

from repro._lazy import lazy_exports
from repro.dists.base import Distribution, Support
from repro.dists.empirical import Empirical
from repro.dists.sampling_function import FunctionDistribution

# Every other family loads on first access.
_LAZY = {
    "Gaussian": "repro.dists.gaussian",
    "TruncatedGaussian": "repro.dists.gaussian",
    "MultivariateGaussian": "repro.dists.gaussian",
    "Uniform": "repro.dists.uniform",
    "DiscreteUniform": "repro.dists.uniform",
    "Bernoulli": "repro.dists.bernoulli",
    "Binomial": "repro.dists.bernoulli",
    "Rayleigh": "repro.dists.rayleigh",
    "Exponential": "repro.dists.exponential",
    "Gamma": "repro.dists.exponential",
    "Beta": "repro.dists.beta",
    "Poisson": "repro.dists.poisson",
    "Categorical": "repro.dists.categorical",
    "PointMass": "repro.dists.categorical",
    "Triangular": "repro.dists.triangular",
    "LogNormal": "repro.dists.lognormal",
    "StudentT": "repro.dists.studentt",
    "Mixture": "repro.dists.mixture",
    "KernelDensity": "repro.dists.kde",
    "Weibull": "repro.dists.weibull",
    "Laplace": "repro.dists.laplace",
    "Cauchy": "repro.dists.cauchy",
    "VonMises": "repro.dists.vonmises",
}
__getattr__, __dir__ = lazy_exports(globals(), _LAZY)

__all__ = ["Distribution", "Support", "Empirical", "FunctionDistribution", *_LAZY]
