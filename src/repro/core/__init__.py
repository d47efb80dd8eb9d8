"""Core pricing library: ellipsoid geometry, knowledge sets, posted price mechanisms.

This package implements the paper's primary contribution:

* :mod:`repro.core.ellipsoid` / :mod:`repro.core.cuts` — ellipsoid geometry and
  Löwner–John cut updates,
* :mod:`repro.core.knowledge` — interval, ellipsoid, and exact-polytope
  knowledge sets over the unknown weight vector,
* :mod:`repro.core.pricing` — Algorithms 1, 1*, 2, 2* (ellipsoid based posted
  price mechanisms with/without reserve price and uncertainty),
* :mod:`repro.core.one_dim` — the one-dimensional bisection pricer (Theorem 3),
* :mod:`repro.core.baselines` — risk-averse / oracle / fixed-price baselines,
* :mod:`repro.core.models` — linear and non-linear market value models,
* :mod:`repro.core.noise` — sub-Gaussian uncertainty and the buffer δ,
* :mod:`repro.core.regret` — the regret definition of Eq. (1) and derived metrics,
* :mod:`repro.core.simulation` — the online market simulation loop.
"""

from repro.core.ellipsoid import Ellipsoid
from repro.core.cuts import CutResult, CutKind, loewner_john_cut
from repro.core.knowledge import (
    EllipsoidKnowledge,
    IntervalKnowledge,
    KnowledgeSet,
    PolytopeKnowledge,
)
from repro.core.models import (
    GeneralizedLinearMarketModel,
    KernelizedModel,
    LinearModel,
    LogisticModel,
    LogLinearModel,
    LogLogModel,
    MarketValueModel,
)
from repro.core.noise import (
    BoundedNoise,
    GaussianNoise,
    NoNoise,
    RademacherNoise,
    SubGaussianNoise,
    UniformNoise,
    uncertainty_buffer,
)
from repro.core.base import BatchDecisions, PostedPriceMechanism
from repro.core.pricing import EllipsoidPricer, PricerConfig, PricingDecision, make_pricer
from repro.core.one_dim import OneDimensionalPricer
from repro.core.baselines import (
    ConstantMarkupPricer,
    FixedPricePricer,
    OraclePricer,
    RiskAversePricer,
)
from repro.core.sgd_pricer import SGDContextualPricer
from repro.core.regret import (
    RegretAccumulator,
    batch_regrets,
    regret_ratio,
    single_round_regret,
    single_round_regret_curve,
    single_round_regret_without_reserve,
)
from repro.core.simulation import (
    MarketSimulator,
    QueryArrival,
    RoundOutcome,
    SimulationResult,
    compare_pricers,
)

__all__ = [
    "Ellipsoid",
    "CutResult",
    "CutKind",
    "loewner_john_cut",
    "KnowledgeSet",
    "EllipsoidKnowledge",
    "IntervalKnowledge",
    "PolytopeKnowledge",
    "MarketValueModel",
    "GeneralizedLinearMarketModel",
    "LinearModel",
    "LogLinearModel",
    "LogLogModel",
    "LogisticModel",
    "KernelizedModel",
    "SubGaussianNoise",
    "GaussianNoise",
    "UniformNoise",
    "RademacherNoise",
    "BoundedNoise",
    "NoNoise",
    "uncertainty_buffer",
    "EllipsoidPricer",
    "PricerConfig",
    "PricingDecision",
    "make_pricer",
    "OneDimensionalPricer",
    "RiskAversePricer",
    "OraclePricer",
    "FixedPricePricer",
    "ConstantMarkupPricer",
    "SGDContextualPricer",
    "single_round_regret",
    "single_round_regret_without_reserve",
    "single_round_regret_curve",
    "regret_ratio",
    "batch_regrets",
    "BatchDecisions",
    "PostedPriceMechanism",
    "RegretAccumulator",
    "MarketSimulator",
    "QueryArrival",
    "RoundOutcome",
    "SimulationResult",
    "compare_pricers",
]
