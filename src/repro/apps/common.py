"""Shared plumbing for the three application instances.

An application prepares an :class:`AppEnvironment` — a market value model, a
materialised arrival sequence (so every algorithm version sees the same
market), and the pricer hyper-parameters derived from the paper's setup — and
then asks :func:`run_versions` to simulate any subset of the four algorithm
versions plus the risk-averse baseline over it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from repro.core.base import PostedPriceMechanism
from repro.core.baselines import RiskAversePricer
from repro.core.models import MarketValueModel
from repro.core.pricing import make_pricer
from repro.core.simulation import SimulationResult
from repro.engine import ArrivalBatch, MarketScenario, RunMatrix

#: The four algorithm versions evaluated throughout Section V, keyed by the
#: names used in the paper's figures.
ALGORITHM_VERSIONS = (
    "pure version",
    "with uncertainty",
    "with reserve price",
    "with reserve price and uncertainty",
)

#: The paper's risk-averse comparison baseline (post the reserve every round).
RISK_AVERSE = "risk-averse baseline"


class ArrivalRows(Sequence):
    """Read-only :class:`QueryArrival` rows of an :class:`ArrivalBatch`.

    Rows are built on access, so slicing a long horizon builds only the
    slice.  For callers that consume row objects (``simulate_reference``,
    tests); the engine reads the batch's columns.
    """

    def __init__(self, batch: ArrivalBatch) -> None:
        self._batch = batch

    def __len__(self) -> int:
        return len(self._batch)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._batch.row(i) for i in range(*index.indices(len(self)))]
        rounds = len(self)
        if not -rounds <= index < rounds:
            raise IndexError("arrival index %d out of range for %d rounds" % (index, rounds))
        return self._batch.row(index % rounds)


@dataclass
class AppEnvironment:
    """A fully materialised market environment for one application instance.

    Attributes
    ----------
    model:
        Market value model generating ``v_t`` (holds the true ``θ*``).
    batch:
        The query arrival sequence as columns, with reserve prices and
        pre-drawn noise (see :meth:`arrival_batch`).
    dimension:
        Link-space feature dimension ``n`` seen by the pricer.
    radius:
        Radius ``R`` of the initial knowledge ball.
    epsilon:
        Exploration threshold ``ε``.
    delta:
        Uncertainty buffer ``δ`` used by the "...with uncertainty" versions.
    feature_norm_bound:
        The bound ``S`` on the link-space feature norms (reported for context).
    name:
        Application name used in reports.
    initial_ellipsoid:
        Optional warm-start knowledge ellipsoid shared by all pricer versions;
        ``None`` (the paper's setting) means the origin-centered ball of
        radius ``radius``.
    """

    model: MarketValueModel
    batch: ArrivalBatch
    dimension: int
    radius: float
    epsilon: float
    delta: float
    feature_norm_bound: float
    name: str
    metadata: dict = field(default_factory=dict)
    initial_ellipsoid: object = None

    @property
    def rounds(self) -> int:
        """Number of arrivals in the environment."""
        return len(self.batch)

    @property
    def arrivals(self) -> ArrivalRows:
        """The arrivals as :class:`QueryArrival` rows, built on access."""
        return ArrivalRows(self.batch)

    def arrival_batch(self) -> ArrivalBatch:
        """The arrivals as a columnar :class:`~repro.engine.ArrivalBatch`."""
        return self.batch

    def as_scenario(self, name: Optional[str] = None) -> MarketScenario:
        """Wrap this environment as a run-matrix :class:`MarketScenario`."""
        return MarketScenario(
            name=name or self.name,
            model=self.model,
            batch=self.batch,
            context=self,
        )


def build_pricer_for_version(
    environment: AppEnvironment,
    version: str,
    allow_conservative_cuts: bool = False,
    knowledge: str = "ellipsoid",
) -> PostedPriceMechanism:
    """Instantiate the pricer corresponding to one of the paper's versions."""
    if version == RISK_AVERSE:
        return RiskAversePricer()
    if version not in ALGORITHM_VERSIONS:
        raise ValueError(
            "unknown version %r; expected one of %s or %r"
            % (version, list(ALGORITHM_VERSIONS), RISK_AVERSE)
        )
    use_reserve = "reserve" in version
    delta = environment.delta if "uncertainty" in version else 0.0
    return make_pricer(
        dimension=environment.dimension,
        radius=environment.radius,
        epsilon=environment.epsilon,
        delta=delta,
        use_reserve=use_reserve,
        allow_conservative_cuts=allow_conservative_cuts,
        knowledge=knowledge,
        initial_ellipsoid=environment.initial_ellipsoid,
    )


class VersionPricerFactory:
    """Run-matrix pricer factory for one of the paper's algorithm versions.

    A picklable callable (so it survives process-pool forks) that builds a
    fresh pricer for the scenario's originating :class:`AppEnvironment`.
    """

    def __init__(
        self,
        version: str,
        allow_conservative_cuts: bool = False,
        knowledge: str = "ellipsoid",
    ) -> None:
        self.version = version
        self.allow_conservative_cuts = allow_conservative_cuts
        self.knowledge = knowledge

    def __call__(self, scenario: MarketScenario) -> PostedPriceMechanism:
        environment = scenario.context
        if not isinstance(environment, AppEnvironment):
            raise TypeError(
                "VersionPricerFactory requires scenarios built from an "
                "AppEnvironment, got context %r" % type(environment).__name__
            )
        return build_pricer_for_version(
            environment,
            self.version,
            allow_conservative_cuts=self.allow_conservative_cuts,
            knowledge=self.knowledge,
        )


def run_versions(
    environment: AppEnvironment,
    versions: Sequence[str] = ALGORITHM_VERSIONS,
    include_risk_averse: bool = False,
    track_latency: bool = False,
    allow_conservative_cuts: bool = False,
    knowledge: str = "ellipsoid",
    executor: str = "auto",
    max_workers: Optional[int] = None,
) -> Dict[str, SimulationResult]:
    """Simulate the requested algorithm versions over one environment.

    Every version replays exactly the same arrival sequence (queries, reserve
    prices, and noise realisation), which is the comparison protocol of the
    paper's Fig. 4 / Fig. 5.  The versions are one-scenario cells of a
    :class:`~repro.engine.RunMatrix`: the arrivals are materialised once and
    the cells fan out across workers when the workload warrants it
    (``executor="auto"``).
    """
    names = list(versions)
    if include_risk_averse:
        names.append(RISK_AVERSE)
    # Tolerate duplicates (e.g. the baseline both listed and requested via
    # include_risk_averse) — each version runs once, keyed by name.
    names = list(dict.fromkeys(names))
    matrix = RunMatrix()
    matrix.add_scenario(environment.name, environment.as_scenario())
    for version in names:
        matrix.add_pricer(
            version,
            VersionPricerFactory(
                version,
                allow_conservative_cuts=allow_conservative_cuts,
                knowledge=knowledge,
            ),
        )
    matrix.add_cross()
    grid = matrix.run(executor=executor, max_workers=max_workers, track_latency=track_latency)
    return {version: grid.get(environment.name, version) for version in names}


def scale_to_norm(vector: np.ndarray, norm: float) -> np.ndarray:
    """Rescale ``vector`` so its L2 norm equals ``norm`` (no-op for zero vectors)."""
    current = float(np.linalg.norm(vector))
    if current == 0.0:
        return vector.copy()
    return vector * (norm / current)
