"""Application 2: pricing accommodation rentals under the log-linear model.

Reproduces the setup of Section V-B:

* listings (a synthetic stand-in for the Airbnb U.S. major cities data) are
  encoded into ``n = 55`` numeric features — categorical codes, numeric
  attributes, and interaction features,
* the weight vector ``θ*`` is learned by ordinary least squares on the
  logarithmic lodging prices (80/20 train/test split; the held-out MSE is
  reported in the environment metadata, mirroring the paper's 0.226),
* the market value of a listing is ``v_t = exp(x_t^T θ*)`` (log-linear model),
* the reserve price is controlled by the ratio ``r`` between the natural
  logarithms of reserve and market value: ``log q_t = r · log v_t``
  (``r ∈ {0.4, 0.6, 0.8}`` in the paper's Fig. 5(b)),
* regret ratios are computed on real (exponentiated) prices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.apps.common import ALGORITHM_VERSIONS, AppEnvironment, run_versions
from repro.core.ellipsoid import Ellipsoid
from repro.core.models import LogLinearModel
from repro.core.pricing import PricerConfig
from repro.core.simulation import SimulationResult
from repro.datasets.listings import generate_listings
from repro.engine import ArrivalBatch
from repro.learning.encoding import ListingFeaturizer
from repro.learning.linear_regression import LinearRegression, train_test_split
from repro.learning.metrics import mean_squared_error
from repro.utils.linalg import row_dots
from repro.utils.rng import spawn_rngs


@dataclass(frozen=True)
class AccommodationConfig:
    """Configuration of the accommodation-rental experiment.

    Attributes
    ----------
    listing_count:
        Number of listing records (74,111 in the paper; scaled down by default).
    dimension:
        Feature dimension ``n`` (55 in the paper).
    reserve_log_ratio:
        The ratio ``r`` between the natural logs of reserve and market value;
        ``None`` disables reserve prices entirely.
    delta:
        Link-space uncertainty buffer for the "...with uncertainty" versions
        (the paper evaluates this application without uncertainty).
    epsilon:
        Optional explicit exploration threshold; defaults to ``n²/T`` capped at
        ``epsilon_cap``.  The cap is needed because the threshold lives in log
        space: under the log-linear model the conservative price loses a
        ``1 - exp(-ε)`` fraction of the real market value every round, so ε
        must stay well below 1 regardless of the horizon (Theorem 2's Lipschitz
        factor); the paper's own ``n²/T = 0.04`` at ``T = 74,111`` satisfies
        this naturally.
    epsilon_cap:
        Upper bound applied to the default ε.
    test_fraction:
        Held-out fraction of the OLS fit (0.2 in the paper).
    warm_start_count:
        Number of *historical* listing transactions the broker may use to
        warm-start its knowledge set (0, the paper's setting, starts from the
        origin-centered ball).  With a warm start the initial ellipsoid is
        centered at an OLS fit over those historical records and shaped by the
        fit's covariance — see DESIGN.md §6: the paper's reported few-percent
        regret ratios at ``n = 55`` are only reachable when the broker starts
        with some market knowledge, and this option quantifies how much.
    warm_start_inflation:
        Safety factor by which the warm-start ellipsoid is inflated beyond the
        smallest ellipsoid that contains the true weight vector.
    seed:
        Master random seed.
    """

    listing_count: int = 10_000
    dimension: int = 55
    include_amenities: bool = True
    reserve_log_ratio: Optional[float] = 0.6
    delta: float = 0.0
    epsilon: Optional[float] = None
    epsilon_cap: float = 0.1
    test_fraction: float = 0.2
    warm_start_count: int = 0
    warm_start_inflation: float = 4.0
    seed: int = 0

    def resolved_epsilon(self) -> float:
        """The exploration threshold actually used."""
        if self.epsilon is not None:
            return self.epsilon
        theoretical = PricerConfig.theoretical_epsilon(
            self.dimension, self.listing_count, delta=self.delta
        )
        return min(theoretical, self.epsilon_cap)


def build_accommodation_environment(config: AccommodationConfig) -> AppEnvironment:
    """Materialise the accommodation-rental environment."""
    if config.reserve_log_ratio is not None and not 0.0 <= config.reserve_log_ratio <= 1.0:
        raise ValueError(
            "reserve_log_ratio must lie in [0, 1], got %g" % config.reserve_log_ratio
        )
    if config.warm_start_count < 0:
        raise ValueError("warm_start_count must be non-negative")
    rng_data, rng_split, rng_history = spawn_rngs(config.seed, 3)

    dataset = generate_listings(count=config.listing_count, seed=rng_data)
    featurizer = ListingFeaturizer(
        target_dimension=config.dimension, include_amenities=config.include_amenities
    )
    features = featurizer.fit_transform(dataset)
    log_prices = dataset.log_prices()

    train_x, test_x, train_y, test_y = train_test_split(
        features, log_prices, test_fraction=config.test_fraction, seed=rng_split
    )
    regression = LinearRegression(fit_intercept=False, ridge=1e-6).fit(train_x, train_y)
    test_mse = mean_squared_error(test_y, regression.predict(test_x))

    theta = regression.weight_vector(include_intercept=False)
    model = LogLinearModel(theta)

    rounds = features.shape[0]
    if config.reserve_log_ratio is None:
        reserves = np.full(rounds, np.nan)
    else:
        reserves = np.exp(config.reserve_log_ratio * row_dots(features, theta))

    feature_norms = np.linalg.norm(features, axis=1)
    radius = 1.25 * max(float(np.linalg.norm(theta)), 1e-6)

    initial_ellipsoid = None
    if config.warm_start_count > 0:
        initial_ellipsoid = _warm_start_ellipsoid(
            featurizer, theta, config, rng_history
        )

    return AppEnvironment(
        model=model,
        batch=ArrivalBatch(features=features, reserve_values=reserves, noise=np.zeros(rounds)),
        dimension=config.dimension,
        radius=radius,
        epsilon=config.resolved_epsilon(),
        delta=config.delta,
        feature_norm_bound=float(np.max(feature_norms)),
        name="accommodation rental (log-linear model)",
        metadata={
            "test_mse": test_mse,
            "reserve_log_ratio": config.reserve_log_ratio,
            "theta_norm": float(np.linalg.norm(theta)),
            "warm_start_count": config.warm_start_count,
        },
        initial_ellipsoid=initial_ellipsoid,
    )


def _warm_start_ellipsoid(featurizer, theta_true, config, rng) -> Ellipsoid:
    """Warm-start knowledge ellipsoid fitted on historical transactions.

    The broker observes ``warm_start_count`` historical listings with their
    (noisy) sold prices, fits the same log-linear regression it will be priced
    against, and takes as its initial knowledge set an ellipsoid centered at
    that fit whose shape follows the fit's coefficient covariance.  The
    ellipsoid is inflated until it contains the true weight vector — the
    analogue of the paper's assumption that a valid bound ``R ≥ ‖θ*‖`` is
    known a priori.
    """
    history = generate_listings(count=config.warm_start_count, seed=rng)
    history_x = featurizer.transform(history)
    history_y = history.log_prices()
    fit = LinearRegression(fit_intercept=False, ridge=1e-3).fit(history_x, history_y)
    center = fit.weight_vector(include_intercept=False)

    residuals = history_y - fit.predict(history_x)
    sigma2 = float(np.mean(residuals**2))
    gram = history_x.T @ history_x + 1e-3 * np.eye(history_x.shape[1])
    covariance = sigma2 * np.linalg.inv(gram)
    covariance = 0.5 * (covariance + covariance.T)

    shape = (config.warm_start_inflation**2) * covariance
    shape += 1e-9 * np.trace(shape) / shape.shape[0] * np.eye(shape.shape[0])
    ellipsoid = Ellipsoid(center, shape)
    # Guarantee feasibility: inflate until the true weight vector is inside.
    while not ellipsoid.contains(theta_true):
        shape = shape * 4.0
        ellipsoid = Ellipsoid(center, shape)
    return ellipsoid


def run_accommodation_experiment(
    config: AccommodationConfig,
    versions: Sequence[str] = ("pure version", "with reserve price"),
    include_risk_averse: bool = False,
    track_latency: bool = False,
) -> Dict[str, SimulationResult]:
    """Build the environment and simulate the requested algorithm versions."""
    environment = build_accommodation_environment(config)
    return run_versions(
        environment,
        versions=versions,
        include_risk_averse=include_risk_averse,
        track_latency=track_latency,
    )
