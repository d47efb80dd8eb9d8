"""Application 3: pricing ad impressions under the logistic model.

Reproduces the setup of Section V-C:

* ad impressions (a synthetic stand-in for the Avazu click log) are encoded
  with the one-hot hashing trick, the modulus ``n`` being the feature
  dimension (128 or 1024 in the paper),
* the CTR weight vector ``θ*`` is learned with FTRL-Proximal logistic
  regression; L1 regularisation makes it sparse (the paper reports 21–23
  non-zero coordinates),
* the market value of an impression is its predicted CTR
  ``v_t = sigmoid(x_t^T θ*)``,
* the *sparse* case keeps all ``n`` hashed features; the *dense* case drops the
  coordinates whose learned weight is zero, so the pricer works in the much
  smaller support dimension,
* impressions carry no reserve price, so only the pure version (and the
  uncertainty variant) are meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.apps.common import AppEnvironment, run_versions
from repro.core.models import LogisticModel
from repro.core.pricing import PricerConfig
from repro.core.simulation import SimulationResult
from repro.datasets.ad_clicks import AdClickDataset, generate_ad_clicks
from repro.engine import ArrivalBatch
from repro.learning.ftrl import FTRLProximal
from repro.learning.hashing import HashingVectorizer
from repro.learning.metrics import log_loss
from repro.utils.rng import spawn_rngs


@dataclass(frozen=True)
class ImpressionConfig:
    """Configuration of the impression-pricing experiment.

    Attributes
    ----------
    impression_count:
        Number of impressions used for the online pricing phase ``T``.
    training_count:
        Number of (additional) impressions used to fit the CTR model.
    dimension:
        Hashing modulus ``n`` (128 or 1024 in the paper).
    dense:
        ``False`` keeps all hashed features (the sparse case);
        ``True`` restricts to the support of the learned weights (dense case).
    delta:
        Logit-space uncertainty buffer (the paper evaluates this application
        with the pure version only).
    epsilon:
        Optional explicit exploration threshold; defaults to ``n²/T`` computed
        in the pricing dimension (support size in the dense case), capped at
        ``epsilon_cap`` — the threshold lives in logit space, where values
        beyond ~1 would make the conservative price lose a constant fraction
        of the CTR-valued market value every round (Theorem 2's Lipschitz
        factor).
    epsilon_cap:
        Upper bound applied to the default ε.
    l1:
        L1 regularisation strength of the FTRL fit (drives the sparsity of the
        learned weight vector).
    seed:
        Master random seed.
    """

    impression_count: int = 20_000
    training_count: int = 20_000
    dimension: int = 128
    dense: bool = False
    delta: float = 0.0
    epsilon: Optional[float] = None
    epsilon_cap: float = 0.1
    l1: float = 12.0
    seed: int = 0


def build_impression_environment(config: ImpressionConfig) -> AppEnvironment:
    """Materialise the impression-pricing environment."""
    if config.impression_count < 1 or config.training_count < 1:
        raise ValueError("impression_count and training_count must be positive")
    rng_train, rng_online = spawn_rngs(config.seed, 2)

    vectorizer = HashingVectorizer(dimension=config.dimension, binary=True)

    # Offline CTR fit on a separate training log (the paper trains on the first
    # eight days and evaluates on the last two).
    training_log = generate_ad_clicks(count=config.training_count, seed=rng_train)
    train_matrix = vectorizer.transform([imp.tokens() for imp in training_log])
    train_labels = training_log.labels()
    split = max(1, int(0.8 * len(training_log)))
    ftrl = FTRLProximal(dimension=config.dimension, l1=config.l1)
    ftrl.fit(train_matrix[:split], train_labels[:split])
    holdout_loss = log_loss(train_labels[split:], ftrl.predict_proba_batch(train_matrix[split:]))
    theta_full = ftrl.weights

    # Online phase: a fresh impression stream priced by predicted CTR.
    online_log = generate_ad_clicks(count=config.impression_count, seed=rng_online)
    online_matrix = vectorizer.transform([imp.tokens() for imp in online_log])

    support = np.nonzero(theta_full)[0]
    dense_fallback = False
    if config.dense and support.size >= 2:
        theta = theta_full[support]
        online_matrix = online_matrix[:, support]
        pricing_dimension = int(support.size)
    else:
        # The dense case needs a non-trivial support; with a very small
        # training log the L1 penalty can zero out every weight, in which
        # case we fall back to the sparse (full-dimension) setup.
        dense_fallback = config.dense
        theta = theta_full
        pricing_dimension = config.dimension

    model = LogisticModel(theta)

    if config.epsilon is not None:
        epsilon = config.epsilon
    else:
        epsilon = min(
            PricerConfig.theoretical_epsilon(
                max(pricing_dimension, 2), config.impression_count, delta=config.delta
            ),
            config.epsilon_cap,
        )
    feature_norms = np.linalg.norm(online_matrix, axis=1)
    radius = 1.25 * max(float(np.linalg.norm(theta)), 1.0)

    return AppEnvironment(
        model=model,
        # C order: the dense case's column selection returns a strided
        # matrix, and the engine's per-row dot products round by stride.
        batch=ArrivalBatch(
            features=np.ascontiguousarray(online_matrix),
            reserve_values=np.full(config.impression_count, np.nan),
            noise=np.zeros(config.impression_count),
        ),
        dimension=pricing_dimension,
        radius=radius,
        epsilon=epsilon,
        delta=config.delta,
        feature_norm_bound=float(np.max(feature_norms)) if feature_norms.size else 0.0,
        name="impression (logistic model, %s case)" % ("dense" if config.dense else "sparse"),
        metadata={
            "holdout_log_loss": holdout_loss,
            "nonzero_weights": int(support.size),
            "hashing_dimension": config.dimension,
            "empirical_ctr": online_log.click_rate(),
            "dense_fallback": dense_fallback,
        },
    )


def run_impression_experiment(
    config: ImpressionConfig,
    versions: Sequence[str] = ("pure version",),
    track_latency: bool = False,
) -> Dict[str, SimulationResult]:
    """Build the environment and simulate the requested algorithm versions."""
    environment = build_impression_environment(config)
    return run_versions(environment, versions=versions, track_latency=track_latency)
