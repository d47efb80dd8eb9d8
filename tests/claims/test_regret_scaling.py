"""The regret-scaling claims behind Theorems 1 and 3, and the ε ablation.

Each sweep runs the "with reserve price" version on fig4-shaped markets
(200 owners) through :mod:`repro.experiments.regret_scaling`.
"""

from repro.experiments.regret_scaling import (
    run_dimension_scaling,
    run_epsilon_ablation,
    run_horizon_scaling,
)


def test_regret_grows_sublinearly_in_the_horizon():
    """Theorems 1 and 3: doubling T multiplies the cumulative regret by less
    than 2 once past the exploration phase, so the regret ratio falls."""
    results = run_horizon_scaling(
        horizons=(1_000, 2_000, 4_000, 8_000), dimension=20, owner_count=200, seed=29
    )
    first, last = results[0], results[-1]
    growth = last.cumulative_regret / max(first.cumulative_regret, 1e-9)
    assert growth < last.rounds / first.rounds
    assert last.regret_ratio < first.regret_ratio


def test_regret_grows_with_the_dimension():
    """Theorem 1: the regret bound grows with the feature dimension n."""
    results = run_dimension_scaling(
        dimensions=(10, 20, 40), rounds=4_000, owner_count=200, seed=31
    )
    assert results[0].cumulative_regret < results[-1].cumulative_regret


def test_inflated_epsilon_does_not_beat_the_theoretical_setting():
    """ε × 16 stops exploring too early and pays the conservative-price gap
    for the rest of the horizon, so it cannot undercut the theoretical
    max(n²/T, 4nδ) setting by more than a fifth."""
    results = run_epsilon_ablation(
        epsilon_multipliers=(0.25, 1.0, 4.0, 16.0),
        dimension=20,
        rounds=4_000,
        owner_count=200,
        seed=37,
    )
    regret = {result.parameter_value: result.cumulative_regret for result in results}
    assert regret[16.0] > 0.8 * regret[1.0]
