"""Unit tests for the one-dimensional posted price mechanism (Theorem 3 setting)."""

import numpy as np
import pytest

from repro.core.models import LinearModel
from repro.core.one_dim import OneDimensionalPricer
from repro.engine import ArrivalBatch, simulate, simulate_reference


class TestConstruction:
    def test_rejects_negative_epsilon(self):
        with pytest.raises(ValueError):
            OneDimensionalPricer(0.0, 1.0, epsilon=0.0)

    def test_rejects_negative_delta(self):
        with pytest.raises(ValueError):
            OneDimensionalPricer(0.0, 1.0, epsilon=0.1, delta=-0.1)

    def test_version_names(self):
        assert OneDimensionalPricer(0, 1, 0.1).name == "with reserve price"
        assert OneDimensionalPricer(0, 1, 0.1, use_reserve=False).name == "pure version"
        assert OneDimensionalPricer(0, 1, 0.1, delta=0.1).name == "with reserve price and uncertainty"
        assert (
            OneDimensionalPricer(0, 1, 0.1, delta=0.1, use_reserve=False).name
            == "with uncertainty"
        )


class TestPaperOneDimensionalScenario:
    """The n = 1 setting of Section V-A: x = 1, reserve 1, market value √2."""

    def test_first_round_posts_reserve_like_midpoint(self):
        pricer = OneDimensionalPricer(0.0, 2.0, epsilon=0.01)
        decision = pricer.propose(1.0, reserve=1.0)
        # Midpoint of [0, 2] equals the reserve price 1; both give price 1.
        assert decision.exploratory
        assert decision.price == pytest.approx(1.0)

    def test_reserve_has_no_effect_after_first_acceptance(self):
        """After the first accepted cut the interval is [1, 2]; the reserve 1 never binds again."""
        with_reserve = OneDimensionalPricer(0.0, 2.0, epsilon=0.01, use_reserve=True)
        without_reserve = OneDimensionalPricer(0.0, 2.0, epsilon=0.01, use_reserve=False)
        market_value = float(np.sqrt(2.0))
        for _ in range(30):
            prices = []
            for pricer in (with_reserve, without_reserve):
                decision = pricer.propose(1.0, reserve=1.0)
                sold = decision.price is not None and decision.price <= market_value
                pricer.update(decision, accepted=sold)
                prices.append(decision.price)
            assert prices[0] == prices[1]

    def test_bisection_converges_to_market_value(self):
        pricer = OneDimensionalPricer(0.0, 2.0, epsilon=1e-4, use_reserve=False)
        market_value = float(np.sqrt(2.0))
        for _ in range(40):
            decision = pricer.propose(1.0)
            sold = decision.price <= market_value
            pricer.update(decision, accepted=sold)
        lower, upper = pricer.value_bounds(1.0)
        assert lower <= market_value <= upper
        assert upper - lower < 0.01


class TestBehaviour:
    def test_skip_when_reserve_above_upper(self):
        pricer = OneDimensionalPricer(0.0, 2.0, epsilon=0.01)
        decision = pricer.propose(1.0, reserve=3.0)
        assert decision.skipped
        assert pricer.skipped_rounds == 1

    def test_conservative_price_when_interval_small(self):
        pricer = OneDimensionalPricer(0.9, 1.0, epsilon=0.5)
        decision = pricer.propose(1.0, reserve=0.0)
        assert not decision.exploratory
        assert decision.price == pytest.approx(0.9)

    def test_conservative_price_with_buffer(self):
        pricer = OneDimensionalPricer(0.9, 1.0, epsilon=0.5, delta=0.05, use_reserve=False)
        decision = pricer.propose(1.0)
        assert decision.price == pytest.approx(0.85)

    def test_negative_feature_direction(self):
        pricer = OneDimensionalPricer(-2.0, 2.0, epsilon=0.01, use_reserve=False)
        decision = pricer.propose(-1.0)
        assert decision.lower_bound == pytest.approx(-2.0)
        assert decision.upper_bound == pytest.approx(2.0)
        pricer.update(decision, accepted=True)
        # Acceptance of price 0 for feature -1 means -θ >= 0, i.e. θ <= 0.
        assert pricer.knowledge.upper <= 1e-9

    def test_zero_feature_never_cuts(self):
        pricer = OneDimensionalPricer(0.0, 2.0, epsilon=0.01, use_reserve=False)
        decision = pricer.propose(0.0)
        pricer.update(decision, accepted=True)
        assert pricer.cuts_applied == 0

    def test_conservative_cut_ablation_switch(self):
        pricer = OneDimensionalPricer(
            0.0, 2.0, epsilon=5.0, use_reserve=True, allow_conservative_cuts=True
        )
        decision = pricer.propose(1.0, reserve=1.5)
        assert not decision.exploratory
        pricer.update(decision, accepted=True)
        assert pricer.cuts_applied == 1

    def test_vector_feature_of_length_one_accepted(self):
        pricer = OneDimensionalPricer(0.0, 2.0, epsilon=0.01)
        decision = pricer.propose(np.array([1.0]), reserve=0.5)
        assert decision.posted

    def test_longer_feature_rejected(self):
        pricer = OneDimensionalPricer(0.0, 2.0, epsilon=0.01)
        with pytest.raises(ValueError):
            pricer.propose(np.array([1.0, 2.0]))

    def test_theorem3_regret_is_logarithmic(self):
        """Cumulative regret of the pure 1-D pricer grows ~log T, not linearly."""
        theta = 1.3
        pricer = OneDimensionalPricer(0.0, 2.0, epsilon=np.log(2000) ** 2 / 2000, use_reserve=False)
        cumulative = 0.0
        for _ in range(2000):
            decision = pricer.propose(1.0)
            value = theta
            sold = decision.price is not None and decision.price <= value
            pricer.update(decision, accepted=sold)
            cumulative += value - (decision.price if sold else 0.0)
        # The always-reject bound would be 2000 * 1.3 = 2600; the bisection
        # pricer must be orders of magnitude below that.
        assert cumulative < 30.0


@pytest.mark.parametrize("reserve", [np.inf, -np.inf], ids=["+inf", "-inf"])
def test_engine_raises_like_propose_on_an_infinite_reserve(reserve):
    """``run_batch`` hands an infinite reserve to the engine's loop, where
    ``propose`` rejects it, instead of pricing the round."""
    model = LinearModel(np.array([0.5]))
    batch = ArrivalBatch(
        np.array([[0.5], [0.7], [0.2], [0.9]]), np.array([0.1, reserve, 0.1, 0.1]), np.zeros(4)
    )
    with pytest.raises(ValueError) as block:
        simulate(model, OneDimensionalPricer(-1.0, 1.0, epsilon=0.01), arrivals=batch)
    with pytest.raises(ValueError) as reference:
        simulate_reference(model, OneDimensionalPricer(-1.0, 1.0, epsilon=0.01), batch.to_arrivals())
    assert str(block.value) == str(reference.value) == "reserve must be finite, got %r" % reserve
