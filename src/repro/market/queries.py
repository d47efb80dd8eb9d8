"""Noisy linear queries over the owners' data.

A query in the paper comprises a concrete data analysis method and a tolerable
noise level (Section II-A).  For the noisy-linear-query application the
analysis is a weighted sum of the owners' records and the noise is Laplace
noise calibrated to the consumer's accuracy requirement — exactly the query
class of Li et al.'s pricing framework, which the paper adopts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

import numpy as np

from repro.exceptions import DatasetError
from repro.utils.rng import RngLike, as_rng
from repro.utils.validation import ensure_positive, ensure_vector


@dataclass(frozen=True)
class NoisyLinearQuery:
    """A noisy linear query ``answer = w^T d + Laplace(noise_scale)``.

    Attributes
    ----------
    weights:
        Per-owner analysis weights ``w`` (the "data analysis method").
    noise_scale:
        Scale parameter of the Laplace noise added to the true answer (the
        "tolerable level of noise" customised by the consumer).
    query_id:
        Sequential identifier.
    """

    weights: np.ndarray
    noise_scale: float
    query_id: int = 0

    def __post_init__(self) -> None:
        weights = ensure_vector(self.weights, name="weights")
        object.__setattr__(self, "weights", weights)
        ensure_positive(self.noise_scale, name="noise_scale")

    @property
    def owner_count(self) -> int:
        """Number of owners the query touches."""
        return self.weights.shape[0]

    def true_answer(self, data: Sequence[float]) -> float:
        """The noiseless answer ``w^T d`` over the owners' records."""
        data = ensure_vector(data, dimension=self.owner_count, name="data")
        return float(self.weights @ data)

    def noisy_answer(self, data: Sequence[float], rng: RngLike = None) -> float:
        """The perturbed answer actually returned to the data consumer."""
        rng = as_rng(rng)
        return self.true_answer(data) + float(rng.laplace(0.0, self.noise_scale))


@dataclass(frozen=True)
class QueryBlock:
    """Consecutive noisy linear queries as columns.

    Attributes
    ----------
    weights:
        Per-owner analysis weights, shape ``(rounds, owners)``; row ``i`` is
        query ``first_id + i``.
    noise_scale:
        Laplace noise scale of each query, shape ``(rounds,)``.
    first_id:
        Identifier of the first query in the block.
    """

    weights: np.ndarray
    noise_scale: np.ndarray
    first_id: int = 0

    def query(self, index: int) -> NoisyLinearQuery:
        """Row ``index`` as a :class:`NoisyLinearQuery`."""
        return NoisyLinearQuery(
            weights=self.weights[index],
            noise_scale=float(self.noise_scale[index]),
            query_id=self.first_id + index,
        )


class QueryGenerator:
    """Generates random customised queries the way the paper's evaluation does.

    The per-owner weights are drawn either from a standard multivariate normal
    distribution or uniformly from ``[-1, 1]`` (chosen at random per query, to
    exercise adaptivity), and the Laplace noise scale is drawn from
    ``{10^k : |k| <= max_noise_exponent}`` — the paper's
    ``{10^k | k ∈ Z, |k| <= 4}`` grid.

    Parameters
    ----------
    owner_count:
        Number of data owners each query addresses.
    max_noise_exponent:
        Largest absolute exponent of the noise-scale grid.
    weight_styles:
        Subset of ``{"normal", "uniform"}`` to draw the analysis weights from.
    seed:
        Random source.
    """

    def __init__(
        self,
        owner_count: int,
        max_noise_exponent: int = 4,
        weight_styles: Sequence[str] = ("normal", "uniform"),
        seed: RngLike = None,
    ) -> None:
        if owner_count < 1:
            raise DatasetError("owner_count must be positive, got %d" % owner_count)
        if max_noise_exponent < 0:
            raise DatasetError("max_noise_exponent must be non-negative")
        for style in weight_styles:
            if style not in ("normal", "uniform"):
                raise DatasetError("unknown weight style %r" % style)
        if not weight_styles:
            raise DatasetError("weight_styles must not be empty")
        self.owner_count = int(owner_count)
        self.max_noise_exponent = int(max_noise_exponent)
        self.weight_styles = tuple(weight_styles)
        self.rng = as_rng(seed)
        self._next_id = 0

    def generate(self) -> NoisyLinearQuery:
        """Draw one random query (the one-row case of :meth:`generate_block`)."""
        return self.generate_block(1).query(0)

    def generate_block(self, rounds: int) -> QueryBlock:
        """Draw the next ``rounds`` queries as one :class:`QueryBlock`.

        Each round makes the same three draws :meth:`generate` always made,
        in the same order (weight style, weights, noise exponent), so a block
        of ``k`` rounds consumes the random stream exactly like ``k`` calls
        of :meth:`generate`.
        """
        if rounds < 0:
            raise DatasetError("rounds must be non-negative, got %d" % rounds)
        rng, styles, bound = self.rng, self.weight_styles, self.max_noise_exponent
        weights = np.empty((rounds, self.owner_count))
        exponents = np.empty(rounds, dtype=np.int64)
        for index in range(rounds):
            if styles[int(rng.integers(0, len(styles)))] == "normal":
                rng.standard_normal(out=weights[index])
            else:
                weights[index] = rng.uniform(-1.0, 1.0, size=self.owner_count)
            exponents[index] = rng.integers(-bound, bound + 1)
        # The grid entries are Python ``10.0**k`` floats, the values a single
        # query always carried.
        grid = np.array([10.0**k for k in range(-bound, bound + 1)])
        block = QueryBlock(
            weights=weights, noise_scale=grid[exponents + bound], first_id=self._next_id
        )
        self._next_id += rounds
        return block

    def stream(self, count: int) -> Iterator[NoisyLinearQuery]:
        """Yield ``count`` random queries."""
        if count < 0:
            raise DatasetError("count must be non-negative, got %d" % count)
        for _ in range(count):
            yield self.generate()
