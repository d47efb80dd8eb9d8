"""Differential-privacy based quantification of per-owner privacy leakage.

The paper adopts the leakage quantification of Li et al.'s framework for
pricing private data: when a linear query with per-owner weights ``w`` is
answered with Laplace noise of scale ``b``, owner ``i`` suffers a differential
privacy leakage proportional to ``|w_i| / b`` — her record influences the
answer by at most ``|w_i| · Δ_i`` (where ``Δ_i`` bounds her record's range) and
the Laplace mechanism with scale ``b`` makes the answer ``(|w_i| Δ_i / b)``-
differentially private with respect to her data.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from repro.exceptions import DimensionMismatchError
from repro.market.queries import NoisyLinearQuery, QueryBlock
from repro.utils.validation import ensure_finite_array, ensure_positive, ensure_vector


def laplace_privacy_leakage(
    weights: Sequence[float],
    noise_scale: Union[float, np.ndarray],
    data_ranges: Optional[Sequence[float]] = None,
) -> np.ndarray:
    """Per-owner differential privacy leakage of noisy linear queries.

    Parameters
    ----------
    weights:
        Per-owner analysis weights ``w``: a vector for one query, or a
        ``(rounds, owners)`` block with one query per row.
    noise_scale:
        Laplace noise scale ``b`` of the returned answer: a scalar for one
        query, one entry per row for a block.
    data_ranges:
        Optional per-owner data ranges ``Δ_i`` (defaults to 1 for every owner).

    Returns
    -------
    numpy.ndarray
        The leakages ``ε_i = |w_i| · Δ_i / b``, shaped like ``weights``.
    """
    weights = ensure_finite_array(weights, name="weights")
    scales = ensure_finite_array(noise_scale, name="noise_scale")
    if weights.ndim not in (1, 2) or scales.shape != weights.shape[:-1]:
        raise DimensionMismatchError(
            "expected weights of one query or a (rounds, owners) block, with one "
            "noise scale per query; got shapes %s and %s" % (weights.shape, scales.shape)
        )
    if np.any(scales <= 0):
        raise ValueError("noise_scale must be strictly positive")
    if data_ranges is None:
        ranges = np.ones(weights.shape[-1])
    else:
        ranges = ensure_vector(data_ranges, dimension=weights.shape[-1], name="data_ranges")
        if np.any(ranges < 0):
            raise ValueError("data ranges must be non-negative")
    return np.abs(weights) * ranges / scales[..., None]


class LeakageQuantifier:
    """Quantifies privacy leakage for queries over a fixed owner population.

    Parameters
    ----------
    data_ranges:
        Per-owner data ranges ``Δ_i``; defaults to 1.
    leakage_cap:
        Optional cap on the per-owner leakage.  Real systems clamp extreme
        leakages (a nearly noiseless query would otherwise produce unbounded
        epsilon values); the cap keeps compensations — and hence reserve
        prices — finite and comparable across queries.
    """

    def __init__(
        self,
        data_ranges: Optional[Sequence[float]] = None,
        leakage_cap: Optional[float] = 10.0,
    ) -> None:
        self.data_ranges = None if data_ranges is None else ensure_vector(data_ranges, name="data_ranges")
        if leakage_cap is not None:
            ensure_positive(leakage_cap, name="leakage_cap")
        self.leakage_cap = leakage_cap

    def leakages(self, query: Union[NoisyLinearQuery, QueryBlock]) -> np.ndarray:
        """Per-owner leakages of ``query``: a vector for one query, a
        ``(rounds, owners)`` matrix for a :class:`QueryBlock`."""
        ranges = self.data_ranges
        owner_count = query.weights.shape[-1]
        if ranges is not None and ranges.shape[0] != owner_count:
            raise ValueError(
                "data_ranges has %d entries but the query touches %d owners"
                % (ranges.shape[0], owner_count)
            )
        leakages = laplace_privacy_leakage(query.weights, query.noise_scale, ranges)
        if self.leakage_cap is not None:
            leakages = np.minimum(leakages, self.leakage_cap)
        return leakages
