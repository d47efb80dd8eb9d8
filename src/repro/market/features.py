"""Feature construction from privacy compensation profiles (Section II-B).

The paper represents a query by the state of the privacy compensations it
induces across the data owners: the compensations are sorted, evenly divided
into ``n`` partitions, and the per-partition sums form the ``n``-dimensional
feature vector.  Two extreme cases follow naturally: ``n = 1`` recovers the
total privacy compensation and ``n = owner count`` keeps every individual
compensation as its own feature.  The feature vector is optionally rescaled to
unit L2 norm, which the paper's evaluation does (``S = 1``).

A PCA-based reduction is also available (see :mod:`repro.learning.pca`) for
scenarios where the aggregation pattern is not appropriate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from repro.exceptions import DimensionMismatchError
from repro.utils.linalg import row_dots
from repro.utils.validation import ensure_finite_array


@dataclass(frozen=True)
class FeatureExtraction:
    """Result of a feature extraction, for one query or a block of queries.

    Attributes
    ----------
    features:
        The (possibly normalised) feature vector handed to the pricer, or a
        ``(rounds, dimension)`` matrix for a block.
    total_compensation:
        The sum of all per-owner compensations — the query's reserve price
        before any normalisation (one entry per row for a block).
    scale:
        The factor by which the raw aggregated features were divided during
        normalisation (1.0 when normalisation is disabled; one entry per row
        for a block).
    """

    features: np.ndarray
    total_compensation: Union[float, np.ndarray]
    scale: Union[float, np.ndarray]

    @property
    def normalised_total(self) -> Union[float, np.ndarray]:
        """Total compensation measured in the same scale as ``features``."""
        totals = np.sum(self.features, axis=-1)
        return float(totals) if totals.ndim == 0 else totals


class CompensationFeatureExtractor:
    """Sorted-partition aggregation of a compensation profile into ``n`` features.

    Parameters
    ----------
    dimension:
        Number of features ``n`` (partitions of the sorted compensation
        profile).
    normalise:
        When true (default, matching the paper's setup) the aggregated vector
        is rescaled to unit L2 norm.
    descending:
        Sort compensations in descending order before partitioning (the
        ordering only permutes features; descending keeps the largest
        compensations in the first feature, which is convenient to interpret).
    """

    def __init__(self, dimension: int, normalise: bool = True, descending: bool = True) -> None:
        if dimension < 1:
            raise ValueError("dimension must be at least 1, got %d" % dimension)
        self.dimension = int(dimension)
        self.normalise = bool(normalise)
        self.descending = bool(descending)

    def extract(self, compensations: Sequence[float]) -> FeatureExtraction:
        """Build the features of one compensation profile, or of a
        ``(rounds, owners)`` block of profiles (one query per row).

        One profile is computed as a one-row block, so a row of a block
        extraction equals the extraction of that row alone, bit for bit.
        """
        compensations = ensure_finite_array(compensations, name="compensations")
        if compensations.ndim not in (1, 2):
            raise DimensionMismatchError(
                "compensations must be a vector or a (rounds, owners) block, got shape %s"
                % (compensations.shape,)
            )
        if np.any(compensations < 0):
            raise ValueError("compensations must be non-negative")
        block = compensations.reshape(-1, compensations.shape[-1])
        totals = np.sum(block, axis=1)

        features = self.aggregate(block)
        scales = np.ones(block.shape[0])
        if self.normalise:
            # Factor out the peak before taking the norm: squaring the raw
            # entries under/overflows for extreme magnitudes (a denormal
            # compensation used to produce a "unit" vector with L2 norm
            # measurably above 1).  All-zero rows stay as they are.
            peaks = np.max(features, axis=1)
            rows = peaks > 0.0
            scaled = features[rows] / peaks[rows, None]
            unit_norms = np.sqrt(row_dots(scaled, scaled))
            features[rows] = scaled / unit_norms[:, None]
            scales[rows] = peaks[rows] * unit_norms
        if compensations.ndim == 1:
            return FeatureExtraction(
                features=features[0], total_compensation=float(totals[0]), scale=float(scales[0])
            )
        return FeatureExtraction(features=features, total_compensation=totals, scale=scales)

    def aggregate(self, compensations: np.ndarray) -> np.ndarray:
        """Sort the compensations and sum them within ``dimension`` partitions
        (along the last axis, so a block aggregates row by row)."""
        ordered = np.sort(compensations, axis=-1)
        if self.descending:
            ordered = ordered[..., ::-1]
        owner_count = ordered.shape[-1]
        if self.dimension >= owner_count:
            # Fewer owners than features: pad with zeros (each owner its own feature).
            padded = np.zeros(ordered.shape[:-1] + (self.dimension,))
            padded[..., :owner_count] = ordered
            return padded
        boundaries = np.linspace(0, owner_count, self.dimension + 1).astype(int)
        return np.add.reduceat(ordered, boundaries[:-1], axis=-1)

    def reserve_price(
        self, extraction: FeatureExtraction, use_normalised_scale: bool = True
    ) -> Union[float, np.ndarray]:
        """The query's reserve price (one per row for a block).

        The paper sets the reserve price to the total privacy compensation
        expressed in the same (normalised) scale as the feature vector, i.e.
        ``q_t = Σ_i x_{t,i}``; with ``use_normalised_scale=False`` the raw
        (unnormalised) total compensation is returned instead.
        """
        if use_normalised_scale:
            return extraction.normalised_total
        return extraction.total_compensation
