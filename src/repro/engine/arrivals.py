"""Struct-of-arrays arrival container and its model-space materialisation.

The legacy simulator consumed one :class:`~repro.engine.records.QueryArrival`
object per round; at production horizons the per-object allocation and the
re-application of the feature map for every pricer dominated the wall-clock.
:class:`ArrivalBatch` stores a whole horizon as contiguous NumPy columns and
:func:`materialize` applies the market value model once, so any number of
pricers (the four algorithm versions, the baselines, every cell of a run
matrix) replay the identical market from shared arrays.

Exactness contract: every per-round model quantity (feature map, link value,
market value, link-space reserve) rounds exactly like the scalar call the
sequential reference loop makes for that round.  This is what makes the
batched engine transcript bit-identical to the legacy loop:

* link values are :func:`~repro.utils.linalg.row_dots` over C-ordered mapped
  features — one BLAS dot per contiguous row, as in the loop; a gemv over the
  block, or strided rows, round differently;
* market values go through ``model.link_batch``, which applies the scalar
  ``link`` per element (identity links copy);
* link-space reserves are copied for identity links and translated with the
  scalar ``link_inverse`` per present reserve otherwise.

Vectorised ``exp``/``log`` kernels are not guaranteed to round like
``math.exp``/``math.log``, so no link function is vectorised here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.engine.records import QueryArrival
from repro.utils.linalg import row_dots
from repro.utils.rng import RngLike, as_rng


@dataclass
class ArrivalBatch:
    """A full horizon of query arrivals as struct-of-arrays columns.

    Attributes
    ----------
    features:
        Raw feature matrix, shape ``(rounds, raw_dimension)``.
    reserve_values:
        Real-space reserve prices, shape ``(rounds,)``; ``NaN`` encodes "no
        reserve price this round" (the ``reserve_value=None`` arrivals).
    noise:
        Pre-drawn link-space noise δ_t, shape ``(rounds,)``; ``NaN`` encodes
        "not drawn yet" (resolved by :meth:`with_noise` before simulation).
    metadata:
        Optional per-round metadata dictionaries (``None`` when no arrival
        carried metadata, so the common case stays allocation-free).
    """

    features: np.ndarray
    reserve_values: np.ndarray
    noise: np.ndarray
    metadata: Optional[List[dict]] = None

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=float)
        self.reserve_values = np.asarray(self.reserve_values, dtype=float)
        self.noise = np.asarray(self.noise, dtype=float)
        if self.features.ndim != 2:
            raise ValueError(
                "features must be a (rounds, dimension) matrix, got shape %s"
                % (self.features.shape,)
            )
        rounds = self.features.shape[0]
        for name, column in (("reserve_values", self.reserve_values), ("noise", self.noise)):
            if column.shape != (rounds,):
                raise ValueError(
                    "%s must have shape (%d,), got %s" % (name, rounds, column.shape)
                )
        if self.metadata is not None and len(self.metadata) != rounds:
            raise ValueError(
                "metadata must have one entry per round (%d), got %d"
                % (rounds, len(self.metadata))
            )

    # ------------------------------------------------------------------ #
    # Construction / round-tripping
    # ------------------------------------------------------------------ #

    @classmethod
    def from_arrivals(cls, arrivals: Iterable[QueryArrival]) -> "ArrivalBatch":
        """Stack an arrival sequence into contiguous columns.

        ``None`` reserve prices and noise values are encoded as ``NaN``;
        metadata dictionaries are preserved verbatim so the batch round-trips
        through :meth:`to_arrivals` without information loss.
        """
        materialised = list(arrivals)
        if not materialised:
            return cls(
                features=np.empty((0, 0)),
                reserve_values=np.empty(0),
                noise=np.empty(0),
            )
        rows = [np.atleast_1d(np.asarray(a.features, dtype=float)) for a in materialised]
        dimension = rows[0].shape[0]
        for index, row in enumerate(rows):
            if row.ndim != 1 or row.shape[0] != dimension:
                raise ValueError(
                    "arrival %d has feature shape %s, expected (%d,)"
                    % (index, row.shape, dimension)
                )
        features = np.vstack(rows)
        reserve_values = np.array(
            [np.nan if a.reserve_value is None else float(a.reserve_value) for a in materialised]
        )
        noise = np.array(
            [np.nan if a.noise is None else float(a.noise) for a in materialised]
        )
        metadata: Optional[List[dict]] = None
        if any(a.metadata for a in materialised):
            metadata = [dict(a.metadata) for a in materialised]
        return cls(
            features=features, reserve_values=reserve_values, noise=noise, metadata=metadata
        )

    def to_arrivals(self) -> List[QueryArrival]:
        """Rebuild the object-level arrival sequence (lossless round-trip)."""
        arrivals: List[QueryArrival] = []
        for index in range(len(self)):
            arrivals.append(self.row(index))
        return arrivals

    def row(self, index: int) -> QueryArrival:
        """The object-level view of one arrival."""
        reserve = self.reserve_values[index]
        noise = self.noise[index]
        return QueryArrival(
            features=self.features[index].copy(),
            reserve_value=None if np.isnan(reserve) else float(reserve),
            noise=None if np.isnan(noise) else float(noise),
            metadata=dict(self.metadata[index]) if self.metadata is not None else {},
        )

    # ------------------------------------------------------------------ #
    # Properties
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def rounds(self) -> int:
        """Number of arrivals in the batch."""
        return len(self)

    @property
    def raw_dimension(self) -> int:
        """Dimension of the raw (pre-feature-map) feature vectors."""
        return self.features.shape[1]

    @property
    def has_missing_noise(self) -> bool:
        """Whether any round still needs its noise drawn."""
        return bool(np.any(np.isnan(self.noise)))

    def slice(self, start: int, stop: int) -> "ArrivalBatch":
        """The sub-horizon ``[start, stop)`` as a zero-copy column view.

        Used by the chunked runner: slicing shares the underlying arrays, so
        sharding a horizon never duplicates the market.
        """
        start, stop = _check_slice(start, stop, len(self))
        return ArrivalBatch(
            features=self.features[start:stop],
            reserve_values=self.reserve_values[start:stop],
            noise=self.noise[start:stop],
            metadata=self.metadata[start:stop] if self.metadata is not None else None,
        )

    # ------------------------------------------------------------------ #
    # Noise resolution
    # ------------------------------------------------------------------ #

    def with_noise(self, noise_model, rng: RngLike = None) -> "ArrivalBatch":
        """Pre-draw the missing noise values and return the completed batch.

        Rounds that already carry a pre-drawn δ_t keep it verbatim; only the
        ``NaN`` entries are sampled, in round order, with one scalar
        ``noise_model.sample(rng)`` call each — the exact draw sequence the
        sequential loop used.  Pre-drawing at materialisation time is what
        guarantees that every pricer replayed over this batch faces the *same*
        noise realization (the Fig. 4 same-market protocol).

        Returns ``self`` unchanged when nothing is missing.
        """
        if not self.has_missing_noise:
            return self
        generator = as_rng(rng)
        filled = self.noise.copy()
        for index in range(filled.shape[0]):
            if np.isnan(filled[index]):
                filled[index] = float(noise_model.sample(generator))
        return ArrivalBatch(
            features=self.features,
            reserve_values=self.reserve_values,
            noise=filled,
            metadata=self.metadata,
        )


@dataclass
class MaterializedArrivals:
    """An :class:`ArrivalBatch` with the market value model applied.

    All columns are computed once per (model, batch) pair and shared by every
    pricer simulated over the batch.

    Attributes
    ----------
    batch:
        The underlying arrival batch (noise fully resolved).
    mapped_features:
        Link-space feature matrix ``φ(x_t)``, shape ``(rounds, dimension)``.
    link_values:
        Deterministic link-space values ``φ(x_t)^T θ*``.
    market_values:
        Realised real-space market values ``g(φ(x_t)^T θ* + δ_t)``.
    link_reserves:
        Reserve prices translated to link space (``NaN`` where absent).
    """

    batch: ArrivalBatch
    mapped_features: np.ndarray
    link_values: np.ndarray
    market_values: np.ndarray
    link_reserves: np.ndarray

    @property
    def rounds(self) -> int:
        """Number of materialised rounds."""
        return len(self.batch)

    @property
    def dimension(self) -> int:
        """Link-space feature dimension seen by the pricers."""
        return self.mapped_features.shape[1]

    def slice(self, start: int, stop: int) -> "MaterializedArrivals":
        """The sub-horizon ``[start, stop)`` as a zero-copy column view.

        The per-round quantities of round ``t`` are identical between the
        full and the sliced materialisation — they were computed once, up
        front — which is one half of the chunked-execution exactness
        argument (the other half is the pricer state snapshot).
        """
        start, stop = _check_slice(start, stop, self.rounds)
        return MaterializedArrivals(
            batch=self.batch.slice(start, stop),
            mapped_features=self.mapped_features[start:stop],
            link_values=self.link_values[start:stop],
            market_values=self.market_values[start:stop],
            link_reserves=self.link_reserves[start:stop],
        )


def _check_slice(start: int, stop: int, rounds: int):
    start, stop = int(start), int(stop)
    if not 0 <= start <= stop <= rounds:
        raise ValueError(
            "invalid slice [%d, %d) of a %d-round horizon" % (start, stop, rounds)
        )
    return start, stop


def materialize(model, batch: ArrivalBatch) -> MaterializedArrivals:
    """Apply the market value model to a whole batch of arrivals.

    The batch must have its noise resolved (see :meth:`ArrivalBatch.with_noise`);
    a batch with missing noise raises ``ValueError`` because the realised
    market values would silently become ``NaN``.
    """
    if batch.has_missing_noise:
        raise ValueError(
            "cannot materialize a batch with missing noise; call with_noise() first"
        )
    # C order: per-row products round by stride, here and in the pricers'
    # block paths, and the reference loop works on contiguous rows.
    mapped = np.ascontiguousarray(model.feature_map_batch(batch.features))
    rounds = len(batch)
    link_values = row_dots(mapped, model.theta) if rounds else np.empty(0)
    market_values = model.link_batch(link_values + batch.noise)
    reserve_values = batch.reserve_values
    if getattr(model, "link_is_identity", False):
        link_reserves = reserve_values.copy()
    else:
        link_reserves = np.full(rounds, np.nan)
        for index in np.flatnonzero(~np.isnan(reserve_values)):
            link_reserves[index] = model.link_inverse(reserve_values[index])
    return MaterializedArrivals(
        batch=batch,
        mapped_features=mapped,
        link_values=link_values,
        market_values=market_values,
        link_reserves=link_reserves,
    )


def as_batch(arrivals) -> ArrivalBatch:
    """Coerce an arrival sequence (or an existing batch) into an :class:`ArrivalBatch`."""
    if isinstance(arrivals, ArrivalBatch):
        return arrivals
    if isinstance(arrivals, Sequence):
        return ArrivalBatch.from_arrivals(arrivals)
    return ArrivalBatch.from_arrivals(list(arrivals))
