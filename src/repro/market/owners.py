"""Data owners and their personal data.

In the paper's system model (Fig. 2) the broker first collects personal data
— product ratings, electrical usages, health records, trajectories — from a
population of data owners.  For the noisy-linear-query application the data of
owner ``i`` is reduced to a numeric record ``d_i`` (e.g. the owner's rating of
a target movie), and a linear query aggregates the records with a weight
vector.

Each owner also holds a *compensation contract* describing how much money she
requires for a given amount of privacy leakage (see
:mod:`repro.market.compensation`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence

import numpy as np

from repro.exceptions import DatasetError
from repro.market.compensation import CompensationContract, TanhCompensation
from repro.utils.rng import RngLike, as_rng


@dataclass
class DataOwner:
    """One data owner: an identifier, a private record, and a contract.

    Attributes
    ----------
    owner_id:
        Stable identifier of the owner.
    data:
        The owner's private numeric record used by linear queries.
    contract:
        Maps the owner's privacy leakage under a query to the compensation she
        must be paid if the query's answer is sold.
    """

    owner_id: int
    data: float
    contract: CompensationContract

    def compensation_for(self, leakage: float) -> float:
        """Compensation owed to this owner for the given privacy leakage."""
        return self.contract.compensation(leakage)


class OwnerPopulation:
    """A collection of data owners with convenient vectorised access."""

    def __init__(self, owners: Sequence[DataOwner]) -> None:
        if not owners:
            raise DatasetError("an owner population must contain at least one owner")
        self.owners: List[DataOwner] = list(owners)

    def __len__(self) -> int:
        return len(self.owners)

    def __iter__(self) -> Iterator[DataOwner]:
        return iter(self.owners)

    def __getitem__(self, index: int) -> DataOwner:
        return self.owners[index]

    @property
    def data_vector(self) -> np.ndarray:
        """All owners' private records as a vector (one entry per owner)."""
        return np.array([owner.data for owner in self.owners], dtype=float)

    def compensations(self, leakages: Sequence[float]) -> np.ndarray:
        """Per-owner compensations for privacy leakages.

        ``leakages`` is one vector (one entry per owner) or a ``(rounds,
        owners)`` block with one query per row; the result has its shape.
        When every owner holds a :class:`TanhCompensation` contract the
        computation is vectorised (the common case in the noisy-linear-query
        application, where it sits on the market build's hot path).
        """
        leakages = np.asarray(leakages, dtype=float)
        if leakages.ndim not in (1, 2) or leakages.shape[-1] != len(self.owners):
            raise DatasetError(
                "expected one leakage per owner (%d), got shape %s"
                % (len(self.owners), leakages.shape)
            )
        if np.any(leakages < 0) or not np.all(np.isfinite(leakages)):
            raise DatasetError("privacy leakages must be finite and non-negative")
        vectorised = self._tanh_contract_arrays()
        if vectorised is not None:
            base_rates, sensitivities = vectorised
            return base_rates * np.tanh(sensitivities * leakages)
        return np.array(
            [
                [owner.compensation_for(float(leak)) for owner, leak in zip(self.owners, row)]
                for row in leakages.reshape(-1, len(self.owners))
            ],
            dtype=float,
        ).reshape(leakages.shape)

    def _tanh_contract_arrays(self):
        """Cached (base_rate, sensitivity) arrays when all contracts are tanh."""
        cached = getattr(self, "_tanh_arrays_cache", None)
        if cached is not None:
            return cached if cached != "unsupported" else None
        if all(isinstance(owner.contract, TanhCompensation) for owner in self.owners):
            base_rates = np.array([owner.contract.base_rate for owner in self.owners], dtype=float)
            sensitivities = np.array(
                [owner.contract.sensitivity for owner in self.owners], dtype=float
            )
            self._tanh_arrays_cache = (base_rates, sensitivities)
            return self._tanh_arrays_cache
        self._tanh_arrays_cache = "unsupported"
        return None

    @classmethod
    def from_records(
        cls,
        records: Sequence[float],
        contracts: Optional[Sequence[CompensationContract]] = None,
        base_rates: Optional[Sequence[float]] = None,
        seed: RngLike = None,
    ) -> "OwnerPopulation":
        """Build a population from raw records.

        Parameters
        ----------
        records:
            One private numeric record per owner.
        contracts:
            Optional explicit contracts; when omitted, tanh contracts with
            heterogeneous base rates are generated.
        base_rates:
            Optional per-owner base rates for the generated tanh contracts.
        seed:
            Random source for generated base rates.
        """
        records = np.asarray(records, dtype=float)
        if records.ndim != 1 or records.size == 0:
            raise DatasetError("records must be a non-empty 1-D sequence")
        count = records.shape[0]
        if contracts is None:
            if base_rates is None:
                rng = as_rng(seed)
                # Heterogeneous willingness to sell privacy: log-normal rates.
                base_rates = rng.lognormal(mean=0.0, sigma=0.5, size=count)
            base_rates = np.asarray(base_rates, dtype=float)
            if base_rates.shape != (count,):
                raise DatasetError("base_rates must have one entry per owner")
            contracts = [TanhCompensation(base_rate=float(rate)) for rate in base_rates]
        if len(contracts) != count:
            raise DatasetError("contracts must have one entry per owner")
        owners = [
            DataOwner(owner_id=i, data=float(records[i]), contract=contracts[i])
            for i in range(count)
        ]
        return cls(owners)
