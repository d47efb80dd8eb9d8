"""Wire-level records of the quote-serving subsystem.

A quote round-trip is three records:

1. :class:`QuoteRequest` — one arrival's link-space features and optional
   reserve, addressed to a pricing session via its :class:`SessionKey`;
2. :class:`QuoteResponse` — the posted price (link- and real-space) plus the
   decision flags the transcript records;
3. :class:`FeedbackEvent` — the consumer's accept/reject outcome, routed back
   to the same session by quote id.

All price quantities follow the engine's conventions: pricers reason in link
space, the response additionally carries the real posted price
``g(link_price)``, and ``None`` marks a skipped round (no price posted).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class SessionKey:
    """Identity of one pricing session: an application and a traffic segment.

    The paper's broker prices many concurrent query streams (one per data
    application / consumer segment); each stream is one session with its own
    pricer state.  ``(app, segment)`` is the registry key, and its slug
    names the session's record in the segment log.
    """

    app: str
    segment: str

    def slug(self) -> str:
        """A filesystem-safe name of the session's snapshot record.

        Derived once per instance and kept beside the fields, not among
        them, so equality, hashing, ``repr`` and pickles stay those of
        ``(app, segment)``.
        """
        slug = self.__dict__.get("_slug")
        if slug is None:
            import hashlib
            import re

            raw = "%s\x00%s" % (self.app, self.segment)
            digest = hashlib.sha1(raw.encode("utf-8")).hexdigest()[:10]
            safe = re.sub(r"[^A-Za-z0-9._=-]+", "-", "%s__%s" % (self.app, self.segment))
            slug = "%s-%s" % (safe[:60], digest)
            object.__setattr__(self, "_slug", slug)
        return slug

    def __getstate__(self) -> dict:
        return {"app": self.app, "segment": self.segment}

    def __str__(self) -> str:
        return "%s/%s" % (self.app, self.segment)


@dataclass
class QuoteRequest:
    """One arrival asking for a posted price.

    ``features`` are link-space (already through the application's feature
    map, exactly what :meth:`~repro.core.base.PostedPriceMechanism.propose`
    consumes); ``reserve`` is the link-space reserve or ``None``.  The
    ``quote_id`` and ``enqueued_at`` fields are filled on the *service's
    private copy* at submission (the caller's object is never mutated — the
    assigned id is the return value of ``submit``), so one request object can
    safely be resubmitted as a fresh quote.
    """

    key: SessionKey
    features: np.ndarray
    reserve: Optional[float] = None
    metadata: dict = field(default_factory=dict)
    quote_id: Optional[int] = None
    enqueued_at: float = 0.0


@dataclass
class QuoteResponse:
    """The service's answer to one :class:`QuoteRequest`.

    ``link_price`` / ``posted_price`` are ``None`` when the session's pricer
    skipped the round (certain no-deal under the reserve constraint).
    ``latency_seconds`` measures enqueue → response on the service clock, so
    it includes micro-batch queueing delay — the quantity the serving bench
    reports as p50/p99.
    """

    quote_id: int
    key: SessionKey
    link_price: Optional[float]
    posted_price: Optional[float]
    exploratory: bool
    skipped: bool
    round_index: int
    latency_seconds: float

    @property
    def posted(self) -> bool:
        """Whether a price was actually posted."""
        return not self.skipped and self.posted_price is not None

    def sold_at(self, market_value: float) -> bool:
        """Whether this quote sells against a realised market value.

        The one definition of the sale — the engine's scalar comparison
        ``posted_price <= market_value`` on a posted round — shared by the
        closed-loop drivers, the sharded replay, and the load generator (the
        bit-identical equivalence contract depends on every settle site
        agreeing).
        """
        return self.posted and self.posted_price <= market_value


@dataclass(frozen=True)
class FeedbackEvent:
    """Accept/reject outcome of one quote, routed back by quote id."""

    key: SessionKey
    quote_id: int
    accepted: bool
