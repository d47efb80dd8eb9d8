"""Every name the benchmark takes from the program, in one place.

Only package exports are used, so deleting or moving an internal module
does not break the benchmark; README.md lists these names as the surface
that must stay importable.
"""

from repro.apps.common import ALGORITHM_VERSIONS, build_pricer_for_version
from repro.apps.noisy_linear_query import (
    NoisyLinearQueryConfig,
    build_noisy_query_environment,
)
from repro.engine import Transcript, prepare, simulate, simulate_reference, stream_rounds
from repro.serving import (
    AsyncQuoteClient,
    FeedbackEvent,
    PricerRegistry,
    QuoteRequest,
    QuoteService,
    SessionKey,
    WIRE_V2,
    frame_sold_at,
    start_frontend_thread,
)

__all__ = [
    "ALGORITHM_VERSIONS",
    "AsyncQuoteClient",
    "FeedbackEvent",
    "NoisyLinearQueryConfig",
    "PricerRegistry",
    "QuoteRequest",
    "QuoteService",
    "SessionKey",
    "Transcript",
    "WIRE_V2",
    "build_noisy_query_environment",
    "build_pricer_for_version",
    "frame_sold_at",
    "prepare",
    "simulate",
    "simulate_reference",
    "start_frontend_thread",
    "stream_rounds",
]
