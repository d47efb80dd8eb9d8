"""The two-tier exactness contract, centralised.

The repo pins correctness at two distinct strengths:

**Bit-exact tier** — the default. The reference per-round path (and every
dispatch that reduces to it: vectorised paths proven element-wise identical,
chunked resume, socket/shard serving) must reproduce the committed golden
transcripts *byte for byte*. ``backend=None`` / ``backend="reference"`` run in
this tier; nothing here may introduce a tolerance.

**Relaxed tier** — an ``rtol``-gated equivalence admitting the fast
``"batched"`` numpy backend, whose gemm/einsum contraction orders round
differently from the scalar reference.  Its one relaxed path is serving's
stacked cross-session feedback; the offline engine runs its bit-exact
paths under every backend name, which satisfies the relaxed tier a
fortiori.  The relaxed tier checks three
things: regret curves, final knowledge-set geometry, and transcript
aggregates (with an explicit — normally zero — decision-flip budget for the
boolean columns).

Every tolerance lives in this module. Tests and benches must not scatter
their own ``np.allclose`` calls for backend comparisons — a new backend is
admitted by passing :func:`assert_transcripts_close`,
:func:`assert_regret_curves_close` and :func:`assert_states_close` over all
eight golden families, while :func:`assert_bit_exact` continues to hold on
the default path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping, Optional

import numpy as np

#: Backend names running in the bit-exact tier (``None`` means "default").
EXACT_BACKENDS = (None, "reference")
#: Backend names admitted under the relaxed tier only.
RELAXED_BACKENDS = ("batched",)

BIT_EXACT_TIER = "bit-exact"
RELAXED_TIER = "relaxed"

#: Transcript columns compared element-wise as floats (``NaN`` = absent).
FLOAT_COLUMNS = (
    "link_values",
    "market_values",
    "reserve_values",
    "link_prices",
    "posted_prices",
    "regrets",
)
#: Transcript columns compared as decisions (subject to the flip budget).
BOOL_COLUMNS = ("sold", "skipped", "exploratory")


def tier_for_backend(backend: Optional[str]) -> str:
    """Which exactness tier a ``backend=`` knob value is held to."""
    if backend in EXACT_BACKENDS:
        return BIT_EXACT_TIER
    if backend in RELAXED_BACKENDS:
        return RELAXED_TIER
    raise ValueError(
        "unknown backend %r; expected one of %r"
        % (backend, tuple(EXACT_BACKENDS) + tuple(RELAXED_BACKENDS))
    )


@dataclass(frozen=True)
class TolerancePolicy:
    """One named tolerance of the relaxed tier.

    ``rtol``/``atol`` bound element-wise float disagreement (``NaN`` matches
    ``NaN`` — the transcript encodes "absent" as NaN).  ``flip_fraction``
    bounds the fraction of rounds whose boolean decisions (sold / skipped /
    exploratory) may differ; backends are expected to hit zero flips on the
    golden families, but the budget makes the allowance explicit rather than
    accidental.
    """

    name: str
    rtol: float
    atol: float
    flip_fraction: float = 0.0

    def max_flips(self, rounds: int) -> int:
        """Absolute decision-flip budget for a ``rounds``-long transcript."""
        if self.flip_fraction <= 0.0:
            return 0
        return int(math.ceil(self.flip_fraction * rounds))

    def isclose(self, actual, expected) -> bool:
        """Whether two float arrays agree under this policy (NaN == NaN)."""
        return bool(
            np.allclose(
                np.asarray(actual, dtype=float),
                np.asarray(expected, dtype=float),
                rtol=self.rtol,
                atol=self.atol,
                equal_nan=True,
            )
        )

    def assert_close(self, actual, expected, label: str) -> None:
        """Raise ``AssertionError`` with a worst-offender report on mismatch."""
        actual = np.asarray(actual, dtype=float)
        expected = np.asarray(expected, dtype=float)
        if actual.shape != expected.shape:
            raise AssertionError(
                "%s: shape mismatch %s vs %s under policy %s"
                % (label, actual.shape, expected.shape, self.name)
            )
        if self.isclose(actual, expected):
            return
        with np.errstate(invalid="ignore"):
            mismatch = ~np.isclose(
                actual, expected, rtol=self.rtol, atol=self.atol, equal_nan=True
            )
        gap = np.where(mismatch, np.abs(actual - expected), 0.0)
        gap = np.where(np.isnan(gap), np.inf, gap)
        worst = int(np.argmax(gap))
        index = np.unravel_index(worst, actual.shape)
        raise AssertionError(
            "%s: %d/%d elements outside policy %s (rtol=%g atol=%g); worst at "
            "%s: actual=%r expected=%r"
            % (
                label,
                int(np.count_nonzero(mismatch)),
                actual.size,
                self.name,
                self.rtol,
                self.atol,
                tuple(int(i) for i in index),
                float(actual[index]),
                float(expected[index]),
            )
        )


# --------------------------------------------------------------------------- #
# The relaxed tier's named tolerances
# --------------------------------------------------------------------------- #

#: Cumulative regret curves (Fig. 4/5).  Cumulative sums average out per-round
#: rounding, so the bound is tight.
REGRET_CURVES = TolerancePolicy(name="regret-curves", rtol=1e-7, atol=1e-9)

#: Final knowledge-set geometry (ellipsoid centers/shape matrices, interval
#: bounds).  Hundreds of sequential rank-one updates compound contraction-order
#: rounding, so the bound is looser than the curve bound.
KNOWLEDGE_GEOMETRY = TolerancePolicy(name="knowledge-geometry", rtol=1e-6, atol=1e-9)

#: Element-wise transcript columns (prices, per-round regret) plus the boolean
#: decision columns.  The flip budget is deliberately tiny: one flipped
#: decision per 10k rounds is tolerated in principle, and measured to be zero
#: on all eight golden families.
TRANSCRIPT_AGGREGATES = TolerancePolicy(
    name="transcript-aggregates", rtol=1e-7, atol=1e-9, flip_fraction=1e-4
)


# --------------------------------------------------------------------------- #
# Comparators
# --------------------------------------------------------------------------- #


def transcript_columns(transcript) -> Dict[str, np.ndarray]:
    """The comparable columns of a transcript (or pass a mapping through).

    Accepts a :class:`~repro.engine.transcript.Transcript`, an ``.npz``-style
    mapping (the golden fixtures), or a plain dict of column arrays.
    """
    if hasattr(transcript, "keys"):
        return {name: np.asarray(transcript[name]) for name in transcript.keys()}
    return {
        name: getattr(transcript, name) for name in FLOAT_COLUMNS + BOOL_COLUMNS
    }


def assert_bit_exact(actual, expected, label: str = "transcript") -> None:
    """Bit-exact tier: every shared column must match byte for byte.

    ``NaN`` placements must coincide exactly; boolean columns must be
    identical.  This is the assertion the default path is held to.
    """
    actual_columns = transcript_columns(actual)
    expected_columns = transcript_columns(expected)
    for name in sorted(set(actual_columns) & set(expected_columns)):
        left = actual_columns[name]
        right = expected_columns[name]
        if left.shape != right.shape:
            raise AssertionError(
                "%s[%s]: shape mismatch %s vs %s" % (label, name, left.shape, right.shape)
            )
        if left.dtype.kind == "f" or right.dtype.kind == "f":
            same = np.array_equal(left, right, equal_nan=True)
        else:
            same = np.array_equal(left, right)
        if not same:
            mismatch = np.flatnonzero(
                ~_elementwise_equal(np.atleast_1d(left), np.atleast_1d(right))
            )
            raise AssertionError(
                "%s[%s]: %d elements differ (first at %d) — bit-exact tier violated"
                % (label, name, mismatch.size, int(mismatch[0]) if mismatch.size else -1)
            )


def _elementwise_equal(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    if left.dtype.kind == "f" or right.dtype.kind == "f":
        left = np.asarray(left, dtype=float)
        right = np.asarray(right, dtype=float)
        return (left == right) | (np.isnan(left) & np.isnan(right))
    return left == right


def decision_flips(actual, expected) -> int:
    """Rounds whose boolean decisions differ between two transcripts."""
    actual_columns = transcript_columns(actual)
    expected_columns = transcript_columns(expected)
    flips = None
    for name in BOOL_COLUMNS:
        if name not in actual_columns or name not in expected_columns:
            continue
        differs = np.asarray(actual_columns[name], dtype=bool) != np.asarray(
            expected_columns[name], dtype=bool
        )
        flips = differs if flips is None else (flips | differs)
    return int(np.count_nonzero(flips)) if flips is not None else 0


def assert_transcripts_close(
    actual,
    expected,
    policy: TolerancePolicy = TRANSCRIPT_AGGREGATES,
    label: str = "transcript",
) -> None:
    """Relaxed tier: element-wise transcript agreement under ``policy``.

    Boolean decision columns may differ on at most ``policy.max_flips``
    rounds; float columns are compared on the non-flipped rounds only (a
    flipped decision legitimately changes that round's prices/regret), under
    the policy's ``rtol``/``atol`` with ``NaN`` treated as equal.
    """
    actual_columns = transcript_columns(actual)
    expected_columns = transcript_columns(expected)
    shared_bool = [
        name
        for name in BOOL_COLUMNS
        if name in actual_columns and name in expected_columns
    ]
    flip_mask = None
    for name in shared_bool:
        differs = np.asarray(actual_columns[name], dtype=bool) != np.asarray(
            expected_columns[name], dtype=bool
        )
        flip_mask = differs if flip_mask is None else (flip_mask | differs)
    if flip_mask is not None:
        rounds = flip_mask.shape[0]
        flips = int(np.count_nonzero(flip_mask))
        budget = policy.max_flips(rounds)
        if flips > budget:
            raise AssertionError(
                "%s: %d decision flips over %d rounds exceeds the %s budget of %d"
                % (label, flips, rounds, policy.name, budget)
            )
        stable = ~flip_mask
    else:
        stable = None
    for name in FLOAT_COLUMNS:
        if name not in actual_columns or name not in expected_columns:
            continue
        left = np.asarray(actual_columns[name], dtype=float)
        right = np.asarray(expected_columns[name], dtype=float)
        if stable is not None and left.shape == stable.shape:
            left = left[stable]
            right = right[stable]
        policy.assert_close(left, right, "%s[%s]" % (label, name))


def assert_regret_curves_close(
    actual,
    expected,
    policy: TolerancePolicy = REGRET_CURVES,
    label: str = "cumulative regret",
) -> None:
    """Relaxed tier: cumulative regret curves agree under ``policy``.

    Accepts transcripts (cumulated here) or already-cumulated curve arrays.
    """
    actual_curve = (
        actual.cumulative_regret_curve()
        if hasattr(actual, "cumulative_regret_curve")
        else np.cumsum(np.asarray(actual, dtype=float))
    )
    expected_curve = (
        expected.cumulative_regret_curve()
        if hasattr(expected, "cumulative_regret_curve")
        else np.cumsum(np.asarray(expected, dtype=float))
    )
    policy.assert_close(actual_curve, expected_curve, label)


def assert_states_close(
    actual_state: Mapping,
    expected_state: Mapping,
    policy: TolerancePolicy = KNOWLEDGE_GEOMETRY,
    label: str = "state",
) -> None:
    """Relaxed tier: two pricer ``state_dict`` trees agree under ``policy``.

    Scalar leaves (round counters, cut counts) must match exactly — a backend
    that miscounts cuts is wrong, not imprecise; ndarray leaves (ellipsoid
    centers/shapes, interval bounds) are compared under the policy.
    """
    from repro.engine.checkpoint import flatten_state

    actual_skeleton, actual_arrays = flatten_state(dict(actual_state))
    expected_skeleton, expected_arrays = flatten_state(dict(expected_state))
    if actual_skeleton != expected_skeleton:
        raise AssertionError(
            "%s: structural/scalar mismatch between states: %r vs %r"
            % (label, actual_skeleton, expected_skeleton)
        )
    if len(actual_arrays) != len(expected_arrays):
        raise AssertionError(
            "%s: %d vs %d array leaves" % (label, len(actual_arrays), len(expected_arrays))
        )
    for index, (left, right) in enumerate(zip(actual_arrays, expected_arrays)):
        policy.assert_close(left, right, "%s[array %d]" % (label, index))


def assert_knowledge_close(
    actual,
    expected,
    policy: TolerancePolicy = KNOWLEDGE_GEOMETRY,
    label: str = "knowledge",
) -> None:
    """Relaxed tier: two knowledge sets' geometry agrees under ``policy``."""
    assert_states_close(
        actual.state_dict(), expected.state_dict(), policy=policy, label=label
    )
