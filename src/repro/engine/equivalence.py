"""The bit-exact contract, centralised.

Every pricer in the repo is reproduced bit for bit. The reference per-round
path and every dispatch that reduces to it (the vectorised and block paths,
chunked resume, socket and shard serving, resharding) must reproduce the
committed golden transcripts *byte for byte*. Nothing here admits a
tolerance.

Two comparators hold every path to that contract:

* :func:`assert_bit_exact` compares transcript columns: equal values, ``NaN``
  at the same rounds, and the same sign bit (``-0.0`` is not ``0.0``);
* :func:`state_equal` compares two pricer ``state_dict`` trees: arrays by
  dtype, shape and raw bytes, scalars by value and sign.

Tests and tools compare transcripts and pricer state through these two
rather than writing their own column loops.
"""

from __future__ import annotations

import math
from typing import Dict

import numpy as np

#: Every column of a transcript, in a fixed order.
TRANSCRIPT_COLUMNS = (
    "link_values",
    "market_values",
    "reserve_values",
    "link_prices",
    "posted_prices",
    "sold",
    "skipped",
    "exploratory",
    "regrets",
)


def transcript_columns(transcript) -> Dict[str, np.ndarray]:
    """The comparable columns of a transcript (or pass a mapping through).

    Accepts a :class:`~repro.engine.transcript.Transcript`, or a plain
    mapping of column arrays (such as the golden fixtures' columns).
    """
    if hasattr(transcript, "keys"):
        return {name: np.asarray(transcript[name]) for name in transcript.keys()}
    return {name: getattr(transcript, name) for name in TRANSCRIPT_COLUMNS}


def assert_bit_exact(actual, expected, label: str = "transcript") -> None:
    """Require two transcripts to match byte for byte, column by column.

    Both sides must carry the same columns. Float columns must agree in
    value, in ``NaN`` placement and in sign bit, so ``-0.0`` against
    ``0.0`` fails; other columns must be identical.
    """
    actual_columns = transcript_columns(actual)
    expected_columns = transcript_columns(expected)
    if actual_columns.keys() != expected_columns.keys():
        raise AssertionError(
            "%s: columns %s vs %s"
            % (label, sorted(actual_columns), sorted(expected_columns))
        )
    for name in sorted(actual_columns):
        left = np.atleast_1d(actual_columns[name])
        right = np.atleast_1d(expected_columns[name])
        if left.shape != right.shape:
            raise AssertionError(
                "%s[%s]: shape mismatch %s vs %s" % (label, name, left.shape, right.shape)
            )
        if left.dtype.kind == "f" or right.dtype.kind == "f":
            left = np.asarray(left, dtype=float)
            right = np.asarray(right, dtype=float)
            same = ((left == right) | (np.isnan(left) & np.isnan(right))) & (
                np.signbit(left) == np.signbit(right)
            )
        else:
            same = left == right
        if not same.all():
            mismatch = np.flatnonzero(~same)
            raise AssertionError(
                "%s[%s]: %d elements differ (first at %d) — bit-exact contract violated"
                % (label, name, mismatch.size, int(mismatch[0]))
            )


def state_equal(left, right) -> bool:
    """Recursive bit-exact equality of two ``state_dict`` trees.

    Arrays compare by dtype, shape, and raw bytes (so NaN payloads and
    signed zeros must match too); float scalars treat NaN == NaN (JSON
    round-trips them, and a NaN bookkeeping scalar is still the same
    state) and must agree in sign; containers compare structurally.
    """
    if isinstance(left, np.ndarray) or isinstance(right, np.ndarray):
        if not (isinstance(left, np.ndarray) and isinstance(right, np.ndarray)):
            return False
        return (
            left.dtype == right.dtype
            and left.shape == right.shape
            and left.tobytes() == right.tobytes()
        )
    if isinstance(left, dict) and isinstance(right, dict):
        if left.keys() != right.keys():
            return False
        return all(state_equal(left[key], right[key]) for key in left)
    if isinstance(left, (list, tuple)) and isinstance(right, (list, tuple)):
        if len(left) != len(right):
            return False
        return all(state_equal(a, b) for a, b in zip(left, right))
    if isinstance(left, float) and isinstance(right, float):
        if math.isnan(left) and math.isnan(right):
            return True
        return left == right and math.copysign(1.0, left) == math.copysign(1.0, right)
    return type(left) is type(right) and left == right
