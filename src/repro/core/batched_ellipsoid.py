"""Batched Löwner–John ellipsoid updates over stacked ellipsoids.

One stacked cut over ``k`` ellipsoids at once: centers as a ``(k, n)`` array,
shape matrices as ``(k, n, n)``, one cut direction/offset per ellipsoid.  The
per-item semantics replicate :func:`repro.core.cuts.loewner_john_cut` under
``on_infeasible='skip'`` — the mode every online consumer (the ellipsoid
pricer's ``update``, the serving feedback path) uses — including the
degenerate-direction clamp, the no-op range ``α < -1/n``, the skip range
``α > 1`` and the point-collapse at ``α = 1``.

This numpy kernel (``einsum``/broadcast arithmetic) is the
``backend="batched"`` math of serving's stacked cross-session feedback: one
stacked update replaces ``k`` Python-level cut calls.  It rounds
differently than the scalar reference path (``einsum``/gemm contraction
order vs. per-round ``x @ A @ x``), so results are admitted under the
**relaxed** equivalence tier (:mod:`repro.engine.equivalence`), never the
bit-exact golden tier.  The offline engine's bit-exact block path uses
:meth:`repro.core.ellipsoid.Ellipsoid.support_intervals` instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.cuts import _ALPHA_TOLERANCE, _DEGENERATE_GAIN


@dataclass
class BatchedCutResult:
    """Outcome of one stacked cut over ``k`` ellipsoids.

    ``centers``/``shapes`` hold the post-cut geometry for every item (no-op
    items carry their input values through unchanged); ``alphas`` the position
    parameters (``NaN`` for degenerate directions); ``updated`` which items
    actually changed — the batch analogue of ``CutResult.updated``, which is
    what counter bookkeeping (``cuts_applied``/``cut_count``) keys off.
    """

    centers: np.ndarray
    shapes: np.ndarray
    alphas: np.ndarray
    updated: np.ndarray


def _validate_batch(centers, shapes, directions, offsets, signs):
    centers = np.ascontiguousarray(centers, dtype=float)
    shapes = np.ascontiguousarray(shapes, dtype=float)
    directions = np.ascontiguousarray(directions, dtype=float)
    offsets = np.ascontiguousarray(offsets, dtype=float).reshape(-1)
    signs = np.ascontiguousarray(signs, dtype=float).reshape(-1)
    if centers.ndim != 2:
        raise ValueError("centers must be (k, n), got shape %s" % (centers.shape,))
    count, dimension = centers.shape
    if dimension < 2:
        raise ValueError(
            "batched Löwner–John updates require dimension >= 2, got %d" % dimension
        )
    if shapes.shape != (count, dimension, dimension):
        raise ValueError(
            "shapes must be (k, n, n) = %s, got %s"
            % ((count, dimension, dimension), shapes.shape)
        )
    if directions.shape != (count, dimension):
        raise ValueError(
            "directions must be (k, n) = %s, got %s"
            % ((count, dimension), directions.shape)
        )
    if offsets.shape != (count,) or signs.shape != (count,):
        raise ValueError(
            "offsets and keep signs must be length-%d vectors, got %s / %s"
            % (count, offsets.shape, signs.shape)
        )
    if not np.all(np.abs(signs) == 1.0):
        raise ValueError("keep signs must be +1 (leq) or -1 (geq)")
    return centers, shapes, directions, offsets, signs


def batched_cut(
    centers: np.ndarray,
    shapes: np.ndarray,
    directions: np.ndarray,
    offsets: np.ndarray,
    signs: np.ndarray,
) -> BatchedCutResult:
    """One stacked Löwner–John cut over ``k`` ellipsoids (numpy).

    Item-wise semantics match ``loewner_john_cut(..., on_infeasible='skip')``:

    * degenerate direction (``x^T A x < tiny``, including exact zero and
      denormal underflow) — no-op, ``alpha = NaN``;
    * ``α < -1/n - tol`` — no-op (the kept region's Löwner–John ellipsoid is
      the original);
    * ``α > 1 + tol`` — no-op (inconsistent observation, skipped);
    * ``1 <= α <= 1 + tol`` — collapse onto the supporting point with a tiny
      positive-definite shape;
    * otherwise — the Grötschel–Lovász–Schrijver deep/shallow-cut formulas,
      re-symmetrised.
    """
    centers, shapes, directions, offsets, signs = _validate_batch(
        centers, shapes, directions, offsets, signs
    )
    count, dimension = centers.shape

    raw = np.matmul(shapes, directions[:, :, None])[:, :, 0]  # A x per item
    gains = np.einsum("ki,ki->k", raw, directions)  # x^T A x per item
    degenerate = ~(gains >= _DEGENERATE_GAIN)

    safe_gains = np.where(degenerate, 1.0, gains)
    roots = np.sqrt(safe_gains)
    signed = (np.einsum("ki,ki->k", directions, centers) - offsets) / roots
    alphas = signs * signed
    alphas[degenerate] = np.nan

    noop = degenerate | (alphas < -1.0 / dimension - _ALPHA_TOLERANCE)
    noop |= alphas > 1.0 + _ALPHA_TOLERANCE
    collapse = ~noop & (alphas >= 1.0)
    regular = ~noop & ~collapse

    new_centers = centers.copy()
    new_shapes = shapes.copy()
    boundary = raw / roots[:, None]  # b = A x / sqrt(x^T A x)

    if np.any(collapse):
        idx = np.nonzero(collapse)[0]
        new_centers[idx] = centers[idx] - signs[idx, None] * boundary[idx]
        traces = np.trace(shapes[idx], axis1=1, axis2=2)
        tiny = 1e-18 * traces / dimension
        new_shapes[idx] = tiny[:, None, None] * np.eye(dimension)[None, :, :]

    if np.any(regular):
        idx = np.nonzero(regular)[0]
        a = alphas[idx]
        scale = dimension**2 * (1.0 - a**2) / (dimension**2 - 1.0)
        rank_one = 2.0 * (1.0 + dimension * a) / ((dimension + 1.0) * (1.0 + a))
        outer = boundary[idx, :, None] * boundary[idx, None, :]
        shaped = scale[:, None, None] * (
            shapes[idx] - rank_one[:, None, None] * outer
        )
        new_shapes[idx] = 0.5 * (shaped + np.swapaxes(shaped, 1, 2))
        step = ((1.0 + dimension * a) / (dimension + 1.0)) * signs[idx]
        new_centers[idx] = centers[idx] - step[:, None] * boundary[idx]

    return BatchedCutResult(
        centers=new_centers, shapes=new_shapes, alphas=alphas, updated=~noop
    )
