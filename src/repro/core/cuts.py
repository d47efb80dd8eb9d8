"""Löwner–John ellipsoid updates after a halfspace cut.

After posting a price ``p_t`` along the feature direction ``x_t`` and observing
accept/reject feedback, the broker keeps one side of the cutting hyperplane
``{θ : x_t^T θ = p_t}`` and replaces the remaining region of the ellipsoid with
its minimum-volume enclosing (Löwner–John) ellipsoid.  The closed-form update
is the classical deep/shallow-cut formula of Grötschel, Lovász and Schrijver,
reproduced in Lines 17 and 21 of Algorithms 1 and 2 of the paper.

Conventions
-----------
The *position parameter* ``α`` is the signed distance from the ellipsoid's
center to the cutting hyperplane in the ellipsoidal norm:

* ``α = 0``      — central cut (keep exactly half),
* ``0 < α <= 1`` — deep cut (keep less than half),
* ``-1/n <= α < 0`` — shallow cut (keep more than half, volume still shrinks),
* ``α < -1/n``   — the Löwner–John ellipsoid of the kept region is the original
  ellipsoid, so the update is a no-op,
* ``α > 1``      — the kept region is empty; this indicates an inconsistent
  observation and raises :class:`~repro.exceptions.InvalidCutError`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.core.ellipsoid import _DEGENERATE_GAIN, Ellipsoid
from repro.exceptions import InvalidCutError
from repro.utils.validation import ensure_finite_scalar, ensure_vector

# Numerical slack applied when classifying alpha against its legal range.
_ALPHA_TOLERANCE = 1e-12


class CutKind(enum.Enum):
    """Classification of a cut by the fraction of the ellipsoid it keeps."""

    CENTRAL = "central"
    DEEP = "deep"
    SHALLOW = "shallow"
    NOOP = "noop"


@dataclass(frozen=True)
class CutResult:
    """Outcome of a Löwner–John cut.

    Attributes
    ----------
    ellipsoid:
        The updated ellipsoid (identical to the input for a no-op cut).
    alpha:
        The position parameter of the cut.
    kind:
        Whether the cut was central, deep, shallow, or a no-op.
    updated:
        ``True`` when the ellipsoid actually changed.
    """

    ellipsoid: Ellipsoid
    alpha: float
    kind: CutKind
    updated: bool


def classify_alpha(alpha: float, dimension: int) -> CutKind:
    """Classify a position parameter ``alpha`` for an ``n``-dimensional ellipsoid."""
    if dimension < 2:
        raise ValueError("ellipsoid cuts require dimension >= 2, got %d" % dimension)
    if alpha < -1.0 / dimension - _ALPHA_TOLERANCE:
        return CutKind.NOOP
    if abs(alpha) <= _ALPHA_TOLERANCE:
        return CutKind.CENTRAL
    if alpha > 0:
        return CutKind.DEEP
    return CutKind.SHALLOW


def cut_position(ellipsoid: Ellipsoid, direction, offset: float, keep: str) -> float:
    """Position parameter ``α`` of the cut ``x^T θ (<=|>=) offset``.

    For ``keep='leq'`` (retain ``{θ : x^T θ <= offset}``) this is the paper's
    ``α_t = (x^T c_t - offset) / sqrt(x^T A_t x)``; for ``keep='geq'`` the sign
    flips, matching the symmetry argument used for the acceptance branch.
    """
    direction = ensure_vector(direction, dimension=ellipsoid.dimension, name="direction")
    offset = ensure_finite_scalar(offset, name="offset")
    gain = ellipsoid._gain(direction)
    if not gain >= _DEGENERATE_GAIN:
        # ``not >=`` also catches NaN.  A denormal positive gain would pass a
        # plain ``> 0`` check and then overflow ``1 / sqrt(gain)``, emitting
        # garbage or NaN cut parameters downstream.
        raise InvalidCutError(
            "cut direction has a degenerate support width (x^T A x = %g)" % gain
        )
    if keep not in ("leq", "geq"):
        raise ValueError("keep must be 'leq' or 'geq', got %r" % keep)
    return _position(ellipsoid, direction, offset, _sign(keep), math.sqrt(gain))


def _sign(keep: str) -> float:
    """``+1.0`` for ``keep='leq'`` (the rejection branch), ``-1.0`` for ``'geq'``."""
    return 1.0 if keep == "leq" else -1.0


def _position(
    ellipsoid: Ellipsoid, direction: np.ndarray, offset: float, sign: float, root: float
) -> float:
    """:func:`cut_position` on checked inputs, with ``root = sqrt(x^T A x)``."""
    signed = (float(direction @ ellipsoid.center) - offset) / root
    return signed if sign > 0.0 else -signed


def loewner_john_cut(
    ellipsoid: Ellipsoid,
    direction,
    offset: float,
    keep: str,
    on_infeasible: str = "raise",
) -> CutResult:
    """Cut ``ellipsoid`` with the halfspace ``x^T θ <= offset`` or ``>= offset``.

    Parameters
    ----------
    ellipsoid:
        The current knowledge ellipsoid ``E_t``.
    direction:
        The feature direction ``x_t`` of the cut.
    offset:
        The (effective) posted price defining the cutting hyperplane.
    keep:
        ``'leq'`` keeps ``{θ : x^T θ <= offset}`` (rejection feedback);
        ``'geq'`` keeps ``{θ : x^T θ >= offset}`` (acceptance feedback).
    on_infeasible:
        Behaviour when the kept halfspace does not intersect the ellipsoid
        (``α > 1``): ``'raise'`` (default) raises
        :class:`~repro.exceptions.InvalidCutError`; ``'skip'`` leaves the
        ellipsoid unchanged (the behaviour of Algorithms 1/2 when the position
        parameter falls outside its legal range); ``'clamp'`` collapses the
        ellipsoid onto the single supporting point at ``α = 1``.

    Returns
    -------
    CutResult
        The updated ellipsoid together with the cut's position parameter and
        classification.

    The inputs are validated once, here, and the cut is the unchecked kernel
    :func:`_cut`; only the outcomes it leaves unchanged (a degenerate
    direction, ``α > 1``) depend on ``on_infeasible``.
    """
    dimension = ellipsoid.dimension
    direction = ensure_vector(direction, dimension=dimension, name="direction")
    if dimension < 2:
        raise InvalidCutError(
            "Löwner–John updates require dimension >= 2; use IntervalKnowledge for n = 1"
        )
    if on_infeasible not in ("raise", "skip", "clamp"):
        raise ValueError("on_infeasible must be 'raise', 'skip', or 'clamp', got %r" % on_infeasible)
    if keep not in ("leq", "geq"):
        raise ValueError("keep must be 'leq' or 'geq', got %r" % keep)
    offset = ensure_finite_scalar(offset, name="offset")
    sign = _sign(keep)
    alpha, updated = _cut(ellipsoid, direction, offset, sign)
    if updated is not None:
        return CutResult(
            ellipsoid=updated, alpha=alpha, kind=classify_alpha(alpha, dimension), updated=True
        )
    # The kernel left the ellipsoid as it is: a degenerate direction (alpha
    # is NaN), alpha > 1, or alpha < -1/n, a no-op in every mode.
    if on_infeasible == "raise":
        if math.isnan(alpha):
            raise InvalidCutError(
                "cut direction has a degenerate support width (x^T A x = %g)"
                % ellipsoid._gain(direction)
            )
        if alpha > 1.0:
            raise InvalidCutError(
                "cut with alpha=%.6g > 1 would leave an empty region" % alpha
            )
    elif on_infeasible == "clamp" and alpha > 1.0:
        boundary = ellipsoid._boundary(direction, math.sqrt(ellipsoid._gain(direction)))
        collapsed = _apply_cut_formulas(ellipsoid, boundary, 1.0, sign)
        return CutResult(ellipsoid=collapsed, alpha=1.0, kind=CutKind.DEEP, updated=True)
    return CutResult(ellipsoid=ellipsoid, alpha=alpha, kind=CutKind.NOOP, updated=False)


def _cut(
    ellipsoid: Ellipsoid, direction: np.ndarray, offset: float, sign: float
) -> Tuple[float, Optional[Ellipsoid]]:
    """The Löwner–John cut on checked inputs, in :func:`loewner_john_cut`'s
    ``'skip'`` mode.

    ``direction`` is a finite length-``n`` float vector, ``offset`` a finite
    float and ``sign`` ``+1.0`` to keep ``{x^T θ <= offset}`` or ``-1.0`` to
    keep ``{x^T θ >= offset}``.  Returns the position parameter and the cut
    ellipsoid, or ``None`` in its place when the cut leaves the ellipsoid as
    it is: a degenerate direction (``α`` is then NaN), an empty kept region
    (``α > 1``) or a cut below ``-1/n``.  ``x^T A x`` is computed once and
    shared by ``α`` and the boundary vector.
    """
    gain = ellipsoid._gain(direction)
    if not gain >= _DEGENERATE_GAIN:
        # Degenerate direction: zero, denormal, or NaN support width.  The
        # ellipsoid carries no information along such a direction, so the cut
        # is a no-op rather than a division by ~0 that would emit NaN cut
        # parameters.
        return math.nan, None
    root = math.sqrt(gain)
    alpha = _position(ellipsoid, direction, offset, sign, root)
    if alpha > 1.0 + _ALPHA_TOLERANCE:
        return alpha, None
    if alpha < -1.0 / ellipsoid.dimension - _ALPHA_TOLERANCE:
        return alpha, None  # classify_alpha's NOOP: the kept region holds E
    boundary = ellipsoid._boundary(direction, root)
    return alpha, _apply_cut_formulas(ellipsoid, boundary, alpha, sign)


#: Largest magnitude on the new shape's diagonal for which the in-place
#: update keeps the shape it computed (see :func:`_apply_cut_formulas`).
_SYMMETRIC_DIAGONAL_LIMIT = float(np.finfo(float).max) / 4.0


def _apply_cut_formulas(
    ellipsoid: Ellipsoid, boundary: np.ndarray, alpha: float, sign: float
) -> Ellipsoid:
    """Apply the Grötschel–Lovász–Schrijver deep-cut formulas.

    ``sign=+1`` corresponds to keeping ``{x^T θ <= offset}`` (the paper's
    rejection branch, Lines 16–17); ``sign=-1`` to keeping ``{x^T θ >= offset}``
    (the acceptance branch, Line 21), which is the mirrored formula.  The new
    shape is exactly symmetric, so the result is wrapped unchecked.
    """
    dimension = ellipsoid.dimension
    if alpha >= 1.0 - _ALPHA_TOLERANCE:
        # Degenerate cut: the kept region is a single point.  Collapse the
        # ellipsoid onto that point with a tiny, still positive definite shape
        # so downstream linear algebra keeps working.  The margin below 1 is
        # the same as above it: within a few ulps of 1 the formulas below
        # cancel to a singular or indefinite shape.
        new_center = ellipsoid.center - sign * boundary
        tiny = 1e-18 * np.trace(ellipsoid.shape) / dimension
        new_shape = tiny * np.eye(dimension)
        return Ellipsoid.trusted(new_center, new_shape)

    scale = dimension**2 * (1.0 - alpha**2) / (dimension**2 - 1.0)
    rank_one_coefficient = 2.0 * (1.0 + dimension * alpha) / ((dimension + 1.0) * (1.0 + alpha))
    # scale * (A - coefficient * b b^T) in one new n x n buffer, with the IEEE
    # operations of that expression on every element: b_i * b_j, times the
    # coefficient, subtracted from A_ij, times the scale.
    new_shape = np.multiply.outer(boundary, boundary)
    new_shape *= rank_one_coefficient
    np.subtract(ellipsoid.shape, new_shape, out=new_shape)
    new_shape *= scale
    new_center = ellipsoid.center - sign * ((1.0 + dimension * alpha) / (dimension + 1.0)) * boundary
    # The new shape is exactly symmetric without re-symmetrising: the input
    # shape is (every Ellipsoid holds A_ij == A_ji bit for bit) and
    # b_i * b_j == b_j * b_i in IEEE arithmetic, so both triangles compute
    # the same floats.  Re-symmetrising with 0.5 * (S + S^T) would compute
    # 0.5 * (2 S_ij), which is S_ij again (doubling and halving are exact)
    # unless 2 S_ij overflows to inf.  No entry of a positive semidefinite
    # matrix exceeds its largest diagonal entry in magnitude, so an O(n)
    # check on the diagonal, with a factor of two to spare for rounding,
    # routes every shape whose doubling could overflow (and a NaN diagonal)
    # through that expression, and its infs stay.
    if not np.abs(new_shape.diagonal()).max() < _SYMMETRIC_DIAGONAL_LIMIT:
        new_shape = 0.5 * (new_shape + new_shape.T)
    return Ellipsoid.trusted(new_center, new_shape)


def volume_ratio_upper_bound(alpha: float, dimension: int) -> float:
    """Upper bound on ``V(E_{t+1}) / V(E_t)`` from Lemma 2 of the paper.

    For a cut with position parameter ``α ∈ [-1/n, 0]`` the volume shrinks at
    least by the factor ``exp(-(1 + nα)² / (5n))``.
    """
    if dimension < 2:
        raise ValueError("dimension must be >= 2, got %d" % dimension)
    if not -1.0 / dimension - _ALPHA_TOLERANCE <= alpha <= 1.0 + _ALPHA_TOLERANCE:
        raise ValueError("alpha=%g outside the valid cut range" % alpha)
    return math.exp(-((1.0 + dimension * alpha) ** 2) / (5.0 * dimension))
