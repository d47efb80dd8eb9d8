"""Ellipsoid geometry.

An ellipsoid is represented as in Definition 1 of the paper:

.. math::

   E = \\{ \\theta \\in \\mathbb{R}^n \\mid (\\theta - c)^T A^{-1} (\\theta - c) \\le 1 \\}

where ``c`` is the center and ``A`` is a symmetric positive definite *shape*
matrix.  The broker's knowledge about the unknown weight vector ``θ*`` is kept
as such an ellipsoid; all pricing decisions only need the support values of the
ellipsoid along the query's feature direction, which cost one matrix–vector
product each (this is the efficiency argument of Section III-C1).
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Tuple

import numpy as np

from repro.exceptions import DimensionMismatchError, NotPositiveDefiniteError
from repro.utils.linalg import row_dots
from repro.utils.rng import RngLike, as_rng
from repro.utils.validation import ensure_square_matrix, ensure_vector

# Tolerance used when checking positive definiteness and membership.
_PD_TOLERANCE = 1e-10
_MEMBERSHIP_TOLERANCE = 1e-8

# Smallest direction gain ``x^T A x`` treated as a usable support width.  A
# denormal positive gain passes a plain ``> 0`` check but overflows
# ``1 / sqrt(gain)`` downstream, emitting garbage or NaN cut parameters — the
# same denormal class of bug fixed in ``market/features.py``.  Anything below
# the smallest normal double (including exact zero and NaN) is degenerate.
_DEGENERATE_GAIN = float(np.finfo(float).tiny)


def unit_ball_volume(dimension: int) -> float:
    """Volume of the unit ball in ``dimension`` dimensions (the constant V_n)."""
    if dimension <= 0:
        raise ValueError("dimension must be positive, got %d" % dimension)
    return math.pi ** (dimension / 2.0) / math.gamma(dimension / 2.0 + 1.0)


class Ellipsoid:
    """An ellipsoid ``{θ : (θ - c)^T A^{-1} (θ - c) <= 1}``.

    Parameters
    ----------
    center:
        The center ``c`` (length-``n`` vector).
    shape:
        The shape matrix ``A`` (symmetric positive definite ``n x n``); it is
        symmetrised and checked for positive definiteness.

    :meth:`trusted` wraps arrays that already hold these invariants.
    """

    def __init__(self, center, shape) -> None:
        self.center = ensure_vector(center, name="center")
        self.shape = ensure_square_matrix(shape, dimension=self.center.shape[0], name="shape")
        # Keep the stored matrix exactly symmetric; repeated rank-one updates
        # otherwise accumulate asymmetry that breaks eigenvalue routines.
        self.shape = 0.5 * (self.shape + self.shape.T)
        self._check_positive_definite()

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #

    @classmethod
    def ball(cls, dimension: int, radius: float, center=None) -> "Ellipsoid":
        """A ball of the given ``radius``; the paper's initial knowledge set ``E_1``.

        The origin-centered ball ``r² I`` is wrapped with :meth:`trusted`
        when ``__init__`` would keep it bit for bit: ``r²`` and the
        symmetrising sum ``2 r²`` are finite, and ``r²`` (every eigenvalue)
        clears the positive-definiteness tolerance.  Any other radius, and an
        explicit ``center``, goes through ``__init__`` and fails there.
        """
        if radius <= 0:
            raise ValueError("radius must be positive, got %g" % radius)
        origin = center is None
        if origin:
            center = np.zeros(dimension)
        shape = (radius**2) * np.eye(dimension)
        if origin and shape.size and shape.dtype == np.float64:
            squared = float(shape[0, 0])
            if math.isfinite(2.0 * squared) and squared > _PD_TOLERANCE * max(1.0, squared):
                return cls.trusted(center, shape)
        return cls(center, shape)

    @classmethod
    def enclosing_box(cls, lower, upper) -> "Ellipsoid":
        """Ball centered at the origin enclosing the box ``[lower, upper]``.

        Mirrors the paper's initialization: given the box knowledge set
        ``K_1 = {θ : l_i <= θ_i <= u_i}``, the initial ellipsoid is a ball with
        radius ``R = sqrt(Σ_i max(l_i², u_i²))``.
        """
        lower = ensure_vector(lower, name="lower")
        upper = ensure_vector(upper, dimension=lower.shape[0], name="upper")
        if np.any(upper < lower):
            raise ValueError("upper bounds must not be below lower bounds")
        radius = math.sqrt(float(np.sum(np.maximum(lower**2, upper**2))))
        if radius == 0.0:
            raise ValueError("box must have at least one non-zero corner")
        return cls.ball(lower.shape[0], radius)

    @classmethod
    def trusted(cls, center: np.ndarray, shape: np.ndarray) -> "Ellipsoid":
        """Wrap a finite float center and an exactly symmetric shape as-is.

        For arrays that already satisfy the invariants ``__init__`` enforces,
        such as the output of a Löwner–John update or a validated checkpoint:
        nothing is converted, checked or re-symmetrised.
        """
        ellipsoid = cls.__new__(cls)
        ellipsoid.center = center
        ellipsoid.shape = shape
        return ellipsoid

    def copy(self) -> "Ellipsoid":
        """An independent copy of this ellipsoid."""
        return Ellipsoid.trusted(self.center.copy(), self.shape.copy())

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #

    @property
    def dimension(self) -> int:
        """Ambient dimension ``n``."""
        return self.center.shape[0]

    def _check_positive_definite(self) -> None:
        try:
            eigenvalues = np.linalg.eigvalsh(self.shape)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - numpy internal failure
            raise NotPositiveDefiniteError("eigenvalue computation failed") from exc
        if np.min(eigenvalues) <= _PD_TOLERANCE * max(1.0, float(np.max(np.abs(eigenvalues)))):
            raise NotPositiveDefiniteError(
                "shape matrix is not positive definite (min eigenvalue %g)"
                % float(np.min(eigenvalues))
            )

    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues of the shape matrix, sorted in descending order."""
        return np.sort(np.linalg.eigvalsh(self.shape))[::-1]

    def smallest_eigenvalue(self) -> float:
        """Smallest eigenvalue of the shape matrix (γ_n(A) in the paper)."""
        return float(np.min(np.linalg.eigvalsh(self.shape)))

    def largest_eigenvalue(self) -> float:
        """Largest eigenvalue of the shape matrix (γ_1(A) in the paper)."""
        return float(np.max(np.linalg.eigvalsh(self.shape)))

    def axis_widths(self) -> np.ndarray:
        """Full widths ``2 sqrt(γ_i(A))`` of the ellipsoid axes, descending."""
        return 2.0 * np.sqrt(self.eigenvalues())

    def volume(self) -> float:
        """Volume ``V_n sqrt(Π_i γ_i(A))`` (Equation (3) of the paper)."""
        eigenvalues = np.linalg.eigvalsh(self.shape)
        return unit_ball_volume(self.dimension) * float(np.sqrt(np.prod(np.maximum(eigenvalues, 0.0))))

    def log_volume(self) -> float:
        """Natural log of the volume; numerically preferable for large ``n``."""
        eigenvalues = np.maximum(np.linalg.eigvalsh(self.shape), np.finfo(float).tiny)
        return math.log(unit_ball_volume(self.dimension)) + 0.5 * float(np.sum(np.log(eigenvalues)))

    # ------------------------------------------------------------------ #
    # Membership and support
    # ------------------------------------------------------------------ #

    def mahalanobis(self, point) -> float:
        """The quadratic form ``(θ - c)^T A^{-1} (θ - c)`` at ``point``."""
        point = ensure_vector(point, dimension=self.dimension, name="point")
        diff = point - self.center
        solved = np.linalg.solve(self.shape, diff)
        return float(diff @ solved)

    def contains(self, point, tolerance: float = _MEMBERSHIP_TOLERANCE) -> bool:
        """Whether ``point`` belongs to the ellipsoid (up to ``tolerance``)."""
        return self.mahalanobis(point) <= 1.0 + tolerance

    def direction_gain(self, direction) -> float:
        """The scalar ``x^T A x`` for a direction ``x`` (must be non-negative)."""
        direction = ensure_vector(direction, dimension=self.dimension, name="direction")
        return self._gain(direction)

    def boundary_vector(self, direction) -> np.ndarray:
        """The vector ``b = A x / sqrt(x^T A x)`` used in Algorithms 1 and 2."""
        direction = ensure_vector(direction, dimension=self.dimension, name="direction")
        gain = self._gain(direction)
        if not gain >= _DEGENERATE_GAIN:
            raise ValueError(
                "direction must have a non-degenerate support width (x^T A x = %g)" % gain
            )
        return self._boundary(direction, math.sqrt(gain))

    def support_interval(self, direction) -> Tuple[float, float]:
        """Minimum and maximum of ``x^T θ`` over the ellipsoid.

        These are the paper's lower and upper bounds on the market value,
        ``p̲_t = x^T (c - b)`` and ``p̄_t = x^T (c + b)``.
        """
        direction = ensure_vector(direction, dimension=self.dimension, name="direction")
        return self._support(direction)

    # The kernels below take a checked finite length-n float ``direction``.
    # ``propose`` (through its knowledge set) and the Löwner–John cut, which
    # validate their direction once, call them instead of the checked methods.

    def _gain(self, direction: np.ndarray) -> float:
        """``x^T A x``, unchecked."""
        return float(direction @ self.shape @ direction)

    def _boundary(self, direction: np.ndarray, root: float) -> np.ndarray:
        """``b = A x / root`` with ``root = sqrt(x^T A x)``, unchecked."""
        return (self.shape @ direction) / root

    def _projection(self, direction: np.ndarray) -> Tuple[float, float]:
        """``(x^T c, sqrt(x^T A x))``: the middle and the half-width of the
        support interval, unchecked.  The Löwner–John cut takes both.

        Numerical noise can make ``x^T A x`` a tiny negative value for a PSD
        matrix, and a zero or denormal direction a degenerate one; every
        ``x^T A x`` below the smallest normal double (NaN included) gives an
        exactly-zero half-width.
        """
        gain = self._gain(direction)
        if not gain >= _DEGENERATE_GAIN:
            gain = 0.0
        return float(direction @ self.center), math.sqrt(gain)

    def _support(self, direction: np.ndarray) -> Tuple[float, float]:
        """:meth:`support_interval`, unchecked."""
        middle, half_width = self._projection(direction)
        return middle - half_width, middle + half_width

    def _projections(self, features: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`_projection` along every row of a ``(rounds, n)`` block.

        Rounds exactly like the scalar kernel row by row: ``x^T A x`` is one
        gemv and one dot per row and ``x^T c`` one dot per row, through
        stacked matmuls (a gemm over the block rounds differently).
        """
        gains = row_dots(np.matmul(features[:, None, :], self.shape)[:, 0, :], features)
        gains = np.where(gains >= _DEGENERATE_GAIN, gains, 0.0)
        return row_dots(features, self.center), np.sqrt(gains)

    def support_intervals(self, features: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`support_interval` along every row of a ``(rounds, n)`` block,
        rounded like the scalar method row by row.  Nothing is validated;
        ``features`` must be a finite float matrix.
        """
        middles, half_widths = self._projections(features)
        return middles - half_widths, middles + half_widths

    def width_along(self, direction) -> float:
        """Width ``p̄_t - p̲_t = 2 sqrt(x^T A x)`` along ``direction``."""
        lower, upper = self.support_interval(direction)
        return upper - lower

    # ------------------------------------------------------------------ #
    # Sampling (used by tests and the polytope comparison)
    # ------------------------------------------------------------------ #

    def sample(self, count: int, seed: RngLike = None, boundary: bool = False) -> np.ndarray:
        """Sample ``count`` points uniformly from the ellipsoid (or its boundary).

        Uses the fact that every ellipsoid is the image of the unit ball under
        the affine map ``θ = c + A^{1/2} u``.
        """
        if count < 0:
            raise ValueError("count must be non-negative, got %d" % count)
        rng = as_rng(seed)
        directions = rng.standard_normal((count, self.dimension))
        norms = np.linalg.norm(directions, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        directions = directions / norms
        if boundary:
            radii = np.ones((count, 1))
        else:
            radii = rng.random((count, 1)) ** (1.0 / self.dimension)
        sqrt_shape = self._matrix_square_root()
        return self.center + (directions * radii) @ sqrt_shape.T

    def _matrix_square_root(self) -> np.ndarray:
        eigenvalues, eigenvectors = np.linalg.eigh(self.shape)
        eigenvalues = np.maximum(eigenvalues, 0.0)
        return eigenvectors @ np.diag(np.sqrt(eigenvalues)) @ eigenvectors.T

    # ------------------------------------------------------------------ #
    # Misc
    # ------------------------------------------------------------------ #

    def state_arrays(self) -> Iterable[np.ndarray]:
        """The ndarrays making up this ellipsoid's state (for memory accounting)."""
        return (self.center, self.shape)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Ellipsoid):
            return NotImplemented
        return (
            self.dimension == other.dimension
            and np.array_equal(self.center, other.center)
            and np.array_equal(self.shape, other.shape)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return "Ellipsoid(dimension=%d, volume=%.4g)" % (self.dimension, self.volume())


def random_ellipsoid(
    dimension: int,
    seed: RngLike = None,
    scale: float = 1.0,
    center_scale: float = 1.0,
) -> Ellipsoid:
    """Generate a random well-conditioned ellipsoid (used by tests).

    The shape matrix is ``scale * (M M^T + n I)`` for a random matrix ``M``,
    which is positive definite by construction.
    """
    if dimension <= 0:
        raise ValueError("dimension must be positive, got %d" % dimension)
    rng = as_rng(seed)
    raw = rng.standard_normal((dimension, dimension))
    shape = scale * (raw @ raw.T + dimension * np.eye(dimension))
    center = center_scale * rng.standard_normal(dimension)
    return Ellipsoid(center, shape)
