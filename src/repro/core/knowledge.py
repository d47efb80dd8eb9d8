"""Knowledge-set representations of the broker's belief about the weight vector.

The broker never observes the market value directly; each accept/reject
feedback only yields a linear inequality on the unknown weight vector ``θ*``.
Three representations of the resulting knowledge set are provided:

* :class:`IntervalKnowledge` — the one-dimensional case, where the knowledge
  set is simply an interval (Section II-C of the paper),
* :class:`EllipsoidKnowledge` — the paper's main representation: the raw
  polytope is replaced by its Löwner–John ellipsoid so every round only costs
  a few matrix–vector products,
* :class:`PolytopeKnowledge` — the exact polytope of all accumulated
  inequalities, with support values computed by linear programming.  It is the
  slow-but-exact reference used for validation and the latency-ablation bench.
"""

from __future__ import annotations

import abc
from typing import List, Tuple

import numpy as np

from repro.core.cuts import _cut, loewner_john_cut
from repro.core.ellipsoid import Ellipsoid
from repro.exceptions import DimensionMismatchError
from repro.utils.validation import ensure_finite_scalar, ensure_square_matrix, ensure_vector


class KnowledgeSet(abc.ABC):
    """Interface shared by all knowledge-set representations."""

    @property
    @abc.abstractmethod
    def dimension(self) -> int:
        """Dimension of the weight vector the set describes."""

    @abc.abstractmethod
    def value_bounds(self, direction) -> Tuple[float, float]:
        """Lower and upper bounds on ``x^T θ`` over the knowledge set."""

    def _bounds(self, direction) -> Tuple[float, float]:
        """:meth:`value_bounds` for a direction its caller has checked.

        The pricers' ``propose`` validates its features once and calls this;
        each representation here overrides it with its unchecked kernel.
        """
        return self.value_bounds(direction)

    @abc.abstractmethod
    def cut(self, direction, offset: float, keep: str) -> bool:
        """Intersect with ``{θ : x^T θ <= offset}`` (``keep='leq'``) or ``>=``.

        Returns ``True`` when the representation actually changed.
        """

    @abc.abstractmethod
    def contains(self, theta) -> bool:
        """Whether ``theta`` is consistent with the knowledge set."""

    @abc.abstractmethod
    def state_arrays(self) -> Tuple[np.ndarray, ...]:
        """Arrays making up the state (for memory accounting)."""

    @abc.abstractmethod
    def state_dict(self) -> dict:
        """Complete snapshot of the mutable state (see ``repro.engine.checkpoint``).

        The snapshot must allow :meth:`load_state` to restore a same-shaped
        knowledge set bit-identically: every subsequent ``value_bounds`` /
        ``cut`` call must produce exactly the floats an uninterrupted instance
        would have produced.
        """

    @abc.abstractmethod
    def load_state(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`state_dict` (same kind/shape)."""

    def _require_kind(self, state: dict, kind: str) -> None:
        found = state.get("kind")
        if found != kind:
            raise ValueError(
                "cannot load %r knowledge state into %s (expected kind %r)"
                % (found, type(self).__name__, kind)
            )

    def width_along(self, direction) -> float:
        """Width of the knowledge set along ``direction`` (``p̄ - p̲``)."""
        lower, upper = self.value_bounds(direction)
        return upper - lower


class IntervalKnowledge(KnowledgeSet):
    """One-dimensional knowledge set: an interval for the scalar weight ``θ``.

    The paper's one-dimensional warm-up (Section II-C, Theorem 3) keeps the
    feasible values of ``θ*`` as an interval ``[lo, hi]`` and bisects it with
    exploratory prices.
    """

    def __init__(self, lower: float, upper: float) -> None:
        lower = ensure_finite_scalar(lower, name="lower")
        upper = ensure_finite_scalar(upper, name="upper")
        if upper < lower:
            raise ValueError("upper (%g) must be >= lower (%g)" % (upper, lower))
        self.lower = lower
        self.upper = upper

    @property
    def dimension(self) -> int:
        return 1

    @property
    def width(self) -> float:
        """Width of the parameter interval itself."""
        return self.upper - self.lower

    def value_bounds(self, direction) -> Tuple[float, float]:
        return self._bounds(_as_scalar_direction(direction))

    def _bounds(self, scalar: float) -> Tuple[float, float]:
        lo = scalar * self.lower
        hi = scalar * self.upper
        return (min(lo, hi), max(lo, hi))

    def cut(self, direction, offset: float, keep: str) -> bool:
        scalar = _as_scalar_direction(direction)
        offset = ensure_finite_scalar(offset, name="offset")
        if scalar == 0.0:
            return False
        bound = offset / scalar
        # keep x*θ <= offset  <=>  θ <= bound (x > 0) or θ >= bound (x < 0).
        keep_upper = (keep == "leq") == (scalar > 0.0)
        if keep not in ("leq", "geq"):
            raise ValueError("keep must be 'leq' or 'geq', got %r" % keep)
        changed = False
        if keep_upper:
            if bound < self.upper:
                self.upper = max(bound, self.lower)
                changed = True
        else:
            if bound > self.lower:
                self.lower = min(bound, self.upper)
                changed = True
        return changed

    def contains(self, theta) -> bool:
        theta = float(np.asarray(theta).reshape(()))
        return self.lower - 1e-12 <= theta <= self.upper + 1e-12

    def state_arrays(self) -> Tuple[np.ndarray, ...]:
        return (np.array([self.lower, self.upper]),)

    def state_dict(self) -> dict:
        return {"kind": "interval", "lower": float(self.lower), "upper": float(self.upper)}

    def load_state(self, state: dict) -> None:
        self._require_kind(state, "interval")
        lower = float(state["lower"])
        upper = float(state["upper"])
        if upper < lower:
            raise ValueError("interval state has upper (%g) < lower (%g)" % (upper, lower))
        self.lower = lower
        self.upper = upper

    def __repr__(self) -> str:  # pragma: no cover
        return "IntervalKnowledge([%g, %g])" % (self.lower, self.upper)


class EllipsoidKnowledge(KnowledgeSet):
    """Ellipsoid-shaped knowledge set — the paper's main representation.

    Parameters
    ----------
    ellipsoid:
        The initial ellipsoid ``E_1`` (typically a ball of radius ``R``).
    """

    def __init__(self, ellipsoid: Ellipsoid) -> None:
        if ellipsoid.dimension < 2:
            raise DimensionMismatchError(
                "EllipsoidKnowledge requires dimension >= 2; use IntervalKnowledge for n = 1"
            )
        self.ellipsoid = ellipsoid
        self.cut_count = 0

    @classmethod
    def from_radius(cls, dimension: int, radius: float) -> "EllipsoidKnowledge":
        """Initial knowledge set: a ball of the given radius centered at the origin."""
        return cls(Ellipsoid.ball(dimension, radius))

    @property
    def dimension(self) -> int:
        return self.ellipsoid.dimension

    def value_bounds(self, direction) -> Tuple[float, float]:
        return self.ellipsoid.support_interval(direction)

    def _bounds(self, direction: np.ndarray) -> Tuple[float, float]:
        return self.ellipsoid._support(direction)

    def cut(self, direction, offset: float, keep: str, on_infeasible: str = "skip") -> bool:
        result = loewner_john_cut(self.ellipsoid, direction, offset, keep, on_infeasible=on_infeasible)
        if result.updated:
            self.ellipsoid = result.ellipsoid
            self.cut_count += 1
        return result.updated

    def _cut(
        self, direction: np.ndarray, offset: float, sign: float, middle: float, root: float
    ) -> bool:
        """:meth:`cut` in its default ``'skip'`` mode, for a finite length-n
        float ``direction`` and a finite ``offset`` its caller has checked;
        ``sign`` is ``+1.0`` for ``keep='leq'`` and ``-1.0`` for ``'geq'``,
        and ``middle, root`` is the direction's :meth:`Ellipsoid._projection`
        on the current ellipsoid."""
        updated = _cut(self.ellipsoid, direction, offset, sign, middle, root)[1]
        if updated is None:
            return False
        self.ellipsoid = updated
        self.cut_count += 1
        return True

    def contains(self, theta) -> bool:
        return self.ellipsoid.contains(theta)

    def state_arrays(self) -> Tuple[np.ndarray, ...]:
        return tuple(self.ellipsoid.state_arrays())

    def state_dict(self) -> dict:
        return {
            "kind": "ellipsoid",
            "center": self.ellipsoid.center.copy(),
            "shape": self.ellipsoid.shape.copy(),
            "cut_count": int(self.cut_count),
        }

    def load_state(self, state: dict) -> None:
        self._require_kind(state, "ellipsoid")
        center = ensure_vector(state["center"], name="center")
        if center.shape[0] != self.dimension:
            raise DimensionMismatchError(
                "ellipsoid state has dimension %d, expected %d"
                % (center.shape[0], self.dimension)
            )
        shape = ensure_square_matrix(state["shape"], dimension=self.dimension, name="shape")
        # The checks of Ellipsoid.__init__ bar the positive-definiteness test:
        # a snapshot must restore whatever its conditioning (a cut at
        # alpha = 1 leaves 1e-18-scale axes).  The stored shape is already
        # exactly symmetric, so 0.5 * (S + S^T) is a bit-exact no-op and the
        # restored ellipsoid reproduces the snapshot verbatim.
        self.ellipsoid = Ellipsoid.trusted(center.copy(), 0.5 * (shape + shape.T))
        self.cut_count = int(state["cut_count"])

    def volume(self) -> float:
        """Volume of the current ellipsoid."""
        return self.ellipsoid.volume()

    def __repr__(self) -> str:  # pragma: no cover
        return "EllipsoidKnowledge(dimension=%d, cuts=%d)" % (self.dimension, self.cut_count)


class PolytopeKnowledge(KnowledgeSet):
    """Exact polytope knowledge set, evaluated with linear programming.

    The raw knowledge set of the paper is a polytope: the initial box plus one
    linear inequality per informative feedback.  Computing the support values
    needs two LPs per round, which the paper argues is too slow for online use;
    this class exists as the exact reference for correctness tests and for the
    latency comparison in the overhead bench.
    """

    def __init__(self, lower, upper, max_constraints: int = 10_000) -> None:
        self.lower = ensure_vector(lower, name="lower")
        self.upper = ensure_vector(upper, dimension=self.lower.shape[0], name="upper")
        if np.any(self.upper < self.lower):
            raise ValueError("upper bounds must not be below lower bounds")
        if max_constraints <= 0:
            raise ValueError("max_constraints must be positive")
        self.max_constraints = max_constraints
        self._constraint_directions: List[np.ndarray] = []
        self._constraint_offsets: List[float] = []

    @classmethod
    def from_radius(
        cls, dimension: int, radius: float, max_constraints: int = 10_000
    ) -> "PolytopeKnowledge":
        """Box ``[-radius, radius]^n`` — encloses the ball used by the ellipsoid pricer."""
        bound = radius * np.ones(dimension)
        return cls(-bound, bound, max_constraints=max_constraints)

    @property
    def dimension(self) -> int:
        return self.lower.shape[0]

    @property
    def constraint_count(self) -> int:
        """Number of accumulated halfspace constraints (excluding box bounds)."""
        return len(self._constraint_offsets)

    def value_bounds(self, direction) -> Tuple[float, float]:
        direction = ensure_vector(direction, dimension=self.dimension, name="direction")
        return self._bounds(direction)

    def _bounds(self, direction: np.ndarray) -> Tuple[float, float]:
        return self._solve(direction, maximize=False), self._solve(direction, maximize=True)

    def _solve(self, direction: np.ndarray, maximize: bool) -> float:
        from scipy.optimize import linprog

        sign = -1.0 if maximize else 1.0
        a_ub = np.array(self._constraint_directions) if self._constraint_directions else None
        b_ub = np.array(self._constraint_offsets) if self._constraint_offsets else None
        bounds = list(zip(self.lower.tolist(), self.upper.tolist()))
        result = linprog(
            sign * direction,
            A_ub=a_ub,
            b_ub=b_ub,
            bounds=bounds,
            method="highs",
        )
        if not result.success:
            raise RuntimeError("LP for polytope support value failed: %s" % result.message)
        return float(sign * result.fun)

    def cut(self, direction, offset: float, keep: str) -> bool:
        direction = ensure_vector(direction, dimension=self.dimension, name="direction")
        offset = ensure_finite_scalar(offset, name="offset")
        if keep == "leq":
            row, rhs = direction, offset
        elif keep == "geq":
            row, rhs = -direction, -offset
        else:
            raise ValueError("keep must be 'leq' or 'geq', got %r" % keep)
        if self.constraint_count >= self.max_constraints:
            raise RuntimeError(
                "polytope knowledge set exceeded %d constraints" % self.max_constraints
            )
        self._constraint_directions.append(np.asarray(row, dtype=float))
        self._constraint_offsets.append(float(rhs))
        return True

    def contains(self, theta) -> bool:
        theta = ensure_vector(theta, dimension=self.dimension, name="theta")
        if np.any(theta < self.lower - 1e-9) or np.any(theta > self.upper + 1e-9):
            return False
        for row, rhs in zip(self._constraint_directions, self._constraint_offsets):
            if float(row @ theta) > rhs + 1e-9:
                return False
        return True

    def state_arrays(self) -> Tuple[np.ndarray, ...]:
        arrays: List[np.ndarray] = [self.lower, self.upper]
        if self._constraint_directions:
            arrays.append(np.array(self._constraint_directions))
            arrays.append(np.array(self._constraint_offsets))
        return tuple(arrays)

    def state_dict(self) -> dict:
        directions = (
            np.array(self._constraint_directions, dtype=float)
            if self._constraint_directions
            else np.empty((0, self.dimension))
        )
        return {
            "kind": "polytope",
            "lower": self.lower.copy(),
            "upper": self.upper.copy(),
            "constraint_directions": directions,
            "constraint_offsets": np.array(self._constraint_offsets, dtype=float),
        }

    def load_state(self, state: dict) -> None:
        self._require_kind(state, "polytope")
        lower = ensure_vector(state["lower"], dimension=self.dimension, name="lower")
        upper = ensure_vector(state["upper"], dimension=self.dimension, name="upper")
        directions = np.asarray(state["constraint_directions"], dtype=float)
        offsets = np.asarray(state["constraint_offsets"], dtype=float)
        if directions.ndim != 2 or directions.shape[1] != self.dimension:
            raise DimensionMismatchError(
                "polytope state constraints have shape %s, expected (k, %d)"
                % (directions.shape, self.dimension)
            )
        if offsets.shape != (directions.shape[0],):
            raise ValueError("constraint offsets do not match the direction rows")
        self.lower = lower.copy()
        self.upper = upper.copy()
        self._constraint_directions = [row.copy() for row in directions]
        self._constraint_offsets = [float(value) for value in offsets]

    def __repr__(self) -> str:  # pragma: no cover
        return "PolytopeKnowledge(dimension=%d, constraints=%d)" % (
            self.dimension,
            self.constraint_count,
        )


def _as_scalar_direction(direction) -> float:
    """Interpret a one-dimensional direction (scalar or length-1 array) as a float."""
    arr = np.asarray(direction, dtype=float)
    if arr.ndim == 0:
        return float(arr)
    if arr.ndim == 1 and arr.shape[0] == 1:
        return float(arr[0])
    raise DimensionMismatchError(
        "one-dimensional knowledge sets accept scalar directions, got shape %s" % (arr.shape,)
    )
