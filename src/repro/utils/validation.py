"""Input validation helpers shared by the core and substrate packages."""

from __future__ import annotations

import math
from typing import Sequence, Union

import numpy as np

from repro.exceptions import DimensionMismatchError, InvalidPriceError

ArrayLike = Union[Sequence[float], np.ndarray]


def ensure_vector(value: ArrayLike, dimension: int = None, name: str = "vector") -> np.ndarray:
    """Convert ``value`` to a 1-D float array, optionally checking its length."""
    arr = np.asarray(value, dtype=float)
    if arr.ndim != 1:
        raise DimensionMismatchError(
            "%s must be one-dimensional, got shape %s" % (name, arr.shape)
        )
    if dimension is not None and arr.shape[0] != dimension:
        raise DimensionMismatchError(
            "%s must have dimension %d, got %d" % (name, dimension, arr.shape[0])
        )
    ensure_finite_array(arr, name=name)
    return arr


def ensure_finite_array(value: ArrayLike, name: str = "array") -> np.ndarray:
    """Check that every entry of ``value`` is finite and return it as an array."""
    arr = np.asarray(value, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError("%s contains non-finite entries" % name)
    return arr


def ensure_finite_scalar(value: float, name: str = "value") -> float:
    """Check that ``value`` is a finite scalar and return it as ``float``."""
    scalar = float(value)
    if not math.isfinite(scalar):
        raise ValueError("%s must be finite, got %r" % (name, value))
    return scalar


def ensure_positive(value: float, name: str = "value", strict: bool = True) -> float:
    """Check that ``value`` is positive (or non-negative when ``strict=False``)."""
    scalar = ensure_finite_scalar(value, name=name)
    if strict and scalar <= 0:
        raise ValueError("%s must be strictly positive, got %g" % (name, scalar))
    if not strict and scalar < 0:
        raise ValueError("%s must be non-negative, got %g" % (name, scalar))
    return scalar


def ensure_probability(value: float, name: str = "probability") -> float:
    """Check that ``value`` lies in [0, 1]."""
    scalar = ensure_finite_scalar(value, name=name)
    if not 0.0 <= scalar <= 1.0:
        raise ValueError("%s must lie in [0, 1], got %g" % (name, scalar))
    return scalar


def ensure_price(value: float, name: str = "price") -> float:
    """Check that a price is finite and non-negative."""
    scalar = float(value)
    if not np.isfinite(scalar) or scalar < 0:
        raise InvalidPriceError("%s must be a finite non-negative number, got %r" % (name, value))
    return scalar


def ensure_square_matrix(value: ArrayLike, dimension: int = None, name: str = "matrix") -> np.ndarray:
    """Convert ``value`` to a square 2-D float array."""
    arr = np.asarray(value, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionMismatchError("%s must be square, got shape %s" % (name, arr.shape))
    if dimension is not None and arr.shape[0] != dimension:
        raise DimensionMismatchError(
            "%s must be %dx%d, got %s" % (name, dimension, dimension, arr.shape)
        )
    ensure_finite_array(arr, name=name)
    return arr
