"""Seeded random generators used by probes, verification harnesses and tests."""

from __future__ import annotations

import numpy as np

from .linalg import MatrixTuple, OrthonormalSpan


def complex_gaussian(rng: np.random.Generator, *shape) -> np.ndarray:
    """Independent standard complex Gaussian entries (unit expected |z|^2)."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def random_tuple(rng: np.random.Generator, g: int, n: int) -> MatrixTuple:
    return MatrixTuple(complex_gaussian(rng, g, n, n))


def random_direction(rng: np.random.Generator, g: int, n: int) -> MatrixTuple:
    """Random tuple normalized to unit max entry magnitude; never zero."""
    while True:
        t = complex_gaussian(rng, g, n, n)
        scale = np.max(np.abs(t))
        if scale > 1e-12:
            return MatrixTuple(t / scale)


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-random unitary: the Gram-Schmidt orthonormalization of the columns
    of a complex Gaussian matrix (its QR factor with positive diagonal R)."""
    span = OrthonormalSpan(n)
    for column in complex_gaussian(rng, n, n).T:
        span.add(column, 0.0)
    return span.q.T


def random_unimodular(rng: np.random.Generator) -> complex:
    return complex(np.exp(2j * np.pi * rng.uniform()))
