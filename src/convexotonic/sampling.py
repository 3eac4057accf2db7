"""Seeded random draws used by probes, verification harnesses and tests."""

from __future__ import annotations

import operator

import numpy as np

from .linalg import MatrixTuple, OrthonormalSpan


def seeded_rng(seed: int) -> np.random.Generator:
    """The generator of every seed in the package, numpy's default_rng of an
    integer of at least 0; TypeError for any other type, ValueError if below 0."""
    return np.random.default_rng(operator.index(seed))


def check_count(count: int, name: str, least: int = 0) -> int:
    """Return count (of draws) as an int; raise TypeError naming it unless it is
    an integer other than a bool, ValueError naming it if below least."""
    if isinstance(count, bool):
        raise TypeError(f"{name} must be an integer, not a bool")
    if (count := operator.index(count)) < least:
        raise ValueError(f"{name} must be at least {least}, got {count}")
    return count


def complex_gaussians(rng: np.random.Generator, count: int, *shape) -> np.ndarray:
    """`count` stacked arrays of `shape` of standard complex Gaussians (unit
    E|z|^2), each taking its real and then its imaginary parts from the stream."""
    normals = rng.standard_normal((count, 2, *shape))
    return (normals[:, 0] + 1j * normals[:, 1]) / np.sqrt(2)


def complex_gaussian(rng: np.random.Generator, *shape) -> np.ndarray:
    """One array of `shape` drawn by complex_gaussians."""
    return complex_gaussians(rng, 1, *shape)[0]


def random_tuple(rng: np.random.Generator, g: int, n: int) -> MatrixTuple:
    return MatrixTuple(complex_gaussian(rng, g, n, n))


def random_directions(rng: np.random.Generator, g: int, n: int, count: int) -> np.ndarray:
    """A (count, g, n, n) stack of random tuples, each of unit largest entry magnitude."""
    draws = complex_gaussians(rng, count, g, n, n)
    return draws / np.abs(draws).max(axis=(1, 2, 3), keepdims=True)


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-random unitary: the Gram-Schmidt orthonormalization of the columns
    of a complex Gaussian matrix (its QR factor with positive diagonal R)."""
    span = OrthonormalSpan(n)
    for column in complex_gaussian(rng, n, n).T:
        span.add(column, 0.0)
    return span.q.T


def random_unimodular(rng: np.random.Generator) -> complex:
    return complex(np.exp(2j * np.pi * rng.uniform()))
