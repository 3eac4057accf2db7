import tracemalloc
from unittest import mock

import numpy as np
import pytest

from convexotonic import linalg
from convexotonic import (
    MatrixTuple,
    TheoremData,
    algebra_closure,
    pencil_eval,
    type_i_tuple,
    type_ii_tuple,
    type_iii_tuple,
    type_iv_tuple,
)
from convexotonic.sampling import complex_gaussian, random_unitary


@pytest.fixture
def e_tuple():
    return type_iv_tuple()


@pytest.fixture
def f_tuple():
    return type_i_tuple()


@pytest.fixture
def r2_tuple():
    return type_ii_tuple()


@pytest.fixture
def r3_tuple():
    return type_iii_tuple()


def random_triangular_algebra(rng, d, g):
    """Random upper-triangular generators, closed to an independent algebra tuple."""
    g = min(g, d * (d + 1) // 2)  # upper-triangular space dimension cap
    data = np.triu(complex_gaussian(rng, g, d, d))
    return algebra_closure(MatrixTuple(data)).extended


def corpus_algebras(seed=1234):
    """Algebra-spanning tuples used across map and transfer tests."""
    rng = np.random.default_rng(seed)
    tuples = [
        type_i_tuple(),
        type_ii_tuple(),
        type_iii_tuple(),
        type_iv_tuple(),
        random_triangular_algebra(rng, 3, 2),
        random_triangular_algebra(rng, 4, 3),
    ]
    return tuples


def planted_theorem(kind, d, seed):
    """Theorem data (E, B, Z, M) with B = M* Z E M: B the closure of a seeded
    generator pair (ut: upper-triangular, full, or strict: strictly
    upper-triangular), Z and M seeded Haar unitaries and E = Z* M B M*."""
    rng = np.random.default_rng(seed)
    pair = complex_gaussian(rng, 2, d, d)
    pair = {"ut": np.triu(pair), "full": pair, "strict": np.triu(pair, 1)}[kind]
    B = algebra_closure(MatrixTuple(pair)).extended
    Z, M = random_unitary(rng, d), random_unitary(rng, d)
    return TheoremData(MatrixTuple(Z.conj().T @ M @ B.data @ M.conj().T), B, Z, M)


def half_norm_point(rng, coeffs, n):
    """A level-n point whose pencil has operator norm 1/2."""
    x = MatrixTuple(complex_gaussian(rng, coeffs.g, n, n))
    return MatrixTuple(0.5 * x.data / np.linalg.norm(pencil_eval(coeffs, x), 2))


def traced_peak(call) -> int:
    """The peak of the memory Python and numpy allocate during call(), in
    bytes; LAPACK's own work arrays are not traced."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def dense_path():
    """Every level below the gate: resolvent takes one dense inverse."""
    return mock.patch.object(linalg, "BLOCK_LEVEL", np.inf)


def inv_calls(monkeypatch):
    """The shape of every matrix np.linalg.inv inverts while the test runs."""
    shapes = []
    original = np.linalg.inv

    def counted(a):
        shapes.append(a.shape)
        return original(a)

    monkeypatch.setattr(np.linalg, "inv", counted)
    return shapes
