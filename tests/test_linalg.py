import copy
import re
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import dense_path, half_norm_point, inv_calls, traced_peak
from convexotonic import (
    DomainBreach,
    MatrixTuple,
    NotSquare,
    ShapeMismatch,
    TupleLengthMismatch,
    algebra_closure,
    hermitian_pencil,
    is_nilpotent,
    kernel_basis,
    necessary_conditions,
    operator_norm,
    pencil_eval,
    structure_constants,
)
from convexotonic import linalg
from convexotonic.linalg import BLOCK_LEVEL, OrthonormalSpan, _diagonal_cuts, resolvent
from convexotonic.sampling import complex_gaussian, random_tuple, random_unitary
from convexotonic.verify import _tuple_distance

E12 = np.array([[0, 1], [0, 0]], dtype=complex)


def rand_matrix(rng, n, m=None):
    return complex_gaussian(rng, n, n if m is None else m)


# --- MatrixTuple -----------------------------------------------------------

def test_tuple_shape_and_access(e_tuple):
    assert e_tuple.g == 2
    assert e_tuple.rows == e_tuple.cols == 2
    assert_allclose(e_tuple[0], np.eye(2))
    assert len(list(e_tuple)) == 2


def test_tuple_rejects_ragged_and_empty():
    with pytest.raises(ShapeMismatch):
        MatrixTuple.from_matrices([np.eye(2), np.eye(3)])
    with pytest.raises(ShapeMismatch):
        MatrixTuple.from_matrices([])
    with pytest.raises(ShapeMismatch, match="expected a 2-d matrix, got ndim=1"):
        MatrixTuple.from_matrices([np.eye(2), np.zeros(2)])


@pytest.mark.parametrize("shape", [(2, 0, 0), (2, 3, 0), (2, 0, 3)])
def test_tuple_rejects_empty_matrices(shape):
    with pytest.raises(ShapeMismatch, match="cannot be empty"):
        MatrixTuple(np.zeros(shape))


def test_tuple_constructors_reject_empty_matrices():
    with pytest.raises(ShapeMismatch):
        MatrixTuple.zeros(2, 0)
    with pytest.raises(ShapeMismatch):
        MatrixTuple.from_matrices([np.zeros((0, 0)), np.zeros((0, 0))])


@pytest.mark.parametrize(
    "shape, message",
    [((2, 2), "got ndim=2"), ((1, 2, 2, 2), "got ndim=4"), ((0, 2, 2), "at least one entry")],
    ids=["ndim-2", "ndim-4", "no-entries"],
)
def test_tuple_rejects_other_shapes(shape, message):
    with pytest.raises(ShapeMismatch, match=message):
        MatrixTuple(np.zeros(shape))


def test_tuple_rejects_nonfinite():
    with pytest.raises(ValueError):
        MatrixTuple(np.array([[[np.nan]]]))


def test_tuple_immutable(e_tuple):
    with pytest.raises(ValueError):
        e_tuple.data[0, 0, 0] = 5.0


def test_tuple_cannot_be_made_writable(e_tuple):
    # certificates are stored per tuple object, so its data must never change
    for arr in (e_tuple.data, np.asarray(e_tuple.data.base)):
        with pytest.raises(ValueError):
            arr.setflags(write=True)


def test_direct_sum_shapes(e_tuple):
    both = e_tuple.direct_sum(e_tuple)
    assert both.rows == 4
    assert_allclose(both[1][:2, :2], E12)
    assert_allclose(both[1][2:, 2:], E12)


def test_direct_sum_refuses_different_lengths(e_tuple):
    with pytest.raises(TupleLengthMismatch, match="2 vs 1"):
        e_tuple.direct_sum(MatrixTuple.scalar([1.0]))


def test_max_abs_is_the_largest_modulus():
    assert MatrixTuple(np.array([[[1.0, -3.0]], [[2j, 0.0]]])).max_abs() == 3.0
    assert MatrixTuple(np.array([[[-4.0, 3 + 4.5j]], [[0.0, 1.0]]])).max_abs() == abs(3 + 4.5j)


# --- np.kron ---------------------------------------------------------------

def test_kron_identity():
    assert_allclose(np.kron(np.eye(2), np.eye(2)), np.eye(4))


def test_kron_unit_matrices():
    out = np.kron(E12, E12)
    expected = np.zeros((4, 4))
    expected[0, 3] = 1.0
    assert_allclose(out, expected)


def test_kron_associative():
    rng = np.random.default_rng(7)
    a, b, c = (rand_matrix(rng, 2) for _ in range(3))
    assert np.linalg.norm(np.kron(np.kron(a, b), c) - np.kron(a, np.kron(b, c))) < 1e-13


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_kron_bilinear(seed):
    rng = np.random.default_rng(seed)
    a, b, c = (rand_matrix(rng, 2) for _ in range(3))
    lhs = np.kron(a + b, c)
    rhs = np.kron(a, c) + np.kron(b, c)
    assert np.linalg.norm(lhs - rhs) < 1e-13


# --- pencil evaluation -----------------------------------------------------

def test_pencil_scalar_point(e_tuple):
    t, s = 0.7, -0.3
    assert_allclose(
        pencil_eval(e_tuple, MatrixTuple.scalar([t, s])), np.array([[t, s], [0, t]])
    )


def test_pencil_scalar_point_nilpotent(f_tuple):
    out = pencil_eval(f_tuple, MatrixTuple.scalar([1, 1]))
    assert_allclose(out, np.array([[0, 1, 1], [0, 0, 1], [0, 0, 0]]))


def test_pencil_length_mismatch(e_tuple):
    with pytest.raises(TupleLengthMismatch):
        pencil_eval(e_tuple, MatrixTuple.scalar([1, 2, 3]))


def test_pencil_refuses_a_bare_3d_array(e_tuple):
    # a point is a MatrixTuple or an (s, g, n, m) stack, never bare (g, n, m) data
    with pytest.raises(ShapeMismatch, match="got ndim=3"):
        pencil_eval(e_tuple, np.zeros((2, 3, 3)))


def test_pencil_matches_kron_sum(e_tuple):
    rng = np.random.default_rng(3)
    x = random_tuple(rng, 2, 3)
    expected = np.kron(e_tuple[0], x[0]) + np.kron(e_tuple[1], x[1])
    assert_allclose(pencil_eval(e_tuple, x), expected)


def kron_loop_pencil(coeffs, point):
    """Reference pencil: the sum of Kronecker products, one slot at a time."""
    out = np.zeros((coeffs.rows * point.rows, coeffs.cols * point.cols), dtype=complex)
    for j in range(coeffs.g):
        out += np.kron(coeffs[j], point[j])
    return out


@pytest.mark.parametrize(
    "g, d, e, n, m",
    [(2, 2, 2, 1, 1), (3, 2, 4, 1, 1), (2, 3, 1, 2, 5), (4, 1, 3, 3, 2), (6, 3, 3, 8, 8),
     (3, 2, 3, BLOCK_LEVEL, 4), (2, 3, 2, BLOCK_LEVEL + 1, BLOCK_LEVEL + 1)],
)
def test_pencil_matches_kron_loop_rectangular(g, d, e, n, m):
    rng = np.random.default_rng(17)
    coeffs = MatrixTuple(complex_gaussian(rng, g, d, e))
    point = MatrixTuple(complex_gaussian(rng, g, n, m))
    expected = kron_loop_pencil(coeffs, point)
    out = pencil_eval(coeffs, point)
    assert out.shape == (d * n, e * m)
    assert np.linalg.norm(out - expected) <= 1e-13 * np.linalg.norm(expected)
    with dense_path():  # the one-copy reorder below the gate moves the same bits
        assert out.tobytes() == pencil_eval(coeffs, point).tobytes()


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_pencil_linear_in_point_and_coeffs(seed):
    rng = np.random.default_rng(seed)
    a = random_tuple(rng, 2, 2)
    b = random_tuple(rng, 2, 2)
    x = random_tuple(rng, 2, 3)
    y = random_tuple(rng, 2, 3)
    lhs = pencil_eval(MatrixTuple(a.data + b.data), x)
    assert np.linalg.norm(lhs - pencil_eval(a, x) - pencil_eval(b, x)) < 1e-12
    lhs = pencil_eval(a, MatrixTuple(x.data + y.data))
    assert np.linalg.norm(lhs - pencil_eval(a, x) - pencil_eval(a, y)) < 1e-12


def test_pencil_direct_sum_norm(e_tuple):
    rng = np.random.default_rng(11)
    x = random_tuple(rng, 2, 2)
    y = random_tuple(rng, 2, 3)
    joint = operator_norm(pencil_eval(e_tuple, x.direct_sum(y)))
    parts = max(
        operator_norm(pencil_eval(e_tuple, x)), operator_norm(pencil_eval(e_tuple, y))
    )
    assert abs(joint - parts) < 1e-12


# --- hermitian pencil ------------------------------------------------------

def test_hermitian_pencil_zero_point(e_tuple):
    out = hermitian_pencil(e_tuple, MatrixTuple.zeros(2, 3))
    assert_allclose(out, np.eye(6))


def test_hermitian_pencil_all_ones(f_tuple):
    out = hermitian_pencil(f_tuple, MatrixTuple.scalar([1, 1]))
    assert_allclose(out, np.ones((3, 3)))


def test_hermitian_pencil_exactly_hermitian(f_tuple):
    rng = np.random.default_rng(5)
    out = hermitian_pencil(f_tuple, random_tuple(rng, 2, 3))
    assert np.array_equal(out, out.conj().T)


def test_hermitian_pencil_requires_square():
    rect = MatrixTuple(complex_gaussian(np.random.default_rng(0), 2, 2, 3))
    with pytest.raises(NotSquare):
        hermitian_pencil(rect, MatrixTuple.zeros(2, 2))


@pytest.mark.parametrize("g, d, n", [(1, 1, 1), (2, 2, 3), (2, 3, 4), (3, 4, 2), (4, 2, 16)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_hermitian_pencil_matches_averaged_formula(g, d, n, seed):
    # I + lam + lam* is Hermitian as formed: averaging it with its adjoint
    # returns the same bits
    rng = np.random.default_rng([g, d, n, seed])
    for coeffs, point in (
        (complex_gaussian(rng, g, d, d), complex_gaussian(rng, g, n, n)),
        (rng.standard_normal((g, d, d)), rng.standard_normal((g, n, n))),
    ):
        coeffs, point = MatrixTuple(coeffs), MatrixTuple(point)
        lam = pencil_eval(coeffs, point)
        m = np.eye(lam.shape[0], dtype=complex) + lam + lam.conj().T
        averaged = (m + m.conj().T) / 2
        assert hermitian_pencil(coeffs, point).tobytes() == averaged.tobytes()


def test_hermitian_pencil_refuses_rectangular_point(f_tuple):
    with pytest.raises(NotSquare):
        hermitian_pencil(f_tuple, MatrixTuple(np.ones((2, 2, 3))))


@pytest.mark.parametrize("n", [2, BLOCK_LEVEL, BLOCK_LEVEL + 3])
def test_adjoint_sums_have_the_bits_of_the_whole_matrix_sums(e_tuple, f_tuple, n):
    # from BLOCK_LEVEL on lam + lam* is formed one pair of n x n blocks at a
    # time; blocks of -0.0 check that I + lam turned them into 0.0
    rng = np.random.default_rng(n)
    for coeffs in (e_tuple, f_tuple, MatrixTuple(complex_gaussian(rng, 3, 3, 3))):
        X = MatrixTuple(complex_gaussian(rng, coeffs.g, n, n))
        assert hermitian_pencil(coeffs, X).tobytes() == (
            np.eye(coeffs.rows * n, dtype=complex) + pencil_eval(coeffs, X) + pencil_eval(coeffs, X).conj().T
        ).tobytes()
        lam = pencil_eval(coeffs, X)
        lam[:n, n:] = lam[n:, :n] = complex(-0.0, -0.0)
        whole = np.eye(len(lam), dtype=complex) + lam + lam.conj().T
        assert linalg._add_adjoint(lam.copy(), n, monic=True).tobytes() == whole.tobytes()
        assert linalg._add_adjoint(lam.copy(), n, monic=False).tobytes() == (lam + lam.conj().T).tobytes()


def test_a_level_n_pencil_is_put_in_block_order_in_its_own_buffer(e_tuple):
    # the product of the coefficients with the point is reordered one
    # coefficient row at a time, through one buffer of 1/d of the pencil
    n = 256
    X = MatrixTuple(complex_gaussian(np.random.default_rng(9), 2, n, n))
    pencil = (e_tuple.rows * n) ** 2 * 16
    assert traced_peak(lambda: pencil_eval(e_tuple, X)) <= (1 + 1 / e_tuple.rows) * pencil + 2**16


# --- certified resolvent ---------------------------------------------------

def test_resolvent_inverts_the_monic_pencil(e_tuple):
    X = MatrixTuple(0.2 * complex_gaussian(np.random.default_rng(6), 2, 3, 3))
    for factor in (1.0, -1.0, 0.5):
        inv = resolvent(e_tuple, X, factor, "pencil")
        assert_allclose(inv @ (np.eye(6) + factor * pencil_eval(e_tuple, X)), np.eye(6), atol=1e-13)


def test_resolvent_refusals(monkeypatch, e_tuple):
    with pytest.raises(NotSquare):
        resolvent(e_tuple, MatrixTuple(np.ones((2, 2, 3))), 1.0, "pencil")
    with pytest.raises(TupleLengthMismatch):
        resolvent(e_tuple, MatrixTuple.scalar([1.0]), 1.0, "pencil")
    # I - pencil_E(1, 0) = I - I is exactly singular
    with pytest.raises(DomainBreach, match="pencil is numerically singular"):
        resolvent(e_tuple, MatrixTuple.scalar([1.0, 0.0]), -1.0, "pencil")
    # I - pencil_E(0.99, 0.5) = [[0.01, -0.5], [0, 0.01]] has 1-norm condition number 2601
    X = MatrixTuple.scalar([0.99, 0.5])
    resolvent(e_tuple, X, -1.0, "pencil")
    monkeypatch.setattr(linalg, "COND_LIMIT", 1e3)
    with pytest.raises(DomainBreach, match="cond 2.601e"):
        resolvent(e_tuple, X, -1.0, "pencil")


# --- block-triangular resolvents ------------------------------------------

def monic(coeffs, X, factor):
    """I + factor * pencil, with the bits of the pencil resolvent inverts."""
    m = factor * pencil_eval(coeffs, X)
    m += np.eye(len(m))
    return m


def test_diagonal_cuts_read_the_exact_zero_pattern(e_tuple, f_tuple):
    assert _diagonal_cuts(e_tuple) == [0, 1, 2]
    assert _diagonal_cuts(f_tuple) == [0, 1, 2, 3]
    assert _diagonal_cuts(MatrixTuple(e_tuple.data[::-1].transpose(0, 2, 1))) == [0, 2]
    full = MatrixTuple(np.ones((2, 4, 4)))
    assert _diagonal_cuts(full) == [0, 4]
    # blocks of sizes 1, 2 and 1: entry (2, 1) joins rows 1 and 2
    data = np.triu(np.ones((2, 4, 4)))
    data[1, 2, 1] = 1e-300
    assert _diagonal_cuts(MatrixTuple(data)) == [0, 1, 3, 4]


@settings(max_examples=25, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(["ut", "ut-closure", "strict"]),
    st.integers(2, 4),
    st.sampled_from([BLOCK_LEVEL, BLOCK_LEVEL + 3, 2 * BLOCK_LEVEL]),
    st.sampled_from([1.0, -1.0]),
)
def test_block_resolvent_matches_the_dense_inverse(seed, kind, d, n, factor):
    rng = np.random.default_rng(seed)
    if kind == "ut-closure":
        coeffs = algebra_closure(MatrixTuple(np.triu(complex_gaussian(rng, 2, d, d)))).extended
    else:
        coeffs = MatrixTuple(np.triu(complex_gaussian(rng, 3, d, d), 1 if kind == "strict" else 0))
    assert len(_diagonal_cuts(coeffs)) == d + 1
    X = half_norm_point(rng, coeffs, n)
    inv = resolvent(coeffs, X, factor, "pencil")
    dense = np.linalg.inv(monic(coeffs, X, factor))
    assert np.linalg.norm(inv - dense) <= 1e-12 * np.linalg.norm(dense)
    # block upper triangular, exactly: 0.0, never -0.0, below the diagonal blocks
    assert inv[n:, :n].tobytes() == bytes(inv[n:, :n].nbytes)


@pytest.mark.parametrize("n", [BLOCK_LEVEL, 2 * BLOCK_LEVEL])
def test_non_triangular_resolvent_is_the_dense_inverse_bit_for_bit(e_tuple, n):
    rng = np.random.default_rng(n)
    lower = MatrixTuple(e_tuple.data.transpose(0, 2, 1))
    full = MatrixTuple(complex_gaussian(rng, 3, 3, 3))
    for coeffs in (lower, full):
        X = half_norm_point(rng, coeffs, n)
        for factor in (1.0, -1.0):
            inv = resolvent(coeffs, X, factor, "pencil")
            assert inv.tobytes() == np.linalg.inv(monic(coeffs, X, factor)).tobytes()


@pytest.mark.parametrize("n", [1, BLOCK_LEVEL - 1])
def test_resolvent_below_the_gate_is_the_dense_inverse_bit_for_bit(e_tuple, f_tuple, n):
    rng = np.random.default_rng(n)
    for coeffs in (e_tuple, f_tuple):
        X = half_norm_point(rng, coeffs, n)
        inv = resolvent(coeffs, X, 1.0, "pencil")
        assert inv.tobytes() == np.linalg.inv(monic(coeffs, X, 1.0)).tobytes()


def test_equal_diagonal_blocks_are_inverted_once(monkeypatch, e_tuple, f_tuple):
    n = BLOCK_LEVEL
    rng = np.random.default_rng(1)
    X, Y = half_norm_point(rng, e_tuple, n), half_norm_point(rng, f_tuple, n)
    calls = inv_calls(monkeypatch)
    # type IV: both diagonal blocks are I + X_1; the shift pair: all three are I
    resolvent(e_tuple, X, 1.0, "pencil")
    resolvent(f_tuple, Y, -1.0, "pencil")
    assert calls == [(n, n), (n, n)]


def test_block_path_refuses_an_exactly_singular_pencil(e_tuple):
    # I + pencil_E(-I, Y) = [[0, Y], [0, 0]]
    n = BLOCK_LEVEL
    y = complex_gaussian(np.random.default_rng(2), n, n)
    X = MatrixTuple.from_matrices([-np.eye(n), y])
    with pytest.raises(DomainBreach) as block:
        resolvent(e_tuple, X, 1.0, "pencil")
    with dense_path(), pytest.raises(DomainBreach) as dense:
        resolvent(e_tuple, X, 1.0, "pencil")
    assert str(block.value) == str(dense.value) == "pencil is numerically singular (cond inf)"


def test_block_path_certifies_the_assembled_inverse(monkeypatch, e_tuple):
    # a COND_LIMIT of 1 refuses every pencil and reports its condition number,
    # ||M||_1 ||M^-1||_1 over the whole assembled inverse
    n = BLOCK_LEVEL
    rng = np.random.default_rng(4)
    J = random_tuple(rng, 1, 3).data[0]
    coeffs = MatrixTuple.from_matrices([np.triu(J), np.triu(J, 1)])
    X = half_norm_point(rng, coeffs, n)
    m = monic(coeffs, X, 1.0)
    cond = np.abs(m).sum(axis=0).max() * np.abs(np.linalg.inv(m)).sum(axis=0).max()
    monkeypatch.setattr(linalg, "COND_LIMIT", 1.0)
    for path in (nullcontext(), dense_path()):
        with path, pytest.raises(DomainBreach, match=re.escape(f"(cond {cond:.3e})")):
            resolvent(coeffs, X, 1.0, "pencil")


@pytest.mark.parametrize("gap, refused", [(1e-13, True), (1e-10, False)])
def test_block_path_keeps_the_condition_limit(e_tuple, gap, refused):
    # the diagonal blocks I + X_1 = diag(gap, 1, ..., 1), and a Y without
    # first row and column, put cond near 1/gap
    n = BLOCK_LEVEL
    x1 = np.zeros((n, n), dtype=complex)
    x1[0, 0] = gap - 1.0
    y = 0.1 * complex_gaussian(np.random.default_rng(3), n, n)
    y[0, :] = y[:, 0] = 0.0
    X = MatrixTuple.from_matrices([x1, y])
    for path in (nullcontext(), dense_path()):
        with path:
            if refused:
                with pytest.raises(DomainBreach, match="numerically singular"):
                    resolvent(e_tuple, X, 1.0, "pencil")
            else:
                resolvent(e_tuple, X, 1.0, "pencil")


# --- norms and eigenvalues -------------------------------------------------

def test_operator_norm_identity():
    assert operator_norm(np.eye(5)) == pytest.approx(1.0)


def test_operator_norm_of_an_empty_matrix_is_zero():
    assert operator_norm(np.zeros((0, 3))) == 0.0


def test_operator_norm_refuses_a_1d_array():
    # a 3-d array is a stack of matrices, one norm each
    with pytest.raises(ShapeMismatch, match="ndim=1"):
        operator_norm(np.zeros(2))


def test_operator_norm_jordan_closed_form():
    # sigma_max^2 of [[a, b], [0, a]] is (2a^2 + b^2 + b sqrt(b^2 + 4a^2)) / 2
    a, b = 1 / np.sqrt(2), 0.5
    expected = np.sqrt((2 * a**2 + b**2 + b * np.sqrt(b**2 + 4 * a**2)) / 2)
    assert operator_norm(np.array([[a, b], [0, a]])) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(1.0)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_operator_norm_unitary_invariance(seed):
    rng = np.random.default_rng(seed)
    m = rand_matrix(rng, 3)
    u, v = random_unitary(rng, 3), random_unitary(rng, 3)
    assert abs(operator_norm(u @ m @ v) - operator_norm(m)) < 1e-10


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 6),
    st.integers(1, 6),
    st.integers(1, 4),
    st.floats(-8, 8),
)
def test_norms_match_numpy_bit_for_bit(seed, rows, cols, g, exponent):
    # operator_norm and _tuple_distance skip np.linalg.norm's axis handling
    # but take the same largest singular value
    rng = np.random.default_rng(seed)
    a, b = (10.0**exponent * complex_gaussian(rng, g, rows, cols) for _ in range(2))
    for m in (*a, a[0][:, :1], a[0][:1]):
        assert operator_norm(m) == np.linalg.norm(m, 2)
    per_slot = max(np.linalg.norm(a[j] - b[j], 2) for j in range(g))
    assert _tuple_distance(MatrixTuple(a), MatrixTuple(b)) == per_slot


# --- kernels and rank ------------------------------------------------------

def test_kernel_basis_trivial():
    assert kernel_basis(np.eye(2)) == []


def test_kernel_basis_rank_one():
    vecs = kernel_basis(E12)
    assert len(vecs) == 1
    # E12 kills e1
    assert abs(abs(vecs[0][0]) - 1.0) < 1e-12


def test_kernel_basis_boundary_defect(e_tuple):
    # at a point with unit pencil norm the defect I - L*L has a kernel
    alpha = np.array([1 / np.sqrt(2), 0.5])
    lam = pencil_eval(e_tuple, MatrixTuple.scalar(alpha))
    defect = np.eye(2) - lam.conj().T @ lam
    assert len(kernel_basis(defect, tol=1e-10)) >= 1


def test_kernel_basis_zero_matrix_full_space():
    assert len(kernel_basis(np.zeros((2, 2)))) == 2


NOT_SQUARE = {
    "structure_constants": (structure_constants, "structure constants need"),
    "algebra_closure": (algebra_closure, "algebra closure needs"),
    "necessary_conditions": (necessary_conditions, "sv-genericity is defined"),
    "is_nilpotent": (is_nilpotent, "nilpotency is defined"),
}


@pytest.mark.parametrize("call, message", NOT_SQUARE.values(), ids=NOT_SQUARE.keys())
def test_rectangular_tuples_are_refused(call, message):
    with pytest.raises(NotSquare, match=message):
        call(MatrixTuple(np.ones((2, 2, 3))))


# --- nilpotency ------------------------------------------------------------

def test_nilpotent_examples(e_tuple, f_tuple):
    assert is_nilpotent(f_tuple)
    assert not is_nilpotent(e_tuple)
    idempotent_pair = MatrixTuple.from_matrices([E12, E12.T])
    assert not is_nilpotent(idempotent_pair)  # product is a projection


def test_nilpotent_scale_free(f_tuple):
    assert is_nilpotent(MatrixTuple(1e6 * f_tuple.data))
    assert is_nilpotent(MatrixTuple(1e-6 * f_tuple.data))


def unit_generators(B, tol):
    """The generators at unit operator norm, less those at most tol times the
    largest norm: the rule of is_nilpotent."""
    norms = [operator_norm(m) for m in B]
    return [m / n for m, n in zip(B, norms) if n > tol * max(norms)]


def word_tree_is_nilpotent(B, tol=1e-8):
    """Reference: every word of length d in the unit-norm generators has
    operator norm at most tol (word norms never grow, so subtrees prune)."""
    d = B.rows
    gens = unit_generators(B, tol)

    def extend(prod, depth):
        if operator_norm(prod) <= tol:
            return True
        if depth == d:
            return False
        return all(extend(gen @ prod, depth + 1) for gen in gens)

    return all(extend(gen, 1) for gen in gens)


def chain_is_nilpotent(B, tol=1e-8):
    """Reference: the power chain V_1 = span B, V_{k+1} = span(B V_k) of the
    spans in C^{d^2} of all words of length k in the unit-norm generators; a
    nilpotent algebra of d x d matrices has index at most d, so it is
    nilpotent iff V_d = 0. A product joins when its remainder exceeds tol."""
    d = B.rows
    gens = np.array(unit_generators(B, tol)).reshape(-1, d, d)
    level = np.eye(d, dtype=complex)[None]  # V_0: the empty word
    for _ in range(d):
        span = OrthonormalSpan(d * d)
        for product in (gens[:, None] @ level[None]).reshape(-1, d * d):
            span.add(product, tol)
        level = span.q.reshape(-1, d, d)
    return not len(level)


def nilpotency_draw(rng, kind, g, d):
    """A strict (strictly upper-triangular), similar (a strict tuple under a
    similarity), diagonal (strict plus the entry 1e-3 at (d, d) of its first
    element) or generic complex Gaussian tuple."""
    data = complex_gaussian(rng, g, d, d)
    if kind != "generic":
        data = np.triu(data, 1)
    if kind == "similar":
        s = np.eye(d) + 0.3 * rand_matrix(rng, d)
        data = np.stack([np.linalg.solve(s, m @ s) for m in data])
    if kind == "diagonal":
        data[0, d - 1, d - 1] = 1e-3
    return data


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 6),
    st.integers(1, 3),
    st.sampled_from(["strict", "similar", "diagonal", "generic"]),
    st.sampled_from([1e-13, 1.0, 1e8]),
)
# the unit first generator has the eigenvalue 3.2e-4, so every word of length
# 6 has norm at most 3.0e-10 and the tree says "nilpotent"
@example(seed=128, d=6, g=1, kind="diagonal", scale=1.0)
def test_nilpotent_chain_matches_word_tree(seed, d, g, kind, scale):
    B = MatrixTuple(scale * nilpotency_draw(np.random.default_rng(seed), kind, g, d))
    expected = kind in ("strict", "similar")
    assert chain_is_nilpotent(B) is expected
    assert is_nilpotent(B) is expected
    # The tree tests word norms, not the algebra: it says "nilpotent" once
    # every word of length d is at most tol, which a unit generator with
    # spectral radius r and r^d <= tol can allow. So it must agree on
    # nilpotent tuples, and on the others only when some unit generator has
    # r^d > tol, where the powers of that generator alone stay above tol.
    radii = [np.abs(np.linalg.eigvals(gen)).max() for gen in unit_generators(B, 1e-8)]
    radius = max(radii, default=0.0)
    if expected or radius**d > 1e-8:
        assert word_tree_is_nilpotent(B) is expected


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 6),
    st.integers(1, 3),
    st.sampled_from(["strict", "similar", "rescaled", "perturbed", "tiny"]),
    st.sampled_from([0.0, 1e-12, 1e-8, 1e-3]),
)
def test_a_nilpotent_tuple_has_a_joint_kernel(seed, d, g, kind, tol):
    # necessary_conditions runs the flag only on a tuple with a joint kernel:
    # a nilpotent algebra is strictly upper-triangular in some basis
    # (Levitzki), so its generators kill a common vector
    rng = np.random.default_rng(seed)
    data = nilpotency_draw(rng, "similar" if kind == "similar" else "strict", g, d)
    if kind == "rescaled":
        data *= 10.0 ** rng.integers(-12, 13)
    elif kind == "perturbed":
        data += 10.0 ** rng.integers(-14, -1) * complex_gaussian(rng, g, d, d)
    elif kind == "tiny":  # is_nilpotent drops a generator at most tol times the largest
        tiny = 10.0 ** rng.integers(-16, -3) * complex_gaussian(rng, 1, d, d)
        data = np.concatenate([data, tiny])
    B = MatrixTuple(data)
    if is_nilpotent(B, tol):
        assert "joint-kernel" in necessary_conditions(B, tol).reasons


@pytest.mark.parametrize("d", [10, 12, 16, 32])
def test_nilpotent_chain_large(d):
    rng = np.random.default_rng(d)
    strict = np.triu(complex_gaussian(rng, 3, d, d), 1)
    assert is_nilpotent(MatrixTuple(strict))
    # one nonzero diagonal entry makes that generator non-nilpotent
    strict[0, d - 1, d - 1] = 1.0
    assert not is_nilpotent(MatrixTuple(strict))
    assert not is_nilpotent(MatrixTuple(complex_gaussian(rng, 3, d, d)))


@pytest.mark.parametrize("d", [1, 4, 9])
def test_nilpotent_flag_takes_at_most_d_plus_one_svds(monkeypatch, d):
    calls = []
    original = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    rng = np.random.default_rng([d, 18])
    # the shift grows its flag by one dimension a step: the most steps there are
    for B, verdict in (
        (MatrixTuple.from_matrices([np.eye(d, k=1)]), True),
        (MatrixTuple(np.triu(complex_gaussian(rng, 3, d, d), 1)), True),
        (MatrixTuple(complex_gaussian(rng, 2, d, d)), False),
    ):
        calls.clear()
        assert is_nilpotent(B) is verdict
        assert len(calls) <= d + 1
    assert len(calls) == 2  # the generic pair has no kernel: the first step stops
    assert calls[1] == (2 * d, d)


@pytest.mark.parametrize(
    "eps, nilpotent", [(1e-6, 0), (1e-7, 0), (1e-9, 30), (1e-10, 30)]
)
def test_nilpotent_threshold_band(eps, nilpotent):
    # strict tuples plus one diagonal entry eps: at least ten times tol away
    # from tol the verdict is fixed; between 1e-9 and 1e-7 it depends on the draw
    rng = np.random.default_rng(2024)
    count = 0
    for _ in range(30):
        g, d = int(rng.integers(1, 4)), int(rng.integers(2, 9))
        data = np.triu(complex_gaussian(rng, g, d, d), 1)
        data[0, d - 1, d - 1] = eps
        count += is_nilpotent(MatrixTuple(data))
    assert count == nilpotent


@pytest.mark.parametrize("kappa", [1e1, 1e3])
def test_nilpotent_flag_and_chain_under_similarity(kappa):
    # S = U diag(1 .. kappa) V: both tell strict tuples from ones with the
    # eigenvalue 1e-3, on every draw
    rng = np.random.default_rng(7)
    for _ in range(20):
        g, d = int(rng.integers(1, 4)), int(rng.integers(2, 9))
        s = random_unitary(rng, d) @ np.diag(np.geomspace(1, kappa, d)) @ random_unitary(rng, d)
        for kind, expected in (("strict", True), ("diagonal", False)):
            data = nilpotency_draw(rng, kind, g, d)
            B = MatrixTuple(np.stack([np.linalg.solve(s, m @ s) for m in data]))
            assert is_nilpotent(B) is expected
            assert chain_is_nilpotent(B) is expected


@pytest.mark.parametrize("d", [1, 3])
def test_nilpotent_all_zero_generators(d):
    # no generator survives the scale test, so the first kernel is all of C^d
    assert is_nilpotent(MatrixTuple.zeros(1, d))
    assert is_nilpotent(MatrixTuple.zeros(3, d))
    some = np.zeros((2, d, d), dtype=complex)
    some[1, 0, 0] = 1e-3
    assert not is_nilpotent(MatrixTuple(some))


def test_nilpotent_shift_needs_full_chain():
    # the d x d shift has index exactly d: words of length d - 1 survive
    d = 7
    shift = MatrixTuple.from_matrices([np.eye(d, k=1)])
    assert is_nilpotent(shift)
    assert not is_nilpotent(MatrixTuple.from_matrices([np.eye(d, k=1) + np.eye(d, k=1 - d)]))


# --- incremental span ------------------------------------------------------

def test_span_keeps_orthonormal_rows():
    rng = np.random.default_rng(17)
    span = OrthonormalSpan(12)
    base = complex_gaussian(rng, 6, 12)
    for v in base:
        assert span.add(v, 0.0) is not None
    # nearly dependent vectors still leave q orthonormal to working precision
    for v in base[:3] + 1e-6 * complex_gaussian(rng, 3, 12):
        unit = span.add(v, 0.0)
        assert abs(np.linalg.norm(unit) - 1.0) < 1e-14
    q = span.q
    assert q.shape == (9, 12)
    assert np.max(np.abs(q @ q.conj().T - np.eye(9))) < 1e-13


@pytest.mark.parametrize("dim", [1, 8, 9, 64])
def test_span_rows_survive_buffer_growth(dim):
    rng = np.random.default_rng(dim)
    span = OrthonormalSpan(dim)
    views = []
    for v in complex_gaussian(rng, dim, dim):
        unit = span.add(v, 0.0)
        assert unit is not None
        kept = unit.copy()
        unit[:] = 0  # the caller's own array: the span keeps its row
        assert np.array_equal(span.q[-1], kept)
        views.append((span.q, span.q.copy()))
    q = span.q
    assert q.shape == (dim, dim)
    assert np.max(np.abs(q @ q.conj().T - np.eye(dim))) < 1e-13
    assert span.add(complex_gaussian(rng, dim), 0.0) is None
    assert span.q.shape == (dim, dim)
    # a q read earlier is not changed by later joins or by the buffer growing
    for view, copy in views:
        assert np.array_equal(view, copy)


def test_span_rejects_members_at_floor():
    rng = np.random.default_rng(18)
    span = OrthonormalSpan(4)
    a, b = complex_gaussian(rng, 2, 4)
    span.add(a, 0.0)
    span.add(b, 0.0)
    assert span.add(2 * a - 3j * b, 1e-12) is None
    assert span.add(np.zeros(4), 0.0) is None
    assert len(span.q) == 2
    unit = span.add(a + np.array([0, 0, 0, 1e-3]), 1e-8)
    assert unit is not None
    assert np.max(np.abs(span.q[:2].conj() @ unit)) < 1e-13
    # a full span holds every vector, whatever the floor
    assert span.add(complex_gaussian(rng, 4), 0.0) is not None
    assert span.add(complex_gaussian(rng, 4), 0.0) is None
    assert len(span.q) == 4


def test_span_project_splits_rows():
    rng = np.random.default_rng(19)
    base = complex_gaussian(rng, 4, 10)
    span = OrthonormalSpan(10)
    for v in base:
        span.add(v, 0.0)
    inside = complex_gaussian(rng, 3, 4) @ base
    outside = complex_gaussian(rng, 3, 10)
    coords, rest = span.project(np.vstack([inside, outside]))
    assert coords.shape == (6, 4)
    assert_allclose(coords[:3] @ span.q, inside, atol=1e-13)
    assert np.max(rest[:3]) < 1e-13
    # reference: the least-squares distance from the span of the inputs
    x = np.linalg.lstsq(base.T, outside.T, rcond=None)[0]
    assert_allclose(rest[3:], np.linalg.norm(base.T @ x - outside.T, axis=0), rtol=1e-12)


class ConjugatingSpan(OrthonormalSpan):
    """A reference span whose every read of the conjugate rows conjugates q
    afresh; assignments to them are dropped."""

    _qc = property(lambda self: self.q.conj(), lambda self, value: None)


def test_span_keeps_its_conjugate_rows_bit_for_bit():
    # 16 joins in C^16 pass every doubling of the buffer (1, 2, 4, 8, 16 rows)
    rng = np.random.default_rng(16)
    kept, conjugating = OrthonormalSpan(16), ConjugatingSpan(16)
    for v in complex_gaussian(rng, 16, 16):
        assert np.array_equal(kept.add(v, 0.0), conjugating.add(v, 0.0))
        assert np.array_equal(kept._qc, kept.q.conj())
        # fresh rows, and unit combinations of the span that add_rows skips
        mixed = complex_gaussian(rng, 2, len(kept.q)) @ kept.q
        rows = np.vstack([complex_gaussian(rng, 2, 16), mixed / np.linalg.norm(mixed, axis=1)[:, None]])
        for got, expected in zip(kept.project(rows), conjugating.project(rows)):
            assert np.array_equal(got, expected)
        trial, reference = copy.deepcopy(kept), copy.deepcopy(conjugating)
        for got, expected in zip(trial.add_rows(rows, 1e-14), reference.add_rows(rows, 1e-14)):
            assert (got is None) == (expected is None)
            assert got is None or np.array_equal(got, expected)
        assert np.array_equal(trial.q, reference.q) and np.array_equal(trial._qc, trial.q.conj())
    assert kept.q.shape == (16, 16) and np.array_equal(kept.q, conjugating.q)


@st.composite
def span_batches(draw):
    """A span of 0 to dim rows and a batch of unit rows against it: fresh
    draws, duplicates and unit-phase copies of earlier rows, combinations
    of the span and of earlier rows, such combinations moved off it by 1e-16
    to 1e-12 (around the floors), and zero rows."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.integers(1, 6))
    start = complex_gaussian(rng, draw(st.integers(0, dim)), dim)
    rows = []
    kinds = st.sampled_from(["fresh", "copy", "phase", "mix", "near", "zero"])
    for kind in draw(st.lists(kinds, max_size=12)):
        known = [*start, *rows]
        if kind == "zero":
            rows.append(np.zeros(dim, dtype=complex))
            continue
        if kind == "fresh" or not known:
            row = complex_gaussian(rng, dim)
        elif kind in ("mix", "near"):
            row = complex_gaussian(rng, len(known)) @ np.array(known)
            row /= np.linalg.norm(row) or 1.0
            if kind == "near":
                row = row + 10.0 ** rng.uniform(-16, -12) * complex_gaussian(rng, dim)
        else:
            row = known[rng.integers(len(known))]
            row = row * np.exp(2j * np.pi * rng.random()) if kind == "phase" else row.copy()
        norm = np.linalg.norm(row)
        rows.append(row / norm if norm else row)
    return dim, start, np.array(rows, dtype=complex).reshape(-1, dim)


@settings(max_examples=200, deadline=None)
@given(span_batches(), st.sampled_from([0.0, 1e-14]))
def test_add_rows_is_one_add_per_row_bit_for_bit(batch, floor):
    dim, start, rows = batch
    batched, sequential = OrthonormalSpan(dim), OrthonormalSpan(dim)
    for row in start:
        batched.add(row, floor)
        sequential.add(row, floor)
    units = batched.add_rows(rows, floor)
    assert len(units) == len(rows)
    for row, unit in zip(rows, units):
        expected = sequential.add(row, floor)
        assert (unit is None) == (expected is None)
        if unit is not None:
            assert np.array_equal(unit, expected)
    assert np.array_equal(batched.q, sequential.q)


def test_add_rows_keeps_a_row_between_half_and_twice_the_floor():
    # the row's remainder against the span of e_0, e_1, e_2 is 1.5e-3: above
    # the floor 1e-3, so add keeps it, and above floor / 2, so the screen does too
    floor = 1e-3
    row = np.array([0.6, 0.8j, -0.5, 1.5e-3, 0.0])
    spans = [OrthonormalSpan(5), OrthonormalSpan(5)]
    for span in spans:
        for v in np.eye(3, 5):
            span.add(v, floor)
    unit = spans[0].add(row, floor)
    assert unit is not None and np.array_equal(spans[1].add_rows([row], floor)[0], unit)


@pytest.mark.parametrize("n", [1, 3, 8])
def test_random_unitary_matches_phase_fixed_qr(n):
    # reference: the QR factor whose R has a positive real diagonal
    q, r = np.linalg.qr(complex_gaussian(np.random.default_rng(n), n, n))
    reference = q * (np.diag(r) / np.abs(np.diag(r)))
    u = random_unitary(np.random.default_rng(n), n)
    assert np.max(np.abs(u - reference)) < 1e-13
    assert np.max(np.abs(u.conj().T @ u - np.eye(n))) < 1e-13
