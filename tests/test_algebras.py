import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from convexotonic import (
    ConvexotonicMap,
    DependentInput,
    DomainBreach,
    MapSign,
    MatrixTuple,
    ShapeMismatch,
    SpanViolation,
    algebra_closure,
    convexotonic_residual,
    is_convexotonic,
    is_linearly_independent,
    pencil_structure_constants,
    structure_constants,
    transfer_residual,
    type_i_tuple,
    type_ii_tuple,
    type_iii_tuple,
    type_iv_tuple,
)
from conftest import random_triangular_algebra
from convexotonic import algebras
from convexotonic.algebras import _solve_constants, convexotonic_bound
from convexotonic.linalg import OrthonormalSpan, operator_norm
from convexotonic.sampling import complex_gaussian, random_unitary

E12 = np.array([[0, 1], [0, 0]], dtype=complex)


# --- independence ----------------------------------------------------------

def test_independence_examples(e_tuple, f_tuple):
    assert is_linearly_independent(e_tuple)
    assert is_linearly_independent(f_tuple)
    assert not is_linearly_independent(
        MatrixTuple.from_matrices([np.eye(2), 2 * np.eye(2)])
    )
    # more elements than the dimension are dependent even at tolerance zero
    five = MatrixTuple(complex_gaussian(np.random.default_rng(0), 5, 2, 2))
    assert not is_linearly_independent(five, 0.0)
    assert is_linearly_independent(MatrixTuple(five.data[:4]), 0.0)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.data())
def test_independence_rule(seed, d, data):
    g = data.draw(st.integers(2, d * d), label="g")
    rng = np.random.default_rng(seed)
    T = complex_gaussian(rng, g, d, d)
    planted = T.copy()
    planted[-1] = np.tensordot(complex_gaussian(rng, g - 1), T[:-1], axes=1)
    # the floor scales with the tuple, so no scale flips a verdict (an
    # absolute floor fails at both ends of this range)
    for c in (1e-12, 1e-6, 1.0, 1e6, 1e12):
        assert is_linearly_independent(MatrixTuple(c * T))
        assert not is_linearly_independent(MatrixTuple(c * planted))
    dependent = MatrixTuple(planted)
    for call in (
        structure_constants,
        lambda t: pencil_structure_constants(t, np.eye(d)),
        algebra_closure,
    ):
        with pytest.raises(DependentInput):
            call(dependent)


# --- closure ----------------------------------------------------------------

def test_closure_already_closed(e_tuple):
    closure = algebra_closure(e_tuple)
    assert closure.appended_count == 0
    assert_allclose(closure.extended.data, e_tuple.data)


def test_closure_of_single_shift(f_tuple):
    single = MatrixTuple.from_matrices([f_tuple[0]])
    closure = algebra_closure(single)
    assert closure.appended_count == 1
    assert_allclose(closure.extended[0], f_tuple[0])  # original slot untouched
    # the appended element spans the shift squared
    appended = closure.extended[1]
    square = f_tuple[0] @ f_tuple[0]
    overlap = abs(np.vdot(appended, square)) / (
        np.linalg.norm(appended) * np.linalg.norm(square)
    )
    assert overlap == pytest.approx(1.0, abs=1e-12)


def test_closure_identity_trivial():
    closure = algebra_closure(MatrixTuple.from_matrices([np.eye(3)]))
    assert closure.appended_count == 0


def test_closure_idempotent():
    rng = np.random.default_rng(5)
    first = random_triangular_algebra(rng, 4, 2)
    again = algebra_closure(first)
    assert again.appended_count == 0


def test_closure_dimension_bound():
    rng = np.random.default_rng(9)
    for _ in range(5):
        ext = random_triangular_algebra(rng, 4, 3)
        assert ext.g <= 16
        assert is_linearly_independent(ext)


def test_closure_requires_independent():
    dep = MatrixTuple.from_matrices([np.eye(2), 3 * np.eye(2)])
    with pytest.raises(DependentInput):
        algebra_closure(dep)


# --- structure constants ----------------------------------------------------

def test_constants_nilpotent_pair(f_tuple):
    sc = structure_constants(f_tuple)
    assert_allclose(sc.xi[0], E12, atol=1e-14)
    assert_allclose(sc.xi[1], np.zeros((2, 2)), atol=1e-14)
    assert sc.residual < 1e-13
    assert convexotonic_residual(sc.xi) < 1e-13


def test_constants_unit_jordan_reproduces_itself(e_tuple):
    sc = structure_constants(e_tuple)
    assert_allclose(sc.xi.data, e_tuple.data, atol=1e-13)


def test_constants_corner_pair(r2_tuple):
    sc = structure_constants(r2_tuple)
    assert_allclose(sc.xi.data, r2_tuple.data, atol=1e-14)


def test_constants_scalar_unit():
    sc = structure_constants(MatrixTuple.scalar([1]))
    assert_allclose(sc.xi[0], np.array([[1.0]]))


def test_constants_reconstruct_products(f_tuple, r3_tuple):
    # independent oracle: the defining relation itself
    for t in (f_tuple, r3_tuple):
        sc = structure_constants(t)
        for k in range(t.g):
            for j in range(t.g):
                recon = sum(sc.xi[j][k, s] * t[s] for s in range(t.g))
                assert np.linalg.norm(t[k] @ t[j] - recon) < 1e-12


def test_constants_span_violation():
    # product of the corner pair is a projection outside the span
    not_algebra = MatrixTuple.from_matrices([E12, E12.T])
    with pytest.raises(SpanViolation):
        structure_constants(not_algebra)


# --- sandwiched products ----------------------------------------------------

def test_pencil_constants_reduce_to_plain(e_tuple):
    plain = structure_constants(e_tuple)
    sandwiched = pencil_structure_constants(e_tuple, np.eye(2))
    assert_allclose(sandwiched.xi.data, plain.xi.data, atol=1e-13)


def test_pencil_constants_rectangular():
    f = MatrixTuple.from_matrices([np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])])
    c = np.array([[1.0], [0.0]])
    sc = pencil_structure_constants(f, c)
    assert_allclose(sc.xi[0], np.array([[1, 0], [0, 0]]), atol=1e-14)
    assert_allclose(sc.xi[1], np.array([[0, 1], [0, 0]]), atol=1e-14)
    assert convexotonic_residual(sc.xi) < 1e-13


def test_pencil_constants_span_violation(e_tuple):
    swap = np.array([[0, 1], [1, 0]], dtype=complex)
    with pytest.raises(SpanViolation):
        pencil_structure_constants(e_tuple, swap)


def test_pencil_constants_shape_check(e_tuple):
    with pytest.raises(ShapeMismatch):
        pencil_structure_constants(e_tuple, np.eye(3))


# --- convexotonic residual ---------------------------------------------------

def test_convexotonic_zero_tuple():
    assert convexotonic_residual(MatrixTuple.zeros(2, 2)) == 0.0


def test_convexotonic_nilpotent_constants():
    xi = MatrixTuple.from_matrices([E12, np.zeros((2, 2))])
    assert convexotonic_residual(xi) == 0.0
    assert is_convexotonic(xi)


@pytest.mark.parametrize("alpha", [1.0, 1j, -1.0])
def test_convexotonic_composed_tuple(alpha):
    xi = MatrixTuple.from_matrices([alpha * np.eye(2) + E12, alpha * E12])
    assert convexotonic_residual(xi) < 1e-14


def test_convexotonic_shape_check():
    with pytest.raises(ShapeMismatch):
        convexotonic_residual(MatrixTuple.zeros(2, 3))


# --- pipeline properties -----------------------------------------------------

def test_random_triangular_pipeline():
    rng = np.random.default_rng(101)
    for _ in range(20):
        d = int(rng.integers(2, 6))
        g = int(rng.integers(1, 5))
        ext = random_triangular_algebra(rng, d, g)
        sc = structure_constants(ext)
        assert sc.residual < 1e-10
        assert convexotonic_residual(sc.xi) < 1e-9


def test_constants_unique_under_permutation():
    rng = np.random.default_rng(55)
    ext = random_triangular_algebra(rng, 4, 2)
    sc = structure_constants(ext)
    perm = rng.permutation(ext.g)
    permuted = MatrixTuple(ext.data[perm])
    sc_p = structure_constants(permuted)
    # map the permuted coefficients back and compare entrywise
    for jp in range(ext.g):
        for kp in range(ext.g):
            for sp in range(ext.g):
                assert sc_p.xi[jp][kp, sp] == pytest.approx(
                    sc.xi[perm[jp]][perm[kp], perm[sp]], abs=1e-9
                )


def test_constants_similarity_covariant(f_tuple):
    rng = np.random.default_rng(77)
    s = np.eye(3) + 0.3 * complex_gaussian(rng, 3, 3)
    s_inv = np.linalg.inv(s)
    conj = MatrixTuple(np.stack([s_inv @ f_tuple[j] @ s for j in range(2)]))
    sc = structure_constants(f_tuple)
    sc_conj = structure_constants(conj)
    assert np.max(np.abs(sc.xi.data - sc_conj.xi.data)) < 1e-8


# --- incremental closure ----------------------------------------------------

def pair(seed, d, kind):
    data = complex_gaussian(np.random.default_rng(seed), 2, d, d)
    return MatrixTuple(np.triu(data) if kind == "ut" else data)


def test_closure_appends_orthonormal_remainders():
    A = pair(4, 4, "full")
    closure = algebra_closure(A)
    assert closure.appended_count == 14
    assert closure.orthonormalized == (True,) * 14
    ext = closure.extended.flatten()
    assert np.array_equal(ext[:2], A.flatten())
    new = ext[2:]
    assert np.max(np.abs(new.conj() @ new.T - np.eye(14))) < 1e-13
    assert np.max(np.abs(new.conj() @ ext[:2].T)) < 1e-13


def test_closure_of_random_7x7_pair_is_convexotonic():
    # a closure that appends raw products gives xi entries ~1e4 and residual 2.7e-7 here
    A = MatrixTuple(complex_gaussian(np.random.default_rng(0), 2, 7, 7))
    J = algebra_closure(A).extended
    assert J.g == 49
    sc = structure_constants(J)
    assert convexotonic_residual(sc.xi) <= 1e-12
    assert convexotonic_residual(ConvexotonicMap(sc.xi).xi) <= 1e-12


def test_closure_multiplies_both_orders():
    # left multiplication reaches both orders: E21 @ E12 = E22 from the word
    # E12, E12 @ E21 = E11 from the word E21
    closure = algebra_closure(MatrixTuple.from_matrices([E12, E12.T]))
    assert closure.appended_count == 2
    assert closure.extended.g == 4
    assert is_linearly_independent(closure.extended)


def test_closure_of_7x7_pair_makes_g_products_per_element(monkeypatch):
    # g products per element: the 2 generators join, then 2 products for each of 49
    floors = []
    add = OrthonormalSpan.add

    def counted_add(self, vec, floor):
        floors.append(floor)
        return add(self, vec, floor)

    monkeypatch.setattr(OrthonormalSpan, "add", counted_add)
    J = algebra_closure(MatrixTuple(complex_gaussian(np.random.default_rng(0), 2, 7, 7))).extended
    assert len(floors) <= 2 + 2 * 49
    assert set(floors[2:]) == {1e-8}  # unit factors: the product rule's bound is tol
    assert J.g == 49
    assert convexotonic_residual(structure_constants(J).xi) <= 1e-12


def test_closure_words_do_not_pin_copies_of_the_span(monkeypatch):
    # a word that viewed the span's rows would keep every outgrown buffer
    # alive until the closure returns
    A = MatrixTuple(complex_gaussian(np.random.default_rng(0), 2, 10, 10))
    tracemalloc.start()
    try:
        assert algebra_closure(A).extended.g == 100
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    shared = []
    add = OrthonormalSpan.add

    def recorded_add(self, vec, floor):
        unit = add(self, vec, floor)
        if unit is not None:
            shared.append(np.shares_memory(unit, self.q))
        return unit

    monkeypatch.setattr(OrthonormalSpan, "add", recorded_add)
    algebra_closure(A)
    assert len(shared) == 100 and not any(shared)


def pairs_closure(A, tol=1e-8):
    """Reference: the all-pairs closure. When element i joins, its products
    with elements 0..i are formed in both orders, and a product joins when its
    remainder exceeds max(tol * ||product||_F, 1e-12)."""
    d = A.rows
    span = OrthonormalSpan(d * d)
    for row in A.flatten():
        assert span.add(row, tol * np.linalg.norm(row)) is not None
    basis = list(A.data)
    for i, new in enumerate(basis):
        for k in range(i + 1):
            products = [new @ basis[k]] if k == i else [new @ basis[k], basis[k] @ new]
            for product in products:
                unit = span.add(product, max(tol * np.linalg.norm(product), 1e-12))
                if unit is not None:
                    basis.append(unit.reshape(d, d))
    return MatrixTuple.from_matrices(basis)


def projector(T):
    """Orthogonal projector onto the span of the flattened tuple."""
    q = np.linalg.qr(T.flatten().T)[0]
    return q @ q.conj().T


def assert_closure_matches_pairs(A):
    closure, reference = algebra_closure(A), pairs_closure(A)
    assert closure.appended_count == reference.g - A.g
    assert np.max(np.abs(projector(closure.extended) - projector(reference))) <= 1e-10


ORACLE_KINDS = st.one_of(
    st.tuples(st.sampled_from(["ut", "full", "similar"]), st.integers(2, 6)),
    st.tuples(st.just("strict"), st.integers(3, 8)),
)


def oracle_input(seed, kind, d):
    """The closure oracle's inputs: a strictly upper-triangular triple, an
    upper-triangular pair conjugated by S with cond(S) <= 10, or a pair."""
    rng = np.random.default_rng(seed)
    if kind == "strict":
        return MatrixTuple(np.triu(complex_gaussian(rng, 3, d, d), 1))
    if kind == "similar":
        # S = U diag(s) V with s in [1, 10], so cond(S) <= 10
        s = random_unitary(rng, d) * rng.uniform(1, 10, d) @ random_unitary(rng, d)
        return MatrixTuple(np.linalg.solve(s, np.triu(complex_gaussian(rng, 2, d, d)) @ s))
    return pair(seed, d, kind)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), ORACLE_KINDS)
@example(0, ("full", 6))
@example(0, ("strict", 8))
def test_closure_by_words_matches_all_pairs(seed, kind_and_d):
    assert_closure_matches_pairs(oracle_input(seed, *kind_and_d))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), ORACLE_KINDS)
@example(0, ("full", 6))
@example(0, ("strict", 8))
def test_closure_constants_match_the_rebuilt_span(seed, kind_and_d):
    # the constants of a closure reuse the span it grew; an equal copy of the
    # closure rebuilds that span element by element
    J = algebra_closure(oracle_input(seed, *kind_and_d)).extended
    _, span = algebras._RECORDS[J].span
    assert span is not None
    reused, rebuilt = structure_constants(J), structure_constants(MatrixTuple(J.data))
    assert np.max(np.abs(reused.xi.data - rebuilt.xi.data)) <= 1e-12 * max(
        1.0, np.max(np.abs(rebuilt.xi.data))
    )
    assert abs(reused.residual - rebuilt.residual) <= 1e-12


@pytest.mark.parametrize(
    "A",
    [
        MatrixTuple.from_matrices([E12, E12.T]),
        MatrixTuple.from_matrices([type_i_tuple()[0]]),
        MatrixTuple.from_matrices([np.eye(3)]),
        type_i_tuple(),
        type_ii_tuple(),
        type_iii_tuple(),
        type_iv_tuple(),
    ],
    ids=["e12-e21", "shift3", "eye3", "type-i", "type-ii", "type-iii", "type-iv"],
)
def test_closure_by_words_matches_all_pairs_examples(A):
    assert_closure_matches_pairs(A)


# --- the product rule is scale-free --------------------------------------------

SCALES = (1e-13, 1e-8, 1e-6, 1e-3, 1.0, 1e3, 1e6)

SCALE_CASES = {
    "full5": pair(7, 5, "full"),
    "ut6": pair(7, 6, "ut"),
    "strict6": MatrixTuple(np.triu(complex_gaussian(np.random.default_rng(7), 3, 6, 6), 1)),
    "shift3": MatrixTuple.from_matrices([type_i_tuple()[0]]),
}


@pytest.mark.parametrize("name", SCALE_CASES)
def test_closure_dimension_does_not_depend_on_scale(name):
    # every factor is unit-norm, so c cancels from each remainder test
    A = SCALE_CASES[name]
    unit = algebra_closure(A).appended_count
    assert unit > 0
    for c in SCALES:
        assert algebra_closure(MatrixTuple(c * A.data)).appended_count == unit, c


@pytest.mark.parametrize("name", SCALE_CASES)
def test_scaled_closure_spans_a_convexotonic_algebra(name):
    # c-scale generators sit next to unit-norm appended elements; the
    # constants reuse the span the closure certified element by element
    A = SCALE_CASES[name]
    for c in SCALES:
        J = algebra_closure(MatrixTuple(c * A.data)).extended
        assert is_convexotonic(structure_constants(J).xi), c


@pytest.mark.parametrize("c", SCALES)
def test_non_algebra_is_refused_at_every_scale(c):
    # E12 @ E21 = E11 leaves the span by the full size of its factors
    with pytest.raises(SpanViolation):
        structure_constants(MatrixTuple(c * np.stack([E12, E12.T])))


def similarity(rng, d):
    """S = U diag(s) V with s in [1, 10], so cond(S) <= 10."""
    return random_unitary(rng, d) * rng.uniform(1, 10, d) @ random_unitary(rng, d)


def certificate_verdicts(J):
    """Independence, span, convexotonic and map acceptance of J; the
    convexotonic verdict must come from the associativity bound alone."""
    independent = is_linearly_independent(J)
    try:
        xi = structure_constants(J).xi
    except SpanViolation:
        return independent, False, None, None
    convexotonic = is_convexotonic(xi)
    try:
        ConvexotonicMap(xi, MapSign.PLUS)
        accepted = True
    except ValueError:
        accepted = False
    assert algebras._RECORDS[xi].residual is None  # the exact residual never ran
    return independent, True, convexotonic, accepted


@settings(max_examples=6, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["ut", "full"]), st.integers(2, 6))
@example(0, "full", 6)
def test_certificate_verdicts_do_not_depend_on_scale_or_similarity(seed, kind, d):
    # a closed algebra passes every certificate; dropping its last element
    # leaves an independent tuple whose products leave its span
    J = algebra_closure(pair(seed, d, kind)).extended
    s = similarity(np.random.default_rng(seed), d)
    for T, want in ((J, (True, True, True, True)), (MatrixTuple(J.data[:-1]), (True, False, None, None))):
        assert certificate_verdicts(T) == want
        for c in SCALES:
            assert certificate_verdicts(MatrixTuple(c * T.data)) == want, c
        assert certificate_verdicts(MatrixTuple(np.linalg.solve(s, T.data @ s))) == want


@pytest.mark.parametrize("c", [1.0, 1e3, 1e6])
@pytest.mark.parametrize("make", [type_iv_tuple, type_i_tuple], ids=["type-iv", "type-i"])
def test_rotated_algebra_is_accepted_at_large_scale(make, c):
    # rounding leaves B_2^2 of rotated type IV at ~6e-11 for c = 1e3: small
    # next to its factors, not next to an absolute floor
    E = make()
    M = random_unitary(np.random.default_rng(3), E.rows)
    B = MatrixTuple(M.conj().T @ (c * E.data) @ M)
    assert is_convexotonic(structure_constants(B).xi)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.sampled_from(["ut", "full"]))
def test_closure_is_idempotent(seed, d, kind):
    first = algebra_closure(pair(seed, d, kind)).extended
    again = algebra_closure(first)
    assert again.appended_count == 0
    assert np.array_equal(again.extended.data, first.data)


@settings(max_examples=12, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.one_of(
        st.tuples(st.just("ut"), st.integers(2, 8)),
        st.tuples(st.just("full"), st.integers(2, 6)),
    ),
)
@example(0, ("ut", 8))
@example(0, ("full", 6))
def test_closures_are_convexotonic(seed, kind_and_d):
    kind, d = kind_and_d
    J = algebra_closure(pair(seed, d, kind)).extended
    assert J.g == (d * (d + 1) // 2 if kind == "ut" else d * d)
    sc = structure_constants(J)
    assert convexotonic_residual(sc.xi) <= 1e-12
    assert is_convexotonic(sc.xi, 1e-12)


# --- vectorised constants and residual ---------------------------------------

def test_constants_reshape_matches_loop():
    J = algebra_closure(pair(6, 3, "ut")).extended
    g = J.g
    assert g == 6
    products = np.einsum("kab,jbc->kjac", J.data, J.data)
    # reference: least squares on the flattened basis, one column per (k, j)
    rhs = products.reshape(g * g, -1).T
    coeff = np.linalg.lstsq(J.flatten().T, rhs, rcond=None)[0]
    loop = np.empty((g, g, g), dtype=complex)
    for k in range(g):
        for j in range(g):
            loop[j, k, :] = coeff[:, k * g + j]
    xi, _ = _solve_constants(J, 1e-8, "test")
    assert np.max(np.abs(xi.data - loop)) <= 1e-12 * np.max(np.abs(loop))


def solved_products(call, *args):
    """The product rows that _solve_constants projects onto the span (its
    first project call), and the constants it returns."""
    seen = []
    project = OrthonormalSpan.project

    def recorded(self, rows):
        seen.append(np.array(rows))
        return project(self, rows)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(OrthonormalSpan, "project", recorded)
        sc = call(*args)
    return seen[0], sc


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.one_of(
        st.tuples(st.sampled_from(["ut", "full"]), st.integers(2, 6)),
        st.tuples(st.just("strict"), st.integers(3, 6)),
    ),
    st.booleans(),
)
def test_batched_products_match_an_einsum_reference(seed, kind_and_d, middle):
    # matmul sums in another order than einsum, so the two agree to rounding:
    # within 1e-15 times the Frobenius norms of the two factors
    J = MatrixTuple(algebra_closure(oracle_input(seed, *kind_and_d)).extended.data)
    if middle:  # an element of the algebra keeps the sandwiched products in it
        C = np.tensordot(complex_gaussian(np.random.default_rng(seed), J.g), J.data, axes=1)
        rows, sc = solved_products(pencil_structure_constants, J, C)
        right = C @ J.data
    else:
        rows, sc = solved_products(structure_constants, J)
        right = J.data
    reference = np.einsum("kab,jbc->kjac", J.data, right).reshape(J.g**2, -1)
    factors = np.outer(np.linalg.norm(J.data, axis=(1, 2)), np.linalg.norm(right, axis=(1, 2)))
    assert np.all(np.max(np.abs(rows - reference), axis=1) <= 1e-15 * factors.reshape(-1))
    assert sc.residual <= 1e-12 * np.max(factors)


def test_constants_of_a_full_closure_peak_below_three_and_a_half_g_cubed():
    # for a full closure the products, their coordinates, the solved constants,
    # xi and the batched remainder product each hold g^3 entries, and at most
    # three are alive at once; flattening xi for a 2-d remainder product would
    # copy g^3 more
    J = algebra_closure(pair(8, 8, "full")).extended
    assert J.g == 64
    tracemalloc.start()
    try:
        structure_constants(J)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * J.g**3 * 16


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["ut", "full"]), st.integers(2, 5),
       st.floats(0.0, 2.0))
def test_closures_and_constants_do_not_depend_on_similarity(seed, kind, d, log_kappa):
    # S^-1 A S generates the conjugated algebra, so its closure has the same
    # dimension, and a conjugated basis has the same constants; S = U diag(s) V
    # with s log-spaced from 1 to cond(S) = 10**log_kappa <= 1e2
    rng = np.random.default_rng(seed)
    s = random_unitary(rng, d) * np.logspace(0.0, log_kappa, d) @ random_unitary(rng, d)
    A = pair(seed, d, kind)
    J = algebra_closure(A).extended
    assert algebra_closure(MatrixTuple(np.linalg.solve(s, A.data @ s))).extended.g == J.g
    xi = structure_constants(J).xi.data
    similar = structure_constants(MatrixTuple(np.linalg.solve(s, J.data @ s))).xi.data
    assert np.max(np.abs(similar - xi)) <= 1e-10 * np.max(np.abs(xi))


def double_loop_residual(xi):
    """Reference: the SVD of every defect block."""
    worst = 0.0
    for j in range(xi.g):
        rhs = np.einsum("ks,sab->kab", xi.data[j], xi.data)
        for k in range(xi.g):
            worst = max(worst, operator_norm(xi.data[k] @ xi.data[j] - rhs[k]))
    return worst


def test_residual_matches_double_loop():
    J = algebra_closure(pair(3, 6, "ut")).extended
    assert J.g == 21
    xi = structure_constants(J).xi
    reference = double_loop_residual(xi)
    # the defect blocks sum in another order, so they agree to rounding
    assert abs(convexotonic_residual(xi) - reference) <= 1e-14
    rough = MatrixTuple(complex_gaussian(np.random.default_rng(21), 21, 21, 21))
    assert convexotonic_residual(rough) == pytest.approx(double_loop_residual(rough), rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 6))
def test_residual_screen_keeps_the_maximum(seed, g):
    # blocks of mixed rank and scale: a low-rank block with a smaller
    # Frobenius norm can still hold the largest 2-norm
    rng = np.random.default_rng(seed)
    xi = complex_gaussian(rng, g, g, g) * rng.uniform(0.1, 1.0, (g, 1, 1))
    xi[:, :, rng.integers(g) :] *= rng.uniform(0.0, 0.3)
    xi = MatrixTuple(xi)
    assert convexotonic_residual(xi) == pytest.approx(double_loop_residual(xi), rel=1e-12)


# --- certificates computed once per tuple object -------------------------------

@pytest.fixture
def counts(monkeypatch):
    """Solves and residual SVDs made while the test runs."""
    counts = {"solve": 0, "svd": 0}
    solve, svd = algebras._solve_constants, algebras.operator_norm

    def counted_solve(*args):
        counts["solve"] += 1
        return solve(*args)

    def counted_svd(m):
        counts["svd"] += 1
        return svd(m)

    monkeypatch.setattr(algebras, "_solve_constants", counted_solve)
    monkeypatch.setattr(algebras, "operator_norm", counted_svd)
    return counts


def svds_of_one_residual(counts, xi):
    """SVDs that one residual of an equal but fresh copy of xi runs."""
    before = counts["svd"]
    convexotonic_residual(MatrixTuple(xi.data))
    return counts["svd"] - before


def test_one_tuple_is_certified_once(counts):
    # the algebra workload's sequence: constants, the map, both transfer signs;
    # acceptance passes on the associativity bound and runs no residual SVD
    J = algebra_closure(pair(5, 3, "ut")).extended
    sc = structure_constants(J)
    cmap = ConvexotonicMap(sc.xi, MapSign.PLUS)
    x = complex_gaussian(np.random.default_rng(5), J.g, 2, 2)
    point = MatrixTuple(x / (4 * np.linalg.norm(J.data) * np.linalg.norm(x)))
    for sign in (MapSign.PLUS, MapSign.MINUS):
        assert transfer_residual(J, point, sign) < 1e-12
    assert structure_constants(J) is sc
    assert counts == {"solve": 1, "svd": 0}
    # the first read runs the exact residual once; later reads reuse it
    first = convexotonic_residual(sc.xi)
    assert convexotonic_residual(cmap.xi) == convexotonic_residual(sc.xi) == first
    svds = counts["svd"]
    assert svds == svds_of_one_residual(counts, sc.xi) > 0


def test_equal_but_distinct_tuple_is_certified_again(counts):
    # a copy of the closure, so that neither solve reuses the closure's span
    J = MatrixTuple(algebra_closure(pair(5, 3, "ut")).extended.data)
    first = structure_constants(J)
    second = structure_constants(MatrixTuple(J.data))
    assert first is not second
    assert np.array_equal(first.xi.data, second.xi.data)
    assert counts == {"solve": 2, "svd": 0}
    assert convexotonic_residual(first.xi) == convexotonic_residual(second.xi)
    svds = svds_of_one_residual(counts, first.xi)
    assert counts == {"solve": 2, "svd": 3 * svds} and svds > 0


def test_full_d10_closure_is_certified_without_the_exact_residual(counts):
    J = algebra_closure(pair(10, 10, "full")).extended
    assert J.g == 100
    sc = structure_constants(J)
    ConvexotonicMap(sc.xi, MapSign.PLUS)
    x = complex_gaussian(np.random.default_rng(10), J.g, 2, 2)
    point = MatrixTuple(x / (4 * np.linalg.norm(J.data) * np.linalg.norm(x)))
    for sign in (MapSign.PLUS, MapSign.MINUS):
        assert transfer_residual(J, point, sign) < 1e-10
    assert counts == {"solve": 1, "svd": 0}


def test_failures_are_raised_on_every_call(counts):
    not_algebra = MatrixTuple.from_matrices([E12, E12.T])
    dependent = MatrixTuple.from_matrices([np.eye(2), 2 * np.eye(2)])
    for bad, error in ((not_algebra, SpanViolation), (dependent, DependentInput)):
        for _ in range(2):
            with pytest.raises(error):
                structure_constants(bad)
    assert counts == {"solve": 4, "svd": 0}


def test_a_closure_span_is_reused_only_at_its_tol_or_below():
    # I + 1e-5 E12 joins I at the closure's tol 1e-8 but lies within 1e-3 of
    # it: the closure certified independence at its own tol only
    J = algebra_closure(MatrixTuple.from_matrices([np.eye(2), np.eye(2) + 1e-5 * E12])).extended
    assert J.g == 2 and structure_constants(J, 1e-12).residual < 1e-15
    with pytest.raises(DependentInput):
        structure_constants(J, 1e-3)


@pytest.mark.parametrize(
    "solve",
    [structure_constants, lambda J: pencil_structure_constants(J, np.eye(2))],
    ids=["plain", "sandwiched"],
)
def test_overflowing_products_are_refused_by_name(e_tuple, solve):
    # the squares of 1e100 * E leave the float range: their residual was inf,
    # which reached stdout as the JSON token Infinity
    big = MatrixTuple(1e100 * e_tuple.data)
    for _ in range(2):
        with pytest.raises(DomainBreach, match="the products overflow"):
            solve(big)
    assert big not in algebras._RECORDS


def test_a_nan_residual_is_refused(monkeypatch, e_tuple):
    # NaN fails every comparison, so the span test alone would accept it
    project = OrthonormalSpan.project

    def poisoned(span, rows):
        coords, residuals = project(span, rows)
        return coords, np.full_like(residuals, np.nan)

    monkeypatch.setattr(OrthonormalSpan, "project", poisoned)
    with pytest.raises(DomainBreach, match="the products overflow"):
        structure_constants(MatrixTuple(e_tuple.data))


def test_tighter_tol_after_a_looser_success_still_raises():
    # (I + eps E11)^2 leaves span{I + eps E11, E12} by about eps
    rough = MatrixTuple.from_matrices([np.diag([1 + 1e-6, 1]), E12])
    assert structure_constants(rough, 1e-3).residual > 1e-8
    with pytest.raises(SpanViolation):
        structure_constants(rough, 1e-10)
    assert structure_constants(rough, 1e-3) is structure_constants(rough, 1e-3)


def test_dropped_tuple_leaves_no_memo_entry(e_tuple):
    # every kind of record: constants at two tols with their xi (type IV, g = d,
    # no route); a closure's extended tuple (span set); and a copy of it, with
    # d < g, whose xi holds a route
    records = algebras._RECORDS
    J = MatrixTuple(e_tuple.data)
    xis = [structure_constants(J).xi, structure_constants(J, 1e-12).xi]
    rng = np.random.default_rng(0)
    closed = algebra_closure(MatrixTuple(np.triu(complex_gaussian(rng, 2, 3, 3)))).extended
    copy = MatrixTuple(closed.data)
    routed = structure_constants(copy).xi
    assert set(records[J].constants) == {1e-8, 1e-12}
    assert [records[xi].route for xi in xis] == [None, None]
    assert records[closed].span[1] is not None and records[copy].span[1] is None
    assert copy.rows < copy.g and records[routed].route[0] is not copy
    kept = [J, *xis, closed, copy, routed]
    assert all(t in records for t in kept)
    size = len(records)
    refs = [weakref.ref(t) for t in kept]
    del J, xis, closed, copy, routed, kept
    gc.collect()
    assert [ref() for ref in refs] == [None] * 6
    assert len(records) <= size - 6


@pytest.mark.parametrize("c", [1e-3, 1.0, 1e3])
def test_convexotonic_verdict_follows_scale(c):
    # the defect is quadratic in xi: at c = 1e3 this closure's residual is ~4e-8,
    # above the absolute 1e-8 but within 1e-8 * max_j ||xi_j||_F^2
    J = algebra_closure(MatrixTuple(complex_gaussian(np.random.default_rng(0), 2, 7, 7))).extended
    xi = structure_constants(MatrixTuple(c * J.data)).xi
    assert is_convexotonic(xi)
    assert convexotonic_residual(ConvexotonicMap(xi, MapSign.PLUS).xi) == convexotonic_residual(xi)
    bad = MatrixTuple(c * MatrixTuple.from_matrices([E12, E12.T]).data)
    assert not is_convexotonic(bad)
    with pytest.raises(ValueError):
        ConvexotonicMap(bad)


def test_conjugated_square_zero_pair_is_accepted():
    # span{E13, E23} squares to zero; after a similarity its products, and so
    # xi, are rounding noise, which the absolute floor of the bound accepts
    s = complex_gaussian(np.random.default_rng(1), 1, 3, 3)[0] + 3 * np.eye(3)
    s_inv = np.linalg.inv(s)
    e13, e23 = np.zeros((3, 3)), np.zeros((3, 3))
    e13[0, 2] = e23[1, 2] = 1.0
    J = MatrixTuple.from_matrices([s_inv @ e13 @ s, s_inv @ e23 @ s])
    xi = structure_constants(J).xi
    assert 0.0 < np.max(np.abs(xi.data)) < 1e-14
    assert is_convexotonic(xi)
    assert convexotonic_residual(ConvexotonicMap(xi, MapSign.PLUS).xi) <= 1e-8


# --- the associativity bound -------------------------------------------------

def assert_bound_decides_like_the_residual(J):
    """The bound stored for the constants of J is at least their exact
    residual, and is_convexotonic and ConvexotonicMap give the verdict of
    that residual at every tol, each on constants of its own."""
    xi = structure_constants(MatrixTuple(J.data)).xi
    bound = algebras._RECORDS[xi].bound
    exact = convexotonic_residual(MatrixTuple(xi.data))  # a copy has no bound
    assert exact <= bound
    for tol in (1e-8, 1e-12, 1e-14, 1e-16):
        verdict = exact <= convexotonic_bound(xi, tol)
        assert is_convexotonic(structure_constants(MatrixTuple(J.data)).xi, tol) is verdict
        try:
            ConvexotonicMap(structure_constants(MatrixTuple(J.data)).xi, MapSign.PLUS, tol)
            accepted = True
        except ValueError:
            accepted = False
        assert accepted is verdict, tol


@settings(max_examples=25, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.one_of(
        st.tuples(st.sampled_from(["ut", "full", "similar"]), st.integers(2, 6)),
        st.tuples(st.just("nil"), st.integers(3, 8)),
    ),
)
@example(0, ("full", 6))
@example(0, ("nil", 8))
def test_bound_covers_the_residual_of_closures(seed, kind_and_d):
    kind, d = kind_and_d
    rng = np.random.default_rng(seed)
    if kind == "nil":
        A = MatrixTuple(np.triu(complex_gaussian(rng, 3, d, d), 1))
    elif kind == "similar":
        s = similarity(rng, d)
        A = MatrixTuple(np.linalg.solve(s, np.triu(complex_gaussian(rng, 2, d, d)) @ s))
    else:
        A = pair(seed, d, kind)
    assert_bound_decides_like_the_residual(algebra_closure(A).extended)


@pytest.mark.parametrize(
    "J",
    [type_i_tuple(), type_ii_tuple(), type_iii_tuple(), type_iv_tuple(),
     algebra_closure(MatrixTuple.from_matrices([E12, E12.T])).extended,
     algebra_closure(MatrixTuple.from_matrices([type_i_tuple()[0]])).extended],
    ids=["type-i", "type-ii", "type-iii", "type-iv", "m2", "shift3"],
)
def test_bound_covers_the_residual_of_the_catalog(J):
    assert_bound_decides_like_the_residual(J)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(3, 6))
def test_bound_covers_the_residual_of_conjugated_square_zero_pairs(seed, d):
    # span{E1d, E2d} squares to zero: the constants are rounding noise
    e1, e2 = np.zeros((d, d)), np.zeros((d, d))
    e1[0, -1] = e2[1, -1] = 1.0
    s = similarity(np.random.default_rng(seed), d)
    J = MatrixTuple(np.linalg.solve(s, np.stack([e1, e2]) @ s))
    assert_bound_decides_like_the_residual(J)
