import gc
import math
import weakref
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import convexotonic.algebras
from convexotonic import maps
from convexotonic import (
    ConvexotonicMap,
    DomainBreach,
    MapSign,
    MatrixTuple,
    NotSquare,
    Spectrahedron,
    algebra_closure,
    boundary_scale,
    convexotonic_residual,
    jacobian_at_zero,
    pencil_eval,
    structure_constants,
    transfer_residual,
    type_iv_tuple,
)
from conftest import (
    corpus_algebras,
    dense_path,
    half_norm_point,
    inv_calls,
    random_triangular_algebra,
    traced_peak,
)
from convexotonic.algebras import _RECORDS, _Record
from convexotonic.linalg import BLOCK_LEVEL
from convexotonic.sampling import complex_gaussian, random_directions, random_unitary

E12 = np.array([[0, 1], [0, 0]], dtype=complex)


def stored_route(xi):
    """The route field of xi's record, None where xi has no record."""
    return _RECORDS.get(xi, _Record()).route


def scalar(*values):
    return MatrixTuple.scalar(list(values))


def tuple_gap(a, b):
    return float(np.max(np.abs(a.data - b.data)))


def corpus_point(rng, J, n, frac=0.5):
    """Point scaled to frac of the smaller of the two boundary scales."""
    from convexotonic import Spectraball

    while True:
        x = MatrixTuple(random_directions(rng, J.g, n, 1)[0])
        scales = [
            boundary_scale(Spectraball(J), x),
            boundary_scale(Spectrahedron(J), x),
        ]
        finite = [s for s in scales if math.isfinite(s)]
        if finite:
            return MatrixTuple(frac * min(finite) * x.data)


# --- evaluation -------------------------------------------------------------

def test_zero_tuple_is_identity():
    cmap = ConvexotonicMap(MatrixTuple.zeros(2, 2), MapSign.PLUS)
    rng = np.random.default_rng(1)
    x = MatrixTuple(complex_gaussian(rng, 2, 3, 3))
    assert tuple_gap(cmap(x), x) == 0.0


def test_type_iv_scalar_closed_form(e_tuple):
    t, s = 0.4, -0.2
    out = ConvexotonicMap(e_tuple, MapSign.PLUS)(scalar(t, s))
    assert out[0][0, 0] == pytest.approx(t / (1 + t))
    assert out[1][0, 0] == pytest.approx(s / (1 + t) ** 2)


def test_type_i_scalar_both_signs(f_tuple):
    xi = structure_constants(f_tuple).xi
    t, s = 0.3, 0.7
    p = ConvexotonicMap(xi, MapSign.MINUS)(scalar(t, s))
    q = ConvexotonicMap(xi, MapSign.PLUS)(scalar(t, s))
    assert p[1][0, 0] == pytest.approx(s + t**2)
    assert q[1][0, 0] == pytest.approx(s - t**2)


def test_type_ii_scalar_closed_form(r2_tuple):
    t, s = 0.25, -0.6
    out = ConvexotonicMap(r2_tuple, MapSign.PLUS)(scalar(t, s))
    assert out[0][0, 0] == pytest.approx(t / (1 + t))
    assert out[1][0, 0] == pytest.approx(s / (1 + t))


def test_map_rejects_non_convexotonic():
    bad = MatrixTuple.from_matrices([E12, E12.T])
    with pytest.raises(ValueError):
        ConvexotonicMap(bad, MapSign.PLUS)
    with pytest.raises(TypeError):  # the residual is always computed, never passed in
        ConvexotonicMap(bad, MapSign.PLUS, residual=0.0)


def solve_einsum_map(cmap, X):
    """Reference evaluation: 2-norm condition check, solve against the
    identity, then the blockwise contraction."""
    lam = pencil_eval(cmap.xi, X)
    m = np.eye(lam.shape[0], dtype=complex) + cmap.sign.factor * lam
    cond = np.linalg.cond(m)
    if not np.isfinite(cond) or cond >= 1e12:
        raise DomainBreach(f"cond {cond:.3e}")
    g, n = cmap.xi.g, X.rows
    blocks = np.linalg.solve(m, np.eye(g * n, dtype=complex)).reshape(g, n, g, n)
    return MatrixTuple(np.einsum("jpq,jqis->ips", X.data, blocks))


@pytest.mark.parametrize("n", [1, 2, 32, 128])
@pytest.mark.parametrize("which", ["type-iv", "ut3"])
def test_map_matches_solve_einsum_reference(which, n, e_tuple):
    rng = np.random.default_rng(n)
    J = e_tuple if which == "type-iv" else random_triangular_algebra(rng, 3, 2)
    xi = structure_constants(J).xi
    direction = MatrixTuple(random_directions(rng, J.g, n, 1)[0])
    # ||pencil_xi(X)|| = 1/2 keeps both signs well inside the domain
    X = MatrixTuple(0.5 * direction.data / np.linalg.norm(pencil_eval(xi, direction), 2))
    for sign in (MapSign.PLUS, MapSign.MINUS):
        cmap = ConvexotonicMap(xi, sign)
        expected = solve_einsum_map(cmap, X)
        gap = np.linalg.norm(cmap(X).data - expected.data)
        assert gap <= 1e-13 * np.linalg.norm(expected.data)


def test_rectangular_point_is_refused(e_tuple):
    q = ConvexotonicMap(e_tuple, MapSign.PLUS)
    rect = MatrixTuple(np.zeros((2, 2, 3)))
    with pytest.raises(NotSquare):
        q(rect)


def test_domain_breach(e_tuple):
    with pytest.raises(DomainBreach):
        ConvexotonicMap(e_tuple, MapSign.MINUS)(scalar(1, 0))


def test_an_overflowing_point_is_refused_by_name(e_tuple):
    # the constants are homogeneous of degree 2, so 1e100 * e_tuple stays convexotonic
    q = ConvexotonicMap(MatrixTuple(1e100 * e_tuple.data), MapSign.PLUS)
    huge = MatrixTuple(1e250 * complex_gaussian(np.random.default_rng(3), 2, 3, 3))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
        DomainBreach, match="the pencil overflows at this point"
    ):
        q(huge)


# --- inversion ---------------------------------------------------------------

def test_inverse_flips_sign(e_tuple):
    q = ConvexotonicMap(e_tuple, MapSign.PLUS)
    assert q.inverse().sign is MapSign.MINUS
    assert q.inverse().inverse().sign is MapSign.PLUS


def test_composition_is_identity(e_tuple):
    q = ConvexotonicMap(e_tuple, MapSign.PLUS)
    p = q.inverse()
    rng = np.random.default_rng(23)
    for _ in range(25):
        x = corpus_point(rng, e_tuple, 3)
        assert tuple_gap(p(q(x)), x) < 1e-9
        assert tuple_gap(q(p(x)), x) < 1e-9


# --- transfer identity ---------------------------------------------------------

def test_transfer_zero_point(f_tuple):
    assert transfer_residual(f_tuple, MatrixTuple.zeros(2, 2), MapSign.PLUS) == 0.0


def test_transfer_nilpotent_small_points(f_tuple):
    rng = np.random.default_rng(13)
    for x in random_directions(rng, 2, 2, 10):
        x = MatrixTuple(0.2 * x)
        assert transfer_residual(f_tuple, x, MapSign.PLUS) < 1e-12
        assert transfer_residual(f_tuple, x, MapSign.MINUS) < 1e-12


def test_transfer_scalar_unit_jordan(e_tuple):
    t = 0.37
    q = ConvexotonicMap(e_tuple, MapSign.PLUS)
    image = q(scalar(t, 0))
    lhs = pencil_eval(e_tuple, image)
    assert_allclose(lhs, (t / (1 + t)) * np.eye(2), atol=1e-13)
    assert transfer_residual(e_tuple, scalar(t, 0), MapSign.PLUS) < 1e-13


def test_transfer_computes_one_residual(monkeypatch):
    # a closure's constants carry rounding noise, so its residual runs SVDs;
    # the transfer accepts them on the associativity bound and runs none
    J = random_triangular_algebra(np.random.default_rng(3), 3, 2)
    svds = []
    original = convexotonic.algebras.operator_norm

    def counted(m):
        svds.append(m.shape)
        return original(m)

    monkeypatch.setattr(convexotonic.algebras, "operator_norm", counted)
    x = MatrixTuple(1e-2 * complex_gaussian(np.random.default_rng(4), J.g, 2, 2))
    for sign in (MapSign.PLUS, MapSign.MINUS):
        transfer_residual(J, x, sign)
    assert svds == []
    sc = structure_constants(J)
    # two reads, one computation
    assert convexotonic_residual(sc.xi) == convexotonic_residual(sc.xi)
    first_read = len(svds)
    convexotonic_residual(MatrixTuple(sc.xi.data))
    assert first_read == len(svds) - first_read > 0


def test_transfer_across_corpus():
    rng = np.random.default_rng(99)
    for J in corpus_algebras():
        for n in (1, 2, 3, 4):
            x = corpus_point(rng, J, n)
            for sign in (MapSign.PLUS, MapSign.MINUS):
                assert transfer_residual(J, x, sign) < 1e-9


# --- the algebra route ----------------------------------------------------------

def closure_of(seed, kind, d, scale=1.0):
    """The closure of a random pair (ut: upper-triangular, full) or of a
    strictly upper-triangular triple (strict), times scale."""
    rng = np.random.default_rng(seed)
    if kind == "strict":
        A = np.triu(complex_gaussian(rng, 3, d, d), 1)
    else:
        A = complex_gaussian(rng, 2, d, d)
        A = np.triu(A) if kind == "ut" else A
    return algebra_closure(MatrixTuple(scale * A)).extended


def singular_ray(J, seed, n):
    """A level-n direction X with I - t pencil_J(X) singular at t = 1: a
    random one divided by the largest eigenvalue of its pencil."""
    x = complex_gaussian(np.random.default_rng(seed), J.g, n, n)
    eig = np.linalg.eigvals(pencil_eval(J, MatrixTuple(x)))
    return x / eig[np.argmax(np.abs(eig))]


def refused(f, X):
    try:
        f(X)
    except DomainBreach:
        return True
    return False


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.one_of(
        st.tuples(st.just("ut"), st.integers(2, 6)),
        st.tuples(st.just("full"), st.integers(2, 5)),
        st.tuples(st.just("strict"), st.integers(4, 7)),
    ),
    st.integers(1, 4),
)
@example(0, ("ut", 6), 4)
@example(0, ("full", 5), 4)
@example(0, ("strict", 7), 4)
def test_algebra_route_matches_xi_route(seed, kind_and_d, n):
    J = closure_of(seed, *kind_and_d)
    xi = structure_constants(J).xi
    assert J.rows < J.g and stored_route(xi) is not None
    x = MatrixTuple(complex_gaussian(np.random.default_rng(seed), J.g, n, n))
    # ||pencil_J(X)|| = 1/2 keeps both signs well inside the domain
    X = MatrixTuple(0.5 * x.data / np.linalg.norm(pencil_eval(J, x), 2))
    for sign in MapSign:
        cmap = ConvexotonicMap(xi, sign)
        expected = cmap._through_xi(X)
        assert np.linalg.norm(cmap(X).data - expected.data) <= 1e-12 * np.linalg.norm(expected.data)


@settings(max_examples=15, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.tuples(st.sampled_from(["ut", "full"]), st.integers(2, 5)),
    st.integers(1, 4),
)
@example(0, ("full", 5), 4)
def test_routes_refuse_the_same_points_along_rays(seed, kind_and_d, n):
    # the closures are unital, so I - t pencil_J(X) and I - t pencil_xi(X) are
    # singular at the same t. Measured on such rays, the two refuse
    # differently only for 1e-12 < |t - 1| <= 1e-9, where the g n x g n
    # pencil of xi is the worse conditioned one
    J = closure_of(seed, *kind_and_d)
    q = ConvexotonicMap(structure_constants(J).xi, MapSign.MINUS)
    ray = singular_ray(J, seed, n)
    for delta in (-0.1, -1e-3, -1e-6, 0.0, 1e-6, 1e-3, 0.1):
        point = MatrixTuple((1 + delta) * ray)
        assert refused(q, point) is refused(q._through_xi, point) is (delta == 0.0), delta


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.integers(1, 3))
def test_algebra_route_domain_check_agrees_with_call(seed, d, n):
    J = closure_of(seed, "full", d)
    q = ConvexotonicMap(structure_constants(J).xi, MapSign.MINUS)
    ray = singular_ray(J, seed, n)
    outcomes = set()
    for e in range(1, 17):
        point = MatrixTuple((1 + 10.0**-e) * ray)
        outcomes.add(q.domain_check(point))
        assert q.domain_check(point) is not refused(q, point), e
    assert outcomes == {True, False}


def pencil_sizes(monkeypatch):
    """The size of every pencil that maps inverts while the test runs."""
    sizes = []
    original = maps.resolvent

    def counted(coeffs, point, *args, **kwargs):
        sizes.append(coeffs.rows * point.rows)
        return original(coeffs, point, *args, **kwargs)

    monkeypatch.setattr(maps, "resolvent", counted)
    return sizes


def test_transfer_inverts_one_pencil_of_xi_and_one_of_j(monkeypatch):
    J = closure_of(3, "ut", 3)
    x = MatrixTuple(1e-2 * complex_gaussian(np.random.default_rng(4), J.g, 2, 2))
    sizes = pencil_sizes(monkeypatch)
    transfer_residual(J, x, MapSign.PLUS)
    assert sizes == [J.g * 2, J.rows * 2]


def test_algebra_route_outlives_the_algebra_tuple(monkeypatch):
    J = closure_of(3, "ut", 3)
    sc = structure_constants(J)
    ref = weakref.ref(J)
    del J
    gc.collect()
    assert ref() is None
    q = ConvexotonicMap(sc.xi, MapSign.PLUS)
    x = MatrixTuple(1e-2 * complex_gaussian(np.random.default_rng(4), q.xi.g, 2, 2))
    sizes = pencil_sizes(monkeypatch)
    image = q(x)
    assert q.domain_check(x)
    assert sizes == [3 * 2, 3 * 2]
    expected = q._through_xi(x)
    assert np.linalg.norm(image.data - expected.data) <= 1e-12 * np.linalg.norm(expected.data)


@pytest.mark.parametrize("c", [1e-13, 1e-8, 1e-6, 1e-3, 1.0, 1e3, 1e6])
def test_algebra_route_evaluates_closures_at_every_scale(c):
    # the closure of c A puts c-scale generators next to unit-norm appended
    # elements; xi then mixes both scales, and for c far from 1 its pencil is
    # numerically singular at these points, while the pencil of J is not
    rng = np.random.default_rng(7)
    J = algebra_closure(MatrixTuple(c * complex_gaussian(rng, 2, 5, 5))).extended
    q = ConvexotonicMap(structure_constants(J).xi, MapSign.PLUS)
    x = MatrixTuple(complex_gaussian(rng, J.g, 3, 3))
    X = MatrixTuple(0.5 * x.data / np.linalg.norm(pencil_eval(J, x), 2))
    expected = maps.resolvent(J, X, 1.0, "transfer pencil") @ pencil_eval(J, X)
    assert np.linalg.norm(pencil_eval(J, q(X)) - expected, 2) <= 1e-12 * np.linalg.norm(expected, 2)


@pytest.mark.parametrize("scale", [1e-13, 1e-6, 1.0, 1e3, 1e6])
@pytest.mark.parametrize("kind, d", [("ut", 3), ("ut", 6), ("strict", 5), ("strict", 8), ("full", 4)])
def test_route_coordinates_read_a_point_off_its_pencil(kind, d, scale):
    # Y_i is divided by ||J_i||_F, so every term J_i (x) Y_i of the pencil has
    # one size: at scales far from 1 a Gaussian Y would put the slots of the
    # scaled generators below the rounding of the unit-norm appended ones
    J = closure_of(5, kind, d, scale)
    _, coords = stored_route(structure_constants(J).xi)
    n = 3
    y = complex_gaussian(np.random.default_rng(d), J.g, n, n)
    Y = y / np.linalg.norm(J.data, axis=(1, 2))[:, None, None]
    blocks = pencil_eval(J, MatrixTuple(Y)).reshape(d, n, d, n).transpose(0, 2, 1, 3)
    read = (coords @ blocks.reshape(d * d, n * n)).reshape(J.g, n, n)
    gaps = np.linalg.norm(read - Y, axis=(1, 2))
    assert np.all(gaps <= 1e-12 * np.linalg.norm(Y, axis=(1, 2)))


def test_route_is_stored_with_xi_and_no_map_call_changes_it():
    J = closure_of(3, "ut", 3)
    xi = structure_constants(J).xi
    record = _RECORDS[xi]
    copy, coords = route = record.route
    assert copy is not J and np.array_equal(copy.data, J.data)
    assert coords.shape == (J.g, J.rows**2)
    q = ConvexotonicMap(xi, MapSign.PLUS)
    before = {field.name: getattr(record, field.name) for field in fields(record)}
    kept = coords.copy()
    X = half_norm_point(np.random.default_rng(3), J, 2)
    q(X), q.inverse()(X), q.domain_check(X)
    assert _RECORDS[xi] is record and before["route"] is route
    assert all(getattr(record, name) is then for name, then in before.items())
    assert before["bound"] < math.inf and before["residual"] is None
    assert np.array_equal(coords, kept)


@pytest.mark.parametrize("J", corpus_algebras()[:4], ids=["type-i", "type-ii", "type-iii", "type-iv"])
def test_tuples_with_g_at_most_d_keep_the_xi_route(J):
    assert J.g <= J.rows
    assert stored_route(structure_constants(J).xi) is None


def test_constants_not_solved_from_an_algebra_keep_the_xi_route():
    J = closure_of(3, "ut", 3)
    xi = structure_constants(J).xi
    parsed = MatrixTuple(xi.data)  # as eval --xi reads it
    sandwiched = convexotonic.algebras.pencil_structure_constants(J, np.eye(3)).xi
    assert stored_route(xi) is not None
    assert stored_route(parsed) is None and stored_route(sandwiched) is None


# --- domain checks --------------------------------------------------------------

def test_domain_check_cases(e_tuple, f_tuple):
    q = ConvexotonicMap(e_tuple, MapSign.PLUS)
    assert q.domain_check(scalar(0.5, 0.1))
    unipotent = ConvexotonicMap(
        structure_constants(f_tuple).xi, MapSign.PLUS
    )
    rng = np.random.default_rng(4)
    assert unipotent.domain_check(MatrixTuple(3 * complex_gaussian(rng, 2, 2, 2)))
    p = ConvexotonicMap(e_tuple, MapSign.MINUS)
    assert not p.domain_check(scalar(1.0, 0.0))


@settings(max_examples=40, deadline=None)
@given(st.floats(0.9, 1.1))
@example(1.0)  # the exactly singular pencil
def test_domain_check_agrees_with_call(t):
    p = ConvexotonicMap(type_iv_tuple(), MapSign.MINUS)
    x = scalar(t, 0.0)
    try:
        p(x)
        defined = True
    except DomainBreach:
        defined = False
    assert p.domain_check(x) is defined


# --- free-function laws ----------------------------------------------------------

@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_direct_sum_law(seed):
    rng = np.random.default_rng(seed)
    e = corpus_algebras()[3]
    q = ConvexotonicMap(e, MapSign.PLUS)
    x = corpus_point(rng, e, 2)
    y = corpus_point(rng, e, 3)
    assert tuple_gap(q(x.direct_sum(y)), q(x).direct_sum(q(y))) < 1e-9


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_similarity_law(seed):
    rng = np.random.default_rng(seed)
    e = corpus_algebras()[3]
    q = ConvexotonicMap(e, MapSign.PLUS)
    x = corpus_point(rng, e, 3)
    u = random_unitary(rng, 3)
    conj = MatrixTuple(np.stack([u.conj().T @ x[j] @ u for j in range(2)]))
    image = q(x)
    expected = MatrixTuple(np.stack([u.conj().T @ image[j] @ u for j in range(2)]))
    assert tuple_gap(q(conj), expected) < 1e-9


def test_derivative_at_zero_is_identity():
    for J in corpus_algebras()[:4]:
        xi = structure_constants(J).xi
        for sign in (MapSign.PLUS, MapSign.MINUS):
            jac = jacobian_at_zero(ConvexotonicMap(xi, sign))
            assert np.max(np.abs(jac - np.eye(J.g))) < 1e-8


def test_derivative_at_zero_refuses_a_pole_at_a_step():
    # the minus-sign map of 1e4 (I, E12) has a pole at (1e-4, 0), the step h = 1e-4
    cmap = ConvexotonicMap(MatrixTuple(1e4 * type_iv_tuple().data), MapSign.MINUS)
    with pytest.raises(DomainBreach, match="refuses a difference point at step 0.0001"):
        jacobian_at_zero(cmap)


# --- block-triangular pencils -------------------------------------------------

@settings(max_examples=20, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.one_of(
        st.tuples(st.just("iv"), st.just(2)),
        st.tuples(st.just("ut"), st.integers(2, 4)),
        st.tuples(st.just("strict"), st.integers(3, 5)),
    ),
    st.sampled_from([BLOCK_LEVEL, 2 * BLOCK_LEVEL]),
    st.sampled_from(list(MapSign)),
)
def test_triangular_images_match_the_dense_inverse(seed, kind_d, n, sign):
    # type IV goes through its upper-triangular xi, the closures with g > d
    # through their upper-triangular J; the point halves the inverted pencil
    kind, d = kind_d
    J = type_iv_tuple() if kind == "iv" else closure_of(seed, kind, d)
    q = ConvexotonicMap(structure_constants(J).xi, sign)
    route = stored_route(q.xi)
    X = half_norm_point(np.random.default_rng(seed), route[0] if route else q.xi, n)
    image = q(X)
    with dense_path():
        expected = q(X)
    assert np.linalg.norm(image.data - expected.data) <= 1e-12 * np.linalg.norm(expected.data)


@pytest.mark.parametrize("n", [BLOCK_LEVEL, 2 * BLOCK_LEVEL])
def test_non_triangular_images_are_unchanged_bit_for_bit(n):
    # with its elements swapped, type IV has the lower-triangular xi = (E21, I)
    J = MatrixTuple(type_iv_tuple().data[::-1])
    q = ConvexotonicMap(structure_constants(J).xi, MapSign.PLUS)
    assert not np.triu(q.xi[0], 1).any() and np.tril(q.xi[0], -1).any()
    X = half_norm_point(np.random.default_rng(n), q.xi, n)
    image = q(X)
    with dense_path():
        assert image.data.tobytes() == q(X).data.tobytes()


def test_type_iv_inverts_one_block_per_resolvent(monkeypatch):
    n = 32
    assert n >= BLOCK_LEVEL
    q = ConvexotonicMap(structure_constants(type_iv_tuple()).xi, MapSign.PLUS)
    X = half_norm_point(np.random.default_rng(5), q.xi, n)
    shapes = inv_calls(monkeypatch)
    q(X)
    assert q.domain_check(X)
    assert shapes == [(n, n), (n, n)]


def test_a_type_iv_map_call_holds_one_pencil_sized_buffer():
    # at n = 256 the pencil takes 4 MiB: it is formed, made monic and
    # inverted in one buffer, beside the 2 MiB image row and its copy
    n = 256
    q = ConvexotonicMap(structure_constants(type_iv_tuple()).xi, MapSign.PLUS)
    X = half_norm_point(np.random.default_rng(8), q.xi, n)
    assert traced_peak(lambda: q(X)) <= 8.5 * 2**20


def test_block_path_refuses_the_singular_type_iv_point_as_before():
    # xi = (I, E12): I + pencil_xi(-I, Y) = [[0, Y], [0, 0]]
    n = 32
    q = ConvexotonicMap(structure_constants(type_iv_tuple()).xi, MapSign.PLUS)
    y = complex_gaussian(np.random.default_rng(6), n, n)
    X = MatrixTuple.from_matrices([-np.eye(n), y])
    message = "defining pencil is numerically singular (cond inf)"
    with pytest.raises(DomainBreach) as block:
        q(X)
    with dense_path(), pytest.raises(DomainBreach) as dense:
        q(X)
    assert str(block.value) == str(dense.value) == message
    assert not q.domain_check(X)
