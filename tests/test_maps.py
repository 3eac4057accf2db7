import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import convexotonic.algebras
from convexotonic import (
    ConvexotonicMap,
    DomainBreach,
    MapSign,
    MatrixTuple,
    NotSquare,
    Realization,
    Spectrahedron,
    boundary_scale,
    jacobian_at_zero,
    pencil_eval,
    structure_constants,
    transfer_residual,
    type_iv_tuple,
)
from conftest import corpus_algebras, random_triangular_algebra
from convexotonic.sampling import complex_gaussian, random_direction, random_unitary

E12 = np.array([[0, 1], [0, 0]], dtype=complex)


def scalar(*values):
    return MatrixTuple.scalar(list(values))


def tuple_gap(a, b):
    return float(np.max(np.abs(a.data - b.data)))


def corpus_point(rng, J, n, frac=0.5):
    """Point scaled to frac of the smaller of the two boundary scales."""
    from convexotonic import Spectraball

    while True:
        x = random_direction(rng, J.g, n)
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
    direction = random_direction(rng, J.g, n)
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


# --- realizations -------------------------------------------------------------

def test_realization_constant():
    r = Realization(MatrixTuple.zeros(2, 3), b=np.ones(3), c=np.ones(3))
    rng = np.random.default_rng(2)
    x = MatrixTuple(complex_gaussian(rng, 2, 2, 2))
    assert_allclose(r(x), 3.0 * np.eye(2), atol=1e-14)


def test_realization_geometric_series():
    r = Realization(MatrixTuple.scalar([1]), b=np.ones(1), c=np.ones(1))
    assert r(scalar(0.5))[0, 0] == pytest.approx(2.0)


def test_realization_components_assemble_map(e_tuple):
    rng = np.random.default_rng(3)
    x = corpus_point(rng, e_tuple, 2)
    q = ConvexotonicMap(e_tuple, MapSign.MINUS)
    image = q(x)
    basis = np.eye(2)
    for i in range(2):
        assembled = np.zeros((2, 2), dtype=complex)
        for s in range(2):
            r = Realization(e_tuple, b=basis[i], c=basis[s])
            assembled += x[s] @ r(x)
        assert np.linalg.norm(assembled - image[i]) < 1e-11


def test_realization_rectangular_point_is_refused(e_tuple):
    r = Realization(e_tuple, b=np.ones(2), c=np.ones(2))
    with pytest.raises(NotSquare):
        r(MatrixTuple(np.zeros((2, 2, 3))))


def test_realization_breach():
    r = Realization(MatrixTuple.scalar([1]), b=np.ones(1), c=np.ones(1))
    with pytest.raises(DomainBreach):
        r(scalar(1.0))


# --- transfer identity ---------------------------------------------------------

def test_transfer_zero_point(f_tuple):
    assert transfer_residual(f_tuple, MatrixTuple.zeros(2, 2), MapSign.PLUS) == 0.0


def test_transfer_nilpotent_small_points(f_tuple):
    rng = np.random.default_rng(13)
    for _ in range(10):
        x = MatrixTuple(0.2 * random_direction(rng, 2, 2).data)
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
    assert sc.convexotonic_residual == sc.convexotonic_residual  # two reads, one computation
    first_read = len(svds)
    convexotonic.algebras.convexotonic_residual(MatrixTuple(sc.xi.data))
    assert first_read == len(svds) - first_read > 0


def test_transfer_across_corpus():
    rng = np.random.default_rng(99)
    for J in corpus_algebras():
        for n in (1, 2, 3, 4):
            x = corpus_point(rng, J, n)
            for sign in (MapSign.PLUS, MapSign.MINUS):
                assert transfer_residual(J, x, sign) < 1e-9


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
