import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from convexotonic import (
    ConvexotonicMap,
    MatrixTuple,
    ShapeMismatch,
    Spectraball,
    Spectrahedron,
    ZeroDirection,
    ball_membership,
    ball_to_spectrahedron,
    boundary_scale,
    spec_membership,
    structure_constants,
    type_i_tuple,
    type_ii_tuple,
    type_iv_tuple,
)
from convexotonic.errors import DomainBreach, NotSquare
from conftest import traced_peak
from convexotonic.sampling import (
    complex_gaussian,
    random_directions,
    random_tuple,
    random_unitary,
    seeded_rng,
)


def scalar(*values):
    return MatrixTuple.scalar(list(values))


# --- memberships -----------------------------------------------------------

def test_ball_origin_interior(e_tuple):
    v = ball_membership(Spectraball(e_tuple), MatrixTuple.zeros(2, 2))
    assert v.location.value == "interior"
    assert v.margin == pytest.approx(1.0)


def test_ball_closed_form_boundary(e_tuple):
    v = ball_membership(Spectraball(e_tuple), scalar(1 / np.sqrt(2), 0.5))
    assert v.location.value == "boundary"
    assert abs(v.margin) < 1e-12


def test_ball_exterior(e_tuple):
    v = ball_membership(Spectraball(e_tuple), scalar(2, 0))
    assert v.location.value == "exterior"
    assert v.margin == pytest.approx(-1.0)


def test_spec_boundary_and_exterior(f_tuple):
    spec = Spectrahedron(f_tuple)
    assert spec_membership(spec, scalar(1, 1)).location.value == "boundary"
    v = spec_membership(spec, scalar(-1, -1))
    assert v.location.value == "exterior"
    assert v.margin == pytest.approx(-1.0)
    assert spec_membership(spec, scalar(0, 0)).margin == pytest.approx(1.0)


def test_spectrahedron_rejects_rectangular():
    rect = MatrixTuple(np.zeros((1, 2, 3), dtype=complex))
    with pytest.raises(NotSquare):
        Spectrahedron(rect)


def test_spectrahedron_routes_refuse_rectangular_points(f_tuple):
    rect = MatrixTuple(np.ones((2, 2, 3)))
    spec = Spectrahedron(f_tuple)
    with pytest.raises(NotSquare):
        spec_membership(spec, rect)
    with pytest.raises(NotSquare):
        boundary_scale(spec, rect)
    # balls keep accepting rectangular points
    assert ball_membership(Spectraball(f_tuple), rect).location.value == "exterior"
    assert boundary_scale(Spectraball(f_tuple), rect) > 0


def test_ball_embedding_structure(e_tuple):
    spec = ball_to_spectrahedron(Spectraball(e_tuple))
    assert spec.coeffs.rows == 4
    assert_allclose(spec.coeffs[0][:2, 2:], np.eye(2))
    assert_allclose(spec.coeffs[0][2:, :], 0)


def test_ball_embedding_membership_agrees(e_tuple):
    ball = Spectraball(e_tuple)
    spec = ball_to_spectrahedron(ball)
    rng = np.random.default_rng(17)
    for n in (1, 2, 3):
        for x in random_directions(rng, 2, n, 30):
            x = MatrixTuple(1.5 * x)
            assert (
                ball_membership(ball, x).location
                == spec_membership(spec, x).location
            )


def test_scalar_ball_is_unit_disk():
    spec = ball_to_spectrahedron(Spectraball(MatrixTuple.scalar([1])))
    assert_allclose(spec.coeffs[0], np.array([[0, 1], [0, 0]]))
    assert spec_membership(spec, scalar(0.5)).location.value == "interior"
    assert spec_membership(spec, scalar(np.exp(1j))).location.value == "boundary"
    assert spec_membership(spec, scalar(1.1)).location.value == "exterior"


# --- level-0 points ----------------------------------------------------------

def _map_of(e):
    return ConvexotonicMap(structure_constants(e).xi)


@pytest.mark.parametrize(
    "entry",
    [
        lambda e, X: _map_of(e)(X),
        lambda e, X: _map_of(e).domain_check(X),
        lambda e, X: boundary_scale(Spectrahedron(e), X),
        lambda e, X: spec_membership(Spectrahedron(e), X),
        lambda e, X: ball_membership(Spectraball(e), X),
    ],
    ids=["map", "domain_check", "boundary_scale", "spec", "ball"],
)
def test_level_zero_points_are_refused_as_shape_mismatch(entry):
    # the empty point of each entry point is refused where it is built
    with pytest.raises(ShapeMismatch, match="cannot be empty"):
        entry(type_iv_tuple(), MatrixTuple(np.zeros((2, 0, 0))))


# --- boundary scales -------------------------------------------------------

def skew_witness(n):
    """Type II's unbounded ray at level n: a skew-Hermitian block in slot 0,
    along which the Hermitian part of the pencil vanishes."""
    data = np.zeros((2, n, n), dtype=complex)
    if n == 1:
        data[0, 0, 0] = 1j
    else:
        data[0, 0, 1], data[0, 1, 0] = -1.0, 1.0
    return MatrixTuple(data)


def seeded_rays(g, n, seed):
    return list(map(MatrixTuple, random_directions(seeded_rng(seed), g, n, 40)))


BALL_EMBEDDING = ball_to_spectrahedron(Spectraball(type_iv_tuple()))
NILPOTENT_SLOT = Spectrahedron(MatrixTuple.from_matrices([np.array([[0, 1], [0, 0]])]))
# (domain, directions, scale along each; None for any finite one)
BOUNDARY_SCALES = {
    "type-i-spectrahedron": (Spectrahedron(type_i_tuple()), [scalar(1, 0)], 1 / np.sqrt(2)),
    "type-iv-ball": (Spectraball(type_iv_tuple()), [scalar(1, 0)], 1.0),
    **{
        f"type-ii-skew-n{n}": (Spectrahedron(type_ii_tuple()), [skew_witness(n)], math.inf)
        for n in (1, 2, 3)
    },
    # bounded domains: every seeded random ray meets the boundary
    **{f"ball-embedding-n{n}": (BALL_EMBEDDING, seeded_rays(2, n, 5), None) for n in (1, 2, 3)},
    **{f"nilpotent-slot-n{n}": (NILPOTENT_SLOT, seeded_rays(1, n, 7), None) for n in (1, 2)},
}


@pytest.mark.parametrize(
    "domain, directions, scale", BOUNDARY_SCALES.values(), ids=BOUNDARY_SCALES.keys()
)
def test_boundary_scale_examples(domain, directions, scale):
    for x in directions:
        if scale is None:
            assert math.isfinite(boundary_scale(domain, x))
        else:
            assert boundary_scale(domain, x) == pytest.approx(scale, abs=1e-12)


def test_boundary_scale_refuses_a_non_domain(e_tuple):
    with pytest.raises(TypeError, match="not a domain: MatrixTuple"):
        boundary_scale(e_tuple, scalar(1, 0))


def test_boundary_scale_zero_direction(e_tuple):
    with pytest.raises(ZeroDirection):
        boundary_scale(Spectraball(e_tuple), MatrixTuple.zeros(2, 2))


@pytest.mark.parametrize("domain", [Spectraball, Spectrahedron])
def test_boundary_scale_holds_one_pencil_sized_buffer(e_tuple, domain):
    # at n = 256 the pencil takes 4 MiB and its product 2 MiB more while it
    # is put in block order; H = pencil + pencil* is formed in the pencil's
    # buffer, one pair of n x n blocks (1 MiB each) at a time
    n = 256
    X = MatrixTuple(complex_gaussian(np.random.default_rng(10), 2, n, n))
    assert traced_peak(lambda: boundary_scale(domain(e_tuple), X)) <= 6.5 * 2**20


# real entries near 1e200 in a level-2 point and in the coefficients: the
# pencil's products overflow, and LAPACK given such a pencil returns NaN
OVERFLOWING = MatrixTuple(1e200 * np.array([[[1.0, -2.0], [3.0, 1.0]], [[2.0, 1.0], [-1.0, 4.0]]]))
OVERFLOW_CALLS = {
    "ball_membership": lambda e: ball_membership(Spectraball(e), OVERFLOWING),
    "spec_membership": lambda e: spec_membership(Spectrahedron(e), OVERFLOWING),
    "boundary_scale-ball": lambda e: boundary_scale(Spectraball(e), OVERFLOWING),
    "boundary_scale-spec": lambda e: boundary_scale(Spectrahedron(e), OVERFLOWING),
}


@pytest.mark.parametrize("call", OVERFLOW_CALLS.values(), ids=OVERFLOW_CALLS.keys())
def test_an_overflowing_pencil_is_refused_by_name(e_tuple, call):
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
        DomainBreach, match="the pencil overflows at this point"
    ):
        call(MatrixTuple(1e200 * e_tuple.data))


# lam = 1.5e308 is finite, so pencil_eval passes it; lam + lam* is not
HERMITIAN_OVERFLOW = Spectrahedron(MatrixTuple(np.diag([1e154, 0.0])[None]))
HERMITIAN_OVERFLOW_CALLS = {
    "spec_membership": lambda X: spec_membership(HERMITIAN_OVERFLOW, X),
    "boundary_scale": lambda X: boundary_scale(HERMITIAN_OVERFLOW, X),
}


@pytest.mark.parametrize("call", HERMITIAN_OVERFLOW_CALLS.values(), ids=HERMITIAN_OVERFLOW_CALLS.keys())
def test_an_overflowing_hermitian_pencil_is_refused_by_name(call):
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
        DomainBreach, match="the pencil overflows at this point"
    ):
        call(MatrixTuple.scalar([1.5e154]))


def test_boundary_scale_consistency(e_tuple, f_tuple):
    rng = np.random.default_rng(31)
    for domain in (Spectraball(e_tuple), Spectrahedron(f_tuple)):
        for x in map(MatrixTuple, random_directions(rng, 2, 2, 20)):
            t = boundary_scale(domain, x)
            if not math.isfinite(t):
                continue
            on = MatrixTuple(t * x.data)
            out = MatrixTuple((t + 1e-6 * t) * x.data)
            if isinstance(domain, Spectraball):
                assert ball_membership(domain, on).location.value == "boundary"
                assert ball_membership(domain, out).location.value == "exterior"
            else:
                assert spec_membership(domain, on).location.value == "boundary"
                assert spec_membership(domain, out).location.value == "exterior"


# --- invariance properties -------------------------------------------------

@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_membership_unitary_invariance(seed):
    rng = np.random.default_rng(seed)
    e = random_tuple(rng, 2, 2)
    x = random_tuple(rng, 2, 3)
    u = random_unitary(rng, 3)
    conj = MatrixTuple(
        np.stack([u.conj().T @ x[j] @ u for j in range(2)])
    )
    ball = Spectraball(e)
    assert abs(
        ball_membership(ball, x).margin - ball_membership(ball, conj).margin
    ) < 1e-10


def test_membership_direct_sum_margin(e_tuple, f_tuple):
    rng = np.random.default_rng(47)
    x = random_tuple(rng, 2, 2)
    y = random_tuple(rng, 2, 3)
    ball = Spectraball(e_tuple)
    assert ball_membership(ball, x.direct_sum(y)).margin == pytest.approx(
        min(ball_membership(ball, x).margin, ball_membership(ball, y).margin),
        abs=1e-12,
    )
    spec = Spectrahedron(f_tuple)
    assert spec_membership(spec, x.direct_sum(y)).margin == pytest.approx(
        min(spec_membership(spec, x).margin, spec_membership(spec, y).margin),
        abs=1e-12,
    )
