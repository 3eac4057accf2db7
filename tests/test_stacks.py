"""Stacked point evaluation: every kernel that takes a stack of points returns,
item by item, the bits of a one-point call, and the harnesses that evaluate
one stack a level report what a loop over single points reports."""

import math
from contextlib import contextmanager, nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from convexotonic import (
    ConvexotonicMap,
    MapSign,
    MatrixTuple,
    Spectraball,
    Spectrahedron,
    VerificationReport,
    algebra_closure,
    boundary_scale,
    operator_norm,
    pencil_eval,
    pencil_structure_constants,
    structure_constants,
    type_i_tuple,
    type_ii_tuple,
    type_iii_tuple,
    type_iv_tuple,
    verify_ball_equality,
    verify_corollary,
    verify_properness,
    verify_theorem,
)
from convexotonic import linalg
from convexotonic.errors import DomainBreach
from convexotonic.linalg import BLOCK_LEVEL, DEFAULT_TOL, resolvent
from convexotonic.sampling import complex_gaussians, random_directions, seeded_rng
from convexotonic.verify import SCALE_CAP, _frobenius, _tuple_distance
from conftest import dense_path, planted_theorem

SEEDS = st.integers(0, 2**32 - 1)
LEVELS = st.sampled_from([1, 2, 3, BLOCK_LEVEL])


def one_point(f, stack):
    """f at each point of the stack alone, as one array; None where f refuses it."""
    out = []
    for x in stack:
        try:
            y = f(MatrixTuple(x))
        except DomainBreach:
            y = None
        out.append(y.data if isinstance(y, MatrixTuple) else y)
    return out


def coefficients(kind, rng, *shape):
    """Type IV, the shift pair, or a random tuple of the given shape."""
    return {"iv": type_iv_tuple, "i": type_i_tuple}.get(kind, lambda: MatrixTuple(
        complex_gaussians(rng, *shape)
    ))()


def assert_items_are_one_point_calls(stacked, singles):
    assert len(stacked) == len(singles)
    for item, single in zip(stacked, singles):
        if single is None:
            assert np.isnan(item).all()
        else:
            assert item.tobytes() == single.tobytes()


def closure_map(seed, sign):
    """A map through the pencil of J: the closure of an upper-triangular pair, g > d."""
    rng = np.random.default_rng(seed)
    J = algebra_closure(MatrixTuple(np.triu(complex_gaussians(rng, 2, 3, 3)))).extended
    cmap = ConvexotonicMap(structure_constants(J).xi, sign)
    assert J.rows < J.g
    return J, cmap


def ray_points(rng, coeffs, n, count):
    """count level-n points whose pencils have norms spread over 0.05 ... 3, so
    that some monic pencils are near singular."""
    x = complex_gaussians(rng, count, coeffs.g, n, n)
    norms = operator_norm(pencil_eval(coeffs, x))
    return x * (np.geomspace(0.05, 3.0, count) / norms)[:, None, None, None]


# --- kernels ---------------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(SEEDS, st.sampled_from(["iv", "i", "random"]), LEVELS, st.integers(0, 4))
def test_stacked_pencil_and_norm_are_one_point_calls(seed, kind, n, s):
    rng = np.random.default_rng(seed)
    coeffs = coefficients(kind, rng, 3, 2, 4)
    x = complex_gaussians(rng, s, coeffs.g, n, n)
    pencils = pencil_eval(coeffs, x)
    assert pencils.shape == (s, coeffs.rows * n, coeffs.cols * n)
    assert_items_are_one_point_calls(pencils, one_point(lambda X: pencil_eval(coeffs, X), x))
    norms = operator_norm(pencils)
    assert norms.shape == (s,)
    for norm, pencil in zip(norms, pencils):
        assert norm == operator_norm(pencil) == np.linalg.norm(pencil, 2)
    frobenius = _frobenius(x)
    assert all(f == np.linalg.norm(item) for f, item in zip(frobenius, x))


@settings(max_examples=30, deadline=None)
@given(
    SEEDS,
    st.sampled_from(["iv", "i", "random"]),
    LEVELS,
    st.sampled_from([1.0, -1.0]),
    st.sampled_from([5.0, 50.0, linalg.COND_LIMIT]),
)
@example(0, "iv", 2, 1.0, 5.0)
@example(0, "i", BLOCK_LEVEL, -1.0, 5.0)
def test_stacked_resolvent_certifies_each_item(seed, kind, n, factor, limit):
    # type IV and the shift pair take the block path from BLOCK_LEVEL on,
    # with equal diagonal blocks; the random tuple is not triangular
    rng = np.random.default_rng(seed)
    coeffs = coefficients(kind, rng, 2, 3, 3)
    x = ray_points(rng, coeffs, n, 6)
    with mock.patch.object(linalg, "COND_LIMIT", limit):
        inv = resolvent(coeffs, x, factor, "pencil")
        singles = one_point(lambda X: resolvent(coeffs, X, factor, "pencil"), x)
    assert_items_are_one_point_calls(inv, singles)
    if seed == 0 and limit == 5.0:  # the examples refuse some items and keep others
        assert {single is None for single in singles} == {True, False}


@pytest.mark.parametrize("n", [2, BLOCK_LEVEL])
def test_an_exactly_singular_item_leaves_the_rest_of_its_stack(e_tuple, n):
    # at X_1 = -I the monic pencil is exactly singular: type IV's is
    # [[0, Y], [0, 0]], and that of the closure of I and a strictly
    # upper-triangular pair has three diagonal blocks I + X_1 = 0. LAPACK
    # refuses the whole stack for such an item, dense or block by block
    rng = np.random.default_rng(n)
    strict = np.triu(complex_gaussians(rng, 2, 3, 3), 1)
    closure = algebra_closure(MatrixTuple(np.concatenate([np.eye(3)[None], strict]))).extended
    for coeffs in (e_tuple, closure):
        good = complex_gaussians(rng, 2, coeffs.g, n, n)
        good /= 2 * operator_norm(pencil_eval(coeffs, good))[:, None, None, None]
        singular = complex_gaussians(rng, 3, coeffs.g, n, n)
        singular[:, 0] = -np.eye(n)
        x = np.array([singular[0], good[0], singular[1], good[1], singular[2]])
        for path in (nullcontext(), dense_path()):
            with path:
                inv = resolvent(coeffs, x, 1.0, "pencil")
                singles = one_point(lambda X: resolvent(coeffs, X, 1.0, "pencil"), x)
                with pytest.raises(DomainBreach, match=r"\(cond inf\)"):
                    resolvent(coeffs, MatrixTuple(singular[1]), 1.0, "pencil")
            assert [single is None for single in singles] == [True, False, True, False, True]
            assert_items_are_one_point_calls(inv, singles)


@pytest.mark.parametrize("n", [2, BLOCK_LEVEL])
def test_an_overflowing_item_is_refused_alone(n):
    # (I, I): the pencil of (X, X) with entries 1e308 is 2e308, infinite, so
    # the item's condition number is not finite
    coeffs = MatrixTuple(np.array([np.eye(2), np.eye(2)]))
    x = 0.1 * complex_gaussians(np.random.default_rng(n), 3, 2, n, n)
    x[1] = 1e308
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(DomainBreach, match="overflows"):
            resolvent(coeffs, MatrixTuple(x[1]), 1.0, "pencil")
        inv = resolvent(coeffs, x, 1.0, "pencil")
    singles = one_point(lambda X: resolvent(coeffs, X, 1.0, "pencil"), x[[0, 2]])
    assert np.isnan(inv[1]).all()
    assert_items_are_one_point_calls(inv[[0, 2]], singles)


@settings(max_examples=30, deadline=None)
@given(SEEDS, st.sampled_from(["xi", "J"]), LEVELS, st.sampled_from(list(MapSign)))
def test_stacked_map_call_is_one_point_calls(seed, route, n, sign):
    rng = np.random.default_rng(seed)
    if route == "xi":
        coeffs = type_iv_tuple()
        cmap = ConvexotonicMap(structure_constants(coeffs).xi, sign)
    else:
        coeffs, cmap = closure_map(seed % 5, sign)
    x = ray_points(rng, coeffs, n, 5)
    with mock.patch.object(linalg, "COND_LIMIT", 20.0):
        images = cmap(x)
        singles = one_point(cmap, x)
    assert images.shape == x.shape
    assert_items_are_one_point_calls(images, singles)


def test_the_map_of_an_empty_stack_is_empty(e_tuple):
    empty = np.zeros((0, 2, 3, 3))
    cmap = ConvexotonicMap(structure_constants(e_tuple).xi, MapSign.PLUS)
    assert cmap(empty).shape == (0, 2, 3, 3)
    J, closure = closure_map(0, MapSign.PLUS)  # through the pencil of J
    assert closure(np.zeros((0, J.g, 3, 3))).shape == (0, J.g, 3, 3)
    assert pencil_eval(e_tuple, empty).shape == (0, 6, 6)
    assert operator_norm(np.zeros((0, 6, 6))).shape == (0,)
    for domain in (Spectraball(e_tuple), Spectrahedron(e_tuple)):
        assert boundary_scale(domain, empty).shape == (0,)


@settings(max_examples=30, deadline=None)
@given(SEEDS, st.integers(1, 3), st.integers(1, 5))
def test_stacked_boundary_scales_are_one_point_calls(seed, n, s):
    # the skew ray of type II never leaves its spectrahedron, and a direction
    # in the zero slot of (E_1, 0) has a zero pencil: both scales are infinite
    rng = np.random.default_rng(seed)
    skew = np.zeros((2, n, n), dtype=complex)
    skew[0, 0, -1], skew[0, -1, 0] = -1.0, 1.0
    zero_slot = np.zeros((2, n, n), dtype=complex)
    zero_slot[1] = complex_gaussians(rng, 1, n, n)[0]
    x = np.concatenate([complex_gaussians(rng, s, 2, n, n), [skew, zero_slot]])
    ball = MatrixTuple(np.array([type_iv_tuple()[1], np.zeros((2, 2))]))
    domains = Spectrahedron(type_ii_tuple()), Spectraball(ball), Spectraball(type_iii_tuple())
    for domain in domains:
        scales = boundary_scale(domain, x)
        for scale, single in zip(scales, x):
            assert scale == boundary_scale(domain, MatrixTuple(single))
    if n > 1:
        assert math.isinf(boundary_scale(Spectrahedron(type_ii_tuple()), x)[-2])
    assert math.isinf(boundary_scale(Spectraball(ball), x)[-1])


# --- harnesses against the loop over single points --------------------------------
#
# The loop_* functions are the harnesses as they were before points were
# stacked: one point at a time through the one-point calls, with a breach
# caught per ray.

def loop_rays(rng, domain, levels, count):
    rays = []
    for n in levels:
        for x in map(MatrixTuple, random_directions(rng, domain.coeffs.g, n, count)):
            scale = boundary_scale(domain, x)
            if math.isfinite(scale) and scale <= SCALE_CAP:
                rays.append((n, x, scale))
    return rays, len(levels) * count - len(rays)


def loop_padded(data, g):
    zeros = np.zeros((g - len(data),) + data.shape[1:])
    return MatrixTuple(np.concatenate([data, zeros]))


def loop_transport(report, spec, q_map, j, samples, seed, then=lambda inside, image: None):
    rays, skipped = loop_rays(seeded_rng(seed), spec, (1, 2, 3), samples)
    boundary_defect, boundary_within, interior_worst = 0.0, True, 0.0
    interior, breaches = [], 0
    for n, x, scale in rays:
        try:
            on = loop_padded(scale * x.data, j.g)
            defect = abs(1.0 - operator_norm(pencil_eval(j, q_map(on))))
            boundary_defect = max(boundary_defect, defect)
            size = max(1.0, float(np.linalg.norm(pencil_eval(j, on))))
            boundary_within &= defect < q_map.construction_tol * size
            inside = loop_padded(0.9 * scale * x.data, j.g)
            image = q_map(inside)
            interior_worst = max(interior_worst, operator_norm(pencil_eval(j, image)))
            interior.append((n, image, then(inside, image)))
        except DomainBreach:
            breaches += 1
    report.add(
        "boundary-to-boundary",
        breaches == 0 and boundary_within,
        boundary_defect,
        samples=len(rays),
        detail=f"skipped {skipped} infinite rays; domain breaches {breaches}",
    )
    report.add(
        "interior-to-interior",
        breaches == 0 and interior_worst < 1.0,
        max(0.0, interior_worst - 1.0),
        samples=len(rays),
        detail=f"max interior image norm {interior_worst:.6f}",
    )
    return breaches, len(rays), interior


def loop_properness(J, samples, seed, tol=DEFAULT_TOL):
    report = VerificationReport("properness")
    q_map = ConvexotonicMap(structure_constants(J, tol).xi, MapSign.PLUS, tol)
    p_map = q_map.inverse()

    def round_trip(inside, image):
        return _tuple_distance(p_map(image), inside), tol * float(np.linalg.norm(inside.data))

    spec = Spectrahedron(J)
    breaches, used, interior = loop_transport(report, spec, q_map, J, samples, seed, round_trip)
    gaps = [gap for _, _, gap in interior]
    report.add(
        "round-trip-identity",
        breaches == 0 and all(gap <= limit for gap, limit in gaps),
        max((gap for gap, _ in gaps), default=0.0),
        samples=used,
    )
    return report


def loop_corollary(A, samples, seed, tol=DEFAULT_TOL):
    report = VerificationReport("corollary")
    closure = algebra_closure(A, tol)
    j = closure.extended
    sc = structure_constants(j, tol)
    report.add("closure", True, sc.residual, detail=f"appended {closure.appended_count} elements")
    q_map = ConvexotonicMap(sc.xi, MapSign.PLUS, tol)
    _, _, interior = loop_transport(report, Spectrahedron(A), q_map, j, samples, seed)
    same_level = [
        (a, b) for k, (n, a, _) in enumerate(interior) for m, b, _ in interior[k + 1 :] if n == m
    ]
    min_gap = min((_tuple_distance(a, b) for a, b in same_level), default=math.inf)
    report.add(
        "injectivity-gap",
        min_gap > 0.0,
        0.0,
        samples=len(same_level),
        detail=f"min pairwise image gap {min_gap:.3e}",
    )
    return report


def loop_theorem_transport(data, samples, seed, tol=DEFAULT_TOL):
    """The transport check of verify_theorem: its other checks draw nothing."""
    report = VerificationReport("theorem")
    sc = pencil_structure_constants(data.ball_tuple, data.twist, tol)
    p_map = ConvexotonicMap(sc.xi, MapSign.MINUS, tol)
    target = Spectrahedron(data.target_tuple)
    rays, _ = loop_rays(seeded_rng(seed), Spectraball(data.ball_tuple), (1, 2, 3), samples)
    worst, breaches = math.inf, 0
    for _, x, scale in rays:
        try:
            point = MatrixTuple(0.9 * scale * x.data)
            image = p_map(point)
            pencil = linalg.hermitian_pencil(target.coeffs, image)
            worst = min(worst, float(np.linalg.eigvalsh(pencil)[0]))
        except DomainBreach:
            breaches += 1
    report.add(
        "ball-to-spectrahedron-transport",
        breaches == 0 and worst > -tol,
        max(0.0, -worst),
        samples=len(rays),
        detail=f"min margin {worst:.3e}; domain breaches {breaches}",
    )
    return report.checks[0]


LIMITS = st.sampled_from([3.0, 5.0, 7.0, 30.0, linalg.COND_LIMIT])
TUPLES = {"i": type_i_tuple, "ii": type_ii_tuple, "iii": type_iii_tuple, "iv": type_iv_tuple}


@settings(max_examples=25, deadline=None)
@given(SEEDS, st.sampled_from(sorted(TUPLES)), st.integers(0, 8), LIMITS)
def test_properness_reports_what_the_loop_reports(seed, kind, samples, limit):
    # a lower COND_LIMIT refuses some of the boundary, interior and round-trip
    # points of a ray stack and keeps others
    J = TUPLES[kind]()
    with mock.patch.object(linalg, "COND_LIMIT", limit):
        stacked = verify_properness(J, samples=samples, seed=seed).to_dict()
        looped = loop_properness(J, samples, seed).to_dict()
    assert stacked == looped


@settings(max_examples=15, deadline=None)
@given(SEEDS, st.sampled_from(["shift", "iv", "pair"]), st.integers(0, 6), LIMITS)
def test_corollary_reports_what_the_loop_reports(seed, kind, samples, limit):
    A = {
        "shift": MatrixTuple.from_matrices([type_i_tuple()[0]]),
        "iv": type_iv_tuple(),
        "pair": MatrixTuple(np.triu(complex_gaussians(np.random.default_rng(seed), 2, 3, 3))),
    }[kind]
    with mock.patch.object(linalg, "COND_LIMIT", limit):
        stacked = verify_corollary(A, samples=samples, seed=seed).to_dict()
        looped = loop_corollary(A, samples, seed).to_dict()
    assert stacked == looped


@settings(max_examples=15, deadline=None)
@given(SEEDS, st.sampled_from(["ut", "full"]), st.integers(0, 8), st.sampled_from([10.0, 30.0]))
def test_theorem_transport_reports_what_the_loop_reports(seed, kind, samples, limit):
    data = planted_theorem(kind, 3, seed % 4)
    with mock.patch.object(linalg, "COND_LIMIT", limit):
        checks = verify_theorem(data, samples=samples, seed=seed).checks
        looped = loop_theorem_transport(data, samples, seed)
    assert checks[-1] == looped


def breach_counts(report):
    return [int(c.detail.rsplit(" ", 1)[1]) for c in report.checks if "breaches" in c.detail]


def test_some_rays_of_a_stack_breach_as_in_the_loop():
    # pinned cases where some rays of a level breach and others do not: the
    # type IV rays (seed 5, 10 a level) under COND_LIMIT 5, the single shift's
    # corollary, and a planted theorem under 30
    with mock.patch.object(linalg, "COND_LIMIT", 5.0):
        stacked = verify_properness(type_iv_tuple(), samples=10, seed=5)
        assert stacked.to_dict() == loop_properness(type_iv_tuple(), 10, 5).to_dict()
        corollary = verify_corollary(MatrixTuple.from_matrices([type_i_tuple()[0]]), 10, 5)
    assert breach_counts(stacked) == [13]
    assert breach_counts(corollary) == [1]
    data = planted_theorem("ut", 3, 3)
    with mock.patch.object(linalg, "COND_LIMIT", 30.0):
        transport = verify_theorem(data, samples=10).checks[-1]
        assert transport == loop_theorem_transport(data, 10, 42)
    assert 0 < breach_counts(VerificationReport("t", [transport]))[0] < 30


@contextmanager
def refusing_first_point(sign):
    """The first point a map of this sign evaluates is refused: a one-point
    call raises DomainBreach, and a stack gets a NaN image."""
    original = ConvexotonicMap.__call__
    refused = []

    def call(self, X):
        images = original(self, X)
        if self.sign is sign and not refused and len(images):
            refused.append(X)
            if isinstance(X, MatrixTuple):
                raise DomainBreach("refused once")
            images[0] = np.nan
        return images

    with mock.patch.object(ConvexotonicMap, "__call__", call):
        yield


@pytest.mark.parametrize("sign", list(MapSign))
def test_a_refused_point_of_either_map_is_one_breach_as_in_the_loop(sign):
    # plus: the first boundary point; minus: the first round trip, whose
    # interior image already counted toward interior-to-interior
    with refusing_first_point(sign):
        stacked = verify_properness(type_iv_tuple(), samples=6, seed=2)
    with refusing_first_point(sign):
        looped = loop_properness(type_iv_tuple(), 6, 2)
    assert stacked.to_dict() == looped.to_dict()
    assert breach_counts(stacked) == [1]


def test_ball_equality_without_samples_is_unevaluated(e_tuple):
    check = verify_ball_equality(e_tuple, e_tuple, samples=0).checks[0]
    assert (check.passed, check.samples, check.detail) == (False, 0, "no point evaluated")
