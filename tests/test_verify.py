import json
import re
from functools import partial

import numpy as np
import pytest
from numpy.testing import assert_allclose

import convexotonic.verify
from convexotonic import (
    ConvexotonicMap,
    MapSign,
    MatrixTuple,
    Spectrahedron,
    TheoremData,
    VerificationReport,
    algebra_closure,
    example_catalog,
    pencil_structure_constants,
    structure_constants,
    type_i_tuple,
    type_iv_tuple,
    verify_ball_equality,
    verify_corollary,
    verify_properness,
    verify_theorem,
)
from convexotonic.errors import DomainBreach, ShapeMismatch, TupleLengthMismatch
from convexotonic.jsonio import dumps
from convexotonic.sampling import random_unitary, seeded_rng
from convexotonic.verify import _check_oracle, mobius_conjugate
from conftest import planted_theorem


def check_map(report):
    return {c.name: c for c in report.checks}


# --- theorem harness ----------------------------------------------------------

def test_theorem_identity_data(e_tuple):
    data = TheoremData(e_tuple, e_tuple, np.eye(2), np.eye(2))
    report = verify_theorem(data, samples=10, seed=1)
    assert report.passed
    xi = pencil_structure_constants(e_tuple, np.eye(2)).xi
    assert_allclose(xi.data, e_tuple.data, atol=1e-13)


@pytest.mark.parametrize("alpha", [1j, -1.0, np.exp(0.7j)])
def test_theorem_scaled_data(e_tuple, alpha):
    data = TheoremData(
        e_tuple,
        MatrixTuple(alpha * e_tuple.data),
        alpha * np.eye(2),
        np.eye(2),
    )
    report = verify_theorem(data, samples=10, seed=2)
    assert report.passed
    xi = pencil_structure_constants(e_tuple, alpha * np.eye(2)).xi
    assert_allclose(xi.data, alpha * e_tuple.data, atol=1e-13)


def test_theorem_swap_twist_fails(e_tuple):
    swap = np.array([[0, 1], [1, 0]], dtype=complex)
    report = verify_theorem(TheoremData(e_tuple, e_tuple, swap, np.eye(2)))
    assert not report.passed
    checks = check_map(report)
    assert not checks["twisted-product-constants"].passed
    assert "span" in checks["twisted-product-constants"].detail.lower()


def perturbed_type_iv():
    """Type IV plus 1e-6 noise: its constants have convexotonic residual
    3.2e-7, inside the bound of tol = 1e-4 and outside that of 1e-8."""
    e = type_iv_tuple()
    return MatrixTuple(e.data + 1e-6 * np.random.default_rng(0).standard_normal(e.data.shape))


def test_harness_tol_governs_map_acceptance():
    ep = perturbed_type_iv()
    theorem = verify_theorem(TheoremData(ep, ep, np.eye(2), np.eye(2)), samples=5, tol=1e-4)
    checks = check_map(theorem)
    assert checks["convexotonic"].passed
    assert checks["convexotonic"].residual == pytest.approx(3.2e-7, rel=0.01)
    assert checks["ball-to-spectrahedron-transport"].samples > 0
    for harness in (verify_properness, verify_corollary):
        report = harness(ep, samples=5, tol=1e-4)
        assert check_map(report)["boundary-to-boundary"].samples > 0


def test_properness_judges_the_round_trip_at_the_callers_tol():
    # the accepted constants miss convexotonic by 3.2e-7, and the round trip
    # misses X by up to 6.6e-6: over 1e-9, the old absolute bound, but within
    # 1e-4 ||X||
    report = check_map(verify_properness(perturbed_type_iv(), tol=1e-4))
    for name in ("boundary-to-boundary", "interior-to-interior", "round-trip-identity"):
        assert report[name].passed and report[name].samples > 0, name
    assert report["round-trip-identity"].residual > 1e-6


def test_theorem_skips_transport_of_non_convexotonic_constants(monkeypatch, e_tuple):
    monkeypatch.setattr(convexotonic.verify, "is_convexotonic", lambda xi, tol: False)
    report = verify_theorem(TheoremData(e_tuple, e_tuple, np.eye(2), np.eye(2)), samples=5)
    checks = check_map(report)
    assert not checks["convexotonic"].passed
    transport = checks["ball-to-spectrahedron-transport"]
    assert not transport.passed
    assert transport.detail == "not evaluated: constants not convexotonic"


def strict_json(report):
    """The report as strict JSON: NaN and +-Infinity are not JSON numbers."""

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(dumps(report.to_dict()), parse_constant=reject)


def test_sampled_check_without_samples_fails():
    report = VerificationReport("rule")
    report.add("sampled", True, 5.0, samples=0, detail="max norm 0")
    report.add("unsampled", True, 1e-14)
    sampled, unsampled = report.checks
    assert (sampled.passed, sampled.residual, sampled.samples) == (False, 0.0, 0)
    assert sampled.detail == "no point evaluated; max norm 0"
    assert unsampled.passed and unsampled.samples == 0
    assert not report.passed


@pytest.fixture
def breach_once(monkeypatch):
    """The first point a map evaluates is refused (a NaN image in a stack, as
    the map gives a point a one-point call refuses); later ones run as before."""
    original = ConvexotonicMap.__call__
    refused = []

    def call(self, X):
        images = original(self, X)
        if not refused and len(images):
            refused.append(X)
            images[0] = np.nan
        return images

    monkeypatch.setattr(ConvexotonicMap, "__call__", call)


def test_theorem_transport_counts_a_domain_breach(e_tuple, breach_once):
    report = verify_theorem(TheoremData(e_tuple, e_tuple, np.eye(2), np.eye(2)), samples=5)
    checks = check_map(report)
    transport = checks.pop("ball-to-spectrahedron-transport")
    assert not transport.passed and transport.samples == 15
    assert transport.detail.endswith("domain breaches 1")
    assert all(check.passed for check in checks.values())


def test_properness_counts_a_domain_breach(e_tuple, breach_once):
    checks = check_map(verify_properness(e_tuple, samples=5))
    assert checks["boundary-to-boundary"].detail.endswith("domain breaches 1")
    for name in ("boundary-to-boundary", "interior-to-interior", "round-trip-identity"):
        assert not checks[name].passed and checks[name].samples > 0, name


def test_theorem_without_samples_fails_transport(e_tuple):
    report = verify_theorem(TheoremData(e_tuple, e_tuple, np.eye(2), np.eye(2)), samples=0)
    transport = check_map(report)["ball-to-spectrahedron-transport"]
    assert not transport.passed
    assert transport.samples == 0
    assert transport.residual == 0.0
    assert "no point evaluated" in transport.detail
    doc = strict_json(report)
    assert doc["passed"] is False


def test_theorem_rejects_non_unitary(e_tuple):
    with pytest.raises(ValueError):
        TheoremData(e_tuple, e_tuple, 2 * np.eye(2), np.eye(2))


E = type_iv_tuple()
MALFORMED_THEOREM_DATA = {
    # (E, B, Z, M) and the refusal; a one-element B used to end in an IndexError
    "b-shorter": ((E, MatrixTuple(E.data[:1]), np.eye(2), np.eye(2)), TupleLengthMismatch),
    "b-longer": ((E, MatrixTuple(E.data[[0, 1, 1]]), np.eye(2), np.eye(2)), TupleLengthMismatch),
    "b-3x3": ((E, MatrixTuple(np.ones((2, 3, 3))), np.eye(2), np.eye(2)), ShapeMismatch),
    "e-2x3": ((MatrixTuple(np.ones((2, 2, 3))), E, np.eye(2), np.eye(2)), ShapeMismatch),
    "z-3x3": ((E, E, np.eye(3), np.eye(2)), ShapeMismatch),
    "m-3x3": ((E, E, np.eye(2), np.eye(3)), ShapeMismatch),
    "z-vector": ((E, E, np.ones(2), np.eye(2)), ShapeMismatch),
    "m-not-unitary": ((E, E, np.eye(2), 2 * np.eye(2)), ValueError),
}


@pytest.mark.parametrize(
    "data, error", MALFORMED_THEOREM_DATA.values(), ids=MALFORMED_THEOREM_DATA.keys()
)
def test_theorem_data_refuses_malformed_data(data, error):
    with pytest.raises(error):
        TheoremData(*data)


def test_theorem_conjugated_data(e_tuple):
    rng = np.random.default_rng(12)
    m = random_unitary(rng, 2)
    alpha = np.exp(0.3j)
    b = MatrixTuple(
        np.stack([m.conj().T @ (alpha * e_tuple[j]) @ m for j in range(2)])
    )
    report = verify_theorem(
        TheoremData(e_tuple, b, alpha * np.eye(2), m), samples=10, seed=3
    )
    assert report.passed
    # the conjugation identity forces equal pencil norms
    assert verify_ball_equality(e_tuple, b, samples=20, seed=13).passed


@pytest.mark.parametrize("c", [1.0, 1e3, 1e8])
@pytest.mark.parametrize("make", [type_iv_tuple, type_i_tuple], ids=["type-iv", "type-i"])
def test_theorem_checks_scale_with_the_data(make, c):
    # planted B = M* (cE) M with Z = I; at c = 1e8 the constants of E and B
    # differ by ~1.7e-8 against ||xi|| ~ 1e8, which an absolute tol refused
    e = MatrixTuple(c * make().data)
    m = random_unitary(np.random.default_rng(3), e.rows)
    b = MatrixTuple(m.conj().T @ e.data @ m)
    report = verify_theorem(TheoremData(e, b, np.eye(e.rows), m), samples=5)
    assert report.passed, [ch.name for ch in report.checks if not ch.passed]


def test_theorem_records_overflowing_constants_as_failed_checks(e_tuple):
    big = MatrixTuple(1e100 * e_tuple.data)
    report = verify_theorem(TheoremData(big, big, np.eye(2), np.eye(2)), samples=5)
    checks = check_map(report)
    for name in ("twisted-product-constants", "target-spans-algebra"):
        assert not checks[name].passed and checks[name].residual == 0.0
        assert checks[name].detail.endswith("the products overflow")
    assert not report.passed
    dumps(report.to_dict())  # every number is finite


@pytest.mark.parametrize("d", [3, 4, 5])
@pytest.mark.parametrize("kind", ["ut", "full", "strict"])
def test_planted_theorem_family_passes(kind, d):
    data = planted_theorem(kind, d, seed=d)
    assert data.target_tuple.g > 2  # the closure grew past the generating pair
    report = verify_theorem(data, samples=10)
    assert report.passed, [ch.name for ch in report.checks if not ch.passed]


# --- ball equality --------------------------------------------------------------

def test_ball_equality_cases(e_tuple):
    assert verify_ball_equality(e_tuple, e_tuple, samples=20, seed=1).passed
    scaled = MatrixTuple(1j * e_tuple.data)
    report = verify_ball_equality(e_tuple, scaled, samples=20, seed=2)
    assert report.passed
    assert report.checks[0].residual < 1e-12
    rng = np.random.default_rng(3)
    u = random_unitary(rng, 2)
    conjugated = MatrixTuple(np.stack([u.conj().T @ e_tuple[j] @ u for j in range(2)]))
    report = verify_ball_equality(e_tuple, conjugated, samples=20, seed=4)
    assert report.passed
    assert report.checks[0].residual < 1e-10


def test_ball_equality_without_samples_fails(e_tuple):
    report = verify_ball_equality(e_tuple, e_tuple, samples=0)
    assert not report.passed
    assert report.checks[0].detail.startswith("no point evaluated")


def test_ball_equality_detects_difference(e_tuple, f_tuple):
    report = verify_ball_equality(e_tuple, MatrixTuple(2 * e_tuple.data), samples=10, seed=5)
    assert not report.passed


# --- properness ------------------------------------------------------------------

def test_properness_unit_jordan(e_tuple):
    report = verify_properness(e_tuple, samples=25, seed=6)
    assert report.passed, [c for c in report.checks if not c.passed]


def test_properness_corner_pair(r2_tuple):
    report = verify_properness(r2_tuple, samples=25, seed=7)
    assert report.passed


def test_properness_nilpotent_pair(f_tuple):
    report = verify_properness(f_tuple, samples=25, seed=8)
    assert report.passed


@pytest.mark.parametrize(
    "harness, last",
    [(verify_properness, "round-trip-identity"), (verify_corollary, "injectivity-gap")],
)
def test_properness_without_samples_fails(e_tuple, harness, last):
    report = harness(e_tuple, samples=0)
    checks = [c for c in report.checks if c.name != "closure"]
    assert [c.name for c in checks] == ["boundary-to-boundary", "interior-to-interior", last]
    for check in checks:
        assert not check.passed
        assert check.samples == 0
        assert "no point evaluated" in check.detail
    assert strict_json(report)["passed"] is False


def test_properness_counts_skipped_rays():
    # some rays never leave the spectrahedron of the scalar 1; they are skipped
    scalar = MatrixTuple.scalar([1.0])
    report = verify_properness(scalar, samples=25, seed=1)
    assert report.passed
    boundary = check_map(report)["boundary-to-boundary"]
    skipped = int(re.search(r"skipped (\d+) infinite rays", boundary.detail).group(1))
    assert skipped > 0
    assert boundary.samples + skipped == 3 * 25
    # the corollary runs the same transport on the same rays
    corollary = check_map(verify_corollary(scalar, samples=25, seed=1))["boundary-to-boundary"]
    assert (corollary.residual, corollary.samples) == (boundary.residual, boundary.samples)
    assert corollary.detail == boundary.detail


# --- corollary --------------------------------------------------------------------

def test_corollary_injectivity_fails_when_no_pair_shares_a_level(e_tuple):
    # one ray per level leaves no two images at one level, so no pair was
    # compared; the check passed with "min pairwise image gap inf"
    report = verify_corollary(e_tuple, samples=1, seed=3)
    assert check_map(report)["interior-to-interior"].samples > 1
    injectivity = check_map(report)["injectivity-gap"]
    assert not injectivity.passed
    assert injectivity.samples == 0
    assert injectivity.detail == "no point evaluated; min pairwise image gap inf"
    assert report.passed is False


def test_corollary_injectivity_counts_the_pairs_compared(e_tuple):
    rays, _ = convexotonic.verify._rays(seeded_rng(3), Spectrahedron(e_tuple), (1, 2, 3), 4)
    per_level = [len(x) for x, _ in rays]
    injectivity = check_map(verify_corollary(e_tuple, samples=4, seed=3))["injectivity-gap"]
    assert injectivity.passed
    assert injectivity.samples == sum(k * (k - 1) // 2 for k in per_level)


def test_corollary_single_shift(f_tuple):
    single = MatrixTuple.from_matrices([f_tuple[0]])
    report = verify_corollary(single, samples=25, seed=9)
    assert report.passed, [c for c in report.checks if not c.passed]
    checks = check_map(report)
    assert "appended 1" in checks["closure"].detail


def test_corollary_padded_map_closed_form(f_tuple):
    # with the closure of the single shift, the padded plus-sign map is
    # x -> (x, -x^2)
    closure = algebra_closure(MatrixTuple.from_matrices([f_tuple[0]]))
    xi = structure_constants(closure.extended).xi
    q = ConvexotonicMap(xi, MapSign.PLUS)
    x = np.array([[0.2, 0.1], [0.0, -0.3]], dtype=complex)
    padded = MatrixTuple.from_matrices([x, np.zeros((2, 2))])
    image = q(padded)
    assert_allclose(image[0], x, atol=1e-13)
    assert_allclose(image[1], -x @ x, atol=1e-13)


def test_corollary_scalar_projection():
    single = MatrixTuple.from_matrices([np.array([[1.0, 0.0], [0.0, 0.0]])])
    report = verify_corollary(single, samples=25, seed=10)
    assert report.passed
    checks = check_map(report)
    assert "appended 0" in checks["closure"].detail


def test_corollary_reduces_to_properness(e_tuple):
    report = verify_corollary(e_tuple, samples=25, seed=11)
    assert report.passed


# --- catalog -----------------------------------------------------------------------

def test_catalog_passes_and_warns():
    report = example_catalog(seed=42)
    assert report.passed, [c.name for c in report.checks if not c.passed]
    assert any("x1^2" in w for w in report.warnings)
    names = [c.name for c in report.checks]
    assert "type-i/candidate-map-transport" in names
    assert "type-ii/unbounded-witness" in names
    assert "mobius-conjugate/spot-value" in names
    # the full order pins the draws: each sampled check takes its points from
    # one generator in turn, and type IV skips 5 of its 75 properness rays
    properness = ["boundary-to-boundary", "interior-to-interior", "round-trip-identity"]
    alphas = ["1", "i", "-1", "seeded"]
    assert [(c.name, c.samples) for c in report.checks] == [
        ("type-i/structure-constants", 0),
        ("type-i/membership-boundary", 0),
        ("type-i/membership-exterior", 0),
        ("type-i/boundary-scale", 0),
        ("type-i/candidate-map-transport", 75),
        ("type-i/map-equals-quadratic-shift", 75),
        ("type-i/not-sv-generic", 0),
        *[(f"type-i/{name}", 75) for name in properness],
        ("type-ii/structure-constants", 0),
        ("type-ii/closed-form", 75),
        ("type-ii/unbounded-witness", 0),
        *[(f"type-ii/{name}", 75) for name in properness],
        ("type-iii/structure-constants", 0),
        ("type-iii/closed-form", 75),
        ("type-iv/closed-form", 75),
        ("type-iv/sv-generic", 0),
        *[(f"type-iv/{name}", 70) for name in properness],
        ("ball-embedding/nilpotent-rejection", 0),
        *[(f"mobius-conjugate/closed-form-alpha-{a}", 50) for a in alphas],
        ("mobius-conjugate/spot-value", 0),
        *[(f"composed-quadratic/constants-map-alpha-{a}", 50) for a in alphas],
        ("composed-quadratic/closed-form", 50),
    ]


def test_catalog_composed_closed_form_is_an_independent_expansion():
    # the closed form expands the products in another order, so rounding
    # leaves a residual that is small but not zero
    check = check_map(example_catalog(seed=42))["composed-quadratic/closed-form"]
    assert check.passed
    assert 0.0 < check.residual < 1e-10


def test_catalog_deterministic():
    a = example_catalog(seed=7).to_dict()
    b = example_catalog(seed=7).to_dict()
    assert a == b


def test_an_oracle_check_refuses_a_point_the_map_refuses(monkeypatch):
    # a NaN image would otherwise reach the oracle distance's SVD
    monkeypatch.setattr(convexotonic.linalg, "COND_LIMIT", 1.0)
    q_e = ConvexotonicMap(structure_constants(type_iv_tuple()).xi, MapSign.PLUS)
    oracle = partial(mobius_conjugate, -1.0)
    report = VerificationReport("oracle")
    with pytest.raises(DomainBreach, match="^type-iv/closed-form: the map refuses a sampled point$"):
        _check_oracle(report, "type-iv/closed-form", q_e, oracle, seeded_rng(1), (2,), 5, 0.3, 1e-10)
    assert report.checks == []


def test_catalog_without_samples_fails_oracle_checks():
    report = example_catalog(seed=42, samples=0)
    checks = check_map(report)
    for name in (
        "type-i/map-equals-quadratic-shift",
        "type-ii/closed-form",
        "type-iii/closed-form",
        "type-iv/closed-form",
    ):
        assert not checks[name].passed, name
        assert checks[name].samples == 0
        assert checks[name].residual == 0.0
        assert checks[name].detail.startswith("no point evaluated")
    assert report.passed is False
