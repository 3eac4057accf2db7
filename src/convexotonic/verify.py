"""Executable checks for the package's theorem-level claims and the catalog of
worked examples (the four two-dimensional algebra types and the maps between
their spectrahedra and spectraballs).

Every report lists each check attempted; skipped sample directions are counted
in the check detail, never dropped silently.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .algebras import algebra_closure, pencil_structure_constants, structure_constants
from .domains import (
    Spectraball,
    Spectrahedron,
    ball_membership,
    ball_to_spectrahedron,
    boundary_scale,
    boundedness_probe,
    spec_membership,
)
from .errors import DomainBreach, SpanViolation
from .genericity import necessary_conditions, sv_probe
from .linalg import DEFAULT_TOL, MatrixTuple, operator_norm, pencil_eval
from .maps import ConvexotonicMap, MapSign, certified_inverse
from .sampling import random_direction, random_unimodular

UNITARY_TOL = 1e-8
BOUNDARY_TOL = 1e-6
ROUNDTRIP_TOL = 1e-9
SCALE_CAP = 1e8  # rays flatter than this are treated like unbounded ones


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: float = 0.0
    samples: int = 0
    detail: str = ""


@dataclass
class VerificationReport:
    name: str
    checks: list[CheckResult] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name, passed, residual=0.0, samples=0, detail=""):
        self.checks.append(
            CheckResult(name, bool(passed), float(residual), int(samples), detail)
        )

    def merge(self, other: "VerificationReport", prefix: str) -> None:
        self.checks.extend(replace(c, name=f"{prefix}/{c.name}") for c in other.checks)
        self.warnings.extend(other.warnings)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "checks": [asdict(c) for c in self.checks],
            "warnings": list(self.warnings),
        }


# ---------------------------------------------------------------------------
# canonical two-dimensional algebra examples (g = 2)

def type_i_tuple() -> MatrixTuple:
    """Nilpotent pair: the 3x3 shift and its square."""
    shift = np.zeros((3, 3), dtype=complex)
    shift[0, 1] = shift[1, 2] = 1.0
    return MatrixTuple.from_matrices([shift, shift @ shift])


def type_ii_tuple() -> MatrixTuple:
    return MatrixTuple.from_matrices(
        [np.array([[1, 0], [0, 0]]), np.array([[0, 1], [0, 0]])]
    )


def type_iii_tuple() -> MatrixTuple:
    return MatrixTuple.from_matrices(
        [np.array([[1, 0], [0, 0]]), np.array([[0, 0], [1, 0]])]
    )


def type_iv_tuple() -> MatrixTuple:
    """Identity plus nilpotent Jordan cell; spans a unital algebra."""
    return MatrixTuple.from_matrices([np.eye(2), np.array([[0, 1], [0, 0]])])


# ---------------------------------------------------------------------------
# closed forms used as independent oracles by the catalog

def mobius_conjugate(alpha: complex, X: MatrixTuple) -> MatrixTuple:
    """(x1 (1-a x1)^-1, (1-a x1)^-1 x2 (1-a x1)^-1)."""
    x1, x2 = X[0], X[1]
    res = certified_inverse(np.eye(x1.shape[0], dtype=complex) - alpha * x1)
    return MatrixTuple.from_matrices([x1 @ res, res @ x2 @ res])


def quadratic_shift(X: MatrixTuple, sign: float = 1.0) -> MatrixTuple:
    """(x1, x2 + sign * x1^2)."""
    return MatrixTuple.from_matrices([X[0], X[1] + sign * (X[0] @ X[0])])


def _tuple_distance(a: MatrixTuple, b: MatrixTuple) -> float:
    return max(operator_norm(a[j] - b[j]) for j in range(a.g))


# ---------------------------------------------------------------------------
# theorem-conclusion harness

@dataclass(frozen=True)
class TheoremData:
    """Data (E, B, Z, M) for the conjugation identity B = M* Z E M."""

    ball_tuple: MatrixTuple
    target_tuple: MatrixTuple
    twist: np.ndarray
    change_of_basis: np.ndarray

    def __post_init__(self):
        z = np.asarray(self.twist, dtype=complex)
        m = np.asarray(self.change_of_basis, dtype=complex)
        for label, u in (("twist", z), ("change_of_basis", m)):
            defect = np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0]))
            if defect > UNITARY_TOL:
                raise ValueError(f"{label} is not unitary (defect {defect:.3e})")
        object.__setattr__(self, "twist", z)
        object.__setattr__(self, "change_of_basis", m)


def _interior_ball_points(ball, rng, levels, count, frac=0.9):
    points = []
    for n in levels:
        for _ in range(count):
            x = random_direction(rng, ball.coeffs.g, n)
            scale = boundary_scale(ball, x)
            if not math.isfinite(scale) or scale > SCALE_CAP:
                continue
            points.append(MatrixTuple(frac * scale * x.data))
    return points


def verify_theorem(
    data: TheoremData, samples: int = 20, seed: int = 42, tol: float = DEFAULT_TOL
) -> VerificationReport:
    """Check the four theorem conclusions on supplied (E, B, Z, M) data.

    (1) the conjugation identity, (2) structure constants of the twisted
    products of E, (3) matching structure constants of B, (4) the minus-sign
    map carrying sampled spectraball points into the target spectrahedron.
    """
    report = VerificationReport("theorem")
    e, b = data.ball_tuple, data.target_tuple
    z, m = data.twist, data.change_of_basis

    conj = max(operator_norm(b[j] - m.conj().T @ z @ e[j] @ m) for j in range(e.g))
    report.add("conjugation-identity", conj < tol, conj)

    sc = None
    try:
        sc = pencil_structure_constants(e, z, tol)
        report.add("twisted-product-constants", True, sc.residual)
    except SpanViolation as err:
        report.add(
            "twisted-product-constants", False, err.residual or 0.0, detail=str(err)
        )

    sc_b = None
    try:
        sc_b = structure_constants(b, tol)
        report.add("target-spans-algebra", True, sc_b.residual)
    except SpanViolation as err:
        report.add("target-spans-algebra", False, err.residual or 0.0, detail=str(err))

    if sc is not None and sc_b is not None:
        gap = _tuple_distance(sc.xi, sc_b.xi)
        report.add("constants-match", gap < tol, gap)
    else:
        report.add("constants-match", False, detail="not evaluated: constants missing")

    if sc is not None:
        defect = sc.convexotonic_residual
        report.add("convexotonic", defect <= tol, defect)

        p_map = ConvexotonicMap.from_constants(sc, MapSign.MINUS)
        target = Spectrahedron(b)
        rng = np.random.default_rng(seed)
        points = _interior_ball_points(Spectraball(e), rng, (1, 2, 3), samples)
        worst = math.inf
        breaches = 0
        for x in points:
            try:
                verdict = spec_membership(target, p_map(x), tol)
            except DomainBreach:
                breaches += 1
                continue
            worst = min(worst, verdict.margin)
        evaluated = len(points) - breaches
        report.add(
            "ball-to-spectrahedron-transport",
            evaluated > 0 and breaches == 0 and worst > -tol,
            max(0.0, -worst) if evaluated else 0.0,
            samples=len(points),
            detail=(f"min margin {worst:.3e}" if evaluated else "no point evaluated")
            + f"; domain breaches {breaches}",
        )
    else:
        report.add("convexotonic", False, detail="not evaluated: constants missing")
        report.add(
            "ball-to-spectrahedron-transport",
            False,
            detail="not evaluated: constants missing",
        )
    return report


def verify_ball_equality(
    e: MatrixTuple, b: MatrixTuple, samples: int = 100, seed: int = 42, tol: float = 1e-9
) -> VerificationReport:
    """Pencil norms of E and B agree at random points (levels 1-3)."""
    report = VerificationReport("ball-equality")
    rng = np.random.default_rng(seed)
    worst = 0.0
    total = 0
    for n in (1, 2, 3):
        for _ in range(samples):
            x = random_direction(rng, e.g, n)
            worst = max(
                worst,
                abs(
                    operator_norm(pencil_eval(e, x)) - operator_norm(pencil_eval(b, x))
                ),
            )
            total += 1
    report.add("pencil-norm-equality", worst < tol, worst, samples=total)
    return report


def verify_properness(
    J: MatrixTuple,
    samples: int = 50,
    seed: int = 42,
    tol: float = DEFAULT_TOL,
    boundary_tol: float = BOUNDARY_TOL,
    roundtrip_tol: float = ROUNDTRIP_TOL,
    levels=(1, 2, 3),
) -> VerificationReport:
    """Boundary and interior transport of the plus-sign map on an algebra tuple.

    Samples rays of the spectrahedron of J, scales onto and inside the
    boundary, and checks the image pencil norms plus the round trip through
    the inverse map. Rays without a finite boundary point are skipped and
    counted.
    """
    report = VerificationReport("properness")
    q_map = ConvexotonicMap.from_constants(structure_constants(J, tol), MapSign.PLUS)
    p_map = q_map.inverse()
    spec = Spectrahedron(J)
    rng = np.random.default_rng(seed)

    boundary_defect = 0.0
    interior_worst = 0.0
    roundtrip = 0.0
    skipped = 0
    breaches = 0
    used = 0
    for n in levels:
        for _ in range(samples):
            x = random_direction(rng, J.g, n)
            scale = boundary_scale(spec, x)
            if not math.isfinite(scale) or scale > SCALE_CAP:
                skipped += 1
                continue
            used += 1
            on_boundary = MatrixTuple(scale * x.data)
            inside = MatrixTuple(0.9 * scale * x.data)
            try:
                boundary_defect = max(
                    boundary_defect,
                    abs(1.0 - operator_norm(pencil_eval(J, q_map(on_boundary)))),
                )
                image = q_map(inside)
                interior_worst = max(
                    interior_worst, operator_norm(pencil_eval(J, image))
                )
                roundtrip = max(roundtrip, _tuple_distance(p_map(image), inside))
            except DomainBreach:
                breaches += 1
    note = f"skipped {skipped} infinite rays; domain breaches {breaches}"
    if not used:
        for name in ("boundary-to-boundary", "interior-to-interior", "round-trip-identity"):
            report.add(name, False, detail=f"no point evaluated; {note}")
        return report
    report.add(
        "boundary-to-boundary",
        breaches == 0 and boundary_defect < boundary_tol,
        boundary_defect,
        samples=used,
        detail=note,
    )
    report.add(
        "interior-to-interior",
        breaches == 0 and interior_worst < 1.0,
        max(0.0, interior_worst - 1.0),
        samples=used,
        detail=f"max interior image norm {interior_worst:.6f}",
    )
    report.add(
        "round-trip-identity",
        breaches == 0 and roundtrip < roundtrip_tol,
        roundtrip,
        samples=used,
    )
    return report


def verify_corollary(
    A: MatrixTuple, samples: int = 50, seed: int = 42, tol: float = DEFAULT_TOL
) -> VerificationReport:
    """Padded-map transport for a tuple that need not span an algebra.

    Closes A to an algebra tuple J, evaluates the plus-sign map at points
    padded with zeros in the appended slots, and checks properness into the
    spectraball of J together with injectivity on the sampled points.
    """
    report = VerificationReport("corollary")
    closure = algebra_closure(A, tol)
    j = closure.extended
    sc = structure_constants(j, tol)
    q_map = ConvexotonicMap.from_constants(sc, MapSign.PLUS)
    report.add(
        "closure",
        True,
        sc.residual,
        detail=f"appended {closure.appended_count} elements",
    )

    spec = Spectrahedron(A)
    rng = np.random.default_rng(seed)

    def padded(x: MatrixTuple) -> MatrixTuple:
        data = np.zeros((j.g, x.rows, x.cols), dtype=complex)
        data[: x.g] = x.data
        return MatrixTuple(data)

    boundary_defect = 0.0
    interior_images = []
    skipped = 0
    breaches = 0
    used = 0
    for n in (1, 2, 3):
        for _ in range(samples):
            x = random_direction(rng, A.g, n)
            scale = boundary_scale(spec, x)
            if not math.isfinite(scale) or scale > SCALE_CAP:
                skipped += 1
                continue
            used += 1
            try:
                img_b = q_map(padded(MatrixTuple(scale * x.data)))
                boundary_defect = max(
                    boundary_defect, abs(1.0 - operator_norm(pencil_eval(j, img_b)))
                )
                interior_images.append(
                    (n, q_map(padded(MatrixTuple(0.9 * scale * x.data))))
                )
            except DomainBreach:
                breaches += 1
    interior_worst = max(
        (operator_norm(pencil_eval(j, img)) for _, img in interior_images),
        default=0.0,
    )
    min_gap = math.inf
    by_level: dict[int, list[MatrixTuple]] = {}
    for n, img in interior_images:
        by_level.setdefault(n, []).append(img)
    for imgs in by_level.values():
        for i in range(len(imgs)):
            for k in range(i + 1, len(imgs)):
                min_gap = min(min_gap, _tuple_distance(imgs[i], imgs[k]))
    note = f"skipped {skipped} infinite rays; domain breaches {breaches}"
    if not used:
        for name in ("boundary-to-boundary", "interior-to-interior", "injectivity-gap"):
            report.add(name, False, detail=f"no point evaluated; {note}")
        return report
    report.add(
        "boundary-to-boundary",
        breaches == 0 and boundary_defect < BOUNDARY_TOL,
        boundary_defect,
        samples=used,
        detail=note,
    )
    report.add(
        "interior-to-interior",
        breaches == 0 and interior_worst < 1.0,
        max(0.0, interior_worst - 1.0),
        samples=used,
    )
    report.add(
        "injectivity-gap",
        min_gap > 0.0,
        0.0,
        samples=len(interior_images),
        detail=f"min pairwise image gap {min_gap:.3e}",
    )
    return report


# ---------------------------------------------------------------------------
# the worked-example catalog

def _map_matches_oracle(xi, sign, oracle, points, tol):
    worst = 0.0
    cmap = ConvexotonicMap(xi, sign)
    for x in points:
        worst = max(worst, _tuple_distance(cmap(x), oracle(x)))
    return worst, worst < tol


def _catalog_points(rng, g, levels, count, scale=0.3):
    pts = []
    for n in levels:
        for _ in range(count):
            pts.append(MatrixTuple(scale * random_direction(rng, g, n).data))
    return pts


def example_catalog(seed: int = 42, samples: int = 25) -> VerificationReport:
    """Run the fixed catalog of worked examples; deterministic per seed."""
    report = VerificationReport("examples")
    rng = np.random.default_rng(seed)

    f_tuple = type_i_tuple()
    e_tuple = type_iv_tuple()
    r2 = type_ii_tuple()
    r3 = type_iii_tuple()

    # --- nilpotent pair (type I) ------------------------------------------
    sc_f = structure_constants(f_tuple)
    expected = np.zeros((2, 2, 2), dtype=complex)
    expected[0, 0, 1] = 1.0
    gap = _tuple_distance(sc_f.xi, MatrixTuple(expected))
    report.add("type-i/structure-constants", gap < 1e-12, max(gap, sc_f.residual))

    spec_f = Spectrahedron(f_tuple)
    v_on = spec_membership(spec_f, MatrixTuple.scalar([1, 1]))
    report.add(
        "type-i/membership-boundary",
        v_on.location.value == "boundary" and abs(v_on.margin) < 1e-10,
        abs(v_on.margin),
        detail="point (1, 1)",
    )
    v_off = spec_membership(spec_f, MatrixTuple.scalar([-1, -1]))
    report.add(
        "type-i/membership-exterior",
        v_off.location.value == "exterior" and abs(v_off.margin + 1.0) < 1e-10,
        abs(v_off.margin + 1.0),
        detail="point -(1, 1)",
    )
    scale10 = boundary_scale(spec_f, MatrixTuple.scalar([1, 0]))
    report.add(
        "type-i/boundary-scale",
        abs(scale10 - 1 / math.sqrt(2)) < 1e-10,
        abs(scale10 - 1 / math.sqrt(2)),
        detail="direction (1, 0)",
    )

    # two candidate quadratic-shift maps; exactly one transports the boundary
    ball_e = Spectraball(e_tuple)
    defects = {1.0: 0.0, -1.0: 0.0}
    candidates_used = 0
    for n in (1, 2, 3):
        for _ in range(samples):
            x = random_direction(rng, 2, n)
            scale = boundary_scale(spec_f, x)
            if not math.isfinite(scale) or scale > SCALE_CAP:
                continue
            candidates_used += 1
            on_boundary = MatrixTuple(scale * x.data)
            for sgn in (1.0, -1.0):
                norm = operator_norm(pencil_eval(e_tuple, quadratic_shift(on_boundary, sgn)))
                defects[sgn] = max(defects[sgn], abs(1.0 - norm))
    minus_ok = defects[-1.0] < BOUNDARY_TOL
    plus_fails = defects[1.0] > BOUNDARY_TOL
    report.add(
        "type-i/candidate-map-transport",
        minus_ok and plus_fails,
        defects[-1.0],
        samples=candidates_used,
        detail=(
            f"boundary defect: (x1, x2 - x1^2) -> {defects[-1.0]:.3e}, "
            f"(x1, x2 + x1^2) -> {defects[1.0]:.3e}"
        ),
    )
    report.warnings.append(
        "quadratic-shift sign: the candidate maps (x1, x2 + x1^2) and "
        "(x1, x2 - x1^2) invert each other, and under the structure-constant "
        "convention used here only (x1, x2 - x1^2) carries the nilpotent-pair "
        "spectrahedron boundary onto the spectraball boundary; the plus variant "
        "is the inverse direction, carrying the spectraball into the spectrahedron."
    )

    pts = _catalog_points(rng, 2, (1, 2, 3), samples)
    worst, ok = _map_matches_oracle(
        sc_f.xi, MapSign.PLUS, lambda x: quadratic_shift(x, -1.0), pts, 1e-12
    )
    report.add("type-i/map-equals-quadratic-shift", ok, worst, samples=len(pts))

    cond_f = necessary_conditions(f_tuple)
    report.add(
        "type-i/not-sv-generic",
        {"nilpotent", "joint-kernel"} <= set(cond_f.reasons),
        detail=f"reasons {list(cond_f.reasons)}",
    )
    report.merge(verify_properness(f_tuple, samples=samples, seed=seed + 1), "type-i")

    # --- type II and III ---------------------------------------------------
    sc_r2 = structure_constants(r2)
    gap = _tuple_distance(sc_r2.xi, r2)
    report.add("type-ii/structure-constants", gap < 1e-12, max(gap, sc_r2.residual))

    def type_ii_oracle(x):
        res = certified_inverse(np.eye(x.rows, dtype=complex) + x[0])
        return MatrixTuple.from_matrices([res @ x[0], res @ x[1]])

    pts = _catalog_points(rng, 2, (1, 2, 3), samples)
    worst, ok = _map_matches_oracle(sc_r2.xi, MapSign.PLUS, type_ii_oracle, pts, 1e-10)
    report.add("type-ii/closed-form", ok, worst, samples=len(pts))

    skew = np.zeros((2, 2, 2), dtype=complex)
    skew[0, 0, 1] = -1.0
    skew[0, 1, 0] = 1.0
    witness = MatrixTuple(skew)
    spec_r2 = Spectrahedron(r2)
    witness_scale = boundary_scale(spec_r2, witness)
    in_ball = ball_membership(Spectraball(r2), witness)
    probe = boundedness_probe(spec_r2, levels=(1, 2), trials=10, seed=seed)
    report.add(
        "type-ii/unbounded-witness",
        math.isinf(witness_scale)
        and in_ball.location.value in ("interior", "boundary")
        and probe.unbounded,
        detail=(
            "skew direction stays inside at every scale; the ray has no finite "
            "boundary point and lies in the ball but outside the map range"
        ),
    )
    report.merge(verify_properness(r2, samples=samples, seed=seed + 2), "type-ii")

    sc_r3 = structure_constants(r3)
    expected3 = np.zeros((2, 2, 2), dtype=complex)
    expected3[0] = np.eye(2)
    gap = _tuple_distance(sc_r3.xi, MatrixTuple(expected3))
    report.add("type-iii/structure-constants", gap < 1e-12, max(gap, sc_r3.residual))

    def type_iii_oracle(x):
        res = certified_inverse(np.eye(x.rows, dtype=complex) + x[0])
        return MatrixTuple.from_matrices([x[0] @ res, x[1] @ res])

    pts = _catalog_points(rng, 2, (1, 2, 3), samples)
    worst, ok = _map_matches_oracle(sc_r3.xi, MapSign.PLUS, type_iii_oracle, pts, 1e-10)
    report.add("type-iii/closed-form", ok, worst, samples=len(pts))

    # --- type IV ------------------------------------------------------------
    sc_e = structure_constants(e_tuple)

    def type_iv_oracle(x):
        res = certified_inverse(np.eye(x.rows, dtype=complex) + x[0])
        return MatrixTuple.from_matrices([x[0] @ res, res @ x[1] @ res])

    pts = _catalog_points(rng, 2, (1, 2, 3), samples)
    worst, ok = _map_matches_oracle(sc_e.xi, MapSign.PLUS, type_iv_oracle, pts, 1e-10)
    report.add("type-iv/closed-form", ok, worst, samples=len(pts))

    probe_e = sv_probe(e_tuple, trials=2000, seed=seed)
    report.add(
        "type-iv/sv-generic",
        probe_e.status == "certified",
        detail=f"certified after {probe_e.trials_used} trials",
    )
    report.merge(verify_properness(e_tuple, samples=samples, seed=seed + 3), "type-iv")

    embed = ball_to_spectrahedron(ball_e)
    cond_embed = necessary_conditions(embed.coeffs)
    report.add(
        "ball-embedding/nilpotent-rejection",
        "nilpotent" in cond_embed.reasons,
        detail=f"reasons {list(cond_embed.reasons)}",
    )

    # --- unimodular Mobius family and the composed quadratic map ------------
    alphas = [1.0 + 0j, 1j, -1.0 + 0j, random_unimodular(rng)]
    labels = ["1", "i", "-1", "seeded"]
    for alpha, label in zip(alphas, labels):
        xi_alpha = MatrixTuple(alpha * e_tuple.data)
        pts3 = [MatrixTuple(0.3 * random_direction(rng, 2, 3).data) for _ in range(50)]
        worst, ok = _map_matches_oracle(
            xi_alpha, MapSign.MINUS, lambda x: mobius_conjugate(alpha, x), pts3, 1e-10
        )
        report.add(f"mobius-conjugate/closed-form-alpha-{label}", ok, worst, samples=50)

    spot = ConvexotonicMap(e_tuple, MapSign.MINUS)(MatrixTuple.scalar([0.25, 0.125]))
    spot_gap = max(
        abs(spot[0][0, 0] - 1 / 3),
        abs(spot[1][0, 0] - 2 / 9),
    )
    report.add("mobius-conjugate/spot-value", spot_gap < 1e-12, spot_gap)

    e2 = e_tuple.data[1]
    for alpha, label in zip(alphas, labels):
        xi_comp = MatrixTuple.from_matrices([alpha * np.eye(2) + e2, alpha * e2])
        pts3 = [MatrixTuple(0.25 * random_direction(rng, 2, 3).data) for _ in range(50)]

        def composed(x, _a=alpha):
            return mobius_conjugate(_a, quadratic_shift(x, 1.0))

        worst, ok = _map_matches_oracle(xi_comp, MapSign.MINUS, composed, pts3, 1e-9)
        report.add(f"composed-quadratic/constants-map-alpha-{label}", ok, worst, samples=50)

    def composed_closed(alpha, x):
        res = certified_inverse(np.eye(x.rows, dtype=complex) - alpha * x[0])
        return MatrixTuple.from_matrices(
            [x[0] @ res, res @ (x[1] + x[0] @ x[0]) @ res]
        )

    alpha = alphas[3]
    pts3 = [MatrixTuple(0.25 * random_direction(rng, 2, 3).data) for _ in range(50)]
    worst = max(
        _tuple_distance(
            mobius_conjugate(alpha, quadratic_shift(x, 1.0)), composed_closed(alpha, x)
        )
        for x in pts3
    )
    report.add("composed-quadratic/closed-form", worst < 1e-10, worst, samples=50)

    return report
