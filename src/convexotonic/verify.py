"""Executable checks for the package's theorem-level claims and the catalog of
worked examples (the four two-dimensional algebra types and the maps between
their spectrahedra and spectraballs).

Every report lists each check attempted; skipped sample directions are counted
in the check detail, never dropped silently.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from functools import partial

import numpy as np

from .algebras import (
    algebra_closure,
    convexotonic_residual,
    is_convexotonic,
    pencil_structure_constants,
    structure_constants,
)
from .domains import (
    Spectraball,
    Spectrahedron,
    ball_membership,
    ball_to_spectrahedron,
    boundary_scale,
    spec_membership,
)
from .errors import DomainBreach, ShapeMismatch, SpanViolation, TupleLengthMismatch
from .genericity import necessary_conditions, sv_probe
from .linalg import (
    DEFAULT_TOL,
    MatrixTuple,
    hermitian_pencil,
    like_point,
    operator_norm,
    pencil_eval,
    point_data,
)
from .maps import ConvexotonicMap, MapSign
from .sampling import check_count, random_directions, random_unimodular, seeded_rng

UNITARY_TOL = 1e-8
BALL_EQUALITY_TOL = 1e-9
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

    def add(self, name, passed, residual=0.0, samples=None, detail=""):
        """Record a check; a sampled one (samples given) that evaluated no point
        fails with residual 0, whatever it computed."""
        if samples == 0:
            passed, residual = False, 0.0
            detail = "; ".join(filter(None, ("no point evaluated", detail)))
        self.checks.append(
            CheckResult(name, bool(passed), float(residual), int(samples or 0), detail)
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

def mobius_conjugate(alpha: complex, X):
    """(x1 (1-a x1)^-1, (1-a x1)^-1 x2 (1-a x1)^-1), at a point or at each
    point of a stack (see linalg.point_data)."""
    x = point_data(X)
    x1, x2 = x[..., 0, :, :], x[..., 1, :, :]
    res = np.linalg.inv(np.eye(x1.shape[-1], dtype=complex) - alpha * x1)
    return like_point(X, np.stack([x1 @ res, res @ x2 @ res], axis=-3))


def quadratic_shift(X, sign: float = 1.0):
    """(x1, x2 + sign * x1^2), at a point or at each point of a stack."""
    x = point_data(X)
    x1 = x[..., 0, :, :]
    return like_point(X, np.stack([x1, x[..., 1, :, :] + sign * (x1 @ x1)], axis=-3))


def _tuple_distance(a, b):
    """Largest operator_norm of a slot difference, from one stacked SVD; for
    two stacks of points, the array of it for each pair."""
    gaps = operator_norm(point_data(a) - point_data(b)).max(axis=-1)
    return float(gaps) if isinstance(a, MatrixTuple) else gaps


def _frobenius(x: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each item of a stack, bit for bit (from the same dot products)."""
    v = x.reshape(len(x), 1, math.prod(x.shape[1:]))
    return np.sqrt((v.real @ v.real.swapaxes(1, 2) + v.imag @ v.imag.swapaxes(1, 2))[:, 0, 0])


def _defined(images: np.ndarray) -> np.ndarray:
    """Which images of a stack a map returned (see ConvexotonicMap.__call__)."""
    return ~np.isnan(images[:, 0, 0, 0])


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
        e, b = self.ball_tuple, self.target_tuple
        if e.g != b.g:
            raise TupleLengthMismatch(f"ball and target tuple lengths differ: {e.g} vs {b.g}")
        z = np.asarray(self.twist, dtype=complex)
        m = np.asarray(self.change_of_basis, dtype=complex)
        shapes = {"ball_tuple": e.data.shape[1:], "target_tuple": b.data.shape[1:]}
        for label, shape in {**shapes, "twist": z.shape, "change_of_basis": m.shape}.items():
            if shape != (e.rows, e.rows):
                raise ShapeMismatch(f"E, B, Z and M need d x d matrices, got {shape} for {label}")
        for label, u in (("twist", z), ("change_of_basis", m)):
            defect = np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0]))
            if defect > UNITARY_TOL:
                raise ValueError(f"{label} is not unitary (defect {defect:.3e})")
        object.__setattr__(self, "twist", z)
        object.__setattr__(self, "change_of_basis", m)


def _rays(rng, domain, levels, count):
    """Random rays of a domain, `count` per level: for each level, (level, the
    stack of the directions with a finite boundary point at most SCALE_CAP
    out, their scales as a (k, 1, 1, 1) array), and the number of the other
    rays, which are skipped."""
    rays = []
    for n in levels:
        x = random_directions(rng, domain.coeffs.g, n, count)
        scale = boundary_scale(domain, x)
        kept = np.isfinite(scale) & (scale <= SCALE_CAP)
        rays.append((n, x[kept], scale[kept, None, None, None]))
    return rays, len(levels) * count - sum(len(x) for _, x, _ in rays)


def _constants(report, name, solve, *args):
    """Add the check that solve(*args) finds structure constants; return them,
    or None where the solve raises SpanViolation or DomainBreach (overflow)."""
    try:
        sc = solve(*args)
    except (SpanViolation, DomainBreach) as err:
        report.add(name, False, getattr(err, "residual", None) or 0.0, detail=str(err))
        return None
    report.add(name, True, sc.residual)
    return sc


def verify_theorem(
    data: TheoremData, samples: int = 20, seed: int = 42, tol: float = DEFAULT_TOL
) -> VerificationReport:
    """Check the four theorem conclusions on supplied (E, B, Z, M) data.

    (1) the conjugation identity, (2) structure constants of the twisted
    products of E, (3) matching structure constants of B, (4) the minus-sign
    map carrying sampled spectraball points into the target spectrahedron.
    Checks (1) and (3) compare against tol times max(1, the largest ||B_j||)
    and max(1, the largest ||xi_j||_F).
    """
    rng = seeded_rng(seed)
    check_count(samples, "samples")
    report = VerificationReport("theorem")
    e, b = data.ball_tuple, data.target_tuple
    z, m = data.twist, data.change_of_basis

    conj = operator_norm(b.data - m.conj().T @ z @ e.data @ m).max()
    report.add("conjugation-identity", conj < tol * max(1.0, operator_norm(b.data).max()), conj)

    sc = _constants(report, "twisted-product-constants", pencil_structure_constants, e, z, tol)
    sc_b = _constants(report, "target-spans-algebra", structure_constants, b, tol)

    if sc is not None and sc_b is not None:
        gap = _tuple_distance(sc.xi, sc_b.xi)
        size = max(1.0, *np.linalg.norm(sc.xi.data, axis=(1, 2)))
        report.add("constants-match", gap < tol * size, gap)
    else:
        report.add("constants-match", False, detail="not evaluated: constants missing")

    convexotonic = sc is not None and is_convexotonic(sc.xi, tol)
    if sc is None:
        report.add("convexotonic", False, detail="not evaluated: constants missing")
    else:
        report.add("convexotonic", convexotonic, convexotonic_residual(sc.xi))

    if convexotonic:
        p_map = ConvexotonicMap(sc.xi, MapSign.MINUS, tol)
        rays, _ = _rays(rng, Spectraball(e), (1, 2, 3), samples)
        images = [p_map(0.9 * scale * x) for _, x, scale in rays]
        pencils = [hermitian_pencil(b, image[_defined(image)]) for image in images]
        margins = np.concatenate([np.linalg.eigvalsh(h)[:, 0] for h in pencils])
        worst = margins.min(initial=math.inf)
        used = sum(len(x) for _, x, _ in rays)
        breaches = used - len(margins)
        report.add(
            "ball-to-spectrahedron-transport",
            breaches == 0 and worst > -tol,
            max(0.0, -worst),
            samples=used,
            detail=f"min margin {worst:.3e}; domain breaches {breaches}",
        )
    else:
        reason = "constants missing" if sc is None else "constants not convexotonic"
        report.add("ball-to-spectrahedron-transport", False, detail=f"not evaluated: {reason}")
    return report


def verify_ball_equality(
    e: MatrixTuple, b: MatrixTuple, samples: int = 100, seed: int = 42
) -> VerificationReport:
    """Pencil norms of E and B agree at random points (levels 1-3)."""
    rng = seeded_rng(seed)
    check_count(samples, "samples")
    report = VerificationReport("ball-equality")
    draws = [random_directions(rng, e.g, n, samples) for n in (1, 2, 3)]
    gaps = [operator_norm(pencil_eval(e, x)) - operator_norm(pencil_eval(b, x)) for x in draws]
    worst = np.abs(np.concatenate(gaps)).max(initial=0.0)
    report.add("pencil-norm-equality", worst < BALL_EQUALITY_TOL, worst, samples=3 * samples)
    return report


def _padded(x: np.ndarray, g: int) -> np.ndarray:
    """The stack x of points, each followed by zero matrices up to length g."""
    zeros = np.zeros(x.shape[:-3] + (g - x.shape[-3],) + x.shape[-2:])
    return np.concatenate([x, zeros], axis=-3)


def _transport(report, spec, q_map, j, samples, seed, back=None):
    """Boundary and interior transport of the plus-sign map q_map of the algebra
    tuple j, which starts with the coefficients of spec.

    On each level's stack of finite rays of spec (levels 1-3, `samples` per
    level), evaluates q_map at the boundary points and at the points 0.9 times
    as far out, padded with zeros to length j.g, and adds the
    boundary-to-boundary and interior-to-interior checks on the pencil norms
    of j at the images; a boundary image's norm may miss 1 by tol =
    q_map.construction_tol times max(1, ||pencil_j(X)||_F). With back (the
    inverse map), adds the round-trip-identity check, which may miss each
    interior X by tol * ||X||_F. A ray is one breach, failing every check,
    where a map refuses one of its points; what it gave before still counts.
    Returns each level's stack of the interior images left."""
    rays, skipped = _rays(seeded_rng(seed), spec, (1, 2, 3), samples)
    tol = q_map.construction_tol
    boundary_defect, boundary_within, interior_worst = 0.0, True, 0.0
    breaches, images, gaps, limits = 0, [], [], []
    for _, x, scale in rays:
        on = _padded(scale * x, j.g)
        image = q_map(on)
        kept = _defined(image)
        defect = np.abs(1.0 - operator_norm(pencil_eval(j, image[kept])))
        boundary_defect = max(boundary_defect, defect.max(initial=0.0))
        size = np.maximum(1.0, _frobenius(pencil_eval(j, on[kept])))
        boundary_within &= bool(np.all(defect < tol * size))
        inside = _padded(0.9 * scale[kept] * x[kept], j.g)
        image = q_map(inside)
        kept = _defined(image)
        inside, image = inside[kept], image[kept]
        interior_worst = max(interior_worst, operator_norm(pencil_eval(j, image)).max(initial=0.0))
        if back is not None:
            returned = back(image)
            kept = _defined(returned)
            inside, image = inside[kept], image[kept]
            gaps.append(_tuple_distance(returned[kept], inside))
            limits.append(tol * _frobenius(inside))
        breaches += len(x) - len(inside)
        images.append(image)
    used = sum(len(x) for _, x, _ in rays)
    report.add(
        "boundary-to-boundary",
        breaches == 0 and boundary_within,
        boundary_defect,
        samples=used,
        detail=f"skipped {skipped} infinite rays; domain breaches {breaches}",
    )
    report.add(
        "interior-to-interior",
        breaches == 0 and interior_worst < 1.0,
        max(0.0, interior_worst - 1.0),
        samples=used,
        detail=f"max interior image norm {interior_worst:.6f}",
    )
    if back is not None:
        gaps, limits = np.concatenate(gaps), np.concatenate(limits)
        within = breaches == 0 and bool(np.all(gaps <= limits))
        report.add("round-trip-identity", within, gaps.max(initial=0.0), samples=used)
    return images


def verify_properness(
    J: MatrixTuple, samples: int = 50, seed: int = 42, tol: float = DEFAULT_TOL
) -> VerificationReport:
    """Boundary and interior transport of the plus-sign map on an algebra tuple.

    Samples rays of the spectrahedron of J, scales onto and inside the
    boundary, and checks the image pencil norms plus the round trip through
    the inverse map, which may miss each point X by tol * ||X||_F.
    Rays without a finite boundary point are skipped and counted.
    """
    check_count(samples, "samples")
    report = VerificationReport("properness")
    q_map = ConvexotonicMap(structure_constants(J, tol).xi, MapSign.PLUS, tol)
    _transport(report, Spectrahedron(J), q_map, J, samples, seed, back=q_map.inverse())
    return report


def verify_corollary(
    A: MatrixTuple, samples: int = 50, seed: int = 42, tol: float = DEFAULT_TOL
) -> VerificationReport:
    """Padded-map transport for a tuple that need not span an algebra.

    Closes A to an algebra tuple J, evaluates the plus-sign map at points
    padded with zeros in the appended slots, and checks properness into the
    spectraball of J together with injectivity on same-level pairs of points.
    """
    check_count(samples, "samples")
    report = VerificationReport("corollary")
    closure = algebra_closure(A, tol)
    j = closure.extended
    sc = structure_constants(j, tol)
    report.add("closure", True, sc.residual, detail=f"appended {closure.appended_count} elements")
    q_map = ConvexotonicMap(sc.xi, MapSign.PLUS, tol)
    images = _transport(report, Spectrahedron(A), q_map, j, samples, seed)
    pairs = [(image, *np.triu_indices(len(image), 1)) for image in images]
    gaps = np.concatenate([_tuple_distance(image[a], image[b]) for image, a, b in pairs])
    min_gap = gaps.min(initial=math.inf)
    detail = f"min pairwise image gap {min_gap:.3e}"
    report.add("injectivity-gap", min_gap > 0.0, 0.0, samples=len(gaps), detail=detail)
    return report


# ---------------------------------------------------------------------------
# the worked-example catalog

def _check_oracle(report, name, cmap, oracle, rng, levels, count, scale, tol):
    """Add the check that cmap agrees with its closed form at `count` random
    points per level, scaled by `scale`, one stack a level (every catalog
    example has g = 2). Raises DomainBreach where cmap refuses a point."""
    worst = 0.0
    for n in levels:
        x = scale * random_directions(rng, 2, n, count)
        image = cmap(x)
        if not _defined(image).all():
            raise DomainBreach(f"{name}: the map refuses a sampled point")
        worst = max(worst, _tuple_distance(image, oracle(x)).max(initial=0.0))
    report.add(name, worst < tol, worst, samples=len(levels) * count)


def example_catalog(seed: int = 42, samples: int = 25) -> VerificationReport:
    """Run the fixed catalog of worked examples; deterministic per seed."""
    rng = seeded_rng(seed)
    check_count(samples, "samples")
    report = VerificationReport("examples")

    f_tuple = type_i_tuple()
    e_tuple = type_iv_tuple()
    r2 = type_ii_tuple()
    r3 = type_iii_tuple()

    # --- nilpotent pair (type I) ------------------------------------------
    sc_f = structure_constants(f_tuple)
    gap = _tuple_distance(sc_f.xi, MatrixTuple(np.array([[[0, 1], [0, 0]], np.zeros((2, 2))])))
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
    defects = {1.0: 0.0, -1.0: 0.0}
    rays, _ = _rays(rng, spec_f, (1, 2, 3), samples)
    for _, x, scale in rays:
        for sgn in (1.0, -1.0):
            norm = operator_norm(pencil_eval(e_tuple, quadratic_shift(scale * x, sgn)))
            defects[sgn] = max(defects[sgn], np.abs(1.0 - norm).max(initial=0.0))
    minus_ok = defects[-1.0] < DEFAULT_TOL  # relative: the boundary norm is 1
    plus_fails = defects[1.0] > DEFAULT_TOL
    report.add(
        "type-i/candidate-map-transport",
        minus_ok and plus_fails,
        defects[-1.0],
        samples=sum(len(x) for _, x, _ in rays),
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

    q_f = ConvexotonicMap(sc_f.xi, MapSign.PLUS)
    shift = partial(quadratic_shift, sign=-1.0)
    name = "type-i/map-equals-quadratic-shift"
    _check_oracle(report, name, q_f, shift, rng, (1, 2, 3), samples, 0.3, 1e-12)

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

    def corner_oracle(left, x):
        # (r x1, r x2) for type II (left) and (x1 r, x2 r) for type III, r = (I + x1)^-1
        res = np.linalg.inv(np.eye(x.shape[-1], dtype=complex) + x[:, 0])
        return np.stack([res @ x[:, k] if left else x[:, k] @ res for k in (0, 1)], axis=1)

    q_r2 = ConvexotonicMap(sc_r2.xi, MapSign.PLUS)
    oracle = partial(corner_oracle, True)
    _check_oracle(report, "type-ii/closed-form", q_r2, oracle, rng, (1, 2, 3), samples, 0.3, 1e-10)

    witness = MatrixTuple(np.array([[[0, -1], [1, 0]], np.zeros((2, 2))]))
    spec_r2 = Spectrahedron(r2)
    witness_scale = boundary_scale(spec_r2, witness)
    in_ball = ball_membership(Spectraball(r2), witness)
    report.add(
        "type-ii/unbounded-witness",
        math.isinf(witness_scale) and in_ball.location.value in ("interior", "boundary"),
        detail=(
            "skew direction stays inside at every scale; the ray has no finite "
            "boundary point and lies in the ball but outside the map range"
        ),
    )
    report.merge(verify_properness(r2, samples=samples, seed=seed + 2), "type-ii")

    sc_r3 = structure_constants(r3)
    gap = _tuple_distance(sc_r3.xi, MatrixTuple(np.array([np.eye(2), np.zeros((2, 2))])))
    report.add("type-iii/structure-constants", gap < 1e-12, max(gap, sc_r3.residual))

    q_r3 = ConvexotonicMap(sc_r3.xi, MapSign.PLUS)
    oracle = partial(corner_oracle, False)
    _check_oracle(report, "type-iii/closed-form", q_r3, oracle, rng, (1, 2, 3), samples, 0.3, 1e-10)

    # --- type IV ------------------------------------------------------------
    q_e = ConvexotonicMap(structure_constants(e_tuple).xi, MapSign.PLUS)
    oracle = partial(mobius_conjugate, -1.0)
    _check_oracle(report, "type-iv/closed-form", q_e, oracle, rng, (1, 2, 3), samples, 0.3, 1e-10)

    probe_e = sv_probe(e_tuple, trials=2000, seed=seed)
    report.add(
        "type-iv/sv-generic",
        probe_e.status == "certified",
        detail=f"certified after {probe_e.trials_used} trials",
    )
    report.merge(verify_properness(e_tuple, samples=samples, seed=seed + 3), "type-iv")

    embed = ball_to_spectrahedron(Spectraball(e_tuple))
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
        p_alpha = ConvexotonicMap(MatrixTuple(alpha * e_tuple.data), MapSign.MINUS)
        name = f"mobius-conjugate/closed-form-alpha-{label}"
        oracle = partial(mobius_conjugate, alpha)
        _check_oracle(report, name, p_alpha, oracle, rng, (3,), 50, 0.3, 1e-10)

    spot = ConvexotonicMap(e_tuple, MapSign.MINUS)(MatrixTuple.scalar([0.25, 0.125]))
    spot_gap = max(abs(spot[0][0, 0] - 1 / 3), abs(spot[1][0, 0] - 2 / 9))
    report.add("mobius-conjugate/spot-value", spot_gap < 1e-12, spot_gap)

    def composed(alpha, x):
        return mobius_conjugate(alpha, quadratic_shift(x, 1.0))

    e2 = e_tuple.data[1]
    for alpha, label in zip(alphas, labels):
        xi_comp = MatrixTuple.from_matrices([alpha * np.eye(2) + e2, alpha * e2])
        p_comp = ConvexotonicMap(xi_comp, MapSign.MINUS)
        name = f"composed-quadratic/constants-map-alpha-{label}"
        _check_oracle(report, name, p_comp, partial(composed, alpha), rng, (3,), 50, 0.25, 1e-9)

    def composed_closed(alpha, x):
        # (x1 r, r x2 r + (x1 r)^2) with r = (I - alpha x1)^-1, which commutes with x1
        res = np.linalg.inv(np.eye(x.shape[-1], dtype=complex) - alpha * x[:, 0])
        head = x[:, 0] @ res
        return np.stack([head, res @ x[:, 1] @ res + head @ head], axis=1)

    lhs, rhs = partial(composed, alphas[3]), partial(composed_closed, alphas[3])
    _check_oracle(report, "composed-quadratic/closed-form", lhs, rhs, rng, (3,), 50, 0.25, 1e-10)

    return report
