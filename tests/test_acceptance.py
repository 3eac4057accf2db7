"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they pass.
"""

import json
import math
import time

import numpy as np

from convexotonic import (
    ConvexotonicMap,
    MapSign,
    MatrixTuple,
    Spectraball,
    Spectrahedron,
    TheoremData,
    ball_to_spectrahedron,
    boundary_scale,
    convexotonic_residual,
    jacobian_at_zero,
    kernel_basis,
    pencil_eval,
    spec_membership,
    structure_constants,
    sv_probe,
    transfer_residual,
    type_i_tuple,
    type_ii_tuple,
    type_iv_tuple,
    verify_theorem,
)
from convexotonic.cli import run as cli_run
from convexotonic.errors import SpanViolation
from convexotonic.verify import mobius_conjugate, quadratic_shift
from conftest import corpus_algebras
from convexotonic.sampling import random_directions, random_unitary

E12 = np.array([[0, 1], [0, 0]], dtype=complex)


def report(number, ok, text):
    print(f"ACCEPTANCE {number:2d}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {number}: {text}"


def tuple_gap(a, b):
    return float(np.max(np.abs(a.data - b.data)))


def corpus_points(J, seed, per_level=25, levels=(1, 2, 3, 4), frac=0.5):
    """Seeded points scaled to frac of the closer of the two boundaries."""
    rng = np.random.default_rng(seed)
    ball, spec = Spectraball(J), Spectrahedron(J)
    points = []
    for n in levels:
        produced = 0
        while produced < per_level:
            x = MatrixTuple(random_directions(rng, J.g, n, 1)[0])
            scales = [boundary_scale(ball, x), boundary_scale(spec, x)]
            finite = [s for s in scales if math.isfinite(s)]
            if not finite:
                continue
            points.append(MatrixTuple(frac * min(finite) * x.data))
            produced += 1
    return points


def test_criterion_1_structure_constants():
    cases = {
        "nilpotent pair": (type_i_tuple(), np.stack([E12, np.zeros((2, 2))])),
        "unit jordan": (type_iv_tuple(), type_iv_tuple().data),
        "corner pair": (type_ii_tuple(), type_ii_tuple().data),
    }
    worst_gap = worst_res = worst_conv = 0.0
    for tup, expected in cases.values():
        sc = structure_constants(tup)
        worst_gap = max(worst_gap, float(np.max(np.abs(sc.xi.data - expected))))
        worst_res = max(worst_res, sc.residual)
        worst_conv = max(worst_conv, convexotonic_residual(sc.xi))
    ok = worst_gap < 1e-12 and worst_res < 1e-12 and worst_conv < 1e-10
    report(
        1,
        ok,
        f"structure constants exact on the three named tuples "
        f"(gap {worst_gap:.2e}, residual {worst_res:.2e}, conv {worst_conv:.2e})",
    )


def test_criterion_2_triangular_pipeline():
    from conftest import random_triangular_algebra

    rng = np.random.default_rng(2024)
    failures = 0
    small_residual = 0
    for _ in range(200):
        d = int(rng.integers(2, 6))
        g = int(rng.integers(1, 5))
        ext = random_triangular_algebra(rng, d, g)
        sc = structure_constants(ext)
        if sc.residual < 1e-10:
            small_residual += 1
            if convexotonic_residual(sc.xi) >= 1e-9:
                failures += 1
    ok = failures == 0 and small_residual >= 190
    report(
        2,
        ok,
        f"200 random triangular algebras: {small_residual} with residual < 1e-10, "
        f"{failures} convexotonic failures",
    )


def test_criterion_3_inverse_law():
    worst = 0.0
    for idx, J in enumerate(corpus_algebras()):
        xi = structure_constants(J).xi
        q = ConvexotonicMap(xi, MapSign.PLUS)
        p = q.inverse()
        for x in corpus_points(J, seed=300 + idx):
            worst = max(worst, tuple_gap(p(q(x)), x), tuple_gap(q(p(x)), x))
    ok = worst < 1e-9
    report(3, ok, f"p/q round trips on the corpus, worst residual {worst:.2e}")


def test_criterion_4_transfer_identity():
    worst = 0.0
    for idx, J in enumerate(corpus_algebras()):
        for x in corpus_points(J, seed=400 + idx):
            for sign in (MapSign.PLUS, MapSign.MINUS):
                worst = max(worst, transfer_residual(J, x, sign))
    ok = worst < 1e-9
    report(4, ok, f"pencil transfer identity on the corpus, worst residual {worst:.2e}")


def test_criterion_5_boundary_transport():
    worst_defect = 0.0
    worst_interior = 0.0
    for J, seed in ((type_i_tuple(), 50), (type_iv_tuple(), 51)):
        xi = structure_constants(J).xi
        q = ConvexotonicMap(xi, MapSign.PLUS)
        spec = Spectrahedron(J)
        rng = np.random.default_rng(seed)
        for n in (1, 2, 3):
            produced = 0
            while produced < 50:
                x = MatrixTuple(random_directions(rng, J.g, n, 1)[0])
                scale = boundary_scale(spec, x)
                if not math.isfinite(scale) or scale > 1e8:
                    continue
                produced += 1
                on = q(MatrixTuple(scale * x.data))
                worst_defect = max(
                    worst_defect, abs(1.0 - float(np.linalg.norm(pencil_eval(J, on), 2)))
                )
                inside = q(MatrixTuple(0.9 * scale * x.data))
                worst_interior = max(
                    worst_interior, float(np.linalg.norm(pencil_eval(J, inside), 2))
                )
    ok = worst_defect < 1e-6 and worst_interior < 1.0
    report(
        5,
        ok,
        f"boundary transport types I/IV: defect {worst_defect:.2e}, "
        f"max interior image norm {worst_interior:.6f}",
    )


def test_criterion_6_named_memberships():
    f = type_i_tuple()
    spec = Spectrahedron(f)
    on = spec_membership(spec, MatrixTuple.scalar([1, 1]))
    off = spec_membership(spec, MatrixTuple.scalar([-1, -1]))
    scale = boundary_scale(spec, MatrixTuple.scalar([1, 0]))
    ok = (
        on.location.value == "boundary"
        and abs(on.margin) < 1e-10
        and off.location.value == "exterior"
        and abs(off.margin + 1.0) < 1e-10
        and abs(scale - 1 / math.sqrt(2)) < 1e-10
    )
    report(
        6,
        ok,
        f"named memberships: margins {on.margin:.2e}, {off.margin:+.12f}, "
        f"scale {scale:.12f}",
    )


def test_criterion_7_mobius_closed_form():
    e = type_iv_tuple()
    worst = 0.0
    for alpha in (1.0 + 0j, 1j, -1.0 + 0j):
        cmap = ConvexotonicMap(MatrixTuple(alpha * e.data), MapSign.MINUS)
        for x in random_directions(np.random.default_rng(700), 2, 3, 50):
            x = MatrixTuple(0.3 * x)
            worst = max(worst, tuple_gap(cmap(x), mobius_conjugate(alpha, x)))
    spot = ConvexotonicMap(e, MapSign.MINUS)(MatrixTuple.scalar([0.25, 0.125]))
    spot_gap = max(abs(spot[0][0, 0] - 1 / 3), abs(spot[1][0, 0] - 2 / 9))
    ok = worst < 1e-10 and spot_gap < 1e-12
    report(
        7,
        ok,
        f"Mobius-conjugate closed form, worst {worst:.2e}; spot value gap {spot_gap:.2e}",
    )


def test_criterion_8_composed_map():
    e2 = E12
    worst = 0.0
    for alpha in (1.0 + 0j, 1j, -1.0 + 0j):
        xi = MatrixTuple.from_matrices([alpha * np.eye(2) + e2, alpha * e2])
        cmap = ConvexotonicMap(xi, MapSign.MINUS)
        for x in random_directions(np.random.default_rng(800), 2, 3, 50):
            x = MatrixTuple(0.25 * x)
            composed = mobius_conjugate(alpha, quadratic_shift(x, 1.0))
            worst = max(worst, tuple_gap(cmap(x), composed))
    ok = worst < 1e-9
    report(8, ok, f"composed quadratic map equals its constants map, worst {worst:.2e}")


def test_criterion_9_sv_probe():
    e = type_iv_tuple()
    result = sv_probe(e, trials=10_000, seed=42)
    revalidated = False
    if result.status == "certified":
        revalidated = True
        for kp in result.certificate.alphas:
            lam = pencil_eval(e, MatrixTuple.scalar(kp.point))
            kernel = kernel_basis(np.eye(2) - lam.conj().T @ lam, tol=1e-6)
            if len(kernel) != 1 or abs(np.vdot(kernel[0], kp.kernel_vector)) <= 1 - 1e-8:
                revalidated = False
    f_result = sv_probe(type_i_tuple(), trials=10, seed=42)
    ball_coeffs = ball_to_spectrahedron(Spectraball(e)).coeffs
    ball_result = sv_probe(ball_coeffs, trials=10, seed=42)
    ok = (
        result.status == "certified"
        and result.trials_used <= 10_000
        and revalidated
        and f_result.status == "rejected"
        and f_result.trials_used == 0
        and ball_result.status == "rejected"
        and "nilpotent" in ball_result.conditions.reasons
    )
    report(
        9,
        ok,
        f"sv-probe: certified in {result.trials_used} trials; nilpotent tuples "
        f"rejected instantly",
    )


def test_criterion_10_theorem_harness():
    e = type_iv_tuple()
    eye = np.eye(2)
    plain = verify_theorem(TheoremData(e, e, eye, eye), samples=10, seed=1)
    alpha = 1j
    scaled = verify_theorem(
        TheoremData(e, MatrixTuple(alpha * e.data), alpha * eye, eye),
        samples=10,
        seed=2,
    )
    swap = np.array([[0, 1], [1, 0]], dtype=complex)
    failed = verify_theorem(TheoremData(e, e, swap, eye), samples=10, seed=3)
    step2 = next(c for c in failed.checks if c.name == "twisted-product-constants")
    try:
        from convexotonic import pencil_structure_constants

        pencil_structure_constants(e, swap)
        raised = False
    except SpanViolation:
        raised = True
    ok = plain.passed and scaled.passed and not failed.passed and not step2.passed and raised
    report(
        10,
        ok,
        "theorem harness passes on identity and scaled data, fails with a span "
        "violation on the swapped twist",
    )


def test_criterion_11_free_function_laws():
    corpus = corpus_algebras()
    worst = 0.0
    for i in range(100):
        J = corpus[i % len(corpus)]
        xi = structure_constants(J).xi
        q = ConvexotonicMap(xi, MapSign.PLUS)
        x = corpus_points(J, seed=1100 + i, per_level=1, levels=(2,))[0]
        y = corpus_points(J, seed=1200 + i, per_level=1, levels=(3,))[0]
        worst = max(worst, tuple_gap(q(x.direct_sum(y)), q(x).direct_sum(q(y))))
        rng = np.random.default_rng(1300 + i)
        u = random_unitary(rng, 3)
        conj = MatrixTuple(np.stack([u.conj().T @ y[j] @ u for j in range(J.g)]))
        image = q(y)
        expected = MatrixTuple(
            np.stack([u.conj().T @ image[j] @ u for j in range(J.g)])
        )
        worst = max(worst, tuple_gap(q(conj), expected))
    deriv_worst = 0.0
    for J in corpus:
        xi = structure_constants(J).xi
        p = ConvexotonicMap(xi, MapSign.MINUS)
        deriv_worst = max(
            deriv_worst, float(np.max(np.abs(jacobian_at_zero(p) - np.eye(J.g))))
        )
    ok = worst < 1e-9 and deriv_worst < 1e-8
    report(
        11,
        ok,
        f"free-function laws worst {worst:.2e}; derivative-at-zero defect "
        f"{deriv_worst:.2e}",
    )


def test_criterion_12_examples_catalog(capsys):
    start = time.perf_counter()
    code = cli_run(["examples", "--seed", "42"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    warning_text = " ".join(doc["warnings"])
    ok = (
        code == 0
        and elapsed < 60.0
        and "(x1, x2 + x1^2)" in warning_text
        and "(x1, x2 - x1^2)" in warning_text
        and "only (x1, x2 - x1^2)" in warning_text
    )
    with capsys.disabled():
        report(
            12,
            ok,
            f"examples catalog exit {code} in {elapsed:.1f}s with the sign warning",
        )
