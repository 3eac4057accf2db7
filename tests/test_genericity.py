import inspect
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import convexotonic
from convexotonic import (
    ConvexotonicMap,
    GenericityCertificate,
    KernelPoint,
    MapSign,
    MatrixTuple,
    ShapeMismatch,
    Spectraball,
    Spectrahedron,
    TheoremData,
    algebra_closure,
    ball_membership,
    ball_to_spectrahedron,
    example_catalog,
    hyperbasis_margin,
    is_convexotonic,
    is_linearly_independent,
    is_nilpotent,
    kernel_basis,
    necessary_conditions,
    pencil_eval,
    pencil_structure_constants,
    spec_membership,
    structure_constants,
    sv_probe,
    transfer_residual,
    type_i_tuple,
    type_iv_tuple,
    verify_ball_equality,
    verify_corollary,
    verify_properness,
    verify_theorem,
)
from convexotonic import genericity
from convexotonic.errors import DomainBreach
from convexotonic.linalg import OrthonormalSpan
from convexotonic.sampling import complex_gaussian, random_tuple, random_unitary


# --- hyperbasis check ---------------------------------------------------------

def test_hyperbasis_examples():
    e1, e2 = np.eye(2)
    assert hyperbasis_margin([e1, e2, (e1 + e2) / np.sqrt(2)]) > 0.1
    assert hyperbasis_margin([e1, e2, e1]) == pytest.approx(0.0, abs=1e-15)


def test_hyperbasis_random_vectors():
    rng = np.random.default_rng(8)
    vectors = [complex_gaussian(rng, 3) for _ in range(4)]
    assert hyperbasis_margin(vectors) > 0.0


def test_hyperbasis_shape_check():
    for vectors in ([np.ones(2), np.ones(2)], [], [[1, 2], [1]]):
        with pytest.raises(ShapeMismatch):
            hyperbasis_margin(vectors)


# --- necessary conditions -----------------------------------------------------

def test_necessary_conditions_nilpotent_pair(f_tuple):
    out = necessary_conditions(f_tuple)
    assert not out.passed
    assert "nilpotent" in out.reasons
    assert "joint-kernel" in out.reasons


def test_necessary_conditions_unit_jordan(e_tuple):
    assert necessary_conditions(e_tuple).passed


def test_necessary_conditions_ball_embedding(e_tuple):
    embedded = ball_to_spectrahedron(Spectraball(e_tuple)).coeffs
    out = necessary_conditions(embedded)
    assert "nilpotent" in out.reasons


def test_necessary_conditions_cokernel(r2_tuple):
    # the corner pair has a joint cokernel (all ranges inside the first row)
    out = necessary_conditions(r2_tuple)
    assert not out.passed
    assert "joint-cokernel" in out.reasons


def kernel_flags(A, tol):
    """Oracle: whether kernel_basis finds a kernel vector of the stacked
    gd x d matrix of A and of its stacked adjoint."""
    g, d = A.g, A.rows
    return (
        bool(kernel_basis(A.data.reshape(g * d, d), tol)),
        bool(kernel_basis(A.data.conj().transpose(0, 2, 1).reshape(g * d, d), tol)),
    )


def flag_draw(rng, kind, g, d):
    """A complex Gaussian tuple, one with an exact zero row or column in every
    element, scalar multiples of one matrix, a strictly or a non-strictly
    upper-triangular tuple, or either conjugated by a random unitary."""
    data = complex_gaussian(rng, g, d, d)
    if kind == "zero-row":
        data[:, rng.integers(d)] = 0
    elif kind == "zero-col":
        data[:, :, rng.integers(d)] = 0
    elif kind == "multiples":
        data = complex_gaussian(rng, g)[:, None, None] * data[0]
    elif kind != "gaussian":
        data = np.triu(data, 1 if "strict" in kind else 0)
        if kind.startswith("conjugated"):
            u = random_unitary(rng, d)
            data = u @ data @ u.conj().T
    return data


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 3),
    st.integers(1, 6),
    st.sampled_from(
        ["gaussian", "zero-row", "zero-col", "multiples", "strict", "triangular",
         "conjugated-strict", "conjugated-triangular"]
    ),
    st.sampled_from([0.0, 1e-14, 1e-12, 1e-8, 1e-3]),
    st.sampled_from([1e-150, 1.0, 1e150]),
)
def test_kernel_flags_match_kernel_basis(seed, g, d, kind, tol, scale):
    # one values-only SVD of both stacks decides what two kernel_basis bases did
    A = MatrixTuple(scale * flag_draw(np.random.default_rng(seed), kind, g, d))
    reasons = necessary_conditions(A, tol).reasons
    kernel, cokernel = kernel_flags(A, tol)
    assert ("joint-kernel" in reasons) is kernel
    assert ("joint-cokernel" in reasons) is cokernel


# two invertible matrices (no joint kernel) and a strictly upper-triangular
# pair, with few bits, so that an exact scaling reaches the subnormals
INVERTIBLE_PAIR = 3 * np.array([[[1, 1], [1, -1]], [[1, 0], [1, 1]]], dtype=complex)
STRICT_PAIR = np.array([[[0, 3], [0, 0]], [[0, 6], [0, 0]]], dtype=complex)


def power_of_two_scaling(A, k):
    """The entries of A times 2**k, or None unless that scaling is exact: no
    entry overflows or loses a bit."""
    real = A.data.view(float)
    with np.errstate(over="ignore"):
        scaled = np.ldexp(real, k)
    return scaled.view(complex) if np.array_equal(np.ldexp(scaled, -k), real) else None


def genericity_verdicts(A, seed):
    """What necessary_conditions, is_nilpotent and sv_probe say of A: the
    reasons, the flag, and the status and reason; None for a call that raises
    DomainBreach. A certificate's points must be finite."""
    def probe():
        result = sv_probe(A, trials=50, seed=seed)
        if result.certificate is not None:
            points = [kp.point for kp in (*result.certificate.alphas, *result.certificate.betas)]
            assert np.isfinite(points).all()
        return result.status, result.reason

    verdicts = []
    for call in (lambda: necessary_conditions(A).reasons, lambda: is_nilpotent(A), probe):
        try:
            verdicts.append(call())
        except DomainBreach:
            verdicts.append(None)
    return verdicts


@settings(max_examples=25, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 3),
    st.integers(1, 4),
    st.sampled_from(["gaussian", "strict", "multiples"]),
    st.integers(-1100, 1100),
)
@example(0, 2, 2, "invertible-pair", 0)
@example(0, 2, 2, "strict-pair", 0)
def test_a_power_of_two_scaling_keeps_the_verdicts_or_is_refused(seed, g, d, kind, k):
    # besides k, the ends of the exact range: there the stacked singular
    # values, the generator norms or their reciprocals, or the probe's points
    # leave the float range
    pairs = {"invertible-pair": INVERTIBLE_PAIR, "strict-pair": STRICT_PAIR}
    data = pairs.get(kind)
    A = MatrixTuple(flag_draw(np.random.default_rng(seed), kind, g, d) if data is None else data)
    expected = genericity_verdicts(A, seed)
    assert None not in expected
    exact = [j for j in range(-1200, 1100) if power_of_two_scaling(A, j) is not None]
    for j in sorted({k, exact[0], exact[-1] - 1, exact[-1]} & set(exact)):
        verdicts = genericity_verdicts(MatrixTuple(power_of_two_scaling(A, j)), seed)
        for verdict, want in zip(verdicts, expected):
            assert verdict in (None, want), (j, verdicts, expected)


# every callable of the package's API that takes a tol, on inputs valid at
# tol = 0: a Gaussian pair, which spans no algebra, and a pair of diagonal
# idempotents, whose products and constants are exact
GAUSS = random_tuple(np.random.default_rng(0), 2, 3)
IDEMPOTENTS = MatrixTuple.from_matrices([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
IDEMPOTENT_XI = structure_constants(IDEMPOTENTS).xi
NEAR_ZERO = MatrixTuple.scalar([0.1, 0.2])

TOL_CALLS = {
    "kernel_basis": lambda tol: kernel_basis(GAUSS[0], tol),
    "is_nilpotent": lambda tol: is_nilpotent(GAUSS, tol),
    "necessary_conditions": lambda tol: necessary_conditions(GAUSS, tol),
    "sv_probe": lambda tol: sv_probe(GAUSS, trials=10, tol=tol),
    "ball_membership": lambda tol: ball_membership(Spectraball(GAUSS), NEAR_ZERO, tol),
    "spec_membership": lambda tol: spec_membership(
        Spectrahedron(GAUSS), MatrixTuple.scalar([5, 5]), tol
    ),
    "is_linearly_independent": lambda tol: is_linearly_independent(
        MatrixTuple.from_matrices([GAUSS[0], 2 * GAUSS[0]]), tol
    ),
    "structure_constants": lambda tol: structure_constants(IDEMPOTENTS, tol),
    "pencil_structure_constants": lambda tol: pencil_structure_constants(
        IDEMPOTENTS, np.eye(2), tol
    ),
    "algebra_closure": lambda tol: algebra_closure(type_i_tuple(), tol),
    "is_convexotonic": lambda tol: is_convexotonic(IDEMPOTENT_XI, tol),
    "ConvexotonicMap": lambda tol: ConvexotonicMap(IDEMPOTENT_XI, construction_tol=tol),
    "transfer_residual": lambda tol: transfer_residual(IDEMPOTENTS, NEAR_ZERO, MapSign.PLUS, tol),
    "verify_theorem": lambda tol: verify_theorem(
        TheoremData(IDEMPOTENTS, IDEMPOTENTS, np.eye(2), np.eye(2)), samples=2, tol=tol
    ),
    "verify_properness": lambda tol: verify_properness(IDEMPOTENTS, samples=2, tol=tol),
    "verify_corollary": lambda tol: verify_corollary(IDEMPOTENTS, samples=2, tol=tol),
}


@pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0])
@pytest.mark.parametrize("call", TOL_CALLS.values(), ids=TOL_CALLS.keys())
def test_tol_must_be_finite_and_non_negative(call, tol):
    # without the check, on the Gaussian pair nan reported "nilpotent", inf all
    # three reasons and -1 certified; nan read (5, 5) as boundary at margin
    # -18.1 and called (X, 2X) independent; nan and -1 closed type I by
    # dividing by a zero remainder
    with pytest.raises(ValueError, match="tol must be finite and at least 0"):
        call(tol)


@pytest.mark.parametrize("call", TOL_CALLS.values(), ids=TOL_CALLS.keys())
def test_zero_tol_is_accepted(call):
    call(0.0)


def api_taking(*params):
    """The names of the package's exported callables with one of `params`."""
    taking = set()
    for name in dir(convexotonic):
        obj = getattr(convexotonic, name)
        if name.startswith("_") or not callable(obj):
            continue
        try:
            signature = inspect.signature(obj).parameters
        except ValueError:  # the exception classes have no signature
            continue
        if set(params) & signature.keys():
            taking.add(name)
    return taking


def test_every_tol_of_the_api_is_in_the_table():
    assert api_taking("tol", "construction_tol") == TOL_CALLS.keys()


# every callable of the package's API that takes a seed, on inputs it accepts
SEED_CALLS = {
    "sv_probe": lambda seed: sv_probe(GAUSS, trials=10, seed=seed),
    "verify_theorem": lambda seed: verify_theorem(
        TheoremData(IDEMPOTENTS, IDEMPOTENTS, np.eye(2), np.eye(2)), samples=2, seed=seed
    ),
    "verify_ball_equality": lambda seed: verify_ball_equality(GAUSS, GAUSS, samples=2, seed=seed),
    "verify_properness": lambda seed: verify_properness(IDEMPOTENTS, samples=2, seed=seed),
    "verify_corollary": lambda seed: verify_corollary(IDEMPOTENTS, samples=2, seed=seed),
    "example_catalog": lambda seed: example_catalog(seed=seed, samples=1),
}


def test_every_seed_of_the_api_is_in_the_table():
    # a certificate records the seed of the probe that made it and draws nothing
    assert api_taking("seed") - {"GenericityCertificate"} == SEED_CALLS.keys()


@pytest.mark.parametrize(
    "seed, error", [(None, TypeError), (1.5, TypeError), ([1, 2], TypeError), (-1, ValueError)]
)
@pytest.mark.parametrize("call", SEED_CALLS.values(), ids=SEED_CALLS.keys())
def test_a_bad_seed_is_refused_before_any_generator_is_built(monkeypatch, call, seed, error):
    # the harnesses used to run unseeded on None and seeded on [1, 2], and
    # the catalog failed at seed + 1 on None
    built, default_rng = [], np.random.default_rng

    def recorded(seed):
        rng = default_rng(seed)
        built.append(seed)
        return rng

    monkeypatch.setattr(np.random, "default_rng", recorded)
    with pytest.raises(error):
        call(seed)
    assert built == []


# every callable of the package's API that takes a count of draws, by the
# name of that count, on inputs it accepts
COUNT_CALLS = {
    "sv_probe": ("trials", lambda count: sv_probe(GAUSS, trials=count)),
    "verify_theorem": ("samples", lambda count: verify_theorem(
        TheoremData(IDEMPOTENTS, IDEMPOTENTS, np.eye(2), np.eye(2)), samples=count
    )),
    "verify_ball_equality": (
        "samples", lambda count: verify_ball_equality(GAUSS, GAUSS, samples=count)
    ),
    "verify_properness": ("samples", lambda count: verify_properness(IDEMPOTENTS, samples=count)),
    "verify_corollary": ("samples", lambda count: verify_corollary(IDEMPOTENTS, samples=count)),
    "example_catalog": ("samples", lambda count: example_catalog(samples=count)),
}


def test_every_count_of_the_api_is_in_the_table():
    # a check result records how many points it evaluated and draws nothing
    assert api_taking("samples", "trials") - {"CheckResult"} == COUNT_CALLS.keys()


@pytest.mark.parametrize("name, call", COUNT_CALLS.values(), ids=COUNT_CALLS.keys())
def test_a_negative_count_is_refused_by_name(name, call):
    # the harnesses used to end in numpy's "negative dimensions are not
    # allowed" from their first draw
    with pytest.raises(ValueError, match=f"^{name} must be at least"):
        call(-1)
    with pytest.raises(TypeError):
        call(1.5)
    with pytest.raises(TypeError, match=f"^{name} must be an integer, not a bool"):
        call(True)


def test_probe_checks_the_seed_before_the_tol():
    with pytest.raises(TypeError):
        sv_probe(type_iv_tuple(), trials=10, seed=None, tol=np.nan)


@pytest.mark.parametrize("trials, error", [(-5, ValueError), (0, ValueError), (2.5, TypeError)])
def test_probe_refuses_a_bad_trials_before_the_conditions(trials, error):
    # type I fails the necessary conditions, which used to return "rejected"
    # first; -5 used to report trials_used=-5 on a tuple that passes them
    with pytest.raises(error):
        sv_probe(type_i_tuple(), trials=trials)


# --- the probe -----------------------------------------------------------------

def test_probe_certifies_unit_jordan(e_tuple):
    result = sv_probe(e_tuple, trials=10_000, seed=42)
    assert result.status == "certified"
    cert = result.certificate
    assert len(cert.alphas) == 3
    assert len(cert.betas) == 2
    assert cert.hyperbasis_margin > 1e-8
    assert cert.basis_margin > 1e-8


def test_probe_certificate_revalidates(e_tuple):
    cert = sv_probe(e_tuple, trials=10_000, seed=42).certificate
    for kp in cert.alphas:
        lam = pencil_eval(e_tuple, MatrixTuple.scalar(kp.point))
        assert abs(np.linalg.norm(lam, 2) - 1.0) < 1e-10
        defect = np.eye(2) - lam.conj().T @ lam
        kernel = kernel_basis(defect, tol=1e-6)
        assert len(kernel) == 1
        overlap = abs(np.vdot(kernel[0], kp.kernel_vector))
        assert overlap > 1 - 1e-8
    for kp in cert.betas:
        lam = pencil_eval(e_tuple, MatrixTuple.scalar(kp.point))
        defect = np.eye(2) - lam @ lam.conj().T
        kernel = kernel_basis(defect, tol=1e-6)
        assert len(kernel) == 1
        assert abs(np.vdot(kernel[0], kp.kernel_vector)) > 1 - 1e-8


def test_probe_simplicity_gap(e_tuple):
    cert = sv_probe(e_tuple, trials=10_000, seed=42).certificate
    for kp in cert.alphas:
        s = np.linalg.svd(
            pencil_eval(e_tuple, MatrixTuple.scalar(kp.point)), compute_uv=False
        )
        assert s[0] - s[1] > 1e-6


def test_probe_deterministic(e_tuple):
    a = sv_probe(e_tuple, trials=500, seed=42)
    b = sv_probe(e_tuple, trials=10_000, seed=42)
    assert a.status == b.status == "certified"
    assert a.trials_used == b.trials_used
    for pa, pb in zip(a.certificate.alphas, b.certificate.alphas):
        assert np.array_equal(pa.point, pb.point)


def test_probe_scalar_unit():
    result = sv_probe(MatrixTuple.scalar([1]), trials=100, seed=1)
    assert result.status == "certified"
    assert len(result.certificate.alphas) == 2
    assert len(result.certificate.betas) == 1


def test_probe_rejects_nilpotent(f_tuple):
    result = sv_probe(f_tuple, trials=100, seed=42)
    assert result.status == "rejected"
    assert result.trials_used == 0
    assert "nilpotent" in result.conditions.reasons


def test_probe_inconclusive_on_scalar_multiples():
    # the identity alone passes every necessary condition, but its defect
    # pencil kernel is never one-dimensional, so no certificate can appear
    result = sv_probe(MatrixTuple.from_matrices([np.eye(2)]), trials=30, seed=42)
    assert result.status == "inconclusive"
    assert result.conditions.passed
    assert result.trials_used == 30


# --- why a probe ends inconclusive ----------------------------------------------

def scalar_multiples(seed, d):
    M = complex_gaussian(np.random.default_rng(seed), d, d)
    return MatrixTuple(np.array([M, 2 * M]))


def near_degenerate(seed, d, eps):
    G = complex_gaussian(np.random.default_rng(seed), d, d)
    return MatrixTuple.from_matrices([np.eye(d), eps * G])


@pytest.mark.parametrize(
    "A, trials, reason",
    [
        # no draw of eye(2) has a simple top singular value
        (MatrixTuple.from_matrices([np.eye(2)]), 200, "never-simple"),
        # scalar multiples fill both pools with one repeated kernel vector
        (scalar_multiples(4, 3), 200, "pools-full"),
        # (I_3, 1e-7 G) pools a few draws by trial 100 and certifies at 369
        (near_degenerate(5, 3, 1e-7), 100, "trials-exhausted"),
    ],
    ids=["never-simple", "pools-full", "trials-exhausted"],
)
def test_probe_states_why_it_is_inconclusive(A, trials, reason):
    result = sv_probe(A, trials=trials, seed=42)
    assert (result.status, result.reason) == ("inconclusive", reason)
    assert result.trials_used == trials


def test_probe_reason_is_none_unless_inconclusive(e_tuple, f_tuple):
    assert sv_probe(e_tuple, trials=200, seed=42).reason is None
    assert sv_probe(f_tuple, trials=200, seed=42).reason is None


# --- the greedy search against the exhaustive one -------------------------------

def exhaustive_probe(A, trials, seed, tol=1e-8, gap_tol=1e-6, pool_factor=4):
    """Reference: the lexicographically first subsets. After each new
    candidate, every (d+1)-subset of the alpha pool and every d-subset of the
    beta pool is tried in lexicographic order, which is exponential in d.
    Returns (status, trials_used, certificate)."""
    if not necessary_conditions(A, tol).passed:
        return "rejected", 0, None
    d, g = A.rows, A.g
    alpha_pool, beta_pool = [], []
    rng = np.random.default_rng(seed)

    def draw():
        # one draw per trial from the probe's one stream, never redrawn
        normals = rng.standard_normal((2, g))
        gamma = (normals[0] + 1j * normals[1]) / np.sqrt(2)
        norm = np.linalg.norm(pencil_eval(A, MatrixTuple.scalar(gamma)), 2)
        if norm > 1e-12:
            point = gamma / norm
            u, s, vh = np.linalg.svd(pencil_eval(A, MatrixTuple.scalar(point)))
            if (s[0] - s[1] if d > 1 else s[0]) > gap_tol:
                return point, vh[0].conj(), u[:, 0]
        return None

    def first_subset(pool, size, margin):
        for combo in combinations(pool, size):
            if (value := margin([kp.kernel_vector for kp in combo])) > tol:
                return combo, value
        return None, 0.0

    def basis_margin(vectors):
        return np.linalg.svd(np.array(vectors).T, compute_uv=False)[-1]

    for trial in range(trials):
        drawn = draw()
        if drawn is None:
            continue
        point, right, left = drawn
        changed = False
        if len(alpha_pool) < pool_factor * (d + 1):
            alpha_pool.append(KernelPoint(point, right))
            changed = True
        if len(beta_pool) < pool_factor * d:
            beta_pool.append(KernelPoint(point, left))
            changed = True
        if not changed:
            continue
        alphas, h_margin = first_subset(alpha_pool, d + 1, hyperbasis_margin)
        betas, b_margin = first_subset(beta_pool, d, basis_margin)
        if alphas is not None and betas is not None:
            cert = GenericityCertificate(alphas, betas, h_margin, b_margin, trial + 1, seed)
            return "certified", trial + 1, cert
    return "inconclusive", trials, None


def sequential_hyperbasis_margin(vectors):
    """The omit-one margin one SVD at a time, as the probe computed it before
    it stacked the submatrices."""
    mat = np.asarray([np.asarray(v, dtype=complex).reshape(-1) for v in vectors])
    margin = np.inf
    for omit in range(len(mat)):
        rest = np.delete(mat, omit, axis=0)
        margin = min(margin, float(np.linalg.svd(rest.T, compute_uv=False)[-1]))
    return margin


def reference_reasons(A, tol):
    """Reference: the necessary conditions with the joint kernel and cokernel
    read off kernel_basis bases and the nilpotency flag run on every tuple,
    not only on those with a joint kernel."""
    kernel, cokernel = kernel_flags(A, tol)
    checks = (
        ("joint-kernel", kernel),
        ("joint-cokernel", cokernel),
        ("nilpotent", is_nilpotent(A, tol)),
    )
    return tuple(name for name, found in checks if found)


def sequential_probe(A, trials, seed, tol=1e-8):
    """Reference: the probe one trial at a time, one draw of 2g normals from
    one generator, one pencil_eval and one SVD per trial, one span add per
    candidate, as it ran before chunking, and with no early stop. Returns
    (status, reason, trials_used, certificate), with the reference reasons
    as the reason of a rejection."""
    if reasons := reference_reasons(A, tol):
        return "rejected", reasons, 0, None
    d, g = A.rows, A.g
    rng = np.random.default_rng(seed)
    alpha_span, beta_span = OrthonormalSpan(d), OrthonormalSpan(d)
    alpha_basis, betas = [], []
    alphas, b_margin, pooled = None, 0.0, 0
    for trial in range(trials):
        normals = rng.standard_normal((2, g))
        gamma = (normals[0] + 1j * normals[1]) / np.sqrt(2)
        u, s, vh = np.linalg.svd(pencil_eval(A, MatrixTuple.scalar(gamma)))
        if (s[0] - s[1] if d > 1 else s[0]) <= genericity.GAP_TOL * s[0]:
            continue
        point, right, left = gamma / s[0], vh[0].conj(), u[:, 0]
        pooled += 1
        if alphas is None and pooled <= genericity.POOL_FACTOR * (d + 1):
            if len(alpha_basis) == d:
                vectors = [kp.kernel_vector for kp in alpha_basis] + [right]
                if (h_margin := sequential_hyperbasis_margin(vectors)) > tol:
                    alphas = (*alpha_basis, KernelPoint(point, right))
            elif alpha_span.add(right, tol) is not None:
                alpha_basis.append(KernelPoint(point, right))
        if (
            len(betas) < d
            and pooled <= genericity.POOL_FACTOR * d
            and beta_span.add(left, tol) is not None
        ):
            betas.append(KernelPoint(point, left))
            if len(betas) == d:
                vectors = [kp.kernel_vector for kp in betas]
                b_margin = float(np.linalg.svd(vectors, compute_uv=False)[-1])
        if alphas is not None and b_margin > tol:
            cert = GenericityCertificate(alphas, tuple(betas), h_margin, b_margin, trial + 1, seed)
            return "certified", None, trial + 1, cert
    full = pooled >= genericity.POOL_FACTOR * (d + 1)
    reason = "pools-full" if full else "trials-exhausted" if pooled else "never-simple"
    return "inconclusive", reason, trials, None


@st.composite
def probe_inputs(draw):
    data_seed = draw(st.integers(0, 2**32 - 1))
    kind = draw(st.sampled_from(["gaussian", "multiples", "sum", "near-degenerate", "strict"]))
    if kind == "gaussian":
        d = draw(st.integers(1, 5))
        A = MatrixTuple(complex_gaussian(np.random.default_rng(data_seed), 2, d, d))
    elif kind == "multiples":
        A = scalar_multiples(data_seed, draw(st.integers(2, 4)))
    elif kind == "sum":
        rng = np.random.default_rng(data_seed)
        m = draw(st.integers(1, 2))
        A = MatrixTuple(complex_gaussian(rng, 2, m, m)).direct_sum(
            MatrixTuple(complex_gaussian(rng, 2, 2, 2))
        )
    elif kind == "near-degenerate":
        # certificates after tens to hundreds of trials, across chunk boundaries
        d = draw(st.integers(2, 3))
        A = near_degenerate(data_seed, d, draw(st.sampled_from([1e-7, 1e-6])))
    else:
        # a joint kernel, and a nilpotent algebra unless the corner entry
        # stands above tol
        d = draw(st.integers(2, 4))
        data = np.triu(complex_gaussian(np.random.default_rng(data_seed), 2, d, d), 1)
        data[0, d - 1, d - 1] = draw(st.sampled_from([0.0, 1e-10, 1e-5, 1e-2]))
        A = MatrixTuple(data)
    tol = draw(st.sampled_from([0.0, 1e-12, 1e-8, 1e-3]))
    return A, draw(st.integers(1, 300)), draw(st.integers(0, 1000)), tol


@settings(max_examples=60, deadline=None)
@given(probe_inputs())
def test_chunked_probe_is_bit_identical_to_the_sequential_loop(inputs):
    A, trials, seed, tol = inputs
    status, reason, trials_used, cert = sequential_probe(A, trials, seed, tol)
    result = sv_probe(A, trials=trials, seed=seed, tol=tol)
    got = result.conditions.reasons if result.status == "rejected" else result.reason
    assert (result.status, got, result.trials_used) == (status, reason, trials_used)
    if cert is None:
        assert result.certificate is None
        return
    got = result.certificate
    assert got.trials_used == cert.trials_used
    assert got.hyperbasis_margin == cert.hyperbasis_margin
    assert got.basis_margin == cert.basis_margin
    for mine, theirs in ((got.alphas, cert.alphas), (got.betas, cert.betas)):
        assert len(mine) == len(theirs)
        for a, b in zip(mine, theirs):
            assert np.array_equal(a.point, b.point)
            assert np.array_equal(a.kernel_vector, b.kernel_vector)


@pytest.mark.parametrize("d", [2, 3, 5, 8])
def test_stacked_hyperbasis_margin_is_bit_identical(d):
    vectors = complex_gaussian(np.random.default_rng(d), d + 1, d)
    assert hyperbasis_margin(vectors) == sequential_hyperbasis_margin(vectors)


def assert_same_certificate(result, expected):
    status, trials_used, cert = expected
    assert (result.status, result.trials_used) == (status, trials_used)
    if cert is None:
        assert result.certificate is None
        return
    got = result.certificate
    assert got.trials_used == cert.trials_used
    assert got.hyperbasis_margin == pytest.approx(cert.hyperbasis_margin, abs=1e-12)
    assert got.basis_margin == pytest.approx(cert.basis_margin, abs=1e-12)
    for mine, theirs in ((got.alphas, cert.alphas), (got.betas, cert.betas)):
        assert len(mine) == len(theirs)
        for a, b in zip(mine, theirs):
            np.testing.assert_allclose(a.point, b.point, rtol=0, atol=1e-12)
            # kernel vectors are unique up to a unit phase
            assert abs(np.vdot(a.kernel_vector, b.kernel_vector)) == pytest.approx(1, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(0, 1000))
def test_probe_matches_exhaustive_search_on_gaussian_pairs(data_seed, d, seed):
    A = MatrixTuple(complex_gaussian(np.random.default_rng(data_seed), 2, d, d))
    assert_same_certificate(sv_probe(A, trials=200, seed=seed), exhaustive_probe(A, 200, seed))


def gauss(seed, *shape):
    return complex_gaussian(np.random.default_rng(seed), *shape)


@pytest.mark.parametrize(
    "A",
    [
        MatrixTuple.scalar([1]),
        MatrixTuple(np.triu(gauss(3, 2, 3, 3))),
        MatrixTuple(np.random.default_rng(4).standard_normal((2, 3, 3))),
        MatrixTuple(gauss(5, 3, 5, 5)),
        MatrixTuple.from_matrices([gauss(6, 2, 2), (1 + 2j) * gauss(6, 2, 2)]),
        MatrixTuple(gauss(7, 2, 1, 1)).direct_sum(MatrixTuple(gauss(8, 2, 2, 2))),
    ],
    ids=["scalar", "ut-d3", "real-d3", "generic-g3-d5", "multiples-d2", "sum-1+2"],
)
@pytest.mark.parametrize("seed", [0, 7, 42])
def test_probe_matches_exhaustive_search_on_fixed_tuples(A, seed):
    assert_same_certificate(sv_probe(A, trials=200, seed=seed), exhaustive_probe(A, 200, seed))


def test_probe_type_iv_matches_exhaustive_search(e_tuple):
    for seed in (0, 7, 42):
        expected = exhaustive_probe(e_tuple, 10_000, seed)
        assert_same_certificate(sv_probe(e_tuple, seed=seed), expected)


def test_probe_direct_sum_tries_each_completion_once(monkeypatch):
    # kernel vectors of a block-diagonal pencil lie in one block, so no
    # hyperbasis exists; the greedy search tries each pool vector at most once
    calls = []

    def counted(*args):
        calls.append(args)
        return hyperbasis_margin(*args)

    monkeypatch.setattr(genericity, "hyperbasis_margin", counted)
    rng = np.random.default_rng(2)
    A = MatrixTuple(complex_gaussian(rng, 2, 2, 2)).direct_sum(
        MatrixTuple(complex_gaussian(rng, 2, 2, 2))
    )
    result = sv_probe(A, trials=200, seed=42)
    assert result.status == "inconclusive"
    assert result.trials_used == 200
    assert len(calls) <= 4 * (A.rows + 1)


def test_probe_greedy_basis_misses_other_hyperbases():
    # the documented limit: e1..e3 join the span first and every later vector
    # has a zero coordinate against them, although {e1, e2, e2+e3, e1+e3} is
    # a hyperbasis
    e1, e2, e3 = np.eye(3)
    vectors = [e1, e2, e3, e1 + e2, e2 + e3, e1 + e3]
    assert all(hyperbasis_margin([e1, e2, e3, v]) < 1e-12 for v in vectors[3:])
    assert hyperbasis_margin([e1, e2, e2 + e3, e1 + e3]) > 0.1


# --- one draw per trial ---------------------------------------------------------

def count_draws(monkeypatch):
    """Patch np.random.default_rng so that every standard_normal call appends
    the number of normals it drew to the returned list."""
    drawn = []
    default_rng = np.random.default_rng

    class Counted:
        def __init__(self, seed):
            self.rng = default_rng(seed)

        def standard_normal(self, shape):
            out = self.rng.standard_normal(shape)
            drawn.append(out.size)
            return out

    monkeypatch.setattr(np.random, "default_rng", Counted)
    return drawn


def test_probe_makes_one_draw_per_trial(monkeypatch):
    # the top singular value of eye(2) is never simple, so every draw is
    # rejected; the trial count alone bounds the work
    drawn = count_draws(monkeypatch)
    A = MatrixTuple.from_matrices([np.eye(2)])
    result = sv_probe(A, trials=200, seed=42)
    assert result.status == "inconclusive"
    assert result.trials_used == 200
    assert sum(drawn) == 2 * A.g * 200


def test_probe_stops_drawing_once_both_pools_are_closed(monkeypatch):
    # scalar multiples fill both pools within tens of draws and have no
    # certificate; later draws cannot change the verdict, so none are made
    A, trials = scalar_multiples(4, 3), 10_000
    short = sv_probe(A, trials=200, seed=42)
    # the chunk ends of the schedule; a probe cut at the end of the chunk that
    # closed the pools already ends pools-full
    ends, stop, size = [], 0, 2 * A.rows + 1
    while stop < trials:
        stop, size = min(stop + size, trials), min(2 * size, genericity.CHUNK_CAP)
        ends.append(stop)
    closing = next(end for end in ends if sv_probe(A, trials=end, seed=42).reason == "pools-full")
    drawn = count_draws(monkeypatch)
    result = sv_probe(A, trials=trials, seed=42)
    assert (result.status, result.reason, result.trials_used) == (
        "inconclusive", "pools-full", trials
    )
    assert sum(drawn) <= 2 * A.g * closing < 2 * A.g * trials
    assert (result.status, result.reason, result.certificate) == (
        short.status, short.reason, short.certificate
    )


# --- one generator per probe ----------------------------------------------------

@pytest.mark.parametrize(
    "A, trials, status",
    [
        (near_degenerate(5, 3, 1e-7), 2000, "certified"),
        (scalar_multiples(4, 3), 200, "inconclusive"),
        (near_degenerate(5, 3, 1e-7), 100, "inconclusive"),
    ],
    ids=["certified", "pools-full", "trials-exhausted"],
)
@pytest.mark.parametrize("cap", [1, 5])
def test_probe_result_does_not_depend_on_the_chunk_size(monkeypatch, A, trials, status, cap):
    expected = sv_probe(A, trials=trials, seed=42)
    assert expected.status == status
    monkeypatch.setattr(genericity, "CHUNK_CAP", cap)
    result = sv_probe(A, trials=trials, seed=42)
    assert (result.status, result.reason, result.trials_used) == (
        expected.status, expected.reason, expected.trials_used
    )
    if expected.certificate is None:
        assert result.certificate is None
        return
    got, want = result.certificate, expected.certificate
    assert (got.hyperbasis_margin, got.basis_margin) == (want.hyperbasis_margin, want.basis_margin)
    for mine, theirs in ((got.alphas, want.alphas), (got.betas, want.betas)):
        for a, b in zip(mine, theirs, strict=True):
            assert np.array_equal(a.point, b.point)
            assert np.array_equal(a.kernel_vector, b.kernel_vector)


def test_consecutive_seeds_draw_independent_points():
    # seeding each trial by seed + trial made trial t of seed s trial t-1 of
    # seed s+1, so certificates at consecutive seeds shared points
    first, second = (sv_probe(type_iv_tuple(), seed=seed).certificate for seed in (42, 43))
    for a in first.alphas:
        assert not any(np.array_equal(a.point, b.point) for b in second.alphas)


@pytest.mark.parametrize("seed, error", [(-1, ValueError), (None, TypeError), (1.5, TypeError)])
@pytest.mark.parametrize("A", [type_i_tuple(), type_iv_tuple()], ids=["rejected", "certified"])
def test_probe_refuses_a_bad_seed_for_every_tuple(A, seed, error):
    with pytest.raises(error):
        sv_probe(A, trials=10, seed=seed)


def test_probe_near_degenerate_tuple_needs_more_trials():
    # the top singular value of (I, 1e-7 G) is multiple for a positive share of
    # draws; rejected draws are not redrawn, so a certificate takes more trials
    G = complex_gaussian(np.random.default_rng(5), 3, 3)
    A = MatrixTuple.from_matrices([np.eye(3), 1e-7 * G])
    result = sv_probe(A, trials=2000, seed=42)
    assert result.status == "certified"
    assert result.trials_used > 200


@pytest.mark.parametrize("c", [1e-13, 1e-8, 1.0, 1e8])
def test_verdicts_do_not_depend_on_scale(c):
    def scaled(t):
        return MatrixTuple(c * np.asarray(t.data))

    assert not is_nilpotent(scaled(type_iv_tuple()))
    assert is_nilpotent(scaled(type_i_tuple()))
    result = sv_probe(scaled(type_iv_tuple()), trials=200, seed=42)
    assert (result.status, result.trials_used) == ("certified", 3)
    real = MatrixTuple(np.random.default_rng(0).standard_normal((2, 3, 3)))
    result = sv_probe(scaled(real), trials=200, seed=42)
    assert (result.status, result.trials_used) == ("certified", 4)
