"""Randomized certification of the sv-generic property.

A d x d tuple is sv-generic when d+1 sampled points whose defect pencils have
one-dimensional kernels produce kernel vectors forming a hyperbasis of C^d,
together with d adjoint-side points whose kernel vectors form a basis. The
probe certifies the property by sampling; it never refutes it, except through
the fast necessary conditions (joint kernel, joint cokernel, nilpotency).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotSquare, ShapeMismatch
from .linalg import (
    DEFAULT_TOL,
    MatrixTuple,
    OrthonormalSpan,
    is_nilpotent,
    joint_kernel,
    pencil_eval,
)
from .sampling import complex_gaussian

GAP_TOL = 1e-6  # singular-value simplicity gap
POOL_FACTOR = 4  # candidates kept per required vector on each side


def hyperbasis_margin(vectors) -> float:
    """Min over omit-one subsets of the smallest singular value.

    Expects exactly d+1 vectors in C^d; the set is a hyperbasis iff every
    omit-one subset is a basis, that is iff the margin is positive.
    """
    mat = np.asarray([np.asarray(v, dtype=complex).reshape(-1) for v in vectors])
    count, d = mat.shape
    if count != d + 1:
        raise ShapeMismatch(f"a hyperbasis check needs d+1 vectors, got {count} in C^{d}")
    margin = np.inf
    for omit in range(count):
        rest = np.delete(mat, omit, axis=0)
        margin = min(margin, float(np.linalg.svd(rest.T, compute_uv=False)[-1]))
    return margin


@dataclass(frozen=True)
class NecessaryConditions:
    passed: bool
    reasons: tuple[str, ...]


def necessary_conditions(A: MatrixTuple, tol: float = DEFAULT_TOL) -> NecessaryConditions:
    """Fast rejections: a tuple with a joint kernel, a joint cokernel, or a
    nilpotent generated algebra cannot be sv-generic."""
    if not A.is_square:
        raise NotSquare("sv-genericity is defined for square tuples")
    reasons = []
    if joint_kernel(A, tol):
        reasons.append("joint-kernel")
    if joint_kernel(A.adjoint(), tol):
        reasons.append("joint-cokernel")
    if is_nilpotent(A, tol):
        reasons.append("nilpotent")
    return NecessaryConditions(not reasons, tuple(reasons))


@dataclass(frozen=True)
class KernelPoint:
    """A level-1 point with the unit vector spanning its defect kernel."""

    point: np.ndarray  # vector in C^g
    kernel_vector: np.ndarray  # unit vector in C^d


@dataclass(frozen=True)
class GenericityCertificate:
    alphas: tuple[KernelPoint, ...]  # d+1 points, kernel vectors a hyperbasis
    betas: tuple[KernelPoint, ...]  # d points, kernel vectors a basis
    hyperbasis_margin: float
    basis_margin: float
    trials_used: int
    seed: int


@dataclass(frozen=True)
class ProbeResult:
    status: str  # "certified" | "inconclusive" | "rejected"
    certificate: GenericityCertificate | None
    conditions: NecessaryConditions
    trials_used: int


def sv_probe(
    A: MatrixTuple,
    trials: int = 10_000,
    seed: int = 42,
    tol: float = DEFAULT_TOL,
) -> ProbeResult:
    """Search for an sv-genericity certificate by seeded sampling.

    Each trial makes one Gaussian draw, seeded seed + trial, so trials bounds
    the work. The draw is scaled so the pencil has unit norm (making the
    defect pencil PSD with a kernel), and its kernel vectors are kept when the
    top singular value s0 is simple, s0 - s1 > GAP_TOL * s0 (s1 := 0 when
    d = 1); a test relative to s0 makes the verdict independent of scale.
    Each side pools POOL_FACTOR candidates per required vector and grows one
    span with those that leave a remainder above tol. The first d beta joiners
    must have a basis margin above tol; each later alpha is tried once as the
    completion of the first d alpha joiners to a hyperbasis. No polynomial
    search finds every hyperbasis (a spanning circuit), so a pool whose
    hyperbases all avoid the greedy basis ends inconclusive.
    """
    conditions = necessary_conditions(A, tol)
    if not conditions.passed:
        return ProbeResult("rejected", None, conditions, 0)
    d, g = A.rows, A.g
    alpha_span, beta_span = OrthonormalSpan(d), OrthonormalSpan(d)
    alpha_basis, betas = [], []  # the first d span joiners of each side
    alphas, b_margin, pooled = None, 0.0, 0
    for trial in range(trials):
        gamma = complex_gaussian(np.random.default_rng(seed + trial), g)
        u, s, vh = np.linalg.svd(pencil_eval(A, MatrixTuple.scalar(gamma)))
        if (s[0] - s[1] if d > 1 else s[0]) <= GAP_TOL * s[0]:
            continue  # a multiple top singular value pools nothing
        point, right, left = gamma / s[0], vh[0].conj(), u[:, 0]
        pooled += 1
        if alphas is None and pooled <= POOL_FACTOR * (d + 1):
            if len(alpha_basis) == d:
                vectors = [kp.kernel_vector for kp in alpha_basis] + [right]
                if (h_margin := hyperbasis_margin(vectors)) > tol:
                    alphas = (*alpha_basis, KernelPoint(point, right))
            elif alpha_span.add(right, tol) is not None:
                alpha_basis.append(KernelPoint(point, right))
        if len(betas) < d and pooled <= POOL_FACTOR * d and beta_span.add(left, tol) is not None:
            betas.append(KernelPoint(point, left))
            if len(betas) == d:
                vectors = [kp.kernel_vector for kp in betas]
                b_margin = float(np.linalg.svd(vectors, compute_uv=False)[-1])
        if alphas is not None and b_margin > tol:
            cert = GenericityCertificate(alphas, tuple(betas), h_margin, b_margin, trial + 1, seed)
            return ProbeResult("certified", cert, conditions, trial + 1)
    return ProbeResult("inconclusive", None, conditions, trials)
