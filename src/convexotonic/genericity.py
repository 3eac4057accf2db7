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

from .errors import DomainBreach, NotSquare, ShapeMismatch
from .linalg import (
    DEFAULT_TOL,
    MatrixTuple,
    OrthonormalSpan,
    check_tol,
    is_nilpotent,
    pencil_eval,
)
from .sampling import check_count, complex_gaussians, seeded_rng

GAP_TOL = 1e-6  # singular-value simplicity gap
POOL_FACTOR = 4  # candidates kept per required vector on each side
CHUNK_CAP = 256  # most trials factored in one stacked SVD


def hyperbasis_margin(vectors) -> float:
    """Min over omit-one subsets of the smallest singular value.

    Expects exactly d+1 vectors in C^d, d >= 1, and raises ShapeMismatch
    otherwise; the set is a hyperbasis iff every omit-one subset is a basis,
    that is iff the margin is positive.
    """
    rows = [np.asarray(v, dtype=complex).reshape(-1) for v in vectors]
    d = rows[0].size if rows else 0
    if d < 1 or len(rows) != d + 1 or any(row.size != d for row in rows):
        sizes = [row.size for row in rows]
        raise ShapeMismatch(f"a hyperbasis check needs d+1 vectors in C^d, got lengths {sizes}")
    mat = np.array(rows)
    rests = np.array([np.delete(mat, omit, axis=0).T for omit in range(d + 1)])
    return float(np.linalg.svd(rests, compute_uv=False)[:, -1].min())


@dataclass(frozen=True)
class NecessaryConditions:
    passed: bool
    reasons: tuple[str, ...]


def necessary_conditions(A: MatrixTuple, tol: float = DEFAULT_TOL) -> NecessaryConditions:
    """Fast rejections: a tuple with a joint kernel, a joint cokernel, or a
    nilpotent generated algebra cannot be sv-generic. One values-only SVD of
    the stacked gd x d matrices of A and of its adjoint finds the first two:
    a stack has a kernel when its smallest singular value is at most tol times
    its largest, kernel_basis's rule. The nilpotency flag runs only with a
    joint kernel: a nilpotent algebra kills a common vector (Levitzki), and
    the flag's first step finds a unit v with the sum over j of
    ||B_j v||^2 / ||B_j||^2 at most tol^2, which passes the joint-kernel test,
    except that each generator is_nilpotent drops (norm at most tol times the
    largest) loosens that bound, to sqrt(1 + m) * tol with m dropped. Raises
    DomainBreach when a singular value overflows."""
    if not A.is_square:
        raise NotSquare("sv-genericity is defined for square tuples")
    check_tol(tol)
    stacks = np.stack((A.data, A.data.conj().transpose(0, 2, 1))).reshape(2, -1, A.rows)
    s = np.linalg.svd(stacks, compute_uv=False)
    if not np.isfinite(s).all():
        raise DomainBreach("the singular values of the tuple overflow")
    kernel, cokernel = s[:, -1] <= tol * s[:, 0]
    reasons = [r for r, found in (("joint-kernel", kernel), ("joint-cokernel", cokernel)) if found]
    if kernel and is_nilpotent(A, tol):
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
    reason: str | None = None  # inconclusive: "never-simple" | "pools-full" | "trials-exhausted"


def sv_probe(
    A: MatrixTuple,
    trials: int = 10_000,
    seed: int = 42,
    tol: float = DEFAULT_TOL,
) -> ProbeResult:
    """Search for an sv-genericity certificate by seeded sampling.

    Each trial makes one complex Gaussian draw, so trials bounds the work;
    trial t is item t of complex_gaussians on seeded_rng(seed). The draw is
    scaled so the pencil has unit norm (making the defect pencil PSD with a
    kernel), and its kernel vectors are kept when the top singular value s0 is
    simple, s0 - s1 > GAP_TOL * s0 (s1 := 0 when d = 1), a test relative to
    s0 that makes the verdict independent of scale.
    Chunks of 2d+1 trials, doubling up to CHUNK_CAP, are each drawn in one
    call, factored by one stacked SVD and visited in order, so the chunks do
    not change the result; the rest of a chunk is wasted once the probe ends.
    Each side pools POOL_FACTOR candidates per required vector and grows one
    span with those that leave a remainder above tol, a chunk at a time by
    OrthonormalSpan.add_rows. The first d beta joiners
    must have a basis margin above tol; each later alpha is tried once as the
    completion of the first d alpha joiners to a hyperbasis. No polynomial
    search finds every hyperbasis (a spanning circuit), so a pool whose
    hyperbases all avoid the greedy basis ends inconclusive. No later draw
    can join a closed pool, so the probe stops drawing once both pools are
    closed; its inconclusive verdict covers all trials, and trials_used says
    so. Raises TypeError for a trials that is a bool or not an integer and
    ValueError for one below 1, and DomainBreach when a draw's pencil (see
    pencil_eval) or its scaled point overflows.
    """
    rng = seeded_rng(seed)  # first: every tuple checks the seed
    trials = check_count(trials, "trials", least=1)
    conditions = necessary_conditions(A, tol)
    if not conditions.passed:
        return ProbeResult("rejected", None, conditions, 0)
    d, g = A.rows, A.g
    alpha_span, beta_span = OrthonormalSpan(d), OrthonormalSpan(d)
    alpha_basis, betas = [], []  # the first d span joiners of each side
    alphas, b_margin, pooled = None, 0.0, 0
    stop, size = 0, 2 * d + 1
    while stop < trials and pooled < POOL_FACTOR * (d + 1):  # until both pools are full
        start, stop, size = stop, min(stop + size, trials), min(2 * size, CHUNK_CAP)
        gammas = complex_gaussians(rng, stop - start, g)
        u, s, vh = np.linalg.svd(pencil_eval(A, gammas[:, :, None, None]))
        gap = s[:, 0] - s[:, 1] if d > 1 else s[:, 0]
        # a multiple s0 pools nothing, and past 4(d+1) simple draws both pools are closed
        simple = np.flatnonzero(gap > GAP_TOL * s[:, 0])[: POOL_FACTOR * (d + 1) - pooled]
        if not simple.size:
            continue
        points, rights = gammas[simple] / s[simple, :1], vh[simple, 0].conj()
        if not np.isfinite(points).all():
            raise DomainBreach("the probe's points overflow")
        lefts = u[simple[: max(0, POOL_FACTOR * d - pooled)], :, 0]
        joins, beta_joins = alpha_span.add_rows(rights, tol), beta_span.add_rows(lefts, tol)
        # copies, so that a certificate does not keep the chunk's arrays alive
        for i, k in enumerate(simple):
            pooled += 1
            if alphas is None:
                if len(alpha_basis) == d:
                    vectors = [kp.kernel_vector for kp in alpha_basis] + [rights[i]]
                    if (h_margin := hyperbasis_margin(vectors)) > tol:
                        alphas = (*alpha_basis, KernelPoint(points[i].copy(), rights[i].copy()))
                elif joins[i] is not None:
                    alpha_basis.append(KernelPoint(points[i].copy(), rights[i].copy()))
            if i < len(lefts) and beta_joins[i] is not None:
                betas.append(KernelPoint(points[i].copy(), lefts[i].copy()))
                if len(betas) == d:
                    vectors = [kp.kernel_vector for kp in betas]
                    b_margin = float(np.linalg.svd(vectors, compute_uv=False)[-1])
            if alphas is not None and b_margin > tol:
                used = start + int(k) + 1
                cert = GenericityCertificate(alphas, tuple(betas), h_margin, b_margin, used, seed)
                return ProbeResult("certified", cert, conditions, used)
    full = pooled >= POOL_FACTOR * (d + 1)
    reason = "pools-full" if full else "trials-exhausted" if pooled else "never-simple"
    return ProbeResult("inconclusive", None, conditions, trials, reason)
