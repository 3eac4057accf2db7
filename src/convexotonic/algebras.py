"""Linear independence, algebra closure and structure-constant extraction.

A linearly independent square tuple J that spans an algebra determines unique
coefficients with J[k] @ J[j] = sum_s xi[j][k, s] * J[s]; the resulting g-tuple
of g x g coefficient matrices multiplies the same way against its own entries
(it is "convexotonic"), which is what makes the rational maps in `maps` work.

The exact residual of that law costs O(g^5) (convexotonic_residual); for the xi
of structure_constants associativity bounds it in O(g^2) from the remainders
R_kj = J_k J_j - sum_s xi_j[k, s] J_s. With Phi(v) = sum_s v_s J_s and the
defect D_ji = xi_j xi_i - sum_s xi_i[j, s] xi_s, expanding (J_k J_j) J_i and
J_k (J_j J_i) through R and equating the two gives

    Phi(row k of D_ji) = -R_kj J_i + J_k R_ji - sum_s xi_j[k, s] R_si + sum_s xi_i[j, s] R_ks.

Here ||Phi(v)||_F >= sigma ||v||, sigma the smallest singular value of the
flattened J (and of its coordinates r on the span). Let rho_kj = ||R_kj||_F and
a_i = ||J_i||_F. By ||AB||_F <= ||A||_F ||B||_F, Cauchy-Schwarz on the sums over
s and the triangle inequality in l2 over k, sigma ||D_ji|| <= sigma ||D_ji||_F <=
a_i ||rho[:, j]|| + ||a|| rho_ji + ||rho[:, i]|| ||xi_j||_F + ||rho||_F ||xi_i[j, :]||.
The max over (j, i), plus g u max(1, max_j ||xi_j||_F^2) (u the unit roundoff)
for the rounding of the defect as convexotonic_residual forms it, is the
bound. Acceptance passes on it and computes the exact residual only when the
bound is not decisive, so verdicts are those of the exact residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from weakref import WeakKeyDictionary

import numpy as np

from .errors import DependentInput, DomainBreach, NotSquare, ShapeMismatch, SpanViolation
from .linalg import DEFAULT_TOL, MatrixTuple, OrthonormalSpan, check_tol, operator_norm

_RECORDS: WeakKeyDictionary = WeakKeyDictionary()  # MatrixTuple (by identity) -> _Record


@dataclass(slots=True)
class _Record:
    """What one tuple object has certified, freed with it; failures are never stored."""

    bound: float = math.inf  # of a solved xi: the associativity bound
    residual: float | None = None  # convexotonic_residual, once computed
    route: tuple | None = None  # of xi solved from J with d < g: (a copy of J, C)
    constants: dict = field(default_factory=dict)  # tol -> StructureConstants
    span: tuple = (-math.inf, None)  # of a closure's extended tuple: (tol, its span)


def _independent_span(T: MatrixTuple, tol: float, what: str) -> OrthonormalSpan:
    """The orthonormal span of the flattened tuple, built element by element.

    Raises DependentInput unless every element joins with a remainder above
    tol * max_i ||T[i]||_F, a floor that scales with the data.
    """
    check_tol(tol)
    rows = T.flatten()
    floor = tol * float(np.max(np.linalg.norm(rows, axis=1)))
    span = OrthonormalSpan(rows.shape[1])
    for i, row in enumerate(rows):
        if span.add(row, floor) is None:
            raise DependentInput(
                f"{what}: the tuple is linearly dependent (element {i} lies "
                f"within {floor:.3e} of the span of the elements before it)"
            )
    return span


def is_linearly_independent(T: MatrixTuple, tol: float = DEFAULT_TOL) -> bool:
    """True iff every flattened element leaves a remainder above
    tol * max_i ||T[i]||_F against the span of the elements before it."""
    try:
        _independent_span(T, tol, "independence")
    except DependentInput:
        return False
    return True


@dataclass(frozen=True)
class StructureConstants:
    """Coefficient tuple xi with the residual certifying it: the max distance
    of a product from the span of the tuple. The exact defect of xi
    multiplying against itself is convexotonic_residual(xi)."""

    xi: MatrixTuple
    residual: float


@dataclass(frozen=True)
class AlgebraClosure:
    """A tuple extended to an independent spanning set of its algebra.

    The first g slots are the original tuple; every appended element is the
    unit-norm remainder of a word in the generators, orthogonal to all slots
    before it.
    """

    extended: MatrixTuple
    appended_count: int

    @property
    def orthonormalized(self) -> tuple[bool, ...]:
        """One flag per appended element; all true, since every one is a remainder."""
        return (True,) * self.appended_count


def convexotonic_residual(xi: MatrixTuple) -> float:
    """Max over (j, k) of || xi[k] @ xi[j] - sum_s xi[j][k, s] * xi[s] ||,
    computed once per tuple object. SVDs run only on blocks whose Frobenius
    norm (a bound on the 2-norm) exceeds the running maximum, which leaves
    the maximum unchanged."""
    if not (xi.g == xi.rows == xi.cols):
        raise ShapeMismatch("expected a g-tuple of g x g matrices")
    record = _RECORDS.setdefault(xi, _Record())
    if record.residual is not None:
        return record.residual
    g = xi.g
    worst = 0.0
    for j in range(g):
        defect = xi.data @ xi.data[j]
        defect -= (xi.data[j] @ xi.data.reshape(g, g * g)).reshape(g, g, g)
        # the real view has the same row norms and needs no complex temporaries
        fro = np.linalg.norm(defect.reshape(g, -1).view(float), axis=1)
        for k in np.argsort(-fro):
            if fro[k] <= worst:
                break
            worst = max(worst, operator_norm(defect[k]))
    record.residual = worst
    return worst


def convexotonic_bound(xi: MatrixTuple, tol: float = DEFAULT_TOL) -> float:
    """The largest accepted convexotonic residual, tol * max(1, max_j ||xi[j]||_F^2):
    the defect is quadratic in xi, so the bound grows with large xi, and it
    stays at tol for small xi, whose defect may be rounding noise alone."""
    check_tol(tol)
    real = xi.data.view(float)  # the same squared norms, without complex temporaries
    return tol * max(1.0, float(np.max(np.einsum("jkt,jkt->j", real, real))))


def is_convexotonic(xi: MatrixTuple, tol: float = DEFAULT_TOL) -> bool:
    """Whether convexotonic_residual(xi) <= convexotonic_bound(xi, tol), decided
    by the associativity bound of a solved xi when that is within the limit."""
    limit = convexotonic_bound(xi, tol)
    bound = getattr(_RECORDS.get(xi), "bound", math.inf)
    return bound <= limit or convexotonic_residual(xi) <= limit


def _associativity_bound(J: MatrixTuple, xi: MatrixTuple, products, r) -> float:
    """The bound of the module docstring on the convexotonic residual of xi,
    the constants of J; turns products (J_k J_j in row k * g + j) into R_kj in
    place by one batched product, whose result is the one temporary that large."""
    g = J.g
    flat = J.flatten()
    products -= (xi.data.transpose(1, 0, 2) @ flat).reshape(g * g, -1)  # xi.data[j, k, s] = xi_j[k, s]
    rest = products.view(float)
    rho = np.sqrt(np.einsum("ij,ij->i", rest, rest)).reshape(g, g)  # rho[k, j] = ||R_kj||_F
    real = xi.data.view(float)
    rows_sq = np.einsum("jkt,jkt->jk", real, real)  # ||xi_j[k, :]||^2
    a = np.linalg.norm(flat, axis=1)
    cols = np.linalg.norm(rho, axis=0)
    xi_sq = rows_sq.sum(axis=1)
    blocks = np.outer(cols, a) + np.linalg.norm(a) * rho  # the four terms, at [j, i]
    blocks += np.outer(np.sqrt(xi_sq), cols) + np.linalg.norm(rho) * np.sqrt(rows_sq).T
    sigma = np.linalg.svd(r, compute_uv=False)[-1]
    rounding = g * np.finfo(float).eps * max(1.0, float(np.max(xi_sq)))
    return float(np.max(blocks) / sigma + rounding)


def _solve_constants(
    basis: MatrixTuple, tol: float, what: str, middle=None
) -> tuple[MatrixTuple, float]:
    """Express every product basis[k] @ middle @ basis[j] (no middle: the
    plain product) in the basis; return xi and the max residual. A product
    lies in the span when its remainder is at most tol times the Frobenius
    norms of its two factors, which no scaling changes. The basis must be
    independent (DependentInput otherwise), or a closure's extended tuple,
    whose span algebra_closure certified at a tol no smaller; basis = r @ q,
    so the coefficients x solve x @ r = (their coordinates on q). Without a
    middle, xi's record gets its bound and, when d < g, the route (J, C) with
    C = inv(r.T) @ conj(q), which maps the d^2 flattened n x n blocks of
    pencil_J(Y) to Y. Raises DomainBreach when the products overflow.
    """
    check_tol(tol)  # before a closure's span is reused at any tol below its own
    g = basis.g
    span_tol, span = getattr(_RECORDS.get(basis), "span", (-math.inf, None))
    span = span if tol <= span_tol else _independent_span(basis, tol, what)
    left = basis.data
    right = left if middle is None else middle @ left
    products = (left[:, None] @ right[None, :]).reshape(g * g, -1)  # row k * g + j
    coords, residuals = span.project(products)
    if not math.isfinite(largest := float(np.max(residuals))):  # nan passes the test below
        raise DomainBreach(f"{what}: the products overflow")
    factors = np.outer(np.linalg.norm(left, axis=(1, 2)), np.linalg.norm(right, axis=(1, 2)))
    bad = residuals > tol * factors.reshape(-1)
    if np.any(bad):
        worst = float(np.max(residuals[bad]))
        k, j = divmod(int(np.argmax(bad)), g)
        raise SpanViolation(
            f"{what}: product ({k}, {j}) lies outside the span "
            f"(residual {worst:.3e})",
            residual=worst,
        )
    r, _ = span.project(basis.flatten())
    r_inv_t = np.linalg.inv(r.T)  # for xi and C; forward error u cond(r), as a solve's
    solved = r_inv_t @ coords.T  # [s, k * g + j] is xi[j][k, s]
    del coords  # before xi copies solved: the span solve's memory peak
    xi = MatrixTuple(solved.reshape(g, g, g).transpose(2, 1, 0))
    del solved
    if middle is None:
        _RECORDS[xi] = record = _Record(_associativity_bound(basis, xi, products, r))
        if basis.rows < g:  # a copy of J: J's record holds xi, so J would never be freed
            record.route = (MatrixTuple(left), r_inv_t @ span.q.conj())
    return xi, largest


def structure_constants(J: MatrixTuple, tol: float = DEFAULT_TOL) -> StructureConstants:
    """Coefficients expressing every product J[k] @ J[j] back in the tuple.

    Raises SpanViolation when J does not span an algebra (close it first with
    algebra_closure) and DomainBreach when its products overflow. Computed
    once per tuple object and tol; independence makes the coefficients unique.
    """
    if not J.is_square:
        raise NotSquare("structure constants need a square tuple")
    known = getattr(_RECORDS.get(J), "constants", {})
    if tol not in known:
        known[tol] = StructureConstants(*_solve_constants(J, tol, "structure constants"))
        _RECORDS.setdefault(J, _Record(constants=known))
    return known[tol]


def pencil_structure_constants(
    F: MatrixTuple, C, tol: float = DEFAULT_TOL
) -> StructureConstants:
    """Coefficients for the sandwiched products F[l] @ C @ F[j].

    F may be rectangular d x e with C of shape e x d. Whenever the products
    stay in the span the resulting tuple is convexotonic.
    """
    C = np.asarray(C, dtype=complex)
    if C.shape != (F.cols, F.rows):
        raise ShapeMismatch(
            f"middle factor must be {F.cols} x {F.rows}, got {C.shape}"
        )
    return StructureConstants(*_solve_constants(F, tol, "pencil structure constants", C))


def algebra_closure(A: MatrixTuple, tol: float = DEFAULT_TOL) -> AlgebraClosure:
    """Extend A to an independent spanning set of the algebra it generates,
    the span of the words in A. A span that holds the generators and is
    closed under left multiplication by each of them holds every word, so
    each element, from the unit-norm generators on, is multiplied on the left
    by every unit-norm generator once; a product of unit factors leaving a
    remainder above tol (the rule of _solve_constants) appends it, unit-norm.
    """
    if not A.is_square:
        raise NotSquare("algebra closure needs a square tuple")
    d = A.rows
    span = _independent_span(A, tol, "algebra closure")
    gens = A.data / np.linalg.norm(A.flatten(), axis=1)[:, None, None]
    words = list(gens)
    for word in words:  # appended elements are reached too
        for product in gens @ word:
            unit = span.add(product, tol)
            if unit is not None:
                words.append(unit.reshape(d, d))
    # the appended units are the span's rows past the generators', bit for bit
    extended = MatrixTuple(np.concatenate([A.flatten(), span.q[A.g :]]).reshape(-1, d, d))
    _RECORDS[extended] = _Record(span=(tol, span))
    return AlgebraClosure(extended, len(words) - A.g)
