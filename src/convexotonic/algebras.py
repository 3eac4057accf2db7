"""Linear independence, algebra closure and structure-constant extraction.

A linearly independent square tuple J that spans an algebra determines unique
coefficients with J[k] @ J[j] = sum_s xi[j][k, s] * J[s]; the resulting g-tuple
of g x g coefficient matrices multiplies the same way against its own entries
(it is "convexotonic"), which is what makes the rational maps in `maps` work.
"""

from __future__ import annotations

from dataclasses import dataclass
from weakref import WeakKeyDictionary

import numpy as np

from .errors import DependentInput, NotSquare, ShapeMismatch, SpanViolation
from .linalg import DEFAULT_TOL, MatrixTuple, OrthonormalSpan, operator_norm

# Certificates computed once per MatrixTuple object (hashed by identity) and
# freed with it; failures raise and are never stored.
_RESIDUALS: WeakKeyDictionary = WeakKeyDictionary()  # xi -> convexotonic residual
_CONSTANTS: WeakKeyDictionary = WeakKeyDictionary()  # J -> {tol: StructureConstants}


def _independent_span(T: MatrixTuple, tol: float, what: str) -> OrthonormalSpan:
    """The orthonormal span of the flattened tuple, built element by element.

    Raises DependentInput unless every element joins with a remainder above
    tol * max_i ||T[i]||_F, a floor that scales with the data.
    """
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
    """Coefficient tuple xi with the residuals certifying it.

    residual: max distance of a product from the span of the tuple.
    convexotonic_residual: max defect of xi multiplying against itself.
    """

    xi: MatrixTuple
    residual: float
    convexotonic_residual: float


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
    if xi in _RESIDUALS:
        return _RESIDUALS[xi]
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
    _RESIDUALS[xi] = worst
    return worst


def convexotonic_bound(xi: MatrixTuple, tol: float = DEFAULT_TOL) -> float:
    """The largest accepted convexotonic residual, tol * max(1, max_j ||xi[j]||_F^2):
    the defect is quadratic in xi, so the bound grows with large xi, and it
    stays at tol for small xi, whose defect may be rounding noise alone."""
    return tol * max(1.0, float(np.max(np.sum(np.abs(xi.data) ** 2, axis=(1, 2)))))


def is_convexotonic(xi: MatrixTuple, tol: float = DEFAULT_TOL) -> bool:
    return convexotonic_residual(xi) <= convexotonic_bound(xi, tol)


def _solve_constants(
    basis: MatrixTuple, left: np.ndarray, right: np.ndarray, tol: float, what: str
) -> tuple[MatrixTuple, float]:
    """Express every product left[k] @ right[j] in the basis; return xi and
    the max residual. A product lies in the span when its remainder is at
    most tol * ||left[k]||_F ||right[j]||_F, which no scaling changes. The
    basis must be independent (DependentInput otherwise); its span has basis
    = r @ q, so the coefficients x solve x @ r = (their coordinates on q).
    """
    g = basis.g
    span = _independent_span(basis, tol, what)
    rhs = np.einsum("kab,jbc->kjac", left, right).reshape(g * g, -1)  # row k * g + j
    coords, residuals = span.project(rhs)
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
    # coeff[s, k * g + j] is xi[j][k, s]
    coeff = np.linalg.solve(r.T, coords.T)
    xi = coeff.reshape(g, g, g).transpose(2, 1, 0)
    return MatrixTuple(xi), float(np.max(residuals))


def structure_constants(J: MatrixTuple, tol: float = DEFAULT_TOL) -> StructureConstants:
    """Coefficients expressing every product J[k] @ J[j] back in the tuple.

    Raises SpanViolation when J does not span an algebra (close it first with
    algebra_closure); independence makes the coefficients unique. Computed
    once per tuple object and tol.
    """
    if not J.is_square:
        raise NotSquare("structure constants need a square tuple")
    known = _CONSTANTS.get(J, {})
    if tol not in known:
        xi, residual = _solve_constants(J, J.data, J.data, tol, "structure constants")
        known[tol] = StructureConstants(xi, residual, convexotonic_residual(xi))
        _CONSTANTS[J] = known
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
    xi, residual = _solve_constants(F, F.data, C @ F.data, tol, "pencil structure constants")
    return StructureConstants(xi, residual, convexotonic_residual(xi))


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
    return AlgebraClosure(MatrixTuple.from_matrices([*A, *words[A.g :]]), len(words) - A.g)
