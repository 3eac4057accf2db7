"""Convexotonic rational maps, realizations, and the pencil transfer identity.

The map with tuple xi and sign `minus` sends x to x (I - pencil_xi(x))^{-1};
the `plus` sign flips the pencil and yields the inverse map. Evaluation is
levelwise on square matrix tuples and respects direct sums and similarity.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .algebras import convexotonic_residual, is_convexotonic, structure_constants
from .errors import DomainBreach, ShapeMismatch
from .linalg import DEFAULT_TOL, MatrixTuple, operator_norm, pencil_eval, resolvent


class MapSign(str, Enum):
    MINUS = "minus"  # x (I - pencil(x))^{-1}
    PLUS = "plus"  # x (I + pencil(x))^{-1}

    @property
    def factor(self) -> float:
        return -1.0 if self is MapSign.MINUS else 1.0

    def flipped(self) -> "MapSign":
        return MapSign.PLUS if self is MapSign.MINUS else MapSign.MINUS


@dataclass(frozen=True)
class ConvexotonicMap:
    """A convexotonic tuple plus the sign selecting the map or its inverse;
    xi is accepted when is_convexotonic(xi, construction_tol)."""

    xi: MatrixTuple
    sign: MapSign = MapSign.MINUS
    construction_tol: float = DEFAULT_TOL

    def __post_init__(self):
        if not is_convexotonic(self.xi, self.construction_tol):
            raise ValueError(f"tuple is not convexotonic (residual {self.residual:.3e})")

    @property
    def residual(self) -> float:
        """The exact convexotonic residual of xi, computed on first read."""
        return convexotonic_residual(self.xi)

    def inverse(self) -> "ConvexotonicMap":
        return replace(self, sign=self.sign.flipped())

    def domain_check(self, X: MatrixTuple) -> bool:
        """True iff the map is defined at X, i.e. calling it raises no DomainBreach."""
        try:
            resolvent(self.xi, X, self.sign.factor, "defining pencil")
        except DomainBreach:
            return False
        return True

    def __call__(self, X: MatrixTuple) -> MatrixTuple:
        """Evaluate levelwise: component i is sum_j X[j] @ inv(M) block (j, i),
        M = I -/+ pencil_xi(X) the defining pencil.

        That is the single product of the row block [X[0] ... X[g-1]] with
        inv(M), cut into its g column blocks.
        """
        inv = resolvent(self.xi, X, self.sign.factor, "defining pencil")[0]
        g, n = X.g, X.rows
        row = X.data.transpose(1, 0, 2).reshape(n, g * n) @ inv
        return MatrixTuple(row.reshape(n, g, n).transpose(1, 0, 2))


@dataclass(frozen=True)
class Realization:
    """A free rational function r(x) = c* (I - pencil_S(x))^{-1} b."""

    S: MatrixTuple
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.b, dtype=complex).reshape(-1)
        c = np.asarray(self.c, dtype=complex).reshape(-1)
        if not self.S.is_square or b.size != self.S.rows or c.size != self.S.rows:
            raise ShapeMismatch("state tuple and vectors must share one size")
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    def __call__(self, X: MatrixTuple) -> np.ndarray:
        inv = resolvent(self.S, X, -1.0, "realization pencil")[0]
        d, n = self.S.rows, X.rows
        return np.einsum("a,apbq,b->pq", self.c.conj(), inv.reshape(d, n, d, n), self.b)


def transfer_residual(
    J: MatrixTuple, X: MatrixTuple, sign: MapSign, tol: float = DEFAULT_TOL
) -> float:
    """Defect of the transfer identity tying the map to the pencil of J.

    With xi the structure constants of J and y the image of X under the map
    (xi, sign), returns || pencil_J(y) - (I -/+ pencil_J(X))^{-1} pencil_J(X) ||,
    the pencil sign matching the map sign.
    """
    image = ConvexotonicMap(structure_constants(J, tol).xi, sign, tol)(X)
    inv, lam = resolvent(J, X, sign.factor, "transfer pencil")
    return operator_norm(pencil_eval(J, image) - inv @ lam)


def jacobian_at_zero(cmap: ConvexotonicMap) -> np.ndarray:
    """Level-1 Jacobian at the origin by Richardson-extrapolated central differences."""
    g = cmap.xi.g

    def central(h: float) -> np.ndarray:
        jac = np.zeros((g, g), dtype=complex)
        for j in range(g):
            e = np.zeros(g)
            e[j] = h
            plus = cmap(MatrixTuple.scalar(e)).data[:, 0, 0]
            minus = cmap(MatrixTuple.scalar(-e)).data[:, 0, 0]
            jac[j, :] = (plus - minus) / (2 * h)
        return jac

    h1, h2 = 1e-4, 1e-5
    d1, d2 = central(h1), central(h2)
    # cancel the O(h^2) term of the central difference
    return (h1**2 * d2 - h2**2 * d1) / (h1**2 - h2**2)
