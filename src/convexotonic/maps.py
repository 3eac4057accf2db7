"""Convexotonic rational maps and the pencil transfer identity.

The map with tuple xi and sign `minus` sends x to x (I - pencil_xi(x))^{-1};
the `plus` sign flips the pencil and yields the inverse map. Evaluation is
levelwise on square matrix tuples and respects direct sums and similarity.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .algebras import _RECORDS, convexotonic_residual, is_convexotonic, structure_constants
from .errors import DomainBreach, ShapeMismatch
from .linalg import DEFAULT_TOL, MatrixTuple, _pencil, operator_norm, pencil_eval, point_data, resolvent


class MapSign(str, Enum):
    MINUS = "minus"  # x (I - pencil(x))^{-1}
    PLUS = "plus"  # x (I + pencil(x))^{-1}

    @property
    def factor(self) -> float:
        return -1.0 if self is MapSign.MINUS else 1.0


@dataclass(frozen=True)
class ConvexotonicMap:
    """A convexotonic tuple plus the sign selecting the map or its inverse;
    xi is accepted when is_convexotonic(xi, construction_tol)."""

    xi: MatrixTuple
    sign: MapSign = MapSign.MINUS
    construction_tol: float = DEFAULT_TOL

    def __post_init__(self):
        if not is_convexotonic(self.xi, self.construction_tol):
            raise ValueError(f"tuple is not convexotonic (residual {convexotonic_residual(self.xi):.3e})")

    def inverse(self) -> "ConvexotonicMap":
        return replace(self, sign=MapSign.PLUS if self.sign is MapSign.MINUS else MapSign.MINUS)

    def __call__(self, X):
        """Evaluate levelwise at a MatrixTuple X, or at each point of a stack
        (see linalg.point_data) as one stack of images, each with the bits of
        a one-point call; a point where that call would raise DomainBreach
        gets a NaN image instead. When xi came from structure_constants(J)
        with fewer rows d than elements g, read p(X) off the d^2 n x n blocks
        of pencil_J(p(X)) = inv(M) @ pencil_J(X), M = I -/+ pencil_J(X), with
        the coordinates fixed when xi was solved; otherwise go through xi."""
        route = getattr(_RECORDS.get(self.xi), "route", None)
        if route is None:
            return self._through_xi(X)
        J, coords = route
        inv = resolvent(J, X, self.sign.factor, "defining pencil")
        d, n = J.rows, point_data(X).shape[-1]
        lead = inv.shape[:-2]
        # formed again, unchecked: at a stack resolvent refused each overflowing point
        blocks = (inv @ _pencil(J, X)).reshape(*lead, d, n, d, n).swapaxes(-3, -2)
        blocks = blocks.reshape(*lead, d * d, n * n)
        return _images(X, (coords @ blocks).reshape(*lead, len(coords), n, n), inv)

    def _through_xi(self, X):
        """The single product of the row block [X[0] ... X[g-1]] with inv(M),
        M = I -/+ pencil_xi(X), cut into its g column blocks."""
        inv = resolvent(self.xi, X, self.sign.factor, "defining pencil")
        x = point_data(X)
        *lead, g, n, _ = x.shape
        row = x.swapaxes(-3, -2).reshape(*lead, n, g * n) @ inv
        return _images(X, row.reshape(*lead, n, g, n).swapaxes(-3, -2), inv)


def _images(X, images, inv):
    """The images as a call at X returns them: a MatrixTuple for a MatrixTuple
    X; for a stack, NaN at each refused point (resolvent made its inverse NaN)."""
    if isinstance(X, MatrixTuple):
        return MatrixTuple(images)
    images[np.isnan(inv[:, 0, 0])] = np.nan
    return images


def transfer_residual(
    J: MatrixTuple, X: MatrixTuple, sign: MapSign, tol: float = DEFAULT_TOL
) -> float:
    """Defect of the transfer identity tying the map to the pencil of J.

    With xi the structure constants of J and y the image of X under the map
    (xi, sign), returns || pencil_J(y) - (I -/+ pencil_J(X))^{-1} pencil_J(X) ||,
    the pencil sign matching the map sign. y is evaluated through xi, since the
    identity holds by construction for an image read off the pencil of J.
    Raises ShapeMismatch unless X is one point, a MatrixTuple."""
    if not isinstance(X, MatrixTuple):
        raise ShapeMismatch("the transfer residual is taken at one point, a MatrixTuple")
    image = ConvexotonicMap(structure_constants(J, tol).xi, sign, tol)._through_xi(X)
    inv = resolvent(J, X, sign.factor, "transfer pencil")
    return operator_norm(pencil_eval(J, image) - inv @ _pencil(J, X))  # resolvent checked it


def jacobian_at_zero(cmap: ConvexotonicMap) -> np.ndarray:
    """Level-1 Jacobian at the origin by Richardson-extrapolated central
    differences, from one stacked map call at the points +-h e_j per step h.
    Raises DomainBreach when the map refuses one of them."""
    g = cmap.xi.g

    def central(h: float) -> np.ndarray:
        steps = h * np.eye(g)
        images = cmap(np.concatenate([steps, -steps])[:, :, None, None])[:, :, 0, 0]
        if np.isnan(images).any():
            raise DomainBreach(f"the map refuses a difference point at step {h:g}")
        return (images[:g] - images[g:]) / (2 * h)

    h1, h2 = 1e-4, 1e-5
    d1, d2 = central(h1), central(h2)
    # cancel the O(h^2) term of the central difference
    return (h1**2 * d2 - h2**2 * d1) / (h1**2 - h2**2)
