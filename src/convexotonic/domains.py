"""Membership and boundary geometry for spectraballs and free spectrahedra.

A spectraball is the level-graded set where the linear pencil of a coefficient
tuple is a contraction; a free spectrahedron is the set where the monic
Hermitian pencil is positive semidefinite. Both are queried level by level.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainBreach, NotSquare, ZeroDirection
from .linalg import (
    DEFAULT_TOL,
    MatrixTuple,
    _add_adjoint,
    _pencil,
    check_tol,
    hermitian_pencil,
    operator_norm,
    pencil_eval,
    point_data,
)


class Location(str, Enum):
    INTERIOR = "interior"
    BOUNDARY = "boundary"
    EXTERIOR = "exterior"


@dataclass(frozen=True)
class MembershipVerdict:
    """Location plus signed margin: positive inside, ~0 on the boundary."""

    location: Location
    margin: float


def _classify(margin: float, tol: float) -> MembershipVerdict:
    check_tol(tol)
    if not np.isfinite(margin):  # the norm or eigenvalue of a finite pencil overflowed
        raise DomainBreach("the pencil overflows at this point")
    if margin > tol:
        loc = Location.INTERIOR
    elif margin < -tol:
        loc = Location.EXTERIOR
    else:
        loc = Location.BOUNDARY
    return MembershipVerdict(loc, float(margin))


@dataclass(frozen=True)
class Spectraball:
    """Points where the pencil of `coeffs` has operator norm at most 1.

    Rectangular coefficient tuples are allowed.
    """

    coeffs: MatrixTuple


@dataclass(frozen=True)
class Spectrahedron:
    """Points where the monic Hermitian pencil of `coeffs` is PSD."""

    coeffs: MatrixTuple

    def __post_init__(self):
        if not self.coeffs.is_square:
            raise NotSquare("spectrahedra need square coefficient tuples")


def ball_membership(ball: Spectraball, X: MatrixTuple, tol: float = DEFAULT_TOL) -> MembershipVerdict:
    """Margin is 1 - ||pencil(X)||."""
    return _classify(1.0 - operator_norm(pencil_eval(ball.coeffs, X)), tol)


def spec_membership(spec: Spectrahedron, X: MatrixTuple, tol: float = DEFAULT_TOL) -> MembershipVerdict:
    """Margin is the smallest eigenvalue of the Hermitian pencil."""
    return _classify(float(np.linalg.eigvalsh(hermitian_pencil(spec.coeffs, X))[0]), tol)


def ball_to_spectrahedron(ball: Spectraball) -> Spectrahedron:
    """Embed a ball as the spectrahedron of the block tuple [[0, E], [0, 0]]."""
    e = ball.coeffs
    out = np.zeros((e.g, e.rows + e.cols, e.rows + e.cols), dtype=complex)
    out[:, : e.rows, e.rows :] = e.data
    return Spectrahedron(MatrixTuple(out))


def boundary_scale(domain, X):
    """Largest t >= 0 with t*X inside the domain; may be math.inf. At a stack
    of directions (see linalg.point_data), the array of their scales, each
    with the bits of a one-direction call.

    Closed forms: for balls 1 / ||pencil(X)||; for spectrahedra the pencil
    along the ray is I + t*H with H = pencil(X) + pencil(X)*, so the scale is
    -1 / min_eig(H) when that eigenvalue is negative and infinity otherwise.
    Raises DomainBreach when the pencil, H, the norm or the eigenvalue is not
    finite, and ZeroDirection for a zero direction, at any point of a stack.
    """
    x = point_data(X)
    if not x.any(axis=(-3, -2, -1)).all():
        raise ZeroDirection("boundary scale needs a nonzero direction")
    if isinstance(domain, Spectraball):
        norm = operator_norm(pencil_eval(domain.coeffs, X))
        scale = np.divide(1.0, norm, out=np.full_like(norm, np.inf), where=norm != 0.0)
    elif isinstance(domain, Spectrahedron):
        if x.shape[-2] != x.shape[-1]:
            raise NotSquare("spectrahedra are evaluated at square matrix tuples")
        h = _add_adjoint(_pencil(domain.coeffs, X), x.shape[-1], monic=False)
        lmin = np.linalg.eigvalsh(h)[..., 0]
        scale = np.divide(-1.0, lmin, out=np.full_like(lmin, np.inf), where=~(lmin >= 0.0))
    else:
        raise TypeError(f"not a domain: {type(domain).__name__}")
    if not (scale > 0.0).all():  # 0 or NaN: the norm or eigenvalue overflowed
        raise DomainBreach("the pencil overflows at this point")
    return float(scale) if isinstance(X, MatrixTuple) else scale
