"""Dense complex matrix kernels: linear pencils and their certified
resolvents, norms, eigenvalues, kernels and the orthonormal span engine.

All randomized behaviour lives elsewhere; every function here is a pure
function of its arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainBreach, NotSquare, ShapeMismatch, TupleLengthMismatch

DEFAULT_TOL = 1e-8
COND_LIMIT = 1e12  # refuse evaluations nearer to a singular pencil than this
# from this level n on, resolvent inverts a block-triangular pencil block by
# block, and pencils and their Hermitian sums are formed in place block by
# block; below it one dense step is faster (README caveats)
BLOCK_LEVEL = 20


def _as_complex_matrix(m) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise ShapeMismatch(f"expected a 2-d matrix, got ndim={m.ndim}")
    return m


def check_tol(tol: float) -> None:
    """Raise ValueError unless tol is finite and at least 0."""
    if not 0 <= tol < math.inf:  # nan fails both comparisons
        raise ValueError(f"tol must be finite and at least 0, got {tol}")


@dataclass(frozen=True, eq=False)
class MatrixTuple:
    """A g-tuple of same-shape complex matrices, stored as a (g, rows, cols) array.

    Immutable after construction: data views a private copy through a
    read-only buffer, so numpy refuses to make it writable.
    """

    data: np.ndarray

    def __post_init__(self):
        arr = np.array(self.data, dtype=complex, order="C", copy=True)
        if arr.ndim != 3:
            raise ShapeMismatch(f"expected (g, rows, cols) data, got ndim={arr.ndim}")
        if arr.shape[0] < 1:
            raise ShapeMismatch("a matrix tuple needs at least one entry")
        if arr.shape[1] < 1 or arr.shape[2] < 1:
            raise ShapeMismatch(f"matrix tuple entries cannot be empty, got {arr.shape[1:]}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("matrix tuple entries must be finite")
        object.__setattr__(self, "data", np.asarray(memoryview(arr).toreadonly()))

    @classmethod
    def from_matrices(cls, matrices) -> "MatrixTuple":
        mats = [_as_complex_matrix(m) for m in matrices]
        if not mats:
            raise ShapeMismatch("a matrix tuple needs at least one entry")
        shape = mats[0].shape
        if any(m.shape != shape for m in mats):
            raise ShapeMismatch("all matrices in a tuple must share one shape")
        return cls(np.stack(mats))

    @classmethod
    def scalar(cls, values) -> "MatrixTuple":
        """Level-1 point: a vector in C^g as a tuple of 1x1 matrices."""
        values = np.asarray(values, dtype=complex).reshape(-1)
        return cls(values.reshape(-1, 1, 1))

    @classmethod
    def zeros(cls, g: int, rows: int) -> "MatrixTuple":
        return cls(np.zeros((g, rows, rows), dtype=complex))

    @property
    def g(self) -> int:
        return self.data.shape[0]

    @property
    def rows(self) -> int:
        return self.data.shape[1]

    @property
    def cols(self) -> int:
        return self.data.shape[2]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __len__(self) -> int:
        return self.g

    def __getitem__(self, j: int) -> np.ndarray:
        return self.data[j]

    def __iter__(self):
        return iter(self.data)

    def adjoint(self) -> "MatrixTuple":
        """Componentwise conjugate transpose."""
        return MatrixTuple(self.data.conj().transpose(0, 2, 1))

    def flatten(self) -> np.ndarray:
        """Each matrix as one row: shape (g, rows*cols)."""
        return self.data.reshape(self.g, -1)

    def direct_sum(self, other: "MatrixTuple") -> "MatrixTuple":
        if self.g != other.g:
            raise TupleLengthMismatch(f"tuple lengths differ: {self.g} vs {other.g}")
        out = np.zeros(
            (self.g, self.rows + other.rows, self.cols + other.cols), dtype=complex
        )
        out[:, : self.rows, : self.cols] = self.data
        out[:, self.rows :, self.cols :] = other.data
        return MatrixTuple(out)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.data)))


def point_data(point) -> np.ndarray:
    """The entries of a point argument: the (g, n, m) data of a MatrixTuple, or
    a stack of s points given as one (s, g, n, m) array (s may be 0)."""
    if isinstance(point, MatrixTuple):
        return point.data
    points = np.asarray(point, dtype=complex)
    if points.ndim != 4:
        raise ShapeMismatch(f"expected a tuple or an (s, g, n, m) stack, got ndim={points.ndim}")
    return points


def like_point(point, data):
    """data, of the shape point_data(point) gives, as a MatrixTuple when point is one."""
    return MatrixTuple(data) if isinstance(point, MatrixTuple) else data


def _pencil(coeffs: MatrixTuple, point) -> np.ndarray:
    """pencil_eval's value, unchecked."""
    x = point_data(point)
    g, d, e = coeffs.data.shape
    *lead, h, n, m = x.shape
    if g != h:
        raise TupleLengthMismatch(f"tuple lengths differ: {g} coefficients vs {h} point slots")
    prod = coeffs.data.reshape(g, d * e).T @ x.reshape(*lead, g, n * m)
    if n < BLOCK_LEVEL:  # one copy into block order; a row loop costs more at small n
        return prod.reshape(*lead, d, e, n, m).swapaxes(-3, -2).reshape(*lead, d * n, e * m)
    # block order in place: each coefficient row (e, n, m) -> (n, e, m) through one buffer
    rows = prod.reshape(*lead, d, e * n * m)
    row = np.empty((*lead, e, n, m), dtype=complex)
    for i in range(d):
        row[...] = rows[..., i, :].reshape(*lead, e, n, m)
        rows[..., i, :].reshape(*lead, n, e, m)[...] = row.swapaxes(-3, -2)
    return prod.reshape(*lead, d * n, e * m)


def pencil_eval(coeffs: MatrixTuple, point) -> np.ndarray:
    """Evaluate the linear pencil sum_j coeffs[j] (x) point[j].

    For d x e coefficients and n x m points the result is dn x em, computed
    as one matrix product over j followed by a transpose into block order.
    At a stack of points (see point_data) it is the (s, dn, em) stack of
    their pencils, from one batched product whose items are the single
    point's product, so each pencil has the bits of a one-point call.
    Raises DomainBreach when the product has an entry that is not finite.
    """
    lam = _pencil(coeffs, point)
    if not np.isfinite(lam).all():
        raise DomainBreach("the pencil overflows at this point")
    return lam


def hermitian_pencil(coeffs: MatrixTuple, point) -> np.ndarray:
    """Monic Hermitian pencil I + pencil + pencil*; exactly Hermitian as formed,
    since entry (i, k) adds the same two terms as the conjugate of entry (k, i).
    One per point of a stack. Raises DomainBreach when the sum has an entry
    that is not finite, as it has wherever the pencil has one."""
    x = point_data(point)
    if not (coeffs.is_square and x.shape[-2] == x.shape[-1]):
        raise NotSquare("hermitian pencils need square coefficient and point tuples")
    return _add_adjoint(_pencil(coeffs, point), x.shape[-1], monic=True)


def _add_adjoint(lam, n: int, monic: bool) -> np.ndarray:
    """lam + lam*, or I + lam + lam* when monic, formed in lam's buffer (from
    level n = BLOCK_LEVEL on one pair of n x n blocks at a time) with the bits
    of the whole-matrix sum. Raises DomainBreach when a sum is not finite."""
    k = lam.shape[-1]
    n = n if n >= BLOCK_LEVEL else k  # a block loop costs more at small n
    if monic:
        lam += 0.0  # -0.0 + 0.0 is 0.0, as adding the identity's zeros made it
    for p in range(0, k, n):
        for q in range(p, k, n):
            upper, lower = lam[..., p : p + n, q : q + n], lam[..., q : q + n, p : p + n]
            upper_h = upper.conj().swapaxes(-2, -1)  # a copy: the sums read lam
            if monic and p == q:
                np.einsum("...ii->...i", upper)[...] += 1.0
            upper += upper_h if p == q else lower.conj().swapaxes(-2, -1)
            if p != q:
                lower += upper_h
    if not np.isfinite(lam).all():
        raise DomainBreach("the pencil overflows at this point")
    return lam


def _inverse(m) -> np.ndarray:
    """np.linalg.inv of each matrix of m, NaN for an exactly singular one.
    LAPACK refuses a whole stack for one singular matrix, so then each matrix
    of the stack is inverted on its own."""
    try:
        return np.linalg.inv(m)
    except np.linalg.LinAlgError:
        return np.array([_inverse(item) for item in m]) if m.ndim > 2 else np.full_like(m, np.nan)


def _block_inverse(m, cuts) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of each matrix of a stack m (..., k, k) that is block upper
    triangular on the diagonal blocks m[a:b, a:b] of consecutive cuts a < b,
    and its 1-norm condition number. Block back-substitution from the last
    block: inv_ii = D_i^-1 and inv_i,>i = -D_i^-1 m_i,>i inv_>i,>i; a diagonal
    block equal (over the whole stack) to one already inverted reuses its
    inverse. One block is one np.linalg.inv(m). A matrix with an exactly
    singular diagonal block is singular: its block inverse is NaN (see
    _inverse), so is its condition number, and that reads as infinite.
    With more than one block the inverse overwrites m, which is zero below
    its diagonal blocks: row block a of m is last read as the inverse's is written.
    """
    k = m.shape[-1]
    m_norm = np.abs(m).sum(axis=-2).max(axis=-1)  # before m is overwritten
    if len(cuts) == 2:
        inv = _inverse(m)
    else:
        inv = m
        known = []  # (a copy of a diagonal block, its inverse)
        for a, b in reversed(list(zip(cuts[:-1], cuts[1:]))):
            block = m[..., a:b, a:b]
            block_inv = next((v for u, v in known if np.array_equal(u, block)), None)
            if block_inv is None:
                block_inv = _inverse(block)
                known.append((block.copy(), block_inv))
            if b < k:
                rest = m[..., a:b, b:] @ inv[..., b:, b:]
                inv[..., a:b, b:] = block_inv @ np.negative(rest, out=rest)
            inv[..., a:b, a:b] = block_inv
        del known, rest  # not held beside the norm's temporary below
    cond = m_norm * np.abs(inv).sum(axis=-2).max(axis=-1)
    return inv, np.where(np.isnan(cond), np.inf, cond)


def _diagonal_cuts(coeffs: MatrixTuple) -> list[int]:
    """Cuts 0 < ... < d of the finest block upper-triangular partition shared
    by a tuple of square d x d coefficients: k is a cut when every
    coeffs[j][k:, :k] is exactly zero."""
    nonzero = np.any(coeffs.data != 0, axis=0)
    d = len(nonzero)
    return [0, *(k for k in range(1, d) if not nonzero[k:, :k].any()), d]


def resolvent(coeffs: MatrixTuple, point, factor: float, what: str) -> np.ndarray:
    """The certified inverse of the monic pencil I + factor * lam, with
    lam = pencil_eval(coeffs, point). The monic pencil is formed in lam's
    buffer, and on the block path below inverted there too.

    At levels n >= BLOCK_LEVEL the pencil is block upper triangular on the
    n-fold _diagonal_cuts of the coefficients, and it is inverted block by
    block; the certificate is the same condition number of the assembled
    inverse. Raises NotSquare for a rectangular point and DomainBreach when
    lam overflows (see pencil_eval) or when the 1-norm condition number
    ||m||_1 ||m^-1||_1 of the pencil m (infinite for an exactly singular m)
    reaches COND_LIMIT.

    At a stack of points (see point_data) the inverses come as a stack, each
    item with the bits of a one-point call, and each item is certified on
    its own: nothing is raised for a point a one-point call would refuse,
    and its inverse is NaN instead.
    """
    x = point_data(point)
    if x.shape[-2] != x.shape[-1]:
        raise NotSquare("maps are evaluated at square matrix tuples")
    stacked = x.ndim == 4
    m = _pencil(coeffs, point) if stacked else pencil_eval(coeffs, point)
    m *= factor
    m += 0.0  # -0.0 + 0.0 is 0.0, as adding the identity's zeros made it
    np.einsum("...ii->...i", m)[...] += 1.0
    n = x.shape[-1]
    cuts = [n * k for k in _diagonal_cuts(coeffs)] if n >= BLOCK_LEVEL else [0, m.shape[-1]]
    inv, cond = _block_inverse(m, cuts)
    refused = ~(cond < COND_LIMIT)
    if stacked:  # an item whose pencil overflows has an infinite cond
        inv[refused] = np.nan
    elif refused:
        raise DomainBreach(f"{what} is numerically singular (cond {float(cond):.3e})")
    return inv


def operator_norm(m):
    """Largest singular value; of each matrix of a stack (..., rows, cols),
    as an array, each with the bits of a one-matrix call."""
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2:
        raise ShapeMismatch(f"expected a 2-d matrix, got ndim={m.ndim}")
    if m.shape[-2] == 0 or m.shape[-1] == 0:
        norms = np.zeros(m.shape[:-2])
    else:  # np.linalg.norm(m, 2), bit for bit
        norms = np.linalg.svd(m, compute_uv=False)[..., 0]
    return float(norms) if m.ndim == 2 else norms


def kernel_basis(m, tol: float = DEFAULT_TOL) -> list[np.ndarray]:
    """Orthonormal basis of the numerical kernel.

    Right singular vectors whose singular value is at most tol * sigma_max;
    sigma_max = 0 yields the full space. tol must be finite and at least 0.
    """
    check_tol(tol)
    m = _as_complex_matrix(m)
    _, s, vh = np.linalg.svd(m, full_matrices=True)
    smax = s[0] if s.size else 0.0
    kept = np.ones(len(vh), dtype=bool)  # the rows of vh past s span ker too
    kept[: s.size] = s <= tol * smax
    return list(vh[kept].conj())


class OrthonormalSpan:
    """A growing span in C^dim kept as orthonormal rows q. Vectors join by
    classical Gram-Schmidt run twice, which keeps q orthonormal to working
    precision ("twice is enough"; Giraud, Langou and Rozloznik, Comput. Math.
    Appl. 50 (2005)). The rows and their conjugates live in two buffers that
    double when full, up to dim rows, so no call conjugates the span; q views
    its filled rows, so later joins leave an earlier q as it was."""

    def __init__(self, dim: int):
        self.q = self._qc = self._rows = self._conj = np.empty((0, dim), dtype=complex)

    def add(self, vec, floor: float) -> np.ndarray | None:
        """Append and return the unit remainder of vec against the span, or
        return None when the remainder's norm is at or below floor or the span
        is already the whole space (its remainder is rounding noise)."""
        v = np.array(vec, dtype=complex).reshape(-1)
        q, n = self.q, len(self.q)
        if n == v.size:
            return None
        for _ in range(2 if n else 0):  # on an empty span both passes subtract exact zeros
            v -= (self._qc @ v) @ q  # coefficients q_i^H v
        norm = math.sqrt(v.real @ v.real + v.imag @ v.imag)  # np.linalg.norm's, bit for bit
        if norm <= floor:
            return None
        unit = v / norm  # its own array: callers keep it without pinning the buffer
        if n == len(self._rows):
            self._rows, self._conj = np.empty((2, min(v.size, max(1, 2 * n)), v.size), dtype=complex)
            self._rows[:n], self._conj[:n] = q, self._qc
        self._rows[n] = unit
        np.conjugate(unit, out=self._conj[n])
        self.q, self._qc = self._rows[: n + 1], self._conj[: n + 1]
        return unit

    def add_rows(self, rows, floor: float) -> list[np.ndarray | None]:
        """What one add(row, floor) per row returns, in order, leaving the same q.
        One Gram-Schmidt pass screens the rows against the span, and each joiner
        is removed from the later screened rows by a rank-1 update. A row whose
        screened remainder is strictly below floor / 2 is skipped (floor = 0
        skips none): both remainders lie within about dim * u * ||row|| of the
        exact one (u the unit roundoff), so for the unit rows and floors the
        package uses such a row would fail add too."""
        rows = np.asarray(rows, dtype=complex)
        units = [None] * len(rows)
        if len(self.q) == rows.shape[-1]:
            return units  # the whole space: add returns None for every row
        rest = rows - (rows @ self._qc.T) @ self.q if len(self.q) else rows.copy()
        for i, row in enumerate(rows):
            screened = math.sqrt(np.vdot(rest[i], rest[i]).real)
            if screened < floor / 2 or (unit := self.add(row, floor)) is None:
                continue
            units[i] = unit
            if len(self.q) == len(row):
                break  # the whole space: add returns None for every later row
            after = rest[i + 1 :]
            after -= (after @ unit.conj())[:, None] * unit
        return units

    def project(self, rows) -> tuple[np.ndarray, np.ndarray]:
        """Coordinates q_i^H v of each row v against the span, one row of them
        per input row, and the norm of what is left of each row."""
        rows = np.asarray(rows, dtype=complex)
        coords = rows @ self._qc.T
        rest = coords @ self.q
        np.subtract(rows, rest, out=rest)  # one temporary the size of rows, not two
        return coords, np.sqrt(np.einsum("ij,ij->i", rest.view(float), rest.view(float)))


def is_nilpotent(B: MatrixTuple, tol: float = DEFAULT_TOL) -> bool:
    """Whether the multiplicative algebra generated by B is nilpotent.

    Grows the flag K_0 = 0, K_{k+1} = ker [(I - P_k P_k*) B_j]_j (P_k an
    orthonormal basis of K_k) of the vectors that all words of length k + 1
    kill, one SVD of the stacked gd x d matrix a step, until it reaches C^d
    (nilpotent) or stops growing (not). Generators are scaled to unit
    operator norm, so tol, the largest singular value counted as kernel, is
    scale-free; those at most tol times the largest norm count as zero.
    Raises ValueError unless tol is finite and at least 0, and DomainBreach
    when a norm overflows or a generator does when scaled to unit norm.
    """
    if not B.is_square:
        raise NotSquare("nilpotency is defined for square tuples")
    check_tol(tol)
    d = B.rows
    norms = operator_norm(B.data)
    keep = norms > tol * np.max(norms)
    gens = B.data[keep] / norms[keep, None, None]
    if not (np.isfinite(norms).all() and np.isfinite(gens).all()):
        raise DomainBreach("the tuple overflows when scaled to unit norm")
    basis = np.zeros((d, 0), dtype=complex)  # P_k: orthonormal columns spanning K_k
    while True:
        rest = gens - basis @ (basis.conj().T @ gens)
        _, s, vh = np.linalg.svd(rest.reshape(-1, d), full_matrices=False)
        rank = int(np.count_nonzero(s > tol))
        if rank == 0 or d - rank <= basis.shape[1]:  # <=: a kernel shrunk in rounding stops too
            return rank == 0
        basis = vh[rank:].conj().T
