"""JSON payloads for matrix tuples, matrices, verdicts and certificates.

Complex scalars travel as two-element [re, im] arrays; matrix entries are
row-major. Parsing rejects ragged arrays, and both directions refuse non-finite numbers.
"""

from __future__ import annotations

import json
import math
from itertools import chain
from pathlib import Path

import numpy as np

from .genericity import GenericityCertificate
from .linalg import MatrixTuple


class JsonFormatError(Exception):
    """Raised when a payload does not match the documented schema."""


def _pairs(a) -> list:
    """Nested lists of [re, im] floats, shaped like the complex array a."""
    return np.stack([a.real, a.imag], -1).tolist()


def _entry(value, where: str) -> complex:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)
    ):
        raise JsonFormatError(f"{where}: complex entries must be [re, im] numbers")
    try:
        re, im = float(value[0]), float(value[1])
    except OverflowError as err:  # an integer beyond float range
        raise JsonFormatError(f"{where}: entry out of float range") from err
    if not (math.isfinite(re) and math.isfinite(im)):
        raise JsonFormatError(f"{where}: non-finite entry")
    return complex(re, im)


def _well_formed(rows: int, cols: int, payload) -> np.ndarray | None:
    """The matrix of a payload of row lists of finite int/float [re, im] pairs, else None."""
    if type(payload) is not list or set(map(type, payload)) != {list}:
        return None
    pairs = list(chain.from_iterable(payload))
    if not set(map(type, pairs)) <= {list, tuple}:
        return None
    if not set(map(type, chain.from_iterable(pairs))) <= {int, float}:
        return None
    try:
        parts = np.array(payload, dtype=float)
    except (ValueError, OverflowError):
        return None
    if parts.shape != (rows, cols, 2) or not np.isfinite(parts).all():
        return None
    return parts.view(complex)[..., 0]


def _entries(rows: int, cols: int, payload, where: str) -> np.ndarray:
    out = _well_formed(rows, cols, payload)
    if out is not None:
        return out
    # walk the payload entry by entry to name the first defect
    if not isinstance(payload, list) or len(payload) != rows:
        raise JsonFormatError(f"{where}: expected {rows} rows")
    # allocate from the rows read, not from the declared shape, which may be huge
    walked = []
    for r, row in enumerate(payload):
        if not isinstance(row, list) or len(row) != cols:
            raise JsonFormatError(f"{where}: row {r} must have {cols} entries")
        walked.append([_entry(value, f"{where}[{r}][{c}]") for c, value in enumerate(row)])
    return np.array(walked, dtype=complex)


def _dim(obj, key: str, where: str) -> int:
    value = obj.get(key)
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise JsonFormatError(f"{where}: '{key}' must be a positive integer")
    return value


def matrix_to_obj(m) -> dict:
    m = np.asarray(m, dtype=complex)
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "entries": _pairs(m)}


def obj_to_matrix(obj, where: str = "matrix") -> np.ndarray:
    if not isinstance(obj, dict):
        raise JsonFormatError(f"{where}: expected an object")
    rows = _dim(obj, "rows", where)
    cols = _dim(obj, "cols", where)
    return _entries(rows, cols, obj.get("entries"), f"{where}.entries")


def tuple_to_obj(t: MatrixTuple) -> dict:
    return {"g": t.g, "rows": t.rows, "cols": t.cols, "matrices": _pairs(t.data)}


def obj_to_tuple(obj, where: str = "tuple") -> MatrixTuple:
    if not isinstance(obj, dict):
        raise JsonFormatError(f"{where}: expected an object")
    g = _dim(obj, "g", where)
    rows = _dim(obj, "rows", where)
    cols = _dim(obj, "cols", where)
    mats = obj.get("matrices")
    if not isinstance(mats, list) or len(mats) != g:
        raise JsonFormatError(f"{where}: 'matrices' must list exactly g={g} matrices")
    data = np.stack(
        [_entries(rows, cols, m, f"{where}.matrices[{j}]") for j, m in enumerate(mats)]
    )
    return MatrixTuple(data)


def certificate_to_obj(cert: GenericityCertificate) -> dict:
    def points(items):
        return [
            {"point": _pairs(kp.point), "kernel_vector": _pairs(kp.kernel_vector)} for kp in items
        ]

    return {
        "alphas": points(cert.alphas),
        "betas": points(cert.betas),
        "hyperbasis_margin": float(cert.hyperbasis_margin),
        "basis_margin": float(cert.basis_margin),
        "trials_used": cert.trials_used,
        "seed": cert.seed,
    }


def load_document(path):
    """Parse a JSON file, reporting line/column on malformed input."""
    text = Path(path).read_text()
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise JsonFormatError(f"{path}:{err.lineno}:{err.colno}: {err.msg}") from err


def dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ": "), allow_nan=False)
