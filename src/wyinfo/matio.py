"""JSON interchange for Hermitian matrices.

Wire format: {"n": int, "re": [[float; n]; n], "im": [[float; n]; n]}.
Readers validate the structural invariants of the requested type and raise
InvariantViolation naming the violated invariant.
"""

from __future__ import annotations

import json
from itertools import chain

import numpy as np

from .errors import InvariantViolation
from .linalg import assert_density, assert_tangent


def matrix_to_obj(a) -> dict:
    a = np.asarray(a, dtype=complex)
    return {
        "n": int(a.shape[0]),
        "re": [[float(v) for v in row] for row in a.real],
        "im": [[float(v) for v in row] for row in a.imag],
    }


def _numeric_grid(obj: dict, key: str) -> np.ndarray:
    """obj[key] as floats.  Every entry must be a JSON number: numpy would also
    convert the strings "0.5" and false, and bool is an int subclass, so the
    types themselves are checked."""
    grid = obj[key]
    other = set(map(type, chain.from_iterable(grid))) - {int, float}
    if other:
        names = ", ".join(sorted(t.__name__ for t in other))
        raise TypeError(f"'{key}' holds {names} entries, not JSON numbers")
    return np.asarray(grid, dtype=float)


def obj_to_matrix(obj) -> np.ndarray:
    if not isinstance(obj, dict):
        raise InvariantViolation("schema", "matrix object must be a JSON object")
    try:
        n = obj["n"]
        re, im = _numeric_grid(obj, "re"), _numeric_grid(obj, "im")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvariantViolation("schema", f"expected keys n/re/im with numeric grids: {exc}")
    # n must be a JSON integer: 2.0 and true equal 2 and 1, so its type is checked
    if type(n) is not int or re.shape != (n, n) or im.shape != (n, n):
        raise InvariantViolation("schema", f"re/im shapes {re.shape}/{im.shape} != ({n!r}, {n!r})")
    return re + 1j * im


def _load_obj(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InvariantViolation("file", str(exc))
    except json.JSONDecodeError as exc:
        raise InvariantViolation("json", f"{path}: {exc}")


def load_density(path: str) -> np.ndarray:
    return assert_density(obj_to_matrix(_load_obj(path)), name=path)


def load_tangent(path: str) -> np.ndarray:
    return assert_tangent(obj_to_matrix(_load_obj(path)), name=path)
