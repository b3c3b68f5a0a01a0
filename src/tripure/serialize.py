"""JSON interchange files for states, density matrices and grid wavefunctions.

One document per file with a ``kind`` discriminator.  Complex numbers are
written as ``[re, im]`` pairs; vectors in flat order, matrices row-major as
arrays of rows.  Every float is emitted with 17 significant digits so a
write-read cycle reproduces doubles bit for bit (except that a negative
zero real part reads back as +0.0), and the writer is fully deterministic:
identical objects serialize to identical bytes.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import ContractError
from .states import DensityMatrix, Dims, PureState
from .tomography import GridWavefunction

KIND_PURE = "pure_state"
KIND_DENSITY = "density_matrix"
KIND_GRID = "grid_wavefunction"


def _data_text(a: np.ndarray) -> str:
    """Canonical text of a complex vector (one pair per line) or matrix (one row per line).

    ``"%.16e"`` gives 17 significant digits, an exact round trip for IEEE
    doubles, and is filled in one pass over all the floats.
    """
    pair = "[%.16e, %.16e]"
    line = "    " + (pair if a.ndim == 1 else "[" + ", ".join([pair] * a.shape[1]) + "]")
    floats = np.stack([a.real, a.imag], -1).ravel().tolist()
    return "[\n" + ",\n".join([line] * a.shape[0]) % tuple(floats) + "\n  ]"


def dumps(obj: PureState | DensityMatrix | GridWavefunction) -> str:
    """Serialize a supported object to its canonical JSON text."""
    if isinstance(obj, PureState):
        kind, data = KIND_PURE, obj.amplitudes
        header = [("dims", json.dumps(obj.dims.as_tuple()))]
    elif isinstance(obj, DensityMatrix):
        kind, data = KIND_DENSITY, obj.matrix
        header = [("dims", json.dumps(obj.dims)), ("subsystems", json.dumps(obj.subsystems))]
    elif isinstance(obj, GridWavefunction):
        kind, data = KIND_GRID, obj.values
        spacings = "[%.16e, %.16e, %.16e]" % obj.spacings
        header = [("dims", json.dumps(obj.shape)), ("spacings", spacings)]
    else:
        raise ContractError(f"cannot serialize {type(obj).__name__}")
    fields = [("kind", json.dumps(kind)), *header, ("data", _data_text(data))]
    return "{\n" + ",\n".join(f'  "{key}": {text}' for key, text in fields) + "\n}\n"


def write_matrix_file(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj))


def _as_complex(data, ndim: int) -> np.ndarray:
    """Complex vector (``ndim`` 1) or matrix (``ndim`` 2) from nested ``[re, im]`` pairs."""
    arr = np.asarray(data, dtype=float)
    if arr.ndim != ndim + 1 or arr.shape[-1] != 2:
        raise ContractError(f"data has shape {arr.shape}, expected ({'n, ' * ndim}2)")
    return arr[..., 0] + 1j * arr[..., 1]


def _reject_constant(token: str):
    raise ContractError(f"non-finite number {token} is not allowed")


def loads(text: str) -> PureState | DensityMatrix | GridWavefunction:
    """Parse canonical JSON text back into the corresponding object.

    ``NaN``, ``Infinity`` and ``-Infinity``, which Python's json module
    accepts by default, are rejected as ContractError.
    """
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ContractError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ContractError("top-level JSON value must be an object")
    kind = doc.get("kind")
    try:
        # Sizes and spacings go to the constructors as parsed; they reject
        # anything but positive integers and positive finite reals, and
        # check the data's shape against them.
        if kind == KIND_PURE:
            dims = Dims(*doc["dims"])
            return PureState(dims, _as_complex(doc["data"], 1))
        if kind == KIND_DENSITY:
            subsystems = tuple(str(s) for s in doc["subsystems"])
            return DensityMatrix(subsystems, doc["dims"], _as_complex(doc["data"], 2))
        if kind == KIND_GRID:
            return GridWavefunction(doc["dims"], doc["spacings"], _as_complex(doc["data"], 1))
    except KeyError as exc:
        raise ContractError(f"missing required key {exc}") from exc
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ContractError):
            raise
        raise ContractError(f"malformed document: {exc}") from exc
    raise ContractError(f"unknown kind {kind!r}")


def read_matrix_file(path) -> PureState | DensityMatrix | GridWavefunction:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ContractError(f"cannot read {path}: {exc}") from exc
    return loads(text)
