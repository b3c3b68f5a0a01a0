"""JSON interchange files for states, density matrices and grid wavefunctions.

One document per file with a ``kind`` discriminator.  Complex numbers are
written as ``[re, im]`` pairs; vectors in flat order, matrices row-major as
arrays of rows.  Every float is emitted with 17 significant digits so a
write-read cycle reproduces doubles bit for bit, and the writer is fully
deterministic: identical objects serialize to identical bytes.
"""

from __future__ import annotations

import json
from io import StringIO

import numpy as np

from .errors import ContractError
from .states import DensityMatrix, Dims, PureState
from .tomography import GridWavefunction

KIND_PURE = "pure_state"
KIND_DENSITY = "density_matrix"
KIND_GRID = "grid_wavefunction"


def _fmt(x: float) -> str:
    # 17 significant digits: exact round trip for IEEE doubles.
    return format(float(x), ".16e")


def _pair(z: complex) -> str:
    return f"[{_fmt(z.real)}, {_fmt(z.imag)}]"


def _write_vector(out: StringIO, vec: np.ndarray, indent: str) -> None:
    out.write("[\n")
    for idx, z in enumerate(vec):
        sep = "," if idx + 1 < len(vec) else ""
        out.write(f"{indent}  {_pair(z)}{sep}\n")
    out.write(f"{indent}]")


def _write_matrix(out: StringIO, mat: np.ndarray, indent: str) -> None:
    out.write("[\n")
    for r, row in enumerate(mat):
        row_txt = ", ".join(_pair(z) for z in row)
        sep = "," if r + 1 < len(mat) else ""
        out.write(f"{indent}  [{row_txt}]{sep}\n")
    out.write(f"{indent}]")


def dumps(obj: PureState | DensityMatrix | GridWavefunction) -> str:
    """Serialize a supported object to its canonical JSON text."""
    out = StringIO()
    out.write("{\n")
    if isinstance(obj, PureState):
        out.write(f'  "kind": "{KIND_PURE}",\n')
        out.write(f'  "dims": {list(obj.dims.as_tuple())},\n')
        out.write('  "data": ')
        _write_vector(out, obj.amplitudes, "  ")
    elif isinstance(obj, DensityMatrix):
        out.write(f'  "kind": "{KIND_DENSITY}",\n')
        out.write(f'  "dims": {list(obj.dims)},\n')
        out.write(f'  "subsystems": {json.dumps(list(obj.subsystems))},\n')
        out.write('  "data": ')
        _write_matrix(out, obj.matrix, "  ")
    elif isinstance(obj, GridWavefunction):
        out.write(f'  "kind": "{KIND_GRID}",\n')
        out.write(f'  "dims": {list(obj.shape)},\n')
        out.write(f'  "spacings": [{", ".join(_fmt(h) for h in obj.spacings)}],\n')
        out.write('  "data": ')
        _write_vector(out, obj.values, "  ")
    else:
        raise ContractError(f"cannot serialize {type(obj).__name__}")
    out.write("\n}\n")
    return out.getvalue()


def write_matrix_file(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj))


def _as_complex_vector(data) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ContractError(f"data has shape {arr.shape}, expected (n, 2)")
    return arr[:, 0] + 1j * arr[:, 1]


def _as_complex_matrix(data) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise ContractError(f"data has shape {arr.shape}, expected (n, n, 2)")
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
        # Sizes go to the constructors as parsed; they reject anything but
        # positive integers, and check the data's shape against them.
        if kind == KIND_PURE:
            dims = Dims(*doc["dims"])
            return PureState(dims, _as_complex_vector(doc["data"]))
        if kind == KIND_DENSITY:
            subsystems = tuple(str(s) for s in doc["subsystems"])
            return DensityMatrix(subsystems, doc["dims"], _as_complex_matrix(doc["data"]))
        if kind == KIND_GRID:
            spacings = tuple(float(h) for h in doc["spacings"])
            return GridWavefunction(doc["dims"], spacings, _as_complex_vector(doc["data"]))
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
