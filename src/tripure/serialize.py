"""JSON interchange files for states, density matrices and grid wavefunctions.

One document per file with a ``kind`` discriminator.  Complex numbers are
written as ``[re, im]`` pairs; vectors in flat order, matrices row-major as
arrays of rows.  Every float is emitted with 17 significant digits so a
write-read cycle reproduces doubles bit for bit, signed zeros included,
and the writer is fully deterministic: identical objects serialize to
identical bytes.

Number text is most of the cost of a large file, so both directions
convert each number once.  A density matrix holds each off-diagonal
number twice, rho_ji = conj(rho_ij): when the two triangles are bitwise
conjugates, the writer formats only the upper one and writes each
mirrored pair from its partner's text.  The reader parses a data block
in exactly the writer's layout, every number in the writer's
``d.ddd...e+dd`` shape, as flat arrays of numbers converted by orjson, a
chunk of rows at a time; any other text takes the general nested parse
by ``json``, with the same results and the same errors.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import ContractError
from .states import DensityMatrix, Dims, PureState, _array
from .tomography import GridWavefunction

KIND_PURE = "pure_state"
KIND_DENSITY = "density_matrix"
KIND_GRID = "grid_wavefunction"


def _is_mirror(a: np.ndarray) -> bool:
    """Whether complex square ``a`` has a strict lower triangle bitwise equal to conj(a.T)'s."""
    lower = np.tril_indices(len(a), -1)
    return np.array_equal(a[lower].view(np.uint64), a.T[lower].conj().view(np.uint64))


def _mirrored_text(a: np.ndarray) -> str:
    """``_data_text`` of a matrix that ``_is_mirror`` accepts, formatting only its upper triangle.

    The upper-triangle pairs are filled in one ``%`` pass.  Row i left of
    the diagonal is the text of column i above it with the sign of each
    imaginary part toggled: negation flips only the sign bit, and for a
    finite ``y`` ``"%.16e" % -y == "-" + "%.16e" % y``, so the bytes are
    those of formatting every float.
    """
    n = len(a)
    values = a[np.triu_indices(n)]
    cells = "\n".join(["[%.16e, %.16e]"] * len(values)) % tuple(
        np.stack([values.real, values.imag], -1).ravel().tolist()
    )
    cells = np.array(cells.split("\n"), dtype=object)
    # row i's cells (i, i), ..., (i, n - 1) start at first[i]; (j, i) is at first[j] + i - j
    first = np.concatenate(([0], np.cumsum(np.arange(n, 1, -1))))
    rows = ["[\n    [" + ", ".join(cells[:n])]
    for i in range(1, n):
        above = "\n".join(cells[first[:i] + i - np.arange(i)])
        # ", -" before every imaginary part, then "--" (only ever a doubled sign) cancels
        left = above.replace(", ", ", -").replace("--", "").replace("\n", ", ")
        rows.append(left + ", " + ", ".join(cells[first[i] : first[i] + n - i]))
    del cells
    rows[-1] += "]\n  ]"
    return "],\n    [".join(rows)


def _data_text(a: np.ndarray) -> str:
    """Canonical text of a complex vector (one pair per line) or matrix (one row per line).

    ``"%.16e"`` gives 17 significant digits, an exact round trip for IEEE
    doubles.  A conjugate-symmetric matrix (``_is_mirror``) is written by
    ``_mirrored_text``; anything else is filled in one pass over all its
    floats.  Both give the same bytes.
    """
    if a.ndim == 2 and a.dtype == complex and a.shape[0] == a.shape[1] and _is_mirror(a):
        return _mirrored_text(a)
    pair = "[%.16e, %.16e]"
    line = "    " + (pair if a.ndim == 1 else "[" + ", ".join([pair] * a.shape[1]) + "]")
    floats = np.stack([a.real, a.imag], -1).ravel().tolist()
    return ("[\n" + ",\n".join([line] * a.shape[0]) + "\n  ]") % tuple(floats)


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
    head = "".join(f'  "{key}": {text},\n' for key, text in [("kind", json.dumps(kind)), *header])
    # one join, so the data text is copied once
    return "".join(["{\n", head, '  "data": ', _data_text(data), "\n}\n"])


def write_matrix_file(path, obj) -> None:
    """Write ``dumps(obj)`` to ``path``.

    The text is made before the file is opened, so an object that cannot be
    serialized leaves the file as it was.
    """
    text = dumps(obj)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _as_complex(data, ndim: int) -> np.ndarray:
    """Complex vector (``ndim`` 1) or matrix (``ndim`` 2) from nested ``[re, im]`` pairs.

    Each pair is reinterpreted as one complex, so both parts keep their
    bits; ``re + 1j * im`` would turn a ``-0.0`` real part into ``+0.0``.
    """
    arr = _array("data", data, dtype=float)
    if arr.ndim != ndim + 1 or arr.shape[-1] != 2:
        raise ContractError(f"data has shape {arr.shape}, expected ({'n, ' * ndim}2)")
    return np.ascontiguousarray(arr).view(complex)[..., 0]


def _reject_constant(token: str):
    raise ContractError(f"non-finite number {token} is not allowed")


# The data block of ``dumps``' text lies between these.  Its skeleton, the
# block without digits and signs, is one line per row joined by ",\n":
# ``_VECTOR_LINE`` for a vector, or ``_PAIR`` repeated inside a pair of
# brackets for a matrix.  Each slot keeps the writer's "." and "e", so an
# integer token (which orjson reads as a float beyond int64, where json
# gives an int) or an "E" exponent leaves the layout.
_DATA_OPEN = ',\n  "data": [\n'
_DATA_CLOSE = "\n  ]\n}\n"
_NUMBER_CHARS = b"0123456789+-"
_VECTOR_LINE = b"    [.e, .e]"
_PAIR = b"[.e, .e]"
_BRACKETS_TO_SPACES = str.maketrans("[]", "  ")
# Whole rows of about this many characters are parsed at a time, so no
# temporary is the size of the file.
_CHUNK_CHARS = 1 << 16


def _flat_document(text: str) -> dict | None:
    """``json.loads(text)``, ``data`` as an array, when the data has ``dumps``' layout, else None.

    The layout holds when the block's skeleton is the canonical one for its
    row and pair count; every slot between separators is then one token of
    the nested array, with one "." and one "e", so a float to both parsers.
    The header is parsed by json with ``"data": null``, and the numbers, a
    chunk of whole rows at a time, by orjson as flat JSON arrays with the
    brackets mapped to spaces, so every token is still validated as JSON
    and converted as ``float()`` converts it.  Mapped, not deleted: a stray
    digit after a bracket must not run into the exponent before it.  Any
    other text, and any failure here (orjson also refuses a token that
    overflows to infinity), gives None, and the nested parse then reports
    the text as it always has.
    """
    start = text.find(_DATA_OPEN)
    if start < 0 or not text.endswith(_DATA_CLOSE) or not text.isascii():
        return None
    pos, end = start + len(_DATA_OPEN), len(text) - len(_DATA_CLOSE)
    cut = text.find(",\n", pos, end)
    line = text[pos : end if cut < 0 else cut].encode("ascii").translate(None, _NUMBER_CHARS)
    if line == _VECTOR_LINE:
        shape = (-1, 2)
    else:
        shape = (-1, line.count(_PAIR), 2)
        line = b"    [" + b", ".join([_PAIR] * shape[1]) + b"]"
    if shape[1] == 0:
        return None
    import orjson  # not at module import: it raised lopsided peak_rss_mb 80.4 -> 93.5 MB

    try:
        doc = json.loads(text[:start] + ', "data": null}', parse_constant=_reject_constant)
        chunks = []
        while pos <= end:
            cut = text.find(",\n", min(pos + _CHUNK_CHARS, end), end)
            cut = end if cut < 0 else cut
            chunk = text[pos:cut]
            skeleton = chunk.encode("ascii").translate(None, _NUMBER_CHARS)
            if skeleton != b",\n".join([line] * (skeleton.count(b"\n") + 1)):
                return None
            chunks.append(np.array(orjson.loads("[" + chunk.translate(_BRACKETS_TO_SPACES) + "]")))
            if chunks[-1].dtype != float:  # a guard: the skeleton already admits floats only
                return None
            pos = cut + 2
    except (ValueError, RecursionError):  # the nested parse meets the fault and reports it
        return None
    doc["data"] = np.concatenate(chunks).reshape(shape)
    return doc


def loads(text: str) -> PureState | DensityMatrix | GridWavefunction:
    """Parse canonical JSON text back into the corresponding object.

    Text whose data block has ``dumps``' layout is parsed by
    ``_flat_document``, anything else by one nested ``json.loads``; both
    give the same object, or the same error.  ``NaN``, ``Infinity`` and
    ``-Infinity``, which Python's json module accepts by default, are
    rejected as ContractError.
    """
    doc = _flat_document(text)
    if doc is None:
        try:
            doc = json.loads(text, parse_constant=_reject_constant)
        except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
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
    except (OSError, UnicodeDecodeError) as exc:
        raise ContractError(f"cannot read {path}: {exc}") from exc
    return loads(text)
