"""JSON interchange files for states, density matrices and grid wavefunctions.

One document per file with a ``kind`` discriminator.  Complex numbers are
written as ``[re, im]`` pairs; vectors in flat order, matrices row-major as
arrays of rows.  Every float is emitted with 17 significant digits so a
write-read cycle reproduces doubles bit for bit, signed zeros included,
and the writer is fully deterministic: identical objects serialize to
identical bytes.

Number text is most of the cost of a large file, so both directions
convert each number once, in numpy.  The writer formats a block of floats
at a time: a float whose 17 digits one extended-precision product
certifies, and every zero, is laid out from digit tables, and every
other float (subnormals, very small or large magnitudes, non-finite
values, near-ties) by ``"%.16e"`` itself, so the bytes are those of
formatting every float with ``"%.16e"``.  Where ``long double`` has no
64-bit significand every nonzero float takes ``"%.16e"``: the same bytes,
slower.  The reader parses a data block in exactly the writer's layout,
every number in the writer's ``d.ddd...e+dd`` shape, as flat arrays of
numbers converted by orjson, a chunk of rows at a time; any other text
takes the general nested parse by ``json``, with the same results and
the same errors.

Every file a command writes goes through ``_replacing``: a target is
either left as it was or holds the whole new text.  A data file is
written a block of rows at a time as it is formatted.
"""

from __future__ import annotations

import itertools
import json
import os
import stat
from collections.abc import Iterable, Iterator
from contextlib import contextmanager, suppress

import numpy as np

from .errors import ContractError
from .states import DensityMatrix, Dims, PureState, _array
from .tomography import GridWavefunction

KIND_PURE = "pure_state"
KIND_DENSITY = "density_matrix"
KIND_GRID = "grid_wavefunction"


# ``"%.16e" % v`` is "d.ddd...e+kk": the 17 digits D = round(|v| * 10^(16-k))
# with k = floor(log10 |v|), where D = 10^17 would carry to 10^16 and k + 1.  For
# 1e-11 <= |v| < 1e17, 10^(16-k) is exact in a long double with a 64-bit
# significand, and the product y = |v| * 10^(16-k), rounded once to it, is
# within 10^17 * u of the exact one (u = eps / 2, the unit roundoff).  So
# D = rint(y) unless y is that close to a half-integer.  Zeros are exact
# (D = 0, k = 0).  Every other float without this certificate (subnormals,
# |v| outside the range, non-finite values and near-ties) is formatted by
# ``"%.16e"`` itself: the certificate only picks which exact method writes
# a float.  Without such a long double every nonzero float takes ``"%.16e"``.
_LONG = np.finfo(np.longdouble)
_TIE_BAND = 1e17 * float(_LONG.eps) / 2 if _LONG.nmant == 63 else np.inf
_K_MIN, _K_MAX = -11, 16
# 10^0 .. 10^27, each an exact product of exact powers
_POW10 = np.cumprod(np.r_[1, np.full(16 - _K_MIN, 10)].astype(np.longdouble))
# ASCII "0000" .. "9999"; "d.", unsigned then signed; "e-11" .. "e+17": one uint32 each
_QUADS = (np.arange(10**4)[:, None] // [1000, 100, 10, 1] % 10 + ord("0")).astype(np.uint8)
_QUADS = _QUADS.view(np.uint32).ravel()
_HEADS = np.frombuffer(b"".join(b"%c%d.\0" % (s, i) for s in b"\0-" for i in range(10)), np.uint32)
_EXPONENTS = np.frombuffer(b"".join(b"e%+03d" % k for k in range(_K_MIN, _K_MAX + 2)), np.uint32)
_SPACE_TO_NUL = bytes.maketrans(b" ", b"\0")
# Each float is a field of 6 uint32 words (24 bytes, the longest "%.16e"
# text), zero-padded; zero bytes are deleted once per block.
_FIELD = 6
# At most this many cells, whole rows, are formatted at a time.
_BLOCK_CELLS = 1 << 14


def _certify(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(certified, D, k)`` for the floats ``x``: where certified, ``"%.16e"`` gives D and k."""
    a = np.abs(x)
    fast = (a >= 10.0**_K_MIN) & (a < 10.0 ** (_K_MAX + 1))  # False for nan
    a = np.where(fast, a, 1.0)
    k = np.floor(np.log10(a)).astype(np.int64)  # off by one near a power of ten
    a = a.astype(np.longdouble)
    y = a * _POW10[np.clip(16 - k, 0, len(_POW10) - 1)]
    d = y.astype(np.int64)  # floor(y)
    off = np.flatnonzero((d < 10**16) | (d >= 10**17))
    if len(off):
        k[off] += np.where(d[off] < 10**16, -1, 1)
        y[off] = a[off] * _POW10[np.clip(16 - k[off], 0, len(_POW10) - 1)]
        d[off] = y[off].astype(np.int64)
        fast[off] &= (d[off] >= 10**16) & (d[off] < 10**17)
    frac = (y - d).astype(float)  # exact: y has at most 10 bits below the point
    fast &= (k >= _K_MIN) & (k <= _K_MAX) & (np.abs(frac - 0.5) > _TIE_BAND)
    d += frac > 0.5
    fast &= d < 10**17  # a carry; no double in the range rounds up to one
    zero = x == 0  # exact: "%.16e" writes +-0.0 as +-0.0000000000000000e+00
    d[zero] = k[zero] = 0
    return fast | zero, d, k


def _float_fields(x: np.ndarray) -> np.ndarray:
    """``"%.16e" % v`` for each float of ``x``, as rows of ``_FIELD`` zero-padded uint32 words."""
    certified, d, k = _certify(x)
    lead = d // 10**16
    high, low = np.divmod(d - lead * 10**16, 10**8)
    fields = np.empty((len(x), _FIELD), np.uint32)
    fields[:, 0] = _HEADS[lead + 10 * np.signbit(x)]
    fields[:, 1:5] = _QUADS[np.stack([high // 10**4, high % 10**4, low // 10**4, low % 10**4], -1)]
    fields[:, 5] = _EXPONENTS[np.clip(k - _K_MIN, 0, len(_EXPONENTS) - 1)]
    slow = np.flatnonzero(~certified)
    if len(slow):
        text = ("%-24.16e" * len(slow)) % tuple(x[slow].tolist())
        text = text.encode("ascii").translate(_SPACE_TO_NUL)
        fields[slow] = np.frombuffer(text, np.uint32).reshape(-1, _FIELD)
    return fields


def _data_pieces(a: np.ndarray) -> Iterator[str]:
    """Yield the canonical text of a complex vector (a pair per line) or matrix (a row per line).

    Each block of at most ``_BLOCK_CELLS`` cells, whole rows, is laid out
    as rows of uint32 words: ",\n    " (and "[" for a matrix), then per
    entry a cell of 15 words, "[re, im]" with each float a ``_float_fields``
    field, then the separator.  Every gap is zero bytes, deleted once per
    block; the very first row also drops its ",".
    """
    gap = b"\0" * 4 * _FIELD
    cell = b"[\0\0\0" + gap + b", \0\0" + gap
    if a.ndim == 1:
        cols, line = 1, b",\n    \0\0" + cell + b"]\0\0\0"
    else:
        cols = a.shape[1]
        line = b",\n    [\0" + (cell + b"], \0") * (cols - 1) + cell + b"]]\0\0"
    template = np.frombuffer(line, np.uint32)
    step = max(1, _BLOCK_CELLS // cols)
    yield "["
    for start in range(0, a.shape[0], step):
        block = np.ascontiguousarray(a[start : start + step], dtype=complex)
        fields = _float_fields(block.view(float).reshape(-1)).reshape(len(block), cols, 2, _FIELD)
        rows = np.empty((len(block), len(template)), np.uint32)
        rows[:] = template
        cells = rows[:, 2:].reshape(len(block), cols, 2 * _FIELD + 3)
        cells[:, :, 1 : 1 + _FIELD] = fields[:, :, 0]
        cells[:, :, 2 + _FIELD : 2 + 2 * _FIELD] = fields[:, :, 1]
        if start == 0:
            rows.view(np.uint8)[0, 0] = 0
        yield rows.tobytes().translate(None, b"\0").decode("ascii")
    yield "\n  ]"


def _data_text(a: np.ndarray) -> str:
    """The whole of ``_data_pieces(a)``."""
    return "".join(_data_pieces(a))


def _pieces(obj: PureState | DensityMatrix | GridWavefunction) -> Iterator[str]:
    """The canonical JSON text of a supported object, as an iterator of ``str`` pieces."""
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
    return itertools.chain(["{\n", head, '  "data": '], _data_pieces(data), ["\n}\n"])


def dumps(obj: PureState | DensityMatrix | GridWavefunction) -> str:
    """Serialize a supported object to its canonical JSON text."""
    return "".join(_pieces(obj))


@contextmanager
def _replacing():
    """Yield ``stage(path, text)``; when the block ends, every staged text replaces its target.

    ``text`` is a ``str`` or an iterable of ``str`` pieces, written in turn.
    ``stage`` writes the text to a new file beside the target, created with
    ``O_EXCL`` and mode ``0o666`` so the umask applies as for
    ``open(path, "w")``; an existing regular target passes on its
    permission bits.  A symlink is resolved, so the link survives.  Only
    when the block ends without an exception does each new file
    ``os.replace`` its target; on any exception the new files are removed
    and every target keeps its bytes.  A target that exists and is not a
    regular file (``/dev/stdout``, a FIFO) is written in place when staged.
    Nothing is synced to disk: a failed write or a killed process leaves
    no partial target, a power loss may.
    """
    staged: list[tuple[str, str]] = []

    def stage(path, text: str | Iterable[str]) -> None:
        pieces = [text] if isinstance(text, str) else text
        try:
            mode = os.stat(path).st_mode
        except FileNotFoundError:
            mode = None
        if mode is not None and not stat.S_ISREG(mode):
            with open(path, "w", encoding="utf-8") as fh:
                fh.writelines(pieces)
            return
        target = os.path.realpath(path)
        head, tail = os.path.split(target)
        temp = os.path.join(head, f".{tail}.{os.urandom(6).hex()}.tmp")
        fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        staged.append((temp, target))
        with open(fd, "w", encoding="utf-8") as fh:
            if mode is not None:
                os.fchmod(fd, stat.S_IMODE(mode))
            fh.writelines(pieces)

    try:
        yield stage
        for temp, target in staged:
            os.replace(temp, target)
    except BaseException:
        for temp, _ in staged:
            with suppress(OSError):
                os.remove(temp)
        raise


def write_matrix_file(path, obj) -> None:
    """Write ``dumps(obj)`` to ``path`` through ``_replacing``.

    The data block is written a block of rows at a time as it is
    formatted, so no string the size of the file is made.  An object that
    cannot be serialized is refused before any file is created, and a
    failed write leaves ``path`` as it was.
    """
    with _replacing() as stage:
        stage(path, _pieces(obj))


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
