import decimal
import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripure import (
    ContractError,
    DensityMatrix,
    Dims,
    PureState,
    normalize_grid,
    partial_trace,
    sample_haar_state,
)
from tripure import serialize
from tripure.serialize import dumps, loads, read_matrix_file, write_matrix_file
from tripure.tomography import build_profile

from conftest import haar, peak_bytes
from oracles import data_text_every_float


class TestRoundTrip:
    def test_pure_state_bitwise(self):
        psi = sample_haar_state(Dims(2, 3, 4), 12)
        back = loads(dumps(psi))
        np.testing.assert_array_equal(back.amplitudes, psi.amplitudes)
        assert back.dims == psi.dims

    def test_density_matrix_bitwise(self):
        rho = partial_trace(sample_haar_state(Dims(2, 3, 4), 13), ("A", "B"))
        back = loads(dumps(rho))
        np.testing.assert_array_equal(back.matrix, rho.matrix)
        assert back.subsystems == rho.subsystems
        assert back.dims == rho.dims

    def test_grid_bitwise(self):
        psi = build_profile("correlated", (4, 4, 4))
        back = loads(dumps(psi))
        np.testing.assert_array_equal(back.values, psi.values)
        assert back.spacings == psi.spacings

    def test_write_read_files(self, tmp_path):
        psi = sample_haar_state(Dims(2, 2, 2), 14)
        path = tmp_path / "state.json"
        write_matrix_file(path, psi)
        back = read_matrix_file(path)
        np.testing.assert_array_equal(back.amplitudes, psi.amplitudes)

    def test_awkward_values_bitwise(self):
        # values with no short decimal representation must still survive
        amps = np.array([1 / 3, 1 / 7, np.sqrt(2) / 3, 0.5], dtype=complex)
        amps[1] += 1j / 11
        amps = amps / np.linalg.norm(amps)
        psi = sample_haar_state(Dims(2, 2, 1), 0)
        psi = type(psi)(Dims(2, 2, 1), amps)
        back = loads(dumps(psi))
        np.testing.assert_array_equal(back.amplitudes, psi.amplitudes)


class TestFormat:
    def test_deterministic_bytes(self):
        psi = sample_haar_state(Dims(2, 2, 2), 15)
        assert dumps(psi) == dumps(psi)

    def test_seventeen_significant_digits(self):
        psi = sample_haar_state(Dims(2, 2, 2), 16)
        doc = json.loads(dumps(psi))
        assert doc["kind"] == "pure_state"
        assert doc["dims"] == [2, 2, 2]
        assert len(doc["data"]) == 8
        # every float is emitted in full 17-digit scientific notation
        for token in dumps(psi).splitlines():
            if "e+" in token or "e-" in token:
                assert "." in token

    def test_valid_json(self):
        rho = partial_trace(sample_haar_state(Dims(2, 2, 2), 17), ("B", "C"))
        doc = json.loads(dumps(rho))
        assert doc["kind"] == "density_matrix"
        assert doc["subsystems"] == ["B", "C"]
        assert len(doc["data"]) == 4 and len(doc["data"][0]) == 4


class TestErrors:
    def test_not_json(self):
        with pytest.raises(ContractError):
            loads("this is not json")

    def test_unknown_kind(self):
        with pytest.raises(ContractError):
            loads('{"kind": "wigner_function", "data": []}')

    def test_missing_key(self):
        with pytest.raises(ContractError):
            loads('{"kind": "pure_state", "dims": [2, 2, 2]}')

    def test_inconsistent_length(self):
        doc = {"kind": "pure_state", "dims": [2, 2, 2], "data": [[1.0, 0.0]] * 4}
        with pytest.raises(ContractError):
            loads(json.dumps(doc))

    def test_invalid_payload_fails_type_invariants(self):
        doc = {"kind": "pure_state", "dims": [2, 2, 2], "data": [[1.0, 0.0]] * 8}
        with pytest.raises(ContractError):
            loads(json.dumps(doc))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ContractError):
            read_matrix_file(tmp_path / "absent.json")

    def test_failed_write_keeps_the_file(self, tmp_path):
        path = tmp_path / "state.json"
        write_matrix_file(path, sample_haar_state(Dims(2, 2, 2), 18))
        before = path.read_bytes()
        with pytest.raises(ContractError, match="cannot serialize str"):
            write_matrix_file(path, "junk")
        assert path.read_bytes() == before


class TestStringData:
    """Numbers written as JSON strings or booleans are refused, as in dims and spacings."""

    @pytest.mark.parametrize(
        "doc",
        [
            {"kind": "pure_state", "dims": [1, 1, 1], "data": [["1e0", "0"]]},
            {"kind": "pure_state", "dims": [1, 1, 2], "data": [["1", "0"], [0.0, 0.0]]},
            {"kind": "density_matrix", "dims": [1], "subsystems": ["A"],
             "data": [[["1e0", "0"]]]},
            {"kind": "grid_wavefunction", "dims": [1, 1, 1], "spacings": [1, 1, 1],
             "data": [["1", "0"]]},
            {"kind": "pure_state", "dims": [1, 1, 1], "data": [[True, False]]},
            {"kind": "density_matrix", "dims": [1], "subsystems": ["A"],
             "data": [[[True, False]]]},
        ],
        ids=["pure_state", "pure_state-one-entry", "density_matrix", "grid_wavefunction",
             "pure_state-bool", "density_matrix-bool"],
    )
    def test_loads_refuses_string_numbers(self, doc):
        numeric = json.loads(json.dumps(doc).replace('"1e0"', "1.0").replace('"1"', "1.0")
                             .replace('"0"', "0.0").replace("true", "1.0")
                             .replace("false", "0.0"))
        loads(json.dumps(numeric))  # loads with the numbers unquoted
        with pytest.raises(ContractError, match="data must be numeric, got list"):
            loads(json.dumps(doc))

    def test_shape_message_is_kept(self):
        doc = {"kind": "pure_state", "dims": [1, 1, 1], "data": [[1.0, 0.0, 0.0]]}
        with pytest.raises(ContractError, match=r"data has shape \(1, 3\), expected \(n, 2\)"):
            loads(json.dumps(doc))


class TestNonFinite:
    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_loads_rejects_non_finite_tokens(self, token):
        doc = json.loads(dumps(sample_haar_state(Dims(2, 2, 2), 3)))
        doc["data"][0][0] = token
        text = json.dumps(doc).replace(f'"{token}"', token)
        with pytest.raises(ContractError, match="non-finite"):
            loads(text)


# Each malformed size next to the dims that int() would have turned it into;
# the data always fits those dims, so only the size check can refuse it.
MALFORMED_DIMS = [
    ([True, 2, 4], (1, 2, 4)),
    ([2.9, 2, 2], (2, 2, 2)),
    (["2", "2", "2"], (2, 2, 2)),
]


def document_with_dims(kind, good, bad):
    psi = sample_haar_state(Dims(*good), 5)
    if kind == "pure_state":
        obj = psi
    elif kind == "density_matrix":
        obj, good, bad = partial_trace(psi, ("A", "B")), good[:2], bad[:2]
    else:
        obj = normalize_grid(good, (1.0, 1.0, 1.0), psi.amplitudes)
    doc = json.loads(dumps(obj))
    assert doc["kind"] == kind and doc["dims"] == list(good)
    loads(json.dumps(doc))  # loads with the well-formed dims
    doc["dims"] = bad
    return json.dumps(doc)


class TestMalformedSpacings:
    @pytest.mark.parametrize("bad", [[True, "1.0", 1], [1, True, 1], [1.0, "1.0", 1.0]])
    def test_loads_rejects_without_coercion(self, bad):
        psi = sample_haar_state(Dims(2, 2, 2), 5)
        doc = json.loads(dumps(normalize_grid((2, 2, 2), (1.0, 1.0, 1.0), psi.amplitudes)))
        loads(json.dumps(doc))  # loads with the well-formed spacings
        doc["spacings"] = bad
        with pytest.raises(ContractError, match="must be a positive finite real"):
            loads(json.dumps(doc))


class TestMalformedDims:
    @pytest.mark.parametrize("kind", ["pure_state", "density_matrix", "grid_wavefunction"])
    @pytest.mark.parametrize("bad, good", MALFORMED_DIMS)
    def test_loads_rejects_without_coercion(self, kind, bad, good):
        with pytest.raises(ContractError, match="must be a positive integer"):
            loads(document_with_dims(kind, good, bad))

    def test_numpy_integer_dims_write_plain_json(self):
        psi = sample_haar_state(Dims(np.int64(2), np.int64(1), np.int64(3)), 5)
        assert loads(dumps(psi)).dims == Dims(2, 1, 3)


# The canonical layout, pinned byte for byte: a negative zero and a
# subnormal in a pure state, a 2x2 density matrix and a small grid.
GOLDEN_PURE = """{
  "kind": "pure_state",
  "dims": [1, 1, 2],
  "data": [
    [-0.0000000000000000e+00, 5.9999999999999998e-01],
    [8.0000000000000004e-01, 4.9406564584124654e-324]
  ]
}
"""

GOLDEN_DENSITY = """{
  "kind": "density_matrix",
  "dims": [2],
  "subsystems": ["A"],
  "data": [
    [[7.5000000000000000e-01, 0.0000000000000000e+00], [2.5000000000000000e-01, -1.2500000000000000e-01]],
    [[2.5000000000000000e-01, 1.2500000000000000e-01], [2.5000000000000000e-01, 0.0000000000000000e+00]]
  ]
}
"""

# Real-valued: its imaginary parts are +0.0 on both sides of the diagonal,
# so it is not a bitwise mirror and takes the writer's plain path.
GOLDEN_REAL_DENSITY = """{
  "kind": "density_matrix",
  "dims": [3],
  "subsystems": ["A"],
  "data": [
    [[5.0000000000000000e-01, 0.0000000000000000e+00], [1.2500000000000000e-01, 0.0000000000000000e+00], [0.0000000000000000e+00, 0.0000000000000000e+00]],
    [[1.2500000000000000e-01, 0.0000000000000000e+00], [2.9999999999999999e-01, 0.0000000000000000e+00], [-6.2500000000000000e-02, 0.0000000000000000e+00]],
    [[0.0000000000000000e+00, 0.0000000000000000e+00], [-6.2500000000000000e-02, 0.0000000000000000e+00], [2.0000000000000001e-01, 0.0000000000000000e+00]]
  ]
}
"""

GOLDEN_GRID = """{
  "kind": "grid_wavefunction",
  "dims": [1, 2, 2],
  "spacings": [5.0000000000000000e-01, 2.5000000000000000e-01, 2.0000000000000000e+00],
  "data": [
    [1.2377054955105520e+00, 0.0000000000000000e+00],
    [0.0000000000000000e+00, 1.2377054955105520e+00],
    [-4.1256849850351729e-01, 0.0000000000000000e+00],
    [6.1885274775527599e-01, -6.1885274775527599e-01]
  ]
}
"""


def golden_objects():
    psi = PureState(Dims(1, 1, 2), np.array([complex(-0.0, 0.6), complex(0.8, 5e-324)]))
    rho = DensityMatrix(("A",), (2,), np.array([[0.75, 0.25 - 0.125j], [0.25 + 0.125j, 0.25]]))
    real = DensityMatrix(
        ("A",), (3,), np.array([[0.5, 0.125, 0.0], [0.125, 0.3, -0.0625], [0.0, -0.0625, 0.2]])
    )
    grid = normalize_grid(
        (1, 2, 2), (0.5, 0.25, 2.0), np.array([1.0, 1j, -1.0 / 3, 0.5 - 0.5j])
    )
    return [
        (psi, GOLDEN_PURE),
        (rho, GOLDEN_DENSITY),
        (real, GOLDEN_REAL_DENSITY),
        (grid, GOLDEN_GRID),
    ]


GOLDEN_IDS = ["pure_state", "density_matrix", "real_density_matrix", "grid"]


class TestGoldenBytes:
    @pytest.mark.parametrize("obj, text", golden_objects(), ids=GOLDEN_IDS)
    def test_dumps_text(self, obj, text):
        assert dumps(obj) == text

    @pytest.mark.parametrize("obj, text", golden_objects(), ids=GOLDEN_IDS)
    def test_reread_writes_same_values(self, obj, text):
        back = loads(text)
        assert type(back) is type(obj)
        # every value, a negative zero real part included, is written again unchanged
        assert dumps(back) == text

    def test_density_goldens_pin_both_writer_paths(self):
        objects = dict(zip(GOLDEN_IDS, (obj for obj, _ in golden_objects())))
        assert serialize._is_mirror(objects["density_matrix"].matrix)
        assert not serialize._is_mirror(objects["real_density_matrix"].matrix)

    def test_negative_zero_reads_back_negative(self):
        back = loads(GOLDEN_PURE)
        assert np.copysign(1.0, back.amplitudes[0].real) == -1.0
        assert back.amplitudes[1].imag == 5e-324
        assert dumps(loads(GOLDEN_PURE)) == GOLDEN_PURE


# Bit patterns a mirrored pair must carry through its sign toggle: signed
# zeros, subnormals, the extremes of the normal range and plain values.
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1.7976931348623157e308,
               1.0, -1.0 / 3, 0.1, 123456.789]
FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def square_matrices(draw):
    """(matrix, is bitwise mirror): conjugate-symmetric, real-valued or perturbed."""
    n = draw(st.integers(1, 6))
    parts = draw(st.lists(FLOATS, min_size=2 * n * n, max_size=2 * n * n))
    a = np.array(parts[: n * n]).reshape(n, n) + 1j * np.array(parts[n * n :]).reshape(n, n)
    kind = draw(st.sampled_from(["mirror", "real", "perturbed"]))
    if kind == "real":
        return a.real + 0j, n == 1
    lower = np.tril_indices(n, -1)
    a[lower] = a.T[lower].conj()  # np.conj negates: flips only the sign bit
    if kind == "perturbed" and n > 1:
        k = draw(st.integers(0, len(lower[0]) - 1))
        i, j = lower[0][k], lower[1][k]
        # the same value but another bit pattern: the sign of a zero, or the next float
        flip = draw(st.sampled_from(["real", "imag"]))
        part = a[i, j].real if flip == "real" else a[i, j].imag
        moved = -part if part == 0.0 else np.nextafter(part, np.inf)
        a[i, j] = complex(moved, a[i, j].imag) if flip == "real" else complex(a[i, j].real, moved)
        return a, False
    return a, True


class TestWriterDifferential:
    """The mirrored writer writes the bytes of formatting every float."""

    @settings(max_examples=200)
    @given(case=square_matrices())
    def test_matrix_text_equals_every_float_layout(self, case):
        a, mirror = case
        assert serialize._is_mirror(a) == mirror
        assert serialize._data_text(a) == data_text_every_float(a)

    @settings(max_examples=50)
    @given(values=st.lists(st.tuples(FLOATS, FLOATS), min_size=1, max_size=8))
    def test_vector_text_equals_every_float_layout(self, values):
        a = np.array([complex(re, im) for re, im in values])
        assert serialize._data_text(a) == data_text_every_float(a)

    @pytest.mark.parametrize("dims, keep", [((2, 3, 4), ("A", "B")), ((3, 3, 3), ("B", "C")),
                                            ((2, 2, 1), ("A",)), ((4, 8, 2), ("B", "C"))])
    def test_dumps_of_a_marginal(self, dims, keep):
        rho = partial_trace(sample_haar_state(Dims(*dims), 21), keep)
        assert serialize._is_mirror(rho.matrix)
        header = (f'{{\n  "kind": "density_matrix",\n  "dims": {json.dumps(rho.dims)},\n'
                  f'  "subsystems": {json.dumps(rho.subsystems)},\n  "data": ')
        assert dumps(rho) == header + data_text_every_float(rho.matrix) + "\n}\n"


def read_outcome(text, flat=True, chunk=None):
    """What ``loads`` makes of ``text``: the object's fields and data bytes, or the error.

    With ``flat=False`` the flat reader is switched off, so every text takes
    the nested parse.  ``chunk`` sets the characters the flat reader parses
    at a time, so that a small text spans several chunks.
    """
    with pytest.MonkeyPatch.context() as mp:
        if not flat:
            mp.setattr(serialize, "_flat_document", lambda text: None)
        if chunk is not None:
            mp.setattr(serialize, "_CHUNK_CHARS", chunk)
        try:
            obj = loads(text)
        except Exception as exc:
            return type(exc), str(exc)
    data = {PureState: "amplitudes", DensityMatrix: "matrix"}.get(type(obj), "values")
    fields = {k: v for k, v in vars(obj).items() if k != data and not k.startswith("_")}
    return type(obj), repr(fields), getattr(obj, data).tobytes()


def canonical_texts():
    """Texts as ``dumps`` writes them: each kind, vectors and matrices of several sizes."""
    psi = haar(2, 1, 3, 31)
    objects = [
        psi,
        haar(1, 1, 1, 32),
        partial_trace(psi, ("A", "B")),
        partial_trace(psi, ("C",)),
        partial_trace(haar(3, 2, 1, 33), ("A", "B")),
        normalize_grid((1, 2, 2), (0.5, 0.25, 2.0), np.array([1.0, 1j, -1.0 / 3, 0.5 - 0.5j])),
    ]
    return [dumps(obj) for obj in objects] + [text for _, text in golden_objects()]


CANONICAL = canonical_texts()
# Digits, the other characters of numbers, the skeleton's characters and a constant.
MUTATIONS = list("0123456789+-.eE[], \n") + ["NaN"]


def mutated(text, edits):
    """``text`` with each (position, op, token) edit applied, last position first."""
    for pos, op, token in sorted(edits, reverse=True):
        pos %= len(text)
        if op == "replace":
            text = text[:pos] + token + text[pos + 1 :]
        elif op == "insert":
            text = text[:pos] + token + text[pos:]
        else:
            text = text[:pos] + text[pos + 1 :]
    return text


# The flat reader's chunk size, and one that splits every canonical text
# into several chunks.
CHUNKS = [serialize._CHUNK_CHARS, 40]
EDITS = st.tuples(st.integers(0, 10**6), st.sampled_from(["replace", "insert", "delete"]),
                  st.sampled_from(MUTATIONS))


class TestReaderDifferential:
    """The flat reader gives the nested parse's object, or its error class and message."""

    @pytest.mark.parametrize("chunk", CHUNKS)
    @pytest.mark.parametrize("text", CANONICAL)
    def test_canonical_texts_take_the_flat_path(self, text, chunk):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(serialize, "_CHUNK_CHARS", chunk)
            assert serialize._flat_document(text) is not None
        assert read_outcome(text, chunk=chunk) == read_outcome(text, flat=False)

    @pytest.mark.parametrize("chunk", CHUNKS)
    @settings(max_examples=300)
    @given(index=st.integers(0, len(CANONICAL) - 1), edits=st.lists(EDITS, min_size=1, max_size=2))
    def test_mutated_texts(self, chunk, index, edits):
        text = mutated(CANONICAL[index], edits)
        assert read_outcome(text, chunk=chunk) == read_outcome(text, flat=False)

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_every_single_edit_of_a_density_block(self, chunk):
        text = GOLDEN_DENSITY
        start = text.index('"data"')
        for pos in range(start, len(text)):
            edits = [(pos, op, token) for op in ("replace", "insert") for token in MUTATIONS]
            for edit in edits + [(pos, "delete", "")]:
                edited = mutated(text, [edit])
                assert read_outcome(edited, chunk=chunk) == read_outcome(edited, flat=False), edited

    @pytest.mark.parametrize("data", [
        "[\n    []\n  ]", "[\n    [[]]\n  ]", "[\n    [[]],\n    [[]]\n  ]", "[\n\n  ]", "[\n  ]",
        "[\n    [, ]\n  ]", "[\n    [1.0, 0.0],\n\n  ]", "[\n    [[1.0, 0.0]],\n\n  ]",
        "[\n    [1.0, 0.0],\n  ]", "[\n    [[1.0, 0.0]],\n  ]", "[\n    [1.0, 0.\u00e9]\n  ]",
        "[\n    [[1.0, 0.0]],\n    [[1.0, \u00e9]]\n  ]",
        # a trailing comma just past the end of a 40-character chunk
        "[\n" + "    [1.0, 0.0],\n" * 3 + "\n  ]", "[\n" + "    [[1.0, 0.0]],\n" * 3 + "\n  ]",
    ])
    @pytest.mark.parametrize("kind", ["pure_state", "density_matrix"])
    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_blocks_off_the_layout(self, chunk, kind, data):
        # empty rows and slots, trailing commas, characters outside ASCII
        header = '{\n  "kind": "%s",\n  "dims": [1, 1, 1],\n  "subsystems": ["A"],\n' % kind
        text = header + '  "data": ' + data + "\n}\n"
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(serialize, "_CHUNK_CHARS", chunk)
            assert serialize._flat_document(text) is None
        assert read_outcome(text, chunk=chunk) == read_outcome(text, flat=False)

    def test_header_outside_ascii(self):
        text = GOLDEN_DENSITY.replace('["A"]', '["\u00c4"]')
        assert serialize._flat_document(text) is None
        assert read_outcome(text) == read_outcome(text, flat=False)

    def test_digit_after_a_bracket_is_not_merged_into_an_exponent(self):
        # the skeleton of "...e+00]9]" is canonical, but deleting the
        # brackets instead of spacing them would read "e+009"
        text = GOLDEN_DENSITY.replace("e+00]]\n  ]", "e+00]9]\n  ]")
        assert text != GOLDEN_DENSITY
        assert serialize._flat_document(text) is None
        with pytest.raises(ContractError, match="not valid JSON"):
            loads(text)

    @pytest.mark.parametrize("token", [
        "1", "-0", "1E5", "1" * 400, "1e999",
        # around int64 and uint64, and beyond both
        "9" * 19, "1" + "0" * 19, "-" + "9" * 19, "1" * 20, "-" + "1" * 20, "2" * 25, "-" + "3" * 25,
        "1" * 30, "1.0e999",
    ])
    def test_integer_and_overflowing_numbers(self, token):
        text = GOLDEN_PURE.replace("8.0000000000000004e-01", token)
        assert read_outcome(text) == read_outcome(text, flat=False)
        every = GOLDEN_PURE
        for number in ("-0.0000000000000000e+00", "5.9999999999999998e-01",
                       "8.0000000000000004e-01", "4.9406564584124654e-324"):
            every = every.replace(number, token)
        assert read_outcome(every) == read_outcome(every, flat=False)

    # Only "d.ddd...e+dd" tokens are floats to both json and orjson; and
    # orjson refuses a token that overflows, which json reads as inf.
    @pytest.mark.parametrize("token", ["1", "-0", "1" * 25, "1E5", "1.0E+05", "1e5", "1.0",
                                       "1.0e999"])
    def test_tokens_off_the_writer_shape_leave_the_flat_path(self, token):
        text = GOLDEN_PURE.replace("8.0000000000000004e-01", token)
        assert serialize._flat_document(text) is None


def float_tokens(seed=5, count=4000):
    """Tokens in the writer's "d.ddd...e+dd" shape that ``float()`` must read exactly.

    Random finite bit patterns (subnormals included) at 16, 17 and 25
    fraction digits, the exact decimal midpoints between neighbouring
    doubles (up to ~770 digits, where round-half-even decides) and their
    neighbours one unit in the last digit away, and random decimals of
    2-40 digits over the whole exponent range, underflow to zero included.
    """
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 1 << 64, size=count, dtype=np.uint64)
    bits[: count // 8] &= np.uint64((1 << 52) - 1) | np.uint64(1 << 63)  # subnormals
    values = bits.view(float)
    values = values[np.isfinite(values)]
    tokens = [fmt % v for fmt in ("%.16e", "%.17e", "%.25e") for v in values.tolist()]
    context = decimal.Context(prec=2000)
    for v in values[:400].tolist() + [0.0, 5e-324, 2.2250738585072014e-308, 1.0, 0.1]:
        after = math.nextafter(v, math.inf)
        if not math.isfinite(after):
            continue
        mid = context.divide(context.add(decimal.Decimal(v), decimal.Decimal(after)), 2)
        unit = decimal.Decimal((0, (1,), mid.as_tuple().exponent))
        for shifted in (mid, context.add(mid, unit), context.subtract(mid, unit)):
            tokens.append(format(shifted, ".%de" % max(1, len(shifted.as_tuple().digits) - 1)))
    for _ in range(2000):
        digits = "".join(rng.choice(list("0123456789"), size=int(rng.integers(2, 41))))
        sign = "-" if rng.integers(2) else ""
        tokens.append(f"{sign}{digits[0]}.{digits[1:]}e{int(rng.integers(-345, 308)):+03d}")
    return tokens


class TestFloatConversion:
    """orjson, the flat reader's kernel, converts every token as ``float()`` does."""

    def test_bitwise_equal_to_float(self):
        tokens = float_tokens()
        if len(tokens) % 2:
            tokens.append("1.0e+00")
        assert all(np.isfinite([float(t) for t in tokens]))
        rows = ",\n".join("    [%s, %s]" % pair for pair in zip(tokens[::2], tokens[1::2]))
        text = '{\n  "kind": "pure_state",\n  "dims": [1, 1, 1],\n  "data": [\n' + rows + "\n  ]\n}\n"
        doc = serialize._flat_document(text)
        assert doc is not None
        expected = np.array([float(t) for t in tokens])
        assert np.array_equal(doc["data"].ravel().view(np.uint64), expected.view(np.uint64))


def test_importing_the_cli_does_not_import_orjson():
    # the bulk reader imports orjson where it runs, so a process that
    # never reads a data file does not carry it
    code = "import sys, tripure.cli; print('orjson' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


class TestMemoryPeak:
    """Traced peaks of a 512 x 512 Haar marginal's file, byte counts on any machine.

    Each bound is the measured peak plus 2 MiB; the writer and reader that
    formatted and parsed every number at once peaked at 41.5 and 60.8 MiB.
    """

    MIB = 1 << 20

    @pytest.fixture(scope="class")
    def marginal(self):
        return partial_trace(haar(8, 64, 8, 41), ("A", "B"))

    def test_write(self, marginal, tmp_path):
        path = tmp_path / "ab.json"
        assert peak_bytes(lambda: write_matrix_file(path, marginal)) <= 30.1 * self.MIB

    def test_read(self, marginal, tmp_path):
        path = tmp_path / "ab.json"
        write_matrix_file(path, marginal)
        assert peak_bytes(lambda: read_matrix_file(path)) <= 29.4 * self.MIB
