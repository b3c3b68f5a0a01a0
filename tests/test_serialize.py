import json

import numpy as np
import pytest

from tripure import (
    ContractError,
    DensityMatrix,
    Dims,
    PureState,
    normalize_grid,
    partial_trace,
    sample_haar_state,
)
from tripure.serialize import dumps, loads, read_matrix_file, write_matrix_file
from tripure.tomography import build_profile


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
    grid = normalize_grid(
        (1, 2, 2), (0.5, 0.25, 2.0), np.array([1.0, 1j, -1.0 / 3, 0.5 - 0.5j])
    )
    return [(psi, GOLDEN_PURE), (rho, GOLDEN_DENSITY), (grid, GOLDEN_GRID)]


GOLDEN_IDS = ["pure_state", "density_matrix", "grid"]


class TestGoldenBytes:
    @pytest.mark.parametrize("obj, text", golden_objects(), ids=GOLDEN_IDS)
    def test_dumps_text(self, obj, text):
        assert dumps(obj) == text

    @pytest.mark.parametrize("obj, text", golden_objects(), ids=GOLDEN_IDS)
    def test_reread_writes_same_values(self, obj, text):
        back = loads(text)
        assert type(back) is type(obj)
        # the reader builds re + 1j * im, which turns a negative zero real
        # part into +0.0; every other value is written again unchanged
        positive = text.replace("-0.0000000000000000e+00", "0.0000000000000000e+00")
        assert dumps(back) == positive

    def test_negative_zero_reads_back_positive(self):
        back = loads(GOLDEN_PURE)
        assert np.copysign(1.0, back.amplitudes[0].real) == 1.0
        assert back.amplitudes[1].imag == 5e-324
