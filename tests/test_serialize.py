import json

import numpy as np
import pytest

from tripure import ContractError, Dims, partial_trace, sample_haar_state
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


class TestNonFinite:
    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_loads_rejects_non_finite_tokens(self, token):
        doc = json.loads(dumps(sample_haar_state(Dims(2, 2, 2), 3)))
        doc["data"][0][0] = token
        text = json.dumps(doc).replace(f'"{token}"', token)
        with pytest.raises(ContractError, match="non-finite"):
            loads(text)
