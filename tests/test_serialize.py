import decimal
import fractions
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
from tripure.tomography import GridWavefunction, build_profile

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

    def test_top_level_array(self):
        with pytest.raises(ContractError) as caught:
            loads("[1, 2]")
        assert str(caught.value) == "top-level JSON value must be an object"

    def test_scalar_dims(self):
        doc = {"kind": "pure_state", "dims": 5, "data": [[1.0, 0.0]]}
        with pytest.raises(ContractError) as caught:
            loads(json.dumps(doc))
        assert type(caught.value) is ContractError
        assert str(caught.value).startswith("malformed document: ")

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


class TestReplacing:
    """``_replacing`` puts every staged text in place at the end of its block, or none."""

    def test_every_target_replaced_at_the_end(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text("old a")
        with serialize._replacing() as stage:
            stage(a, "new a")
            stage(b, "new b")
            assert a.read_text() == "old a" and not b.exists()
        assert (a.read_text(), b.read_text()) == ("new a", "new b")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json", "b.json"]

    def test_an_exception_leaves_every_target(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text("old a")
        with pytest.raises(KeyboardInterrupt):
            with serialize._replacing() as stage:
                stage(a, "new a")
                stage(b, "new b")
                raise KeyboardInterrupt
        assert a.read_text() == "old a"
        assert [p.name for p in tmp_path.iterdir()] == ["a.json"]

    def test_a_failed_stage_removes_the_earlier_ones(self, tmp_path):
        a = tmp_path / "a.json"
        with pytest.raises(FileNotFoundError):
            with serialize._replacing() as stage:
                stage(a, "new a")
                stage(tmp_path / "missing" / "b.json", "new b")
        assert list(tmp_path.iterdir()) == []


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

# Real-valued: its imaginary parts are +0.0 on both sides of the diagonal.
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

    def test_goldens_pin_both_writer_branches(self):
        # the goldens hold floats with a certificate and floats written by "%.16e"
        data = {PureState: "amplitudes", DensityMatrix: "matrix", GridWavefunction: "values"}
        floats = [getattr(obj, data[type(obj)]).view(float).ravel() for obj, _ in golden_objects()]
        certified = serialize._certify(np.concatenate(floats))[0]
        assert certified.any() and not certified.all()

    def test_negative_zero_reads_back_negative(self):
        back = loads(GOLDEN_PURE)
        assert np.copysign(1.0, back.amplitudes[0].real) == -1.0
        assert back.amplitudes[1].imag == 5e-324
        assert dumps(loads(GOLDEN_PURE)) == GOLDEN_PURE


# Bit patterns the writer must carry: signed zeros, subnormals, the
# extremes of the normal range and plain values.
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
        moved = -part if part == 0.0 else math.nextafter(part, math.inf)  # inf past the largest
        a[i, j] = complex(moved, a[i, j].imag) if flip == "real" else complex(a[i, j].real, moved)
        return a, False
    return a, True


class TestWriterDifferential:
    """The writer writes the bytes of formatting every float with "%.16e"."""

    @settings(max_examples=200)
    @given(case=square_matrices())
    def test_matrix_text_equals_every_float_layout(self, case):
        a, _ = case
        assert serialize._data_text(a) == data_text_every_float(a)

    @settings(max_examples=50)
    @given(values=st.lists(st.tuples(FLOATS, FLOATS), min_size=1, max_size=8))
    def test_vector_text_equals_every_float_layout(self, values):
        a = np.array([complex(re, im) for re, im in values])
        assert serialize._data_text(a) == data_text_every_float(a)

    # The last three span several blocks of the writer: a 512 x 512 marginal
    # (16 blocks), a 300 x 300 one (a partial last block) and a state of
    # 32,768 amplitudes (two blocks); ``keep=None`` writes the state itself.
    @pytest.mark.parametrize("dims, keep", [((2, 3, 4), ("A", "B")), ((3, 3, 3), ("B", "C")),
                                            ((2, 2, 1), ("A",)), ((4, 8, 2), ("B", "C")),
                                            ((8, 64, 8), ("A", "B")), ((3, 100, 1), ("A", "B")),
                                            ((8, 64, 64), None)])
    def test_dumps_of_a_marginal(self, dims, keep):
        psi = sample_haar_state(Dims(*dims), 21)
        if keep is None:
            header = f'{{\n  "kind": "pure_state",\n  "dims": {json.dumps(dims)},\n  "data": '
            assert dumps(psi) == header + data_text_every_float(psi.amplitudes) + "\n}\n"
            return
        rho = partial_trace(psi, keep)
        header = (f'{{\n  "kind": "density_matrix",\n  "dims": {json.dumps(rho.dims)},\n'
                  f'  "subsystems": {json.dumps(rho.subsystems)},\n  "data": ')
        assert dumps(rho) == header + data_text_every_float(rho.matrix) + "\n}\n"


def every_float_text(x):
    """``"%.16e" % v`` for each float of ``x``, one per line."""
    return "\n".join(["%.16e"] * len(x)) % tuple(x.tolist())


def kernel_text(x):
    """The writer's text for each float of ``x``, one per line."""
    fields = serialize._float_fields(np.asarray(x, dtype=float)).tobytes()
    return b"\n".join(fields[i : i + 24] for i in range(0, len(fields), 24)).translate(
        None, b"\0").decode("ascii")


def exact_ties():
    """Doubles whose 17-digit scaling y = |v| * 10^(16-k) is an exact half-integer.

    y = (2D + 1) / 2 with D of 17 digits; v = q * 2^(k-17) is a double when
    q = (2D + 1) / 5^(16-k) is an odd integer below 2^53, at k = -8 .. 14.
    """
    rng = np.random.default_rng(9)
    ties = [123456789012345.625]
    for k in range(-8, 15):
        low, high = 2 * 10**16 // 5 ** (16 - k) + 1, min(2 * 10**17 // 5 ** (16 - k), 2**53)
        for q in rng.integers(low, high, size=8).tolist():
            v = math.ldexp(q | 1, k - 17)
            if math.floor(math.log10(v)) == k:
                ties += [v, -v]
    return ties


class TestFloatKernel:
    """The writer's numpy kernel gives ``"%.16e" % v`` for every float."""

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(17)
        for _ in range(8):
            x = rng.integers(0, 1 << 64, size=1 << 17, dtype=np.uint64).view(float)
            x = x[np.isfinite(x)]
            assert kernel_text(x) == every_float_text(x)

    def test_random_values_in_the_certified_range(self):
        # random bit patterns are mostly far outside [1e-11, 1e17)
        rng = np.random.default_rng(18)
        x = 10.0 ** rng.uniform(-12, 17.5, size=1 << 18) * rng.choice([-1.0, 1.0], size=1 << 18)
        assert kernel_text(x) == every_float_text(x)

    def test_edges_and_powers_of_ten(self):
        tiny, huge = 5e-324, 1.7976931348623157e308
        x = [0.0, -0.0, tiny, -tiny, 2.2250738585072014e-308, -2.2250738585072014e-308, huge, -huge]
        for e in range(-12, 18):
            p = float(f"1e{e}")
            x += [p, math.nextafter(p, 0.0), math.nextafter(p, math.inf)]
        x += [-v for v in x]
        assert kernel_text(x) == every_float_text(np.array(x))

    def test_no_double_in_range_rounds_up_to_a_carry(self):
        # the largest double below each power of ten is more than half a unit
        # of the 17th digit below it, so the kernel never meets D = 10^17
        ten = fractions.Fraction(10)
        for j in range(-11, 18):
            below = 10.0**j if fractions.Fraction(10.0**j) < ten**j else math.nextafter(10.0**j, 0)
            assert 10**17 - fractions.Fraction(below) * ten ** (17 - j) > fractions.Fraction(1, 2)

    def test_exact_ties_round_half_even(self):
        ties = exact_ties()
        assert len(ties) > 100
        for v in ties:
            k = math.floor(math.log10(abs(v)))
            y = fractions.Fraction(abs(v)) * fractions.Fraction(10) ** (16 - k)
            assert y.denominator == 2
        certified = serialize._certify(np.array(ties))[0]
        assert not certified.any()
        assert kernel_text(ties) == every_float_text(np.array(ties))

    def test_non_finite_values(self):
        a = np.array([complex(np.nan, np.inf), complex(-np.inf, 1.0), complex(0.5, -np.nan)])
        assert serialize._data_text(a) == data_text_every_float(a)
        assert serialize._data_text(a.reshape(1, 3)) == data_text_every_float(a.reshape(1, 3))

    def test_every_float_through_percent_gives_the_same_bytes(self):
        # with no certificate every nonzero float is written by "%.16e" itself
        objects = [obj for obj, _ in golden_objects()]
        for dims in [(2, 3, 4), (3, 3, 3), (4, 8, 2), (2, 2, 8)]:
            psi = sample_haar_state(Dims(*dims), 23)
            objects += [psi] + [partial_trace(psi, keep) for keep in [("A", "B"), ("B", "C"), ("C",)]]
        objects.append(build_profile("correlated", (4, 4, 4)))
        texts = [dumps(obj) for obj in objects]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(serialize, "_TIE_BAND", math.inf)
            assert serialize._certify(np.array([0.5, 1.0 / 3.0, 0.0]))[0].tolist() == [
                False, False, True]
            assert [dumps(obj) for obj in objects] == texts


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
