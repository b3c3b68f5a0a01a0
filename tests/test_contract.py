"""The input contract: a wrong argument ends in ContractError, never a raw exception.

Every entry point that takes caller-built values is called with one valid
argument list, then with each argument in turn replaced by each junk value.
The call must return, or raise ContractError or an AlgorithmError.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tripure import (
    AlgorithmError,
    ContractError,
    DensityMatrix,
    Dims,
    GridWavefunction,
    PureState,
    ReconstructionConfig,
    SpectralDecomposition,
    SpectrumPairing,
    assemble_state,
    batch_stats,
    build_profile,
    coefficient_tensors,
    compatibility_residual,
    detect_degeneracy,
    eig_hermitian,
    fidelity,
    flat_index,
    grid_fidelity,
    match_spectra,
    normalize_grid,
    partial_trace,
    phase_edges,
    planar_density,
    purity,
    reconstruct_grid,
    reconstruct_tripartite,
    roundtrip,
    run_trials,
    sample_haar_state,
    solve_phases,
)
from tripure.serialize import dumps, loads, read_matrix_file, write_matrix_file
from tripure.states import _array, _integer, _open_unit, _positive_real

from oracles import full_array, full_integer, full_open_unit, full_positive_real

DIMS = Dims(2, 2, 2)
PSI = sample_haar_state(DIMS, 5)
RHO_AB = partial_trace(PSI, "AB")
RHO_BC = partial_trace(PSI, "BC")
SHAPE = (3, 3, 3)
GRID = build_profile("separable", SHAPE)
RHO_XY = planar_density(GRID, "XY")
RHO_YZ = planar_density(GRID, "YZ")
EDGES = np.array([[1.0, 0.5], [0.5, 1.0]])
SPEC = {keep: eig_hermitian(partial_trace(PSI, keep)) for keep in ["A", "B", "C", "AB", "BC"]}
COEFFS = coefficient_tensors(SPEC["BC"], SPEC["AB"], SPEC["A"], SPEC["B"], SPEC["C"], DIMS)
SOLUTION = solve_phases(phase_edges(COEFFS))
PAIRING = match_spectra(SPEC["A"], SPEC["BC"])
RECORD = roundtrip(PSI)

JUNK = {
    "None": None,
    "str": "2",
    "float": 2.5,
    "bool": True,
    "negative": -3,
    "zero": 0,
    "pair": (2, 2),
    "dict": {},
    "vector": np.ones(3),
    "nan": float("nan"),
    "object": object(),
    "mixed": [[1, "x"]],
}

# Each entry point with one valid set of keyword arguments.
ENTRY_POINTS = {
    "sample_haar_state": (sample_haar_state, {"dims": DIMS, "seed": 1}),
    "run_trials": (
        run_trials,
        {"dims": DIMS, "n_trials": 1, "seed_base": 0, "config": ReconstructionConfig()},
    ),
    "roundtrip": (roundtrip, {"psi": PSI, "config": ReconstructionConfig(), "seed": 1}),
    "reconstruct_tripartite": (
        reconstruct_tripartite,
        {"rho_ab": RHO_AB, "rho_bc": RHO_BC, "dims": DIMS, "config": ReconstructionConfig()},
    ),
    "reconstruct_grid": (
        reconstruct_grid,
        {"rho_xy": RHO_XY, "rho_yz": RHO_YZ, "shape": SHAPE, "spacings": GRID.spacings,
         "config": ReconstructionConfig()},
    ),
    "normalize_grid": (
        normalize_grid, {"shape": SHAPE, "spacings": GRID.spacings, "raw_values": GRID.values}
    ),
    "build_profile": (build_profile, {"name": "correlated", "shape": SHAPE, "spacings": None}),
    "planar_density": (planar_density, {"psi": GRID, "plane": "XY"}),
    "partial_trace": (partial_trace, {"state": PSI, "keep": "AB"}),
    "eig_hermitian": (eig_hermitian, {"rho": RHO_AB, "rank_threshold": 1e-10, "rank_bound": 2}),
    "solve_phases": (
        solve_phases,
        {"edge_weights": EDGES, "edge_tol": 1e-7, "phase_tol": 1e-6,
         "tree_strategy": "max_weight"},
    ),
    "detect_degeneracy": (detect_degeneracy, {"spec": SPEC["A"], "gap_tol": 1e-8}),
    "match_spectra": (
        match_spectra, {"spec_a": SPEC["A"], "spec_bc": SPEC["BC"], "pair_tol": 1e-8}
    ),
    "coefficient_tensors": (
        coefficient_tensors,
        {"spec_bc": SPEC["BC"], "spec_ab": SPEC["AB"], "spec_a": SPEC["A"], "spec_b": SPEC["B"],
         "spec_c": SPEC["C"], "dims": DIMS},
    ),
    "phase_edges": (phase_edges, {"coeffs": COEFFS}),
    "assemble_state": (
        assemble_state,
        {"pairing": PAIRING, "spec_a": SPEC["A"], "spec_bc": SPEC["BC"],
         "a_phases": SOLUTION.a_phases, "dims": DIMS},
    ),
    "compatibility_residual": (
        compatibility_residual,
        {"coeffs": COEFFS, "phases": SOLUTION, "spec_a": SPEC["A"], "spec_c": SPEC["C"]},
    ),
    "batch_stats": (batch_stats, {"records": [RECORD]}),
    "fidelity": (fidelity, {"psi1": PSI, "psi2": PSI}),
    "purity": (purity, {"rho": RHO_AB}),
    "grid_fidelity": (grid_fidelity, {"g1": GRID, "g2": GRID}),
    "Dims": (Dims, {"d_a": 2, "d_b": 2, "d_c": 2}),
    "Dims.of": (DIMS.of, {"label": "A"}),
    "PureState": (PureState, {"dims": DIMS, "amplitudes": PSI.amplitudes}),
    "DensityMatrix": (
        DensityMatrix,
        {"subsystems": ("A", "B"), "dims": (2, 2), "matrix": RHO_AB.matrix},
    ),
    "GridWavefunction": (
        GridWavefunction, {"shape": SHAPE, "spacings": GRID.spacings, "values": GRID.values}
    ),
    "ReconstructionConfig": (
        ReconstructionConfig,
        {"rank_threshold": 1e-10, "gap_tol": 1e-8, "pair_tol": 1e-8, "edge_tol": 1e-7,
         "phase_tol": 1e-6, "marginal_tol": 1e-8},
    ),
}

CASES = [
    pytest.param(entry, arg, value, id=f"{entry}-{arg}-{label}")
    for entry, (_, kwargs) in ENTRY_POINTS.items()
    for arg in kwargs
    for label, value in JUNK.items()
]


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_valid_arguments_are_accepted(entry):
    func, kwargs = ENTRY_POINTS[entry]
    func(**kwargs)


@pytest.mark.parametrize("entry, arg, value", CASES)
def test_junk_argument_is_refused_by_the_contract(entry, arg, value):
    func, kwargs = ENTRY_POINTS[entry]
    try:
        func(**{**kwargs, arg: value})
    except (ContractError, AlgorithmError):
        pass


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: eig_hermitian(RHO_AB, rank_bound=-20), "rank_bound must be a positive integer"),
        (lambda: eig_hermitian(RHO_AB, rank_bound=1.5), "rank_bound must be a positive integer"),
        (lambda: run_trials(DIMS, 1, seed_base=2.0), "seed_base must be a non-negative integer"),
        (lambda: eig_hermitian(RHO_AB, "1e-10"), "rank_threshold must be a positive finite real"),
        (lambda: partial_trace(PSI, 2.5), "keep must be a sequence"),
        (lambda: reconstruct_grid(RHO_XY, RHO_YZ, (3, 3), GRID.spacings),
         r"shape must have 3 entries"),
        (lambda: DensityMatrix(("A", "B"), (4,), RHO_AB.matrix), "dims must have 2 entries"),
        (lambda: PureState(DIMS, [[1, "x"]]), "amplitudes must be numeric, got list"),
        (lambda: PureState(DIMS, np.ones(8, dtype=bool)),
         "amplitudes must be numeric, got ndarray"),
        (lambda: normalize_grid(SHAPE, GRID.spacings, [[1.0], [1.0, 2.0]]),
         "raw_values must be numeric, got list"),
        (lambda: solve_phases([1.0, 2.0]), "edge_weights must be a nonempty 2-d array"),
        (lambda: GridWavefunction(SHAPE, GRID.spacings, np.ones(3)),
         r"values has shape \(3,\), expected \(27,\)"),
        (lambda: DensityMatrix(("A",), (2,), [[np.nan, 0], [0, 1]]),
         "matrix has non-finite entries"),
        (lambda: planar_density(GRID, np.ones(3)), r"plane must be one of \('XY', 'YZ'\)"),
        (lambda: build_profile("vortex", SHAPE), "name must be one of"),
        (lambda: partial_trace(PSI, [np.ones(2)]), "keep must be one of"),
        (lambda: DensityMatrix([np.ones(2)], (2,), np.eye(2) / 2),
         "subsystems must be one of"),
        (lambda: solve_phases(EDGES, tree_strategy=None), "tree_strategy must be one of"),
        (lambda: DIMS.of("X"), r"^label must be one of \('A', 'B', 'C'\), got 'X'$"),
        (lambda: sample_haar_state((2, 2, 2), 1), "dims must be a Dims, got tuple"),
        (lambda: reconstruct_tripartite(RHO_AB.matrix, RHO_BC, DIMS),
         "rho_ab must be a DensityMatrix, got ndarray"),
        (lambda: roundtrip(PSI, config={}), "config must be a ReconstructionConfig, got dict"),
        (lambda: planar_density(PSI, "XY"), "psi must be a GridWavefunction, got PureState"),
        (lambda: eig_hermitian(RHO_AB.matrix), "rho must be a DensityMatrix, got ndarray"),
        (lambda: fidelity(PSI, None), "psi2 must be a PureState, got NoneType"),
        (lambda: purity(RHO_AB.matrix), "rho must be a DensityMatrix, got ndarray"),
        (lambda: grid_fidelity(None, GRID), "g1 must be a GridWavefunction, got NoneType"),
        (lambda: match_spectra(None, SPEC["BC"]),
         "spec_a must be a SpectralDecomposition, got NoneType"),
        (lambda: detect_degeneracy(None), "spec must be a SpectralDecomposition, got NoneType"),
        (lambda: coefficient_tensors(None, SPEC["AB"], SPEC["A"], SPEC["B"], SPEC["C"], DIMS),
         "spec_bc must be a SpectralDecomposition, got NoneType"),
        (lambda: coefficient_tensors(SPEC["BC"], SPEC["AB"], SPEC["A"], SPEC["B"], SPEC["C"],
                                     dims=(2, 2, 2)),
         "dims must be a Dims, got tuple"),
        (lambda: phase_edges(None), "coeffs must be a CoefficientTensors, got NoneType"),
        (lambda: assemble_state(None, SPEC["A"], SPEC["BC"], SOLUTION.a_phases, DIMS),
         "pairing must be a SpectrumPairing, got NoneType"),
        (lambda: assemble_state(PAIRING, SPEC["A"], SPEC["BC"], SOLUTION.a_phases, (2, 2, 2)),
         "dims must be a Dims, got tuple"),
        (lambda: compatibility_residual(None, SOLUTION, SPEC["A"], SPEC["C"]),
         "coeffs must be a CoefficientTensors, got NoneType"),
        (lambda: compatibility_residual(COEFFS, None, SPEC["A"], SPEC["C"]),
         "phases must be a PhaseSolution, got NoneType"),
        (lambda: roundtrip(RHO_AB), "psi must be a PureState, got DensityMatrix"),
        (lambda: roundtrip(None), "psi must be a PureState, got NoneType"),
        (lambda: roundtrip(PSI, seed="x"), "seed must be a non-negative integer, got 'x'"),
        (lambda: roundtrip(PSI, seed=-1), "seed must be a non-negative integer, got -1"),
        (lambda: batch_stats("ab"), r"records\[0\] must be a TrialRecord, got str"),
        (lambda: batch_stats(np.ones(3)), r"records\[0\] must be a TrialRecord, got float64"),
        (lambda: batch_stats(None), "records must be a sequence, got None"),
        (lambda: partial_trace(None, "AB"),
         "state must be a PureState or DensityMatrix, got NoneType"),
        (lambda: flat_index(0.5, 0, 0, DIMS), "i must be an integer, got 0.5"),
        (lambda: flat_index(0, True, 0, DIMS), "j must be an integer, got True"),
        (lambda: flat_index(0, 0, 0, (2, 2, 2)), "dims must be a Dims, got tuple"),
        (lambda: ReconstructionConfig(rank_threshold=2.0),
         r"rank_threshold must lie in \(0, 1\), got 2.0"),
        (lambda: eig_hermitian(RHO_AB, 1.0), r"rank_threshold must lie in \(0, 1\), got 1.0"),
    ],
    ids=[
        "integer-negative", "integer-fraction", "integer-seed", "positive_real", "sequence",
        "entries-shape", "entries-dims", "array-mixed", "array-bool", "array-ragged",
        "array-ndim", "array-shape", "array-finite", "choice-plane", "choice-profile",
        "choice-keep",
        "choice-subsystems", "choice-strategy", "choice-Dims.of",
        "instance-dims", "instance-rho_ab", "instance-config", "instance-psi", "instance-rho",
        "instance-psi2", "instance-purity", "instance-g1",
        "instance-match_spectra", "instance-detect_degeneracy", "instance-coefficient_tensors",
        "instance-coefficient_tensors-dims", "instance-phase_edges", "instance-assemble_state",
        "instance-assemble_state-dims", "instance-compatibility_residual",
        "instance-compatibility_residual-phases", "instance-roundtrip-density",
        "instance-roundtrip-none", "integer-roundtrip-seed-str", "integer-roundtrip-seed-negative",
        "instance-batch_stats-str", "instance-batch_stats-vector", "sequence-batch_stats",
        "instance-partial_trace", "integer-flat_index-fraction", "integer-flat_index-bool",
        "instance-flat_index-dims", "open_unit-config", "open_unit-eig_hermitian",
    ],
)
def test_each_rule_names_its_argument(call, message):
    with pytest.raises(ContractError, match=message):
        call()


def test_numeric_refusal_names_the_type_not_the_repr():
    junk = np.full((300, 300), "x")
    with pytest.raises(ContractError) as caught:
        DensityMatrix(("A", "B"), (300, 300), junk)
    assert str(caught.value) == "matrix must be numeric, got ndarray"


class _Int(int):
    pass


class _Float(float):
    pass


NUMPY_SCALAR_DTYPES = ["int8", "int32", "int64", "uint8", "uint64",
                       "float16", "float32", "float64", "longdouble", "complex128"]
ARRAY_DTYPES = ["bool", "int8", "int64", "uint16", "float32", "float64",
                "complex64", "complex128", ">c16", "U1", "object"]

# Every kind of value a rule meets: the exact types its early return takes,
# and the lookalikes it must leave to the full check.
RULE_INPUTS = st.one_of(
    st.integers(),
    st.floats(),
    st.sampled_from([True, False, 0.0, -0.0, 5e-324, 1.0, float("nan"), float("inf"),
                     float("-inf"), 10**400, -(10**400), 2**63, 2**64]),
    st.builds(_Int, st.integers()),
    st.builds(_Float, st.floats()),
    st.sampled_from(NUMPY_SCALAR_DTYPES).flatmap(lambda d: hnp.from_dtype(np.dtype(d))),
    hnp.arrays(st.sampled_from(ARRAY_DTYPES), hnp.array_shapes(min_dims=0, max_dims=2)),
    st.sampled_from(list(JUNK.values())),
)


def rule_outcome(rule, *args):
    """What a rule gives: its result's type and exact bits, or its error's class and message."""
    try:
        result = rule(*args)
    except Exception as exc:  # any class is an outcome to compare
        return ("raised", type(exc), str(exc))
    if isinstance(result, np.ndarray):
        return ("array", type(result), result.dtype, result.shape, result.tobytes())
    return ("value", type(result), repr(result))


@settings(max_examples=600, deadline=None, derandomize=True)
@given(RULE_INPUTS, st.sampled_from([0, 1]))
def test_scalar_rules_match_their_full_check(value, least):
    assert rule_outcome(_integer, "n", value, least) == rule_outcome(full_integer, "n", value, least)
    assert rule_outcome(_positive_real, "x", value) == rule_outcome(full_positive_real, "x", value)
    assert rule_outcome(_open_unit, "x", value) == rule_outcome(full_open_unit, "x", value)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(RULE_INPUTS, st.sampled_from([complex, float, int]), st.sampled_from(["own", None, (2,)]))
def test_array_rule_matches_its_full_check(value, dtype, shape):
    if shape == "own":
        shape = np.shape(value) if isinstance(value, np.ndarray) else ()
    args = ("a", value, shape, dtype)
    assert rule_outcome(_array, *args) == rule_outcome(full_array, *args)


def malformed_decomposition(**fields):
    spec = SPEC["A"]
    return SpectralDecomposition(**{
        "eigenvalues": spec.eigenvalues, "eigenvectors": spec.eigenvectors,
        "original_dim": spec.original_dim, "rank": spec.rank, **fields,
    })


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: malformed_decomposition(rank=SPEC["A"].rank + 1),
         r"rank 3 exceeds the 2 eigenvalues"),
        (lambda: malformed_decomposition(rank=-1), "rank must be a non-negative integer"),
        (lambda: malformed_decomposition(eigenvectors=SPEC["A"].eigenvectors[:1]),
         r"eigenvectors has shape \(1, 2\), expected \(2, 2\)"),
        (lambda: malformed_decomposition(original_dim=3),
         r"eigenvectors has shape \(2, 2\), expected \(3, 2\)"),
        (lambda: malformed_decomposition(eigenvalues=np.diag(SPEC["A"].eigenvalues)),
         r"eigenvalues must be a 1-d array, got shape \(2, 2\)"),
        (lambda: assemble_state(SpectrumPairing(3, 0.0), SPEC["A"], SPEC["BC"],
                                SOLUTION.a_phases, DIMS),
         r"^pairing.rank 3 must equal spec_a.rank 2 and spec_bc.rank 2$"),
        (lambda: assemble_state(SpectrumPairing(np.array(2), 0.0), SPEC["A"], SPEC["BC"],
                                SOLUTION.a_phases, DIMS),
         r"^pairing.rank must be a non-negative integer, got array\(2\)$"),
        (lambda: assemble_state(SpectrumPairing(2.0, 0.0), SPEC["A"], SPEC["BC"],
                                SOLUTION.a_phases, DIMS),
         r"^pairing.rank must be a non-negative integer, got 2.0$"),
        (lambda: assemble_state(PAIRING, SPEC["A"], SpectralDecomposition(
            SPEC["BC"].eigenvalues, SPEC["BC"].eigenvectors, 4, 1), SOLUTION.a_phases, DIMS),
         r"^pairing.rank 2 must equal spec_a.rank 2 and spec_bc.rank 1$"),
    ],
    ids=["rank-above-eigenvalues", "rank-negative", "eigenvector-rows", "original_dim",
         "eigenvalues-2d", "pairing-rank-3",
         "pairing-rank-array", "pairing-rank-float", "pairing-rank-unequal-spectra"],
)
def test_malformed_decompositions_and_pairings_are_refused(call, message):
    """Decompositions are checked where built and pairings where used: never IndexError."""
    with pytest.raises(ContractError, match=message):
        call()


# The file-format entry points; paths are relative to an empty working directory
# that holds ``in.json``.
FILE_ENTRY_POINTS = {
    "loads": (loads, {"text": dumps(PSI)}),
    "dumps": (dumps, {"obj": PSI}),
    "read_matrix_file": (read_matrix_file, {"path": "in.json"}),
    "write_matrix_file": (write_matrix_file, {"path": "out.json", "obj": PSI}),
}

FILE_CASES = [
    pytest.param(entry, arg, value, id=f"{entry}-{arg}-{label}")
    for entry, (_, kwargs) in FILE_ENTRY_POINTS.items()
    for arg in kwargs
    for label, value in JUNK.items()
]


@pytest.fixture
def file_cwd(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_matrix_file("in.json", PSI)


@pytest.mark.parametrize("entry", FILE_ENTRY_POINTS)
def test_valid_file_arguments_are_accepted(file_cwd, entry):
    func, kwargs = FILE_ENTRY_POINTS[entry]
    func(**kwargs)


@pytest.mark.parametrize("entry, arg, value", FILE_CASES)
def test_junk_file_argument_is_refused_by_the_contract(file_cwd, entry, arg, value):
    """An int is never taken for a file descriptor, nor None or bytes for text."""
    func, kwargs = FILE_ENTRY_POINTS[entry]
    try:
        func(**{**kwargs, arg: value})
    except ContractError:
        pass


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: read_matrix_file(None), "path must be a str, bytes or os.PathLike, got NoneType"),
        (lambda: write_matrix_file(-3, PSI), "path must be a str, bytes or os.PathLike, got int"),
        (lambda: loads(b"{}"), "text must be a str, got bytes"),
        (lambda: read_matrix_file("a\0b"), "path must not contain a NUL byte"),
        (lambda: write_matrix_file("a\0b", PSI), "path must not contain a NUL byte"),
        (lambda: read_matrix_file(b"a\0b"), "path must not contain a NUL byte"),
    ],
    ids=["read-none", "write-int", "loads-bytes", "read-nul", "write-nul", "read-bytes-nul"],
)
def test_file_rule_names_its_argument(file_cwd, call, message):
    with pytest.raises(ContractError, match=message):
        call()
