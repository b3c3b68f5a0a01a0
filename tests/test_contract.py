"""The input contract: a wrong argument ends in ContractError, never a raw exception.

Every entry point that takes caller-built values is called with one valid
argument list, then with each argument in turn replaced by each junk value.
The call must return, or raise ContractError or an AlgorithmError.
"""

import numpy as np
import pytest

from tripure import (
    AlgorithmError,
    ContractError,
    DensityMatrix,
    Dims,
    GridWavefunction,
    PureState,
    ReconstructionConfig,
    build_profile,
    eig_hermitian,
    normalize_grid,
    partial_trace,
    planar_density,
    reconstruct_grid,
    reconstruct_tripartite,
    roundtrip,
    run_trials,
    sample_haar_state,
    solve_phases,
)

DIMS = Dims(2, 2, 2)
PSI = sample_haar_state(DIMS, 5)
RHO_AB = partial_trace(PSI, "AB")
RHO_BC = partial_trace(PSI, "BC")
SHAPE = (3, 3, 3)
GRID = build_profile("separable", SHAPE)
RHO_XY = planar_density(GRID, "XY")
RHO_YZ = planar_density(GRID, "YZ")
EDGES = np.array([[1.0, 0.5], [0.5, 1.0]])

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
    "Dims": (Dims, {"d_a": 2, "d_b": 2, "d_c": 2}),
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
        (lambda: sample_haar_state((2, 2, 2), 1), "dims must be a Dims, got tuple"),
        (lambda: reconstruct_tripartite(RHO_AB.matrix, RHO_BC, DIMS),
         "rho_ab must be a DensityMatrix, got ndarray"),
        (lambda: roundtrip(PSI, config={}), "config must be a ReconstructionConfig, got dict"),
        (lambda: planar_density(PSI, "XY"), "psi must be a GridWavefunction, got PureState"),
        (lambda: eig_hermitian(RHO_AB.matrix), "rho must be a DensityMatrix, got ndarray"),
    ],
    ids=[
        "integer-negative", "integer-fraction", "integer-seed", "positive_real", "sequence",
        "entries-shape", "entries-dims", "array-mixed", "array-ragged", "array-ndim",
        "array-shape", "array-finite", "choice-plane", "choice-profile", "choice-keep",
        "choice-subsystems", "choice-strategy",
        "instance-dims", "instance-rho_ab", "instance-config", "instance-psi", "instance-rho",
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
