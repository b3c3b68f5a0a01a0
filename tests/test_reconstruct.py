import inspect
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripure import (
    AlgorithmError,
    ContractError,
    DensityMatrix,
    Dims,
    ExpansionLeakage,
    GenericityViolation,
    GridWavefunction,
    MarginalInconsistency,
    PhaseGraphDisconnected,
    PhaseInconsistency,
    PureState,
    ReconstructionConfig,
    assemble_state,
    coefficient_tensors,
    compatibility_residual,
    detect_degeneracy,
    eig_hermitian,
    fidelity,
    match_spectra,
    partial_trace,
    phase_edges,
    reconstruct_tripartite,
    sample_haar_state,
    solve_phases,
)
from tripure.reconstruct import _marginal_residual
from tripure.spectral import SpectralDecomposition, SpectrumPairing

from conftest import haar, marginal_pair, planted_state, run_child
from oracles import (
    ab_overlaps_loops,
    bc_overlaps_loops,
    coefficient_tensors_einsum,
    haar_unitary,
    phase_edges_loops,
    symmetrized_marginal_residual,
)

DEFAULTS = ReconstructionConfig()


def decompose_all(psi, rank_threshold=1e-10):
    """Spectral decompositions of all five marginals of a pure state."""
    return {
        "a": eig_hermitian(partial_trace(psi, ("A",)), rank_threshold),
        "b": eig_hermitian(partial_trace(psi, ("B",)), rank_threshold),
        "c": eig_hermitian(partial_trace(psi, ("C",)), rank_threshold),
        "ab": eig_hermitian(partial_trace(psi, ("A", "B")), rank_threshold),
        "bc": eig_hermitian(partial_trace(psi, ("B", "C")), rank_threshold),
    }


def tensors_of(psi):
    s = decompose_all(psi)
    return coefficient_tensors(s["bc"], s["ab"], s["a"], s["b"], s["c"], psi.dims), s


class TestCoefficientTensors:
    def test_product_state(self, product_state):
        coeffs, _ = tensors_of(product_state)
        assert coeffs.bc_overlaps.shape == (1, 1, 1)
        assert coeffs.ab_overlaps.shape == (1, 1, 1)
        assert abs(coeffs.bc_overlaps[0, 0, 0]) == pytest.approx(1.0, abs=1e-12)
        assert abs(coeffs.ab_overlaps[0, 0, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_w_state_matches_loop_oracle(self, w_state):
        coeffs, s = tensors_of(w_state)
        bc_expected = bc_overlaps_loops(
            s["bc"].eigenvectors, s["b"].eigenvectors, s["c"].eigenvectors, 2, 2
        )
        ab_expected = ab_overlaps_loops(
            s["ab"].eigenvectors, s["a"].eigenvectors, s["b"].eigenvectors, 2, 2
        )
        np.testing.assert_allclose(coeffs.bc_overlaps, bc_expected, atol=1e-12)
        np.testing.assert_allclose(coeffs.ab_overlaps, ab_expected, atol=1e-12)

    def test_planted_phase_single_entry_structure(self):
        coeffs, _ = tensors_of(planted_state())
        bc_mags = np.abs(coeffs.bc_overlaps)
        ab_mags = np.abs(coeffs.ab_overlaps)
        for i in range(2):
            flat = np.sort(bc_mags[i].ravel())
            assert flat[-1] == pytest.approx(1.0, abs=1e-10)
            assert flat[:-1].max() <= 1e-10
        for k in range(2):
            flat = np.sort(ab_mags[k].ravel())
            assert flat[-1] == pytest.approx(1.0, abs=1e-10)
            assert flat[:-1].max() <= 1e-10

    @pytest.mark.parametrize("seed", range(4))
    def test_normalization(self, seed):
        coeffs, _ = tensors_of(haar(2, 3, 4, 400 + seed))
        bc_sums = (np.abs(coeffs.bc_overlaps) ** 2).sum(axis=(1, 2))
        ab_sums = (np.abs(coeffs.ab_overlaps) ** 2).sum(axis=(1, 2))
        assert np.abs(bc_sums - 1.0).max() <= 1e-9
        assert np.abs(ab_sums - 1.0).max() <= 1e-9

    def test_truncated_basis_leaks(self):
        psi = haar(3, 3, 3, 5)
        s = decompose_all(psi)
        full_b = s["b"]
        clipped = SpectralDecomposition(
            full_b.eigenvalues[:-1],
            full_b.eigenvectors[:, :-1],
            full_b.original_dim,
            full_b.rank - 1,
        )
        with pytest.raises(ExpansionLeakage):
            coefficient_tensors(s["bc"], s["ab"], s["a"], clipped, s["c"], psi.dims)

    def test_single_party_dims_mismatch(self):
        s = decompose_all(haar(2, 3, 4, 6))
        with pytest.raises(ContractError) as caught:
            coefficient_tensors(s["bc"], s["ab"], s["a"], s["b"], s["c"], Dims(2, 3, 5))
        assert str(caught.value) == "single-party decompositions do not match dims"

    def test_bipartite_dims_mismatch(self):
        s = decompose_all(haar(2, 3, 4, 6))
        with pytest.raises(ContractError) as caught:
            coefficient_tensors(s["ab"], s["bc"], s["a"], s["b"], s["c"], Dims(2, 3, 4))
        assert str(caught.value) == "bipartite decompositions do not match dims"


class TestPhaseEdges:
    def test_product_state(self, product_state):
        coeffs, _ = tensors_of(product_state)
        edges = phase_edges(coeffs)
        assert edges.shape == (1, 1)
        assert abs(edges[0, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_planted_phase_diagonal(self):
        coeffs, _ = tensors_of(planted_state())
        edges = phase_edges(coeffs)
        off_diag = edges[~np.eye(2, dtype=bool)]
        assert np.abs(off_diag).max() <= 1e-10
        assert np.abs(np.diagonal(edges)).min() >= 0.9

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_loop_oracle(self, seed):
        coeffs, _ = tensors_of(haar(2, 3, 4, 500 + seed))
        expected = phase_edges_loops(coeffs.bc_overlaps, coeffs.ab_overlaps)
        np.testing.assert_allclose(phase_edges(coeffs), expected, atol=1e-12)


class TestSolvePhases:
    def test_single_edge(self):
        sol = solve_phases(np.array([[np.exp(0.7j)]]))
        assert sol.a_phases[0] == pytest.approx(0.7, abs=1e-12)
        assert sol.c_phases[0] == 0.0
        assert sol.cycle_residual == 0.0

    def test_planted_phase_graph_disconnects(self):
        # The two Schmidt branches of the planted state share no edge: the
        # loop oracle confirms the edge array is strictly diagonal, so the
        # relative branch phase is undetermined.
        coeffs, _ = tensors_of(planted_state())
        edges_oracle = phase_edges_loops(coeffs.bc_overlaps, coeffs.ab_overlaps)
        off_diag = np.abs(edges_oracle[~np.eye(2, dtype=bool)]).max()
        assert off_diag <= DEFAULTS.edge_tol * np.abs(edges_oracle).max()
        with pytest.raises(PhaseGraphDisconnected):
            solve_phases(edges_oracle)

    def test_synthetic_diagonal_disconnects(self):
        with pytest.raises(PhaseGraphDisconnected):
            solve_phases(np.eye(2, dtype=complex))

    @pytest.mark.parametrize("seed", range(4))
    def test_haar_cycle_residual(self, seed):
        coeffs, _ = tensors_of(haar(3, 3, 3, 600 + seed))
        sol = solve_phases(phase_edges(coeffs))
        assert sol.cycle_residual <= 1e-8

    def test_corrupted_edge_is_inconsistent(self):
        coeffs, _ = tensors_of(haar(3, 3, 3, 8))
        edges = phase_edges(coeffs)
        edges[0, 0] *= np.exp(0.1j)
        with pytest.raises(PhaseInconsistency):
            solve_phases(edges)

    def test_gamma_root_is_gauged_to_zero(self):
        coeffs, _ = tensors_of(haar(2, 3, 4, 9))
        edges = phase_edges(coeffs)
        sol = solve_phases(edges)
        mags = np.abs(edges)
        usable = mags > DEFAULTS.edge_tol * mags.max()
        root = int(np.argmax((mags * usable).sum(axis=0)))
        assert sol.c_phases[root] == 0.0

    def test_unknown_strategy(self):
        with pytest.raises(ContractError):
            solve_phases(np.ones((2, 2), dtype=complex), tree_strategy="dfs")

    def test_zero_edges_disconnect(self):
        with pytest.raises(PhaseGraphDisconnected):
            solve_phases(np.zeros((2, 2), dtype=complex))


def planted_schmidt_pieces():
    """Hand-built Schmidt data of the planted-phase state across A|BC."""
    spec_a = SpectralDecomposition(
        np.array([0.7, 0.3]), np.eye(2, dtype=complex), 2, 2
    )
    bc_vectors = np.zeros((4, 2), dtype=complex)
    bc_vectors[0, 0] = 1.0  # |00>
    bc_vectors[3, 1] = 1.0  # |11>
    spec_bc = SpectralDecomposition(np.array([0.7, 0.3]), bc_vectors, 4, 2)
    pairing = SpectrumPairing(np.arange(2), 0.0)
    return pairing, spec_a, spec_bc


class TestAssembleState:
    def test_product_state_any_phase(self, product_state):
        s = decompose_all(product_state)
        pairing = match_spectra(s["a"], s["bc"])
        psi = assemble_state(pairing, s["a"], s["bc"], np.array([0.3]), product_state.dims)
        assert fidelity(psi, product_state) == pytest.approx(1.0, abs=1e-12)

    def test_w_state_with_solved_phases(self, w_state):
        coeffs, s = tensors_of(w_state)
        pairing = match_spectra(s["a"], s["bc"])
        sol = solve_phases(phase_edges(coeffs))
        psi = assemble_state(pairing, s["a"], s["bc"], sol.a_phases, w_state.dims)
        assert fidelity(psi, w_state) >= 1.0 - 1e-10

    def test_planted_phase_matters(self):
        truth = planted_state(np.pi / 3)
        pairing, spec_a, spec_bc = planted_schmidt_pieces()
        dims = Dims(2, 2, 2)
        right = assemble_state(pairing, spec_a, spec_bc, np.array([0.0, np.pi / 3]), dims)
        assert fidelity(right, truth) >= 1.0 - 1e-10
        # dropping the relative phase costs |0.7 + 0.3 e^{i pi/3}|^2 = 0.79
        wrong = assemble_state(pairing, spec_a, spec_bc, np.zeros(2), dims)
        expected = abs(0.7 + 0.3 * np.exp(1j * np.pi / 3)) ** 2
        assert expected == pytest.approx(0.79, abs=1e-12)
        assert fidelity(wrong, truth) == pytest.approx(expected, abs=1e-9)

    def test_dims_mismatch(self):
        pairing, spec_a, spec_bc = planted_schmidt_pieces()
        with pytest.raises(ContractError) as caught:
            assemble_state(pairing, spec_a, spec_bc, np.zeros(2), Dims(2, 2, 3))
        assert str(caught.value) == "decompositions do not match dims"

    def test_canonical_global_phase(self):
        psi = haar(2, 2, 2, 10)
        s = decompose_all(psi)
        pairing = match_spectra(s["a"], s["bc"])
        coeffs, _ = tensors_of(psi)
        sol = solve_phases(phase_edges(coeffs))
        out1 = assemble_state(pairing, s["a"], s["bc"], sol.a_phases, psi.dims)
        out2 = assemble_state(pairing, s["a"], s["bc"], sol.a_phases + 1.3, psi.dims)
        lead = out1.amplitudes[np.argmax(np.abs(out1.amplitudes))]
        assert abs(lead.imag) <= 1e-12 and lead.real > 0
        np.testing.assert_allclose(out1.amplitudes, out2.amplitudes, atol=1e-12)


class TestCompatibilityResidual:
    def test_product_state(self, product_state):
        coeffs, s = tensors_of(product_state)
        sol = solve_phases(phase_edges(coeffs))
        assert compatibility_residual(coeffs, sol, s["a"], s["c"]) <= 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_haar(self, seed):
        psi = haar(2, 3, 4, 700 + seed)
        coeffs, s = tensors_of(psi)
        sol = solve_phases(phase_edges(coeffs))
        assert compatibility_residual(coeffs, sol, s["a"], s["c"]) <= 1e-8

    def test_violation_is_refused_with_the_gap(self, monkeypatch):
        psi = haar(2, 3, 4, 12)
        gap = reconstruct_tripartite(*marginal_pair(psi), psi.dims).min_spectral_gap
        monkeypatch.setattr("tripure.reconstruct.compatibility_residual", lambda *args: 1.0)
        with pytest.raises(PhaseInconsistency) as caught:
            reconstruct_tripartite(*marginal_pair(psi), psi.dims)
        assert str(caught.value) == (
            "amplitude compatibility violated by 1.000e+00 after phase solving"
        )
        assert caught.value.min_spectral_gap == gap > 0.0

    def test_corrupted_phase_is_visible(self):
        psi = haar(2, 2, 2, 11)
        coeffs, s = tensors_of(psi)
        sol = solve_phases(phase_edges(coeffs))
        corrupted = type(sol)(
            a_phases=sol.a_phases + np.array([0.1, 0.0]),
            c_phases=sol.c_phases,
            edge_magnitudes=sol.edge_magnitudes,
            cycle_residual=sol.cycle_residual,
        )
        assert compatibility_residual(coeffs, corrupted, s["a"], s["c"]) >= 0.01


class TestReconstructTripartite:
    def test_product_state(self, product_state):
        rep = reconstruct_tripartite(*marginal_pair(product_state), product_state.dims)
        assert fidelity(rep.state, product_state) >= 1.0 - 1e-12
        assert rep.marginal_residual_ab <= 1e-12
        assert rep.marginal_residual_bc <= 1e-12
        assert rep.compatibility_residual <= 1e-12
        assert rep.cycle_residual <= 1e-12

    def test_ghz_refused(self, ghz_state):
        with pytest.raises(GenericityViolation):
            reconstruct_tripartite(*marginal_pair(ghz_state), ghz_state.dims)

    @pytest.mark.parametrize("seed", range(5))
    def test_haar_round_trip(self, seed):
        psi = haar(2, 3, 4, 800 + seed)
        rep = reconstruct_tripartite(*marginal_pair(psi), psi.dims)
        assert fidelity(psi, rep.state) >= 1.0 - 1e-8

    @pytest.mark.parametrize("seed", range(5))
    def test_marginal_faithfulness(self, seed):
        psi = haar(3, 3, 3, 900 + seed)
        rho_ab, rho_bc = marginal_pair(psi)
        rep = reconstruct_tripartite(rho_ab, rho_bc, psi.dims)
        back_ab = partial_trace(rep.state, ("A", "B"))
        back_bc = partial_trace(rep.state, ("B", "C"))
        assert np.linalg.norm(back_ab.matrix - rho_ab.matrix) <= 1e-8
        assert np.linalg.norm(back_bc.matrix - rho_bc.matrix) <= 1e-8

    def test_unrelated_marginals_raise_typed_error(self):
        rho_ab, _ = marginal_pair(haar(2, 2, 2, 12))
        _, rho_bc = marginal_pair(haar(2, 2, 2, 5012))
        with pytest.raises(AlgorithmError):
            reconstruct_tripartite(rho_ab, rho_bc, Dims(2, 2, 2))

    def test_slightly_mixed_input_raises_typed_error(self):
        # marginals of (1 - eps) |psi><psi| + eps I/D: no pure state is
        # compatible, and the pipeline must refuse rather than approximate
        psi = haar(2, 2, 2, 13)
        eps = 1e-3
        full = (1 - eps) * np.outer(psi.amplitudes, psi.amplitudes.conj()) + eps * np.eye(8) / 8
        rho_abc = DensityMatrix(("A", "B", "C"), (2, 2, 2), full)
        rho_ab = partial_trace(rho_abc, ("A", "B"))
        rho_bc = partial_trace(rho_abc, ("B", "C"))
        with pytest.raises(AlgorithmError):
            reconstruct_tripartite(rho_ab, rho_bc, psi.dims)

    def test_dims_mismatch_is_contract_error(self):
        rho_ab, rho_bc = marginal_pair(haar(2, 2, 2, 14))
        with pytest.raises(ContractError):
            reconstruct_tripartite(rho_ab, rho_bc, Dims(2, 2, 3))

    def test_swapped_inputs_are_contract_error(self):
        rho_ab, rho_bc = marginal_pair(haar(2, 2, 2, 14))
        with pytest.raises(ContractError):
            reconstruct_tripartite(rho_bc, rho_ab, Dims(2, 2, 2))

    def test_rho_b_cross_check(self):
        # same dims but different rho_B: caught before any spectral work
        rho_ab, _ = marginal_pair(haar(2, 2, 2, 15))
        _, rho_bc = marginal_pair(haar(2, 2, 2, 5015))
        with pytest.raises(MarginalInconsistency):
            reconstruct_tripartite(rho_ab, rho_bc, Dims(2, 2, 2))


class TestPipelineInvariants:
    @pytest.mark.parametrize("chi", [0.1, 1.0, 3.0])
    def test_gauge_invariance(self, chi):
        psi = haar(3, 3, 3, 16)
        coeffs, s = tensors_of(psi)
        pairing = match_spectra(s["a"], s["bc"])
        sol = solve_phases(phase_edges(coeffs))
        base = assemble_state(pairing, s["a"], s["bc"], sol.a_phases, psi.dims)
        shifted = assemble_state(pairing, s["a"], s["bc"], sol.a_phases + chi, psi.dims)
        assert fidelity(base, shifted) >= 1.0 - 1e-12
        assert abs(fidelity(psi, base) - fidelity(psi, shifted)) < 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_spanning_tree_choice_invariance(self, seed):
        psi = haar(3, 3, 3, 1100 + seed)
        coeffs, s = tensors_of(psi)
        pairing = match_spectra(s["a"], s["bc"])
        edges = phase_edges(coeffs)
        sol1 = solve_phases(edges, tree_strategy="max_weight")
        sol2 = solve_phases(edges, tree_strategy="bfs")
        out1 = assemble_state(pairing, s["a"], s["bc"], sol1.a_phases, psi.dims)
        out2 = assemble_state(pairing, s["a"], s["bc"], sol2.a_phases, psi.dims)
        assert fidelity(out1, out2) >= 1.0 - 1e-10

    @pytest.mark.parametrize("seed", range(3))
    def test_local_unitary_covariance(self, seed):
        psi = haar(3, 3, 3, 1200 + seed)
        rng = np.random.default_rng(9000 + seed)
        u_a = haar_unitary(3, rng)
        u_b = haar_unitary(3, rng)
        u_c = haar_unitary(3, rng)
        rotated = np.einsum("ai,bj,ck,ijk->abc", u_a, u_b, u_c, psi.as_tensor())
        psi_rot = PureState(psi.dims, rotated.reshape(-1))
        rep = reconstruct_tripartite(*marginal_pair(psi_rot), psi.dims)
        assert fidelity(psi_rot, rep.state) >= 1.0 - 1e-8

    def test_degenerate_rho_b_is_flagged_not_fatal(self):
        # rho_B degeneracy alone is tolerated: both tensors share the one
        # rho_B eigenbasis, so the pipeline succeeds and only flags it.
        # (1/sqrt(2)) (|0>_B chi_0 + |1>_B chi_1) with orthonormal chi's on
        # A x C makes rho_B = I/2 while rho_A, rho_C stay generic.
        dims = Dims(2, 2, 2)
        rng = np.random.default_rng(77)
        m = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        chi = np.linalg.qr(m)[0]
        tensor = np.zeros((2, 2, 2), dtype=complex)
        for j in range(2):
            tensor[:, j, :] = chi[:, j].reshape(2, 2) / np.sqrt(2.0)
        psi = PureState(dims, tensor.reshape(-1))
        rho_b = partial_trace(psi, ("B",))
        assert abs(np.linalg.eigvalsh(rho_b.matrix)[0] - 0.5) <= 1e-12
        rep = reconstruct_tripartite(*marginal_pair(psi), dims)
        assert fidelity(psi, rep.state) >= 1.0 - 1e-10
        assert any("rho_B" in flag for flag in rep.genericity_flags)


GRID_VALUES = np.full(8, 1.0 / np.sqrt(8))

# Each builds an object from a scalar or a bare tuple where a sequence or a
# typed object is required.
MALFORMED_ARGUMENTS = {
    "grid-scalar-spacings": lambda psi, ab, bc: GridWavefunction((2, 2, 2), 1.0, GRID_VALUES),
    "grid-scalar-shape": lambda psi, ab, bc: GridWavefunction(8, (1.0,) * 3, GRID_VALUES),
    "density-scalar-dims": lambda psi, ab, bc: DensityMatrix(("A",), 2, np.eye(2) / 2),
    "density-scalar-subsystems": lambda psi, ab, bc: DensityMatrix(5, (2,), np.eye(2) / 2),
    "pure-tuple-dims": lambda psi, ab, bc: PureState((2, 2, 2), psi.amplitudes),
    "reconstruct-tuple-dims": lambda psi, ab, bc: reconstruct_tripartite(ab, bc, (2, 2, 2)),
    "reconstruct-raw-array": lambda psi, ab, bc: reconstruct_tripartite(ab.matrix, bc, psi.dims),
}


class TestTypedBoundary:
    """Malformed arguments are refused with ContractError, never a raw exception."""

    @pytest.mark.parametrize("field", [f.name for f in fields(ReconstructionConfig)])
    @pytest.mark.parametrize(
        "value",
        [float("nan"), float("inf"), -1.0, 0.0, True, "1e-8", None, 10**400],
        ids=["nan", "inf", "-1.0", "0.0", "True", "str", "None", "10**400"],
    )
    def test_config_rejects_non_positive_finite(self, field, value):
        with pytest.raises(ContractError, match=f"{field} must be a positive finite real"):
            ReconstructionConfig(**{field: value})

    def test_config_stores_floats(self):
        cfg = ReconstructionConfig(gap_tol=np.float64(1e-7), pair_tol=1)
        assert type(cfg.gap_tol) is float and type(cfg.pair_tol) is float

    @pytest.mark.parametrize("case", list(MALFORMED_ARGUMENTS))
    def test_malformed_argument_is_contract_error(self, case):
        psi = haar(2, 2, 2, 3)
        ab, bc = marginal_pair(psi)
        with pytest.raises(ContractError):
            MALFORMED_ARGUMENTS[case](psi, ab, bc)

    @pytest.mark.parametrize("parameter", ["pair_tol", "gap_tol", "edge_tol", "phase_tol"])
    @pytest.mark.parametrize(
        "value",
        [float("nan"), float("inf"), -1.0, 0.0, True, "1e-8", None],
        ids=["nan", "inf", "-1.0", "0.0", "True", "str", "None"],
    )
    def test_staged_tolerance_rejects_non_positive_finite(self, parameter, value):
        s = decompose_all(haar(2, 2, 2, 3))
        edges = phase_edges(tensors_of(haar(2, 2, 2, 3))[0])
        call = {
            "pair_tol": lambda: match_spectra(s["a"], s["bc"], pair_tol=value),
            "gap_tol": lambda: detect_degeneracy(s["a"], gap_tol=value),
            "edge_tol": lambda: solve_phases(edges, edge_tol=value),
            "phase_tol": lambda: solve_phases(edges, phase_tol=value),
        }[parameter]
        with pytest.raises(ContractError, match=f"{parameter} must be a positive finite real"):
            call()


def mirrored(rho: DensityMatrix) -> DensityMatrix:
    """A two-party marginal with its two parties swapped and relabelled A<->C."""
    d_first, d_second = rho.dims
    m = rho.matrix.reshape(d_first, d_second, d_first, d_second).transpose(1, 0, 3, 2)
    labels = ("A", "B") if rho.subsystems == ("B", "C") else ("B", "C")
    return DensityMatrix(labels, (d_second, d_first), m.reshape(rho.dim, rho.dim))


def rotated(psi: PureState, seed: int) -> PureState:
    """``psi`` under the Haar-random local unitary U_A (x) U_B (x) U_C drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    u_a, u_b, u_c = (haar_unitary(d, rng) for d in psi.dims.as_tuple())
    tensor = np.einsum("ai,bj,ck,ijk->abc", u_a, u_b, u_c, psi.as_tensor())
    return PureState(psi.dims, tensor.reshape(-1))


PARTY_DIM = st.integers(1, 5)
SEEDS = st.integers(0, 2**32 - 1)


class TestSymmetryProperties:
    """Relabelling and local-unitary properties of the reconstruction, at random dims."""

    @settings(max_examples=40)
    @given(d_a=PARTY_DIM, d_b=st.integers(2, 5), d_c=PARTY_DIM, seed=SEEDS)
    def test_mirror_relabelling(self, d_a, d_b, d_c, seed):
        psi = sample_haar_state(Dims(d_a, d_b, d_c), seed)
        rho_ab, rho_bc = marginal_pair(psi)
        rep = reconstruct_tripartite(rho_ab, rho_bc, psi.dims)
        mirror_dims = Dims(d_c, d_b, d_a)
        rep_mirror = reconstruct_tripartite(mirrored(rho_bc), mirrored(rho_ab), mirror_dims)
        expected = PureState(mirror_dims, rep.state.as_tensor().transpose(2, 1, 0).reshape(-1))
        assert fidelity(expected, rep_mirror.state) >= 1.0 - 1e-10

    @settings(max_examples=60)
    @given(d_a=PARTY_DIM, d_b=st.integers(2, 5), d_c=PARTY_DIM, seed=SEEDS)
    def test_local_unitary_covariance(self, d_a, d_b, d_c, seed):
        psi = sample_haar_state(Dims(d_a, d_b, d_c), seed)
        psi_rot = rotated(psi, seed)
        rep = reconstruct_tripartite(*marginal_pair(psi_rot), psi.dims)
        assert fidelity(psi_rot, rep.state) >= 1.0 - 1e-10
        base = reconstruct_tripartite(*marginal_pair(psi), psi.dims)
        assert fidelity(rotated(base.state, seed), rep.state) >= 1.0 - 1e-10

    @settings(max_examples=34)
    @given(d_a=st.integers(2, 5), d_c=st.integers(2, 5), seed=SEEDS)
    def test_trivial_middle_party_is_refused(self, d_a, d_c, seed):
        # With d_B = 1, rho_AB and rho_BC are only rho_A and rho_C: nothing
        # links the Schmidt branches, so the phase graph falls apart.
        psi = sample_haar_state(Dims(d_a, 1, d_c), seed)
        with pytest.raises(PhaseGraphDisconnected):
            reconstruct_tripartite(*marginal_pair(psi), psi.dims)


class TestContractionOracles:
    """Matmul overlaps and one-GEMM residuals against the einsum and symmetrized forms."""

    @settings(max_examples=40)
    @given(
        d_a=st.integers(1, 4), d_b=st.integers(1, 6), d_c=st.integers(1, 5), seed=SEEDS
    )
    def test_overlaps_and_residuals(self, d_a, d_b, d_c, seed):
        dims = (d_a, d_b, d_c)
        psi = sample_haar_state(Dims(*dims), seed)
        coeffs, s = tensors_of(psi)
        bc, ab = coefficient_tensors_einsum(s["bc"], s["ab"], s["a"], s["b"], s["c"], dims)
        assert np.abs(coeffs.bc_overlaps - bc).max() <= 1e-13
        assert np.abs(coeffs.ab_overlaps - ab).max() <= 1e-13

        rho_ab, rho_bc = marginal_pair(psi)
        other = sample_haar_state(Dims(*dims), seed + 1)
        checks = [(_marginal_residual(other, rho), other, rho) for rho in (rho_ab, rho_bc)]
        try:
            rep = reconstruct_tripartite(rho_ab, rho_bc, psi.dims)
        except PhaseGraphDisconnected:
            assert d_b == 1
        else:
            checks += [
                (rep.marginal_residual_ab, rep.state, rho_ab),
                (rep.marginal_residual_bc, rep.state, rho_bc),
            ]
        for reported, state, rho in checks:
            keep = "".join(rho.subsystems)
            sym = symmetrized_marginal_residual(state.amplitudes, dims, keep, rho.matrix)
            assert sym - 1e-15 <= reported <= sym + 1e-14


class TestBlockedMarginalResidual:
    """The residual summed over row blocks agrees with the norm of the full residual."""

    # (8, 125, 3) and (3, 8, 125) give a 1000 x 1000 rho_AB and rho_BC, no
    # multiple of the block rows; (2, 1, 2) gives 2 x 2 marginals.
    @pytest.mark.parametrize("dims", [(8, 125, 3), (3, 8, 125), (2, 1, 2)])
    def test_matches_full_norm(self, dims):
        d_a, d_b, d_c = dims
        psi = sample_haar_state(Dims(*dims), 98)
        other = sample_haar_state(Dims(*dims), 99)
        for state in (psi, other):
            t_ab = state.amplitudes.reshape(d_a * d_b, d_c)
            t_a = state.amplitudes.reshape(d_a, d_b * d_c)
            full_ab = t_ab @ t_ab.conj().T
            full_bc = t_a.T @ t_a.conj()
            for rho, full in zip(marginal_pair(psi), (full_ab, full_bc)):
                full -= rho.matrix
                expected = np.linalg.norm(full)
                residual = _marginal_residual(state, rho)
                assert abs(residual - expected) <= max(1e-12 * expected, 1e-18)


# Reconstructs validated seed-7 Haar inputs at each dims and saves the amplitudes.
_RECONSTRUCT_DIMS = """\
import sys
import numpy as np
from tripure import DensityMatrix, Dims, partial_trace, reconstruct_tripartite, sample_haar_state
out = {}
for text in sys.argv[2:]:
    d_a, d_b, d_c = map(int, text.split(","))
    psi = sample_haar_state(Dims(d_a, d_b, d_c), 7)
    rho_ab = DensityMatrix(("A", "B"), (d_a, d_b), partial_trace(psi, ("A", "B")).matrix)
    rho_bc = DensityMatrix(("B", "C"), (d_b, d_c), partial_trace(psi, ("B", "C")).matrix)
    out[text] = reconstruct_tripartite(rho_ab, rho_bc, psi.dims).state.amplitudes
np.savez(sys.argv[1], **out)
"""


def test_blas_thread_count_moves_only_the_last_bits(tmp_path):
    """Outputs under one and two OpenBLAS threads, as the README scopes its determinism claim.

    At (2,3,4) and (8,64,8) they are bitwise equal.  At (4,32,32) the range
    sketch's QR completes a rank-4 probe block with rounding noise that
    depends on the thread count, so amplitudes may differ in the last bits.
    """
    dims = ["2,3,4", "8,64,8", "4,32,32"]
    runs = []
    for threads in ("1", "2"):
        path = tmp_path / f"threads{threads}.npz"
        env = {"OPENBLAS_NUM_THREADS": threads}
        proc = run_child(path, *dims, code=_RECONSTRUCT_DIMS, env=env)
        assert proc.returncode == 0, proc.stderr
        runs.append(np.load(path))
    one, two = runs
    for text in dims[:2]:
        assert one[text].tobytes() == two[text].tobytes()
    assert np.abs(one["4,32,32"] - two["4,32,32"]).max() <= 5e-16
    psi = haar(4, 32, 32, 7)
    for amps in (one["4,32,32"], two["4,32,32"]):
        assert fidelity(psi, PureState(psi.dims, amps)) >= 1.0 - 1e-15


@pytest.mark.parametrize(
    "func, parameter",
    [
        (eig_hermitian, "rank_threshold"),
        (detect_degeneracy, "gap_tol"),
        (match_spectra, "pair_tol"),
        (solve_phases, "edge_tol"),
        (solve_phases, "phase_tol"),
    ],
)
def test_staged_defaults_equal_the_config_defaults(func, parameter):
    """Calls of the staged API without tolerances use the pipeline's tolerances."""
    default = inspect.signature(func).parameters[parameter].default
    assert default == getattr(ReconstructionConfig(), parameter)
