import numpy as np
import pytest

from tripure import (
    ContractError,
    DensityMatrix,
    Dims,
    PureState,
    fidelity,
    flat_index,
    partial_trace,
    purity,
)

from conftest import haar, state_from_entries
from oracles import partial_trace_pure_loops


class TestFlatIndex:
    @pytest.mark.parametrize(
        "ijk,dims,expected",
        [
            ((0, 0, 0), (2, 2, 2), 0),
            ((1, 1, 1), (2, 2, 2), 7),
            ((1, 0, 2), (2, 3, 4), 14),
        ],
    )
    def test_examples(self, ijk, dims, expected):
        assert flat_index(*ijk, Dims(*dims)) == expected

    @pytest.mark.parametrize("ijk", [(-1, 0, 0), (2, 0, 0), (0, 3, 0), (0, 0, 4)])
    def test_out_of_range(self, ijk):
        with pytest.raises(IndexError):
            flat_index(*ijk, Dims(2, 3, 4))

    def test_bijective_over_index_box(self):
        dims = Dims(2, 3, 4)
        flats = {
            flat_index(i, j, k, dims)
            for i in range(2)
            for j in range(3)
            for k in range(4)
        }
        assert flats == set(range(dims.total))


class TestDims:
    @pytest.mark.parametrize("bad", [(0, 2, 2), (2, -1, 2), (2, 2, 0)])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ContractError):
            Dims(*bad)

    def test_total(self):
        assert Dims(2, 3, 4).total == 24

    @pytest.mark.parametrize("bad", [(True, 2, 2), (2, 2, True)])
    def test_rejects_bool(self, bad):
        with pytest.raises(ContractError):
            Dims(*bad)


class TestPartialTrace:
    def test_product_state_keep_ab(self, product_state):
        rho = partial_trace(product_state, ("A", "B"))
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        assert rho.subsystems == ("A", "B")
        assert rho.dims == (2, 2)
        np.testing.assert_allclose(rho.matrix, expected, atol=1e-14)

    def test_two_branch_state_keep_bc(self, dims222):
        psi = state_from_entries(dims222, {0: 1.0, 6: 1.0})  # (|000> + |110>)/sqrt(2)
        rho = partial_trace(psi, ("B", "C"))
        expected = np.zeros((4, 4))
        expected[0, 0] = 0.5  # |00><00|
        expected[2, 2] = 0.5  # |10><10|
        np.testing.assert_allclose(rho.matrix, expected, atol=1e-14)

    @pytest.mark.parametrize("seed", range(5))
    def test_haar_matches_loop_oracle(self, seed):
        psi = haar(3, 3, 3, seed)
        rho = partial_trace(psi, ("A", "B"))
        expected = partial_trace_pure_loops(psi.amplitudes, (3, 3, 3), "AB")
        np.testing.assert_allclose(rho.matrix, expected, atol=1e-13)

    @pytest.mark.parametrize("keep", ["A", "B", "C", "AC", "BC"])
    def test_haar_matches_loop_oracle_all_cuts(self, keep):
        psi = haar(2, 3, 2, 11)
        rho = partial_trace(psi, keep)
        expected = partial_trace_pure_loops(psi.amplitudes, (2, 3, 2), keep)
        np.testing.assert_allclose(rho.matrix, expected, atol=1e-13)

    def test_keep_must_be_proper_subset(self, product_state):
        with pytest.raises(ContractError):
            partial_trace(product_state, ())
        with pytest.raises(ContractError):
            partial_trace(product_state, ("A", "B", "C"))

    def test_keep_must_exist(self, product_state):
        rho_ab = partial_trace(product_state, ("A", "B"))
        with pytest.raises(ContractError):
            partial_trace(rho_ab, ("C",))

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("keep", ["A", "AB", "BC", "B"])
    def test_trace_preserving(self, seed, keep):
        psi = haar(2, 3, 4, seed)
        rho = partial_trace(psi, keep)
        assert abs(np.trace(rho.matrix) - 1.0) <= 1e-10

    @pytest.mark.parametrize("seed", range(4))
    def test_nested_trace_consistency(self, seed):
        psi = haar(2, 3, 4, 100 + seed)
        via_ab = partial_trace(partial_trace(psi, ("A", "B")), ("A",))
        direct = partial_trace(psi, ("A",))
        np.testing.assert_allclose(via_ab.matrix, direct.matrix, atol=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_complementary_purity(self, seed):
        psi = haar(2, 3, 4, 200 + seed)
        p_a = purity(partial_trace(psi, ("A",)))
        p_bc = purity(partial_trace(psi, ("B", "C")))
        assert abs(p_a - p_bc) <= 1e-10


class TestFidelity:
    def test_identity(self, dims222):
        psi = haar(2, 2, 2, 3)
        assert fidelity(psi, psi) == pytest.approx(1.0, abs=1e-14)

    def test_orthogonal(self, dims222):
        psi1 = state_from_entries(dims222, {0: 1.0})  # |000>
        psi2 = state_from_entries(dims222, {4: 1.0})  # |100>
        assert fidelity(psi1, psi2) == pytest.approx(0.0, abs=1e-14)

    def test_global_phase_invariance(self, dims222):
        psi = haar(2, 2, 2, 4)
        rotated = PureState(dims222, np.exp(0.37j) * psi.amplitudes)
        assert fidelity(psi, rotated) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_symmetric(self, seed):
        psi1 = haar(2, 3, 2, seed)
        psi2 = haar(2, 3, 2, 50 + seed)
        assert fidelity(psi1, psi2) == pytest.approx(fidelity(psi2, psi1), abs=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ContractError):
            fidelity(haar(2, 2, 2, 0), haar(2, 2, 3, 0))


class TestPurity:
    def test_pure_projector(self):
        m = np.zeros((4, 4))
        m[0, 0] = 1.0
        assert purity(DensityMatrix(("A", "B"), (2, 2), m)) == pytest.approx(1.0)

    def test_maximally_mixed(self):
        rho = DensityMatrix(("A", "B"), (2, 2), np.eye(4) / 4.0)
        assert purity(rho) == pytest.approx(0.25)

    def test_ghz_marginal(self, ghz_state):
        rho_bc = partial_trace(ghz_state, ("B", "C"))
        assert purity(rho_bc) == pytest.approx(0.5, abs=1e-12)


class TestTypeInvariants:
    def test_pure_state_norm_enforced(self, dims222):
        with pytest.raises(ContractError):
            PureState(dims222, np.ones(8))

    def test_pure_state_shape_enforced(self, dims222):
        with pytest.raises(ContractError):
            PureState(dims222, np.eye(4)[0])

    def test_density_rejects_non_hermitian(self):
        m = np.eye(2) / 2.0
        m[0, 1] = 1e-3
        with pytest.raises(ContractError):
            DensityMatrix(("A",), (2,), m)

    def test_density_symmetrizes_roundoff(self):
        m = np.eye(2, dtype=complex) / 2.0
        m[0, 1] = 1e-12j
        rho = DensityMatrix(("A",), (2,), m)
        np.testing.assert_allclose(rho.matrix, rho.matrix.conj().T, atol=0)

    def test_density_rejects_bad_trace(self):
        with pytest.raises(ContractError):
            DensityMatrix(("A",), (2,), np.eye(2))

    def test_density_rejects_negative_eigenvalue(self):
        m = np.diag([1.5, -0.5])
        with pytest.raises(ContractError):
            DensityMatrix(("A",), (2,), m)

    def test_density_rejects_unordered_labels(self):
        with pytest.raises(ContractError):
            DensityMatrix(("B", "A"), (2, 2), np.eye(4) / 4.0)


class TestBoundary:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    def test_pure_state_rejects_non_finite(self, dims222, bad):
        amps = np.zeros(8, dtype=complex)
        amps[0] = 1.0
        amps[3] = bad
        with pytest.raises(ContractError, match="non-finite"):
            PureState(dims222, amps)

    @pytest.mark.parametrize("n", [2, 4])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_density_rejects_non_finite(self, n, bad):
        m = np.eye(n, dtype=complex) / n
        m[0, 1] = m[1, 0] = bad
        with pytest.raises(ContractError, match="non-finite"):
            DensityMatrix(("A",), (n,), m)

    @staticmethod
    def rotated(diag, seed):
        rng = np.random.default_rng(seed)
        n = len(diag)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        m = (q * np.asarray(diag)) @ q.conj().T
        return (m + m.conj().T) / 2.0

    def test_psd_boundary_rejects_minus_1e_8(self):
        m = self.rotated([0.5, 0.3, 0.2 + 1e-8, -1e-8], 81)
        with pytest.raises(
            ContractError, match=r"not positive semidefinite: lambda_min = -1\.000e-08"
        ):
            DensityMatrix(("A",), (4,), m)

    def test_psd_boundary_accepts_minus_1e_11(self):
        m = self.rotated([0.5, 0.3, 0.2 + 1e-11, -1e-11], 82)
        rho = DensityMatrix(("A",), (4,), m)
        np.testing.assert_array_equal(rho.matrix, m)


class TestMalformedSizes:
    @pytest.mark.parametrize("bad", [(True, 4), (2.9, 2), ("2", "2"), (0, 4)])
    def test_density_rejects_non_integer_dims(self, bad):
        with pytest.raises(ContractError, match="must be a positive integer"):
            DensityMatrix(("A", "B"), bad, np.eye(4, dtype=complex) / 4)

    def test_density_accepts_numpy_integer_dims(self):
        rho = DensityMatrix(("A", "B"), (np.int64(2), np.int32(2)), np.eye(4) / 4)
        assert rho.dims == (2, 2) and all(type(d) is int for d in rho.dims)

    def test_dims_normalizes_numpy_integers(self):
        dims = Dims(np.int64(2), np.int32(3), 4)
        assert dims == Dims(2, 3, 4) and all(type(d) is int for d in dims.as_tuple())
