import os
import platform

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
    reconstruct_tripartite,
)
from tripure import states

from conftest import haar, peak_bytes, state_from_entries
from oracles import partial_trace_pure_loops, psd_refusal_cholesky


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

    def test_keep_must_not_repeat_a_label(self, product_state):
        with pytest.raises(ContractError) as caught:
            partial_trace(product_state, ("A", "A"))
        assert str(caught.value) == "duplicate labels in keep set ('A', 'A')"

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


def planted_matrix(n, rank, lam_min, seed):
    """n x n Hermitian-up-to-rounding trace-one matrix on a random basis.

    ``rank`` positive eigenvalues plus one planted smallest eigenvalue
    ``lam_min``; ``rank = n - 1`` makes it full rank.
    """
    rng = np.random.default_rng(seed)
    positive = rng.uniform(0.5, 1.5, rank)
    vals = np.append(positive * (1.0 - lam_min) / positive.sum(), lam_min)
    z = rng.standard_normal((n, rank + 1)) + 1j * rng.standard_normal((n, rank + 1))
    q, _ = np.linalg.qr(z)
    return (q * vals) @ q.conj().T


class TestPsdCertificate:
    """The sketch certificate decides every matrix as the Cholesky-then-eigvalsh rule does."""

    @pytest.mark.parametrize("n", [128, 256, 512])
    @pytest.mark.parametrize("lam_min", [-1e-8, -2e-9, -6e-10, -4e-10, -1e-11, 0.0])
    @pytest.mark.parametrize("full_rank", [False, True], ids=["low-rank", "full-rank"])
    def test_same_decision_as_cholesky_rule(self, n, lam_min, full_rank):
        rank = n - 1 if full_rank else 4
        m = planted_matrix(n, rank, lam_min, seed=n + rank)
        symmetrized = (m + m.conj().T) / 2.0
        refusal = psd_refusal_cholesky(symmetrized)
        if refusal is None:
            rho = DensityMatrix(("A",), (n,), m)
            assert rho.matrix.tobytes() == symmetrized.tobytes()
        else:
            with pytest.raises(ContractError) as caught:
                DensityMatrix(("A",), (n,), m)
            assert type(caught.value) is ContractError
            assert str(caught.value) == refusal
        # Planted values above -PSD_TOL are accepted, those below refused.
        assert (refusal is None) == (lam_min > -1e-9)


def spy_calls(monkeypatch, name):
    """Record the size of every ``numpy.linalg.<name>`` call; returns the list."""
    sizes = []
    real = getattr(np.linalg, name)

    def spy(a, *args, **kwargs):
        sizes.append(a.shape[-1])
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, spy)
    return sizes


class TestPsdCertificateCost:
    """Solver calls are counted, so these hold on any machine."""

    def test_low_rank_marginal_needs_no_cholesky(self, monkeypatch):
        m = partial_trace(haar(4, 32, 32, 91), ("B", "C")).matrix
        cholesky = spy_calls(monkeypatch, "cholesky")
        DensityMatrix(("B", "C"), (32, 32), m)
        assert cholesky == []

    def test_full_rank_matrix_needs_one_cholesky(self, monkeypatch):
        m = planted_matrix(128, 127, 0.0, seed=92)
        cholesky = spy_calls(monkeypatch, "cholesky")
        DensityMatrix(("A",), (128,), m)
        assert cholesky == [128]

    def test_reconstruct_makes_four_eigh_and_no_eigvalsh(self, monkeypatch):
        # rho_A, rho_B, rho_C and the 128x128 rho_AB; the 1024x1024 rho_BC
        # reuses the sketch that validated it.
        psi = haar(4, 32, 32, 93)
        rho_ab = DensityMatrix(("A", "B"), (4, 32), partial_trace(psi, ("A", "B")).matrix)
        rho_bc = DensityMatrix(("B", "C"), (32, 32), partial_trace(psi, ("B", "C")).matrix)
        eigh = spy_calls(monkeypatch, "eigh")
        eigvalsh = spy_calls(monkeypatch, "eigvalsh")
        reconstruct_tripartite(rho_ab, rho_bc, psi.dims)
        assert len(eigh) == 4 and eigvalsh == []

    @pytest.mark.parametrize("dims", [(4, 32, 32), (8, 64, 8)])
    def test_each_large_input_is_sketched_once(self, monkeypatch, dims):
        sizes = []
        real = states._range_sketch

        def spy(m, k):
            sizes.append(m.shape[0])
            return real(m, k)

        monkeypatch.setattr(states, "_range_sketch", spy)
        psi = haar(*dims, 94)
        d_a, d_b, d_c = dims
        rho_ab = DensityMatrix(("A", "B"), (d_a, d_b), partial_trace(psi, ("A", "B")).matrix)
        rho_bc = DensityMatrix(("B", "C"), (d_b, d_c), partial_trace(psi, ("B", "C")).matrix)
        assert sizes == [d_a * d_b, d_b * d_c]
        reconstruct_tripartite(rho_ab, rho_bc, psi.dims)
        assert sizes == [d_a * d_b, d_b * d_c]


class TestReadOnlyMatrix:
    @pytest.mark.parametrize("dims", [(2, 3, 4), (4, 32, 32)], ids=["small", "sketched"])
    def test_matrix_is_read_only_and_input_untouched(self, dims):
        m = partial_trace(haar(*dims, 95), ("B", "C")).matrix.copy()
        before = m.copy()
        rho = DensityMatrix(("B", "C"), dims[1:], m)
        assert (rho._sketch is not None) == (m.shape[0] >= 128)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 0.0
        np.testing.assert_array_equal(m, before)
        assert m.flags.writeable


def zero_rowed_matrix(n, zero_rows, seed):
    """Rank-2 n x n trace-one matrix, Hermitian up to rounding, with planted signed zeros.

    Rows and columns ``zero_rows`` are exactly zero, written as ``-0.0`` real
    and imaginary parts in the rows and ``-0.0 + 0.0j`` in the columns.
    """
    rng = np.random.default_rng(seed)
    t = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    t[zero_rows] = 0.0
    m = t @ t.conj().T
    m /= m.trace().real
    m[:, zero_rows] = complex(-0.0, 0.0)
    m[zero_rows, :] = complex(-0.0, -0.0)
    return m


class TestRowBlocks:
    """Validation streams over row blocks; n = 1000 is no multiple of the block rows."""

    CASES = [(("A",), (2,), [1]), (("A", "B"), (8, 125), [0, 517, 998, 999])]
    IDS = ["2x2", "1000x1000"]

    def test_sizes_end_in_a_ragged_block(self):
        blocks = list(states._row_blocks(1000))
        sizes = [b.stop - b.start for b in blocks]
        assert blocks[0].start == 0 and blocks[-1].stop == 1000
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        assert len(sizes) > 1 and 0 < sizes[-1] < sizes[0]
        assert [(b.start, b.stop) for b in states._row_blocks(2)] == [(0, 2)]

    @pytest.mark.parametrize("subs,dims,zero_rows", CASES, ids=IDS)
    def test_stored_bytes_equal_full_symmetrization(self, subs, dims, zero_rows):
        n = int(np.prod(dims))
        m = zero_rowed_matrix(n, zero_rows, seed=n)
        m[0, -1] += 1e-13j  # a rounding-size asymmetry to symmetrize away
        rho = DensityMatrix(subs, dims, m)
        assert rho.matrix.tobytes() == ((m + m.conj().T) / 2.0).tobytes()
        assert np.signbit(rho.matrix[zero_rows].imag).any()
        # Complex division by 2.0 turns some -0.0 real parts into +0.0, a
        # multiplication by 0.5 does not: the planted zeros tell them apart.
        assert rho.matrix.tobytes() != ((m + m.conj().T) * 0.5).tobytes()

    @pytest.mark.parametrize("subs,dims,zero_rows", CASES, ids=IDS)
    def test_gap_in_last_block_gives_the_full_message(self, subs, dims, zero_rows):
        n = int(np.prod(dims))
        m = zero_rowed_matrix(n, zero_rows, seed=n + 1)
        m[0, 1] += 1e-3
        m[n - 1, n - 2] += 2.5e-3j
        gaps = np.abs(m - m.conj().T)
        last = list(states._row_blocks(n))[-1]
        assert gaps[last].max() == gaps.max() > gaps[: last.start].max(initial=0.0)
        with pytest.raises(ContractError) as caught:
            DensityMatrix(subs, dims, m)
        assert type(caught.value) is ContractError
        assert str(caught.value) == f"matrix is not Hermitian: max |M - M^dag| = {gaps.max():.3e}"


class TestMemoryPeak:
    """Traced allocation peaks are byte counts, so these hold on any machine."""

    MIB = 1 << 20

    def test_validation_holds_only_the_stored_matrix(self):
        m = partial_trace(haar(4, 32, 32, 96), ("B", "C")).matrix.copy()
        assert peak_bytes(lambda: DensityMatrix(("B", "C"), (32, 32), m)) <= (16 + 6) * self.MIB

    def test_lopsided_reconstruct_holds_no_large_temporary(self):
        psi = haar(4, 32, 32, 97)
        rho_ab = DensityMatrix(("A", "B"), (4, 32), partial_trace(psi, ("A", "B")).matrix)
        rho_bc = DensityMatrix(("B", "C"), (32, 32), partial_trace(psi, ("B", "C")).matrix)
        peak = peak_bytes(lambda: reconstruct_tripartite(rho_ab, rho_bc, psi.dims))
        assert peak <= 6 * self.MIB


def in_heap(address: int) -> bool:
    with open("/proc/self/maps", encoding="ascii") as maps:
        for line in maps:
            if line.rstrip().endswith("[heap]"):
                lo, hi = (int(x, 16) for x in line.split()[0].split("-"))
                if lo <= address < hi:
                    return True
    return False


class TestMmapThreshold:
    def test_sets_the_threshold_and_twice_it_as_trim_threshold(self):
        calls = []
        assert states._fix_mmap_threshold({}, lambda *args: calls.append(args) or 1)
        assert calls == [(-3, 4 << 20), (-1, 8 << 20)]

    @pytest.mark.parametrize(
        "environ",
        [{"MALLOC_MMAP_THRESHOLD_": "131072"}, {"GLIBC_TUNABLES": "glibc.malloc.mmap_threshold=0"}],
    )
    def test_leaves_a_threshold_from_the_environment(self, environ):
        calls = []
        assert not states._fix_mmap_threshold(environ, lambda *args: calls.append(args) or 1)
        assert calls == []

    @pytest.mark.skipif(
        platform.libc_ver()[0] != "glibc" or "MALLOC_MMAP_THRESHOLD_" in os.environ,
        reason="glibc with its default thresholds only",
    )
    def test_a_large_matrix_allocated_after_one_was_freed_is_not_in_the_heap(self):
        # glibc's dynamic threshold would place the second one in the heap.
        first = np.ones((1024, 1024), dtype=complex)
        del first
        second = np.ones((1024, 1024), dtype=complex)
        assert not in_heap(second.ctypes.data)


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
