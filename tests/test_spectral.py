import re

import numpy as np
import pytest

from tripure import (
    ContractError,
    DensityMatrix,
    Dims,
    GenericityViolation,
    NumericalError,
    SpectrumMismatch,
    detect_degeneracy,
    eig_hermitian,
    match_spectra,
    partial_trace,
    reconstruct_tripartite,
)
from tripure import states
from tripure.spectral import RANK_LEAK_TOL, SpectralDecomposition

from conftest import haar
from oracles import degeneracy_clusters_loop, haar_unitary, partial_trace_pure_loops


def spec_of(vals, vecs=None):
    vals = np.asarray(vals, dtype=float)
    n = len(vals)
    vecs = np.eye(n, dtype=complex) if vecs is None else vecs
    return SpectralDecomposition(vals, vecs, n, n)


class TestEigHermitian:
    def test_isotropic_qubit(self):
        spec = eig_hermitian(DensityMatrix(("A",), (2,), np.eye(2) / 2.0))
        assert spec.rank == 2
        np.testing.assert_allclose(spec.eigenvalues, [0.5, 0.5], atol=1e-14)

    def test_w_state_marginal(self, w_state):
        # oracle: brute-force partial trace, diagonal by the state's symmetry
        rho_a = partial_trace_pure_loops(w_state.amplitudes, (2, 2, 2), "A")
        spec = eig_hermitian(DensityMatrix(("A",), (2,), rho_a))
        np.testing.assert_allclose(spec.eigenvalues, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)

    def test_explicit_diagonal_truncation(self):
        rho = DensityMatrix(("A",), (3,), np.diag([0.7, 0.3, 0.0]))
        spec = eig_hermitian(rho, rank_threshold=1e-12)
        assert spec.rank == 2
        np.testing.assert_allclose(spec.eigenvalues, [0.7, 0.3], atol=1e-14)

    @pytest.mark.parametrize("seed", range(4))
    def test_orthonormal_and_faithful(self, seed):
        rho = partial_trace(haar(3, 3, 3, seed), ("A", "B"))
        spec = eig_hermitian(rho)
        gram = spec.eigenvectors.conj().T @ spec.eigenvectors
        assert np.abs(gram - np.eye(spec.rank)).max() <= 1e-10
        rebuilt = (spec.eigenvectors * spec.eigenvalues) @ spec.eigenvectors.conj().T
        assert np.linalg.norm(rho.matrix - rebuilt) <= RANK_LEAK_TOL
        assert abs(spec.eigenvalues.sum() - 1.0) <= RANK_LEAK_TOL

    def test_descending_order(self):
        rho = partial_trace(haar(2, 3, 4, 7), ("B", "C"))
        spec = eig_hermitian(rho)
        assert np.all(np.diff(spec.eigenvalues) <= 0)

    @pytest.mark.parametrize("bad", [0.0, -1e-3, 1.0, 2.0])
    def test_threshold_range(self, bad):
        rho = DensityMatrix(("A",), (2,), np.eye(2) / 2.0)
        with pytest.raises(ContractError):
            eig_hermitian(rho, rank_threshold=bad)

    def test_solver_failure_is_typed(self, monkeypatch):
        def boom(_):
            raise np.linalg.LinAlgError("no convergence")

        monkeypatch.setattr(np.linalg, "eigh", boom)
        rho = DensityMatrix(("A",), (2,), np.eye(2) / 2.0)
        with pytest.raises(NumericalError):
            eig_hermitian(rho)

    @pytest.mark.parametrize("seed", range(3))
    def test_idempotent_reconstruction(self, seed):
        rho = partial_trace(haar(2, 2, 2, 30 + seed), ("A",))
        spec = eig_hermitian(rho)
        rebuilt = (spec.eigenvectors * spec.eigenvalues) @ spec.eigenvectors.conj().T
        spec2 = eig_hermitian(DensityMatrix(("A",), (2,), rebuilt))
        np.testing.assert_allclose(spec2.eigenvalues, spec.eigenvalues, atol=1e-10)

    @pytest.mark.parametrize("seed", range(3))
    def test_eigenvector_unique_up_to_phase(self, seed):
        rho = partial_trace(haar(2, 3, 4, 60 + seed), ("A",))
        spec = eig_hermitian(rho)
        rebuilt = (spec.eigenvectors * spec.eigenvalues) @ spec.eigenvectors.conj().T
        spec2 = eig_hermitian(DensityMatrix(("A",), (2,), rebuilt))
        for col in range(spec.rank):
            overlap = abs(np.vdot(spec2.eigenvectors[:, col], spec.eigenvectors[:, col]))
            assert overlap >= 1.0 - 1e-9


class TestDetectDegeneracy:
    def test_ghz_marginal_cluster(self, ghz_state):
        spec = eig_hermitian(partial_trace(ghz_state, ("A",)))
        assert detect_degeneracy(spec, gap_tol=1e-8) == [[0, 1]]

    def test_w_marginal_generic(self, w_state):
        spec = eig_hermitian(partial_trace(w_state, ("A",)))
        assert detect_degeneracy(spec, gap_tol=1e-8) == []

    def test_threshold_forced_cluster(self):
        spec = spec_of([0.4, 0.4 - 5e-9, 0.2])
        assert detect_degeneracy(spec, gap_tol=1e-8) == [[0, 1]]

    def test_two_separate_clusters(self):
        spec = spec_of([0.3, 0.3, 0.2, 0.2])
        assert detect_degeneracy(spec, gap_tol=1e-8) == [[0, 1], [2, 3]]

    @pytest.mark.parametrize("gap_tol", [1e-8, 2.0**-20])
    def test_matches_loop_on_planted_steps(self, gap_tol):
        # Steps of 0, gap_tol / 2, gap_tol and 2 * gap_tol put consecutive
        # gaps below, at and above the tolerance (exactly at it for the
        # power of two, whose steps from 0.5 round to nothing); a rank below
        # the length checks that only the retained eigenvalues are scanned.
        rng = np.random.default_rng(5)
        steps = np.array([0.0, 0.5, 1.0, 2.0]) * gap_tol
        for _ in range(2000):
            n = int(rng.integers(1, 17))
            vals = 0.5 - np.concatenate([[0.0], np.cumsum(rng.choice(steps, n - 1))])
            rank = int(rng.integers(1, n + 1))
            spec = SpectralDecomposition(vals, np.eye(n, dtype=complex), n, rank)
            clusters = detect_degeneracy(spec, gap_tol=gap_tol)
            assert clusters == degeneracy_clusters_loop(vals, rank, gap_tol)
            assert all(type(idx) is int for cluster in clusters for idx in cluster)


class TestMatchSpectra:
    def test_w_state_pairing(self, w_state):
        spec_a = eig_hermitian(partial_trace(w_state, ("A",)))
        spec_bc = eig_hermitian(partial_trace(w_state, ("B", "C")))
        pairing = match_spectra(spec_a, spec_bc)
        assert pairing.rank == 2
        assert pairing.max_pair_gap <= 1e-10

    @pytest.mark.parametrize("seed", range(6))
    def test_independent_states_mismatch(self, seed):
        spec_a = eig_hermitian(partial_trace(haar(2, 2, 2, seed), ("A",)))
        spec_bc = eig_hermitian(partial_trace(haar(2, 2, 2, 1000 + seed), ("B", "C")))
        with pytest.raises(SpectrumMismatch):
            match_spectra(spec_a, spec_bc)

    def test_ghz_degenerate(self, ghz_state):
        spec_a = eig_hermitian(partial_trace(ghz_state, ("A",)))
        spec_bc = eig_hermitian(partial_trace(ghz_state, ("B", "C")))
        with pytest.raises(GenericityViolation):
            match_spectra(spec_a, spec_bc)

    def test_rank_mismatch(self):
        with pytest.raises(SpectrumMismatch):
            match_spectra(spec_of([0.6, 0.4]), spec_of([0.6, 0.3, 0.1]))

    @pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3, 4), (3, 3, 3)])
    @pytest.mark.parametrize("seed", range(3))
    def test_haar_complementarity(self, dims, seed):
        psi = haar(*dims, 300 + seed)
        spec_a = eig_hermitian(partial_trace(psi, ("A",)))
        spec_bc = eig_hermitian(partial_trace(psi, ("B", "C")))
        assert spec_a.rank == spec_bc.rank
        assert np.abs(spec_a.eigenvalues - spec_bc.eigenvalues).max() <= 1e-10


def spy_eigh(monkeypatch):
    """Record the size of every numpy.linalg.eigh call; returns the list."""
    sizes = []
    real = np.linalg.eigh

    def spy(a, *args, **kwargs):
        sizes.append(a.shape[-1])
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    return sizes


def density_with_spectrum(vals, n, seed):
    """n x n density matrix with the given nonzero eigenvalues on a random basis."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, len(vals))) + 1j * rng.standard_normal((n, len(vals)))
    q, _ = np.linalg.qr(z)
    vals = np.asarray(vals, dtype=float) / np.sum(vals)
    return DensityMatrix(("A",), (n,), (q * vals) @ q.conj().T)


class TestLowRankSketch:
    @pytest.mark.parametrize(
        "dims,keep,bound_label",
        [((4, 32, 32), ("B", "C"), ("A",)), ((8, 64, 8), ("A", "B"), ("C",))],
    )
    def test_sketch_matches_full_solve(self, monkeypatch, dims, keep, bound_label):
        psi = haar(*dims, 71)
        rho = partial_trace(psi, keep)
        bound = eig_hermitian(partial_trace(psi, bound_label)).rank
        full = eig_hermitian(rho)
        sizes = spy_eigh(monkeypatch)
        sketched = eig_hermitian(rho, rank_bound=bound)
        assert max(sizes) < 512
        assert sketched.rank == full.rank == bound
        assert np.abs(sketched.eigenvalues - full.eigenvalues).max() <= 1e-13
        proj_full = full.eigenvectors @ full.eigenvectors.conj().T
        proj_sketch = sketched.eigenvectors @ sketched.eigenvectors.conj().T
        assert np.abs(proj_sketch - proj_full).max() <= 1e-12

    @pytest.mark.parametrize("dims", [(4, 32, 32), (8, 64, 8)])
    def test_pipeline_runs_no_large_eigensolve(self, monkeypatch, dims):
        psi = haar(*dims, 72)
        rho_ab, rho_bc = partial_trace(psi, ("A", "B")), partial_trace(psi, ("B", "C"))
        sizes = spy_eigh(monkeypatch)
        report = reconstruct_tripartite(rho_ab, rho_bc, Dims(*dims))
        assert len(sizes) == 5 and max(sizes) < 512
        assert abs(np.vdot(psi.amplitudes, report.state.amplitudes)) ** 2 >= 1.0 - 1e-12

    def test_rank_above_sketch_falls_back(self, monkeypatch):
        rho = density_with_spectrum(np.linspace(1.0, 2.0, 40), 256, 73)
        full = eig_hermitian(rho)
        sizes = spy_eigh(monkeypatch)
        sketched = eig_hermitian(rho, rank_bound=4)
        assert 256 in sizes
        assert sketched.rank == full.rank == 40
        np.testing.assert_array_equal(sketched.eigenvalues, full.eigenvalues)
        np.testing.assert_array_equal(sketched.eigenvectors, full.eigenvectors)

    def test_small_tail_beyond_sketch_falls_back(self, monkeypatch):
        # 30 tail eigenvalues of 1e-8 sit above the rank threshold but do not
        # fit in 4 + 8 probe columns: the certificate must refuse the sketch.
        rho = density_with_spectrum([0.4, 0.3, 0.2, 0.1 - 30e-8] + [1e-8] * 30, 256, 74)
        full = eig_hermitian(rho)
        sizes = spy_eigh(monkeypatch)
        sketched = eig_hermitian(rho, rank_bound=4)
        assert 256 in sizes
        assert sketched.rank == full.rank == 34
        np.testing.assert_array_equal(sketched.eigenvalues, full.eigenvalues)
        np.testing.assert_array_equal(sketched.eigenvectors, full.eigenvectors)

    def test_small_tail_beyond_stored_sketch_falls_back(self, monkeypatch):
        # 30 tail eigenvalues of 5e-11 are small enough for the validation
        # sketch to certify PSD, and it is stored, but too large for its
        # residual plus the discarded tail to stay below the rank threshold.
        rho = density_with_spectrum([0.4, 0.3, 0.2, 0.1 - 30 * 5e-11] + [5e-11] * 30, 256, 77)
        assert rho._sketch is not None
        full = eig_hermitian(rho)
        sizes = spy_eigh(monkeypatch)
        sketched = eig_hermitian(rho, rank_bound=4)
        assert sizes == [256]
        assert sketched.rank == full.rank == 4
        np.testing.assert_array_equal(sketched.eigenvalues, full.eigenvalues)
        np.testing.assert_array_equal(sketched.eigenvectors, full.eigenvectors)

    def test_small_matrix_never_sketches(self, monkeypatch):
        rho = partial_trace(haar(4, 4, 4, 75), ("B", "C"))
        full = eig_hermitian(rho)
        sizes = spy_eigh(monkeypatch)
        bounded = eig_hermitian(rho, rank_bound=4)
        assert sizes == [16]
        np.testing.assert_array_equal(bounded.eigenvectors, full.eigenvectors)

    def test_rank_mismatched_pair_is_spectrum_mismatch(self):
        # Mix psi with (I x I x V)psi: rho_AB and rho_B are unchanged, but
        # rho_BC gets rank 8 while rho_A keeps rank 4.
        from oracles import haar_unitary
        dims = (4, 32, 32)
        psi = haar(*dims, 76).as_tensor()
        v = haar_unitary(dims[2], np.random.default_rng(76))
        twisted = np.einsum("abc,dc->abd", psi, v)
        p = 0.7
        m1 = psi.reshape(dims[0], -1)
        m2 = twisted.reshape(dims[0], -1)
        bc = p * (m1.T @ m1.conj()) + (1 - p) * (m2.T @ m2.conj())
        t = psi.reshape(dims[0] * dims[1], dims[2])
        rho_ab = DensityMatrix(("A", "B"), dims[:2], t @ t.conj().T)
        rho_bc = DensityMatrix(("B", "C"), dims[1:], bc)
        with pytest.raises(SpectrumMismatch, match="retained ranks differ: 4 vs 8"):
            reconstruct_tripartite(rho_ab, rho_bc, Dims(*dims))


class TestBlockedSketchResidual:
    """The residual summed over row blocks agrees with the norm of the full residual."""

    @pytest.mark.parametrize(
        "n,rank,k",
        [(2, 1, 2), (1000, 4, 16), (1000, 40, 16), (1024, 4, 16)],
        ids=["2x2", "certified", "too-few-probes", "lopsided"],
    )
    def test_matches_full_norm(self, n, rank, k):
        m = density_with_spectrum(np.linspace(1.0, 2.0, rank), n, seed=n + rank).matrix
        vals, vecs, residual = states._range_sketch(m, k)
        full = (vecs * vals) @ vecs.conj().T
        full -= m
        expected = np.linalg.norm(full)
        assert abs(residual - expected) <= max(1e-12 * expected, 1e-18)

    def test_probes_are_the_seeded_draw_read_only(self):
        rng = np.random.default_rng(states.SKETCH_SEED)
        fresh = rng.standard_normal((1024, 16)) + 1j * rng.standard_normal((1024, 16))
        probes = states._probes(1024, 16)
        assert probes.tobytes() == fresh.tobytes() and probes.shape == fresh.shape
        assert not probes.flags.writeable
        assert states._probes(1024, 16) is probes


class TestSketchReuse:
    """A validated matrix and a derived copy of its bits get the same eigenpairs."""

    @pytest.mark.parametrize(
        "dims,keep,bound",
        [
            ((4, 32, 32), ("B", "C"), None),
            ((8, 64, 8), ("A", "B"), None),
            ((8, 64, 8), ("B", "C"), None),
            ((4, 32, 32), ("B", "C"), 12),
        ],
        ids=["lopsided-bc", "cli-ab", "cli-bc", "no-stored-sketch-fits"],
    )
    def test_reuse_equals_recomputation(self, dims, keep, bound):
        # A bound of 12 asks for 20 probes; the stored sketch has 16.
        psi = haar(*dims, 78)
        rank = eig_hermitian(partial_trace(psi, tuple(s for s in "ABC" if s not in keep))).rank
        sizes = dict(zip("ABC", dims))
        rho = DensityMatrix(keep, tuple(sizes[s] for s in keep), partial_trace(psi, keep).matrix)
        copy = DensityMatrix._derived(rho.subsystems, rho.dims, rho.matrix)
        assert copy.matrix.tobytes() == rho.matrix.tobytes()
        assert rho._sketch is not None and copy._sketch is None
        bound = rank if bound is None else bound
        ours, theirs = eig_hermitian(rho, rank_bound=bound), eig_hermitian(copy, rank_bound=bound)
        assert ours.rank == rank
        assert ours.eigenvalues.tobytes() == theirs.eigenvalues.tobytes()
        assert ours.eigenvectors.tobytes() == theirs.eigenvectors.tobytes()


class TestTruncationRefusal:
    def test_dense_path_discarding_too_much_is_refused(self):
        # Tail eigenvalues 3e-4 and 4e-4 lie below the threshold: their
        # 2-norm, 5e-4, is the residual the truncation leaves.
        rho = density_with_spectrum([0.5, 0.3, 0.2 - 7e-4, 3e-4, 4e-4], 6, 79)
        with pytest.raises(NumericalError) as caught:
            eig_hermitian(rho, rank_threshold=1e-3)
        assert type(caught.value) is NumericalError
        assert str(caught.value) == (
            "rank truncation at 1.0e-03 discards too much: Frobenius residual 5.000e-04"
        )

    def test_retained_sum_short_of_one_is_refused(self):
        # 300 tail eigenvalues of 5e-9 leave a residual of only 8.7e-8, but
        # take 1.5e-6 of the trace with them.
        rho = density_with_spectrum([0.5, 0.5 - 1e-9] + [5e-9] * 300, 400, 80)
        with pytest.raises(NumericalError) as caught:
            eig_hermitian(rho, rank_threshold=1e-8)
        assert type(caught.value) is NumericalError
        assert re.fullmatch(
            r"retained eigenvalue sum 0\.99999\d+ deviates from 1", str(caught.value)
        )
