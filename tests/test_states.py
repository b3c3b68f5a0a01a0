import itertools
import re
import warnings
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripure import (
    ContractError,
    DensityMatrix,
    Dims,
    PureState,
    eig_hermitian,
    fidelity,
    flat_index,
    partial_trace,
    purity,
    reconstruct_tripartite,
    sample_haar_state,
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


def symmetrized(m):
    """(M + M^dag) / 2, formed as ``DensityMatrix`` validation forms it."""
    mh = np.conjugate(m.T, order="C")
    mh += m
    mh /= 2.0
    return mh


@st.composite
def density_matrices(draw):
    """A validated DensityMatrix on 1 to 3 subsystems of 1 to 4 levels each.

    A random Gram matrix scaled to trace one, made non-Hermitian by up to
    1e-12 or made real with imaginary zeros of random sign, so validation's
    symmetrization meets rounding and signed zeros.
    """
    subs = draw(st.sampled_from(["A", "B", "C", "AB", "AC", "BC", "ABC"]))
    dims = tuple(draw(st.integers(1, 4)) for _ in subs)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = int(np.prod(dims))
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    kind = draw(st.sampled_from(["complex", "real", "perturbed"]))
    if kind == "real":
        g = g.real
    m = (g @ g.conj().T).astype(complex)
    m /= m.trace().real
    if kind == "real":
        m.imag = np.copysign(0.0, rng.standard_normal((n, n)))
    elif kind == "perturbed":
        m += 1e-12 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return DensityMatrix(tuple(subs), dims, m)


def unchanged_by_symmetrizing(m):
    return np.array_equal(m, m.conj().T) and symmetrized(m).tobytes() == m.tobytes()


class TestDerivedMatricesAreExactlyHermitian:
    """Derived density matrices are stored as computed, so they must already be exactly Hermitian.

    Exactly: equal to the conjugate transpose, and unchanged bit for bit,
    signed zeros included, by (M + M^dag) / 2.
    """

    @settings(max_examples=150)
    @given(rho=density_matrices())
    def test_every_partial_trace_of_a_density_matrix(self, rho):
        subs = rho.subsystems
        for size in range(1, len(subs)):
            for keep in itertools.combinations(subs, size):
                reduced = partial_trace(rho, keep)
                assert unchanged_by_symmetrizing(reduced.matrix)
                for inner in itertools.combinations(keep, size - 1):
                    if inner:  # a derived matrix traced again
                        assert unchanged_by_symmetrizing(partial_trace(reduced, inner).matrix)

    @pytest.mark.parametrize("keep", ["A", "B", "C", "AB", "AC", "BC"])
    def test_pure_state_partial_trace(self, keep):
        assert unchanged_by_symmetrizing(partial_trace(haar(3, 4, 5, 41), keep).matrix)

    @settings(max_examples=20)
    @given(dims=st.tuples(*[st.integers(2, 4)] * 3), seed=st.integers(0, 2**32 - 1))
    def test_every_matrix_reconstruct_derives(self, dims, seed):
        psi = haar(*dims, seed)
        rng = np.random.default_rng(seed)
        inputs = []
        for keep in ("AB", "BC"):
            m = partial_trace(psi, keep).matrix
            noise = rng.standard_normal(m.shape) + 1j * rng.standard_normal(m.shape)
            sizes = tuple(psi.dims.of(s) for s in keep)
            inputs.append(DensityMatrix(tuple(keep), sizes, m + 1e-13 * noise))
        derived = []
        real = DensityMatrix._derived.__func__

        def spy(cls, subsystems, dims, m):
            derived.append(m)
            return real(cls, subsystems, dims, m)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(DensityMatrix, "_derived", classmethod(spy))
            reconstruct_tripartite(*inputs, psi.dims)
        assert len(derived) >= 5  # rho_A, rho_B twice, rho_C, and their average rho_B
        for m in derived:
            assert unchanged_by_symmetrizing(m)

    def test_derived_stores_the_given_array_read_only(self):
        m = np.eye(2, dtype=complex) / 2
        rho = DensityMatrix._derived(("A",), (2,), m)
        assert rho.matrix is m and not m.flags.writeable


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

    @pytest.mark.parametrize("n", [2, 64])
    @pytest.mark.parametrize("pos", [(0, 0), (0, 1), (1, 0)])
    @pytest.mark.parametrize("bad", [np.nan, -np.inf, complex(0.0, np.inf)])
    def test_density_names_one_non_finite_entry(self, n, pos, bad):
        # One entry, unmatched by its mirror, on or off the diagonal.
        m = np.eye(n, dtype=complex) / n
        m[pos] = bad
        with pytest.raises(ContractError) as caught:
            DensityMatrix(("A",), (n,), m)
        assert str(caught.value) == "matrix has non-finite entries"

    def test_density_overflowing_gap_is_not_hermitian(self):
        m = np.eye(64, dtype=complex) / 64
        m[0, 1], m[1, 0] = 1e308, -1e308
        with np.errstate(over="ignore"), pytest.raises(ContractError) as caught:
            DensityMatrix(("A",), (64,), m)
        assert str(caught.value) == "matrix is not Hermitian: max |M - M^dag| = inf"

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


def raises_exactly(cls, message):
    return pytest.raises(cls, match="^" + re.escape(message) + "$")


def entrywise_refusal(m):
    """The refusal of the entrywise non-finite and Hermitian rules for ``m``, or None."""
    gap = np.abs(m - m.conj().T).max()
    if not np.isfinite(m).all():
        return "matrix has non-finite entries"
    if gap > states.HERM_TOL:
        return f"matrix is not Hermitian: max |M - M^dag| = {gap:.3e}"
    return None


class TestHermitianScreen:
    """Blocks screened by their sum of squares get the entrywise rule's outcome and message.

    The 1024 x 1024 rho_BC of a (4,32,32) state has 64 row blocks of 16 rows.
    """

    N = 1024
    LAST = N - 1

    @pytest.fixture(scope="class")
    def base(self):
        return partial_trace(haar(4, 32, 32, 11), ("B", "C")).matrix

    @pytest.mark.parametrize("size", [1.0001e-10, 0.9999e-10], ids=["above", "below"])
    @pytest.mark.parametrize("where", [(0, 5), (LAST, LAST - 2)], ids=["first", "last"])
    def test_one_planted_entry(self, base, size, where):
        m = base.copy()
        m[where] += size * (0.6 + 0.8j)
        self.check(m)

    def test_many_small_entries_over_one_block(self, base):
        # 16 entries of 0.9 HERM_TOL in the first block: its Frobenius norm
        # is 3.6 HERM_TOL, but no entry is over the tolerance.
        m = base.copy()
        rows = np.arange(16)
        m[rows, 512 + rows] += 0.9e-10
        self.check(m)
        assert entrywise_refusal(m) is None

    def test_nan_in_last_block(self, base):
        m = base.copy()
        m[self.LAST, self.LAST - 1] = np.nan
        self.check(m)

    def check(self, m):
        refusal = entrywise_refusal(m)
        if refusal is None:
            rho = DensityMatrix(("B", "C"), (32, 32), m)
            assert rho.matrix.tobytes() == symmetrized(m).tobytes()
        else:
            with raises_exactly(ContractError, refusal):
                DensityMatrix(("B", "C"), (32, 32), m)


class TestLargeEntries:
    """An entry above any accepted matrix's is refused by the PSD rule, with no warning.

    Each input is a Haar marginal with one planted off-diagonal pair: 1e308
    overflows the symmetrizing sum, 1e200 the sketch's sums of squares.
    """

    @staticmethod
    def bound(n):
        return 1.0 + states.TRACE_TOL + n * (2.0 * states.PSD_TOL + states.HERM_TOL)

    @pytest.mark.parametrize("value", [1e308, 1e200, 1e5, 1.5])
    @pytest.mark.parametrize("dims", [(2, 2, 2), (4, 16, 4), (4, 32, 32)], ids=["4", "64", "1024"])
    @pytest.mark.parametrize("action", ["default", "error"])
    def test_refused_as_not_psd(self, value, dims, action):
        m = partial_trace(haar(*dims, 3), ("B", "C")).matrix.copy()
        n = m.shape[0]
        m[0, 1] = m[1, 0] = value
        message = (
            f"matrix is not positive semidefinite: max |M_ij| = {value:.3e} "
            f"exceeds {self.bound(n):.10g}"
        )
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter(action)
            with raises_exactly(ContractError, message):
                DensityMatrix(("B", "C"), dims[1:], m)
        assert seen == []

    @pytest.mark.parametrize("n", [1, 4, 64])
    def test_pure_state_meets_the_bound(self, n):
        # |0><0| has the largest entry a trace-one PSD matrix can have.
        m = np.zeros((n, n), dtype=complex)
        m[0, 0] = 1.0 + 0.9 * states.TRACE_TOL
        assert DensityMatrix(("A",), (n,), m).matrix[0, 0] == m[0, 0]

    def test_earlier_checks_keep_their_messages(self):
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = 1e200
        with raises_exactly(ContractError, entrywise_refusal(m)):
            DensityMatrix(("A",), (4,), m)
        m[1, 0] = 1e200
        m[2, 2] = 5.0
        with raises_exactly(ContractError, "trace (5.75+0j) deviates from 1 by more than 1e-10"):
            DensityMatrix(("A",), (4,), m)


class TestHalvingBits:
    """The halving of (M + M^dag) keeps the bits of a complex division by 2.0.

    Every off-diagonal pair takes its real and imaginary parts from signed
    zeros and subnormals, including -5e-324, whose half rounds to -0.0.
    """

    PARTS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e-20]

    @pytest.mark.parametrize("n", [70, 1000])
    def test_stored_bytes_equal_full_symmetrization(self, n):
        m = np.eye(n, dtype=complex) / n
        upper = np.triu_indices(n, 1)
        combos = np.array(list(itertools.product(self.PARTS, repeat=4)))
        picks = combos[np.arange(upper[0].size) % len(combos)]
        m.real[upper], m.imag[upper] = picks[:, 0], picks[:, 1]
        m.T.real[upper], m.T.imag[upper] = picks[:, 2], picks[:, 3]
        rho = DensityMatrix(("A",), (n,), m)
        assert rho.matrix.tobytes() == symmetrized(m).tobytes()


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


class TestSketchOracles:
    """The sketch certificate and eig_hermitian's sketch against eigvalsh and eigh oracles."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        n=st.integers(48, 256),
        rank=st.integers(1, 40),
        tail=st.sampled_from([0.0, 5e-11, 1e-8]),
        tail_count=st.integers(1, 30),
        planted=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_sketch_agrees_with_dense_oracles(self, n, rank, tail, tail_count, planted, seed):
        rng = np.random.default_rng(seed)
        tail_vals = [tail] * min(tail_count if tail else 0, n - rank - 1)
        planted_vals = [-2e-9] if planted else []
        positive = rng.uniform(0.5, 1.5, rank)
        positive *= (1.0 - sum(tail_vals) - sum(planted_vals)) / positive.sum()
        vals = np.concatenate([positive, tail_vals, planted_vals])
        z = rng.standard_normal((n, vals.size)) + 1j * rng.standard_normal((n, vals.size))
        q, _ = np.linalg.qr(z)
        m = (q * vals) @ q.conj().T
        if planted:
            with pytest.raises(ContractError) as caught:
                DensityMatrix(("A",), (n,), m)
            assert type(caught.value) is ContractError
            assert str(caught.value) == psd_refusal_cholesky(symmetrized(m))
            return
        rho = DensityMatrix(("A",), (n,), m)
        if rho._sketch is not None:
            assert np.linalg.eigvalsh(rho.matrix)[0] >= -states.PSD_TOL / 2 - 1e-15
        dense = eig_hermitian(rho)
        sizes = []
        real = np.linalg.eigh

        def spy(a, *args, **kwargs):
            sizes.append(a.shape[-1])
            return real(a, *args, **kwargs)

        with mock.patch.object(np.linalg, "eigh", spy):
            spec = eig_hermitian(rho, rank_bound=dense.rank)
        if n in sizes:  # the certificate refused the sketch and the dense solve ran
            return
        assert spec.rank == dense.rank
        # The rank planted eigenvalues lie at least 1 / (3 * rank) above the
        # tail, so their projector is well conditioned.  The eigenvectors of a
        # kept 1e-8 tail are fixed by any solver only to about eps / 1e-8, so
        # the tail is compared through V diag(lam) V^dag, which is not.
        top, top_dense = spec.eigenvectors[:, :rank], dense.eigenvectors[:, :rank]
        proj = top @ top.conj().T - top_dense @ top_dense.conj().T
        assert np.abs(proj).max() <= 1e-12
        kept = (spec.eigenvectors * spec.eigenvalues) @ spec.eigenvectors.conj().T
        kept -= (dense.eigenvectors * dense.eigenvalues) @ dense.eigenvectors.conj().T
        assert np.abs(kept).max() <= 1e-12
        gram = spec.eigenvectors.conj().T @ spec.eigenvectors
        assert np.abs(gram - np.eye(spec.rank)).max() <= 1e-13


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

    def test_reconstruct_makes_six_small_eigh_and_no_eigvalsh(self, monkeypatch):
        # rho_A, rho_B and rho_C, then the 128x128 rho_AB's sketch with 40
        # probes: the Gram eigensolve of all 40, then the second pass and the
        # Rayleigh-Ritz solve of the 32 kept.  The 1024x1024 rho_BC reuses
        # the sketch that validated it.
        psi = haar(4, 32, 32, 93)
        rho_ab = DensityMatrix(("A", "B"), (4, 32), partial_trace(psi, ("A", "B")).matrix)
        rho_bc = DensityMatrix(("B", "C"), (32, 32), partial_trace(psi, ("B", "C")).matrix)
        eigh = spy_calls(monkeypatch, "eigh")
        eigvalsh = spy_calls(monkeypatch, "eigvalsh")
        reconstruct_tripartite(rho_ab, rho_bc, psi.dims)
        assert eigh == [4, 32, 32, 40, 32, 32] and eigvalsh == []

    # Sketches that reconstruction adds after validation, by (n, k): 16 probes
    # cannot certify the rank-32 rho_AB at (4,32,32), so it is sketched with 40.
    RESKETCHED = {(4, 32, 32): [(128, 40)]}

    @pytest.mark.parametrize("dims", [(4, 32, 32), (8, 64, 8)])
    def test_each_large_input_is_sketched_once(self, monkeypatch, dims):
        sizes = []
        real = states._range_sketch

        def spy(m, k):
            sizes.append((m.shape[0], k))
            return real(m, k)

        monkeypatch.setattr(states, "_range_sketch", spy)
        psi = haar(*dims, 94)
        d_a, d_b, d_c = dims
        rho_ab = DensityMatrix(("A", "B"), (d_a, d_b), partial_trace(psi, ("A", "B")).matrix)
        rho_bc = DensityMatrix(("B", "C"), (d_b, d_c), partial_trace(psi, ("B", "C")).matrix)
        assert sizes == [(d_a * d_b, 16), (d_b * d_c, 16)]
        reconstruct_tripartite(rho_ab, rho_bc, psi.dims)
        assert sizes == [(d_a * d_b, 16), (d_b * d_c, 16)] + self.RESKETCHED.get(dims, [])

    # Per dims of sample_haar_state(dims, 7): the solver calls, by (solver, size),
    # of validating rho_AB and rho_BC from raw matrices, then of reconstructing.
    # A sketch is keyed by (n, k); its eigh calls count too: the Gram
    # eigensolve of all k probes, then the second pass and the Rayleigh-Ritz
    # solve of the columns kept, as many as the rank while it is below k.
    SOLVER_CALLS = {
        (2, 2, 2): (
            {("cholesky", 4): 2},
            {("eigh", 2): 3, ("eigh", 4): 2},
        ),
        (3, 3, 3): (
            {("cholesky", 9): 2},
            {("eigh", 3): 3, ("eigh", 9): 2},
        ),
        (8, 64, 8): (
            {("sketch", (512, 16)): 2, ("eigh", 16): 2, ("eigh", 8): 4},
            {("eigh", 8): 2, ("eigh", 64): 1},
        ),
        (4, 32, 32): (
            {("sketch", (1024, 16)): 1, ("sketch", (128, 16)): 1, ("eigh", 16): 4,
             ("eigh", 4): 2, ("cholesky", 128): 1},
            {("sketch", (128, 40)): 1, ("eigh", 40): 1, ("eigh", 4): 1, ("eigh", 32): 4},
        ),
        # rho_A and rho_C, then rho_B, whose rank is at most rank(rho_A) *
        # rank(rho_C) = 4: its 128 rows are sketched with 16 probes, not
        # solved densely.  Both inputs reuse their validation sketches.
        (2, 128, 2): (
            {("sketch", (256, 16)): 2, ("eigh", 16): 2, ("eigh", 2): 4},
            {("eigh", 2): 2, ("sketch", (128, 16)): 1, ("eigh", 16): 1, ("eigh", 4): 2},
        ),
    }

    @pytest.mark.parametrize("dims", list(SOLVER_CALLS), ids=lambda d: "x".join(map(str, d)))
    def test_solver_calls_by_size(self, monkeypatch, dims):
        psi = sample_haar_state(Dims(*dims), 7)
        ab, bc = partial_trace(psi, "AB").matrix, partial_trace(psi, "BC").matrix
        seen = {name: spy_calls(monkeypatch, name) for name in ("eigh", "eigvalsh", "cholesky")}
        seen["sketch"] = []
        real = states._range_sketch

        def spy(m, k):
            seen["sketch"].append((m.shape[0], k))
            return real(m, k)

        monkeypatch.setattr(states, "_range_sketch", spy)

        def taken():
            counts = Counter((name, size) for name, sizes in seen.items() for size in sizes)
            for sizes in seen.values():
                sizes.clear()
            return dict(counts)

        building, reconstructing = self.SOLVER_CALLS[dims]
        rho_ab = DensityMatrix(("A", "B"), dims[:2], ab)
        rho_bc = DensityMatrix(("B", "C"), dims[1:], bc)
        assert taken() == building
        reconstruct_tripartite(rho_ab, rho_bc, psi.dims)
        assert taken() == reconstructing


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
    """Validation streams over row blocks and 32 x 32 tiles; n = 1000 is no multiple of either.

    n = 31, 33 and 97 leave ragged strips beside the tiles of the conjugate
    transpose: all of the matrix, one row and column, and one past three tiles.
    """

    CASES = [
        (("A",), (2,), [1]),
        (("A",), (31,), [0, 30]),
        (("A",), (33,), [31, 32]),
        (("A", "B"), (97, 1), [5, 95, 96]),
        (("A", "B"), (8, 125), [0, 517, 998, 999]),
    ]
    IDS = ["2x2", "31x31", "33x33", "97x97", "1000x1000"]

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
        last = list(states._row_blocks(n, states._SYMMETRIZE_ENTRIES))[-1]
        assert gaps[last].max() == gaps.max() > gaps[: last.start].max(initial=0.0)
        with pytest.raises(ContractError) as caught:
            DensityMatrix(subs, dims, m)
        assert type(caught.value) is ContractError
        assert str(caught.value) == f"matrix is not Hermitian: max |M - M^dag| = {gaps.max():.3e}"

    @pytest.mark.parametrize("n", [33, 97])
    @pytest.mark.parametrize("i,j", [(-1, 3), (3, -1)], ids=["below-tiles", "right-of-tiles"])
    def test_gap_in_ragged_strip_gives_the_full_message(self, n, i, j):
        m = zero_rowed_matrix(n, [n - 1], seed=n + 2)
        m[0, 1] += 1e-3
        m[i, j] += 2.5e-3j  # in the strip beyond the last full tile
        gaps = np.abs(m - m.conj().T)
        assert gaps[n - n % 32 :].max() == gaps.max() > gaps[: n - n % 32, : n - n % 32].max()
        with pytest.raises(ContractError) as caught:
            DensityMatrix(("A",), (n,), m)
        assert str(caught.value) == f"matrix is not Hermitian: max |M - M^dag| = {gaps.max():.3e}"

    @pytest.mark.parametrize("n", [33, 97, 1000])
    @pytest.mark.parametrize("layout", ["fortran", "transposed-view", "strided", "reversed"])
    def test_any_layout_is_stored_c_ordered_as_full_symmetrization(self, n, layout):
        m = zero_rowed_matrix(n, [0, n - 1], seed=n + 3)
        m[0, -1] += 1e-13j
        if layout == "fortran":
            given = np.asfortranarray(m)
        elif layout == "transposed-view":
            given = m.T.copy().T
        elif layout == "strided":
            wide = np.zeros((2 * n, 3 * n), dtype=complex)
            wide[::2, ::3] = m
            given = wide[::2, ::3]
        else:
            given = m[::-1, ::-1].copy()[::-1, ::-1]
        assert given.tobytes() == m.tobytes() and not given.flags.c_contiguous
        rho = DensityMatrix(("A",), (n,), given)
        assert rho.matrix.tobytes() == ((m + m.conj().T) / 2.0).tobytes()
        assert rho.matrix.flags.c_contiguous


class TestMemoryPeak:
    """Traced allocation peaks are byte counts, so these hold on any machine."""

    MIB = 1 << 20

    def test_validation_holds_only_the_stored_matrix(self):
        m = partial_trace(haar(4, 32, 32, 96), ("B", "C")).matrix.copy()
        assert peak_bytes(lambda: DensityMatrix(("B", "C"), (32, 32), m)) <= (16 + 6) * self.MIB

    def test_cholesky_fallback_shifts_the_stored_matrix_in_place(self, monkeypatch):
        # full rank, so the sketch cannot certify it: 4 MiB stored, 4 MiB factor
        m = planted_matrix(512, 511, 0.0, seed=98)
        calls = spy_calls(monkeypatch, "cholesky")
        rho = None

        def validate():
            nonlocal rho
            rho = DensityMatrix(("A",), (512,), m)

        assert peak_bytes(validate) <= 8.5 * self.MIB
        assert calls == [512]
        assert rho._sketch is None
        assert rho.matrix.tobytes() == symmetrized(m).tobytes()

    def test_lopsided_reconstruct_holds_no_large_temporary(self):
        psi = haar(4, 32, 32, 97)
        rho_ab = DensityMatrix(("A", "B"), (4, 32), partial_trace(psi, ("A", "B")).matrix)
        rho_bc = DensityMatrix(("B", "C"), (32, 32), partial_trace(psi, ("B", "C")).matrix)
        peak = peak_bytes(lambda: reconstruct_tripartite(rho_ab, rho_bc, psi.dims))
        assert peak <= 6 * self.MIB


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
