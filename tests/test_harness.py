import json

import numpy as np
import pytest

from tripure import (
    AlgorithmError,
    ContractError,
    DensityMatrix,
    Dims,
    MarginalInconsistency,
    ReconstructionConfig,
    TrialRecord,
    batch_stats,
    fidelity,
    partial_trace,
    reconstruct_tripartite,
    roundtrip,
    run_trials,
    sample_haar_state,
)

from oracles import min_spectral_gap_reference


class TestSampleHaarState:
    def test_deterministic_per_seed(self):
        dims = Dims(2, 3, 4)
        a = sample_haar_state(dims, 42)
        b = sample_haar_state(dims, 42)
        np.testing.assert_array_equal(a.amplitudes, b.amplitudes)

    def test_distinct_seeds_differ(self):
        dims = Dims(2, 2, 2)
        pairs = [
            (sample_haar_state(dims, 2 * t), sample_haar_state(dims, 2 * t + 1))
            for t in range(100)
        ]
        assert all(fidelity(a, b) < 1.0 - 1e-3 for a, b in pairs)

    @pytest.mark.parametrize("seed", [0, 1, 17, 123456])
    def test_unit_norm(self, seed):
        psi = sample_haar_state(Dims(3, 3, 3), seed)
        assert abs(np.linalg.norm(psi.amplitudes) - 1.0) <= 1e-12


class TestRoundtrip:
    def test_product_state(self, product_state):
        rec = roundtrip(product_state, seed=0)
        assert rec.outcome == "success"
        assert rec.fidelity >= 1.0 - 1e-12

    def test_ghz_outcome_is_captured(self, ghz_state):
        rec = roundtrip(ghz_state)
        assert rec.outcome == "GenericityViolation"
        assert rec.fidelity is None
        assert rec.marginal_residual_ab is None
        assert rec.min_spectral_gap <= 1e-12

    def test_bitwise_deterministic(self):
        psi = sample_haar_state(Dims(2, 3, 4), 7)
        rec1 = roundtrip(psi, seed=7)
        rec2 = roundtrip(psi, seed=7)
        assert rec1 == rec2

    def test_seed_recorded(self):
        psi = sample_haar_state(Dims(2, 2, 2), 9)
        assert roundtrip(psi, seed=9).seed == 9


class TestRunTrials:
    def test_per_trial_seeding(self):
        records = run_trials(Dims(2, 2, 2), 5, seed_base=100)
        assert [r.seed for r in records] == [100, 101, 102, 103, 104]

    def test_all_succeed_at_desk_scale(self):
        records = run_trials(Dims(2, 2, 2), 20, seed_base=0)
        assert all(r.outcome == "success" for r in records)
        assert min(r.fidelity for r in records) >= 1.0 - 1e-8

    def test_rejects_zero_trials(self):
        with pytest.raises(ContractError):
            run_trials(Dims(2, 2, 2), 0)


def make_record(outcome, fid=None, gap=1e-2):
    return TrialRecord(
        seed=0,
        dims=(2, 2, 2),
        outcome=outcome,
        fidelity=fid,
        marginal_residual_ab=0.0 if fid is not None else None,
        marginal_residual_bc=0.0 if fid is not None else None,
        compatibility_residual=0.0 if fid is not None else None,
        cycle_residual=0.0 if fid is not None else None,
        min_spectral_gap=gap,
    )


class TestBatchStats:
    def test_all_successes(self):
        stats = batch_stats([make_record("success", 1.0)] * 3)
        assert stats["success_rate"] == 1.0
        assert stats["fidelity"]["min"] == 1.0

    def test_mixed_outcomes(self):
        records = [make_record("success", 1.0)] * 3 + [make_record("GenericityViolation")]
        stats = batch_stats(records)
        assert stats["success_rate"] == 0.75
        assert stats["outcome_counts"] == {"GenericityViolation": 1, "success": 3}
        assert len(stats["gap_error_scatter"]) == 3

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            batch_stats([])

    def test_machine_readable_over_real_batch(self):
        import json

        records = run_trials(Dims(2, 2, 2), 10, seed_base=50)
        stats = batch_stats(records)
        text = json.dumps(stats)
        assert json.loads(text)["n_records"] == 10


class TestValidateOnce:
    """Density matrices are validated where they are built from raw arrays only."""

    @pytest.fixture
    def validations(self, monkeypatch):
        calls = []
        validate = DensityMatrix.__post_init__

        def spy(rho):
            calls.append(rho.subsystems)
            validate(rho)

        monkeypatch.setattr(DensityMatrix, "__post_init__", spy)
        return calls

    def test_roundtrip_validates_nothing(self, validations):
        psi = sample_haar_state(Dims(2, 3, 4), 21)
        assert roundtrip(psi).outcome == "success"
        assert validations == []

    def test_reconstruct_validates_nothing(self, validations):
        psi = sample_haar_state(Dims(3, 2, 3), 22)
        m_ab = partial_trace(psi, "AB").matrix
        m_bc = partial_trace(psi, "BC").matrix
        validations.clear()
        rho_ab = DensityMatrix(("A", "B"), (3, 2), m_ab)
        rho_bc = DensityMatrix(("B", "C"), (2, 3), m_bc)
        assert validations == [("A", "B"), ("B", "C")]
        validations.clear()
        reconstruct_tripartite(rho_ab, rho_bc, psi.dims)
        assert validations == []

    def test_construction_from_raw_array_validates_once(self, validations):
        DensityMatrix(("A",), (2,), np.eye(2) / 2)
        assert len(validations) == 1


class TestDefaultConfigBuiltOnce:
    """A run given no config shares one validated default instead of building its own."""

    @pytest.fixture
    def config_builds(self, monkeypatch):
        calls = []
        build = ReconstructionConfig.__post_init__

        def spy(cfg):
            calls.append(cfg)
            build(cfg)

        monkeypatch.setattr(ReconstructionConfig, "__post_init__", spy)
        return calls

    def test_roundtrip_builds_no_config(self, config_builds):
        for seed in range(3):
            assert roundtrip(sample_haar_state(Dims(2, 3, 4), seed)).outcome == "success"
        assert config_builds == []

    def test_reconstruct_without_config_builds_none(self, config_builds):
        psi = sample_haar_state(Dims(3, 3, 3), 4)
        rho_ab, rho_bc = partial_trace(psi, "AB"), partial_trace(psi, "BC")
        report = reconstruct_tripartite(rho_ab, rho_bc, psi.dims, config=None)
        assert fidelity(psi, report.state) >= 1.0 - 1e-12
        assert config_builds == []

    def test_given_config_is_still_used(self):
        psi = sample_haar_state(Dims(3, 3, 3), 4)
        rho_ab, rho_bc = partial_trace(psi, "AB"), partial_trace(psi, "BC")
        tight = ReconstructionConfig(marginal_tol=1e-30)
        assert roundtrip(psi, tight).outcome == "MarginalInconsistency"
        with pytest.raises(MarginalInconsistency):
            reconstruct_tripartite(rho_ab, rho_bc, psi.dims, tight)
        assert roundtrip(psi).outcome == "success"


HAAR_SMALL_DIMS = ((2, 2, 2), (2, 3, 4), (3, 3, 3), (4, 4, 4), (2, 5, 3), (3, 4, 2))


class TestSpectralGapFromReconstruction:
    """The gap comes from the reconstruction's own rho_A and rho_C spectra."""

    @pytest.mark.parametrize("dims", HAAR_SMALL_DIMS)
    def test_gap_matches_reference(self, dims):
        for seed in range(20):
            psi = sample_haar_state(Dims(*dims), seed)
            rec = roundtrip(psi, seed=seed)
            assert rec.min_spectral_gap is not None
            expected = min_spectral_gap_reference(psi.amplitudes, dims, 1e-10)
            assert abs(rec.min_spectral_gap - expected) <= 1e-15

    def test_five_eigensolves_per_roundtrip(self, monkeypatch):
        calls = []
        eigh = np.linalg.eigh

        def spy(m, *args, **kwargs):
            calls.append(m.shape)
            return eigh(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        assert roundtrip(sample_haar_state(Dims(2, 3, 4), 5)).outcome == "success"
        assert len(calls) == 5

    def test_failure_before_spectra_is_recorded(self):
        psi = sample_haar_state(Dims(2, 2, 2), 0)
        rec = roundtrip(psi, ReconstructionConfig(rank_threshold=0.3))
        assert rec.outcome == "NumericalError"
        assert rec.min_spectral_gap is None
        stats = json.loads(json.dumps(batch_stats([rec, roundtrip(psi)])))
        assert stats["outcome_counts"] == {"NumericalError": 1, "success": 1}
        assert stats["min_spectral_gap"]["min"] > 0.0

    def test_cross_check_failure_has_no_gap(self):
        rho_ab = partial_trace(sample_haar_state(Dims(2, 2, 2), 1), "AB")
        rho_bc = partial_trace(sample_haar_state(Dims(2, 2, 2), 2), "BC")
        with pytest.raises(MarginalInconsistency, match="disagree about rho_B") as info:
            reconstruct_tripartite(rho_ab, rho_bc, Dims(2, 2, 2))
        assert info.value.min_spectral_gap is None

    def test_failure_after_spectra_carries_gap(self, ghz_state):
        rho_ab, rho_bc = partial_trace(ghz_state, "AB"), partial_trace(ghz_state, "BC")
        with pytest.raises(AlgorithmError) as info:
            reconstruct_tripartite(rho_ab, rho_bc, ghz_state.dims)
        assert info.value.min_spectral_gap == roundtrip(ghz_state).min_spectral_gap
        assert 0.0 <= info.value.min_spectral_gap <= 1e-12


class TestSeedsAndTrialCounts:
    """Seeds are non-negative integers and trial counts positive ones; the rest is refused."""

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "3", None, np.float64(2.0)])
    def test_bad_seed_is_contract_error(self, seed):
        with pytest.raises(ContractError, match="seed must be a non-negative integer"):
            sample_haar_state(Dims(2, 2, 2), seed)

    def test_numpy_and_huge_seeds_are_accepted(self):
        dims = Dims(2, 2, 2)
        np.testing.assert_array_equal(
            sample_haar_state(dims, np.int64(5)).amplitudes, sample_haar_state(dims, 5).amplitudes
        )
        assert sample_haar_state(dims, 10**30).dims == dims

    @pytest.mark.parametrize("n_trials", [2.5, True, -1, "2", None])
    def test_bad_trial_count_is_contract_error(self, n_trials):
        with pytest.raises(ContractError, match="n_trials must be a positive integer"):
            run_trials(Dims(2, 2, 2), n_trials)

    @pytest.mark.parametrize("seed_base", [-1, 0.5, False])
    def test_bad_seed_base_is_contract_error(self, seed_base):
        with pytest.raises(ContractError, match="seed_base must be a non-negative integer"):
            run_trials(Dims(2, 2, 2), 1, seed_base=seed_base)

    def test_numpy_trial_count_and_seed_base(self):
        records = run_trials(Dims(2, 2, 2), np.int64(2), seed_base=np.int32(3))
        assert [r.seed for r in records] == [3, 4]
        assert all(type(r.seed) is int for r in records)

