import numpy as np
import pytest

from tripure import (
    ContractError,
    DensityMatrix,
    Dims,
    TrialRecord,
    batch_stats,
    fidelity,
    partial_trace,
    reconstruct_tripartite,
    roundtrip,
    run_trials,
    sample_haar_state,
)


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
