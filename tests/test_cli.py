import json
import subprocess
import sys

import numpy as np
import pytest

from tripure import Dims, fidelity, partial_trace, sample_haar_state
from tripure.cli import main
from tripure.serialize import read_matrix_file, write_matrix_file

TYPED_ERRORS = {
    "SpectrumMismatch",
    "GenericityViolation",
    "PhaseGraphDisconnected",
    "PhaseInconsistency",
    "MarginalInconsistency",
    "ExpansionLeakage",
    "NumericalError",
}


def gen(tmp_path, name, dims="2,2,2", seed=7):
    out = tmp_path / name
    assert main(["gen", "--dims", dims, "--seed", str(seed), "--out", str(out)]) == 0
    return out


def write_marginals(tmp_path, psi, tag):
    ab = tmp_path / f"ab_{tag}.json"
    bc = tmp_path / f"bc_{tag}.json"
    write_matrix_file(ab, partial_trace(psi, ("A", "B")))
    write_matrix_file(bc, partial_trace(psi, ("B", "C")))
    return ab, bc


class TestGen:
    def test_writes_unit_state(self, tmp_path):
        out = gen(tmp_path, "state.json")
        psi = read_matrix_file(out)
        assert len(psi.amplitudes) == 8
        assert abs(np.linalg.norm(psi.amplitudes) - 1.0) <= 1e-12

    def test_byte_identical_reruns(self, tmp_path):
        out1 = gen(tmp_path, "a.json")
        out2 = gen(tmp_path, "b.json")
        assert out1.read_bytes() == out2.read_bytes()

    def test_bad_dims_exit_2(self, tmp_path):
        out = tmp_path / "never.json"
        assert main(["gen", "--dims", "0,2,2", "--seed", "1", "--out", str(out)]) == 2
        assert not out.exists()

    def test_malformed_dims_exit_2(self, tmp_path):
        assert main(["gen", "--dims", "2,2", "--seed", "1", "--out", "x.json"]) == 2


class TestMarginals:
    def test_product_state_keep_ab(self, tmp_path, product_state):
        src = tmp_path / "prod.json"
        write_matrix_file(src, product_state)
        out = tmp_path / "ab.json"
        assert main(["marginals", "--in", str(src), "--keep", "AB", "--out", str(out)]) == 0
        rho = read_matrix_file(out)
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        np.testing.assert_allclose(rho.matrix, expected, atol=1e-14)

    def test_nested_trace_consistency(self, tmp_path):
        state = gen(tmp_path, "state.json", dims="2,3,4", seed=21)
        ab = tmp_path / "ab.json"
        b_via_ab = tmp_path / "b1.json"
        b_direct = tmp_path / "b2.json"
        assert main(["marginals", "--in", str(state), "--keep", "AB", "--out", str(ab)]) == 0
        assert main(["marginals", "--in", str(ab), "--keep", "B", "--out", str(b_via_ab)]) == 0
        assert main(["marginals", "--in", str(state), "--keep", "B", "--out", str(b_direct)]) == 0
        m1 = read_matrix_file(b_via_ab).matrix
        m2 = read_matrix_file(b_direct).matrix
        assert np.abs(m1 - m2).max() <= 1e-12

    def test_keep_abc_exit_2(self, tmp_path):
        state = gen(tmp_path, "state.json")
        assert main(["marginals", "--in", str(state), "--keep", "ABC", "--out", "x"]) == 2

    def test_keep_not_in_input_exit_2(self, tmp_path):
        state = gen(tmp_path, "state.json")
        ab = tmp_path / "ab.json"
        assert main(["marginals", "--in", str(state), "--keep", "AB", "--out", str(ab)]) == 0
        assert main(["marginals", "--in", str(ab), "--keep", "C", "--out", "x"]) == 2

    def test_unparseable_input_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        assert main(["marginals", "--in", str(bad), "--keep", "A", "--out", "x"]) == 2

    def test_non_finite_input_exit_2(self, tmp_path):
        bad = tmp_path / "nan.json"
        bad.write_text(
            '{"kind": "pure_state", "dims": [1, 1, 2], "data": [[NaN, 0.0], [1.0, 0.0]]}'
        )
        out = tmp_path / "never.json"
        assert main(["marginals", "--in", str(bad), "--keep", "C", "--out", str(out)]) == 2
        assert not out.exists()


class TestReconstruct:
    def test_haar_round_trip_with_truth(self, tmp_path):
        psi = sample_haar_state(Dims(2, 3, 4), 33)
        truth = tmp_path / "truth.json"
        write_matrix_file(truth, psi)
        ab, bc = write_marginals(tmp_path, psi, "haar")
        out = tmp_path / "recon.json"
        report = tmp_path / "report.json"
        code = main(
            ["reconstruct", "--ab", str(ab), "--bc", str(bc), "--dims", "2,3,4",
             "--out", str(out), "--report", str(report), "--truth", str(truth)]
        )
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["outcome"] == "success"
        assert doc["fidelity"] >= 1.0 - 1e-8
        assert doc["marginal_residual_ab"] <= 1e-8
        assert doc["config"]["phase_tol"] == 1e-6
        assert "timings" in doc
        recon = read_matrix_file(out)
        assert fidelity(psi, recon) >= 1.0 - 1e-8

    def test_ghz_exit_3(self, tmp_path, ghz_state):
        ab, bc = write_marginals(tmp_path, ghz_state, "ghz")
        report = tmp_path / "report.json"
        code = main(
            ["reconstruct", "--ab", str(ab), "--bc", str(bc), "--dims", "2,2,2",
             "--out", str(tmp_path / "never.json"), "--report", str(report)]
        )
        assert code == 3
        doc = json.loads(report.read_text())
        assert doc["outcome"] == "GenericityViolation"
        assert not (tmp_path / "never.json").exists()

    def test_unrelated_inputs_exit_3(self, tmp_path):
        ab, _ = write_marginals(tmp_path, sample_haar_state(Dims(2, 2, 2), 1), "one")
        _, bc = write_marginals(tmp_path, sample_haar_state(Dims(2, 2, 2), 2), "two")
        report = tmp_path / "report.json"
        code = main(
            ["reconstruct", "--ab", str(ab), "--bc", str(bc), "--dims", "2,2,2",
             "--out", str(tmp_path / "never.json"), "--report", str(report)]
        )
        assert code == 3
        assert json.loads(report.read_text())["outcome"] in TYPED_ERRORS

    def test_dims_mismatch_exit_2(self, tmp_path):
        psi = sample_haar_state(Dims(2, 2, 2), 3)
        ab, bc = write_marginals(tmp_path, psi, "m")
        code = main(
            ["reconstruct", "--ab", str(ab), "--bc", str(bc), "--dims", "2,2,3",
             "--out", str(tmp_path / "x.json")]
        )
        assert code == 2

    def test_output_state_byte_identical_reruns(self, tmp_path):
        psi = sample_haar_state(Dims(2, 2, 2), 44)
        ab, bc = write_marginals(tmp_path, psi, "det")
        outs = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            assert main(
                ["reconstruct", "--ab", str(ab), "--bc", str(bc), "--dims", "2,2,2",
                 "--out", str(out)]
            ) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_sketched_shape_byte_identical_reruns(self, tmp_path):
        # (2,16,16): rho_BC is 256 x 256 with rank 2, so it is diagonalized by
        # the low-rank sketch.
        psi = gen(tmp_path, "psi.json", dims="2,16,16", seed=45)
        files = {}
        for keep in ("AB", "BC"):
            files[keep] = tmp_path / f"{keep}.json"
            assert main(
                ["marginals", "--in", str(psi), "--keep", keep, "--out", str(files[keep])]
            ) == 0
        outs = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            assert main(
                ["reconstruct", "--ab", str(files["AB"]), "--bc", str(files["BC"]),
                 "--dims", "2,16,16", "--out", str(out), "--truth", str(psi)]
            ) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        assert fidelity(read_matrix_file(psi), read_matrix_file(tmp_path / "r1.json")) >= (
            1.0 - 1e-12
        )

    def test_report_timings_include_write(self, tmp_path):
        psi = sample_haar_state(Dims(2, 3, 4), 46)
        ab, bc = write_marginals(tmp_path, psi, "timed")
        report = tmp_path / "report.json"
        assert main(
            ["reconstruct", "--ab", str(ab), "--bc", str(bc), "--dims", "2,3,4",
             "--out", str(tmp_path / "out.json"), "--report", str(report)]
        ) == 0
        timings = json.loads(report.read_text())["timings"]
        assert set(timings) == {"load_s", "reconstruct_s", "write_s", "total_s"}
        assert timings["write_s"] >= 0.0
        parts = timings["load_s"] + timings["reconstruct_s"] + timings["write_s"]
        assert abs(timings["total_s"] - parts) <= 1e-9

    def test_tolerance_flag_is_applied(self, tmp_path):
        psi = sample_haar_state(Dims(2, 2, 2), 4)
        ab, bc = write_marginals(tmp_path, psi, "tol")
        report = tmp_path / "report.json"
        code = main(
            ["reconstruct", "--ab", str(ab), "--bc", str(bc), "--dims", "2,2,2",
             "--out", str(tmp_path / "out.json"), "--report", str(report),
             "--pair-tol", "1e-5"]
        )
        assert code == 0
        assert json.loads(report.read_text())["config"]["pair_tol"] == 1e-5


class TestRoundtripCommand:
    def test_qubits_batch(self, tmp_path):
        report = tmp_path / "summary.json"
        code = main(
            ["roundtrip", "--dims", "2,2,2", "--trials", "50", "--seed-base", "0",
             "--report", str(report)]
        )
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["summary"]["success_rate"] == 1.0
        assert doc["summary"]["fidelity"]["min"] >= 1.0 - 1e-8
        assert len(doc["records"]) == 50

    def test_zero_trials_exit_2(self, tmp_path):
        code = main(["roundtrip", "--dims", "2,2,2", "--trials", "0"])
        assert code == 2


class TestTomoDemo:
    @pytest.mark.parametrize(
        "profile,threshold", [("separable", 1e-10), ("correlated", 1e-6)]
    )
    def test_generic_profiles(self, tmp_path, profile, threshold):
        report = tmp_path / "tomo.json"
        code = main(
            ["tomo-demo", "--grid", "8,8,8", "--profile", profile, "--report", str(report)]
        )
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["outcome"] == "success"
        assert doc["fidelity"] >= 1.0 - threshold

    def test_symmetric_profile_exit_3(self, tmp_path):
        report = tmp_path / "tomo.json"
        code = main(
            ["tomo-demo", "--grid", "8,8,8", "--profile", "symmetric", "--report", str(report)]
        )
        assert code == 3
        assert json.loads(report.read_text())["outcome"] == "GenericityViolation"

    def test_oversized_grid_exit_2(self):
        assert main(["tomo-demo", "--grid", "20,20,20", "--profile", "separable"]) == 2

    def test_unknown_profile_exit_2(self):
        assert main(["tomo-demo", "--grid", "8,8,8", "--profile", "vortex"]) == 2


class TestEntrypoint:
    def test_module_invocation(self, tmp_path):
        out = tmp_path / "state.json"
        proc = subprocess.run(
            [sys.executable, "-m", "tripure", "gen", "--dims", "2,2,2", "--seed", "5",
             "--out", str(out)],
            capture_output=True,
        )
        assert proc.returncode == 0
        assert out.exists()

    def test_usage_error_exit_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tripure", "frobnicate"], capture_output=True
        )
        assert proc.returncode == 2


class TestMalformedDimsFile:
    @pytest.mark.parametrize(
        "bad, dims", [([True, 2], "1,2,2"), ([2.9, 2], "2,2,2"), (["2", "2"], "2,2,2")]
    )
    def test_reconstruct_exit_2_writes_nothing(self, tmp_path, bad, dims):
        psi = sample_haar_state(Dims(*(int(d) for d in dims.split(","))), 4)
        ab, bc = write_marginals(tmp_path, psi, "m")
        doc = json.loads(ab.read_text())
        doc["dims"] = bad
        ab.write_text(json.dumps(doc))
        out = tmp_path / "never.json"
        report = tmp_path / "report.json"
        code = main(
            ["reconstruct", "--ab", str(ab), "--bc", str(bc), "--dims", dims,
             "--out", str(out), "--report", str(report)]
        )
        assert code == 2
        assert not out.exists() and not report.exists()
