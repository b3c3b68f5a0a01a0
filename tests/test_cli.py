import argparse
import json
import os
import re
import stat
import subprocess
import sys
from dataclasses import asdict, fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripure import (
    ContractError,
    Dims,
    GenericityViolation,
    ReconstructionConfig,
    fidelity,
    partial_trace,
    reconstruct_tripartite,
    roundtrip,
    sample_haar_state,
)
from tripure import cli
from tripure.cli import main
from tripure.serialize import read_matrix_file, write_matrix_file

from conftest import haar, run_child

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

    def test_non_integer_dims_exit_2(self, tmp_path, capsys):
        out = tmp_path / "never.json"
        assert main(["gen", "--dims", "2,x,2", "--seed", "1", "--out", str(out)]) == 2
        assert "argument --dims: invalid literal for int() with base 10: 'x'" in (
            capsys.readouterr().err
        )
        assert not out.exists()


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

    def test_deeply_nested_file_exit_2(self, tmp_path):
        # deeper than the json module's recursion limit
        deep = tmp_path / "deep.json"
        deep.write_text('{"kind": ' + "[" * 100_000 + "]" * 100_000 + "}")
        out = tmp_path / "never.json"
        proc = subprocess.run(
            [sys.executable, "-m", "tripure", "marginals", "--in", str(deep), "--keep", "A",
             "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: not valid JSON")
        assert "Traceback" not in proc.stderr
        assert not out.exists()


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


class TestMalformedSubsystemsFile:
    def test_reconstruct_exit_2_with_one_error_line(self, tmp_path, capsys):
        ab, bc = write_marginals(tmp_path, sample_haar_state(Dims(2, 2, 2), 4), "m")
        doc = json.loads(ab.read_text())
        doc["subsystems"] = "AB"
        ab.write_text(json.dumps(doc))
        out = tmp_path / "never.json"
        code = main(["reconstruct", "--ab", str(ab), "--bc", str(bc), "--dims", "2,2,2",
                     "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "error: subsystems must be a JSON array, got 'AB'\n"
        assert not out.exists()


def parse_strict(path):
    """The JSON in ``path``; NaN and infinities are refused, not read."""

    def refuse(token):
        raise AssertionError(f"{path.name} holds the non-JSON constant {token}")

    return json.loads(path.read_text(), parse_constant=refuse)


class TestBoundaryRefusals:
    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_reconstruct_exit_2_writes_nothing(self, tmp_path, value):
        ab, _ = write_marginals(tmp_path, sample_haar_state(Dims(2, 3, 2), 1), "one")
        _, bc = write_marginals(tmp_path, sample_haar_state(Dims(2, 3, 2), 2), "two")
        out = tmp_path / "never.json"
        report = tmp_path / "report.json"
        code = main(
            ["reconstruct", "--ab", str(ab), "--bc", str(bc), "--dims", "2,3,2",
             "--out", str(out), "--report", str(report), f"--marginal-tol={value}",
             f"--pair-tol={value}", f"--phase-tol={value}"]
        )
        assert code == 2
        assert not out.exists() and not report.exists()

    @pytest.mark.parametrize("dims", ["2,2,2", "4,16,4"])
    @pytest.mark.parametrize("value", [1e308, 1e200])
    @pytest.mark.parametrize("command", ["reconstruct", "marginals"])
    def test_large_entry_is_refused_as_not_psd(self, tmp_path, dims, value, command):
        ab, bc = write_marginals(tmp_path, haar(*map(int, dims.split(",")), 3), "big")
        doc = json.loads(ab.read_text())
        doc["data"][0][1] = doc["data"][1][0] = [value, 0.0]
        ab.write_text(json.dumps(doc))
        out = tmp_path / "never.json"
        if command == "reconstruct":
            args = ["reconstruct", "--ab", ab, "--bc", bc, "--dims", dims, "--out", out]
        else:
            args = ["marginals", "--in", ab, "--keep", "A", "--out", out]
        proc = run_child(*args)
        assert_one_error_line(proc)
        assert f"not positive semidefinite: max |M_ij| = {value:.3e} exceeds" in proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        assert not out.exists()

    def test_roundtrip_failure_before_spectra_is_reported(self, tmp_path):
        report = tmp_path / "rt.json"
        code = main(
            ["roundtrip", "--dims", "2,2,2", "--trials", "2", "--rank-threshold", "0.3",
             "--report", str(report)]
        )
        assert code == 3
        doc = parse_strict(report)
        assert doc["summary"]["outcome_counts"] == {"NumericalError": 2}
        assert doc["summary"]["min_spectral_gap"] is None
        assert [r["min_spectral_gap"] for r in doc["records"]] == [None, None]

    def test_spacing_too_large_for_a_float_exit_2(self, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(
            '{"kind": "grid_wavefunction", "dims": [1, 1, 1], "spacings": [1%s, 1, 1], '
            '"data": [[1.0, 0.0]]}' % ("0" * 400)
        )
        out = tmp_path / "never.json"
        assert main(["marginals", "--in", str(grid), "--keep", "A", "--out", str(out)]) == 2
        assert not out.exists()

    def test_undecodable_file_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff{}")
        out = tmp_path / "never.json"
        assert main(["marginals", "--in", str(bad), "--keep", "A", "--out", str(out)]) == 2
        assert not out.exists()


TOLERANCE_FLAGS = [f.name.replace("_", "-") for f in fields(ReconstructionConfig)]
TOLERANCE_VALUES = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "-1e-8", "0", "1e-8", "1e-3", "0.5", "1e300"]),
    st.floats().map(repr),
)


@st.composite
def mutated_text(draw, text):
    """``text`` as it is, truncated, with one byte flipped, or with two tokens swapped."""
    data = text.encode()
    kind = draw(st.sampled_from(["keep", "keep", "truncate", "flip", "swap"]))
    if kind == "truncate":
        data = data[: draw(st.integers(0, len(data) - 1))]
    elif kind == "flip":
        i = draw(st.integers(0, len(data) - 1))
        data = data[:i] + bytes([data[i] ^ draw(st.integers(1, 255))]) + data[i + 1 :]
    elif kind == "swap":
        parts = re.split(r"([\s\[\]{},:]+)", text)
        tokens = [i for i in range(0, len(parts), 2) if parts[i]]
        i, j = draw(st.lists(st.sampled_from(tokens), min_size=2, max_size=2))
        parts[i], parts[j] = parts[j], parts[i]
        data = "".join(parts).encode()
    return data


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    texts = {}
    for seed in (7, 8):
        ab, bc = write_marginals(root, sample_haar_state(Dims(2, 2, 2), seed), str(seed))
        texts[seed] = (ab.read_text(), bc.read_text())
    return root, texts


@settings(max_examples=200)
@given(data=st.data())
def test_reconstruct_boundary_fuzz(fuzz_dir, data):
    """Malformed files and tolerances end in exit 0, 2 or 3, and only valid JSON is written."""
    root, texts = fuzz_dir
    ab_text = texts[7][0]
    bc_text = texts[data.draw(st.sampled_from([7, 8]))][1]
    ab, bc, out, report = (root / name for name in ("ab", "bc", "out", "report"))
    ab.write_bytes(data.draw(mutated_text(ab_text)))
    bc.write_bytes(data.draw(mutated_text(bc_text)))
    for path in (out, report):
        path.unlink(missing_ok=True)
    flags = data.draw(
        st.dictionaries(st.sampled_from(TOLERANCE_FLAGS), TOLERANCE_VALUES, max_size=2)
    )
    code = main(
        ["reconstruct", "--ab", str(ab), "--bc", str(bc), "--dims", "2,2,2",
         "--out", str(out), "--report", str(report)]
        + [f"--{flag}={value}" for flag, value in flags.items()]
    )
    assert code in (0, 2, 3)
    assert out.exists() == (code == 0)
    for path in (out, report):
        if path.exists():
            parse_strict(path)


RECONSTRUCT_SUCCESS_KEYS = {
    "outcome", "marginal_residual_ab", "marginal_residual_bc", "compatibility_residual",
    "cycle_residual", "min_spectral_gap", "genericity_flags", "config", "timings",
}
FAILURE_KEYS = {"outcome", "min_spectral_gap", "detail", "config", "timings"}


def reconstruct_report(tmp_path, ab, bc, dims, *extra):
    """Run ``reconstruct`` on two marginal files; return its exit code and report."""
    report = tmp_path / "report.json"
    code = main(
        ["reconstruct", "--ab", str(ab), "--bc", str(bc), "--dims", dims,
         "--out", str(tmp_path / "out.json"), "--report", str(report), *extra]
    )
    return code, parse_strict(report)


class TestReportFields:
    """Reports name a run's outcome and results the way trial records do."""

    def test_success_report_carries_the_gap(self, tmp_path):
        ab, bc = write_marginals(tmp_path, sample_haar_state(Dims(2, 3, 4), 61), "gap")
        code, doc = reconstruct_report(tmp_path, ab, bc, "2,3,4")
        assert code == 0
        assert set(doc) == RECONSTRUCT_SUCCESS_KEYS
        rep = reconstruct_tripartite(read_matrix_file(ab), read_matrix_file(bc), Dims(2, 3, 4))
        assert doc["min_spectral_gap"] == rep.min_spectral_gap

    def test_ghz_failure_carries_the_exception_gap(self, tmp_path, ghz_state):
        ab, bc = write_marginals(tmp_path, ghz_state, "ghz")
        code, doc = reconstruct_report(tmp_path, ab, bc, "2,2,2")
        assert code == 3
        assert set(doc) == FAILURE_KEYS
        with pytest.raises(GenericityViolation) as caught:
            reconstruct_tripartite(read_matrix_file(ab), read_matrix_file(bc), Dims(2, 2, 2))
        assert doc["outcome"] == "GenericityViolation"
        assert doc["min_spectral_gap"] == caught.value.min_spectral_gap
        assert doc["detail"] == str(caught.value)
        assert set(doc["timings"]) == {"load_s", "reconstruct_s", "total_s"}

    def test_cross_check_failure_reports_null_gap(self, tmp_path):
        ab, _ = write_marginals(tmp_path, sample_haar_state(Dims(2, 2, 2), 15), "one")
        _, bc = write_marginals(tmp_path, sample_haar_state(Dims(2, 2, 2), 5015), "two")
        code, doc = reconstruct_report(tmp_path, ab, bc, "2,2,2")
        assert code == 3
        assert set(doc) == FAILURE_KEYS
        assert doc["outcome"] == "MarginalInconsistency"
        assert "rho_B" in doc["detail"]
        assert doc["min_spectral_gap"] is None

    def test_tomo_failure_carries_a_gap(self, tmp_path, capsys):
        report = tmp_path / "tomo.json"
        code = main(
            ["tomo-demo", "--grid", "8,8,8", "--profile", "symmetric", "--report", str(report)]
        )
        assert code == 3
        doc = parse_strict(report)
        assert set(doc) == {"profile", "grid", "spacings"} | FAILURE_KEYS
        assert set(doc["timings"]) == {"total_s"}
        assert isinstance(doc["min_spectral_gap"], float) and doc["min_spectral_gap"] >= 0.0
        assert capsys.readouterr().err == f"{doc['outcome']}: {doc['detail']}\n"

    def test_tomo_success_keys_unchanged(self, tmp_path):
        report = tmp_path / "tomo.json"
        assert main(
            ["tomo-demo", "--grid", "6,6,6", "--profile", "separable", "--report", str(report)]
        ) == 0
        assert set(parse_strict(report)) == {
            "profile", "grid", "spacings", "config", "outcome", "fidelity", "timings"
        }

    def test_roundtrip_record_agrees_with_cli_report(self, tmp_path):
        psi = sample_haar_state(Dims(2, 3, 4), 63)
        truth = tmp_path / "psi.json"
        write_matrix_file(truth, psi)
        ab, bc = write_marginals(tmp_path, psi, "agree")
        code, doc = reconstruct_report(tmp_path, ab, bc, "2,3,4", "--truth", str(truth))
        assert code == 0
        assert set(doc) == RECONSTRUCT_SUCCESS_KEYS | {"fidelity"}
        record = asdict(roundtrip(psi))
        shared = set(record) & set(doc)
        assert shared == set(record) - {"seed", "dims"}
        for name in shared:
            assert doc[name] == record[name], name


MIB = 1 << 20


def snapshot(directory):
    """Every file in ``directory`` with its bytes, symlinks as their link text."""
    return {
        p.name: os.readlink(p) if p.is_symlink() else p.read_bytes()
        for p in sorted(directory.iterdir())
    }


def assert_one_error_line(proc, code=2):
    assert proc.returncode == code, proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr


class TestAllOrNothingWrites:
    """A command that fails while writing leaves every file it would write as it was.

    The child's ``RLIMIT_FSIZE`` makes a write fail part way; no previous
    file may change and no temporary may stay behind.
    """

    def test_marginals_over_a_valid_file(self, tmp_path):
        psi = gen(tmp_path, "psi.json", dims="8,64,8", seed=2)
        write_matrix_file(tmp_path / "ab.json", partial_trace(haar(8, 64, 8, 1), ("A", "B")))
        before = snapshot(tmp_path)
        assert len(before["ab.json"]) > MIB
        proc = run_child("marginals", "--in", psi, "--keep", "AB", "--out", tmp_path / "ab.json",
                         fsize=MIB)
        assert_one_error_line(proc)
        assert "File too large" in proc.stderr
        assert snapshot(tmp_path) == before

    def test_reconstruct_out_over_the_limit_keeps_out_and_report(self, tmp_path):
        # (128,2,128): 256 x 256 marginals, a state file of ~1.8 MB
        psi = haar(128, 2, 128, 3)
        ab, bc = write_marginals(tmp_path, psi, "big")
        out, report = tmp_path / "out.json", tmp_path / "report.json"
        write_matrix_file(out, sample_haar_state(Dims(2, 2, 2), 1))
        report.write_text('{"previous": true}\n')
        before = snapshot(tmp_path)
        proc = run_child("reconstruct", "--ab", ab, "--bc", bc, "--dims", "128,2,128",
                         "--out", out, "--report", report, fsize=MIB)
        assert_one_error_line(proc)
        assert snapshot(tmp_path) == before
        assert run_child("reconstruct", "--ab", ab, "--bc", bc, "--dims", "128,2,128",
                         "--out", out, "--report", report).returncode == 0
        assert out.stat().st_size > MIB

    def test_reconstruct_report_over_the_limit_keeps_out(self, tmp_path):
        ab, bc = write_marginals(tmp_path, sample_haar_state(Dims(2, 2, 2), 7), "small")
        argv = ["reconstruct", "--ab", ab, "--bc", bc, "--dims", "2,2,2"]
        fresh, work = tmp_path / "fresh", tmp_path / "work"
        fresh.mkdir()
        work.mkdir()
        assert main([*map(str, argv), "--out", str(fresh / "out.json"),
                     "--report", str(fresh / "report.json")]) == 0
        out_size = (fresh / "out.json").stat().st_size
        assert out_size < (fresh / "report.json").stat().st_size
        out, report = work / "out.json", work / "report.json"
        out.write_text('{"previous": "out"}\n')
        report.write_text('{"previous": "report"}\n')
        before = snapshot(work)
        # --out fits under the limit and is staged first; --report does not fit
        proc = run_child(*argv, "--out", out, "--report", report, fsize=out_size)
        assert_one_error_line(proc)
        assert snapshot(work) == before

    def test_roundtrip_report_over_the_limit(self, tmp_path):
        report = tmp_path / "batch.json"
        report.write_text('{"previous": true}\n')
        before = snapshot(tmp_path)
        # about 470 bytes of report per trial
        proc = run_child("roundtrip", "--dims", "2,2,2", "--trials", "2400", "--report", report,
                         fsize=MIB)
        assert_one_error_line(proc)
        assert snapshot(tmp_path) == before

    def test_report_into_a_missing_directory_keeps_an_existing_out(self, tmp_path, capsys):
        ab, bc = write_marginals(tmp_path, sample_haar_state(Dims(2, 2, 2), 7), "dir")
        out = tmp_path / "out.json"
        write_matrix_file(out, sample_haar_state(Dims(2, 2, 2), 1))
        before = snapshot(tmp_path)
        code = main(["reconstruct", "--ab", str(ab), "--bc", str(bc), "--dims", "2,2,2",
                     "--out", str(out), "--report", str(tmp_path / "missing" / "r.json")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert snapshot(tmp_path) == before

    def test_report_to_stdout_is_printed(self, tmp_path):
        ab, bc = write_marginals(tmp_path, sample_haar_state(Dims(2, 2, 2), 7), "stdout")
        proc = run_child("reconstruct", "--ab", ab, "--bc", bc, "--dims", "2,2,2",
                         "--out", tmp_path / "out.json", "--report", "/dev/stdout")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["outcome"] == "success"
        assert (tmp_path / "out.json").exists()

    def test_symlinked_out_stays_a_link(self, tmp_path):
        target = tmp_path / "data" / "psi.json"
        target.parent.mkdir()
        target.write_text("{}\n")
        link = tmp_path / "link.json"
        link.symlink_to(target)
        assert main(["gen", "--dims", "2,2,2", "--seed", "7", "--out", str(link)]) == 0
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == gen(tmp_path, "plain.json").read_bytes()
        assert sorted(p.name for p in target.parent.iterdir()) == ["psi.json"]

    def test_new_file_mode_follows_the_umask(self, tmp_path):
        code = "import os, sys; os.umask(0o027); from tripure.cli import main; sys.exit(main())"
        out = tmp_path / "psi.json"
        proc = run_child("gen", "--dims", "2,2,2", "--seed", "7", "--out", out, code=code)
        assert proc.returncode == 0, proc.stderr
        assert stat.S_IMODE(out.stat().st_mode) == 0o640

    def test_existing_file_keeps_its_mode(self, tmp_path):
        out = tmp_path / "psi.json"
        out.write_text("{}\n")
        out.chmod(0o600)
        assert main(["gen", "--dims", "2,2,2", "--seed", "7", "--out", str(out)]) == 0
        assert stat.S_IMODE(out.stat().st_mode) == 0o600
        assert read_matrix_file(out).dims == Dims(2, 2, 2)


class TestTwoOutputsOneFile:
    """``--out`` and ``--report`` naming one regular file end in exit 2 and write nothing."""

    @pytest.mark.parametrize(
        "report_name",
        [lambda d: d / "r.json", lambda d: f"{d}/./r.json", lambda d: d / "link.json"],
        ids=["same-path", "dot-path", "symlink"],
    )
    def test_refused(self, tmp_path, report_name):
        ab, bc = write_marginals(tmp_path, sample_haar_state(Dims(2, 2, 2), 7), "same")
        out = tmp_path / "r.json"
        out.write_text('{"previous": true}\n')
        (tmp_path / "link.json").symlink_to(out)
        before = snapshot(tmp_path)
        proc = run_child("reconstruct", "--ab", ab, "--bc", bc, "--dims", "2,2,2",
                         "--out", out, "--report", report_name(tmp_path))
        assert_one_error_line(proc)
        assert "two outputs name the same file" in proc.stderr
        assert snapshot(tmp_path) == before

    def test_stdout_twice_into_a_pipe(self, tmp_path):
        ab, bc = write_marginals(tmp_path, sample_haar_state(Dims(2, 2, 2), 7), "pipe")
        proc = run_child("reconstruct", "--ab", ab, "--bc", bc, "--dims", "2,2,2",
                         "--out", "/dev/stdout", "--report", "/dev/stdout")
        assert proc.returncode == 0, proc.stderr
        assert '"kind": "pure_state"' in proc.stdout and '"outcome": "success"' in proc.stdout

    def test_clash_is_named_before_a_missing_input(self, tmp_path, capsys):
        out, missing = tmp_path / "r.json", tmp_path / "missing.json"
        code = main(["reconstruct", "--ab", str(missing), "--bc", str(missing),
                     "--dims", "2,2,2", "--out", str(out), "--report", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: two outputs name the same file: {out}\n"
        assert list(tmp_path.iterdir()) == []


class TestOutputsCheckedFirst:
    """An output that cannot be written ends in exit 2 before any input is read or trial run."""

    def test_roundtrip_into_a_missing_directory_runs_no_trial(self, tmp_path, capsys,
                                                              monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "run_trials", lambda *args: calls.append(args))
        report = tmp_path / "missing" / "r.json"
        assert main(["roundtrip", "--dims", "2,2,2", "--trials", "1000000",
                     "--report", str(report)]) == 2
        assert calls == []
        assert capsys.readouterr().err == (
            f"error: [Errno 2] No such file or directory: '{report}'\n"
        )
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag", ["--out", "--report"])
    def test_reconstruct_into_a_directory_reads_no_input(self, tmp_path, capsys, monkeypatch,
                                                         flag):
        reads = []
        monkeypatch.setattr(cli, "read_matrix_file", reads.append)
        # a repeated --out takes the directory, as argparse keeps the last value
        assert main(["reconstruct", "--ab", "ab.json", "--bc", "bc.json", "--dims", "2,2,2",
                     "--out", str(tmp_path / "psi.json"), flag, str(tmp_path)]) == 2
        assert reads == []
        assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"
        assert list(tmp_path.iterdir()) == []

    def test_gen_into_a_missing_directory_samples_nothing(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "sample_haar_state", lambda *args: calls.append(args))
        out = tmp_path / "missing" / "x.json"
        assert main(["gen", "--dims", "2,2,2", "--seed", "7", "--out", str(out)]) == 2
        assert calls == []
        assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{out}'\n"
        assert list(tmp_path.iterdir()) == []

    def test_marginals_into_a_directory_reads_no_input(self, tmp_path, capsys, monkeypatch):
        reads = []
        monkeypatch.setattr(cli, "read_matrix_file", reads.append)
        assert main(["marginals", "--in", "psi.json", "--keep", "AB",
                     "--out", str(tmp_path)]) == 2
        assert reads == []
        assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"
        assert list(tmp_path.iterdir()) == []

    def test_tomo_demo_into_a_missing_directory_builds_no_profile(self, tmp_path, capsys,
                                                                  monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "build_profile", lambda *args: calls.append(args))
        report = tmp_path / "missing" / "r.json"
        assert main(["tomo-demo", "--grid", "3,3,3", "--profile", "separable",
                     "--report", str(report)]) == 2
        assert calls == []
        assert capsys.readouterr().err == (
            f"error: [Errno 2] No such file or directory: '{report}'\n"
        )
        assert list(tmp_path.iterdir()) == []


NO_TOLERANCES = {name: None for name in cli._TOLERANCE_FLAGS}
TOLERANCE_OPTIONS = {"--rank-threshold", "--gap-tol", "--pair-tol", "--edge-tol", "--phase-tol",
                     "--marginal-tol", "--report"}

# Per command: the option strings its parser accepts, one valid argv, and what
# ``vars(parse_args(argv))`` holds apart from ``func``.
PARSER_SURFACE = {
    "gen": (
        {"-h", "--help", "--dims", "--seed", "--out"},
        ["--dims", "2,3,4", "--seed", "7", "--out", "psi.json"],
        {"dims": (2, 3, 4), "seed": 7, "out": "psi.json"},
    ),
    "marginals": (
        {"-h", "--help", "--in", "--keep", "--out"},
        ["--in", "psi.json", "--keep", "AB", "--out", "ab.json"],
        {"in": "psi.json", "keep": "AB", "out": "ab.json"},
    ),
    "reconstruct": (
        {"-h", "--help", "--ab", "--bc", "--dims", "--out", "--truth"} | TOLERANCE_OPTIONS,
        ["--ab", "ab.json", "--bc", "bc.json", "--dims", "2,3,4", "--out", "o.json",
         "--report", "r.json", "--truth", "psi.json", "--pair-tol", "1e-9"],
        {"ab": "ab.json", "bc": "bc.json", "dims": (2, 3, 4), "out": "o.json",
         "report": "r.json", "truth": "psi.json", **NO_TOLERANCES, "pair_tol": 1e-9},
    ),
    "roundtrip": (
        {"-h", "--help", "--dims", "--trials", "--seed-base"} | TOLERANCE_OPTIONS,
        ["--dims", "2,2,2", "--trials", "3", "--seed-base", "5", "--report", "r.json",
         "--gap-tol", "1e-7"],
        {"dims": (2, 2, 2), "trials": 3, "seed_base": 5, "report": "r.json",
         **NO_TOLERANCES, "gap_tol": 1e-7},
    ),
    "tomo-demo": (
        {"-h", "--help", "--grid", "--profile"} | TOLERANCE_OPTIONS,
        ["--grid", "3,3,3", "--profile", "separable", "--report", "r.json",
         "--marginal-tol", "1e-6"],
        {"grid": (3, 3, 3), "profile": "separable", "report": "r.json",
         **NO_TOLERANCES, "marginal_tol": 1e-6},
    ),
}


@pytest.mark.parametrize("command", PARSER_SURFACE)
class TestParserSurface:
    """Each command accepts the same options and parses one argv to the same namespace."""

    def test_option_strings(self, command):
        parser = cli.build_parser()
        commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert set(commands.choices[command]._option_string_actions) == PARSER_SURFACE[command][0]

    def test_parsed_namespace(self, command):
        _, argv, expected = PARSER_SURFACE[command]
        parsed = vars(cli.build_parser().parse_args([command, *argv]))
        func = parsed.pop("func")
        assert func.__name__ == "_cmd_" + command.replace("-", "_")
        assert parsed == {"command": command, **expected}


class TestOversizedDims:
    """Dims beyond numpy's index range or the memory at hand end in exit 2 and write nothing."""

    @pytest.mark.parametrize("dims", ["100000,100000,100000", "3000000000,3000000000,3000000000"])
    @pytest.mark.parametrize("command", ["gen", "roundtrip"])
    def test_exit_2_with_one_error_line(self, tmp_path, capsys, dims, command):
        out = tmp_path / "never.json"
        if command == "gen":
            argv = ["gen", "--dims", dims, "--seed", "1", "--out", str(out)]
        else:
            argv = ["roundtrip", "--dims", dims, "--trials", "1", "--report", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_numpy_index_limit_is_a_contract_error(self):
        with pytest.raises(ContractError, match="too many for numpy"):
            sample_haar_state(Dims(3 * 10**9, 3 * 10**9, 3 * 10**9), 1)


class TestSeedRefusals:
    @pytest.mark.parametrize(
        "argv",
        [["gen", "--dims", "2,2,2", "--seed=-5"],
         ["roundtrip", "--dims", "2,2,2", "--trials", "2", "--seed-base=-1"]],
        ids=["gen", "roundtrip"],
    )
    def test_negative_seed_exit_2_writes_nothing(self, tmp_path, argv, capsys):
        out = tmp_path / "never.json"
        flag = "--out" if argv[0] == "gen" else "--report"
        assert main(argv + [flag, str(out)]) == 2
        assert not out.exists()
        assert "must be a non-negative integer" in capsys.readouterr().err


INTEGERS = st.one_of(st.integers(-3, 8), st.sampled_from([-(2**63), 2**31, 2**64 + 1, 10**30]))


@settings(max_examples=120)
@given(data=st.data())
def test_integer_flag_fuzz(tmp_path_factory, data):
    """Seeds, trial counts and grid sizes end in exit 0, 2 or 3; exit 2 writes nothing."""
    root = tmp_path_factory.mktemp("ints")
    out = root / "out.json"
    command = data.draw(st.sampled_from(["gen", "roundtrip", "tomo-demo"]))
    if command == "gen":
        argv = ["gen", "--dims", "2,2,2", f"--seed={data.draw(INTEGERS)}", "--out", str(out)]
    elif command == "roundtrip":
        argv = ["roundtrip", "--dims", "2,2,2", f"--trials={data.draw(st.integers(-2, 3))}",
                f"--seed-base={data.draw(INTEGERS)}", "--report", str(out)]
    else:
        grid = ",".join(str(data.draw(st.integers(-2, 6))) for _ in range(3))
        profile = data.draw(st.sampled_from(["separable", "correlated", "symmetric"]))
        argv = ["tomo-demo", f"--grid={grid}", "--profile", profile, "--report", str(out)]
    code = main(argv)
    assert code in (0, 2, 3)
    assert out.exists() == (code != 2)
    if out.exists() and command != "gen":
        parse_strict(out)


class TestUntracedExitTwo:
    """Wrong file kinds and an unwritable report end in exit 2 with one error line."""

    def _assert_exit_2(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        return err

    def test_marginals_of_a_grid_file(self, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text(
            '{"kind": "grid_wavefunction", "dims": [1, 1, 1], "spacings": [1, 1, 1], '
            '"data": [[1.0, 0.0]]}'
        )
        out = tmp_path / "never.json"
        self._assert_exit_2(["marginals", "--in", str(grid), "--keep", "A", "--out", str(out)],
                            capsys)
        assert not out.exists()

    def test_reconstruct_ab_given_a_pure_state(self, tmp_path, capsys):
        psi = gen(tmp_path, "psi.json")
        _, bc = write_marginals(tmp_path, read_matrix_file(psi), "kind")
        out = tmp_path / "never.json"
        self._assert_exit_2(
            ["reconstruct", "--ab", str(psi), "--bc", str(bc), "--dims", "2,2,2",
             "--out", str(out)],
            capsys,
        )
        assert not out.exists()

    def test_truth_given_a_density_matrix(self, tmp_path, capsys):
        psi = gen(tmp_path, "psi.json")
        ab, bc = write_marginals(tmp_path, read_matrix_file(psi), "kind")
        out = tmp_path / "never.json"
        self._assert_exit_2(
            ["reconstruct", "--ab", str(ab), "--bc", str(bc), "--dims", "2,2,2",
             "--out", str(out), "--truth", str(ab)],
            capsys,
        )
        assert not out.exists()

    def test_report_into_a_missing_directory(self, tmp_path, capsys):
        report = tmp_path / "missing" / "report.json"
        self._assert_exit_2(
            ["roundtrip", "--dims", "2,2,2", "--trials", "1", "--report", str(report)], capsys
        )
        assert not report.exists()

    @pytest.mark.parametrize("outcome", ["success", "failure"])
    def test_reconstruct_report_into_a_missing_directory_writes_nothing(
        self, tmp_path, capsys, ghz_state, outcome
    ):
        psi = sample_haar_state(Dims(2, 2, 2), 7) if outcome == "success" else ghz_state
        ab, bc = write_marginals(tmp_path, psi, "report")
        out = tmp_path / "never.json"
        report = tmp_path / "missing" / "report.json"
        self._assert_exit_2(
            ["reconstruct", "--ab", str(ab), "--bc", str(bc), "--dims", "2,2,2",
             "--out", str(out), "--report", str(report)],
            capsys,
        )
        assert not out.exists() and not report.exists()

    def test_pure_state_of_norm_sqrt_2(self, tmp_path, capsys):
        src = tmp_path / "norm.json"
        src.write_text(
            '{"kind": "pure_state", "dims": [1, 1, 2], "data": [[1.0, 0.0], [1.0, 0.0]]}'
        )
        err = self._assert_exit_2(
            ["marginals", "--in", str(src), "--keep", "C", "--out", str(tmp_path / "x.json")],
            capsys,
        )
        assert err == "error: state norm 1.4142135623730951 deviates from 1 by more than 1e-10\n"

    def test_density_matrix_of_trace_2(self, tmp_path, capsys):
        src = tmp_path / "trace.json"
        src.write_text(
            '{"kind": "density_matrix", "subsystems": ["A", "B"], "dims": [1, 1], '
            '"data": [[[2.0, 0.0]]]}'
        )
        err = self._assert_exit_2(
            ["marginals", "--in", str(src), "--keep", "A", "--out", str(tmp_path / "x.json")],
            capsys,
        )
        assert err == "error: trace (2+0j) deviates from 1 by more than 1e-10\n"


def test_truth_of_other_dims_exit_2_writes_nothing(tmp_path, capsys):
    psi = sample_haar_state(Dims(2, 3, 4), 71)
    ab, bc = write_marginals(tmp_path, psi, "dims")
    other = gen(tmp_path, "other.json", dims="2,2,2")
    out = tmp_path / "never.json"
    report = tmp_path / "report.json"
    code = main(
        ["reconstruct", "--ab", str(ab), "--bc", str(bc), "--dims", "2,3,4",
         "--out", str(out), "--report", str(report), "--truth", str(other)]
    )
    assert code == 2
    assert not out.exists() and not report.exists()
    assert "--truth must be a pure_state file with dims (2, 3, 4)" in capsys.readouterr().err


def string_data_file(path, kind):
    """A one-entry file of ``kind`` whose data are numbers written as JSON strings."""
    header = (
        '"dims": [1, 1, 1]' if kind == "pure_state" else '"dims": [1], "subsystems": ["B"]'
    )
    data = '[["1e0", "0"]]' if kind == "pure_state" else '[[["1e0", "0"]]]'
    path.write_text('{"kind": "%s", %s, "data": %s}' % (kind, header, data))
    return path


@pytest.mark.parametrize("which", ["ab", "bc"])
def test_reconstruct_of_string_data_exit_2(tmp_path, capsys, which):
    psi = sample_haar_state(Dims(1, 1, 1), 3)
    files = dict(zip(("ab", "bc"), write_marginals(tmp_path, psi, "good")))
    files[which] = string_data_file(tmp_path / "strings.json", "density_matrix")
    out = tmp_path / "never.json"
    code = main(
        ["reconstruct", "--ab", str(files["ab"]), "--bc", str(files["bc"]), "--dims", "1,1,1",
         "--out", str(out)]
    )
    assert code == 2
    assert not out.exists()
    assert capsys.readouterr().err == "error: data must be numeric, got list\n"


ABBREVIATED_FLAGS = {"pair": "pair-tol", "pha": "phase-tol", "rank-t": "rank-threshold"}


@pytest.mark.parametrize("flag", TOLERANCE_FLAGS + list(ABBREVIATED_FLAGS))
@pytest.mark.parametrize("value", ["-1e-8", "-1E+3", "-inf", "-0.5", "-2"])
def test_negative_tolerance_gives_one_message_in_both_forms(tmp_path, capsys, flag, value):
    """``--flag value`` reaches the contract check that ``--flag=value`` reaches."""
    ab, bc = write_marginals(tmp_path, sample_haar_state(Dims(2, 2, 2), 9), "tol")
    out = tmp_path / "never.json"
    base = ["reconstruct", "--ab", str(ab), "--bc", str(bc), "--dims", "2,2,2",
            "--out", str(out)]
    errors = []
    for argv in (base + [f"--{flag}", value], base + [f"--{flag}={value}"]):
        assert main(argv) == 2
        errors.append(capsys.readouterr().err)
    name = ABBREVIATED_FLAGS.get(flag, flag).replace("-", "_")
    assert errors[0] == errors[1]
    assert errors[0].startswith(f"error: {name} must be a positive finite real, got ")
    assert not out.exists()


@pytest.mark.parametrize("flag", TOLERANCE_FLAGS)
def test_tolerance_flag_followed_by_an_option_misses_its_value(tmp_path, capsys, flag):
    """A missing value keeps argparse's message rather than taking the next option."""
    ab, bc = write_marginals(tmp_path, sample_haar_state(Dims(2, 2, 2), 9), "gap")
    out = tmp_path / "never.json"
    code = main(
        ["reconstruct", "--ab", str(ab), "--bc", str(bc), "--dims", "2,2,2",
         "--out", str(out), f"--{flag}", "--report", str(tmp_path / "r.json")]
    )
    assert code == 2
    assert f"argument --{flag}: expected one argument" in capsys.readouterr().err
    assert not out.exists()
