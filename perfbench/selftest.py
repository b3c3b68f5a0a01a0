"""Self-tests of the benchmark itself, not of tripure.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/selftest.py

The file is not named test_*.py, so the repository's own test run does not
collect it; the smoke runs below take about two minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [m["name"] for m in BENCHMARK["end_to_end"]]
PER_LAYER = [m["name"] for m in BENCHMARK["per_layer"]]


def _digests(cls, root: Path, seed: int, n: int) -> list[str]:
    workload = cls(root, tracing.Tracer())
    try:
        stream = workload.inputs(seed)
        return [workloads.input_digest(next(stream)) for _ in range(n)]
    finally:
        workload.close()


@pytest.mark.parametrize("cls", list(workloads.WORKLOADS.values()))
def test_same_seed_same_inputs(cls, tmp_path):
    first = _digests(cls, tmp_path, 7, 8)
    assert first == _digests(cls, tmp_path, 7, 8)
    assert first != _digests(cls, tmp_path, 8, 8)


def test_reject_stream_follows_plan(tmp_path):
    stream = workloads.HaarSmall(tmp_path, tracing.Tracer())
    try:
        kinds = [(inp["kind"], inp.get("case")) for _, inp in zip(range(24), stream.inputs(3))]
    finally:
        stream.close()
    rejects = [case for kind, case in kinds if kind == "reject"]
    assert len(rejects) == 24 // workloads.REJECT_EVERY
    assert rejects == list(workloads.HaarSmall.CASES) * 2


def _smoke(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "5", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_is_correct_and_complete(workload, trace):
    proc = _smoke(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = PER_LAYER if trace else END_TO_END
    assert set(result["metrics"]) == set(expected)
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and m["unit"]
    text = "\n".join(lines[:-1])
    assert "fail_frac        0 ratio" in text
    if workload == "haar-small":
        assert "op_ms_tail" in text and "reject_ms_p50" in text

    saved = json.loads(
        (run.OUT / f"{workload}-seed5-trace{trace}.json").read_text(encoding="utf-8")
    )
    env = saved["environment"]
    for key in ("git_commit", "python", "numpy", "blas_vendor", "blas_threads_effective",
                "nproc", "cpu_model", "seed"):
        assert key in env
    assert saved["fail_frac"] == 0


def test_wrong_expected_class_makes_failures(tmp_path, monkeypatch):
    wrong = dict(workloads.HaarSmall.EXPECTED, GenericityViolation="PhaseGraphDisconnected")
    monkeypatch.setattr(workloads.HaarSmall, "EXPECTED", wrong)
    workload = workloads.HaarSmall(tmp_path, tracing.Tracer())
    try:
        log = run.run_loop(workload, seed=1, seconds=0.5)
    finally:
        workload.close()
    failures = [e["failure"] for e in log if e["failure"]]
    assert failures and set(failures) == {"GenericityViolation"}
    assert len(failures) / len(log) > 0


def test_absent_target_is_reported_not_fatal(monkeypatch):
    targets = tracing.FUNCTION_TARGETS + (
        ("tripure.reconstruct", "removed_stage", "reconstruct.removed_stage"),
        ("tripure.no_such_module", "anything", "reconstruct.removed_module"),
    )
    monkeypatch.setattr(tracing, "FUNCTION_TARGETS", targets)
    import numpy as np

    eigh = np.linalg.eigh
    tracer = tracing.Tracer()
    tracer.install()
    assert np.linalg.eigh is not eigh
    tracer.restore()
    assert np.linalg.eigh is eigh
    assert "tripure.reconstruct.removed_stage" in tracer.absent
    assert "tripure.no_such_module.anything" in tracer.absent
    assert "reconstruct.removed_stage" not in tracer.installed


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _smoke("haar-small", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
