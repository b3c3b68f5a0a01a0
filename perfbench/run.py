"""Benchmark for tripure: end-to-end metrics per workload, per-layer metrics when traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload haar-small --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 24

Each workload runs in its own process, a closed loop with one caller, and
checks every output.  ``--trace 0`` measures end-to-end metrics with tracing
off.  ``--trace 1`` spends the first half of the run untraced and the second
half traced, and reports the per-layer metrics plus the traced-minus-untraced
``op_ms_p50`` as the tracing overhead.  Human-readable lines go first; the
last line of standard output is one JSON object.  A result file with the
environment record is written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# BLAS may use every core this process may run on, and no more.  Set before
# numpy is first imported, which happens inside the timed set-up.
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(NPROC)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("haar-small", "lopsided", "cli-files")
# setup_s is the median over fresh interpreters, the run's own and probes:
# at least SETUP_MIN_SAMPLES, and more while their total stays within
# SETUP_BUDGET_S, so that quick set-ups get the samples their noise needs.
SETUP_MIN_SAMPLES = 3
SETUP_MAX_SAMPLES = 11
SETUP_BUDGET_S = 3.0
PROBE_TIMEOUT_S = 60
# op_ms_tail needs this many main ops, and this many samples above it.
TAIL_MIN_OPS = 100
TAIL_BEYOND = 10
# The end-to-end metrics every workload reports, as listed in BENCHMARK.json.
# op_ms_tail and reject_ms_p50 exist on haar-small only and are printed beside.
REPORTED_END_TO_END = ("setup_s", "ops_per_s", "op_ms_p50", "peak_rss_mb")


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_workloads():
    """Import the program from this checkout's src/, never from elsewhere."""
    if not (SRC / "tripure" / "__init__.py").is_file():
        fail(f"no tripure sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import tripure
    import workloads

    if Path(tripure.__file__).resolve().parent != (SRC / "tripure").resolve():
        fail(f"imported tripure from {tripure.__file__}, not from {SRC}")
    return workloads


def timed_setup(name: str):
    """Import the program and run one warm-up op.

    Returns the workload, the seconds taken and the warm-up's failure class
    (None when it passed).
    """
    t0 = time.perf_counter()
    workloads = import_workloads()
    from tracing import Tracer

    workload = workloads.WORKLOADS[name](ROOT, Tracer())
    failure = None
    try:
        workload.warmup()
    except workloads.Failure as f:
        failure = f.cls
    except Exception as exc:  # a broken program is a failed op, not a crash
        failure = type(exc).__name__
    return workload, time.perf_counter() - t0, failure


def setup_probe(name: str) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--setup-probe"]
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S
    )
    if proc.returncode != 0:
        fail(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def run_loop(workload, seed: int, seconds: float) -> list[dict]:
    """Closed loop over the seeded input stream for ``seconds`` of wall time."""
    from workloads import Failure

    log = []
    deadline = time.perf_counter() + seconds
    for inp in workload.inputs(seed):
        kind = inp["kind"]
        t0 = time.perf_counter()
        with workload.tracer.op(kind):
            try:
                dt, failure = workload.run(inp), None
            except Failure as f:
                dt, failure = f.seconds, f.cls
            except Exception as exc:  # an unexpected error is a failed op, not a crash
                dt, failure = time.perf_counter() - t0, type(exc).__name__
        log.append({"kind": kind, "case": inp.get("case"), "s": dt, "failure": failure})
        if time.perf_counter() >= deadline:
            break
    return log


def median_ms(values: list[float]) -> float:
    return statistics.median(values) * 1e3


def end_to_end(log: list[dict], main_kind: str) -> tuple[dict, dict]:
    """Metrics a user sees, plus the definitions that travel beside them."""
    main = sorted(e["s"] for e in log if e["kind"] == main_kind)
    timed = sum(e["s"] for e in log)
    metrics = {
        "ops_per_s": {"value": len(log) / timed, "unit": "ops/s"},
        "op_ms_p50": {"value": median_ms(main), "unit": "ms"},
    }
    notes = {"main_ops": len(main), "ops": len(log), "timed_s": timed}
    if len(main) >= TAIL_MIN_OPS:
        level = 100.0 * (len(main) - TAIL_BEYOND) / len(main)
        metrics["op_ms_tail"] = {"value": main[-TAIL_BEYOND - 1] * 1e3, "unit": "ms"}
        notes["op_ms_tail"] = {"percentile": level, "samples": len(main)}
    rejects = [e["s"] for e in log if e["kind"] == "reject"]
    if rejects:
        metrics["reject_ms_p50"] = {"value": median_ms(rejects), "unit": "ms"}
        notes["rejects"] = len(rejects)
    return metrics, notes


# Per-layer metrics: (metric, span name, field, unit).  Times and counts are
# per main op of the traced half: totals over it divided by its main ops.
LAYER_FIELDS = (
    ("spectral.eigh.calls", "spectral.eigh", "calls", "count"),
    ("spectral.eigvalsh.calls", "spectral.eigvalsh", "calls", "count"),
    ("spectral.eigh.s", "spectral.eigh", "total_s", "s"),
    ("spectral.eigvalsh.s", "spectral.eigvalsh", "total_s", "s"),
    ("spectral.eig_hermitian.calls", "spectral.eig_hermitian", "calls", "count"),
    ("spectral.eig_hermitian.s", "spectral.eig_hermitian", "total_s", "s"),
    ("spectral.match_spectra.s", "spectral.match_spectra", "total_s", "s"),
    ("spectral.detect_degeneracy.s", "spectral.detect_degeneracy", "total_s", "s"),
    ("states.partial_trace.calls", "states.partial_trace", "calls", "count"),
    ("states.partial_trace.s", "states.partial_trace", "total_s", "s"),
    ("states.validate.calls", "states.validate", "calls", "count"),
    ("states.validate.s", "states.validate", "total_s", "s"),
    ("reconstruct.total_s", "reconstruct.total", "total_s", "s"),
    ("reconstruct.self_s", "reconstruct.total", "self_s", "s"),
    ("reconstruct.coefficient_tensors.s", "reconstruct.coefficient_tensors", "total_s", "s"),
    ("reconstruct.phase_edges.s", "reconstruct.phase_edges", "total_s", "s"),
    ("reconstruct.solve_phases.s", "reconstruct.solve_phases", "total_s", "s"),
    ("reconstruct.assemble_state.s", "reconstruct.assemble_state", "total_s", "s"),
    ("reconstruct.compatibility_residual.s", "reconstruct.compatibility_residual", "total_s", "s"),
    ("harness.roundtrip.self_s", "harness.roundtrip", "self_s", "s"),
    ("serialize.read.s", "serialize.read", "total_s", "s"),
    ("serialize.read.bytes", "serialize.read", "bytes", "bytes"),
    ("serialize.write.s", "serialize.write", "total_s", "s"),
    ("serialize.write.bytes", "serialize.write", "bytes", "bytes"),
    ("cli.gen.s", "cli.gen", "total_s", "s"),
    ("cli.marginals.s", "cli.marginals", "total_s", "s"),
    ("cli.reconstruct.s", "cli.reconstruct", "total_s", "s"),
    ("cli.reconstruct.report_load_s", "cli.reconstruct.report_load", "total_s", "s"),
    ("cli.reconstruct.unreported_s", "cli.reconstruct.unreported", "total_s", "s"),
)
# Spans opened by the benchmark's own code, never absent.
OWN_SPANS = ("cli.gen", "cli.marginals", "cli.reconstruct",
             "cli.reconstruct.report_load", "cli.reconstruct.unreported")


def per_layer(tracer, workload, log: list[dict], overhead_ms: float) -> tuple[dict, dict]:
    kind = workload.main_kind
    n_main = sum(1 for e in log if e["kind"] == kind)
    metrics, absent = {}, []

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for name, span, field, unit in LAYER_FIELDS:
        if span not in tracer.installed and span not in OWN_SPANS:
            absent.append(name)
        stat = tracer.stat(span, kind)
        put(name, getattr(stat, field) / n_main, unit)
    for direction in ("read", "write"):
        stat = tracer.stat(f"serialize.{direction}", kind)
        put(f"serialize.{direction}.MBps",
            stat.bytes / stat.total_s / 1e6 if stat.total_s else 0.0, "MB/s")

    by_size = {}
    n3 = 0
    for solver in ("spectral.eigh", "spectral.eigvalsh"):
        sizes = tracer.stat(solver, kind).by_size
        by_size[solver] = {str(n): c / n_main for n, c in sorted(sizes.items())}
        n3 += sum(c * n**3 for n, c in sizes.items())
    put("spectral.eig_n3", n3 / n_main, "count")
    for solver in ("spectral.eigh", "spectral.eigvalsh"):
        counts = [c.get(solver, 0) for c in tracer.per_reconstruct]
        put(f"{solver}.per_reconstruct", statistics.mean(counts) if counts else 0.0, "count")

    total = tracer.stat("reconstruct.total", kind)
    put("reconstruct.span_coverage", total.child_s / total.total_s if total.total_s else 0.0,
        "ratio")
    from workloads import HaarSmall

    confirmed = getattr(workload, "confirmed", {})
    for cls in HaarSmall.CASES:
        put(f"reject.{cls}.count", confirmed.get(cls, 0), "count")
    put("trace.overhead_ms", overhead_ms, "ms")
    put("trace.main_ops", n_main, "count")

    counts = [sorted(c.items()) for c in tracer.per_reconstruct]
    notes = {
        "absent": absent,
        "absent_targets": tracer.absent,
        "eigensolves_by_size_per_main_op": by_size,
        "eigensolves_per_reconstruct_distinct": sorted(set(map(tuple, counts))),
        "reconstruct_calls": len(tracer.per_reconstruct),
        "reject_plan": {
            cls: sum(1 for e in log if e["case"] == cls) for cls in HaarSmall.CASES
        },
        "reject_kind_s_per_reject": {
            span: stat.total_s / max(1, sum(1 for e in log if e["kind"] == "reject"))
            for (k, span), stat in sorted(tracer.stats.items()) if k == "reject"
        },
    }
    return metrics, notes


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None where it cannot be read."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy as np

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), None)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        vendor = None
    return {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_vendor": vendor,
        "blas_threads_effective": blas_threads(),
        "blas_thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": NPROC,
        "cpu_model": cpu,
        "seed": seed,
    }


def run_one(args) -> dict:
    workload, first_setup, warmup_failure = timed_setup(args.workload)
    setups = [first_setup]
    while len(setups) < SETUP_MIN_SAMPLES or (
        len(setups) < SETUP_MAX_SAMPLES and sum(setups) < SETUP_BUDGET_S
    ):
        setups.append(setup_probe(args.workload))
    failures: dict[str, int] = {}
    attempted = 0

    def tally(outcomes):
        nonlocal attempted
        attempted += len(outcomes)
        for failure in outcomes:
            if failure:
                failures[failure] = failures.get(failure, 0) + 1

    tally([warmup_failure])

    try:
        if args.trace:
            half = args.seconds / 2.0
            log = run_loop(workload, args.seed, half)
            metrics, notes = end_to_end(log, workload.main_kind)
            tracer = workload.tracer
            tracer.install()
            try:
                traced = run_loop(workload, args.seed, half)
            finally:
                tracer.restore()
            traced_metrics, _ = end_to_end(traced, workload.main_kind)
            overhead = traced_metrics["op_ms_p50"]["value"] - metrics["op_ms_p50"]["value"]
            layers, layer_notes = per_layer(tracer, workload, traced, overhead)
            notes["trace"] = layer_notes
            notes["traced_op_ms_p50"] = traced_metrics["op_ms_p50"]["value"]
            tally([e["failure"] for e in log + traced])
        else:
            log = run_loop(workload, args.seed, args.seconds)
            metrics, notes = end_to_end(log, workload.main_kind)
            layers = None
            tally([e["failure"] for e in log])
        final = workload.finish()
    finally:
        workload.close()
    tally(final)
    if final:
        notes["final_checks"] = final

    failed = sum(failures.values())
    metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    metrics["peak_rss_mb"] = {
        "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"
    }
    notes["setup_samples_s"] = setups
    fail_frac = failed / attempted
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed),
        "attempted": attempted,
        "failed": failed,
        "fail_frac": fail_frac,
        "failures_by_class": failures,
        "end_to_end": metrics,
        "per_layer": layers,
        "notes": notes,
    }


def print_result(result: dict) -> None:
    print(f"workload {result['workload']} seed {result['seed']} "
          f"trace {result['trace']} seconds {result['seconds']}")
    for name, m in result["end_to_end"].items():
        extra = ""
        if name == "op_ms_tail":
            tail = result["notes"]["op_ms_tail"]
            extra = f"  (p{tail['percentile']:.2f} of {tail['samples']} main ops)"
        print(f"  {name:<16} {m['value']:.6g} {m['unit']}{extra}")
    print(f"  {'fail_frac':<16} {result['fail_frac']:.6g} ratio  "
          f"({result['failed']} of {result['attempted']} ops)")
    if result["failures_by_class"]:
        print(f"  failures by class: {json.dumps(result['failures_by_class'])}")
    if result["per_layer"] is not None:
        for name, m in result["per_layer"].items():
            print(f"  {name:<40} {m['value']:.6g} {m['unit']}")
        absent = result["notes"]["trace"]["absent"]
        if absent:
            print(f"  absent (target not found): {', '.join(absent)}")
    env = result["environment"]
    print(f"  env: commit {env['git_commit']} python {env['python']} numpy {env['numpy']} "
          f"blas {env['blas_vendor']} threads {env['blas_threads_effective']} "
          f"nproc {env['nproc']} cpu {env['cpu_model']}")

    OUT.mkdir(exist_ok=True)
    path = OUT / f"{result['workload']}-seed{result['seed']}-trace{result['trace']}.json"
    path.write_text(json.dumps(result, indent=2, default=str) + "\n", encoding="utf-8")

    source = result["per_layer"] if result["trace"] else result["end_to_end"]
    names = source if result["trace"] else REPORTED_END_TO_END
    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: source[name] for name in names},
    }
    print(json.dumps(line), flush=True)


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    summary = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode or 1
        summary[name] = json.loads(lines[-1])
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        # A failed warm-up is counted by the run's own, identical warm-up.
        workload, seconds, _ = timed_setup(args.workload)
        workload.close()
        print(seconds)
        return 0
    if args.workload == "all":
        return run_all(args)
    print_result(run_one(args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
