"""Workload inputs, timed ops and correctness checks for the tripure benchmark.

Inputs come from the benchmark's own numpy RNG seeded by ``--seed``: Haar
vectors and their marginals are computed here with numpy, never with
tripure, so a change to the program cannot change what it is fed.  Each
workload is a closed loop with one caller.  The program is reached through
its module attributes (``harness.roundtrip``, ``cli.main`` ...), so that the
tracer's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np

from tripure import cli, harness, reconstruct, states

FIDELITY_MIN = 1.0 - 1e-8
# Entrywise agreement of a marginal file with the benchmark's own marginal.
MARGINAL_FILE_TOL = 1e-12
# Input of the warm-up op and of the byte-determinism runs, whatever --seed is.
FIXED_SEED = 403200

HAAR_SMALL_DIMS = ((2, 2, 2), (2, 3, 4), (3, 3, 3), (4, 4, 4), (2, 5, 3), (3, 4, 2))
LOPSIDED_DIMS = (4, 32, 32)
CLI_DIMS = (8, 64, 8)
REJECT_EVERY = 4


class Failure(Exception):
    """An op whose outcome differs from the expected one; ``cls`` names how."""

    def __init__(self, cls: str, seconds: float):
        super().__init__(cls)
        self.cls = cls
        self.seconds = seconds


def haar_vector(rng: np.random.Generator, dims) -> np.ndarray:
    n = int(np.prod(dims))
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def ghz_like(dims, p: float, phase: float) -> np.ndarray:
    """sqrt(p)|000> + e^{i phase} sqrt(1-p)|111>."""
    psi = np.zeros(dims, dtype=complex)
    psi[0, 0, 0] = np.sqrt(p)
    psi[1, 1, 1] = np.exp(1j * phase) * np.sqrt(1.0 - p)
    return psi.reshape(-1)


def marginals(psi: np.ndarray, dims) -> tuple[np.ndarray, np.ndarray]:
    """rho_AB and rho_BC of a flat (A, B, C) amplitude vector."""
    d_a, d_b, d_c = dims
    t = psi.reshape(d_a * d_b, d_c)
    m = psi.reshape(d_a, d_b * d_c)
    return t @ t.conj().T, m.T @ m.conj()


def reconstruct_from_arrays(dims, ab: np.ndarray, bc: np.ndarray):
    """What a library user with two raw matrices does: wrap both, reconstruct."""
    rho_ab = states.DensityMatrix(("A", "B"), dims[:2], ab)
    rho_bc = states.DensityMatrix(("B", "C"), dims[1:], bc)
    return reconstruct.reconstruct_tripartite(rho_ab, rho_bc, states.Dims(*dims))


def vdot_fidelity(psi: np.ndarray, phi: np.ndarray) -> float:
    return float(abs(np.vdot(psi, phi)) ** 2)


def _reject_constant(token: str):
    raise ValueError(f"non-finite JSON constant {token}")


def strict_json(text: str):
    """json.loads that refuses NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def input_digest(inp: dict) -> str:
    """Hash of one generated input, for the same-seed-same-input check."""
    h = hashlib.sha256()
    for key in sorted(inp):
        value = inp[key]
        h.update(key.encode())
        h.update(value.tobytes() if isinstance(value, np.ndarray) else repr(value).encode())
    return h.hexdigest()


class Workload:
    """One closed-loop workload: an input stream, a timed op and its checks."""

    name = ""
    main_kind = ""

    def __init__(self, root: Path, tracer):
        self.root = root
        self.tracer = tracer

    def inputs(self, seed: int):
        raise NotImplementedError

    def run(self, inp: dict) -> float:
        """Run one op; return the seconds of its timed region or raise Failure."""
        raise NotImplementedError

    def warmup(self) -> None:
        self.run(next(self.inputs(FIXED_SEED)))

    def finish(self) -> list:
        """Checks made once at the end of a run: one failure class or None each."""
        return []

    def close(self) -> None:
        pass


class HaarSmall(Workload):
    """Small Haar states through roundtrip, every 4th op a known-bad pair."""

    name = "haar-small"
    main_kind = "roundtrip"
    # Reject case -> the error class it must raise.
    EXPECTED = {
        "MarginalInconsistency": "MarginalInconsistency",
        "PhaseGraphDisconnected": "PhaseGraphDisconnected",
        "GenericityViolation": "GenericityViolation",
    }
    CASES = tuple(EXPECTED)

    def __init__(self, root: Path, tracer):
        super().__init__(root, tracer)
        self.captured = None
        self.confirmed: dict[str, int] = {}
        # Keep the report roundtrip builds, to score its state independently.
        self._original = getattr(harness, "reconstruct_tripartite", None)
        if self._original is not None:
            original = self._original

            def capture(*args, **kwargs):
                self.captured = original(*args, **kwargs)
                return self.captured

            harness.reconstruct_tripartite = capture

    def close(self) -> None:
        if self._original is not None:
            harness.reconstruct_tripartite = self._original

    def inputs(self, seed: int):
        rng = np.random.default_rng(seed)
        n_main = n_reject = 0
        for t in itertools.count():
            if t % REJECT_EVERY == REJECT_EVERY - 1:
                case = self.CASES[n_reject % len(self.CASES)]
                dims = HAAR_SMALL_DIMS[(n_reject // len(self.CASES)) % len(HAAR_SMALL_DIMS)]
                n_reject += 1
                if case == "MarginalInconsistency":
                    ab, _ = marginals(haar_vector(rng, dims), dims)
                    _, bc = marginals(haar_vector(rng, dims), dims)
                else:
                    p = 0.5
                    if case == "PhaseGraphDisconnected":
                        p = rng.uniform(0.15, 0.35)
                        p = 1.0 - p if rng.integers(2) else p
                    ab, bc = marginals(ghz_like(dims, p, rng.uniform(0.0, 2 * np.pi)), dims)
                yield {"kind": "reject", "case": case, "dims": dims, "ab": ab, "bc": bc}
            else:
                dims = HAAR_SMALL_DIMS[n_main % len(HAAR_SMALL_DIMS)]
                n_main += 1
                yield {"kind": "roundtrip", "dims": dims, "psi": haar_vector(rng, dims)}

    def run(self, inp: dict) -> float:
        if inp["kind"] == "reject":
            return self._reject(inp)
        psi = inp["psi"]
        state = states.PureState(states.Dims(*inp["dims"]), psi)
        self.captured = None
        t0 = time.perf_counter()
        record = harness.roundtrip(state)
        dt = time.perf_counter() - t0
        if record.outcome != "success":
            raise Failure(record.outcome, dt)
        if not record.fidelity >= FIDELITY_MIN:
            raise Failure("reported-fidelity", dt)
        report = self.captured if self.captured is not None else self._reconstruct(inp)
        if not vdot_fidelity(psi, report.state.amplitudes) >= FIDELITY_MIN:
            raise Failure("fidelity", dt)
        return dt

    def _reconstruct(self, inp: dict):
        """Untraced reconstruction of a roundtrip input, when none was captured."""
        ab, bc = marginals(inp["psi"], inp["dims"])
        active, self.tracer.active = self.tracer.active, False
        try:
            return reconstruct_from_arrays(inp["dims"], ab, bc)
        finally:
            self.tracer.active = active

    def _reject(self, inp: dict) -> float:
        t0 = time.perf_counter()
        try:
            reconstruct_from_arrays(inp["dims"], inp["ab"], inp["bc"])
        except Exception as exc:  # any class is an outcome to compare
            dt = time.perf_counter() - t0
            got = type(exc).__name__
        else:
            raise Failure("no-error", time.perf_counter() - t0)
        if got != self.EXPECTED[inp["case"]]:
            raise Failure(got, dt)
        if self.tracer.active:
            self.confirmed[got] = self.confirmed.get(got, 0) + 1
        return dt


class Lopsided(Workload):
    """Two raw marginals of a (4,32,32) Haar state to a library reconstruction."""

    name = "lopsided"
    main_kind = "reconstruct"

    def inputs(self, seed: int):
        rng = np.random.default_rng(seed)
        while True:
            psi = haar_vector(rng, LOPSIDED_DIMS)
            ab, bc = marginals(psi, LOPSIDED_DIMS)
            yield {"kind": "reconstruct", "psi": psi, "ab": ab, "bc": bc}

    def run(self, inp: dict) -> float:
        t0 = time.perf_counter()
        report = reconstruct_from_arrays(LOPSIDED_DIMS, inp["ab"], inp["bc"])
        dt = time.perf_counter() - t0
        if not vdot_fidelity(inp["psi"], report.state.amplitudes) >= FIDELITY_MIN:
            raise Failure("fidelity", dt)
        return dt


class CliFiles(Workload):
    """The README file pipeline at (8,64,8), run in-process through cli.main."""

    name = "cli-files"
    main_kind = "pipeline"
    DATA_FILES = ("psi.json", "ab.json", "bc.json", "recovered.json")

    def __init__(self, root: Path, tracer):
        super().__init__(root, tracer)
        out = root / ".perfbench_out"
        out.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="cli-", dir=out))
        self.first_digests: dict[str, str] | None = None
        self.last_digests: dict[str, str] = {}

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def inputs(self, seed: int):
        rng = np.random.default_rng(seed)
        while True:
            yield {"kind": "pipeline", "gen_seed": int(rng.integers(2**31))}

    def _steps(self, gen_seed: int):
        f = {name: str(self.dir / name) for name in self.DATA_FILES + ("report.json",)}
        dims = ",".join(map(str, CLI_DIMS))
        return (
            ("gen", ["gen", "--dims", dims, "--seed", str(gen_seed), "--out", f["psi.json"]]),
            ("marginals", ["marginals", "--in", f["psi.json"], "--keep", "AB", "--out", f["ab.json"]]),
            ("marginals", ["marginals", "--in", f["psi.json"], "--keep", "BC", "--out", f["bc.json"]]),
            ("reconstruct", ["reconstruct", "--ab", f["ab.json"], "--bc", f["bc.json"],
                             "--dims", dims, "--out", f["recovered.json"],
                             "--truth", f["psi.json"], "--report", f["report.json"]]),
        )

    def run(self, inp: dict) -> float:
        total = reconstruct_wall = 0.0
        for cmd, argv in self._steps(inp["gen_seed"]):
            t0 = time.perf_counter()
            with self.tracer.span(f"cli.{cmd}"):
                code = cli.main(argv)
            dt = time.perf_counter() - t0
            total += dt
            reconstruct_wall = dt
            if code != 0:
                raise Failure(f"exit-{code}-{cmd}", total)
        self._check_outputs(reconstruct_wall, total)
        return total

    def _load(self, name: str, total: float):
        raw = (self.dir / name).read_bytes()
        if name in self.DATA_FILES:
            self.last_digests[name] = hashlib.sha256(raw).hexdigest()
        try:
            return strict_json(raw.decode("utf-8"))
        except ValueError:
            raise Failure(f"bad-json-{name}", total) from None

    def _check_outputs(self, reconstruct_wall: float, total: float) -> None:
        def data(doc, kind: str, shape: tuple) -> np.ndarray:
            try:
                arr = np.asarray(doc["data"], dtype=float) if doc["kind"] == kind else None
            except (KeyError, TypeError, ValueError):
                arr = None
            if arr is None or arr.shape != shape + (2,) or not np.isfinite(arr).all():
                raise Failure(f"bad-{kind}", total)
            return arr[..., 0] + 1j * arr[..., 1]

        d_a, d_b, d_c = CLI_DIMS
        psi = data(self._load("psi.json", total), "pure_state", (d_a * d_b * d_c,))
        if abs(np.linalg.norm(psi) - 1.0) > 1e-10:
            raise Failure("psi-norm", total)
        expect_ab, expect_bc = marginals(psi, CLI_DIMS)
        for name, expect in (("ab.json", expect_ab), ("bc.json", expect_bc)):
            got = data(self._load(name, total), "density_matrix", expect.shape)
            if np.abs(got - expect).max() > MARGINAL_FILE_TOL:
                raise Failure(f"marginal-{name}", total)
            del got
        recovered = data(self._load("recovered.json", total), "pure_state", psi.shape)
        if not vdot_fidelity(psi, recovered) >= FIDELITY_MIN:
            raise Failure("fidelity", total)
        report = self._load("report.json", total)
        if not isinstance(report, dict) or report.get("outcome") != "success":
            raise Failure("report-outcome", total)
        timings = report.get("timings", {})
        self.tracer.add("cli.reconstruct.report_load", timings.get("load_s", 0.0))
        self.tracer.add("cli.reconstruct.unreported", reconstruct_wall - timings.get("total_s", 0.0))

    def warmup(self) -> None:
        super().warmup()
        self.first_digests = dict(self.last_digests)

    def finish(self) -> list:
        """Re-run the warm-up input; every data file must be byte-identical."""
        try:
            super().warmup()
        except Failure as f:
            return [f.cls]
        except Exception as exc:  # a broken program is a failed check, not a crash
            return [type(exc).__name__]
        if self.last_digests != self.first_digests:
            return ["nondeterministic-output"]
        return [None]


WORKLOADS = {w.name: w for w in (HaarSmall, Lopsided, CliFiles)}
