"""Per-layer tracing for the benchmark, installed from outside the program.

The tracer replaces public functions at the module attributes the program
calls through (``tripure.reconstruct.eig_hermitian``, ``numpy.linalg.eigh``
and so on) with wrappers that record one span per call.  Spans nest on a
stack, so a layer's self time is its duration minus the time its child
spans cover.  Spans are kept in memory as aggregates per (op kind, span
name) and read once when the run ends.  No program file is edited; a
target attribute that a later refactor removes is reported as absent.
"""

from __future__ import annotations

import importlib
import os
import time
from contextlib import contextmanager

# (module, attribute, span name).  One span name covers several attributes
# where the program reaches one function through several modules.
FUNCTION_TARGETS = (
    ("numpy.linalg", "eigh", "spectral.eigh"),
    ("numpy.linalg", "eigvalsh", "spectral.eigvalsh"),
    ("tripure.reconstruct", "eig_hermitian", "spectral.eig_hermitian"),
    ("tripure.harness", "eig_hermitian", "spectral.eig_hermitian"),
    ("tripure.reconstruct", "match_spectra", "spectral.match_spectra"),
    ("tripure.reconstruct", "detect_degeneracy", "spectral.detect_degeneracy"),
    ("tripure.spectral", "detect_degeneracy", "spectral.detect_degeneracy"),
    ("tripure.reconstruct", "partial_trace", "states.partial_trace"),
    ("tripure.harness", "partial_trace", "states.partial_trace"),
    ("tripure.cli", "partial_trace", "states.partial_trace"),
    ("tripure.reconstruct", "reconstruct_tripartite", "reconstruct.total"),
    ("tripure.harness", "reconstruct_tripartite", "reconstruct.total"),
    ("tripure.cli", "reconstruct_tripartite", "reconstruct.total"),
    ("tripure.reconstruct", "coefficient_tensors", "reconstruct.coefficient_tensors"),
    ("tripure.reconstruct", "phase_edges", "reconstruct.phase_edges"),
    ("tripure.reconstruct", "solve_phases", "reconstruct.solve_phases"),
    ("tripure.reconstruct", "assemble_state", "reconstruct.assemble_state"),
    ("tripure.reconstruct", "compatibility_residual", "reconstruct.compatibility_residual"),
    ("tripure.harness", "roundtrip", "harness.roundtrip"),
    ("tripure.cli", "read_matrix_file", "serialize.read"),
    ("tripure.cli", "write_matrix_file", "serialize.write"),
)

# (module, class, method, span name): construction-time validation of every
# density matrix, wrapped on the class.
METHOD_TARGETS = (("tripure.states", "DensityMatrix", "__post_init__", "states.validate"),)

# Spans whose first argument is a square matrix: counted by matrix size.
EIGENSOLVES = ("spectral.eigh", "spectral.eigvalsh")
# Spans whose first argument is a file path: the file's size is added.
FILE_SPANS = ("serialize.read", "serialize.write")


class SpanStats:
    __slots__ = ("calls", "total_s", "child_s", "bytes", "by_size")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.child_s = 0.0
        self.bytes = 0
        self.by_size: dict[int, int] = {}

    @property
    def self_s(self) -> float:
        return self.total_s - self.child_s


class Tracer:
    """Span aggregates keyed by (op kind, span name), plus what it wrapped."""

    def __init__(self):
        self.stats: dict[tuple[str, str], SpanStats] = {}
        self.absent: list[str] = []
        self.installed: set[str] = set()
        # Eigensolve counts inside each reconstruct span that returned.
        self.per_reconstruct: list[dict[str, int]] = []
        self.active = False
        self.kind = ""
        self._stack: list[list] = []
        self._saved: list[tuple[object, str, object]] = []

    def stat(self, name: str, kind: str | None = None) -> SpanStats:
        key = (self.kind if kind is None else kind, name)
        s = self.stats.get(key)
        if s is None:
            s = self.stats[key] = SpanStats()
        return s

    @contextmanager
    def op(self, kind: str):
        """Attribute the spans opened inside to one op kind."""
        previous, self.kind = self.kind, kind
        try:
            yield
        finally:
            self.kind = previous

    @contextmanager
    def span(self, name: str):
        """Span around a call made from benchmark code."""
        if not self.active:
            yield
            return
        frame = self._open(name)
        t0 = time.perf_counter()
        ok = False
        try:
            yield
            ok = True
        finally:
            self._close(frame, time.perf_counter() - t0, ok)

    def add(self, name: str, seconds: float) -> None:
        """Record a duration measured elsewhere, such as a report's own timing."""
        if self.active:
            s = self.stat(name)
            s.calls += 1
            s.total_s += seconds

    def _open(self, name: str) -> list:
        # [name, child seconds, eigensolve counts below this span]
        frame = [name, 0.0, {}]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, dt: float, ok: bool) -> None:
        name, child_s, eig_counts = frame
        self._stack.pop()
        s = self.stat(name)
        s.calls += 1
        s.total_s += dt
        s.child_s += child_s
        if self._stack:
            parent = self._stack[-1]
            parent[1] += dt
            for k, v in eig_counts.items():
                parent[2][k] = parent[2].get(k, 0) + v
        if name == "reconstruct.total" and ok:
            self.per_reconstruct.append(eig_counts)

    def _wrap(self, fn, name: str):
        tracer = self
        eigensolve = name in EIGENSOLVES
        file_span = name in FILE_SPANS

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = tracer._open(name)
            t0 = time.perf_counter()
            ok = False
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                dt = time.perf_counter() - t0
                if eigensolve:
                    n = int(args[0].shape[-1])
                    by_size = tracer.stat(name).by_size
                    by_size[n] = by_size.get(n, 0) + 1
                    frame[2][name] = frame[2].get(name, 0) + 1
                elif file_span and ok:
                    tracer.stat(name).bytes += _file_size(args[0])
                tracer._close(frame, dt, ok)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every target that exists, record the rest as absent, start tracing."""
        for module_name, attr, name in FUNCTION_TARGETS:
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                owner = None
            self._replace(owner, attr, name, f"{module_name}.{attr}")
        for module_name, cls_name, attr, name in METHOD_TARGETS:
            try:
                owner = getattr(importlib.import_module(module_name), cls_name)
            except (ImportError, AttributeError):
                owner = None
            self._replace(owner, attr, name, f"{module_name}.{cls_name}.{attr}")
        self.active = True

    def _replace(self, owner, attr: str, name: str, label: str) -> None:
        if isinstance(owner, type):
            fn = owner.__dict__.get(attr)
        else:
            fn = getattr(owner, attr, None)
        if not callable(fn):
            self.absent.append(label)
            return
        self._saved.append((owner, attr, fn))
        setattr(owner, attr, self._wrap(fn, name))
        self.installed.add(name)

    def restore(self) -> None:
        """Stop tracing and put every wrapped attribute back."""
        self.active = False
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0
