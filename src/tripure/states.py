"""Core types and operations for tripartite states.

States live on three subsystems labelled ``A``, ``B``, ``C``.  Amplitude
vectors are flattened row-major: index ``(i, j, k)`` maps to
``(i * d_B + j) * d_C + k``, so ``A`` varies slowest and ``C`` fastest.
The same convention orders the rows and columns of every density matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError

SUBSYSTEM_LABELS = ("A", "B", "C")

NORM_TOL = 1e-10
HERM_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-9


@dataclass(frozen=True)
class Dims:
    """Subsystem dimensions (d_a, d_b, d_c), all strictly positive."""

    d_a: int
    d_b: int
    d_c: int

    def __post_init__(self):
        for name, d in zip(("d_a", "d_b", "d_c"), self.as_tuple()):
            if isinstance(d, bool) or not isinstance(d, (int, np.integer)) or d <= 0:
                raise ContractError(f"{name} must be a positive integer, got {d!r}")

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.d_a, self.d_b, self.d_c)

    @property
    def total(self) -> int:
        return self.d_a * self.d_b * self.d_c

    def of(self, label: str) -> int:
        return dict(zip(SUBSYSTEM_LABELS, self.as_tuple()))[label]


def flat_index(i: int, j: int, k: int, dims: Dims) -> int:
    """Row-major flat index (i * d_b + j) * d_c + k with range checking."""
    if not (0 <= i < dims.d_a and 0 <= j < dims.d_b and 0 <= k < dims.d_c):
        raise IndexError(f"index ({i}, {j}, {k}) out of range for dims {dims.as_tuple()}")
    return (i * dims.d_b + j) * dims.d_c + k


@dataclass(frozen=True)
class PureState:
    """Unit-norm amplitude vector over the flattened (A, B, C) index."""

    dims: Dims
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (self.dims.total,):
            raise ContractError(
                f"amplitude vector has shape {amps.shape}, expected ({self.dims.total},)"
            )
        if not np.isfinite(amps).all():
            raise ContractError("amplitude vector has non-finite entries")
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > NORM_TOL:
            raise ContractError(f"state norm {norm!r} deviates from 1 by more than {NORM_TOL}")
        object.__setattr__(self, "amplitudes", amps)

    def as_tensor(self) -> np.ndarray:
        """Amplitudes reshaped to (d_a, d_b, d_c)."""
        return self.amplitudes.reshape(self.dims.as_tuple())

    def density(self) -> "DensityMatrix":
        """Full projector |psi><psi| as a DensityMatrix over (A, B, C)."""
        m = np.outer(self.amplitudes, self.amplitudes.conj())
        return DensityMatrix(SUBSYSTEM_LABELS, self.dims.as_tuple(), m)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, trace-one, positive-semidefinite matrix on labelled subsystems.

    ``subsystems`` is an ordered subset of ("A", "B", "C") and ``dims`` holds
    the matching per-subsystem dimensions.  Construction symmetrizes the
    matrix, (M + M^dag) / 2, when it is Hermitian within ``HERM_TOL`` and
    rejects it otherwise.  Positive semidefiniteness is accepted from a
    Cholesky factorization of ``M + PSD_TOL * I``; only when that fails is
    the smallest eigenvalue computed and compared with ``-PSD_TOL``.
    """

    subsystems: tuple[str, ...]
    dims: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self):
        subs = tuple(self.subsystems)
        order = [s for s in SUBSYSTEM_LABELS if s in subs]
        if not subs or len(set(subs)) != len(subs) or tuple(order) != subs:
            raise ContractError(
                f"subsystems must be an ordered subset of {SUBSYSTEM_LABELS}, got {subs!r}"
            )
        dims = tuple(int(d) for d in self.dims)
        if len(dims) != len(subs) or any(d <= 0 for d in dims):
            raise ContractError(f"dims {dims!r} do not match subsystems {subs!r}")
        n = int(np.prod(dims))
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (n, n):
            raise ContractError(f"matrix has shape {m.shape}, expected ({n}, {n})")
        if not np.isfinite(m).all():
            raise ContractError("matrix has non-finite entries")
        herm_gap = np.abs(m - m.conj().T).max()
        if herm_gap > HERM_TOL:
            raise ContractError(f"matrix is not Hermitian: max |M - M^dag| = {herm_gap:.3e}")
        m = (m + m.conj().T) / 2.0
        tr = m.trace()
        if abs(tr - 1.0) > TRACE_TOL:
            raise ContractError(f"trace {tr!r} deviates from 1 by more than {TRACE_TOL}")
        try:
            np.linalg.cholesky(m + PSD_TOL * np.eye(n))
        except np.linalg.LinAlgError:
            lam_min = np.linalg.eigvalsh(m)[0]
            if lam_min < -PSD_TOL:
                raise ContractError(
                    f"matrix is not positive semidefinite: lambda_min = {lam_min:.3e}"
                ) from None
        object.__setattr__(self, "subsystems", subs)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "matrix", m)

    @classmethod
    def _derived(cls, subsystems: tuple[str, ...], dims: tuple[int, ...], m: np.ndarray):
        """Wrap a matrix derived from validated states without re-running the checks.

        Partial traces and convex combinations of density matrices are
        density matrices, so only the symmetrization is repeated.
        """
        rho = object.__new__(cls)
        object.__setattr__(rho, "subsystems", subsystems)
        object.__setattr__(rho, "dims", tuple(int(d) for d in dims))
        object.__setattr__(rho, "matrix", (m + m.conj().T) / 2.0)
        return rho

    @property
    def dim(self) -> int:
        return int(np.prod(self.dims))


def _canonical_keep(keep, available: tuple[str, ...]) -> tuple[str, ...]:
    labels = tuple(keep) if not isinstance(keep, str) else tuple(keep)
    for lab in labels:
        if lab not in SUBSYSTEM_LABELS:
            raise ContractError(f"unknown subsystem label {lab!r}")
        if lab not in available:
            raise ContractError(f"subsystem {lab!r} not present in state over {available}")
    ordered = tuple(s for s in available if s in labels)
    if len(set(labels)) != len(labels):
        raise ContractError(f"duplicate labels in keep set {labels!r}")
    if not ordered or len(ordered) == len(available):
        raise ContractError(
            f"keep set {labels!r} must be a nonempty proper subset of {available}"
        )
    return ordered


def _reduce(state: PureState | DensityMatrix, keep) -> tuple[tuple, tuple, np.ndarray]:
    """Kept labels, kept dims and the unvalidated reduced matrix."""
    if isinstance(state, PureState):
        available = SUBSYSTEM_LABELS
        dims = state.dims.as_tuple()
        kept = _canonical_keep(keep, available)
        keep_ax = [available.index(s) for s in kept]
        traced_ax = [ax for ax in range(3) if ax not in keep_ax]
        t = state.as_tensor()
        reduced = np.tensordot(t, t.conj(), axes=(traced_ax, traced_ax))
        kept_dims = tuple(dims[ax] for ax in keep_ax)
        n = int(np.prod(kept_dims))
        return kept, kept_dims, reduced.reshape(n, n)

    if isinstance(state, DensityMatrix):
        available = state.subsystems
        kept = _canonical_keep(keep, available)
        dims = list(state.dims)
        arr = state.matrix.reshape(*dims, *dims)
        n_factors = len(dims)
        for pos in sorted(
            (available.index(s) for s in available if s not in kept), reverse=True
        ):
            arr = np.trace(arr, axis1=pos, axis2=pos + n_factors)
            n_factors -= 1
        kept_dims = tuple(state.dims[available.index(s)] for s in kept)
        n = int(np.prod(kept_dims))
        return kept, kept_dims, arr.reshape(n, n)

    raise ContractError(f"cannot take a partial trace of {type(state).__name__}")


def partial_trace(state: PureState | DensityMatrix, keep) -> DensityMatrix:
    """Reduced density matrix over the ``keep`` subsystems.

    Parameters
    ----------
    state
        A PureState over (A, B, C) or a DensityMatrix over any subsystem set.
    keep
        Labels to retain, e.g. ``"AB"``, ``("B",)``, ``{"B", "C"}``.  Must be
        a nonempty proper subset of the state's subsystems.

    Returns
    -------
    DensityMatrix over the kept subsystems, in canonical A < B < C order.
    """
    return DensityMatrix(*_reduce(state, keep))


def derived_marginal(state: PureState | DensityMatrix, keep) -> DensityMatrix:
    """``partial_trace`` without re-validating the result.

    The partial trace of a validated state is a density matrix, so the
    result carries the same matrix ``partial_trace`` would return but skips
    the Hermiticity, trace and positivity checks.
    """
    return DensityMatrix._derived(*_reduce(state, keep))


def fidelity(psi1: PureState, psi2: PureState) -> float:
    """|<psi1|psi2>|^2; invariant under global phases on either argument."""
    if psi1.dims != psi2.dims:
        raise ContractError(f"dimension mismatch: {psi1.dims} vs {psi2.dims}")
    return float(abs(np.vdot(psi1.amplitudes, psi2.amplitudes)) ** 2)


def purity(rho: DensityMatrix) -> float:
    """Tr(rho^2), 1 for pure states and 1/d for maximally mixed ones."""
    return float(np.real(np.trace(rho.matrix @ rho.matrix)))
