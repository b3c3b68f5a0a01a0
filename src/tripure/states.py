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


def _integer(name: str, value, least: int = 1) -> int:
    """``value`` as a Python int >= ``least``: 1 for sizes and counts, 0 for seeds.

    ``bool``, floats and strings are refused rather than coerced, so a
    malformed size or seed never turns silently into a valid one.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        kind = "positive" if least == 1 else "non-negative"
        raise ContractError(f"{name} must be a {kind} integer, got {value!r}")
    return int(value)


def _positive_real(name: str, value) -> float:
    """``value`` as a Python float; anything but a positive finite real is rejected.

    ``bool``, strings, ``None``, NaN, infinities and integers too large for a
    float are refused rather than coerced, like the sizes ``_integer``
    checks.
    """
    real = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
    try:
        h = float(value) if real else np.nan
    except OverflowError:
        h = np.inf
    if not 0.0 < h < np.inf:
        raise ContractError(f"{name} must be a positive finite real, got {value!r}")
    return h


def _sequence(name: str, value) -> tuple:
    """``value`` as a tuple; a scalar or other non-iterable is rejected."""
    try:
        return tuple(value)
    except TypeError:
        raise ContractError(f"{name} must be a sequence, got {value!r}") from None


def _entries(name: str, values, check, length: int) -> tuple:
    """``values`` as a tuple of ``length`` entries, entry ``idx`` passed through ``check``."""
    values = _sequence(name, values)
    if len(values) != length:
        raise ContractError(f"{name} must have {length} entries, got {values!r}")
    return tuple(check(f"{name}[{idx}]", v) for idx, v in enumerate(values))


def _array(name: str, value, shape: tuple | None = None, dtype=complex) -> np.ndarray:
    """``value`` as a finite ``dtype`` array, of ``shape`` when one is given.

    Non-numeric content is refused by its type name, since a matrix repr can be huge.
    """
    try:
        arr = np.asarray(value)
    except ValueError:  # a ragged nesting
        arr = None
    if arr is None or not np.can_cast(arr.dtype, dtype, "same_kind"):
        raise ContractError(f"{name} must be numeric, got {type(value).__name__}")
    arr = arr.astype(dtype, copy=False)
    if shape is not None and arr.shape != shape:
        raise ContractError(f"{name} has shape {arr.shape}, expected {shape}")
    if not np.isfinite(arr).all():
        raise ContractError(f"{name} has non-finite entries")
    return arr


def _choice(name: str, value, choices: tuple[str, ...]) -> str:
    """``value`` when it is one of the strings in ``choices``."""
    if not isinstance(value, str) or value not in choices:
        raise ContractError(f"{name} must be one of {choices}, got {value!r}")
    return value


def _instance(name: str, value, cls: type):
    """``value`` when it is an instance of ``cls``."""
    if not isinstance(value, cls):
        raise ContractError(f"{name} must be a {cls.__name__}, got {type(value).__name__}")
    return value


@dataclass(frozen=True)
class Dims:
    """Subsystem dimensions (d_a, d_b, d_c), all strictly positive."""

    d_a: int
    d_b: int
    d_c: int

    def __post_init__(self):
        for name in ("d_a", "d_b", "d_c"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))

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
        dims = _instance("dims", self.dims, Dims)
        amps = _array("amplitudes", self.amplitudes, (dims.total,))
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > NORM_TOL:
            raise ContractError(f"state norm {norm!r} deviates from 1 by more than {NORM_TOL}")
        object.__setattr__(self, "amplitudes", amps)

    def as_tensor(self) -> np.ndarray:
        """Amplitudes reshaped to (d_a, d_b, d_c)."""
        return self.amplitudes.reshape(self.dims.as_tuple())


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
        subs = _sequence("subsystems", self.subsystems)
        for s in subs:
            _choice("subsystems", s, SUBSYSTEM_LABELS)
        if not subs or tuple(s for s in SUBSYSTEM_LABELS if s in subs) != subs:
            raise ContractError(
                f"subsystems must be an ordered subset of {SUBSYSTEM_LABELS}, got {subs!r}"
            )
        dims = _entries("dims", self.dims, _integer, len(subs))
        n = int(np.prod(dims))
        m = _array("matrix", self.matrix, (n, n))
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
    labels = _sequence("keep", keep)
    for lab in labels:
        _choice("keep", lab, available)
    ordered = tuple(s for s in available if s in labels)
    if len(set(labels)) != len(labels):
        raise ContractError(f"duplicate labels in keep set {labels!r}")
    if not ordered or len(ordered) == len(available):
        raise ContractError(
            f"keep set {labels!r} must be a nonempty proper subset of {available}"
        )
    return ordered


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

    The partial trace of a validated state is a density matrix, so the
    result is only symmetrized, not re-validated.  Inputs at the edge of
    their tolerances pass that slack on unchecked: a PureState whose norm is
    off by ``NORM_TOL`` reduces to a trace off by about ``2 * NORM_TOL``, and
    a DensityMatrix within ``PSD_TOL`` of the positive-semidefinite boundary
    can reduce to an eigenvalue slightly below ``-PSD_TOL``.
    """
    if isinstance(state, PureState):
        kept = _canonical_keep(keep, SUBSYSTEM_LABELS)
        keep_ax = [SUBSYSTEM_LABELS.index(s) for s in kept]
        traced_ax = [ax for ax in range(3) if ax not in keep_ax]
        t = state.as_tensor()
        reduced = np.tensordot(t, t.conj(), axes=(traced_ax, traced_ax))
        kept_dims = tuple(state.dims.as_tuple()[ax] for ax in keep_ax)
    elif isinstance(state, DensityMatrix):
        available = state.subsystems
        kept = _canonical_keep(keep, available)
        dims = list(state.dims)
        reduced = state.matrix.reshape(*dims, *dims)
        n_factors = len(dims)
        for pos in sorted(
            (available.index(s) for s in available if s not in kept), reverse=True
        ):
            reduced = np.trace(reduced, axis1=pos, axis2=pos + n_factors)
            n_factors -= 1
        kept_dims = tuple(state.dims[available.index(s)] for s in kept)
    else:
        raise ContractError(f"cannot take a partial trace of {type(state).__name__}")
    n = int(np.prod(kept_dims))
    return DensityMatrix._derived(kept, kept_dims, reduced.reshape(n, n))


def fidelity(psi1: PureState, psi2: PureState) -> float:
    """|<psi1|psi2>|^2; invariant under global phases on either argument."""
    if psi1.dims != psi2.dims:
        raise ContractError(f"dimension mismatch: {psi1.dims} vs {psi2.dims}")
    return float(abs(np.vdot(psi1.amplitudes, psi2.amplitudes)) ** 2)


def purity(rho: DensityMatrix) -> float:
    """Tr(rho^2), 1 for pure states and 1/d for maximally mixed ones."""
    return float(np.real(np.trace(rho.matrix @ rho.matrix)))
