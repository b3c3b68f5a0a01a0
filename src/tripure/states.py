"""Core types and operations for tripartite states.

States live on three subsystems labelled ``A``, ``B``, ``C``.  Amplitude
vectors are flattened row-major: index ``(i, j, k)`` maps to
``(i * d_B + j) * d_C + k``, so ``A`` varies slowest and ``C`` fastest.
The same convention orders the rows and columns of every density matrix.
"""

from __future__ import annotations

import ctypes
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import ContractError

SUBSYSTEM_LABELS = ("A", "B", "C")

NORM_TOL = 1e-10
HERM_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-9

# Low-rank sketch: probe columns beyond the expected rank, the least matrix
# size per probe column worth sketching, and the probes' fixed seed.
SKETCH_OVERSAMPLE = 8
SKETCH_MIN_RATIO = 8
SKETCH_SEED = 403200

# Complex entries per row block of the n x n passes (1 MiB), so validation
# and residuals hold no full-size temporary.
_BLOCK_ENTRIES = 1 << 16

# glibc mallopt parameters (malloc.h) and the size from which a buffer gets
# its own mapping: numpy asks for huge pages from 4 MiB up, so a fresh
# mapping of a large matrix faults in 2 MiB at a time.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 1 << 22


def _fix_mmap_threshold(environ=os.environ, mallopt=None) -> bool:
    """Give every buffer of ``_MMAP_THRESHOLD`` bytes or more its own mapping, under glibc.

    By default glibc raises its mmap threshold to the size of the largest
    buffer freed, up to 32 MiB.  After the first n x n matrix is freed, the
    next ones are then carved from the heap, and whether a freed matrix's
    pages are reused or fresh ones are touched depends on every allocation
    made before: the peak memory of a loop over 1024 x 1024 marginals
    moved between ~80 and ~93 MB from run to run and with edits to a module
    the loop never ran.  Setting the threshold turns that adjustment off,
    so a large matrix is mapped when allocated and unmapped when freed; the
    trim threshold is set to twice it, the pair glibc itself would pick.  A
    threshold set in the environment is left alone, and under another C
    library nothing is done.  Returns whether the thresholds were set.
    """
    if "MALLOC_MMAP_THRESHOLD_" in environ or "mmap_threshold" in environ.get("GLIBC_TUNABLES", ""):
        return False
    if mallopt is None:
        try:
            if not os.confstr("CS_GNU_LIBC_VERSION"):
                return False
            mallopt = ctypes.CDLL(None).mallopt
        except (AttributeError, OSError, TypeError, ValueError):
            return False
        mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        mallopt.restype = ctypes.c_int
    return bool(mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)) and bool(
        mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_THRESHOLD)
    )


_fix_mmap_threshold()


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

    Non-numeric content, booleans included, is refused by its type name,
    since a matrix repr can be huge.
    """
    try:
        arr = np.asarray(value)
    except ValueError:  # a ragged nesting
        arr = None
    if arr is None or arr.dtype == bool or not np.can_cast(arr.dtype, dtype, "same_kind"):
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


def _row_blocks(n: int):
    """Slices of consecutive rows of an n x n matrix, at most ``_BLOCK_ENTRIES`` entries each.

    A block holds at least one row, and a small matrix is one block.
    """
    step = max(1, _BLOCK_ENTRIES // n)
    for start in range(0, n, step):
        yield slice(start, min(start + step, n))


def _residual_norm(left: np.ndarray, right: np.ndarray, m: np.ndarray) -> float:
    """Frobenius norm of ``left @ right - m``, formed one row block at a time.

    The squares are summed block by block, so the result is not bitwise
    ``np.linalg.norm`` of the full residual; it is only compared with
    tolerances.
    """
    sq = 0.0
    for rows in _row_blocks(m.shape[0]):
        r = left[rows] @ right
        r -= m[rows]
        sq += np.vdot(r, r).real
    return math.sqrt(sq)


def _range_sketch(m: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Top eigenpairs of ``m`` restricted to the range of ``m`` times k probe vectors.

    Randomized range finder (Halko, Martinsson & Tropp, SIAM Rev. 53:217,
    2011) with fixed-seed complex Gaussian probes, so reruns are identical.
    Returns k eigenpairs in ascending order, as ``numpy.linalg.eigh`` does,
    and the Frobenius norm of the residual ``m - V diag(lam) V^dag``, a
    blocked sum of squares (``_residual_norm``) that forms no n x n array.
    """
    rng = np.random.default_rng(SKETCH_SEED)
    probes = rng.standard_normal((m.shape[0], k)) + 1j * rng.standard_normal((m.shape[0], k))
    q, _ = np.linalg.qr(m @ probes)
    small = q.conj().T @ m @ q
    vals, vecs = np.linalg.eigh((small + small.conj().T) / 2.0)
    vecs = q @ vecs
    return vals, vecs, _residual_norm(vecs * vals, vecs.conj().T, m)


def _sketch_for(m: np.ndarray, rank_bound: int, stored: tuple | None = None) -> tuple | None:
    """Range sketch of ``m`` for an expected rank ``rank_bound``; None if ``m`` is too small.

    The one place that sizes and reuses sketches: ``m`` needs
    ``SKETCH_MIN_RATIO`` rows per probe column, and ``stored``, an earlier
    sketch of ``m``, is returned when it has the k columns asked for; the
    probes' seed is fixed, so a new sketch would have the same bits.
    """
    k = max(rank_bound + SKETCH_OVERSAMPLE, 2 * SKETCH_OVERSAMPLE)
    if m.shape[0] < SKETCH_MIN_RATIO * k:
        return None
    if stored is not None and len(stored[0]) == k:
        return stored
    return _range_sketch(m, k)


def _psd_by_sketch(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, float] | None:
    """The range sketch that certifies every eigenvalue of ``m`` is >= -PSD_TOL / 2, or None.

    With sketched eigenpairs ``V, lam``, the matrix ``V diag(lam) V^dag`` has
    spectrum ``lam`` and zeros, so by Weyl's inequality ``lambda_min(m) >=
    min(lam_min, 0) - ||R||_F`` for the residual ``R = m - V diag(lam) V^dag``.
    The sketch is ``_sketch_for(m, 0)``; it certifies matrices of rank up to
    about its probe count.
    """
    sketch = _sketch_for(m, 0)
    if sketch is None:
        return None
    vals, _, residual = sketch
    return sketch if min(vals[0], 0.0) - residual >= -PSD_TOL / 2 else None


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
        norm = float(np.linalg.norm(amps))
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
    rejects it otherwise; validation changes the matrix in no other way.
    Positive semidefiniteness is accepted first from a range sketch whose
    residual certifies ``lambda_min >= -PSD_TOL / 2`` (``_psd_by_sketch``),
    which settles a large low-rank matrix in O(n^2 k).  Otherwise it is
    accepted from a Cholesky factorization of ``M + PSD_TOL * I``, one copy
    of the matrix with its diagonal shifted; only when that fails is the
    smallest eigenvalue computed and compared with ``-PSD_TOL``.

    The symmetrization works in place in the stored matrix, as in
    ``_derived``, and the Hermitian check and the sketch residual run over
    row blocks (``_row_blocks``), so apart from the Cholesky copy no n x n
    temporary is held beyond the stored matrix.  The residual is a
    blocked sum of squares, not bitwise ``np.linalg.norm``; it is only
    compared with tolerances.

    The stored matrix is read-only.  A certifying sketch is kept, eigenpairs
    and residual norm, in the private ``_sketch`` attribute, which takes no
    part in comparison or repr; ``spectral.eig_hermitian`` reuses it instead
    of sketching the same matrix again.
    """

    subsystems: tuple[str, ...]
    dims: tuple[int, ...]
    matrix: np.ndarray
    # Not a field: set by __post_init__ when a sketch certified the matrix.
    _sketch = None

    def __post_init__(self):
        subs = _sequence("subsystems", self.subsystems)
        for s in subs:
            _choice("subsystems", s, SUBSYSTEM_LABELS)
        if not subs or tuple(s for s in SUBSYSTEM_LABELS if s in subs) != subs:
            raise ContractError(
                f"subsystems must be an ordered subset of {SUBSYSTEM_LABELS}, got {subs!r}"
            )
        dims = _entries("dims", self.dims, _integer, len(subs))
        n = math.prod(dims)
        given = _array("matrix", self.matrix, (n, n))
        m = np.conjugate(given.T, order="C")
        herm_gap = max(np.abs(given[rows] - m[rows]).max() for rows in _row_blocks(n))
        m += given
        m /= 2.0
        if herm_gap > HERM_TOL:
            raise ContractError(f"matrix is not Hermitian: max |M - M^dag| = {herm_gap:.3e}")
        tr = m.trace()
        if abs(tr - 1.0) > TRACE_TOL:
            raise ContractError(f"trace {complex(tr)!r} deviates from 1 by more than {TRACE_TOL}")
        sketch = _psd_by_sketch(m)
        if sketch is None:
            shifted = m.copy()
            shifted.flat[:: n + 1] += PSD_TOL
            try:
                np.linalg.cholesky(shifted)
            except np.linalg.LinAlgError:
                lam_min = np.linalg.eigvalsh(m)[0]
                if lam_min < -PSD_TOL:
                    raise ContractError(
                        f"matrix is not positive semidefinite: lambda_min = {lam_min:.3e}"
                    ) from None
        m.flags.writeable = False
        object.__setattr__(self, "subsystems", subs)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "_sketch", sketch)

    @classmethod
    def _derived(cls, subsystems: tuple[str, ...], dims: tuple[int, ...], m: np.ndarray):
        """Wrap a matrix derived from validated states without re-running the checks.

        Partial traces and convex combinations of density matrices are
        density matrices, so only the symmetrization is repeated.
        """
        rho = object.__new__(cls)
        object.__setattr__(rho, "subsystems", subsystems)
        object.__setattr__(rho, "dims", tuple(int(d) for d in dims))
        mh = np.conjugate(m.T, order="C")
        mh += m
        mh /= 2.0
        mh.flags.writeable = False
        object.__setattr__(rho, "matrix", mh)
        return rho

    @property
    def dim(self) -> int:
        return math.prod(self.dims)


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
    n = math.prod(kept_dims)
    return DensityMatrix._derived(kept, kept_dims, reduced.reshape(n, n))


def fidelity(psi1: PureState, psi2: PureState) -> float:
    """|<psi1|psi2>|^2; invariant under global phases on either argument."""
    _instance("psi1", psi1, PureState)
    if _instance("psi2", psi2, PureState).dims != psi1.dims:
        raise ContractError(f"dimension mismatch: {psi1.dims} vs {psi2.dims}")
    return float(abs(np.vdot(psi1.amplitudes, psi2.amplitudes)) ** 2)


def purity(rho: DensityMatrix) -> float:
    """Tr(rho^2), 1 for pure states and 1/d for maximally mixed ones."""
    m = _instance("rho", rho, DensityMatrix).matrix
    return float(np.real(np.trace(m @ m)))
