"""Hermitian eigendecomposition with rank truncation and spectrum pairing.

For a pure composite state, complementary marginals share their nonzero
spectra; the pairing between the two descending eigenvalue lists is what
links an eigenvector of one marginal to its partner on the other side.
Degenerate retained eigenvalues make that pairing ambiguous, so they are
reported as a hard ``GenericityViolation`` instead of a guess.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, GenericityViolation, NumericalError, SpectrumMismatch
from .states import DensityMatrix, _instance, _integer, _positive_real

# Bounds both the truncated eigenvalue mass and the Frobenius reconstruction
# residual; dim * rank_threshold stays below this for dims up to 4096.
RANK_LEAK_TOL = 1e-6

# Low-rank sketch: probe columns beyond the expected rank, the least matrix
# size per probe column worth sketching, and the probes' fixed seed.
SKETCH_OVERSAMPLE = 8
SKETCH_MIN_RATIO = 8
SKETCH_SEED = 403200


@dataclass(frozen=True)
class SpectralDecomposition:
    """Retained eigenpairs of a density matrix, eigenvalues descending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    original_dim: int
    rank: int


@dataclass(frozen=True)
class SpectrumPairing:
    """Index map between two retained spectra plus the worst matched gap."""

    permutation: np.ndarray
    max_pair_gap: float


def _range_sketch(m: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Top eigenpairs of ``m`` restricted to the range of ``m`` times k probe vectors.

    Randomized range finder (Halko, Martinsson & Tropp, SIAM Rev. 53:217,
    2011) with fixed-seed complex Gaussian probes, so reruns are identical.
    Returns k eigenpairs in ascending order, as ``numpy.linalg.eigh`` does.
    """
    rng = np.random.default_rng(SKETCH_SEED)
    probes = rng.standard_normal((m.shape[0], k)) + 1j * rng.standard_normal((m.shape[0], k))
    q, _ = np.linalg.qr(m @ probes)
    small = q.conj().T @ m @ q
    vals, vecs = np.linalg.eigh((small + small.conj().T) / 2.0)
    return vals, q @ vecs


def _truncate(
    m: np.ndarray, vals: np.ndarray, vecs: np.ndarray, rank_threshold: float
) -> tuple[np.ndarray, np.ndarray, float]:
    """Eigenpairs above threshold, descending, and the Frobenius residual they leave."""
    vals = vals[::-1]
    vecs = vecs[:, ::-1]
    mask = vals > rank_threshold
    kept_vals = np.ascontiguousarray(vals[mask])
    kept_vecs = np.ascontiguousarray(vecs[:, mask])
    residual = float(np.linalg.norm(m - (kept_vecs * kept_vals) @ kept_vecs.conj().T))
    return kept_vals, kept_vecs, residual


def eig_hermitian(
    rho: DensityMatrix, rank_threshold: float = 1e-10, rank_bound: int | None = None
) -> SpectralDecomposition:
    """Diagonalize ``rho`` and keep eigenpairs with eigenvalue above threshold.

    Eigenvalues are returned in descending order with orthonormal column
    eigenvectors.  The discarded tail must carry negligible weight: the
    Frobenius residual of the truncated reconstruction and the deficit of
    the retained eigenvalue sum are both checked against ``RANK_LEAK_TOL``.

    ``rank_bound`` is the rank the caller expects, such as the rank of the
    complementary marginal.  When the matrix is large next to it, a range
    sketch of ``rank_bound + SKETCH_OVERSAMPLE`` columns is tried first.
    The sketch is accepted only if its residual ``R`` is at most
    ``rank_threshold`` (and ``RANK_LEAK_TOL``): by Weyl's inequality every
    eigenvalue it missed is at most ``||R||_2 <= ||R||_F``, so it keeps
    what a full solve keeps.
    Otherwise the full dense solve runs as if no bound were given.
    """
    m = _instance("rho", rho, DensityMatrix).matrix
    if _positive_real("rank_threshold", rank_threshold) >= 1.0:
        raise ContractError(f"rank_threshold must lie in (0, 1), got {rank_threshold!r}")
    kept_vals = kept_vecs = None
    k = None if rank_bound is None else _integer("rank_bound", rank_bound) + SKETCH_OVERSAMPLE
    if k is not None and m.shape[0] >= SKETCH_MIN_RATIO * k:
        vals, vecs, residual = _truncate(m, *_range_sketch(m, k), rank_threshold)
        if residual <= min(rank_threshold, RANK_LEAK_TOL):
            kept_vals, kept_vecs = vals, vecs
    if kept_vals is None:
        try:
            vals, vecs = np.linalg.eigh(m)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"eigensolver failed to converge: {exc}") from exc
        kept_vals, kept_vecs, residual = _truncate(m, vals, vecs, rank_threshold)
        if residual > RANK_LEAK_TOL:
            raise NumericalError(
                f"rank truncation at {rank_threshold:.1e} discards too much: "
                f"Frobenius residual {residual:.3e}"
            )
    if abs(kept_vals.sum() - 1.0) > RANK_LEAK_TOL:
        raise NumericalError(
            f"retained eigenvalue sum {kept_vals.sum()!r} deviates from 1"
        )
    return SpectralDecomposition(
        eigenvalues=kept_vals,
        eigenvectors=kept_vecs,
        original_dim=rho.dim,
        rank=kept_vals.size,
    )


def detect_degeneracy(spec: SpectralDecomposition, gap_tol: float = 1e-8) -> list[list[int]]:
    """Clusters of retained eigenvalues whose consecutive gaps fall below gap_tol.

    An empty list means the spectrum is generic (all retained eigenvalues
    separated by at least gap_tol).
    """
    gap_tol = _positive_real("gap_tol", gap_tol)
    clusters: list[list[int]] = []
    current = [0]
    for idx in range(1, spec.rank):
        if spec.eigenvalues[idx - 1] - spec.eigenvalues[idx] < gap_tol:
            current.append(idx)
        else:
            if len(current) > 1:
                clusters.append(current)
            current = [idx]
    if len(current) > 1:
        clusters.append(current)
    return clusters


def match_spectra(
    spec_a: SpectralDecomposition,
    spec_bc: SpectralDecomposition,
    pair_tol: float = 1e-8,
) -> SpectrumPairing:
    """Pair two descending retained spectra that must agree eigenvalue by eigenvalue.

    Raises GenericityViolation if either spectrum has a cluster tighter than
    ``pair_tol`` (the pairing would be meaningless), and SpectrumMismatch if
    the ranks differ or any matched pair is further apart than ``pair_tol``.
    """
    pair_tol = _positive_real("pair_tol", pair_tol)
    for name, spec in (("first", spec_a), ("second", spec_bc)):
        clusters = detect_degeneracy(spec, pair_tol)
        if clusters:
            raise GenericityViolation(
                f"{name} spectrum has degenerate clusters {clusters} at tolerance {pair_tol:.1e}"
            )
    if spec_a.rank != spec_bc.rank:
        raise SpectrumMismatch(
            f"retained ranks differ: {spec_a.rank} vs {spec_bc.rank} "
            "(inputs are not marginals of one pure state)"
        )
    gaps = np.abs(spec_a.eigenvalues - spec_bc.eigenvalues)
    max_gap = float(gaps.max()) if gaps.size else 0.0
    if max_gap > pair_tol:
        raise SpectrumMismatch(
            f"paired eigenvalues differ by up to {max_gap:.3e} (> {pair_tol:.1e})"
        )
    return SpectrumPairing(permutation=np.arange(spec_a.rank), max_pair_gap=max_gap)
