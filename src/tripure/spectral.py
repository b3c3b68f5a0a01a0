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
from .states import DensityMatrix, _instance, _integer, _positive_real, _sketch_for

# Bounds both the truncated eigenvalue mass and the Frobenius reconstruction
# residual; dim * rank_threshold stays below this for dims up to 4096.
RANK_LEAK_TOL = 1e-6


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


def _truncate(
    vals: np.ndarray, vecs: np.ndarray, residual: float, rank_threshold: float
) -> tuple[np.ndarray, np.ndarray, float]:
    """Eigenpairs above threshold, descending, and a bound on the Frobenius residual they leave.

    ``vals, vecs`` (ascending) decompose the matrix up to a Frobenius
    ``residual``: the sketch's on the sketch path, 0 after a dense ``eigh``
    (up to its backward error).  Dropping eigenpairs adds the 2-norm of
    their eigenvalues, so by the triangle inequality the truncated residual
    is at most ``residual + ||discarded||_2``; no n x n product is formed.
    """
    vals = vals[::-1]
    vecs = vecs[:, ::-1]
    mask = vals > rank_threshold
    kept_vals = np.ascontiguousarray(vals[mask])
    kept_vecs = np.ascontiguousarray(vecs[:, mask])
    return kept_vals, kept_vecs, residual + float(np.linalg.norm(vals[~mask]))


def eig_hermitian(
    rho: DensityMatrix, rank_threshold: float = 1e-10, rank_bound: int | None = None
) -> SpectralDecomposition:
    """Diagonalize ``rho`` and keep eigenpairs with eigenvalue above threshold.

    Eigenvalues are returned in descending order with orthonormal column
    eigenvectors.  The discarded tail must carry negligible weight: a bound
    on the Frobenius residual of the truncated reconstruction
    (``_truncate``) and the deficit of the retained eigenvalue sum are both
    checked against ``RANK_LEAK_TOL``.

    ``rank_bound`` is the rank the caller expects, such as the rank of the
    complementary marginal.  When it is given, the range sketch that
    ``states._sketch_for`` takes or reuses for it is tried first.  The
    sketch is accepted only if the bound on its truncated residual ``R`` is
    at most ``rank_threshold`` (and ``RANK_LEAK_TOL``): by Weyl's inequality
    every eigenvalue it missed is at most ``||R||_2 <= ||R||_F``, so it
    keeps what a full solve keeps.  Otherwise, or when the matrix is too
    small to sketch, the full dense solve runs as if no bound were given.
    """
    m = _instance("rho", rho, DensityMatrix).matrix
    if _positive_real("rank_threshold", rank_threshold) >= 1.0:
        raise ContractError(f"rank_threshold must lie in (0, 1), got {rank_threshold!r}")
    kept_vals = kept_vecs = None
    if rank_bound is not None:
        sketch = _sketch_for(m, _integer("rank_bound", rank_bound), rho._sketch)
        if sketch is not None:
            vals, vecs, residual = _truncate(*sketch, rank_threshold)
            if residual <= min(rank_threshold, RANK_LEAK_TOL):
                kept_vals, kept_vecs = vals, vecs
    if kept_vals is None:
        try:
            vals, vecs = np.linalg.eigh(m)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"eigensolver failed to converge: {exc}") from exc
        kept_vals, kept_vecs, residual = _truncate(vals, vecs, 0.0, rank_threshold)
        if residual > RANK_LEAK_TOL:
            raise NumericalError(
                f"rank truncation at {rank_threshold:.1e} discards too much: "
                f"Frobenius residual {residual:.3e}"
            )
    if abs(kept_vals.sum() - 1.0) > RANK_LEAK_TOL:
        raise NumericalError(
            f"retained eigenvalue sum {float(kept_vals.sum())!r} deviates from 1"
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
