"""Hermitian eigendecomposition with rank truncation and spectrum pairing.

For a pure composite state, complementary marginals share their nonzero
spectra; the pairing between the two descending eigenvalue lists is what
links an eigenvector of one marginal to its partner on the other side.
Degenerate retained eigenvalues make that pairing ambiguous, so they are
reported as a hard ``GenericityViolation`` instead of a guess.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, GenericityViolation, NumericalError, SpectrumMismatch
from .states import DensityMatrix, _instance, _integer, _open_unit, _positive_real, _sketch_for

# Bounds both the truncated eigenvalue mass and the Frobenius reconstruction
# residual; dim * rank_threshold stays below this for dims up to 4096.
RANK_LEAK_TOL = 1e-6


@dataclass(frozen=True)
class SpectralDecomposition:
    """Retained eigenpairs of a density matrix, eigenvalues descending.

    Construction checks the shapes: 1-d ``eigenvalues``, one column of
    ``eigenvectors`` per eigenvalue, each of ``original_dim`` entries, and
    ``0 <= rank <= len(eigenvalues)``; anything else raises ContractError.
    Only the ``rank`` retained pairs are kept, ``eigenvalues[:rank]`` and
    ``eigenvectors[:, :rank]``, so every stage sees ``rank`` of each.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    original_dim: int
    rank: int

    def __post_init__(self):
        vals, vecs = np.asarray(self.eigenvalues), np.asarray(self.eigenvectors)
        n = _integer("original_dim", self.original_dim)
        rank = _integer("rank", self.rank, 0)
        if vals.ndim != 1:
            raise ContractError(f"eigenvalues must be a 1-d array, got shape {vals.shape}")
        if vecs.shape != (n, vals.size):
            raise ContractError(f"eigenvectors has shape {vecs.shape}, expected {(n, vals.size)}")
        if rank > vals.size:
            raise ContractError(f"rank {rank} exceeds the {vals.size} eigenvalues")
        object.__setattr__(self, "eigenvalues", vals[:rank])
        object.__setattr__(self, "eigenvectors", vecs[:, :rank])
        object.__setattr__(self, "original_dim", n)
        object.__setattr__(self, "rank", rank)


@dataclass(frozen=True)
class SpectrumPairing:
    """Two retained spectra of ``rank`` eigenpairs, paired i-th with i-th, and their worst gap."""

    rank: int
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
    Ascending order puts the kept pairs last, so they are sliced rather than
    masked out; the 2-norm of the discarded eigenvalues ``d``, descending,
    is ``sqrt(d @ d)``, the value ``np.linalg.norm(d)`` gives.
    """
    desc, kept = vals[::-1], int(np.count_nonzero(vals > rank_threshold))
    kept_vals = np.ascontiguousarray(desc[:kept])
    kept_vecs = np.ascontiguousarray(vecs[:, ::-1][:, :kept])
    dropped = np.ascontiguousarray(desc[kept:])
    return kept_vals, kept_vecs, residual + math.sqrt(dropped @ dropped)


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
    rank_threshold = _open_unit("rank_threshold", rank_threshold)
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
    _instance("spec", spec, SpectralDecomposition)
    gap_tol = _positive_real("gap_tol", gap_tol)
    vals = spec.eigenvalues.tolist()
    clusters: list[list[int]] = []
    for idx in range(1, spec.rank):
        if vals[idx - 1] - vals[idx] < gap_tol:
            if clusters and clusters[-1][-1] == idx - 1:
                clusters[-1].append(idx)
            else:
                clusters.append([idx - 1, idx])
    return clusters


def match_spectra(
    spec_a: SpectralDecomposition,
    spec_bc: SpectralDecomposition,
    pair_tol: float = 1e-8,
) -> SpectrumPairing:
    """Pair two descending retained spectra position by position, the i-th with the i-th.

    Raises GenericityViolation if either spectrum has a cluster tighter than
    ``pair_tol`` (the pairing would be meaningless), and SpectrumMismatch if
    the ranks differ or any matched pair is further apart than ``pair_tol``.
    """
    _instance("spec_a", spec_a, SpectralDecomposition)
    _instance("spec_bc", spec_bc, SpectralDecomposition)
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
    pairs = zip(spec_a.eigenvalues.tolist(), spec_bc.eigenvalues.tolist())
    max_gap = max([abs(a - b) for a, b in pairs], default=0.0)
    if max_gap > pair_tol:
        raise SpectrumMismatch(
            f"paired eigenvalues differ by up to {max_gap:.3e} (> {pair_tol:.1e})"
        )
    return SpectrumPairing(rank=spec_a.rank, max_pair_gap=max_gap)
