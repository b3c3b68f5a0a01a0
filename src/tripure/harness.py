"""Random-state sampling, round-trip verification and batch statistics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AlgorithmError, ContractError
from .reconstruct import ReconstructionConfig, _outcome_fields, reconstruct_tripartite
from .states import Dims, PureState, _instance, _integer, fidelity, partial_trace

# Result fields that batch_stats aggregates over the successful trials only.
_SUCCESS_FIELDS = ("fidelity", "marginal_residual_ab", "marginal_residual_bc",
                   "compatibility_residual", "cycle_residual")


@dataclass(frozen=True)
class TrialRecord:
    """Outcome of one round trip; residuals and fidelity only on success."""

    seed: int | None
    dims: tuple[int, int, int]
    outcome: str
    fidelity: float | None = None
    marginal_residual_ab: float | None = None
    marginal_residual_bc: float | None = None
    compatibility_residual: float | None = None
    cycle_residual: float | None = None
    min_spectral_gap: float | None = None


def sample_haar_state(dims: Dims, seed: int) -> PureState:
    """Normalized vector of iid standard complex Gaussians, uniform on the sphere.

    Dims whose amplitudes need more bytes than numpy can index are refused.
    """
    rng = np.random.default_rng(_integer("seed", seed, least=0))
    total = _instance("dims", dims, Dims).total
    if total * np.dtype(complex).itemsize > np.iinfo(np.intp).max:
        raise ContractError(f"dims {dims.as_tuple()} give {total} amplitudes, too many for numpy")
    raw = rng.standard_normal((total, 2))
    amps = raw[:, 0] + 1j * raw[:, 1]
    return PureState(dims, amps / np.linalg.norm(amps))


def roundtrip(
    psi: PureState,
    config: ReconstructionConfig | None = None,
    seed: int | None = None,
) -> TrialRecord:
    """Trace out, reconstruct, and compare against the original state.

    Algorithm errors are captured in the record's ``outcome`` rather than
    raised, so batch runs always complete.
    """
    rho_ab = partial_trace(psi, ("A", "B"))
    rho_bc = partial_trace(psi, ("B", "C"))
    try:
        report = reconstruct_tripartite(rho_ab, rho_bc, psi.dims, config)
    except AlgorithmError as exc:
        return TrialRecord(seed, psi.dims.as_tuple(), **_outcome_fields(exc))
    return TrialRecord(
        seed, psi.dims.as_tuple(), fidelity=fidelity(psi, report.state), **_outcome_fields(report)
    )


def run_trials(
    dims: Dims,
    n_trials: int,
    seed_base: int = 0,
    config: ReconstructionConfig | None = None,
) -> list[TrialRecord]:
    """Round-trip ``n_trials`` Haar samples, trial t seeded with seed_base + t."""
    n_trials = _integer("n_trials", n_trials)
    seed_base = _integer("seed_base", seed_base, least=0)
    return [
        roundtrip(sample_haar_state(dims, seed_base + t), config, seed=seed_base + t)
        for t in range(n_trials)
    ]


def _quantiles(values: list[float | None]) -> dict[str, float] | None:
    values = [v for v in values if v is not None]
    if not values:
        return None
    arr = np.asarray(values, dtype=float)
    return {
        "min": float(arr.min()),
        "p10": float(np.quantile(arr, 0.10)),
        "p50": float(np.quantile(arr, 0.50)),
        "p90": float(np.quantile(arr, 0.90)),
        "max": float(arr.max()),
    }


def batch_stats(records: list[TrialRecord]) -> dict:
    """Deterministic JSON-ready aggregation of a record batch."""
    if not records:
        raise ContractError("cannot aggregate an empty record list")
    successes = [r for r in records if r.outcome == "success"]
    counts: dict[str, int] = {}
    for r in records:
        counts[r.outcome] = counts.get(r.outcome, 0) + 1
    return {
        "n_records": len(records),
        "success_rate": len(successes) / len(records),
        "outcome_counts": dict(sorted(counts.items())),
        **{name: _quantiles([getattr(r, name) for r in successes]) for name in _SUCCESS_FIELDS},
        "min_spectral_gap": _quantiles([r.min_spectral_gap for r in records]),
        "gap_error_scatter": [[r.min_spectral_gap, 1.0 - r.fidelity] for r in successes],
    }
