"""Reconstruction of a tripartite pure state from its AB and BC marginals.

The pipeline: derive the single-party marginals, diagonalize everything,
pair the spectra across complementary cuts, expand the bipartite
eigenvectors in the product eigenbases to get overlap tensors, solve the
resulting phase-difference constraints on a bipartite graph, and assemble
the state in Schmidt form across the A|BC cut.  Inputs outside the generic
regime (degenerate spectra, vanishing overlaps, incompatible marginals)
raise typed errors instead of producing a best-effort state.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    AlgorithmError,
    ContractError,
    ExpansionLeakage,
    MarginalInconsistency,
    PhaseGraphDisconnected,
    PhaseInconsistency,
)
from .spectral import (
    SpectralDecomposition,
    SpectrumPairing,
    detect_degeneracy,
    eig_hermitian,
    match_spectra,
)
from .states import (
    DensityMatrix,
    Dims,
    PureState,
    _array,
    _choice,
    _instance,
    _positive_real,
    partial_trace,
)

# Largest tolerated deficit of sum_jk |overlap|^2 from 1 per eigenvector.
EXPANSION_LEAK_TOL = 1e-6

TREE_STRATEGIES = ("max_weight", "bfs")


@dataclass(frozen=True)
class ReconstructionConfig:
    """Tolerances for one pipeline run.

    ``edge_tol`` is relative: an edge enters the phase graph when its weight
    exceeds ``edge_tol * max |weight|``.  All other tolerances are absolute
    (``phase_tol`` in radians).
    """

    rank_threshold: float = 1e-10
    gap_tol: float = 1e-8
    pair_tol: float = 1e-8
    edge_tol: float = 1e-7
    phase_tol: float = 1e-6
    marginal_tol: float = 1e-8

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, _positive_real(f.name, getattr(self, f.name)))


@dataclass(frozen=True)
class CoefficientTensors:
    """Expansions of the bipartite eigenvectors in the product eigenbases.

    ``bc_overlaps[i, j, k]`` is the (j, k) product-basis amplitude of the
    i-th retained BC eigenvector; ``ab_overlaps[k, i, j]`` the (i, j)
    amplitude of the k-th retained AB eigenvector.
    """

    bc_overlaps: np.ndarray
    ab_overlaps: np.ndarray


@dataclass(frozen=True)
class PhaseSolution:
    """Branch phases for both Schmidt families plus consistency data.

    ``a_phases[i]`` multiplies the i-th A|BC Schmidt branch and
    ``c_phases[k]`` the k-th AB|C branch; the root c-phase is gauged to
    zero.  ``cycle_residual`` is the largest wrapped violation among the
    redundant (non-tree) edges, in radians.
    """

    a_phases: np.ndarray
    c_phases: np.ndarray
    edge_magnitudes: np.ndarray
    cycle_residual: float


@dataclass(frozen=True)
class ReconstructionReport:
    state: PureState
    marginal_residual_ab: float
    marginal_residual_bc: float
    compatibility_residual: float
    cycle_residual: float
    genericity_flags: list[str]
    min_spectral_gap: float


def _outcome_fields(result: ReconstructionReport | AlgorithmError) -> dict:
    """One run's outcome and scalar results, as trial records and CLI reports name them.

    A report gives ``outcome`` "success" and its residuals and gap; an
    algorithm error gives its class name and the gap it carries, which is
    None when it fired before rho_A and rho_C were diagonalized.
    """
    if isinstance(result, AlgorithmError):
        return {"outcome": type(result).__name__, "min_spectral_gap": result.min_spectral_gap}
    return {
        "outcome": "success",
        "marginal_residual_ab": result.marginal_residual_ab,
        "marginal_residual_bc": result.marginal_residual_bc,
        "compatibility_residual": result.compatibility_residual,
        "cycle_residual": result.cycle_residual,
        "min_spectral_gap": result.min_spectral_gap,
    }


def coefficient_tensors(
    spec_bc: SpectralDecomposition,
    spec_ab: SpectralDecomposition,
    spec_a: SpectralDecomposition,
    spec_b: SpectralDecomposition,
    spec_c: SpectralDecomposition,
    dims: Dims,
) -> CoefficientTensors:
    """Overlap tensors of the bipartite eigenvectors with the product eigenbases.

    The one ``spec_b`` passed here must be shared by both tensors: two
    independent diagonalizations of nearly identical rho_B matrices can
    return differently phased or ordered bases and silently break the phase
    constraints downstream.

    Raises ExpansionLeakage when some eigenvector is not contained in the
    span of the retained product basis (inconsistent inputs, or a rank
    threshold that truncated too much).
    """
    d_a, d_b, d_c = dims.as_tuple()
    if spec_a.original_dim != d_a or spec_b.original_dim != d_b or spec_c.original_dim != d_c:
        raise ContractError("single-party decompositions do not match dims")
    if spec_bc.original_dim != d_b * d_c or spec_ab.original_dim != d_a * d_b:
        raise ContractError("bipartite decompositions do not match dims")

    w_bc = spec_bc.eigenvectors.T.reshape(spec_bc.rank, d_b, d_c)
    bc = np.einsum("bj,ibc,ck->ijk", spec_b.eigenvectors.conj(), w_bc, spec_c.eigenvectors.conj())
    w_ab = spec_ab.eigenvectors.T.reshape(spec_ab.rank, d_a, d_b)
    ab = np.einsum("ai,kab,bj->kij", spec_a.eigenvectors.conj(), w_ab, spec_b.eigenvectors.conj())

    bc_deficit = np.abs(1.0 - (np.abs(bc) ** 2).sum(axis=(1, 2))).max()
    ab_deficit = np.abs(1.0 - (np.abs(ab) ** 2).sum(axis=(1, 2))).max()
    worst = max(bc_deficit, ab_deficit)
    if worst > EXPANSION_LEAK_TOL:
        raise ExpansionLeakage(
            f"eigenvector expansion leaks {worst:.3e} of its weight outside the "
            "retained product basis"
        )
    return CoefficientTensors(bc_overlaps=bc, ab_overlaps=ab)


def phase_edges(coeffs: CoefficientTensors) -> np.ndarray:
    """Complex edge weights of the phase graph, one per (i, k) branch pair.

    Entry (i, k) is the B-contraction of the two overlap tensors; its
    argument fixes the phase difference a_phases[i] - c_phases[k] and its
    magnitude measures how well that constraint is conditioned.
    """
    return np.einsum("ijk,kij->ik", coeffs.bc_overlaps.conj(), coeffs.ab_overlaps)


def _wrap(angles: np.ndarray) -> np.ndarray:
    return (angles + np.pi) % (2.0 * np.pi) - np.pi


def solve_phases(
    edge_weights: np.ndarray,
    edge_tol: float = 1e-7,
    phase_tol: float = 1e-6,
    tree_strategy: str = "max_weight",
) -> PhaseSolution:
    """Solve the bipartite phase-difference system from complex edge weights.

    Nodes are the unknown phases a_phases[i] and c_phases[k]; entry (i, k)
    with magnitude above ``edge_tol * max |weight|`` contributes the
    constraint ``a_phases[i] - c_phases[k] = arg(weight)``.  A spanning tree
    rooted at the c-node with the largest incident weight (gauged to
    zero) assigns every phase; every redundant edge is then re-checked and
    the worst wrapped violation recorded as the cycle residual.

    ``tree_strategy`` selects the order in which the tree grows over its
    frontier edges: "max_weight" takes the largest magnitude first, "bfs"
    takes edges in the order they were reached (breadth first, neighbors in
    index order).  Any two strategies must agree up to the overall gauge
    whenever the inputs really are marginals of one pure state.
    """
    w = _array("edge_weights", edge_weights)
    if w.ndim != 2 or w.size == 0:
        raise ContractError(f"edge_weights must be a nonempty 2-d array, got shape {w.shape}")
    tree_strategy = _choice("tree_strategy", tree_strategy, TREE_STRATEGIES)
    edge_tol = _positive_real("edge_tol", edge_tol)
    phase_tol = _positive_real("phase_tol", phase_tol)
    r_a, r_c = w.shape
    mags = np.abs(w)
    peak = float(mags.max())
    if peak <= 0.0:
        raise PhaseGraphDisconnected("all edge weights vanish; no phase is determined")
    usable = mags > edge_tol * peak
    args = np.angle(w)

    root = int(np.argmax((mags * usable).sum(axis=0)))
    alpha = np.full(r_a, np.nan)
    gamma = np.full(r_c, np.nan)
    gamma[root] = 0.0
    tree = np.zeros_like(usable)

    heap: list[tuple[float, int, int]] = []
    order = itertools.count()

    def push(edges) -> None:
        for i, k in edges:
            key = -mags[i, k] if tree_strategy == "max_weight" else next(order)
            heapq.heappush(heap, (key, int(i), int(k)))

    push((i, root) for i in np.nonzero(usable[:, root])[0])
    while heap:
        _, i, k = heapq.heappop(heap)
        if np.isnan(alpha[i]):
            alpha[i] = gamma[k] + args[i, k]
            push((i, kk) for kk in np.nonzero(usable[i, :])[0])
        elif np.isnan(gamma[k]):
            gamma[k] = alpha[i] - args[i, k]
            push((ii, k) for ii in np.nonzero(usable[:, k])[0])
        else:
            continue
        tree[i, k] = True

    missing_a = np.nonzero(np.isnan(alpha))[0]
    missing_c = np.nonzero(np.isnan(gamma))[0]
    if missing_a.size or missing_c.size:
        raise PhaseGraphDisconnected(
            "phase graph is disconnected: undetermined branch phases "
            f"a{[int(i) for i in missing_a]} / c{[int(k) for k in missing_c]} "
            "(vanishing overlap coefficients)"
        )

    redundant = usable & ~tree
    if redundant.any():
        violations = np.abs(_wrap(alpha[:, None] - gamma[None, :] - args))
        cycle_residual = float(violations[redundant].max())
    else:
        cycle_residual = 0.0
    if cycle_residual > phase_tol:
        raise PhaseInconsistency(
            f"redundant phase constraints disagree by {cycle_residual:.3e} rad "
            f"(> {phase_tol:.1e}); inputs are not marginals of one pure state"
        )
    return PhaseSolution(
        a_phases=alpha, c_phases=gamma, edge_magnitudes=mags, cycle_residual=cycle_residual
    )


def assemble_state(
    pairing: SpectrumPairing,
    spec_a: SpectralDecomposition,
    spec_bc: SpectralDecomposition,
    a_phases: np.ndarray,
    dims: Dims,
) -> PureState:
    """Assemble the Schmidt form across the A|BC cut with the given branch phases.

    The global phase is fixed by rotating the largest-modulus amplitude to
    the positive real axis (ties broken by lowest flat index), so equal
    states assemble to identical vectors.
    """
    if spec_a.original_dim != dims.d_a or spec_bc.original_dim != dims.d_b * dims.d_c:
        raise ContractError("decompositions do not match dims")
    a_phases = _array("a_phases", a_phases, (spec_a.rank,), dtype=float)
    weights = np.exp(1j * a_phases) * np.sqrt(spec_a.eigenvalues)
    partners = spec_bc.eigenvectors[:, pairing.permutation]
    amps = ((spec_a.eigenvectors * weights) @ partners.T).reshape(-1)
    amps = amps / np.linalg.norm(amps)
    lead = amps[np.argmax(np.abs(amps))]
    amps = amps * (lead.conjugate() / abs(lead))
    return PureState(dims, amps)


def compatibility_residual(
    coeffs: CoefficientTensors,
    phases: PhaseSolution,
    spec_a: SpectralDecomposition,
    spec_c: SpectralDecomposition,
) -> float:
    """Worst entrywise violation of the amplitude compatibility system.

    For marginals of one pure state, the phased, eigenvalue-weighted BC
    overlaps must equal the phased, eigenvalue-weighted AB overlaps entry by
    entry; the maximum absolute difference is returned.
    """
    lhs = (
        np.exp(1j * phases.a_phases)[:, None, None]
        * np.sqrt(spec_a.eigenvalues)[:, None, None]
        * coeffs.bc_overlaps
    )
    rhs = (
        np.exp(1j * phases.c_phases)[None, None, :]
        * np.sqrt(spec_c.eigenvalues)[None, None, :]
        * coeffs.ab_overlaps.transpose(1, 2, 0)
    )
    return float(np.abs(lhs - rhs).max())


def _check_input(name: str, rho, subsystems: tuple[str, str], dims: Dims) -> None:
    _instance(name, rho, DensityMatrix)
    expected_dims = tuple(dims.of(s) for s in subsystems)
    if rho.subsystems != subsystems or rho.dims != expected_dims:
        raise ContractError(
            f"expected a density matrix over {subsystems} with dims {expected_dims}, "
            f"got {rho.subsystems} with dims {rho.dims}"
        )


def reconstruct_tripartite(
    rho_ab: DensityMatrix,
    rho_bc: DensityMatrix,
    dims: Dims,
    config: ReconstructionConfig | None = None,
) -> ReconstructionReport:
    """Run the full reconstruction pipeline on the two bipartite marginals.

    Returns a report whose ``state`` reproduces both inputs within
    ``marginal_tol`` (Frobenius).  Raises MarginalInconsistency,
    GenericityViolation, SpectrumMismatch, ExpansionLeakage,
    PhaseGraphDisconnected or PhaseInconsistency when the inputs are not
    compatible with a single generic pure state; each error raised after
    rho_A and rho_C are diagonalized carries their ``min_spectral_gap``.
    """
    cfg = ReconstructionConfig() if config is None else config
    _instance("config", cfg, ReconstructionConfig)
    _instance("dims", dims, Dims)
    _check_input("rho_ab", rho_ab, ("A", "B"), dims)
    _check_input("rho_bc", rho_bc, ("B", "C"), dims)

    rho_a = partial_trace(rho_ab, ("A",))
    rho_b_from_ab = partial_trace(rho_ab, ("B",))
    rho_b_from_bc = partial_trace(rho_bc, ("B",))
    rho_c = partial_trace(rho_bc, ("C",))

    cross_gap = float(np.linalg.norm(rho_b_from_ab.matrix - rho_b_from_bc.matrix))
    if cross_gap > cfg.marginal_tol:
        raise MarginalInconsistency(
            f"the two inputs disagree about rho_B: Frobenius gap {cross_gap:.3e} "
            f"(> {cfg.marginal_tol:.1e})"
        )
    rho_b = DensityMatrix._derived(
        ("B",), (dims.d_b,), (rho_b_from_ab.matrix + rho_b_from_bc.matrix) / 2.0
    )

    spec_a = eig_hermitian(rho_a, cfg.rank_threshold)
    spec_c = eig_hermitian(rho_c, cfg.rank_threshold)
    # Smallest retained rho_A/rho_C spacing, counting the last eigenvalue's distance to 0.
    gaps = [np.min(-np.diff(s.eigenvalues), initial=s.eigenvalues[-1]) for s in (spec_a, spec_c)]
    min_gap = float(min(gaps))
    try:
        spec_b = eig_hermitian(rho_b, cfg.rank_threshold)
        # A pure state's complementary marginals share their rank, so the
        # single-party ranks bound the bipartite ones.
        spec_ab = eig_hermitian(rho_ab, cfg.rank_threshold, rank_bound=spec_c.rank)
        spec_bc = eig_hermitian(rho_bc, cfg.rank_threshold, rank_bound=spec_a.rank)

        pairing_a = match_spectra(spec_a, spec_bc, cfg.pair_tol)
        match_spectra(spec_c, spec_ab, cfg.pair_tol)

        coeffs = coefficient_tensors(spec_bc, spec_ab, spec_a, spec_b, spec_c, dims)
        edges = phase_edges(coeffs)
        solution = solve_phases(edges, cfg.edge_tol, cfg.phase_tol)
        state = assemble_state(pairing_a, spec_a, spec_bc, solution.a_phases, dims)

        compat = compatibility_residual(coeffs, solution, spec_a, spec_c)
        if compat > cfg.phase_tol:
            raise PhaseInconsistency(
                f"amplitude compatibility violated by {compat:.3e} after phase solving"
            )
        out_ab = partial_trace(state, ("A", "B")).matrix
        out_bc = partial_trace(state, ("B", "C")).matrix
        residual_ab = float(np.linalg.norm(out_ab - rho_ab.matrix))
        residual_bc = float(np.linalg.norm(out_bc - rho_bc.matrix))
        if max(residual_ab, residual_bc) > cfg.marginal_tol:
            raise MarginalInconsistency(
                f"reconstructed state fails to reproduce the inputs: residuals "
                f"{residual_ab:.3e} / {residual_bc:.3e} (> {cfg.marginal_tol:.1e})"
            )
    except AlgorithmError as exc:
        exc.min_spectral_gap = min_gap
        raise

    flags = []
    for name, spec in (
        ("rho_A", spec_a),
        ("rho_B", spec_b),
        ("rho_C", spec_c),
        ("rho_AB", spec_ab),
        ("rho_BC", spec_bc),
    ):
        clusters = detect_degeneracy(spec, cfg.gap_tol)
        if clusters:
            flags.append(f"{name}: degenerate clusters {clusters} at gap_tol {cfg.gap_tol:.1e}")
    # rho_B degeneracy is only informational: any orthonormal basis of its
    # support works as long as both tensors share it.
    return ReconstructionReport(
        state=state,
        marginal_residual_ab=residual_ab,
        marginal_residual_bc=residual_bc,
        compatibility_residual=compat,
        cycle_residual=solution.cycle_residual,
        genericity_flags=flags,
        min_spectral_gap=min_gap,
    )
