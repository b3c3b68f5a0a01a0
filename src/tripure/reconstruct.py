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

import math
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
    _integer,
    _open_unit,
    _positive_real,
    _residual_norm,
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
    (``phase_tol`` in radians).  Each is a positive finite real, and
    ``rank_threshold`` lies in (0, 1).
    """

    rank_threshold: float = 1e-10
    gap_tol: float = 1e-8
    pair_tol: float = 1e-8
    edge_tol: float = 1e-7
    phase_tol: float = 1e-6
    marginal_tol: float = 1e-8

    def __post_init__(self):
        for f in fields(self):
            check = _open_unit if f.name == "rank_threshold" else _positive_real
            object.__setattr__(self, f.name, check(f.name, getattr(self, f.name)))


# Frozen and validated once, so every run given no config shares it.
_DEFAULT_CONFIG = ReconstructionConfig()


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
    """The reconstructed state and the measured values of the checks it passed.

    ``marginal_residual_ab`` and ``marginal_residual_bc`` bound the
    Frobenius distance of the state's marginal from each input from above.
    For an input that validation certified with a sketch of residual ``s``
    (``s <= PSD_TOL / 2``), it is the bound ``_certified_residual`` when
    that is within ``marginal_tol``, at most ``s`` above the exact value;
    otherwise it is the exact value, ``_marginal_residual``.
    """

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

    With ``W_i`` the i-th BC eigenvector as a d_b x d_c matrix and ``A``,
    ``B``, ``C`` the single-party eigenvector matrices, ``bc_overlaps[i] =
    B^dag W_i conj(C)`` and ``ab_overlaps[k] = A^dag W_k conj(B)``, each
    formed as one batched matmul.

    The one ``spec_b`` passed here must be shared by both tensors: two
    independent diagonalizations of nearly identical rho_B matrices can
    return differently phased or ordered bases and silently break the phase
    constraints downstream.

    Raises ExpansionLeakage when some eigenvector is not contained in the
    span of the retained product basis (inconsistent inputs, or a rank
    threshold that truncated too much).
    """
    for name, spec in (("spec_bc", spec_bc), ("spec_ab", spec_ab), ("spec_a", spec_a),
                       ("spec_b", spec_b), ("spec_c", spec_c)):
        _instance(name, spec, SpectralDecomposition)
    d_a, d_b, d_c = _instance("dims", dims, Dims).as_tuple()
    if spec_a.original_dim != d_a or spec_b.original_dim != d_b or spec_c.original_dim != d_c:
        raise ContractError("single-party decompositions do not match dims")
    if spec_bc.original_dim != d_b * d_c or spec_ab.original_dim != d_a * d_b:
        raise ContractError("bipartite decompositions do not match dims")

    b_bar = spec_b.eigenvectors.conj()
    w_bc = spec_bc.eigenvectors.T.reshape(spec_bc.rank, d_b, d_c)
    bc = b_bar.T @ w_bc @ spec_c.eigenvectors.conj()
    w_ab = spec_ab.eigenvectors.T.reshape(spec_ab.rank, d_a, d_b)
    ab = spec_a.eigenvectors.conj().T @ w_ab @ b_bar

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
    _instance("coeffs", coeffs, CoefficientTensors)
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

    The tree grows one edge per step: the usable edge with exactly one end
    assigned and the least key, ties to the lowest (i, k).  The key is
    ``-|weight|`` for "max_weight" (largest magnitude first) and, for "bfs",
    (the step that reached the assigned end) * max(r_a, r_c) + (the other
    end's index), the order in which edges were reached.  Either key is
    fixed once the assigned end is, so the tree grows Prim-style over Python
    lists: each unassigned node keeps its least ``(key, i * r_c + k)`` over
    the edges to assigned nodes, offered as each node is assigned, and each
    step takes the least of those.  That is the least key over all such
    edges with the same tie rule, in O((r_a + r_c) * max(r_a, r_c)) work.
    Any two strategies must agree up to the overall gauge whenever the
    inputs really are marginals of one pure state.
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
    by_weight = tree_strategy == "max_weight"
    n = max(r_a, r_c)
    key_rows, arg_rows, usable_rows = (-mags).tolist(), args.tolist(), usable.tolist()
    alpha = [None] * r_a
    gamma = [None] * r_c
    gamma[root] = 0.0
    # Unassigned node (a-node i as i, c-node k as r_a + k) -> its least (key, i * r_c + k).
    frontier = {}
    unreached = (math.inf,)
    tree_a, tree_c = [], []

    def reach_from_c(k: int, step: int) -> None:
        for i in range(r_a):
            if alpha[i] is None and usable_rows[i][k]:
                edge = (key_rows[i][k] if by_weight else step * n + i, i * r_c + k)
                if edge < frontier.get(i, unreached):
                    frontier[i] = edge

    def reach_from_a(i: int, step: int) -> None:
        usable_row, key_row = usable_rows[i], key_rows[i]
        for k in range(r_c):
            if gamma[k] is None and usable_row[k]:
                edge = (key_row[k] if by_weight else step * n + k, i * r_c + k)
                if edge < frontier.get(r_a + k, unreached):
                    frontier[r_a + k] = edge

    reach_from_c(root, 0)
    for step in range(1, r_a + r_c):
        if not frontier:
            break
        i, k = divmod(min(frontier.values())[1], r_c)
        if alpha[i] is None:
            alpha[i] = gamma[k] + arg_rows[i][k]
            del frontier[i]
            reach_from_a(i, step)
        else:
            gamma[k] = alpha[i] - arg_rows[i][k]
            del frontier[r_a + k]
            reach_from_c(k, step)
        tree_a.append(i)
        tree_c.append(k)

    missing_a = [i for i, a in enumerate(alpha) if a is None]
    missing_c = [k for k, g in enumerate(gamma) if g is None]
    if missing_a or missing_c:
        raise PhaseGraphDisconnected(
            "phase graph is disconnected: undetermined branch phases "
            f"a{missing_a} / c{missing_c} (vanishing overlap coefficients)"
        )

    alpha, gamma = np.array(alpha), np.array(gamma)
    redundant = usable.copy()
    redundant[tree_a, tree_c] = False
    violations = np.abs(_wrap(alpha[:, None] - gamma[None, :] - args))
    cycle_residual = float(violations[redundant].max(initial=0.0))
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

    Branch i joins the i-th eigenpairs of ``spec_a`` and ``spec_bc``; both
    ranks must be ``pairing.rank``.  The global phase is fixed by rotating
    the largest-modulus amplitude to the positive real axis (ties broken by
    lowest flat index), so equal states assemble to identical vectors.
    """
    _instance("pairing", pairing, SpectrumPairing)
    _instance("spec_a", spec_a, SpectralDecomposition)
    _instance("spec_bc", spec_bc, SpectralDecomposition)
    _instance("dims", dims, Dims)
    if spec_a.original_dim != dims.d_a or spec_bc.original_dim != dims.d_b * dims.d_c:
        raise ContractError("decompositions do not match dims")
    a_phases = _array("a_phases", a_phases, (spec_a.rank,), dtype=float)
    rank = _integer("pairing.rank", pairing.rank, 0)
    if not rank == spec_a.rank == spec_bc.rank:
        raise ContractError(
            f"pairing.rank {rank} must equal spec_a.rank {spec_a.rank} "
            f"and spec_bc.rank {spec_bc.rank}"
        )
    weights = np.exp(1j * a_phases) * np.sqrt(spec_a.eigenvalues)
    amps = ((spec_a.eigenvectors * weights) @ spec_bc.eigenvectors.T).reshape(-1)
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
    _instance("coeffs", coeffs, CoefficientTensors)
    _instance("phases", phases, PhaseSolution)
    _instance("spec_a", spec_a, SpectralDecomposition)
    _instance("spec_c", spec_c, SpectralDecomposition)
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


def _factor(state: PureState, rho: DensityMatrix) -> np.ndarray:
    """The amplitudes as a (rho's dim) x (rest) matrix ``t``, so that ``t t^dag`` is P."""
    d_a, d_b, d_c = state.dims.as_tuple()
    if rho.subsystems == ("A", "B"):
        return state.amplitudes.reshape(d_a * d_b, d_c)
    return state.amplitudes.reshape(d_a, d_b * d_c).T


def _marginal_residual(state: PureState, rho: DensityMatrix) -> float:
    """Frobenius distance ``||P - rho||`` of the state's marginal ``P`` on rho's subsystems.

    ``P = t t^dag`` for the amplitudes reshaped to a (rho's dim) x (rest)
    matrix ``t``; it is not symmetrized.  Since ``rho`` is exactly
    Hermitian, ``(P + P^dag) / 2 - rho`` is the Hermitian part of
    ``P - rho``, so this bounds the symmetrized residual from above.  The
    residual is formed one row block at a time and its squares summed
    (``states._residual_norm``), so it is not bitwise ``np.linalg.norm``;
    it is only compared with tolerances.  It reads all of ``rho``;
    ``_certified_residual`` bounds it without doing so when ``rho`` keeps a
    validation sketch.
    """
    t = _factor(state, rho)
    return _residual_norm(t, t.conj().T, rho.matrix)


def _certified_residual(state: PureState, rho: DensityMatrix) -> float | None:
    """An upper bound on ``_marginal_residual(state, rho)`` from rho's stored sketch, else None.

    Validation keeps a certifying sketch ``(lam, V, s)`` of a large input:
    ``V`` has orthonormal columns and ``s = ||rho - V diag(lam) V^dag||_F``.
    With ``a = V^dag t`` and ``u = t - V a``, which ``V^dag`` annihilates,
    ``P - V diag(lam) V^dag`` is the sum of ``V (a a^dag - diag(lam)) V^dag``,
    ``V a u^dag``, its adjoint, and ``u u^dag``, which are orthogonal to one
    another, so its squared Frobenius norm is ``||a a^dag - diag(lam)||^2 +
    2 ||u a^dag||^2 + ||u^dag u||^2``.  Adding ``s`` bounds ``||P - rho||``
    by the triangle inequality, at most ``s`` above it, in O(n k r) work and
    with no n x n product.  None when rho carries no sketch: a derived
    matrix, or one too small or of too high a rank to be sketched.
    """
    if rho._sketch is None:
        return None
    vals, vecs, s, _ = rho._sketch
    t = _factor(state, rho)
    a = vecs.conj().T @ t
    u = t - vecs @ a
    core = a @ a.conj().T - np.diag(vals)
    cross, tail = u @ a.conj().T, u.conj().T @ u
    sq = np.vdot(core, core).real + 2.0 * np.vdot(cross, cross).real + np.vdot(tail, tail).real
    return math.sqrt(sq) + s


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
    cfg = _DEFAULT_CONFIG if config is None else config
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
    # Smallest retained rho_A/rho_C spacing, counting the last eigenvalue's
    # distance to 0; -(b - a) is the entry of -np.diff, bit for bit.
    gaps = []
    for spec in (spec_a, spec_c):
        vals = spec.eigenvalues.tolist()
        gaps += [-(b - a) for a, b in zip(vals, vals[1:])]
        gaps.append(vals[-1])
    min_gap = min(gaps)
    try:
        # A pure state's complementary marginals share their rank, so the
        # single-party ranks bound the bipartite ones, and rho_B's rank, that
        # of rho_AC, whose support lies in supp rho_A (x) supp rho_C.
        spec_b = eig_hermitian(rho_b, cfg.rank_threshold, rank_bound=spec_a.rank * spec_c.rank)
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
        # A certified bound within tolerance stands for the residual; any
        # other input is measured exactly, so the bound never refuses a state.
        residuals = []
        for rho in (rho_ab, rho_bc):
            bound = _certified_residual(state, rho)
            certified = bound is not None and bound <= cfg.marginal_tol
            residuals.append(bound if certified else _marginal_residual(state, rho))
        residual_ab, residual_bc = residuals
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
